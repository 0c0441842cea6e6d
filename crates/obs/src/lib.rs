//! Offline structured observability for the dsaudit stack.
//!
//! This crate is the bottom of the dependency graph: it depends on
//! nothing in the workspace (and nothing outside `std`), so every other
//! layer — algebra kernels, core role handles, the contract VM, the
//! node daemons, the simulator — can emit telemetry through it without
//! creating cycles.
//!
//! # Model
//!
//! Telemetry flows into a [`Registry`]: monotonic **counters**,
//! fixed-bucket power-of-two **histograms**, bounded point **events**,
//! and hierarchical **spans** (opened by [`span`], closed when the
//! returned [`Span`] guard drops). The registry timestamps everything
//! through a pluggable clock: wall-clock ([`Registry::new_wall`]) on a
//! bench box, or a caller-driven virtual clock
//! ([`Registry::new_virtual`], advanced via [`tick_virtual`]) so that
//! deterministic runs — the simulator and the node harness both already
//! run on virtual time — produce byte-identical telemetry.
//!
//! # Jobs
//!
//! Code may fan out across threads and still record. A caller that
//! forks work opens a [`fork`] under a key of its own, runs every piece
//! of work inside a [`job`] guard, and [`absorb`]s the fork when the
//! pieces have joined. Each job records into its own buffer, with its
//! own span stack and virtual clock; the absorb appends the buffers in
//! job-index order. A trace is therefore the same whichever threads ran
//! the jobs, and equals the trace of running them one after another.
//! `algebra::par` does this for every closure it runs.
//!
//! # The no-op default
//!
//! Nothing is recorded until a registry is [`install`]ed. Every
//! recording entry point first checks one relaxed atomic load and
//! returns immediately when disabled, so instrumentation left in hot
//! paths (MSM, pairing product, verify) costs a load-and-branch and
//! never allocates. Instrumented code cannot observe whether obs is
//! enabled: every facade function returns `()` except [`span`] and
//! [`job`], whose guards are opaque tokens. The `obs-purity` lint rule in
//! `dsaudit-lint` proves, over the interprocedural call graph, that no
//! verdict-, codec-, or `lint:ct`-reachable path consumes an obs return
//! value and that no `lint:ct` kernel calls into this crate.
//!
//! # Exporters
//!
//! A [`Snapshot`] (one consistent lock acquisition) feeds three
//! total, panic-free renderers in [`export`]: a JSON-lines event log,
//! an aggregated span tree ("text flamegraph"), and Prometheus-style
//! text exposition. See `docs/OBSERVABILITY.md` for the formats.

pub mod export;
mod registry;

pub use registry::{Event, EventKind, Histogram, Registry, Snapshot, SpanRecord, HIST_BUCKETS};

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Fast-path gate: `true` only while a registry is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed registry, if any. Guarded by a mutex rather than an
/// `RwLock` because it is touched only on the (cheap) enabled path and
/// at install/uninstall time.
static SINK: Mutex<Option<Arc<Registry>>> = Mutex::new(None);

thread_local! {
    /// The buffer of the job this thread is running, if any: the
    /// registry every facade call on this thread records into instead
    /// of the installed one.
    static JOB: Cell<Option<Arc<Registry>>> = const { Cell::new(None) };
}

/// A live fork: the registry its jobs fork from and absorb into, the
/// span their root spans hang under, and the buffers of the jobs that
/// have finished, by job index.
struct Fork {
    target: Arc<Registry>,
    parent: Option<usize>,
    done: BTreeMap<usize, Arc<Registry>>,
}

/// Live forks by the key their caller chose.
static FORKS: Mutex<BTreeMap<usize, Fork>> = Mutex::new(BTreeMap::new());

fn forks() -> MutexGuard<'static, BTreeMap<usize, Fork>> {
    FORKS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// This thread's job buffer, if it is running a job.
fn current_job() -> Option<Arc<Registry>> {
    JOB.try_with(|job| {
        let current = job.take();
        job.set(current.clone());
        current
    })
    .ok()
    .flatten()
}

/// Where this thread records: its job's buffer inside a job, else the
/// installed registry. `None` when disabled.
fn sink() -> Option<Arc<Registry>> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    current_job().or_else(|| SINK.lock().unwrap_or_else(PoisonError::into_inner).clone())
}

/// Installs `registry` as the process-wide telemetry sink and enables
/// recording. Replaces any previously installed registry.
pub fn install(registry: Arc<Registry>) {
    let mut guard = SINK.lock().unwrap_or_else(PoisonError::into_inner);
    *guard = Some(registry);
    forks().clear();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disables recording and removes the installed registry, returning it
/// so callers can snapshot and export after the run. Forks still live
/// are forgotten: their jobs' buffers are dropped, not absorbed.
pub fn uninstall() -> Option<Arc<Registry>> {
    ENABLED.store(false, Ordering::SeqCst);
    let mut guard = SINK.lock().unwrap_or_else(PoisonError::into_inner);
    forks().clear();
    guard.take()
}

/// Whether a registry is currently installed.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Adds `n` to the counter `name`. No-op when disabled.
pub fn counter_add(name: &str, n: u64) {
    if let Some(reg) = sink() {
        reg.counter_add(name, n);
    }
}

/// Adds 1 to the counter `name`. No-op when disabled.
pub fn counter_inc(name: &str) {
    counter_add(name, 1);
}

/// Records `value` into the histogram `name`. No-op when disabled.
pub fn observe(name: &str, value: u64) {
    if let Some(reg) = sink() {
        reg.observe(name, value);
    }
}

/// Records a point event (a named, timestamped occurrence with a short
/// free-form detail string). No-op when disabled.
pub fn point(name: &str, detail: &str) {
    if let Some(reg) = sink() {
        reg.point(name, detail);
    }
}

/// Advances the installed registry's virtual clock to `now_ms`
/// (caller's virtual milliseconds). No-op when disabled or when the
/// installed registry uses the wall clock.
pub fn tick_virtual(now_ms: u64) {
    if let Some(reg) = sink() {
        reg.set_virtual_ms(now_ms);
    }
}

/// RAII guard for a hierarchical span opened by [`span`]. The span
/// closes when the guard drops. Inert (and free) when obs is disabled.
///
/// Bind it as `let _span = dsaudit_obs::span("...")` — the `obs-purity`
/// lint requires the binding to be underscore-prefixed so no program
/// logic can depend on it.
#[must_use = "a span closes when its guard drops; bind it as `let _span = ...`"]
pub struct Span {
    active: Option<(Arc<Registry>, usize)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((reg, id)) = self.active.take() {
            reg.end_span(id);
        }
    }
}

/// Opens a span named `name`, nested under the innermost span still
/// open on this registry. Returns an inert guard when disabled.
pub fn span(name: &str) -> Span {
    match sink() {
        Some(reg) => {
            let id = reg.begin_span(name);
            Span { active: Some((reg, id)) }
        }
        None => Span { active: None },
    }
}

/// Opens a fork of jobs under `key`, a number the caller keeps unique
/// among its live forks (`algebra::par` uses an address on the forking
/// frame). The jobs' root spans will hang under the span open here, and
/// their virtual clocks start at this clock's reading. No-op when
/// disabled.
pub fn fork(key: usize) {
    if let Some(target) = sink() {
        let parent = target.open_span();
        forks().insert(key, Fork { target, parent, done: BTreeMap::new() });
    }
}

/// RAII guard for job `index` of a fork, opened by [`job`]. While it
/// lives, every facade call on this thread records into the job's own
/// buffer; on drop the buffer is handed to the fork. Inert when obs is
/// disabled or the fork was opened while it was.
#[must_use = "a job records until its guard drops; bind it as `let _job = ...`"]
pub struct Job {
    active: Option<(usize, usize, Option<Arc<Registry>>)>,
}

impl Drop for Job {
    fn drop(&mut self) {
        if let Some((key, index, outer)) = self.active.take() {
            let Ok(Some(buffer)) = JOB.try_with(|job| job.replace(outer)) else {
                return;
            };
            if let Some(fork) = forks().get_mut(&key) {
                fork.done.insert(index, buffer);
            }
        }
    }
}

/// Starts job `index` of the fork `key` on this thread: the job gets a
/// buffer with its own span stack and, on a virtual registry, its own
/// clock, and records nothing into the registry directly. Jobs may
/// run on any thread, in any order, and may fork jobs of their own.
pub fn job(key: usize, index: usize) -> Job {
    if !ENABLED.load(Ordering::Relaxed) {
        return Job { active: None };
    }
    let Some(buffer) = forks().get(&key).map(|fork| Arc::new(fork.target.new_job())) else {
        return Job { active: None };
    };
    match JOB.try_with(|job| job.replace(Some(buffer))) {
        Ok(outer) => Job { active: Some((key, index, outer)) },
        Err(_) => Job { active: None },
    }
}

/// Closes the fork `key`: the buffers of its finished jobs move into
/// the registry that forked them, in job-index order, so that the
/// result is the same whichever threads ran the jobs and in whatever
/// order they finished. No-op when there is no such fork.
pub fn absorb(key: usize) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let Some(fork) = forks().remove(&key) else {
        return;
    };
    for buffer in fork.done.values() {
        fork.target.absorb(buffer, fork.parent);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{export_jsonl, export_prometheus, export_span_tree};
    use crate::registry::{MAX_EVENTS, MAX_SPANS};
    use std::sync::Barrier;

    // The global facade is process-wide state: each test here holds this
    // lock for its whole install/record/uninstall cycle, so no two touch
    // the globals at once. Registry-level behavior is tested (without
    // globals) in `registry` and `export`.
    static GLOBALS: Mutex<()> = Mutex::new(());

    fn exclusive() -> MutexGuard<'static, ()> {
        GLOBALS.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` with a fresh registry installed and returns what it
    /// recorded, rendered by all three exporters.
    fn recorded(reg: Registry, f: impl FnOnce()) -> String {
        install(Arc::new(reg));
        f();
        let snap = uninstall().expect("installed").snapshot();
        [export_jsonl(&snap), export_span_tree(&snap), export_prometheus(&snap)].concat()
    }

    /// What one of the test jobs records.
    fn job_work(label: &str) {
        let _span = span("job.work");
        counter_inc("job.count");
        observe("job.size", label.len() as u64);
        point("job.label", label);
        let _inner = span(label);
    }

    #[test]
    fn jobs_merge_in_index_order_whatever_order_they_finish() {
        let _globals = exclusive();
        let serial = recorded(Registry::new_virtual(), || {
            let _outer = span("outer");
            job_work("first");
            job_work("second-job");
        });
        let forked = recorded(Registry::new_virtual(), || {
            let _outer = span("outer");
            fork(1);
            // job 1 finishes before job 0 starts recording
            let barrier = Barrier::new(2);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _job = job(1, 0);
                    barrier.wait();
                    job_work("first");
                });
                {
                    let _job = job(1, 1);
                    job_work("second-job");
                }
                barrier.wait();
            });
            absorb(1);
        });
        assert_eq!(forked, serial);
    }

    #[test]
    fn a_join_nested_in_a_job_lands_under_the_job() {
        let _globals = exclusive();
        let serial = recorded(Registry::new_virtual(), || {
            let _outer = span("outer");
            {
                let _mid = span("mid");
                job_work("inner-0");
                job_work("inner-1");
            }
            job_work("sibling");
        });
        let forked = recorded(Registry::new_virtual(), || {
            let _outer = span("outer");
            fork(1);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _job = job(1, 0);
                    let _mid = span("mid");
                    fork(2);
                    std::thread::scope(|inner| {
                        inner.spawn(|| {
                            let _job = job(2, 1);
                            job_work("inner-1");
                        });
                        let _job = job(2, 0);
                        job_work("inner-0");
                    });
                    absorb(2);
                });
                let _job = job(1, 1);
                job_work("sibling");
            });
            absorb(1);
        });
        assert_eq!(forked, serial);
        assert!(serial.contains("outer  count=1"), "{serial}");
        assert!(serial.contains("\n  mid  count=1"), "{serial}");
        assert!(serial.contains("\n    job.work  count=2"), "{serial}");
    }

    #[test]
    fn a_jobs_tick_moves_only_its_own_clock() {
        let _globals = exclusive();
        let reg = Arc::new(Registry::new_virtual());
        install(Arc::clone(&reg));
        tick_virtual(5);
        fork(7);
        {
            let _job = job(7, 0);
            tick_virtual(50);
            let _span = span("ticked");
            tick_virtual(60);
        }
        {
            let _job = job(7, 1);
            let _span = span("unticked");
        }
        absorb(7);
        {
            let _after = span("after");
        }
        uninstall();
        assert_eq!(reg.now_ns(), 5_000_000, "the parent clock did not move");
        let snap = reg.snapshot();
        let at = |name: &str| {
            let s = snap.spans.iter().find(|s| s.name == name).expect("recorded");
            (s.start_ns, s.end_ns)
        };
        assert_eq!(at("ticked"), (50_000_000, Some(60_000_000)));
        assert_eq!(at("unticked"), (5_000_000, Some(5_000_000)), "job 1 starts at the fork reading");
        assert_eq!(at("after"), (5_000_000, Some(5_000_000)));
    }

    #[test]
    fn caps_hold_after_the_merge() {
        let _globals = exclusive();
        let reg = Arc::new(Registry::new_virtual());
        install(Arc::clone(&reg));
        for _ in 0..MAX_SPANS - 1 {
            let _span = span("filler");
        }
        fork(3);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _job = job(3, 1);
                for i in 0..MAX_EVENTS {
                    point("late", &i.to_string());
                }
                let _span = span("late.outer");
                let _inner = span("late.inner");
            });
            let _job = job(3, 0);
            for _ in 0..MAX_EVENTS / 2 {
                point("early", "");
            }
            let _span = span("early.outer");
            let _inner = span("early.inner");
        });
        absorb(3);
        uninstall();
        let snap = reg.snapshot();
        assert_eq!(snap.spans.len(), MAX_SPANS);
        assert_eq!(snap.dropped_spans, 3, "only early.outer fits");
        assert_eq!(snap.spans.last().map(|s| s.name.as_str()), Some("early.outer"));
        assert!(snap.spans.iter().enumerate().all(|(i, s)| s.parent.map_or(true, |p| p < i)));
        assert_eq!(snap.events.len(), MAX_EVENTS);
        let recorded = 2 * (MAX_SPANS - 1) + MAX_EVENTS / 2 + 4 + MAX_EVENTS + 4;
        assert_eq!(snap.dropped_events, (recorded - MAX_EVENTS) as u64);
        let last_point = snap.events.iter().rev().find(|e| e.kind == EventKind::Point);
        assert_eq!(last_point.map(|e| e.detail.as_str()), Some((MAX_EVENTS - 1).to_string().as_str()));
    }

    #[test]
    fn facade_roundtrip_and_noop_when_disabled() {
        let _globals = exclusive();
        // Disabled: everything is a no-op and span guards are inert.
        assert!(!is_enabled());
        counter_inc("never.recorded");
        observe("never.recorded", 7);
        {
            let _span = span("never.recorded");
        }
        tick_virtual(123);

        let reg = Arc::new(Registry::new_virtual());
        install(Arc::clone(&reg));
        assert!(is_enabled());
        tick_virtual(5);
        counter_inc("facade.hits");
        counter_add("facade.hits", 2);
        observe("facade.size", 64);
        point("facade.phase", "warmup");
        {
            let _outer = span("facade.outer");
            tick_virtual(6);
            let _inner = span("facade.inner");
            tick_virtual(9);
        }

        let back = uninstall().expect("registry was installed");
        assert!(!is_enabled());
        counter_inc("facade.hits"); // after uninstall: dropped
        let snap = back.snapshot();
        assert_eq!(snap.counter("facade.hits"), 3);
        assert_eq!(snap.counter("never.recorded"), 0);
        assert_eq!(snap.spans.len(), 2);
        let outer = &snap.spans[0];
        let inner = &snap.spans[1];
        assert_eq!(outer.name, "facade.outer");
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(0));
        assert_eq!(outer.start_ns, 5_000_000);
        assert_eq!(inner.start_ns, 6_000_000);
        assert_eq!(inner.end_ns, Some(9_000_000));
        assert_eq!(outer.end_ns, Some(9_000_000));
        assert!(Arc::ptr_eq(&reg, &back));
    }
}
