//! The telemetry registry: counters, histograms, events, spans, and
//! the pluggable clock behind them.
//!
//! All mutation goes through one internal mutex; lock poisoning is
//! recovered (telemetry must never take the process down), and the hot
//! recording paths avoid every panicking construct — no indexing, no
//! `unwrap`, saturating arithmetic throughout.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Number of histogram buckets: one per power of two a `u64` can hold,
/// plus a dedicated zero bucket.
pub const HIST_BUCKETS: usize = 65;

/// Retained point/span events before the oldest are dropped (the drop
/// count is reported in exports, so truncation is never silent).
pub(crate) const MAX_EVENTS: usize = 1 << 16;

/// Retained span records; spans opened past this cap are counted as
/// dropped and their guards become inert. Unit tests run with a small
/// cap so that they can fill it.
pub(crate) const MAX_SPANS: usize = if cfg!(test) { 1 << 10 } else { 1 << 20 };

/// A sentinel span id meaning "not recorded" (cap overflow).
const SPAN_DROPPED: usize = usize::MAX;

/// Where timestamps come from.
enum ClockSource {
    /// Nanoseconds elapsed since the registry was created.
    Wall(Instant),
    /// Caller-driven virtual nanoseconds (see [`Registry::set_virtual_ms`]).
    Virtual(AtomicU64),
}

/// A fixed-bucket histogram over `u64` samples. Bucket `0` holds the
/// value zero; bucket `i ≥ 1` holds values in `(2^(i-1), 2^i]`.
#[derive(Clone)]
pub struct Histogram {
    counts: [u64; HIST_BUCKETS],
    sum: u64,
    count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self { counts: [0; HIST_BUCKETS], sum: 0, count: 0 }
    }
}

impl Histogram {
    /// Bucket index for `value`.
    fn bucket_of(value: u64) -> usize {
        if value <= 1 {
            value as usize
        } else {
            64 - (value - 1).leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
    pub fn upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    fn record(&mut self, value: u64) {
        if let Some(slot) = self.counts.get_mut(Self::bucket_of(value)) {
            *slot = slot.saturating_add(1);
        }
        self.sum = self.sum.saturating_add(value);
        self.count = self.count.saturating_add(1);
    }

    /// Adds every sample of `other` (saturating).
    pub(crate) fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.count = self.count.saturating_add(other.count);
    }

    /// Total recorded samples.
    pub fn sample_count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (saturating).
    pub fn sample_sum(&self) -> u64 {
        self.sum
    }

    /// Per-bucket (non-cumulative) counts, zero bucket first.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }
}

/// What kind of occurrence an [`Event`] records.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// A span was opened.
    SpanOpen,
    /// A span was closed.
    SpanClose,
    /// A point event emitted via [`crate::point`].
    Point,
}

impl EventKind {
    /// Stable lowercase label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::SpanOpen => "span_open",
            EventKind::SpanClose => "span_close",
            EventKind::Point => "point",
        }
    }
}

/// A timestamped occurrence in the bounded event log.
#[derive(Clone)]
pub struct Event {
    /// Clock reading when the event was recorded.
    pub at_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Event (or span) name.
    pub name: String,
    /// Free-form detail; empty for span open/close.
    pub detail: String,
}

/// One recorded span: a named interval with an optional parent.
#[derive(Clone)]
pub struct SpanRecord {
    /// Span name as passed to [`crate::span`].
    pub name: String,
    /// Index (into [`Snapshot::spans`]) of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Clock reading when the span opened.
    pub start_ns: u64,
    /// Clock reading when the span closed; `None` if still open.
    pub end_ns: Option<u64>,
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    spans: Vec<SpanRecord>,
    /// Indices of currently-open spans, innermost last.
    stack: Vec<usize>,
    events: VecDeque<Event>,
    dropped_events: u64,
    dropped_spans: u64,
}

impl Inner {
    fn push_event(&mut self, ev: Event) {
        if self.events.len() >= MAX_EVENTS {
            self.events.pop_front();
            self.dropped_events = self.dropped_events.saturating_add(1);
        }
        self.events.push_back(ev);
    }

    fn counter_add(&mut self, name: &str, n: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v = v.saturating_add(n);
        } else {
            self.counters.insert(name.to_owned(), n);
        }
    }

    fn merge_histogram(&mut self, name: &str, h: &Histogram) {
        if let Some(mine) = self.histograms.get_mut(name) {
            mine.merge(h);
        } else {
            self.histograms.insert(name.to_owned(), h.clone());
        }
    }

    /// Appends what a job recorded, as if it had been recorded here
    /// after everything already present: job span ids move up by this
    /// table's length, the job's root spans hang under `parent`,
    /// counters and histograms add, and events append. The caps still
    /// hold: spans past `MAX_SPANS` (with their descendants, which come
    /// later) are dropped and counted, and the oldest events give way.
    fn absorb(&mut self, job: Inner, parent: Option<usize>) {
        for (name, n) in &job.counters {
            self.counter_add(name, *n);
        }
        for (name, h) in &job.histograms {
            self.merge_histogram(name, h);
        }
        let offset = self.spans.len();
        let room = MAX_SPANS.saturating_sub(offset);
        let over = job.spans.len().saturating_sub(room) as u64;
        self.dropped_spans = self.dropped_spans.saturating_add(job.dropped_spans).saturating_add(over);
        self.spans.extend(job.spans.into_iter().take(room).map(|mut s| {
            s.parent = match s.parent {
                Some(p) => Some(p.saturating_add(offset)),
                None => parent,
            };
            s
        }));
        self.dropped_events = self.dropped_events.saturating_add(job.dropped_events);
        for ev in job.events {
            self.push_event(ev);
        }
    }
}

/// A consistent copy of everything a [`Registry`] holds, taken under a
/// single lock acquisition by [`Registry::snapshot`].
#[derive(Clone)]
pub struct Snapshot {
    /// Counter name → value, in `BTreeMap` (sorted) order.
    pub counters: Vec<(String, u64)>,
    /// Histogram name → histogram, in sorted order.
    pub histograms: Vec<(String, Histogram)>,
    /// All retained spans, in open order.
    pub spans: Vec<SpanRecord>,
    /// The bounded event log, oldest first.
    pub events: Vec<Event>,
    /// Events discarded because the log was full.
    pub dropped_events: u64,
    /// Spans discarded because the span table was full.
    pub dropped_spans: u64,
    /// Clock reading when the snapshot was taken; exporters use it to
    /// assign a duration to spans that never closed.
    pub at_ns: u64,
}

impl Snapshot {
    /// Value of counter `name`, or 0 if it was never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }
}

/// The telemetry sink. See the crate docs for the model.
pub struct Registry {
    clock: ClockSource,
    inner: Mutex<Inner>,
}

impl Registry {
    /// A registry timestamping against the wall clock (nanoseconds
    /// since creation). Use on bench boxes, never in deterministic runs.
    pub fn new_wall() -> Self {
        Self { clock: ClockSource::Wall(Instant::now()), inner: Mutex::new(Inner::default()) }
    }

    /// A registry on a virtual clock starting at 0, advanced by the
    /// instrumented program via [`crate::tick_virtual`]. Telemetry from
    /// a deterministic run is itself byte-reproducible.
    pub fn new_virtual() -> Self {
        Self { clock: ClockSource::Virtual(AtomicU64::new(0)), inner: Mutex::new(Inner::default()) }
    }

    /// A fresh registry for one par job forked from `self`: same clock
    /// source, and a virtual clock starts at `self`'s reading, so that
    /// the job's ticks move its own clock only.
    pub(crate) fn new_job(&self) -> Self {
        let clock = match &self.clock {
            ClockSource::Wall(origin) => ClockSource::Wall(*origin),
            ClockSource::Virtual(ns) => ClockSource::Virtual(AtomicU64::new(ns.load(Ordering::Relaxed))),
        };
        Self { clock, inner: Mutex::new(Inner::default()) }
    }

    /// The innermost open span, if any.
    pub(crate) fn open_span(&self) -> Option<usize> {
        self.locked().stack.last().copied()
    }

    /// Moves everything `job` recorded into `self` (see
    /// `Inner::absorb`), its root spans under `parent`.
    pub(crate) fn absorb(&self, job: &Registry, parent: Option<usize>) {
        let tables = std::mem::take(&mut *job.locked());
        self.locked().absorb(tables, parent);
    }

    /// Whether this registry runs on the virtual clock.
    pub fn is_virtual(&self) -> bool {
        matches!(self.clock, ClockSource::Virtual(_))
    }

    fn locked(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current clock reading in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        match &self.clock {
            ClockSource::Wall(origin) => {
                let d = origin.elapsed();
                d.as_secs().saturating_mul(1_000_000_000).saturating_add(u64::from(d.subsec_nanos()))
            }
            ClockSource::Virtual(ns) => ns.load(Ordering::Relaxed),
        }
    }

    /// Advances the virtual clock to `now_ms` (scaled to nanoseconds).
    /// The clock is monotonic: a reading earlier than the current one
    /// is ignored. No-op on a wall-clock registry.
    pub fn set_virtual_ms(&self, now_ms: u64) {
        if let ClockSource::Virtual(ns) = &self.clock {
            let target = now_ms.saturating_mul(1_000_000);
            ns.fetch_max(target, Ordering::Relaxed);
        }
    }

    /// Adds `n` to counter `name` (saturating).
    pub fn counter_add(&self, name: &str, n: u64) {
        self.locked().counter_add(name, n);
    }

    /// Records `value` into histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        let mut inner = self.locked();
        if let Some(h) = inner.histograms.get_mut(name) {
            h.record(value);
        } else {
            let mut h = Histogram::default();
            h.record(value);
            inner.histograms.insert(name.to_owned(), h);
        }
    }

    /// Records a point event.
    pub fn point(&self, name: &str, detail: &str) {
        let at_ns = self.now_ns();
        let mut inner = self.locked();
        inner.push_event(Event {
            at_ns,
            kind: EventKind::Point,
            name: name.to_owned(),
            detail: detail.to_owned(),
        });
    }

    /// Opens a span under the innermost open span and returns its id.
    /// Prefer the [`crate::span`] guard; this is the raw layer beneath
    /// it (and what exporter tests drive directly).
    pub fn begin_span(&self, name: &str) -> usize {
        let at_ns = self.now_ns();
        let mut inner = self.locked();
        if inner.spans.len() >= MAX_SPANS {
            inner.dropped_spans = inner.dropped_spans.saturating_add(1);
            return SPAN_DROPPED;
        }
        let id = inner.spans.len();
        let parent = inner.stack.last().copied();
        inner.spans.push(SpanRecord {
            name: name.to_owned(),
            parent,
            start_ns: at_ns,
            end_ns: None,
        });
        inner.stack.push(id);
        inner.push_event(Event {
            at_ns,
            kind: EventKind::SpanOpen,
            name: name.to_owned(),
            detail: String::new(),
        });
        id
    }

    /// Closes span `id`. Total under adversarial use: closing an
    /// unknown, dropped, or already-closed id is a no-op; closing a
    /// non-innermost span implicitly unwinds the open stack down to it
    /// (children keep whatever end their own guards later record).
    pub fn end_span(&self, id: usize) {
        let at_ns = self.now_ns();
        let mut inner = self.locked();
        let name = match inner.spans.get_mut(id) {
            Some(rec) if rec.end_ns.is_none() => {
                rec.end_ns = Some(at_ns.max(rec.start_ns));
                rec.name.clone()
            }
            _ => return,
        };
        if let Some(pos) = inner.stack.iter().rposition(|&open| open == id) {
            inner.stack.truncate(pos);
        }
        inner.push_event(Event { at_ns, kind: EventKind::SpanClose, name, detail: String::new() });
    }

    /// Copies out all recorded state under one lock acquisition.
    pub fn snapshot(&self) -> Snapshot {
        let at_ns = self.now_ns();
        let inner = self.locked();
        Snapshot {
            counters: inner.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: inner.histograms.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
            spans: inner.spans.clone(),
            events: inner.events.iter().cloned().collect(),
            dropped_events: inner.dropped_events,
            dropped_spans: inner.dropped_spans,
            at_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_histograms_accumulate() {
        let reg = Registry::new_virtual();
        reg.counter_add("a", 2);
        reg.counter_add("a", 3);
        reg.counter_add("b", 1);
        reg.observe("h", 0);
        reg.observe("h", 1);
        reg.observe("h", 5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a"), 5);
        assert_eq!(snap.counter("b"), 1);
        let (_, h) = &snap.histograms[0];
        assert_eq!(h.sample_count(), 3);
        assert_eq!(h.sample_sum(), 6);
        // 0 → bucket 0, 1 → bucket 1 ((0,1]), 5 → bucket 3 ((4,8])
        assert_eq!(h.bucket_counts()[0], 1);
        assert_eq!(h.bucket_counts()[1], 1);
        assert_eq!(h.bucket_counts()[3], 1);
    }

    #[test]
    fn histogram_bucket_bounds_cover_u64() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::upper_bound(0), 0);
        assert_eq!(Histogram::upper_bound(1), 2);
        assert_eq!(Histogram::upper_bound(64), u64::MAX);
    }

    #[test]
    fn virtual_clock_is_monotonic() {
        let reg = Registry::new_virtual();
        assert!(reg.is_virtual());
        reg.set_virtual_ms(10);
        assert_eq!(reg.now_ns(), 10_000_000);
        reg.set_virtual_ms(4); // going backwards is ignored
        assert_eq!(reg.now_ns(), 10_000_000);
        reg.set_virtual_ms(11);
        assert_eq!(reg.now_ns(), 11_000_000);
    }

    #[test]
    fn wall_clock_advances() {
        let reg = Registry::new_wall();
        assert!(!reg.is_virtual());
        let a = reg.now_ns();
        let b = reg.now_ns();
        assert!(b >= a);
        reg.set_virtual_ms(99); // no-op on wall clock
    }

    #[test]
    fn spans_nest_and_misnesting_is_total() {
        let reg = Registry::new_virtual();
        let a = reg.begin_span("a");
        let b = reg.begin_span("b");
        let c = reg.begin_span("c");
        // Close the middle one first: stack unwinds past c.
        reg.end_span(b);
        // Closing c afterwards still records its end.
        reg.end_span(c);
        reg.end_span(b); // double close: no-op
        reg.end_span(usize::MAX); // dropped/unknown id: no-op
        reg.end_span(a);
        let snap = reg.snapshot();
        assert_eq!(snap.spans.len(), 3);
        assert!(snap.spans.iter().all(|s| s.end_ns.is_some()));
        assert_eq!(snap.spans[1].parent, Some(0));
        assert_eq!(snap.spans[2].parent, Some(1));
        // After the unwind, a new span nests under `a` again.
        let d = reg.begin_span("d");
        assert_eq!(reg.snapshot().spans[3].parent, None, "a was closed");
        reg.end_span(d);
    }

    #[test]
    fn event_log_is_bounded_and_counts_drops() {
        let reg = Registry::new_virtual();
        for i in 0..(MAX_EVENTS + 10) {
            reg.point("e", if i % 2 == 0 { "even" } else { "odd" });
        }
        let snap = reg.snapshot();
        assert_eq!(snap.events.len(), MAX_EVENTS);
        assert_eq!(snap.dropped_events, 10);
    }
}
