//! What every workload shares: the work budget, seed derivation, the
//! ground-truth check counter, the span recorder, and order statistics.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use rand::RngCore;

/// How much work one process does. Counts are a function of this value
/// alone, never of elapsed time, so two runs with the same arguments do
/// identical work and exact counts repeat.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// The `--seconds` argument: the measured phase of each workload is
    /// sized to last about this long on the 2-core build box.
    pub seconds: f64,
    /// How many times the workload is set up and measured afresh; the
    /// reported set-up time is the median over these.
    pub reps: usize,
}

impl Budget {
    /// The budget of a driver run.
    pub fn full(seconds: u64) -> Self {
        Self {
            seconds: seconds as f64,
            reps: 3,
        }
    }

    /// About 1/50 of the 20-second scale the issue sized the workloads
    /// at: what the tests run, and what a traced run gives the four
    /// workloads that were not selected.
    pub fn smoke() -> Self {
        Self {
            seconds: 0.4,
            reps: 1,
        }
    }

    /// Operations per repetition for a workload that does `per_second`
    /// of them per budgeted second, rounded up to a multiple of
    /// `multiple` (at least one multiple).
    pub fn count_for(&self, per_second: f64, multiple: usize) -> usize {
        let per_rep = (per_second * self.seconds / self.reps as f64).ceil() as usize;
        per_rep.div_ceil(multiple).max(1) * multiple
    }
}

/// An independent 64-bit seed for `stream`, derived from the workload
/// seed (splitmix64, so neighbouring seeds share nothing).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` generated bytes.
pub fn random_bytes<R: RngCore + ?Sized>(rng: &mut R, n: usize) -> Vec<u8> {
    let mut out = vec![0u8; n];
    rng.fill_bytes(&mut out);
    out
}

/// 48 generated bytes: one round's beacon output.
pub fn random_beacon<R: RngCore + ?Sized>(rng: &mut R) -> [u8; 48] {
    let mut out = [0u8; 48];
    rng.fill_bytes(&mut out);
    out
}

/// The median of `values` (mean of the middle pair for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `p`-quantile of `values` by nearest rank; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Counts ground-truth checks and the ones that missed.
///
/// In self-test mode the first check of every kind is inverted, which
/// must surface as exactly one failure per kind: proof that no check is
/// vacuous.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks performed.
    pub attempted: u64,
    /// Checks whose observed outcome differed from what the inputs
    /// dictate.
    pub failed: u64,
    /// Failures per check kind.
    pub failed_kinds: BTreeMap<&'static str, u64>,
    /// Every kind seen, failed or not.
    pub seen_kinds: BTreeSet<&'static str>,
    flip_first: bool,
}

impl Checks {
    /// A counter that inverts the first check of every kind.
    pub fn flipping() -> Self {
        Self {
            flip_first: true,
            ..Self::default()
        }
    }

    /// Records one check of `kind`; `held` is whether the observed
    /// outcome matched ground truth.
    pub fn check(&mut self, kind: &'static str, held: bool) {
        let first = self.seen_kinds.insert(kind);
        let held = if self.flip_first && first {
            !held
        } else {
            held
        };
        self.attempted += 1;
        if !held {
            self.failed += 1;
            *self.failed_kinds.entry(kind).or_insert(0) += 1;
        }
    }
}

/// One timed call into a layer, or one whole round.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.what`, e.g. `core.respond_round`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The round this span belongs to; 0 for set-up and probes.
    pub round: u64,
    /// Whether the round was in the measured phase (not set-up or
    /// warm-up), so it counts towards the busy shares.
    pub measured: bool,
}

impl Span {
    /// The layer this span is charged to: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans around calls into the layers, from outside them. Kept
/// in memory; the report writes them out at exit. When off, `timed`
/// runs the closure and nothing else.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    /// Every span closed so far, in opening order.
    pub spans: Vec<Span>,
    open: Vec<usize>,
    round: u64,
    in_round: bool,
    measured: bool,
}

impl Tracer {
    /// A recorder; `on` selects the traced run.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
            in_round: false,
            measured: false,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open_span(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            round: if self.in_round { self.round } else { 0 },
            measured: self.measured,
        });
        self.open.push(id);
        id
    }

    fn close_span(&mut self, id: usize) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
        self.open.retain(|&open| open != id);
    }

    /// Runs `f`, recording a span named `name` around it when tracing.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = self.open_span(name);
        let out = f();
        self.close_span(id);
        out
    }

    /// Milliseconds the span opened last took; 0 when not tracing.
    pub fn last_ms(&self) -> f64 {
        self.spans.last().map_or(0.0, Span::ms)
    }

    /// Opens the next round: every span until `end_round` carries its
    /// id and has the round span as ancestor. `measured` is false for
    /// warm-up rounds.
    pub fn begin_round(&mut self, measured: bool) -> RoundClock {
        self.round += 1;
        self.in_round = true;
        self.measured = measured;
        let span = self.on.then(|| self.open_span("bench.round"));
        RoundClock {
            start: Instant::now(),
            span,
        }
    }

    /// Closes the round and returns its wall time in milliseconds.
    pub fn end_round(&mut self, clock: RoundClock) -> f64 {
        let ms = ms_since(clock.start);
        if let Some(id) = clock.span {
            self.close_span(id);
        }
        self.in_round = false;
        self.measured = false;
        ms
    }

    /// Durations in milliseconds of the spans named `name` that belong
    /// to measured rounds (warm-up and set-up excluded).
    pub fn measured_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.measured && s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Median duration in milliseconds of every span named `name`,
    /// set-up and warm-up included.
    pub fn p50_ms(&self, name: &str) -> f64 {
        let all: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect();
        median(&all)
    }

    /// Self time per layer over the measured rounds, as a share of the
    /// measured rounds' wall time. A span's self time is its duration
    /// minus its children's; the round span's own self time is charged
    /// to `bench` and is the part of a round no layer call covers.
    pub fn busy_shares(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut wall_ns = 0u64;
        for (span, children) in self.spans.iter().zip(&child_ns) {
            if !span.measured {
                continue;
            }
            let total = span.end_ns - span.start_ns;
            if span.parent.is_none() {
                wall_ns += total;
            }
            *self_ns.entry(span.layer()).or_insert(0) += total.saturating_sub(*children);
        }
        self_ns
            .into_iter()
            .map(|(layer, ns)| {
                (
                    layer,
                    if wall_ns == 0 {
                        0.0
                    } else {
                        ns as f64 / wall_ns as f64
                    },
                )
            })
            .collect()
    }
}

/// An open round, returned by [`Tracer::begin_round`].
#[derive(Debug)]
pub struct RoundClock {
    start: Instant,
    span: Option<usize>,
}

/// What one workload hands back: the samples behind the end-to-end
/// metrics, and the layer metrics it owns (traced runs only).
#[derive(Debug, Default)]
pub struct Outcome {
    /// One sample per repetition: seconds from a cold start to the first
    /// measured round (keygen, data generation, encode, tag, ingest,
    /// deploy, warm-up).
    pub setup_s: Vec<f64>,
    /// Wall milliseconds of each honest operation of the measured phase.
    pub round_ms: Vec<f64>,
    /// Operations settled in the measured phase, faulty ones included.
    pub rounds: u64,
    /// Wall seconds of the measured phase.
    pub measured_s: f64,
    /// Detectable faults injected.
    pub injected: u64,
    /// Injected faults the system under test caught.
    pub detected: u64,
    /// Layer metrics measured by this workload, by full metric name.
    pub layer: BTreeMap<&'static str, f64>,
}

/// The recorder and check counter a workload writes to.
#[derive(Debug)]
pub struct Ctx {
    /// Span recorder.
    pub tracer: Tracer,
    /// Ground-truth check counter.
    pub checks: Checks,
}

impl Ctx {
    /// A context for one workload execution.
    pub fn new(trace: bool, checks: Checks) -> Self {
        Self {
            tracer: Tracer::new(trace),
            checks,
        }
    }
}

/// `VmHWM` of this process in megabytes (10^6 bytes); 0 where `/proc`
/// is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn counts_follow_the_budget_only() {
        let b = Budget::full(10);
        assert_eq!(b.count_for(48.0, 16), 160);
        assert_eq!(Budget::smoke().count_for(48.0, 16), 32);
        assert_eq!(Budget::smoke().count_for(0.6, 1), 1);
    }

    #[test]
    fn flipping_fails_each_kind_exactly_once() {
        let mut c = Checks::flipping();
        for _ in 0..3 {
            c.check("a", true);
            c.check("b", true);
        }
        assert_eq!((c.attempted, c.failed), (6, 2));
        assert_eq!(c.failed_kinds.get("a"), Some(&1));
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let clock = t.begin_round(true);
        t.timed("core.x", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end_round(clock);
        let shares = t.busy_shares();
        assert!(shares["core"] > 0.9, "{shares:?}");
        assert!(shares["bench"] < 0.1, "{shares:?}");
        assert!(t.spans.iter().all(|s| s.round == 1));
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
