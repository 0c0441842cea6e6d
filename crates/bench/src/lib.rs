//! # dsaudit-bench
//!
//! The reproduction harness behind the `repro` binary: one function per
//! table/figure of the paper's evaluation (§VII), each *measuring* the
//! relevant pipeline on this machine and printing the same rows/series
//! the paper reports, plus the exact-metric snapshot ([`json`]). Every
//! timing is an obs span recorded by [`timed`]: each figure reads the
//! span that already bounds its work (`core.prove_private`, ...).

#![forbid(unsafe_code)]

pub mod figures;
pub mod json;
pub mod tables;

use std::sync::Arc;

use dsaudit_algebra::g1::G1Affine;
use dsaudit_algebra::msm::LazyG1Table;
use dsaudit_core::{
    keygen, AuditParams, Auditor, Challenge, EncodedFile, FileMeta, Prover, PublicKey,
    SecretKey,
};
use dsaudit_core::tag::generate_tags;
use dsaudit_obs::{Registry, SpanRecord};
use rand::SeedableRng;

/// Deterministic RNG for reproducible measurement runs.
pub fn rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(0xd5a0d17)
}

/// A ready-to-audit environment (keys + encoded file + tags + a warm
/// verifier handle), in the steady state of a provider and an auditor
/// that have served rounds before: [`Env::new`] proves one round and
/// verifies it twice, which builds the tags' and the key's slice tables
/// and promotes the auditor's chi rows for [`Env::challenge`].
pub struct Env {
    /// Owner key pair.
    pub sk: SecretKey,
    /// Public key.
    pub pk: PublicKey,
    /// Encoded file.
    pub file: EncodedFile,
    /// Authenticators.
    pub tags: Vec<G1Affine>,
    /// The tags' slice table, as a provider keeps it beside them.
    pub tag_table: LazyG1Table,
    /// Verifier metadata.
    pub meta: FileMeta,
    /// The verifier handle whose caches persist across measured rounds
    /// (the production shape: one auditor per contract).
    pub auditor: Auditor,
}

impl Env {
    /// Builds an environment over `file_bytes` of synthetic data.
    pub fn new(file_bytes: usize, params: AuditParams) -> Self {
        let mut rng = rng();
        let (sk, pk) = keygen(&mut rng, &params);
        let data: Vec<u8> = (0..file_bytes).map(|i| (i % 251) as u8).collect();
        let file = EncodedFile::encode(&mut rng, &data, params);
        let tags = generate_tags(&sk, &file);
        let meta = FileMeta {
            name: file.name,
            num_chunks: file.num_chunks(),
            k: params.k,
        };
        let env = Self {
            sk,
            pk,
            file,
            tags,
            tag_table: LazyG1Table::default(),
            meta,
            auditor: Auditor::new(),
        };
        let ch = env.challenge();
        let proof = env.prover().prove_plain(&ch);
        for _ in 0..2 {
            let verdict = env.auditor.verify_plain(&env.pk, &env.meta, &ch, &proof);
            assert!(verdict.is_ok_and(|v| v.accepted()), "an honest round verifies");
        }
        env
    }

    /// The provider's prover over this environment: `sigma` walks the
    /// tags' slice table.
    pub fn prover(&self) -> Prover<'_> {
        self.one_shot_prover().with_tag_table(&self.tag_table)
    }

    /// A bare prover over this environment, as one-shot proving runs:
    /// no tag table. The key's `GT` and `alpha`-power tables are the
    /// key's own, built by its first proof, so both provers share them.
    pub fn one_shot_prover(&self) -> Prover<'_> {
        Prover::new(&self.pk, &self.file, &self.tags)
            .expect("bench environment is dimension-consistent")
    }

    /// A fresh challenge.
    pub fn challenge(&self) -> Challenge {
        Challenge::random(&mut rng())
    }
}

/// The span [`timed`] opens around each measured call: what a figure
/// reads when the work has no span of its own.
pub const CALL: &str = "bench.call";

/// Runs `f` on a wall-clock obs registry, once to warm up and then
/// `iters` times inside a [`CALL`] span each (its result kept opaque to
/// the optimizer), and returns the spans the measured calls recorded;
/// the warm-up records into a registry of its own, which is dropped.
/// Obs is process-wide: nothing else may record while this runs.
pub fn timed<R>(iters: u32, mut f: impl FnMut() -> R) -> Timed {
    dsaudit_obs::install(Arc::new(Registry::new_wall()));
    std::hint::black_box(f());
    let registry = Arc::new(Registry::new_wall());
    dsaudit_obs::install(Arc::clone(&registry));
    for _ in 0..iters {
        let _call = dsaudit_obs::span(CALL);
        std::hint::black_box(f());
    }
    dsaudit_obs::uninstall();
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.dropped_spans, 0, "the span table overflowed");
    Timed { spans: snapshot.spans }
}

/// What the measured calls of one [`timed`] run recorded. Both queries
/// panic on a name that recorded nothing, so a renamed span fails the
/// figure instead of printing 0.
pub struct Timed {
    spans: Vec<SpanRecord>,
}

impl Timed {
    /// Mean ms of the spans named `name`: per call when the closure
    /// opens it once, per item when once per item.
    pub fn mean_ms(&self, name: &str) -> f64 {
        let (total, count) = self.total_ms(|s| s.name == name);
        assert!(count > 0, "no `{name}` span was recorded");
        total / count as f64
    }

    /// Mean ms, per span named `parent`, of the spans named `child`
    /// directly under it (both MSMs of one proof, say).
    pub fn child_ms(&self, parent: &str, child: &str) -> f64 {
        let (_, parents) = self.total_ms(|s| s.name == parent);
        let (total, count) = self.total_ms(|s| {
            s.name == child
                && s.parent
                    .and_then(|p| self.spans.get(p))
                    .is_some_and(|p| p.name == parent)
        });
        assert!(count > 0, "no `{child}` span was recorded under `{parent}`");
        total / parents as f64
    }

    /// Total ms and count of the spans that satisfy `pick`.
    fn total_ms(&self, pick: impl Fn(&SpanRecord) -> bool) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| pick(s))
            .fold((0.0, 0), |(total, count), s| {
                let ns = s.end_ns.unwrap_or(s.start_ns).saturating_sub(s.start_ns);
                (total + ns as f64 / 1e6, count + 1)
            })
    }
}
