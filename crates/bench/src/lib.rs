//! # dsaudit-bench
//!
//! The reproduction harness behind the `repro` binary: one function per
//! table/figure of the paper's evaluation (§VII), each *measuring* the
//! relevant pipeline on this machine and printing the same rows/series
//! the paper reports, plus the exact-metric snapshot ([`json`]).

#![forbid(unsafe_code)]

pub mod figures;
pub mod json;
pub mod tables;

use std::time::{Duration, Instant};

use dsaudit_algebra::g1::G1Affine;
use dsaudit_core::{
    keygen, AuditParams, Auditor, Challenge, EncodedFile, FileMeta, Prover, PublicKey,
    SecretKey,
};
use dsaudit_core::tag::generate_tags;
use rand::SeedableRng;

/// Deterministic RNG for reproducible measurement runs.
pub fn rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(0xd5a0d17)
}

/// A ready-to-audit environment (keys + encoded file + tags + a warm
/// verifier handle).
pub struct Env {
    /// Owner key pair.
    pub sk: SecretKey,
    /// Public key.
    pub pk: PublicKey,
    /// Encoded file.
    pub file: EncodedFile,
    /// Authenticators.
    pub tags: Vec<G1Affine>,
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
        Self {
            sk,
            pk,
            file,
            tags,
            meta,
            auditor: Auditor::new(),
        }
    }

    /// A prover over this environment.
    pub fn prover(&self) -> Prover<'_> {
        Prover::new(&self.pk, &self.file, &self.tags)
            .expect("bench environment is dimension-consistent")
    }

    /// A fresh challenge.
    pub fn challenge(&self) -> Challenge {
        Challenge::random(&mut rng())
    }
}

/// Times a closure over `iters` runs (plus one warm-up), returning the
/// mean duration.
pub fn time_mean<F: FnMut()>(iters: u32, mut f: F) -> Duration {
    f();
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed() / iters
}

/// Measures the tag-generation throughput in MB/s for a given `s`
/// over `file_bytes` of data (Fig. 7's extrapolation base).
pub fn preprocess_throughput_mb_s(s: usize, file_bytes: usize) -> f64 {
    let params = AuditParams::new(s, 300).expect("valid params");
    let mut rng = rng();
    let (sk, _) = keygen(&mut rng, &params);
    let data: Vec<u8> = (0..file_bytes).map(|i| (i % 251) as u8).collect();
    let file = EncodedFile::encode(&mut rng, &data, params);
    let t0 = Instant::now();
    let tags = generate_tags(&sk, &file);
    let dt = t0.elapsed();
    assert_eq!(tags.len(), file.num_chunks());
    file_bytes as f64 / 1e6 / dt.as_secs_f64()
}

/// Measured single verification time in milliseconds (averaged), run
/// through the environment's warm [`Auditor`] handle.
pub fn measure_verify_ms(env: &Env, private: bool, iters: u32) -> f64 {
    let prover = env.prover();
    let ch = env.challenge();
    if private {
        let mut r = rng();
        let proof = prover.prove_private(&mut r, &ch);
        let d = time_mean(iters, || {
            assert!(env
                .auditor
                .verify_private(&env.pk, &env.meta, &ch, &proof)
                .expect("valid meta")
                .accepted());
        });
        d.as_secs_f64() * 1e3
    } else {
        let proof = prover.prove_plain(&ch);
        let d = time_mean(iters, || {
            assert!(env
                .auditor
                .verify_plain(&env.pk, &env.meta, &ch, &proof)
                .expect("valid meta")
                .accepted());
        });
        d.as_secs_f64() * 1e3
    }
}
