//! The caches' obs counters mirror their `CacheStats` exactly: each
//! lookup call adds its own hits and misses to `core.cache.chi.*` and
//! `core.cache.g2.*`, so after every verification the registry reads
//! what `Auditor::cache_stats` reads.
//!
//! Obs is a process-wide sink, so this file holds one test: nothing else
//! in its binary records into the registry while it is installed.

use std::sync::Arc;

use dsaudit_core::{
    generate_tags, keygen, AuditParams, Auditor, CacheStats, Challenge, EncodedFile, FileMeta,
    Prover,
};
use dsaudit_obs::Registry;
use rand::SeedableRng;

#[test]
fn obs_cache_counters_equal_cache_stats_after_every_call() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0b5c);
    let params = AuditParams::new(4, 300).unwrap();
    let (sk, pk) = keygen(&mut rng, &params);
    let data: Vec<u8> = (0..48_000).map(|i| (i * 7 % 251) as u8).collect();
    let file = EncodedFile::encode(&mut rng, &data, params);
    assert!(file.num_chunks() > params.k, "k must not clamp");
    let tags = generate_tags(&sk, &file);
    let prover = Prover::new(&pk, &file, &tags).unwrap();
    let meta = FileMeta {
        name: file.name,
        num_chunks: file.num_chunks(),
        k: params.k,
    };

    let registry = Arc::new(Registry::new_virtual());
    dsaudit_obs::install(Arc::clone(&registry));
    let auditor = Auditor::new();
    let mut seen = Vec::new();
    for _ in 0..4 {
        let challenge = Challenge::random(&mut rng);
        let proof = prover.prove_private(&mut rng, &challenge);
        let verdict = auditor.verify_private(&pk, &meta, &challenge, &proof);
        assert!(verdict.is_ok_and(|v| v.accepted()));
        let snap = registry.snapshot();
        let mirrored = |cache: &str| CacheStats {
            hits: snap.counter(&format!("core.cache.{cache}.hits")),
            misses: snap.counter(&format!("core.cache.{cache}.misses")),
        };
        seen.push(((mirrored("chi"), mirrored("g2")), auditor.cache_stats()));
    }
    dsaudit_obs::uninstall();

    for (mirrored, stats) in &seen {
        assert_eq!(mirrored, stats);
    }
    // the cold call: every challenged index and both key points missed
    let (chi, g2) = seen[0].1;
    assert_eq!(chi, CacheStats { hits: 0, misses: 300 });
    assert_eq!(g2, CacheStats { hits: 0, misses: 2 });
    // the warm calls hit the key points and the indices seen before
    let (chi, g2) = seen[3].1;
    assert_eq!(g2, CacheStats { hits: 6, misses: 2 });
    assert_eq!(chi.hits + chi.misses, 4 * 300);
    assert!(chi.hits > 0, "{chi:?}");
}
