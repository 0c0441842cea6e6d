//! A cold verification's extra work is spanned: hashing the chi cache's
//! misses is `core.index_oracles`, preparing a G2 point the prepared
//! cache misses is `algebra.g2_prepare`. A warm round records neither.
//!
//! Obs is a process-wide sink, so this file holds one test: nothing else
//! in its binary records into the registry while it is installed.

use std::sync::Arc;

use dsaudit_core::{
    generate_tags, keygen, AuditParams, Auditor, Challenge, EncodedFile, FileMeta, Prover,
};
use dsaudit_obs::Registry;
use rand::SeedableRng;

#[test]
fn a_cold_verification_spans_its_cache_misses_and_a_warm_one_has_none() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xc01d);
    let params = AuditParams::new(4, 3).unwrap();
    let (sk, pk) = keygen(&mut rng, &params);
    let file = EncodedFile::encode(&mut rng, &[3u8; 600], params);
    let tags = generate_tags(&sk, &file);
    let prover = Prover::new(&pk, &file, &tags).unwrap();
    let challenge = Challenge::random(&mut rng);
    let proof = prover.prove_private(&mut rng, &challenge);
    let meta = FileMeta {
        name: file.name,
        num_chunks: file.num_chunks(),
        k: params.k,
    };

    let auditor = Auditor::new();
    let counts = |auditor: &Auditor| {
        let registry = Arc::new(Registry::new_virtual());
        dsaudit_obs::install(Arc::clone(&registry));
        let verdict = auditor.verify_private(&pk, &meta, &challenge, &proof);
        dsaudit_obs::uninstall();
        assert!(verdict.is_ok_and(|v| v.accepted()));
        let spans = registry.snapshot().spans;
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
        (count("core.index_oracles"), count("algebra.g2_prepare"))
    };
    // cold: one gather with misses, and eps and delta prepared
    assert_eq!(counts(&auditor), (1, 2));
    // warm: the same round again, every lookup a hit
    assert_eq!(counts(&auditor), (0, 0));
}
