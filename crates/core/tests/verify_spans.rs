//! Where one private verification's time goes, read off the obs span
//! table: both closures of its `par::join` record, so the Miller loop
//! beside the eps-side one is a span too.
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
fn a_traced_private_verification_records_both_miller_loops() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5b1d);
    let params = AuditParams::new(4, 3).unwrap();
    let (sk, pk) = keygen(&mut rng, &params);
    let file = EncodedFile::encode(&mut rng, &[9u8; 600], params);
    let tags = generate_tags(&sk, &file);
    let prover = Prover::new(&pk, &file, &tags).unwrap();
    let challenge = Challenge::random(&mut rng);
    let proof = prover.prove_private(&mut rng, &challenge);
    let meta = FileMeta {
        name: file.name,
        num_chunks: file.num_chunks(),
        k: params.k,
    };

    let registry = Arc::new(Registry::new_virtual());
    dsaudit_obs::install(Arc::clone(&registry));
    let verdict = Auditor::new().verify_private(&pk, &meta, &challenge, &proof);
    dsaudit_obs::uninstall();
    assert!(verdict.is_ok_and(|v| v.accepted()));

    let spans = registry.snapshot().spans;
    let root = spans
        .iter()
        .position(|s| s.name == "core.verify_private")
        .expect("the verification is a span");
    let under_root = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name && s.parent == Some(root))
            .count()
    };
    // the sigma/psi side and the eps side, in that (job) order
    assert_eq!(under_root("algebra.miller_loop"), 2);
    // sigma^zeta and psi^-zeta, then the eps-side MSM
    assert_eq!(under_root("algebra.msm"), 3);
    assert_eq!(under_root("algebra.final_exp"), 1);
    let children: Vec<&str> = spans
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(
        children,
        [
            "algebra.g2_prepare",
            "algebra.g2_prepare",
            "algebra.msm",
            "algebra.msm",
            "algebra.miller_loop",
            "core.challenge_expand",
            "core.index_oracles",
            "algebra.msm",
            "algebra.miller_loop",
            "algebra.final_exp"
        ]
    );
}
