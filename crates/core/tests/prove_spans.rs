//! Where one private proof's time goes, read off the obs span table,
//! and what its commitment base costs: the first proof under a key
//! builds the key's fixed-base `GT` table, which every clone of the key
//! reuses.
//!
//! Obs is a process-wide sink, so this file holds one test: nothing else
//! in its binary records into the registry while it is installed.

use std::sync::Arc;

use dsaudit_core::{generate_tags, keygen, AuditParams, Challenge, EncodedFile, Prover, PublicKey};
use dsaudit_obs::Registry;
use rand::SeedableRng;

#[test]
fn a_traced_private_proof_names_its_children_and_builds_one_table_per_key() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x9f0f);
    let params = AuditParams::new(4, 3).unwrap();
    let (sk, pk) = keygen(&mut rng, &params);
    let file = EncodedFile::encode(&mut rng, &[9u8; 600], params);
    let tags = generate_tags(&sk, &file);
    let challenge = Challenge::random(&mut rng);
    let clone = pk.clone();
    let decoded = PublicKey::from_bytes(&pk.to_bytes()).unwrap();

    let registry = Arc::new(Registry::new_virtual());
    dsaudit_obs::install(Arc::clone(&registry));
    let before = registry.snapshot().counter("algebra.gt_tables_built");
    let mut proofs = Vec::new();
    for key in [&pk, &clone, &pk, &clone] {
        let prover = Prover::new(key, &file, &tags).unwrap();
        proofs.push(prover.prove_private(&mut rng, &challenge));
    }
    let shared = registry.snapshot().counter("algebra.gt_tables_built");
    let prover = Prover::new(&decoded, &file, &tags).unwrap();
    proofs.push(prover.prove_private(&mut rng, &challenge));
    dsaudit_obs::uninstall();

    let snap = registry.snapshot();
    // a key and its clone share one table; a decoded copy is a new key
    assert_eq!((before, shared), (0, 1));
    assert_eq!(snap.counter("algebra.gt_tables_built"), 2);
    assert_eq!(snap.counter("core.proofs_private"), 5);

    let spans = snap.spans;
    let roots: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == "core.prove_private")
        .collect();
    assert_eq!(roots.len(), 5);
    for root in roots {
        let children: Vec<&str> = spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| s.name.as_str())
            .collect();
        // the commitment (job 0), then the shared response (job 1):
        // challenge expansion, then the sigma and psi MSMs
        assert_eq!(
            children,
            [
                "algebra.gt_fixed_pow",
                "core.challenge_expand",
                "algebra.msm",
                "algebra.msm"
            ]
        );
    }
}
