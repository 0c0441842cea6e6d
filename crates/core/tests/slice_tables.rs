//! Who builds the G1 slice tables, read off the obs counters: a
//! provider and its clone build one tag table and the key one
//! `alpha`-power table, with the first proof and not at ingest; a cold
//! verification builds and promotes nothing; a warm auditor promotes
//! chi rows from its second round on.
//!
//! Obs is a process-wide sink, so this file holds one test: nothing else
//! in its binary records into the registry while it is installed.

use std::sync::Arc;

use dsaudit_core::verify::verify_private;
use dsaudit_core::{AuditParams, Auditor, Challenge, DataOwner, StorageProvider};
use dsaudit_obs::Registry;
use rand::SeedableRng;

#[test]
fn tables_are_built_by_the_rounds_that_reuse_them() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x511ce);
    // s - 1 = 16 quotient coefficients and k = 20 challenged chunks:
    // both at or above the slice cutoff
    let params = AuditParams::new(17, 20).unwrap();
    let owner = DataOwner::generate(&mut rng, params);
    let data: Vec<u8> = (0..24_000).map(|i| (i * 13 % 251) as u8).collect();
    let bundle = owner.outsource(&mut rng, &data);
    assert!(bundle.file.num_chunks() > 2 * params.k, "k must not clamp");

    let registry = Arc::new(Registry::new_virtual());
    dsaudit_obs::install(Arc::clone(&registry));
    let built = || registry.snapshot().counter("algebra.g1_tables_built");
    let promoted = || registry.snapshot().counter("core.chi_rows_promoted");

    let provider = StorageProvider::ingest(&mut rng, bundle).expect("honest bundle");
    let after_ingest = built();
    let clone = provider.clone();
    let (pk, meta) = (provider.public_key().clone(), provider.meta());
    let mut rounds = Vec::new();
    for responder in [&provider, &clone, &provider, &clone] {
        let challenge = Challenge::random(&mut rng);
        let proof = responder.respond(&mut rng, &challenge);
        rounds.push((challenge, proof));
    }
    let after_proofs = built();

    let (challenge, proof) = &rounds[0];
    let cold = verify_private(&pk, &meta, challenge, proof).unwrap();
    let after_cold = (built(), promoted());

    let auditor = Auditor::new();
    let mut promoted_after = Vec::new();
    for (challenge, proof) in &rounds {
        let verdict = auditor.verify_private(&pk, &meta, challenge, proof).unwrap();
        assert!(verdict.accepted());
        promoted_after.push(promoted());
    }
    dsaudit_obs::uninstall();

    assert!(cold.accepted());
    assert_eq!(after_ingest, 0, "ingest builds nothing");
    // the tag table, which the clone shares, and the key's alpha table
    assert_eq!(after_proofs, 2);
    assert_eq!(after_cold, (2, 0), "a cold verification builds nothing");
    assert_eq!(promoted_after[0], 0, "a cold round promotes nothing");
    assert!(promoted_after[1] > 0, "the second round promotes its hits");
    assert_eq!(built(), 2, "the auditor builds no table");
}
