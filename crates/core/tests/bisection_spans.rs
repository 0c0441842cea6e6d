//! What blame for a rejected batch costs, read off the obs span table.
//!
//! Obs is a process-wide sink, so this file holds one test: nothing else
//! in its binary records into the registry while it is installed.

use std::sync::Arc;

use dsaudit_algebra::field::Field;
use dsaudit_algebra::Fr;
use dsaudit_core::batch::BatchItem;
use dsaudit_core::{
    generate_tags, keygen, AuditParams, Auditor, Challenge, EncodedFile, FileMeta, Prover,
};
use dsaudit_obs::Registry;
use rand::SeedableRng;

/// A 12-item batch under two keys with one bad item settles with at most
/// `ceil(log2 12)` sub-batch checks besides the batch itself: bisection
/// checks one half per level and derives the other by division. The
/// singles are those of the one leaf holding the bad item, a quarter of
/// the batch at most.
#[test]
fn one_bad_item_in_twelve_costs_a_path_not_a_sweep() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xb15ec7);
    let params = AuditParams::new(4, 3).unwrap();
    let owners: Vec<_> = (0..2)
        .map(|o| {
            let (sk, pk) = keygen(&mut rng, &params);
            let data: Vec<u8> = (0..600).map(|i| ((i * 5 + o * 71) % 251) as u8).collect();
            let file = EncodedFile::encode(&mut rng, &data, params);
            let tags = generate_tags(&sk, &file);
            (pk, file, tags)
        })
        .collect();
    let items: Vec<BatchItem<'_>> = (0..12)
        .map(|i| {
            let (pk, file, tags) = &owners[i % 2];
            let prover = Prover::new(pk, file, tags).unwrap();
            let challenge = Challenge::random(&mut rng);
            BatchItem {
                pk,
                meta: FileMeta {
                    name: file.name,
                    num_chunks: file.num_chunks(),
                    k: params.k,
                },
                challenge,
                proof: prover.prove_private(&mut rng, &challenge),
            }
        })
        .collect();
    // key 0's items sort first: item 2 is in the left half, 7 in the right
    for bad in [2, 7] {
        let mut batch = items.clone();
        batch[bad].proof.y_prime += Fr::one();
        let auditor = Auditor::new();
        let registry = Arc::new(Registry::new_virtual());
        dsaudit_obs::install(Arc::clone(&registry));
        let flags = auditor.verify_private_each(&mut rng, &batch);
        dsaudit_obs::uninstall();

        let want: Vec<bool> = (0..12).map(|i| i != bad).collect();
        assert_eq!(flags, want);
        let spans = registry.snapshot().spans;
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
        let sub_batches = count("core.verify_batch") - 1;
        let singles = count("core.verify_private");
        assert!(
            sub_batches <= 4,
            "item {bad}: {sub_batches} sub-batch checks"
        );
        assert!((1..=3).contains(&singles), "item {bad}: {singles} singles");
    }
}
