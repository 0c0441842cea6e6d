//! Where a batch's time goes, read off the obs span table: both closures
//! of its `par::join` run a Miller loop, the side one over `g2` and the
//! keys' `delta`s, the caller's over the keys' `eps`s.
//!
//! Obs is a process-wide sink, so this file holds one test: nothing else
//! in its binary records into the registry while it is installed.

use std::sync::Arc;

use dsaudit_core::batch::BatchItem;
use dsaudit_core::{
    generate_tags, keygen, AuditParams, Auditor, Challenge, EncodedFile, FileMeta, Prover,
};
use dsaudit_obs::Registry;
use rand::SeedableRng;

#[test]
fn a_traced_batch_records_a_miller_loop_in_each_closure() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xba5b);
    let params = AuditParams::new(4, 3).unwrap();
    let owners: Vec<_> = (0..2)
        .map(|o| {
            let (sk, pk) = keygen(&mut rng, &params);
            let data: Vec<u8> = (0..600).map(|i| ((i * 3 + o * 29) % 251) as u8).collect();
            let file = EncodedFile::encode(&mut rng, &data, params);
            let tags = generate_tags(&sk, &file);
            (pk, file, tags)
        })
        .collect();
    let items: Vec<BatchItem<'_>> = (0..3)
        .map(|i| {
            let (pk, file, tags) = &owners[i % 2];
            let challenge = Challenge::random(&mut rng);
            BatchItem {
                pk,
                meta: FileMeta {
                    name: file.name,
                    num_chunks: file.num_chunks(),
                    k: params.k,
                },
                challenge,
                proof: Prover::new(pk, file, tags)
                    .unwrap()
                    .prove_private(&mut rng, &challenge),
            }
        })
        .collect();

    let registry = Arc::new(Registry::new_virtual());
    dsaudit_obs::install(Arc::clone(&registry));
    let verdict = Auditor::new().verify_private_batch(&mut rng, &items);
    dsaudit_obs::uninstall();
    assert!(verdict.is_ok_and(|v| v.accepted()));

    let spans = registry.snapshot().spans;
    let root = spans
        .iter()
        .position(|s| s.name == "core.verify_batch")
        .expect("the batch is a span");
    let children: Vec<&str> = spans
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(|s| s.name.as_str())
        .collect();
    let millers: Vec<usize> = children
        .iter()
        .enumerate()
        .filter(|(_, &name)| name == "algebra.miller_loop")
        .map(|(at, _)| at)
        .collect();
    assert_eq!(millers.len(), 2, "{children:?}");
    // the side job (R product, sigma and delta MSMs, its loop) lands
    // first; the caller's expansions come between the two loops
    let expands = |range: std::ops::Range<usize>| {
        children[range]
            .iter()
            .filter(|&&name| name == "core.challenge_expand")
            .count()
    };
    assert_eq!(expands(0..millers[0]), 0, "{children:?}");
    assert_eq!(expands(millers[0]..millers[1]), items.len(), "{children:?}");
    assert!(
        children[..millers[0]].contains(&"algebra.multi_pow"),
        "{children:?}"
    );
    assert_eq!(children.last(), Some(&"algebra.final_exp"));
}
