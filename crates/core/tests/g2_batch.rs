//! A batch looks up every owner key's `eps` and `delta` in one call to
//! the prepared-G2 cache: the first batch over two keys misses four
//! points and prepares each once, the second hits all four, and the
//! totals are those of four lookups of one point each.
//!
//! Obs is a process-wide sink, so this file holds one test: nothing else
//! in its binary records into the registry while it is installed.

use std::sync::Arc;

use dsaudit_core::batch::BatchItem;
use dsaudit_core::{
    generate_tags, keygen, AuditParams, Auditor, CacheStats, Challenge, EncodedFile, FileMeta,
    PreparedG2Cache, Prover,
};
use dsaudit_obs::Registry;
use rand::SeedableRng;

#[test]
fn a_batch_prepares_each_key_point_once_and_then_hits() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x62ba);
    let params = AuditParams::new(4, 3).unwrap();
    let owners: Vec<_> = (0..2)
        .map(|o| {
            let (sk, pk) = keygen(&mut rng, &params);
            let data: Vec<u8> = (0..600).map(|i| ((i * 5 + o * 31) % 251) as u8).collect();
            let file = EncodedFile::encode(&mut rng, &data, params);
            let tags = generate_tags(&sk, &file);
            (pk, file, tags)
        })
        .collect();
    let items: Vec<BatchItem<'_>> = (0..4)
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

    let auditor = Auditor::new();
    let mut runs = Vec::new();
    for _ in 0..2 {
        let registry = Arc::new(Registry::new_virtual());
        dsaudit_obs::install(Arc::clone(&registry));
        let verdict = auditor.verify_private_batch(&mut rng, &items);
        dsaudit_obs::uninstall();
        assert!(verdict.is_ok_and(|v| v.accepted()));
        let spans = registry.snapshot().spans;
        let prepares = spans.iter().filter(|s| s.name == "algebra.g2_prepare").count();
        runs.push((prepares, auditor.cache_stats().1));
    }
    assert_eq!(runs[0], (4, CacheStats { hits: 0, misses: 4 }));
    assert_eq!(runs[1], (0, CacheStats { hits: 4, misses: 4 }));

    // the same two rounds as lookups of one point each
    let one_by_one = PreparedG2Cache::new();
    for _ in 0..2 {
        for (pk, _, _) in &owners {
            let _ = one_by_one.prepared(&[pk.eps]);
            let _ = one_by_one.prepared(&[pk.delta]);
        }
    }
    assert_eq!(one_by_one.stats(), runs[1].1);
}
