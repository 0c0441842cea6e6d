//! Table II's qualitative claims as executable assertions: both
//! solutions achieve on-chain privacy, but the main protocol dominates
//! the strawman on every off-chain cost axis while keeping proofs small.

use std::time::Instant;

use dsaudit::chain::beacon::{Beacon, TrustedBeacon};
use dsaudit::prelude::*;
use dsaudit::snark::strawman::StrawmanAudit;
use rand::SeedableRng;

fn rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(0x7ab1e2)
}

#[test]
fn both_schemes_audit_the_same_1kb_file() {
    let mut rng = rng();
    let data: Vec<u8> = (0..1024).map(|i| (i % 251) as u8).collect();

    // strawman (unpadded MiMC circuit)
    let strawman = StrawmanAudit::commit(&mut rng, &data, None).unwrap();
    let (sproof, stats) = strawman.respond(&mut rng, 1, None).unwrap();
    assert!(strawman.verify_response(&sproof));

    // main protocol, through the role handles
    let params = AuditParams::new(8, 16).unwrap();
    let owner = DataOwner::generate(&mut rng, params);
    let pk = owner.public_key().clone();
    let bundle = owner.outsource(&mut rng, &data);
    let provider = StorageProvider::ingest(&mut rng, bundle).unwrap();
    let meta = provider.meta();
    let auditor = Auditor::new();
    let ch = auditor.challenge_from_beacon(&TrustedBeacon::new(b"strawman").randomness(0));
    let t0 = Instant::now();
    let mproof = provider.respond(&mut rng, &ch);
    let main_prove = t0.elapsed();
    assert!(auditor
        .verify_private(&pk, &meta, &ch, &mproof)
        .unwrap()
        .accepted());

    // Table II's orderings hold on this machine:
    // 1. proof sizes: 288 B (main) < 384 B (strawman)
    assert!(mproof.to_bytes().len() < stats.proof_bytes);
    // 2. the strawman's prover is at least an order of magnitude slower
    assert!(
        stats.prove_time > main_prove * 10,
        "strawman {:?} vs main {:?}",
        stats.prove_time,
        main_prove
    );
    // 3. strawman parameters dwarf the main pk
    assert!(stats.param_bytes > pk.serialized_len(true) * 10);
}

#[test]
fn merkle_baseline_leaks_but_main_does_not() {
    // The deployed-DSN baseline posts raw leaf bytes on chain; the main
    // protocol's 288-byte response contains no data bytes at all.
    let data = b"this exact substring must never appear in an on-chain proof!!";
    let (audit, tree, leaves) = dsaudit::merkle::audit::MerkleAudit::commit(data, 16);
    let idx = audit.challenge_index(b"round1");
    let baseline = dsaudit::merkle::audit::honest_response(&tree, &leaves, idx);
    // the baseline's on-chain bytes literally contain file data
    assert!(data
        .windows(8)
        .any(|w| baseline
            .leaf_data
            .windows(8)
            .any(|l| l == w)));

    // main protocol proof bytes share no 8-byte window with the data
    let mut rng = rng();
    let params = AuditParams::new(4, 8).unwrap();
    let owner = DataOwner::generate(&mut rng, params);
    let bundle = owner.outsource(&mut rng, data);
    let provider = StorageProvider::ingest(&mut rng, bundle).unwrap();
    let ch = Challenge::random(&mut rng);
    let proof_bytes = provider.respond(&mut rng, &ch).to_bytes();
    assert!(!data
        .windows(8)
        .any(|w| proof_bytes.windows(8).any(|p| p == w)));
}

#[test]
fn padded_strawman_profile_scales_with_constraints() {
    // the padding knob reproduces the paper's cost scaling: 4x the
    // constraints => >3x the proving key (and with it the FFT + MSM
    // work of proving). Asserted on sizes, not wall-clock times, so the
    // test means the same on a loaded box.
    let mut rng = rng();
    let data = [3u8; 512];
    let small = StrawmanAudit::commit(&mut rng, &data, Some(4096)).unwrap();
    let (_, small_stats) = small.respond(&mut rng, 0, Some(4096)).unwrap();
    let big = StrawmanAudit::commit(&mut rng, &data, Some(16384)).unwrap();
    let (_, big_stats) = big.respond(&mut rng, 0, Some(16384)).unwrap();
    assert_eq!(small_stats.constraints, 4096);
    assert_eq!(big_stats.constraints, 16384);
    assert!(big_stats.param_bytes > small_stats.param_bytes * 3);
}
