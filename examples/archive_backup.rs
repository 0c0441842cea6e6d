//! The paper's motivating scenario (§I-A): a user backs up a photo
//! collection to the decentralized storage network, audits it through
//! the on-chain contract, and gets compensated automatically when the
//! provider silently drops data.
//!
//! Exercises the full stack: ChaCha20 encryption + 3-of-10 erasure
//! coding + DHT placement (storage layer), the Fig. 2 contract state
//! machine (chain layer) and the HLA audit protocol (core).
//!
//! ```text
//! cargo run --release --example archive_backup
//! ```

use dsaudit::chain::beacon::TrustedBeacon;
use dsaudit::chain::chain::Blockchain;
use dsaudit::contract::harness::{run_round, setup_session, AgreementTerms};
use dsaudit::core::params::AuditParams;
use dsaudit::storage::StorageNetwork;
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    // --- storage layer: encrypt, erasure-code, distribute ---
    let photos: Vec<u8> = (0..150_000).map(|i| ((i * 31) % 251) as u8).collect();
    let mut dsn = StorageNetwork::new(20, 3, 10); // 20 providers, 3-of-10 code
    let key = [7u8; 32];
    let mut manifest = dsn.upload(key, [1u8; 12], &photos).expect("upload succeeds");
    println!(
        "uploaded {} bytes as {} shares across the DHT (content id {:?})",
        photos.len(),
        manifest.placements.len(),
        manifest.content_id
    );

    // storage survives provider churn thanks to the erasure code
    let drop_list: Vec<_> = manifest.placements[..5].to_vec();
    for (_, provider, share_key) in &drop_list {
        dsn.provider_mut(provider).unwrap().drop_share(share_key);
    }
    println!(
        "5 of 10 shares lost to churn; live = {}; repairing...",
        dsn.live_shares(&manifest)
    );
    let repaired = dsn
        .repair(&mut manifest, &[])
        .expect("enough shares survive");
    assert_eq!(repaired.len(), 5);
    assert_eq!(dsn.live_shares(&manifest), 10);
    assert!(
        dsn.download(&manifest, key).expect("decodable") == photos,
        "repaired archive must download intact"
    );
    println!(
        "repair re-placed {} shares on DHT-nearest free providers; download intact",
        repaired.len()
    );

    // --- audit layer: contract + periodic auditing of one provider ---
    let mut chain = Blockchain::new(Box::new(TrustedBeacon::new(b"archive")));
    let params = AuditParams::new(16, 40).expect("valid"); // small file -> small k
    let terms = AgreementTerms {
        num_audits: 4,
        ..AgreementTerms::default()
    };
    let mut session = setup_session(
        &mut rng,
        &mut chain,
        "photo-archive",
        &photos,
        params,
        None,
        terms,
    );
    println!("\ncontract deployed; deposits locked; auditing begins");

    // two honest rounds: the provider earns micro-payments
    for round in 1..=2 {
        let passed = run_round(&mut rng, &mut chain, &session, true);
        println!("round {round}: {}", if passed { "pass -> provider paid" } else { "fail" });
        assert!(passed);
    }

    // The provider silently drops a third of the archive. With k = 40
    // challenged chunks the detection probability per round is
    // 1 - (2/3)^40 > 99.9999% (this is the §VI-A confidence math: k
    // trades audit cost against detection probability).
    let chunk = params.chunk_bytes();
    let d = session.stored.len().div_ceil(chunk);
    for i in (0..d).step_by(3) {
        let lo = i * chunk;
        let hi = (lo + chunk).min(session.stored.len());
        session.stored[lo..hi].fill(0);
    }
    println!("\nprovider silently drops {} of {} chunks to reclaim space...", d.div_ceil(3), d);

    let owner_before = chain.balance(session.owner);
    let passed = run_round(&mut rng, &mut chain, &session, true);
    println!(
        "round 3: {} -> owner compensated {} wei from the provider's deposit",
        if passed { "pass" } else { "FAIL DETECTED" },
        chain.balance(session.owner) - owner_before
    );
    assert!(!passed, "data loss must be detected");

    // timeout behaves the same way
    let passed = run_round(&mut rng, &mut chain, &session, false);
    println!("round 4 (provider unresponsive): {}", if passed { "pass" } else { "timeout -> fail" });
    assert!(!passed);

    println!(
        "\ncontract complete after {} blocks; total chain size {} bytes; total gas {}",
        chain.blocks.len(),
        chain.total_size_bytes(),
        chain.total_gas_used()
    );
}
