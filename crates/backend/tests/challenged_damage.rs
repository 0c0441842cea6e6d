//! A round costs the challenge, not the file: provers read only the
//! units a round challenges, so a round fails exactly when its
//! challenge touches damage — the paper's sampling guarantee. These
//! tests pin that, the reject share it implies, and that the pairing
//! backend's stored-bytes prover answers byte for byte as the warm
//! role-API provider.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use dsaudit_backend::{AuditBackend, MerkleBackend, PairingBackend};
use dsaudit_core::{AuditParams, Challenge, DataOwner, StorageProvider};

/// Seeded beacons per test.
const ROUNDS: usize = 256;

fn beacons(seed: u64) -> Vec<[u8; 48]> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..ROUNDS)
        .map(|_| {
            let mut beacon = [0u8; 48];
            rng.fill_bytes(&mut beacon);
            beacon
        })
        .collect()
}

fn file(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 29 + 7) % 251) as u8).collect()
}

/// Flips one byte inside each damaged `unit`-byte unit.
fn damage(data: &[u8], unit: usize, damaged: &[usize]) -> Vec<u8> {
    let mut stored = data.to_vec();
    for &u in damaged {
        stored[u * unit + unit / 2] ^= 0x24;
    }
    stored
}

/// `C(n, k)` as a float.
fn choose(n: usize, k: usize) -> f64 {
    (0..k).map(|i| (n - i) as f64 / (k - i) as f64).product()
}

/// Runs every beacon through `backend` over `stored` and returns, per
/// round, whether it was accepted.
fn verdicts(backend: &dyn AuditBackend, data: &[u8], stored: &[u8], seed: u64) -> Vec<bool> {
    let mut rng = StdRng::seed_from_u64(seed);
    let setup = backend.setup(&mut rng, data).expect("setup");
    let verifier = backend.verifier(&setup.commitment).expect("commitment parses");
    beacons(seed)
        .iter()
        .map(|beacon| {
            let proof = backend
                .prove(&mut rng, &setup.kit, stored, beacon)
                .expect("same-shape bytes always prove");
            verifier.verify(beacon, &proof).expect("well-formed").accepted()
        })
        .collect()
}

/// Pairing, `m = 4` of `d = 20` chunks damaged, `k = 3`: a round
/// rejects iff a challenged chunk is damaged, and the reject share
/// sits at `1 − C(d−m, k)/C(d, k)`.
#[test]
fn pairing_rejects_iff_a_challenged_chunk_is_damaged() {
    let params = AuditParams::new(2, 3).expect("valid");
    let (d, m, k) = (20, 4, params.k);
    let data = file(d * params.chunk_bytes());
    let damaged = [1usize, 6, 11, 17];
    assert_eq!(damaged.len(), m);
    let stored = damage(&data, params.chunk_bytes(), &damaged);

    let accepted = verdicts(&PairingBackend::new(params), &data, &stored, 0xda7a);
    let mut rejects = 0;
    for (beacon, ok) in beacons(0xda7a).iter().zip(&accepted) {
        let touched = Challenge::from_beacon(beacon)
            .indices(d, k)
            .iter()
            .any(|i| damaged.contains(&(*i as usize)));
        assert_eq!(!ok, touched, "beacon {beacon:02x?}");
        rejects += usize::from(!ok);
    }

    let share = rejects as f64 / ROUNDS as f64;
    let expected = 1.0 - choose(d - m, k) / choose(d, k);
    assert!(
        (share - expected).abs() <= 0.06,
        "reject share {share:.3}, expected {expected:.3}"
    );
}

/// Merkle, 4 of 40 leaves damaged, `k = 3`: a round rejects iff a
/// challenged leaf or the sibling leaf its path starts at is damaged
/// (the prover hashes both from the stored bytes; the rest of the path
/// comes from its kit).
#[test]
fn merkle_rejects_iff_a_challenged_leaf_or_its_sibling_is_damaged() {
    let backend = MerkleBackend { leaf_size: 32, k: 3 };
    let leaves = 40;
    let data = file(leaves * backend.leaf_size);
    let damaged = [3usize, 12, 25, 38];
    let stored = damage(&data, backend.leaf_size, &damaged);

    let accepted = verdicts(&backend, &data, &stored, 0x1eaf);
    let mut rejects = 0;
    for (beacon, ok) in beacons(0x1eaf).iter().zip(&accepted) {
        let touched = Challenge::from_beacon(beacon)
            .indices(leaves, backend.k)
            .iter()
            .any(|i| {
                let i = *i as usize;
                damaged.contains(&i) || damaged.contains(&(i ^ 1))
            });
        assert_eq!(!ok, touched, "beacon {beacon:02x?}");
        rejects += usize::from(!ok);
    }
    // both outcomes occur, so the equivalence above is not vacuous
    assert!(0 < rejects && rejects < ROUNDS, "{rejects} of {ROUNDS} rejected");
}

/// The backend proves from the stored bytes, encoding only the
/// challenged chunks; the role-API provider proves from its encoded
/// file. Same key, tags, rng and beacon: the same proof bytes.
#[test]
fn stored_bytes_proof_equals_the_providers_response() {
    let params = AuditParams::new(4, 5).expect("valid");
    let backend = PairingBackend::new(params);
    for len in [0usize, 1, 123, 124, 1000, 2500] {
        let data = file(len);
        let setup = backend
            .setup(&mut StdRng::seed_from_u64(0x5e7), &data)
            .expect("setup");
        // the same draws `PairingBackend::setup` makes
        let mut rng = StdRng::seed_from_u64(0x5e7);
        let owner = DataOwner::generate(&mut rng, params);
        let bundle = owner.outsource(&mut rng, &data);
        let provider =
            StorageProvider::new_unchecked(bundle.pk, bundle.file, bundle.tags).expect("shapes");
        for beacon in beacons(len as u64).iter().take(4) {
            let seed = u64::from(beacon[0]);
            let from_stored = backend
                .prove(&mut StdRng::seed_from_u64(seed), &setup.kit, &data, beacon)
                .expect("honest prove");
            let response = provider.respond(
                &mut StdRng::seed_from_u64(seed),
                &Challenge::from_beacon(beacon),
            );
            assert_eq!(from_stored, PairingBackend::frame(&response), "len {len}");
        }
    }
}
