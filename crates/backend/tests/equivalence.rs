//! Cross-backend equivalence: every backend, fed the same file and the
//! same corruption through the same lifecycle, must return the same
//! [`Verdict`] — the scheme changes the *cost profile* of a round,
//! never its *outcome*. Plus adversarial wire tests on the erased
//! proof codec shared by all backends.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use dsaudit_backend::{
    AuditBackend, BackendId, Groth16MerkleBackend, MerkleBackend, PairingBackend,
};
use dsaudit_core::codec::Codec;
use dsaudit_core::AuditParams;

/// Small-parameter instances of every backend, in registry order.
///
/// Scaled down like the simulator does (`s = 4`, `k = 3`, 32-byte
/// leaves, batch 2) so the whole matrix runs in test time; the
/// lifecycle is identical at paper-scale parameters.
fn fleet() -> Vec<Box<dyn AuditBackend>> {
    vec![
        Box::new(PairingBackend::new(AuditParams::new(4, 3).expect("valid"))),
        Box::new(MerkleBackend { leaf_size: 32, k: 3 }),
        Box::new(Groth16MerkleBackend { batch: 2 }),
    ]
}

/// Runs one full `setup → challenge → prove → verify` round on every
/// backend, with `mutate` applied to the provider's stored copy, and
/// returns `(backend name, verdict accepted?)` per backend.
fn round_on_all(data: &[u8], beacon: [u8; 48], mutate: impl Fn(&mut Vec<u8>)) -> Vec<(&'static str, bool)> {
    let mut out = Vec::new();
    for backend in fleet() {
        let mut rng = StdRng::seed_from_u64(0xe9_u64 ^ backend.id().as_u8() as u64);
        let setup = backend.setup(&mut rng, data).expect("setup");
        assert_eq!(setup.commitment.backend, backend.id());
        assert_eq!(setup.kit.backend(), backend.id());
        let mut stored = data.to_vec();
        mutate(&mut stored);
        let proof = backend
            .prove(&mut rng, &setup.kit, &stored, &beacon)
            .expect("prove");
        let verdict = backend
            .verify(&setup.commitment, &beacon, &proof)
            .expect("verify");
        out.push((backend.id().name(), verdict.accepted()));
    }
    out
}

/// Parse once, check many: one `verifier` serves every round of a
/// file, and a commitment that does not decode is refused there —
/// before any proof exists to blame.
#[test]
fn verifier_is_reusable_and_rejects_bad_commitments_up_front() {
    let data: Vec<u8> = (0..1024).map(|i| (i % 241) as u8).collect();
    for backend in fleet() {
        let name = backend.id().name();
        let mut rng = StdRng::seed_from_u64(0xea_u64 ^ backend.id().as_u8() as u64);
        let setup = backend.setup(&mut rng, &data).expect("setup");
        let verifier = backend.verifier(&setup.commitment).expect("honest commitment parses");
        assert_eq!(verifier.id(), backend.id());
        assert_eq!(verifier.commitment_len(), setup.commitment.bytes.len(), "backend `{name}`");
        for beacon in [[1u8; 48], [2u8; 48], [3u8; 48]] {
            let proof = backend
                .prove(&mut rng, &setup.kit, &data, &beacon)
                .expect("prove");
            let verdict = verifier.verify(&beacon, &proof).expect("verify");
            assert!(verdict.accepted(), "backend `{name}` rejected an honest round");
            assert_eq!(
                backend.verify(&setup.commitment, &beacon, &proof).expect("one-shot"),
                verdict,
                "backend `{name}`: one-shot wrapper disagrees with the held verifier"
            );
        }
        let mut truncated = setup.commitment.clone();
        truncated.bytes.pop();
        assert!(backend.verifier(&truncated).is_err(), "backend `{name}`");
        let garbage = dsaudit_backend::BackendProof {
            backend: backend.id(),
            bytes: vec![0xff; 288],
        };
        assert!(
            verifier.verify(&[1u8; 48], &garbage).is_err(),
            "backend `{name}`: an undecodable payload is an error, not a verdict"
        );
    }
}

#[test]
fn honest_provider_accepted_by_every_backend() {
    let data: Vec<u8> = (0..1024).map(|i| (i % 241) as u8).collect();
    for (name, accepted) in round_on_all(&data, [5u8; 48], |_| {}) {
        assert!(accepted, "backend `{name}` rejected an honest provider");
    }
}

#[test]
fn corrupted_provider_rejected_by_every_backend() {
    let data: Vec<u8> = (0..1024).map(|i| (i % 241) as u8).collect();
    // flip one bit in every 31-byte window: whatever leaf/chunk
    // geometry a backend uses, each challenged unit hits damage
    let verdicts = round_on_all(&data, [6u8; 48], |stored| {
        for i in (0..stored.len()).step_by(31) {
            stored[i] ^= 0x10;
        }
    });
    for (name, accepted) in verdicts {
        assert!(!accepted, "backend `{name}` accepted corrupted data");
    }
}

#[test]
fn verdicts_agree_pairwise_per_scenario() {
    let data: Vec<u8> = (0..640).map(|i| (i * 13 % 251) as u8).collect();
    for (label, mutate) in [
        ("honest", None),
        ("all-corrupt", Some(0xffu8)),
    ] {
        let verdicts = match mutate {
            None => round_on_all(&data, [8u8; 48], |_| {}),
            Some(mask) => round_on_all(&data, [8u8; 48], move |stored| {
                for b in stored.iter_mut() {
                    *b ^= mask;
                }
            }),
        };
        let first = verdicts[0].1;
        for (name, accepted) in &verdicts {
            assert_eq!(
                *accepted, first,
                "scenario `{label}`: backend `{name}` disagrees with `{}`",
                verdicts[0].0
            );
        }
    }
}

#[test]
fn every_backend_survives_empty_and_tiny_files() {
    for data in [vec![], vec![0xabu8], vec![7u8; 31]] {
        for (name, accepted) in round_on_all(&data, [9u8; 48], |_| {}) {
            assert!(accepted, "backend `{name}` failed on a {}-byte file", data.len());
        }
    }
}

/// One honest encoded proof per backend, produced once (setup is the
/// expensive step — the property tests only mangle bytes).
fn honest_proofs() -> &'static [(BackendId, Vec<u8>)] {
    static PROOFS: std::sync::OnceLock<Vec<(BackendId, Vec<u8>)>> = std::sync::OnceLock::new();
    PROOFS.get_or_init(|| {
        let data: Vec<u8> = (0..640).map(|i| (i % 253) as u8).collect();
        let beacon = [2u8; 48];
        fleet()
            .into_iter()
            .map(|backend| {
                let mut rng = StdRng::seed_from_u64(0x9 ^ backend.id().as_u8() as u64);
                let setup = backend.setup(&mut rng, &data).expect("setup");
                let proof = backend
                    .prove(&mut rng, &setup.kit, &data, &beacon)
                    .expect("prove");
                (backend.id(), proof.encode())
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncating an encoded proof at ANY boundary is a typed decode
    /// error for every backend — never a panic, never a verdict.
    #[test]
    fn truncated_proofs_are_typed_errors(cut in 0usize..4096) {
        for (id, bytes) in honest_proofs() {
            let cut = cut % bytes.len();
            prop_assert!(
                dsaudit_backend::BackendProof::decode(&bytes[..cut]).is_err(),
                "backend `{id}`: truncation at {cut}/{} decoded",
                bytes.len(),
            );
        }
    }

    /// Flipping any bit of an encoded proof either fails to decode or
    /// decodes to a different object — the codec hides nothing.
    #[test]
    fn bit_flips_never_decode_to_the_original(pos in 0usize..4096, bit in 0u8..8) {
        for (id, bytes) in honest_proofs() {
            let original = dsaudit_backend::BackendProof::decode(bytes).expect("honest");
            let mut flipped = bytes.clone();
            let pos = pos % flipped.len();
            flipped[pos] ^= 1 << bit;
            match dsaudit_backend::BackendProof::decode(&flipped) {
                Err(_) => {}
                Ok(decoded) => prop_assert_ne!(
                    decoded, original.clone(),
                    "backend `{}`: bit flip at byte {} went unnoticed", id, pos
                ),
            }
        }
    }
}
