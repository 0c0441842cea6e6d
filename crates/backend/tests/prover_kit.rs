//! The prover kit is what `setup` built, handed back to `prove`: these
//! tests pin the bytes a round produces from it, that `prove` reads its
//! parameters from the kit alone, that a kit only works on the backend
//! that built it, and that `setup` refuses a configuration it could
//! not audit.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dsaudit_backend::{
    AuditBackend, BackendError, BackendId, Groth16MerkleBackend, MerkleBackend, PairingBackend,
};
use dsaudit_core::codec::Codec;
use dsaudit_core::params::ParamError;
use dsaudit_core::{AuditParams, DsAuditError};

const BEACON: [u8; 48] = [0x5a; 48];

/// The backends the digests below were taken on, with the file size
/// each is driven at (groth16 keygen is the slow one).
fn fleet() -> Vec<(Box<dyn AuditBackend>, usize)> {
    vec![
        (Box::new(PairingBackend::new(AuditParams::new(8, 40).expect("valid"))), 16 * 1024),
        (Box::new(MerkleBackend::default()), 16 * 1024),
        (Box::new(Groth16MerkleBackend { batch: 2 }), 1024),
    ]
}

/// The same three backends under another configuration.
fn reconfigured(id: BackendId) -> Box<dyn AuditBackend> {
    match id {
        BackendId::Pairing => Box::new(PairingBackend::default()),
        BackendId::Merkle => Box::new(MerkleBackend { leaf_size: 32, k: 3 }),
        BackendId::Groth16Merkle => Box::new(Groth16MerkleBackend { batch: 5 }),
    }
}

fn file(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 7 + 3) % 251) as u8).collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// SHA-256 of the encoded `BackendProof` of one `setup` + `prove` from
/// rng seed `0x21 ^ id`, taken on the build before the kit lost its
/// wire form. A change here is a change to what lands on chain.
#[test]
fn proof_bytes_are_pinned_per_backend() {
    let pinned = [
        "bb4d6b30ca7094104a5074c00dccf86bffb917086d39e66353332d65b2a56652",
        "0aa365844c356a1b5a1dc52e02a28d3665bc688e64bc23b78bc84217d9bd27d5",
        "407bb33b2196e1eb7d42d40147e8101bc5ae28e721008fbe91802b6c97b1ce43",
    ];
    for ((backend, len), want) in fleet().into_iter().zip(pinned) {
        let data = file(len);
        let mut rng = StdRng::seed_from_u64(0x21 ^ backend.id().as_u8() as u64);
        let setup = backend.setup(&mut rng, &data).expect("setup");
        let proof = backend
            .prove(&mut rng, &setup.kit, &data, &BEACON)
            .expect("prove");
        assert_eq!(
            hex(&dsaudit_crypto::sha256::sha256(&proof.encode())),
            want,
            "backend `{}`",
            backend.id()
        );
    }
}

/// `prove` takes every parameter from the kit and none from `self`: a
/// differently configured instance of the same backend answers with
/// the byte-identical proof.
#[test]
fn prove_reads_its_parameters_from_the_kit_alone() {
    for (backend, len) in fleet() {
        let data = file(len);
        let id = backend.id();
        let mut rng = StdRng::seed_from_u64(0x22 ^ id.as_u8() as u64);
        let setup = backend.setup(&mut rng, &data).expect("setup");
        let mut rng_a = StdRng::seed_from_u64(0x23);
        let mut rng_b = StdRng::seed_from_u64(0x23);
        let built = backend
            .prove(&mut rng_a, &setup.kit, &data, &BEACON)
            .expect("prove");
        let other = reconfigured(id)
            .prove(&mut rng_b, &setup.kit, &data, &BEACON)
            .expect("prove on a reconfigured instance");
        assert_eq!(built, other, "backend `{id}`");
        assert!(backend
            .verify(&setup.commitment, &BEACON, &other)
            .expect("verify")
            .accepted());
    }
}

#[test]
fn a_kit_only_proves_on_the_backend_that_built_it() {
    let kits: Vec<_> = fleet()
        .into_iter()
        .map(|(backend, _)| {
            let mut rng = StdRng::seed_from_u64(0x24);
            (backend.id(), backend.setup(&mut rng, &file(256)).expect("setup").kit)
        })
        .collect();
    for (backend, _) in fleet() {
        for (got, kit) in &kits {
            if *got == backend.id() {
                continue;
            }
            let mut rng = StdRng::seed_from_u64(0x25);
            assert_eq!(
                backend.prove(&mut rng, kit, &file(256), &BEACON),
                Err(BackendError::WrongBackend {
                    expected: backend.id(),
                    got: *got,
                })
            );
        }
    }
}

#[test]
fn pairing_setup_refuses_invalid_params() {
    let mut rng = StdRng::seed_from_u64(0x26);
    for (s, k) in [(0, 3), (4, 0)] {
        let backend = PairingBackend { params: AuditParams { s, k } };
        assert_eq!(
            backend.setup(&mut rng, &file(256)).err(),
            Some(BackendError::Audit(DsAuditError::Params(ParamError::Zero)))
        );
    }
}

#[test]
fn merkle_setup_refuses_a_zero_leaf_size_or_challenge_count() {
    let mut rng = StdRng::seed_from_u64(0x27);
    for backend in [MerkleBackend { leaf_size: 0, k: 4 }, MerkleBackend { leaf_size: 64, k: 0 }] {
        assert!(matches!(
            backend.setup(&mut rng, &file(256)),
            Err(BackendError::Shape(_))
        ));
    }
}

#[test]
fn groth16_setup_refuses_an_empty_batch() {
    let mut rng = StdRng::seed_from_u64(0x28);
    assert!(matches!(
        Groth16MerkleBackend { batch: 0 }.setup(&mut rng, &file(256)),
        Err(BackendError::Shape(_))
    ));
}
