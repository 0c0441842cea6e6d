//! Satellite property: challenge derivation is a pure function of the
//! beacon output. Any two verifiers holding the same beacon round must
//! derive byte-identical challenges and identical challenge ids —
//! there is no per-auditor randomness left in the derivation path —
//! and an auditor and a provider daemon open the same round without a
//! challenge message between them.

use dsaudit_chain::beacon::{Beacon, TrustedBeacon};
use dsaudit_core::{AuditParams, Challenge, Codec, DataOwner, StorageProvider};
use dsaudit_node::frame::derive_challenge_id;
use dsaudit_node::{AuditorConfig, AuditorNode, ProviderConfig, ProviderNode};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two independent verifiers, same beacon seed and round: the
    /// derived challenges encode to identical bytes and the derived
    /// challenge ids match.
    #[test]
    fn two_verifiers_derive_identical_challenges(
        seed in prop::collection::vec(any::<u8>(), 1..64),
        round in any::<u64>(),
        name_word in any::<u64>(),
    ) {
        let mut verifier_a = TrustedBeacon::new(&seed);
        let mut verifier_b = TrustedBeacon::new(&seed);

        let out_a = verifier_a.randomness(round);
        let out_b = verifier_b.randomness(round);
        prop_assert_eq!(out_a, out_b, "beacon output is a pure function of (seed, round)");

        let ch_a = Challenge::from_beacon(&out_a);
        let ch_b = Challenge::from_beacon(&out_b);
        prop_assert_eq!(
            ch_a.encode(), ch_b.encode(),
            "challenge derivation adds no verifier-local randomness"
        );

        use dsaudit_algebra::field::Field;
        let file_name = dsaudit_algebra::Fr::from_u64(name_word);
        prop_assert_eq!(
            derive_challenge_id(&file_name, round, round),
            derive_challenge_id(&file_name, round, round),
            "challenge ids are idempotent"
        );
    }

    /// Distinct beacon rounds give distinct challenges (the PRF does
    /// not collapse), and querying rounds out of order changes nothing.
    #[test]
    fn rounds_are_independent_and_order_insensitive(
        seed in prop::collection::vec(any::<u8>(), 1..64),
        round in any::<u64>(),
    ) {
        let other = round.wrapping_add(1);
        let mut forward = TrustedBeacon::new(&seed);
        let a_then_b = (forward.randomness(round), forward.randomness(other));
        let mut backward = TrustedBeacon::new(&seed);
        let b_then_a = (backward.randomness(other), backward.randomness(round));
        prop_assert_eq!(a_then_b.0, b_then_a.1, "order does not matter");
        prop_assert_eq!(a_then_b.1, b_then_a.0, "order does not matter");
        prop_assert_ne!(
            Challenge::from_beacon(&a_then_b.0).encode(),
            Challenge::from_beacon(&a_then_b.1).encode(),
            "distinct rounds yield distinct challenges"
        );
    }

    /// Each daemon reads the beacon on its own: for any beacon seed,
    /// round and file, `AuditorNode::open` and `ProviderNode::open`
    /// derive the same challenge id and the same round challenge.
    #[test]
    fn auditor_and_provider_open_the_same_round(
        seed in prop::collection::vec(any::<u8>(), 1..64),
        round in any::<u64>(),
        file_seed in any::<u64>(),
        file_len in 1usize..400,
    ) {
        let mut rng = StdRng::seed_from_u64(file_seed);
        let owner = DataOwner::generate(&mut rng, AuditParams::new(4, 3).unwrap());
        let file: Vec<u8> = (0..file_len).map(|i| (i as u64 ^ file_seed) as u8).collect();
        let bundle = owner.outsource(&mut rng, &file);
        let handle = StorageProvider::ingest(&mut rng, bundle).unwrap();
        let mut auditor = AuditorNode::new(0, AuditorConfig::default(), file_seed);
        auditor.register_target(1, handle.public_key().clone(), handle.meta()).unwrap();
        let mut provider = ProviderNode::new(1, handle, ProviderConfig::default(), file_seed);

        let at_auditor = TrustedBeacon::new(&seed).randomness(round);
        let at_provider = TrustedBeacon::new(&seed).randomness(round);
        let deadline = 10_000;
        let a = auditor.open(1, round, &at_auditor, deadline).unwrap();
        let p = provider.open(0, 0, round, &at_provider, deadline);
        prop_assert_eq!(a, p, "same challenge id");
        prop_assert_eq!(
            Some(&auditor.tracks()[&a].rc),
            provider.open_round(&p),
            "same round challenge"
        );
    }
}
