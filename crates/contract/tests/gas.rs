//! Gas is a function of the proof: every check is charged at the
//! declared verification cost, so a round's gas depends on its
//! transactions only — not on the run, the harness or the machine.

use dsaudit_backend::{AuditBackend, PairingBackend};
use dsaudit_chain::beacon::TrustedBeacon;
use dsaudit_chain::chain::Blockchain;
use dsaudit_chain::gas::GasSchedule;
use dsaudit_chain::types::{gwei, Address, Transaction, TxKind, TxStatus, Wei};
use dsaudit_contract::harness::{
    latest_beacon, latest_verdict, run_round, setup_backend_session, setup_session, submit_ok,
    AgreementTerms,
};
use dsaudit_contract::AuditNetwork;
use dsaudit_core::{AuditParams, Codec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn terms(num_audits: u64) -> AgreementTerms {
    AgreementTerms {
        num_audits,
        audit_interval_secs: 3600,
        prove_deadline_secs: 600,
        reward_per_audit: gwei(1_000_000),
        penalty_per_fail: gwei(1_000_000),
        owner_deposit: gwei(1_000_000) * num_audits as Wei,
        provider_deposit: gwei(1_000_000) * num_audits as Wei,
        ..AgreementTerms::default()
    }
}

fn params() -> AuditParams {
    AuditParams::new(4, 3).expect("valid")
}

/// Opens the next round, posts an honest pairing proof and passes the
/// `Verify` trigger: the contract verifies it, or parks it for a batch
/// verdict when the agreement names a batch auditor.
fn prove_round(
    rng: &mut StdRng,
    chain: &mut Blockchain,
    session: &dsaudit_contract::harness::BackendSession,
    backend: &PairingBackend,
) {
    chain.advance_time(3601);
    chain.mine_block();
    let beacon = latest_beacon(chain, session.contract).expect("challenged");
    let proof = backend.prove(rng, &session.kit, &session.stored, &beacon).expect("prove");
    submit_ok(chain, session.provider, session.contract, "prove", proof.encode(), 0);
    chain.advance_time(601);
    chain.mine_block();
}

/// Gas of one honest pairing round on a fresh chain, through the
/// role-API harness (`setup_session` + `run_round`) or the backend
/// harness; `seed` steers keys, proofs and the beacon.
fn pairing_round_gas(seed: u64, via_backend: bool) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chain = Blockchain::new(Box::new(TrustedBeacon::new(&seed.to_le_bytes())));
    let data: Vec<u8> = (0..1024).map(|i| (i % 241) as u8).collect();
    let first_block;
    if via_backend {
        let backend = PairingBackend::new(params());
        let s = setup_backend_session(&mut rng, &mut chain, "g", &data, &backend, terms(1), None);
        first_block = chain.block_count();
        prove_round(&mut rng, &mut chain, &s, &backend);
        assert_eq!(latest_verdict(&chain, s.contract), Some(true));
    } else {
        let s = setup_session(&mut rng, &mut chain, "g", &data, params(), None, terms(1));
        first_block = chain.block_count();
        assert!(run_round(&mut rng, &mut chain, &s, true));
    }
    chain.gas_used_since(first_block)
}

/// The same round costs the same gas to the unit in independent runs and
/// through either harness: the paper's ~589k anchor (tx base + 298 B
/// calldata + 11 storage words + the declared 7.2 ms).
#[test]
fn pairing_round_gas_is_exact_and_path_independent() {
    let gas = [
        pairing_round_gas(1, false),
        pairing_round_gas(2, false),
        pairing_round_gas(1, true),
        pairing_round_gas(2, true),
    ];
    assert_eq!(gas, [588_488; 4]);
}

/// The batch auditor's `verdict` is one flag byte and nothing else: the
/// old 9-byte form (flag + self-reported milliseconds), empty calldata
/// and a flag of 2 revert without settling; `[1]` settles at exactly tx
/// base + 8 calldata bytes (`verdict` + flag) + the declared
/// verification gas.
#[test]
fn verdict_is_one_flag_byte_charged_at_the_declared_cost() {
    let mut chain = Blockchain::new(Box::new(TrustedBeacon::new(b"verdict-byte")));
    let mut rng = StdRng::seed_from_u64(0x50a7);
    let auditor = Address::from_label("verdict/auditor");
    let backend = PairingBackend::new(params());
    let batched = AgreementTerms {
        batch_auditor: Some(auditor),
        ..terms(1)
    };
    let s = setup_backend_session(&mut rng, &mut chain, "v", &[3u8; 512], &backend, batched, None);
    prove_round(&mut rng, &mut chain, &s, &backend);
    let verdict = |chain: &mut Blockchain, data: Vec<u8>| {
        chain.submit(Transaction {
            from: auditor,
            to: s.contract,
            value: 0,
            kind: TxKind::Call {
                method: "verdict".into(),
                data,
            },
        });
        chain.mine_block().txs[0].1.clone()
    };

    let mut old_form = vec![1u8];
    old_form.extend_from_slice(&7.2f64.to_le_bytes());
    for bad in [old_form, Vec::new(), vec![2]] {
        let receipt = verdict(&mut chain, bad.clone());
        assert_eq!(receipt.status, TxStatus::Reverted, "verdict calldata {bad:?}");
        assert_eq!(latest_verdict(&chain, s.contract), None, "a revert settles nothing");
    }

    let receipt = verdict(&mut chain, vec![1]);
    assert_eq!(receipt.status, TxStatus::Success);
    let g = GasSchedule::default();
    assert_eq!(receipt.gas_used, g.tx_base + 16 * 8 + g.verify_gas());
    assert_eq!(receipt.gas_used, 363_848);
    assert_eq!(latest_verdict(&chain, s.contract), Some(true));
}

/// Two networks built and driven from the same seed report equal stats,
/// gas and chain bytes included, whether the contracts verify themselves
/// or take a batch verdict.
#[test]
fn same_seed_networks_report_equal_stats_in_both_modes() {
    for batched in [false, true] {
        let run = || {
            let mut rng = StdRng::seed_from_u64(0x6a5);
            let terms = AgreementTerms {
                num_audits: 2,
                batch_auditor: batched.then(|| Address::from_label("network/batch-auditor")),
                ..AgreementTerms::default()
            };
            let mut net = AuditNetwork::new(&mut rng, 2, 300, params(), terms);
            (net.run_round_all(&mut rng), net.run_round_all(&mut rng))
        };
        let first = run();
        assert_eq!(first, run(), "batched = {batched}: same seed, same stats");
        assert_eq!(first.1.passes, 2);
    }
}
