//! Gas is a function of the proof: every check is charged at the
//! declared verification cost, so a round's gas depends on its
//! transactions only — not on the run, the harness or the machine.

use dsaudit_backend::{AuditBackend, BackendProof, Commitment, PairingBackend};
use dsaudit_chain::beacon::TrustedBeacon;
use dsaudit_chain::chain::Blockchain;
use dsaudit_chain::gas::GasSchedule;
use dsaudit_chain::types::{eth, gwei, Address, Transaction, TxKind, TxStatus, Wei};
use dsaudit_contract::harness::{
    beacon_since, deploy, mine_ok, prove_round, queue_call, run_round, run_round_multi,
    outcome_since, setup_backend_session, setup_session, AgreementTerms, BackendSession,
};
use dsaudit_core::{AuditParams, Codec, Outcome};
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

/// A pairing session over `data`, deployed with the harness's `deploy`
/// so its contract can take its round verdicts from a batch `auditor`,
/// beside the commitment such an auditor checks proofs against.
fn pairing_session(
    rng: &mut StdRng,
    chain: &mut Blockchain,
    label: &str,
    data: &[u8],
    auditor: Option<Address>,
    terms: AgreementTerms,
) -> (BackendSession, Commitment) {
    let backend = PairingBackend::new(params());
    let setup = backend.setup(rng, data).expect("setup");
    let verifier = backend.verifier(&setup.commitment).expect("own commitment");
    let owner = Address::from_label(&format!("{label}/owner"));
    let provider = Address::from_label(&format!("{label}/provider"));
    chain.fund_account(owner, terms.owner_deposit + eth(1));
    chain.fund_account(provider, terms.provider_deposit + eth(1));
    let contract = deploy(chain, label, terms.bind(owner, provider), verifier, auditor);
    mine_ok(chain, "session set-up");
    let session = BackendSession {
        contract,
        owner,
        provider,
        backend: setup.kit.backend(),
        kit: setup.kit,
        stored: data.to_vec(),
        terms,
    };
    (session, setup.commitment)
}

/// The proof posted to `contract` in blocks `from_block..`, as the
/// batch auditor reads it from the `prove` calldata.
fn posted_proof(chain: &Blockchain, from_block: usize, contract: Address) -> BackendProof {
    chain.blocks[from_block..]
        .iter()
        .flat_map(|b| &b.txs)
        .find_map(|(tx, _)| match &tx.kind {
            TxKind::Call { method, data } if tx.to == contract && method == "prove" => {
                Some(BackendProof::decode(data).expect("a framed proof"))
            }
            _ => None,
        })
        .expect("proof posted")
}

/// Passes the deadline of a round [`prove_round`] opened: contracts
/// with a batch auditor park it for a verdict, the others settle it.
fn pass_deadline(chain: &mut Blockchain) {
    chain.advance_time(601);
    mine_ok(chain, "verify triggers");
}

/// Gas of one honest pairing round on a fresh chain, through the one
/// driver, for a session from the role API (`setup_session`) or from
/// the backend (`setup_backend_session`); `seed` steers keys, proofs and
/// the beacon.
fn pairing_round_gas(seed: u64, via_backend: bool) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chain = Blockchain::new(Box::new(TrustedBeacon::new(&seed.to_le_bytes())));
    let data: Vec<u8> = (0..1024).map(|i| (i % 241) as u8).collect();
    let s = if via_backend {
        let backend = PairingBackend::new(params());
        setup_backend_session(&mut rng, &mut chain, "g", &data, &backend, terms(1), None)
    } else {
        setup_session(&mut rng, &mut chain, "g", &data, params(), None, terms(1))
    };
    let first_block = chain.block_count();
    assert!(run_round(&mut rng, &mut chain, &s, true));
    chain.gas_used_since(first_block)
}

/// The same round costs the same gas to the unit in independent runs and
/// from either set-up: the paper's ~589k anchor (tx base + 298 B
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
    let (s, _) = pairing_session(&mut rng, &mut chain, "v", &[3u8; 512], Some(auditor), terms(1));
    let start = prove_round(&mut rng, &mut chain, &[(&s, true)]);
    pass_deadline(&mut chain);
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
        assert_eq!(outcome_since(&chain, start, s.contract), None, "a revert settles nothing");
    }

    let receipt = verdict(&mut chain, vec![1]);
    assert_eq!(receipt.status, TxStatus::Success);
    let g = GasSchedule::default();
    assert_eq!(receipt.gas_used, g.tx_base + 16 * 8 + g.verify_gas());
    assert_eq!(receipt.gas_used, 363_848);
    assert_eq!(outcome_since(&chain, start, s.contract), Some(Outcome::Accept));
}

/// Batched mode's escape hatch: when the batch auditor never answers,
/// the verdict timeout passes and the contract verifies the kept proof
/// itself, so an honest round still settles as a pass.
#[test]
fn batched_verdict_timeout_falls_back_to_self_verification() {
    let mut chain = Blockchain::new(Box::new(TrustedBeacon::new(b"verdict-timeout")));
    let mut rng = StdRng::seed_from_u64(0x5111);
    let asleep = Address::from_label("auditor/asleep");
    let (s, _) = pairing_session(&mut rng, &mut chain, "t", &[5u8; 300], Some(asleep), terms(1));
    let start = prove_round(&mut rng, &mut chain, &[(&s, true)]);
    pass_deadline(&mut chain);
    assert_eq!(outcome_since(&chain, start, s.contract), None, "the round is parked");
    pass_deadline(&mut chain);
    let events = chain.events_since(start);
    assert!(
        events.iter().any(|e| e.contract == s.contract && e.name == "verdicttimeout"),
        "timeout event recorded"
    );
    assert_eq!(
        outcome_since(&chain, start, s.contract),
        Some(Outcome::Accept),
        "honest proof passes via the self-verification fallback"
    );
}

/// Two two-session chains built and driven from the same seed report
/// equal verdicts, gas and chain bytes, whether the contracts verify
/// themselves (through the driver) or take each verdict from a batch
/// auditor that checks the posted proof against its commitment.
#[test]
fn same_seed_networks_report_equal_stats_in_both_modes() {
    let auditor = Address::from_label("network/batch-auditor");
    let run = |batched: bool| {
        let mut rng = StdRng::seed_from_u64(0x6a5);
        let mut chain = Blockchain::new(Box::new(TrustedBeacon::new(b"network")));
        let on = batched.then_some(auditor);
        let sessions: Vec<(BackendSession, Commitment)> = (0..2)
            .map(|u| {
                let data: Vec<u8> = (0..300).map(|i| ((i * 31 + u * 7) % 251) as u8).collect();
                pairing_session(&mut rng, &mut chain, &format!("user{u}"), &data, on, terms(2))
            })
            .collect();
        let pairs: Vec<_> = sessions.iter().map(|(s, _)| (s, true)).collect();
        let mut stats = Vec::new();
        for _ in 0..2 {
            let verdicts = if batched {
                let start = prove_round(&mut rng, &mut chain, &pairs);
                pass_deadline(&mut chain);
                for (s, commitment) in &sessions {
                    let beacon = beacon_since(&chain, start, s.contract).expect("challenged");
                    let proof = posted_proof(&chain, start, s.contract);
                    let ok = PairingBackend::new(params())
                        .verify(commitment, &beacon, &proof)
                        .is_ok_and(|v| v.accepted());
                    queue_call(&mut chain, auditor, s.contract, "verdict", vec![u8::from(ok)], 0);
                }
                mine_ok(&mut chain, "verdicts");
                let verdict = |s: &BackendSession| outcome_since(&chain, start, s.contract);
                pairs.iter().map(|(s, _)| verdict(s).expect("settled")).collect()
            } else {
                run_round_multi(&mut rng, &mut chain, &pairs)
            };
            stats.push((verdicts, chain.total_gas_used(), chain.total_size_bytes()));
        }
        stats
    };
    for batched in [false, true] {
        let first = run(batched);
        assert_eq!(first, run(batched), "batched = {batched}: same seed, same stats");
        assert_eq!(first[1].0, [Outcome::Accept; 2]);
    }
}
