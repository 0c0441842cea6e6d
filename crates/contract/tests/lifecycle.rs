//! Integration tests for the full Fig. 2 contract lifecycle: honest runs,
//! data-loss disputes, timeouts, rejections and payment conservation.

use dsaudit_chain::beacon::TrustedBeacon;
use dsaudit_chain::chain::Blockchain;
use dsaudit_chain::types::{eth, Transaction, TxKind, TxStatus};
use dsaudit_contract::harness::{
    latest_challenge, run_round, setup_session, submit_ok, AgreementTerms,
};
use dsaudit_core::params::AuditParams;
use rand::SeedableRng;

fn rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(0xc0217ac7)
}

fn chain() -> Blockchain {
    Blockchain::new(Box::new(TrustedBeacon::new(b"lifecycle")))
}

fn params() -> AuditParams {
    AuditParams::new(4, 3).unwrap()
}

#[test]
fn honest_provider_earns_all_rewards() {
    let mut rng = rng();
    let mut chain = chain();
    let terms = AgreementTerms {
        num_audits: 3,
        ..AgreementTerms::default()
    };
    let session = setup_session(&mut rng, &mut chain, "honest", &[7u8; 900], params(), None, terms);
    let provider_before = chain.balance(session.provider);

    for round in 0..3 {
        let passed = run_round(&mut rng, &mut chain, &session, true);
        assert!(passed, "round {round} should pass");
    }
    // contract completed: provider got deposits back + all rewards
    let provider_after = chain.balance(session.provider);
    let expected_gain = terms.provider_deposit + 3 * terms.reward_per_audit;
    assert_eq!(provider_after - provider_before + terms.provider_deposit, expected_gain + terms.provider_deposit);
    // completed event emitted
    assert!(chain
        .all_events()
        .iter()
        .any(|e| e.name == "completed" && e.contract == session.contract));
}

#[test]
fn data_loss_pays_the_owner() {
    let mut rng = rng();
    let mut chain = chain();
    let terms = AgreementTerms {
        num_audits: 1,
        ..AgreementTerms::default()
    };
    let mut session = setup_session(&mut rng, &mut chain, "loss", &[3u8; 900], params(), None, terms);
    // provider silently drops a chunk; k >= d so it is always challenged
    session.provider_state.drop_chunk(0);
    session.provider_state.drop_chunk(1);
    session.provider_state.drop_chunk(2);

    let owner_before = chain.balance(session.owner);
    let passed = run_round(&mut rng, &mut chain, &session, true);
    assert!(!passed, "corrupted storage must fail the audit");
    let owner_after = chain.balance(session.owner);
    // owner got the penalty plus the deposit back (contract completed)
    assert_eq!(
        owner_after - owner_before,
        terms.penalty_per_fail + terms.owner_deposit
    );
}

#[test]
fn timeout_counts_as_failure() {
    let mut rng = rng();
    let mut chain = chain();
    let terms = AgreementTerms {
        num_audits: 1,
        ..AgreementTerms::default()
    };
    let session = setup_session(&mut rng, &mut chain, "timeout", &[5u8; 600], params(), None, terms);
    let passed = run_round(&mut rng, &mut chain, &session, false);
    assert!(!passed);
    assert!(chain.all_events().iter().any(|e| e.name == "timeout"));
}

#[test]
fn provider_can_reject_negotiation() {
    let mut rng = rng();
    let mut chain = chain();
    let terms = AgreementTerms::default();
    // manual setup up to ack, through the owner role handle
    let data = [1u8; 500];
    let p = params();
    let owner_handle = dsaudit_core::DataOwner::generate(&mut rng, p);
    let bundle = owner_handle.outsource(&mut rng, &data);
    let owner = dsaudit_chain::types::Address::from_label("rej/owner");
    let provider = dsaudit_chain::types::Address::from_label("rej/provider");
    chain.fund_account(owner, eth(10));
    chain.fund_account(provider, eth(10));
    let meta = bundle.meta();
    let agreement = dsaudit_contract::Agreement {
        owner,
        provider,
        num_audits: terms.num_audits,
        audit_interval_secs: terms.audit_interval_secs,
        prove_deadline_secs: terms.prove_deadline_secs,
        reward_per_audit: terms.reward_per_audit,
        penalty_per_fail: terms.penalty_per_fail,
        owner_deposit: terms.owner_deposit,
        provider_deposit: terms.provider_deposit,
    };
    let contract = dsaudit_contract::AuditContract::new(
        agreement,
        dsaudit_backend::PairingBackend::verifier_for(bundle.pk.clone(), meta)
            .expect("auditable meta"),
    );
    let addr = chain.deploy("rej", Box::new(contract));
    submit_ok(&mut chain, owner, addr, "negotiate", Vec::new(), 0);
    submit_ok(&mut chain, provider, addr, "reject", Vec::new(), 0);
    assert!(chain.all_events().iter().any(|e| e.name == "rejected"));
    // deposits after rejection revert
    chain.submit(Transaction {
        from: owner,
        to: addr,
        value: terms.owner_deposit,
        kind: TxKind::Call {
            method: "freeze".into(),
            data: Vec::new(),
        },
    });
    let block = chain.mine_block();
    assert_eq!(block.txs[0].1.status, TxStatus::Reverted);
}

#[test]
fn wrong_deposit_amount_rejected() {
    let mut rng = rng();
    let mut chain = chain();
    let terms = AgreementTerms::default();
    let data = [1u8; 500];
    let p = params();
    let owner_handle = dsaudit_core::DataOwner::generate(&mut rng, p);
    let file = owner_handle.encode(&mut rng, &data);
    let owner = dsaudit_chain::types::Address::from_label("dep/owner");
    let provider = dsaudit_chain::types::Address::from_label("dep/provider");
    chain.fund_account(owner, eth(10));
    chain.fund_account(provider, eth(10));
    let meta = dsaudit_core::FileMeta {
        name: file.name,
        num_chunks: file.num_chunks(),
        k: p.k,
    };
    let agreement = dsaudit_contract::Agreement {
        owner,
        provider,
        num_audits: terms.num_audits,
        audit_interval_secs: terms.audit_interval_secs,
        prove_deadline_secs: terms.prove_deadline_secs,
        reward_per_audit: terms.reward_per_audit,
        penalty_per_fail: terms.penalty_per_fail,
        owner_deposit: terms.owner_deposit,
        provider_deposit: terms.provider_deposit,
    };
    let contract = dsaudit_contract::AuditContract::new(
        agreement,
        dsaudit_backend::PairingBackend::verifier_for(owner_handle.public_key().clone(), meta)
            .expect("auditable meta"),
    );
    let addr = chain.deploy("dep", Box::new(contract));
    submit_ok(&mut chain, owner, addr, "negotiate", Vec::new(), 0);
    submit_ok(&mut chain, provider, addr, "acked", Vec::new(), 0);
    // wrong amount
    chain.submit(Transaction {
        from: owner,
        to: addr,
        value: terms.owner_deposit - 1,
        kind: TxKind::Call {
            method: "freeze".into(),
            data: Vec::new(),
        },
    });
    let block = chain.mine_block();
    assert_eq!(block.txs[0].1.status, TxStatus::Reverted);
    assert_eq!(chain.balance(owner), eth(10), "value returned on revert");
}

#[test]
fn forged_proof_from_wrong_file_fails() {
    let mut rng = rng();
    let mut chain = chain();
    let terms = AgreementTerms {
        num_audits: 1,
        ..AgreementTerms::default()
    };
    let mut session = setup_session(&mut rng, &mut chain, "forge", &[9u8; 900], params(), None, terms);
    // provider swaps in a different file of the same shape (e.g. serving
    // someone else's data), keeping the original tags
    let other = dsaudit_core::EncodedFile::encode_with_name(
        session.provider_state.file().name,
        &[10u8; 900],
        params(),
    );
    session
        .provider_state
        .replace_file(other)
        .expect("same shape");
    let passed = run_round(&mut rng, &mut chain, &session, true);
    assert!(!passed);
}

#[test]
fn challenge_events_carry_valid_beacons() {
    let mut rng = rng();
    let mut chain = chain();
    let terms = AgreementTerms {
        num_audits: 2,
        ..AgreementTerms::default()
    };
    let session = setup_session(&mut rng, &mut chain, "beacon", &[2u8; 600], params(), None, terms);
    chain.advance_time(terms.audit_interval_secs + 1);
    chain.mine_block();
    let ch = latest_challenge(&chain, session.contract).expect("challenge");
    // challenge expansion works and is deterministic
    let set = ch.expand(session.provider_state.file().num_chunks(), 3);
    assert_eq!(set.len(), 3);
}

#[test]
fn value_conservation_across_full_contract() {
    let mut rng = rng();
    let mut chain = chain();
    let terms = AgreementTerms {
        num_audits: 2,
        ..AgreementTerms::default()
    };
    let session = setup_session(&mut rng, &mut chain, "conserve", &[8u8; 700], params(), None, terms);
    let total_before = chain.balance(session.owner)
        + chain.balance(session.provider)
        + chain.balance(session.contract);
    run_round(&mut rng, &mut chain, &session, true);
    run_round(&mut rng, &mut chain, &session, false); // timeout round
    let total_after = chain.balance(session.owner)
        + chain.balance(session.provider)
        + chain.balance(session.contract);
    assert_eq!(total_before, total_after, "wei must be conserved");
    assert_eq!(chain.balance(session.contract), 0, "contract drained at completion");
}

#[test]
fn migration_rehomes_the_share_and_settles_across_providers() {
    let mut rng = rng();
    let mut chain = chain();
    let terms = AgreementTerms {
        num_audits: 3,
        ..AgreementTerms::default()
    };
    // k >= d so a corrupted chunk is challenged every round
    let params = AuditParams::new(4, 8).unwrap();
    let mut session =
        setup_session(&mut rng, &mut chain, "migrating", &[6u8; 900], params, None, terms);
    let pristine = session.provider_state.clone();

    // round 0: the original provider serves corrupted data and fails
    session.provider_state.corrupt_block(0, 0);
    let old_provider = session.provider;
    let old_balance_before_round = chain.balance(old_provider);
    assert!(!run_round(&mut rng, &mut chain, &session, true), "corruption must fail");

    // repair re-placed the share; the owner names the successor, which
    // posts a deposit covering the remaining two rounds' penalties
    let successor = dsaudit_chain::types::Address::from_label("migrating/successor");
    let takeover_deposit = 2 * terms.penalty_per_fail;
    chain.fund_account(successor, takeover_deposit + eth(1));
    submit_ok(
        &mut chain,
        session.owner,
        session.contract,
        "migrate",
        successor.0.to_vec(),
        0,
    );
    // only the named candidate may take over
    chain.submit(Transaction {
        from: old_provider,
        to: session.contract,
        value: takeover_deposit,
        kind: TxKind::Call { method: "takeover".into(), data: Vec::new() },
    });
    let block = chain.mine_block();
    assert_eq!(block.txs[0].1.status, TxStatus::Reverted, "imposter takeover must revert");
    submit_ok(
        &mut chain,
        successor,
        session.contract,
        "takeover",
        Vec::new(),
        takeover_deposit,
    );
    // the outgoing provider got its remaining pool back: its locked
    // deposit minus exactly one round's penalty
    assert_eq!(
        chain.balance(old_provider) - old_balance_before_round,
        terms.provider_deposit - terms.penalty_per_fail,
        "old provider is refunded its deposit minus one penalty"
    );

    // the successor holds the (repaired) share and serves the last rounds
    session.provider = successor;
    session.provider_state = pristine;
    let successor_before = chain.balance(successor);
    assert!(run_round(&mut rng, &mut chain, &session, true), "round 1 passes post-migration");
    assert!(run_round(&mut rng, &mut chain, &session, true), "round 2 passes post-migration");
    // contract completed: successor got deposit back plus two rewards
    assert_eq!(
        chain.balance(successor) - successor_before,
        takeover_deposit + 2 * terms.reward_per_audit
    );
    let events = chain.all_events();
    assert!(events.iter().any(|e| e.name == "migrationproposed"));
    assert!(events.iter().any(|e| e.name == "migrated" && e.data == successor.0.to_vec()));
    assert!(events.iter().any(|e| e.name == "completed"));
    assert_eq!(chain.balance(session.contract), 0, "contract drained at completion");
}

#[test]
fn migration_is_rejected_outside_audit_phase_and_mid_round() {
    let mut rng = rng();
    let mut chain = chain();
    let terms = AgreementTerms {
        num_audits: 2,
        ..AgreementTerms::default()
    };
    let session =
        setup_session(&mut rng, &mut chain, "nomigrate", &[2u8; 600], params(), None, terms);
    let successor = dsaudit_chain::types::Address::from_label("nomigrate/successor");
    // open a round: contract is in Prove phase -> migrate must revert
    chain.advance_time(terms.audit_interval_secs + 1);
    chain.mine_block();
    chain.submit(Transaction {
        from: session.owner,
        to: session.contract,
        value: 0,
        kind: TxKind::Call { method: "migrate".into(), data: successor.0.to_vec() },
    });
    let block = chain.mine_block();
    assert_eq!(block.txs[0].1.status, TxStatus::Reverted, "mid-round migration must revert");
    // malformed calldata also reverts (back in Audit after a timeout)
    chain.advance_time(terms.prove_deadline_secs + 1);
    chain.mine_block();
    chain.submit(Transaction {
        from: session.owner,
        to: session.contract,
        value: 0,
        kind: TxKind::Call { method: "migrate".into(), data: vec![1, 2, 3] },
    });
    let block = chain.mine_block();
    assert_eq!(block.txs[0].1.status, TxStatus::Reverted, "bad calldata must revert");
}
