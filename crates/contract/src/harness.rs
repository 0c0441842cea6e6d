//! Driver glue between off-chain actors (data owner, storage provider)
//! and the on-chain contract: deployment, deposits, and the
//! challenge/prove/verify round-trip of one audit round.
//!
//! One session type, one round driver. [`setup_session`] plays the
//! paper's protocol through the role handles of `dsaudit-core` — a
//! [`DataOwner`] produces the outsourcing bundle, a [`StorageProvider`]
//! validates it before acknowledging — and [`setup_backend_session`]
//! lets any [`AuditBackend`] process the data itself. Both return a
//! [`BackendSession`]: an [`AuditContract`] built around the backend's
//! [`Verifier`], deployed by [`deploy`] and taken through negotiate →
//! ack → deposits in one block, plus the provider's kit and stored
//! bytes. [`run_round`] and its lockstep form [`run_round_multi`] prove
//! through the session's backend, whichever it is. (The typed off-chain
//! session type is `dsaudit_core::session::AuditSession`.)

use dsaudit_backend::{backend_for, AuditBackend, BackendId, PairingBackend, ProverKit, Verifier};
use dsaudit_chain::chain::Blockchain;
use dsaudit_chain::types::{eth, Address, Event, Transaction, TxKind, TxStatus, Wei};
use dsaudit_core::{Codec, DataOwner, Outcome, StorageProvider};

use crate::audit_contract::{Agreement, AuditContract};

/// Deploys an [`AuditContract`] for `agreement` around `verifier` and
/// queues negotiate → ack → both deposits for the next block. With a
/// `batch_auditor` the contract takes its round verdicts from that
/// address (§VII-D batched mode) instead of verifying at the `Verify`
/// trigger. Returns the contract address; both parties must hold their
/// deposits when the block is mined.
pub fn deploy(
    chain: &mut Blockchain,
    label: &str,
    agreement: Agreement,
    verifier: Box<dyn Verifier>,
    batch_auditor: Option<Address>,
) -> Address {
    let contract = AuditContract::new(agreement, verifier, batch_auditor);
    let addr = chain.deploy(label, Box::new(contract));
    let (owner, provider) = (agreement.owner, agreement.provider);
    queue_call(chain, owner, addr, "negotiate", Vec::new(), 0);
    queue_call(chain, provider, addr, "acked", Vec::new(), 0);
    queue_call(chain, owner, addr, "freeze", Vec::new(), agreement.owner_deposit);
    queue_call(chain, provider, addr, "freeze", Vec::new(), agreement.provider_deposit);
    addr
}

/// Funds `{label}/owner` and `{label}/provider`, deploys their contract
/// around `verifier` and mines its set-up.
fn open_session(
    chain: &mut Blockchain,
    label: &str,
    verifier: Box<dyn Verifier>,
    kit: ProverKit,
    data: &[u8],
    terms: AgreementTerms,
) -> BackendSession {
    let owner = Address::from_label(&format!("{label}/owner"));
    let provider = Address::from_label(&format!("{label}/provider"));
    chain.fund_account(owner, terms.owner_deposit + eth(1));
    chain.fund_account(provider, terms.provider_deposit + eth(1));
    let contract = deploy(chain, label, terms.bind(owner, provider), verifier, None);
    mine_ok(chain, "session set-up");
    BackendSession {
        contract,
        owner,
        provider,
        backend: kit.backend(),
        kit,
        stored: data.to_vec(),
        terms,
    }
}

/// Sets up a complete audit session on the chain: keygen, encode, tag,
/// provider-side tag validation, deploy, negotiate, ack, deposit (both
/// sides). Always the paper's pairing scheme, whatever `terms.backend`
/// says — this is the role-API entry point.
///
/// # Panics
/// Panics if any setup transaction reverts or the honest bundle fails
/// validation (programming error in the harness, not a runtime
/// condition).
pub fn setup_session<R: rand::RngCore + ?Sized>(
    rng: &mut R,
    chain: &mut Blockchain,
    label: &str,
    data: &[u8],
    params: dsaudit_core::params::AuditParams,
    owner_handle: Option<DataOwner>,
    terms: AgreementTerms,
) -> BackendSession {
    let owner_handle = owner_handle.unwrap_or_else(|| DataOwner::generate(rng, params));
    let bundle = owner_handle.outsource(rng, data);
    let verifier = PairingBackend::verifier_for(bundle.pk.clone(), bundle.meta())
        .expect("harness meta is auditable");
    // the provider validates the authenticators before acknowledging
    let provider = StorageProvider::ingest(rng, bundle).expect("honest bundle must validate");
    open_session(chain, label, verifier, PairingBackend::kit_for(&provider), data, terms)
}

/// Economic terms for [`setup_session`] / [`setup_backend_session`],
/// without the addresses.
#[derive(Clone, Copy, Debug)]
pub struct AgreementTerms {
    /// Number of audit rounds.
    pub num_audits: u64,
    /// Seconds between rounds.
    pub audit_interval_secs: u64,
    /// Response window in seconds.
    pub prove_deadline_secs: u64,
    /// Per-round reward to the provider.
    pub reward_per_audit: Wei,
    /// Per-failure compensation to the owner.
    pub penalty_per_fail: Wei,
    /// Owner's locked deposit.
    pub owner_deposit: Wei,
    /// Provider's locked deposit.
    pub provider_deposit: Wei,
    /// The proof-of-storage scheme this agreement audits with, recorded
    /// for reporting. The backend instance handed to
    /// [`setup_backend_session`] is what actually deploys; contracts
    /// with different backends coexist on one chain.
    pub backend: BackendId,
}

impl AgreementTerms {
    /// The on-chain [`Agreement`] these terms become between `owner`
    /// and `provider`.
    pub fn bind(&self, owner: Address, provider: Address) -> Agreement {
        Agreement {
            owner,
            provider,
            num_audits: self.num_audits,
            audit_interval_secs: self.audit_interval_secs,
            prove_deadline_secs: self.prove_deadline_secs,
            reward_per_audit: self.reward_per_audit,
            penalty_per_fail: self.penalty_per_fail,
            owner_deposit: self.owner_deposit,
            provider_deposit: self.provider_deposit,
        }
    }
}

impl Default for AgreementTerms {
    fn default() -> Self {
        use dsaudit_chain::types::gwei;
        Self {
            num_audits: 3,
            audit_interval_secs: 86_400,
            prove_deadline_secs: 3_600,
            reward_per_audit: gwei(1_000_000), // 0.001 ETH
            penalty_per_fail: gwei(5_000_000), // 0.005 ETH
            owner_deposit: gwei(1_000_000) * 100,
            provider_deposit: gwei(5_000_000) * 100,
            backend: BackendId::Pairing,
        }
    }
}

/// An audit session on chain: a deployed [`AuditContract`] with both
/// deposits locked, plus the provider-side material ([`ProverKit`] and
/// the stored bytes) needed to answer challenges.
pub struct BackendSession {
    /// Deployed contract address.
    pub contract: Address,
    /// Data owner account.
    pub owner: Address,
    /// Storage provider account.
    pub provider: Address,
    /// The scheme this session audits with.
    pub backend: BackendId,
    /// Provider-side proving material.
    pub kit: ProverKit,
    /// The provider's stored copy of the file (corruptible by tests
    /// and fault injection).
    pub stored: Vec<u8>,
    /// Terms in force.
    pub terms: AgreementTerms,
}

/// Sets up a backend-driven audit session: backend setup (tagging /
/// tree build / SNARK keygen as the scheme demands), deploy, negotiate,
/// ack, both deposits.
///
/// `_nominal_ms` is inert: every contract meters verification at the
/// declared cost of
/// [`GasSchedule::verify_gas`](dsaudit_chain::gas::GasSchedule::verify_gas),
/// whatever is passed here. The argument stays only because the
/// `benchmark/` package still passes one.
///
/// # Panics
/// Panics if backend setup fails or a setup transaction reverts —
/// harness programming errors, not runtime conditions.
pub fn setup_backend_session<R: rand::RngCore>(
    rng: &mut R,
    chain: &mut Blockchain,
    label: &str,
    data: &[u8],
    backend: &dyn AuditBackend,
    terms: AgreementTerms,
    _nominal_ms: Option<f64>,
) -> BackendSession {
    let setup = backend.setup(rng, data).expect("backend setup");
    let verifier = backend
        .verifier(&setup.commitment)
        .expect("a backend parses its own commitment");
    open_session(chain, label, verifier, setup.kit, data, terms)
}

/// Queues a contract call for the next block.
pub fn queue_call(
    chain: &mut Blockchain,
    from: Address,
    to: Address,
    method: &str,
    data: Vec<u8>,
    value: Wei,
) {
    chain.submit(Transaction {
        from,
        to,
        value,
        kind: TxKind::Call {
            method: method.into(),
            data,
        },
    });
}

/// Mines a block and asserts that every transaction in it, triggers
/// included, succeeded: a revert in a driver's own traffic is a bug in
/// the driver, not an outcome.
///
/// # Panics
/// On the first reverted receipt, naming `context`.
pub fn mine_ok(chain: &mut Blockchain, context: &str) {
    for (tx, receipt) in &chain.mine_block().txs {
        assert_eq!(
            receipt.status,
            TxStatus::Success,
            "{context}: tx {:?} reverted: {:?}",
            tx.kind,
            receipt.revert_reason
        );
    }
}

/// [`queue_call`], then [`mine_ok`] on a block of its own.
pub fn submit_ok(
    chain: &mut Blockchain,
    from: Address,
    to: Address,
    method: &str,
    data: Vec<u8>,
    value: Wei,
) {
    queue_call(chain, from, to, method, data, value);
    mine_ok(chain, method);
}

/// The beacon of `contract`'s latest "challenged" event in blocks
/// `from_block..`: the round's challenge in the form every backend's
/// `prove` takes.
pub fn beacon_since(chain: &Blockchain, from_block: usize, contract: Address) -> Option<[u8; 48]> {
    last_event(chain, from_block, contract, &["challenged"])
        .and_then(|e| e.data.as_slice().try_into().ok())
}

/// The outcome of `contract`'s latest round settled in blocks
/// `from_block..`, decoded from its `pass`/`fail` event's last byte;
/// `None` when none settled there.
pub fn outcome_since(chain: &Blockchain, from_block: usize, contract: Address) -> Option<Outcome> {
    last_event(chain, from_block, contract, &["pass", "fail"])
        .and_then(|e| Outcome::from_byte(*e.data.last()?))
}

/// The latest event of `contract` named in `names`, in blocks `from_block..`.
fn last_event<'c>(
    chain: &'c Blockchain,
    from_block: usize,
    contract: Address,
    names: &[&str],
) -> Option<&'c Event> {
    let events = chain.events_since(from_block);
    events.into_iter().rev().find(|e| e.contract == contract && names.contains(&e.name.as_str()))
}

/// Runs one complete audit round for a single session on its own chain.
/// `honest` controls the provider: `true` proves over whatever bytes it
/// stores, `false` posts nothing, so the round expires. Returns whether
/// the round passed.
///
/// # Panics
/// As [`run_round_multi`].
pub fn run_round<R: rand::RngCore + ?Sized>(
    rng: &mut R,
    chain: &mut Blockchain,
    session: &BackendSession,
    honest: bool,
) -> bool {
    run_round_multi(rng, chain, &[(session, honest)])[0].accepted()
}

/// The first half of [`run_round_multi`]: one time advance fires every
/// `Chal` trigger, then each honest provider's proof, made by its
/// session's backend over its stored bytes, is posted in one block (a
/// provider whose bytes lost their shape posts nothing and times out).
/// Returns the index of the round's first block.
///
/// # Panics
/// As [`run_round_multi`].
pub fn prove_round<R: rand::RngCore + ?Sized>(
    mut rng: &mut R,
    chain: &mut Blockchain,
    sessions: &[(&BackendSession, bool)],
) -> usize {
    let start = chain.block_count();
    let interval = sessions.first().map_or(0, |(s, _)| s.terms.audit_interval_secs);
    chain.advance_time(interval + 1);
    mine_ok(chain, "challenge triggers");
    for (session, honest) in sessions {
        let beacon = beacon_since(chain, start, session.contract).expect("challenge event");
        if !*honest {
            continue;
        }
        let backend = backend_for(session.backend);
        if let Ok(proof) = backend.prove(&mut rng, &session.kit, &session.stored, &beacon) {
            queue_call(chain, session.provider, session.contract, "prove", proof.encode(), 0);
        }
    }
    mine_ok(chain, "proof submissions");
    start
}

/// Runs one audit round for several sessions sharing one chain, in
/// lockstep: [`prove_round`], then one deadline pass fires every
/// `Verify` trigger. Returns per-session outcomes in input order, read
/// from the blocks the round mined. The sessions share one clock, so
/// they must share interval and deadline, and verify on-contract (a
/// contract with a batch auditor parks its round for a verdict).
///
/// # Panics
/// Panics if a session is missing its challenge or settle event, or a
/// transaction reverts — a harness programming error.
pub fn run_round_multi<R: rand::RngCore + ?Sized>(
    rng: &mut R,
    chain: &mut Blockchain,
    sessions: &[(&BackendSession, bool)],
) -> Vec<Outcome> {
    let start = prove_round(rng, chain, sessions);
    let deadline = sessions.first().map_or(0, |(s, _)| s.terms.prove_deadline_secs);
    chain.advance_time(deadline + 1);
    mine_ok(chain, "verify triggers");
    sessions
        .iter()
        .map(|(session, _)| outcome_since(chain, start, session.contract).expect("settle event"))
        .collect()
}
