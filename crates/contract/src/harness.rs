//! Driver glue between off-chain actors (data owner, storage provider)
//! and the on-chain contract: deployment, deposits, and the
//! challenge/prove/verify round-trip of one audit round.
//!
//! Two ways in, one contract out. [`setup_session`] plays the paper's
//! protocol through the role handles of `dsaudit-core` — a
//! [`DataOwner`] produces the outsourcing bundle, a [`StorageProvider`]
//! validates and holds it — and [`setup_backend_session`] lets any
//! [`AuditBackend`] process the data itself. Both end in the same
//! [`AuditContract`], built around the backend's [`Verifier`] and taken
//! through negotiate → ack → deposits by one helper. (The typed
//! off-chain session type is `dsaudit_core::session::AuditSession`; the
//! on-chain pendants here are [`ContractSession`] and
//! [`BackendSession`].)

use dsaudit_backend::{AuditBackend, BackendId, PairingBackend, ProverKit, Verifier};
use dsaudit_chain::chain::Blockchain;
use dsaudit_chain::types::{eth, Address, Transaction, TxKind, TxStatus, Wei};
use dsaudit_core::{Challenge, Codec, DataOwner, StorageProvider};

use crate::audit_contract::{Agreement, AuditContract};

/// A fully initialized audit session on chain: deployed contract, both
/// deposits locked, first challenge scheduled.
pub struct ContractSession {
    /// Deployed contract address.
    pub contract: Address,
    /// Data owner account.
    pub owner: Address,
    /// Storage provider account.
    pub provider: Address,
    /// Provider-side role handle for responding to challenges.
    pub provider_state: StorageProvider,
    /// Terms in force.
    pub agreement: Agreement,
}

impl ContractSession {
    /// The provider's wire response to a challenge: the canonical
    /// 288-byte proof in the pairing backend's frame, as posted in
    /// `prove` calldata.
    pub fn respond_wire<R: rand::RngCore + ?Sized>(
        &self,
        rng: &mut R,
        challenge: &Challenge,
    ) -> Vec<u8> {
        PairingBackend::frame(&self.provider_state.respond(rng, challenge)).encode()
    }
}

/// Deploys an [`AuditContract`] around `verifier` for the accounts
/// `{label}/owner` and `{label}/provider` (funded here) and takes it
/// through negotiate → ack → both deposits. Returns the contract
/// address and the agreement in force.
fn deploy(
    chain: &mut Blockchain,
    label: &str,
    verifier: Box<dyn Verifier>,
    terms: AgreementTerms,
) -> (Address, Agreement) {
    let owner = Address::from_label(&format!("{label}/owner"));
    let provider = Address::from_label(&format!("{label}/provider"));
    chain.fund_account(owner, terms.owner_deposit + eth(1));
    chain.fund_account(provider, terms.provider_deposit + eth(1));
    let agreement = terms.bind(owner, provider);
    let mut contract = AuditContract::new(agreement, verifier);
    if let Some(auditor) = terms.batch_auditor {
        contract = contract.with_batch_auditor(auditor);
    }
    let addr = chain.deploy(label, Box::new(contract));
    submit_ok(chain, owner, addr, "negotiate", Vec::new(), 0);
    submit_ok(chain, provider, addr, "acked", Vec::new(), 0);
    submit_ok(chain, owner, addr, "freeze", Vec::new(), terms.owner_deposit);
    submit_ok(chain, provider, addr, "freeze", Vec::new(), terms.provider_deposit);
    (addr, agreement)
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
) -> ContractSession {
    let owner_handle = owner_handle.unwrap_or_else(|| DataOwner::generate(rng, params));
    let bundle = owner_handle.outsource(rng, data);
    let verifier = PairingBackend::verifier_for(bundle.pk.clone(), bundle.meta())
        .expect("harness meta is auditable");
    // the provider validates the authenticators before acknowledging
    let provider_state =
        StorageProvider::ingest(rng, bundle).expect("honest bundle must validate");
    let (contract, agreement) = deploy(chain, label, verifier, terms);
    ContractSession {
        contract,
        owner: agreement.owner,
        provider: agreement.provider,
        provider_state,
        agreement,
    }
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
    /// When set, contracts defer round verdicts to this batch-verifier
    /// address (§VII-D amortized verification); `None` keeps
    /// per-contract verification at the `Verify` trigger.
    pub batch_auditor: Option<Address>,
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
            batch_auditor: None,
            backend: BackendId::Pairing,
        }
    }
}

/// A backend-driven audit session on chain: a deployed
/// [`AuditContract`] with both deposits locked, plus the provider-side
/// material ([`ProverKit`] and the stored bytes) needed to answer
/// challenges.
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
    let (contract, agreement) = deploy(chain, label, verifier, terms);
    BackendSession {
        contract,
        owner: agreement.owner,
        provider: agreement.provider,
        backend: backend.id(),
        kit: setup.kit,
        stored: data.to_vec(),
        terms,
    }
}

/// Submits a contract call and asserts success.
///
/// # Panics
/// Panics when the transaction reverts.
pub fn submit_ok(
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
    let block = chain.mine_block();
    let (_, receipt) = block.txs.last().expect("tx was submitted");
    assert_eq!(
        receipt.status,
        TxStatus::Success,
        "{method} reverted: {:?}",
        receipt.revert_reason
    );
}

/// The beacon output of `contract`'s latest "challenged" event: the
/// round's challenge in the form every backend's `prove` takes.
pub fn latest_beacon(chain: &Blockchain, contract: Address) -> Option<[u8; 48]> {
    chain
        .all_events()
        .into_iter()
        .rev()
        .find(|e| e.contract == contract && e.name == "challenged")
        .and_then(|e| e.data.as_slice().try_into().ok())
}

/// [`latest_beacon`] expanded into the pairing scheme's [`Challenge`].
pub fn latest_challenge(chain: &Blockchain, contract: Address) -> Option<Challenge> {
    latest_beacon(chain, contract).map(|beacon| Challenge::from_beacon(&beacon))
}

/// Whether `contract`'s latest settled round passed; `None` before its
/// first verdict.
pub fn latest_verdict(chain: &Blockchain, contract: Address) -> Option<bool> {
    chain
        .all_events()
        .into_iter()
        .rev()
        .find(|e| e.contract == contract && (e.name == "pass" || e.name == "fail"))
        .map(|e| e.name == "pass")
}

/// Runs one complete audit round for a single session on its own chain.
/// `honest` controls the provider: `true` posts a valid-format proof over
/// whatever data it holds, `false` simulates a timeout. Returns whether
/// the round passed.
pub fn run_round<R: rand::RngCore + ?Sized>(
    rng: &mut R,
    chain: &mut Blockchain,
    session: &ContractSession,
    honest: bool,
) -> bool {
    run_round_multi(rng, chain, &[(session, honest)])[0]
}

/// Runs one audit round for several sessions sharing one chain, in
/// lockstep: a single time advance fires every session's "Chal" trigger,
/// all providers respond in the same block window, and a single deadline
/// pass fires every "Verify". Returns per-session pass flags in input
/// order.
///
/// All sessions must share the same interval/deadline settings (they are
/// driven by one clock).
///
/// # Panics
/// Panics if a session is missing its challenge or verdict event —
/// a harness programming error.
pub fn run_round_multi<R: rand::RngCore + ?Sized>(
    rng: &mut R,
    chain: &mut Blockchain,
    sessions: &[(&ContractSession, bool)],
) -> Vec<bool> {
    assert!(!sessions.is_empty());
    let interval = sessions[0].0.agreement.audit_interval_secs;
    let deadline = sessions[0].0.agreement.prove_deadline_secs;
    // fire all Chal triggers
    chain.advance_time(interval + 1);
    chain.mine_block();
    // all honest providers respond within the same window
    for (session, honest) in sessions {
        if *honest {
            let challenge =
                latest_challenge(chain, session.contract).expect("challenge event");
            let proof = session.respond_wire(rng, &challenge);
            submit_ok(chain, session.provider, session.contract, "prove", proof, 0);
        }
    }
    // fire all Verify triggers
    chain.advance_time(deadline + 1);
    chain.mine_block();
    sessions
        .iter()
        .map(|(session, _)| latest_verdict(chain, session.contract).expect("verdict event"))
        .collect()
}
