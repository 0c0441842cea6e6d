//! The storage-auditing smart contract of Fig. 2, as a state machine on
//! the chain simulator — the **one** contract of this crate, whatever
//! proof-of-storage scheme an agreement audits with.
//!
//! Lifecycle (states match the figure):
//!
//! ```text
//! Pending --negotiate(D)--> Ack --acked(S)--> Freeze
//!   Freeze --deposit(D) + deposit(S)--> Audit       (broadcast "inited")
//!   Audit  --trigger "Chal"--> Prove                (broadcast "challenged")
//!   Prove  --prove(S)--> Prove                      (broadcast "proofposted")
//!   Prove  --trigger "Verify"--> Audit | Completed  ("pass"/"fail" + payment)
//! ```
//!
//! On `pass` the provider earns `reward_per_audit` from the owner's
//! locked deposit; on `fail` (bad proof **or** timeout) the owner is
//! compensated with `penalty_per_fail` from the provider's deposit.
//! When `cnt` reaches `num` the remaining deposits are released.
//!
//! The scheme is a parameter of that flow, not a second contract: the
//! agreement's `AuditBackend` decodes the erased commitment **once**,
//! before deployment, into the [`Verifier`] the contract is built from
//! and keeps for its lifetime (for the pairing scheme that is the
//! public key, the file metadata and a warm `Auditor`). A commitment
//! that does not decode therefore never becomes a contract, and
//! contracts on different backends coexist on one chain. `prove`
//! calldata is the framed [`BackendProof`] (`backend id || len ||
//! payload`).
//!
//! Verdict contract, enforced here: wire problems (garbage calldata, a
//! proof framed for another backend) revert the `prove` transaction
//! with [`VmError::BadCalldata`] and never reach verdict logic; a
//! well-framed proof settles the round — as a pass when its backend
//! accepts it, as a failure when it rejects it *or cannot even decode
//! its payload*. With the commitment parsed up front a verification
//! error can only be the proof's fault, so no posted proof can leave a
//! round unsettled and deposits locked.
//!
//! Metering: a round pays the proof's storage at `prove` and one
//! [`GasSchedule::verify_gas`] for its check, on-contract or by batch
//! `verdict`. No clock is read: gas depends on the transactions only.

use dsaudit_backend::{BackendId, BackendProof, Verifier};
use dsaudit_chain::gas::GasSchedule;
use dsaudit_chain::runtime::{CallEnv, ContractBehavior, VmError};
use dsaudit_chain::types::{Address, Wei};
use dsaudit_core::Codec;

/// Contract phase (the `st` variable of Fig. 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Deployed, waiting for the owner's `negotiate`.
    Pending,
    /// Waiting for the provider's acknowledgment.
    Ack,
    /// Waiting for both deposits.
    Freeze,
    /// Between rounds; next `Chal` trigger is scheduled.
    Audit,
    /// Challenge issued; waiting for the proof and the `Verify` trigger.
    Prove,
    /// Batched mode only: proof posted and deadline reached, waiting for
    /// the round's shared batch verdict from the designated auditor.
    AwaitVerdict,
    /// All rounds done; deposits released.
    Completed,
    /// Terminated during initialization (provider rejected).
    Aborted,
}

/// Immutable contract terms (the `agrmts` of Fig. 2).
#[derive(Clone, Copy, Debug)]
pub struct Agreement {
    /// The data owner `D`.
    pub owner: Address,
    /// The storage provider `S`.
    pub provider: Address,
    /// Number of audit rounds (`num`).
    pub num_audits: u64,
    /// Seconds between rounds (paper: order of a day).
    pub audit_interval_secs: u64,
    /// Seconds the provider has to post a proof after a challenge.
    pub prove_deadline_secs: u64,
    /// Micro-payment to `S` per passed round.
    pub reward_per_audit: Wei,
    /// Compensation to `D` per failed round.
    pub penalty_per_fail: Wei,
    /// Deposit `$D` (must cover all rewards).
    pub owner_deposit: Wei,
    /// Deposit `$S` (must cover all penalties).
    pub provider_deposit: Wei,
}

impl Agreement {
    /// Validates economic consistency of the terms.
    ///
    /// # Errors
    /// Rejects terms whose deposits cannot cover the promised flows.
    pub fn validate(&self) -> Result<(), VmError> {
        if self.owner_deposit < self.reward_per_audit * self.num_audits as Wei {
            return Err(VmError::BadValue(
                "owner deposit cannot cover all rewards".into(),
            ));
        }
        if self.provider_deposit < self.penalty_per_fail * self.num_audits as Wei {
            return Err(VmError::BadValue(
                "provider deposit cannot cover all penalties".into(),
            ));
        }
        if self.num_audits == 0 {
            return Err(VmError::BadValue("need at least one audit".into()));
        }
        Ok(())
    }
}

/// Outcome of one audit round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundOutcome {
    /// Round counter value.
    pub round: u64,
    /// Whether the proof verified.
    pub passed: bool,
    /// Whether the provider missed the deadline entirely.
    pub timed_out: bool,
    /// Simulation time of the verdict.
    pub verdict_at: u64,
}

/// The deployed auditing contract.
pub struct AuditContract {
    agreement: Agreement,
    /// The agreement's commitment, already decoded; whatever state
    /// makes repeated rounds cheap (the pairing scheme's
    /// chi/prepared-G2 caches) is warm across this contract's rounds
    /// and dies with it.
    verifier: Box<dyn Verifier>,
    phase: Phase,
    cnt: u64,
    owner_deposited: bool,
    provider_deposited: bool,
    owner_pool: Wei,
    provider_pool: Wei,
    /// The open round's beacon output (the challenge every backend
    /// expands its own way).
    challenge: Option<[u8; 48]>,
    pending_proof: Option<BackendProof>,
    /// Batched-verification mode (§VII-D): when set, the `Verify` trigger
    /// defers the check to this address, which verifies the whole
    /// round's proofs in one batch and posts per-contract verdicts.
    /// `None` keeps per-contract verification.
    batch_auditor: Option<Address>,
    /// Provider migration in flight: the owner named this address as the
    /// share's next holder; it becomes the provider once it posts the
    /// takeover deposit.
    pending_migration: Option<Address>,
    /// Bytes of proof calldata persisted on chain so far.
    onchain_proof_bytes: usize,
    /// Gas the rounds themselves have metered (proof storage +
    /// verification), for per-backend head-to-head reporting.
    metered_gas: u64,
    /// Completed round log (public audit trail).
    pub history: Vec<RoundOutcome>,
}

/// Obs counter names for one backend — gas, proof bytes, rounds passed,
/// rounds failed — as static strings so the metered path never formats.
fn obs_names(id: BackendId) -> [&'static str; 4] {
    match id {
        BackendId::Pairing => [
            "contract.gas.pairing",
            "contract.proof_bytes.pairing",
            "contract.rounds_passed.pairing",
            "contract.rounds_failed.pairing",
        ],
        BackendId::Merkle => [
            "contract.gas.merkle",
            "contract.proof_bytes.merkle",
            "contract.rounds_passed.merkle",
            "contract.rounds_failed.merkle",
        ],
        BackendId::Groth16Merkle => [
            "contract.gas.groth16",
            "contract.proof_bytes.groth16",
            "contract.rounds_passed.groth16",
            "contract.rounds_failed.groth16",
        ],
    }
}

impl AuditContract {
    /// Creates the contract in `Pending` phase around the decoded
    /// commitment — the paper's `Initialize` fixes params and metadata
    /// at deployment. Taking a [`Verifier`] rather than bytes is what
    /// makes "stored commitment does not decode" unrepresentable here:
    /// `AuditBackend::verifier` (or `PairingBackend::verifier_for`)
    /// already refused it.
    pub fn new(agreement: Agreement, verifier: Box<dyn Verifier>) -> Self {
        Self {
            agreement,
            verifier,
            phase: Phase::Pending,
            cnt: 0,
            owner_deposited: false,
            provider_deposited: false,
            owner_pool: 0,
            provider_pool: 0,
            challenge: None,
            pending_proof: None,
            batch_auditor: None,
            pending_migration: None,
            onchain_proof_bytes: 0,
            metered_gas: 0,
            history: Vec::new(),
        }
    }

    /// Meters round gas: onto the call, the contract's own running
    /// total, and the obs counters.
    fn charge(&mut self, env: &mut CallEnv, gas: u64) {
        self.metered_gas += gas;
        dsaudit_obs::counter_add("contract.gas", gas);
        dsaudit_obs::counter_add(obs_names(self.verifier.id())[0], gas);
        env.charge_gas(gas);
    }

    /// Runs the on-contract check of a posted proof and meters it at the
    /// declared verification cost. The commitment was parsed at
    /// deployment, so an error here is the proof's own (a payload that
    /// does not decode); it settles as a failed round like any other
    /// proof that did not convince the contract.
    fn check_proof(&mut self, env: &mut CallEnv, proof: &BackendProof) -> bool {
        let beacon = self.challenge.expect("an open round has a challenge");
        let ok = self
            .verifier
            .verify(&beacon, proof)
            .is_ok_and(|verdict| verdict.accepted());
        self.charge(env, GasSchedule::default().verify_gas());
        ok
    }

    /// Switches the contract into batched-verification mode: the round
    /// verdict is accepted from `auditor` (the §VII-D batch verifier)
    /// instead of being computed per contract at the `Verify` trigger.
    #[must_use]
    pub fn with_batch_auditor(mut self, auditor: Address) -> Self {
        self.batch_auditor = Some(auditor);
        self
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The takeover deposit a migration candidate must attach: the
    /// remaining rounds' worth of penalties, mirroring the original
    /// provider-deposit sizing rule.
    pub fn takeover_deposit(&self) -> Wei {
        self.agreement.penalty_per_fail * (self.agreement.num_audits - self.cnt) as Wei
    }

    fn finalize(&mut self, env: &mut CallEnv) {
        // release remaining pools
        if self.owner_pool > 0 {
            env.pay(self.agreement.owner, self.owner_pool);
            self.owner_pool = 0;
        }
        if self.provider_pool > 0 {
            env.pay(self.agreement.provider, self.provider_pool);
            self.provider_pool = 0;
        }
        self.phase = Phase::Completed;
        env.emit("completed", Vec::new());
    }

    fn settle_round(&mut self, env: &mut CallEnv, passed: bool, timed_out: bool) {
        let _span = dsaudit_obs::span("contract.settle");
        dsaudit_obs::counter_inc(obs_names(self.verifier.id())[if passed { 2 } else { 3 }]);
        if passed {
            let reward = self.agreement.reward_per_audit.min(self.owner_pool);
            self.owner_pool -= reward;
            env.pay(self.agreement.provider, reward);
            env.emit("pass", self.cnt.to_le_bytes().to_vec());
        } else {
            let penalty = self.agreement.penalty_per_fail.min(self.provider_pool);
            self.provider_pool -= penalty;
            env.pay(self.agreement.owner, penalty);
            env.emit("fail", self.cnt.to_le_bytes().to_vec());
        }
        self.history.push(RoundOutcome {
            round: self.cnt,
            passed,
            timed_out,
            verdict_at: env.now,
        });
        // cumulative metering snapshot: off-chain harnesses (the
        // simulator's head-to-head lanes) read per-contract gas and
        // proof-byte totals from the event log instead of needing
        // access to contract state
        let mut metered = self.metered_gas.to_le_bytes().to_vec();
        metered.extend_from_slice(&(self.onchain_proof_bytes as u64).to_le_bytes());
        env.emit("metered", metered);
        self.cnt += 1;
        self.challenge = None;
        self.pending_proof = None;
        if self.cnt >= self.agreement.num_audits {
            self.finalize(env);
        } else {
            self.phase = Phase::Audit;
            env.schedule(env.now + self.agreement.audit_interval_secs, "Chal");
        }
    }
}

impl ContractBehavior for AuditContract {
    fn execute(&mut self, env: &mut CallEnv, method: &str, data: &[u8]) -> Result<(), VmError> {
        match method {
            // D publishes agrmts/params/metadata; st := ACK
            "negotiate" => {
                if self.phase != Phase::Pending {
                    return Err(VmError::BadState("already negotiated".into()));
                }
                if env.caller != self.agreement.owner {
                    return Err(VmError::Unauthorized);
                }
                self.agreement.validate()?;
                // one-time on-chain storage of the length-prefixed
                // commitment (Fig. 4 cost); set-up, not round, gas
                env.charge_gas(
                    GasSchedule::default()
                        .pk_registration_gas(4 + self.verifier.commitment_len()),
                );
                self.phase = Phase::Ack;
                env.emit("negotiated", Vec::new());
                Ok(())
            }
            // S acknowledges params/metadata; st := FREEZE
            "acked" => {
                if self.phase != Phase::Ack {
                    return Err(VmError::BadState("not awaiting ack".into()));
                }
                if env.caller != self.agreement.provider {
                    return Err(VmError::Unauthorized);
                }
                self.phase = Phase::Freeze;
                env.emit("acked", Vec::new());
                Ok(())
            }
            // S may reject instead (dispute: D already paid storage fees)
            "reject" => {
                if self.phase != Phase::Ack {
                    return Err(VmError::BadState("not awaiting ack".into()));
                }
                if env.caller != self.agreement.provider {
                    return Err(VmError::Unauthorized);
                }
                self.phase = Phase::Aborted;
                env.emit("rejected", Vec::new());
                Ok(())
            }
            // deposits from both parties; when complete, auditing starts
            "freeze" => {
                if self.phase != Phase::Freeze {
                    return Err(VmError::BadState("not in freeze phase".into()));
                }
                if env.caller == self.agreement.owner {
                    if env.value != self.agreement.owner_deposit {
                        return Err(VmError::BadValue("wrong owner deposit".into()));
                    }
                    if self.owner_deposited {
                        return Err(VmError::BadState("owner already deposited".into()));
                    }
                    self.owner_deposited = true;
                    self.owner_pool = env.value;
                } else if env.caller == self.agreement.provider {
                    if env.value != self.agreement.provider_deposit {
                        return Err(VmError::BadValue("wrong provider deposit".into()));
                    }
                    if self.provider_deposited {
                        return Err(VmError::BadState("provider already deposited".into()));
                    }
                    self.provider_deposited = true;
                    self.provider_pool = env.value;
                } else {
                    return Err(VmError::Unauthorized);
                }
                if self.owner_deposited && self.provider_deposited {
                    self.phase = Phase::Audit;
                    env.emit("inited", vec![self.verifier.id().as_u8()]);
                    env.schedule(env.now + self.agreement.audit_interval_secs, "Chal");
                }
                Ok(())
            }
            // S posts the framed proof during the Prove window
            "prove" => {
                if self.phase != Phase::Prove {
                    return Err(VmError::BadState("no open challenge".into()));
                }
                if env.caller != self.agreement.provider {
                    return Err(VmError::Unauthorized);
                }
                // frame failures (garbage, unknown backend id, forged
                // length, another backend's proof) revert the
                // transaction — a wire problem is never a verdict
                let proof = BackendProof::decode(data)
                    .map_err(|e| VmError::BadCalldata(e.to_string()))?;
                if proof.backend != self.verifier.id() {
                    return Err(VmError::BadCalldata(format!(
                        "proof is for backend `{}`, contract speaks `{}`",
                        proof.backend,
                        self.verifier.id()
                    )));
                }
                self.onchain_proof_bytes += data.len();
                dsaudit_obs::counter_add("contract.proof_bytes", data.len() as u64);
                dsaudit_obs::counter_add(obs_names(self.verifier.id())[1], data.len() as u64);
                // proof persisted on chain beside its 48-byte challenge:
                // storage gas now, verification gas at the Verify trigger
                self.charge(env, GasSchedule::default().storage_gas(data.len() + 48));
                self.pending_proof = Some(proof);
                env.emit("proofposted", self.cnt.to_le_bytes().to_vec());
                Ok(())
            }
            // the designated batch auditor settles a deferred round:
            // calldata is exactly one flag byte (1 pass, 0 fail). The
            // check it stands for is charged like the contract's own,
            // at the declared verification cost; the auditor reports a
            // verdict, never a price
            "verdict" => {
                if self.phase != Phase::AwaitVerdict {
                    return Err(VmError::BadState("no verdict pending".into()));
                }
                if Some(env.caller) != self.batch_auditor {
                    return Err(VmError::Unauthorized);
                }
                let passed = match data {
                    [0] => false,
                    [1] => true,
                    _ => {
                        return Err(VmError::BadCalldata(
                            "verdict is one flag byte, 0 or 1".into(),
                        ))
                    }
                };
                self.charge(env, GasSchedule::default().verify_gas());
                self.settle_round(env, passed, false);
                Ok(())
            }
            // --- provider migration (multi-provider settlement) -------
            //
            // When repair re-places a share on a different provider (DHT
            // churn, a failed audit), the contract follows the share
            // instead of being torn down: the owner names the new holder,
            // the new holder posts a deposit covering the remaining
            // penalties, the old holder is refunded its remaining pool,
            // and the round schedule continues uninterrupted — one
            // contract's history then spans multiple providers.
            //
            // D names the share's next holder; calldata = 20-byte address
            "migrate" => {
                if self.phase != Phase::Audit {
                    return Err(VmError::BadState(
                        "can only migrate between rounds".into(),
                    ));
                }
                if env.caller != self.agreement.owner {
                    return Err(VmError::Unauthorized);
                }
                let addr: [u8; 20] = data.try_into().map_err(|_| {
                    VmError::BadCalldata("migrate calldata is a 20-byte address".into())
                })?;
                let candidate = Address(addr);
                if candidate == self.agreement.provider {
                    return Err(VmError::BadValue(
                        "candidate already holds the slot".into(),
                    ));
                }
                self.pending_migration = Some(candidate);
                env.emit("migrationproposed", addr.to_vec());
                Ok(())
            }
            // the named candidate takes the slot by posting its deposit
            "takeover" => {
                if self.phase != Phase::Audit {
                    return Err(VmError::BadState(
                        "can only take over between rounds".into(),
                    ));
                }
                if Some(env.caller) != self.pending_migration {
                    return Err(VmError::Unauthorized);
                }
                let required = self.takeover_deposit();
                if env.value != required {
                    return Err(VmError::BadValue(
                        "takeover deposit must cover the remaining penalties".into(),
                    ));
                }
                // refund the outgoing provider's remaining pool
                if self.provider_pool > 0 {
                    env.pay(self.agreement.provider, self.provider_pool);
                }
                self.provider_pool = env.value;
                self.agreement.provider = env.caller;
                self.pending_migration = None;
                env.emit("migrated", env.caller.0.to_vec());
                Ok(())
            }
            other => Err(VmError::UnknownMethod(other.into())),
        }
    }

    fn on_trigger(&mut self, env: &mut CallEnv, tag: &str) -> Result<(), VmError> {
        match tag {
            "Chal" => {
                if self.phase != Phase::Audit || self.cnt >= self.agreement.num_audits {
                    return Err(VmError::BadState("not ready to challenge".into()));
                }
                self.challenge = Some(env.beacon);
                self.phase = Phase::Prove;
                env.emit("challenged", env.beacon.to_vec());
                env.schedule(env.now + self.agreement.prove_deadline_secs, "Verify");
                Ok(())
            }
            "Verify" => {
                if self.phase != Phase::Prove {
                    return Err(VmError::BadState("no round to verify".into()));
                }
                if self.batch_auditor.is_some() && self.pending_proof.is_some() {
                    // batched mode: keep the proof, hand the round to the
                    // shared batch verifier and wait for its verdict. The
                    // wait is bounded: if the auditor never answers, the
                    // VerdictTimeout trigger below falls back to
                    // on-contract verification, so deposits can never be
                    // frozen by a dead auditor.
                    self.phase = Phase::AwaitVerdict;
                    env.emit("needsverdict", self.cnt.to_le_bytes().to_vec());
                    env.schedule(
                        env.now + self.agreement.prove_deadline_secs,
                        "VerdictTimeout",
                    );
                    return Ok(());
                }
                match self.pending_proof.take() {
                    Some(proof) => {
                        let ok = self.check_proof(env, &proof);
                        self.settle_round(env, ok, false);
                    }
                    None => {
                        // timeout: provider never responded
                        env.emit("timeout", self.cnt.to_le_bytes().to_vec());
                        self.settle_round(env, false, true);
                    }
                }
                Ok(())
            }
            // batched mode's escape hatch: the auditor missed its window,
            // so the contract verifies the kept proof itself (same check
            // as the unbatched path). A stale trigger arriving after the
            // verdict already settled the round is a silent no-op.
            "VerdictTimeout" => {
                if self.phase != Phase::AwaitVerdict {
                    return Ok(());
                }
                let proof = self
                    .pending_proof
                    .take()
                    .expect("AwaitVerdict implies a posted proof");
                env.emit("verdicttimeout", self.cnt.to_le_bytes().to_vec());
                let ok = self.check_proof(env, &proof);
                self.settle_round(env, ok, false);
                Ok(())
            }
            other => Err(VmError::UnknownMethod(other.into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{
        latest_beacon, setup_backend_session, submit_ok, AgreementTerms, BackendSession,
    };
    use dsaudit_backend::{
        backend_for, AuditBackend, Groth16MerkleBackend, MerkleBackend, PairingBackend,
    };
    use dsaudit_chain::beacon::TrustedBeacon;
    use dsaudit_chain::chain::Blockchain;
    use dsaudit_chain::types::{eth, gwei, Transaction, TxKind, TxStatus};
    use dsaudit_core::AuditParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_backend(id: BackendId) -> Box<dyn AuditBackend> {
        match id {
            BackendId::Pairing => Box::new(PairingBackend::new(
                AuditParams::new(4, 3).expect("valid"),
            )),
            BackendId::Merkle => Box::new(MerkleBackend { leaf_size: 32, k: 3 }),
            BackendId::Groth16Merkle => Box::new(Groth16MerkleBackend { batch: 2 }),
        }
    }

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

    fn call_tx(from: Address, to: Address, method: &str, data: Vec<u8>, value: Wei) -> Transaction {
        Transaction {
            from,
            to,
            value,
            kind: TxKind::Call {
                method: method.into(),
                data,
            },
        }
    }

    /// Deploys one contract per backend id on the SAME chain, each
    /// through negotiate → ack → both deposits — the mixed-backend-chain
    /// scenario.
    fn deploy_fleet(chain: &mut Blockchain, data: &[u8], num_audits: u64) -> Vec<BackendSession> {
        let mut rng = StdRng::seed_from_u64(0xbac0);
        BackendId::ALL
            .into_iter()
            .map(|id| {
                setup_backend_session(
                    &mut rng,
                    chain,
                    id.name(),
                    data,
                    small_backend(id).as_ref(),
                    terms(num_audits),
                    None,
                )
            })
            .collect()
    }

    fn event_count(chain: &Blockchain, contract: Address, name: &str) -> usize {
        chain
            .all_events()
            .iter()
            .filter(|e| e.contract == contract && e.name == name)
            .count()
    }

    fn verdict_counts(chain: &Blockchain, contract: Address) -> (usize, usize) {
        (
            event_count(chain, contract, "pass"),
            event_count(chain, contract, "fail"),
        )
    }

    #[test]
    fn mixed_backends_share_one_chain_and_all_pass() {
        let mut chain = Blockchain::new(Box::new(TrustedBeacon::new(b"backend-ct")));
        let data: Vec<u8> = (0..1024).map(|i| (i % 247) as u8).collect();
        let fleet = deploy_fleet(&mut chain, &data, 2);
        let mut rng = StdRng::seed_from_u64(0x50a1);
        for _ in 0..2 {
            chain.advance_time(3601);
            chain.mine_block();
            for d in &fleet {
                let beacon = latest_beacon(&chain, d.contract).expect("challenged");
                let backend = small_backend(d.backend);
                let proof = backend
                    .prove(&mut rng, &d.kit, &data, &beacon)
                    .expect("prove");
                chain.submit(call_tx(d.provider, d.contract, "prove", proof.encode(), 0));
                let b = chain.mine_block();
                assert_eq!(
                    b.txs[0].1.status,
                    TxStatus::Success,
                    "{}: {:?}",
                    d.backend,
                    b.txs[0].1.revert_reason
                );
            }
            chain.advance_time(601);
            chain.mine_block();
        }
        for d in &fleet {
            assert_eq!(
                verdict_counts(&chain, d.contract),
                (2, 0),
                "backend `{}` must pass both rounds",
                d.backend
            );
        }
    }

    #[test]
    fn corrupted_store_fails_round_on_every_backend() {
        let mut chain = Blockchain::new(Box::new(TrustedBeacon::new(b"backend-corrupt")));
        let data: Vec<u8> = (0..1024).map(|i| (i % 247) as u8).collect();
        let fleet = deploy_fleet(&mut chain, &data, 1);
        // flip a bit in every 31-byte window so each backend's
        // challenged unit hits damage regardless of leaf geometry
        let mut bad = data.clone();
        for i in (0..bad.len()).step_by(31) {
            bad[i] ^= 0x08;
        }
        let mut rng = StdRng::seed_from_u64(0x50a2);
        chain.advance_time(3601);
        chain.mine_block();
        for d in &fleet {
            let beacon = latest_beacon(&chain, d.contract).expect("challenged");
            let proof = small_backend(d.backend)
                .prove(&mut rng, &d.kit, &bad, &beacon)
                .expect("prove");
            chain.submit(call_tx(d.provider, d.contract, "prove", proof.encode(), 0));
            let b = chain.mine_block();
            assert_eq!(b.txs[0].1.status, TxStatus::Success);
        }
        chain.advance_time(601);
        chain.mine_block();
        for d in &fleet {
            assert_eq!(
                verdict_counts(&chain, d.contract),
                (0, 1),
                "backend `{}` must fail the corrupted round",
                d.backend
            );
        }
    }

    #[test]
    fn wire_problems_revert_and_never_settle() {
        let mut chain = Blockchain::new(Box::new(TrustedBeacon::new(b"backend-wire")));
        let data = vec![5u8; 512];
        let fleet = deploy_fleet(&mut chain, &data, 1);
        let pairing = &fleet[0];
        assert_eq!(pairing.backend, BackendId::Pairing);
        chain.advance_time(3601);
        chain.mine_block();
        let beacon = latest_beacon(&chain, pairing.contract).expect("challenged");

        // garbage calldata
        chain.submit(call_tx(pairing.provider, pairing.contract, "prove", vec![0xff; 3], 0));
        let b = chain.mine_block();
        assert!(matches!(b.txs[0].1.status, TxStatus::Reverted));

        // a well-formed proof for the WRONG backend
        let merkle = &fleet[1];
        let mut rng = StdRng::seed_from_u64(0x50a3);
        let foreign = small_backend(merkle.backend)
            .prove(&mut rng, &merkle.kit, &data, &beacon)
            .expect("prove");
        chain.submit(call_tx(
            pairing.provider,
            pairing.contract,
            "prove",
            foreign.encode(),
            0,
        ));
        let b = chain.mine_block();
        assert!(matches!(b.txs[0].1.status, TxStatus::Reverted));

        // no verdict has been settled by either revert
        assert_eq!(verdict_counts(&chain, pairing.contract), (0, 0));

        // the silent round times out and settles as a failure — the
        // timeout, not the malformed bytes, is what costs the provider
        chain.advance_time(601);
        chain.mine_block();
        assert_eq!(verdict_counts(&chain, pairing.contract), (0, 1));
        assert_eq!(event_count(&chain, pairing.contract, "timeout"), 1);
    }

    #[test]
    fn commitment_backend_mismatch_is_a_deploy_error() {
        let mut rng = StdRng::seed_from_u64(0x50a4);
        let setup = backend_for(BackendId::Merkle)
            .setup(&mut rng, &[1u8; 64])
            .expect("setup");
        // a contract is built from the verifier; the mismatched pair
        // never yields one
        assert!(backend_for(BackendId::Pairing)
            .verifier(&setup.commitment)
            .is_err());
    }

    /// Regression: a well-framed proof whose payload does not decode
    /// used to be accepted by `prove` and then make the `Verify` trigger
    /// revert — trigger consumed, no verdict ever emitted, both deposits
    /// locked, and a provider that lost the data escaped the penalty.
    /// It must settle like any other proof that does not convince.
    #[test]
    fn undecodable_payload_settles_the_round_on_every_backend() {
        let mut chain = Blockchain::new(Box::new(TrustedBeacon::new(b"backend-wedge")));
        let data: Vec<u8> = (0..1024).map(|i| (i % 247) as u8).collect();
        let fleet = deploy_fleet(&mut chain, &data, 1);
        chain.advance_time(3601);
        chain.mine_block();
        let mut owner_before = Vec::new();
        for d in &fleet {
            let garbage = BackendProof {
                backend: d.backend,
                bytes: vec![0xff; 288],
            };
            chain.submit(call_tx(d.provider, d.contract, "prove", garbage.encode(), 0));
            chain.mine_block();
            owner_before.push(chain.balance(d.owner));
        }
        chain.advance_time(601);
        chain.mine_block();
        for (d, before) in fleet.iter().zip(owner_before) {
            let (pass, fail) = verdict_counts(&chain, d.contract);
            assert_eq!(pass + fail, 1, "backend `{}`: round must settle exactly once", d.backend);
            assert_eq!(fail, 1, "backend `{}`: garbage cannot pass", d.backend);
            assert_eq!(
                event_count(&chain, d.contract, "completed"),
                1,
                "backend `{}`: contract must reach Completed",
                d.backend
            );
            assert_eq!(chain.balance(d.contract), 0, "backend `{}`: pools released", d.backend);
            let t = terms(1);
            assert_eq!(
                chain.balance(d.owner) - before,
                t.owner_deposit + t.penalty_per_fail,
                "backend `{}`: owner is compensated",
                d.backend
            );
        }
    }

    /// Migration is part of the one lifecycle, so it works on every
    /// backend: a merkle-audited share is re-homed between rounds and
    /// the successor, proving from the same kit, earns what remains.
    #[test]
    fn merkle_contract_migrates_and_successor_earns_the_rest() {
        let mut chain = Blockchain::new(Box::new(TrustedBeacon::new(b"backend-migrate")));
        let data: Vec<u8> = (0..1024).map(|i| (i % 247) as u8).collect();
        let fleet = deploy_fleet(&mut chain, &data, 3);
        let d = &fleet[1];
        assert_eq!(d.backend, BackendId::Merkle);
        let t = terms(3);
        let backend = small_backend(d.backend);
        let mut rng = StdRng::seed_from_u64(0x50a6);
        let mut round = |chain: &mut Blockchain, sender: Address| {
            chain.advance_time(3601);
            chain.mine_block();
            let beacon = latest_beacon(chain, d.contract).expect("challenged");
            let proof = backend.prove(&mut rng, &d.kit, &data, &beacon).expect("prove");
            submit_ok(chain, sender, d.contract, "prove", proof.encode(), 0);
            chain.advance_time(601);
            chain.mine_block();
        };

        // round 0 is served by the original provider
        let old_before = chain.balance(d.provider);
        round(&mut chain, d.provider);
        assert_eq!(verdict_counts(&chain, d.contract), (1, 0));

        // the owner re-homes the share; the successor covers the two
        // remaining rounds' penalties and the old provider is refunded
        let successor = Address::from_label("merkle/successor");
        let takeover_deposit = 2 * t.penalty_per_fail;
        chain.fund_account(successor, takeover_deposit + eth(1));
        submit_ok(&mut chain, d.owner, d.contract, "migrate", successor.0.to_vec(), 0);
        submit_ok(&mut chain, successor, d.contract, "takeover", Vec::new(), takeover_deposit);
        assert_eq!(
            chain.balance(d.provider) - old_before,
            t.provider_deposit + t.reward_per_audit,
            "old provider leaves with its deposit and the round it earned"
        );

        // the successor serves the remaining rounds and collects
        let successor_before = chain.balance(successor);
        round(&mut chain, successor);
        round(&mut chain, successor);
        assert_eq!(verdict_counts(&chain, d.contract), (3, 0));
        assert_eq!(
            chain.balance(successor) - successor_before,
            takeover_deposit + 2 * t.reward_per_audit,
            "successor gets its deposit back plus both remaining rewards"
        );
        assert_eq!(event_count(&chain, d.contract, "completed"), 1);
        assert_eq!(chain.balance(d.contract), 0, "contract drained at completion");
    }
}
