//! The epoch-driven discrete-event engine: composes the storage network
//! (DHT + erasure shares), the role handles of `dsaudit-core`, the
//! Fig. 2 audit contracts and the chain simulator into one reproducible
//! network lifecycle.
//!
//! Each epoch:
//!
//! 1. **Churn** — providers join, leave (graceful hand-off: blobs and
//!    contracts migrate), or crash (shares lost with the node).
//! 2. **Faults** — the fault model corrupts, drops, or withholds
//!    stored shares, or eats a proof frame in flight (transport loss,
//!    recovered before the deadline because the provider retransmits
//!    its proof, as `dsaudit-node`'s provider daemon does).
//! 3. **Audit** — every share contract's `Chal` trigger fires; online
//!    providers prove over *whatever bytes they actually store*; the
//!    one batch auditor settles the posted proofs with one batched
//!    pairing product per owner key (3 points) and posts verdicts on
//!    chain (silence expires at the `Verify` trigger); a rejected batch
//!    finds its bad proofs by bisection
//!    ([`Auditor::verify_private_each`]).
//! 4. **Repair** — every share whose round failed is reconstructed
//!    from surviving shares, re-placed on the DHT-nearest free
//!    provider, and its contract migrated to the new holder.
//! 5. **Accounting** — gas, mined bytes and chain utilization are
//!    *measured* from the blocks this epoch produced.
//!
//! When the config lists [`backends`](crate::SimConfig::backends),
//! every share additionally carries one *shadow* contract per listed
//! backend — the same [`AuditContract`](dsaudit_contract::AuditContract)
//! type, deployed by the same [`deploy`], verifying on-contract instead
//! of through the batch auditor —
//! driven through the identical challenge and fault schedule: one run
//! compares the schemes head to head (per-backend verdict accuracy,
//! metered gas, proof bytes).
//!
//! Determinism: one seeded RNG drives keys, challenges, proof masking,
//! churn and faults; every collection iterated is ordered; and no clock
//! is read — every contract meters verification at the chain's declared
//! cost ([`GasSchedule::verify_gas`](dsaudit_chain::gas::GasSchedule::verify_gas)).
//! The audit phase proves the primary proofs, and then verifies the
//! owner batches, as `algebra::par::par_jobs` jobs, each on its own RNG
//! stream: a serial pass draws each job's bytes from the one RNG at the
//! point, and by the amount, that the job would draw there if it ran
//! serially — one scalar per proof's mask, one per batch weight — and
//! the job replays them. No two batches share an owner key, so none
//! looks up another's cache entries. Shadow-lane proofs stay in the
//! serial pass, and every call is submitted in placement order. So
//! every proof, weight and verdict is the one a serial run computes.
//! Two runs of the same config, shadow lanes included, yield
//! byte-for-byte identical reports, at any CPU count.

use std::collections::BTreeMap;

use dsaudit_backend::{
    AuditBackend, BackendId, Groth16MerkleBackend, MerkleBackend, PairingBackend, ProverKit,
};
use dsaudit_algebra::par::par_jobs;
use dsaudit_chain::beacon::TrustedBeacon;
use dsaudit_chain::chain::Blockchain;
use dsaudit_chain::types::{eth, Address, Wei};
use dsaudit_contract::harness::{beacon_since, deploy, mine_ok, outcome_since, queue_call};
use dsaudit_core::batch::BatchItem;
use dsaudit_core::{Auditor, Challenge, Codec, DataOwner, FileMeta, Outcome, PrivateProof, Prover};
use dsaudit_storage::{FileManifest, NodeId, StorageError, StorageNetwork};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::churn::ChurnModel;
use crate::config::SimConfig;
use crate::fault::{FaultKind, FaultModel};
use crate::report::{BackendLane, EpochStats, SimReport};

/// Ground-truth state of one stored share.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ShareStatus {
    /// Blob present and byte-identical to the coded share.
    Good,
    /// Blob present but tampered (only the audit can tell).
    Corrupt,
    /// Blob gone: dropped by the provider or lost with a crashed node.
    Missing,
}

/// One provider slot in the roster (stable index for the whole run).
struct Slot {
    id: NodeId,
    addr: Address,
    online: bool,
}

/// One (file, share) placement and its contract.
struct Placement {
    file: usize,
    share: usize,
    provider_slot: usize,
    contract: Address,
    status: ShareStatus,
    withhold: bool,
    /// The network ate this epoch's first proof frame; the node layer
    /// resends it within the deadline, so the round still settles.
    transport: bool,
}

/// One uploaded file: plaintext kept for end-of-run verification, the
/// storage manifest, and the per-share audit materials.
struct SimFile {
    owner: usize,
    key: [u8; 32],
    plaintext: Vec<u8>,
    manifest: FileManifest,
    metas: Vec<FileMeta>,
    tags: Vec<Vec<dsaudit_algebra::g1::G1Affine>>,
    share_len: usize,
    placement_ids: Vec<usize>,
    lost: bool,
}

struct OwnerEntry {
    handle: DataOwner,
    addr: Address,
}

/// One placement's slice of a shadow lane: a second contract auditing
/// the same share under the lane's backend, and the proving material
/// its provider role holds. The transaction sender is pinned at
/// deployment — hand-offs and repair re-homes are exercised on the
/// primary lane; the shadow lanes measure scheme behavior over the
/// identical blob and fault history.
struct ShadowSlot {
    contract: Address,
    provider: Address,
    kit: ProverKit,
}

/// One backend driven head-to-head against the primary pairing path:
/// an [`AuditContract`] per share plus the lane's report row, whose
/// `gas` and `proof_bytes` [`Simulation::finalize`] reads off the chain.
struct ShadowLane {
    /// The lane's backend, sized for this run's shares; it sets up
    /// every slot and answers every round.
    backend: Box<dyn AuditBackend>,
    /// Parallel to `Simulation::placements`.
    slots: Vec<ShadowSlot>,
    row: BackendLane,
}

/// One primary proof of an audit phase, run as a parallel job: the
/// prover over the share's stored bytes, and the mask bytes the serial
/// pass drew for it.
struct ProveJob<'a> {
    pl_id: usize,
    prover: Prover<'a>,
    challenge: Challenge,
    mask: Vec<u8>,
}

/// The outcome a challenged round must settle as, from its share's
/// ground truth at challenge time.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// The share is healthy and served: its proof verifies.
    Accept,
    /// A corrupt share is served: its proof is posted and fails.
    Reject,
    /// No proof is posted (the provider is offline, withholds, or lost
    /// the share): the deadline lapses.
    Expired,
}

impl Expect {
    /// Whether `outcome` is of this kind.
    fn is(self, outcome: Outcome) -> bool {
        matches!(
            (self, outcome),
            (Expect::Accept, Outcome::Accept)
                | (Expect::Reject, Outcome::Reject(_))
                | (Expect::Expired, Outcome::Expired)
        )
    }
}

/// A round's on-chain outcome scored against its share's ground truth
/// (healthy and served, corrupt and served, or silent). The primary
/// path and every shadow lane score their rounds here.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Score {
    /// Accepted, and the share is healthy and served.
    Pass,
    /// Failed as expected: rejected and the share corrupt, or expired
    /// and no proof posted.
    Caught,
    /// Failed, and the share is faulty, but as the other kind of
    /// failure.
    WrongKind,
    /// Accepted although the share is faulty.
    FalseAccept,
    /// Rejected or expired although the share is healthy and served.
    FalseReject,
}

impl Score {
    fn of(expected: Expect, outcome: Outcome) -> Self {
        match (expected, outcome.accepted()) {
            (Expect::Accept, true) => Score::Pass,
            (Expect::Accept, false) => Score::FalseReject,
            (_, true) => Score::FalseAccept,
            (_, false) if expected.is(outcome) => Score::Caught,
            (_, false) => Score::WrongKind,
        }
    }

    fn passed(self) -> bool {
        matches!(self, Score::Pass | Score::FalseAccept)
    }
}

/// The bytes of `n` scalar draws (`Fr::random` fills 64 bytes each),
/// taken from `rng` as `n` serial draws would take them.
fn draw_scalars(rng: &mut StdRng, n: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; 64 * n];
    rng.fill_bytes(&mut bytes);
    bytes
}

/// A parallel job's own RNG stream: it replays bytes drawn for the job
/// from the simulation's stream, so the job draws exactly what the
/// serial code drew at that point, whichever thread runs it.
///
/// # Panics
/// When a job reads past the bytes drawn for it. Zeros there would be a
/// zero batch weight, which drops a bad proof out of the batch product
/// (a false accept), or a zero mask, which un-blinds the proof.
struct JobStream<'a>(&'a [u8]);

impl RngCore for JobStream<'_> {
    fn next_u32(&mut self) -> u32 {
        let mut bytes = [0u8; 4];
        self.fill_bytes(&mut bytes);
        u32::from_le_bytes(bytes)
    }

    fn next_u64(&mut self) -> u64 {
        let mut bytes = [0u8; 8];
        self.fill_bytes(&mut bytes);
        u64::from_le_bytes(bytes)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        assert!(
            dest.len() <= self.0.len(),
            "a job read {} bytes with {} drawn for it",
            dest.len(),
            self.0.len()
        );
        let (head, rest) = self.0.split_at(dest.len());
        dest.copy_from_slice(head);
        self.0 = rest;
    }
}

/// The simulator. Build with [`Simulation::new`] (rates from the
/// config) or [`Simulation::with_models`] (custom churn/fault models),
/// then consume with [`Simulation::run`].
pub struct Simulation {
    cfg: SimConfig,
    rng: StdRng,
    chain: Blockchain,
    net: StorageNetwork,
    churn: Box<dyn ChurnModel>,
    faults: Box<dyn FaultModel>,
    roster: Vec<Slot>,
    slot_by_id: BTreeMap<NodeId, usize>,
    owners: Vec<OwnerEntry>,
    /// The one batch auditor: its off-chain handle, and the address
    /// every share contract takes verdicts from.
    auditor: Auditor,
    auditor_addr: Address,
    files: Vec<SimFile>,
    placements: Vec<Placement>,
    shadows: Vec<ShadowLane>,
    report: SimReport,
}

impl Simulation {
    /// Builds the network with the config's default rate models.
    ///
    /// # Panics
    /// Panics on an inconsistent config (see [`SimConfig::validate`]).
    pub fn new(cfg: SimConfig) -> Self {
        let churn = Box::new(cfg.churn);
        let faults = Box::new(cfg.faults);
        Self::with_models(cfg, churn, faults)
    }

    /// Builds the network with caller-supplied churn and fault models.
    ///
    /// # Panics
    /// Panics on an inconsistent config (see [`SimConfig::validate`]).
    pub fn with_models(
        cfg: SimConfig,
        churn: Box<dyn ChurnModel>,
        faults: Box<dyn FaultModel>,
    ) -> Self {
        cfg.validate();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut beacon_seed = Vec::with_capacity(20);
        beacon_seed.extend_from_slice(b"dsaudit-sim/");
        beacon_seed.extend_from_slice(&cfg.seed.to_le_bytes());
        let mut chain = Blockchain::new(Box::new(TrustedBeacon::new(&beacon_seed)));
        let net = StorageNetwork::new(cfg.providers, cfg.erasure_k, cfg.erasure_n);

        // provider roster: ids match StorageNetwork::new's labels
        let mut roster = Vec::with_capacity(cfg.providers);
        let mut slot_by_id = BTreeMap::new();
        for i in 0..cfg.providers {
            let id = NodeId::from_label(&format!("provider-{i}"));
            let addr = Address::from_label(&format!("sim/provider-{i}"));
            chain.fund_account(addr, eth(1_000));
            slot_by_id.insert(id, roster.len());
            roster.push(Slot {
                id,
                addr,
                online: true,
            });
        }

        let auditor_addr = Address::from_label("sim/auditor");
        chain.fund_account(auditor_addr, eth(1));

        // owners
        let owners: Vec<OwnerEntry> = (0..cfg.owners)
            .map(|o| {
                let addr = Address::from_label(&format!("sim/owner-{o}"));
                chain.fund_account(addr, eth(1_000));
                OwnerEntry {
                    handle: DataOwner::generate(&mut rng, cfg.audit),
                    addr,
                }
            })
            .collect();

        let mut sim = Self {
            report: SimReport {
                seed: cfg.seed,
                epochs: cfg.epochs,
                initial_providers: cfg.providers,
                owners: cfg.owners,
                files: cfg.owners * cfg.files_per_owner,
                erasure: (cfg.erasure_k, cfg.erasure_n),
                audit_params: (cfg.audit.s, cfg.audit.k),
                ..SimReport::default()
            },
            cfg,
            rng,
            chain,
            net,
            churn,
            faults,
            roster,
            slot_by_id,
            owners,
            auditor: Auditor::new(),
            auditor_addr,
            files: Vec::new(),
            placements: Vec::new(),
            shadows: Vec::new(),
        };
        sim.upload_and_deploy();
        sim
    }

    /// The backend instance a shadow lane runs on. Sized so every
    /// leaf of a share is challenged each round (`expand` samples
    /// distinct indices), which keeps the report's zero-false-accept
    /// ground truth exact for every lane, not just the pairing path.
    fn lane_backend(cfg: &SimConfig, id: BackendId) -> Box<dyn AuditBackend> {
        let share_len = cfg.share_len();
        match id {
            BackendId::Pairing => Box::new(PairingBackend::new(cfg.audit)),
            BackendId::Merkle => Box::new(MerkleBackend {
                leaf_size: share_len.div_ceil(cfg.audit.k).max(1),
                k: cfg.audit.k,
            }),
            BackendId::Groth16Merkle => Box::new(Groth16MerkleBackend {
                batch: share_len.div_ceil(31).max(1),
            }),
        }
    }

    /// Uploads every file (encrypt, erasure-code, DHT placement), tags
    /// each share with [`DataOwner::outsource_share`], deploys one
    /// audit contract per share in batched-verdict mode, and drives all
    /// of them through negotiate → ack → deposits.
    fn upload_and_deploy(&mut self) {
        let cfg = self.cfg.clone();
        self.shadows = cfg
            .backends
            .iter()
            .map(|&id| {
                let backend = Self::lane_backend(&cfg, id);
                let row = BackendLane {
                    backend: backend.id().name().to_string(),
                    ..BackendLane::default()
                };
                ShadowLane {
                    backend,
                    slots: Vec::new(),
                    row,
                }
            })
            .collect();
        let terms = cfg.terms();
        for o in 0..cfg.owners {
            for fi in 0..cfg.files_per_owner {
                let data: Vec<u8> = (0..cfg.file_bytes)
                    .map(|i| ((o * 31 + fi * 17 + i) % 251) as u8)
                    .collect();
                let mut key = [0u8; 32];
                for (j, b) in key.iter_mut().enumerate() {
                    *b = (o * 13 + fi * 7 + j) as u8;
                }
                let mut nonce = [0u8; 12];
                for (j, b) in nonce.iter_mut().enumerate() {
                    *b = (o * 3 + fi * 5 + j) as u8;
                }
                let manifest = self
                    .net
                    .upload(key, nonce, &data)
                    .expect("sim networks are provisioned with providers");
                let f = self.files.len();
                let mut metas = Vec::with_capacity(cfg.erasure_n);
                let mut tags = Vec::with_capacity(cfg.erasure_n);
                let mut placement_ids = Vec::with_capacity(cfg.erasure_n);
                let mut share_len = 0;
                for (share, (index, provider, share_key)) in
                    manifest.placements.iter().enumerate()
                {
                    assert_eq!(*index, share, "upload emits placements in share order");
                    let blob = self
                        .net
                        .provider(provider)
                        .expect("fresh upload")
                        .get(share_key)
                        .expect("fresh upload")
                        .clone();
                    share_len = blob.len();
                    debug_assert_eq!(share_len, cfg.share_len(), "lanes are sized from the config");
                    let bundle = self.owners[o].handle.outsource_share(
                        &manifest.content_id.0,
                        share as u64,
                        &blob,
                    );
                    let meta = bundle.meta();
                    let slot = self.slot_by_id[provider];
                    let agreement = terms.bind(self.owners[o].addr, self.roster[slot].addr);
                    // primary lane: outsourced through the role API,
                    // settled by the batch auditor
                    let contract = deploy(
                        &mut self.chain,
                        &format!("sim/o{o}f{fi}s{share}"),
                        agreement,
                        PairingBackend::verifier_for(bundle.pk.clone(), meta)
                            .expect("share metadata is auditable"),
                        Some(self.auditor_addr),
                    );
                    // shadow lanes: one more contract per listed
                    // backend, auditing the same blob on the same chain
                    // under the same economics, verifying on-contract
                    for li in 0..self.shadows.len() {
                        let backend = &self.shadows[li].backend;
                        let id = backend.id();
                        let setup = backend
                            .setup(&mut self.rng, &blob)
                            .expect("lane setup over a fresh share");
                        let verifier = backend
                            .verifier(&setup.commitment)
                            .expect("a backend parses its own commitment");
                        let addr = deploy(
                            &mut self.chain,
                            &format!("sim/o{o}f{fi}s{share}/{id}"),
                            agreement,
                            verifier,
                            None,
                        );
                        self.shadows[li].slots.push(ShadowSlot {
                            contract: addr,
                            provider: agreement.provider,
                            kit: setup.kit,
                        });
                    }
                    placement_ids.push(self.placements.len());
                    self.placements.push(Placement {
                        file: f,
                        share,
                        provider_slot: slot,
                        contract,
                        status: ShareStatus::Good,
                        withhold: false,
                        transport: false,
                    });
                    metas.push(meta);
                    tags.push(bundle.tags);
                }
                self.files.push(SimFile {
                    owner: o,
                    key,
                    plaintext: data,
                    manifest,
                    metas,
                    tags,
                    share_len,
                    placement_ids,
                    lost: false,
                });
            }
        }
        mine_ok(&mut self.chain, "setup");
        self.report.setup_gas = self.chain.total_gas_used();
    }

    /// The DHT-nearest online provider (to `file`'s content id) that
    /// holds none of the file's shares and is not excluded — the same
    /// placement policy repair uses ([`StorageNetwork::eligible_provider`]).
    fn pick_target(&self, file: usize, exclude: &[NodeId]) -> Option<usize> {
        let manifest = &self.files[file].manifest;
        let mut unavailable: Vec<NodeId> =
            manifest.placements.iter().map(|(_, p, _)| *p).collect();
        unavailable.extend_from_slice(exclude);
        self.net
            .eligible_provider(&manifest.content_id, &unavailable)
            .and_then(|id| self.slot_by_id.get(&id).copied())
            .filter(|slot| self.roster[*slot].online)
    }

    /// Queues the `migrate` + `takeover` transaction pair re-homing one
    /// share contract onto `target_slot`. `rounds_done` is the
    /// contract's settled-round count at submission time (it sizes the
    /// takeover deposit). No-op when the contract has no rounds left.
    /// Returns whether the migration was queued.
    fn queue_migration(&mut self, pl_id: usize, target_slot: usize, rounds_done: u64) -> bool {
        let remaining = self.cfg.epochs as u64 - rounds_done;
        if remaining == 0 {
            return false;
        }
        let contract = self.placements[pl_id].contract;
        let owner_addr = self.owners[self.files[self.placements[pl_id].file].owner].addr;
        let new_addr = self.roster[target_slot].addr;
        queue_call(&mut self.chain, owner_addr, contract, "migrate", new_addr.0.to_vec(), 0);
        queue_call(
            &mut self.chain,
            new_addr,
            contract,
            "takeover",
            Vec::new(),
            self.cfg.penalty_per_fail * remaining as Wei,
        );
        true
    }

    /// Runs the full lifecycle and returns the measured report.
    pub fn run(mut self) -> SimReport {
        for epoch in 0..self.cfg.epochs {
            self.run_epoch(epoch);
        }
        self.finalize();
        self.report
    }

    fn run_epoch(&mut self, epoch: u32) {
        // virtual chain time drives obs timestamps: traces of the same
        // seeded run are byte-identical
        dsaudit_obs::tick_virtual(self.chain.now);
        let _span = dsaudit_obs::span("sim.epoch");
        let mark_block = self.chain.block_count();
        let mark_now = self.chain.now;
        let mut es = EpochStats {
            epoch,
            ..EpochStats::default()
        };

        self.churn_phase(epoch, &mut es);
        let injected = self.fault_phase(epoch, &mut es);
        let scores = self.audit_phase(&mut es);
        self.settle_phase(&injected, &scores, &mut es);
        self.repair_phase(epoch, &scores, &mut es);

        // durability margin after repair
        es.min_live_shares = self
            .files
            .iter()
            .filter(|f| !f.lost)
            .map(|f| {
                f.placement_ids
                    .iter()
                    .filter(|&&pl| {
                        self.placements[pl].status == ShareStatus::Good
                            && self.roster[self.placements[pl].provider_slot].online
                    })
                    .count()
            })
            .min()
            .unwrap_or(0);
        es.providers_online = self.roster.iter().filter(|s| s.online).count();

        // measured chain accounting for the epoch's span
        es.gas = self.chain.gas_used_since(mark_block);
        es.chain_bytes = self.chain.bytes_since(mark_block);
        let elapsed = (self.chain.now - mark_now) as f64;
        let capacity_bytes = elapsed / self.cfg.capacity.block_interval_secs
            * self.cfg.capacity.avg_block_bytes as f64;
        es.utilization = es.chain_bytes as f64 / capacity_bytes;

        // fold into totals
        let r = &mut self.report;
        r.audits += es.audits as u64;
        r.passes += es.passes as u64;
        r.failures += es.failures as u64;
        r.injected_faults += es.injected as u64;
        r.detected_faults += es.detected as u64;
        r.transport_faults += es.transport_faults as u64;
        r.transport_retries += es.transport_retries as u64;
        r.repairs += es.repairs as u64;
        r.migrations += es.migrations as u64;
        r.repair_traffic_bytes += es.repair_traffic_bytes;
        r.joins += es.joins as u64;
        r.leaves += es.leaves as u64;
        r.crashes += es.crashes as u64;
        dsaudit_obs::tick_virtual(self.chain.now);
        dsaudit_obs::counter_add("sim.audits", es.audits as u64);
        dsaudit_obs::counter_add("sim.passes", es.passes as u64);
        dsaudit_obs::counter_add("sim.failures", es.failures as u64);
        dsaudit_obs::counter_add("sim.faults.injected", es.injected as u64);
        dsaudit_obs::counter_add("sim.faults.detected", es.detected as u64);
        dsaudit_obs::counter_add("sim.faults.transport", es.transport_faults as u64);
        dsaudit_obs::counter_add("sim.transport_retries", es.transport_retries as u64);
        dsaudit_obs::counter_add("sim.repairs", es.repairs as u64);
        dsaudit_obs::counter_add("sim.migrations", es.migrations as u64);
        dsaudit_obs::observe("sim.epoch_gas", es.gas);
        r.per_epoch.push(es);
    }

    // --- epoch phases -------------------------------------------------

    fn churn_phase(&mut self, epoch: u32, es: &mut EpochStats) {
        // joins first: fresh nodes are repair targets this epoch
        let joins = self.churn.joins(&mut self.rng, epoch);
        for _ in 0..joins {
            let i = self.roster.len();
            let id = NodeId::from_label(&format!("provider-{i}"));
            let addr = Address::from_label(&format!("sim/provider-{i}"));
            assert!(self.net.add_provider(id), "fresh provider id collides");
            self.chain.fund_account(addr, eth(1_000));
            self.slot_by_id.insert(id, i);
            self.roster.push(Slot {
                id,
                addr,
                online: true,
            });
            es.joins += 1;
        }
        // departures among the pre-existing population
        let settled_rounds = epoch as u64; // rounds completed before this epoch
        for slot in 0..self.roster.len() - joins {
            if !self.roster[slot].online {
                continue;
            }
            if self.churn.leaves(&mut self.rng, epoch) {
                self.graceful_leave(slot, settled_rounds, es);
                es.leaves += 1;
            } else if self.churn.crashes(&mut self.rng, epoch) {
                self.crash(slot);
                es.crashes += 1;
            }
        }
        if es.leaves > 0 {
            mine_ok(&mut self.chain, "graceful-leave migrations");
        }
    }

    /// Graceful departure: every share the node holds is handed to the
    /// DHT-nearest free provider (blob copied, contract migrated); then
    /// the node leaves the DHT with routing-table cleanup.
    fn graceful_leave(&mut self, slot: usize, settled_rounds: u64, es: &mut EpochStats) {
        let id = self.roster[slot].id;
        let held: Vec<usize> = (0..self.placements.len())
            .filter(|&pl| self.placements[pl].provider_slot == slot)
            .collect();
        for pl_id in held {
            let (file, share) = (self.placements[pl_id].file, self.placements[pl_id].share);
            let (_, _, share_key) = self.files[file].manifest.placements[share];
            let blob = self
                .net
                .provider(&id)
                .and_then(|node| node.get(&share_key))
                .cloned();
            let target = self.pick_target(file, &[id]);
            match (blob, target) {
                (Some(bytes), Some(target_slot)) => {
                    let target_id = self.roster[target_slot].id;
                    self.net
                        .provider_mut(&target_id)
                        .expect("target is online")
                        .put(share_key, bytes.clone());
                    self.files[file].manifest.placements[share].1 = target_id;
                    if self.queue_migration(pl_id, target_slot, settled_rounds) {
                        es.migrations += 1;
                    }
                    self.placements[pl_id].provider_slot = target_slot;
                    es.repair_traffic_bytes += bytes.len() as u64;
                    // a corrupt blob migrates as-is; the audit on the new
                    // holder will catch it
                }
                _ => {
                    // nothing to move, or nowhere to put it: the share
                    // is lost with the departure and repair must rebuild
                    self.placements[pl_id].status = ShareStatus::Missing;
                }
            }
        }
        self.net.remove_provider(&id, true);
        self.roster[slot].online = false;
    }

    /// Abrupt crash: the node and every blob on it vanish.
    fn crash(&mut self, slot: usize) {
        let id = self.roster[slot].id;
        self.net.remove_provider(&id, false);
        for pl in &mut self.placements {
            if pl.provider_slot == slot {
                pl.status = ShareStatus::Missing;
            }
        }
        self.roster[slot].online = false;
    }

    /// Injects this epoch's share faults; returns the affected
    /// placement ids with their fault kinds.
    fn fault_phase(&mut self, epoch: u32, es: &mut EpochStats) -> Vec<(usize, FaultKind)> {
        let mut injected = Vec::new();
        for pl_id in 0..self.placements.len() {
            let pl = &self.placements[pl_id];
            if pl.status != ShareStatus::Good
                || !self.roster[pl.provider_slot].online
                || self.files[pl.file].lost
            {
                continue;
            }
            let Some(kind) = self.faults.sample(&mut self.rng, epoch) else {
                continue;
            };
            let id = self.roster[pl.provider_slot].id;
            let (_, _, share_key) = self.files[pl.file].manifest.placements[pl.share];
            match kind {
                FaultKind::Corrupt => {
                    let node = self.net.provider_mut(&id).expect("online provider");
                    let mut blob = node.get(&share_key).expect("healthy share").clone();
                    let pos = (self.rng.next_u64() % blob.len() as u64) as usize;
                    let bit = 1u8 << (self.rng.next_u64() % 8);
                    blob[pos] ^= bit;
                    node.put(share_key, blob);
                    self.placements[pl_id].status = ShareStatus::Corrupt;
                }
                FaultKind::Drop => {
                    self.net
                        .provider_mut(&id)
                        .expect("online provider")
                        .drop_share(&share_key);
                    self.placements[pl_id].status = ShareStatus::Missing;
                }
                FaultKind::Withhold => {
                    self.placements[pl_id].withhold = true;
                }
                FaultKind::Transport => {
                    self.placements[pl_id].transport = true;
                }
            }
            // provider faults and network faults are accounted apart:
            // the former must be detected, the latter must be invisible
            // to the verdict stream
            if kind.is_provider_fault() {
                es.injected += 1;
            } else {
                es.transport_faults += 1;
            }
            injected.push((pl_id, kind));
        }
        injected
    }

    /// Fires the round: `Chal` triggers, provider responses over the
    /// bytes actually stored, `Verify` triggers, then one batch of
    /// verdicts per owner key. Returns, per challenged placement, the
    /// contract-settled outcome scored against ground truth; each shadow
    /// lane's scores are counted on its row.
    fn audit_phase(&mut self, es: &mut EpochStats) -> Vec<Option<Score>> {
        let audit_mark = self.chain.block_count();
        self.chain.advance_time(self.cfg.epoch_secs + 1);
        mine_ok(&mut self.chain, "challenge triggers");

        // providers respond over their *stored* bytes. A serial pass draws
        // each primary proof's mask from the simulation's stream and runs
        // the shadow lanes, in placement order; the primary proofs then
        // run as parallel jobs, each on the bytes drawn for it
        let mut expected: Vec<Option<Expect>> = vec![None; self.placements.len()];
        let mut proving = Vec::new();
        let mut lane_calls: Vec<Vec<(Address, Address, Vec<u8>)>> =
            vec![Vec::new(); self.placements.len()];
        for pl_id in 0..self.placements.len() {
            let pl = &self.placements[pl_id];
            let Some(beacon) = beacon_since(&self.chain, audit_mark, pl.contract) else {
                continue; // contract already completed
            };
            let online = self.roster[pl.provider_slot].online;
            let responds = online && !pl.withhold && pl.status != ShareStatus::Missing;
            expected[pl_id] = Some(match (responds, pl.status) {
                (false, _) => Expect::Expired,
                (true, ShareStatus::Good) => Expect::Accept,
                (true, _) => Expect::Reject,
            });
            if !responds {
                continue;
            }
            if pl.transport {
                // the first proof frame was lost in flight; the
                // provider retransmits its proof under its bounded retry
                // policy inside the proving deadline, so the submission
                // below is the (successful) retransmit
                es.transport_retries += 1;
            }
            let file = &self.files[pl.file];
            let (_, _, share_key) = file.manifest.placements[pl.share];
            let blob = self
                .net
                .provider(&self.roster[pl.provider_slot].id)
                .expect("online provider")
                .get(&share_key)
                .expect("blob present");
            let pk = self.owners[file.owner].handle.public_key();
            proving.push(ProveJob {
                pl_id,
                prover: Prover::from_stored(pk, blob, self.cfg.audit, &file.tags[pl.share])
                    .expect("share shapes are fixed"),
                challenge: Challenge::from_beacon(&beacon),
                mask: draw_scalars(&mut self.rng, 1),
            });
            // shadow lanes prove over the *same* stored bytes for their
            // own contracts' beacons, the backend-agnostic challenge
            for lane in &mut self.shadows {
                let slot = &lane.slots[pl_id];
                let Some(lane_beacon) = beacon_since(&self.chain, audit_mark, slot.contract)
                else {
                    continue;
                };
                let lane_proof = lane
                    .backend
                    .prove(&mut self.rng, &slot.kit, blob, &lane_beacon)
                    .expect("a same-shape blob always proves");
                lane_calls[pl_id].push((slot.provider, slot.contract, lane_proof.encode()));
                lane.row.prover_calls += 1;
            }
        }
        let proofs = par_jobs(proving.len(), |j| {
            let job = &proving[j];
            job.prover.prove_private(&mut JobStream(&job.mask), &job.challenge)
        });
        let mut posted: Vec<Option<(Challenge, PrivateProof)>> =
            vec![None; self.placements.len()];
        for (job, proof) in proving.into_iter().zip(proofs) {
            posted[job.pl_id] = Some((job.challenge, proof));
        }
        for (pl_id, lane_calls) in lane_calls.into_iter().enumerate() {
            if let Some((_, proof)) = &posted[pl_id] {
                let pl = &self.placements[pl_id];
                let (sender, contract) = (self.roster[pl.provider_slot].addr, pl.contract);
                let frame = PairingBackend::frame(proof).encode();
                queue_call(&mut self.chain, sender, contract, "prove", frame, 0);
            }
            for (sender, contract, data) in lane_calls {
                queue_call(&mut self.chain, sender, contract, "prove", data, 0);
            }
        }
        mine_ok(&mut self.chain, "proof submissions");

        // deadline: silent rounds expire, posted proofs await verdicts
        self.chain.advance_time(self.cfg.prove_deadline_secs + 1);
        mine_ok(&mut self.chain, "verify triggers");

        // batched settlement, one batch per owner key: owners in order,
        // members in placement order. Each batch's weights are drawn
        // serially (every meta here is the owner's own, so a batch draws
        // all n); the batches then verify as parallel jobs
        let batches: Vec<Vec<usize>> = (0..self.owners.len())
            .map(|owner| {
                (0..self.placements.len())
                    .filter(|&pl| {
                        self.files[self.placements[pl].file].owner == owner
                            && posted[pl].is_some()
                    })
                    .collect::<Vec<usize>>()
            })
            .filter(|members| !members.is_empty())
            .collect();
        let weights: Vec<Vec<u8>> = batches
            .iter()
            .map(|members| draw_scalars(&mut self.rng, members.len()))
            .collect();
        let flags = par_jobs(batches.len(), |j| {
            let items: Vec<BatchItem<'_>> = batches[j]
                .iter()
                .map(|&pl| {
                    let (challenge, proof) = posted[pl].expect("member has a posted proof");
                    let file = &self.files[self.placements[pl].file];
                    BatchItem {
                        pk: self.owners[file.owner].handle.public_key(),
                        meta: file.metas[self.placements[pl].share],
                        challenge,
                        proof,
                    }
                })
                .collect();
            self.auditor.verify_private_each(&mut JobStream(&weights[j]), &items)
        });
        for (members, flags) in batches.into_iter().zip(flags) {
            for (pl, flag) in members.into_iter().zip(flags) {
                let (contract, flag) = (self.placements[pl].contract, vec![u8::from(flag)]);
                queue_call(&mut self.chain, self.auditor_addr, contract, "verdict", flag, 0);
            }
        }
        mine_ok(&mut self.chain, "verdict submissions");

        // read back the settled outcomes and score them; each shadow
        // lane is scored against the same ground truth as the primary
        // path — a corrupted share must fail (and a healthy one pass)
        // under *every* backend
        let settled = |contract| {
            outcome_since(&self.chain, audit_mark, contract)
                .expect("every challenged round settles within its epoch")
        };
        let mut scores = vec![None; self.placements.len()];
        for (pl_id, exp) in expected.into_iter().enumerate() {
            let Some(exp) = exp else {
                continue;
            };
            scores[pl_id] = Some(Score::of(exp, settled(self.placements[pl_id].contract)));
            for lane in &mut self.shadows {
                let score = Score::of(exp, settled(lane.slots[pl_id].contract));
                lane.row.audits += 1;
                lane.row.passes += u64::from(score.passed());
                lane.row.failures += u64::from(!score.passed());
                lane.row.false_accepts += u64::from(score == Score::FalseAccept);
                lane.row.false_rejects += u64::from(score == Score::FalseReject);
                lane.row.wrong_kind_failures += u64::from(score == Score::WrongKind);
            }
        }
        scores
    }

    /// Counts the primary path's scored rounds and updates the accuracy
    /// counters.
    fn settle_phase(
        &mut self,
        injected: &[(usize, FaultKind)],
        scores: &[Option<Score>],
        es: &mut EpochStats,
    ) {
        for (pl_id, score) in scores.iter().enumerate() {
            let Some(score) = *score else {
                continue;
            };
            let injected_here = |fault: fn(&FaultKind) -> bool| {
                injected.iter().any(|(pl, k)| *pl == pl_id && fault(k))
            };
            let provider_fault = injected_here(FaultKind::is_provider_fault);
            es.audits += 1;
            es.passes += u32::from(score.passed());
            es.failures += u32::from(!score.passed());
            match score {
                Score::FalseReject => {
                    // attribute the completeness violation: a healthy,
                    // served share failing *because the network lost a
                    // frame* is its own guarded counter — a dropped
                    // frame must be a retry, never a verdict
                    if !provider_fault && injected_here(|k| *k == FaultKind::Transport) {
                        self.report.transport_false_rejects += 1;
                        dsaudit_obs::counter_inc("sim.transport_false_rejects");
                    } else {
                        self.report.false_rejects += 1;
                        dsaudit_obs::counter_inc("sim.false_rejects");
                    }
                }
                Score::FalseAccept => {
                    self.report.false_accepts += 1;
                    dsaudit_obs::counter_inc("sim.false_accepts");
                }
                Score::Caught => es.detected += u32::from(provider_fault),
                Score::WrongKind => {
                    es.detected += u32::from(provider_fault);
                    self.report.wrong_kind_failures += 1;
                }
                Score::Pass => {}
            }
        }
    }

    /// Reconstructs and re-places every share whose round failed, and
    /// migrates the contracts onto the new holders.
    fn repair_phase(&mut self, epoch: u32, scores: &[Option<Score>], es: &mut EpochStats) {
        let settled_rounds = epoch as u64 + 1; // this epoch's round is settled
        let mut queued_any = false;
        for f in 0..self.files.len() {
            if self.files[f].lost {
                continue;
            }
            let bad: Vec<usize> = self.files[f]
                .placement_ids
                .iter()
                .map(|&pl_id| (self.placements[pl_id].share, pl_id))
                .filter(|&(_, pl_id)| {
                    scores[pl_id].is_some_and(|s| !s.passed())
                        || self.placements[pl_id].status != ShareStatus::Good
                })
                .map(|(share, _)| share)
                .collect();
            if bad.is_empty() {
                continue;
            }
            match self.net.repair(&mut self.files[f].manifest, &bad) {
                Ok(new_placements) => {
                    es.repairs += new_placements.len() as u32;
                    es.repair_traffic_bytes += (self.cfg.erasure_k + new_placements.len())
                        as u64
                        * self.files[f].share_len as u64;
                    for (share, new_id) in new_placements {
                        let new_slot = self.slot_by_id[&new_id];
                        let pl_id = self.files[f].placement_ids[share];
                        if self.queue_migration(pl_id, new_slot, settled_rounds) {
                            es.migrations += 1;
                            queued_any = true;
                        }
                        let pl = &mut self.placements[pl_id];
                        pl.provider_slot = new_slot;
                        pl.status = ShareStatus::Good;
                    }
                }
                Err(StorageError::Erasure(_)) => {
                    // Fewer than k shares survive *this epoch's trust
                    // set*. Distinguish a transient shortfall (withheld
                    // shares are physically intact and will answer again
                    // next epoch once the withhold flags reset) from real
                    // loss: the file is only gone when fewer than k
                    // physically healthy blobs remain on live providers.
                    let physically_live = self.files[f]
                        .placement_ids
                        .iter()
                        .filter(|&&pl| {
                            self.placements[pl].status == ShareStatus::Good
                                && self.roster[self.placements[pl].provider_slot].online
                        })
                        .count();
                    if physically_live < self.cfg.erasure_k {
                        self.files[f].lost = true;
                        self.report.files_lost += 1;
                    }
                    // else: retry next epoch with the withholders back
                }
                Err(StorageError::NoEligibleProvider { .. }) => {
                    // every live node already holds a share: retry next
                    // epoch (churn may free a slot)
                }
            }
        }
        // withholding and transport loss are transient: providers
        // resume (and links heal) next epoch
        for pl in &mut self.placements {
            pl.withhold = false;
            pl.transport = false;
        }
        if queued_any {
            mine_ok(&mut self.chain, "repair migrations");
        }
    }

    /// End-of-run verification and totals.
    fn finalize(&mut self) {
        for f in &self.files {
            if f.lost {
                continue;
            }
            if let Ok(data) = self.net.download(&f.manifest, f.key) {
                if data == f.plaintext {
                    self.report.files_intact += 1;
                }
            }
        }
        self.report.total_gas = self.chain.total_gas_used();
        self.report.chain_bytes = self.chain.total_size_bytes() as u64;
        self.report.blocks = self.chain.block_count() as u64;
        // each shadow contract emits a cumulative "metered" snapshot at
        // every settle; the last one per contract is its run total
        let mut metered: BTreeMap<Address, (u64, u64)> = BTreeMap::new();
        for ev in self.chain.all_events() {
            if ev.name == "metered" {
                let gas = u64::from_le_bytes(ev.data[..8].try_into().expect("8-byte gas"));
                let bytes = u64::from_le_bytes(ev.data[8..16].try_into().expect("8-byte len"));
                metered.insert(ev.contract, (gas, bytes));
            }
        }
        for lane in &self.shadows {
            let mut row = lane.row.clone();
            for s in &lane.slots {
                if let Some(&(g, b)) = metered.get(&s.contract) {
                    row.gas += g;
                    row.proof_bytes += b;
                }
            }
            self.report.backend_lanes.push(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnRates;
    use crate::fault::FaultRates;

    fn tiny_config() -> SimConfig {
        SimConfig {
            epochs: 3,
            providers: 8,
            owners: 1,
            file_bytes: 240,
            erasure_k: 2,
            erasure_n: 4,
            churn: ChurnRates::none(),
            faults: FaultRates::none(),
            ..SimConfig::default()
        }
    }

    #[test]
    fn honest_network_all_rounds_pass() {
        let report = Simulation::new(tiny_config()).run();
        assert!(
            report.backend_lanes.is_empty(),
            "no shadow lanes unless the config asks for them"
        );
        assert_eq!(report.audits, 3 * 4, "4 share contracts x 3 epochs");
        assert_eq!(report.passes, report.audits);
        assert_eq!(report.failures, 0);
        assert_eq!(report.false_accepts, 0);
        assert_eq!(report.false_rejects, 0);
        assert_eq!(report.repairs, 0);
        assert_eq!(report.files_lost, 0);
        assert_eq!(report.files_intact, 1);
        assert!(report.total_gas > report.setup_gas);
        assert!(report.per_epoch.iter().all(|e| e.utilization > 0.0));
        assert_eq!(report.per_epoch.len(), 3);
    }

    /// A proof draws one scalar and a batch of `n` draws `n`, bisection
    /// included: replayed from the bytes drawn for them, both compute
    /// what they compute on the serial stream and leave it where the
    /// serial calls leave it.
    #[test]
    fn job_streams_replay_the_serial_draws() {
        use dsaudit_algebra::{Field, Fr};
        use dsaudit_core::{generate_tags, keygen, AuditParams, EncodedFile};

        let mut rng = StdRng::seed_from_u64(0x5eed);
        let params = AuditParams::new(4, 3).unwrap();
        let (sk, pk) = keygen(&mut rng, &params);
        let file = EncodedFile::encode(&mut rng, &[3u8; 600], params);
        let tags = generate_tags(&sk, &file);
        let prover = Prover::new(&pk, &file, &tags).unwrap();
        let challenge = Challenge::random(&mut rng);
        let (mut serial, mut drawn) = (rng.clone(), rng);

        let mask = draw_scalars(&mut drawn, 1);
        let proof = prover.prove_private(&mut JobStream(&mask), &challenge);
        assert_eq!(proof, prover.prove_private(&mut serial, &challenge));
        assert_eq!(serial.next_u64(), drawn.next_u64());

        let meta = FileMeta {
            name: file.name,
            num_chunks: file.num_chunks(),
            k: params.k,
        };
        let bad = PrivateProof {
            y_prime: proof.y_prime + Fr::one(),
            ..proof
        };
        let items = [proof, bad, proof].map(|proof| BatchItem {
            pk: &pk,
            meta,
            challenge,
            proof,
        });
        let auditor = Auditor::new();
        let weights = draw_scalars(&mut drawn, items.len());
        let flags = auditor.verify_private_each(&mut JobStream(&weights), &items);
        assert_eq!(flags, auditor.verify_private_each(&mut serial, &items));
        assert_eq!(flags, [true, false, true]);
        assert_eq!(serial.next_u64(), drawn.next_u64());
    }

    /// A job that draws more than was drawn for it stops: it never
    /// reads zeros, which would be a zero batch weight or mask.
    #[test]
    #[should_panic(expected = "a job read 64 bytes with 63 drawn for it")]
    fn job_streams_refuse_to_read_past_their_draws() {
        use dsaudit_algebra::{Field, Fr};
        let drawn = [7u8; 127];
        let mut stream = JobStream(&drawn);
        let _first = Fr::random(&mut stream);
        let _second = Fr::random(&mut stream);
    }

    /// The audit phase proves and verifies as parallel jobs on streams
    /// drawn serially, so a faulty run gives the same report run over
    /// run.
    #[test]
    fn reports_repeat() {
        let cfg = || SimConfig {
            owners: 3,
            faults: FaultRates {
                corrupt: 0.1,
                drop: 0.05,
                withhold: 0.05,
                transport: 0.1,
            },
            ..tiny_config()
        };
        let [report, again] = [(); 2].map(|()| Simulation::new(cfg()).run());
        assert_eq!(report.to_json(), again.to_json());
        assert!(report.injected_faults > 0, "the schedule must inject faults");
        assert_eq!((report.false_accepts, report.false_rejects), (0, 0));
    }

    /// Every failed round of a faulty share fails as its kind:
    /// `Expired` when no proof was posted, `Reject` when a corrupt
    /// share's proof was. At the default config (churn and faults), and
    /// with all four fault classes on the primary path and all three
    /// shadow lanes.
    #[test]
    fn failed_rounds_fail_as_their_kind() {
        use dsaudit_backend::BackendId;
        let report = Simulation::new(SimConfig::default()).run();
        assert!(report.failures > 0, "the default schedule fails rounds");
        assert_eq!(report.wrong_kind_failures, 0);
        let cfg = SimConfig {
            backends: BackendId::ALL.to_vec(),
            faults: FaultRates {
                corrupt: 0.15,
                drop: 0.1,
                withhold: 0.1,
                transport: 0.1,
            },
            ..tiny_config()
        };
        let report = Simulation::new(cfg).run();
        assert!(report.failures > 0, "the schedule must fail rounds");
        assert_eq!(report.wrong_kind_failures, 0);
        assert_eq!(report.backend_lanes.len(), 3);
        for lane in &report.backend_lanes {
            assert!(lane.failures > 0, "{}", lane.backend);
            assert_eq!(lane.wrong_kind_failures, 0, "{}", lane.backend);
        }
    }

    #[test]
    fn corrupt_share_is_detected_and_repaired() {
        let cfg = SimConfig {
            faults: FaultRates {
                corrupt: 0.2,
                drop: 0.0,
                withhold: 0.0,
                transport: 0.0,
            },
            epochs: 4,
            ..tiny_config()
        };
        let report = Simulation::new(cfg).run();
        assert!(report.injected_faults > 0, "faults must fire at 20%/share");
        assert_eq!(report.detected_faults, report.injected_faults);
        assert_eq!(report.false_accepts, 0);
        assert_eq!(report.false_rejects, 0);
        assert!(report.repairs >= report.injected_faults);
        assert_eq!(report.files_lost, 0);
        assert_eq!(report.files_intact, 1);
    }

    /// The issue's acceptance scenario: one run drives all three
    /// backends through the identical fault schedule, and every lane's
    /// verdict stream matches ground truth exactly — zero false accepts
    /// and zero false rejects per backend.
    #[test]
    fn backend_lanes_agree_with_ground_truth_under_faults() {
        use dsaudit_backend::BackendId;
        let cfg = SimConfig {
            backends: BackendId::ALL.to_vec(),
            faults: FaultRates {
                corrupt: 0.15,
                drop: 0.1,
                withhold: 0.1,
                transport: 0.0,
            },
            ..tiny_config()
        };
        let report = Simulation::new(cfg).run();
        assert!(report.injected_faults > 0, "the schedule must inject faults");
        assert_eq!(report.false_accepts, 0);
        assert_eq!(report.false_rejects, 0);
        assert_eq!(report.backend_lanes.len(), 3);
        for lane in &report.backend_lanes {
            assert_eq!(lane.false_accepts, 0, "{}: soundness violated", lane.backend);
            assert_eq!(lane.false_rejects, 0, "{}: completeness violated", lane.backend);
            // with both streams error-free, each lane's verdicts equal
            // the primary pairing path's verdicts round for round
            assert_eq!(lane.audits, report.audits, "{}", lane.backend);
            assert_eq!(lane.passes, report.passes, "{}", lane.backend);
            assert_eq!(lane.failures, report.failures, "{}", lane.backend);
            assert!(lane.gas > 0, "{}: lanes meter gas", lane.backend);
            assert!(lane.proof_bytes > 0, "{}: proofs hit the chain", lane.backend);
            assert!(lane.prover_calls > 0, "{}: proving really ran", lane.backend);
        }
        // the schemes differ where they should: merkle proofs are the
        // big ones, the two constant-size schemes are not
        let by_name = |n: &str| {
            report
                .backend_lanes
                .iter()
                .find(|l| l.backend == n)
                .expect("lane present")
        };
        assert!(
            by_name("merkle").proof_bytes_per_round()
                > by_name("groth16").proof_bytes_per_round(),
            "merkle paths outweigh a 128-byte groth16 proof"
        );
    }
}
