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
//!    per-shard auditors settle all posted proofs with one batched
//!    pairing product each and post verdicts on chain (timeouts settle
//!    at the `Verify` trigger). Shard `o % shards` holds every share of
//!    owner `o`, so a shard's batch pairs `1 + 2 * (its owner keys)`
//!    points; a rejected batch finds its bad proofs by bisection
//!    ([`Auditor::verify_private_each`]).
//! 4. **Repair** — every share whose round failed is reconstructed
//!    from surviving shares, re-placed on the DHT-nearest free
//!    provider, and its contract migrated to the new holder.
//! 5. **Accounting** — gas, mined bytes and chain utilization are
//!    *measured* from the blocks this epoch produced.
//!
//! When the config lists [`backends`](crate::SimConfig::backends),
//! every share additionally carries one *shadow* contract per listed
//! backend — the same [`AuditContract`] type, deployed through the same
//! helper, verifying on-contract instead of through a shard auditor —
//! driven through the identical challenge and fault schedule: one run
//! compares the schemes head to head (per-backend verdict accuracy,
//! metered gas, proof bytes).
//!
//! Determinism: one seeded RNG drives keys, challenges, proof masking,
//! churn and faults; every collection iterated is ordered; and no clock
//! is read — every contract meters verification at the chain's declared
//! cost ([`GasSchedule::verify_gas`](dsaudit_chain::gas::GasSchedule::verify_gas)).
//! Two runs of the same config, shadow lanes included, yield
//! byte-for-byte identical reports.

use std::collections::BTreeMap;

use dsaudit_backend::{
    AuditBackend, BackendId, Groth16MerkleBackend, MerkleBackend, PairingBackend, ProverKit,
    Verifier,
};
use dsaudit_chain::beacon::TrustedBeacon;
use dsaudit_chain::chain::Blockchain;
use dsaudit_chain::types::{eth, Address, Transaction, TxKind, TxStatus, Wei};
use dsaudit_contract::{Agreement, AuditContract};
use dsaudit_core::batch::BatchItem;
use dsaudit_core::{Auditor, Challenge, Codec, DataOwner, FileMeta, PrivateProof, Prover};
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
/// an [`AuditContract`] per share plus the lane's running totals.
struct ShadowLane {
    /// The lane's backend, sized for this run's shares; it sets up
    /// every slot and answers every round.
    backend: Box<dyn AuditBackend>,
    /// Parallel to `Simulation::placements`.
    slots: Vec<ShadowSlot>,
    audits: u64,
    passes: u64,
    failures: u64,
    false_accepts: u64,
    false_rejects: u64,
    prover_calls: u64,
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
    auditors: Vec<Auditor>,
    auditor_addrs: Vec<Address>,
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

        // shard auditors (off-chain handles + on-chain accounts)
        let auditors: Vec<Auditor> = (0..cfg.shards).map(|_| Auditor::new()).collect();
        let auditor_addrs: Vec<Address> = (0..cfg.shards)
            .map(|s| {
                let addr = Address::from_label(&format!("sim/auditor-{s}"));
                chain.fund_account(addr, eth(1));
                addr
            })
            .collect();

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
            auditors,
            auditor_addrs,
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
            .map(|&id| ShadowLane {
                backend: Self::lane_backend(&cfg, id),
                slots: Vec::new(),
                audits: 0,
                passes: 0,
                failures: 0,
                false_accepts: 0,
                false_rejects: 0,
                prover_calls: 0,
            })
            .collect();
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
                    let agreement = Agreement {
                        owner: self.owners[o].addr,
                        provider: self.roster[slot].addr,
                        num_audits: cfg.epochs as u64,
                        audit_interval_secs: cfg.epoch_secs,
                        prove_deadline_secs: cfg.prove_deadline_secs,
                        reward_per_audit: cfg.reward_per_audit,
                        penalty_per_fail: cfg.penalty_per_fail,
                        owner_deposit: cfg.owner_deposit(),
                        provider_deposit: cfg.provider_deposit(),
                    };
                    // primary lane: outsourced through the role API,
                    // settled by the batch auditor of the owner's shard
                    let contract = self.deploy_contract(
                        &format!("sim/o{o}f{fi}s{share}"),
                        agreement,
                        PairingBackend::verifier_for(bundle.pk.clone(), meta)
                            .expect("share metadata is auditable"),
                        Some(self.auditor_addrs[o % cfg.shards]),
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
                        let addr = self.deploy_contract(
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
        self.mine_ok("setup");
        self.report.setup_gas = self.chain.total_gas_used();
    }

    /// Deploys one [`AuditContract`] around `verifier` and queues its
    /// negotiate → ack → deposits (mined with the rest of the setup
    /// block). Every lane deploys through here; `batch_auditor` is what
    /// tells the primary lane (verdicts from its shard auditor) from a
    /// shadow lane (on-contract verification). Verification is metered
    /// at the chain's declared cost either way.
    fn deploy_contract(
        &mut self,
        label: &str,
        agreement: Agreement,
        verifier: Box<dyn Verifier>,
        batch_auditor: Option<Address>,
    ) -> Address {
        let mut contract = AuditContract::new(agreement, verifier);
        if let Some(auditor) = batch_auditor {
            contract = contract.with_batch_auditor(auditor);
        }
        let addr = self.chain.deploy(label, Box::new(contract));
        self.submit_call(agreement.owner, addr, "negotiate", Vec::new(), 0);
        self.submit_call(agreement.provider, addr, "acked", Vec::new(), 0);
        self.submit_call(agreement.owner, addr, "freeze", Vec::new(), agreement.owner_deposit);
        self.submit_call(
            agreement.provider,
            addr,
            "freeze",
            Vec::new(),
            agreement.provider_deposit,
        );
        addr
    }

    fn submit_call(&mut self, from: Address, to: Address, method: &str, data: Vec<u8>, value: Wei) {
        self.chain.submit(Transaction {
            from,
            to,
            value,
            kind: TxKind::Call {
                method: method.into(),
                data,
            },
        });
    }

    /// Mines a block and asserts every transaction in it succeeded —
    /// any revert in the engine's own traffic is a harness bug, not a
    /// simulated outcome.
    fn mine_ok(&mut self, context: &str) {
        let block = self.chain.mine_block();
        for (tx, receipt) in &block.txs {
            assert_eq!(
                receipt.status,
                TxStatus::Success,
                "{context}: tx {:?} reverted: {:?}",
                tx.kind,
                receipt.revert_reason
            );
        }
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
        self.submit_call(owner_addr, contract, "migrate", new_addr.0.to_vec(), 0);
        self.submit_call(
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
        let (expected, verdicts) = self.audit_phase(&mut es);
        self.settle_phase(&injected, &expected, &verdicts, &mut es);
        self.repair_phase(epoch, &verdicts, &mut es);

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
            self.mine_ok("graceful-leave migrations");
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
    /// bytes actually stored, `Verify` triggers, then per-shard batched
    /// verdicts. Returns, per placement, the expected outcome (ground
    /// truth) and the contract-settled verdict.
    fn audit_phase(&mut self, es: &mut EpochStats) -> (Vec<Option<bool>>, Vec<Option<bool>>) {
        let audit_mark = self.chain.block_count();
        self.chain.advance_time(self.cfg.epoch_secs + 1);
        self.mine_ok("challenge triggers");

        // collect each contract's challenge from the event log; the raw
        // beacon doubles as the shadow lanes' backend-agnostic challenge
        let mut challenges: BTreeMap<Address, Challenge> = BTreeMap::new();
        let mut beacons: BTreeMap<Address, [u8; 48]> = BTreeMap::new();
        for ev in self.chain.events_since(audit_mark) {
            if ev.name == "challenged" {
                let beacon: [u8; 48] = ev.data[..48].try_into().expect("48-byte beacon");
                challenges.insert(ev.contract, Challenge::from_beacon(&beacon));
                beacons.insert(ev.contract, beacon);
            }
        }

        // providers respond over their *stored* bytes
        let mut expected: Vec<Option<bool>> = vec![None; self.placements.len()];
        let mut posted: Vec<Option<(Challenge, PrivateProof)>> =
            vec![None; self.placements.len()];
        for pl_id in 0..self.placements.len() {
            let pl = &self.placements[pl_id];
            let Some(challenge) = challenges.get(&pl.contract).copied() else {
                continue; // contract already completed
            };
            let online = self.roster[pl.provider_slot].online;
            expected[pl_id] =
                Some(pl.status == ShareStatus::Good && online && !pl.withhold);
            let responds = online && !pl.withhold && pl.status != ShareStatus::Missing;
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
            let prover = Prover::from_stored(pk, blob, self.cfg.audit, &file.tags[pl.share])
                .expect("share shapes are fixed");
            let proof = prover.prove_private(&mut self.rng, &challenge);
            posted[pl_id] = Some((challenge, proof));
            let mut calls = vec![(
                self.roster[pl.provider_slot].addr,
                pl.contract,
                PairingBackend::frame(&proof).encode(),
            )];
            // shadow lanes prove over the *same* stored bytes for their
            // own contracts' beacons
            for lane in &mut self.shadows {
                let slot = &lane.slots[pl_id];
                let Some(lane_beacon) = beacons.get(&slot.contract) else {
                    continue;
                };
                let lane_proof = lane
                    .backend
                    .prove(&mut self.rng, &slot.kit, blob, lane_beacon)
                    .expect("a same-shape blob always proves");
                calls.push((slot.provider, slot.contract, lane_proof.encode()));
                lane.prover_calls += 1;
            }
            for (sender, contract, data) in calls {
                self.submit_call(sender, contract, "prove", data, 0);
            }
        }
        self.mine_ok("proof submissions");

        // deadline: timeouts settle, posted proofs park awaiting verdicts
        self.chain.advance_time(self.cfg.prove_deadline_secs + 1);
        self.mine_ok("verify triggers");

        // per-shard batched settlement: a shard holds whole owner keys
        for shard in 0..self.cfg.shards {
            let members: Vec<usize> = (0..self.placements.len())
                .filter(|&pl| {
                    let owner = self.files[self.placements[pl].file].owner;
                    owner % self.cfg.shards == shard && posted[pl].is_some()
                })
                .collect();
            if members.is_empty() {
                continue;
            }
            let items: Vec<BatchItem<'_>> = members
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
            let flags = self.auditors[shard].verify_private_each(&mut self.rng, &items);
            drop(items);
            for (&pl, flag) in members.iter().zip(flags) {
                let (auditor, contract) = (self.auditor_addrs[shard], self.placements[pl].contract);
                self.submit_call(auditor, contract, "verdict", vec![u8::from(flag)], 0);
            }
        }
        self.mine_ok("verdict submissions");

        // read back the settled verdicts
        let mut settled: BTreeMap<Address, bool> = BTreeMap::new();
        for ev in self.chain.events_since(audit_mark) {
            match ev.name.as_str() {
                "pass" => {
                    settled.insert(ev.contract, true);
                }
                "fail" => {
                    settled.insert(ev.contract, false);
                }
                _ => {}
            }
        }
        let verdicts: Vec<Option<bool>> = self
            .placements
            .iter()
            .enumerate()
            .map(|(pl_id, pl)| {
                expected[pl_id]?;
                Some(
                    *settled
                        .get(&pl.contract)
                        .expect("every challenged round settles within its epoch"),
                )
            })
            .collect();
        // score each shadow lane against the same ground truth the
        // primary path is scored against — a corrupted share must fail
        // (and a healthy one pass) under *every* backend
        for li in 0..self.shadows.len() {
            for (pl_id, exp) in expected.iter().enumerate() {
                let Some(exp) = *exp else {
                    continue;
                };
                let got = *settled
                    .get(&self.shadows[li].slots[pl_id].contract)
                    .expect("every challenged shadow round settles within its epoch");
                let lane = &mut self.shadows[li];
                lane.audits += 1;
                if got {
                    lane.passes += 1;
                } else {
                    lane.failures += 1;
                }
                match (exp, got) {
                    (true, false) => lane.false_rejects += 1,
                    (false, true) => lane.false_accepts += 1,
                    _ => {}
                }
            }
        }
        (expected, verdicts)
    }

    /// Compares contract verdicts against ground truth and updates the
    /// accuracy counters.
    fn settle_phase(
        &mut self,
        injected: &[(usize, FaultKind)],
        expected: &[Option<bool>],
        verdicts: &[Option<bool>],
        es: &mut EpochStats,
    ) {
        for pl_id in 0..self.placements.len() {
            let (Some(exp), Some(got)) = (expected[pl_id], verdicts[pl_id]) else {
                continue;
            };
            es.audits += 1;
            if got {
                es.passes += 1;
            } else {
                es.failures += 1;
            }
            match (exp, got) {
                (true, false) => {
                    // attribute the completeness violation: a healthy,
                    // served share failing *because the network lost a
                    // frame* is its own guarded counter — a dropped
                    // frame must be a retry, never a verdict
                    let transport_only = injected
                        .iter()
                        .any(|&(pl, k)| pl == pl_id && k == FaultKind::Transport)
                        && !injected
                            .iter()
                            .any(|&(pl, k)| pl == pl_id && k.is_provider_fault());
                    if transport_only {
                        self.report.transport_false_rejects += 1;
                        dsaudit_obs::counter_inc("sim.transport_false_rejects");
                    } else {
                        self.report.false_rejects += 1;
                        dsaudit_obs::counter_inc("sim.false_rejects");
                    }
                }
                (false, true) => {
                    self.report.false_accepts += 1;
                    dsaudit_obs::counter_inc("sim.false_accepts");
                }
                (false, false) => {
                    if injected
                        .iter()
                        .any(|&(pl, k)| pl == pl_id && k.is_provider_fault())
                    {
                        es.detected += 1;
                    }
                }
                (true, true) => {}
            }
        }
    }

    /// Reconstructs and re-places every share whose round failed, and
    /// migrates the contracts onto the new holders.
    fn repair_phase(&mut self, epoch: u32, verdicts: &[Option<bool>], es: &mut EpochStats) {
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
                    verdicts[pl_id] == Some(false)
                        || self.placements[pl_id].status != ShareStatus::Good
                })
                .map(|(share, _)| share)
                .collect();
            if bad.is_empty() {
                continue;
            }
            let mut manifest = std::mem::replace(
                &mut self.files[f].manifest,
                FileManifest {
                    content_id: NodeId([0; 32]),
                    plaintext_len: 0,
                    ciphertext_len: 0,
                    placements: Vec::new(),
                    code: (0, 0),
                    nonce: [0; 12],
                },
            );
            let outcome = self.net.repair(&mut manifest, &bad);
            self.files[f].manifest = manifest;
            match outcome {
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
            self.mine_ok("repair migrations");
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
            let (mut gas, mut proof_bytes) = (0u64, 0u64);
            for s in &lane.slots {
                if let Some(&(g, b)) = metered.get(&s.contract) {
                    gas += g;
                    proof_bytes += b;
                }
            }
            self.report.backend_lanes.push(BackendLane {
                backend: lane.backend.id().name().to_string(),
                audits: lane.audits,
                passes: lane.passes,
                failures: lane.failures,
                false_accepts: lane.false_accepts,
                false_rejects: lane.false_rejects,
                gas,
                proof_bytes,
                prover_calls: lane.prover_calls,
            });
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
            shards: 2,
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
