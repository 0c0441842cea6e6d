//! Seeded soak runner: hundreds of audit rounds across named fault
//! schedules, checked against the lifecycle invariant.
//!
//! Every opened round must terminate in exactly one of `Accept`,
//! `Reject` or `Expired` — no challenge lost, no double
//! settlement. The report is a pure function of the seed: running the
//! same [`SoakConfig`] twice yields byte-identical JSON, which CI
//! exploits to catch nondeterminism as well as lifecycle violations.
//!
//! The schedules share nothing — each builds its own cluster, transport,
//! beacon and holdings from the seed — so they run side by side through
//! `algebra::par::par_jobs`, as many at once as there are CPUs, and the
//! report lists them in schedule order whatever order they finish in.
//! Each schedule is an obs job: under a virtual-clock registry its
//! spans, events and counters land in one block per schedule, in
//! schedule order, and its ticks move its own clock, which starts where
//! the caller's stood.

#![deny(missing_docs)]

use dsaudit_algebra::par::par_jobs;
use dsaudit_chain::beacon::TrustedBeacon;
use dsaudit_core::{AuditParams, DataOwner, StorageProvider};
use rand::{rngs::StdRng, SeedableRng};

use crate::auditor::{AuditorConfig, AuditorNode};
use crate::harness::Cluster;
use crate::lifecycle::RetryPolicy;
use crate::provider::{ProviderConfig, ProviderNode};
use crate::transport::{
    InProcTransport, NetFaultConfig, PartitionWindow, PeerId, TransportStats,
};

/// Soak dimensions.
#[derive(Clone, Copy, Debug)]
pub struct SoakConfig {
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Total audit rounds (sessions), split evenly across the schedules.
    pub sessions: u32,
    /// Providers per cluster.
    pub providers: u32,
    /// Round TTL, virtual ms.
    pub ttl_ms: u64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        Self {
            seed: 0x50a4_da3e,
            sessions: 504,
            providers: 3,
            ttl_ms: 20_000,
        }
    }
}

/// Per-schedule outcome and fault counters.
#[derive(Clone, Debug)]
pub struct ScheduleReport {
    /// Schedule name.
    pub name: &'static str,
    /// Rounds opened under this schedule.
    pub sessions: u64,
    /// Rounds settled with an accepted proof.
    pub settled_accept: u64,
    /// Rounds settled with a rejected proof.
    pub settled_reject: u64,
    /// Rounds expired into the penalty path.
    pub expired: u64,
    /// Proof retransmissions by the providers.
    pub retries: u64,
    /// Always 0: providers no longer shed work, because no challenge
    /// frame arrives for them to refuse — a provider opens each round
    /// itself. Kept (and left out of [`SoakReport::to_json`]) because
    /// the benchmark package reads it.
    pub overloaded: u64,
    /// Corrupt frames seen (auditor + providers).
    pub corrupt_frames: u64,
    /// Proofs arriving after their round was already terminal.
    pub late_proofs: u64,
    /// Equals [`retries`](Self::retries): every re-sent proof is a
    /// retransmission of the one proof a provider computed. Kept (and
    /// left out of [`SoakReport::to_json`]) because the benchmark
    /// package reads it.
    pub proofs_resent: u64,
    /// Transport fault-layer counters.
    pub transport: TransportStats,
    /// Virtual ms the schedule took to quiesce.
    pub virtual_ms: u64,
    /// Lifecycle invariant violations (empty = invariant holds).
    pub violations: Vec<String>,
}

/// The full soak result.
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// Seed the run derived from.
    pub seed: u64,
    /// One entry per fault schedule.
    pub schedules: Vec<ScheduleReport>,
}

impl SoakReport {
    /// Whether every schedule upheld the lifecycle invariant.
    pub fn ok(&self) -> bool {
        self.schedules.iter().all(|s| s.violations.is_empty())
    }

    /// Total sessions across schedules.
    pub fn total_sessions(&self) -> u64 {
        self.schedules.iter().map(|s| s.sessions).sum()
    }

    /// All violations, prefixed with their schedule name.
    pub fn violations(&self) -> Vec<String> {
        self.schedules
            .iter()
            .flat_map(|s| s.violations.iter().map(|v| format!("{}: {v}", s.name)))
            .collect()
    }

    /// Stable JSON rendering (byte-identical across runs of the same
    /// config — the reproducibility contract CI checks).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"total_sessions\": {},\n", self.total_sessions()));
        out.push_str(&format!("  \"ok\": {},\n", self.ok()));
        out.push_str("  \"schedules\": [\n");
        for (i, s) in self.schedules.iter().enumerate() {
            let t = s.transport;
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": \"{}\",\n", s.name));
            out.push_str(&format!("      \"sessions\": {},\n", s.sessions));
            out.push_str(&format!("      \"settled_accept\": {},\n", s.settled_accept));
            out.push_str(&format!("      \"settled_reject\": {},\n", s.settled_reject));
            out.push_str(&format!("      \"expired\": {},\n", s.expired));
            out.push_str(&format!("      \"retries\": {},\n", s.retries));
            out.push_str(&format!("      \"corrupt_frames\": {},\n", s.corrupt_frames));
            out.push_str(&format!("      \"late_proofs\": {},\n", s.late_proofs));
            out.push_str(&format!(
                "      \"transport\": {{\"sent\": {}, \"delivered\": {}, \"dropped\": {}, \"partitioned\": {}, \"duplicated\": {}, \"delayed\": {}, \"reordered\": {}, \"corrupted\": {}}},\n",
                t.sent, t.delivered, t.dropped, t.partitioned, t.duplicated, t.delayed, t.reordered, t.corrupted
            ));
            out.push_str(&format!("      \"virtual_ms\": {},\n", s.virtual_ms));
            out.push_str(&format!(
                "      \"violations\": [{}]\n",
                s.violations
                    .iter()
                    .map(|v| format!("\"{}\"", v.replace('"', "'")))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
            out.push_str(if i + 1 == self.schedules.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The three named fault schedules of the soak.
fn schedules(cfg: &SoakConfig) -> Vec<(&'static str, NetFaultConfig, bool)> {
    // (name, network faults, whether one provider holds corrupted data)
    let baseline = NetFaultConfig {
        drop_rate: 0.02,
        delay_rate: 0.10,
        max_extra_delay_ms: 40,
        duplicate_rate: 0.02,
        reorder_rate: 0.02,
        corrupt_rate: 0.02,
        ..NetFaultConfig::reliable(5)
    };
    let lossy = NetFaultConfig {
        drop_rate: 0.20,
        delay_rate: 0.30,
        max_extra_delay_ms: 250,
        duplicate_rate: 0.10,
        reorder_rate: 0.10,
        corrupt_rate: 0.10,
        ..NetFaultConfig::reliable(8)
    };
    // the last provider is cut off for the entire run: all its
    // rounds must expire into the penalty path
    let partitioned = NetFaultConfig {
        drop_rate: 0.05,
        delay_rate: 0.10,
        max_extra_delay_ms: 60,
        duplicate_rate: 0.05,
        reorder_rate: 0.05,
        corrupt_rate: 0.05,
        partitions: vec![PartitionWindow {
            peer: cfg.providers,
            from: 0,
            until: u64::MAX,
        }],
        ..NetFaultConfig::reliable(5)
    };
    vec![
        ("baseline", baseline, false),
        ("lossy", lossy, true),
        ("partitioned", partitioned, false),
    ]
}

fn provider_handle(seed: u64, corrupt: bool) -> StorageProvider {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = AuditParams::new(4, 3).expect("static soak params");
    let owner = DataOwner::generate(&mut rng, params);
    let bundle = owner.outsource(&mut rng, &[0xabu8; 700]);
    let mut provider = StorageProvider::ingest(&mut rng, bundle).expect("honest soak bundle");
    if corrupt {
        // zero every chunk so any sampled subset detects the loss
        for i in 0..provider.meta().num_chunks {
            provider.drop_chunk(i);
        }
    }
    provider
}

fn run_schedule(
    cfg: &SoakConfig,
    index: u64,
    name: &'static str,
    faults: NetFaultConfig,
    corrupt_one: bool,
    sessions: u32,
) -> ScheduleReport {
    let _span = dsaudit_obs::span("node.schedule");
    dsaudit_obs::point("node.schedule", name);
    let auditor_cfg = AuditorConfig { ttl_ms: cfg.ttl_ms };
    let transport = InProcTransport::new(cfg.seed ^ (index.wrapping_mul(0x9e37)), faults);
    // the auditor's batch weights come from its own seed, which the
    // providers never see
    let auditor = AuditorNode::new(0, auditor_cfg, cfg.seed ^ (0xa0d1 << 32) ^ index);
    let mut cluster = Cluster::new(transport, auditor);
    let mut beacon = TrustedBeacon::new(&cfg.seed.to_le_bytes());
    let provider_cfg = ProviderConfig {
        prove_ms: 40,
        retry: RetryPolicy {
            base_ms: 200,
            max_backoff_ms: 4_000,
            max_retries: 8,
        },
    };
    for p in 1..=cfg.providers {
        // the "lossy" schedule gives the second provider corrupted
        // holdings, so rejects flow through the same faulty network
        let corrupt = corrupt_one && p == 2;
        let handle = provider_handle(cfg.seed ^ (index << 8) ^ p as u64, corrupt);
        cluster
            .auditor
            .register_target(p as PeerId, handle.public_key().clone(), handle.meta())
            .expect("ingested soak holdings are auditable");
        cluster.add_provider(ProviderNode::new(
            p as PeerId,
            handle,
            provider_cfg,
            cfg.seed ^ (p as u64) << 16,
        ));
    }

    // open rounds in waves of a dozen per provider, then let the
    // cluster quiesce before the next wave
    let wave = (cfg.providers * 12).max(1);
    let mut issued = 0u32;
    let mut beacon_round = index * 1_000_000; // disjoint per schedule
    let mut lost = false;
    while issued < sessions {
        let batch = wave.min(sessions - issued);
        for i in 0..batch {
            let provider = 1 + (issued + i) % cfg.providers;
            cluster.issue(provider as PeerId, &mut beacon, beacon_round);
            beacon_round += 1;
        }
        issued += batch;
        // horizon: every round's ttl plus generous slack
        let horizon = cluster.now + cfg.ttl_ms + 60_000;
        if !cluster.run_until_settled(horizon) {
            lost = true;
            break;
        }
    }

    let mut violations = cluster.auditor.audit_invariants();
    if lost {
        violations.push("event loop hit its horizon with rounds still open".into());
    }
    let opened = cluster.auditor.tracks().len() as u64;
    if opened != sessions as u64 {
        violations.push(format!("opened {opened} of {sessions} planned sessions"));
    }
    let a = cluster.auditor.stats;
    let (settled_accept, settled_reject, expired, _) = cluster.auditor.outcome_counts();
    let (retries, corrupt_p) = cluster
        .providers
        .values()
        .fold((0, 0), |(r, c), p| (r + p.stats.retries, c + p.stats.corrupt_frames));
    ScheduleReport {
        name,
        sessions: opened,
        settled_accept,
        settled_reject,
        expired,
        retries,
        overloaded: 0,
        corrupt_frames: a.corrupt_frames + corrupt_p,
        late_proofs: a.late_proofs,
        proofs_resent: retries,
        transport: cluster.transport.stats,
        virtual_ms: cluster.now,
        violations,
    }
}

/// Runs the full soak: `cfg.sessions` audit rounds split across
/// the three fault schedules, which run side by side as
/// [`par_jobs`] jobs; the reports come back in schedule order.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    let plans = schedules(cfg);
    let count = plans.len() as u32;
    let schedules = par_jobs(plans.len(), |i| {
        let (name, faults, corrupt_one) = plans[i].clone();
        // the first `sessions % count` schedules take one session more
        let sessions = cfg.sessions / count + u32::from((i as u32) < cfg.sessions % count);
        run_schedule(cfg, i as u64, name, faults, corrupt_one, sessions)
    });
    SoakReport {
        seed: cfg.seed,
        schedules,
    }
}
