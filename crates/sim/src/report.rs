//! The simulation's measured output: per-epoch series and run totals,
//! with stable text and JSON renderings.
//!
//! Every field is either an exact counter or derived from exact
//! counters with fixed-precision formatting, so two runs of the same
//! [`SimConfig`](crate::SimConfig) render **byte-for-byte identical**
//! reports, head-to-head [`BackendLane`]s included — the property the
//! reproducibility suite asserts. No field is a clock reading.

/// Head-to-head totals for one shadow audit lane: a second audit
/// contract per share on the lane's backend, driven through the same
/// challenge and fault schedule as the primary pairing path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BackendLane {
    /// Stable backend name (`pairing`, `merkle`, `groth16`).
    pub backend: String,
    /// Rounds this lane settled.
    pub audits: u64,
    /// Rounds passed.
    pub passes: u64,
    /// Rounds failed (bad proof or timeout).
    pub failures: u64,
    /// Rounds passed although the share was faulty (must be zero).
    pub false_accepts: u64,
    /// Rounds failed although the share was healthy and served (must
    /// be zero).
    pub false_rejects: u64,
    /// Rounds of a faulty share that failed as the other kind: `Reject`
    /// where no proof was posted, or `Expired` where a corrupt share's
    /// proof was (must be zero; not printed).
    pub wrong_kind_failures: u64,
    /// Gas the lane's contracts metered (proof storage at `prove` +
    /// verification compute at the `Verify` trigger, at the declared
    /// verification cost).
    pub gas: u64,
    /// Proof bytes persisted on chain by the lane.
    pub proof_bytes: u64,
    /// Proofs actually computed (timeout rounds prove nothing).
    pub prover_calls: u64,
}

impl BackendLane {
    /// Mean metered gas per settled round.
    pub fn gas_per_round(&self) -> u64 {
        if self.audits == 0 {
            return 0;
        }
        self.gas / self.audits
    }

    /// Mean on-chain proof size per computed proof.
    pub fn proof_bytes_per_round(&self) -> u64 {
        if self.prover_calls == 0 {
            return 0;
        }
        self.proof_bytes / self.prover_calls
    }
}

/// One epoch's measurements.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: u32,
    /// Providers online at the end of the epoch.
    pub providers_online: usize,
    /// Fresh providers that joined.
    pub joins: usize,
    /// Graceful departures.
    pub leaves: usize,
    /// Abrupt crashes.
    pub crashes: usize,
    /// Audit rounds settled on chain this epoch.
    pub audits: u32,
    /// Rounds that passed.
    pub passes: u32,
    /// Rounds that failed (bad proof or timeout).
    pub failures: u32,
    /// Provider faults injected this epoch (corrupt + drop + withhold).
    pub injected: u32,
    /// Injected provider faults whose audit round failed (caught this
    /// epoch).
    pub detected: u32,
    /// Network faults injected this epoch (proof frames lost in
    /// flight). Accounted apart from provider faults: these must be
    /// absorbed by retries, not detected by verdicts.
    pub transport_faults: u32,
    /// Proof frames retransmitted by the node layer after a transport
    /// fault (each one a retry that kept a verdict from happening).
    pub transport_retries: u32,
    /// Shares reconstructed and re-placed.
    pub repairs: u32,
    /// Contract migrations executed (repair re-homes + graceful-leave
    /// hand-offs).
    pub migrations: u32,
    /// Bytes moved by repair and migration (survivor downloads +
    /// re-uploads + hand-offs).
    pub repair_traffic_bytes: u64,
    /// Smallest number of healthy live shares any file had at the end
    /// of the epoch (durability margin; `>= k` means no file is at
    /// risk).
    pub min_live_shares: usize,
    /// Gas consumed by everything mined this epoch.
    pub gas: u64,
    /// Bytes mined this epoch.
    pub chain_bytes: usize,
    /// Mined bytes over the capacity model's block space for the
    /// epoch's wall-clock span.
    pub utilization: f64,
}

/// Aggregate outcome of a whole run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimReport {
    /// The driving seed.
    pub seed: u64,
    /// Epochs executed.
    pub epochs: u32,
    /// Initial provider population.
    pub initial_providers: usize,
    /// Data owners.
    pub owners: usize,
    /// Files uploaded.
    pub files: usize,
    /// Erasure code `(k, n)`.
    pub erasure: (usize, usize),
    /// Audit parameters `(s, k)` per share.
    pub audit_params: (usize, usize),
    /// Per-epoch series, in order.
    pub per_epoch: Vec<EpochStats>,

    /// Total audit rounds settled.
    pub audits: u64,
    /// Rounds passed.
    pub passes: u64,
    /// Rounds failed.
    pub failures: u64,
    /// Rounds that passed although the share was faulty/unavailable
    /// (soundness violations; must be zero).
    pub false_accepts: u64,
    /// Rounds that failed although the share was healthy and served
    /// (completeness violations; must be zero). Excludes
    /// transport-attributed failures, which have their own counter.
    pub false_rejects: u64,
    /// Rounds of a faulty share that failed as the other kind: `Reject`
    /// where no proof was posted (offline, withheld or missing share),
    /// or `Expired` where a corrupt share's proof was (must be zero).
    /// Not printed, so the renderings stay those of a run before it.
    pub wrong_kind_failures: u64,
    /// Provider faults (corrupt + drop + withhold) injected across the
    /// run.
    pub injected_faults: u64,
    /// Injected provider faults detected by a failed audit in their
    /// epoch.
    pub detected_faults: u64,
    /// Network faults injected across the run (proof frames lost in
    /// flight, recovered by node-layer retries).
    pub transport_faults: u64,
    /// Proof frames retransmitted after a transport fault.
    pub transport_retries: u64,
    /// Rounds a healthy, served share *failed* because the network lost
    /// a frame (must be zero: a dropped frame is a retry, not a
    /// verdict). Guarded separately from [`false_rejects`] so provider
    /// misdetection and network misattribution cannot mask each other.
    ///
    /// [`false_rejects`]: SimReport::false_rejects
    pub transport_false_rejects: u64,
    /// Shares reconstructed and re-placed.
    pub repairs: u64,
    /// Contract migrations (repair + graceful hand-offs).
    pub migrations: u64,
    /// Bytes moved by repair and migration.
    pub repair_traffic_bytes: u64,
    /// Providers that joined after the start.
    pub joins: u64,
    /// Graceful departures.
    pub leaves: u64,
    /// Crashes.
    pub crashes: u64,
    /// Files that fell below `k` healthy shares and became
    /// unrecoverable.
    pub files_lost: u64,
    /// Files whose download at the end of the run matched the original
    /// plaintext exactly.
    pub files_intact: u64,
    /// Gas burned by network setup (uploads, deployments, deposits).
    pub setup_gas: u64,
    /// Gas burned across the whole run (setup included).
    pub total_gas: u64,
    /// Total chain size in bytes.
    pub chain_bytes: u64,
    /// Blocks mined.
    pub blocks: u64,
    /// Head-to-head shadow lanes, one per backend the config listed
    /// (empty for the default pairing-only run).
    pub backend_lanes: Vec<BackendLane>,
}

impl SimReport {
    /// Fraction of settled rounds that passed.
    pub fn pass_rate(&self) -> f64 {
        if self.audits == 0 {
            return 1.0;
        }
        self.passes as f64 / self.audits as f64
    }

    /// Mean gas per epoch (excluding setup).
    pub fn mean_epoch_gas(&self) -> u64 {
        if self.per_epoch.is_empty() {
            return 0;
        }
        self.per_epoch.iter().map(|e| e.gas).sum::<u64>() / self.per_epoch.len() as u64
    }

    /// Mean chain utilization across epochs.
    pub fn mean_utilization(&self) -> f64 {
        if self.per_epoch.is_empty() {
            return 0.0;
        }
        self.per_epoch.iter().map(|e| e.utilization).sum::<f64>() / self.per_epoch.len() as f64
    }

    /// Peak chain utilization across epochs.
    pub fn max_utilization(&self) -> f64 {
        self.per_epoch
            .iter()
            .map(|e| e.utilization)
            .fold(0.0, f64::max)
    }

    /// Human-readable summary plus the per-epoch table. Stable: equal
    /// reports render to equal strings.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "dsaudit-sim: seed {:#x}, {} epochs, {} providers (+{} joined, -{} left, -{} crashed), {} owners, {} files, {}-of-{} erasure, audit (s={}, k={})\n",
            self.seed,
            self.epochs,
            self.initial_providers,
            self.joins,
            self.leaves,
            self.crashes,
            self.owners,
            self.files,
            self.erasure.0,
            self.erasure.1,
            self.audit_params.0,
            self.audit_params.1,
        ));
        s.push_str(&format!(
            "rounds: {} settled, {} pass / {} fail (pass rate {:.4}); false accepts {}, false rejects {}\n",
            self.audits, self.passes, self.failures, self.pass_rate(), self.false_accepts, self.false_rejects,
        ));
        s.push_str(&format!(
            "faults: {} injected, {} detected; repairs {}, migrations {}, repair traffic {} bytes\n",
            self.injected_faults, self.detected_faults, self.repairs, self.migrations, self.repair_traffic_bytes,
        ));
        s.push_str(&format!(
            "transport: {} frames lost, {} retransmitted, {} false rejects (must be 0)\n",
            self.transport_faults, self.transport_retries, self.transport_false_rejects,
        ));
        s.push_str(&format!(
            "durability: {} files lost, {}/{} intact at end\n",
            self.files_lost, self.files_intact, self.files,
        ));
        s.push_str(&format!(
            "chain: {} blocks, {} bytes, {} gas total ({} setup, {} mean/epoch), utilization mean {:.4} max {:.4}\n",
            self.blocks,
            self.chain_bytes,
            self.total_gas,
            self.setup_gas,
            self.mean_epoch_gas(),
            self.mean_utilization(),
            self.max_utilization(),
        ));
        if !self.backend_lanes.is_empty() {
            s.push_str("backend lanes (shadow contracts, same fault schedule):\n");
            for l in &self.backend_lanes {
                s.push_str(&format!(
                    "  {:>8}: {} rounds, {} pass / {} fail, false accepts {}, false rejects {}, gas/round {}, proof bytes/round {}\n",
                    l.backend,
                    l.audits,
                    l.passes,
                    l.failures,
                    l.false_accepts,
                    l.false_rejects,
                    l.gas_per_round(),
                    l.proof_bytes_per_round(),
                ));
            }
        }
        s.push_str(
            "epoch | online | audits pass fail | inj det | repair migr | min-live | gas      | bytes  | util\n",
        );
        for e in &self.per_epoch {
            s.push_str(&format!(
                "{:>5} | {:>6} | {:>6} {:>4} {:>4} | {:>3} {:>3} | {:>6} {:>4} | {:>8} | {:>8} | {:>6} | {:.4}\n",
                e.epoch,
                e.providers_online,
                e.audits,
                e.passes,
                e.failures,
                e.injected,
                e.detected,
                e.repairs,
                e.migrations,
                e.min_live_shares,
                e.gas,
                e.chain_bytes,
                e.utilization,
            ));
        }
        s
    }

    /// Machine-readable rendering (hand-rolled, stable field order; the
    /// build environment has no serde). Byte-for-byte identical for
    /// identical runs.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"schema\": \"dsaudit-sim-v1\",\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"epochs\": {},\n", self.epochs));
        s.push_str(&format!(
            "  \"population\": {{ \"providers\": {}, \"owners\": {}, \"files\": {}, \"joins\": {}, \"leaves\": {}, \"crashes\": {} }},\n",
            self.initial_providers, self.owners, self.files, self.joins, self.leaves, self.crashes
        ));
        s.push_str(&format!(
            "  \"erasure\": [{}, {}],\n  \"audit_params\": [{}, {}],\n",
            self.erasure.0, self.erasure.1, self.audit_params.0, self.audit_params.1
        ));
        s.push_str(&format!(
            "  \"rounds\": {{ \"audits\": {}, \"passes\": {}, \"failures\": {}, \"false_accepts\": {}, \"false_rejects\": {}, \"pass_rate\": {:.6} }},\n",
            self.audits, self.passes, self.failures, self.false_accepts, self.false_rejects, self.pass_rate()
        ));
        s.push_str(&format!(
            "  \"faults\": {{ \"injected\": {}, \"detected\": {} }},\n",
            self.injected_faults, self.detected_faults
        ));
        s.push_str(&format!(
            "  \"transport\": {{ \"faults\": {}, \"retries\": {}, \"false_rejects\": {} }},\n",
            self.transport_faults, self.transport_retries, self.transport_false_rejects
        ));
        s.push_str(&format!(
            "  \"repair\": {{ \"repairs\": {}, \"migrations\": {}, \"traffic_bytes\": {} }},\n",
            self.repairs, self.migrations, self.repair_traffic_bytes
        ));
        s.push_str(&format!(
            "  \"durability\": {{ \"files_lost\": {}, \"files_intact\": {} }},\n",
            self.files_lost, self.files_intact
        ));
        s.push_str(&format!(
            "  \"chain\": {{ \"blocks\": {}, \"bytes\": {}, \"total_gas\": {}, \"setup_gas\": {}, \"mean_epoch_gas\": {}, \"mean_utilization\": {:.6}, \"max_utilization\": {:.6} }},\n",
            self.blocks, self.chain_bytes, self.total_gas, self.setup_gas,
            self.mean_epoch_gas(), self.mean_utilization(), self.max_utilization()
        ));
        s.push_str("  \"backend_lanes\": [\n");
        for (i, l) in self.backend_lanes.iter().enumerate() {
            let comma = if i + 1 == self.backend_lanes.len() { "" } else { "," };
            s.push_str(&format!(
                "    {{ \"backend\": \"{}\", \"audits\": {}, \"passes\": {}, \"failures\": {}, \"false_accepts\": {}, \"false_rejects\": {}, \"gas\": {}, \"gas_per_round\": {}, \"proof_bytes\": {}, \"proof_bytes_per_round\": {} }}{}\n",
                l.backend, l.audits, l.passes, l.failures, l.false_accepts, l.false_rejects,
                l.gas, l.gas_per_round(), l.proof_bytes, l.proof_bytes_per_round(), comma
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"per_epoch\": [\n");
        for (i, e) in self.per_epoch.iter().enumerate() {
            let comma = if i + 1 == self.per_epoch.len() { "" } else { "," };
            s.push_str(&format!(
                "    {{ \"epoch\": {}, \"online\": {}, \"audits\": {}, \"passes\": {}, \"failures\": {}, \"injected\": {}, \"detected\": {}, \"transport_faults\": {}, \"transport_retries\": {}, \"repairs\": {}, \"migrations\": {}, \"traffic\": {}, \"min_live\": {}, \"gas\": {}, \"bytes\": {}, \"utilization\": {:.6} }}{}\n",
                e.epoch, e.providers_online, e.audits, e.passes, e.failures, e.injected,
                e.detected, e.transport_faults, e.transport_retries, e.repairs, e.migrations,
                e.repair_traffic_bytes, e.min_live_shares, e.gas, e.chain_bytes, e.utilization,
                comma
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimReport {
        SimReport {
            seed: 7,
            epochs: 2,
            initial_providers: 8,
            owners: 2,
            files: 2,
            erasure: (3, 6),
            audit_params: (8, 4),
            per_epoch: vec![
                EpochStats {
                    epoch: 0,
                    providers_online: 8,
                    audits: 12,
                    passes: 11,
                    failures: 1,
                    injected: 1,
                    detected: 1,
                    repairs: 1,
                    migrations: 1,
                    repair_traffic_bytes: 640,
                    min_live_shares: 5,
                    gas: 1000,
                    chain_bytes: 2000,
                    utilization: 0.25,
                    ..EpochStats::default()
                },
                EpochStats {
                    epoch: 1,
                    providers_online: 8,
                    audits: 12,
                    passes: 12,
                    min_live_shares: 6,
                    gas: 3000,
                    chain_bytes: 1000,
                    utilization: 0.75,
                    ..EpochStats::default()
                },
            ],
            audits: 24,
            passes: 23,
            failures: 1,
            injected_faults: 1,
            detected_faults: 1,
            repairs: 1,
            migrations: 1,
            repair_traffic_bytes: 640,
            files_intact: 2,
            setup_gas: 500,
            total_gas: 4500,
            chain_bytes: 3500,
            blocks: 14,
            ..SimReport::default()
        }
    }

    #[test]
    fn derived_metrics() {
        let r = sample();
        assert!((r.pass_rate() - 23.0 / 24.0).abs() < 1e-12);
        assert_eq!(r.mean_epoch_gas(), 2000);
        assert!((r.mean_utilization() - 0.5).abs() < 1e-12);
        assert!((r.max_utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn renderings_are_stable() {
        let a = sample();
        let b = sample();
        assert_eq!(a.to_text(), b.to_text());
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_json().contains("\"pass_rate\": 0.958333"));
        assert!(a.to_text().contains("rounds: 24 settled, 23 pass / 1 fail"));
        // the json stays parseable by the bench harness's line parser
        assert!(a.to_json().lines().count() > 10);
    }

    #[test]
    fn backend_lane_rendering_and_derived_metrics() {
        let mut r = sample();
        r.backend_lanes = vec![
            BackendLane {
                backend: "pairing".into(),
                audits: 24,
                passes: 23,
                failures: 1,
                gas: 2400,
                proof_bytes: 288 * 23,
                prover_calls: 23,
                ..BackendLane::default()
            },
            BackendLane {
                backend: "merkle".into(),
                audits: 24,
                passes: 23,
                failures: 1,
                gas: 1200,
                proof_bytes: 900 * 23,
                prover_calls: 23,
                ..BackendLane::default()
            },
        ];
        assert_eq!(r.backend_lanes[0].gas_per_round(), 100);
        assert_eq!(r.backend_lanes[0].proof_bytes_per_round(), 288);
        assert_eq!(BackendLane::default().gas_per_round(), 0);
        assert_eq!(BackendLane::default().proof_bytes_per_round(), 0);
        let text = r.to_text();
        assert!(text.contains("backend lanes (shadow contracts, same fault schedule):"));
        assert!(text.contains("pairing: 24 rounds, 23 pass / 1 fail"));
        let json = r.to_json();
        assert!(json.contains("\"backend\": \"merkle\""));
        assert!(json.contains("\"proof_bytes_per_round\": 900"));
        // an empty lane list still renders a (stable, empty) array
        assert!(sample().to_json().contains("\"backend_lanes\": [\n  ],\n"));
        assert!(!sample().to_text().contains("backend lanes"));
    }

    #[test]
    fn empty_report_defaults() {
        let r = SimReport::default();
        assert_eq!(r.pass_rate(), 1.0);
        assert_eq!(r.mean_epoch_gas(), 0);
        assert_eq!(r.mean_utilization(), 0.0);
        assert_eq!(r.max_utilization(), 0.0);
    }
}
