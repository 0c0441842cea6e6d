//! The names this benchmark defines: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repo root lists the same
//! names (a test compares the two); later issues refer to workloads and
//! metrics by exactly these.

/// Which way is better for a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// A workload and the reason it exists.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// The `--workload` argument.
    pub name: &'static str,
    /// One line: which layers it stresses and what it is the control for.
    pub why: &'static str,
}

/// The five workloads.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "audit_steady",
        why: "warm role-API rounds on one 1 MiB file at s=50,k=300: algebra MSMs/pairings and crypto expansion do the work, contract/chain/storage/node none",
    },
    Workload {
        name: "backend_lanes",
        why: "cold on-chain rounds through BackendContract for pairing, merkle and groth16: backend wire, contract, chain, merkle, snark; must not move when only warm caching changes",
    },
    Workload {
        name: "outsource_bulk",
        why: "write path: upload, erasure-code, tag six shares, codec, ingest, drop, repair, download 2 MiB files: fixed-base MSM, tag pairings, storage, ChaCha20; prove/verify idle",
    },
    Workload {
        name: "sim_faulty",
        why: "whole stack under churn and four fault classes at toy crypto sizes: sim bookkeeping, contract settlement, chain events, storage repair; not algebra",
    },
    Workload {
        name: "node_faulty",
        why: "daemons over the seeded-fault transport (baseline/lossy/partitioned): the only workload where node frames, retries, TTL expiry and backpressure work",
    },
];

/// An end-to-end metric: defined on every workload, with a bound.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics. A *round* is one closed-loop operation of the
/// workload: an audit round (`audit_steady`, the pairing lane of
/// `backend_lanes`, a simulated round of `sim_faulty`), one file's trip
/// (`outsource_bulk`), or one challenge session (`node_faulty`).
///
/// The timing bounds are a quarter because the build box is shared:
/// its speed drifts by a tenth to a quarter over minutes (`README.md`,
/// "Noise"). `peak_rss_mb` moves with glibc's per-thread arenas.
/// `detected_share` is exact, so one missed fault is outside its bound.
#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "round_ms_p50", unit: "ms", better: Lower, bound: 0.25 },
    EndToEnd { name: "rounds_per_s", unit: "1/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "detected_share", unit: "ratio", better: Higher, bound: 0.01 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Lower, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
];

/// A per-layer metric, and the end-to-end metric it should move.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// `layer.what`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Where it is measured: a workload name, `probe` (a fixed kernel,
    /// the same in every traced run) or `selected` (the workload the
    /// run was asked for).
    pub source: &'static str,
    /// `metric@workload` it should move when it moves, written down
    /// before measuring; `-` for counts that only describe the run.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
        moves,
    }
}

/// The per-layer metrics.
#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 120] = [
    // algebra: kernels under prove/verify and tagging
    pl("algebra.calib_fq_mul_ns", "ns", Lower, "probe", "-"),
    pl("algebra.fq_inverse_ns", "ns", Lower, "probe", "round_ms_p50@audit_steady"),
    pl("algebra.batch_to_affine_n1024_ms", "ms", Lower, "probe", "rounds_per_s@outsource_bulk"),
    pl("algebra.msm_g1_n300_ms", "ms", Lower, "probe", "round_ms_p50@audit_steady"),
    pl("algebra.msm_g1_n8192_ms", "ms", Lower, "probe", "rounds_per_s@outsource_bulk"),
    pl("algebra.fixed_base_n8192_ms", "ms", Lower, "probe", "rounds_per_s@outsource_bulk"),
    pl("algebra.mul_each_n8192_ms", "ms", Lower, "probe", "rounds_per_s@outsource_bulk"),
    pl("algebra.g2_prepare_ms", "ms", Lower, "probe", "round_ms_p50@backend_lanes"),
    pl("algebra.miller_loop_prepared_ms", "ms", Lower, "probe", "round_ms_p50@audit_steady"),
    pl("algebra.final_exp_ms", "ms", Lower, "probe", "round_ms_p50@audit_steady"),
    pl("algebra.multi_pairing_n3_ms", "ms", Lower, "probe", "round_ms_p50@audit_steady"),
    pl("algebra.gt_pow_ms", "ms", Lower, "probe", "round_ms_p50@audit_steady"),
    pl("algebra.fft_n4096_ms", "ms", Lower, "probe", "rounds_per_s@backend_lanes"),
    // crypto: expansion on both audit workloads, hash-to-curve on every cold round
    pl("crypto.sha256_mb_s", "MB/s", Higher, "probe", "rounds_per_s@backend_lanes"),
    pl("crypto.hmac_mac_ns", "ns", Lower, "probe", "round_ms_p50@audit_steady"),
    pl("crypto.prf_fr_ns", "ns", Lower, "probe", "round_ms_p50@audit_steady"),
    pl("crypto.prp_sample_k300_us", "us", Lower, "probe", "round_ms_p50@audit_steady"),
    pl("crypto.index_oracle_us", "us", Lower, "probe", "round_ms_p50@backend_lanes"),
    pl("crypto.chacha20_mb_s", "MB/s", Higher, "probe", "rounds_per_s@outsource_bulk"),
    pl("crypto.mimc_hash2_ns", "ns", Lower, "probe", "rounds_per_s@backend_lanes"),
    // core: the role-level figures
    pl("core.challenge_expand_d677_ms", "ms", Lower, "probe", "round_ms_p50@audit_steady"),
    pl("core.prove_private_ms_p50", "ms", Lower, "audit_steady", "round_ms_p50@audit_steady"),
    pl("core.verify_private_warm_ms_p50", "ms", Lower, "audit_steady", "round_ms_p50@audit_steady"),
    pl("core.verify_private_cold_ms_p50", "ms", Lower, "audit_steady", "round_ms_p50@backend_lanes"),
    pl("core.verify_reject_ms_p50", "ms", Lower, "audit_steady", "rounds_per_s@audit_steady"),
    pl("core.compute_chi_warm_ms", "ms", Lower, "audit_steady", "round_ms_p50@audit_steady"),
    pl("core.compute_chi_cold_ms", "ms", Lower, "audit_steady", "round_ms_p50@backend_lanes"),
    pl("core.verify_batch_ms_per_item_n12", "ms", Lower, "audit_steady", "rounds_per_s@sim_faulty"),
    pl("core.encode_mb_s", "MB/s", Higher, "audit_steady", "setup_s@audit_steady"),
    pl("core.tag_mb_s", "MB/s", Higher, "audit_steady", "rounds_per_s@outsource_bulk"),
    pl("core.tag_validate_mb_s", "MB/s", Higher, "audit_steady", "rounds_per_s@outsource_bulk"),
    pl("core.proof_codec_ns", "ns", Lower, "audit_steady", "round_ms_p50@audit_steady"),
    pl("core.proof_bytes", "B", Lower, "audit_steady", "-"),
    pl("core.chi_cache_hit_ratio", "ratio", Higher, "audit_steady", "round_ms_p50@audit_steady"),
    pl("core.g2_cache_hit_ratio", "ratio", Higher, "audit_steady", "round_ms_p50@audit_steady"),
    pl("core.preprocess_mb_s", "MB/s", Higher, "outsource_bulk", "rounds_per_s@outsource_bulk"),
    pl("core.ingest_mb_s", "MB/s", Higher, "outsource_bulk", "rounds_per_s@outsource_bulk"),
    // merkle, snark: the two other lanes
    pl("merkle.build_ms_per_mib", "ms", Lower, "probe", "rounds_per_s@backend_lanes"),
    pl("merkle.verify_path_us", "us", Lower, "probe", "rounds_per_s@backend_lanes"),
    pl("snark.groth16_prove_ms", "ms", Lower, "probe", "rounds_per_s@backend_lanes"),
    pl("snark.groth16_verify_ms", "ms", Lower, "probe", "rounds_per_s@backend_lanes"),
    pl("snark.constraints", "count", Lower, "probe", "-"),
    // backend: the erased-wire adapters, per lane
    pl("backend.pairing.setup_ms", "ms", Lower, "backend_lanes", "setup_s@backend_lanes"),
    pl("backend.pairing.prove_ms_p50", "ms", Lower, "backend_lanes", "round_ms_p50@backend_lanes"),
    pl("backend.pairing.verify_ms_p50", "ms", Lower, "backend_lanes", "round_ms_p50@backend_lanes"),
    pl("backend.pairing.wire_overhead_ms", "ms", Lower, "backend_lanes", "round_ms_p50@backend_lanes"),
    pl("backend.pairing.proof_bytes", "B", Lower, "backend_lanes", "-"),
    pl("backend.merkle.setup_ms", "ms", Lower, "backend_lanes", "setup_s@backend_lanes"),
    pl("backend.merkle.prove_ms_p50", "ms", Lower, "backend_lanes", "rounds_per_s@backend_lanes"),
    pl("backend.merkle.verify_ms_p50", "ms", Lower, "backend_lanes", "rounds_per_s@backend_lanes"),
    pl("backend.merkle.proof_bytes", "B", Lower, "backend_lanes", "-"),
    pl("backend.merkle.round_ms_p50", "ms", Lower, "backend_lanes", "rounds_per_s@backend_lanes"),
    pl("backend.groth16.setup_ms", "ms", Lower, "backend_lanes", "setup_s@backend_lanes"),
    pl("backend.groth16.prove_ms_p50", "ms", Lower, "backend_lanes", "rounds_per_s@backend_lanes"),
    pl("backend.groth16.verify_ms_p50", "ms", Lower, "backend_lanes", "rounds_per_s@backend_lanes"),
    pl("backend.groth16.proof_bytes", "B", Lower, "backend_lanes", "-"),
    pl("backend.groth16.round_ms_p50", "ms", Lower, "backend_lanes", "rounds_per_s@backend_lanes"),
    // chain: block and event handling
    pl("chain.mine_empty_block_us_start", "us", Lower, "backend_lanes", "round_ms_p50@backend_lanes"),
    pl("chain.mine_empty_block_us_end", "us", Lower, "backend_lanes", "round_ms_p50@backend_lanes"),
    pl("chain.submit_mine_us", "us", Lower, "backend_lanes", "round_ms_p50@backend_lanes"),
    pl("chain.events_since_us", "us", Lower, "backend_lanes", "round_ms_p50@backend_lanes"),
    pl("chain.all_events_scan_us_end", "us", Lower, "backend_lanes", "rounds_per_s@sim_faulty"),
    pl("chain.blocks", "count", Lower, "backend_lanes", "-"),
    pl("chain.bytes_total", "B", Lower, "backend_lanes", "-"),
    pl("chain.bytes_per_round", "B", Lower, "backend_lanes", "-"),
    // contract: the scheme-agnostic round loop
    pl("contract.setup_ms", "ms", Lower, "backend_lanes", "setup_s@backend_lanes"),
    pl("contract.chal_trigger_us_p50", "us", Lower, "backend_lanes", "round_ms_p50@backend_lanes"),
    pl("contract.prove_tx_us_p50", "us", Lower, "backend_lanes", "round_ms_p50@backend_lanes"),
    pl("contract.verify_trigger_ms_p50", "ms", Lower, "backend_lanes", "round_ms_p50@backend_lanes"),
    pl("contract.self_ms_per_round", "ms", Lower, "backend_lanes", "round_ms_p50@backend_lanes"),
    pl("contract.gas_per_round", "gas", Lower, "backend_lanes", "-"),
    pl("contract.gas_compute_share", "ratio", Lower, "backend_lanes", "-"),
    pl("contract.classic_gas_per_round", "gas", Lower, "backend_lanes", "-"),
    // storage: the write path and repair
    pl("storage.erasure_encode_mb_s", "MB/s", Higher, "probe", "rounds_per_s@outsource_bulk"),
    pl("storage.erasure_decode_mb_s", "MB/s", Higher, "probe", "rounds_per_s@outsource_bulk"),
    pl("storage.upload_mb_s", "MB/s", Higher, "outsource_bulk", "rounds_per_s@outsource_bulk"),
    pl("storage.download_mb_s", "MB/s", Higher, "outsource_bulk", "rounds_per_s@outsource_bulk"),
    pl("storage.repair_ms", "ms", Lower, "outsource_bulk", "rounds_per_s@sim_faulty"),
    pl("storage.dht_lookup_us", "us", Lower, "probe", "rounds_per_s@outsource_bulk"),
    pl("storage.stored_bytes_per_user_byte", "ratio", Lower, "outsource_bulk", "-"),
    // node: the daemons (counts are exact per seed)
    pl("node.wall_us_per_session", "us", Lower, "node_faulty", "rounds_per_s@node_faulty"),
    pl("node.virtual_ms_per_session", "ms", Lower, "node_faulty", "-"),
    pl("node.retries_per_session", "ratio", Lower, "node_faulty", "rounds_per_s@node_faulty"),
    pl("node.overloaded_per_session", "ratio", Lower, "node_faulty", "rounds_per_s@node_faulty"),
    pl("node.expired_share", "ratio", Lower, "node_faulty", "-"),
    pl("node.reject_share", "ratio", Lower, "node_faulty", "-"),
    pl("node.corrupt_frames", "count", Lower, "node_faulty", "-"),
    pl("node.frames_dropped", "count", Lower, "node_faulty", "-"),
    pl("node.proofs_resent", "count", Lower, "node_faulty", "rounds_per_s@node_faulty"),
    pl("node.frame_codec_ns", "ns", Lower, "probe", "rounds_per_s@node_faulty"),
    // sim: the lifecycle engine (counts are exact per seed)
    pl("sim.setup_ms", "ms", Lower, "sim_faulty", "setup_s@sim_faulty"),
    pl("sim.wall_ms_per_epoch", "ms", Lower, "sim_faulty", "rounds_per_s@sim_faulty"),
    pl("sim.audits", "count", Higher, "sim_faulty", "-"),
    pl("sim.injected_faults", "count", Higher, "sim_faulty", "-"),
    pl("sim.detected_faults", "count", Higher, "sim_faulty", "detected_share@sim_faulty"),
    pl("sim.false_accepts", "count", Lower, "sim_faulty", "-"),
    pl("sim.false_rejects", "count", Lower, "sim_faulty", "-"),
    pl("sim.repairs", "count", Lower, "sim_faulty", "-"),
    pl("sim.migrations", "count", Lower, "sim_faulty", "-"),
    pl("sim.transport_retries", "count", Lower, "sim_faulty", "-"),
    pl("sim.files_lost", "count", Lower, "sim_faulty", "-"),
    pl("sim.mean_utilization", "ratio", Lower, "sim_faulty", "-"),
    pl("sim.gas_per_round", "gas", Lower, "sim_faulty", "-"),
    pl("sim.chain_bytes_per_round", "B", Lower, "sim_faulty", "-"),
    // obs: a tax on every timing
    pl("obs.disabled_site_ns", "ns", Lower, "probe", "round_ms_p50@audit_steady"),
    pl("obs.enabled_events_per_s", "1/s", Higher, "probe", "-"),
    pl("obs.enabled_overhead_share", "ratio", Lower, "audit_steady", "-"),
    // bench: the harness's own cost, and what describes the run
    pl("bench.threads", "count", Higher, "probe", "rounds_per_s@outsource_bulk"),
    pl("bench.timer_ns", "ns", Lower, "probe", "-"),
    pl("bench.trace_overhead_share", "ratio", Lower, "audit_steady", "-"),
    pl("bench.unattributed_share", "ratio", Lower, "selected", "-"),
    pl("bench.round_ms_p95", "ms", Lower, "selected", "-"),
    pl("bench.failed_share", "ratio", Lower, "selected", "-"),
    // busy shares: self time of the spans charged to a layer over the
    // measured rounds' wall time, for the workload the run was asked for
    pl("core.busy_share", "ratio", Lower, "selected", "round_ms_p50@audit_steady"),
    pl("backend.busy_share", "ratio", Lower, "selected", "round_ms_p50@backend_lanes"),
    pl("chain.busy_share", "ratio", Lower, "selected", "round_ms_p50@backend_lanes"),
    pl("contract.busy_share", "ratio", Lower, "selected", "round_ms_p50@backend_lanes"),
    pl("storage.busy_share", "ratio", Lower, "selected", "round_ms_p50@outsource_bulk"),
    pl("node.busy_share", "ratio", Lower, "selected", "round_ms_p50@node_faulty"),
    pl("sim.busy_share", "ratio", Lower, "selected", "round_ms_p50@sim_faulty"),
];

/// Layers whose busy share is reported: the ones a workload calls
/// directly. `algebra`, `crypto`, `merkle`, `snark` and `obs` are only
/// ever reached through these, so they are covered by probes instead.
pub const BUSY_LAYERS: [(&str, &str); 7] = [
    ("core", "core.busy_share"),
    ("backend", "backend.busy_share"),
    ("chain", "chain.busy_share"),
    ("contract", "contract.busy_share"),
    ("storage", "storage.busy_share"),
    ("node", "node.busy_share"),
    ("sim", "sim.busy_share"),
];

/// Layer metrics that are counts even though their unit is not one of
/// `count`, `gas` and `B`.
const EXACT_RATIOS: [&str; 10] = [
    "contract.gas_compute_share",
    "storage.stored_bytes_per_user_byte",
    "node.virtual_ms_per_session",
    "node.retries_per_session",
    "node.overloaded_per_session",
    "node.expired_share",
    "node.reject_share",
    "sim.mean_utilization",
    "sim.gas_per_round",
    "bench.failed_share",
];

impl PerLayer {
    /// Whether the value is a pure function of seed and budget: the same
    /// arguments give the same number on any box, so a change to it is a
    /// change in behaviour, never noise.
    pub fn is_exact(&self) -> bool {
        // the classic contract meters measured verify time into gas
        (matches!(self.unit, "count" | "gas" | "B")
            && self.name != "contract.classic_gas_per_round")
            || EXACT_RATIOS.contains(&self.name)
    }
}

/// The unit of a metric of either list.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}
