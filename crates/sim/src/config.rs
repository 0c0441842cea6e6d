//! Simulation configuration: population sizes, protocol parameters,
//! economics, and the churn/fault rates of the default models.
//! There is no gas knob: verification costs the chain's declared
//! `verify_gas()` and bytes are measured, so gas follows from the config.

use dsaudit_backend::BackendId;
use dsaudit_chain::cost::ChainCapacity;
use dsaudit_chain::types::{gwei, Wei};
use dsaudit_contract::AgreementTerms;
use dsaudit_core::AuditParams;

use crate::churn::ChurnRates;
use crate::fault::FaultRates;

/// Everything a [`Simulation`](crate::Simulation) run is derived from.
/// Two runs with equal configs produce byte-for-byte identical
/// [`SimReport`](crate::SimReport)s — the config *is* the experiment.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Seed of the single RNG driving every random decision (keys,
    /// challenges, proof masking, churn, faults).
    pub seed: u64,
    /// Epochs to run; each epoch is one audit round for every live
    /// share contract.
    pub epochs: u32,
    /// Initial provider population (the DHT's bootstrap membership).
    pub providers: usize,
    /// Number of data owners. The batch auditor settles each owner's
    /// rounds with one batched pairing product per epoch.
    pub owners: usize,
    /// Files uploaded per owner.
    pub files_per_owner: usize,
    /// Plaintext bytes per file.
    pub file_bytes: usize,
    /// Erasure code: shares needed for reconstruction (`k`).
    pub erasure_k: usize,
    /// Erasure code: total shares per file (`n`).
    pub erasure_n: usize,
    /// Audit parameters `(s, k)` for each *share's* tag vector.
    pub audit: AuditParams,
    /// Seconds between audit rounds (the epoch length on the chain
    /// clock).
    pub epoch_secs: u64,
    /// Seconds a provider has to post its proof after a challenge.
    pub prove_deadline_secs: u64,
    /// Micro-payment to the provider per passed round.
    pub reward_per_audit: Wei,
    /// Compensation to the owner per failed round.
    pub penalty_per_fail: Wei,
    /// Reference chain capacity that per-epoch utilization is measured
    /// against (mined bytes vs. what the block space could carry).
    pub capacity: ChainCapacity,
    /// Default churn model rates (used by [`Simulation::new`]).
    ///
    /// [`Simulation::new`]: crate::Simulation::new
    pub churn: ChurnRates,
    /// Default fault model rates (used by [`Simulation::new`]).
    ///
    /// [`Simulation::new`]: crate::Simulation::new
    pub faults: FaultRates,
    /// Shadow audit lanes: for every listed backend, each share gets a
    /// second audit contract on that backend, driven through the *same*
    /// challenge and fault schedule as the primary pairing path, so one
    /// run compares the schemes head to head (per-backend verdicts,
    /// gas, proof bytes). Empty (the default) disables the
    /// lanes and leaves the pairing-only report untouched.
    pub backends: Vec<BackendId>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 0xd5a_517,
            epochs: 12,
            providers: 16,
            owners: 4,
            files_per_owner: 1,
            file_bytes: 480,
            erasure_k: 3,
            erasure_n: 6,
            audit: AuditParams { s: 8, k: 4 },
            epoch_secs: 86_400,
            prove_deadline_secs: 3_600,
            reward_per_audit: gwei(1_000_000),
            penalty_per_fail: gwei(5_000_000),
            capacity: ChainCapacity::default(),
            churn: ChurnRates::default(),
            faults: FaultRates::default(),
            backends: Vec::new(),
        }
    }
}

impl SimConfig {
    /// Validates population and protocol consistency.
    ///
    /// # Panics
    /// Panics on configurations that cannot form a network (zero
    /// populations, `k > n`, fewer providers than shares).
    pub fn validate(&self) {
        assert!(self.epochs > 0, "need at least one epoch");
        assert!(self.owners > 0 && self.files_per_owner > 0, "need data owners");
        assert!(
            self.erasure_k > 0 && self.erasure_k <= self.erasure_n && self.erasure_n <= 255,
            "need 0 < k <= n <= 255"
        );
        assert!(
            self.providers >= self.erasure_n,
            "fewer providers than shares per file"
        );
        assert!(self.file_bytes > 0, "need file data");
        assert!(
            self.prove_deadline_secs < self.epoch_secs,
            "the prove deadline must fit inside an epoch"
        );
        // The report's soundness ground truth ("every corrupted share
        // fails its audit") is only exact when every chunk of a share
        // is challenged each round; with k < d detection is
        // probabilistic (§VI-A) and a clean miss would be scored as a
        // false accept. Reject such configs up front.
        let share_len = self.share_len();
        let share_chunks = share_len.div_ceil(self.audit.chunk_bytes()).max(1);
        for (i, b) in self.backends.iter().enumerate() {
            assert!(
                !self.backends[..i].contains(b),
                "backend lane `{b}` listed twice"
            );
        }
        assert!(
            self.audit.k >= share_chunks,
            "audit.k = {} challenges fewer than the {share_chunks} chunks of a share \
             ({share_len} bytes at s = {}): corruption detection would be probabilistic \
             and the zero-false-accept ground truth unsound — raise audit.k or s, or \
             shrink file_bytes",
            self.audit.k,
            self.audit.s,
        );
    }

    /// Bytes in each erasure share of a file (every file is
    /// `file_bytes` long, so every share has this length).
    pub(crate) fn share_len(&self) -> usize {
        self.file_bytes.div_ceil(self.erasure_k)
    }

    /// The terms every share contract is deployed under: one round per
    /// epoch, deposits that cover every round's reward and penalty.
    pub fn terms(&self) -> AgreementTerms {
        AgreementTerms {
            num_audits: self.epochs as u64,
            audit_interval_secs: self.epoch_secs,
            prove_deadline_secs: self.prove_deadline_secs,
            reward_per_audit: self.reward_per_audit,
            penalty_per_fail: self.penalty_per_fail,
            owner_deposit: self.reward_per_audit * self.epochs as Wei,
            provider_deposit: self.penalty_per_fail * self.epochs as Wei,
            backend: BackendId::Pairing,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        SimConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn duplicate_backend_lanes_are_rejected() {
        let cfg = SimConfig {
            backends: vec![BackendId::Merkle, BackendId::Merkle],
            ..SimConfig::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "corruption detection would be probabilistic")]
    fn undercovered_audit_params_are_rejected() {
        // 50 KiB files -> ~68 chunks per share at s = 8, but only k = 4
        // challenged: a single-byte corruption would usually pass, which
        // the zero-false-accept ground truth cannot represent
        let cfg = SimConfig {
            file_bytes: 50_000,
            ..SimConfig::default()
        };
        cfg.validate();
    }
}
