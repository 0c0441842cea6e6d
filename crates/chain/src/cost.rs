//! Fiat cost and capacity models (§VII-B, §VII-D): per-audit dollar
//! cost, contract-duration fee curves (Fig. 6), blockchain growth and
//! throughput ceilings (Fig. 10 left).

use crate::gas::GasSchedule;

/// Market conversion constants.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// USD per ETH.
    pub usd_per_eth: f64,
    /// Gas price in Gwei.
    pub gas_price_gwei: f64,
    /// Gas schedule used to price transactions.
    pub gas: GasSchedule,
}

impl CostModel {
    /// The paper's quoted market snapshot: "ETH price is 143 USD/ETH and
    /// gas cost is 5 Gwei, as of Apr 2020".
    pub fn paper_footnote() -> Self {
        Self {
            usd_per_eth: 143.0,
            gas_price_gwei: 5.0,
            gas: GasSchedule::default(),
        }
    }

    /// The effective rate implied by the paper's *Fig. 6* fee curve
    /// (~$50 for 360 daily audits, i.e. ~$0.14 per audit). The footnote
    /// rate above would give ~$0.42 per audit; the two snapshots in the
    /// paper are inconsistent and we reproduce Fig. 6 with this one.
    pub fn fig6_effective() -> Self {
        Self {
            usd_per_eth: 143.0,
            gas_price_gwei: 1.65,
            gas: GasSchedule::default(),
        }
    }

    /// Converts a gas amount to USD.
    pub fn gas_to_usd(&self, gas: u64) -> f64 {
        gas as f64 * self.gas_price_gwei * 1e-9 * self.usd_per_eth
    }

    /// USD cost of one audit round (proof + challenge on chain,
    /// verification extrapolated).
    pub fn audit_fee_usd(&self, proof_bytes: usize, verify_ms: f64) -> f64 {
        self.gas_to_usd(self.gas.audit_gas(proof_bytes, verify_ms))
    }

    /// Total auditing fees over a contract (Fig. 6): `duration_days`
    /// at `audits_per_day` frequency, including the beacon-randomness
    /// cost per round (the paper estimates $0.01-$0.05; we take the
    /// midpoint).
    pub fn contract_fee_usd(
        &self,
        duration_days: u32,
        audits_per_day: f64,
        proof_bytes: usize,
        verify_ms: f64,
    ) -> f64 {
        let rounds = duration_days as f64 * audits_per_day;
        let beacon_cost = 0.03;
        rounds * (self.audit_fee_usd(proof_bytes, verify_ms) + beacon_cost)
    }
}

/// Capacity model of a dedicated auditing chain (§VII-D).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChainCapacity {
    /// Average block size in bytes (paper: ~18 KB, matching Ethereum's
    /// trailing average).
    pub avg_block_bytes: usize,
    /// Block interval in seconds (Ethereum: ~14 s).
    pub block_interval_secs: f64,
    /// Byte overhead of a transaction envelope (signature, nonce, gas
    /// fields, RLP framing) on top of its payload.
    pub tx_envelope_bytes: usize,
}

impl Default for ChainCapacity {
    fn default() -> Self {
        Self {
            avg_block_bytes: 18 * 1024,
            block_interval_secs: 14.0,
            tx_envelope_bytes: 110,
        }
    }
}

impl ChainCapacity {
    /// Transactions per second the chain sustains for a given average
    /// transaction payload (the paper's "average throughput would be
    /// 2 transactions per second" at audit-sized payloads).
    pub fn tx_per_second(&self, payload_bytes: usize) -> f64 {
        let per_tx = (payload_bytes + self.tx_envelope_bytes) as f64;
        (self.avg_block_bytes as f64 / per_tx) / self.block_interval_secs
    }

    /// Maximum number of users auditable at `audits_per_day` each
    /// (one proof tx + shared challenge per round).
    pub fn max_users(&self, audits_per_day: f64, proof_bytes: usize) -> usize {
        let tx_per_day = self.tx_per_second(proof_bytes) * 86_400.0;
        (tx_per_day / audits_per_day) as usize
    }

    /// Annual on-chain growth in bytes for `users` with daily audits
    /// (Fig. 10 left): challenge + proof + envelope per audit.
    pub fn annual_growth_bytes(&self, users: usize, proof_bytes: usize) -> u64 {
        let per_audit = 48 + proof_bytes + self.tx_envelope_bytes;
        users as u64 * 365 * per_audit as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footnote_rate_per_audit() {
        // 589k gas at 5 Gwei / $143: about $0.42
        let m = CostModel::paper_footnote();
        let fee = m.audit_fee_usd(288, 7.2);
        assert!((0.35..=0.50).contains(&fee), "fee = {fee}");
    }

    #[test]
    fn fig6_rate_near_014() {
        let m = CostModel::fig6_effective();
        let fee = m.audit_fee_usd(288, 7.2);
        assert!((0.11..=0.17).contains(&fee), "fee = {fee}");
    }

    #[test]
    fn fig6_year_of_daily_audits_near_60_usd() {
        // Fig. 6: 360 days daily auditing lands around $50-60
        let m = CostModel::fig6_effective();
        let total = m.contract_fee_usd(360, 1.0, 288, 7.2);
        assert!((40.0..=75.0).contains(&total), "total = {total}");
    }

    #[test]
    fn weekly_is_seven_times_cheaper() {
        let m = CostModel::fig6_effective();
        let daily = m.contract_fee_usd(700, 1.0, 288, 7.2);
        let weekly = m.contract_fee_usd(700, 1.0 / 7.0, 288, 7.2);
        let ratio = daily / weekly;
        assert!((6.5..=7.5).contains(&ratio));
    }

    #[test]
    fn throughput_near_two_tps() {
        // paper: ~2 tx/s at 18 KB blocks for audit-sized transactions
        let c = ChainCapacity::default();
        let tps = c.tx_per_second(288 + 48);
        assert!((1.5..=4.0).contains(&tps), "tps = {tps}");
    }

    #[test]
    fn five_thousand_users_supported() {
        // paper: "our system could support 5,000 active users with ease"
        let c = ChainCapacity::default();
        assert!(c.max_users(1.0, 288) >= 5_000);
    }

    #[test]
    fn annual_growth_matches_fig10_shape() {
        // Fig. 10 left: ~1 GB/year around 8-10k users with daily audits
        let c = ChainCapacity::default();
        let gb = c.annual_growth_bytes(10_000, 288) as f64 / 1e9;
        assert!((0.9..=2.0).contains(&gb), "growth = {gb} GB");
        // and linear in users
        assert_eq!(
            c.annual_growth_bytes(2_000, 288) * 5,
            c.annual_growth_bytes(10_000, 288)
        );
    }
}
