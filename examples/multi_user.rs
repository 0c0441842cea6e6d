//! Scalability scenario (§VII-D / Fig. 10): chain-growth and fee
//! projections for many data owners auditing daily on one chain, plus a
//! beacon-bias vignette (§V-E). The live multi-owner run is
//! `examples/network_sim.rs`.
//!
//! ```text
//! cargo run --release --example multi_user
//! ```

use dsaudit::chain::beacon::{CommitRevealBeacon, VdfBeacon};
use dsaudit::chain::cost::{ChainCapacity, CostModel};

fn main() {
    // --- scale-out projections (Fig. 10) ---
    println!("projected annual chain growth (daily audits):");
    let cap = ChainCapacity::default();
    for n in [1_000usize, 5_000, 10_000] {
        println!(
            "  {n:>6} users -> {:.2} GB/year",
            cap.annual_growth_bytes(n, 288) as f64 / 1e9
        );
    }
    let m = CostModel::fig6_effective();
    println!(
        "per-user yearly auditing fee (daily): ${:.0}",
        m.contract_fee_usd(365, 1.0, 288, 7.2)
    );

    // --- beacon bias: why challenge randomness matters (§V-E) ---
    println!("\nrandomness-beacon hardening:");
    let cr = CommitRevealBeacon::new(4, b"players");
    let bias = cr.last_revealer_bias(300);
    println!(
        "  commit-reveal alone: last revealer wins a coin-flip predicate {:.0}% of rounds (honest: 50%)",
        bias * 100.0
    );
    let vdf_beacon = VdfBeacon::new(cr, 50);
    let (out, proof) = vdf_beacon.run_round_with_proof(0);
    println!(
        "  with sloth-VDF finisher: output {:02x}{:02x}... computable only after the reveal deadline ({} sequential sqrt steps, publicly verifiable)",
        out[0], out[1], proof.steps
    );
}
