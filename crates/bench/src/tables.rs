//! Table I (qualitative framework comparison) and Table II
//! (strawman vs. main solution, fully measured).

use dsaudit_backend::groth16::membership_circuit;
use dsaudit_backend::{BackendId, BackendProof};
use dsaudit_core::params::AuditParams;
use dsaudit_core::Codec;
use dsaudit_snark::{prove, setup, verify, Proof};

use crate::figures::{tag_gen_mb_s, verification_ms};
use crate::{rng, timed, Env};

/// Prints Table I — the §II taxonomy of auditing-related features.
/// (Qualitative; regenerated from the paper's analysis encoded as data.)
pub fn table1() {
    struct Row {
        name: &'static str,
        class: &'static str,
        incentive: bool,
        audit_mode: &'static str,
        storage_guar: &'static str,
        onchain_sec: bool,
        prover_eff: bool,
        auditor_eff: bool,
    }
    let rows = [
        Row { name: "IPFS", class: "P2P", incentive: false, audit_mode: "N/A", storage_guar: "N/A", onchain_sec: false, prover_eff: false, auditor_eff: false },
        Row { name: "Swarm", class: "EC", incentive: true, audit_mode: "TTP", storage_guar: "Low", onchain_sec: false, prover_eff: true, auditor_eff: false },
        Row { name: "Storj", class: "ALT", incentive: true, audit_mode: "TTP", storage_guar: "Low", onchain_sec: false, prover_eff: true, auditor_eff: false },
        Row { name: "MaidSafe", class: "ALT", incentive: true, audit_mode: "TTP", storage_guar: "Low", onchain_sec: false, prover_eff: true, auditor_eff: false },
        Row { name: "Sia", class: "ALT", incentive: true, audit_mode: "BC", storage_guar: "Low", onchain_sec: false, prover_eff: true, auditor_eff: true },
        Row { name: "Filecoin", class: "ALT", incentive: true, audit_mode: "PA", storage_guar: "High", onchain_sec: true, prover_eff: false, auditor_eff: true },
        Row { name: "ZKCSP", class: "BC", incentive: false, audit_mode: "PA", storage_guar: "High", onchain_sec: true, prover_eff: false, auditor_eff: true },
        Row { name: "Hawk", class: "EC", incentive: true, audit_mode: "BC", storage_guar: "N/P", onchain_sec: true, prover_eff: false, auditor_eff: true },
    ];
    println!("Table I — auditing-related features of DSN frameworks");
    println!("{:<10} {:>5} {:>9} {:>10} {:>13} {:>12} {:>11} {:>12}",
        "system", "class", "incentive", "audit mode", "storage guar.", "on-chain sec", "prover eff.", "auditor eff.");
    for r in rows {
        println!(
            "{:<10} {:>5} {:>9} {:>10} {:>13} {:>12} {:>11} {:>12}",
            r.name,
            r.class,
            if r.incentive { "yes" } else { "-" },
            r.audit_mode,
            r.storage_guar,
            if r.onchain_sec { "yes" } else { "-" },
            if r.prover_eff { "yes" } else { "-" },
            if r.auditor_eff { "yes" } else { "-" },
        );
    }
    println!("(dsaudit = this repo: class EC, incentive yes, audit mode BC, guar. High, on-chain sec yes, prover eff. yes, auditor eff. yes)");
}

/// Prints Table II — SNARK strawman vs. HLA main solution, measured on
/// this machine. The strawman is the groth16 backend's circuit at one
/// index. `full` pads it to the paper's 3x10^5 constraints (minutes of
/// runtime: setup, prove and verify each run once to warm up, then once
/// measured); otherwise it is padded to 8,192 constraints and
/// verification is the mean of 20 calls, as the main row's is.
pub fn table2(full: bool) {
    let mut r = rng();
    println!("Table II — strawman (SNARK Merkle) vs. main (HLA + KZG)\n");

    // --- strawman on a 1 KB file, as in the paper ---
    let data: Vec<u8> = (0..1024).map(|i| (i % 251) as u8).collect();
    let mut circuit = membership_circuit(&data, &[3]).expect("leaf 3 of a 1 KB file");
    let unpadded = circuit.cs.constraints.len();
    circuit.cs.pad_constraints(if full { 300_000 } else { 8_192 });
    let constraints = circuit.cs.constraints.len();
    let mut keyed = None;
    let strawman = timed(1, || {
        let pk = setup(&mut r, &circuit.cs).expect("setup");
        let proof = prove(&mut r, &pk, &circuit.cs).expect("prove");
        keyed = Some((pk, proof));
    });
    let (pk, proof) = keyed.expect("the measured call ran");
    let verify_calls = if full { 1 } else { 20 };
    let strawman_verify_ms = timed(verify_calls, || {
        assert!(verify(&pk.vk, &circuit.publics, &proof), "honest strawman proof verifies");
    })
    .mean_ms("snark.verify");
    let param_bytes = pk.serialized_len();
    let wire_bytes = BackendProof { backend: BackendId::Groth16Merkle, bytes: proof.encode() }.encode().len();
    println!("strawman solution (1 KB file, the groth16 backend's MiMC Merkle circuit at one index, padded to {} constraints{})",
        constraints, if full { "" } else { "; run with --full for the paper's 3e5" });
    println!("  pre-process (trusted setup): {:>10.2} ms", strawman.mean_ms("snark.setup"));
    println!("  param size:                  {:>10.1} MB", param_bytes as f64 / 1e6);
    println!("  #constraints:                {:>10}", constraints);
    println!("  proof generation:            {:>10.2} ms", strawman.mean_ms("snark.prove"));
    println!("  proof size:                  {:>10} bytes", Proof::UNCOMPRESSED_BYTES);
    println!("  verification:                {:>10.2} ms  (mean of {verify_calls} call{})", strawman_verify_ms,
        if verify_calls == 1 { "" } else { "s" });
    println!("  [paper: 260 s setup, 150 MB params, 3e5 constraints, 30 s prove, 384 B proof, 30 ms verify]");
    println!("  where this row deviates from the paper: the circuit hashes with MiMC, not SHA-256 ({unpadded} constraints");
    println!("  before padding); the proving key is {param_bytes} bytes at {constraints} constraints; the proof size is");
    println!("  the paper's uncompressed encoding ({} B), while this repo's wire carries it compressed ({wire_bytes} B).\n",
        Proof::UNCOMPRESSED_BYTES);

    // --- main solution, s = 50, k = 300 ---
    let params = AuditParams::default();
    let file_bytes = 4 * 1024 * 1024; // measure on 4 MB, report MB/s
    let env = Env::new(file_bytes, params);
    let mbs = tag_gen_mb_s(50, file_bytes);
    let prover = env.prover();
    let ch = env.challenge();
    let mut rr = rng();
    let prove_ms = timed(5, || prover.prove_private(&mut rr, &ch)).mean_ms("core.prove_private");
    let [_, verify_ms, verify_cold] = verification_ms(&env, 20);
    println!("main solution (s = 50, k = 300)");
    println!("  pre-process throughput:      {:>10.1} MB/s  (=> {:.0} s per GB; paper ~120 s)", mbs, 1024.0 / mbs);
    println!("  param size (pk, w/ privacy): {:>10.1} KB", env.pk.serialized_len(true) as f64 / 1e3);
    println!("  proof generation:            {:>10.2} ms", prove_ms);
    println!("  proof size:                  {:>10} bytes", dsaudit_core::proof::PRIVATE_PROOF_BYTES);
    println!("  verification (warm):         {:>10.2} ms", verify_ms);
    println!("  verification (cold):         {:>10.2} ms  (fresh auditor per call)", verify_cold);
    println!("  [paper: ~120 s per GB, ~5 KB params, 46 ms prove, 288 B proof, 7 ms verify]");
}
