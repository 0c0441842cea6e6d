//! Every span name `repro`'s tables and figures read, recorded by one
//! small traced run of each timed path, with Fig. 8's children under
//! the right parent: a renamed span fails here before it fails a figure.
//!
//! Obs is a process-wide sink, so this file holds one test: nothing else
//! in its binary records into the registry while it is installed.

use dsaudit_backend::groth16::membership_circuit;
use dsaudit_bench::{rng, timed, Env, CALL};
use dsaudit_core::batch::BatchItem;
use dsaudit_core::{generate_tags, AuditParams, Auditor};

#[test]
fn one_traced_run_records_every_span_the_figures_read() {
    let env = Env::new(4096, AuditParams::new(4, 3).unwrap());
    let prover = env.prover();
    let ch = env.challenge();
    let plain = prover.prove_plain(&ch);
    let private = prover.prove_private(&mut rng(), &ch);
    let item = BatchItem { pk: &env.pk, meta: env.meta, challenge: ch, proof: private };
    let data = [7u8; 256];
    let mut r = rng();

    let spans = timed(1, || {
        let _ = prover.prove_plain(&ch);
        let _ = prover.prove_private(&mut r, &ch);
        assert!(env.auditor.verify_plain(&env.pk, &env.meta, &ch, &plain).unwrap().accepted());
        assert!(Auditor::new().verify_private(&env.pk, &env.meta, &ch, &private).unwrap().accepted());
        let batch = env.auditor.verify_private_batch(&mut rng(), std::slice::from_ref(&item));
        assert!(batch.unwrap().accepted());
        assert_eq!(generate_tags(&env.sk, &env.file).len(), env.file.num_chunks());
        let circuit = membership_circuit(&data, &[0]).unwrap();
        let pk = dsaudit_snark::setup(&mut r, &circuit.cs).unwrap();
        let proof = dsaudit_snark::prove(&mut r, &pk, &circuit.cs).unwrap();
        assert!(dsaudit_snark::verify(&pk.vk, &circuit.publics, &proof));
    });

    for name in [
        CALL,
        "core.prove_plain",
        "core.prove_private",
        "core.verify_plain",
        "core.verify_private",
        "core.verify_batch",
        "core.tag_gen",
        "snark.setup",
        "snark.prove",
        "snark.verify",
    ] {
        assert!(spans.mean_ms(name) <= spans.mean_ms(CALL), "{name}");
    }
    // Fig. 8: the plain prover's MSMs, and the private prover's MSMs
    // and GT power, each directly under its prover's span
    let plain_ms = spans.mean_ms("core.prove_plain");
    assert!(spans.child_ms("core.prove_plain", "algebra.msm") <= plain_ms);
    let private_ms = spans.mean_ms("core.prove_private");
    assert!(spans.child_ms("core.prove_private", "algebra.msm") <= private_ms);
    assert!(spans.child_ms("core.prove_private", "algebra.gt_fixed_pow") <= private_ms);
    // a name that recorded nothing panics rather than reading 0
    let panics = |query: &dyn Fn() -> f64| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(query)).is_err()
    };
    assert!(panics(&|| spans.mean_ms("core.prove")));
    assert!(panics(&|| spans.child_ms("core.prove_plain", "algebra.gt_fixed_pow")));
}
