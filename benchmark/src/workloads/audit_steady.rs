//! `audit_steady`: the paper's design point on the warm path.
//!
//! One 1 MiB file at `s = 50, k = 300`, one long-lived `Auditor`, and
//! round after round of challenge → prove → 288-byte wire → verify
//! through the role API. After the warm-up the auditor's chi and
//! prepared-G2 caches are full, so `algebra` (the k = 300 MSMs and the
//! three prepared pairings) and `crypto` (challenge expansion) do
//! nearly all the work while `contract`, `chain`, `storage` and `node`
//! do none. An optimisation to warm caching moves this workload and
//! must leave `backend_lanes` flat.

use std::time::Instant;

use dsaudit_core::batch::BatchItem;
use dsaudit_core::verify::{compute_chi, verify_private};
use dsaudit_core::{
    AuditParams, AuditSession, Auditor, Challenge, ChiCache, Codec, DataOwner, Outsourcing,
    PrivateProof, StorageProvider,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{median, random_beacon, random_bytes, sub_seed, Budget, Ctx, Outcome, Tracer};

/// Plaintext bytes of the audited file.
pub const FILE_BYTES: usize = 1 << 20;
/// Rounds run before measuring, so the caches are full.
const WARM_UP_ROUNDS: usize = 32;
/// Every this-many-th measured round is answered over corrupted data.
pub const FAULT_PERIOD: usize = 16;
/// Measured rounds per budgeted second (the issue: 1000 in 20 s).
const ROUNDS_PER_SECOND: f64 = 48.0;

/// One round through the role API, as the auditor sees it.
struct RoundResult<'a> {
    session: AuditSession<'a>,
    /// Challenge issued → verdict known, in milliseconds.
    ms: f64,
    /// `None` when the response did not even reach verification.
    accepted: Option<bool>,
    /// Whether the wire bytes decode back to the proof that was sent.
    wire_exact: bool,
    wire_len: usize,
    challenge: Challenge,
    proof: PrivateProof,
}

fn audit_round<'a>(
    tracer: &mut Tracer,
    rng: &mut StdRng,
    session: AuditSession<'a>,
    responder: &StorageProvider,
    honest: bool,
    measured: bool,
) -> RoundResult<'a> {
    let beacon = random_beacon(rng);
    let clock = tracer.begin_round(measured);
    let round = tracer.timed("core.challenge_from_beacon", || {
        session.challenge_from_beacon(&beacon)
    });
    let stamped = round.round_challenge();
    let response = tracer.timed("core.respond_round", || {
        responder.respond_round(rng, &stamped)
    });
    let wire = tracer.timed("core.proof_encode", || response.proof.encode());
    // The error hands the open round back, which is why it is large.
    #[allow(clippy::result_large_err)]
    let submitted = tracer.timed("core.submit_bytes", || {
        round.submit_bytes(response.round, &wire)
    });
    let (session, accepted) = match submitted {
        Ok(proven) => {
            let name = if honest {
                "core.verify_accept"
            } else {
                "core.verify_reject"
            };
            let (session, verdict) = tracer
                .timed(name, || proven.verify())
                .expect("metadata was validated at session open");
            (session, Some(verdict.accepted()))
        }
        Err((round, _)) => (round.timeout(), None),
    };
    let ms = tracer.end_round(clock);
    let wire_exact = PrivateProof::decode(&wire).is_ok_and(|p| p == response.proof);
    RoundResult {
        session,
        ms,
        accepted,
        wire_exact,
        wire_len: wire.len(),
        challenge: stamped.challenge,
        proof: response.proof,
    }
}

/// The owner's and the provider's set-up for one file, each step under
/// its own span: key generation, encoding, tagging (`DataOwner::outsource`
/// is exactly those two calls) and the provider's tag validation.
pub fn provision(
    ctx: &mut Ctx,
    rng: &mut StdRng,
    params: AuditParams,
    data: &[u8],
) -> StorageProvider {
    let owner = ctx
        .tracer
        .timed("core.keygen", || DataOwner::generate(rng, params));
    let file = ctx.tracer.timed("core.encode", || owner.encode(rng, data));
    let tags = ctx.tracer.timed("core.tag", || owner.tag(&file));
    let bundle = Outsourcing {
        pk: owner.public_key().clone(),
        file,
        tags,
    };
    let ingested = ctx
        .tracer
        .timed("core.ingest", || StorageProvider::ingest(rng, bundle));
    ctx.checks
        .check("ingest_accepts_honest_bundle", ingested.is_ok());
    ingested.expect("an honest bundle validates")
}

/// Runs the workload for `seed`.
pub fn drive(seed: u64, budget: Budget, ctx: &mut Ctx) -> Outcome {
    let params = AuditParams::default();
    let rounds = budget.count_for(ROUNDS_PER_SECOND, FAULT_PERIOD);
    let mut out = Outcome::default();
    let mut wire_len = 0usize;

    for rep in 0..budget.reps {
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, rep as u64));
        let setup_start = Instant::now();
        let data = random_bytes(&mut rng, FILE_BYTES);
        let provider = provision(ctx, &mut rng, params, &data);
        // One damaged block in every chunk, so whichever 300 chunks a
        // round samples, the damage is among them and the ground truth
        // is Reject with certainty, not with probability.
        let mut damaged = provider.clone();
        for chunk in 0..damaged.meta().num_chunks {
            damaged.corrupt_block(chunk, chunk % params.s);
        }

        let auditor = Auditor::new();
        let mut session = auditor
            .begin_session(provider.public_key(), provider.meta())
            .expect("provider metadata is auditable");
        for _ in 0..WARM_UP_ROUNDS {
            session =
                audit_round(&mut ctx.tracer, &mut rng, session, &provider, true, false).session;
        }
        out.setup_s.push(setup_start.elapsed().as_secs_f64());

        let mut last_honest = None;
        for i in 0..rounds {
            let honest = i % FAULT_PERIOD != FAULT_PERIOD - 1;
            let responder = if honest { &provider } else { &damaged };
            let r = audit_round(&mut ctx.tracer, &mut rng, session, responder, honest, true);
            session = r.session;
            ctx.checks
                .check("audit_verdict_matches_data", r.accepted == Some(honest));
            ctx.checks.check("proof_wire_round_trip", r.wire_exact);
            out.rounds += 1;
            out.measured_s += r.ms / 1e3;
            wire_len = r.wire_len;
            if honest {
                out.round_ms.push(r.ms);
                last_honest = Some((r.challenge, r.proof));
            } else {
                out.injected += 1;
                out.detected += u64::from(r.accepted == Some(false));
            }
        }
        let tally = session.tally();
        ctx.checks.check(
            "session_tally_matches_rounds",
            tally.0 + tally.1 == (WARM_UP_ROUNDS + rounds) as u64,
        );

        if ctx.tracer.is_on() && rep == 0 {
            let (challenge, proof) = last_honest.expect("at least one honest round ran");
            layer_extras(
                ctx, &mut out, &mut rng, &auditor, &provider, challenge, proof, budget,
            );
        }
    }

    if ctx.tracer.is_on() {
        let t = &ctx.tracer;
        let mb = FILE_BYTES as f64 / 1e6;
        let layer = &mut out.layer;
        layer.insert(
            "core.prove_private_ms_p50",
            median(&t.measured_ms("core.respond_round")),
        );
        layer.insert(
            "core.verify_private_warm_ms_p50",
            median(&t.measured_ms("core.verify_accept")),
        );
        layer.insert(
            "core.verify_reject_ms_p50",
            median(&t.measured_ms("core.verify_reject")),
        );
        layer.insert(
            "core.proof_codec_ns",
            (median(&t.measured_ms("core.proof_encode"))
                + median(&t.measured_ms("core.submit_bytes")))
                * 1e6,
        );
        layer.insert("core.proof_bytes", wire_len as f64);
        layer.insert("core.encode_mb_s", mb / (t.p50_ms("core.encode") / 1e3));
        layer.insert("core.tag_mb_s", mb / (t.p50_ms("core.tag") / 1e3));
        layer.insert(
            "core.tag_validate_mb_s",
            mb / (t.p50_ms("core.ingest") / 1e3),
        );
    }
    out
}

/// Measurements that need this workload's fixture but are not part of
/// its rounds: the cold verify path, chi with and without its cache,
/// batched verification, the cache hit ratios, and the two A/B series
/// (spans off vs on, obs registry absent vs installed).
#[allow(clippy::too_many_arguments)]
fn layer_extras(
    ctx: &mut Ctx,
    out: &mut Outcome,
    rng: &mut StdRng,
    auditor: &Auditor,
    provider: &StorageProvider,
    challenge: Challenge,
    proof: PrivateProof,
    budget: Budget,
) {
    let pk = provider.public_key();
    let meta = provider.meta();

    // Hit ratios before the probes below disturb the counters.
    let (chi, g2) = auditor.cache_stats();
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    out.layer
        .insert("core.chi_cache_hit_ratio", ratio(chi.hits, chi.misses));
    out.layer
        .insert("core.g2_cache_hit_ratio", ratio(g2.hits, g2.misses));

    for _ in 0..8 {
        let verdict = ctx.tracer.timed("core.verify_cold", || {
            verify_private(pk, &meta, &challenge, &proof)
        });
        ctx.checks.check(
            "cold_verify_accepts_honest_proof",
            verdict.is_ok_and(|v| v.accepted()),
        );
    }
    out.layer.insert(
        "core.verify_private_cold_ms_p50",
        ctx.tracer.p50_ms("core.verify_cold"),
    );

    let set = challenge.expand(meta.num_chunks, meta.k);
    for _ in 0..8 {
        let warm = ctx.tracer.timed("core.compute_chi_warm", || {
            compute_chi(auditor.chi_cache(), meta.name, &set)
        });
        let cold = ctx.tracer.timed("core.compute_chi_cold", || {
            compute_chi(&ChiCache::new(), meta.name, &set)
        });
        ctx.checks.check(
            "chi_is_cache_independent",
            warm.to_affine() == cold.to_affine(),
        );
    }
    out.layer.insert(
        "core.compute_chi_warm_ms",
        ctx.tracer.p50_ms("core.compute_chi_warm"),
    );
    out.layer.insert(
        "core.compute_chi_cold_ms",
        ctx.tracer.p50_ms("core.compute_chi_cold"),
    );

    let answered: Vec<(Challenge, PrivateProof)> = (0..12)
        .map(|_| {
            let c = Challenge::from_beacon(&random_beacon(rng));
            (c, provider.respond(rng, &c))
        })
        .collect();
    let items: Vec<BatchItem<'_>> = answered
        .iter()
        .map(|(c, p)| BatchItem {
            pk,
            meta,
            challenge: *c,
            proof: *p,
        })
        .collect();
    for _ in 0..3 {
        let verdict = ctx.tracer.timed("core.verify_batch_n12", || {
            auditor.verify_private_batch(rng, &items)
        });
        ctx.checks.check(
            "batch_accepts_honest_proofs",
            verdict.is_ok_and(|v| v.accepted()),
        );
    }
    out.layer.insert(
        "core.verify_batch_ms_per_item_n12",
        ctx.tracer.p50_ms("core.verify_batch_n12") / items.len() as f64,
    );

    // A/B/C on the same fixture, one round of each in turn so the box's
    // drift hits all three series alike: plain rounds, rounds with
    // spans recorded, and rounds with a dsaudit-obs registry installed.
    let turns = if budget.seconds < 1.0 { 16 } else { 64 };
    let mut session = auditor
        .begin_session(pk, meta)
        .expect("metadata is auditable");
    let mut silent = Tracer::new(false);
    let registry = std::sync::Arc::new(dsaudit_obs::Registry::new_wall());
    let (mut plain, mut traced, mut observed) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..turns {
        let r = audit_round(&mut silent, rng, session, provider, true, false);
        plain.push(r.ms);
        let r = audit_round(&mut ctx.tracer, rng, r.session, provider, true, false);
        traced.push(r.ms);
        dsaudit_obs::install(registry.clone());
        let r = audit_round(&mut silent, rng, r.session, provider, true, false);
        dsaudit_obs::uninstall();
        observed.push(r.ms);
        session = r.session;
    }
    let base = median(&plain);
    out.layer
        .insert("bench.trace_overhead_share", median(&traced) / base - 1.0);
    out.layer
        .insert("obs.enabled_overhead_share", median(&observed) / base - 1.0);
}
