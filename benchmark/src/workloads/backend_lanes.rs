//! `backend_lanes`: the on-chain, cold path through the scheme-agnostic
//! contract.
//!
//! One `BackendContract` per backend (pairing, merkle, groth16), each
//! on its own `Blockchain` so a lane's clock fires only its own
//! triggers, with verification metered at the nominal 7.2 ms so gas is
//! an exact count. Rounds are driven the way a deployment drives them:
//! advance the clock, mine the `Chal` trigger, read the beacon from
//! `events_since`, prove over the stored bytes, post the `"prove"`
//! transaction, advance past the deadline, mine the `Verify` trigger,
//! read the verdict event. `backend` wire handling, `contract`, `chain`,
//! `merkle` and `snark` do most of the work, and `core` verification
//! runs *stateless*: no warm auditor, the kit decoded and the file
//! re-encoded every round. An optimisation to hash-to-curve, kit
//! handling or the contract moves this workload and leaves
//! `audit_steady` flat.

use std::time::Instant;

use dsaudit_backend::{backend_for, AuditBackend, BackendId, BackendProof, Commitment};
use dsaudit_chain::beacon::TrustedBeacon;
use dsaudit_chain::chain::Blockchain;
use dsaudit_chain::types::{eth, Address, Transaction, TxKind, TxStatus};
use dsaudit_contract::harness::{setup_backend_session, setup_session, BackendSession};
use dsaudit_contract::{run_round, AgreementTerms};
use dsaudit_core::{AuditParams, Challenge, Codec, StorageProvider};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{median, random_beacon, random_bytes, sub_seed, Budget, Ctx, Outcome};
use crate::workloads::audit_steady::{provision, FAULT_PERIOD, FILE_BYTES};

/// Verification cost the contracts meter, in milliseconds (the paper's
/// figure), so gas depends on bytes only.
const NOMINAL_VERIFY_MS: f64 = 7.2;
/// The groth16 lane's blob: 32 leaves of 31 bytes.
const SNARK_BLOB_BYTES: usize = 992;
/// Untimed rounds per pairing/merkle lane before measuring.
const WARM_UP_ROUNDS: usize = 2;
/// Pairing and merkle rounds per budgeted second (the issue: 240 each
/// in 20 s; sized down so a multiple of the fault period fits a rep).
const ROUNDS_PER_SECOND: f64 = 9.0;
/// Groth16 rounds per budgeted second (the issue: 12 in 20 s).
const SNARK_ROUNDS_PER_SECOND: f64 = 0.6;

/// Empty blocks mined under one span of the chain probes.
const BLOCKS_PER_SPAN: usize = 64;

/// Static names for one lane's spans. Every lane has its own, so a
/// median over a span name never mixes a 4 ms pairing check with a
/// 60 µs merkle one.
struct LaneNames {
    setup: &'static str,
    chal_trigger: &'static str,
    prove: &'static str,
    prove_tx: &'static str,
    /// The contract's `Verify` trigger; the backend's verification runs
    /// inside it and cannot be told apart from outside.
    settle_trigger: &'static str,
    direct_setup: &'static str,
    direct_check: &'static str,
    /// The lane's layer metrics: twin set-up, in-round prove, twin
    /// verification, proof size.
    metrics: [&'static str; 4],
}

fn lane_names(id: BackendId) -> LaneNames {
    match id {
        BackendId::Pairing => LaneNames {
            setup: "contract.setup_pairing",
            chal_trigger: "contract.chal_trigger_pairing",
            prove: "backend.prove_pairing",
            prove_tx: "contract.prove_tx_pairing",
            settle_trigger: "contract.settle_trigger_pairing",
            direct_setup: "backend.setup_pairing",
            direct_check: "backend.check_pairing",
            metrics: [
                "backend.pairing.setup_ms",
                "backend.pairing.prove_ms_p50",
                "backend.pairing.verify_ms_p50",
                "backend.pairing.proof_bytes",
            ],
        },
        BackendId::Merkle => LaneNames {
            setup: "contract.setup_merkle",
            chal_trigger: "contract.chal_trigger_merkle",
            prove: "backend.prove_merkle",
            prove_tx: "contract.prove_tx_merkle",
            settle_trigger: "contract.settle_trigger_merkle",
            direct_setup: "backend.setup_merkle",
            direct_check: "backend.check_merkle",
            metrics: [
                "backend.merkle.setup_ms",
                "backend.merkle.prove_ms_p50",
                "backend.merkle.verify_ms_p50",
                "backend.merkle.proof_bytes",
            ],
        },
        BackendId::Groth16Merkle => LaneNames {
            setup: "contract.setup_groth16",
            chal_trigger: "contract.chal_trigger_groth16",
            prove: "backend.prove_groth16",
            prove_tx: "contract.prove_tx_groth16",
            settle_trigger: "contract.settle_trigger_groth16",
            direct_setup: "backend.setup_groth16",
            direct_check: "backend.check_groth16",
            metrics: [
                "backend.groth16.setup_ms",
                "backend.groth16.prove_ms_p50",
                "backend.groth16.verify_ms_p50",
                "backend.groth16.proof_bytes",
            ],
        },
    }
}

/// One deployed lane: its chain, its contract session, and the bytes a
/// cheating provider would hold instead.
struct Lane {
    id: BackendId,
    backend: Box<dyn AuditBackend>,
    chain: Blockchain,
    session: BackendSession,
    damaged: Vec<u8>,
    twin: Option<Twin>,
}

/// The off-chain twin of a lane, in traced runs: the same backend set up
/// over the same bytes, with one honest proof. Its verification is what
/// the contract runs inside its `Verify` trigger, and on the pairing
/// lane `core` proves over the same file. Both are timed right after
/// each round, so the differences against the round's own spans are
/// taken between neighbours in time and the box's drift cancels.
struct Twin {
    commitment: Commitment,
    beacon: [u8; 48],
    proof: BackendProof,
    core: Option<StorageProvider>,
}

/// What one on-chain round cost and how it ended.
struct LaneRound {
    ms: f64,
    /// `Some(true)` for a `"pass"` event, `Some(false)` for `"fail"`.
    passed: Option<bool>,
    prove_tx_ok: bool,
    wire_exact: bool,
    gas: u64,
    chain_bytes: usize,
    proof_bytes: usize,
    /// Round minus the backend's prove and the twin's verification:
    /// what contract and chain add. `None` without a twin.
    self_ms: Option<f64>,
    /// The backend's prove minus `core`'s over the same file and beacon:
    /// the kit decode and file re-encode of every round.
    wire_ms: Option<f64>,
}

fn deploy_lane(
    ctx: &mut Ctx,
    rng: &mut StdRng,
    id: BackendId,
    data: &[u8],
    rounds: usize,
    seed: u64,
    with_twin: bool,
) -> Lane {
    let backend = backend_for(id);
    let mut chain = Blockchain::new(Box::new(TrustedBeacon::new(&seed.to_le_bytes())));
    let defaults = AgreementTerms::default();
    let terms = AgreementTerms {
        num_audits: rounds as u64,
        owner_deposit: defaults.reward_per_audit * rounds as u128,
        provider_deposit: defaults.penalty_per_fail * rounds as u128,
        backend: id,
        ..defaults
    };
    let session = ctx.tracer.timed(lane_names(id).setup, || {
        setup_backend_session(
            rng,
            &mut chain,
            id.name(),
            data,
            backend.as_ref(),
            terms,
            Some(NOMINAL_VERIFY_MS),
        )
    });
    // Every byte differs, so every pairing chunk and every merkle leaf
    // a round can sample is damaged: the ground truth is "fail" with
    // certainty.
    let damaged = data.iter().map(|b| b ^ 0x5a).collect();
    let twin = with_twin.then(|| {
        let setup = ctx
            .tracer
            .timed(lane_names(id).direct_setup, || backend.setup(rng, data))
            .expect("the contract's own set-up of the same bytes succeeded");
        let beacon = random_beacon(rng);
        let proof = backend
            .prove(rng, &setup.kit, data, &beacon)
            .expect("an honest prover proves");
        let core =
            (id == BackendId::Pairing).then(|| provision(ctx, rng, AuditParams::default(), data));
        Twin {
            commitment: setup.commitment,
            beacon,
            proof,
            core,
        }
    });
    Lane {
        id,
        backend,
        chain,
        session,
        damaged,
        twin,
    }
}

fn contract_event<'a>(
    chain: &'a Blockchain,
    from_block: usize,
    contract: Address,
    names: &[&str],
) -> Option<&'a dsaudit_chain::types::Event> {
    chain
        .events_since(from_block)
        .into_iter()
        .find(|e| e.contract == contract && names.contains(&e.name.as_str()))
}

fn lane_round(
    ctx: &mut Ctx,
    rng: &mut StdRng,
    lane: &mut Lane,
    honest: bool,
    measured: bool,
) -> LaneRound {
    let names = lane_names(lane.id);
    let interval = lane.session.terms.audit_interval_secs;
    let deadline = lane.session.terms.prove_deadline_secs;
    let contract = lane.session.contract;
    let t = &mut ctx.tracer;
    let first_block = lane.chain.block_count();

    let clock = t.begin_round(measured);
    t.timed(names.chal_trigger, || {
        lane.chain.advance_time(interval + 1);
        lane.chain.mine_block();
    });
    let beacon = t.timed("chain.events_since", || {
        contract_event(&lane.chain, first_block, contract, &["challenged"])
            .and_then(|e| <[u8; 48]>::try_from(e.data.as_slice()).ok())
    });
    let mut result = LaneRound {
        ms: 0.0,
        passed: None,
        prove_tx_ok: false,
        wire_exact: false,
        gas: 0,
        chain_bytes: 0,
        proof_bytes: 0,
        self_ms: None,
        wire_ms: None,
    };
    let mut prove_ms = 0.0;
    if let Some(beacon) = beacon {
        let stored = if honest {
            &lane.session.stored
        } else {
            &lane.damaged
        };
        let proof = t.timed(names.prove, || {
            lane.backend.prove(rng, &lane.session.kit, stored, &beacon)
        });
        prove_ms = t.last_ms();
        if let Ok(proof) = proof {
            let calldata = t.timed("backend.proof_encode", || proof.encode());
            result.proof_bytes = calldata.len();
            result.wire_exact = BackendProof::decode(&calldata).is_ok_and(|p| p == proof);
            result.prove_tx_ok = t.timed(names.prove_tx, || {
                lane.chain.submit(Transaction {
                    from: lane.session.provider,
                    to: contract,
                    value: 0,
                    kind: TxKind::Call {
                        method: "prove".into(),
                        data: calldata,
                    },
                });
                let block = lane.chain.mine_block();
                block
                    .txs
                    .last()
                    .is_some_and(|(_, receipt)| receipt.status == TxStatus::Success)
            });
        }
    }
    let verdict_block = lane.chain.block_count();
    t.timed(names.settle_trigger, || {
        lane.chain.advance_time(deadline + 1);
        lane.chain.mine_block();
    });
    result.passed = t.timed("chain.events_since", || {
        contract_event(&lane.chain, verdict_block, contract, &["pass", "fail"])
            .map(|e| e.name == "pass")
    });
    result.ms = t.end_round(clock);
    result.gas = lane.chain.gas_used_since(first_block);
    result.chain_bytes = lane.chain.bytes_since(first_block);
    if let (Some(twin), Some(beacon), true) = (&lane.twin, beacon, honest && measured) {
        let verdict = t.timed(names.direct_check, || {
            lane.backend
                .verify(&twin.commitment, &twin.beacon, &twin.proof)
        });
        result.self_ms = Some(result.ms - prove_ms - t.last_ms());
        ctx.checks.check(
            "direct_backend_accepts_honest_proof",
            verdict.is_ok_and(|v| v.accepted()),
        );
        if let Some(core) = &twin.core {
            let challenge = Challenge::from_beacon(&beacon);
            ctx.tracer.timed("core.respond", || {
                std::hint::black_box(core.respond(rng, &challenge))
            });
            result.wire_ms = Some(prove_ms - ctx.tracer.last_ms());
        }
    }
    result
}

/// Per-lane samples of one process run.
#[derive(Default)]
struct LaneSamples {
    honest_ms: Vec<f64>,
    gas: Vec<u64>,
    chain_bytes: Vec<usize>,
    proof_bytes: usize,
    self_ms: Vec<f64>,
    wire_ms: Vec<f64>,
}

/// Runs the workload for `seed`.
pub fn drive(seed: u64, budget: Budget, ctx: &mut Ctx) -> Outcome {
    let rounds = budget.count_for(ROUNDS_PER_SECOND, FAULT_PERIOD);
    let snark_rounds = budget.count_for(SNARK_ROUNDS_PER_SECOND, 1);
    let mut out = Outcome::default();
    let mut samples: [LaneSamples; 3] = Default::default();
    let mut chain_blocks = 0.0;
    let mut chain_bytes_total = 0.0;

    for rep in 0..budget.reps {
        let rep_seed = sub_seed(seed, rep as u64);
        let mut rng = StdRng::seed_from_u64(rep_seed);
        let setup_start = Instant::now();
        let data = random_bytes(&mut rng, FILE_BYTES);
        let blob = random_bytes(&mut rng, SNARK_BLOB_BYTES);
        let mut lanes: Vec<Lane> = BackendId::ALL
            .into_iter()
            .map(|id| {
                let (bytes, total) = match id {
                    BackendId::Groth16Merkle => (&blob, snark_rounds),
                    _ => (&data, WARM_UP_ROUNDS + rounds),
                };
                deploy_lane(
                    ctx,
                    &mut rng,
                    id,
                    bytes,
                    total,
                    rep_seed ^ id.as_u8() as u64,
                    ctx.tracer.is_on() && rep == 0,
                )
            })
            .collect();
        if ctx.tracer.is_on() && rep == 0 {
            // on a chain of its own, so the lanes' block counts stay
            // what the rounds made them
            let mut fresh = Blockchain::new(Box::new(TrustedBeacon::new(b"probe")));
            chain_probe(ctx, &mut fresh, "chain.mine_empty_block_start");
        }
        // Lazy statics (generator tables, the prepared G2 generator)
        // build here. The groth16 lane gets no warm-up: one round is
        // three quarters of a second.
        for lane in lanes
            .iter_mut()
            .filter(|l| l.id != BackendId::Groth16Merkle)
        {
            for _ in 0..WARM_UP_ROUNDS {
                lane_round(ctx, &mut rng, lane, true, false);
            }
        }
        out.setup_s.push(setup_start.elapsed().as_secs_f64());

        for (lane, lane_samples) in lanes.iter_mut().zip(&mut samples) {
            let faulted = lane.id != BackendId::Groth16Merkle;
            let lane_rounds = if faulted { rounds } else { snark_rounds };
            for i in 0..lane_rounds {
                let honest = !(faulted && i % FAULT_PERIOD == FAULT_PERIOD - 1);
                let r = lane_round(ctx, &mut rng, lane, honest, true);
                ctx.checks
                    .check("lane_verdict_matches_data", r.passed == Some(honest));
                ctx.checks.check("prove_tx_succeeds", r.prove_tx_ok);
                ctx.checks
                    .check("backend_proof_wire_round_trip", r.wire_exact);
                out.rounds += 1;
                out.measured_s += r.ms / 1e3;
                if honest {
                    lane_samples.honest_ms.push(r.ms);
                    lane_samples.gas.push(r.gas);
                    lane_samples.chain_bytes.push(r.chain_bytes);
                    lane_samples.proof_bytes = r.proof_bytes;
                    lane_samples.self_ms.extend(r.self_ms);
                    lane_samples.wire_ms.extend(r.wire_ms);
                } else {
                    out.injected += 1;
                    out.detected += u64::from(r.passed == Some(false));
                }
            }
        }
        // With the verify cost fixed, gas and chain bytes depend on
        // byte counts alone: every honest pairing round must cost the
        // same, whatever the clock did.
        let pairing = &samples[0];
        ctx.checks.check(
            "pairing_gas_is_exact",
            pairing.gas.iter().all(|g| *g == pairing.gas[0]),
        );
        ctx.checks.check(
            "pairing_chain_bytes_are_exact",
            pairing
                .chain_bytes
                .iter()
                .all(|b| *b == pairing.chain_bytes[0]),
        );

        if ctx.tracer.is_on() && rep == 0 {
            let chain = &mut lanes[0].chain;
            chain_blocks = chain.block_count() as f64;
            chain_bytes_total = chain.total_size_bytes() as f64;
            chain_probe(ctx, chain, "chain.mine_empty_block_end");
            for _ in 0..9 {
                ctx.tracer.timed("chain.all_events_scan", || {
                    std::hint::black_box(chain.all_events().len())
                });
            }
            let (a, b) = (
                Address::from_label("bench/a"),
                Address::from_label("bench/b"),
            );
            chain.fund_account(a, eth(1));
            for _ in 0..9 {
                ctx.tracer.timed("chain.submit_mine", || {
                    for _ in 0..BLOCKS_PER_SPAN {
                        chain.submit(Transaction {
                            from: a,
                            to: b,
                            value: 1,
                            kind: TxKind::Transfer,
                        });
                        chain.mine_block();
                    }
                });
            }
            classic_contract(ctx, &mut out, &mut rng, &data);
        }
    }

    // The pairing lane is the one the end-to-end round time describes;
    // the other two lanes count towards throughput.
    out.round_ms = samples[0].honest_ms.clone();

    if ctx.tracer.is_on() {
        let t = &ctx.tracer;
        let [pairing, merkle, groth16] = &samples;
        let gas_per_round = pairing.gas[0] as f64;
        let compute_gas =
            dsaudit_chain::gas::GasSchedule::default().compute_gas(NOMINAL_VERIFY_MS) as f64;
        let layer = &mut out.layer;
        for (id, lane_samples) in BackendId::ALL.into_iter().zip(&samples) {
            let names = lane_names(id);
            let [setup, prove, check, proof_bytes] = names.metrics;
            layer.insert(setup, t.p50_ms(names.direct_setup));
            layer.insert(prove, median(&t.measured_ms(names.prove)));
            layer.insert(check, t.p50_ms(names.direct_check));
            layer.insert(proof_bytes, lane_samples.proof_bytes as f64);
        }
        layer.insert("backend.merkle.round_ms_p50", median(&merkle.honest_ms));
        layer.insert("backend.groth16.round_ms_p50", median(&groth16.honest_ms));
        layer.insert("contract.setup_ms", t.p50_ms("contract.setup_pairing"));
        layer.insert(
            "contract.chal_trigger_us_p50",
            median(&t.measured_ms("contract.chal_trigger_pairing")) * 1e3,
        );
        layer.insert(
            "contract.prove_tx_us_p50",
            median(&t.measured_ms("contract.prove_tx_pairing")) * 1e3,
        );
        layer.insert(
            "contract.verify_trigger_ms_p50",
            median(&t.measured_ms("contract.settle_trigger_pairing")),
        );
        layer.insert("contract.gas_per_round", gas_per_round);
        layer.insert("contract.gas_compute_share", compute_gas / gas_per_round);
        layer.insert("chain.bytes_per_round", pairing.chain_bytes[0] as f64);
        let per_block_us = 1e3 / BLOCKS_PER_SPAN as f64;
        layer.insert(
            "chain.mine_empty_block_us_start",
            t.p50_ms("chain.mine_empty_block_start") * per_block_us,
        );
        layer.insert(
            "chain.mine_empty_block_us_end",
            t.p50_ms("chain.mine_empty_block_end") * per_block_us,
        );
        layer.insert(
            "chain.submit_mine_us",
            t.p50_ms("chain.submit_mine") * per_block_us,
        );
        layer.insert(
            "chain.events_since_us",
            median(&t.measured_ms("chain.events_since")) * 1e3,
        );
        layer.insert(
            "chain.all_events_scan_us_end",
            t.p50_ms("chain.all_events_scan") * 1e3,
        );
        layer.insert("chain.blocks", chain_blocks);
        layer.insert("chain.bytes_total", chain_bytes_total);
        layer.insert("contract.self_ms_per_round", median(&pairing.self_ms));
        layer.insert("backend.pairing.wire_overhead_ms", median(&pairing.wire_ms));
    }
    out
}

/// Empty blocks on `chain` under spans named `name`, 64 to a span: one
/// is tens of nanoseconds, the cost of reading the clock twice.
fn chain_probe(ctx: &mut Ctx, chain: &mut Blockchain, name: &'static str) {
    for _ in 0..9 {
        ctx.tracer.timed(name, || {
            for _ in 0..BLOCKS_PER_SPAN {
                chain.mine_block();
            }
        });
    }
}

/// Four rounds of the classic `AuditContract` through its own harness.
/// It meters the wall-clock verify time into gas, so this number moves
/// with the box; it is reported for later issues, not guarded.
fn classic_contract(ctx: &mut Ctx, out: &mut Outcome, rng: &mut StdRng, data: &[u8]) {
    const ROUNDS: u64 = 4;
    let mut chain = Blockchain::new(Box::new(TrustedBeacon::new(b"classic")));
    let terms = AgreementTerms {
        num_audits: ROUNDS,
        ..AgreementTerms::default()
    };
    let session = ctx.tracer.timed("contract.classic_setup", || {
        setup_session(
            rng,
            &mut chain,
            "classic",
            data,
            AuditParams::default(),
            None,
            terms,
        )
    });
    let first_block = chain.block_count();
    for _ in 0..ROUNDS {
        let passed = ctx.tracer.timed("contract.classic_round", || {
            run_round(rng, &mut chain, &session, true)
        });
        ctx.checks
            .check("classic_contract_passes_honest_round", passed);
    }
    out.layer.insert(
        "contract.classic_gas_per_round",
        chain.gas_used_since(first_block) as f64 / ROUNDS as f64,
    );
}
