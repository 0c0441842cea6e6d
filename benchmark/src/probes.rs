//! Fixed-size probes of single public functions, one group per layer.
//!
//! From outside, a round through `core` is one span; what `algebra` and
//! `crypto` cost inside it cannot be seen without spans in the program.
//! These probes time the kernels on inputs of the sizes the workloads
//! use (an MSM of 300 points, three prepared pairings, an expansion
//! over 677 chunks), so a round's time can be compared with the sum of
//! its parts. They take no workload and run in every traced process;
//! `algebra.calib_fq_mul_ns` is the fixed kernel that shows box drift.

use std::collections::BTreeMap;
use std::hint::black_box;

use dsaudit_algebra::field::Field;
use dsaudit_algebra::g1::{G1Affine, G1Projective};
use dsaudit_algebra::g2::{G2Affine, G2Projective};
use dsaudit_algebra::pairing::{
    final_exponentiation, multi_miller_loop, multi_pairing_prepared, G2Prepared, Gt,
};
use dsaudit_algebra::{msm_g1, mul_each_g1, Domain, Fq, Fr};
use dsaudit_backend::{BackendId, BackendProof};
use dsaudit_core::Challenge;
use dsaudit_crypto::chacha20::ChaCha20;
use dsaudit_crypto::hmac::HmacKey;
use dsaudit_crypto::mimc::mimc_hash2;
use dsaudit_crypto::prf::{index_oracle, prf_fr};
use dsaudit_crypto::prp::SmallDomainPrp;
use dsaudit_crypto::sha256::sha256;
use dsaudit_merkle::tree::{MerkleTree, MimcHasher, Sha256Hasher};
use dsaudit_node::frame::{Frame, ProofFrame};
use dsaudit_snark::{batch_public_inputs, merkle_batch_membership_circuit};
use dsaudit_storage::erasure::ErasureCode;
use dsaudit_storage::StorageNetwork;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{random_beacon, random_bytes, Ctx};

/// Chunks of a 1 MiB file at `s = 50`: 2^20 / (50 · 31) rounded up.
const CHUNKS_1MIB: usize = 677;
/// Chunks challenged per round at the design point.
const K: usize = 300;

/// Times `samples` batches of `batch` calls of `f` under spans named
/// `name` and returns the median nanoseconds per call.
fn per_call_ns(
    ctx: &mut Ctx,
    name: &'static str,
    samples: usize,
    batch: usize,
    mut f: impl FnMut(),
) -> f64 {
    for _ in 0..samples {
        ctx.tracer.timed(name, || {
            for _ in 0..batch {
                f();
            }
        });
    }
    ctx.tracer.p50_ms(name) * 1e6 / batch as f64
}

/// Runs every probe; the map is keyed by full metric name.
pub fn drive(seed: u64, ctx: &mut Ctx) -> BTreeMap<&'static str, f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = BTreeMap::new();
    bench_probes(ctx, &mut m);
    algebra_probes(ctx, &mut rng, &mut m);
    crypto_probes(ctx, &mut rng, &mut m);
    tree_and_snark_probes(ctx, &mut rng, &mut m);
    storage_probes(ctx, &mut rng, &mut m);
    wire_and_obs_probes(ctx, &mut rng, &mut m);
    m
}

fn bench_probes(ctx: &mut Ctx, m: &mut BTreeMap<&'static str, f64>) {
    // `algebra::par` follows `available_parallelism()`; there is no
    // knob, so the value is recorded beside every result.
    m.insert("bench.threads", dsaudit_algebra::par::num_threads() as f64);
    let ns = per_call_ns(ctx, "bench.timer", 9, 10_000, || {
        black_box(std::time::Instant::now());
    });
    m.insert("bench.timer_ns", ns);
}

fn algebra_probes(ctx: &mut Ctx, rng: &mut StdRng, m: &mut BTreeMap<&'static str, f64>) {
    let n = 8192usize;
    let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(rng)).collect();
    let table = G1Projective::generator_table();
    let bases: Vec<G1Affine> = table.mul_many_affine(&scalars);

    let (mut x, y) = (Fq::random(rng), Fq::random(rng));
    let ns = per_call_ns(ctx, "algebra.calib_fq_mul", 9, 100_000, || {
        x = black_box(x * y)
    });
    m.insert("algebra.calib_fq_mul_ns", ns);
    let ns = per_call_ns(ctx, "algebra.fq_inverse", 9, 200, || {
        x = black_box(x.inverse().unwrap_or(y))
    });
    m.insert("algebra.fq_inverse_ns", ns);

    let projective: Vec<G1Projective> = bases[..1024].iter().map(G1Affine::to_projective).collect();
    let ns = per_call_ns(ctx, "algebra.batch_to_affine_n1024", 5, 1, || {
        black_box(G1Projective::batch_to_affine(&projective));
    });
    m.insert("algebra.batch_to_affine_n1024_ms", ns / 1e6);
    let ns = per_call_ns(ctx, "algebra.msm_g1_n300", 9, 1, || {
        black_box(msm_g1(&bases[..K], &scalars[..K]));
    });
    m.insert("algebra.msm_g1_n300_ms", ns / 1e6);
    let ns = per_call_ns(ctx, "algebra.msm_g1_n8192", 3, 1, || {
        black_box(msm_g1(&bases, &scalars));
    });
    m.insert("algebra.msm_g1_n8192_ms", ns / 1e6);
    let ns = per_call_ns(ctx, "algebra.fixed_base_n8192", 3, 1, || {
        black_box(table.mul_many_affine(&scalars));
    });
    m.insert("algebra.fixed_base_n8192_ms", ns / 1e6);
    let ns = per_call_ns(ctx, "algebra.mul_each_n8192", 3, 1, || {
        black_box(mul_each_g1(&bases, scalars[0]));
    });
    m.insert("algebra.mul_each_n8192_ms", ns / 1e6);

    let qs: Vec<G2Affine> = (0..3)
        .map(|_| G2Projective::generator().mul(Fr::random(rng)).to_affine())
        .collect();
    let ns = per_call_ns(ctx, "algebra.g2_prepare", 9, 1, || {
        black_box(G2Prepared::from_affine(&qs[0]));
    });
    m.insert("algebra.g2_prepare_ms", ns / 1e6);
    let prepared: Vec<G2Prepared> = qs.iter().map(G2Prepared::from_affine).collect();
    let ns = per_call_ns(ctx, "algebra.miller_loop_prepared", 9, 1, || {
        black_box(multi_miller_loop(&[(&bases[0], &prepared[0])]));
    });
    m.insert("algebra.miller_loop_prepared_ms", ns / 1e6);
    let f = multi_miller_loop(&[(&bases[0], &prepared[0])]);
    let ns = per_call_ns(ctx, "algebra.final_exp", 9, 1, || {
        black_box(final_exponentiation(&f));
    });
    m.insert("algebra.final_exp_ms", ns / 1e6);
    let pairs: Vec<(&G1Affine, &G2Prepared)> = bases[..3].iter().zip(&prepared).collect();
    let ns = per_call_ns(ctx, "algebra.multi_pairing_n3", 9, 1, || {
        black_box(multi_pairing_prepared(&pairs));
    });
    m.insert("algebra.multi_pairing_n3_ms", ns / 1e6);
    let g: Gt = multi_pairing_prepared(&pairs);
    let ns = per_call_ns(ctx, "algebra.gt_pow", 9, 1, || {
        black_box(g.pow(scalars[1]));
    });
    m.insert("algebra.gt_pow_ms", ns / 1e6);

    let domain = Domain::new(4096).expect("4096 is within the two-adicity of Fr");
    let mut values = scalars[..4096].to_vec();
    let ns = per_call_ns(ctx, "algebra.fft_n4096", 5, 1, || domain.fft(&mut values));
    m.insert("algebra.fft_n4096_ms", ns / 1e6);
}

fn crypto_probes(ctx: &mut Ctx, rng: &mut StdRng, m: &mut BTreeMap<&'static str, f64>) {
    let mut buf = random_bytes(rng, 1 << 20);
    let mb = buf.len() as f64 / 1e6;
    let ns = per_call_ns(ctx, "crypto.sha256_1mib", 5, 1, || {
        black_box(sha256(&buf));
    });
    m.insert("crypto.sha256_mb_s", mb / (ns / 1e9));
    let cipher = ChaCha20::new([7u8; 32], [9u8; 12]);
    let ns = per_call_ns(ctx, "crypto.chacha20_1mib", 5, 1, || {
        cipher.encrypt(&mut buf)
    });
    m.insert("crypto.chacha20_mb_s", mb / (ns / 1e9));

    let key = HmacKey::new(&buf[..32]);
    let ns = per_call_ns(ctx, "crypto.hmac_mac", 9, 2_000, || {
        black_box(key.mac(&buf[..40]));
    });
    m.insert("crypto.hmac_mac_ns", ns);
    let mut index = 0u64;
    let ns = per_call_ns(ctx, "crypto.prf_fr", 9, 2_000, || {
        index += 1;
        black_box(prf_fr(&buf[..32], index));
    });
    m.insert("crypto.prf_fr_ns", ns);
    let ns = per_call_ns(ctx, "crypto.prp_sample_k300", 9, 1, || {
        index += 1;
        let prp = SmallDomainPrp::new(&index.to_le_bytes(), CHUNKS_1MIB as u64);
        black_box(prp.sample_distinct(K));
    });
    m.insert("crypto.prp_sample_k300_us", ns / 1e3);
    let name = Fr::random(rng);
    let ns = per_call_ns(ctx, "crypto.index_oracle", 9, 16, || {
        index += 1;
        black_box(index_oracle(name, index));
    });
    m.insert("crypto.index_oracle_us", ns / 1e3);
    let (mut l, r) = (Fr::random(rng), Fr::random(rng));
    let ns = per_call_ns(ctx, "crypto.mimc_hash2", 9, 200, || {
        l = black_box(mimc_hash2(l, r))
    });
    m.insert("crypto.mimc_hash2_ns", ns);

    let challenge = Challenge::from_beacon(&random_beacon(rng));
    let ns = per_call_ns(ctx, "core.challenge_expand_d677", 9, 1, || {
        black_box(challenge.expand(CHUNKS_1MIB, K));
    });
    m.insert("core.challenge_expand_d677_ms", ns / 1e6);
}

fn tree_and_snark_probes(ctx: &mut Ctx, rng: &mut StdRng, m: &mut BTreeMap<&'static str, f64>) {
    // the merkle backend's default leaf size over 1 MiB
    let data = random_bytes(rng, 1 << 20);
    let leaves: Vec<&[u8]> = data.chunks(64).collect();
    let ns = per_call_ns(ctx, "merkle.build_1mib", 5, 1, || {
        black_box(MerkleTree::<Sha256Hasher>::from_data(&leaves));
    });
    m.insert("merkle.build_ms_per_mib", ns / 1e6);
    let tree = MerkleTree::<Sha256Hasher>::from_data(&leaves);
    let (root, path, leaf) = (tree.root(), tree.open(4321), *tree.leaf(4321));
    let mut held = true;
    let ns = per_call_ns(ctx, "merkle.path_check", 9, 200, || {
        held &= black_box(path.verify(&leaf, &root))
    });
    ctx.checks.check("merkle_path_opens_to_root", held);
    m.insert("merkle.verify_path_us", ns / 1e3);

    // the groth16 backend's shape: 32 field-element leaves, two paths
    // per proof
    let field_leaves: Vec<Fr> = (0..32).map(|_| Fr::random(rng)).collect();
    let tree = MerkleTree::<MimcHasher>::from_leaves(field_leaves.clone());
    let indices = [5usize, 22];
    let entries: Vec<(Fr, Vec<Fr>, usize)> = indices
        .iter()
        .map(|&i| (field_leaves[i], tree.open(i).siblings, i))
        .collect();
    let cs = merkle_batch_membership_circuit(tree.root(), &entries);
    ctx.checks
        .check("snark_circuit_is_satisfied", cs.is_satisfied());
    m.insert("snark.constraints", cs.constraints.len() as f64);
    let pk = dsaudit_snark::setup(rng, &cs).expect("the circuit fits the FFT domain");
    let mut proof = None;
    let ns = per_call_ns(ctx, "snark.groth16_prove", 2, 1, || {
        proof = dsaudit_snark::prove(rng, &pk, &cs).ok();
    });
    m.insert("snark.groth16_prove_ms", ns / 1e6);
    let proof = proof.expect("a satisfied circuit proves");
    let publics = batch_public_inputs(tree.root(), &indices.map(|i| i as u64), tree.depth());
    let mut held = true;
    // `groth16::verify` is the function's name in the snark crate
    let ns = per_call_ns(ctx, "snark.groth16_check", 9, 1, || {
        held &= black_box(dsaudit_snark::verify(&pk.vk, &publics, &proof));
    });
    ctx.checks.check("snark_proof_checks_out", held);
    m.insert("snark.groth16_verify_ms", ns / 1e6);
}

fn storage_probes(ctx: &mut Ctx, rng: &mut StdRng, m: &mut BTreeMap<&'static str, f64>) {
    let data = random_bytes(rng, 2 << 20);
    let mb = data.len() as f64 / 1e6;
    let code = ErasureCode::new(3, 6);
    let ns = per_call_ns(ctx, "storage.erasure_encode_2mib", 5, 1, || {
        black_box(code.encode(&data));
    });
    m.insert("storage.erasure_encode_mb_s", mb / (ns / 1e9));
    // decode from the three parity shares: the systematic ones would
    // be a copy
    let shares = code.encode(&data);
    let mut rebuilt = None;
    let ns = per_call_ns(ctx, "storage.erasure_decode_2mib", 5, 1, || {
        rebuilt = code.decode(&shares[3..], data.len()).ok();
    });
    ctx.checks.check(
        "erasure_decode_equals_input",
        rebuilt.is_some_and(|bytes| bytes == data),
    );
    m.insert("storage.erasure_decode_mb_s", mb / (ns / 1e9));

    let net = StorageNetwork::new(16, 3, 6);
    let ids = net.dht.node_ids();
    let mut i = 0usize;
    let ns = per_call_ns(ctx, "storage.dht_lookup", 9, 64, || {
        i += 1;
        black_box(
            net.dht
                .lookup_from(ids[i % ids.len()], &ids[(i * 7 + 3) % ids.len()]),
        );
    });
    m.insert("storage.dht_lookup_us", ns / 1e3);
}

fn wire_and_obs_probes(ctx: &mut Ctx, rng: &mut StdRng, m: &mut BTreeMap<&'static str, f64>) {
    // a pairing-sized proof frame: the frame the node layer moves most
    let frame = Frame::Proof(ProofFrame {
        challenge_id: [3u8; 32],
        round: 7,
        proof: BackendProof {
            backend: BackendId::Pairing,
            bytes: random_bytes(rng, 288),
        },
    });
    let mut exact = true;
    let ns = per_call_ns(ctx, "node.frame_codec", 9, 500, || {
        exact &= Frame::from_wire(&frame.to_wire()).is_ok_and(|back| back == frame);
    });
    ctx.checks.check("frame_wire_round_trip", exact);
    m.insert("node.frame_codec_ns", ns);

    // No registry installed: each call is one relaxed load and a return.
    let ns = per_call_ns(ctx, "obs.disabled_site", 9, 30_000, || {
        dsaudit_obs::counter_inc("bench.noop");
        dsaudit_obs::observe("bench.noop", 1);
        let _span = dsaudit_obs::span("bench.noop");
    });
    m.insert("obs.disabled_site_ns", ns / 3.0);
    let registry = dsaudit_obs::Registry::new_wall();
    let ns = per_call_ns(ctx, "obs.enabled_events", 5, 20_000, || {
        registry.counter_add("bench.counter", 1);
        registry.observe("bench.hist", 1);
        let id = registry.begin_span("bench.span");
        registry.end_span(id);
    });
    m.insert("obs.enabled_events_per_s", 3.0 / (ns / 1e9));
}
