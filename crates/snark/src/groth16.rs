//! Groth16 zk-SNARK (setup / prove / verify) over BN254 — the
//! Bellman-equivalent backend of the paper's strawman solution (§IV).
//!
//! Standard construction: the R1CS is interpolated into a QAP over a
//! radix-2 evaluation domain; the trusted setup samples
//! `(tau, alpha, beta, gamma, delta)` and publishes encoded query
//! vectors; the prover computes the quotient polynomial `h` with four
//! FFTs and outputs the familiar 3-element proof `(A, B, C)` — 128 bytes
//! compressed (2 G1 + 1 G2), the paper's "384 bytes" when serialized
//! uncompressed as on Ropsten.

use dsaudit_algebra::curve::Projective;
use dsaudit_algebra::fft::Domain;
use dsaudit_algebra::field::{batch_inverse, Field};
use dsaudit_algebra::g1::{G1Affine, G1Projective};
use dsaudit_algebra::g2::{G2Affine, G2Projective};
use dsaudit_algebra::msm::{msm, FixedBaseTable};
use dsaudit_algebra::pairing::{multi_pairing, Gt};
use dsaudit_algebra::Fr;

use crate::r1cs::ConstraintSystem;

/// Proving key (the bulk of the "150 MB public parameters" in Table II).
#[derive(Clone, Debug)]
pub struct ProvingKey {
    /// `alpha` in G1.
    pub alpha_g1: G1Affine,
    /// `beta` in G1 / G2.
    pub beta_g1: G1Affine,
    /// `beta` in G2.
    pub beta_g2: G2Affine,
    /// `delta` in G1 / G2.
    pub delta_g1: G1Affine,
    /// `delta` in G2.
    pub delta_g2: G2Affine,
    /// `u_i(tau)` in G1 per variable.
    pub a_query: Vec<G1Affine>,
    /// `v_i(tau)` in G1 per variable.
    pub b_g1_query: Vec<G1Affine>,
    /// `v_i(tau)` in G2 per variable.
    pub b_g2_query: Vec<G2Affine>,
    /// `(beta u_i + alpha v_i + w_i)/delta` for witness variables.
    pub l_query: Vec<G1Affine>,
    /// `tau^i Z(tau)/delta` for the quotient commitment.
    pub h_query: Vec<G1Affine>,
    /// The verification key.
    pub vk: VerifyingKey,
}

impl ProvingKey {
    /// Serialized size in bytes (compressed points) — Table II's
    /// "Param. size" column.
    pub fn serialized_len(&self) -> usize {
        32 * (2 + self.a_query.len() + self.b_g1_query.len() + self.l_query.len() + self.h_query.len())
            + 64 * (2 + self.b_g2_query.len())
            + self.vk.serialized_len()
    }
}

/// Verification key.
#[derive(Clone, Debug)]
pub struct VerifyingKey {
    /// `alpha` in G1.
    pub alpha_g1: G1Affine,
    /// `beta` in G2.
    pub beta_g2: G2Affine,
    /// `gamma` in G2.
    pub gamma_g2: G2Affine,
    /// `delta` in G2.
    pub delta_g2: G2Affine,
    /// `(beta u_i + alpha v_i + w_i)/gamma` for ONE + public inputs.
    pub ic: Vec<G1Affine>,
}

impl VerifyingKey {
    /// Serialized size in bytes (compressed points).
    pub fn serialized_len(&self) -> usize {
        32 * (1 + self.ic.len()) + 64 * 3
    }
}

/// A Groth16 proof.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Proof {
    /// `A` in G1.
    pub a: G1Affine,
    /// `B` in G2.
    pub b: G2Affine,
    /// `C` in G1.
    pub c: G1Affine,
}

impl Proof {
    /// Compressed size (2 G1 + 1 G2 = 128 bytes).
    pub const COMPRESSED_BYTES: usize = 32 + 64 + 32;
    /// Uncompressed size as submitted to Ethereum precompiles
    /// (Table II's 384 bytes: 2x64 B G1 + 1x128 B G2 + padding word).
    pub const UNCOMPRESSED_BYTES: usize = 384;
}

/// Errors from the SNARK pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnarkError {
    /// The constraint count exceeds the field's 2-adic domain.
    CircuitTooLarge(usize),
    /// Prover called with an unsatisfied assignment.
    Unsatisfied,
}

impl std::fmt::Display for SnarkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnarkError::CircuitTooLarge(n) => write!(f, "circuit with {n} constraints too large"),
            SnarkError::Unsatisfied => write!(f, "witness does not satisfy the circuit"),
        }
    }
}

impl std::error::Error for SnarkError {}

/// Per-variable QAP evaluations at `tau`.
struct QapEvals {
    u: Vec<Fr>,
    v: Vec<Fr>,
    w: Vec<Fr>,
    z_tau: Fr,
    domain: Domain,
}

fn evaluate_qap_at(cs: &ConstraintSystem, tau: Fr) -> Result<QapEvals, SnarkError> {
    let m = cs.constraints.len().max(2);
    let domain = Domain::new(m).ok_or(SnarkError::CircuitTooLarge(m))?;
    // Lagrange values L_j(tau) = Z(tau) * w^j / (m * (tau - w^j))
    let z_tau = domain.eval_vanishing(tau);
    let elements = domain.elements();
    let mut denoms: Vec<Fr> = elements.iter().map(|w| tau - *w).collect();
    batch_inverse(&mut denoms);
    let m_inv = Fr::from_u64(domain.size as u64)
        .inverse()
        .expect("domain size nonzero");
    let lagrange: Vec<Fr> = elements
        .iter()
        .zip(&denoms)
        .map(|(w, d)| z_tau * *w * m_inv * *d)
        .collect();

    let n = cs.num_variables();
    let mut u = vec![Fr::zero(); n];
    let mut v = vec![Fr::zero(); n];
    let mut w = vec![Fr::zero(); n];
    for (j, constraint) in cs.constraints.iter().enumerate() {
        let lj = lagrange[j];
        for (var, coeff) in &constraint.a.terms {
            u[var.0] += *coeff * lj;
        }
        for (var, coeff) in &constraint.b.terms {
            v[var.0] += *coeff * lj;
        }
        for (var, coeff) in &constraint.c.terms {
            w[var.0] += *coeff * lj;
        }
    }
    Ok(QapEvals {
        u,
        v,
        w,
        z_tau,
        domain,
    })
}

/// Trusted setup over a synthesized circuit.
///
/// # Errors
/// Fails when the constraint count exceeds the FFT domain.
pub fn setup<R: rand::RngCore + ?Sized>(
    rng: &mut R,
    cs: &ConstraintSystem,
) -> Result<ProvingKey, SnarkError> {
    let _span = dsaudit_algebra::obs::span("snark.setup");
    let tau = Fr::random(rng);
    let alpha = Fr::random(rng);
    let beta = Fr::random(rng);
    let gamma = Fr::random(rng);
    let delta = Fr::random(rng);
    let qap = evaluate_qap_at(cs, tau)?;

    let g1 = G1Projective::generator();
    let g2 = G2Projective::generator();
    let t1 = FixedBaseTable::new(&g1);
    let t2 = FixedBaseTable::new(&g2);

    let gamma_inv = gamma.inverse().expect("gamma != 0");
    let delta_inv = delta.inverse().expect("delta != 0");

    let n = cs.num_variables();
    let num_inputs = cs.num_public + 1;

    let a_query = Projective::batch_to_affine(&t1.mul_many(&qap.u));
    let b_g1_query = Projective::batch_to_affine(&t1.mul_many(&qap.v));
    let b_g2_query = Projective::batch_to_affine(&t2.mul_many(&qap.v));

    let mut ic_scalars = Vec::with_capacity(num_inputs);
    let mut l_scalars = Vec::with_capacity(n - num_inputs);
    for i in 0..n {
        let s = beta * qap.u[i] + alpha * qap.v[i] + qap.w[i];
        if i < num_inputs {
            ic_scalars.push(s * gamma_inv);
        } else {
            l_scalars.push(s * delta_inv);
        }
    }
    let ic = Projective::batch_to_affine(&t1.mul_many(&ic_scalars));
    let l_query = Projective::batch_to_affine(&t1.mul_many(&l_scalars));

    // h query: tau^i * Z(tau) / delta for i in 0..domain-1
    let mut h_scalars = Vec::with_capacity(qap.domain.size - 1);
    let mut acc = qap.z_tau * delta_inv;
    for _ in 0..qap.domain.size - 1 {
        h_scalars.push(acc);
        acc *= tau;
    }
    let h_query = Projective::batch_to_affine(&t1.mul_many(&h_scalars));

    let vk = VerifyingKey {
        alpha_g1: g1.mul(alpha).to_affine(),
        beta_g2: g2.mul(beta).to_affine(),
        gamma_g2: g2.mul(gamma).to_affine(),
        delta_g2: g2.mul(delta).to_affine(),
        ic,
    };
    Ok(ProvingKey {
        alpha_g1: g1.mul(alpha).to_affine(),
        beta_g1: g1.mul(beta).to_affine(),
        beta_g2: vk.beta_g2,
        delta_g1: g1.mul(delta).to_affine(),
        delta_g2: vk.delta_g2,
        a_query,
        b_g1_query,
        b_g2_query,
        l_query,
        h_query,
        vk,
    })
}

/// Computes the quotient coefficients `h(x) = (A(x)B(x) - C(x))/Z(x)`
/// with four size-`m` FFTs (h has degree <= m-2, so one coset suffices).
fn compute_h(cs: &ConstraintSystem, domain: &Domain) -> Vec<Fr> {
    let m = domain.size;
    let mut a_evals = vec![Fr::zero(); m];
    let mut b_evals = vec![Fr::zero(); m];
    let mut c_evals = vec![Fr::zero(); m];
    for (j, constraint) in cs.constraints.iter().enumerate() {
        a_evals[j] = constraint.a.eval(&cs.assignment);
        b_evals[j] = constraint.b.eval(&cs.assignment);
        c_evals[j] = constraint.c.eval(&cs.assignment);
    }
    domain.ifft(&mut a_evals);
    domain.ifft(&mut b_evals);
    domain.ifft(&mut c_evals);
    domain.coset_fft(&mut a_evals);
    domain.coset_fft(&mut b_evals);
    domain.coset_fft(&mut c_evals);
    let z_inv = domain
        .coset_vanishing()
        .inverse()
        .expect("coset avoids the domain");
    let mut h_evals: Vec<Fr> = (0..m)
        .map(|i| (a_evals[i] * b_evals[i] - c_evals[i]) * z_inv)
        .collect();
    domain.coset_ifft(&mut h_evals);
    h_evals.truncate(m - 1);
    h_evals
}

/// Produces a proof for a satisfied constraint system.
///
/// # Errors
/// Fails when the assignment does not satisfy the constraints (checked
/// up front — a malformed witness must never yield a "proof").
pub fn prove<R: rand::RngCore + ?Sized>(
    rng: &mut R,
    pk: &ProvingKey,
    cs: &ConstraintSystem,
) -> Result<Proof, SnarkError> {
    let _span = dsaudit_algebra::obs::span("snark.prove");
    if !cs.is_satisfied() {
        return Err(SnarkError::Unsatisfied);
    }
    let m = cs.constraints.len().max(2);
    let domain = Domain::new(m).ok_or(SnarkError::CircuitTooLarge(m))?;
    let h = compute_h(cs, &domain);

    let r = Fr::random(rng);
    let s = Fr::random(rng);
    let z = &cs.assignment;
    let num_inputs = cs.num_public + 1;

    // A = alpha + sum z_i u_i(tau) + r delta
    let a_acc = msm(&pk.a_query, z)
        .add_affine(&pk.alpha_g1)
        .add(&pk.delta_g1.mul(r));
    // B = beta + sum z_i v_i(tau) + s delta (both groups)
    let b_g2_acc = msm(&pk.b_g2_query, z)
        .add_affine(&pk.beta_g2)
        .add(&pk.delta_g2.mul(s));
    let b_g1_acc = msm(&pk.b_g1_query, z)
        .add_affine(&pk.beta_g1)
        .add(&pk.delta_g1.mul(s));
    // C = sum_wit z_i L_i + h(tau)Z(tau)/delta + sA + rB - rs delta
    let l_part = msm(&pk.l_query, &z[num_inputs..]);
    let h_part = msm(&pk.h_query[..h.len()], &h);
    let c_acc = l_part
        .add(&h_part)
        .add(&a_acc.mul(s))
        .add(&b_g1_acc.mul(r))
        .add(&pk.delta_g1.mul(-(r * s)));

    Ok(Proof {
        a: a_acc.to_affine(),
        b: b_g2_acc.to_affine(),
        c: c_acc.to_affine(),
    })
}

/// Verifies a proof against public inputs:
/// `e(A, B) == e(alpha, beta) * e(IC(x), gamma) * e(C, delta)`, checked
/// as one four-pair product `e(A, B) e(-alpha, beta) e(-IC(x), gamma)
/// e(-C, delta) == 1` — one shared Miller loop and one final
/// exponentiation.
pub fn verify(vk: &VerifyingKey, public_inputs: &[Fr], proof: &Proof) -> bool {
    let _span = dsaudit_algebra::obs::span("snark.verify");
    if public_inputs.len() + 1 != vk.ic.len() {
        return false;
    }
    let mut acc = vk.ic[0].to_projective();
    for (p, b) in public_inputs.iter().zip(&vk.ic[1..]) {
        acc = acc.add(&b.mul(*p));
    }
    multi_pairing(&[
        (proof.a, proof.b),
        (vk.alpha_g1.neg(), vk.beta_g2),
        (acc.to_affine().neg(), vk.gamma_g2),
        (proof.c.neg(), vk.delta_g2),
    ]) == Gt::identity()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::r1cs::{LinearCombination, Variable};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x960716)
    }

    /// x * y = out (public out), the minimal end-to-end circuit.
    fn product_circuit(x: u64, y: u64, out: u64) -> ConstraintSystem {
        let mut cs = ConstraintSystem::new();
        let out_v = cs.alloc_public(Fr::from_u64(out));
        let x_v = cs.alloc_witness(Fr::from_u64(x));
        let y_v = cs.alloc_witness(Fr::from_u64(y));
        let p = cs.mul(x_v, y_v);
        cs.enforce_equal(
            LinearCombination::from_var(p),
            LinearCombination::from_var(out_v),
        );
        cs
    }

    #[test]
    fn prove_verify_roundtrip() {
        let mut rng = rng();
        let cs = product_circuit(6, 7, 42);
        let pk = setup(&mut rng, &cs).unwrap();
        let proof = prove(&mut rng, &pk, &cs).unwrap();
        assert!(verify(&pk.vk, &[Fr::from_u64(42)], &proof));
    }

    #[test]
    fn wrong_public_input_rejected() {
        let mut rng = rng();
        let cs = product_circuit(6, 7, 42);
        let pk = setup(&mut rng, &cs).unwrap();
        let proof = prove(&mut rng, &pk, &cs).unwrap();
        assert!(!verify(&pk.vk, &[Fr::from_u64(43)], &proof));
        assert!(!verify(&pk.vk, &[], &proof));
    }

    #[test]
    fn unsatisfied_witness_cannot_prove() {
        let mut rng = rng();
        let good = product_circuit(6, 7, 42);
        let pk = setup(&mut rng, &good).unwrap();
        let bad = product_circuit(6, 7, 41); // 6*7 != 41
        assert_eq!(prove(&mut rng, &pk, &bad), Err(SnarkError::Unsatisfied));
    }

    #[test]
    fn tampered_proof_rejected() {
        let mut rng = rng();
        let cs = product_circuit(3, 5, 15);
        let pk = setup(&mut rng, &cs).unwrap();
        let proof = prove(&mut rng, &pk, &cs).unwrap();
        let mut bad = proof;
        bad.a = bad.c;
        assert!(!verify(&pk.vk, &[Fr::from_u64(15)], &bad));
    }

    #[test]
    fn proofs_are_rerandomized() {
        let mut rng = rng();
        let cs = product_circuit(2, 3, 6);
        let pk = setup(&mut rng, &cs).unwrap();
        let p1 = prove(&mut rng, &pk, &cs).unwrap();
        let p2 = prove(&mut rng, &pk, &cs).unwrap();
        assert_ne!(p1, p2, "zero-knowledge requires fresh randomness");
        assert!(verify(&pk.vk, &[Fr::from_u64(6)], &p1));
        assert!(verify(&pk.vk, &[Fr::from_u64(6)], &p2));
    }

    #[test]
    fn padded_circuit_still_works() {
        let mut rng = rng();
        let mut cs = product_circuit(6, 7, 42);
        cs.pad_constraints(64);
        let pk = setup(&mut rng, &cs).unwrap();
        let proof = prove(&mut rng, &pk, &cs).unwrap();
        assert!(verify(&pk.vk, &[Fr::from_u64(42)], &proof));
        // parameters grew with the padding (H query tracks the domain)
        assert_eq!(pk.h_query.len(), 63);
    }

    #[test]
    fn linear_only_circuit() {
        // a circuit with no multiplication: x + 2 = 7 (public 7)
        let mut rng = rng();
        let mut cs = ConstraintSystem::new();
        let out = cs.alloc_public(Fr::from_u64(7));
        let x = cs.alloc_witness(Fr::from_u64(5));
        cs.enforce_equal(
            LinearCombination::from_var(x).add_term(Variable::ONE, Fr::from_u64(2)),
            LinearCombination::from_var(out),
        );
        let pk = setup(&mut rng, &cs).unwrap();
        let proof = prove(&mut rng, &pk, &cs).unwrap();
        assert!(verify(&pk.vk, &[Fr::from_u64(7)], &proof));
    }
}
