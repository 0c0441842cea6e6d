//! The optimal ate pairing `e : G1 x G2 -> GT` on BN254.
//!
//! The engine runs the Miller loop in homogeneous projective coordinates
//! directly over the twist `E'(Fq2)` — no per-step field inversions and
//! no untwisting into `E(Fq12)`. Each doubling/addition step emits a
//! sparse line value `c0 + c3 w + c4 w^3` (three `Fq2` coefficients)
//! which is folded into the accumulator through the `mul_by_034` /
//! `mul_034_by_034` kernels in [`crate::fp12`]. Fixed G2 points are
//! prepared once ([`G2Prepared`] caches the whole line-coefficient
//! sequence) so repeated pairings against the same G2 point skip all
//! curve arithmetic. The final exponentiation runs its hard part on
//! cyclotomic arithmetic (Granger–Scott squaring, Karabina compressed
//! squaring inside `x`-exponentiations).
//!
//! The original affine-`Fq12` Miller loop (the same structure as the
//! reference `py_ecc` implementation) is retained as
//! [`miller_loop_generic`], the correctness oracle for differential
//! tests; the hard part is likewise cross-checked against a generic
//! big-integer exponentiation in [`final_exp_hard_generic`].
//!
//! Exponentiation in `GT` splits the exponent along the Frobenius map
//! (the GLS analogue of the G1 GLV split in [`crate::endo`]): on the
//! order-`r` subgroup Frobenius is the power `lambda = q mod r = 6x^2`,
//! so `g^k = prod_i frobenius_i(g)^{k_i}` with four ~66-bit `k_i` that
//! share one run of cyclotomic squarings. The lattice basis and its
//! rounding reciprocals are derived from the BN parameter `x` at first
//! use and checked there; every split is checked before it is used.

use std::sync::OnceLock;

use crate::bigint;
use crate::bigint::{div_small, sub_small};
use crate::biguint::BigUint;
use crate::curve::CurveParams;
use crate::field::Field;
use crate::fields::{Fq, FqParams, Fr, FrParams, ATE_LOOP_COUNT, BN_X};
use crate::fp::FieldParams;
use crate::fp12::Fq12;
use crate::fp2::Fq2;
use crate::fp6::Fq6;
use crate::g1::G1Affine;
use crate::g2::{G2Affine, G2Params};
use crate::msm::{u128_limbs, wnaf_digits};

// ---------------------------------------------------------------------------
// Projective Miller loop over the twist

/// A twist point in homogeneous projective coordinates (`x = X/Z`,
/// `y = Y/Z`), the working representation inside [`G2Prepared`].
#[derive(Clone, Copy, Debug)]
struct HomProjective {
    x: Fq2,
    y: Fq2,
    z: Fq2,
}

/// One sparse line value: coefficients at the `w^0`, `w^1`, `w^3` slots,
/// with `c0` still to be scaled by `y_P` and `c3` by `x_P`.
type EllCoeff = (Fq2, Fq2, Fq2);

/// `(q - 1)/3` and `(q - 1)/2` powers of `xi`, plus their `q^2`
/// counterparts — the twisted-Frobenius constants for the two
/// correction lines of the optimal ate pairing.
fn frob_twist_consts() -> &'static (Fq2, Fq2, Fq2, Fq2) {
    static CACHE: OnceLock<(Fq2, Fq2, Fq2, Fq2)> = OnceLock::new();
    CACHE.get_or_init(|| {
        let q_minus_1 = sub_small(&FqParams::MODULUS, 1);
        let g2 = Fq2::xi().pow(&div_small(&q_minus_1, 3)); // xi^{(q-1)/3}
        let g3 = Fq2::xi().pow(&div_small(&q_minus_1, 2)); // xi^{(q-1)/2}
        // xi^{(q^2-1)/3} = g2^{q+1} = conj(g2) * g2, likewise for g3
        (g2, g3, g2.conjugate() * g2, g3.conjugate() * g3)
    })
}

/// Doubling step: `r <- 2r`, returning the tangent-line coefficients.
/// Homogeneous-coordinate formulas (Costello–Lange–Naehrig, as deployed
/// for BN curves with a D-type twist).
fn doubling_step(r: &mut HomProjective, two_inv: Fq) -> EllCoeff {
    let a = (r.x * r.y).scale(two_inv);
    let b = r.y.square();
    let c = r.z.square();
    let e = G2Params::coeff_b() * (c.double() + c);
    let f = e.double() + e;
    let g = (b + f).scale(two_inv);
    let h = (r.y + r.z).square() - (b + c);
    let i = e - b;
    let j = r.x.square();
    let e_sq = e.square();
    r.x = a * (b - f);
    r.y = g.square() - (e_sq.double() + e_sq);
    r.z = b * h;
    (-h, j.double() + j, i)
}

/// Addition step: `r <- r + q`, returning the chord-line coefficients.
fn addition_step(r: &mut HomProjective, q: &G2Affine) -> EllCoeff {
    let theta = r.y - q.y * r.z;
    let lambda = r.x - q.x * r.z;
    let c = theta.square();
    let d = lambda.square();
    let e = lambda * d;
    let f = r.z * c;
    let g = r.x * d;
    let h = e + f - g.double();
    r.x = lambda * h;
    r.y = theta * (g - h) - e * r.y;
    r.z *= e;
    (lambda, -theta, theta * q.x - lambda * q.y)
}

/// A G2 point with its full Miller-loop line-coefficient sequence
/// precomputed. Preparing costs one pass of twist-curve arithmetic;
/// every subsequent pairing against the point reuses the coefficients
/// and only pays the (sparse) `Fq12` accumulator work. The verifier's
/// `g2`, `eps` and `delta` never change across audits, which is what
/// makes this the right interface for `core`.
#[derive(Clone, Debug)]
pub struct G2Prepared {
    /// Line coefficients in loop-execution order (doublings, conditional
    /// additions, then the two Frobenius correction lines).
    ell_coeffs: Vec<EllCoeff>,
    /// Prepared identity: the pair contributes nothing to the product.
    infinity: bool,
}

impl G2Prepared {
    /// Runs the Miller-loop point arithmetic once and stores every line.
    pub fn from_affine(q: &G2Affine) -> Self {
        if q.infinity {
            return Self {
                ell_coeffs: Vec::new(),
                infinity: true,
            };
        }
        let two_inv = Fq::from_u64(2).inverse().expect("2 != 0 in Fq");
        let mut r = HomProjective {
            x: q.x,
            y: q.y,
            z: Fq2::one(),
        };
        let top = 127 - ATE_LOOP_COUNT.leading_zeros();
        let mut ell_coeffs = Vec::with_capacity(top as usize + ATE_LOOP_COUNT.count_ones() as usize + 2);
        for i in (0..top).rev() {
            ell_coeffs.push(doubling_step(&mut r, two_inv));
            if (ATE_LOOP_COUNT >> i) & 1 == 1 {
                ell_coeffs.push(addition_step(&mut r, q));
            }
        }
        // Frobenius corrections: Q1 = pi(Q), Q2 = -pi^2(Q), where pi acts
        // on the twist as (x, y) -> (conj(x) g2, conj(y) g3).
        let (g2c, g3c, g2c2, g3c2) = *frob_twist_consts();
        let q1 = G2Affine {
            x: q.x.conjugate() * g2c,
            y: q.y.conjugate() * g3c,
            infinity: false,
        };
        let nq2 = G2Affine {
            x: q.x * g2c2,
            y: -(q.y * g3c2),
            infinity: false,
        };
        ell_coeffs.push(addition_step(&mut r, &q1));
        ell_coeffs.push(addition_step(&mut r, &nq2));
        Self {
            ell_coeffs,
            infinity: false,
        }
    }

    /// The prepared canonical G2 generator, computed once per process.
    pub fn generator() -> &'static Self {
        static GEN: OnceLock<G2Prepared> = OnceLock::new();
        GEN.get_or_init(|| Self::from_affine(&G2Affine::generator()))
    }

    /// True when this prepared point is the identity.
    pub fn is_identity(&self) -> bool {
        self.infinity
    }
}

impl From<&G2Affine> for G2Prepared {
    fn from(q: &G2Affine) -> Self {
        Self::from_affine(q)
    }
}

/// The Miller loop over any number of prepared pairs, sharing the
/// accumulator squarings across all pairs. Pairs whose G1 or G2 point is
/// the identity are skipped (their pairing factor is 1). Line values of
/// distinct pairs are folded two at a time through the sparse-by-sparse
/// kernel before touching the full accumulator.
///
/// Constant-time contract: the loop structure depends only on public
/// data — the compile-time ATE loop constant and the shape (count,
/// identity-ness) of the input pairs, which in this protocol are public
/// keys, tags and proof elements. Each such branch carries an audited
/// `ct-branch` allow; nothing branches on field-element *values*.
// lint:ct
pub fn multi_miller_loop(pairs: &[(&G1Affine, &G2Prepared)]) -> Fq12 {
    let active: Vec<(&G1Affine, &G2Prepared)> = pairs
        .iter()
        .filter(|(p, q)| !p.infinity && !q.infinity) // lint:allow(ct-branch) — identity-ness of pairing inputs (public keys/proof points) is public
        .copied()
        .collect();
    // lint:allow(ct-branch) — the number of non-identity pairs is public structure
    if active.is_empty() {
        return Fq12::one(); // lint:allow(ct-branch) — early exit on a publicly empty input
    }
    let mut f = Fq12::one();
    let mut idx = 0usize;
    let mut lines: Vec<EllCoeff> = Vec::with_capacity(active.len());
    let step = |f: &mut Fq12, idx: usize, lines: &mut Vec<EllCoeff>| {
        lines.clear();
        for (p, q) in &active {
            let (c0, c3, c4) = q.ell_coeffs[idx];
            lines.push((c0.scale(p.y), c3.scale(p.x), c4));
        }
        let mut chunks = lines.chunks_exact(2);
        for pair in &mut chunks {
            *f *= Fq12::mul_034_by_034(pair[0], pair[1]);
        }
        // lint:allow(ct-branch) — odd/even pair count is public structure
        if let [l] = chunks.remainder() {
            *f = f.mul_by_034(l.0, l.1, l.2);
        }
    };
    let top = 127 - ATE_LOOP_COUNT.leading_zeros();
    for i in (0..top).rev() {
        f = f.square();
        step(&mut f, idx, &mut lines);
        idx += 1;
        // lint:allow(ct-branch) — bit scan of the compile-time public ATE loop constant
        if (ATE_LOOP_COUNT >> i) & 1 == 1 {
            step(&mut f, idx, &mut lines);
            idx += 1;
        }
    }
    // the two Frobenius correction lines
    step(&mut f, idx, &mut lines);
    step(&mut f, idx + 1, &mut lines);
    f
}

/// The Miller loop `f_{6x+2, Q}(P)` through the projective engine
/// (prepares `Q` on the fly).
pub fn miller_loop(p: &G1Affine, q: &G2Affine) -> Fq12 {
    let _span = dsaudit_obs::span("algebra.miller_loop");
    multi_miller_loop(&[(p, &G2Prepared::from_affine(q))])
}

// ---------------------------------------------------------------------------
// Generic affine oracle (retained for differential testing)

/// A point of `E(Fq12)` in affine coordinates (never the identity inside
/// the Miller loop).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Ept {
    x: Fq12,
    y: Fq12,
}

/// Embeds an `Fq2` element `a` as `a * w^2` (i.e. at the `v^1` slot of c0).
fn embed_w2(a: Fq2) -> Fq12 {
    Fq12::new(Fq6::new(Fq2::zero(), a, Fq2::zero()), Fq6::zero())
}

/// Embeds an `Fq2` element `a` as `a * w^3` (i.e. at the `v^1` slot of c1).
fn embed_w3(a: Fq2) -> Fq12 {
    Fq12::new(Fq6::zero(), Fq6::new(Fq2::zero(), a, Fq2::zero()))
}

/// The untwisting embedding `psi: E'(Fq2) -> E(Fq12)`.
fn untwist(q: &G2Affine) -> Ept {
    Ept {
        x: embed_w2(q.x),
        y: embed_w3(q.y),
    }
}

/// Evaluates the line through `a` and `b` (tangent when `a == b`) at `t`.
/// Also returns `a + b` so the Miller loop shares the slope computation.
fn line_and_add(a: &Ept, b: &Ept, xt: &Fq12, yt: &Fq12) -> (Fq12, Ept) {
    let m = if a.x != b.x {
        (b.y - a.y) * (b.x - a.x).inverse().expect("distinct x")
    } else {
        debug_assert_eq!(a.y, b.y, "vertical line must not occur in the loop");
        let x2 = a.x.square();
        (x2 + x2 + x2) * a.y.double().inverse().expect("y != 0")
    };
    let line = m * (*xt - a.x) - (*yt - a.y);
    let x3 = m.square() - a.x - b.x;
    let y3 = m * (a.x - x3) - a.y;
    (line, Ept { x: x3, y: y3 })
}

/// The original affine-`Fq12` Miller loop (one field inversion per step):
/// the slow, auditable oracle the projective engine is differentially
/// tested against. Not used on any hot path.
pub fn miller_loop_generic(p: &G1Affine, q: &G2Affine) -> Fq12 {
    if p.infinity || q.infinity {
        return Fq12::one();
    }
    let xt = Fq12::from_fq(p.x);
    let yt = Fq12::from_fq(p.y);
    let q_emb = untwist(q);
    let mut r = q_emb;
    let mut f = Fq12::one();
    let top = 127 - ATE_LOOP_COUNT.leading_zeros();
    for i in (0..top).rev() {
        let (line, r2) = line_and_add(&r, &r, &xt, &yt);
        f = f.square() * line;
        r = r2;
        if (ATE_LOOP_COUNT >> i) & 1 == 1 {
            let (line, radd) = line_and_add(&r, &q_emb, &xt, &yt);
            f *= line;
            r = radd;
        }
    }
    // Frobenius corrections: Q1 = pi(Q), nQ2 = -pi^2(Q).
    let q1 = Ept {
        x: q_emb.x.frobenius(1),
        y: q_emb.y.frobenius(1),
    };
    let nq2 = Ept {
        x: q1.x.frobenius(1),
        y: -q1.y.frobenius(1),
    };
    let (line, r1) = line_and_add(&r, &q1, &xt, &yt);
    f *= line;
    let (line, _) = line_and_add(&r1, &nq2, &xt, &yt);
    f * line
}

// ---------------------------------------------------------------------------
// Final exponentiation

/// Easy part of the final exponentiation: `f^{(q^6 - 1)(q^2 + 1)}`.
/// The output lies in the cyclotomic subgroup.
fn final_exp_easy(f: &Fq12) -> Fq12 {
    let inv = f.inverse().expect("Miller loop output is nonzero");
    let t = f.conjugate() * inv; // f^{q^6 - 1}
    t.frobenius(2) * t // ^(q^2 + 1)
}

/// `f^{-x}` for cyclotomic `f` (conjugate of `f^x`), through the
/// Karabina compressed-squaring chain.
fn exp_by_neg_x(f: &Fq12) -> Fq12 {
    f.cyclotomic_pow_x().conjugate()
}

/// Hard part `f^{(q^4 - q^2 + 1)/r}` via the standard BN addition chain
/// (Aranha et al., as deployed for alt_bn128). Requires cyclotomic input;
/// all squarings run on the Granger–Scott kernel.
fn final_exp_hard(f: &Fq12) -> Fq12 {
    let a = exp_by_neg_x(f);
    let b = a.cyclotomic_square();
    let c = b.cyclotomic_square();
    let d = c * b;

    let e = exp_by_neg_x(&d);
    let g = e.cyclotomic_square();
    let h = exp_by_neg_x(&g);
    let i = d.conjugate();
    let j = h.conjugate();

    let k = j * e;
    let l = k * i;
    let m = l * b;
    let n = l * e;
    let o = *f * n;

    let p = m.frobenius(1);
    let q = p * o;

    let r = l.frobenius(2);
    let s = r * q;

    let t = f.conjugate();
    let u = t * m;
    let v = u.frobenius(3);

    v * s
}

/// Generic hard part via a big-integer exponent `(q^4 - q^2 + 1)/r`,
/// used as the correctness oracle for the deployed addition chain.
pub fn final_exp_hard_generic(f: &Fq12) -> Fq12 {
    static EXP: OnceLock<Vec<u64>> = OnceLock::new();
    let exp = EXP.get_or_init(|| {
        let q = BigUint::from_limbs(&FqParams::MODULUS);
        let r = BigUint::from_limbs(&FrParams::MODULUS);
        let q2 = q.mul(&q);
        let q4 = q2.mul(&q2);
        let num = q4.sub(&q2).add(&BigUint::one());
        let (quot, rem) = num.div_rem(&r);
        assert!(rem.is_zero(), "r must divide q^4 - q^2 + 1");
        quot.limbs().to_vec()
    });
    f.pow(exp)
}

/// Full final exponentiation `f^{(q^12 - 1)/r}`.
pub fn final_exponentiation(f: &Fq12) -> Gt {
    let _span = dsaudit_obs::span("algebra.final_exp");
    let easy = final_exp_easy(f);
    Gt(final_exp_hard(&easy))
}

// ---------------------------------------------------------------------------
// Pairing products

/// The optimal ate pairing `e(P, Q)`.
pub fn pairing(p: &G1Affine, q: &G2Affine) -> Gt {
    final_exponentiation(&miller_loop(p, q))
}

/// Product of pairings `prod_i e(P_i, Q_i)` with a single shared Miller
/// loop and final exponentiation — the workhorse of proof verification.
pub fn multi_pairing(pairs: &[(G1Affine, G2Affine)]) -> Gt {
    let prepared: Vec<G2Prepared> = pairs.iter().map(|(_, q)| G2Prepared::from_affine(q)).collect();
    let refs: Vec<(&G1Affine, &G2Prepared)> = pairs
        .iter()
        .zip(&prepared)
        .map(|((p, _), qp)| (p, qp))
        .collect();
    final_exponentiation(&multi_miller_loop(&refs))
}

/// Product of pairings against **prepared** G2 points: the hot-path API
/// for verifiers whose G2 points (`g2`, `eps`, `delta`) are fixed across
/// audits.
pub fn multi_pairing_prepared(pairs: &[(&G1Affine, &G2Prepared)]) -> Gt {
    let _span = dsaudit_obs::span("algebra.pairing_product");
    dsaudit_obs::counter_inc("algebra.pairing_products");
    dsaudit_obs::observe("algebra.pairing_terms", pairs.len() as u64);
    let f = {
        let _miller = dsaudit_obs::span("algebra.miller_loop");
        multi_miller_loop(pairs)
    };
    final_exponentiation(&f)
}

/// An element of the pairing target group `GT` (order `r`, multiplicative).
///
/// Wraps a cyclotomic `Fq12` element (every constructor guarantees
/// membership in the cyclotomic subgroup, which is what licenses the
/// Granger–Scott arithmetic in [`Gt::pow`]). Group notation is
/// multiplicative: [`Gt::mul`] combines audits, [`Gt::pow`]
/// exponentiates by a scalar.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Gt(pub(crate) Fq12);

impl Default for Gt {
    fn default() -> Self {
        Self::identity()
    }
}

impl Gt {
    /// The group identity.
    pub fn identity() -> Self {
        Gt(Fq12::one())
    }

    /// `e(g1, g2)` for the canonical generators — a generator of `GT`.
    pub fn generator() -> Self {
        static GEN: OnceLock<Gt> = OnceLock::new();
        *GEN.get_or_init(|| pairing(&G1Affine::generator(), &G2Affine::generator()))
    }

    /// Group operation.
    pub fn mul(&self, other: &Self) -> Self {
        Gt(self.0 * other.0)
    }

    /// Group inverse (conjugation, valid for unitary elements).
    pub fn invert(&self) -> Self {
        Gt(self.0.conjugate())
    }

    /// Exponentiation by a scalar: the one-term [`Gt::multi_pow`], about
    /// 66 cyclotomic squarings and 55 multiplications where a signed-NAF
    /// square-and-multiply takes 254 and ~85. Variable-time in `k`
    /// through its Frobenius split and wNAF schedule; the prover's mask
    /// `z` (`R = e(g1, eps)^z`) is the one secret exponent it sees
    /// (docs/LINTS.md).
    pub fn pow(&self, k: Fr) -> Self {
        Self::multi_pow(&[(*self, k)])
    }

    /// Simultaneous multi-exponentiation `prod_i g_i^{k_i}`. Each `k_i`
    /// is split as `k_i0 + k_i1 lambda + k_i2 lambda^2 + k_i3 lambda^3`
    /// with ~66-bit parts (`GlsBasis::split`), so `g_i^{k_i}` is the
    /// product of `frobenius_j(g_i)^{k_ij}`, and all `4n` parts share one
    /// run of ~66 cyclotomic squarings (`gt_straus`). Each base pays
    /// one table of its odd powers `g, g^3, g^5, g^7` (one squaring and
    /// three multiplications); the other three tables are its Frobenius
    /// images, and a negative part or digit is a free conjugation. This
    /// is the prover's mask `R = e(g1, eps)^z` and the batch verifier's
    /// `prod_u R_u^{-rho_u}`.
    ///
    /// Exact on the order-`r` subgroup, where Frobenius is the power
    /// `lambda`: every pairing value and every product and power of
    /// them. A decoded element outside it ([`Gt::from_compressed`] checks
    /// cyclotomic membership only) is raised to some `k'` congruent to
    /// `k` modulo `r`.
    pub fn multi_pow(terms: &[(Gt, Fr)]) -> Gt {
        let mut parts: Vec<GlsTerm> = Vec::with_capacity(4 * terms.len());
        for (g, k) in terms {
            let table = odd_powers(&g.0);
            match GlsBasis::get().and_then(|basis| basis.split(*k)) {
                Some(split) => {
                    for (i, &part) in split.iter().enumerate() {
                        let table = if i == 0 {
                            table
                        } else {
                            table.map(|p| p.frobenius(i))
                        };
                        parts.push(GlsTerm {
                            table,
                            digits: wnaf_digits(&u128_limbs(part.unsigned_abs()), GT_WNAF_WIDTH),
                            neg: part < 0,
                        });
                    }
                }
                // never expected: the unsplit exponent on the same kernel
                None => parts.push(GlsTerm {
                    table,
                    digits: wnaf_digits(&k.to_canonical(), GT_WNAF_WIDTH),
                    neg: false,
                }),
            }
        }
        Gt(gt_straus(&parts))
    }

    /// True for the identity.
    pub fn is_identity(&self) -> bool {
        self.0 == Fq12::one()
    }

    /// Raw access to the underlying field element.
    pub fn as_fq12(&self) -> &Fq12 {
        &self.0
    }

    /// Torus (T2) compression to 192 bytes.
    ///
    /// For a unitary element `m = m0 + m1 w`, the compressed form is
    /// `g = (1 + m0) / m1` in `Fq6` (six `Fq` coefficients of 32 bytes
    /// each); decompression recovers `m = (g + w)/(g - w)`. The identity
    /// (the only GT element with `m1 = 0`) is flagged in the top bit of
    /// the first byte. This is what makes the paper's 288-byte audit
    /// proof accounting (3x32 B + 192 B) honest.
    pub fn to_compressed(&self) -> [u8; 192] {
        let mut out = [0u8; 192];
        if self.0.c1.is_zero() {
            // unitary with m1 = 0 implies m0 = +-1; in odd-order GT only +1.
            out[0] = 0x80;
            return out;
        }
        let g = (Fq6::one() + self.0.c0)
            * self.0.c1.inverse().expect("nonzero checked above");
        for (i, fq) in [g.c0.c0, g.c0.c1, g.c1.c0, g.c1.c1, g.c2.c0, g.c2.c1]
            .iter()
            .enumerate()
        {
            out[i * 32..(i + 1) * 32].copy_from_slice(&fq.to_bytes_be());
        }
        debug_assert_eq!(out[0] & 0x80, 0, "Fq fits 254 bits");
        out
    }

    /// Decompresses a torus-encoded element. Returns `None` for malformed
    /// encodings, including any encoding outside the **cyclotomic
    /// subgroup** (torus decompression alone only guarantees unitarity;
    /// the extra check keeps the `Gt` invariant that licenses cyclotomic
    /// arithmetic, and rejects a class of adversarial encodings before
    /// they ever reach a verifier equation). Membership in the order-`r`
    /// subgroup is still the verifier equation's job.
    pub fn from_compressed(bytes: &[u8; 192]) -> Option<Self> {
        if bytes[0] & 0x80 != 0 {
            let ok = bytes[0] == 0x80 && bytes[1..].iter().all(|&b| b == 0);
            return ok.then(Self::identity);
        }
        let mut coeffs = [crate::fields::Fq::ZERO; 6];
        for (i, c) in coeffs.iter_mut().enumerate() {
            let mut buf = [0u8; 32];
            buf.copy_from_slice(&bytes[i * 32..(i + 1) * 32]);
            *c = crate::fields::Fq::from_bytes_be(&buf)?;
        }
        let g = Fq6::new(
            Fq2::new(coeffs[0], coeffs[1]),
            Fq2::new(coeffs[2], coeffs[3]),
            Fq2::new(coeffs[4], coeffs[5]),
        );
        // m = (g + w) / (g - w); both live in Fq12.
        let gw_plus = Fq12::new(g, Fq6::one());
        let gw_minus = Fq12::new(g, -Fq6::one());
        let m = gw_plus * gw_minus.inverse()?;
        m.is_cyclotomic().then_some(Gt(m))
    }

    /// Uncompressed 384-byte serialization (12 `Fq` coefficients).
    pub fn to_uncompressed(&self) -> [u8; 384] {
        let mut out = [0u8; 384];
        let sixes = [self.0.c0, self.0.c1];
        let mut idx = 0;
        for s in &sixes {
            for fq2 in [s.c0, s.c1, s.c2] {
                for fq in [fq2.c0, fq2.c1] {
                    out[idx * 32..(idx + 1) * 32].copy_from_slice(&fq.to_bytes_be());
                    idx += 1;
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// GLS exponentiation in GT

/// Signed-digit width of the `GT` exponentiation: `wnaf_digits(.., 3)`
/// gives odd digits with `|d| <= 7`, at most one non-zero in any four
/// consecutive positions, so a ~66-bit part costs about 13
/// multiplications against a four-entry table.
const GT_WNAF_WIDTH: usize = 3;

/// `[g, g^3, g^5, g^7]` for cyclotomic `g`: the table a digit `d`
/// indexes at `|d| >> 1`.
fn odd_powers(g: &Fq12) -> [Fq12; 4] {
    let sq = g.cyclotomic_square();
    let g3 = *g * sq;
    let g5 = g3 * sq;
    [*g, g3, g5, g5 * sq]
}

/// One part of a split exponent: the odd-power table of its base, the
/// signed digits of the part's magnitude, and the part's sign.
struct GlsTerm {
    table: [Fq12; 4],
    digits: Vec<i8>,
    neg: bool,
}

/// `prod_t base_t^{k_t}` by one interleaved (Straus) pass over the
/// terms' digits: one cyclotomic squaring per digit position, shared by
/// every term, and one table multiplication per non-zero digit.
///
/// Constant-time contract: constant-time in the bases, variable-time in
/// the exponents. The body branches on the digits and on the sign of
/// each part only, through the two audited `ct-branch` allows below;
/// `Gt::pow(z)` brings the prover's secret mask here (docs/LINTS.md).
// lint:ct
fn gt_straus(terms: &[GlsTerm]) -> Fq12 {
    let len = terms.iter().map(|t| t.digits.len()).max().unwrap_or(0);
    let mut acc = Fq12::one();
    for pos in (0..len).rev() {
        acc = acc.cyclotomic_square();
        for t in terms {
            let d = t.digits.get(pos).copied().unwrap_or(0);
            // lint:allow(ct-branch) — dispatch on a wNAF digit of a split exponent, never on a base; the prover's secret mask z is a documented variable-time exponent (docs/LINTS.md)
            if d != 0 {
                let p = t.table[usize::from(d.unsigned_abs() >> 1)];
                // lint:allow(ct-branch) — the sign of the digit times the sign of its part k_i picks a free conjugation; variable-time in z as documented (docs/LINTS.md)
                acc *= if (d < 0) != t.neg { p.conjugate() } else { p };
            }
        }
    }
    acc
}

/// A sign-magnitude integer of any width, for the once-per-process
/// derivation of [`GlsBasis`] only.
#[derive(Clone, Debug)]
struct BigInt {
    neg: bool,
    mag: BigUint,
}

impl BigInt {
    fn from_i128(v: i128) -> Self {
        Self {
            neg: v < 0,
            mag: BigUint::from_limbs(&u128_limbs(v.unsigned_abs())),
        }
    }

    fn add(&self, other: &Self) -> Self {
        if self.neg == other.neg {
            return Self {
                neg: self.neg,
                mag: self.mag.add(&other.mag),
            };
        }
        let (big, small) = if self.mag.cmp_ge(&other.mag) {
            (self, other)
        } else {
            (other, self)
        };
        let mag = big.mag.sub(&small.mag);
        Self {
            neg: big.neg && !mag.is_zero(),
            mag,
        }
    }

    fn mul(&self, other: &Self) -> Self {
        let mag = self.mag.mul(&other.mag);
        Self {
            neg: self.neg != other.neg && !mag.is_zero(),
            mag,
        }
    }
}

/// `det(m)` by Laplace expansion along the first column (1 for the
/// empty matrix).
fn det(m: &[Vec<i128>]) -> BigInt {
    if m.is_empty() {
        return BigInt::from_i128(1);
    }
    let mut acc = BigInt::from_i128(0);
    for (j, row) in m.iter().enumerate() {
        let head = BigInt::from_i128(row.first().copied().unwrap_or(0));
        acc = acc.add(&head.mul(&cofactor(m, j)));
    }
    acc
}

/// The cofactor of entry `(j, 0)`: `(-1)^j` times the determinant of
/// `m` without row `j` and column 0.
fn cofactor(m: &[Vec<i128>], j: usize) -> BigInt {
    let minor: Vec<Vec<i128>> = m
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != j)
        .map(|(_, row)| row.iter().skip(1).copied().collect())
        .collect();
    let mut c = det(&minor);
    if j % 2 == 1 {
        c.neg = !c.neg && !c.mag.is_zero();
    }
    c
}

/// Embeds a signed 128-bit integer into `Fr`.
fn fr_from_i128(v: i128) -> Fr {
    let f = Fr::from_limbs(u128_limbs(v.unsigned_abs()));
    if v < 0 {
        -f
    } else {
        f
    }
}

/// The Galbraith–Scott basis of the lattice `{v in Z^4 : sum_i v_i
/// lambda^i == 0 (mod r)}` for `lambda = 6x^2 == q (mod r)`, its rows
/// written in the BN parameter `x`, together with the first row of its
/// inverse in fixed point, which Babai rounding multiplies by. The rows
/// span an index-3 sublattice (`|det| = 3r`), which lengthens a split
/// by under two bits.
struct GlsBasis {
    lambda: Fr,
    rows: [[i128; 4]; 4],
    /// Per row `j`: the sign of `B^{-1}[0][j]` and
    /// `floor(|B^{-1}[0][j]| * 2^256)`.
    recips: [(bool, bigint::Limbs); 4],
}

impl GlsBasis {
    /// Derives the basis from `x` and checks it: `q == lambda (mod r)`,
    /// every row in the lattice, `|det| = 3r`. `None` (never expected)
    /// leaves every exponent unsplit.
    fn derive() -> Option<Self> {
        let x = i128::from(BN_X);
        let rows = [
            [x + 1, x, x, -2 * x],
            [2 * x + 1, -x, -(x + 1), -x],
            [2 * x, 2 * x + 1, 2 * x + 1, 2 * x + 1],
            [x - 1, 4 * x + 2, -2 * x + 1, x - 1],
        ];
        let six_x2 = 6 * x * x;
        let r = BigUint::from_limbs(&FrParams::MODULUS);
        let (_, q_mod_r) = BigUint::from_limbs(&FqParams::MODULUS).div_rem(&r);
        if q_mod_r != BigInt::from_i128(six_x2).mag {
            return None;
        }
        let basis = Self {
            lambda: fr_from_i128(six_x2),
            rows,
            recips: [(false, [0; 4]); 4],
        };
        if rows.iter().any(|row| basis.at_lambda(row) != Fr::zero()) {
            return None;
        }
        let m: Vec<Vec<i128>> = rows.iter().map(|row| row.to_vec()).collect();
        let d = det(&m);
        if d.mag != r.mul(&BigUint::from_limbs(&[3])) {
            return None;
        }
        // B^{-1}[0][j] = cofactor(j, 0) / det
        let mut recips = [(false, [0u64; 4]); 4];
        for (j, recip) in recips.iter_mut().enumerate() {
            let c = cofactor(&m, j);
            let (quot, _) = c.mag.shl(256).div_rem(&d.mag);
            if quot.limbs().len() > 4 {
                return None;
            }
            let mut fixed = [0u64; 4];
            for (f, &l) in fixed.iter_mut().zip(quot.limbs()) {
                *f = l;
            }
            *recip = (c.neg != d.neg, fixed);
        }
        Some(Self { recips, ..basis })
    }

    /// The process-wide basis (derived once).
    fn get() -> Option<&'static GlsBasis> {
        static BASIS: OnceLock<Option<GlsBasis>> = OnceLock::new();
        BASIS.get_or_init(GlsBasis::derive).as_ref()
    }

    /// `sum_i v_i lambda^i` in `Fr`.
    fn at_lambda(&self, v: &[i128; 4]) -> Fr {
        v.iter()
            .rev()
            .fold(Fr::zero(), |acc, &vi| acc * self.lambda + fr_from_i128(vi))
    }

    /// Splits `k` as `k0 + k1 lambda + k2 lambda^2 + k3 lambda^3 (mod r)`
    /// by Babai rounding: `c_j = round(k B^{-1}[0][j])`, then
    /// `(k0, .., k3) = (k, 0, 0, 0) - sum_j c_j row_j`. The `c_j` run to
    /// ~192 bits, but every part is below `2^65` (each `c_j` is within
    /// 3/4 of the exact quotient, and the rows' entries in any column
    /// sum to at most `8x + 3` in absolute value), so the recombination
    /// runs modulo `2^128` in wrapping `i128` arithmetic and is exact.
    /// Checked in `Fr` before use; `None` is never expected.
    fn split(&self, k: Fr) -> Option<[i128; 4]> {
        let limbs = k.to_canonical();
        let [k0, k1, _, _] = limbs;
        let mut parts = [(u128::from(k0) | u128::from(k1) << 64) as i128, 0, 0, 0];
        for (row, (neg, recip)) in self.rows.iter().zip(&self.recips) {
            // c = floor((k * recip + 2^255) / 2^256), kept modulo 2^128
            let [_, _, _, w3, w4, w5, _, _] = bigint::mul_wide(&limbs, recip);
            let (_, carry) = bigint::adc(w3, 1 << 63, 0);
            let (lo, carry) = bigint::adc(w4, 0, carry);
            let (hi, _) = bigint::adc(w5, 0, carry);
            let c = (u128::from(lo) | u128::from(hi) << 64) as i128;
            let c = if *neg { c.wrapping_neg() } else { c };
            for (part, &b) in parts.iter_mut().zip(row) {
                *part = part.wrapping_sub(c.wrapping_mul(b));
            }
        }
        (self.at_lambda(&parts) == k).then_some(parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::g1::G1Projective;
    use crate::g2::G2Projective;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xe)
    }

    #[test]
    fn pairing_nondegenerate() {
        let e = Gt::generator();
        assert!(!e.is_identity());
    }

    #[test]
    fn pairing_has_order_r() {
        let e = Gt::generator();
        assert_eq!(e.0.cyclotomic_exp(&FrParams::MODULUS), Fq12::one());
    }

    #[test]
    fn pairing_bilinear_left() {
        let mut rng = rng();
        let a = Fr::random(&mut rng);
        let p = G1Projective::generator().mul(a).to_affine();
        let q = G2Affine::generator();
        let lhs = pairing(&p, &q);
        let rhs = Gt::generator().pow(a);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn pairing_bilinear_right() {
        let mut rng = rng();
        let b = Fr::random(&mut rng);
        let p = G1Affine::generator();
        let q = G2Projective::generator().mul(b).to_affine();
        assert_eq!(pairing(&p, &q), Gt::generator().pow(b));
    }

    #[test]
    fn pairing_bilinear_both() {
        let mut rng = rng();
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let p = G1Projective::generator().mul(a).to_affine();
        let q = G2Projective::generator().mul(b).to_affine();
        assert_eq!(pairing(&p, &q), Gt::generator().pow(a * b));
    }

    #[test]
    fn pairing_of_identity_is_one() {
        assert!(pairing(&G1Affine::identity(), &G2Affine::generator()).is_identity());
        assert!(pairing(&G1Affine::generator(), &G2Affine::identity()).is_identity());
    }

    #[test]
    fn projective_miller_loop_matches_generic_oracle() {
        // The projective lines are scaled by Z-power factors living in
        // proper subfields, which the final exponentiation kills — so the
        // engines are compared in GT, where the pairing value lives.
        let mut rng = rng();
        for _ in 0..3 {
            let a = Fr::random(&mut rng);
            let b = Fr::random(&mut rng);
            let p = G1Projective::generator().mul(a).to_affine();
            let q = G2Projective::generator().mul(b).to_affine();
            assert_eq!(
                final_exponentiation(&miller_loop(&p, &q)),
                final_exponentiation(&miller_loop_generic(&p, &q))
            );
        }
        // identity inputs
        let p = G1Affine::generator();
        let q = G2Affine::generator();
        assert_eq!(
            miller_loop(&G1Affine::identity(), &q),
            miller_loop_generic(&G1Affine::identity(), &q)
        );
        assert_eq!(
            miller_loop(&p, &G2Affine::identity()),
            miller_loop_generic(&p, &G2Affine::identity())
        );
    }

    #[test]
    fn prepared_multi_miller_matches_generic_product() {
        let mut rng = rng();
        let scalars: Vec<(Fr, Fr)> = (0..3)
            .map(|_| (Fr::random(&mut rng), Fr::random(&mut rng)))
            .collect();
        let pairs: Vec<(G1Affine, G2Affine)> = scalars
            .iter()
            .map(|(a, b)| {
                (
                    G1Projective::generator().mul(*a).to_affine(),
                    G2Projective::generator().mul(*b).to_affine(),
                )
            })
            .collect();
        let prepared: Vec<G2Prepared> =
            pairs.iter().map(|(_, q)| G2Prepared::from_affine(q)).collect();
        let refs: Vec<(&G1Affine, &G2Prepared)> = pairs
            .iter()
            .zip(&prepared)
            .map(|((p, _), qp)| (p, qp))
            .collect();
        let mut expected = Fq12::one();
        for (p, q) in &pairs {
            expected *= miller_loop_generic(p, q);
        }
        // unreduced Miller values may differ by subfield factors that the
        // final exponentiation kills; compare in GT
        assert_eq!(
            final_exponentiation(&multi_miller_loop(&refs)),
            final_exponentiation(&expected)
        );
    }

    #[test]
    fn hard_part_chain_matches_generic_multiple() {
        // The deployed chain (Fuentes-Castaneda variant) computes
        // f^{2x(6x^2+3x+1) * (q^4-q^2+1)/r} — the hard part raised to a
        // fixed constant coprime to r, which is still a non-degenerate
        // bilinear pairing. Verify against the generic big-integer path.
        let mut rng = rng();
        let a = Fr::random(&mut rng);
        let p = G1Projective::generator().mul(a).to_affine();
        let f = miller_loop(&p, &G2Affine::generator());
        let easy = final_exp_easy(&f);
        assert!(easy.is_unitary());
        assert!(easy.is_cyclotomic());
        // c = 12x^3 + 6x^2 + 2x
        let x = BigUint::from_limbs(&[crate::fields::BN_X]);
        let x2 = x.mul(&x);
        let x3 = x2.mul(&x);
        let c = x3
            .mul(&BigUint::from_limbs(&[12]))
            .add(&x2.mul(&BigUint::from_limbs(&[6])))
            .add(&x.mul(&BigUint::from_limbs(&[2])));
        let generic = final_exp_hard_generic(&easy);
        assert_eq!(final_exp_hard(&easy), generic.pow(c.limbs()));
    }

    #[test]
    fn multi_pairing_matches_product() {
        let mut rng = rng();
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let p1 = G1Projective::generator().mul(a).to_affine();
        let p2 = G1Projective::generator().mul(b).to_affine();
        let q = G2Affine::generator();
        let prod = multi_pairing(&[(p1, q), (p2, q)]);
        assert_eq!(prod, Gt::generator().pow(a + b));
    }

    #[test]
    fn prepared_pairing_matches_fresh() {
        let mut rng = rng();
        let a = Fr::random(&mut rng);
        let p = G1Projective::generator().mul(a).to_affine();
        let q = G2Projective::random(&mut rng).to_affine();
        let qp = G2Prepared::from_affine(&q);
        assert_eq!(
            multi_pairing_prepared(&[(&p, &qp)]),
            pairing(&p, &q)
        );
        // the cached generator agrees with an on-the-fly preparation
        assert_eq!(
            multi_pairing_prepared(&[(&p, G2Prepared::generator())]),
            pairing(&p, &G2Affine::generator())
        );
    }

    #[test]
    fn pairing_inverse_relation() {
        // e(-P, Q) = e(P, Q)^{-1}
        let p = G1Affine::generator();
        let q = G2Affine::generator();
        let e = pairing(&p, &q);
        let e_neg = pairing(&p.neg(), &q);
        assert!(e.mul(&e_neg).is_identity());
    }

    #[test]
    fn gt_compression_roundtrip() {
        let mut rng = rng();
        for _ in 0..5 {
            let k = Fr::random(&mut rng);
            let g = Gt::generator().pow(k);
            let bytes = g.to_compressed();
            assert_eq!(Gt::from_compressed(&bytes).unwrap(), g);
        }
        let id = Gt::identity();
        assert_eq!(Gt::from_compressed(&id.to_compressed()).unwrap(), id);
    }

    #[test]
    fn gt_decompression_rejects_non_cyclotomic() {
        // A torus encoding of an arbitrary Fq6 point decompresses to a
        // unitary element that is (generically) outside the cyclotomic
        // subgroup; the decoder must reject it.
        let mut rng = rng();
        let g = Fq6::random(&mut rng);
        let mut bytes = [0u8; 192];
        for (i, fq) in [g.c0.c0, g.c0.c1, g.c1.c0, g.c1.c1, g.c2.c0, g.c2.c1]
            .iter()
            .enumerate()
        {
            bytes[i * 32..(i + 1) * 32].copy_from_slice(&fq.to_bytes_be());
        }
        if bytes[0] & 0x80 == 0 {
            assert!(Gt::from_compressed(&bytes).is_none());
        }
    }

    #[test]
    fn gt_pow_homomorphic() {
        let mut rng = rng();
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let g = Gt::generator();
        assert_eq!(g.pow(a).mul(&g.pow(b)), g.pow(a + b));
        assert_eq!(g.pow(a).pow(b), g.pow(a * b));
    }

    /// `multi_pow` over `n` terms equals the product of the single
    /// `pow`s and of the NAF oracle's powers, for bases that mix the
    /// identity, the generator and random elements of `GT`.
    #[test]
    fn gt_multi_pow_matches_individual_pows() {
        let mut rng = rng();
        for n in [0usize, 1, 2, 7, 13] {
            let terms: Vec<(Gt, Fr)> = (0..n)
                .map(|i| {
                    let base = match i % 3 {
                        0 => Gt::identity(),
                        1 => Gt::generator(),
                        _ => final_exponentiation(&Fq12::random(&mut rng)),
                    };
                    (base, Fr::random(&mut rng))
                })
                .collect();
            let mut singles = Gt::identity();
            let mut oracle = Fq12::one();
            for (g, k) in &terms {
                singles = singles.mul(&g.pow(*k));
                oracle *= g.0.cyclotomic_exp(&k.to_canonical());
            }
            let got = Gt::multi_pow(&terms);
            assert_eq!(got, singles, "n = {n}");
            assert_eq!(got.0, oracle, "n = {n}");
        }
        assert_eq!(
            Gt::multi_pow(&[(Gt::generator(), Fr::zero())]),
            Gt::identity()
        );
    }

    /// The first-use checks of the GLS basis, restated: `q == lambda
    /// (mod r)`, every row in the lattice, `|det| = 3r`; and Frobenius
    /// is the power `lambda` on `GT`.
    #[test]
    fn gls_basis_rows_lie_in_the_lattice() {
        let basis = GlsBasis::get().expect("the GLS basis derives for BN254");
        assert_eq!(Fr::from_limbs(FqParams::MODULUS), basis.lambda);
        for row in &basis.rows {
            assert_eq!(basis.at_lambda(row), Fr::zero(), "row {row:?}");
        }
        let m: Vec<Vec<i128>> = basis.rows.iter().map(|row| row.to_vec()).collect();
        let three_r = BigUint::from_limbs(&FrParams::MODULUS).mul(&BigUint::from_limbs(&[3]));
        assert_eq!(det(&m).mag, three_r);
        let g = Gt::generator().0;
        assert_eq!(
            g.frobenius(1),
            g.cyclotomic_exp(&basis.lambda.to_canonical())
        );
    }

    /// Every split recombines to its scalar with parts below `2^66`.
    fn assert_split_short(k: Fr) {
        let basis = GlsBasis::get().expect("the GLS basis derives for BN254");
        let parts = basis.split(k).expect("every split recombines");
        assert_eq!(basis.at_lambda(&parts), k);
        for part in parts {
            assert!(part.unsigned_abs() < 1 << 66, "part {part} of {k:?}");
        }
    }

    #[test]
    fn gls_split_of_edge_scalars() {
        let lambda = GlsBasis::get().expect("derives").lambda;
        for k in [
            Fr::zero(),
            Fr::one(),
            -Fr::one(),
            lambda,
            lambda.square(),
            lambda.square() * lambda,
            -lambda,
        ] {
            assert_split_short(k);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn gls_split_recombines_short(bytes in any::<[u8; 64]>()) {
            assert_split_short(Fr::from_bytes_wide(&bytes));
        }
    }

    #[test]
    fn gt_pow_matches_generic_fq12_pow() {
        let mut rng = rng();
        let g = Gt::generator();
        for _ in 0..3 {
            let k = Fr::random(&mut rng);
            assert_eq!(g.pow(k).0, g.0.pow(&k.to_canonical()));
        }
        assert_eq!(g.pow(Fr::zero()), Gt::identity());
        assert_eq!(g.pow(Fr::one()), g);
        assert_eq!(Gt::identity().pow(Fr::random(&mut rng)), Gt::identity());
    }
}
