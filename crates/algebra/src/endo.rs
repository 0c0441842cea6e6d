//! GLV endomorphism acceleration for G1 scalar multiplication.
//!
//! BN254 has `j`-invariant 0, so G1 admits the efficient endomorphism
//! `phi(x, y) = (beta * x, y)` where `beta` is a primitive cube root of
//! unity in `Fq`; on the prime-order subgroup `phi` acts as
//! multiplication by `lambda`, a primitive cube root of unity mod `r`.
//! Writing a scalar as `k = k1 + k2 * lambda` with `|k1|, |k2| ~ sqrt(r)`
//! halves the doubling count of a double-and-add ladder:
//! `k * P = k1 * P + k2 * phi(P)` with two ~128-bit scalars sharing one
//! run of doublings.
//!
//! Nothing here is hand-transcribed: `beta` and `lambda` are found by
//! exponentiation at first use, matched against each other on the
//! generator, and the short lattice basis for the decomposition is
//! derived with a partial extended Euclidean algorithm on `(r, lambda)`,
//! together with the fixed-point reciprocals that turn the Babai
//! rounding's two divisions by `r` into multiplications.
//! Every decomposition is verified (`k1 + k2 * lambda == k` in `Fr`)
//! before it is used; any failure falls back to the generic wNAF path,
//! so a wrong constant can cost speed but never correctness.

use std::sync::OnceLock;

use crate::bigint::{self, Limbs};
use crate::curve::Affine;
use crate::field::Field;
use crate::fields::{Fq, Fr, FrParams};
use crate::fp::{FieldParams, Fp};
use crate::g1::{G1Affine, G1Projective};
use crate::msm::{mul_each_batched, u128_limbs, wnaf_digits};
use crate::par::par_map_chunks;

/// A sign-magnitude integer with magnitude below `2^128` (the size class
/// of GLV half-scalars and lattice basis entries).
#[derive(Clone, Copy, Debug)]
struct Signed128 {
    neg: bool,
    mag: u128,
}

/// A sign-magnitude integer on 256-bit limbs, used only inside the
/// decomposition arithmetic.
#[derive(Clone, Copy, Debug)]
struct Signed256 {
    neg: bool,
    mag: Limbs,
}

impl Signed256 {
    fn add(&self, other: &Self) -> Self {
        if self.neg == other.neg {
            let (mag, carry) = bigint::add_wide(&self.mag, &other.mag);
            debug_assert_eq!(carry, 0, "decomposition magnitudes stay below 2^256");
            Self { neg: self.neg, mag }
        } else {
            let (mag, borrow) = bigint::sub_wide(&self.mag, &other.mag);
            if borrow == 0 {
                Self { neg: self.neg, mag }
            } else {
                Self {
                    neg: other.neg,
                    mag: bigint::sub(&other.mag, &self.mag),
                }
            }
        }
    }

    fn negate(&self) -> Self {
        Self {
            neg: !self.neg && !bigint::is_zero(&self.mag),
            mag: self.mag,
        }
    }

    fn to_signed128(self) -> Option<Signed128> {
        if self.mag[2] != 0 || self.mag[3] != 0 {
            return None;
        }
        Some(Signed128 {
            neg: self.neg && !bigint::is_zero(&self.mag),
            mag: (self.mag[0] as u128) | ((self.mag[1] as u128) << 64),
        })
    }
}

/// Embeds a sign-magnitude 128-bit integer into `Fr`.
fn fr_from_signed128(v: &Signed128) -> Fr {
    let two64 = Fr::from_u64(1 << 32).square();
    let f = Fr::from_u64((v.mag >> 64) as u64) * two64 + Fr::from_u64(v.mag as u64);
    if v.neg {
        -f
    } else {
        f
    }
}

/// `mag_a * mag_b` as full 256-bit limbs; `None` if the product overflows
/// (cannot happen for in-range basis entries, checked defensively).
fn mul_mags(a: u128, b: u128) -> Option<Limbs> {
    let wide = bigint::mul_wide(&u128_limbs(a), &u128_limbs(b));
    if wide[4..].iter().any(|&l| l != 0) {
        return None;
    }
    Some([wide[0], wide[1], wide[2], wide[3]])
}

/// `floor(b * 2^256 / r)` for the group order `r`: the fixed-point
/// reciprocal [`round_div`] multiplies by, derived once per basis entry
/// with the long division it stands in for. `None` if it overflows 256
/// bits (cannot happen for `b < 2^128`, checked defensively).
fn reciprocal(b: u128) -> Option<Limbs> {
    let mut shifted = [0u64; 8];
    shifted[4] = b as u64;
    shifted[5] = (b >> 64) as u64;
    let (q, _) = bigint::div_rem_wide(&shifted, &FrParams::MODULUS);
    if q[4..].iter().any(|&l| l != 0) {
        return None;
    }
    Some([q[0], q[1], q[2], q[3]])
}

/// `round(k * b / r)`, half up, for a canonical scalar `k < r` and a
/// basis magnitude `b` with `recip = floor(b * 2^256 / r)`; returns the
/// quotient magnitude if it fits `u128`.
///
/// Division-free: `floor(k * recip / 2^256)` undershoots
/// `floor(k * b / r)` by at most one, because the two quotients differ
/// by `k * frac(b * 2^256 / r) / 2^256 < 1`. The exact remainder
/// `k * b - q * r` then says which — it is below `2r < 2^255`, so
/// wrapping 256-bit arithmetic computes it exactly — and drives the
/// rounding, so quotient and rounding equal the long division's.
fn round_div(k: &Limbs, b: u128, recip: &Limbs) -> Option<u128> {
    let r = FrParams::MODULUS;
    let estimate = bigint::mul_wide(k, recip);
    if estimate[6] != 0 || estimate[7] != 0 {
        return None;
    }
    let mut q = (estimate[4] as u128) | ((estimate[5] as u128) << 64);
    let kb = bigint::mul_wide(k, &u128_limbs(b));
    let qr = bigint::mul_wide(&u128_limbs(q), &r);
    let (mut rem, _) =
        bigint::sub_wide(&[kb[0], kb[1], kb[2], kb[3]], &[qr[0], qr[1], qr[2], qr[3]]);
    if bigint::geq(&rem, &r) {
        rem = bigint::sub(&rem, &r);
        q = q.checked_add(1)?;
    }
    // round half up: q += (2*rem >= r); rem < r < 2^254, so no carry
    let (twice, _) = bigint::add_wide(&rem, &rem);
    if bigint::geq(&twice, &r) {
        q = q.checked_add(1)?;
    }
    Some(q)
}

/// The derived endomorphism data: `beta`, `lambda`, a short lattice
/// basis `v1 = (a1, b1)`, `v2 = (a2, b2)` with `a_i + b_i * lambda == 0
/// (mod r)`, and the [`reciprocal`] of each `|b_i|` the decomposition
/// divides by.
struct G1Endo {
    beta: Fq,
    lambda: Fr,
    a1: Signed128,
    b1: Signed128,
    a2: Signed128,
    b2: Signed128,
    b1_recip: Limbs,
    b2_recip: Limbs,
}

/// Finds a primitive cube root of unity in `Fp<P>` (requires
/// `p == 1 mod 3`), by raising small bases to `(p - 1) / 3`.
fn primitive_cube_root<P: FieldParams>() -> Option<Fp<P>> {
    let m1 = bigint::sub_small(&P::MODULUS, 1);
    let third = bigint::div_small(&m1, 3);
    let three_thirds = bigint::add_wide(&bigint::add_wide(&third, &third).0, &third).0;
    if three_thirds != m1 {
        return None; // p - 1 not divisible by 3
    }
    for g in 2u64..50 {
        let c = Fp::<P>::from_u64(g).pow(&third);
        if c != Fp::<P>::one() {
            return Some(c); // a cube root != 1 is primitive (order exactly 3)
        }
    }
    None
}

/// Partial extended Euclidean algorithm on `(r, lambda)` producing the
/// two shortest `(a, b)` lattice vectors with `a + b * lambda == 0 mod r`
/// (the GLV construction): remainders `r_i` pair with cofactors `t_i`
/// such that `r_i == t_i * lambda (mod r)`, i.e. `(r_i, -t_i)` is in the
/// lattice; stopping at the first remainder below `sqrt(r)` yields
/// vectors of norm `O(sqrt(r))`.
fn short_basis(lambda: &Limbs) -> Option<[(Signed128, Signed128); 2]> {
    let n = FrParams::MODULUS;
    let below_sqrt_n = |v: &Limbs| {
        let sq = bigint::mul_wide(v, v);
        sq[4..].iter().all(|&l| l == 0)
            && !bigint::geq(&[sq[0], sq[1], sq[2], sq[3]], &n)
    };
    // rows (r_i, |t_i|, sign(t_i)); t signs alternate, magnitudes add
    let mut r_prev = n;
    let mut r_cur = *lambda;
    let mut t_prev = ([0u64; 4], true); // t0 = 0 (sign chosen so alternation works)
    let mut t_cur = ([1u64, 0, 0, 0], false); // t1 = 1
    let mut steps = 0;
    while !below_sqrt_n(&r_cur) {
        steps += 1;
        if steps > 600 || bigint::is_zero(&r_cur) {
            return None;
        }
        let mut wide = [0u64; 8];
        wide[..4].copy_from_slice(&r_prev);
        let (q, rem) = bigint::div_rem_wide(&wide, &r_cur);
        if q[4..].iter().any(|&l| l != 0) {
            return None;
        }
        // |t_next| = |t_prev| + q * |t_cur| (signs alternate)
        let prod = bigint::mul_wide(&[q[0], q[1], q[2], q[3]], &t_cur.0);
        if prod[4..].iter().any(|&l| l != 0) {
            return None;
        }
        let (t_next_mag, carry) =
            bigint::add_wide(&t_prev.0, &[prod[0], prod[1], prod[2], prod[3]]);
        if carry != 0 {
            return None;
        }
        let t_next = (t_next_mag, !t_cur.1);
        r_prev = r_cur;
        r_cur = rem;
        t_prev = t_cur;
        t_cur = t_next;
    }
    // one more division for the row after the stopping point
    let mut wide = [0u64; 8];
    wide[..4].copy_from_slice(&r_prev);
    let (q, r_next) = bigint::div_rem_wide(&wide, &r_cur);
    let prod = bigint::mul_wide(&[q[0], q[1], q[2], q[3]], &t_cur.0);
    if prod[4..].iter().any(|&l| l != 0) {
        return None;
    }
    let (t_next_mag, carry) = bigint::add_wide(&t_prev.0, &[prod[0], prod[1], prod[2], prod[3]]);
    if carry != 0 {
        return None;
    }
    let t_next = (t_next_mag, !t_cur.1);

    // candidate vectors (a, b) = (r_i, -t_i): v1 from the stopping row,
    // v2 the shorter of its neighbours
    let to_vec = |r: &Limbs, t: &([u64; 4], bool)| -> Option<(Signed128, Signed128)> {
        let a = Signed256 { neg: false, mag: *r }.to_signed128()?;
        let b = Signed256 {
            neg: !t.1, // -t_i
            mag: t.0,
        }
        .to_signed128()?;
        Some((a, b))
    };
    let v1 = to_vec(&r_cur, &t_cur)?;
    let norm = |v: &(Signed128, Signed128)| -> (u64, [u64; 8]) {
        let aa = bigint::mul_wide(&u128_limbs(v.0.mag), &u128_limbs(v.0.mag));
        let bb = bigint::mul_wide(&u128_limbs(v.1.mag), &u128_limbs(v.1.mag));
        let mut sum = [0u64; 8];
        let mut carry = 0u64;
        for i in 0..8 {
            let (s, c) = bigint::adc(aa[i], bb[i], carry);
            sum[i] = s;
            carry = c;
        }
        (carry, sum)
    };
    // norms compare as (carry, top limb, ..., bottom limb)
    let norm_key = |v: &(Signed128, Signed128)| {
        let (carry, sum) = norm(v);
        let mut key = [carry; 9];
        for i in 0..8 {
            key[1 + i] = sum[7 - i];
        }
        key
    };
    let v2 = match (to_vec(&r_prev, &t_prev), to_vec(&r_next, &t_next)) {
        (Some(p), Some(nx)) => {
            if norm_key(&p) <= norm_key(&nx) {
                p
            } else {
                nx
            }
        }
        (Some(p), None) => p,
        (None, Some(nx)) => nx,
        (None, None) => return None,
    };
    Some([v1, v2])
}

impl G1Endo {
    /// Derives and verifies the endomorphism data; `None` disables GLV.
    fn derive() -> Option<Self> {
        let beta0: Fq = primitive_cube_root()?;
        let lambda0: Fr = primitive_cube_root()?;
        let g = G1Affine::generator();
        // match (beta, lambda) so that phi(G) == lambda * G
        let mut found = None;
        'outer: for beta in [beta0, beta0.square()] {
            let phi = Affine {
                x: g.x * beta,
                y: g.y,
                infinity: false,
            };
            for lambda in [lambda0, lambda0.square()] {
                if g.mul(lambda).to_affine() == phi {
                    found = Some((beta, lambda));
                    break 'outer;
                }
            }
        }
        let (beta, lambda) = found?;
        let [(a1, b1), (a2, b2)] = short_basis(&lambda.to_canonical())?;
        let endo = Self {
            beta,
            lambda,
            a1,
            b1,
            a2,
            b2,
            b1_recip: reciprocal(b1.mag)?,
            b2_recip: reciprocal(b2.mag)?,
        };
        // verify both basis vectors: a + b * lambda == 0 (mod r)
        for (a, b) in [(&endo.a1, &endo.b1), (&endo.a2, &endo.b2)] {
            if fr_from_signed128(a) + fr_from_signed128(b) * lambda != Fr::zero() {
                return None;
            }
        }
        Some(endo)
    }

    /// The process-wide endomorphism data (derived once).
    fn get() -> Option<&'static G1Endo> {
        static ENDO: OnceLock<Option<G1Endo>> = OnceLock::new();
        ENDO.get_or_init(G1Endo::derive).as_ref()
    }

    /// Splits `k` as `k1 + k2 * lambda (mod r)` with half-width parts via
    /// Babai rounding against the short basis. Verified exactly in `Fr`
    /// before use; `None` (never expected) falls back to the slow path.
    fn decompose(&self, k: Fr) -> Option<(Signed128, Signed128)> {
        let klimbs = k.to_canonical();
        // (c1, c2) = round( (k, 0) * B^{-1} ): c1 = round(k*b2/r) with
        // sign(b2), c2 = round(-k*b1/r) = round(k*b1/r) with sign flipped
        let c1 = Signed128 {
            neg: self.b2.neg,
            mag: round_div(&klimbs, self.b2.mag, &self.b2_recip)?,
        };
        let c2 = Signed128 {
            neg: !self.b1.neg,
            mag: round_div(&klimbs, self.b1.mag, &self.b1_recip)?,
        };
        let term = |c: &Signed128, v: &Signed128| -> Option<Signed256> {
            Some(Signed256 {
                neg: c.neg ^ v.neg,
                mag: mul_mags(c.mag, v.mag)?,
            })
        };
        // k1 = k - c1*a1 - c2*a2 ; k2 = -c1*b1 - c2*b2
        let k_pos = Signed256 {
            neg: false,
            mag: klimbs,
        };
        let k1 = k_pos
            .add(&term(&c1, &self.a1)?.negate())
            .add(&term(&c2, &self.a2)?.negate())
            .to_signed128()?;
        let k2 = term(&c1, &self.b1)?
            .negate()
            .add(&term(&c2, &self.b2)?.negate())
            .to_signed128()?;
        // exact check: any derivation bug shows up here, not in results
        if fr_from_signed128(&k1) + fr_from_signed128(&k2) * self.lambda != k {
            return None;
        }
        Some((k1, k2))
    }

    /// `phi(p) = (beta * x, y)`, which is `lambda * p` on the subgroup.
    fn phi(&self, p: &G1Affine) -> G1Affine {
        Affine {
            x: p.x * self.beta,
            y: p.y,
            infinity: p.infinity,
        }
    }

    /// `sum_i k1_i * P_i + k2_i * phi(P_i)` by one interleaved (Straus)
    /// double-and-add ladder over all `2n` half-scalars: ~128 doublings
    /// shared by every term, then per term one mixed addition per
    /// non-zero width-[`STRAUS_WIDTH`] signed digit (about one bit in
    /// six). Each base gets a table of its odd multiples `P, 3P, .., 15P`,
    /// all tables made affine by one shared inversion; `phi` of a table
    /// entry is one multiplication. Variable-time in the scalars, like
    /// the Pippenger path it stands in for.
    fn straus(&self, bases: &[G1Affine], halves: &[(Signed128, Signed128)]) -> G1Projective {
        let mut multiples: Vec<G1Projective> = Vec::with_capacity(bases.len() * STRAUS_TABLE);
        for p in bases {
            let mut m = p.to_projective();
            let twice = m.double();
            multiples.push(m);
            for _ in 1..STRAUS_TABLE {
                m = m.add(&twice);
                multiples.push(m);
            }
        }
        let tables = G1Projective::batch_to_affine(&multiples);
        let phi_tables: Vec<G1Affine> = tables.iter().map(|p| self.phi(p)).collect();
        let terms: Vec<(Vec<i8>, &[G1Affine])> = halves
            .iter()
            .zip(tables.chunks_exact(STRAUS_TABLE))
            .zip(phi_tables.chunks_exact(STRAUS_TABLE))
            .flat_map(|(((k1, k2), table), phi_table)| {
                [
                    (signed_wnaf(k1, STRAUS_WIDTH), table),
                    (signed_wnaf(k2, STRAUS_WIDTH), phi_table),
                ]
            })
            .collect();
        let len = terms
            .iter()
            .map(|(digits, _)| digits.len())
            .max()
            .unwrap_or(0);
        let mut acc = G1Projective::identity();
        for j in (0..len).rev() {
            acc = acc.double();
            for (digits, table) in &terms {
                let d = digits.get(j).copied().unwrap_or(0);
                if d != 0 {
                    let p = table[usize::from(d.unsigned_abs() >> 1)];
                    acc = acc.add_affine(&if d < 0 { p.neg() } else { p });
                }
            }
        }
        acc
    }
}

/// Below this many points [`msm_g1`] runs the Straus ladder of
/// [`G1Endo::straus`] rather than the GLV-split Pippenger, whose ~33
/// windows of 128 bits and per-call worker thread do not pay off on a
/// handful of points.
///
/// Swept with `msm_g1` over random bases and scalars on a 2-vCPU Xeon,
/// median µs of five alternating processes, Straus | Pippenger: one
/// pinned CPU n = 6: 144 | 217, 8: 185 | 220, 10: 234 | 266, 12: 264 |
/// 314, 14: 344 | 349, 16: 418 | 382; two CPUs n = 6: 129 | 167, 8: 162
/// | 193, 10: 198 | 195, 12: 240 | 215, 14: 284 | 209, 16: 337 | 236.
/// The ladder wins through n = 9 on both (by 16 % at n = 8), ties at
/// 10 on two CPUs and loses from 12 there, so the boundary is 10.
const STRAUS_BELOW: usize = 10;

/// Signed-digit width of the Straus ladder: digits are odd with
/// `|d| <= 2^w - 1` (see [`crate::msm::wnaf_digits`]).
const STRAUS_WIDTH: usize = 4;

/// Odd multiples per base in a Straus table, `2^(w-1)`.
const STRAUS_TABLE: usize = 1 << (STRAUS_WIDTH - 1);

/// Signed wNAF digits of a sign-magnitude 128-bit scalar.
fn signed_wnaf(v: &Signed128, w: usize) -> Vec<i8> {
    let mut digits = wnaf_digits(&u128_limbs(v.mag), w);
    if v.neg {
        for d in &mut digits {
            *d = -*d;
        }
    }
    digits
}

/// Multiplies every point by the same scalar, `out[i] = k * points[i]`,
/// using the GLV split plus batch-affine shared-wNAF accumulation; falls
/// back to the generic [`crate::msm::mul_each`] when the endomorphism is
/// unavailable. This is the hot kernel of authenticator generation
/// (`sigma_i = (g1^{M_i(alpha)} * t_i)^x` raises every chunk hash to the
/// same secret `x`).
pub fn mul_each_g1(points: &[G1Affine], k: Fr) -> Vec<G1Affine> {
    if let Some(endo) = G1Endo::get() {
        if let Some((k1, k2)) = endo.decompose(k) {
            let d1 = signed_wnaf(&k1, 4);
            let d2 = signed_wnaf(&k2, 4);
            let beta = endo.beta;
            return par_map_chunks(points.len(), 64, |r| {
                mul_each_batched(&points[r], &d1, &d2, 4, Some(beta))
            });
        }
    }
    crate::msm::mul_each(points, k)
}

/// GLV-split multi-scalar multiplication on G1: every term
/// `k_i * P_i` becomes `k1_i * P_i + k2_i * phi(P_i)` with half-width
/// scalars. This is the verifier's eps-side aggregation, the prover's
/// commitment kernel and every MSM of the batch verifier.
///
/// From ten points up the `2n` halves go through the Pippenger core
/// (signs folded into the points): ~128 scalar bits, so half the windows
/// and half the inter-window doubling chain of a full-width MSM. Below
/// ten they go through an interleaved (Straus) ladder over width-4
/// signed-digit tables, which records the same `algebra.msm` span,
/// `algebra.msm_calls` counter and `algebra.msm_points` histogram (`2n`
/// on both paths) but no window count. Every decomposition is
/// exact-checked; any failure (never expected) falls back to the generic
/// [`crate::msm::msm`].
pub fn msm_g1(bases: &[G1Affine], scalars: &[Fr]) -> G1Projective {
    assert_eq!(bases.len(), scalars.len(), "msm requires equal-length inputs");
    if bases.is_empty() {
        return G1Projective::identity();
    }
    let Some(endo) = G1Endo::get() else {
        return crate::msm::msm(bases, scalars);
    };
    let Some(halves) = scalars
        .iter()
        .map(|k| endo.decompose(*k))
        .collect::<Option<Vec<_>>>()
    else {
        return crate::msm::msm(bases, scalars);
    };
    if bases.len() < STRAUS_BELOW {
        let _span = dsaudit_obs::span("algebra.msm");
        dsaudit_obs::counter_inc("algebra.msm_calls");
        dsaudit_obs::observe("algebra.msm_points", 2 * bases.len() as u64);
        return endo.straus(bases, &halves);
    }
    let mut split_bases: Vec<G1Affine> = Vec::with_capacity(2 * bases.len());
    let mut split_scalars: Vec<Limbs> = Vec::with_capacity(2 * bases.len());
    for (p, (k1, k2)) in bases.iter().zip(&halves) {
        let phi = endo.phi(p);
        split_bases.push(if k1.neg { p.neg() } else { *p });
        split_scalars.push(u128_limbs(k1.mag));
        split_bases.push(if k2.neg { phi.neg() } else { phi });
        split_scalars.push(u128_limbs(k2.mag));
    }
    crate::msm::msm_limbs(&split_bases, &split_scalars, 128)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x91d0)
    }

    #[test]
    fn endo_derivation_succeeds_for_bn254() {
        let endo = G1Endo::get().expect("BN254 admits the GLV endomorphism");
        // lambda^2 + lambda + 1 == 0 (primitive cube root of unity)
        assert_eq!(
            endo.lambda.square() + endo.lambda + Fr::one(),
            Fr::zero()
        );
        assert_eq!(
            endo.beta.square() * endo.beta,
            crate::fields::Fq::one()
        );
        // basis magnitudes are genuinely short (~sqrt(r) ~ 2^127)
        for v in [&endo.a1, &endo.b1, &endo.a2, &endo.b2] {
            assert!(v.mag < 1u128 << 127, "basis entry too long: {v:?}");
        }
    }

    #[test]
    fn phi_acts_as_lambda_everywhere() {
        let endo = G1Endo::get().unwrap();
        let mut rng = rng();
        for _ in 0..5 {
            let p = G1Projective::random(&mut rng).to_affine();
            let phi = endo.phi(&p);
            assert!(phi.is_on_curve());
            assert_eq!(p.mul(endo.lambda).to_affine(), phi);
        }
    }

    #[test]
    fn decompose_verified_and_short() {
        let endo = G1Endo::get().unwrap();
        let mut rng = rng();
        let mut scalars: Vec<Fr> = (0..20).map(|_| Fr::random(&mut rng)).collect();
        scalars.push(Fr::zero());
        scalars.push(Fr::one());
        scalars.push(Fr::zero() - Fr::one());
        scalars.push(endo.lambda);
        for k in scalars {
            let (k1, k2) = endo.decompose(k).expect("decomposition never fails");
            assert_eq!(
                fr_from_signed128(&k1) + fr_from_signed128(&k2) * endo.lambda,
                k
            );
            assert!(k1.mag < 1u128 << 127, "k1 too long for {k:?}");
            assert!(k2.mag < 1u128 << 127, "k2 too long for {k:?}");
        }
    }

    #[test]
    fn mul_each_g1_matches_per_point_mul() {
        let mut rng = rng();
        let mut points: Vec<G1Affine> = (0..7)
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        points.push(G1Affine::identity());
        for k in [
            Fr::zero(),
            Fr::one(),
            Fr::zero() - Fr::one(),
            Fr::random(&mut rng),
        ] {
            let got = mul_each_g1(&points, k);
            for (p, g) in points.iter().zip(&got) {
                assert_eq!(g.to_projective(), p.mul(k), "k={k:?}");
            }
        }
    }

    /// The scalars every division test runs over: 10^4 seeded random
    /// ones, the MSM suite's adversarial list, and the values around
    /// which a quotient or its rounding could be off by one.
    fn division_test_scalars() -> Vec<Fr> {
        let endo = G1Endo::get().unwrap();
        let mut rng = rng();
        let mut scalars: Vec<Fr> = (0..10_000).map(|_| Fr::random(&mut rng)).collect();
        scalars.extend(crate::msm::adversarial_scalars());
        let half = Fr::from_limbs(bigint::shr(&FrParams::MODULUS, 1));
        scalars.extend([
            Fr::zero(),
            Fr::one(),
            -Fr::one(),
            endo.lambda,
            endo.lambda.square(),
            half - Fr::one(),
            half,
            half + Fr::one(),
        ]);
        scalars
    }

    /// The bit-serial long division [`round_div`] replaced, kept as its
    /// oracle: `round(num / d)`, half up.
    fn round_div_long(num: [u64; 8], d: &Limbs) -> Option<u128> {
        let (mut q, rem) = bigint::div_rem_wide(&num, d);
        let (twice, carry) = bigint::add_wide(&rem, &rem);
        if carry == 1 || bigint::geq(&twice, d) {
            let mut carry = 1u64;
            for limb in q.iter_mut() {
                (*limb, carry) = bigint::adc(*limb, 0, carry);
            }
        }
        if q[2..].iter().any(|&l| l != 0) {
            return None;
        }
        Some((q[0] as u128) | ((q[1] as u128) << 64))
    }

    #[test]
    fn reciprocal_division_equals_long_division() {
        let endo = G1Endo::get().unwrap();
        let r = FrParams::MODULUS;
        for k in division_test_scalars() {
            let klimbs = k.to_canonical();
            for (b, recip) in [(endo.b1.mag, &endo.b1_recip), (endo.b2.mag, &endo.b2_recip)] {
                let long = round_div_long(bigint::mul_wide(&klimbs, &u128_limbs(b)), &r);
                assert!(long.is_some());
                assert_eq!(round_div(&klimbs, b, recip), long, "k={k:?} b={b}");
            }
        }
    }

    /// Folds every `(k1, k2)` of the list above into one word, pinned at
    /// the bit-serial long-division implementation: a quotient that
    /// differs for any scalar, even to another *valid* split, moves it.
    #[test]
    fn decompose_known_answer() {
        let endo = G1Endo::get().unwrap();
        let mut acc = 0xcbf2_9ce4_8422_2325_u128;
        for k in division_test_scalars() {
            let (k1, k2) = endo.decompose(k).expect("decomposition never fails");
            for v in [k1, k2] {
                acc = (acc ^ v.mag ^ u128::from(v.neg)).wrapping_mul(0x0100_0000_01b3);
                acc = acc.rotate_left(29);
            }
        }
        assert_eq!(acc, 29_257_925_947_224_616_285_889_632_389_727_538_244);
    }
}
