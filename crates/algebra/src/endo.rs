//! Endomorphism splits of scalars, one implementation for G1 and `GT`.
//!
//! An endomorphism that acts on an order-`r` group as the multiple (or
//! power) `lambda` turns one 254-bit scalar into `N` short parts,
//! `k == k_0 + k_1 lambda + .. + k_{N-1} lambda^{N-1} (mod r)`, that
//! share one run of doublings (or squarings). The parts come from the
//! lattice `{v in Z^N : sum_i v_i lambda^i == 0 (mod r)}`: Babai
//! rounding of `(k, 0, .., 0)` against a short basis leaves a
//! remainder of length about `r^(1/N)`. `Lattice` is that basis with
//! its rounding, for both groups:
//!
//! - G1, `N = 2` (GLV): `phi(x, y) = (beta x, y)` is the multiple
//!   `lambda = 36x^3 + 18x^2 + 6x + 1` on G1 for
//!   `beta = 18x^3 + 18x^2 + 9x + 1`, so `k P = k_0 P + k_1 phi(P)`
//!   with two ~127-bit parts ([`msm_g1`], [`mul_each_g1`]);
//! - `GT`, `N = 4` (GLS): Frobenius is the power `lambda = 6x^2 == q`,
//!   so `g^k` is a product of four ~66-bit powers
//!   ([`crate::pairing::Gt::multi_pow`]).
//!
//! Both bases are written in the BN parameter `x`, and nothing is
//! trusted: at first use every row is checked to lie in the lattice,
//! `|det|` to be the expected multiple of `r`, and for G1 `phi(G) ==
//! lambda G` on the generator; every split is checked in `Fr` before it
//! is used. A failed check falls back to the unsplit scalar, so a wrong
//! constant can cost speed but never correctness.

use std::sync::OnceLock;

use crate::bigint::{self, Limbs};
use crate::biguint::BigUint;
use crate::curve::Affine;
use crate::field::Field;
use crate::fields::{Fq, Fr, FrParams, BN_X};
use crate::fp::{FieldParams, Fp};
use crate::g1::{G1Affine, G1Projective};
use crate::msm::{mul_each_batched, u128_limbs, wnaf_digits};
use crate::par::par_map_chunks;

/// A sign-magnitude integer of any width, for the once-per-process
/// checks of [`Lattice::derive`] only.
#[derive(Clone, Debug)]
pub(crate) struct BigInt {
    neg: bool,
    pub(crate) mag: BigUint,
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
pub(crate) fn det(m: &[Vec<i128>]) -> BigInt {
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
pub(crate) fn fr_from_i128(v: i128) -> Fr {
    let f = Fr::from_limbs(u128_limbs(v.unsigned_abs()));
    if v < 0 {
        -f
    } else {
        f
    }
}

/// A basis `B` of the lattice `{v in Z^N : sum_i v_i lambda^i == 0
/// (mod r)}`, or of a sublattice of small index, together with the
/// first row of `B^{-1}` in fixed point, which Babai rounding
/// multiplies by.
pub(crate) struct Lattice<const N: usize> {
    pub(crate) lambda: Fr,
    pub(crate) rows: [[i128; N]; N],
    /// Per row `j`: the sign of `B^{-1}[0][j]` and
    /// `floor(|B^{-1}[0][j]| * 2^256)`.
    recips: [(bool, Limbs); N],
}

impl<const N: usize> Lattice<N> {
    /// Checks the basis and derives its reciprocals: every row in the
    /// lattice, and `|det| = index * r`, so the rows span a sublattice
    /// of that index. `None` (never expected) leaves every scalar
    /// unsplit.
    pub(crate) fn derive(lambda: Fr, rows: [[i128; N]; N], index: u64) -> Option<Self> {
        let mut lattice = Self {
            lambda,
            rows,
            recips: [(false, [0; 4]); N],
        };
        if rows.iter().any(|row| lattice.at_lambda(row) != Fr::zero()) {
            return None;
        }
        let m: Vec<Vec<i128>> = rows.iter().map(|row| row.to_vec()).collect();
        let d = det(&m);
        let r = BigUint::from_limbs(&FrParams::MODULUS);
        if d.mag != r.mul(&BigUint::from_limbs(&[index])) {
            return None;
        }
        // B^{-1}[0][j] = cofactor(j, 0) / det
        for (j, recip) in lattice.recips.iter_mut().enumerate() {
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
        Some(lattice)
    }

    /// `sum_i v_i lambda^i` in `Fr`.
    pub(crate) fn at_lambda(&self, v: &[i128; N]) -> Fr {
        v.iter()
            .rev()
            .fold(Fr::zero(), |acc, &vi| acc * self.lambda + fr_from_i128(vi))
    }

    /// Splits `k` as `sum_i k_i lambda^i (mod r)` by Babai rounding:
    /// `c_j = round(k B^{-1}[0][j])`, then `(k_0, .., k_{N-1}) = (k, 0,
    /// .., 0) - sum_j c_j row_j`. Each `c_j` is within 3/4 of the exact
    /// quotient (1/2 from rounding, under 1/4 from the truncated
    /// reciprocal since `k < 2^254`), so part `i` is at most 3/4 of the
    /// rows' column sum `sum_j |row_j[i]|`: below `2^65` for `GT`
    /// (column sums at most `8x + 3`) and below `2^126.4` for G1 (at
    /// most `6x^2 + 6x + 2`). The `c_j` run to ~192 bits for `GT`, but
    /// every part is below `2^127`, so the recombination runs modulo `2^128`
    /// in wrapping `i128` arithmetic and is exact. Checked in `Fr`
    /// before use; `None` is never expected.
    pub(crate) fn split(&self, k: Fr) -> Option<[i128; N]> {
        let limbs = k.to_canonical();
        let [k0, k1, _, _] = limbs;
        let low = (u128::from(k0) | u128::from(k1) << 64) as i128;
        let mut parts: [i128; N] = std::array::from_fn(|i| if i == 0 { low } else { 0 });
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

/// `c_3 x^3 + c_2 x^2 + c_1 x + c_0` at the BN parameter, in `Fp<P>`.
fn cubic_in_x<P: FieldParams>([c3, c2, c1, c0]: [u64; 4]) -> Fp<P> {
    let x = Fp::<P>::from_u64(BN_X);
    [c2, c1, c0]
        .into_iter()
        .fold(Fp::from_u64(c3), |acc, c| acc * x + Fp::from_u64(c))
}

/// The GLV data of G1: `beta` and the lattice of `lambda`.
pub(crate) struct G1Endo {
    beta: Fq,
    pub(crate) lattice: Lattice<2>,
}

impl G1Endo {
    /// `beta`, `lambda` and the basis, written in `x` and checked:
    /// `phi(G) == lambda G` on the generator, and the rows
    /// `(2x + 1, -(6x^2 + 2x))`, `(6x^2 + 4x + 1, 2x + 1)` span the
    /// lattice (`det = r`). `None` (never expected) disables GLV.
    fn derive() -> Option<Self> {
        let beta: Fq = cubic_in_x([18, 18, 9, 1]);
        let lambda: Fr = cubic_in_x([36, 18, 6, 1]);
        let g = G1Affine::generator();
        let phi = Affine {
            x: g.x * beta,
            y: g.y,
            infinity: false,
        };
        if g.mul(lambda).to_affine() != phi {
            return None;
        }
        let x = i128::from(BN_X);
        let rows = [
            [2 * x + 1, -(6 * x * x + 2 * x)],
            [6 * x * x + 4 * x + 1, 2 * x + 1],
        ];
        Some(Self {
            beta,
            lattice: Lattice::derive(lambda, rows, 1)?,
        })
    }

    /// The process-wide endomorphism data (derived once).
    pub(crate) fn get() -> Option<&'static G1Endo> {
        static ENDO: OnceLock<Option<G1Endo>> = OnceLock::new();
        ENDO.get_or_init(G1Endo::derive).as_ref()
    }

    /// `phi(p) = (beta * x, y)`, which is `lambda * p` on the subgroup.
    pub(crate) fn phi(&self, p: &G1Affine) -> G1Affine {
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
    fn straus(&self, bases: &[G1Affine], halves: &[[i128; 2]]) -> G1Projective {
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
            .flat_map(|((&[k1, k2], table), phi_table)| {
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

/// Signed wNAF digits of a split part.
fn signed_wnaf(v: i128, w: usize) -> Vec<i8> {
    let mut digits = wnaf_digits(&u128_limbs(v.unsigned_abs()), w);
    if v < 0 {
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
        if let Some([k1, k2]) = endo.lattice.split(k) {
            let d1 = signed_wnaf(k1, 4);
            let d2 = signed_wnaf(k2, 4);
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
/// on both paths) but no window count. Every split is exact-checked;
/// any failure (never expected) falls back to the generic
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
        .map(|k| endo.lattice.split(*k))
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
    for (p, &[k1, k2]) in bases.iter().zip(&halves) {
        for (q, k) in [(*p, k1), (endo.phi(p), k2)] {
            split_bases.push(if k < 0 { q.neg() } else { q });
            split_scalars.push(u128_limbs(k.unsigned_abs()));
        }
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
        let lambda = endo.lattice.lambda;
        // lambda^2 + lambda + 1 == 0 (primitive cube root of unity)
        assert_eq!(lambda.square() + lambda + Fr::one(), Fr::zero());
        assert_eq!(endo.beta.square() * endo.beta, Fq::one());
        // basis entries are genuinely short (~sqrt(r) ~ 2^127)
        for v in endo.lattice.rows.iter().flatten() {
            assert!(v.unsigned_abs() < 1u128 << 127, "basis entry too long: {v}");
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
            assert_eq!(p.mul(endo.lattice.lambda).to_affine(), phi);
        }
    }

    #[test]
    fn decompose_verified_and_short() {
        let lattice = &G1Endo::get().unwrap().lattice;
        let mut rng = rng();
        let mut scalars: Vec<Fr> = (0..20).map(|_| Fr::random(&mut rng)).collect();
        scalars.push(Fr::zero());
        scalars.push(Fr::one());
        scalars.push(Fr::zero() - Fr::one());
        scalars.push(lattice.lambda);
        for k in scalars {
            let parts = lattice.split(k).expect("decomposition never fails");
            assert_eq!(lattice.at_lambda(&parts), k);
            for part in parts {
                assert!(part.unsigned_abs() < 1u128 << 127, "part {part} of {k:?}");
            }
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

    /// Folds every `(k1, k2)` of 10^4 seeded random scalars, the MSM
    /// suite's adversarial list and the values around which a rounding
    /// could be off by one into one word: a split that differs for any
    /// scalar, even to another *valid* split, moves it.
    #[test]
    fn decompose_known_answer() {
        let lattice = &G1Endo::get().unwrap().lattice;
        let mut rng = rng();
        let mut scalars: Vec<Fr> = (0..10_000).map(|_| Fr::random(&mut rng)).collect();
        scalars.extend(crate::msm::adversarial_scalars());
        let half = Fr::from_limbs(bigint::shr(&FrParams::MODULUS, 1));
        scalars.extend([
            Fr::zero(),
            Fr::one(),
            -Fr::one(),
            lattice.lambda,
            lattice.lambda.square(),
            half - Fr::one(),
            half,
            half + Fr::one(),
        ]);
        let mut acc = 0xcbf2_9ce4_8422_2325_u128;
        for k in scalars {
            let parts = lattice.split(k).expect("decomposition never fails");
            for v in parts {
                acc = (acc ^ v.unsigned_abs() ^ u128::from(v < 0)).wrapping_mul(0x0100_0000_01b3);
                acc = acc.rotate_left(29);
            }
        }
        assert_eq!(acc, 219_261_822_974_519_048_021_654_786_222_554_289_098);
    }
}
