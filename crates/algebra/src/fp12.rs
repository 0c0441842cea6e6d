//! Quadratic extension `Fq12 = Fq6[w] / (w^2 - v)` — the pairing target
//! field. `w` is a sixth root of `xi`: `w^6 = xi`.

use core::fmt;
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::sync::OnceLock;

use crate::bigint::{div_small, sub_small};
use crate::field::Field;
use crate::fields::{FqParams, BN_X};
use crate::fp::FieldParams;
use crate::fp2::Fq2;
use crate::fp6::Fq6;

/// An element `c0 + c1*w` of `Fq12`.
#[derive(Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Fq12 {
    /// Constant coefficient.
    pub c0: Fq6,
    /// Coefficient of `w`.
    pub c1: Fq6,
}

/// Frobenius coefficients `xi^{(q^i - 1)/6}` for `i = 0..12`.
fn frob12_c1() -> &'static [Fq2; 12] {
    static CACHE: OnceLock<[Fq2; 12]> = OnceLock::new();
    CACHE.get_or_init(|| {
        let exp = div_small(&sub_small(&FqParams::MODULUS, 1), 6); // (q-1)/6
        let g1 = Fq2::xi().pow(&exp);
        let mut out = [Fq2::one(); 12];
        for i in 1..12 {
            out[i] = out[i - 1].conjugate() * g1;
        }
        out
    })
}

impl Fq12 {
    /// Zero.
    pub const ZERO: Self = Self {
        c0: Fq6::ZERO,
        c1: Fq6::ZERO,
    };

    /// Builds from coefficients.
    pub const fn new(c0: Fq6, c1: Fq6) -> Self {
        Self { c0, c1 }
    }

    /// Embeds a base-field element into the tower.
    pub fn from_fq(x: crate::fields::Fq) -> Self {
        Self {
            c0: Fq6::new(Fq2::from_base(x), Fq2::zero(), Fq2::zero()),
            c1: Fq6::zero(),
        }
    }

    /// Conjugation over `Fq6` (`c0 - c1 w`); equals the `q^6`-power
    /// Frobenius, and the inverse for unitary (cyclotomic) elements.
    pub fn conjugate(&self) -> Self {
        Self {
            c0: self.c0,
            c1: -self.c1,
        }
    }

    /// The `q^i`-power Frobenius endomorphism.
    pub fn frobenius(&self, power: usize) -> Self {
        let i = power % 12;
        Self {
            c0: self.c0.frobenius(i),
            c1: self.c1.frobenius(i).scale(frob12_c1()[i]),
        }
    }

    /// Exponentiation by the BN parameter `x = 4965661367192848881`.
    pub fn pow_x(&self) -> Self {
        self.pow(&[BN_X, 0, 0, 0])
    }

    /// True when `f * conj(f) = 1`, i.e. the element is unitary (holds
    /// for all Miller-loop outputs after the easy part of the final
    /// exponentiation, and for every `Gt` element).
    pub fn is_unitary(&self) -> bool {
        *self * self.conjugate() == Self::one()
    }

    /// True when the element lies in the cyclotomic subgroup
    /// `G_{Phi_12(q)} = { f : f^{q^4 - q^2 + 1} = 1 }` — the home of all
    /// final-exponentiation outputs, and the precondition for
    /// [`Self::cyclotomic_square`]. Checked via `f^{q^4} * f == f^{q^2}`
    /// (two Frobenius maps and one multiplication).
    pub fn is_cyclotomic(&self) -> bool {
        self.frobenius(4) * *self == self.frobenius(2)
    }

    /// Sparse multiplication by a pairing line `c0 + c3 w + c4 w^3`
    /// (nonzero coefficients at slots 0, 3, 4 of the `Fq2^6` layout) —
    /// 13 `Fq2` multiplications instead of the generic 18.
    pub fn mul_by_034(&self, c0: Fq2, c3: Fq2, c4: Fq2) -> Self {
        let a = self.c0.scale(c0);
        let b = self.c1.mul_by_01(c3, c4);
        let e = (self.c0 + self.c1).mul_by_01(c0 + c3, c4);
        Self {
            c0: a + b.mul_by_v(),
            c1: e - a - b,
        }
    }

    /// Product of two sparse line values `(a0 + a3 w + a4 w^3)` and
    /// `(b0 + b3 w + b4 w^3)` in 6 `Fq2` multiplications. The multi-Miller
    /// loop folds pairs of lines through this before touching the full
    /// accumulator.
    pub fn mul_034_by_034(a: (Fq2, Fq2, Fq2), b: (Fq2, Fq2, Fq2)) -> Self {
        let (a0, a3, a4) = a;
        let (b0, b3, b4) = b;
        let t00 = a0 * b0;
        let t33 = a3 * b3;
        let t44 = a4 * b4;
        let t34 = (a3 + a4) * (b3 + b4) - t33 - t44;
        let t03 = (a0 + a3) * (b0 + b3) - t00 - t33;
        let t04 = (a0 + a4) * (b0 + b4) - t00 - t44;
        Self {
            c0: Fq6::new(t00 + t44.mul_by_nonresidue(), t33, t34),
            c1: Fq6::new(t03, t04, Fq2::zero()),
        }
    }

    /// Granger–Scott squaring in the cyclotomic subgroup: 9 `Fq2`
    /// squarings instead of the 12 `Fq2` multiplications of the generic
    /// [`Field::square`]. **Requires** [`Self::is_cyclotomic`]; on other
    /// inputs the result is meaningless.
    ///
    /// Derivation: in the `Fq4 = Fq2[s]/(s^2 - xi)` sub-tower with
    /// `s = w^3`, a cyclotomic `f = a + b w + c w^2` squares to
    /// `(3a^2 - 2 conj(a)) + (3 s c^2 + 2 conj(b)) w + (3b^2 - 2 conj(c)) w^2`.
    pub fn cyclotomic_square(&self) -> Self {
        // w-power basis: f_i = coefficient of w^i.
        let f0 = self.c0.c0;
        let f1 = self.c1.c0;
        let f2 = self.c0.c1;
        let f3 = self.c1.c1;
        let f4 = self.c0.c2;
        let f5 = self.c1.c2;
        // a = f0 + f3 s, b = f1 + f4 s, c = f2 + f5 s
        let (a20, a21) = fp4_square(f0, f3);
        let (b20, b21) = fp4_square(f1, f4);
        let (c20, c21) = fp4_square(f2, f5);
        let xi_c21 = c21.mul_by_nonresidue();
        let r0 = (a20 - f0).double() + a20; // 3 a^2_0 - 2 f0
        let r3 = (a21 + f3).double() + a21; // 3 a^2_1 + 2 f3
        let r1 = (xi_c21 + f1).double() + xi_c21; // 3 xi c^2_1 + 2 f1
        let r4 = (c20 - f4).double() + c20; // 3 c^2_0 - 2 f4
        let r2 = (b20 - f2).double() + b20; // 3 b^2_0 - 2 f2
        let r5 = (b21 + f5).double() + b21; // 3 b^2_1 + 2 f5
        Self {
            c0: Fq6::new(r0, r2, r4),
            c1: Fq6::new(r1, r3, r5),
        }
    }

    /// Exponentiation of a **cyclotomic** element by a little-endian limb
    /// exponent, using signed NAF digits (the inverse is a free
    /// conjugation) over Granger–Scott squarings. Roughly 1.7x faster
    /// than the generic [`Field::pow`].
    ///
    /// Constant-time contract: the body branches on nothing but the NAF
    /// digits of `exp`, so it is constant-time in the *base* and
    /// variable-time in the *exponent*. Every exponent it sees is
    /// public: the BN parameter `x` of the final exponentiation's
    /// degenerate-input fallback, and the exponents of the tests that
    /// use it as the oracle of `Gt::pow`. The two digit-dependent
    /// branches below carry audited `ct-branch` allows saying so.
    // lint:ct
    pub fn cyclotomic_exp(&self, exp: &[u64]) -> Self {
        let digits = naf_digits(exp);
        let inv = self.conjugate();
        let mut acc = Self::one();
        let mut started = false;
        for &d in digits.iter().rev() {
            // lint:allow(ct-branch) — `started` tracks the scan position in the NAF digits of the exponent, which is public at every call
            if started {
                acc = acc.cyclotomic_square();
            }
            // lint:allow(ct-branch) — dispatch on a NAF digit of the public exponent, never on the base
            match d {
                1 => {
                    acc *= *self;
                    started = true;
                }
                -1 => {
                    acc *= inv;
                    started = true;
                }
                _ => {}
            }
        }
        acc
    }

    /// `f^x` for the BN parameter `x`, on cyclotomic `f`: a Karabina
    /// compressed-squaring chain (6 `Fq2` squarings each, no `a`-component
    /// carried) with one batched decompression at the set bits of `x`.
    /// Falls back to plain Granger–Scott square-and-multiply when a state
    /// is too degenerate to compress (e.g. the identity).
    pub fn cyclotomic_pow_x(&self) -> Self {
        let top = 63 - BN_X.leading_zeros(); // bit 62
        // Compressed chain: states[j] = compress(self^{2^i}) for the j-th
        // set bit i >= 1 of x (bit 0 of x is set and uses `self` itself).
        debug_assert_eq!(BN_X & 1, 1, "the chain below assumes x is odd");
        let mut c = CompressedFq12::compress(self);
        let mut states = Vec::with_capacity(BN_X.count_ones() as usize);
        for i in 1..=top {
            c = c.square();
            if (BN_X >> i) & 1 == 1 {
                states.push(c);
            }
        }
        match CompressedFq12::batch_decompress(&states) {
            Some(powers) => {
                let mut acc = *self;
                for p in &powers {
                    acc *= *p;
                }
                acc
            }
            // Degenerate input (identity-like): plain NAF chain.
            None => self.cyclotomic_exp(&[BN_X]),
        }
    }
}

/// Squaring in `Fq4 = Fq2[s]/(s^2 - xi)`: `(x0 + x1 s)^2 =
/// (x0^2 + xi x1^2) + (2 x0 x1) s`, in 3 `Fq2` squarings.
fn fp4_square(x0: Fq2, x1: Fq2) -> (Fq2, Fq2) {
    let t0 = x0.square();
    let t1 = x1.square();
    (t1.mul_by_nonresidue() + t0, (x0 + x1).square() - t0 - t1)
}

/// Karabina-style compressed representation of a cyclotomic element:
/// only the `b = f1 + f4 s` and `c = f2 + f5 s` components of
/// `f = a + b w + c w^2` are carried; squaring never needs `a`, which is
/// recovered once at the end from `a = (b^2 - conj(c)) / c`.
#[derive(Clone, Copy, Debug)]
struct CompressedFq12 {
    b0: Fq2,
    b1: Fq2,
    c0: Fq2,
    c1: Fq2,
}

impl CompressedFq12 {
    fn compress(f: &Fq12) -> Self {
        Self {
            b0: f.c1.c0,
            b1: f.c0.c2,
            c0: f.c0.c1,
            c1: f.c1.c2,
        }
    }

    /// Compressed cyclotomic squaring: the `b`/`c` components of the
    /// Granger–Scott square depend only on `b` and `c` — 6 `Fq2`
    /// squarings per step.
    fn square(&self) -> Self {
        let (b20, b21) = fp4_square(self.b0, self.b1);
        let (c20, c21) = fp4_square(self.c0, self.c1);
        let xi_c21 = c21.mul_by_nonresidue();
        Self {
            b0: (xi_c21 + self.b0).double() + xi_c21,
            b1: (c20 - self.b1).double() + c20,
            c0: (b20 - self.c0).double() + b20,
            c1: (b21 + self.c1).double() + b21,
        }
    }

    /// Decompresses a batch of states with **one** shared `Fq2` inversion
    /// (Montgomery's trick over the `Fq4` norms of the `c` components).
    /// Returns `None` when any state has `c = 0` — those are the handful
    /// of degenerate cyclotomic elements (identity among them) the
    /// compressed form cannot represent.
    fn batch_decompress(states: &[Self]) -> Option<Vec<Fq12>> {
        // a * c = b^2 - conj(c), so a = (b^2 - conj(c)) * conj4(c) / N(c)
        // with conj4(x0 + x1 s) = x0 - x1 s and N(c) = c0^2 - xi c1^2.
        let mut norms: Vec<Fq2> = Vec::with_capacity(states.len());
        for s in states {
            if s.c0.is_zero() && s.c1.is_zero() {
                return None;
            }
            norms.push(s.c0.square() - s.c1.square().mul_by_nonresidue());
        }
        crate::field::batch_inverse(&mut norms);
        let mut out = Vec::with_capacity(states.len());
        for (s, ninv) in states.iter().zip(&norms) {
            let (b20, b21) = fp4_square(s.b0, s.b1);
            // numerator n = b^2 - conj(c) in Fq4
            let n0 = b20 - s.c0;
            let n1 = b21 + s.c1;
            // n * conj4(c) = (n0 c0 - xi n1 c1) + (n1 c0 - n0 c1) s
            let a0 = (n0 * s.c0 - (n1 * s.c1).mul_by_nonresidue()) * *ninv;
            let a1 = (n1 * s.c0 - n0 * s.c1) * *ninv;
            out.push(Fq12 {
                c0: Fq6::new(a0, s.c0, s.b1),
                c1: Fq6::new(s.b0, a1, s.c1),
            });
        }
        Some(out)
    }
}

/// Signed NAF digits (`0, +1, -1`) of a little-endian limb integer,
/// least-significant first. Average non-zero density 1/3.
fn naf_digits(exp: &[u64]) -> Vec<i8> {
    let nbits = exp.len() * 64;
    let bit = |i: usize| -> u8 {
        if i >= nbits {
            0
        } else {
            ((exp[i / 64] >> (i % 64)) & 1) as u8
        }
    };
    let mut digits = Vec::with_capacity(nbits + 2);
    let mut carry = 0u8;
    let mut i = 0;
    while i < nbits || carry != 0 {
        let v = bit(i) + carry;
        let (d, c) = match v {
            0 => (0i8, 0),
            2 => (0, 1),
            _ if bit(i + 1) == 0 => (1, 0), // isolated 1-bit
            _ => (-1, 1),                   // run of 1s: -1 now, carry up
        };
        digits.push(d);
        carry = c;
        i += 1;
    }
    digits
}

impl fmt::Debug for Fq12 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fq12({:?} + {:?}*w)", self.c0, self.c1)
    }
}

impl Add for Fq12 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self {
            c0: self.c0 + rhs.c0,
            c1: self.c1 + rhs.c1,
        }
    }
}

impl Sub for Fq12 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self {
            c0: self.c0 - rhs.c0,
            c1: self.c1 - rhs.c1,
        }
    }
}

impl Neg for Fq12 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self {
            c0: -self.c0,
            c1: -self.c1,
        }
    }
}

impl Mul for Fq12 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        // Karatsuba over Fq6 with w^2 = v:
        let v0 = self.c0 * rhs.c0;
        let v1 = self.c1 * rhs.c1;
        let t = (self.c0 + self.c1) * (rhs.c0 + rhs.c1);
        Self {
            c0: v0 + v1.mul_by_v(),
            c1: t - v0 - v1,
        }
    }
}

impl AddAssign for Fq12 {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl SubAssign for Fq12 {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl MulAssign for Fq12 {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Field for Fq12 {
    fn zero() -> Self {
        Self::ZERO
    }

    fn one() -> Self {
        Self {
            c0: Fq6::one(),
            c1: Fq6::zero(),
        }
    }

    fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }

    fn square(&self) -> Self {
        // (c0 + c1 w)^2 = c0^2 + v c1^2 + 2 c0 c1 w
        let v0 = self.c0 * self.c1;
        let t = (self.c0 + self.c1) * (self.c0 + self.c1.mul_by_v());
        Self {
            c0: t - v0 - v0.mul_by_v(),
            c1: v0.double(),
        }
    }

    fn inverse(&self) -> Option<Self> {
        // (c0 - c1 w) / (c0^2 - v c1^2)
        let det = self.c0.square() - self.c1.square().mul_by_v();
        det.inverse().map(|dinv| Self {
            c0: self.c0 * dinv,
            c1: -(self.c1 * dinv),
        })
    }

    fn random<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        Self {
            c0: Fq6::random(rng),
            c1: Fq6::random(rng),
        }
    }

    fn from_u64(v: u64) -> Self {
        Self {
            c0: Fq6::from_u64(v),
            c1: Fq6::zero(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(12)
    }

    #[test]
    fn w_squared_is_v() {
        let w = Fq12::new(Fq6::zero(), Fq6::one());
        let v = Fq12::new(Fq6::new(Fq2::zero(), Fq2::one(), Fq2::zero()), Fq6::zero());
        assert_eq!(w.square(), v);
    }

    #[test]
    fn w_sixth_is_xi() {
        let w = Fq12::new(Fq6::zero(), Fq6::one());
        let xi = Fq12::new(
            Fq6::new(Fq2::xi(), Fq2::zero(), Fq2::zero()),
            Fq6::zero(),
        );
        assert_eq!(w.pow(&[6, 0, 0, 0]), xi);
    }

    #[test]
    fn square_matches_mul() {
        let mut rng = rng();
        for _ in 0..10 {
            let a = Fq12::random(&mut rng);
            assert_eq!(a.square(), a * a);
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let mut rng = rng();
        for _ in 0..5 {
            let a = Fq12::random(&mut rng);
            assert_eq!(a * a.inverse().unwrap(), Fq12::one());
        }
    }

    #[test]
    fn frobenius_matches_pow() {
        let mut rng = rng();
        let a = Fq12::random(&mut rng);
        assert_eq!(a.frobenius(1), a.pow(&FqParams::MODULUS));
    }

    #[test]
    fn frobenius_composes() {
        let mut rng = rng();
        let a = Fq12::random(&mut rng);
        assert_eq!(a.frobenius(1).frobenius(1), a.frobenius(2));
        assert_eq!(a.frobenius(2).frobenius(1), a.frobenius(3));
        assert_eq!(a.frobenius(6).frobenius(6), a);
    }

    #[test]
    fn conjugate_is_frobenius_six() {
        let mut rng = rng();
        let a = Fq12::random(&mut rng);
        assert_eq!(a.conjugate(), a.frobenius(6));
    }

    /// Projects a random element into the cyclotomic subgroup via the
    /// easy part of the final exponentiation: `f^{(q^6 - 1)(q^2 + 1)}`.
    fn random_cyclotomic(rng: &mut impl rand::RngCore) -> Fq12 {
        let f = Fq12::random(rng);
        let t = f.conjugate() * f.inverse().expect("random is nonzero");
        t.frobenius(2) * t
    }

    #[test]
    fn cyclotomic_projection_is_cyclotomic() {
        let mut rng = rng();
        let u = random_cyclotomic(&mut rng);
        assert!(u.is_unitary());
        assert!(u.is_cyclotomic());
        // a merely-unitary element is generally NOT cyclotomic
        let f = Fq12::random(&mut rng);
        let unitary = f.conjugate() * f.inverse().unwrap();
        assert!(unitary.is_unitary());
        assert!(!unitary.is_cyclotomic());
    }

    #[test]
    fn mul_by_034_matches_generic() {
        let mut rng = rng();
        for _ in 0..10 {
            let f = Fq12::random(&mut rng);
            let (c0, c3, c4) = (
                Fq2::random(&mut rng),
                Fq2::random(&mut rng),
                Fq2::random(&mut rng),
            );
            let sparse = Fq12::new(
                Fq6::new(c0, Fq2::zero(), Fq2::zero()),
                Fq6::new(c3, c4, Fq2::zero()),
            );
            assert_eq!(f.mul_by_034(c0, c3, c4), f * sparse);
        }
    }

    #[test]
    fn mul_034_by_034_matches_generic() {
        let mut rng = rng();
        for _ in 0..10 {
            let a = (
                Fq2::random(&mut rng),
                Fq2::random(&mut rng),
                Fq2::random(&mut rng),
            );
            let b = (
                Fq2::random(&mut rng),
                Fq2::random(&mut rng),
                Fq2::random(&mut rng),
            );
            let dense = |t: (Fq2, Fq2, Fq2)| {
                Fq12::new(
                    Fq6::new(t.0, Fq2::zero(), Fq2::zero()),
                    Fq6::new(t.1, t.2, Fq2::zero()),
                )
            };
            assert_eq!(Fq12::mul_034_by_034(a, b), dense(a) * dense(b));
        }
    }

    #[test]
    fn cyclotomic_square_matches_square() {
        let mut rng = rng();
        for _ in 0..10 {
            let u = random_cyclotomic(&mut rng);
            assert_eq!(u.cyclotomic_square(), u.square());
        }
        assert_eq!(Fq12::one().cyclotomic_square(), Fq12::one());
    }

    #[test]
    fn compressed_square_matches_cyclotomic_square() {
        let mut rng = rng();
        for _ in 0..5 {
            let u = random_cyclotomic(&mut rng);
            let sq = u.cyclotomic_square();
            let c = CompressedFq12::compress(&u).square();
            // compare the four carried components against the full square
            assert_eq!(c.b0, sq.c1.c0);
            assert_eq!(c.b1, sq.c0.c2);
            assert_eq!(c.c0, sq.c0.c1);
            assert_eq!(c.c1, sq.c1.c2);
            // and decompression recovers the dropped `a` component
            let back = CompressedFq12::batch_decompress(&[c]).expect("c != 0");
            assert_eq!(back[0], sq);
        }
    }

    #[test]
    fn cyclotomic_pow_x_matches_generic() {
        let mut rng = rng();
        for _ in 0..3 {
            let u = random_cyclotomic(&mut rng);
            assert_eq!(u.cyclotomic_pow_x(), u.pow_x());
        }
        // degenerate fallback path
        assert_eq!(Fq12::one().cyclotomic_pow_x(), Fq12::one());
    }

    #[test]
    fn cyclotomic_exp_matches_generic_pow() {
        let mut rng = rng();
        let u = random_cyclotomic(&mut rng);
        for exp in [
            [0u64, 0, 0, 0],
            [1, 0, 0, 0],
            [BN_X, 0, 0, 0],
            [u64::MAX, u64::MAX, 7, 0],
            FqParams::MODULUS,
        ] {
            assert_eq!(u.cyclotomic_exp(&exp), u.pow(&exp));
        }
        assert_eq!(Fq12::one().cyclotomic_exp(&[5, 0, 0, 0]), Fq12::one());
    }

    #[test]
    fn naf_digits_reconstruct() {
        for exp in [[0u64, 0], [1, 0], [BN_X, 0], [u64::MAX, u64::MAX]] {
            let digits = super::naf_digits(&exp);
            // no two adjacent non-zeros
            for w in digits.windows(2) {
                assert!(w[0] == 0 || w[1] == 0, "adjacent NAF digits in {exp:?}");
            }
            // digits re-sum to the value (checked in i128 chunks)
            let mut acc = 0i128;
            for (i, &d) in digits.iter().enumerate().take(120) {
                acc += (d as i128) << i;
            }
            if exp[1] == 0 && digits.len() <= 120 {
                assert_eq!(acc, exp[0] as i128);
            }
        }
    }
}
