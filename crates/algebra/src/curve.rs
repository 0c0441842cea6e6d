//! Generic short-Weierstrass curve arithmetic (`y^2 = x^3 + b`, `a = 0`)
//! in Jacobian coordinates, shared by G1 (over `Fq`) and G2 (over `Fq2`).

use core::fmt;
use core::ops::{Add, AddAssign, Neg, Sub, SubAssign};

use crate::bigint::{bit, highest_bit};
use crate::field::{batch_inverse, Field};
use crate::fields::Fr;

/// Static description of a curve group: its base field, the constant `b`,
/// and the subgroup generator.
pub trait CurveParams: 'static + Copy + Clone + Send + Sync + fmt::Debug {
    /// Field the coordinates live in.
    type Base: Field;
    /// The Weierstrass constant `b`.
    fn coeff_b() -> Self::Base;
    /// Affine coordinates of the canonical generator.
    fn generator_xy() -> (Self::Base, Self::Base);
    /// Short name for Debug output.
    const NAME: &'static str;
}

/// An affine point (or the point at infinity).
#[derive(Clone, Copy)]
pub struct Affine<C: CurveParams> {
    /// x-coordinate (meaningless when `infinity`).
    pub x: C::Base,
    /// y-coordinate (meaningless when `infinity`).
    pub y: C::Base,
    /// Marker for the identity element.
    pub infinity: bool,
}

/// A point in Jacobian projective coordinates `(X : Y : Z)`,
/// `x = X/Z^2`, `y = Y/Z^3`; the identity has `Z = 0`.
#[derive(Clone, Copy)]
pub struct Projective<C: CurveParams> {
    /// Jacobian X.
    pub x: C::Base,
    /// Jacobian Y.
    pub y: C::Base,
    /// Jacobian Z (zero encodes the identity).
    pub z: C::Base,
}

impl<C: CurveParams> fmt::Debug for Affine<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.infinity {
            write!(f, "{}(inf)", C::NAME)
        } else {
            write!(f, "{}({:?}, {:?})", C::NAME, self.x, self.y)
        }
    }
}

impl<C: CurveParams> fmt::Debug for Projective<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_affine().fmt(f)
    }
}

impl<C: CurveParams> Default for Affine<C> {
    fn default() -> Self {
        Self::identity()
    }
}

impl<C: CurveParams> Default for Projective<C> {
    fn default() -> Self {
        Self::identity()
    }
}

impl<C: CurveParams> Affine<C> {
    /// The identity (point at infinity).
    pub fn identity() -> Self {
        Self {
            x: C::Base::zero(),
            y: C::Base::zero(),
            infinity: true,
        }
    }

    /// The canonical subgroup generator.
    pub fn generator() -> Self {
        let (x, y) = C::generator_xy();
        Self {
            x,
            y,
            infinity: false,
        }
    }

    /// Constructs from coordinates, verifying the curve equation.
    pub fn from_xy(x: C::Base, y: C::Base) -> Option<Self> {
        let p = Self {
            x,
            y,
            infinity: false,
        };
        if p.is_on_curve() {
            Some(p)
        } else {
            None
        }
    }

    /// True when the point satisfies `y^2 = x^3 + b` (identity included).
    pub fn is_on_curve(&self) -> bool {
        if self.infinity {
            return true;
        }
        self.y.square() == self.x.square() * self.x + C::coeff_b()
    }

    /// Converts to Jacobian coordinates.
    pub fn to_projective(&self) -> Projective<C> {
        if self.infinity {
            Projective::identity()
        } else {
            Projective {
                x: self.x,
                y: self.y,
                z: C::Base::one(),
            }
        }
    }

    /// Double-and-add scalar multiplication by the canonical
    /// representative of `k`. The base stays affine, so every set bit is
    /// a mixed addition (~11 field multiplications) where
    /// [`Projective::mul`] pays a general one (~16).
    pub fn mul(&self, k: Fr) -> Projective<C> {
        let limbs = k.to_canonical();
        let top = match highest_bit(&limbs) {
            None => return Projective::identity(),
            Some(t) => t,
        };
        let mut acc = self.to_projective();
        for i in (0..top).rev() {
            acc = acc.double();
            if bit(&limbs, i) {
                acc = acc.add_affine(self);
            }
        }
        acc
    }

    /// Denominator of the slope of `self + other` in affine coordinates:
    /// `x2 - x1` for distinct `x`, `2 * y1` for a doubling, and 1 for the
    /// lanes that need no slope (either operand at infinity, or a
    /// cancellation) — never zero, so a whole batch of lanes can share
    /// one [`batch_inverse`].
    pub(crate) fn add_denominator(&self, other: &Self) -> C::Base {
        if self.infinity || other.infinity {
            C::Base::one()
        } else if self.x != other.x {
            other.x - self.x
        } else if self.y == other.y && !self.y.is_zero() {
            self.y.double()
        } else {
            C::Base::one()
        }
    }

    /// `self + other` given `inv`, the inverse of
    /// [`Affine::add_denominator`] for the same operands: an operand at
    /// infinity copies the other through, equal points take the tangent
    /// slope `3x^2 / 2y`, and opposite points (or a 2-torsion doubling)
    /// give infinity.
    pub(crate) fn add_with_inverse(&self, other: &Self, inv: C::Base) -> Self {
        if other.infinity {
            return *self;
        }
        if self.infinity {
            return *other;
        }
        let lambda = if self.x != other.x {
            (other.y - self.y) * inv
        } else if self.y == other.y && !self.y.is_zero() {
            let xx = self.x.square();
            (xx.double() + xx) * inv
        } else {
            return Self::identity();
        };
        let x3 = lambda.square() - self.x - other.x;
        Self {
            x: x3,
            y: lambda * (self.x - x3) - self.y,
            infinity: false,
        }
    }

    /// Negation (reflect over the x-axis).
    pub fn neg(&self) -> Self {
        Self {
            x: self.x,
            y: -self.y,
            infinity: self.infinity,
        }
    }
}

impl<C: CurveParams> PartialEq for Affine<C> {
    fn eq(&self, other: &Self) -> bool {
        if self.infinity || other.infinity {
            return self.infinity == other.infinity;
        }
        self.x == other.x && self.y == other.y
    }
}
impl<C: CurveParams> Eq for Affine<C> {}

impl<C: CurveParams> PartialEq for Projective<C> {
    fn eq(&self, other: &Self) -> bool {
        // (X1 : Y1 : Z1) == (X2 : Y2 : Z2)  iff  X1 Z2^2 == X2 Z1^2 and
        // Y1 Z2^3 == Y2 Z1^3 (or both are the identity).
        let z1_zero = self.z.is_zero();
        let z2_zero = other.z.is_zero();
        if z1_zero || z2_zero {
            return z1_zero == z2_zero;
        }
        let z1s = self.z.square();
        let z2s = other.z.square();
        self.x * z2s == other.x * z1s && self.y * z2s * other.z == other.y * z1s * self.z
    }
}
impl<C: CurveParams> Eq for Projective<C> {}

impl<C: CurveParams> Projective<C> {
    /// The identity element.
    pub fn identity() -> Self {
        Self {
            x: C::Base::one(),
            y: C::Base::one(),
            z: C::Base::zero(),
        }
    }

    /// The canonical generator.
    pub fn generator() -> Self {
        Affine::<C>::generator().to_projective()
    }

    /// True for the identity element.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Point doubling (`dbl-2009-l`, valid for `a = 0`).
    pub fn double(&self) -> Self {
        if self.is_identity() {
            return *self;
        }
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        let mut d = (self.x + b).square() - a - c;
        d = d.double();
        let e = a.double() + a;
        let f = e.square();
        let x3 = f - d.double();
        let y3 = e * (d - x3) - c.double().double().double();
        let z3 = (self.y * self.z).double();
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General addition (`add-2007-bl`).
    pub fn add(&self, other: &Self) -> Self {
        if self.is_identity() {
            return *other;
        }
        if other.is_identity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        let u1 = self.x * z2z2;
        let u2 = other.x * z1z1;
        let s1 = self.y * other.z * z2z2;
        let s2 = other.y * self.z * z1z1;
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Self::identity();
        }
        let h = u2 - u1;
        let i = h.double().square();
        let j = h * i;
        let r = (s2 - s1).double();
        let v = u1 * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (s1 * j).double();
        let z3 = ((self.z + other.z).square() - z1z1 - z2z2) * h;
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition with an affine point (`madd-2007-bl`).
    pub fn add_affine(&self, other: &Affine<C>) -> Self {
        if other.infinity {
            return *self;
        }
        if self.is_identity() {
            return other.to_projective();
        }
        let z1z1 = self.z.square();
        let u2 = other.x * z1z1;
        let s2 = other.y * self.z * z1z1;
        if self.x == u2 {
            if self.y == s2 {
                return self.double();
            }
            return Self::identity();
        }
        let h = u2 - self.x;
        let hh = h.square();
        let i = hh.double().double();
        let j = h * i;
        let r = (s2 - self.y).double();
        let v = self.x * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (self.y * j).double();
        let z3 = (self.z + h).square() - z1z1 - hh;
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        Self {
            x: self.x,
            y: -self.y,
            z: self.z,
        }
    }

    /// Double-and-add scalar multiplication by the canonical representative
    /// of `k`.
    pub fn mul(&self, k: Fr) -> Self {
        let limbs = k.to_canonical();
        let top = match highest_bit(&limbs) {
            None => return Self::identity(),
            Some(t) => t,
        };
        let mut acc = *self;
        for i in (0..top).rev() {
            acc = acc.double();
            if bit(&limbs, i) {
                acc = Projective::add(&acc, self);
            }
        }
        acc
    }

    /// Scalar multiplication by a small integer.
    pub fn mul_u64(&self, k: u64) -> Self {
        if k == 0 {
            return Self::identity();
        }
        let mut acc = *self;
        for i in (0..63 - k.leading_zeros()).rev() {
            acc = acc.double();
            if (k >> i) & 1 == 1 {
                acc = Projective::add(&acc, self);
            }
        }
        acc
    }

    /// Converts to affine coordinates (one field inversion).
    pub fn to_affine(&self) -> Affine<C> {
        if self.is_identity() {
            return Affine::identity();
        }
        let zinv = self.z.inverse().expect("non-identity has invertible z");
        let zinv2 = zinv.square();
        Affine {
            x: self.x * zinv2,
            y: self.y * zinv2 * zinv,
            infinity: false,
        }
    }

    /// Batch conversion to affine with a single inversion.
    pub fn batch_to_affine(points: &[Self]) -> Vec<Affine<C>> {
        let mut zs: Vec<C::Base> = points.iter().map(|p| p.z).collect();
        batch_inverse(&mut zs);
        points
            .iter()
            .zip(zs)
            .map(|(p, zinv)| {
                if p.is_identity() {
                    Affine::identity()
                } else {
                    let zinv2 = zinv.square();
                    Affine {
                        x: p.x * zinv2,
                        y: p.y * zinv2 * zinv,
                        infinity: false,
                    }
                }
            })
            .collect()
    }

    /// Batched affine addition with one shared field inversion:
    /// `acc[i] = acc[i] + rhs[i]` for every lane, all lanes sharing a
    /// single Montgomery-inversion pass (`batch_inverse`).
    ///
    /// This is the workhorse of the fixed-base and fixed-scalar
    /// multiplication kernels (the MSM bucket arena runs the same lanes
    /// in place): a full affine addition costs ~6 field multiplications
    /// per lane (3 of them amortized inversion) versus ~11 for a Jacobian
    /// mixed addition. The exceptional cases are lanes of the same pass
    /// rather than a slow path: an operand at infinity copies the other
    /// through, equal points take the tangent slope `3x^2 / 2y` over the
    /// denominator `2y`, opposite points yield infinity.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn batch_add_affine(acc: &mut [Affine<C>], rhs: &[Affine<C>]) {
        assert_eq!(acc.len(), rhs.len(), "batch_add_affine length mismatch");
        let mut denoms: Vec<C::Base> = acc
            .iter()
            .zip(rhs)
            .map(|(a, b)| a.add_denominator(b))
            .collect();
        batch_inverse(&mut denoms);
        for ((a, b), inv) in acc.iter_mut().zip(rhs).zip(denoms) {
            *a = a.add_with_inverse(b, inv);
        }
    }

    /// Batched affine doubling sharing one inversion: `pts[i] = 2*pts[i]`.
    /// Identity lanes pass through; doubling a point with `y = 0`
    /// (2-torsion, absent from prime-order groups) yields infinity.
    pub fn batch_double_affine(pts: &mut [Affine<C>]) {
        let mut denoms: Vec<C::Base> = pts
            .iter()
            .map(|p| {
                if p.infinity || p.y.is_zero() {
                    C::Base::one()
                } else {
                    p.y.double()
                }
            })
            .collect();
        batch_inverse(&mut denoms);
        for (p, inv) in pts.iter_mut().zip(denoms) {
            if p.infinity {
                continue;
            }
            if p.y.is_zero() {
                *p = Affine::identity();
                continue;
            }
            let xx = p.x.square();
            let lambda = (xx.double() + xx) * inv;
            let x3 = lambda.square() - p.x.double();
            let y3 = lambda * (p.x - x3) - p.y;
            p.x = x3;
            p.y = y3;
        }
    }

    /// Sums an iterator of points.
    pub fn sum<I: IntoIterator<Item = Self>>(iter: I) -> Self {
        iter.into_iter()
            .fold(Self::identity(), |acc, p| Projective::add(&acc, &p))
    }
}

impl<C: CurveParams> Add for Projective<C> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Projective::add(&self, &rhs)
    }
}
impl<C: CurveParams> AddAssign for Projective<C> {
    fn add_assign(&mut self, rhs: Self) {
        *self = Projective::add(self, &rhs);
    }
}
impl<C: CurveParams> Sub for Projective<C> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Projective::add(&self, &rhs.neg())
    }
}
impl<C: CurveParams> SubAssign for Projective<C> {
    fn sub_assign(&mut self, rhs: Self) {
        *self = Projective::add(self, &rhs.neg());
    }
}
impl<C: CurveParams> Neg for Projective<C> {
    type Output = Self;
    fn neg(self) -> Self {
        Projective::neg(&self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::g1::{G1Affine, G1Projective};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xbadd)
    }

    #[test]
    fn affine_mul_matches_projective_mul() {
        let mut rng = rng();
        let mut scalars = crate::msm::adversarial_scalars();
        scalars.extend((0..4).map(|_| Fr::random(&mut rng)));
        let g1 = G1Projective::random(&mut rng).to_affine();
        let g2 = crate::g2::G2Projective::random(&mut rng).to_affine();
        for k in scalars {
            assert_eq!(g1.mul(k), g1.to_projective().mul(k), "G1, k={k:?}");
            assert_eq!(g2.mul(k), g2.to_projective().mul(k), "G2, k={k:?}");
            assert!(G1Affine::identity().mul(k).is_identity());
        }
    }

    #[test]
    fn batch_add_affine_matches_projective() {
        let mut rng = rng();
        let a: Vec<G1Affine> = (0..33)
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        let b: Vec<G1Affine> = (0..33)
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        let mut acc = a.clone();
        Projective::batch_add_affine(&mut acc, &b);
        for i in 0..a.len() {
            assert_eq!(
                acc[i].to_projective(),
                a[i].to_projective().add_affine(&b[i]),
                "lane {i}"
            );
        }
    }

    #[test]
    fn batch_add_affine_exceptional_lanes() {
        let mut rng = rng();
        let p = G1Projective::random(&mut rng).to_affine();
        let q = G1Projective::random(&mut rng).to_affine();
        let id = G1Affine::identity();
        // lanes: id+q, p+id, id+id, p+(-p) (cancel), p+p (double), p+q
        let mut acc = vec![id, p, id, p, p, p];
        let rhs = vec![q, id, id, p.neg(), p, q];
        Projective::batch_add_affine(&mut acc, &rhs);
        assert_eq!(acc[0], q);
        assert_eq!(acc[1], p);
        assert_eq!(acc[2], id);
        assert_eq!(acc[3], id);
        assert_eq!(acc[4].to_projective(), p.to_projective().double());
        assert_eq!(acc[5].to_projective(), p.to_projective().add_affine(&q));
    }

    #[test]
    fn batch_double_affine_matches() {
        let mut rng = rng();
        let mut pts: Vec<G1Affine> = (0..17)
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        pts.push(G1Affine::identity());
        let expect: Vec<G1Projective> =
            pts.iter().map(|p| p.to_projective().double()).collect();
        Projective::batch_double_affine(&mut pts);
        for (got, want) in pts.iter().zip(&expect) {
            assert_eq!(got.to_projective(), *want);
        }
    }
}
