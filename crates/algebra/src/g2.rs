//! The group `G2`, the order-`r` subgroup of the sextic D-twist
//! `E': y^2 = x^3 + 3/xi` over `Fq2`.

use std::sync::OnceLock;

use crate::bigint::{div_small, sub_small};
use crate::curve::{Affine, CurveParams, Projective};
use crate::field::Field;
use crate::fields::{Fq, FqParams, Fr, BN_X};
use crate::fp::FieldParams;
use crate::fp2::Fq2;
use crate::msm::u128_limbs;

/// The EIP-197 G2 generator coordinates (decimal, widely cross-checked).
const G2_X_C0: &str =
    "10857046999023057135944570762232829481370756359578518086990519993285655852781";
const G2_X_C1: &str =
    "11559732032986387107991004021392285783925812861821192530917403151452391805634";
const G2_Y_C0: &str =
    "8495653923123431417604973247489272438418190587263600148770280649306958101930";
const G2_Y_C1: &str =
    "4082367875863433681332203403145435568316851327593401208105741076214120093531";

fn g2_constants() -> &'static (Fq2, (Fq2, Fq2)) {
    static CACHE: OnceLock<(Fq2, (Fq2, Fq2))> = OnceLock::new();
    CACHE.get_or_init(|| {
        let b = Fq2::from_base(Fq::from_u64(3))
            * Fq2::xi().inverse().expect("xi is invertible");
        let gx = Fq2::new(
            Fq::from_decimal(G2_X_C0).expect("valid decimal"),
            Fq::from_decimal(G2_X_C1).expect("valid decimal"),
        );
        let gy = Fq2::new(
            Fq::from_decimal(G2_Y_C0).expect("valid decimal"),
            Fq::from_decimal(G2_Y_C1).expect("valid decimal"),
        );
        (b, (gx, gy))
    })
}

/// `(q - 1)/3` and `(q - 1)/2` powers of `xi`, plus their `q^2`
/// counterparts: the constants of the twisted Frobenius [`psi`] and of
/// its square, which the optimal ate pairing's two correction lines use.
pub(crate) fn frob_twist_consts() -> &'static (Fq2, Fq2, Fq2, Fq2) {
    static CACHE: OnceLock<(Fq2, Fq2, Fq2, Fq2)> = OnceLock::new();
    CACHE.get_or_init(|| {
        let q_minus_1 = sub_small(&FqParams::MODULUS, 1);
        let g2 = Fq2::xi().pow(&div_small(&q_minus_1, 3)); // xi^{(q-1)/3}
        let g3 = Fq2::xi().pow(&div_small(&q_minus_1, 2)); // xi^{(q-1)/2}
        // xi^{(q^2-1)/3} = g2^{q+1} = conj(g2) * g2, likewise for g3
        (g2, g3, g2.conjugate() * g2, g3.conjugate() * g3)
    })
}

/// `psi(x, y) = (conj(x) xi^((q-1)/3), conj(y) xi^((q-1)/2))`: the
/// `q`-power Frobenius of `E(Fq12)` carried onto the twist. It maps the
/// twist to itself and acts on `G2` as the multiple `6x^2` (`== q` mod
/// `r`), but not so on the rest of `E'(Fq2)`.
pub(crate) fn psi(p: &G2Affine) -> G2Affine {
    let (g2, g3, _, _) = *frob_twist_consts();
    G2Affine {
        x: p.x.conjugate() * g2,
        y: p.y.conjugate() * g3,
        infinity: p.infinity,
    }
}

/// `psi(p) == [6x^2] p`, compared in projective form.
fn psi_is_six_x_squared_on(p: &G2Affine) -> bool {
    let x = u128::from(BN_X);
    p.mul(Fr::from_limbs(u128_limbs(6 * x * x))) == psi(p).to_projective()
}

/// Whether `psi(G) == [6x^2] G` on the generator, checked once per
/// process. `false` (never expected) sends [`G2Affine::is_torsion_free`]
/// to the slower `[r] Q == O`.
fn psi_is_six_x_squared() -> bool {
    static CHECKED: OnceLock<bool> = OnceLock::new();
    *CHECKED.get_or_init(|| psi_is_six_x_squared_on(&G2Affine::generator()))
}

/// Curve parameters for G2.
#[derive(Clone, Copy, Debug)]
pub struct G2Params;

impl CurveParams for G2Params {
    type Base = Fq2;
    fn coeff_b() -> Fq2 {
        g2_constants().0
    }
    fn generator_xy() -> (Fq2, Fq2) {
        g2_constants().1
    }
    const NAME: &'static str = "G2";
}

/// Affine G2 point.
pub type G2Affine = Affine<G2Params>;
/// Jacobian G2 point.
pub type G2Projective = Projective<G2Params>;

impl G2Affine {
    /// Compressed serialization: 64 bytes (`x.c1 || x.c0` big-endian) with
    /// flag bits in the first byte (bit 7: infinity, bit 6: y.c0 odd,
    /// tie-broken by y.c1 odd in bit 5 when y.c0 is zero).
    pub fn to_compressed(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        if self.infinity {
            out[0] = 0x80;
            return out;
        }
        out[..32].copy_from_slice(&self.x.c1.to_bytes_be());
        out[32..].copy_from_slice(&self.x.c0.to_bytes_be());
        let sign = if self.y.c0.is_zero() {
            self.y.c1.is_odd()
        } else {
            self.y.c0.is_odd()
        };
        if sign {
            out[0] |= 0x40;
        }
        out
    }

    /// Whether the point lies in `G2`, the order-`r` subgroup of the
    /// twist. `E'(Fq2)` has order `r (2q - r)`, so a point off `G2` can
    /// satisfy the curve equation; it is caught by `psi(Q) == [6x^2] Q`,
    /// which holds on a twist point exactly when it is in `G2` (El
    /// Housni, Guillevic and Piellard, "Co-factor clearing and subgroup
    /// membership testing on pairing-friendly curves", 2022): one
    /// ~127-bit multiplication where `[r] Q == O` takes a 254-bit one.
    pub fn is_torsion_free(&self) -> bool {
        if psi_is_six_x_squared() {
            psi_is_six_x_squared_on(self)
        } else {
            // [r - 1] Q + Q, with r - 1 the canonical form of -1
            self.mul(-Fr::one()).add_affine(self).is_identity()
        }
    }

    /// Parses a compressed G2 point: on the twist and in `G2`
    /// ([`G2Affine::is_torsion_free`]), or `None`. Keys carry `eps` and
    /// `delta` from the owner, so a point off `G2` is refused here.
    pub fn from_compressed(bytes: &[u8; 64]) -> Option<Self> {
        if bytes[0] & 0x80 != 0 {
            let ok = bytes[0] == 0x80 && bytes[1..].iter().all(|&b| b == 0);
            return ok.then(Self::identity);
        }
        let sign = bytes[0] & 0x40 != 0;
        let mut c1b = [0u8; 32];
        c1b.copy_from_slice(&bytes[..32]);
        c1b[0] &= 0x3f;
        let mut c0b = [0u8; 32];
        c0b.copy_from_slice(&bytes[32..]);
        let x = Fq2::new(Fq::from_bytes_be(&c0b)?, Fq::from_bytes_be(&c1b)?);
        let y2 = x.square() * x + G2Params::coeff_b();
        let mut y = fq2_sqrt(&y2)?;
        let y_sign = if y.c0.is_zero() {
            y.c1.is_odd()
        } else {
            y.c0.is_odd()
        };
        if y_sign != sign {
            y = -y;
        }
        Self::from_xy(x, y).filter(Self::is_torsion_free)
    }
}

/// Square root in `Fq2` via the complex method (works since `q = 3 mod 4`):
/// for `a = a0 + a1 u`, with `n = a0^2 + a1^2` (the norm), a root exists iff
/// `n` is a square in `Fq`; then `x0 = sqrt((a0 + sqrt(n))/2)` (or the
/// variant with `-sqrt(n)`) and `x1 = a1 / (2 x0)`.
pub fn fq2_sqrt(a: &Fq2) -> Option<Fq2> {
    if a.is_zero() {
        return Some(Fq2::ZERO);
    }
    if a.c1.is_zero() {
        // sqrt of a base-field element: either sqrt(a0) or sqrt(-a0)*u
        if let Some(r) = a.c0.sqrt() {
            return Some(Fq2::new(r, Fq::zero()));
        }
        let r = (-a.c0).sqrt()?;
        return Some(Fq2::new(Fq::zero(), r));
    }
    let n = a.norm();
    let sqrt_n = n.sqrt()?;
    let two_inv = Fq::from_u64(2).inverse().expect("2 != 0");
    for cand in [(a.c0 + sqrt_n) * two_inv, (a.c0 - sqrt_n) * two_inv] {
        if let Some(x0) = cand.sqrt() {
            if x0.is_zero() {
                continue;
            }
            let x1 = a.c1 * (x0.double()).inverse().expect("x0 nonzero");
            let root = Fq2::new(x0, x1);
            if root.square() == *a {
                return Some(root);
            }
        }
    }
    None
}

impl G2Projective {
    /// A uniformly random point in the order-`r` subgroup.
    pub fn random<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        Self::generator().mul(Fr::random(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x62)
    }

    #[test]
    fn generator_on_curve() {
        assert!(G2Affine::generator().is_on_curve());
    }

    #[test]
    fn generator_killed_by_r() {
        use crate::fp::FieldParams;
        let g = G2Projective::generator();
        let r_minus_1 = crate::bigint::sub_small(&crate::fields::FrParams::MODULUS, 1);
        let mut acc = G2Projective::identity();
        let top = crate::bigint::highest_bit(&r_minus_1).unwrap();
        for i in (0..=top).rev() {
            acc = acc.double();
            if crate::bigint::bit(&r_minus_1, i) {
                acc = acc.add(&g);
            }
        }
        assert_eq!(acc.add(&g), G2Projective::identity());
    }

    #[test]
    fn group_laws() {
        let mut rng = rng();
        let a = G2Projective::random(&mut rng);
        let b = G2Projective::random(&mut rng);
        assert_eq!(a.add(&b), b.add(&a));
        assert_eq!(a.double(), a.add(&a));
        assert_eq!(a.add(&a.neg()), G2Projective::identity());
    }

    #[test]
    fn scalar_mul_homomorphic() {
        let mut rng = rng();
        let g = G2Projective::generator();
        let k1 = Fr::random(&mut rng);
        let k2 = Fr::random(&mut rng);
        assert_eq!(g.mul(k1).add(&g.mul(k2)), g.mul(k1 + k2));
        assert_eq!(g.mul(k1).mul(k2), g.mul(k1 * k2));
    }

    #[test]
    fn fq2_sqrt_roundtrip() {
        let mut rng = rng();
        for _ in 0..20 {
            let a = Fq2::random(&mut rng);
            let sq = a.square();
            let root = fq2_sqrt(&sq).expect("square must have root");
            assert!(root == a || root == -a, "bad root");
        }
    }

    /// A twist point with a random `x`: almost never in `G2`, whose
    /// index in `E'(Fq2)` is `2q - r`.
    fn random_twist_point(rng: &mut rand::rngs::StdRng) -> G2Affine {
        loop {
            let x = Fq2::random(rng);
            if let Some(y) = fq2_sqrt(&(x.square() * x + G2Params::coeff_b())) {
                return G2Affine::from_xy(x, y).expect("on the twist");
            }
        }
    }

    /// `[r] Q == O`, as `[r - 1] Q + Q` with `r - 1` the canonical `-1`.
    fn killed_by_r(p: &G2Affine) -> bool {
        p.mul(-Fr::one()).add_affine(p).is_identity()
    }

    #[test]
    fn off_subgroup_twist_points_are_refused() {
        assert!(psi_is_six_x_squared(), "psi(G) == [6x^2] G on the generator");
        let mut rng = rng();
        for _ in 0..4 {
            let p = random_twist_point(&mut rng);
            assert!(!killed_by_r(&p), "the point has the wrong order");
            assert!(!p.is_torsion_free());
            assert_eq!(G2Affine::from_compressed(&p.to_compressed()), None);
        }
    }

    #[test]
    fn psi_check_agrees_with_multiplication_by_r() {
        let mut rng = rng();
        for _ in 0..12 {
            let off = random_twist_point(&mut rng);
            let on = G2Projective::random(&mut rng).to_affine();
            let mixed = on.to_projective().add_affine(&off).to_affine();
            for p in [off, on, mixed, G2Affine::identity()] {
                assert_eq!(p.is_torsion_free(), killed_by_r(&p));
            }
            assert!(on.is_torsion_free());
        }
    }

    #[test]
    fn compressed_roundtrip() {
        let mut rng = rng();
        for _ in 0..10 {
            let p = G2Projective::random(&mut rng).to_affine();
            assert_eq!(G2Affine::from_compressed(&p.to_compressed()).unwrap(), p);
        }
        let id = G2Affine::identity();
        assert_eq!(G2Affine::from_compressed(&id.to_compressed()).unwrap(), id);
    }
}
