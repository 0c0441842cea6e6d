//! Concrete BN254 (alt_bn128) fields: the base field `Fq` and the scalar
//! field `Fr`.
//!
//! Parameters follow EIP-196/EIP-197, i.e. the exact curve the paper's
//! Go `bn256` implementation targets ("128-bit security level",
//! `|p| = |G1| = 256 bits`).

use std::sync::OnceLock;

use crate::bigint::Limbs;
use crate::field::Field;
use crate::fp::{FieldParams, Fp};

/// Parameters of the BN254 base field
/// `q = 36x^4 + 36x^3 + 24x^2 + 6x + 1`, `x = 4965661367192848881`.
#[derive(Clone, Copy, Debug, Default)]
pub struct FqParams;

impl FieldParams for FqParams {
    // 21888242871839275222246405745257275088696311157297823662689037894645226208583
    const MODULUS: Limbs = [
        0x3c208c16d87cfd47,
        0x97816a916871ca8d,
        0xb85045b68181585d,
        0x30644e72e131a029,
    ];
    const NAME: &'static str = "Fq";
}

/// Parameters of the BN254 scalar field
/// `r = 36x^4 + 36x^3 + 18x^2 + 6x + 1`.
#[derive(Clone, Copy, Debug, Default)]
pub struct FrParams;

impl FieldParams for FrParams {
    // 21888242871839275222246405745257275088548364400416034343698204186575808495617
    const MODULUS: Limbs = [
        0x43e1f593f0000001,
        0x2833e84879b97091,
        0xb85045b68181585d,
        0x30644e72e131a029,
    ];
    const NAME: &'static str = "Fr";
}

/// The BN254 base field.
pub type Fq = Fp<FqParams>;
/// The BN254 scalar field (group order of G1/G2/GT).
pub type Fr = Fp<FrParams>;

/// The BN curve parameter `x` with `q = 36x^4+36x^3+24x^2+6x+1`.
pub const BN_X: u64 = 4965661367192848881;

/// `6x + 2`, the optimal-ate Miller loop count (65 bits, hence `u128`).
pub const ATE_LOOP_COUNT: u128 = 6 * BN_X as u128 + 2;

/// 2-adicity of `r - 1` (there is a multiplicative subgroup of order
/// `2^28`, which is what makes radix-2 FFTs work).
pub const FR_TWO_ADICITY: u32 = 28;

/// Returns a fixed element of `Fr` of multiplicative order exactly
/// `2^FR_TWO_ADICITY`, for use as the base FFT root of unity.
pub fn fr_two_adic_root() -> Fr {
    static ROOT: OnceLock<Fr> = OnceLock::new();
    *ROOT.get_or_init(|| {
        // (r - 1) / 2^28
        let odd = crate::bigint::shr(&crate::bigint::sub_small(&FrParams::MODULUS, 1), 28);
        // Try small candidates until one has full 2-power order.
        for t in 3u64..1000 {
            let c = Fr::from_u64(t).pow(&odd);
            // c has order dividing 2^28; check the order is exactly 2^28
            let mut probe = c;
            for _ in 0..(FR_TWO_ADICITY - 1) {
                probe = probe.square();
            }
            if probe != Fr::one() && probe.square() == Fr::one() {
                return c;
            }
        }
        unreachable!("no 2-adic generator found below 1000")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{batch_inverse, Field};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xd5a)
    }

    #[test]
    fn fq_one_is_r() {
        assert_eq!(Fq::one().to_canonical(), [1, 0, 0, 0]);
        assert_eq!(Fq::from_u64(1), Fq::one());
    }

    #[test]
    fn fq_add_sub_mul_consistency() {
        let mut rng = rng();
        for _ in 0..50 {
            let a = Fq::random(&mut rng);
            let b = Fq::random(&mut rng);
            assert_eq!(a + b - b, a);
            assert_eq!(a * b, b * a);
            assert_eq!(a + b, b + a);
            assert_eq!(a - a, Fq::zero());
            assert_eq!(a * Fq::one(), a);
            assert_eq!(a * Fq::zero(), Fq::zero());
            assert_eq!((a + b).square(), a.square() + a * b + a * b + b.square());
        }
    }

    #[test]
    fn dedicated_squaring_edge_cases() {
        // the SOS squaring path must agree with mont_mul on the extremes
        for v in [
            Fq::zero(),
            Fq::one(),
            -Fq::one(), // p - 1, the canonical maximum
            Fq::from_u64(u64::MAX),
            -Fq::from_u64(u64::MAX),
        ] {
            assert_eq!(v.square(), v * v);
        }
        for v in [Fr::zero(), Fr::one(), -Fr::one()] {
            assert_eq!(v.square(), v * v);
        }
    }

    #[test]
    fn fq_inverse_roundtrip() {
        let mut rng = rng();
        for _ in 0..20 {
            let a = Fq::random(&mut rng);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a * a.inverse().unwrap(), Fq::one());
        }
        assert!(Fq::zero().inverse().is_none());
    }

    #[test]
    fn fr_inverse_roundtrip() {
        let mut rng = rng();
        for _ in 0..20 {
            let a = Fr::random(&mut rng);
            assert_eq!(a * a.inverse().unwrap(), Fr::one());
        }
    }

    #[test]
    fn fq_sqrt_works() {
        let mut rng = rng();
        let mut found = 0;
        for _ in 0..40 {
            let a = Fq::random(&mut rng);
            let sq = a.square();
            let root = sq.sqrt().expect("square must have a root");
            assert!(root == a || root == -a);
            found += 1;
        }
        assert!(found > 0);
    }

    #[test]
    fn fq_legendre_of_square_is_one() {
        let mut rng = rng();
        let a = Fq::random(&mut rng);
        assert_eq!(a.square().legendre(), 1);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut rng = rng();
        for _ in 0..10 {
            let a = Fq::random(&mut rng);
            assert_eq!(Fq::from_bytes_be(&a.to_bytes_be()).unwrap(), a);
        }
        // the boundary: p - 1 is the last canonical value; p, p + 1 and
        // the all-ones string are rejected
        use crate::bigint::{add_small, sub_small, to_bytes_be};
        let p = FqParams::MODULUS;
        assert_eq!(
            Fq::from_bytes_be(&to_bytes_be(&sub_small(&p, 1))),
            Some(-Fq::one())
        );
        assert!(Fq::from_bytes_be(&to_bytes_be(&p)).is_none());
        assert!(Fq::from_bytes_be(&to_bytes_be(&add_small(&p, 1))).is_none());
        assert!(Fq::from_bytes_be(&[0xff; 32]).is_none());
        let r = FrParams::MODULUS;
        assert_eq!(
            Fr::from_bytes_be(&to_bytes_be(&sub_small(&r, 1))),
            Some(-Fr::one())
        );
        assert!(Fr::from_bytes_be(&to_bytes_be(&r)).is_none());
    }

    #[test]
    fn decimal_parse() {
        let a = Fq::from_decimal("12345678901234567890").unwrap();
        assert_eq!(a, Fq::from_u64(12345678901234567890));
    }

    #[test]
    fn two_adic_root_has_exact_order() {
        let root = fr_two_adic_root();
        let mut acc = root;
        for _ in 0..FR_TWO_ADICITY {
            acc = acc.square();
        }
        assert_eq!(acc, Fr::one());
        let mut acc = root;
        for _ in 0..(FR_TWO_ADICITY - 1) {
            acc = acc.square();
        }
        assert_ne!(acc, Fr::one());
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let a = Fr::from_u64(7);
        assert_eq!(a.pow(&[5, 0, 0, 0]), a * a * a * a * a);
        assert_eq!(a.pow(&[0, 0, 0, 0]), Fr::one());
    }

    #[test]
    fn batch_inverse_matches_individual() {
        let mut rng = rng();
        let mut v: Vec<Fq> = (0..17).map(|_| Fq::random(&mut rng)).collect();
        v[3] = Fq::zero();
        v[9] = Fq::zero();
        let expected: Vec<Fq> = v
            .iter()
            .map(|e| e.inverse().unwrap_or(Fq::zero()))
            .collect();
        batch_inverse(&mut v);
        assert_eq!(v, expected);
    }

    #[test]
    fn fermat_little_theorem() {
        let mut rng = rng();
        let a = Fq::random(&mut rng);
        assert_eq!(a.pow(&FqParams::MODULUS), a);
    }

    #[test]
    fn from_bytes_wide_uniformish() {
        // 2^256 mod p equals R; check via wide reduction of 2^256.
        let mut bytes = [0u8; 64];
        bytes[32] = 1; // little-endian: value = 2^256
        let v = Fq::from_bytes_wide(&bytes);
        assert_eq!(v.to_canonical(), Fq::R);
    }
}
