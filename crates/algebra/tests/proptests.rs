//! Property-based tests for the algebra crate: field axioms, curve group
//! laws and serialization roundtrips under randomized inputs.

use dsaudit_algebra::bigint;
use dsaudit_algebra::curve::Projective;
use dsaudit_algebra::field::Field;
use dsaudit_algebra::fields::{FqParams, FrParams};
use dsaudit_algebra::fp::{FieldParams, Fp};
use dsaudit_algebra::fp12::Fq12;
use dsaudit_algebra::fp2::Fq2;
use dsaudit_algebra::fp6::Fq6;
use dsaudit_algebra::g1::{G1Affine, G1Projective};
use dsaudit_algebra::g2::{G2Affine, G2Projective};
use dsaudit_algebra::msm::{msm, msm_naive, msm_u128};
use dsaudit_algebra::pairing::{
    final_exponentiation, miller_loop_generic, multi_miller_loop, G2Prepared, Gt,
};
use dsaudit_algebra::poly::DensePoly;
use dsaudit_algebra::{Fq, Fr};
use proptest::prelude::*;

fn arb_fq() -> impl Strategy<Value = Fq> {
    any::<[u8; 64]>().prop_map(|b| Fq::from_bytes_wide(&b))
}

fn arb_fr() -> impl Strategy<Value = Fr> {
    any::<[u8; 64]>().prop_map(|b| Fr::from_bytes_wide(&b))
}

fn arb_fq2() -> impl Strategy<Value = Fq2> {
    (arb_fq(), arb_fq()).prop_map(|(c0, c1)| Fq2::new(c0, c1))
}

fn arb_g1() -> impl Strategy<Value = G1Projective> {
    arb_fr().prop_map(|k| G1Projective::generator().mul(k))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fq_field_axioms(a in arb_fq(), b in arb_fq(), c in arb_fq()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!((a * b) * c, a * (b * c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!(a + (-a), Fq::zero());
        if !a.is_zero() {
            prop_assert_eq!(a * a.inverse().unwrap(), Fq::one());
        }
    }

    #[test]
    fn fr_field_axioms(a in arb_fr(), b in arb_fr()) {
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!(a - a, Fr::zero());
        prop_assert_eq!(a.square(), a * a);
        prop_assert_eq!(a.double(), a + a);
    }

    #[test]
    fn fq_bytes_roundtrip(a in arb_fq()) {
        prop_assert_eq!(Fq::from_bytes_be(&a.to_bytes_be()).unwrap(), a);
    }

    #[test]
    fn fq2_axioms(a in arb_fq2(), b in arb_fq2()) {
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!(a.square(), a * a);
        if !a.is_zero() {
            prop_assert_eq!(a * a.inverse().unwrap(), Fq2::one());
        }
        // conjugation is multiplicative
        prop_assert_eq!((a * b).conjugate(), a.conjugate() * b.conjugate());
    }

    #[test]
    fn g1_group_laws(p in arb_g1(), q in arb_g1()) {
        prop_assert_eq!(p.add(&q), q.add(&p));
        prop_assert_eq!(p.add(&p), p.double());
        prop_assert!(p.add(&p.neg()).is_identity());
        prop_assert!(p.to_affine().is_on_curve());
    }

    #[test]
    fn g1_scalar_mul_linear(k1 in arb_fr(), k2 in arb_fr()) {
        let g = G1Projective::generator();
        prop_assert_eq!(g.mul(k1 + k2), g.mul(k1).add(&g.mul(k2)));
    }

    #[test]
    fn g1_compression_roundtrip(p in arb_g1()) {
        let aff = p.to_affine();
        prop_assert_eq!(G1Affine::from_compressed(&aff.to_compressed()).unwrap(), aff);
    }

    #[test]
    fn kzg_division_identity(coeffs in prop::collection::vec(arb_fr(), 1..24), r in arb_fr(), x in arb_fr()) {
        let p = DensePoly::from_coeffs(coeffs);
        let (q, rem) = p.divide_by_linear(r);
        prop_assert_eq!(rem, p.evaluate(r));
        prop_assert_eq!(p.evaluate(x), q.evaluate(x) * (x - r) + rem);
    }
}

/// Scalars that stress digit extraction: the shared adversarial fixture
/// from `dsaudit_algebra::msm` (canonical max `r - 1`, all-ones pattern,
/// top-bit-set, constants around zero) mixed with uniform ones.
fn arb_msm_scalar() -> impl Strategy<Value = Fr> {
    (any::<u8>(), any::<[u8; 64]>()).prop_map(|(sel, b)| {
        let fixed = dsaudit_algebra::msm::adversarial_scalars();
        let sel = sel as usize % (2 * fixed.len());
        if sel < fixed.len() {
            fixed[sel]
        } else {
            Fr::from_bytes_wide(&b)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Differential test of the three MSM entry points — `msm`,
    /// `msm_u128` and the GLV-split `endo::msm_g1` — against the naive
    /// oracle. Sizes 1 to 9 take `msm_g1` through its Straus ladder and
    /// 10 is the first through its Pippenger core; the others sit on the
    /// window-size breakpoints (0, 31->32, 255->256;
    /// the small ones never reach a batched halving round, so they drain
    /// through mixed additions) and at 600, where the windows no longer
    /// fit one 2^14-point arena block. Each size runs with every shape of
    /// bases the bucket arena and the ladder have an exceptional lane for.
    #[test]
    fn msm_differential_vs_naive(
        pool in prop::collection::vec(arb_msm_scalar(), 1..12),
        kbase in arb_fr(),
    ) {
        #[derive(Clone, Copy, Debug)]
        enum Shape {
            /// No two bases alike.
            Distinct,
            /// One point in every slot: buckets full of doublings.
            Repeated,
            /// `P, -P` side by side under one scalar: one bucket, cancels.
            Opposite,
            /// Every third base is the identity.
            Identities,
            /// Distinct bases, every scalar zero: nothing enters a bucket.
            ZeroScalars,
        }
        let g = G1Projective::generator();
        for n in [0usize, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 31, 32, 255, 256, 600] {
            let distinct: Vec<G1Affine> = Projective::batch_to_affine(
                &(0..n)
                    .map(|i| g.mul(kbase + Fr::from_u64(i as u64 + 1)))
                    .collect::<Vec<_>>(),
            );
            for shape in [
                Shape::Distinct,
                Shape::Repeated,
                Shape::Opposite,
                Shape::Identities,
                Shape::ZeroScalars,
            ] {
                let bases: Vec<G1Affine> = (0..n)
                    .map(|i| match shape {
                        Shape::Distinct | Shape::ZeroScalars => distinct[i],
                        Shape::Repeated => distinct[0],
                        Shape::Opposite if i % 2 == 1 => distinct[i - 1].neg(),
                        Shape::Opposite => distinct[i],
                        Shape::Identities if i % 3 == 0 => G1Affine::identity(),
                        Shape::Identities => distinct[i],
                    })
                    .collect();
                let scalars: Vec<Fr> = (0..n)
                    .map(|i| match shape {
                        Shape::ZeroScalars => Fr::zero(),
                        Shape::Opposite => pool[(i / 2) % pool.len()],
                        _ => pool[i % pool.len()],
                    })
                    .collect();
                let want = msm_naive(&bases, &scalars);
                prop_assert_eq!(msm(&bases, &scalars), want, "msm, n={} {:?}", n, shape);
                prop_assert_eq!(
                    dsaudit_algebra::endo::msm_g1(&bases, &scalars),
                    want,
                    "msm_g1, n={} {:?}", n, shape
                );
                let halves: Vec<u128> = scalars
                    .iter()
                    .map(|s| {
                        let l = s.to_canonical();
                        u128::from(l[0]) | (u128::from(l[1]) << 64)
                    })
                    .collect();
                let as_fr: Vec<Fr> = halves
                    .iter()
                    .map(|h| Fr::from_limbs([*h as u64, (*h >> 64) as u64, 0, 0]))
                    .collect();
                prop_assert_eq!(
                    msm_u128(&bases, &halves),
                    msm_naive(&bases, &as_fr),
                    "msm_u128, n={} {:?}", n, shape
                );
            }
        }
    }
}

fn arb_fq6() -> impl Strategy<Value = Fq6> {
    (arb_fq2(), arb_fq2(), arb_fq2()).prop_map(|(c0, c1, c2)| Fq6::new(c0, c1, c2))
}

fn arb_fq12() -> impl Strategy<Value = Fq12> {
    (arb_fq6(), arb_fq6()).prop_map(|(c0, c1)| Fq12::new(c0, c1))
}

/// A uniformly sampled element of the cyclotomic subgroup, via the easy
/// part of the final exponentiation (`f -> f^{(q^6-1)(q^2+1)}`).
fn arb_cyclotomic() -> impl Strategy<Value = Fq12> {
    arb_fq12().prop_map(|f| {
        let f = if f.is_zero() { Fq12::one() } else { f };
        let t = f.conjugate() * f.inverse().expect("nonzero");
        t.frobenius(2) * t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The sparse line kernel agrees with a generic 18-mul `Fq12`
    /// multiplication against the densely embedded line value.
    #[test]
    fn sparse_mul_034_matches_generic(f in arb_fq12(), c0 in arb_fq2(), c3 in arb_fq2(), c4 in arb_fq2()) {
        let dense = Fq12::new(
            Fq6::new(c0, Fq2::zero(), Fq2::zero()),
            Fq6::new(c3, c4, Fq2::zero()),
        );
        prop_assert_eq!(f.mul_by_034(c0, c3, c4), f * dense);
    }

    /// The sparse-by-sparse line product agrees with the generic product
    /// of the two densely embedded lines.
    #[test]
    fn sparse_mul_034_by_034_matches_generic(
        a in (arb_fq2(), arb_fq2(), arb_fq2()),
        b in (arb_fq2(), arb_fq2(), arb_fq2()),
    ) {
        let dense = |t: (Fq2, Fq2, Fq2)| Fq12::new(
            Fq6::new(t.0, Fq2::zero(), Fq2::zero()),
            Fq6::new(t.1, t.2, Fq2::zero()),
        );
        prop_assert_eq!(Fq12::mul_034_by_034(a, b), dense(a) * dense(b));
    }

    /// Granger–Scott squaring agrees with the generic square on the
    /// cyclotomic subgroup (where all final-exponentiation work lives).
    #[test]
    fn cyclotomic_square_matches_square(u in arb_cyclotomic()) {
        prop_assert!(u.is_cyclotomic());
        prop_assert_eq!(u.cyclotomic_square(), u.square());
    }

    /// The Karabina compressed chain and the NAF cyclotomic
    /// exponentiation agree with generic square-and-multiply.
    #[test]
    fn cyclotomic_exponentiation_matches_generic(u in arb_cyclotomic(), k in arb_fr()) {
        prop_assert_eq!(u.cyclotomic_pow_x(), u.pow_x());
        let exp = k.to_canonical();
        prop_assert_eq!(u.cyclotomic_exp(&exp), u.pow(&exp));
    }
}

/// Random elements of `GT`: the final exponentiation of a random
/// non-zero `Fq12` lands in the order-`r` subgroup, where the Frobenius
/// split of `Gt::pow` holds.
fn arb_gt() -> impl Strategy<Value = Gt> {
    arb_fq12().prop_map(|f| final_exponentiation(&if f.is_zero() { Fq12::one() } else { f }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The Frobenius-split `Gt::pow` agrees with the signed-NAF
    /// square-and-multiply oracle, on random elements and the identity.
    #[test]
    fn gt_pow_matches_cyclotomic_exp(g in arb_gt(), k in arb_fr()) {
        let exp = k.to_canonical();
        prop_assert_eq!(*g.pow(k).as_fq12(), g.as_fq12().cyclotomic_exp(&exp));
        prop_assert_eq!(Gt::identity().pow(k), Gt::identity());
    }
}

/// A G1/G2 input pair for the pairing engines: mostly random points, with
/// identity points mixed in as the adversarial edge case.
fn arb_pairing_input() -> impl Strategy<Value = (G1Affine, G2Affine)> {
    (arb_fr(), arb_fr(), any::<u8>()).prop_map(|(a, b, sel)| {
        let p = if sel % 5 == 3 {
            G1Affine::identity()
        } else {
            G1Projective::generator().mul(a).to_affine()
        };
        let q = if sel % 5 == 4 {
            G2Affine::identity()
        } else {
            G2Projective::generator().mul(b).to_affine()
        };
        (p, q)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The prepared projective multi-Miller loop agrees with the product
    /// of generic affine Miller loops, compared in GT (the projective
    /// lines carry extra subfield factors that the final exponentiation
    /// kills). Inputs include identity points on either side.
    #[test]
    fn prepared_multi_miller_matches_generic_product(
        inputs in prop::collection::vec(arb_pairing_input(), 1..4),
    ) {
        let prepared: Vec<G2Prepared> =
            inputs.iter().map(|(_, q)| G2Prepared::from_affine(q)).collect();
        let refs: Vec<(&G1Affine, &G2Prepared)> = inputs
            .iter()
            .zip(&prepared)
            .map(|((p, _), qp)| (p, qp))
            .collect();
        let mut generic = Fq12::one();
        for (p, q) in &inputs {
            generic *= miller_loop_generic(p, q);
        }
        prop_assert_eq!(
            final_exponentiation(&multi_miller_loop(&refs)),
            final_exponentiation(&generic)
        );
    }
}

// --- differential oracles for the write-path field kernels -----------------
//
// `Field::pow` walks fixed 4-bit windows, `Fp::inverse` is a binary
// extended Euclid and `Fp::legendre` a binary Jacobi symbol. The
// definitions they replaced stay here as the oracles: bit-by-bit
// square-and-multiply, Fermat's `a^(p-2)` and Euler's `a^((p-1)/2)`.

/// Bit-by-bit square-and-multiply over little-endian limbs.
fn pow_binary<F: Field>(base: F, exp: &[u64]) -> F {
    let mut res = F::one();
    for limb in exp.iter().rev() {
        for i in (0..64).rev() {
            res = res.square();
            if (limb >> i) & 1 == 1 {
                res *= base;
            }
        }
    }
    res
}

fn inverse_fermat<P: FieldParams>(a: Fp<P>) -> Option<Fp<P>> {
    (!a.is_zero()).then(|| pow_binary(a, &bigint::sub_small(&P::MODULUS, 2)))
}

fn legendre_euler<P: FieldParams>(a: Fp<P>) -> i8 {
    let e = pow_binary(a, &bigint::shr(&P::MODULUS, 1));
    if a.is_zero() {
        0
    } else if e == Fp::one() {
        1
    } else {
        -1
    }
}

/// A random exponent whose top `sel % 4` limbs are cleared, so the window
/// walk also starts below limb 3.
fn arb_exponent() -> impl Strategy<Value = [u64; 4]> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u8>()).prop_map(
        |(a, b, c, d, sel)| {
            let mut e = [a, b, c, d];
            for limb in e.iter_mut().rev().take(usize::from(sel % 4)) {
                *limb = 0;
            }
            e
        },
    )
}

/// Values the shift-and-subtract loops could trip on: the ends of the
/// range, powers of two on either side of the Montgomery map, and the
/// elements whose Montgomery limbs are a lone bit (`2^k / R`), which
/// drive the trailing-zero strips past a limb boundary.
fn edge_elements<P: FieldParams>() -> Vec<Fp<P>> {
    let r = Fp::<P>::from_u64(1 << 32).square().square().square();
    let r_inv = inverse_fermat(r).expect("R is nonzero");
    let mut out = vec![
        Fp::zero(),
        Fp::one(),
        -Fp::<P>::one(),
        Fp::from_u64(2),
        Fp::from_u64(u64::MAX),
        -Fp::<P>::from_u64(u64::MAX),
        r,
        r_inv,
    ];
    for k in [1u32, 63, 64, 65, 128, 200, 253] {
        let mut limbs = [0u64; 4];
        limbs[(k / 64) as usize] = 1 << (k % 64);
        let pow2 = Fp::<P>::from_limbs(limbs);
        out.extend([pow2, -pow2, pow2 * r_inv, -(pow2 * r_inv)]);
    }
    out
}

fn check_field_kernels<P: FieldParams>() {
    let p_minus_1 = bigint::sub_small(&P::MODULUS, 1);
    let exponents: [&[u64]; 9] = [
        &[],
        &[0],
        &[0, 0, 0, 0],
        &[1, 0, 0, 0],
        &[0, 0, 0, 1],
        &[0xf, 0, 0, 0],
        &[0x10, 0, 0],
        &[u64::MAX, u64::MAX, 0, 0],
        &p_minus_1,
    ];
    for a in edge_elements::<P>() {
        assert_eq!(a.inverse(), inverse_fermat(a), "inverse of {a:?}");
        assert_eq!(a.legendre(), legendre_euler(a), "legendre of {a:?}");
        for exp in exponents {
            assert_eq!(a.pow(exp), pow_binary(a, exp), "{a:?} ^ {exp:?}");
        }
    }
    assert_eq!(Fp::<P>::zero().inverse(), None);
    assert_eq!(Fp::<P>::zero().legendre(), 0);
    assert_eq!(Fp::<P>::zero().pow(&[0, 0, 0, 0]), Fp::one());
}

#[test]
fn field_kernels_match_their_definitions_on_edge_cases() {
    check_field_kernels::<FqParams>();
    check_field_kernels::<FrParams>();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn euclid_inverse_matches_fermat(a in arb_fq(), b in arb_fr()) {
        prop_assert_eq!(a.inverse(), inverse_fermat(a));
        prop_assert_eq!(b.inverse(), inverse_fermat(b));
    }

    #[test]
    fn jacobi_legendre_matches_euler(a in arb_fq(), b in arb_fr()) {
        prop_assert_eq!(a.legendre(), legendre_euler(a));
        prop_assert_eq!(b.legendre(), legendre_euler(b));
        prop_assert_eq!(a.square().legendre(), i8::from(!a.is_zero()));
    }

    #[test]
    fn windowed_pow_matches_binary(a in arb_fq(), b in arb_fr(), e in arb_exponent()) {
        prop_assert_eq!(a.pow(&e), pow_binary(a, &e));
        prop_assert_eq!(b.pow(&e), pow_binary(b, &e));
    }

    /// The tower fields take the same default `pow`.
    #[test]
    fn windowed_pow_matches_binary_in_fq2(a in arb_fq2(), e in arb_exponent()) {
        prop_assert_eq!(a.pow(&e), pow_binary(a, &e));
    }
}
