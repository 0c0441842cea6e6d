//! # dsaudit-algebra
//!
//! Self-contained pairing algebra for the dsaudit project: the BN254
//! (alt_bn128) curve with its full extension-field tower, the optimal ate
//! pairing, multi-scalar multiplication, radix-2 FFTs and dense polynomial
//! arithmetic over the scalar field.
//!
//! Nothing in this crate depends on external cryptography; the only
//! dependency is `rand` for sampling.

#![forbid(unsafe_code)]

pub mod bigint;
pub mod biguint;
pub mod cell;
pub mod endo;
pub mod field;
pub mod fields;
pub mod curve;
pub mod fp2;
pub mod g1;
pub mod g2;
pub mod fft;
pub mod msm;
pub mod pairing;
pub mod par;
pub mod poly;
pub mod fp6;
pub mod fp12;
pub mod fp;

pub use field::Field;
pub use fields::{Fq, Fr, ATE_LOOP_COUNT, BN_X, FR_TWO_ADICITY};
pub use fp2::Fq2;
pub use g1::{G1Affine, G1Projective};
pub use g2::{G2Affine, G2Projective};
pub use endo::{msm_g1, mul_each_g1};
pub use fft::Domain;
pub use msm::{msm, FixedBaseTable, G1SliceTable, LazyG1Table};
pub use pairing::{
    final_exponentiation, miller_loop, multi_miller_loop, multi_pairing, multi_pairing_prepared,
    pairing, FixedBaseGt, G2Prepared, Gt,
};
pub use poly::DensePoly;
pub use fp6::Fq6;
pub use fp12::Fq12;

/// The telemetry facade the kernels record into, re-exported so that a
/// crate built on this one can open spans of its own (the Groth16
/// prover's `snark.*`) without a dependency line of its own.
pub use dsaudit_obs as obs;
