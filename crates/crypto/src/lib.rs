//! # dsaudit-crypto
//!
//! Symmetric and hash-based primitives for the dsaudit project, all
//! implemented from scratch: SHA-256 (with NIST vectors), HMAC-SHA-256,
//! ChaCha20 (RFC 8439 vectors), the audit protocol's random oracles
//! (`H`, `H'`, PRF `f`, PRP `pi`), the circuit-friendly MiMC hash used by
//! the SNARK strawman, and a sloth-style VDF for beacon hardening.

#![forbid(unsafe_code)]

pub mod chacha20;
pub mod hmac;
pub mod mimc;
pub mod prf;
pub mod prp;
pub mod sha256;
pub mod vdf;

pub use chacha20::ChaCha20;
pub use hmac::hmac_sha256;
pub use mimc::{mimc_hash, mimc_hash2, mimc_permute};
pub use prf::{h_prime, hash_to_g1, index_oracle, prf_fr};
pub use prp::SmallDomainPrp;
pub use sha256::{sha256, sha256_wide, Sha256};

/// Fails the build if a type implements `Debug` or `Display`: secret
/// material must not be formattable, since one stray `{:?}` prints it.
/// It sees derives, manual impls and blanket impls alike.
///
/// ```
/// #[derive(Clone)]
/// struct Key([u8; 32]);
/// dsaudit_crypto::assert_not_formattable!(Key);
/// ```
///
/// ```compile_fail
/// #[derive(Clone, Debug)]
/// struct Key([u8; 32]);
/// dsaudit_crypto::assert_not_formattable!(Key);
/// ```
#[macro_export]
macro_rules! assert_not_formattable {
    ($ty:ty) => {
        // `UNIQUE` resolves only if exactly one impl below applies: the
        // first always does, the other two only to a formattable type,
        // whose `_` is then ambiguous.
        const _: () = {
            trait AmbiguousIfFormattable<A> {
                const UNIQUE: () = ();
            }
            impl<T: ?Sized> AmbiguousIfFormattable<()> for T {}
            #[allow(dead_code)]
            struct IsDebug;
            impl<T: ?Sized + ::core::fmt::Debug> AmbiguousIfFormattable<IsDebug> for T {}
            #[allow(dead_code)]
            struct IsDisplay;
            impl<T: ?Sized + ::core::fmt::Display> AmbiguousIfFormattable<IsDisplay> for T {}
            <$ty as AmbiguousIfFormattable<_>>::UNIQUE
        };
    };
}
