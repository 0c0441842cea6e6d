//! The [`Field`] abstraction shared by the base field, the scalar field and
//! the extension tower.

use core::fmt::Debug;
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A finite field element.
///
/// Implemented by `Fq`, `Fr` and the tower extensions `Fq2`, `Fq6`, `Fq12`.
/// All operations are by-value (elements are small `Copy` types).
pub trait Field:
    Copy
    + Clone
    + Debug
    + PartialEq
    + Eq
    + Send
    + Sync
    + Default
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
{
    /// Additive identity.
    fn zero() -> Self;

    /// Multiplicative identity.
    fn one() -> Self;

    /// True for the additive identity.
    fn is_zero(&self) -> bool;

    /// `self * self`.
    fn square(&self) -> Self;

    /// `self + self`.
    fn double(&self) -> Self {
        *self + *self
    }

    /// Multiplicative inverse; `None` for zero.
    fn inverse(&self) -> Option<Self>;

    /// Exponentiation by a little-endian limb slice, in fixed 4-bit
    /// windows: 15 table products, then four squarings and at most one
    /// product per exponent nibble, leading zero nibbles skipped.
    ///
    /// Variable-time in the exponent (which nibbles are zero). Every
    /// exponent in the workspace is a public constant: `(p + 1) / 4` for
    /// square roots, cube-root and root-of-unity cofactors, domain
    /// sizes, the BN parameter.
    fn pow(&self, exp: &[u64]) -> Self {
        let mut table = [Self::one(); 16];
        for d in 1..16 {
            table[d] = table[d - 1] * *self;
        }
        let mut res = Self::one();
        let mut started = false;
        for limb in exp.iter().rev() {
            for shift in (0..64).step_by(4).rev() {
                if started {
                    res = res.square().square().square().square();
                }
                let d = ((limb >> shift) & 0xf) as usize;
                if d != 0 {
                    res *= table[d];
                    started = true;
                }
            }
        }
        res
    }

    /// Uniformly random element.
    fn random<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self;

    /// Embeds a small integer.
    fn from_u64(v: u64) -> Self;
}

/// Inverts a batch of field elements with a single inversion
/// (Montgomery's trick). Zero entries are left untouched.
pub fn batch_inverse<F: Field>(elems: &mut [F]) {
    batch_inverse_with(elems, &mut Vec::with_capacity(elems.len()));
}

/// [`batch_inverse`] with the prefix-product scratch supplied by the
/// caller, so a loop of batches (the MSM bucket arena's halving rounds)
/// allocates it once. `prods` is overwritten.
pub(crate) fn batch_inverse_with<F: Field>(elems: &mut [F], prods: &mut Vec<F>) {
    // prods[i] = product of the non-zero entries among elems[0..i]
    prods.clear();
    let mut acc = F::one();
    for e in elems.iter() {
        prods.push(acc);
        if !e.is_zero() {
            acc *= *e;
        }
    }
    // `inv` walks backwards as the inverse of the product of the non-zero
    // entries among elems[0..=i].
    let mut inv = match acc.inverse() {
        Some(i) => i,
        None => return, // all entries zero
    };
    for (e, prod) in elems.iter_mut().zip(prods.iter()).rev() {
        if e.is_zero() {
            continue;
        }
        let next_inv = inv * *e;
        *e = inv * *prod;
        inv = next_inv;
    }
}

#[cfg(test)]
mod tests {
    // Exercised via concrete fields in `fields.rs` tests.
}
