//! Generic Montgomery-form prime field over four 64-bit limbs.
//!
//! A concrete field is obtained by supplying a [`FieldParams`] carrying the
//! modulus; every other constant (Montgomery `R`, `R^2`, `R^3`,
//! `-p^{-1} mod 2^64`, common exponents) is derived at compile time via
//! `const fn`, so the modulus is the single point of trust.
//!
//! # Timing
//!
//! `+`, `-`, `*`, `square` run a fixed instruction sequence up to the
//! final conditional subtraction. Three operations are **variable-time**
//! and must only see values an observer may learn:
//!
//! * [`Field::pow`] skips zero nibbles of the *exponent*. Every exponent
//!   in the workspace is a public constant (`(p + 1) / 4` under
//!   [`Fp::sqrt`], cube-root and root-of-unity cofactors, FFT domain
//!   sizes, the BN parameter).
//! * [`Field::inverse`] (binary extended Euclid) and [`Fp::legendre`]
//!   (binary Jacobi symbol) run a number of rounds that depends on the
//!   *value*. Their callers pass public data: `legendre` sees only
//!   hash-to-curve candidates and the Sloth VDF state, both derived from
//!   public inputs; `inverse` sees the shared denominators of
//!   batch-affine passes and `to_affine` normalisations over points
//!   that are published (tags, proofs, commitments, key powers) or
//!   recomputable from them, and FFT/Groth16 domain constants. The one
//!   secret-dependent caller is the owner's own tagging
//!   (`mul_each_g1(.., sk.x)`), whose wNAF schedule is already
//!   variable-time in `x` and which runs only on the owner's machine;
//!   no `lint:ct` kernel reaches any of the three (`ct-closure`).

use core::cmp::Ordering;
use core::fmt;
use core::hash::{Hash, Hasher};
use core::marker::PhantomData;
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::bigint::{
    self, adc, add_small, add_wide, geq, mac, mont_inv64, pow2k_mod, shr, sub, sub_wide, Limbs,
};
use crate::field::Field;

/// Static parameters of a 254-bit prime field.
pub trait FieldParams: 'static + Copy + Clone + Send + Sync + fmt::Debug + Default {
    /// The prime modulus, little-endian limbs. Must be odd, with bit 255
    /// clear (so doubling fits in 256 bits plus a carry).
    const MODULUS: Limbs;
    /// A short human-readable name used in `Debug` output.
    const NAME: &'static str;
}

/// An element of the prime field defined by `P`, stored in Montgomery form.
#[repr(transparent)]
pub struct Fp<P: FieldParams>(pub(crate) Limbs, PhantomData<P>);

impl<P: FieldParams> Fp<P> {
    /// Montgomery constant `R = 2^256 mod p`.
    pub const R: Limbs = pow2k_mod(256, &P::MODULUS);
    /// `R^2 mod p` — converts raw integers into Montgomery form.
    pub const R2: Limbs = pow2k_mod(512, &P::MODULUS);
    /// `R^3 mod p` — used for reducing 512-bit wide inputs.
    pub const R3: Limbs = pow2k_mod(768, &P::MODULUS);
    /// `-p^{-1} mod 2^64`.
    pub const INV: u64 = mont_inv64(P::MODULUS[0]);
    /// `(p + 1) / 4`, the Tonelli shortcut exponent (valid when p = 3 mod 4).
    pub const SQRT_EXP: Limbs = shr(&add_small(&P::MODULUS, 1), 2);

    /// The zero element.
    pub const ZERO: Self = Self([0; 4], PhantomData);

    /// The modulus of this field as raw limbs.
    pub const fn modulus() -> Limbs {
        P::MODULUS
    }

    /// Best-effort zeroization: overwrites the limbs with zeros, routed
    /// through [`core::hint::black_box`] so the dead-store elimination
    /// pass is unlikely to drop the write. Used by the `Drop` impls of
    /// secret-holding types (`SecretKey`); a guarantee-grade wipe would
    /// need `write_volatile`, which the workspace-wide
    /// `forbid(unsafe_code)` deliberately rules out.
    pub fn zeroize(&mut self) {
        self.0 = core::hint::black_box([0u64; 4]);
    }

    /// Montgomery multiplication (CIOS), returning `a * b * R^{-1} mod p`.
    #[inline]
    fn mont_mul(a: &Limbs, b: &Limbs) -> Limbs {
        let m = &P::MODULUS;
        let mut t = [0u64; 6]; // t[0..4], t[4] high word, t[5] overflow
        let mut i = 0;
        while i < 4 {
            // t += a[i] * b
            let mut carry = 0u64;
            let mut j = 0;
            while j < 4 {
                let (lo, hi) = mac(t[j], a[i], b[j], carry);
                t[j] = lo;
                carry = hi;
                j += 1;
            }
            let (s, c) = adc(t[4], carry, 0);
            t[4] = s;
            t[5] = c;
            // reduce one limb: t += k * p, then shift right one limb
            let k = t[0].wrapping_mul(Self::INV);
            let (_, mut carry) = mac(t[0], k, m[0], 0);
            let mut j = 1;
            while j < 4 {
                let (lo, hi) = mac(t[j], k, m[j], carry);
                t[j - 1] = lo;
                carry = hi;
                j += 1;
            }
            let (s, c) = adc(t[4], carry, 0);
            t[3] = s;
            t[4] = t[5] + c;
            t[5] = 0;
            i += 1;
        }
        let mut r = [t[0], t[1], t[2], t[3]];
        if t[4] != 0 || geq(&r, m) {
            r = sub(&r, m);
        }
        r
    }

    /// Montgomery squaring (SOS): computes the half of the partial
    /// products once and doubles, saving ~6 of the 16 limb
    /// multiplications of a full [`Self::mont_mul`]. Squarings are about
    /// a third of all field operations on the curve hot paths (point
    /// doubling, square-root candidates, `pow`), so the saving compounds.
    #[inline]
    fn mont_sqr(a: &Limbs) -> Limbs {
        let m = &P::MODULUS;
        // off-diagonal products a_i * a_j (i < j) at positions i + j
        let mut t = [0u64; 8];
        let mut i = 0;
        while i < 3 {
            let mut carry = 0u64;
            let mut j = i + 1;
            while j < 4 {
                let (lo, hi) = mac(t[i + j], a[i], a[j], carry);
                t[i + j] = lo;
                carry = hi;
                j += 1;
            }
            // the slot above the last written position is still fresh
            t[i + 4] = carry;
            i += 1;
        }
        // double the off-diagonal part (fits: the sum is < 2^507)
        let mut k = 7;
        while k > 0 {
            t[k] = (t[k] << 1) | (t[k - 1] >> 63);
            k -= 1;
        }
        t[0] <<= 1;
        // add the diagonal squares a_i^2 at positions 2i
        let mut carry = 0u64;
        let mut i = 0;
        while i < 4 {
            let (lo, hi) = mac(t[2 * i], a[i], a[i], carry);
            t[2 * i] = lo;
            let (s, c) = adc(t[2 * i + 1], hi, 0);
            t[2 * i + 1] = s;
            carry = c;
            i += 1;
        }
        debug_assert_eq!(carry, 0, "a^2 fits in 512 bits");
        // Montgomery reduction pass over the low four limbs
        let mut i = 0;
        while i < 4 {
            let k = t[i].wrapping_mul(Self::INV);
            let mut carry = 0u64;
            let mut j = 0;
            while j < 4 {
                let (lo, hi) = mac(t[i + j], k, m[j], carry);
                t[i + j] = lo;
                carry = hi;
                j += 1;
            }
            let mut idx = i + 4;
            while carry != 0 && idx < 8 {
                let (s, c) = adc(t[idx], carry, 0);
                t[idx] = s;
                carry = c;
                idx += 1;
            }
            // the reduced value is < 2m < 2^255, so no carry escapes t[7]
            debug_assert_eq!(carry, 0, "reduction cannot overflow 512 bits");
            i += 1;
        }
        let mut r = [t[4], t[5], t[6], t[7]];
        if geq(&r, m) {
            r = sub(&r, m);
        }
        r
    }

    /// `x / 2^k mod p` for a plain integer `x < p`: up to 63 bits at a
    /// time, add the multiple `m * p` that clears the low bits
    /// (`m = x * (-p^{-1}) mod 2^s`, the Montgomery-reduction step at
    /// sub-limb width) and shift. `x + m * p < 2^s * p`, so the result
    /// stays below `p`.
    #[inline]
    fn div_pow2(x: &Limbs, k: u32) -> Limbs {
        let m = &P::MODULUS;
        let mut x = *x;
        let mut k = k;
        while k > 0 {
            let s = if k < 63 { k } else { 63 };
            let q = x[0].wrapping_mul(Self::INV) & ((1u64 << s) - 1);
            let (t0, c) = mac(x[0], q, m[0], 0);
            let (t1, c) = mac(x[1], q, m[1], c);
            let (t2, c) = mac(x[2], q, m[2], c);
            let (t3, t4) = mac(x[3], q, m[3], c);
            x = [
                (t0 >> s) | (t1 << (64 - s)),
                (t1 >> s) | (t2 << (64 - s)),
                (t2 >> s) | (t3 << (64 - s)),
                (t3 >> s) | (t4 << (64 - s)),
            ];
            k -= s;
        }
        x
    }

    /// Converts a canonical (non-Montgomery) integer `< p` into the field.
    pub const fn from_raw_limbs_unreduced(v: Limbs) -> RawFp<P> {
        RawFp(v, PhantomData)
    }

    /// Canonical little-endian limbs of the represented integer.
    pub fn to_canonical(&self) -> Limbs {
        Self::mont_mul(&self.0, &[1, 0, 0, 0])
    }

    /// True when the canonical representative is odd.
    pub fn is_odd(&self) -> bool {
        self.to_canonical()[0] & 1 == 1
    }

    /// Big-endian canonical byte serialization (32 bytes).
    pub fn to_bytes_be(&self) -> [u8; 32] {
        bigint::to_bytes_be(&self.to_canonical())
    }

    /// Parses canonical big-endian bytes; `None` when the value is `>= p`.
    pub fn from_bytes_be(bytes: &[u8; 32]) -> Option<Self> {
        let limbs = bigint::from_bytes_be(bytes);
        if geq(&limbs, &P::MODULUS) {
            return None;
        }
        Some(Self(Self::mont_mul(&limbs, &Self::R2), PhantomData))
    }

    /// Reduces 64 little-endian bytes (a 512-bit integer) into the field.
    /// The output is statistically close to uniform for uniform input.
    pub fn from_bytes_wide(bytes: &[u8; 64]) -> Self {
        let mut lo = [0u64; 4];
        let mut hi = [0u64; 4];
        for i in 0..4 {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
            lo[i] = u64::from_le_bytes(buf);
            buf.copy_from_slice(&bytes[32 + i * 8..32 + (i + 1) * 8]);
            hi[i] = u64::from_le_bytes(buf);
        }
        // value = lo + hi * 2^256
        // mont(lo) = lo * R = mont_mul(lo, R^2)
        // mont(hi * 2^256) = hi * R * R = mont_mul(hi, R^3)
        let lo_m = Self::mont_mul(&lo, &Self::R2);
        let hi_m = Self::mont_mul(&hi, &Self::R3);
        Self(lo_m, PhantomData) + Self(hi_m, PhantomData)
    }

    /// Constructs from a canonical integer given as limbs; reduces mod p.
    pub fn from_limbs(v: Limbs) -> Self {
        let mut v = v;
        while geq(&v, &P::MODULUS) {
            v = sub(&v, &P::MODULUS);
        }
        Self(Self::mont_mul(&v, &Self::R2), PhantomData)
    }

    /// Parses a decimal string. `None` on bad characters or overflow.
    pub fn from_decimal(s: &str) -> Option<Self> {
        bigint::from_decimal(s).map(Self::from_limbs)
    }

    /// Square root via the `p = 3 mod 4` shortcut. `None` for non-residues.
    ///
    /// # Panics
    /// Debug-asserts that the modulus is `3 mod 4`.
    pub fn sqrt(&self) -> Option<Self> {
        debug_assert_eq!(P::MODULUS[0] & 3, 3, "modulus must be 3 mod 4");
        let cand = self.pow(&Self::SQRT_EXP);
        if cand.square() == *self {
            Some(cand)
        } else {
            None
        }
    }

    /// Legendre symbol: 1 for residues, -1 for non-residues, 0 for zero.
    ///
    /// A binary Jacobi symbol run directly on the Montgomery limbs
    /// `aR`: `R = 2^256` is a square, so `(aR / p) = (a / p)` and no
    /// conversion is needed. Shifts, subtractions and quadratic
    /// reciprocity only — no field multiplication — and the
    /// compare-and-swap is a mask, not a branch (its outcome is a coin
    /// flip). Variable-time in `self` all the same: the round count
    /// depends on the value (see the module docs).
    pub fn legendre(&self) -> i8 {
        let mut a = self.0;
        let mut n = P::MODULUS;
        // bit 0 counts the sign flips; invariant: n odd, and the answer
        // is `(-1)^flips * (a / n)`
        let mut flips = 0u64;
        while !bigint::is_zero(&a) {
            if a[2] | a[3] | n[2] | n[3] == 0 {
                // the second half of the rounds fits native arithmetic
                let a = u128::from(a[0]) | u128::from(a[1]) << 64;
                let n_lo = u128::from(n[0]) | u128::from(n[1]) << 64;
                let (n_lo, tail_flips) = jacobi_u128(a, n_lo);
                n = [n_lo as u64, (n_lo >> 64) as u64, 0, 0];
                flips ^= tail_flips;
                break;
            }
            // (2 / n) = -1 iff n = 3, 5 mod 8, i.e. bits 1 and 2 differ
            let twos = bigint::trailing_zeros(&a);
            flips ^= u64::from(twos) & ((n[0] ^ (n[0] >> 1)) >> 1);
            a = shr_var(&a, twos);
            // both odd. a < n: swap, and reciprocity flips the sign iff
            // both are 3 mod 4. Then (a / n) = ((a - n) / n), a - n even.
            let (diff, borrow) = sub_wide(&a, &n);
            flips ^= borrow & ((a[0] & n[0]) >> 1);
            let swap = borrow.wrapping_neg();
            n = select(swap, &a, &n);
            a = negate_if(swap, &diff);
        }
        if n != [1, 0, 0, 0] {
            0 // gcd(self, p) = n > 1: only for self = 0
        } else if flips & 1 == 1 {
            -1
        } else {
            1
        }
    }

    /// Lexicographic comparison of canonical representatives.
    pub fn cmp_canonical(&self, other: &Self) -> Ordering {
        let a = self.to_canonical();
        let b = other.to_canonical();
        for i in (0..4).rev() {
            match a[i].cmp(&b[i]) {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        Ordering::Equal
    }
}

/// `a` where `mask` is all ones, `b` where it is zero.
#[inline]
fn select(mask: u64, a: &Limbs, b: &Limbs) -> Limbs {
    [
        (a[0] & mask) | (b[0] & !mask),
        (a[1] & mask) | (b[1] & !mask),
        (a[2] & mask) | (b[2] & !mask),
        (a[3] & mask) | (b[3] & !mask),
    ]
}

/// `-a mod 2^256` where `mask` is all ones, `a` where it is zero.
#[inline]
fn negate_if(mask: u64, a: &Limbs) -> Limbs {
    let (r0, c) = adc(a[0] ^ mask, mask & 1, 0);
    let (r1, c) = adc(a[1] ^ mask, 0, c);
    let (r2, c) = adc(a[2] ^ mask, 0, c);
    let (r3, _) = adc(a[3] ^ mask, 0, c);
    [r0, r1, r2, r3]
}

/// The rounds of [`Fp::legendre`] on operands below `2^128`: runs
/// `(a / n)` down to `a = 0` and returns the final `n` (the gcd) with
/// the sign flips in bit 0.
fn jacobi_u128(mut a: u128, mut n: u128) -> (u128, u64) {
    let mut flips = 0u64;
    while a != 0 {
        let twos = a.trailing_zeros();
        flips ^= u64::from(twos) & ((n as u64 ^ (n as u64 >> 1)) >> 1);
        a >>= twos;
        if a < n {
            flips ^= (a & n) as u64 >> 1;
            core::mem::swap(&mut a, &mut n);
        }
        a -= n;
    }
    (n, flips)
}

/// Logical right shift by any `k <= 256`.
#[inline]
fn shr_var(a: &Limbs, k: u32) -> Limbs {
    let mut r = *a;
    let mut k = k;
    while k >= 64 {
        r = [r[1], r[2], r[3], 0];
        k -= 64;
    }
    shr(&r, k)
}

/// A thin wrapper marking limbs as a *raw* (non-Montgomery) integer.
/// Exists only so `const` contexts can carry raw constants around.
#[derive(Clone, Copy)]
pub struct RawFp<P: FieldParams>(pub Limbs, PhantomData<P>);

impl<P: FieldParams> RawFp<P> {
    /// Converts into Montgomery form at runtime.
    pub fn into_fp(self) -> Fp<P> {
        Fp::from_limbs(self.0)
    }
}

// --- trait plumbing (manual impls to avoid `P: Trait` bounds) ---

impl<P: FieldParams> Copy for Fp<P> {}
impl<P: FieldParams> Clone for Fp<P> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<P: FieldParams> PartialEq for Fp<P> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl<P: FieldParams> Eq for Fp<P> {}
impl<P: FieldParams> Default for Fp<P> {
    fn default() -> Self {
        Self::ZERO
    }
}
impl<P: FieldParams> Hash for Fp<P> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Montgomery form is canonical (always fully reduced).
        self.0.hash(state);
    }
}

impl<P: FieldParams> fmt::Debug for Fp<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(0x{})", P::NAME, bigint::to_hex(&self.to_canonical()))
    }
}

impl<P: FieldParams> fmt::Display for Fp<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", bigint::to_hex(&self.to_canonical()))
    }
}

impl<P: FieldParams> Add for Fp<P> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        let (sum, carry) = add_wide(&self.0, &rhs.0);
        let mut r = sum;
        if carry != 0 || geq(&r, &P::MODULUS) {
            r = sub(&r, &P::MODULUS);
        }
        Self(r, PhantomData)
    }
}

impl<P: FieldParams> Sub for Fp<P> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        let (diff, borrow) = sub_wide(&self.0, &rhs.0);
        let r = if borrow != 0 {
            add_wide(&diff, &P::MODULUS).0
        } else {
            diff
        };
        Self(r, PhantomData)
    }
}

impl<P: FieldParams> Neg for Fp<P> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        if self.is_zero() {
            self
        } else {
            Self(sub(&P::MODULUS, &self.0), PhantomData)
        }
    }
}

impl<P: FieldParams> Mul for Fp<P> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self(Self::mont_mul(&self.0, &rhs.0), PhantomData)
    }
}

impl<P: FieldParams> AddAssign for Fp<P> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl<P: FieldParams> SubAssign for Fp<P> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl<P: FieldParams> MulAssign for Fp<P> {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<P: FieldParams> Field for Fp<P> {
    fn zero() -> Self {
        Self::ZERO
    }

    fn one() -> Self {
        Self(Self::R, PhantomData)
    }

    fn is_zero(&self) -> bool {
        bigint::is_zero(&self.0)
    }

    fn square(&self) -> Self {
        Self(Self::mont_sqr(&self.0), PhantomData)
    }

    /// Binary extended Euclid on the Montgomery limbs `A = aR`: the
    /// loop yields `A^{-1} mod p` as a plain integer, and one
    /// `mont_mul` by `R^3` turns it into `A^{-1} R^2 = a^{-1} R`, the
    /// Montgomery form of the inverse. A few hundred rounds of
    /// four-limb shifts and subtractions against the ~330
    /// multiplications of the Fermat power `a^(p-2)`; the
    /// compare-and-swap is a mask, not a branch. Variable-time in
    /// `self` all the same: the round count depends on the value (see
    /// the module docs).
    fn inverse(&self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        let p = &P::MODULUS;
        let (mut u, mut v) = (self.0, *p);
        let (mut xu, mut xv): (Limbs, Limbs) = ([1, 0, 0, 0], [0; 4]);
        // invariants: xu * A = u and xv * A = v (mod p), xu, xv < p,
        // v odd, u > 0; gcd(A, p) = 1, so one of u, v runs down to 1
        let x = loop {
            let twos = bigint::trailing_zeros(&u);
            u = shr_var(&u, twos);
            xu = Self::div_pow2(&xu, twos);
            if u == [1, 0, 0, 0] {
                break xu;
            }
            if v == [1, 0, 0, 0] {
                break xv;
            }
            // both odd, coprime and u > 1, so u != v: replace the larger
            // by the (even, nonzero) difference and keep it in u
            let (diff, borrow) = sub_wide(&u, &v);
            let swap = borrow.wrapping_neg();
            v = select(swap, &u, &v);
            u = negate_if(swap, &diff);
            // the cofactors follow: xu - xv mod p, operands swapped alike
            let minuend = select(swap, &xv, &xu);
            xv = select(swap, &xu, &xv);
            let (xdiff, xborrow) = sub_wide(&minuend, &xv);
            xu = add_wide(&xdiff, &select(xborrow.wrapping_neg(), p, &[0; 4])).0;
        };
        Some(Self(Self::mont_mul(&x, &Self::R3), PhantomData))
    }

    fn random<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        let mut bytes = [0u8; 64];
        rng.fill_bytes(&mut bytes);
        Self::from_bytes_wide(&bytes)
    }

    fn from_u64(v: u64) -> Self {
        Self(Self::mont_mul(&[v, 0, 0, 0], &Self::R2), PhantomData)
    }
}

impl<P: FieldParams> From<u64> for Fp<P> {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}
