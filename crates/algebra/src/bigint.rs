//! Fixed-width 256-bit integer helpers used by the Montgomery field
//! implementation.
//!
//! Values are little-endian arrays of four `u64` limbs. Everything here is
//! `const fn` where possible so that per-field constants (Montgomery `R`,
//! `R^2`, `-p^{-1} mod 2^64`, exponents like `(p-1)/3`) are *derived from the
//! modulus at compile time* instead of being hand-transcribed — the modulus
//! is the only constant that has to be trusted.

/// Four little-endian 64-bit limbs representing an integer in `[0, 2^256)`.
pub type Limbs = [u64; 4];

/// `a + b + carry`, returning the low 64 bits and the new carry.
#[inline(always)]
pub const fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// `a - b - borrow`, returning the low 64 bits and the new borrow (0 or 1).
#[inline(always)]
pub const fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128).wrapping_sub(b as u128 + borrow as u128);
    (t as u64, ((t >> 64) as u64) & 1)
}

/// `a + b * c + carry`, returning the low 64 bits and the high 64 bits.
#[inline(always)]
pub const fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + (b as u128) * (c as u128) + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// Returns `true` when `a >= b` (unsigned 256-bit comparison).
#[inline]
pub const fn geq(a: &Limbs, b: &Limbs) -> bool {
    let mut i = 3;
    loop {
        if a[i] > b[i] {
            return true;
        }
        if a[i] < b[i] {
            return false;
        }
        if i == 0 {
            return true; // equal
        }
        i -= 1;
    }
}

/// Returns `true` when all limbs are zero.
#[inline]
pub const fn is_zero(a: &Limbs) -> bool {
    a[0] == 0 && a[1] == 0 && a[2] == 0 && a[3] == 0
}

/// Wrapping 256-bit addition; returns `(sum, carry_out)`.
#[inline]
pub const fn add_wide(a: &Limbs, b: &Limbs) -> (Limbs, u64) {
    let (r0, c) = adc(a[0], b[0], 0);
    let (r1, c) = adc(a[1], b[1], c);
    let (r2, c) = adc(a[2], b[2], c);
    let (r3, c) = adc(a[3], b[3], c);
    ([r0, r1, r2, r3], c)
}

/// Wrapping 256-bit subtraction; returns `(diff, borrow_out)`.
#[inline]
pub const fn sub_wide(a: &Limbs, b: &Limbs) -> (Limbs, u64) {
    let (r0, bw) = sbb(a[0], b[0], 0);
    let (r1, bw) = sbb(a[1], b[1], bw);
    let (r2, bw) = sbb(a[2], b[2], bw);
    let (r3, bw) = sbb(a[3], b[3], bw);
    ([r0, r1, r2, r3], bw)
}

/// `a - b` assuming `a >= b`.
#[inline]
pub const fn sub(a: &Limbs, b: &Limbs) -> Limbs {
    sub_wide(a, b).0
}

/// Subtract a small constant, assuming no underflow.
pub const fn sub_small(a: &Limbs, k: u64) -> Limbs {
    sub(a, &[k, 0, 0, 0])
}

/// Add a small constant, assuming no overflow past 256 bits.
pub const fn add_small(a: &Limbs, k: u64) -> Limbs {
    add_wide(a, &[k, 0, 0, 0]).0
}

/// Logical right shift by `k < 64` bits.
#[inline]
pub const fn shr(a: &Limbs, k: u32) -> Limbs {
    if k == 0 {
        return *a;
    }
    let mut r = [0u64; 4];
    let mut i = 0;
    while i < 4 {
        r[i] = a[i] >> k;
        if i < 3 {
            r[i] |= a[i + 1] << (64 - k);
        }
        i += 1;
    }
    r
}

/// Divide by a small divisor `d`, returning the quotient (remainder dropped).
pub const fn div_small(a: &Limbs, d: u64) -> Limbs {
    let mut out = [0u64; 4];
    let mut rem: u128 = 0;
    let mut i = 3usize;
    loop {
        let cur = (rem << 64) | a[i] as u128;
        out[i] = (cur / d as u128) as u64;
        rem = cur % d as u128;
        if i == 0 {
            break;
        }
        i -= 1;
    }
    out
}

/// `2^k mod m`, computed by `k` modular doublings of 1.
///
/// Requires `m` odd with its top bit clear (true for every 254-bit modulus we
/// use), so that doubling never overflows past a single carry bit.
pub const fn pow2k_mod(k: u32, m: &Limbs) -> Limbs {
    let mut r = [1u64, 0, 0, 0];
    let mut i = 0;
    while i < k {
        // r = 2r (with carry-out), then conditionally reduce.
        let mut carry = 0u64;
        let mut nr = [0u64; 4];
        let mut j = 0;
        while j < 4 {
            let v = ((r[j] as u128) << 1) | carry as u128;
            nr[j] = v as u64;
            carry = (v >> 64) as u64;
            j += 1;
        }
        r = nr;
        if carry == 1 || geq(&r, m) {
            r = sub(&r, m);
        }
        i += 1;
    }
    r
}

/// `-m^{-1} mod 2^64` for odd `m` (Newton–Hensel iteration).
pub const fn mont_inv64(m0: u64) -> u64 {
    let mut inv = 1u64;
    let mut i = 0;
    // Each iteration doubles the number of correct low bits; 6 suffice for
    // 64 bits, a few extra iterations are free at compile time.
    while i < 8 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        i += 1;
    }
    inv.wrapping_neg()
}

/// Number of trailing zero bits (0 for zero input handled as 256).
#[inline]
pub const fn trailing_zeros(a: &Limbs) -> u32 {
    let mut i = 0;
    let mut total = 0u32;
    while i < 4 {
        if a[i] != 0 {
            return total + a[i].trailing_zeros();
        }
        total += 64;
        i += 1;
    }
    total
}

/// Bit `i` of `a` (little-endian bit order).
#[inline]
pub const fn bit(a: &Limbs, i: u32) -> bool {
    (a[(i / 64) as usize] >> (i % 64)) & 1 == 1
}

/// Index of the highest set bit, or `None` for zero.
pub fn highest_bit(a: &Limbs) -> Option<u32> {
    for i in (0..4).rev() {
        if a[i] != 0 {
            return Some(i as u32 * 64 + 63 - a[i].leading_zeros());
        }
    }
    None
}

/// Full 256x256 -> 512-bit school-book multiplication.
pub const fn mul_wide(a: &Limbs, b: &Limbs) -> [u64; 8] {
    let mut t = [0u64; 8];
    let mut i = 0;
    while i < 4 {
        let mut carry = 0u64;
        let mut j = 0;
        while j < 4 {
            let (lo, hi) = mac(t[i + j], a[i], b[j], carry);
            t[i + j] = lo;
            carry = hi;
            j += 1;
        }
        t[i + 4] = carry;
        i += 1;
    }
    t
}

/// Binary long division of a 512-bit value by a non-zero 256-bit divisor:
/// returns `(quotient, remainder)` with `a = q * d + rem`, `rem < d`.
///
/// 512 shift-subtract steps: fine for deriving the GLV constants (the
/// lattice basis and its reciprocals, once per process) and as the
/// oracle the reciprocal division is tested against, too slow for
/// anything per scalar.
///
/// # Panics
/// Panics when the divisor is zero.
pub fn div_rem_wide(a: &[u64; 8], d: &Limbs) -> ([u64; 8], Limbs) {
    assert!(!is_zero(d), "division by zero");
    let mut q = [0u64; 8];
    let mut rem: Limbs = [0; 4];
    for i in (0..512).rev() {
        // rem = 2*rem + bit_i(a); the shift can carry past 256 bits when
        // the divisor occupies the full width, so track the carry-out.
        let mut carry = (a[i / 64] >> (i % 64)) & 1;
        for limb in rem.iter_mut() {
            let next = *limb >> 63;
            *limb = (*limb << 1) | carry;
            carry = next;
        }
        if carry == 1 || geq(&rem, d) {
            // with carry, (2^256 + rem) - d wraps to the correct value
            rem = sub_wide(&rem, d).0;
            q[i / 64] |= 1 << (i % 64);
        }
    }
    (q, rem)
}

/// Parses a decimal string into limbs. Returns `None` on invalid characters
/// or overflow past 256 bits.
pub fn from_decimal(s: &str) -> Option<Limbs> {
    let mut acc = [0u64; 4];
    for ch in s.bytes() {
        if !ch.is_ascii_digit() {
            return None;
        }
        // acc = acc * 10 + digit
        let mut carry = (ch - b'0') as u64;
        for limb in acc.iter_mut() {
            let v = (*limb as u128) * 10 + carry as u128;
            *limb = v as u64;
            carry = (v >> 64) as u64;
        }
        if carry != 0 {
            return None;
        }
    }
    Some(acc)
}

/// Formats limbs as a big-endian hex string (no leading `0x`).
pub fn to_hex(a: &Limbs) -> String {
    format!("{:016x}{:016x}{:016x}{:016x}", a[3], a[2], a[1], a[0])
}

/// Big-endian byte serialization (32 bytes).
pub fn to_bytes_be(a: &Limbs) -> [u8; 32] {
    let mut out = [0u8; 32];
    for i in 0..4 {
        out[i * 8..(i + 1) * 8].copy_from_slice(&a[3 - i].to_be_bytes());
    }
    out
}

/// Big-endian byte parsing (32 bytes).
pub fn from_bytes_be(bytes: &[u8; 32]) -> Limbs {
    let mut limbs = [0u64; 4];
    for i in 0..4 {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
        limbs[3 - i] = u64::from_be_bytes(buf);
    }
    limbs
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: Limbs = [
        0x3c208c16d87cfd47,
        0x97816a916871ca8d,
        0xb85045b68181585d,
        0x30644e72e131a029,
    ];

    #[test]
    fn add_sub_roundtrip() {
        let a = [1u64, 2, 3, 4];
        let b = [5u64, 6, 7, 8];
        let (s, c) = add_wide(&a, &b);
        assert_eq!(c, 0);
        let (d, bw) = sub_wide(&s, &b);
        assert_eq!(bw, 0);
        assert_eq!(d, a);
    }

    #[test]
    fn pow2k_small() {
        let m = [97u64, 0, 0, 0];
        assert_eq!(pow2k_mod(10, &m), [1024 % 97, 0, 0, 0]);
    }

    #[test]
    fn mont_inv_is_inverse() {
        let inv = mont_inv64(P[0]);
        assert_eq!(P[0].wrapping_mul(inv.wrapping_neg()), 1);
    }

    #[test]
    fn div_small_exact() {
        // (p - 1) is divisible by 2; check (p-1)/2 * 2 + 1 == p
        let pm1 = sub_small(&P, 1);
        let half = div_small(&pm1, 2);
        let (dbl, c) = add_wide(&half, &half);
        assert_eq!(c, 0);
        assert_eq!(add_small(&dbl, 1), P);
    }

    #[test]
    fn decimal_parse_matches_hex() {
        let p = from_decimal(
            "21888242871839275222246405745257275088696311157297823662689037894645226208583",
        )
        .unwrap();
        assert_eq!(p, P);
    }

    #[test]
    fn bytes_roundtrip() {
        let a = [0x0123456789abcdefu64, 0xfedcba9876543210, 42, 7];
        assert_eq!(from_bytes_be(&to_bytes_be(&a)), a);
    }

    #[test]
    fn mul_wide_small() {
        let a = [u64::MAX, 0, 0, 0];
        let b = [u64::MAX, 0, 0, 0];
        let t = mul_wide(&a, &b);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(t[0], 1);
        assert_eq!(t[1], u64::MAX - 1);
        assert_eq!(&t[2..], &[0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn div_rem_wide_roundtrip() {
        // a = q*d + rem exactly, rem < d, for a few structured cases
        let cases: [([u64; 8], Limbs); 4] = [
            ([u64::MAX; 8], P),
            ([1, 0, 0, 0, 0, 0, 0, 0], P),
            ([0, 0, 0, 0, 1, 0, 0, 0], [3, 0, 0, 0]),
            (
                [0xdeadbeef, 42, 0, 7, 0, 0xabc, 0, 1 << 62],
                [5, 0, 0, 1 << 63],
            ),
        ];
        for (a, d) in cases {
            let (q, rem) = div_rem_wide(&a, &d);
            assert!(!geq(&rem, &d) || is_zero(&d), "rem must be < d");
            // recompute q*d + rem over 512 bits (school-book)
            let mut t = [0u64; 8];
            for i in 0..8 {
                let mut carry = 0u64;
                for j in 0..4 {
                    if i + j < 8 {
                        let (lo, hi) = mac(t[i + j], q[i], d[j], carry);
                        t[i + j] = lo;
                        carry = hi;
                    }
                }
                if i + 4 < 8 {
                    t[i + 4] = t[i + 4].wrapping_add(carry);
                }
            }
            let mut carry = 0u64;
            for (i, limb) in t.iter_mut().enumerate() {
                let (s, c) = adc(*limb, if i < 4 { rem[i] } else { 0 }, carry);
                *limb = s;
                carry = c;
            }
            assert_eq!(t, a);
        }
    }

    #[test]
    fn highest_bit_works() {
        assert_eq!(highest_bit(&[0, 0, 0, 0]), None);
        assert_eq!(highest_bit(&[1, 0, 0, 0]), Some(0));
        assert_eq!(highest_bit(&[0, 0, 0, 1 << 63]), Some(255));
    }
}
