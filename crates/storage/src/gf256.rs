//! Arithmetic in `GF(2^8)` (AES polynomial `x^8+x^4+x^3+x+1`), the base
//! field of the Reed–Solomon erasure code.

use std::sync::OnceLock;

const POLY: u16 = 0x11b;

/// Log/antilog tables for fast multiplication (generator 3).
fn tables() -> &'static ([u8; 256], [u8; 512]) {
    static T: OnceLock<([u8; 256], [u8; 512])> = OnceLock::new();
    T.get_or_init(|| {
        let mut log = [0u8; 256];
        let mut exp = [0u8; 512];
        let mut x: u16 = 1;
        for i in 0..255u16 {
            exp[i as usize] = x as u8;
            log[x as usize] = i as u8;
            // multiply x by the generator 3 = x + 1
            x = (x << 1) ^ x;
            if x & 0x100 != 0 {
                x ^= POLY;
            }
        }
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        (log, exp)
    })
}

/// Addition (XOR).
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiplication via log tables.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let (log, exp) = tables();
    exp[log[a as usize] as usize + log[b as usize] as usize]
}

/// The product row of `coef`: `row[x] = coef * x` for every byte `x`.
/// 256 bytes, built once per matrix coefficient, so a bulk kernel pays
/// one load and one XOR per byte instead of two zero tests and three
/// table reads.
pub fn mul_row(coef: u8) -> [u8; 256] {
    let mut row = [0u8; 256];
    for (x, out) in row.iter_mut().enumerate() {
        *out = mul(coef, x as u8);
    }
    row
}

/// Multiplicative inverse.
///
/// # Panics
/// Panics on zero.
pub fn inv(a: u8) -> u8 {
    assert_ne!(a, 0, "zero has no inverse in GF(256)");
    let (log, exp) = tables();
    exp[255 - log[a as usize] as usize]
}

/// Division `a / b`.
///
/// # Panics
/// Panics when `b` is zero.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    mul(a, inv(b))
}

/// `base^e` by square-and-multiply over the tables.
pub fn pow(base: u8, e: u32) -> u8 {
    if e == 0 {
        return 1;
    }
    if base == 0 {
        return 0;
    }
    let (log, exp) = tables();
    let l = log[base as usize] as u32;
    exp[((l * e) % 255) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_aes_product() {
        // classic AES example: 0x57 * 0x83 = 0xc1
        assert_eq!(mul(0x57, 0x83), 0xc1);
    }

    #[test]
    fn inverse_roundtrip_all() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "inv failed for {a}");
        }
    }

    #[test]
    fn distributive() {
        for a in [3u8, 77, 200] {
            for b in [9u8, 100, 255] {
                for c in [1u8, 42, 180] {
                    assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn mul_row_is_mul_for_every_pair() {
        for coef in 0..=255u8 {
            let row = mul_row(coef);
            for x in 0..=255u8 {
                assert_eq!(row[x as usize], mul(coef, x), "{coef} * {x}");
            }
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let mut acc = 1u8;
        for e in 0..20u32 {
            assert_eq!(pow(7, e), acc);
            acc = mul(acc, 7);
        }
    }
}
