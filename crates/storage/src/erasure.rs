//! Systematic Reed–Solomon erasure coding over `GF(2^8)` (§III-A).
//!
//! `ErasureCode::new(k, n)` produces `n` shares of which any `k`
//! reconstruct the data (the paper's example: 3-out-of-10). Encoding uses
//! a systematic Vandermonde-derived matrix: the first `k` shares are the
//! data itself, the remaining `n - k` are parity.

use crate::gf256;

/// A `(k, n)` systematic Reed–Solomon code.
#[derive(Clone, Debug)]
pub struct ErasureCode {
    k: usize,
    n: usize,
    /// Full `n x k` encoding matrix (top `k` rows = identity).
    matrix: Vec<Vec<u8>>,
}

/// Errors from erasure coding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ErasureError {
    /// Fewer than `k` shares supplied.
    NotEnoughShares {
        /// Shares actually supplied.
        have: usize,
        /// Minimum shares required (`k`).
        need: usize,
    },
    /// Shares disagree in length.
    ShapeMismatch,
    /// A share index is out of range or duplicated.
    BadShareIndex(usize),
}

impl std::fmt::Display for ErasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ErasureError::NotEnoughShares { have, need } => {
                write!(f, "need {need} shares to reconstruct, have {have}")
            }
            ErasureError::ShapeMismatch => write!(f, "shares have inconsistent lengths"),
            ErasureError::BadShareIndex(i) => write!(f, "bad share index {i}"),
        }
    }
}

impl std::error::Error for ErasureError {}

/// One coded share.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Share {
    /// Row index in the code (0..n).
    pub index: usize,
    /// Share payload.
    pub data: Vec<u8>,
}

impl ErasureCode {
    /// Builds a `(k, n)` code.
    ///
    /// # Panics
    /// Panics unless `0 < k <= n <= 255`.
    pub fn new(k: usize, n: usize) -> Self {
        assert!(k > 0 && k <= n && n <= 255, "need 0 < k <= n <= 255");
        // Vandermonde rows evaluated at distinct points; any k of them
        // are linearly independent. Post-multiplying by the inverse of
        // the top k x k block yields the systematic form (top block
        // becomes the identity) while preserving that property.
        let vand: Vec<Vec<u8>> = (0..n)
            .map(|r| (0..k).map(|c| gf256::pow((r + 1) as u8, c as u32)).collect())
            .collect();
        let top: Vec<Vec<u8>> = vand[..k].to_vec();
        // lint:allow(no-panic) — the top k x k Vandermonde block over distinct nonzero points is always invertible for 0 < k <= n <= 255; `new` is documented to panic on bad parameters (the assert above)
        let top_inv = invert_matrix(top).expect("Vandermonde top block invertible");
        let matrix: Vec<Vec<u8>> = (0..n)
            .map(|r| {
                (0..k)
                    .map(|c| {
                        let mut acc = 0u8;
                        for (j, inv_row) in top_inv.iter().enumerate() {
                            acc = gf256::add(acc, gf256::mul(vand[r][j], inv_row[c]));
                        }
                        acc
                    })
                    .collect()
            })
            .collect();
        Self { k, n, matrix }
    }

    /// Data shares required for reconstruction.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total shares produced.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Encodes `data` into `n` shares (the first `k` are systematic).
    /// The data is padded to a multiple of `k`.
    pub fn encode(&self, data: &[u8]) -> Vec<Share> {
        let share_len = data.len().div_ceil(self.k).max(1);
        // the top k rows of the matrix are the identity: systematic
        // share c is the c-th slice of the zero-padded data, copied
        let mut shares: Vec<Share> = (0..self.k)
            .map(|index| {
                let lo = (index * share_len).min(data.len());
                let hi = (lo + share_len).min(data.len());
                let mut row = data[lo..hi].to_vec();
                row.resize(share_len, 0);
                Share { index, data: row }
            })
            .collect();
        // parity share r byte b = sum_c M[r][c] * D[c][b]
        for index in self.k..self.n {
            let mut row = vec![0u8; share_len];
            for (coef, systematic) in self.matrix[index].iter().zip(&shares) {
                mul_acc(&mut row, &systematic.data, *coef);
            }
            shares.push(Share { index, data: row });
        }
        shares
    }

    /// Checks the first `k` of `shares` (enough of them, one length,
    /// distinct in-range indices) and inverts the `k x k` submatrix of
    /// their rows: `data = inv * shares`.
    fn solve<'a>(&self, shares: &'a [Share]) -> Result<(&'a [Share], Vec<Vec<u8>>), ErasureError> {
        if shares.len() < self.k {
            return Err(ErasureError::NotEnoughShares {
                have: shares.len(),
                need: self.k,
            });
        }
        let use_shares = &shares[..self.k];
        let share_len = use_shares[0].data.len();
        // n <= 255, so a fixed bitmap replaces the hash set (and keeps
        // this crate free of nondeterministic collections)
        let mut seen = [false; 256];
        for s in use_shares {
            if s.data.len() != share_len {
                return Err(ErasureError::ShapeMismatch);
            }
            match seen.get_mut(s.index) {
                Some(slot) if s.index < self.n && !*slot => *slot = true,
                _ => return Err(ErasureError::BadShareIndex(s.index)),
            }
        }
        let sub: Vec<Vec<u8>> = use_shares
            .iter()
            .map(|s| self.matrix[s.index].clone())
            .collect();
        let inv = invert_matrix(sub).ok_or(ErasureError::ShapeMismatch)?;
        Ok((use_shares, inv))
    }

    /// Writes row `index` of the code into the zeroed `dst`:
    /// `M[index] * inv * shares`, one pass over each share.
    fn rebuild_row(&self, index: usize, shares: &[Share], inv: &[Vec<u8>], dst: &mut [u8]) {
        for (r, s) in shares.iter().enumerate() {
            let coef = self.matrix[index]
                .iter()
                .zip(inv)
                .fold(0, |acc, (m, inv_row)| gf256::add(acc, gf256::mul(*m, inv_row[r])));
            mul_acc(dst, &s.data, coef);
        }
    }

    /// Reconstructs the original data (including padding) from any `k`
    /// distinct shares.
    ///
    /// # Errors
    /// Returns [`ErasureError`] on insufficient/inconsistent shares.
    pub fn decode(&self, shares: &[Share], original_len: usize) -> Result<Vec<u8>, ErasureError> {
        let (used, inv) = self.solve(shares)?;
        let share_len = used[0].data.len();
        let mut out = vec![0u8; self.k * share_len];
        for c in 0..self.k {
            self.rebuild_row(c, used, &inv, &mut out[c * share_len..(c + 1) * share_len]);
        }
        out.truncate(original_len);
        Ok(out)
    }

    /// Rebuilds only the shares `wanted` from any `k` distinct shares —
    /// what a repair needs: each lost share is one row
    /// `M[index] * inv * shares`, so nothing is decoded to the full data
    /// and no surviving share is re-encoded.
    ///
    /// # Errors
    /// Returns [`ErasureError`] on insufficient/inconsistent shares or a
    /// wanted index outside the code.
    pub fn reconstruct(&self, shares: &[Share], wanted: &[usize]) -> Result<Vec<Share>, ErasureError> {
        let (used, inv) = self.solve(shares)?;
        let share_len = used[0].data.len();
        wanted
            .iter()
            .map(|&index| {
                if index >= self.n {
                    return Err(ErasureError::BadShareIndex(index));
                }
                let mut data = vec![0u8; share_len];
                self.rebuild_row(index, used, &inv, &mut data);
                Ok(Share { index, data })
            })
            .collect()
    }
}

/// `dst ^= coef * src` over GF(256), through the product row of `coef`.
fn mul_acc(dst: &mut [u8], src: &[u8], coef: u8) {
    match coef {
        0 => {}
        1 => {
            for (out, inp) in dst.iter_mut().zip(src) {
                *out ^= *inp;
            }
        }
        _ => {
            let row = gf256::mul_row(coef);
            for (out, inp) in dst.iter_mut().zip(src) {
                *out ^= row[*inp as usize];
            }
        }
    }
}

/// Inverts a square matrix over GF(256); `None` if singular.
fn invert_matrix(mut m: Vec<Vec<u8>>) -> Option<Vec<Vec<u8>>> {
    let n = m.len();
    let mut inv: Vec<Vec<u8>> = (0..n)
        .map(|r| (0..n).map(|c| u8::from(r == c)).collect())
        .collect();
    for col in 0..n {
        let pivot = (col..n).find(|&r| m[r][col] != 0)?;
        m.swap(col, pivot);
        inv.swap(col, pivot);
        let pinv = gf256::inv(m[col][col]);
        for j in 0..n {
            m[col][j] = gf256::mul(m[col][j], pinv);
            inv[col][j] = gf256::mul(inv[col][j], pinv);
        }
        for r in 0..n {
            if r != col && m[r][col] != 0 {
                let f = m[r][col];
                for j in 0..n {
                    m[r][j] = gf256::add(m[r][j], gf256::mul(f, m[col][j]));
                    inv[r][j] = gf256::add(inv[r][j], gf256::mul(f, inv[col][j]));
                }
            }
        }
    }
    Some(inv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_with_systematic_shares() {
        let code = ErasureCode::new(3, 10);
        let data = b"the quick brown fox jumps over the lazy dog";
        let shares = code.encode(data);
        assert_eq!(shares.len(), 10);
        let rec = code.decode(&shares[..3], data.len()).unwrap();
        assert_eq!(rec, data);
    }

    #[test]
    fn roundtrip_with_parity_only() {
        let code = ErasureCode::new(3, 10);
        let data: Vec<u8> = (0..1000).map(|i| (i * 13 % 251) as u8).collect();
        let shares = code.encode(&data);
        // lose all systematic shares; reconstruct from parity 7, 8, 9
        let rec = code.decode(&shares[7..10], data.len()).unwrap();
        assert_eq!(rec, data);
    }

    #[test]
    fn any_k_of_n_works() {
        let code = ErasureCode::new(4, 7);
        let data = vec![0xabu8; 333];
        let shares = code.encode(&data);
        for combo in [[0usize, 2, 4, 6], [1, 3, 5, 6], [0, 1, 5, 6]] {
            let picked: Vec<Share> = combo.iter().map(|&i| shares[i].clone()).collect();
            assert_eq!(code.decode(&picked, data.len()).unwrap(), data);
        }
    }

    #[test]
    fn systematic_prefix_is_raw_data() {
        let code = ErasureCode::new(2, 4);
        let data = b"abcdef";
        let shares = code.encode(data);
        assert_eq!(&shares[0].data, b"abc");
        assert_eq!(&shares[1].data, b"def");
    }

    /// SHA-256 over every share's index byte and payload.
    fn shares_digest(shares: &[Share]) -> String {
        let mut bytes = Vec::new();
        for s in shares {
            bytes.push(s.index as u8);
            bytes.extend_from_slice(&s.data);
        }
        dsaudit_crypto::sha256::sha256(&bytes)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }

    /// `encode` pinned at the log/antilog-table implementation: the
    /// product-row kernel must place the same bytes (padding included —
    /// 1000 is a multiple of neither `k`).
    #[test]
    fn encode_known_answers() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 37 % 251) as u8).collect();
        for (k, n, want) in [(3, 6, "11989d7a3346f2716564f86be86e64012b78e101827ed661bd39d0cadc83f358"), (5, 10, "9e07572b657ae38757d339678865cd126f32581b435ad25027c80bfa11b6a34b")] {
            let shares = ErasureCode::new(k, n).encode(&data);
            assert_eq!(shares_digest(&shares), want, "{k}-of-{n}");
        }
    }

    #[test]
    fn too_few_shares_error() {
        let code = ErasureCode::new(3, 5);
        let shares = code.encode(b"xyz");
        assert!(matches!(
            code.decode(&shares[..2], 3),
            Err(ErasureError::NotEnoughShares { have: 2, need: 3 })
        ));
    }

    #[test]
    fn duplicate_share_rejected() {
        let code = ErasureCode::new(2, 4);
        let shares = code.encode(b"hello!");
        let dup = vec![shares[1].clone(), shares[1].clone()];
        assert!(matches!(
            code.decode(&dup, 6),
            Err(ErasureError::BadShareIndex(1))
        ));
    }

    #[test]
    fn corrupted_share_changes_output() {
        // RS erasure coding detects nothing by itself; integrity comes
        // from the audit layer. This documents that behavior.
        let code = ErasureCode::new(2, 4);
        let data = b"integrity is the audit layer's job";
        let mut shares = code.encode(data);
        shares[2].data[0] ^= 0xff;
        let rec = code
            .decode(&[shares[2].clone(), shares[3].clone()], data.len())
            .unwrap();
        assert_ne!(rec, data);
    }
}
