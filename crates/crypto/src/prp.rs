//! Small-domain pseudorandom permutation `pi` (Definition 2).
//!
//! The challenge seed `C1` must be expanded into `k` *distinct* chunk
//! indices in `[0, d)`. A keyed balanced Feistel network over
//! `2 * ceil(bits/2)` bits, cycle-walked back into the domain, gives a
//! permutation of `[0, d)` — so the first `k` outputs are automatically
//! distinct, exactly the property the paper's `pi` provides.

use crate::assert_not_formattable;
use crate::hmac::{hmac_sha256, HmacKey};

/// Number of Feistel rounds (4 suffice for a PRP in the Luby–Rackoff
/// sense; we use 7 for comfortable margin).
const ROUNDS: u32 = 7;

/// A keyed pseudorandom permutation over `[0, domain_size)`.
///
/// Neither `Debug` nor `Display`: the Feistel key is challenge-seed
/// material (formatting it would leak which chunks an audit samples
/// before settlement), and [`crate::assert_not_formattable`] fails the
/// build if either is implemented.
#[derive(Clone)]
pub struct SmallDomainPrp {
    key: HmacKey,
    domain_size: u64,
    half_bits: u32,
}

assert_not_formattable!(SmallDomainPrp);

impl SmallDomainPrp {
    /// Creates a PRP over `[0, domain_size)` keyed by `seed`.
    ///
    /// # Panics
    /// Panics if `domain_size` is zero.
    pub fn new(seed: &[u8], domain_size: u64) -> Self {
        assert!(domain_size > 0, "domain must be non-empty");
        let bits = 64 - domain_size.saturating_sub(1).leading_zeros();
        let half_bits = bits.div_ceil(2).max(1);
        Self {
            key: HmacKey::new(&hmac_sha256(seed, b"dsaudit/prp/key")),
            domain_size,
            half_bits,
        }
    }

    /// The domain size this PRP permutes.
    pub fn domain_size(&self) -> u64 {
        self.domain_size
    }

    /// Constant-time contract: the Feistel round function is branch-free
    /// in the key and the half-block (enforced by the `ct-branch` lint).
    // lint:ct
    fn round_fn(&self, round: u32, half: u64) -> u64 {
        let mut msg = [0u8; 12];
        msg[..4].copy_from_slice(&round.to_le_bytes());
        msg[4..].copy_from_slice(&half.to_le_bytes());
        let mac = self.key.mac(&msg);
        u64::from_le_bytes(mac[..8].try_into().expect("mac is 32 bytes"))
            & ((1u64 << self.half_bits) - 1)
    }

    /// One pass of the balanced Feistel network over `2 * half_bits`
    /// bits, drawing `F(round, half)` from `f` — [`Self::round_fn`]
    /// itself, or [`Self::sample_distinct`]'s table of its outputs.
    ///
    /// Constant-time contract: the fixed-round network is branch-free
    /// given a branch-free `f` — only the cycle walk around it (whose
    /// iteration count is data-dependent by construction) sits outside
    /// the `lint:ct` envelope.
    // lint:ct
    fn feistel(&self, x: u64, f: &impl Fn(u32, u64) -> u64) -> u64 {
        let mask = (1u64 << self.half_bits) - 1;
        let mut left = (x >> self.half_bits) & mask;
        let mut right = x & mask;
        for round in 0..ROUNDS {
            let (l, r) = (right, left ^ f(round, right));
            left = l;
            right = r;
        }
        (left << self.half_bits) | right
    }

    /// Cycle walking: iterate the wide Feistel from `x` until the value
    /// lands back in the domain (expected < 4 iterations).
    fn walk(&self, x: u64, f: &impl Fn(u32, u64) -> u64) -> u64 {
        let mut v = self.feistel(x, f);
        while v >= self.domain_size {
            v = self.feistel(v, f);
        }
        v
    }

    /// Applies the permutation to `x in [0, domain_size)`.
    ///
    /// # Panics
    /// Panics if `x >= domain_size`.
    pub fn permute(&self, x: u64) -> u64 {
        assert!(x < self.domain_size, "input outside PRP domain");
        self.walk(x, &|round, half| self.round_fn(round, half))
    }

    /// The first `k` outputs of the permutation — `k` distinct
    /// pseudorandom indices, as the audit challenge requires.
    ///
    /// The round function has only `ROUNDS * 2^half_bits` distinct
    /// inputs, while `k` walks evaluate it at least `ROUNDS * k` times.
    /// Whenever `2^half_bits <= k` — a rule on the public `(d, k)` alone
    /// — every output is computed once into a table and the walks read
    /// it instead of re-keying HMAC: same network, same outputs, never
    /// more MACs than the walks alone would issue (at the paper's
    /// `d = 677, k = 300`: 224 instead of ~3,200). The table is indexed
    /// by half-blocks, which is fine here and only here: the sample is
    /// published to the prover as soon as it exists.
    ///
    /// # Panics
    /// Panics if `k > domain_size`.
    pub fn sample_distinct(&self, k: usize) -> Vec<u64> {
        assert!(
            (k as u64) <= self.domain_size,
            "cannot sample more points than the domain holds"
        );
        let halves = 1u64 << self.half_bits;
        if halves > k as u64 {
            return (0..k as u64).map(|j| self.permute(j)).collect();
        }
        let table: Vec<u64> = (0..ROUNDS)
            .flat_map(|round| (0..halves).map(move |half| self.round_fn(round, half)))
            .collect();
        let lookup =
            |round: u32, half: u64| table[((round as usize) << self.half_bits) | half as usize];
        (0..k as u64).map(|j| self.walk(j, &lookup)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn is_a_permutation_small_domains() {
        for d in [1u64, 2, 7, 16, 100, 257] {
            let prp = SmallDomainPrp::new(b"seed", d);
            let image: HashSet<u64> = (0..d).map(|x| prp.permute(x)).collect();
            assert_eq!(image.len() as u64, d, "not a bijection for d={d}");
            assert!(image.iter().all(|&v| v < d));
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a = SmallDomainPrp::new(b"s1", 1000);
        let b = SmallDomainPrp::new(b"s1", 1000);
        let c = SmallDomainPrp::new(b"s2", 1000);
        assert_eq!(a.permute(17), b.permute(17));
        let same: usize = (0..100).filter(|&x| a.permute(x) == c.permute(x)).count();
        assert!(same < 10, "different seeds should disagree almost always");
    }

    #[test]
    fn sample_distinct_gives_distinct() {
        let prp = SmallDomainPrp::new(b"challenge", 5000);
        let sample = prp.sample_distinct(300);
        let set: HashSet<u64> = sample.iter().copied().collect();
        assert_eq!(set.len(), 300);
        assert!(sample.iter().all(|&v| v < 5000));
    }

    #[test]
    fn sample_all_of_tiny_domain() {
        let prp = SmallDomainPrp::new(b"x", 5);
        let mut sample = prp.sample_distinct(5);
        sample.sort_unstable();
        assert_eq!(sample, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn oversampling_panics() {
        SmallDomainPrp::new(b"x", 3).sample_distinct(4);
    }

    #[test]
    fn spread_looks_uniform() {
        // crude uniformity check: mean of permuted values near d/2
        let d = 1u64 << 16;
        let prp = SmallDomainPrp::new(b"uniform", d);
        let n = 2000u64;
        let sum: u64 = (0..n).map(|x| prp.permute(x)).sum();
        let mean = sum as f64 / n as f64;
        let expected = d as f64 / 2.0;
        assert!(
            (mean - expected).abs() < expected * 0.1,
            "mean {mean} too far from {expected}"
        );
    }

    /// Known-answer vectors: `(d, k, first indices, SHA-256 of the whole
    /// sample as little-endian u64s)`. The grid covers the one-element
    /// domain, `k` clamped to a tiny domain, the paper's 1 MiB file
    /// (`d = 677`), and a domain on each side of the round-function
    /// table rule at `k = 300`. Any change to the permutation — round
    /// count, message layout, masking, cycle walk — moves these.
    const KNOWN_ANSWERS: [(u64, usize, &[u64], &str); 5] = [
        (
            1,
            1,
            &[0],
            "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        ),
        (
            7,
            300,
            &[6, 1, 2, 4, 5, 0, 3],
            "c630719e0710dd2c56c95c27b9911c1167ebdc7e9f67baf0d8a9a6ee9186fbd7",
        ),
        (
            677,
            300,
            &[513, 42, 318, 185, 443, 200, 335],
            "216a68c7e9df2230fdd58465697126a0550a132d0db9714db9e170111b25ecf1",
        ),
        (
            65536,
            300,
            &[6747, 28860, 13157, 19453, 58608, 53047, 32603],
            "57639889ae51fcf899a3e159f0853c2f42b90added814f77701bdd83dbeaebb6",
        ),
        (
            1 << 20,
            300,
            &[265082, 649567, 566385, 267603, 822433, 945929, 694120],
            "c74c5d5529970586946475c531b97d8a55c40a6ac13b53d59f88cb005c86d5f8",
        ),
    ];

    #[test]
    fn sample_distinct_known_answers() {
        for (d, k, head, digest) in KNOWN_ANSWERS {
            let prp = SmallDomainPrp::new(b"dsaudit/kat/prp", d);
            let sample = prp.sample_distinct(k.min(d as usize));
            let bytes: Vec<u8> = sample.iter().flat_map(|i| i.to_le_bytes()).collect();
            let hex: String = crate::sha256::sha256(&bytes)
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            assert_eq!(&sample[..head.len()], head, "d={d} k={k}");
            assert_eq!(hex, digest, "d={d} k={k}");
        }
    }
}
