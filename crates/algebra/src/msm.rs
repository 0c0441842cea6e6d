//! Multi-scalar multiplication and the fixed-base / fixed-scalar batch
//! kernels built on the same machinery.
//!
//! * [`msm`] — signed-digit (wNAF-style) Pippenger: each window digit is
//!   recoded into `(-2^(c-1), 2^(c-1)]`, which halves the bucket count per
//!   window (negative digits reuse the positive buckets with a negated
//!   point, since affine negation is free). Windows are processed in
//!   parallel on the [`crate::par`] thread-pool shim, and their buckets
//!   are segments of one counting-sorted arena halved in place — many
//!   independent affine additions sharing one Montgomery-inversion pass
//!   per round, lane for lane what [`Projective::batch_add_affine`] does.
//! * [`FixedBaseTable`] — 8-bit windowed precomputation for one fixed
//!   base; [`FixedBaseTable::mul_many_affine`] evaluates many scalars at
//!   once with batch-affine accumulators (~6 field muls per window per
//!   scalar instead of ~11 for Jacobian mixed additions).
//! * [`mul_each`] — one fixed scalar times many points (the shape of
//!   authenticator generation, where every chunk hash is raised to the
//!   same secret exponent), with a shared wNAF schedule and batch-affine
//!   accumulators. The GLV-accelerated G1 version lives in
//!   [`crate::endo`].
//!
//! `msm(bases, scalars)` computes `sum_i scalars[i] * bases[i]` much
//! faster than individual scalar multiplications. Used for aggregated
//! authenticators, KZG openings and the Groth16 prover.

use crate::bigint::{self, Limbs};
use crate::curve::{Affine, CurveParams, Projective};
use crate::field::batch_inverse_with;
use crate::fields::Fr;
use crate::par::par_map_chunks;

/// Scalars are canonical representatives of the 254-bit field `Fr`.
const FR_BITS: usize = 254;

/// Minimum number of simultaneous affine additions for which a halving
/// round of the bucket arena is still run. The shared inversion (a
/// binary Euclid, ~150 field muls' worth of time) is paid once per round,
/// so a batched lane (~6 muls) only beats a mixed addition (~11 muls)
/// once the inversion is amortized over enough lanes.
///
/// Swept on the in-place arena with `endo::msm_g1`, one pinned CPU,
/// median ms of three passes at n = 49 / 300 / 8192 bases (98 / 600 /
/// 16 384 split points): cutoff 16: 0.80 / 3.19 / 56.0; 32: 0.81 / 3.27 /
/// 54.8; 64: 0.78 / 3.34 / 56.1; 128: 0.79 / 3.18 / 54.8; 256: 0.79 /
/// 3.28 / 55.7; 512: 0.82 / 3.18 / 57.2. Flat inside the box's ±3 %
/// run-to-run spread — the last rounds it decides hold a few hundred
/// additions out of tens of thousands — so the value stays.
const BATCH_AFFINE_CUTOFF: usize = 128;

/// Picks the bucket window size for `n` terms of `nbits` bits by
/// minimizing the cost model `windows * (n + 3 * 2^(c-1))`: each window
/// visits every point once (one bucket addition) and pays roughly three
/// additions' worth of running-sum work per bucket. Signed digits halve
/// the bucket count, so the optimum sits about one bit above the classic
/// unsigned ladder.
///
/// The per-bucket weight was swept with the cutoff above (same set-up,
/// median ms at n = 49 / 300 / 8192 bases): weight 1: 0.86 / 3.34 / 55.6;
/// 2: 0.80 / 3.33 / 54.4; 3: 0.79 / 3.14 / 54.9; 4: 0.79 / 3.15 / 54.6;
/// 5: 0.79 / 3.18 / 54.0; 6: 0.80 / 3.17 / 53.7; 8: 0.79 / 3.45 / 55.8.
/// 3 to 6 tie at every size (at 600 points they choose between `c = 7`
/// and `c = 6`, 3.14 against 3.15-3.18 ms); 3 stays.
fn window_size(n: usize, nbits: usize) -> usize {
    let mut best = (usize::MAX, 1);
    for c in 1..=15 {
        let windows = nbits.div_ceil(c) + 1;
        let cost = windows * (n + 3 * (1usize << (c - 1)));
        if cost < best.0 {
            best = (cost, c);
        }
    }
    best.1
}

/// Computes `sum_i scalars[i] * bases[i]`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn msm<C: CurveParams>(bases: &[Affine<C>], scalars: &[Fr]) -> Projective<C> {
    assert_eq!(
        bases.len(),
        scalars.len(),
        "msm requires equal-length inputs"
    );
    if bases.len() == 1 {
        return bases[0].mul(scalars[0]);
    }
    let limbs: Vec<Limbs> = scalars.iter().map(|s| s.to_canonical()).collect();
    msm_limbs(bases, &limbs, FR_BITS)
}

/// [`msm`] for scalars that are 128 bits wide to begin with — the small
/// exponents of a random-linear-combination batch check. Half the
/// windows of a full-width scalar with no GLV split to pay for, so half
/// the points of [`crate::endo::msm_g1`] at the same window count.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn msm_u128<C: CurveParams>(bases: &[Affine<C>], scalars: &[u128]) -> Projective<C> {
    assert_eq!(
        bases.len(),
        scalars.len(),
        "msm requires equal-length inputs"
    );
    let limbs: Vec<Limbs> = scalars.iter().map(|&k| u128_limbs(k)).collect();
    msm_limbs(bases, &limbs, 128)
}

/// A 128-bit integer as little-endian limbs.
pub(crate) fn u128_limbs(v: u128) -> Limbs {
    [v as u64, (v >> 64) as u64, 0, 0]
}

/// Pippenger over raw little-endian limb scalars bounded by `2^nbits` —
/// the shared core of [`msm`], [`msm_u128`] and the GLV-split
/// [`crate::endo::msm_g1`], whose half-scalars only span 128 bits (and
/// therefore half the windows).
pub(crate) fn msm_limbs<C: CurveParams>(
    bases: &[Affine<C>],
    scalars: &[Limbs],
    nbits: usize,
) -> Projective<C> {
    assert_eq!(bases.len(), scalars.len());
    if bases.is_empty() {
        return Projective::identity();
    }
    let _span = dsaudit_obs::span("algebra.msm");
    dsaudit_obs::counter_inc("algebra.msm_calls");
    dsaudit_obs::observe("algebra.msm_points", bases.len() as u64);
    let c = window_size(bases.len(), nbits);
    let num_windows = nbits.div_ceil(c) + 1;
    dsaudit_obs::observe("algebra.msm_windows", num_windows as u64);
    let digits = signed_digits(scalars, c, num_windows);
    // Windows are independent until the final combine, so fan them out
    // across the thread pool. Each worker pools the batch-affine rounds
    // of its whole window range (see `bucket_windows`): at verifier sizes
    // (a few hundred points) a single window never amortizes the shared
    // Montgomery inversion, but a worker's 20-40 windows together do.
    // par_map_chunks with a chunk floor of 1 parallelizes even the
    // few-windows regime of large inputs (big n picks a wide c, i.e. few
    // windows), where par_map's small-n serial cutoff would kick in.
    let window_sums: Vec<Projective<C>> = par_map_chunks(num_windows, 1, |r| {
        bucket_windows(bases, &digits, r, num_windows, c)
    });
    // combine windows from the top down
    let mut total = Projective::identity();
    for ws in window_sums.iter().rev() {
        for _ in 0..c {
            total = total.double();
        }
        total = total.add(ws);
    }
    total
}

/// Accumulates the buckets of a whole window range and collapses each
/// window with the running-sum trick, returning `sum_d d * bucket[w][d]`
/// per window.
///
/// The range is cut into blocks of windows that each fill one
/// [`BucketArena`], so every batch-affine halving round shares a single
/// inversion across all the windows of its block — the per-window variant
/// pays one inversion (~150 field muls' worth of time) *per window* and
/// drains most points through unbatched mixed additions at the sizes the
/// audit verifier feeds (`chi` over a few hundred points).
fn bucket_windows<C: CurveParams>(
    bases: &[Affine<C>],
    digits: &[i16],
    ws: core::ops::Range<usize>,
    num_windows: usize,
    c: usize,
) -> Vec<Projective<C>> {
    // Pool at most ~2^14 points per arena: enough windows to amortize the
    // shared inversions at small n (the verifier's few-hundred-point chi
    // pools its whole window range), but bounded so large inputs keep a
    // cache-sized working set instead of thrashing one giant arena.
    const TARGET_ARENA_POINTS: usize = 1 << 14;
    let block = (TARGET_ARENA_POINTS / bases.len().max(1)).max(1);
    let mut arena = BucketArena::default();
    let mut out = Vec::with_capacity(ws.len());
    let mut start = ws.start;
    while start < ws.end {
        let end = (start + block).min(ws.end);
        arena.fill(bases, digits, start..end, num_windows, c);
        arena.halve();
        arena.window_sums(&mut out);
        start = end;
    }
    out
}

/// The buckets of a block of windows as segments of one flat point
/// array, sorted by `(window, bucket)`: bucket `b` is
/// `points[starts[b]..starts[b] + lens[b]]`. Each point is written once
/// on the way in and the halving rounds shrink every segment in place,
/// so no round moves a point it does not add. The vectors are scratch
/// reused from block to block.
struct BucketArena<C: CurveParams> {
    /// Buckets per window, `2^(c-1)`.
    half: usize,
    points: Vec<Affine<C>>,
    starts: Vec<usize>,
    lens: Vec<usize>,
    denoms: Vec<C::Base>,
    prods: Vec<C::Base>,
}

impl<C: CurveParams> Default for BucketArena<C> {
    fn default() -> Self {
        Self {
            half: 0,
            points: Vec::new(),
            starts: Vec::new(),
            lens: Vec::new(),
            denoms: Vec::new(),
            prods: Vec::new(),
        }
    }
}

impl<C: CurveParams> BucketArena<C> {
    /// Counting sort of the non-zero digits of windows `ws`: one pass
    /// counts every `(window, bucket)`, one pass places each point at its
    /// bucket's cursor, negated on the way in for a negative digit.
    fn fill(
        &mut self,
        bases: &[Affine<C>],
        digits: &[i16],
        ws: core::ops::Range<usize>,
        num_windows: usize,
        c: usize,
    ) {
        let half = 1usize << (c - 1);
        self.half = half;
        self.lens.clear();
        self.lens.resize(ws.len() * half, 0);
        for row in digits.chunks_exact(num_windows) {
            for (wi, &d) in row[ws.clone()].iter().enumerate() {
                if d != 0 {
                    self.lens[wi * half + usize::from(d.unsigned_abs()) - 1] += 1;
                }
            }
        }
        self.starts.clear();
        let mut total = 0;
        for &len in &self.lens {
            self.starts.push(total);
            total += len;
        }
        self.points.clear();
        self.points.resize(total, Affine::identity());
        // `starts` doubles as the placement cursor and is wound back after
        let starts = &mut self.starts;
        for (base, row) in bases.iter().zip(digits.chunks_exact(num_windows)) {
            for (wi, &d) in row[ws.clone()].iter().enumerate() {
                if d != 0 {
                    let cursor = &mut starts[wi * half + usize::from(d.unsigned_abs()) - 1];
                    self.points[*cursor] = if d < 0 { base.neg() } else { *base };
                    *cursor += 1;
                }
            }
        }
        for (start, len) in starts.iter_mut().zip(&self.lens) {
            *start -= len;
        }
    }

    /// Halves every bucket round by round: pair `(2j, 2j + 1)` of a
    /// segment is summed into its slot `j` (read before any later pair
    /// writes that far), an odd leftover moves down behind the sums, and
    /// all pairs of all windows share one inversion per round. Stops once
    /// the pooled pair count no longer pays for the next inversion; what
    /// is left merges through mixed additions in
    /// [`BucketArena::window_sums`].
    fn halve(&mut self) {
        loop {
            let pairs: usize = self.lens.iter().map(|len| len / 2).sum();
            if pairs < BATCH_AFFINE_CUTOFF {
                return;
            }
            self.denoms.clear();
            for (&start, &len) in self.starts.iter().zip(&self.lens) {
                for pair in self.points[start..start + len].chunks_exact(2) {
                    self.denoms.push(pair[0].add_denominator(&pair[1]));
                }
            }
            batch_inverse_with(&mut self.denoms, &mut self.prods);
            let mut lane = 0;
            for (&start, len) in self.starts.iter().zip(self.lens.iter_mut()) {
                let segment = &mut self.points[start..start + *len];
                for j in 0..*len / 2 {
                    segment[j] =
                        segment[2 * j].add_with_inverse(&segment[2 * j + 1], self.denoms[lane]);
                    lane += 1;
                }
                if *len % 2 == 1 {
                    segment[*len / 2] = segment[*len - 1];
                }
                *len = len.div_ceil(2);
            }
        }
    }

    /// Per window: merges each bucket's leftovers (mixed additions) while
    /// folding the buckets with the running-sum trick, appending one sum
    /// per window of the block to `out`.
    fn window_sums(&self, out: &mut Vec<Projective<C>>) {
        for window in 0..self.lens.len() / self.half {
            let mut running = Projective::<C>::identity();
            let mut acc = Projective::<C>::identity();
            for b in (window * self.half..(window + 1) * self.half).rev() {
                for p in &self.points[self.starts[b]..self.starts[b] + self.lens[b]] {
                    running = running.add_affine(p);
                }
                acc = acc.add(&running);
            }
            out.push(acc);
        }
    }
}

/// Recodes every scalar into signed window digits in
/// `(-2^(c-1), 2^(c-1)]`, laid out as `out[i * num_windows + w]`.
///
/// A raw digit above `2^(c-1)` is replaced by `raw - 2^c` with a carry
/// into the next window; `num_windows` must include one window beyond the
/// scalar bits so the final carry is always absorbed (debug-asserted).
fn signed_digits(scalars: &[Limbs], c: usize, num_windows: usize) -> Vec<i16> {
    debug_assert!((1..=15).contains(&c), "digit must fit in i16");
    let half = 1i64 << (c - 1);
    let full = 1i64 << c;
    let mut out = vec![0i16; scalars.len() * num_windows];
    for (i, limbs) in scalars.iter().enumerate() {
        let mut carry = 0i64;
        for w in 0..num_windows {
            let raw = extract_bits(limbs, w * c, c) as i64 + carry;
            if raw > half {
                out[i * num_windows + w] = (raw - full) as i16;
                carry = 1;
            } else {
                out[i * num_windows + w] = raw as i16;
                carry = 0;
            }
        }
        debug_assert_eq!(carry, 0, "top window must absorb the carry");
    }
    out
}

/// Extracts `count` bits starting at bit `offset` from little-endian
/// limbs, where `1 <= count <= 15`.
///
/// Correct at every boundary: an `offset` at or past 256 yields 0, a
/// window spanning two limbs stitches both together, and a window running
/// off the top of limb 3 (offset >= 192 with `shift + count > 64`) is
/// implicitly zero-padded — the mask is applied after the stitch, so no
/// shift ever exceeds the limb width.
fn extract_bits(limbs: &[u64; 4], offset: usize, count: usize) -> usize {
    debug_assert!((1..=15).contains(&count));
    if offset >= 256 {
        return 0;
    }
    let limb = offset / 64;
    let shift = offset % 64;
    let mut v = limbs[limb] >> shift;
    if shift + count > 64 && limb + 1 < 4 {
        v |= limbs[limb + 1] << (64 - shift);
    }
    (v & ((1u64 << count) - 1)) as usize
}

/// Width-`w` NAF recoding of a canonical scalar: little-endian digits,
/// each either zero or odd with `|d| <= 2^w - 1`, at most one non-zero
/// digit in any `w + 1` consecutive positions.
pub(crate) fn wnaf_digits(limbs: &Limbs, w: usize) -> Vec<i8> {
    debug_assert!((2..=7).contains(&w), "digit must fit in i8");
    let mut k = *limbs;
    let window = 1u64 << (w + 1);
    let mut out = Vec::with_capacity(FR_BITS + 2);
    while !bigint::is_zero(&k) {
        if k[0] & 1 == 1 {
            let mut d = (k[0] % window) as i64;
            if d > (1 << w) {
                d -= window as i64;
            }
            if d >= 0 {
                k = bigint::sub(&k, &[d as u64, 0, 0, 0]);
            } else {
                k = bigint::add_wide(&k, &[(-d) as u64, 0, 0, 0]).0;
            }
            out.push(d as i8);
        } else {
            out.push(0);
        }
        k = bigint::shr(&k, 1);
    }
    out
}

/// Multiplies every point by the same scalar: `out[i] = k * points[i]`.
///
/// All lanes share one wNAF digit schedule (the scalar is identical), so
/// every double and every table addition runs as a single batch-affine
/// pass over all lanes. The G1-specific entry point
/// [`crate::endo::mul_each_g1`] additionally splits `k` via the GLV
/// endomorphism, halving the doubling count; this generic version works
/// for any curve (G2 included).
pub fn mul_each<C: CurveParams>(points: &[Affine<C>], k: Fr) -> Vec<Affine<C>> {
    let digits = wnaf_digits(&k.to_canonical(), 5);
    par_map_chunks(points.len(), 64, |r| {
        mul_each_batched(&points[r], &digits, &[], 5, None)
    })
}

/// Shared batch-affine double-and-add over a fixed digit schedule.
///
/// Computes `d1 * P_i + d2 * phi(P_i)` for every lane, where `d1`/`d2`
/// are little-endian wNAF digit strings (width `w`) and `phi` is the
/// x-coordinate endomorphism `(x, y) -> (beta * x, y)` when `beta` is
/// given (`d2` must be empty otherwise). Odd-multiple tables are built
/// with batched additions; the `phi` table reuses the base table at the
/// cost of one multiplication per entry.
pub(crate) fn mul_each_batched<C: CurveParams>(
    points: &[Affine<C>],
    d1: &[i8],
    d2: &[i8],
    w: usize,
    beta: Option<C::Base>,
) -> Vec<Affine<C>> {
    debug_assert!(d2.is_empty() || beta.is_some());
    let n = points.len();
    if n == 0 || (d1.is_empty() && d2.is_empty()) {
        return vec![Affine::identity(); n];
    }
    // tab1[t][i] = (2t+1) * points[i]
    let table_len = 1usize << (w - 1);
    let mut tab1: Vec<Vec<Affine<C>>> = Vec::with_capacity(table_len);
    tab1.push(points.to_vec());
    if table_len > 1 {
        let mut twos = points.to_vec();
        Projective::batch_double_affine(&mut twos);
        for t in 1..table_len {
            let mut next = tab1[t - 1].clone();
            Projective::batch_add_affine(&mut next, &twos);
            tab1.push(next);
        }
    }
    // tab2[t][i] = (2t+1) * phi(points[i]) = phi(tab1[t][i])
    let tab2: Option<Vec<Vec<Affine<C>>>> = beta.map(|b| {
        tab1.iter()
            .map(|row| {
                row.iter()
                    .map(|p| Affine {
                        x: p.x * b,
                        y: p.y,
                        infinity: p.infinity,
                    })
                    .collect()
            })
            .collect()
    });
    let len = d1.len().max(d2.len());
    let mut acc = vec![Affine::<C>::identity(); n];
    let mut rhs = vec![Affine::<C>::identity(); n];
    let mut started = false;
    type DigitTables<'a, C> = [(&'a [i8], Option<&'a Vec<Vec<Affine<C>>>>); 2];
    for j in (0..len).rev() {
        if started {
            Projective::batch_double_affine(&mut acc);
        }
        let digit_tables: DigitTables<'_, C> = [(d1, Some(&tab1)), (d2, tab2.as_ref())];
        for (digits, table) in digit_tables {
            let d = digits.get(j).copied().unwrap_or(0);
            if d == 0 {
                continue;
            }
            let row = &table.expect("digits imply a table")[(d.unsigned_abs() >> 1) as usize];
            for (slot, p) in rhs.iter_mut().zip(row) {
                *slot = if d < 0 { p.neg() } else { *p };
            }
            Projective::batch_add_affine(&mut acc, &rhs);
            started = true;
        }
    }
    acc
}

/// Precomputed table for many scalar multiplications of one fixed base
/// (the subgroup generator during tag generation and key generation, or
/// the Groth16 trusted setup, which needs hundreds of thousands of
/// multiples of the generators).
#[derive(Clone, Debug)]
pub struct FixedBaseTable<C: CurveParams> {
    /// table[w][d] = (d+1) * 2^(8w) * base
    windows: Vec<Vec<Affine<C>>>,
}

impl<C: CurveParams> FixedBaseTable<C> {
    /// Builds the 8-bit windowed table (32 windows x 255 entries).
    pub fn new(base: &Projective<C>) -> Self {
        let mut windows = Vec::with_capacity(32);
        let mut window_base = *base;
        for _ in 0..32 {
            let mut row = Vec::with_capacity(255);
            let mut acc = window_base;
            for _ in 0..255 {
                row.push(acc);
                acc = acc.add(&window_base);
            }
            windows.push(Projective::batch_to_affine(&row));
            window_base = acc; // 256 * window_base
        }
        Self { windows }
    }

    /// `k * base` using the table (32 mixed additions).
    pub fn mul(&self, k: Fr) -> Projective<C> {
        let limbs = k.to_canonical();
        let mut acc = Projective::identity();
        for (w, row) in self.windows.iter().enumerate() {
            let byte = (limbs[w / 8] >> ((w % 8) * 8)) & 0xff;
            if byte != 0 {
                acc = acc.add_affine(&row[(byte - 1) as usize]);
            }
        }
        acc
    }

    /// Applies the table to many scalars at once with batch-affine
    /// accumulators: all lanes walk the 32 windows in lockstep, each
    /// window contributing one shared-inversion [`Projective::batch_add_affine`]
    /// pass. Roughly twice as fast per scalar as [`FixedBaseTable::mul`]
    /// once the batch is large enough to amortize the inversions.
    pub fn mul_many_affine(&self, scalars: &[Fr]) -> Vec<Affine<C>> {
        par_map_chunks(scalars.len(), 64, |r| {
            let scalars = &scalars[r];
            let canon: Vec<Limbs> = scalars.iter().map(|s| s.to_canonical()).collect();
            let mut acc = vec![Affine::<C>::identity(); scalars.len()];
            let mut rhs = vec![Affine::<C>::identity(); scalars.len()];
            for (w, row) in self.windows.iter().enumerate() {
                let mut any = false;
                for (slot, limbs) in rhs.iter_mut().zip(&canon) {
                    let byte = (limbs[w / 8] >> ((w % 8) * 8)) & 0xff;
                    *slot = if byte != 0 {
                        any = true;
                        row[(byte - 1) as usize]
                    } else {
                        Affine::identity()
                    };
                }
                if any {
                    Projective::batch_add_affine(&mut acc, &rhs);
                }
            }
            acc
        })
    }

    /// Applies the table to many scalars.
    pub fn mul_many(&self, scalars: &[Fr]) -> Vec<Projective<C>> {
        self.mul_many_affine(scalars)
            .iter()
            .map(Affine::to_projective)
            .collect()
    }
}

/// Test-support fixture: scalars that stress digit extraction and window
/// recoding — the canonical maximum `r - 1`, a dense all-ones bit
/// pattern reduced into the field, the top canonical bit alone and with
/// the bottom bit, and the small constants around zero. Shared by the
/// unit tests here and the differential proptests so the edge-case list
/// cannot drift between suites.
pub fn adversarial_scalars() -> Vec<Fr> {
    use crate::field::Field;
    let all_ones = Fr::from_bytes_wide(&[0xff; 64]);
    let top_bit = {
        let mut acc = Fr::one();
        for _ in 0..253 {
            acc = acc.double();
        }
        acc
    };
    vec![
        Fr::zero() - Fr::one(), // r - 1, the canonical maximum
        all_ones,
        top_bit,
        top_bit + Fr::one(),
        Fr::one(),
        Fr::zero(),
    ]
}

/// Naive MSM used as a correctness oracle and for ablation benches.
pub fn msm_naive<C: CurveParams>(bases: &[Affine<C>], scalars: &[Fr]) -> Projective<C> {
    assert_eq!(bases.len(), scalars.len());
    let mut acc = Projective::identity();
    for (b, s) in bases.iter().zip(scalars) {
        acc = acc.add(&b.mul(*s));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Field;
    use crate::g1::{G1Params, G1Projective};
    use crate::g2::G2Projective;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x35)
    }

    #[test]
    fn msm_matches_naive_small() {
        let mut rng = rng();
        for n in [0usize, 1, 2, 3, 17, 64, 301] {
            let bases: Vec<_> = (0..n)
                .map(|_| G1Projective::random(&mut rng).to_affine())
                .collect();
            let scalars: Vec<_> = (0..n).map(|_| Fr::random(&mut rng)).collect();
            assert_eq!(
                msm(&bases, &scalars),
                msm_naive(&bases, &scalars),
                "mismatch at n={n}"
            );
        }
    }

    #[test]
    fn msm_u128_matches_naive() {
        let mut rng = rng();
        let n = 40;
        let bases: Vec<_> = (0..n)
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        let mut small: Vec<u128> = (0..n)
            .map(|_| {
                let mut bytes = [0u8; 16];
                rand::RngCore::fill_bytes(&mut rng, &mut bytes);
                u128::from_le_bytes(bytes)
            })
            .collect();
        small[0] = 0;
        small[1] = 1;
        small[2] = u128::MAX;
        small[3] = 1 << 127;
        let as_fr: Vec<Fr> = small.iter().map(|&k| Fr::from_limbs(u128_limbs(k))).collect();
        assert_eq!(msm_u128(&bases, &small), msm_naive(&bases, &as_fr));
        assert!(msm_u128::<crate::g1::G1Params>(&[], &[]).is_identity());
    }

    #[test]
    fn msm_matches_naive_adversarial_scalars() {
        let mut rng = rng();
        let scalars = adversarial_scalars();
        let bases: Vec<_> = (0..scalars.len())
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        assert_eq!(msm(&bases, &scalars), msm_naive(&bases, &scalars));
    }

    #[test]
    fn msm_batch_affine_path_matches_naive() {
        // large enough to cross BATCH_AFFINE_CUTOFF in every window
        let mut rng = rng();
        let n = 2 * super::BATCH_AFFINE_CUTOFF + 17;
        let bases: Vec<_> = (0..n)
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        let scalars: Vec<_> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        assert_eq!(msm(&bases, &scalars), msm_naive(&bases, &scalars));
    }

    #[test]
    fn msm_handles_zero_scalars() {
        let mut rng = rng();
        let bases: Vec<_> = (0..10)
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        let scalars = vec![Fr::zero(); 10];
        assert!(msm(&bases, &scalars).is_identity());
    }

    #[test]
    fn msm_works_on_g2() {
        let mut rng = rng();
        let bases: Vec<_> = (0..33)
            .map(|_| G2Projective::random(&mut rng).to_affine())
            .collect();
        let scalars: Vec<_> = (0..33).map(|_| Fr::random(&mut rng)).collect();
        assert_eq!(msm(&bases, &scalars), msm_naive(&bases, &scalars));
    }

    #[test]
    fn signed_digits_reconstruct_scalar() {
        let mut rng = rng();
        let mut scalars = adversarial_scalars();
        scalars.extend((0..8).map(|_| Fr::random(&mut rng)));
        for c in [1usize, 3, 5, 8, 13, 15] {
            let num_windows = FR_BITS.div_ceil(c) + 1;
            let limbs: Vec<Limbs> = scalars.iter().map(|s| s.to_canonical()).collect();
            let digits = signed_digits(&limbs, c, num_windows);
            for (i, s) in scalars.iter().enumerate() {
                // sum_w digit_w * 2^(w*c) must equal the scalar in Fr
                let mut acc = Fr::zero();
                let mut base = Fr::one();
                let two_c = Fr::from_u64(1 << c);
                for w in 0..num_windows {
                    let d = digits[i * num_windows + w];
                    let mag = Fr::from_u64(d.unsigned_abs() as u64) * base;
                    if d >= 0 {
                        acc += mag;
                    } else {
                        acc -= mag;
                    }
                    base *= two_c;
                }
                assert_eq!(acc, *s, "scalar {i} at window size {c}");
            }
        }
    }

    #[test]
    fn extract_bits_spans_limbs() {
        let limbs = [u64::MAX, 0b1011, 0, 0];
        // 5 bits starting at offset 62: bits 62,63 of limb0 (1,1) and bits
        // 0,1,2 of limb1 (1,1,0) -> 0b01111
        assert_eq!(extract_bits(&limbs, 62, 5), 0b01111);
    }

    #[test]
    fn extract_bits_top_window_boundaries() {
        // bits that run off the top of limb 3 must read as zero padding
        let limbs = [0, 0, 0, u64::MAX];
        assert_eq!(extract_bits(&limbs, 250, 13), 0b111111); // 6 real bits
        assert_eq!(extract_bits(&limbs, 255, 5), 1); // one real bit
        assert_eq!(extract_bits(&limbs, 256, 5), 0); // fully out of range
        assert_eq!(extract_bits(&limbs, 300, 3), 0);
        // limb-2 / limb-3 boundary with shift + count > 64
        let limbs = [0, 0, 1 << 63, 0b101];
        assert_eq!(extract_bits(&limbs, 191, 4), 0b1011);
        // offset exactly 192 reads limb 3 alone
        assert_eq!(extract_bits(&limbs, 192, 3), 0b101);
    }

    #[test]
    fn wnaf_digits_reconstruct() {
        let mut rng = rng();
        let mut scalars = adversarial_scalars();
        scalars.extend((0..4).map(|_| Fr::random(&mut rng)));
        for w in [2usize, 4, 5, 7] {
            for s in &scalars {
                let digits = wnaf_digits(&s.to_canonical(), w);
                let mut acc = Fr::zero();
                let mut base = Fr::one();
                for d in &digits {
                    assert!(*d == 0 || d.rem_euclid(2) == 1, "digits must be odd");
                    assert!((d.unsigned_abs() as u64) < (1 << w) * 2);
                    let mag = Fr::from_u64(d.unsigned_abs() as u64) * base;
                    if *d >= 0 {
                        acc += mag;
                    } else {
                        acc -= mag;
                    }
                    base = base.double();
                }
                assert_eq!(acc, *s);
            }
        }
    }

    #[test]
    fn mul_each_matches_per_point_mul() {
        let mut rng = rng();
        let mut points: Vec<_> = (0..9)
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        points.push(Affine::identity());
        for k in [Fr::zero(), Fr::one(), Fr::zero() - Fr::one(), Fr::random(&mut rng)] {
            let got = mul_each(&points, k);
            for (p, g) in points.iter().zip(&got) {
                assert_eq!(g.to_projective(), p.mul(k), "k={k:?}");
            }
        }
    }

    #[test]
    fn mul_each_works_on_g2() {
        let mut rng = rng();
        let points: Vec<_> = (0..5)
            .map(|_| G2Projective::random(&mut rng).to_affine())
            .collect();
        let k = Fr::random(&mut rng);
        let got = mul_each(&points, k);
        for (p, g) in points.iter().zip(&got) {
            assert_eq!(g.to_projective(), p.mul(k));
        }
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn msm_length_mismatch_panics() {
        let bases = vec![Affine::<G1Params>::generator()];
        let scalars: Vec<Fr> = vec![];
        let _ = msm(&bases, &scalars);
    }

    #[test]
    fn fixed_base_table_matches_mul() {
        let mut rng = rng();
        let g = G1Projective::generator();
        let table = super::FixedBaseTable::new(&g);
        for _ in 0..10 {
            let k = Fr::random(&mut rng);
            assert_eq!(table.mul(k), g.mul(k));
        }
        assert!(table.mul(Fr::zero()).is_identity());
        assert_eq!(table.mul(Fr::one()), g);
    }

    #[test]
    fn fixed_base_mul_many_affine_matches() {
        let mut rng = rng();
        let g = G1Projective::generator();
        let table = super::FixedBaseTable::new(&g);
        let mut scalars = adversarial_scalars();
        scalars.extend((0..6).map(|_| Fr::random(&mut rng)));
        let got = table.mul_many_affine(&scalars);
        for (k, p) in scalars.iter().zip(&got) {
            assert_eq!(p.to_projective(), g.mul(*k));
        }
    }
}
