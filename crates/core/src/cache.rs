//! Bounded verifier-side caches, owned by the [`crate::Auditor`] handle.
//!
//! Two memoizations make repeated audit rounds cheap: [`ChiCache`], the
//! `(name, i)` index-oracle points behind `chi`, and
//! [`PreparedG2Cache`], the prepared line coefficients of the owner keys'
//! G2 points. Each lives inside one [`crate::Auditor`] and is dropped
//! with it, bounded by a capacity with FIFO eviction — oldest entry out
//! first, so a flood of throwaway keys cycles through without wiping a
//! hot working set all at once.
//!
//! Both go through one lookup path, `BoundedCache::get_or_compute_many`:
//! a single lookup is a batch of one. A batch takes the cache's lock
//! twice, once to gather the warm entries and count the lookups, once
//! to insert the cold ones computed in between. The hit/miss totals sit
//! inside the same mutex as the map, so a [`CacheStats`] snapshot is
//! consistent with the cache body. After each call drops the lock it
//! adds its own hit and miss counts to the `dsaudit-obs` registry
//! (`core.cache.chi.*` / `core.cache.g2.*`), one counter call each, so
//! the obs counters equal [`CacheStats`] whenever no call is in flight.

#![deny(missing_docs)]

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use dsaudit_algebra::endo::msm_g1;
use dsaudit_algebra::g1::{G1Affine, G1Projective};
use dsaudit_algebra::msm::{msm_slices, slice_count, slice_rows, slice_window, SLICE_MSM_CUTOFF};
use dsaudit_algebra::g2::G2Affine;
use dsaudit_algebra::pairing::G2Prepared;
use dsaudit_algebra::par::par_map;
use dsaudit_algebra::Fr;
use dsaudit_crypto::prf::index_oracle;

/// Hit/miss counters of one cache since its creation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compute the entry.
    pub misses: u64,
}

/// Locks `mutex`, recovering from poisoning: every cached value is a
/// deterministic function of its key, so a map observed mid-panic of
/// another thread is still internally consistent (worst case a
/// concurrent insert is missing, which is the same as a benign racing
/// miss). Verifier paths stay panic-free.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A capacity-bounded map with FIFO eviction and hit/miss counters.
///
/// Misses compute outside the lock (two racing lookups may both compute
/// a fresh entry, which is benign for deterministic values); insertion
/// evicts the oldest keys until the capacity bound holds.
struct BoundedCache<K, V> {
    inner: Mutex<Counted<K, V>>,
    capacity: usize,
    /// Obs counter names, built once so the hot path never formats.
    hit_metric: String,
    miss_metric: String,
}

/// A map bounded by FIFO eviction: the oldest key out first.
struct Fifo<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
}

impl<K: Eq + Hash + Clone, V> Fifo<K, V> {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// Inserts an entry, evicting oldest-first down to `capacity`; a
    /// key already resident keeps its place in the order.
    fn insert(&mut self, key: K, value: V, capacity: usize) {
        if self.map.insert(key.clone(), value).is_none() {
            self.order.push_back(key);
            while self.map.len() > capacity {
                if let Some(victim) = self.order.pop_front() {
                    self.map.remove(&victim);
                } else {
                    break;
                }
            }
        }
    }
}

/// A [`Fifo`] and the hit/miss totals of the lookups into it.
struct Counted<K, V> {
    fifo: Fifo<K, V>,
    stats: CacheStats,
}

impl<K: Eq + Hash + Clone, V: Clone> BoundedCache<K, V> {
    fn new(capacity: usize, metric: &str) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self {
            inner: Mutex::new(Counted {
                fifo: Fifo::new(),
                stats: CacheStats::default(),
            }),
            capacity,
            hit_metric: format!("{metric}.hits"),
            miss_metric: format!("{metric}.misses"),
        }
    }

    /// The value of every key of `keys`, in order, and whether each was
    /// resident before the call. `compute` gets the positions in `keys`
    /// of the cold keys — each distinct one once, at its first
    /// occurrence, in order — and returns their values; it runs outside
    /// the lock. A repeat of a cold key counts as a hit on its first
    /// occurrence's value, so the totals are those of `keys.len()`
    /// lookups of one key each.
    fn get_or_compute_many(
        &self,
        keys: &[K],
        compute: impl FnOnce(&[usize]) -> Vec<V>,
    ) -> (Vec<V>, Vec<bool>) {
        // per key: the warm value, or its slot among the cold keys
        let mut found: Vec<Result<V, usize>> = Vec::with_capacity(keys.len());
        let mut cold: Vec<usize> = Vec::new();
        let mut cold_slot: HashMap<&K, usize> = HashMap::new();
        let (hits, misses) = {
            let mut inner = lock(&self.inner);
            for (j, key) in keys.iter().enumerate() {
                found.push(match (inner.fifo.map.get(key), cold_slot.get(key)) {
                    (Some(v), _) => Ok(v.clone()),
                    (None, Some(&slot)) => Err(slot),
                    (None, None) => {
                        cold_slot.insert(key, cold.len());
                        cold.push(j);
                        Err(cold.len() - 1)
                    }
                });
            }
            let misses = cold.len() as u64;
            let hits = keys.len() as u64 - misses;
            inner.stats.hits = inner.stats.hits.saturating_add(hits);
            inner.stats.misses = inner.stats.misses.saturating_add(misses);
            (hits, misses)
        };
        for (metric, n) in [(&self.hit_metric, hits), (&self.miss_metric, misses)] {
            if n > 0 {
                dsaudit_obs::counter_add(metric, n);
            }
        }
        let resident: Vec<bool> = found.iter().map(Result::is_ok).collect();
        if cold.is_empty() {
            return (found.into_iter().flatten().collect(), resident);
        }
        let computed = compute(&cold);
        assert_eq!(computed.len(), cold.len(), "one value per cold key");
        let out = found
            .into_iter()
            .map(|entry| entry.unwrap_or_else(|slot| computed[slot].clone()))
            .collect();
        let mut inner = lock(&self.inner);
        for (&j, v) in cold.iter().zip(computed) {
            inner.fifo.insert(keys[j].clone(), v, self.capacity);
        }
        (out, resident)
    }

    fn len(&self) -> usize {
        lock(&self.inner).fifo.map.len()
    }

    fn stats(&self) -> CacheStats {
        lock(&self.inner).stats
    }
}

/// Memoizes the index oracle `H(name || i)` per `(file, chunk)` pair,
/// and the slice rows of the entries audits keep coming back to.
///
/// Audit challenges re-sample `k` chunks of the same file every round,
/// so repeated rounds hit warm entries instead of re-running the
/// hash-to-curve square-root search. An entry hit again by a gather of
/// at least [`SLICE_MSM_CUTOFF`] indices is *promoted*: its slice row
/// ([`slice_rows`], `2^(c j) H(name || i)` for every slice `j`) is built
/// and kept, so the MSM over a round's hashes walks the rows in one
/// bucket pass ([`msm_slices`]). The first such gather fixes the window
/// `c` of every row of the cache. A cold gather (a one-shot verify)
/// does not look for rows, and neither it nor a small one (`k` below
/// the cutoff) promotes any. Promotions bump
/// the `core.chi_rows_promoted` counter and leave the hit/miss counts
/// alone.
pub struct ChiCache {
    cache: BoundedCache<ChiKey, G1Affine>,
    /// Promoted rows, FIFO-bounded at `row_capacity` on their own.
    rows: Mutex<Fifo<ChiKey, SliceRow>>,
    row_capacity: usize,
    window: OnceLock<usize>,
}

/// A file's name and a chunk index.
type ChiKey = (Fr, u64);

/// The slices of one `H(name || i)`, shared with the gathers using it.
type SliceRow = Arc<[G1Affine]>;

/// Default capacity of [`ChiCache`] in entries. An entry is a 40-byte
/// key and a 72-byte point in the map and the key again in the FIFO
/// order: 272 bytes of RSS per entry with the map's spare capacity,
/// measured over 2^18 entries, so ~285 MB at the bound.
pub const CHI_CACHE_CAPACITY: usize = 1 << 20;

/// At most this many entries of a [`ChiCache`] hold a slice row at
/// once; beyond it the oldest promotion is dropped first. A row at the
/// window of a `k = 300` audit is 14 points of 72 bytes; with its key,
/// its FIFO slot and the map's spare capacity it costs 1.17-1.26 KB of
/// RSS (measured over 2^15 rows), so the rows add ~40 MB at the bound,
/// 48 files of 677 chunks at the paper's design point.
pub const CHI_ROW_CAPACITY: usize = 1 << 15;

/// The `H(name || i)` of one gather, with every point's slice row when
/// each has one.
#[derive(Default)]
pub(crate) struct ChiPoints {
    points: Vec<G1Affine>,
    /// The rows' window and the rows, parallel to `points`.
    rows: Option<(usize, Vec<SliceRow>)>,
}

impl ChiPoints {
    /// Appends another gather of the same cache; the rows stay only if
    /// both gathers had them (an empty gather has all its rows).
    pub(crate) fn append(&mut self, other: ChiPoints) {
        if self.points.is_empty() {
            *self = other;
            return;
        }
        self.points.extend(other.points);
        self.rows = match (self.rows.take(), other.rows) {
            (Some((window, mut rows)), Some((w, more))) if w == window => {
                rows.extend(more);
                Some((window, rows))
            }
            _ => None,
        };
    }

    /// `sum_j scalars[j] points[j] + sum_j extra_scalars[j] extra[j]` as
    /// one MSM: over the slice rows when every point has one (the rows
    /// of `extra`, a proof's `psi`, are built on the spot), else
    /// through [`msm_g1`].
    ///
    /// # Panics
    /// Panics if a slice's length does not match its scalars'.
    pub(crate) fn msm(self, scalars: &[Fr], extra: &[G1Affine], extra_scalars: &[Fr]) -> G1Projective {
        let all_scalars: Vec<Fr> = scalars.iter().chain(extra_scalars).copied().collect();
        let Some((window, rows)) = self.rows else {
            let mut bases = self.points;
            bases.extend_from_slice(extra);
            return msm_g1(&bases, &all_scalars);
        };
        let extra_rows = slice_rows(extra, window);
        let refs: Vec<&[G1Affine]> = rows
            .iter()
            .map(AsRef::as_ref)
            .chain(extra_rows.chunks_exact(slice_count(window)))
            .collect();
        msm_slices(window, &refs, &all_scalars)
    }
}

impl ChiCache {
    /// A cache bounded at [`CHI_CACHE_CAPACITY`] entries.
    pub fn new() -> Self {
        Self::with_capacity(CHI_CACHE_CAPACITY)
    }

    /// A cache bounded at `capacity` entries (FIFO eviction beyond it),
    /// of which at most [`CHI_ROW_CAPACITY`] hold a row.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            cache: BoundedCache::new(capacity, "core.cache.chi"),
            rows: Mutex::new(Fifo::new()),
            row_capacity: capacity.min(CHI_ROW_CAPACITY),
            window: OnceLock::new(),
        }
    }

    /// `H(name || i)` for every `i` of `indices`, in order, with the
    /// points' slice rows, for an MSM over them. The cold points are
    /// hashed outside the lock (across threads when there are enough);
    /// a warm audit round is `k` hits for one lock acquisition and no
    /// thread. Promotes the warm entries of a large enough gather that
    /// have no row yet, and returns the rows when every point has one.
    pub(crate) fn index_oracle_rows(&self, name: Fr, indices: &[u64]) -> ChiPoints {
        let (points, resident) = self.gather(name, indices);
        if indices.len() < SLICE_MSM_CUTOFF || !resident.contains(&true) {
            return ChiPoints { points, rows: None };
        }
        let window = *self.window.get_or_init(|| slice_window(indices.len()));
        let rows_of = || -> Vec<Option<SliceRow>> {
            let fifo = lock(&self.rows);
            indices.iter().map(|&i| fifo.map.get(&(name, i)).cloned()).collect()
        };
        let mut rows = rows_of();
        // each warm index without a row once, in first-occurrence order
        let mut promote: Vec<(u64, G1Affine)> = Vec::new();
        for ((&i, point), (row, &warm)) in indices.iter().zip(&points).zip(rows.iter().zip(&resident)) {
            if warm && row.is_none() && !promote.iter().any(|&(j, _)| j == i) {
                promote.push((i, *point));
            }
        }
        if !promote.is_empty() {
            let bases: Vec<G1Affine> = promote.iter().map(|&(_, p)| p).collect();
            let built = slice_rows(&bases, window);
            dsaudit_obs::counter_add("core.chi_rows_promoted", promote.len() as u64);
            {
                let mut fifo = lock(&self.rows);
                for (&(i, _), row) in promote.iter().zip(built.chunks_exact(slice_count(window))) {
                    fifo.insert((name, i), Arc::from(row), self.row_capacity);
                }
            }
            rows = rows_of();
        }
        let rows: Option<Vec<SliceRow>> = rows.into_iter().collect();
        ChiPoints {
            points,
            rows: rows.map(|rows| (window, rows)),
        }
    }

    /// The points of `indices`, and whether each was resident before.
    /// Hashing the misses is a `core.index_oracles` span; a warm gather
    /// records none.
    fn gather(&self, name: Fr, indices: &[u64]) -> (Vec<G1Affine>, Vec<bool>) {
        let keys: Vec<ChiKey> = indices.iter().map(|&i| (name, i)).collect();
        self.cache.get_or_compute_many(&keys, |cold| {
            let _span = dsaudit_obs::span("core.index_oracles");
            par_map(cold.len(), |j| index_oracle(name, indices[cold[j]]))
        })
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// `true` when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries holding a slice row.
    pub fn rows_len(&self) -> usize {
        lock(&self.rows).map.len()
    }

    /// Hit/miss counters since creation.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

impl Default for ChiCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Memoizes prepared G2 points (`G2Prepared` line-coefficient
/// sequences, ~17 KB each) keyed by the compressed point.
///
/// The verifier pairs against the same three G2 points on every audit
/// of a public key (`g2`, `eps`, `delta`); serving them prepared makes
/// repeated rounds pay only the sparse accumulator work.
pub struct PreparedG2Cache {
    cache: BoundedCache<[u8; 64], Arc<G2Prepared>>,
}

/// Default capacity of [`PreparedG2Cache`] (~70 MB at the bound).
pub const PREPARED_CACHE_CAPACITY: usize = 1 << 12;

impl PreparedG2Cache {
    /// A cache bounded at [`PREPARED_CACHE_CAPACITY`] entries.
    pub fn new() -> Self {
        Self::with_capacity(PREPARED_CACHE_CAPACITY)
    }

    /// A cache bounded at `capacity` entries (FIFO eviction beyond it).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            cache: BoundedCache::new(capacity, "core.cache.g2"),
        }
    }

    /// The prepared form of every point of `points`, in order, served
    /// from the cache when warm. Each cold point is prepared once, in
    /// order of first occurrence, under its own `algebra.g2_prepare`
    /// span; a hit records none.
    pub fn prepared(&self, points: &[G2Affine]) -> Vec<Arc<G2Prepared>> {
        let keys: Vec<[u8; 64]> = points.iter().map(G2Affine::to_compressed).collect();
        let (prepared, _) = self.cache.get_or_compute_many(&keys, |cold| {
            cold.iter()
                .map(|&j| {
                    let _span = dsaudit_obs::span("algebra.g2_prepare");
                    Arc::new(G2Prepared::from_affine(&points[j]))
                })
                .collect()
        });
        prepared
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// `true` when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss counters since creation.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

impl Default for PreparedG2Cache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsaudit_algebra::field::Field;
    use dsaudit_algebra::g2::G2Projective;
    use dsaudit_algebra::pairing::{multi_pairing_prepared, pairing};
    use dsaudit_algebra::g1::G1Projective;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xcac4e)
    }

    /// The points of one gather, without its rows.
    fn points(cache: &ChiCache, name: Fr, indices: &[u64]) -> Vec<G1Affine> {
        cache.gather(name, indices).0
    }

    #[test]
    fn chi_cache_hits_and_matches_fresh_compute() {
        let mut rng = rng();
        let cache = ChiCache::new();
        let name = Fr::random(&mut rng);
        let fresh = index_oracle(name, 3);
        assert_eq!(cache.gather(name, &[3]), (vec![fresh], vec![false]));
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 1 });
        assert_eq!(cache.gather(name, &[3]), (vec![fresh], vec![true]));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn chi_cache_evicts_oldest_at_capacity() {
        let mut rng = rng();
        let cache = ChiCache::with_capacity(4);
        let name = Fr::random(&mut rng);
        for i in 0..10 {
            let _ = points(&cache, name, &[i]);
        }
        assert_eq!(cache.len(), 4, "capacity bound must hold");
        // oldest entries (0..6) were evicted, newest (6..10) are warm
        let before = cache.stats();
        let _ = points(&cache, name, &[9]);
        assert_eq!(cache.stats().hits, before.hits + 1);
        let _ = points(&cache, name, &[0]);
        assert_eq!(cache.stats().misses, before.misses + 1);
        assert_eq!(cache.len(), 4, "re-inserting keeps the bound");
    }

    #[test]
    fn batch_lookup_matches_per_index_lookups() {
        let name = Fr::from_u64(11);
        let indices: Vec<u64> = (0..40).map(|i| i * 7 % 64).collect();
        let expected: Vec<G1Affine> = indices.iter().map(|&i| index_oracle(name, i)).collect();
        let batched = ChiCache::new();
        // cold, then half warm, then all warm
        assert_eq!(points(&batched, name, &indices[..20]), expected[..20]);
        assert_eq!(points(&batched, name, &indices), expected);
        assert_eq!(points(&batched, name, &indices), expected);
        let one_by_one = ChiCache::new();
        for round in [&indices[..20], &indices, &indices] {
            for (&i, want) in round.iter().zip(&expected) {
                assert_eq!(points(&one_by_one, name, &[i]), [*want]);
            }
        }
        assert_eq!(batched.stats(), one_by_one.stats());
        assert_eq!(batched.len(), one_by_one.len());
        assert!(points(&batched, name, &[]).is_empty());
    }

    #[test]
    fn batch_counts_a_repeated_cold_key_once() {
        let name = Fr::from_u64(12);
        let cache = ChiCache::new();
        let got = points(&cache, name, &[5, 9, 5, 5, 9]);
        let (five, nine) = (index_oracle(name, 5), index_oracle(name, 9));
        assert_eq!(got, [five, nine, five, five, nine]);
        assert_eq!(cache.stats(), CacheStats { hits: 3, misses: 2 });
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn batch_larger_than_capacity_keeps_the_fifo_bound() {
        let name = Fr::from_u64(13);
        let cache = ChiCache::with_capacity(4);
        let indices: Vec<u64> = (0..10).collect();
        let got = points(&cache, name, &indices);
        let expected: Vec<G1Affine> = indices.iter().map(|&i| index_oracle(name, i)).collect();
        assert_eq!(got, expected, "evicted entries are still returned");
        assert_eq!(cache.len(), 4, "capacity bound must hold");
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 10 });
        // the newest four (6..10) stayed, the oldest six went
        let _ = points(&cache, name, &[6, 7, 8, 9]);
        assert_eq!(cache.stats(), CacheStats { hits: 4, misses: 10 });
        let _ = points(&cache, name, &[0]);
        assert_eq!(cache.stats(), CacheStats { hits: 4, misses: 11 });
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn concurrent_batches_count_every_lookup() {
        let name = Fr::from_u64(14);
        let cache = ChiCache::new();
        let start = std::sync::Barrier::new(2);
        let overlapping: [Vec<u64>; 2] = [(0..24).collect(), (12..36).collect()];
        std::thread::scope(|scope| {
            for indices in &overlapping {
                let (cache, start) = (&cache, &start);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..3 {
                        let got = points(cache, name, indices);
                        assert_eq!(got[0], index_oracle(name, indices[0]));
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 2 * 3 * 24);
        // each key is cold for at most both racing first rounds
        assert!(
            (36..=48).contains(&stats.misses),
            "misses: {}",
            stats.misses
        );
        assert_eq!(cache.len(), 36);
    }

    #[test]
    fn prepared_cache_serves_working_preparations() {
        let mut rng = rng();
        let cache = PreparedG2Cache::with_capacity(2);
        let p = G1Projective::random(&mut rng).to_affine();
        let q = G2Projective::random(&mut rng).to_affine();
        let [prep] = <[_; 1]>::try_from(cache.prepared(&[q])).expect("one point");
        assert_eq!(
            multi_pairing_prepared(&[(&p, prep.as_ref())]),
            pairing(&p, &q)
        );
        let [again] = <[_; 1]>::try_from(cache.prepared(&[q])).expect("one point");
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert!(Arc::ptr_eq(&prep, &again), "a hit serves the cached preparation");
        // identity prepares and pairs correctly too
        let [id] = <[_; 1]>::try_from(cache.prepared(&[G2Affine::identity()])).expect("one point");
        assert!(multi_pairing_prepared(&[(&p, id.as_ref())]).is_identity());
        // eviction keeps the bound
        let more: Vec<G2Affine> = (0..4).map(|_| G2Projective::random(&mut rng).to_affine()).collect();
        assert_eq!(cache.prepared(&more).len(), 4);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn prepared_batch_counts_as_lookups_of_one() {
        let mut rng = rng();
        let [a, b] = [(); 2].map(|()| G2Projective::random(&mut rng).to_affine());
        let batched = PreparedG2Cache::new();
        let got = batched.prepared(&[a, b, a]);
        assert_eq!(batched.stats(), CacheStats { hits: 1, misses: 2 });
        assert_eq!(batched.len(), 2);
        assert!(Arc::ptr_eq(&got[0], &got[2]), "a repeat reuses its first occurrence's preparation");
        let one_by_one = PreparedG2Cache::new();
        for q in [a, b, a] {
            let _ = one_by_one.prepared(&[q]);
        }
        assert_eq!(batched.stats(), one_by_one.stats());
        assert!(batched.prepared(&[]).is_empty());
    }

    #[test]
    fn repeated_insert_of_same_key_does_not_grow() {
        let cache = ChiCache::with_capacity(2);
        let name = Fr::from_u64(7);
        for _ in 0..5 {
            let _ = points(&cache, name, &[1]);
        }
        assert_eq!(cache.len(), 1);
    }
}
