//! Bounded verifier-side caches, owned by the [`crate::Auditor`] handle.
//!
//! Earlier revisions kept two process-wide statics: the `(name, i)`
//! index-oracle cache behind `compute_chi` and the prepared-G2
//! line-coefficient cache behind every pairing. Under million-file
//! traffic those grow without limit and every verifier in the process
//! shares one lock. Both now live inside each [`crate::Auditor`] (and
//! are dropped with it), bounded by a capacity with FIFO eviction —
//! oldest entry out first, so a flood of throwaway keys cycles through
//! without wiping a hot working set all at once — and keep the hit/miss
//! counters the bench harness and tests read.
//!
//! Counters live *inside* the same mutex as the map, so a
//! [`CacheStats`] snapshot is consistent with the cache body even under
//! concurrent readers. Hits and misses are mirrored onto the
//! `dsaudit-obs` registry (`core.cache.chi.*` / `core.cache.g2.*`) in
//! batches of `OBS_FLUSH_EVERY` (64) lookups rather than one obs call
//! per lookup: a warm verify performs hundreds of cache hits, and the
//! telemetry mirror must not dominate the cost it measures. The obs
//! counters therefore lag the exact [`CacheStats`] totals by at most
//! one batch; the flush points are a deterministic function of the
//! lookup sequence, so virtual-clock traces stay byte-reproducible.

#![deny(missing_docs)]

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::{Arc, Mutex};

use dsaudit_algebra::g1::G1Affine;
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

/// A capacity-bounded map with FIFO eviction and hit/miss counters.
///
/// Misses compute outside the lock (two racing lookups may both compute
/// a fresh entry, which is benign for deterministic values); insertion
/// evicts the oldest keys until the capacity bound holds. A batch of
/// keys is looked up under one lock and its misses inserted under one
/// more. The counters
/// sit inside the same mutex as the map, so [`BoundedCache::stats`] is
/// one consistent snapshot rather than two racing atomic loads.
struct BoundedCache<K, V> {
    inner: Mutex<BoundedMap<K, V>>,
    capacity: usize,
    /// Obs counter names, built once so the hot path never formats.
    hit_metric: String,
    miss_metric: String,
}

/// Cache lookups between flushes of the hit/miss deltas to the obs
/// registry. Small enough that traces track the caches closely, large
/// enough that the mirror costs one obs call pair per batch instead of
/// one per lookup on the verify hot path.
const OBS_FLUSH_EVERY: u64 = 64;

struct BoundedMap<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    hits: u64,
    misses: u64,
    /// Hits not yet flushed to the obs registry.
    pending_hits: u64,
    /// Misses not yet flushed to the obs registry.
    pending_misses: u64,
}

impl<K: Eq + Hash + Clone, V> BoundedMap<K, V> {
    /// Counts one lookup; every `OBS_FLUSH_EVERY`-th returns the
    /// `(hits, misses)` deltas to mirror onto the obs registry once the
    /// lock is released.
    fn count(&mut self, hit: bool) -> Option<(u64, u64)> {
        if hit {
            self.hits = self.hits.saturating_add(1);
            self.pending_hits = self.pending_hits.saturating_add(1);
        } else {
            self.misses = self.misses.saturating_add(1);
            self.pending_misses = self.pending_misses.saturating_add(1);
        }
        if self.pending_hits.saturating_add(self.pending_misses) < OBS_FLUSH_EVERY {
            return None;
        }
        let deltas = (self.pending_hits, self.pending_misses);
        self.pending_hits = 0;
        self.pending_misses = 0;
        Some(deltas)
    }

    /// Inserts a computed entry, evicting oldest-first down to
    /// `capacity`; a key already resident keeps its place in the order.
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

impl<K: Eq + Hash + Clone, V: Clone> BoundedCache<K, V> {
    /// Locks the map, recovering from poisoning: entries are
    /// deterministic values keyed by their inputs, so a map observed
    /// mid-panic of another thread is still internally consistent
    /// (worst case a concurrent insert is missing, which is the same
    /// as a benign racing miss). Verifier paths stay panic-free.
    fn locked(&self) -> std::sync::MutexGuard<'_, BoundedMap<K, V>> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn new(capacity: usize, metric: &str) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self {
            inner: Mutex::new(BoundedMap {
                map: HashMap::new(),
                order: VecDeque::new(),
                hits: 0,
                misses: 0,
                pending_hits: 0,
                pending_misses: 0,
            }),
            capacity,
            hit_metric: format!("{metric}.hits"),
            miss_metric: format!("{metric}.misses"),
        }
    }

    fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> V {
        let (warm, flush) = {
            let mut inner = self.locked();
            let warm = inner.map.get(&key).cloned();
            let flush = inner.count(warm.is_some());
            (warm, flush)
        };
        if let Some(deltas) = flush {
            self.flush(deltas);
        }
        if let Some(v) = warm {
            return v;
        }
        let v = compute();
        self.locked().insert(key, v.clone(), self.capacity);
        v
    }

    /// [`Self::get_or_compute`] for a whole batch under two lock
    /// acquisitions instead of one or two per key: the first gathers the
    /// warm entries and counts every lookup, `compute` then fills in the
    /// cold keys (each distinct one once, in first-occurrence order)
    /// outside the lock, the second inserts them. Counting follows the
    /// one-by-one order — a repeat of a cold key is a hit on its first
    /// occurrence's value — so the totals and the obs flush points are
    /// those of `keys.len()` sequential lookups.
    fn get_or_compute_many(&self, keys: &[K], compute: impl FnOnce(&[K]) -> Vec<V>) -> Vec<V> {
        // per key: the warm value, or its slot among the cold keys
        let mut found: Vec<Result<V, usize>> = Vec::with_capacity(keys.len());
        let mut cold: Vec<K> = Vec::new();
        let mut cold_slot: HashMap<&K, usize> = HashMap::new();
        let mut flushes = Vec::new();
        {
            let mut inner = self.locked();
            for key in keys {
                let (entry, hit) = match (inner.map.get(key), cold_slot.get(key)) {
                    (Some(v), _) => (Ok(v.clone()), true),
                    (None, Some(&slot)) => (Err(slot), true),
                    (None, None) => {
                        cold_slot.insert(key, cold.len());
                        cold.push(key.clone());
                        (Err(cold.len() - 1), false)
                    }
                };
                found.push(entry);
                flushes.extend(inner.count(hit));
            }
        }
        for deltas in flushes {
            self.flush(deltas);
        }
        if cold.is_empty() {
            return found.into_iter().flatten().collect();
        }
        let computed = compute(&cold);
        assert_eq!(computed.len(), cold.len(), "one value per cold key");
        let out = found
            .into_iter()
            .map(|entry| entry.unwrap_or_else(|slot| computed[slot].clone()))
            .collect();
        let mut inner = self.locked();
        for (key, v) in cold.into_iter().zip(computed) {
            inner.insert(key, v, self.capacity);
        }
        out
    }

    /// Mirrors one batch of hit/miss deltas onto the obs registry.
    fn flush(&self, (hits, misses): (u64, u64)) {
        if hits > 0 {
            dsaudit_obs::counter_add(&self.hit_metric, hits);
        }
        if misses > 0 {
            dsaudit_obs::counter_add(&self.miss_metric, misses);
        }
    }

    fn len(&self) -> usize {
        self.locked().map.len()
    }

    /// One snapshot under the cache's own lock: the totals are exactly
    /// the hit/miss split of the lookups that have completed, never a
    /// torn pair from two separate atomics.
    fn stats(&self) -> CacheStats {
        let inner = self.locked();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
        }
    }
}

/// Memoizes the index oracle `H(name || i)` per `(file, chunk)` pair.
///
/// Audit challenges re-sample `k` chunks of the same file every round,
/// so repeated rounds hit warm entries instead of re-running the
/// hash-to-curve square-root search.
pub struct ChiCache {
    cache: BoundedCache<(Fr, u64), G1Affine>,
}

/// Default capacity of [`ChiCache`] (~100 bytes/entry).
pub const CHI_CACHE_CAPACITY: usize = 1 << 20;

impl ChiCache {
    /// A cache bounded at [`CHI_CACHE_CAPACITY`] entries.
    pub fn new() -> Self {
        Self::with_capacity(CHI_CACHE_CAPACITY)
    }

    /// A cache bounded at `capacity` entries (FIFO eviction beyond it).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            cache: BoundedCache::new(capacity, "core.cache.chi"),
        }
    }

    /// `H(name || i)`, served from the cache when warm.
    pub fn index_oracle(&self, name: Fr, i: u64) -> G1Affine {
        self.cache
            .get_or_compute((name, i), || index_oracle(name, i))
    }

    /// `H(name || i)` for every `i` of `indices`, in order: warm
    /// entries gathered under one lock, the cold ones hashed outside it
    /// (across threads when there are enough) and inserted under one
    /// more. A warm audit round is `k` hits for two lock acquisitions
    /// and no thread.
    pub fn index_oracles(&self, name: Fr, indices: &[u64]) -> Vec<G1Affine> {
        let keys: Vec<(Fr, u64)> = indices.iter().map(|&i| (name, i)).collect();
        self.cache.get_or_compute_many(&keys, |cold| {
            par_map(cold.len(), |j| index_oracle(cold[j].0, cold[j].1))
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

    /// The prepared form of `q`, served from the cache when warm.
    pub fn prepared(&self, q: &G2Affine) -> Arc<G2Prepared> {
        self.cache
            .get_or_compute(q.to_compressed(), || Arc::new(G2Prepared::from_affine(q)))
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

    #[test]
    fn chi_cache_hits_and_matches_fresh_compute() {
        let mut rng = rng();
        let cache = ChiCache::new();
        let name = Fr::random(&mut rng);
        let fresh = index_oracle(name, 3);
        assert_eq!(cache.index_oracle(name, 3), fresh);
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 1 });
        assert_eq!(cache.index_oracle(name, 3), fresh);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn chi_cache_evicts_oldest_at_capacity() {
        let mut rng = rng();
        let cache = ChiCache::with_capacity(4);
        let name = Fr::random(&mut rng);
        for i in 0..10 {
            let _ = cache.index_oracle(name, i);
        }
        assert_eq!(cache.len(), 4, "capacity bound must hold");
        // oldest entries (0..6) were evicted, newest (6..10) are warm
        let before = cache.stats();
        let _ = cache.index_oracle(name, 9);
        assert_eq!(cache.stats().hits, before.hits + 1);
        let _ = cache.index_oracle(name, 0);
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
        assert_eq!(batched.index_oracles(name, &indices[..20]), expected[..20]);
        assert_eq!(batched.index_oracles(name, &indices), expected);
        assert_eq!(batched.index_oracles(name, &indices), expected);
        let one_by_one = ChiCache::new();
        for round in [&indices[..20], &indices, &indices] {
            for (&i, want) in round.iter().zip(&expected) {
                assert_eq!(one_by_one.index_oracle(name, i), *want);
            }
        }
        assert_eq!(batched.stats(), one_by_one.stats());
        assert_eq!(batched.len(), one_by_one.len());
        assert!(batched.index_oracles(name, &[]).is_empty());
    }

    #[test]
    fn batch_counts_a_repeated_cold_key_once() {
        let name = Fr::from_u64(12);
        let cache = ChiCache::new();
        let got = cache.index_oracles(name, &[5, 9, 5, 5, 9]);
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
        let got = cache.index_oracles(name, &indices);
        let expected: Vec<G1Affine> = indices.iter().map(|&i| index_oracle(name, i)).collect();
        assert_eq!(got, expected, "evicted entries are still returned");
        assert_eq!(cache.len(), 4, "capacity bound must hold");
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 10
            }
        );
        // the newest four (6..10) stayed, the oldest six went
        let _ = cache.index_oracles(name, &[6, 7, 8, 9]);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 4,
                misses: 10
            }
        );
        let _ = cache.index_oracles(name, &[0]);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 4,
                misses: 11
            }
        );
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
                        let got = cache.index_oracles(name, indices);
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
        let prep = cache.prepared(&q);
        assert_eq!(
            multi_pairing_prepared(&[(&p, prep.as_ref())]),
            pairing(&p, &q)
        );
        let again = cache.prepared(&q);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(
            multi_pairing_prepared(&[(&p, again.as_ref())]),
            pairing(&p, &q)
        );
        // identity prepares and pairs correctly too
        let id = cache.prepared(&G2Affine::identity());
        assert!(multi_pairing_prepared(&[(&p, id.as_ref())]).is_identity());
        // eviction keeps the bound
        for _ in 0..4 {
            let r = G2Projective::random(&mut rng).to_affine();
            let _ = cache.prepared(&r);
        }
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn repeated_insert_of_same_key_does_not_grow() {
        let cache = ChiCache::with_capacity(2);
        let name = Fr::from_u64(7);
        for _ in 0..5 {
            let _ = cache.index_oracle(name, 1);
        }
        assert_eq!(cache.len(), 1);
    }
}
