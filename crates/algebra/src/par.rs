//! Tiny data-parallel helpers over `std::thread::scope`.
//!
//! They live in the lowest crate so the MSM window loop can fan out
//! across cores without a dependency cycle (`core` depends on `algebra`).
//! Keeping the shim dependency-free matters because the build
//! environment has no registry access (no rayon).

use std::num::NonZeroUsize;

/// Number of worker threads to use (the machine's available parallelism).
pub fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Applies `f` to every index in `0..n`, in parallel, collecting results
/// in order. `f` must be cheap to call many times; chunking is by
/// contiguous ranges.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send + Default + Clone,
    F: Fn(usize) -> T + Sync,
{
    let threads = num_threads().min(n.max(1));
    if threads <= 1 || n < 32 {
        return (0..n).map(f).collect();
    }
    let mut out = vec![T::default(); n];
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for (t, slot) in out.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || {
                for (i, s) in slot.iter_mut().enumerate() {
                    *s = f(t * chunk + i);
                }
            });
        }
    });
    out
}

/// Splits `0..n` into at most `num_threads()` contiguous ranges of at
/// least `min_chunk` items, maps each range to a `Vec<T>` in parallel and
/// concatenates the results in order.
///
/// Unlike [`par_map`] the worker sees a whole range at once, which lets
/// batch-inversion-based kernels (batched affine addition, fixed-base
/// tables) amortize their shared inversion across the range.
pub fn par_map_chunks<T, F>(n: usize, min_chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(std::ops::Range<usize>) -> Vec<T> + Sync,
{
    let threads = num_threads().min(n / min_chunk.max(1)).max(1);
    if threads <= 1 {
        return f(0..n);
    }
    let chunk = n.div_ceil(threads);
    let ranges: Vec<_> = (0..threads)
        .map(|t| (t * chunk).min(n)..((t + 1) * chunk).min(n))
        .filter(|r| !r.is_empty())
        .collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|r| {
                let f = &f;
                let r = r.clone();
                scope.spawn(move || f(r))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_serial() {
        let serial: Vec<usize> = (0..1000).map(|i| i * i).collect();
        let parallel = par_map(1000, |i| i * i);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_map_empty_and_tiny() {
        assert!(par_map(0, |i| i).is_empty());
        assert_eq!(par_map(3, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn par_map_chunks_matches_serial() {
        let expect: Vec<usize> = (0..997).map(|i| i * 3).collect();
        let got = par_map_chunks(997, 16, |r| r.map(|i| i * 3).collect());
        assert_eq!(expect, got);
        assert!(par_map_chunks(0, 16, |r| r.collect::<Vec<_>>()).is_empty());
    }
}
