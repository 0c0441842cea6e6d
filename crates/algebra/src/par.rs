//! Tiny data-parallel helpers over `std::thread::scope`.
//!
//! They live in the lowest crate so the MSM window loop can fan out
//! across cores without a dependency cycle (`core` depends on `algebra`).
//! Keeping the shim dependency-free matters because the build
//! environment has no registry access (no rayon).

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Number of worker threads to use: the machine's available parallelism,
/// asked once per process. The CPU affinity it reflects is fixed when the
/// process starts (`taskset -c 0` pins it to one), and asking costs
/// ~12 µs, which every `join` and `par_map*` call would otherwise pay.
pub fn num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Runs `a` and `b` at the same time and returns both results in
/// argument order: `a` on a scoped thread, `b` on the caller. With one
/// CPU there is nothing to overlap and no thread: `a` runs, then `b`,
/// both on the caller.
///
/// `dsaudit-obs` nests spans by one registry-wide stack, so at most one
/// of two joined closures may record telemetry; by convention that is
/// `b`, and `a` calls nothing instrumented.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB,
    RA: Send,
{
    if num_threads() <= 1 {
        let ra = a();
        return (ra, b());
    }
    std::thread::scope(|scope| {
        let side = scope.spawn(a);
        let rb = b();
        (side.join().expect("worker panicked"), rb)
    })
}

/// Applies `f` to every index in `0..n`, in parallel, collecting results
/// in order. `f` must be cheap to call many times; chunking is by
/// contiguous ranges, the first of which runs on the caller.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send + Default + Clone,
    F: Fn(usize) -> T + Sync,
{
    if n < 32 || num_threads() <= 1 {
        return (0..n).map(f).collect();
    }
    let threads = num_threads().min(n);
    let mut out = vec![T::default(); n];
    let chunk = n.div_ceil(threads);
    let fill = |t: usize, slot: &mut [T]| {
        for (i, s) in slot.iter_mut().enumerate() {
            *s = f(t * chunk + i);
        }
    };
    std::thread::scope(|scope| {
        let mut slots = out.chunks_mut(chunk).enumerate();
        let first = slots.next();
        for (t, slot) in slots {
            let fill = &fill;
            scope.spawn(move || fill(t, slot));
        }
        if let Some((t, slot)) = first {
            fill(t, slot);
        }
    });
    out
}

/// Splits `0..n` into at most `num_threads()` contiguous ranges of at
/// least `min_chunk` items, maps each range to a `Vec<T>` in parallel
/// (the first range on the caller) and concatenates the results in
/// order.
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
    let mut ranges = (0..threads)
        .map(|t| (t * chunk).min(n)..((t + 1) * chunk).min(n))
        .filter(|r| !r.is_empty());
    let first = ranges.next().expect("threads > 1 implies n > 0");
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = ranges.map(|r| scope.spawn(move || f(r))).collect();
        let mut out = f(first);
        for h in handles {
            out.extend(h.join().expect("worker panicked"));
        }
        out
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

    #[test]
    fn join_returns_both_results_in_argument_order() {
        let text = String::from("side");
        let (a, b) = join(|| text.len(), || vec![1u8, 2, 3]);
        assert_eq!((a, b), (4, vec![1u8, 2, 3]));
        // nested: a joined closure may itself fan out
        let (sum, inner) = join(
            || par_map(100, |i| i).iter().sum::<usize>(),
            || join(|| 1, || 2),
        );
        assert_eq!((sum, inner), (4950, (1, 2)));
    }
}
