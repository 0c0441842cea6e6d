//! Tiny data-parallel helpers over `std::thread::scope`.
//!
//! They live in the lowest crate so the MSM window loop can fan out
//! across cores without a dependency cycle (`core` depends on `algebra`).
//! Keeping the shim dependency-free matters because the build
//! environment has no registry access (no rayon).
//!
//! Every closure a helper runs — each range, the caller's own share
//! included — is a `dsaudit-obs` job: it records into its own buffer,
//! and the buffers join the caller's trace in job-index order when the
//! helper returns. Instrumented code may therefore run in any closure,
//! and a trace is the same whether one thread ran the jobs or several.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// The obs side of one call: every closure runs as a job of this
/// fork, and the jobs' buffers are absorbed in index order when it
/// drops. Its key is its own address on the calling frame, unique while
/// the fork is live, so nothing obs returns is consumed.
struct Fork(u8);

impl Fork {
    /// Opens the fork; call it on the bound value, whose address is
    /// the key.
    fn open(&self) {
        dsaudit_obs::fork(self.key());
    }

    fn key(&self) -> usize {
        std::ptr::addr_of!(self.0) as usize
    }

    /// Runs `f` as job `index`.
    fn job<R>(&self, index: usize, f: impl FnOnce() -> R) -> R {
        let _job = dsaudit_obs::job(self.key(), index);
        f()
    }
}

impl Drop for Fork {
    fn drop(&mut self) {
        dsaudit_obs::absorb(self.key());
    }
}

/// Runs `a` and `b` at the same time and returns both results in
/// argument order: `a` on a scoped thread, `b` on the caller. With one
/// CPU there is nothing to overlap and no thread: `a` runs, then `b`,
/// both on the caller. Either may record telemetry: `a` is job 0 and
/// `b` job 1, so `a`'s spans come first in the trace either way.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB,
    RA: Send,
{
    let fork = Fork(0);
    fork.open();
    if num_threads() <= 1 {
        let ra = fork.job(0, a);
        return (ra, fork.job(1, b));
    }
    std::thread::scope(|scope| {
        let fork = &fork;
        let side = scope.spawn(move || fork.job(0, a));
        let rb = fork.job(1, b);
        (side.join().expect("worker panicked"), rb)
    })
}

/// Applies `f` to every index in `0..n`, in parallel, collecting results
/// in order. `f` must be cheap to call many times; chunking is by
/// contiguous ranges, one job each, the first of which runs on the
/// caller.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send + Default + Clone,
    F: Fn(usize) -> T + Sync,
{
    let fork = Fork(0);
    fork.open();
    if n < 32 || num_threads() <= 1 {
        return fork.job(0, || (0..n).map(f).collect());
    }
    let threads = num_threads().min(n);
    let mut out = vec![T::default(); n];
    let chunk = n.div_ceil(threads);
    let fill = |t: usize, slot: &mut [T]| {
        fork.job(t, || {
            for (i, s) in slot.iter_mut().enumerate() {
                *s = f(t * chunk + i);
            }
        });
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
/// (one job per range, the first on the caller) and concatenates the
/// results in order.
///
/// Unlike [`par_map`] the worker sees a whole range at once, which lets
/// batch-inversion-based kernels (batched affine addition, fixed-base
/// tables) amortize their shared inversion across the range.
pub fn par_map_chunks<T, F>(n: usize, min_chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(std::ops::Range<usize>) -> Vec<T> + Sync,
{
    let fork = Fork(0);
    fork.open();
    let threads = num_threads().min(n / min_chunk.max(1)).max(1);
    if threads <= 1 {
        return fork.job(0, || f(0..n));
    }
    let chunk = n.div_ceil(threads);
    let mut ranges = (0..threads)
        .map(|t| (t * chunk).min(n)..((t + 1) * chunk).min(n))
        .filter(|r| !r.is_empty())
        .enumerate();
    let (_, first) = ranges.next().expect("threads > 1 implies n > 0");
    std::thread::scope(|scope| {
        let (f, fork) = (&f, &fork);
        let handles: Vec<_> = ranges
            .map(|(t, r)| scope.spawn(move || fork.job(t, || f(r))))
            .collect();
        let mut out = fork.job(0, || f(first));
        for h in handles {
            out.extend(h.join().expect("worker panicked"));
        }
        out
    })
}

/// Runs `f(0)`, .., `f(n - 1)` as `n` coarse jobs and returns their
/// results in index order. At most `num_threads()` workers — the
/// caller and up to `num_threads() - 1` scoped threads — pull job
/// indices in order, each taking the next one when it is done; so with
/// two workers and three jobs, a long job 1 runs alone while the other
/// worker runs job 0 and then job 2. For a handful of jobs of uneven
/// cost, where [`par_map_chunks`]' contiguous split would pair them
/// blindly.
pub fn par_jobs<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let fork = Fork(0);
    fork.open();
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, fork.job(i, || f(i))));
        }
    };
    let workers = num_threads().min(n);
    let mut done = if workers <= 1 {
        work()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            let mut done = work();
            for h in handles {
                done.extend(h.join().expect("worker panicked"));
            }
            done
        })
    };
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, t)| t).collect()
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
    fn par_jobs_returns_results_by_index() {
        assert!(par_jobs(0, |i| i).is_empty());
        // uneven costs: later jobs finish first on a second worker
        let got = par_jobs(5, |i| {
            std::thread::sleep(std::time::Duration::from_millis(10 * (5 - i as u64)));
            i * 10
        });
        assert_eq!(got, vec![0, 10, 20, 30, 40]);
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
