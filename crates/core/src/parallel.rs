//! A std-only deterministic worker pool for per-type fan-out.
//!
//! The paper trains one independent Q-learner per error type, and every
//! per-type random stream is derived from the master seed alone (see
//! [`crate::trainer::type_seed`]) — so the work is embarrassingly
//! parallel *and* its results are a pure function of the input, not of
//! scheduling. [`WorkerPool::map_indexed`] exploits that: workers pull
//! item indices from a shared counter, each result is tagged with its
//! index, and the caller receives the results in item order. The
//! output is therefore byte-identical for any thread count, including
//! the sequential `threads = 1` path.
//!
//! The pool is built on [`std::thread::scope`]: no unsafe code, no
//! channels, no dependency beyond std.
//!
//! # Panics
//!
//! On the threaded path every claimed index runs inside
//! [`std::panic::catch_unwind`], so a panicking item never strands the
//! other workers: the queue drains, and then the payload of the lowest
//! panicking index is re-raised on the calling thread. Which panic
//! propagates is therefore deterministic for any thread count. There
//! are no retries: every fan-out closure in the workspace is a pure
//! function of its index, so a retry would replay the same panic.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use recovery_telemetry::Telemetry;

/// A fixed-width pool of scoped worker threads.
///
/// ```
/// use recovery_core::parallel::WorkerPool;
///
/// let squares = WorkerPool::new(4).map_indexed(8, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// // Same result on the sequential path.
/// assert_eq!(squares, WorkerPool::sequential().map_indexed(8, |i| i * i));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    threads: NonZeroUsize,
}

impl WorkerPool {
    /// A pool of `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero — callers that accept a user-supplied
    /// count (the CLI's `--threads`) must validate it first.
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: NonZeroUsize::new(threads).expect("worker pool needs at least one thread"),
        }
    }

    /// The single-threaded pool: `map_indexed` runs the closure in the
    /// calling thread, in index order, spawning nothing.
    pub fn sequential() -> Self {
        WorkerPool::new(1)
    }

    /// A pool sized to the machine's available parallelism (falling back
    /// to 1 when that cannot be determined).
    pub fn available() -> Self {
        WorkerPool::new(thread::available_parallelism().map_or(1, NonZeroUsize::get))
    }

    /// Number of worker threads this pool uses.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Applies `f` to every index in `0..n` and returns the results in
    /// index order, regardless of which worker computed what.
    ///
    /// With one thread (or at most one item) this is a plain in-order
    /// loop on the calling thread. Otherwise `min(threads, n)` scoped
    /// workers claim indices from a shared atomic counter, and the
    /// results are put back in index order once every worker is done,
    /// so the returned `Vec` is independent of thread interleaving.
    ///
    /// # Panics
    ///
    /// A panicking closure propagates to the caller. On the threaded
    /// path the queue drains first and the payload of the lowest
    /// panicking index is re-raised; the sequential path stops at the
    /// first (hence lowest) panicking index.
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.get().min(n.max(1));
        if workers <= 1 {
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let mut done: Vec<(usize, thread::Result<T>)> = thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break mine;
                            }
                            mine.push((i, catch_unwind(AssertUnwindSafe(|| f(i)))));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
                .collect()
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter()
            .map(|(_, result)| result.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    }

    /// [`WorkerPool::map_indexed`] with per-item tracing: index `i` runs
    /// inside a [`Telemetry::worker_span`] named `name(i)`, parented to
    /// the span open on the calling thread when the fan-out started and
    /// ranked by `i`. Trace trees built this way are independent of
    /// worker scheduling (siblings collect in rank order), and the
    /// sequential path runs the identical closures inline, so one thread
    /// or eight produce the same tree.
    ///
    /// # Panics
    ///
    /// Propagates panics exactly like [`WorkerPool::map_indexed`]; the
    /// panicking item's span is still closed by its RAII guard during
    /// the unwind.
    pub fn map_indexed_traced<T, S, N, F>(
        &self,
        n: usize,
        telemetry: &Telemetry,
        name: N,
        f: F,
    ) -> Vec<T>
    where
        T: Send,
        S: AsRef<str>,
        N: Fn(usize) -> S + Sync,
        F: Fn(usize) -> T + Sync,
    {
        let ctx = telemetry.trace_context();
        self.map_indexed(n, move |i| {
            let _span = telemetry.worker_span(ctx.as_ref(), name(i).as_ref(), i as u64);
            f(i)
        })
    }
}

impl Default for WorkerPool {
    /// Defaults to [`WorkerPool::available`].
    fn default() -> Self {
        WorkerPool::available()
    }
}

/// Splits `0..n` into at most `parts` contiguous near-equal ranges that
/// cover it exactly, longer ranges first. The partition is a pure
/// function of `(n, parts)`, so shard boundaries — and therefore every
/// shard-then-merge result built on them — are deterministic.
///
/// Returns fewer than `parts` ranges when `n < parts` (never an empty
/// range), and no ranges at all for `n == 0`.
///
/// # Panics
///
/// Panics if `parts` is zero.
pub fn chunk_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    assert!(parts > 0, "need at least one chunk");
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.min(n);
    let base = n / parts;
    let extra = n % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn results_arrive_in_index_order() {
        for threads in [1, 2, 3, 8, 64] {
            let pool = WorkerPool::new(threads);
            let out = pool.map_indexed(37, |i| i * 3);
            assert_eq!(
                out,
                (0..37).map(|i| i * 3).collect::<Vec<_>>(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.map_indexed(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = WorkerPool::new(16).map_indexed(3, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn sequential_pool_never_spawns() {
        // The closure is !Send-observable only indirectly: assert the
        // sequential pool visits indices strictly in order.
        let order = Mutex::new(Vec::new());
        WorkerPool::sequential().map_indexed(5, |i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_is_rejected() {
        let _ = WorkerPool::new(0);
    }

    #[test]
    fn map_indexed_still_propagates_panics() {
        for threads in [1, 3, 8] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                WorkerPool::new(threads).map_indexed(9, |i| {
                    if i == 4 || i == 7 {
                        panic!("boom at {i}");
                    }
                    i
                })
            }))
            .expect_err("the panic must propagate");
            let message = caught.downcast_ref::<String>().expect("formatted payload");
            assert_eq!(message, "boom at 4", "{threads} threads: lowest index wins");
        }
    }

    #[test]
    fn chunk_ranges_cover_exactly_and_balance() {
        for n in [0usize, 1, 2, 7, 100, 1013] {
            for parts in [1usize, 2, 3, 8, 64] {
                let ranges = chunk_ranges(n, parts);
                assert!(ranges.len() <= parts);
                let total: usize = ranges.iter().map(ExactSizeIterator::len).sum();
                assert_eq!(total, n, "n={n} parts={parts}");
                let mut expected_start = 0;
                for r in &ranges {
                    assert_eq!(r.start, expected_start);
                    assert!(!r.is_empty());
                    expected_start = r.end;
                }
                if let (Some(first), Some(last)) = (ranges.first(), ranges.last()) {
                    assert!(first.len() - last.len() <= 1, "n={n} parts={parts}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one chunk")]
    fn chunk_ranges_rejects_zero_parts() {
        let _ = chunk_ranges(10, 0);
    }

    #[test]
    fn available_pool_has_at_least_one_thread() {
        assert!(WorkerPool::available().threads() >= 1);
        assert_eq!(WorkerPool::sequential().threads(), 1);
    }
}
