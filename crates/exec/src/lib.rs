// Unit tests assert by panicking; the panic-free gate applies to library
// code only (see [workspace.lints] in the root Cargo.toml).
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)
)]
//! Deterministic fork-join execution runtime for the PLOS solvers.
//!
//! The paper's hot loops are embarrassingly parallel *given the current
//! iterate*: per-user most-violated-constraint selection (Eq. 12–15),
//! per-user dual groups (Eq. 16–18), per-user baseline fits, and the
//! Gram-row dot products of the working-set duals. This crate provides the
//! single sanctioned way to exploit that structure (enforced by the xtask
//! linter: `thread::scope`/`thread::spawn` are banned everywhere else except
//! the simulated device network in `crates/net`).
//!
//! # Determinism guarantee
//!
//! Every combinator maps items **independently** and returns results in
//! **submission order**. Each item is processed by exactly one worker with
//! exactly the same closure regardless of the pool size, so training output
//! is bit-identical across pool sizes — the 1-thread path and the N-thread
//! path produce the same floats. The only requirement on the caller is that
//! the closure is a pure function of `(index, item)`, which the solver hot
//! paths satisfy by construction (they never reduce across items inside the
//! pool; reductions happen sequentially on the caller's thread).
//!
//! # Sizing
//!
//! [`Pool::current`] sizes the pool from, in priority order:
//!
//! 1. a thread-local override installed by [`with_threads`] (used by the
//!    parity test suite to compare pool sizes in one process),
//! 2. the `PLOS_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! Sources 2 and 3 are resolved once per process, so asking for the
//! ambient pool costs a thread-local read, not a cgroup-quota read.
//!
//! # When a call forks
//!
//! A scoped spawn costs tens of microseconds, at least the time of
//! [`GRAIN`] multiply-adds. [`Pool::par_chunks`] and
//! [`Pool::par_range_chunks`] therefore take each item's work in
//! multiply-adds and split only into chunks that each carry at least one
//! `GRAIN`; smaller calls run inline on the caller. [`Pool::par_map`] and
//! [`Pool::par_map_indexed`] serve per-user tasks and count every item as
//! worth a spawn.
//!
//! # Errors
//!
//! [`Pool::par_map_indexed`] is `Result`-based: a worker closure returning
//! `Err` surfaces as the combinator's `Err`, and when several items fail the
//! error of the **smallest index** wins — again independent of the pool
//! size. Worker panics are treated as programming errors and resume on the
//! caller's thread, exactly like `std::thread::scope`.

use std::cell::Cell;
use std::ops::Range;
use std::sync::OnceLock;

/// Multiply-adds one spawned chunk must carry to pay for its thread.
///
/// A scoped spawn and join costs tens of microseconds (a 2-way fork
/// measures 55–110 µs on a 2-core x86-64 host), and the dot kernel runs at
/// about 0.2 ns per multiply-add at the centralized dual's dimension, so
/// 2^17 multiply-adds (~26 µs) is at most about one spawn's worth of work.
pub const GRAIN: usize = 1 << 17;

thread_local! {
    /// Thread-local pool-size override installed by [`with_threads`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The process-wide pool width: `PLOS_THREADS`, else hardware parallelism
/// (1 when the runtime cannot tell), resolved on first use.
fn process_threads() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("PLOS_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map(|n| n.max(1))
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            })
    })
}

/// Runs `f` with the calling thread's pool size pinned to `threads`: every
/// [`Pool::current`] call made from this thread inside `f` sees that size.
///
/// The override is restored on exit (including unwinds) and does not leak to
/// other threads — in particular, worker threads spawned by the pool and the
/// device threads of `plos-net` are unaffected.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = THREAD_OVERRIDE.with(|c| c.replace(Some(threads.max(1))));
    let _restore = Restore(prev);
    f()
}

/// A deterministic fork-join pool of scoped worker threads.
///
/// The pool holds no long-lived threads: each combinator call that forks
/// opens a `std::thread::scope`, splits the items into contiguous chunks
/// (one per worker), and joins in submission order. A call runs inline on
/// the calling thread, with no spawn, when the pool has size 1 or when its
/// work does not fill two [`GRAIN`]-sized chunks; the inline path is also
/// the reference the parity suite compares larger pools against.
///
/// ```
/// use plos_exec::Pool;
/// let squares = Pool::sized(4).par_map(&[1, 2, 3, 4, 5], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    pub fn sized(threads: usize) -> Self {
        Pool { threads: threads.max(1) }
    }

    /// The ambient pool: [`with_threads`] override, else `PLOS_THREADS`,
    /// else hardware parallelism (both read once per process).
    pub fn current() -> Self {
        Pool::sized(THREAD_OVERRIDE.with(Cell::get).unwrap_or_else(process_threads))
    }

    /// Number of workers this pool fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Fallible indexed parallel map, results in submission order.
    ///
    /// Each item is mapped by `f(index, item)`; the returned vector is
    /// ordered by index regardless of which worker produced which entry.
    /// Every item counts as worth a spawn (these are per-user tasks), so the
    /// items split over up to `threads` workers. When one or more closures
    /// return `Err`, the error with the smallest index is returned —
    /// deterministically, independent of pool size.
    ///
    /// # Errors
    ///
    /// Returns the first (lowest-index) `Err` produced by `f`.
    pub fn par_map_indexed<T, R, E, F>(&self, items: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        let parts = self.par_chunks(items, GRAIN, |base, chunk| {
            chunk.iter().enumerate().map(|(j, item)| f(base + j, item)).collect()
        });
        // Sequential scan in index order: deterministic first-error-wins.
        parts.into_iter().collect()
    }

    /// Infallible indexed parallel map, results in submission order.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        match self.par_map_indexed(items, |i, item| Ok::<R, std::convert::Infallible>(f(i, item))) {
            Ok(out) => out,
            Err(never) => match never {},
        }
    }

    /// Parallel map over contiguous chunks: `f(offset, chunk)` returns the
    /// mapped values for `chunk` (which starts at `items[offset]`), and the
    /// chunk outputs are concatenated in order. `item_cost` is one item's
    /// work in multiply-adds; the split follows [`Pool::par_range_chunks`].
    ///
    /// Use this instead of [`Pool::par_map`] when per-item work is tiny
    /// (e.g. one dot product) so each worker streams through a cache-friendly
    /// block. For bit-identical results across pool sizes the closure must
    /// map each chunk element independently of its neighbors — chunk
    /// boundaries move with the pool size.
    pub fn par_chunks<T, R, F>(&self, items: &[T], item_cost: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> Vec<R> + Sync,
    {
        self.par_range_chunks(items.len(), item_cost, |range| {
            f(range.start, items.get(range).unwrap_or_default())
        })
    }

    /// Index-range parallel map, the fork-join core every combinator runs
    /// on: `f(range)` returns the mapped values for its sub-range of `0..n`,
    /// and the outputs are concatenated in index order.
    ///
    /// `item_cost` is one index's work in multiply-adds. Every spawned chunk
    /// must carry at least one [`GRAIN`], i.e. hold at least
    /// `floor = ⌈GRAIN / item_cost⌉` indices, so `0..n` splits into
    /// `min(threads, ⌊n / floor⌋)` contiguous ranges whose lengths differ by
    /// at most one (longer ranges first). With one range, `f(0..n)` runs
    /// inline on the caller; otherwise each range runs on its own scoped
    /// thread. A worker panic resumes on the caller.
    ///
    /// Each index is mapped by exactly the same closure no matter how the
    /// range is split, so results are bit-identical across pool sizes as
    /// long as `f` maps each index independently.
    pub fn par_range_chunks<R, F>(&self, n: usize, item_cost: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> Vec<R> + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let floor = GRAIN.div_ceil(item_cost.max(1));
        let workers = self.threads.min(n / floor).max(1);
        if workers == 1 {
            return f(0..n);
        }
        let (len, longer) = (n / workers, n % workers);
        let f = &f;
        let mut out = Vec::with_capacity(n);
        std::thread::scope(|scope| {
            let mut start = 0;
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let range = start..start + len + usize::from(w < longer);
                    start = range.end;
                    scope.spawn(move || f(range))
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(part) => out.extend(part),
                    // A worker panic is a bug in the mapped closure; re-raise
                    // it on the caller as std::thread::scope would.
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        out
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::current()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::{self, ThreadId};

    /// A per-item cost whose chunk floor is exactly 64 items.
    const COST_64: usize = GRAIN / 64;

    #[test]
    fn par_map_preserves_order_across_pool_sizes() {
        let items: Vec<usize> = (0..103).collect();
        let expected: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = Pool::sized(threads).par_map(&items, |_, &x| x * 3 + 1);
            assert_eq!(got, expected, "pool size {threads}");
        }
    }

    #[test]
    fn indices_match_positions() {
        let items = vec!["a", "b", "c", "d", "e"];
        let got = Pool::sized(2).par_map(&items, |i, &s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn first_error_by_index_wins() {
        let items: Vec<usize> = (0..50).collect();
        for threads in [1, 2, 8] {
            let res: Result<Vec<usize>, usize> = Pool::sized(threads)
                .par_map_indexed(&items, |i, &x| if x % 7 == 3 { Err(i) } else { Ok(x) });
            assert_eq!(res, Err(3), "pool size {threads}");
        }
    }

    #[test]
    fn ok_path_collects_everything() {
        let items: Vec<i64> = (0..20).collect();
        let res: Result<Vec<i64>, ()> = Pool::sized(4).par_map_indexed(&items, |_, &x| Ok(-x));
        assert_eq!(res.unwrap(), (0..20).map(|x| -x).collect::<Vec<i64>>());
    }

    #[test]
    fn par_chunks_concatenates_in_order() {
        let items: Vec<f64> = (0..37).map(|i| i as f64).collect();
        for threads in [1, 2, 5] {
            let got = Pool::sized(threads).par_chunks(&items, GRAIN, |offset, chunk| {
                chunk.iter().enumerate().map(|(j, &x)| (offset + j) as f64 * x).collect()
            });
            let expected: Vec<f64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(got, expected, "pool size {threads}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let empty: Vec<u8> = Vec::new();
        assert!(Pool::sized(8).par_map(&empty, |_, &x| x).is_empty());
        assert!(Pool::sized(8).par_chunks(&empty, GRAIN, |_, c| c.to_vec()).is_empty());
        assert!(Pool::sized(8).par_range_chunks(0, GRAIN, |r| r.collect::<Vec<_>>()).is_empty());
    }

    #[test]
    fn par_range_chunks_concatenates_in_order() {
        for n in [1usize, 5, 63, 64, 65, 200] {
            let expected: Vec<usize> = (0..n).map(|i| i * i).collect();
            for threads in [1, 2, 3, 8] {
                let got = Pool::sized(threads)
                    .par_range_chunks(n, GRAIN, |r| r.map(|i| i * i).collect::<Vec<_>>());
                assert_eq!(got, expected, "n={n} pool size {threads}");
            }
        }
    }

    #[test]
    fn par_range_chunks_respects_min_chunk() {
        // Each call reports its range length, so the output lists the
        // chunks. At 64 items per GRAIN no chunk may hold fewer than 64.
        let chunks = |n: usize| Pool::sized(8).par_range_chunks(n, COST_64, |r| vec![r.len()]);
        for (n, calls) in [(64, 1), (65, 1), (127, 1), (128, 2), (129, 2), (640, 8)] {
            let got = chunks(n);
            assert_eq!(got.len(), calls, "n={n}: {got:?}");
            assert_eq!(got.iter().sum::<usize>(), n, "n={n}: {got:?}");
            assert!(got.iter().all(|&len| len >= 64), "n={n}: {got:?}");
        }
    }

    #[test]
    fn par_range_chunks_worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            let _ = Pool::sized(4).par_range_chunks(64, GRAIN, |r| {
                assert!(r.start < 32, "late chunk");
                r.collect::<Vec<_>>()
            });
        });
        assert!(result.is_err());
    }

    /// The distinct threads that ran a `par_chunks` and a `par_range_chunks`
    /// call over `n` items of `COST_64` each, at a pool of 8.
    fn threads_running(n: usize) -> [HashSet<ThreadId>; 2] {
        let pool = Pool::sized(8);
        let chunks =
            pool.par_chunks(&vec![(); n], COST_64, |_, c| vec![thread::current().id(); c.len()]);
        let range = pool.par_range_chunks(n, COST_64, |r| vec![thread::current().id(); r.len()]);
        [chunks.into_iter().collect(), range.into_iter().collect()]
    }

    #[test]
    fn below_grain_calls_run_on_the_caller() {
        let caller = HashSet::from([thread::current().id()]);
        assert_eq!(threads_running(127), [caller.clone(), caller]);
    }

    #[test]
    fn above_grain_calls_use_several_threads() {
        for threads in threads_running(128) {
            assert!(threads.len() >= 2, "{threads:?}");
        }
    }

    #[test]
    fn sized_clamps_to_one() {
        assert_eq!(Pool::sized(0).threads(), 1);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = Pool::current().threads();
        with_threads(3, || {
            assert_eq!(Pool::current().threads(), 3);
            with_threads(5, || assert_eq!(Pool::current().threads(), 5));
            assert_eq!(Pool::current().threads(), 3);
        });
        assert_eq!(Pool::current().threads(), outer);
    }

    #[test]
    fn with_threads_restores_after_panic() {
        let outer = Pool::current().threads();
        let result = std::panic::catch_unwind(|| {
            with_threads(7, || panic!("boom"));
        });
        assert!(result.is_err());
        assert_eq!(Pool::current().threads(), outer);
    }

    #[test]
    fn override_does_not_leak_to_workers() {
        // Workers spawned by the pool read their own thread-local (unset),
        // but the mapped closure must not rely on Pool::current() anyway;
        // this documents that nesting via current() inside workers falls
        // back to env/hardware sizing rather than the caller's override.
        with_threads(2, || {
            let sizes = Pool::current().par_map(&[(); 4], |_, ()| Pool::current().threads());
            // Caller's chunk (if any) sees 2; a worker thread sees the
            // ambient default. Either way every entry is at least 1.
            assert!(sizes.iter().all(|&s| s >= 1));
        });
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            let _ = Pool::sized(2).par_map(&[1, 2, 3, 4], |_, &x| {
                assert!(x < 3, "x too big");
                x
            });
        });
        assert!(result.is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Ordering: par_map_indexed returns exactly the sequential map
            /// for every pool size.
            #[test]
            fn ordering_matches_sequential(
                items in prop::collection::vec(-1000i64..1000, 0..200),
                threads in 1usize..16,
            ) {
                let seq: Vec<i64> =
                    items.iter().enumerate().map(|(i, &x)| x.wrapping_mul(i as i64 + 1)).collect();
                let par = Pool::sized(threads)
                    .par_map(&items, |i, &x| x.wrapping_mul(i as i64 + 1));
                prop_assert_eq!(par, seq);
            }

            /// Errors: a failing worker surfaces as Err (never a panic), and
            /// the lowest failing index wins regardless of pool size.
            #[test]
            fn errors_propagate_as_err(
                items in prop::collection::vec(0u32..100, 1..200),
                threads in 1usize..16,
                fail_mod in 1u32..10,
            ) {
                let first_fail = items.iter().position(|&x| x % fail_mod == 0);
                let got: Result<Vec<u32>, usize> = Pool::sized(threads)
                    .par_map_indexed(&items, |i, &x| {
                        if x % fail_mod == 0 { Err(i) } else { Ok(x) }
                    });
                match first_fail {
                    Some(i) => prop_assert_eq!(got, Err(i)),
                    None => prop_assert_eq!(got, Ok(items.clone())),
                }
            }
        }
    }
}
