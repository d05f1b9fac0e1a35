//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! the small subset of rayon's API it actually uses:
//!
//! * `(range).into_par_iter().map(f).collect::<C>()`
//! * `ThreadPoolBuilder` / `ThreadPool::install` (thread-count policy)
//! * [`current_num_threads`]
//!
//! Work is executed by a **persistent worker pool**: one set of threads is
//! spawned lazily on first use (at most once per process) and parked on a
//! shared queue between calls, so hot kernels pay no per-call thread-spawn
//! cost.  Each parallel call splits its index space into contiguous spans,
//! enqueues one job per span, and blocks on a completion latch — the
//! structured-concurrency wait is what makes the lifetime erasure of borrowed
//! closures sound (jobs never outlive the call that created them).
//!
//! Nested parallel calls issued *from* a worker thread run inline
//! (sequentially) instead of re-entering the queue, which keeps the pool
//! deadlock-free without work stealing.

// Unsafe is genuinely needed here (lifetime erasure of borrowed job
// closures); the lint keeps every unsafe operation inside an explicit
// block with its own safety argument.
#![deny(unsafe_op_in_unsafe_fn)]

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

pub mod prelude {
    pub use crate::IntoParallelIterator;
}

std::thread_local! {
    /// Per-thread override installed by [`ThreadPool::install`]; 0 = none.
    static THREAD_OVERRIDE: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// True on pool worker threads: nested parallel calls run inline.
    static IS_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

fn num_threads() -> usize {
    let forced = THREAD_OVERRIDE.with(std::cell::Cell::get);
    if forced > 0 {
        return forced;
    }
    hardware_threads()
}

/// Number of threads parallel operations fan out to from the calling context
/// (rayon's `current_num_threads`): the pool size, or the limit installed by
/// the innermost [`ThreadPool::install`].
pub fn current_num_threads() -> usize {
    num_threads()
}

// ---------------------------------------------------------------------------
// The persistent worker pool.
// ---------------------------------------------------------------------------

/// A queued unit of work.  Lifetimes are erased at enqueue time; soundness is
/// provided by the caller blocking on its [`Latch`] before returning.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    work_cv: Condvar,
}

struct Pool {
    shared: Arc<PoolShared>,
}

/// Completion latch for one parallel call.
struct Latch {
    remaining: Mutex<usize>,
    done_cv: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: Mutex::new(count),
            done_cv: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn count_down(&self) {
        let mut left = self.remaining.lock().unwrap();
        *left -= 1;
        if *left == 0 {
            self.done_cv.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.remaining.lock().unwrap();
        while *left > 0 {
            left = self.done_cv.wait(left).unwrap();
        }
    }
}

fn worker_loop(shared: Arc<PoolShared>) {
    IS_WORKER.with(|c| c.set(true));
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = shared.work_cv.wait(queue).unwrap();
            }
        };
        job();
    }
}

/// The process-wide pool, created at most once, lazily on first use.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
        });
        for i in 0..hardware_threads() {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("rayon-shim-worker-{i}"))
                .spawn(move || worker_loop(shared))
                .expect("failed to spawn rayon-shim worker");
        }
        Pool { shared }
    })
}

/// Run `tasks` to completion across the pool (or inline when called from a
/// worker thread).  Blocks until every task has finished; panics in workers
/// are captured and re-raised on the calling thread.
fn run_scope<'scope>(tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
    if tasks.is_empty() {
        return;
    }
    if IS_WORKER.with(std::cell::Cell::get) {
        // Nested parallelism: execute inline to keep the pool deadlock-free.
        for task in tasks {
            task();
        }
        return;
    }
    let pool = pool();
    let latch = Arc::new(Latch::new(tasks.len()));
    {
        let mut queue = pool.shared.queue.lock().unwrap();
        for task in tasks {
            // SAFETY: `run_scope` blocks on `latch.wait()` below until every
            // enqueued job has run to completion, so the borrows captured by
            // `task` strictly outlive its execution (structured concurrency,
            // the same argument `std::thread::scope` relies on).
            let task: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(task) };
            let latch = Arc::clone(&latch);
            queue.push_back(Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(task));
                if result.is_err() {
                    latch.panicked.store(true, Ordering::SeqCst);
                }
                latch.count_down();
            }));
        }
    }
    pool.shared.work_cv.notify_all();
    latch.wait();
    if latch.panicked.load(Ordering::SeqCst) {
        panic!("rayon-shim worker panicked");
    }
}

/// Builder for a [`ThreadPool`] (subset of rayon's API).
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Start building a pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cap the pool at `n` worker threads (0 = number of cores).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Build the pool.  Infallible in the shim; the `Result` mirrors rayon.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// Error type for [`ThreadPoolBuilder::build`] (never produced by the shim).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A scoped thread-count policy rather than a separate worker pool: while
/// [`ThreadPool::install`] runs, parallel operations started from the calling
/// thread fan out to at most `num_threads` spans of the shared persistent
/// pool.
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Run `f` with this pool's thread-count limit in effect.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let prev = THREAD_OVERRIDE.with(|c| c.replace(self.num_threads));
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                THREAD_OVERRIDE.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(prev);
        f()
    }
}

/// Splits `0..len` into at most `num_threads()` contiguous, non-empty spans.
fn spans(len: usize) -> Vec<(usize, usize)> {
    let threads = num_threads().min(len.max(1));
    let chunk = len.div_ceil(threads.max(1)).max(1);
    (0..len)
        .step_by(chunk)
        .map(|start| (start, (start + chunk).min(len)))
        .collect()
}

/// Parallel iterator over an exact-size index range, produced by
/// [`IntoParallelIterator::into_par_iter`].
pub struct ParRange {
    start: usize,
    end: usize,
}

/// Conversion into a [`ParRange`]; implemented for `Range<usize>`.
pub trait IntoParallelIterator {
    /// The parallel iterator type.
    type Iter;
    /// Convert into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange {
            start: self.start,
            end: self.end,
        }
    }
}

impl ParRange {
    /// Map every index through `f` in parallel.
    pub fn map<F, R>(self, f: F) -> ParMap<F>
    where
        F: Fn(usize) -> R + Sync,
        R: Send,
    {
        ParMap {
            start: self.start,
            end: self.end,
            f,
        }
    }
}

/// The result of [`ParRange::map`]; consumed with [`ParMap::collect`].
pub struct ParMap<F> {
    start: usize,
    end: usize,
    f: F,
}

impl<F> ParMap<F> {
    /// Evaluate the map on the worker pool, preserving index order, then
    /// build `C` from the ordered items (so `Result<Vec<_>, E>` collection
    /// works just like with std iterators).
    pub fn collect<R, C>(self) -> C
    where
        F: Fn(usize) -> R + Sync,
        R: Send,
        C: FromIterator<R>,
    {
        let len = self.end - self.start;
        if len == 0 {
            return std::iter::empty().collect();
        }
        let f = &self.f;
        let start = self.start;
        let spans = spans(len);
        let mut blocks: Vec<Option<Vec<R>>> = Vec::new();
        blocks.resize_with(spans.len(), || None);
        let blocks_mx = Mutex::new(&mut blocks);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = spans
            .iter()
            .enumerate()
            .map(|(slot, &(lo, hi))| {
                let blocks_mx = &blocks_mx;
                let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let block: Vec<R> = (start + lo..start + hi).map(f).collect();
                    blocks_mx.lock().unwrap()[slot] = Some(block);
                });
                task
            })
            .collect();
        run_scope(tasks);
        blocks
            .into_iter()
            .flat_map(|b| b.expect("rayon-shim span missing its result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_map_collect_preserves_order() {
        let out: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_collects_results() {
        let ok: Result<Vec<usize>, String> =
            (0..100).into_par_iter().map(Ok::<usize, String>).collect();
        assert_eq!(ok.unwrap().len(), 100);
        let err: Result<Vec<usize>, String> = (0..100)
            .into_par_iter()
            .map(|i| {
                if i == 57 {
                    Err("boom".to_string())
                } else {
                    Ok(i)
                }
            })
            .collect();
        assert_eq!(err.unwrap_err(), "boom");
    }

    #[test]
    fn single_thread_pool_serializes() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let caller = std::thread::current().id();
        pool.install(|| {
            let ids: Vec<std::thread::ThreadId> = (0..64)
                .into_par_iter()
                .map(|_| std::thread::current().id())
                .collect();
            // One worker span means one job; all items share its thread.
            assert!(ids.windows(2).all(|w| w[0] == w[1]));
            assert_ne!(caller, ids[0], "work still runs on a pool worker");
        });
    }

    #[test]
    fn empty_inputs_are_fine() {
        let out: Vec<usize> = (5..5).into_par_iter().map(|i| i).collect();
        assert!(out.is_empty());
    }

    /// The pool is persistent: repeated parallel calls reuse the same worker
    /// threads instead of spawning fresh ones per call.
    #[test]
    fn workers_are_reused_across_calls() {
        use std::collections::HashSet;
        let mut seen: HashSet<std::thread::ThreadId> = HashSet::new();
        for _ in 0..8 {
            let ids: Vec<std::thread::ThreadId> = (0..256)
                .into_par_iter()
                .map(|_| std::thread::current().id())
                .collect();
            seen.extend(ids);
        }
        // With per-call spawning, 8 calls x N spans would accumulate up to
        // 8*N distinct thread ids; the persistent pool is bounded by its
        // process-wide size regardless of call count.  Other tests may run
        // concurrently on the same pool, so only the bound is asserted.
        assert!(
            seen.len() <= super::hardware_threads(),
            "expected at most {} pooled workers, saw {} distinct threads",
            super::hardware_threads(),
            seen.len()
        );
    }

    /// Panics inside workers are captured and re-raised on the caller, and
    /// the pool stays usable afterwards.
    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let result = std::panic::catch_unwind(|| {
            let _: Vec<usize> = (0..64)
                .into_par_iter()
                .map(|i| if i == 13 { panic!("boom") } else { i })
                .collect();
        });
        assert!(result.is_err());
        let out: Vec<usize> = (0..64).into_par_iter().map(|i| i).collect();
        assert_eq!(out.len(), 64);
    }

    /// Nested parallel calls issued from worker threads run inline without
    /// deadlocking the pool.
    #[test]
    fn nested_parallelism_runs_inline() {
        let out: Vec<usize> = (0..16)
            .into_par_iter()
            .map(|i| {
                let inner: Vec<usize> = (0..8).into_par_iter().map(move |j| i * 8 + j).collect();
                inner.iter().sum()
            })
            .collect();
        let expected: Vec<usize> = (0..16).map(|i| (0..8).map(|j| i * 8 + j).sum()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn current_num_threads_respects_install() {
        assert!(crate::current_num_threads() >= 1);
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        pool.install(|| assert_eq!(crate::current_num_threads(), 3));
    }
}
