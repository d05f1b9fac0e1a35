//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! the small subset of rayon's API it actually uses:
//!
//! * `(range).into_par_iter().map(f).collect::<C>()`
//! * `ThreadPoolBuilder` / `ThreadPool::install` (thread-count policy)
//! * [`current_num_threads`]
//!
//! Work is executed by a **persistent worker pool** and the calling thread.
//! The pool's threads, one fewer than the host has CPUs, are spawned lazily
//! on the first call that queues work (at most once per process) and parked
//! on a shared queue between calls, so hot kernels pay no per-call
//! thread-spawn cost.  Each parallel call splits its index space into
//! contiguous spans and runs the first span itself.  It enqueues one job per
//! other span, wakes one worker per job, and blocks on a completion latch once
//! its own span is done — the structured-concurrency wait is what makes the
//! lifetime erasure of borrowed closures sound (jobs never outlive the call
//! that created them).  A one-span call queues nothing and wakes no thread.
//!
//! Nested parallel calls issued from a worker thread, or from the caller's
//! own span, run inline (sequentially) instead of re-entering the queue,
//! which keeps the pool deadlock-free without work stealing.

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
    /// True on pool worker threads, and on a caller while it runs its own
    /// span: nested parallel calls run inline.
    static IS_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The host's CPU count, read once per process: `available_parallelism`
/// reads cgroup files on every call, which a per-batch read would pay.
fn hardware_threads() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
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

/// The process-wide pool, created at most once, lazily on the first call
/// that queues work.  It holds one worker fewer than the host has CPUs: the
/// calling thread of every parallel call is the last executor.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
        });
        for i in 0..hardware_threads() - 1 {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("rayon-shim-worker-{i}"))
                .spawn(move || worker_loop(shared))
                .expect("failed to spawn rayon-shim worker");
        }
        Pool { shared }
    })
}

/// Run `tasks` to completion: the first on the calling thread, the rest on
/// the pool (or all inline when called from a worker thread).  Blocks until
/// every task has finished; a panic in any task is re-raised on the calling
/// thread once the queued tasks are done.
fn run_scope<'scope>(tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
    if IS_WORKER.with(std::cell::Cell::get) {
        // Nested parallelism: execute inline to keep the pool deadlock-free.
        for task in tasks {
            task();
        }
        return;
    }
    let mut tasks = tasks.into_iter();
    let Some(first) = tasks.next() else {
        return;
    };
    let queued = tasks.len();
    let latch = (queued > 0).then(|| {
        let pool = pool();
        let latch = Arc::new(Latch::new(queued));
        {
            let mut queue = pool.shared.queue.lock().unwrap();
            for task in tasks {
                // SAFETY: `run_scope` blocks on `latch.wait()` below until
                // every enqueued job has run to completion, also when the
                // caller's own span panics (that panic is caught and
                // re-raised only after the wait), so the borrows captured by
                // `task` strictly outlive its execution (structured
                // concurrency, the same argument `std::thread::scope` relies
                // on).
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
        for _ in 0..queued {
            pool.shared.work_cv.notify_one();
        }
        latch
    });
    // The caller is an executor too: its span runs here, as a worker's would,
    // so a parallel call inside it runs inline.
    IS_WORKER.with(|c| c.set(true));
    let mine = catch_unwind(AssertUnwindSafe(first));
    IS_WORKER.with(|c| c.set(false));
    if let Some(latch) = &latch {
        latch.wait();
    }
    if let Err(payload) = mine {
        std::panic::resume_unwind(payload);
    }
    if latch.is_some_and(|latch| latch.panicked.load(Ordering::SeqCst)) {
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
/// thread fan out to at most `num_threads` spans, run by the caller and the
/// shared persistent pool.
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

/// Splits `0..len` into at most `num_threads()` contiguous, non-empty spans,
/// and never more than the host has executors (the pool's workers and the
/// caller), so every queued span has a worker to run it: on a one-CPU host
/// the pool has no worker at all.
fn spans(len: usize) -> Vec<(usize, usize)> {
    let threads = num_threads().min(hardware_threads()).min(len.max(1));
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
            // One span means no job: the caller runs every item itself.
            assert!(ids.windows(2).all(|w| w[0] == w[1]));
            assert_eq!(caller, ids[0], "a one-span call runs on the caller");
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
        // 8*N distinct thread ids; the persistent pool (one worker fewer
        // than the host has CPUs) and the caller are bounded by the CPU
        // count regardless of call count.  Other tests may run concurrently
        // on the same pool, so only the bound is asserted.
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

    /// A multi-span call runs span 0 on the caller and every other span on
    /// a pool worker.
    #[test]
    fn caller_runs_the_first_span_and_workers_the_rest() {
        let width = super::hardware_threads();
        if width < 2 {
            return; // A one-CPU host has no workers: every span is the caller's.
        }
        let caller = std::thread::current().id();
        let ids: Vec<std::thread::ThreadId> = (0..width)
            .into_par_iter()
            .map(|_| std::thread::current().id())
            .collect();
        assert_eq!(ids[0], caller, "span 0 runs on the caller");
        assert!(
            ids[1..].iter().all(|id| *id != caller),
            "the other spans run on pool workers"
        );
    }

    /// A panic in the caller's own span is re-raised only after the queued
    /// spans have finished, and the pool stays usable afterwards.
    #[test]
    fn caller_panic_waits_for_queued_spans() {
        use std::sync::atomic::{AtomicBool, Ordering};
        if super::hardware_threads() < 2 {
            return; // A one-CPU host queues no span behind the caller's.
        }
        let finished = AtomicBool::new(false);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Vec<()> = (0..2)
                .into_par_iter()
                .map(|i| {
                    if i == 0 {
                        panic!("caller's span");
                    }
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    finished.store(true, Ordering::SeqCst);
                })
                .collect();
        }));
        assert!(result.is_err(), "the caller's panic is re-raised");
        assert!(
            finished.load(Ordering::SeqCst),
            "the queued span finished before the panic was re-raised"
        );
        let out: Vec<usize> = (0..64).into_par_iter().map(|i| i).collect();
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    /// A parallel call inside the caller's own span runs inline on the
    /// caller, as it would on a worker.
    #[test]
    fn nested_call_in_the_callers_span_runs_inline() {
        let caller = std::thread::current().id();
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let inner: Vec<std::thread::ThreadId> = pool.install(|| {
            let outer: Vec<Vec<std::thread::ThreadId>> = (0..1)
                .into_par_iter()
                .map(|_| {
                    crate::ThreadPoolBuilder::new()
                        .num_threads(8)
                        .build()
                        .unwrap()
                        .install(|| {
                            (0..64)
                                .into_par_iter()
                                .map(|_| std::thread::current().id())
                                .collect()
                        })
                })
                .collect();
            outer.into_iter().flatten().collect()
        });
        assert!(inner.iter().all(|id| *id == caller));
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
