//! Batched concurrent execution over one shared compiled plan.
//!
//! A [`CompiledProgram`] is an immutable, `Arc`-backed artifact, so any
//! number of [`Session`]s can execute it at once without re-lowering — this
//! module adds the serving layer that exploits that: a [`BatchDriver`] owns
//! one program, maintains a pool of reusable sessions (each keeping its
//! tensor slab warm across requests), and fans a batch of input bindings
//! across the calling thread and the persistent rayon worker pool.
//!
//! The concurrency model is **inter-request parallelism**: every batch item
//! runs start-to-finish on one thread.  The calling thread runs the first
//! span of items itself and pool workers run the rest, so a one-item batch
//! runs on the caller with no hand-off to another thread.  Parallel
//! constructs *inside* the program detect that they already run inside a
//! parallel call and execute inline, so a batch of N requests costs no
//! nested fan-out and no cross-thread synchronisation per call — for many
//! concurrent small-to-medium requests this beats intra-op parallelism,
//! which is the same trade inference servers make between inter- and
//! intra-op thread pools.
//!
//! Guarantees:
//!
//! * **Determinism** — each item executes exactly like a standalone
//!   [`Session::run`] with the same bindings: results are bit-identical to a
//!   serial per-item loop, independent of batch size or worker count.
//! * **Plan sharing** — all pooled sessions reference the *same* lowered
//!   plan; a driver performs zero lowerings regardless of how many batches
//!   it serves.
//! * **Panic isolation** — a panicking item is reported as
//!   [`BatchError::Panicked`] for that item only; its session is discarded
//!   (never returned to the pool) and every other item completes normally.
//!
//! ```
//! use std::collections::HashMap;
//! use dace_frontend::{ArrayExpr, ProgramBuilder};
//! use dace_runtime::{compile, BatchDriver};
//! use dace_tensor::Tensor;
//!
//! // Y = 3 * X, as a tiny SDFG.
//! let mut b = ProgramBuilder::new("triple");
//! let n = b.symbol("N");
//! b.add_input("X", vec![n.clone()]).unwrap();
//! b.add_input("Y", vec![n.clone()]).unwrap();
//! b.assign("Y", ArrayExpr::a("X").mul(ArrayExpr::s(3.0)));
//! let sdfg = b.build().unwrap();
//!
//! let program = compile(&sdfg, &HashMap::from([("N".to_string(), 4)])).unwrap();
//! let driver = BatchDriver::new(program);
//!
//! // Three requests with different inputs, served concurrently.
//! let items: Vec<HashMap<String, Tensor>> = (0..3)
//!     .map(|i| {
//!         HashMap::from([(
//!             "X".to_string(),
//!             Tensor::from_vec(vec![i as f64; 4], &[4]).unwrap(),
//!         )])
//!     })
//!     .collect();
//! let out = driver.run_batch(&items, &["Y"]);
//! assert_eq!(out.report.succeeded, 3);
//! let y1 = &out.items[1].as_ref().unwrap().outputs["Y"];
//! assert_eq!(y1.data(), &[3.0, 3.0, 3.0, 3.0]);
//! ```

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rayon::prelude::*;

use dace_tensor::Tensor;

use crate::error::RuntimeError;
use crate::executor::ExecutionReport;
use crate::program::{CompiledProgram, Session};

/// Why one batch item failed (the other items are unaffected).
#[derive(Debug)]
pub enum BatchError<E> {
    /// The item's own execution logic returned an error.
    Item(E),
    /// The item panicked mid-execution.  Its session was discarded instead
    /// of being returned to the pool; the driver stays fully usable.
    Panicked(String),
}

impl<E: std::fmt::Display> std::fmt::Display for BatchError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::Item(e) => write!(f, "batch item failed: {e}"),
            BatchError::Panicked(msg) => write!(f, "batch item panicked: {msg}"),
        }
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for BatchError<E> {}

/// Successful result of one batch item run through [`BatchDriver::run_batch`].
#[derive(Clone, Debug)]
pub struct BatchItemResult {
    /// The requested (fetched) arrays, lent out of the session slab: each
    /// goes home to its session when dropped.
    pub outputs: HashMap<String, Tensor>,
    /// Execution report of this item's run.
    pub report: ExecutionReport,
}

/// Aggregate statistics of one [`BatchDriver::run_batch`] /
/// [`BatchDriver::run_batch_with`] call.
#[derive(Clone, Debug, Default)]
pub struct BatchReport {
    /// Number of items in the batch.
    pub items: usize,
    /// Items that completed without error or panic.
    pub succeeded: usize,
    /// Items that returned an error or panicked.
    pub failed: usize,
    /// Effective fan-out width of this batch (the width of the rayon pool
    /// the batch ran in, bounded by the batch length).
    pub workers: usize,
    /// Wall-clock time of the whole batch.
    pub elapsed: Duration,
    /// `items / elapsed` — the headline serving-throughput figure.
    ///
    /// `None` when the figure would be degenerate: an empty batch, or an
    /// elapsed time too small for the clock to resolve.  Consumers that
    /// previously saw `0.0`, `inf` or `NaN` in those cases now get an
    /// explicit absence instead of a number that poisons downstream
    /// aggregation (geomeans, baselines, regression ratios).
    pub items_per_sec: Option<f64>,
    /// Tasklet evaluations summed over the final run of every item's
    /// session.
    pub total_tasklet_invocations: u64,
    /// Map index points summed over the final run of every item's session.
    pub total_map_points: u64,
    /// Sessions created by the driver so far (lifetime counter).  A warm
    /// driver stops growing this: steady-state batches reuse pooled
    /// sessions, so the value plateaus at the peak concurrency seen.
    pub sessions_created: u64,
    /// Checkouts served from the idle pool so far (lifetime counter).
    pub sessions_reused: u64,
    /// Sessions parked in the idle pool after this batch.
    pub pooled_sessions: usize,
    /// Sessions discarded instead of pooled because the item running on
    /// them panicked (lifetime counter).  A panicking item may leave its
    /// slab half-written, so the session is quarantined — this counter is
    /// how the gateway above ([`crate::gateway`]) observes that the
    /// quarantine actually fired.
    pub sessions_discarded: u64,
}

/// `items / elapsed` as a throughput figure, or `None` when the ratio is
/// degenerate (no items, or an elapsed time the clock could not resolve).
///
/// A naive `items as f64 / elapsed.as_secs_f64()` produces `inf` for a
/// non-empty batch measured at zero elapsed and `NaN` for an empty one —
/// both of which silently corrupt any average, geomean or regression ratio
/// computed over them.  Reporting `None` forces callers to decide.
pub fn throughput(items: usize, elapsed: Duration) -> Option<f64> {
    let secs = elapsed.as_secs_f64();
    (items > 0 && secs > 0.0).then(|| items as f64 / secs)
}

/// Per-item results plus the aggregate [`BatchReport`].
#[derive(Debug)]
pub struct BatchOutput<T, E> {
    /// One result per batch item, in input order.
    pub items: Vec<Result<T, BatchError<E>>>,
    /// Aggregate statistics of the whole batch.
    pub report: BatchReport,
}

/// Batched concurrent execution driver: one shared [`CompiledProgram`], a
/// pool of warm [`Session`]s, and fan-out over the calling thread and the
/// persistent worker pool.
///
/// Construct with [`BatchDriver::new`], then call [`BatchDriver::run_batch`]
/// with per-item input bindings.  A batch fans out at the width of the rayon
/// pool it runs in: a caller narrows it by running the batch inside
/// `rayon::ThreadPool::install`.  The driver is `Sync`: one instance can
/// serve overlapping batches from multiple threads, all drawing on the same
/// session pool.
pub struct BatchDriver {
    program: CompiledProgram,
    /// Free hints applied to every session the driver checks out (the AD
    /// engine's recomputation-block releases).
    free_hints: HashMap<usize, Vec<String>>,
    /// Idle sessions, ready for checkout.  Their tensor slabs stay allocated
    /// between batches, so a warm request pays no allocation cost.
    idle: Mutex<Vec<Session>>,
    sessions_created: AtomicU64,
    sessions_reused: AtomicU64,
    sessions_discarded: AtomicU64,
}

impl std::fmt::Debug for BatchDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchDriver")
            .field("program", &self.program)
            .field("pooled_sessions", &self.pooled_sessions())
            .field(
                "sessions_created",
                &self.sessions_created.load(Ordering::Relaxed),
            )
            .finish()
    }
}

impl BatchDriver {
    /// Create a driver over one compiled program.
    pub fn new(program: CompiledProgram) -> Self {
        BatchDriver {
            program,
            free_hints: HashMap::new(),
            idle: Mutex::new(Vec::new()),
            sessions_created: AtomicU64::new(0),
            sessions_reused: AtomicU64::new(0),
            sessions_discarded: AtomicU64::new(0),
        }
    }

    /// Effective fan-out width of a batch of `n_items` run from the calling
    /// context: the rayon pool's width, bounded by the batch length.
    pub fn fanout_width(&self, n_items: usize) -> usize {
        rayon::current_num_threads().max(1).min(n_items.max(1))
    }

    /// Attach per-state free hints (see [`Session::set_free_hints`]) applied
    /// to every session this driver checks out, the ones already parked in
    /// the idle pool included.  Taking `&mut self` means no batch is running,
    /// so every session the driver owns is idle and re-stamped here.
    pub fn set_free_hints(&mut self, hints: &HashMap<usize, Vec<String>>) {
        self.free_hints = hints.clone();
        let idle = self.idle.get_mut().unwrap_or_else(|e| e.into_inner());
        for session in idle {
            session.set_free_hints(&self.free_hints);
        }
    }

    /// The shared program this driver serves.
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// Pre-create sessions until the idle pool holds `n`, so the first batch
    /// pays no session-construction cost on the serving path.  The shortfall
    /// is computed and filled under the pool lock, so concurrent `warm` and
    /// checkout calls never overshoot the target.
    pub fn warm(&self, n: usize) {
        let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        while idle.len() < n {
            idle.push(self.new_session());
        }
    }

    /// Number of sessions currently parked in the idle pool.
    pub fn pooled_sessions(&self) -> usize {
        self.idle.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Sessions created over the driver's lifetime.  Plateaus at the peak
    /// concurrency once the pool is warm.
    pub fn sessions_created(&self) -> u64 {
        self.sessions_created.load(Ordering::Relaxed)
    }

    /// Checkouts served from the idle pool over the driver's lifetime.
    pub fn sessions_reused(&self) -> u64 {
        self.sessions_reused.load(Ordering::Relaxed)
    }

    /// Sessions quarantined (dropped instead of pooled) because the item
    /// running on them panicked, over the driver's lifetime.
    pub fn sessions_discarded(&self) -> u64 {
        self.sessions_discarded.load(Ordering::Relaxed)
    }

    fn new_session(&self) -> Session {
        self.sessions_created.fetch_add(1, Ordering::Relaxed);
        let mut session = self.program.session();
        if !self.free_hints.is_empty() {
            session.set_free_hints(&self.free_hints);
        }
        session
    }

    fn checkout(&self) -> Session {
        let pooled = self.idle.lock().unwrap_or_else(|e| e.into_inner()).pop();
        match pooled {
            Some(mut session) => {
                self.sessions_reused.fetch_add(1, Ordering::Relaxed);
                // Zero the previous tenant's report so an item that fails
                // before running contributes nothing to the batch totals.
                session.reset_report();
                session
            }
            None => self.new_session(),
        }
    }

    fn checkin(&self, mut session: Session) {
        // Bindings are per-request; the slab itself stays allocated so the
        // next checkout runs warm.
        session.clear_bindings();
        self.idle
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(session);
    }

    /// Run a batch of input bindings, fetching the named arrays of each item
    /// after its run.
    ///
    /// Every item binds its map by copy into its session's resident
    /// buffers (see [`Session::copy_input`]), executes the shared plan, and
    /// lends the `fetch` arrays out of the slab.  Items fail independently:
    /// an unknown input or fetch name, a shape mismatch or a runtime error
    /// marks *that* item [`BatchError::Item`] and the rest of the batch
    /// completes.
    pub fn run_batch(
        &self,
        items: &[HashMap<String, Tensor>],
        fetch: &[&str],
    ) -> BatchOutput<BatchItemResult, RuntimeError> {
        self.run_batch_with(items.len(), |i, session| {
            run_item(session, &items[i], fetch)
        })
    }

    /// Generalised batched execution: run `item(i, &mut session)` for every
    /// `i in 0..n_items`, each on a pooled session, fanned across the calling
    /// thread and the worker pool.  This is the building block
    /// [`BatchDriver::run_batch`] and the AD engine's batched gradients are
    /// made of — the closure owns the
    /// binding/fetch policy, the driver owns scheduling, session reuse and
    /// panic isolation.
    ///
    /// The closure must leave its session in a state where a fresh
    /// [`Session::run`] is valid (every run resets per-run state, so any
    /// completed or failed run qualifies); a *panicking* closure forfeits
    /// its session instead.  The aggregate tasklet/map-point totals count
    /// each session's final run, so closures that run more than once
    /// contribute only their last execution.
    pub fn run_batch_with<T, E, F>(&self, n_items: usize, item: F) -> BatchOutput<T, E>
    where
        T: Send,
        E: Send,
        F: Fn(usize, &mut Session) -> Result<T, E> + Sync,
    {
        let start = Instant::now();
        let total_tasklets = AtomicU64::new(0);
        let total_points = AtomicU64::new(0);
        let workers = self.fanout_width(n_items);
        let items: Vec<Result<T, BatchError<E>>> = (0..n_items)
            .into_par_iter()
            .map(|i| {
                let mut session = self.checkout();
                let outcome = catch_unwind(AssertUnwindSafe(|| item(i, &mut session)));
                match outcome {
                    Ok(result) => {
                        let report = session.last_report();
                        total_tasklets.fetch_add(report.tasklet_invocations, Ordering::Relaxed);
                        total_points.fetch_add(report.map_points, Ordering::Relaxed);
                        self.checkin(session);
                        result.map_err(BatchError::Item)
                    }
                    // The session may be mid-run (partially written
                    // slab, dangling symbol scopes): drop it rather
                    // than letting the damage leak into later items.
                    Err(payload) => {
                        self.sessions_discarded.fetch_add(1, Ordering::Relaxed);
                        Err(BatchError::Panicked(panic_message(payload)))
                    }
                }
            })
            .collect();
        let elapsed = start.elapsed();
        let succeeded = items.iter().filter(|r| r.is_ok()).count();
        let report = BatchReport {
            items: n_items,
            succeeded,
            failed: n_items - succeeded,
            workers,
            elapsed,
            items_per_sec: throughput(n_items, elapsed),
            total_tasklet_invocations: total_tasklets.into_inner(),
            total_map_points: total_points.into_inner(),
            sessions_created: self.sessions_created(),
            sessions_reused: self.sessions_reused(),
            pooled_sessions: self.pooled_sessions(),
            sessions_discarded: self.sessions_discarded(),
        };
        BatchOutput { items, report }
    }
}

/// The body of every served item, static batch or gateway dispatch alike:
/// copy the request's inputs into a checked-out session's resident buffers,
/// run the shared plan, lend the `fetch` arrays out of the slab.  The
/// request keeps its inputs, and the next run on the session refills what
/// was taken, with the storage of what the caller has dropped since.
pub(crate) fn run_item<S: AsRef<str>>(
    session: &mut Session,
    inputs: &HashMap<String, Tensor>,
    fetch: &[S],
) -> Result<BatchItemResult, RuntimeError> {
    session.clear_bindings();
    for (name, tensor) in inputs {
        session.copy_input(name, tensor)?;
    }
    let report = session.run()?;
    let mut outputs = HashMap::with_capacity(fetch.len());
    for name in fetch {
        let name = name.as_ref();
        // A name fetched twice is already in `outputs`.
        if outputs.contains_key(name) {
            continue;
        }
        let tensor = session
            .take_array(name)
            .ok_or_else(|| RuntimeError::UnknownArray(name.to_string()))?;
        outputs.insert(name.to_string(), tensor);
    }
    Ok(BatchItemResult { outputs, report })
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole serving stack must be shareable across threads: the driver
    /// (with its session pool) and the sessions it moves between workers.
    #[test]
    fn driver_and_session_are_send_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<Session>();
        assert_send::<BatchDriver>();
        assert_sync::<BatchDriver>();
        assert_send::<CompiledProgram>();
        assert_sync::<CompiledProgram>();
    }

    /// Degenerate inputs yield `None`, never `0.0`, `inf` or `NaN`.
    #[test]
    fn throughput_rejects_degenerate_ratios() {
        assert_eq!(throughput(0, Duration::ZERO), None);
        assert_eq!(throughput(0, Duration::from_secs(1)), None);
        assert_eq!(throughput(8, Duration::ZERO), None, "inf must not escape");
        let t = throughput(8, Duration::from_millis(500)).unwrap();
        assert!((t - 16.0).abs() < 1e-9);
        assert!(t.is_finite() && t > 0.0);
        // Sub-nanosecond-scale but nonzero elapsed is still a real figure.
        assert!(throughput(1, Duration::from_nanos(1)).unwrap().is_finite());
    }

    /// A one-item batch runs its closure on the calling thread, and its
    /// result is bit-identical to a standalone `Session::run`.
    #[test]
    fn one_item_batch_runs_on_the_calling_thread() {
        let sdfg = crate::executor::tests::scale_sdfg(0.5);
        let program =
            crate::program::compile(&sdfg, &HashMap::from([("N".to_string(), 8)])).unwrap();

        let x = Tensor::from_vec((0..8).map(|i| i as f64 * 0.375 - 1.25).collect(), &[8]).unwrap();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        let mut session = program.session();
        session.set_input("X", x.clone()).unwrap();
        session.run().unwrap();
        let expected = bits(session.array("Y").unwrap());

        let caller = std::thread::current().id();
        let driver = BatchDriver::new(program);
        let out = driver.run_batch_with(1, |_, session| {
            session.copy_input("X", &x)?;
            session.run()?;
            let y = bits(session.array("Y").unwrap());
            Ok::<_, RuntimeError>((std::thread::current().id(), y))
        });
        let (thread, got) = out.items.into_iter().next().unwrap().unwrap();
        assert_eq!(
            thread, caller,
            "a one-item batch runs on the calling thread"
        );
        assert_eq!(got, expected);
    }
}
