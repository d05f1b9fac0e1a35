//! The dynamic-admission front door: admission, backpressure and panic
//! isolation over one or many compiled programs.
//!
//! [`crate::BatchDriver`] serves batches the caller has already assembled.
//! A real server gets requests one by one, from many clients, for many
//! programs, each with its own latency budget; [`Gateway`] is the one
//! serving core for all of that (`GradientEngine::serve()` is a gateway
//! with a single tenant and an unbounded queue):
//!
//! * **Dynamic admission** — requests are submitted individually
//!   ([`Gateway::submit`], [`Gateway::submit_with`]) and return a
//!   [`GatewayHandle`] immediately.  Dispatch is work-conserving: an idle
//!   dispatcher sends a queued request at once, and whatever queued while
//!   a batch executed (up to [`GatewayOptions::max_batch`] per tenant)
//!   forms the next one, so the queue paces itself between latency and
//!   batching.  A deadline bounds *admission*, not execution: a request
//!   still queued when its budget runs out resolves
//!   [`ServeError::DeadlineExceeded`] (at admission, or when the
//!   dispatcher returns from the batch it was queued behind) and never
//!   occupies a worker; one already dispatched runs to completion.  Served
//!   results are bit-identical to a standalone
//!   [`Session::run`](crate::Session::run) however they were coalesced.
//! * **Backpressure** — each tenant owns a *bounded* admission queue; a
//!   submission that would overflow it is rejected immediately with
//!   [`ServeError::Overloaded`] carrying a `retry_after_hint`, instead of
//!   growing the queue without bound.  Across tenants, batches are formed
//!   by **weighted deficit round-robin** (WDRR): every round a tenant earns
//!   `max_batch × weight` credits, spends one per dispatched request, and
//!   banks the rest (capped at two rounds' worth) — so a hot tenant cannot
//!   starve the others, and a weight-2 tenant gets twice the dispatch share
//!   of a weight-1 tenant under contention.
//! * **Panic isolation** — a request that panics fails alone: the
//!   [`crate::BatchDriver`] discards its session, its handle resolves
//!   [`ServeError::Panicked`], and the tenant's other requests keep being
//!   served.  The gateway never re-dispatches a request: a gradient is a
//!   pure function of its inputs and its compiled plan, so a request that
//!   panicked once panics again.  Execution errors (bad shapes, unknown
//!   arrays) resolve [`ServeError::Execution`] the same way.
//! * **Graceful reload** — [`Gateway::reload`] swaps a tenant's driver
//!   for one over a recompiled program: requests already dispatched drain
//!   against the old plan (the call blocks until they have), requests
//!   still queued and all new admissions run on the new one.  No handle is
//!   lost or torn between plans.
//!
//! # The exactly-once handle contract
//!
//! Every submitted [`GatewayHandle`] resolves **exactly once** with a typed
//! outcome: a [`ServeResponse`], or one of `DeadlineExceeded` / `Cancelled`
//! / `Overloaded` / `Execution` / `Panicked` / `ShuttingDown`.  This holds
//! under panics, concurrent reloads, sustained overload and shutdown — the
//! per-tenant counters conserve on *every* [`Gateway::stats`] snapshot
//! (see [`TenantStats::conserves`]), not just at quiescence.
//!
//! ```
//! use std::collections::HashMap;
//! use dace_frontend::{ArrayExpr, ProgramBuilder};
//! use dace_runtime::{compile, BatchDriver, Gateway, GatewayOptions, TenantConfig};
//! use dace_tensor::Tensor;
//!
//! let mut b = ProgramBuilder::new("double");
//! let n = b.symbol("N");
//! b.add_input("X", vec![n.clone()]).unwrap();
//! b.add_input("Y", vec![n.clone()]).unwrap();
//! b.assign("Y", ArrayExpr::a("X").mul(ArrayExpr::s(2.0)));
//! let sdfg = b.build().unwrap();
//! let program = compile(&sdfg, &HashMap::from([("N".to_string(), 3)])).unwrap();
//!
//! let gateway = Gateway::new(GatewayOptions::default());
//! gateway
//!     .register("double", BatchDriver::new(program), TenantConfig::default())
//!     .unwrap();
//! let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
//! let handle = gateway
//!     .submit("double", HashMap::from([("X".to_string(), x)]), &["Y"])
//!     .unwrap();
//! let response = handle.wait().unwrap();
//! assert_eq!(response.outputs["Y"].data(), &[2.0, 4.0, 6.0]);
//! assert!(gateway.stats().tenants["double"].conserves());
//! ```

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dace_tensor::Tensor;

use crate::batch::{run_item, BatchDriver, BatchError, BatchItemResult};
use crate::error::RuntimeError;
use crate::serve::{LatencyWindow, ServeError, ServeResponse};

/// Floor for every `retry_after_hint` handed to clients, so a rejection
/// never tells a client to retry immediately (which would amplify the very
/// overload being shed).
const MIN_RETRY_HINT: Duration = Duration::from_millis(1);

/// Gateway-wide tuning knobs.
///
/// `max_batch` shapes each formed batch: how many of the requests that
/// queued behind the previous dispatch ride the next one (a batch fans out
/// at the full width of the worker pool).  `queue_capacity` bounds each
/// tenant's admission queue.  See `docs/serving.md` for a tuning table.
#[derive(Clone, Debug)]
pub struct GatewayOptions {
    /// Maximum requests one dispatch may coalesce (clamped to >= 1).  Also
    /// the WDRR quantum: credits a tenant earns per round-robin visit,
    /// multiplied by its weight.
    pub max_batch: usize,
    /// Default per-tenant admission-queue bound (clamped to >= 1);
    /// overridable per tenant via [`TenantConfig::queue_capacity`].  A
    /// submission finding the queue full is rejected with
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
}

impl Default for GatewayOptions {
    fn default() -> Self {
        GatewayOptions {
            max_batch: 8,
            queue_capacity: 64,
        }
    }
}

/// Per-tenant registration knobs for [`Gateway::register`].
#[derive(Clone, Debug)]
pub struct TenantConfig {
    /// WDRR weight (clamped to >= 1): under contention a weight-`w` tenant
    /// receives `w` times the dispatch share of a weight-1 tenant.
    pub weight: u32,
    /// Admission-queue bound for this tenant; `None` inherits
    /// [`GatewayOptions::queue_capacity`].
    pub queue_capacity: Option<usize>,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            weight: 1,
            queue_capacity: None,
        }
    }
}

/// Per-request submission knobs for [`Gateway::submit_with`].
#[derive(Clone, Debug, Default)]
pub struct SubmitOptions {
    /// Admission deadline, measured from submission (see
    /// `docs/serving.md`: a deadline bounds admission, not execution).  A
    /// deadline too far out for the clock to represent is no deadline.
    pub deadline: Option<Duration>,
}

/// Why a [`Gateway`] call failed outright (as opposed to a *request*
/// failing, which resolves through its handle with a [`ServeError`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GatewayError {
    /// No tenant registered under this name.
    UnknownTenant(String),
    /// [`Gateway::register`] with a name that is already taken.
    DuplicateTenant(String),
    /// The gateway is shutting down; registrations and reloads are refused.
    ShuttingDown,
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::UnknownTenant(name) => write!(f, "unknown tenant: {name:?}"),
            GatewayError::DuplicateTenant(name) => {
                write!(f, "tenant already registered: {name:?}")
            }
            GatewayError::ShuttingDown => write!(f, "gateway is shutting down"),
        }
    }
}

impl std::error::Error for GatewayError {}

/// Point-in-time snapshot of one tenant, from [`Gateway::stats`].
///
/// Lifecycle counters partition every admitted request: see
/// [`TenantStats::conserves`].  `panics` sits outside the conservation sum:
/// every request it counts is also one `failed`.
#[derive(Clone, Debug)]
pub struct TenantStats {
    /// Requests waiting in this tenant's admission queue.
    pub queue_depth: usize,
    /// Requests claimed by the dispatcher and not yet completed.
    pub in_flight: u64,
    /// Requests ever submitted to this tenant.
    pub admitted: u64,
    /// Requests that executed and returned a result.
    pub completed: u64,
    /// Requests resolved with an execution error or a panic.
    pub failed: u64,
    /// Requests cancelled while queued.
    pub cancelled: u64,
    /// Requests whose deadline passed before dispatch.
    pub expired: u64,
    /// Requests shed at admission because the queue was full.
    pub overloaded: u64,
    /// Always 0: the gateway sheds no request for a tenant's health.  Kept,
    /// with `retried` and `breaker_trips`, until the benchmark PR (ROADMAP
    /// item 3) retires the `gateway.*` rows that read them.
    pub degraded: u64,
    /// Requests refused because the gateway was shutting down.
    pub rejected: u64,
    /// Always 0: the gateway never re-dispatches a request.  Kept until the
    /// benchmark PR (ROADMAP item 3) retires its `gateway.retried` row.
    pub retried: u64,
    /// Requests whose dispatch panicked (each also counted in `failed`).
    pub panics: u64,
    /// Batches dispatched for this tenant.
    pub batches: u64,
    /// Largest batch one dispatch coalesced for this tenant.
    pub largest_batch: usize,
    /// Always 0: the gateway has no circuit breaker.  Kept until the
    /// benchmark PR (ROADMAP item 3) retires its `gateway.breaker_trips`
    /// row.
    pub breaker_trips: u64,
    /// Program epoch: starts at 1, incremented by every
    /// [`Gateway::reload`].
    pub epoch: u64,
    /// The tenant's WDRR weight.
    pub weight: u32,
    /// Median submit-to-completion latency over a sliding window.
    pub p50_latency: Duration,
    /// 95th-percentile submit-to-completion latency over the same window.
    pub p95_latency: Duration,
    /// Sessions created by the tenant's *current* driver (counters reset
    /// on reload with the driver they belong to).
    pub sessions_created: u64,
    /// Checkouts served from the current driver's idle pool.
    pub sessions_reused: u64,
    /// Sessions parked in the current driver's idle pool.
    pub pooled_sessions: usize,
    /// Sessions quarantined by the current driver because their item
    /// panicked — the observable proof that panic quarantine fired.
    pub sessions_discarded: u64,
}

impl TenantStats {
    /// The conservation invariant: every admitted request is in exactly one
    /// lifecycle bucket at every instant.
    ///
    /// ```text
    /// admitted == queue_depth + in_flight + completed + failed
    ///           + cancelled + expired + overloaded + rejected
    /// ```
    ///
    /// Holds on **every** snapshot — all counters live under the gateway's
    /// one state lock and every transition moves a request between buckets
    /// in a single critical section.  Worth alerting on verbatim.
    pub fn conserves(&self) -> bool {
        self.admitted
            == self.queue_depth as u64
                + self.in_flight
                + self.completed
                + self.failed
                + self.cancelled
                + self.expired
                + self.overloaded
                + self.rejected
    }
}

/// Point-in-time snapshot of the whole gateway: total dispatches plus one
/// [`TenantStats`] per registered tenant (ordered by name for stable
/// display).
#[derive(Clone, Debug, Default)]
pub struct GatewayStats {
    /// Batches dispatched across all tenants.
    pub dispatches: u64,
    /// Per-tenant snapshots, keyed by tenant name.
    pub tenants: BTreeMap<String, TenantStats>,
}

impl GatewayStats {
    /// Whether [`TenantStats::conserves`] holds for every tenant.
    pub fn conserves(&self) -> bool {
        self.tenants.values().all(TenantStats::conserves)
    }
}

/// Lifecycle of one gateway request, guarded by `GwRequest::phase`.
enum GwPhase {
    /// In the admission queue; owns the payload.
    Queued {
        inputs: HashMap<String, Tensor>,
        fetch: Vec<String>,
    },
    /// Claimed by the dispatcher and running (or about to).
    Dispatched,
    /// Finished; the result waits for `wait`/`try_wait`.
    Done(Result<ServeResponse, ServeError>),
    /// The result was consumed by `wait`.
    Taken,
}

struct GwRequest {
    id: u64,
    tenant: String,
    submitted: Instant,
    deadline: Option<Instant>,
    phase: Mutex<GwPhase>,
    done_cv: Condvar,
}

impl GwRequest {
    fn lock_phase(&self) -> MutexGuard<'_, GwPhase> {
        self.phase.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn complete(&self, result: Result<ServeResponse, ServeError>) {
        *self.lock_phase() = GwPhase::Done(result);
        self.done_cv.notify_all();
    }
}

/// Handle to one request submitted through a [`Gateway`].
///
/// The result is retrieved exactly once with [`GatewayHandle::wait`];
/// [`GatewayHandle::try_wait`] and [`GatewayHandle::wait_timeout`] poll
/// without consuming it; [`GatewayHandle::cancel`] is best-effort.
/// Dropping a handle does not cancel the request — it simply discards the
/// result when it arrives.
pub struct GatewayHandle {
    req: Arc<GwRequest>,
    shared: Arc<GwShared>,
}

impl std::fmt::Debug for GatewayHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatewayHandle")
            .field("id", &self.req.id)
            .field("tenant", &self.req.tenant)
            .field("done", &self.is_done())
            .finish()
    }
}

impl GatewayHandle {
    /// Monotonic id of this request (unique per gateway).
    pub fn id(&self) -> u64 {
        self.req.id
    }

    /// The tenant this request was submitted to.
    pub fn tenant(&self) -> &str {
        &self.req.tenant
    }

    /// Whether a result (or rejection) is available.
    pub fn is_done(&self) -> bool {
        matches!(&*self.req.lock_phase(), GwPhase::Done(_) | GwPhase::Taken)
    }

    /// Block until the request completes and take its result.
    pub fn wait(self) -> Result<ServeResponse, ServeError> {
        let mut phase = self.req.lock_phase();
        loop {
            match &*phase {
                GwPhase::Done(_) => break,
                GwPhase::Taken => unreachable!("wait consumes the handle"),
                _ => {
                    phase = self
                        .req
                        .done_cv
                        .wait(phase)
                        .unwrap_or_else(|e| e.into_inner());
                }
            }
        }
        match std::mem::replace(&mut *phase, GwPhase::Taken) {
            GwPhase::Done(result) => result,
            _ => unreachable!("loop above exits only on Done"),
        }
    }

    /// Non-blocking poll: `Some(result)` once completed (cloned, so a later
    /// [`GatewayHandle::wait`] still succeeds), `None` while pending.
    pub fn try_wait(&self) -> Option<Result<ServeResponse, ServeError>> {
        match &*self.req.lock_phase() {
            GwPhase::Done(result) => Some(result.clone()),
            _ => None,
        }
    }

    /// Bounded blocking wait, so callers can bound their own wait instead
    /// of relying solely on server-side deadlines: `None` on timeout — the
    /// request keeps running and the handle stays fully usable —
    /// `Some(result)` once completed (cloned, like
    /// [`GatewayHandle::try_wait`]).  A timeout too long for the clock to
    /// represent waits until the request is done.  A timeout that races the
    /// dispatcher's completion loses nothing: the result is stored on the
    /// request, the next poll observes it, and [`GatewayHandle::wait`]
    /// delivers it exactly once however many bounded waits timed out
    /// before.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<ServeResponse, ServeError>> {
        let deadline = Instant::now().checked_add(timeout);
        let mut phase = self.req.lock_phase();
        loop {
            if let GwPhase::Done(result) = &*phase {
                return Some(result.clone());
            }
            let cv = &self.req.done_cv;
            phase = match deadline {
                None => cv.wait(phase).unwrap_or_else(|e| e.into_inner()),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    cv.wait_timeout(phase, deadline - now)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
            };
        }
    }

    /// Best-effort cancellation: succeeds (returns `true`) only while the
    /// request is queued.  Once dispatched it completes normally (`false`).
    pub fn cancel(&self) -> bool {
        // Lock order: gateway state, then request phase — matching every
        // other state-and-phase critical section in this module.
        let mut state = self.shared.lock_state();
        let Some(tenant) = state.tenant_mut(&self.req.tenant) else {
            return false;
        };
        let mut phase = self.req.lock_phase();
        if !matches!(&*phase, GwPhase::Queued { .. }) {
            return false;
        }
        *phase = GwPhase::Done(Err(ServeError::Cancelled));
        self.req.done_cv.notify_all();
        tenant.counters.queued -= 1;
        tenant.counters.cancelled += 1;
        // The queue entry stays in place: the dispatcher sweeps it out
        // before it forms its next batch.
        true
    }
}

/// Request-lifecycle counters of one tenant.  All under the gateway's one
/// state lock, so snapshots are coherent (see [`TenantStats::conserves`]).
#[derive(Default)]
struct TenantCounters {
    admitted: u64,
    queued: u64,
    in_flight: u64,
    completed: u64,
    failed: u64,
    cancelled: u64,
    expired: u64,
    overloaded: u64,
    rejected: u64,
    panics: u64,
    batches: u64,
    largest_batch: usize,
}

/// A tenant's executable: its session-pool driver stamped with the program
/// epoch it belongs to.  `Arc`-swapped by [`Gateway::reload`] so in-flight
/// batches keep the old driver alive while new dispatches use the new one.
struct TenantExec {
    driver: BatchDriver,
    epoch: u64,
}

struct TenantState {
    name: String,
    weight: u32,
    capacity: usize,
    /// WDRR credit balance: earned on each round-robin visit, spent one
    /// per dispatched request, zeroed when the queue empties.
    deficit: u64,
    queue: VecDeque<Arc<GwRequest>>,
    exec: Arc<TenantExec>,
    /// Program epoch, starts at 1; bumped by reload.
    epoch: u64,
    /// Epoch of the most recently dispatched batch — `reload` drains until
    /// `in_flight == 0` or this catches up with the new epoch.
    inflight_epoch: u64,
    counters: TenantCounters,
    latencies: LatencyWindow,
}

impl TenantState {
    fn new(name: &str, driver: BatchDriver, weight: u32, capacity: usize) -> Self {
        TenantState {
            name: name.to_string(),
            weight,
            capacity,
            deficit: 0,
            queue: VecDeque::new(),
            exec: Arc::new(TenantExec { driver, epoch: 1 }),
            epoch: 1,
            inflight_epoch: 1,
            counters: TenantCounters::default(),
            latencies: LatencyWindow::new(),
        }
    }

    /// This tenant's counters as a [`TenantStats`], latency percentiles
    /// left zero ([`Gateway::stats`] sorts the window outside the lock).
    fn stats(&self) -> TenantStats {
        let c = &self.counters;
        let driver = &self.exec.driver;
        TenantStats {
            queue_depth: c.queued as usize,
            in_flight: c.in_flight,
            admitted: c.admitted,
            completed: c.completed,
            failed: c.failed,
            cancelled: c.cancelled,
            expired: c.expired,
            overloaded: c.overloaded,
            degraded: 0,
            rejected: c.rejected,
            retried: 0,
            panics: c.panics,
            batches: c.batches,
            largest_batch: c.largest_batch,
            breaker_trips: 0,
            epoch: self.epoch,
            weight: self.weight,
            p50_latency: Duration::ZERO,
            p95_latency: Duration::ZERO,
            sessions_created: driver.sessions_created(),
            sessions_reused: driver.sessions_reused(),
            pooled_sessions: driver.pooled_sessions(),
            sessions_discarded: driver.sessions_discarded(),
        }
    }

    /// Resolve one dispatched request with its item's outcome: the request
    /// leaves `in_flight` for exactly one of `completed` / `failed`, and its
    /// handle resolves.  A panic (its session already discarded by the
    /// driver) is a failure like an execution error, also counted in
    /// `panics`.
    fn resolve(
        &mut self,
        req: &GwRequest,
        outcome: Result<BatchItemResult, BatchError<RuntimeError>>,
        batched_with: usize,
    ) {
        let c = &mut self.counters;
        c.in_flight -= 1;
        let result = match outcome {
            Ok(BatchItemResult { outputs, report }) => {
                c.completed += 1;
                let latency = req.submitted.elapsed();
                self.latencies.record(latency);
                Ok(ServeResponse {
                    outputs,
                    report,
                    latency,
                    batched_with,
                })
            }
            Err(BatchError::Item(e)) => {
                c.failed += 1;
                Err(ServeError::Execution(e))
            }
            Err(BatchError::Panicked(msg)) => {
                c.failed += 1;
                c.panics += 1;
                Err(ServeError::Panicked(msg))
            }
        };
        req.complete(result);
    }
}

struct GwState {
    shutdown: bool,
    /// Every tenant in registration order, which is the round-robin order.
    /// Tenants are never unregistered, so an index into this vector names
    /// the same tenant for the gateway's lifetime.
    tenants: Vec<TenantState>,
    /// Tenant name → its index in `tenants`.
    by_name: HashMap<String, usize>,
    /// Next RR position to scan from.
    cursor: usize,
    /// Tenant whose earned deficit the dispatcher is still spending —
    /// WDRR weight manifests as *consecutive* dispatches for the same
    /// tenant before the cursor moves on.
    active: Option<usize>,
    dispatches: u64,
}

impl GwState {
    fn tenant_mut(&mut self, name: &str) -> Option<&mut TenantState> {
        let &index = self.by_name.get(name)?;
        self.tenants.get_mut(index)
    }
}

struct GwShared {
    opts: GatewayOptions,
    state: Mutex<GwState>,
    /// Wakes the dispatcher: a submission or shutdown.
    work_cv: Condvar,
    /// Wakes reload/drain waiters when in-flight counts change.
    drain_cv: Condvar,
    next_id: AtomicU64,
}

impl GwShared {
    fn new(mut opts: GatewayOptions) -> Self {
        opts.max_batch = opts.max_batch.max(1);
        opts.queue_capacity = opts.queue_capacity.max(1);
        GwShared {
            opts,
            state: Mutex::new(GwState {
                shutdown: false,
                tenants: Vec::new(),
                by_name: HashMap::new(),
                cursor: 0,
                active: None,
                dispatches: 0,
            }),
            work_cv: Condvar::new(),
            drain_cv: Condvar::new(),
            next_id: AtomicU64::new(0),
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, GwState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Multi-tenant serving gateway: bounded admission, WDRR scheduling, panic
/// isolation, graceful reload (see the module docs).
///
/// Construct with [`Gateway::new`], [`Gateway::register`] a
/// [`BatchDriver`] per compiled program, then [`Gateway::submit`] from any
/// number of threads.
/// Dropping the gateway drains every queue (no handle is stranded) and
/// stops the dispatcher.
pub struct Gateway {
    shared: Arc<GwShared>,
    dispatcher: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.shared.lock_state();
        let names: Vec<&str> = state.tenants.iter().map(|t| t.name.as_str()).collect();
        f.debug_struct("Gateway")
            .field("tenants", &names)
            .field("dispatches", &state.dispatches)
            .field("shutdown", &state.shutdown)
            .finish()
    }
}

impl Gateway {
    /// Create a gateway (with its dispatcher thread) and no tenants yet.
    ///
    /// # Panics
    ///
    /// If the operating system cannot start the dispatcher thread, as
    /// `std::thread::spawn` does.  That is construction, never a request.
    pub fn new(options: GatewayOptions) -> Self {
        let shared = Arc::new(GwShared::new(options));
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("dace-gateway-dispatcher".to_string())
                .spawn(move || dispatcher_loop(&shared))
                .expect("spawning the gateway dispatcher thread failed")
        };
        Gateway {
            shared,
            dispatcher: Mutex::new(Some(dispatcher)),
        }
    }

    /// The gateway-wide options this instance was built with.
    pub fn options(&self) -> GatewayOptions {
        self.shared.opts.clone()
    }

    /// Register `driver` (its compiled program, session pool and free
    /// hints) as tenant `name` with the given weight / queue bound.
    pub fn register(
        &self,
        name: &str,
        driver: BatchDriver,
        config: TenantConfig,
    ) -> Result<(), GatewayError> {
        let mut state = self.shared.lock_state();
        if state.shutdown {
            return Err(GatewayError::ShuttingDown);
        }
        if state.by_name.contains_key(name) {
            return Err(GatewayError::DuplicateTenant(name.to_string()));
        }
        let capacity = config
            .queue_capacity
            .unwrap_or(self.shared.opts.queue_capacity)
            .max(1);
        let index = state.tenants.len();
        let tenant = TenantState::new(name, driver, config.weight.max(1), capacity);
        state.tenants.push(tenant);
        state.by_name.insert(name.to_string(), index);
        Ok(())
    }

    /// Submit one request to `tenant` with default [`SubmitOptions`].
    ///
    /// `Err` only for an unknown tenant; every other outcome — including
    /// overload and shutdown — resolves through the returned handle, so
    /// callers have exactly one place to observe request fate.
    pub fn submit(
        &self,
        tenant: &str,
        inputs: HashMap<String, Tensor>,
        fetch: &[&str],
    ) -> Result<GatewayHandle, GatewayError> {
        self.submit_with(tenant, inputs, fetch, SubmitOptions::default())
    }

    /// [`Gateway::submit`] with an explicit deadline.
    pub fn submit_with(
        &self,
        tenant: &str,
        inputs: HashMap<String, Tensor>,
        fetch: &[&str],
        opts: SubmitOptions,
    ) -> Result<GatewayHandle, GatewayError> {
        let now = Instant::now();
        let req = Arc::new(GwRequest {
            id: self.shared.next_id.fetch_add(1, Ordering::Relaxed),
            tenant: tenant.to_string(),
            submitted: now,
            deadline: opts.deadline.and_then(|d| now.checked_add(d)),
            phase: Mutex::new(GwPhase::Queued {
                inputs,
                fetch: fetch.iter().map(|s| s.to_string()).collect(),
            }),
            done_cv: Condvar::new(),
        });
        let handle = GatewayHandle {
            req: Arc::clone(&req),
            shared: Arc::clone(&self.shared),
        };
        // Admission runs entirely under the state lock: the shutdown /
        // deadline / capacity decision and its counter update are one
        // critical section, so snapshots never observe a half-admitted
        // request and the submit-vs-shutdown race has a single arbiter.
        let mut state = self.shared.lock_state();
        let shutdown = state.shutdown;
        let Some(t) = state.tenant_mut(tenant) else {
            return Err(GatewayError::UnknownTenant(tenant.to_string()));
        };
        t.counters.admitted += 1;
        let rejection = if shutdown {
            t.counters.rejected += 1;
            Some(ServeError::ShuttingDown)
        } else if let Some(missed) = missed_deadline(req.deadline, Instant::now()) {
            t.counters.expired += 1;
            Some(missed)
        } else if t.counters.queued >= t.capacity as u64 {
            // `queued`, not `queue.len()`: entries cancelled since the last
            // sweep are still physically in the queue but hold no capacity.
            t.counters.overloaded += 1;
            // Best-effort hint: roughly one recent service time, read in
            // O(1) — shedding must not cost more than admitting.
            Some(ServeError::Overloaded {
                retry_after_hint: t.latencies.estimate().max(MIN_RETRY_HINT),
            })
        } else {
            None
        };
        if let Some(error) = rejection {
            drop(state);
            req.complete(Err(error));
            return Ok(handle);
        }
        t.counters.queued += 1;
        t.queue.push_back(req);
        drop(state);
        self.shared.work_cv.notify_one();
        Ok(handle)
    }

    /// Hot-swap `tenant`'s driver for one over a recompiled program,
    /// gracefully: requests already dispatched **drain against the old
    /// plan** (this call blocks until they have), requests still queued and
    /// all new admissions run on the new one.  No handle is lost: every
    /// request resolves exactly once, on whichever plan it was dispatched
    /// to.
    pub fn reload(&self, tenant: &str, driver: BatchDriver) -> Result<(), GatewayError> {
        let mut state = self.shared.lock_state();
        if state.shutdown {
            return Err(GatewayError::ShuttingDown);
        }
        let Some(t) = state.tenant_mut(tenant) else {
            return Err(GatewayError::UnknownTenant(tenant.to_string()));
        };
        t.epoch += 1;
        let epoch = t.epoch;
        // The Arc swap is the whole cutover: the dispatcher clones the
        // exec Arc per batch, so a batch formed before this line keeps the
        // old driver (and its session pool) alive until it completes, and
        // every batch formed after it uses the new one.
        t.exec = Arc::new(TenantExec { driver, epoch });
        // Drain: wait until nothing is in flight on an older epoch.  The
        // tenant was found above and tenants are never unregistered.
        while let Some(t) = state.tenant_mut(tenant) {
            if t.counters.in_flight == 0 || t.inflight_epoch >= epoch {
                break;
            }
            state = self
                .shared
                .drain_cv
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
        Ok(())
    }

    /// Coherent snapshot of every tenant (all counters read under the one
    /// state lock; see [`TenantStats::conserves`]).  The latency windows are
    /// copied under the lock and sorted after it is released, so a scrape
    /// never holds up the dispatcher for a sort.
    pub fn stats(&self) -> GatewayStats {
        let state = self.shared.lock_state();
        let dispatches = state.dispatches;
        let snapshot: Vec<_> = state
            .tenants
            .iter()
            .map(|t| (t.name.clone(), t.stats(), t.latencies.samples()))
            .collect();
        drop(state);
        let tenants = snapshot
            .into_iter()
            .map(|(name, mut stats, samples)| {
                (stats.p50_latency, stats.p95_latency) = LatencyWindow::percentiles(samples);
                (name, stats)
            })
            .collect();
        GatewayStats {
            dispatches,
            tenants,
        }
    }

    /// Stop admitting, drain every tenant's queue (everything queued is
    /// dispatched), and join the dispatcher.  Called automatically on
    /// drop; idempotent.  Requests submitted after shutdown resolve with
    /// [`ServeError::ShuttingDown`].
    pub fn shutdown(&self) {
        {
            let mut state = self.shared.lock_state();
            state.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        self.shared.drain_cv.notify_all();
        if let Some(handle) = self
            .dispatcher
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            // A panic in the dispatcher is a bug, but the gateway is
            // usually being dropped here — swallow rather than abort.
            let _ = handle.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One claimed, runnable request: its state plus the payload taken from
/// the queued phase.
struct GwClaimed {
    req: Arc<GwRequest>,
    inputs: HashMap<String, Tensor>,
    fetch: Vec<String>,
}

/// One formed batch: a single tenant's claimed requests plus the exec they
/// run on (Arc-pinned so a concurrent reload cannot pull the driver out
/// from under the batch).
struct GwBatch {
    /// The tenant's index in [`GwState::tenants`].
    tenant: usize,
    exec: Arc<TenantExec>,
    claimed: Vec<GwClaimed>,
}

fn dispatcher_loop(shared: &GwShared) {
    while let Some(batch) = collect_batch(shared) {
        serve_batch(shared, batch);
    }
}

/// The rejection of a request whose `deadline` has passed at `now`.
fn missed_deadline(deadline: Option<Instant>, now: Instant) -> Option<ServeError> {
    let deadline = deadline.filter(|&dl| now >= dl)?;
    Some(ServeError::DeadlineExceeded {
        missed_by: now - deadline,
    })
}

/// Reject every queued request whose deadline has passed and drop the
/// entries cancelled since the last sweep, so that every entry left in a
/// queue is claimable.
fn sweep(state: &mut GwState, now: Instant) {
    for t in &mut state.tenants {
        let counters = &mut t.counters;
        t.queue.retain(|req| {
            let mut phase = req.lock_phase();
            if !matches!(&*phase, GwPhase::Queued { .. }) {
                return false; // cancelled: the handle already resolved
            }
            let Some(missed) = missed_deadline(req.deadline, now) else {
                return true;
            };
            counters.queued -= 1;
            counters.expired += 1;
            *phase = GwPhase::Done(Err(missed));
            req.done_cv.notify_all();
            false
        });
    }
}

/// Block until some tenant has a queued request, then claim one tenant's
/// worth of them by WDRR.  Nothing holds a queued request back, so the
/// dispatcher sleeps only while every queue is empty, until a submission
/// or shutdown notifies it; a queued deadline expires here, when the
/// dispatcher returns from the batch it was queued behind.  Returns `None`
/// once shutdown has drained every queue.
fn collect_batch(shared: &GwShared) -> Option<GwBatch> {
    let mut state = shared.lock_state();
    loop {
        sweep(&mut state, Instant::now());
        if let Some(batch) = wdrr_claim(shared, &mut state) {
            return Some(batch);
        }
        if state.shutdown {
            return None;
        }
        state = shared
            .work_cv
            .wait(state)
            .unwrap_or_else(|e| e.into_inner());
    }
}

/// Pick the next tenant by weighted deficit round-robin and claim up to
/// `min(deficit, max_batch)` of its queued requests; `None` when every
/// queue is empty.  Called right after a [`sweep`] under the same lock, so
/// every queued entry is claimable (a cancel needs that lock).
fn wdrr_claim(shared: &GwShared, state: &mut GwState) -> Option<GwBatch> {
    let quantum = shared.opts.max_batch as u64;
    // Continue spending the active tenant's earned deficit first — this is
    // what makes weight show up as consecutive dispatches.
    let mut pick = state.active.filter(|&i| {
        state
            .tenants
            .get(i)
            .is_some_and(|t| t.deficit >= 1 && !t.queue.is_empty())
    });
    if pick.is_none() {
        state.active = None;
        let n = state.tenants.len();
        for k in 0..n {
            let index = (state.cursor + k) % n;
            let t = &mut state.tenants[index];
            if t.queue.is_empty() {
                // An empty queue forfeits banked credit: deficit must not
                // accumulate while a tenant has nothing to say.
                t.deficit = 0;
                continue;
            }
            // Earn this round's quantum, banking at most one unspent
            // round's worth on top of it.
            let earn = quantum * t.weight as u64;
            t.deficit = (t.deficit + earn).min(earn * 2);
            state.cursor = (index + 1) % n;
            pick = Some(index);
            break;
        }
    }
    let index = pick?;
    let t = state.tenants.get_mut(index)?;
    let take = t.deficit.min(quantum) as usize;
    let mut claimed = Vec::with_capacity(take.min(t.queue.len()));
    while claimed.len() < take {
        let Some(req) = t.queue.pop_front() else {
            break;
        };
        let mut phase = req.lock_phase();
        match std::mem::replace(&mut *phase, GwPhase::Dispatched) {
            GwPhase::Queued { inputs, fetch } => {
                drop(phase);
                t.counters.queued -= 1;
                t.counters.in_flight += 1;
                claimed.push(GwClaimed { req, inputs, fetch });
            }
            // Not reached after the sweep; a resolved request keeps its
            // result.
            other => *phase = other,
        }
    }
    t.deficit = t.deficit.saturating_sub(claimed.len() as u64);
    if t.queue.is_empty() {
        t.deficit = 0;
    }
    let active = (t.deficit > 0 && !t.queue.is_empty()).then_some(index);
    t.inflight_epoch = t.exec.epoch;
    t.counters.batches += 1;
    t.counters.largest_batch = t.counters.largest_batch.max(claimed.len());
    let exec = Arc::clone(&t.exec);
    state.active = active;
    state.dispatches += 1;
    Some(GwBatch {
        tenant: index,
        exec,
        claimed,
    })
}

/// Fan one tenant's batch across its pooled sessions, then resolve every
/// item under one state critical section, so a stats snapshot never
/// observes the batch half-resolved.
fn serve_batch(shared: &GwShared, batch: GwBatch) {
    let n = batch.claimed.len();
    let out = batch.exec.driver.run_batch_with(n, |i, session| {
        let item = &batch.claimed[i];
        run_item(session, &item.inputs, &item.fetch)
    });
    let mut state = shared.lock_state();
    // The claim took `batch.tenant` from `tenants`, which never shrinks.
    if let Some(t) = state.tenants.get_mut(batch.tenant) {
        for (item, outcome) in batch.claimed.iter().zip(out.items) {
            t.resolve(&item.req, outcome, n);
        }
    }
    drop(state);
    shared.drain_cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gateway_types_are_send_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<Gateway>();
        assert_sync::<Gateway>();
        assert_send::<GatewayHandle>();
        assert_sync::<GatewayHandle>();
        assert_send::<GatewayStats>();
        assert_send::<GatewayError>();
    }

    /// A tenant over `Y = 2X`, N = 3.
    fn tenant(name: &str) -> TenantState {
        use dace_frontend::{ArrayExpr, ProgramBuilder};
        let mut b = ProgramBuilder::new("double");
        let n = b.symbol("N");
        b.add_input("X", vec![n.clone()]).unwrap();
        b.add_input("Y", vec![n.clone()]).unwrap();
        b.assign("Y", ArrayExpr::a("X").mul(ArrayExpr::s(2.0)));
        let program =
            crate::compile(&b.build().unwrap(), &HashMap::from([("N".to_string(), 3)])).unwrap();
        TenantState::new(name, BatchDriver::new(program), 1, 64)
    }

    /// A queued request for `tenant` with the given deadline.
    fn queued(tenant: &str, deadline: Option<Instant>) -> Arc<GwRequest> {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        Arc::new(GwRequest {
            id: 0,
            tenant: tenant.to_string(),
            submitted: Instant::now(),
            deadline,
            phase: Mutex::new(GwPhase::Queued {
                inputs: HashMap::from([("X".to_string(), x)]),
                fetch: vec!["Y".to_string()],
            }),
            done_cv: Condvar::new(),
        })
    }

    /// The panic arm of [`TenantState::resolve`]: the request resolves
    /// `Panicked` once, leaves `in_flight` for `failed`, counts one
    /// `panics`, and the counters conserve before and after.
    #[test]
    fn a_panicked_item_resolves_its_request_once_as_failed() {
        let shared = Arc::new(GwShared::new(GatewayOptions::default()));
        let mut t = tenant("t");
        let req = queued("t", None);
        *req.lock_phase() = GwPhase::Dispatched;
        t.counters.admitted = 1;
        t.counters.in_flight = 1;
        assert!(t.stats().conserves());

        t.resolve(&req, Err(BatchError::Panicked("boom".to_string())), 1);
        let stats = t.stats();
        assert!(stats.conserves(), "{stats:?}");
        assert_eq!((stats.in_flight, stats.failed, stats.panics), (0, 1, 1));
        assert_eq!(stats.completed, 0);
        let handle = GatewayHandle { req, shared };
        let panicked = Err(ServeError::Panicked("boom".to_string()));
        assert_eq!(
            handle.try_wait().map(|r| r.map(|_| ())),
            Some(panicked.clone())
        );
        assert_eq!(handle.wait().map(|_| ()), panicked);
    }

    /// The collapsed dispatch rule: a queued request is claimed at once
    /// whatever its deadline, the sweep before the claim resolves expired
    /// and drops cancelled entries, and an empty dispatcher returns `None`
    /// at shutdown instead of waiting.
    #[test]
    fn collect_batch_claims_queued_requests_at_once_and_sweeps_the_rest() {
        let shared = GwShared::new(GatewayOptions::default());
        let now = Instant::now();
        let live = queued("t", Some(now + Duration::from_secs(3600)));
        let expired = queued("t", Some(now));
        let cancelled = queued("t", None);
        *cancelled.lock_phase() = GwPhase::Done(Err(ServeError::Cancelled));
        {
            let mut state = shared.lock_state();
            let mut t = tenant("t");
            t.counters.admitted = 3;
            t.counters.queued = 2;
            t.counters.cancelled = 1;
            for req in [&cancelled, &expired, &live] {
                t.queue.push_back(Arc::clone(req));
            }
            state.tenants.push(t);
            state.by_name.insert("t".to_string(), 0);
        }

        let batch = collect_batch(&shared).expect("a queued request is due at once");
        assert_eq!(batch.claimed.len(), 1);
        assert!(Arc::ptr_eq(&batch.claimed[0].req, &live));
        assert!(matches!(
            &*expired.lock_phase(),
            GwPhase::Done(Err(ServeError::DeadlineExceeded { .. }))
        ));
        {
            let state = shared.lock_state();
            let stats = state.tenants[0].stats();
            assert!(stats.conserves(), "{stats:?}");
            assert_eq!((stats.queue_depth, stats.in_flight), (0, 1));
            assert_eq!((stats.expired, stats.batches), (1, 1));
        }
        serve_batch(&shared, batch);
        shared.lock_state().shutdown = true;
        assert!(collect_batch(&shared).is_none());
        let phase = live.lock_phase();
        let GwPhase::Done(Ok(response)) = &*phase else {
            panic!("the claimed request must have been served");
        };
        assert_eq!(response.outputs["Y"].data(), &[2.0, 4.0, 6.0]);
    }

    /// The conservation check counts every lifecycle bucket and nothing
    /// attempt-level.
    #[test]
    fn tenant_stats_conservation_arithmetic() {
        let mut s = TenantStats {
            queue_depth: 2,
            in_flight: 1,
            admitted: 11,
            completed: 4,
            failed: 1,
            cancelled: 1,
            expired: 1,
            overloaded: 1,
            degraded: 0,
            rejected: 0,
            retried: 0,
            panics: 1, // also counted in `failed`
            batches: 3,
            largest_batch: 2,
            breaker_trips: 0,
            epoch: 2,
            weight: 1,
            p50_latency: Duration::ZERO,
            p95_latency: Duration::ZERO,
            sessions_created: 0,
            sessions_reused: 0,
            pooled_sessions: 0,
            sessions_discarded: 0,
        };
        assert!(s.conserves());
        s.admitted += 1; // one request unaccounted for
        assert!(!s.conserves());
    }
}
