//! The dynamic-admission front door: admission, backpressure and fault
//! tolerance over one or many compiled programs.
//!
//! [`crate::BatchDriver`] serves batches the caller has already assembled.
//! A real server gets requests one by one, from many clients, for many
//! programs, each with its own latency budget; [`Gateway`] is the one
//! serving core for all of that (`GradientEngine::serve()` is a gateway
//! with a single tenant, an unbounded queue, no retries and no breaker):
//!
//! * **Dynamic admission** — requests are submitted individually
//!   ([`Gateway::submit`], [`Gateway::submit_with`]) and return a
//!   [`GatewayHandle`] immediately.  Dispatch is work-conserving: an idle
//!   dispatcher sends a ready request at once, and whatever queued while
//!   a batch executed (up to [`GatewayOptions::max_batch`] per tenant)
//!   forms the next one, so the queue paces itself between latency and
//!   batching.  A deadline bounds *admission*, not execution: a request
//!   still queued when its budget runs out resolves
//!   [`ServeError::DeadlineExceeded`] (on time while a backoff or an open
//!   breaker holds it, at the dispatcher's return while a batch runs) and
//!   never occupies a worker; one already dispatched runs to
//!   completion.  Served results are bit-identical to a standalone
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
//! * **Fault tolerance** — a panicking request quarantines its session (the
//!   [`crate::BatchDriver`] guarantee) and, when the request is idempotent,
//!   is retried up to [`GatewayOptions::retry_budget`] times with
//!   exponential backoff.  Repeated *infrastructure* failures (panics,
//!   session-checkout failures) trip a per-tenant **circuit breaker**:
//!   while open, new admissions are shed early with [`ServeError::Degraded`]
//!   instead of queueing behind a failing backend; after a cooldown the
//!   breaker goes **half-open** and sends a single probe request — success
//!   closes it, failure re-opens it.  Plain execution errors (bad shapes,
//!   unknown arrays) are data-dependent: they fail the request but never
//!   trip the breaker and are never retried.
//! * **Graceful reload** — [`Gateway::reload`] swaps a tenant's driver
//!   for one over a recompiled program: requests already dispatched drain
//!   against the old plan (the call blocks until they have), requests
//!   still queued and all new admissions run on the new one.  No handle is
//!   lost or torn between plans.
//! * **Deterministic fault injection** — [`Gateway::inject_faults`] arms a
//!   [`FaultPlan`] against a tenant's *dispatch sequence numbers*
//!   (panic-on-Nth-dispatch, forced session-checkout failure, artificial
//!   dispatch latency), so every behaviour above is exercised by tests —
//!   `tests/gateway.rs::npbench_tenants_survive_a_chaos_storm` arms all of
//!   it at once — rather than asserted in prose.
//!
//! # The exactly-once handle contract
//!
//! Every submitted [`GatewayHandle`] resolves **exactly once** with a typed
//! outcome: a [`ServeResponse`], or one of `DeadlineExceeded` / `Cancelled`
//! / `Overloaded` / `Degraded` / `Execution` / `Panicked` / `Checkout` /
//! `ShuttingDown`.  This holds under injected panics, latency spikes,
//! concurrent reloads, sustained overload and mid-retry shutdown — the
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

/// Cap on the retry-backoff exponent: backoff stops doubling after
/// `base × 2^10`, bounding the sleep however large the retry budget is.
const MAX_BACKOFF_SHIFT: u32 = 10;

/// Gateway-wide tuning knobs.
///
/// `max_batch` shapes each formed batch: how many of the requests that
/// queued behind the previous dispatch ride the next one (a batch fans out
/// at the full width of the worker pool).  The rest govern the robustness
/// machinery: queue bounds, the retry budget and the circuit breaker.  See
/// `docs/serving.md` for a tuning table.
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
    /// How many times an *idempotent* request is re-dispatched after an
    /// infrastructure failure (panic or checkout failure) before its handle
    /// resolves with the last error.  `0` disables retries.
    pub retry_budget: u32,
    /// Backoff before the first retry; doubles per attempt
    /// (`base × 2^(attempt-1)`, exponent capped).
    pub retry_backoff: Duration,
    /// Consecutive infrastructure failures that trip a tenant's circuit
    /// breaker open (clamped to >= 1).  Execution errors never count.
    pub breaker_threshold: u32,
    /// How long a tripped breaker sheds load before going half-open and
    /// sending a recovery probe.
    pub breaker_cooldown: Duration,
}

impl Default for GatewayOptions {
    fn default() -> Self {
        GatewayOptions {
            max_batch: 8,
            queue_capacity: 64,
            retry_budget: 2,
            retry_backoff: Duration::from_micros(500),
            breaker_threshold: 4,
            breaker_cooldown: Duration::from_millis(25),
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
#[derive(Clone, Debug)]
pub struct SubmitOptions {
    /// Admission deadline, measured from submission (see
    /// `docs/serving.md`: a deadline bounds admission, not execution).
    pub deadline: Option<Duration>,
    /// Whether the request may be transparently re-dispatched after an
    /// infrastructure failure.  Defaults to `true` — a pure-function
    /// gradient evaluation is safe to re-run; set `false` for requests
    /// whose execution has observable side effects, and the first failure
    /// resolves the handle instead.
    pub idempotent: bool,
}

impl Default for SubmitOptions {
    fn default() -> Self {
        SubmitOptions {
            deadline: None,
            idempotent: true,
        }
    }
}

/// Deterministic fault plan, armed per tenant via
/// [`Gateway::inject_faults`] and matched against that tenant's dispatch
/// sequence (1-based, incremented once per *dispatched attempt*, so a
/// retry consumes the next number).
///
/// This is a chaos-testing hook: it exists so the fault-tolerance paths are
/// driven by tests (`tests/gateway.rs`) instead of waiting for production
/// to exercise them.  An empty (default) plan injects nothing.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Panic on exactly these dispatch sequence numbers.
    pub panic_on: Vec<u64>,
    /// Panic on every `k`-th dispatch (`seq % k == 0`).
    pub panic_every: Option<u64>,
    /// Fail session checkout on exactly these sequence numbers.
    pub checkout_fail_on: Vec<u64>,
    /// Fail session checkout on every `k`-th dispatch.
    pub checkout_fail_every: Option<u64>,
    /// Artificial latency added to every dispatched item (a latency-spike
    /// injector for deadline/backpressure tests).
    pub delay: Duration,
}

impl FaultPlan {
    fn fires(list: &[u64], every: Option<u64>, seq: u64) -> bool {
        list.contains(&seq) || every.is_some_and(|k| k >= 1 && seq.is_multiple_of(k))
    }

    /// The action this plan injects at dispatch number `seq` (panic wins
    /// over checkout failure when both match).
    fn action(&self, seq: u64) -> FaultAction {
        if Self::fires(&self.panic_on, self.panic_every, seq) {
            FaultAction::Panic(seq)
        } else if Self::fires(&self.checkout_fail_on, self.checkout_fail_every, seq) {
            FaultAction::Checkout(seq)
        } else {
            FaultAction::None
        }
    }
}

/// What the armed [`FaultPlan`] injects into one dispatched item.
#[derive(Clone, Copy, Debug)]
enum FaultAction {
    None,
    Panic(u64),
    Checkout(u64),
}

/// Public view of a tenant's circuit-breaker state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests dispatch normally.
    Closed,
    /// Tripped: new admissions are shed with [`ServeError::Degraded`]
    /// until the cooldown elapses.
    Open,
    /// Cooldown elapsed: the next dispatch is a single probe request;
    /// success closes the breaker, failure re-opens it.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Open => write!(f, "open"),
            BreakerState::HalfOpen => write!(f, "half-open"),
        }
    }
}

/// Per-tenant circuit breaker over consecutive infrastructure failures.
struct Breaker {
    inner: BreakerInner,
    trips: u64,
}

enum BreakerInner {
    Closed { fails: u32 },
    Open { until: Instant },
    HalfOpen,
}

impl Breaker {
    fn new() -> Self {
        Breaker {
            inner: BreakerInner::Closed { fails: 0 },
            trips: 0,
        }
    }

    fn state(&self) -> BreakerState {
        match self.inner {
            BreakerInner::Closed { .. } => BreakerState::Closed,
            BreakerInner::Open { .. } => BreakerState::Open,
            BreakerInner::HalfOpen => BreakerState::HalfOpen,
        }
    }

    /// When an open breaker will transition to half-open.
    fn reopen_at(&self) -> Option<Instant> {
        match self.inner {
            BreakerInner::Open { until } => Some(until),
            _ => None,
        }
    }

    /// Advance time-based transitions (open → half-open after cooldown).
    fn tick(&mut self, now: Instant) {
        if let BreakerInner::Open { until } = self.inner {
            if now >= until {
                self.inner = BreakerInner::HalfOpen;
            }
        }
    }

    /// Any successful dispatch fully closes the breaker (a half-open probe
    /// that succeeds restores the tenant; a success under `Closed` resets
    /// the consecutive-failure count).
    fn on_success(&mut self) {
        self.inner = BreakerInner::Closed { fails: 0 };
    }

    /// Record an infrastructure failure (panic / checkout failure).
    fn on_infra_failure(&mut self, threshold: u32, cooldown: Duration, now: Instant) {
        match &mut self.inner {
            BreakerInner::Closed { fails } => {
                *fails += 1;
                if *fails >= threshold {
                    self.inner = BreakerInner::Open {
                        until: now + cooldown,
                    };
                    self.trips += 1;
                }
            }
            // A failed recovery probe re-opens for a full fresh cooldown.
            BreakerInner::HalfOpen => {
                self.inner = BreakerInner::Open {
                    until: now + cooldown,
                };
                self.trips += 1;
            }
            // Already shedding; push the horizon out, never pull it in.
            BreakerInner::Open { until } => {
                *until = (*until).max(now + cooldown);
            }
        }
    }
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
/// [`TenantStats::conserves`].  `retried`, `panics` and
/// `checkout_failures` count *attempts*, not requests, and sit outside the
/// conservation sum (a request that panics twice and then completes is one
/// `completed` plus two `panics` plus two `retried`).
#[derive(Clone, Debug)]
pub struct TenantStats {
    /// Requests waiting in this tenant's admission queue (awaiting-backoff
    /// retries included).
    pub queue_depth: usize,
    /// Requests claimed by the dispatcher and not yet completed.
    pub in_flight: u64,
    /// Requests ever submitted to this tenant.
    pub admitted: u64,
    /// Requests that executed and returned a result.
    pub completed: u64,
    /// Requests resolved with an execution error, or an infrastructure
    /// error after the retry budget was spent.
    pub failed: u64,
    /// Requests cancelled while queued.
    pub cancelled: u64,
    /// Requests whose deadline passed before dispatch.
    pub expired: u64,
    /// Requests shed at admission because the queue was full.
    pub overloaded: u64,
    /// Requests shed at admission because the circuit breaker was open.
    pub degraded: u64,
    /// Requests refused because the gateway was shutting down.
    pub rejected: u64,
    /// Retry dispatches performed (attempt-level; outside conservation).
    pub retried: u64,
    /// Dispatched attempts that panicked (attempt-level).
    pub panics: u64,
    /// Dispatched attempts whose session checkout failed (attempt-level;
    /// today only reachable via [`FaultPlan`]).
    pub checkout_failures: u64,
    /// Batches dispatched for this tenant.
    pub batches: u64,
    /// Largest batch one dispatch coalesced for this tenant.
    pub largest_batch: usize,
    /// Current circuit-breaker state.
    pub breaker: BreakerState,
    /// Times the breaker tripped open over the tenant's lifetime.
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
    ///           + cancelled + expired + overloaded + degraded + rejected
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
                + self.degraded
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
    /// In the admission queue (or awaiting a retry backoff); owns the
    /// payload.
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
    idempotent: bool,
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
    /// [`GatewayHandle::try_wait`]).  A timeout that races the dispatcher's
    /// completion loses nothing: the result is stored on the request, the
    /// next poll observes it, and [`GatewayHandle::wait`] delivers it
    /// exactly once however many bounded waits timed out before.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<ServeResponse, ServeError>> {
        let deadline = Instant::now() + timeout;
        let mut phase = self.req.lock_phase();
        loop {
            if let GwPhase::Done(result) = &*phase {
                return Some(result.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .req
                .done_cv
                .wait_timeout(phase, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            phase = guard;
        }
    }

    /// Best-effort cancellation: succeeds (returns `true`) only while the
    /// request is queued — which *includes* a retry awaiting its backoff,
    /// so a request mid-retry can still be called off.  Once dispatched it
    /// completes normally (`false`).
    pub fn cancel(&self) -> bool {
        // Lock order: gateway state, then request phase — matching every
        // other state-and-phase critical section in this module.
        let mut state = self.shared.lock_state();
        let Some(tenant) = state.tenants.get_mut(&self.req.tenant) else {
            return false;
        };
        let mut phase = self.req.lock_phase();
        if matches!(&*phase, GwPhase::Queued { .. }) {
            *phase = GwPhase::Done(Err(ServeError::Cancelled));
            self.req.done_cv.notify_all();
            tenant.counters.queued -= 1;
            tenant.counters.cancelled += 1;
            // The queue entry is left in place; the dispatcher's sweep
            // drops entries whose phase is no longer Queued.  Wake it so
            // an entry held by a backoff or an open breaker is dropped now.
            drop(phase);
            drop(state);
            self.shared.work_cv.notify_one();
            true
        } else {
            false
        }
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
    degraded: u64,
    rejected: u64,
    retried: u64,
    panics: u64,
    checkout_failures: u64,
    batches: u64,
    largest_batch: usize,
}

/// One queued request plus its retry bookkeeping.
struct QueueEntry {
    req: Arc<GwRequest>,
    /// Dispatch attempts already made (0 for a fresh request).
    attempts: u32,
    /// When a retry becomes eligible for dispatch (`None` = immediately).
    retry_at: Option<Instant>,
}

impl QueueEntry {
    /// Eligible for dispatch now (backoff elapsed; shutdown ignores backoff
    /// — the final drain does not wait out retry timers).
    fn ready(&self, now: Instant, shutdown: bool) -> bool {
        shutdown || self.retry_at.is_none_or(|r| r <= now)
    }
}

/// What one tenant's queue asks of the dispatcher (see
/// [`TenantState::next_step`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    /// The tenant may dispatch and holds a ready entry: its batch is due.
    Dispatch,
    /// Nothing of this tenant can go before this instant; `None` when only
    /// a notification (a submission, a probe's completion) changes that.
    WakeAt(Option<Instant>),
}

/// A tenant's executable: its session-pool driver stamped with the program
/// epoch it belongs to.  `Arc`-swapped by [`Gateway::reload`] so in-flight
/// batches keep the old driver alive while new dispatches use the new one.
struct TenantExec {
    driver: BatchDriver,
    epoch: u64,
}

struct TenantState {
    weight: u32,
    capacity: usize,
    /// WDRR credit balance: earned on each round-robin visit, spent one
    /// per dispatched request, zeroed when the queue empties.
    deficit: u64,
    queue: VecDeque<QueueEntry>,
    exec: Arc<TenantExec>,
    /// Program epoch, starts at 1; bumped by reload.
    epoch: u64,
    /// Epoch of the most recently dispatched batch — `reload` drains until
    /// `in_flight == 0` or this catches up with the new epoch.
    inflight_epoch: u64,
    /// A half-open recovery probe is currently in flight; no further
    /// dispatches for this tenant until it resolves.
    probing: bool,
    counters: TenantCounters,
    breaker: Breaker,
    faults: FaultPlan,
    /// 1-based count of dispatched attempts, the clock [`FaultPlan`]s are
    /// matched against.
    dispatch_seq: u64,
    latencies: LatencyWindow,
}

impl TenantState {
    /// The one dispatch rule: a batch is due the moment the tenant may
    /// dispatch and holds one ready entry.  Otherwise the timed wake covers
    /// only what can still be waiting — a backoff's `retry_at`, an open
    /// breaker's `reopen_at` and the deadlines of entries held by either (a
    /// half-open probe's completion notifies `work_cv` by itself).
    fn next_step(&self, now: Instant, shutdown: bool) -> Step {
        // Shutdown overrides the breaker and probe gating: the final drain
        // dispatches everything.
        let allowed = shutdown
            || match self.breaker.state() {
                BreakerState::Closed => true,
                BreakerState::HalfOpen => !self.probing,
                BreakerState::Open => false,
            };
        if allowed && self.queue.iter().any(|e| e.ready(now, shutdown)) {
            return Step::Dispatch;
        }
        let reopen = self.breaker.reopen_at().filter(|_| !allowed);
        let held = self.queue.iter().flat_map(|e| {
            let retry = e.retry_at.filter(|_| allowed);
            retry.into_iter().chain(e.req.deadline)
        });
        Step::WakeAt(reopen.into_iter().chain(held).min())
    }
}

struct GwState {
    shutdown: bool,
    /// Round-robin order of tenant names (registration order).
    rr: Vec<String>,
    /// Next RR position to scan from.
    cursor: usize,
    /// Tenant whose earned deficit the dispatcher is still spending —
    /// WDRR weight manifests as *consecutive* dispatches for the same
    /// tenant before the cursor moves on.
    active: Option<String>,
    dispatches: u64,
    tenants: HashMap<String, TenantState>,
}

struct GwShared {
    opts: GatewayOptions,
    state: Mutex<GwState>,
    /// Wakes the dispatcher: new work, cancellation, shutdown.
    work_cv: Condvar,
    /// Wakes reload/drain waiters when in-flight counts change.
    drain_cv: Condvar,
    next_id: AtomicU64,
}

impl GwShared {
    fn lock_state(&self) -> MutexGuard<'_, GwState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Exponential retry backoff: `base × 2^(attempt-1)`, exponent capped so
/// the sleep stays bounded (`attempt` is 1-based).
fn retry_backoff(base: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1u32 << attempt.saturating_sub(1).min(MAX_BACKOFF_SHIFT))
}

/// Multi-tenant serving gateway: bounded admission, WDRR scheduling,
/// retries, circuit breaking, graceful reload (see the module docs).
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
        f.debug_struct("Gateway")
            .field("tenants", &state.rr)
            .field("dispatches", &state.dispatches)
            .field("shutdown", &state.shutdown)
            .finish()
    }
}

impl Gateway {
    /// Create a gateway (with its dispatcher thread) and no tenants yet.
    pub fn new(options: GatewayOptions) -> Self {
        let mut opts = options;
        opts.max_batch = opts.max_batch.max(1);
        opts.queue_capacity = opts.queue_capacity.max(1);
        opts.breaker_threshold = opts.breaker_threshold.max(1);
        let shared = Arc::new(GwShared {
            opts,
            state: Mutex::new(GwState {
                shutdown: false,
                rr: Vec::new(),
                cursor: 0,
                active: None,
                dispatches: 0,
                tenants: HashMap::new(),
            }),
            work_cv: Condvar::new(),
            drain_cv: Condvar::new(),
            next_id: AtomicU64::new(0),
        });
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
        if state.tenants.contains_key(name) {
            return Err(GatewayError::DuplicateTenant(name.to_string()));
        }
        state.rr.push(name.to_string());
        state.tenants.insert(
            name.to_string(),
            TenantState {
                weight: config.weight.max(1),
                capacity: config
                    .queue_capacity
                    .unwrap_or(self.shared.opts.queue_capacity)
                    .max(1),
                deficit: 0,
                queue: VecDeque::new(),
                exec: Arc::new(TenantExec { driver, epoch: 1 }),
                epoch: 1,
                inflight_epoch: 1,
                probing: false,
                counters: TenantCounters::default(),
                breaker: Breaker::new(),
                faults: FaultPlan::default(),
                dispatch_seq: 0,
                latencies: LatencyWindow::new(),
            },
        );
        Ok(())
    }

    /// Submit one request to `tenant` with default [`SubmitOptions`].
    ///
    /// `Err` only for an unknown tenant; every other outcome — including
    /// overload, degradation and shutdown — resolves through the returned
    /// handle, so callers have exactly one place to observe request fate.
    pub fn submit(
        &self,
        tenant: &str,
        inputs: HashMap<String, Tensor>,
        fetch: &[&str],
    ) -> Result<GatewayHandle, GatewayError> {
        self.submit_with(tenant, inputs, fetch, SubmitOptions::default())
    }

    /// [`Gateway::submit`] with an explicit deadline / idempotence policy.
    pub fn submit_with(
        &self,
        tenant: &str,
        inputs: HashMap<String, Tensor>,
        fetch: &[&str],
        opts: SubmitOptions,
    ) -> Result<GatewayHandle, GatewayError> {
        let now = Instant::now();
        let deadline = opts.deadline.map(|d| now + d);
        let req = Arc::new(GwRequest {
            id: self.shared.next_id.fetch_add(1, Ordering::Relaxed),
            tenant: tenant.to_string(),
            submitted: now,
            deadline,
            idempotent: opts.idempotent,
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
        // breaker / capacity decision and its counter update are one
        // critical section, so snapshots never observe a half-admitted
        // request and the submit-vs-shutdown race has a single arbiter.
        let mut state = self.shared.lock_state();
        let shutdown = state.shutdown;
        let Some(t) = state.tenants.get_mut(tenant) else {
            return Err(GatewayError::UnknownTenant(tenant.to_string()));
        };
        t.counters.admitted += 1;
        if shutdown {
            t.counters.rejected += 1;
            drop(state);
            req.complete(Err(ServeError::ShuttingDown));
            return Ok(handle);
        }
        let now = Instant::now();
        if let Some(dl) = deadline {
            if now >= dl {
                t.counters.expired += 1;
                drop(state);
                req.complete(Err(ServeError::DeadlineExceeded {
                    missed_by: now - dl,
                }));
                return Ok(handle);
            }
        }
        t.breaker.tick(now);
        if let Some(until) = t.breaker.reopen_at() {
            t.counters.degraded += 1;
            drop(state);
            req.complete(Err(ServeError::Degraded {
                retry_after_hint: until.saturating_duration_since(now).max(MIN_RETRY_HINT),
            }));
            return Ok(handle);
        }
        // `queued`, not `queue.len()`: entries cancelled since the last
        // sweep are still physically in the queue but hold no capacity.
        if t.counters.queued >= t.capacity as u64 {
            t.counters.overloaded += 1;
            // Best-effort hint: roughly one recent service time, read in
            // O(1) — shedding must not cost more than admitting.
            let hint = t.latencies.estimate().max(MIN_RETRY_HINT);
            drop(state);
            req.complete(Err(ServeError::Overloaded {
                retry_after_hint: hint,
            }));
            return Ok(handle);
        }
        t.counters.queued += 1;
        t.queue.push_back(QueueEntry {
            req,
            attempts: 0,
            retry_at: None,
        });
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
        let Some(t) = state.tenants.get_mut(tenant) else {
            return Err(GatewayError::UnknownTenant(tenant.to_string()));
        };
        t.epoch += 1;
        let epoch = t.epoch;
        // The Arc swap is the whole cutover: the dispatcher clones the
        // exec Arc per batch, so a batch formed before this line keeps the
        // old driver (and its session pool) alive until it completes, and
        // every batch formed after it uses the new one.
        t.exec = Arc::new(TenantExec { driver, epoch });
        // Drain: wait until nothing is in flight on an older epoch.
        loop {
            let t = state
                .tenants
                .get(tenant)
                .expect("tenants are never unregistered");
            if t.counters.in_flight == 0 || t.inflight_epoch >= epoch {
                return Ok(());
            }
            state = self
                .shared
                .drain_cv
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Arm a deterministic [`FaultPlan`] against `tenant`'s future
    /// dispatches (replacing any previous plan; arm
    /// `FaultPlan::default()` to disarm).  A chaos-testing hook — see the
    /// [`FaultPlan`] docs.
    pub fn inject_faults(&self, tenant: &str, plan: FaultPlan) -> Result<(), GatewayError> {
        let mut state = self.shared.lock_state();
        let Some(t) = state.tenants.get_mut(tenant) else {
            return Err(GatewayError::UnknownTenant(tenant.to_string()));
        };
        t.faults = plan;
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
            .map(|(name, t)| {
                let c = &t.counters;
                let stats = TenantStats {
                    queue_depth: c.queued as usize,
                    in_flight: c.in_flight,
                    admitted: c.admitted,
                    completed: c.completed,
                    failed: c.failed,
                    cancelled: c.cancelled,
                    expired: c.expired,
                    overloaded: c.overloaded,
                    degraded: c.degraded,
                    rejected: c.rejected,
                    retried: c.retried,
                    panics: c.panics,
                    checkout_failures: c.checkout_failures,
                    batches: c.batches,
                    largest_batch: c.largest_batch,
                    breaker: t.breaker.state(),
                    breaker_trips: t.breaker.trips,
                    epoch: t.epoch,
                    weight: t.weight,
                    p50_latency: Duration::ZERO,
                    p95_latency: Duration::ZERO,
                    sessions_created: t.exec.driver.sessions_created(),
                    sessions_reused: t.exec.driver.sessions_reused(),
                    pooled_sessions: t.exec.driver.pooled_sessions(),
                    sessions_discarded: t.exec.driver.sessions_discarded(),
                };
                (name.clone(), stats, t.latencies.samples())
            })
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

    /// Stop admitting, drain every tenant's queue (retry backoffs and open
    /// breakers are overridden — the drain dispatches everything, though
    /// infra-failed retries resolve with their last error instead of
    /// requeueing), and join the dispatcher.  Called automatically on
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
/// the queued phase.  The dispatch only borrows the payload, so a retry
/// requeues the same allocation.
struct GwClaimed {
    req: Arc<GwRequest>,
    inputs: HashMap<String, Tensor>,
    fetch: Vec<String>,
    /// Attempts already made before this dispatch (0 = first try).
    attempts: u32,
    fault: FaultAction,
}

/// One formed batch: a single tenant's claimed requests plus the exec they
/// run on (Arc-pinned so a concurrent reload cannot pull the driver out
/// from under the batch).
struct GwBatch {
    tenant: String,
    exec: Arc<TenantExec>,
    delay: Duration,
    claimed: Vec<GwClaimed>,
}

/// Why one dispatched item failed inside the batch closure.
#[derive(Debug)]
enum GwItemError {
    /// Real execution error — data-dependent, breaker-neutral, not
    /// retried.
    Exec(RuntimeError),
    /// Session checkout failed — infrastructure, trips the breaker,
    /// retryable.
    Checkout(String),
}

fn dispatcher_loop(shared: &GwShared) {
    while let Some(batch) = collect_batch(shared) {
        serve_batch(shared, batch);
    }
}

/// Reject every queued request whose deadline has passed, drop entries
/// completed out-of-band (cancellation), and advance breaker cooldowns.
fn sweep(state: &mut GwState, now: Instant) {
    for t in state.tenants.values_mut() {
        t.breaker.tick(now);
        let counters = &mut t.counters;
        t.queue.retain(|entry| {
            let due = entry.req.deadline.is_some_and(|dl| now >= dl);
            let mut phase = entry.req.lock_phase();
            match &*phase {
                GwPhase::Queued { .. } if due => {
                    let dl = entry.req.deadline.expect("due implies a deadline");
                    counters.queued -= 1;
                    counters.expired += 1;
                    *phase = GwPhase::Done(Err(ServeError::DeadlineExceeded {
                        missed_by: now - dl,
                    }));
                    entry.req.done_cv.notify_all();
                    false
                }
                GwPhase::Queued { .. } => true,
                // Cancelled while queued: the handle already resolved.
                _ => false,
            }
        });
    }
}

/// Block until some tenant's batch is due ([`TenantState::next_step`]),
/// then claim one tenant's worth of ready requests by WDRR.  Returns `None`
/// when every queue is drained and the gateway is shutting down.
fn collect_batch(shared: &GwShared) -> Option<GwBatch> {
    let mut state = shared.lock_state();
    loop {
        let now = Instant::now();
        sweep(&mut state, now);
        let shutdown = state.shutdown;
        let mut dispatch_now = false;
        let mut wake: Option<Instant> = None;
        for t in state.tenants.values() {
            match t.next_step(now, shutdown) {
                Step::Dispatch => dispatch_now = true,
                Step::WakeAt(at) => wake = wake.into_iter().chain(at).min(),
            }
        }
        if dispatch_now {
            // Coalescing is self-pacing: the claim takes whatever queued
            // while the previous batch executed.
            if let Some(batch) = wdrr_claim(shared, &mut state, now) {
                return Some(batch);
            }
            continue; // the claim resolved what it found: rescan
        }
        if shutdown {
            return None; // the drain leaves nothing held back
        }
        // Nothing may go yet: sleep until a held entry changes (after the
        // sweep every such instant is in the future) or a notification.
        state = match wake {
            Some(at) => {
                shared
                    .work_cv
                    .wait_timeout(state, at.saturating_duration_since(now))
                    .unwrap_or_else(|e| e.into_inner())
                    .0
            }
            None => shared
                .work_cv
                .wait(state)
                .unwrap_or_else(|e| e.into_inner()),
        };
    }
}

/// Pick the next tenant by weighted deficit round-robin and claim up to
/// `min(deficit, max_batch)` of its ready requests.
fn wdrr_claim(shared: &GwShared, state: &mut GwState, now: Instant) -> Option<GwBatch> {
    let quantum = shared.opts.max_batch as u64;
    let shutdown = state.shutdown;
    // Continue spending the active tenant's earned deficit first — this is
    // what makes weight show up as consecutive dispatches.
    let mut pick = state.active.clone().filter(|name| {
        state
            .tenants
            .get(name)
            .is_some_and(|t| t.deficit >= 1 && t.next_step(now, shutdown) == Step::Dispatch)
    });
    if pick.is_none() {
        state.active = None;
        let n = state.rr.len();
        for k in 0..n {
            let idx = (state.cursor + k) % n;
            let name = state.rr[idx].clone();
            let t = state
                .tenants
                .get_mut(&name)
                .expect("rr names always have tenant state");
            if t.queue.is_empty() {
                // An empty queue forfeits banked credit: deficit must not
                // accumulate while a tenant has nothing to say.
                t.deficit = 0;
                continue;
            }
            if t.next_step(now, shutdown) != Step::Dispatch {
                continue;
            }
            // Earn this round's quantum, banking at most one unspent
            // round's worth on top of it.
            let earn = quantum * t.weight as u64;
            t.deficit = (t.deficit + earn).min(earn * 2);
            state.cursor = (idx + 1) % n;
            pick = Some(name);
            break;
        }
    }
    let name = pick?;
    let t = state
        .tenants
        .get_mut(&name)
        .expect("picked tenant exists by construction");
    // A half-open breaker dispatches exactly one probe request.
    let probe = !shutdown && t.breaker.state() == BreakerState::HalfOpen;
    let take_cap = if probe {
        1
    } else {
        t.deficit.min(quantum) as usize
    };
    let mut claimed = Vec::new();
    let mut held_back = Vec::new();
    while claimed.len() < take_cap {
        let Some(entry) = t.queue.pop_front() else {
            break;
        };
        if !entry.ready(now, shutdown) {
            held_back.push(entry);
            continue;
        }
        let mut phase = entry.req.lock_phase();
        match std::mem::replace(&mut *phase, GwPhase::Dispatched) {
            GwPhase::Queued { inputs, fetch } => {
                // Deadline re-check at claim: the race backstop behind the
                // sweep (same-now, so it only fires for entries the sweep
                // itself raced with).
                if let Some(dl) = entry.req.deadline {
                    if now >= dl {
                        t.counters.queued -= 1;
                        t.counters.expired += 1;
                        *phase = GwPhase::Done(Err(ServeError::DeadlineExceeded {
                            missed_by: now - dl,
                        }));
                        entry.req.done_cv.notify_all();
                        continue;
                    }
                }
                drop(phase);
                t.dispatch_seq += 1;
                let seq = t.dispatch_seq;
                t.counters.queued -= 1;
                t.counters.in_flight += 1;
                claimed.push(GwClaimed {
                    req: entry.req,
                    inputs,
                    fetch,
                    attempts: entry.attempts,
                    fault: t.faults.action(seq),
                });
            }
            // Completed out-of-band (cancelled): keep the result.
            other => {
                *phase = other;
            }
        }
    }
    // Entries still awaiting backoff go back to the front, in order.
    for entry in held_back.into_iter().rev() {
        t.queue.push_front(entry);
    }
    if claimed.is_empty() {
        state.active = None;
        return None;
    }
    t.deficit = t.deficit.saturating_sub(claimed.len() as u64);
    if probe {
        t.probing = true;
        t.deficit = 0;
    }
    if t.queue.is_empty() {
        t.deficit = 0;
    }
    state.active = (t.deficit > 0 && !t.queue.is_empty()).then(|| name.clone());
    t.inflight_epoch = t.exec.epoch;
    t.counters.batches += 1;
    t.counters.largest_batch = t.counters.largest_batch.max(claimed.len());
    state.dispatches += 1;
    Some(GwBatch {
        exec: Arc::clone(&t.exec),
        delay: t.faults.delay,
        claimed,
        tenant: name,
    })
}

/// Fan one tenant's batch across its pooled sessions, then resolve or
/// retry every item under one state critical section.
fn serve_batch(shared: &GwShared, batch: GwBatch) {
    let n = batch.claimed.len();
    let out = batch.exec.driver.run_batch_with(n, |i, session| {
        let item = &batch.claimed[i];
        if !batch.delay.is_zero() {
            std::thread::sleep(batch.delay);
        }
        match item.fault {
            FaultAction::Panic(seq) => panic!("injected fault: panic on dispatch #{seq}"),
            FaultAction::Checkout(seq) => {
                return Err(GwItemError::Checkout(format!(
                    "injected fault: checkout failure on dispatch #{seq}"
                )));
            }
            FaultAction::None => {}
        }
        run_item(session, &item.inputs, &item.fetch).map_err(GwItemError::Exec)
    });
    // Resolve every item under ONE state critical section so a stats
    // snapshot never observes a batch half-completed relative to its
    // retries (the conservation invariant depends on this).
    let now = Instant::now();
    let mut state = shared.lock_state();
    let shutdown = state.shutdown;
    let t = state
        .tenants
        .get_mut(&batch.tenant)
        .expect("tenants are never unregistered");
    t.probing = false;
    let mut requeue: Vec<QueueEntry> = Vec::new();
    for (item, outcome) in batch.claimed.into_iter().zip(out.items) {
        t.counters.in_flight -= 1;
        match outcome {
            Ok(BatchItemResult { outputs, report }) => {
                t.breaker.on_success();
                t.counters.completed += 1;
                let latency = item.req.submitted.elapsed();
                t.latencies.record(latency);
                item.req.complete(Ok(ServeResponse {
                    outputs,
                    report,
                    latency,
                    batched_with: n,
                }));
            }
            // Data-dependent failure: resolve immediately, breaker
            // untouched — a tenant sending bad shapes is not an outage.
            Err(BatchError::Item(GwItemError::Exec(e))) => {
                t.counters.failed += 1;
                item.req.complete(Err(ServeError::Execution(e)));
            }
            Err(BatchError::Item(GwItemError::Checkout(msg))) => {
                t.counters.checkout_failures += 1;
                t.breaker.on_infra_failure(
                    shared.opts.breaker_threshold,
                    shared.opts.breaker_cooldown,
                    now,
                );
                retry_or_fail(
                    shared,
                    t,
                    item,
                    ServeError::Checkout(msg),
                    shutdown,
                    &mut requeue,
                    now,
                );
            }
            Err(BatchError::Panicked(msg)) => {
                t.counters.panics += 1;
                t.breaker.on_infra_failure(
                    shared.opts.breaker_threshold,
                    shared.opts.breaker_cooldown,
                    now,
                );
                retry_or_fail(
                    shared,
                    t,
                    item,
                    ServeError::Panicked(msg),
                    shutdown,
                    &mut requeue,
                    now,
                );
            }
        }
    }
    // Retries jump the queue (front, in original order): they have already
    // waited a full service round plus their backoff.
    for entry in requeue.into_iter().rev() {
        t.queue.push_front(entry);
    }
    drop(state);
    shared.drain_cv.notify_all();
    shared.work_cv.notify_all();
}

/// After an infrastructure failure: requeue an idempotent item with retry
/// budget left for retry unless the gateway is draining, otherwise resolve
/// the handle with the failure.
fn retry_or_fail(
    shared: &GwShared,
    t: &mut TenantState,
    item: GwClaimed,
    error: ServeError,
    shutdown: bool,
    requeue: &mut Vec<QueueEntry>,
    now: Instant,
) {
    if shutdown || !item.req.idempotent || item.attempts >= shared.opts.retry_budget {
        t.counters.failed += 1;
        item.req.complete(Err(error));
        return;
    }
    let attempt = item.attempts + 1;
    t.counters.retried += 1;
    t.counters.queued += 1;
    *item.req.lock_phase() = GwPhase::Queued {
        inputs: item.inputs,
        fetch: item.fetch,
    };
    requeue.push(QueueEntry {
        req: item.req,
        attempts: attempt,
        retry_at: Some(now + retry_backoff(shared.opts.retry_backoff, attempt)),
    });
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
        assert_send::<FaultPlan>();
    }

    /// Closed --(threshold consecutive infra failures)--> Open
    /// --(cooldown)--> HalfOpen --(success)--> Closed, or
    /// --(failure)--> Open again.  A success mid-streak resets the count.
    #[test]
    fn breaker_state_machine_transitions() {
        let threshold = 3;
        let cooldown = Duration::from_millis(10);
        let t0 = Instant::now();
        let mut b = Breaker::new();
        assert_eq!(b.state(), BreakerState::Closed);

        b.on_infra_failure(threshold, cooldown, t0);
        b.on_infra_failure(threshold, cooldown, t0);
        assert_eq!(b.state(), BreakerState::Closed, "below threshold");
        b.on_success();
        b.on_infra_failure(threshold, cooldown, t0);
        b.on_infra_failure(threshold, cooldown, t0);
        assert_eq!(b.state(), BreakerState::Closed, "success reset the streak");

        b.on_infra_failure(threshold, cooldown, t0);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips, 1);
        assert_eq!(b.reopen_at(), Some(t0 + cooldown));

        // Failures while open push the horizon out, never pull it in.
        b.on_infra_failure(threshold, cooldown, t0 + Duration::from_millis(5));
        assert_eq!(b.reopen_at(), Some(t0 + Duration::from_millis(15)));
        assert_eq!(b.trips, 1, "extending an open breaker is not a new trip");

        b.tick(t0 + Duration::from_millis(14));
        assert_eq!(b.state(), BreakerState::Open, "cooldown not elapsed");
        b.tick(t0 + Duration::from_millis(15));
        assert_eq!(b.state(), BreakerState::HalfOpen);

        // Failed probe: straight back to open, counted as a trip.
        b.on_infra_failure(threshold, cooldown, t0 + Duration::from_millis(16));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips, 2);

        b.tick(t0 + Duration::from_millis(26));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed, "successful probe closes");
    }

    /// A tenant over `Y = 2X` holding `entries`, given as (`retry_at`,
    /// `deadline`) per queued request.
    fn tenant_with(entries: &[(Option<Instant>, Option<Instant>)]) -> TenantState {
        use dace_frontend::{ArrayExpr, ProgramBuilder};
        let mut b = ProgramBuilder::new("double");
        let n = b.symbol("N");
        b.add_input("X", vec![n.clone()]).unwrap();
        b.add_input("Y", vec![n.clone()]).unwrap();
        b.assign("Y", ArrayExpr::a("X").mul(ArrayExpr::s(2.0)));
        let program =
            crate::compile(&b.build().unwrap(), &HashMap::from([("N".to_string(), 3)])).unwrap();
        let mut tenant = TenantState {
            weight: 1,
            capacity: 64,
            deficit: 0,
            queue: VecDeque::new(),
            exec: Arc::new(TenantExec {
                driver: BatchDriver::new(program),
                epoch: 1,
            }),
            epoch: 1,
            inflight_epoch: 1,
            probing: false,
            counters: TenantCounters::default(),
            breaker: Breaker::new(),
            faults: FaultPlan::default(),
            dispatch_seq: 0,
            latencies: LatencyWindow::new(),
        };
        for &(retry_at, deadline) in entries {
            tenant.queue.push_back(QueueEntry {
                req: Arc::new(GwRequest {
                    id: 0,
                    tenant: "t".to_string(),
                    submitted: Instant::now(),
                    deadline,
                    idempotent: true,
                    phase: Mutex::new(GwPhase::Queued {
                        inputs: HashMap::new(),
                        fetch: Vec::new(),
                    }),
                    done_cv: Condvar::new(),
                }),
                attempts: 0,
                retry_at,
            });
        }
        tenant
    }

    /// The dispatch rule and what is left of the timed wake: a ready entry
    /// of an allowed tenant is due now; otherwise the dispatcher sleeps to
    /// the earliest `retry_at`, `reopen_at` or deadline of a held entry.
    #[test]
    fn next_step_dispatches_ready_entries_and_wakes_for_held_ones() {
        let now = Instant::now();
        let at = |ms: u64| Some(now + Duration::from_millis(ms));

        assert_eq!(tenant_with(&[]).next_step(now, false), Step::WakeAt(None));
        // Ready and allowed: due at once, whatever else is queued.
        let ready = tenant_with(&[(at(50), at(20)), (None, at(10))]);
        assert_eq!(ready.next_step(now, false), Step::Dispatch);
        let elapsed = tenant_with(&[(Some(now), None)]);
        assert_eq!(elapsed.next_step(now, false), Step::Dispatch);

        // In backoff: wake at `retry_at`, or at an earlier deadline.
        let backoff = tenant_with(&[(at(50), None), (at(30), at(70))]);
        assert_eq!(backoff.next_step(now, false), Step::WakeAt(at(30)));
        let expiring = tenant_with(&[(at(50), at(20))]);
        assert_eq!(expiring.next_step(now, false), Step::WakeAt(at(20)));
        // The final drain ignores backoff.
        assert_eq!(expiring.next_step(now, true), Step::Dispatch);

        // Open breaker: ready entries are held until `reopen_at` (or their
        // deadline); a backoff behind it adds no wake of its own.
        let mut open = tenant_with(&[(None, None), (at(5), at(90))]);
        open.breaker
            .on_infra_failure(1, Duration::from_millis(40), now);
        assert_eq!(open.breaker.state(), BreakerState::Open);
        assert_eq!(open.next_step(now, false), Step::WakeAt(at(40)));
        assert_eq!(open.next_step(now, true), Step::Dispatch);
        let mut open_expiring = tenant_with(&[(None, at(15))]);
        open_expiring
            .breaker
            .on_infra_failure(1, Duration::from_millis(40), now);
        assert_eq!(open_expiring.next_step(now, false), Step::WakeAt(at(15)));

        // Half-open: one probe may go; while it is in flight nothing does,
        // and its completion (a notification) is the wake.
        open.breaker.tick(now + Duration::from_millis(40));
        assert_eq!(open.next_step(now, false), Step::Dispatch);
        open.probing = true;
        assert_eq!(open.next_step(now, false), Step::WakeAt(at(90)));
    }

    /// base × 2^(attempt-1), with the exponent capped.
    #[test]
    fn retry_backoff_doubles_and_saturates() {
        let base = Duration::from_micros(500);
        assert_eq!(retry_backoff(base, 1), base);
        assert_eq!(retry_backoff(base, 2), base * 2);
        assert_eq!(retry_backoff(base, 3), base * 4);
        assert_eq!(retry_backoff(base, 11), base * 1024);
        assert_eq!(retry_backoff(base, 12), base * 1024, "exponent capped");
        assert_eq!(retry_backoff(base, 100), base * 1024);
        // attempt 0 (not produced in practice) must not underflow.
        assert_eq!(retry_backoff(base, 0), base);
    }

    #[test]
    fn fault_plan_matches_sequence_numbers() {
        let plan = FaultPlan {
            panic_on: vec![3],
            panic_every: Some(10),
            checkout_fail_on: vec![4],
            checkout_fail_every: None,
            delay: Duration::ZERO,
        };
        assert!(matches!(plan.action(3), FaultAction::Panic(3)));
        assert!(matches!(plan.action(10), FaultAction::Panic(10)));
        assert!(matches!(plan.action(20), FaultAction::Panic(20)));
        assert!(matches!(plan.action(4), FaultAction::Checkout(4)));
        assert!(matches!(plan.action(1), FaultAction::None));
        assert!(matches!(plan.action(11), FaultAction::None));
        // Panic wins when both would fire.
        let both = FaultPlan {
            panic_on: vec![5],
            checkout_fail_on: vec![5],
            ..FaultPlan::default()
        };
        assert!(matches!(both.action(5), FaultAction::Panic(5)));
        // k = 0 must not divide-by-zero nor fire on everything.
        let zero = FaultPlan {
            panic_every: Some(0),
            ..FaultPlan::default()
        };
        assert!(matches!(zero.action(7), FaultAction::None));
        // An empty plan never fires.
        assert!(matches!(FaultPlan::default().action(1), FaultAction::None));
    }

    /// The conservation check counts every lifecycle bucket and nothing
    /// attempt-level.
    #[test]
    fn tenant_stats_conservation_arithmetic() {
        let mut s = TenantStats {
            queue_depth: 2,
            in_flight: 1,
            admitted: 12,
            completed: 4,
            failed: 1,
            cancelled: 1,
            expired: 1,
            overloaded: 1,
            degraded: 1,
            rejected: 0,
            retried: 7, // attempt-level: must not affect conservation
            panics: 5,
            checkout_failures: 2,
            batches: 3,
            largest_batch: 2,
            breaker: BreakerState::Closed,
            breaker_trips: 1,
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
