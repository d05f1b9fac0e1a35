//! Request outcomes of the serving front door.
//!
//! Every request submitted through a [`crate::Gateway`] — multi-tenant, or
//! the one-tenant gateway behind `GradientEngine::serve()` — resolves
//! exactly once with a [`ServeResponse`] or a typed [`ServeError`].  This
//! module holds that vocabulary plus the sliding latency window behind the
//! p50/p95 figures of [`crate::TenantStats`]; admission, scheduling and
//! dispatch live in [`crate::gateway`].
//!
//! ```
//! use std::collections::HashMap;
//! use std::time::Duration;
//! use dace_frontend::{ArrayExpr, ProgramBuilder};
//! use dace_runtime::{
//!     compile, BatchDriver, Gateway, GatewayOptions, ServeError, SubmitOptions, TenantConfig,
//! };
//! use dace_tensor::Tensor;
//!
//! // Y = 2 * X, as a tiny SDFG served by a one-tenant gateway.
//! let mut b = ProgramBuilder::new("double");
//! let n = b.symbol("N");
//! b.add_input("X", vec![n.clone()]).unwrap();
//! b.add_input("Y", vec![n.clone()]).unwrap();
//! b.assign("Y", ArrayExpr::a("X").mul(ArrayExpr::s(2.0)));
//! let sdfg = b.build().unwrap();
//! let program = compile(&sdfg, &HashMap::from([("N".to_string(), 3)])).unwrap();
//! let gateway = Gateway::new(GatewayOptions::default());
//! gateway
//!     .register("double", BatchDriver::new(program), TenantConfig::default())
//!     .unwrap();
//!
//! let x = || HashMap::from([("X".to_string(), Tensor::from_vec(vec![1.0; 3], &[3]).unwrap())]);
//! let response = gateway.submit("double", x(), &["Y"]).unwrap().wait().unwrap();
//! assert_eq!(response.outputs["Y"].data(), &[2.0; 3]);
//! assert!(response.batched_with >= 1);
//!
//! // A spent latency budget is a typed rejection, not a late result.
//! let expired = SubmitOptions { deadline: Some(Duration::ZERO), ..SubmitOptions::default() };
//! let handle = gateway.submit_with("double", x(), &["Y"], expired).unwrap();
//! assert!(matches!(handle.wait(), Err(ServeError::DeadlineExceeded { .. })));
//! ```

use std::collections::HashMap;
use std::time::Duration;

use dace_tensor::Tensor;

use crate::error::RuntimeError;
use crate::executor::ExecutionReport;

/// Why a served request did not produce a result.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// The request's deadline passed before it was dispatched; it never
    /// occupied a worker.
    DeadlineExceeded {
        /// How far past the deadline the request was when rejected.
        missed_by: Duration,
    },
    /// The request was cancelled while still queued.
    Cancelled,
    /// The request was submitted while (or after) the gateway was shutting
    /// down and was never admitted.
    ShuttingDown,
    /// The request executed and failed with a runtime error.
    Execution(RuntimeError),
    /// The request panicked mid-execution; its session was discarded and
    /// the server keeps serving.
    Panicked(String),
    /// The tenant's admission queue was full, so the request was rejected
    /// instead of growing the queue without bound.  `retry_after_hint` is a
    /// coarse estimate of when the queue is likely to have room again.  The
    /// one-tenant gateway behind `GradientEngine::serve()` registers an
    /// unbounded queue and never raises it.
    Overloaded {
        /// Suggested client back-off before resubmitting (best-effort).
        retry_after_hint: Duration,
    },
    /// The tenant's circuit breaker is open after repeated infrastructure
    /// failures: load is shed early instead of queueing behind a failing
    /// backend.  Raised by [`crate::gateway::Gateway`] admission only.
    Degraded {
        /// Time until the breaker's next half-open recovery probe.
        retry_after_hint: Duration,
    },
    /// A serving session could not be checked out for this request (today
    /// only reachable via fault injection, see
    /// [`crate::gateway::FaultPlan`]).
    Checkout(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::DeadlineExceeded { missed_by } => {
                write!(f, "deadline exceeded (missed by {missed_by:?})")
            }
            ServeError::Cancelled => write!(f, "request cancelled"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Execution(e) => write!(f, "request failed: {e}"),
            ServeError::Panicked(msg) => write!(f, "request panicked: {msg}"),
            ServeError::Overloaded { retry_after_hint } => {
                write!(
                    f,
                    "admission queue full (retry after ~{retry_after_hint:?})"
                )
            }
            ServeError::Degraded { retry_after_hint } => write!(
                f,
                "tenant degraded: circuit breaker open (retry after ~{retry_after_hint:?})"
            ),
            ServeError::Checkout(msg) => write!(f, "session checkout failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Successful result of one served request.
#[derive(Clone, Debug)]
pub struct ServeResponse {
    /// The requested (fetched) arrays, lent out of the serving session.
    pub outputs: HashMap<String, Tensor>,
    /// Execution report of this request's run.
    pub report: ExecutionReport,
    /// Submit-to-completion latency of this request (queueing included).
    pub latency: Duration,
    /// How many requests the dispatch that served this one coalesced —
    /// `1` means the request ran alone, `max_batch` means a full batch.
    pub batched_with: usize,
}

/// Sliding window of completion latencies for the per-tenant percentile
/// figures in [`crate::TenantStats`], plus a running service-time estimate
/// for the `Overloaded` retry hint.
pub(crate) struct LatencyWindow {
    samples: Vec<Duration>,
    next: usize,
    /// Exponentially weighted mean of the recorded latencies (the newest
    /// sample weighs an eighth).
    mean: Duration,
}

const LATENCY_WINDOW: usize = 4096;

impl LatencyWindow {
    pub(crate) fn new() -> Self {
        LatencyWindow {
            samples: Vec::new(),
            next: 0,
            mean: Duration::ZERO,
        }
    }

    pub(crate) fn record(&mut self, latency: Duration) {
        self.mean = if self.samples.is_empty() {
            latency
        } else {
            (self.mean * 7 + latency) / 8
        };
        if self.samples.len() < LATENCY_WINDOW {
            self.samples.push(latency);
        } else {
            self.samples[self.next] = latency;
            self.next = (self.next + 1) % LATENCY_WINDOW;
        }
    }

    /// Recent service time in O(1) (zero before the first sample): what an
    /// admission decision may read under the gateway's state lock.
    pub(crate) fn estimate(&self) -> Duration {
        self.mean
    }

    /// Copy of the window, for [`LatencyWindow::percentiles`] to sort once
    /// the state lock is released.
    pub(crate) fn samples(&self) -> Vec<Duration> {
        self.samples.clone()
    }

    /// Nearest-rank percentile over the window (`q` in [0, 1]).
    fn percentile(sorted: &[Duration], q: f64) -> Duration {
        if sorted.is_empty() {
            return Duration::ZERO;
        }
        let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// (p50, p95) over a copied window, zero while empty.
    pub(crate) fn percentiles(mut samples: Vec<Duration>) -> (Duration, Duration) {
        samples.sort();
        (
            Self::percentile(&samples, 0.50),
            Self::percentile(&samples, 0.95),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Request outcomes cross threads: a handle resolved by the dispatcher
    /// is read by whichever client thread waits on it.
    #[test]
    fn serve_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeResponse>();
        assert_send_sync::<ServeError>();
    }

    /// The `Overloaded` hint's estimate: the first sample seeds it, every
    /// later one moves it an eighth of the way, and it never needs a sort.
    #[test]
    fn latency_estimate_is_an_exponentially_weighted_mean() {
        let ms = Duration::from_millis;
        let mut w = LatencyWindow::new();
        assert_eq!(w.estimate(), Duration::ZERO);
        w.record(ms(8));
        assert_eq!(w.estimate(), ms(8));
        w.record(ms(16));
        assert_eq!(w.estimate(), ms(9));
        w.record(ms(1));
        assert_eq!(w.estimate(), ms(8));
        for _ in 0..100 {
            w.record(ms(2));
        }
        assert!(w.estimate() >= ms(2) && w.estimate() < ms(2) + Duration::from_micros(1));
        assert_eq!(LatencyWindow::percentiles(w.samples()), (ms(2), ms(2)));
    }

    #[test]
    fn latency_percentiles_are_nearest_rank() {
        let sorted: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(
            LatencyWindow::percentile(&sorted, 0.50),
            Duration::from_millis(50)
        );
        assert_eq!(
            LatencyWindow::percentile(&sorted, 0.95),
            Duration::from_millis(95)
        );
        assert_eq!(LatencyWindow::percentile(&[], 0.5), Duration::ZERO);
        let one = [Duration::from_millis(7)];
        assert_eq!(LatencyWindow::percentile(&one, 0.95), one[0]);
    }

    /// An exactly-full window holds its `LATENCY_WINDOW` samples untouched;
    /// the percentile of the full ring covers them all.
    #[test]
    fn latency_window_exactly_full_keeps_every_sample() {
        let mut w = LatencyWindow::new();
        for i in 0..LATENCY_WINDOW {
            w.record(Duration::from_micros(i as u64 + 1));
        }
        assert_eq!(w.samples.len(), LATENCY_WINDOW);
        let mut sorted = w.samples.clone();
        sorted.sort();
        assert_eq!(
            LatencyWindow::percentile(&sorted, 1.0),
            Duration::from_micros(LATENCY_WINDOW as u64)
        );
        assert_eq!(
            LatencyWindow::percentile(&sorted, 0.0),
            Duration::from_micros(1)
        );
    }

    /// Past capacity the window is a ring: the length stays pinned at
    /// `LATENCY_WINDOW` and new samples overwrite the oldest slots in
    /// insertion order, so after a full extra lap only the newest
    /// `LATENCY_WINDOW` samples remain.
    #[test]
    fn latency_window_wraps_around_overwriting_oldest() {
        let mut w = LatencyWindow::new();
        for i in 0..LATENCY_WINDOW + 7 {
            w.record(Duration::from_micros(i as u64));
        }
        assert_eq!(w.samples.len(), LATENCY_WINDOW);
        assert_eq!(w.next, 7);
        // Slots 0..7 were overwritten by the 7 overflow samples.
        for (slot, expect) in (LATENCY_WINDOW..LATENCY_WINDOW + 7).enumerate() {
            assert_eq!(w.samples[slot], Duration::from_micros(expect as u64));
        }
        assert_eq!(w.samples[7], Duration::from_micros(7));
        // A second full lap leaves exactly the newest window.
        for i in 0..LATENCY_WINDOW {
            w.record(Duration::from_micros(1_000_000 + i as u64));
        }
        assert!(w
            .samples
            .iter()
            .all(|d| *d >= Duration::from_micros(1_000_000)));
    }
}
