//! # dace-ad
//!
//! Symbolic reverse-mode automatic differentiation over SDFGs with
//! ILP-based automatic checkpointing — the Rust reproduction of the paper's
//! primary contribution.
//!
//! Pipeline (Sections II–IV of the paper):
//!
//! 0. **Pre-AD transformation** — a transpose `B = Aᵀ` that only products
//!    read is folded into their operand flags before reversal, so neither
//!    `B` nor its gradient nor the transpose's adjoint exists.
//! 1. **Critical computation subgraph** — [`dace_sdfg::compute_ccs`] finds the
//!    minimal subgraph through which the independent variables contribute to
//!    the dependent output, propagating across states, loops (fixed point,
//!    no unrolling) and branches (over-approximation pruned at runtime), and
//!    keeps only the arrays the independent variables vary (activity
//!    analysis: an input outside `wrt` gets no adjoint).
//! 2. **Reversal** ([`reverse`]) — every CCS element is reversed in
//!    isolation and the reversed elements are stitched together: tasklets are
//!    differentiated symbolically, maps are reversed with the same ranges,
//!    library nodes map to their adjoints, sequential loops are reversed
//!    compactly (reversed iteration range, no unrolling), branches replay
//!    stored conditionals, gradients accumulate with WCR-sum writes and are
//!    cleared on overwrites.
//! 3. **Forwarding** — values needed by non-linear adjoints are either read
//!    directly (when provably unchanged until the backward pass), stored in
//!    tape containers indexed by the enclosing loop iterations, or
//!    recomputed in the backward pass.
//! 4. **ILP checkpointing** ([`checkpoint`]) — one binary variable per
//!    forwarded container decides store vs. recompute, minimising the
//!    recomputation FLOP cost subject to a peak-memory limit modelled as a
//!    memory-measurement sequence (Section IV), solved with `dace-ilp`.
//!
//! The output of the engine is a single *gradient SDFG*: the augmented
//! forward program followed by the backward program, executable by
//! `dace-runtime` in one memory timeline (which is how the paper measures
//! peak memory for Fig. 13).
//!
//! # Execution shape
//!
//! [`GradientEngine`] follows the runtime's compile-once/run-many model:
//! `new` lowers the gradient SDFG exactly once (through the process-wide
//! plan cache), and `run`, `run_batch` and `run_forward` all execute
//! cached programs on persistent sessions;
//! [`engine::finite_difference_gradient`] is the oracle the gradients are
//! checked against.  Batched serving ([`GradientEngine::run_batch`]) fans
//! independent input sets across the worker pool over the *same* compiled
//! gradient program, with results bit-identical to a serial loop of `run`
//! calls.  Dynamic serving goes through the runtime's one serving core,
//! the [`Gateway`]: [`GradientEngine::serve`] starts an engine-private
//! gateway whose only tenant is the gradient program,
//! [`GradientEngine::register_with`] joins a shared multi-tenant one, and
//! either way requests are submitted individually through a
//! [`GatewayGradientClient`].
//!
//! ```
//! use std::collections::HashMap;
//! use dace_ad::{AdOptions, GradientEngine};
//! use dace_frontend::{ArrayExpr, ProgramBuilder};
//! use dace_tensor::Tensor;
//!
//! // OUT = sum(X * X)  =>  dOUT/dX = 2 * X
//! let mut b = ProgramBuilder::new("sq");
//! let n = b.symbol("N");
//! b.add_input("X", vec![n.clone()]).unwrap();
//! b.add_transient("T", vec![n.clone()]).unwrap();
//! b.add_scalar("OUT").unwrap();
//! b.assign("T", ArrayExpr::a("X").mul(ArrayExpr::a("X")));
//! b.sum_into("OUT", "T", false);
//! let fwd = b.build().unwrap();
//!
//! let symbols = HashMap::from([("N".to_string(), 3)]);
//! let mut engine =
//!     GradientEngine::new(&fwd, "OUT", &["X"], &symbols, &AdOptions::default()).unwrap();
//! let inputs = HashMap::from([(
//!     "X".to_string(),
//!     Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap(),
//! )]);
//! let result = engine.run(&inputs).unwrap();
//! assert_eq!(result.gradients["X"].data(), &[2.0, 4.0, 6.0]);
//!
//! // Batched serving: N input sets in, N gradient maps out — all items
//! // share the engine's single gradient lowering.
//! let batch = engine.run_batch(&[inputs.clone(), inputs]).unwrap();
//! assert_eq!(batch.items.len(), 2);
//! assert_eq!(batch.batch.plan_cache.misses, 1);
//! ```

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod engine;
mod fold;
pub mod reverse;

pub use checkpoint::{CheckpointReport, RecomputeCandidate};
pub use engine::{
    BatchGradientResult, EngineError, GatewayGradientClient, GatewayGradientHandle, GradientEngine,
    GradientResult, ServedGradient,
};
// The serving-layer vocabulary of `GradientEngine::serve` /
// `GradientEngine::register_with`, re-exported so AD-level callers need no
// direct `dace-runtime` dependency.
pub use dace_runtime::{
    Gateway, GatewayError, GatewayOptions, GatewayStats, ServeError, SubmitOptions, TenantConfig,
    TenantStats,
};
pub use reverse::{generate_backward, AdError, BackwardPlan};

/// Strategy for the store-vs-recompute (re-materialisation) trade-off.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckpointStrategy {
    /// Store every forwarded value (the default of most frameworks and the
    /// configuration used for the NPBench comparison in the paper).
    StoreAll,
    /// Recompute every candidate that has a recomputation slice.
    RecomputeAll,
    /// Solve the ILP of Section IV under the given peak-memory limit (bytes).
    Ilp {
        /// Peak-memory limit in bytes for the whole gradient computation.
        memory_limit_bytes: usize,
    },
    /// Manually choose which candidates to store (by transient name); all
    /// other candidates are recomputed.  Used by the Fig. 13 sweep over all
    /// 2^k configurations.
    Manual {
        /// Names of candidate containers to store.
        store: Vec<String>,
    },
}

/// Options controlling backward-pass generation.
///
/// Construct with [`AdOptions::default`] (store-all),
/// [`AdOptions::with_memory_limit`] or a struct literal:
///
/// ```
/// use dace_ad::{AdOptions, CheckpointStrategy};
/// let opts = AdOptions {
///     strategy: CheckpointStrategy::RecomputeAll,
/// };
/// assert_eq!(opts.strategy, CheckpointStrategy::RecomputeAll);
/// ```
#[derive(Clone, Debug)]
pub struct AdOptions {
    /// Store/recompute strategy.
    pub strategy: CheckpointStrategy,
}

impl Default for AdOptions {
    fn default() -> Self {
        AdOptions {
            strategy: CheckpointStrategy::StoreAll,
        }
    }
}

impl AdOptions {
    /// An ILP strategy under a byte limit.
    pub fn with_memory_limit(memory_limit_bytes: usize) -> AdOptions {
        AdOptions {
            strategy: CheckpointStrategy::Ilp { memory_limit_bytes },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_store_all() {
        assert_eq!(AdOptions::default().strategy, CheckpointStrategy::StoreAll);
    }

    #[test]
    fn with_memory_limit_sets_an_ilp_strategy() {
        assert_eq!(
            AdOptions::with_memory_limit(1024).strategy,
            CheckpointStrategy::Ilp {
                memory_limit_bytes: 1024
            }
        );
    }
}
