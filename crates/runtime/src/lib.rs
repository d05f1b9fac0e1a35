//! # dace-runtime
//!
//! An interpreter/executor for SDFGs, standing in for the DaCe code generator
//! and CPU runtime of the original system (the stand-ins are listed under
//! "Layout" in `README.md`).  Both DaCe AD and the JAX-like baseline in this
//! repository ultimately execute on the same `dace-tensor` kernels, so the
//! performance comparisons in the benchmark harness measure algorithmic
//! differences (in-place gradients, no per-iteration bound checks, compact
//! backward loops) rather than substrate differences.
//!
//! Execution follows the paper's compile-once/run-many model:
//!
//! * [`compile`] lowers an SDFG under concrete symbol values into a
//!   [`CompiledProgram`] — interned ids, register-compiled tasklet
//!   expressions, precomputed topological orders and subset classifications
//!   — consulting a process-wide **plan cache** keyed by (SDFG fingerprint,
//!   symbol values), so structurally identical programs share one lowering.
//! * [`CompiledProgram::session`] opens a [`Session`] that binds inputs,
//!   runs the plan (zero per-iteration string lookups, clones or heap
//!   allocations on the hot paths) and **reuses its tensor slab across
//!   runs** — transients are recycled and zero-filled in place rather than
//!   reallocated.
//! * [`batch::BatchDriver`] is the static-batch serving layer: one shared
//!   program, a pool of warm sessions, and batch fan-out over the persistent
//!   worker pool with per-item panic isolation.
//! * [`gateway::Gateway`] is the dynamic front door above it, for one
//!   tenant or many: requests are submitted individually (with optional
//!   deadlines and cancellation) and coalesced into batches; per-tenant
//!   queues are bounded with typed overload rejection and scheduled by
//!   weighted deficit round-robin; retries with exponential backoff,
//!   per-tenant circuit breakers, graceful program reload and a
//!   deterministic fault-injection harness complete it.  Every handle
//!   resolves exactly once with a [`serve::ServeResponse`] or a typed
//!   [`serve::ServeError`].
//! * [`memory::MemoryTracker`] provides the allocation tracking and
//!   peak-memory measurement used by the checkpointing experiments
//!   (Fig. 13).
//!
//! # Invariants
//!
//! * **Plan immutability** — a lowered execution plan is never mutated
//!   after [`compile`] returns; [`CompiledProgram`] and every [`Session`] /
//!   [`BatchDriver`] hold it behind a shared `Arc`.  All mutable run state
//!   (slab, symbol file, scratch registers) lives in the session.
//! * **Slab reuse** — a session's tensor allocations survive across runs:
//!   transients recycle through an internal pool and are zero-filled in
//!   place, unbound outputs are reset in place.  Results are bit-identical
//!   to a run on a freshly opened session with the same bindings.
//! * **Cache keying** — the plan cache key is (structural SDFG fingerprint,
//!   digest of the concrete symbol values), and a match is trusted only if
//!   the entry's symbol values equal the caller's; a plan is valid for
//!   exactly that pair and [`compile`] never returns a plan specialised for
//!   different symbol values.  A verified hit skips validation: only an SDFG
//!   that passed it is ever published.
//!
//! # Example
//!
//! Compile once, bind, run, read (see [`crate::batch`] for the batched
//! serving variant of the same program):
//!
//! ```
//! use std::collections::HashMap;
//! use dace_frontend::{ArrayExpr, ProgramBuilder};
//! use dace_tensor::Tensor;
//!
//! // Y = X + 1, lowered to an SDFG by the frontend.
//! let mut b = ProgramBuilder::new("inc");
//! let n = b.symbol("N");
//! b.add_input("X", vec![n.clone()]).unwrap();
//! b.add_input("Y", vec![n.clone()]).unwrap();
//! b.assign("Y", ArrayExpr::a("X").add(ArrayExpr::s(1.0)));
//! let sdfg = b.build().unwrap();
//!
//! let symbols = HashMap::from([("N".to_string(), 3)]);
//! let program = dace_runtime::compile(&sdfg, &symbols).unwrap();
//! let mut session = program.session();
//! session
//!     .set_input("X", Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap())
//!     .unwrap();
//! let report = session.run().unwrap();
//! assert_eq!(session.array("Y").unwrap().data(), &[2.0, 3.0, 4.0]);
//! // The (SDFG, symbols) pair was lowered exactly once.
//! assert_eq!(report.plan_cache_misses, 1);
//! ```

pub mod batch;
pub mod error;
pub mod executor;
pub mod gateway;
pub mod memory;
mod plan;
mod program;
pub mod serve;
mod spec;

pub use batch::{throughput, BatchDriver, BatchError, BatchItemResult, BatchOutput, BatchReport};
pub use error::{RuntimeError, RuntimeResult};
pub use executor::{ExecutionReport, MapPath};
pub use gateway::{
    BreakerState, FaultPlan, Gateway, GatewayError, GatewayHandle, GatewayOptions, GatewayStats,
    SubmitOptions, TenantConfig, TenantStats,
};
pub use memory::MemoryTracker;
pub use plan::{KernelMiss, MapInfo, MapStrategy, RowMode};
pub use program::{
    clear_plan_cache, compile, debug_fingerprint_sdfg, debug_inject_plan_cache_alias,
    plan_cache_capacity, plan_cache_len, plan_cache_stats, set_plan_cache_capacity,
    CompiledProgram, PlanCacheStats, Session, DEFAULT_PLAN_CACHE_CAPACITY,
};
pub use serve::{ServeError, ServeResponse};
pub use spec::SpecMode;
