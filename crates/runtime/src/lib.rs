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
//!   expressions, precomputed topological orders and subset classifications.
//!   Every call validates and lowers; a caller compiles once and shares the
//!   cheaply cloned handle.
//! * [`CompiledProgram::session`] opens a [`Session`] that binds inputs,
//!   runs the plan (zero per-iteration string lookups, clones or heap
//!   allocations on the hot paths) and **reuses its tensor slab across
//!   runs** — transients are recycled and zero-filled in place rather than
//!   reallocated.
//! * [`batch::BatchDriver`] is the static-batch serving layer: one shared
//!   program, a pool of warm sessions, and batch fan-out over the calling
//!   thread and the persistent worker pool with per-item panic isolation.
//! * [`gateway::Gateway`] is the dynamic front door above it, for one
//!   tenant or many: requests are submitted individually (with optional
//!   deadlines and cancellation) and coalesced into batches; per-tenant
//!   queues are bounded with typed overload rejection and scheduled by
//!   weighted deficit round-robin; a panicking request fails alone (its
//!   session is discarded, the tenant keeps serving), and graceful program
//!   reload completes it.  Every handle resolves exactly once with a
//!   [`serve::ServeResponse`] or a typed [`serve::ServeError`].
//! * A session's memory tracker counts live bytes per array id and reports
//!   the peak ([`ExecutionReport::peak_bytes`]) that the checkpointing
//!   experiments measure (Fig. 13).
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
//! * **No global state** — [`compile`] validates and lowers on every call,
//!   and a plan is specialised for exactly the symbol values it was
//!   compiled with.  The one `static` is a lowering counter kept for the
//!   benchmark harness (see `program.rs`).
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
//! // X and Y, 3 doubles each, are live at once.
//! assert_eq!(report.peak_bytes, 48);
//! ```

pub mod batch;
pub mod error;
pub mod executor;
pub mod gateway;
mod memory;
mod plan;
mod program;
pub mod serve;
mod spec;

pub use batch::{throughput, BatchDriver, BatchError, BatchItemResult, BatchOutput, BatchReport};
pub use error::{RuntimeError, RuntimeResult};
pub use executor::{ExecutionReport, MapPath};
pub use gateway::{
    Gateway, GatewayError, GatewayHandle, GatewayOptions, GatewayStats, SubmitOptions,
    TenantConfig, TenantStats,
};
pub use plan::{KernelMiss, MapInfo, MapStrategy, RowMode};
#[doc(hidden)]
pub use program::{clear_plan_cache, plan_cache_stats, PlanCacheStats};
pub use program::{compile, CompiledProgram, Session};
pub use serve::{ServeError, ServeResponse};
pub use spec::SpecMode;
