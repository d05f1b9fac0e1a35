//! # dace-ad-repro
//!
//! Umbrella crate for the Rust reproduction of *DaCe AD: Unifying
//! High-Performance Automatic Differentiation for Machine Learning and
//! Scientific Computing* (CLUSTER 2025).
//!
//! It re-exports the public API of every workspace crate so examples and
//! integration tests can `use dace_ad_repro::prelude::*;`.

pub use dace_ad as ad;
pub use dace_frontend as frontend;
pub use dace_ilp as ilp;
pub use dace_runtime as runtime;
pub use dace_sdfg as sdfg;
pub use dace_tensor as tensor;
pub use jax_rs as jax;
pub use npbench;

/// Convenience re-exports for examples and integration tests.
pub mod prelude {
    pub use dace_ad::{
        AdOptions, BackwardPlan, BatchGradientResult, CheckpointStrategy, EngineError,
        GatewayGradientClient, GatewayGradientHandle, GradientEngine, ServedGradient,
    };
    pub use dace_frontend::{ArrayExpr, ProgramBuilder, ScalarRef};
    pub use dace_runtime::{
        compile, BatchDriver, BatchError, BatchItemResult, BatchOutput, BatchReport,
        CompiledProgram, ExecutionReport, Gateway, GatewayError, GatewayHandle, GatewayOptions,
        GatewayStats, ServeError, ServeResponse, Session, SubmitOptions, TenantConfig, TenantStats,
    };
    pub use dace_sdfg::{DType, Sdfg, SymExpr};
    pub use dace_tensor::{allclose, allclose_default, Tensor};
}
