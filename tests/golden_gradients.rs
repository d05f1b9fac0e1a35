//! Finite-difference golden-gradient validation of NPBench kernels.
//!
//! The paper's central claim is *correct* gradients for arbitrary programs;
//! the canonical way to establish correctness of a reverse-mode engine
//! (Baydin et al., "Automatic differentiation in machine learning: a survey")
//! is to validate every reverse path against central finite differences.
//! Each kernel below is checked twice — once per checkpoint strategy — so the
//! tape-forwarding (store-all) and rematerialisation (recompute-all) code
//! paths are both held to the same golden gradients.

use std::collections::HashMap;

use dace_ad_repro::ad::engine::finite_difference_gradient;
use dace_ad_repro::npbench::{kernel_by_name, Preset};
use dace_ad_repro::prelude::*;

/// Run `kernel` under `strategy` and compare the gradient of every `wrt`
/// input against central finite differences at the test-preset sizes.
fn check_kernel_against_fd(name: &str, strategy: CheckpointStrategy) {
    let kernel = kernel_by_name(name).unwrap_or_else(|| panic!("unknown kernel {name}"));
    let sizes = kernel.sizes(Preset::Test);
    let symbols = kernel.symbols(&sizes);
    let inputs = kernel.inputs(&sizes);
    let forward = kernel.build_dace(&sizes);
    let mut engine = GradientEngine::new(
        &forward,
        "OUT",
        &kernel.wrt(),
        &symbols,
        &AdOptions {
            strategy: strategy.clone(),
        },
    )
    .unwrap_or_else(|e| panic!("{name} [{strategy:?}]: engine construction failed: {e}"));
    let result = engine
        .run(&inputs)
        .unwrap_or_else(|e| panic!("{name} [{strategy:?}]: gradient run failed: {e}"));
    for wrt in kernel.wrt() {
        let fd = finite_difference_gradient(&forward, "OUT", wrt, &symbols, &inputs, 1e-6)
            .unwrap_or_else(|e| panic!("{name}: finite differences for {wrt} failed: {e}"));
        let ad = &result.gradients[wrt];
        assert!(
            allclose(ad, &fd, 1e-4, 1e-7),
            "{name} [{strategy:?}]: gradient of {wrt} deviates from finite differences\n\
             ad = {:?}\nfd = {:?}",
            ad.data(),
            fd.data(),
        );
    }
}

// Vectorized (whole-array, BLAS-style) kernels — Fig. 10 population.

#[test]
fn fd_golden_atax_store_all() {
    check_kernel_against_fd("atax", CheckpointStrategy::StoreAll);
}

#[test]
fn fd_golden_atax_recompute_all() {
    check_kernel_against_fd("atax", CheckpointStrategy::RecomputeAll);
}

// bicg's `s = Aᵀ r` reaches reverse mode folded into its product's operand
// flag; the finite differences run the forward program as written, with the
// transpose materialised, so they check the fold from outside.

#[test]
fn fd_golden_bicg_store_all() {
    check_kernel_against_fd("bicg", CheckpointStrategy::StoreAll);
}

#[test]
fn fd_golden_bicg_recompute_all() {
    check_kernel_against_fd("bicg", CheckpointStrategy::RecomputeAll);
}

#[test]
fn fd_golden_gemm_store_all() {
    check_kernel_against_fd("gemm", CheckpointStrategy::StoreAll);
}

#[test]
fn fd_golden_gemm_recompute_all() {
    check_kernel_against_fd("gemm", CheckpointStrategy::RecomputeAll);
}

#[test]
fn fd_golden_mvt_store_all() {
    check_kernel_against_fd("mvt", CheckpointStrategy::StoreAll);
}

#[test]
fn fd_golden_mvt_recompute_all() {
    check_kernel_against_fd("mvt", CheckpointStrategy::RecomputeAll);
}

// Loop (sequential control flow, element accesses) kernel — Fig. 11
// population.  Seidel-2d is the paper's running stencil example, with a
// loop-carried dependency that exercises the compact loop reversal.

#[test]
fn fd_golden_seidel2d_store_all() {
    check_kernel_against_fd("seidel2d", CheckpointStrategy::StoreAll);
}

#[test]
fn fd_golden_seidel2d_recompute_all() {
    check_kernel_against_fd("seidel2d", CheckpointStrategy::RecomputeAll);
}

/// The two strategies must agree with each other bit-for-bit modulo float
/// noise, not just with finite differences (which have looser tolerance).
#[test]
fn store_all_and_recompute_all_agree_tightly() {
    for name in ["atax", "bicg", "gemm", "mvt", "seidel2d"] {
        let kernel = kernel_by_name(name).unwrap();
        let sizes = kernel.sizes(Preset::Test);
        let symbols = kernel.symbols(&sizes);
        let inputs = kernel.inputs(&sizes);
        let forward = kernel.build_dace(&sizes);
        let mut results: Vec<HashMap<String, Tensor>> = Vec::new();
        for strategy in [
            CheckpointStrategy::StoreAll,
            CheckpointStrategy::RecomputeAll,
        ] {
            let mut engine = GradientEngine::new(
                &forward,
                "OUT",
                &kernel.wrt(),
                &symbols,
                &AdOptions { strategy },
            )
            .unwrap();
            results.push(engine.run(&inputs).unwrap().gradients.into_iter().collect());
        }
        for wrt in kernel.wrt() {
            assert!(
                allclose(&results[0][wrt], &results[1][wrt], 1e-10, 1e-12),
                "{name}: strategies disagree on gradient of {wrt}"
            );
        }
    }
}
