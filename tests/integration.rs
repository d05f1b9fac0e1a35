//! Cross-crate integration tests: frontend → SDFG → AD engine → runtime,
//! validated against both the jax-rs baseline and finite differences.

use std::collections::HashMap;

use dace_ad_repro::ad::engine::{finite_difference_gradient, GradientResult};
use dace_ad_repro::frontend::{elem, lit};
use dace_ad_repro::prelude::*;

fn symbols(pairs: &[(&str, i64)]) -> HashMap<String, i64> {
    pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

/// The paper's Fig. 2 running example: a time-step loop where only part of
/// the computation contributes to the dependent output.
fn fig2_program() -> Sdfg {
    let mut b = ProgramBuilder::new("fig2");
    let s = b.symbol("S");
    let tsteps = b.symbol("TSTEPS");
    for name in ["M", "N", "O", "E"] {
        b.add_input(name, vec![s.clone()]).unwrap();
    }
    for name in ["A", "B", "C"] {
        b.add_transient(name, vec![s.clone()]).unwrap();
    }
    b.add_scalar("OUT").unwrap();
    b.for_range("t", 0, tsteps.clone(), |b| {
        b.assign("A", ArrayExpr::a("M").mul(ArrayExpr::s(2.0)));
        b.assign("B", ArrayExpr::a("M").mul(ArrayExpr::s(3.0)));
        b.assign("C", ArrayExpr::a("N").mul(ArrayExpr::s(4.0)));
        b.accumulate("E", ArrayExpr::a("C"));
        b.accumulate("O", ArrayExpr::a("A").add(ArrayExpr::a("B")).sin());
    });
    b.sum_into("OUT", "O", false);
    b.build().unwrap()
}

#[test]
fn fig2_gradients_flow_only_through_the_ccs() {
    let fwd = fig2_program();
    let syms = symbols(&[("S", 6), ("TSTEPS", 3)]);
    let mut inputs = HashMap::new();
    for (name, seed) in [("M", 1u64), ("N", 2), ("O", 3), ("E", 4)] {
        inputs.insert(
            name.to_string(),
            dace_ad_repro::tensor::random::uniform(&[6], seed).scale(0.3),
        );
    }
    let mut engine =
        GradientEngine::new(&fwd, "OUT", &["M", "N"], &syms, &AdOptions::default()).unwrap();
    // N does not contribute to O, so its gradient container should not even
    // exist; M's gradient must match finite differences.
    assert!(engine.plan().gradient_of("M").is_some());
    assert!(engine.plan().gradient_of("N").is_none());
    let result = engine.run(&inputs).unwrap();
    let fd = finite_difference_gradient(&fwd, "OUT", "M", &syms, &inputs, 1e-6).unwrap();
    assert!(allclose(&result.gradients["M"], &fd, 1e-4, 1e-7));
}

#[test]
fn gradient_program_is_a_single_valid_sdfg() {
    let fwd = fig2_program();
    let engine = GradientEngine::new(
        &fwd,
        "OUT",
        &["M"],
        &symbols(&[("S", 4), ("TSTEPS", 2)]),
        &AdOptions::default(),
    )
    .unwrap();
    let plan = engine.plan();
    assert!(plan
        .sdfg
        .validate()
        .iter()
        .all(|d| d.severity != dace_ad_repro::sdfg::Severity::Error));
    assert!(plan.backward_start_index > 0);
    assert_eq!(plan.output, "OUT");
}

#[test]
fn npbench_kernel_matches_baseline_end_to_end() {
    // One vectorized and one loop kernel through the full public API.
    for name in ["k2mm", "trmm"] {
        let kernel = dace_ad_repro::npbench::kernel_by_name(name).unwrap();
        let sizes = kernel.sizes(dace_ad_repro::npbench::Preset::Test);
        let inputs = kernel.inputs(&sizes);
        let dace =
            dace_ad_repro::npbench::runner::run_dace_gradients(kernel.as_ref(), &sizes, &inputs)
                .unwrap();
        let jax = kernel.run_jax(&sizes, &inputs);
        for wrt in kernel.wrt() {
            assert!(
                allclose(&dace.gradients[wrt], &jax.gradients[wrt], 1e-5, 1e-7),
                "{name}: gradient of {wrt} differs"
            );
        }
    }
}

#[test]
fn ilp_checkpointing_respects_measured_memory_limit() {
    // Listing-1 style chain; limit set below the store-all measured peak.
    let mut b = ProgramBuilder::new("chain");
    let n = b.symbol("N");
    b.add_input("X", vec![n.clone(), n.clone()]).unwrap();
    for t in ["T1", "T2", "T3", "T4", "S1", "S2", "S3"] {
        b.add_transient(t, vec![n.clone(), n.clone()]).unwrap();
    }
    b.add_scalar("OUT").unwrap();
    b.assign("T1", ArrayExpr::a("X").mul(ArrayExpr::s(2.0)));
    b.assign("S1", ArrayExpr::a("T1").sin());
    b.assign("T2", ArrayExpr::a("T1").mul(ArrayExpr::s(3.0)));
    b.assign("S2", ArrayExpr::a("T2").sin());
    b.assign("T3", ArrayExpr::a("T2").mul(ArrayExpr::s(4.0)));
    b.assign("S3", ArrayExpr::a("T3").sin());
    b.assign(
        "T4",
        ArrayExpr::a("S1")
            .add(ArrayExpr::a("S2"))
            .add(ArrayExpr::a("S3")),
    );
    b.sum_into("OUT", "T4", false);
    // The sin() sites force T1/T2/T3 to be forwarded to the backward pass;
    // all three are store/recompute candidates whose producer chains reach
    // back to the program input X.
    let fwd = b.build().unwrap();
    let syms = symbols(&[("N", 32)]);
    let mut inputs = HashMap::new();
    inputs.insert(
        "X".to_string(),
        dace_ad_repro::tensor::random::uniform(&[32, 32], 5),
    );

    let mut store = GradientEngine::new(&fwd, "OUT", &["X"], &syms, &AdOptions::default()).unwrap();
    let store_res = store.run(&inputs).unwrap();

    let limit = store_res.report.peak_bytes - 32 * 32 * 8;
    let mut ilp = GradientEngine::new(
        &fwd,
        "OUT",
        &["X"],
        &syms,
        &AdOptions {
            strategy: CheckpointStrategy::Ilp {
                memory_limit_bytes: limit,
            },
        },
    )
    .unwrap();
    let ilp_res = ilp.run(&inputs).unwrap();
    assert!(
        ilp_res.report.peak_bytes <= limit,
        "measured peak {} exceeds the limit {}",
        ilp_res.report.peak_bytes,
        limit
    );
    assert!(allclose(
        &store_res.gradients["X"],
        &ilp_res.gradients["X"],
        1e-8,
        1e-10
    ));
}

#[test]
fn session_reports_instrumentation() {
    let fwd = fig2_program();
    let syms = symbols(&[("S", 4), ("TSTEPS", 2)]);
    let mut session = compile(&fwd, &syms).unwrap().session();
    session.set_input("M", Tensor::ones(&[4])).unwrap();
    session.set_input("N", Tensor::ones(&[4])).unwrap();
    session.set_input("O", Tensor::zeros(&[4])).unwrap();
    session.set_input("E", Tensor::zeros(&[4])).unwrap();
    let report: ExecutionReport = session.run().unwrap();
    assert!(report.state_executions >= 10);
    assert!(report.map_points > 0);
    assert!(report.peak_bytes > 0);
}

#[test]
fn seidel_style_loop_gradient_matches_finite_differences() {
    let mut b = ProgramBuilder::new("mini_seidel");
    let n = b.symbol("N");
    let t = b.symbol("T");
    b.add_input("A", vec![n.clone(), n.clone()]).unwrap();
    b.add_scalar("OUT").unwrap();
    let (i, j) = (SymExpr::sym("i"), SymExpr::sym("j"));
    let one = SymExpr::int(1);
    b.for_range("t", 0, t.clone(), |b| {
        b.for_range("i", 1, n.sub(&one), |b| {
            b.for_range("j", 1, n.sub(&one), |b| {
                b.assign_element(
                    "A",
                    vec![i.clone(), j.clone()],
                    elem("A", vec![i.sub(&one), j.clone()])
                        .add(elem("A", vec![i.clone(), j.clone()]))
                        .add(elem("A", vec![i.add_int(1), j.clone()]))
                        .add(elem("A", vec![i.clone(), j.sub(&one)]))
                        .add(elem("A", vec![i.clone(), j.add_int(1)]))
                        .mul(lit(0.2)),
                );
            });
        });
    });
    b.sum_into("OUT", "A", false);
    let fwd = b.build().unwrap();
    let syms = symbols(&[("N", 5), ("T", 2)]);
    let mut inputs = HashMap::new();
    inputs.insert(
        "A".to_string(),
        dace_ad_repro::tensor::random::uniform(&[5, 5], 11),
    );
    let mut engine =
        GradientEngine::new(&fwd, "OUT", &["A"], &syms, &AdOptions::default()).unwrap();
    let result = engine.run(&inputs).unwrap();
    let fd = finite_difference_gradient(&fwd, "OUT", "A", &syms, &inputs, 1e-6).unwrap();
    assert!(allclose(&result.gradients["A"], &fd, 1e-4, 1e-7));
}

/// A returned gradient is the caller's to overwrite and to drop on any
/// thread: its storage goes home to the session it came from, and the next
/// run there — `run` and a batch item alike — is bit-identical to a fresh
/// engine's.  A gradient that outlives its engine is freed.
#[test]
fn a_gradient_dropped_anywhere_leaves_the_next_run_bit_identical() {
    type Bits = Vec<(String, Vec<u64>)>;
    fn bits(result: &GradientResult) -> Bits {
        let gradients = result.gradients.iter();
        gradients
            .map(|(wrt, g)| (wrt.clone(), g.data().iter().map(|v| v.to_bits()).collect()))
            .collect()
    }
    for name in ["gesummv", "atax"] {
        let kernel = dace_ad_repro::npbench::kernel_by_name(name).unwrap();
        let sizes = kernel.sizes(dace_ad_repro::npbench::Preset::Test);
        let inputs = kernel.inputs(&sizes);
        let sdfg = kernel.build_dace(&sizes);
        let syms = kernel.symbols(&sizes);
        let engine = || {
            GradientEngine::new(&sdfg, "OUT", &kernel.wrt(), &syms, &AdOptions::default()).unwrap()
        };
        let reference = bits(&engine().run(&inputs).unwrap());
        let mut engine = engine();
        for poison in [f64::NAN, -0.0, f64::INFINITY, f64::NEG_INFINITY] {
            let mut ran = engine.run(&inputs).unwrap();
            let batch = engine.run_batch(std::slice::from_ref(&inputs)).unwrap();
            let mut batched = batch.items.into_iter().next().unwrap();
            for result in [&ran, &batched] {
                assert_eq!(bits(result), reference, "{name}, before {poison}");
            }
            for result in [&mut ran, &mut batched] {
                result.gradients.values_mut().for_each(|g| g.fill(poison));
            }
            std::thread::spawn(move || drop((ran, batched)))
                .join()
                .unwrap();
        }
        let held = engine.run(&inputs).unwrap();
        drop(engine);
        assert_eq!(bits(&held), reference, "{name}");
        drop(held);
    }
}

/// Whether any state of a gradient program writes a container whose name
/// starts with `prefix`.
fn writes_container(plan: &BackwardPlan, prefix: &str) -> bool {
    let writes = |s: &dace_ad_repro::sdfg::State| s.graph.written_arrays();
    (plan.sdfg.states.iter().flat_map(writes)).any(|a| a.starts_with(prefix))
}

/// Activity analysis: AD stops at the `wrt` inputs.  In a dense layer whose
/// non-`wrt` input `x` multiplies the `wrt` weight `W`, `x` gets no gradient
/// container and no state computes one, and `W`'s gradient is the one it is
/// when `x` is differentiated too, bit for bit.
#[test]
fn a_dense_layer_differentiates_only_its_weight() {
    let mut b = ProgramBuilder::new("layer");
    let (batch, h) = (b.symbol("B"), b.symbol("H"));
    b.add_input("x", vec![batch.clone(), h.clone()]).unwrap();
    b.add_input("W", vec![h.clone(), h.clone()]).unwrap();
    for t in ["z", "a"] {
        b.add_transient(t, vec![batch.clone(), h.clone()]).unwrap();
    }
    b.add_scalar("OUT").unwrap();
    b.matmul("z", "x", "W");
    b.assign("a", ArrayExpr::a("z").relu());
    b.sum_into("OUT", "a", false);
    let fwd = b.build().unwrap();
    let syms = symbols(&[("B", 4), ("H", 5)]);
    // Uniform in [-1, 1), so that the relu cuts some of `z`.
    let random = |shape: &[usize], seed| {
        let u = dace_ad_repro::tensor::random::uniform(shape, seed);
        u.scale(2.0).add_scalar(-1.0)
    };
    let inputs = HashMap::from([
        ("x".to_string(), random(&[4, 5], 1)),
        ("W".to_string(), random(&[5, 5], 2)),
    ]);
    let options = AdOptions::default();
    let mut weight = GradientEngine::new(&fwd, "OUT", &["W"], &syms, &options).unwrap();
    assert!(weight.plan().gradient_of("x").is_none());
    assert!(!writes_container(weight.plan(), "grad_x"));
    let mut both = GradientEngine::new(&fwd, "OUT", &["x", "W"], &syms, &options).unwrap();
    assert!(writes_container(both.plan(), "grad_x"));
    let w = &weight.run(&inputs).unwrap().gradients["W"];
    assert_eq!(w, &both.run(&inputs).unwrap().gradients["W"]);
    let fd = finite_difference_gradient(&fwd, "OUT", "W", &syms, &inputs, 1e-6).unwrap();
    assert!(allclose(w, &fd, 1e-4, 1e-7));
}

/// mlp at the bench preset, differentiated for its weights only: no
/// `grad_x`, and the relu adjoints read the activations `h1` / `h2` (which
/// the product adjoints forward anyway), so `z1` / `z2` are not candidates
/// and no backward state reads them.
#[test]
fn mlp_forwards_its_activations_and_no_input_gradient() {
    use dace_ad_repro::npbench::{kernel_by_name, Preset};
    let mlp = kernel_by_name("mlp").unwrap();
    let sizes = mlp.sizes(Preset::Bench);
    let fwd = mlp.build_dace(&sizes);
    let engine = |strategy| {
        let options = AdOptions { strategy };
        GradientEngine::new(&fwd, "OUT", &mlp.wrt(), &mlp.symbols(&sizes), &options).unwrap()
    };
    let store_all = engine(CheckpointStrategy::StoreAll);
    let plan = store_all.plan();
    assert!(plan.gradient_of("x").is_none());
    assert!(!writes_container(plan, "grad_x"));
    let mut candidates: Vec<&str> = plan.candidates.iter().map(|c| c.array.as_str()).collect();
    candidates.sort();
    assert_eq!(candidates, ["h1", "h2"]);
    let dace_ad_repro::sdfg::ControlFlow::Sequence(top) = &plan.sdfg.cfg else {
        panic!("a gradient program is a sequence")
    };
    let backward = top[plan.backward_start_index..].iter();
    for sid in backward.flat_map(|item| item.states_in_order()) {
        let reads = plan.sdfg.states[sid].graph.read_arrays();
        assert!(!reads.contains("z1") && !reads.contains("z2"), "{reads:?}");
    }
    assert_eq!(plan.sdfg.states.len(), 19);
    let recompute_all = engine(CheckpointStrategy::RecomputeAll);
    assert!(!writes_container(recompute_all.plan(), "grad_x"));
    assert_eq!(recompute_all.plan().sdfg.states.len(), 25);
}
