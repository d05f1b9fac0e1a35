//! Plan-compilation integration tests.
//!
//! The executor lowers every SDFG into a compiled execution plan before
//! running it (interned ids, register-compiled expressions, precomputed
//! orders).  These tests pin down the properties the plan layer must
//! preserve on the golden-gradient kernels of the paper's evaluation
//! (atax / gemm / mvt / seidel2d):
//!
//! * plan-compiled execution is **deterministic to the bit**: two runs of
//!   the same engine produce bit-identical outputs and gradients;
//! * the memory instrumentation is unchanged: `peak_bytes` is identical
//!   across runs and strictly positive;
//! * the gradients still cross-validate against the independent jax-rs
//!   baseline implementation (`allclose`, §V-A of the paper);
//! * execution counters are reproducible across runs.

use dace_ad_repro::npbench::{kernel_by_name, Preset};
use dace_ad_repro::prelude::*;
use dace_ad_repro::runtime::MapPath;

const KERNELS: [&str; 4] = ["atax", "gemm", "mvt", "seidel2d"];

fn bits(t: &Tensor) -> Vec<u64> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn plan_execution_is_bit_deterministic_on_golden_kernels() {
    for name in KERNELS {
        for strategy in [
            CheckpointStrategy::StoreAll,
            CheckpointStrategy::RecomputeAll,
        ] {
            let kernel = kernel_by_name(name).unwrap();
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
            .unwrap_or_else(|e| panic!("{name}: engine construction failed: {e}"));

            let first = engine.run(&inputs).unwrap();
            let second = engine.run(&inputs).unwrap();

            assert_eq!(
                first.output_value.to_bits(),
                second.output_value.to_bits(),
                "{name} [{strategy:?}]: forward outputs are not bit-identical"
            );
            for wrt in kernel.wrt() {
                assert_eq!(
                    bits(&first.gradients[wrt]),
                    bits(&second.gradients[wrt]),
                    "{name} [{strategy:?}]: gradient of {wrt} is not bit-identical across runs"
                );
            }
            assert!(first.report.peak_bytes > 0);
            assert_eq!(
                first.report.peak_bytes, second.report.peak_bytes,
                "{name} [{strategy:?}]: peak_bytes changed across runs"
            );
            assert_eq!(
                first.report.tasklet_invocations, second.report.tasklet_invocations,
                "{name} [{strategy:?}]: tasklet counters changed across runs"
            );
            assert_eq!(first.report.map_points, second.report.map_points);
            assert_eq!(
                first.report.state_executions,
                second.report.state_executions
            );
            assert_eq!(first.report.library_calls, second.report.library_calls);
        }
    }
}

#[test]
fn plan_execution_cross_validates_against_jax_baseline() {
    for name in KERNELS {
        let kernel = kernel_by_name(name).unwrap();
        let sizes = kernel.sizes(Preset::Test);
        let symbols = kernel.symbols(&sizes);
        let inputs = kernel.inputs(&sizes);
        let forward = kernel.build_dace(&sizes);
        let mut engine = GradientEngine::new(
            &forward,
            "OUT",
            &kernel.wrt(),
            &symbols,
            &AdOptions::default(),
        )
        .unwrap();
        let dace = engine.run(&inputs).unwrap();
        let jax = kernel.run_jax(&sizes, &inputs);
        assert!(
            (dace.output_value - jax.output).abs() <= 1e-6 * (1.0 + jax.output.abs()),
            "{name}: forward outputs differ"
        );
        for wrt in kernel.wrt() {
            assert!(
                allclose(&dace.gradients[wrt], &jax.gradients[wrt], 1e-5, 1e-7),
                "{name}: gradient of {wrt} deviates from the jax-rs baseline"
            );
        }
    }
}

/// The forced sequential VM must agree bit-for-bit with the auto-selected
/// path (the map kernel where attached) on a full forward SDFG, and report
/// the same memory peak.
#[test]
fn forced_sequential_path_matches_auto_on_golden_forward_passes() {
    for name in KERNELS {
        let kernel = kernel_by_name(name).unwrap();
        let sizes = kernel.sizes(Preset::Test);
        let symbols = kernel.symbols(&sizes);
        let inputs = kernel.inputs(&sizes);
        let forward = kernel.build_dace(&sizes);

        let run_with = |path: MapPath| {
            let mut session = compile(&forward, &symbols).unwrap().session();
            session.force_map_path(path);
            for (n, t) in &inputs {
                session.set_input(n, t.clone()).unwrap();
            }
            let report = session.run().unwrap();
            let out = session.array("OUT").unwrap().data()[0];
            (out, report)
        };
        let (auto_out, auto_report) = run_with(MapPath::Auto);
        let (seq_out, seq_report) = run_with(MapPath::Sequential);
        assert_eq!(
            auto_out.to_bits(),
            seq_out.to_bits(),
            "{name}: sequential path disagrees with auto path"
        );
        assert_eq!(auto_report.peak_bytes, seq_report.peak_bytes);
        assert_eq!(auto_report.map_points, seq_report.map_points);
        assert_eq!(
            auto_report.tasklet_invocations,
            seq_report.tasklet_invocations
        );
    }
}

/// An `Outer` node whose destination has the wrong shape compiles — its
/// operands fit each other — and keeps the destination's lazy marker: the
/// run that reaches the node reports `ShapeMismatch`.
#[test]
fn wrong_shaped_outer_destination_fails_the_run() {
    use dace_ad_repro::runtime::RuntimeError;
    use dace_ad_repro::sdfg::{ArrayDesc, ControlFlow, DataflowGraph, LibraryOp, State};
    let build = |rows: i64| {
        let mut sdfg = Sdfg::new("outer");
        for (name, shape) in [("x", vec![3]), ("y", vec![4]), ("A", vec![rows, 4])] {
            let shape = shape.into_iter().map(SymExpr::int).collect();
            sdfg.add_array(name, ArrayDesc::input(shape)).unwrap();
        }
        let sid = sdfg.add_state(State {
            name: "s".into(),
            graph: DataflowGraph::library_call(LibraryOp::Outer, &["x", "y"], "A", true),
        });
        sdfg.cfg = ControlFlow::State(sid);
        sdfg
    };
    let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
    let y = Tensor::from_vec(vec![1.0, 0.5, -1.0, 2.0], &[4]).unwrap();
    let mut session = compile(&build(3), &Default::default()).unwrap().session();
    session.set_input("x", x.clone()).unwrap();
    session.set_input("y", y.clone()).unwrap();
    session.run().unwrap();
    assert_eq!(session.array("A").unwrap(), &x.outer(&y).unwrap());

    let mut session = compile(&build(2), &Default::default()).unwrap().session();
    session.set_input("x", x).unwrap();
    session.set_input("y", y).unwrap();
    assert!(matches!(
        session.run(),
        Err(RuntimeError::ShapeMismatch { .. })
    ));
}

/// A library node's output tensor moves into the slab at its last plain
/// use: fanning one connector out to two arrays (and a `Wcr::Sum` edge)
/// still fills every destination, and a wrongly-shaped one is rejected.
#[test]
fn library_output_fans_out_to_every_destination() {
    use dace_ad_repro::runtime::RuntimeError;
    use dace_ad_repro::sdfg::{ArrayDesc, ControlFlow, DataflowGraph, LibraryOp, Memlet, State};
    let build = |b2_len: i64| {
        let mut sdfg = Sdfg::new("fanout");
        for (name, len) in [("A", 4), ("B1", 4), ("B2", b2_len), ("ACC", 4)] {
            sdfg.add_array(name, ArrayDesc::input(vec![SymExpr::int(len)]))
                .unwrap();
        }
        let mut g = DataflowGraph::new();
        let a = g.add_access("A");
        let copy = g.add_library(LibraryOp::Copy);
        g.add_edge(a, None, copy, Some("A"), Memlet::all("A"));
        for (name, wcr) in [("B1", false), ("ACC", true), ("B2", false)] {
            let node = g.add_access(name);
            let memlet = if wcr {
                Memlet::all(name).with_wcr_sum()
            } else {
                Memlet::all(name)
            };
            g.add_edge(copy, Some("B"), node, None, memlet);
        }
        let sid = sdfg.add_state(State {
            name: "s".into(),
            graph: g,
        });
        sdfg.cfg = ControlFlow::State(sid);
        sdfg
    };
    let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap();
    let mut session = compile(&build(4), &Default::default()).unwrap().session();
    session.set_input("A", a.clone()).unwrap();
    session.set_input("ACC", Tensor::ones(&[4])).unwrap();
    session.run().unwrap();
    assert_eq!(session.array("B1").unwrap().data(), a.data());
    assert_eq!(session.array("B2").unwrap().data(), a.data());
    assert_eq!(session.array("ACC").unwrap().data(), &[2.0, 3.0, 4.0, 5.0]);

    let mut session = compile(&build(5), &Default::default()).unwrap().session();
    session.set_input("A", a).unwrap();
    assert!(matches!(
        session.run(),
        Err(RuntimeError::ShapeMismatch { .. })
    ));
}
