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
//! * execution counters are reproducible across runs;
//! * a session stays correct after a failed run (the reused slab is reset,
//!   and the next run matches a fresh session bit for bit), and every
//!   `compile` validates;
//! * two builds and differentiations of one program are one SDFG.

use std::collections::HashMap;

use dace_ad_repro::ad::checkpoint::apply_strategy;
use dace_ad_repro::ad::generate_backward;
use dace_ad_repro::frontend::lit;
use dace_ad_repro::npbench::{self, kernel_by_name, Preset};
use dace_ad_repro::prelude::*;
use dace_ad_repro::runtime::{MapPath, RuntimeError};
use dace_ad_repro::sdfg::{CmpOp, CondExpr, CondOperand, Edge};

const KERNELS: [&str; 4] = ["atax", "gemm", "mvt", "seidel2d"];

fn bits(t: &Tensor) -> Vec<u64> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn symbols(pairs: &[(&str, i64)]) -> HashMap<String, i64> {
    pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

/// `OUT = sum(sin(X) * 2)` — a small differentiable program.
fn small_program() -> Sdfg {
    let mut b = ProgramBuilder::new("small");
    let n = b.symbol("N");
    b.add_input("X", vec![n.clone()]).unwrap();
    b.add_transient("T", vec![n.clone()]).unwrap();
    b.add_scalar("OUT").unwrap();
    b.assign("T", ArrayExpr::a("X").sin().mul(ArrayExpr::s(2.0)));
    b.sum_into("OUT", "T", false);
    b.build().unwrap()
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

/// An `Outer` node whose operands fit each other but whose destination has
/// the wrong shape fails `compile()` with `ShapeMismatch`.
#[test]
fn wrong_shaped_outer_destination_fails_the_compile() {
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

    assert!(matches!(
        compile(&build(2), &Default::default()),
        Err(RuntimeError::ShapeMismatch { .. })
    ));
}

/// A library node's output tensor moves into the slab at its last plain
/// use: fanning one connector out to two arrays (and a `Wcr::Sum` edge)
/// still fills every destination, and `compile()` rejects a wrongly-shaped
/// one.
#[test]
fn library_output_fans_out_to_every_destination() {
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

    assert!(matches!(
        compile(&build(5), &Default::default()),
        Err(RuntimeError::ShapeMismatch { .. })
    ));
}

#[test]
fn session_recovers_after_failed_run() {
    // if P[0] > 0 { T = 3*X; T[99] = 1 (out of bounds) } else { T = 2*X };
    // OUT = sum(T).  The failing arm dirties T before erroring, so the next
    // run exercises the in-place slab reset.
    let build = || {
        let mut b = ProgramBuilder::new("failing_prog");
        let n = b.symbol("N");
        b.add_input("X", vec![n.clone()]).unwrap();
        b.add_input("P", vec![SymExpr::int(1)]).unwrap();
        b.add_transient("T", vec![n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        b.branch(
            CondExpr::Cmp {
                lhs: CondOperand::Element {
                    array: "P".into(),
                    index: vec![SymExpr::int(0)],
                },
                op: CmpOp::Gt,
                rhs: CondOperand::Const(0.0),
            },
            |b| {
                b.assign("T", ArrayExpr::a("X").mul(ArrayExpr::s(3.0)));
                b.assign_element("T", vec![SymExpr::int(99)], lit(1.0));
            },
            Some(Box::new(|b: &mut ProgramBuilder| {
                b.assign("T", ArrayExpr::a("X").mul(ArrayExpr::s(2.0)))
            })),
        );
        b.sum_into("OUT", "T", false);
        b.build().unwrap()
    };
    let sdfg = build();
    let syms = symbols(&[("N", 4)]);
    let x = dace_ad_repro::tensor::random::uniform(&[4], 31);

    let program = compile(&sdfg, &syms).unwrap();
    let mut session = program.session();
    session.set_input("X", x.clone()).unwrap();
    session
        .set_input("P", Tensor::from_vec(vec![1.0], &[1]).unwrap())
        .unwrap();
    assert!(session.run().is_err(), "the failing arm must error");

    // Same session, healthy arm: the reused slab must behave like new.
    session
        .set_input("P", Tensor::from_vec(vec![-1.0], &[1]).unwrap())
        .unwrap();
    let recovered = session.run().unwrap();
    let recovered_out = session.array("OUT").unwrap().data()[0];

    let mut fresh = program.session();
    fresh.set_input("X", x).unwrap();
    fresh
        .set_input("P", Tensor::from_vec(vec![-1.0], &[1]).unwrap())
        .unwrap();
    let fresh_report = fresh.run().unwrap();
    let fresh_out = fresh.array("OUT").unwrap().data()[0];

    assert_eq!(
        recovered_out.to_bits(),
        fresh_out.to_bits(),
        "post-failure run must match a fresh session bit for bit"
    );
    assert_eq!(
        bits(session.array("T").unwrap()),
        bits(fresh.array("T").unwrap())
    );
    assert_eq!(recovered.peak_bytes, fresh_report.peak_bytes);

    // And repeated successful runs stay stable.
    let again = session.run().unwrap();
    assert_eq!(again.peak_bytes, fresh_report.peak_bytes);
    assert_eq!(
        session.array("OUT").unwrap().data()[0].to_bits(),
        fresh_out.to_bits()
    );
}

#[test]
fn clear_bindings_resets_inputs_between_runs() {
    let sdfg = small_program();
    let syms = symbols(&[("N", 4)]);
    let mut session = compile(&sdfg, &syms).unwrap().session();
    session.set_input("X", Tensor::full(&[4], 0.5)).unwrap();
    session.run().unwrap();
    let with_input = session.array("OUT").unwrap().data()[0];
    assert!(with_input != 0.0);

    // After clearing, the stale X tensor is zeroed in place, so OUT becomes
    // sum(sin(0) * 2) = 0 — the same as a fresh session with no inputs.
    session.clear_bindings();
    session.run().unwrap();
    assert_eq!(session.array("OUT").unwrap().data()[0], 0.0);
}

/// The frontend, reversal and the checkpoint pass are deterministic down to
/// node and edge order: two independent builds and differentiations of every
/// kernel (and Listing 1), recompute slices included, are the same SDFG.
#[test]
fn two_builds_are_one_sdfg() {
    let gradient = |build: &dyn Fn() -> Sdfg, wrt: &[&str], syms: &HashMap<String, i64>| {
        let mut plan = generate_backward(&build(), "OUT", wrt).unwrap();
        apply_strategy(&mut plan, &CheckpointStrategy::RecomputeAll, syms).unwrap();
        plan.sdfg
    };
    let mut programs: Vec<(String, Sdfg, Sdfg)> = npbench::all_kernels()
        .iter()
        .map(|k| {
            let sizes = k.sizes(Preset::Test);
            let build = || k.build_dace(&sizes);
            let (wrt, syms) = (k.wrt(), k.symbols(&sizes));
            (
                k.name().to_string(),
                gradient(&build, &wrt, &syms),
                gradient(&build, &wrt, &syms),
            )
        })
        .collect();
    assert_eq!(programs.len(), 15);
    let syms = symbols(&[("N", 4)]);
    programs.push((
        "listing1".into(),
        gradient(&npbench::listing1, &["C", "D"], &syms),
        gradient(&npbench::listing1, &["C", "D"], &syms),
    ));
    for (name, first, second) in &programs {
        assert_eq!(first, second, "{name}");
    }
}

/// Every `compile` validates: a program that fails validation fails typed on
/// every call, including after a valid program of the same shape compiled.
#[test]
fn invalid_sdfg_fails_typed_on_every_call() {
    let syms = symbols(&[("N", 4)]);
    let valid = small_program();
    compile(&valid, &syms).unwrap();

    let mut undeclared = valid.clone();
    undeclared.states[0].graph.add_access("undeclared");
    // A dangling edge: same arrays, symbols and states as the valid program.
    let mut dangling = valid.clone();
    let edge = dangling.states[0].graph.edges[0].clone();
    dangling.states[0]
        .graph
        .edges
        .push(Edge { dst: 99, ..edge });
    for invalid in [&undeclared, &dangling] {
        for call in 1..=3 {
            let err = compile(invalid, &syms).unwrap_err();
            assert!(
                matches!(err, RuntimeError::InvalidSdfg { .. }),
                "call {call}: {err}"
            );
        }
    }
}

/// Every error lowering finds fails `compile()`, typed, whether or not a run
/// would reach the construct: each one below sits in the untaken arm of a
/// branch (`P[0] > 0` with `P = 0`) of a program that compiles and runs
/// without it.  `Err(code)` is a verifier diagnostic.
#[test]
fn every_lowering_error_fails_the_compile() {
    use dace_ad_repro::sdfg::{
        ArrayDesc, BranchRegion, ControlFlow, DataflowGraph, DiagCode, LibraryOp, Memlet,
        ScalarExpr as E, State, SymError, Tasklet,
    };
    type Edit = fn(&mut Sdfg, &mut DataflowGraph);
    // `A[1] = A[0]` in the untaken arm, after `edit`.
    let build = |edit: Edit| {
        let mut sdfg = Sdfg::new("untaken");
        let arrays = [
            ("P", vec![1]),
            ("A", vec![4]),
            ("M", vec![2, 3]),
            ("M2", vec![2, 3]),
        ];
        for (name, shape) in arrays {
            let shape = shape.into_iter().map(SymExpr::int).collect();
            sdfg.add_array(name, ArrayDesc::input(shape)).unwrap();
        }
        let mut g = DataflowGraph::new();
        let r = g.add_access("A");
        let t = g.add_tasklet(Tasklet::new("copy", "o", E::input("a")));
        let w = g.add_access("A");
        let at = |i: i64| Memlet::element("A", vec![SymExpr::int(i)]);
        g.add_edge(r, None, t, Some("a"), at(0));
        g.add_edge(t, Some("o"), w, None, at(1));
        edit(&mut sdfg, &mut g);
        let sid = sdfg.add_state(State {
            name: "untaken".into(),
            graph: g,
        });
        sdfg.cfg = ControlFlow::Branch(BranchRegion {
            cond: CondExpr::Cmp {
                lhs: CondOperand::Element {
                    array: "P".into(),
                    index: vec![SymExpr::int(0)],
                },
                op: CmpOp::Gt,
                rhs: CondOperand::Const(0.0),
            },
            then_body: Box::new(ControlFlow::State(sid)),
            else_body: None,
        });
        sdfg
    };
    let syms = HashMap::new();
    let mut session = compile(&build(|_, _| {}), &syms).unwrap().session();
    session.set_input("P", Tensor::zeros(&[1])).unwrap();
    session.set_input("A", Tensor::ones(&[4])).unwrap();
    session.run().unwrap();
    assert_eq!(session.array("A").unwrap().data(), &[1.0; 4]);

    let scalar = |what: &str| format!("whole-array memlet of `A` used as a scalar {what}");
    let cases: [(&str, Edit, Result<RuntimeError, DiagCode>); 7] = [
        (
            "in-edge without a connector",
            |_, g| g.edges[0].dst_conn = None,
            Err(DiagCode::BadConnector),
        ),
        (
            "out connector without an assignment",
            |_, g| g.edges[1].src_conn = Some("p".into()),
            Err(DiagCode::BadConnector),
        ),
        (
            "expression reads an unknown connector",
            |_, g| g.edges[0].dst_conn = Some("b".into()),
            Err(DiagCode::BadConnector),
        ),
        (
            "whole-array scalar read",
            |_, g| g.edges[0].memlet = Memlet::all("A"),
            Ok(RuntimeError::Malformed(scalar("read"))),
        ),
        (
            "whole-array scalar write",
            |_, g| g.edges[1].memlet = Memlet::all("A"),
            Ok(RuntimeError::Malformed(scalar("write"))),
        ),
        (
            "library destination of the wrong shape",
            |_, g| *g = DataflowGraph::library_call(LibraryOp::Transpose, &["M"], "M2", false),
            Ok(RuntimeError::ShapeMismatch {
                array: "M2".into(),
                expected: vec![2, 3],
                got: vec![3, 2],
            }),
        ),
        (
            "byte size beyond i64",
            |sdfg, _| {
                let huge = ArrayDesc::input(vec![SymExpr::int(i64::MAX / 4)]);
                sdfg.add_array("H", huge).unwrap();
            },
            Ok(RuntimeError::from(SymError::Overflow)),
        ),
    ];
    for (case, edit, expected) in cases {
        match (compile(&build(edit), &syms).unwrap_err(), expected) {
            (RuntimeError::InvalidSdfg { diagnostics }, Err(code)) => {
                let codes: Vec<_> = diagnostics.iter().map(|d| &d.code).collect();
                assert_eq!(codes, [&code], "{case}: {diagnostics:?}");
            }
            (err, Ok(expected)) => assert_eq!(err, expected, "{case}"),
            (err, Err(code)) => panic!("{case}: expected {code:?}, got {err}"),
        }
    }
}
