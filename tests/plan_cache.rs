//! Plan-cache and session-reuse integration tests for the compile-once
//! execution API (`compile` → `CompiledProgram` → `Session`).
//!
//! Pinned properties:
//!
//! * hit/miss accounting: structurally identical (SDFG, symbols) pairs share
//!   one lowered plan; different symbols or different programs miss;
//! * repeated `GradientEngine::run` calls and a whole finite-difference
//!   validation sweep perform **exactly one** gradient lowering and one
//!   forward lowering (asserted via the cache counters);
//! * cold and cached runs produce bit-identical outputs, gradients and
//!   memory instrumentation;
//! * a session stays correct after a failed run: the reused slab is reset,
//!   and the next run matches a fresh session bit for bit.

use std::collections::HashMap;

use dace_ad_repro::ad::checkpoint::apply_strategy;
use dace_ad_repro::ad::engine::finite_difference_gradient;
use dace_ad_repro::ad::generate_backward;
use dace_ad_repro::frontend::lit;
use dace_ad_repro::npbench::{self, Preset};
use dace_ad_repro::prelude::*;
use dace_ad_repro::runtime::debug_fingerprint_sdfg;
use dace_ad_repro::sdfg::{
    ArrayDesc, BranchRegion, CmpOp, CondExpr, CondOperand, ControlFlow, DataflowGraph, DfNode,
    IndexRange, LibraryOp, LoopRegion, Memlet, ScalarExpr, State, Tasklet, Wcr,
};

fn symbols(pairs: &[(&str, i64)]) -> HashMap<String, i64> {
    pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

/// `OUT = sum(sin(X) * 2)` — a small differentiable program.  The `name`
/// parameter keeps fingerprints distinct across tests sharing the process.
fn small_program(name: &str) -> Sdfg {
    let mut b = ProgramBuilder::new(name);
    let n = b.symbol("N");
    b.add_input("X", vec![n.clone()]).unwrap();
    b.add_transient("T", vec![n.clone()]).unwrap();
    b.add_scalar("OUT").unwrap();
    b.assign("T", ArrayExpr::a("X").sin().mul(ArrayExpr::s(2.0)));
    b.sum_into("OUT", "T", false);
    b.build().unwrap()
}

fn bits(t: &Tensor) -> Vec<u64> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn compile_hits_cache_for_identical_programs() {
    let sdfg = small_program("cache_hit_prog");
    let syms = symbols(&[("N", 5)]);

    let p1 = compile(&sdfg, &syms).unwrap();
    assert!(!p1.cache_hit(), "first compile must lower");
    assert_eq!(p1.cache_stats().misses, 1);
    assert_eq!(p1.cache_stats().hits, 0);

    // Same SDFG value: hit.
    let p2 = compile(&sdfg, &syms).unwrap();
    assert!(p2.cache_hit());
    // A structurally identical SDFG built from scratch: also a hit.
    let p3 = compile(&small_program("cache_hit_prog"), &syms).unwrap();
    assert!(p3.cache_hit());
    assert_eq!(p3.fingerprint(), p1.fingerprint());
    assert_eq!(p3.cache_stats().misses, 1, "still exactly one lowering");
    assert_eq!(p3.cache_stats().hits, 2);

    // Different symbol values specialise differently: miss.
    let p4 = compile(&sdfg, &symbols(&[("N", 6)])).unwrap();
    assert!(!p4.cache_hit());
    assert_eq!(p4.fingerprint(), p1.fingerprint());

    // A different program: miss under a different fingerprint.
    let p5 = compile(&small_program("cache_hit_prog_b"), &syms).unwrap();
    assert!(!p5.cache_hit());
    assert_ne!(p5.fingerprint(), p1.fingerprint());

    // Global counters are monotone and visible.
    let totals = dace_ad_repro::runtime::plan_cache_stats();
    assert!(totals.misses >= 3);
    assert!(totals.hits >= 2);
}

#[test]
fn gradient_engine_lowers_once_across_runs() {
    let fwd = small_program("engine_reuse_prog");
    let syms = symbols(&[("N", 8)]);
    let mut inputs = HashMap::new();
    inputs.insert(
        "X".to_string(),
        dace_ad_repro::tensor::random::uniform(&[8], 17),
    );

    let mut engine =
        GradientEngine::new(&fwd, "OUT", &["X"], &syms, &AdOptions::default()).unwrap();
    let first = engine.run(&inputs).unwrap();
    let second = engine.run(&inputs).unwrap();
    let third = engine.run(&inputs).unwrap();

    // Exactly one gradient lowering across all runs, visible both on the
    // per-run reports and on the program handle.
    assert_eq!(first.report.plan_cache_misses, 1);
    assert_eq!(third.report.plan_cache_misses, 1);
    assert_eq!(engine.gradient_program().cache_stats().misses, 1);

    // Cold and cached runs are bit-identical, including instrumentation.
    for r in [&second, &third] {
        assert_eq!(first.output_value.to_bits(), r.output_value.to_bits());
        assert_eq!(bits(&first.gradients["X"]), bits(&r.gradients["X"]));
        assert_eq!(first.report.peak_bytes, r.report.peak_bytes);
        assert_eq!(
            first.report.tasklet_invocations,
            r.report.tasklet_invocations
        );
    }

    // A second engine over the same forward program reuses the cached
    // gradient plan (backward generation is deterministic).
    let mut engine2 =
        GradientEngine::new(&fwd, "OUT", &["X"], &syms, &AdOptions::default()).unwrap();
    assert!(
        engine2.gradient_program().cache_hit(),
        "second engine must reuse the cached gradient plan"
    );
    let cached = engine2.run(&inputs).unwrap();
    assert_eq!(first.output_value.to_bits(), cached.output_value.to_bits());
    assert_eq!(bits(&first.gradients["X"]), bits(&cached.gradients["X"]));
}

#[test]
fn fd_validation_lowers_forward_once() {
    let fwd = small_program("fd_once_prog");
    let syms = symbols(&[("N", 6)]);
    let mut inputs = HashMap::new();
    inputs.insert(
        "X".to_string(),
        dace_ad_repro::tensor::random::uniform(&[6], 23),
    );

    // Free-function sweep: 2 × 6 forward evaluations, one lowering.  The
    // follow-up `compile` of the same pair must therefore be a hit whose
    // entry records exactly one miss.
    let fd = finite_difference_gradient(&fwd, "OUT", "X", &syms, &inputs, 1e-6).unwrap();
    let probe = compile(&fwd, &syms).unwrap();
    assert!(probe.cache_hit());
    assert_eq!(
        probe.cache_stats().misses,
        1,
        "the FD sweep must lower the forward SDFG exactly once"
    );

    // The engine's forward runs reuse that lowering, and AD agrees with
    // the sweep.
    let mut engine =
        GradientEngine::new(&fwd, "OUT", &["X"], &syms, &AdOptions::default()).unwrap();
    let ad = engine.run(&inputs).unwrap();
    assert_eq!(engine.run_forward(&inputs).unwrap(), ad.output_value);
    assert_eq!(compile(&fwd, &syms).unwrap().cache_stats().misses, 1);
    assert!(allclose(&ad.gradients["X"], &fd, 1e-4, 1e-7));
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
    let sdfg = small_program("rebind_prog");
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

/// One small program with every kind of field the fingerprint must see:
/// `T[0] = X[0] * 1.0 + 0.0`, then `for k in 0..N step 1: if k < 3.0:
/// Y = A @ T`.
fn specimen() -> Sdfg {
    let n = SymExpr::sym("N");
    let mut s = Sdfg::new("specimen");
    s.add_symbol("N");
    for (name, shape, transient) in [
        ("X", vec![n.clone()], false),
        ("A", vec![n.clone(), n.clone()], false),
        ("T", vec![n.clone()], true),
        ("Y", vec![n.clone()], false),
    ] {
        let desc = if transient {
            ArrayDesc::transient(shape)
        } else {
            ArrayDesc::input(shape)
        };
        s.add_array(name, desc).unwrap();
    }
    let mut g = DataflowGraph::new();
    let x = g.add_access("X");
    let expr = ScalarExpr::input("x")
        .mul(ScalarExpr::c(1.0))
        .add(ScalarExpr::c(0.0));
    let t = g.add_tasklet(Tasklet::new("scale", "out", expr));
    let out = g.add_access("T");
    g.add_edge(
        x,
        None,
        t,
        Some("x"),
        Memlet::element("X", vec![SymExpr::int(0)]),
    );
    g.add_edge(
        t,
        Some("out"),
        out,
        None,
        Memlet::element("T", vec![SymExpr::int(0)]),
    );
    let scale = s.add_state(State {
        name: "scale".into(),
        graph: g,
    });
    let product = s.add_state(State {
        name: "product".into(),
        graph: DataflowGraph::library_call(LibraryOp::MATVEC, &["A", "T"], "Y", false),
    });
    s.cfg = ControlFlow::Sequence(vec![
        ControlFlow::State(scale),
        ControlFlow::Loop(LoopRegion {
            var: "k".into(),
            start: SymExpr::int(0),
            end: n,
            step: SymExpr::int(1),
            body: Box::new(ControlFlow::Branch(BranchRegion {
                cond: CondExpr::Cmp {
                    lhs: CondOperand::Sym(SymExpr::sym("k")),
                    op: CmpOp::Lt,
                    rhs: CondOperand::Const(3.0),
                },
                then_body: Box::new(ControlFlow::State(product)),
                else_body: None,
            })),
        }),
    ]);
    assert!(s.validate().is_empty(), "{:?}", s.validate());
    s
}

fn specimen_tasklet(s: &mut Sdfg) -> &mut Tasklet {
    let DfNode::Tasklet(t) = &mut s.states[0].graph.nodes[1] else {
        panic!("node 1 of `scale` is its tasklet");
    };
    t
}

/// The constant on the right of the specimen tasklet's `Add` (`add == true`)
/// or of the `Mul` under it.
fn specimen_const(s: &mut Sdfg, add: bool) -> &mut f64 {
    let ScalarExpr::Bin(_, mul, addend) = &mut specimen_tasklet(s).code[0].1 else {
        panic!("the tasklet is a sum");
    };
    let ScalarExpr::Bin(_, _, factor) = &mut **mul else {
        panic!("of a product");
    };
    match &mut **if add { addend } else { factor } {
        ScalarExpr::Const(v) => v,
        other => panic!("not a constant: {other:?}"),
    }
}

fn specimen_loop(s: &mut Sdfg) -> &mut LoopRegion {
    let ControlFlow::Sequence(top) = &mut s.cfg else {
        panic!("the specimen is a sequence");
    };
    let ControlFlow::Loop(l) = &mut top[1] else {
        panic!("whose second item is the loop");
    };
    l
}

fn specimen_cond(s: &mut Sdfg) -> (&mut CmpOp, &mut CondOperand) {
    let ControlFlow::Branch(b) = &mut *specimen_loop(s).body else {
        panic!("the loop body is the branch");
    };
    let CondExpr::Cmp { op, rhs, .. } = &mut b.cond else {
        panic!("on a comparison");
    };
    (op, rhs)
}

/// The guard against a field a hand-written `Hash` forgets (or a derive a
/// later type lacks): every single-field mutation of the specimen moves the
/// fingerprint, and no two of them move it to the same value.
#[test]
fn fingerprint_sees_every_field() {
    type Mutation = (&'static str, fn(&mut Sdfg));
    let mutations: [Mutation; 25] = [
        ("program name", |s| s.name = "other".into()),
        ("symbol name", |s| s.symbols[0] = "M".into()),
        ("array name", |s| {
            let desc = s.arrays.remove("T").unwrap();
            s.arrays.insert("T2".into(), desc);
        }),
        ("shape dimension", |s| {
            s.arrays.get_mut("A").unwrap().shape[1] = SymExpr::int(4)
        }),
        ("transient flag", |s| {
            s.arrays.get_mut("T").unwrap().transient = false
        }),
        ("dtype", |s| {
            s.arrays.get_mut("X").unwrap().dtype = DType::F32
        }),
        ("state name", |s| s.states[0].name = "other".into()),
        ("tasklet label", |s| {
            specimen_tasklet(s).label = "other".into()
        }),
        ("output connector", |s| {
            specimen_tasklet(s).code[0].0 = "o".into()
        }),
        ("constant 1.0 -> 2.0", |s| *specimen_const(s, false) = 2.0),
        ("constant 0.0 -> -0.0", |s| *specimen_const(s, true) = -0.0),
        ("input connector", |s| {
            s.states[0].graph.edges[0].dst_conn = Some("y".into())
        }),
        ("memlet index", |s| {
            s.states[0].graph.edges[0].memlet.subset.0[0] = IndexRange::idx(SymExpr::int(1))
        }),
        ("memlet container", |s| {
            s.states[0].graph.edges[0].memlet.data = "Y".into()
        }),
        ("wcr", |s| {
            s.states[0].graph.edges[1].memlet.wcr = Some(Wcr::Sum)
        }),
        ("MatVec trans_a", |s| {
            s.states[1].graph.nodes[2] = DfNode::Library(LibraryOp::MatVec { trans_a: true })
        }),
        ("loop iterator", |s| specimen_loop(s).var = "j".into()),
        ("loop bound", |s| {
            specimen_loop(s).end = SymExpr::sym("N").add_int(-1)
        }),
        ("loop step", |s| specimen_loop(s).step = SymExpr::int(2)),
        ("comparison", |s| *specimen_cond(s).0 = CmpOp::Le),
        ("condition constant", |s| {
            *specimen_cond(s).1 = CondOperand::Const(4.0)
        }),
        ("else arm", |s| {
            let ControlFlow::Branch(b) = &mut *specimen_loop(s).body else {
                panic!("the loop body is the branch");
            };
            b.else_body = Some(Box::new(ControlFlow::Sequence(Vec::new())));
        }),
        ("state order", |s| s.states.swap(0, 1)),
        ("node order", |s| s.states[0].graph.nodes.swap(0, 2)),
        ("edge order", |s| s.states[0].graph.edges.swap(0, 1)),
    ];
    let base = specimen();
    assert_eq!(
        debug_fingerprint_sdfg(&base),
        debug_fingerprint_sdfg(&specimen()),
        "the fingerprint is a function of the structure"
    );
    let mut seen = vec![("unchanged", debug_fingerprint_sdfg(&base))];
    for (what, mutate) in mutations {
        let mut mutant = base.clone();
        mutate(&mut mutant);
        // By the rendering, not `==`: `0.0 == -0.0`, and they are two programs.
        assert_ne!(format!("{mutant:?}"), format!("{base:?}"), "{what}");
        let fingerprint = debug_fingerprint_sdfg(&mutant);
        if let Some((other, _)) = seen.iter().find(|(_, f)| *f == fingerprint) {
            panic!("`{what}` hashes like `{other}`");
        }
        seen.push((what, fingerprint));
    }
}

/// The frontend, reversal and the checkpoint pass are deterministic down to
/// node and edge order: two independent builds and differentiations of every
/// kernel (and Listing 1), recompute slices included, are the same SDFG,
/// hence one cache key — what lets a second engine reuse the plan.
#[test]
fn independent_gradient_programs_share_a_fingerprint() {
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
        assert_eq!(
            debug_fingerprint_sdfg(first),
            debug_fingerprint_sdfg(second),
            "{name}"
        );
    }
    // And no two programs share one.
    let mut fingerprints: Vec<u64> = programs
        .iter()
        .map(|(_, g, _)| debug_fingerprint_sdfg(g))
        .collect();
    fingerprints.sort_unstable();
    fingerprints.dedup();
    assert_eq!(fingerprints.len(), programs.len());
}
