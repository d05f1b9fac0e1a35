//! Specialization-tier integration tests.
//!
//! The plan compiler attaches one native kernel, the N-D affine kernel, at
//! two sites: every single-tasklet affine map, and every unit-step
//! control-flow loop over a single single-tasklet affine state — elementwise
//! bodies, fixed-radius stencils, reduction/contraction bodies (see
//! `crates/runtime/src/spec.rs`).  These tests pin down the
//! tier's contract:
//!
//! * the specialized path is **bit-identical** to the register VM on every
//!   loop kernel of the paper's evaluation, on the gradient programs of all
//!   fifteen kernels, and on randomly generated affine bodies — loop
//!   nests (random offsets, scale factors and aliasing, including reads of
//!   the written array, several writes, duplicate connectors, range starts
//!   and a read-and-written scalar) and 2-/3-parameter maps (permuted,
//!   partial, constant and offset indices, WCR and plain writes,
//!   multi-assignment tasklets), both with a family of several writes
//!   into one array, whose sweeps a strip must order;
//! * execution counters (`tasklet_invocations`, `state_executions`,
//!   `map_points`) are identical across `SpecMode::{Auto, ForceOff}`,
//!   mirroring the `MapPath` parity guarantees;
//! * `Auto` actually dispatches the kernel on the figure loop kernels and
//!   on the map kernels (the recognizer covers them) from the first
//!   opportunity on, and every large map of the BLAS gradient programs
//!   attaches it (none of them is an outer-product map);
//! * a map or a loop whose access leaves its array falls back to the VM and
//!   fails exactly as the VM does, partial writes included;
//! * the reversed loop nests of the `grad_loops` gradient programs attach
//!   the kernel at the depth of their forward counterparts, except the
//!   sites listed by name with their typed reason.

use std::collections::HashMap;

use dace_ad_repro::frontend::{elem, iter_val, lit};
use dace_ad_repro::npbench::{all_kernels, kernel_by_name, listing1, Preset};
use dace_ad_repro::prelude::*;
use dace_ad_repro::runtime::{MapStrategy, RowMode, SpecMode};
use dace_ad_repro::sdfg::Sdfg;

const LOOP_KERNELS: [&str; 6] = ["seidel2d", "jacobi2d", "syrk", "syr2k", "trmm", "conv2d"];
/// The map/library kernels: the `grad_blas` workload of the benchmark.
const BLAS_KERNELS: [&str; 8] = [
    "atax", "bicg", "gemm", "gesummv", "k2mm", "k3mm", "mvt", "mlp",
];

fn bits(t: &Tensor) -> Vec<u64> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Run a kernel's forward SDFG under one specialization mode and return the
/// bit patterns of every named array plus the execution report.
fn run_forward(
    sdfg: &Sdfg,
    symbols: &HashMap<String, i64>,
    inputs: &HashMap<String, Tensor>,
    mode: SpecMode,
) -> (HashMap<String, Vec<u64>>, ExecutionReport) {
    let mut session = compile(sdfg, symbols).unwrap().session();
    session.force_specialization(mode);
    for (n, t) in inputs {
        session.set_input(n, t.clone()).unwrap();
    }
    let report = session.run().unwrap();
    let mut arrays = HashMap::new();
    for name in inputs.keys().map(String::as_str).chain(["OUT"]) {
        arrays.insert(name.to_string(), bits(session.array(name).unwrap()));
    }
    (arrays, report)
}

/// The specialized path must agree bit-for-bit with the pure VM on every
/// loop kernel of the evaluation, with identical execution counters, and it
/// must actually fire: these bodies are exactly the shapes the recognizer
/// exists for.
#[test]
fn specialized_path_is_bit_identical_on_loop_kernels() {
    for name in LOOP_KERNELS {
        let kernel = kernel_by_name(name).unwrap();
        let sizes = kernel.sizes(Preset::Test);
        let symbols = kernel.symbols(&sizes);
        let inputs = kernel.inputs(&sizes);
        let sdfg = kernel.build_dace(&sizes);

        let (off_arrays, off_report) = run_forward(&sdfg, &symbols, &inputs, SpecMode::ForceOff);
        let (auto_arrays, auto_report) = run_forward(&sdfg, &symbols, &inputs, SpecMode::Auto);

        assert_eq!(
            off_report.specialized_dispatches, 0,
            "{name}: ForceOff dispatched"
        );
        assert!(
            auto_report.specialized_dispatches > 0,
            "{name}: Auto never dispatched a specialized kernel"
        );
        for (arr, off_bits) in &off_arrays {
            assert_eq!(
                off_bits, &auto_arrays[arr],
                "{name}: specialized {arr} differs from the VM"
            );
        }
        assert_eq!(
            off_report.tasklet_invocations, auto_report.tasklet_invocations,
            "{name}: tasklet counter diverged"
        );
        assert_eq!(
            off_report.state_executions, auto_report.state_executions,
            "{name}: state counter diverged"
        );
        assert_eq!(
            off_report.map_points, auto_report.map_points,
            "{name}: map-point counter diverged"
        );
    }
}

/// The forward map/library kernels run their maps on the N-D map kernel
/// under `Auto` and on the VM under `ForceOff`: identical outputs and
/// counters either way, and the kernel actually fires.
#[test]
fn map_kernels_are_bit_identical_across_spec_modes() {
    for name in BLAS_KERNELS {
        let kernel = kernel_by_name(name).unwrap();
        let sizes = kernel.sizes(Preset::Test);
        let symbols = kernel.symbols(&sizes);
        let inputs = kernel.inputs(&sizes);
        let sdfg = kernel.build_dace(&sizes);

        // Some forwards (atax, mvt, ...) are library calls only.
        let maps = compile(&sdfg, &symbols).unwrap().map_strategies().len() as u64;
        let (off_arrays, off_report) = run_forward(&sdfg, &symbols, &inputs, SpecMode::ForceOff);
        assert_eq!(off_report.specialized_dispatches, 0, "{name}: ForceOff");
        let (arrays, report) = run_forward(&sdfg, &symbols, &inputs, SpecMode::Auto);
        assert_eq!(report.specialized_dispatches, maps, "{name}");
        for (arr, off_bits) in &off_arrays {
            assert_eq!(off_bits, &arrays[arr], "{name}: {arr} differs");
        }
        assert_eq!(off_report.tasklet_invocations, report.tasklet_invocations);
        assert_eq!(off_report.state_executions, report.state_executions);
        assert_eq!(off_report.map_points, report.map_points);
    }
}

/// The gradient program `GradientEngine` compiles for one program under
/// `options` leaves bitwise the VM's arrays on the native kernels — output,
/// gradients and whatever else is still allocated (inputs updated in place,
/// tapes) —, with equal counters, and the kernels fire.
fn assert_gradient_parity(
    name: &str,
    sdfg: &Sdfg,
    wrt: &[&str],
    symbols: &HashMap<String, i64>,
    inputs: &HashMap<String, Tensor>,
    options: &AdOptions,
) {
    let engine = GradientEngine::new(sdfg, "OUT", wrt, symbols, options).unwrap();
    let plan = engine.plan();
    let run = |mode: SpecMode| {
        let mut session = engine
            .gradient_program()
            .session()
            .with_free_hints(&plan.free_hints);
        session.force_specialization(mode);
        for (n, t) in inputs {
            session.set_input(n, t.clone()).unwrap();
        }
        let report = session.run().unwrap();
        let gradients = plan.inputs.iter().map(|i| &plan.gradients[i]);
        for array in std::iter::once(&plan.output).chain(gradients) {
            assert!(session.array(array).is_some(), "{name}: `{array}` is gone");
        }
        let arrays: Vec<(&String, Vec<u64>)> = plan
            .sdfg
            .arrays
            .keys()
            .filter_map(|array| Some((array, bits(session.array(array)?))))
            .collect();
        (arrays, report)
    };
    let (off_arrays, off) = run(SpecMode::ForceOff);
    let (on_arrays, on) = run(SpecMode::Auto);
    assert_eq!(off.specialized_dispatches, 0, "{name}: ForceOff dispatched");
    assert!(on.specialized_dispatches > 0, "{name}: kernel never fired");
    assert_eq!(
        off_arrays, on_arrays,
        "{name}: an array differs from the VM"
    );
    assert_eq!(off.tasklet_invocations, on.tasklet_invocations, "{name}");
    assert_eq!(off.state_executions, on.state_executions, "{name}");
    assert_eq!(off.map_points, on.map_points, "{name}");
}

fn assert_kernel_gradient_parity(name: &str, preset: Preset, options: &AdOptions) {
    let kernel = kernel_by_name(name).unwrap();
    let sizes = kernel.sizes(preset);
    assert_gradient_parity(
        name,
        &kernel.build_dace(&sizes),
        &kernel.wrt(),
        &kernel.symbols(&sizes),
        &kernel.inputs(&sizes),
        options,
    );
}

/// The gradient programs `GradientEngine` compiles for all fifteen kernels
/// — the BLAS kernels' outer-product, transpose- and broadcast-accumulate
/// maps and the multi-assignment adjoint tasklets of reversed elementwise
/// maps, and the loop kernels' reversed loop nests — produce bitwise the
/// VM's gradients on the native kernels, with equal counters.
#[test]
fn blas_gradients_are_bit_identical_on_the_map_kernel() {
    for kernel in all_kernels() {
        assert_kernel_gradient_parity(kernel.name(), Preset::Test, &AdOptions::default());
    }
}

/// The same at the bench preset, where rows fill strips and cross strip
/// boundaries (at the test preset most rows are shorter than the short-row
/// constant and never leave the per-point path).
#[test]
fn gradients_are_bit_identical_at_the_bench_preset() {
    for kernel in all_kernels() {
        assert_kernel_gradient_parity(kernel.name(), Preset::Bench, &AdOptions::default());
    }
}

/// The checkpointing classes of the benchmark's `ckpt_ilp` workload —
/// Listing-1 and mlp under store-all, the ILP at the frozen limit and
/// recompute-all, at the bench sizes: recompute slices re-run forward maps
/// between the adjoint ones, under free hints.
#[test]
fn checkpointed_gradients_are_bit_identical_at_the_bench_preset() {
    // The paper's Listing-1 over 96 x 96 arrays: three `sin` sites whose
    // inputs must be forwarded to the backward pass.
    let listing1 = listing1();
    let n = 96usize;
    let symbols = HashMap::from([("N".to_string(), n as i64)]);
    let fill = |seed: f64| {
        let data = (0..n * n).map(|k| (k as f64 * 0.37 + seed).sin());
        Tensor::from_vec(data.collect(), &[n, n]).unwrap()
    };
    let inputs = HashMap::from([("C".to_string(), fill(0.1)), ("D".to_string(), fill(2.3))]);
    // Under store-all, the ILP at the limit `perfbench` froze for the
    // program, and recompute-all.
    let strategies = |limit: usize| {
        [
            CheckpointStrategy::StoreAll,
            CheckpointStrategy::Ilp {
                memory_limit_bytes: limit,
            },
            CheckpointStrategy::RecomputeAll,
        ]
    };
    for strategy in strategies(12 * n * n * 8 + 16) {
        let name = format!("listing1 under {strategy:?}");
        let options = AdOptions { strategy };
        assert_gradient_parity(&name, &listing1, &["C", "D"], &symbols, &inputs, &options);
    }
    for strategy in strategies(860_176) {
        assert_kernel_gradient_parity("mlp", Preset::Bench, &AdOptions { strategy });
    }
}

/// Every map of at least 1000 points in the bench-preset gradient programs
/// of the BLAS kernels attaches the map kernel: a `reverse.rs` change that
/// drops an adjoint shape back onto the VM fails here, not in a benchmark.
/// No gradient program holds an outer-product map: the `MatVec` adjoint's
/// `gA += gy ⊗ x` is one `Outer` library node, so atax, bicg, mvt and
/// gesummv have no map of 1000 points left.
#[test]
fn large_blas_gradient_maps_attach_the_map_kernel() {
    use dace_ad_repro::sdfg::DfNode;
    for name in BLAS_KERNELS {
        let kernel = kernel_by_name(name).unwrap();
        let sizes = kernel.sizes(Preset::Bench);
        let engine = GradientEngine::new(
            &kernel.build_dace(&sizes),
            "OUT",
            &kernel.wrt(),
            &kernel.symbols(&sizes),
            &AdOptions::default(),
        )
        .unwrap();
        let maps = engine.gradient_program().map_strategies();
        let large: Vec<_> = maps.iter().filter(|m| m.points >= Some(1000)).collect();
        let matvec_only = ["atax", "bicg", "mvt", "gesummv"].contains(&name);
        assert_eq!(large.is_empty(), matvec_only, "{name}: {large:?}");
        for m in large {
            assert_eq!(m.strategy, MapStrategy::Kernel, "{name}: {m:?}");
        }
        for state in &engine.plan().sdfg.states {
            let is_map = |n: &DfNode| matches!(n, DfNode::MapScope(_));
            assert!(
                !(state.name.starts_with("adj_outer_") && state.graph.nodes.iter().any(is_map)),
                "{name}: `{}` is an outer-product map",
                state.name
            );
        }
    }
}

/// The `Outer` library node computes what the outer-product map it replaced
/// in the `MatVec` adjoint computed, bit for bit: the map is rebuilt here as
/// the reverse pass used to emit it (`dst[i, j] += gy[i] * x[j]`, one WCR
/// tasklet over a 2-D map), both run under `SpecMode::Auto` (the map on the
/// kernel, in strips) and `ForceOff` (the map on the VM), over operands
/// holding ±0, subnormals, ±inf and NaN, into a zeroed and a non-zero
/// destination.  The one exception is NaN + NaN, whose sign is the add's
/// operand order, which the compiler chooses.
#[test]
fn outer_library_node_is_bit_identical_to_the_outer_map() {
    use dace_ad_repro::sdfg::{
        ArrayDesc, ControlFlow, DataflowGraph, LibraryOp, MapScope, Memlet, ScalarExpr as E, State,
        Tasklet,
    };
    let (m, n) = (5usize, 300usize);
    let outer_map = || {
        let (i, j) = (SymExpr::sym("__oi"), SymExpr::sym("__oj"));
        let mut body = DataflowGraph::new();
        let gy = body.add_access("gy");
        let x = body.add_access("x");
        let t = body.add_tasklet(Tasklet::new(
            "outer",
            "out",
            E::input("g").mul(E::input("v")),
        ));
        let d = body.add_access("dst");
        body.add_edge(
            gy,
            None,
            t,
            Some("g"),
            Memlet::element("gy", vec![i.clone()]),
        );
        body.add_edge(x, None, t, Some("v"), Memlet::element("x", vec![j.clone()]));
        let at = Memlet::element("dst", vec![i, j]).with_wcr_sum();
        body.add_edge(t, Some("out"), d, None, at);
        let mut g = DataflowGraph::new();
        let (gy, x) = (g.add_access("gy"), g.add_access("x"));
        let map = g.add_map(MapScope {
            params: vec!["__oi".into(), "__oj".into()],
            ranges: vec![
                (SymExpr::int(0), SymExpr::int(m as i64)),
                (SymExpr::int(0), SymExpr::int(n as i64)),
            ],
            body,
        });
        let d = g.add_access("dst");
        g.add_edge(gy, None, map, None, Memlet::all("gy"));
        g.add_edge(x, None, map, None, Memlet::all("x"));
        g.add_edge(map, None, d, None, Memlet::all("dst").with_wcr_sum());
        g
    };
    let program = |graph: DataflowGraph| {
        let mut sdfg = Sdfg::new("outer");
        for (name, shape) in [("gy", vec![m]), ("x", vec![n]), ("dst", vec![m, n])] {
            let shape = shape.into_iter().map(|d| SymExpr::int(d as i64)).collect();
            sdfg.add_array(name, ArrayDesc::input(shape)).unwrap();
        }
        let sid = sdfg.add_state(State {
            name: "adj_outer".into(),
            graph,
        });
        sdfg.cfg = ControlFlow::State(sid);
        sdfg
    };
    let library = DataflowGraph::library_call(LibraryOp::Outer, &["gy", "x"], "dst", true);
    let (map_sdfg, library_sdfg) = (program(outer_map()), program(library));

    let tiny = f64::MIN_POSITIVE / 8.0;
    let specials = [
        0.0,
        -0.0,
        tiny,
        -tiny,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        1.5,
        -3.25,
        1e300,
        f64::MIN_POSITIVE,
    ];
    let pick = |k: usize| specials[k % specials.len()];
    let gy = Tensor::from_fn(&[m], |i| pick(i[0] * 3 + 1));
    let x = Tensor::from_fn(&[n], |i| pick(i[0] * 7 + i[0] / 11));
    for dst in [
        Tensor::zeros(&[m, n]),
        Tensor::from_fn(&[m, n], |i| pick(i[0] * 5 + i[1] * 2 + 3)),
    ] {
        for mode in [SpecMode::Auto, SpecMode::ForceOff] {
            let run = |sdfg: &Sdfg| {
                let mut session = compile(sdfg, &HashMap::new()).unwrap().session();
                session.force_specialization(mode);
                for (name, t) in [("gy", &gy), ("x", &x), ("dst", &dst)] {
                    session.set_input(name, t.clone()).unwrap();
                }
                let report = session.run().unwrap();
                (bits(session.array("dst").unwrap()), report)
            };
            let (from_map, map_report) = run(&map_sdfg);
            let (from_library, library_report) = run(&library_sdfg);
            assert_eq!(
                map_report.specialized_dispatches > 0,
                mode == SpecMode::Auto,
                "the map runs on the kernel exactly under `Auto`"
            );
            assert_eq!(library_report.library_calls, 1);
            assert!(from_map.iter().any(|b| f64::from_bits(*b).is_nan()));
            // Where a NaN product meets a NaN destination, IEEE 754 lets the
            // sum be either NaN and the compiler may commute the add: the
            // map's own VM and kernel disagree on its sign there.  Every
            // other element is bit-equal.
            let nan = |b: u64| f64::from_bits(b).is_nan();
            for (k, (a, b)) in from_map.iter().zip(&from_library).enumerate() {
                let product = gy.data()[k / n] * x.data()[k % n];
                let both_nan = product.is_nan() && dst.data()[k].is_nan();
                assert!(
                    a == b || (both_nan && nan(*a) && nan(*b)),
                    "{mode:?} [{}, {}]: map {a:#x}, library {b:#x}",
                    k / n,
                    k % n
                );
            }
        }
    }
}

/// Where the loop site stands on the `grad_loops` gradient programs.  The
/// gradient program lists the forward sweep's loop sites and then their
/// reversals (step `-1` over a single multi-assignment `adj_*` tasklet) in
/// reverse order, at the same depths: a perfect rectangular nest is one
/// site (`syrk`'s `j <= i` rows stay 1-deep under the dependent bound, its
/// `k`/`j` nest collapses below it).  Every site attaches the kernel except
/// the ones named here with their typed reason.
#[test]
fn backward_loops_attach_except_the_named_sites() {
    use dace_ad_repro::runtime::KernelMiss;
    // (kernel, depth of every forward loop site, declined gradient sites,
    // why the loop around the sites took none of them into a deeper nest).
    let imperfect = Some(KernelMiss::ImperfectNest);
    type Row = (
        &'static str,
        &'static [usize],
        &'static [usize],
        Option<KernelMiss>,
    );
    let table: [Row; 7] = [
        // The time loop runs two map states per step, in both sweeps.
        ("jacobi1d", &[1], &[0, 1], None),
        ("seidel2d", &[3], &[], None),
        // Two sweeps per time step.
        ("jacobi2d", &[2, 2], &[], imperfect),
        // The `i` loop holds the `beta` rows and the `k`/`j` nest.
        ("syrk", &[1, 2], &[], imperfect),
        ("syr2k", &[1, 2], &[], imperfect),
        // The forward `k` body saves the operand `B[k, j]` to the tape as
        // one more assignment and write of its own tasklet: still one state.
        // The `j` loop holds the `k` loop and the `alpha` scaling.
        ("trmm", &[1], &[], imperfect),
        ("conv2d", &[4], &[], None),
    ];
    for (name, depths, declined, enclosing) in table {
        let kernel = kernel_by_name(name).unwrap();
        let sizes = kernel.sizes(Preset::Test);
        let symbols = kernel.symbols(&sizes);
        let sdfg = kernel.build_dace(&sizes);
        let forward = compile(&sdfg, &symbols).unwrap().loop_strategies();
        let forward_depths: Vec<usize> = forward.iter().map(|l| l.depth).collect();
        assert_eq!(forward_depths, depths, "{name}: {forward:?}");
        let engine =
            GradientEngine::new(&sdfg, "OUT", &kernel.wrt(), &symbols, &AdOptions::default())
                .unwrap();
        let loops = engine.gradient_program().loop_strategies();
        let mirrored: Vec<usize> = depths.iter().chain(depths.iter().rev()).copied().collect();
        let gradient_depths: Vec<usize> = loops.iter().map(|l| l.depth).collect();
        assert_eq!(gradient_depths, mirrored, "{name}: {loops:?}");
        for (site, l) in loops.iter().enumerate() {
            let expected = if declined.contains(&site) {
                MapStrategy::Vm(KernelMiss::MultiStateBody)
            } else {
                MapStrategy::Kernel
            };
            assert_eq!(l.strategy, expected, "{name}: site {site} of {loops:?}");
            assert_eq!(l.enclosing, enclosing, "{name}: site {site} of {loops:?}");
        }
    }
}

/// How the attached sites' rows run in the bench-preset gradient programs
/// of all fifteen kernels: in strips with one sweep per write, except the
/// sites named here.  Per point run the bodies that read an array they
/// write at another index than the write — both sweeps of seidel2d (the
/// forward reads `A[i, j-1]`, its reversal reads the gradient at `[i, j]`
/// and accumulates into its neighbours) and both of trmm's `k` rows (the
/// forward reads `B[k, j]` while accumulating into `B[i, j]`, its reversal
/// reads the gradient of `B` at `[i, j]` while accumulating into it at
/// `[k, j]`).  In strips, but with the writes applied point by point, run
/// the reversed `k`/`j` nests of syrk and syr2k: along `j` the adjoint
/// accumulates into `grad_A[i, k]`, one element, and into `grad_A[j, k]`,
/// which passes it at `j = i`.  What is listed here is what the strip
/// evaluator, or its write sweeps, do not reach.
#[test]
fn per_point_sites_of_the_gradient_programs_are_the_named_ones() {
    // (kernel, loop sites of the gradient program that run per point, and
    // those that run in strips but write per point).
    type Row = (&'static str, &'static [usize], &'static [usize]);
    let named: [Row; 4] = [
        ("seidel2d", &[0, 1], &[]),
        ("trmm", &[0, 1], &[]),
        ("syrk", &[], &[2]),
        ("syr2k", &[], &[2]),
    ];
    for kernel in all_kernels() {
        let name = kernel.name();
        let sizes = kernel.sizes(Preset::Bench);
        let engine = GradientEngine::new(
            &kernel.build_dace(&sizes),
            "OUT",
            &kernel.wrt(),
            &kernel.symbols(&sizes),
            &AdOptions::default(),
        )
        .unwrap();
        // No tape store of the fifteen needs a state of its own (they are
        // folded into the tasklet that reads the value).
        let states = &engine.plan().sdfg.states;
        assert!(states.iter().all(|s| !s.name.ends_with("_store")), "{name}");
        let program = engine.gradient_program();
        let running = |sites: &[dace_ad_repro::runtime::MapInfo], mode: RowMode| -> Vec<usize> {
            let rows = sites.iter().enumerate();
            rows.filter(|(_, m)| m.rows == Some(mode))
                .map(|(site, _)| site)
                .collect()
        };
        let (maps, loops) = (program.map_strategies(), program.loop_strategies());
        for m in maps.iter().chain(&loops) {
            assert_eq!(
                m.rows.is_some(),
                m.strategy == MapStrategy::Kernel,
                "{name}: {m:?}"
            );
        }
        let (_, carried, unordered) =
            (named.iter().find(|(k, ..)| *k == name)).unwrap_or(&("", &[], &[]));
        for (mode, expected) in [
            (RowMode::PerPointCarriedRead, carried),
            (RowMode::StripsUnorderedWrites, unordered),
        ] {
            assert_eq!(running(&maps, mode), [0usize; 0], "{name}: maps, {mode}");
            assert_eq!(
                running(&loops, mode),
                *expected,
                "{name}: loop sites, {mode}"
            );
        }
    }
}

/// What lowering records on a map's plan node.  The two maps the dependence
/// verdict used to keep on the VM — a proven race into one element, and a
/// read beside the written element (disjoint by parity) — attach the kernel
/// with their rows per point; a map the kernel cannot take records why: a
/// read of the written array at a symbolic offset (equal strides, so the
/// relation is undecidable), and a non-affine read.
#[test]
fn declined_maps_carry_a_typed_reason() {
    use dace_ad_repro::runtime::KernelMiss;
    let i = SymExpr::sym("i");
    let carried = (MapStrategy::Kernel, Some(RowMode::PerPointCarriedRead));
    let declined = |why| (MapStrategy::Vm(why), None);
    let cases = [
        ("A", vec![SymExpr::int(0)], vec![i.clone()], carried),
        (
            "A",
            vec![i.mul_int(2)],
            vec![i.mul_int(2).add_int(1)],
            carried,
        ),
        (
            "A",
            vec![i.clone()],
            vec![i.add(&SymExpr::sym("M"))],
            declined(KernelMiss::AliasedReadAtOtherIndex),
        ),
        (
            "X",
            vec![i.clone()],
            vec![i.mul(&i)],
            declined(KernelMiss::NonAffineIndex),
        ),
    ];
    for (src, write, read, (strategy, rows)) in cases {
        let mut b = ProgramBuilder::new("declined");
        let n = b.symbol("N");
        b.symbol("M");
        b.add_input("X", vec![n.mul(&n)]).unwrap();
        b.add_input("A", vec![n.mul_int(2).add_int(1)]).unwrap();
        b.map_assign(
            "A",
            &[("i", SymExpr::int(0), n.clone())],
            write,
            elem(src, read).mul(lit(2.0)),
        );
        let symbols = HashMap::from([("N".to_string(), 6i64), ("M".to_string(), 6i64)]);
        let maps = compile(&b.build().unwrap(), &symbols)
            .unwrap()
            .map_strategies();
        assert_eq!(maps.len(), 1);
        assert_eq!(maps[0].points, Some(6));
        assert_eq!((maps[0].strategy, maps[0].rows), (strategy, rows));
    }
}

/// A 2-D map whose write leaves the array in its last column: the kernel's
/// corner check declines the dispatch and the VM raises its exact error
/// after the same partial writes.
#[test]
fn out_of_range_map_falls_back_to_the_vm_error() {
    let mut b = ProgramBuilder::new("map_oob");
    let n = b.symbol("N");
    let wide = n.add_int(1);
    b.add_input("X", vec![n.clone(), wide.clone()]).unwrap();
    b.add_input("Y", vec![n.clone(), n.clone()]).unwrap();
    let (i, j) = (SymExpr::sym("i"), SymExpr::sym("j"));
    b.map_assign(
        "Y",
        &[
            ("i", SymExpr::int(0), n.clone()),
            ("j", SymExpr::int(0), wide),
        ],
        vec![i.clone(), j.clone()],
        elem("X", vec![i, j]).mul(lit(2.0)),
    );
    let sdfg = b.build().unwrap();
    let symbols = HashMap::from([("N".to_string(), 5i64)]);
    let x = Tensor::from_vec((0..30).map(|v| v as f64 + 1.0).collect(), &[5, 6]).unwrap();
    let run = |mode: SpecMode| {
        let mut session = compile(&sdfg, &symbols).unwrap().session();
        session.force_specialization(mode);
        session.set_input("X", x.clone()).unwrap();
        let err = session.run().unwrap_err();
        (err, bits(session.array("Y").unwrap()))
    };
    let (off_err, off_y) = run(SpecMode::ForceOff);
    let (on_err, on_y) = run(SpecMode::Auto);
    assert_eq!(off_err, on_err);
    assert_eq!(off_y, on_y);
    // The VM wrote row 0 before failing on `Y[0, 5]`.
    let row0: Vec<u64> = x.data()[..5].iter().map(|v| (v * 2.0).to_bits()).collect();
    assert_eq!(off_y[..5], row0[..]);
    assert!(off_y[5..].iter().all(|&b| b == 0));
}

/// The loop counterpart: a loop whose write leaves the array at its last
/// iteration — walking up (`Y[N]`) or down (`Y[-1]`, the lowest index) —
/// the same loop with its input missing, and a 2-deep nest whose far corner
/// `Z[N-1, N]` is out of range.  The kernel's validation declines every
/// dispatch (of the whole nest, then of each row) before allocating or
/// writing anything, and the VM raises its exact error after the same
/// partial writes.
#[test]
fn out_of_range_loop_falls_back_to_the_vm_error() {
    let i = SymExpr::sym("i");
    let j = SymExpr::sym("j");
    let build = |down: bool, nested: bool| {
        let mut b = ProgramBuilder::new("loop_oob");
        let n = b.symbol("N");
        b.add_input("X", vec![n.add_int(1)]).unwrap();
        b.add_input("Y", vec![n.clone()]).unwrap();
        b.add_input("Z", vec![n.clone(), n.clone()]).unwrap();
        let (start, end, step) = match down {
            false => (SymExpr::int(0), n.add_int(1), 1),
            true => (n.add_int(-1), SymExpr::int(-2), -1),
        };
        b.for_range_step("i", start, end, step, |b| {
            let x = elem("X", vec![i.clone()]).mul(lit(2.0));
            if nested {
                b.for_range("j", 0, n.add_int(1), |b| {
                    b.assign_element("Z", vec![i.clone(), j.clone()], x);
                });
            } else {
                b.assign_element("Y", vec![i.clone()], x);
            }
        });
        b.build().unwrap()
    };
    let symbols = HashMap::from([("N".to_string(), 5i64)]);
    let x = Tensor::from_vec((0..6).map(|v| v as f64 + 1.0).collect(), &[6]).unwrap();
    let run = |sdfg: &Sdfg, depth: usize, mode: SpecMode, x: Option<&Tensor>| {
        let program = compile(sdfg, &symbols).unwrap();
        let sites = program.loop_strategies();
        assert_eq!(sites[0].strategy, MapStrategy::Kernel);
        assert_eq!(sites[0].depth, depth);
        let mut session = program.session();
        session.force_specialization(mode);
        session.set_input("Y", Tensor::zeros(&[5])).unwrap();
        session.set_input("Z", Tensor::zeros(&[5, 5])).unwrap();
        if let Some(x) = x {
            session.set_input("X", x.clone()).unwrap();
        }
        let err = session.run().unwrap_err();
        let written = ["Y", "Z"].map(|a| bits(session.array(a).unwrap()));
        (err, written)
    };
    let doubled: Vec<u64> = x.data()[..5].iter().map(|v| (v * 2.0).to_bits()).collect();

    // Either direction writes all of `Y` before failing on `Y[5]` / `Y[-1]`.
    for down in [false, true] {
        let sdfg = build(down, false);
        let (off_err, off) = run(&sdfg, 1, SpecMode::ForceOff, Some(&x));
        let (on_err, on) = run(&sdfg, 1, SpecMode::Auto, Some(&x));
        assert_eq!(off_err, on_err, "down: {down}");
        assert_eq!(off, on, "down: {down}");
        assert_eq!(off[0], doubled, "down: {down}");
    }

    // The input missing: nothing is written.
    let sdfg = build(false, false);
    let (off_err, off) = run(&sdfg, 1, SpecMode::ForceOff, None);
    let (on_err, on) = run(&sdfg, 1, SpecMode::Auto, None);
    assert_eq!(off_err, on_err);
    assert_eq!(off, on);
    assert!(off[0].iter().all(|&b| b == 0));

    // The nest: the VM fills row 0 (descending: row 4) of `Z` with the
    // row's value of `X`, then fails one past its end.
    for down in [false, true] {
        let sdfg = build(down, true);
        let (off_err, off) = run(&sdfg, 2, SpecMode::ForceOff, Some(&x));
        let (on_err, on) = run(&sdfg, 2, SpecMode::Auto, Some(&x));
        assert_eq!(off_err, on_err, "down: {down}");
        assert_eq!(off, on, "down: {down}");
        let row = if down { 4 } else { 0 };
        for (at, &b) in off[1].iter().enumerate() {
            let expected = if at / 5 == row { doubled[row] } else { 0 };
            assert_eq!(b, expected, "down: {down}, Z[{}, {}]", at / 5, at % 5);
        }
    }
}

/// `Auto` mode has no warm-up: a loop site dispatches its kernel on the
/// first opportunity and on every later one, with stable results and
/// counters across the runs of a session.
#[test]
fn auto_mode_upgrades_after_warmup() {
    // One dispatch opportunity per run: a single innermost control-flow loop.
    let mut b = ProgramBuilder::new("spec_warmup");
    let n = b.symbol("N");
    b.add_input("X", vec![n.clone()]).unwrap();
    b.add_input("Y", vec![n.clone()]).unwrap();
    let i = SymExpr::sym("i");
    b.for_range("i", 0, n.clone(), |b| {
        b.assign_element(
            "Y",
            vec![i.clone()],
            elem("X", vec![i.clone()]).mul(lit(3.0)),
        );
    });
    let sdfg = b.build().unwrap();
    let symbols = HashMap::from([("N".to_string(), 16i64)]);
    let x = Tensor::from_vec((0..16).map(|v| v as f64 * 0.25).collect(), &[16]).unwrap();

    let mut session = compile(&sdfg, &symbols).unwrap().session();
    session.set_input("X", x.clone()).unwrap();
    let mut reference: Option<Vec<u64>> = None;
    let mut counters: Option<(u64, u64)> = None;
    for run in 0..5 {
        let report = session.run().unwrap();
        assert_eq!(
            report.specialized_dispatches, 1,
            "run {run}: unexpected dispatch count"
        );
        let y = bits(session.array("Y").unwrap());
        match &reference {
            None => reference = Some(y),
            Some(r) => assert_eq!(r, &y, "run {run}: result changed"),
        }
        match counters {
            None => counters = Some((report.tasklet_invocations, report.state_executions)),
            Some((t, s)) => {
                assert_eq!(
                    report.tasklet_invocations, t,
                    "run {run}: tasklet counter changed"
                );
                assert_eq!(
                    report.state_executions, s,
                    "run {run}: state counter changed"
                );
            }
        }
    }
}

/// Named row shapes against the VM, each as the row `for j` (two strips and
/// three points long, unless the shape says otherwise) of a `for i in 0..3`
/// nest over one tasklet: the strip row's gathers, sweeps and write orders
/// one at a time, and the shapes that must stay per point.  The last four
/// are the rows of a 2-D map instead, `(i, j)` over `0..3 × 1..1 + n` for
/// every `n` of `MAP_ROWS`: bodies the dependence analyzer proves racy,
/// which the kernel runs all the same, in the VM's order.  `G` holds `1e16,
/// 1, -1e16, ..`, so that a sum into one element depends on the order of
/// its terms.
#[test]
fn named_row_shapes_match_the_vm() {
    use dace_ad_repro::sdfg::{
        analyze_map, ArrayDesc, ControlFlow, DataflowGraph, LoopRegion, MapScope, Memlet,
        ParVerdict, ScalarExpr as E, State, Tasklet, UnOp, STRIP,
    };
    /// Either side of the kernel's short-row constant and of a strip
    /// boundary, and two strips and a part.
    const MAP_ROWS: [i64; 6] = [3, 4, 127, 128, 129, 300];
    let len = (2 * STRIP + 3) as i64;
    let (i, j) = (SymExpr::sym("i"), SymExpr::sym("j"));
    let at = |dj: i64| vec![i.clone(), j.add_int(dj)];
    let x = || E::input("x");
    type Read = (&'static str, &'static str, Vec<SymExpr>);
    type Write = (&'static str, &'static str, Vec<SymExpr>, bool);
    struct Shape {
        name: &'static str,
        /// `j` walks `start, start + step, ..` up to `end` (exclusive) as a
        /// loop; `None`: `j` is the row parameter of the 2-D map.
        walk: Option<(i64, SymExpr, i64)>,
        reads: Vec<Read>,
        code: Vec<(&'static str, E)>,
        writes: Vec<Write>,
        rows: RowMode,
    }
    let up = || Some((1, SymExpr::int(1 + len), 1));
    let origin = || vec![SymExpr::int(0), SymExpr::int(0)];
    let general = || E::un(UnOp::Sin, x()).mul(E::c(2.0)).add(E::input("y"));
    let adjoint = |offsets: &[i64]| Shape {
        name: "WCR writes into one array at neighbouring offsets",
        walk: up(),
        reads: vec![("x", "G", at(0)), ("y", "A", at(0))],
        code: vec![("d", x().mul(E::input("y")).add(x()))],
        writes: offsets.iter().map(|&dj| ("d", "C", at(dj), true)).collect(),
        rows: RowMode::Strips,
    };
    let shapes = vec![
        Shape {
            name: "ascending walk",
            walk: up(),
            reads: vec![("x", "A", at(0)), ("y", "B", at(1))],
            code: vec![("o", general())],
            writes: vec![("o", "C", at(0), false)],
            rows: RowMode::Strips,
        },
        Shape {
            name: "descending walk",
            walk: Some((len, SymExpr::int(0), -1)),
            reads: vec![("x", "A", at(0)), ("y", "B", at(1))],
            code: vec![("o", general())],
            writes: vec![("o", "C", at(0), true)],
            rows: RowMode::Strips,
        },
        Shape {
            name: "negative flat step under an ascending walk, and a stride of two",
            walk: up(),
            reads: vec![
                ("x", "A", vec![i.clone(), SymExpr::int(len + 1).sub(&j)]),
                ("y", "B", vec![i.clone(), j.mul_int(2)]),
            ],
            code: vec![("o", general())],
            writes: vec![
                (
                    "o",
                    "C",
                    vec![i.clone(), SymExpr::int(len + 1).sub(&j)],
                    false,
                ),
                ("o", "D", vec![i.clone(), j.mul_int(2)], true),
            ],
            rows: RowMode::Strips,
        },
        Shape {
            name: "step-0 WCR destination",
            walk: up(),
            reads: vec![("x", "G", at(0)), ("y", "A", at(0))],
            code: vec![("o", x().add(E::input("y")))],
            writes: vec![("o", "C", vec![i.clone(), SymExpr::int(0)], true)],
            rows: RowMode::Strips,
        },
        adjoint(&[-1, 1]),
        adjoint(&[-1, 0, 1]),
        Shape {
            name: "a clear under accumulations at equal and higher offsets",
            walk: Some((len, SymExpr::int(0), -1)),
            reads: vec![("x", "G", at(0)), ("y", "A", at(0))],
            code: vec![("clear", E::c(0.0)), ("d", x().add(E::input("y")))],
            writes: vec![
                ("d", "C", at(1), true),
                ("clear", "C", at(0), false),
                ("d", "C", at(0), true),
                ("d", "D", at(0), true),
            ],
            rows: RowMode::Strips,
        },
        Shape {
            name: "writes into one array at unequal steps",
            walk: up(),
            reads: vec![("x", "G", at(0)), ("y", "A", at(0))],
            code: vec![("d", x().add(E::input("y")))],
            writes: vec![
                ("d", "C", at(0), true),
                ("d", "C", vec![i.clone(), j.mul_int(2)], true),
            ],
            rows: RowMode::StripsUnorderedWrites,
        },
        Shape {
            name: "a step-0 accumulation sharing its array with a moving write",
            walk: up(),
            reads: vec![("x", "G", at(0)), ("y", "A", at(0))],
            code: vec![("d", x().add(E::input("y")))],
            writes: vec![
                ("d", "C", vec![i.clone(), SymExpr::int(5)], true),
                ("d", "C", at(0), true),
            ],
            rows: RowMode::StripsUnorderedWrites,
        },
        Shape {
            name: "read-modify-write at the written index",
            walk: up(),
            reads: vec![("x", "A", at(0)), ("y", "C", at(0))],
            code: vec![("o", E::c(1.5).mul(x()).add(E::c(1.2).mul(E::input("y"))))],
            writes: vec![("o", "C", at(0), false)],
            rows: RowMode::Strips,
        },
        Shape {
            name: "read-modify-write of one element",
            walk: up(),
            reads: vec![
                ("x", "G", at(0)),
                ("y", "C", vec![i.clone(), SymExpr::int(0)]),
            ],
            code: vec![("o", x().add(E::input("y")))],
            writes: vec![("o", "C", vec![i.clone(), SymExpr::int(0)], false)],
            // Lowering sees equal subsets; the dispatch sees the step 0.
            rows: RowMode::Strips,
        },
        Shape {
            name: "Gauss-Seidel read at j - 1",
            walk: up(),
            reads: vec![("x", "C", at(-1)), ("y", "A", at(0))],
            code: vec![("o", general())],
            writes: vec![("o", "C", at(0), false)],
            rows: RowMode::PerPointCarriedRead,
        },
        Shape {
            name: "duplicate connector slots, moving and fixed",
            walk: up(),
            reads: vec![
                ("x", "A", at(0)),
                ("y", "A", at(1)),
                ("x", "B", at(0)),
                ("y", "B", vec![i.clone(), SymExpr::int(2)]),
            ],
            code: vec![("o", general())],
            writes: vec![("o", "C", at(0), false)],
            rows: RowMode::Strips,
        },
        Shape {
            name: "row-invariant, inner- and outer-iterator operands",
            walk: up(),
            reads: vec![
                ("x", "A", at(0)),
                ("y", "B", vec![i.clone(), SymExpr::int(3)]),
            ],
            code: vec![("o", general().mul(E::iter("j")).sub(E::iter("i")))],
            writes: vec![("o", "C", at(0), false)],
            rows: RowMode::Strips,
        },
        Shape {
            name: "a slot-free assignment beside a general one",
            walk: up(),
            reads: vec![("x", "C", at(0)), ("y", "A", at(0))],
            code: vec![
                ("clear", E::c(0.0)),
                ("d", x().mul(E::un(UnOp::Cos, E::input("y")))),
            ],
            writes: vec![("clear", "C", at(0), false), ("d", "D", at(0), true)],
            rows: RowMode::Strips,
        },
        Shape {
            // The nest is triangular: one dispatch per row.
            name: "rows of 7, 8 and 9 points",
            walk: Some((1, i.add_int(8), 1)),
            reads: vec![("x", "A", at(0)), ("y", "B", at(1))],
            code: vec![("o", general())],
            writes: vec![
                ("o", "C", at(0), false),
                ("o", "D", vec![i.clone(), j.add(&i)], false),
            ],
            rows: RowMode::Strips,
        },
        Shape {
            name: "map: read-modify-write of one element through plain memlets",
            walk: None,
            reads: vec![("x", "G", at(0)), ("y", "C", origin())],
            code: vec![("o", x().add(E::input("y")))],
            writes: vec![("o", "C", origin(), false)],
            // Lowering sees equal subsets; the dispatch sees the step 0.
            rows: RowMode::Strips,
        },
        Shape {
            name: "map: the last point wins a plain write of one element",
            walk: None,
            reads: vec![("x", "A", at(0)), ("y", "B", at(1))],
            code: vec![("o", general())],
            writes: vec![("o", "C", origin(), false)],
            rows: RowMode::Strips,
        },
        Shape {
            name: "map: plain writes of neighbouring points meeting in one element",
            walk: None,
            reads: vec![("x", "A", at(0)), ("y", "B", at(1))],
            code: vec![("o", general()), ("p", x().mul(E::input("y")))],
            writes: vec![("o", "C", at(0), false), ("p", "C", at(1), false)],
            rows: RowMode::Strips,
        },
        Shape {
            name: "map: a read one element behind a plain write",
            walk: None,
            reads: vec![("x", "C", at(-1)), ("y", "A", at(0))],
            code: vec![("o", general())],
            writes: vec![("o", "C", at(0), false)],
            rows: RowMode::PerPointCarriedRead,
        },
    ];
    let loop_rows = [len];
    let cases = shapes.iter().enumerate().flat_map(|(n, shape)| {
        let rows = match shape.walk {
            Some(_) => &loop_rows[..],
            None => &MAP_ROWS[..],
        };
        rows.iter().map(move |&row| (n, shape, row))
    });
    for (n, shape, row) in cases {
        let name = format!("shape {n} ({}), rows of {row}", shape.name);
        let width = 2 * row + 4;
        let mut sdfg = Sdfg::new("row_shape");
        let dims = vec![SymExpr::int(3), SymExpr::int(width)];
        for array in ["A", "B", "C", "D", "G"] {
            sdfg.add_array(array, ArrayDesc::input(dims.clone()))
                .unwrap();
        }
        let mut g = DataflowGraph::new();
        let code = shape.code.iter().map(|(o, e)| (o.to_string(), e.clone()));
        let t = g.add_tasklet(Tasklet::multi("t", code.collect()));
        for (conn, array, idx) in &shape.reads {
            let node = g.add_access(*array);
            g.add_edge(
                node,
                None,
                t,
                Some(*conn),
                Memlet::element(*array, idx.clone()),
            );
        }
        for (conn, array, idx, wcr) in &shape.writes {
            let (node, m) = (g.add_access(*array), Memlet::element(*array, idx.clone()));
            g.add_edge(
                t,
                Some(*conn),
                node,
                None,
                if *wcr { m.with_wcr_sum() } else { m },
            );
        }
        let level = |var: &str, (start, end, step): (i64, SymExpr, i64), body: ControlFlow| {
            ControlFlow::Loop(LoopRegion {
                var: var.into(),
                start: SymExpr::int(start),
                end,
                step: SymExpr::int(step),
                body: Box::new(body),
            })
        };
        if let Some(walk) = &shape.walk {
            let sid = sdfg.add_state(State {
                name: "body".into(),
                graph: g,
            });
            let row = level("j", walk.clone(), ControlFlow::State(sid));
            sdfg.cfg = level("i", (0, SymExpr::int(3), 1), row);
        } else {
            let map = MapScope {
                params: vec!["i".into(), "j".into()],
                ranges: vec![
                    (SymExpr::int(0), SymExpr::int(3)),
                    (SymExpr::int(1), SymExpr::int(1 + row)),
                ],
                body: g,
            };
            let verdict = analyze_map(&map, &HashMap::new());
            assert!(matches!(verdict, ParVerdict::Race(_)), "{name}: {verdict}");
            let mut state = DataflowGraph::new();
            let m = state.add_map(map);
            for (_, array, _) in &shape.reads {
                let node = state.add_access(*array);
                state.add_edge(node, None, m, None, Memlet::all(*array));
            }
            for (_, array, _, _) in &shape.writes {
                let node = state.add_access(*array);
                state.add_edge(m, None, node, None, Memlet::all(*array));
            }
            let sid = sdfg.add_state(State {
                name: "map".into(),
                graph: state,
            });
            sdfg.cfg = ControlFlow::State(sid);
        }

        let program = compile(&sdfg, &HashMap::new()).unwrap();
        let sites = match shape.walk {
            Some(_) => program.loop_strategies(),
            None => program.map_strategies(),
        };
        assert_eq!(sites.len(), 1, "{name}");
        assert_eq!(sites[0].strategy, MapStrategy::Kernel, "{name}");
        assert_eq!(sites[0].rows, Some(shape.rows), "{name}");
        let run = |mode: SpecMode| {
            let mut session = program.session();
            session.force_specialization(mode);
            for (k, array) in ["A", "B", "C", "D", "G"].into_iter().enumerate() {
                let data = (0..3 * width as usize).map(|v| match (array, v % 3) {
                    ("G", 0) => 1e16,
                    ("G", 1) => 1.0,
                    ("G", _) => -1e16,
                    _ => (v as f64 * 0.37 + k as f64).sin(),
                });
                let t = Tensor::from_vec(data.collect(), &[3, width as usize]).unwrap();
                session.set_input(array, t).unwrap();
            }
            let report = session.run().unwrap();
            let arrays = ["A", "B", "C", "D", "G"].map(|a| bits(session.array(a).unwrap()));
            (arrays, report)
        };
        let (off, r_off) = run(SpecMode::ForceOff);
        let (on, r_on) = run(SpecMode::Auto);
        assert_eq!(r_off.specialized_dispatches, 0, "{name}");
        assert!(r_on.specialized_dispatches > 0, "{name}");
        assert_eq!(off, on, "{name}: diverged from the VM");
        assert_eq!(
            r_off.tasklet_invocations, r_on.tasklet_invocations,
            "{name}"
        );
        assert_eq!(r_off.state_executions, r_on.state_executions, "{name}");
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A randomly generated affine loop body: `W[i+wo_r, j+wo_c] (=|+=)
    /// f(reads)` inside a `for i / for j` nest, where each read is
    /// `R[i+or_r, j+or_c]` and `R` may alias the written array.
    #[derive(Clone, Debug)]
    struct SpecCase {
        /// Side of the arrays; `j` covers `1 .. n-1`, a row of `n - 2`
        /// points (the triangular nest aside).
        n: i64,
        /// `i` covers `1 .. i_hi`: every row of a small case, three rows of
        /// a long one.
        i_hi: i64,
        /// No read of a written array at another index than a write (the
        /// fields below are generated freely and then bent to it): lowering
        /// must find the rows strip-legal.
        strip_legal: bool,
        /// Walk `i` / `j` downwards, `hi-1, hi-2, .. 1` by step `-1`.
        down: (bool, bool),
        /// Wrap the nest in a time loop `for t in 0..2`: a 3-deep nest.
        time_loop: bool,
        /// The inner loop covers `1 ..= i`: a triangular nest.
        triangular: bool,
        /// Add the value of this iterator (`i`, `j`, then `t` when there is
        /// a time loop) to the expression.
        iter_value: Option<usize>,
        in_place: bool,
        accumulate: bool,
        /// (read from written array, row offset, col offset) per read.
        reads: Vec<(bool, i64, i64)>,
        /// Write offsets (row, col).
        wo: (i64, i64),
        /// Expression shape: 0 = sum of reads, 1 = product of first two,
        /// 2 = sum scaled by a constant, 3 = sum divided by a constant.
        shape: u8,
        scale: f64,
        extras: Extras,
    }

    /// Body shapes the loop site admits beyond one assignment over plain
    /// element reads (all edited into the frontend-built tasklet).
    #[derive(Clone, Debug, Default)]
    struct Extras {
        /// A second assignment `in0 * 0.5`, written (plain or `Wcr::Sum`) at
        /// this offset into the written array again or into the other one.
        second_write: Option<(bool, bool, i64, i64)>,
        /// A later in-edge on connector `in0`, reading `A` at this offset —
        /// or, flagged, in the fixed column `1 + offset`, a read that does
        /// not move with `j`: the last edge wins.
        duplicate_connector: Option<(bool, i64, i64)>,
        /// Every read becomes a two-wide range, read at its start.
        ranged_reads: bool,
        /// A third assignment `S = S + in0` through whole-array memlets: a
        /// scalar container the body both reads and writes.
        scalar_of_written: bool,
        shared_writes: Option<SharedWrites>,
    }

    /// The write-order family of both generators: two to four more writes
    /// `(Wcr::Sum?, offset along the row)` into one array, at distinct and —
    /// four writes over three offsets — at equal offsets, plain and
    /// accumulating mixed.  Write `k` carries its first operand scaled by
    /// `SHARED_FACTORS[k]`, so that a sum into one element depends on the
    /// order of its terms.  The loop generator aims them at `C`, which nothing
    /// else touches, or (flagged) at the array the body's own write goes to;
    /// the map generator at the `V` array of the written rank.  Either way a
    /// second written array stands beside the shared one.
    #[derive(Clone, Debug)]
    struct SharedWrites {
        into_target: bool,
        writes: Vec<(bool, i64)>,
    }

    const SHARED_FACTORS: [f64; 4] = [1e16, 1.0, -1e16, 3.0];

    fn arb_shared_writes() -> impl Strategy<Value = Option<SharedWrites>> {
        let flag = || (0u8..2).prop_map(|v| v == 1);
        let writes = proptest::collection::vec((flag(), -1i64..2), 2..5);
        (flag(), flag(), writes).prop_map(|(on, into_target, writes)| {
            on.then_some(SharedWrites {
                into_target,
                writes,
            })
        })
    }

    /// Row lengths the write sweeps are held to, in both generators: a lone
    /// point, either side of the kernel's short-row constant, either side of
    /// a strip boundary, and two strips and a part.
    const SWEEP_ROWS: [i64; 8] = [1, 3, 4, 5, 127, 128, 129, 300];

    fn arb_case() -> impl Strategy<Value = SpecCase> {
        let flag = || (0u8..2).prop_map(|v| v == 1);
        // Rows of 4..=8 points start at the kernel's short-row constant (4);
        // the long rows are one point short of a strip, a full strip, one
        // point into the second strip, and two strips and three points.
        let strip = dace_ad_repro::sdfg::STRIP as i64;
        let side = prop_oneof![
            6i64..11,
            6i64..11,
            (0usize..4).prop_map(move |k| [strip - 1, strip, strip + 1, 2 * strip + 3][k] + 2),
            (0usize..SWEEP_ROWS.len()).prop_map(|k| SWEEP_ROWS[k] + 2),
        ];
        (
            (
                (side, 0u8..4),
                (flag(), flag()),
                flag(),
                (0u8..4).prop_map(|v| v == 0),
                (flag(), 0usize..3),
            ),
            flag(),
            flag(),
            proptest::collection::vec((flag(), -1i64..2, -1i64..2), 1..5),
            (-1i64..2, -1i64..2),
            (0u8..4, 0.25f64..4.0),
            (
                (flag(), flag(), flag(), -1i64..2, -1i64..2),
                (flag(), flag(), -1i64..2, -1i64..2),
                flag(),
                flag(),
                arb_shared_writes(),
            ),
        )
            .prop_map(
                |(
                    nest,
                    in_place,
                    accumulate,
                    reads,
                    wo,
                    (shape, scale),
                    (second, dup, ranged, s, shared_writes),
                )| {
                    let ((n, legal), down, time_loop, triangular, iter_value) = nest;
                    // Half of the small cases, three in four long ones.
                    let strip_legal = legal > if n < 11 { 1 } else { 0 };
                    let (in_place, reads, second) = match strip_legal {
                        false => (in_place, reads, second),
                        true => (
                            false,
                            reads.into_iter().map(|r| (false, r.1, r.2)).collect(),
                            (second.0, second.1, true, second.3, second.4),
                        ),
                    };
                    SpecCase {
                        n,
                        i_hi: if n < 11 { n - 1 } else { 4 },
                        strip_legal,
                        down,
                        time_loop,
                        triangular,
                        iter_value: iter_value.0.then_some(iter_value.1),
                        in_place,
                        accumulate,
                        reads,
                        wo,
                        shape,
                        scale,
                        extras: Extras {
                            second_write: second
                                .0
                                .then_some((second.1, second.2, second.3, second.4)),
                            duplicate_connector: dup.0.then_some((dup.1, dup.2, dup.3)),
                            ranged_reads: ranged,
                            scalar_of_written: s,
                            shared_writes,
                        },
                    }
                },
            )
    }

    fn build_case(case: &SpecCase) -> Sdfg {
        let mut b = ProgramBuilder::new("spec_prop");
        let n = b.symbol("N");
        b.add_input("A", vec![n.clone(), n.clone()]).unwrap();
        b.add_input("B", vec![n.clone(), n.clone()]).unwrap();
        b.add_input("C", vec![n.clone(), n.clone()]).unwrap();
        b.add_input("S", vec![SymExpr::int(1)]).unwrap();
        let (i, j) = (SymExpr::sym("i"), SymExpr::sym("j"));
        let one = SymExpr::int(1);
        let target = if case.in_place { "A" } else { "B" };
        // `1 .. hi` upwards, or the same values downwards.
        let walk = |down: bool, hi: SymExpr| match down {
            false => (one.clone(), hi, 1),
            true => (hi.sub(&one), SymExpr::int(0), -1),
        };
        let (i_start, i_end, i_step) = walk(case.down.0, SymExpr::int(case.i_hi));
        let j_hi = if case.triangular {
            i.add_int(1)
        } else {
            n.sub(&one)
        };
        let (j_start, j_end, j_step) = walk(case.down.1, j_hi);
        let nest = |b: &mut ProgramBuilder| {
            b.for_range_step("i", i_start, i_end, i_step, |b| {
                b.for_range_step("j", j_start, j_end, j_step, |b| {
                    let rd = |&(alias, ro, co): &(bool, i64, i64)| {
                        let arr = if alias { target } else { "A" };
                        elem(arr, vec![i.add_int(ro), j.add_int(co)])
                    };
                    let mut expr = rd(&case.reads[0]);
                    match case.shape {
                        1 if case.reads.len() >= 2 => expr = expr.mul(rd(&case.reads[1])),
                        _ => {
                            for r in &case.reads[1..] {
                                expr = expr.add(rd(r));
                            }
                            if case.shape == 2 {
                                expr = expr.mul(lit(case.scale));
                            } else if case.shape == 3 {
                                expr = expr.div(lit(case.scale));
                            }
                        }
                    }
                    if let Some(v) = case.iter_value {
                        let iterators = ["i", "j", if case.time_loop { "t" } else { "i" }];
                        expr = expr.add(iter_val(iterators[v]));
                    }
                    let idx = vec![i.add_int(case.wo.0), j.add_int(case.wo.1)];
                    if case.accumulate {
                        b.accumulate_element(target, idx, expr);
                    } else {
                        b.assign_element(target, idx, expr);
                    }
                });
            });
        };
        if case.time_loop {
            b.for_range("t", 0, 2, nest);
        } else {
            nest(&mut b);
        }
        let mut sdfg = b.build().unwrap();
        apply_extras(&mut sdfg, case);
        sdfg
    }

    /// Edit the extras of `case` into the loop body the frontend built: one
    /// state holding access nodes and the tasklet `out = f(in0, in1, ..)`.
    fn apply_extras(sdfg: &mut Sdfg, case: &SpecCase) {
        use dace_ad_repro::sdfg::{DfNode, IndexRange, Memlet, ScalarExpr as E};
        let is_tasklet = |n: &DfNode| matches!(n, DfNode::Tasklet(_));
        let mut graphs = sdfg.states.iter_mut().map(|s| &mut s.graph);
        let (g, t) = graphs
            .find_map(|g| g.nodes.iter().position(is_tasklet).map(|t| (g, t)))
            .expect("the loop body holds a tasklet");
        let at =
            |ro: i64, co: i64| vec![SymExpr::sym("i").add_int(ro), SymExpr::sym("j").add_int(co)];
        let x = &case.extras;
        if x.ranged_reads {
            for e in g.edges.iter_mut().filter(|e| e.dst == t) {
                for r in &mut e.memlet.subset.0 {
                    if let IndexRange::Index(start) = r {
                        *r = IndexRange::range(start.clone(), start.add_int(2));
                    }
                }
            }
        }
        if let Some((fixed_column, ro, co)) = x.duplicate_connector {
            let node = g.add_access("A");
            let mut idx = at(ro, co);
            if fixed_column {
                idx[1] = SymExpr::int(1 + co);
            }
            g.add_edge(node, None, t, Some("in0"), Memlet::element("A", idx));
        }
        let mut code = Vec::new();
        if let Some((wcr, same_array, ro, co)) = x.second_write {
            let array = if case.in_place == same_array {
                "A"
            } else {
                "B"
            };
            code.push(("aux".to_string(), E::input("in0").mul(E::c(0.5))));
            let node = g.add_access(array);
            let m = Memlet::element(array, at(ro, co));
            g.add_edge(
                t,
                Some("aux"),
                node,
                None,
                if wcr { m.with_wcr_sum() } else { m },
            );
        }
        if let Some(shared) = &x.shared_writes {
            let array = match (shared.into_target, case.in_place) {
                (false, _) => "C",
                (true, true) => "A",
                (true, false) => "B",
            };
            for (k, &(wcr, co)) in shared.writes.iter().enumerate() {
                let conn = format!("w{k}");
                code.push((conn.clone(), E::input("in0").mul(E::c(SHARED_FACTORS[k]))));
                let node = g.add_access(array);
                let m = Memlet::element(array, at(0, co));
                let m = if wcr { m.with_wcr_sum() } else { m };
                g.add_edge(t, Some(conn.as_str()), node, None, m);
            }
        }
        if x.scalar_of_written {
            let (src, dst) = (g.add_access("S"), g.add_access("S"));
            g.add_edge(src, None, t, Some("s"), Memlet::all("S"));
            code.push(("acc".to_string(), E::input("s").add(E::input("in0"))));
            g.add_edge(t, Some("acc"), dst, None, Memlet::all("S"));
        }
        let DfNode::Tasklet(tasklet) = &mut g.nodes[t] else {
            unreachable!("found as a tasklet above")
        };
        tasklet.code.extend(code);
    }

    /// Bits of `A`, `B`, `C` and `S` after one run, and the execution report.
    fn run_case(sdfg: &Sdfg, n: i64, mode: SpecMode) -> ([Vec<u64>; 4], ExecutionReport) {
        let symbols = HashMap::from([("N".to_string(), n)]);
        let dim = n as usize;
        let fill = |seed: f64| {
            Tensor::from_vec(
                (0..dim * dim)
                    .map(|k| (k as f64 * 0.37 + seed).sin())
                    .collect(),
                &[dim, dim],
            )
            .unwrap()
        };
        let mut session = compile(sdfg, &symbols).unwrap().session();
        session.force_specialization(mode);
        session.set_input("A", fill(0.1)).unwrap();
        session.set_input("B", fill(2.3)).unwrap();
        session.set_input("C", fill(4.1)).unwrap();
        session
            .set_input("S", Tensor::from_vec(vec![0.75], &[1]).unwrap())
            .unwrap();
        let report = session.run().unwrap();
        let arrays = ["A", "B", "C", "S"].map(|name| bits(session.array(name).unwrap()));
        (arrays, report)
    }

    /// Highest index a generated map reaches beyond a parameter's extent:
    /// lows stay in `2..=3` and offsets (with the read-modify-write shift)
    /// in `-2..=2`, so arrays of side `extent + MARGIN` hold every access.
    const MARGIN: i64 = 6;

    /// One index expression of a generated memlet: `param + offset` or a
    /// constant.
    #[derive(Clone, Debug)]
    enum Ix {
        Param(usize, i64),
        Const(i64),
    }

    /// A randomly generated 2- or 3-parameter map over a single tasklet.
    /// An access of rank `r` addresses the rank-`r` array of its family:
    /// `R1..R3` are only read, `W1..W3`, `U1..U3` and `V1..V3` are written.
    #[derive(Clone, Debug)]
    struct MapCase {
        /// `(low, extent)` per map parameter.  The last parameter — the row
        /// — may be long (a strip-boundary extent); the arrays are then of
        /// rank at most 2 to stay small.
        domain: Vec<(i64, i64)>,
        /// Reads of the `R` arrays.
        reads: Vec<Vec<Ix>>,
        /// The write into `W`, plain or `Wcr::Sum`.
        write: Vec<Ix>,
        wcr: bool,
        /// `Some(shift)`: the tasklet also reads `W` at the written index
        /// (`shift == 0`, an in-place update) or beside it (a proven race,
        /// which the kernel carries point by point).
        rmw: Option<i64>,
        /// The adjoint shape `reverse.rs` emits: read `g = W[write]`, clear
        /// it with a plain write, and accumulate `g * f(reads)` into `U` at
        /// this access (and `g + 1` at a second one).
        adjoint: Option<(Vec<Ix>, Option<Vec<Ix>>)>,
        /// 0 = sum of reads, 1 = product of the first two, 2 = sum scaled by
        /// a constant, 3 = sum divided by a constant.
        shape: u8,
        scale: f64,
        /// Add the value of this parameter to the expression.
        param_value: Option<usize>,
        /// More writes into `V` at the written access, its row-parameter
        /// indices shifted by the write's offset.
        shared_writes: Option<SharedWrites>,
    }

    fn arb_map_case() -> impl Strategy<Value = MapCase> {
        let flag = || (0u8..2).prop_map(|v| v == 1);
        let ix = || {
            prop_oneof![
                (0usize..3, -1i64..2).prop_map(|(p, off)| Ix::Param(p, off)),
                (0usize..3, -1i64..2).prop_map(|(p, off)| Ix::Param(p, off)),
                (0i64..4).prop_map(Ix::Const),
            ]
        };
        let access = move || proptest::collection::vec(ix(), 1..4);
        let maybe = |on: bool, acc: Vec<Ix>| on.then_some(acc);
        // Rows of 2..=4 points around the kernel's short-row constant (4),
        // rows at the strip boundaries, and the rows of the write sweeps.
        let strip = dace_ad_repro::sdfg::STRIP as i64;
        let rows = [7, 8, strip - 1, strip, strip + 1, 2 * strip + 3];
        let row = prop_oneof![
            Just(None),
            (0usize..rows.len()).prop_map(move |k| Some(rows[k])),
            (0usize..SWEEP_ROWS.len()).prop_map(|k| Some(SWEEP_ROWS[k])),
        ];
        (
            (proptest::collection::vec((2i64..4, 2i64..5), 2..4), row),
            proptest::collection::vec(access(), 0..4),
            (access(), flag(), flag(), -1i64..2),
            // Two in three writes index by a rotation of all parameters
            // (injective, so plain writes and the adjoint's clear are safe).
            (0u8..3, 0usize..3, proptest::collection::vec(-1i64..2, 3)),
            (flag(), access(), flag(), access()),
            (0u8..4, 0.25f64..4.0),
            ((flag(), 0usize..3), arb_shared_writes()),
        )
            .prop_map(
                move |(
                    domain,
                    reads,
                    (write, wcr, rmw, shift),
                    perm,
                    adj,
                    (shape, scale),
                    last,
                )| {
                    let (pv, shared_writes) = last;
                    let (mut domain, row) = domain;
                    if let (Some(row), Some(last)) = (row, domain.last_mut()) {
                        last.1 = row;
                    }
                    let rank = max_rank(row.unwrap_or(0));
                    let cut = |mut acc: Vec<Ix>| {
                        acc.truncate(rank);
                        acc
                    };
                    MapCase {
                        write: match perm {
                            (0, _, _) => cut(write),
                            (_, rot, offs) => (0..domain.len().min(rank))
                                .map(|d| Ix::Param((d + rot) % domain.len(), offs[d]))
                                .collect(),
                        },
                        domain,
                        reads: reads.into_iter().map(cut).collect(),
                        wcr,
                        rmw: rmw.then_some(shift),
                        adjoint: maybe(adj.0, adj.1)
                            .map(|first| (cut(first), maybe(adj.2, adj.3).map(cut))),
                        shape,
                        scale,
                        param_value: pv.0.then_some(pv.1),
                        shared_writes,
                    }
                },
            )
    }

    /// Longest extent of a case's domain.
    fn longest(case: &MapCase) -> i64 {
        case.domain.iter().map(|&(_, n)| n).max().unwrap_or(0)
    }

    /// Highest rank of the arrays of a case whose longest extent is
    /// `longest`: long rows get no rank-3 arrays, to stay small.
    fn max_rank(longest: i64) -> usize {
        if longest > 8 {
            2
        } else {
            3
        }
    }

    fn build_map_case(case: &MapCase) -> Sdfg {
        use dace_ad_repro::sdfg::{
            ArrayDesc, ControlFlow, DataflowGraph, MapScope, Memlet, ScalarExpr as E, State,
            Tasklet,
        };
        let np = case.domain.len();
        let param = |p: usize| format!("p{}", p % np);
        let memlet = |family: &str, acc: &[Ix], shift: i64| {
            let idx = acc.iter().map(|ix| match ix {
                Ix::Param(p, off) => SymExpr::sym(param(*p)).add_int(off + shift),
                Ix::Const(c) => SymExpr::int(*c),
            });
            Memlet::element(format!("{family}{}", acc.len()), idx.collect())
        };

        // Inputs: every `R` read, then the optional read of `W`.
        let mut ins: Vec<(String, Memlet)> = Vec::new();
        for (k, acc) in case.reads.iter().enumerate() {
            ins.push((format!("r{k}"), memlet("R", acc, 0)));
        }
        let mut terms: Vec<E> = ins.iter().map(|(c, _)| E::input(c.clone())).collect();
        let mut f = match (case.shape, terms.len()) {
            (_, 0) => E::c(case.scale),
            (1, n) if n >= 2 => terms.remove(0).mul(terms.remove(0)),
            _ => {
                let sum = terms.into_iter().reduce(E::add).expect("at least one read");
                match case.shape {
                    2 => sum.mul(E::c(case.scale)),
                    3 => sum.div(E::c(case.scale)),
                    _ => sum,
                }
            }
        };
        if let Some(p) = case.param_value {
            f = f.add(E::iter(param(p)));
        }
        let first_operand = match ins.first() {
            Some((conn, _)) => E::input(conn.clone()),
            None => E::c(case.scale),
        };
        // Assignments and their writes, in edge order.
        let mut code: Vec<(String, E)> = Vec::new();
        let mut outs: Vec<(String, Memlet)> = Vec::new();
        if let Some((first, second)) = &case.adjoint {
            ins.push(("g".into(), memlet("W", &case.write, 0)));
            code.push(("clear".into(), E::c(0.0)));
            outs.push(("clear".into(), memlet("W", &case.write, 0)));
            code.push(("d0".into(), E::input("g").mul(f)));
            outs.push(("d0".into(), memlet("U", first, 0).with_wcr_sum()));
            if let Some(second) = second {
                code.push(("d1".into(), E::input("g").add(E::c(1.0))));
                outs.push(("d1".into(), memlet("U", second, 0).with_wcr_sum()));
            }
        } else {
            if let Some(shift) = case.rmw {
                ins.push(("w".into(), memlet("W", &case.write, shift)));
                f = f.add(E::input("w"));
            }
            code.push(("o".into(), f));
            let w = memlet("W", &case.write, 0);
            outs.push(("o".into(), if case.wcr { w.with_wcr_sum() } else { w }));
        }
        // Only the row parameter is shifted, so that the writes meet within
        // a row — plain and accumulating mixed, as at the loop site: the
        // kernel applies them in the VM's order whatever the verdict says.
        let shared = case.shared_writes.iter().flat_map(|s| &s.writes);
        for (k, &(wcr, offset)) in shared.enumerate() {
            code.push((
                format!("s{k}"),
                first_operand.clone().mul(E::c(SHARED_FACTORS[k])),
            ));
            let along_row = case.write.iter().map(|ix| match ix {
                Ix::Param(p, off) if p % np == np - 1 => Ix::Param(*p, off + offset),
                other => other.clone(),
            });
            let v = memlet("V", &along_row.collect::<Vec<_>>(), 0);
            outs.push((format!("s{k}"), if wcr { v.with_wcr_sum() } else { v }));
        }

        let mut sdfg = Sdfg::new("map_prop");
        for family in ["R", "W", "U", "V"] {
            for rank in 1..=max_rank(longest(case)) {
                let shape = vec![SymExpr::int(longest(case) + MARGIN); rank];
                sdfg.add_array(format!("{family}{rank}"), ArrayDesc::input(shape))
                    .unwrap();
            }
        }
        let mut body = DataflowGraph::new();
        let mut state = DataflowGraph::new();
        let t = body.add_tasklet(Tasklet::multi("t", code));
        let map_params: Vec<String> = (0..np).map(param).collect();
        // One access node per edge keeps the graphs trivially acyclic.
        let reads: Vec<_> = ins
            .iter()
            .map(|(conn, m)| {
                let acc = body.add_access(&m.data);
                body.add_edge(acc, None, t, Some(conn.as_str()), m.clone());
                (m.data.clone(), state.add_access(&m.data))
            })
            .collect();
        let map = state.add_map(MapScope {
            params: map_params,
            ranges: case
                .domain
                .iter()
                .map(|&(lo, n)| (SymExpr::int(lo), SymExpr::int(lo + n)))
                .collect(),
            body: DataflowGraph::new(),
        });
        for (array, node) in reads {
            state.add_edge(node, None, map, None, Memlet::all(array));
        }
        for (conn, m) in &outs {
            let acc = body.add_access(&m.data);
            body.add_edge(t, Some(conn.as_str()), acc, None, m.clone());
            let node = state.add_access(&m.data);
            state.add_edge(map, None, node, None, Memlet::all(m.data.clone()));
        }
        let dace_ad_repro::sdfg::DfNode::MapScope(scope) = &mut state.nodes[map] else {
            unreachable!("added as a map above")
        };
        scope.body = body;
        let sid = sdfg.add_state(State {
            name: "s".into(),
            graph: state,
        });
        sdfg.cfg = ControlFlow::State(sid);
        sdfg
    }

    /// Bits of every array of a case after one run.
    fn run_map_case(
        sdfg: &Sdfg,
        case: &MapCase,
        mode: SpecMode,
    ) -> (Vec<Vec<u64>>, ExecutionReport) {
        let side = (longest(case) + MARGIN) as usize;
        let ranks = max_rank(longest(case));
        let arrays: Vec<(String, usize)> = ["R", "W", "U", "V"]
            .iter()
            .flat_map(|f| (1..=ranks).map(move |rank| (format!("{f}{rank}"), rank)))
            .collect();
        let mut session = compile(sdfg, &HashMap::new()).unwrap().session();
        session.force_specialization(mode);
        for (k, (name, rank)) in arrays.iter().enumerate() {
            let shape = vec![side; *rank];
            let len: usize = shape.iter().product();
            let data = (0..len).map(|v| (v as f64 * 0.37 + k as f64).sin());
            session
                .set_input(name, Tensor::from_vec(data.collect(), &shape).unwrap())
                .unwrap();
        }
        let report = session.run().unwrap();
        let out = arrays.iter().map(|(n, _)| bits(session.array(n).unwrap()));
        (out.collect(), report)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The loop kernel must be bit-identical to pure-VM execution with
        /// equal execution counters — for random offsets, scale factors,
        /// reductions and aliasing patterns, including bodies that read the
        /// array they write (Gauss–Seidel order) at `±1` in both iterators,
        /// for iterators walking up or down, 2- and 3-deep nests, and for
        /// the body shapes of [`Extras`]: several assignments and writes,
        /// duplicate connectors, range-start reads, a scalar that is read
        /// and written.  Every one of these bodies attaches the kernel: a
        /// rectangular nest runs in one dispatch, a triangular nest — and
        /// a read of a written array in a fixed column, whose offset to the
        /// write moves with `j` — one dispatch per row.
        #[test]
        fn specialized_execution_is_bit_identical(case in arb_case()) {
            let sdfg = build_case(&case);
            let writes_a = case.in_place
                || matches!(case.extras.second_write, Some((_, false, _, _)));
            let fixed_column = matches!(case.extras.duplicate_connector, Some((true, _, _)));
            let per_row = case.triangular || (writes_a && fixed_column);
            let rows = (case.i_hi as u64 - 1) * if case.time_loop { 2 } else { 1 };
            let symbols = HashMap::from([("N".to_string(), case.n)]);
            let sites = compile(&sdfg, &symbols).unwrap().loop_strategies();
            prop_assert_eq!(sites.len(), 1, "{:?}", &sites);
            prop_assert_eq!(sites[0].strategy, MapStrategy::Kernel, "{:?}", &case);
            let depth = if per_row { 1 } else { 2 + case.time_loop as usize };
            prop_assert_eq!(sites[0].depth, depth, "{:?}", &case);
            use dace_ad_repro::runtime::KernelMiss;
            let enclosing = match (case.triangular, per_row) {
                (true, _) => Some(KernelMiss::NonRectangularBound),
                (_, true) => Some(KernelMiss::AliasedReadAtOtherIndex),
                _ => None,
            };
            prop_assert_eq!(sites[0].enclosing, enclosing, "{:?}", &case);
            if case.strip_legal {
                prop_assert_eq!(sites[0].rows, Some(RowMode::Strips), "{:?}", &case);
            }

            let (off, r_off) = run_case(&sdfg, case.n, SpecMode::ForceOff);
            let (on, r_on) = run_case(&sdfg, case.n, SpecMode::Auto);
            prop_assert_eq!(r_off.specialized_dispatches, 0);
            let dispatches = if per_row { rows } else { 1 };
            prop_assert_eq!(r_on.specialized_dispatches, dispatches, "{:?}", &case);
            prop_assert_eq!(&off, &on, "A, B, C or S diverged for {:?}", &case);
            prop_assert_eq!(r_off.tasklet_invocations, r_on.tasklet_invocations);
            prop_assert_eq!(r_off.state_executions, r_on.state_executions);
            prop_assert_eq!(r_off.map_points, r_on.map_points);
        }
    }

    /// The same for 2- and 3-parameter maps with permuted, partial, constant
    /// and offset indices, plain and WCR writes, in-place updates, reads
    /// beside the written element and the multi-assignment adjoint shape:
    /// the map kernel (or, where recognition declines, the VM) is
    /// bit-identical to pure-VM execution.  Admission does not consult the
    /// dependence verdict, so the run must exercise that: the cases whose
    /// map the analyzer classifies `Race` or `Unknown` *and* that dispatch
    /// the kernel are counted, and a run that drew none fails.  (Written
    /// out instead of through `proptest!` for the count across cases.)
    #[test]
    fn map_kernel_execution_is_bit_identical() {
        use dace_ad_repro::sdfg::{analyze_map, DfNode, ParVerdict};
        const CASES: usize = 96;
        let mut rng = proptest::strategy::runner_rng("map_kernel_execution_is_bit_identical");
        let strategy = arb_map_case();
        let mut racy_on_the_kernel = 0;
        for _ in 0..CASES {
            let case = strategy.sample(&mut rng);
            let sdfg = build_map_case(&case);
            let (off, r_off) = run_map_case(&sdfg, &case, SpecMode::ForceOff);
            assert_eq!(r_off.specialized_dispatches, 0);
            let (on, r_on) = run_map_case(&sdfg, &case, SpecMode::Auto);
            assert_eq!(&off, &on, "diverged for {case:?}");
            assert_eq!(r_off.tasklet_invocations, r_on.tasklet_invocations);
            assert_eq!(r_off.state_executions, r_on.state_executions);
            assert_eq!(r_off.map_points, r_on.map_points);
            let verdict = sdfg.states[0].graph.nodes.iter().find_map(|n| match n {
                DfNode::MapScope(m) => Some(analyze_map(m, &HashMap::new())),
                _ => None,
            });
            let racy = matches!(verdict, Some(ParVerdict::Race(_) | ParVerdict::Unknown));
            racy_on_the_kernel += (racy && r_on.specialized_dispatches > 0) as usize;
        }
        println!("{racy_on_the_kernel} of {CASES} cases ran a Race / Unknown map on the kernel");
        assert!(
            racy_on_the_kernel > 0,
            "no generated map with a Race / Unknown verdict dispatched the kernel"
        );
    }
}
