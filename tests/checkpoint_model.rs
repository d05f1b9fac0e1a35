//! The checkpointing pass held to §IV-A: the memory-measurement sequence
//! *is* the peak of the forward+backward timeline, a limit the ILP accepts
//! is a limit the run keeps, and the gradient SDFG holds only what runs.
//!
//! `crates/core/src/checkpoint.rs` states when a container is alive once
//! (one table of lifetimes) and reads the sequence, the ILP rows, the
//! predicted peak and the free hints from it; these tests compare those
//! readings with what the executor's memory tracker observes.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use dace_ad_repro::frontend::elem;
use dace_ad_repro::npbench::{all_kernels, kernel_by_name, listing1, Preset};
use dace_ad_repro::prelude::*;
use dace_ad_repro::sdfg::{CmpOp, CondExpr, CondOperand};

/// What one strategy decided, predicted and ran.
struct Outcome {
    engine: GradientEngine,
    predicted: usize,
    observed: usize,
    gradients: BTreeMap<String, Vec<u64>>,
}

fn differentiate(
    fwd: &Sdfg,
    wrt: &[&str],
    symbols: &HashMap<String, i64>,
    inputs: &HashMap<String, Tensor>,
    strategy: CheckpointStrategy,
) -> Outcome {
    let options = AdOptions { strategy };
    let mut engine = GradientEngine::new(fwd, "OUT", wrt, symbols, &options).unwrap();
    let result = engine.run(inputs).unwrap();
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect();
    Outcome {
        predicted: report(&engine).predicted_peak_bytes,
        observed: result.report.peak_bytes,
        gradients: (result.gradients.iter())
            .map(|(k, t)| (k.clone(), bits(t)))
            .collect(),
        engine,
    }
}

fn report(engine: &GradientEngine) -> &dace_ad_repro::ad::CheckpointReport {
    engine.plan().ilp_report.as_ref().unwrap()
}

fn ilp(memory_limit_bytes: usize) -> CheckpointStrategy {
    CheckpointStrategy::Ilp { memory_limit_bytes }
}

/// Every container is freed once; a recomputed candidate twice, after its
/// last forward and after its last backward reader.
fn assert_each_container_is_hinted_once(name: &str, plan: &BackwardPlan) {
    let mut hinted: BTreeMap<&str, usize> = BTreeMap::new();
    for array in plan.free_hints.values().flatten() {
        *hinted.entry(array).or_default() += 1;
    }
    for (array, times) in hinted {
        let lives = 1 + plan.recomputed.iter().any(|r| r == array) as usize;
        assert_eq!(times, lives, "{name}: `{array}` is hinted {times} times");
    }
}

/// Listing-1 over `n × n` arrays with its seeded inputs.
fn listing1_case(n: usize) -> (Sdfg, HashMap<String, i64>, HashMap<String, Tensor>) {
    let fill = |seed: f64| {
        let data = (0..n * n).map(|k| (k as f64 * 0.37 + seed).sin());
        Tensor::from_vec(data.collect(), &[n, n]).unwrap()
    };
    let inputs = HashMap::from([("C".to_string(), fill(0.1)), ("D".to_string(), fill(2.3))]);
    let symbols = HashMap::from([("N".to_string(), n as i64)]);
    (listing1(), symbols, inputs)
}

/// `perfbench`'s frozen `Ilp` limits at the bench preset.
const FROZEN_LIMITS: [(&str, usize); 6] = [
    ("atax", 1_592_176),
    ("bicg", 1_591_856),
    ("k2mm", 2_038_416),
    ("k3mm", 2_352_016),
    ("mvt", 2_512_016),
    ("mlp", 860_176),
];

/// AD emits no state the control-flow tree does not reach — no adjoint body
/// parked in the state table, no recompute slice of a candidate that ends up
/// stored — so the gradient programs of all fifteen kernels and Listing-1
/// validate without a single diagnostic under every strategy.
#[test]
fn gradient_programs_hold_only_what_runs() {
    for kernel in all_kernels() {
        let sizes = kernel.sizes(Preset::Bench);
        let limit = FROZEN_LIMITS.iter().find(|(k, _)| *k == kernel.name());
        assert_holds_only_what_runs(
            kernel.name(),
            &kernel.build_dace(&sizes),
            &kernel.wrt(),
            &kernel.symbols(&sizes),
            limit.map_or(1 << 30, |(_, l)| *l),
        );
    }
    let symbols = HashMap::from([("N".to_string(), 96)]);
    let limit = 12 * 96 * 96 * 8 + 16;
    assert_holds_only_what_runs("listing1", &listing1(), &["C", "D"], &symbols, limit);
}

fn assert_holds_only_what_runs(
    name: &str,
    fwd: &Sdfg,
    wrt: &[&str],
    symbols: &HashMap<String, i64>,
    limit: usize,
) {
    let strategies = [
        CheckpointStrategy::StoreAll,
        ilp(limit),
        CheckpointStrategy::RecomputeAll,
    ];
    for strategy in strategies {
        let name = format!("{name} under {strategy:?}");
        let options = AdOptions { strategy };
        let engine = GradientEngine::new(fwd, "OUT", wrt, symbols, &options).unwrap();
        let sdfg = &engine.plan().sdfg;
        assert_eq!(sdfg.validate(), [], "{name}");
        let reachable: BTreeSet<usize> = sdfg.cfg.states_in_order().into_iter().collect();
        assert_eq!(sdfg.states.len(), reachable.len(), "{name}");
        let referenced: BTreeSet<String> = (reachable.iter())
            .flat_map(|&s| sdfg.states[s].graph.referenced_arrays())
            .collect();
        for array in sdfg.arrays.keys().filter(|a| a.starts_with("rc_")) {
            assert!(referenced.contains(array), "{name}: `{array}` is unused");
        }
        for map in engine.gradient_program().map_strategies() {
            assert!(reachable.contains(&map.state), "{name}: {map:?}");
        }
        assert_each_container_is_hinted_once(&name, engine.plan());
    }
}

/// Every `Manual` store/recompute configuration of Listing-1 (2⁵) and of mlp
/// (2²: `h1` and `h2`, which its relu adjoints read in place of `z1` and
/// `z2`): the prediction is the tracker's peak, the gradients are store-all's
/// bit for bit, and nothing is hinted twice.
#[test]
fn every_manual_configuration_predicts_its_observed_peak() {
    let mlp = kernel_by_name("mlp").unwrap();
    let sizes = mlp.sizes(Preset::Test);
    let (listing1, listing1_symbols, listing1_inputs) = listing1_case(16);
    let cases = [
        (
            "listing1",
            listing1,
            vec!["C", "D"],
            listing1_symbols,
            listing1_inputs,
        ),
        (
            "mlp",
            mlp.build_dace(&sizes),
            mlp.wrt(),
            mlp.symbols(&sizes),
            mlp.inputs(&sizes),
        ),
    ];
    for (name, fwd, wrt, symbols, inputs) in &cases {
        let run = |strategy| differentiate(fwd, wrt, symbols, inputs, strategy);
        let store_all = run(CheckpointStrategy::StoreAll);
        assert_eq!(store_all.predicted, store_all.observed, "{name}");
        let candidates: Vec<String> = (store_all.engine.plan().candidates.iter())
            .map(|c| c.array.clone())
            .collect();
        assert_eq!(candidates.len(), if *name == "mlp" { 2 } else { 5 });
        // With the real costs reported under store-all too.
        let costs = &report(&store_all.engine).costs;
        assert!(costs
            .iter()
            .all(|c| c.recomputable && c.recompute_flops > 0.0));
        for mask in 0..1u32 << candidates.len() {
            let store: Vec<String> = (candidates.iter().enumerate())
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, a)| a.clone())
                .collect();
            let name = format!("{name} storing {store:?}");
            let outcome = run(CheckpointStrategy::Manual { store });
            assert_eq!(outcome.predicted, outcome.observed, "{name}");
            assert_eq!(outcome.gradients, store_all.gradients, "{name}");
            assert_each_container_is_hinted_once(&name, outcome.engine.plan());
        }
    }
}

/// A transient whose last reference is a loop cannot be released (its state
/// runs again), so it lives to the end of the run — in the model as in the
/// executor.  `T` below is last read by the forward loop and needed again
/// only by the last adjoint, as `grad_T`'s shape: it is there all along.
#[test]
fn a_transient_last_read_by_a_loop_lives_to_the_end_of_the_run() {
    use ArrayExpr as A;
    let mut b = ProgramBuilder::new("loop_read");
    let n = b.symbol("N");
    b.add_input("X", vec![n.clone(), n.clone()]).unwrap();
    for t in ["T", "S1", "S2", "S3"] {
        b.add_transient(t, vec![n.clone(), n.clone()]).unwrap();
    }
    b.add_scalar("OUT").unwrap();
    b.assign("T", A::a("X").mul(A::s(2.0)));
    b.assign("S1", A::a("X").sin());
    b.assign("S2", A::a("S1").sin());
    b.assign("S3", A::a("S2").sin());
    b.sum_into("OUT", "S3", false);
    let i = SymExpr::sym("i");
    b.for_range("i", 0, n.clone(), |b| {
        let column0 = elem("T", vec![i.clone(), SymExpr::int(0)]);
        b.accumulate_element("OUT", vec![SymExpr::int(0)], column0);
    });
    let fwd = b.build().unwrap();
    let n = 64usize;
    let symbols = HashMap::from([("N".to_string(), n as i64)]);
    let x = dace_ad_repro::tensor::random::uniform(&[n, n], 11);
    let inputs = HashMap::from([("X".to_string(), x)]);
    let run = |strategy| differentiate(&fwd, &["X"], &symbols, &inputs, strategy);

    let store_all = run(CheckpointStrategy::StoreAll);
    let recompute_all = run(CheckpointStrategy::RecomputeAll);
    assert!(!report(&recompute_all.engine).recomputed.is_empty());
    for outcome in [&store_all, &recompute_all] {
        assert_eq!(outcome.predicted, outcome.observed);
        assert_eq!(outcome.gradients, store_all.gradients);
    }
    // The limits the ILP accepts, it keeps: at the store-all peak, and one
    // and two arrays below it.
    for arrays_below in 0..3 {
        let limit = store_all.predicted - arrays_below * n * n * 8;
        let outcome = run(ilp(limit));
        assert_eq!(outcome.predicted, outcome.observed);
        assert_eq!(outcome.gradients, store_all.gradients);
        if report(&outcome.engine).feasible {
            assert!(outcome.observed <= limit, "{} > {limit}", outcome.observed);
        } else {
            assert_eq!(outcome.observed, recompute_all.observed);
        }
    }
    assert!(report(&run(ilp(store_all.predicted)).engine).feasible);
}

/// A limit sweep on Listing-1 from below the recompute-all peak to the
/// store-all peak in one-array steps: a feasible limit is kept by the run,
/// and the recomputation cost `Σ c_i (1 − v_i)` never rises as the limit
/// loosens.
#[test]
fn the_ilp_keeps_its_limit_and_pays_less_as_the_limit_loosens() {
    let n = 16usize;
    let (fwd, symbols, inputs) = listing1_case(n);
    let run = |strategy| differentiate(&fwd, &["C", "D"], &symbols, &inputs, strategy);
    let store_all = run(CheckpointStrategy::StoreAll);
    let recompute_all = run(CheckpointStrategy::RecomputeAll);
    assert!(recompute_all.observed < store_all.observed);

    let one_array = n * n * 8;
    let mut limit = recompute_all.observed - one_array;
    let mut previous_cost = f64::INFINITY;
    while limit <= store_all.observed {
        let outcome = run(ilp(limit));
        let report = report(&outcome.engine);
        assert_eq!(outcome.predicted, outcome.observed, "limit {limit}");
        assert_eq!(outcome.gradients, store_all.gradients, "limit {limit}");
        assert_eq!(report.feasible, limit >= recompute_all.observed);
        if report.feasible {
            assert!(outcome.observed <= limit, "limit {limit}");
            let cost: f64 = (report.costs.iter())
                .filter(|c| report.recomputed.contains(&c.array))
                .map(|c| c.recompute_flops)
                .sum();
            assert!(cost <= previous_cost, "limit {limit}: {cost}");
            previous_cost = cost;
        } else {
            // Nothing meets the limit: everything recomputable is recomputed.
            assert_eq!(report.recomputed.len(), 5);
        }
        limit += one_array;
    }
    assert_eq!(
        previous_cost, 0.0,
        "the store-all peak needs no recomputation"
    );
}

/// A candidate the forward pass reads inside a loop cannot be released
/// before the backward pass (a free after the loop's last state would fire
/// in its first iteration), so recomputing it would buy nothing: it is
/// stored, whatever the strategy asks for.
#[test]
fn a_candidate_read_by_a_forward_loop_is_stored() {
    let mut b = ProgramBuilder::new("loop_candidate");
    let n = b.symbol("N");
    b.add_input("X", vec![n.clone()]).unwrap();
    b.add_transient("T", vec![n.clone()]).unwrap();
    b.add_scalar("OUT").unwrap();
    b.assign("T", ArrayExpr::a("X").mul(ArrayExpr::s(2.0)));
    let i = SymExpr::sym("i");
    b.for_range("i", 0, n.clone(), |b| {
        let squared = elem("T", vec![i.clone()]).mul(elem("T", vec![i.clone()]));
        b.accumulate_element("OUT", vec![SymExpr::int(0)], squared);
    });
    let fwd = b.build().unwrap();
    let symbols = HashMap::from([("N".to_string(), 8)]);
    let x = Tensor::from_vec((1..=8).map(f64::from).collect(), &[8]).unwrap();
    let inputs = HashMap::from([("X".to_string(), x.clone())]);
    let run = |strategy| differentiate(&fwd, &["X"], &symbols, &inputs, strategy);

    let store_all = run(CheckpointStrategy::StoreAll);
    let recompute_all = run(CheckpointStrategy::RecomputeAll);
    let candidates = &store_all.engine.plan().candidates;
    assert!(candidates.iter().any(|c| c.array == "T"));
    assert_eq!(report(&recompute_all.engine).stored, ["T"]);
    assert!(!report(&recompute_all.engine).costs[0].recomputable);
    assert_eq!(recompute_all.gradients, store_all.gradients);
    assert_eq!(recompute_all.predicted, recompute_all.observed);
    // With nothing to decide the ILP has no variable: a limit is met or not.
    for (limit, feasible) in [(store_all.observed, true), (store_all.observed - 1, false)] {
        let outcome = run(ilp(limit));
        assert_eq!(report(&outcome.engine).feasible, feasible, "limit {limit}");
        assert_eq!(report(&outcome.engine).stored, ["T"]);
        assert_eq!(outcome.gradients, store_all.gradients);
    }
    // d/dX Σ (2X)² = 8X.
    let expected: Vec<u64> = x.data().iter().map(|v| (8.0 * v).to_bits()).collect();
    assert_eq!(store_all.gradients["X"], expected);
}

/// A branch condition reads its array too: a transient nothing but the
/// condition reads after its producer must still be there when the
/// condition is evaluated, not released (and read back as zeros) before.
#[test]
fn a_transient_read_by_a_branch_condition_outlives_the_branch() {
    let mut b = ProgramBuilder::new("flagged");
    let n = b.symbol("N");
    b.add_input("X", vec![n.clone()]).unwrap();
    b.add_transient("P", vec![SymExpr::int(1)]).unwrap();
    b.add_transient("Y", vec![n.clone()]).unwrap();
    b.add_scalar("OUT").unwrap();
    b.sum_into("P", "X", false);
    b.branch(
        CondExpr::Cmp {
            lhs: CondOperand::Element {
                array: "P".into(),
                index: vec![SymExpr::int(0)],
            },
            op: CmpOp::Gt,
            rhs: CondOperand::Const(0.0),
        },
        |b| b.assign("Y", ArrayExpr::a("X").mul(ArrayExpr::s(2.0))),
        Some(Box::new(|b: &mut ProgramBuilder| {
            b.assign("Y", ArrayExpr::a("X").mul(ArrayExpr::s(-3.0)))
        })),
    );
    b.sum_into("OUT", "Y", false);
    let fwd = b.build().unwrap();
    let symbols = HashMap::from([("N".to_string(), 4)]);
    let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap();
    let inputs = HashMap::from([("X".to_string(), x)]);
    let outcome = differentiate(
        &fwd,
        &["X"],
        &symbols,
        &inputs,
        CheckpointStrategy::StoreAll,
    );
    // sum(X) > 0: the `2·X` arm ran.
    assert_eq!(outcome.gradients["X"], vec![2.0f64.to_bits(); 4]);
    assert!(outcome.observed <= outcome.predicted);
}
