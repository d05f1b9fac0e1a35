//! Batched concurrent execution: determinism, session-pool reuse, panic
//! isolation and edge cases of `BatchDriver` / `GradientEngine::run_batch`.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use dace_ad::GradientResult;
use dace_ad_repro::prelude::*;
use dace_runtime::RuntimeError;
use dace_tensor::Tensor;
use npbench::runner::batch_inputs;
use npbench::Preset;

fn symbols(pairs: &[(&str, i64)]) -> HashMap<String, i64> {
    pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

/// `Y = sin(X) * X + 2`, N = 32: element-wise, distinct per input.
fn elementwise_program() -> (dace_sdfg::Sdfg, HashMap<String, i64>) {
    let mut b = ProgramBuilder::new("serve");
    let n = b.symbol("N");
    b.add_input("X", vec![n.clone()]).unwrap();
    b.add_input("Y", vec![n.clone()]).unwrap();
    b.assign(
        "Y",
        ArrayExpr::a("X")
            .sin()
            .mul(ArrayExpr::a("X"))
            .add(ArrayExpr::s(2.0)),
    );
    (b.build().unwrap(), symbols(&[("N", 32)]))
}

/// Run `f` with every batch it starts fanning out to at most `workers`
/// items at once.
fn in_pool<R>(workers: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(workers)
        .build()
        .unwrap()
        .install(f)
}

fn item(i: usize) -> HashMap<String, Tensor> {
    let data: Vec<f64> = (0..32).map(|j| (i * 31 + j) as f64 * 0.125 - 1.5).collect();
    HashMap::from([("X".to_string(), Tensor::from_vec(data, &[32]).unwrap())])
}

/// Batched results are bit-identical to serial per-item runs on fresh
/// sessions, independent of batch size and pool width.
#[test]
fn batched_results_bit_identical_to_serial() {
    let (sdfg, syms) = elementwise_program();
    let program = compile(&sdfg, &syms).unwrap();

    // Serial reference: one session, rebound per item.
    let mut serial = Vec::new();
    let mut session = program.session();
    for i in 0..8 {
        session.clear_bindings();
        for (k, v) in item(i) {
            session.set_input(&k, v).unwrap();
        }
        session.run().unwrap();
        serial.push(session.array("Y").unwrap().clone());
    }

    for workers in [1, 3, 8] {
        let driver = BatchDriver::new(program.clone());
        let items: Vec<_> = (0..8).map(item).collect();
        let out = in_pool(workers, || driver.run_batch(&items, &["Y"]));
        assert_eq!(out.report.items, 8);
        assert_eq!(out.report.succeeded, 8);
        for (i, result) in out.items.iter().enumerate() {
            let batched = &result.as_ref().unwrap().outputs["Y"];
            assert_eq!(batched.shape(), serial[i].shape());
            for (a, b) in batched.data().iter().zip(serial[i].data()) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "item {i} diverged (workers={workers})"
                );
            }
        }
    }
}

/// Engine-level batched gradients are bit-identical to looping
/// `GradientEngine::run` over the same input sets.
#[test]
fn batched_gradients_match_serial_engine_runs() {
    let kernel = npbench::kernel_by_name("atax").unwrap();
    let sizes = kernel.sizes(Preset::Test);
    let items = batch_inputs(kernel.as_ref(), &sizes, 6);
    let sdfg = kernel.build_dace(&sizes);
    let syms = kernel.symbols(&sizes);
    let wrt = kernel.wrt();

    let mut engine = GradientEngine::new(&sdfg, "OUT", &wrt, &syms, &AdOptions::default()).unwrap();
    let serial: Vec<_> = items.iter().map(|i| engine.run(i).unwrap()).collect();
    let batched = engine.run_batch(&items).unwrap();

    assert_eq!(batched.items.len(), serial.len());
    assert_eq!(batched.batch.succeeded, serial.len());
    for (s, b) in serial.iter().zip(&batched.items) {
        assert_eq!(s.output_value.to_bits(), b.output_value.to_bits());
        assert_eq!(s.gradients.len(), b.gradients.len());
        for (name, sg) in &s.gradients {
            let bg = &b.gradients[name];
            for (x, y) in sg.data().iter().zip(bg.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "gradient of {name} diverged");
            }
        }
    }
    // The whole batch (and the serial loop before it) shares one lowering.
    assert_eq!(batched.batch.plan_cache.misses, 1);
}

/// After warmup the pool serves batches without creating sessions or
/// missing the plan cache.
#[test]
fn session_pool_reuses_after_warmup() {
    in_pool(2, || {
        let (sdfg, syms) = elementwise_program();
        let program = compile(&sdfg, &syms).unwrap();
        let driver = BatchDriver::new(program);
        let items: Vec<_> = (0..6).map(item).collect();

        // Warm to the worker width: the first batch alone warms only as many
        // sessions as its items happened to overlap (possibly one).
        driver.warm(2);
        let first = driver.run_batch(&items, &["Y"]);
        assert_eq!(first.report.succeeded, 6);
        let created_after_warmup = driver.sessions_created();
        assert_eq!(
            created_after_warmup, 2,
            "two workers never hold more than two sessions"
        );

        for _ in 0..3 {
            let next = driver.run_batch(&items, &["Y"]);
            assert_eq!(next.report.succeeded, 6);
            assert_eq!(
                driver.sessions_created(),
                created_after_warmup,
                "warm batches must not create sessions"
            );
            // Compiling happened exactly once for this (SDFG, symbols) pair —
            // serving any number of batches adds no plan-cache traffic.
            assert_eq!(next.report.plan_cache.misses, 1);
        }
        assert!(driver.sessions_reused() > 0);
        assert_eq!(driver.pooled_sessions() as u64, created_after_warmup);
    });
}

/// `warm` pre-creates sessions so the first batch checks out warm ones.
#[test]
fn warm_prefills_the_pool() {
    in_pool(2, || {
        let (sdfg, syms) = elementwise_program();
        let program = compile(&sdfg, &syms).unwrap();
        let driver = BatchDriver::new(program);
        driver.warm(3);
        assert_eq!(driver.pooled_sessions(), 3);
        assert_eq!(driver.sessions_created(), 3);
        // Warming to a smaller target is a no-op.
        driver.warm(2);
        assert_eq!(driver.pooled_sessions(), 3);

        let items: Vec<_> = (0..3).map(item).collect();
        let out = driver.run_batch(&items, &["Y"]);
        assert_eq!(out.report.succeeded, 3);
        assert_eq!(
            driver.sessions_created(),
            3,
            "warm sessions served the batch"
        );
        assert!(driver.sessions_reused() >= 1);
    });
}

/// A panicking item is reported for that item only: its session is
/// discarded, every other item completes, and the driver keeps serving.
#[test]
fn panic_in_one_item_does_not_poison_the_pool() {
    in_pool(2, || {
        let (sdfg, syms) = elementwise_program();
        let program = compile(&sdfg, &syms).unwrap();
        let driver = BatchDriver::new(program);
        let items: Vec<_> = (0..5).map(item).collect();

        let out = driver.run_batch_with(5, |i, session| -> Result<f64, String> {
            if i == 3 {
                panic!("boom in item 3");
            }
            session.clear_bindings();
            for (k, v) in &items[i] {
                session.set_input(k, v.clone()).map_err(|e| e.to_string())?;
            }
            session.run().map_err(|e| e.to_string())?;
            Ok(session.array("Y").unwrap().data()[0])
        });
        assert_eq!(out.report.items, 5);
        assert_eq!(out.report.succeeded, 4);
        assert_eq!(out.report.failed, 1);
        match &out.items[3] {
            Err(BatchError::Panicked(msg)) => assert!(msg.contains("boom in item 3")),
            other => panic!("expected a panic report, got {other:?}"),
        }
        for (i, result) in out.items.iter().enumerate() {
            if i != 3 {
                assert!(result.is_ok(), "item {i} should be unaffected");
            }
        }

        // The pool survives: a follow-up batch succeeds for every item.
        let next = driver.run_batch(&items, &["Y"]);
        assert_eq!(next.report.succeeded, 5);
        assert_eq!(next.report.failed, 0);
    });
}

/// Engine-level panic surface: `EngineError::BatchItemPanicked` names the
/// item, and the engine (with its pooled driver) keeps serving.
#[test]
fn engine_reports_panicked_item_and_survives() {
    let kernel = npbench::kernel_by_name("atax").unwrap();
    let sizes = kernel.sizes(Preset::Test);
    let items = batch_inputs(kernel.as_ref(), &sizes, 3);
    let sdfg = kernel.build_dace(&sizes);
    let syms = kernel.symbols(&sizes);
    let wrt = kernel.wrt();
    let mut engine = GradientEngine::new(&sdfg, "OUT", &wrt, &syms, &AdOptions::default()).unwrap();

    // An unknown input name fails only its own item; the engine returns the
    // first item error (typed, not a panic).
    let mut bad = items.clone();
    bad[1].insert("NOPE".to_string(), Tensor::zeros(&[2]));
    match engine.run_batch(&bad) {
        Err(EngineError::UnknownInput(name)) => assert_eq!(name, "NOPE"),
        other => panic!("expected UnknownInput, got {other:?}"),
    }
    // The pooled driver still serves clean batches afterwards.
    let ok = engine.run_batch(&items).unwrap();
    assert_eq!(ok.batch.succeeded, 3);
}

/// One item failing with a runtime error leaves the rest of the batch
/// intact and recycles its session.
#[test]
fn item_errors_are_isolated() {
    in_pool(2, || {
        let (sdfg, syms) = elementwise_program();
        let program = compile(&sdfg, &syms).unwrap();
        let driver = BatchDriver::new(program);
        let mut items: Vec<_> = (0..4).map(item).collect();
        // Wrong shape for item 2.
        items[2].insert("X".to_string(), Tensor::zeros(&[7]));

        // One session per worker up front, so "creates nothing new" below does
        // not depend on how the first batch's items overlapped.
        driver.warm(2);
        let out = driver.run_batch(&items, &["Y"]);
        assert_eq!(out.report.succeeded, 3);
        assert_eq!(out.report.failed, 1);
        assert!(matches!(&out.items[2], Err(BatchError::Item(_))));
        let created = driver.sessions_created();

        // The erroring item's session went back to the pool: serving again
        // creates nothing new.
        items[2] = item(2);
        let next = driver.run_batch(&items, &["Y"]);
        assert_eq!(next.report.succeeded, 4);
        assert_eq!(driver.sessions_created(), created);

        // An item that fails *before* running, on a warm session that served a
        // previous tenant, must contribute nothing to the batch totals.
        let per_item = next.report.total_tasklet_invocations / 4;
        assert!(per_item > 0);
        items[2].insert("X".to_string(), Tensor::zeros(&[7]));
        let third = driver.run_batch(&items, &["Y"]);
        assert_eq!(third.report.succeeded, 3);
        assert_eq!(
            third.report.total_tasklet_invocations,
            3 * per_item,
            "a failed-before-run item must not leak its session's previous run into the totals"
        );
    });
}

/// Free-hint changes reach sessions already parked in the idle pool: the
/// pool is warmed *without* hints, hints are set afterwards, and the very
/// next batch must honour them on the reused sessions (regression test —
/// `set_free_hints` used to affect only sessions created after the call,
/// so warm pools silently kept stale hints).
#[test]
fn warm_pool_sessions_pick_up_free_hint_changes() {
    in_pool(2, || {
        // X -> T (transient, state 0) -> Y (state 1); hint frees T after
        // state 1, which is visible as a drop in `final_bytes`.
        let mut b = ProgramBuilder::new("hint_refresh");
        let n = b.symbol("N");
        b.add_input("X", vec![n.clone()]).unwrap();
        b.add_transient("T", vec![n.clone()]).unwrap();
        b.add_input("Y", vec![n.clone()]).unwrap();
        b.assign("T", ArrayExpr::a("X").mul(ArrayExpr::s(2.0)));
        b.assign("Y", ArrayExpr::a("T").mul(ArrayExpr::s(2.0)));
        let sdfg = b.build().unwrap();
        let syms = symbols(&[("N", 16)]);
        let program = compile(&sdfg, &syms).unwrap();
        let inputs = |i: usize| {
            HashMap::from([(
                "X".to_string(),
                Tensor::from_vec(vec![i as f64 + 1.0; 16], &[16]).unwrap(),
            )])
        };
        let items: Vec<_> = (0..4).map(inputs).collect();

        let mut driver = BatchDriver::new(program);
        // Warm the pool with hint-less sessions: T survives every run.  One per
        // worker up front, so no batch creates any — left to the first batch,
        // a fast worker may serve it alone and the next batch create a second.
        driver.warm(2);
        let cold = driver.run_batch(&items, &["Y"]);
        assert_eq!(cold.report.succeeded, 4);
        let created = driver.sessions_created();
        let unhinted_final = cold.items[0].as_ref().unwrap().report.final_bytes;

        // Change the hints under a warm pool…
        let hints = HashMap::from([(1usize, vec!["T".to_string()])]);
        driver.set_free_hints(&hints);

        // …and the next batch must honour them on the *reused* sessions.
        let warm = driver.run_batch(&items, &["Y"]);
        assert_eq!(warm.report.succeeded, 4);
        assert_eq!(
            driver.sessions_created(),
            created,
            "the batch must reuse the warm pool, not hide the bug behind fresh sessions"
        );
        for (i, item) in warm.items.iter().enumerate() {
            let item = item.as_ref().unwrap();
            assert!(
                item.report.final_bytes < unhinted_final,
                "item {i}: warm session kept stale hints (final_bytes {} !< {unhinted_final})",
                item.report.final_bytes
            );
            assert_eq!(item.outputs["Y"].data()[0], (i as f64 + 1.0) * 4.0);
        }

        // Clearing the hints also reaches the warm pool.
        driver.set_free_hints(&HashMap::new());
        let cleared = driver.run_batch(&items, &["Y"]);
        assert_eq!(
            cleared.items[0].as_ref().unwrap().report.final_bytes,
            unhinted_final,
            "clearing hints must restore the unhinted footprint on pooled sessions"
        );
    });
}

fn bits(t: &Tensor) -> (Vec<usize>, Vec<u64>) {
    (
        t.shape().to_vec(),
        t.data().iter().map(|v| v.to_bits()).collect(),
    )
}

/// Bitwise equality of two gradient results.
fn assert_same_bits(a: &GradientResult, b: &GradientResult, what: &str) {
    assert_eq!(
        a.output_value.to_bits(),
        b.output_value.to_bits(),
        "{what}: output"
    );
    assert!(
        a.gradients.keys().eq(b.gradients.keys()),
        "{what}: gradient names"
    );
    for (name, g) in &a.gradients {
        assert_eq!(
            bits(g),
            bits(&b.gradients[name]),
            "{what}: gradient of {name}"
        );
    }
}

/// Runs `items` twice over on one engine and compares each run with a fresh
/// engine's.
fn assert_reruns_like_fresh(
    name: &str,
    sdfg: &dace_sdfg::Sdfg,
    wrt: &[&str],
    syms: &HashMap<String, i64>,
    options: &AdOptions,
    items: &[HashMap<String, Tensor>],
) {
    let engine = || GradientEngine::new(sdfg, "OUT", wrt, syms, options).unwrap();
    let mut warm = engine();
    for round in 0..2 {
        for (i, inputs) in items.iter().enumerate() {
            let got = warm.run(inputs).unwrap();
            let fresh = engine().run(inputs).unwrap();
            assert_same_bits(&got, &fresh, &format!("{name} round {round} item {i}"));
        }
    }
}

/// Gradients are moved out of the engine's session, so every run after the
/// first refills them: a session whose gradients were taken reruns
/// bit-identical to a fresh session, on every kernel and on Listing-1 with
/// its recomputation free hints.
#[test]
fn taken_gradients_rerun_bit_identical_to_a_fresh_session() {
    for kernel in npbench::all_kernels() {
        let sizes = kernel.sizes(Preset::Test);
        assert_reruns_like_fresh(
            kernel.name(),
            &kernel.build_dace(&sizes),
            &kernel.wrt(),
            &kernel.symbols(&sizes),
            &AdOptions::default(),
            &batch_inputs(kernel.as_ref(), &sizes, 2),
        );
    }
    let fill = |seed: f64| {
        Tensor::from_vec(
            (0..16).map(|k| (k as f64 * 0.37 + seed).sin()).collect(),
            &[4, 4],
        )
        .unwrap()
    };
    assert_reruns_like_fresh(
        "listing1",
        &npbench::listing1(),
        &["C", "D"],
        &symbols(&[("N", 4)]),
        &AdOptions {
            strategy: CheckpointStrategy::RecomputeAll,
        },
        &[
            HashMap::from([("C".to_string(), fill(0.1)), ("D".to_string(), fill(2.3))]),
            HashMap::from([("C".to_string(), fill(0.7)), ("D".to_string(), fill(-1.1))]),
        ],
    );
}

/// A fetch list naming one array twice, or naming a bound input, returns
/// every name, on a cold and on a warm session alike.
#[test]
fn fetch_returns_duplicate_and_bound_input_names() {
    let (sdfg, syms) = elementwise_program();
    let program = compile(&sdfg, &syms).unwrap();
    let driver = BatchDriver::new(program.clone());
    let mut session = program.session();
    for round in 0..3 {
        let items = vec![item(round)];
        let out = in_pool(1, || driver.run_batch(&items, &["Y", "X", "Y"]));
        let outputs = &out.items[0].as_ref().unwrap().outputs;
        assert_eq!(outputs.len(), 2, "round {round}");
        assert_eq!(bits(&outputs["X"]), bits(&items[0]["X"]), "round {round}");
        session.set_input("X", items[0]["X"].clone()).unwrap();
        session.run().unwrap();
        let y = session.array("Y").unwrap();
        assert_eq!(bits(&outputs["Y"]), bits(y), "round {round}");
    }
    assert_eq!(driver.sessions_created(), 1);
}

/// A bind that fails with `ShapeMismatch` partway through the inputs leaves
/// the next correct run bit-identical to a fresh engine's.
#[test]
fn a_failed_bind_leaves_the_next_run_bit_identical() {
    let kernel = npbench::kernel_by_name("gesummv").unwrap();
    let sizes = kernel.sizes(Preset::Test);
    let items = batch_inputs(kernel.as_ref(), &sizes, 2);
    let sdfg = kernel.build_dace(&sizes);
    let syms = kernel.symbols(&sizes);
    let wrt = kernel.wrt();
    let engine = || GradientEngine::new(&sdfg, "OUT", &wrt, &syms, &AdOptions::default()).unwrap();

    let fresh = engine().run(&items[1]).unwrap();
    let wrong = Tensor::zeros(&[sizes.n + 1]);

    // Through the engine, in whatever order its map yields the inputs.
    let mut warm = engine();
    warm.run(&items[0]).unwrap();
    let mut bad = items[1].clone();
    bad.insert("x".to_string(), wrong.clone());
    assert!(matches!(
        warm.run(&bad),
        Err(EngineError::Runtime(RuntimeError::ShapeMismatch { .. }))
    ));
    assert_same_bits(&warm.run(&items[1]).unwrap(), &fresh, "engine");

    // On a session of the same program, failing on the second input.
    let plan = warm.plan();
    let mut session = warm
        .gradient_program()
        .session()
        .with_free_hints(&plan.free_hints);
    let bind = |session: &mut Session, inputs: &HashMap<String, Tensor>| {
        session.clear_bindings();
        for name in ["A", "B", "x"] {
            session.copy_input(name, &inputs[name]).unwrap();
        }
    };
    bind(&mut session, &items[0]);
    session.run().unwrap();
    session.clear_bindings();
    session.copy_input("A", &items[1]["A"]).unwrap();
    assert!(matches!(
        session.copy_input("x", &wrong),
        Err(RuntimeError::ShapeMismatch { .. })
    ));
    bind(&mut session, &items[1]);
    session.run().unwrap();
    let out = session.array("OUT").unwrap().data()[0];
    assert_eq!(
        out.to_bits(),
        fresh.output_value.to_bits(),
        "session: output"
    );
    for (input, g) in &fresh.gradients {
        let got = session.take_array(&plan.gradients[input]).unwrap();
        assert_eq!(bits(&got), bits(g), "session: gradient of {input}");
    }
}

/// An empty batch is a cheap no-op with a well-formed report.
#[test]
fn empty_batch_is_a_no_op() {
    let (sdfg, syms) = elementwise_program();
    let program = compile(&sdfg, &syms).unwrap();
    let driver = BatchDriver::new(program);
    let out = driver.run_batch(&[], &["Y"]);
    assert!(out.items.is_empty());
    assert_eq!(out.report.items, 0);
    assert_eq!(out.report.succeeded, 0);
    assert_eq!(out.report.failed, 0);
    assert_eq!(
        out.report.items_per_sec, None,
        "an empty batch has no throughput figure, not a fake zero"
    );
    assert_eq!(out.report.total_tasklet_invocations, 0);
    assert_eq!(driver.sessions_created(), 0);

    let mut engine = {
        let kernel = npbench::kernel_by_name("atax").unwrap();
        let sizes = kernel.sizes(Preset::Test);
        GradientEngine::new(
            &kernel.build_dace(&sizes),
            "OUT",
            &kernel.wrt(),
            &kernel.symbols(&sizes),
            &AdOptions::default(),
        )
        .unwrap()
    };
    let out = engine.run_batch(&[]).unwrap();
    assert!(out.items.is_empty());
    assert_eq!(out.batch.items, 0);
}

/// The acceptance target of the batched-serving layer: >= 2x items/sec over
/// the serial single-session loop on atax at bench sizes, when the machine
/// actually has >= 4 workers to fan out to.  On narrower machines (the CI
/// container exposes a single CPU) inter-request parallelism cannot beat a
/// serial loop, so the assertion degrades to "no pathological slowdown".
#[test]
fn batched_serving_beats_serial_with_enough_workers() {
    let kernel = npbench::kernel_by_name("atax").unwrap();
    let sizes = kernel.sizes(Preset::Bench);
    let items = batch_inputs(kernel.as_ref(), &sizes, 8);
    let mut engine = GradientEngine::new(
        &kernel.build_dace(&sizes),
        "OUT",
        &kernel.wrt(),
        &kernel.symbols(&sizes),
        &AdOptions::default(),
    )
    .unwrap();
    // Warm both paths: the serial session and the batch driver's pool.
    engine.run(&items[0]).unwrap();
    let workers = engine.run_batch(&items).unwrap().batch.workers;
    // One round: the serial single-session loop over the items, then one
    // batch of them; the times of both.
    let mut round = || {
        let start = Instant::now();
        for inputs in &items {
            engine.run(inputs).unwrap();
        }
        let serial = start.elapsed();
        let start = Instant::now();
        engine.run_batch(&items).unwrap();
        (serial, start.elapsed())
    };
    // Enough interleaved rounds for each side to time ~250 ms in total, read
    // as the ratio of each side's fastest round: the other tests of this
    // binary share the cores for about the first 100 ms, so a round's ratio
    // depends on what ran beside it (0.2-0.9x on two cores), while the
    // fastest round of each side is one that nothing else disturbed.
    let (serial, batched) = round();
    let rounds = ((0.25 / serial.min(batched).as_secs_f64()).ceil() as usize).max(10);
    let (serial, batched) = (0..rounds).map(|_| round()).fold(
        (Duration::MAX, Duration::MAX),
        |(s, b), (serial, batched)| (s.min(serial), b.min(batched)),
    );
    let speedup = serial.as_secs_f64() / batched.as_secs_f64().max(1e-12);
    if workers >= 4 {
        assert!(
            speedup >= 2.0,
            "expected >= 2x batched speedup with {workers} workers, got {speedup:.2}x"
        );
    } else {
        eprintln!(
            "only {workers} worker(s) available; batched speedup {speedup:.2}x (parity expected)"
        );
        assert!(
            speedup >= 0.5,
            "batched serving should never be pathologically slower than serial, got {speedup:.2}x"
        );
    }
}
