//! Batched concurrent serving over one shared compiled plan.
//!
//! Models the serving shape the runtime is built for: many users submit
//! independent requests against the *same* program, which is compiled once
//! and amortised across every request.  Two layers are shown:
//!
//! 1. `BatchDriver` — raw runtime serving of a forward program, and
//! 2. `GradientEngine::run_batch` — batched gradient serving (N input sets
//!    in, N gradient maps out) over the engine's gradient program.
//!
//! Run with: `cargo run --release --example batched_serving`

use std::collections::HashMap;

use dace_ad_repro::prelude::*;
use dace_ad_repro::tensor::Tensor;

fn main() {
    // A small "model": OUT = sum(sin(W * X)) with parameters W and input X.
    let mut b = ProgramBuilder::new("model");
    let n = b.symbol("N");
    b.add_input("W", vec![n.clone()]).unwrap();
    b.add_input("X", vec![n.clone()]).unwrap();
    b.add_transient("T", vec![n.clone()]).unwrap();
    b.add_scalar("OUT").unwrap();
    b.assign("T", ArrayExpr::a("W").mul(ArrayExpr::a("X")).sin());
    b.sum_into("OUT", "T", false);
    let sdfg = b.build().unwrap();
    let symbols: HashMap<String, i64> = HashMap::from([("N".to_string(), 256)]);

    let n_items = 16usize;
    let request = |i: usize| -> HashMap<String, Tensor> {
        let w: Vec<f64> = (0..256).map(|j| ((j % 17) as f64) * 0.05).collect();
        let x: Vec<f64> = (0..256).map(|j| (i * 7 + j) as f64 * 0.01).collect();
        HashMap::from([
            ("W".to_string(), Tensor::from_vec(w, &[256]).unwrap()),
            ("X".to_string(), Tensor::from_vec(x, &[256]).unwrap()),
        ])
    };
    let requests: Vec<_> = (0..n_items).map(request).collect();

    // --- Layer 1: raw forward serving through BatchDriver. ----------------
    let program = compile(&sdfg, &symbols).unwrap();
    let driver = BatchDriver::new(program);
    driver.warm(4); // pre-create sessions off the serving path
    let out = driver.run_batch(&requests, &["OUT"]);
    println!("forward serving: {n_items} requests over one compiled plan");
    println!(
        "  {:.0} items/sec on {} worker(s), {} tasklet evals total",
        out.report.items_per_sec.unwrap_or(f64::NAN),
        out.report.workers,
        out.report.total_tasklet_invocations
    );
    assert_eq!(out.report.succeeded, n_items);

    // Steady state: the warm pool serves later batches without creating
    // sessions or lowering again.
    let again = driver.run_batch(&requests, &["OUT"]);
    println!(
        "  steady state: sessions_created={} (plateaued), sessions_reused={}",
        again.report.sessions_created, again.report.sessions_reused
    );

    // --- Layer 2: batched gradient serving through the engine. ------------
    let mut engine =
        GradientEngine::new(&sdfg, "OUT", &["W"], &symbols, &AdOptions::default()).unwrap();
    let batch = engine.run_batch(&requests).unwrap();
    println!(
        "\ngradient serving: {n_items} input sets -> {} gradient maps",
        batch.items.len()
    );
    println!(
        "  {:.0} items/sec on {} worker(s); gradient program lowered once",
        batch.batch.items_per_sec.unwrap_or(f64::NAN),
        batch.batch.workers
    );

    // Batched results are bit-identical to serial engine runs.
    let serial = engine.run(&requests[3]).unwrap();
    let batched = &batch.items[3];
    assert_eq!(
        serial.output_value.to_bits(),
        batched.output_value.to_bits()
    );
    for (name, g) in &serial.gradients {
        let bg = &batched.gradients[name];
        assert!(g.data().iter().zip(bg.data()).all(|(a, b)| a == b));
    }
    println!("  determinism check: batched item 3 is bit-identical to a serial run");
}
