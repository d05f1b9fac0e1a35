//! Dynamic-admission serving: requests submitted one by one, coalesced by
//! the admission queue, with deadlines and cancellation.
//!
//! `examples/batched_serving.rs` shows the *static* batch API (the caller
//! assembles N requests up front).  This example shows the serving shape a
//! real deployment has: independent clients submit requests individually,
//! the server forms batches on its own, and every request carries a handle
//! through which its result — or its typed rejection — comes back.
//!
//! Run with: `cargo run --release --example dynamic_serving`

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use dace_ad_repro::prelude::*;
use dace_ad_repro::tensor::Tensor;

fn main() {
    // The same small "model" as the batched example: OUT = sum(sin(W * X)).
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

    let request = |i: usize| -> HashMap<String, Tensor> {
        let w: Vec<f64> = (0..256).map(|j| ((j % 17) as f64) * 0.05).collect();
        let x: Vec<f64> = (0..256).map(|j| (i * 7 + j) as f64 * 0.01).collect();
        HashMap::from([
            ("W".to_string(), Tensor::from_vec(w, &[256]).unwrap()),
            ("X".to_string(), Tensor::from_vec(x, &[256]).unwrap()),
        ])
    };

    // One engine, one compiled gradient program, one dynamic server — a
    // `Gateway` whose only tenant is the engine's gradient program.  An
    // idle dispatcher sends a request at once; whatever arrives while a
    // dispatch executes rides the next one, up to 4 at a time.
    let mut engine =
        GradientEngine::new(&sdfg, "OUT", &["W"], &symbols, &AdOptions::default()).unwrap();
    let gateway = Arc::new(Gateway::new(GatewayOptions {
        max_batch: 4,
        ..GatewayOptions::default()
    }));
    let server = engine
        .register_with(&gateway, "model", TenantConfig::default())
        .unwrap();

    // --- Clients submit individually; the server coalesces. --------------
    let handles: Vec<_> = (0..10)
        .map(|i| server.submit(&request(i)).expect("inputs are valid"))
        .collect();
    println!("10 requests submitted individually; waiting on their handles");
    for (i, handle) in handles.into_iter().enumerate() {
        let served = handle.wait().unwrap();
        println!(
            "  request {i}: OUT={:+.4}, latency {:?}, coalesced with {} peer(s)",
            served.result.output_value,
            served.latency,
            served.batched_with - 1,
        );
        // Served gradients are bit-identical to the blocking API.
        let blocking = engine.run(&request(i)).unwrap();
        assert_eq!(
            blocking.output_value.to_bits(),
            served.result.output_value.to_bits()
        );
    }

    // --- Deadlines reject before execution; cancellation is explicit. ----
    let budget = SubmitOptions {
        deadline: Some(Duration::ZERO),
        ..SubmitOptions::default()
    };
    let impatient = server.submit_with(&request(0), budget).unwrap();
    match impatient.wait() {
        Err(EngineError::Serve(ServeError::DeadlineExceeded { missed_by })) => {
            println!("\nzero-budget request rejected before execution (missed by {missed_by:?})");
        }
        other => panic!("expected a deadline rejection, got {other:?}"),
    }

    let stats = server.stats().expect("the engine's tenant is registered");
    println!(
        "\nserver stats: admitted={}, completed={}, expired={}, batches={} \
         (largest {}), p50={:?}, p95={:?}",
        stats.admitted,
        stats.completed,
        stats.expired,
        stats.batches,
        stats.largest_batch,
        stats.p50_latency,
        stats.p95_latency,
    );
    assert_eq!(stats.completed, 10);
    assert_eq!(stats.expired, 1);
    assert!(stats.conserves(), "every request is in exactly one bucket");
    // The blocking runs, the served requests and the batch dispatches all
    // shared one gradient lowering.
    assert_eq!(engine.gradient_program().cache_stats().misses, 1);
    println!("plan cache: the gradient program was lowered exactly once");
}
