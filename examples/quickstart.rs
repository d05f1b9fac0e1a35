//! Quickstart: write a NumPy-style program, differentiate it with DaCe AD,
//! and validate the gradient against finite differences.
//!
//! Execution follows the compile-once model: `compile` lowers an SDFG into
//! a `CompiledProgram` (cached process-wide), a `Session` runs it as many
//! times as needed, and `GradientEngine` does the same for the gradient
//! program.
//!
//! Run with `cargo run --release --example quickstart`.

use std::collections::HashMap;

use dace_ad_repro::ad::engine::finite_difference_gradient;
use dace_ad_repro::prelude::*;

fn main() {
    // OUT = sum(sin(X * Y) + 2 * X)   for X, Y of size N
    let mut builder = ProgramBuilder::new("quickstart");
    let n = builder.symbol("N");
    builder.add_input("X", vec![n.clone()]).unwrap();
    builder.add_input("Y", vec![n.clone()]).unwrap();
    builder.add_transient("T", vec![n.clone()]).unwrap();
    builder.add_scalar("OUT").unwrap();
    builder.assign(
        "T",
        ArrayExpr::a("X")
            .mul(ArrayExpr::a("Y"))
            .sin()
            .add(ArrayExpr::a("X").mul(ArrayExpr::s(2.0))),
    );
    builder.sum_into("OUT", "T", false);
    let forward = builder.build().unwrap();
    println!("{}", forward.describe());

    // Concrete sizes and inputs.
    let mut symbols = HashMap::new();
    symbols.insert("N".to_string(), 8i64);
    let mut inputs = HashMap::new();
    inputs.insert(
        "X".to_string(),
        dace_ad_repro::tensor::random::uniform(&[8], 1),
    );
    inputs.insert(
        "Y".to_string(),
        dace_ad_repro::tensor::random::uniform(&[8], 2),
    );

    // Run just the forward program through the compile-once API: lower it
    // into a CompiledProgram, open a Session, bind inputs, run.
    let program = compile(&forward, &symbols).unwrap();
    let mut session = program.session();
    for (name, tensor) in &inputs {
        session.set_input(name, tensor.clone()).unwrap();
    }
    session.run().unwrap();
    println!(
        "forward-only OUT: {:.6}",
        session.array("OUT").unwrap().data()[0]
    );

    // Build the gradient program (store-all), compile it once, run it.
    let mut engine = GradientEngine::new(
        &forward,
        "OUT",
        &["X", "Y"],
        &symbols,
        &AdOptions::default(),
    )
    .unwrap();
    let result = engine.run(&inputs).unwrap();
    println!("forward output: {:.6}", result.output_value);
    println!("dOUT/dX = {:?}", result.gradients["X"].data());
    println!("dOUT/dY = {:?}", result.gradients["Y"].data());

    // Repeated runs reuse the lowered plan and the tensor slab: the cache
    // miss counter stays at one lowering no matter how often we run.
    let again = engine.run(&inputs).unwrap();
    assert_eq!(again.report.plan_cache_misses, 1);

    // Validate against central finite differences of the forward program
    // alone.  The whole sweep reuses one session — one lowering total.
    let fd = finite_difference_gradient(&forward, "OUT", "X", &symbols, &inputs, 1e-6).unwrap();
    assert!(allclose(&result.gradients["X"], &fd, 1e-4, 1e-6));
    println!("gradient matches finite differences ✔ (one forward lowering)");
}
