//! Scientific-computing scenario: sensitivity analysis of a heat-equation
//! style stencil.  The gradient of the final temperature sum with respect to
//! the initial condition is computed by reversing the time-step loop —
//! compactly, without unrolling it (Section III of the paper).
//!
//! Run with `cargo run --release --example stencil_sensitivity`.

use std::collections::HashMap;

use dace_ad_repro::frontend::{elem, lit};
use dace_ad_repro::prelude::*;

fn main() {
    let n: usize = 32;
    let steps: usize = 20;

    // for t in 0..STEPS: for i in 1..N-1: A[i] = 0.25*A[i-1] + 0.5*A[i] + 0.25*A[i+1]
    let mut b = ProgramBuilder::new("heat1d");
    let sym_n = b.symbol("N");
    let sym_t = b.symbol("STEPS");
    b.add_input("A", vec![sym_n.clone()]).unwrap();
    b.add_scalar("OUT").unwrap();
    let i = SymExpr::sym("i");
    b.for_range("t", 0, sym_t.clone(), |b| {
        b.for_range("i", 1, sym_n.sub(&SymExpr::int(1)), |b| {
            b.assign_element(
                "A",
                vec![i.clone()],
                elem("A", vec![i.sub(&SymExpr::int(1))])
                    .mul(lit(0.25))
                    .add(elem("A", vec![i.clone()]).mul(lit(0.5)))
                    .add(elem("A", vec![i.add_int(1)]).mul(lit(0.25))),
            );
        });
    });
    b.sum_into("OUT", "A", false);
    let forward = b.build().unwrap();

    let mut symbols = HashMap::new();
    symbols.insert("N".to_string(), n as i64);
    symbols.insert("STEPS".to_string(), steps as i64);

    // Initial condition: a hot spot in the middle.
    let mut a0 = Tensor::zeros(&[n]);
    *a0.at_mut(&[n / 2]).unwrap() = 100.0;
    let mut inputs = HashMap::new();
    inputs.insert("A".to_string(), a0);

    let mut engine =
        GradientEngine::new(&forward, "OUT", &["A"], &symbols, &AdOptions::default()).unwrap();
    let result = engine.run(&inputs).unwrap();

    println!("total heat after {steps} steps: {:.3}", result.output_value);
    println!("sensitivity of the total heat to each initial cell:");
    let g = &result.gradients["A"];
    for (idx, v) in g.data().iter().enumerate() {
        println!("  dOUT/dA0[{idx:>2}] = {v:.4}");
    }
    // Interior cells conserve heat, boundary cells leak it: the sensitivity
    // is 1.0 in the middle and decays towards the boundary.
    assert!((g.at(&[n / 2]).unwrap() - 1.0).abs() < 0.2);
    println!("\nbackward pass ran the time-step loop in reverse without unrolling ✔");
    println!(
        "gradient program executed {} states in {:?}",
        result.report.state_executions, result.report.elapsed
    );

    // The engine is compile-once/run-many: a second sensitivity run reuses
    // the lowered gradient plan and the session's tensor slab.
    let rerun = engine.run(&inputs).unwrap();
    assert_eq!(rerun.output_value.to_bits(), result.output_value.to_bits());
    println!(
        "re-run reused the lowered plan in {:?}",
        rerun.report.elapsed
    );
}
