//! ILP-based checkpointing (Section IV of the paper): the Listing-1 program
//! is differentiated under a user-set memory limit, and the engine decides
//! automatically which forwarded arrays to store and which to recompute.
//!
//! Run with `cargo run --release --example checkpointing`.

use std::collections::HashMap;

use dace_ad_repro::npbench::listing1;
use dace_ad_repro::prelude::*;

fn main() {
    let n: usize = 180;
    let fwd = listing1();
    let mut symbols = HashMap::new();
    symbols.insert("N".to_string(), n as i64);
    let mut inputs = HashMap::new();
    inputs.insert(
        "C".to_string(),
        dace_ad_repro::tensor::random::uniform(&[n, n], 7),
    );
    inputs.insert(
        "D".to_string(),
        dace_ad_repro::tensor::random::uniform(&[n, n], 8),
    );

    // 1) Store-all baseline.
    let mut store_all =
        GradientEngine::new(&fwd, "OUT", &["C", "D"], &symbols, &AdOptions::default()).unwrap();
    let store_res = store_all.run(&inputs).unwrap();
    let store_peak = store_res.report.peak_bytes;
    let mib = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
    let predicted = |e: &GradientEngine| e.plan().ilp_report.as_ref().unwrap().predicted_peak_bytes;
    println!(
        "store-all:       peak = {:7.2} MiB (predicted {:7.2}), runtime = {:?}",
        mib(store_peak),
        mib(predicted(&store_all)),
        store_res.report.elapsed
    );

    // 2) ILP under a limit below the store-all peak.
    let limit = store_peak - (n * n * 8);
    let mut ilp = GradientEngine::new(
        &fwd,
        "OUT",
        &["C", "D"],
        &symbols,
        &AdOptions::with_memory_limit(limit),
    )
    .unwrap();
    let report = ilp.plan().ilp_report.clone().unwrap();
    println!("memory limit:    {:7.2} MiB", mib(limit));
    println!("ILP decision:    store {:?}", report.stored);
    println!("                 recompute {:?}", report.recomputed);
    println!(
        "                 solved in {:?} ({} branch-and-bound nodes)",
        report.solve_time, report.solver_nodes
    );
    let ilp_res = ilp.run(&inputs).unwrap();
    println!(
        "ILP config:      peak = {:7.2} MiB (predicted {:7.2}), runtime = {:?}",
        mib(ilp_res.report.peak_bytes),
        mib(report.predicted_peak_bytes),
        ilp_res.report.elapsed
    );

    // Gradients are identical regardless of the checkpointing strategy.
    for k in ["C", "D"] {
        assert!(allclose(
            &store_res.gradients[k],
            &ilp_res.gradients[k],
            1e-9,
            1e-11
        ));
    }
    assert!(ilp_res.report.peak_bytes <= limit);
    // The memory-measurement sequence is the peak the run observes (§IV-A).
    assert_eq!(predicted(&store_all), store_peak);
    assert_eq!(report.predicted_peak_bytes, ilp_res.report.peak_bytes);
    println!("\ngradients identical under both configurations ✔");
}
