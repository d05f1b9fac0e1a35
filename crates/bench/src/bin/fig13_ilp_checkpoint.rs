//! Fig. 13 — ILP checkpointing: runtime and measured peak memory of every
//! store/recompute configuration of the §IV-A motivating example, plus the
//! configuration selected automatically by the ILP under a memory limit.

use std::collections::HashMap;
use std::time::Instant;

use dace_ad::{AdOptions, CheckpointStrategy, GradientEngine};
use dace_tensor::random::uniform;
use npbench::listing1;

fn main() {
    let n: usize = 360; // each [N,N] f64 array is ~1 MiB
    let fwd = listing1();
    let mut symbols = HashMap::new();
    symbols.insert("N".to_string(), n as i64);
    let mut inputs = HashMap::new();
    inputs.insert("C".to_string(), uniform(&[n, n], 51));
    inputs.insert("D".to_string(), uniform(&[n, n], 52));
    let wrt = ["C", "D"];
    let candidates = ["A0", "A1", "A2"];

    println!("=== Fig. 13: store/recompute configurations of the Listing-1 example (N = {n}) ===");
    println!(
        "{:<8} {:<22} {:>12} {:>16} {:>16}",
        "config", "stored arrays", "runtime [ms]", "peak memory [MiB]", "predicted [MiB]"
    );

    let mib = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
    let mut results = Vec::new();
    for mask in 0..(1u32 << candidates.len()) {
        let store: Vec<String> = candidates
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, a)| a.to_string())
            .collect();
        let opts = AdOptions {
            strategy: CheckpointStrategy::Manual {
                store: store.clone(),
            },
        };
        let mut engine = GradientEngine::new(&fwd, "OUT", &wrt, &symbols, &opts).unwrap();
        let start = Instant::now();
        let result = engine.run(&inputs).unwrap();
        let elapsed = start.elapsed();
        // The memory-measurement sequence is the peak (§IV-A): the same
        // number on every line.
        let predicted = engine
            .plan()
            .ilp_report
            .as_ref()
            .unwrap()
            .predicted_peak_bytes;
        println!(
            "C-{:<6} {:<22} {:>12.2} {:>16.2} {:>16.2}",
            mask,
            if store.is_empty() {
                "(none)".to_string()
            } else {
                store.join(",")
            },
            elapsed.as_secs_f64() * 1e3,
            mib(result.report.peak_bytes),
            mib(predicted)
        );
        results.push((mask, elapsed, result.report.peak_bytes));
    }

    // ILP-selected configuration under a limit between the extremes.
    let max_peak = results.iter().map(|(_, _, p)| *p).max().unwrap();
    let min_peak = results.iter().map(|(_, _, p)| *p).min().unwrap();
    let limit = min_peak + (max_peak - min_peak) * 3 / 4;
    let opts = AdOptions {
        strategy: CheckpointStrategy::Ilp {
            memory_limit_bytes: limit,
        },
    };
    let mut engine = GradientEngine::new(&fwd, "OUT", &wrt, &symbols, &opts).unwrap();
    let report = engine.plan().ilp_report.clone().unwrap();
    let start = Instant::now();
    let result = engine.run(&inputs).unwrap();
    let elapsed = start.elapsed();
    println!("\nuser-set memory limit: {:.2} MiB", mib(limit));
    println!(
        "ILP-selected configuration: store {:?}, recompute {:?} (solve time {:?}, {} B&B nodes)",
        report.stored, report.recomputed, report.solve_time, report.solver_nodes
    );
    println!(
        "ILP configuration runtime {:.2} ms, measured peak {:.2} MiB (predicted {:.2} MiB)",
        elapsed.as_secs_f64() * 1e3,
        mib(result.report.peak_bytes),
        mib(report.predicted_peak_bytes)
    );
}
