//! # dace-bench
//!
//! Figure harness regenerating the tables and figures of the paper's
//! evaluation ("Benchmarks and examples" in `README.md`; what the repository
//! measures about itself is `perfbench/`, see `docs/benchmarking.md`).  Each
//! figure has a dedicated binary
//! (`cargo run --release -p dace-bench --bin figNN_...`).

use std::time::Duration;

use npbench::runner::{time_dace, time_jax};
use npbench::{Kernel, Preset, Sizes};

/// One row of a DaCe-AD-vs-baseline comparison table.
#[derive(Clone, Debug)]
pub struct Row {
    /// Kernel name.
    pub name: String,
    /// DaCe AD gradient time.
    pub dace: Duration,
    /// jax-rs baseline gradient time.
    pub jax: Duration,
    /// Speedup of DaCe AD over the baseline.
    pub speedup: f64,
}

/// Measure one kernel at the given preset.
pub fn measure_kernel(kernel: &dyn Kernel, preset: Preset, reps: usize) -> Result<Row, String> {
    let sizes = kernel.sizes(preset);
    measure_kernel_sized(kernel, &sizes, reps)
}

/// Measure one kernel at explicit sizes.
pub fn measure_kernel_sized(
    kernel: &dyn Kernel,
    sizes: &Sizes,
    reps: usize,
) -> Result<Row, String> {
    let inputs = kernel.inputs(sizes);
    let dace = time_dace(kernel, sizes, &inputs, reps)?;
    let jax = time_jax(kernel, sizes, &inputs, reps);
    let speedup = jax.elapsed.as_secs_f64() / dace.elapsed.as_secs_f64().max(1e-12);
    Ok(Row {
        name: kernel.name().to_string(),
        dace: dace.elapsed,
        jax: jax.elapsed,
        speedup,
    })
}

/// Geometric mean of the speedups of a set of rows.
pub fn geo_mean(rows: &[Row]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = rows.iter().map(|r| r.speedup.max(1e-12).ln()).sum();
    (log_sum / rows.len() as f64).exp()
}

/// Arithmetic mean of the speedups.
pub fn mean(rows: &[Row]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().map(|r| r.speedup).sum::<f64>() / rows.len() as f64
}

/// Print a comparison table in the format of the paper's figures.
pub fn print_table(title: &str, rows: &[Row]) {
    println!("\n=== {title} ===");
    println!(
        "{:<12} {:>14} {:>14} {:>10}",
        "kernel", "DaCe AD [ms]", "baseline [ms]", "speedup"
    );
    for r in rows {
        println!(
            "{:<12} {:>14.3} {:>14.3} {:>9.2}x",
            r.name,
            r.dace.as_secs_f64() * 1e3,
            r.jax.as_secs_f64() * 1e3,
            r.speedup
        );
    }
    println!(
        "average speedup: {:.2}x   geometric mean: {:.2}x",
        mean(rows),
        geo_mean(rows)
    );
}

/// Forward-pass program-size comparison (the second panel of Fig. 11):
/// DaCe statement count vs. the jax-rs implementation's traced-statement
/// count for each kernel.
pub fn loc_comparison(kernels: &[Box<dyn Kernel>]) -> Vec<(String, usize, usize)> {
    kernels
        .iter()
        .map(|k| {
            let sizes = k.sizes(Preset::Test);
            let sdfg = k.build_dace(&sizes);
            // Builder statements ≈ one per state-producing statement; count
            // top-level states plus loop regions as a proxy for source lines.
            let dace_loc = sdfg.states.len().min(count_statements(&sdfg));
            (k.name().to_string(), dace_loc, k.jax_loc())
        })
        .collect()
}

fn count_statements(sdfg: &dace_sdfg::Sdfg) -> usize {
    fn walk(cf: &dace_sdfg::ControlFlow) -> usize {
        match cf {
            dace_sdfg::ControlFlow::State(_) => 1,
            dace_sdfg::ControlFlow::Sequence(v) => v.iter().map(walk).sum(),
            dace_sdfg::ControlFlow::Loop(l) => 1 + walk(&l.body),
            dace_sdfg::ControlFlow::Branch(b) => {
                1 + walk(&b.then_body) + b.else_body.as_ref().map(|e| walk(e)).unwrap_or(0)
            }
        }
    }
    walk(&sdfg.cfg)
}

/// Kernel selection of Fig. 1 (headline figure).
pub fn fig1_kernel_names() -> Vec<&'static str> {
    vec![
        "jacobi1d", "k2mm", "atax", "syr2k", "conv2d", "trmm", "seidel2d",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geo_mean_and_mean() {
        let rows = vec![
            Row {
                name: "a".into(),
                dace: Duration::from_millis(1),
                jax: Duration::from_millis(2),
                speedup: 2.0,
            },
            Row {
                name: "b".into(),
                dace: Duration::from_millis(1),
                jax: Duration::from_millis(8),
                speedup: 8.0,
            },
        ];
        assert!((geo_mean(&rows) - 4.0).abs() < 1e-9);
        assert!((mean(&rows) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn loc_comparison_reports_both_sides() {
        let kernels = npbench::kernels_in(npbench::Category::Loops);
        let loc = loc_comparison(&kernels);
        assert_eq!(loc.len(), kernels.len());
        for (_, dace, jax) in loc {
            assert!(dace > 0);
            assert!(jax > 0);
        }
    }

    #[test]
    fn measure_small_kernel() {
        let k = npbench::kernel_by_name("atax").unwrap();
        let row = measure_kernel(k.as_ref(), Preset::Test, 1).unwrap();
        assert!(row.speedup > 0.0);
    }
}
