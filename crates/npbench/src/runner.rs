//! Helpers for running kernels through the DaCe AD pipeline.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use dace_ad::{AdOptions, GradientEngine};
use dace_tensor::Tensor;

use crate::{GradOutput, Kernel, Sizes};

/// Run the DaCe AD side of a kernel (store-all strategy) and return the
/// gradients of its `wrt` inputs.
pub fn run_dace_gradients(
    kernel: &dyn Kernel,
    sizes: &Sizes,
    inputs: &HashMap<String, Tensor>,
) -> Result<GradOutput, String> {
    let sdfg = kernel.build_dace(sizes);
    let symbols = kernel.symbols(sizes);
    let wrt = kernel.wrt();
    let mut engine = GradientEngine::new(&sdfg, "OUT", &wrt, &symbols, &AdOptions::default())
        .map_err(|e| e.to_string())?;
    let result = engine.run(inputs).map_err(|e| e.to_string())?;
    Ok(GradOutput {
        output: result.output_value,
        gradients: result.gradients.into_iter().collect(),
    })
}

/// Timing measurement for one side of a kernel.
#[derive(Clone, Debug)]
pub struct Timing {
    /// Wall-clock time of the gradient computation (forward + backward).
    pub elapsed: Duration,
    /// Scalar output (to check both sides computed the same thing).
    pub output: f64,
}

/// Time the DaCe AD gradient computation (engine construction excluded, the
/// paper excludes compilation from its measurements via a warm-up run).
pub fn time_dace(
    kernel: &dyn Kernel,
    sizes: &Sizes,
    inputs: &HashMap<String, Tensor>,
    repetitions: usize,
) -> Result<Timing, String> {
    let sdfg = kernel.build_dace(sizes);
    let symbols = kernel.symbols(sizes);
    let wrt = kernel.wrt();
    let mut engine = GradientEngine::new(&sdfg, "OUT", &wrt, &symbols, &AdOptions::default())
        .map_err(|e| e.to_string())?;
    // Warm-up run (mirrors the paper's methodology).
    let warm = engine.run(inputs).map_err(|e| e.to_string())?;
    let mut best = Duration::MAX;
    for _ in 0..repetitions.max(1) {
        let start = Instant::now();
        let _ = engine.run(inputs).map_err(|e| e.to_string())?;
        best = best.min(start.elapsed());
    }
    Ok(Timing {
        elapsed: best,
        output: warm.output_value,
    })
}

/// Build `batch` distinct input sets for a kernel: the seeded base inputs,
/// shifted by a small per-item constant so every request carries different
/// data (as concurrent users would) while staying numerically tame.
pub fn batch_inputs(
    kernel: &dyn Kernel,
    sizes: &Sizes,
    batch: usize,
) -> Vec<HashMap<String, Tensor>> {
    let base = kernel.inputs(sizes);
    (0..batch)
        .map(|i| {
            base.iter()
                .map(|(name, tensor)| (name.clone(), tensor.add_scalar(i as f64 * 1e-3)))
                .collect()
        })
        .collect()
}

/// Time the jax-rs gradient computation.
pub fn time_jax(
    kernel: &dyn Kernel,
    sizes: &Sizes,
    inputs: &HashMap<String, Tensor>,
    repetitions: usize,
) -> Timing {
    // Warm-up.
    let warm = kernel.run_jax(sizes, inputs);
    let mut best = Duration::MAX;
    for _ in 0..repetitions.max(1) {
        let start = Instant::now();
        let _ = kernel.run_jax(sizes, inputs);
        best = best.min(start.elapsed());
    }
    Timing {
        elapsed: best,
        output: warm.output,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Preset;

    #[test]
    fn timing_runs_for_a_small_kernel() {
        let kernel = crate::kernel_by_name("atax").unwrap();
        let sizes = kernel.sizes(Preset::Test);
        let inputs = kernel.inputs(&sizes);
        let d = time_dace(kernel.as_ref(), &sizes, &inputs, 1).unwrap();
        let j = time_jax(kernel.as_ref(), &sizes, &inputs, 1);
        assert!((d.output - j.output).abs() < 1e-6 * (1.0 + j.output.abs()));
        assert!(d.elapsed.as_nanos() > 0 && j.elapsed.as_nanos() > 0);
    }
}
