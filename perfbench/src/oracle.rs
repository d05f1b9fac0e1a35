//! Oracles and failure accounting.
//!
//! None of the references below come from the code under test: kernel
//! gradients are checked against the `jax-rs` tape (`Kernel::run_jax`,
//! independent of the SDFG pipeline), the Listing-1 gradient against the
//! closed form written out in plain loops here.  A reference verified that
//! way in set-up is then the bit pattern every measured result must repeat.

use std::collections::BTreeMap;

use dace_ad::GradientResult;
use dace_tensor::{allclose, Tensor};
use npbench::GradOutput;

/// Relative tolerance of the oracle comparison (`np.allclose` style).
pub const RTOL: f64 = 1e-5;
/// Absolute tolerance of the oracle comparison.
pub const ATOL: f64 = 1e-7;

/// A verified output: the forward value and the gradient of every `wrt`
/// input, as the program computed them for one input variant.
#[derive(Clone, Debug)]
pub struct Reference {
    /// Value of the dependent output.
    pub output: f64,
    /// Gradients by input name.
    pub gradients: BTreeMap<String, Tensor>,
}

impl Reference {
    /// Keep the comparable part of a result.
    pub fn of(result: &GradientResult) -> Self {
        Reference {
            output: result.output_value,
            gradients: result.gradients.clone(),
        }
    }

    /// Whether `output`/`gradients` repeat this reference bit for bit.
    pub fn bit_identical(&self, output: f64, gradients: &BTreeMap<String, Tensor>) -> bool {
        self.output.to_bits() == output.to_bits()
            && self.gradients.len() == gradients.len()
            && self.gradients.iter().all(|(name, expected)| {
                gradients.get(name).is_some_and(|got| {
                    got.shape() == expected.shape()
                        && got
                            .data()
                            .iter()
                            .zip(expected.data())
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                })
            })
    }

    /// Compare against an independent oracle with `allclose(RTOL, ATOL)` on
    /// the output and on every gradient in `wrt`.
    pub fn check_against(&self, oracle: &GradOutput, wrt: &[&str]) -> Result<(), String> {
        if !scalar_close(self.output, oracle.output) {
            return Err(format!(
                "forward output {} differs from the oracle's {}",
                self.output, oracle.output
            ));
        }
        for name in wrt {
            let got = self
                .gradients
                .get(*name)
                .ok_or_else(|| format!("no gradient for `{name}`"))?;
            let want = oracle
                .gradients
                .get(*name)
                .ok_or_else(|| format!("the oracle has no gradient for `{name}`"))?;
            if !allclose(got, want, RTOL, ATOL) {
                return Err(format!("gradient of `{name}` differs from the oracle"));
            }
        }
        Ok(())
    }
}

fn scalar_close(x: f64, y: f64) -> bool {
    x == y || (x.is_finite() && y.is_finite() && (x - y).abs() <= ATOL + RTOL * y.abs())
}

/// Closed-form value and gradient of the paper's §IV-A Listing-1 program,
/// `OUT = Σ sin(C·D) + sin(6·C·D) + sin(18·C·D)` (element-wise), so
/// `∂OUT/∂C = D·g` and `∂OUT/∂D = C·g` with
/// `g = cos(C·D) + 6·cos(6·C·D) + 18·cos(18·C·D)`.
pub fn listing1_oracle(c: &Tensor, d: &Tensor) -> GradOutput {
    let mut output = 0.0;
    let mut grad_c = Tensor::zeros(c.shape());
    let mut grad_d = Tensor::zeros(d.shape());
    for (i, (&cv, &dv)) in c.data().iter().zip(d.data()).enumerate() {
        let p = cv * dv;
        output += p.sin() + (6.0 * p).sin() + (18.0 * p).sin();
        let g = p.cos() + 6.0 * (6.0 * p).cos() + 18.0 * (18.0 * p).cos();
        grad_c.data_mut()[i] = dv * g;
        grad_d.data_mut()[i] = cv * g;
    }
    GradOutput {
        output,
        gradients: [("C".to_string(), grad_c), ("D".to_string(), grad_d)]
            .into_iter()
            .collect(),
    }
}

/// Operations attempted and failed over one run.  An operation fails when
/// it errors, is refused/shed/expired/lost, returns a result that is not
/// bit-identical to its verified reference, or breaks its memory limit.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations attempted (oracle checks made in set-up included).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Invariants outside any single operation (counter conservation, a
    /// plan-cache hit where a cold compile was required, …).
    pub violations: u64,
    /// The first few failure messages, for the log.
    pub messages: Vec<String>,
}

impl Tally {
    /// Count one operation.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            self.note(message);
        }
    }

    /// Count a broken run-level invariant.
    pub fn violation(&mut self, message: String) {
        self.violations += 1;
        self.note(message);
    }

    fn note(&mut self, message: String) {
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations == 0
    }

    /// Share of attempted operations that succeeded (1 when none ran).
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dace_tensor::random::uniform;

    fn reference(output: f64, values: Vec<f64>) -> Reference {
        let n = values.len();
        Reference {
            output,
            gradients: [("X".to_string(), Tensor::from_vec(values, &[n]).unwrap())]
                .into_iter()
                .collect(),
        }
    }

    #[test]
    fn bit_identity_sees_a_single_ulp() {
        let r = reference(1.5, vec![1.0, 2.0]);
        assert!(r.bit_identical(1.5, &r.gradients));
        let off = reference(1.5, vec![1.0, f64::from_bits(2.0f64.to_bits() + 1)]);
        assert!(!r.bit_identical(1.5, &off.gradients));
        assert!(!r.bit_identical(f64::from_bits(1.5f64.to_bits() + 1), &r.gradients));
        assert!(!r.bit_identical(1.5, &BTreeMap::new()));
        // 0.0 and -0.0 compare equal as floats but are different results.
        let zero = reference(0.0, vec![0.0]);
        assert!(!zero.bit_identical(-0.0, &zero.gradients));
    }

    #[test]
    fn oracle_comparison_is_allclose() {
        let r = reference(10.0, vec![1.0, 2.0]);
        let near = GradOutput {
            output: 10.0 + 5e-5,
            gradients: [(
                "X".to_string(),
                Tensor::from_vec(vec![1.0 + 5e-6, 2.0], &[2]).unwrap(),
            )]
            .into_iter()
            .collect(),
        };
        assert!(r.check_against(&near, &["X"]).is_ok());
        let far = GradOutput {
            output: 10.0,
            gradients: [(
                "X".to_string(),
                Tensor::from_vec(vec![1.001, 2.0], &[2]).unwrap(),
            )]
            .into_iter()
            .collect(),
        };
        assert!(r.check_against(&far, &["X"]).is_err());
        assert!(r.check_against(&near, &["Y"]).is_err());
    }

    #[test]
    fn listing1_closed_form_matches_central_differences() {
        let (c, d) = (uniform(&[3, 3], 1), uniform(&[3, 3], 2));
        let exact = listing1_oracle(&c, &d);
        let h = 1e-6;
        for (name, which) in [("C", 0), ("D", 1)] {
            for i in 0..c.len() {
                let eval = |delta: f64| {
                    let (mut cp, mut dp) = (c.clone(), d.clone());
                    let t = if which == 0 { &mut cp } else { &mut dp };
                    t.data_mut()[i] += delta;
                    listing1_oracle(&cp, &dp).output
                };
                let fd = (eval(h) - eval(-h)) / (2.0 * h);
                let got = exact.gradients[name].data()[i];
                assert!((fd - got).abs() < 1e-5, "{name}[{i}]: {fd} vs {got}");
            }
        }
    }

    #[test]
    fn tally_counts_failures_and_violations() {
        let mut t = Tally::default();
        assert!(t.correct());
        assert_eq!(t.ok_share(), 1.0);
        t.record(Ok(()));
        t.record(Err("boom".into()));
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.ok_share(), 0.5);
        assert!(!t.correct());
        let mut v = Tally::default();
        v.record(Ok(()));
        v.violation("torn".into());
        assert_eq!(v.failed, 0);
        assert!(!v.correct());
    }
}
