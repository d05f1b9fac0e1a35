//! Tasklets: fine-grained scalar computations inside dataflow graphs.

use std::collections::BTreeSet;

use crate::scalar_expr::ScalarExpr;

/// A tasklet is a fine-grained computation reading scalar values from its
/// input connectors and writing scalar values to its output connectors.
///
/// Code is a sequence of assignments `output_connector = expression`, the
/// expressions may reference input connectors and previously assigned output
/// connectors are *not* visible (pure dataflow, single-assignment), which is
/// what makes symbolic per-tasklet differentiation straightforward.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct Tasklet {
    /// Human-readable label (used in debugging output).
    pub label: String,
    /// Assignments `connector = expr`, evaluated independently.
    pub code: Vec<(String, ScalarExpr)>,
}

impl Tasklet {
    /// Create a tasklet with a single assignment.
    pub fn new(label: impl Into<String>, output: impl Into<String>, expr: ScalarExpr) -> Self {
        Tasklet {
            label: label.into(),
            code: vec![(output.into(), expr)],
        }
    }

    /// Create a tasklet with multiple assignments.
    pub fn multi(label: impl Into<String>, code: Vec<(String, ScalarExpr)>) -> Self {
        Tasklet {
            label: label.into(),
            code,
        }
    }

    /// Names of all input connectors referenced by the code.
    pub fn input_connectors(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for (_, expr) in &self.code {
            out.extend(expr.inputs());
        }
        out
    }

    /// Names of all output connectors assigned by the code.
    pub fn output_connectors(&self) -> BTreeSet<String> {
        self.code.iter().map(|(name, _)| name.clone()).collect()
    }

    /// Total arithmetic operation count of the tasklet (one evaluation).
    pub fn op_count(&self) -> usize {
        self.code.iter().map(|(_, e)| e.op_count()).sum()
    }

    /// The expression assigned to a given output connector, if any.
    pub fn expr_for(&self, output: &str) -> Option<&ScalarExpr> {
        self.code
            .iter()
            .find(|(name, _)| name == output)
            .map(|(_, e)| e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar_expr::ScalarExpr as E;

    #[test]
    fn connectors_are_derived_from_code() {
        let t = Tasklet::new("t", "out", E::input("a").mul(E::input("b")));
        assert_eq!(
            t.input_connectors().into_iter().collect::<Vec<_>>(),
            vec!["a".to_string(), "b".to_string()]
        );
        assert_eq!(
            t.output_connectors().into_iter().collect::<Vec<_>>(),
            vec!["out".to_string()]
        );
    }

    #[test]
    fn multi_assignment_tasklet() {
        let t = Tasklet::multi(
            "t",
            vec![
                ("o1".into(), E::input("x").mul(E::c(2.0))),
                ("o2".into(), E::input("x").add(E::input("y"))),
            ],
        );
        assert_eq!(t.output_connectors().len(), 2);
        assert_eq!(t.op_count(), 2);
        assert!(t.expr_for("o1").is_some());
        assert!(t.expr_for("o3").is_none());
    }
}
