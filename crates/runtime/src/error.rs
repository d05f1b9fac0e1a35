//! Runtime error type.

use std::fmt;

use dace_sdfg::{Diagnostic, SymError};
use dace_tensor::TensorError;

/// Errors raised while executing an SDFG.
#[derive(Clone, Debug, PartialEq)]
pub enum RuntimeError {
    /// A required symbol value was not provided.
    MissingSymbol(String),
    /// A non-transient input array was not provided.
    MissingInput(String),
    /// An array referenced during execution is not declared.
    UnknownArray(String),
    /// A provided input has the wrong shape, or a library node's operand or
    /// destination has (`expected`: the shape the node needs there).
    ShapeMismatch {
        array: String,
        expected: Vec<usize>,
        got: Vec<usize>,
    },
    /// A memlet index evaluated to a negative or out-of-bounds value.
    BadIndex { array: String, index: Vec<i64> },
    /// A map iteration domain is too large to count in a `usize`.
    MapDomainOverflow { sizes: Vec<usize> },
    /// A symbolic expression could not be evaluated.
    Symbolic(String),
    /// A tensor kernel failed.
    Tensor(String),
    /// A tasklet evaluation failed.
    Tasklet(String),
    /// The dataflow graph of a state is cyclic.
    CyclicGraph(String),
    /// A library node writes a container that is also one of its inputs.
    /// Library outputs are computed in place, so such a node cannot run as
    /// written: route the result through another container.
    AliasedLibraryOutput(String),
    /// Structural error (missing connectors, wrong library usage, ...).
    Malformed(String),
    /// The static verifier rejected the SDFG before lowering.  Carries
    /// every error-severity diagnostic (warnings are not included).
    InvalidSdfg { diagnostics: Vec<Diagnostic> },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::MissingSymbol(s) => write!(f, "missing symbol value for `{s}`"),
            RuntimeError::MissingInput(s) => write!(f, "missing input array `{s}`"),
            RuntimeError::UnknownArray(s) => write!(f, "unknown array `{s}`"),
            RuntimeError::ShapeMismatch {
                array,
                expected,
                got,
            } => write!(
                f,
                "array `{array}` has shape {got:?}, expected {expected:?}"
            ),
            RuntimeError::BadIndex { array, index } => {
                write!(f, "index {index:?} out of bounds for array `{array}`")
            }
            RuntimeError::MapDomainOverflow { sizes } => {
                write!(f, "map iteration domain {sizes:?} overflows usize")
            }
            RuntimeError::Symbolic(m) => write!(f, "symbolic evaluation error: {m}"),
            RuntimeError::Tensor(m) => write!(f, "tensor kernel error: {m}"),
            RuntimeError::Tasklet(m) => write!(f, "tasklet evaluation error: {m}"),
            RuntimeError::CyclicGraph(s) => write!(f, "cyclic dataflow graph in state `{s}`"),
            RuntimeError::AliasedLibraryOutput(a) => write!(
                f,
                "a library node writes `{a}`, which is also one of its inputs"
            ),
            RuntimeError::Malformed(m) => write!(f, "malformed SDFG: {m}"),
            RuntimeError::InvalidSdfg { diagnostics } => {
                write!(
                    f,
                    "SDFG failed validation with {} error(s):",
                    diagnostics.len()
                )?;
                for d in diagnostics {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<SymError> for RuntimeError {
    fn from(e: SymError) -> Self {
        RuntimeError::Symbolic(e.to_string())
    }
}

impl From<TensorError> for RuntimeError {
    fn from(e: TensorError) -> Self {
        RuntimeError::Tensor(e.to_string())
    }
}

/// Result alias for runtime operations.
pub type RuntimeResult<T> = Result<T, RuntimeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = RuntimeError::MissingInput("A".into());
        assert!(e.to_string().contains("A"));
        let e = RuntimeError::BadIndex {
            array: "B".into(),
            index: vec![-1, 2],
        };
        assert!(e.to_string().contains("B"));
    }
}
