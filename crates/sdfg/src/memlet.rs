//! Memlets: explicit descriptions of data movement between dataflow nodes.

use std::collections::HashMap;
use std::fmt;

use crate::symexpr::{SymError, SymExpr};

/// One dimension of a memlet subset.
#[derive(Clone, Debug, PartialEq)]
pub enum IndexRange {
    /// A single (possibly symbolic) index.
    Index(SymExpr),
    /// A half-open range `[start, end)`.
    Range { start: SymExpr, end: SymExpr },
}

impl IndexRange {
    /// Single-index constructor.
    pub fn idx(e: impl Into<SymExpr>) -> Self {
        IndexRange::Index(e.into())
    }

    /// Range constructor.
    pub fn range(start: impl Into<SymExpr>, end: impl Into<SymExpr>) -> Self {
        IndexRange::Range {
            start: start.into(),
            end: end.into(),
        }
    }

    /// Number of elements covered, evaluated against bindings.
    pub fn volume(&self, bindings: &HashMap<String, i64>) -> Result<i64, SymError> {
        match self {
            IndexRange::Index(_) => Ok(1),
            IndexRange::Range { start, end } => {
                Ok((end.eval(bindings)? - start.eval(bindings)?).max(0))
            }
        }
    }

    /// Substitute a symbol in all contained expressions.
    pub fn substitute(&self, name: &str, with: &SymExpr) -> IndexRange {
        match self {
            IndexRange::Index(e) => IndexRange::Index(e.substitute(name, with)),
            IndexRange::Range { start, end } => IndexRange::Range {
                start: start.substitute(name, with),
                end: end.substitute(name, with),
            },
        }
    }

    /// Free symbols in the contained expressions.
    pub fn free_symbols(&self) -> std::collections::BTreeSet<String> {
        match self {
            IndexRange::Index(e) => e.free_symbols(),
            IndexRange::Range { start, end } => {
                let mut s = start.free_symbols();
                s.extend(end.free_symbols());
                s
            }
        }
    }
}

/// A subset of an array: one [`IndexRange`] per dimension.
///
/// An empty subset denotes "the whole array" (used for full-array memlets
/// feeding library nodes and map scopes).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Subset(pub Vec<IndexRange>);

impl Subset {
    /// The whole-array subset.
    pub fn all() -> Self {
        Subset(Vec::new())
    }

    /// A subset of scalar indices.
    pub fn indices(idx: Vec<SymExpr>) -> Self {
        Subset(idx.into_iter().map(IndexRange::Index).collect())
    }

    /// True if this subset denotes the entire array.
    pub fn is_all(&self) -> bool {
        self.0.is_empty()
    }

    /// True if every dimension is a single index (an element access).
    pub fn is_element(&self) -> bool {
        !self.0.is_empty() && self.0.iter().all(|r| matches!(r, IndexRange::Index(_)))
    }

    /// Evaluate an element subset to a concrete multi-index.
    pub fn eval_indices(&self, bindings: &HashMap<String, i64>) -> Result<Vec<i64>, SymError> {
        self.0
            .iter()
            .map(|r| match r {
                IndexRange::Index(e) => e.eval(bindings),
                IndexRange::Range { start, .. } => start.eval(bindings),
            })
            .collect()
    }

    /// Data volume (number of elements moved) under the given bindings.
    pub fn volume(&self, bindings: &HashMap<String, i64>) -> Result<i64, SymError> {
        if self.is_all() {
            // Caller must use the array shape for whole-array subsets.
            return Ok(-1);
        }
        let mut v = 1i64;
        for r in &self.0 {
            v *= r.volume(bindings)?;
        }
        Ok(v)
    }

    /// Substitute a symbol in every dimension.
    pub fn substitute(&self, name: &str, with: &SymExpr) -> Subset {
        Subset(self.0.iter().map(|r| r.substitute(name, with)).collect())
    }

    /// Free symbols across all dimensions.
    pub fn free_symbols(&self) -> std::collections::BTreeSet<String> {
        let mut out = std::collections::BTreeSet::new();
        for r in &self.0 {
            out.extend(r.free_symbols());
        }
        out
    }
}

/// Write-conflict resolution: how concurrent/repeated writes combine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wcr {
    /// Accumulate with `+=` — the resolution used by gradient accumulation.
    Sum,
}

/// A memlet annotating an edge with the data container, the subset moved and
/// an optional write-conflict resolution.
#[derive(Clone, Debug, PartialEq)]
pub struct Memlet {
    /// Name of the data container (array) being moved.
    pub data: String,
    /// The subset of the container being read or written.
    pub subset: Subset,
    /// Write-conflict resolution for writes (None = overwrite).
    pub wcr: Option<Wcr>,
}

impl Memlet {
    /// Memlet covering the entire array.
    pub fn all(data: impl Into<String>) -> Self {
        Memlet {
            data: data.into(),
            subset: Subset::all(),
            wcr: None,
        }
    }

    /// Element memlet with symbolic indices.
    pub fn element(data: impl Into<String>, idx: Vec<SymExpr>) -> Self {
        Memlet {
            data: data.into(),
            subset: Subset::indices(idx),
            wcr: None,
        }
    }

    /// Add sum write-conflict resolution.
    pub fn with_wcr_sum(mut self) -> Self {
        self.wcr = Some(Wcr::Sum);
        self
    }
}

impl fmt::Display for Memlet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.data)?;
        if !self.subset.is_all() {
            write!(f, "[")?;
            for (i, r) in self.subset.0.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                match r {
                    IndexRange::Index(e) => write!(f, "{e}")?,
                    IndexRange::Range { start, end } => write!(f, "{start}:{end}")?,
                }
            }
            write!(f, "]")?;
        }
        if self.wcr.is_some() {
            write!(f, " (+= )")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bind(pairs: &[(&str, i64)]) -> HashMap<String, i64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn element_subset_evaluates_indices() {
        let m = Memlet::element("A", vec![SymExpr::sym("i"), SymExpr::sym("j").add_int(1)]);
        let idx = m.subset.eval_indices(&bind(&[("i", 2), ("j", 3)])).unwrap();
        assert_eq!(idx, vec![2, 4]);
        assert!(m.subset.is_element());
    }

    #[test]
    fn range_volume() {
        let r = IndexRange::range(SymExpr::int(2), SymExpr::sym("N"));
        assert_eq!(r.volume(&bind(&[("N", 10)])).unwrap(), 8);
        let s = Subset(vec![
            IndexRange::range(SymExpr::int(0), SymExpr::int(4)),
            IndexRange::idx(SymExpr::int(1)),
        ]);
        assert_eq!(s.volume(&HashMap::new()).unwrap(), 4);
    }

    #[test]
    fn whole_array_subset() {
        let m = Memlet::all("B");
        assert!(m.subset.is_all());
        assert!(!m.subset.is_element());
        assert_eq!(m.subset.volume(&HashMap::new()).unwrap(), -1);
    }

    #[test]
    fn substitution_rewrites_indices() {
        let s = Subset::indices(vec![SymExpr::sym("i")]);
        let s2 = s.substitute("i", &SymExpr::sym("k").add_int(5));
        assert_eq!(s2.eval_indices(&bind(&[("k", 1)])).unwrap(), vec![6]);
    }

    #[test]
    fn display_renders_subsets() {
        let m = Memlet::element("A", vec![SymExpr::sym("i")]).with_wcr_sum();
        let s = format!("{m}");
        assert!(s.contains("A[i]"));
        assert!(s.contains("+="));
    }

    #[test]
    fn subset_classification() {
        let element = Subset::indices(vec![SymExpr::sym("i"), SymExpr::sym("j")]);
        assert!(element.is_element() && !element.is_all());
        assert!(Subset::all().is_all() && !Subset::all().is_element());
        let ranged = Subset(vec![IndexRange::range(SymExpr::int(0), SymExpr::sym("N"))]);
        assert!(!ranged.is_element() && !ranged.is_all());
    }

    #[test]
    fn free_symbols_from_subset() {
        let s = Subset(vec![
            IndexRange::idx(SymExpr::sym("i")),
            IndexRange::range(SymExpr::int(0), SymExpr::sym("N")),
        ]);
        let f = s.free_symbols();
        assert!(f.contains("i") && f.contains("N"));
    }
}
