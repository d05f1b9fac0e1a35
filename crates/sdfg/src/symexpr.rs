//! Integer symbolic expressions.
//!
//! `SymExpr` is used wherever DaCe uses sympy expressions: array shapes,
//! loop bounds, memlet subscripts and data-movement volumes.  Expressions are
//! built from integer literals, named symbols (SDFG symbols, loop iterators,
//! map parameters) and arithmetic, and can be evaluated against a symbol
//! binding or partially simplified.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// An integer symbolic expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SymExpr {
    /// Integer constant.
    Int(i64),
    /// Named symbol (SDFG symbol, loop iterator or map parameter).
    Sym(String),
    /// Sum.
    Add(Box<SymExpr>, Box<SymExpr>),
    /// Difference.
    Sub(Box<SymExpr>, Box<SymExpr>),
    /// Product.
    Mul(Box<SymExpr>, Box<SymExpr>),
    /// Floor division (division by zero evaluates to an error).
    Div(Box<SymExpr>, Box<SymExpr>),
    /// Remainder.
    Rem(Box<SymExpr>, Box<SymExpr>),
    /// Minimum.
    Min(Box<SymExpr>, Box<SymExpr>),
    /// Maximum.
    Max(Box<SymExpr>, Box<SymExpr>),
    /// Negation.
    Neg(Box<SymExpr>),
}

/// Error produced when evaluating a symbolic expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SymError {
    /// A symbol had no binding.
    UnboundSymbol(String),
    /// Division or remainder by zero.
    DivisionByZero,
    /// An intermediate value does not fit in `i64` (symbol values are
    /// user-controlled).
    Overflow,
}

impl fmt::Display for SymError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymError::UnboundSymbol(s) => write!(f, "unbound symbol `{s}`"),
            SymError::DivisionByZero => write!(f, "division by zero in symbolic expression"),
            SymError::Overflow => write!(f, "integer overflow in symbolic expression"),
        }
    }
}

impl std::error::Error for SymError {}

fn checked(value: Option<i64>) -> Result<i64, SymError> {
    value.ok_or(SymError::Overflow)
}

impl SymExpr {
    /// Shorthand constructor for a symbol.
    pub fn sym(name: impl Into<String>) -> Self {
        SymExpr::Sym(name.into())
    }

    /// Shorthand constructor for an integer.
    pub fn int(v: i64) -> Self {
        SymExpr::Int(v)
    }

    /// `self + other`
    pub fn add(&self, other: &SymExpr) -> SymExpr {
        SymExpr::Add(Box::new(self.clone()), Box::new(other.clone())).simplified()
    }

    /// `self - other`
    pub fn sub(&self, other: &SymExpr) -> SymExpr {
        SymExpr::Sub(Box::new(self.clone()), Box::new(other.clone())).simplified()
    }

    /// `self * other`
    pub fn mul(&self, other: &SymExpr) -> SymExpr {
        SymExpr::Mul(Box::new(self.clone()), Box::new(other.clone())).simplified()
    }

    /// `self + constant`
    pub fn add_int(&self, v: i64) -> SymExpr {
        self.add(&SymExpr::Int(v))
    }

    /// `self * constant`
    pub fn mul_int(&self, v: i64) -> SymExpr {
        self.mul(&SymExpr::Int(v))
    }

    /// Evaluate against a symbol binding.  Symbol values are user-controlled,
    /// so every operation is checked: a value beyond `i64` is a typed
    /// [`SymError::Overflow`], never a wrap or a debug-build panic.
    pub fn eval(&self, bindings: &HashMap<String, i64>) -> Result<i64, SymError> {
        match self {
            SymExpr::Int(v) => Ok(*v),
            SymExpr::Sym(s) => bindings
                .get(s)
                .copied()
                .ok_or_else(|| SymError::UnboundSymbol(s.clone())),
            SymExpr::Add(a, b) => checked(a.eval(bindings)?.checked_add(b.eval(bindings)?)),
            SymExpr::Sub(a, b) => checked(a.eval(bindings)?.checked_sub(b.eval(bindings)?)),
            SymExpr::Mul(a, b) => checked(a.eval(bindings)?.checked_mul(b.eval(bindings)?)),
            SymExpr::Div(a, b) => {
                let d = b.eval(bindings)?;
                if d == 0 {
                    Err(SymError::DivisionByZero)
                } else {
                    checked(a.eval(bindings)?.checked_div_euclid(d))
                }
            }
            SymExpr::Rem(a, b) => {
                let d = b.eval(bindings)?;
                if d == 0 {
                    Err(SymError::DivisionByZero)
                } else {
                    // `i64::MIN rem -1` is 0, as every remainder by -1.
                    Ok(a.eval(bindings)?.wrapping_rem_euclid(d))
                }
            }
            SymExpr::Min(a, b) => Ok(a.eval(bindings)?.min(b.eval(bindings)?)),
            SymExpr::Max(a, b) => Ok(a.eval(bindings)?.max(b.eval(bindings)?)),
            SymExpr::Neg(a) => checked(a.eval(bindings)?.checked_neg()),
        }
    }

    /// Evaluate an expression with no free symbols.
    pub fn eval_const(&self) -> Result<i64, SymError> {
        self.eval(&HashMap::new())
    }

    /// The set of free symbols appearing in the expression.
    pub fn free_symbols(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.visit_symbols(&mut |s| {
            if !out.contains(s) {
                out.insert(s.to_string());
            }
        });
        out
    }

    /// Call `visit` on every symbol occurrence, left to right, by reference.
    pub fn visit_symbols<'a>(&'a self, visit: &mut impl FnMut(&'a str)) {
        match self {
            SymExpr::Int(_) => {}
            SymExpr::Sym(s) => visit(s),
            SymExpr::Add(a, b)
            | SymExpr::Sub(a, b)
            | SymExpr::Mul(a, b)
            | SymExpr::Div(a, b)
            | SymExpr::Rem(a, b)
            | SymExpr::Min(a, b)
            | SymExpr::Max(a, b) => {
                a.visit_symbols(visit);
                b.visit_symbols(visit);
            }
            SymExpr::Neg(a) => a.visit_symbols(visit),
        }
    }

    /// True if the expression references the given symbol.
    pub fn references(&self, name: &str) -> bool {
        use SymExpr::*;
        match self {
            Int(_) => false,
            Sym(s) => s == name,
            Neg(a) => a.references(name),
            Add(a, b) | Sub(a, b) | Mul(a, b) | Div(a, b) | Rem(a, b) | Min(a, b) | Max(a, b) => {
                a.references(name) || b.references(name)
            }
        }
    }

    /// Substitute a symbol by another expression.
    pub fn substitute(&self, name: &str, with: &SymExpr) -> SymExpr {
        match self {
            SymExpr::Int(v) => SymExpr::Int(*v),
            SymExpr::Sym(s) => {
                if s == name {
                    with.clone()
                } else {
                    SymExpr::Sym(s.clone())
                }
            }
            SymExpr::Add(a, b) => SymExpr::Add(
                Box::new(a.substitute(name, with)),
                Box::new(b.substitute(name, with)),
            ),
            SymExpr::Sub(a, b) => SymExpr::Sub(
                Box::new(a.substitute(name, with)),
                Box::new(b.substitute(name, with)),
            ),
            SymExpr::Mul(a, b) => SymExpr::Mul(
                Box::new(a.substitute(name, with)),
                Box::new(b.substitute(name, with)),
            ),
            SymExpr::Div(a, b) => SymExpr::Div(
                Box::new(a.substitute(name, with)),
                Box::new(b.substitute(name, with)),
            ),
            SymExpr::Rem(a, b) => SymExpr::Rem(
                Box::new(a.substitute(name, with)),
                Box::new(b.substitute(name, with)),
            ),
            SymExpr::Min(a, b) => SymExpr::Min(
                Box::new(a.substitute(name, with)),
                Box::new(b.substitute(name, with)),
            ),
            SymExpr::Max(a, b) => SymExpr::Max(
                Box::new(a.substitute(name, with)),
                Box::new(b.substitute(name, with)),
            ),
            SymExpr::Neg(a) => SymExpr::Neg(Box::new(a.substitute(name, with))),
        }
        .simplified()
    }

    /// Constant-fold and apply simple algebraic identities
    /// (`x+0`, `x*1`, `x*0`, `x-0`, double negation, constant folding).
    pub fn simplified(&self) -> SymExpr {
        use SymExpr::*;
        match self {
            Int(_) | Sym(_) => self.clone(),
            Add(a, b) => {
                let (a, b) = (a.simplified(), b.simplified());
                match (&a, &b) {
                    (Int(x), Int(y)) => Int(x + y),
                    (Int(0), _) => b,
                    (_, Int(0)) => a,
                    _ => Add(Box::new(a), Box::new(b)),
                }
            }
            Sub(a, b) => {
                let (a, b) = (a.simplified(), b.simplified());
                match (&a, &b) {
                    (Int(x), Int(y)) => Int(x - y),
                    (_, Int(0)) => a,
                    _ if a == b => Int(0),
                    _ => Sub(Box::new(a), Box::new(b)),
                }
            }
            Mul(a, b) => {
                let (a, b) = (a.simplified(), b.simplified());
                match (&a, &b) {
                    (Int(x), Int(y)) => Int(x * y),
                    (Int(0), _) | (_, Int(0)) => Int(0),
                    (Int(1), _) => b,
                    (_, Int(1)) => a,
                    _ => Mul(Box::new(a), Box::new(b)),
                }
            }
            Div(a, b) => {
                let (a, b) = (a.simplified(), b.simplified());
                match (&a, &b) {
                    (Int(x), Int(y)) if *y != 0 => Int(x.div_euclid(*y)),
                    (_, Int(1)) => a,
                    _ => Div(Box::new(a), Box::new(b)),
                }
            }
            Rem(a, b) => {
                let (a, b) = (a.simplified(), b.simplified());
                match (&a, &b) {
                    (Int(x), Int(y)) if *y != 0 => Int(x.rem_euclid(*y)),
                    _ => Rem(Box::new(a), Box::new(b)),
                }
            }
            Min(a, b) => {
                let (a, b) = (a.simplified(), b.simplified());
                match (&a, &b) {
                    (Int(x), Int(y)) => Int(*x.min(y)),
                    _ if a == b => a,
                    _ => Min(Box::new(a), Box::new(b)),
                }
            }
            Max(a, b) => {
                let (a, b) = (a.simplified(), b.simplified());
                match (&a, &b) {
                    (Int(x), Int(y)) => Int(*x.max(y)),
                    _ if a == b => a,
                    _ => Max(Box::new(a), Box::new(b)),
                }
            }
            Neg(a) => {
                let a = a.simplified();
                match &a {
                    Int(x) => Int(-x),
                    Neg(inner) => (**inner).clone(),
                    _ => Neg(Box::new(a)),
                }
            }
        }
    }

    /// True if the expression is the integer constant `v`.
    pub fn is_const(&self, v: i64) -> bool {
        matches!(self, SymExpr::Int(x) if *x == v)
    }

    /// Decompose the expression as an affine function of one symbol:
    /// `self == coeff * var + rest`, where `rest` does not reference `var`.
    ///
    /// Returns `None` when the expression is not affine in `var` (e.g. `var`
    /// under `Div`/`Rem`/`Min`/`Max`, or `var * var`).  Expressions that do
    /// not reference `var` at all decompose as `(0, self)`.  This is the
    /// memlet-shape analysis behind the runtime's specialized kernel tier:
    /// an element subset whose every dimension is affine in the innermost
    /// iteration variable can be walked with a precomputed flat stride.
    pub fn affine_in(&self, var: &str) -> Option<(i64, SymExpr)> {
        use SymExpr::*;
        match self {
            Int(v) => Some((0, Int(*v))),
            Sym(s) => {
                if s == var {
                    Some((1, Int(0)))
                } else {
                    Some((0, Sym(s.clone())))
                }
            }
            Add(a, b) => {
                let (ka, ra) = a.affine_in(var)?;
                let (kb, rb) = b.affine_in(var)?;
                Some((ka.checked_add(kb)?, ra.add(&rb)))
            }
            Sub(a, b) => {
                let (ka, ra) = a.affine_in(var)?;
                let (kb, rb) = b.affine_in(var)?;
                Some((ka.checked_sub(kb)?, ra.sub(&rb)))
            }
            Mul(a, b) => {
                let (ka, ra) = a.affine_in(var)?;
                let (kb, rb) = b.affine_in(var)?;
                // Affine only when at least one factor is a constant
                // (otherwise the product is quadratic in `var`).
                match (&ra, &rb) {
                    _ if ka == 0 && kb == 0 => Some((0, ra.mul(&rb))),
                    (Int(c), _) if ka == 0 => Some((c.checked_mul(kb)?, ra.mul(&rb))),
                    (_, Int(c)) if kb == 0 => Some((c.checked_mul(ka)?, ra.mul(&rb))),
                    _ => None,
                }
            }
            Neg(a) => {
                let (ka, ra) = a.affine_in(var)?;
                Some((ka.checked_neg()?, SymExpr::Neg(Box::new(ra)).simplified()))
            }
            Div(..) | Rem(..) | Min(..) | Max(..) => {
                if self.references(var) {
                    None
                } else {
                    Some((0, self.clone()))
                }
            }
        }
    }
}

impl fmt::Display for SymExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymExpr::Int(v) => write!(f, "{v}"),
            SymExpr::Sym(s) => write!(f, "{s}"),
            SymExpr::Add(a, b) => write!(f, "({a} + {b})"),
            SymExpr::Sub(a, b) => write!(f, "({a} - {b})"),
            SymExpr::Mul(a, b) => write!(f, "({a} * {b})"),
            SymExpr::Div(a, b) => write!(f, "({a} / {b})"),
            SymExpr::Rem(a, b) => write!(f, "({a} % {b})"),
            SymExpr::Min(a, b) => write!(f, "min({a}, {b})"),
            SymExpr::Max(a, b) => write!(f, "max({a}, {b})"),
            SymExpr::Neg(a) => write!(f, "(-{a})"),
        }
    }
}

impl From<i64> for SymExpr {
    fn from(v: i64) -> Self {
        SymExpr::Int(v)
    }
}

impl From<&str> for SymExpr {
    fn from(s: &str) -> Self {
        SymExpr::Sym(s.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bind(pairs: &[(&str, i64)]) -> HashMap<String, i64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn eval_basic_arithmetic() {
        let e = SymExpr::sym("N").mul_int(2).add_int(3);
        assert_eq!(e.eval(&bind(&[("N", 10)])).unwrap(), 23);
    }

    #[test]
    fn eval_unbound_symbol_errors() {
        let e = SymExpr::sym("M");
        assert_eq!(
            e.eval(&HashMap::new()),
            Err(SymError::UnboundSymbol("M".into()))
        );
    }

    #[test]
    fn eval_division_by_zero_errors() {
        let e = SymExpr::Div(Box::new(SymExpr::Int(4)), Box::new(SymExpr::Int(0)));
        assert_eq!(e.eval_const(), Err(SymError::DivisionByZero));
    }

    #[test]
    fn simplify_identities() {
        let n = SymExpr::sym("N");
        assert_eq!(n.add_int(0), n);
        assert_eq!(n.mul_int(1), n);
        assert_eq!(n.mul_int(0), SymExpr::Int(0));
        assert_eq!(n.sub(&n), SymExpr::Int(0));
        assert_eq!(
            SymExpr::Neg(Box::new(SymExpr::Neg(Box::new(n.clone())))).simplified(),
            n
        );
    }

    #[test]
    fn simplify_constant_folding() {
        let e = SymExpr::Int(6).mul(&SymExpr::Int(7));
        assert_eq!(e, SymExpr::Int(42));
        let e = SymExpr::Min(Box::new(SymExpr::Int(3)), Box::new(SymExpr::Int(9))).simplified();
        assert_eq!(e, SymExpr::Int(3));
    }

    #[test]
    fn substitute_replaces_symbols() {
        let e = SymExpr::sym("i").add(&SymExpr::sym("j"));
        let s = e.substitute("i", &SymExpr::Int(5));
        assert_eq!(s.eval(&bind(&[("j", 2)])).unwrap(), 7);
        assert!(!s.references("i"));
        assert!(s.references("j"));
    }

    #[test]
    fn free_symbols_collects_all() {
        let e = SymExpr::sym("N")
            .mul(&SymExpr::sym("M"))
            .add(&SymExpr::sym("N"));
        let syms = e.free_symbols();
        assert_eq!(syms.len(), 2);
        assert!(syms.contains("N") && syms.contains("M"));
    }

    #[test]
    fn display_is_readable() {
        let e = SymExpr::sym("N").add_int(1);
        assert_eq!(format!("{e}"), "(N + 1)");
    }

    #[test]
    fn affine_decomposition() {
        // j - 1 + dj  ->  1*j + (dj - 1)
        let e = SymExpr::sym("j")
            .sub(&SymExpr::int(1))
            .add(&SymExpr::sym("dj"));
        let (k, rest) = e.affine_in("j").unwrap();
        assert_eq!(k, 1);
        assert_eq!(rest.eval(&bind(&[("dj", 2)])).unwrap(), 1);
        // 3*i - N  ->  3*i + (-N)
        let e = SymExpr::int(3)
            .mul(&SymExpr::sym("i"))
            .sub(&SymExpr::sym("N"));
        let (k, rest) = e.affine_in("i").unwrap();
        assert_eq!(k, 3);
        assert_eq!(rest.eval(&bind(&[("N", 7)])).unwrap(), -7);
        // Expressions without the variable decompose with coefficient 0.
        let e = SymExpr::sym("N").add_int(1);
        assert_eq!(e.affine_in("i").unwrap().0, 0);
        // Non-affine shapes are rejected.
        let sq = SymExpr::sym("i").mul(&SymExpr::sym("i"));
        assert!(sq.affine_in("i").is_none());
        let div = SymExpr::Div(Box::new(SymExpr::sym("i")), Box::new(SymExpr::int(2)));
        assert!(div.affine_in("i").is_none());
        // N*i is affine in i (symbolic coefficients are not supported, only
        // literal ones, so this must be rejected too).
        let ni = SymExpr::sym("N").mul(&SymExpr::sym("i"));
        assert!(ni.affine_in("i").is_none());
        // -(i + 1)  ->  -1*i + (-1)
        let e = SymExpr::Neg(Box::new(SymExpr::sym("i").add_int(1)));
        let (k, rest) = e.affine_in("i").unwrap();
        assert_eq!(k, -1);
        assert_eq!(rest.eval_const().unwrap(), -1);
    }

    #[test]
    fn euclidean_semantics_for_negative_operands() {
        let e = SymExpr::Rem(Box::new(SymExpr::Int(-7)), Box::new(SymExpr::Int(3)));
        assert_eq!(e.eval_const().unwrap(), 2);
        let d = SymExpr::Div(Box::new(SymExpr::Int(-7)), Box::new(SymExpr::Int(3)));
        assert_eq!(d.eval_const().unwrap(), -3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_expr(depth: u32) -> impl Strategy<Value = SymExpr> {
        let leaf = prop_oneof![
            (-20i64..20).prop_map(SymExpr::Int),
            prop_oneof![Just("N".to_string()), Just("M".to_string())].prop_map(SymExpr::Sym),
        ];
        leaf.prop_recursive(depth, 64, 8, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| SymExpr::Add(Box::new(a), Box::new(b))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| SymExpr::Sub(Box::new(a), Box::new(b))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| SymExpr::Mul(Box::new(a), Box::new(b))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| SymExpr::Min(Box::new(a), Box::new(b))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| SymExpr::Max(Box::new(a), Box::new(b))),
                inner.clone().prop_map(|a| SymExpr::Neg(Box::new(a))),
            ]
        })
    }

    proptest! {
        /// Simplification must never change the value of an expression.
        #[test]
        fn simplify_preserves_evaluation(e in arb_expr(4), n in -10i64..10, m in -10i64..10) {
            let mut bindings = HashMap::new();
            bindings.insert("N".to_string(), n);
            bindings.insert("M".to_string(), m);
            let original = e.eval(&bindings);
            let simplified = e.simplified().eval(&bindings);
            prop_assert_eq!(original, simplified);
        }

        /// Whenever `affine_in` decomposes an expression, the decomposition
        /// must evaluate identically to the original at every binding.
        #[test]
        fn affine_decomposition_is_exact(e in arb_expr(4), n in -10i64..10, m in -10i64..10) {
            let mut bindings = HashMap::new();
            bindings.insert("N".to_string(), n);
            bindings.insert("M".to_string(), m);
            if let Some((k, rest)) = e.affine_in("N") {
                prop_assert!(!rest.references("N"));
                let direct = e.eval(&bindings);
                let recomposed = rest.eval(&bindings).map(|r| k * n + r);
                prop_assert_eq!(direct, recomposed);
            }
        }

        /// Substituting a symbol with a constant equals binding it.
        #[test]
        fn substitution_matches_binding(e in arb_expr(3), n in -10i64..10, m in -10i64..10) {
            let mut full = HashMap::new();
            full.insert("N".to_string(), n);
            full.insert("M".to_string(), m);
            let direct = e.eval(&full);
            let substituted = e
                .substitute("N", &SymExpr::Int(n))
                .substitute("M", &SymExpr::Int(m))
                .eval(&HashMap::new());
            prop_assert_eq!(direct, substituted);
        }
    }
}
