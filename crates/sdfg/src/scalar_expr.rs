//! Scalar expression language for tasklet code, with symbolic differentiation.
//!
//! DaCe AD performs *symbolic* automatic differentiation: each fine-grained
//! tasklet computation is differentiated symbolically and the results are
//! combined through the chain rule across the dataflow graph.  This module
//! provides the expression AST used inside tasklets, its evaluator, and the
//! symbolic derivative used by the AD engine in `dace-ad`.

use std::collections::BTreeSet;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::trig;

/// Binary scalar operators available in tasklet code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Max,
    Min,
}

/// Unary scalar operators available in tasklet code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Sin,
    Cos,
    Exp,
    Log,
    Sqrt,
    Tanh,
    Abs,
    Relu,
    Sigmoid,
}

impl BinOp {
    /// The operator on one pair of values: the one definition every
    /// evaluator applies, which is what makes them agree bit for bit.
    #[inline(always)]
    pub fn apply(self, x: f64, y: f64) -> f64 {
        match self {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => x / y,
            BinOp::Pow => x.powf(y),
            BinOp::Max => x.max(y),
            BinOp::Min => x.min(y),
        }
    }
}

impl UnOp {
    /// The operator on one value (see [`BinOp::apply`]).
    #[inline(always)]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            UnOp::Neg => -x,
            UnOp::Sin => trig::sin(x),
            UnOp::Cos => trig::cos(x),
            UnOp::Exp => x.exp(),
            UnOp::Log => x.ln(),
            UnOp::Sqrt => x.sqrt(),
            UnOp::Tanh => x.tanh(),
            UnOp::Abs => x.abs(),
            UnOp::Relu => x.max(0.0),
            UnOp::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// The local derivative `d op(x) / dx` written on the operation's value
    /// `y = op(x)`, as a function of `y`, for the ops whose derivative is one
    /// (`None` for the others).  The one table of these rules:
    /// [`ScalarExpr::derivative`] binds `y` to `op(x)`, and the reverse pass
    /// binds it to the container the forward wrote, so the backward reads the
    /// activation instead of re-evaluating it from its input.  Both bindings
    /// give the same bits: relu's `y / max(y, MIN_POSITIVE)` is `x / max(x,
    /// MIN_POSITIVE)` for `x > 0`, and elsewhere a zero over a positive
    /// denominator, as `relu(x) / max(|x|, MIN_POSITIVE)` is.
    pub fn derivative_on_value(self) -> Option<fn(ScalarExpr) -> ScalarExpr> {
        use ScalarExpr::Const;
        Some(match self {
            // Sub-gradient convention: the step function, 0 at 0.
            UnOp::Relu => |y| {
                y.clone()
                    .div(ScalarExpr::bin(BinOp::Max, y, Const(f64::MIN_POSITIVE)))
            },
            UnOp::Exp => |y| y,
            UnOp::Sigmoid => |y| y.clone().mul(Const(1.0).sub(y)),
            UnOp::Tanh => |y| Const(1.0).sub(y.clone().mul(y)),
            UnOp::Sqrt => |y| Const(0.5).div(y),
            UnOp::Neg | UnOp::Sin | UnOp::Cos | UnOp::Log | UnOp::Abs => return None,
        })
    }
}

/// A scalar expression appearing in tasklet code.
///
/// Inputs refer to tasklet input connectors; `Iter` refers to an integer
/// iteration symbol (map parameter, loop iterator or SDFG symbol) promoted to
/// a float value.
#[derive(Clone, Debug, PartialEq)]
pub enum ScalarExpr {
    /// Floating-point constant.
    Const(f64),
    /// Value read from an input connector.
    Input(String),
    /// Integer symbol (iterator / SDFG symbol) promoted to `f64`.
    Iter(String),
    /// Unary operation.
    Un(UnOp, Box<ScalarExpr>),
    /// Binary operation.
    Bin(BinOp, Box<ScalarExpr>, Box<ScalarExpr>),
}

// The DSL deliberately exposes by-value `add`/`sub`/`mul`/`div` builders
// rather than the std operator traits (tasklet code reads as a chain).
#[allow(clippy::should_implement_trait)]
impl ScalarExpr {
    /// Constant expression.
    pub fn c(v: f64) -> Self {
        ScalarExpr::Const(v)
    }

    /// Input-connector reference.
    pub fn input(name: impl Into<String>) -> Self {
        ScalarExpr::Input(name.into())
    }

    /// Iterator/symbol reference.
    pub fn iter(name: impl Into<String>) -> Self {
        ScalarExpr::Iter(name.into())
    }

    /// Helper: binary op.
    pub fn bin(op: BinOp, a: ScalarExpr, b: ScalarExpr) -> Self {
        ScalarExpr::Bin(op, Box::new(a), Box::new(b))
    }

    /// Helper: unary op.
    pub fn un(op: UnOp, a: ScalarExpr) -> Self {
        ScalarExpr::Un(op, Box::new(a))
    }

    /// `self + other`
    pub fn add(self, other: ScalarExpr) -> Self {
        Self::bin(BinOp::Add, self, other)
    }

    /// `self - other`
    pub fn sub(self, other: ScalarExpr) -> Self {
        Self::bin(BinOp::Sub, self, other)
    }

    /// `self * other`
    pub fn mul(self, other: ScalarExpr) -> Self {
        Self::bin(BinOp::Mul, self, other)
    }

    /// `self / other`
    pub fn div(self, other: ScalarExpr) -> Self {
        Self::bin(BinOp::Div, self, other)
    }

    /// Evaluate the expression.
    ///
    /// `inputs` maps connector names to scalar values; `iters` maps iteration
    /// symbols to integers.
    pub fn eval(
        &self,
        inputs: &HashMap<String, f64>,
        iters: &HashMap<String, i64>,
    ) -> Result<f64, String> {
        match self {
            ScalarExpr::Const(v) => Ok(*v),
            ScalarExpr::Input(name) => inputs
                .get(name)
                .copied()
                .ok_or_else(|| format!("missing tasklet input `{name}`")),
            ScalarExpr::Iter(name) => iters
                .get(name)
                .map(|&v| v as f64)
                .ok_or_else(|| format!("missing iteration symbol `{name}`")),
            ScalarExpr::Un(op, a) => Ok(op.apply(a.eval(inputs, iters)?)),
            ScalarExpr::Bin(op, a, b) => {
                let x = a.eval(inputs, iters)?;
                Ok(op.apply(x, b.eval(inputs, iters)?))
            }
        }
    }

    /// Collect the names of all input connectors referenced.
    pub fn inputs(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_inputs(&mut out);
        out
    }

    fn collect_inputs(&self, out: &mut BTreeSet<String>) {
        match self {
            ScalarExpr::Const(_) | ScalarExpr::Iter(_) => {}
            ScalarExpr::Input(name) => {
                out.insert(name.clone());
            }
            ScalarExpr::Un(_, a) => a.collect_inputs(out),
            ScalarExpr::Bin(_, a, b) => {
                a.collect_inputs(out);
                b.collect_inputs(out);
            }
        }
    }

    /// True when the expression is linear in `input` (its derivative does not
    /// reference the input's value).  Used by the AD engine to decide whether
    /// the forward value must be *forwarded* (stored or recomputed) to the
    /// backward pass: non-linear uses are exactly the cases of Fig. 8.
    pub fn is_linear_in(&self, input: &str) -> bool {
        !self.derivative(input).simplified().inputs().contains(input)
    }

    /// Symbolic derivative with respect to the named input connector.
    pub fn derivative(&self, wrt: &str) -> ScalarExpr {
        use ScalarExpr::*;
        match self {
            Const(_) | Iter(_) => Const(0.0),
            Input(name) => {
                if name == wrt {
                    Const(1.0)
                } else {
                    Const(0.0)
                }
            }
            Un(op, a) => {
                let da = a.derivative(wrt);
                let inner = (**a).clone();
                let local = match op {
                    UnOp::Neg => Const(-1.0),
                    UnOp::Sin => Self::un(UnOp::Cos, inner),
                    UnOp::Cos => Self::un(UnOp::Neg, Self::un(UnOp::Sin, inner)),
                    UnOp::Log => Self::bin(BinOp::Div, Const(1.0), inner),
                    // Sub-gradient convention: d|x|/dx = sign(x), 0 at 0.
                    UnOp::Abs => sign(inner),
                    // The rest are written on the op's value, re-evaluated
                    // here as `op(inner)`.
                    UnOp::Exp | UnOp::Sqrt | UnOp::Tanh | UnOp::Relu | UnOp::Sigmoid => {
                        let rule = op.derivative_on_value().expect("a rule on the value");
                        rule(Self::un(*op, inner))
                    }
                };
                Self::bin(BinOp::Mul, local, da).simplified()
            }
            Bin(op, a, b) => {
                let da = a.derivative(wrt);
                let db = b.derivative(wrt);
                // Cloned only by the rules that read an operand's value (a
                // sum's does not, and sums are the long chains).
                let (a, b) = (&**a, &**b);
                let d = match op {
                    BinOp::Add => Self::bin(BinOp::Add, da, db),
                    BinOp::Sub => Self::bin(BinOp::Sub, da, db),
                    BinOp::Mul => Self::bin(
                        BinOp::Add,
                        Self::bin(BinOp::Mul, da, b.clone()),
                        Self::bin(BinOp::Mul, a.clone(), db),
                    ),
                    BinOp::Div => Self::bin(
                        BinOp::Div,
                        Self::bin(
                            BinOp::Sub,
                            Self::bin(BinOp::Mul, da, b.clone()),
                            Self::bin(BinOp::Mul, a.clone(), db),
                        ),
                        Self::bin(BinOp::Mul, b.clone(), b.clone()),
                    ),
                    // d(a^c) = c * a^(c-1) * da for a constant exponent (jax-rs's
                    // rule, finite at a = 0), else a^b * (db*ln(a) + b*da/a).
                    BinOp::Pow => match *b {
                        Const(c) => Self::bin(
                            BinOp::Mul,
                            Self::bin(
                                BinOp::Mul,
                                Const(c),
                                Self::bin(BinOp::Pow, a.clone(), Const(c - 1.0)),
                            ),
                            da,
                        ),
                        _ => Self::bin(
                            BinOp::Mul,
                            Self::bin(BinOp::Pow, a.clone(), b.clone()),
                            Self::bin(
                                BinOp::Add,
                                Self::bin(BinOp::Mul, db, Self::un(UnOp::Log, a.clone())),
                                Self::bin(
                                    BinOp::Div,
                                    Self::bin(BinOp::Mul, b.clone(), da),
                                    a.clone(),
                                ),
                            ),
                        ),
                    },
                    // Sub-gradients: route the gradient to whichever operand wins.
                    BinOp::Max => Self::bin(
                        BinOp::Add,
                        Self::bin(BinOp::Mul, step_ge(a, b), da),
                        Self::bin(BinOp::Mul, step_ge(b, a), db),
                    ),
                    BinOp::Min => Self::bin(
                        BinOp::Add,
                        Self::bin(BinOp::Mul, step_ge(b, a), da),
                        Self::bin(BinOp::Mul, step_ge(a, b), db),
                    ),
                };
                d.simplified()
            }
        }
    }

    /// The derivative with respect to `wrt` of an expression whose root is
    /// an op with a rule on its value ([`UnOp::derivative_on_value`]), that
    /// value read from the input connector `y`; `None` for any other root.
    pub fn derivative_given_value(&self, wrt: &str, y: &str) -> Option<ScalarExpr> {
        let ScalarExpr::Un(op, a) = self else {
            return None;
        };
        let rule = op.derivative_on_value()?;
        Some(Self::bin(BinOp::Mul, rule(Self::input(y)), a.derivative(wrt)).simplified())
    }

    /// Constant folding plus `x*0`, `x*1`, `x+0` simplification.
    pub fn simplified(&self) -> ScalarExpr {
        use ScalarExpr::*;
        match self {
            Const(_) | Input(_) | Iter(_) => self.clone(),
            Un(op, a) => {
                let a = a.simplified();
                if let Const(v) = a {
                    let iters = HashMap::new();
                    let inputs = HashMap::new();
                    if let Ok(out) = Un(*op, Box::new(Const(v))).eval(&inputs, &iters) {
                        return Const(out);
                    }
                }
                Un(*op, Box::new(a))
            }
            Bin(op, a, b) => {
                let a = a.simplified();
                let b = b.simplified();
                match (op, &a, &b) {
                    (_, Const(x), Const(y)) => {
                        let iters = HashMap::new();
                        let inputs = HashMap::new();
                        Bin(*op, Box::new(Const(*x)), Box::new(Const(*y)))
                            .eval(&inputs, &iters)
                            .map(Const)
                            .unwrap_or_else(|_| Bin(*op, Box::new(a.clone()), Box::new(b.clone())))
                    }
                    (BinOp::Add, Const(z), _) if *z == 0.0 => b,
                    (BinOp::Add, _, Const(z)) if *z == 0.0 => a,
                    (BinOp::Sub, _, Const(z)) if *z == 0.0 => a,
                    (BinOp::Mul, Const(z), _) | (BinOp::Mul, _, Const(z)) if *z == 0.0 => {
                        Const(0.0)
                    }
                    (BinOp::Mul, Const(o), _) if *o == 1.0 => b,
                    (BinOp::Mul, _, Const(o)) if *o == 1.0 => a,
                    (BinOp::Div, _, Const(o)) if *o == 1.0 => a,
                    _ => Bin(*op, Box::new(a), Box::new(b)),
                }
            }
        }
    }

    /// Number of arithmetic operations in the expression (FLOP estimate for a
    /// single evaluation) — feeds the recomputation cost model of the ILP.
    pub fn op_count(&self) -> usize {
        match self {
            ScalarExpr::Const(_) | ScalarExpr::Input(_) | ScalarExpr::Iter(_) => 0,
            ScalarExpr::Un(_, a) => 1 + a.op_count(),
            ScalarExpr::Bin(_, a, b) => 1 + a.op_count() + b.op_count(),
        }
    }

    /// Rename every input-connector reference using the provided map.
    pub fn rename_inputs(&self, renames: &HashMap<String, String>) -> ScalarExpr {
        match self {
            ScalarExpr::Const(_) | ScalarExpr::Iter(_) => self.clone(),
            ScalarExpr::Input(name) => {
                ScalarExpr::Input(renames.get(name).cloned().unwrap_or_else(|| name.clone()))
            }
            ScalarExpr::Un(op, a) => ScalarExpr::Un(*op, Box::new(a.rename_inputs(renames))),
            ScalarExpr::Bin(op, a, b) => ScalarExpr::Bin(
                *op,
                Box::new(a.rename_inputs(renames)),
                Box::new(b.rename_inputs(renames)),
            ),
        }
    }
}

/// A leaf reference encountered while compiling a [`ScalarExpr`]: either an
/// input connector or an iteration symbol.  The resolver passed to
/// [`ScalarExpr::compile`] maps each leaf to a slot index in the flat slot
/// array the compiled expression is evaluated against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeafRef<'a> {
    /// An input-connector reference (`ScalarExpr::Input`).
    Input(&'a str),
    /// An iteration-symbol reference (`ScalarExpr::Iter`), promoted to `f64`.
    Iter(&'a str),
}

/// One instruction of a compiled scalar expression.
///
/// Instructions form a flat single-assignment sequence over a dense register
/// file: every instruction writes register `dst` exactly once, and operand
/// registers are always written by earlier instructions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ExprOp {
    /// `regs[dst] = value`
    Const { dst: u32, value: f64 },
    /// `regs[dst] = slots[slot]` — load an external input/iteration value.
    Slot { dst: u32, slot: u32 },
    /// `regs[dst] = op(regs[a])`
    Un { dst: u32, op: UnOp, a: u32 },
    /// `regs[dst] = op(regs[a], regs[b])`
    Bin { dst: u32, op: BinOp, a: u32, b: u32 },
}

/// A [`ScalarExpr`] lowered to a flat register-based instruction sequence.
///
/// Compilation resolves every `Input`/`Iter` leaf to a slot index once, so
/// evaluation performs no name lookups and no allocation: it walks the
/// instruction list over a caller-provided register file.  The tree-walking
/// [`ScalarExpr::eval`] and the compiled form produce bit-identical results
/// (the instruction stream applies the exact same operations in the same
/// order), which is asserted by property tests.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledExpr {
    /// Shared: a clone (the kernel's copy of a tasklet's assignment) is a
    /// reference count.
    ops: Arc<[ExprOp]>,
    result: u32,
    n_regs: u32,
}

impl CompiledExpr {
    /// Number of registers the register file must hold.
    pub fn n_regs(&self) -> usize {
        self.n_regs as usize
    }

    /// The compiled instruction sequence.
    pub fn ops(&self) -> &[ExprOp] {
        &self.ops
    }

    /// Evaluate over `slots` using `regs` as the register file.  `regs` is
    /// grown on demand and reused across calls; evaluation itself performs no
    /// heap allocation.
    #[inline]
    pub fn eval(&self, slots: &[f64], regs: &mut Vec<f64>) -> f64 {
        if regs.len() < self.n_regs as usize {
            regs.resize(self.n_regs as usize, 0.0);
        }
        for op in self.ops.iter() {
            match *op {
                ExprOp::Const { dst, value } => regs[dst as usize] = value,
                ExprOp::Slot { dst, slot } => regs[dst as usize] = slots[slot as usize],
                ExprOp::Un { dst, op, a } => regs[dst as usize] = op.apply(regs[a as usize]),
                ExprOp::Bin { dst, op, a, b } => {
                    regs[dst as usize] = op.apply(regs[a as usize], regs[b as usize]);
                }
            }
        }
        regs[self.result as usize]
    }

    /// Evaluate at `n <= STRIP` points at once, instruction by instruction:
    /// `slots` and `regs` are column-major files (value `s` of point `j` at
    /// `s * STRIP + j`) and the result lands in `out[..n]`.  The `match` on
    /// the operator sits outside the loop over a column, so interpretation
    /// is paid once per instruction per strip and the arithmetic loops
    /// vectorize.  Per point the operations and their order are those of
    /// [`CompiledExpr::eval`] — Rust neither reassociates nor contracts
    /// floating-point arithmetic, `sin` / `cos` run the strip forms of
    /// [`crate::trig`], which give the scalar forms' bits, and the other
    /// transcendental operators stay the scalar library calls — so the two
    /// agree bit for bit.
    ///
    /// `regs` is grown on demand and may be shared with `eval` and across
    /// expressions.
    pub fn eval_strip(&self, slots: &[f64], n: usize, regs: &mut Vec<f64>, out: &mut [f64]) {
        // `compile` numbers registers by instruction, operands before their
        // use and the result last: the result column is `out`, and the file
        // splits at an instruction into its operands and its destination.
        let last = self.result as usize;
        if regs.len() < last * STRIP {
            regs.resize(last * STRIP, 0.0);
        }
        for (i, op) in self.ops.iter().enumerate() {
            let (done, rest) = regs.split_at_mut(i * STRIP);
            let dst = if i == last {
                &mut out[..n]
            } else {
                &mut rest[..n]
            };
            let col = |r: u32| &done[r as usize * STRIP..][..n];
            match *op {
                ExprOp::Const { value, .. } => dst.fill(value),
                ExprOp::Slot { slot, .. } => {
                    dst.copy_from_slice(&slots[slot as usize * STRIP..][..n]);
                }
                ExprOp::Un { op, a, .. } => un_strip(op, dst, col(a)),
                ExprOp::Bin { op, a, b, .. } => bin_strip(op, dst, col(a), col(b)),
            }
        }
    }
}

/// Points a strip holds at most: the column height of the slot and register
/// files of [`CompiledExpr::eval_strip`].  Measured on the repository
/// benchmark (`op_ms_p50`, 32 / 64 / 128 / 256 / 512): `grad_blas` 0.635 /
/// 0.583 / 0.567 / 0.558 / 0.569 ms, `grad_loops` 0.136 / 0.132 / 0.129 /
/// 0.133 / 0.135 ms — short strips pay the interpretation too often, tall
/// ones push the columns of a many-instruction adjoint out of the
/// first-level cache.
pub const STRIP: usize = 128;

/// One unary instruction over a column, monomorphized per operator; `sin`
/// and `cos` take their strip forms, which give [`UnOp::apply`]'s bits.
fn un_strip(op: UnOp, dst: &mut [f64], a: &[f64]) {
    macro_rules! column {
        ($($op:ident),*) => {
            match op {
                UnOp::Sin => trig::sin_strip(dst, a),
                UnOp::Cos => trig::cos_strip(dst, a),
                $(UnOp::$op => dst.iter_mut().zip(a).for_each(|(d, &x)| *d = UnOp::$op.apply(x)),)*
            }
        };
    }
    column!(Neg, Exp, Log, Sqrt, Tanh, Abs, Relu, Sigmoid)
}

/// One binary instruction over a column, monomorphized per operator.
fn bin_strip(op: BinOp, dst: &mut [f64], a: &[f64], b: &[f64]) {
    macro_rules! column {
        ($($op:ident),*) => {
            match op {
                $(BinOp::$op => dst
                    .iter_mut()
                    .zip(a.iter().zip(b))
                    .for_each(|(d, (&x, &y))| *d = BinOp::$op.apply(x, y)),)*
            }
        };
    }
    column!(Add, Sub, Mul, Div, Pow, Max, Min)
}

/// A micro-kernel shape recognized in a [`CompiledExpr`] instruction
/// sequence.  These cover the dominant tasklet bodies of the benchmark
/// kernels (stencil sums, scaled averages, product terms) and let the
/// runtime's specialized loops evaluate them without walking the
/// instruction list per point.  Every pattern's [`MicroPattern::eval`]
/// applies the *same* floating-point operations in the *same* order as
/// [`CompiledExpr::eval`], so results are bit-identical by construction.
#[derive(Clone, Debug, PartialEq)]
pub enum MicroPattern {
    /// `slots[src]` — a plain copy.
    Copy {
        /// Source slot.
        src: u32,
    },
    /// `slots[a] * slots[b]` — a single product (contraction bodies).
    MulPair {
        /// Left operand slot.
        a: u32,
        /// Right operand slot.
        b: u32,
    },
    /// A left-associated sum chain `((slots[t0] + slots[t1]) + ...)`,
    /// optionally scaled by one trailing constant (`* c` or `/ c`) — the
    /// shape of stencil averages like `(sum of 9 points) / 9.0`.
    SumScale {
        /// Slots summed left-to-right.
        terms: Vec<u32>,
        /// Optional trailing scale: the operator (`Mul` or `Div`) and the
        /// constant operand.
        scale: Option<(BinOp, f64)>,
    },
}

impl MicroPattern {
    /// Evaluate the pattern over the slot array, applying operations in the
    /// exact order of the compiled instruction sequence it was recognized
    /// from.
    #[inline]
    pub fn eval(&self, slots: &[f64]) -> f64 {
        match self {
            MicroPattern::Copy { src } => slots[*src as usize],
            MicroPattern::MulPair { a, b } => slots[*a as usize] * slots[*b as usize],
            MicroPattern::SumScale { terms, scale } => {
                let mut acc = slots[terms[0] as usize];
                for &t in &terms[1..] {
                    acc += slots[t as usize];
                }
                match scale {
                    Some((BinOp::Mul, c)) => acc * c,
                    Some((BinOp::Div, c)) => acc / c,
                    _ => acc,
                }
            }
        }
    }
}

impl CompiledExpr {
    /// Recognize a [`MicroPattern`] in the instruction sequence, if the
    /// expression has one of the supported shapes.  Returns `None` for
    /// anything else — callers fall back to [`CompiledExpr::eval`].
    pub fn micro_pattern(&self) -> Option<MicroPattern> {
        let ops = &*self.ops;
        // Positional single-assignment: every instruction writes the register
        // equal to its index (guaranteed by `compile`, re-checked here so the
        // pattern match below can reason positionally).
        for (i, op) in ops.iter().enumerate() {
            let dst = match *op {
                ExprOp::Const { dst, .. }
                | ExprOp::Slot { dst, .. }
                | ExprOp::Un { dst, .. }
                | ExprOp::Bin { dst, .. } => dst,
            };
            if dst as usize != i {
                return None;
            }
        }
        if self.result as usize != ops.len().checked_sub(1)? {
            return None;
        }
        match *ops {
            [ExprOp::Slot { slot, .. }] => return Some(MicroPattern::Copy { src: slot }),
            [ExprOp::Slot { slot: sa, .. }, ExprOp::Slot { slot: sb, .. }, ExprOp::Bin {
                op: BinOp::Mul,
                a: 0,
                b: 1,
                ..
            }] => return Some(MicroPattern::MulPair { a: sa, b: sb }),
            _ => {}
        }
        // Left-associated sum chain with an optional trailing constant scale.
        let ExprOp::Slot { slot, .. } = ops[0] else {
            return None;
        };
        let mut terms = vec![slot];
        let mut scale = None;
        let mut acc = 0u32;
        let mut idx = 1usize;
        while idx < ops.len() {
            match (ops[idx], ops.get(idx + 1)) {
                (
                    ExprOp::Slot { slot, .. },
                    Some(&ExprOp::Bin {
                        op: BinOp::Add,
                        a,
                        b,
                        ..
                    }),
                ) if a == acc && b as usize == idx => {
                    terms.push(slot);
                    acc = (idx + 1) as u32;
                    idx += 2;
                }
                (ExprOp::Const { value, .. }, Some(&ExprOp::Bin { op, a, b, .. }))
                    if matches!(op, BinOp::Mul | BinOp::Div)
                        && a == acc
                        && b as usize == idx
                        && idx + 2 == ops.len() =>
                {
                    scale = Some((op, value));
                    idx += 2;
                }
                _ => return None,
            }
        }
        // A bare single slot is `Copy` (matched above); a chain needs either
        // a second term or a scale to be worth naming.
        if terms.len() < 2 && scale.is_none() {
            return None;
        }
        Some(MicroPattern::SumScale { terms, scale })
    }
}

impl ScalarExpr {
    /// Compile the expression into a [`CompiledExpr`].
    ///
    /// `resolve` maps each `Input`/`Iter` leaf to a slot index; returning
    /// `None` aborts compilation with the same message the tree-walking
    /// evaluator would produce at run time for the missing name.
    pub fn compile<F>(&self, resolve: &mut F) -> Result<CompiledExpr, String>
    where
        F: FnMut(LeafRef<'_>) -> Option<u32>,
    {
        let mut ops = Vec::new();
        let result = self.compile_into(&mut ops, resolve)?;
        Ok(CompiledExpr {
            result,
            n_regs: result + 1,
            ops: ops.into(),
        })
    }

    fn compile_into<F>(&self, ops: &mut Vec<ExprOp>, resolve: &mut F) -> Result<u32, String>
    where
        F: FnMut(LeafRef<'_>) -> Option<u32>,
    {
        let dst = match self {
            ScalarExpr::Const(v) => {
                let dst = ops.len() as u32;
                ops.push(ExprOp::Const { dst, value: *v });
                dst
            }
            ScalarExpr::Input(name) => {
                let slot = resolve(LeafRef::Input(name))
                    .ok_or_else(|| format!("missing tasklet input `{name}`"))?;
                let dst = ops.len() as u32;
                ops.push(ExprOp::Slot { dst, slot });
                dst
            }
            ScalarExpr::Iter(name) => {
                let slot = resolve(LeafRef::Iter(name))
                    .ok_or_else(|| format!("missing iteration symbol `{name}`"))?;
                let dst = ops.len() as u32;
                ops.push(ExprOp::Slot { dst, slot });
                dst
            }
            ScalarExpr::Un(op, a) => {
                let a = a.compile_into(ops, resolve)?;
                let dst = ops.len() as u32;
                ops.push(ExprOp::Un { dst, op: *op, a });
                dst
            }
            ScalarExpr::Bin(op, a, b) => {
                let a = a.compile_into(ops, resolve)?;
                let b = b.compile_into(ops, resolve)?;
                let dst = ops.len() as u32;
                ops.push(ExprOp::Bin { dst, op: *op, a, b });
                dst
            }
        };
        Ok(dst)
    }
}

/// Expression evaluating to 1.0 when `a > b`, 0.0 when `a < b` and 0.5 at a
/// tie, built from the available primitives (used for max/min sub-gradients —
/// the 0.5 tie split matches `jnp.maximum`'s convention).
fn step_ge(a: &ScalarExpr, b: &ScalarExpr) -> ScalarExpr {
    // (sign(a-b) + 1) / 2
    let sign = sign(ScalarExpr::bin(BinOp::Sub, a.clone(), b.clone()));
    ScalarExpr::bin(
        BinOp::Mul,
        ScalarExpr::bin(BinOp::Add, sign, ScalarExpr::Const(1.0)),
        ScalarExpr::Const(0.5),
    )
}

/// `x / max(|x|, tiny)`: the sign of `x` (±1), and 0 at `x = 0`.
fn sign(x: ScalarExpr) -> ScalarExpr {
    ScalarExpr::bin(
        BinOp::Div,
        x.clone(),
        ScalarExpr::bin(
            BinOp::Max,
            ScalarExpr::un(UnOp::Abs, x),
            ScalarExpr::Const(f64::MIN_POSITIVE),
        ),
    )
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Const(v) => write!(f, "{v}"),
            ScalarExpr::Input(s) => write!(f, "{s}"),
            ScalarExpr::Iter(s) => write!(f, "${s}"),
            ScalarExpr::Un(op, a) => write!(f, "{op:?}({a})"),
            ScalarExpr::Bin(op, a, b) => {
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Pow => "**",
                    BinOp::Max => "max",
                    BinOp::Min => "min",
                };
                write!(f, "({a} {sym} {b})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(pairs: &[(&str, f64)]) -> HashMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    fn fd(expr: &ScalarExpr, wrt: &str, at: &HashMap<String, f64>) -> f64 {
        let h = 1e-6;
        let mut plus = at.clone();
        let mut minus = at.clone();
        *plus.get_mut(wrt).unwrap() += h;
        *minus.get_mut(wrt).unwrap() -= h;
        let iters = HashMap::new();
        (expr.eval(&plus, &iters).unwrap() - expr.eval(&minus, &iters).unwrap()) / (2.0 * h)
    }

    #[test]
    fn eval_basic() {
        let e = ScalarExpr::input("x")
            .mul(ScalarExpr::c(2.0))
            .add(ScalarExpr::c(1.0));
        let v = e.eval(&inputs(&[("x", 3.0)]), &HashMap::new()).unwrap();
        assert_eq!(v, 7.0);
    }

    #[test]
    fn eval_missing_input_errors() {
        let e = ScalarExpr::input("x");
        assert!(e.eval(&HashMap::new(), &HashMap::new()).is_err());
    }

    #[test]
    fn eval_iteration_symbol() {
        let e = ScalarExpr::iter("i").mul(ScalarExpr::input("x"));
        let mut iters = HashMap::new();
        iters.insert("i".to_string(), 4);
        assert_eq!(e.eval(&inputs(&[("x", 2.5)]), &iters).unwrap(), 10.0);
    }

    #[test]
    fn derivative_of_linear_expr() {
        let e = ScalarExpr::input("x").mul(ScalarExpr::c(3.0));
        let d = e.derivative("x").simplified();
        assert_eq!(
            d.eval(&inputs(&[("x", 100.0)]), &HashMap::new()).unwrap(),
            3.0
        );
        assert!(e.is_linear_in("x"));
    }

    #[test]
    fn derivative_of_nonlinear_exprs_matches_fd() {
        let cases = vec![
            ScalarExpr::un(UnOp::Sin, ScalarExpr::input("x")),
            ScalarExpr::un(UnOp::Exp, ScalarExpr::input("x").mul(ScalarExpr::c(0.5))),
            ScalarExpr::un(UnOp::Tanh, ScalarExpr::input("x")),
            ScalarExpr::un(UnOp::Sigmoid, ScalarExpr::input("x")),
            ScalarExpr::bin(BinOp::Pow, ScalarExpr::input("x"), ScalarExpr::c(3.0)),
            ScalarExpr::input("x")
                .mul(ScalarExpr::input("y"))
                .add(ScalarExpr::un(UnOp::Log, ScalarExpr::input("x"))),
            ScalarExpr::input("x").div(ScalarExpr::input("y")),
        ];
        let at = inputs(&[("x", 0.8), ("y", 1.7)]);
        for e in cases {
            for wrt in ["x", "y"] {
                if !e.inputs().contains(wrt) {
                    continue;
                }
                let sym = e.derivative(wrt).eval(&at, &HashMap::new()).unwrap();
                let num = fd(&e, wrt, &at);
                assert!(
                    (sym - num).abs() < 1e-5,
                    "derivative mismatch for {e} wrt {wrt}: sym={sym} fd={num}"
                );
            }
        }
    }

    #[test]
    fn constant_power_and_abs_derivatives_are_finite_at_zero() {
        let x = || ScalarExpr::input("x");
        let square = ScalarExpr::bin(BinOp::Pow, x(), ScalarExpr::c(2.0));
        let abs = ScalarExpr::un(UnOp::Abs, x());
        for (at, d_square, d_abs) in [(0.0, 0.0, 0.0), (-1.5, -3.0, -1.0), (2.0, 4.0, 1.0)] {
            let at = inputs(&[("x", at)]);
            let eval = |e: &ScalarExpr| e.derivative("x").eval(&at, &HashMap::new()).unwrap();
            assert_eq!(eval(&square), d_square, "(x^2)' at {at:?}");
            assert_eq!(eval(&abs), d_abs, "|x|' at {at:?}");
        }
    }

    /// The local derivatives written on the op's value give the bits of the
    /// rules written on its input that they replaced, at every value: bound
    /// to `op(x)` by `derivative`, and read from an input holding the op's
    /// result, as the reverse pass binds it to the forward's output.
    #[test]
    fn derivatives_on_the_value_give_the_input_forms_bits() {
        use UnOp::{Abs, Exp, Relu, Sigmoid, Sqrt, Tanh};
        let x = || ScalarExpr::input("x");
        let c = ScalarExpr::c;
        // The rules as they were written on the input: relu's is the one
        // whose expression differs.
        let tiny = f64::MIN_POSITIVE;
        let max_abs = ScalarExpr::bin(BinOp::Max, ScalarExpr::un(Abs, x()), c(tiny));
        let sigmoid = || ScalarExpr::un(Sigmoid, x());
        let tanh = || ScalarExpr::un(Tanh, x());
        let on_input = [
            (Relu, ScalarExpr::un(Relu, x()).div(max_abs)),
            (Exp, ScalarExpr::un(Exp, x())),
            (Sigmoid, sigmoid().mul(c(1.0).sub(sigmoid()))),
            (Tanh, c(1.0).sub(tanh().mul(tanh()))),
            (Sqrt, c(0.5).div(ScalarExpr::un(Sqrt, x()))),
        ];
        let special = [
            0.0,
            -0.0,
            tiny,
            -tiny,
            f64::from_bits(1),
            1.0,
            -1.0,
            700.0,
            -700.0,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        // splitmix64 bits: every binade, subnormals, infinities and NaNs.
        let mut state = 37u64;
        let seeded: Vec<f64> = (0..1 << 12)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                f64::from_bits(z ^ (z >> 31))
            })
            .collect();
        let none = HashMap::new();
        for (op, reference) in &on_input {
            let rebuilt = ScalarExpr::un(*op, x()).derivative("x");
            let read = ScalarExpr::un(*op, x()).derivative_given_value("x", "y");
            let read = read.expect("a rule on the value");
            for &v in special.iter().chain(&seeded) {
                let want = reference.eval(&inputs(&[("x", v)]), &none).unwrap();
                let at = inputs(&[("x", v), ("y", op.apply(v))]);
                for got in [rebuilt.eval(&at, &none), read.eval(&at, &none)] {
                    let got = got.unwrap();
                    assert!(
                        got.to_bits() == want.to_bits() || got.is_nan() && want.is_nan(),
                        "{op:?}' at {v:e}: {got:e}, was {want:e}"
                    );
                }
            }
        }
        assert!(UnOp::Sin.derivative_on_value().is_none());
    }

    #[test]
    fn nonlinearity_detection() {
        let sq = ScalarExpr::bin(BinOp::Mul, ScalarExpr::input("y"), ScalarExpr::input("y"));
        assert!(!sq.is_linear_in("y"));
        let lin = ScalarExpr::input("y").mul(ScalarExpr::c(2.0));
        assert!(lin.is_linear_in("y"));
        let sin = ScalarExpr::un(UnOp::Sin, ScalarExpr::input("a"));
        assert!(!sin.is_linear_in("a"));
    }

    #[test]
    fn max_subgradient_routes_to_winner() {
        let e = ScalarExpr::bin(BinOp::Max, ScalarExpr::input("x"), ScalarExpr::input("y"));
        let at = inputs(&[("x", 2.0), ("y", 1.0)]);
        let dx = e.derivative("x").eval(&at, &HashMap::new()).unwrap();
        let dy = e.derivative("y").eval(&at, &HashMap::new()).unwrap();
        assert!((dx - 1.0).abs() < 1e-9);
        assert!(dy.abs() < 1e-9);
    }

    #[test]
    fn simplification_drops_zero_terms() {
        let e = ScalarExpr::input("x")
            .mul(ScalarExpr::c(0.0))
            .add(ScalarExpr::input("y"));
        assert_eq!(e.simplified(), ScalarExpr::input("y"));
    }

    #[test]
    fn op_count_counts_arithmetic() {
        let e = ScalarExpr::input("x")
            .mul(ScalarExpr::input("y"))
            .add(ScalarExpr::c(1.0));
        assert_eq!(e.op_count(), 2);
    }

    #[test]
    fn rename_inputs_applies_map() {
        let e = ScalarExpr::input("a").mul(ScalarExpr::input("b"));
        let mut m = HashMap::new();
        m.insert("a".to_string(), "stored_a".to_string());
        let r = e.rename_inputs(&m);
        let ins = r.inputs();
        assert!(ins.contains("stored_a") && ins.contains("b"));
    }

    #[test]
    fn inputs_collects_unique_names() {
        let e = ScalarExpr::input("x").mul(ScalarExpr::input("x"));
        assert_eq!(e.inputs().len(), 1);
    }

    /// Resolver for the compile tests: x -> slot 0, y -> slot 1, i -> slot 2.
    fn test_resolver(leaf: LeafRef<'_>) -> Option<u32> {
        match leaf {
            LeafRef::Input("x") => Some(0),
            LeafRef::Input("y") => Some(1),
            LeafRef::Iter("i") => Some(2),
            _ => None,
        }
    }

    #[test]
    fn compiled_expr_matches_tree_eval() {
        let e = ScalarExpr::input("x")
            .mul(ScalarExpr::input("y"))
            .add(ScalarExpr::iter("i"))
            .div(ScalarExpr::c(3.0));
        let compiled = e.compile(&mut test_resolver).unwrap();
        let slots = [2.5, -1.5, 4.0];
        let mut regs = Vec::new();
        let got = compiled.eval(&slots, &mut regs);
        let tree = e
            .eval(&inputs(&[("x", 2.5), ("y", -1.5)]), &{
                let mut m = HashMap::new();
                m.insert("i".to_string(), 4);
                m
            })
            .unwrap();
        assert_eq!(got.to_bits(), tree.to_bits());
    }

    #[test]
    fn compile_reports_unresolved_leaves() {
        let e = ScalarExpr::input("z");
        let err = e.compile(&mut test_resolver).unwrap_err();
        assert!(err.contains("missing tasklet input `z`"), "{err}");
        let e = ScalarExpr::iter("k");
        let err = e.compile(&mut test_resolver).unwrap_err();
        assert!(err.contains("missing iteration symbol `k`"), "{err}");
    }

    #[test]
    fn compiled_register_file_is_reused() {
        let e = ScalarExpr::input("x").add(ScalarExpr::c(1.0));
        let compiled = e.compile(&mut test_resolver).unwrap();
        let mut regs = Vec::new();
        assert_eq!(compiled.eval(&[1.0], &mut regs), 2.0);
        let cap = regs.capacity();
        assert_eq!(compiled.eval(&[5.0], &mut regs), 6.0);
        assert_eq!(regs.capacity(), cap);
        assert!(compiled.n_regs() >= compiled.ops().len());
    }

    /// An empty strip touches nothing, and one register file serves `eval`
    /// and strips of expressions of different sizes in any order.
    #[test]
    fn strip_register_file_is_shared() {
        let small = ScalarExpr::input("x").add(ScalarExpr::c(1.0));
        let large = ScalarExpr::un(
            UnOp::Exp,
            ScalarExpr::input("x").mul(ScalarExpr::input("y")),
        )
        .sub(ScalarExpr::iter("i").div(ScalarExpr::c(4.0)));
        let [small, large] = [small, large].map(|e| e.compile(&mut test_resolver).unwrap());
        assert!(small.n_regs() < large.n_regs());
        // Points `(x, y, i)` = `(j, 0.5, 2)` in column-major slots.
        let mut slots = vec![0.0; 3 * STRIP];
        for j in 0..STRIP {
            (slots[j], slots[STRIP + j], slots[2 * STRIP + j]) = (j as f64, 0.5, 2.0);
        }
        let mut regs = Vec::new();
        let mut out = [f64::NAN; STRIP];
        large.eval_strip(&slots, 0, &mut regs, &mut out);
        assert!(out.iter().all(|v| v.is_nan()), "n = 0 wrote a result");
        for (e, n) in [(&small, 3), (&large, STRIP), (&small, STRIP), (&large, 2)] {
            e.eval_strip(&slots, n, &mut regs, &mut out);
            for (j, got) in out[..n].iter().enumerate() {
                let want = e.eval(&[j as f64, 0.5, 2.0], &mut regs);
                assert_eq!(got.to_bits(), want.to_bits(), "point {j} of {n}");
            }
        }
    }

    /// Resolver mapping inputs `s0`, `s1`, ... to their numeric slot.
    fn numbered_resolver(leaf: LeafRef<'_>) -> Option<u32> {
        match leaf {
            LeafRef::Input(name) => name.strip_prefix('s')?.parse().ok(),
            _ => None,
        }
    }

    fn left_sum(n: u32) -> ScalarExpr {
        let mut sum = ScalarExpr::input("s0");
        for k in 1..n {
            sum = sum.add(ScalarExpr::input(format!("s{k}")));
        }
        sum
    }

    #[test]
    fn micro_pattern_recognizes_kernel_shapes() {
        // Plain copy.
        let c = ScalarExpr::input("x").compile(&mut test_resolver).unwrap();
        assert_eq!(c.micro_pattern(), Some(MicroPattern::Copy { src: 0 }));

        // Contraction body: a single product.
        let c = ScalarExpr::input("x")
            .mul(ScalarExpr::input("y"))
            .compile(&mut test_resolver)
            .unwrap();
        assert_eq!(
            c.micro_pattern(),
            Some(MicroPattern::MulPair { a: 0, b: 1 })
        );

        // seidel2d-shaped: nine-point sum divided by 9.0.
        let c = left_sum(9)
            .div(ScalarExpr::c(9.0))
            .compile(&mut numbered_resolver)
            .unwrap();
        assert_eq!(
            c.micro_pattern(),
            Some(MicroPattern::SumScale {
                terms: (0..9).collect(),
                scale: Some((BinOp::Div, 9.0)),
            })
        );

        // jacobi2d-shaped: five-point sum times 0.2.
        let c = left_sum(5)
            .mul(ScalarExpr::c(0.2))
            .compile(&mut numbered_resolver)
            .unwrap();
        assert_eq!(
            c.micro_pattern(),
            Some(MicroPattern::SumScale {
                terms: (0..5).collect(),
                scale: Some((BinOp::Mul, 0.2)),
            })
        );

        // Unscaled sum and single-term scale are also chains.
        let c = left_sum(3).compile(&mut numbered_resolver).unwrap();
        assert_eq!(
            c.micro_pattern(),
            Some(MicroPattern::SumScale {
                terms: vec![0, 1, 2],
                scale: None
            })
        );
        let c = ScalarExpr::input("s0")
            .mul(ScalarExpr::c(2.0))
            .compile(&mut numbered_resolver)
            .unwrap();
        assert_eq!(
            c.micro_pattern(),
            Some(MicroPattern::SumScale {
                terms: vec![0],
                scale: Some((BinOp::Mul, 2.0))
            })
        );
    }

    #[test]
    fn micro_pattern_rejects_other_shapes() {
        let cases = [
            ScalarExpr::bin(BinOp::Sub, ScalarExpr::input("x"), ScalarExpr::input("y")),
            ScalarExpr::un(UnOp::Sin, ScalarExpr::input("x")),
            // Right-associated sums are not the chain the builder emits.
            ScalarExpr::input("x").add(ScalarExpr::input("y").add(ScalarExpr::iter("i"))),
            // Scale in the middle of a chain, not trailing.
            ScalarExpr::input("x")
                .mul(ScalarExpr::c(2.0))
                .add(ScalarExpr::input("y")),
            ScalarExpr::c(1.5),
        ];
        for e in cases {
            let c = e.compile(&mut test_resolver).unwrap();
            assert_eq!(c.micro_pattern(), None, "unexpected pattern for {e}");
        }
    }

    #[test]
    fn micro_pattern_eval_is_bit_identical_to_vm() {
        let exprs = [
            ScalarExpr::input("s0"),
            ScalarExpr::input("s0").mul(ScalarExpr::input("s1")),
            left_sum(9).div(ScalarExpr::c(9.0)),
            left_sum(5).mul(ScalarExpr::c(0.2)),
            left_sum(4),
        ];
        let slots: Vec<f64> = (0..9).map(|k| 0.1 + 0.7 * k as f64).collect();
        for e in exprs {
            let c = e.compile(&mut numbered_resolver).unwrap();
            let pat = c.micro_pattern().expect("pattern expected");
            let mut regs = Vec::new();
            let vm = c.eval(&slots, &mut regs);
            assert_eq!(pat.eval(&slots).to_bits(), vm.to_bits(), "{e}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_expr() -> impl Strategy<Value = ScalarExpr> {
        let leaf = prop_oneof![
            (0.1f64..3.0).prop_map(ScalarExpr::Const),
            Just(ScalarExpr::input("x")),
            Just(ScalarExpr::input("y")),
        ];
        leaf.prop_recursive(3, 32, 4, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| ScalarExpr::bin(BinOp::Add, a, b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| ScalarExpr::bin(BinOp::Sub, a, b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| ScalarExpr::bin(BinOp::Mul, a, b)),
                inner.clone().prop_map(|a| ScalarExpr::un(UnOp::Sin, a)),
                inner.clone().prop_map(|a| ScalarExpr::un(UnOp::Exp, a)),
                inner.clone().prop_map(|a| ScalarExpr::un(UnOp::Tanh, a)),
            ]
        })
    }

    /// Like `arb_expr` but with iteration-symbol leaves and the full unary /
    /// binary operator set, for the compiled-evaluation equivalence test.
    fn arb_compiled_expr() -> impl Strategy<Value = ScalarExpr> {
        let leaf = prop_oneof![
            (-3.0f64..3.0).prop_map(ScalarExpr::Const),
            Just(ScalarExpr::input("x")),
            Just(ScalarExpr::input("y")),
            Just(ScalarExpr::iter("i")),
        ];
        leaf.prop_recursive(4, 48, 4, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| ScalarExpr::bin(BinOp::Add, a, b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| ScalarExpr::bin(BinOp::Sub, a, b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| ScalarExpr::bin(BinOp::Mul, a, b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| ScalarExpr::bin(BinOp::Div, a, b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| ScalarExpr::bin(BinOp::Pow, a, b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| ScalarExpr::bin(BinOp::Max, a, b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| ScalarExpr::bin(BinOp::Min, a, b)),
                inner.clone().prop_map(|a| ScalarExpr::un(UnOp::Neg, a)),
                inner.clone().prop_map(|a| ScalarExpr::un(UnOp::Sin, a)),
                inner.clone().prop_map(|a| ScalarExpr::un(UnOp::Cos, a)),
                inner.clone().prop_map(|a| ScalarExpr::un(UnOp::Exp, a)),
                inner.clone().prop_map(|a| ScalarExpr::un(UnOp::Log, a)),
                inner.clone().prop_map(|a| ScalarExpr::un(UnOp::Sqrt, a)),
                inner.clone().prop_map(|a| ScalarExpr::un(UnOp::Tanh, a)),
                inner.clone().prop_map(|a| ScalarExpr::un(UnOp::Abs, a)),
                inner.clone().prop_map(|a| ScalarExpr::un(UnOp::Relu, a)),
                inner.clone().prop_map(|a| ScalarExpr::un(UnOp::Sigmoid, a)),
            ]
        })
    }

    proptest! {
        /// The symbolic derivative of any composed expression matches central
        /// finite differences at a benign evaluation point.
        #[test]
        fn symbolic_derivative_matches_fd(e in arb_expr(), x in 0.2f64..1.5, y in 0.2f64..1.5) {
            let mut at = HashMap::new();
            at.insert("x".to_string(), x);
            at.insert("y".to_string(), y);
            let iters = HashMap::new();
            let value = e.eval(&at, &iters).unwrap();
            prop_assume!(value.is_finite() && value.abs() < 1e6);
            for wrt in ["x", "y"] {
                if !e.inputs().contains(wrt) { continue; }
                let sym = e.derivative(wrt).eval(&at, &iters).unwrap();
                let h = 1e-5;
                let mut p = at.clone();
                let mut m = at.clone();
                *p.get_mut(wrt).unwrap() += h;
                *m.get_mut(wrt).unwrap() -= h;
                let fd = (e.eval(&p, &iters).unwrap() - e.eval(&m, &iters).unwrap()) / (2.0 * h);
                prop_assume!(fd.is_finite() && fd.abs() < 1e6);
                prop_assert!((sym - fd).abs() <= 1e-3 * (1.0 + fd.abs()),
                    "expr {} wrt {}: sym {} vs fd {}", e, wrt, sym, fd);
            }
        }

        /// Compiled (register-based) evaluation is bit-identical to the
        /// tree-walking evaluator on random expressions: both apply the same
        /// operations in the same order, so even rounding must agree.
        #[test]
        fn compiled_matches_tree_eval(e in arb_compiled_expr(), x in -2.0f64..2.0, y in -2.0f64..2.0, i in -5i64..5) {
            let mut at = HashMap::new();
            at.insert("x".to_string(), x);
            at.insert("y".to_string(), y);
            let mut iters = HashMap::new();
            iters.insert("i".to_string(), i);
            let tree = e.eval(&at, &iters).unwrap();
            let compiled = e.compile(&mut |leaf| match leaf {
                LeafRef::Input("x") => Some(0),
                LeafRef::Input("y") => Some(1),
                LeafRef::Iter("i") => Some(2),
                _ => None,
            }).unwrap();
            let mut regs = Vec::new();
            let got = compiled.eval(&[x, y, i as f64], &mut regs);
            prop_assert!(
                got.to_bits() == tree.to_bits() || (got.is_nan() && tree.is_nan()),
                "compiled {} vs tree {} for {}", got, tree, e
            );

            // The same instruction list over columns of points: every lane
            // of a strip is the scalar evaluation of its point, also next to
            // the special values and at every strip length's loop tail.
            let special = [
                f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0, 0.0,
                f64::MIN_POSITIVE / 8.0, -f64::MIN_POSITIVE / 2.0, f64::MAX, 1.0,
            ];
            // One lane in four holds a special value in both inputs (every
            // pair of neighbours in the list, `-0.0` against `0.0` among
            // them), one in four in either input alone.
            let point = |j: usize| {
                let pick = |k: usize, base: f64| match (j >> k) & 1 {
                    0 => special[(j / 4 + k) % special.len()],
                    _ => base * (1.0 + j as f64 * 0.37) - k as f64,
                };
                [pick(0, x), pick(1, y), (i + j as i64 % 7 - 3) as f64]
            };
            let mut slots = vec![0.0; 3 * STRIP];
            for j in 0..STRIP {
                for (s, v) in point(j).into_iter().enumerate() {
                    slots[s * STRIP + j] = v;
                }
            }
            let mut out = [0.0; STRIP];
            for n in [1, 2, STRIP - 1, STRIP] {
                compiled.eval_strip(&slots, n, &mut regs, &mut out);
                for (j, lane) in out[..n].iter().enumerate() {
                    let scalar = compiled.eval(&point(j), &mut regs);
                    // LLVM may commute a vectorized add or multiply, which
                    // changes the payload two NaN operands propagate.
                    prop_assert!(
                        lane.to_bits() == scalar.to_bits() || (lane.is_nan() && scalar.is_nan()),
                        "lane {} of {}: strip {} vs eval {} at {:?} for {}",
                        j, n, lane, scalar, point(j), e
                    );
                }
            }
        }

        /// Simplification never changes the value.
        #[test]
        fn simplify_preserves_value(e in arb_expr(), x in 0.2f64..1.5, y in 0.2f64..1.5) {
            let mut at = HashMap::new();
            at.insert("x".to_string(), x);
            at.insert("y".to_string(), y);
            let iters = HashMap::new();
            let a = e.eval(&at, &iters).unwrap();
            let b = e.simplified().eval(&at, &iters).unwrap();
            prop_assume!(a.is_finite());
            prop_assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs()));
        }
    }
}
