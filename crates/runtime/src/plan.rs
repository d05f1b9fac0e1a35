//! Plan compilation: lowering an [`Sdfg`] into an [`ExecPlan`].
//!
//! The executor used to interpret the SDFG structure directly — re-resolving
//! string-keyed arrays, symbols and tasklet connectors on every loop
//! iteration and cloning state graphs per execution.  Plan compilation does
//! all of that resolution **once**, up front, in [`crate::compile`]:
//!
//! * array names are interned to dense `u32` ids; tensors live in a flat
//!   slab (`Vec<Option<Tensor>>`) indexed by id, with concrete shapes,
//!   row-major strides and byte sizes precomputed from the symbol values;
//! * symbols, loop iterators and map parameters are interned to slots of a
//!   flat integer register file ([`SymFile`]);
//! * memlet subsets are pre-classified (whole-array / element) and their
//!   index expressions compiled to [`CIdx`] — a constant, a symbol slot, a
//!   slot plus offset, or (rarely) a general compiled integer expression;
//! * every tasklet's [`dace_sdfg::ScalarExpr`] assignments are compiled to
//!   register-based [`CompiledExpr`] instruction sequences with connector
//!   and iteration-symbol references resolved to slot indices;
//! * every graph's nodes are stored in the order they execute in (a
//!   topological order), and the execution strategy of every map and
//!   control-flow loop ([`MapStrategy`]: the N-D affine
//!   [`AffineKernel`] — one struct, one recognizer and one admission rule
//!   for both sites — or the VM with a typed reason) are all decided once;
//!   the dependence analyzer ([`dace_sdfg::analyze_map`]) is a diagnostic
//!   that runs when asked, not a stage of lowering.  At the loop site the
//!   unit is the *perfect rectangular nest*: loops with a constant step of
//!   `±1`, each the only content of its parent's body, down to a single
//!   state, no bound referencing an iterator of the nest.  The outermost
//!   loop of such a nest is recognized once, with one kernel variable per
//!   loop, and every level shares the result ([`LoopKernel`]); a triangular
//!   nest collapses only below its dependent bound, an imperfect one not at
//!   all, and the loop that could not collapse records which it was
//!   ([`KernelMiss::NonRectangularBound`], [`KernelMiss::ImperfectNest`]).
//!
//! * library nodes have their connectors resolved to slab slots and their
//!   operands' ranks and shapes — under the op's transposition flags —
//!   checked against the concrete layouts, so executing one is a kernel
//!   call into its (pooled) destination and nothing else.
//!
//! A plan is laid out in few allocations — every compiled index of every
//! memlet in [`ExecPlan::idx`], every kernel coefficient in
//! [`ExecPlan::coeffs`], a layout's dimensions and strides in one array, a
//! kernel's copy of an assignment sharing its instructions — because a cold
//! compile pays for each one twice: lowering makes it, and dropping the
//! last [`crate::CompiledProgram`] of the plan frees it.
//!
//! Lowering has one failure rule: every error it finds fails
//! [`crate::compile`], typed, whether or not a run would ever reach the
//! construct — an array whose shape does not evaluate, an expression that
//! reads an unknown connector, a whole-array memlet used as the scalar of a
//! container that does not hold exactly one element, an element access of
//! the wrong rank, library operands that do not fit each other or a
//! destination of the wrong shape ([`RuntimeError::ShapeMismatch`]), an
//! output container that is also one of the node's inputs
//! ([`RuntimeError::AliasedLibraryOutput`]: outputs are computed in place).
//! What a run checks is what depends on symbol or data values: index bounds,
//! loop steps, bound inputs and iterators.

use std::collections::HashMap;
use std::sync::Arc;

use dace_sdfg::deps::AffineAccess;
use dace_sdfg::{
    CmpOp, CompiledExpr, CondExpr, CondOperand, ControlFlow, DataflowGraph, DfNode, ExprOp,
    LeafRef, LibraryOp, LoopRegion, MapScope, MicroPattern, Sdfg, Subset, SymError, SymExpr,
    Tasklet, Wcr,
};

use crate::error::{RuntimeError, RuntimeResult};

// ---------------------------------------------------------------------------
// Symbol register file.
// ---------------------------------------------------------------------------

/// Flat register file of integer symbol values (SDFG symbols, loop iterators
/// and map parameters), indexed by interned symbol id.  `defined` tracks
/// which slots currently hold a value so that out-of-scope iterator reads
/// report the same unbound-symbol errors as the string-keyed interpreter.
#[derive(Clone, Debug, Default)]
pub(crate) struct SymFile {
    pub vals: Vec<i64>,
    pub defined: Vec<bool>,
}

impl SymFile {
    #[inline]
    pub fn set(&mut self, slot: u32, value: i64) {
        self.vals[slot as usize] = value;
        self.defined[slot as usize] = true;
    }
}

/// Interner for symbol names.  A name is found by scanning them: a plan
/// holds its SDFG's symbols, loop iterators and map parameters — at most 9
/// names over the forward and gradient programs of the fifteen kernels and
/// Listing-1 — and a table beside the list would be one more thing to build
/// and to free.
#[derive(Debug, Default)]
pub(crate) struct SymTable {
    pub names: Vec<String>,
}

impl SymTable {
    fn intern(&mut self, name: &str, init: &mut SymFile) -> u32 {
        if let Some(id) = self.names.iter().position(|n| n == name) {
            return id as u32;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        init.vals.push(0);
        init.defined.push(false);
        id
    }
}

// ---------------------------------------------------------------------------
// Compiled integer index expressions.
// ---------------------------------------------------------------------------

/// Binary operator of a compiled integer expression.
#[derive(Clone, Copy, Debug)]
pub(crate) enum SymBin {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Min,
    Max,
}

/// One instruction of a general compiled integer expression.
#[derive(Clone, Copy, Debug)]
pub(crate) enum SymInstr {
    Const {
        dst: u32,
        value: i64,
    },
    Load {
        dst: u32,
        slot: u32,
    },
    Bin {
        dst: u32,
        op: SymBin,
        a: u32,
        b: u32,
    },
    Neg {
        dst: u32,
        a: u32,
    },
}

/// A [`SymExpr`] lowered to a flat register sequence (the general fallback
/// of [`CIdx`]).
#[derive(Clone, Debug)]
pub(crate) struct CompiledSymExpr {
    ops: Vec<SymInstr>,
    result: u32,
    n_regs: u32,
}

impl CompiledSymExpr {
    fn eval(&self, syms: &SymFile, names: &[String], regs: &mut Vec<i64>) -> RuntimeResult<i64> {
        if regs.len() < self.n_regs as usize {
            regs.resize(self.n_regs as usize, 0);
        }
        for instr in &self.ops {
            match *instr {
                SymInstr::Const { dst, value } => regs[dst as usize] = value,
                SymInstr::Load { dst, slot } => {
                    if !syms.defined[slot as usize] {
                        return Err(RuntimeError::from(SymError::UnboundSymbol(
                            names[slot as usize].clone(),
                        )));
                    }
                    regs[dst as usize] = syms.vals[slot as usize];
                }
                SymInstr::Neg { dst, a } => {
                    regs[dst as usize] = checked(regs[a as usize].checked_neg())?
                }
                SymInstr::Bin { dst, op, a, b } => {
                    let x = regs[a as usize];
                    let y = regs[b as usize];
                    regs[dst as usize] = match op {
                        SymBin::Add => checked(x.checked_add(y))?,
                        SymBin::Sub => checked(x.checked_sub(y))?,
                        SymBin::Mul => checked(x.checked_mul(y))?,
                        SymBin::Div | SymBin::Rem if y == 0 => {
                            return Err(RuntimeError::from(SymError::DivisionByZero))
                        }
                        SymBin::Div => checked(x.checked_div_euclid(y))?,
                        // `i64::MIN rem -1` is 0, as every remainder by -1.
                        SymBin::Rem => x.wrapping_rem_euclid(y),
                        SymBin::Min => x.min(y),
                        SymBin::Max => x.max(y),
                    };
                }
            }
        }
        Ok(regs[self.result as usize])
    }
}

/// An overflowed operation of a compiled integer expression fails as
/// [`SymExpr::eval`] fails it.
#[inline]
fn checked(value: Option<i64>) -> RuntimeResult<i64> {
    value.ok_or_else(|| RuntimeError::from(SymError::Overflow))
}

/// A compiled integer index expression.  The first three variants cover the
/// overwhelming majority of memlet subscripts and loop bounds (`5`, `i`,
/// `i+1`) with zero interpretation overhead; everything else falls back to
/// the register sequence.
#[derive(Clone, Debug)]
pub(crate) enum CIdx {
    Const(i64),
    Slot(u32),
    SlotOffset(u32, i64),
    Expr(CompiledSymExpr),
}

impl CIdx {
    #[inline]
    pub fn eval(
        &self,
        syms: &SymFile,
        names: &[String],
        regs: &mut Vec<i64>,
    ) -> RuntimeResult<i64> {
        match self {
            CIdx::Const(v) => Ok(*v),
            CIdx::Slot(s) => {
                if !syms.defined[*s as usize] {
                    return Err(RuntimeError::from(SymError::UnboundSymbol(
                        names[*s as usize].clone(),
                    )));
                }
                Ok(syms.vals[*s as usize])
            }
            CIdx::SlotOffset(s, off) => {
                if !syms.defined[*s as usize] {
                    return Err(RuntimeError::from(SymError::UnboundSymbol(
                        names[*s as usize].clone(),
                    )));
                }
                checked(syms.vals[*s as usize].checked_add(*off))
            }
            CIdx::Expr(e) => e.eval(syms, names, regs),
        }
    }
}

// ---------------------------------------------------------------------------
// Array table.
// ---------------------------------------------------------------------------

/// Precomputed concrete layout of one array under the executor's symbol
/// values.
#[derive(Clone, Debug)]
pub(crate) struct Layout {
    /// The dimensions, then the row-major stride of each.
    extents: Vec<usize>,
    pub bytes: usize,
}

impl Layout {
    fn new(mut dims: Vec<usize>, bytes: usize) -> Self {
        let rank = dims.len();
        dims.resize(2 * rank, 1);
        for d in (0..rank.saturating_sub(1)).rev() {
            dims[rank + d] = dims[rank + d + 1] * dims[d + 1];
        }
        Layout {
            extents: dims,
            bytes,
        }
    }

    pub fn dims(&self) -> &[usize] {
        &self.extents[..self.extents.len() / 2]
    }

    pub fn strides(&self) -> &[usize] {
        &self.extents[self.extents.len() / 2..]
    }
}

/// Interned arrays with per-array metadata.
#[derive(Debug)]
pub(crate) struct ArrayTable {
    /// In name order: an array's id is its rank among the names (at most 24
    /// of them over the same programs, so a lookup is five comparisons).
    pub names: Vec<String>,
    pub transient: Vec<bool>,
    pub layouts: Vec<Layout>,
}

impl ArrayTable {
    pub fn id(&self, name: &str) -> Option<u32> {
        let rank = self.names.binary_search_by(|n| n.as_str().cmp(name));
        rank.ok().map(|id| id as u32)
    }

    pub fn layout(&self, id: u32) -> &Layout {
        &self.layouts[id as usize]
    }
}

// ---------------------------------------------------------------------------
// Lowered dataflow graphs.
// ---------------------------------------------------------------------------

/// A pre-classified memlet access.
#[derive(Clone, Copy, Debug)]
pub(crate) enum PlanAccess {
    /// Whole-array subset used as a scalar: the one element of a length-1
    /// container (lowering admits no other).
    All,
    /// Element subset: one compiled index per dimension, `rank` of them
    /// from `at` on in [`ExecPlan::idx`].
    Element { at: u32, rank: u32 },
}

impl PlanAccess {
    /// The compiled indices of an element subset.
    pub fn indices<'a>(&self, plan: &'a ExecPlan) -> Option<&'a [CIdx]> {
        match *self {
            PlanAccess::All => None,
            PlanAccess::Element { at, rank } => Some(&plan.idx[at as usize..][..rank as usize]),
        }
    }
}

/// One tasklet input: load the scalar read through a memlet into `slot`.
#[derive(Clone, Debug)]
pub(crate) struct PlanRead {
    pub slot: u32,
    pub array: u32,
    pub access: PlanAccess,
}

/// One tasklet output: write the value of assignment `expr` through a memlet.
#[derive(Clone, Debug)]
pub(crate) struct PlanWrite {
    pub expr: u32,
    pub array: u32,
    pub access: PlanAccess,
    pub accumulate: bool,
}

/// A lowered tasklet: slot-resolved reads, compiled assignments, resolved
/// writes.  Executing one touches no strings and allocates nothing.
#[derive(Clone, Debug)]
pub(crate) struct PlanTasklet {
    pub reads: Vec<PlanRead>,
    /// `(slot, sym)` pairs: promote symbol-file values into expression slots.
    pub iter_loads: Vec<(u32, u32)>,
    pub n_slots: usize,
    pub exprs: Vec<CompiledExpr>,
    pub writes: Vec<PlanWrite>,
}

/// One array access of an [`AffineKernel`], decomposed as an affine function
/// of the kernel's iteration variables (the parameters of a map, the iterator
/// of a control-flow loop): dimension `d` indexes at
/// `rest[d] + Σ_v coeff[d][v] * var_v`.  The `rest` parts are loop-invariant
/// and evaluated once per dispatch; the flat row-major offset then advances
/// by a precomputed constant step per variable.
#[derive(Clone, Copy, Debug)]
pub(crate) struct KernelAccess {
    pub array: u32,
    /// Where the `rest` of the access's dimensions start in
    /// [`ExecPlan::idx`].
    pub rest_at: u32,
    /// Where their coefficients start in [`ExecPlan::coeffs`]: one row per
    /// dimension, one entry per iteration variable.
    pub coeff_at: u32,
    /// Number of dimensions; `0` is a whole-array subset used as a scalar
    /// (a length-1 container).
    pub rank: u32,
}

/// The N-D affine kernel, the one native kernel of the specialization tier:
/// a dataflow body of access nodes plus one tasklet (any number of
/// assignments and writes) whose memlets are all affine in the iteration
/// variables, compiled down to a native nest over a rectangular domain with
/// one constant flat step per access and variable.  It attaches at two
/// sites: a map ([`PlanMap::kernel`], variables = the map parameters, walked
/// in the VM's odometer order) and a perfect rectangular nest of `±1`-step
/// control-flow loops over a single state ([`LoopKernel`], variables = the
/// iterators outermost first, walked in loop order in either direction).
/// Dispatch ([`crate::executor::RunState::exec_kernel`]) validates every
/// precondition before allocating or writing anything and otherwise leaves
/// the site to the register VM, which reproduces exact error semantics
/// (including partial execution).
#[derive(Clone, Debug)]
pub(crate) struct AffineKernel {
    /// Reads, in tasklet edge order.
    pub reads: Vec<KernelRead>,
    /// Loop-invariant iteration-symbol promotions, loaded once per dispatch.
    pub iter_loads: Vec<(u32, u32)>,
    /// `(slot, variable index)`: outer iteration variables the assignments
    /// read as values (refreshed once per row).
    pub outer_slots: Vec<(u32, usize)>,
    /// Slots holding the innermost iteration variable (refreshed per point).
    pub inner_slots: Vec<u32>,
    pub n_slots: usize,
    /// The tasklet's assignments.
    pub exprs: Vec<KernelExpr>,
    /// Writes, in tasklet edge order.
    pub writes: Vec<KernelWrite>,
    /// Every array a memlet names, once, the `n_outs` written ones first: a
    /// dispatch takes their tensors out of the slab, in this order, and
    /// every access goes through its index here.
    pub bufs: Vec<u32>,
    pub n_outs: usize,
    /// Every array the body's access nodes name, in execution order:
    /// allocated at dispatch once validation has passed, mirroring the VM's
    /// allocation side effects.
    pub arrays: Vec<u32>,
    /// How the rows of a dispatch may run, as far as the memlets decide it.
    pub rows: RowMode,
}

/// One read of an [`AffineKernel`].
#[derive(Clone, Debug)]
pub(crate) struct KernelRead {
    pub slot: u32,
    pub access: KernelAccess,
    /// Index of the array in [`AffineKernel::bufs`]; below `n_outs` when the
    /// kernel also writes it, so that the read observes earlier writes.
    pub buf: u32,
    /// The read is fixed along the innermost variable, of an array the
    /// kernel does not write, into a slot no other read shares: it is loaded
    /// once per row instead of once per point.
    pub row_invariant: bool,
}

/// One write of an [`AffineKernel`]: the value of assignment `expr`.
#[derive(Clone, Debug)]
pub(crate) struct KernelWrite {
    pub expr: u32,
    pub access: KernelAccess,
    pub accumulate: bool,
    /// Index of the array in [`AffineKernel::bufs`], below `n_outs`.
    pub buf: u32,
}

/// One assignment of an [`AffineKernel`].
#[derive(Clone, Debug)]
pub(crate) struct KernelExpr {
    pub expr: CompiledExpr,
    /// Micro-kernel shape of `expr`, when recognized (bit-identical eval).
    pub micro: Option<MicroPattern>,
    /// `expr` reads no slot (a gradient clear, a zero fill): its value is
    /// computed once per dispatch instead of once per point.
    pub constant: bool,
}

/// The kernel of a perfect rectangular loop nest, recognized once at the
/// nest's outermost loop and shared by every level ([`PlanCf::Loop`] holds
/// it with the level's depth).  A level dispatches it over its own iterator
/// and those of the levels below, with the levels above — which the VM is
/// walking when control reaches an inner level — pinned at their current
/// values; so the outermost loop runs the whole nest in one dispatch, and
/// when that dispatch is declined the VM walks it and the next level tries,
/// down to the innermost loop's one-variable row.
#[derive(Clone, Debug)]
pub(crate) struct LoopKernel {
    /// Variables: the iterators of `levels`.
    pub kernel: AffineKernel,
    /// The state the innermost body executes (for state accounting and the
    /// free-hint guard).
    pub state: usize,
    /// Iterator symbol slot and `[start, end, step]` of every level,
    /// outermost first; no bound references an iterator of the nest.
    pub levels: Vec<(u32, [CIdx; 3])>,
}

/// Why the N-D affine kernel did not attach to a map or a control-flow
/// loop, which therefore runs on the register VM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelMiss {
    /// The step of the loop, or of a loop of the perfect nest below it, is
    /// not the constant `1` or `-1`: strided (`|step| ≠ 1`) or symbolic.
    NonUnitStep,
    /// The loop's body holds no loop and is not a single state (jacobi1d's
    /// time loop over two map states; a tape store does not make a body
    /// multi-state: AD folds it into the tasklet that reads the value).
    MultiStateBody,
    /// The loop's body holds a loop but is not exactly one loop: the nest is
    /// imperfect, and the loops below attach on their own.
    ImperfectNest,
    /// The bounds of a loop of the perfect nest below reference — or its
    /// iterator shadows — an iterator of the nest (a triangular nest): the
    /// nest collapses only below the dependent bound.
    NonRectangularBound,
    /// The body is not access nodes plus exactly one tasklet.
    MultiTasklet,
    /// A memlet index is not `Σ coeff·param + loop-invariant rest`.
    NonAffineIndex,
    /// The tasklet reads an array it also writes at an index whose offset to
    /// the write is not statically decidable
    /// ([`dace_sdfg::deps::alias_decidable`]).
    AliasedReadAtOtherIndex,
}

/// How the kernel runs a row — the walk of the innermost iteration variable
/// with the outer ones fixed — of a site it attached to, decided at lowering
/// from the memlets alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowMode {
    /// Strip-mined: up to [`dace_sdfg::STRIP`] points at a time, every read
    /// gathered into a column, every assignment evaluated instruction by
    /// instruction over the columns, then the writes.  Legal because no
    /// point of a row can read what another point of it writes: every read
    /// of an array the body also writes has exactly the subset of every
    /// write to that array.  (A dispatch still runs such a row point by
    /// point when it is short, or when such an access does not move along
    /// the row, so that every point touches the same element.)
    Strips,
    /// Strip-mined, but the writes of a strip are applied point by point in
    /// edge order instead of one column sweep per write: two writes share an
    /// array and no order of their sweeps reproduces the per-point order at
    /// every element — their flat steps along the row differ, or one of them
    /// stays on one element (step `0`) while another write visits it.
    StripsUnorderedWrites,
    /// Point by point, all reads of a point before its writes: the body
    /// reads an array it writes at another index than a write, so a point
    /// may read what an earlier point of its row wrote (a Gauss–Seidel
    /// sweep, an adjoint that reads a gradient it scatters into).
    PerPointCarriedRead,
}

impl std::fmt::Display for RowMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RowMode::Strips => write!(f, "rows in strips"),
            RowMode::StripsUnorderedWrites => {
                write!(
                    f,
                    "rows in strips, writes per point: unordered shared-array writes"
                )
            }
            RowMode::PerPointCarriedRead => write!(f, "rows per point: carried read"),
        }
    }
}

/// The execution strategy lowering chose for a map or a loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapStrategy {
    /// The N-D affine kernel (the VM stays the per-dispatch fallback).
    Kernel,
    /// The sequential register VM.
    Vm(KernelMiss),
}

impl MapStrategy {
    /// The strategy a plan node's kernel slot stands for.
    pub(crate) fn of<K>(kernel: &Result<K, KernelMiss>) -> Self {
        match kernel {
            Ok(_) => MapStrategy::Kernel,
            Err(why) => MapStrategy::Vm(*why),
        }
    }
}

impl std::fmt::Display for MapStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapStrategy::Kernel => write!(f, "kernel"),
            MapStrategy::Vm(why) => write!(f, "vm({why:?})"),
        }
    }
}

/// One map or one loop site of a compiled program — a perfect loop nest
/// collapsed into one kernel dispatch, or an innermost loop on its own —
/// with the strategy chosen for it (see
/// [`crate::CompiledProgram::map_strategies`] and
/// [`crate::CompiledProgram::loop_strategies`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MapInfo {
    /// Id of the state holding the map, or of the first state of the loop's
    /// body.
    pub state: usize,
    /// Iteration variables of the site: the map's parameters, or the loops
    /// one dispatch of the site covers (`1` for a loop on its own).
    pub depth: usize,
    /// Index points (iterations of the whole nest) of one execution, when
    /// the bounds are loop-invariant.
    pub points: Option<u64>,
    pub strategy: MapStrategy,
    /// How the rows of an attached site run (`None` on the VM).
    pub rows: Option<RowMode>,
    /// Why the loop enclosing this loop site did not take it into a deeper
    /// nest (`None` for a map and for a loop no loop encloses).
    pub enclosing: Option<KernelMiss>,
}

/// A lowered map scope.
#[derive(Clone, Debug)]
pub(crate) struct PlanMap {
    /// Symbol slots of the map parameters.
    pub params: Vec<u32>,
    pub ranges: Vec<(CIdx, CIdx)>,
    pub body: PlanGraph,
    /// Arrays referenced by the body (pre-allocated before iteration).
    pub referenced: Vec<u32>,
    /// The attached N-D affine kernel, or why the map stays on the VM.
    pub kernel: Result<AffineKernel, KernelMiss>,
    /// Index points of one execution under the plan's symbol values (`None`
    /// when a range depends on an outer iterator).
    pub points: Option<u64>,
}

/// A lowered library node: operands resolved to slab slots, their shapes
/// and every destination's checked against the result's.
#[derive(Clone, Debug)]
pub(crate) struct PlanLibrary {
    pub op: LibraryOp,
    /// The operand arrays, in the order of the op's input connectors.
    pub inputs: Vec<u32>,
    /// `(array, accumulate)` per out-edge; never one of `inputs`.
    pub outputs: Vec<(u32, bool)>,
}

/// A lowered dataflow node.
#[derive(Clone, Debug)]
pub(crate) enum PlanNode {
    Access(u32),
    Tasklet(PlanTasklet),
    Map(Box<PlanMap>),
    Library(PlanLibrary),
}

/// A lowered dataflow graph: its nodes in the order they execute in, a
/// topological order of the graph they were lowered from.
#[derive(Clone, Debug, Default)]
pub(crate) struct PlanGraph {
    pub nodes: Vec<PlanNode>,
}

// ---------------------------------------------------------------------------
// Lowered control flow.
// ---------------------------------------------------------------------------

/// A lowered control-flow condition operand.
#[derive(Clone, Debug)]
pub(crate) enum PlanOperand {
    Const(f64),
    Sym(CIdx),
    Element { array: u32, index: Vec<CIdx> },
}

/// A lowered control-flow condition.
#[derive(Clone, Debug)]
pub(crate) enum PlanCond {
    Cmp {
        lhs: PlanOperand,
        op: CmpOp,
        rhs: PlanOperand,
    },
    Not(Box<PlanCond>),
    StoredFlag(u32),
}

/// Lowered structured control flow.
#[derive(Clone, Debug)]
pub(crate) enum PlanCf {
    State(usize),
    Seq(Vec<PlanCf>),
    Loop {
        var: u32,
        start: CIdx,
        end: CIdx,
        step: CIdx,
        body: Box<PlanCf>,
        /// The kernel of the nest the loop is a level of, with the level's
        /// depth in it, or why the loop stays on the VM.
        kernel: Result<(Arc<LoopKernel>, usize), KernelMiss>,
    },
    Branch {
        cond: PlanCond,
        then_body: Box<PlanCf>,
        else_body: Option<Box<PlanCf>>,
    },
}

/// The compiled execution plan of one SDFG under concrete symbol values.
#[derive(Debug)]
pub(crate) struct ExecPlan {
    pub arrays: ArrayTable,
    pub syms: SymTable,
    /// Every compiled index of every memlet, side by side (see
    /// [`PlanAccess`] and [`KernelAccess`]): one allocation a plan, not one
    /// a memlet.
    pub idx: Vec<CIdx>,
    /// The coefficient rows of every [`KernelAccess`], likewise.
    pub coeffs: Vec<i64>,
    /// Initial symbol file: SDFG symbol values defined, iterators undefined.
    pub init_syms: SymFile,
    pub states: Vec<PlanGraph>,
    pub cfg: PlanCf,
    /// The loop sites — collapsed nests and innermost loops on their own —
    /// in program order, with the strategy chosen for each (see
    /// [`crate::CompiledProgram::loop_strategies`]).
    pub loops: Vec<MapInfo>,
}

// ---------------------------------------------------------------------------
// Lowering.
// ---------------------------------------------------------------------------

struct Lowerer {
    arrays: ArrayTable,
    syms: SymTable,
    idx: Vec<CIdx>,
    coeffs: Vec<i64>,
    init_syms: SymFile,
    loops: Vec<MapInfo>,
    /// Concrete symbol values the plan is specialized for; the dependence
    /// analyzer resolves symbolic strides/offsets through them.
    bindings: HashMap<String, i64>,
}

/// Compile an SDFG into an execution plan under concrete symbol values.
pub(crate) fn compile_plan(sdfg: &Sdfg, symbols: &HashMap<String, i64>) -> RuntimeResult<ExecPlan> {
    // Intern arrays in name order (deterministic ids).
    let mut names = Vec::new();
    let mut transient = Vec::new();
    let mut layouts = Vec::new();
    for (name, desc) in &sdfg.arrays {
        names.push(name.clone());
        transient.push(desc.transient);
        let dims = desc.concrete_shape(symbols)?;
        layouts.push(Layout::new(dims, desc.size_bytes(symbols)? as usize));
    }

    let mut lo = Lowerer {
        arrays: ArrayTable {
            names,
            transient,
            layouts,
        },
        syms: SymTable::default(),
        idx: Vec::new(),
        coeffs: Vec::new(),
        init_syms: SymFile::default(),
        loops: Vec::new(),
        bindings: symbols.clone(),
    };

    // Intern every provided symbol value (sorted for deterministic slots);
    // the old interpreter seeded its bindings map with all of them.
    let mut provided: Vec<(&String, &i64)> = symbols.iter().collect();
    provided.sort();
    for (name, &value) in provided {
        let slot = lo.syms.intern(name, &mut lo.init_syms);
        lo.init_syms.vals[slot as usize] = value;
        lo.init_syms.defined[slot as usize] = true;
    }

    let states: Vec<PlanGraph> = (sdfg.states.iter())
        .map(|s| lo.lower_graph(&s.graph))
        .collect::<RuntimeResult<_>>()?;
    let cfg = lo.lower_cf(&sdfg.cfg, sdfg, &states, Enclosing::Root(None))?;
    Ok(ExecPlan {
        arrays: lo.arrays,
        syms: lo.syms,
        idx: lo.idx,
        coeffs: lo.coeffs,
        init_syms: lo.init_syms,
        states,
        cfg,
        loops: lo.loops,
    })
}

/// The shape of `op`'s result over operands of the concrete shapes `dims`
/// (named by `names`, both in connector order) — or how they fail to fit.
fn library_result(
    op: &LibraryOp,
    dims: &[&[usize]],
    names: &[&str],
) -> Result<Vec<usize>, RuntimeError> {
    let under = |d: &[usize], transposed: bool| {
        if transposed {
            [d[1], d[0]]
        } else {
            [d[0], d[1]]
        }
    };
    // The second operand must have the shape the first one implies.
    let fit = |expected: Vec<usize>, result: Vec<usize>| {
        if dims[1] == expected {
            Ok(result)
        } else {
            Err(RuntimeError::ShapeMismatch {
                array: names[1].to_string(),
                expected,
                got: dims[1].to_vec(),
            })
        }
    };
    match (op, dims) {
        (LibraryOp::MatMul { trans_a, trans_b }, [a @ [_, _], b @ [_, _]]) => {
            let ([m, k], [_, n]) = (under(a, *trans_a), under(b, *trans_b));
            fit(under(&[k, n], *trans_b).to_vec(), vec![m, n])
        }
        (LibraryOp::MatVec { trans_a }, [a @ [_, _], [_]]) => {
            let [m, k] = under(a, *trans_a);
            fit(vec![k], vec![m])
        }
        (LibraryOp::Outer, [[m], [n]]) => Ok(vec![*m, *n]),
        (LibraryOp::Transpose, [[rows, cols]]) => Ok(vec![*cols, *rows]),
        (LibraryOp::SumReduce { .. }, [_]) => Ok(vec![1]),
        (LibraryOp::Copy, [a]) => Ok(a.to_vec()),
        // The verifier reports this one first on every path through
        // `compile()`.
        _ => Err(RuntimeError::Malformed(format!(
            "library node `{op:?}` over operands of shapes {dims:?}"
        ))),
    }
}

/// The loops of the perfect nest rooted at `root`, outermost first — each
/// the sole content of its parent's body, singleton sequences (which the
/// frontend's loop builder emits) aside — and the state the innermost one
/// executes.
fn perfect_nest(root: &LoopRegion) -> Result<(Vec<&LoopRegion>, usize), KernelMiss> {
    fn holds_loop(cf: &ControlFlow) -> bool {
        match cf {
            ControlFlow::State(_) => false,
            ControlFlow::Sequence(items) => items.iter().any(holds_loop),
            ControlFlow::Loop(_) => true,
            ControlFlow::Branch(b) => {
                holds_loop(&b.then_body) || b.else_body.as_deref().is_some_and(holds_loop)
            }
        }
    }
    let mut levels = vec![root];
    let mut body = &*root.body;
    loop {
        match body {
            ControlFlow::State(id) => return Ok((levels, *id)),
            ControlFlow::Sequence(items) if items.len() == 1 => body = &items[0],
            ControlFlow::Loop(l) => {
                levels.push(l);
                body = &l.body;
            }
            other if holds_loop(other) => return Err(KernelMiss::ImperfectNest),
            _ => return Err(KernelMiss::MultiStateBody),
        }
    }
}

/// What a loop being lowered learns from the loop around it.
#[derive(Clone, Copy)]
enum Enclosing<'a> {
    /// It is the root of a nest of its own: no loop encloses it (`None`),
    /// or one that attached no kernel, for the reason given.
    Root(Option<KernelMiss>),
    /// It is level `level` of the nest the enclosing loop attached.
    Nest {
        kernel: &'a Arc<LoopKernel>,
        level: usize,
    },
}

impl Lowerer {
    fn sym(&mut self, name: &str) -> u32 {
        self.syms.intern(name, &mut self.init_syms)
    }

    fn array(&mut self, name: &str) -> Result<u32, RuntimeError> {
        self.arrays
            .id(name)
            .ok_or_else(|| RuntimeError::UnknownArray(name.to_string()))
    }

    fn lower_sym_expr(&mut self, e: &SymExpr) -> CIdx {
        match e {
            SymExpr::Int(v) => CIdx::Const(*v),
            SymExpr::Sym(s) => CIdx::Slot(self.sym(s)),
            SymExpr::Add(a, b) => match (&**a, &**b) {
                (SymExpr::Sym(s), SymExpr::Int(v)) | (SymExpr::Int(v), SymExpr::Sym(s)) => {
                    CIdx::SlotOffset(self.sym(s), *v)
                }
                _ => self.lower_sym_general(e),
            },
            SymExpr::Sub(a, b) => match (&**a, &**b) {
                (SymExpr::Sym(s), SymExpr::Int(v)) if *v != i64::MIN => {
                    CIdx::SlotOffset(self.sym(s), -*v)
                }
                _ => self.lower_sym_general(e),
            },
            _ => self.lower_sym_general(e),
        }
    }

    fn lower_sym_general(&mut self, e: &SymExpr) -> CIdx {
        let mut ops = Vec::new();
        let result = self.lower_sym_into(e, &mut ops);
        CIdx::Expr(CompiledSymExpr {
            n_regs: result + 1,
            result,
            ops,
        })
    }

    fn lower_sym_into(&mut self, e: &SymExpr, ops: &mut Vec<SymInstr>) -> u32 {
        let bin = |op: SymBin, a: u32, b: u32, ops: &mut Vec<SymInstr>| {
            let dst = ops.len() as u32;
            ops.push(SymInstr::Bin { dst, op, a, b });
            dst
        };
        match e {
            SymExpr::Int(v) => {
                let dst = ops.len() as u32;
                ops.push(SymInstr::Const { dst, value: *v });
                dst
            }
            SymExpr::Sym(s) => {
                let slot = self.sym(s);
                let dst = ops.len() as u32;
                ops.push(SymInstr::Load { dst, slot });
                dst
            }
            SymExpr::Add(a, b) => {
                let (a, b) = (self.lower_sym_into(a, ops), self.lower_sym_into(b, ops));
                bin(SymBin::Add, a, b, ops)
            }
            SymExpr::Sub(a, b) => {
                let (a, b) = (self.lower_sym_into(a, ops), self.lower_sym_into(b, ops));
                bin(SymBin::Sub, a, b, ops)
            }
            SymExpr::Mul(a, b) => {
                let (a, b) = (self.lower_sym_into(a, ops), self.lower_sym_into(b, ops));
                bin(SymBin::Mul, a, b, ops)
            }
            SymExpr::Div(a, b) => {
                let (a, b) = (self.lower_sym_into(a, ops), self.lower_sym_into(b, ops));
                bin(SymBin::Div, a, b, ops)
            }
            SymExpr::Rem(a, b) => {
                let (a, b) = (self.lower_sym_into(a, ops), self.lower_sym_into(b, ops));
                bin(SymBin::Rem, a, b, ops)
            }
            SymExpr::Min(a, b) => {
                let (a, b) = (self.lower_sym_into(a, ops), self.lower_sym_into(b, ops));
                bin(SymBin::Min, a, b, ops)
            }
            SymExpr::Max(a, b) => {
                let (a, b) = (self.lower_sym_into(a, ops), self.lower_sym_into(b, ops));
                bin(SymBin::Max, a, b, ops)
            }
            SymExpr::Neg(a) => {
                let a = self.lower_sym_into(a, ops);
                let dst = ops.len() as u32;
                ops.push(SymInstr::Neg { dst, a });
                dst
            }
        }
    }

    /// Lower a memlet subset of `array` into a pre-classified access.  Range
    /// dimensions are read at their start index, matching
    /// `Subset::eval_indices`.  A whole-array subset is a scalar only of a
    /// container of one element, and an element subset has the array's
    /// rank: a run checks only the index values.
    fn lower_access(
        &mut self,
        subset: &Subset,
        array: u32,
        what: &str,
    ) -> RuntimeResult<PlanAccess> {
        if subset.is_all() {
            if self.arrays.layout(array).dims().iter().product::<usize>() != 1 {
                return Err(RuntimeError::Malformed(format!(
                    "whole-array memlet of `{}` used as a scalar {what}",
                    self.arrays.names[array as usize]
                )));
            }
            return Ok(PlanAccess::All);
        }
        self.check_rank(array, subset.0.len())?;
        let at = self.idx.len() as u32;
        for r in &subset.0 {
            let index = match r {
                dace_sdfg::IndexRange::Index(e) => self.lower_sym_expr(e),
                dace_sdfg::IndexRange::Range { start, .. } => self.lower_sym_expr(start),
            };
            self.idx.push(index);
        }
        Ok(PlanAccess::Element {
            at,
            rank: subset.0.len() as u32,
        })
    }

    fn check_rank(&self, array: u32, rank: usize) -> RuntimeResult<()> {
        let dims = self.arrays.layout(array).dims().len();
        if rank == dims {
            return Ok(());
        }
        Err(RuntimeError::Malformed(format!(
            "`{}` of rank {dims} indexed with {rank} indices",
            self.arrays.names[array as usize]
        )))
    }

    fn lower_graph(&mut self, graph: &DataflowGraph) -> RuntimeResult<PlanGraph> {
        let order = graph.topological_order();
        let order = order.ok_or_else(|| RuntimeError::CyclicGraph("<graph>".to_string()))?;
        let mut nodes = Vec::with_capacity(order.len());
        for id in order {
            nodes.push(match &graph.nodes[id] {
                DfNode::Access(name) => PlanNode::Access(self.array(name)?),
                DfNode::Tasklet(t) => PlanNode::Tasklet(self.lower_tasklet(graph, id, t)?),
                DfNode::MapScope(m) => PlanNode::Map(Box::new(self.lower_map(m)?)),
                DfNode::Library(op) => PlanNode::Library(self.lower_library(graph, id, op)?),
            });
        }
        Ok(PlanGraph { nodes })
    }

    fn lower_tasklet(
        &mut self,
        graph: &DataflowGraph,
        node: usize,
        tasklet: &Tasklet,
    ) -> Result<PlanTasklet, RuntimeError> {
        // Resolve input connectors to slots, in edge order (later edges with
        // the same connector overwrite earlier loads, as the map-based
        // interpreter did).
        let mut slot_of: HashMap<&str, u32> = HashMap::new();
        let mut reads = Vec::new();
        for e in graph.in_edges(node) {
            let conn = e.dst_conn.as_deref().ok_or_else(|| {
                RuntimeError::Malformed("tasklet in-edge without connector".into())
            })?;
            let next = slot_of.len() as u32;
            let slot = *slot_of.entry(conn).or_insert(next);
            let array = self.array(&e.memlet.data)?;
            let access = self.lower_access(&e.memlet.subset, array, "read")?;
            reads.push(PlanRead {
                slot,
                array,
                access,
            });
        }
        // Compile the assignments, promoting iteration symbols to extra
        // slots loaded from the symbol file.
        let mut n_slots = slot_of.len();
        let mut iter_loads: Vec<(u32, u32)> = Vec::new();
        let mut iter_slot_of: HashMap<String, u32> = HashMap::new();
        let mut exprs = Vec::new();
        // `slot_of` borrows connector names from `graph`; snapshot it into
        // owned keys so the closure below can use it without lifetime knots.
        let conn_slots: HashMap<String, u32> =
            slot_of.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        for (_, expr) in &tasklet.code {
            let compiled = {
                let mut resolve = |leaf: LeafRef<'_>| -> Option<u32> {
                    match leaf {
                        LeafRef::Input(name) => conn_slots.get(name).copied(),
                        LeafRef::Iter(name) => {
                            if let Some(&slot) = iter_slot_of.get(name) {
                                return Some(slot);
                            }
                            let slot = n_slots as u32;
                            n_slots += 1;
                            iter_slot_of.insert(name.to_string(), slot);
                            let sym = self.syms.intern(name, &mut self.init_syms);
                            iter_loads.push((slot, sym));
                            Some(slot)
                        }
                    }
                };
                expr.compile(&mut resolve)
            };
            exprs.push(compiled.map_err(RuntimeError::Tasklet)?);
        }
        // Resolve output connectors to assignment indices.
        let mut writes = Vec::new();
        for e in graph.out_edges(node) {
            let conn = e.src_conn.as_deref().ok_or_else(|| {
                RuntimeError::Malformed("tasklet out-edge without connector".into())
            })?;
            // The last assignment with this output name wins, matching the
            // insertion-order overwrite of the map-based interpreter.
            let expr = tasklet
                .code
                .iter()
                .rposition(|(out, _)| out == conn)
                .ok_or_else(|| {
                    RuntimeError::Malformed(format!(
                        "tasklet `{}` has no assignment for connector `{conn}`",
                        tasklet.label
                    ))
                })? as u32;
            let array = self.array(&e.memlet.data)?;
            let access = self.lower_access(&e.memlet.subset, array, "write")?;
            writes.push(PlanWrite {
                expr,
                array,
                access,
                accumulate: matches!(e.memlet.wcr, Some(Wcr::Sum)),
            });
        }
        Ok(PlanTasklet {
            reads,
            iter_loads,
            n_slots,
            exprs,
            writes,
        })
    }

    fn lower_map(&mut self, map: &MapScope) -> Result<PlanMap, RuntimeError> {
        let params: Vec<u32> = map.params.iter().map(|p| self.sym(p)).collect();
        let ranges: Vec<(CIdx, CIdx)> = map
            .ranges
            .iter()
            .map(|(s, e)| (self.lower_sym_expr(s), self.lower_sym_expr(e)))
            .collect();
        let mut referenced = Vec::new();
        for name in map.body.referenced_arrays() {
            referenced.push(self.array(&name)?);
        }
        let body = self.lower_graph(&map.body)?;
        let kernel = self.recognize_kernel(&map.body, &body, &map.params);
        let points = map.ranges.iter().try_fold(1u64, |acc, (s, e)| {
            let (lo, hi) = (s.eval(&self.bindings).ok()?, e.eval(&self.bindings).ok()?);
            acc.checked_mul(hi.checked_sub(lo)?.max(0) as u64)
        });
        Ok(PlanMap {
            params,
            ranges,
            body,
            referenced,
            kernel,
            points,
        })
    }

    /// The loop site's gate: a perfect nest of loops, each with a constant
    /// step of `1` or `-1` (re-checked at dispatch) and bounds that reference
    /// no iterator of the nest, over a single state — walked in loop order.
    /// One recognition serves every level of the nest (see [`LoopKernel`]).
    fn loop_kernel(
        &mut self,
        l: &LoopRegion,
        sdfg: &Sdfg,
        states: &[PlanGraph],
    ) -> Result<(LoopKernel, Option<u64>), KernelMiss> {
        let (levels, state) = perfect_nest(l)?;
        if !levels
            .iter()
            .all(|l| matches!(l.step.eval_const(), Ok(1 | -1)))
        {
            return Err(KernelMiss::NonUnitStep);
        }
        let vars: Vec<String> = levels.iter().map(|l| l.var.clone()).collect();
        for (depth, l) in levels.iter().enumerate().skip(1) {
            let outer = &vars[..depth];
            let bounds = [&l.start, &l.end, &l.step];
            if outer
                .iter()
                .any(|v| *v == l.var || bounds.iter().any(|e| e.references(v)))
            {
                return Err(KernelMiss::NonRectangularBound);
            }
        }
        let kernel = self.recognize_kernel(&sdfg.states[state].graph, &states[state], &vars)?;
        let points = levels
            .iter()
            .try_fold(1u64, |acc, l| acc.checked_mul(self.loop_points(l)?));
        let levels = levels
            .iter()
            .map(|l| {
                let bounds = [&l.start, &l.end, &l.step].map(|e| self.lower_sym_expr(e));
                (self.sym(&l.var), bounds)
            })
            .collect();
        let kernel = LoopKernel {
            kernel,
            state,
            levels,
        };
        Ok((kernel, points))
    }

    fn loop_points(&self, l: &LoopRegion) -> Option<u64> {
        let eval = |e: &SymExpr| e.eval(&self.bindings).ok();
        let (start, end, step) = (eval(&l.start)?, eval(&l.end)?, eval(&l.step)?);
        let span = match step {
            0 => return None,
            1.. => end.checked_sub(start)?,
            _ => start.checked_sub(end)?,
        };
        Some((span.max(0) as u64).div_ceil(step.unsigned_abs()))
    }

    /// Recognize the N-D affine kernel on a dataflow body: access nodes plus
    /// one tasklet, every memlet affine in the iteration variables `vars`.
    /// `graph` is the original body and `lowered` its lowered form; the two
    /// correspond node for node (`lowered` in execution order) and a
    /// tasklet's reads and writes edge for edge, by construction.  The
    /// kernel walks its domain in the VM's order with every access going
    /// through the live buffers, so a read of an array the tasklet also
    /// writes is admitted wherever [`dace_sdfg::deps::alias_decidable`]
    /// understands the offset between the write and the read along every
    /// variable — the one admission rule of both sites.
    fn recognize_kernel(
        &mut self,
        graph: &DataflowGraph,
        lowered: &PlanGraph,
        vars: &[String],
    ) -> Result<AffineKernel, KernelMiss> {
        // A declined site takes what it lowered out of the plan again.
        let (idx, coeffs) = (self.idx.len(), self.coeffs.len());
        let kernel = self.recognize_accesses(graph, lowered, vars);
        if kernel.is_err() {
            self.idx.truncate(idx);
            self.coeffs.truncate(coeffs);
        }
        kernel
    }

    fn recognize_accesses(
        &mut self,
        graph: &DataflowGraph,
        lowered: &PlanGraph,
        vars: &[String],
    ) -> Result<AffineKernel, KernelMiss> {
        let not_access = |n: &&PlanNode| !matches!(n, PlanNode::Access(_));
        let mut others = lowered.nodes.iter().filter(not_access);
        let (Some(PlanNode::Tasklet(t)), None) = (others.next(), others.next()) else {
            return Err(KernelMiss::MultiTasklet);
        };
        // The body's one node that is no access node is the one `t` was
        // lowered from.
        let is_tasklet = |n: &DfNode| !matches!(n, DfNode::Access(_));
        let tnode = graph.nodes.iter().position(is_tasklet);
        let tnode = tnode.expect("`lowered` holds a tasklet");
        let (in_edges, out_edges) = (graph.in_edges(tnode), graph.out_edges(tnode));
        let mut bufs: Vec<u32> = t.writes.iter().map(|w| w.array).collect();
        bufs.sort_unstable();
        bufs.dedup();
        let n_outs = bufs.len();
        for r in &t.reads {
            if !bufs.contains(&r.array) {
                bufs.push(r.array);
            }
        }
        let buf_of = |array: u32| {
            let at = bufs.iter().position(|&b| b == array);
            at.expect("every memlet's array was collected above") as u32
        };
        let mut writes = Vec::with_capacity(t.writes.len());
        let mut written = Vec::with_capacity(t.writes.len());
        for (w, e) in t.writes.iter().zip(&out_edges) {
            let (access, affine) = self.lower_affine_subset(&e.memlet.subset, vars, w.array)?;
            writes.push(KernelWrite {
                expr: w.expr,
                access,
                accumulate: w.accumulate,
                buf: buf_of(w.array),
            });
            written.push((&e.memlet.subset, affine));
        }
        let mut reads = Vec::with_capacity(t.reads.len());
        let mut rows = RowMode::Strips;
        for (r, e) in t.reads.iter().zip(&in_edges) {
            let (access, affine) = self.lower_affine_subset(&e.memlet.subset, vars, r.array)?;
            for (w, (subset, w_affine)) in t.writes.iter().zip(&written) {
                if w.array != r.array {
                    continue;
                }
                if !dace_sdfg::deps::alias_decidable(w_affine, &affine) {
                    return Err(KernelMiss::AliasedReadAtOtherIndex);
                }
                // A read at another index than a write of its array may
                // carry a value along the row.
                if **subset != e.memlet.subset {
                    rows = RowMode::PerPointCarriedRead;
                }
            }
            let buf = buf_of(r.array);
            // Duplicate connectors share a slot, last edge wins per point:
            // only a read with a slot of its own may leave the point loop.
            let row_invariant = buf as usize >= n_outs
                && affine
                    .coeffs
                    .iter()
                    .all(|c| c.last().is_none_or(|&c| c == 0))
                && t.reads.iter().filter(|o| o.slot == r.slot).count() == 1;
            reads.push(KernelRead {
                slot: r.slot,
                access,
                buf,
                row_invariant,
            });
        }
        // Writes that share an array sweep one after the other only if an
        // order of the sweeps is the per-point order at every element: all
        // of them move by one non-zero flat step along the row (the order
        // itself depends on the offsets, see `run_strip_row`).
        let row_step = |(w, (_, affine)): (&KernelWrite, &(&Subset, AffineAccess))| -> i128 {
            let strides = self.arrays.layout(w.access.array).strides();
            let along_row = |c: &Vec<i64>| c.last().copied().unwrap_or(0) as i128;
            (affine.coeffs.iter().zip(strides))
                .map(|(c, &stride)| along_row(c) * stride as i128)
                .sum()
        };
        let steps: Vec<i128> = writes.iter().zip(&written).map(row_step).collect();
        let unordered = |(at, w): (usize, &KernelWrite)| {
            let mut earlier = (0..at).filter(|&o| writes[o].buf == w.buf);
            earlier.any(|o| steps[at] == 0 || steps[o] != steps[at])
        };
        if rows == RowMode::Strips && writes.iter().enumerate().any(unordered) {
            rows = RowMode::StripsUnorderedWrites;
        }
        let var_syms: Vec<u32> = vars.iter().map(|v| self.sym(v)).collect();
        let (mut iter_loads, mut outer_slots, mut inner_slots) =
            (Vec::new(), Vec::new(), Vec::new());
        for &(slot, sym) in &t.iter_loads {
            match var_syms.iter().position(|&v| v == sym) {
                Some(v) if v + 1 == vars.len() => inner_slots.push(slot),
                Some(v) => outer_slots.push((slot, v)),
                None => iter_loads.push((slot, sym)),
            }
        }
        let mut arrays = Vec::new();
        for node in &lowered.nodes {
            if let PlanNode::Access(a) = *node {
                if !arrays.contains(&a) {
                    arrays.push(a);
                }
            }
        }
        Ok(AffineKernel {
            reads,
            iter_loads,
            outer_slots,
            inner_slots,
            n_slots: t.n_slots,
            exprs: t
                .exprs
                .iter()
                .map(|e| KernelExpr {
                    expr: e.clone(),
                    micro: e.micro_pattern(),
                    constant: !e.ops().iter().any(|op| matches!(op, ExprOp::Slot { .. })),
                })
                .collect(),
            writes,
            bufs,
            n_outs,
            arrays,
            rows,
        })
    }

    /// Lower a memlet subset (of its array's rank: `lower_access` checked
    /// it) into an affine access of `vars`: every dimension must decompose
    /// as `Σ coeff * var + rest` (range dimensions at their start index, as
    /// the VM reads them).  A whole-array subset lowers to the rank-free
    /// scalar access.  The decomposition itself is returned alongside for
    /// the aliasing rule.
    fn lower_affine_subset(
        &mut self,
        subset: &Subset,
        vars: &[String],
        array: u32,
    ) -> Result<(KernelAccess, AffineAccess), KernelMiss> {
        let affine = dace_sdfg::deps::affine_subset(subset, vars);
        let affine = affine.ok_or(KernelMiss::NonAffineIndex)?;
        let access = KernelAccess {
            array,
            rest_at: self.idx.len() as u32,
            coeff_at: self.coeffs.len() as u32,
            rank: affine.rests.len() as u32,
        };
        for (rest, coeff) in affine.rests.iter().zip(&affine.coeffs) {
            let rest = self.lower_sym_expr(rest);
            self.idx.push(rest);
            self.coeffs.extend_from_slice(coeff);
        }
        Ok((access, affine))
    }

    fn lower_library(
        &mut self,
        graph: &DataflowGraph,
        node: usize,
        op: &LibraryOp,
    ) -> Result<PlanLibrary, RuntimeError> {
        let in_edges = graph.in_edges(node);
        let mut inputs = Vec::new();
        let mut names = Vec::new();
        for conn in op.input_connectors() {
            let edge = in_edges
                .iter()
                .find(|e| e.dst_conn.as_deref() == Some(conn))
                .ok_or_else(|| {
                    RuntimeError::Malformed(format!("library node missing input `{conn}`"))
                })?;
            inputs.push(self.array(&edge.memlet.data)?);
            names.push(edge.memlet.data.as_str());
        }
        let mut dims = Vec::new();
        for &a in &inputs {
            dims.push(self.arrays.layout(a).dims());
        }
        let result = library_result(op, &dims, &names)?;

        let out_conn = op.output_connectors()[0];
        let accumulates = matches!(op, LibraryOp::SumReduce { accumulate: true });
        let mut outputs = Vec::new();
        for e in graph.out_edges(node) {
            if e.src_conn.as_deref() != Some(out_conn) {
                return Err(RuntimeError::Malformed(format!(
                    "library node has no output `{:?}`",
                    e.src_conn
                )));
            }
            let array = &e.memlet.data;
            let dst = self.array(array)?;
            if inputs.contains(&dst) {
                return Err(RuntimeError::AliasedLibraryOutput(array.clone()));
            }
            let expected = self.arrays.layout(dst).dims();
            if *expected != result {
                return Err(RuntimeError::ShapeMismatch {
                    array: array.clone(),
                    expected: expected.to_vec(),
                    got: result,
                });
            }
            outputs.push((dst, accumulates || e.memlet.wcr.is_some()));
        }
        Ok(PlanLibrary {
            op: *op,
            inputs,
            outputs,
        })
    }

    /// Lower the control-flow tree; `states` are the already lowered state
    /// graphs, which the loop site's kernel recognition reads, and
    /// `enclosing` what the nearest loop around `cf` decided.
    fn lower_cf(
        &mut self,
        cf: &ControlFlow,
        sdfg: &Sdfg,
        states: &[PlanGraph],
        enclosing: Enclosing<'_>,
    ) -> RuntimeResult<PlanCf> {
        Ok(match cf {
            ControlFlow::State(id) => PlanCf::State(*id),
            // A sequence of one (the frontend's loop builder emits them) is
            // its child.
            ControlFlow::Sequence(children) => match &children[..] {
                [only] => self.lower_cf(only, sdfg, states, enclosing)?,
                _ => PlanCf::Seq(
                    (children.iter())
                        .map(|c| self.lower_cf(c, sdfg, states, enclosing))
                        .collect::<RuntimeResult<_>>()?,
                ),
            },
            ControlFlow::Loop(l) => {
                let var = self.sym(&l.var);
                let [start, end, step] =
                    [&l.start, &l.end, &l.step].map(|e| self.lower_sym_expr(e));
                // A level of an attached nest shares the nest's kernel; any
                // other loop is the root of a nest of its own and a site of
                // the report.
                let (kernel, site) = match enclosing {
                    Enclosing::Nest { kernel, level } => (Ok((Arc::clone(kernel), level)), None),
                    Enclosing::Root(enclosing) => {
                        let recognized = self.loop_kernel(l, sdfg, states);
                        let (depth, points) = match &recognized {
                            Ok((k, points)) => (k.levels.len(), *points),
                            Err(_) => (1, self.loop_points(l)),
                        };
                        let kernel = recognized.map(|(k, _)| (Arc::new(k), 0));
                        let site = MapInfo {
                            state: l.body.states_in_order().first().copied().unwrap_or(0),
                            depth,
                            points,
                            strategy: MapStrategy::of(&kernel),
                            rows: kernel.as_ref().ok().map(|(k, _)| k.kernel.rows),
                            enclosing,
                        };
                        (kernel, Some(site))
                    }
                };
                let below = match &kernel {
                    Ok((kernel, level)) => Enclosing::Nest {
                        kernel,
                        level: level + 1,
                    },
                    Err(why) => Enclosing::Root(Some(*why)),
                };
                let listed = self.loops.len();
                let body = Box::new(self.lower_cf(&l.body, sdfg, states, below)?);
                // A declined loop is a site only when it is innermost (its
                // body listed nothing): the loops below speak for the rest.
                if let (Some(site), true) = (site, self.loops.len() == listed) {
                    self.loops.push(site);
                }
                PlanCf::Loop {
                    var,
                    start,
                    end,
                    step,
                    body,
                    kernel,
                }
            }
            ControlFlow::Branch(b) => PlanCf::Branch {
                cond: self.lower_cond(&b.cond)?,
                then_body: Box::new(self.lower_cf(&b.then_body, sdfg, states, enclosing)?),
                else_body: match &b.else_body {
                    Some(e) => Some(Box::new(self.lower_cf(e, sdfg, states, enclosing)?)),
                    None => None,
                },
            },
        })
    }

    fn lower_cond(&mut self, cond: &CondExpr) -> RuntimeResult<PlanCond> {
        Ok(match cond {
            CondExpr::Cmp { lhs, op, rhs } => PlanCond::Cmp {
                lhs: self.lower_operand(lhs)?,
                op: *op,
                rhs: self.lower_operand(rhs)?,
            },
            CondExpr::Not(inner) => PlanCond::Not(Box::new(self.lower_cond(inner)?)),
            CondExpr::StoredFlag(name) => PlanCond::StoredFlag(self.array(name)?),
        })
    }

    fn lower_operand(&mut self, op: &CondOperand) -> Result<PlanOperand, RuntimeError> {
        Ok(match op {
            CondOperand::Const(v) => PlanOperand::Const(*v),
            CondOperand::Sym(e) => PlanOperand::Sym(self.lower_sym_expr(e)),
            CondOperand::Element { array, index } => {
                let array = self.array(array)?;
                self.check_rank(array, index.len())?;
                PlanOperand::Element {
                    array,
                    index: index.iter().map(|e| self.lower_sym_expr(e)).collect(),
                }
            }
        })
    }
}
