//! The SDFG interpreter, driven by a compiled execution plan.
//!
//! This module holds the plan *walker*.  A map or a loop nest runs on
//! the native kernel lowering attached to it (the `spec` module) when that
//! kernel's per-dispatch validation passes, and otherwise on the sequential
//! register VM defined here, whose hot loop touches no string keys and
//! performs no per-iteration clones or allocations.
//!
//! The public entry point is the compile-once API at the crate root:
//! [`crate::compile`] lowers the SDFG into a [`crate::CompiledProgram`] and
//! [`crate::Session`] drives the walker defined here.
//!
//! Memory is tracked per array id (the crate-private `memory` module):
//! non-transient inputs are counted at start, transients are allocated
//! lazily at first touch, and optional per-state *free hints* (produced by
//! the AD engine for recomputation temporaries and consumed tape entries)
//! release containers early so that peak-memory measurements reflect
//! store/recompute choices.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use dace_sdfg::LibraryOp;
use dace_tensor::Tensor;

use crate::error::{RuntimeError, RuntimeResult};
use crate::memory::MemoryTracker;
use crate::plan::{
    CIdx, ExecPlan, Layout, PlanCf, PlanCond, PlanGraph, PlanLibrary, PlanMap, PlanNode,
    PlanOperand, PlanTasklet, SymFile,
};
use crate::spec::{extent, Axis, KernelDst, KernelSrc, SpecMode};

/// Execution statistics and instrumentation results.
#[derive(Clone, Debug, Default)]
pub struct ExecutionReport {
    /// Wall-clock time of the `run` call.
    pub elapsed: Duration,
    /// Peak bytes of *logically live* containers during execution (the
    /// analytic model the checkpointing experiments measure).  Tensors
    /// released by free hints, and taken tensors that came home, are parked
    /// in the session's recycle pool for in-place reuse, so the
    /// process-resident footprint can exceed this figure by the pooled bytes.
    pub peak_bytes: usize,
    /// Bytes logically live at the end of execution.
    pub final_bytes: usize,
    /// Number of tasklet evaluations.
    pub tasklet_invocations: u64,
    /// Number of map body executions (index points).
    pub map_points: u64,
    /// Number of state executions.
    pub state_executions: u64,
    /// Number of library-node expansions executed.
    pub library_calls: u64,
    /// Number of specialized-kernel dispatches: each covers one whole
    /// execution of a map, of a perfect rectangular loop nest or of a loop
    /// on its own handled by the N-D affine kernel instead of by the
    /// register VM (so collapsing a nest lowers the count for equal work).
    pub specialized_dispatches: u64,
}

/// Map execution path selection, a test switch: `Sequential` pins the
/// register VM so tests and instrumentation can compare it against the
/// native kernel on the same map and assert identical results and counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MapPath {
    /// The N-D affine kernel when lowering attached one to the map (and
    /// [`crate::SpecMode`] is not `ForceOff`) and its validation passes,
    /// otherwise the sequential register VM.
    #[default]
    Auto,
    /// Always the sequential register VM.
    Sequential,
}

/// Scratch buffers reused across tasklet evaluations and kernel dispatches:
/// the expression slot array, the floating-point and integer register files
/// (`f_regs` also holds the register columns of a strip), the per-tasklet
/// output values, and the kernel executor's work vectors (the iteration
/// variables of a loop-site dispatch, flattened accesses, the slot and value
/// columns of a row, read and write cursors, the order of a strip row's write
/// sweeps, the accessed tensors while they are out of the slab).  None of it
/// is tracked memory.  One `Scratch`
/// lives per executor.
#[derive(Default)]
pub(crate) struct Scratch {
    pub(crate) slots: Vec<f64>,
    pub(crate) f_regs: Vec<f64>,
    pub(crate) i_regs: Vec<i64>,
    pub(crate) outs: Vec<f64>,
    pub(crate) axes: Vec<Axis>,
    pub(crate) flat: Vec<i64>,
    pub(crate) cols: Vec<f64>,
    pub(crate) srcs: Vec<KernelSrc>,
    pub(crate) dsts: Vec<KernelDst>,
    pub(crate) sweeps: Vec<usize>,
    pub(crate) ts: Vec<Tensor>,
}

/// Mutable execution state, separated from the immutable plan so the
/// recursive walkers can borrow both disjointly.  Owned by
/// [`crate::Session`]; the walker methods live here.
pub(crate) struct RunState {
    pub(crate) slab: Vec<Option<Tensor>>,
    /// Recycled tensors, one spare per array: when a run (or a free hint)
    /// releases a transient, or a tensor lent out by
    /// [`crate::Session::take_array`] comes home through `inbox`, its
    /// allocation parks here, and the next refill of the slot reuses it
    /// (`RunState::refill`) instead of allocating a fresh tensor.
    pub(crate) pool: Vec<Option<Tensor>>,
    /// Where lent tensors come home when their holder drops them, one slot
    /// per array; `Session::run` drains it into `pool`.
    pub(crate) inbox: Arc<Mutex<Vec<Option<Tensor>>>>,
    /// Which arrays are bound for the current run (by array id), via
    /// [`crate::Session::set_input`] or [`crate::Session::copy_input`].
    pub(crate) bound: Vec<bool>,
    pub(crate) syms: SymFile,
    pub(crate) tracker: MemoryTracker,
    pub(crate) report: ExecutionReport,
    pub(crate) free_hints: Vec<Vec<u32>>,
    pub(crate) scratch: Scratch,
    pub(crate) path: MapPath,
    pub(crate) spec_mode: SpecMode,
}

impl RunState {
    /// Fresh run state for a plan: empty slab and pool, initial symbol file.
    pub(crate) fn new(plan: &ExecPlan) -> Self {
        let n_arrays = plan.arrays.names.len();
        RunState {
            slab: vec![None; n_arrays],
            pool: vec![None; n_arrays],
            inbox: Arc::new(Mutex::new(vec![None; n_arrays])),
            bound: vec![false; n_arrays],
            syms: plan.init_syms.clone(),
            tracker: MemoryTracker::new(n_arrays),
            report: ExecutionReport::default(),
            free_hints: vec![Vec::new(); plan.states.len()],
            scratch: Scratch::default(),
            path: MapPath::Auto,
            spec_mode: SpecMode::Auto,
        }
    }

    pub(crate) fn ensure_allocated(&mut self, plan: &ExecPlan, id: u32) -> RuntimeResult<()> {
        if self.slab[id as usize].is_some() {
            return Ok(());
        }
        if !plan.arrays.transient[id as usize] {
            return Err(RuntimeError::MissingInput(
                plan.arrays.names[id as usize].clone(),
            ));
        }
        let layout = plan.arrays.layout(id)?;
        self.slab[id as usize] = Some(self.refill(id as usize, layout.dims()));
        self.tracker.alloc(id as usize, layout.bytes);
        Ok(())
    }

    /// A zero tensor for array `id`: its pooled spare zero-filled in place
    /// when it has one (the layout is identical: same plan), a fresh
    /// allocation otherwise.
    pub(crate) fn refill(&mut self, id: usize, dims: &[usize]) -> Tensor {
        match self.pool[id].take() {
            Some(mut t) => {
                t.data_mut().fill(0.0);
                t
            }
            None => Tensor::zeros(dims),
        }
    }

    #[inline]
    pub(crate) fn idx(&mut self, plan: &ExecPlan, c: &CIdx) -> RuntimeResult<i64> {
        c.eval(&self.syms, &plan.syms.names, &mut self.scratch.i_regs)
    }

    pub(crate) fn exec_cfg(&mut self, plan: &ExecPlan, cf: &PlanCf) -> RuntimeResult<()> {
        match cf {
            PlanCf::State(id) => self.exec_state(plan, *id),
            PlanCf::Seq(children) => {
                for c in children {
                    self.exec_cfg(plan, c)?;
                }
                Ok(())
            }
            PlanCf::Loop {
                var,
                start,
                end,
                step,
                body,
                kernel,
                ..
            } => {
                let start = self.idx(plan, start)?;
                let end = self.idx(plan, end)?;
                let step = self.idx(plan, step)?;
                if step == 0 {
                    return Err(RuntimeError::Malformed(format!(
                        "loop `{}` has zero step",
                        plan.syms.names[*var as usize]
                    )));
                }
                // The loop's kernel, attached at lowering: one dispatch over
                // this loop and the perfect nest below it, in either
                // direction.  It never touches the symbol file, matching the
                // VM's net save/restore effect.
                if let (SpecMode::Auto, Ok((k, level))) = (self.spec_mode, kernel) {
                    let own = [start, end, step];
                    if let Some(points) = self.exec_loop_kernel(plan, k, *level, own)? {
                        self.report.state_executions += points;
                        self.report.tasklet_invocations += points;
                        self.report.specialized_dispatches += 1;
                        return Ok(());
                    }
                }
                let v = *var as usize;
                let previous = (self.syms.vals[v], self.syms.defined[v]);
                self.syms.defined[v] = true;
                let mut i = start;
                while (step > 0 && i < end) || (step < 0 && i > end) {
                    self.syms.vals[v] = i;
                    self.exec_cfg(plan, body)?;
                    // Stepping past `i64` ends the loop: no later value is
                    // in range.
                    let Some(next) = i.checked_add(step) else {
                        break;
                    };
                    i = next;
                }
                // Restore any outer binding of the same iterator name.
                self.syms.vals[v] = previous.0;
                self.syms.defined[v] = previous.1;
                Ok(())
            }
            PlanCf::Branch {
                cond,
                then_body,
                else_body,
            } => {
                if self.eval_plan_cond(plan, cond)? {
                    self.exec_cfg(plan, then_body)
                } else if let Some(e) = else_body {
                    self.exec_cfg(plan, e)
                } else {
                    Ok(())
                }
            }
        }
    }

    fn eval_plan_cond(&mut self, plan: &ExecPlan, cond: &PlanCond) -> RuntimeResult<bool> {
        match cond {
            PlanCond::Cmp { lhs, op, rhs } => {
                let a = self.eval_plan_operand(plan, lhs)?;
                let b = self.eval_plan_operand(plan, rhs)?;
                Ok(op.apply(a, b))
            }
            PlanCond::Not(inner) => Ok(!self.eval_plan_cond(plan, inner)?),
            PlanCond::StoredFlag(a) => {
                self.ensure_allocated(plan, *a)?;
                let t = self.slab[*a as usize].as_ref().expect("just allocated");
                Ok(t.data().first().copied().unwrap_or(0.0) != 0.0)
            }
            PlanCond::Fail(e) => Err(e.clone()),
        }
    }

    fn eval_plan_operand(&mut self, plan: &ExecPlan, op: &PlanOperand) -> RuntimeResult<f64> {
        match op {
            PlanOperand::Const(v) => Ok(*v),
            PlanOperand::Sym(c) => Ok(self.idx(plan, c)? as f64),
            PlanOperand::Element { array, index } => {
                self.ensure_allocated(plan, *array)?;
                let RunState {
                    slab,
                    syms,
                    scratch,
                    ..
                } = self;
                let layout = plan.arrays.layout(*array)?;
                let flat = flat_offset(plan, syms, &mut scratch.i_regs, *array, index, layout)?;
                Ok(slab[*array as usize]
                    .as_ref()
                    .expect("just allocated")
                    .data()[flat])
            }
        }
    }

    fn exec_state(&mut self, plan: &ExecPlan, id: usize) -> RuntimeResult<()> {
        self.report.state_executions += 1;
        self.exec_graph(plan, &plan.states[id])?;
        for k in 0..self.free_hints[id].len() {
            let aid = self.free_hints[id][k] as usize;
            // A bound transient is this run's input and every later run's
            // too: releasing it would hand the next run zeros.
            if self.bound[aid] {
                continue;
            }
            self.tracker.free(aid);
            // Park the released tensor in the pool so a later allocation of
            // the same container reuses it instead of reallocating.  Guarded
            // so a hint firing while the container is unallocated (skipped
            // branch) does not clobber a parked buffer.
            if let Some(t) = self.slab[aid].take() {
                self.pool[aid] = Some(t);
            }
        }
        Ok(())
    }

    fn exec_graph(&mut self, plan: &ExecPlan, g: &PlanGraph) -> RuntimeResult<()> {
        if let Some(e) = &g.fail {
            return Err(e.clone());
        }
        for node in &g.nodes {
            match node {
                PlanNode::Access(a) => {
                    // Allocate when the container is written (has in-edges) or
                    // read (must already exist for non-transients).
                    self.ensure_allocated(plan, *a)?;
                }
                PlanNode::Tasklet(t) => self.exec_tasklet(plan, t)?,
                PlanNode::Map(m) => self.exec_map(plan, m)?,
                PlanNode::Library(l) => self.exec_library(plan, l)?,
                PlanNode::Fail(e) => return Err(e.clone()),
            }
        }
        Ok(())
    }

    fn exec_tasklet(&mut self, plan: &ExecPlan, t: &PlanTasklet) -> RuntimeResult<()> {
        self.report.tasklet_invocations += 1;
        {
            let RunState {
                slab,
                syms,
                scratch,
                ..
            } = self;
            scratch.slots.clear();
            scratch.slots.resize(t.n_slots, 0.0);
            for r in &t.reads {
                let idx = r.access.indices(plan);
                let v = read_access(plan, slab, syms, &mut scratch.i_regs, r.array, idx)?;
                scratch.slots[r.slot as usize] = v;
            }
            load_iters(plan, syms, &mut scratch.slots, &t.iter_loads)?;
            scratch.outs.clear();
            for e in &t.exprs {
                let v = e.eval(&scratch.slots, &mut scratch.f_regs);
                scratch.outs.push(v);
            }
        }
        for w in &t.writes {
            let value = self.scratch.outs[w.expr as usize];
            let idx = w.access.indices(plan);
            self.write_access(plan, w.array, idx, value, w.accumulate)?;
        }
        Ok(())
    }

    fn write_access(
        &mut self,
        plan: &ExecPlan,
        array: u32,
        idx: Option<&[CIdx]>,
        value: f64,
        accumulate: bool,
    ) -> RuntimeResult<()> {
        self.ensure_allocated(plan, array)?;
        let RunState {
            slab,
            syms,
            scratch,
            ..
        } = self;
        let flat = match idx {
            None => {
                let t = slab[array as usize].as_ref().expect("just allocated");
                if t.len() != 1 {
                    return Err(RuntimeError::Malformed(format!(
                        "whole-array memlet of `{}` used as a scalar write",
                        plan.arrays.names[array as usize]
                    )));
                }
                0
            }
            Some(idx) => {
                let layout = plan.arrays.layout(array)?;
                flat_offset(plan, syms, &mut scratch.i_regs, array, idx, layout)?
            }
        };
        let t = slab[array as usize].as_mut().expect("just allocated");
        let target = &mut t.data_mut()[flat];
        if accumulate {
            *target += value;
        } else {
            *target = value;
        }
        Ok(())
    }

    fn exec_map(&mut self, plan: &ExecPlan, m: &PlanMap) -> RuntimeResult<()> {
        // Evaluate the iteration domain.  Symbolic extents are
        // attacker/user-controlled: neither an extent nor the domain size
        // may wrap (wrapping would silently truncate the iteration count in
        // release builds and panic in debug builds).
        let mut axes = Vec::with_capacity(m.ranges.len());
        let mut total = Some(1usize);
        for (s, e) in &m.ranges {
            let lo = self.idx(plan, s)?;
            let hi = self.idx(plan, e)?;
            // An extent beyond `i64` is reported saturated.
            let size = extent(lo, hi);
            total = total.zip(size).and_then(|(t, n)| t.checked_mul(n));
            axes.push(Axis {
                start: lo,
                trip: size.unwrap_or(usize::MAX),
                dir: 1,
            });
        }
        let total = total.ok_or_else(|| RuntimeError::MapDomainOverflow {
            sizes: axes.iter().map(|a| a.trip).collect(),
        })?;
        if total == 0 {
            return Ok(());
        }
        self.report.map_points += total as u64;

        // Pre-allocate every container referenced by the body: the kernel
        // validates against allocated containers, and doing it here keeps the
        // allocation side effects independent of the path taken.
        for &a in &m.referenced {
            self.ensure_allocated(plan, a)?;
        }

        // The map's kernel, attached at lowering.  It validates before
        // mutating, so a declined dispatch falls through to the VM with
        // nothing but the (path-independent) allocations above done.
        if self.path == MapPath::Auto && self.spec_mode != SpecMode::ForceOff {
            if let Ok(kernel) = &m.kernel {
                if self.exec_kernel(plan, kernel, &axes)? {
                    self.report.tasklet_invocations += total as u64;
                    self.report.specialized_dispatches += 1;
                    return Ok(());
                }
            }
        }
        self.exec_map_sequential(plan, m, &axes, total)
    }

    fn exec_map_sequential(
        &mut self,
        plan: &ExecPlan,
        m: &PlanMap,
        axes: &[Axis],
        total: usize,
    ) -> RuntimeResult<()> {
        let ndim = m.params.len();
        let saved: Vec<(i64, bool)> = m
            .params
            .iter()
            .map(|&p| (self.syms.vals[p as usize], self.syms.defined[p as usize]))
            .collect();
        for (&p, axis) in m.params.iter().zip(axes) {
            self.syms.set(p, axis.start);
        }
        // Odometer over the index domain (last dimension fastest), mirrored
        // into the map-parameter symbol slots, without any per-point
        // allocation.
        let mut counters = vec![0usize; ndim];
        let mut remaining = total;
        loop {
            self.exec_graph(plan, &m.body)?;
            remaining -= 1;
            if remaining == 0 {
                break;
            }
            for d in (0..ndim).rev() {
                let slot = &mut self.syms.vals[m.params[d] as usize];
                counters[d] += 1;
                if counters[d] < axes[d].trip {
                    *slot = axes[d].start + counters[d] as i64;
                    break;
                }
                counters[d] = 0;
                *slot = axes[d].start;
            }
        }
        for (&p, &(v, def)) in m.params.iter().zip(&saved) {
            self.syms.vals[p as usize] = v;
            self.syms.defined[p as usize] = def;
        }
        Ok(())
    }

    /// One shape for every op: take the (pooled) destination out of the
    /// slab, overwrite or accumulate into it, put it back.  Lowering checked
    /// the shapes and that no destination is an operand, and slab tensors
    /// always carry their layout's shape, so nothing is matched, allocated
    /// or copied here.
    ///
    /// Kept out of line: inlined, this body grows the frame of
    /// `exec_graph`, which every state execution of a VM-walked loop pays
    /// (`grad_loops`, 7 library calls in 37 774 state executions, read 4.7 %
    /// slower with it inlined).
    #[inline(never)]
    fn exec_library(&mut self, plan: &ExecPlan, l: &PlanLibrary) -> RuntimeResult<()> {
        self.report.library_calls += 1;
        for &a in &l.inputs {
            self.ensure_allocated(plan, a)?;
        }
        for &(dst, accumulate) in &l.outputs {
            self.ensure_allocated(plan, dst)?;
            let mut out = self.slab[dst as usize].take().expect("just allocated");
            let operand = |k: usize| {
                let slot = &self.slab[l.inputs[k] as usize];
                slot.as_ref().expect("allocated above, and not `dst`")
            };
            let done = match l.op {
                LibraryOp::MatMul { trans_a, trans_b } => {
                    operand(0).matmul_into(operand(1), trans_a, trans_b, &mut out, accumulate)
                }
                LibraryOp::MatVec { trans_a } => {
                    operand(0).matvec_into(operand(1), trans_a, &mut out, accumulate)
                }
                LibraryOp::Outer => operand(0).outer_into(operand(1), &mut out, accumulate),
                LibraryOp::Transpose => operand(0).transpose_into(&mut out, accumulate),
                LibraryOp::Copy if accumulate => out.add_assign(operand(0)),
                LibraryOp::Copy => {
                    out.data_mut().copy_from_slice(operand(0).data());
                    Ok(())
                }
                LibraryOp::SumReduce { .. } => {
                    let sum = operand(0).sum();
                    let total = if accumulate { out.data()[0] + sum } else { sum };
                    out.data_mut()[0] = total;
                    Ok(())
                }
            };
            self.slab[dst as usize] = Some(out);
            done?;
        }
        Ok(())
    }
}

/// Promote iteration-symbol values into expression slots, with the same
/// missing-symbol error the tree-walking evaluator produced.
#[inline]
fn load_iters(
    plan: &ExecPlan,
    syms: &SymFile,
    slots: &mut [f64],
    iter_loads: &[(u32, u32)],
) -> RuntimeResult<()> {
    for &(slot, sym) in iter_loads {
        if !syms.defined[sym as usize] {
            return Err(RuntimeError::Tasklet(format!(
                "missing iteration symbol `{}`",
                plan.syms.names[sym as usize]
            )));
        }
        slots[slot as usize] = syms.vals[sym as usize] as f64;
    }
    Ok(())
}

/// Read the scalar selected by a pre-classified access.
#[inline]
fn read_access(
    plan: &ExecPlan,
    slab: &[Option<Tensor>],
    syms: &SymFile,
    i_regs: &mut Vec<i64>,
    array: u32,
    idx: Option<&[CIdx]>,
) -> RuntimeResult<f64> {
    let t = slab[array as usize]
        .as_ref()
        .ok_or_else(|| RuntimeError::UnknownArray(plan.arrays.names[array as usize].clone()))?;
    match idx {
        None => {
            if t.len() == 1 {
                Ok(t.data()[0])
            } else {
                Err(RuntimeError::Malformed(format!(
                    "whole-array memlet of `{}` used as a scalar read",
                    plan.arrays.names[array as usize]
                )))
            }
        }
        Some(idx) => {
            let layout = plan.arrays.layout(array)?;
            let flat = flat_offset(plan, syms, i_regs, array, idx, layout)?;
            Ok(t.data()[flat])
        }
    }
}

/// Maximum rank handled without a heap allocation in the offset computation.
const MAX_INLINE_RANK: usize = 8;

/// Compute the flat row-major offset of a compiled element subset, with the
/// per-dimension bounds checks the tensor indexing used to perform.
#[inline]
fn flat_offset(
    plan: &ExecPlan,
    syms: &SymFile,
    i_regs: &mut Vec<i64>,
    array: u32,
    idx: &[CIdx],
    layout: &Layout,
) -> RuntimeResult<usize> {
    let names = &plan.syms.names;
    let rank = idx.len();
    let mut inline_buf = [0i64; MAX_INLINE_RANK];
    let mut heap_buf;
    let vals: &mut [i64] = if rank <= MAX_INLINE_RANK {
        &mut inline_buf[..rank]
    } else {
        heap_buf = vec![0i64; rank];
        &mut heap_buf
    };
    for (d, c) in idx.iter().enumerate() {
        vals[d] = c.eval(syms, names, i_regs)?;
    }
    let bad = |vals: &[i64]| RuntimeError::BadIndex {
        array: plan.arrays.names[array as usize].clone(),
        index: vals.to_vec(),
    };
    let (dims, strides) = (layout.dims(), layout.strides());
    if rank != dims.len() {
        return Err(bad(vals));
    }
    let mut flat = 0usize;
    for d in 0..rank {
        let v = vals[d];
        if v < 0 || v as usize >= dims[d] {
            return Err(bad(vals));
        }
        flat += v as usize * strides[d];
    }
    Ok(flat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Session;
    use dace_sdfg::{
        ArrayDesc, BranchRegion, CmpOp, CondExpr, CondOperand, ControlFlow, DataflowGraph, DfNode,
        IndexRange, LoopRegion, MapScope, Memlet, ParVerdict, ScalarExpr as E, Sdfg, State, Subset,
        SymExpr, Tasklet, Wcr,
    };
    use std::collections::HashMap;

    fn symbols(pairs: &[(&str, i64)]) -> HashMap<String, i64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    /// Compile and open a session (what most of these walker tests need).
    fn mk_session(sdfg: &Sdfg, symbols: &HashMap<String, i64>) -> RuntimeResult<Session> {
        Ok(crate::program::compile(sdfg, symbols)?.session())
    }

    /// out[i] = in[i] * k for all i, as a map.
    fn scale_sdfg(k: f64) -> Sdfg {
        let mut sdfg = Sdfg::new("scale");
        sdfg.add_symbol("N");
        sdfg.add_array("X", ArrayDesc::input(vec![SymExpr::sym("N")]))
            .unwrap();
        sdfg.add_array("Y", ArrayDesc::input(vec![SymExpr::sym("N")]))
            .unwrap();
        let mut body = DataflowGraph::new();
        let r = body.add_access("X");
        let t = body.add_tasklet(Tasklet::new("scale", "o", E::input("x").mul(E::c(k))));
        let w = body.add_access("Y");
        body.add_edge(
            r,
            None,
            t,
            Some("x"),
            Memlet::element("X", vec![SymExpr::sym("i")]),
        );
        body.add_edge(
            t,
            Some("o"),
            w,
            None,
            Memlet::element("Y", vec![SymExpr::sym("i")]),
        );
        let mut g = DataflowGraph::new();
        let rn = g.add_access("X");
        let m = g.add_map(MapScope {
            params: vec!["i".into()],
            ranges: vec![(SymExpr::int(0), SymExpr::sym("N"))],
            body,
        });
        let wn = g.add_access("Y");
        g.add_edge(rn, None, m, None, Memlet::all("X"));
        g.add_edge(m, None, wn, None, Memlet::all("Y"));
        let sid = sdfg.add_state(State {
            name: "s".into(),
            graph: g,
        });
        sdfg.cfg = ControlFlow::State(sid);
        sdfg
    }

    #[test]
    fn elementwise_map_executes() {
        let sdfg = scale_sdfg(3.0);
        let mut ex = mk_session(&sdfg, &symbols(&[("N", 5)])).unwrap();
        ex.set_input(
            "X",
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0], &[5]).unwrap(),
        )
        .unwrap();
        let report = ex.run().unwrap();
        assert_eq!(ex.array("Y").unwrap().data(), &[3.0, 6.0, 9.0, 12.0, 15.0]);
        assert_eq!(report.map_points, 5);
        assert_eq!(report.tasklet_invocations, 5);
    }

    /// The counters every execution path must agree on.
    fn counters(r: &ExecutionReport) -> (u64, u64, u64) {
        (r.tasklet_invocations, r.map_points, r.state_executions)
    }

    /// A large map gives the same bits and counters on the native kernel
    /// (`Auto`) as on the sequential VM.
    #[test]
    fn large_map_on_the_kernel_matches_the_vm() {
        let sdfg = scale_sdfg(2.0);
        let n = 8292usize;
        let x = dace_tensor::random::uniform(&[n], 1);
        let mut runs = Vec::new();
        for path in [MapPath::Sequential, MapPath::Auto] {
            let mut ex = mk_session(&sdfg, &symbols(&[("N", n as i64)])).unwrap();
            ex.force_map_path(path);
            ex.set_input("X", x.clone()).unwrap();
            let report = ex.run().unwrap();
            runs.push((ex.array("Y").unwrap().clone(), report));
        }
        assert!(dace_tensor::allclose_default(&runs[0].0, &x.scale(2.0)));
        assert_eq!(runs[0].0.data(), runs[1].0.data());
        assert_eq!(counters(&runs[0].1), counters(&runs[1].1));
        assert_eq!(runs[0].1.specialized_dispatches, 0);
        assert_eq!(runs[1].1.specialized_dispatches, 1);
    }

    /// A symbolic iteration domain whose point count overflows `usize` must
    /// surface as a typed error, not wrap in release or panic in debug.
    #[test]
    fn oversized_map_domain_is_a_typed_error() {
        let mut sdfg = Sdfg::new("huge");
        sdfg.add_symbol("L0");
        sdfg.add_symbol("N");
        sdfg.add_array("X", ArrayDesc::input(vec![SymExpr::int(1)]))
            .unwrap();
        sdfg.add_array("Y", ArrayDesc::input(vec![SymExpr::int(1)]))
            .unwrap();
        let mut body = DataflowGraph::new();
        let r = body.add_access("X");
        let t = body.add_tasklet(Tasklet::new("id", "o", E::input("x")));
        let w = body.add_access("Y");
        body.add_edge(
            r,
            None,
            t,
            Some("x"),
            Memlet::element("X", vec![SymExpr::int(0)]),
        );
        body.add_edge(
            t,
            Some("o"),
            w,
            None,
            Memlet::element("Y", vec![SymExpr::int(0)]),
        );
        let mut g = DataflowGraph::new();
        let rn = g.add_access("X");
        let m = g.add_map(MapScope {
            params: vec!["i".into(), "j".into(), "k".into()],
            ranges: vec![
                (SymExpr::sym("L"), SymExpr::sym("N")),
                (SymExpr::int(0), SymExpr::sym("N")),
                (SymExpr::int(0), SymExpr::sym("N")),
            ],
            body,
        });
        let wn = g.add_access("Y");
        g.add_edge(rn, None, m, None, Memlet::all("X"));
        g.add_edge(m, None, wn, None, Memlet::all("Y"));
        let sid = sdfg.add_state(State {
            name: "s".into(),
            graph: g,
        });
        // The first range starts at a loop iterator, so only the executor
        // (not lowering) ever sees its concrete extent.
        sdfg.cfg = ControlFlow::Loop(LoopRegion {
            var: "L".into(),
            start: SymExpr::sym("L0"),
            end: SymExpr::sym("L0").add_int(1),
            step: SymExpr::int(1),
            body: Box::new(ControlFlow::State(sid)),
        });

        // 2^22 per dimension: the product 2^66 does not fit in a u64-sized
        // usize, and must error before any per-point work or allocation.
        let mut ex = mk_session(&sdfg, &symbols(&[("L0", 0), ("N", 1 << 22)])).unwrap();
        ex.set_input("X", Tensor::from_vec(vec![1.0], &[1]).unwrap())
            .unwrap();
        let err = ex.run().unwrap_err();
        assert_eq!(
            err,
            RuntimeError::MapDomainOverflow {
                sizes: vec![1 << 22; 3],
            }
        );

        // An extent that itself wraps `i64` (`N - L` with `L < 0`) is the
        // same typed error, not a debug panic or a silently skipped map.
        let mut ex = mk_session(&sdfg, &symbols(&[("L0", -5), ("N", i64::MAX)])).unwrap();
        let err = ex.run().unwrap_err();
        assert_eq!(
            err,
            RuntimeError::MapDomainOverflow {
                sizes: vec![usize::MAX, i64::MAX as usize, i64::MAX as usize],
            }
        );
    }

    /// The loop site shares the map's checked extent: bounds whose
    /// difference wraps `i64` — `-5 .. i64::MAX` upwards, `i64::MAX .. -5`
    /// downwards — and a nest whose trip counts multiply past `usize` leave
    /// the kernel undispatched, and the VM reports its typed out-of-range
    /// error at the first bad iteration after the same writes — no debug
    /// panic, no wrapped trip count.
    #[test]
    fn wrapping_loop_trip_count_is_the_vm_error() {
        // `for i in S..E by step { [for j in S..E by step] A[innermost] = 1 }`
        let build = |step: i64, nested: bool| {
            let mut sdfg = Sdfg::new("huge_loop");
            sdfg.add_symbol("S");
            sdfg.add_symbol("E");
            sdfg.add_array("A", ArrayDesc::input(vec![SymExpr::int(4)]))
                .unwrap();
            let mut g = DataflowGraph::new();
            let t = g.add_tasklet(Tasklet::new("one", "o", E::c(1.0)));
            let w = g.add_access("A");
            let innermost = if nested { "j" } else { "i" };
            g.add_edge(
                t,
                Some("o"),
                w,
                None,
                Memlet::element("A", vec![SymExpr::sym(innermost)]),
            );
            let sid = sdfg.add_state(State {
                name: "s".into(),
                graph: g,
            });
            let level = |var: &str, body: ControlFlow| {
                ControlFlow::Loop(LoopRegion {
                    var: var.into(),
                    start: SymExpr::sym("S"),
                    end: SymExpr::sym("E"),
                    step: SymExpr::int(step),
                    body: Box::new(body),
                })
            };
            sdfg.cfg = level("i", ControlFlow::State(sid));
            if nested {
                sdfg.cfg = level("i", level("j", ControlFlow::State(sid)));
            }
            sdfg
        };
        // (step, nested, S, E, the index the VM fails at, `A` at that time).
        let cases = [
            (1, false, -5, i64::MAX, -5, [0.0; 4]),
            (-1, false, i64::MAX, -5, i64::MAX, [0.0; 4]),
            // 2^33 iterations per level: each trip count fits, their
            // product does not.  Row `i = 0` fills `A` and leaves it.
            (1, true, 0, 1 << 33, 4, [1.0; 4]),
        ];
        for (step, nested, start, end, bad, written) in cases {
            let sdfg = build(step, nested);
            let program =
                crate::program::compile(&sdfg, &symbols(&[("S", start), ("E", end)])).unwrap();
            let loops = program.loop_strategies();
            assert_eq!(loops.len(), 1);
            assert_eq!(loops[0].strategy, crate::MapStrategy::Kernel);
            assert_eq!(loops[0].depth, 1 + nested as usize);
            assert_eq!(loops[0].points, None, "the extent does not fit");
            for mode in [SpecMode::ForceOff, SpecMode::Auto] {
                let mut ex = program.session();
                ex.force_specialization(mode);
                ex.set_input("A", Tensor::zeros(&[4])).unwrap();
                assert_eq!(
                    ex.run().unwrap_err(),
                    RuntimeError::BadIndex {
                        array: "A".into(),
                        index: vec![bad],
                    },
                    "step {step}, nested {nested}, {mode:?}"
                );
                assert_eq!(ex.array("A").unwrap().data(), &written);
            }
        }
    }

    /// Symbol values are user-controlled at compile time too: a map bound
    /// `N + 1` under `N = i64::MAX` must not overflow-panic in lowering (the
    /// point count is simply unknown), and an array whose byte size leaves
    /// `i64` keeps its typed evaluation error.
    #[test]
    fn compile_time_symbol_overflow_is_typed() {
        let mut sdfg = scale_sdfg(2.0);
        let DfNode::MapScope(map) = &mut sdfg.states[0].graph.nodes[1] else {
            panic!("scale_sdfg places the map second");
        };
        map.ranges[0].1 = SymExpr::sym("N").add_int(1);
        let program = crate::program::compile(&sdfg, &symbols(&[("N", i64::MAX)])).unwrap();
        let maps = program.map_strategies();
        assert_eq!(maps.len(), 1);
        assert_eq!(maps[0].points, None);
        assert_eq!(
            SymExpr::sym("N")
                .add_int(1)
                .eval(&symbols(&[("N", i64::MAX)])),
            Err(dace_sdfg::SymError::Overflow)
        );
        // `X` is `N` doubles: its 8 N bytes do not fit.
        assert_eq!(
            program.session().set_input("X", Tensor::zeros(&[1])),
            Err(RuntimeError::from(dace_sdfg::SymError::Overflow))
        );
    }

    /// The same kernel-eligible map must produce identical results and
    /// identical counters on the native kernel (`Auto`) and the VM.
    #[test]
    fn all_paths_report_identical_counters() {
        let x = dace_tensor::random::uniform(&[64], 9);
        let mut reports = Vec::new();
        let mut outputs = Vec::new();
        for path in [MapPath::Auto, MapPath::Sequential] {
            let sdfg = scale_sdfg(1.5);
            let mut ex = mk_session(&sdfg, &symbols(&[("N", 64)])).unwrap();
            ex.force_map_path(path);
            ex.set_input("X", x.clone()).unwrap();
            let report = ex.run().unwrap();
            outputs.push(ex.array("Y").unwrap().data().to_vec());
            reports.push(report);
        }
        assert_eq!(counters(&reports[0]), counters(&reports[1]));
        assert_eq!(reports[0].tasklet_invocations, 64);
        assert_eq!(outputs[0], outputs[1], "paths disagree on results");
    }

    /// The dependence verdict of the single map node of `sdfg` (a diagnostic:
    /// lowering does not consult it).
    fn map_verdict(sdfg: &Sdfg, syms: &HashMap<String, i64>) -> ParVerdict {
        for st in &sdfg.states {
            for n in &st.graph.nodes {
                if let dace_sdfg::DfNode::MapScope(m) = n {
                    return dace_sdfg::analyze_map(m, syms);
                }
            }
        }
        panic!("no map node in the SDFG");
    }

    /// A map accumulating into a fixed element (`A[0] = A[0] + X[i]` without
    /// WCR) carries a cross-iteration dependence, and the dependence analyzer
    /// classifies it `Race`.  The kernel walks the points in the VM's order
    /// on one thread, every read through the live buffer (the access does
    /// not move along the row, so the row runs point by point): it
    /// dispatches once and equals the VM bit for bit.
    #[test]
    fn fixed_element_rmw_map_kernel_equals_the_vm() {
        let build = || {
            let mut sdfg = Sdfg::new("rmw_scalar");
            sdfg.add_symbol("N");
            sdfg.add_array("X", ArrayDesc::input(vec![SymExpr::sym("N")]))
                .unwrap();
            sdfg.add_array("A", ArrayDesc::input(vec![SymExpr::int(1)]))
                .unwrap();
            let mut body = DataflowGraph::new();
            let rx = body.add_access("X");
            let ra = body.add_access("A");
            let t = body.add_tasklet(Tasklet::new("acc", "o", E::input("a").add(E::input("x"))));
            let wa = body.add_access("A");
            body.add_edge(
                rx,
                None,
                t,
                Some("x"),
                Memlet::element("X", vec![SymExpr::sym("i")]),
            );
            body.add_edge(
                ra,
                None,
                t,
                Some("a"),
                Memlet::element("A", vec![SymExpr::int(0)]),
            );
            body.add_edge(
                t,
                Some("o"),
                wa,
                None,
                Memlet::element("A", vec![SymExpr::int(0)]),
            );
            let mut g = DataflowGraph::new();
            let rn = g.add_access("X");
            let an = g.add_access("A");
            let m = g.add_map(MapScope {
                params: vec!["i".into()],
                ranges: vec![(SymExpr::int(0), SymExpr::sym("N"))],
                body,
            });
            let wn = g.add_access("A");
            g.add_edge(rn, None, m, None, Memlet::all("X"));
            g.add_edge(an, None, m, None, Memlet::all("A"));
            g.add_edge(m, None, wn, None, Memlet::all("A"));
            let sid = sdfg.add_state(State {
                name: "s".into(),
                graph: g,
            });
            sdfg.cfg = ControlFlow::State(sid);
            sdfg
        };
        let n = 64usize;
        let syms = symbols(&[("N", n as i64)]);
        assert!(matches!(map_verdict(&build(), &syms), ParVerdict::Race(_)));

        let x = dace_tensor::random::uniform(&[n], 17);
        let mut outs = Vec::new();
        let mut reports = Vec::new();
        for path in [MapPath::Sequential, MapPath::Auto] {
            let mut ex = mk_session(&build(), &syms).unwrap();
            ex.force_map_path(path);
            ex.set_input("X", x.clone()).unwrap();
            ex.set_input("A", Tensor::from_vec(vec![10.0], &[1]).unwrap())
                .unwrap();
            reports.push(ex.run().unwrap());
            outs.push(ex.array("A").unwrap().data().to_vec());
        }
        assert_eq!(outs[0], outs[1], "RMW diverged across paths");
        assert_eq!(counters(&reports[0]), counters(&reports[1]));
        assert_eq!(reports[0].specialized_dispatches, 0);
        assert_eq!(reports[1].specialized_dispatches, 1);
        // And the value really is the sequential accumulation.
        let expected = x.data().iter().fold(10.0, |a, &v| a + v);
        assert_eq!(outs[0][0], expected);
    }

    /// A map writing a whole-array (scalar) subset every iteration is
    /// likewise a `Race` — last-iteration-wins only holds in order — and the
    /// kernel's write sweep is in order: one dispatch, the VM's result.
    #[test]
    fn whole_array_write_map_kernel_equals_the_vm() {
        let build = || {
            let mut sdfg = Sdfg::new("scalar_overwrite");
            sdfg.add_symbol("N");
            sdfg.add_array("X", ArrayDesc::input(vec![SymExpr::sym("N")]))
                .unwrap();
            sdfg.add_array("S", ArrayDesc::input(vec![SymExpr::int(1)]))
                .unwrap();
            let mut body = DataflowGraph::new();
            let rx = body.add_access("X");
            let t = body.add_tasklet(Tasklet::new("last", "o", E::input("x")));
            let ws = body.add_access("S");
            body.add_edge(
                rx,
                None,
                t,
                Some("x"),
                Memlet::element("X", vec![SymExpr::sym("i")]),
            );
            body.add_edge(t, Some("o"), ws, None, Memlet::all("S"));
            let mut g = DataflowGraph::new();
            let rn = g.add_access("X");
            let m = g.add_map(MapScope {
                params: vec!["i".into()],
                ranges: vec![(SymExpr::int(0), SymExpr::sym("N"))],
                body,
            });
            let wn = g.add_access("S");
            g.add_edge(rn, None, m, None, Memlet::all("X"));
            g.add_edge(m, None, wn, None, Memlet::all("S"));
            let sid = sdfg.add_state(State {
                name: "s".into(),
                graph: g,
            });
            sdfg.cfg = ControlFlow::State(sid);
            sdfg
        };
        let n = 32usize;
        let syms = symbols(&[("N", n as i64)]);
        assert!(matches!(map_verdict(&build(), &syms), ParVerdict::Race(_)));
        let x = dace_tensor::random::uniform(&[n], 23);
        let mut reports = Vec::new();
        for path in [MapPath::Sequential, MapPath::Auto] {
            let mut ex = mk_session(&build(), &syms).unwrap();
            ex.force_map_path(path);
            ex.set_input("X", x.clone()).unwrap();
            reports.push(ex.run().unwrap());
            // Sequential semantics: the last iteration's value sticks.
            assert_eq!(ex.array("S").unwrap().data(), &[x.data()[n - 1]]);
        }
        assert_eq!(counters(&reports[0]), counters(&reports[1]));
        assert_eq!(reports[0].specialized_dispatches, 0);
        assert_eq!(reports[1].specialized_dispatches, 1);
    }

    /// A strided injective write (`A[2*i+1]`) fed by a *ranged* read
    /// (`X[i:i+1]`, read at its start as the VM does): the analyzer proves
    /// it `Safe`, and the map kernel attaches with results bit-identical to
    /// the VM.
    #[test]
    fn strided_injective_map_is_newly_parallel() {
        let build = || {
            let mut sdfg = Sdfg::new("strided");
            sdfg.add_symbol("N");
            sdfg.add_array("X", ArrayDesc::input(vec![SymExpr::sym("N")]))
                .unwrap();
            sdfg.add_array(
                "A",
                ArrayDesc::input(vec![SymExpr::sym("N").mul_int(2).add_int(1)]),
            )
            .unwrap();
            let i = SymExpr::sym("i");
            let mut body = DataflowGraph::new();
            let rx = body.add_access("X");
            let t = body.add_tasklet(Tasklet::new("sc", "o", E::input("x").mul(E::c(3.0))));
            let wa = body.add_access("A");
            body.add_edge(
                rx,
                None,
                t,
                Some("x"),
                Memlet {
                    data: "X".into(),
                    subset: Subset(vec![IndexRange::range(i.clone(), i.add_int(1))]),
                    wcr: None,
                },
            );
            body.add_edge(
                t,
                Some("o"),
                wa,
                None,
                Memlet::element("A", vec![i.mul_int(2).add_int(1)]),
            );
            let mut g = DataflowGraph::new();
            let rn = g.add_access("X");
            let m = g.add_map(MapScope {
                params: vec!["i".into()],
                ranges: vec![(SymExpr::int(0), SymExpr::sym("N"))],
                body,
            });
            let wn = g.add_access("A");
            g.add_edge(rn, None, m, None, Memlet::all("X"));
            g.add_edge(m, None, wn, None, Memlet::all("A"));
            let sid = sdfg.add_state(State {
                name: "s".into(),
                graph: g,
            });
            sdfg.cfg = ControlFlow::State(sid);
            sdfg
        };
        let n = 100usize;
        let syms = symbols(&[("N", n as i64)]);
        assert_eq!(map_verdict(&build(), &syms), ParVerdict::Safe);

        let x = dace_tensor::random::uniform(&[n], 41);
        let mut outs = Vec::new();
        let mut reports = Vec::new();
        for path in [MapPath::Sequential, MapPath::Auto] {
            let mut ex = mk_session(&build(), &syms).unwrap();
            ex.force_map_path(path);
            ex.set_input("X", x.clone()).unwrap();
            ex.set_input("A", Tensor::zeros(&[2 * n + 1])).unwrap();
            reports.push(ex.run().unwrap());
            outs.push(ex.array("A").unwrap().data().to_vec());
        }
        assert_eq!(outs[0], outs[1], "kernel strided write diverged");
        assert_eq!(counters(&reports[0]), counters(&reports[1]));
        assert_eq!(reports[1].specialized_dispatches, 1);
        for (k, &v) in outs[0].iter().enumerate() {
            if k % 2 == 1 {
                assert_eq!(v, x.data()[(k - 1) / 2] * 3.0);
            } else {
                assert_eq!(v, 0.0);
            }
        }
    }

    /// A WCR-sum accumulation into one element is a `Reduction`: the map
    /// kernel's result is bit-identical to the VM's accumulation (the kernel
    /// walks the domain in the VM's odometer order).
    #[test]
    fn wcr_reduction_map_is_parallel_and_bit_identical() {
        let build = || {
            let mut sdfg = Sdfg::new("wcr_sum");
            sdfg.add_symbol("N");
            sdfg.add_array("X", ArrayDesc::input(vec![SymExpr::sym("N")]))
                .unwrap();
            sdfg.add_array("A", ArrayDesc::input(vec![SymExpr::int(1)]))
                .unwrap();
            let mut body = DataflowGraph::new();
            let rx = body.add_access("X");
            let t = body.add_tasklet(Tasklet::new("add", "o", E::input("x")));
            let wa = body.add_access("A");
            body.add_edge(
                rx,
                None,
                t,
                Some("x"),
                Memlet::element("X", vec![SymExpr::sym("i")]),
            );
            let mut wm = Memlet::element("A", vec![SymExpr::int(0)]);
            wm.wcr = Some(Wcr::Sum);
            body.add_edge(t, Some("o"), wa, None, wm);
            let mut g = DataflowGraph::new();
            let rn = g.add_access("X");
            let m = g.add_map(MapScope {
                params: vec!["i".into()],
                ranges: vec![(SymExpr::int(0), SymExpr::sym("N"))],
                body,
            });
            let wn = g.add_access("A");
            g.add_edge(rn, None, m, None, Memlet::all("X"));
            g.add_edge(m, None, wn, None, Memlet::all("A"));
            let sid = sdfg.add_state(State {
                name: "s".into(),
                graph: g,
            });
            sdfg.cfg = ControlFlow::State(sid);
            sdfg
        };
        let n = 512usize;
        let syms = symbols(&[("N", n as i64)]);
        assert_eq!(map_verdict(&build(), &syms), ParVerdict::Reduction);
        let x = dace_tensor::random::uniform(&[n], 7);
        let mut outs = Vec::new();
        let mut reports = Vec::new();
        for path in [MapPath::Sequential, MapPath::Auto] {
            let mut ex = mk_session(&build(), &syms).unwrap();
            ex.force_map_path(path);
            ex.set_input("X", x.clone()).unwrap();
            ex.set_input("A", Tensor::zeros(&[1])).unwrap();
            reports.push(ex.run().unwrap());
            outs.push(ex.array("A").unwrap().data().to_vec());
        }
        assert_eq!(outs[0], outs[1], "WCR reduction diverged across paths");
        assert_eq!(counters(&reports[0]), counters(&reports[1]));
        assert_eq!(reports[1].specialized_dispatches, 1);
    }

    /// A tasklet with two out-edges must count as ONE evaluation per index
    /// point on every path (evaluations, not writes, which are two per
    /// point).
    #[test]
    fn multi_output_tasklet_counts_evaluations_not_writes() {
        let build = || {
            let mut sdfg = Sdfg::new("two_outs");
            sdfg.add_symbol("N");
            for n in ["X", "Y", "Z"] {
                sdfg.add_array(n, ArrayDesc::input(vec![SymExpr::sym("N")]))
                    .unwrap();
            }
            let mut body = DataflowGraph::new();
            let r = body.add_access("X");
            let t = body.add_tasklet(Tasklet::multi(
                "fan",
                vec![
                    ("a".into(), E::input("x").mul(E::c(2.0))),
                    ("b".into(), E::input("x").add(E::c(1.0))),
                ],
            ));
            let wy = body.add_access("Y");
            let wz = body.add_access("Z");
            body.add_edge(
                r,
                None,
                t,
                Some("x"),
                Memlet::element("X", vec![SymExpr::sym("i")]),
            );
            body.add_edge(
                t,
                Some("a"),
                wy,
                None,
                Memlet::element("Y", vec![SymExpr::sym("i")]),
            );
            body.add_edge(
                t,
                Some("b"),
                wz,
                None,
                Memlet::element("Z", vec![SymExpr::sym("i")]),
            );
            let mut g = DataflowGraph::new();
            let rn = g.add_access("X");
            let m = g.add_map(MapScope {
                params: vec!["i".into()],
                ranges: vec![(SymExpr::int(0), SymExpr::sym("N"))],
                body,
            });
            let wn = g.add_access("Y");
            let zn = g.add_access("Z");
            g.add_edge(rn, None, m, None, Memlet::all("X"));
            g.add_edge(m, None, wn, None, Memlet::all("Y"));
            g.add_edge(m, None, zn, None, Memlet::all("Z"));
            let sid = sdfg.add_state(State {
                name: "s".into(),
                graph: g,
            });
            sdfg.cfg = ControlFlow::State(sid);
            sdfg
        };
        let x = dace_tensor::random::uniform(&[100], 4);
        let mut reports = Vec::new();
        let mut ys = Vec::new();
        for path in [MapPath::Sequential, MapPath::Auto] {
            let sdfg = build();
            let mut ex = mk_session(&sdfg, &symbols(&[("N", 100)])).unwrap();
            ex.force_map_path(path);
            ex.set_input("X", x.clone()).unwrap();
            reports.push(ex.run().unwrap());
            ys.push((
                ex.array("Y").unwrap().data().to_vec(),
                ex.array("Z").unwrap().data().to_vec(),
            ));
        }
        assert_eq!(reports[0].tasklet_invocations, 100);
        assert_eq!(
            reports[1].tasklet_invocations, 100,
            "the kernel must count tasklet evaluations, not writes"
        );
        assert_eq!(counters(&reports[0]), counters(&reports[1]));
        assert_eq!(reports[1].specialized_dispatches, 1);
        assert_eq!(ys[0], ys[1]);
    }

    #[test]
    fn missing_symbol_is_error() {
        let sdfg = scale_sdfg(1.0);
        assert!(matches!(
            mk_session(&sdfg, &HashMap::new()),
            Err(RuntimeError::MissingSymbol(_))
        ));
    }

    #[test]
    fn missing_input_is_error() {
        let sdfg = scale_sdfg(1.0);
        let mut ex = mk_session(&sdfg, &symbols(&[("N", 4)])).unwrap();
        // X not provided: reading it must fail (Y would be zero-filled output).
        let err = ex.run();
        // X is non-transient so it is zero-initialised as an "output"; the
        // run succeeds and Y is all zeros.  This mirrors DaCe semantics where
        // missing inputs are undefined; we choose zero-fill.
        assert!(err.is_ok());
        assert_eq!(ex.array("Y").unwrap().sum(), 0.0);
    }

    #[test]
    fn wrong_shape_input_rejected() {
        let sdfg = scale_sdfg(1.0);
        let mut ex = mk_session(&sdfg, &symbols(&[("N", 4)])).unwrap();
        let bad = Tensor::zeros(&[5]);
        assert!(matches!(
            ex.set_input("X", bad),
            Err(RuntimeError::ShapeMismatch { .. })
        ));
    }

    /// Sequential loop with an element tasklet: out[0] = sum of i for i in 0..N.
    #[test]
    fn sequential_loop_with_accumulation() {
        let mut sdfg = Sdfg::new("loop");
        sdfg.add_symbol("N");
        sdfg.add_array("ACC", ArrayDesc::input(vec![SymExpr::int(1)]))
            .unwrap();
        let mut g = DataflowGraph::new();
        let t = g.add_tasklet(Tasklet::new("acc", "o", E::iter("i")));
        let w = g.add_access("ACC");
        g.add_edge(
            t,
            Some("o"),
            w,
            None,
            Memlet::element("ACC", vec![SymExpr::int(0)]).with_wcr_sum(),
        );
        let sid = sdfg.add_state(State {
            name: "body".into(),
            graph: g,
        });
        sdfg.cfg = ControlFlow::Loop(LoopRegion {
            var: "i".into(),
            start: SymExpr::int(0),
            end: SymExpr::sym("N"),
            step: SymExpr::int(1),
            body: Box::new(ControlFlow::State(sid)),
        });
        let mut ex = mk_session(&sdfg, &symbols(&[("N", 10)])).unwrap();
        ex.run().unwrap();
        assert_eq!(ex.array("ACC").unwrap().data()[0], 45.0);
    }

    #[test]
    fn reverse_loop_executes_in_descending_order() {
        // ACC = last i written (no WCR): with a reversed loop it ends at 0.
        let mut sdfg = Sdfg::new("revloop");
        sdfg.add_array("ACC", ArrayDesc::input(vec![SymExpr::int(1)]))
            .unwrap();
        let mut g = DataflowGraph::new();
        let t = g.add_tasklet(Tasklet::new("set", "o", E::iter("i")));
        let w = g.add_access("ACC");
        g.add_edge(
            t,
            Some("o"),
            w,
            None,
            Memlet::element("ACC", vec![SymExpr::int(0)]),
        );
        let sid = sdfg.add_state(State {
            name: "body".into(),
            graph: g,
        });
        sdfg.cfg = ControlFlow::Loop(LoopRegion {
            var: "i".into(),
            start: SymExpr::int(9),
            end: SymExpr::int(-1),
            step: SymExpr::int(-1),
            body: Box::new(ControlFlow::State(sid)),
        });
        let mut ex = mk_session(&sdfg, &HashMap::new()).unwrap();
        ex.run().unwrap();
        assert_eq!(ex.array("ACC").unwrap().data()[0], 0.0);
    }

    #[test]
    fn branch_takes_correct_arm() {
        // if P[0] > 0 { Y[0] = 1 } else { Y[0] = 2 }
        let mut sdfg = Sdfg::new("branch");
        sdfg.add_array("P", ArrayDesc::input(vec![SymExpr::int(1)]))
            .unwrap();
        sdfg.add_array("Y", ArrayDesc::input(vec![SymExpr::int(1)]))
            .unwrap();
        let mk = |v: f64| {
            let mut g = DataflowGraph::new();
            let t = g.add_tasklet(Tasklet::new("c", "o", E::c(v)));
            let w = g.add_access("Y");
            g.add_edge(
                t,
                Some("o"),
                w,
                None,
                Memlet::element("Y", vec![SymExpr::int(0)]),
            );
            g
        };
        let then_id = sdfg.add_state(State {
            name: "t".into(),
            graph: mk(1.0),
        });
        let else_id = sdfg.add_state(State {
            name: "e".into(),
            graph: mk(2.0),
        });
        sdfg.cfg = ControlFlow::Branch(BranchRegion {
            cond: CondExpr::Cmp {
                lhs: CondOperand::Element {
                    array: "P".into(),
                    index: vec![SymExpr::int(0)],
                },
                op: CmpOp::Gt,
                rhs: CondOperand::Const(0.0),
            },
            then_body: Box::new(ControlFlow::State(then_id)),
            else_body: Some(Box::new(ControlFlow::State(else_id))),
        });
        let mut ex = mk_session(&sdfg, &HashMap::new()).unwrap();
        ex.set_input("P", Tensor::from_vec(vec![5.0], &[1]).unwrap())
            .unwrap();
        ex.run().unwrap();
        assert_eq!(ex.array("Y").unwrap().data()[0], 1.0);

        let mut ex = mk_session(&sdfg, &HashMap::new()).unwrap();
        ex.set_input("P", Tensor::from_vec(vec![-5.0], &[1]).unwrap())
            .unwrap();
        ex.run().unwrap();
        assert_eq!(ex.array("Y").unwrap().data()[0], 2.0);
    }

    /// A one-state program around one library call over constant-shaped
    /// non-transient arrays.
    fn library_sdfg(
        op: LibraryOp,
        operands: &[(&str, &[i64])],
        dst: (&str, &[i64]),
        accumulate: bool,
    ) -> Sdfg {
        let mut sdfg = Sdfg::new("lib");
        for (name, shape) in operands.iter().chain([&dst]) {
            let shape = shape.iter().map(|&d| SymExpr::int(d)).collect();
            // An output that is also an operand is declared once.
            let _ = sdfg.add_array(*name, ArrayDesc::input(shape));
        }
        let names: Vec<&str> = operands.iter().map(|(name, _)| *name).collect();
        let sid = sdfg.add_state(State {
            name: "s".into(),
            graph: DataflowGraph::library_call(op, &names, dst.0, accumulate),
        });
        sdfg.cfg = ControlFlow::State(sid);
        sdfg
    }

    #[test]
    fn matmul_library_node() {
        let sdfg = library_sdfg(
            LibraryOp::MATMUL,
            &[("A", &[4, 4]), ("B", &[4, 4])],
            ("C", &[4, 4]),
            false,
        );
        let mut ex = mk_session(&sdfg, &symbols(&[])).unwrap();
        let a_t = dace_tensor::random::uniform(&[4, 4], 3);
        let b_t = dace_tensor::random::uniform(&[4, 4], 4);
        ex.set_input("A", a_t.clone()).unwrap();
        ex.set_input("B", b_t.clone()).unwrap();
        let report = ex.run().unwrap();
        assert_eq!(report.library_calls, 1);
        assert!(dace_tensor::allclose_default(
            ex.array("C").unwrap(),
            &a_t.matmul(&b_t).unwrap()
        ));
    }

    /// Every flag combination of the two products, overwriting and
    /// accumulating, against the materialised transposes — and written in
    /// place: the destination keeps its allocation from run to run.
    #[test]
    fn flagged_library_nodes_write_their_destination_in_place() {
        let (m, k, n) = (3, 4, 5);
        let a = dace_tensor::random::uniform(&[m, k], 1);
        let b = dace_tensor::random::uniform(&[k, n], 2);
        let x = dace_tensor::random::uniform(&[k], 3);
        let seed = dace_tensor::random::uniform(&[m, n], 4);
        let stored = |t: &Tensor, transposed: bool| {
            if transposed {
                t.transpose().unwrap()
            } else {
                t.clone()
            }
        };
        let shape = |t: &Tensor| -> Vec<i64> { t.shape().iter().map(|&d| d as i64).collect() };
        // (op, second operand, the plain product)
        let mut cases = Vec::new();
        for (trans_a, trans_b) in [(false, false), (true, false), (false, true), (true, true)] {
            let op = LibraryOp::MatMul { trans_a, trans_b };
            cases.push((op, stored(&b, trans_b), a.matmul(&b).unwrap()));
        }
        for trans_a in [false, true] {
            let op = LibraryOp::MatVec { trans_a };
            cases.push((op, x.clone(), a.matvec(&x).unwrap()));
        }
        for (op, second, product) in cases {
            let trans_a = matches!(
                op,
                LibraryOp::MatMul { trans_a: true, .. } | LibraryOp::MatVec { trans_a: true }
            );
            let first = stored(&a, trans_a);
            let conn = op.input_connectors()[1];
            for accumulate in [false, true] {
                let sdfg = library_sdfg(
                    op,
                    &[("A", &shape(&first)), (conn, &shape(&second))],
                    ("OUT", &shape(&product)),
                    accumulate,
                );
                let mut ex = mk_session(&sdfg, &symbols(&[])).unwrap();
                ex.set_input("A", first.clone()).unwrap();
                ex.set_input(conn, second.clone()).unwrap();
                let mut want = product.clone();
                if accumulate {
                    let prior =
                        Tensor::from_vec(seed.data()[..product.len()].to_vec(), product.shape())
                            .unwrap();
                    ex.set_input("OUT", prior.clone()).unwrap();
                    want.add_assign(&prior).unwrap();
                }
                ex.run().unwrap();
                let out = ex.array("OUT").unwrap();
                assert!(
                    dace_tensor::allclose(out, &want, 1e-13, 1e-13),
                    "{op:?} accumulate={accumulate}"
                );
                let at = out.data().as_ptr();
                ex.clear_bindings();
                ex.set_input("A", first.clone()).unwrap();
                ex.set_input(conn, second.clone()).unwrap();
                ex.run().unwrap();
                let out = ex.array("OUT").unwrap();
                assert_eq!(out.data().as_ptr(), at, "{op:?}: destination reallocated");
                assert!(dace_tensor::allclose(out, &product, 1e-13, 1e-13));
            }
        }
    }

    /// What a library node needs of its operands is checked where shapes are
    /// concrete — at lowering: operands that do not fit each other under the
    /// flags and an output that is also an input fail `compile()`, typed; a
    /// destination of the wrong shape keeps failing the run that reaches it.
    #[test]
    fn library_nodes_that_cannot_run_are_typed_errors() {
        let compile_err =
            |sdfg: &Sdfg| crate::compile(sdfg, &symbols(&[])).map(|_| ()).unwrap_err();
        let matmul = |trans_a, trans_b, c: &[i64]| {
            library_sdfg(
                LibraryOp::MatMul { trans_a, trans_b },
                &[("A", &[3, 4]), ("B", &[3, 5])],
                ("C", c),
                false,
            )
        };
        // (3x4)ᵀ @ (3x5) fits; the other three readings do not.
        assert!(crate::compile(&matmul(true, false, &[4, 5]), &symbols(&[])).is_ok());
        for (trans_a, trans_b, expected) in [
            (false, false, vec![4, 5]),
            (false, true, vec![3, 4]),
            (true, true, vec![3, 3]),
        ] {
            assert_eq!(
                compile_err(&matmul(trans_a, trans_b, &[3, 5])),
                RuntimeError::ShapeMismatch {
                    array: "B".into(),
                    expected,
                    got: vec![3, 5],
                }
            );
        }
        let matvec = |trans_a| {
            library_sdfg(
                LibraryOp::MatVec { trans_a },
                &[("A", &[3, 4]), ("x", &[3])],
                ("y", &[4]),
                false,
            )
        };
        assert!(crate::compile(&matvec(true), &symbols(&[])).is_ok());
        assert!(matches!(
            compile_err(&matvec(false)),
            RuntimeError::ShapeMismatch { array, expected, .. } if array == "x" && expected == [4]
        ));

        // In place means the output cannot be an operand.
        let aliased = library_sdfg(
            LibraryOp::MATMUL,
            &[("A", &[3, 3]), ("B", &[3, 3])],
            ("A", &[3, 3]),
            false,
        );
        assert_eq!(
            compile_err(&aliased),
            RuntimeError::AliasedLibraryOutput("A".into())
        );

        // The destination: compiled, rejected by the run that reaches it.
        let mut ex = mk_session(&matmul(true, false, &[5, 4]), &symbols(&[])).unwrap();
        assert_eq!(
            ex.run().unwrap_err(),
            RuntimeError::ShapeMismatch {
                array: "C".into(),
                expected: vec![5, 4],
                got: vec![4, 5],
            }
        );

        // A wrong operand rank never reaches lowering: the verifier has it.
        let rank = library_sdfg(
            LibraryOp::MATVEC,
            &[("A", &[3, 4]), ("x", &[4, 1])],
            ("y", &[3]),
            false,
        );
        assert!(matches!(
            compile_err(&rank),
            RuntimeError::InvalidSdfg { .. }
        ));
    }

    #[test]
    fn sum_reduce_library_node() {
        let mut sdfg = Sdfg::new("sum");
        sdfg.add_symbol("N");
        sdfg.add_array("A", ArrayDesc::input(vec![SymExpr::sym("N")]))
            .unwrap();
        sdfg.add_array("S", ArrayDesc::input(vec![SymExpr::int(1)]))
            .unwrap();
        let mut g = DataflowGraph::new();
        let a = g.add_access("A");
        let r = g.add_library(LibraryOp::SumReduce { accumulate: false });
        let s = g.add_access("S");
        g.add_edge(a, None, r, Some("IN"), Memlet::all("A"));
        g.add_edge(r, Some("OUT"), s, None, Memlet::all("S"));
        let sid = sdfg.add_state(State {
            name: "s".into(),
            graph: g,
        });
        sdfg.cfg = ControlFlow::State(sid);
        let mut ex = mk_session(&sdfg, &symbols(&[("N", 6)])).unwrap();
        ex.set_input("A", Tensor::ones(&[6])).unwrap();
        ex.run().unwrap();
        assert_eq!(ex.array("S").unwrap().data()[0], 6.0);
    }

    #[test]
    fn transient_allocation_and_free_hints() {
        // X -> T (transient) -> Y; free T after the state.
        let mut sdfg = Sdfg::new("transient");
        sdfg.add_symbol("N");
        sdfg.add_array("X", ArrayDesc::input(vec![SymExpr::sym("N")]))
            .unwrap();
        sdfg.add_array("T", ArrayDesc::transient(vec![SymExpr::sym("N")]))
            .unwrap();
        sdfg.add_array("Y", ArrayDesc::input(vec![SymExpr::sym("N")]))
            .unwrap();
        let mk = |src: &str, dst: &str| {
            let mut body = DataflowGraph::new();
            let r = body.add_access(src);
            let t = body.add_tasklet(Tasklet::new("x2", "o", E::input("x").mul(E::c(2.0))));
            let w = body.add_access(dst);
            body.add_edge(
                r,
                None,
                t,
                Some("x"),
                Memlet::element(src, vec![SymExpr::sym("i")]),
            );
            body.add_edge(
                t,
                Some("o"),
                w,
                None,
                Memlet::element(dst, vec![SymExpr::sym("i")]),
            );
            let mut g = DataflowGraph::new();
            let rn = g.add_access(src);
            let m = g.add_map(MapScope {
                params: vec!["i".into()],
                ranges: vec![(SymExpr::int(0), SymExpr::sym("N"))],
                body,
            });
            let wn = g.add_access(dst);
            g.add_edge(rn, None, m, None, Memlet::all(src));
            g.add_edge(m, None, wn, None, Memlet::all(dst));
            g
        };
        let s0 = sdfg.add_state(State {
            name: "s0".into(),
            graph: mk("X", "T"),
        });
        let s1 = sdfg.add_state(State {
            name: "s1".into(),
            graph: mk("T", "Y"),
        });
        sdfg.cfg = ControlFlow::Sequence(vec![ControlFlow::State(s0), ControlFlow::State(s1)]);

        let mut hints = HashMap::new();
        hints.insert(s1, vec!["T".to_string()]);
        let mut ex = mk_session(&sdfg, &symbols(&[("N", 8)]))
            .unwrap()
            .with_free_hints(&hints);
        ex.set_input("X", Tensor::ones(&[8])).unwrap();
        let report = ex.run().unwrap();
        assert_eq!(ex.array("Y").unwrap().data()[0], 4.0);
        // Peak memory saw X + Y + T = 3 * 8 * 8 bytes; at the end T is freed.
        assert_eq!(report.peak_bytes, 3 * 64);
        assert_eq!(report.final_bytes, 2 * 64);
        assert!(ex.array("T").is_none());
    }

    #[test]
    fn stored_flag_condition() {
        let mut sdfg = Sdfg::new("flag");
        sdfg.add_array("F", ArrayDesc::input(vec![SymExpr::int(1)]))
            .unwrap();
        sdfg.add_array("Y", ArrayDesc::input(vec![SymExpr::int(1)]))
            .unwrap();
        let mut g = DataflowGraph::new();
        let t = g.add_tasklet(Tasklet::new("one", "o", E::c(1.0)));
        let w = g.add_access("Y");
        g.add_edge(
            t,
            Some("o"),
            w,
            None,
            Memlet::element("Y", vec![SymExpr::int(0)]),
        );
        let sid = sdfg.add_state(State {
            name: "s".into(),
            graph: g,
        });
        sdfg.cfg = ControlFlow::Branch(BranchRegion {
            cond: CondExpr::StoredFlag("F".into()),
            then_body: Box::new(ControlFlow::State(sid)),
            else_body: None,
        });
        let mut ex = mk_session(&sdfg, &HashMap::new()).unwrap();
        ex.set_input("F", Tensor::from_vec(vec![0.0], &[1]).unwrap())
            .unwrap();
        ex.run().unwrap();
        assert_eq!(ex.array("Y").unwrap().data()[0], 0.0);
        let mut ex = mk_session(&sdfg, &HashMap::new()).unwrap();
        ex.set_input("F", Tensor::from_vec(vec![1.0], &[1]).unwrap())
            .unwrap();
        ex.run().unwrap();
        assert_eq!(ex.array("Y").unwrap().data()[0], 1.0);
    }

    #[test]
    fn nested_loops_stencil_style() {
        // for t in 0..T: for i in 1..N-1: A[i] = (A[i-1] + A[i] + A[i+1]) / 3
        let mut sdfg = Sdfg::new("jacobi_inplace");
        sdfg.add_symbol("N");
        sdfg.add_symbol("T");
        sdfg.add_array("A", ArrayDesc::input(vec![SymExpr::sym("N")]))
            .unwrap();
        let mut g = DataflowGraph::new();
        let r = g.add_access("A");
        let t = g.add_tasklet(Tasklet::new(
            "avg",
            "o",
            E::input("l")
                .add(E::input("c"))
                .add(E::input("r"))
                .div(E::c(3.0)),
        ));
        let w = g.add_access("A");
        g.add_edge(
            r,
            None,
            t,
            Some("l"),
            Memlet::element("A", vec![SymExpr::sym("i").sub(&SymExpr::int(1))]),
        );
        g.add_edge(
            r,
            None,
            t,
            Some("c"),
            Memlet::element("A", vec![SymExpr::sym("i")]),
        );
        g.add_edge(
            r,
            None,
            t,
            Some("r"),
            Memlet::element("A", vec![SymExpr::sym("i").add_int(1)]),
        );
        g.add_edge(
            t,
            Some("o"),
            w,
            None,
            Memlet::element("A", vec![SymExpr::sym("i")]),
        );
        let sid = sdfg.add_state(State {
            name: "body".into(),
            graph: g,
        });
        sdfg.cfg = ControlFlow::Loop(LoopRegion {
            var: "ts".into(),
            start: SymExpr::int(0),
            end: SymExpr::sym("T"),
            step: SymExpr::int(1),
            body: Box::new(ControlFlow::Loop(LoopRegion {
                var: "i".into(),
                start: SymExpr::int(1),
                end: SymExpr::sym("N").sub(&SymExpr::int(1)),
                step: SymExpr::int(1),
                body: Box::new(ControlFlow::State(sid)),
            })),
        });
        let mut ex = mk_session(&sdfg, &symbols(&[("N", 6), ("T", 2)])).unwrap();
        ex.set_input(
            "A",
            Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0], &[6]).unwrap(),
        )
        .unwrap();
        let report = ex.run().unwrap();
        assert_eq!(report.state_executions, 8);
        // Reference: straightforward Rust implementation.
        let mut a = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        for _ in 0..2 {
            for i in 1..5 {
                a[i] = (a[i - 1] + a[i] + a[i + 1]) / 3.0;
            }
        }
        let got = ex.array("A").unwrap().data().to_vec();
        for (x, y) in got.iter().zip(a.iter()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn out_of_bounds_index_is_reported() {
        let mut sdfg = Sdfg::new("oob");
        sdfg.add_array("A", ArrayDesc::input(vec![SymExpr::int(2)]))
            .unwrap();
        sdfg.add_array("B", ArrayDesc::input(vec![SymExpr::int(2)]))
            .unwrap();
        let mut g = DataflowGraph::new();
        let r = g.add_access("A");
        let t = g.add_tasklet(Tasklet::new("id", "o", E::input("x")));
        let w = g.add_access("B");
        g.add_edge(
            r,
            None,
            t,
            Some("x"),
            Memlet::element("A", vec![SymExpr::int(5)]),
        );
        g.add_edge(
            t,
            Some("o"),
            w,
            None,
            Memlet::element("B", vec![SymExpr::int(0)]),
        );
        let sid = sdfg.add_state(State {
            name: "s".into(),
            graph: g,
        });
        sdfg.cfg = ControlFlow::State(sid);
        // The static verifier catches the constant out-of-bounds index at
        // compile time now, before the executor ever runs.
        assert!(matches!(
            mk_session(&sdfg, &HashMap::new()),
            Err(RuntimeError::InvalidSdfg { .. })
        ));
    }

    /// `Y = 2·T` over `N`, with `T` transient, in one state.
    fn seeded_transient_sdfg() -> Sdfg {
        let mut sdfg = Sdfg::new("seeded_transient");
        sdfg.add_symbol("N");
        sdfg.add_array("T", ArrayDesc::transient(vec![SymExpr::sym("N")]))
            .unwrap();
        sdfg.add_array("Y", ArrayDesc::input(vec![SymExpr::sym("N")]))
            .unwrap();
        let mut body = DataflowGraph::new();
        let r = body.add_access("T");
        let t = body.add_tasklet(Tasklet::new("x2", "o", E::input("x").mul(E::c(2.0))));
        let w = body.add_access("Y");
        body.add_edge(
            r,
            None,
            t,
            Some("x"),
            Memlet::element("T", vec![SymExpr::sym("i")]),
        );
        body.add_edge(
            t,
            Some("o"),
            w,
            None,
            Memlet::element("Y", vec![SymExpr::sym("i")]),
        );
        let mut g = DataflowGraph::new();
        let rn = g.add_access("T");
        let m = g.add_map(MapScope {
            params: vec!["i".into()],
            ranges: vec![(SymExpr::int(0), SymExpr::sym("N"))],
            body,
        });
        let wn = g.add_access("Y");
        g.add_edge(rn, None, m, None, Memlet::all("T"));
        g.add_edge(m, None, wn, None, Memlet::all("Y"));
        let sid = sdfg.add_state(State {
            name: "s".into(),
            graph: g,
        });
        sdfg.cfg = ControlFlow::State(sid);
        sdfg
    }

    /// A transient bound via `set_input` provides the initial contents (the
    /// legacy executor honoured such bindings) and must not be zero-filled
    /// by the per-run reset.
    #[test]
    fn provided_transient_keeps_its_contents() {
        let sdfg = seeded_transient_sdfg();
        let mut ex = mk_session(&sdfg, &symbols(&[("N", 3)])).unwrap();
        ex.set_input("T", Tensor::full(&[3], 3.0)).unwrap();
        ex.run().unwrap();
        assert_eq!(ex.array("Y").unwrap().data(), &[6.0, 6.0, 6.0]);
        // The binding persists across runs; clearing it restores lazy zeros.
        ex.run().unwrap();
        assert_eq!(ex.array("Y").unwrap().data(), &[6.0, 6.0, 6.0]);
        ex.clear_bindings();
        ex.run().unwrap();
        assert_eq!(ex.array("Y").unwrap().data(), &[0.0, 0.0, 0.0]);
    }

    /// Free hints naming non-transient arrays are ignored: releasing a
    /// bound input would silently zero it on the next run.
    #[test]
    fn free_hints_ignore_non_transient_arrays() {
        let sdfg = scale_sdfg(2.0);
        let mut hints = HashMap::new();
        hints.insert(0usize, vec!["X".to_string()]);
        let mut ex = mk_session(&sdfg, &symbols(&[("N", 4)]))
            .unwrap()
            .with_free_hints(&hints);
        ex.set_input("X", Tensor::full(&[4], 1.5)).unwrap();
        ex.run().unwrap();
        assert!(ex.array("X").is_some(), "input must survive the free hint");
        assert_eq!(ex.array("Y").unwrap().data(), &[3.0, 3.0, 3.0, 3.0]);
        ex.run().unwrap();
        assert_eq!(ex.array("Y").unwrap().data(), &[3.0, 3.0, 3.0, 3.0]);
    }

    /// Free hints skip a transient bound for the run, for the same reason:
    /// the binding persists, so the second run must see the bound values,
    /// not zeros.
    #[test]
    fn free_hints_skip_bound_transients() {
        let sdfg = seeded_transient_sdfg();
        let hints = HashMap::from([(0usize, vec!["T".to_string()])]);
        let mut ex = mk_session(&sdfg, &symbols(&[("N", 3)]))
            .unwrap()
            .with_free_hints(&hints);
        ex.set_input("T", Tensor::full(&[3], 1.5)).unwrap();
        for run in 1..=2 {
            ex.run().unwrap();
            assert_eq!(ex.array("Y").unwrap().data(), &[3.0; 3], "run {run}");
        }
        // Unbound, the hint releases `T` again, into the pool: a bind by
        // copy into the empty slot reuses its storage.
        let home = ex.array("T").unwrap().data().as_ptr();
        ex.clear_bindings();
        ex.run().unwrap();
        assert!(ex.array("T").is_none());
        ex.copy_input("T", &Tensor::full(&[3], 1.5)).unwrap();
        assert_eq!(ex.array("T").unwrap().data().as_ptr(), home);
        ex.run().unwrap();
        assert_eq!(ex.array("Y").unwrap().data(), &[3.0; 3]);
    }

    /// A taken array reads `None` until the next run, which starts it
    /// afresh: the rerun is bit-identical to one on a fresh session, for an
    /// output and for a bound input alike.
    #[test]
    fn take_array_moves_out_until_the_next_run() {
        let sdfg = scale_sdfg(2.0);
        let x = Tensor::from_vec(vec![0.5, -1.25, 3.0, 7.5], &[4]).unwrap();
        let mut fresh = mk_session(&sdfg, &symbols(&[("N", 4)])).unwrap();
        fresh.copy_input("X", &x).unwrap();
        fresh.run().unwrap();
        let reference = fresh.array("Y").unwrap().clone();

        let mut ex = mk_session(&sdfg, &symbols(&[("N", 4)])).unwrap();
        ex.copy_input("X", &x).unwrap();
        ex.run().unwrap();
        assert_eq!(ex.take_array("Y").unwrap(), reference);
        assert!(ex.array("Y").is_none() && ex.take_array("Y").is_none());
        assert_eq!(ex.take_array("nope"), None);
        ex.run().unwrap();
        assert_eq!(ex.array("Y").unwrap(), &reference);

        // Taking a bound input unbinds it: the next run reads zeros, as a
        // fresh session without the binding would, and a bind clones it back.
        assert_eq!(ex.take_array("X").unwrap(), x);
        assert!(ex.array("X").is_none());
        ex.run().unwrap();
        assert_eq!(ex.array("Y").unwrap().data(), &[0.0; 4]);
        ex.copy_input("X", &x).unwrap();
        ex.run().unwrap();
        assert_eq!(ex.array("Y").unwrap(), &reference);
    }

    /// The spares that came home to a session's inbox, by array id.
    fn inbox_ptrs(ex: &Session) -> Vec<Option<*const f64>> {
        let inbox = ex.st.inbox.lock().unwrap();
        inbox
            .iter()
            .map(|t| t.as_ref().map(|t| t.data().as_ptr()))
            .collect()
    }

    /// A taken array that is dropped comes home: the next run refills the
    /// slot with its storage instead of allocating, and that run is
    /// bit-identical.  So does a taken input.
    #[test]
    fn a_dropped_take_comes_home_to_its_slot() {
        let sdfg = scale_sdfg(2.0);
        let x = Tensor::from_vec(vec![0.5, -1.25, 3.0, 7.5], &[4]).unwrap();
        let mut ex = mk_session(&sdfg, &symbols(&[("N", 4)])).unwrap();
        let (xid, yid) = {
            let arrays = &ex.program().plan().arrays;
            (
                arrays.id("X").unwrap() as usize,
                arrays.id("Y").unwrap() as usize,
            )
        };
        ex.copy_input("X", &x).unwrap();
        ex.run().unwrap();
        let reference = ex.array("Y").unwrap().clone();

        let mut y = ex.take_array("Y").unwrap();
        let home = y.data().as_ptr();
        y.fill(f64::NAN);
        drop(y);
        assert_eq!(inbox_ptrs(&ex)[yid], Some(home));
        ex.run().unwrap();
        assert!(inbox_ptrs(&ex).iter().all(Option::is_none));
        assert!(ex.st.pool[yid].is_none(), "the refill took the spare");
        let y = ex.array("Y").unwrap();
        assert_eq!((y, y.data().as_ptr()), (&reference, home));

        // A taken input is unbound: the run refills it with zeros, from its
        // own storage.
        let taken = ex.take_array("X").unwrap();
        let home = taken.data().as_ptr();
        drop(taken);
        ex.run().unwrap();
        assert!(ex.st.pool[xid].is_none());
        let refilled = ex.array("X").unwrap();
        assert_eq!(
            (refilled.data(), refilled.data().as_ptr()),
            (&[0.0; 4][..], home)
        );
        ex.copy_input("X", &x).unwrap();
        assert_eq!(ex.array("X").unwrap().data().as_ptr(), home);
        ex.run().unwrap();
        assert_eq!(ex.array("Y").unwrap(), &reference);
    }

    /// Only the lent tensor itself goes home: a clone of it and its
    /// `into_vec` take nothing, and a slot holds one spare, so a second
    /// tensor arriving at a filled slot is freed.
    #[test]
    fn a_slot_takes_home_only_the_loan_and_one_spare() {
        let sdfg = scale_sdfg(2.0);
        let mut ex = mk_session(&sdfg, &symbols(&[("N", 4)])).unwrap();
        let yid = ex.program().plan().arrays.id("Y").unwrap() as usize;
        ex.copy_input("X", &Tensor::full(&[4], 1.0)).unwrap();
        ex.run().unwrap();

        let first = ex.take_array("Y").unwrap();
        drop(first.clone());
        assert!(inbox_ptrs(&ex).iter().all(Option::is_none));
        assert_eq!(first.clone().into_vec(), vec![2.0; 4]);
        assert_eq!(first.into_vec(), vec![2.0; 4]);
        assert!(inbox_ptrs(&ex).iter().all(Option::is_none));

        ex.run().unwrap();
        let first = ex.take_array("Y").unwrap();
        ex.run().unwrap();
        let second = ex.take_array("Y").unwrap();
        let home = first.data().as_ptr();
        drop(first);
        drop(second);
        assert_eq!(inbox_ptrs(&ex)[yid], Some(home));
        assert_eq!(inbox_ptrs(&ex).iter().flatten().count(), 1);
    }

    /// `copy_input` checks names and shapes like `set_input`, and a bind
    /// that fails leaves the next correct run bit-identical.
    #[test]
    fn copy_input_checks_like_set_input() {
        let sdfg = scale_sdfg(2.0);
        let mut ex = mk_session(&sdfg, &symbols(&[("N", 4)])).unwrap();
        let x = Tensor::full(&[4], 1.5);
        assert!(matches!(
            ex.copy_input("nope", &x),
            Err(RuntimeError::UnknownArray(_))
        ));
        ex.copy_input("X", &x).unwrap();
        ex.run().unwrap();
        assert!(matches!(
            ex.copy_input("X", &Tensor::full(&[5], 9.0)),
            Err(RuntimeError::ShapeMismatch { .. })
        ));
        assert_eq!(ex.array("X").unwrap(), &x, "a failed bind writes nothing");
        ex.copy_input("X", &Tensor::full(&[4], -2.0)).unwrap();
        ex.run().unwrap();
        assert_eq!(ex.array("Y").unwrap().data(), &[-4.0; 4]);
    }

    /// A tasklet with two assignments to the same output connector must
    /// write the LAST one (the map-based interpreter's insertion order).
    #[test]
    fn duplicate_output_connector_last_assignment_wins() {
        let mut sdfg = Sdfg::new("dup_conn");
        sdfg.add_array("Y", ArrayDesc::input(vec![SymExpr::int(1)]))
            .unwrap();
        let mut g = DataflowGraph::new();
        let t = g.add_tasklet(Tasklet::multi(
            "dup",
            vec![("o".into(), E::c(1.0)), ("o".into(), E::c(2.0))],
        ));
        let w = g.add_access("Y");
        g.add_edge(
            t,
            Some("o"),
            w,
            None,
            Memlet::element("Y", vec![SymExpr::int(0)]),
        );
        let sid = sdfg.add_state(State {
            name: "s".into(),
            graph: g,
        });
        sdfg.cfg = ControlFlow::State(sid);
        let mut ex = mk_session(&sdfg, &HashMap::new()).unwrap();
        ex.run().unwrap();
        assert_eq!(ex.array("Y").unwrap().data()[0], 2.0);
    }
}
