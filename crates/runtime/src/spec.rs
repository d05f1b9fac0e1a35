//! The specialized-kernel execution tier.
//!
//! Plan compilation ([`crate::plan`]) attaches one kind of native kernel, the
//! N-D affine kernel ([`crate::plan::AffineKernel`]), at two sites; this
//! module holds its one executor ([`RunState::exec_kernel`]).  A body of
//! access nodes plus one tasklet (any number of assignments and writes) with
//! affine memlets — identity, permuted, partial, constant and offset
//! indices, range starts, whole-array scalars — runs as a native nest in
//! which every array access advances by a precomputed constant step instead
//! of re-walking the plan graph and re-evaluating compiled index expressions
//! per point.
//!
//! * **Map site**: a map whose dependence verdict allows parallel execution
//!   runs over its rectangular domain in the VM's odometer order.
//! * **Loop site**: a control-flow loop with step `1` or `-1` over a single
//!   state — elementwise bodies, fixed-radius stencils, reduction/contraction
//!   bodies, and the reversed (`adj_*`) loops of a gradient program — is the
//!   same nest with one variable that walks `start, start ± 1, …`, i.e. the
//!   loop itself in loop order.  A *perfect rectangular nest* of such loops
//!   (each the sole content of its parent's body, no bound referencing an
//!   iterator of the nest) is the same nest with one variable per loop,
//!   outermost first: one dispatch runs the whole nest, last variable
//!   fastest, which is the order the VM walks it in.  Every level of the
//!   nest holds the nest's kernel ([`crate::plan::LoopKernel`]): when the
//!   dispatch at the outermost level is declined the VM walks that loop and
//!   the next level dispatches with the outer iterators pinned at their
//!   current values, down to the innermost loop's single row — so errors
//!   and partial writes come out of the same fallback chain.
//!
//! Exactness is the design invariant:
//!
//! * **Validate first, mutate second.**  Every precondition — bound
//!   iteration symbols, present inputs, in-range accesses across the whole
//!   iteration space (both extreme corners of the box, whichever way each
//!   variable walks), scalar-access container sizes, trip counts and their
//!   product within `usize` — is checked before any allocation or write.  Any failure returns `Ok(false)` and the caller
//!   falls back to the register VM, which reproduces the exact semantics of
//!   the failing case, including partial execution followed by an error.
//! * **Bit-identical arithmetic.**  The kernel evaluates the very same
//!   [`dace_sdfg::CompiledExpr`] the VM would (or its recognized
//!   [`dace_sdfg::MicroPattern`], whose evaluation applies the same
//!   operations in the same order), with reads loaded into the same slots in
//!   the same order, all reads of a point before its writes and the writes
//!   in edge order — so results match the VM bit for bit, a property the
//!   proptests in `tests/spec.rs` pin down.
//! * **Aliasing-aware.**  Reads of a written array go through the buffer
//!   being mutated.  The loop site thereby preserves Gauss–Seidel-style
//!   read-after-write order in either direction and across the rows of a
//!   nest, admitted only when [`dace_sdfg::deps::alias_decidable`]
//!   understands the write/read offset along every iterator (see
//!   `docs/verification.md`); the map site admits such reads only at the
//!   very index that is written.  Anything else stays on the VM.
//!
//! The dispatch rule is the same for both sites: run the attached kernel if
//! its per-dispatch validation passes (a few corner checks per access),
//! otherwise the sequential register VM — from the first opportunity on.
//! Triangular and imperfect nests still dispatch once per row, hundreds of
//! times per gradient on rows of tens of points, so per-dispatch work is
//! kept flat: work vectors (the iteration variables included) live in
//! [`Scratch`], written-array and slot lists are fixed at lowering.
//! [`SpecMode::ForceOff`] pins pure register-VM execution, the reference the
//! bit-identity tests compare against, mirroring [`crate::MapPath`].

use dace_tensor::Tensor;

use crate::error::RuntimeResult;
use crate::executor::{RunState, Scratch};
use crate::plan::{AffineKernel, ExecPlan, KernelAccess, KernelExpr, LoopKernel, SymFile};

/// Specialized-kernel dispatch control, a test switch in the style of
/// [`crate::MapPath`] (`Session::force_specialization`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpecMode {
    /// Dispatch every attached kernel whose validation passes.
    #[default]
    Auto,
    /// Never dispatch specialized kernels (pure register-VM execution).
    ForceOff,
}

/// Iterations of `lo .. hi`, the one extent computation of both attachment
/// sites.  Bounds are user-controlled symbols: `None` means `hi - lo` wraps
/// `i64` (a map reports [`crate::RuntimeError::MapDomainOverflow`], a loop
/// stays on the VM).
#[inline]
pub(crate) fn extent(lo: i64, hi: i64) -> Option<usize> {
    hi.checked_sub(lo).map(|n| n.max(0) as usize)
}

/// One iteration variable of a dispatch: it takes the `trip` values `start,
/// start + dir, …` with `dir` either `1` or `-1`.  A map parameter ascends;
/// a loop iterator walks in the direction of its step.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Axis {
    pub start: i64,
    pub trip: usize,
    pub dir: i64,
}

impl Axis {
    /// The walk of a control-flow loop from `start` to `end` (exclusive) by
    /// `step`: `None` — the VM runs the loop — unless the step is `1` or
    /// `-1`, at least one iteration runs and the trip count fits `i64`.
    fn of_loop(start: i64, end: i64, step: i64) -> Option<Axis> {
        let trip = match step {
            1 => extent(start, end)?,
            -1 => extent(end, start)?,
            _ => return None,
        };
        (trip > 0).then_some(Axis {
            start,
            trip,
            dir: step,
        })
    }

    /// The value of the variable at count `c < trip`.  In range: the last
    /// value lies between the loop's `start` and `end`, both `i64`.
    #[inline]
    fn at(&self, c: usize) -> i64 {
        self.start + self.dir * c as i64
    }
}

/// Where a per-point read loads from.
enum SrcBuf<'a> {
    /// A slab tensor the kernel does not write.
    Slab(&'a [f64]),
    /// The `n`-th written tensor, taken out of the slab for the dispatch
    /// (reads observe the writes of earlier points).
    Out(usize),
}

/// A per-point read with its running flat offset and innermost step.
struct KernelSrc<'a> {
    slot: usize,
    off: i64,
    step: i64,
    buf: SrcBuf<'a>,
}

/// A write with its running flat offset and innermost step.
#[derive(Clone, Copy)]
pub(crate) struct KernelDst {
    expr: usize,
    off: i64,
    step: i64,
    out: usize,
    accumulate: bool,
}

/// Flatten one access over the box its iteration variables `axes` (every
/// trip at least 1) span: evaluate the loop-invariant index parts,
/// bounds-check the extreme corners per dimension — the first and the last
/// value of each variable, whichever way it walks, which covers every point,
/// indices being monotone in each variable — and fold the per-dimension
/// strides and the walking directions into `flat = [offset at the starts,
/// step per variable]`.  `None` means the VM must handle this dispatch.
fn flatten_access(
    plan: &ExecPlan,
    syms: &SymFile,
    i_regs: &mut Vec<i64>,
    acc: &KernelAccess,
    axes: &[Axis],
    flat: &mut [i64],
) -> Option<()> {
    let layout = plan.arrays.layout(acc.array).ok()?;
    flat.fill(0);
    if acc.rest.is_empty() {
        // Whole-array scalar access: one fixed element of a length-1
        // container (the VM rejects any other length).
        return (layout.dims.iter().product::<usize>() == 1).then_some(());
    }
    let (base, steps) = flat.split_first_mut()?;
    for d in 0..acc.rest.len() {
        let rest = acc.rest[d].eval(syms, &plan.syms.names, i_regs).ok()?;
        let stride = layout.strides[d] as i64;
        let (mut at_starts, mut lo, mut hi) = (rest, rest, rest);
        for ((step, &c), axis) in steps.iter_mut().zip(&acc.coeff[d]).zip(axes) {
            let (first, last) = (axis.start, axis.at(axis.trip - 1));
            let (at_first, at_last) = (c.checked_mul(first)?, c.checked_mul(last)?);
            at_starts = at_starts.checked_add(at_first)?;
            lo = lo.checked_add(at_first.min(at_last))?;
            hi = hi.checked_add(at_first.max(at_last))?;
            *step = step.checked_add(c.checked_mul(stride)?.checked_mul(axis.dir)?)?;
        }
        if lo < 0 || hi >= layout.dims[d] as i64 {
            return None;
        }
        *base = base.checked_add(at_starts.checked_mul(stride)?)?;
    }
    Some(())
}

impl RunState {
    /// Run the kernel of the nest `k` from its level `level`, a loop whose
    /// bounds evaluated to `own = [start, end, step]`: one dispatch over the
    /// levels above pinned at their current values, the loop's own walk and
    /// the walks of the levels below, their bounds evaluated here.  Returns
    /// the number of points run, or `None` — nothing allocated or written —
    /// when the VM must walk the loop: a per-state free hint (it fires per
    /// state execution), a step other than `±1`, an empty level (already
    /// free on the VM), a trip count or a product of trip counts that wraps,
    /// a bound the VM will fail to evaluate, or a declined dispatch.
    pub(crate) fn exec_loop_kernel(
        &mut self,
        plan: &ExecPlan,
        k: &LoopKernel,
        level: usize,
        own: [i64; 3],
    ) -> RuntimeResult<Option<u64>> {
        if !self.free_hints[k.state].is_empty() {
            return Ok(None);
        }
        let mut axes = std::mem::take(&mut self.scratch.axes);
        axes.clear();
        let points = self.loop_axes(plan, k, level, own, &mut axes);
        let ran = match points {
            Some(_) => self.exec_kernel(plan, &k.kernel, &axes),
            None => Ok(false),
        };
        self.scratch.axes = axes;
        Ok(if ran? { points.map(|n| n as u64) } else { None })
    }

    /// The iteration variables of one loop-site dispatch, and their number
    /// of points.
    fn loop_axes(
        &mut self,
        plan: &ExecPlan,
        k: &LoopKernel,
        level: usize,
        own: [i64; 3],
        axes: &mut Vec<Axis>,
    ) -> Option<usize> {
        let (above, below) = k.levels.split_at(level);
        for &(slot, _) in above {
            let defined = self.syms.defined[slot as usize];
            axes.push(defined.then_some(Axis {
                start: self.syms.vals[slot as usize],
                trip: 1,
                dir: 1,
            })?);
        }
        let mut points = 1usize;
        for (depth, (_, bounds)) in below.iter().enumerate() {
            let [start, end, step] = match depth {
                0 => own,
                _ => {
                    let [start, end, step] = bounds;
                    [
                        self.idx(plan, start).ok()?,
                        self.idx(plan, end).ok()?,
                        self.idx(plan, step).ok()?,
                    ]
                }
            };
            let axis = Axis::of_loop(start, end, step)?;
            points = points.checked_mul(axis.trip)?;
            axes.push(axis);
        }
        Some(points)
    }

    /// Execute the N-D affine kernel `k` over the rectangular domain its
    /// iteration variables `axes` (every trip at least 1) span: the
    /// parameters of a map, or the iterators of a loop nest, each walking in
    /// its own direction.  Each access is flattened once against its layout;
    /// the nest then walks the domain in the VM's order — last variable
    /// fastest, on a flat loop — so a loop-site domain is the loop nest
    /// itself, in loop order.  Returns `Ok(false)` — having allocated and
    /// written nothing — when any precondition fails and the VM must run
    /// instead.
    pub(crate) fn exec_kernel(
        &mut self,
        plan: &ExecPlan,
        k: &AffineKernel,
        axes: &[Axis],
    ) -> RuntimeResult<bool> {
        // A parameterless map is a single VM tasklet evaluation.
        let Some((&walk, outer)) = axes.split_last() else {
            return Ok(false);
        };
        let inner = outer.len();
        // Per access: the offset at the starts, then one step per variable.
        let per_access = axes.len() + 1;
        let read_flats = k.reads.len() * per_access;
        let access_flats = read_flats + k.writes.len() * per_access;

        // -- Validation (no mutation past this comment until it all holds) --
        let unbound = |&(_, sym): &(u32, u32)| !self.syms.defined[sym as usize];
        // A missing non-transient input must surface as the VM's error.
        let missing =
            |&a: &u32| self.slab[a as usize].is_none() && !plan.arrays.transient[a as usize];
        if k.iter_loads.iter().any(unbound) || k.arrays.iter().any(missing) {
            return Ok(false);
        }
        // The flattened accesses, then the odometer of the outer variables.
        let (syms, slab, scratch) = (&self.syms, &self.slab, &mut self.scratch);
        scratch.flat.clear();
        scratch.flat.resize(access_flats + inner, 0);
        let accesses = k
            .reads
            .iter()
            .map(|r| &r.access)
            .chain(k.writes.iter().map(|w| &w.access));
        for (acc, flat) in accesses.zip(scratch.flat.chunks_exact_mut(per_access)) {
            // A memlet of an array the body has no access node for surfaces
            // as the VM's error.
            if slab[acc.array as usize].is_none() && !k.arrays.contains(&acc.array) {
                return Ok(false);
            }
            if flatten_access(plan, syms, &mut scratch.i_regs, acc, axes, flat).is_none() {
                return Ok(false);
            }
        }

        // -- Execution --
        for &a in &k.arrays {
            self.ensure_allocated(plan, a)?;
        }
        let RunState {
            slab,
            syms,
            scratch,
            ..
        } = self;
        let Scratch {
            slots,
            f_regs,
            outs: vals,
            flat,
            dsts,
            out_ts,
            ..
        } = scratch;
        slots.clear();
        slots.resize(k.n_slots, 0.0);
        for &(slot, sym) in &k.iter_loads {
            slots[slot as usize] = syms.vals[sym as usize] as f64;
        }
        // Slot-free assignments evaluate here, once; the rest per point.
        vals.clear();
        for e in &k.exprs {
            vals.push(if e.constant {
                e.expr.eval(slots, f_regs)
            } else {
                0.0
            });
        }
        // Take the written tensors out of the slab so that every other read
        // borrows it directly; reads of a written array go through `out_ts`.
        // Both `expect`s: validation left every accessed array either in
        // the slab already or in `k.arrays`, which `ensure_allocated` has
        // just filled; `k.outs` is deduplicated, so each is taken once, and
        // `data` only serves reads of arrays that are not in `k.outs`.
        out_ts.extend(
            k.outs
                .iter()
                .map(|&a| slab[a as usize].take().expect("allocated above")),
        );
        let (flat, counters) = flat.split_at_mut(access_flats);
        let (read_flats, write_flats) = flat.split_at(read_flats);
        let data = |a: u32| slab[a as usize].as_ref().expect("allocated above").data();
        let mut srcs: Vec<KernelSrc<'_>> = Vec::with_capacity(k.reads.len());
        for (r, flat) in k.reads.iter().zip(read_flats.chunks_exact(per_access)) {
            if !r.row_invariant {
                srcs.push(KernelSrc {
                    slot: r.slot as usize,
                    off: 0,
                    step: flat[1 + inner],
                    buf: match r.out {
                        Some(o) => SrcBuf::Out(o as usize),
                        None => SrcBuf::Slab(data(r.access.array)),
                    },
                });
            }
        }
        dsts.clear();
        for (w, flat) in k.writes.iter().zip(write_flats.chunks_exact(per_access)) {
            dsts.push(KernelDst {
                expr: w.expr as usize,
                off: 0,
                step: flat[1 + inner],
                out: w.out as usize,
                accumulate: w.accumulate,
            });
        }
        // The caller bounded the product of all trips.
        for row in 0..outer.iter().map(|a| a.trip).product::<usize>() {
            // The counts of the outer variables in this row, last fastest.
            let mut rest = row;
            for (c, a) in counters.iter_mut().zip(outer).rev() {
                (*c, rest) = ((rest % a.trip) as i64, rest / a.trip);
            }
            let at_row = |flat: &[i64]| {
                let steps = counters.iter().zip(&flat[1..]);
                flat[0] + steps.map(|(&c, &step)| c * step).sum::<i64>()
            };
            // Row start: every access's offset at this outer point (a
            // row-invariant read loads here, once), and the outer variables
            // the assignments read as values.
            let mut per_point = srcs.iter_mut();
            for (r, flat) in k.reads.iter().zip(read_flats.chunks_exact(per_access)) {
                if r.row_invariant {
                    slots[r.slot as usize] = data(r.access.array)[at_row(flat) as usize];
                } else {
                    // `srcs` holds one entry per such read, in this order.
                    per_point.next().expect("built above").off = at_row(flat);
                }
            }
            for (d, flat) in dsts.iter_mut().zip(write_flats.chunks_exact(per_access)) {
                d.off = at_row(flat);
            }
            for &(slot, v) in &k.outer_slots {
                slots[slot as usize] = outer[v].at(counters[v] as usize) as f64;
            }
            if let ([e], [d]) = (&k.exprs[..], &dsts[..]) {
                // One assignment, one write: the flat loop monomorphized
                // over the evaluator.
                let out = out_ts[d.out].data_mut();
                macro_rules! row {
                    ($eval:expr) => {
                        run_single_row(walk, &mut srcs, &k.inner_slots, slots, out, *d, $eval)
                    };
                }
                match (&e.micro, e.constant) {
                    (_, true) => row!(|_| vals[0]),
                    (Some(m), _) => row!(|slots| m.eval(slots)),
                    (None, _) => row!(|slots| e.expr.eval(slots, f_regs)),
                }
            } else {
                run_multi_row(
                    walk,
                    &mut srcs,
                    dsts,
                    &k.inner_slots,
                    slots,
                    vals,
                    out_ts,
                    &k.exprs,
                    f_regs,
                );
            }
        }
        drop(srcs);
        for (&a, t) in k.outs.iter().zip(out_ts.drain(..)) {
            slab[a as usize] = Some(t);
        }
        Ok(true)
    }
}

/// One row of a single-assignment, single-write kernel, monomorphized over
/// the expression evaluator: load each per-point read at its running offset
/// (in edge order, so duplicate-slot semantics match the VM), refresh the
/// innermost-variable slots, evaluate, write.
#[allow(clippy::too_many_arguments)]
#[inline]
fn run_single_row(
    walk: Axis,
    srcs: &mut [KernelSrc<'_>],
    inner_slots: &[u32],
    slots: &mut [f64],
    out: &mut [f64],
    mut dst: KernelDst,
    mut eval: impl FnMut(&[f64]) -> f64,
) {
    for i in 0..walk.trip {
        for s in srcs.iter_mut() {
            slots[s.slot] = match s.buf {
                SrcBuf::Slab(d) => d[s.off as usize],
                SrcBuf::Out(_) => out[s.off as usize],
            };
            s.off += s.step;
        }
        if !inner_slots.is_empty() {
            let iv = walk.at(i) as f64;
            for &sl in inner_slots {
                slots[sl as usize] = iv;
            }
        }
        let v = eval(slots);
        if dst.accumulate {
            out[dst.off as usize] += v;
        } else {
            out[dst.off as usize] = v;
        }
        dst.off += dst.step;
    }
}

/// One row of a multi-assignment kernel: per point, load each per-point
/// read at its running offset (in edge order), refresh the
/// innermost-variable slots, evaluate every slot-reading assignment, then
/// apply the writes in edge order.
#[allow(clippy::too_many_arguments)]
#[inline]
fn run_multi_row(
    walk: Axis,
    srcs: &mut [KernelSrc<'_>],
    dsts: &mut [KernelDst],
    inner_slots: &[u32],
    slots: &mut [f64],
    vals: &mut [f64],
    outs: &mut [Tensor],
    exprs: &[KernelExpr],
    f_regs: &mut Vec<f64>,
) {
    for i in 0..walk.trip {
        for s in srcs.iter_mut() {
            slots[s.slot] = match s.buf {
                SrcBuf::Slab(d) => d[s.off as usize],
                SrcBuf::Out(o) => outs[o].data()[s.off as usize],
            };
            s.off += s.step;
        }
        if !inner_slots.is_empty() {
            let iv = walk.at(i) as f64;
            for &sl in inner_slots {
                slots[sl as usize] = iv;
            }
        }
        for (e, v) in exprs.iter().zip(vals.iter_mut()) {
            if !e.constant {
                *v = match &e.micro {
                    Some(m) => m.eval(slots),
                    None => e.expr.eval(slots, f_regs),
                };
            }
        }
        for d in dsts.iter_mut() {
            let target = &mut outs[d.out].data_mut()[d.off as usize];
            if d.accumulate {
                *target += vals[d.expr];
            } else {
                *target = vals[d.expr];
            }
            d.off += d.step;
        }
    }
}
