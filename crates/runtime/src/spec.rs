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
//! * **Map site**: a map runs over its rectangular domain in the VM's
//!   odometer order.
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
//! A dispatch walks its domain row by row — a row is the walk of the last
//! (innermost) variable with the outer ones fixed — and a row runs in one of
//! two modes, selected from what the code observes:
//!
//! * **In strips** of up to [`STRIP`] points: every per-point read is
//!   gathered into a column of a column-major slot file (slot `s` of point
//!   `j` at `s * STRIP + j`), every assignment is evaluated instruction by
//!   instruction over the columns ([`dace_sdfg::CompiledExpr::eval_strip`]:
//!   the operator is matched once per instruction per strip and the
//!   arithmetic loops vectorize), then the writes are applied.  Legal when
//!   no point of the row can read what another point of it writes: lowering
//!   requires every read of a written array to have exactly the subset of
//!   every write to that array ([`RowMode`]), and the dispatch requires such
//!   an access to move along the row (flat step `≠ 0`).
//! * **Point by point**, all reads of a point before its writes: the rows
//!   that carry a value from point to point (a Gauss–Seidel sweep, an
//!   adjoint that reads the gradient it scatters into, a scalar that is
//!   read and written), and rows of fewer than `MIN_STRIP_ROW` points, which
//!   do not repay a strip's set-up.
//!
//! Exactness is the design invariant:
//!
//! * **Validate first, mutate second.**  Every precondition — bound
//!   iteration symbols, present inputs, in-range accesses across the whole
//!   iteration space (both extreme corners of the box, whichever way each
//!   variable walks), scalar-access container sizes, trip counts and their
//!   product within `usize` — is checked before any allocation or write.
//!   Any failure returns `Ok(false)` and the caller falls back to the
//!   register VM, which reproduces the exact semantics of the failing case,
//!   including partial execution followed by an error.
//! * **Bit-identical arithmetic.**  The kernel evaluates the very same
//!   [`dace_sdfg::CompiledExpr`] the VM would — per point, over a strip (per
//!   point the same operations in the same order: Rust neither reassociates
//!   nor contracts floating-point arithmetic, `sin` / `cos` over a strip
//!   give the bits of their scalar forms ([`dace_sdfg::trig`]), and the
//!   other transcendental operators stay the scalar library calls) or as
//!   its recognized [`dace_sdfg::MicroPattern`] — with reads loaded into the same slots in
//!   the same order and all reads of a point before its writes.  Writes land
//!   in the per-point order wherever the order can be observed: neighbouring
//!   points of an adjoint stencil accumulate into one element, and the order
//!   of a floating-point sum is part of the result.  A per-point row applies
//!   them point-major, in edge order within a point; a strip sweeps each
//!   write's column on its own, points ascending, the sweeps that share an
//!   array in the one order that is the per-point order at every element
//!   (`run_strip_row`), and falls back to the point-major walk where no
//!   such order exists ([`RowMode::StripsUnorderedWrites`]).  So results
//!   match the VM bit for bit, a property the tests in `tests/spec.rs` pin
//!   down at both presets.
//! * **Aliasing-aware.**  Every access goes through the tensors the
//!   dispatch took out of the slab, so a read of a written array observes
//!   the writes of earlier points.  Either site thereby preserves
//!   Gauss–Seidel-style read-after-write order in either direction and
//!   across the rows of a nest — and a map that races under concurrent
//!   execution (a fixed-element read-modify-write) keeps the VM's bits —,
//!   admitted only when [`dace_sdfg::deps::alias_decidable`] understands
//!   the write/read offset along every variable (see
//!   `docs/verification.md`).  Anything else stays on the VM.
//!
//! The dispatch rule is the same for both sites: run the attached kernel if
//! its per-dispatch validation passes (a few corner checks per access),
//! otherwise the sequential register VM — from the first opportunity on.
//! Triangular and imperfect nests still dispatch once per row, hundreds of
//! times per gradient on rows of tens of points, so per-dispatch work is
//! kept flat: every work vector (the iteration variables, the flattened
//! accesses, the read and write cursors, the columns) lives in [`Scratch`]
//! and only ever grows, buffer and slot lists are fixed at lowering.
//! [`SpecMode::ForceOff`] pins pure register-VM execution, the reference the
//! bit-identity tests compare against, mirroring [`crate::MapPath`].

use std::cmp::Reverse;

use dace_sdfg::STRIP;
use dace_tensor::Tensor;

use crate::error::RuntimeResult;
use crate::executor::{RunState, Scratch};
use crate::plan::{AffineKernel, ExecPlan, KernelAccess, KernelRead, LoopKernel, RowMode, SymFile};

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

/// A per-point read of the current row: its tensor among those the dispatch
/// took out of the slab, its flat offset (at the row's first point; running,
/// in a per-point row) and its step along the row.
#[derive(Clone, Copy)]
pub(crate) struct KernelSrc {
    slot: usize,
    buf: usize,
    off: i64,
    step: i64,
}

/// A write, likewise.
#[derive(Clone, Copy)]
pub(crate) struct KernelDst {
    expr: usize,
    buf: usize,
    off: i64,
    step: i64,
    accumulate: bool,
}

/// Rows of fewer points than this run point by point even where strips are
/// legal: a strip pays its gather, one pass per instruction and its write
/// sweep as loops of their own, which a handful of points does not repay.
/// Measured on the two workloads with short rows (pinned best of 400
/// `npbench` gradients at the bench preset, constant 1 / 2 / 4 / 8 / 16):
/// conv2d, rows of 3 points, 0.185 / 0.187 / 0.107 / 0.107 / 0.109 ms; syrk,
/// triangular rows of 1–16 points, 0.077 / 0.075 / 0.076 / 0.085 / 0.134 ms
/// (syr2k alike) — the crossover lies between 3 and 4 points.  It depends on
/// the body: at the test preset (rows of 5–7 points, `Session::run` of a
/// gradient program) bodies that are one `MicroPattern` lose ≈ 0.5 µs in
/// strips (atax 3.4 → 3.9 µs) where general bodies gain 0.7–2 µs (gemm
/// 5.2 → 4.5, syr2k 15.6 → 13.5).
const MIN_STRIP_ROW: usize = 4;

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
    acc: KernelAccess,
    axes: &[Axis],
    flat: &mut [i64],
) -> Option<()> {
    let layout = plan.arrays.layout(acc.array).ok()?;
    let (dims, strides) = (layout.dims(), layout.strides());
    flat.fill(0);
    if acc.rank == 0 {
        // Whole-array scalar access: one fixed element of a length-1
        // container (the VM rejects any other length).
        return (dims.iter().product::<usize>() == 1).then_some(());
    }
    let (base, steps) = flat.split_first_mut()?;
    for d in 0..acc.rank as usize {
        // One coefficient per iteration variable, and one axis.
        let coeff = &plan.coeffs[acc.coeff_at as usize + d * axes.len()..][..axes.len()];
        let rest = &plan.idx[acc.rest_at as usize + d];
        let rest = rest.eval(syms, &plan.syms.names, i_regs).ok()?;
        let stride = strides[d] as i64;
        let (mut at_starts, mut lo, mut hi) = (rest, rest, rest);
        for ((step, &c), axis) in steps.iter_mut().zip(coeff).zip(axes) {
            let (first, last) = (axis.start, axis.at(axis.trip - 1));
            let (at_first, at_last) = (c.checked_mul(first)?, c.checked_mul(last)?);
            at_starts = at_starts.checked_add(at_first)?;
            lo = lo.checked_add(at_first.min(at_last))?;
            hi = hi.checked_add(at_first.max(at_last))?;
            *step = step.checked_add(c.checked_mul(stride)?.checked_mul(axis.dir)?)?;
        }
        if lo < 0 || hi >= dims[d] as i64 {
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
    /// fastest, row by row, each row in strips or point by point (see the
    /// module docs) — so a loop-site domain is the loop nest itself, in loop
    /// order.  Returns `Ok(false)` — having allocated and written nothing —
    /// when any precondition fails and the VM must run instead.
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
            .map(|r| r.access)
            .chain(k.writes.iter().map(|w| w.access));
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
            cols,
            f_regs,
            flat,
            srcs,
            dsts,
            sweeps,
            ts,
            ..
        } = scratch;
        let (flat, counters) = flat.split_at_mut(access_flats);
        let (read_flats, write_flats) = flat.split_at(read_flats);
        // The row mode: strips where lowering found no read carried along
        // the row, unless the row is short or a read of a written array
        // stays on one element, which every point of the row then reads and
        // writes in turn.
        let moves =
            |(r, flat): (&KernelRead, &[i64])| r.buf as usize >= k.n_outs || flat[1 + inner] != 0;
        let strips = k.rows != RowMode::PerPointCarriedRead
            && walk.trip >= MIN_STRIP_ROW
            && (k.reads.iter().zip(read_flats.chunks_exact(per_access))).all(moves);
        // One column per slot, then one per assignment: `height` points
        // tall, the first `width` of them in use.  A per-point row is the
        // strip of height one.  Never cleared: every slot is a read's, an
        // iteration variable's or a symbol's, and all of those are filled
        // below before an assignment reads them.
        let height = if strips { STRIP } else { 1 };
        let width = walk.trip.min(height);
        let columns = (k.n_slots + k.exprs.len()) * height;
        if cols.len() < columns {
            cols.resize(columns, 0.0);
        }
        let (slots, vals) = cols[..columns].split_at_mut(k.n_slots * height);
        let column = |slot: u32| slot as usize * height..slot as usize * height + width;
        for &(slot, sym) in &k.iter_loads {
            slots[column(slot)].fill(syms.vals[sym as usize] as f64);
        }
        // Slot-free assignments evaluate here, once; the rest per point or
        // per strip.
        for (e, vals) in k.exprs.iter().zip(vals.chunks_exact_mut(height)) {
            if e.constant {
                vals[..width].fill(e.expr.eval(&[], f_regs));
            }
        }
        // Take the accessed tensors out of the slab: every access indexes
        // `ts`, and a read of a written array observes the writes of earlier
        // points.  The `expect`: validation left every accessed array either
        // in the slab already or in `k.arrays`, which `ensure_allocated` has
        // just filled; `k.bufs` is deduplicated, so each is taken once.
        ts.extend(
            k.bufs
                .iter()
                .map(|&a| slab[a as usize].take().expect("allocated above")),
        );
        dsts.clear();
        for (w, flat) in k.writes.iter().zip(write_flats.chunks_exact(per_access)) {
            dsts.push(KernelDst {
                expr: w.expr as usize,
                buf: w.buf as usize,
                off: 0,
                step: flat[1 + inner],
                accumulate: w.accumulate,
            });
        }
        // The caller bounded the product of all trips; `counters` holds the
        // counts of the outer variables in the current row, zero in the
        // first one.
        for _ in 0..outer.iter().map(|a| a.trip).product::<usize>() {
            let at_row = |flat: &[i64]| {
                let steps = counters.iter().zip(&flat[1..]);
                flat[0] + steps.map(|(&c, &step)| c * step).sum::<i64>()
            };
            // Row start: every access's offset at this outer point (a
            // row-invariant read loads here, once), and the outer variables
            // the assignments read as values.
            srcs.clear();
            for (r, flat) in k.reads.iter().zip(read_flats.chunks_exact(per_access)) {
                let (buf, off) = (r.buf as usize, at_row(flat));
                if r.row_invariant {
                    slots[column(r.slot)].fill(ts[buf].data()[off as usize]);
                } else {
                    srcs.push(KernelSrc {
                        slot: r.slot as usize,
                        buf,
                        off,
                        step: flat[1 + inner],
                    });
                }
            }
            for (d, flat) in dsts.iter_mut().zip(write_flats.chunks_exact(per_access)) {
                d.off = at_row(flat);
            }
            for &(slot, v) in &k.outer_slots {
                slots[column(slot)].fill(outer[v].at(counters[v] as usize) as f64);
            }
            match (&k.exprs[..], &dsts[..]) {
                _ if strips => run_strip_row(walk, k, srcs, dsts, sweeps, ts, slots, vals, f_regs),
                // One assignment, one write, no instruction list to walk:
                // the point loop monomorphized over the evaluator.
                ([e], [d]) if e.constant || e.micro.is_some() => {
                    macro_rules! row {
                        ($eval:expr) => {
                            run_single_row(walk, srcs, &k.inner_slots, slots, ts, *d, $eval)
                        };
                    }
                    // A pattern starts at a slot, so only a constant has none.
                    match &e.micro {
                        Some(m) => row!(|slots| m.eval(slots)),
                        None => row!(|_| vals[0]),
                    }
                }
                _ => run_point_row(walk, k, srcs, dsts, ts, slots, vals, f_regs),
            }
            // The next row, last variable fastest.
            for (c, a) in counters.iter_mut().zip(outer).rev() {
                *c += 1;
                if (*c as usize) < a.trip {
                    break;
                }
                *c = 0;
            }
        }
        for (&a, t) in k.bufs.iter().zip(ts.drain(..)) {
            slab[a as usize] = Some(t);
        }
        Ok(true)
    }
}

/// One row in strips of up to [`STRIP`] points.  Per strip: gather every
/// per-point read into its slot column in edge order (so duplicate-slot
/// semantics match the VM: the last edge wins), fill the columns of the
/// innermost variable, evaluate every slot-reading assignment instruction by
/// instruction over the columns, then apply the writes, each as one sweep
/// of its column, points ascending.
///
/// Writes that share an array may meet in one element — neighbouring points
/// of an adjoint stencil accumulate into it — and the order of a
/// floating-point sum is part of the result, so the sweeps run in the order
/// that is the per-point order at every element.  Under [`RowMode::Strips`]
/// all writes to one array move by one non-zero flat `step` along the row:
/// each touches an element at most once, element `e` takes write `w` from
/// point `(e - off_w) / step`, and ascending points at every element are
/// descending `off_w / step` over the sweeps, equal offsets being one point
/// and so in edge order.  Strips run in point order, so an element two
/// strips reach sees the earlier points first.  The offsets move with the
/// row, so each row sorts its writes anew (into `sweeps`, by place among
/// `dsts`); writes to different arrays compare without consequence.  What
/// the rule cannot order ([`RowMode::StripsUnorderedWrites`]) is applied
/// point-major, in edge order within a point.
#[allow(clippy::too_many_arguments)]
fn run_strip_row(
    walk: Axis,
    k: &AffineKernel,
    srcs: &[KernelSrc],
    dsts: &[KernelDst],
    sweeps: &mut Vec<usize>,
    ts: &mut [Tensor],
    slots: &mut [f64],
    vals: &mut [f64],
    f_regs: &mut Vec<f64>,
) {
    let ordered = k.rows == RowMode::Strips;
    sweeps.clear();
    if ordered {
        sweeps.extend(0..dsts.len());
        sweeps.sort_unstable_by_key(|&w| (Reverse(dsts[w].off * dsts[w].step.signum()), w));
    }
    for first in (0..walk.trip).step_by(STRIP) {
        let n = (walk.trip - first).min(STRIP);
        let at = |off: i64, step: i64| off + first as i64 * step;
        for s in srcs {
            let col = &mut slots[s.slot * STRIP..][..n];
            gather(col, ts[s.buf].data(), at(s.off, s.step), s.step);
        }
        for &slot in &k.inner_slots {
            let col = &mut slots[slot as usize * STRIP..][..n];
            for (j, v) in col.iter_mut().enumerate() {
                *v = walk.at(first + j) as f64;
            }
        }
        for (e, vals) in k.exprs.iter().zip(vals.chunks_exact_mut(STRIP)) {
            if !e.constant {
                e.expr.eval_strip(slots, n, f_regs, vals);
            }
        }
        if ordered {
            for d in sweeps.iter().map(|&w| &dsts[w]) {
                let (out, col) = (ts[d.buf].data_mut(), &vals[d.expr * STRIP..][..n]);
                if d.accumulate {
                    scatter(out, at(d.off, d.step), d.step, col, |o, v| *o += v);
                } else {
                    scatter(out, at(d.off, d.step), d.step, col, |o, v| *o = v);
                }
            }
        } else {
            for j in 0..n {
                for d in dsts {
                    let off = at(d.off, d.step) + j as i64 * d.step;
                    let target = &mut ts[d.buf].data_mut()[off as usize];
                    if d.accumulate {
                        *target += vals[d.expr * STRIP + j];
                    } else {
                        *target = vals[d.expr * STRIP + j];
                    }
                }
            }
        }
    }
}

/// Load `col[j] = data[off + j * step]`; validation bounded every index.
fn gather(col: &mut [f64], data: &[f64], off: i64, step: i64) {
    let (n, off) = (col.len(), off as usize);
    match step {
        1 => col.copy_from_slice(&data[off..off + n]),
        -1 => (col.iter_mut().zip(data[off + 1 - n..=off].iter().rev())).for_each(|(c, &v)| *c = v),
        0 => col.fill(data[off]),
        _ => (col.iter_mut().enumerate())
            .for_each(|(j, c)| *c = data[(off as i64 + j as i64 * step) as usize]),
    }
}

/// Apply `put(&mut out[off + j * step], col[j])` for `j` ascending, the
/// order of the points; validation bounded every index.
fn scatter(out: &mut [f64], off: i64, step: i64, col: &[f64], put: impl Fn(&mut f64, f64)) {
    let (n, off) = (col.len(), off as usize);
    match step {
        1 => (out[off..off + n].iter_mut().zip(col)).for_each(|(o, &v)| put(o, v)),
        -1 => (out[off + 1 - n..=off].iter_mut().rev().zip(col)).for_each(|(o, &v)| put(o, v)),
        // One element takes the whole column, in order: a running sum.
        0 => col.iter().for_each(|&v| put(&mut out[off], v)),
        _ => (col.iter().enumerate())
            .for_each(|(j, &v)| put(&mut out[(off as i64 + j as i64 * step) as usize], v)),
    }
}

/// One per-point row of a single-assignment, single-write kernel,
/// monomorphized over the expression evaluator: [`run_point_row`] without
/// the walks over the assignments and the writes, and with the written
/// tensor's data held across the row (a Gauss–Seidel body reads nothing
/// else).
#[inline]
fn run_single_row(
    walk: Axis,
    srcs: &mut [KernelSrc],
    inner_slots: &[u32],
    slots: &mut [f64],
    ts: &mut [Tensor],
    mut dst: KernelDst,
    mut eval: impl FnMut(&[f64]) -> f64,
) {
    // One write: its tensor is the only written one, the first of the
    // table, and every other read finds its own among the rest.
    let Some((out, rest)) = ts.split_first_mut() else {
        return;
    };
    let out = out.data_mut();
    for i in 0..walk.trip {
        for s in srcs.iter_mut() {
            slots[s.slot] = match s.buf.checked_sub(1) {
                None => out[s.off as usize],
                Some(r) => rest[r].data()[s.off as usize],
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

/// One row point by point: per point, load each per-point read at its
/// running offset (in edge order, so duplicate-slot semantics match the VM),
/// refresh the innermost-variable slots, evaluate every slot-reading
/// assignment, then apply the writes in edge order.
#[allow(clippy::too_many_arguments)]
#[inline]
fn run_point_row(
    walk: Axis,
    k: &AffineKernel,
    srcs: &mut [KernelSrc],
    dsts: &mut [KernelDst],
    ts: &mut [Tensor],
    slots: &mut [f64],
    vals: &mut [f64],
    f_regs: &mut Vec<f64>,
) {
    for i in 0..walk.trip {
        for s in srcs.iter_mut() {
            slots[s.slot] = ts[s.buf].data()[s.off as usize];
            s.off += s.step;
        }
        if !k.inner_slots.is_empty() {
            let iv = walk.at(i) as f64;
            for &sl in &k.inner_slots {
                slots[sl as usize] = iv;
            }
        }
        for (e, v) in k.exprs.iter().zip(vals.iter_mut()) {
            if !e.constant {
                *v = match &e.micro {
                    Some(m) => m.eval(slots),
                    None => e.expr.eval(slots, f_regs),
                };
            }
        }
        for d in dsts.iter_mut() {
            let target = &mut ts[d.buf].data_mut()[d.off as usize];
            if d.accumulate {
                *target += vals[d.expr];
            } else {
                *target = vals[d.expr];
            }
            d.off += d.step;
        }
    }
}
