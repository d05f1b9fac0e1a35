//! The specialized-kernel execution tier.
//!
//! Plan compilation ([`crate::plan`]) attaches two kinds of native kernel;
//! this module dispatches both.  In either, every array access advances by
//! a precomputed constant step instead of re-walking the plan graph and
//! re-evaluating compiled index expressions per point.
//!
//! * **Control-flow-loop kernels** ([`crate::plan::SpecKernel`]): a
//!   unit-step innermost control-flow loop whose body state is one
//!   single-assignment affine tasklet — elementwise bodies, fixed-radius
//!   stencils, reduction/contraction bodies — runs as one flat loop.
//! * **The N-D affine map kernel** ([`crate::plan::MapKernel`]): a map whose
//!   dependence verdict allows parallel execution and whose body is one
//!   tasklet (any number of assignments) with affine memlets — identity,
//!   permuted, partial, constant and offset indices alike — runs as a
//!   native nest over its rectangular domain, in the VM's odometer order.
//!
//! Exactness is the design invariant:
//!
//! * **Validate first, mutate second.**  Every precondition — runtime trip
//!   count, bound iteration symbols, in-range accesses across the whole
//!   iteration space, scalar-read container sizes — is checked before any
//!   write.  Any failure returns `Ok(false)` and the caller falls back to
//!   the register VM, which reproduces the exact semantics of the failing
//!   case, including partial execution followed by an error.
//! * **Bit-identical arithmetic.**  The specialized loop evaluates the very
//!   same [`dace_sdfg::CompiledExpr`] the VM would (or its recognized
//!   [`dace_sdfg::MicroPattern`], whose evaluation applies the same
//!   operations in the same order), with reads loaded into the same slots in
//!   the same order, all reads of a point before its writes and the writes
//!   in edge order — so results match the VM bit for bit, a property the
//!   proptests in `tests/spec.rs` pin down.
//! * **Aliasing-aware.**  Reads of a written array go through the buffer
//!   being mutated.  Loop kernels thereby preserve Gauss–Seidel-style
//!   read-after-write order, admitted only when
//!   [`dace_sdfg::deps::alias_decidable`] understands the write/read offset
//!   (see `docs/verification.md`); the map kernel admits such reads only at
//!   the very index that is written.  Anything else stays on the VM.
//!
//! The dispatch rule is the same for both: run the kernel lowering attached
//! if its per-dispatch validation passes (a few corner checks per access),
//! otherwise the sequential register VM — from the first opportunity on.
//! [`SpecMode::ForceOff`] pins pure register-VM execution, the reference the
//! bit-identity tests compare against, mirroring [`crate::MapPath`].

use dace_tensor::Tensor;

use crate::error::RuntimeResult;
use crate::executor::{RunState, Scratch};
use crate::plan::{ExecPlan, MapExpr, MapKernel, SpecAccess};

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

/// One access flattened against its layout for a concrete `[start, end)`
/// window: row-major offset at `i = start`, and offset delta per iteration.
#[derive(Clone, Copy)]
struct Flat {
    base: i64,
    step: i64,
}

/// Where a specialized read loads from.
enum SrcBuf<'a> {
    /// A slab tensor the kernel does not write.
    Slab(&'a [f64]),
    /// The `n`-th written tensor, taken out of the slab for the dispatch
    /// (reads observe in-loop writes; a loop kernel has exactly one).
    Out(usize),
}

/// A specialized read with its running flat offset and innermost step.
struct SpecSrc<'a> {
    slot: usize,
    off: i64,
    step: i64,
    buf: SrcBuf<'a>,
}

/// A map-kernel write with its running flat offset and innermost step.
struct MapDst {
    expr: usize,
    off: i64,
    step: i64,
    out: usize,
    accumulate: bool,
}

impl RunState {
    /// Flatten one access over the box `lows[p] ..= lasts[p]` of its
    /// iteration variables: evaluate the loop-invariant index parts,
    /// bounds-check the extreme corners per dimension (which covers every
    /// point, indices being monotone in each variable), and fold the
    /// per-dimension strides into the flat offset at `lows` (returned) and
    /// one flat step per variable (written to `steps`).  `None` means the VM
    /// must handle this dispatch.
    fn flatten_spec_access(
        &mut self,
        plan: &ExecPlan,
        acc: &SpecAccess,
        lows: &[i64],
        lasts: &[i64],
        steps: &mut [i64],
    ) -> Option<i64> {
        let layout = plan.arrays.layout(acc.array).ok()?;
        steps.fill(0);
        if acc.rest.is_empty() {
            // Whole-array scalar access: one fixed element of a length-1
            // container (the VM rejects any other length).
            return (layout.dims.iter().product::<usize>() == 1).then_some(0);
        }
        let mut base = 0i64;
        for d in 0..acc.rest.len() {
            let rest = acc.rest[d]
                .eval(&self.syms, &plan.syms.names, &mut self.scratch.i_regs)
                .ok()?;
            let stride = layout.strides[d] as i64;
            let (mut at_lows, mut lo, mut hi) = (rest, rest, rest);
            for (p, &c) in acc.coeff[d].iter().enumerate() {
                let (at_low, at_last) = (c.checked_mul(lows[p])?, c.checked_mul(lasts[p])?);
                at_lows = at_lows.checked_add(at_low)?;
                lo = lo.checked_add(at_low.min(at_last))?;
                hi = hi.checked_add(at_low.max(at_last))?;
                steps[p] = steps[p].checked_add(c.checked_mul(stride)?)?;
            }
            if lo < 0 || hi >= layout.dims[d] as i64 {
                return None;
            }
            base = base.checked_add(at_lows.checked_mul(stride)?)?;
        }
        Some(base)
    }

    /// Execute specialized kernel `spec_id` over `i in [start, end)` with
    /// unit step.  Returns `Ok(false)` — having mutated nothing — when any
    /// precondition fails and the VM must run instead.
    pub(crate) fn exec_spec(
        &mut self,
        plan: &ExecPlan,
        spec_id: u32,
        start: i64,
        end: i64,
    ) -> RuntimeResult<bool> {
        let spec = &plan.specs[spec_id as usize];
        if end <= start {
            // The VM's empty loop is already free; keep one code path.
            return Ok(false);
        }
        let trip = (end - start) as usize;

        // -- Validation (no mutation past this comment until it all holds) --
        for &a in &spec.arrays {
            // A missing non-transient input must surface as the VM's error.
            if self.slab[a as usize].is_none() && !plan.arrays.transient[a as usize] {
                return Ok(false);
            }
        }
        for &(_, sym) in &spec.iter_loads {
            if !self.syms.defined[sym as usize] {
                return Ok(false);
            }
        }
        for &(_, a) in &spec.scalar_reads {
            // Tensor length always equals the layout product, so this is
            // checkable before allocation.
            let Ok(layout) = plan.arrays.layout(a) else {
                return Ok(false);
            };
            if layout.dims.iter().product::<usize>() != 1 {
                return Ok(false);
            }
        }
        let (lows, lasts) = ([start], [end - 1]);
        let mut step = [0i64];
        let mut read_flats = Vec::with_capacity(spec.reads.len());
        for (_, acc) in &spec.reads {
            match self.flatten_spec_access(plan, acc, &lows, &lasts, &mut step) {
                Some(base) => read_flats.push(Flat {
                    base,
                    step: step[0],
                }),
                None => return Ok(false),
            }
        }
        let Some(base) = self.flatten_spec_access(plan, &spec.write, &lows, &lasts, &mut step)
        else {
            return Ok(false);
        };
        let write = Flat {
            base,
            step: step[0],
        };

        // -- Execution --
        for &a in &spec.arrays {
            self.ensure_allocated(plan, a)?;
        }
        let out_array = spec.write.array as usize;
        let RunState {
            slab,
            syms,
            scratch,
            ..
        } = self;
        scratch.slots.clear();
        scratch.slots.resize(spec.n_slots, 0.0);
        for &(slot, sym) in &spec.iter_loads {
            scratch.slots[slot as usize] = syms.vals[sym as usize] as f64;
        }
        for &(slot, a) in &spec.scalar_reads {
            scratch.slots[slot as usize] =
                slab[a as usize].as_ref().expect("allocated above").data()[0];
        }
        let mut out_t = slab[out_array].take().expect("allocated above");
        {
            let mut srcs: Vec<SpecSrc<'_>> = spec
                .reads
                .iter()
                .zip(&read_flats)
                .map(|(&(slot, ref acc), flat)| SpecSrc {
                    slot: slot as usize,
                    off: flat.base,
                    step: flat.step,
                    buf: if acc.array as usize == out_array {
                        SrcBuf::Out(0)
                    } else {
                        SrcBuf::Slab(slab[acc.array as usize].as_ref().expect("allocated").data())
                    },
                })
                .collect();
            let out = out_t.data_mut();
            let slots = &mut scratch.slots;
            match &spec.micro {
                Some(m) => run_spec_loop(
                    trip,
                    start,
                    &mut srcs,
                    &spec.inner_iter_slots,
                    slots,
                    out,
                    write,
                    spec.accumulate,
                    |slots| m.eval(slots),
                ),
                None => {
                    let expr = &spec.expr;
                    let f_regs = &mut scratch.f_regs;
                    run_spec_loop(
                        trip,
                        start,
                        &mut srcs,
                        &spec.inner_iter_slots,
                        slots,
                        out,
                        write,
                        spec.accumulate,
                        |slots| expr.eval(slots, f_regs),
                    );
                }
            }
        }
        slab[out_array] = Some(out_t);
        Ok(true)
    }

    /// Execute the N-D affine kernel `k` of a map over the rectangular
    /// domain `lows[p] .. lows[p] + sizes[p]` (non-empty; the caller has
    /// allocated every referenced container).  Each access is flattened
    /// once against its layout; the nest then walks the domain in the VM's
    /// odometer order with the innermost parameter on a flat loop.  Returns
    /// `Ok(false)` — having mutated nothing — when any precondition fails
    /// and the VM must run instead.
    pub(crate) fn exec_map_kernel(
        &mut self,
        plan: &ExecPlan,
        k: &MapKernel,
        lows: &[i64],
        sizes: &[usize],
    ) -> RuntimeResult<bool> {
        // A parameterless map is a single VM tasklet evaluation.
        let Some((&trip, outer)) = sizes.split_last() else {
            return Ok(false);
        };
        let np = sizes.len();
        let inner = np - 1;

        // -- Validation (no mutation past this comment until it all holds) --
        if k.iter_loads
            .iter()
            .any(|&(_, sym)| !self.syms.defined[sym as usize])
        {
            return Ok(false);
        }
        let lasts: Vec<i64> = lows
            .iter()
            .zip(sizes)
            .map(|(&lo, &n)| lo + n as i64 - 1)
            .collect();
        let accesses = k
            .reads
            .iter()
            .map(|(_, acc)| acc)
            .chain(k.writes.iter().map(|(_, acc, _)| acc));
        let mut steps = vec![0i64; (k.reads.len() + k.writes.len()) * np];
        let mut bases = Vec::with_capacity(k.reads.len() + k.writes.len());
        for (acc, steps) in accesses.zip(steps.chunks_mut(np)) {
            // A memlet of an array the body has no access node for surfaces
            // as the VM's error.
            if self.slab[acc.array as usize].is_none() {
                return Ok(false);
            }
            match self.flatten_spec_access(plan, acc, lows, &lasts, steps) {
                Some(base) => bases.push(base),
                None => return Ok(false),
            }
        }

        // -- Execution --
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
            ..
        } = scratch;
        slots.clear();
        slots.resize(k.n_slots, 0.0);
        for &(slot, sym) in &k.iter_loads {
            slots[slot as usize] = syms.vals[sym as usize] as f64;
        }
        // Slot-free assignments evaluate here, once; the rest per point.
        vals.clear();
        vals.extend(k.exprs.iter().map(|e| e.expr.eval(slots, f_regs)));
        // Take the written tensors out of the slab so that every other read
        // borrows it directly; reads of a written array go through `outs`.
        let mut out_ids: Vec<u32> = k.writes.iter().map(|(_, acc, _)| acc.array).collect();
        out_ids.sort_unstable();
        out_ids.dedup();
        let mut out_ts: Vec<Tensor> = out_ids
            .iter()
            .map(|&a| slab[a as usize].take().expect("checked above"))
            .collect();
        {
            let mut outs: Vec<&mut [f64]> = out_ts.iter_mut().map(|t| t.data_mut()).collect();
            let out_of = |a: u32| out_ids.iter().position(|&o| o == a);
            let mut srcs: Vec<SpecSrc<'_>> = k
                .reads
                .iter()
                .enumerate()
                .map(|(i, &(slot, ref acc))| SpecSrc {
                    slot: slot as usize,
                    off: 0,
                    step: steps[i * np + inner],
                    buf: match out_of(acc.array) {
                        Some(o) => SrcBuf::Out(o),
                        None => SrcBuf::Slab(
                            slab[acc.array as usize]
                                .as_ref()
                                .expect("checked above")
                                .data(),
                        ),
                    },
                })
                .collect();
            let mut dsts: Vec<MapDst> = k
                .writes
                .iter()
                .enumerate()
                .map(|(j, &(expr, ref acc, accumulate))| MapDst {
                    expr: expr as usize,
                    off: 0,
                    step: steps[(k.reads.len() + j) * np + inner],
                    out: out_of(acc.array).expect("collected above"),
                    accumulate,
                })
                .collect();
            let inner_slots: Vec<u32> = k
                .param_slots
                .iter()
                .filter(|&&(_, p)| p == inner)
                .map(|&(slot, _)| slot)
                .collect();
            let mut counters = vec![0usize; inner];
            for row in 0..outer.iter().product::<usize>() {
                // The outer parameters of this row, last fastest.
                let mut rest = row;
                for (c, &n) in counters.iter_mut().zip(outer).rev() {
                    (*c, rest) = (rest % n, rest / n);
                }
                // Row start: every access's offset at this outer point, and
                // the outer parameters the assignments read as values.
                let offs = srcs
                    .iter_mut()
                    .map(|s| &mut s.off)
                    .chain(dsts.iter_mut().map(|d| &mut d.off));
                for (i, off) in offs.enumerate() {
                    *off = bases[i]
                        + counters
                            .iter()
                            .zip(&steps[i * np..])
                            .map(|(&c, &step)| c as i64 * step)
                            .sum::<i64>();
                }
                for &(slot, p) in &k.param_slots {
                    if p < inner {
                        slots[slot as usize] = (lows[p] + counters[p] as i64) as f64;
                    }
                }
                if let ([e], [d]) = (&k.exprs[..], &dsts[..]) {
                    // One assignment, one write: the loop kernels' flat
                    // loop, monomorphized over the evaluator.
                    macro_rules! row {
                        ($eval:expr) => {
                            run_spec_loop(
                                trip,
                                lows[inner],
                                &mut srcs,
                                &inner_slots,
                                slots,
                                outs[0],
                                Flat {
                                    base: d.off,
                                    step: d.step,
                                },
                                d.accumulate,
                                $eval,
                            )
                        };
                    }
                    match (&e.micro, e.constant) {
                        (_, true) => row!(|_| vals[0]),
                        (Some(m), _) => row!(|slots| m.eval(slots)),
                        (None, _) => row!(|slots| e.expr.eval(slots, f_regs)),
                    }
                } else {
                    run_map_row(
                        trip,
                        lows[inner],
                        &mut srcs,
                        &mut dsts,
                        &inner_slots,
                        slots,
                        vals,
                        &mut outs,
                        &k.exprs,
                        f_regs,
                    );
                }
            }
        }
        for (&a, t) in out_ids.iter().zip(out_ts) {
            slab[a as usize] = Some(t);
        }
        Ok(true)
    }
}

/// The flat inner loop, monomorphized over the expression evaluator: load
/// each read at its running offset (in edge order, so duplicate-slot
/// semantics match the VM), refresh iterator slots, evaluate, write.
#[allow(clippy::too_many_arguments)]
#[inline]
fn run_spec_loop(
    trip: usize,
    start: i64,
    srcs: &mut [SpecSrc<'_>],
    inner_slots: &[u32],
    slots: &mut [f64],
    out: &mut [f64],
    write: Flat,
    accumulate: bool,
    mut eval: impl FnMut(&[f64]) -> f64,
) {
    let mut woff = write.base;
    for k in 0..trip {
        for s in srcs.iter_mut() {
            slots[s.slot] = match s.buf {
                SrcBuf::Slab(d) => d[s.off as usize],
                SrcBuf::Out(_) => out[s.off as usize],
            };
            s.off += s.step;
        }
        if !inner_slots.is_empty() {
            let iv = (start + k as i64) as f64;
            for &sl in inner_slots {
                slots[sl as usize] = iv;
            }
        }
        let v = eval(slots);
        if accumulate {
            out[woff as usize] += v;
        } else {
            out[woff as usize] = v;
        }
        woff += write.step;
    }
}

/// One row of a multi-assignment map kernel: per point, load each read at
/// its running offset (in edge order, so duplicate-slot semantics match the VM), refresh
/// the innermost-parameter slots, evaluate every slot-reading assignment,
/// then apply the writes in edge order.
#[allow(clippy::too_many_arguments)]
#[inline]
fn run_map_row(
    trip: usize,
    inner_low: i64,
    srcs: &mut [SpecSrc<'_>],
    dsts: &mut [MapDst],
    inner_slots: &[u32],
    slots: &mut [f64],
    vals: &mut [f64],
    outs: &mut [&mut [f64]],
    exprs: &[MapExpr],
    f_regs: &mut Vec<f64>,
) {
    for i in 0..trip {
        for s in srcs.iter_mut() {
            slots[s.slot] = match s.buf {
                SrcBuf::Slab(d) => d[s.off as usize],
                SrcBuf::Out(o) => outs[o][s.off as usize],
            };
            s.off += s.step;
        }
        if !inner_slots.is_empty() {
            let iv = (inner_low + i as i64) as f64;
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
            let target = &mut outs[d.out][d.off as usize];
            if d.accumulate {
                *target += vals[d.expr];
            } else {
                *target = vals[d.expr];
            }
            d.off += d.step;
        }
    }
}
