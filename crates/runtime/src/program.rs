//! The compile-once execution API: [`compile`] lowers an SDFG into a
//! [`CompiledProgram`], and a [`Session`] runs that program many times.
//!
//! The paper's execution model is *compile once, run many*: one gradient
//! SDFG is built and lowered a single time, then executed repeatedly (the
//! training loop, the finite-difference validation sweep, the benchmark
//! repetitions).  This module makes that shape explicit in the API:
//!
//! * [`compile`] produces a [`CompiledProgram`] — an immutable, cheaply
//!   clonable handle to a lowered execution plan ([`crate::plan`]).  Every
//!   call validates and lowers; the handle is what a caller keeps and shares
//!   to compile once.
//! * [`CompiledProgram::session`] opens a [`Session`]: mutable run state
//!   (tensor slab, symbol file, scratch registers) bound to the program.
//!   A session **reuses its tensor slab across runs** — transient tensors
//!   are recycled through a pool and zero-filled in place instead of being
//!   reallocated, and unbound outputs are reset in place — so repeated
//!   `run` calls perform no plan work and no per-run heap churn beyond the
//!   first execution.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dace_sdfg::Sdfg;
use dace_tensor::Tensor;

use crate::error::{RuntimeError, RuntimeResult};
use crate::executor::{ExecutionReport, MapPath, RunState};
use crate::plan::{compile_plan, ExecPlan, MapInfo, MapStrategy, PlanGraph, PlanNode};

/// Compile an SDFG under concrete symbol values into a [`CompiledProgram`].
///
/// Every symbol declared by the SDFG must have a value.  Every call checks
/// the symbols, validates the SDFG and lowers it: compile once per program
/// and share the result, which clones cheaply.
///
/// # Errors
/// [`RuntimeError::MissingSymbol`] when a declared symbol has no value,
/// [`RuntimeError::InvalidSdfg`] when the static verifier finds
/// error-severity diagnostics (dangling edges, unknown arrays, rank
/// mismatches, constant out-of-bounds indices, malformed library nodes,
/// ...), and — from lowering, where shapes are concrete — a library node
/// that can never run as written: [`RuntimeError::ShapeMismatch`] for
/// operands that do not fit each other under the node's transposition
/// flags, [`RuntimeError::AliasedLibraryOutput`] for an output container
/// that is also an input.
pub fn compile(sdfg: &Sdfg, symbols: &HashMap<String, i64>) -> RuntimeResult<CompiledProgram> {
    for s in &sdfg.symbols {
        if !symbols.contains_key(s) {
            return Err(RuntimeError::MissingSymbol(s.clone()));
        }
    }
    let diagnostics: Vec<_> = sdfg
        .validate()
        .into_iter()
        .filter(|d| d.severity == dace_sdfg::Severity::Error)
        .collect();
    if !diagnostics.is_empty() {
        return Err(RuntimeError::InvalidSdfg { diagnostics });
    }
    let plan = Arc::new(compile_plan(sdfg, symbols)?);
    LOWERINGS.fetch_add(1, Ordering::Relaxed);
    Ok(CompiledProgram {
        plan,
        symbols: Arc::new(symbols.clone()),
    })
}

// ---------------------------------------------------------------------------
// Pinned for the benchmark harness.
// ---------------------------------------------------------------------------
//
// `perfbench/` empties a plan cache before each cold compile, counts the
// lowerings its set-up needed and refuses a compile served from a cache.
// There is no cache; the items below keep its calls compiling and its
// `runtime.plan_cache_misses` row true.  The benchmark PR (ROADMAP item 3)
// deletes them together with their call sites.

/// Successful lowerings in this process: the crate's only `static`.
static LOWERINGS: AtomicU64 = AtomicU64::new(0);

/// What [`plan_cache_stats`] reads.
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub struct PlanCacheStats {
    /// [`compile`] calls so far in this process that returned a program.
    pub misses: u64,
}

/// The lowerings counted so far in this process.
#[doc(hidden)]
pub fn plan_cache_stats() -> PlanCacheStats {
    PlanCacheStats {
        misses: LOWERINGS.load(Ordering::Relaxed),
    }
}

/// A no-op: there is no plan cache to empty.
#[doc(hidden)]
pub fn clear_plan_cache() {}

impl CompiledProgram {
    /// Always `false`: no [`compile`] call is served from a cache.
    #[doc(hidden)]
    pub fn cache_hit(&self) -> bool {
        false
    }
}

/// An SDFG lowered once into an execution plan: the immutable, shareable
/// product of [`compile`].
///
/// Cloning is cheap (the plan is behind an `Arc`); open one or more
/// [`Session`]s to actually execute it.
#[derive(Clone)]
pub struct CompiledProgram {
    plan: Arc<ExecPlan>,
    symbols: Arc<HashMap<String, i64>>,
}

impl std::fmt::Debug for CompiledProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledProgram")
            .field("arrays", &self.plan.arrays.names.len())
            .field("states", &self.plan.states.len())
            .finish()
    }
}

impl CompiledProgram {
    /// Open an execution session for this program.
    pub fn session(&self) -> Session {
        Session {
            st: RunState::new(&self.plan),
            program: self.clone(),
        }
    }

    /// Concrete symbol values the plan was specialised for.
    pub fn symbols(&self) -> &HashMap<String, i64> {
        &self.symbols
    }

    /// Every map of the program — state by state in the order a state runs
    /// them, nested maps after their parent — with the execution strategy
    /// lowering chose for it and, for the VM, why the native kernel did not
    /// attach.
    pub fn map_strategies(&self) -> Vec<MapInfo> {
        fn walk(state: usize, graph: &PlanGraph, out: &mut Vec<MapInfo>) {
            for node in &graph.nodes {
                if let PlanNode::Map(m) = node {
                    out.push(MapInfo {
                        state,
                        depth: m.params.len(),
                        points: m.points,
                        strategy: MapStrategy::of(&m.kernel),
                        rows: m.kernel.as_ref().ok().map(|k| k.rows),
                        enclosing: None,
                    });
                    walk(state, &m.body, out);
                }
            }
        }
        let mut out = Vec::new();
        for (state, graph) in self.plan.states.iter().enumerate() {
            walk(state, graph, &mut out);
        }
        out
    }

    /// Every loop site of the program, in program order, with the record a
    /// map gets: the kernel, or the VM and the typed reason.  A site is a
    /// perfect rectangular loop nest that one kernel dispatch covers (listed
    /// once, with its depth and the points of the whole nest), or an
    /// innermost loop (one whose body holds no further loop) on its own;
    /// `enclosing` says why the loop around a site did not take it into a
    /// deeper nest.
    pub fn loop_strategies(&self) -> Vec<MapInfo> {
        self.plan.loops.clone()
    }

    pub(crate) fn plan(&self) -> &ExecPlan {
        &self.plan
    }
}

// ---------------------------------------------------------------------------
// Session.
// ---------------------------------------------------------------------------

/// Mutable execution state bound to a [`CompiledProgram`]: bind inputs with
/// [`Session::set_input`] (by move) or [`Session::copy_input`] (by copy into
/// the buffer the session holds), execute with [`Session::run`], read
/// results with [`Session::array`] or lend them out with
/// [`Session::take_array`].
///
/// A session is built for repeated runs.  Each `run` starts from a clean
/// state — transients and unbound outputs are reset — but the underlying
/// tensor allocations are **reused, not reallocated**: transient tensors are
/// recycled through an internal pool and zero-filled in place.  Input
/// bindings persist across runs; note that a program which mutates an input
/// array in place (e.g. an in-place stencil) leaves the *mutated* tensor
/// bound, so callers that need fresh values must rebind before the next run
/// (or call [`Session::clear_bindings`]).
///
/// ```
/// use std::collections::HashMap;
/// use dace_frontend::{ArrayExpr, ProgramBuilder};
/// use dace_tensor::Tensor;
///
/// let mut b = ProgramBuilder::new("scale");
/// let n = b.symbol("N");
/// b.add_input("X", vec![n.clone()]).unwrap();
/// b.add_input("Y", vec![n.clone()]).unwrap();
/// b.assign("Y", ArrayExpr::a("X").mul(ArrayExpr::s(2.0)));
/// let sdfg = b.build().unwrap();
///
/// let program = dace_runtime::compile(&sdfg, &HashMap::from([("N".to_string(), 2)])).unwrap();
/// let mut session = program.session();
/// // Rebinding and re-running reuses the session's tensor slab: no plan
/// // work, no reallocation, results identical to a fresh session.
/// for scale in [1.0, 3.0] {
///     session
///         .set_input("X", Tensor::from_vec(vec![scale, scale], &[2]).unwrap())
///         .unwrap();
///     session.run().unwrap();
///     assert_eq!(session.array("Y").unwrap().data(), &[2.0 * scale; 2]);
/// }
/// ```
pub struct Session {
    program: CompiledProgram,
    pub(crate) st: RunState,
}

impl Session {
    /// The program this session executes.
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// Concrete symbol bindings of the underlying program.
    pub fn symbols(&self) -> &HashMap<String, i64> {
        self.program.symbols()
    }

    /// Bind an input array by name.  The binding persists across runs until
    /// overwritten, cleared or taken.  Binding a *transient* array provides its
    /// initial contents (instead of the usual lazy zero-fill).
    ///
    /// # Errors
    /// [`RuntimeError::UnknownArray`] for names the program does not declare
    /// and [`RuntimeError::ShapeMismatch`] when the tensor's shape does not
    /// match the array's concrete layout.
    pub fn set_input(&mut self, name: &str, tensor: Tensor) -> RuntimeResult<()> {
        let id = self.bind(name, tensor.shape())?;
        self.st.slab[id] = Some(tensor);
        Ok(())
    }

    /// [`Session::set_input`] by copy: the values are copied into the
    /// tensor the session already holds for the array, or into its pooled
    /// spare when the slot is empty, so a warm session binds without
    /// allocating.  Only an empty slot without a spare (first run, or after
    /// [`Session::take_array`] while the taken tensor is still held) receives
    /// a clone.  Same errors as `set_input`.
    pub fn copy_input(&mut self, name: &str, tensor: &Tensor) -> RuntimeResult<()> {
        let id = self.bind(name, tensor.shape())?;
        let st = &mut self.st;
        if st.slab[id].is_none() {
            st.slab[id] = st.pool[id].take();
        }
        match &mut st.slab[id] {
            Some(held) => held.data_mut().copy_from_slice(tensor.data()),
            empty => *empty = Some(tensor.clone()),
        }
        Ok(())
    }

    /// The checks both binds share: `name` must be an array of the program
    /// and `shape` its concrete layout.  Marks the array bound and returns
    /// its id.
    fn bind(&mut self, name: &str, shape: &[usize]) -> RuntimeResult<usize> {
        let plan = self.program.plan();
        let id = plan
            .arrays
            .id(name)
            .ok_or_else(|| RuntimeError::UnknownArray(name.to_string()))?;
        let layout = plan.arrays.layout(id)?;
        if layout.dims() != shape {
            return Err(RuntimeError::ShapeMismatch {
                array: name.to_string(),
                expected: layout.dims().to_vec(),
                got: shape.to_vec(),
            });
        }
        self.st.bound[id as usize] = true;
        Ok(id as usize)
    }

    /// Forget every input binding.  Tensors already in the slab are reset
    /// (zero-filled in place) at the start of the next run instead of being
    /// treated as inputs.
    pub fn clear_bindings(&mut self) {
        self.st.bound.fill(false);
    }

    /// Attach per-state free hints: after executing state `id`, the listed
    /// transient containers are deallocated (used by the AD engine to bound
    /// the footprint of recomputation blocks).  Unknown state ids and array
    /// names are ignored, as are non-transient arrays and, at run time,
    /// transients bound for the run — releasing a bound array mid-run would
    /// silently replace it with zeros on the next run.
    pub fn set_free_hints(&mut self, hints: &HashMap<usize, Vec<String>>) {
        let plan = self.program.plan();
        let mut resolved = vec![Vec::new(); plan.states.len()];
        for (&state, names) in hints {
            if state < resolved.len() {
                for name in names {
                    if let Some(id) = plan.arrays.id(name) {
                        if plan.arrays.transient[id as usize] {
                            resolved[state].push(id);
                        }
                    }
                }
            }
        }
        self.st.free_hints = resolved;
    }

    /// Builder-style variant of [`Session::set_free_hints`].
    pub fn with_free_hints(mut self, hints: &HashMap<usize, Vec<String>>) -> Self {
        self.set_free_hints(hints);
        self
    }

    /// Force a map execution path (testing/instrumentation knob).
    pub fn force_map_path(&mut self, path: MapPath) {
        self.st.path = path;
    }

    /// Force the specialized-kernel dispatch mode (testing/instrumentation
    /// knob mirroring [`Session::force_map_path`]; see [`crate::SpecMode`]).
    /// Defaults to `Auto`.
    pub fn force_specialization(&mut self, mode: crate::SpecMode) {
        self.st.spec_mode = mode;
    }

    /// Access an array after (or before) execution.
    pub fn array(&self, name: &str) -> Option<&Tensor> {
        self.program
            .plan()
            .arrays
            .id(name)
            .and_then(|id| self.st.slab[id as usize].as_ref())
    }

    /// Lend an array out of the session instead of cloning it (and unbind
    /// it, if it was bound).  [`Session::array`] reads `None` for the name
    /// until the next run, which starts the array afresh, so that run is
    /// bit-identical to one on a fresh session.
    ///
    /// The tensor is the caller's to keep, change or drop.  When it is
    /// dropped while the session exists, its storage comes home: the next
    /// run reuses it for the slot instead of allocating (a clone of it, or
    /// its [`Tensor::into_vec`], takes nothing home).
    pub fn take_array(&mut self, name: &str) -> Option<Tensor> {
        let id = self.program.plan().arrays.id(name)? as usize;
        self.st.bound[id] = false;
        let mut tensor = self.st.slab[id].take()?;
        tensor.lend(Arc::downgrade(&self.st.inbox), id);
        Some(tensor)
    }

    /// The execution report of the most recent [`Session::run`] (all-zero
    /// before the first run).  [`crate::BatchDriver`] aggregates batch
    /// totals from this without requiring every caller to thread reports
    /// through.
    pub fn last_report(&self) -> &ExecutionReport {
        &self.st.report
    }

    /// Zero the last-run report.  Used by [`crate::BatchDriver`] at session
    /// checkout so per-item accounting never sees a previous tenant's run.
    pub(crate) fn reset_report(&mut self) {
        self.st.report = ExecutionReport::default();
    }

    /// Execute the program.
    ///
    /// Each run starts from a clean state: the memory tracker is reset,
    /// transient tensors left over from the previous run and tensors lent by
    /// [`Session::take_array`] that came home are recycled into the
    /// allocation pool, and non-transient arrays that were *not* bound via
    /// [`Session::set_input`] or [`Session::copy_input`] are zero-filled in
    /// place (refilled from the pool, or allocated as zeros, if
    /// `take_array` took them).  Results are therefore bit-identical to a
    /// run on a freshly opened session with the same bindings.
    pub fn run(&mut self) -> RuntimeResult<ExecutionReport> {
        let start = Instant::now();
        let Session { program, st } = self;
        let plan: &ExecPlan = program.plan.as_ref();

        st.report = ExecutionReport::default();
        st.tracker.reset();

        // Take home what came back since the last run: a slot keeps one
        // spare, anything beyond it is freed.
        for (id, spare) in st
            .inbox
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter_mut()
            .enumerate()
        {
            if let Some(t) = spare.take() {
                st.pool[id].get_or_insert(t);
            }
        }

        // Reset the slab in place: recycle transients into the pool (their
        // allocations are reused by `ensure_allocated`), zero unbound
        // non-transients, and count + materialise non-transient containers.
        for id in 0..st.bound.len() {
            let was_provided = st.bound[id];
            if plan.arrays.transient[id] {
                // A bound transient keeps its contents (it provides the
                // initial value, as the legacy executor did); anything else
                // is recycled for in-place reuse.
                if !was_provided {
                    if let Some(t) = st.slab[id].take() {
                        st.pool[id] = Some(t);
                    }
                }
            } else {
                let layout = plan.arrays.layout(id as u32)?;
                match st.slab[id].as_mut() {
                    Some(t) if !was_provided => t.data_mut().fill(0.0),
                    Some(_) => {}
                    None => {
                        // Outputs that were not provided start as zeros.
                        st.slab[id] = Some(st.refill(id, layout.dims()));
                    }
                }
                st.tracker.alloc(id, layout.bytes);
            }
        }

        st.syms = plan.init_syms.clone();
        st.exec_cfg(plan, &plan.cfg)?;

        st.report.elapsed = start.elapsed();
        st.report.peak_bytes = st.tracker.peak_bytes();
        st.report.final_bytes = st.tracker.current_bytes();
        Ok(st.report.clone())
    }
}
