//! The compile-once execution API: [`compile`] lowers an SDFG into a
//! [`CompiledProgram`], and a [`Session`] runs that program many times.
//!
//! The paper's execution model is *compile once, run many*: one gradient
//! SDFG is built and lowered a single time, then executed repeatedly (the
//! training loop, the finite-difference validation sweep, the benchmark
//! repetitions).  This module makes that shape explicit in the API:
//!
//! * [`compile`] produces a [`CompiledProgram`] — an immutable, cheaply
//!   clonable handle to a lowered execution plan ([`crate::plan`]).
//!   Compilation consults a process-wide **plan cache** keyed by the SDFG
//!   fingerprint and the concrete symbol values, so compiling the same
//!   program twice returns the same shared plan without re-lowering.
//! * [`CompiledProgram::session`] opens a [`Session`]: mutable run state
//!   (tensor slab, symbol file, scratch registers) bound to the program.
//!   A session **reuses its tensor slab across runs** — transient tensors
//!   are recycled through a pool and zero-filled in place instead of being
//!   reallocated, and unbound outputs are reset in place — so repeated
//!   `run` calls perform no plan work and no per-run heap churn beyond the
//!   first execution.
//!
//! Cache observability: every [`crate::ExecutionReport`] carries the
//! hit/miss counters of the program's cache entry, per-program counters are
//! available via [`CompiledProgram::cache_stats`], and process-wide totals
//! via [`plan_cache_stats`].

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use dace_sdfg::Sdfg;
use dace_tensor::Tensor;

use crate::error::{RuntimeError, RuntimeResult};
use crate::executor::{ExecutionReport, MapPath, RunState};
use crate::memory::MemoryTracker;
use crate::plan::{compile_plan, ExecPlan, MapInfo, MapStrategy, PlanGraph, PlanNode};

// ---------------------------------------------------------------------------
// Plan cache.
// ---------------------------------------------------------------------------

/// Hit/miss counters of the plan cache (per entry or process-wide).
///
/// A *miss* is a [`compile`] call that lowered the SDFG and published the
/// plan; a *hit* is a call that was handed a published plan (including one
/// that lowered alongside another thread and found the key taken when it
/// came to publish).  For a single cache entry the miss count is therefore
/// `1` for as long as the entry lives.  Re-compiling a key after its entry
/// was evicted is a genuine second lowering: the global miss counter
/// increments again and the fresh entry starts over at `misses == 1`, so the
/// counters stay correct across eviction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Number of [`compile`] calls served from the cache.
    pub hits: u64,
    /// Number of [`compile`] calls that lowered the SDFG and published the
    /// plan.
    pub misses: u64,
    /// Entries evicted under capacity pressure (least-recently-used first).
    /// Tracked process-wide: per-entry snapshots report `0` here, since an
    /// entry that was evicted no longer has stats to snapshot.
    pub evictions: u64,
    /// Key collisions: a cache key matched but the stored plan belonged to a
    /// *different* SDFG (told by the structural echo) or was lowered under
    /// other symbol values (two binding sets can share the key's 64-bit
    /// symbol digest; the entry holds the bindings themselves), so the
    /// lookup was treated as a miss and recompiled instead of silently
    /// serving the wrong plan.  Tracked process-wide, `0` on per-entry
    /// snapshots.
    pub collisions: u64,
}

/// Shared counters of one cache entry.
#[derive(Debug, Default)]
struct EntryStats {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EntryStats {
    fn snapshot(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: 0,
            collisions: 0,
        }
    }
}

/// The 64-bit FNV-1a state behind every digest of this module: the
/// fingerprint, the echo's name digest and the symbol digest feed it through
/// `std::hash::Hash`, so nothing is rendered to text on the way.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Cheap structural summary stored next to every cache entry.  The FNV-1a
/// fingerprint is 64 bits of the whole structure, so two different SDFGs
/// *can* collide; before trusting a key match, [`compile`] compares this
/// echo and treats a mismatch as a miss (recompile) instead of serving the
/// wrong plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct StructuralEcho {
    /// Number of data containers.
    arrays: usize,
    /// Number of free symbols.
    symbols: usize,
    /// Number of states.
    states: usize,
    /// FNV-1a digest over the sorted array names (with transient flags) and
    /// the symbol names.
    names_digest: u64,
}

impl StructuralEcho {
    fn of(sdfg: &Sdfg) -> Self {
        let mut digest = Fnv1a::new();
        // `sdfg.arrays` is a BTreeMap, so iteration order is already sorted.
        for (name, desc) in &sdfg.arrays {
            name.hash(&mut digest);
            desc.transient.hash(&mut digest);
        }
        sdfg.symbols.hash(&mut digest);
        StructuralEcho {
            arrays: sdfg.arrays.len(),
            symbols: sdfg.symbols.len(),
            states: sdfg.states.len(),
            names_digest: digest.finish(),
        }
    }
}

/// Cache key: structural SDFG fingerprint plus a digest of the concrete
/// symbol values the plan was specialised for (layouts and loop bounds depend
/// on them).  The digest is a sum over the bindings, so it needs no sorted
/// copy of them; the entry holds the bindings themselves and a key match is
/// trusted only if they are equal.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct CacheKey {
    fingerprint: u64,
    symbols: u64,
}

impl CacheKey {
    fn new(fingerprint: u64, symbols: &HashMap<String, i64>) -> Self {
        let binding = |binding: (&String, &i64)| {
            let mut digest = Fnv1a::new();
            binding.hash(&mut digest);
            digest.finish()
        };
        CacheKey {
            fingerprint,
            symbols: symbols.iter().map(binding).fold(0, u64::wrapping_add),
        }
    }
}

/// Default maximum number of cached plans.  A server sweeping symbol sizes
/// creates one entry per (fingerprint, symbol values) pair, so the cache is
/// a true LRU: when full, only the least-recently-used entry is evicted
/// (outstanding [`CompiledProgram`]s keep their plans alive through their
/// own `Arc`s).  Tune with [`set_plan_cache_capacity`].
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 64;

/// One cached plan plus the bookkeeping the LRU and the collision check
/// need.
struct CacheEntry {
    plan: Arc<ExecPlan>,
    stats: Arc<EntryStats>,
    echo: StructuralEcho,
    /// The bindings the plan was lowered under, shared with every
    /// [`CompiledProgram`] of this entry.
    symbols: Arc<HashMap<String, i64>>,
    /// Logical timestamp of the most recent hit or insertion.
    last_used: u64,
}

impl CacheEntry {
    /// A freshly lowered plan: one miss, no hit yet.
    fn new(plan: Arc<ExecPlan>, echo: StructuralEcho, symbols: &HashMap<String, i64>) -> Self {
        CacheEntry {
            plan,
            stats: Arc::new(EntryStats {
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(1),
            }),
            echo,
            symbols: Arc::new(symbols.clone()),
            last_used: 0,
        }
    }

    fn program(&self, fingerprint: u64, cache_hit: bool) -> CompiledProgram {
        CompiledProgram {
            plan: Arc::clone(&self.plan),
            symbols: Arc::clone(&self.symbols),
            stats: Arc::clone(&self.stats),
            fingerprint,
            cache_hit,
        }
    }
}

/// What [`PlanCache::lookup`] found under a key.
enum Lookup {
    Hit(CompiledProgram),
    /// The key matches but the entry belongs to a different SDFG or other
    /// bindings.  Trusting the hash would silently serve the wrong plan: the
    /// caller lowers, and [`PlanCache::publish`] replaces the entry.
    Collision,
    Vacant,
}

struct PlanCache {
    map: HashMap<CacheKey, CacheEntry>,
    capacity: usize,
    /// Monotonic logical clock backing `last_used`.
    tick: u64,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache {
            map: HashMap::new(),
            capacity: DEFAULT_PLAN_CACHE_CAPACITY,
            tick: 0,
        }
    }
}

impl PlanCache {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Look `key` up, trusting a match only if the entry was lowered from
    /// this structure under these bindings; such a match is counted as a hit.
    fn lookup(
        &mut self,
        key: CacheKey,
        echo: StructuralEcho,
        symbols: &HashMap<String, i64>,
    ) -> Lookup {
        let tick = self.touch();
        let Some(entry) = self.map.get_mut(&key) else {
            return Lookup::Vacant;
        };
        if entry.echo != echo || *entry.symbols != *symbols {
            return Lookup::Collision;
        }
        entry.last_used = tick;
        entry.stats.hits.fetch_add(1, Ordering::Relaxed);
        GLOBAL_HITS.fetch_add(1, Ordering::Relaxed);
        Lookup::Hit(entry.program(key.fingerprint, true))
    }

    /// Insert a freshly lowered entry (replacing a colliding one) and evict
    /// down to the capacity.
    fn publish(&mut self, key: CacheKey, mut entry: CacheEntry) -> CompiledProgram {
        entry.last_used = self.touch();
        let program = entry.program(key.fingerprint, false);
        self.map.insert(key, entry);
        self.evict_down_to(self.capacity);
        program
    }

    /// Evict least-recently-used entries until at most `target` remain.
    fn evict_down_to(&mut self, target: usize) {
        while self.map.len() > target {
            let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            else {
                break;
            };
            self.map.remove(&oldest);
            GLOBAL_EVICTIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The process-wide cache, locked.  A poisoned lock is recovered: every
/// update under it leaves the map valid, and nothing is lowered under it.
fn lock_cache() -> MutexGuard<'static, PlanCache> {
    static CACHE: OnceLock<Mutex<PlanCache>> = OnceLock::new();
    CACHE
        .get_or_init(|| Mutex::new(PlanCache::default()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

static GLOBAL_HITS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_MISSES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_EVICTIONS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_COLLISIONS: AtomicU64 = AtomicU64::new(0);

/// Process-wide plan-cache totals across all programs, including eviction
/// and fingerprint-collision counts.
pub fn plan_cache_stats() -> PlanCacheStats {
    PlanCacheStats {
        hits: GLOBAL_HITS.load(Ordering::Relaxed),
        misses: GLOBAL_MISSES.load(Ordering::Relaxed),
        evictions: GLOBAL_EVICTIONS.load(Ordering::Relaxed),
        collisions: GLOBAL_COLLISIONS.load(Ordering::Relaxed),
    }
}

/// Number of plans currently cached.
pub fn plan_cache_len() -> usize {
    lock_cache().map.len()
}

/// Current plan-cache capacity (maximum number of retained plans).
pub fn plan_cache_capacity() -> usize {
    lock_cache().capacity
}

/// Bound the process-wide plan cache at `capacity` plans (clamped to at
/// least 1).  If the cache currently holds more, least-recently-used
/// entries are evicted immediately; outstanding [`CompiledProgram`]s keep
/// their plans alive through their own `Arc`s.  Long-running servers that
/// sweep symbol sizes should size this to their working set — the default
/// is [`DEFAULT_PLAN_CACHE_CAPACITY`].
pub fn set_plan_cache_capacity(capacity: usize) {
    let mut cache = lock_cache();
    cache.capacity = capacity.max(1);
    let target = cache.capacity;
    cache.evict_down_to(target);
}

/// Drop every cached plan (outstanding [`CompiledProgram`]s stay valid).
/// Intended for tests and long-running processes that want to bound memory.
/// An explicit clear is not counted as eviction pressure — the `evictions`
/// counter tracks only capacity-driven LRU evictions.
pub fn clear_plan_cache() {
    lock_cache().map.clear();
}

/// Deterministic FNV-1a fingerprint of the SDFG structure.
///
/// The fingerprint is the SDFG's `Hash` (names, shapes, tasklet code,
/// memlets, control flow; every `f64` by its bits) fed into FNV-1a, so any
/// structural change produces a different key.  Two structurally identical
/// SDFGs — e.g. the same builder program constructed twice — share a
/// fingerprint and therefore a cached plan.
fn fingerprint_sdfg(sdfg: &Sdfg) -> u64 {
    let mut hasher = Fnv1a::new();
    sdfg.hash(&mut hasher);
    hasher.finish()
}

// ---------------------------------------------------------------------------
// CompiledProgram.
// ---------------------------------------------------------------------------

/// Compile an SDFG under concrete symbol values into a [`CompiledProgram`].
///
/// Every symbol declared by the SDFG must have a value.  The call consults
/// the process-wide plan cache: compiling a structurally identical SDFG with
/// the same symbol values returns a handle to the *same* lowered plan, and
/// only the first call pays the lowering cost.
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
    let key = CacheKey::new(fingerprint_sdfg(sdfg), symbols);
    let echo = StructuralEcho::of(sdfg);
    // A verified hit skips validation: only an SDFG that passed it is ever
    // published, and fingerprint and echo identify the structure it checks.
    match lock_cache().lookup(key, echo, symbols) {
        Lookup::Hit(program) => return Ok(program),
        Lookup::Collision => {
            GLOBAL_COLLISIONS.fetch_add(1, Ordering::Relaxed);
        }
        Lookup::Vacant => {}
    }

    let diagnostics: Vec<_> = sdfg
        .validate()
        .into_iter()
        .filter(|d| d.severity == dace_sdfg::Severity::Error)
        .collect();
    if !diagnostics.is_empty() {
        return Err(RuntimeError::InvalidSdfg { diagnostics });
    }
    // Lowered outside the lock, which is taken again only to publish.  If
    // another thread published this key meanwhile, its entry is adopted and
    // this plan dropped: one plan per key, and `misses` counts the plans
    // that were lowered *and* published.
    let plan = Arc::new(compile_plan(sdfg, symbols)?);
    let mut cache = lock_cache();
    if let Lookup::Hit(program) = cache.lookup(key, echo, symbols) {
        return Ok(program);
    }
    GLOBAL_MISSES.fetch_add(1, Ordering::Relaxed);
    Ok(cache.publish(key, CacheEntry::new(plan, echo, symbols)))
}

/// Test-only hook: compile `donor` and insert its plan under a *forged*
/// fingerprint, as if `fingerprint_sdfg` had collided.  The next `compile`
/// of an SDFG whose real fingerprint equals `fingerprint` (and whose symbol
/// values match) will find this entry, detect the structural mismatch via
/// the echo, and recompile instead of serving the donor's plan.
///
/// Exists so the collision-handling path can be exercised without having to
/// construct a real 64-bit FNV-1a collision; not part of the public API.
#[doc(hidden)]
pub fn debug_inject_plan_cache_alias(
    donor: &Sdfg,
    symbols: &HashMap<String, i64>,
    fingerprint: u64,
) {
    let plan = Arc::new(compile_plan(donor, symbols).expect("the donor lowers"));
    let entry = CacheEntry::new(plan, StructuralEcho::of(donor), symbols);
    lock_cache().publish(CacheKey::new(fingerprint, symbols), entry);
}

/// The structural fingerprint [`compile`] keys its cache on, exposed for
/// tests that need to forge collisions (see
/// [`debug_inject_plan_cache_alias`]).
#[doc(hidden)]
pub fn debug_fingerprint_sdfg(sdfg: &Sdfg) -> u64 {
    fingerprint_sdfg(sdfg)
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
    stats: Arc<EntryStats>,
    fingerprint: u64,
    cache_hit: bool,
}

impl std::fmt::Debug for CompiledProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledProgram")
            .field("fingerprint", &self.fingerprint)
            .field("cache_hit", &self.cache_hit)
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

    /// Structural fingerprint of the source SDFG (one half of the cache key).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Whether this particular [`compile`] call was served from the cache.
    pub fn cache_hit(&self) -> bool {
        self.cache_hit
    }

    /// Hit/miss counters of this program's cache entry.  `misses` is the
    /// number of plans published for this (SDFG, symbols) pair while the
    /// entry lived: `1`.
    pub fn cache_stats(&self) -> PlanCacheStats {
        self.stats.snapshot()
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

    /// The memory tracker of the most recent run (for tests and benchmarks).
    pub fn tracker(&self) -> &MemoryTracker {
        &self.st.tracker
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
        st.tracker = MemoryTracker::new();

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
                st.tracker.alloc(&plan.arrays.names[id], layout.bytes);
            }
        }

        st.syms = plan.init_syms.clone();
        st.exec_cfg(plan, &plan.cfg)?;

        st.report.elapsed = start.elapsed();
        st.report.peak_bytes = st.tracker.peak_bytes();
        st.report.final_bytes = st.tracker.current_bytes();
        let cache = program.stats.snapshot();
        st.report.plan_cache_hits = cache.hits;
        st.report.plan_cache_misses = cache.misses;
        Ok(st.report.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dace_sdfg::{ArrayDesc, ControlFlow, DataflowGraph, State, SymExpr};

    /// Two binding sets that share the key's symbol digest: the entry holds
    /// the bindings it was lowered under, so the caller is served its own.
    #[test]
    fn symbol_digest_collision_serves_the_callers_bindings() {
        let mut sdfg = Sdfg::new("symbol_digest_collision");
        sdfg.add_symbol("N");
        sdfg.add_array("X", ArrayDesc::input(vec![SymExpr::sym("N")]))
            .unwrap();
        let mut graph = DataflowGraph::new();
        graph.add_access("X");
        let state = sdfg.add_state(State {
            name: "s".into(),
            graph,
        });
        sdfg.cfg = ControlFlow::State(state);
        let mine = HashMap::from([("N".to_string(), 3)]);
        let theirs = HashMap::from([("N".to_string(), 5)]);

        // Forge the collision: their plan, published under my key.
        let key = CacheKey::new(fingerprint_sdfg(&sdfg), &mine);
        let plan = Arc::new(compile_plan(&sdfg, &theirs).unwrap());
        let entry = CacheEntry::new(plan, StructuralEcho::of(&sdfg), &theirs);
        lock_cache().publish(key, entry);
        let before = plan_cache_stats().collisions;

        for served_from_cache in [false, true] {
            let program = compile(&sdfg, &mine).unwrap();
            assert_eq!(program.cache_hit(), served_from_cache);
            assert_eq!(program.symbols(), &mine);
            let mut session = program.session();
            session.run().unwrap();
            assert_eq!(session.array("X").unwrap().shape(), &[3]);
        }
        // Counted once: the recompiled plan replaced the colliding entry.
        assert_eq!(plan_cache_stats().collisions - before, 1);
    }
}
