//! Regression tests for the plan cache's bounded-LRU behaviour, for the
//! fingerprint-collision echo and for what `compile()` promises now that it
//! looks up before it validates and lowers outside the lock.
//!
//! These tests mutate process-global cache state (capacity, entries), so
//! they live in their own integration binary and serialise themselves with
//! a file-local mutex: other test binaries run in separate processes and
//! are unaffected.

use std::collections::HashMap;
use std::sync::{Barrier, Mutex};

use dace_ad_repro::prelude::*;
use dace_ad_repro::runtime::{
    clear_plan_cache, debug_fingerprint_sdfg, debug_inject_plan_cache_alias, plan_cache_capacity,
    plan_cache_len, plan_cache_stats, set_plan_cache_capacity, RuntimeError,
    DEFAULT_PLAN_CACHE_CAPACITY,
};
use dace_ad_repro::sdfg::Edge;
use dace_tensor::Tensor;

/// Serialises the tests in this binary (they mutate the process-wide cache).
static CACHE_GUARD: Mutex<()> = Mutex::new(());

fn symbols(pairs: &[(&str, i64)]) -> HashMap<String, i64> {
    pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

/// `OUT = X * scale` under a caller-chosen program and array name, so each
/// test mints structurally distinct SDFGs at will.
fn scale_program(name: &str, input: &str, scale: f64) -> dace_ad_repro::sdfg::Sdfg {
    let mut b = ProgramBuilder::new(name);
    let n = b.symbol("N");
    b.add_input(input, vec![n.clone()]).unwrap();
    b.add_input("OUT", vec![n.clone()]).unwrap();
    b.assign("OUT", ArrayExpr::a(input).mul(ArrayExpr::s(scale)));
    b.build().unwrap()
}

fn run_once(program: &CompiledProgram, input: &str, x: &[f64]) -> Vec<f64> {
    let mut session = program.session();
    session
        .set_input(input, Tensor::from_vec(x.to_vec(), &[x.len()]).unwrap())
        .unwrap();
    session.run().unwrap();
    session.array("OUT").unwrap().data().to_vec()
}

/// A sweep past the capacity evicts LRU entries instead of growing without
/// bound; hit/miss accounting stays correct across eviction, and evictions
/// are counted.
#[test]
fn lru_eviction_bounds_the_cache_and_keeps_counters_correct() {
    let _guard = CACHE_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    clear_plan_cache();
    set_plan_cache_capacity(2);
    assert_eq!(plan_cache_capacity(), 2);

    let syms = symbols(&[("N", 4)]);
    let a = scale_program("lru_a", "X", 2.0);
    let b = scale_program("lru_b", "X", 3.0);
    let c = scale_program("lru_c", "X", 4.0);

    let before = plan_cache_stats();
    let pa = compile(&a, &syms).unwrap();
    assert!(!pa.cache_hit());
    let pb = compile(&b, &syms).unwrap();
    assert!(!pb.cache_hit());
    assert_eq!(plan_cache_len(), 2);

    // Touch A so B becomes the LRU entry, then insert C: B is evicted.
    assert!(compile(&a, &syms).unwrap().cache_hit());
    let pc = compile(&c, &syms).unwrap();
    assert!(!pc.cache_hit());
    assert_eq!(plan_cache_len(), 2, "the cache must stay at its capacity");
    let after = plan_cache_stats();
    assert_eq!(after.evictions - before.evictions, 1, "one LRU eviction");

    // A stayed (recently used), B was evicted: recompiling B is a genuine
    // second lowering and the fresh entry starts over at misses == 1.
    assert!(compile(&a, &syms).unwrap().cache_hit());
    let pb2 = compile(&b, &syms).unwrap();
    assert!(!pb2.cache_hit(), "an evicted entry must recompile");
    assert_eq!(pb2.cache_stats().misses, 1);
    assert_eq!(pb2.cache_stats().hits, 0);
    let final_stats = plan_cache_stats();
    assert_eq!(
        final_stats.misses - before.misses,
        4,
        "A, B, C and the post-eviction B recompile each lowered once"
    );
    assert_eq!(
        final_stats.hits - before.hits,
        2,
        "the two post-touch compiles of A were the only hits"
    );
    // Evicted plans stay alive through their programs' own Arcs.
    assert_eq!(
        run_once(&pb, "X", &[1.0, 2.0, 3.0, 4.0]),
        [3.0, 6.0, 9.0, 12.0]
    );

    set_plan_cache_capacity(DEFAULT_PLAN_CACHE_CAPACITY);
    clear_plan_cache();
}

/// Shrinking the capacity below the current population evicts immediately.
#[test]
fn shrinking_capacity_evicts_immediately() {
    let _guard = CACHE_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    clear_plan_cache();
    set_plan_cache_capacity(DEFAULT_PLAN_CACHE_CAPACITY);

    let syms = symbols(&[("N", 4)]);
    for i in 0..5 {
        let p = scale_program(&format!("shrink_{i}"), "X", i as f64 + 1.0);
        compile(&p, &syms).unwrap();
    }
    assert_eq!(plan_cache_len(), 5);
    let before = plan_cache_stats();
    set_plan_cache_capacity(2);
    assert_eq!(plan_cache_len(), 2);
    assert_eq!(plan_cache_stats().evictions - before.evictions, 3);
    // Capacity is clamped to at least one plan.
    set_plan_cache_capacity(0);
    assert_eq!(plan_cache_capacity(), 1);
    assert_eq!(plan_cache_len(), 1);

    set_plan_cache_capacity(DEFAULT_PLAN_CACHE_CAPACITY);
    clear_plan_cache();
}

/// A forged fingerprint collision is detected via the structural echo and
/// treated as a miss: the victim recompiles and computes *its own* program,
/// never the donor's plan.
#[test]
fn fingerprint_collision_recompiles_instead_of_serving_wrong_plan() {
    let _guard = CACHE_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    clear_plan_cache();
    set_plan_cache_capacity(DEFAULT_PLAN_CACHE_CAPACITY);

    let syms = symbols(&[("N", 4)]);
    // Donor and victim differ structurally (different input array name and
    // scale), so their echoes differ — as two genuinely colliding programs
    // would.
    let donor = scale_program("collision_donor", "A", 10.0);
    let victim = scale_program("collision_victim", "X", 2.0);

    // Forge the collision: the donor's plan is cached under the *victim's*
    // fingerprint.
    let forged = debug_fingerprint_sdfg(&victim);
    assert_ne!(forged, debug_fingerprint_sdfg(&donor));
    debug_inject_plan_cache_alias(&donor, &syms, forged);

    let before = plan_cache_stats();
    let program = compile(&victim, &syms).unwrap();
    assert!(
        !program.cache_hit(),
        "a collision must be treated as a miss, not a hit"
    );
    let after = plan_cache_stats();
    assert_eq!(after.collisions - before.collisions, 1);
    assert_eq!(after.misses - before.misses, 1);

    // The recompiled plan computes the victim's semantics (x2), not the
    // donor's (x10) — with the old code this returned [10, 20, 30, 40].
    assert_eq!(
        run_once(&program, "X", &[1.0, 2.0, 3.0, 4.0]),
        [2.0, 4.0, 6.0, 8.0]
    );

    // The colliding entry was replaced: compiling the victim again is now a
    // clean hit on its own plan.
    let again = compile(&victim, &syms).unwrap();
    assert!(again.cache_hit());
    assert_eq!(plan_cache_stats().collisions, after.collisions);

    clear_plan_cache();
}

/// An SDFG that fails validation is never published, so it misses, validates
/// and fails typed on its first and on every later call — the lookup that
/// now comes first has nothing to find.
#[test]
fn invalid_sdfg_fails_typed_on_every_call() {
    let _guard = CACHE_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    clear_plan_cache();

    let syms = symbols(&[("N", 4)]);
    let mut invalid = scale_program("invalid_every_call", "X", 2.0);
    invalid.states[0].graph.add_access("undeclared");
    let before = plan_cache_stats();
    for call in 1..=3 {
        let err = compile(&invalid, &syms).unwrap_err();
        assert!(
            matches!(err, RuntimeError::InvalidSdfg { .. }),
            "call {call}: {err}"
        );
        assert_eq!(plan_cache_len(), 0, "call {call} published a plan");
    }
    assert_eq!(plan_cache_stats(), before, "nothing hit, nothing lowered");
}

/// A hit skips validation because the fingerprint identifies the structure
/// validation checks: the same program made invalid is another key, so it
/// cannot ride on the valid program's entry.
#[test]
fn a_valid_entry_is_no_hit_for_its_invalid_mutant() {
    let _guard = CACHE_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    clear_plan_cache();

    let syms = symbols(&[("N", 4)]);
    let valid = scale_program("valid_then_invalid", "X", 2.0);
    assert!(!compile(&valid, &syms).unwrap().cache_hit());
    assert!(compile(&valid, &syms).unwrap().cache_hit());

    // A dangling edge: same arrays, symbols and state count, so the echo
    // alone would not tell the two apart.
    let mut mutant = valid.clone();
    let edge = mutant.states[0].graph.edges[0].clone();
    mutant.states[0].graph.edges.push(Edge { dst: 99, ..edge });
    let err = compile(&mutant, &syms).unwrap_err();
    assert!(matches!(err, RuntimeError::InvalidSdfg { .. }), "{err}");
    assert_eq!(plan_cache_len(), 1);
    assert!(compile(&valid, &syms).unwrap().cache_hit());

    clear_plan_cache();
}

/// Lowering happens outside the lock, so threads compiling one key from an
/// empty cache may each lower it — but exactly one plan is published and
/// every thread is handed that one.
#[test]
fn concurrent_compiles_of_one_key_share_one_plan() {
    const THREADS: usize = 8;
    let _guard = CACHE_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    clear_plan_cache();
    set_plan_cache_capacity(DEFAULT_PLAN_CACHE_CAPACITY);

    let syms = symbols(&[("N", 4)]);
    let before = plan_cache_stats();
    let start = Barrier::new(THREADS);
    let programs: Vec<CompiledProgram> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    // Built per thread: equal structure, not a shared value.
                    let sdfg = scale_program("concurrent_one_key", "X", 2.0);
                    start.wait();
                    compile(&sdfg, &syms).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(plan_cache_len(), 1);
    let after = plan_cache_stats();
    assert_eq!(after.misses - before.misses, 1, "one plan published");
    assert_eq!(after.hits - before.hits, THREADS as u64 - 1);
    assert_eq!(programs.iter().filter(|p| !p.cache_hit()).count(), 1);
    for program in &programs {
        assert_eq!(program.fingerprint(), programs[0].fingerprint());
        // One entry's counters behind every handle: they hold one plan.
        assert_eq!(program.cache_stats().misses, 1);
        assert_eq!(program.cache_stats().hits, THREADS as u64 - 1);
        assert_eq!(
            run_once(program, "X", &[1.0, 2.0, 3.0, 4.0]),
            [2.0, 4.0, 6.0, 8.0]
        );
    }

    clear_plan_cache();
}
