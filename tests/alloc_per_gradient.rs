//! Allocations per warm gradient, counted by a counting global allocator.
//! The binary holds a single test, so nothing else allocates beside it.
//!
//! Inputs are copied into the session's resident buffers and gradients are
//! lent out of the slab: a gradient the caller drops goes home to the
//! session that returned it, and the next run refills the slot with that
//! storage.  So a warm gradient allocates nothing of input size or more once
//! the previous result is dropped, and one buffer per gradient while the
//! caller still holds it (nothing could come home).  The rule before loans
//! (fetch by move) read one per gradient either way, and the one before it
//! (clone in, clone out) inputs + gradients: 6 on gesummv and 4 on atax.
//! Counted at every size, a warm `Session::run` makes a handful of small
//! allocations of run bookkeeping.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use dace_ad_repro::prelude::*;
use npbench::Preset;

/// Counts allocations of at least `MIN_BYTES` bytes while armed (non-zero).
struct Counting;

static MIN_BYTES: AtomicUsize = AtomicUsize::new(0);
static COUNT: AtomicUsize = AtomicUsize::new(0);

fn record(size: usize) {
    let min = MIN_BYTES.load(Ordering::Relaxed);
    if min > 0 && size >= min {
        COUNT.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` unchanged; counting only reads
// the layout.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f` and count its allocations of at least `min_bytes` bytes.  The
/// result is dropped after counting stops.
fn large_allocations<R>(min_bytes: usize, f: impl FnOnce() -> R) -> (R, usize) {
    COUNT.store(0, Ordering::Relaxed);
    MIN_BYTES.store(min_bytes, Ordering::Relaxed);
    let result = f();
    MIN_BYTES.store(0, Ordering::Relaxed);
    (result, COUNT.load(Ordering::Relaxed))
}

#[test]
fn a_warm_gradient_allocates_only_what_the_caller_still_holds() {
    for name in ["gesummv", "atax"] {
        let kernel = npbench::kernel_by_name(name).unwrap();
        let sizes = kernel.sizes(Preset::Bench);
        let inputs = kernel.inputs(&sizes);
        let min_bytes = inputs.values().map(|t| t.len() * 8).min().unwrap();
        let sdfg = kernel.build_dace(&sizes);
        let syms = kernel.symbols(&sizes);
        let wrt = kernel.wrt();
        let mut engine =
            GradientEngine::new(&sdfg, "OUT", &wrt, &syms, &AdOptions::default()).unwrap();

        // `GradientEngine::run`: the first run fills the slab, the second
        // refills what the first took (and dropped).
        for _ in 0..2 {
            engine.run(&inputs).unwrap();
        }
        let (result, n) = large_allocations(min_bytes, || engine.run(&inputs).unwrap());
        assert_eq!(result.gradients.len(), wrt.len());
        assert_eq!(
            n,
            0,
            "{name}: a warm gradient must reuse the dropped gradients' storage and \
             allocate nothing per input ({} inputs of >= {min_bytes} B)",
            inputs.len()
        );
        // `result` is still held: nothing came home for this run to reuse.
        let (held, n) = large_allocations(min_bytes, || engine.run(&inputs).unwrap());
        assert_eq!(
            n,
            wrt.len(),
            "{name}: with the previous result held, a warm gradient allocates one \
             buffer per gradient returned"
        );
        drop((result, held));

        // A `BatchDriver::run_batch` item on a warm pooled session, the
        // batch run in a one-thread pool.
        let plan = engine.plan();
        let mut driver = BatchDriver::new(engine.gradient_program().clone());
        driver.set_free_hints(&plan.free_hints);
        let fetch: Vec<&str> = std::iter::once(plan.output.as_str())
            .chain(
                plan.inputs
                    .iter()
                    .map(|input| plan.gradients[input].as_str()),
            )
            .collect();
        let items: Vec<HashMap<String, Tensor>> = vec![inputs.clone()];
        let one_worker = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        one_worker.install(|| {
            for _ in 0..2 {
                assert_eq!(driver.run_batch(&items, &fetch).report.succeeded, 1);
            }
            let (out, n) = large_allocations(min_bytes, || driver.run_batch(&items, &fetch));
            assert_eq!(out.report.succeeded, 1);
            assert_eq!(
                n, 0,
                "{name}: a warm batch item must reuse the dropped gradients' storage \
                 and allocate nothing for its inputs"
            );
            let (held, n) = large_allocations(min_bytes, || driver.run_batch(&items, &fetch));
            assert_eq!(held.report.succeeded, 1);
            assert_eq!(
                n,
                wrt.len(),
                "{name}: with the previous item held, a warm batch item allocates \
                 only the gradients it fetches"
            );
            drop((out, held));
        });
    }

    // A warm `Session::run` of the gradient program, allocations of every
    // size: what is left is run bookkeeping, not tensors.  The memory
    // tracker counts by array id; when it kept a map by name, the same runs
    // made 17 and 41.
    for (name, most) in [("atax", 6), ("mlp", 11)] {
        let kernel = npbench::kernel_by_name(name).unwrap();
        let sizes = kernel.sizes(Preset::Bench);
        let inputs = kernel.inputs(&sizes);
        let sdfg = kernel.build_dace(&sizes);
        let syms = kernel.symbols(&sizes);
        let engine =
            GradientEngine::new(&sdfg, "OUT", &kernel.wrt(), &syms, &AdOptions::default()).unwrap();
        let mut session = engine
            .gradient_program()
            .session()
            .with_free_hints(&engine.plan().free_hints);
        for (input, tensor) in &inputs {
            session.copy_input(input, tensor).unwrap();
        }
        for _ in 0..2 {
            session.run().unwrap();
        }
        let (_, n) = large_allocations(1, || session.run().unwrap());
        assert!(
            n <= most,
            "{name}: a warm `Session::run` made {n} allocations, at most {most} expected"
        );
    }
}
