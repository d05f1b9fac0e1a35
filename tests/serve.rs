//! Dynamic-admission serving of one program: coalescing, determinism,
//! deadlines, cancellation, concurrent submission and drop-drain semantics
//! of a one-tenant `Gateway` / `GradientEngine::serve` (the multi-tenant
//! behaviours live in `tests/gateway.rs`).

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

use dace_ad_repro::prelude::*;
use dace_tensor::Tensor;

mod common;

fn symbols(pairs: &[(&str, i64)]) -> HashMap<String, i64> {
    pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

/// `Y = sin(X) * X + 2`, N = 32: element-wise, distinct per input.
fn elementwise_program() -> (dace_ad_repro::sdfg::Sdfg, HashMap<String, i64>) {
    let mut b = ProgramBuilder::new("serve_dyn");
    let n = b.symbol("N");
    b.add_input("X", vec![n.clone()]).unwrap();
    b.add_input("Y", vec![n.clone()]).unwrap();
    b.assign(
        "Y",
        ArrayExpr::a("X")
            .sin()
            .mul(ArrayExpr::a("X"))
            .add(ArrayExpr::s(2.0)),
    );
    (b.build().unwrap(), symbols(&[("N", 32)]))
}

fn item(i: usize) -> HashMap<String, Tensor> {
    let data: Vec<f64> = (0..32).map(|j| (i * 31 + j) as f64 * 0.125 - 1.5).collect();
    HashMap::from([("X".to_string(), Tensor::from_vec(data, &[32]).unwrap())])
}

/// Serial single-session reference outputs for `item(0..n)`.
fn serial_reference(program: &CompiledProgram, n: usize) -> Vec<Tensor> {
    let mut session = program.session();
    (0..n)
        .map(|i| {
            session.clear_bindings();
            for (k, v) in item(i) {
                session.set_input(&k, v).unwrap();
            }
            session.run().unwrap();
            session.array("Y").unwrap().clone()
        })
        .collect()
}

fn bits(t: &Tensor) -> Vec<u64> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

const TENANT: &str = "solo";

/// A gateway with `program` as its only tenant, configured the way
/// `GradientEngine::serve()` configures its own: an unbounded queue.
fn solo_gateway(program: CompiledProgram, max_batch: usize) -> Gateway {
    let gateway = Gateway::new(GatewayOptions {
        max_batch,
        queue_capacity: usize::MAX,
    });
    gateway
        .register(TENANT, BatchDriver::new(program), TenantConfig::default())
        .unwrap();
    gateway
}

fn submit(gateway: &Gateway, i: usize) -> GatewayHandle {
    gateway.submit(TENANT, item(i), &["Y"]).unwrap()
}

fn submit_with_deadline(gateway: &Gateway, i: usize, deadline: Duration) -> GatewayHandle {
    let opts = SubmitOptions {
        deadline: Some(deadline),
    };
    gateway.submit_with(TENANT, item(i), &["Y"], opts).unwrap()
}

fn stats(gateway: &Gateway) -> TenantStats {
    gateway.stats().tenants.remove(TENANT).unwrap()
}

/// Occupy the dispatcher (see [`common::plug_dispatcher`]).
fn plug(gateway: &Gateway) -> GatewayHandle {
    common::plug_dispatcher(gateway)
}

/// Individually submitted requests that arrive while a dispatch executes
/// are coalesced into the next one, and every result is bit-identical to a
/// serial session loop.
#[test]
fn submitted_requests_coalesce_and_match_serial() {
    let (sdfg, syms) = elementwise_program();
    let program = compile(&sdfg, &syms).unwrap();
    let reference = serial_reference(&program, 6);

    let server = solo_gateway(program, 6);
    let held = plug(&server);
    let handles: Vec<_> = (0..6).map(|i| submit(&server, i)).collect();
    for (i, handle) in handles.into_iter().enumerate() {
        let response = handle.wait().unwrap();
        assert_eq!(
            bits(&response.outputs["Y"]),
            bits(&reference[i]),
            "served item {i} diverged from the serial reference"
        );
        assert_eq!(
            response.batched_with, 6,
            "all six requests must ride one coalesced dispatch"
        );
        assert!(response.latency > Duration::ZERO);
    }
    assert_eq!(held.wait().unwrap().batched_with, 1);
    let stats = stats(&server);
    assert_eq!(stats.admitted, 6);
    assert_eq!(stats.completed, 6);
    assert_eq!(stats.batches, 1, "one dispatch served the whole burst");
    assert_eq!(stats.largest_batch, 6);
    assert_eq!(stats.queue_depth, 0);
    assert!(stats.p95_latency >= stats.p50_latency);
    assert!(stats.p50_latency > Duration::ZERO);
}

/// Deadline-expired requests are rejected with `DeadlineExceeded` without
/// ever occupying a worker — asserted both for a zero budget (rejected at
/// admission) and for a request whose deadline passes while it is queued
/// behind a running dispatch (rejected when the dispatcher returns).  No
/// session is ever created for them.
#[test]
fn deadline_expired_requests_never_execute() {
    let (sdfg, syms) = elementwise_program();
    let program = compile(&sdfg, &syms).unwrap();
    let server = solo_gateway(program, 8);

    // Zero budget: expired at admission, never enqueued.
    let handle = submit_with_deadline(&server, 0, Duration::ZERO);
    match handle.wait() {
        Err(ServeError::DeadlineExceeded { .. }) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // Queued expiry: the deadline (20ms) passes while the dispatcher is
    // held by the plug; at its return the request is swept, not claimed.
    let held = plug(&server);
    let handle = submit_with_deadline(&server, 1, Duration::from_millis(20));
    match handle.wait() {
        Err(ServeError::DeadlineExceeded { missed_by }) => {
            assert!(missed_by > Duration::ZERO);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    held.wait().unwrap();

    let stats = stats(&server);
    assert_eq!(stats.expired, 2);
    assert_eq!(stats.completed, 0);
    assert_eq!(
        stats.batches, 0,
        "no dispatch may fire for expired requests"
    );
    assert_eq!(
        stats.sessions_created, 0,
        "an expired request must never occupy a worker session"
    );
}

/// Cancellation succeeds on queued requests (completing them with
/// `Cancelled`), is idempotent-false afterwards, and does not disturb other
/// requests queued beside them.
#[test]
fn cancel_works_on_queued_requests() {
    let (sdfg, syms) = elementwise_program();
    let program = compile(&sdfg, &syms).unwrap();
    let reference = serial_reference(&program, 2);
    let server = solo_gateway(program, 8);

    let held = plug(&server);
    let doomed = submit(&server, 0);
    let survivor = submit(&server, 1);
    assert!(doomed.cancel(), "a queued request must be cancellable");
    assert!(!doomed.cancel(), "a second cancel is a no-op");
    assert!(doomed.is_done());
    match doomed.try_wait() {
        Some(Err(ServeError::Cancelled)) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    match doomed.wait() {
        Err(ServeError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }

    let response = survivor.wait().unwrap();
    assert_eq!(bits(&response.outputs["Y"]), bits(&reference[1]));
    assert_eq!(
        response.batched_with, 1,
        "the cancelled peer must not count into the dispatch"
    );
    held.wait().unwrap();
    let stats = stats(&server);
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed, 1, "the survivor");
}

/// `try_wait` polls without consuming: repeated polls and the final `wait`
/// all observe the same completed result.
#[test]
fn try_wait_polls_then_wait_takes() {
    let (sdfg, syms) = elementwise_program();
    let program = compile(&sdfg, &syms).unwrap();
    let reference = serial_reference(&program, 1);
    let server = solo_gateway(program, 1);
    let handle = submit(&server, 0);
    let polled = loop {
        if let Some(result) = handle.try_wait() {
            break result;
        }
        std::thread::yield_now();
    };
    let polled = polled.unwrap();
    let polled_again = handle.try_wait().expect("still done").unwrap();
    let taken = handle.wait().unwrap();
    for response in [&polled, &polled_again, &taken] {
        assert_eq!(bits(&response.outputs["Y"]), bits(&reference[0]));
    }
}

/// N threads submitting concurrently with mixed deadlines and
/// cancellations: every handle resolves exactly once (no lost, no
/// double-completed), completed results are bit-identical to serial runs,
/// and the session pool never exceeds the dispatch bound.
#[test]
fn concurrent_mixed_submissions_are_exact_and_bounded() {
    const THREADS: usize = 6;
    const PER_THREAD: usize = 8;
    const MAX_BATCH: usize = 4;
    let (sdfg, syms) = elementwise_program();
    let program = compile(&sdfg, &syms).unwrap();
    let reference = serial_reference(&program, THREADS * PER_THREAD);
    let server = solo_gateway(program, MAX_BATCH);

    enum Outcome {
        Completed(usize, Vec<u64>),
        Cancelled,
    }
    let outcomes: Mutex<Vec<Outcome>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let server = &server;
            let outcomes = &outcomes;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let idx = t * PER_THREAD + i;
                    // Every third request carries a generous deadline (it
                    // must still complete); every fourth race-cancels.
                    let handle = if idx.is_multiple_of(3) {
                        submit_with_deadline(server, idx, Duration::from_secs(60))
                    } else {
                        submit(server, idx)
                    };
                    let cancelled = idx.is_multiple_of(4) && handle.cancel();
                    let outcome = match handle.wait() {
                        Ok(response) => {
                            assert!(!cancelled, "a cancelled handle must not complete");
                            Outcome::Completed(idx, bits(&response.outputs["Y"]))
                        }
                        Err(ServeError::Cancelled) => {
                            assert!(cancelled, "only race-cancelled requests may cancel");
                            Outcome::Cancelled
                        }
                        Err(e) => panic!("request {idx} failed unexpectedly: {e}"),
                    };
                    outcomes.lock().unwrap().push(outcome);
                }
            });
        }
    });

    let outcomes = outcomes.into_inner().unwrap();
    assert_eq!(
        outcomes.len(),
        THREADS * PER_THREAD,
        "every handle must resolve exactly once"
    );
    let mut completed = 0u64;
    let mut cancelled = 0u64;
    for outcome in &outcomes {
        match outcome {
            Outcome::Completed(idx, got) => {
                completed += 1;
                assert_eq!(
                    got,
                    &bits(&reference[*idx]),
                    "served item {idx} diverged from the serial reference"
                );
            }
            Outcome::Cancelled => cancelled += 1,
        }
    }
    let stats = stats(&server);
    assert!(stats.conserves());
    assert_eq!(stats.admitted, (THREADS * PER_THREAD) as u64);
    assert_eq!(stats.completed, completed);
    assert_eq!(stats.cancelled, cancelled);
    assert_eq!(stats.completed + stats.cancelled, stats.admitted);
    assert_eq!(stats.expired, 0);
    assert_eq!(stats.failed, 0);
    assert!(stats.largest_batch <= MAX_BATCH);
    // The dispatcher serves one batch at a time, so the pool can never
    // outgrow the dispatch bound — however many threads submit.
    assert!(
        stats.sessions_created <= MAX_BATCH as u64,
        "session pool exceeded the dispatch bound: created {}",
        stats.sessions_created
    );
    assert!(stats.pooled_sessions <= MAX_BATCH);
}

/// Shutting the gateway down (what drop does) drains the queue:
/// outstanding handles all resolve
/// (drop never strands a request), and submissions after shutdown are
/// rejected with `ShuttingDown`.
#[test]
fn drop_drains_outstanding_requests() {
    let (sdfg, syms) = elementwise_program();
    let program = compile(&sdfg, &syms).unwrap();
    let reference = serial_reference(&program, 4);
    let server = solo_gateway(program, 8);
    // Queued behind a running dispatch when the shutdown arrives.
    let held = plug(&server);
    let handles: Vec<_> = (0..4).map(|i| submit(&server, i)).collect();
    server.shutdown();
    held.wait().unwrap();
    for (i, handle) in handles.into_iter().enumerate() {
        let response = handle.wait().unwrap();
        assert_eq!(bits(&response.outputs["Y"]), bits(&reference[i]));
    }
    let late = submit(&server, 0);
    match late.wait() {
        Err(ServeError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
}

/// Engine-level serving through the engine's private gateway
/// (`GradientEngine::serve`): the gateway is the single-program
/// configuration, and served gradients, submit-time validation, the zero
/// budget and the stats behave as `AtaxEngine::assert_client_matches_blocking`
/// requires.
#[test]
fn engine_serve_matches_blocking_run() {
    let mut fixture = common::AtaxEngine::new();
    let server = fixture.engine.serve();
    let options = server.gateway().options();
    assert_eq!(options.queue_capacity, usize::MAX);
    fixture.assert_client_matches_blocking(&server);
}

/// Conservation stress: while submitter threads race plain submissions,
/// tight deadlines and cancellations against the dispatcher, a sampler
/// thread takes `stats()` snapshots continuously.  The request-conservation
/// invariant (`TenantStats::conserves`) must hold on *every* snapshot — a
/// torn snapshot (counters read at different instants) shows up here as a
/// transient imbalance.
#[test]
fn stats_snapshots_conserve_requests_under_load() {
    use std::sync::atomic::{AtomicBool, Ordering};

    const THREADS: usize = 4;
    const PER_THREAD: usize = 12;
    let (sdfg, syms) = elementwise_program();
    let program = compile(&sdfg, &syms).unwrap();
    let server = solo_gateway(program, 3);

    let check = |stats: &TenantStats, when: &str| {
        assert!(stats.conserves(), "torn snapshot ({when}): {stats:?}");
    };

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Sampler: hammer `stats()` for the whole run, checking every
        // snapshot.  A coherent implementation never shows an imbalance,
        // however the sample interleaves with lifecycle transitions.
        let sampler = {
            let server = &server;
            let done = &done;
            scope.spawn(move || {
                let mut samples = 0u64;
                while !done.load(Ordering::Acquire) {
                    check(&stats(server), "during load");
                    samples += 1;
                }
                samples
            })
        };

        let submitters: Vec<_> = (0..THREADS)
            .map(|t| {
                let server = &server;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        let idx = t * PER_THREAD + i;
                        // Mix the lifecycle paths: zero budgets expire at
                        // admission, 1 ms budgets may expire in the queue or
                        // complete, the rest are plain; every fifth
                        // race-cancels.
                        let handle = match idx % 3 {
                            0 => submit_with_deadline(server, idx, Duration::ZERO),
                            1 => submit_with_deadline(server, idx, Duration::from_millis(1)),
                            _ => submit(server, idx),
                        };
                        if idx.is_multiple_of(5) {
                            handle.cancel();
                        }
                        // Every terminal outcome is legal here; waiting
                        // keeps the handles resolved so the final snapshot
                        // is total.
                        match handle.wait() {
                            Ok(_)
                            | Err(ServeError::Cancelled)
                            | Err(ServeError::DeadlineExceeded { .. }) => {}
                            Err(e) => panic!("request {idx} failed unexpectedly: {e}"),
                        }
                    }
                })
            })
            .collect();

        for submitter in submitters {
            submitter.join().unwrap();
        }
        done.store(true, Ordering::Release);
        let samples = sampler.join().unwrap();
        assert!(samples > 0, "the sampler must have observed the run");
    });

    // Quiescent snapshot: everything admitted reached a terminal state.
    let stats = stats(&server);
    check(&stats, "at quiescence");
    assert_eq!(stats.admitted, (THREADS * PER_THREAD) as u64);
    assert_eq!(stats.queue_depth, 0, "no request may remain queued");
    assert_eq!(stats.in_flight, 0, "no request may remain in flight");
    assert_eq!(stats.failed, 0);
}

/// `wait_timeout` covers both sides of the expired-then-completed race:
/// `None` while pending (the caller keeps the handle), `Some` once done,
/// and a subsequent `wait` still consumes the result exactly once.
#[test]
fn wait_timeout_reports_pending_then_completion() {
    let (sdfg, syms) = elementwise_program();
    let program = compile(&sdfg, &syms).unwrap();
    let server = solo_gateway(program.clone(), 8);

    // Behind the plug the request stays pending until we've sampled it.
    let _held = plug(&server);
    let handle = submit(&server, 0);
    // Pending: a zero-ish timeout must return None without consuming.
    assert!(
        handle.wait_timeout(Duration::ZERO).is_none(),
        "a pending request must time out, not resolve"
    );
    assert!(!handle.is_done());
    // Completion: a generous timeout observes the result...
    let observed = handle
        .wait_timeout(Duration::from_secs(30))
        .expect("request must complete once the plug has returned");
    let expected = serial_reference(&program, 1);
    assert_eq!(bits(&observed.unwrap().outputs["Y"]), bits(&expected[0]));
    // ...and does not consume it: the handle still resolves through the
    // one-shot paths afterwards.
    assert!(handle.is_done());
    assert!(handle.try_wait().is_some());
    assert!(handle.wait().is_ok());
}
