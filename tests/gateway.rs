//! Multi-tenant gateway: WDRR fairness, backpressure, retries, circuit
//! breaking, graceful reload, fault injection, shutdown-under-load and the
//! exactly-once handle contract of `Gateway` /
//! `GradientEngine::register_with` / `GradientEngine::serve`.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dace_ad_repro::prelude::*;
use dace_tensor::Tensor;
use npbench::Preset;

mod common;

const N: usize = 16;

fn symbols() -> HashMap<String, i64> {
    HashMap::from([("N".to_string(), N as i64)])
}

/// `Y = 2X + 1` — tenant "alpha"'s program.
fn alpha_program() -> CompiledProgram {
    let mut b = ProgramBuilder::new("gw_alpha");
    let n = b.symbol("N");
    b.add_input("X", vec![n.clone()]).unwrap();
    b.add_input("Y", vec![n.clone()]).unwrap();
    b.assign(
        "Y",
        ArrayExpr::a("X")
            .mul(ArrayExpr::s(2.0))
            .add(ArrayExpr::s(1.0)),
    );
    compile(&b.build().unwrap(), &symbols()).unwrap()
}

/// `Y = X·X − 3` — tenant "beta"'s program.
fn beta_program() -> CompiledProgram {
    let mut b = ProgramBuilder::new("gw_beta");
    let n = b.symbol("N");
    b.add_input("X", vec![n.clone()]).unwrap();
    b.add_input("Y", vec![n.clone()]).unwrap();
    b.assign(
        "Y",
        ArrayExpr::a("X")
            .mul(ArrayExpr::a("X"))
            .sub(ArrayExpr::s(3.0)),
    );
    compile(&b.build().unwrap(), &symbols()).unwrap()
}

/// `Y = 3X` — the program "alpha" hot-swaps to in the reload test.
fn alpha_v2_program() -> CompiledProgram {
    let mut b = ProgramBuilder::new("gw_alpha_v2");
    let n = b.symbol("N");
    b.add_input("X", vec![n.clone()]).unwrap();
    b.add_input("Y", vec![n.clone()]).unwrap();
    b.assign("Y", ArrayExpr::a("X").mul(ArrayExpr::s(3.0)));
    compile(&b.build().unwrap(), &symbols()).unwrap()
}

fn item(i: usize) -> HashMap<String, Tensor> {
    let data: Vec<f64> = (0..N).map(|j| (i * 17 + j) as f64 * 0.25 - 2.0).collect();
    HashMap::from([("X".to_string(), Tensor::from_vec(data, &[N]).unwrap())])
}

/// Serial single-session reference for `item(i)` on `program`.
fn reference(program: &CompiledProgram, i: usize) -> Tensor {
    let mut session = program.session();
    for (k, v) in item(i) {
        session.set_input(&k, v).unwrap();
    }
    session.run().unwrap();
    session.array("Y").unwrap().clone()
}

/// Register `program` as tenant `name` with the default config.
fn register(gateway: &Gateway, name: &str, program: CompiledProgram) {
    gateway
        .register(name, BatchDriver::new(program), TenantConfig::default())
        .unwrap();
}

fn bits(t: &Tensor) -> Vec<u64> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Wait with a generous bound: a handle that does not resolve within it is
/// a *lost* handle — exactly the contract violation this suite polices.
fn must_resolve(handle: GatewayHandle) -> Result<ServeResponse, ServeError> {
    let _ = handle
        .wait_timeout(Duration::from_secs(30))
        .expect("handle lost: no resolution within 30s");
    handle.wait()
}

/// Poll `stats()` until `pred` holds (or panic after a generous bound).
fn wait_for(gateway: &Gateway, pred: impl Fn(&GatewayStats) -> bool, what: &str) {
    let start = Instant::now();
    loop {
        if pred(&gateway.stats()) {
            return;
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "timed out waiting for: {what}"
        );
        std::thread::yield_now();
    }
}

/// Occupy the dispatcher with `item(i)` on tenant "alpha" (see
/// [`common::plug_dispatcher`]).
fn plug(gateway: &Gateway, i: usize) -> GatewayHandle {
    common::plug_dispatcher(gateway, "alpha", item(i), &["Y"])
}

/// Two tenants, interleaved submissions: every result is bit-identical to
/// a serial session run of the right tenant's program, and both tenants'
/// counters conserve.
#[test]
fn two_tenants_serve_bit_identical_results() {
    let alpha = alpha_program();
    let beta = beta_program();
    let gateway = Gateway::new(GatewayOptions {
        max_batch: 4,
        ..GatewayOptions::default()
    });
    register(&gateway, "alpha", alpha.clone());
    register(&gateway, "beta", beta.clone());

    let handles: Vec<(usize, &CompiledProgram, GatewayHandle)> = (0..12)
        .map(|i| {
            let (name, program) = if i % 2 == 0 {
                ("alpha", &alpha)
            } else {
                ("beta", &beta)
            };
            (i, program, gateway.submit(name, item(i), &["Y"]).unwrap())
        })
        .collect();
    for (i, program, handle) in handles {
        let response = must_resolve(handle).unwrap();
        assert_eq!(
            bits(&response.outputs["Y"]),
            bits(&reference(program, i)),
            "item {i} diverged from its tenant's serial reference"
        );
        assert!(response.batched_with >= 1);
    }
    let stats = gateway.stats();
    assert!(stats.conserves(), "counters must conserve: {stats:?}");
    assert_eq!(stats.tenants["alpha"].completed, 6);
    assert_eq!(stats.tenants["beta"].completed, 6);
    assert_eq!(stats.tenants["alpha"].failed, 0);
    assert!(stats.dispatches >= 2, "each tenant dispatches separately");
}

/// Work-conserving dispatch: an idle dispatcher sends a lone request at
/// once, so its latency is the execute time plus the admission path — not a
/// wait for peers that never come.
#[test]
fn a_lone_request_is_dispatched_at_once() {
    let gateway = Gateway::new(GatewayOptions::default());
    register(&gateway, "alpha", alpha_program());
    let mut latencies: Vec<Duration> = (0..41)
        .map(|i| {
            let handle = gateway.submit("alpha", item(i), &["Y"]).unwrap();
            let response = must_resolve(handle).unwrap();
            assert_eq!(response.batched_with, 1, "request {i} had no peer");
            response.latency
        })
        .collect();
    latencies.sort();
    assert!(
        latencies[20] < Duration::from_millis(1),
        "median submit-to-completion latency of a lone request: {:?}",
        latencies[20]
    );
    let stats = gateway.stats();
    assert!(stats.conserves());
    assert_eq!(stats.tenants["alpha"].batches, 41);
}

/// The self-pacing rule: whatever arrives while a dispatch executes forms
/// the next batch — `k <= max_batch` requests ride one dispatch, a backlog
/// of `max_batch + 3` splits into `max_batch` and 3 — and every result is
/// bit-identical to the serial reference.
#[test]
fn arrivals_during_a_dispatch_form_the_next_batch() {
    const MAX_BATCH: usize = 4;
    let program = alpha_program();
    let gateway = Gateway::new(GatewayOptions {
        max_batch: MAX_BATCH,
        ..GatewayOptions::default()
    });
    register(&gateway, "alpha", program.clone());

    for (backlog, expect) in [(3, vec![3; 3]), (MAX_BATCH + 3, vec![4, 4, 4, 4, 3, 3, 3])] {
        let held = plug(&gateway, backlog);
        let handles: Vec<_> = (0..backlog)
            .map(|i| gateway.submit("alpha", item(i), &["Y"]).unwrap())
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            let response = must_resolve(handle).unwrap();
            assert_eq!(bits(&response.outputs["Y"]), bits(&reference(&program, i)));
            assert_eq!(
                response.batched_with, expect[i],
                "item {i} of a backlog of {backlog}"
            );
        }
        assert_eq!(must_resolve(held).unwrap().batched_with, 1);
    }
    let stats = gateway.stats();
    assert!(stats.conserves());
    let t = &stats.tenants["alpha"];
    assert_eq!(t.completed, 2 + 3 + 7);
    assert_eq!(
        t.batches,
        2 + 1 + 2,
        "two plugs, then one and two dispatches"
    );
    assert_eq!(t.largest_batch, MAX_BATCH);
}

/// Equal-weight WDRR: a tenant with a small backlog drains while a hot
/// tenant with 4× the backlog is still being served — the hot tenant
/// cannot starve the small one.
#[test]
fn wdrr_small_tenant_is_not_starved_by_hot_tenant() {
    let gateway = Gateway::new(GatewayOptions {
        max_batch: 2,
        queue_capacity: 64,
        ..GatewayOptions::default()
    });
    register(&gateway, "hot", alpha_program());
    register(&gateway, "small", beta_program());
    // Make each dispatch take real time so scheduling order is observable.
    for t in ["hot", "small"] {
        gateway
            .inject_faults(
                t,
                FaultPlan {
                    delay: Duration::from_millis(5),
                    ..FaultPlan::default()
                },
            )
            .unwrap();
    }

    let hot: Vec<_> = (0..16)
        .map(|i| gateway.submit("hot", item(i), &["Y"]).unwrap())
        .collect();
    let small: Vec<_> = (0..4)
        .map(|i| gateway.submit("small", item(i), &["Y"]).unwrap())
        .collect();
    for handle in small {
        must_resolve(handle).unwrap();
    }
    // Round-robin alternates tenants batch for batch, so when the small
    // tenant's 2 batches have completed the hot tenant can have consumed
    // only a comparable number of its 8 — most of its backlog remains.
    let hot_done = hot.iter().filter(|h| h.is_done()).count();
    assert!(
        hot_done < hot.len(),
        "fair scheduling must interleave: the hot tenant finished all \
         {} requests before the small tenant's 4 completed",
        hot.len()
    );
    for handle in hot {
        must_resolve(handle).unwrap();
    }
    assert!(gateway.stats().conserves());
}

/// Weighted WDRR: with equal backlogs, a weight-3 tenant earns three
/// consecutive batches per round-robin visit and drains well before its
/// weight-1 peer.
#[test]
fn wdrr_weight_skews_dispatch_share() {
    let gateway = Gateway::new(GatewayOptions {
        max_batch: 2,
        ..GatewayOptions::default()
    });
    gateway
        .register(
            "heavy",
            BatchDriver::new(alpha_program()),
            TenantConfig {
                weight: 3,
                queue_capacity: None,
            },
        )
        .unwrap();
    register(&gateway, "light", beta_program());
    for t in ["heavy", "light"] {
        gateway
            .inject_faults(
                t,
                FaultPlan {
                    delay: Duration::from_millis(3),
                    ..FaultPlan::default()
                },
            )
            .unwrap();
    }

    let heavy: Vec<_> = (0..12)
        .map(|i| gateway.submit("heavy", item(i), &["Y"]).unwrap())
        .collect();
    let light: Vec<_> = (0..12)
        .map(|i| gateway.submit("light", item(i), &["Y"]).unwrap())
        .collect();
    for handle in heavy {
        must_resolve(handle).unwrap();
    }
    let light_done = light.iter().filter(|h| h.is_done()).count();
    assert!(
        light_done < 12,
        "a weight-3 tenant must drain its backlog before its weight-1 \
         peer with an equal backlog (light had finished all 12)"
    );
    for handle in light {
        must_resolve(handle).unwrap();
    }
    let stats = gateway.stats();
    assert!(stats.conserves());
    assert_eq!(stats.tenants["heavy"].weight, 3);
}

/// A full admission queue rejects immediately with a typed `Overloaded`
/// carrying a non-zero retry hint; queued peers are unaffected.
#[test]
fn overload_sheds_with_typed_hint() {
    const CAP: usize = 3;
    let gateway = Gateway::new(GatewayOptions {
        max_batch: 64, // never fills
        queue_capacity: CAP,
        ..GatewayOptions::default()
    });
    register(&gateway, "alpha", alpha_program());

    let held = plug(&gateway, CAP);
    let queued: Vec<_> = (0..CAP)
        .map(|i| gateway.submit("alpha", item(i), &["Y"]).unwrap())
        .collect();
    for i in 0..3 {
        let rejected = gateway.submit("alpha", item(CAP + i), &["Y"]).unwrap();
        match rejected.try_wait() {
            Some(Err(ServeError::Overloaded { retry_after_hint })) => {
                assert!(
                    retry_after_hint >= Duration::from_millis(1),
                    "the hint must never tell clients to hammer immediately"
                );
            }
            other => panic!("expected an immediate Overloaded, got {other:?}"),
        }
    }
    let stats = gateway.stats();
    assert!(stats.conserves());
    assert_eq!(stats.tenants["alpha"].overloaded, 3);
    assert_eq!(stats.tenants["alpha"].queue_depth, CAP);
    // Shutdown drains the queue: the admitted requests all complete.
    gateway.shutdown();
    for handle in queued {
        must_resolve(handle).unwrap();
    }
    must_resolve(held).unwrap();
    let stats = gateway.stats();
    assert!(stats.conserves());
    assert_eq!(stats.tenants["alpha"].completed, CAP as u64 + 1);
}

/// Cancelling queued requests gives their capacity back at once: a tenant
/// whose clients cancelled everything admits fresh work instead of
/// shedding it against entries the dispatcher has not swept out yet.
#[test]
fn cancelled_requests_release_queue_capacity() {
    const CAP: usize = 3;
    let gateway = Gateway::new(GatewayOptions {
        max_batch: 64, // never fills
        queue_capacity: CAP,
        ..GatewayOptions::default()
    });
    register(&gateway, "alpha", alpha_program());

    // The dispatcher is busy with the plug, so the cancelled entries below
    // are still physically queued when capacity is checked.
    let held = plug(&gateway, CAP);
    let doomed: Vec<_> = (0..CAP)
        .map(|i| gateway.submit("alpha", item(i), &["Y"]).unwrap())
        .collect();
    for handle in &doomed {
        assert!(handle.cancel(), "a queued request must be cancellable");
    }
    assert_eq!(gateway.stats().tenants["alpha"].queue_depth, 0);

    let fresh: Vec<_> = (0..CAP)
        .map(|i| gateway.submit("alpha", item(i), &["Y"]).unwrap())
        .collect();
    for handle in &fresh {
        assert!(
            handle.try_wait().is_none(),
            "an empty queue must admit, got {:?}",
            handle.try_wait()
        );
    }
    // The bound itself still holds for live requests.
    let over = gateway.submit("alpha", item(CAP), &["Y"]).unwrap();
    assert!(matches!(
        over.try_wait(),
        Some(Err(ServeError::Overloaded { .. }))
    ));
    let stats = gateway.stats();
    assert!(stats.conserves());
    assert_eq!(stats.tenants["alpha"].queue_depth, CAP);
    assert_eq!(stats.tenants["alpha"].cancelled, CAP as u64);
    assert_eq!(stats.tenants["alpha"].overloaded, 1);

    gateway.shutdown();
    for handle in fresh {
        must_resolve(handle).unwrap();
    }
    must_resolve(held).unwrap();
    let stats = gateway.stats();
    assert!(stats.conserves());
    assert_eq!(stats.tenants["alpha"].completed, CAP as u64 + 1);
}

/// An injected panic on the first dispatch quarantines the session and the
/// idempotent request is retried to a bit-identical result; a
/// non-idempotent request resolves with the panic instead.
#[test]
fn panic_is_retried_for_idempotent_requests_only() {
    let program = alpha_program();
    let gateway = Gateway::new(GatewayOptions {
        max_batch: 1,
        retry_budget: 2,
        retry_backoff: Duration::from_micros(100),
        breaker_threshold: 10, // keep the breaker out of this test
        ..GatewayOptions::default()
    });
    register(&gateway, "alpha", program.clone());
    gateway
        .inject_faults(
            "alpha",
            FaultPlan {
                panic_on: vec![1, 3],
                ..FaultPlan::default()
            },
        )
        .unwrap();

    // Dispatch #1 panics, the retry (dispatch #2) succeeds.
    let handle = gateway.submit("alpha", item(0), &["Y"]).unwrap();
    let response = must_resolve(handle).unwrap();
    assert_eq!(bits(&response.outputs["Y"]), bits(&reference(&program, 0)));

    // Dispatch #3 panics and the request opted out of retries.
    let fragile = gateway
        .submit_with(
            "alpha",
            item(1),
            &["Y"],
            SubmitOptions {
                deadline: None,
                idempotent: false,
            },
        )
        .unwrap();
    match must_resolve(fragile) {
        Err(ServeError::Panicked(msg)) => {
            assert!(msg.contains("injected fault"), "unexpected panic: {msg}")
        }
        other => panic!("expected Panicked, got {other:?}"),
    }

    let stats = gateway.stats();
    assert!(stats.conserves());
    let t = &stats.tenants["alpha"];
    assert_eq!(t.completed, 1);
    assert_eq!(t.failed, 1);
    assert_eq!(t.retried, 1);
    assert_eq!(t.panics, 2);
    assert_eq!(t.breaker, BreakerState::Closed);
    assert!(
        t.sessions_discarded >= 2,
        "each panic must quarantine its session (saw {})",
        t.sessions_discarded
    );
}

/// A gradient request retried after an injected panic returns the same bits
/// as `Session::run`: the dispatch only borrows the payload, so the retry
/// runs on the very tensors the panicking dispatch held.  The fetch list
/// also names the output twice and a bound input; the engine's own client
/// is retried the same way and matches `GradientEngine::run`.
#[test]
fn a_retried_gradient_request_matches_session_run() {
    let kernel = npbench::kernel_by_name("gesummv").unwrap();
    let sizes = kernel.sizes(Preset::Test);
    let inputs = kernel.inputs(&sizes);
    let sdfg = kernel.build_dace(&sizes);
    let syms = kernel.symbols(&sizes);
    let mut engine =
        GradientEngine::new(&sdfg, "OUT", &kernel.wrt(), &syms, &AdOptions::default()).unwrap();
    let blocking = engine.run(&inputs).unwrap();
    let plan = engine.plan();
    let mut fetch = vec!["OUT", "x"];
    fetch.extend(
        plan.inputs
            .iter()
            .map(|input| plan.gradients[input].as_str()),
    );
    fetch.push("OUT");
    let mut session = engine
        .gradient_program()
        .session()
        .with_free_hints(&plan.free_hints);
    for (name, tensor) in &inputs {
        session.set_input(name, tensor.clone()).unwrap();
    }
    session.run().unwrap();

    let gateway = Arc::new(Gateway::new(GatewayOptions {
        max_batch: 1,
        retry_budget: 1,
        retry_backoff: Duration::from_micros(100),
        breaker_threshold: 10,
        ..GatewayOptions::default()
    }));
    let client = engine
        .register_with(&gateway, "gesummv", TenantConfig::default())
        .unwrap();
    let panic_on = |dispatch: u64| FaultPlan {
        panic_on: vec![dispatch],
        ..FaultPlan::default()
    };

    // Dispatch #1 panics, the retry (#2) serves.
    gateway.inject_faults("gesummv", panic_on(1)).unwrap();
    let handle = gateway.submit("gesummv", inputs.clone(), &fetch).unwrap();
    let response = must_resolve(handle).unwrap();
    assert_eq!(response.outputs.len(), fetch.len() - 1);
    for name in &fetch {
        let expected = session.array(name).unwrap();
        assert_eq!(bits(&response.outputs[*name]), bits(expected), "{name}");
    }

    // Dispatch #3 panics, the retry (#4) serves the client's request.
    gateway.inject_faults("gesummv", panic_on(3)).unwrap();
    let served = client.submit(&inputs).unwrap().wait().unwrap().result;
    assert_eq!(
        served.output_value.to_bits(),
        blocking.output_value.to_bits()
    );
    for (name, expected) in &blocking.gradients {
        assert_eq!(bits(&served.gradients[name]), bits(expected), "{name}");
    }

    let t = &gateway.stats().tenants["gesummv"];
    assert_eq!((t.panics, t.retried, t.completed), (2, 2, 2));
}

/// Repeated infrastructure failures trip the breaker: admissions are shed
/// early with `Degraded`, a half-open probe after the cooldown restores
/// the tenant, and other tenants keep serving throughout.
#[test]
fn breaker_trips_sheds_and_recovers_via_probe() {
    let cooldown = Duration::from_millis(40);
    let program = alpha_program();
    let gateway = Gateway::new(GatewayOptions {
        max_batch: 1,
        retry_budget: 0, // failures resolve immediately
        breaker_threshold: 2,
        breaker_cooldown: cooldown,
        ..GatewayOptions::default()
    });
    register(&gateway, "alpha", program.clone());
    register(&gateway, "beta", beta_program());
    gateway
        .inject_faults(
            "alpha",
            FaultPlan {
                panic_every: Some(1), // every dispatch fails
                ..FaultPlan::default()
            },
        )
        .unwrap();

    // Two consecutive failures trip the breaker.
    for i in 0..2 {
        let handle = gateway.submit("alpha", item(i), &["Y"]).unwrap();
        match must_resolve(handle) {
            Err(ServeError::Panicked(_)) => {}
            other => panic!("expected Panicked, got {other:?}"),
        }
    }
    let stats = gateway.stats();
    assert_eq!(stats.tenants["alpha"].breaker, BreakerState::Open);
    assert_eq!(stats.tenants["alpha"].breaker_trips, 1);

    // While open: load is shed at admission with a typed hint.
    let shed = gateway.submit("alpha", item(2), &["Y"]).unwrap();
    match shed.try_wait() {
        Some(Err(ServeError::Degraded { retry_after_hint })) => {
            assert!(retry_after_hint > Duration::ZERO);
            assert!(retry_after_hint <= cooldown);
        }
        other => panic!("expected an immediate Degraded, got {other:?}"),
    }
    // The healthy tenant is unaffected by its neighbour's outage.
    let healthy = gateway.submit("beta", item(0), &["Y"]).unwrap();
    must_resolve(healthy).unwrap();

    // Heal the backend, wait out the cooldown: the next request is the
    // half-open probe and its success closes the breaker.
    gateway
        .inject_faults("alpha", FaultPlan::default())
        .unwrap();
    std::thread::sleep(cooldown + Duration::from_millis(5));
    let probe = gateway.submit("alpha", item(3), &["Y"]).unwrap();
    let response = must_resolve(probe).unwrap();
    assert_eq!(bits(&response.outputs["Y"]), bits(&reference(&program, 3)));

    let stats = gateway.stats();
    assert!(stats.conserves());
    let t = &stats.tenants["alpha"];
    assert_eq!(t.breaker, BreakerState::Closed);
    assert_eq!(t.degraded, 1);
    assert_eq!(t.completed, 1);
    assert_eq!(t.failed, 2);
}

/// A failed half-open probe re-opens the breaker (and counts a second
/// trip); the next cooldown's probe then restores the tenant.
#[test]
fn failed_probe_reopens_breaker() {
    let cooldown = Duration::from_millis(30);
    let gateway = Gateway::new(GatewayOptions {
        max_batch: 1,
        retry_budget: 0,
        breaker_threshold: 1, // first failure trips
        breaker_cooldown: cooldown,
        ..GatewayOptions::default()
    });
    register(&gateway, "alpha", alpha_program());
    gateway
        .inject_faults(
            "alpha",
            FaultPlan {
                panic_on: vec![1, 2], // the trip AND the first probe fail
                ..FaultPlan::default()
            },
        )
        .unwrap();

    let first = gateway.submit("alpha", item(0), &["Y"]).unwrap();
    assert!(must_resolve(first).is_err());
    assert_eq!(gateway.stats().tenants["alpha"].breaker, BreakerState::Open);

    std::thread::sleep(cooldown + Duration::from_millis(5));
    let probe = gateway.submit("alpha", item(1), &["Y"]).unwrap();
    assert!(
        must_resolve(probe).is_err(),
        "dispatch #2 is the failing probe"
    );
    let stats = gateway.stats();
    assert_eq!(stats.tenants["alpha"].breaker, BreakerState::Open);
    assert_eq!(stats.tenants["alpha"].breaker_trips, 2);

    std::thread::sleep(cooldown + Duration::from_millis(5));
    let retry = gateway.submit("alpha", item(2), &["Y"]).unwrap();
    must_resolve(retry).unwrap();
    assert_eq!(
        gateway.stats().tenants["alpha"].breaker,
        BreakerState::Closed
    );
}

/// Forced session-checkout failure is a typed, retryable infrastructure
/// error: with budget it recovers, without it the handle carries
/// `ServeError::Checkout`.
#[test]
fn checkout_failure_is_typed_and_retryable() {
    let program = alpha_program();
    let gateway = Gateway::new(GatewayOptions {
        max_batch: 1,
        retry_budget: 1,
        retry_backoff: Duration::from_micros(100),
        breaker_threshold: 10,
        ..GatewayOptions::default()
    });
    register(&gateway, "alpha", program.clone());
    gateway
        .inject_faults(
            "alpha",
            FaultPlan {
                checkout_fail_on: vec![1, 3, 4],
                ..FaultPlan::default()
            },
        )
        .unwrap();

    // Dispatch #1 fails checkout, the retry (#2) succeeds.
    let recovered = gateway.submit("alpha", item(0), &["Y"]).unwrap();
    let response = must_resolve(recovered).unwrap();
    assert_eq!(bits(&response.outputs["Y"]), bits(&reference(&program, 0)));

    // Dispatches #3 and #4 both fail: the budget (1 retry) is exhausted.
    let doomed = gateway.submit("alpha", item(1), &["Y"]).unwrap();
    match must_resolve(doomed) {
        Err(ServeError::Checkout(msg)) => {
            assert!(msg.contains("injected fault"), "unexpected message: {msg}")
        }
        other => panic!("expected Checkout, got {other:?}"),
    }

    let stats = gateway.stats();
    assert!(stats.conserves());
    let t = &stats.tenants["alpha"];
    assert_eq!(t.checkout_failures, 3);
    assert_eq!(t.retried, 2);
    assert_eq!(t.completed, 1);
    assert_eq!(t.failed, 1);
    assert_eq!(
        t.sessions_discarded, 0,
        "a checkout failure never touches (so never quarantines) a session"
    );
}

/// A request whose retry is waiting out its backoff is still cancellable —
/// `cancel` succeeds, the handle resolves `Cancelled`, counters conserve.
#[test]
fn cancel_succeeds_mid_retry_backoff() {
    let gateway = Gateway::new(GatewayOptions {
        max_batch: 1,
        retry_budget: 2,
        retry_backoff: Duration::from_millis(500), // long enough to race
        breaker_threshold: 10,
        ..GatewayOptions::default()
    });
    register(&gateway, "alpha", alpha_program());
    gateway
        .inject_faults(
            "alpha",
            FaultPlan {
                panic_on: vec![1],
                ..FaultPlan::default()
            },
        )
        .unwrap();

    let handle = gateway.submit("alpha", item(0), &["Y"]).unwrap();
    wait_for(
        &gateway,
        |s| s.tenants["alpha"].retried == 1,
        "the first dispatch to panic and requeue",
    );
    assert!(
        handle.cancel(),
        "a request awaiting its retry backoff must be cancellable"
    );
    match must_resolve(handle) {
        Err(ServeError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    let stats = gateway.stats();
    assert!(stats.conserves());
    assert_eq!(stats.tenants["alpha"].cancelled, 1);
    assert_eq!(stats.tenants["alpha"].completed, 0);
}

/// A deadline expires *in the gateway queue* on time: a request the
/// dispatcher cannot take — it panicked once and sits in a 30 s retry
/// backoff — resolves with the typed `DeadlineExceeded` rejection at its
/// deadline, through the dispatcher's timed wake, not at the backoff's end.
#[test]
fn deadline_expires_in_queue_on_time() {
    let gateway = Gateway::new(GatewayOptions {
        max_batch: 64,
        retry_backoff: Duration::from_secs(30), // far longer than the test
        ..GatewayOptions::default()
    });
    register(&gateway, "alpha", alpha_program());
    gateway
        .inject_faults(
            "alpha",
            FaultPlan {
                panic_on: vec![1],
                ..FaultPlan::default()
            },
        )
        .unwrap();
    let submitted = Instant::now();
    let handle = gateway
        .submit_with(
            "alpha",
            item(0),
            &["Y"],
            SubmitOptions {
                deadline: Some(Duration::from_millis(200)),
                idempotent: true,
            },
        )
        .unwrap();
    match must_resolve(handle) {
        Err(ServeError::DeadlineExceeded { missed_by }) => {
            assert!(missed_by > Duration::ZERO);
            assert!(
                submitted.elapsed() < Duration::from_secs(5),
                "rejection must arrive at the deadline, not the backoff end"
            );
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let stats = gateway.stats();
    assert!(stats.conserves());
    assert_eq!(stats.tenants["alpha"].expired, 1);
    assert_eq!(stats.tenants["alpha"].batches, 1);
    assert_eq!(stats.tenants["alpha"].retried, 1);
}

/// Graceful reload: the call blocks until in-flight requests drained
/// against the old plan, already-queued and new requests run on the new
/// one, and no handle is lost across the swap.
#[test]
fn reload_drains_old_plan_and_swaps() {
    let v1 = alpha_program();
    let v2 = alpha_v2_program();
    let gateway = Gateway::new(GatewayOptions {
        max_batch: 4,
        ..GatewayOptions::default()
    });
    register(&gateway, "alpha", v1.clone());
    // Slow dispatches down so requests are genuinely in flight at reload.
    gateway
        .inject_faults(
            "alpha",
            FaultPlan {
                delay: Duration::from_millis(10),
                ..FaultPlan::default()
            },
        )
        .unwrap();

    let old_handles: Vec<_> = (0..4)
        .map(|i| gateway.submit("alpha", item(i), &["Y"]).unwrap())
        .collect();
    // Wait until the whole wave is dispatched (claimed, in flight) so the
    // reload below must actually drain it.
    wait_for(
        &gateway,
        |s| s.tenants["alpha"].in_flight > 0 && s.tenants["alpha"].queue_depth == 0,
        "the first wave to be dispatched",
    );
    gateway
        .reload("alpha", BatchDriver::new(v2.clone()))
        .unwrap();
    // The drain guarantee: by the time reload returns, everything that was
    // in flight on the old plan has resolved.
    for (i, handle) in old_handles.into_iter().enumerate() {
        let response = handle
            .try_wait()
            .expect("reload must have drained all in-flight requests")
            .unwrap();
        assert_eq!(
            bits(&response.outputs["Y"]),
            bits(&reference(&v1, i)),
            "drained item {i} must have run on the old program"
        );
    }
    let stats = gateway.stats();
    assert_eq!(stats.tenants["alpha"].epoch, 2);
    assert_eq!(stats.tenants["alpha"].completed, 4);

    // New submissions land on the recompiled program.
    let new_handles: Vec<_> = (0..4)
        .map(|i| gateway.submit("alpha", item(i), &["Y"]).unwrap())
        .collect();
    for (i, handle) in new_handles.into_iter().enumerate() {
        let response = must_resolve(handle).unwrap();
        assert_eq!(
            bits(&response.outputs["Y"]),
            bits(&reference(&v2, i)),
            "post-reload item {i} must run on the new program"
        );
    }
    assert!(gateway.stats().conserves());
    // Reloading an unknown tenant is a typed error.
    assert_eq!(
        gateway.reload("nope", BatchDriver::new(v2)).unwrap_err(),
        GatewayError::UnknownTenant("nope".to_string())
    );
}

/// Old-plan results are bit-exact against the old program even when
/// reloads race the dispatcher from another thread.
#[test]
fn concurrent_reloads_never_tear_results() {
    let v1 = alpha_program();
    let v2 = alpha_v2_program();
    let ref_v1 = bits(&reference(&v1, 0));
    let ref_v2 = bits(&reference(&v2, 0));
    let gateway = Arc::new(Gateway::new(GatewayOptions {
        max_batch: 2,
        ..GatewayOptions::default()
    }));
    register(&gateway, "alpha", v1.clone());

    std::thread::scope(|scope| {
        let reloader = {
            let gateway = Arc::clone(&gateway);
            let (v1, v2) = (v1.clone(), v2.clone());
            scope.spawn(move || {
                for round in 0..6 {
                    let next = if round % 2 == 0 {
                        v2.clone()
                    } else {
                        v1.clone()
                    };
                    gateway.reload("alpha", BatchDriver::new(next)).unwrap();
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        };
        // Every submission uses item(0): whichever plan a request lands
        // on, its result must be bit-exact for *that* plan — never a blend.
        for _ in 0..40 {
            let handle = gateway.submit("alpha", item(0), &["Y"]).unwrap();
            let response = must_resolve(handle).unwrap();
            let got = bits(&response.outputs["Y"]);
            assert!(
                got == ref_v1 || got == ref_v2,
                "reload tore a result: matches neither plan's reference"
            );
        }
        reloader.join().unwrap();
    });
    let stats = gateway.stats();
    assert!(stats.conserves());
    assert_eq!(stats.tenants["alpha"].epoch, 7, "1 + 6 reloads");
    assert_eq!(stats.tenants["alpha"].completed, 40);
}

/// Satellite: shutdown under load with injected faults.  A tenant is
/// mid-retry when the gateway drops; every handle resolves exactly once
/// with a typed outcome, and a sampler asserts counter conservation on
/// every snapshot it takes while the drain races on.
#[test]
fn shutdown_under_load_resolves_every_handle_exactly_once() {
    use std::sync::atomic::{AtomicBool, Ordering};

    const THREADS: usize = 4;
    const PER_THREAD: usize = 10;
    let gateway = Arc::new(Gateway::new(GatewayOptions {
        max_batch: 2,
        queue_capacity: 16,
        retry_budget: 3,
        retry_backoff: Duration::from_millis(20), // long: shutdown races it
        breaker_threshold: 100,                   // keep admissions open under the fault storm
        ..GatewayOptions::default()
    }));
    register(&gateway, "alpha", alpha_program());
    register(&gateway, "beta", beta_program());
    // Panic storms on both tenants keep retries permanently in the air.
    for t in ["alpha", "beta"] {
        gateway
            .inject_faults(
                t,
                FaultPlan {
                    panic_every: Some(3),
                    delay: Duration::from_micros(200),
                    ..FaultPlan::default()
                },
            )
            .unwrap();
    }

    let done = AtomicBool::new(false);
    let resolved = std::sync::Mutex::new(0usize);
    std::thread::scope(|scope| {
        let sampler = {
            let gateway = Arc::clone(&gateway);
            let done = &done;
            scope.spawn(move || {
                let mut samples = 0u64;
                while !done.load(Ordering::Acquire) {
                    let stats = gateway.stats();
                    assert!(
                        stats.conserves(),
                        "torn snapshot under faulted shutdown: {stats:?}"
                    );
                    samples += 1;
                }
                samples
            })
        };
        let submitters: Vec<_> = (0..THREADS)
            .map(|t| {
                let gateway = Arc::clone(&gateway);
                let resolved = &resolved;
                scope.spawn(move || {
                    let tenant = if t % 2 == 0 { "alpha" } else { "beta" };
                    for i in 0..PER_THREAD {
                        let idx = t * PER_THREAD + i;
                        let deadline = idx.is_multiple_of(3).then(|| Duration::from_millis(50));
                        let Ok(handle) = gateway.submit_with(
                            tenant,
                            item(idx),
                            &["Y"],
                            SubmitOptions {
                                deadline,
                                idempotent: true,
                            },
                        ) else {
                            panic!("registered tenants must accept submissions");
                        };
                        // Exactly-once: the bounded wait flags a lost
                        // handle; any typed outcome is legal under the
                        // storm (completed, panicked after budget,
                        // overloaded, expired, shutdown...).
                        let _ = must_resolve(handle);
                        *resolved.lock().unwrap() += 1;
                    }
                })
            })
            .collect();
        // Let the storm develop, then yank the gateway mid-retry.
        std::thread::sleep(Duration::from_millis(15));
        gateway.shutdown();
        for submitter in submitters {
            submitter.join().unwrap();
        }
        done.store(true, Ordering::Release);
        let samples = sampler.join().unwrap();
        assert!(samples > 0, "the sampler must have observed the run");
    });

    assert_eq!(
        *resolved.lock().unwrap(),
        THREADS * PER_THREAD,
        "every submitted handle must resolve exactly once"
    );
    let stats = gateway.stats();
    assert!(stats.conserves(), "final snapshot must conserve: {stats:?}");
    for (name, t) in &stats.tenants {
        assert_eq!(t.queue_depth, 0, "{name}: queue must be drained");
        assert_eq!(t.in_flight, 0, "{name}: nothing may remain in flight");
    }
}

/// Gateway-level registry errors are typed: unknown tenant on submit,
/// duplicate registration, and post-shutdown registration/submission.
#[test]
fn registry_errors_are_typed() {
    let gateway = Gateway::new(GatewayOptions::default());
    register(&gateway, "alpha", alpha_program());
    assert_eq!(
        gateway.submit("ghost", item(0), &["Y"]).unwrap_err(),
        GatewayError::UnknownTenant("ghost".to_string())
    );
    assert_eq!(
        gateway
            .register(
                "alpha",
                BatchDriver::new(beta_program()),
                TenantConfig::default()
            )
            .unwrap_err(),
        GatewayError::DuplicateTenant("alpha".to_string())
    );
    assert_eq!(
        gateway
            .inject_faults("ghost", FaultPlan::default())
            .unwrap_err(),
        GatewayError::UnknownTenant("ghost".to_string())
    );
    gateway.shutdown();
    assert_eq!(
        gateway
            .register(
                "late",
                BatchDriver::new(beta_program()),
                TenantConfig::default()
            )
            .unwrap_err(),
        GatewayError::ShuttingDown
    );
    assert_eq!(
        gateway
            .reload("alpha", BatchDriver::new(beta_program()))
            .unwrap_err(),
        GatewayError::ShuttingDown
    );
    // Submission to a *known* tenant after shutdown resolves through the
    // handle (one place to observe request fate), not as a call error.
    let late = gateway.submit("alpha", item(0), &["Y"]).unwrap();
    match late.try_wait() {
        Some(Err(ServeError::ShuttingDown)) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    let stats = gateway.stats();
    assert!(stats.conserves());
    assert_eq!(stats.tenants["alpha"].rejected, 1);
}

/// Engine integration: gradients served through a shared gateway joined
/// with `GradientEngine::register_with` are bit-identical to blocking
/// `GradientEngine::run`, submit-time validation matches, a duplicate
/// tenant is a typed engine error, and per-tenant stats flow through the
/// client (the engine's private gateway is covered in `tests/serve.rs`).
#[test]
fn engine_register_with_matches_blocking_run() {
    let fixture = common::AtaxEngine::new();
    let gateway = Arc::new(Gateway::new(GatewayOptions {
        max_batch: 4,
        ..GatewayOptions::default()
    }));
    let client = fixture
        .engine
        .register_with(&gateway, "atax", TenantConfig::default())
        .unwrap();
    assert_eq!(client.tenant(), "atax");
    // Duplicate tenant registration surfaces as a typed engine error.
    match fixture
        .engine
        .register_with(&gateway, "atax", TenantConfig::default())
    {
        Err(EngineError::Gateway(GatewayError::DuplicateTenant(name))) => {
            assert_eq!(name, "atax")
        }
        other => panic!("expected DuplicateTenant, got {other:?}"),
    }
    fixture.assert_client_matches_blocking(&client);
}

/// The chaos storm over two NPBench gradient tenants: atax and jacobi2d on
/// one gateway (`max_batch` 4, queue capacity 32, retry budget 2), both
/// armed to panic on every 7th dispatch and to add 1 ms to every item, 8
/// client threads × 12 requests round-robin across the tenants (every third
/// with a 500 ms deadline), two concurrent `reload_into`s and a sampler
/// thread checking every stats snapshot.  No handle is lost, every completed
/// gradient is bit-identical to a serial `GradientEngine::run`, no snapshot
/// is torn, and the quiescent snapshot conserves with nothing queued or in
/// flight — while the faults and reloads demonstrably fired.
#[test]
fn npbench_tenants_survive_a_chaos_storm() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    const KERNELS: [&str; 2] = ["atax", "jacobi2d"];
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 12;
    const VARIANTS: usize = 4;
    const RELOADS: usize = 2;
    let deadline = Duration::from_millis(500);
    let gateway = Arc::new(Gateway::new(GatewayOptions {
        max_batch: 4,
        queue_capacity: 32,
        retry_budget: 2,
        ..GatewayOptions::default()
    }));

    // Distinct input variants per tenant, with serial references computed
    // before the storm so completed results can be checked bit for bit.
    struct Tenant {
        client: GatewayGradientClient,
        inputs: Vec<HashMap<String, Tensor>>,
        reference: Vec<dace_ad::GradientResult>,
    }
    let mut tenants = Vec::new();
    let mut engines = Vec::new();
    for name in KERNELS {
        let kernel = npbench::kernel_by_name(name).unwrap();
        let sizes = kernel.sizes(Preset::Test);
        let sdfg = kernel.build_dace(&sizes);
        let syms = kernel.symbols(&sizes);
        let mut engine =
            GradientEngine::new(&sdfg, "OUT", &kernel.wrt(), &syms, &AdOptions::default()).unwrap();
        let inputs = npbench::runner::batch_inputs(kernel.as_ref(), &sizes, VARIANTS);
        let reference = inputs.iter().map(|i| engine.run(i).unwrap()).collect();
        let client = engine
            .register_with(&gateway, name, TenantConfig::default())
            .unwrap();
        let faults = FaultPlan {
            panic_every: Some(7),
            delay: Duration::from_millis(1),
            ..FaultPlan::default()
        };
        gateway.inject_faults(name, faults).unwrap();
        tenants.push(Tenant {
            client,
            inputs,
            reference,
        });
        engines.push((name, engine));
    }

    let done = AtomicBool::new(false);
    let torn = AtomicU64::new(0);
    let samples = AtomicU64::new(0);
    let (gateway_ref, tenants) = (&gateway, &tenants);
    // Per client: [lost, mismatched, completed].
    let tallies: Vec<[usize; 3]> = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            while !done.load(Ordering::Acquire) {
                if !gateway.stats().conserves() {
                    torn.fetch_add(1, Ordering::Relaxed);
                }
                samples.fetch_add(1, Ordering::Relaxed);
            }
        });
        // Hot-swap the tenants round-robin while the clients hammer them:
        // the drain guarantee says no handle may be lost across a swap.
        let reloader = scope.spawn(move || {
            for r in 0..RELOADS {
                std::thread::sleep(Duration::from_millis(3));
                let (name, engine) = &engines[r % engines.len()];
                engine.reload_into(gateway_ref, name).unwrap();
            }
        });
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut tally = [0; 3];
                    for i in 0..PER_CLIENT {
                        let tenant = &tenants[(c + i) % tenants.len()];
                        let v = (c * PER_CLIENT + i) % VARIANTS;
                        let options = SubmitOptions {
                            deadline: (i % 3 == 0).then_some(deadline),
                            idempotent: true,
                        };
                        let handle = tenant
                            .client
                            .submit_with(&tenant.inputs[v], options)
                            .unwrap();
                        match handle.wait_timeout(Duration::from_secs(30)) {
                            None => tally[0] += 1,
                            Some(Ok(served)) => {
                                let (got, expected) = (&served.result, &tenant.reference[v]);
                                let exact = got.output_value.to_bits()
                                    == expected.output_value.to_bits()
                                    && got.gradients.len() == expected.gradients.len()
                                    && expected.gradients.iter().all(|(name, g)| {
                                        got.gradients.get(name).map(bits) == Some(bits(g))
                                    });
                                tally[if exact { 2 } else { 1 }] += 1;
                            }
                            // Shed, expired or failed once the retry budget
                            // was spent: a typed outcome, which is allowed.
                            Some(Err(_)) => {}
                        }
                    }
                    tally
                })
            })
            .collect();
        let tallies = clients.into_iter().map(|c| c.join().unwrap()).collect();
        reloader.join().unwrap();
        done.store(true, Ordering::Release);
        sampler.join().unwrap();
        tallies
    });

    let sum = |k: usize| tallies.iter().map(|t| t[k]).sum::<usize>();
    assert_eq!(sum(0), 0, "handles lost");
    assert_eq!(sum(1), 0, "completed gradients not bit-identical to `run`");
    assert!(sum(2) > 0, "nothing completed");
    let samples = samples.into_inner();
    assert_eq!(torn.into_inner(), 0, "torn snapshots out of {samples}");
    let stats = gateway.stats();
    assert!(stats.conserves(), "final snapshot: {stats:?}");
    for (i, name) in KERNELS.iter().enumerate() {
        let t = &stats.tenants[*name];
        assert_eq!(t.queue_depth + t.in_flight as usize, 0, "{name}: {t:?}");
        assert!(
            t.panics > 0 && t.retried > 0,
            "{name}: no fault fired: {t:?}"
        );
        let reloads = (0..RELOADS).filter(|r| r % KERNELS.len() == i).count();
        assert_eq!(t.epoch, 1 + reloads as u64, "{name}: {t:?}");
    }
}
