//! Shared by `tests/serve.rs` and `tests/gateway.rs`.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use dace_ad_repro::ad::GradientResult;
use dace_ad_repro::prelude::*;
use dace_tensor::Tensor;
use npbench::Preset;

/// How long a plug holds the dispatcher: far longer than the handful of
/// submissions a test makes behind it.
const HOLD: Duration = Duration::from_millis(200);

/// Occupy the dispatcher for [`HOLD`]: arm a dispatch delay on `tenant`,
/// submit one plug request, wait until a stats snapshot shows it in flight
/// (an observed state, not a sleep) and disarm.  The dispatcher runs one
/// batch at a time, so everything submitted before the plug returns stays
/// queued behind it and rides the dispatches formed at its return.
///
/// Replaces the tenant's fault plan (arm any other plan afterwards) and
/// takes the tenant's next dispatch sequence number.
pub fn plug_dispatcher(
    gateway: &Gateway,
    tenant: &str,
    inputs: HashMap<String, Tensor>,
    fetch: &[&str],
) -> GatewayHandle {
    let delay = FaultPlan {
        delay: HOLD,
        ..FaultPlan::default()
    };
    gateway.inject_faults(tenant, delay).unwrap();
    let plug = gateway.submit(tenant, inputs, fetch).unwrap();
    let start = Instant::now();
    while gateway.stats().tenants[tenant].in_flight != 1 {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "the plug request was never dispatched"
        );
        std::thread::yield_now();
    }
    gateway.inject_faults(tenant, FaultPlan::default()).unwrap();
    plug
}

/// An atax gradient engine with five inputs and their blocking
/// `GradientEngine::run` results, the reference every gateway-served
/// gradient is compared against.
pub struct AtaxEngine {
    pub engine: GradientEngine,
    inputs: Vec<HashMap<String, Tensor>>,
    blocking: Vec<GradientResult>,
    wrt: &'static str,
}

impl AtaxEngine {
    pub fn new() -> Self {
        let kernel = npbench::kernel_by_name("atax").unwrap();
        let sizes = kernel.sizes(Preset::Test);
        let inputs = npbench::runner::batch_inputs(kernel.as_ref(), &sizes, 5);
        let sdfg = kernel.build_dace(&sizes);
        let syms = kernel.symbols(&sizes);
        let wrt = kernel.wrt();
        let mut engine =
            GradientEngine::new(&sdfg, "OUT", &wrt, &syms, &AdOptions::default()).unwrap();
        let blocking = inputs.iter().map(|i| engine.run(i).unwrap()).collect();
        AtaxEngine {
            engine,
            inputs,
            blocking,
            wrt: wrt[0],
        }
    }

    /// Through `client`: served gradients are bit-identical to the blocking
    /// runs, validation fires at submit exactly like `run` (a typo and the
    /// adjoint's own gradient container are both unknown), a zero budget is
    /// a typed serve rejection, the tenant's stats conserve, and the serial
    /// runs and every served request share one gradient lowering.
    pub fn assert_client_matches_blocking(&self, client: &GatewayGradientClient) {
        let handles: Vec<_> = self
            .inputs
            .iter()
            .map(|i| client.submit(i).unwrap())
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            assert!(
                handle.wait_timeout(Duration::from_secs(30)).is_some(),
                "gateway gradient handle lost"
            );
            let served = handle.wait().unwrap();
            let blocking = &self.blocking[i];
            assert_eq!(
                served.result.output_value.to_bits(),
                blocking.output_value.to_bits()
            );
            assert_eq!(served.result.gradients.len(), blocking.gradients.len());
            for (name, expected) in &blocking.gradients {
                assert_eq!(
                    bits(&served.result.gradients[name]),
                    bits(expected),
                    "gradient of {name} diverged for served item {i}"
                );
            }
            assert!(served.batched_with >= 1);
        }

        let gradient = &self.engine.plan().gradients[self.wrt];
        for name in ["NOPE", gradient.as_str()] {
            let mut bad = self.inputs[0].clone();
            bad.insert(name.to_string(), self.inputs[0][self.wrt].clone());
            match client.submit(&bad) {
                Err(EngineError::UnknownInput(unknown)) => assert_eq!(unknown, name),
                other => panic!("expected UnknownInput({name}), got {other:?}"),
            }
        }

        let budget = SubmitOptions {
            deadline: Some(Duration::ZERO),
            ..SubmitOptions::default()
        };
        let handle = client.submit_with(&self.inputs[0], budget).unwrap();
        match handle.wait() {
            Err(EngineError::Serve(ServeError::DeadlineExceeded { .. })) => {}
            other => panic!("expected Serve(DeadlineExceeded), got {other:?}"),
        }

        let stats = client.stats().expect("the engine's tenant is registered");
        assert!(stats.conserves(), "{stats:?}");
        assert_eq!(stats.completed, 5);
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.breaker, BreakerState::Closed);
        assert_eq!(self.engine.gradient_program().cache_stats().misses, 1);
    }
}

fn bits(t: &Tensor) -> Vec<u64> {
    t.data().iter().map(|v| v.to_bits()).collect()
}
