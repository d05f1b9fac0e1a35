//! Shared by `tests/serve.rs` and `tests/gateway.rs`.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use dace_ad_repro::prelude::*;
use dace_tensor::Tensor;

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
