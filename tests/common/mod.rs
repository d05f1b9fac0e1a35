//! Shared by `tests/serve.rs` and `tests/gateway.rs`.

use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use dace_ad_repro::ad::GradientResult;
use dace_ad_repro::prelude::*;
use dace_tensor::Tensor;
use npbench::Preset;

/// Tenant name of the plug [`plug_dispatcher`] registers.
pub const PLUG: &str = "plug";

/// How long a plug holds the dispatcher: far longer than the handful of
/// submissions a test makes behind it.  The hold starts only once the plug
/// is seen in flight, and what follows it is a few non-blocking `submit`s
/// of microseconds each: a margin of about a thousandfold.
const HOLD: Duration = Duration::from_millis(200);

/// Elements of the slow program's scratch array.
const SCRATCH: i64 = 1 << 14;

/// `Y = 2X + 1` over `N` elements after `T` trips of a `for_range` loop
/// that adds 1 to every element of a `SCRATCH`-element array: the trip
/// count sets the run time, the result does not depend on it.
fn slow_sdfg() -> Sdfg {
    let mut b = ProgramBuilder::new("slow");
    let n = b.symbol("N");
    let m = b.symbol("M");
    let trips = b.symbol("T");
    b.add_input("X", vec![n.clone()]).unwrap();
    b.add_input("Y", vec![n]).unwrap();
    b.add_transient("W", vec![m]).unwrap();
    b.for_range("t", 0, trips, |b| {
        b.accumulate("W", ArrayExpr::s(1.0));
    });
    b.assign(
        "Y",
        ArrayExpr::a("X")
            .mul(ArrayExpr::s(2.0))
            .add(ArrayExpr::s(1.0)),
    );
    b.build().unwrap()
}

fn slow_symbols(n: usize, trips: i64) -> HashMap<String, i64> {
    HashMap::from([
        ("N".to_string(), n as i64),
        ("M".to_string(), SCRATCH),
        ("T".to_string(), trips),
    ])
}

/// `X` for a program over `n` elements.
fn x_input(n: usize) -> HashMap<String, Tensor> {
    let x = Tensor::from_vec(vec![1.0; n], &[n]).unwrap();
    HashMap::from([("X".to_string(), x)])
}

/// A program computing `Y = 2X + 1` over `n` elements whose one run takes
/// about `run` on the machine running the tests.  The loop's time per trip is measured once per
/// process (the fastest of three runs, so a burst of host load lengthens
/// the programs rather than shortening them).
pub fn slow_program(n: usize, run: Duration) -> CompiledProgram {
    static TRIP: OnceLock<Duration> = OnceLock::new();
    let trip = *TRIP.get_or_init(|| {
        const TRIPS: u32 = 64;
        let program = compile(&slow_sdfg(), &slow_symbols(1, TRIPS.into())).unwrap();
        let mut session = program.session();
        for (name, tensor) in x_input(1) {
            session.set_input(&name, tensor).unwrap();
        }
        session.run().unwrap();
        let fastest = (0..3)
            .map(|_| {
                let start = Instant::now();
                session.run().unwrap();
                start.elapsed()
            })
            .min()
            .unwrap();
        fastest / TRIPS
    });
    let trips = (run.as_nanos() / trip.as_nanos().max(1)).max(1);
    compile(&slow_sdfg(), &slow_symbols(n, trips as i64)).unwrap()
}

/// Occupy the dispatcher for about [`HOLD`]: register the [`PLUG`] tenant
/// over a slow program (once per gateway), submit one request to it and
/// wait until a stats snapshot shows it in flight (an observed state, not
/// a sleep).  The dispatcher runs one batch at a time, so everything
/// submitted before the plug returns stays queued behind it and rides the
/// dispatches formed at its return.
pub fn plug_dispatcher(gateway: &Gateway) -> GatewayHandle {
    if !gateway.stats().tenants.contains_key(PLUG) {
        let driver = BatchDriver::new(slow_program(1, HOLD));
        gateway
            .register(PLUG, driver, TenantConfig::default())
            .unwrap();
    }
    let plug = gateway.submit(PLUG, x_input(1), &["Y"]).unwrap();
    let start = Instant::now();
    while gateway.stats().tenants[PLUG].in_flight != 1 {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "the plug request was never dispatched"
        );
        std::thread::yield_now();
    }
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
    }
}

fn bits(t: &Tensor) -> Vec<u64> {
    t.data().iter().map(|v| v.to_bits()).collect()
}
