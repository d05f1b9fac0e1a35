//! Helpers for running kernels through the DaCe AD pipeline.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dace_ad::{
    AdOptions, EngineError, FaultPlan, Gateway, GatewayOptions, GatewayStats, GradientEngine,
    ServeError, SubmitOptions, TenantConfig, TenantStats,
};
use dace_tensor::Tensor;

use crate::{GradOutput, Kernel, Preset, Sizes};

/// Run the DaCe AD side of a kernel (store-all strategy) and return the
/// gradients of its `wrt` inputs.
pub fn run_dace_gradients(
    kernel: &dyn Kernel,
    sizes: &Sizes,
    inputs: &HashMap<String, Tensor>,
) -> Result<GradOutput, String> {
    let sdfg = kernel.build_dace(sizes);
    let symbols = kernel.symbols(sizes);
    let wrt = kernel.wrt();
    let mut engine = GradientEngine::new(&sdfg, "OUT", &wrt, &symbols, &AdOptions::default())
        .map_err(|e| e.to_string())?;
    let result = engine.run(inputs).map_err(|e| e.to_string())?;
    Ok(GradOutput {
        output: result.output_value,
        gradients: result.gradients.into_iter().collect(),
    })
}

/// Timing measurement for one side of a kernel.
#[derive(Clone, Debug)]
pub struct Timing {
    /// Wall-clock time of the gradient computation (forward + backward).
    pub elapsed: Duration,
    /// Scalar output (to check both sides computed the same thing).
    pub output: f64,
}

/// Time the DaCe AD gradient computation (engine construction excluded, the
/// paper excludes compilation from its measurements via a warm-up run).
pub fn time_dace(
    kernel: &dyn Kernel,
    sizes: &Sizes,
    inputs: &HashMap<String, Tensor>,
    repetitions: usize,
) -> Result<Timing, String> {
    let sdfg = kernel.build_dace(sizes);
    let symbols = kernel.symbols(sizes);
    let wrt = kernel.wrt();
    let mut engine = GradientEngine::new(&sdfg, "OUT", &wrt, &symbols, &AdOptions::default())
        .map_err(|e| e.to_string())?;
    // Warm-up run (mirrors the paper's methodology).
    let warm = engine.run(inputs).map_err(|e| e.to_string())?;
    let mut best = Duration::MAX;
    for _ in 0..repetitions.max(1) {
        let start = Instant::now();
        let _ = engine.run(inputs).map_err(|e| e.to_string())?;
        best = best.min(start.elapsed());
    }
    Ok(Timing {
        elapsed: best,
        output: warm.output_value,
    })
}

/// Serial-vs-batched timing of one kernel's gradient over a batch of
/// distinct input sets (see [`time_batch`]).
#[derive(Clone, Debug)]
pub struct BatchTiming {
    /// Number of input sets in the batch.
    pub items: usize,
    /// Effective fan-out width of the batched runs.
    pub workers: usize,
    /// Items/sec of the serial single-session loop (`GradientEngine::run`
    /// per item), over all its rounds.
    pub serial_items_per_sec: f64,
    /// Items/sec of `GradientEngine::run_batch` over the same batch, over
    /// all its rounds.
    pub batched_items_per_sec: f64,
    /// The batched-serving speedup: the median over the interleaved rounds
    /// of `serial / batched` round time.
    pub speedup: f64,
}

/// Build `batch` distinct input sets for a kernel: the seeded base inputs,
/// shifted by a small per-item constant so every request carries different
/// data (as concurrent users would) while staying numerically tame.
pub fn batch_inputs(
    kernel: &dyn Kernel,
    sizes: &Sizes,
    batch: usize,
) -> Vec<HashMap<String, Tensor>> {
    let base = kernel.inputs(sizes);
    (0..batch)
        .map(|i| {
            base.iter()
                .map(|(name, tensor)| (name.clone(), tensor.add_scalar(i as f64 * 1e-3)))
                .collect()
        })
        .collect()
}

/// Time batched gradient serving against the serial single-session loop on
/// the same batch: one engine, one compiled gradient program, `batch`
/// distinct input sets.  Both paths are warmed first (the paper's
/// methodology excludes compilation and cold-cache effects), then run
/// `repetitions` interleaved rounds — one serial loop, then one batch —
/// and the speedup is the median over rounds of the two sides' ratio: what
/// else the host runs during a few rounds moves a few ratios, not the
/// median.  `workers` caps the batched fan-out (0 = the worker pool's full
/// width).
pub fn time_batch(
    kernel: &dyn Kernel,
    sizes: &Sizes,
    batch: usize,
    repetitions: usize,
    workers: usize,
) -> Result<BatchTiming, String> {
    let sdfg = kernel.build_dace(sizes);
    let symbols = kernel.symbols(sizes);
    let wrt = kernel.wrt();
    let mut engine = GradientEngine::new(&sdfg, "OUT", &wrt, &symbols, &AdOptions::default())
        .map_err(|e| e.to_string())?;
    engine.set_batch_workers(workers);
    let items = batch_inputs(kernel, sizes, batch);

    // Warm both paths: the serial session and the batch driver's pool.
    engine.run(&items[0]).map_err(|e| e.to_string())?;
    engine.run_batch(&items).map_err(|e| e.to_string())?;

    let mut serial = Duration::ZERO;
    let mut batched = Duration::ZERO;
    let mut ratios = Vec::with_capacity(repetitions.max(1));
    let mut effective_workers = 1;
    for _ in 0..repetitions.max(1) {
        let start = Instant::now();
        for item in &items {
            engine.run(item).map_err(|e| e.to_string())?;
        }
        let serial_round = start.elapsed();

        let start = Instant::now();
        let out = engine.run_batch(&items).map_err(|e| e.to_string())?;
        let batched_round = start.elapsed();
        effective_workers = out.batch.workers;
        serial += serial_round;
        batched += batched_round;
        ratios.push(serial_round.as_secs_f64() / batched_round.as_secs_f64().max(1e-12));
    }
    ratios.sort_by(f64::total_cmp);
    let per_sec = |d: Duration| (batch * ratios.len()) as f64 / d.as_secs_f64().max(1e-12);
    Ok(BatchTiming {
        items: batch,
        workers: effective_workers,
        serial_items_per_sec: per_sec(serial),
        batched_items_per_sec: per_sec(batched),
        speedup: ratios[ratios.len() / 2],
    })
}

/// Result of one open-loop serving measurement (see [`time_serve`]).
#[derive(Clone, Debug)]
pub struct ServeTiming {
    /// Requests submitted per repetition.
    pub requests: usize,
    /// Requests that completed with a gradient result (best repetition).
    pub completed: usize,
    /// Requests rejected because their deadline passed before dispatch.
    pub expired: usize,
    /// Requests that failed with a runtime error or panic.
    pub failed: usize,
    /// Requests neither completed, expired nor failed — always 0 unless
    /// the serving layer lost a handle (which the CI smoke gate asserts
    /// never happens).
    pub lost: usize,
    /// First-submit-to-last-completion wall clock of the best repetition
    /// over `requests`, in milliseconds.
    pub per_request_ms: f64,
    /// Completed requests per second of that wall clock.
    pub achieved_rps: f64,
    /// Median submit-to-completion latency (ms) over completed requests.
    pub p50_ms: f64,
    /// 95th-percentile submit-to-completion latency (ms).
    pub p95_ms: f64,
    /// Worst submit-to-completion latency (ms).
    pub max_ms: f64,
    /// Median of latency minus the request's own execute time (ms): what
    /// admission, dispatch and result delivery add to the gradient.
    pub wait_ms: f64,
    /// The server's tenant snapshot once every handle of the reported
    /// repetition had resolved (lifetime counters: `largest_batch`,
    /// `rejected`, ...).  Quiescent, so it must conserve with nothing
    /// queued or in flight — the `npbench --serve` smoke gate checks it.
    pub stats: TenantStats,
}

/// Build the single-program [`GatewayOptions`] of [`time_serve`] from
/// CLI-style knobs (the `npbench --serve` mode's configuration): like
/// `GradientEngine::serve()`'s defaults, the queue is unbounded and retries
/// and the circuit breaker are off.
pub fn serve_options(max_batch: usize, workers: usize) -> GatewayOptions {
    GatewayOptions {
        max_batch,
        workers,
        queue_capacity: usize::MAX,
        retry_budget: 0,
        breaker_threshold: u32::MAX,
        ..GatewayOptions::default()
    }
}

/// Nearest-rank percentile over an ascending-sorted slice (`q` in [0, 1]);
/// `0.0` on an empty slice.
fn percentile_ms(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Drive one kernel's gradient server with an open-loop load: `requests`
/// individually submitted requests, paced at `rps` submissions per second
/// (`rps <= 0` submits as fast as possible), then wait for every handle.
///
/// Open loop means the submission schedule does not adapt to completion
/// latency — exactly the arrival model of independent users — so queueing
/// delay shows up in the measured latencies instead of being hidden by
/// back-pressure.  The engine and the server's session pool are warmed
/// first (one unmeasured round), then the load runs `repetitions` times and
/// the repetition with the best per-request time is reported.
pub fn time_serve(
    kernel: &dyn Kernel,
    sizes: &Sizes,
    requests: usize,
    rps: f64,
    deadline: Option<Duration>,
    options: GatewayOptions,
    repetitions: usize,
) -> Result<ServeTiming, String> {
    if requests == 0 {
        return Err("serve measurement needs at least one request".to_string());
    }
    let sdfg = kernel.build_dace(sizes);
    let symbols = kernel.symbols(sizes);
    let wrt = kernel.wrt();
    let mut engine = GradientEngine::new(&sdfg, "OUT", &wrt, &symbols, &AdOptions::default())
        .map_err(|e| e.to_string())?;
    let server = engine.serve_with_options(options);
    let items = batch_inputs(kernel, sizes, requests);

    // Warm-up round (unmeasured, submit-all-then-wait-all so dispatches run
    // full): fills the session pool and the slab recycling pools, mirroring
    // the paper's warm-measurement methodology.
    let warmup = items
        .iter()
        .map(|i| server.submit(i))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    for handle in warmup {
        handle.wait().map_err(|e| e.to_string())?;
    }

    let mut best: Option<ServeTiming> = None;
    for _ in 0..repetitions.max(1) {
        let start = Instant::now();
        let mut handles = Vec::with_capacity(requests);
        for (i, inputs) in items.iter().enumerate() {
            if rps > 0.0 {
                let target = start + Duration::from_secs_f64(i as f64 / rps);
                let now = Instant::now();
                if now < target {
                    std::thread::sleep(target - now);
                }
            }
            let opts = SubmitOptions {
                deadline,
                ..SubmitOptions::default()
            };
            handles.push(
                server
                    .submit_with(inputs, opts)
                    .map_err(|e| e.to_string())?,
            );
        }
        let mut latencies_ms = Vec::with_capacity(requests);
        let mut waits_ms = Vec::with_capacity(requests);
        let (mut completed, mut expired, mut failed) = (0usize, 0usize, 0usize);
        for handle in handles {
            match handle.wait() {
                Ok(served) => {
                    completed += 1;
                    latencies_ms.push(served.latency.as_secs_f64() * 1e3);
                    let wait = served.latency.saturating_sub(served.result.report.elapsed);
                    waits_ms.push(wait.as_secs_f64() * 1e3);
                }
                Err(EngineError::Serve(ServeError::DeadlineExceeded { .. })) => expired += 1,
                Err(_) => failed += 1,
            }
        }
        let elapsed = start.elapsed();
        latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        waits_ms.sort_by(|a, b| a.partial_cmp(b).expect("waits are finite"));
        let timing = ServeTiming {
            requests,
            completed,
            expired,
            failed,
            lost: requests - completed - expired - failed,
            per_request_ms: elapsed.as_secs_f64() * 1e3 / requests as f64,
            achieved_rps: completed as f64 / elapsed.as_secs_f64().max(1e-12),
            p50_ms: percentile_ms(&latencies_ms, 0.50),
            p95_ms: percentile_ms(&latencies_ms, 0.95),
            max_ms: latencies_ms.last().copied().unwrap_or(0.0),
            wait_ms: percentile_ms(&waits_ms, 0.50),
            stats: server.stats().expect("the engine's tenant is registered"),
        };
        let better = best
            .as_ref()
            .map(|b| timing.per_request_ms < b.per_request_ms)
            .unwrap_or(true);
        if better {
            best = Some(timing);
        }
    }
    Ok(best.expect("at least one repetition ran"))
}

/// Load shape of one [`time_gateway`] chaos run.
#[derive(Clone, Debug)]
pub struct GatewayLoad {
    /// Concurrent client threads (clamped to >= 1).
    pub clients: usize,
    /// Requests each client submits (round-robin across tenants).
    pub requests_per_client: usize,
    /// Deadline attached to every third request (the rest are unbounded).
    pub deadline: Option<Duration>,
    /// Per-tenant admission-queue capacity.
    pub queue_capacity: usize,
    /// Retry budget for idempotent requests hit by infrastructure faults.
    pub retry_budget: u32,
    /// Admission bound per dispatch.
    pub max_batch: usize,
    /// Inject a dispatch panic on every k-th dispatch of every tenant.
    pub inject_panic_every: Option<u64>,
    /// Inject this much artificial latency into every dispatched item.
    pub inject_delay: Duration,
    /// Concurrent plan hot-swaps performed while the load runs.
    pub reloads: usize,
}

impl Default for GatewayLoad {
    fn default() -> Self {
        GatewayLoad {
            clients: 6,
            requests_per_client: 16,
            deadline: None,
            queue_capacity: 32,
            retry_budget: 2,
            max_batch: 4,
            inject_panic_every: None,
            inject_delay: Duration::ZERO,
            reloads: 0,
        }
    }
}

/// Outcome of one [`time_gateway`] chaos run.  The exactly-once contract
/// shows up as `lost == 0`; bit-exactness as `mismatched == 0`; snapshot
/// coherence as `torn_snapshots == 0` — the `npbench --gateway` smoke gate
/// exits non-zero if any of them is violated.
#[derive(Clone, Debug)]
pub struct GatewayTiming {
    /// Registered tenants (one per selected kernel).
    pub tenants: usize,
    /// Client threads that generated the load.
    pub clients: usize,
    /// Total requests submitted across all clients.
    pub submitted: usize,
    /// Requests that completed with a gradient bit-identical to the serial
    /// reference.
    pub completed: usize,
    /// Requests shed with a typed `Overloaded`/`Degraded` rejection.
    pub shed: usize,
    /// Requests whose (intentionally tight) deadline expired.
    pub expired: usize,
    /// Requests that resolved with an infrastructure or execution error
    /// (expected under fault injection once the retry budget is spent).
    pub failed: usize,
    /// Handles that never resolved — always 0 unless the gateway broke its
    /// exactly-once contract.
    pub lost: usize,
    /// Completed requests whose outputs were NOT bit-identical to the
    /// serial reference — always 0 unless batching/reload tore a result.
    pub mismatched: usize,
    /// Stats snapshots that violated counter conservation.
    pub torn_snapshots: u64,
    /// Stats snapshots the sampler thread took while the load ran.
    pub samples: u64,
    /// Plan hot-swaps that completed during the storm.
    pub reloads: usize,
    /// First-submit-to-last-resolution wall clock.
    pub elapsed: Duration,
    /// Completed requests per second.
    pub achieved_rps: f64,
    /// Whether the final quiescent snapshot conserves.
    pub conserved: bool,
    /// Final per-tenant gateway statistics (for per-tenant reporting).
    pub stats: GatewayStats,
}

/// Per-client tally of request fates (merged into [`GatewayTiming`]).
#[derive(Clone, Copy, Debug, Default)]
struct ClientTally {
    completed: usize,
    shed: usize,
    expired: usize,
    failed: usize,
    lost: usize,
    mismatched: usize,
}

/// Drive one shared multi-tenant [`Gateway`] with a concurrent chaos load:
/// every selected kernel registers as a tenant, `load.clients` threads
/// submit round-robin across tenants (every third request with a deadline
/// when one is configured), faults are injected per `load`, and — when
/// `load.reloads > 0` — tenants are hot-swapped while the storm runs.
///
/// A sampler thread hammers `Gateway::stats` for the whole run and counts
/// snapshots that violate counter conservation; every completed gradient is
/// compared bit-for-bit against a serial `GradientEngine::run` reference
/// computed before the storm.
pub fn time_gateway(
    kernels: &[Box<dyn Kernel>],
    preset: Preset,
    load: &GatewayLoad,
) -> Result<GatewayTiming, String> {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    if kernels.is_empty() {
        return Err("gateway measurement needs at least one kernel".to_string());
    }
    let clients = load.clients.max(1);
    let gateway = Arc::new(Gateway::new(GatewayOptions {
        max_batch: load.max_batch,
        queue_capacity: load.queue_capacity,
        retry_budget: load.retry_budget,
        ..GatewayOptions::default()
    }));

    // Distinct input variants per tenant, with serial references computed
    // up front so completed results can be verified bit-for-bit.
    const VARIANTS: usize = 4;
    struct Tenant {
        client: dace_ad::GatewayGradientClient,
        inputs: Vec<HashMap<String, Tensor>>,
        reference: Vec<dace_ad::GradientResult>,
    }
    let mut tenants = Vec::with_capacity(kernels.len());
    let mut engines = Vec::with_capacity(kernels.len());
    for kernel in kernels {
        let sizes = kernel.sizes(preset);
        let sdfg = kernel.build_dace(&sizes);
        let symbols = kernel.symbols(&sizes);
        let wrt = kernel.wrt();
        let mut engine = GradientEngine::new(&sdfg, "OUT", &wrt, &symbols, &AdOptions::default())
            .map_err(|e| format!("{}: {e}", kernel.name()))?;
        let inputs = batch_inputs(kernel.as_ref(), &sizes, VARIANTS);
        let reference = inputs
            .iter()
            .map(|i| engine.run(i))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("{}: {e}", kernel.name()))?;
        let client = engine
            .register_with(&gateway, kernel.name(), TenantConfig::default())
            .map_err(|e| format!("{}: {e}", kernel.name()))?;
        if load.inject_panic_every.is_some() || load.inject_delay > Duration::ZERO {
            gateway
                .inject_faults(
                    kernel.name(),
                    FaultPlan {
                        panic_every: load.inject_panic_every,
                        delay: load.inject_delay,
                        ..FaultPlan::default()
                    },
                )
                .map_err(|e| e.to_string())?;
        }
        tenants.push(Tenant {
            client,
            inputs,
            reference,
        });
        engines.push((kernel.name().to_string(), engine));
    }
    let tenants = &tenants;

    let done = AtomicBool::new(false);
    let torn = AtomicU64::new(0);
    let samples = AtomicU64::new(0);
    let per_client = load.requests_per_client;
    let start = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let sampler = {
            let gateway = Arc::clone(&gateway);
            let (done, torn, samples) = (&done, &torn, &samples);
            scope.spawn(move || {
                while !done.load(Ordering::Acquire) {
                    if !gateway.stats().conserves() {
                        torn.fetch_add(1, Ordering::Relaxed);
                    }
                    samples.fetch_add(1, Ordering::Relaxed);
                }
            })
        };
        // Hot-swap tenants round-robin while the clients hammer them: the
        // drain guarantee says no handle may be lost across a swap.
        let reloader = (load.reloads > 0).then(|| {
            let gateway = Arc::clone(&gateway);
            let reloads = load.reloads;
            scope.spawn(move || {
                for r in 0..reloads {
                    std::thread::sleep(Duration::from_millis(3));
                    let (name, engine) = &engines[r % engines.len()];
                    engine
                        .reload_into(&gateway, name)
                        .expect("reload of a registered tenant");
                }
                engines
            })
        });
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut tally = ClientTally::default();
                    for i in 0..per_client {
                        let tenant = &tenants[(c + i) % tenants.len()];
                        let v = (c * per_client + i) % tenant.inputs.len();
                        let deadline = if i % 3 == 0 { load.deadline } else { None };
                        let handle = tenant
                            .client
                            .submit_with(
                                &tenant.inputs[v],
                                SubmitOptions {
                                    deadline,
                                    idempotent: true,
                                },
                            )
                            .expect("submission to a registered tenant");
                        match handle.wait_timeout(Duration::from_secs(30)) {
                            None => tally.lost += 1,
                            Some(Ok(served)) => {
                                let expected = &tenant.reference[v];
                                let exact = served.result.output_value.to_bits()
                                    == expected.output_value.to_bits()
                                    && expected.gradients.iter().all(|(name, tensor)| {
                                        served.result.gradients.get(name).is_some_and(|got| {
                                            got.data().len() == tensor.data().len()
                                                && got
                                                    .data()
                                                    .iter()
                                                    .zip(tensor.data())
                                                    .all(|(a, b)| a.to_bits() == b.to_bits())
                                        })
                                    });
                                if exact {
                                    tally.completed += 1;
                                } else {
                                    tally.mismatched += 1;
                                }
                            }
                            Some(Err(EngineError::Serve(
                                ServeError::Overloaded { .. } | ServeError::Degraded { .. },
                            ))) => tally.shed += 1,
                            Some(Err(EngineError::Serve(ServeError::DeadlineExceeded {
                                ..
                            }))) => tally.expired += 1,
                            Some(Err(_)) => tally.failed += 1,
                        }
                    }
                    tally
                })
            })
            .collect();
        let tallies = workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect();
        if let Some(reloader) = reloader {
            drop(reloader.join().expect("reloader thread panicked"));
        }
        done.store(true, Ordering::Release);
        sampler.join().expect("sampler thread panicked");
        tallies
    });
    let elapsed = start.elapsed();

    let stats = gateway.stats();
    let sum = |f: fn(&ClientTally) -> usize| tallies.iter().map(f).sum::<usize>();
    let completed = sum(|t| t.completed);
    Ok(GatewayTiming {
        tenants: tenants.len(),
        clients,
        submitted: clients * per_client,
        completed,
        shed: sum(|t| t.shed),
        expired: sum(|t| t.expired),
        failed: sum(|t| t.failed),
        lost: sum(|t| t.lost),
        mismatched: sum(|t| t.mismatched),
        torn_snapshots: torn.load(std::sync::atomic::Ordering::Relaxed),
        samples: samples.load(std::sync::atomic::Ordering::Relaxed),
        reloads: load.reloads,
        elapsed,
        achieved_rps: completed as f64 / elapsed.as_secs_f64().max(1e-12),
        conserved: stats.conserves(),
        stats,
    })
}

/// Time the jax-rs gradient computation.
pub fn time_jax(
    kernel: &dyn Kernel,
    sizes: &Sizes,
    inputs: &HashMap<String, Tensor>,
    repetitions: usize,
) -> Timing {
    // Warm-up.
    let warm = kernel.run_jax(sizes, inputs);
    let mut best = Duration::MAX;
    for _ in 0..repetitions.max(1) {
        let start = Instant::now();
        let _ = kernel.run_jax(sizes, inputs);
        best = best.min(start.elapsed());
    }
    Timing {
        elapsed: best,
        output: warm.output,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Preset;

    #[test]
    fn batch_timing_runs_for_a_small_kernel() {
        let kernel = crate::kernel_by_name("atax").unwrap();
        let sizes = kernel.sizes(Preset::Test);
        let t = time_batch(kernel.as_ref(), &sizes, 4, 1, 2).unwrap();
        assert_eq!(t.items, 4);
        assert!(t.workers >= 1 && t.workers <= 2);
        assert!(t.serial_items_per_sec > 0.0 && t.batched_items_per_sec > 0.0);
        assert!(t.speedup > 0.0);
    }

    #[test]
    fn serve_timing_runs_for_a_small_kernel() {
        let kernel = crate::kernel_by_name("atax").unwrap();
        let sizes = kernel.sizes(Preset::Test);
        let t = time_serve(
            kernel.as_ref(),
            &sizes,
            6,
            0.0,
            None,
            serve_options(8, 0),
            1,
        )
        .unwrap();
        assert_eq!(t.requests, 6);
        assert_eq!(t.completed, 6);
        assert_eq!(t.expired + t.failed + t.lost, 0);
        assert!(t.per_request_ms > 0.0 && t.p50_ms > 0.0 && t.p95_ms >= t.p50_ms);
        assert!(t.wait_ms >= 0.0 && t.wait_ms <= t.max_ms);
        assert!(t.stats.largest_batch >= 1);
        assert!(t.stats.conserves());
    }

    #[test]
    fn timing_runs_for_a_small_kernel() {
        let kernel = crate::kernel_by_name("atax").unwrap();
        let sizes = kernel.sizes(Preset::Test);
        let inputs = kernel.inputs(&sizes);
        let d = time_dace(kernel.as_ref(), &sizes, &inputs, 1).unwrap();
        let j = time_jax(kernel.as_ref(), &sizes, &inputs, 1);
        assert!((d.output - j.output).abs() < 1e-6 * (1.0 + j.output.abs()));
        assert!(d.elapsed.as_nanos() > 0 && j.elapsed.as_nanos() > 0);
    }
}
