//! The workloads: set-up, warm-up and the measured window.
//!
//! Every workload is a stream of *operations*, each belonging to a *class*
//! (a kernel, a kernel × strategy, or a tenant).  Classes are interleaved
//! inside a run so a noisy second hits all of them equally.  A run is
//! set-up (untimed warm-up included: caches, slabs and session pools are
//! full before anything is timed, since users do not pay that per call)
//! plus a measured window, accounted in consecutive *blocks* of a few rounds
//! of every class.  A block is long enough to hold a median per class and short
//! enough to fit into a quiet spell of the host; the window's throughput and
//! median are read from its quietest blocks (see [`crate::stats::QUIET_Q`]),
//! with every block's times taken at the reference clock (see
//! [`crate::clock`]).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dace_ad::checkpoint::apply_strategy;
use dace_ad::{
    generate_backward, BackwardPlan, CheckpointStrategy, Gateway, GatewayGradientClient,
    GatewayGradientHandle, GatewayOptions, ServedGradient, TenantConfig,
};
use dace_runtime::{clear_plan_cache, compile, plan_cache_stats, Session};
use npbench::Preset;

use crate::catalogue::Workload;
use crate::clock;
use crate::oracle::Tally;
use crate::program::{
    kernel_limit, GradClass, Parts, Produced, Program, LISTING1_LIMIT, LISTING1_N, OUTPUT,
};
use crate::stats::{
    centre, geomean, percentile, pooled_tail, quiet_times, sorted, SplitMix64, QUIET_Q,
};
use crate::trace::Tracer;

/// Rounds (one operation of every class) in a block of a direct workload:
/// three samples per class, the fewest a median is the middle of.  Shorter
/// blocks fit into shorter quiet spells, and there are more to pick from.
const ROUNDS_PER_BLOCK: usize = 3;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Seeded input variants per class.
const VARIANTS: usize = 4;
/// Arrival rate of `gateway_paced` (requests per second, evenly spaced).
pub const PACED_RATE: f64 = 100.0;
/// How long a gateway handle may stay unresolved before it counts as lost.
const LOST_AFTER: Duration = Duration::from_secs(30);

const BLAS: [&str; 8] = [
    "atax", "bicg", "gemm", "gesummv", "k2mm", "k3mm", "mvt", "mlp",
];
const LOOPS: [&str; 7] = [
    "jacobi1d", "seidel2d", "jacobi2d", "syrk", "syr2k", "trmm", "conv2d",
];
/// Tenants of the gateway workload: two library-node kernels and two loop
/// kernels, 0.4–11 ms per gradient.
const TENANTS: [&str; 4] = ["atax", "mlp", "jacobi2d", "syrk"];

/// What one invocation measures.
#[derive(Clone, Debug)]
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// Seed of input variants and tenant order (and of nothing else).
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Test-preset sizes and a single set-up, for `cargo test`.
    pub smoke: bool,
}

/// One block of a measured window.
#[derive(Clone, Debug)]
pub struct Block {
    /// Op times (ms) of correct operations, per class.
    pub classes: Vec<Vec<f64>>,
    /// Operations completed correctly.
    pub ops_ok: u64,
    /// Measured wall seconds.  Direct workloads: the op times of every
    /// operation attempted in the block, failed ones included (the oracle's
    /// checks between two operations are not the program's time).  Open
    /// loop: from the first request's due time to the last one's completion.
    pub seconds: f64,
    /// First due time and last completion of the block's requests (open
    /// loop only).
    span: Option<(Instant, Instant)>,
    /// The host's clock factor while the block ran: [`clock::factor`] read
    /// before and after every round, averaged.  The fields above are as the
    /// wall clock measured them; whoever reads them divides by this.
    pub clock: f64,
}

impl Block {
    fn new(classes: usize) -> Self {
        Block {
            classes: vec![Vec::new(); classes],
            ops_ok: 0,
            seconds: 0.0,
            span: None,
            clock: 1.0,
        }
    }
}

/// Gateway lifecycle counters summed over tenants; a window reports the
/// difference between its end and its start.
#[derive(Clone, Copy, Debug, Default)]
pub struct GatewayCounters {
    /// Batches dispatched.
    pub batches: u64,
    /// Retry dispatches.
    pub retried: u64,
    /// Requests shed because a queue was full.
    pub overloaded: u64,
    /// Requests shed because a breaker was open.
    pub degraded: u64,
    /// Requests whose deadline passed before dispatch.
    pub expired: u64,
    /// Times a breaker tripped open.
    pub breaker_trips: u64,
}

impl GatewayCounters {
    fn of(stats: &dace_ad::GatewayStats) -> Self {
        let sum = |f: fn(&dace_ad::TenantStats) -> u64| stats.tenants.values().map(f).sum();
        GatewayCounters {
            batches: sum(|t| t.batches),
            retried: sum(|t| t.retried),
            overloaded: sum(|t| t.overloaded),
            degraded: sum(|t| t.degraded),
            expired: sum(|t| t.expired),
            breaker_trips: sum(|t| t.breaker_trips),
        }
    }

    fn since(self, before: GatewayCounters) -> Self {
        GatewayCounters {
            batches: self.batches - before.batches,
            retried: self.retried - before.retried,
            overloaded: self.overloaded - before.overloaded,
            degraded: self.degraded - before.degraded,
            expired: self.expired - before.expired,
            breaker_trips: self.breaker_trips - before.breaker_trips,
        }
    }
}

/// Everything a measured window recorded.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    /// The blocks, in time order.
    pub blocks: Vec<Block>,
    /// `ExecutionReport.elapsed` of every correct operation (ms).
    pub exec_ms: Vec<f64>,
    /// How late the load generator submitted each request (ms; open loop).
    pub late_ms: Vec<f64>,
    /// Wall time of each `submit` call (µs; open loop).
    pub submit_us: Vec<f64>,
    /// Gateway latency minus execute time of each request (ms).
    pub nonexec_ms: Vec<f64>,
    /// `batched_with` of each served request.
    pub batched_with: Vec<f64>,
    /// Requests outstanding at the end of each block (open loop).
    pub backlog: Vec<usize>,
    /// What the gateway's counters moved by over the window.
    pub gateway: GatewayCounters,
    /// Whether arrivals followed a schedule: then a block's seconds are the
    /// schedule's, not the host's, and stay as the wall clock measured them.
    pub open_loop: bool,
}

/// What one window reads.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    /// Measured throughput of the quietest blocks: the
    /// `1 −` [`crate::stats::QUIET_Q`] percentile of the blocks' rates, a
    /// block's rate being the operations it completed correctly over its
    /// measured wall seconds.  Every operation of a block counts, so a
    /// change that slows or fails most operations lowers every block's rate.
    /// On the open loop it follows the offered rate until the gateway falls
    /// behind it.
    pub ops_per_s: f64,
    /// Median op time of the quietest blocks (ms): the
    /// [`crate::stats::QUIET_Q`] percentile over blocks of the block's
    /// geometric mean over classes of the class median.
    pub op_ms_p50: f64,
    /// Geometric mean over classes of the class's quiet time (ms): the
    /// [`crate::stats::QUIET_Q`] percentile of its op times over the whole
    /// window.  The steadiest reading on a noisy host, and blind to a change
    /// that leaves the fastest twentieth of a class's operations alone:
    /// a companion of `op_ms_p50`, never the only timing read.
    pub op_ms_quiet: f64,
    /// Whole-window geometric mean over classes of the class median (ms).
    pub window_ms_p50: f64,
    /// `window_ms_p50` × pooled p95 of (sample ÷ its class median).
    pub window_ms_p95: f64,
    /// Samples pooled for the p95.
    pub samples_pooled: usize,
}

impl Measured {
    /// Reduce the window to its reading.
    pub fn reading(&self) -> Reading {
        let classes: Vec<Vec<f64>> = (0..self.blocks.first().map_or(0, |b| b.classes.len()))
            .map(|c| self.class_samples(c))
            .collect();
        let window_ms_p50 = centre(&classes).unwrap_or(0.0);
        let (tail, samples_pooled) = pooled_tail(&classes, 0.95);
        Reading {
            ops_per_s: percentile(&sorted(&self.block_rates()), 1.0 - QUIET_Q),
            op_ms_p50: percentile(&sorted(&self.block_centres()), QUIET_Q),
            op_ms_quiet: geomean(&quiet_times(&classes)),
            window_ms_p50,
            window_ms_p95: window_ms_p50 * tail,
            samples_pooled,
        }
    }

    /// Each block's operations completed correctly per measured second (on
    /// a closed loop: per second at the reference clock), in time order.
    pub fn block_rates(&self) -> Vec<f64> {
        self.blocks
            .iter()
            .filter(|b| b.seconds > 0.0)
            .map(|b| {
                let clock = if self.open_loop { 1.0 } else { b.clock };
                b.ops_ok as f64 * clock / b.seconds
            })
            .collect()
    }

    /// Each block's geometric mean over classes of the class median (ms at
    /// the reference clock), in time order.
    pub fn block_centres(&self) -> Vec<f64> {
        self.blocks
            .iter()
            .filter_map(|b| Some(centre(&b.classes)? / b.clock))
            .collect()
    }

    /// Every class's samples over the whole window (ms at the reference
    /// clock).
    pub fn class_samples(&self, class: usize) -> Vec<f64> {
        self.blocks
            .iter()
            .flat_map(|b| b.classes[class].iter().map(|ms| ms / b.clock))
            .collect()
    }

    /// Each block's clock factor, in time order.
    pub fn block_clocks(&self) -> Vec<f64> {
        self.blocks.iter().map(|b| b.clock).collect()
    }

    /// The same window as the wall clock measured it.
    pub fn unscaled(&self) -> Measured {
        let mut m = self.clone();
        for block in &mut m.blocks {
            block.clock = 1.0;
        }
        m
    }
}

/// The gateway and one client per tenant (tenant `i` serves class `i`).
struct Front {
    gateway: Arc<Gateway>,
    clients: Vec<GatewayGradientClient>,
}

/// A request in flight through the gateway.
struct Pending {
    handle: GatewayGradientHandle,
    ticket: Ticket,
}

/// What the load generator remembers about a request it sent.
#[derive(Clone, Copy)]
struct Ticket {
    tenant: usize,
    variant: usize,
    /// Block the request is accounted to (none for warm-up requests).
    block: Option<usize>,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    op: u64,
}

/// A workload, set up and warm.
pub struct Bench {
    /// What is being measured.
    pub settings: Settings,
    /// The classes (for a gateway workload, one per tenant).
    pub classes: Vec<GradClass>,
    front: Option<Front>,
    rng: SplitMix64,
    /// Failure accounting since set-up began.
    pub tally: Tally,
    /// Cold lowerings the set-up needed (`PlanCacheStats.misses` delta).
    pub cache_misses: u64,
    /// Largest `CheckpointReport.predicted_peak_bytes` a cold compile saw.
    pub cold_peak: usize,
    ops: u64,
}

fn preset(smoke: bool) -> Preset {
    if smoke {
        Preset::Test
    } else {
        Preset::Bench
    }
}

/// The programs of a workload with the byte limit each must respect.
fn programs(workload: Workload, smoke: bool) -> Result<Vec<(Program, Option<usize>)>, String> {
    let preset = preset(smoke);
    let store_all = |names: &[&str]| -> Result<Vec<(Program, Option<usize>)>, String> {
        names
            .iter()
            .map(|n| {
                Ok((
                    Program::kernel(n, preset, CheckpointStrategy::StoreAll)?,
                    None,
                ))
            })
            .collect()
    };
    let ilp = |limit: usize| CheckpointStrategy::Ilp {
        memory_limit_bytes: limit,
    };
    match workload {
        Workload::GradBlas => store_all(&BLAS),
        Workload::GradLoops => store_all(&LOOPS),
        Workload::GatewayPaced => store_all(&TENANTS),
        // ILP at the frozen limit where the kernel has store/recompute
        // candidates, store-all otherwise.
        Workload::CompileCold => BLAS
            .iter()
            .chain(LOOPS.iter())
            .map(|name| {
                let strategy = kernel_limit(name, preset).map_or(CheckpointStrategy::StoreAll, ilp);
                Ok((Program::kernel(name, preset, strategy)?, None))
            })
            .collect(),
        Workload::CkptIlp => {
            let (n, listing_limit) = if smoke {
                (8, 12 * 8 * 8 * 8 + 16)
            } else {
                (LISTING1_N, LISTING1_LIMIT)
            };
            let mlp_limit = kernel_limit("mlp", preset).expect("mlp has candidates");
            let mlp = |s| Program::kernel("mlp", preset, s);
            Ok(vec![
                (
                    Program::listing1(n, CheckpointStrategy::StoreAll).named("listing1.store"),
                    None,
                ),
                (
                    Program::listing1(n, ilp(listing_limit)).named("listing1.ilp"),
                    Some(listing_limit),
                ),
                (
                    Program::listing1(n, CheckpointStrategy::RecomputeAll)
                        .named("listing1.recompute"),
                    None,
                ),
                (mlp(CheckpointStrategy::StoreAll)?.named("mlp.store"), None),
                (mlp(ilp(mlp_limit))?.named("mlp.ilp"), Some(mlp_limit)),
                (
                    mlp(CheckpointStrategy::RecomputeAll)?.named("mlp.recompute"),
                    None,
                ),
            ])
        }
    }
}

/// What one cold compile produced, and the instants between its parts.
pub struct Cold {
    /// The backward plan (gradient SDFG plus metadata).
    pub plan: BackwardPlan,
    /// `CheckpointReport.predicted_peak_bytes` of the checkpointing pass.
    pub predicted_peak: usize,
    /// A fresh session of the compiled gradient program.
    pub session: Session,
    /// Whether `compile` was served from the plan cache (it must not be).
    pub cache_hit: bool,
    /// Boundaries: build, reverse, checkpoint, compile, session.
    pub marks: [Instant; 6],
}

/// One `compile_cold` operation: everything between a forward program and
/// a session ready to run its gradient, with an empty plan cache.
pub fn cold_compile(program: &Program) -> Result<Cold, String> {
    let fail = |e: &dyn std::fmt::Display| format!("{}: {e}", program.name);
    clear_plan_cache();
    let t0 = Instant::now();
    let sdfg = program.build();
    let t1 = Instant::now();
    let mut plan = generate_backward(&sdfg, OUTPUT, &program.wrt()).map_err(|e| fail(&e))?;
    let t2 = Instant::now();
    let symbols = program.symbols();
    let report = apply_strategy(&mut plan, &program.strategy, &symbols).map_err(|e| fail(&e))?;
    let t3 = Instant::now();
    let compiled = compile(&plan.sdfg, &symbols).map_err(|e| fail(&e))?;
    let t4 = Instant::now();
    let session = compiled.session().with_free_hints(&plan.free_hints);
    let t5 = Instant::now();
    Ok(Cold {
        cache_hit: compiled.cache_hit(),
        plan,
        predicted_peak: report.predicted_peak_bytes,
        session,
        marks: [t0, t1, t2, t3, t4, t5],
    })
}

const COLD_PARTS: [&str; 5] = [
    "frontend.build",
    "core.reverse",
    "core.checkpoint",
    "runtime.compile",
    "runtime.session",
];

impl Bench {
    /// Build every class from scratch (SDFGs, AD, checkpointing, `compile`,
    /// oracle references), start the gateway where there is one, and warm
    /// everything up.
    pub fn setup(settings: &Settings) -> Result<Bench, String> {
        clear_plan_cache();
        let misses_before = plan_cache_stats().misses;
        let mut rng = SplitMix64(settings.seed);
        let mut tally = Tally::default();
        let variants = if settings.workload == Workload::CompileCold {
            1
        } else {
            VARIANTS
        };
        let mut classes = Vec::new();
        for (program, limit) in programs(settings.workload, settings.smoke)? {
            let shifts: Vec<f64> = (0..variants)
                .map(|_| (1 + rng.below(64)) as f64 * 1e-3)
                .collect();
            classes.push(GradClass::build(program, &shifts, limit, &mut tally)?);
        }
        let mut bench = Bench {
            settings: settings.clone(),
            classes,
            front: None,
            rng,
            tally,
            cache_misses: 0,
            cold_peak: 0,
            ops: 0,
        };
        match settings.workload {
            Workload::CompileCold => bench.warm_cold()?,
            Workload::GatewayPaced => bench.start_gateway()?,
            _ => {}
        }
        bench.cache_misses = plan_cache_stats().misses - misses_before;
        Ok(bench)
    }

    /// Largest peak any class observed (on `compile_cold`: predicted).
    pub fn peak_bytes(&self) -> usize {
        if self.settings.workload == Workload::CompileCold {
            self.cold_peak
        } else {
            self.classes.iter().map(|c| c.peak_bytes).max().unwrap_or(0)
        }
    }

    /// One cold compile per class, whose session then has to reproduce the
    /// class's oracle-verified reference bit for bit.
    fn warm_cold(&mut self) -> Result<(), String> {
        for c in 0..self.classes.len() {
            let cold = cold_compile(&self.classes[c].program)?;
            self.cold_peak = self.cold_peak.max(cold.predicted_peak);
            let mut parts = Parts::new(cold.session, &cold.plan);
            let class = &mut self.classes[c];
            let (produced, _) = parts.run(&class.variants[0])?;
            let verdict = class.verify(0, &produced);
            self.tally.record(verdict);
        }
        Ok(())
    }

    fn start_gateway(&mut self) -> Result<(), String> {
        let gateway = Arc::new(Gateway::new(GatewayOptions {
            queue_capacity: 256,
            ..GatewayOptions::default()
        }));
        let clients = self
            .classes
            .iter()
            .map(|class| {
                class
                    .engine
                    .register_with(&gateway, &class.program.name, TenantConfig::default())
                    .map_err(|e| format!("{}: {e}", class.program.name))
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.front = Some(Front { gateway, clients });
        // Fill every tenant's session pool: two bursts as wide as a batch.
        let burst = GatewayOptions::default().max_batch;
        for _ in 0..2 {
            let mut pending = VecDeque::new();
            for tenant in 0..self.classes.len() {
                for _ in 0..burst {
                    self.submit(
                        tenant,
                        Instant::now(),
                        None,
                        &mut pending,
                        &mut Measured::default(),
                    );
                }
            }
            self.finish(&mut pending, &mut Measured::default(), &mut None);
        }
        Ok(())
    }

    /// The measured window of this workload.  With a tracer, every
    /// operation is run in parts with a span around each.
    pub fn measure(&mut self, window: Duration, mut tracer: Option<&mut Tracer>) -> Measured {
        let mut m = Measured::default();
        let before = self.gateway_counters();
        if self.front.is_some() {
            self.measure_paced(window, &mut m, &mut tracer);
        } else {
            self.measure_direct(window, &mut m, &mut tracer);
        }
        m.gateway = self.gateway_counters().since(before);
        m
    }

    fn gateway_counters(&self) -> GatewayCounters {
        self.front
            .as_ref()
            .map_or_else(GatewayCounters::default, |f| {
                GatewayCounters::of(&f.gateway.stats())
            })
    }

    /// Closed loop on this thread: whole blocks of [`ROUNDS_PER_BLOCK`]
    /// rounds over the classes until the window has passed.
    fn measure_direct(
        &mut self,
        window: Duration,
        m: &mut Measured,
        tracer: &mut Option<&mut Tracer>,
    ) {
        let cold = self.settings.workload == Workload::CompileCold;
        let start = Instant::now();
        let mut clocks = vec![clock::factor()];
        while m.blocks.is_empty() || start.elapsed() < window {
            let mut block = Block::new(self.classes.len());
            // The last reading of a block is the first of the next.
            clocks.drain(..clocks.len() - 1);
            for _ in 0..ROUNDS_PER_BLOCK {
                for c in 0..self.classes.len() {
                    self.ops += 1;
                    let (elapsed, verdict) = if cold {
                        self.cold_op(c, tracer)
                    } else {
                        let op = self.ops;
                        self.classes[c].op(tracer.as_deref_mut().map(|t| (t, op)))
                    };
                    block.seconds += elapsed.as_secs_f64();
                    if verdict.is_ok() {
                        block.classes[c].push(elapsed.as_secs_f64() * 1e3);
                        block.ops_ok += 1;
                        if !cold {
                            let exec = self.classes[c].last_report.elapsed;
                            m.exec_ms.push(exec.as_secs_f64() * 1e3);
                        }
                    }
                    self.tally.record(verdict);
                }
                clocks.push(clock::factor());
            }
            block.clock = clock::level(&clocks);
            m.blocks.push(block);
        }
    }

    /// One cold compile, timed from outside the call; its parts (which
    /// leave out emptying the plan cache) are spans inside the operation's.
    fn cold_op(
        &mut self,
        c: usize,
        tracer: &mut Option<&mut Tracer>,
    ) -> (Duration, Result<(), String>) {
        let before = Instant::now();
        let cold = cold_compile(&self.classes[c].program);
        let after = Instant::now();
        let verdict = cold.and_then(|cold| {
            if let Some(tracer) = tracer.as_deref_mut() {
                let span = tracer.record("bench.op", None, self.ops, before, after);
                for (name, w) in COLD_PARTS.iter().zip(cold.marks.windows(2)) {
                    tracer.record(name, Some(span), self.ops, w[0], w[1]);
                }
            }
            self.cold_peak = self.cold_peak.max(cold.predicted_peak);
            if cold.cache_hit {
                return Err(format!(
                    "{}: cold compile was served from the plan cache",
                    self.classes[c].program.name
                ));
            }
            Ok(())
        });
        (after - before, verdict)
    }

    /// Submit the next request of `tenant` and queue its handle.
    fn submit(
        &mut self,
        tenant: usize,
        due: Instant,
        block: Option<usize>,
        pending: &mut VecDeque<Pending>,
        m: &mut Measured,
    ) {
        let front = self.front.as_ref().expect("gateway workload");
        let class = &mut self.classes[tenant];
        let variant = class.next_variant();
        self.ops += 1;
        let submit_start = Instant::now();
        let handle = front.clients[tenant].submit(&class.variants[variant]);
        let submit_end = Instant::now();
        m.submit_us
            .push((submit_end - submit_start).as_secs_f64() * 1e6);
        match handle {
            Ok(handle) => pending.push_back(Pending {
                handle,
                ticket: Ticket {
                    tenant,
                    variant,
                    block,
                    due,
                    submit_start,
                    submit_end,
                    op: self.ops,
                },
            }),
            Err(e) => self
                .tally
                .record(Err(format!("{}: refused: {e}", class.program.name))),
        }
    }

    /// Account for one resolved request: verify it, and if it is correct
    /// and belongs to a block, record its latency there.  Latency is timed
    /// from when the request was *due*: how late the generator sent it plus
    /// the gateway's own submit-to-completion time.
    fn resolve(
        &mut self,
        p: Ticket,
        outcome: Result<ServedGradient, String>,
        m: &mut Measured,
        tracer: &mut Option<&mut Tracer>,
    ) {
        let class = &mut self.classes[p.tenant];
        let verdict = outcome.and_then(|served| {
            let produced = Produced::from(served.result);
            class.verify(p.variant, &produced)?;
            Ok((served.latency, served.batched_with, produced.report.elapsed))
        });
        match verdict {
            Err(e) => self.tally.record(Err(e)),
            Ok((latency, batched_with, exec)) => {
                self.tally.record(Ok(()));
                let late = p.submit_start.saturating_duration_since(p.due);
                if let Some(b) = p.block {
                    let block = &mut m.blocks[b];
                    block.classes[p.tenant].push((late + latency).as_secs_f64() * 1e3);
                    block.ops_ok += 1;
                    let done = p.submit_start + latency;
                    block.span = Some(match block.span {
                        None => (p.due, done),
                        Some((first, last)) => (first.min(p.due), last.max(done)),
                    });
                    m.exec_ms.push(exec.as_secs_f64() * 1e3);
                    m.late_ms.push(late.as_secs_f64() * 1e3);
                    m.nonexec_ms
                        .push(latency.saturating_sub(exec).as_secs_f64() * 1e3);
                    m.batched_with.push(batched_with as f64);
                }
                if let Some(tracer) = tracer.as_deref_mut() {
                    let start = p.due.min(p.submit_start);
                    let request = tracer.record(
                        "gateway.request",
                        None,
                        p.op,
                        start,
                        p.submit_start + latency,
                    );
                    if late > Duration::ZERO {
                        tracer.record("bench.late", Some(request), p.op, p.due, p.submit_start);
                    }
                    tracer.record(
                        "gateway.submit",
                        Some(request),
                        p.op,
                        p.submit_start,
                        p.submit_end,
                    );
                }
            }
        }
    }

    /// Resolve every finished handle without blocking.
    fn drain(
        &mut self,
        pending: &mut VecDeque<Pending>,
        m: &mut Measured,
        tracer: &mut Option<&mut Tracer>,
    ) {
        let mut i = 0;
        while i < pending.len() {
            if !pending[i].handle.is_done() {
                i += 1;
                continue;
            }
            let Pending { handle, ticket } = pending.remove(i).expect("index in range");
            let outcome = handle.wait().map_err(|e| e.to_string());
            self.resolve(ticket, outcome, m, tracer);
        }
    }

    /// Wait for everything still in flight.  A handle that does not resolve
    /// within [`LOST_AFTER`] is a lost request.
    fn finish(
        &mut self,
        pending: &mut VecDeque<Pending>,
        m: &mut Measured,
        tracer: &mut Option<&mut Tracer>,
    ) {
        while let Some(Pending { handle, ticket }) = pending.pop_front() {
            let outcome = match handle.wait_timeout(LOST_AFTER) {
                Some(result) => result.map_err(|e| e.to_string()),
                None => Err("request lost: handle never resolved".to_string()),
            };
            self.resolve(ticket, outcome, m, tracer);
        }
    }

    /// Snapshot the gateway's counters at a block boundary.
    fn checkpoint(&mut self, outstanding: usize, m: &mut Measured) {
        let front = self.front.as_ref().expect("gateway workload");
        if !front.gateway.stats().conserves() {
            self.tally
                .violation("gateway counters do not conserve".to_string());
        }
        m.backlog.push(outstanding);
    }

    /// Open loop: requests are due at evenly spaced instants whatever the
    /// gateway does.  Each round of arrivals is a seeded permutation of the
    /// tenants, so a block of [`ROUNDS_PER_BLOCK`] rounds holds as many
    /// requests of every tenant as a direct workload's block holds
    /// operations of every class.
    fn measure_paced(
        &mut self,
        window: Duration,
        m: &mut Measured,
        tracer: &mut Option<&mut Tracer>,
    ) {
        let tenants = self.classes.len();
        let per_block = ROUNDS_PER_BLOCK * tenants;
        let blocks = ((PACED_RATE * window.as_secs_f64()) as usize / per_block).max(1);
        m.blocks = (0..blocks).map(|_| Block::new(tenants)).collect();
        m.open_loop = true;
        // The generator reads the clock before every round, between two
        // sends.
        let mut clocks = Vec::with_capacity(blocks * ROUNDS_PER_BLOCK + 1);
        let interval = Duration::from_secs_f64(1.0 / PACED_RATE);
        let start = Instant::now() + interval;
        let mut pending = VecDeque::new();
        let mut round: Vec<usize> = (0..tenants).collect();
        for i in 0..blocks * per_block {
            let due = start + interval * i as u32;
            if i > 0 && i % per_block == 0 {
                self.checkpoint(pending.len(), m);
            }
            if i % tenants == 0 {
                self.rng.shuffle(&mut round);
                clocks.push(clock::factor());
            }
            self.drain(&mut pending, m, tracer);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            self.submit(
                round[i % tenants],
                due,
                Some(i / per_block),
                &mut pending,
                m,
            );
        }
        self.checkpoint(pending.len(), m);
        clocks.push(clock::factor());
        self.finish(&mut pending, m, tracer);
        for (b, block) in m.blocks.iter_mut().enumerate() {
            let first = b * ROUNDS_PER_BLOCK;
            block.clock = clock::level(&clocks[first..=first + ROUNDS_PER_BLOCK]);
            if let Some((first_due, last_done)) = block.span {
                block.seconds = (last_done - first_due).as_secs_f64();
            }
        }
    }

    /// Whether the workload goes through the gateway.
    pub fn has_gateway(&self) -> bool {
        self.front.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A window of `blocks` one-class blocks of 20 operations each, of which
    /// the first `slow` take 3 ms and the rest 1 ms; every fourth block runs
    /// beside a neighbour that makes it twice as slow, and from block
    /// `stepped` on the host's clock is a level down, which the clock factor
    /// of those blocks says.
    fn window(blocks: usize, slow: usize, stepped: usize) -> Measured {
        let blocks = (0..blocks)
            .map(|b| {
                let clock = if b >= stepped { 1.27 } else { 1.0 };
                let host = clock * if b % 4 == 3 { 2.0 } else { 1.0 };
                let ops: Vec<f64> = (0..20)
                    .map(|i| host * if i < slow { 3.0 } else { 1.0 })
                    .collect();
                Block {
                    seconds: ops.iter().sum::<f64>() / 1e3,
                    ops_ok: ops.len() as u64,
                    classes: vec![ops],
                    span: None,
                    clock,
                }
            })
            .collect();
        Measured {
            blocks,
            ..Measured::default()
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * b.abs()
    }

    #[test]
    fn the_quiet_blocks_are_read_and_a_slow_majority_shows() {
        let before = window(40, 0, 40).reading();
        assert!(close(before.ops_per_s, 1000.0));
        assert!(close(before.op_ms_p50, 1.0));
        assert!(close(before.op_ms_quiet, 1.0));
        assert!(close(before.window_ms_p50, 1.0));
        // Three operations in four get slower, the fastest quarter does not:
        // the throughput and the median say so, the quiet time cannot.
        let after = window(40, 15, 40).reading();
        assert!(close(after.ops_per_s, 20.0 * 1e3 / 50.0));
        assert!(close(after.op_ms_p50, 3.0));
        assert!(close(after.op_ms_quiet, 1.0));
    }

    #[test]
    fn a_failed_operation_costs_throughput() {
        let mut m = window(40, 0, 40);
        for block in &mut m.blocks {
            block.ops_ok -= 5;
        }
        assert!(close(m.reading().ops_per_s, 750.0));
    }

    #[test]
    fn a_clock_level_does_not_move_the_reading() {
        // The same code on the reference level, on a slower level all
        // window long, and stepping down halfway reads the same; as the wall
        // clock measured it, the slower window reads slower.
        let fast = window(40, 0, 40).reading();
        for stepped in [0, 20] {
            let m = window(40, 0, stepped);
            let r = m.reading();
            assert!(close(r.ops_per_s, fast.ops_per_s));
            assert!(close(r.op_ms_p50, fast.op_ms_p50));
            assert!(close(r.op_ms_quiet, fast.op_ms_quiet));
            assert!(close(r.window_ms_p50, fast.window_ms_p50));
        }
        let wall = window(40, 0, 0).unscaled().reading();
        assert!(close(wall.op_ms_p50, 1.27));
        assert!(close(wall.ops_per_s, 1000.0 / 1.27));
    }

    #[test]
    fn an_open_loop_keeps_its_schedule() {
        // Arrivals follow the wall clock whatever the host's level: the
        // rate is not scaled, the latencies are.
        let mut m = window(40, 0, 0);
        m.open_loop = true;
        let r = m.reading();
        assert!(close(r.ops_per_s, 1000.0 / 1.27));
        assert!(close(r.op_ms_p50, 1.0));
    }
}
