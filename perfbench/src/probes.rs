//! Per-layer metrics of the traced run.
//!
//! Every layer is measured from outside: by timing calls into its public
//! functions and reading its public counters.  Compile-side and run-side
//! probes walk the workload's own classes before the traced window; the
//! window's spans and samples supply the rest.
//!
//! Aggregation over a workload's classes: a time is the mean over classes
//! of each class's median; a count is the sum over classes (the predicted
//! peak is the maximum); a ratio of times is a geometric mean.  A metric
//! that does not apply to the workload is set to 0 explicitly; one that
//! applies and is missing or not finite fails the run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dace_ad::checkpoint::apply_strategy;
use dace_ad::{generate_backward, CheckpointStrategy, GradientEngine};
use dace_runtime::{clear_plan_cache, compile, BatchDriver, MapPath, SpecMode};
use dace_sdfg::{analyze_map, DataflowGraph, DfNode, ParVerdict, Severity};
use dace_tensor::random::uniform;

use crate::catalogue::{Workload, PER_LAYER};
use crate::program::{GradClass, Parts, OUTPUT};
use crate::stats::{geomean, mean, median, percentile, sorted};
use crate::trace::Tracer;
use crate::workloads::{Bench, Measured, PACED_RATE};

/// Repetitions of a compile-side probe (each takes well under 2 ms).
const COMPILE_REPS: usize = 5;
/// Repetitions of a run-side probe (each is one gradient run).
const RUN_REPS: usize = 3;

/// Per-layer metric values by name.
pub type Layers = BTreeMap<String, f64>;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `f` `reps` times with a span around each; the median wall time (ms)
/// and the last result.
fn timed<T>(
    tracer: &mut Tracer,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let value = f();
        let t1 = Instant::now();
        tracer.record(name, None, 0, t0, t1);
        times.push(ms(t1 - t0));
        last = Some(value);
    }
    (median(&times), last.expect("at least one repetition"))
}

fn map_verdicts(
    graph: &DataflowGraph,
    bindings: &std::collections::HashMap<String, i64>,
    out: &mut Vec<ParVerdict>,
) {
    for node in &graph.nodes {
        if let DfNode::MapScope(m) = node {
            out.push(analyze_map(m, bindings));
            map_verdicts(&m.body, bindings, out);
        }
    }
}

fn count_nodes(graph: &DataflowGraph) -> usize {
    graph
        .nodes
        .iter()
        .map(|node| match node {
            DfNode::MapScope(m) => 1 + count_nodes(&m.body),
            _ => 1,
        })
        .sum()
}

/// What the probes learnt about one class.
#[derive(Clone, Debug, Default)]
struct ClassProbe {
    build_ms: f64,
    engine_new_ms: f64,
    reverse_ms: f64,
    checkpoint_ms: f64,
    validate_ms: f64,
    deps_ms: f64,
    compile_cold_ms: f64,
    compile_hit_ms: f64,
    first_run_ms: f64,
    states: usize,
    nodes: usize,
    safe: usize,
    reduction: usize,
    race: usize,
    unknown: usize,
    warnings: usize,
    candidates: usize,
    stored: usize,
    recomputed: usize,
    predicted_peak: usize,
    ilp: Option<(f64, usize, bool)>,
    fwd_ms: f64,
    grad_ms: f64,
    bind_ms: f64,
    exec_ms: f64,
    fetch_ms: f64,
    vm_ms: f64,
    seq_ms: f64,
    wide_ms: f64,
    batch_item_ms: f64,
    pool_reused: u64,
    pool_checkouts: u64,
}

/// Compile-side probes of one class: every public step between a forward
/// program and a runnable session, each timed on its own.
fn probe_compile(class: &GradClass, tracer: &mut Tracer) -> Result<ClassProbe, String> {
    let program = &class.program;
    let fail = |e: &dyn std::fmt::Display| format!("{}: {e}", program.name);
    let symbols = program.symbols();
    let wrt = program.wrt();
    let mut p = ClassProbe::default();

    let (build_ms, sdfg) = timed(tracer, "frontend.build", COMPILE_REPS, || program.build());
    p.build_ms = build_ms;
    let (engine_new_ms, engine) = timed(tracer, "core.engine_new", COMPILE_REPS, || {
        clear_plan_cache();
        program.engine(&sdfg)
    });
    p.engine_new_ms = engine_new_ms;
    drop::<GradientEngine>(engine?);
    let (reverse_ms, plan) = timed(tracer, "core.reverse", COMPILE_REPS, || {
        generate_backward(&sdfg, OUTPUT, &wrt)
    });
    p.reverse_ms = reverse_ms;
    let fresh = plan.map_err(|e| fail(&e))?;
    p.candidates = fresh.candidates.len();
    // `apply_strategy` rewrites the plan it is given, so every repetition
    // gets its own copy of the freshly reversed one (cloned outside the
    // timed call).
    let mut copies: Vec<_> = (0..COMPILE_REPS).map(|_| fresh.clone()).collect();
    let (checkpoint_ms, done) = timed(tracer, "core.checkpoint", COMPILE_REPS, || {
        let mut plan = copies.pop().expect("one copy per repetition");
        apply_strategy(&mut plan, &program.strategy, &symbols).map(|report| (plan, report))
    });
    p.checkpoint_ms = checkpoint_ms;
    let (plan, report) = done.map_err(|e| fail(&e))?;
    p.stored = report.stored.len();
    p.recomputed = report.recomputed.len();
    p.predicted_peak = report.predicted_peak_bytes;
    if matches!(program.strategy, CheckpointStrategy::Ilp { .. }) {
        p.ilp = Some((ms(report.solve_time), report.solver_nodes, report.feasible));
    }

    let (validate_ms, diagnostics) = timed(tracer, "sdfg.validate", COMPILE_REPS, || {
        plan.sdfg.validate()
    });
    p.validate_ms = validate_ms;
    p.warnings = diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .count();
    let (deps_ms, verdicts) = timed(tracer, "sdfg.deps", COMPILE_REPS, || {
        let mut verdicts = Vec::new();
        for state in &plan.sdfg.states {
            map_verdicts(&state.graph, &symbols, &mut verdicts);
        }
        verdicts
    });
    p.deps_ms = deps_ms;
    for v in &verdicts {
        match v {
            ParVerdict::Safe => p.safe += 1,
            ParVerdict::Reduction => p.reduction += 1,
            ParVerdict::Race(_) => p.race += 1,
            ParVerdict::Unknown => p.unknown += 1,
        }
    }
    p.states = plan.sdfg.states.len();
    p.nodes = plan.sdfg.states.iter().map(|s| count_nodes(&s.graph)).sum();

    let (cold_ms, compiled) = timed(tracer, "runtime.compile_cold", COMPILE_REPS, || {
        clear_plan_cache();
        compile(&plan.sdfg, &symbols)
    });
    p.compile_cold_ms = cold_ms;
    let compiled = compiled.map_err(|e| fail(&e))?;
    let (hit_ms, hit) = timed(tracer, "runtime.compile_hit", COMPILE_REPS, || {
        compile(&plan.sdfg, &symbols)
    });
    p.compile_hit_ms = hit_ms;
    hit.map_err(|e| fail(&e))?;

    // First run of a fresh session: slab allocation and un-upgraded
    // specialization sites included.
    let mut firsts = Vec::with_capacity(RUN_REPS);
    for _ in 0..RUN_REPS {
        let session = compiled.session().with_free_hints(&plan.free_hints);
        let mut parts = Parts::new(session, &plan);
        let (_, [_, t1, t2, _]) = parts.run(&class.variants[0])?;
        tracer.record("runtime.first_run", None, 0, t1, t2);
        firsts.push(ms(t2 - t1));
    }
    p.first_run_ms = median(&firsts);
    Ok(p)
}

/// Run-side probes of one class, at intra-op width 1 except where stated.
fn probe_run(class: &mut GradClass, p: &mut ClassProbe, tracer: &mut Tracer) -> Result<(), String> {
    let fail = |name: &str, e: &dyn std::fmt::Display| format!("{name}: {e}");
    let name = class.program.name.clone();
    let inputs = class.variants[0].clone();
    let width1 = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the shim's pool builder cannot fail");

    width1.install(|| -> Result<(), String> {
        class
            .engine
            .run_forward(&inputs)
            .map_err(|e| fail(&name, &e))?;
        let (fwd_ms, fwd) = timed(tracer, "core.fwd", RUN_REPS, || {
            class.engine.run_forward(&inputs)
        });
        p.fwd_ms = fwd_ms;
        fwd.map_err(|e| fail(&name, &e))?;
        let (grad_ms, grad) = timed(tracer, "core.grad", RUN_REPS, || class.engine.run(&inputs));
        p.grad_ms = grad_ms;
        grad.map_err(|e| fail(&name, &e))?;
        Ok(())
    })?;

    // The engine's run in parts, on the benchmark's own session: warm it,
    // then time bind / execute / fetch.
    let exec_of = |class: &mut GradClass, tracer: &mut Tracer, span: Option<&'static str>| {
        let mut bind = Vec::new();
        let mut exec = Vec::new();
        let mut fetch = Vec::new();
        for _ in 0..RUN_REPS {
            let (produced, [t0, t1, t2, t3]) = class.parts.run(&inputs)?;
            if let Some(span) = span {
                tracer.record(span, None, 0, t1, t2);
            } else {
                let op = tracer.record("bench.probe_op", None, 0, t0, t3);
                tracer.record("core.bind", Some(op), 0, t0, t1);
                tracer.record("runtime.exec", Some(op), 0, t1, t2);
                tracer.record("core.fetch", Some(op), 0, t2, t3);
            }
            bind.push(ms(t1 - t0));
            exec.push(ms(produced.report.elapsed));
            fetch.push(ms(t3 - t2));
        }
        Ok::<_, String>((median(&bind), median(&exec), median(&fetch)))
    };
    width1.install(|| -> Result<(), String> {
        for _ in 0..4 {
            class.parts.run(&inputs)?;
        }
        (p.bind_ms, p.exec_ms, p.fetch_ms) = exec_of(class, tracer, None)?;
        class.parts.session.force_specialization(SpecMode::ForceOff);
        p.vm_ms = exec_of(class, tracer, Some("runtime.exec_vm"))?.1;
        class.parts.session.force_specialization(SpecMode::Auto);
        class.parts.session.force_map_path(MapPath::Sequential);
        p.seq_ms = exec_of(class, tracer, Some("runtime.exec_seq"))?.1;
        class.parts.session.force_map_path(MapPath::Auto);
        Ok(())
    })?;
    // Width `nproc`: informative only on a shared box.
    let wide = rayon::ThreadPoolBuilder::new()
        .num_threads(0)
        .build()
        .expect("the shim's pool builder cannot fail");
    p.wide_ms = wide
        .install(|| exec_of(class, tracer, Some("runtime.exec_wide")))?
        .1;

    // The same items through a `BatchDriver` of its own: one batch to fill
    // the session pool, one measured.
    let mut driver = BatchDriver::new(class.engine.gradient_program().clone());
    driver.set_free_hints(&class.engine.plan().free_hints);
    let items: Vec<_> = class
        .variants
        .iter()
        .map(|v| class.parts.bound(v))
        .collect();
    let fetch = class.parts.fetch();
    driver.run_batch(&items, &fetch);
    let t0 = Instant::now();
    let out = driver.run_batch(&items, &fetch);
    let t1 = Instant::now();
    tracer.record("batch.run_batch", None, 0, t0, t1);
    if out.report.failed > 0 {
        return Err(format!("{name}: a batch item failed"));
    }
    p.batch_item_ms = ms(t1 - t0) / items.len() as f64;
    p.pool_reused = driver.sessions_reused();
    p.pool_checkouts = driver.sessions_reused() + driver.sessions_created();
    Ok(())
}

/// The paced load for one class through `GradientEngine::serve`: median
/// latency and median of (latency − execute time), in ms.
fn probe_serve(class: &mut GradClass, requests: usize) -> Result<(f64, f64), String> {
    let fail = |e: &dyn std::fmt::Display| format!("{}: serve: {e}", class.program.name);
    let server = class.engine.serve();
    for inputs in &class.variants {
        server
            .submit(inputs)
            .and_then(|h| h.wait())
            .map_err(|e| fail(&e))?;
    }
    let interval = Duration::from_secs_f64(1.0 / PACED_RATE);
    let start = Instant::now() + interval;
    let mut handles = Vec::with_capacity(requests);
    for i in 0..requests {
        if let Some(wait) = (start + interval * i as u32).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let inputs = &class.variants[i % class.variants.len()];
        handles.push(server.submit(inputs).map_err(|e| fail(&e))?);
    }
    let mut latency = Vec::with_capacity(requests);
    let mut nonexec = Vec::with_capacity(requests);
    for handle in handles {
        let served = handle.wait().map_err(|e| fail(&e))?;
        latency.push(ms(served.latency));
        nonexec.push(ms(served
            .latency
            .saturating_sub(served.result.report.elapsed)));
    }
    Ok((median(&latency), median(&nonexec)))
}

/// `VmHWM` of this process in bytes (0 where `/proc` has no such line).
fn rss_peak_bytes() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb * 1024.0)
}

/// Everything the probes measured before the traced window.
pub struct Probes {
    classes: Vec<ClassProbe>,
    serve: (f64, f64),
    matvec_us: f64,
    matmul_us: f64,
}

/// Run every probe over the workload's classes.
pub fn run(bench: &mut Bench, tracer: &mut Tracer) -> Result<Probes, String> {
    let mut classes = Vec::with_capacity(bench.classes.len());
    for class in &mut bench.classes {
        let mut probe = probe_compile(class, tracer)?;
        probe_run(class, &mut probe, tracer)?;
        classes.push(probe);
    }
    let requests = if bench.settings.smoke { 8 } else { 40 };
    let serve = probe_serve(&mut bench.classes[0], requests)?;

    let width1 = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the shim's pool builder cannot fail");
    let (matvec_us, matmul_us) = width1.install(|| {
        let (a, x) = (uniform(&[220, 180], 1), uniform(&[180], 2));
        let (b, c) = (uniform(&[160, 160], 3), uniform(&[160, 160], 4));
        let matvec = timed(tracer, "tensor.matvec", 9, || {
            std::hint::black_box(a.matvec(std::hint::black_box(&x))).is_ok()
        });
        let matmul = timed(tracer, "tensor.matmul", 5, || {
            std::hint::black_box(b.matmul(std::hint::black_box(&c))).is_ok()
        });
        (matvec.0 * 1e3, matmul.0 * 1e3)
    });
    Ok(Probes {
        classes,
        serve,
        matvec_us,
        matmul_us,
    })
}

/// Assemble every per-layer metric from the probes, the traced window
/// (`traced`, with its spans in `tracer`) and the untraced comparison
/// window (`plain`).
pub fn layers(
    bench: &Bench,
    probes: &Probes,
    traced: &Measured,
    plain: &Measured,
    tracer: &Tracer,
) -> Layers {
    let mut out = Layers::new();
    // Rows that apply to some workloads only read 0 on the others: the
    // gateway's, the load generator's, and the kernels the workload does
    // not run.  Whatever applies overwrites its row below.
    for m in PER_LAYER {
        let sometimes = ["gateway.", "npbench.grad_ms.", "bench.loadgen_"];
        if sometimes.iter().any(|prefix| m.name.starts_with(prefix)) {
            out.insert(m.name.to_string(), 0.0);
        }
    }
    let mut set = |name: &str, value: f64| {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "`{name}` is not in the catalogue"
        );
        out.insert(name.to_string(), value);
    };
    let classes = &probes.classes;
    let mean_of = |f: fn(&ClassProbe) -> f64| mean(&classes.iter().map(f).collect::<Vec<_>>());
    let sum_of = |f: fn(&ClassProbe) -> usize| classes.iter().map(f).sum::<usize>() as f64;
    let geo_of = |f: fn(&ClassProbe) -> f64| geomean(&classes.iter().map(f).collect::<Vec<_>>());

    set("frontend.build_ms", mean_of(|p| p.build_ms));
    set("sdfg.validate_ms", mean_of(|p| p.validate_ms));
    set("sdfg.deps_ms", mean_of(|p| p.deps_ms));
    set("sdfg.grad_states", sum_of(|p| p.states));
    set("sdfg.grad_nodes", sum_of(|p| p.nodes));
    set("sdfg.maps_safe", sum_of(|p| p.safe));
    set("sdfg.maps_reduction", sum_of(|p| p.reduction));
    set("sdfg.maps_race", sum_of(|p| p.race));
    set("sdfg.maps_unknown", sum_of(|p| p.unknown));
    set("sdfg.warnings", sum_of(|p| p.warnings));
    set("core.reverse_ms", mean_of(|p| p.reverse_ms));
    set("core.checkpoint_ms", mean_of(|p| p.checkpoint_ms));
    set("core.engine_new_ms", mean_of(|p| p.engine_new_ms));
    set("core.candidates", sum_of(|p| p.candidates));
    set("core.stored", sum_of(|p| p.stored));
    set("core.recomputed", sum_of(|p| p.recomputed));
    set(
        "core.predicted_peak_bytes",
        classes.iter().map(|p| p.predicted_peak).max().unwrap_or(0) as f64,
    );
    set(
        "core.peak_gap_bytes",
        bench
            .classes
            .iter()
            .zip(classes)
            .map(|(c, p)| c.peak_bytes as f64 - p.predicted_peak as f64)
            .sum(),
    );
    set("core.fwd_ms", mean_of(|p| p.fwd_ms));
    set(
        "core.grad_over_fwd",
        geo_of(|p| p.grad_ms / p.fwd_ms.max(1e-9)),
    );

    let solves: Vec<_> = classes.iter().filter_map(|p| p.ilp).collect();
    set(
        "ilp.solve_ms",
        mean(&solves.iter().map(|s| s.0).collect::<Vec<_>>()),
    );
    set(
        "ilp.nodes",
        solves.iter().map(|s| s.1).sum::<usize>() as f64,
    );
    let feasible = solves.iter().filter(|s| s.2).count();
    set(
        "ilp.feasible_share",
        if solves.is_empty() {
            0.0
        } else {
            feasible as f64 / solves.len() as f64
        },
    );

    set("runtime.compile_cold_ms", mean_of(|p| p.compile_cold_ms));
    set("runtime.compile_hit_ms", mean_of(|p| p.compile_hit_ms));
    set("runtime.plan_cache_misses", bench.cache_misses as f64);
    set("runtime.first_run_ms", mean_of(|p| p.first_run_ms));

    // Bind / execute / fetch: from the traced window where its operations
    // are gradient runs, from the run-side probes otherwise.
    let totals = tracer.totals();
    let span_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_ms());
    let window_runs = bench.settings.workload != Workload::CompileCold;
    let direct_runs = window_runs && bench.settings.workload.is_direct();
    set(
        "core.bind_ms",
        if direct_runs {
            span_ms("core.bind")
        } else {
            mean_of(|p| p.bind_ms)
        },
    );
    set(
        "core.fetch_ms",
        if direct_runs {
            span_ms("core.fetch")
        } else {
            mean_of(|p| p.fetch_ms)
        },
    );
    set(
        "runtime.exec_ms",
        if window_runs {
            mean(&traced.exec_ms)
        } else {
            mean_of(|p| p.exec_ms)
        },
    );
    let report_sum = |f: fn(&dace_runtime::ExecutionReport) -> u64| {
        bench.classes.iter().map(|c| f(&c.last_report)).sum::<u64>() as f64
    };
    let tasklets = report_sum(|r| r.tasklet_invocations);
    set("runtime.tasklets", tasklets);
    set("runtime.map_points", report_sum(|r| r.map_points));
    set("runtime.states", report_sum(|r| r.state_executions));
    set("runtime.library_calls", report_sum(|r| r.library_calls));
    set(
        "runtime.spec_dispatches",
        report_sum(|r| r.specialized_dispatches),
    );
    set("runtime.final_bytes", report_sum(|r| r.final_bytes as u64));
    let exec_total_ns: f64 = classes.iter().map(|p| p.exec_ms * 1e6).sum();
    set("runtime.ns_per_tasklet", exec_total_ns / tasklets.max(1.0));
    set("runtime.vm_ms", mean_of(|p| p.vm_ms));
    set(
        "runtime.spec_speedup",
        geo_of(|p| p.vm_ms / p.exec_ms.max(1e-9)),
    );
    set("runtime.seq_ms", mean_of(|p| p.seq_ms));
    set(
        "runtime.par_speedup",
        geo_of(|p| p.exec_ms / p.wide_ms.max(1e-9)),
    );

    set("batch.item_ms", mean_of(|p| p.batch_item_ms));
    let checkouts: u64 = classes.iter().map(|p| p.pool_checkouts).sum();
    let reused: u64 = classes.iter().map(|p| p.pool_reused).sum();
    set(
        "batch.pool_hit_ratio",
        reused as f64 / checkouts.max(1) as f64,
    );
    set("serve.p50_ms", probes.serve.0);
    set("serve.nonexec_ms", probes.serve.1);

    if bench.has_gateway() {
        let moved = traced.gateway;
        set("gateway.submit_us", median(&traced.submit_us));
        set("gateway.nonexec_ms", median(&traced.nonexec_ms));
        set("gateway.batched_with_mean", mean(&traced.batched_with));
        set("gateway.batches", moved.batches as f64);
        set(
            "gateway.largest_batch",
            traced.batched_with.iter().copied().fold(0.0, f64::max),
        );
        set("gateway.retried", moved.retried as f64);
        set("gateway.overloaded", moved.overloaded as f64);
        set("gateway.degraded", moved.degraded as f64);
        set("gateway.expired", moved.expired as f64);
        set("gateway.breaker_trips", moved.breaker_trips as f64);
        set(
            "gateway.backlog_end",
            traced.backlog.last().copied().unwrap_or(0) as f64,
        );
        let mut overheads = Vec::new();
        for (c, (class, probe)) in bench.classes.iter().zip(classes).enumerate() {
            let p50 = median(&traced.class_samples(c));
            set(&format!("gateway.p50_ms.{}", class.program.name), p50);
            overheads.push(p50 - probe.grad_ms);
        }
        set("gateway.overhead_ms", mean(&overheads));
    }

    set("tensor.matvec_us", probes.matvec_us);
    set("tensor.matmul_us", probes.matmul_us);
    // Computed from the shapes, not measured: 2n³ flops over three n × n
    // arrays of 8-byte elements.
    set("tensor.flops_per_byte", 2.0 * 160.0 / (3.0 * 8.0));

    let mut jax_ms = Vec::new();
    let mut speedups = Vec::new();
    // In reverse, so that of several classes of one kernel (`ckpt_ilp`) the
    // first — store-all — is the one whose row stays.
    for (class, probe) in bench.classes.iter().zip(classes).rev() {
        let Some(kernel) = class.program.kernel_name() else {
            continue;
        };
        let jax = median(&class.oracle_ms);
        jax_ms.push(jax);
        speedups.push(jax / probe.grad_ms.max(1e-9));
        set(&format!("npbench.grad_ms.{kernel}"), probe.grad_ms);
    }
    set("jaxrt.grad_ms", mean(&jax_ms));
    set("npbench.speedup_vs_jaxrt", geomean(&speedups));

    if bench.has_gateway() {
        set(
            "bench.loadgen_late_ms_p99",
            percentile(&sorted(&traced.late_ms), 0.99),
        );
    }
    let (with, without) = (traced.reading(), plain.reading());
    set("bench.clock_factor", median(&plain.block_clocks()));
    set("bench.window_ms_p50", without.window_ms_p50);
    set("bench.window_ms_p95", without.window_ms_p95);
    set(
        "bench.trace_overhead",
        with.op_ms_quiet / without.op_ms_quiet.max(1e-9) - 1.0,
    );
    let roots: Vec<_> = ["bench.op", "gateway.request"]
        .iter()
        .filter_map(|n| totals.get(n))
        .collect();
    let root_total: u64 = roots.iter().map(|t| t.total_ns).sum();
    let root_self: u64 = roots.iter().map(|t| t.self_ns).sum();
    set(
        "bench.span_cover",
        1.0 - root_self as f64 / root_total.max(1) as f64,
    );
    set("bench.rss_peak_bytes", rss_peak_bytes());
    set("bench.samples_pooled", without.samples_pooled as f64);
    out
}
