//! Record or check perf baselines for the figure kernels.
//!
//! Record mode runs every NPBench kernel's DaCe-AD gradient at the chosen
//! preset, plus synthetic rows — `fd_validation` (one
//! finite-difference validation sweep at a fixed small 12×10 atax size,
//! guarding the compile-once property: one forward lowering per sweep
//! instead of two per input element), `batch_throughput` (batched gradient
//! serving of atax + jacobi2d through `BatchDriver`, guarding the per-item
//! cost of the batched path; the row also records items/sec for both the
//! serial loop and the batched driver) and `serve_latency` (open-loop
//! dynamic-admission serving of the same kernels through
//! `GradientEngine::serve`, a one-tenant `Gateway`, guarding the
//! per-request cost of the gateway path; the row also records
//! p50/p95 latency and the observed coalescing) — and writes one JSON
//! object per row to the output file.  A fourth synthetic row,
//! `specialized_kernels`, times the gradient programs (fwd+bwd) of the seven
//! loop kernels through the plan specialization tier (the default) against
//! the VM interpreter (forced off) over identical compiled plans, verifying
//! before recording that every loop site outside the named exceptions
//! attached the kernel and that every array is bit-identical; its `dace_ms`
//! is the specialized-path total, with the VM total and the geometric-mean
//! speedup as extra keys.
//!
//! Every figure is validated before rendering: a non-finite or non-positive
//! `dace_ms` (a zero-elapsed clock, an `inf` ratio) is a hard error, so a
//! degenerate measurement can never be written into the baseline file where
//! compare mode would silently ratio against it.
//!
//! Compare mode re-measures and exits non-zero when any row regressed by
//! more than `--max-regression` (default 0.25 = 25%) against the stored
//! `dace_ms`, which is what the CI `bench-smoke` job runs.
//!
//! Full methodology (presets, best-of-N policy, row schema) is documented in
//! `docs/benchmarking.md`; `--help` prints the usage summary below.
//!
//! The JSON is written one row per line and parsed with a minimal scanner
//! (no serde in the offline build); extra keys such as the hand-recorded
//! `pre_pr_ms` history and the throughput fields of `batch_throughput` are
//! preserved by ignoring them.

use std::collections::{BTreeMap, HashMap};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dace_ad::{AdOptions, GradientEngine};
use dace_runtime::{KernelMiss, MapStrategy, SpecMode};
use dace_tensor::Tensor;
use npbench::runner::{
    percentile_ms, serve_options, time_batch, time_dace, time_fd_validation, time_serve,
};
use npbench::{all_kernels, kernel_by_name, Preset};

/// Batch size per kernel for the `batch_throughput` row.
const BATCH_ITEMS: usize = 8;

/// Kernels aggregated into the `batch_throughput` row (one vectorized, one
/// loop-heavy, per the figure split).
const BATCH_KERNELS: [&str; 2] = ["atax", "jacobi2d"];

/// Requests per kernel for the `serve_latency` row (two full admission
/// batches at the default `max_batch = 8`).
const SERVE_REQUESTS: usize = 16;

/// Kernels aggregated into the `serve_latency` row (same pair as the batch
/// row, so the two serving layers are compared on identical work).
const SERVE_KERNELS: [&str; 2] = ["atax", "jacobi2d"];

/// The loop kernels, whose gradient programs the `specialized_kernels` row
/// times VM vs specialized, each with the loop sites of its gradient program
/// (in program order) that stay on the VM — multi-state bodies: jacobi1d's
/// time loops run two map states per step.  Any other site that stops
/// attaching fails the row.
const SPEC_KERNELS: [(&str, &[usize]); 7] = [
    ("jacobi1d", &[0, 1]),
    ("seidel2d", &[]),
    ("jacobi2d", &[]),
    ("syrk", &[]),
    ("syr2k", &[]),
    ("trmm", &[]),
    ("conv2d", &[]),
];

/// Consecutive runs per timed sample of the `specialized_kernels` row.  A
/// single specialized gradient run is sub-millisecond at the bench preset, so
/// one-run samples are dominated by scheduler noise; timing a block and
/// dividing keeps the row stable enough for the 25% regression gate.
const SPEC_RUNS_PER_SAMPLE: usize = 10;

const USAGE: &str = "\
Usage: record_baseline [OPTIONS]

Record mode (default) measures every NPBench kernel's DaCe-AD gradient at
the chosen preset, plus the `fd_validation` row (one finite-difference sweep
at a fixed 12x10 atax size), the `batch_throughput` row (batched serving
of atax + jacobi2d via BatchDriver; its `dace_ms` is the batched
milliseconds per item, and the row also records serial/batched items-per-sec
and the fan-out width) and the `serve_latency` row (open-loop
dynamic-admission serving of the same kernels via GradientEngine::serve, a
one-tenant Gateway; its `dace_ms` is wall-clock per request, with p50/p95
latency and the largest coalesced batch as extra keys) and the
`specialized_kernels` row (the gradient programs of the seven loop kernels
through the plan specialization tier vs the VM on identical compiled plans,
every loop site checked attached and every array cross-checked bit for bit;
its `dace_ms` is the specialized-path total, with the VM total and geomean
speedup as extra keys), then writes one JSON object per row.  Non-finite or non-positive figures abort recording.

Compare mode re-measures and exits non-zero when any row's `dace_ms`
regressed by more than --max-regression (default 0.25 = 25%).

Options:
  --preset bench|test      problem-size preset (default: bench)
  --reps N                 best-of-N timing repetitions (default: 3)
  --out FILE               record mode: write rows to FILE (default: stdout)
  --compare FILE           compare mode: check against the rows in FILE
  --max-regression R       compare mode: allowed slowdown ratio (default 0.25)
  --help                   print this message

See docs/benchmarking.md for the methodology and the baseline row schema.
";

struct Args {
    preset: Preset,
    reps: usize,
    out: Option<String>,
    compare: Option<String>,
    max_regression: f64,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        preset: Preset::Bench,
        reps: 3,
        out: None,
        compare: None,
        max_regression: 0.25,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let need = |i: usize| -> Result<&String, String> {
            argv.get(i + 1)
                .ok_or_else(|| format!("missing value for `{}`", argv[i]))
        };
        match argv[i].as_str() {
            "--help" | "-h" => return Ok(None),
            "--preset" => {
                args.preset = match need(i)?.as_str() {
                    "bench" => Preset::Bench,
                    "test" => Preset::Test,
                    other => return Err(format!("unknown preset `{other}`")),
                };
                i += 2;
            }
            "--reps" => {
                args.reps = need(i)?
                    .parse()
                    .map_err(|e| format!("bad --reps value: {e}"))?;
                i += 2;
            }
            "--out" => {
                args.out = Some(need(i)?.clone());
                i += 2;
            }
            "--compare" => {
                args.compare = Some(need(i)?.clone());
                i += 2;
            }
            "--max-regression" => {
                args.max_regression = need(i)?
                    .parse()
                    .map_err(|e| format!("bad --max-regression value: {e}"))?;
                i += 2;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(args))
}

/// The `batch_throughput` row: batched serving of [`BATCH_KERNELS`] through
/// `BatchDriver`, aggregated over both kernels.
struct BatchRow {
    /// Batched milliseconds per item — the regression-guarded figure.
    dace_ms: f64,
    /// Items/sec of the serial single-session loop over the same batches.
    serial_items_per_sec: f64,
    /// Items/sec of the batched driver.
    batched_items_per_sec: f64,
    /// `serial / batched` wall-clock ratio.
    speedup: f64,
    /// Effective fan-out width of the batched runs.
    workers: usize,
    /// Total items served (batch size × kernels).
    items: usize,
}

/// The `serve_latency` row: open-loop serving of [`SERVE_KERNELS`] through
/// `GradientEngine::serve`'s one-tenant `Gateway` (unpaced submissions,
/// default admission options), aggregated over both kernels.
struct ServeRow {
    /// Wall-clock per request (first submit to last completion) — the
    /// regression-guarded figure.
    dace_ms: f64,
    /// Median submit-to-completion latency across all requests.
    p50_ms: f64,
    /// 95th-percentile submit-to-completion latency.
    p95_ms: f64,
    /// Total requests served (requests × kernels).
    requests: usize,
    /// Largest number of requests one dispatch coalesced.
    largest_batch: usize,
}

/// The `specialized_kernels` row: the gradient programs of the loop kernels
/// run through the plan specialization tier vs the VM interpreter on
/// identical compiled plans.
struct SpecRow {
    /// Specialized-path milliseconds summed over [`SPEC_KERNELS`] — the
    /// regression-guarded figure.
    dace_ms: f64,
    /// VM-interpreter milliseconds over the identical work.
    vm_ms: f64,
    /// Geometric mean of the per-kernel `vm / specialized` speedups.
    speedup_geomean: f64,
    /// Kernels aggregated into the row.
    kernels: usize,
}

/// Post-warm-up bit pattern of every array still allocated, sorted by name.
type ArrayBits = Vec<(String, Vec<u64>)>;

/// Best-of-`reps` run time of the gradient program (fwd+bwd) under `mode`,
/// plus the bit pattern of every array after the first run and that run's
/// specialized dispatch count.
fn time_gradient(
    engine: &GradientEngine,
    inputs: &HashMap<String, Tensor>,
    mode: SpecMode,
    reps: usize,
) -> Result<(Duration, ArrayBits, u64), String> {
    let plan = engine.plan();
    let mut session = engine
        .gradient_program()
        .session()
        .with_free_hints(&plan.free_hints);
    session.force_specialization(mode);
    let bind = |session: &mut dace_runtime::Session| {
        inputs.iter().try_for_each(|(name, tensor)| {
            session
                .set_input(name, tensor.clone())
                .map_err(|e| e.to_string())
        })
    };
    bind(&mut session)?;
    let report = session.run().map_err(|e| e.to_string())?;
    let mut state: ArrayBits = plan
        .sdfg
        .arrays
        .keys()
        .filter_map(|name| {
            let bits = session.array(name)?.data().iter().map(|v| v.to_bits());
            Some((name.clone(), bits.collect()))
        })
        .collect();
    state.sort();
    // Each sample times a block of runs (see [`SPEC_RUNS_PER_SAMPLE`]) from
    // freshly bound inputs — the stencils update theirs in place — and
    // reports the per-run mean of the best block.
    let mut best = Duration::MAX;
    for _ in 0..reps.max(1) {
        bind(&mut session)?;
        let start = Instant::now();
        for _ in 0..SPEC_RUNS_PER_SAMPLE {
            session.run().map_err(|e| e.to_string())?;
        }
        best = best.min(start.elapsed() / SPEC_RUNS_PER_SAMPLE as u32);
    }
    Ok((best, state, report.specialized_dispatches))
}

fn measure_spec(preset: Preset, reps: usize) -> Result<SpecRow, String> {
    let mut spec_secs = 0.0f64;
    let mut vm_secs = 0.0f64;
    let mut log_speedups = 0.0f64;
    for (name, declined) in SPEC_KERNELS {
        let kernel = kernel_by_name(name).expect("spec kernel is registered");
        let sizes = kernel.sizes(preset);
        let engine = GradientEngine::new(
            &kernel.build_dace(&sizes),
            "OUT",
            &kernel.wrt(),
            &kernel.symbols(&sizes),
            &AdOptions::default(),
        )
        .map_err(|e| format!("{name}: {e}"))?;
        // The row is only honest if every loop site that can attach did, if
        // the two paths actually diverged in dispatch and if they converged
        // in result: record nothing otherwise.
        for (site, l) in engine
            .gradient_program()
            .loop_strategies()
            .iter()
            .enumerate()
        {
            let expected = match declined.contains(&site) {
                true => MapStrategy::Vm(KernelMiss::MultiStateBody),
                false => MapStrategy::Kernel,
            };
            if l.strategy != expected {
                return Err(format!(
                    "{name}: loop site {site} of the gradient program is `{}`, expected `{expected}`",
                    l.strategy
                ));
            }
        }
        let inputs = kernel.inputs(&sizes);
        let (vm, vm_state, vm_dispatches) =
            time_gradient(&engine, &inputs, SpecMode::ForceOff, reps)
                .map_err(|e| format!("{name}: {e}"))?;
        let (spec, spec_state, spec_dispatches) =
            time_gradient(&engine, &inputs, SpecMode::Auto, reps)
                .map_err(|e| format!("{name}: {e}"))?;
        if vm_dispatches != 0 {
            return Err(format!("{name}: VM path reported specialized dispatches"));
        }
        if spec_dispatches == 0 {
            return Err(format!(
                "{name}: specialization never fired — the row would time the VM twice"
            ));
        }
        if vm_state != spec_state {
            return Err(format!(
                "{name}: specialized results diverge bitwise from the VM"
            ));
        }
        vm_secs += vm.as_secs_f64();
        spec_secs += spec.as_secs_f64();
        log_speedups += (vm.as_secs_f64() / spec.as_secs_f64()).ln();
    }
    Ok(SpecRow {
        dace_ms: spec_secs * 1e3,
        vm_ms: vm_secs * 1e3,
        speedup_geomean: (log_speedups / SPEC_KERNELS.len() as f64).exp(),
        kernels: SPEC_KERNELS.len(),
    })
}

fn measure_serve(preset: Preset, reps: usize) -> Result<ServeRow, String> {
    let options = serve_options(8, 0);
    let mut requests = 0usize;
    let mut total_secs = 0.0f64;
    let mut latencies = Vec::new();
    let mut largest_batch = 0usize;
    for name in SERVE_KERNELS {
        let kernel = kernel_by_name(name).expect("serve kernel is registered");
        let sizes = kernel.sizes(preset);
        let t = time_serve(
            kernel.as_ref(),
            &sizes,
            SERVE_REQUESTS,
            0.0,
            None,
            options.clone(),
            reps,
        )
        .map_err(|e| format!("{name}: {e}"))?;
        if t.lost > 0 || t.failed > 0 || t.expired > 0 {
            return Err(format!(
                "{name}: serve row lost/failed/expired requests ({}/{}/{})",
                t.lost, t.failed, t.expired
            ));
        }
        requests += t.requests;
        total_secs += t.elapsed.as_secs_f64();
        latencies.extend(t.latencies_ms);
        largest_batch = largest_batch.max(t.stats.largest_batch);
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    Ok(ServeRow {
        dace_ms: total_secs / requests as f64 * 1e3,
        p50_ms: percentile_ms(&latencies, 0.50),
        p95_ms: percentile_ms(&latencies, 0.95),
        requests,
        largest_batch,
    })
}

fn measure_batch(preset: Preset, reps: usize) -> Result<BatchRow, String> {
    let mut items = 0usize;
    let mut serial_secs = 0.0f64;
    let mut batched_secs = 0.0f64;
    let mut workers = 1usize;
    for name in BATCH_KERNELS {
        let kernel = kernel_by_name(name).expect("batch kernel is registered");
        let sizes = kernel.sizes(preset);
        let t = time_batch(kernel.as_ref(), &sizes, BATCH_ITEMS, reps, 0)
            .map_err(|e| format!("{name}: {e}"))?;
        items += t.items;
        serial_secs += t.serial.as_secs_f64();
        batched_secs += t.batched.as_secs_f64();
        workers = t.workers;
    }
    Ok(BatchRow {
        dace_ms: batched_secs / items as f64 * 1e3,
        serial_items_per_sec: items as f64 / serial_secs.max(1e-12),
        batched_items_per_sec: items as f64 / batched_secs.max(1e-12),
        speedup: serial_secs / batched_secs.max(1e-12),
        workers,
        items,
    })
}

/// Measure every kernel (`name -> gradient time in ms`) plus the
/// `fd_validation`, `batch_throughput` and `serve_latency` rows.  A kernel
/// that fails to produce a gradient is a hard error: silently dropping it
/// would let a broken kernel pass both record and compare modes.
#[allow(clippy::type_complexity)]
fn measure(
    preset: Preset,
    reps: usize,
) -> Result<(BTreeMap<String, f64>, BatchRow, ServeRow, SpecRow), String> {
    let mut out = BTreeMap::new();
    let mut failures = Vec::new();
    for kernel in all_kernels() {
        let sizes = kernel.sizes(preset);
        let inputs = kernel.inputs(&sizes);
        match time_dace(kernel.as_ref(), &sizes, &inputs, reps) {
            Ok(t) => {
                out.insert(kernel.name().to_string(), t.elapsed.as_secs_f64() * 1e3);
            }
            Err(e) => {
                eprintln!("{}: measurement failed: {e}", kernel.name());
                failures.push(kernel.name().to_string());
            }
        }
    }
    // Finite-difference validation sweep (atax at a fixed small size — FD
    // is the validation path and is quadratic in the input size; 12×10
    // gives a 240-evaluation sweep long enough to time stably).  Guards the
    // compile-once property: one forward lowering per sweep, not 2·len.
    let kernel = kernel_by_name("atax").expect("atax is registered");
    let sizes = npbench::Sizes::new(12, 10, 0);
    let inputs = kernel.inputs(&sizes);
    match time_fd_validation(kernel.as_ref(), &sizes, &inputs, reps) {
        Ok(t) => {
            out.insert("fd_validation".to_string(), t.elapsed.as_secs_f64() * 1e3);
        }
        Err(e) => {
            eprintln!("fd_validation: measurement failed: {e}");
            failures.push("fd_validation".to_string());
        }
    }
    // Batched serving throughput (atax + jacobi2d through `BatchDriver`).
    // Guards the per-item cost of the batched path; the extra row fields
    // record the serial-vs-batched items/sec comparison.
    let batch = match measure_batch(preset, reps) {
        Ok(b) => {
            out.insert("batch_throughput".to_string(), b.dace_ms);
            Some(b)
        }
        Err(e) => {
            eprintln!("batch_throughput: measurement failed: {e}");
            failures.push("batch_throughput".to_string());
            None
        }
    };
    // Dynamic-admission serving latency (atax + jacobi2d through
    // `GradientEngine::serve`).  Guards the per-request cost of the gateway
    // path — admission queue, handle completion and batching overhead
    // included.
    let serve = match measure_serve(preset, reps) {
        Ok(s) => {
            out.insert("serve_latency".to_string(), s.dace_ms);
            Some(s)
        }
        Err(e) => {
            eprintln!("serve_latency: measurement failed: {e}");
            failures.push("serve_latency".to_string());
            None
        }
    };
    // Plan-specialization tier vs VM on the loop kernels' gradient programs.
    // Guards the interpreter-gap closure: a loop site — forward or reversed —
    // that stops attaching is a hard error, a slower kernel a dace_ms
    // regression.
    let spec = match measure_spec(preset, reps) {
        Ok(s) => {
            out.insert("specialized_kernels".to_string(), s.dace_ms);
            Some(s)
        }
        Err(e) => {
            eprintln!("specialized_kernels: measurement failed: {e}");
            failures.push("specialized_kernels".to_string());
            None
        }
    };
    if let Err(e) = validate_rows(&out) {
        return Err(format!("degenerate measurement: {e}"));
    }
    match (batch, serve, spec) {
        (Some(batch), Some(serve), Some(spec)) if failures.is_empty() => {
            Ok((out, batch, serve, spec))
        }
        _ => Err(format!(
            "kernel(s) failed to measure: {}",
            failures.join(", ")
        )),
    }
}

/// Refuse to record a degenerate figure.  Every `dace_ms` must be finite
/// and strictly positive: a zero (unresolvable clock), `inf` (zero-elapsed
/// ratio) or `NaN` written into the baseline would make compare mode's
/// `now / baseline` ratio meaningless — a NaN comparison is `false`, so the
/// regression gate would silently pass forever.
fn validate_rows(rows: &BTreeMap<String, f64>) -> Result<(), String> {
    for (name, ms) in rows {
        if !ms.is_finite() || *ms <= 0.0 {
            return Err(format!("row `{name}` measured a non-usable value ({ms})"));
        }
    }
    Ok(())
}

fn preset_name(p: Preset) -> &'static str {
    match p {
        Preset::Bench => "bench",
        Preset::Test => "test",
    }
}

fn render(
    preset: Preset,
    reps: usize,
    rows: &BTreeMap<String, f64>,
    batch: &BatchRow,
    serve: &ServeRow,
    spec: &SpecRow,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"preset\": \"{}\",\n", preset_name(preset)));
    s.push_str(&format!("  \"reps\": {reps},\n"));
    s.push_str("  \"kernels\": [\n");
    let n = rows.len();
    for (i, (name, ms)) in rows.iter().enumerate() {
        let comma = if i + 1 < n { "," } else { "" };
        if name == "batch_throughput" {
            // The throughput row carries the serial-vs-batched comparison as
            // extra keys (ignored by the compare-mode scanner).
            s.push_str(&format!(
                "    {{ \"name\": \"{name}\", \"dace_ms\": {ms:.3}, \
                 \"batch_items\": {}, \"workers\": {}, \
                 \"serial_items_per_sec\": {:.1}, \"batched_items_per_sec\": {:.1}, \
                 \"batch_speedup\": {:.2} }}{comma}\n",
                batch.items,
                batch.workers,
                batch.serial_items_per_sec,
                batch.batched_items_per_sec,
                batch.speedup,
            ));
        } else if name == "specialized_kernels" {
            // The specialization row carries the VM comparison as extra keys
            // (ignored by the compare-mode scanner).
            s.push_str(&format!(
                "    {{ \"name\": \"{name}\", \"dace_ms\": {ms:.3}, \
                 \"vm_ms\": {:.3}, \"spec_speedup_geomean\": {:.2}, \
                 \"spec_kernels\": {} }}{comma}\n",
                spec.vm_ms, spec.speedup_geomean, spec.kernels,
            ));
        } else if name == "serve_latency" {
            // The serving row carries latency percentiles and the observed
            // coalescing as extra keys (ignored by the compare scanner).
            s.push_str(&format!(
                "    {{ \"name\": \"{name}\", \"dace_ms\": {ms:.3}, \
                 \"requests\": {}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \
                 \"largest_batch\": {} }}{comma}\n",
                serve.requests, serve.p50_ms, serve.p95_ms, serve.largest_batch,
            ));
        } else {
            s.push_str(&format!(
                "    {{ \"name\": \"{name}\", \"dace_ms\": {ms:.3} }}{comma}\n"
            ));
        }
    }
    s.push_str("  ]\n}\n");
    s
}

/// Minimal scanner for the file format above: one kernel object per line
/// carrying `"name": "..."` and `"dace_ms": <float>`.  Unknown keys on the
/// same line are ignored.
fn parse_baseline(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let Some(name) = extract_str(line, "\"name\"") else {
            continue;
        };
        let Some(ms) = extract_num(line, "\"dace_ms\"") else {
            continue;
        };
        out.insert(name, ms);
    }
    out
}

fn extract_str(line: &str, key: &str) -> Option<String> {
    let at = line.find(key)? + key.len();
    let rest = line[at..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

fn extract_num(line: &str, key: &str) -> Option<f64> {
    let at = line.find(key)? + key.len();
    let rest = line[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("record_baseline: {e}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &args.compare {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("record_baseline: cannot read `{path}`: {e}");
                return ExitCode::from(2);
            }
        };
        let baseline = parse_baseline(&text);
        if baseline.is_empty() {
            eprintln!("record_baseline: no kernels found in `{path}`");
            return ExitCode::from(2);
        }
        let (now, _, _, _) = match measure(args.preset, args.reps) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("record_baseline: {e}");
                return ExitCode::from(1);
            }
        };
        for name in now.keys() {
            if !baseline.contains_key(name) {
                println!("{name}: not in baseline yet (new kernel?); re-record to include it");
            }
        }
        let mut regressed = 0usize;
        println!(
            "{:<12} {:>14} {:>12} {:>8}",
            "kernel", "baseline [ms]", "now [ms]", "ratio"
        );
        for (name, base_ms) in &baseline {
            let Some(&now_ms) = now.get(name) else {
                eprintln!("{name}: present in baseline but not measurable now");
                regressed += 1;
                continue;
            };
            let ratio = now_ms / base_ms.max(1e-9);
            let flag = if ratio > 1.0 + args.max_regression {
                regressed += 1;
                "  << REGRESSION"
            } else {
                ""
            };
            println!("{name:<12} {base_ms:>14.3} {now_ms:>12.3} {ratio:>7.2}x{flag}");
        }
        if regressed > 0 {
            eprintln!(
                "record_baseline: {regressed} kernel(s) regressed by more than {:.0}%",
                args.max_regression * 100.0
            );
            return ExitCode::from(1);
        }
        println!(
            "all {} kernels within {:.0}% of baseline",
            baseline.len(),
            args.max_regression * 100.0
        );
        return ExitCode::SUCCESS;
    }

    // Record mode.
    let (rows, batch, serve, spec) = match measure(args.preset, args.reps) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("record_baseline: {e}");
            return ExitCode::from(1);
        }
    };
    let rendered = render(args.preset, args.reps, &rows, &batch, &serve, &spec);
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                eprintln!("record_baseline: cannot write `{path}`: {e}");
                return ExitCode::from(2);
            }
            println!("wrote {} kernels to {path}", rows.len());
        }
        None => print!("{rendered}"),
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rows_accepts_finite_positive_figures() {
        let rows = BTreeMap::from([
            ("atax".to_string(), 1.25),
            ("specialized_kernels".to_string(), 0.003),
        ]);
        assert!(validate_rows(&rows).is_ok());
    }

    #[test]
    fn validate_rows_rejects_degenerate_figures() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let rows = BTreeMap::from([("atax".to_string(), 1.0), ("bad".to_string(), bad)]);
            let err = validate_rows(&rows).expect_err("degenerate figure must be rejected");
            assert!(err.contains("bad"), "error must name the row: {err}");
        }
    }

    /// The rendered document round-trips through the compare-mode scanner,
    /// including the synthetic rows and their extra keys.
    #[test]
    fn rendered_rows_round_trip_through_the_scanner() {
        let rows = BTreeMap::from([
            ("atax".to_string(), 1.5),
            ("batch_throughput".to_string(), 0.75),
            ("serve_latency".to_string(), 2.25),
            ("specialized_kernels".to_string(), 12.125),
        ]);
        let batch = BatchRow {
            dace_ms: 0.75,
            serial_items_per_sec: 100.0,
            batched_items_per_sec: 300.0,
            speedup: 3.0,
            workers: 4,
            items: 16,
        };
        let serve = ServeRow {
            dace_ms: 2.25,
            p50_ms: 2.0,
            p95_ms: 4.0,
            requests: 32,
            largest_batch: 8,
        };
        let spec = SpecRow {
            dace_ms: 12.125,
            vm_ms: 60.5,
            speedup_geomean: 5.0,
            kernels: 6,
        };
        let text = render(Preset::Bench, 3, &rows, &batch, &serve, &spec);
        let parsed = parse_baseline(&text);
        assert_eq!(parsed.len(), rows.len());
        for (name, ms) in &rows {
            assert_eq!(parsed[name], *ms, "row `{name}` lost precision");
        }
        // The extra keys survive rendering (informational, scanner-ignored).
        assert!(text.contains("\"vm_ms\": 60.500"));
        assert!(text.contains("\"spec_speedup_geomean\": 5.00"));
        assert!(text.contains("\"spec_kernels\": 6"));
    }
}
