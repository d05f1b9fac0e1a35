//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <u64> --seconds <s> --trace <0|1>
//!           [--trace-out <file>] [--smoke] [--repeat-check <n>]
//! perfbench --manifest
//! ```
//!
//! One invocation runs one workload and prints every metric by name with
//! its unit, then — as the last line of standard output — one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
//! metrics are the end-to-end ones, measured with tracing off; with
//! `--trace 1` they are the per-layer ones, from a run whose operations are
//! taken apart with a span around each part.  The exit code is non-zero
//! when any output failed its oracle.  See `perfbench/README.md`.

mod catalogue;
mod clock;
mod oracle;
mod probes;
mod program;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use catalogue::{Workload, END_TO_END, PER_LAYER};
use oracle::Tally;
use stats::{median, percentile, quartile_spread, relative_range, sorted, tail_supported};
use trace::Tracer;
use workloads::{Bench, Measured, Reading, Settings, SETUPS};

/// Window length of a `--smoke` run.
const SMOKE_SECONDS: f64 = 0.3;

struct Args {
    settings: Settings,
    trace: bool,
    trace_out: Option<PathBuf>,
    repeat_check: Option<usize>,
}

/// What one run of one workload reports.
struct Report {
    tally: Tally,
    /// Metric values by name: end-to-end ones untraced, per-layer traced.
    metrics: BTreeMap<String, f64>,
    /// The (traced, on a traced run) window's reading, whole-window median
    /// and tail included.
    reading: Reading,
    /// The same window as the wall clock measured it.
    wall: Reading,
    /// Each block's median (ms), rate (1/s) and clock factor, in time order.
    blocks: (Vec<f64>, Vec<f64>, Vec<f64>),
    tracer: Option<Tracer>,
}

fn usage() -> String {
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>\n\
         \x20      [--trace-out <file>] [--smoke] [--repeat-check <n>]\n\
         \x20      perfbench --manifest",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = f64::from(catalogue::RUN_SECONDS);
    let mut trace = false;
    let mut trace_out = None;
    let mut smoke = false;
    let mut repeat_check = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("`{flag}` needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--manifest" => return Ok(None),
            "--smoke" => smoke = true,
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::by_name(name)
                        .ok_or_else(|| format!("no workload `{name}`\n{}", usage()))?,
                );
            }
            "--seed" => {
                seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must lie in (0, 60]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--repeat-check" => {
                let n: usize = value()?
                    .parse()
                    .map_err(|e| format!("--repeat-check: {e}"))?;
                if !(2..=20).contains(&n) {
                    return Err("--repeat-check takes 2 to 20 runs".to_string());
                }
                repeat_check = Some(n);
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if smoke {
        seconds = SMOKE_SECONDS;
    }
    Ok(Some(Args {
        settings: Settings {
            workload: workload.ok_or_else(usage)?,
            seed,
            seconds,
            smoke,
        },
        trace,
        trace_out,
        repeat_check,
    }))
}

/// One run of one workload, untraced (end-to-end metrics) or traced
/// (per-layer metrics).
fn run(settings: &Settings, trace: bool) -> Result<Report, String> {
    // Direct workloads fix the intra-op width at 1: a plain single-threaded
    // baseline that repeats.  Gateway workloads use the shipped defaults.
    if settings.workload.is_direct() {
        rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .map_err(|e| e.to_string())?
            .install(|| run_inner(settings, trace))
    } else {
        run_inner(settings, trace)
    }
}

fn run_inner(settings: &Settings, trace: bool) -> Result<Report, String> {
    // Set up several times and report the median, so that `setup_s`
    // repeats; like every timing, at the reference clock.
    let setups = if trace || settings.smoke { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut bench = None;
    for _ in 0..setups {
        drop(bench.take());
        let (built, seconds) = clock::at_reference(|| Bench::setup(settings));
        bench = Some(built?);
        setup_s.push(seconds);
    }
    let mut bench = bench.expect("at least one set-up");
    let window = Duration::from_secs_f64(settings.seconds);
    let mut metrics = BTreeMap::new();

    if !trace {
        let measured = bench.measure(window, None);
        let reading = measured.reading();
        metrics.insert("setup_s".to_string(), median(&setup_s));
        metrics.insert("ops_per_s".to_string(), reading.ops_per_s);
        metrics.insert("op_ms_p50".to_string(), reading.op_ms_p50);
        metrics.insert("op_ms_quiet".to_string(), reading.op_ms_quiet);
        metrics.insert("ok_share".to_string(), bench.tally.ok_share());
        metrics.insert("peak_bytes".to_string(), bench.peak_bytes() as f64);
        return Ok(Report {
            tally: bench.tally,
            metrics,
            reading,
            wall: measured.unscaled().reading(),
            blocks: blocks_of(&measured),
            tracer: None,
        });
    }

    // Traced: probes, then a half-length window with spans and a
    // quarter-length one without, whose difference is the tracing overhead.
    let mut tracer = Tracer::new();
    let probes = probes::run(&mut bench, &mut tracer)?;
    let traced = bench.measure(window / 2, Some(&mut tracer));
    let plain = bench.measure(window / 4, None);
    let layers = probes::layers(&bench, &probes, &traced, &plain, &tracer);
    Ok(Report {
        tally: bench.tally,
        metrics: layers,
        reading: traced.reading(),
        wall: traced.unscaled().reading(),
        blocks: blocks_of(&traced),
        tracer: Some(tracer),
    })
}

fn blocks_of(m: &Measured) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    (m.block_centres(), m.block_rates(), m.block_clocks())
}

/// The metrics a run prints, in catalogue order: `(name, unit, value)`.
/// A reading that is missing or not a number is an error, not a 0.
fn rows(report: &Report, trace: bool) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let names: Vec<(&'static str, &'static str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    names
        .into_iter()
        .map(|(name, unit)| match report.metrics.get(name) {
            Some(v) if v.is_finite() => Ok((name, unit, *v)),
            Some(v) => Err(format!("metric `{name}` reads {v}")),
            None => Err(format!("metric `{name}` was not measured")),
        })
        .collect()
}

/// The contract's result line.
fn result_line(report: &Report, rows: &[(&str, &str, f64)]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.correct(),
        report.tally.attempted.max(1),
        report.tally.failed,
        metrics.join(", ")
    )
}

fn print_report(settings: &Settings, report: &Report, trace: bool) -> Result<(), String> {
    let rows = rows(report, trace)?;
    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        settings.workload.name(),
        settings.seed,
        settings.seconds,
        u8::from(trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    for (name, unit, value) in &rows {
        println!("{name:<28} {value:>18.6} {unit}");
    }
    // The whole-window median and tail gate nothing (on this host they move
    // with the neighbours, not with the code), but every run shows them.
    let r = &report.reading;
    println!(
        "whole window: p50 {:.6} ms, p95 {:.6} ms over {} pooled samples ({})",
        r.window_ms_p50,
        r.window_ms_p95,
        r.samples_pooled,
        if tail_supported(r.samples_pooled, 0.95) {
            "at least 10 lie beyond the p95"
        } else {
            "fewer than 10 lie beyond the p95: unsupported"
        }
    );
    // How the host's speed moved during the window.
    let five = |values: &[f64]| -> String {
        let s = sorted(values);
        let cells: Vec<String> = [0.0, 0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|q| format!("{:.4}", percentile(&s, *q)))
            .collect();
        cells.join(" ")
    };
    let (centres, rates, clocks) = &report.blocks;
    println!("{} blocks, min/q1/median/q3/max", centres.len());
    println!("  block median ms: {}", five(centres));
    println!("  block rate 1/s:  {}", five(rates));
    println!("  clock factor:    {}", five(clocks));
    // Timings above are at the reference clock; these are the wall clock's.
    let w = &report.wall;
    println!(
        "wall clock: ops_per_s {:.6}, op_ms_p50 {:.6}, op_ms_quiet {:.6}, window p50 {:.6} ms",
        w.ops_per_s, w.op_ms_p50, w.op_ms_quiet, w.window_ms_p50
    );
    for message in &report.tally.messages {
        eprintln!("FAILED: {message}");
    }
    println!("{}", result_line(report, &rows));
    Ok(())
}

/// Run the workload `n` times, on seeds `seed`, `seed + 1`, …; print every
/// metric's `(max − min) / median` and quartile spread (the driver's
/// acceptance statistic) against its bound, and check that counts marked
/// exact repeat exactly.
fn repeat_check(settings: &Settings, trace: bool, n: usize) -> Result<bool, String> {
    let mut readings: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut correct = true;
    for i in 0..n {
        let settings = Settings {
            seed: settings.seed + i as u64,
            ..settings.clone()
        };
        let report = run(&settings, trace)?;
        correct &= report.tally.correct();
        for (name, _, value) in rows(&report, trace)? {
            readings.entry(name).or_default().push(value);
        }
        eprintln!("run {}/{n} done", i + 1);
    }
    let mut within = true;
    println!(
        "{:<28} {:>14} {:>8} {:>8} {:>6}  verdict",
        "metric", "median", "range", "spread", "bound"
    );
    let mut line = |name: &str, bound: Option<f64>| {
        let values = &readings[name];
        let spread = quartile_spread(values);
        // Like the driver, hold every spread but the set-up's to its bound;
        // a bound of 0 (or an exact count) means no reading may differ.
        let (bound_text, ok) = match bound {
            Some(b) if b > 0.0 => (format!("{b}"), spread <= b || name == "setup_s"),
            Some(_) => ("exact".to_string(), values.iter().all(|v| *v == values[0])),
            None => ("-".to_string(), true),
        };
        within &= ok;
        let verdict = match (ok, bound) {
            (false, _) => "OUTSIDE",
            (true, Some(b)) if spread > b / 3.0 => "ok, above a third of the bound",
            _ => "ok",
        };
        println!(
            "{name:<28} {:>14.6} {:>8.4} {spread:>8.4} {bound_text:>6}  {verdict}",
            median(values),
            relative_range(values),
        );
    };
    if trace {
        for m in PER_LAYER {
            line(m.name, m.exact.then_some(0.0));
        }
    } else {
        for m in END_TO_END {
            line(m.name, Some(m.bound));
        }
    }
    println!(
        "{n} runs on seeds {}..={}: outputs {}, {}",
        settings.seed,
        settings.seed + n as u64 - 1,
        if correct { "correct" } else { "INCORRECT" },
        if within {
            "every spread within its bound / every exact count identical"
        } else {
            "some spread OUTSIDE its bound or an exact count differs"
        }
    );
    Ok(correct && within)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", catalogue::manifest());
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.repeat_check {
        return match repeat_check(&args.settings, args.trace, n) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::from(2)
            }
        };
    }
    match run(&args.settings, args.trace) {
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
        Ok(report) => {
            if let (Some(path), Some(tracer)) = (&args.trace_out, &report.tracer) {
                if let Err(e) = std::fs::write(path, tracer.to_json()) {
                    eprintln!("error: cannot write {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
            if let Err(message) = print_report(&args.settings, &report, args.trace) {
                eprintln!("error: {message}");
                return ExitCode::from(2);
            }
            if report.tally.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plan cache and its counters are process-wide, and `cargo test`
    /// runs tests on parallel threads: one workload at a time.
    static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn smoke(workload: Workload, trace: bool) -> Report {
        smoke_seeded(workload, trace, 7)
    }

    fn smoke_seeded(workload: Workload, trace: bool, seed: u64) -> Report {
        let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        let settings = Settings {
            workload,
            seed,
            seconds: SMOKE_SECONDS,
            smoke: true,
        };
        run(&settings, trace).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
    }

    /// The harness end to end at the test preset: every workload runs, every
    /// oracle passes, and the result line carries exactly the catalogue's
    /// metrics.
    #[test]
    fn every_workload_smokes_untraced() {
        for workload in Workload::ALL {
            let report = smoke(workload, false);
            assert!(
                report.tally.correct(),
                "{}: {:?}",
                workload.name(),
                report.tally
            );
            assert!(report.tally.attempted > 0);
            for m in END_TO_END {
                let v = report.metrics[m.name];
                assert!(
                    v.is_finite() && v > 0.0,
                    "{} {} = {v}",
                    workload.name(),
                    m.name
                );
            }
            let line = result_line(&report, &rows(&report, false).unwrap());
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        }
    }

    #[test]
    fn every_workload_smokes_traced() {
        for workload in Workload::ALL {
            let report = smoke(workload, true);
            assert!(
                report.tally.correct(),
                "{}: {:?}",
                workload.name(),
                report.tally
            );
            for name in report.metrics.keys() {
                assert!(
                    PER_LAYER.iter().any(|m| m.name == name),
                    "stray metric {name}"
                );
            }
            assert!(report.metrics["runtime.exec_ms"] > 0.0);
            assert!(report.metrics["core.reverse_ms"] > 0.0);
            let tracer = report
                .tracer
                .as_ref()
                .expect("a traced run keeps its spans");
            assert!(!tracer.totals().is_empty());
            // The parts of an operation, timed inside the call, account for
            // the operation, timed from outside it.
            let cover = report.metrics["bench.span_cover"];
            if workload.is_direct() {
                assert!((0.95..1.0).contains(&cover), "{}: {cover}", workload.name());
            }
            // Every catalogue row was measured, or set to 0 on purpose.
            let rows = rows(&report, true).unwrap();
            assert_eq!(rows.len(), PER_LAYER.len());
        }
    }

    /// Exact counts repeat between two runs on one seed, and — the seed
    /// only shifts input values — on another, which `--repeat-check` relies
    /// on.
    #[test]
    fn exact_counts_repeat() {
        let a = smoke(Workload::GradLoops, true);
        for b in [
            smoke(Workload::GradLoops, true),
            smoke_seeded(Workload::GradLoops, true, 8),
        ] {
            for m in PER_LAYER.iter().filter(|m| m.exact) {
                assert_eq!(a.metrics.get(m.name), b.metrics.get(m.name), "{}", m.name);
            }
        }
    }

    #[test]
    fn a_missing_or_non_finite_reading_is_an_error() {
        let mut report = smoke(Workload::GradLoops, false);
        assert!(rows(&report, false).is_ok());
        report.metrics.insert("op_ms_p50".to_string(), f64::NAN);
        assert!(rows(&report, false).unwrap_err().contains("op_ms_p50"));
        report.metrics.remove("op_ms_p50");
        assert!(rows(&report, false).unwrap_err().contains("op_ms_p50"));
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let ok = parse("--workload grad_blas --seed 3 --seconds 2 --trace 1")
            .unwrap()
            .unwrap();
        assert_eq!(ok.settings.workload, Workload::GradBlas);
        assert_eq!(
            (ok.settings.seed, ok.settings.seconds, ok.trace),
            (3, 2.0, true)
        );
        assert!(parse("--manifest").unwrap().is_none());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload grad_blas --trace 2").is_err());
        assert!(parse("--workload grad_blas --seconds 0").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload").is_err());
    }
}
