//! Command-line runner for the NPBench kernel suite.
//!
//! Serial mode times the DaCe-AD gradient of each selected kernel against
//! the jax-rs baseline (one row per kernel, like the paper's tables, closed
//! by the average and geometric-mean speedup).  A row whose two sides
//! computed different forward values is marked, and the process exits
//! non-zero:
//!
//! ```text
//! npbench [--kernel NAME[,NAME...]] [--preset test|bench] [--reps N]
//! ```
//!
//! Figure mode (`--figure N`) prints one figure of the paper's evaluation
//! (`docs/reproduction.md`): Figs. 1, 10 and 11 are the serial table over
//! the figure's kernels sorted by speedup, Fig. 12 the seidel2d size sweep,
//! Fig. 13 every store/recompute configuration of Listing 1 with its
//! observed and predicted peak (a mismatch, or a feasible limit the run
//! exceeds, exits non-zero):
//!
//! ```text
//! npbench --figure 1|10|11|12|13 [--preset test|bench] [--reps N]
//! ```
//!
//! Verify mode (`--verify`) runs the static SDFG verifier and the affine
//! dependence analyzer over every selected kernel instead of executing
//! anything, printing a per-kernel table of diagnostics, per-map
//! parallelism verdicts, the census of the gradient program's library nodes
//! (`MatMul/MatVec/Transpose/SumReduce/Copy/Outer`) and the share of maps
//! and of loop sites (forward and gradient program) lowering put on the N-D
//! affine kernel, with the typed reason for every map or loop left on the VM and
//! the depth and point count of every loop site.  The process exits
//! non-zero if any kernel produces an error-severity diagnostic or a proven
//! `Race` verdict — the CI verify step asserts the whole suite is clean:
//!
//! ```text
//! npbench --verify [--kernel atax,jacobi2d] [--preset test]
//! ```
//!
//! Serving throughput and latency are the repository benchmark's to measure
//! (`perfbench`); see `docs/benchmarking.md` for the methodology.

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dace_ad::{AdOptions, CheckpointStrategy, GradientEngine};
use npbench::runner::{time_dace, time_jax, Timing};
use npbench::{all_kernels, kernel_by_name, kernels_in, listing1, Category, Kernel, Preset, Sizes};

/// The figures `--figure` reproduces, with their titles.
const FIGURES: [(u8, &str); 5] = [
    (1, "headline kernels"),
    (10, "vectorized kernels"),
    (11, "kernels with loops"),
    (12, "seidel2d size sweep, TSTEPS = 4"),
    (13, "store/recompute configurations of Listing 1"),
];

/// Fig. 1's kernels.
const FIG1: [&str; 7] = [
    "jacobi1d", "k2mm", "atax", "syr2k", "conv2d", "trmm", "seidel2d",
];

struct Args {
    figure: Option<u8>,
    kernels: Option<Vec<String>>,
    preset: Preset,
    reps: usize,
    verify: bool,
}

const USAGE: &str = "\
Usage: npbench [OPTIONS]

Options:
  --figure N               print figure N of the paper's evaluation (1, 10,
                           11, 12 or 13; see docs/reproduction.md), at sizes
                           from --preset; exits non-zero on a row whose two
                           sides disagree or, in Fig. 13, whose peak is not
                           the predicted one
  --kernel NAME[,NAME...]  run only the named kernels (default: all; not
                           with --figure)
  --preset test|bench      problem-size preset (default: bench)
  --reps N                 best-of-N timing repetitions (default: 3)
  --verify                 static-analysis mode: run the SDFG verifier and
                           the affine dependence analyzer over the selected
                           kernels (no execution) and print per-kernel
                           diagnostics and per-map verdicts; exits non-zero
                           on any error diagnostic or proven race
  --help                   print this message
";

/// A flag's value, or the usage error naming the flag.
fn parse_value<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("bad {flag} value: {e}"))
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        figure: None,
        kernels: None,
        preset: Preset::Bench,
        reps: 3,
        verify: false,
    };
    let mut argv = argv.iter();
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .ok_or_else(|| format!("missing value for `{flag}`"))
        };
        match flag.as_str() {
            "--help" | "-h" => return Ok(None),
            "--figure" => {
                let value = value()?;
                let figure = FIGURES.iter().find(|(n, _)| n.to_string() == *value);
                let (n, _) = figure.ok_or_else(|| format!("no figure `{value}` to reproduce"))?;
                args.figure = Some(*n);
            }
            "--kernel" => args.kernels = Some(value()?.split(',').map(str::to_string).collect()),
            "--preset" => {
                args.preset = match value()?.as_str() {
                    "bench" => Preset::Bench,
                    "test" => Preset::Test,
                    other => return Err(format!("unknown preset `{other}`")),
                }
            }
            "--reps" => args.reps = parse_value(flag, value()?)?,
            "--verify" => args.verify = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.figure.is_some() && args.kernels.is_some() {
        return Err("--figure picks its own kernels: drop --kernel".to_string());
    }
    Ok(Some(args))
}

fn selected_kernels(names: &Option<Vec<String>>) -> Result<Vec<Box<dyn Kernel>>, String> {
    match names {
        None => Ok(all_kernels()),
        Some(names) => names
            .iter()
            .map(|n| kernel_by_name(n).ok_or_else(|| format!("unknown kernel `{n}`")))
            .collect(),
    }
}

/// One row of a speedup table: both sides' gradient of one kernel instance.
struct Row {
    label: String,
    dace: Timing,
    jax: Timing,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.jax.elapsed.as_secs_f64() / self.dace.elapsed.as_secs_f64().max(1e-12)
    }

    /// Whether both sides computed the same forward value, within the
    /// tolerance of the kernels' cross-validation test.
    fn agrees(&self) -> bool {
        let (d, j) = (self.dace.output, self.jax.output);
        (d - j).abs() <= 1e-6 * (1.0 + j.abs())
    }
}

fn measure(kernel: &dyn Kernel, label: String, sizes: &Sizes, reps: usize) -> Result<Row, String> {
    let inputs = kernel.inputs(sizes);
    let dace = time_dace(kernel, sizes, &inputs, reps).map_err(|e| format!("{label}: {e}"))?;
    let jax = time_jax(kernel, sizes, &inputs, reps);
    Ok(Row { label, dace, jax })
}

fn measure_all(
    kernels: &[Box<dyn Kernel>],
    preset: Preset,
    reps: usize,
) -> Result<Vec<Row>, String> {
    (kernels.iter())
        .map(|k| measure(k.as_ref(), k.name().to_string(), &k.sizes(preset), reps))
        .collect()
}

/// The average and the geometric mean of `speedups`.
fn speedup_means(speedups: &[f64]) -> (f64, f64) {
    let n = speedups.len() as f64;
    let log_sum: f64 = speedups.iter().map(|s| s.max(1e-12).ln()).sum();
    (speedups.iter().sum::<f64>() / n, (log_sum / n).exp())
}

/// Print `rows` and their mean speedups; a row whose two sides disagree is
/// printed with both forward values and makes this an error.
fn print_rows(rows: &[Row]) -> Result<(), String> {
    println!(
        "{:<12} {:>14} {:>14} {:>10}",
        "kernel", "DaCe AD [ms]", "baseline [ms]", "speedup"
    );
    for r in rows {
        println!(
            "{:<12} {:>14.3} {:>14.3} {:>9.2}x{}",
            r.label,
            r.dace.elapsed.as_secs_f64() * 1e3,
            r.jax.elapsed.as_secs_f64() * 1e3,
            r.speedup(),
            if r.agrees() {
                String::new()
            } else {
                format!("  MISMATCH: forward {} vs {}", r.dace.output, r.jax.output)
            }
        );
    }
    let (mean, geo) = speedup_means(&rows.iter().map(Row::speedup).collect::<Vec<_>>());
    println!("average speedup: {mean:.2}x   geometric mean: {geo:.2}x");
    match rows.iter().filter(|r| !r.agrees()).count() {
        0 => Ok(()),
        bad => Err(format!("{bad} row(s) whose two sides disagree")),
    }
}

fn run_serial(kernels: &[Box<dyn Kernel>], preset: Preset, reps: usize) -> Result<(), String> {
    print_rows(&measure_all(kernels, preset, reps)?)
}

/// The rows of Fig. 1, 10, 11 or 12: the figure's kernels sorted by
/// speedup, or the seidel2d sweep in order of N.
fn figure_rows(figure: u8, preset: Preset, reps: usize) -> Result<Vec<Row>, String> {
    if figure == 12 {
        let seidel = kernel_by_name("seidel2d").expect("seidel2d is registered");
        let sweep: &[usize] = match preset {
            Preset::Test => &[8, 12, 16],
            Preset::Bench => &[8, 12, 16, 20, 24, 28, 32],
        };
        return (sweep.iter())
            .map(|&n| measure(&*seidel, format!("N={n}"), &Sizes::new(n, 0, 4), reps))
            .collect();
    }
    let kernels = match figure {
        1 => FIG1.map(|n| kernel_by_name(n).expect("registered")).into(),
        10 => kernels_in(Category::Vectorized),
        _ => kernels_in(Category::Loops),
    };
    let mut rows = measure_all(&kernels, preset, reps)?;
    rows.sort_by(|a, b| a.speedup().total_cmp(&b.speedup()));
    Ok(rows)
}

/// One store/recompute configuration of Fig. 13.
struct CheckpointRow {
    label: String,
    stored: Vec<String>,
    elapsed: Duration,
    /// The largest peak the memory tracker observed over the runs.
    peak: usize,
    predicted: usize,
    /// The memory limit, where the ILP reported it feasible.
    limit: Option<usize>,
}

impl CheckpointRow {
    /// The prediction is the observed peak, and a feasible limit is kept.
    fn holds(&self) -> bool {
        self.peak == self.predicted && self.limit.is_none_or(|l| self.peak <= l)
    }
}

/// Fig. 13: Listing 1 under the eight `Manual` configurations of `A0`–`A2`,
/// then under the ILP with a limit three quarters of the way from their
/// lowest peak to their highest.
fn figure13(preset: Preset, reps: usize) -> Result<Vec<CheckpointRow>, String> {
    let n = match preset {
        Preset::Test => 16,
        Preset::Bench => 360,
    };
    let fwd = listing1();
    let symbols = HashMap::from([("N".to_string(), n as i64)]);
    let inputs = HashMap::from([
        ("C".to_string(), dace_tensor::random::uniform(&[n, n], 51)),
        ("D".to_string(), dace_tensor::random::uniform(&[n, n], 52)),
    ]);
    let run = |label: String, strategy| -> Result<CheckpointRow, String> {
        let options = AdOptions { strategy };
        let mut engine = GradientEngine::new(&fwd, "OUT", &["C", "D"], &symbols, &options)
            .map_err(|e| e.to_string())?;
        let report = engine.plan().ilp_report.clone().expect("checkpoint report");
        let (mut elapsed, mut peak) = (Duration::MAX, 0);
        // The first run warms up; the best time and largest peak over all.
        for _ in 0..=reps {
            let start = Instant::now();
            let result = engine.run(&inputs).map_err(|e| format!("{label}: {e}"))?;
            elapsed = elapsed.min(start.elapsed());
            peak = peak.max(result.report.peak_bytes);
        }
        Ok(CheckpointRow {
            label,
            stored: report.stored,
            elapsed,
            peak,
            predicted: report.predicted_peak_bytes,
            limit: report.memory_limit_bytes.filter(|_| report.feasible),
        })
    };
    let mut rows = (0..8u32)
        .map(|mask| {
            let store = (["A0", "A1", "A2"].iter().enumerate())
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, a)| a.to_string());
            let strategy = CheckpointStrategy::Manual {
                store: store.collect(),
            };
            run(format!("C-{mask}"), strategy)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let min = rows.iter().map(|r| r.peak).min().expect("eight rows");
    let max = rows.iter().map(|r| r.peak).max().expect("eight rows");
    let memory_limit_bytes = min + (max - min) * 3 / 4;
    let ilp = CheckpointStrategy::Ilp { memory_limit_bytes };
    rows.push(run("ILP".to_string(), ilp)?);
    Ok(rows)
}

fn run_figure(figure: u8, preset: Preset, reps: usize) -> Result<(), String> {
    let (_, title) = FIGURES.iter().find(|(n, _)| *n == figure).expect("parsed");
    println!("=== Fig. {figure}: {title} ({preset:?} preset) ===");
    if figure != 13 {
        return print_rows(&figure_rows(figure, preset, reps)?);
    }
    let rows = figure13(preset, reps)?;
    println!(
        "{:<6} {:<14} {:>12} {:>12} {:>14} {:>12}",
        "config", "stored", "runtime [ms]", "peak [B]", "predicted [B]", "limit [B]"
    );
    for r in &rows {
        println!(
            "{:<6} {:<14} {:>12.3} {:>12} {:>14} {:>12}{}",
            r.label,
            format!("[{}]", r.stored.join(",")),
            r.elapsed.as_secs_f64() * 1e3,
            r.peak,
            r.predicted,
            r.limit.map_or("-".to_string(), |l| l.to_string()),
            if r.holds() { "" } else { "  MISMATCH" }
        );
    }
    match rows.iter().filter(|r| !r.holds()).count() {
        0 => Ok(()),
        bad => Err(format!(
            "{bad} configuration(s) off their predicted peak or limit"
        )),
    }
}

/// The dependence analyzer's verdict, under `bindings`, for every map scope
/// of `sdfg` (including maps nested in map bodies).  Nothing routes on it:
/// this is the one place a proven race in a program is reported.
fn map_verdicts(
    sdfg: &dace_sdfg::Sdfg,
    bindings: &std::collections::HashMap<String, i64>,
) -> Vec<dace_sdfg::ParVerdict> {
    fn walk(
        graph: &dace_sdfg::DataflowGraph,
        bindings: &std::collections::HashMap<String, i64>,
        out: &mut Vec<dace_sdfg::ParVerdict>,
    ) {
        for node in &graph.nodes {
            if let dace_sdfg::DfNode::MapScope(m) = node {
                out.push(dace_sdfg::analyze_map(m, bindings));
                walk(&m.body, bindings, out);
            }
        }
    }
    let mut out = Vec::new();
    for st in &sdfg.states {
        walk(&st.graph, bindings, &mut out);
    }
    out
}

/// `[safe, reduction, race, unknown]` of `verdicts`.
fn verdict_counts(verdicts: &[dace_sdfg::ParVerdict]) -> [usize; 4] {
    use dace_sdfg::ParVerdict;
    let count = |v: fn(&ParVerdict) -> bool| verdicts.iter().filter(|x| v(x)).count();
    [
        count(|v| *v == ParVerdict::Safe),
        count(|v| *v == ParVerdict::Reduction),
        count(|v| matches!(v, ParVerdict::Race(_))),
        count(|v| *v == ParVerdict::Unknown),
    ]
}

/// `MatMul/MatVec/Transpose/SumReduce/Copy/Outer`: how many library nodes of
/// each kind `sdfg` holds.  A gradient program whose forward transposed an
/// operand only products read shows `Transpose` 0: reverse mode read it
/// through the products' flags.  Every `MatVec` of a forward program adds
/// one `Outer` to its gradient program, for `gA += gy ⊗ x`.
fn library_census(sdfg: &dace_sdfg::Sdfg) -> String {
    use dace_sdfg::{DfNode, LibraryOp};
    let mut counts = [0usize; 6];
    for node in sdfg.states.iter().flat_map(|s| &s.graph.nodes) {
        if let DfNode::Library(op) = node {
            counts[match op {
                LibraryOp::MatMul { .. } => 0,
                LibraryOp::MatVec { .. } => 1,
                LibraryOp::Transpose => 2,
                LibraryOp::SumReduce { .. } => 3,
                LibraryOp::Copy => 4,
                LibraryOp::Outer => 5,
            }] += 1;
        }
    }
    counts.map(|n| n.to_string()).join("/")
}

/// `attached/total` sites (the maps, or the loop sites, of one program) on
/// the N-D affine kernel, and one line per site with its strategy — the row
/// mode of an attached site, the typed reason where lowering left it on the
/// VM —, depth and points (`kernel, rows in strips (4-deep, 3600 points)`) and,
/// where an enclosing loop could not take it into a deeper nest, why.  `all`
/// lists every site; otherwise only those that are not kernels in strips.
fn strategy_column(
    label: &str,
    sites: &[dace_runtime::MapInfo],
    all: bool,
) -> (String, Vec<String>) {
    let attached = |m: &&dace_runtime::MapInfo| m.strategy == dace_runtime::MapStrategy::Kernel;
    let lines = sites
        .iter()
        .filter(|m| all || m.rows != Some(dace_runtime::RowMode::Strips))
        .map(|m| {
            let points = m.points.map_or("?".to_string(), |p| p.to_string());
            let rows = m.rows.map_or(String::new(), |rows| format!(", {rows}"));
            let mut line = format!(
                "{label} in state {}: {}{rows} ({}-deep, {points} points)",
                m.state, m.strategy, m.depth
            );
            if let Some(why) = m.enclosing {
                line += &format!("; enclosing loop: {why:?}");
            }
            line
        })
        .collect();
    (
        format!("{}/{}", sites.iter().filter(attached).count(), sites.len()),
        lines,
    )
}

/// The map and the loop-site columns of one program, and the report lines
/// of both, closed by the count of attached sites per row mode.
fn strategy_columns(
    label: &str,
    program: &dace_runtime::CompiledProgram,
) -> ([String; 2], Vec<String>) {
    let (map_sites, loop_sites) = (program.map_strategies(), program.loop_strategies());
    let (maps, mut report) = strategy_column(&format!("{label} map"), &map_sites, false);
    let (loops, lines) = strategy_column(&format!("{label} loop"), &loop_sites, true);
    report.extend(lines);
    let rows = |mode| {
        let sites = map_sites.iter().chain(&loop_sites);
        sites.filter(|m| m.rows == Some(mode)).count()
    };
    report.push(format!(
        "{label} rows: {} site(s) in strips, {} in strips with writes per point, {} per point",
        rows(dace_runtime::RowMode::Strips),
        rows(dace_runtime::RowMode::StripsUnorderedWrites),
        rows(dace_runtime::RowMode::PerPointCarriedRead)
    ));
    ([maps, loops], report)
}

fn run_verify(kernels: &[Box<dyn Kernel>], preset: Preset) -> Result<(), String> {
    use dace_sdfg::{ParVerdict, Severity};
    println!(
        "{:<12} {:>7} {:>9} {:>5} {:>5} {:>10} {:>5} {:>8} {:>22} {:>26} {:>7} {:>12} {:>12} {:>17}",
        "kernel",
        "errors",
        "warnings",
        "maps",
        "safe",
        "reduction",
        "race",
        "unknown",
        "grad safe/red/race/unk",
        "grad mm/mv/tr/sum/cp/outer",
        "kernel",
        "grad kernel",
        "loop kernel",
        "grad loop kernel"
    );
    let mut dirty = 0usize;
    for kernel in kernels {
        let sizes = kernel.sizes(preset);
        let sdfg = kernel.build_dace(&sizes);
        let bindings = kernel.symbols(&sizes);
        let diags = sdfg.validate();
        let errors = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        let verdicts = map_verdicts(&sdfg, &bindings);
        let [safe, reduction, races, unknown] = verdict_counts(&verdicts);
        // The execution strategy lowering chose per map and per loop site,
        // for the forward program and for the gradient program built from
        // it.
        let unbuilt = || (["-".to_string(), "-".to_string()], Vec::new());
        let ([fwd, fwd_loops], mut declined) = match dace_runtime::compile(&sdfg, &bindings) {
            Ok(program) => strategy_columns("forward", &program),
            Err(_) => unbuilt(),
        };
        let engine = dace_ad::GradientEngine::new(
            &sdfg,
            "OUT",
            &kernel.wrt(),
            &bindings,
            &dace_ad::AdOptions::default(),
        );
        let ([grad, grad_loops], lines) = match &engine {
            Ok(engine) => strategy_columns("gradient", engine.gradient_program()),
            Err(_) => unbuilt(),
        };
        declined.extend(lines);
        // The verdicts of the gradient program: a race in an AD-generated
        // `adj_*` map is visible here and nowhere else.
        let grad_verdicts = match &engine {
            Ok(engine) => map_verdicts(&engine.plan().sdfg, &bindings),
            Err(_) => Vec::new(),
        };
        let grad_counts = verdict_counts(&grad_verdicts);
        let (grad_column, census) = match &engine {
            Ok(engine) => (
                grad_counts.map(|n| n.to_string()).join("/"),
                library_census(&engine.plan().sdfg),
            ),
            Err(_) => ("-".to_string(), "-".to_string()),
        };
        println!(
            "{:<12} {:>7} {:>9} {:>5} {:>5} {:>10} {:>5} {:>8} {:>22} {:>26} {:>7} {:>12} {:>12} {:>17}",
            kernel.name(),
            errors,
            diags.len() - errors,
            verdicts.len(),
            safe,
            reduction,
            races,
            unknown,
            grad_column,
            census,
            fwd,
            grad,
            fwd_loops,
            grad_loops,
        );
        for d in &diags {
            println!("             {d}");
        }
        for line in &declined {
            println!("             {line}");
        }
        for v in verdicts.iter().chain(&grad_verdicts) {
            if let ParVerdict::Race(c) = v {
                println!("             race on `{}`: {c}", c.array);
            }
        }
        if errors > 0 || races + grad_counts[2] > 0 {
            dirty += 1;
        }
    }
    if dirty > 0 {
        return Err(format!(
            "{dirty} kernel(s) failed verification (error diagnostics or proven races)"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(a)) => a,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("npbench: {e}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let kernels = match selected_kernels(&args.kernels) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("npbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some(figure) = args.figure {
        run_figure(figure, args.preset, args.reps)
    } else if args.verify {
        run_verify(&kernels, args.preset)
    } else {
        run_serial(&kernels, args.preset, args.reps)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("npbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Args>, String> {
        let argv: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&argv)
    }

    /// Every `--flag` the usage text lists parses, with a value where its
    /// line names one, and the flags of the serving modes this runner no
    /// longer has are unknown arguments.
    #[test]
    fn usage_lists_exactly_the_flags_the_parser_takes() {
        let mut listed = Vec::new();
        for line in USAGE.lines().map(str::trim_start) {
            if !line.starts_with("--") {
                continue;
            }
            // `--flag [PLACEHOLDER]`, then two or more spaces of column gap.
            let head = line.split("  ").next().unwrap();
            let mut words = head.split(' ');
            let flag = words.next().unwrap();
            let mut argv = vec![flag];
            if let Some(placeholder) = words.next() {
                argv.push(match (flag, placeholder) {
                    ("--figure", _) => "13",
                    (_, "N") => "2",
                    (_, "NAME[,NAME...]") => "atax,gemm",
                    (_, choices) => choices.split('|').next().unwrap(),
                });
            }
            let parsed = parse(&argv).unwrap_or_else(|e| panic!("{argv:?}: {e}"));
            assert_eq!(parsed.is_none(), flag == "--help", "{argv:?}");
            listed.push(flag);
        }
        assert_eq!(
            listed,
            ["--figure", "--kernel", "--preset", "--reps", "--verify", "--help"]
        );
        for flag in [
            "--batch",
            "--workers",
            "--serve",
            "--requests",
            "--deadline-ms",
            "--max-batch",
            "--gateway",
            "--queue-cap",
            "--retry-budget",
            "--inject-panic-every",
            "--inject-delay-ms",
            "--reloads",
        ] {
            let err = parse(&[flag, "5"]).err();
            assert_eq!(err, Some(format!("unknown argument `{flag}`")));
        }
    }

    #[test]
    fn figure_flag_takes_only_the_paper_figures_and_no_kernels() {
        for bad in [
            &["--figure", "2"][..],
            &["--figure", "14"],
            &["--figure", "1", "--kernel", "atax"],
            &["--kernel", "atax", "--figure", "13"],
            &["--figure"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
        for (n, _) in FIGURES {
            let args = parse(&["--figure", &n.to_string(), "--preset", "test"]);
            assert_eq!(args.unwrap().unwrap().figure, Some(n));
        }
    }

    fn timing(ms: u64, output: f64) -> Timing {
        let elapsed = Duration::from_millis(ms);
        Timing { elapsed, output }
    }

    /// A row is printed only beside a check that both sides computed the
    /// same forward value; a disagreeing pair fails the table.
    #[test]
    fn a_row_whose_sides_disagree_fails_the_table() {
        let row = |label: &str, jax_output| Row {
            label: label.to_string(),
            dace: timing(1, 100.0),
            jax: timing(2, jax_output),
        };
        let (agree, close, apart) = (
            row("same", 100.0),
            row("close", 100.00001),
            row("apart", 100.001),
        );
        assert!(agree.agrees() && close.agrees() && !apart.agrees());
        assert!(!row("nan", f64::NAN).agrees());
        assert!(print_rows(&[agree, close]).is_ok());
        let err = print_rows(&[row("same", 100.0), apart]).unwrap_err();
        assert!(err.starts_with("1 row(s)"), "{err}");
    }

    #[test]
    fn a_configuration_off_its_prediction_or_its_feasible_limit_fails() {
        let row = |peak, limit| CheckpointRow {
            label: "C-0".to_string(),
            stored: Vec::new(),
            elapsed: Duration::ZERO,
            peak,
            predicted: 100,
            limit,
        };
        assert!(row(100, None).holds() && row(100, Some(100)).holds());
        assert!(!row(99, None).holds() && !row(101, None).holds());
        assert!(!row(100, Some(99)).holds());
    }

    #[test]
    fn the_footer_is_the_average_and_the_geometric_mean() {
        let (mean, geo) = speedup_means(&[2.0, 8.0]);
        assert!((mean - 5.0).abs() < 1e-9 && (geo - 4.0).abs() < 1e-9);
        let rows = [timing(2, 0.0), timing(8, 0.0)].map(|jax| Row {
            label: String::new(),
            dace: timing(1, 0.0),
            jax,
        });
        assert_eq!(rows.each_ref().map(Row::speedup), [2.0, 8.0]);
    }

    /// The `grad mm/mv/tr/sum/cp/outer` column: atax's two products each
    /// differentiate into a `MatVec` and an `Outer`, gemm's two products
    /// into a `MatMul` for each operand.
    #[test]
    fn the_library_census_counts_outer_in_a_column_of_its_own() {
        for (name, census) in [("atax", "0/4/0/1/0/2"), ("gemm", "3/0/0/1/0/0")] {
            let kernel = kernel_by_name(name).unwrap();
            let sizes = kernel.sizes(Preset::Test);
            let engine = GradientEngine::new(
                &kernel.build_dace(&sizes),
                "OUT",
                &kernel.wrt(),
                &kernel.symbols(&sizes),
                &AdOptions::default(),
            )
            .unwrap();
            assert_eq!(library_census(&engine.plan().sdfg), census, "{name}");
        }
    }

    /// Every figure at the test preset: the kernels (or sizes) it names, each
    /// row's two sides agreeing; Fig. 13's eight configurations and the ILP
    /// row each observe the peak the checkpoint pass predicted.
    #[test]
    fn every_figure_yields_its_rows_at_the_test_preset() {
        use std::collections::BTreeSet;
        let names = |c| kernels_in(c).iter().map(|k| k.name().to_string()).collect();
        let cases: [(u8, BTreeSet<String>); 4] = [
            (1, FIG1.map(str::to_string).into()),
            (10, names(Category::Vectorized)),
            (11, names(Category::Loops)),
            (12, ["N=8", "N=12", "N=16"].map(str::to_string).into()),
        ];
        for (figure, expected) in cases {
            let rows = figure_rows(figure, Preset::Test, 1).unwrap();
            let labels: BTreeSet<String> = rows.iter().map(|r| r.label.clone()).collect();
            assert_eq!(
                (rows.len(), labels),
                (expected.len(), expected),
                "Fig. {figure}"
            );
            assert!(rows.iter().all(Row::agrees), "Fig. {figure}");
            if figure != 12 {
                let sorted = rows.windows(2).all(|w| w[0].speedup() <= w[1].speedup());
                assert!(sorted, "Fig. {figure}");
            }
        }
        let rows = figure13(Preset::Test, 1).unwrap();
        let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(
            labels,
            ["C-0", "C-1", "C-2", "C-3", "C-4", "C-5", "C-6", "C-7", "ILP"]
        );
        for r in &rows {
            assert_eq!(r.peak, r.predicted, "{}", r.label);
            assert!(r.holds(), "{}", r.label);
        }
        assert_eq!(rows[7].stored, ["A0", "A1", "A2"]);
        let limit = rows[8].limit.expect("the ILP's limit is feasible");
        assert!(rows[8].peak <= limit);
    }
}
