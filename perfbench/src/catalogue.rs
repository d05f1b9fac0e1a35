//! The benchmark's catalogue: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics.  `BENCHMARK.json` at the
//! repository root is this catalogue printed by `--manifest`; a unit test
//! keeps the two equal.

use std::fmt::Write as _;

/// The command the driver runs (it appends `--workload … --seed … --seconds
/// … --trace …`).
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: &[&str] = &["perfbench"];

/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 20;

/// One workload: a stream of operations, each belonging to a class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop over the eight library-node kernels.
    GradBlas,
    /// Closed loop over the seven loop/stencil kernels.
    GradLoops,
    /// Closed loop of cold compiles over all fifteen kernels.
    CompileCold,
    /// Closed loop over store-all / ILP / recompute-all configurations.
    CkptIlp,
    /// Open loop, 100 requests/s through the gateway.
    GatewayPaced,
}

impl Workload {
    /// Every workload, in catalogue order.
    pub const ALL: [Workload; 5] = [
        Workload::GradBlas,
        Workload::GradLoops,
        Workload::CompileCold,
        Workload::CkptIlp,
        Workload::GatewayPaced,
    ];

    /// Name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GradBlas => "grad_blas",
            Workload::GradLoops => "grad_loops",
            Workload::CompileCold => "compile_cold",
            Workload::CkptIlp => "ckpt_ilp",
            Workload::GatewayPaced => "gateway_paced",
        }
    }

    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line, at most 200 characters).
    pub fn why(self) -> &'static str {
        match self {
            Workload::GradBlas => {
                "library nodes + large elementwise backward maps on 0.3-2.5 MB working sets: \
                 the tasklet VM and tensor::linalg do the work, the spec tier none"
            }
            Workload::GradLoops => {
                "thousands of state executions over <=43 KB working sets: control-flow \
                 walking and the spec tier do the work, library calls none; bypass partner \
                 of grad_blas"
            }
            Workload::CompileCold => {
                "time to first gradient: frontend, verify, deps, reverse, checkpoint, ILP and \
                 plan lowering do all the work, the executor none"
            }
            Workload::CkptIlp => {
                "same executor under store-all / ILP limit / recompute-all on Listing-1 and \
                 mlp: recompute slices and free hints, with the memory limit checked per op"
            }
            Workload::GatewayPaced => {
                "open loop, 100 requests/s over 4 tenants at ~40% utilisation: batches stay \
                 at 1, so latency = execute + admission path (linger, checkout, bind, clone)"
            }
        }
    }

    /// Whether the workload calls the engine directly on one thread.
    pub fn is_direct(self) -> bool {
        self != Workload::GatewayPaced
    }
}

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the system sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, the same on every workload.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_quiet",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ok_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.0,
    },
    EndToEnd {
        name: "peak_bytes",
        unit: "B",
        better: Better::Lower,
        bound: 0.0,
    },
];

/// One per-layer metric (prefix = module).  `exact` marks counts that
/// repeat exactly between two same-seed runs.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Whether the value is a count that repeats exactly.
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics, from the traced run.  A metric that does not
/// apply to a workload (a gateway row on a direct workload, a kernel the
/// workload does not run) reads 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    layer("frontend.build_ms", "ms", Lower),
    layer("sdfg.validate_ms", "ms", Lower),
    layer("sdfg.deps_ms", "ms", Lower),
    count("sdfg.grad_states", "count", Lower),
    count("sdfg.grad_nodes", "count", Lower),
    count("sdfg.maps_safe", "count", Higher),
    count("sdfg.maps_reduction", "count", Higher),
    count("sdfg.maps_race", "count", Lower),
    count("sdfg.maps_unknown", "count", Lower),
    count("sdfg.warnings", "count", Lower),
    layer("core.reverse_ms", "ms", Lower),
    layer("core.checkpoint_ms", "ms", Lower),
    layer("core.engine_new_ms", "ms", Lower),
    count("core.candidates", "count", Lower),
    count("core.stored", "count", Lower),
    count("core.recomputed", "count", Higher),
    count("core.predicted_peak_bytes", "B", Lower),
    count("core.peak_gap_bytes", "B", Lower),
    layer("core.bind_ms", "ms", Lower),
    layer("core.fetch_ms", "ms", Lower),
    layer("core.fwd_ms", "ms", Lower),
    layer("core.grad_over_fwd", "ratio", Lower),
    layer("ilp.solve_ms", "ms", Lower),
    count("ilp.nodes", "count", Lower),
    layer("ilp.feasible_share", "ratio", Higher),
    layer("runtime.compile_cold_ms", "ms", Lower),
    layer("runtime.compile_hit_ms", "ms", Lower),
    count("runtime.plan_cache_misses", "count", Lower),
    layer("runtime.first_run_ms", "ms", Lower),
    layer("runtime.exec_ms", "ms", Lower),
    count("runtime.tasklets", "count", Lower),
    count("runtime.map_points", "count", Lower),
    count("runtime.states", "count", Lower),
    count("runtime.library_calls", "count", Lower),
    count("runtime.spec_dispatches", "count", Higher),
    layer("runtime.ns_per_tasklet", "ns", Lower),
    layer("runtime.vm_ms", "ms", Lower),
    layer("runtime.spec_speedup", "ratio", Higher),
    layer("runtime.seq_ms", "ms", Lower),
    layer("runtime.par_speedup", "ratio", Higher),
    count("runtime.final_bytes", "B", Lower),
    layer("batch.item_ms", "ms", Lower),
    layer("batch.pool_hit_ratio", "ratio", Higher),
    layer("serve.p50_ms", "ms", Lower),
    layer("serve.nonexec_ms", "ms", Lower),
    layer("gateway.submit_us", "us", Lower),
    layer("gateway.nonexec_ms", "ms", Lower),
    layer("gateway.overhead_ms", "ms", Lower),
    layer("gateway.batched_with_mean", "count", Higher),
    layer("gateway.batches", "count", Lower),
    layer("gateway.largest_batch", "count", Higher),
    layer("gateway.retried", "count", Lower),
    layer("gateway.overloaded", "count", Lower),
    layer("gateway.degraded", "count", Lower),
    layer("gateway.expired", "count", Lower),
    layer("gateway.breaker_trips", "count", Lower),
    layer("gateway.backlog_end", "count", Lower),
    layer("gateway.p50_ms.atax", "ms", Lower),
    layer("gateway.p50_ms.mlp", "ms", Lower),
    layer("gateway.p50_ms.jacobi2d", "ms", Lower),
    layer("gateway.p50_ms.syrk", "ms", Lower),
    layer("tensor.matvec_us", "us", Lower),
    layer("tensor.matmul_us", "us", Lower),
    layer("tensor.flops_per_byte", "flop/B", Higher),
    layer("jaxrt.grad_ms", "ms", Lower),
    layer("npbench.speedup_vs_jaxrt", "ratio", Higher),
    layer("npbench.grad_ms.atax", "ms", Lower),
    layer("npbench.grad_ms.bicg", "ms", Lower),
    layer("npbench.grad_ms.gemm", "ms", Lower),
    layer("npbench.grad_ms.gesummv", "ms", Lower),
    layer("npbench.grad_ms.k2mm", "ms", Lower),
    layer("npbench.grad_ms.k3mm", "ms", Lower),
    layer("npbench.grad_ms.mvt", "ms", Lower),
    layer("npbench.grad_ms.mlp", "ms", Lower),
    layer("npbench.grad_ms.jacobi1d", "ms", Lower),
    layer("npbench.grad_ms.seidel2d", "ms", Lower),
    layer("npbench.grad_ms.jacobi2d", "ms", Lower),
    layer("npbench.grad_ms.syrk", "ms", Lower),
    layer("npbench.grad_ms.syr2k", "ms", Lower),
    layer("npbench.grad_ms.trmm", "ms", Lower),
    layer("npbench.grad_ms.conv2d", "ms", Lower),
    layer("bench.clock_factor", "ratio", Lower),
    layer("bench.window_ms_p50", "ms", Lower),
    layer("bench.window_ms_p95", "ms", Lower),
    layer("bench.loadgen_late_ms_p99", "ms", Lower),
    layer("bench.trace_overhead", "ratio", Lower),
    layer("bench.span_cover", "ratio", Higher),
    layer("bench.rss_peak_bytes", "B", Lower),
    layer("bench.samples_pooled", "count", Higher),
];

/// `BENCHMARK.json`, exactly as checked in at the repository root.
pub fn manifest() -> String {
    fn strings(items: &[&str]) -> String {
        let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
        format!("[{}]", quoted.join(", "))
    }
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"command\": {},", strings(COMMAND));
    let _ = writeln!(s, "  \"paths\": {},", strings(PATHS));
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    let _ = writeln!(s, "  \"workloads\": [");
    for (i, w) in Workload::ALL.iter().enumerate() {
        let comma = if i + 1 < Workload::ALL.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name(),
            w.why()
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"end_to_end\": [");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.name(),
            m.bound
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"per_layer\": [");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.name()
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !s.is_empty()
            && s.len() <= 64
            && s.chars().all(ok)
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn is_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for w in Workload::ALL {
            assert!(is_name(w.name()), "{}", w.name());
            assert!(seen.insert(w.name()), "{} used twice", w.name());
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert!(!w.why().contains('"') && !w.why().contains('\\'));
            assert_eq!(Workload::by_name(w.name()), Some(w));
        }
        for m in END_TO_END {
            assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
            assert!((0.0..=0.25).contains(&m.bound));
        }
        for m in PER_LAYER {
            assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        assert!((2..=8).contains(&Workload::ALL.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|a| a.len() <= 200));
    }

    #[test]
    fn every_kernel_has_a_row() {
        for k in npbench::all_kernels() {
            let row = format!("npbench.grad_ms.{}", k.name());
            assert!(PER_LAYER.iter().any(|m| m.name == row), "{row}");
        }
    }

    #[test]
    fn checked_in_manifest_is_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `cargo run --manifest-path perfbench/Cargo.toml -- --manifest > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
