//! Programs the benchmark differentiates, and one *class* of operations:
//! a gradient engine with its seeded input variants and verified references.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use dace_ad::{AdOptions, BackwardPlan, CheckpointStrategy, GradientEngine, GradientResult};
use dace_frontend::{ArrayExpr, ProgramBuilder};
use dace_runtime::{ExecutionReport, Session};
use dace_sdfg::Sdfg;
use dace_tensor::random::uniform;
use dace_tensor::Tensor;
use npbench::{GradOutput, Kernel, Preset, Sizes};

use crate::oracle::{listing1_oracle, Reference, Tally};
use crate::trace::Tracer;

/// Named input tensors of one operation.
pub type Inputs = HashMap<String, Tensor>;

/// Dependent output every program reduces into.
pub const OUTPUT: &str = "OUT";

/// Side length of the Listing-1 arrays at the bench preset.  The issue's
/// prototype used 192; at ~80 ms per gradient that leaves too few blocks
/// per window to pick the quiet ones from, so the arrays are a quarter the
/// size.
pub const LISTING1_N: usize = 96;

/// `Ilp` byte limit for Listing-1 at [`LISTING1_N`]: midway between the
/// predicted store-all (13 arrays) and recompute-all (11 arrays) peaks,
/// i.e. 12 arrays of `N² × 8` bytes plus the two scalars.  Frozen, so a
/// change to the predictor cannot move the promise it is checked against.
pub const LISTING1_LIMIT: usize = 12 * LISTING1_N * LISTING1_N * 8 + 16;

/// `Ilp` byte limits of the kernels that have store/recompute candidates,
/// at the bench preset; frozen like [`LISTING1_LIMIT`].  On the linear-
/// algebra kernels the memory model predicts the same peak for store-all
/// and recompute-all (the peak lies in the backward maps) and nothing below
/// it is feasible, so the limit is that peak.  On mlp a mixed configuration
/// undercuts both extremes (909 328 B either way, 811 024 B at best); the
/// limit lies midway, which store-all breaks, so the ILP has to recompute.
const KERNEL_LIMITS: &[(&str, usize)] = &[
    ("atax", 1_592_176),
    ("bicg", 1_591_856),
    ("k2mm", 2_038_416),
    ("k3mm", 2_352_016),
    ("mvt", 2_512_016),
    ("mlp", 860_176),
];

/// The frozen `Ilp` limit of a kernel, if it has candidates.  At the test
/// preset (smoke runs) the limit is simply generous.
pub fn kernel_limit(name: &str, preset: Preset) -> Option<usize> {
    let (_, limit) = KERNEL_LIMITS.iter().find(|(k, _)| *k == name)?;
    Some(match preset {
        Preset::Bench => *limit,
        Preset::Test => 1 << 30,
    })
}

enum Source {
    Kernel(Box<dyn Kernel>, Sizes),
    Listing1 { n: usize },
}

/// A forward program plus the checkpointing strategy it is differentiated
/// under.
pub struct Program {
    /// Class name (`atax`, `listing1.ilp`, …).
    pub name: String,
    source: Source,
    /// Store/recompute strategy.
    pub strategy: CheckpointStrategy,
}

impl Program {
    /// An NPBench kernel at `preset` sizes.
    pub fn kernel(
        name: &str,
        preset: Preset,
        strategy: CheckpointStrategy,
    ) -> Result<Self, String> {
        let kernel = npbench::kernel_by_name(name).ok_or_else(|| format!("no kernel `{name}`"))?;
        let sizes = kernel.sizes(preset);
        Ok(Program {
            name: name.to_string(),
            source: Source::Kernel(kernel, sizes),
            strategy,
        })
    }

    /// The paper's §IV-A Listing-1 program over `n × n` arrays.
    pub fn listing1(n: usize, strategy: CheckpointStrategy) -> Self {
        Program {
            name: "listing1".to_string(),
            source: Source::Listing1 { n },
            strategy,
        }
    }

    /// Rename the class (one program under several strategies).
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// The NPBench kernel name, if the program is one.
    pub fn kernel_name(&self) -> Option<&'static str> {
        match &self.source {
            Source::Kernel(k, _) => Some(k.name()),
            Source::Listing1 { .. } => None,
        }
    }

    /// Build the forward SDFG through the frontend.
    pub fn build(&self) -> Sdfg {
        match &self.source {
            Source::Kernel(k, sizes) => k.build_dace(sizes),
            Source::Listing1 { .. } => listing1_sdfg(),
        }
    }

    /// Concrete symbol values.
    pub fn symbols(&self) -> HashMap<String, i64> {
        match &self.source {
            Source::Kernel(k, sizes) => k.symbols(sizes),
            Source::Listing1 { n } => HashMap::from([("N".to_string(), *n as i64)]),
        }
    }

    /// Independent variables.
    pub fn wrt(&self) -> Vec<&'static str> {
        match &self.source {
            Source::Kernel(k, _) => k.wrt(),
            Source::Listing1 { .. } => vec!["C", "D"],
        }
    }

    /// The seeded base inputs shifted by `shift` (as distinct users' data
    /// would differ, while staying numerically tame).
    pub fn inputs(&self, shift: f64) -> Inputs {
        let base: Inputs = match &self.source {
            Source::Kernel(k, sizes) => k.inputs(sizes),
            Source::Listing1 { n } => HashMap::from([
                ("C".to_string(), uniform(&[*n, *n], 51)),
                ("D".to_string(), uniform(&[*n, *n], 52)),
            ]),
        };
        base.into_iter()
            .map(|(name, tensor)| (name, tensor.add_scalar(shift)))
            .collect()
    }

    /// The independent oracle: the `jax-rs` tape for kernels, the closed
    /// form for Listing-1.
    pub fn oracle(&self, inputs: &Inputs) -> GradOutput {
        match &self.source {
            Source::Kernel(k, sizes) => k.run_jax(sizes, inputs),
            Source::Listing1 { .. } => listing1_oracle(&inputs["C"], &inputs["D"]),
        }
    }

    /// Differentiate and compile (one `GradientEngine::new`).
    pub fn engine(&self, sdfg: &Sdfg) -> Result<GradientEngine, String> {
        let options = AdOptions {
            strategy: self.strategy.clone(),
        };
        GradientEngine::new(sdfg, OUTPUT, &self.wrt(), &self.symbols(), &options)
            .map_err(|e| format!("{}: {e}", self.name))
    }
}

/// The Listing-1 program: three `sin` sites whose inputs `A0/A1/A2` must be
/// forwarded to the backward pass (same rendering as `fig13_ilp_checkpoint`).
fn listing1_sdfg() -> Sdfg {
    let mut b = ProgramBuilder::new("listing1");
    let n = b.symbol("N");
    let square = vec![n.clone(), n];
    for input in ["C", "D"] {
        b.add_input(input, square.clone())
            .expect("fresh input name");
    }
    for t in ["A0", "A1", "A2", "sin0", "sin1", "sin2", "D1", "D2", "tmp"] {
        b.add_transient(t, square.clone())
            .expect("fresh transient name");
    }
    b.add_scalar(OUTPUT).expect("fresh scalar name");
    b.assign("A0", ArrayExpr::a("C").mul(ArrayExpr::a("D")));
    b.assign("sin0", ArrayExpr::a("A0").sin());
    b.assign("D1", ArrayExpr::a("D").mul(ArrayExpr::s(6.0)));
    b.assign("A1", ArrayExpr::a("C").mul(ArrayExpr::a("D1")));
    b.assign("sin1", ArrayExpr::a("A1").sin());
    b.assign("D2", ArrayExpr::a("D1").mul(ArrayExpr::s(3.0)));
    b.assign("A2", ArrayExpr::a("C").mul(ArrayExpr::a("D2")));
    b.assign("sin2", ArrayExpr::a("A2").sin());
    b.assign(
        "tmp",
        ArrayExpr::a("sin0")
            .add(ArrayExpr::a("sin1"))
            .add(ArrayExpr::a("sin2")),
    );
    b.sum_into(OUTPUT, "tmp", false);
    b.build().expect("Listing-1 is a valid program")
}

/// What a gradient run produced, in the form the oracle compares.
pub struct Produced {
    /// Forward value.
    pub output: f64,
    /// Gradients by input name.
    pub gradients: BTreeMap<String, Tensor>,
    /// The run's report.
    pub report: ExecutionReport,
}

impl From<GradientResult> for Produced {
    fn from(r: GradientResult) -> Self {
        Produced {
            output: r.output_value,
            gradients: r.gradients,
            report: r.report,
        }
    }
}

/// `GradientEngine::run` taken apart into its public parts on the
/// benchmark's own session over the engine's compiled gradient program, so
/// the traced run can put a span around each: bind (`set_input` of every
/// non-transient input), execute (`Session::run`), fetch (read the scalar,
/// clone the gradient arrays).
pub struct Parts {
    /// The session the parts run on.
    pub session: Session,
    bindable: Vec<String>,
    gradients: Vec<(String, String)>,
}

impl Parts {
    /// Wrap a session of `plan`'s compiled gradient program.
    pub fn new(session: Session, plan: &BackwardPlan) -> Self {
        Parts {
            session,
            bindable: plan
                .sdfg
                .arrays
                .iter()
                .filter(|(_, desc)| !desc.transient)
                .map(|(name, _)| name.clone())
                .collect(),
            gradients: plan
                .inputs
                .iter()
                .filter_map(|input| Some((input.clone(), plan.gradients.get(input)?.clone())))
                .collect(),
        }
    }

    /// The inputs a session of the gradient program binds (transients the
    /// program computes itself are left out), as a `BatchDriver` item.
    pub fn bound(&self, inputs: &Inputs) -> Inputs {
        inputs
            .iter()
            .filter(|(name, _)| self.bindable.contains(name))
            .map(|(name, tensor)| (name.clone(), tensor.clone()))
            .collect()
    }

    /// Arrays a served request fetches: the output, then every gradient.
    pub fn fetch(&self) -> Vec<&str> {
        std::iter::once(OUTPUT)
            .chain(self.gradients.iter().map(|(_, g)| g.as_str()))
            .collect()
    }

    /// One gradient run in three timed parts; returns the instants at the
    /// four boundaries.
    pub fn run(&mut self, inputs: &Inputs) -> Result<(Produced, [Instant; 4]), String> {
        let t0 = Instant::now();
        self.session.clear_bindings();
        for (name, tensor) in inputs {
            if self.bindable.contains(name) {
                self.session
                    .set_input(name, tensor.clone())
                    .map_err(|e| e.to_string())?;
            }
        }
        let t1 = Instant::now();
        let report = self.session.run().map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let output = self
            .session
            .array(OUTPUT)
            .filter(|t| t.len() == 1)
            .map(|t| t.data()[0])
            .ok_or_else(|| format!("no scalar `{OUTPUT}`"))?;
        let mut gradients = BTreeMap::new();
        for (input, array) in &self.gradients {
            if let Some(g) = self.session.array(array) {
                gradients.insert(input.clone(), g.clone());
            }
        }
        let t3 = Instant::now();
        Ok((
            Produced {
                output,
                gradients,
                report,
            },
            [t0, t1, t2, t3],
        ))
    }
}

/// One class of operations.
pub struct GradClass {
    /// The program and its strategy.
    pub program: Program,
    /// The engine operations run on.
    pub engine: GradientEngine,
    /// Seeded input variants, used round-robin.
    pub variants: Vec<Inputs>,
    /// The verified reference of each variant.
    pub refs: Vec<Reference>,
    /// Byte limit an operation's observed peak must respect, if promised.
    pub limit: Option<usize>,
    /// Wall time of the oracle on each variant (ms; the `jax-rs` baseline).
    pub oracle_ms: Vec<f64>,
    /// Largest `peak_bytes` any operation reported.
    pub peak_bytes: usize,
    /// Report of the most recent successful operation.
    pub last_report: ExecutionReport,
    /// The engine's run taken apart (traced run only).
    pub parts: Parts,
    cursor: usize,
}

impl GradClass {
    /// Build the engine, run every input variant once and verify each
    /// result against the program's independent oracle.  The runs double
    /// as warm-up: slabs are allocated and profile-guided specialization
    /// has upgraded before anything is timed.
    pub fn build(
        program: Program,
        shifts: &[f64],
        limit: Option<usize>,
        tally: &mut Tally,
    ) -> Result<Self, String> {
        let sdfg = program.build();
        let engine = program.engine(&sdfg)?;
        let wrt = program.wrt();
        let mut class = GradClass {
            variants: shifts.iter().map(|s| program.inputs(*s)).collect(),
            refs: Vec::with_capacity(shifts.len()),
            limit,
            oracle_ms: Vec::with_capacity(shifts.len()),
            peak_bytes: 0,
            last_report: ExecutionReport::default(),
            parts: Parts::new(
                engine
                    .gradient_program()
                    .session()
                    .with_free_hints(&engine.plan().free_hints),
                engine.plan(),
            ),
            cursor: 0,
            program,
            engine,
        };
        for v in 0..class.variants.len() {
            let result = class
                .engine
                .run(&class.variants[v])
                .map_err(|e| format!("{}: {e}", class.program.name))?;
            let reference = Reference::of(&result);
            let t = Instant::now();
            let oracle = class.program.oracle(&class.variants[v]);
            class.oracle_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tally.record(
                reference
                    .check_against(&oracle, &wrt)
                    .map_err(|e| format!("{} variant {v}: {e}", class.program.name)),
            );
            class.refs.push(reference);
        }
        // Warm until every variant has run at least once more and
        // profile-guided specialization (3 executions) has settled.
        for _ in 0..class.variants.len().max(3) {
            class.op(None).1?;
        }
        Ok(class)
    }

    /// Next input variant, round-robin.
    pub fn next_variant(&mut self) -> usize {
        let v = self.cursor;
        self.cursor = (v + 1) % self.variants.len();
        v
    }

    /// Check a produced result against variant `v`'s reference and the
    /// class's memory limit.
    pub fn verify(&mut self, v: usize, produced: &Produced) -> Result<(), String> {
        self.peak_bytes = self.peak_bytes.max(produced.report.peak_bytes);
        if !self.refs[v].bit_identical(produced.output, &produced.gradients) {
            return Err(format!(
                "{} variant {v}: result differs from its verified reference",
                self.program.name
            ));
        }
        if let Some(limit) = self.limit.filter(|l| produced.report.peak_bytes > *l) {
            return Err(format!(
                "{}: peak {} B exceeds the {limit} B limit",
                self.program.name, produced.report.peak_bytes
            ));
        }
        self.last_report = produced.report.clone();
        Ok(())
    }

    /// One operation: a gradient of the next variant.  Untraced it is one
    /// `GradientEngine::run`; traced it is the same work in parts, with a
    /// span around each inside the operation's own, which is timed from
    /// outside the call like the untraced one.  Returns the operation's wall
    /// time and, outside that time, the verdict on its result.
    pub fn op(&mut self, tracer: Option<(&mut Tracer, u64)>) -> (Duration, Result<(), String>) {
        let v = self.next_variant();
        match tracer {
            None => {
                let t = Instant::now();
                let result = self.engine.run(&self.variants[v]);
                let elapsed = t.elapsed();
                let verdict = match result {
                    Ok(r) => self.verify(v, &r.into()),
                    Err(e) => Err(format!("{}: {e}", self.program.name)),
                };
                (elapsed, verdict)
            }
            Some((tracer, op)) => {
                let before = Instant::now();
                let result = self.parts.run(&self.variants[v]);
                let after = Instant::now();
                let verdict = match result {
                    Ok((produced, [t0, t1, t2, t3])) => {
                        let span = tracer.record("bench.op", None, op, before, after);
                        tracer.record("core.bind", Some(span), op, t0, t1);
                        tracer.record("runtime.exec", Some(span), op, t1, t2);
                        tracer.record("core.fetch", Some(span), op, t2, t3);
                        self.verify(v, &produced)
                    }
                    Err(e) => Err(format!("{}: {e}", self.program.name)),
                };
                (after - before, verdict)
            }
        }
    }
}
