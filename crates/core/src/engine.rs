//! The gradient engine: ties together backward generation, checkpointing and
//! execution, and provides the finite-difference oracle.
//!
//! The engine follows the runtime's compile-once/run-many shape: `new`
//! builds the gradient SDFG and compiles it **once** into a
//! [`CompiledProgram`] it keeps; `run` binds inputs into a persistent
//! [`Session`] (whose tensor slab is reused across runs) and executes.
//! Forward-only execution ([`GradientEngine::run_forward`]) goes through a
//! second program that is compiled lazily on first use.  Repeated `run`
//! calls therefore perform exactly one gradient lowering.
//!
//! Which names a run accepts, and how its arrays become a
//! [`GradientResult`], is stated once per program: `run`, every `run_batch`
//! item, a served request and a forward run all go through the same rule.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use dace_runtime::{
    compile, BatchDriver, BatchError, BatchReport, CompiledProgram, ExecutionReport, Gateway,
    GatewayError, GatewayHandle, GatewayOptions, RuntimeError, ServeError, ServeResponse, Session,
    SubmitOptions, TenantConfig, TenantStats,
};
use dace_sdfg::Sdfg;
use dace_tensor::Tensor;

use crate::checkpoint::apply_strategy;
use crate::reverse::{generate_backward, AdError, BackwardPlan};
use crate::AdOptions;

/// Errors raised by the gradient engine.
#[derive(Clone, Debug)]
pub enum EngineError {
    /// Backward generation failed.
    Ad(AdError),
    /// Execution failed.
    Runtime(RuntimeError),
    /// An input tensor was provided for a name that is not an array of the
    /// forward program: a typo, or one of the adjoint's own gradient, tape
    /// or flag containers.
    UnknownInput(String),
    /// The dependent output array does not exist after execution.
    MissingOutput(String),
    /// The dependent output exists but is not a scalar (length-1) container.
    NonScalarOutput {
        /// Name of the output array.
        name: String,
        /// Its actual shape.
        shape: Vec<usize>,
    },
    /// One item of a [`GradientEngine::run_batch`] call panicked.  The
    /// session that served it was discarded; the engine (and its batch
    /// driver's session pool) stay usable.
    BatchItemPanicked {
        /// Index of the panicking item in the submitted batch.
        index: usize,
        /// The panic payload, rendered as text.
        message: String,
    },
    /// A served gradient request failed in the serving layer (deadline
    /// expiry, cancellation, shutdown or a mid-run panic).  Plain runtime
    /// errors of served requests surface as [`EngineError::Runtime`]
    /// instead.
    Serve(ServeError),
    /// A gateway-level call failed (unknown or duplicate tenant, gateway
    /// shutting down).  Per-request serving outcomes still surface as
    /// [`EngineError::Serve`] / [`EngineError::Runtime`].
    Gateway(GatewayError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Ad(e) => write!(f, "AD error: {e}"),
            EngineError::Runtime(e) => write!(f, "runtime error: {e}"),
            EngineError::UnknownInput(name) => write!(
                f,
                "input tensor `{name}` does not name an array of the forward program"
            ),
            EngineError::MissingOutput(name) => {
                write!(f, "output array `{name}` does not exist after execution")
            }
            EngineError::NonScalarOutput { name, shape } => write!(
                f,
                "output array `{name}` has shape {shape:?}, expected a scalar (length 1)"
            ),
            EngineError::BatchItemPanicked { index, message } => {
                write!(f, "batch item {index} panicked: {message}")
            }
            EngineError::Serve(e) => write!(f, "serve error: {e}"),
            EngineError::Gateway(e) => write!(f, "gateway error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<AdError> for EngineError {
    fn from(e: AdError) -> Self {
        EngineError::Ad(e)
    }
}

impl From<RuntimeError> for EngineError {
    fn from(e: RuntimeError) -> Self {
        EngineError::Runtime(e)
    }
}

impl From<GatewayError> for EngineError {
    fn from(e: GatewayError) -> Self {
        EngineError::Gateway(e)
    }
}

/// Result of one gradient computation.
#[derive(Clone, Debug)]
pub struct GradientResult {
    /// Gradient tensors for the requested independent inputs.
    pub gradients: BTreeMap<String, Tensor>,
    /// Value of the dependent output after the forward pass.
    pub output_value: f64,
    /// Execution report of the combined gradient program (single memory
    /// timeline, as the paper measures it).
    pub report: ExecutionReport,
}

/// What a run of one program accepts and returns, stated once for every
/// way of running it.
#[derive(Debug)]
struct Binding {
    /// Every array of the forward program: `true` when the run binds it,
    /// `false` when the program recomputes it (a forward transient, or an
    /// input checkpointing demoted).  No other name is accepted.
    accepted: HashMap<String, bool>,
    /// The dependent scalar output.
    output: String,
    /// `(input, gradient array)` of every requested input that has a
    /// gradient (none for a forward run).
    gradients: Vec<(String, String)>,
}

/// A finished run's arrays: a session's slab, or a served response's
/// fetched outputs.
trait RunArrays {
    fn read(&self, name: &str) -> Option<&Tensor>;
    fn take(&mut self, name: &str) -> Option<Tensor>;
}

impl RunArrays for Session {
    fn read(&self, name: &str) -> Option<&Tensor> {
        self.array(name)
    }
    fn take(&mut self, name: &str) -> Option<Tensor> {
        self.take_array(name)
    }
}

impl RunArrays for HashMap<String, Tensor> {
    fn read(&self, name: &str) -> Option<&Tensor> {
        self.get(name)
    }
    fn take(&mut self, name: &str) -> Option<Tensor> {
        self.remove(name)
    }
}

impl Binding {
    /// The binding of `program`, which computes `output` over the arrays of
    /// `forward` (the forward program itself, or its gradient program).
    fn new(forward: &Sdfg, program: &Sdfg, output: &str, gradients: Vec<(String, String)>) -> Self {
        let accepted = forward.arrays.keys().map(|name| {
            let bind = program.arrays.get(name).is_some_and(|desc| !desc.transient);
            (name.clone(), bind)
        });
        Binding {
            accepted: accepted.collect(),
            output: output.to_string(),
            gradients,
        }
    }

    /// The forward program `sdfg` under its own binding, on a fresh session.
    fn forward(
        sdfg: &Sdfg,
        output: &str,
        symbols: &HashMap<String, i64>,
    ) -> Result<(Binding, Session), EngineError> {
        let session = compile(sdfg, symbols)?.session();
        Ok((Binding::new(sdfg, sdfg, output, Vec::new()), session))
    }

    /// Whether a run binds `name` (`true`) or skips it (`false`); a name
    /// that is not a forward array is an [`EngineError::UnknownInput`].
    fn bound(&self, name: &str) -> Result<bool, EngineError> {
        self.accepted
            .get(name)
            .copied()
            .ok_or_else(|| EngineError::UnknownInput(name.to_string()))
    }

    /// One run on `session`: bind `inputs` by copy into its resident
    /// buffers, execute, assemble the result.
    fn run(
        &self,
        session: &mut Session,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<GradientResult, EngineError> {
        session.clear_bindings();
        for (name, tensor) in inputs {
            if self.bound(name)? {
                session.copy_input(name, tensor)?;
            }
        }
        let report = session.run()?;
        self.assemble(session, report)
    }

    /// Turn a finished run's arrays into a [`GradientResult`]: read the
    /// output in place, which must exist and be a scalar, then take every
    /// gradient out.
    fn assemble(
        &self,
        arrays: &mut impl RunArrays,
        report: ExecutionReport,
    ) -> Result<GradientResult, EngineError> {
        let out = arrays
            .read(&self.output)
            .ok_or_else(|| EngineError::MissingOutput(self.output.clone()))?;
        if out.len() != 1 {
            return Err(EngineError::NonScalarOutput {
                name: self.output.clone(),
                shape: out.shape().to_vec(),
            });
        }
        let output_value = out.data()[0];
        let gradients = self
            .gradients
            .iter()
            .filter_map(|(input, g)| Some((input.clone(), arrays.take(g)?)));
        Ok(GradientResult {
            gradients: gradients.collect(),
            output_value,
            report,
        })
    }
}

/// High-level driver: build and compile the gradient SDFG once, run it many
/// times.
///
/// Holds two compiled programs: the gradient program (compiled in
/// [`GradientEngine::new`]) and a forward-only program (compiled lazily by
/// [`GradientEngine::run_forward`]).  Each has a persistent [`Session`]
/// whose tensor slab is reused across runs, so repeated executions pay no
/// lowering and no re-allocation cost.
pub struct GradientEngine {
    plan: BackwardPlan,
    symbols: HashMap<String, i64>,
    forward_sdfg: Sdfg,
    gradient: Session,
    /// The gradient program's binding, shared with every served client.
    binding: Arc<Binding>,
    forward: Option<(Binding, Session)>,
    /// Session-pool driver behind [`GradientEngine::run_batch`], built
    /// lazily.  The pool persists across calls, so steady-state batches run
    /// entirely warm.
    batch: Option<BatchDriver>,
    /// Client of the engine-private one-tenant [`Gateway`], built lazily by
    /// [`GradientEngine::serve`].
    server: Option<GatewayGradientClient>,
}

/// Tenant name of the engine's gradient program on its private gateway.
const SERVE_TENANT: &str = "gradient";

/// Result of one batched gradient computation: per-item results in input
/// order plus the aggregate batch statistics.
#[derive(Debug)]
pub struct BatchGradientResult {
    /// One [`GradientResult`] per input set, in submission order.
    pub items: Vec<GradientResult>,
    /// Aggregate throughput/counters of the batch (see
    /// [`dace_runtime::BatchReport`]).
    pub batch: BatchReport,
}

impl GradientEngine {
    /// Build the gradient program for `output` w.r.t. `inputs` under the
    /// given symbol values and checkpointing options, and compile it into an
    /// execution plan the engine keeps.
    pub fn new(
        forward: &Sdfg,
        output: &str,
        inputs: &[&str],
        symbols: &HashMap<String, i64>,
        options: &AdOptions,
    ) -> Result<Self, EngineError> {
        let mut plan = generate_backward(forward, output, inputs)?;
        let report = apply_strategy(&mut plan, &options.strategy, symbols)?;
        plan.ilp_report = Some(report);
        let program = compile(&plan.sdfg, symbols)?;
        let gradient = program.session().with_free_hints(&plan.free_hints);
        let gradients = plan
            .inputs
            .iter()
            .filter_map(|input| Some((input.clone(), plan.gradients.get(input)?.clone())));
        let binding = Binding::new(forward, &plan.sdfg, &plan.output, gradients.collect());
        Ok(GradientEngine {
            gradient,
            binding: Arc::new(binding),
            forward: None,
            forward_sdfg: forward.clone(),
            plan,
            symbols: symbols.clone(),
            batch: None,
            server: None,
        })
    }

    /// The generated plan (gradient SDFG plus metadata).
    pub fn plan(&self) -> &BackwardPlan {
        &self.plan
    }

    /// The compiled gradient program (forward + backward in one SDFG).
    pub fn gradient_program(&self) -> &CompiledProgram {
        self.gradient.program()
    }

    /// Run the gradient program on concrete inputs.
    ///
    /// Inputs must name arrays of the forward program.  Those the gradient
    /// program recomputes (forward transients, and inputs checkpointing
    /// demoted to transients) are accepted and ignored; any other name —
    /// a typo, or a gradient, tape or flag container of the adjoint — is an
    /// [`EngineError::UnknownInput`].  The dependent output must exist and
    /// be scalar, otherwise [`EngineError::MissingOutput`] /
    /// [`EngineError::NonScalarOutput`] is raised.
    pub fn run(&mut self, inputs: &HashMap<String, Tensor>) -> Result<GradientResult, EngineError> {
        self.binding.run(&mut self.gradient, inputs)
    }

    /// Run the gradient program on a batch of independent input sets
    /// concurrently, returning one [`GradientResult`] per set (in
    /// submission order) plus the aggregate [`BatchReport`].
    ///
    /// Every item is one [`GradientEngine::run`] on a pooled session of a
    /// [`BatchDriver`] over the *same* gradient program (a static
    /// batch has no admission decision to make, so it bypasses the serving
    /// front door): zero additional lowerings, and results bit-identical
    /// to looping `run` over the same inputs.
    ///
    /// Input validation matches [`GradientEngine::run`] per item; the first
    /// failing item aborts the call with its typed error (other items may
    /// still have executed).  A panicking item yields
    /// [`EngineError::BatchItemPanicked`] and poisons neither the engine
    /// nor the session pool.
    pub fn run_batch(
        &mut self,
        batches: &[HashMap<String, Tensor>],
    ) -> Result<BatchGradientResult, EngineError> {
        if self.batch.is_none() {
            self.batch = Some(self.build_batch_driver());
        }
        let driver = self.batch.as_ref().expect("driver was just built");
        let binding = &*self.binding;
        let out = driver.run_batch_with(batches.len(), |i, session| {
            binding.run(session, &batches[i])
        });
        let mut items = Vec::with_capacity(batches.len());
        for (index, item) in out.items.into_iter().enumerate() {
            match item {
                Ok(result) => items.push(result),
                Err(BatchError::Item(e)) => return Err(e),
                Err(BatchError::Panicked(message)) => {
                    return Err(EngineError::BatchItemPanicked { index, message })
                }
            }
        }
        Ok(BatchGradientResult {
            items,
            batch: out.report,
        })
    }

    /// Start (or return) the engine's dynamic-admission gradient server: an
    /// engine-private [`Gateway`] whose only tenant is this engine's
    /// gradient program, returned as a cloneable [`GatewayGradientClient`].
    /// Requests are submitted individually —
    /// [`GatewayGradientClient::submit`] /
    /// [`GatewayGradientClient::submit_with`] — and coalesced into batches
    /// over the *same* gradient program the blocking
    /// [`GradientEngine::run`] uses.  Served results are bit-identical to
    /// `run` with the same inputs.
    ///
    /// The gateway is configured for a program served alone: nothing to
    /// shed load for and no neighbour to protect, so the queue is
    /// unbounded.
    /// Any other configuration is a [`Gateway::new`] of its own plus
    /// [`GradientEngine::register_with`].  The server (its admission queue,
    /// dispatcher and session pool) persists on the engine; repeated calls
    /// return clients of the same instance.  Clones can be moved to other
    /// threads and submit concurrently.
    pub fn serve(&mut self) -> GatewayGradientClient {
        if self.server.is_none() {
            let gateway = Arc::new(Gateway::new(GatewayOptions {
                queue_capacity: usize::MAX,
                ..GatewayOptions::default()
            }));
            let client = self
                .register_with(&gateway, SERVE_TENANT, TenantConfig::default())
                .expect("a fresh gateway accepts its first tenant");
            self.server = Some(client);
        }
        self.server.clone().expect("server was just built")
    }

    /// A fresh [`BatchDriver`] over the engine's gradient program, carrying
    /// the plan's recomputation free hints — the execution substrate of
    /// [`GradientEngine::run_batch`] and of every gateway tenant
    /// ([`GradientEngine::serve`], [`GradientEngine::register_with`]).
    fn build_batch_driver(&self) -> BatchDriver {
        let mut driver = BatchDriver::new(self.gradient.program().clone());
        driver.set_free_hints(&self.plan.free_hints);
        driver
    }

    /// Register this engine's gradient program as tenant `tenant` on a
    /// shared multi-tenant [`Gateway`], returning a cloneable
    /// [`GatewayGradientClient`] for submitting gradient requests through
    /// it.
    ///
    /// Unlike the engine-private [`GradientEngine::serve`] gateway, this
    /// one is shared across engines/programs, so bounded admission,
    /// weighted fair scheduling and graceful reload come into play (see
    /// [`dace_runtime::gateway`]).  The registered
    /// driver carries the plan's recomputation free hints, so served
    /// results stay bit-identical to [`GradientEngine::run`].
    pub fn register_with(
        &self,
        gateway: &Arc<Gateway>,
        tenant: &str,
        config: TenantConfig,
    ) -> Result<GatewayGradientClient, EngineError> {
        gateway.register(tenant, self.build_batch_driver(), config)?;
        Ok(GatewayGradientClient {
            gateway: Arc::clone(gateway),
            tenant: tenant.to_string(),
            binding: Arc::clone(&self.binding),
        })
    }

    /// Hot-swap tenant `tenant`'s compiled plan on a shared [`Gateway`]
    /// with a fresh driver built from this engine (see
    /// [`Gateway::reload`]): the call blocks until requests in flight on
    /// the old plan have drained, while queued and new admissions land on
    /// the reloaded one.  Existing [`GatewayGradientClient`]s keep working
    /// across the swap as long as the program's array names are unchanged.
    pub fn reload_into(&self, gateway: &Gateway, tenant: &str) -> Result<(), EngineError> {
        gateway.reload(tenant, self.build_batch_driver())?;
        Ok(())
    }

    /// Run only the forward SDFG and return the scalar value of the
    /// dependent output, using the engine's forward-only program
    /// (compiled on first call).  Input names follow the forward program's
    /// own rule: its transients are skipped, other names are
    /// [`EngineError::UnknownInput`].
    pub fn run_forward(&mut self, inputs: &HashMap<String, Tensor>) -> Result<f64, EngineError> {
        if self.forward.is_none() {
            let forward = Binding::forward(&self.forward_sdfg, &self.plan.output, &self.symbols)?;
            self.forward = Some(forward);
        }
        let (binding, session) = self.forward.as_mut().expect("just compiled");
        Ok(binding.run(session, inputs)?.output_value)
    }
}

/// A completed served gradient request: the [`GradientResult`] plus the
/// serving-layer observability a blocking [`GradientEngine::run`] cannot
/// provide.
#[derive(Clone, Debug)]
pub struct ServedGradient {
    /// The gradient result, identical to what [`GradientEngine::run`]
    /// returns for the same inputs.
    pub result: GradientResult,
    /// Submit-to-completion latency (queueing included).
    pub latency: Duration,
    /// How many requests the dispatch that served this one coalesced.
    pub batched_with: usize,
}

/// Cloneable client for one gradient-program tenant of a [`Gateway`]: the
/// engine-private one behind [`GradientEngine::serve`], or a shared
/// multi-tenant one joined through [`GradientEngine::register_with`].
///
/// Submissions validate input names synchronously, execution is
/// asynchronous (the gateway coalesces requests into batches over the
/// engine's single gradient program), and handles deliver
/// [`ServedGradient`]s bit-identical to [`GradientEngine::run`].  Clones
/// share the same admission queue, dispatcher and session pool, so any
/// number of threads can submit concurrently.  The gateway's admission
/// rules apply as configured — a submission may resolve with
/// [`dace_runtime::ServeError::Overloaded`] (as [`EngineError::Serve`]) —
/// and a request that panics resolves
/// [`dace_runtime::ServeError::Panicked`] once, without being re-dispatched.
#[derive(Clone)]
pub struct GatewayGradientClient {
    gateway: Arc<Gateway>,
    tenant: String,
    binding: Arc<Binding>,
}

impl std::fmt::Debug for GatewayGradientClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatewayGradientClient")
            .field("tenant", &self.tenant)
            .finish()
    }
}

impl GatewayGradientClient {
    /// The tenant name this client submits to.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The gateway behind this client.
    pub fn gateway(&self) -> &Arc<Gateway> {
        &self.gateway
    }

    /// Submit one gradient request with default [`SubmitOptions`]
    /// (no deadline).
    pub fn submit(
        &self,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<GatewayGradientHandle, EngineError> {
        self.submit_with(inputs, SubmitOptions::default())
    }

    /// [`GatewayGradientClient::submit`] with an explicit deadline.  Input
    /// names are validated immediately by the same rule as
    /// [`GradientEngine::run`] (a name that is not a forward array is an
    /// [`EngineError::UnknownInput`], recomputed arrays are skipped), so
    /// typos fail at the submit call, not inside the dispatcher.  A request
    /// still queued when its deadline passes resolves with
    /// [`dace_runtime::ServeError::DeadlineExceeded`] (as
    /// [`EngineError::Serve`]) without ever occupying a worker.
    pub fn submit_with(
        &self,
        inputs: &HashMap<String, Tensor>,
        opts: SubmitOptions,
    ) -> Result<GatewayGradientHandle, EngineError> {
        let binding = &self.binding;
        let mut bound = HashMap::with_capacity(inputs.len());
        for (name, tensor) in inputs {
            if binding.bound(name)? {
                bound.insert(name.clone(), tensor.clone());
            }
        }
        let fetch: Vec<&str> = std::iter::once(&binding.output)
            .chain(binding.gradients.iter().map(|(_, g)| g))
            .map(String::as_str)
            .collect();
        let inner = self
            .gateway
            .submit_with(&self.tenant, bound, &fetch, opts)?;
        Ok(GatewayGradientHandle {
            inner,
            binding: Arc::clone(binding),
        })
    }

    /// This tenant's slice of the gateway's coherent stats snapshot.
    pub fn stats(&self) -> Option<TenantStats> {
        self.gateway.stats().tenants.remove(&self.tenant)
    }
}

/// Handle to one gradient request submitted through a gateway (see
/// [`GatewayGradientClient`]).
#[derive(Debug)]
pub struct GatewayGradientHandle {
    inner: GatewayHandle,
    binding: Arc<Binding>,
}

impl GatewayGradientHandle {
    /// Monotonic id of this request (unique per gateway).
    pub fn id(&self) -> u64 {
        self.inner.id()
    }

    /// Whether a result (or rejection) is available.
    pub fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    /// Block until the request completes and take its result.
    ///
    /// Runtime failures surface as [`EngineError::Runtime`]; serving-layer
    /// rejections (deadline expiry, cancellation, shutdown, overload,
    /// panic) as [`EngineError::Serve`].
    pub fn wait(self) -> Result<ServedGradient, EngineError> {
        served_gradient(&self.binding, self.inner.wait())
    }

    /// Non-blocking poll: `Some(result)` once completed (repeatable),
    /// `None` while pending.
    pub fn try_wait(&self) -> Option<Result<ServedGradient, EngineError>> {
        self.inner
            .try_wait()
            .map(|polled| served_gradient(&self.binding, polled))
    }

    /// Bounded blocking wait (see
    /// [`dace_runtime::GatewayHandle::wait_timeout`]): `None` on timeout
    /// with the handle fully usable, `Some(result)` once completed.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<ServedGradient, EngineError>> {
        self.inner
            .wait_timeout(timeout)
            .map(|polled| served_gradient(&self.binding, polled))
    }

    /// Best-effort cancellation: succeeds only while queued.
    pub fn cancel(&self) -> bool {
        self.inner.cancel()
    }
}

/// Turn a resolved request into a [`ServedGradient`], assembled by the
/// gradient's binding like a blocking run's, or map the serving-layer error
/// (execution errors surface as [`EngineError::Runtime`], like a blocking
/// run's).
fn served_gradient(
    binding: &Binding,
    outcome: Result<ServeResponse, ServeError>,
) -> Result<ServedGradient, EngineError> {
    let mut response = match outcome {
        Ok(response) => response,
        Err(ServeError::Execution(e)) => return Err(EngineError::Runtime(e)),
        Err(other) => return Err(EngineError::Serve(other)),
    };
    Ok(ServedGradient {
        result: binding.assemble(&mut response.outputs, response.report)?,
        latency: response.latency,
        batched_with: response.batched_with,
    })
}

/// Central finite-difference gradient of `output` w.r.t. `input`, the
/// oracle the AD engine is validated against on small problem sizes.  It
/// runs the forward program alone, so it does not depend on AD succeeding.
///
/// The forward SDFG is compiled **once** and a
/// single session's tensor slab is reused for all `2 × len` evaluations.
pub fn finite_difference_gradient(
    forward: &Sdfg,
    output: &str,
    input: &str,
    symbols: &HashMap<String, i64>,
    inputs: &HashMap<String, Tensor>,
    epsilon: f64,
) -> Result<Tensor, EngineError> {
    let base = inputs
        .get(input)
        .ok_or_else(|| EngineError::UnknownInput(input.to_string()))?;
    let (binding, mut session) = Binding::forward(forward, output, symbols)?;
    let mut perturbed = inputs.clone();
    let mut grad = Tensor::zeros(base.shape());
    for flat in 0..base.len() {
        let set = |perturbed: &mut HashMap<String, Tensor>, value: f64| {
            perturbed
                .get_mut(input)
                .expect("a copy of `inputs`")
                .data_mut()[flat] = value;
        };
        let x = base.data()[flat];
        set(&mut perturbed, x + epsilon);
        let fp = binding.run(&mut session, &perturbed)?.output_value;
        set(&mut perturbed, x - epsilon);
        let fm = binding.run(&mut session, &perturbed)?.output_value;
        set(&mut perturbed, x);
        grad.data_mut()[flat] = (fp - fm) / (2.0 * epsilon);
    }
    Ok(grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CheckpointStrategy;
    use dace_frontend::{elem, ArrayExpr, ProgramBuilder};
    use dace_sdfg::SymExpr;
    use dace_tensor::random::uniform;

    fn symbols(pairs: &[(&str, i64)]) -> HashMap<String, i64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    fn check_against_fd(
        fwd: &Sdfg,
        output: &str,
        wrt: &[&str],
        symbols: &HashMap<String, i64>,
        inputs: &HashMap<String, Tensor>,
        tol: f64,
    ) {
        let mut engine =
            GradientEngine::new(fwd, output, wrt, symbols, &AdOptions::default()).unwrap();
        let result = engine.run(inputs).unwrap();
        for input in wrt {
            let ad = &result.gradients[*input];
            let fd = finite_difference_gradient(fwd, output, input, symbols, inputs, 1e-5).unwrap();
            for (a, b) in ad.data().iter().zip(fd.data().iter()) {
                assert!(
                    (a - b).abs() <= tol * (1.0 + b.abs()),
                    "gradient mismatch for {input}: ad={a} fd={b}"
                );
            }
        }
    }

    #[test]
    fn gradient_of_linear_chain() {
        // OUT = sum(3 * X)  =>  dOUT/dX = 3
        let mut b = ProgramBuilder::new("lin");
        let n = b.symbol("N");
        b.add_input("X", vec![n.clone()]).unwrap();
        b.add_transient("Y", vec![n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        b.assign("Y", ArrayExpr::a("X").mul(ArrayExpr::s(3.0)));
        b.sum_into("OUT", "Y", false);
        let fwd = b.build().unwrap();
        let mut engine = GradientEngine::new(
            &fwd,
            "OUT",
            &["X"],
            &symbols(&[("N", 5)]),
            &AdOptions::default(),
        )
        .unwrap();
        let mut inputs = HashMap::new();
        inputs.insert("X".to_string(), uniform(&[5], 1));
        let res = engine.run(&inputs).unwrap();
        for &g in res.gradients["X"].data() {
            assert!((g - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn gradient_of_nonlinear_chain_matches_fd() {
        // OUT = sum(sin(X * Y) + exp(X))
        let mut b = ProgramBuilder::new("nl");
        let n = b.symbol("N");
        b.add_input("X", vec![n.clone()]).unwrap();
        b.add_input("Y", vec![n.clone()]).unwrap();
        b.add_transient("T", vec![n.clone()]).unwrap();
        b.add_transient("U", vec![n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        b.assign("T", ArrayExpr::a("X").mul(ArrayExpr::a("Y")).sin());
        b.assign("U", ArrayExpr::a("X").exp().add(ArrayExpr::a("T")));
        b.sum_into("OUT", "U", false);
        let fwd = b.build().unwrap();
        let syms = symbols(&[("N", 6)]);
        let mut inputs = HashMap::new();
        inputs.insert("X".to_string(), uniform(&[6], 2));
        inputs.insert("Y".to_string(), uniform(&[6], 3));
        check_against_fd(&fwd, "OUT", &["X", "Y"], &syms, &inputs, 1e-4);
    }

    #[test]
    fn gradient_through_matmul() {
        // OUT = sum(A @ B)
        let mut b = ProgramBuilder::new("mm");
        let n = b.symbol("N");
        b.add_input("A", vec![n.clone(), n.clone()]).unwrap();
        b.add_input("B", vec![n.clone(), n.clone()]).unwrap();
        b.add_transient("C", vec![n.clone(), n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        b.matmul("C", "A", "B");
        b.sum_into("OUT", "C", false);
        let fwd = b.build().unwrap();
        let syms = symbols(&[("N", 4)]);
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), uniform(&[4, 4], 4));
        inputs.insert("B".to_string(), uniform(&[4, 4], 5));
        check_against_fd(&fwd, "OUT", &["A", "B"], &syms, &inputs, 1e-4);
    }

    /// Reverse mode is total over the products' operand flags (so it is
    /// closed over the flagged nodes its own adjoints are made of): every
    /// combination, on operands whose three extents differ — a wrong flag in
    /// an adjoint would not even lower — against finite differences, behind
    /// a nonlinearity so the incoming gradient is not uniform.
    #[test]
    fn gradients_through_flagged_products_match_fd() {
        use dace_sdfg::{DfNode, LibraryOp};
        let (m, k, n) = (2, 3, 4);
        let under = |rows: i64, cols: i64, transposed: bool| {
            if transposed {
                vec![cols, rows]
            } else {
                vec![rows, cols]
            }
        };
        let mut ops = vec![LibraryOp::MatVec { trans_a: true }];
        for (trans_a, trans_b) in [(false, false), (true, false), (false, true), (true, true)] {
            ops.push(LibraryOp::MatMul { trans_a, trans_b });
        }
        for op in ops {
            // (stored shape of A, of the second operand, shape of the result)
            let (a, second, out) = match op {
                LibraryOp::MatMul { trans_a, trans_b } => {
                    (under(m, k, trans_a), under(k, n, trans_b), vec![m, n])
                }
                _ => (under(m, k, true), vec![k], vec![m]),
            };
            let dims = |shape: &[i64]| shape.iter().map(|&d| SymExpr::int(d)).collect::<Vec<_>>();
            let mut b = ProgramBuilder::new("flagged");
            b.add_input("A", dims(&a)).unwrap();
            b.add_input("B", dims(&second)).unwrap();
            b.add_transient("C", dims(&out)).unwrap();
            b.add_transient("S", dims(&out)).unwrap();
            b.add_scalar("OUT").unwrap();
            match op {
                LibraryOp::MatMul { .. } => b.matmul("C", "A", "B"),
                _ => b.matvec("C", "A", "B"),
            }
            b.assign("S", ArrayExpr::a("C").sin());
            b.sum_into("OUT", "S", false);
            let mut fwd = b.build().unwrap();
            // The frontend emits the flags unset: set them on the node.
            for node in &mut fwd.states[0].graph.nodes {
                if let DfNode::Library(unflagged) = node {
                    *unflagged = op;
                }
            }
            let shape = |s: &[i64]| s.iter().map(|&d| d as usize).collect::<Vec<_>>();
            let mut inputs = HashMap::new();
            inputs.insert("A".to_string(), uniform(&shape(&a), 4));
            inputs.insert("B".to_string(), uniform(&shape(&second), 5));
            check_against_fd(&fwd, "OUT", &["A", "B"], &symbols(&[]), &inputs, 1e-6);
        }
    }

    /// The `MatVec` adjoint emits `Outer`, so reverse mode must differentiate
    /// it too: `C = P; C (+)= x ⊗ y; OUT = sum(sin(C))`, overwriting (the
    /// gradient of `P` is then zero) and accumulating, on a non-square `C`.
    #[test]
    fn gradients_through_outer_match_fd() {
        use dace_sdfg::{DataflowGraph, LibraryOp};
        let (m, n) = (3, 4);
        for accumulate in [false, true] {
            let dims = |shape: &[i64]| shape.iter().map(|&d| SymExpr::int(d)).collect::<Vec<_>>();
            let mut b = ProgramBuilder::new("outer");
            b.add_input("P", dims(&[m, n])).unwrap();
            b.add_input("x", dims(&[m])).unwrap();
            b.add_input("y", dims(&[n])).unwrap();
            b.add_transient("C", dims(&[m, n])).unwrap();
            b.add_transient("S", dims(&[m, n])).unwrap();
            b.add_scalar("OUT").unwrap();
            b.copy("C", "P");
            b.copy("C", "P");
            b.assign("S", ArrayExpr::a("C").sin());
            b.sum_into("OUT", "S", false);
            let mut fwd = b.build().unwrap();
            // The frontend has no outer product: the second copy becomes one.
            fwd.states[1].graph =
                DataflowGraph::library_call(LibraryOp::Outer, &["x", "y"], "C", accumulate);
            let wrt = ["P", "x", "y"];
            let shapes: [&[usize]; 3] = [&[3, 4], &[3], &[4]];
            let mut inputs = HashMap::new();
            for (seed, (name, shape)) in wrt.iter().zip(shapes).enumerate() {
                inputs.insert(name.to_string(), uniform(shape, 7 + seed as u64));
            }
            let mut engine =
                GradientEngine::new(&fwd, "OUT", &wrt, &symbols(&[]), &AdOptions::default())
                    .unwrap();
            let result = engine.run(&inputs).unwrap();
            assert_eq!(
                result.gradients["P"].data().iter().any(|&g| g != 0.0),
                accumulate
            );
            for input in wrt {
                let fd =
                    finite_difference_gradient(&fwd, "OUT", input, &symbols(&[]), &inputs, 1e-5)
                        .unwrap();
                let ad = &result.gradients[input];
                for (a, b) in ad.data().iter().zip(fd.data()) {
                    assert!(
                        (a - b).abs() <= 1e-6 * (1.0 + b.abs()),
                        "accumulate={accumulate} {input}: ad={a} fd={b}"
                    );
                }
            }
        }
    }

    /// `for i in 1..N: A[i] = A[i] * A[i-1]` inside `b`: non-linear in-place
    /// updates, whose adjoint needs both operands from a tape.
    fn product_loop(b: &mut ProgramBuilder, n: &SymExpr) {
        let i = SymExpr::sym("i");
        b.for_range("i", 1, n.clone(), |b| {
            b.assign_element(
                "A",
                vec![i.clone()],
                elem("A", vec![i.clone()]).mul(elem("A", vec![i.sub(&SymExpr::int(1))])),
            );
        });
    }

    /// The product loop and `OUT = sum(A)`, over 5 elements.
    fn loopchain() -> (Sdfg, HashMap<String, i64>, HashMap<String, Tensor>) {
        let mut b = ProgramBuilder::new("loopchain");
        let n = b.symbol("N");
        b.add_input("A", vec![n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        product_loop(&mut b, &n);
        b.sum_into("OUT", "A", false);
        let a = uniform(&[5], 7).add_scalar(0.5);
        let inputs = HashMap::from([("A".to_string(), a)]);
        (b.build().unwrap(), symbols(&[("N", 5)]), inputs)
    }

    #[test]
    fn gradient_through_sequential_loop_with_overwrites() {
        // Exercises tapes and gradient clearing.
        let (fwd, syms, inputs) = loopchain();
        check_against_fd(&fwd, "OUT", &["A"], &syms, &inputs, 1e-4);
    }

    /// NPBench's trmm at its test preset: the `k` loop accumulates into
    /// `B[i, j]` from `B[k, j]`, an operand later rows overwrite.
    fn trmm() -> (Sdfg, HashMap<String, i64>, HashMap<String, Tensor>) {
        let mut b = ProgramBuilder::new("trmm");
        let (m, n) = (b.symbol("M"), b.symbol("N"));
        b.add_input("A", vec![m.clone(), m.clone()]).unwrap();
        b.add_input("B", vec![m.clone(), n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        let at = |r: &str, c: &str| vec![SymExpr::sym(r), SymExpr::sym(c)];
        b.for_range("i", 0, m.clone(), |b| {
            b.for_range("j", 0, n.clone(), |b| {
                b.for_range("k", SymExpr::sym("i").add_int(1), m.clone(), |b| {
                    let term = elem("A", at("k", "i")).mul(elem("B", at("k", "j")));
                    b.accumulate_element("B", at("i", "j"), term);
                });
                let scaled = elem("B", at("i", "j")).mul(dace_frontend::lit(1.5));
                b.assign_element("B", at("i", "j"), scaled);
            });
        });
        b.sum_into("OUT", "B", false);
        let inputs = HashMap::from([
            ("A".to_string(), uniform(&[5, 5], 40)),
            ("B".to_string(), uniform(&[5, 6], 41)),
        ]);
        (b.build().unwrap(), symbols(&[("M", 5), ("N", 6)]), inputs)
    }

    /// Bits of the output and the requested gradients after one run of the
    /// engine's gradient program under `mode`.
    fn gradient_bits(
        engine: &GradientEngine,
        inputs: &HashMap<String, Tensor>,
        mode: dace_runtime::SpecMode,
    ) -> Vec<Vec<u64>> {
        let plan = engine.plan();
        let program = engine.gradient_program();
        let mut session = program.session().with_free_hints(&plan.free_hints);
        session.force_specialization(mode);
        for (name, tensor) in inputs {
            session.set_input(name, tensor.clone()).unwrap();
        }
        session.run().unwrap();
        let arrays =
            std::iter::once(&plan.output).chain(plan.inputs.iter().map(|i| &plan.gradients[i]));
        let bits = |a| session.array(a).unwrap().data().iter().map(|v| v.to_bits());
        arrays.map(|a| bits(a).collect()).collect()
    }

    /// The scalar tape store of a tasklet that is alone in its state is one
    /// more assignment and write of the cloned tasklet, not a `*_store` state
    /// in front of it: an instrumented loop body stays one state, the loop
    /// site attaches its kernel, and the kernel agrees with the VM bitwise.
    #[test]
    fn tape_stores_fold_into_the_tasklet_that_reads_the_value() {
        use dace_runtime::{MapStrategy, SpecMode};
        use dace_sdfg::DfNode;
        // (program, the stores its forward loop tasklet gains).
        let cases = [
            (loopchain(), &["store_0", "store_1"][..]),
            (trmm(), &["store_0"]),
        ];
        for ((fwd, syms, inputs), stores) in cases {
            let name = &fwd.name;
            let wrt: Vec<&str> = inputs.keys().map(String::as_str).collect();
            let engine =
                GradientEngine::new(&fwd, "OUT", &wrt, &syms, &AdOptions::default()).unwrap();
            let sdfg = &engine.plan().sdfg;
            assert_eq!(sdfg.validate(), [], "{name}");
            let stored: Vec<_> = sdfg
                .states
                .iter()
                .filter(|s| s.name.ends_with("_store"))
                .collect();
            assert!(stored.is_empty(), "{name}: {stored:?}");
            // Every loop is a site of one state that the kernel took.
            let sites = engine.gradient_program().loop_strategies();
            assert_eq!(sites.len(), 2, "{name}: the loop and its reversal");
            for site in &sites {
                assert_eq!(site.strategy, MapStrategy::Kernel, "{name}: {site:?}");
            }
            // One assignment per stored connector beside the tasklet's own,
            // each written to a tape of its own.
            let body = &sdfg.states[sites[0].state].graph;
            let tasklets = body.nodes.iter().enumerate().filter_map(|(id, n)| match n {
                DfNode::Tasklet(t) => Some((id, t)),
                _ => None,
            });
            let [(id, tasklet)] = tasklets.collect::<Vec<_>>()[..] else {
                panic!("{name}: the forward loop body holds one tasklet");
            };
            let assigned: Vec<&str> = tasklet.code[1..].iter().map(|(o, _)| o.as_str()).collect();
            assert_eq!(assigned, stores, "{name}");
            let tapes: Vec<&str> = (body.out_edges(id).iter().skip(1))
                .map(|e| e.memlet.data.as_str())
                .collect();
            assert_eq!(tapes.len(), stores.len(), "{name}");
            assert!(
                tapes.iter().all(|t| t.starts_with("fwd_store_")),
                "{name}: {tapes:?}"
            );

            check_against_fd(&fwd, "OUT", &wrt, &syms, &inputs, 1e-4);
            let vm = gradient_bits(&engine, &inputs, SpecMode::ForceOff);
            assert_eq!(
                gradient_bits(&engine, &inputs, SpecMode::Auto),
                vm,
                "{name}"
            );
        }
    }

    /// Candidates whose slices border an instrumented loop: the last `T` is
    /// produced and last read right before the product loop, whose body
    /// state now writes its tapes itself.  Recomputing a `T` re-runs its
    /// producer and nothing of the loop; the tapes live from the loop to its
    /// reversal in the model as in the run.
    #[test]
    fn recomputation_beside_an_instrumented_loop_predicts_its_peak() {
        let mut b = ProgramBuilder::new("beside_a_loop");
        let n = b.symbol("N");
        b.add_input("A", vec![n.clone()]).unwrap();
        b.add_input("X", vec![n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        let stages = [("T0", "S0", 2.0), ("T1", "S1", 3.0), ("T2", "S2", 4.0)];
        for (t, s, factor) in stages {
            b.add_transient(t, vec![n.clone()]).unwrap();
            b.add_transient(s, vec![n.clone()]).unwrap();
            b.assign(t, ArrayExpr::a("X").mul(ArrayExpr::s(factor)));
            b.assign(s, ArrayExpr::a(t).sin());
        }
        product_loop(&mut b, &n);
        b.sum_into("OUT", "A", false);
        for (_, s, _) in stages {
            b.sum_into("OUT", s, true);
        }
        let fwd = b.build().unwrap();
        let syms = symbols(&[("N", 64)]);
        let inputs = HashMap::from([
            ("A".to_string(), uniform(&[64], 7).add_scalar(0.5)),
            ("X".to_string(), uniform(&[64], 8)),
        ]);
        let run = |strategy: CheckpointStrategy| {
            let options = AdOptions { strategy };
            let mut engine =
                GradientEngine::new(&fwd, "OUT", &["A", "X"], &syms, &options).unwrap();
            let result = engine.run(&inputs).unwrap();
            let report = engine.plan().ilp_report.clone().unwrap();
            assert_eq!(report.predicted_peak_bytes, result.report.peak_bytes);
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let gradients: Vec<_> = result.gradients.values().map(bits).collect();
            (gradients, report, engine)
        };
        let (store_all, stored, _) = run(CheckpointStrategy::StoreAll);
        let (recomputed, report, engine) = run(CheckpointStrategy::RecomputeAll);
        assert_eq!(report.recomputed.len(), 3, "{:?}", report.stored);
        assert_eq!(recomputed, store_all);
        assert!(report.predicted_peak_bytes < stored.predicted_peak_bytes);
        // The slices are the producers alone: no recompute state writes a tape.
        let sdfg = &engine.plan().sdfg;
        let slices = sdfg
            .states
            .iter()
            .filter(|s| s.name.starts_with("recompute_"));
        let mut written: Vec<String> = slices.flat_map(|s| s.graph.written_arrays()).collect();
        written.sort();
        assert_eq!(written, ["T0", "T1", "T2"]);
        // A limit one array below the store-all peak: the ILP recomputes too.
        let limit = stored.predicted_peak_bytes - 64 * 8;
        let (under_limit, report, _) = run(CheckpointStrategy::Ilp {
            memory_limit_bytes: limit,
        });
        assert!(report.feasible && report.predicted_peak_bytes <= limit);
        assert!(!report.recomputed.is_empty());
        assert_eq!(under_limit, store_all);
    }

    #[test]
    fn gradient_through_linear_stencil_loop() {
        // Seidel-style in-place linear stencil.
        let mut b = ProgramBuilder::new("stencil1d");
        let n = b.symbol("N");
        let t = b.symbol("T");
        b.add_input("A", vec![n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        let i = SymExpr::sym("i");
        b.for_range("t", 0, t.clone(), |b| {
            b.for_range("i", 1, n.sub(&SymExpr::int(1)), |b| {
                b.assign_element(
                    "A",
                    vec![i.clone()],
                    elem("A", vec![i.sub(&SymExpr::int(1))])
                        .add(elem("A", vec![i.clone()]))
                        .add(elem("A", vec![i.add_int(1)]))
                        .div(lit_3()),
                );
            });
        });
        b.sum_into("OUT", "A", false);
        let fwd = b.build().unwrap();
        let syms = symbols(&[("N", 6), ("T", 2)]);
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), uniform(&[6], 11));
        check_against_fd(&fwd, "OUT", &["A"], &syms, &inputs, 1e-4);
    }

    fn lit_3() -> dace_frontend::ElemExpr {
        dace_frontend::lit(3.0)
    }

    #[test]
    fn gradient_with_branches_matches_fd() {
        use dace_sdfg::{CmpOp, CondExpr, CondOperand};
        // if P[0] > 0: Y = X*X else: Y = 2*X ; OUT = sum(Y)
        let build = || {
            let mut b = ProgramBuilder::new("branchy");
            let n = b.symbol("N");
            b.add_input("X", vec![n.clone()]).unwrap();
            b.add_input("P", vec![SymExpr::int(1)]).unwrap();
            b.add_transient("Y", vec![n.clone()]).unwrap();
            b.add_scalar("OUT").unwrap();
            b.branch(
                CondExpr::Cmp {
                    lhs: CondOperand::Element {
                        array: "P".into(),
                        index: vec![SymExpr::int(0)],
                    },
                    op: CmpOp::Gt,
                    rhs: CondOperand::Const(0.0),
                },
                |b| b.assign("Y", ArrayExpr::a("X").mul(ArrayExpr::a("X"))),
                Some(Box::new(|b: &mut ProgramBuilder| {
                    b.assign("Y", ArrayExpr::a("X").mul(ArrayExpr::s(2.0)))
                })),
            );
            b.sum_into("OUT", "Y", false);
            b.build().unwrap()
        };
        let fwd = build();
        let syms = symbols(&[("N", 4)]);
        for p in [1.0, -1.0] {
            let mut inputs = HashMap::new();
            inputs.insert("X".to_string(), uniform(&[4], 13));
            inputs.insert("P".to_string(), Tensor::from_vec(vec![p], &[1]).unwrap());
            check_against_fd(&fwd, "OUT", &["X"], &syms, &inputs, 1e-4);
        }
    }

    #[test]
    fn recompute_strategy_preserves_gradients_and_lowers_memory() {
        let fwd = crate::checkpoint::tests::listing1();
        let syms = symbols(&[("N", 16)]);
        let mut inputs = HashMap::new();
        inputs.insert("C".to_string(), uniform(&[16, 16], 21));
        inputs.insert("D".to_string(), uniform(&[16, 16], 22));

        let mut store =
            GradientEngine::new(&fwd, "OUT", &["C", "D"], &syms, &AdOptions::default()).unwrap();
        let store_res = store.run(&inputs).unwrap();

        let mut recompute = GradientEngine::new(
            &fwd,
            "OUT",
            &["C", "D"],
            &syms,
            &AdOptions {
                strategy: CheckpointStrategy::RecomputeAll,
            },
        )
        .unwrap();
        let rec_res = recompute.run(&inputs).unwrap();

        for k in ["C", "D"] {
            assert!(
                dace_tensor::allclose(&store_res.gradients[k], &rec_res.gradients[k], 1e-8, 1e-10),
                "gradients must not change with the checkpointing strategy ({k})"
            );
        }
        assert!(
            rec_res.report.peak_bytes < store_res.report.peak_bytes,
            "recompute-all should lower the measured peak memory ({} vs {})",
            rec_res.report.peak_bytes,
            store_res.report.peak_bytes
        );
    }

    #[test]
    fn unknown_input_is_a_typed_error() {
        let mut b = ProgramBuilder::new("typo");
        let n = b.symbol("N");
        b.add_input("X", vec![n.clone()]).unwrap();
        b.add_transient("Y", vec![n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        b.assign("Y", ArrayExpr::a("X").mul(ArrayExpr::s(2.0)));
        b.sum_into("OUT", "Y", false);
        let fwd = b.build().unwrap();
        let syms = symbols(&[("N", 4)]);
        let mut engine =
            GradientEngine::new(&fwd, "OUT", &["X"], &syms, &AdOptions::default()).unwrap();
        let mut inputs = HashMap::new();
        inputs.insert("X".to_string(), uniform(&[4], 1));
        inputs.insert("Xtypo".to_string(), uniform(&[4], 1));
        match engine.run(&inputs) {
            Err(EngineError::UnknownInput(name)) => assert_eq!(name, "Xtypo"),
            other => panic!("expected UnknownInput, got {other:?}"),
        }
        // The forward run and the oracle validate the same way.
        match engine.run_forward(&inputs) {
            Err(EngineError::UnknownInput(name)) => assert_eq!(name, "Xtypo"),
            other => panic!("expected UnknownInput, got {other:?}"),
        }
        match finite_difference_gradient(&fwd, "OUT", "X", &syms, &inputs, 1e-6) {
            Err(EngineError::UnknownInput(name)) => assert_eq!(name, "Xtypo"),
            other => panic!("expected UnknownInput, got {other:?}"),
        }
        inputs.remove("Xtypo");
        assert!(engine.run(&inputs).is_ok());
    }

    #[test]
    fn missing_and_nonscalar_outputs_are_typed_errors() {
        let mut b = ProgramBuilder::new("vecout");
        let n = b.symbol("N");
        b.add_input("X", vec![n.clone()]).unwrap();
        b.add_input("Y", vec![n.clone()]).unwrap();
        b.assign("Y", ArrayExpr::a("X").mul(ArrayExpr::s(2.0)));
        let fwd = b.build().unwrap();
        let syms = symbols(&[("N", 4)]);
        let mut inputs = HashMap::new();
        inputs.insert("X".to_string(), uniform(&[4], 1));
        // Y exists but is a length-4 vector, not a scalar output.
        match finite_difference_gradient(&fwd, "Y", "X", &syms, &inputs, 1e-6) {
            Err(EngineError::NonScalarOutput { name, shape }) => {
                assert_eq!(name, "Y");
                assert_eq!(shape, vec![4]);
            }
            other => panic!("expected NonScalarOutput, got {other:?}"),
        }
        // NOPE is not an array at all.
        match finite_difference_gradient(&fwd, "NOPE", "X", &syms, &inputs, 1e-6) {
            Err(EngineError::MissingOutput(name)) => assert_eq!(name, "NOPE"),
            other => panic!("expected MissingOutput, got {other:?}"),
        }
    }

    /// `OUT = sum(X * X)` through the transient `T`, at `X = [1, 2, 3]`.
    fn squares() -> (Sdfg, HashMap<String, Tensor>) {
        let mut b = ProgramBuilder::new("squares");
        let n = b.symbol("N");
        b.add_input("X", vec![n.clone()]).unwrap();
        b.add_transient("T", vec![n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        b.assign("T", ArrayExpr::a("X").mul(ArrayExpr::a("X")));
        b.sum_into("OUT", "T", false);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        (b.build().unwrap(), HashMap::from([("X".to_string(), x)]))
    }

    /// `inputs` plus `name` at the shape the gradient program gives it,
    /// filled with 100.
    fn with_extra(
        engine: &GradientEngine,
        inputs: &HashMap<String, Tensor>,
        name: &str,
    ) -> HashMap<String, Tensor> {
        let mut session = engine.gradient_program().session();
        for (input, tensor) in inputs {
            session.set_input(input, tensor.clone()).unwrap();
        }
        session.run().unwrap();
        let shape = session.array(name).unwrap().shape();
        let mut extra = inputs.clone();
        extra.insert(name.to_string(), Tensor::zeros(shape).add_scalar(100.0));
        extra
    }

    /// The adjoint's own containers are not inputs of a gradient run: a
    /// requested input's gradient and every tape or flag container are
    /// rejected by `run`, by `run_batch` and at submit on the private and
    /// on a shared gateway.  A forward transient is still skipped.
    #[test]
    fn adjoint_containers_are_not_inputs() {
        let shared = Arc::new(Gateway::new(GatewayOptions::default()));
        let (sq, sq_inputs) = squares();
        let (chain, chain_syms, chain_inputs) = loopchain();
        let cases = [
            (sq, symbols(&[("N", 3)]), sq_inputs, "X"),
            (chain, chain_syms, chain_inputs, "A"),
        ];
        for (fwd, syms, inputs, wrt) in cases {
            let mut engine =
                GradientEngine::new(&fwd, "OUT", &[wrt], &syms, &AdOptions::default()).unwrap();
            let server = engine.serve();
            let client = engine
                .register_with(&shared, &fwd.name, TenantConfig::default())
                .unwrap();
            let plan = engine.plan().clone();
            let adjoint = std::iter::once(&plan.gradients[wrt]).chain(&plan.stored);
            let mut rejected = 0;
            for name in adjoint {
                let bad = with_extra(&engine, &inputs, name);
                let outcomes = [
                    ("run", engine.run(&bad).err()),
                    (
                        "run_batch",
                        engine.run_batch(&[inputs.clone(), bad.clone()]).err(),
                    ),
                    ("serve", server.submit(&bad).err()),
                    ("shared", client.submit(&bad).err()),
                ];
                for (path, outcome) in outcomes {
                    match outcome {
                        Some(EngineError::UnknownInput(n)) if &n == name => rejected += 1,
                        other => panic!("{}: {path} bound `{name}`: {other:?}", fwd.name),
                    }
                }
            }
            assert_eq!(rejected, 4 * (1 + plan.stored.len()), "{}", fwd.name);
            assert_eq!(
                plan.stored.is_empty(),
                wrt == "X",
                "only the loop has tapes"
            );
        }

        // A forward transient is accepted and skipped on every path.
        let (fwd, inputs) = squares();
        let syms = symbols(&[("N", 3)]);
        let mut engine =
            GradientEngine::new(&fwd, "OUT", &["X"], &syms, &AdOptions::default()).unwrap();
        let with_t = with_extra(&engine, &inputs, "T");
        let client = engine
            .register_with(&shared, "squares_t", TenantConfig::default())
            .unwrap();
        let served = [
            engine
                .serve()
                .submit(&with_t)
                .unwrap()
                .wait()
                .unwrap()
                .result,
            client.submit(&with_t).unwrap().wait().unwrap().result,
        ];
        let batch = engine
            .run_batch(std::slice::from_ref(&with_t))
            .unwrap()
            .items;
        let ran = engine.run(&with_t).unwrap();
        for result in served.iter().chain(&batch).chain([&ran]) {
            assert_eq!(result.gradients["X"].data(), &[2.0, 4.0, 6.0]);
            assert_eq!(result.output_value, 14.0);
        }
    }
}
