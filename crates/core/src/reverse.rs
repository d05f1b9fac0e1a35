//! Backward-pass generation: CCS-driven reversal of SDFG elements.
//!
//! The entry point is [`generate_backward`], which produces a single
//! *gradient SDFG*: the (augmented) forward program followed by the backward
//! program, plus the bookkeeping the checkpointing pass and the gradient
//! engine need (gradient container names, tape containers, free hints and
//! store/recompute candidates).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use dace_sdfg::{
    compute_ccs, ArrayDesc, BranchRegion, CcsInfo, CondExpr, ControlFlow, DataflowGraph, DfNode,
    LibraryOp, LoopRegion, MapScope, Memlet, NodeId, ScalarExpr, Sdfg, Severity, State, SymExpr,
    Tasklet,
};

use crate::checkpoint::{CheckpointReport, RecomputeCandidate};
use crate::fold::fold_transposes;

/// Errors raised during backward-pass generation.
#[derive(Clone, Debug, PartialEq)]
pub enum AdError {
    /// The dependent output array does not exist.
    UnknownOutput(String),
    /// The dependent output is not a scalar (`[1]`-shaped) container.
    NonScalarOutput(String),
    /// A requested independent variable does not exist.
    UnknownInput(String),
    /// A construct is outside the supported loop/graph taxonomy (Fig. 5).
    Unsupported(String),
    /// The underlying SDFG is malformed.
    Malformed(String),
}

impl fmt::Display for AdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdError::UnknownOutput(s) => write!(f, "unknown output array `{s}`"),
            AdError::NonScalarOutput(s) => write!(
                f,
                "output `{s}` must be a [1]-shaped container (add a sum reduction)"
            ),
            AdError::UnknownInput(s) => write!(f, "unknown input array `{s}`"),
            AdError::Unsupported(s) => write!(f, "unsupported construct for AD: {s}"),
            AdError::Malformed(s) => write!(f, "malformed SDFG: {s}"),
        }
    }
}

impl std::error::Error for AdError {}

/// The generated gradient program and its metadata.
#[derive(Clone, Debug)]
pub struct BackwardPlan {
    /// The combined gradient SDFG: augmented forward followed by backward.
    pub sdfg: Sdfg,
    /// Map from original array name to its gradient container name.
    pub gradients: BTreeMap<String, String>,
    /// The dependent output array.
    pub output: String,
    /// The independent inputs the caller asked gradients for.
    pub inputs: Vec<String>,
    /// Tape / stored-copy containers added to forward values to the backward
    /// pass.
    pub stored: Vec<String>,
    /// Containers chosen for recomputation by the checkpointing pass.
    pub recomputed: Vec<String>,
    /// Per-state free hints (state id in `sdfg` → containers to free after).
    pub free_hints: HashMap<usize, Vec<String>>,
    /// Arrays that contribute to the output (the CCS array set).
    pub ccs_arrays: BTreeSet<String>,
    /// Store/recompute candidates for the checkpointing pass.
    pub candidates: Vec<RecomputeCandidate>,
    /// Index into the top-level sequence of `sdfg.cfg` where the backward
    /// half begins (the gradient-seed state).
    pub backward_start_index: usize,
    /// Report of the ILP checkpointing pass, if it ran.
    pub ilp_report: Option<CheckpointReport>,
}

impl BackwardPlan {
    /// The gradient container of an array, if it exists.
    pub fn gradient_of(&self, array: &str) -> Option<&str> {
        self.gradients.get(array).map(|s| s.as_str())
    }
}

/// Generate the backward pass for `output` with respect to `inputs`.
///
/// Reverse mode runs on `fwd` after the pre-AD pass `fold_transposes`: a
/// transpose `B = Aᵀ` that only products read is folded into their operand
/// flags, so the plan has no `B`, no `grad_B` and no transpose adjoint.
///
/// The returned plan uses the store-all strategy; apply
/// [`crate::checkpoint::apply_strategy`] (or use [`crate::GradientEngine`])
/// to change the store/recompute configuration.
pub fn generate_backward(
    fwd: &Sdfg,
    output: &str,
    inputs: &[&str],
) -> Result<BackwardPlan, AdError> {
    let out_desc = fwd
        .arrays
        .get(output)
        .ok_or_else(|| AdError::UnknownOutput(output.to_string()))?;
    let is_scalar = out_desc.shape.len() == 1 && out_desc.shape[0].simplified().is_const(1);
    if !is_scalar {
        return Err(AdError::NonScalarOutput(output.to_string()));
    }
    for input in inputs {
        if !fwd.arrays.contains_key(*input) {
            return Err(AdError::UnknownInput((*input).to_string()));
        }
    }

    let folded = fold_transposes(fwd, output, inputs);
    let fwd: &Sdfg = &folded;
    let ccs = compute_ccs(fwd, output, inputs);
    let mut ctx = Ctx::new(fwd, ccs, output, inputs);
    let (fwd_cf, bwd_cf) = ctx.reverse_cf(&fwd.cfg)?;

    // Seed the output gradient with 1.0.
    let grad_out = ctx.grads.get(output).cloned().ok_or_else(|| {
        AdError::Malformed(format!("output `{output}` has no gradient container"))
    })?;
    let mut seed_graph = DataflowGraph::new();
    let t = seed_graph.add_tasklet(Tasklet::new("seed", "out", ScalarExpr::Const(1.0)));
    let acc = seed_graph.add_access(&grad_out);
    seed_graph.add_edge(
        t,
        Some("out"),
        acc,
        None,
        Memlet::element(&grad_out, vec![SymExpr::int(0)]),
    );
    let seed_id = ctx.out.add_state(State {
        name: "grad_seed".to_string(),
        graph: seed_graph,
    });

    let mut top: Vec<ControlFlow> = flatten(fwd_cf);
    let backward_start_index = top.len();
    top.push(ControlFlow::State(seed_id));
    top.extend(flatten(bwd_cf));
    ctx.out.cfg = ControlFlow::Sequence(top);
    if let Some(d) = ctx
        .out
        .validate()
        .into_iter()
        .find(|d| d.severity == Severity::Error)
    {
        return Err(AdError::Malformed(d.message));
    }

    Ok(BackwardPlan {
        sdfg: ctx.out,
        gradients: ctx.grads,
        output: output.to_string(),
        inputs: inputs.iter().map(|s| s.to_string()).collect(),
        stored: ctx.stored,
        recomputed: Vec::new(),
        free_hints: HashMap::new(),
        ccs_arrays: ctx.ccs.contributing_arrays.clone(),
        candidates: ctx.candidates,
        backward_start_index,
        ilp_report: None,
    })
}

fn flatten(cf: ControlFlow) -> Vec<ControlFlow> {
    match cf {
        ControlFlow::Sequence(v) => v,
        other => vec![other],
    }
}

/// Where a tasklet under reversal lives, which decides how the forward
/// values its adjoint needs reach the backward pass when they cannot be read
/// in place.
#[derive(Clone, Copy)]
enum TaskletSite {
    /// In a map body: whole-array copies, so that the per-point index
    /// expressions keep working.
    MapBody,
    /// The one compute node of a state, cloned as this state of the gradient
    /// program: scalar tape stores are folded into the clone's tasklet.
    Alone(usize),
    /// Beside other compute nodes of its state: a scalar tape-store state in
    /// front of the clone.
    Among,
}

/// Context of an enclosing sequential loop during reversal (used for tape
/// shapes and indices).
#[derive(Clone, Debug)]
struct LoopCtx {
    var: String,
    start: SymExpr,
    trips: SymExpr,
    step: i64,
}

impl LoopCtx {
    /// The tape index expression for the current iteration.
    fn offset(&self) -> SymExpr {
        if self.step > 0 {
            SymExpr::sym(&self.var).sub(&self.start)
        } else {
            self.start.sub(&SymExpr::sym(&self.var))
        }
    }
}

struct Ctx<'a> {
    fwd: &'a Sdfg,
    ccs: CcsInfo,
    out: Sdfg,
    grads: BTreeMap<String, String>,
    stored: Vec<String>,
    candidates: Vec<RecomputeCandidate>,
    loop_stack: Vec<LoopCtx>,
    counter: usize,
    /// linear position of each state id in forward execution order
    state_pos: HashMap<usize, usize>,
    /// positions of states writing each array
    write_pos: BTreeMap<String, Vec<usize>>,
    /// arrays written inside some loop body
    written_in_loop: BTreeSet<String>,
}

impl<'a> Ctx<'a> {
    fn new(fwd: &'a Sdfg, ccs: CcsInfo, output: &str, inputs: &[&str]) -> Self {
        let mut out = Sdfg::new(format!("{}_grad", fwd.name));
        for s in &fwd.symbols {
            out.add_symbol(s.clone());
        }
        for (name, desc) in &fwd.arrays {
            out.add_array(name.clone(), desc.clone())
                .expect("fresh sdfg");
        }
        // Gradient containers for every contributing array.  Only the
        // gradients the caller asked for (and the seed) are program outputs;
        // the rest are transients whose lifetime ends inside the backward
        // pass, which is what lets the memory tracker observe the effect of
        // store/recompute decisions.
        let mut grads = BTreeMap::new();
        for array in &ccs.contributing_arrays {
            let desc = &fwd.arrays[array];
            let gname = out.fresh_name(&format!("grad_{array}"));
            let keep = array == output || inputs.contains(&array.as_str());
            out.add_array(
                gname.clone(),
                ArrayDesc {
                    shape: desc.shape.clone(),
                    dtype: desc.dtype,
                    transient: !keep,
                },
            )
            .expect("fresh gradient name");
            grads.insert(array.clone(), gname);
        }

        // Write positions / loop-write info.
        let order = fwd.cfg.states_in_order();
        let state_pos: HashMap<usize, usize> =
            order.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        let mut write_pos: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut written_in_loop: BTreeSet<String> = BTreeSet::new();
        collect_write_info(
            fwd,
            &fwd.cfg,
            0,
            &state_pos,
            &mut write_pos,
            &mut written_in_loop,
        );

        Ctx {
            fwd,
            ccs,
            out,
            grads,
            stored: Vec::new(),
            candidates: Vec::new(),
            loop_stack: Vec::new(),
            counter: 0,
            state_pos,
            write_pos,
            written_in_loop,
        }
    }

    fn fresh(&mut self, base: &str) -> String {
        let name = self.out.fresh_name(&format!("{base}_{}", self.counter));
        self.counter += 1;
        name
    }

    fn grad(&self, array: &str) -> Option<String> {
        self.grads.get(array).cloned()
    }

    /// A loop-invariant upper bound of `expr`: every enclosing loop iterator
    /// is substituted by both of its range endpoints and the maximum is
    /// taken (affine expressions are monotonic in each iterator).  Used for
    /// tape shapes, which must not reference loop iterators — triangular
    /// loop nests (trmm, symm, ...) get a rectangular over-allocation.
    fn invariant_bound(&self, expr: &SymExpr) -> SymExpr {
        let mut bound = expr.clone();
        for l in &self.loop_stack {
            if !bound.references(&l.var) {
                continue;
            }
            let at_start = bound.substitute(&l.var, &l.start);
            let at_end = bound.substitute(&l.var, &l.start.add(&l.trips));
            bound = SymExpr::Max(Box::new(at_start), Box::new(at_end)).simplified();
        }
        SymExpr::Max(Box::new(bound), Box::new(SymExpr::int(0))).simplified()
    }

    /// Can the backward pass read `array` directly and observe the value the
    /// forward pass read in the state at `reading_pos`?
    fn is_safe_read(&self, array: &str, reading_pos: usize) -> bool {
        let Some(writes) = self.write_pos.get(array) else {
            return true;
        };
        if writes.is_empty() {
            return true;
        }
        if self.written_in_loop.contains(array) {
            return false;
        }
        if writes.len() > 1 {
            return false;
        }
        writes[0] < reading_pos
    }

    // --------------------------------------------------------------------
    // control-flow reversal
    // --------------------------------------------------------------------

    fn reverse_cf(&mut self, cf: &ControlFlow) -> Result<(ControlFlow, ControlFlow), AdError> {
        match cf {
            ControlFlow::State(id) => self.reverse_state(*id),
            ControlFlow::Sequence(children) => {
                let mut fwd_items = Vec::new();
                let mut bwd_items = Vec::new();
                for c in children {
                    let (f, b) = self.reverse_cf(c)?;
                    fwd_items.push(f);
                    bwd_items.push(b);
                }
                bwd_items.reverse();
                Ok((
                    ControlFlow::Sequence(fwd_items),
                    ControlFlow::Sequence(bwd_items),
                ))
            }
            ControlFlow::Loop(l) => {
                let step = l
                    .step
                    .eval_const()
                    .map_err(|_| AdError::Unsupported("loop step must be a constant".into()))?;
                if step != 1 && step != -1 {
                    return Err(AdError::Unsupported(format!(
                        "loop step {step} (only ±1 is supported for AD)"
                    )));
                }
                let trips = if step > 0 {
                    SymExpr::Max(Box::new(l.end.sub(&l.start)), Box::new(SymExpr::int(0)))
                        .simplified()
                } else {
                    SymExpr::Max(Box::new(l.start.sub(&l.end)), Box::new(SymExpr::int(0)))
                        .simplified()
                };
                self.loop_stack.push(LoopCtx {
                    var: l.var.clone(),
                    start: l.start.clone(),
                    trips,
                    step,
                });
                let (fwd_body, bwd_body) = self.reverse_cf(&l.body)?;
                self.loop_stack.pop();

                let fwd_loop = ControlFlow::Loop(LoopRegion {
                    var: l.var.clone(),
                    start: l.start.clone(),
                    end: l.end.clone(),
                    step: l.step.clone(),
                    body: Box::new(fwd_body),
                });
                // Reverse the iteration order: for step +1, iterate from
                // end-1 down to start; for step -1, from end+1 up to start.
                let bwd_loop = if step > 0 {
                    ControlFlow::Loop(LoopRegion {
                        var: l.var.clone(),
                        start: l.end.sub(&SymExpr::int(1)),
                        end: l.start.sub(&SymExpr::int(1)),
                        step: SymExpr::int(-1),
                        body: Box::new(bwd_body),
                    })
                } else {
                    ControlFlow::Loop(LoopRegion {
                        var: l.var.clone(),
                        start: l.end.add_int(1),
                        end: l.start.add_int(1),
                        step: SymExpr::int(1),
                        body: Box::new(bwd_body),
                    })
                };
                Ok((fwd_loop, bwd_loop))
            }
            ControlFlow::Branch(b) => {
                // Store the evaluated condition in a [1]-shaped flag container
                // so the backward pass replays the same decision (Fig. 3).
                let flag = self.fresh("stored_cond");
                self.out
                    .add_array(flag.clone(), ArrayDesc::transient(vec![SymExpr::int(1)]))
                    .map_err(|e| AdError::Malformed(e.to_string()))?;
                self.stored.push(flag.clone());
                let set_flag = |ctx: &mut Ctx, value: f64| -> usize {
                    let mut g = DataflowGraph::new();
                    let t =
                        g.add_tasklet(Tasklet::new("store_cond", "out", ScalarExpr::Const(value)));
                    let a = g.add_access(&flag);
                    g.add_edge(
                        t,
                        Some("out"),
                        a,
                        None,
                        Memlet::element(&flag, vec![SymExpr::int(0)]),
                    );
                    ctx.out.add_state(State {
                        name: format!("{flag}_set"),
                        graph: g,
                    })
                };
                let set_true = set_flag(self, 1.0);
                let set_false = set_flag(self, 0.0);
                let store_branch = ControlFlow::Branch(BranchRegion {
                    cond: b.cond.clone(),
                    then_body: Box::new(ControlFlow::State(set_true)),
                    else_body: Some(Box::new(ControlFlow::State(set_false))),
                });

                let (fwd_then, bwd_then) = self.reverse_cf(&b.then_body)?;
                let (fwd_else, bwd_else) = match &b.else_body {
                    Some(e) => {
                        let (f, bk) = self.reverse_cf(e)?;
                        (Some(f), Some(bk))
                    }
                    None => (None, None),
                };
                let fwd_branch = ControlFlow::Branch(BranchRegion {
                    cond: b.cond.clone(),
                    then_body: Box::new(fwd_then),
                    else_body: fwd_else.map(Box::new),
                });
                let bwd_branch = ControlFlow::Branch(BranchRegion {
                    cond: CondExpr::StoredFlag(flag.clone()),
                    then_body: Box::new(bwd_then),
                    else_body: bwd_else.map(Box::new),
                });
                Ok((
                    ControlFlow::Sequence(vec![store_branch, fwd_branch]),
                    bwd_branch,
                ))
            }
        }
    }

    // --------------------------------------------------------------------
    // state reversal
    // --------------------------------------------------------------------

    fn reverse_state(&mut self, sid: usize) -> Result<(ControlFlow, ControlFlow), AdError> {
        let state = &self.fwd.states[sid];
        let graph = state.graph.clone();
        let pos = *self.state_pos.get(&sid).unwrap_or(&usize::MAX);
        let marked = self.ccs.nodes_of(sid);

        let cloned_id = self.out.add_state(State {
            name: state.name.clone(),
            graph: graph.clone(),
        });

        if marked.is_empty() {
            return Ok((
                ControlFlow::State(cloned_id),
                ControlFlow::Sequence(Vec::new()),
            ));
        }

        let order = graph
            .topological_order()
            .ok_or_else(|| AdError::Malformed(format!("cyclic state `{}`", state.name)))?;

        let mut tape_states: Vec<ControlFlow> = Vec::new();
        let mut adjoint_states: Vec<ControlFlow> = Vec::new();
        let computes = graph
            .nodes
            .iter()
            .filter(|n| !matches!(n, DfNode::Access(_)));
        let alone = computes.count() == 1;

        for &node in order.iter().rev() {
            if !marked.contains(&node) {
                continue;
            }
            match &graph.nodes[node] {
                DfNode::Access(_) => {}
                DfNode::Tasklet(t) => {
                    let site = if alone {
                        TaskletSite::Alone(cloned_id)
                    } else {
                        TaskletSite::Among
                    };
                    let (tapes, adjoint) = self.reverse_tasklet(&graph, node, t, pos, site)?;
                    tape_states.extend(tapes);
                    if let Some(adjoint) = adjoint {
                        let sid = self.out.add_state(State {
                            name: format!("adj_{}_{}", state.name, self.counter),
                            graph: adjoint,
                        });
                        self.counter += 1;
                        adjoint_states.push(ControlFlow::State(sid));
                    }
                }
                DfNode::MapScope(m) => {
                    let (tapes, adjoints) = self.reverse_map(m, pos, &state.name)?;
                    tape_states.extend(tapes);
                    adjoint_states.extend(adjoints);
                }
                DfNode::Library(op) => {
                    let (tapes, adjoints) =
                        self.reverse_library(&graph, node, op, pos, &state.name)?;
                    tape_states.extend(tapes);
                    adjoint_states.extend(adjoints);
                }
            }
        }

        let mut fwd_items = tape_states;
        fwd_items.push(ControlFlow::State(cloned_id));
        Ok((
            ControlFlow::Sequence(fwd_items),
            ControlFlow::Sequence(adjoint_states),
        ))
    }

    /// Decide how the backward pass obtains the forward value of a scalar
    /// element read `array[idx]` that happens in a state at position `pos`:
    /// either directly (safe) or through a per-iteration tape.
    ///
    /// Returns the memlet the backward pass should read, and optionally the
    /// tape-store state to insert in the forward pass.  With `fold = (state,
    /// node, connector)` — the read feeds `connector` of the tasklet `node`,
    /// the one compute node of the cloned forward `state` — the store is
    /// instead one more assignment and out-edge of that tasklet, `store_k =
    /// connector` → `tape[offsets]`: a tasklet's reads precede its writes, so
    /// the connector holds exactly the value the adjoint needs, and an
    /// instrumented loop body stays the single state the loop site attaches
    /// to.
    fn forward_scalar_value(
        &mut self,
        array: &str,
        idx: &[SymExpr],
        pos: usize,
        fold: Option<(usize, NodeId, &str)>,
    ) -> Result<(Memlet, Option<ControlFlow>), AdError> {
        if self.is_safe_read(array, pos) {
            self.note_candidate(array);
            return Ok((Memlet::element(array, idx.to_vec()), None));
        }
        // Tape: one scalar per enclosing loop iteration.
        let tape = self.fresh("fwd_store");
        let mut shape: Vec<SymExpr> = self
            .loop_stack
            .iter()
            .map(|l| l.trips.clone())
            .collect::<Vec<_>>()
            .iter()
            .map(|t| self.invariant_bound(t))
            .collect();
        if shape.is_empty() {
            shape.push(SymExpr::int(1));
        }
        self.out
            .add_array(tape.clone(), ArrayDesc::transient(shape))
            .map_err(|e| AdError::Malformed(e.to_string()))?;
        self.stored.push(tape.clone());
        let mut tape_idx: Vec<SymExpr> = self.loop_stack.iter().map(|l| l.offset()).collect();
        if tape_idx.is_empty() {
            tape_idx.push(SymExpr::int(0));
        }
        let stored = Memlet::element(&tape, tape_idx);
        if let Some((state, node, conn)) = fold {
            let g = &mut self.out.states[state].graph;
            let DfNode::Tasklet(t) = &mut g.nodes[node] else {
                unreachable!("the clone holds the tasklet under reversal at its node id")
            };
            let taken = t.output_connectors();
            let out = (t.code.len() - 1..)
                .map(|k| format!("store_{k}"))
                .find(|name| !taken.contains(name))
                .expect("an unbounded range of names");
            t.code.push((out.clone(), ScalarExpr::input(conn)));
            let dst = g.add_access(&tape);
            g.add_edge(node, Some(&out), dst, None, stored.clone());
            return Ok((stored, None));
        }
        // Store state: tape[offsets] = array[idx]
        let mut g = DataflowGraph::new();
        let src = g.add_access(array);
        let t = g.add_tasklet(Tasklet::new("store", "out", ScalarExpr::input("v")));
        let dst = g.add_access(&tape);
        g.add_edge(
            src,
            None,
            t,
            Some("v"),
            Memlet::element(array, idx.to_vec()),
        );
        g.add_edge(t, Some("out"), dst, None, stored.clone());
        let sid = self.out.add_state(State {
            name: format!("{tape}_store"),
            graph: g,
        });
        Ok((stored, Some(ControlFlow::State(sid))))
    }

    /// Decide how the backward pass obtains the forward value of a whole
    /// array read in a map body or library node at position `pos`.  Returns
    /// the container name holding the value (`array` itself when safe, or a
    /// stored copy), the leading tape index expressions to prepend to element
    /// accesses, and optionally the copy state to insert in the forward pass.
    fn forward_array_value(
        &mut self,
        array: &str,
        pos: usize,
    ) -> Result<(String, Vec<SymExpr>, Option<ControlFlow>), AdError> {
        if self.is_safe_read(array, pos) {
            self.note_candidate(array);
            return Ok((array.to_string(), Vec::new(), None));
        }
        let desc = self.fwd.arrays[array].clone();
        let tape = self.fresh(&format!("stored_{array}"));
        let trips: Vec<SymExpr> = self.loop_stack.iter().map(|l| l.trips.clone()).collect();
        let lead: Vec<SymExpr> = trips.iter().map(|t| self.invariant_bound(t)).collect();
        let mut shape = lead.clone();
        shape.extend(desc.shape.clone());
        self.out
            .add_array(tape.clone(), ArrayDesc::transient(shape))
            .map_err(|e| AdError::Malformed(e.to_string()))?;
        self.stored.push(tape.clone());
        let offsets: Vec<SymExpr> = self.loop_stack.iter().map(|l| l.offset()).collect();

        // Copy state: map over the array dims, tape[offsets..., q...] = array[q...]
        let params: Vec<String> = (0..desc.shape.len()).map(|d| format!("__c{d}")).collect();
        let qidx: Vec<SymExpr> = params.iter().map(|p| SymExpr::sym(p.clone())).collect();
        let mut body = DataflowGraph::new();
        let src = body.add_access(array);
        let t = body.add_tasklet(Tasklet::new("copy", "out", ScalarExpr::input("v")));
        let dst = body.add_access(&tape);
        body.add_edge(
            src,
            None,
            t,
            Some("v"),
            Memlet::element(array, qidx.clone()),
        );
        let mut tidx = offsets.clone();
        tidx.extend(qidx.clone());
        body.add_edge(t, Some("out"), dst, None, Memlet::element(&tape, tidx));
        let mut g = DataflowGraph::new();
        let srcn = g.add_access(array);
        let map = g.add_map(MapScope {
            params,
            ranges: desc
                .shape
                .iter()
                .map(|d| (SymExpr::int(0), d.clone()))
                .collect(),
            body,
        });
        let dstn = g.add_access(&tape);
        g.add_edge(srcn, None, map, None, Memlet::all(array));
        g.add_edge(map, None, dstn, None, Memlet::all(&tape));
        let sid = self.out.add_state(State {
            name: format!("{tape}_copy"),
            graph: g,
        });
        Ok((tape, offsets, Some(ControlFlow::State(sid))))
    }

    /// Record a store/recompute candidate: a transient, written exactly once
    /// outside of any loop, whose value the backward pass reads directly.
    fn note_candidate(&mut self, array: &str) {
        let Some(desc) = self.fwd.arrays.get(array) else {
            return;
        };
        if !desc.transient {
            return;
        }
        if self.written_in_loop.contains(array) {
            return;
        }
        let writes = self.write_pos.get(array).cloned().unwrap_or_default();
        if writes.len() != 1 {
            return;
        }
        if self.candidates.iter().any(|c| c.array == array) {
            return;
        }
        self.candidates.push(RecomputeCandidate {
            array: array.to_string(),
        });
    }

    // --------------------------------------------------------------------
    // tasklet reversal
    // --------------------------------------------------------------------

    /// Reverse one tasklet: the tape-store states the forward pass gains and
    /// the adjoint dataflow graph (`None` if the tasklet's output does not
    /// contribute).  The caller makes the graph a state of its own, or — the
    /// tasklet living in a map body — the body of the adjoint map; `site`
    /// decides how the forward values the adjoint needs are kept.
    fn reverse_tasklet(
        &mut self,
        graph: &DataflowGraph,
        node: NodeId,
        tasklet: &Tasklet,
        pos: usize,
        site: TaskletSite,
    ) -> Result<(Vec<ControlFlow>, Option<DataflowGraph>), AdError> {
        if tasklet.code.len() != 1 {
            return Err(AdError::Unsupported(format!(
                "multi-assignment tasklet `{}` in the CCS",
                tasklet.label
            )));
        }
        let (_, expr) = &tasklet.code[0];

        // Gather reads (connector -> memlet) and the single write.
        let mut reads: Vec<(String, Memlet)> = Vec::new();
        for e in graph.in_edges(node) {
            let conn = e
                .dst_conn
                .clone()
                .ok_or_else(|| AdError::Malformed("tasklet in-edge without connector".into()))?;
            reads.push((conn, e.memlet.clone()));
        }
        let out_edges = graph.out_edges(node);
        if out_edges.len() != 1 {
            return Err(AdError::Unsupported(format!(
                "tasklet `{}` with {} output edges",
                tasklet.label,
                out_edges.len()
            )));
        }
        let out_memlet = out_edges[0].memlet.clone();
        let dst_array = out_memlet.data.clone();
        let accumulate = out_memlet.wcr.is_some();
        let Some(grad_dst) = self.grad(&dst_array) else {
            // Output does not contribute to the dependent variable.
            return Ok((Vec::new(), None));
        };

        // Which inputs receive gradient contributions?
        let contributing: Vec<(String, Memlet)> = reads
            .iter()
            .filter(|(_, m)| self.grads.contains_key(&m.data))
            .cloned()
            .collect();

        // The ops whose local derivative is a function of their value
        // (`UnOp::derivative_on_value`) read it from the output container
        // when the backward can read it there: written once, outside any
        // loop, not accumulated.  The backward then reads the activation, not
        // its input; otherwise it re-evaluates the op from its input.
        let after = pos.saturating_add(1);
        let by_value = matches!(expr, ScalarExpr::Un(op, _) if op.derivative_on_value().is_some());
        let value = (by_value && !accumulate && self.is_safe_read(&dst_array, after)).then(|| {
            (0..)
                .map(|k| format!("y{k}"))
                .find(|c| reads.iter().all(|(r, _)| r != c))
                .expect("an unbounded range of names")
        });

        // One partial derivative per contributing input, and the connector
        // values those expressions need.
        let partials: Vec<ScalarExpr> = contributing
            .iter()
            .map(|(conn, _)| {
                (value.as_ref())
                    .and_then(|y| expr.derivative_given_value(conn, y))
                    .unwrap_or_else(|| expr.derivative(conn).simplified())
            })
            .collect();
        let mut needed: BTreeSet<String> = BTreeSet::new();
        for d in &partials {
            needed.extend(d.inputs());
        }

        // Resolve forwarded values for each needed connector.
        let mut tape_states = Vec::new();
        // Ordered: the read edges below are added in this map's order, and
        // two reversals of one program must be the same SDFG.
        let mut value_memlets: BTreeMap<String, Memlet> = BTreeMap::new();
        for conn in &needed {
            // The output's value is read as it stands after the state.
            let (memlet, pos) = if value.as_ref() == Some(conn) {
                (&out_memlet, after)
            } else {
                let read = reads.iter().find(|(c, _)| c == conn).ok_or_else(|| {
                    AdError::Malformed(format!(
                        "tasklet `{}` references undefined connector `{conn}`",
                        tasklet.label
                    ))
                })?;
                (&read.1, pos)
            };
            let idx = memlet.subset.eval_symbolic();
            let (value_memlet, store) = match site {
                TaskletSite::MapBody => {
                    let (container, mut at, store) = self.forward_array_value(&memlet.data, pos)?;
                    at.extend(idx);
                    (Memlet::element(container, at), store)
                }
                TaskletSite::Alone(state) => {
                    let fold = Some((state, node, conn.as_str()));
                    self.forward_scalar_value(&memlet.data, &idx, pos, fold)?
                }
                TaskletSite::Among => self.forward_scalar_value(&memlet.data, &idx, pos, None)?,
            };
            if let Some(s) = store {
                tape_states.push(s);
            }
            value_memlets.insert(conn.clone(), value_memlet);
        }

        // Build the adjoint tasklet: one output per contributing input plus an
        // optional clear of the destination gradient on overwrites.
        let mut code: Vec<(String, ScalarExpr)> = Vec::new();
        let mut grad_writes: Vec<(String, Memlet)> = Vec::new(); // (connector, memlet)
        if !accumulate {
            code.push(("clear".to_string(), ScalarExpr::Const(0.0)));
            grad_writes.push((
                "clear".to_string(),
                Memlet {
                    data: grad_dst.clone(),
                    subset: out_memlet.subset.clone(),
                    wcr: None,
                },
            ));
        }
        for (k, ((_, memlet), d)) in contributing.iter().zip(partials).enumerate() {
            let contrib = ScalarExpr::Bin(
                dace_sdfg::BinOp::Mul,
                Box::new(d),
                Box::new(ScalarExpr::input("gout")),
            )
            .simplified();
            let out_conn = format!("d{k}");
            code.push((out_conn.clone(), contrib));
            let grad_src = self.grads[&memlet.data].clone();
            grad_writes.push((
                out_conn,
                Memlet {
                    data: grad_src,
                    subset: memlet.subset.clone(),
                    wcr: Some(dace_sdfg::Wcr::Sum),
                },
            ));
        }

        let adjoint = Tasklet::multi(format!("adj_{}", tasklet.label), code);
        let mut g = DataflowGraph::new();
        let adj_node = g.add_tasklet(adjoint);
        // gout read.
        let gout_acc = g.add_access(&grad_dst);
        g.add_edge(
            gout_acc,
            None,
            adj_node,
            Some("gout"),
            Memlet {
                data: grad_dst.clone(),
                subset: out_memlet.subset.clone(),
                wcr: None,
            },
        );
        // forwarded value reads.
        let mut read_access: HashMap<String, NodeId> = HashMap::new();
        for (conn, memlet) in &value_memlets {
            let acc = *read_access
                .entry(memlet.data.clone())
                .or_insert_with(|| g.add_access(&memlet.data));
            g.add_edge(acc, None, adj_node, Some(conn), memlet.clone());
        }
        // gradient writes (clear first, then accumulations — edge order is the
        // write order used by the executor).
        let mut write_access: HashMap<String, NodeId> = HashMap::new();
        for (conn, memlet) in &grad_writes {
            let acc = *write_access
                .entry(memlet.data.clone())
                .or_insert_with(|| g.add_access(&memlet.data));
            g.add_edge(adj_node, Some(conn), acc, None, memlet.clone());
        }

        Ok((tape_states, Some(g)))
    }

    // --------------------------------------------------------------------
    // map reversal
    // --------------------------------------------------------------------

    fn reverse_map(
        &mut self,
        map: &MapScope,
        pos: usize,
        state_name: &str,
    ) -> Result<(Vec<ControlFlow>, Vec<ControlFlow>), AdError> {
        // Locate the single tasklet in the body (the shape produced by the
        // frontend and by this module's own lowering).
        let tasklet_nodes: Vec<NodeId> = map
            .body
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| matches!(n, DfNode::Tasklet(_)).then_some(i))
            .collect();
        if tasklet_nodes.len() != 1 {
            return Err(AdError::Unsupported(format!(
                "map in state `{state_name}` with {} tasklets (expected 1)",
                tasklet_nodes.len()
            )));
        }
        let tnode = tasklet_nodes[0];
        let DfNode::Tasklet(tasklet) = &map.body.nodes[tnode] else {
            unreachable!()
        };
        let (tape_states, body_graph) =
            self.reverse_tasklet(&map.body, tnode, tasklet, pos, TaskletSite::MapBody)?;
        let Some(body_graph) = body_graph else {
            return Ok((tape_states, Vec::new()));
        };

        // Wrap the adjoint body in a map with the same range.
        let mut g = DataflowGraph::new();
        let mut read_nodes = Vec::new();
        for array in body_graph.read_arrays() {
            read_nodes.push((array.clone(), g.add_access(&array)));
        }
        let writes = body_graph.written_arrays();
        let map_node = g.add_map(MapScope {
            params: map.params.clone(),
            ranges: map.ranges.clone(),
            body: body_graph,
        });
        for (array, n) in read_nodes {
            g.add_edge(n, None, map_node, None, Memlet::all(array));
        }
        for array in writes {
            let w = g.add_access(&array);
            g.add_edge(map_node, None, w, None, Memlet::all(array));
        }
        let sid = self.out.add_state(State {
            name: format!("adjmap_{state_name}_{}", self.counter),
            graph: g,
        });
        self.counter += 1;
        Ok((tape_states, vec![ControlFlow::State(sid)]))
    }

    // --------------------------------------------------------------------
    // library node reversal
    // --------------------------------------------------------------------

    fn reverse_library(
        &mut self,
        graph: &DataflowGraph,
        node: NodeId,
        op: &LibraryOp,
        pos: usize,
        state_name: &str,
    ) -> Result<(Vec<ControlFlow>, Vec<ControlFlow>), AdError> {
        // Map connectors to arrays.
        let mut in_arrays: HashMap<String, String> = HashMap::new();
        for e in graph.in_edges(node) {
            if let Some(conn) = &e.dst_conn {
                in_arrays.insert(conn.clone(), e.memlet.data.clone());
            }
        }
        let out_edges = graph.out_edges(node);
        if out_edges.len() != 1 {
            return Err(AdError::Unsupported(format!(
                "library node in `{state_name}` with {} outputs",
                out_edges.len()
            )));
        }
        let out_array = out_edges[0].memlet.data.clone();
        let out_wcr = out_edges[0].memlet.wcr.is_some()
            || matches!(op, LibraryOp::SumReduce { accumulate: true });
        let Some(grad_out) = self.grad(&out_array) else {
            return Ok((Vec::new(), Vec::new()));
        };

        let mut tape_states: Vec<ControlFlow> = Vec::new();
        let mut adjoints: Vec<ControlFlow> = Vec::new();

        // Resolve a forwarded whole-array value for a library input.
        let mut forwarded = |ctx: &mut Ctx, conn: &str| -> Result<String, AdError> {
            let array = in_arrays
                .get(conn)
                .ok_or_else(|| AdError::Malformed(format!("library node missing input `{conn}`")))?
                .clone();
            if ctx.is_safe_read(&array, pos) {
                ctx.note_candidate(&array);
                Ok(array)
            } else if ctx.loop_stack.is_empty() {
                let (container, _, store) = ctx.forward_array_value(&array, pos)?;
                if let Some(s) = store {
                    tape_states.push(s);
                }
                Ok(container)
            } else {
                Err(AdError::Unsupported(format!(
                    "library node input `{array}` is overwritten inside a loop"
                )))
            }
        };

        match *op {
            LibraryOp::MatMul { trans_a, trans_b } => {
                let a = in_arrays.get("A").cloned().unwrap_or_default();
                let b = in_arrays.get("B").cloned().unwrap_or_default();
                // Each adjoint is again one product with flagged operands,
                // accumulated in place; a transposed operand's gradient is
                // stored transposed too, which swaps the factors.
                if let Some(ga) = self.grad(&a) {
                    let b_val = forwarded(self, "B")?;
                    // gA += gC·op(B)ᵀ, or as stored under the flag:
                    // gAᵀ += op(B)·gCᵀ.
                    let (factors, (trans_a, trans_b)) = if trans_a {
                        ([b_val.as_str(), &grad_out], (trans_b, true))
                    } else {
                        ([grad_out.as_str(), &b_val], (false, !trans_b))
                    };
                    let op = LibraryOp::MatMul { trans_a, trans_b };
                    adjoints.push(self.library_accumulate_state(op, factors, &ga, state_name));
                }
                if let Some(gb) = self.grad(&b) {
                    let a_val = forwarded(self, "A")?;
                    // gB += op(A)ᵀ·gC, or as stored: gBᵀ += gCᵀ·op(A).
                    let (factors, (trans_a, trans_b)) = if trans_b {
                        ([grad_out.as_str(), &a_val], (true, trans_a))
                    } else {
                        ([a_val.as_str(), &grad_out], (!trans_a, false))
                    };
                    let op = LibraryOp::MatMul { trans_a, trans_b };
                    adjoints.push(self.library_accumulate_state(op, factors, &gb, state_name));
                }
                if !out_wcr {
                    adjoints.push(
                        self.zero_state(&grad_out, &self.fwd.arrays[&out_array].shape.clone()),
                    );
                }
            }
            LibraryOp::MatVec { trans_a } => {
                let a = in_arrays.get("A").cloned().unwrap_or_default();
                let x = in_arrays.get("x").cloned().unwrap_or_default();
                if let Some(ga) = self.grad(&a) {
                    let x_val = forwarded(self, "x")?;
                    // gA += gy ⊗ x; with `A` read transposed the stored
                    // gradient is the outer product the other way.
                    let operands = if trans_a {
                        [x_val.as_str(), &grad_out]
                    } else {
                        [grad_out.as_str(), &x_val]
                    };
                    let op = LibraryOp::Outer;
                    adjoints.push(self.library_accumulate_state(op, operands, &ga, state_name));
                }
                if let Some(gx) = self.grad(&x) {
                    let a_val = forwarded(self, "A")?;
                    // gx += op(A)ᵀ·gy
                    let op = LibraryOp::MatVec { trans_a: !trans_a };
                    let operands = [a_val.as_str(), &grad_out];
                    adjoints.push(self.library_accumulate_state(op, operands, &gx, state_name));
                }
                if !out_wcr {
                    adjoints.push(
                        self.zero_state(&grad_out, &self.fwd.arrays[&out_array].shape.clone()),
                    );
                }
            }
            LibraryOp::Outer => {
                let x = in_arrays.get("x").cloned().unwrap_or_default();
                let y = in_arrays.get("y").cloned().unwrap_or_default();
                if let Some(gx) = self.grad(&x) {
                    // gx += gA·y
                    let y_val = forwarded(self, "y")?;
                    let op = LibraryOp::MATVEC;
                    let operands = [grad_out.as_str(), &y_val];
                    adjoints.push(self.library_accumulate_state(op, operands, &gx, state_name));
                }
                if let Some(gy) = self.grad(&y) {
                    // gy += gAᵀ·x
                    let x_val = forwarded(self, "x")?;
                    let op = LibraryOp::MatVec { trans_a: true };
                    let operands = [grad_out.as_str(), &x_val];
                    adjoints.push(self.library_accumulate_state(op, operands, &gy, state_name));
                }
                if !out_wcr {
                    adjoints.push(
                        self.zero_state(&grad_out, &self.fwd.arrays[&out_array].shape.clone()),
                    );
                }
            }
            LibraryOp::Transpose => {
                let a = in_arrays.get("A").cloned().unwrap_or_default();
                if let Some(ga) = self.grad(&a) {
                    // grad_A[i,j] += grad_out[j,i]
                    let shape = self.fwd.arrays[&a].shape.clone();
                    adjoints
                        .push(self.transpose_accumulate_state(&grad_out, &ga, &shape, state_name));
                }
                if !out_wcr {
                    adjoints.push(
                        self.zero_state(&grad_out, &self.fwd.arrays[&out_array].shape.clone()),
                    );
                }
            }
            LibraryOp::SumReduce { .. } => {
                let a = in_arrays.get("IN").cloned().unwrap_or_default();
                if let Some(ga) = self.grad(&a) {
                    let shape = self.fwd.arrays[&a].shape.clone();
                    adjoints
                        .push(self.broadcast_accumulate_state(&grad_out, &ga, &shape, state_name));
                }
                if !out_wcr {
                    adjoints.push(self.zero_state(&grad_out, &[SymExpr::int(1)]));
                }
            }
            LibraryOp::Copy => {
                let a = in_arrays.get("A").cloned().unwrap_or_default();
                if let Some(ga) = self.grad(&a) {
                    let shape = self.fwd.arrays[&a].shape.clone();
                    adjoints
                        .push(self.identity_accumulate_state(&grad_out, &ga, &shape, state_name));
                }
                if !out_wcr {
                    adjoints.push(
                        self.zero_state(&grad_out, &self.fwd.arrays[&out_array].shape.clone()),
                    );
                }
            }
        }

        Ok((tape_states, adjoints))
    }

    // --------------------------------------------------------------------
    // helper state builders for library adjoints
    // --------------------------------------------------------------------

    /// `dst += op(operands)`: a product's adjoint, as one WCR library node.
    fn library_accumulate_state(
        &mut self,
        op: LibraryOp,
        operands: [&str; 2],
        dst: &str,
        label: &str,
    ) -> ControlFlow {
        let kind = match op {
            LibraryOp::MatMul { .. } => "matmul",
            LibraryOp::Outer => "outer",
            _ => "matvec",
        };
        let n = self.next();
        ControlFlow::State(self.out.add_state(State {
            name: format!("adj_{kind}_{label}_{n}"),
            graph: DataflowGraph::library_call(op, &operands, dst, true),
        }))
    }

    /// `dst[i, j] += src[j, i]` over `shape` (the shape of `dst`).
    fn transpose_accumulate_state(
        &mut self,
        src: &str,
        dst: &str,
        shape: &[SymExpr],
        label: &str,
    ) -> ControlFlow {
        let (i, j) = (SymExpr::sym("__ti"), SymExpr::sym("__tj"));
        let mut body = DataflowGraph::new();
        let s = body.add_access(src);
        let t = body.add_tasklet(Tasklet::new("tacc", "out", ScalarExpr::input("v")));
        let d = body.add_access(dst);
        body.add_edge(
            s,
            None,
            t,
            Some("v"),
            Memlet::element(src, vec![j.clone(), i.clone()]),
        );
        body.add_edge(
            t,
            Some("out"),
            d,
            None,
            Memlet::element(dst, vec![i.clone(), j.clone()]).with_wcr_sum(),
        );
        self.wrap_map_state(
            body,
            vec![("__ti", shape[0].clone()), ("__tj", shape[1].clone())],
            &[src],
            dst,
            &format!("adj_transposeacc_{label}"),
        )
    }

    /// `dst[q...] += src[q...]` over `shape`.
    fn identity_accumulate_state(
        &mut self,
        src: &str,
        dst: &str,
        shape: &[SymExpr],
        label: &str,
    ) -> ControlFlow {
        let params: Vec<String> = (0..shape.len()).map(|d| format!("__q{d}")).collect();
        let idx: Vec<SymExpr> = params.iter().map(|p| SymExpr::sym(p.clone())).collect();
        let mut body = DataflowGraph::new();
        let s = body.add_access(src);
        let t = body.add_tasklet(Tasklet::new("idacc", "out", ScalarExpr::input("v")));
        let d = body.add_access(dst);
        body.add_edge(s, None, t, Some("v"), Memlet::element(src, idx.clone()));
        body.add_edge(
            t,
            Some("out"),
            d,
            None,
            Memlet::element(dst, idx).with_wcr_sum(),
        );
        let ranges: Vec<(&str, SymExpr)> = params
            .iter()
            .map(|p| {
                (
                    p.as_str(),
                    shape[params.iter().position(|x| x == p).unwrap()].clone(),
                )
            })
            .collect();
        self.wrap_map_state(body, ranges, &[src], dst, &format!("adj_copy_{label}"))
    }

    /// `dst[q...] += scalar_src[0]` over `shape` (sum-reduction adjoint).
    fn broadcast_accumulate_state(
        &mut self,
        scalar_src: &str,
        dst: &str,
        shape: &[SymExpr],
        label: &str,
    ) -> ControlFlow {
        let params: Vec<String> = (0..shape.len()).map(|d| format!("__b{d}")).collect();
        let idx: Vec<SymExpr> = params.iter().map(|p| SymExpr::sym(p.clone())).collect();
        let mut body = DataflowGraph::new();
        let s = body.add_access(scalar_src);
        let t = body.add_tasklet(Tasklet::new("bcast", "out", ScalarExpr::input("g")));
        let d = body.add_access(dst);
        body.add_edge(
            s,
            None,
            t,
            Some("g"),
            Memlet::element(scalar_src, vec![SymExpr::int(0)]),
        );
        body.add_edge(
            t,
            Some("out"),
            d,
            None,
            Memlet::element(dst, idx).with_wcr_sum(),
        );
        let ranges: Vec<(&str, SymExpr)> = params
            .iter()
            .enumerate()
            .map(|(k, p)| (p.as_str(), shape[k].clone()))
            .collect();
        self.wrap_map_state(
            body,
            ranges,
            &[scalar_src],
            dst,
            &format!("adj_bcast_{label}"),
        )
    }

    /// `array[q...] = 0` over `shape` (gradient clearing, Fig. 4).
    fn zero_state(&mut self, array: &str, shape: &[SymExpr]) -> ControlFlow {
        let params: Vec<String> = (0..shape.len()).map(|d| format!("__z{d}")).collect();
        let idx: Vec<SymExpr> = params.iter().map(|p| SymExpr::sym(p.clone())).collect();
        let mut body = DataflowGraph::new();
        let t = body.add_tasklet(Tasklet::new("zero", "out", ScalarExpr::Const(0.0)));
        let d = body.add_access(array);
        body.add_edge(t, Some("out"), d, None, Memlet::element(array, idx));
        let ranges: Vec<(&str, SymExpr)> = params
            .iter()
            .enumerate()
            .map(|(k, p)| (p.as_str(), shape[k].clone()))
            .collect();
        self.wrap_map_state(body, ranges, &[], array, &format!("clear_{array}"))
    }

    fn wrap_map_state(
        &mut self,
        body: DataflowGraph,
        ranges: Vec<(&str, SymExpr)>,
        reads: &[&str],
        write: &str,
        label: &str,
    ) -> ControlFlow {
        let mut g = DataflowGraph::new();
        let mut read_nodes = Vec::new();
        for r in reads {
            read_nodes.push((r.to_string(), g.add_access(*r)));
        }
        let map = g.add_map(MapScope {
            params: ranges.iter().map(|(p, _)| p.to_string()).collect(),
            ranges: ranges
                .iter()
                .map(|(_, e)| (SymExpr::int(0), e.clone()))
                .collect(),
            body,
        });
        let w = g.add_access(write);
        for (name, n) in read_nodes {
            g.add_edge(n, None, map, None, Memlet::all(name));
        }
        g.add_edge(map, None, w, None, Memlet::all(write));
        let n = self.next();
        ControlFlow::State(self.out.add_state(State {
            name: format!("{label}_{n}"),
            graph: g,
        }))
    }

    fn next(&mut self) -> usize {
        self.counter += 1;
        self.counter
    }
}

/// Collect, for every array, the forward-order positions of states writing it
/// and whether any of those writes happens inside a loop.
fn collect_write_info(
    sdfg: &Sdfg,
    cf: &ControlFlow,
    loop_depth: usize,
    state_pos: &HashMap<usize, usize>,
    write_pos: &mut BTreeMap<String, Vec<usize>>,
    written_in_loop: &mut BTreeSet<String>,
) {
    match cf {
        ControlFlow::State(id) => {
            let pos = *state_pos.get(id).unwrap_or(&usize::MAX);
            for array in sdfg.states[*id].graph.written_arrays() {
                write_pos.entry(array.clone()).or_default().push(pos);
                if loop_depth > 0 {
                    written_in_loop.insert(array);
                }
            }
        }
        ControlFlow::Sequence(children) => {
            for c in children {
                collect_write_info(sdfg, c, loop_depth, state_pos, write_pos, written_in_loop);
            }
        }
        ControlFlow::Loop(l) => collect_write_info(
            sdfg,
            &l.body,
            loop_depth + 1,
            state_pos,
            write_pos,
            written_in_loop,
        ),
        ControlFlow::Branch(b) => {
            collect_write_info(
                sdfg,
                &b.then_body,
                loop_depth,
                state_pos,
                write_pos,
                written_in_loop,
            );
            if let Some(e) = &b.else_body {
                collect_write_info(sdfg, e, loop_depth, state_pos, write_pos, written_in_loop);
            }
        }
    }
}

/// Extension used above: symbolic element indices of a subset (panics on
/// range subsets, which never reach the scalar-value path).
trait SubsetExt {
    fn eval_symbolic(&self) -> Vec<SymExpr>;
}

impl SubsetExt for dace_sdfg::Subset {
    fn eval_symbolic(&self) -> Vec<SymExpr> {
        self.0
            .iter()
            .map(|r| match r {
                dace_sdfg::IndexRange::Index(e) => e.clone(),
                dace_sdfg::IndexRange::Range { start, .. } => start.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dace_frontend::{elem, ArrayExpr, ProgramBuilder};

    fn simple_chain() -> Sdfg {
        // Y = X * 3; Z = sin(Y); OUT = sum(Z)
        let mut b = ProgramBuilder::new("chain");
        let n = b.symbol("N");
        b.add_input("X", vec![n.clone()]).unwrap();
        b.add_transient("Y", vec![n.clone()]).unwrap();
        b.add_transient("Z", vec![n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        b.assign("Y", ArrayExpr::a("X").mul(ArrayExpr::s(3.0)));
        b.assign("Z", ArrayExpr::a("Y").sin());
        b.sum_into("OUT", "Z", false);
        b.build().unwrap()
    }

    #[test]
    fn plan_declares_gradient_containers() {
        let fwd = simple_chain();
        let plan = generate_backward(&fwd, "OUT", &["X"]).unwrap();
        assert!(plan.gradients.contains_key("X"));
        assert!(plan.gradients.contains_key("Y"));
        assert!(plan.gradients.contains_key("OUT"));
        assert!(plan
            .sdfg
            .arrays
            .contains_key(plan.gradient_of("X").unwrap()));
        assert!(plan
            .sdfg
            .validate()
            .iter()
            .all(|d| d.severity != Severity::Error));
    }

    #[test]
    fn non_scalar_output_is_rejected() {
        let fwd = simple_chain();
        let err = generate_backward(&fwd, "Z", &["X"]).unwrap_err();
        assert!(matches!(err, AdError::NonScalarOutput(_)));
    }

    #[test]
    fn unknown_names_are_rejected() {
        let fwd = simple_chain();
        assert!(matches!(
            generate_backward(&fwd, "NOPE", &["X"]),
            Err(AdError::UnknownOutput(_))
        ));
        assert!(matches!(
            generate_backward(&fwd, "OUT", &["NOPE"]),
            Err(AdError::UnknownInput(_))
        ));
    }

    #[test]
    fn safe_transients_become_candidates() {
        let fwd = simple_chain();
        let plan = generate_backward(&fwd, "OUT", &["X"]).unwrap();
        // sin(Y) needs Y; Y is a transient written once outside loops.
        assert!(plan.candidates.iter().any(|c| c.array == "Y"));
    }

    /// The adjoint of a product is one flagged product accumulated in place:
    /// no `Transpose` node, no operand-sized `adj_tmp` transient.
    #[test]
    fn product_adjoints_materialise_no_transpose() {
        let mut b = ProgramBuilder::new("products");
        let n = b.symbol("N");
        let square = vec![n.clone(), n.clone()];
        b.add_input("A", square.clone()).unwrap();
        b.add_input("B", square.clone()).unwrap();
        b.add_input("x", vec![n.clone()]).unwrap();
        b.add_transient("C", square).unwrap();
        b.add_transient("y", vec![n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        b.matmul("C", "A", "B");
        b.matvec("y", "C", "x");
        b.sum_into("OUT", "y", false);
        let fwd = b.build().unwrap();
        let plan = generate_backward(&fwd, "OUT", &["A", "B", "x"]).unwrap();
        let ops: Vec<LibraryOp> = (plan.sdfg.cfg.states_in_order().iter())
            .flat_map(|&s| &plan.sdfg.states[s].graph.nodes)
            .filter_map(|node| match node {
                DfNode::Library(op) => Some(*op),
                _ => None,
            })
            .collect();
        let flagged = |ta, tb| LibraryOp::MatMul {
            trans_a: ta,
            trans_b: tb,
        };
        assert_eq!(
            ops,
            [
                // forward, as written
                LibraryOp::MATMUL,
                LibraryOp::MATVEC,
                LibraryOp::SumReduce { accumulate: false },
                // gC += gy ⊗ x; gx += Cᵀ·gy; gA += gC·Bᵀ; gB += Aᵀ·gC
                LibraryOp::Outer,
                LibraryOp::MatVec { trans_a: true },
                flagged(false, true),
                flagged(true, false),
            ]
        );
        assert!(!plan.sdfg.arrays.keys().any(|a| a.contains("adj_tmp")));
        // Every transient is a forward container or the gradient of one.
        assert_eq!(plan.sdfg.arrays.len(), 2 * fwd.arrays.len());
    }

    #[test]
    fn loop_overwrites_produce_tapes() {
        // for i in 1..N: A[i] = A[i] * A[i-1]  (non-linear, in-place)
        let mut b = ProgramBuilder::new("looped");
        let n = b.symbol("N");
        b.add_input("A", vec![n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        let i = SymExpr::sym("i");
        b.for_range("i", 1, n.clone(), |b| {
            b.assign_element(
                "A",
                vec![i.clone()],
                elem("A", vec![i.clone()]).mul(elem("A", vec![i.sub(&SymExpr::int(1))])),
            );
        });
        b.sum_into("OUT", "A", false);
        let fwd = b.build().unwrap();
        let plan = generate_backward(&fwd, "OUT", &["A"]).unwrap();
        assert!(
            !plan.stored.is_empty(),
            "in-place non-linear loop update must allocate at least one tape"
        );
        assert!(plan
            .sdfg
            .validate()
            .iter()
            .all(|d| d.severity != Severity::Error));
    }

    #[test]
    fn backward_loop_is_reversed() {
        let mut b = ProgramBuilder::new("loopdir");
        let n = b.symbol("N");
        b.add_input("A", vec![n.clone()]).unwrap();
        b.add_scalar("OUT").unwrap();
        let i = SymExpr::sym("i");
        b.for_range("i", 0, n.clone(), |b| {
            b.accumulate_element("OUT", vec![SymExpr::int(0)], elem("A", vec![i.clone()]));
        });
        let fwd = b.build().unwrap();
        let plan = generate_backward(&fwd, "OUT", &["A"]).unwrap();
        // Find the backward loop in the combined cfg: it must have step -1.
        let ControlFlow::Sequence(top) = &plan.sdfg.cfg else {
            panic!()
        };
        let reversed = top[plan.backward_start_index..]
            .iter()
            .any(|cf| matches!(cf, ControlFlow::Loop(l) if l.step == SymExpr::int(-1)));
        assert!(reversed, "backward half must contain a reversed loop");
    }

    #[test]
    fn branch_reversal_stores_conditionals() {
        use dace_sdfg::{CmpOp, CondOperand};
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
            |b| b.assign("Y", ArrayExpr::a("X").mul(ArrayExpr::s(2.0))),
            Some(Box::new(|b: &mut ProgramBuilder| {
                b.assign("Y", ArrayExpr::a("X").mul(ArrayExpr::s(-3.0)))
            })),
        );
        b.sum_into("OUT", "Y", false);
        let fwd = b.build().unwrap();
        let plan = generate_backward(&fwd, "OUT", &["X"]).unwrap();
        assert!(plan.stored.iter().any(|s| s.starts_with("stored_cond")));
        // Backward half contains a branch on the stored flag.
        let ControlFlow::Sequence(top) = &plan.sdfg.cfg else {
            panic!()
        };
        let has_flag_branch = top[plan.backward_start_index..].iter().any(|cf| {
            matches!(cf, ControlFlow::Branch(br) if matches!(br.cond, CondExpr::StoredFlag(_)))
        });
        assert!(has_flag_branch);
    }
}
