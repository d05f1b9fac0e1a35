//! ILP-based automatic checkpointing (Section IV of the paper).
//!
//! Candidates are forwarded containers: transients produced in straight-line
//! code whose values the backward pass reads directly.  *Storing* a candidate
//! means keeping it alive from the forward pass into the backward pass;
//! *recomputing* it means freeing it after its last forward use and cloning
//! its producer slice into the backward pass right before its first backward
//! use (with versioned temporaries for dependencies that were overwritten in
//! the meantime).
//!
//! The store/recompute decision is a binary variable per candidate.  The
//! memory-measurement sequence models the peak footprint of the combined
//! forward+backward timeline as a linear function of those variables; every
//! sequence entry must stay below the user limit, and the objective minimises
//! the recomputation FLOP cost — exactly the formulation of Section IV-A.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::{Duration, Instant};

use dace_ilp::{IlpProblem, IlpStatus};
use dace_sdfg::{ControlFlow, DataflowGraph, DfNode, Sdfg, State};

use crate::reverse::{AdError, BackwardPlan};
use crate::CheckpointStrategy;

/// A store/recompute candidate discovered during reversal.
#[derive(Clone, Debug, PartialEq)]
pub struct RecomputeCandidate {
    /// The transient container name.
    pub array: String,
    /// Forward-order position of the state producing it (diagnostics).
    pub producer_pos: usize,
}

/// Cost model entry for one candidate (the `S_i`, `R_i`, `c_i` of §IV-A).
#[derive(Clone, Debug)]
pub struct CandidateCost {
    /// Container name.
    pub array: String,
    /// Size in bytes (`S_i`).
    pub size_bytes: usize,
    /// Estimated FLOPs to recompute it (`c_i`).
    pub recompute_flops: f64,
    /// Peak extra bytes of versioned temporaries during recomputation (`R_i`).
    pub recompute_overhead_bytes: usize,
    /// Whether a recomputation slice could be constructed.
    pub recomputable: bool,
}

/// Result of the checkpointing pass.
#[derive(Clone, Debug, Default)]
pub struct CheckpointReport {
    /// Cost model per candidate.
    pub costs: Vec<CandidateCost>,
    /// Containers chosen to be stored.
    pub stored: Vec<String>,
    /// Containers chosen to be recomputed.
    pub recomputed: Vec<String>,
    /// The memory limit, if one was given.
    pub memory_limit_bytes: Option<usize>,
    /// Peak bytes predicted by the memory-measurement sequence for the chosen
    /// configuration.
    pub predicted_peak_bytes: usize,
    /// Branch-and-bound nodes explored by the ILP solver.
    pub solver_nodes: usize,
    /// Wall-clock time of the ILP solve.
    pub solve_time: Duration,
    /// Whether the ILP found a feasible configuration (false means the limit
    /// cannot be met even with all candidates recomputed; the cheapest
    /// configuration is applied instead).
    pub feasible: bool,
}

/// A fully analysed candidate, including the recomputation slice.
struct AnalyzedCandidate {
    array: String,
    size_bytes: usize,
    flops: f64,
    overhead_bytes: usize,
    /// States (already added to the plan SDFG) forming the recompute slice.
    slice_states: Vec<usize>,
    /// Versioned temporaries used by the slice (freed after the recompute).
    temporaries: Vec<String>,
    /// Top-level item index of the producer in the forward half.
    producer_item: usize,
    /// Top-level item index of the last forward reader.
    last_forward_reader: usize,
    /// Top-level item index of the first backward reader.
    first_backward_reader: usize,
    /// Top-level item index of the last backward reader.
    last_backward_reader: usize,
    recomputable: bool,
}

/// Apply a checkpointing strategy to a plan, mutating its SDFG (recompute
/// blocks, free hints) and returning the report.
pub fn apply_strategy(
    plan: &mut BackwardPlan,
    strategy: &CheckpointStrategy,
    symbols: &HashMap<String, i64>,
) -> Result<CheckpointReport, AdError> {
    let mut report = CheckpointReport::default();
    if plan.candidates.is_empty() || matches!(strategy, CheckpointStrategy::StoreAll) {
        report.stored = plan.candidates.iter().map(|c| c.array.clone()).collect();
        report.feasible = true;
        for c in &plan.candidates {
            report.costs.push(CandidateCost {
                array: c.array.clone(),
                size_bytes: array_bytes(&plan.sdfg, &c.array, symbols),
                recompute_flops: 0.0,
                recompute_overhead_bytes: 0,
                recomputable: false,
            });
        }
        apply_liveness_hints(plan);
        report.predicted_peak_bytes = predict_peak_store_all(plan, symbols);
        return Ok(report);
    }

    // Analyse every candidate.
    let mut analyzed: Vec<AnalyzedCandidate> = Vec::new();
    let candidates = plan.candidates.clone();
    for cand in &candidates {
        if let Some(a) = analyze_candidate(plan, &cand.array, symbols)? {
            analyzed.push(a);
        }
    }

    // Decide which to store.
    let store_set: BTreeSet<String> = match strategy {
        CheckpointStrategy::StoreAll => unreachable!(),
        CheckpointStrategy::RecomputeAll => analyzed
            .iter()
            .filter(|a| !a.recomputable)
            .map(|a| a.array.clone())
            .collect(),
        CheckpointStrategy::Manual { store } => {
            let explicit: BTreeSet<String> = store.iter().cloned().collect();
            analyzed
                .iter()
                .filter(|a| explicit.contains(&a.array) || !a.recomputable)
                .map(|a| a.array.clone())
                .collect()
        }
        CheckpointStrategy::Ilp { memory_limit_bytes } => {
            report.memory_limit_bytes = Some(*memory_limit_bytes);
            let start = Instant::now();
            let (set, nodes, feasible) = solve_ilp(plan, &analyzed, *memory_limit_bytes, symbols);
            report.solve_time = start.elapsed();
            report.solver_nodes = nodes;
            report.feasible = feasible;
            set
        }
    };
    if !matches!(strategy, CheckpointStrategy::Ilp { .. }) {
        report.feasible = true;
    }

    // Record the cost model.
    for a in &analyzed {
        report.costs.push(CandidateCost {
            array: a.array.clone(),
            size_bytes: a.size_bytes,
            recompute_flops: a.flops,
            recompute_overhead_bytes: a.overhead_bytes,
            recomputable: a.recomputable,
        });
    }

    // Apply the decisions to the plan.
    let decisions: Vec<(bool, &AnalyzedCandidate)> = analyzed
        .iter()
        .map(|a| (store_set.contains(&a.array), a))
        .collect();
    report.predicted_peak_bytes = predict_peak(plan, &decisions, symbols);

    // Insertions must be applied back-to-front so indices stay valid.
    let ControlFlow::Sequence(ref mut top) = plan.sdfg.cfg else {
        return Err(AdError::Malformed(
            "gradient SDFG has no top-level sequence".into(),
        ));
    };
    let mut insertions: Vec<(usize, Vec<ControlFlow>, &AnalyzedCandidate)> = Vec::new();
    for (stored, a) in &decisions {
        if *stored || !a.recomputable {
            report.stored.push(a.array.clone());
            continue;
        }
        report.recomputed.push(a.array.clone());
        plan.recomputed.push(a.array.clone());
        // Free after the last forward reader.
        if let Some(sid) = last_state_of(&top[a.last_forward_reader]) {
            plan.free_hints
                .entry(sid)
                .or_default()
                .push(a.array.clone());
        }
        // Free the candidate and its temporaries after the last backward reader.
        if let Some(sid) = last_state_of(&top[a.last_backward_reader]) {
            let entry = plan.free_hints.entry(sid).or_default();
            entry.push(a.array.clone());
            entry.extend(a.temporaries.clone());
        }
        insertions.push((
            a.first_backward_reader,
            a.slice_states
                .iter()
                .map(|&sid| ControlFlow::State(sid))
                .collect(),
            a,
        ));
    }
    insertions.sort_by_key(|(idx, _, _)| std::cmp::Reverse(*idx));
    for (idx, states, _) in insertions {
        for (offset, st) in states.into_iter().enumerate() {
            top.insert(idx + offset, st);
        }
    }

    apply_liveness_hints(plan);
    Ok(report)
}

// ---------------------------------------------------------------------------
// candidate analysis
// ---------------------------------------------------------------------------

fn array_bytes(sdfg: &Sdfg, array: &str, symbols: &HashMap<String, i64>) -> usize {
    sdfg.arrays
        .get(array)
        .and_then(|d| d.size_bytes(symbols).ok())
        .unwrap_or(0)
        .max(0) as usize
}

/// Indices of top-level items that read / write a given array.
fn item_accesses(top: &[ControlFlow], sdfg: &Sdfg, array: &str) -> (Vec<usize>, Vec<usize>) {
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for (i, item) in top.iter().enumerate() {
        let mut r = false;
        let mut w = false;
        for sid in item.states_in_order() {
            let g = &sdfg.states[sid].graph;
            if g.reads().contains_key(array) {
                r = true;
            }
            if g.writes().contains_key(array) {
                w = true;
            }
        }
        if r {
            reads.push(i);
        }
        if w {
            writes.push(i);
        }
    }
    (reads, writes)
}

fn last_state_of(cf: &ControlFlow) -> Option<usize> {
    cf.states_in_order().last().copied()
}

/// True if a top-level item consists only of plain states (no loops or
/// branches) — the precondition for recompute-slice construction.
fn is_straight_line(cf: &ControlFlow) -> bool {
    match cf {
        ControlFlow::State(_) => true,
        ControlFlow::Sequence(children) => children.iter().all(is_straight_line),
        _ => false,
    }
}

fn analyze_candidate(
    plan: &mut BackwardPlan,
    array: &str,
    symbols: &HashMap<String, i64>,
) -> Result<Option<AnalyzedCandidate>, AdError> {
    let ControlFlow::Sequence(top) = plan.sdfg.cfg.clone() else {
        return Err(AdError::Malformed(
            "gradient SDFG has no top-level sequence".into(),
        ));
    };
    let fwd_half = &top[..plan.backward_start_index];
    let (fwd_reads, fwd_writes) = item_accesses(fwd_half, &plan.sdfg, array);
    let (all_reads, _) = item_accesses(&top, &plan.sdfg, array);
    let bwd_reads: Vec<usize> = all_reads
        .iter()
        .copied()
        .filter(|&i| i > plan.backward_start_index)
        .collect();
    if fwd_writes.len() != 1 || bwd_reads.is_empty() {
        return Ok(None);
    }
    let producer_item = fwd_writes[0];
    let last_forward_reader = fwd_reads.last().copied().unwrap_or(producer_item);
    let size_bytes = array_bytes(&plan.sdfg, array, symbols);

    // Build the recomputation slice (if the producer region is straight-line).
    let straight_line = fwd_half[..=producer_item].iter().all(is_straight_line);
    let (slice_states, temporaries, flops, overhead_bytes) = if straight_line {
        build_recompute_slice(plan, fwd_half, array, producer_item, symbols)?
    } else {
        (Vec::new(), Vec::new(), 0.0, 0)
    };
    // An empty slice means the producer chain could not be reconstructed
    // from live program inputs — the candidate must always be stored.
    let recomputable = straight_line && !slice_states.is_empty();

    Ok(Some(AnalyzedCandidate {
        array: array.to_string(),
        size_bytes,
        flops,
        overhead_bytes,
        slice_states,
        temporaries,
        producer_item,
        last_forward_reader,
        first_backward_reader: bwd_reads[0],
        last_backward_reader: *bwd_reads.last().unwrap(),
        recomputable,
    }))
}

/// Construct the recomputation slice for `array`.
///
/// The model follows Section IV-A of the paper: the candidate is recomputed
/// *from the program inputs*, re-running its transitive producer chain.
/// Every transient intermediate along the chain is materialised into a fresh
/// `rc_*` temporary (their combined size is the recomputation memory
/// overhead `R_i`), and the summed FLOP estimate of the chain is the
/// recomputation cost `c_i`.  The chain must be straight-line, each array in
/// it written exactly once, and all non-transient dependencies must never be
/// overwritten — otherwise the candidate is reported as non-recomputable and
/// is always stored.
///
/// Returns (new state ids in program order, temporary containers, FLOPs,
/// peak temporary bytes).
fn build_recompute_slice(
    plan: &mut BackwardPlan,
    fwd_half: &[ControlFlow],
    target: &str,
    _producer_item: usize,
    symbols: &HashMap<String, i64>,
) -> Result<(Vec<usize>, Vec<String>, f64, usize), AdError> {
    // Straight-line view: one (item index, state id) per plain state.
    let mut line: Vec<(usize, usize)> = Vec::new();
    for (i, item) in fwd_half.iter().enumerate() {
        if !is_straight_line(item) {
            continue;
        }
        for sid in item.states_in_order() {
            line.push((i, sid));
        }
    }
    // writer positions (in `line`) per array.
    let mut writers: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (k, (_, sid)) in line.iter().enumerate() {
        for a in plan.sdfg.states[*sid].graph.writes().into_keys() {
            writers.entry(a).or_default().push(k);
        }
    }

    // Transitive producer closure over transient arrays.
    let mut needed: BTreeSet<String> = BTreeSet::new();
    let mut work: Vec<String> = vec![target.to_string()];
    while let Some(array) = work.pop() {
        if !needed.insert(array.clone()) {
            continue;
        }
        let w = writers.get(&array).cloned().unwrap_or_default();
        if w.len() != 1 {
            return Ok((Vec::new(), Vec::new(), 0.0, 0));
        }
        let (_, sid) = line[w[0]];
        for dep in plan.sdfg.states[sid].graph.reads().into_keys() {
            let dep_transient = plan
                .sdfg
                .arrays
                .get(&dep)
                .map(|d| d.transient)
                .unwrap_or(false);
            let dep_writes = writers.get(&dep).map(|v| v.len()).unwrap_or(0);
            if dep_transient {
                work.push(dep);
            } else if dep_writes > 0 {
                // A program input that the forward pass overwrites cannot be
                // used to recompute anything.
                return Ok((Vec::new(), Vec::new(), 0.0, 0));
            }
        }
    }

    // Emit the slice states in original program order, renaming every
    // transient intermediate except the target itself.
    let mut ordered: Vec<(usize, String)> =
        needed.iter().map(|a| (writers[a][0], a.clone())).collect();
    ordered.sort_by_key(|(k, _)| *k);

    let mut rename_map: BTreeMap<String, String> = BTreeMap::new();
    let mut temporaries: Vec<String> = Vec::new();
    let mut overhead_bytes = 0usize;
    for (_, array) in &ordered {
        if array == target {
            continue;
        }
        let tmp = plan.sdfg.fresh_name(&format!("rc_{array}"));
        let desc = plan.sdfg.arrays[array].clone();
        plan.sdfg
            .add_array(tmp.clone(), dace_sdfg::ArrayDesc::transient(desc.shape))
            .map_err(|e| AdError::Malformed(e.to_string()))?;
        overhead_bytes += array_bytes(&plan.sdfg, &tmp, symbols);
        temporaries.push(tmp.clone());
        rename_map.insert(array.clone(), tmp);
    }

    let mut slice_states = Vec::new();
    let mut flops = 0.0;
    for (k, array) in ordered {
        let (_, sid) = line[k];
        let mut graph = plan.sdfg.states[sid].graph.clone();
        rename_arrays(&mut graph, &rename_map);
        flops += graph.flop_estimate(symbols);
        let new_id = plan.sdfg.add_state(State {
            name: format!("recompute_{array}"),
            graph,
        });
        slice_states.push(new_id);
    }
    Ok((slice_states, temporaries, flops, overhead_bytes))
}

/// Rename array references (access nodes and memlets) in a dataflow graph.
fn rename_arrays(graph: &mut DataflowGraph, renames: &BTreeMap<String, String>) {
    if renames.is_empty() {
        return;
    }
    for node in &mut graph.nodes {
        match node {
            DfNode::Access(name) => {
                if let Some(new) = renames.get(name) {
                    *name = new.clone();
                }
            }
            DfNode::MapScope(m) => rename_arrays(&mut m.body, renames),
            _ => {}
        }
    }
    for edge in &mut graph.edges {
        if let Some(new) = renames.get(&edge.memlet.data) {
            edge.memlet.data = new.clone();
        }
    }
}

// ---------------------------------------------------------------------------
// memory-measurement sequence and ILP
// ---------------------------------------------------------------------------

/// Alive-interval model of one container over the top-level timeline.
struct Interval {
    start: usize,
    end: usize,
    bytes: usize,
}

fn baseline_intervals(
    plan: &BackwardPlan,
    symbols: &HashMap<String, i64>,
    skip: &BTreeSet<String>,
) -> Vec<Interval> {
    let ControlFlow::Sequence(top) = &plan.sdfg.cfg else {
        return Vec::new();
    };
    let horizon = top.len();
    let mut out = Vec::new();
    for (name, desc) in &plan.sdfg.arrays {
        if skip.contains(name) {
            continue;
        }
        let bytes = desc.size_bytes(symbols).unwrap_or(0).max(0) as usize;
        if bytes == 0 {
            continue;
        }
        if !desc.transient {
            out.push(Interval {
                start: 0,
                end: horizon,
                bytes,
            });
        } else {
            // Transients live from their first write to their last reference
            // (the liveness pass frees them there).
            let (reads, writes) = item_accesses(top, &plan.sdfg, name);
            if let Some(&first) = writes.first() {
                let last = reads
                    .last()
                    .copied()
                    .unwrap_or(first)
                    .max(writes.last().copied().unwrap_or(first));
                out.push(Interval {
                    start: first,
                    end: last,
                    bytes,
                });
            }
        }
    }
    out
}

/// Free every transient container after the last top-level item that
/// references it, provided that item is straight-line (freeing inside loops
/// would discard values still needed by later iterations).  This mirrors the
/// scoped deallocation DaCe's generated code performs and is what makes the
/// measured peak memory reflect store/recompute decisions (Fig. 13).
pub fn apply_liveness_hints(plan: &mut BackwardPlan) {
    let ControlFlow::Sequence(top) = plan.sdfg.cfg.clone() else {
        return;
    };
    let names: Vec<String> = plan
        .sdfg
        .arrays
        .iter()
        .filter(|(_, d)| d.transient)
        .map(|(n, _)| n.clone())
        .collect();
    for name in names {
        let (reads, writes) = item_accesses(&top, &plan.sdfg, &name);
        let last = reads
            .last()
            .copied()
            .unwrap_or(0)
            .max(writes.last().copied().unwrap_or(0));
        if reads.is_empty() && writes.is_empty() {
            continue;
        }
        if !is_straight_line(&top[last]) {
            continue;
        }
        if let Some(sid) = last_state_of(&top[last]) {
            let entry = plan.free_hints.entry(sid).or_default();
            if !entry.contains(&name) {
                entry.push(name);
            }
        }
    }
}

fn predict_peak_store_all(plan: &BackwardPlan, symbols: &HashMap<String, i64>) -> usize {
    let decisions: Vec<(bool, &AnalyzedCandidate)> = Vec::new();
    predict_peak(plan, &decisions, symbols)
}

fn predict_peak(
    plan: &BackwardPlan,
    decisions: &[(bool, &AnalyzedCandidate)],
    symbols: &HashMap<String, i64>,
) -> usize {
    let ControlFlow::Sequence(top) = &plan.sdfg.cfg else {
        return 0;
    };
    let horizon = top.len();
    let _ = horizon;
    let skip: BTreeSet<String> = decisions.iter().map(|(_, a)| a.array.clone()).collect();
    let mut intervals = baseline_intervals(plan, symbols, &skip);
    for (stored, a) in decisions {
        if *stored || !a.recomputable {
            intervals.push(Interval {
                start: a.producer_item,
                end: a.last_backward_reader,
                bytes: a.size_bytes,
            });
        } else {
            intervals.push(Interval {
                start: a.producer_item,
                end: a.last_forward_reader,
                bytes: a.size_bytes,
            });
            intervals.push(Interval {
                start: a.first_backward_reader,
                end: a.last_backward_reader,
                bytes: a.size_bytes + a.overhead_bytes,
            });
        }
    }
    let mut peak = 0usize;
    let horizon_t = match &plan.sdfg.cfg {
        ControlFlow::Sequence(v) => v.len(),
        _ => 0,
    };
    for t in 0..=horizon_t {
        let total: usize = intervals
            .iter()
            .filter(|iv| iv.start <= t && t <= iv.end)
            .map(|iv| iv.bytes)
            .sum();
        peak = peak.max(total);
    }
    peak
}

/// Build and solve the ILP of Section IV; returns the set of candidates to
/// store, the solver node count and whether the limit was met.
fn solve_ilp(
    plan: &BackwardPlan,
    analyzed: &[AnalyzedCandidate],
    memory_limit_bytes: usize,
    symbols: &HashMap<String, i64>,
) -> (BTreeSet<String>, usize, bool) {
    let ControlFlow::Sequence(top) = &plan.sdfg.cfg else {
        return (BTreeSet::new(), 0, false);
    };
    let horizon = top.len();
    let skip: BTreeSet<String> = analyzed.iter().map(|a| a.array.clone()).collect();
    let intervals = baseline_intervals(plan, symbols, &skip);

    let n = analyzed.len();
    let mut ilp = IlpProblem::binary(n);
    // Objective: minimise recomputation cost = sum c_i (1 - v_i)  <=> minimise -c_i v_i.
    for (i, a) in analyzed.iter().enumerate() {
        let cost = if a.recomputable {
            a.flops.max(1.0)
        } else {
            1e15
        };
        ilp.set_objective(i, -cost);
    }
    // One constraint per timeline position (memory-measurement sequence).
    for t in 0..=horizon {
        let base: f64 = intervals
            .iter()
            .filter(|iv| iv.start <= t && t <= iv.end)
            .map(|iv| iv.bytes as f64)
            .sum();
        let mut row = vec![0.0; n];
        let mut constant = base;
        for (i, a) in analyzed.iter().enumerate() {
            // store contribution: S_i * v_i over [producer, last backward read]
            let store_alive = a.producer_item <= t && t <= a.last_backward_reader;
            // recompute contribution: S_i over [producer, last_fwd_read] and
            // (S_i + R_i) over [first_bwd_read, last_bwd_read], times (1 - v_i)
            let rec_alive_fwd = a.producer_item <= t && t <= a.last_forward_reader;
            let rec_alive_bwd = a.first_backward_reader <= t && t <= a.last_backward_reader;
            let s = a.size_bytes as f64;
            let r = a.overhead_bytes as f64;
            let store_term = if store_alive { s } else { 0.0 };
            let rec_term =
                if rec_alive_fwd { s } else { 0.0 } + if rec_alive_bwd { s + r } else { 0.0 };
            // m_t += store_term * v_i + rec_term * (1 - v_i)
            constant += rec_term;
            row[i] += store_term - rec_term;
        }
        ilp.add_le_constraint(row, memory_limit_bytes as f64 - constant);
    }
    let sol = ilp.solve();
    if sol.status != IlpStatus::Optimal {
        // Infeasible even with maximal recomputation: recompute everything
        // recomputable (cheapest-memory configuration).
        let stored = analyzed
            .iter()
            .filter(|a| !a.recomputable)
            .map(|a| a.array.clone())
            .collect();
        return (stored, sol.nodes_explored, false);
    }
    let mut stored = BTreeSet::new();
    for (i, a) in analyzed.iter().enumerate() {
        if sol.values[i] > 0.5 || !a.recomputable {
            stored.insert(a.array.clone());
        }
    }
    (stored, sol.nodes_explored, true)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::reverse::generate_backward;
    use dace_frontend::{ArrayExpr, ProgramBuilder};

    /// The motivating example of Listing 1: three sin() sites whose inputs
    /// A0/A1/A2 must be forwarded; the two scalings of D are materialised as
    /// the transients D1 and D2 (an SSA rendering of the in-place updates,
    /// preserving the paper's S/R/c cost structure — see EXPERIMENTS.md).
    pub(crate) fn listing1() -> dace_sdfg::Sdfg {
        let mut b = ProgramBuilder::new("listing1");
        let n = b.symbol("N");
        b.add_input("C", vec![n.clone(), n.clone()]).unwrap();
        b.add_input("D", vec![n.clone(), n.clone()]).unwrap();
        for t in ["A0", "A1", "A2", "sin0", "sin1", "sin2", "D1", "D2", "tmp"] {
            b.add_transient(t, vec![n.clone(), n.clone()]).unwrap();
        }
        b.add_scalar("OUT").unwrap();
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
        b.sum_into("OUT", "tmp", false);
        b.build().unwrap()
    }

    fn symbols(n: i64) -> HashMap<String, i64> {
        let mut m = HashMap::new();
        m.insert("N".to_string(), n);
        m
    }

    #[test]
    fn listing1_has_three_sin_candidates() {
        let fwd = listing1();
        let plan = generate_backward(&fwd, "OUT", &["C", "D"]).unwrap();
        for a in ["A0", "A1", "A2"] {
            assert!(
                plan.candidates.iter().any(|c| c.array == a),
                "{a} should be a store/recompute candidate"
            );
        }
    }

    #[test]
    fn recompute_all_builds_slices_and_hints() {
        let fwd = listing1();
        let mut plan = generate_backward(&fwd, "OUT", &["C", "D"]).unwrap();
        let report =
            apply_strategy(&mut plan, &CheckpointStrategy::RecomputeAll, &symbols(8)).unwrap();
        assert!(report.recomputed.contains(&"A0".to_string()));
        assert!(report.recomputed.contains(&"A2".to_string()));
        assert!(!plan.free_hints.is_empty());
        assert!(plan
            .sdfg
            .validate()
            .iter()
            .all(|d| d.severity != dace_sdfg::Severity::Error));
        // Recomputing A2 costs more than recomputing A0 (longer dependency chain).
        let c0 = report.costs.iter().find(|c| c.array == "A0").unwrap();
        let c2 = report.costs.iter().find(|c| c.array == "A2").unwrap();
        assert!(c2.recompute_flops > c0.recompute_flops);
        assert!(c2.recompute_overhead_bytes > c0.recompute_overhead_bytes);
    }

    #[test]
    fn ilp_prefers_storing_under_loose_limit() {
        let fwd = listing1();
        let mut plan = generate_backward(&fwd, "OUT", &["C", "D"]).unwrap();
        let report = apply_strategy(
            &mut plan,
            &CheckpointStrategy::Ilp {
                memory_limit_bytes: usize::MAX / 2,
            },
            &symbols(8),
        )
        .unwrap();
        assert!(report.feasible);
        for a in ["A0", "A1", "A2"] {
            assert!(
                report.stored.contains(&a.to_string()),
                "{a} should be stored"
            );
        }
    }

    #[test]
    fn ilp_recomputes_cheapest_under_tight_limit() {
        let fwd = listing1();
        // First measure the store-all predicted peak, then set the limit just
        // below it so at least one candidate must be recomputed.
        let mut probe = generate_backward(&fwd, "OUT", &["C", "D"]).unwrap();
        let store_all =
            apply_strategy(&mut probe, &CheckpointStrategy::StoreAll, &symbols(16)).unwrap();
        let one_array = array_bytes(&probe.sdfg, "A0", &symbols(16));
        let limit = store_all.predicted_peak_bytes - one_array / 2;

        let mut plan = generate_backward(&fwd, "OUT", &["C", "D"]).unwrap();
        let report = apply_strategy(
            &mut plan,
            &CheckpointStrategy::Ilp {
                memory_limit_bytes: limit,
            },
            &symbols(16),
        )
        .unwrap();
        assert!(report.feasible, "the limit admits recomputing one array");
        assert!(!report.recomputed.is_empty());
        // The ILP must not pick the most expensive candidate (A2, whose slice
        // re-runs the whole chain) when cheaper ones satisfy the limit (§IV-A).
        assert!(
            !report.recomputed.contains(&"A2".to_string()),
            "A2 is the most expensive recomputation and should stay stored, got {:?}",
            report.recomputed
        );
        assert!(report.predicted_peak_bytes <= limit);
        // The recomputation cost model follows the paper's chain structure.
        let c0 = report.costs.iter().find(|c| c.array == "A0").unwrap();
        let c1 = report.costs.iter().find(|c| c.array == "A1").unwrap();
        let c2 = report.costs.iter().find(|c| c.array == "A2").unwrap();
        assert!(c1.recompute_flops > c0.recompute_flops);
        assert!(c2.recompute_flops > c1.recompute_flops);
        assert_eq!(c0.recompute_overhead_bytes, 0);
        assert!(c1.recompute_overhead_bytes > 0);
        assert!(c2.recompute_overhead_bytes > c1.recompute_overhead_bytes);
    }

    #[test]
    fn manual_strategy_respects_choice() {
        let fwd = listing1();
        let mut plan = generate_backward(&fwd, "OUT", &["C", "D"]).unwrap();
        let report = apply_strategy(
            &mut plan,
            &CheckpointStrategy::Manual {
                store: vec!["A1".into(), "A2".into()],
            },
            &symbols(8),
        )
        .unwrap();
        assert!(report.stored.contains(&"A1".to_string()));
        assert!(report.recomputed.contains(&"A0".to_string()));
    }
}
