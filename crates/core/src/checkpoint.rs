//! ILP-based automatic checkpointing (Section IV of the paper).
//!
//! Candidates are forwarded containers: transients produced in straight-line
//! code whose values the backward pass reads directly.  *Storing* a candidate
//! keeps it alive from the forward pass into the backward pass; *recomputing*
//! it frees it after its last forward use and re-runs its producer slice in
//! the backward pass right before its first backward use, on versioned `rc_*`
//! temporaries for the intermediates.
//!
//! # One table, four readings
//!
//! When a container is alive is stated once.  [`apply_strategy`] walks the
//! top-level timeline of the gradient program once (`Timeline::walk`: what
//! each item reads and writes), describes every candidate's slice against it
//! without touching the SDFG (`Timeline::slice`), and builds one table of
//! lifetimes (`Timeline::table`) over the measurement points: the items, plus
//! the steps of each recomputable candidate's slice where they would run.
//! The rule behind every row: a transient is born in the first item that
//! references it and is dead after the last one **if that item is
//! straight-line, otherwise at the end of the run** — a state inside a loop
//! or a branch may run again, or not at all, so nothing is released after it.
//! A recomputable candidate has its lifetimes twice, once per decision; a
//! slice's temporaries live over their own steps.  Everything else reads it:
//!
//! 1. the **memory-measurement sequence** of §IV-A, `m_t = const_t + Σ_i
//!    (store_i(t)·v_i + rec_i(t)·(1 − v_i))` per point (`Sequence`);
//! 2. the **ILP rows** `m_t ≤ limit`, minimising the recomputation FLOPs
//!    (`solve_ilp`) — every strategy is a decision vector `v`, the ILP
//!    merely computes its own;
//! 3. **`predicted_peak_bytes`**, `max_t m_t` at the chosen vector;
//! 4. the **free hints**: a lifetime that holds under the chosen vector and
//!    ends before the run does frees its container after the last state of
//!    the point it ends at (`Table::hints`).
//!
//! Only the slices of the candidates the vector recomputes become states and
//! `rc_*` arrays (`materialize`).  The executor allocates a transient when a
//! state first references it and releases it exactly where a hint says, so
//! the prediction is the peak its memory tracker observes (a branch that is
//! not taken allocates less than predicted, never more).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::{Duration, Instant};

use dace_ilp::{IlpProblem, IlpStatus};
use dace_sdfg::{ArrayDesc, ControlFlow, DataflowGraph, DfNode, Sdfg, State};

use crate::reverse::{AdError, BackwardPlan};
use crate::CheckpointStrategy;

/// A store/recompute candidate discovered during reversal.
#[derive(Clone, Debug, PartialEq)]
pub struct RecomputeCandidate {
    /// The transient container name.
    pub array: String,
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

/// Apply a checkpointing strategy to a plan, mutating its SDFG (recompute
/// blocks, free hints) and returning the report.
pub fn apply_strategy(
    plan: &mut BackwardPlan,
    strategy: &CheckpointStrategy,
    symbols: &HashMap<String, i64>,
) -> Result<CheckpointReport, AdError> {
    let timeline = Timeline::walk(plan)?;
    let mut rc_names = BTreeSet::new();
    let candidates: Vec<Candidate> = (plan.candidates.iter())
        .map(|c| Candidate {
            array: c.array.clone(),
            slice: timeline.slice(&plan.sdfg, &c.array, symbols, &mut rc_names),
        })
        .collect();
    let mut table = timeline.table(&plan.sdfg, &candidates, symbols);
    let sequence = Sequence::read(&table, candidates.len());

    // A strategy is a decision vector: `store[i]` for candidate `i`.
    let mut report = CheckpointReport {
        feasible: true,
        ..CheckpointReport::default()
    };
    let must_store = candidates.iter().map(|c| c.slice.is_none());
    let store: Vec<bool> = match strategy {
        CheckpointStrategy::StoreAll => vec![true; candidates.len()],
        CheckpointStrategy::RecomputeAll => must_store.collect(),
        CheckpointStrategy::Manual { store } => must_store
            .zip(&candidates)
            .map(|(must, c)| must || store.contains(&c.array))
            .collect(),
        CheckpointStrategy::Ilp { memory_limit_bytes } => {
            report.memory_limit_bytes = Some(*memory_limit_bytes);
            let start = Instant::now();
            let (store, nodes, feasible) = solve_ilp(&sequence, &candidates, *memory_limit_bytes);
            report.solve_time = start.elapsed();
            report.solver_nodes = nodes;
            report.feasible = feasible;
            store
        }
    };

    report.predicted_peak_bytes = sequence.peak(&store);
    for (c, &stored) in candidates.iter().zip(&store) {
        report.costs.push(CandidateCost {
            array: c.array.clone(),
            size_bytes: array_bytes(&plan.sdfg, &c.array, symbols),
            recompute_flops: c.slice.as_ref().map_or(0.0, |s| s.flops),
            recompute_overhead_bytes: c.slice.as_ref().map_or(0, |s| s.overhead),
            recomputable: c.slice.is_some(),
        });
        if stored {
            report.stored.push(c.array.clone());
        } else {
            report.recomputed.push(c.array.clone());
            plan.recomputed.push(c.array.clone());
        }
    }
    materialize(plan, &candidates, &store, &mut table)?;
    plan.free_hints = table.hints(&store);
    Ok(report)
}

fn array_bytes(sdfg: &Sdfg, array: &str, symbols: &HashMap<String, i64>) -> usize {
    let bytes = sdfg.arrays.get(array).map(|d| d.size_bytes(symbols));
    bytes.and_then(Result::ok).unwrap_or(0).max(0) as usize
}

// ---------------------------------------------------------------------------
// the timeline, and the candidates read against it
// ---------------------------------------------------------------------------

/// The items (ascending) that read an array, and the `(item, state)` pairs
/// that write it.
#[derive(Default)]
struct Uses {
    reads: Vec<usize>,
    writes: Vec<(usize, usize)>,
}

/// One walk over the top-level sequence of the gradient program.
struct Timeline {
    /// Per item: its last state, if it is straight-line (plain states only)
    /// and so may be followed by a free; `None` for a loop or a branch.
    frees_after: Vec<Option<usize>>,
    uses: BTreeMap<String, Uses>,
    /// The states a recompute slice may re-run — those of straight-line
    /// forward items that write one array — with their place in program
    /// order and the arrays they read.
    producers: HashMap<usize, (usize, Vec<String>)>,
    /// Index of the gradient-seed item: the forward half lies before it.
    backward_start: usize,
}

/// Whether `cf` consists of plain states only; the arrays its branch
/// conditions read are collected on the way.
fn straight_line(cf: &ControlFlow, conditions: &mut BTreeSet<String>) -> bool {
    match cf {
        ControlFlow::State(_) => true,
        // Every child is visited, for its conditions.
        ControlFlow::Sequence(children) => {
            let bent = children.iter().filter(|c| !straight_line(c, conditions));
            bent.count() == 0
        }
        ControlFlow::Loop(l) => {
            straight_line(&l.body, conditions);
            false
        }
        ControlFlow::Branch(b) => {
            conditions.extend(b.cond.referenced_arrays());
            straight_line(&b.then_body, conditions);
            if let Some(e) = &b.else_body {
                straight_line(e, conditions);
            }
            false
        }
    }
}

impl Timeline {
    /// The one place that asks the states what they read and write.
    fn walk(plan: &BackwardPlan) -> Result<Self, AdError> {
        let ControlFlow::Sequence(top) = &plan.sdfg.cfg else {
            return Err(AdError::Malformed(
                "gradient SDFG has no top-level sequence".into(),
            ));
        };
        let mut timeline = Timeline {
            frees_after: Vec::with_capacity(top.len()),
            uses: BTreeMap::new(),
            producers: HashMap::new(),
            backward_start: plan.backward_start_index,
        };
        for (t, item) in top.iter().enumerate() {
            let mut conditions = BTreeSet::new();
            let straight = straight_line(item, &mut conditions);
            let states = item.states_in_order();
            (timeline.frees_after).push(states.last().copied().filter(|_| straight));
            let uses = &mut timeline.uses;
            for array in conditions {
                uses.entry(array).or_default().reads.push(t);
            }
            for state in states {
                let graph = &plan.sdfg.states[state].graph;
                let reads: Vec<String> = graph.read_arrays().into_iter().collect();
                let writes = graph.written_arrays();
                for array in &reads {
                    uses.entry(array.clone()).or_default().reads.push(t);
                }
                for array in &writes {
                    let entry = uses.entry(array.clone()).or_default();
                    entry.writes.push((t, state));
                }
                if straight && t < timeline.backward_start && writes.len() == 1 {
                    let order = timeline.producers.len();
                    timeline.producers.insert(state, (order, reads));
                }
            }
        }
        Ok(timeline)
    }

    /// Describe the recomputation slice of `target` (§IV-A), if it has one:
    /// the candidate is recomputed *from the program inputs*, re-running its
    /// transitive producer chain in program order with every transient
    /// intermediate renamed to a fresh `rc_*` temporary (`rc_names` reserves
    /// the names; nothing else is touched).  It has one if it is written once
    /// in the forward half and read in the backward half; everything up to
    /// its producer is straight-line, and so is its last forward reader (the
    /// forward copy can be released); each array of the chain is written
    /// exactly once, by such a state that writes nothing else; and no program
    /// input the chain reads is ever overwritten.
    fn slice<'a>(
        &'a self,
        sdfg: &Sdfg,
        target: &'a str,
        symbols: &HashMap<String, i64>,
        rc_names: &mut BTreeSet<String>,
    ) -> Option<Slice> {
        let uses = self.uses.get(target)?;
        let forward = |t: &usize| *t < self.backward_start;
        let written: Vec<usize> = (uses.writes.iter().map(|w| w.0).filter(forward)).collect();
        let &[producer] = &written[..] else {
            return None;
        };
        let before = *uses.reads.iter().find(|&&t| t > self.backward_start)?;
        let reader = uses.reads.iter().rev().find(|&t| forward(t));
        let after = reader.map_or(producer, |&t| t.max(producer));
        let straight = |t: usize| self.frees_after[t].is_some();
        if !(0..=producer).all(straight) || !straight(after) {
            return None;
        }

        let mut chain: BTreeMap<usize, Step> = BTreeMap::new();
        let mut work: Vec<&str> = vec![target];
        while let Some(array) = work.pop() {
            let [(_, state)] = self.uses.get(array)?.writes[..] else {
                return None;
            };
            let (order, reads) = self.producers.get(&state)?;
            let array = array.to_string();
            if chain.insert(*order, Step { state, array }).is_some() {
                continue;
            }
            for dep in reads {
                if sdfg.arrays.get(dep)?.transient {
                    work.push(dep);
                } else if self.uses.get(dep).is_some_and(|u| !u.writes.is_empty()) {
                    return None;
                }
            }
        }
        let steps: Vec<Step> = chain.into_values().collect();
        if steps.last()?.array != target {
            return None;
        }

        let reads = |s: &Step, array: &String| self.producers[&s.state].1.contains(array);
        let (mut flops, mut temporaries) = (0.0, Vec::new());
        for (k, step) in steps.iter().enumerate() {
            flops += sdfg.states[step.state].graph.flop_estimate(symbols);
            if step.array == target {
                continue;
            }
            let name = (0usize..)
                .map(|n| match n {
                    0 => format!("rc_{}", step.array),
                    n => format!("rc_{}_{n}", step.array),
                })
                .find(|n| !sdfg.arrays.contains_key(n) && !rc_names.contains(n))?;
            rc_names.insert(name.clone());
            let first_read = steps.iter().position(|s| reads(s, &step.array));
            let last_read = steps.iter().rposition(|s| reads(s, &step.array));
            temporaries.push(Temporary {
                of: step.array.clone(),
                bytes: array_bytes(sdfg, &step.array, symbols),
                born: first_read.map_or(k, |r| r.min(k)),
                dies: last_read.map_or(k, |r| r.max(k)),
                name,
            });
        }
        // `R_i`: the most the temporaries hold at any one step.
        let held = |k: usize| {
            let alive = temporaries.iter().filter(|t| t.born <= k && k <= t.dies);
            alive.map(|t| t.bytes).sum::<usize>()
        };
        Some(Slice {
            overhead: (0..steps.len()).map(held).max().unwrap_or(0),
            after,
            before,
            steps,
            temporaries,
            flops,
        })
    }
}

/// A candidate read against the timeline; without a slice it is not
/// recomputable and always stored.
struct Candidate {
    array: String,
    slice: Option<Slice>,
}

/// Description of a recomputation slice; nothing of it is in the SDFG until
/// `materialize` puts it there.
struct Slice {
    /// Item of the last forward reader, after which the candidate is freed.
    after: usize,
    /// Item of the first backward reader, before which the slice runs.
    before: usize,
    /// Producer states to re-run, in program order, each with the array of
    /// the chain it writes; the last writes the candidate itself.
    steps: Vec<Step>,
    temporaries: Vec<Temporary>,
    /// `c_i`: summed FLOP estimate of the steps.
    flops: f64,
    /// `R_i`.
    overhead: usize,
}

struct Step {
    state: usize,
    array: String,
}

/// The versioned temporary `name` of the intermediate `of`, alive from step
/// `born` to step `dies` of its slice.
struct Temporary {
    of: String,
    name: String,
    bytes: usize,
    born: usize,
    dies: usize,
}

// ---------------------------------------------------------------------------
// the table and its readings
// ---------------------------------------------------------------------------

/// Under which decision a lifetime exists: always, or if candidate `i` is
/// stored (`true`) / recomputed (`false`).
#[derive(Clone, Copy)]
enum When {
    Always,
    If(usize, bool),
}

/// One stretch of measurement points over which a transient holds memory.
struct Lifetime {
    array: String,
    bytes: usize,
    when: When,
    born: usize,
    /// The point it is dead after; `None`: alive to the end of the run.
    dies: Option<usize>,
}

struct Table {
    /// Per measurement point the state a free may follow: an item's last
    /// state, if the item is straight-line; a slice step's state, once
    /// `materialize` has put it into the SDFG.
    frees_after: Vec<Option<usize>>,
    /// Per candidate the point of its slice's first step.
    slice_at: Vec<usize>,
    /// Bytes of the non-transient containers, alive throughout.
    fixed: usize,
    lifetimes: Vec<Lifetime>,
}

impl Timeline {
    fn table(
        &self,
        sdfg: &Sdfg,
        candidates: &[Candidate],
        symbols: &HashMap<String, i64>,
    ) -> Table {
        // The points: every item, and before the item that first reads a
        // recomputable candidate in the backward pass the steps of its slice
        // (later candidates first, which is how `materialize` splices).
        let mut frees_after = Vec::new();
        let mut item_at = Vec::with_capacity(self.frees_after.len());
        let mut slice_at = vec![0; candidates.len()];
        for (t, &state) in self.frees_after.iter().enumerate() {
            for (i, c) in candidates.iter().enumerate().rev() {
                if let Some(slice) = c.slice.as_ref().filter(|s| s.before == t) {
                    slice_at[i] = frees_after.len();
                    frees_after.resize(slice_at[i] + slice.steps.len(), None);
                }
            }
            item_at.push(frees_after.len());
            frees_after.push(state);
        }
        // The rule: dead after the last referencing item if that item is
        // straight-line, otherwise at the end of the run.
        let dead_after = |t: usize| self.frees_after[t].map(|_| item_at[t]);

        let mut fixed = 0;
        let mut lifetimes = Vec::new();
        for (name, desc) in &sdfg.arrays {
            let bytes = array_bytes(sdfg, name, symbols);
            if !desc.transient {
                fixed += bytes;
                continue;
            }
            let Some(uses) = self.uses.get(name) else {
                continue;
            };
            let items = (uses.reads.iter().copied()).chain(uses.writes.iter().map(|w| w.0));
            let (Some(first), Some(last)) = (items.clone().min(), items.max()) else {
                continue;
            };
            let life = |when, born, dies| Lifetime {
                array: name.clone(),
                bytes,
                when,
                born,
                dies,
            };
            let recomputable = (candidates.iter().enumerate())
                .find_map(|(i, c)| Some((i, c.slice.as_ref()?)).filter(|_| c.array == *name));
            let Some((i, slice)) = recomputable else {
                lifetimes.push(life(When::Always, item_at[first], dead_after(last)));
                continue;
            };
            // Stored: one lifetime.  Recomputed: released after the last
            // forward reader and born again in the slice's last step.
            let (recomputed, at) = (When::If(i, false), slice_at[i]);
            let reborn = at + slice.steps.len() - 1;
            lifetimes.push(life(When::If(i, true), item_at[first], dead_after(last)));
            lifetimes.push(life(recomputed, item_at[first], dead_after(slice.after)));
            lifetimes.push(life(recomputed, reborn, dead_after(last)));
            lifetimes.extend(slice.temporaries.iter().map(|t| Lifetime {
                array: t.name.clone(),
                bytes: t.bytes,
                when: recomputed,
                born: at + t.born,
                dies: Some(at + t.dies),
            }));
        }
        Table {
            frees_after,
            slice_at,
            fixed,
            lifetimes,
        }
    }
}

impl Table {
    /// The free hints: every lifetime that holds under `store` and ends
    /// before the run does releases its container after the last state of
    /// the point it ends at.
    fn hints(&self, store: &[bool]) -> HashMap<usize, Vec<String>> {
        let mut hints: HashMap<usize, Vec<String>> = HashMap::new();
        for l in &self.lifetimes {
            let holds = match l.when {
                When::Always => true,
                When::If(i, stored) => store[i] == stored,
            };
            if let (true, Some(state)) = (holds, l.dies.and_then(|p| self.frees_after[p])) {
                hints.entry(state).or_default().push(l.array.clone());
            }
        }
        hints
    }
}

/// The memory-measurement sequence: per point `t` the bytes alive as a
/// linear function of the decision vector, `m_t = constant[t] + Σ_i
/// decided[i][v_i][t]` — `decided[i][1]` is `store_i`, `decided[i][0]` `rec_i`.
struct Sequence {
    constant: Vec<usize>,
    decided: Vec<[Vec<usize>; 2]>,
}

impl Sequence {
    fn read(table: &Table, candidates: usize) -> Self {
        let points = table.frees_after.len();
        let mut sequence = Sequence {
            constant: vec![table.fixed; points],
            decided: vec![[vec![0; points], vec![0; points]]; candidates],
        };
        for l in &table.lifetimes {
            let row = match l.when {
                When::Always => &mut sequence.constant,
                When::If(i, stored) => &mut sequence.decided[i][stored as usize],
            };
            for m in &mut row[l.born..=l.dies.unwrap_or(points - 1)] {
                *m += l.bytes;
            }
        }
        sequence
    }

    /// `max_t m_t` at a decision vector.  A slice step of a stored candidate
    /// is no point of the run; it reads what is alive between its
    /// neighbours, which is no more than either of them.
    fn peak(&self, store: &[bool]) -> usize {
        let decided = |t| (store.iter().zip(&self.decided)).map(move |(&v, d)| d[v as usize][t]);
        let m = |t: usize| self.constant[t] + decided(t).sum::<usize>();
        (0..self.constant.len()).map(m).max().unwrap_or(0)
    }
}

/// Build and solve the ILP of Section IV over the sequence: one binary
/// variable per recomputable candidate (the others are constants of the
/// sequence), `m_t ≤ limit` per point, minimal recomputation FLOPs.  Returns
/// the decision vector, the solver node count and whether the limit was met.
fn solve_ilp(
    sequence: &Sequence,
    candidates: &[Candidate],
    memory_limit_bytes: usize,
) -> (Vec<bool>, usize, bool) {
    let vars: Vec<(usize, &Slice)> = (candidates.iter().enumerate())
        .filter_map(|(i, c)| Some((i, c.slice.as_ref()?)))
        .collect();
    let mut ilp = IlpProblem::binary(vars.len());
    // Minimise Σ c_i (1 − v_i), i.e. −Σ c_i v_i.
    for (k, (_, slice)) in vars.iter().enumerate() {
        ilp.set_objective(k, -slice.flops.max(1.0));
    }
    let limit = memory_limit_bytes as f64;
    for t in 0..sequence.constant.len() {
        // m_t = floor + Σ_i (store_i(t) − rec_i(t))·v_i
        let decided = vars.iter().map(|(i, _)| &sequence.decided[*i]);
        let floor = sequence.constant[t] + decided.clone().map(|d| d[0][t]).sum::<usize>();
        let row: Vec<f64> = decided.map(|d| d[1][t] as f64 - d[0][t] as f64).collect();
        // A point no decision can push over the limit constrains nothing.
        let worst = floor as f64 + row.iter().filter(|&&c| c > 0.0).sum::<f64>();
        if worst > limit {
            ilp.add_le_constraint(row, limit - floor as f64);
        }
    }
    let solution = ilp.solve();
    let feasible = solution.status == IlpStatus::Optimal;
    // Infeasible even with maximal recomputation: recompute everything
    // recomputable (the cheapest-memory configuration).
    let mut store: Vec<bool> = candidates.iter().map(|c| c.slice.is_none()).collect();
    for (k, (i, _)) in vars.iter().enumerate() {
        store[*i] = feasible && solution.values[k] > 0.5;
    }
    (store, solution.nodes_explored, feasible)
}

/// Put the slices of the recomputed candidates into the SDFG — their `rc_*`
/// arrays, their states, and the states' place in the top-level sequence —
/// and the new states into the table's points.
fn materialize(
    plan: &mut BackwardPlan,
    candidates: &[Candidate],
    store: &[bool],
    table: &mut Table,
) -> Result<(), AdError> {
    let mut insertions: Vec<(usize, Vec<ControlFlow>)> = Vec::new();
    for (i, c) in candidates.iter().enumerate() {
        let (false, Some(slice)) = (store[i], &c.slice) else {
            continue;
        };
        let mut renames = BTreeMap::new();
        for t in &slice.temporaries {
            let desc = ArrayDesc {
                transient: true,
                ..plan.sdfg.arrays[&t.of].clone()
            };
            (plan.sdfg.add_array(t.name.clone(), desc))
                .map_err(|e| AdError::Malformed(e.to_string()))?;
            renames.insert(t.of.clone(), t.name.clone());
        }
        let mut states = Vec::new();
        for (k, step) in slice.steps.iter().enumerate() {
            let name = format!("recompute_{}", step.array);
            let mut graph = plan.sdfg.states[step.state].graph.clone();
            rename_arrays(&mut graph, &renames);
            let state = plan.sdfg.add_state(State { name, graph });
            table.frees_after[table.slice_at[i] + k] = Some(state);
            states.push(ControlFlow::State(state));
        }
        insertions.push((slice.before, states));
    }
    let ControlFlow::Sequence(top) = &mut plan.sdfg.cfg else {
        unreachable!("`Timeline::walk` read the top-level sequence");
    };
    // Back to front, so the indices stay valid; of two slices before the
    // same item the later candidate's runs first.
    insertions.sort_by_key(|(item, _)| std::cmp::Reverse(*item));
    for (item, states) in insertions {
        top.splice(item..item, states);
    }
    Ok(())
}

/// Rename array references (access nodes and memlets) in a dataflow graph.
fn rename_arrays(graph: &mut DataflowGraph, renames: &BTreeMap<String, String>) {
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::reverse::generate_backward;
    use dace_frontend::{ArrayExpr, ProgramBuilder};

    /// The motivating example of Listing 1: three sin() sites whose inputs
    /// A0/A1/A2 must be forwarded; the two scalings of D are materialised as
    /// the transients D1 and D2 (an SSA rendering of the in-place updates,
    /// preserving the paper's S/R/c cost structure).
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
