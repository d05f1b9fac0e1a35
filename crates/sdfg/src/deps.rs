//! Affine dependence and race analysis for map scopes.
//!
//! [`analyze_map`] decides whether a map body may execute its iterations
//! concurrently.  It is a diagnostic that runs when asked (`npbench
//! --verify`, CI, the benchmark's probe), not a stage of `compile()`: the
//! runtime walks a map's points in order on one thread, so nothing routes on
//! the verdict.  The model is snapshot execution: every iteration evaluates
//! tasklets against an immutable snapshot of the arrays and buffers its
//! writes, which are applied afterwards in flat iteration order.
//! Concurrent execution is therefore bit-identical to sequential execution
//! iff
//!
//! * no iteration *reads* a location that a different iteration writes
//!   (snapshot reads would observe the pre-map value instead), and
//! * no iteration reads a location that an *earlier tasklet of the same
//!   iteration* wrote (snapshot reads don't see intra-iteration writes
//!   either), and
//! * no two iterations write the same location through plain (non-WCR)
//!   writes — overlapping `Wcr::Sum` writes commute with the buffered
//!   in-order application and classify as [`ParVerdict::Reduction`].
//!
//! Every access is decomposed into an affine form `rest + Σ cᵢ·paramᵢ` per
//! dimension (building on [`SymExpr::affine_in`]); range dimensions
//! contribute their start index, which is exactly what the runtime reads.
//! Pairs of accesses are then separated with standard dependence tests —
//! GCD, bounds differences over the concrete iteration box, and an exact
//! injectivity decision (fraction-free Gaussian elimination over the
//! coefficient matrix) for self-overlap — with a brute-force enumeration
//! fallback for small concrete domains.  Anything the algebra cannot
//! decide degrades to [`ParVerdict::Unknown`]; `Safe` is only ever returned
//! on proof.

use std::collections::HashMap;
use std::fmt;

use crate::graph::{DfNode, MapScope};
use crate::memlet::{IndexRange, Memlet, Subset, Wcr};
use crate::symexpr::SymExpr;

/// Domains small enough to decide pairwise overlap by exact enumeration.
const ENUM_CAP: usize = 4096;

/// The analyzer's judgement of a map scope.
#[derive(Clone, Debug, PartialEq)]
pub enum ParVerdict {
    /// No cross-iteration conflict exists: parallel execution is
    /// bit-identical to sequential execution.
    Safe,
    /// The only cross-iteration conflicts are `Wcr::Sum` accumulations
    /// into common locations; applied in iteration order, parallel
    /// execution stays bit-identical.
    Reduction,
    /// A conflicting access pair was proven: parallel execution would
    /// diverge from sequential execution.
    Race(Box<Conflict>),
    /// The analysis could not prove safety (non-affine subsets, unresolved
    /// symbols, nested maps or library nodes, ...).
    Unknown,
}

impl fmt::Display for ParVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParVerdict::Safe => write!(f, "safe"),
            ParVerdict::Reduction => write!(f, "reduction"),
            ParVerdict::Race(c) => write!(f, "race({c})"),
            ParVerdict::Unknown => write!(f, "unknown"),
        }
    }
}

/// A proven conflicting access pair.
#[derive(Clone, Debug, PartialEq)]
pub struct Conflict {
    pub array: String,
    /// Rendered memlet of the write side.
    pub first: String,
    /// Rendered memlet of the other access.
    pub second: String,
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}` vs `{}`", self.first, self.second)
    }
}

/// One subset decomposed as affine functions of the map parameters:
/// dimension `d` accesses `rests[d] + Σ_p coeffs[d][p] · param_p`.
#[derive(Clone, Debug, PartialEq)]
pub struct AffineAccess {
    /// Per-dimension coefficient of each map parameter.
    pub coeffs: Vec<Vec<i64>>,
    /// Per-dimension loop-invariant remainder (free of map parameters).
    pub rests: Vec<SymExpr>,
}

/// Decompose every dimension of `subset` as an affine function of
/// `params`.  Range dimensions contribute their start index (the runtime
/// reads ranges at their start).  Returns `None` when any dimension is not
/// affine (division/remainder/min/max over a parameter, or a symbolic
/// coefficient).  Whole-array subsets have no dimensions to decompose and
/// are NOT handled here — see [`analyze_map`]'s scalar-access treatment.
pub fn affine_subset(subset: &Subset, params: &[String]) -> Option<AffineAccess> {
    let mut coeffs = Vec::with_capacity(subset.0.len());
    let mut rests = Vec::with_capacity(subset.0.len());
    for r in &subset.0 {
        let e = match r {
            IndexRange::Index(e) => e,
            IndexRange::Range { start, .. } => start,
        };
        let mut cs = Vec::with_capacity(params.len());
        let mut rest = e.clone();
        // Peel only the parameters the dimension mentions: an index rarely
        // names more than one, and each peel rebuilds the expression.
        for p in params {
            if !rest.references(p) {
                cs.push(0);
                continue;
            }
            let (c, rem) = rest.affine_in(p)?;
            cs.push(c);
            rest = rem;
        }
        if params.iter().any(|p| rest.references(p)) {
            return None;
        }
        coeffs.push(cs);
        rests.push(rest.simplified());
    }
    Some(AffineAccess { coeffs, rests })
}

/// Whether the read/write relation between two accesses, decomposed in the
/// same loop variables (the iterators of one loop nest), is statically
/// decidable along each of them: the ranks agree, and in every dimension
/// the two either move with a *different* stride along every variable, or
/// with the same stride along every variable and a compile-time constant
/// offset between them.  (With distinct strides the pair is a moving/fixed
/// or differently-strided relation whose live in-order reads the
/// specialized loop preserves exactly; with equal strides a symbolic offset
/// could be anything, and with strides equal along one variable only the
/// offset along it moves with the others, so the relation is undecidable.)
/// This is the single-variable rule applied to each variable in turn, the
/// others held as symbols.  The specialization tier uses it as its
/// aliasing precondition: an undecidable relation falls back to the VM.
pub fn alias_decidable(w: &AffineAccess, r: &AffineAccess) -> bool {
    if w.rests.len() != r.rests.len() {
        return false;
    }
    for d in 0..w.rests.len() {
        let same = w.coeffs[d].iter().zip(&r.coeffs[d]);
        match same.filter(|(w, r)| w == r).count() {
            0 => continue,
            n if n < w.coeffs[d].len() => return false,
            _ => {}
        }
        // Equal strides: the offset must be constant.  It is iff every free
        // symbol cancels out of the difference: peel them one by one via
        // `affine_in` (the simplifier alone does not cancel symbolic terms
        // across a subtraction).
        let mut diff =
            SymExpr::Sub(Box::new(r.rests[d].clone()), Box::new(w.rests[d].clone())).simplified();
        for s in diff.free_symbols() {
            let Some((c, rem)) = diff.affine_in(&s) else {
                return false;
            };
            if c != 0 {
                return false;
            }
            diff = rem;
        }
        if diff.eval_const().is_err() {
            return false;
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Internal access model.
// ---------------------------------------------------------------------------

/// How an access addresses its array.
#[derive(Clone, Debug)]
enum Pattern {
    /// Per-dimension affine function of the map parameters.
    Affine(AffineAccess),
    /// Whole-array subset: the runtime treats it as a scalar access of a
    /// length-1 container, i.e. one fixed location every iteration.
    Scalar,
    /// Not decomposable; the analysis cannot reason about it.
    Opaque,
}

/// One read or write collected from the map body.
struct Access {
    array: String,
    pattern: Pattern,
    /// `Wcr::Sum` write-conflict resolution (writes only).
    wcr: bool,
    /// Topological position of the tasklet this access belongs to.
    topo_pos: usize,
    /// Rendered memlet, for conflict reports.
    rendered: String,
}

/// Concrete per-parameter iteration domain (when resolvable).
struct Domain {
    /// Inclusive lower bound per parameter, when constant.
    lows: Vec<Option<i64>>,
    /// Trip count per parameter, when constant (clamped at 0).
    extents: Vec<Option<i64>>,
}

impl Domain {
    /// Parameters that can actually vary: unknown extent or extent >= 2.
    fn active(&self) -> Vec<usize> {
        (0..self.extents.len())
            .filter(|&p| self.extents[p].is_none_or(|n| n >= 2))
            .collect()
    }

    fn fully_concrete(&self) -> bool {
        self.lows.iter().all(Option::is_some) && self.extents.iter().all(Option::is_some)
    }

    fn total(&self) -> Option<usize> {
        self.extents
            .iter()
            .try_fold(1usize, |acc, e| acc.checked_mul((*e)? as usize))
    }
}

/// Result of a pairwise separation attempt.
#[derive(Clone, Copy, Debug, PartialEq)]
enum PairRelation {
    /// The two accesses can never touch the same location on the relevant
    /// iteration pairs.
    Disjoint,
    /// A conflicting iteration pair provably exists.
    Overlap,
    /// Could not decide either way.
    May,
}

// ---------------------------------------------------------------------------
// Map analysis.
// ---------------------------------------------------------------------------

/// Analyze one map scope under concrete symbol `bindings` (outer loop
/// iterators may be absent; anything unresolved degrades toward
/// [`ParVerdict::Unknown`], never toward an unsound `Safe`).
pub fn analyze_map(map: &MapScope, bindings: &HashMap<String, i64>) -> ParVerdict {
    // The model covers tasklet-only bodies; a body with nested maps or
    // library nodes is never admitted.
    if !map
        .body
        .nodes
        .iter()
        .all(|n| matches!(n, DfNode::Access(_) | DfNode::Tasklet(_)))
    {
        return ParVerdict::Unknown;
    }
    let Some(order) = map.body.topological_order() else {
        return ParVerdict::Unknown; // Cyclic: fails at runtime on any path.
    };
    let topo_pos: HashMap<usize, usize> = order.iter().enumerate().map(|(i, &n)| (n, i)).collect();

    if map.params.len() != map.ranges.len() {
        return ParVerdict::Unknown;
    }
    let domain = Domain {
        lows: map
            .ranges
            .iter()
            .map(|(s, _)| s.eval(bindings).ok())
            .collect(),
        extents: map
            .ranges
            .iter()
            .map(|(s, e)| {
                SymExpr::Sub(Box::new(e.clone()), Box::new(s.clone()))
                    .simplified()
                    .eval(bindings)
                    .ok()
                    .map(|n| n.max(0))
            })
            .collect(),
    };
    // A domain with at most one point cannot conflict across iterations,
    // and same-iteration ordering is identical on both paths.
    if let Some(total) = domain.total() {
        if total <= 1 {
            return ParVerdict::Safe;
        }
    }

    // Collect reads and writes the way the runtime does: any in-edge of a
    // tasklet reads `memlet.data`, any out-edge of a tasklet writes it.
    let mut reads: Vec<Access> = Vec::new();
    let mut writes: Vec<Access> = Vec::new();
    for e in &map.body.edges {
        if e.src >= map.body.nodes.len() || e.dst >= map.body.nodes.len() {
            return ParVerdict::Unknown; // Dangling edge: invalid body.
        }
        let src_tasklet = matches!(map.body.nodes[e.src], DfNode::Tasklet(_));
        let dst_tasklet = matches!(map.body.nodes[e.dst], DfNode::Tasklet(_));
        if !src_tasklet && !dst_tasklet {
            // Access-to-access copies are inert in this runtime (the body
            // evaluator moves no data for them), but be conservative about
            // shapes we don't model.
            return ParVerdict::Unknown;
        }
        let mk = |topo_node: usize| Access {
            array: e.memlet.data.clone(),
            pattern: pattern_of(&e.memlet, &map.params),
            wcr: matches!(e.memlet.wcr, Some(Wcr::Sum)),
            topo_pos: topo_pos.get(&topo_node).copied().unwrap_or(0),
            rendered: render_memlet(&e.memlet),
        };
        if dst_tasklet {
            reads.push(mk(e.dst));
        }
        if src_tasklet {
            writes.push(mk(e.src));
        }
    }

    // Pairwise classification: every write against every other access of
    // the same array (including itself, for cross-iteration self-overlap).
    let mut worst = ParVerdict::Safe;
    let mut raise = |v: ParVerdict| {
        let rank = |x: &ParVerdict| match x {
            ParVerdict::Safe => 0,
            ParVerdict::Reduction => 1,
            ParVerdict::Unknown => 2,
            ParVerdict::Race(_) => 3,
        };
        if rank(&v) > rank(&worst) {
            worst = v;
        }
    };
    for (wi, w) in writes.iter().enumerate() {
        // Write-write pairs (self pair included once): only distinct
        // iterations matter — same-iteration multi-writes are applied in
        // the same node order on both paths.
        for other in &writes[wi..] {
            if other.array != w.array {
                continue;
            }
            let rel = classify_pair(w, other, &domain, false, bindings);
            raise(pair_verdict(rel, w, other, w.wcr && other.wcr));
        }
        for r in &reads {
            if r.array != w.array {
                continue;
            }
            // A read scheduled after the write within one iteration sees
            // the new value sequentially but the stale snapshot in
            // parallel, so same-iteration coincidence also conflicts.
            let include_equal = w.topo_pos < r.topo_pos;
            let rel = classify_pair(w, r, &domain, include_equal, bindings);
            raise(pair_verdict(rel, w, r, false));
        }
    }
    worst
}

/// Map a pair relation to a verdict contribution.
fn pair_verdict(rel: PairRelation, w: &Access, other: &Access, both_wcr: bool) -> ParVerdict {
    match rel {
        PairRelation::Disjoint => ParVerdict::Safe,
        // Overlapping Sum-accumulations commute with the runtime's
        // in-iteration-order buffered application: a reduction, not a race.
        _ if both_wcr => ParVerdict::Reduction,
        PairRelation::Overlap => ParVerdict::Race(Box::new(Conflict {
            array: w.array.clone(),
            first: w.rendered.clone(),
            second: other.rendered.clone(),
        })),
        PairRelation::May => ParVerdict::Unknown,
    }
}

fn pattern_of(m: &Memlet, params: &[String]) -> Pattern {
    if m.subset.is_all() {
        return Pattern::Scalar;
    }
    match affine_subset(&m.subset, params) {
        Some(a) => Pattern::Affine(a),
        None => Pattern::Opaque,
    }
}

fn render_memlet(m: &Memlet) -> String {
    format!("{m}")
}

// ---------------------------------------------------------------------------
// Pairwise separation.
// ---------------------------------------------------------------------------

/// Classify the pair (`a` = write, `b` = other access).  The conflict
/// domain is all iteration pairs `I != I'`, plus `I = I'` when
/// `include_equal` is set.
fn classify_pair(
    a: &Access,
    b: &Access,
    domain: &Domain,
    include_equal: bool,
    bindings: &HashMap<String, i64>,
) -> PairRelation {
    match (&a.pattern, &b.pattern) {
        (Pattern::Opaque, _) | (_, Pattern::Opaque) => PairRelation::May,
        // A whole-array subset is a scalar access of a length-1 container:
        // one fixed location, touched by every iteration.  Any pair
        // involving one therefore collides on every iteration pair (an
        // element access of the same length-1 array also resolves to that
        // location; larger arrays fail at runtime on every path).
        (Pattern::Scalar, _) | (_, Pattern::Scalar) => {
            if domain.total().is_some() {
                // total >= 2 was established by the caller.
                PairRelation::Overlap
            } else {
                PairRelation::May
            }
        }
        (Pattern::Affine(pa), Pattern::Affine(pb)) => {
            affine_pair(pa, pb, domain, include_equal, bindings)
        }
    }
}

fn affine_pair(
    a: &AffineAccess,
    b: &AffineAccess,
    domain: &Domain,
    include_equal: bool,
    bindings: &HashMap<String, i64>,
) -> PairRelation {
    if a.rests.len() != b.rests.len() {
        return PairRelation::May; // Differently-ranked views of one array.
    }
    let dims = a.rests.len();
    let nparams = domain.extents.len();
    let active = domain.active();
    if active.is_empty() {
        // Single iteration point; only `I = I'` coincidence can conflict.
        if !include_equal {
            return PairRelation::Disjoint;
        }
    }

    // Per-dimension constant offsets `rest_b - rest_a`, where resolvable.
    let mut deltas: Vec<Option<i64>> = Vec::with_capacity(dims);
    for d in 0..dims {
        let diff =
            SymExpr::Sub(Box::new(b.rests[d].clone()), Box::new(a.rests[d].clone())).simplified();
        deltas.push(diff.eval(bindings).ok());
    }

    let identical = a.coeffs == b.coeffs && deltas.iter().all(|d| *d == Some(0));

    // (1) Disjointness over independent iteration pairs, one dimension at a
    // time: the equation  Σ a_c·I_p − Σ b_c·I'_p = Δ_d  must be solvable in
    // every dimension for the accesses to collide at all.
    for (d, &delta_d) in deltas.iter().enumerate() {
        // Fold inactive parameters (fixed at their lower bound) into Δ.
        let mut delta = delta_d;
        let mut resolvable = true;
        for p in 0..nparams {
            if active.contains(&p) {
                continue;
            }
            let cdiff = a.coeffs[d][p] - b.coeffs[d][p];
            if cdiff == 0 {
                continue;
            }
            match (delta, domain.lows[p]) {
                (Some(dl), Some(lo)) => {
                    delta = cdiff.checked_mul(lo).and_then(|t| dl.checked_sub(t));
                    if delta.is_none() {
                        resolvable = false;
                    }
                }
                _ => resolvable = false,
            }
        }
        let Some(delta) = (if resolvable { delta } else { None }) else {
            continue; // This dimension cannot separate the pair.
        };
        let coeffs: Vec<i64> = active
            .iter()
            .map(|&p| a.coeffs[d][p])
            .chain(active.iter().map(|&p| -b.coeffs[d][p]))
            .collect();
        if coeffs.iter().all(|&c| c == 0) {
            if delta != 0 {
                return PairRelation::Disjoint;
            }
            continue;
        }
        // GCD test.
        let g = coeffs.iter().fold(0i64, |g, &c| gcd(g, c.abs()));
        if g > 0 && delta.rem_euclid(g) != 0 {
            return PairRelation::Disjoint;
        }
        // Bounds test over the concrete box.
        if domain.fully_concrete() {
            let (mut lo_sum, mut hi_sum) = (0i128, 0i128);
            for (k, &p) in active.iter().chain(active.iter()).enumerate() {
                let c = coeffs[k] as i128;
                let lo = domain.lows[p].unwrap() as i128;
                let hi = lo + (domain.extents[p].unwrap() as i128 - 1).max(0);
                let (vmin, vmax) = if c >= 0 {
                    (c * lo, c * hi)
                } else {
                    (c * hi, c * lo)
                };
                lo_sum += vmin;
                hi_sum += vmax;
            }
            let delta = delta as i128;
            if delta < lo_sum || delta > hi_sum {
                return PairRelation::Disjoint;
            }
        }
    }

    // (2) Identical patterns: collisions happen exactly where the index map
    // is non-injective (plus `I = I'` when that is in the conflict domain).
    if identical {
        if include_equal {
            // Every iteration pair with `I = I'` collides by definition.
            return PairRelation::Overlap;
        }
        // Injective over the active parameters => distinct iterations
        // always touch distinct locations.
        let matrix: Vec<Vec<i64>> = (0..dims)
            .map(|d| active.iter().map(|&p| a.coeffs[d][p]).collect())
            .collect();
        if rank(&matrix) == active.len() {
            return PairRelation::Disjoint;
        }
        // A parameter no dimension depends on varies freely: definite
        // self-overlap (e.g. a fixed `A[0]` or a reduction dimension).
        let has_free_param = (0..active.len()).any(|k| matrix.iter().all(|row| row[k] == 0));
        if has_free_param {
            return PairRelation::Overlap;
        }
        // Rank-deficient without a free column (e.g. `A[i+j]`): fall back
        // to exact enumeration when the domain is small and concrete.
    }

    // (3) Exact enumeration for small concrete domains: evaluate both index
    // maps over every iteration and look for a colliding pair.
    if domain.fully_concrete() {
        if let Some(total) = domain.total() {
            if total <= ENUM_CAP && deltas.iter().all(Option::is_some) {
                return enumerate_pair(a, b, &deltas, domain, include_equal, total);
            }
        }
    }
    PairRelation::May
}

/// Exact overlap decision by enumeration: map every iteration through both
/// index functions and detect a pair `(I, I')` in the conflict domain with
/// `a(I) == b(I')`.
fn enumerate_pair(
    a: &AffineAccess,
    b: &AffineAccess,
    deltas: &[Option<i64>],
    domain: &Domain,
    include_equal: bool,
    total: usize,
) -> PairRelation {
    let nparams = domain.extents.len();
    let dims = a.rests.len();
    // Index of `a` at iteration I, shifted so both sides share the same
    // constant part: a(I) = Σ a_c·I  and  b(I') = Σ b_c·I' + Δ.
    let eval = |coeffs: &[Vec<i64>], point: &[i64], shift: &[i64]| -> Vec<i64> {
        (0..dims)
            .map(|d| shift[d] + (0..nparams).map(|p| coeffs[d][p] * point[p]).sum::<i64>())
            .collect()
    };
    let zeros = vec![0i64; dims];
    let shift_b: Vec<i64> = deltas.iter().map(|d| d.unwrap()).collect();
    let mut points = Vec::with_capacity(total);
    let mut point: Vec<i64> = (0..nparams).map(|p| domain.lows[p].unwrap()).collect();
    for _ in 0..total {
        points.push(point.clone());
        for p in (0..nparams).rev() {
            point[p] += 1;
            if point[p] < domain.lows[p].unwrap() + domain.extents[p].unwrap() {
                break;
            }
            point[p] = domain.lows[p].unwrap();
        }
    }
    // a-index -> first iteration that produces it.
    let mut seen: HashMap<Vec<i64>, Vec<usize>> = HashMap::new();
    for (i, pt) in points.iter().enumerate() {
        seen.entry(eval(&a.coeffs, pt, &zeros)).or_default().push(i);
    }
    for (j, pt) in points.iter().enumerate() {
        if let Some(is) = seen.get(&eval(&b.coeffs, pt, &shift_b)) {
            for &i in is {
                if i != j || include_equal {
                    return PairRelation::Overlap;
                }
            }
        }
    }
    PairRelation::Disjoint
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Rank of an integer matrix over the rationals, via fraction-free Gaussian
/// elimination in `i128` (coefficients are small memlet strides, so no
/// overflow in practice; saturating keeps it sound regardless).
pub(crate) fn rank(matrix: &[Vec<i64>]) -> usize {
    let mut m: Vec<Vec<i128>> = matrix
        .iter()
        .map(|row| row.iter().map(|&v| v as i128).collect())
        .collect();
    let rows = m.len();
    let cols = m.first().map_or(0, Vec::len);
    let mut r = 0;
    for c in 0..cols {
        let Some(pivot) = (r..rows).find(|&i| m[i][c] != 0) else {
            continue;
        };
        m.swap(r, pivot);
        for i in r + 1..rows {
            if m[i][c] == 0 {
                continue;
            }
            let (p, q) = (m[r][c], m[i][c]);
            let (top, bottom) = m.split_at_mut(i);
            for (x, &y) in bottom[0][c..].iter_mut().zip(&top[r][c..]) {
                *x = x.saturating_mul(p).saturating_sub(y.saturating_mul(q));
            }
        }
        r += 1;
        if r == rows {
            break;
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DataflowGraph, MapScope};
    use crate::memlet::Subset;
    use crate::scalar_expr::ScalarExpr;
    use crate::tasklet::Tasklet;

    fn bindings(pairs: &[(&str, i64)]) -> HashMap<String, i64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    /// One-tasklet body: reads every memlet in `reads`, writes every memlet
    /// in `writes`.
    fn body(reads: &[Memlet], writes: &[Memlet]) -> DataflowGraph {
        let mut g = DataflowGraph::new();
        let t = g.add_tasklet(Tasklet::new("t", "o", ScalarExpr::input("x")));
        for m in reads {
            let a = g.add_access(&m.data);
            g.add_edge(a, None, t, Some("x"), m.clone());
        }
        for m in writes {
            let a = g.add_access(&m.data);
            g.add_edge(t, Some("o"), a, None, m.clone());
        }
        g
    }

    fn map1(body: DataflowGraph, lo: i64, hi: i64) -> MapScope {
        MapScope {
            params: vec!["i".into()],
            ranges: vec![(SymExpr::int(lo), SymExpr::int(hi))],
            body,
        }
    }

    fn i() -> SymExpr {
        SymExpr::sym("i")
    }

    #[test]
    fn identity_map_is_safe() {
        let m = map1(
            body(
                &[Memlet::element("X", vec![i()])],
                &[Memlet::element("A", vec![i()])],
            ),
            0,
            100,
        );
        assert_eq!(analyze_map(&m, &bindings(&[])), ParVerdict::Safe);
    }

    #[test]
    fn strided_injective_write_is_safe_beyond_enumeration() {
        // A[2*i + 1] over a domain far larger than ENUM_CAP: only the
        // injectivity decision can prove this.
        let m = map1(
            body(
                &[Memlet::element("X", vec![i()])],
                &[Memlet::element("A", vec![i().mul_int(2).add_int(1)])],
            ),
            0,
            1_000_000,
        );
        assert_eq!(analyze_map(&m, &bindings(&[])), ParVerdict::Safe);
    }

    #[test]
    fn fixed_element_write_is_race() {
        let m = map1(
            body(
                &[Memlet::element("X", vec![i()])],
                &[Memlet::element("A", vec![SymExpr::int(0)])],
            ),
            0,
            4,
        );
        assert!(matches!(
            analyze_map(&m, &bindings(&[])),
            ParVerdict::Race(_)
        ));
    }

    #[test]
    fn whole_array_write_is_race() {
        let m = map1(
            body(&[Memlet::element("X", vec![i()])], &[Memlet::all("A")]),
            0,
            4,
        );
        assert!(matches!(
            analyze_map(&m, &bindings(&[])),
            ParVerdict::Race(_)
        ));
    }

    #[test]
    fn single_iteration_fixed_write_is_safe() {
        let m = map1(
            body(
                &[Memlet::element("X", vec![i()])],
                &[Memlet::element("A", vec![SymExpr::int(0)])],
            ),
            0,
            1,
        );
        assert_eq!(analyze_map(&m, &bindings(&[])), ParVerdict::Safe);
    }

    #[test]
    fn wcr_sum_accumulation_is_reduction() {
        let mut w = Memlet::element("A", vec![SymExpr::int(0)]);
        w.wcr = Some(Wcr::Sum);
        let m = map1(body(&[Memlet::element("X", vec![i()])], &[w]), 0, 100);
        assert_eq!(analyze_map(&m, &bindings(&[])), ParVerdict::Reduction);
    }

    #[test]
    fn shifted_read_of_written_array_is_race() {
        // write A[i], read A[i+1]: iteration i+1 writes what iteration i
        // reads, so snapshot reads diverge from sequential execution.
        let m = map1(
            body(
                &[Memlet::element("A", vec![i().add_int(1)])],
                &[Memlet::element("A", vec![i()])],
            ),
            0,
            8,
        );
        assert!(matches!(
            analyze_map(&m, &bindings(&[])),
            ParVerdict::Race(_)
        ));
    }

    #[test]
    fn bounds_test_separates_far_apart_accesses() {
        // write A[i], read A[i + 100] over i in [0, 8): the offset can
        // never be bridged inside the iteration box.
        let m = map1(
            body(
                &[Memlet::element("A", vec![i().add_int(100)])],
                &[Memlet::element("A", vec![i()])],
            ),
            0,
            8,
        );
        assert_eq!(analyze_map(&m, &bindings(&[])), ParVerdict::Safe);
    }

    #[test]
    fn gcd_test_separates_odd_and_even() {
        // write A[2*i], read A[2*i + 1] over a huge domain: parity proves
        // disjointness where enumeration cannot run.
        let m = map1(
            body(
                &[Memlet::element("A", vec![i().mul_int(2).add_int(1)])],
                &[Memlet::element("A", vec![i().mul_int(2)])],
            ),
            0,
            1_000_000,
        );
        assert_eq!(analyze_map(&m, &bindings(&[])), ParVerdict::Safe);
    }

    #[test]
    fn symbolic_offset_resolves_through_bindings() {
        // write A[i + K], read A[i]: decidable only once K is known.
        let reads = [Memlet::element("A", vec![i()])];
        let writes = [Memlet::element("A", vec![i().add(&SymExpr::sym("K"))])];
        let m = map1(body(&reads, &writes), 0, 8);
        // K = 100 separates the accesses; unbound K cannot be proven.
        assert_eq!(analyze_map(&m, &bindings(&[("K", 100)])), ParVerdict::Safe);
        assert_eq!(analyze_map(&m, &bindings(&[])), ParVerdict::Unknown);
    }

    #[test]
    fn same_iteration_read_after_write_is_race() {
        // t1 writes A[i]; t2 reads A[i] afterwards.  Sequentially t2 sees
        // t1's value; a snapshot read sees the pre-map value.
        let mut g = DataflowGraph::new();
        let t1 = g.add_tasklet(Tasklet::new("t1", "o", ScalarExpr::input("x")));
        let t2 = g.add_tasklet(Tasklet::new("t2", "o", ScalarExpr::input("x")));
        let x = g.add_access("X");
        let a = g.add_access("A");
        let b = g.add_access("B");
        g.add_edge(x, None, t1, Some("x"), Memlet::element("X", vec![i()]));
        g.add_edge(t1, Some("o"), a, None, Memlet::element("A", vec![i()]));
        g.add_edge(a, None, t2, Some("x"), Memlet::element("A", vec![i()]));
        g.add_edge(t2, Some("o"), b, None, Memlet::element("B", vec![i()]));
        let m = map1(g, 0, 8);
        assert!(matches!(
            analyze_map(&m, &bindings(&[])),
            ParVerdict::Race(_)
        ));
    }

    #[test]
    fn nested_map_body_is_unknown() {
        let mut g = DataflowGraph::new();
        g.add_map(map1(DataflowGraph::new(), 0, 4));
        let m = map1(g, 0, 8);
        assert_eq!(analyze_map(&m, &bindings(&[])), ParVerdict::Unknown);
    }

    #[test]
    fn rank_deficient_two_param_write_races() {
        // A[i + j] over a 2-D domain: (0,1) and (1,0) collide.
        let g = body(
            &[Memlet::element("X", vec![i()])],
            &[Memlet::element("A", vec![i().add(&SymExpr::sym("j"))])],
        );
        let m = MapScope {
            params: vec!["i".into(), "j".into()],
            ranges: vec![
                (SymExpr::int(0), SymExpr::int(4)),
                (SymExpr::int(0), SymExpr::int(4)),
            ],
            body: g,
        };
        assert!(matches!(
            analyze_map(&m, &bindings(&[])),
            ParVerdict::Race(_)
        ));
    }

    #[test]
    fn two_param_transpose_style_write_is_safe() {
        // A[i][j] write with X[j][i] read of a different array.
        let g = body(
            &[Memlet::element("X", vec![SymExpr::sym("j"), i()])],
            &[Memlet::element("A", vec![i(), SymExpr::sym("j")])],
        );
        let m = MapScope {
            params: vec!["i".into(), "j".into()],
            ranges: vec![
                (SymExpr::int(0), SymExpr::int(64)),
                (SymExpr::int(0), SymExpr::int(64)),
            ],
            body: g,
        };
        assert_eq!(analyze_map(&m, &bindings(&[])), ParVerdict::Safe);
    }

    #[test]
    fn ranged_read_is_analyzed_at_its_start() {
        // Read X[i:i+1], write A[i]: the runtime reads the range start, so
        // this is the canonical "newly parallel" shape the old syntactic
        // heuristic rejected.
        let read = Memlet {
            data: "X".into(),
            subset: Subset(vec![IndexRange::range(i(), i().add_int(1))]),
            wcr: None,
        };
        let m = map1(body(&[read], &[Memlet::element("A", vec![i()])]), 0, 100);
        assert_eq!(analyze_map(&m, &bindings(&[])), ParVerdict::Safe);
    }

    /// `alias_decidable` on two subsets decomposed in `vars`.
    fn decidable(w: &Subset, r: &Subset, vars: &[String]) -> bool {
        let affine = |s| affine_subset(s, vars).expect("affine in the variables");
        alias_decidable(&affine(w), &affine(r))
    }

    #[test]
    fn alias_decidable_requires_constant_offset() {
        let w = Subset(vec![IndexRange::idx(i())]);
        let r_const = Subset(vec![IndexRange::idx(i().add_int(-1))]);
        let r_sym = Subset(vec![IndexRange::idx(i().add(&SymExpr::sym("K")))]);
        let vars = ["i".to_string()];
        assert!(decidable(&w, &r_const, &vars));
        assert!(!decidable(&w, &r_sym, &vars));
        // Rank mismatch is undecidable.
        let r2 = Subset(vec![IndexRange::idx(i()), IndexRange::idx(i())]);
        assert!(!decidable(&w, &r2, &vars));
        // Along the iterators of a nest: a stencil offset in both is
        // decidable, one that moves with the other iterator is not.
        let nest = ["i".to_string(), "j".to_string()];
        let j = || SymExpr::sym("j");
        let w = Subset(vec![IndexRange::idx(i()), IndexRange::idx(j())]);
        let stencil = Subset(vec![
            IndexRange::idx(i().add_int(-1)),
            IndexRange::idx(j().add_int(1)),
        ]);
        let skewed = Subset(vec![IndexRange::idx(i().add(&j())), IndexRange::idx(j())]);
        assert!(decidable(&w, &stencil, &nest));
        assert!(!decidable(&w, &skewed, &nest));
    }

    #[test]
    fn affine_subset_rejects_nonlinear_indices() {
        let params = vec!["i".to_string()];
        let quad = Subset(vec![IndexRange::idx(i().mul(&i()))]);
        assert!(affine_subset(&quad, &params).is_none());
        let lin = Subset(vec![IndexRange::idx(i().mul_int(3).add_int(7))]);
        let a = affine_subset(&lin, &params).unwrap();
        assert_eq!(a.coeffs, vec![vec![3]]);
        assert_eq!(a.rests, vec![SymExpr::int(7)]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::graph::{DataflowGraph, MapScope};
    use crate::memlet::Subset;
    use crate::scalar_expr::ScalarExpr;
    use crate::tasklet::Tasklet;
    use proptest::prelude::*;

    /// A randomly generated affine access: `c0·i + c1·j + rest`, optionally
    /// a `Wcr::Sum` write.
    #[derive(Clone, Debug)]
    struct GenAccess {
        coeffs: [i64; 2],
        rest: i64,
        wcr: bool,
    }

    fn arb_access() -> impl Strategy<Value = GenAccess> {
        (-2i64..3, -2i64..3, -3i64..4, 0i64..2).prop_map(|(c0, c1, rest, wcr)| GenAccess {
            coeffs: [c0, c1],
            rest,
            wcr: wcr == 1,
        })
    }

    fn arb_opt_access() -> impl Strategy<Value = Option<GenAccess>> {
        prop_oneof![
            Just(None),
            arb_access().prop_map(Some),
            arb_access().prop_map(Some),
        ]
    }

    fn memlet_of(a: &GenAccess, wcr_allowed: bool) -> Memlet {
        let idx = SymExpr::sym("i")
            .mul_int(a.coeffs[0])
            .add(&SymExpr::sym("j").mul_int(a.coeffs[1]))
            .add_int(a.rest);
        let mut m = Memlet::element("A", vec![idx]);
        if wcr_allowed && a.wcr {
            m.wcr = Some(Wcr::Sum);
        }
        m
    }

    /// Brute-force the hazard model at concrete extents using
    /// `Subset::eval_indices` (independent of the affine extraction):
    /// returns (any plain conflict, any wcr-wcr overlap).
    fn brute_force(
        writes: &[Memlet],
        reads: &[Memlet],
        lows: [i64; 2],
        extents: [i64; 2],
    ) -> (bool, bool) {
        let mut points = Vec::new();
        for di in 0..extents[0] {
            for dj in 0..extents[1] {
                points.push([lows[0] + di, lows[1] + dj]);
            }
        }
        let index = |m: &Memlet, p: [i64; 2]| -> Vec<i64> {
            let b = HashMap::from([("i".to_string(), p[0]), ("j".to_string(), p[1])]);
            m.subset.eval_indices(&b).unwrap()
        };
        let (mut plain, mut wcr_only) = (false, false);
        for (wi, w) in writes.iter().enumerate() {
            for other in &writes[wi..] {
                for (ia, pa) in points.iter().enumerate() {
                    for (ib, pb) in points.iter().enumerate() {
                        if ia == ib {
                            continue; // Same-iteration writes keep node order.
                        }
                        if index(w, *pa) == index(other, *pb) {
                            if w.wcr.is_some() && other.wcr.is_some() {
                                wcr_only = true;
                            } else {
                                plain = true;
                            }
                        }
                    }
                }
            }
            for r in reads {
                for (ia, pa) in points.iter().enumerate() {
                    for (ib, pb) in points.iter().enumerate() {
                        if ia == ib {
                            continue; // Reads and writes share one tasklet.
                        }
                        if index(w, *pa) == index(r, *pb) {
                            plain = true;
                        }
                    }
                }
            }
        }
        (plain, wcr_only)
    }

    proptest! {
        /// The static verdict must never contradict brute-force overlap
        /// enumeration: `Safe` implies zero observed conflicts, `Reduction`
        /// implies only WCR-WCR overlaps, and a proven `Race` implies a
        /// concrete conflicting pair exists.
        #[test]
        fn verdict_matches_brute_force(
            w1 in arb_access(),
            w2 in arb_opt_access(),
            r1 in arb_opt_access(),
            lo0 in -1i64..2,
            lo1 in -1i64..2,
            n0 in 1i64..5,
            n1 in 1i64..5,
        ) {
            let mut writes = vec![memlet_of(&w1, true)];
            if let Some(w) = &w2 {
                writes.push(memlet_of(w, true));
            }
            let reads: Vec<Memlet> = r1.iter().map(|r| memlet_of(r, false)).collect();

            let mut g = DataflowGraph::new();
            let t = g.add_tasklet(Tasklet::new("t", "o", ScalarExpr::input("x")));
            let x = g.add_access("X");
            g.add_edge(x, None, t, Some("x"), Memlet::element("X", vec![SymExpr::sym("i")]));
            for m in &reads {
                let a = g.add_access("A");
                g.add_edge(a, None, t, Some("x"), m.clone());
            }
            for m in &writes {
                let a = g.add_access("A");
                g.add_edge(t, Some("o"), a, None, m.clone());
            }
            let map = MapScope {
                params: vec!["i".into(), "j".into()],
                ranges: vec![
                    (SymExpr::int(lo0), SymExpr::int(lo0 + n0)),
                    (SymExpr::int(lo1), SymExpr::int(lo1 + n1)),
                ],
                body: g,
            };

            let verdict = analyze_map(&map, &HashMap::new());
            let (plain, wcr_only) = brute_force(&writes, &reads, [lo0, lo1], [n0, n1]);
            match verdict {
                ParVerdict::Safe => {
                    prop_assert!(!plain && !wcr_only,
                        "Safe verdict but brute force found a conflict");
                }
                ParVerdict::Reduction => {
                    prop_assert!(!plain,
                        "Reduction verdict but brute force found a plain conflict");
                }
                ParVerdict::Race(_) => {
                    prop_assert!(plain,
                        "Race verdict but brute force found no plain conflict");
                }
                ParVerdict::Unknown => {}
            }
        }

        /// `alias_decidable` accepts exactly the constant-offset relations.
        #[test]
        fn alias_decidable_matches_offset_shape(c in -3i64..4, off in -5i64..6) {
            let i = SymExpr::sym("i");
            let w = Subset(vec![IndexRange::idx(i.clone())]);
            let r = Subset(vec![IndexRange::idx(i.mul_int(c).add_int(off))]);
            // Affine in `i` either way; always decidable (delta may depend
            // on the coefficient but the rest difference stays constant).
            let vars = ["i".to_string()];
            let decidable = |r| {
                let affine = |s| affine_subset(s, &vars).expect("affine in `i`");
                alias_decidable(&affine(&w), &affine(r))
            };
            prop_assert!(decidable(&r));
            let r_sym = Subset(vec![IndexRange::idx(
                i.add(&SymExpr::sym("K")).add_int(off),
            )]);
            prop_assert!(!decidable(&r_sym));
        }
    }
}
