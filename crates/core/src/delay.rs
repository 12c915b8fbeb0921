//! The critical-path delay matrix `D[n][n]` and its maintenance algorithms.
//!
//! ISDC keeps the estimated critical-path delay of every connected node pair.
//! Three operations mirror the paper:
//!
//! - **Initialization** (Alg. 1 lines 1-9): `D[v][v]` is the individual op
//!   delay; `D[u][v]` for connected pairs is the naive longest sum-of-op-delay
//!   path; everything else is the `-1` "not connected" sentinel.
//! - **Delay updating** (Alg. 1 lines 10-14): after downstream tools report a
//!   subgraph delay `D(g)`, every pair covered by `g` is lowered to `D(g)` if
//!   that is an improvement. Updates are monotonically decreasing, which
//!   guarantees that timing constraints only ever relax.
//! - **Reformulation** (Alg. 2): re-derives all-pairs delays from the updated
//!   matrix with one forward and one backward topological sweep — an `O(n^2)`
//!   approximation of the exhaustive `O(n^3)` fixpoint, which is also
//!   provided ([`DelayMatrix::reformulate_exact`]) for the §IV-B accuracy
//!   study.

use isdc_ir::analysis::{reverse_topo_order, topo_order};
use isdc_ir::{Graph, NodeId};
use isdc_techlib::Picos;
use std::collections::HashMap;

/// Sentinel for "not connected".
const NOT_CONNECTED: f64 = -1.0;

/// The entries of a [`DelayMatrix`] that changed, tracked both as exact
/// `(row, col)` pairs and as dirty-row/dirty-column index sets.
///
/// Feedback application and reformulation report their writes here. The
/// rows and columns drive the worklist of
/// [`DelayMatrix::reformulate_incremental`], and the dirty rows tell the
/// incremental scheduler which sources' Eq. 2 sweeps to re-run; a sweep
/// re-derives every pair of its row from the matrix, so it needs no pairs.
/// The exact pairs ([`DirtySet::pairs`]) record the true write set, which
/// on window-shaped feedback is quadratically smaller than the
/// `rows × cols` product; only tests and the repo benchmark's per-layer
/// counters read them.
///
/// Pairs may repeat when the same entry is written more than once (merged
/// sets, forward + backward sweep).
#[derive(Clone, Debug)]
pub struct DirtySet {
    rows: Vec<bool>,
    cols: Vec<bool>,
    row_list: Vec<u32>,
    col_list: Vec<u32>,
    pair_list: Vec<(u32, u32)>,
    /// Number of matrix entries written (counting duplicates across merged
    /// sets) — the old `apply_subgraph_feedback` return value.
    pub updated: usize,
}

impl DirtySet {
    /// An empty set over an `n`-node matrix.
    pub fn new(n: usize) -> Self {
        Self {
            rows: vec![false; n],
            cols: vec![false; n],
            row_list: Vec::new(),
            col_list: Vec::new(),
            pair_list: Vec::new(),
            updated: 0,
        }
    }

    /// Records a write to entry `(u, v)`.
    pub fn mark(&mut self, u: usize, v: usize) {
        self.updated += 1;
        self.pair_list.push((u as u32, v as u32));
        if !self.rows[u] {
            self.rows[u] = true;
            self.row_list.push(u as u32);
        }
        if !self.cols[v] {
            self.cols[v] = true;
            self.col_list.push(v as u32);
        }
    }

    /// True when no entry was written.
    pub fn is_empty(&self) -> bool {
        self.updated == 0
    }

    /// Whether some entry in row `u` changed.
    pub fn row_dirty(&self, u: NodeId) -> bool {
        self.rows[u.index()]
    }

    /// Whether some entry in column `v` changed.
    pub fn col_dirty(&self, v: NodeId) -> bool {
        self.cols[v.index()]
    }

    /// The dirty rows, in first-marked order.
    pub fn rows(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.row_list.iter().map(|&u| NodeId(u))
    }

    /// The dirty columns, in first-marked order.
    pub fn cols(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.col_list.iter().map(|&v| NodeId(v))
    }

    /// Every written entry as an exact `(row, col)` pair, in write order,
    /// possibly with repeats (see the type docs).
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.pair_list.iter().map(|&(u, v)| (NodeId(u), NodeId(v)))
    }

    /// Folds another set into this one.
    pub fn union(&mut self, other: &DirtySet) {
        assert_eq!(self.rows.len(), other.rows.len(), "dirty sets cover different matrices");
        for r in other.rows() {
            if !self.rows[r.index()] {
                self.rows[r.index()] = true;
                self.row_list.push(r.0);
            }
        }
        for c in other.cols() {
            if !self.cols[c.index()] {
                self.cols[c.index()] = true;
                self.col_list.push(c.0);
            }
        }
        self.pair_list.extend_from_slice(&other.pair_list);
        self.updated += other.updated;
    }
}

/// Tolerance below which entry updates do not count as progress (guards the
/// fixpoint iteration against floating-point churn).
const EPS: f64 = 1e-9;

/// Dense matrix of estimated critical-path delays between node pairs.
///
/// `get(u, v)` is the estimated worst delay of any combinational path that
/// starts at `u`'s inputs and ends at `v`'s output (both ops' own delays
/// included), or `None` if `v` is not reachable from `u`.
#[derive(Clone, Debug, PartialEq)]
pub struct DelayMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DelayMatrix {
    /// Initializes from per-node delays: the naive longest-path estimate the
    /// original SDC scheduler uses (Alg. 1 lines 1-9).
    ///
    /// # Panics
    ///
    /// Panics if `node_delays.len() != graph.len()`.
    pub fn initialize(graph: &Graph, node_delays: &[Picos]) -> Self {
        let n = graph.len();
        assert_eq!(node_delays.len(), n, "one delay per node required");
        let mut m = Self { n, data: vec![NOT_CONNECTED; n * n] };
        // Longest path DP from every source u: one forward sweep per u.
        // best[v] = max over operands p of best[p] + d(v), seeded at u.
        for u in 0..n {
            m.data[u * n + u] = node_delays[u];
            for (v, &d_v) in node_delays.iter().enumerate().skip(u + 1) {
                let node = graph.node(NodeId(v as u32));
                let mut best = NOT_CONNECTED;
                for &p in &node.operands {
                    let via = m.data[u * n + p.index()];
                    if via != NOT_CONNECTED {
                        best = best.max(via + d_v);
                    }
                }
                m.data[u * n + v] = best;
            }
        }
        m
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the matrix covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The estimated critical-path delay from `u` to `v`, if connected.
    pub fn get(&self, u: NodeId, v: NodeId) -> Option<Picos> {
        let d = self.data[u.index() * self.n + v.index()];
        (d != NOT_CONNECTED).then_some(d)
    }

    /// The per-node individual delay (`D[v][v]`).
    pub fn node_delay(&self, v: NodeId) -> Picos {
        self.data[v.index() * self.n + v.index()]
    }

    /// Raw indexed access used by hot loops.
    #[inline]
    fn at(&self, u: usize, v: usize) -> f64 {
        self.data[u * self.n + v]
    }

    #[inline]
    fn set(&mut self, u: usize, v: usize, d: f64) {
        self.data[u * self.n + v] = d;
    }

    /// Alg. 1 lines 10-14: lowers every pair covered by an evaluated subgraph
    /// to the reported delay, when that is an improvement. Returns the dirty
    /// rows/columns (with [`DirtySet::updated`] counting changed entries).
    pub fn apply_subgraph_feedback(&mut self, members: &[NodeId], delay_ps: Picos) -> DirtySet {
        let mut dirty = DirtySet::new(self.n);
        for &u in members {
            for &v in members {
                let cur = self.at(u.index(), v.index());
                if cur != NOT_CONNECTED && cur > delay_ps {
                    self.set(u.index(), v.index(), delay_ps);
                    dirty.mark(u.index(), v.index());
                }
            }
        }
        dirty
    }

    /// A refinement of Alg. 1 for multi-output subgraphs: pairs ending at a
    /// subgraph output `v` are lowered to `v`'s own reported arrival rather
    /// than the subgraph-wide worst (`fallback_ps`, used for pairs ending at
    /// internal members). Windows benefit the most — their roots can have
    /// very different arrivals.
    ///
    /// Returns the dirty rows/columns (with [`DirtySet::updated`] counting
    /// changed entries).
    pub fn apply_subgraph_feedback_per_output(
        &mut self,
        members: &[NodeId],
        output_arrivals: &[(NodeId, Picos)],
        fallback_ps: Picos,
    ) -> DirtySet {
        let mut dirty = DirtySet::new(self.n);
        // One arrival lookup per call instead of a linear scan per pair.
        let arrivals: HashMap<NodeId, Picos> = output_arrivals.iter().copied().collect();
        for &v in members {
            let bound = arrivals.get(&v).copied().unwrap_or(fallback_ps);
            for &u in members {
                let cur = self.at(u.index(), v.index());
                if cur != NOT_CONNECTED && cur > bound {
                    self.set(u.index(), v.index(), bound);
                    dirty.mark(u.index(), v.index());
                }
            }
        }
        dirty
    }

    /// Alg. 2: the `O(n^2)`-per-sweep reformulation. One forward topological
    /// sweep recomputes each `D[u][v]` from `v`'s operands; one backward sweep
    /// catches the complementary paths. Entries only ever decrease (or fill in
    /// missing connectivity from the sweeps' perspective). Returns true if
    /// any entry changed.
    pub fn reformulate(&mut self, graph: &Graph) -> bool {
        !self.reformulate_tracked(graph).is_empty()
    }

    /// [`DelayMatrix::reformulate`], reporting every written entry — the
    /// seed for worklist-driven follow-up rounds
    /// ([`DelayMatrix::reformulate_exact`]).
    fn reformulate_tracked(&mut self, graph: &Graph) -> DirtySet {
        let n = self.n;
        let mut dirty = DirtySet::new(n);
        // Forward sweep (paper lines 2-12).
        let mut dv = vec![NOT_CONNECTED; n];
        for v in topo_order(graph) {
            self.forward_node(graph, v, &mut dv, |u, vi| dirty.mark(u, vi));
        }
        // Backward sweep (paper lines 13-16): delays from u forward through
        // its users.
        let mut du = vec![NOT_CONNECTED; n];
        for u in reverse_topo_order(graph) {
            self.backward_node(graph, u, &mut du, |ui, w| dirty.mark(ui, w));
        }
        dirty
    }

    /// One forward-sweep step: recomputes column `v` from its operands'
    /// columns and `D[v][v]`. `on_write(u, v)` fires for every entry
    /// lowered (or filled in). Returns true if anything changed.
    fn forward_node(
        &mut self,
        graph: &Graph,
        v: NodeId,
        dv: &mut [f64],
        mut on_write: impl FnMut(usize, usize),
    ) -> bool {
        let vi = v.index();
        let d_vv = self.at(vi, vi);
        dv.fill(NOT_CONNECTED);
        for &p in &graph.node(v).operands {
            let pi = p.index();
            for (u, best) in dv.iter_mut().enumerate() {
                let via = self.at(u, pi);
                if via != NOT_CONNECTED && *best < via + d_vv {
                    *best = via + d_vv;
                }
            }
        }
        let mut changed = false;
        for (u, &cand) in dv.iter().enumerate() {
            if cand != NOT_CONNECTED {
                let cur = self.at(u, vi);
                if cur > cand + EPS || cur == NOT_CONNECTED {
                    self.set(u, vi, cand);
                    on_write(u, vi);
                    changed = true;
                }
            }
        }
        changed
    }

    /// One backward-sweep step: recomputes row `u` from its users' rows and
    /// `D[u][u]`. `on_write(u, w)` fires for every entry lowered (or filled
    /// in). Returns true if anything changed.
    fn backward_node(
        &mut self,
        graph: &Graph,
        u: NodeId,
        du: &mut [f64],
        mut on_write: impl FnMut(usize, usize),
    ) -> bool {
        let ui = u.index();
        let d_uu = self.at(ui, ui);
        du.fill(NOT_CONNECTED);
        for &c in graph.users(u) {
            let ci = c.index();
            for (w, best) in du.iter_mut().enumerate() {
                let via = self.at(ci, w);
                if via != NOT_CONNECTED && *best < via + d_uu {
                    *best = via + d_uu;
                }
            }
        }
        let mut changed = false;
        for (w, &cand) in du.iter().enumerate() {
            if cand != NOT_CONNECTED {
                let cur = self.at(ui, w);
                if cur > cand + EPS || cur == NOT_CONNECTED {
                    self.set(ui, w, cand);
                    on_write(ui, w);
                    changed = true;
                }
            }
        }
        changed
    }

    /// Worklist-driven Alg. 2: one reformulation pass that only re-sweeps
    /// nodes whose inputs can have changed, instead of all `n`. Produces a
    /// matrix bit-identical to [`DelayMatrix::reformulate`] from the same
    /// state, provided `dirty` covers every entry written since the
    /// previous pass.
    ///
    /// A node is a no-op for the forward sweep unless an operand's column,
    /// or its own diagonal, changed since the sweep last visited it (the
    /// recomputation is a pure function of those inputs; a fresh
    /// [`DelayMatrix::initialize`] matrix is already at the sweeps'
    /// fixpoint). Writes made *during* the pass are chased in-pass where
    /// their readers still lie ahead (forward writes are only read by
    /// topologically later nodes; backward row-writes only by
    /// reverse-topologically later ones).
    ///
    /// The one escape is backward-sweep writes landing in columns whose
    /// forward readers already ran — exactly what a full second
    /// [`DelayMatrix::reformulate`] pass would pick up. They are reported in
    /// the returned set, which callers must therefore fold into the `dirty`
    /// set of the **next** call (the driver carries it across iterations).
    pub fn reformulate_incremental(&mut self, graph: &Graph, dirty: &DirtySet) -> DirtySet {
        let n = self.n;
        let mut changed = DirtySet::new(n);
        if dirty.is_empty() {
            return changed;
        }
        let mut process_fwd = vec![false; n];
        let mut process_bwd = vec![false; n];
        for c in dirty.cols() {
            for &user in graph.users(c) {
                process_fwd[user.index()] = true;
            }
        }
        for r in dirty.rows() {
            for &p in &graph.node(r).operands {
                process_bwd[p.index()] = true;
            }
            // A dirty (r, r) entry means D[r][r] itself may have dropped
            // (feedback lowers diagonals too); r must re-run both sweeps.
            // Row+col dirtiness over-approximates that, which is safe:
            // processing an extra node is a no-op, never a divergence.
            if dirty.col_dirty(r) {
                process_fwd[r.index()] = true;
                process_bwd[r.index()] = true;
            }
        }

        let mut fwd_wrote_row = vec![false; n];
        let mut dv = vec![NOT_CONNECTED; n];
        for v in topo_order(graph) {
            if !process_fwd[v.index()] {
                continue;
            }
            let wrote = self.forward_node(graph, v, &mut dv, |u, vi| {
                changed.mark(u, vi);
                fwd_wrote_row[u] = true;
            });
            if wrote {
                for &user in graph.users(v) {
                    process_fwd[user.index()] = true;
                }
            }
        }
        // Forward writes to row u are read by the backward sweep at u's
        // operands (their candidate paths route through u's row).
        for (u, &wrote) in fwd_wrote_row.iter().enumerate() {
            if wrote {
                for &p in &graph.node(NodeId(u as u32)).operands {
                    process_bwd[p.index()] = true;
                }
            }
        }

        let mut du = vec![NOT_CONNECTED; n];
        for u in reverse_topo_order(graph) {
            if !process_bwd[u.index()] {
                continue;
            }
            let wrote = self.backward_node(graph, u, &mut du, |ui, w| {
                changed.mark(ui, w);
            });
            if wrote {
                for &p in &graph.node(u).operands {
                    process_bwd[p.index()] = true;
                }
            }
        }
        changed
    }

    /// The exhaustive `O(n^3)`-worst-case reformulation the paper invokes as
    /// the reference: Alg. 2's recurrence iterated to a fixpoint. Each round
    /// costs the same as [`DelayMatrix::reformulate`]; rounds repeat until no
    /// entry changes (at most `n` rounds, since entries strictly decrease
    /// along dependency chains).
    ///
    /// A naive Floyd-Warshall splice `D[u][w] + D[w][v] - d(w)` is *not* a
    /// sound reference here: once feedback has fused `w`'s delay into a
    /// segment, subtracting the full isolated `d(w)` double-discounts and
    /// collapses estimates toward zero. The fixpoint of the paper's own
    /// recurrence is the meaningful exact target.
    ///
    /// Round 1 is a full pass; every later round reuses the worklist sweep
    /// ([`DelayMatrix::reformulate_incremental`]) seeded with the previous
    /// round's writes, which is bit-identical to another full pass but only
    /// touches nodes downstream of actual changes — late rounds converge on
    /// small dirty regions, so they get cheap instead of staying `O(n^2)`.
    ///
    /// Returns the number of rounds that changed at least one entry (at
    /// least 1, matching the historical count of full passes).
    pub fn reformulate_exact(&mut self, graph: &Graph) -> usize {
        let mut dirty = self.reformulate_tracked(graph);
        if dirty.is_empty() {
            return 1;
        }
        let mut rounds = 1;
        loop {
            // The previous round's write set covers everything a full pass
            // could see changed, including its own backward-sweep escapes —
            // exactly the worklist sweep's carry contract.
            let next = self.reformulate_incremental(graph, &dirty);
            if next.is_empty() {
                break;
            }
            rounds += 1;
            if rounds > self.n {
                debug_assert!(false, "reformulation failed to converge");
                break;
            }
            dirty = next;
        }
        rounds
    }

    /// Largest relative difference `|a - b| / max(a, b)` against another
    /// matrix over pairs connected in both — the §IV-B accuracy metric.
    pub fn max_relative_gap(&self, other: &DelayMatrix) -> f64 {
        assert_eq!(self.n, other.n);
        let mut worst: f64 = 0.0;
        for i in 0..self.n * self.n {
            let (a, b) = (self.data[i], other.data[i]);
            if a != NOT_CONNECTED && b != NOT_CONNECTED {
                let denom = a.max(b);
                if denom > 0.0 {
                    worst = worst.max((a - b).abs() / denom);
                }
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isdc_ir::OpKind;

    /// a -> x -> y chain plus an independent z.
    fn chain() -> (Graph, [NodeId; 4]) {
        let mut g = Graph::new("t");
        let a = g.param("a", 8);
        let x = g.unary(OpKind::Not, a).unwrap();
        let y = g.unary(OpKind::Neg, x).unwrap();
        let z = g.param("z", 8);
        g.set_output(y);
        g.set_output(z);
        (g, [a, x, y, z])
    }

    #[test]
    fn initialize_sums_path_delays() {
        let (g, [a, x, y, z]) = chain();
        let d = DelayMatrix::initialize(&g, &[0.0, 10.0, 20.0, 0.0]);
        assert_eq!(d.get(a, a), Some(0.0));
        assert_eq!(d.get(x, x), Some(10.0));
        assert_eq!(d.get(a, x), Some(10.0));
        assert_eq!(d.get(a, y), Some(30.0));
        assert_eq!(d.get(x, y), Some(30.0));
        assert_eq!(d.get(a, z), None);
        assert_eq!(d.get(y, x), None); // direction matters
    }

    #[test]
    fn initialize_takes_longest_path() {
        // Diamond where one branch is slower.
        let mut g = Graph::new("t");
        let a = g.param("a", 8);
        let fast = g.unary(OpKind::Not, a).unwrap();
        let slow = g.unary(OpKind::Neg, a).unwrap();
        let join = g.binary(OpKind::And, fast, slow).unwrap();
        g.set_output(join);
        let d = DelayMatrix::initialize(&g, &[0.0, 1.0, 100.0, 5.0]);
        assert_eq!(d.get(a, join), Some(105.0));
    }

    #[test]
    fn feedback_lowers_covered_pairs_only() {
        let (g, [a, x, y, _]) = chain();
        let mut d = DelayMatrix::initialize(&g, &[0.0, 10.0, 20.0, 0.0]);
        let dirty = d.apply_subgraph_feedback(&[x, y], 12.0);
        // (x,y) lowered from 30; (x,x) not (10 < 12); (y,y) lowered from 20.
        assert_eq!(d.get(x, y), Some(12.0));
        assert_eq!(d.get(x, x), Some(10.0));
        assert_eq!(d.get(y, y), Some(12.0));
        assert_eq!(d.get(a, y), Some(30.0), "pairs outside the subgraph untouched");
        assert_eq!(dirty.updated, 2);
        // Dirty tracking: entries (x,y) and (y,y) changed.
        assert!(dirty.row_dirty(x) && dirty.row_dirty(y));
        assert!(!dirty.row_dirty(a));
        assert!(dirty.col_dirty(y) && !dirty.col_dirty(x));
    }

    #[test]
    fn feedback_never_increases() {
        let (g, [_, x, y, _]) = chain();
        let mut d = DelayMatrix::initialize(&g, &[0.0, 10.0, 20.0, 0.0]);
        let before = d.clone();
        d.apply_subgraph_feedback(&[x, y], 1e9);
        assert_eq!(d, before);
    }

    #[test]
    fn reformulate_propagates_feedback_downstream() {
        // Chain a -> x -> y -> w; feedback lowers (x,y); the (a,w) estimate
        // must drop after reformulation.
        let mut g = Graph::new("t");
        let a = g.param("a", 8);
        let x = g.unary(OpKind::Not, a).unwrap();
        let y = g.unary(OpKind::Neg, x).unwrap();
        let w = g.unary(OpKind::Not, y).unwrap();
        g.set_output(w);
        let delays = [0.0, 10.0, 20.0, 5.0];
        let mut d = DelayMatrix::initialize(&g, &delays);
        assert_eq!(d.get(a, w), Some(35.0));
        d.apply_subgraph_feedback(&[x, y], 15.0);
        d.reformulate(&g);
        // (a,w) should now reflect the shortened middle: 0 + 15 + 5 = 20.
        assert_eq!(d.get(a, w), Some(20.0));
        // Self-delays unchanged.
        assert_eq!(d.get(x, x), Some(10.0));
    }

    #[test]
    fn alg2_fixpoint_matches_single_sweep_on_chains() {
        // Verify Alg. 2 and its fixpoint against hand-computed values on a
        // chain a(0) -> n1..n6 with d(i) = i + 1 and feedback D({2,3,4}) = 3.
        let mut g = Graph::new("t");
        let a = g.param("a", 8);
        let mut prev = a;
        for _ in 0..6 {
            prev = g.unary(OpKind::Not, prev).unwrap();
        }
        g.set_output(prev);
        let delays: Vec<f64> = (0..g.len()).map(|i| i as f64 + 1.0).collect();
        let mut approx = DelayMatrix::initialize(&g, &delays);
        let mut exact = approx.clone();
        let before = approx.clone();
        approx.apply_subgraph_feedback(&[NodeId(2), NodeId(3), NodeId(4)], 3.0);
        exact.apply_subgraph_feedback(&[NodeId(2), NodeId(3), NodeId(4)], 3.0);
        approx.reformulate(&g);
        exact.reformulate_exact(&g);
        // Alg. 2: D[2][5] = D[2][4] + d(5) = 3 + 6 = 9.
        assert_eq!(approx.get(NodeId(2), NodeId(5)), Some(9.0));
        // On a pure chain one sweep already reaches the fixpoint.
        assert_eq!(exact.get(NodeId(2), NodeId(5)), Some(9.0));
        assert!(approx.max_relative_gap(&exact) < 1e-9);
        // Both must stay at or below the pre-feedback estimates everywhere.
        for u in g.node_ids() {
            for v in g.node_ids() {
                if let Some(orig) = before.get(u, v) {
                    for m in [&approx, &exact] {
                        let cur = m.get(u, v).expect("connectivity preserved");
                        assert!(cur <= orig + 1e-9, "({u},{v}) grew {orig} -> {cur}");
                    }
                }
            }
        }
    }

    #[test]
    fn reformulations_never_increase_entries() {
        // Both sweeps may only relax constraints: no entry may grow, and no
        // connectivity may be invented or lost.
        let mut g = Graph::new("t");
        let a = g.param("a", 8);
        let b = g.param("b", 8);
        let x = g.binary(OpKind::Add, a, b).unwrap();
        let l = g.unary(OpKind::Not, x).unwrap();
        let r = g.unary(OpKind::Neg, x).unwrap();
        let j = g.binary(OpKind::Xor, l, r).unwrap();
        let t = g.unary(OpKind::Not, j).unwrap();
        g.set_output(t);
        let delays = [0.0, 0.0, 30.0, 10.0, 12.0, 8.0, 6.0];
        let mut alg2 = DelayMatrix::initialize(&g, &delays);
        let mut exact = alg2.clone();
        let before = alg2.clone();
        for m in [vec![x, l], vec![l, j], vec![x, l, r, j]] {
            alg2.apply_subgraph_feedback(&m, 9.0);
            exact.apply_subgraph_feedback(&m, 9.0);
        }
        alg2.reformulate(&g);
        exact.reformulate_exact(&g);
        for u in g.node_ids() {
            for v in g.node_ids() {
                let b0 = before.get(u, v);
                for (name, m) in [("alg2", &alg2), ("exact", &exact)] {
                    let cur = m.get(u, v);
                    assert_eq!(cur.is_some(), b0.is_some(), "{name}: connectivity changed");
                    if let (Some(c), Some(orig)) = (cur, b0) {
                        assert!(c <= orig + 1e-9, "{name}: ({u},{v}) grew {orig} -> {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn per_output_feedback_is_tighter_than_uniform() {
        // Window with two roots: fast root f (arrival 5) and slow root s
        // (arrival 20). Uniform feedback lowers everything to 20; per-output
        // feedback lowers pairs ending at f to 5.
        let mut g = Graph::new("t");
        let a = g.param("a", 8);
        let b = g.param("b", 8);
        let f = g.binary(OpKind::Xor, a, b).unwrap();
        let s = g.binary(OpKind::And, a, b).unwrap();
        g.set_output(f);
        g.set_output(s);
        let delays = [0.0, 0.0, 30.0, 40.0];
        let mut uniform = DelayMatrix::initialize(&g, &delays);
        let mut detailed = uniform.clone();
        let members = [a, b, f, s];
        uniform.apply_subgraph_feedback(&members, 20.0);
        detailed.apply_subgraph_feedback_per_output(&members, &[(f, 5.0), (s, 20.0)], 20.0);
        assert_eq!(uniform.get(a, f), Some(20.0));
        assert_eq!(detailed.get(a, f), Some(5.0), "f's own arrival wins");
        assert_eq!(detailed.get(a, s), Some(20.0));
        assert_eq!(detailed.get(f, f), Some(5.0));
    }

    #[test]
    fn per_output_feedback_uses_fallback_for_internal_members() {
        let mut g = Graph::new("t");
        let a = g.param("a", 8);
        let x = g.unary(OpKind::Not, a).unwrap();
        let y = g.unary(OpKind::Neg, x).unwrap();
        g.set_output(y);
        let mut m = DelayMatrix::initialize(&g, &[0.0, 50.0, 60.0]);
        // Only y is reported; x falls back to the subgraph-wide 80.
        m.apply_subgraph_feedback_per_output(&[x, y], &[(y, 70.0)], 80.0);
        assert_eq!(m.get(a, x), Some(50.0), "pair outside the subgraph untouched");
        assert_eq!(m.get(x, y), Some(70.0));
        assert_eq!(m.get(x, x), Some(50.0), "fallback 80 does not lower 50");
    }

    #[test]
    fn per_output_feedback_never_raises() {
        let mut g = Graph::new("t");
        let a = g.param("a", 8);
        let x = g.unary(OpKind::Not, a).unwrap();
        g.set_output(x);
        let mut m = DelayMatrix::initialize(&g, &[0.0, 10.0]);
        let before = m.clone();
        m.apply_subgraph_feedback_per_output(&[a, x], &[(x, 100.0)], 200.0);
        assert_eq!(m, before);
    }

    #[test]
    fn incremental_reformulation_matches_full_pass() {
        // Chain a -> x -> y -> w: feedback on {x, y}, then both maintenance
        // strategies; matrices must be bit-identical after every pass.
        let mut g = Graph::new("t");
        let a = g.param("a", 8);
        let x = g.unary(OpKind::Not, a).unwrap();
        let y = g.unary(OpKind::Neg, x).unwrap();
        let w = g.unary(OpKind::Not, y).unwrap();
        g.set_output(w);
        let delays = [0.0, 10.0, 20.0, 5.0];
        let mut full = DelayMatrix::initialize(&g, &delays);
        let mut inc = full.clone();
        let mut carry = DirtySet::new(g.len());
        for feedback in [15.0, 9.0, 4.0] {
            full.apply_subgraph_feedback(&[x, y], feedback);
            full.reformulate(&g);
            let mut dirty = inc.apply_subgraph_feedback(&[x, y], feedback);
            dirty.union(&carry);
            carry = inc.reformulate_incremental(&g, &dirty);
            assert_eq!(inc, full, "divergence after feedback {feedback}");
        }
    }

    #[test]
    fn incremental_reformulation_with_empty_dirty_set_is_noop() {
        let (g, _) = chain();
        let mut d = DelayMatrix::initialize(&g, &[1.0, 2.0, 3.0, 4.0]);
        let before = d.clone();
        let changed = d.reformulate_incremental(&g, &DirtySet::new(g.len()));
        assert!(changed.is_empty());
        assert_eq!(d, before);
    }

    #[test]
    fn dirty_set_union_merges_rows_cols_and_counts() {
        let mut a = DirtySet::new(4);
        a.mark(0, 1);
        let mut b = DirtySet::new(4);
        b.mark(2, 1);
        b.mark(2, 3);
        a.union(&b);
        assert_eq!(a.updated, 3);
        assert_eq!(a.rows().collect::<Vec<_>>(), vec![NodeId(0), NodeId(2)]);
        assert_eq!(a.cols().collect::<Vec<_>>(), vec![NodeId(1), NodeId(3)]);
        assert_eq!(
            a.pairs().collect::<Vec<_>>(),
            vec![(NodeId(0), NodeId(1)), (NodeId(2), NodeId(1)), (NodeId(2), NodeId(3))],
        );
        assert!(!a.is_empty());
    }

    #[test]
    fn dirty_pairs_are_exactly_the_written_entries() {
        // Window feedback touches a handful of entries; the exact pair list
        // must name them all, and stay far below the rows x cols product.
        let (g, [_, x, y, _]) = chain();
        let mut d = DelayMatrix::initialize(&g, &[0.0, 10.0, 20.0, 0.0]);
        let dirty = d.apply_subgraph_feedback(&[x, y], 12.0);
        let pairs: Vec<_> = dirty.pairs().collect();
        assert_eq!(pairs, vec![(x, y), (y, y)]);
        assert_eq!(pairs.len(), dirty.updated);
        let product = dirty.rows().count() * dirty.cols().count();
        assert!(pairs.len() <= product, "pairs must refine the product");
    }

    #[test]
    fn worklist_exact_matches_full_pass_fixpoint() {
        // Reference: iterate *full* reformulate passes to the fixpoint;
        // reformulate_exact (full round 1 + worklist rounds) must land on a
        // bit-identical matrix with the same round count. The wide diamond
        // makes one sweep insufficient, so the worklist rounds really run.
        let mut g = Graph::new("t");
        let a = g.param("a", 8);
        let mut layer = vec![a];
        for _ in 0..3 {
            let mut next = Vec::new();
            for &n in &layer {
                next.push(g.unary(OpKind::Not, n).unwrap());
                next.push(g.unary(OpKind::Neg, n).unwrap());
            }
            layer = next;
        }
        let out =
            layer.iter().skip(1).fold(layer[0], |acc, &n| g.binary(OpKind::Xor, acc, n).unwrap());
        g.set_output(out);
        let delays: Vec<f64> = (0..g.len()).map(|i| (i % 5) as f64 * 7.0 + 3.0).collect();
        let base = DelayMatrix::initialize(&g, &delays);
        for (lo, hi, fb) in [(0usize, 6usize, 11.0), (4, 12, 6.0), (2, 9, 4.0)] {
            let members: Vec<NodeId> = (lo..hi.min(g.len())).map(|i| NodeId(i as u32)).collect();
            let mut reference = base.clone();
            reference.apply_subgraph_feedback(&members, fb);
            let mut ref_rounds = 0usize;
            while reference.reformulate(&g) {
                ref_rounds += 1;
            }
            let ref_rounds = ref_rounds.max(1);
            let mut exact = base.clone();
            exact.apply_subgraph_feedback(&members, fb);
            let rounds = exact.reformulate_exact(&g);
            assert_eq!(exact, reference, "fixpoint diverged for feedback {fb}");
            assert_eq!(rounds, ref_rounds, "round count diverged for feedback {fb}");
        }
    }

    #[test]
    fn max_relative_gap_zero_for_identical() {
        let (g, _) = chain();
        let d = DelayMatrix::initialize(&g, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.max_relative_gap(&d.clone()), 0.0);
    }
}
