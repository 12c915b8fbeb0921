//! Exact LP optimization over difference constraints via the min-cost-flow
//! dual.
//!
//! The SDC scheduling LP is
//!
//! ```text
//! minimize    sum_v w_v * x_v
//! subject to  x_u - x_v <= b_uv        (all constraints)
//! ```
//!
//! Its Lagrangian dual is an uncapacitated min-cost flow: each constraint
//! becomes an arc `u -> v` with cost `b_uv`, and each variable `v` a node
//! that must receive net inflow `w_v`. We solve it with successive shortest
//! paths under node potentials (Dijkstra on reduced costs), seeding the
//! potentials from a feasible point so all reduced costs start
//! nonnegative. At termination the potentials *are* an optimal primal
//! solution — integral, because all bounds are integers (total
//! unimodularity, the property the paper's §II leans on).
//!
//! **The cold start.** A cold solve takes the Bellman-Ford feasible point
//! and then lowers every positively weighted variable (every deficit node
//! of the flow) at once to the largest lower bound its constraints allow
//! ([`DifferenceSystem::lower_weighted`]). The point stays feasible, the
//! objective never rises, and each deficit's tightest in-arc becomes
//! reduced-cost zero, so the drain starts closer to the optimum (the
//! primal-dual warm start of Ahuja, Magnanti & Orlin, *Network Flows*,
//! 1993, ch. 9). In the scheduler these variables are the last-use
//! variables, which Bellman-Ford leaves at 0 and the tightened start drops
//! to their latest user.
//!
//! The drain itself ([`ssp_drain`]) runs one early-exit single-source
//! Dijkstra per augmenting path, popping deficits first among equal
//! distances. A drain that starts from zero flow (a cold start, or
//! potentials imported by
//! [`IncrementalSolver::warm_from_potentials`](crate::IncrementalSolver::warm_from_potentials))
//! first moves all the supply that residual arcs of reduced cost exactly 0
//! can carry as one max flow ([`zero_cost_max_flow`]) and leaves only the
//! rest to those searches; a re-drain after relaxed bounds runs the
//! searches alone. [`DrainStats`] counts what the search did. No second
//! solver vouches for the result: the flow it ends with is a certificate
//! that [`crate::certify`] checks the returned optimum against.
//!
//! Because the LP can have many optimal vertices, the raw SSP potentials
//! depend on pivot order. To make every solve path (cold, and the
//! warm-started [`crate::IncrementalSolver`]) return the *same* optimum, the
//! solution is canonicalized: the final flow's support fixes the optimal
//! face (complementary slackness: every optimal assignment is tight on every
//! flow-carrying constraint), and within that face we return the canonical
//! shortest-path point — the componentwise-maximal optimum at or below zero.
//! That point is a property of the LP alone, not of the solve path.

#[cfg(test)]
use crate::system::VarId;
use crate::system::{DifferenceSystem, SolveError};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An optimal solution to the SDC LP.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LpSolution {
    /// Optimal integral variable assignment.
    pub assignment: Vec<i64>,
    /// The objective value `sum w_v * x_v`.
    pub objective: i64,
}

/// Counters from the successive-shortest-paths drain of one solve: how much
/// search the solver actually ran. On a re-drain every augmenting path
/// costs one early-exit Dijkstra, so `dijkstras == paths`. A drain from
/// zero flow delivers most of its paths by the zero-cost max flow, which
/// runs no Dijkstra, so there `dijkstras <= paths`. `nodes_settled` is the
/// measure of search effort either way.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Dijkstra searches run, one per path the max flow left to search for.
    pub dijkstras: u64,
    /// Nodes settled across all Dijkstra searches, plus nodes visited by
    /// the max flow's breadth-first level searches.
    pub nodes_settled: u64,
    /// Augmenting source->deficit paths pushed along.
    pub paths: u64,
    /// Total flow units delivered.
    pub flow_pushed: u64,
}

impl std::ops::AddAssign for DrainStats {
    fn add_assign(&mut self, rhs: DrainStats) {
        self.dijkstras += rhs.dijkstras;
        self.nodes_settled += rhs.nodes_settled;
        self.paths += rhs.paths;
        self.flow_pushed += rhs.flow_pushed;
    }
}

/// Minimizes `sum weights[v] * x_v` subject to the system's constraints.
///
/// Weights must sum to zero; objectives over *differences* of variables
/// (register lifetimes, latency spans, ...) always satisfy this, and it is
/// what makes the LP bounded under translation of all variables.
///
/// The returned assignment is canonical: among all optimal assignments at or
/// below zero, the componentwise-maximal one. Repeated solves of equivalent
/// systems (even with redundant constraints added or removed) return
/// bit-identical assignments.
///
/// # Errors
///
/// - [`SolveError::UnbalancedObjective`] if weights do not sum to zero;
/// - [`SolveError::Infeasible`] if the constraints contradict;
/// - [`SolveError::Unbounded`] if the objective diverges to `-inf` (a weighted
///   variable pair unconstrained against each other).
///
/// # Examples
///
/// ```
/// use isdc_sdc::{minimize, DifferenceSystem, VarId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Minimize x1 - x0 with x0 <= x1 <= x0 + 5 : optimum is 0.
/// let mut sys = DifferenceSystem::new(2);
/// sys.add_constraint(VarId(0), VarId(1), 0);  // x0 - x1 <= 0
/// sys.add_constraint(VarId(1), VarId(0), 5);  // x1 - x0 <= 5
/// let sol = minimize(&sys, &[-1, 1])?;
/// assert_eq!(sol.objective, 0);
/// # Ok(())
/// # }
/// ```
pub fn minimize(system: &DifferenceSystem, weights: &[i64]) -> Result<LpSolution, SolveError> {
    crate::incremental::IncrementalSolver::new(system.clone(), weights.to_vec())?.solve()
}

pub(crate) fn dot(weights: &[i64], x: &[i64]) -> i64 {
    weights.iter().zip(x).map(|(&w, &v)| w * v).sum()
}

/// Arc-paired residual network.
#[derive(Clone, Debug)]
pub(crate) struct FlowNetwork {
    /// (to, cost, remaining_cap); arcs stored in pairs, arc^1 is the reverse.
    arcs: Vec<(usize, i64, i64)>,
    from: Vec<usize>,
    /// adjacency: outgoing arc indices per node.
    adj: Vec<Vec<usize>>,
}

pub(crate) const INF_CAP: i64 = i64::MAX / 4;

impl FlowNetwork {
    pub(crate) fn new(n: usize) -> Self {
        Self { arcs: Vec::new(), from: Vec::new(), adj: vec![Vec::new(); n] }
    }

    pub(crate) fn add_arc(&mut self, u: usize, v: usize, cost: i64) {
        let fwd = self.arcs.len();
        self.arcs.push((v, cost, INF_CAP));
        self.from.push(u);
        self.adj[u].push(fwd);
        let rev = self.arcs.len();
        self.arcs.push((u, -cost, 0));
        self.from.push(v);
        self.adj[v].push(rev);
    }

    pub(crate) fn residual_cap(&self, arc: usize) -> i64 {
        self.arcs[arc].2
    }

    /// Flow currently carried by a *forward* constraint arc.
    pub(crate) fn flow(&self, fwd_arc: usize) -> i64 {
        INF_CAP - self.arcs[fwd_arc].2
    }

    pub(crate) fn arc_from(&self, arc: usize) -> usize {
        self.from[arc]
    }

    pub(crate) fn push(&mut self, arc: usize, amount: i64) {
        self.arcs[arc].2 -= amount;
        self.arcs[arc ^ 1].2 += amount;
    }

    /// Rewrites the cost of a forward arc (and its paired reverse arc).
    pub(crate) fn set_cost(&mut self, fwd_arc: usize, cost: i64) {
        self.arcs[fwd_arc].1 = cost;
        self.arcs[fwd_arc ^ 1].1 = -cost;
    }
}

/// Persistent scratch for [`ssp_drain`]: the Dijkstra working set, reused
/// across searches *and* across solves (it lives in the warm state), so a
/// re-drain allocates no search buffers. Buffers are versioned — `stamp[v]`
/// marks `dist`/`parent`/`cur` valid and `settled[v]` marks settlement for
/// the search whose counter matches — so clearing between searches is
/// O(1), not O(n). A max-flow round of [`zero_cost_max_flow`] counts as
/// one search: its levels live in `dist` and its BFS queue in
/// `settle_order`.
#[derive(Clone, Debug, Default)]
pub(crate) struct SolverScratch {
    dist: Vec<i64>,
    stamp: Vec<u32>,
    settled: Vec<u32>,
    /// Shortest-path tree parent arc (valid while `stamp` matches); the
    /// augmentation walks it back from the deficit to the source.
    parent: Vec<usize>,
    /// Max-flow current-arc pointer into the node's adjacency (valid while
    /// `stamp` matches): arcs before it are exhausted for the round.
    cur: Vec<u32>,
    version: u32,
    heap: BinaryHeap<Reverse<(i64, usize)>>,
    /// Nodes settled this search, in settle (= distance) order.
    settle_order: Vec<usize>,
    /// The max-flow DFS path, as a stack of arc indices.
    path: Vec<usize>,
}

impl SolverScratch {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            dist: vec![0; n],
            stamp: vec![0; n],
            settled: vec![0; n],
            parent: vec![usize::MAX; n],
            cur: vec![0; n],
            version: 0,
            heap: BinaryHeap::new(),
            settle_order: Vec::new(),
            path: Vec::new(),
        }
    }

    /// Starts a fresh Dijkstra search: bumps the version (invalidating every
    /// stamp at once) and empties the heap and the settle list.
    fn begin_search(&mut self) {
        if self.version == u32::MAX {
            // Stamp wraparound: reset all stamps once every 2^32 searches so
            // a stale stamp can never alias the new version.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.settled.iter_mut().for_each(|s| *s = 0);
            self.version = 0;
        }
        self.version += 1;
        self.heap.clear();
        self.settle_order.clear();
    }
}

/// Successive-shortest-paths drain: delivers all positive excess to
/// deficits with one early-exit single-source Dijkstra over reduced costs
/// per augmenting path, keeping every residual arc's reduced cost
/// nonnegative. A cold solve drains the objective's full supply; a warm
/// re-solve drains only the excess that canceling flow on relaxed arcs
/// re-exposed. Deficits are dense in SDC scheduling duals, so each search
/// settles a small neighbourhood of its source.
///
/// - **Potential update.** Let `dt` be the distance of the deficit a
///   search stops at. Settled nodes get `pi += dist` and every other node
///   `pi += dt` (its true distance is `>= dt`), which keeps all residual
///   reduced costs nonnegative and makes the path just found
///   reduced-cost zero. The unsettled share is applied as a **global
///   offset** folded into `pi` once at the end of the drain, so each
///   update is O(settled), not O(n): offsets cancel in the `pi[u] - pi[v]`
///   differences every scan reads.
/// - **Deficits first.** At equal reduced distance the heap pops deficits
///   before every other node (ties within each class go to the smaller
///   index), so a search stops at the first distance where a deficit is
///   reachable instead of settling that whole distance level first. From a
///   tightened cold start most routes to a deficit are reduced-cost zero,
///   so this is where the search saves the most. The potential update
///   stays sound: entries still pop in distance order, so every settled
///   node has `dist <= dt` and everything left in the heap, hence every
///   unsettled node's true distance, is `>= dt`.
///
/// With `zero_flow` set (the network carries no flow yet: a cold start, or
/// imported potentials), the drain first runs [`zero_cost_max_flow`] and
/// the searches deliver only what it leaves. Re-drains pass `false`: their
/// excess is what canceled flow re-exposed, and a max flow there re-walks
/// the zero-cost region around every relaxed arc for little gain.
///
/// The tie rule and the max flow can change which optimal flow the drain
/// ends with, but never the canonical assignment (see
/// [`canonical_assignment`]). Counters are accumulated into `stats`.
pub(crate) fn ssp_drain(
    net: &mut FlowNetwork,
    excess: &mut [i64],
    pi: &mut [i64],
    scratch: &mut SolverScratch,
    zero_flow: bool,
    stats: &mut DrainStats,
) -> Result<(), SolveError> {
    let n = excess.len();
    debug_assert_eq!(scratch.dist.len(), n, "scratch sized for this network");
    if zero_flow {
        zero_cost_max_flow(net, excess, pi, scratch, stats)?;
    }
    // Heap key of a node: itself if it is a deficit, `n` past it otherwise,
    // so deficits sort first at equal distance (see the doc comment).
    let key = |v: usize, excess: &[i64]| if excess[v] < 0 { v } else { v + n };
    // Pushes only move excess from a source toward a deficit (a target's
    // excess rises toward zero, never past it), so the initial source list
    // is complete.
    let mut sources: Vec<usize> = (0..n).filter(|&v| excess[v] > 0).collect();
    let mut offset: i64 = 0;
    while let Some(&source) = sources.last() {
        // Per-search cancellation poll: one relaxed load when disarmed. The
        // caller discards partial drain state on the error, so bailing
        // between searches never leaks a half-applied potential update.
        isdc_cancel::checkpoint().map_err(|_| SolveError::Cancelled)?;
        if excess[source] <= 0 {
            sources.pop();
            continue;
        }
        scratch.begin_search();
        let version = scratch.version;
        scratch.dist[source] = 0;
        scratch.parent[source] = usize::MAX;
        scratch.stamp[source] = version;
        scratch.heap.push(Reverse((0, key(source, excess))));
        let mut target = None;
        while let Some(Reverse((d, k))) = scratch.heap.pop() {
            let (u, deficit) = if k < n { (k, true) } else { (k - n, false) };
            if scratch.settled[u] == version || d > scratch.dist[u] {
                continue;
            }
            scratch.settled[u] = version;
            scratch.settle_order.push(u);
            if deficit {
                target = Some(u);
                break;
            }
            for &arc in &net.adj[u] {
                let (v, cost, cap) = net.arcs[arc];
                if cap <= 0 {
                    continue;
                }
                let reduced = cost + pi[u] - pi[v];
                debug_assert!(reduced >= 0, "reduced cost must stay nonnegative");
                let nd = d + reduced;
                if scratch.stamp[v] != version || nd < scratch.dist[v] {
                    scratch.dist[v] = nd;
                    scratch.parent[v] = arc;
                    scratch.stamp[v] = version;
                    scratch.heap.push(Reverse((nd, key(v, excess))));
                }
            }
        }
        let Some(target) = target else {
            // Supply cannot reach any deficit: the dual is infeasible, so
            // the primal objective is unbounded below.
            return Err(SolveError::Unbounded);
        };
        stats.dijkstras += 1;
        stats.nodes_settled += scratch.settle_order.len() as u64;
        // Settled-capped potential update; the `+dt` every node owes is
        // deferred into `offset` (see the doc comment).
        let dt = scratch.dist[target];
        offset += dt;
        for &v in &scratch.settle_order {
            pi[v] += scratch.dist[v] - dt;
        }
        let mut amount = excess[source].min(-excess[target]);
        let mut v = target;
        while v != source {
            let arc = scratch.parent[v];
            amount = amount.min(net.residual_cap(arc));
            v = net.arc_from(arc);
        }
        debug_assert!(amount > 0);
        let mut v = target;
        while v != source {
            let arc = scratch.parent[v];
            net.push(arc, amount);
            v = net.arc_from(arc);
        }
        excess[source] -= amount;
        excess[target] += amount;
        stats.paths += 1;
        stats.flow_pushed += amount as u64;
    }
    if offset != 0 {
        // Fold the deferred share into the real potentials: one O(n) pass
        // per drain call instead of one per augmentation.
        pi.iter_mut().for_each(|p| *p += offset);
    }
    Ok(())
}

/// Dinic max flow (Dinic, 1970) over the residual arcs whose reduced cost
/// is exactly 0: the primal-dual step that moves every unit of supply a
/// zero-cost route can carry at once (Ahuja, Magnanti & Orlin, *Network
/// Flows*, 1993, §9.8), where single-source searches would each re-walk
/// the same zero-cost region to route around deficits earlier paths
/// filled. Pushing along zero-reduced-cost arcs opens only
/// zero-reduced-cost reverse arcs, so every reduced cost stays
/// nonnegative and no potential moves. What no zero-cost route can carry
/// stays as excess for [`ssp_drain`]'s searches.
///
/// Each round runs one BFS that labels levels from every source with
/// excess and stops at the first level holding a deficit, then a
/// blocking-flow DFS with a current-arc pointer per node that walks the
/// sources in descending index order, the order the searches pop them in.
/// Rounds repeat until a BFS reaches no deficit; each one lengthens the
/// shortest zero-cost route, so there are at most `n`. BFS visits count
/// as `nodes_settled`, augmentations as `paths`.
fn zero_cost_max_flow(
    net: &mut FlowNetwork,
    excess: &mut [i64],
    pi: &[i64],
    scratch: &mut SolverScratch,
    stats: &mut DrainStats,
) -> Result<(), SolveError> {
    let mut sources: Vec<usize> = (0..excess.len()).filter(|&v| excess[v] > 0).collect();
    while !sources.is_empty() {
        // Per-round cancellation poll; the caller discards the partial flow
        // on the error, as it does for the searches.
        isdc_cancel::checkpoint().map_err(|_| SolveError::Cancelled)?;
        scratch.begin_search();
        let version = scratch.version;
        for &s in &sources {
            scratch.stamp[s] = version;
            scratch.dist[s] = 0;
            scratch.cur[s] = 0;
            scratch.settle_order.push(s);
        }
        // BFS levels. Every node of the first deficit level is labeled by
        // the time the queue reaches that level, so it is never expanded.
        let mut limit = i64::MAX;
        let mut head = 0;
        while let Some(&u) = scratch.settle_order.get(head) {
            head += 1;
            let level = scratch.dist[u];
            if level >= limit {
                break;
            }
            for &arc in &net.adj[u] {
                let (v, cost, cap) = net.arcs[arc];
                if cap <= 0 || scratch.stamp[v] == version {
                    continue;
                }
                let reduced = cost + pi[u] - pi[v];
                debug_assert!(reduced >= 0, "reduced cost must stay nonnegative");
                if reduced != 0 {
                    continue;
                }
                scratch.stamp[v] = version;
                scratch.dist[v] = level + 1;
                scratch.cur[v] = 0;
                scratch.settle_order.push(v);
                if excess[v] < 0 {
                    limit = level + 1;
                }
            }
        }
        stats.nodes_settled += scratch.settle_order.len() as u64;
        if limit == i64::MAX {
            return Ok(()); // no zero-cost route to a deficit remains
        }
        // Blocking flow over the level graph: zero-reduced-cost residual
        // arcs from one level to the next. Arcs exhausted for the round
        // are skipped for good by the current-arc pointer.
        for &root in sources.iter().rev() {
            scratch.path.clear();
            let mut u = root;
            while excess[root] > 0 {
                if excess[u] < 0 {
                    let mut amount = excess[root].min(-excess[u]);
                    for &arc in &scratch.path {
                        amount = amount.min(net.residual_cap(arc));
                    }
                    debug_assert!(amount > 0);
                    for &arc in &scratch.path {
                        net.push(arc, amount);
                    }
                    excess[root] -= amount;
                    excess[u] += amount;
                    stats.paths += 1;
                    stats.flow_pushed += amount as u64;
                    // Retreat to the tail of the first saturated arc; with
                    // none, the deficit is filled and is now a dead end.
                    if let Some(cut) =
                        scratch.path.iter().position(|&arc| net.residual_cap(arc) == 0)
                    {
                        u = net.arc_from(scratch.path[cut]);
                        scratch.path.truncate(cut);
                    }
                    continue;
                }
                let level = scratch.dist[u];
                let mut next = None;
                while level < limit && (scratch.cur[u] as usize) < net.adj[u].len() {
                    let arc = net.adj[u][scratch.cur[u] as usize];
                    let (v, cost, cap) = net.arcs[arc];
                    if cap > 0
                        && scratch.stamp[v] == version
                        && scratch.dist[v] == level + 1
                        && cost + pi[u] - pi[v] == 0
                    {
                        next = Some((arc, v));
                        break;
                    }
                    scratch.cur[u] += 1;
                }
                if let Some((arc, v)) = next {
                    scratch.path.push(arc);
                    u = v;
                } else if let Some(arc) = scratch.path.pop() {
                    // Dead end: retreat and exhaust the arc that led here.
                    u = net.arc_from(arc);
                    scratch.cur[u] += 1;
                } else {
                    break; // this source reaches no deficit this round
                }
            }
        }
        sources.retain(|&v| excess[v] > 0);
    }
    Ok(())
}

/// Precomputed adjacency (CSR) for the canonicalization graph. The edge
/// *topology* is fixed by the constraint set — constraint `(u, v, b)`
/// contributes a primal edge `v -> u` always, and a tight reverse edge
/// `u -> v` exactly while its dual arc carries flow — so an incremental
/// solver builds this once per warm state (again only after
/// [`IncrementalSolver::add_constraint`](crate::IncrementalSolver::add_constraint)
/// appends) and every canonicalization pass reuses it, instead of
/// re-allocating an adjacency list per solve (`O(m)` on systems that are
/// ~90% timing constraints). Bound changes never touch it: edge weights are
/// read from the system at solve time.
#[derive(Clone, Debug)]
pub(crate) struct CanonGraph {
    /// CSR over variables: constraints in which the variable is `v`.
    primal_start: Vec<u32>,
    primal: Vec<u32>,
    /// CSR over variables: constraints in which the variable is `u`.
    tight_start: Vec<u32>,
    tight: Vec<u32>,
}

impl CanonGraph {
    /// Builds the CSR adjacency over every constraint of `system`.
    pub(crate) fn new(system: &DifferenceSystem) -> Self {
        let n = system.num_vars();
        let m = system.constraints().len();
        let mut primal_start = vec![0u32; n + 1];
        let mut tight_start = vec![0u32; n + 1];
        for c in system.constraints() {
            primal_start[c.v.index() + 1] += 1;
            tight_start[c.u.index() + 1] += 1;
        }
        for i in 0..n {
            primal_start[i + 1] += primal_start[i];
            tight_start[i + 1] += tight_start[i];
        }
        let mut primal = vec![0u32; m];
        let mut tight = vec![0u32; m];
        let mut primal_at = primal_start.clone();
        let mut tight_at = tight_start.clone();
        for (ci, c) in system.constraints().iter().enumerate() {
            primal[primal_at[c.v.index()] as usize] = ci as u32;
            primal_at[c.v.index()] += 1;
            tight[tight_at[c.u.index()] as usize] = ci as u32;
            tight_at[c.u.index()] += 1;
        }
        Self { primal_start, primal, tight_start, tight }
    }

    fn primal_of(&self, v: usize) -> &[u32] {
        &self.primal[self.primal_start[v] as usize..self.primal_start[v + 1] as usize]
    }

    fn tight_of(&self, u: usize) -> &[u32] {
        &self.tight[self.tight_start[u] as usize..self.tight_start[u + 1] as usize]
    }
}

/// Canonicalizes an optimal solution: restricts to the optimal face (the
/// original constraints plus tightness on every flow-carrying constraint,
/// which by complementary slackness every optimum satisfies) and returns the
/// canonical virtual-source shortest-path point of that face — the
/// componentwise-maximal optimum at or below zero.
///
/// `x_star` (an optimal assignment, e.g. `-pi` after SSP) doubles as the
/// Dijkstra potential: it is feasible, and tight on the equality edges, so
/// all reduced edge weights are nonnegative and no Bellman-Ford is needed.
pub(crate) fn canonical_assignment(
    system: &DifferenceSystem,
    net: &FlowNetwork,
    x_star: &[i64],
    canon: &CanonGraph,
) -> Vec<i64> {
    let n = system.num_vars();
    if n == 0 {
        return Vec::new();
    }
    let constraints = system.constraints();
    // Virtual source: an edge of weight 0 to every node. With source
    // potential h_s = max(h), all its reduced weights h_s - h_u are >= 0.
    // Edge weights below are reduced under potential h = x_star.
    let h_s = x_star.iter().copied().max().expect("n > 0");
    let mut dist: Vec<i64> = x_star.iter().map(|&x| h_s - x).collect();
    let mut heap: BinaryHeap<Reverse<(i64, usize)>> =
        dist.iter().enumerate().map(|(v, &d)| Reverse((d, v))).collect();
    while let Some(Reverse((d, z))) = heap.pop() {
        if d > dist[z] {
            continue;
        }
        // Primal edges z -> u of weight b (dist_u <= dist_z + b).
        for &ci in canon.primal_of(z) {
            let c = constraints[ci as usize];
            let u = c.u.index();
            let w = c.bound + x_star[z] - x_star[u];
            debug_assert!(w >= 0, "x_star must be feasible");
            let nd = d + w;
            if nd < dist[u] {
                dist[u] = nd;
                heap.push(Reverse((nd, u)));
            }
        }
        // Tight reverse edges z -> v of weight -b, live while the dual arc
        // carries flow (the constraint is an equality on the face).
        for &ci in canon.tight_of(z) {
            if net.flow(2 * ci as usize) > 0 {
                let c = constraints[ci as usize];
                let v = c.v.index();
                let w = -c.bound + x_star[z] - x_star[v];
                debug_assert!(w == 0, "flow-carrying constraints must be tight at x_star");
                let nd = d + w;
                if nd < dist[v] {
                    dist[v] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
    }
    // Back out original-weight distances: dist_orig = dist_reduced + h_u - h_s.
    (0..n).map(|u| dist[u] + x_star[u] - h_s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force LP reference: enumerate integer points in a box. Only for
    /// tiny systems; relies on integral optima existing (total
    /// unimodularity) and the box covering an optimum.
    fn brute_force(system: &DifferenceSystem, weights: &[i64], lo: i64, hi: i64) -> Option<i64> {
        let n = system.num_vars();
        let mut best: Option<i64> = None;
        let mut point = vec![lo; n];
        loop {
            if system.first_violation(&point).is_none() {
                let obj = dot(weights, &point);
                best = Some(best.map_or(obj, |b: i64| b.min(obj)));
            }
            // Odometer increment.
            let mut i = 0;
            loop {
                if i == n {
                    return best;
                }
                point[i] += 1;
                if point[i] <= hi {
                    break;
                }
                point[i] = lo;
                i += 1;
            }
        }
    }

    fn check_against_brute(system: &DifferenceSystem, weights: &[i64]) {
        let sol = minimize(system, weights).expect("solvable");
        assert!(system.first_violation(&sol.assignment).is_none(), "solution feasible");
        assert_eq!(dot(weights, &sol.assignment), sol.objective);
        let reference = brute_force(system, weights, -6, 6).expect("brute found a point");
        assert_eq!(sol.objective, reference, "objective must match brute force");
    }

    #[test]
    fn minimize_span() {
        // Chain x0 <= x1 <= x2, each step >= 1; minimize x2 - x0 => 2.
        let mut sys = DifferenceSystem::new(3);
        sys.add_constraint(VarId(0), VarId(1), -1);
        sys.add_constraint(VarId(1), VarId(2), -1);
        let sol = minimize(&sys, &[-1, 0, 1]).unwrap();
        assert_eq!(sol.objective, 2);
        check_against_brute(&sys, &[-1, 0, 1]);
    }

    #[test]
    fn maximize_direction_is_bounded_by_upper_constraints() {
        // minimize x0 - x1 (i.e. push x1 late) with x1 - x0 <= 3: optimum -3.
        let mut sys = DifferenceSystem::new(2);
        sys.add_constraint(VarId(1), VarId(0), 3);
        let sol = minimize(&sys, &[1, -1]).unwrap();
        assert_eq!(sol.objective, -3);
    }

    #[test]
    fn unbounded_detected() {
        // minimize x0 - x1 with only x0 - x1 <= 5: no lower bound on the
        // difference, so the objective diverges.
        let mut sys = DifferenceSystem::new(2);
        sys.add_constraint(VarId(0), VarId(1), 5);
        assert_eq!(minimize(&sys, &[1, -1]).unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn unbalanced_weights_rejected() {
        let sys = DifferenceSystem::new(2);
        assert!(matches!(
            minimize(&sys, &[1, 1]).unwrap_err(),
            SolveError::UnbalancedObjective { weight_sum: 2 }
        ));
    }

    #[test]
    fn infeasible_propagates() {
        let mut sys = DifferenceSystem::new(2);
        sys.add_constraint(VarId(0), VarId(1), -1);
        sys.add_constraint(VarId(1), VarId(0), 0);
        assert!(matches!(minimize(&sys, &[-1, 1]).unwrap_err(), SolveError::Infeasible { .. }));
    }

    #[test]
    fn zero_objective_returns_feasible_point() {
        let mut sys = DifferenceSystem::new(2);
        sys.add_constraint(VarId(0), VarId(1), -1);
        let sol = minimize(&sys, &[0, 0]).unwrap();
        assert_eq!(sol.objective, 0);
        assert!(sys.first_violation(&sol.assignment).is_none());
    }

    #[test]
    fn diamond_lifetime_objective() {
        // Diamond: s -> a, b -> t. Dependencies: x_s <= x_a, x_b; x_a, x_b <= x_t.
        // Minimize (x_t - x_s)*2 + (x_a - x_s) with x_t - x_s >= 2.
        let mut sys = DifferenceSystem::new(4); // s=0, a=1, b=2, t=3
        for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            sys.add_constraint(VarId(u), VarId(v), 0); // x_u <= x_v
        }
        sys.add_constraint(VarId(0), VarId(3), -2); // x_s - x_t <= -2
        let weights = [-3, 1, 0, 2]; // 2(t-s) + (a-s)
        check_against_brute(&sys, &weights);
        let sol = minimize(&sys, &weights).unwrap();
        assert_eq!(sol.objective, 4); // t-s = 2 forced, a = s optimal
    }

    #[test]
    fn randomized_cross_check_against_brute_force() {
        let mut state = 0xdeadbeefu64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as i64
        };
        let mut solved = 0;
        for trial in 0..60 {
            let n = 3 + (trial % 3) as usize; // 3..=5 vars
            let mut sys = DifferenceSystem::new(n);
            for _ in 0..n + 2 {
                let u = rng().unsigned_abs() as usize % n;
                let v = rng().unsigned_abs() as usize % n;
                if u == v {
                    continue;
                }
                sys.add_constraint(VarId(u as u32), VarId(v as u32), rng() % 4);
            }
            // Balanced weights in [-2, 2].
            let mut weights: Vec<i64> = (0..n).map(|_| rng() % 3).collect();
            let s: i64 = weights.iter().sum();
            weights[0] -= s;
            let brute = brute_force(&sys, &weights, -6, 6);
            match minimize(&sys, &weights) {
                Ok(sol) => {
                    assert!(sys.first_violation(&sol.assignment).is_none(), "trial {trial}");
                    let b = brute.expect("brute agrees feasible");
                    assert_eq!(sol.objective, b, "trial {trial}");
                    solved += 1;
                }
                Err(SolveError::Infeasible { .. }) => {
                    assert_eq!(brute, None, "trial {trial}: brute disagrees on feasibility");
                }
                Err(SolveError::Unbounded) => {
                    // Brute force in a box cannot certify unboundedness; just
                    // require that widening the box keeps lowering the optimum.
                    let narrow = brute_force(&sys, &weights, -3, 3);
                    let wide = brute_force(&sys, &weights, -6, 6);
                    if let (Some(n_), Some(w_)) = (narrow, wide) {
                        assert!(w_ < n_, "trial {trial}: claimed unbounded but box optimum stable");
                    }
                }
                Err(e) => panic!("trial {trial}: unexpected error {e}"),
            }
        }
        assert!(solved >= 10, "too few solvable random systems ({solved}) — generator broken?");
    }

    #[test]
    fn solution_is_integral_and_tight_paths_exist() {
        let mut sys = DifferenceSystem::new(3);
        sys.add_constraint(VarId(0), VarId(1), -2);
        sys.add_constraint(VarId(1), VarId(2), -3);
        sys.add_constraint(VarId(0), VarId(2), -4);
        let weights = [-1, 0, 1]; // minimize x2 - x0
        let sol = minimize(&sys, &weights).unwrap();
        assert_eq!(sol.objective, 5); // through the chain: 2 + 3
    }

    #[test]
    fn canonical_solution_ignores_redundant_constraints() {
        // A redundant (implied) constraint must not change the canonical
        // assignment — the warm solver keeps relaxed-to-zero timing pairs
        // around, the cold path drops them, and both must agree bit-for-bit.
        let mut sys = DifferenceSystem::new(4);
        sys.add_constraint(VarId(0), VarId(1), -1);
        sys.add_constraint(VarId(1), VarId(2), -2);
        sys.add_constraint(VarId(2), VarId(3), 0);
        let weights = [-1, 1, -1, 1];
        let base = minimize(&sys, &weights).unwrap();
        // x0 - x2 <= -3 is implied by the chain; x0 - x3 <= 0 likewise.
        sys.add_constraint(VarId(0), VarId(2), -3);
        sys.add_constraint(VarId(0), VarId(3), 0);
        let redundant = minimize(&sys, &weights).unwrap();
        assert_eq!(base, redundant);
    }
}
