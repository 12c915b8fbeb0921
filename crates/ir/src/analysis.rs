//! Structural analyses over [`Graph`]: topological orders, reachability,
//! logic levels and transitive fan-in/fan-out sets.

use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// Node ids in a valid topological order (operands before users).
///
/// Creation order is already topological, so this is simply the id sequence;
/// it exists as a named function so call sites read like the paper's
/// pseudo-code (`topo_sort(V)`).
pub fn topo_order(graph: &Graph) -> Vec<NodeId> {
    graph.node_ids().collect()
}

/// Node ids in reverse topological order (users before operands).
pub fn reverse_topo_order(graph: &Graph) -> Vec<NodeId> {
    let mut v = topo_order(graph);
    v.reverse();
    v
}

/// Dense bit-matrix of the reflexive-transitive *is-connected* relation:
/// `reaches(u, v)` is true iff there is a directed path from `u` to `v`
/// (including `u == v`).
///
/// This is the `is_connected(u, v)` predicate of the paper's Alg. 1. The
/// matrix costs `n^2 / 8` bytes — fine for the graph sizes HLS scheduling
/// operates on.
///
/// # Examples
///
/// ```
/// use isdc_ir::{Graph, OpKind, analysis::ReachabilityMatrix};
///
/// let mut g = Graph::new("chain");
/// let a = g.param("a", 8);
/// let b = g.param("b", 8);
/// let s = g.binary(OpKind::Add, a, b).unwrap();
/// let t = g.unary(OpKind::Not, s).unwrap();
/// g.set_output(t);
///
/// let r = ReachabilityMatrix::compute(&g);
/// assert!(r.reaches(a, t));
/// assert!(!r.reaches(a, b));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReachabilityMatrix {
    n: usize,
    words_per_row: usize,
    /// Row `u` holds the set of nodes reachable **from** `u`.
    bits: Vec<u64>,
}

impl ReachabilityMatrix {
    /// Computes reachability for every ordered pair, in `O(n^2 / 64 * e)`
    /// word operations via reverse-topological bitset union.
    pub fn compute(graph: &Graph) -> Self {
        let n = graph.len();
        let words_per_row = n.div_ceil(64);
        let mut bits = vec![0u64; n * words_per_row];
        // Process users-first so each node can union its users' rows, which
        // lie after its own (users have larger ids).
        for u in (0..n).rev() {
            let (head, tail) = bits.split_at_mut((u + 1) * words_per_row);
            let row = &mut head[u * words_per_row..];
            row[u / 64] |= 1u64 << (u % 64);
            for user in graph.users(NodeId(u as u32)) {
                let start = (user.index() - u - 1) * words_per_row;
                for (w, &val) in row.iter_mut().zip(&tail[start..start + words_per_row]) {
                    *w |= val;
                }
            }
        }
        Self { n, words_per_row, bits }
    }

    /// The converse relation: `t.reaches(v, u)` iff `self.reaches(u, v)`,
    /// so row `v` of the transpose holds every node that reaches `v`.
    pub fn transpose(&self) -> Self {
        let mut bits = vec![0u64; self.bits.len()];
        for u in 0..self.n {
            for v in self.row(NodeId(u as u32)) {
                bits[v.index() * self.words_per_row + u / 64] |= 1u64 << (u % 64);
            }
        }
        Self { n: self.n, words_per_row: self.words_per_row, bits }
    }

    /// True iff a directed path (possibly empty) exists from `u` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn reaches(&self, u: NodeId, v: NodeId) -> bool {
        assert!(u.index() < self.n && v.index() < self.n, "node id out of range");
        let base = u.index() * self.words_per_row;
        self.bits[base + v.index() / 64] >> (v.index() % 64) & 1 == 1
    }

    /// Every `v` with `reaches(u, v)`, `u` itself included, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn row(&self, u: NodeId) -> Row<'_> {
        let start = u.index() * self.words_per_row;
        Row { words: self.bits[start..start + self.words_per_row].iter(), base: 0, cur: 0 }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the matrix covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// The nodes of one [`ReachabilityMatrix`] row, ascending.
#[derive(Clone, Debug)]
pub struct Row<'a> {
    words: std::slice::Iter<'a, u64>,
    /// Node index of the word after `cur`'s.
    base: usize,
    /// The bits of the current word not yet returned.
    cur: u64,
}

impl Iterator for Row<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        while self.cur == 0 {
            self.cur = *self.words.next()?;
            self.base += 64;
        }
        let bit = self.cur.trailing_zeros() as usize;
        self.cur &= self.cur - 1;
        Some(NodeId((self.base - 64 + bit) as u32))
    }
}

/// The logic level (longest path length in *edges* from any param/literal) of
/// every node. Sources have level 0.
pub fn logic_levels(graph: &Graph) -> Vec<u32> {
    let mut levels = vec![0u32; graph.len()];
    for (id, node) in graph.iter() {
        let lvl = node.operands.iter().map(|&o| levels[o.index()] + 1).max().unwrap_or(0);
        levels[id.index()] = lvl;
    }
    levels
}

/// All transitive operands of `roots` (inclusive), as a sorted id list.
///
/// Used by cone extraction to find the fan-in region of a path endpoint.
pub fn transitive_fanin(graph: &Graph, roots: &[NodeId]) -> Vec<NodeId> {
    collect(graph.len(), roots, |id| graph.node(id).operands.clone())
}

/// All transitive users of `roots` (inclusive), as a sorted id list.
pub fn transitive_fanout(graph: &Graph, roots: &[NodeId]) -> Vec<NodeId> {
    collect(graph.len(), roots, |id| graph.users(id).to_vec())
}

fn collect(n: usize, roots: &[NodeId], neighbors: impl Fn(NodeId) -> Vec<NodeId>) -> Vec<NodeId> {
    let mut seen = vec![false; n];
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    for &r in roots {
        assert!(r.index() < n, "node id out of range");
        if !seen[r.index()] {
            seen[r.index()] = true;
            queue.push_back(r);
        }
    }
    while let Some(id) = queue.pop_front() {
        for next in neighbors(id) {
            if !seen[next.index()] {
                seen[next.index()] = true;
                queue.push_back(next);
            }
        }
    }
    let mut out: Vec<NodeId> = (0..n as u32).map(NodeId).filter(|id| seen[id.index()]).collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;

    fn diamond() -> (Graph, [NodeId; 5]) {
        // a -> l, r -> join ; b feeds both sides
        let mut g = Graph::new("diamond");
        let a = g.param("a", 8);
        let b = g.param("b", 8);
        let l = g.binary(OpKind::Add, a, b).unwrap();
        let r = g.binary(OpKind::Xor, a, b).unwrap();
        let j = g.binary(OpKind::And, l, r).unwrap();
        g.set_output(j);
        (g, [a, b, l, r, j])
    }

    #[test]
    fn reachability_diamond() {
        let (g, [a, b, l, r, j]) = diamond();
        let m = ReachabilityMatrix::compute(&g);
        assert!(m.reaches(a, j));
        assert!(m.reaches(b, j));
        assert!(m.reaches(l, j));
        assert!(m.reaches(a, a)); // reflexive
        assert!(!m.reaches(l, r));
        assert!(!m.reaches(j, a)); // no back edges
    }

    #[test]
    fn rows_list_reachable_nodes_and_transpose_lists_ancestors() {
        let (g, [a, b, l, r, j]) = diamond();
        let m = ReachabilityMatrix::compute(&g);
        assert_eq!(m.row(a).collect::<Vec<_>>(), vec![a, l, r, j]);
        assert_eq!(m.row(j).collect::<Vec<_>>(), vec![j]);
        let t = m.transpose();
        assert_eq!(t.row(j).collect::<Vec<_>>(), vec![a, b, l, r, j]);
        assert_eq!(t.row(l).collect::<Vec<_>>(), vec![a, b, l]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn reachability_wide_graph_crosses_word_boundary() {
        // Chain of >64 nodes so bitset rows span multiple words.
        let mut g = Graph::new("chain");
        let mut prev = g.param("p", 8);
        let first = prev;
        for _ in 0..100 {
            prev = g.unary(OpKind::Not, prev).unwrap();
        }
        g.set_output(prev);
        let m = ReachabilityMatrix::compute(&g);
        assert!(m.reaches(first, prev));
        assert!(!m.reaches(prev, first));
        assert_eq!(m.row(first).count(), g.len());
        assert_eq!(m.row(first).last(), Some(prev));
        assert_eq!(m.transpose().row(prev).count(), g.len());
    }

    #[test]
    fn levels() {
        let (g, [a, b, l, _r, j]) = diamond();
        let lv = logic_levels(&g);
        assert_eq!(lv[a.index()], 0);
        assert_eq!(lv[b.index()], 0);
        assert_eq!(lv[l.index()], 1);
        assert_eq!(lv[j.index()], 2);
    }

    #[test]
    fn fanin_fanout_sets() {
        let (g, [a, b, l, r, j]) = diamond();
        assert_eq!(transitive_fanin(&g, &[j]), vec![a, b, l, r, j]);
        assert_eq!(transitive_fanin(&g, &[l]), vec![a, b, l]);
        assert_eq!(transitive_fanout(&g, &[a]), vec![a, l, r, j]);
        assert_eq!(transitive_fanout(&g, &[j]), vec![j]);
    }

    #[test]
    fn orders() {
        let (g, _) = diamond();
        let topo = topo_order(&g);
        assert_eq!(topo.len(), g.len());
        let rev = reverse_topo_order(&g);
        assert_eq!(rev[0], *topo.last().unwrap());
    }
}
