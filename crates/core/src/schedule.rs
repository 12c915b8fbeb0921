//! Pipeline schedules and their cost metrics.
//!
//! A [`Schedule`] assigns every IR node a clock cycle (pipeline stage). The
//! register metric follows the paper's accounting (Eq. 3 weighs registers by
//! `bit_count`): a value produced in stage `i` whose last consumer sits in
//! stage `j` occupies `width * (j - i)` register bits — one `width`-bit
//! register per crossed stage boundary. Graph outputs are carried to the
//! final stage, and parameters enter at stage 0.

use crate::delay::DelayMatrix;
use crate::scheduler::timing_bound;
use isdc_ir::{Graph, NodeId};
use isdc_techlib::Picos;

/// A pipeline schedule: one stage index per node.
///
/// # Examples
///
/// ```
/// use isdc_ir::{Graph, OpKind};
/// use isdc_core::Schedule;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = Graph::new("t");
/// let a = g.param("a", 8);
/// let b = g.param("b", 8);
/// let x = g.binary(OpKind::Add, a, b)?;
/// let y = g.binary(OpKind::Mul, x, x)?;
/// g.set_output(y);
///
/// // a, b, x in stage 0; y in stage 1.
/// let s = Schedule::new(vec![0, 0, 0, 1]);
/// assert_eq!(s.num_stages(), 2);
/// // x (8 bits) crosses one boundary; y is produced in the last stage.
/// assert_eq!(s.register_bits(&g), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    cycles: Vec<u32>,
}

impl Schedule {
    /// Wraps per-node stage indices (indexed by node id).
    pub fn new(cycles: Vec<u32>) -> Self {
        Self { cycles }
    }

    /// The stage of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn cycle(&self, id: NodeId) -> u32 {
        self.cycles[id.index()]
    }

    /// All stage indices, indexed by node id.
    pub fn cycles(&self) -> &[u32] {
        &self.cycles
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// True if the schedule covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }

    /// Number of pipeline stages (`max cycle + 1`).
    pub fn num_stages(&self) -> u32 {
        self.cycles.iter().copied().max().map_or(0, |m| m + 1)
    }

    /// Node ids scheduled in `stage`, ascending.
    pub fn stage_members(&self, stage: u32) -> Vec<NodeId> {
        self.cycles
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == stage)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// The stage of the last consumer of `id` (graph outputs live to the
    /// final stage; unused non-output values die in their own stage).
    pub fn last_use_cycle(&self, graph: &Graph, id: NodeId) -> u32 {
        let own = self.cycle(id);
        let mut last = own;
        for &u in graph.users(id) {
            last = last.max(self.cycle(u));
        }
        if graph.outputs().contains(&id) {
            last = last.max(self.num_stages().saturating_sub(1));
        }
        last
    }

    /// Total pipeline register bits — the paper's "Register Num." metric.
    ///
    /// # Panics
    ///
    /// Panics if the schedule does not cover every node of `graph`.
    pub fn register_bits(&self, graph: &Graph) -> u64 {
        assert_eq!(self.cycles.len(), graph.len(), "schedule does not match graph");
        let mut bits = 0u64;
        for (id, node) in graph.iter() {
            let span = self.last_use_cycle(graph, id) - self.cycle(id);
            bits += node.width as u64 * span as u64;
        }
        bits
    }

    /// Checks that every operand is scheduled no later than its user.
    /// Returns the first violating `(operand, user)` pair, if any.
    pub fn first_dependency_violation(&self, graph: &Graph) -> Option<(NodeId, NodeId)> {
        for (id, node) in graph.iter() {
            for &op in &node.operands {
                if self.cycle(op) > self.cycle(id) {
                    return Some((op, id));
                }
            }
        }
        None
    }

    /// Checks the schedule against the dense SDC system of paper §II: every
    /// dependency ([`Schedule::first_dependency_violation`]), then every
    /// pair `(u, v)` with a delay `D`, which Eq. 2 puts at least
    /// `ceil(D / Tclk) - 1` stages apart. Reads all `n²` pairs through
    /// [`DelayMatrix::get`], relying on no emission rule or connectivity
    /// index. Returns the first violating pair, if any.
    pub fn first_constraint_violation(
        &self,
        graph: &Graph,
        delays: &DelayMatrix,
        clock_period_ps: Picos,
    ) -> Option<(NodeId, NodeId)> {
        self.first_dependency_violation(graph).or_else(|| {
            let mut pairs = graph.node_ids().flat_map(|u| graph.node_ids().map(move |v| (u, v)));
            pairs.find(|&(u, v)| {
                delays.get(u, v).is_some_and(|d| {
                    i64::from(self.cycle(u)) - i64::from(self.cycle(v))
                        > timing_bound(d, clock_period_ps)
                })
            })
        })
    }

    /// For each stage, the node set that is *computed* in it — the
    /// combinational region between that stage's input and output registers.
    pub fn stages(&self) -> Vec<Vec<NodeId>> {
        (0..self.num_stages()).map(|s| self.stage_members(s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isdc_ir::OpKind;

    fn pipeline() -> (Graph, [NodeId; 5]) {
        let mut g = Graph::new("t");
        let a = g.param("a", 8);
        let b = g.param("b", 16);
        let a16 = g.unary(OpKind::ZeroExt { new_width: 16 }, a).unwrap();
        let x = g.binary(OpKind::Add, a16, b).unwrap();
        let y = g.binary(OpKind::Mul, x, b).unwrap();
        g.set_output(y);
        (g, [a, b, a16, x, y])
    }

    #[test]
    fn stage_accounting() {
        let (_, _) = pipeline();
        let s = Schedule::new(vec![0, 0, 0, 1, 2]);
        assert_eq!(s.num_stages(), 3);
        assert_eq!(s.stage_members(1), vec![NodeId(3)]);
        assert_eq!(s.stages().len(), 3);
    }

    #[test]
    fn register_bits_counts_crossings() {
        let (g, [_, b, a16, x, y]) = pipeline();
        // a,b,a16 at 0; x at 1; y at 2.
        let s = Schedule::new(vec![0, 0, 0, 1, 2]);
        // a: 8 bits, last use (a16) at 0 -> 0 crossings.
        // b: 16 bits, last use (y) at 2 -> 32 bits.
        // a16: 16 bits, last use (x) at 1 -> 16 bits.
        // x: 16 bits, last use (y) at 2 -> 16 bits.
        // y: output in final stage -> 0.
        assert_eq!(s.register_bits(&g), 32 + 16 + 16);
        let _ = (b, a16, x, y);
    }

    #[test]
    fn outputs_carried_to_final_stage() {
        let (g, _) = pipeline();
        // Same as above but y scheduled at stage 1 while the pipeline still
        // has 3 stages (x pushed to stage 2 makes no sense; instead give y
        // an early slot and a dangling stage via another node).
        // Simpler: schedule y at 1, max stage 1 -> y in final stage, 0 cost.
        let s = Schedule::new(vec![0, 0, 0, 0, 1]);
        // b crosses 1 boundary (16), a16 none (x at 0), x crosses 1 (16).
        assert_eq!(s.register_bits(&g), 16 + 16);
    }

    #[test]
    fn single_stage_needs_no_registers() {
        let (g, _) = pipeline();
        let s = Schedule::new(vec![0; 5]);
        assert_eq!(s.register_bits(&g), 0);
        assert_eq!(s.num_stages(), 1);
    }

    #[test]
    fn dependency_violation_detected() {
        let (g, [_, _, a16, x, _]) = pipeline();
        let s = Schedule::new(vec![0, 0, 1, 0, 2]); // a16 after its user x
        assert_eq!(s.first_dependency_violation(&g), Some((a16, x)));
        let ok = Schedule::new(vec![0, 0, 0, 1, 2]);
        assert_eq!(ok.first_dependency_violation(&g), None);
    }

    #[test]
    fn dense_constraint_violations_detected() {
        // x and y take 600ps each: at 1000ps every pair into y through x
        // (1200ps) splits across two stages, while every other pair fits.
        let (g, [a, _, a16, x, y]) = pipeline();
        let d = DelayMatrix::initialize(&g, &[0.0, 0.0, 0.0, 600.0, 600.0]);
        let split = Schedule::new(vec![0, 0, 0, 0, 1]);
        assert_eq!(split.first_constraint_violation(&g, &d, 1000.0), None);
        let chained = Schedule::new(vec![0; 5]);
        assert_eq!(chained.first_constraint_violation(&g, &d, 1000.0), Some((a, y)));
        let reversed = Schedule::new(vec![0, 0, 1, 0, 1]); // a16 after its user x
        assert_eq!(reversed.first_constraint_violation(&g, &d, 1000.0), Some((a16, x)));
    }

    #[test]
    fn last_use_of_dead_value_is_own_stage() {
        let mut g = Graph::new("t");
        let a = g.param("a", 4);
        let dead = g.unary(OpKind::Not, a).unwrap();
        let out = g.unary(OpKind::Neg, a).unwrap();
        g.set_output(out);
        let s = Schedule::new(vec![0, 0, 1]);
        assert_eq!(s.last_use_cycle(&g, dead), 0);
        assert_eq!(s.register_bits(&g), 4); // only `a` crossing to stage 1
    }
}
