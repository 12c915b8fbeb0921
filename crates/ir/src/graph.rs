//! The HLS IR dataflow graph and its builder.

use crate::op::OpKind;
use crate::value::BitVecValue;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a node within a [`Graph`].
///
/// Node ids are dense indices assigned in creation order, which is always a
/// valid topological order because operands must exist before their users.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A single operation node.
#[derive(Clone, Debug, PartialEq)]
pub struct Node {
    /// What the node computes.
    pub kind: OpKind,
    /// Operand node ids, in positional order.
    pub operands: Vec<NodeId>,
    /// Result width in bits.
    pub width: u32,
    /// Optional user-facing name (parameters always have one).
    pub name: Option<String>,
}

/// Errors produced when constructing or validating a [`Graph`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// An operand id referred to a node that does not exist (or to a later
    /// node, which would create a cycle).
    InvalidOperand {
        /// The offending operand id.
        operand: NodeId,
        /// Number of nodes existing when the reference was made.
        node_count: usize,
    },
    /// Operand widths are inconsistent with the operation kind.
    WidthMismatch {
        /// Explanation from [`OpKind::infer_width`].
        message: String,
    },
    /// The graph has no output nodes.
    NoOutputs,
    /// A name was used for two different nodes.
    DuplicateName(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::InvalidOperand { operand, node_count } => {
                write!(f, "operand {operand} is out of range for graph with {node_count} nodes")
            }
            GraphError::WidthMismatch { message } => f.write_str(message),
            GraphError::NoOutputs => f.write_str("graph has no output nodes"),
            GraphError::DuplicateName(name) => write!(f, "duplicate node name `{name}`"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A directed acyclic dataflow graph of HLS IR operations.
///
/// This is the unit ISDC schedules: nodes are operations (additions,
/// multiplications, selects, ...), edges are data dependencies. Acyclicity is
/// guaranteed by construction — operands must already exist when a node is
/// added, so node-id order is a topological order.
///
/// # Examples
///
/// ```
/// use isdc_ir::{Graph, OpKind};
///
/// let mut g = Graph::new("mac");
/// let a = g.param("a", 16);
/// let b = g.param("b", 16);
/// let c = g.param("c", 16);
/// let prod = g.binary(OpKind::Mul, a, b).unwrap();
/// let sum = g.binary(OpKind::Add, prod, c).unwrap();
/// g.set_output(sum);
/// assert_eq!(g.node(sum).width, 16);
/// assert_eq!(g.users(prod), &[sum]);
/// ```
#[derive(Clone, Debug)]
pub struct Graph {
    name: String,
    nodes: Vec<Node>,
    params: Vec<NodeId>,
    outputs: Vec<NodeId>,
    /// `users[v]` = ids of nodes that consume `v`, deduplicated, ascending.
    users: Vec<Vec<NodeId>>,
}

impl Graph {
    /// Creates an empty graph with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nodes: Vec::new(),
            params: Vec::new(),
            outputs: Vec::new(),
            users: Vec::new(),
        }
    }

    /// The graph's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph contains no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Accesses a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// All node ids in creation (= topological) order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All nodes with their ids, in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> + '_ {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i as u32), n))
    }

    /// The parameter (primary input) nodes.
    pub fn params(&self) -> &[NodeId] {
        &self.params
    }

    /// The output nodes.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Adds a parameter node of the given width and returns its id.
    pub fn param(&mut self, name: impl Into<String>, width: u32) -> NodeId {
        let id = self.push(Node {
            kind: OpKind::Param,
            operands: vec![],
            width,
            name: Some(name.into()),
        });
        self.params.push(id);
        id
    }

    /// Adds a literal (constant) node.
    pub fn literal(&mut self, value: BitVecValue) -> NodeId {
        let width = value.width();
        self.push(Node { kind: OpKind::Literal(value), operands: vec![], width, name: None })
    }

    /// Convenience: a literal from the low `width` bits of `x`.
    pub fn literal_u64(&mut self, x: u64, width: u32) -> NodeId {
        self.literal(BitVecValue::from_u64(x, width))
    }

    /// Adds an operation node with explicit operands, inferring the width.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidOperand`] if an operand id is out of
    /// range, or [`GraphError::WidthMismatch`] if the operand widths are
    /// inconsistent with `kind`.
    pub fn add_node(&mut self, kind: OpKind, operands: Vec<NodeId>) -> Result<NodeId, GraphError> {
        for &op in &operands {
            if op.index() >= self.nodes.len() {
                return Err(GraphError::InvalidOperand {
                    operand: op,
                    node_count: self.nodes.len(),
                });
            }
        }
        let widths: Vec<u32> = operands.iter().map(|&o| self.nodes[o.index()].width).collect();
        let width =
            kind.infer_width(&widths).map_err(|message| GraphError::WidthMismatch { message })?;
        Ok(self.push(Node { kind, operands, width, name: None }))
    }

    /// Adds a unary operation.
    ///
    /// # Errors
    ///
    /// See [`Graph::add_node`].
    pub fn unary(&mut self, kind: OpKind, a: NodeId) -> Result<NodeId, GraphError> {
        self.add_node(kind, vec![a])
    }

    /// Adds a binary operation.
    ///
    /// # Errors
    ///
    /// See [`Graph::add_node`].
    pub fn binary(&mut self, kind: OpKind, a: NodeId, b: NodeId) -> Result<NodeId, GraphError> {
        self.add_node(kind, vec![a, b])
    }

    /// Adds a two-way select.
    ///
    /// # Errors
    ///
    /// See [`Graph::add_node`].
    pub fn select(
        &mut self,
        selector: NodeId,
        on_true: NodeId,
        on_false: NodeId,
    ) -> Result<NodeId, GraphError> {
        self.add_node(OpKind::Sel, vec![selector, on_true, on_false])
    }

    /// Marks a node as a graph output. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set_output(&mut self, id: NodeId) {
        assert!(id.index() < self.nodes.len(), "output {id} out of range");
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
    }

    /// Assigns a user-facing name to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set_name(&mut self, id: NodeId, name: impl Into<String>) {
        self.nodes[id.index()].name = Some(name.into());
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.users.push(Vec::new());
        for &op in node.operands.clone().iter() {
            let list = &mut self.users[op.index()];
            if list.last() != Some(&id) {
                list.push(id);
            }
        }
        self.nodes.push(node);
        id
    }

    /// The nodes that consume `id`'s result, deduplicated, ascending.
    ///
    /// This is the `num_users` fanout quantity of the paper's Eq. 3.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn users(&self, id: NodeId) -> &[NodeId] {
        &self.users[id.index()]
    }

    /// Checks structural invariants: output presence, operand ordering, unique
    /// non-empty names, consistent widths.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.outputs.is_empty() {
            return Err(GraphError::NoOutputs);
        }
        let mut seen_names: HashMap<&str, NodeId> = HashMap::new();
        for (id, node) in self.iter() {
            for &op in &node.operands {
                if op.index() >= id.index() {
                    return Err(GraphError::InvalidOperand { operand: op, node_count: id.index() });
                }
            }
            let widths: Vec<u32> =
                node.operands.iter().map(|&o| self.nodes[o.index()].width).collect();
            if node.kind != OpKind::Param {
                let inferred = node
                    .kind
                    .infer_width(&widths)
                    .map_err(|message| GraphError::WidthMismatch { message })?;
                if inferred != node.width {
                    return Err(GraphError::WidthMismatch {
                        message: format!(
                            "node {id} declares width {} but {} infers {}",
                            node.width,
                            node.kind.mnemonic(),
                            inferred
                        ),
                    });
                }
            }
            if let Some(name) = &node.name {
                if let Some(prev) = seen_names.insert(name.as_str(), id) {
                    if prev != id {
                        return Err(GraphError::DuplicateName(name.clone()));
                    }
                }
            }
        }
        Ok(())
    }

    /// Total number of result bits across all non-free nodes — a rough size
    /// metric used in reports.
    pub fn total_bits(&self) -> u64 {
        self.nodes.iter().filter(|n| !n.kind.is_free()).map(|n| n.width as u64).sum()
    }

    /// Counts nodes of each mnemonic, for workload reporting.
    pub fn op_histogram(&self) -> HashMap<&'static str, usize> {
        let mut h = HashMap::new();
        for node in &self.nodes {
            *h.entry(node.kind.mnemonic()).or_insert(0) += 1;
        }
        h
    }
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.nodes == other.nodes
            && self.params == other.params
            && self.outputs == other.outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac() -> (Graph, NodeId, NodeId) {
        let mut g = Graph::new("mac");
        let a = g.param("a", 16);
        let b = g.param("b", 16);
        let c = g.param("c", 16);
        let prod = g.binary(OpKind::Mul, a, b).unwrap();
        let sum = g.binary(OpKind::Add, prod, c).unwrap();
        g.set_output(sum);
        (g, prod, sum)
    }

    #[test]
    fn build_and_validate() {
        let (g, _, sum) = mac();
        assert_eq!(g.len(), 5);
        assert_eq!(g.params().len(), 3);
        assert_eq!(g.outputs(), &[sum]);
        g.validate().unwrap();
    }

    #[test]
    fn users_tracking() {
        let (mut g, prod, sum) = mac();
        assert_eq!(g.users(prod), &[sum]);
        assert!(g.users(sum).is_empty());
        let d = g.binary(OpKind::Xor, prod, prod).unwrap();
        // duplicate operand appears once
        assert_eq!(g.users(prod), &[sum, d]);
    }

    #[test]
    fn invalid_operand_rejected() {
        let mut g = Graph::new("t");
        let a = g.param("a", 8);
        let err = g.binary(OpKind::Add, a, NodeId(99)).unwrap_err();
        assert!(matches!(err, GraphError::InvalidOperand { .. }));
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut g = Graph::new("t");
        let a = g.param("a", 8);
        let b = g.param("b", 9);
        let err = g.binary(OpKind::Add, a, b).unwrap_err();
        assert!(matches!(err, GraphError::WidthMismatch { .. }));
    }

    #[test]
    fn validate_catches_no_outputs() {
        let mut g = Graph::new("t");
        g.param("a", 8);
        assert_eq!(g.validate(), Err(GraphError::NoOutputs));
    }

    #[test]
    fn validate_catches_duplicate_names() {
        let mut g = Graph::new("t");
        let a = g.param("x", 8);
        let b = g.param("y", 8);
        let s = g.binary(OpKind::Add, a, b).unwrap();
        g.set_name(s, "x");
        g.set_output(s);
        assert_eq!(g.validate(), Err(GraphError::DuplicateName("x".into())));
    }

    #[test]
    fn set_output_idempotent() {
        let (mut g, _, sum) = mac();
        g.set_output(sum);
        assert_eq!(g.outputs().len(), 1);
    }

    #[test]
    fn histogram_counts() {
        let (g, _, _) = mac();
        let h = g.op_histogram();
        assert_eq!(h["param"], 3);
        assert_eq!(h["mul"], 1);
        assert_eq!(h["add"], 1);
    }
}
