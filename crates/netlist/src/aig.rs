//! And-inverter graphs (AIGs) with structural hashing.
//!
//! The AIG is the netlist representation of the downstream-tool simulator:
//! HLS operations are bit-blasted into two-input ANDs and complemented edges,
//! optimized by `isdc-synth` passes, then timed by STA. This mirrors the
//! ABC/Yosys internal representation referenced by the paper.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A literal: a reference to an AIG node with an optional complement.
///
/// Encoded as `node_index << 1 | complement`, the classic AIGER packing.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AigLit(u32);

impl AigLit {
    /// Constant false (the complement of [`AigLit::TRUE`]).
    pub const FALSE: AigLit = AigLit(0);
    /// Constant true.
    pub const TRUE: AigLit = AigLit(1);

    fn new(node: u32, complement: bool) -> Self {
        AigLit(node << 1 | complement as u32)
    }

    /// The index of the referenced node.
    pub fn node(self) -> u32 {
        self.0 >> 1
    }

    /// True if the edge is complemented.
    pub fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complemented literal.
    ///
    /// Deliberately an inherent method (not `std::ops::Not`): literal
    /// complementation is cheap bit math, and `l.not()` mirrors AIGER
    /// terminology.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn not(self) -> Self {
        AigLit(self.0 ^ 1)
    }

    /// True if this is one of the two constant literals.
    pub fn is_const(self) -> bool {
        self.node() == 0
    }

    /// The positive (non-complemented) literal for a node index.
    ///
    /// Intended for passes that rebuild AIGs node by node.
    pub fn positive(node: u32) -> Self {
        AigLit::new(node, false)
    }
}

impl fmt::Debug for AigLit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == AigLit::FALSE {
            return f.write_str("const0");
        }
        if *self == AigLit::TRUE {
            return f.write_str("const1");
        }
        write!(f, "{}a{}", if self.is_complemented() { "!" } else { "" }, self.node())
    }
}

/// One AIG node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AigNode {
    /// The reserved constant-false node (always index 0).
    Const,
    /// A primary input; the payload is the input ordinal.
    Input(u32),
    /// Two-input AND of the operand literals.
    And(AigLit, AigLit),
}

/// An and-inverter graph with structural hashing and constant folding.
///
/// Every [`Aig::and`] call canonicalizes operand order, applies the local
/// simplification rules (`x&0`, `x&1`, `x&x`, `x&!x`) and deduplicates
/// against previously built nodes, so equivalent two-level structures are
/// shared automatically — the baseline optimization any logic synthesizer
/// performs. Deduplication costs one probe of a table keyed on a cheap
/// multiplicative hash of the canonical operand pair, as in ABC's AIG
/// package. Copies made by [`Aig::sweep`] carry no table; the first
/// [`Aig::and`] on one builds it from the nodes.
///
/// # Examples
///
/// ```
/// use isdc_netlist::{Aig, AigLit};
///
/// let mut aig = Aig::new();
/// let a = aig.input();
/// let b = aig.input();
/// let x = aig.xor(a, b);
/// aig.push_output(x);
/// assert_eq!(aig.eval(&[true, false])[0], true);
/// assert_eq!(aig.eval(&[true, true])[0], false);
/// ```
#[derive(Clone, Debug)]
pub struct Aig {
    nodes: Vec<AigNode>,
    inputs: Vec<u32>,
    outputs: Vec<AigLit>,
    /// Canonical operand pair -> AND node index; `None` until the first
    /// [`Aig::and`] needs it.
    strash: Option<Strash>,
}

/// The structural-hash table. Nothing iterates it, so its hasher cannot
/// change a result, and its keys are literals this AIG numbered itself in
/// sequence, so a cheap hasher spreads them well.
type Strash = HashMap<(AigLit, AigLit), u32, BuildHasherDefault<PairHasher>>;

/// A multiplicative word hasher (the Fx scheme): each written word is
/// rotated in, xored and multiplied by an odd constant. A strash key is
/// two `u32` literals, so hashing one costs two multiplies.
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u32(u32::from(byte));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(word)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Aig {
    fn default() -> Self {
        Self::new()
    }
}

impl Aig {
    /// Creates an empty AIG (containing only the constant node).
    pub fn new() -> Self {
        Self { nodes: vec![AigNode::Const], inputs: Vec::new(), outputs: Vec::new(), strash: None }
    }

    /// Adds a primary input and returns its (positive) literal.
    pub fn input(&mut self) -> AigLit {
        let ordinal = self.inputs.len() as u32;
        let idx = self.nodes.len() as u32;
        self.nodes.push(AigNode::Input(ordinal));
        self.inputs.push(idx);
        AigLit::new(idx, false)
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Registers an output literal.
    pub fn push_output(&mut self, lit: AigLit) {
        self.outputs.push(lit);
    }

    /// The output literals in registration order.
    pub fn outputs(&self) -> &[AigLit] {
        &self.outputs
    }

    /// Replaces output `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_output(&mut self, i: usize, lit: AigLit) {
        self.outputs[i] = lit;
    }

    /// All nodes (index 0 is the constant node).
    pub fn nodes(&self) -> &[AigNode] {
        &self.nodes
    }

    /// Number of AND nodes (the standard AIG size metric).
    pub fn num_ands(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, AigNode::And(..))).count()
    }

    /// Builds `a & b` with constant folding, canonicalization and structural
    /// hashing: one table probe, which either finds the existing node or
    /// claims the next index for a new one.
    pub fn and(&mut self, a: AigLit, b: AigLit) -> AigLit {
        // Constant / trivial folding.
        if a == AigLit::FALSE || b == AigLit::FALSE || a == b.not() {
            return AigLit::FALSE;
        }
        if a == AigLit::TRUE {
            return b;
        }
        if b == AigLit::TRUE || a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        let next = self.nodes.len() as u32;
        let strash = self.strash.get_or_insert_with(|| strash_of(&self.nodes));
        let idx = *strash.entry((a, b)).or_insert(next);
        if idx == next {
            self.nodes.push(AigNode::And(a, b));
        }
        AigLit::new(idx, false)
    }

    /// Builds `a | b` (De Morgan on [`Aig::and`]).
    pub fn or(&mut self, a: AigLit, b: AigLit) -> AigLit {
        self.and(a.not(), b.not()).not()
    }

    /// Builds `a ^ b` (three ANDs).
    pub fn xor(&mut self, a: AigLit, b: AigLit) -> AigLit {
        let t1 = self.and(a, b.not());
        let t2 = self.and(a.not(), b);
        self.or(t1, t2)
    }

    /// Builds `a ~^ b`.
    pub fn xnor(&mut self, a: AigLit, b: AigLit) -> AigLit {
        self.xor(a, b).not()
    }

    /// Builds `if s { t } else { e }`.
    pub fn mux(&mut self, s: AigLit, t: AigLit, e: AigLit) -> AigLit {
        if t == e {
            return t;
        }
        let on_true = self.and(s, t);
        let on_false = self.and(s.not(), e);
        self.or(on_true, on_false)
    }

    /// AND-reduces a slice of literals with a balanced tree.
    pub fn and_tree(&mut self, lits: &[AigLit]) -> AigLit {
        self.tree(lits, AigLit::TRUE, Self::and)
    }

    /// OR-reduces a slice of literals with a balanced tree.
    pub fn or_tree(&mut self, lits: &[AigLit]) -> AigLit {
        self.tree(lits, AigLit::FALSE, Self::or)
    }

    /// XOR-reduces a slice of literals with a balanced tree.
    pub fn xor_tree(&mut self, lits: &[AigLit]) -> AigLit {
        self.tree(lits, AigLit::FALSE, Self::xor)
    }

    fn tree(
        &mut self,
        lits: &[AigLit],
        empty: AigLit,
        mut combine: impl FnMut(&mut Self, AigLit, AigLit) -> AigLit,
    ) -> AigLit {
        match lits.len() {
            0 => empty,
            1 => lits[0],
            _ => {
                let mut layer = lits.to_vec();
                while layer.len() > 1 {
                    let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                    for pair in layer.chunks(2) {
                        next.push(if pair.len() == 2 {
                            combine(self, pair[0], pair[1])
                        } else {
                            pair[0]
                        });
                    }
                    layer = next;
                }
                layer[0]
            }
        }
    }

    /// Evaluates all outputs on concrete input bits (ordered by input
    /// creation order).
    ///
    /// # Panics
    ///
    /// Panics if `input_bits.len()` differs from the number of inputs.
    pub fn eval(&self, input_bits: &[bool]) -> Vec<bool> {
        assert_eq!(
            input_bits.len(),
            self.inputs.len(),
            "expected {} input bits, got {}",
            self.inputs.len(),
            input_bits.len()
        );
        let mut values = vec![false; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            values[i] = match node {
                AigNode::Const => false,
                AigNode::Input(ord) => input_bits[*ord as usize],
                AigNode::And(a, b) => {
                    let va = values[a.node() as usize] ^ a.is_complemented();
                    let vb = values[b.node() as usize] ^ b.is_complemented();
                    va && vb
                }
            };
        }
        self.outputs.iter().map(|lit| values[lit.node() as usize] ^ lit.is_complemented()).collect()
    }

    /// Per-node AND-depth: constants and inputs are depth 0, an AND node is
    /// one more than its deepest operand.
    pub fn depths(&self) -> Vec<u32> {
        let mut depths = vec![0u32; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            if let AigNode::And(a, b) = node {
                depths[i] = 1 + depths[a.node() as usize].max(depths[b.node() as usize]);
            }
        }
        depths
    }

    /// The maximum AND-depth over all outputs — the paper's Fig. 8 metric.
    pub fn depth(&self) -> u32 {
        let depths = self.depths();
        self.outputs.iter().map(|lit| depths[lit.node() as usize]).max().unwrap_or(0)
    }

    /// Per-node fanout counts (uses by AND nodes plus output uses).
    pub fn fanouts(&self) -> Vec<u32> {
        let mut fanout = vec![0u32; self.nodes.len()];
        for node in &self.nodes {
            if let AigNode::And(a, b) = node {
                fanout[a.node() as usize] += 1;
                fanout[b.node() as usize] += 1;
            }
        }
        for lit in &self.outputs {
            fanout[lit.node() as usize] += 1;
        }
        fanout
    }

    /// Rebuilds the AIG keeping only nodes reachable from the outputs,
    /// returning the cleaned copy. Input ordinals are preserved (dangling
    /// inputs are kept so input ordering stays stable).
    ///
    /// Every AND of `self` was built by [`Aig::and`] or copied by a sweep,
    /// so no two share an operand pair and none folds; renumbering keeps
    /// that true. Each
    /// reachable AND is therefore pushed straight onto the copy, with its
    /// pair re-sorted into canonical order, without a table probe. The copy
    /// carries no table until its first [`Aig::and`].
    pub fn sweep(&self) -> Aig {
        let mut out = Aig::new();
        // Recreate all inputs in order.
        let mut map: Vec<Option<AigLit>> = vec![None; self.nodes.len()];
        map[0] = Some(AigLit::FALSE);
        for &idx in &self.inputs {
            map[idx as usize] = Some(out.input());
        }
        let mut reachable = vec![false; self.nodes.len()];
        let mut stack: Vec<u32> = self.outputs.iter().map(|l| l.node()).collect();
        while let Some(n) = stack.pop() {
            if reachable[n as usize] {
                continue;
            }
            reachable[n as usize] = true;
            if let AigNode::And(a, b) = self.nodes[n as usize] {
                stack.push(a.node());
                stack.push(b.node());
            }
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if !reachable[i] || map[i].is_some() {
                continue;
            }
            if let AigNode::And(a, b) = node {
                let la = map[a.node() as usize].expect("topological order") ^ a.is_complemented();
                let lb = map[b.node() as usize].expect("topological order") ^ b.is_complemented();
                debug_assert!(!la.is_const() && !lb.is_const() && la.node() != lb.node());
                let idx = out.nodes.len() as u32;
                out.nodes.push(AigNode::And(la.min(lb), la.max(lb)));
                map[i] = Some(AigLit::new(idx, false));
            }
        }
        for lit in &self.outputs {
            let l = map[lit.node() as usize].expect("output resolved") ^ lit.is_complemented();
            out.push_output(l);
        }
        out
    }
}

/// The strash table of a node list whose ANDs are distinct canonical pairs.
fn strash_of(nodes: &[AigNode]) -> Strash {
    let mut strash = Strash::default();
    for (i, node) in nodes.iter().enumerate() {
        if let AigNode::And(a, b) = *node {
            strash.insert((a, b), i as u32);
        }
    }
    strash
}

impl std::ops::BitXor<bool> for AigLit {
    type Output = AigLit;

    fn bitxor(self, complement: bool) -> AigLit {
        if complement {
            self.not()
        } else {
            self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding_rules() {
        let mut aig = Aig::new();
        let a = aig.input();
        assert_eq!(aig.and(a, AigLit::FALSE), AigLit::FALSE);
        assert_eq!(aig.and(a, AigLit::TRUE), a);
        assert_eq!(aig.and(a, a), a);
        assert_eq!(aig.and(a, a.not()), AigLit::FALSE);
        assert_eq!(aig.num_ands(), 0);
    }

    #[test]
    fn structural_hashing_shares_nodes() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let x = aig.and(a, b);
        let y = aig.and(b, a); // commuted — must hash to the same node
        assert_eq!(x, y);
        assert_eq!(aig.num_ands(), 1);
    }

    #[test]
    fn eval_basic_gates() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let and = aig.and(a, b);
        let or = aig.or(a, b);
        let xor = aig.xor(a, b);
        aig.push_output(and);
        aig.push_output(or);
        aig.push_output(xor);
        for (x, y) in [(false, false), (false, true), (true, false), (true, true)] {
            let out = aig.eval(&[x, y]);
            assert_eq!(out, vec![x && y, x || y, x ^ y], "inputs {x} {y}");
        }
    }

    #[test]
    fn mux_truth_table() {
        let mut aig = Aig::new();
        let s = aig.input();
        let t = aig.input();
        let e = aig.input();
        let m = aig.mux(s, t, e);
        aig.push_output(m);
        for s_v in [false, true] {
            for t_v in [false, true] {
                for e_v in [false, true] {
                    let out = aig.eval(&[s_v, t_v, e_v]);
                    assert_eq!(out[0], if s_v { t_v } else { e_v });
                }
            }
        }
    }

    #[test]
    fn mux_same_arms_collapses() {
        let mut aig = Aig::new();
        let s = aig.input();
        let t = aig.input();
        assert_eq!(aig.mux(s, t, t), t);
        assert_eq!(aig.num_ands(), 0);
    }

    #[test]
    fn balanced_trees_have_log_depth() {
        let mut aig = Aig::new();
        let inputs: Vec<AigLit> = (0..16).map(|_| aig.input()).collect();
        let root = aig.and_tree(&inputs);
        aig.push_output(root);
        assert_eq!(aig.depth(), 4); // log2(16)
        let all_true = vec![true; 16];
        assert!(aig.eval(&all_true)[0]);
        let mut one_false = all_true.clone();
        one_false[7] = false;
        assert!(!aig.eval(&one_false)[0]);
    }

    #[test]
    fn xor_tree_parity() {
        let mut aig = Aig::new();
        let inputs: Vec<AigLit> = (0..8).map(|_| aig.input()).collect();
        let root = aig.xor_tree(&inputs);
        aig.push_output(root);
        let bits = [true, false, true, true, false, false, true, false];
        let parity = bits.iter().filter(|&&b| b).count() % 2 == 1;
        assert_eq!(aig.eval(&bits)[0], parity);
    }

    #[test]
    fn empty_trees_yield_identity() {
        let mut aig = Aig::new();
        assert_eq!(aig.and_tree(&[]), AigLit::TRUE);
        assert_eq!(aig.or_tree(&[]), AigLit::FALSE);
        assert_eq!(aig.xor_tree(&[]), AigLit::FALSE);
    }

    #[test]
    fn depth_and_fanout() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let x = aig.and(a, b);
        let y = aig.and(x, a); // a used twice
        aig.push_output(y);
        assert_eq!(aig.depth(), 2);
        let fo = aig.fanouts();
        assert_eq!(fo[a.node() as usize], 2);
        assert_eq!(fo[x.node() as usize], 1);
        assert_eq!(fo[y.node() as usize], 1);
    }

    #[test]
    fn sweep_removes_dead_logic() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let live = aig.and(a, b);
        let _dead = aig.xor(a, b); // three ANDs, never used
        aig.push_output(live);
        assert!(aig.num_ands() > 1);
        let swept = aig.sweep();
        assert_eq!(swept.num_ands(), 1);
        assert_eq!(swept.num_inputs(), 2);
        for (x, y) in [(false, true), (true, true)] {
            assert_eq!(swept.eval(&[x, y]), aig.eval(&[x, y]));
        }
    }

    #[test]
    fn sweep_preserves_complemented_outputs() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let x = aig.and(a, b);
        aig.push_output(x.not());
        let swept = aig.sweep();
        assert_eq!(swept.eval(&[true, true]), vec![false]);
        assert_eq!(swept.eval(&[false, true]), vec![true]);
    }

    #[test]
    fn default_is_the_empty_aig() {
        let mut aig = Aig::default();
        assert_eq!(aig.nodes(), [AigNode::Const]);
        let a = aig.input();
        let b = aig.input();
        assert!(!a.is_const() && !b.is_const());
        let x = aig.and(a, b);
        assert_eq!(aig.num_ands(), 1);
        aig.push_output(x);
        assert_eq!(aig.eval(&[true, false]), vec![false]);
        assert_eq!(aig.eval(&[true, true]), vec![true]);
    }

    #[test]
    fn and_on_a_swept_copy_finds_existing_nodes() {
        // `c` is created after `x`, so the sweep numbers it first and flips
        // the literal order of `y`'s operand pair.
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let x = aig.and(a, b);
        let c = aig.input();
        let y = aig.and(x, c.not());
        aig.push_output(y);
        let mut swept = aig.sweep();
        for node in swept.nodes() {
            if let AigNode::And(l, r) = *node {
                assert!(l <= r, "pair ({l:?}, {r:?}) is not canonical");
            }
        }
        let [sa, sb, sc] = [1, 2, 3].map(AigLit::positive);
        let sy = swept.outputs()[0];
        let sx = swept.and(sa, sb);
        assert_eq!(swept.and(sb, sa), sx);
        assert_eq!(swept.and(sx, sc.not()), sy);
        assert_eq!(swept.and(sc.not(), sx), sy);
        assert_eq!(swept.num_ands(), 2);
        // A new pair still gets a new node, once.
        let z = swept.and(sa, sc);
        assert_eq!(swept.and(sc, sa), z);
        assert_eq!(swept.num_ands(), 3);
    }

    #[test]
    fn lit_encoding() {
        let l = AigLit::new(5, true);
        assert_eq!(l.node(), 5);
        assert!(l.is_complemented());
        assert_eq!(l.not().not(), l);
        assert_eq!(format!("{:?}", AigLit::TRUE), "const1");
    }
}
