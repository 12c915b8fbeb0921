//! Logic-optimization passes over AIGs.
//!
//! These passes play the role of the Yosys/ABC synthesis script in the
//! paper's downstream flow. The load-bearing effect for ISDC is that a
//! multi-op subgraph synthesized as one unit ends up with a *shorter critical
//! path* than the sum of its members' pre-characterized delays; structural
//! hashing (in the AIG builder), dead-logic sweeping and depth-oriented
//! balancing reproduce that behaviour.

use isdc_netlist::{Aig, AigLit, AigNode};

/// One optimization pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    /// Remove logic unreachable from the outputs.
    Sweep,
    /// Depth-oriented rebalancing of AND/OR chains (Huffman-style: combine
    /// the shallowest operands first).
    Balance,
}

/// An ordered list of passes — the "synthesis script".
///
/// # Examples
///
/// ```
/// use isdc_synth::SynthScript;
///
/// let script = SynthScript::resyn();
/// assert!(!script.passes().is_empty());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SynthScript {
    passes: Vec<Pass>,
}

impl SynthScript {
    /// A script that performs no optimization (useful to measure the raw
    /// lowering).
    pub fn none() -> Self {
        Self { passes: vec![] }
    }

    /// The default script: sweep, balance, sweep — analogous to a light
    /// `resyn` ABC script.
    pub fn resyn() -> Self {
        Self { passes: vec![Pass::Sweep, Pass::Balance, Pass::Sweep] }
    }

    /// A custom pass list.
    pub fn custom(passes: Vec<Pass>) -> Self {
        Self { passes }
    }

    /// The pass list.
    pub fn passes(&self) -> &[Pass] {
        &self.passes
    }

    /// A compact identity string, e.g. `sweep,balance,sweep` (`none` for the
    /// empty script). Used to tell scripts apart in oracle names and cache
    /// snapshots.
    pub fn mnemonic(&self) -> String {
        if self.passes.is_empty() {
            return "none".to_string();
        }
        let names: Vec<&str> = self
            .passes
            .iter()
            .map(|p| match p {
                Pass::Sweep => "sweep",
                Pass::Balance => "balance",
            })
            .collect();
        names.join(",")
    }

    /// Runs every pass in order and returns the optimized AIG.
    ///
    /// The first pass reads `aig` where it lies; only the empty script
    /// copies it.
    pub fn run(&self, aig: &Aig) -> Aig {
        let Some((first, rest)) = self.passes.split_first() else {
            return aig.clone();
        };
        rest.iter().fold(first.apply(aig), |cur, pass| pass.apply(&cur))
    }
}

impl Pass {
    fn apply(self, aig: &Aig) -> Aig {
        match self {
            Pass::Sweep => aig.sweep(),
            Pass::Balance => balance(aig),
        }
    }
}

impl Default for SynthScript {
    fn default() -> Self {
        Self::resyn()
    }
}

/// Rebuilds the AIG with balanced AND trees.
///
/// For every AND node, the maximal conjunction reachable through
/// non-complemented AND operands is flattened and recombined shallowest-first
/// (a Huffman tree over arrival depth). Because OR is represented as a
/// complemented AND of complemented literals, OR chains are balanced by the
/// same mechanism one level in.
///
/// Each recombining AND is one strash probe into the output AIG; the
/// per-node leaf, stack and depth lists are reused across nodes.
pub fn balance(aig: &Aig) -> Aig {
    let mut out = Aig::new();
    let nodes = aig.nodes();
    // map[i] = literal in `out` equivalent to node i (positive polarity).
    let mut map: Vec<Option<AigLit>> = vec![None; nodes.len()];
    map[0] = Some(AigLit::FALSE);
    // Incrementally tracked AND-depths of `out` nodes (const node = 0).
    let mut out_depths: Vec<u32> = vec![0];
    let mut leaves: Vec<AigLit> = Vec::new();
    let mut stack: Vec<u32> = Vec::new();
    let mut translated: Vec<(u32, AigLit)> = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        match node {
            AigNode::Const => {}
            AigNode::Input(_) => {
                map[i] = Some(out.input());
                out_depths.push(0);
            }
            AigNode::And(..) => {
                flatten_conjunction(nodes, i as u32, &mut leaves, &mut stack);
                // Translate leaves into the new AIG with their depths.
                translated.clear();
                translated.extend(leaves.iter().map(|l| {
                    let lit =
                        map[l.node() as usize].expect("topological order") ^ l.is_complemented();
                    (out_depths[lit.node() as usize], lit)
                }));
                // Huffman-style: repeatedly combine the two shallowest.
                translated.sort_by_key(|&(d, _)| std::cmp::Reverse(d));
                while translated.len() > 1 {
                    let (d1, l1) = translated.pop().expect("len > 1");
                    let (d2, l2) = translated.pop().expect("len > 1");
                    let combined = out.and(l1, l2);
                    if combined.node() as usize >= out_depths.len() {
                        // A genuinely new node.
                        out_depths.push(d1.max(d2) + 1);
                    }
                    let d = out_depths[combined.node() as usize];
                    // Insert keeping descending depth order.
                    let pos =
                        translated.iter().position(|&(dd, _)| dd <= d).unwrap_or(translated.len());
                    translated.insert(pos, (d, combined));
                }
                map[i] = Some(translated.pop().map(|(_, l)| l).unwrap_or(AigLit::TRUE));
            }
        }
    }
    for lit in aig.outputs() {
        let l = map[lit.node() as usize].expect("outputs resolved") ^ lit.is_complemented();
        out.push_output(l);
    }
    out
}

/// Collects the flattened conjunction of node `root` into `leaves`,
/// expanding through non-complemented AND operands (iteratively over
/// `stack`, to handle long chains).
fn flatten_conjunction(
    nodes: &[AigNode],
    root: u32,
    leaves: &mut Vec<AigLit>,
    stack: &mut Vec<u32>,
) {
    leaves.clear();
    stack.clear();
    stack.push(root);
    while let Some(n) = stack.pop() {
        let AigNode::And(a, b) = nodes[n as usize] else {
            leaves.push(AigLit::positive(n));
            continue;
        };
        for operand in [a, b] {
            if !operand.is_complemented()
                && matches!(nodes[operand.node() as usize], AigNode::And(..))
            {
                stack.push(operand.node());
            } else {
                leaves.push(operand);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_vectors(n_inputs: usize, seed: u64) -> Vec<Vec<bool>> {
        // Small deterministic LCG so tests need no external RNG.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..32)
            .map(|_| {
                (0..n_inputs)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (state >> 33) & 1 == 1
                    })
                    .collect()
            })
            .collect()
    }

    fn assert_equivalent(a: &Aig, b: &Aig) {
        assert_eq!(a.num_inputs(), b.num_inputs());
        assert_eq!(a.outputs().len(), b.outputs().len());
        for vec in random_vectors(a.num_inputs(), 42) {
            assert_eq!(a.eval(&vec), b.eval(&vec), "inputs {vec:?}");
        }
    }

    #[test]
    fn balance_reduces_chain_depth() {
        let mut aig = Aig::new();
        let inputs: Vec<AigLit> = (0..16).map(|_| aig.input()).collect();
        // Deliberately linear AND chain: depth 15.
        let mut acc = inputs[0];
        for &i in &inputs[1..] {
            acc = aig.and(acc, i);
        }
        aig.push_output(acc);
        assert_eq!(aig.depth(), 15);
        let balanced = balance(&aig);
        assert_eq!(balanced.depth(), 4);
        assert_equivalent(&aig, &balanced);
    }

    #[test]
    fn balance_reduces_or_chain_depth() {
        let mut aig = Aig::new();
        let inputs: Vec<AigLit> = (0..8).map(|_| aig.input()).collect();
        let mut acc = inputs[0];
        for &i in &inputs[1..] {
            acc = aig.or(acc, i);
        }
        aig.push_output(acc);
        let balanced = balance(&aig);
        assert!(balanced.depth() < aig.depth());
        assert_equivalent(&aig, &balanced);
    }

    #[test]
    fn balance_preserves_xor_semantics() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let c = aig.input();
        let x = aig.xor(a, b);
        let y = aig.xor(x, c);
        aig.push_output(y);
        let balanced = balance(&aig);
        assert_equivalent(&aig, &balanced);
    }

    #[test]
    fn balance_is_idempotent_on_depth() {
        let mut aig = Aig::new();
        let inputs: Vec<AigLit> = (0..13).map(|_| aig.input()).collect();
        let mut acc = inputs[0];
        for &i in &inputs[1..] {
            acc = aig.and(acc, i);
        }
        aig.push_output(acc);
        let once = balance(&aig);
        let twice = balance(&once);
        assert_eq!(once.depth(), twice.depth());
        assert_equivalent(&once, &twice);
    }

    #[test]
    fn script_none_is_identity_semantics() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let x = aig.xor(a, b);
        aig.push_output(x);
        let out = SynthScript::none().run(&aig);
        assert_equivalent(&aig, &out);
        assert_eq!(out.num_ands(), aig.num_ands());
    }

    #[test]
    fn script_none_returns_an_equal_copy() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let x = aig.xor(a, b);
        aig.push_output(x);
        let mut out = SynthScript::none().run(&aig);
        assert_eq!(out.nodes(), aig.nodes());
        assert_eq!(out.outputs(), aig.outputs());
        assert_eq!(out.num_inputs(), aig.num_inputs());
        // The copy still deduplicates against the nodes it was given.
        let ands = out.num_ands();
        out.xor(b, a);
        assert_eq!(out.num_ands(), ands);
    }

    #[test]
    fn resyn_never_increases_depth() {
        let mut aig = Aig::new();
        let inputs: Vec<AigLit> = (0..10).map(|_| aig.input()).collect();
        let mut acc = inputs[0];
        for (k, &i) in inputs[1..].iter().enumerate() {
            acc = if k % 2 == 0 { aig.and(acc, i) } else { aig.or(acc, i) };
        }
        aig.push_output(acc);
        let out = SynthScript::resyn().run(&aig);
        assert!(out.depth() <= aig.depth());
        assert_equivalent(&aig, &out);
    }

    #[test]
    fn constant_outputs_survive_balancing() {
        let mut aig = Aig::new();
        let a = aig.input();
        let f = aig.and(a, a.not()); // folds to const0 at build time
        aig.push_output(f);
        aig.push_output(AigLit::TRUE);
        let out = SynthScript::resyn().run(&aig);
        assert_eq!(out.eval(&[true]), vec![false, true]);
        assert_eq!(out.eval(&[false]), vec![false, true]);
    }
}
