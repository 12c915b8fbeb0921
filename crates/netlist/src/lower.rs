//! Bit-blasting HLS IR operations into AIGs.
//!
//! [`lower_subgraph`] turns any operand-closed set of IR nodes into a single
//! AIG whose inputs are the bits crossing into the set and whose outputs are
//! the bits leaving it. Lowering a *multi-op* region into one netlist is what
//! lets the downstream simulator observe cross-operation optimizations — the
//! effect ISDC's feedback loop exploits.
//!
//! Word-level constructions are the classic textbook ones: ripple-carry
//! adders, shift-add multipliers, barrel shifters, ripple comparators and
//! per-bit mux trees.

use crate::aig::{Aig, AigLit};
use isdc_ir::{Graph, NodeId, OpKind};
use std::collections::HashMap;

/// The result of lowering an IR region to gates.
#[derive(Clone, Debug)]
pub struct LoweredSubgraph {
    /// The netlist.
    pub aig: Aig,
    /// For each AIG input ordinal, the IR `(node, bit)` it carries.
    pub input_map: Vec<(NodeId, u32)>,
    /// For each AIG output position, the IR `(node, bit)` it produces.
    ///
    /// Grouped by node in ascending id order, each node's bits consecutive
    /// and in bit order, so per-node results fold in one pass.
    pub output_map: Vec<(NodeId, u32)>,
}

/// Lowers the entire graph.
///
/// Equivalent to [`lower_subgraph`] over all node ids. Graph parameters
/// become AIG inputs; graph outputs (plus any dangling values) become AIG
/// outputs.
pub fn lower_graph(graph: &Graph) -> LoweredSubgraph {
    let all: Vec<NodeId> = graph.node_ids().collect();
    lower_subgraph(graph, &all)
}

/// Lowers the node set `members` into one AIG.
///
/// `members` need not contain operands of its nodes: any operand outside the
/// set contributes primary inputs (one per bit). A member's bits become AIG
/// outputs when the member is a graph output, has a user outside the set, or
/// has no users at all (subgraph roots).
///
/// # Panics
///
/// Panics if `members` is empty or contains out-of-range ids.
pub fn lower_subgraph(graph: &Graph, members: &[NodeId]) -> LoweredSubgraph {
    assert!(!members.is_empty(), "cannot lower an empty subgraph");
    let mut member_set = vec![false; graph.len()];
    for &id in members {
        member_set[id.index()] = true;
    }
    let mut sorted = members.to_vec();
    sorted.sort_unstable();
    sorted.dedup();

    let mut aig = Aig::new();
    let mut input_map = Vec::new();
    let mut bits: HashMap<NodeId, Vec<AigLit>> = HashMap::new();

    // Import an IR value as fresh primary inputs, one per bit.
    fn import(
        aig: &mut Aig,
        input_map: &mut Vec<(NodeId, u32)>,
        id: NodeId,
        width: u32,
    ) -> Vec<AigLit> {
        (0..width)
            .map(|bit| {
                input_map.push((id, bit));
                aig.input()
            })
            .collect()
    }

    for &id in &sorted {
        let node = graph.node(id);
        let mut operand_bits: Vec<Vec<AigLit>> = Vec::with_capacity(node.operands.len());
        for &op in &node.operands {
            if let Some(lits) = bits.get(&op) {
                operand_bits.push(lits.clone());
            } else {
                let width = graph.node(op).width;
                let lits = import(&mut aig, &mut input_map, op, width);
                bits.insert(op, lits.clone());
                operand_bits.push(lits);
            }
        }
        // Params inside the set read fresh primary inputs; everything else
        // lowers structurally.
        let result = if node.kind == OpKind::Param {
            import(&mut aig, &mut input_map, id, node.width)
        } else {
            lower_op(&mut aig, &node.kind, &operand_bits, node.width)
        };
        debug_assert_eq!(result.len(), node.width as usize);
        bits.insert(id, result);
    }

    // Decide outputs: member bits visible outside the set.
    let mut output_map = Vec::new();
    for &id in &sorted {
        let is_graph_output = graph.outputs().contains(&id);
        let users = graph.users(id);
        let escapes = users.iter().any(|u| !member_set[u.index()]);
        if is_graph_output || escapes || users.is_empty() {
            for (bit, &lit) in bits[&id].iter().enumerate() {
                output_map.push((id, bit as u32));
                aig.push_output(lit);
            }
        }
    }
    LoweredSubgraph { aig, input_map, output_map }
}

/// Lowers one operation over pre-lowered operand bit vectors.
fn lower_op(aig: &mut Aig, kind: &OpKind, operands: &[Vec<AigLit>], width: u32) -> Vec<AigLit> {
    match kind {
        OpKind::Param => unreachable!("params are handled by the caller"),
        OpKind::Literal(v) => {
            (0..width).map(|i| if v.bit(i) { AigLit::TRUE } else { AigLit::FALSE }).collect()
        }
        OpKind::Add => {
            let (sum, _carry) = ripple_add(aig, &operands[0], &operands[1], AigLit::FALSE);
            sum
        }
        OpKind::Sub => {
            let nb: Vec<AigLit> = operands[1].iter().map(|l| l.not()).collect();
            let (diff, _carry) = ripple_add(aig, &operands[0], &nb, AigLit::TRUE);
            diff
        }
        OpKind::Neg => {
            let na: Vec<AigLit> = operands[0].iter().map(|l| l.not()).collect();
            let zero = vec![AigLit::FALSE; na.len()];
            let (neg, _carry) = ripple_add(aig, &zero, &na, AigLit::TRUE);
            neg
        }
        OpKind::Mul => multiply(aig, &operands[0], &operands[1]),
        OpKind::And => zip2(aig, &operands[0], &operands[1], Aig::and),
        OpKind::Or => zip2(aig, &operands[0], &operands[1], Aig::or),
        OpKind::Xor => zip2(aig, &operands[0], &operands[1], Aig::xor),
        OpKind::Not => operands[0].iter().map(|l| l.not()).collect(),
        OpKind::Shll => {
            barrel_shift(aig, &operands[0], &operands[1], ShiftDir::Left, AigLit::FALSE)
        }
        OpKind::Shrl => {
            barrel_shift(aig, &operands[0], &operands[1], ShiftDir::Right, AigLit::FALSE)
        }
        OpKind::Shra => {
            let sign = *operands[0].last().expect("nonzero width");
            barrel_shift(aig, &operands[0], &operands[1], ShiftDir::Right, sign)
        }
        OpKind::Eq => {
            let eq = equality(aig, &operands[0], &operands[1]);
            vec![eq]
        }
        OpKind::Ne => {
            let eq = equality(aig, &operands[0], &operands[1]);
            vec![eq.not()]
        }
        OpKind::Ult => vec![less_than(aig, &operands[0], &operands[1])],
        OpKind::Ugt => vec![less_than(aig, &operands[1], &operands[0])],
        OpKind::Ule => {
            let gt = less_than(aig, &operands[1], &operands[0]);
            vec![gt.not()]
        }
        OpKind::Uge => {
            let lt = less_than(aig, &operands[0], &operands[1]);
            vec![lt.not()]
        }
        OpKind::Sel => {
            let s = operands[0][0];
            operands[1].iter().zip(&operands[2]).map(|(&t, &e)| aig.mux(s, t, e)).collect()
        }
        OpKind::Concat => {
            // First operand is most significant: little-endian result takes
            // operands back to front.
            let mut out = Vec::with_capacity(width as usize);
            for lits in operands.iter().rev() {
                out.extend_from_slice(lits);
            }
            out
        }
        OpKind::BitSlice { start, width } => {
            operands[0][*start as usize..(*start + *width) as usize].to_vec()
        }
        OpKind::ZeroExt { new_width } => {
            let mut out = operands[0].clone();
            out.resize(*new_width as usize, AigLit::FALSE);
            out
        }
        OpKind::SignExt { new_width } => {
            let mut out = operands[0].clone();
            let sign = *out.last().expect("nonzero width");
            out.resize(*new_width as usize, sign);
            out
        }
        OpKind::ReduceXor => vec![aig.xor_tree(&operands[0].clone())],
        OpKind::ReduceOr => vec![aig.or_tree(&operands[0].clone())],
        OpKind::ReduceAnd => vec![aig.and_tree(&operands[0].clone())],
    }
}

fn zip2(
    aig: &mut Aig,
    a: &[AigLit],
    b: &[AigLit],
    mut f: impl FnMut(&mut Aig, AigLit, AigLit) -> AigLit,
) -> Vec<AigLit> {
    a.iter().zip(b).map(|(&x, &y)| f(aig, x, y)).collect()
}

/// Ripple-carry addition; returns `(sum_bits, carry_out)`.
///
/// Ripple-carry is deliberate: it is what a naive standard-cell mapping (the
/// default Yosys/SKY130 `$add` lowering) produces, and it is the source of
/// the paper's headline phenomenon — the *worst-case* path of an adder in
/// isolation runs LSB-in to MSB-out through the whole carry chain, but when
/// adders are chained the late MSB only feeds a one-full-adder path in the
/// consumer. Summing per-op characterized delays therefore grossly
/// overestimates fused regions, and that unused slack is exactly what ISDC's
/// downstream feedback recovers.
fn ripple_add(
    aig: &mut Aig,
    a: &[AigLit],
    b: &[AigLit],
    carry_in: AigLit,
) -> (Vec<AigLit>, AigLit) {
    debug_assert_eq!(a.len(), b.len());
    let mut carry = carry_in;
    let mut sum = Vec::with_capacity(a.len());
    for (&x, &y) in a.iter().zip(b) {
        let xy = aig.xor(x, y);
        sum.push(aig.xor(xy, carry));
        // carry_out = (x & y) | (carry & (x ^ y))
        let gen = aig.and(x, y);
        let prop = aig.and(carry, xy);
        carry = aig.or(gen, prop);
    }
    (sum, carry)
}

/// Wallace-tree multiplier, truncated to the operand width: partial product
/// rows are reduced three-at-a-time with 3:2 compressors (`O(log w)` layers)
/// and a final fast adder resolves the remaining sum/carry pair.
fn multiply(aig: &mut Aig, a: &[AigLit], b: &[AigLit]) -> Vec<AigLit> {
    let w = a.len();
    let mut rows: Vec<Vec<AigLit>> = Vec::new();
    for (i, &bi) in b.iter().enumerate() {
        if i >= w {
            break;
        }
        // Partial product row i: (a & b_i) << i, truncated to w bits.
        let mut row = vec![AigLit::FALSE; w];
        for j in 0..w - i {
            row[i + j] = aig.and(a[j], bi);
        }
        rows.push(row);
    }
    while rows.len() > 2 {
        let mut next = Vec::with_capacity(rows.len().div_ceil(3) * 2);
        for chunk in rows.chunks(3) {
            if let [x, y, z] = chunk {
                let (s, c) = compress_3_2(aig, x, y, z);
                next.push(s);
                next.push(c);
            } else {
                next.extend(chunk.iter().cloned());
            }
        }
        rows = next;
    }
    match rows.len() {
        0 => vec![AigLit::FALSE; w],
        1 => rows.pop().expect("one row"),
        _ => {
            let second = rows.pop().expect("two rows");
            let first = rows.pop().expect("two rows");
            let (result, _overflow) = ripple_add(aig, &first, &second, AigLit::FALSE);
            result
        }
    }
}

/// 3:2 carry-save compressor over whole rows: `(sum, carry << 1)`.
fn compress_3_2(
    aig: &mut Aig,
    x: &[AigLit],
    y: &[AigLit],
    z: &[AigLit],
) -> (Vec<AigLit>, Vec<AigLit>) {
    let w = x.len();
    let mut sum = Vec::with_capacity(w);
    let mut carry = vec![AigLit::FALSE; w];
    for j in 0..w {
        let xy = aig.xor(x[j], y[j]);
        sum.push(aig.xor(xy, z[j]));
        if j + 1 < w {
            let gen = aig.and(x[j], y[j]);
            let prop = aig.and(xy, z[j]);
            carry[j + 1] = aig.or(gen, prop);
        }
    }
    (sum, carry)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ShiftDir {
    Left,
    Right,
}

/// Barrel shifter: one mux layer per bit of the shift amount. Amount bits
/// whose weight `2^i` meets or exceeds the width select an all-`fill` result.
fn barrel_shift(
    aig: &mut Aig,
    value: &[AigLit],
    amount: &[AigLit],
    dir: ShiftDir,
    fill: AigLit,
) -> Vec<AigLit> {
    let w = value.len();
    let mut cur = value.to_vec();
    for (i, &abit) in amount.iter().enumerate() {
        let step = 1u128 << i.min(100);
        let shifted: Vec<AigLit> = (0..w)
            .map(|j| {
                if step >= w as u128 {
                    fill
                } else {
                    let step = step as usize;
                    match dir {
                        ShiftDir::Left => {
                            if j >= step {
                                cur[j - step]
                            } else {
                                fill
                            }
                        }
                        ShiftDir::Right => {
                            if j + step < w {
                                cur[j + step]
                            } else {
                                fill
                            }
                        }
                    }
                }
            })
            .collect();
        cur = cur.iter().zip(&shifted).map(|(&keep, &shift)| aig.mux(abit, shift, keep)).collect();
    }
    cur
}

fn equality(aig: &mut Aig, a: &[AigLit], b: &[AigLit]) -> AigLit {
    let eqs: Vec<AigLit> = a.iter().zip(b).map(|(&x, &y)| aig.xnor(x, y)).collect();
    aig.and_tree(&eqs)
}

/// Unsigned `a < b` by divide and conquer (`O(log w)` depth):
/// `lt = lt_hi | (eq_hi & lt_lo)`, `eq = eq_hi & eq_lo`.
fn less_than(aig: &mut Aig, a: &[AigLit], b: &[AigLit]) -> AigLit {
    fn rec(aig: &mut Aig, a: &[AigLit], b: &[AigLit]) -> (AigLit, AigLit) {
        if a.len() == 1 {
            let lt = aig.and(a[0].not(), b[0]);
            let eq = aig.xnor(a[0], b[0]);
            return (lt, eq);
        }
        let mid = a.len() / 2;
        let (lt_lo, eq_lo) = rec(aig, &a[..mid], &b[..mid]);
        let (lt_hi, eq_hi) = rec(aig, &a[mid..], &b[mid..]);
        let through = aig.and(eq_hi, lt_lo);
        let lt = aig.or(lt_hi, through);
        let eq = aig.and(eq_hi, eq_lo);
        (lt, eq)
    }
    rec(aig, a, b).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use isdc_ir::{interp, BitVecValue, Graph};
    use std::collections::HashMap as Map;

    /// Evaluates the lowered AIG on the same inputs as the interpreter and
    /// compares every output bit.
    fn check_equivalence(graph: &Graph, cases: &[Vec<(&str, u64)>]) {
        let lowered = lower_graph(graph);
        for case in cases {
            let mut inputs: Map<String, BitVecValue> = Map::new();
            for &(name, val) in case {
                let id = graph
                    .params()
                    .iter()
                    .copied()
                    .find(|&p| graph.node(p).name.as_deref() == Some(name))
                    .expect("param exists");
                inputs.insert(name.to_string(), BitVecValue::from_u64(val, graph.node(id).width));
            }
            let values = interp::evaluate(graph, &inputs).expect("interp");
            let aig_inputs: Vec<bool> =
                lowered.input_map.iter().map(|&(id, bit)| values[id.index()].bit(bit)).collect();
            let aig_out = lowered.aig.eval(&aig_inputs);
            for (pos, &(id, bit)) in lowered.output_map.iter().enumerate() {
                assert_eq!(
                    aig_out[pos],
                    values[id.index()].bit(bit),
                    "mismatch at {id:?} bit {bit} for case {case:?}"
                );
            }
        }
    }

    fn binop_graph(kind: OpKind, w: u32) -> Graph {
        let mut g = Graph::new("t");
        let a = g.param("a", w);
        let b = g.param("b", w);
        let r = g.binary(kind, a, b).unwrap();
        g.set_output(r);
        g
    }

    #[test]
    fn adder_matches_interpreter() {
        let g = binop_graph(OpKind::Add, 8);
        check_equivalence(
            &g,
            &[
                vec![("a", 0), ("b", 0)],
                vec![("a", 255), ("b", 1)],
                vec![("a", 100), ("b", 155)],
                vec![("a", 77), ("b", 33)],
            ],
        );
    }

    #[test]
    fn subtractor_and_negate() {
        let g = binop_graph(OpKind::Sub, 8);
        check_equivalence(&g, &[vec![("a", 5), ("b", 7)], vec![("a", 200), ("b", 13)]]);

        let mut g = Graph::new("neg");
        let a = g.param("a", 8);
        let n = g.unary(OpKind::Neg, a).unwrap();
        g.set_output(n);
        check_equivalence(&g, &[vec![("a", 0)], vec![("a", 1)], vec![("a", 128)]]);
    }

    #[test]
    fn multiplier_matches_interpreter() {
        let g = binop_graph(OpKind::Mul, 8);
        check_equivalence(
            &g,
            &[
                vec![("a", 3), ("b", 7)],
                vec![("a", 255), ("b", 255)],
                vec![("a", 16), ("b", 16)],
                vec![("a", 0), ("b", 99)],
            ],
        );
    }

    #[test]
    fn logic_ops_match() {
        for kind in [OpKind::And, OpKind::Or, OpKind::Xor] {
            let g = binop_graph(kind.clone(), 6);
            check_equivalence(&g, &[vec![("a", 0b101010), ("b", 0b011001)]]);
        }
    }

    #[test]
    fn shifts_match() {
        for kind in [OpKind::Shll, OpKind::Shrl, OpKind::Shra] {
            let mut g = Graph::new("t");
            let a = g.param("a", 16);
            let s = g.param("s", 5); // can exceed width
            let r = g.binary(kind.clone(), a, s).unwrap();
            g.set_output(r);
            for amt in [0u64, 1, 7, 15, 16, 31] {
                check_equivalence(&g, &[vec![("a", 0x8421), ("s", amt)]]);
            }
        }
    }

    #[test]
    fn comparisons_match() {
        for kind in [OpKind::Eq, OpKind::Ne, OpKind::Ult, OpKind::Ule, OpKind::Ugt, OpKind::Uge] {
            let g = binop_graph(kind.clone(), 5);
            check_equivalence(
                &g,
                &[vec![("a", 3), ("b", 17)], vec![("a", 17), ("b", 3)], vec![("a", 9), ("b", 9)]],
            );
        }
    }

    #[test]
    fn select_and_wiring_match() {
        let mut g = Graph::new("t");
        let c = g.param("c", 1);
        let a = g.param("a", 4);
        let b = g.param("b", 4);
        let s = g.select(c, a, b).unwrap();
        let cat = g.add_node(OpKind::Concat, vec![s, a]).unwrap();
        let sl = g.unary(OpKind::BitSlice { start: 2, width: 4 }, cat).unwrap();
        let zx = g.unary(OpKind::ZeroExt { new_width: 8 }, sl).unwrap();
        let sx = g.unary(OpKind::SignExt { new_width: 8 }, sl).unwrap();
        let r = g.binary(OpKind::Xor, zx, sx).unwrap();
        g.set_output(r);
        check_equivalence(
            &g,
            &[
                vec![("c", 0), ("a", 0b1010), ("b", 0b0101)],
                vec![("c", 1), ("a", 0b1111), ("b", 0b0000)],
            ],
        );
    }

    #[test]
    fn reductions_match() {
        for kind in [OpKind::ReduceXor, OpKind::ReduceOr, OpKind::ReduceAnd] {
            let mut g = Graph::new("t");
            let a = g.param("a", 7);
            let r = g.unary(kind.clone(), a).unwrap();
            g.set_output(r);
            check_equivalence(&g, &[vec![("a", 0)], vec![("a", 0x7f)], vec![("a", 0b0101100)]]);
        }
    }

    #[test]
    fn literal_lowers_to_constants() {
        let mut g = Graph::new("t");
        let a = g.param("a", 8);
        let k = g.literal_u64(0xa5, 8);
        let r = g.binary(OpKind::Xor, a, k).unwrap();
        g.set_output(r);
        check_equivalence(&g, &[vec![("a", 0x0f)], vec![("a", 0xff)]]);
    }

    #[test]
    fn subgraph_inputs_are_boundary_bits() {
        // x = a + b; y = x * c. Lower only {y}: inputs must be bits of x and c.
        let mut g = Graph::new("t");
        let a = g.param("a", 4);
        let b = g.param("b", 4);
        let c = g.param("c", 4);
        let x = g.binary(OpKind::Add, a, b).unwrap();
        let y = g.binary(OpKind::Mul, x, c).unwrap();
        g.set_output(y);
        let lowered = lower_subgraph(&g, &[y]);
        assert_eq!(lowered.aig.num_inputs(), 8); // 4 bits of x, 4 of c
        let input_nodes: std::collections::HashSet<NodeId> =
            lowered.input_map.iter().map(|&(id, _)| id).collect();
        assert!(input_nodes.contains(&x));
        assert!(input_nodes.contains(&c));
        assert!(!input_nodes.contains(&a));
        assert_eq!(lowered.output_map.len(), 4); // y's bits
    }

    #[test]
    fn subgraph_outputs_include_escaping_values() {
        // x feeds both y (in set) and z (outside) — x's bits must be outputs.
        let mut g = Graph::new("t");
        let a = g.param("a", 4);
        let x = g.unary(OpKind::Not, a).unwrap();
        let y = g.unary(OpKind::Neg, x).unwrap();
        let z = g.unary(OpKind::Not, x).unwrap();
        g.set_output(y);
        g.set_output(z);
        let lowered = lower_subgraph(&g, &[x, y]);
        let out_nodes: std::collections::HashSet<NodeId> =
            lowered.output_map.iter().map(|&(id, _)| id).collect();
        assert!(out_nodes.contains(&x), "x escapes to z");
        assert!(out_nodes.contains(&y), "y is a graph output");
    }

    #[test]
    fn composed_ops_share_and_shorten() {
        // Two chained adders: the combined critical depth must be less than
        // twice a single adder's depth (carry chains do not concatenate).
        let w = 16;
        let single = {
            let g = binop_graph(OpKind::Add, w);
            lower_graph(&g).aig.depth()
        };
        let chained = {
            let mut g = Graph::new("t");
            let a = g.param("a", w);
            let b = g.param("b", w);
            let c = g.param("c", w);
            let x = g.binary(OpKind::Add, a, b).unwrap();
            let y = g.binary(OpKind::Add, x, c).unwrap();
            g.set_output(y);
            lower_graph(&g).aig.depth()
        };
        assert!(
            chained < 2 * single,
            "chained adder depth {chained} should be < 2x single {single}"
        );
    }

    #[test]
    #[should_panic(expected = "empty subgraph")]
    fn empty_subgraph_rejected() {
        let mut g = Graph::new("t");
        let a = g.param("a", 1);
        g.set_output(a);
        let _ = lower_subgraph(&g, &[]);
    }
}
