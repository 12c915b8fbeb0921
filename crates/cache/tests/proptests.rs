//! Property-based tests for the structural fingerprint and the caching
//! oracle: invariance under node renumbering and member permutation,
//! sensitivity to widths and attributes, and bit-identical replay.

use isdc_cache::{canonicalize, CachingOracle};
use isdc_ir::{Graph, NodeId, OpKind};
use isdc_synth::{DelayOracle, SynthesisOracle};
use isdc_techlib::TechLibrary;
use proptest::prelude::*;
use std::collections::HashMap;

/// Deterministic helper RNG (same recipe the sibling crates' proptests use).
fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

/// A random valid graph exercising commutative, positional and
/// attribute-carrying ops, with a random member subset for fingerprinting.
fn arbitrary_graph_and_members() -> impl Strategy<Value = (Graph, Vec<NodeId>, u64)> {
    (3usize..18, any::<u64>(), any::<u64>()).prop_map(|(ops, seed, aux)| {
        let mut state = seed;
        let mut g = Graph::new("prop");
        let widths = [4u32, 8, 13];
        let mut pool = vec![
            g.param("p0", widths[lcg(&mut state) as usize % 3]),
            g.param("p1", widths[lcg(&mut state) as usize % 3]),
        ];
        for _ in 0..ops {
            let a = pool[lcg(&mut state) as usize % pool.len()];
            let b = pool[lcg(&mut state) as usize % pool.len()];
            let w = g.node(a).width;
            let b = if g.node(b).width == w {
                b
            } else if g.node(b).width < w {
                g.unary(OpKind::ZeroExt { new_width: w }, b).unwrap()
            } else {
                g.unary(OpKind::BitSlice { start: 0, width: w }, b).unwrap()
            };
            let id = match lcg(&mut state) % 7 {
                0 => g.binary(OpKind::Add, a, b).unwrap(),
                1 => g.binary(OpKind::Sub, a, b).unwrap(),
                2 => g.binary(OpKind::Xor, a, b).unwrap(),
                3 => g.binary(OpKind::Mul, a, b).unwrap(),
                4 => g.unary(OpKind::Not, a).unwrap(),
                5 => {
                    let c = g.binary(OpKind::Ult, a, b).unwrap();
                    g.select(c, a, b).unwrap()
                }
                _ => g.binary(OpKind::And, a, b).unwrap(),
            };
            pool.push(id);
        }
        let sinks: Vec<_> = g.node_ids().filter(|&id| g.users(id).is_empty()).collect();
        for s in sinks {
            g.set_output(s);
        }
        // A random nonempty member subset.
        let mut mstate = aux;
        let members: Vec<NodeId> =
            g.node_ids().filter(|_| !lcg(&mut mstate).is_multiple_of(3)).collect();
        let members = if members.is_empty() { vec![NodeId(0)] } else { members };
        (g, members, aux)
    })
}

/// Rebuilds `g` with node ids assigned in a random (but valid) topological
/// order; returns the new graph and the old-id -> new-id mapping.
fn shuffled_rebuild(g: &Graph, seed: u64) -> (Graph, Vec<NodeId>) {
    let mut state = seed ^ 0xabcdef;
    let n = g.len();
    let mut placed = vec![false; n];
    let mut map: Vec<NodeId> = vec![NodeId(0); n];
    let mut out = Graph::new(g.name().to_string());
    for _ in 0..n {
        let ready: Vec<usize> = (0..n)
            .filter(|&i| {
                !placed[i] && g.node(NodeId(i as u32)).operands.iter().all(|&p| placed[p.index()])
            })
            .collect();
        let pick = ready[lcg(&mut state) as usize % ready.len()];
        let old = NodeId(pick as u32);
        let node = g.node(old);
        let new_id = match &node.kind {
            OpKind::Param => out.param(node.name.clone().expect("params are named"), node.width),
            kind => {
                let operands: Vec<NodeId> = node.operands.iter().map(|&p| map[p.index()]).collect();
                out.add_node(kind.clone(), operands).expect("same widths, same ops")
            }
        };
        map[pick] = new_id;
        placed[pick] = true;
    }
    for &o in g.outputs() {
        out.set_output(map[o.index()]);
    }
    (out, map)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Renumbering nodes must not change the fingerprint.
    #[test]
    fn fingerprint_invariant_under_renumbering((g, members, seed) in arbitrary_graph_and_members()) {
        let (g2, map) = shuffled_rebuild(&g, seed);
        prop_assert!(g2.validate().is_ok());
        let mapped: Vec<NodeId> = members.iter().map(|&m| map[m.index()]).collect();
        let f1 = canonicalize(&g, &members);
        let f2 = canonicalize(&g2, &mapped);
        prop_assert_eq!(f1.fingerprint, f2.fingerprint,
            "renumbering changed the fingerprint (seed {})", seed);
    }

    /// Member-slice order and duplication must not change the fingerprint.
    #[test]
    fn fingerprint_invariant_under_member_permutation((g, members, seed) in arbitrary_graph_and_members()) {
        let mut state = seed;
        let mut shuffled = members.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, lcg(&mut state) as usize % (i + 1));
        }
        shuffled.extend(members.iter().take(3)); // duplicates
        prop_assert_eq!(
            canonicalize(&g, &members).fingerprint,
            canonicalize(&g, &shuffled).fingerprint
        );
    }

    /// Changing any single parameter's width must change the fingerprint of
    /// every subgraph that sees the parameter as a boundary input or member
    /// operand width.
    #[test]
    fn fingerprint_sensitive_to_widths((g, members, seed) in arbitrary_graph_and_members()) {
        // Rebuild with one param widened by 1 and all dependent widths
        // re-inferred; fingerprints of member sets whose structure saw that
        // width must differ.
        let (g2, map) = widen_first_param(&g);
        let mapped: Vec<NodeId> = members.iter().map(|&m| map[m.index()]).collect();
        let f1 = canonicalize(&g, &members);
        let f2 = canonicalize(&g2, &mapped);
        // The subgraph may genuinely not contain anything touching p0; only
        // assert a difference when some member or boundary width changed.
        let widths_changed = members.iter().any(|&m| {
            let a = g.node(m);
            let b = g2.node(map[m.index()]);
            a.width != b.width
                || a.operands.iter().zip(&b.operands).any(|(&x, &y)| {
                    g.node(x).width != g2.node(y).width
                })
        });
        if widths_changed {
            prop_assert_ne!(f1.fingerprint, f2.fingerprint, "seed {}", seed);
        } else {
            prop_assert_eq!(f1.fingerprint, f2.fingerprint, "seed {}", seed);
        }
    }

    /// The caching oracle returns bit-identical reports to its inner oracle
    /// on both the cold and the warm path.
    #[test]
    fn caching_oracle_is_transparent((g, members, _seed) in arbitrary_graph_and_members()) {
        let inner = SynthesisOracle::new(TechLibrary::sky130());
        let reference = inner.evaluate(&g, &members);
        let cached = CachingOracle::new(inner);
        let cold = cached.evaluate(&g, &members);
        let warm = cached.evaluate(&g, &members);
        prop_assert_eq!(&cold, &reference, "cold path must be pass-through");
        prop_assert_eq!(&warm, &reference, "warm path must replay bit-identically");
        prop_assert_eq!(cached.stats().hits, 1);
    }

    /// A hit on a renumbered isomorphic subgraph replays each arrival onto
    /// the image of its original node.
    #[test]
    fn caching_oracle_replays_across_renumbering((g, members, seed) in arbitrary_graph_and_members()) {
        let (g2, map) = shuffled_rebuild(&g, seed);
        let mapped: Vec<NodeId> = members.iter().map(|&m| map[m.index()]).collect();
        let cached = CachingOracle::new(SynthesisOracle::new(TechLibrary::sky130()));
        let cold = cached.evaluate(&g, &members);
        let replayed = cached.evaluate(&g2, &mapped);
        prop_assert_eq!(cached.stats().hits, 1, "isomorphic subgraph must hit");
        prop_assert_eq!(replayed.delay_ps, cold.delay_ps);
        let expect: HashMap<NodeId, f64> = cold
            .output_arrivals
            .iter()
            .map(|&(id, ps)| (map[id.index()], ps))
            .collect();
        let got: HashMap<NodeId, f64> = replayed.output_arrivals.iter().copied().collect();
        prop_assert_eq!(got, expect, "arrivals must land on the isomorphic images");
    }
}

/// Rebuilds with the first parameter one bit wider, re-inferring all widths
/// (extensions/slices keep their attribute targets, so downstream width
/// changes only propagate where inference allows them to).
fn widen_first_param(g: &Graph) -> (Graph, Vec<NodeId>) {
    let mut out = Graph::new(g.name().to_string());
    let mut map: Vec<NodeId> = Vec::with_capacity(g.len());
    for (id, node) in g.iter() {
        let new_id = match &node.kind {
            OpKind::Param => {
                let width = if map.is_empty() { node.width + 1 } else { node.width };
                out.param(node.name.clone().expect("params are named"), width)
            }
            OpKind::ZeroExt { .. } | OpKind::SignExt { .. } | OpKind::BitSlice { .. } => {
                // Attribute targets may now undercut the widened operand;
                // re-derive a valid attribute that preserves shape.
                let src = map[node.operands[0].index()];
                let src_w = out.node(src).width;
                let kind = match &node.kind {
                    OpKind::ZeroExt { new_width } => {
                        OpKind::ZeroExt { new_width: (*new_width).max(src_w) }
                    }
                    OpKind::SignExt { new_width } => {
                        OpKind::SignExt { new_width: (*new_width).max(src_w) }
                    }
                    OpKind::BitSlice { start, width } => OpKind::BitSlice {
                        start: (*start).min(src_w - 1),
                        width: (*width).min(src_w - (*start).min(src_w - 1)),
                    },
                    _ => unreachable!(),
                };
                out.unary(kind, src).expect("adjusted attribute is valid")
            }
            kind => {
                let operands: Vec<NodeId> = node.operands.iter().map(|&p| map[p.index()]).collect();
                match out.add_node(kind.clone(), operands) {
                    Ok(n) => n,
                    Err(_) => {
                        // Width mismatch introduced by the widening: coerce
                        // the odd operand with an extension so the graph
                        // stays valid (the structure difference is the
                        // point of the test). Sel's 1-bit selector is never
                        // coerced.
                        let ops: Vec<NodeId> =
                            node.operands.iter().map(|&p| map[p.index()]).collect();
                        let from = usize::from(matches!(kind, OpKind::Sel));
                        let target =
                            ops[from..].iter().map(|&p| out.node(p).width).max().expect("nonempty");
                        let coerced: Vec<NodeId> = ops
                            .iter()
                            .enumerate()
                            .map(|(i, &p)| {
                                if i < from || out.node(p).width == target {
                                    p
                                } else {
                                    out.unary(OpKind::ZeroExt { new_width: target }, p)
                                        .expect("widening is valid")
                                }
                            })
                            .collect();
                        out.add_node(kind.clone(), coerced).expect("coerced widths agree")
                    }
                }
            }
        };
        let _ = id;
        map.push(new_id);
    }
    for &o in g.outputs() {
        out.set_output(map[o.index()]);
    }
    (out, map)
}
