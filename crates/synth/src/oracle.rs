//! Delay oracles — the "downstream tools" of the feedback loop.
//!
//! ISDC is deliberately agnostic about what produces subgraph delays: the
//! paper emphasizes a no-human-in-loop flow "compatible with a wide range of
//! downstream tools and PDKs". That interface is [`DelayOracle`]; the
//! implementations here are:
//!
//! - [`SynthesisOracle`] — full flow: bit-blast, optimize, map, STA
//!   (the Yosys + OpenSTA stand-in used in the main evaluation);
//! - [`AigDepthOracle`] — the paper's §V.3 future-work idea: skip technology
//!   mapping and STA and use AIG depth scaled to picoseconds;
//! - [`NaiveSumOracle`] — returns the scheduler's own sum-of-op-delay
//!   estimate (a no-gain oracle; with it, ISDC must change nothing).

use crate::characterize::OpDelayModel;
use crate::passes::SynthScript;
use crate::sta;
use isdc_ir::{Graph, NodeId};
use isdc_netlist::lower_subgraph;
use isdc_techlib::{Picos, TechLibrary};

/// What a downstream evaluation reports back for one subgraph.
#[derive(Clone, Debug, PartialEq)]
pub struct DelayReport {
    /// Post-synthesis critical path through the subgraph, in picoseconds.
    pub delay_ps: Picos,
    /// AIG depth after optimization.
    pub aig_depth: u32,
    /// AND-node count after optimization.
    pub and_count: usize,
    /// Per-output arrival times: for each subgraph output value (an IR node
    /// whose result leaves the subgraph), the worst arrival over its bits.
    /// Windows have several outputs with very different arrivals; feeding
    /// each back individually updates the delay matrix much more precisely
    /// than one uniform `delay_ps`.
    pub output_arrivals: Vec<(NodeId, Picos)>,
}

/// A downstream tool that can time a combinational subgraph.
///
/// Implementations must be [`Sync`]: ISDC evaluates several subgraphs per
/// iteration in parallel (the paper uses 16).
pub trait DelayOracle: Sync {
    /// Times the subgraph consisting of `members` within `graph`.
    ///
    /// Must be a deterministic function of `graph` and the member *set*:
    /// the same members in any order, duplicates included, get the same
    /// report bit for bit. Three mechanisms rely on it: a run times each
    /// distinct member set once and answers its repeats from its own memo
    /// (the `Evaluate` stage and the quality snapshots of `isdc-core`),
    /// `isdc_cache::CachingOracle` replays a report onto structurally
    /// identical regions, and cache snapshots replay reports in later
    /// processes.
    fn evaluate(&self, graph: &Graph, members: &[NodeId]) -> DelayReport;

    /// A short human-readable name for reports.
    ///
    /// Also identifies this oracle in persisted delay-cache snapshots
    /// (`isdc-cache`): two oracles that can report different delays for the
    /// same subgraph must return different names, or a snapshot from one
    /// could be replayed against the other.
    fn name(&self) -> &str {
        "oracle"
    }
}

impl<O: DelayOracle + ?Sized> DelayOracle for &O {
    fn evaluate(&self, graph: &Graph, members: &[NodeId]) -> DelayReport {
        (**self).evaluate(graph, members)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// The full downstream flow: lower to an AIG, run the synthesis script, time
/// with STA against the technology library.
#[derive(Debug)]
pub struct SynthesisOracle {
    lib: TechLibrary,
    script: SynthScript,
    name: String,
}

impl SynthesisOracle {
    /// Creates the oracle with the default (`resyn`) script.
    pub fn new(lib: TechLibrary) -> Self {
        Self::with_script(lib, SynthScript::resyn())
    }

    /// Creates the oracle with an explicit script.
    pub fn with_script(lib: TechLibrary, script: SynthScript) -> Self {
        // The name carries the full timing identity (library + script):
        // delay caches keyed on it must never mix configurations.
        let name = format!("synthesis[{};{}]", lib.name(), script.mnemonic());
        Self { lib, script, name }
    }

    /// The library used for timing.
    pub fn library(&self) -> &TechLibrary {
        &self.lib
    }
}

impl DelayOracle for SynthesisOracle {
    fn evaluate(&self, graph: &Graph, members: &[NodeId]) -> DelayReport {
        let lowered = lower_subgraph(graph, members);
        let optimized = self.script.run(&lowered.aig);
        let report = sta::analyze(&optimized, &self.lib);
        DelayReport {
            delay_ps: report.critical_path_ps,
            aig_depth: report.depth,
            and_count: report.and_count,
            output_arrivals: fold_output_arrivals(&lowered.output_map, &report.output_arrivals_ps),
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// The §V.3 shortcut: synthesize to an AIG but report `depth × ps_per_level`
/// instead of running mapping + STA.
#[derive(Debug)]
pub struct AigDepthOracle {
    script: SynthScript,
    ps_per_level: Picos,
    name: String,
}

impl AigDepthOracle {
    /// Creates the oracle. `ps_per_level` calibrates depth to time; the
    /// paper's Fig. 8 shows the relation is close to linear.
    pub fn new(ps_per_level: Picos) -> Self {
        let script = SynthScript::resyn();
        let name = format!("aig-depth[{ps_per_level}ps;{}]", script.mnemonic());
        Self { script, ps_per_level, name }
    }

    /// The calibration slope.
    pub fn ps_per_level(&self) -> Picos {
        self.ps_per_level
    }
}

impl DelayOracle for AigDepthOracle {
    fn evaluate(&self, graph: &Graph, members: &[NodeId]) -> DelayReport {
        let lowered = lower_subgraph(graph, members);
        let optimized = self.script.run(&lowered.aig);
        let depth = optimized.depth();
        // Per-output depths scaled by the calibration slope.
        let depths = optimized.depths();
        let per_output: Vec<Picos> = optimized
            .outputs()
            .iter()
            .map(|l| depths[l.node() as usize] as Picos * self.ps_per_level)
            .collect();
        DelayReport {
            delay_ps: depth as Picos * self.ps_per_level,
            aig_depth: depth,
            and_count: optimized.num_ands(),
            output_arrivals: fold_output_arrivals(&lowered.output_map, &per_output),
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A control oracle that reports the scheduler's own naive estimate: the
/// longest sum-of-op-delay path through the subgraph.
///
/// Feedback from this oracle can never beat the initial estimate, so ISDC
/// driven by it must converge immediately with an unchanged schedule — a
/// useful end-to-end sanity check (and test fixture).
#[derive(Debug)]
pub struct NaiveSumOracle {
    model: OpDelayModel,
    name: String,
}

impl NaiveSumOracle {
    /// Creates the oracle around a characterization model.
    pub fn new(model: OpDelayModel) -> Self {
        let name = format!("naive-sum[{};{}]", model.library().name(), model.script().mnemonic());
        Self { model, name }
    }
}

impl DelayOracle for NaiveSumOracle {
    fn evaluate(&self, graph: &Graph, members: &[NodeId]) -> DelayReport {
        let mut sorted = members.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let member_set: std::collections::HashSet<NodeId> = sorted.iter().copied().collect();
        let mut arrival: std::collections::HashMap<NodeId, Picos> =
            std::collections::HashMap::new();
        let mut worst: Picos = 0.0;
        for &id in &sorted {
            let node = graph.node(id);
            let input_arrival = node
                .operands
                .iter()
                .filter(|o| member_set.contains(o))
                .map(|o| arrival[o])
                .fold(0.0, f64::max);
            let a = input_arrival + self.model.node_delay(graph, id);
            worst = worst.max(a);
            arrival.insert(id, a);
        }
        let output_arrivals: Vec<(NodeId, Picos)> =
            sorted.iter().map(|&id| (id, arrival[&id])).collect();
        DelayReport { delay_ps: worst, aig_depth: 0, and_count: 0, output_arrivals }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Collapses per-bit output arrivals into per-IR-node worst arrivals, in
/// one pass: [`LoweredSubgraph::output_map`] lists each node's bits
/// consecutively, so a bit either belongs to the last node seen or starts
/// the next one.
///
/// [`LoweredSubgraph::output_map`]: isdc_netlist::LoweredSubgraph::output_map
fn fold_output_arrivals(output_map: &[(NodeId, u32)], arrivals: &[Picos]) -> Vec<(NodeId, Picos)> {
    let mut per_node: Vec<(NodeId, Picos)> = Vec::new();
    for (&(id, _bit), &a) in output_map.iter().zip(arrivals) {
        match per_node.last_mut() {
            Some((last, worst)) if *last == id => *worst = worst.max(a),
            last => {
                debug_assert!(
                    last.as_ref().is_none_or(|(n, _)| *n < id),
                    "output_map is not grouped by ascending node: {id:?} after {last:?}"
                );
                per_node.push((id, a));
            }
        }
    }
    per_node
}

/// Evaluates many subgraphs in parallel with scoped threads, preserving input
/// order — the paper's "16 subgraphs per iteration in parallel" — with a
/// cooperative cancellation poll before each subgraph evaluation.
///
/// `threads == 1` runs inline (no thread spawn overhead). The calling
/// thread's installed [`isdc_cancel::CancelToken`] (if any) is re-installed
/// inside each worker so a deadline cuts the whole evaluation short;
/// completed reports are discarded (the caller re-evaluates after rerun —
/// the oracle is pure, so a redo is bit-identical). With no token installed
/// the per-subgraph poll is one relaxed atomic load.
///
/// # Errors
///
/// Returns [`isdc_cancel::Cancelled`] when the installed token trips
/// before every subgraph finishes.
///
/// # Panics
///
/// Panics if `threads == 0` or a worker thread panics.
pub fn evaluate_parallel_cancellable<O: DelayOracle + ?Sized>(
    oracle: &O,
    graph: &Graph,
    subgraphs: &[Vec<NodeId>],
    threads: usize,
) -> Result<Vec<DelayReport>, isdc_cancel::Cancelled> {
    assert!(threads > 0, "need at least one thread");
    if threads == 1 || subgraphs.len() <= 1 {
        let mut reports = Vec::with_capacity(subgraphs.len());
        for members in subgraphs {
            isdc_cancel::checkpoint()?;
            reports.push(oracle.evaluate(graph, members));
        }
        return Ok(reports);
    }
    let token = isdc_cancel::current();
    let mut reports: Vec<Option<DelayReport>> = vec![None; subgraphs.len()];
    let chunk = subgraphs.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (slot_chunk, work_chunk) in reports.chunks_mut(chunk).zip(subgraphs.chunks(chunk)) {
            let token = token.clone();
            scope.spawn(move || {
                let _scope = token.as_ref().map(|t| t.install());
                for (slot, members) in slot_chunk.iter_mut().zip(work_chunk) {
                    if isdc_cancel::checkpoint().is_err() {
                        return;
                    }
                    *slot = Some(oracle.evaluate(graph, members));
                }
            });
        }
    });
    reports.into_iter().map(|r| r.ok_or(isdc_cancel::Cancelled)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use isdc_ir::OpKind;

    /// Chain of three 16-bit adds.
    fn chain() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new("chain");
        let a = g.param("a", 16);
        let b = g.param("b", 16);
        let c = g.param("c", 16);
        let d = g.param("d", 16);
        let x = g.binary(OpKind::Add, a, b).unwrap();
        let y = g.binary(OpKind::Add, x, c).unwrap();
        let z = g.binary(OpKind::Add, y, d).unwrap();
        g.set_output(z);
        (g, vec![x, y, z])
    }

    #[test]
    fn synthesis_beats_naive_sum_on_composition() {
        let lib = TechLibrary::sky130();
        let (g, members) = chain();
        let synth = SynthesisOracle::new(lib.clone());
        let naive = NaiveSumOracle::new(OpDelayModel::new(lib));
        let d_synth = synth.evaluate(&g, &members).delay_ps;
        let d_naive = naive.evaluate(&g, &members).delay_ps;
        assert!(
            d_synth < d_naive,
            "composed synthesis {d_synth}ps must beat naive sum {d_naive}ps"
        );
    }

    #[test]
    fn naive_sum_matches_manual_path() {
        let lib = TechLibrary::sky130();
        let model = OpDelayModel::new(lib);
        let (g, members) = chain();
        let per_add = model.node_delay(&g, members[0]);
        let naive = NaiveSumOracle::new(OpDelayModel::new(TechLibrary::sky130()));
        let d = naive.evaluate(&g, &members).delay_ps;
        assert!((d - 3.0 * per_add).abs() < 1e-6);
    }

    #[test]
    fn single_op_synthesis_matches_characterization() {
        // For a single op, the oracle and the pre-characterized delay must
        // agree (same flow, same netlist).
        let lib = TechLibrary::sky130();
        let model = OpDelayModel::new(lib.clone());
        let oracle = SynthesisOracle::new(lib);
        let mut g = Graph::new("t");
        let a = g.param("a", 24);
        let b = g.param("b", 24);
        let x = g.binary(OpKind::Add, a, b).unwrap();
        g.set_output(x);
        let from_oracle = oracle.evaluate(&g, &[x]).delay_ps;
        let from_model = model.node_delay(&g, x);
        assert!((from_oracle - from_model).abs() < 1e-9);
    }

    #[test]
    fn aig_depth_oracle_scales_depth() {
        let (g, members) = chain();
        let o = AigDepthOracle::new(40.0);
        let r = o.evaluate(&g, &members);
        assert_eq!(r.delay_ps, r.aig_depth as f64 * 40.0);
        assert!(r.aig_depth > 0);
    }

    #[test]
    fn parallel_matches_serial() {
        let lib = TechLibrary::sky130();
        let oracle = SynthesisOracle::new(lib);
        let (g, members) = chain();
        let subgraphs: Vec<Vec<NodeId>> = vec![
            vec![members[0]],
            vec![members[0], members[1]],
            members.clone(),
            vec![members[2]],
            vec![members[1], members[2]],
        ];
        let serial = evaluate_parallel_cancellable(&oracle, &g, &subgraphs, 1).unwrap();
        let parallel = evaluate_parallel_cancellable(&oracle, &g, &subgraphs, 4).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn oracle_names_carry_timing_identity() {
        // Names key persisted delay caches, so everything that changes
        // measured delays — library, corner, script, calibration — must
        // show up in them.
        let lib = TechLibrary::sky130();
        assert_eq!(
            SynthesisOracle::new(lib.clone()).name(),
            "synthesis[sky130-like;sweep,balance,sweep]"
        );
        assert_ne!(
            SynthesisOracle::new(lib.clone()).name(),
            SynthesisOracle::new(TechLibrary::uniform(50.0)).name(),
        );
        assert_ne!(
            SynthesisOracle::new(lib.clone()).name(),
            SynthesisOracle::with_script(lib.clone(), SynthScript::none()).name(),
        );
        assert_eq!(AigDepthOracle::new(40.0).name(), "aig-depth[40ps;sweep,balance,sweep]");
        assert_ne!(AigDepthOracle::new(40.0).name(), AigDepthOracle::new(45.0).name());
        assert_eq!(
            NaiveSumOracle::new(OpDelayModel::new(lib)).name(),
            "naive-sum[sky130-like;sweep,balance,sweep]"
        );
    }
}
