//! The memoizing [`DelayOracle`] wrapper.

use crate::fingerprint::{canonicalize, CanonicalSubgraph};
use crate::store::{CacheStats, CachedDelay, DelayCache};
use isdc_ir::{Graph, NodeId};
use isdc_synth::{DelayOracle, DelayReport};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Wraps any [`DelayOracle`], memoizing evaluations by structural
/// fingerprint.
///
/// On a hit the cached per-output arrivals — stored against canonical member
/// indices — are remapped onto the caller's node ids, so a report learned
/// from one occurrence of a structure is replayed verbatim onto every other
/// occurrence, across iterations, designs and (with a persisted cache)
/// process runs.
///
/// The wrapper is transparent: cold paths return the inner oracle's report
/// unchanged, and warm paths reproduce it bit-identically.
///
/// # Examples
///
/// ```
/// use isdc_cache::CachingOracle;
/// use isdc_ir::{Graph, OpKind};
/// use isdc_synth::{DelayOracle, SynthesisOracle};
/// use isdc_techlib::TechLibrary;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = Graph::new("t");
/// let a = g.param("a", 16);
/// let b = g.param("b", 16);
/// let x = g.binary(OpKind::Add, a, b)?;
/// g.set_output(x);
///
/// let oracle = CachingOracle::new(SynthesisOracle::new(TechLibrary::sky130()));
/// let cold = oracle.evaluate(&g, &[x]);
/// let warm = oracle.evaluate(&g, &[x]);
/// assert_eq!(cold, warm);
/// assert_eq!(oracle.stats().hits, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CachingOracle<O> {
    inner: O,
    cache: Arc<DelayCache>,
    name: String,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

impl<O: DelayOracle> CachingOracle<O> {
    /// Wraps `inner` with a fresh private cache.
    pub fn new(inner: O) -> Self {
        Self::with_cache(inner, Arc::new(DelayCache::new()))
    }

    /// Wraps `inner` with a shared cache (e.g. one loaded from a snapshot,
    /// or shared between oracles).
    pub fn with_cache(inner: O, cache: Arc<DelayCache>) -> Self {
        let name = format!("cached-{}", inner.name());
        let (hits, misses, inserts) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
        Self { inner, cache, name, hits, misses, inserts }
    }

    /// The shared cache handle.
    pub fn cache(&self) -> &Arc<DelayCache> {
        &self.cache
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// This wrapper's own lookups — the hits, misses and inserts of its
    /// [`DelayOracle::evaluate`] calls, not those of other wrappers sharing
    /// the cache — plus the cache's evictions.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            inserts: self.inserts.load(Relaxed),
            evictions: self.cache.stats().evictions,
        }
    }
}

/// Converts an inner report into a cache entry keyed by canonical indices.
fn entry_from_report(canon: &CanonicalSubgraph, report: &DelayReport) -> CachedDelay {
    let mut arrivals: Vec<(u32, f64)> = report
        .output_arrivals
        .iter()
        .filter_map(|&(id, ps)| canon.index_of(id).map(|i| (i, ps)))
        .collect();
    arrivals.sort_unstable_by_key(|&(i, _)| i);
    CachedDelay {
        delay_ps: report.delay_ps,
        aig_depth: report.aig_depth,
        and_count: report.and_count,
        arrivals,
    }
}

/// Replays a cache entry onto the caller's node ids, in ascending-id order
/// (the order every bundled oracle produces).
fn report_from_entry(canon: &CanonicalSubgraph, entry: &CachedDelay) -> DelayReport {
    let mut output_arrivals: Vec<(NodeId, f64)> =
        entry.arrivals.iter().filter_map(|&(i, ps)| canon.node_at(i).map(|id| (id, ps))).collect();
    output_arrivals.sort_unstable_by_key(|&(id, _)| id);
    DelayReport {
        delay_ps: entry.delay_ps,
        aig_depth: entry.aig_depth,
        and_count: entry.and_count,
        output_arrivals,
    }
}

impl<O: DelayOracle> DelayOracle for CachingOracle<O> {
    fn evaluate(&self, graph: &Graph, members: &[NodeId]) -> DelayReport {
        isdc_faults::fire("oracle/eval");
        let canon = canonicalize(graph, members);
        if let Some(entry) = self.cache.get(canon.fingerprint) {
            self.hits.fetch_add(1, Relaxed);
            return report_from_entry(&canon, &entry);
        }
        self.misses.fetch_add(1, Relaxed);
        let report = self.inner.evaluate(graph, members);
        self.cache.insert(canon.fingerprint, entry_from_report(&canon, &report));
        self.inserts.fetch_add(1, Relaxed);
        report
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isdc_ir::{Graph, OpKind};
    use isdc_synth::{NaiveSumOracle, OpDelayModel, SynthesisOracle};
    use isdc_techlib::TechLibrary;

    fn adder_chain(n: usize) -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new("chain");
        let mut acc = g.param("p0", 16);
        let mut ops = Vec::new();
        for i in 1..=n {
            let p = g.param(format!("p{i}"), 16);
            acc = g.binary(OpKind::Add, acc, p).unwrap();
            ops.push(acc);
        }
        g.set_output(acc);
        (g, ops)
    }

    #[test]
    fn warm_report_is_bit_identical() {
        let (g, ops) = adder_chain(4);
        let inner = SynthesisOracle::new(TechLibrary::sky130());
        let reference = inner.evaluate(&g, &ops);
        let cached = CachingOracle::new(inner);
        let cold = cached.evaluate(&g, &ops);
        let warm = cached.evaluate(&g, &ops);
        assert_eq!(cold, reference);
        assert_eq!(warm, reference);
        let stats = cached.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
    }

    #[test]
    fn hit_replays_onto_different_node_ids() {
        // Two structurally identical chains inside one graph at different
        // ids: the second evaluation must be a hit and must report arrivals
        // on the *second* chain's ids.
        let mut g = Graph::new("t");
        let mut first = Vec::new();
        let mut second = Vec::new();
        for (tag, out) in [("x", &mut first), ("y", &mut second)] {
            let mut acc = g.param(format!("{tag}0"), 8);
            for i in 1..=3 {
                let p = g.param(format!("{tag}{i}"), 8);
                acc = g.binary(OpKind::Add, acc, p).unwrap();
                out.push(acc);
            }
            g.set_output(acc);
        }
        let inner = SynthesisOracle::new(TechLibrary::sky130());
        let direct_second = inner.evaluate(&g, &second);
        let cached = CachingOracle::new(inner);
        let _ = cached.evaluate(&g, &first);
        let replayed = cached.evaluate(&g, &second);
        assert_eq!(cached.stats().hits, 1, "second chain must hit");
        assert_eq!(replayed, direct_second, "replay must match a direct evaluation");
        for (id, _) in &replayed.output_arrivals {
            assert!(second.contains(id) || !first.contains(id));
        }
    }

    #[test]
    fn distinct_structures_do_not_collide() {
        let (g, ops) = adder_chain(4);
        let cached = CachingOracle::new(SynthesisOracle::new(TechLibrary::sky130()));
        let whole = cached.evaluate(&g, &ops);
        let prefix = cached.evaluate(&g, &ops[..2]);
        assert_eq!(cached.stats().hits, 0);
        assert!(prefix.delay_ps < whole.delay_ps);
    }

    #[test]
    fn works_for_naive_sum_oracle_too() {
        // NaiveSumOracle reports arrivals for *every* member, not just
        // outputs; the canonical-index mapping must carry all of them.
        let (g, ops) = adder_chain(3);
        let lib = TechLibrary::sky130();
        let inner = NaiveSumOracle::new(OpDelayModel::new(lib));
        let reference = inner.evaluate(&g, &ops);
        let cached = CachingOracle::new(inner);
        let _ = cached.evaluate(&g, &ops);
        let warm = cached.evaluate(&g, &ops);
        assert_eq!(warm, reference);
        assert_eq!(warm.output_arrivals.len(), ops.len());
    }

    #[test]
    fn shared_cache_spans_oracles() {
        let (g, ops) = adder_chain(3);
        let cache = Arc::new(DelayCache::new());
        let a = CachingOracle::with_cache(
            SynthesisOracle::new(TechLibrary::sky130()),
            Arc::clone(&cache),
        );
        let b = CachingOracle::with_cache(
            SynthesisOracle::new(TechLibrary::sky130()),
            Arc::clone(&cache),
        );
        let ra = a.evaluate(&g, &ops);
        let rb = b.evaluate(&g, &ops);
        assert_eq!(ra, rb);
        assert_eq!(cache.stats().hits, 1);
        // Each wrapper counts its own lookups; together they are the cache's.
        assert_eq!((a.stats().hits, a.stats().misses, a.stats().inserts), (0, 1, 1));
        assert_eq!((b.stats().hits, b.stats().misses, b.stats().inserts), (1, 0, 0));
    }

    #[test]
    fn name_reflects_inner() {
        let inner = SynthesisOracle::new(TechLibrary::sky130());
        let inner_name = inner.name().to_string();
        let cached = CachingOracle::new(inner);
        assert_eq!(cached.name(), format!("cached-{inner_name}"));
    }

    #[test]
    fn parallel_evaluation_through_cache_matches_serial() {
        let (g, ops) = adder_chain(6);
        let subgraphs: Vec<Vec<NodeId>> = (1..=6).map(|k| ops[..k].to_vec()).collect();
        let inner = SynthesisOracle::new(TechLibrary::sky130());
        let serial = isdc_synth::evaluate_parallel_cancellable(&inner, &g, &subgraphs, 1).unwrap();
        let cached = CachingOracle::new(inner);
        let parallel =
            isdc_synth::evaluate_parallel_cancellable(&cached, &g, &subgraphs, 4).unwrap();
        assert_eq!(serial, parallel);
        // And fully warm:
        let warm = isdc_synth::evaluate_parallel_cancellable(&cached, &g, &subgraphs, 4).unwrap();
        assert_eq!(serial, warm);
        assert_eq!(cached.stats().hits, 6);
    }
}
