//! The sharded, thread-safe delay cache.

use crate::fingerprint::Fingerprint;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Poison-tolerant read lock. Every mutation under these locks is a
/// single-call `HashMap`/`Vec` operation that either completes or leaves
/// the map untouched, so a panicking holder (e.g. an injected
/// `cache/insert` fault in one batch worker) never leaves a shard
/// half-mutated — recovering the guard is always safe, and one worker's
/// panic must not take down the rest of the fleet.
fn read_shard<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

/// Poison-tolerant write lock; see [`read_shard`] for why recovery is safe.
fn write_shard<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// One memoized downstream evaluation, stored against canonical indices so
/// it can be replayed onto any structurally identical subgraph.
#[derive(Clone, Debug, PartialEq)]
pub struct CachedDelay {
    /// Post-synthesis critical path in picoseconds.
    pub delay_ps: f64,
    /// AIG depth after optimization.
    pub aig_depth: u32,
    /// AND-node count after optimization.
    pub and_count: usize,
    /// Per-output arrivals as `(canonical member index, picoseconds)`,
    /// ascending by index.
    pub arrivals: Vec<(u32, f64)>,
}

/// Lookup/insert counters for one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries written (excluding snapshot loads).
    pub inserts: u64,
    /// Entries dropped by the capacity bound (0 when unbounded).
    pub evictions: u64,
}

impl CacheStats {
    /// Hits over total lookups, or 0.0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// LP solver potentials learned for one (design, clock period) pair —
/// exported by a scheduling run's initial solve and imported (after
/// validation) to warm-start a later run of the same design. Stored and
/// persisted alongside the delay entries because they share the same
/// staleness domain: the oracle/model identity the snapshot is tagged with.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredPotentials {
    /// The clock period the potentials were solved at, in picoseconds.
    pub clock_ps: f64,
    /// The solver's node potentials (`-potentials` is the optimal LP
    /// assignment of the run's initial solve).
    pub pi: Vec<i64>,
}

/// One cached entry plus its segmented-LRU bookkeeping (bounded caches
/// only; an unbounded cache leaves `stamp` at 0 and `protected` off). The
/// `stamp` matches at most one recency-queue element, so stale queue
/// elements (from promotions, re-inserts, or replacements) are detected
/// lazily and skipped — no O(n) queue surgery on the warm path.
#[derive(Debug)]
struct Slot {
    entry: CachedDelay,
    stamp: u64,
    protected: bool,
}

/// One lock's worth of the cache: the entry map plus, for bounded caches,
/// the two segmented-LRU recency queues (probation for entries seen once,
/// protected for entries hit at least once after insertion). Queue
/// elements are `(key, stamp)` pairs, front = least recently used.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<u128, Slot>,
    probation: VecDeque<(u128, u64)>,
    protected: VecDeque<(u128, u64)>,
    /// Live slots with `protected == true` (queues may hold stale extras).
    protected_len: usize,
    /// Monotonic recency clock; bumped on every queue push.
    stamp: u64,
}

impl Shard {
    fn push_probation(&mut self, key: u128) -> u64 {
        self.stamp += 1;
        self.probation.push_back((key, self.stamp));
        self.stamp
    }

    fn push_protected(&mut self, key: u128) -> u64 {
        self.stamp += 1;
        self.protected.push_back((key, self.stamp));
        self.stamp
    }

    /// Pops the least-recently-used *valid* key of `queue` (skipping stale
    /// stamps), or `None` when the queue holds no live entry.
    fn pop_lru(queue: &mut VecDeque<(u128, u64)>, map: &HashMap<u128, Slot>) -> Option<u128> {
        while let Some((key, stamp)) = queue.pop_front() {
            if map.get(&key).is_some_and(|slot| slot.stamp == stamp) {
                return Some(key);
            }
        }
        None
    }

    /// Evicts LRU entries until at most `capacity` remain: probation
    /// first (entries never re-referenced), then protected. Deterministic
    /// for a deterministic operation sequence — the victim is a pure
    /// function of the shard's history.
    fn evict_to(&mut self, capacity: usize, evictions: &AtomicU64) {
        while self.map.len() > capacity {
            let victim = Self::pop_lru(&mut self.probation, &self.map)
                .or_else(|| Self::pop_lru(&mut self.protected, &self.map));
            let Some(victim) = victim else { return };
            if let Some(slot) = self.map.remove(&victim) {
                if slot.protected {
                    self.protected_len -= 1;
                }
                evictions.fetch_add(1, Relaxed);
            }
        }
    }
}

/// A sharded, thread-safe map from structural fingerprints to delay reports.
///
/// Shard count is fixed at construction; a fingerprint's shard is chosen
/// from its low bits, so concurrent lookups from
/// [`evaluate_parallel_cancellable`](isdc_synth::evaluate_parallel_cancellable)
/// workers rarely contend on the same lock, and the read-mostly warm path
/// takes only read locks.
///
/// Next to the sharded delay map the cache keeps a small side store of
/// [`StoredPotentials`] per design fingerprint (one entry per clock period,
/// sorted ascending). It is deliberately unsharded: sweeps write one vector
/// per *run*, not per evaluation.
///
/// # Bounded caches
///
/// [`DelayCache::with_capacity`] bounds the entry count with per-shard
/// **segmented LRU** eviction: new entries enter a probation segment and
/// graduate to a protected segment on their first hit; eviction drains
/// probation LRU-first, then protected. Eviction is *semantically
/// invisible* — entries are immutable oracle results, so an evicted key
/// merely becomes a future miss that recomputes the identical value.
/// Hit rates change; **returned delays never do** (the capacity-bound
/// tests enforce bit-identity against an unbounded run). The `evictions`
/// count of [`DelayCache::stats`] (a batch's `cache/evictions`) reports
/// the drop count. Bounded lookups take the shard's write lock (hits move
/// queue entries); unbounded caches keep the read-lock fast path and no
/// recency queues at all.
///
/// A fleet shares one cache through an `Arc`; separate processes share
/// entries through snapshot files ([`DelayCache::save`] /
/// [`DelayCache::load`]).
#[derive(Debug)]
pub struct DelayCache {
    shards: Box<[RwLock<Shard>]>,
    mask: usize,
    /// Per-shard entry bound; `usize::MAX` when unbounded.
    shard_capacity: usize,
    /// Protected-segment bound within a shard (≈ 4/5 of the shard
    /// capacity), so probation always retains room for new blood.
    protected_capacity: usize,
    potentials: RwLock<HashMap<u128, Vec<StoredPotentials>>>,
    /// The counters [`DelayCache::stats`] reads.
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

impl Default for DelayCache {
    fn default() -> Self {
        Self::new()
    }
}

impl DelayCache {
    /// A cache with the default shard count (16).
    pub fn new() -> Self {
        Self::with_shards(16)
    }

    /// A cache with `shards` shards, rounded up to a power of two.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0.
    pub fn with_shards(shards: usize) -> Self {
        Self::with_shards_and_capacity(shards, 0)
    }

    /// An entry-bounded cache with the default shard count. `capacity` is
    /// the total entry budget, divided evenly across shards (rounded up to
    /// a whole entry per shard); `0` means unbounded. See the type docs
    /// for the segmented-LRU eviction semantics.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_shards_and_capacity(16, capacity)
    }

    /// A cache with both knobs explicit; `capacity == 0` means unbounded.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0.
    pub fn with_shards_and_capacity(shards: usize, capacity: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        let count = shards.next_power_of_two();
        let shard_capacity =
            if capacity == 0 { usize::MAX } else { capacity.div_ceil(count).max(1) };
        let protected_capacity =
            if shard_capacity == usize::MAX { usize::MAX } else { (shard_capacity * 4 / 5).max(1) };
        Self {
            shards: (0..count).map(|_| RwLock::new(Shard::default())).collect(),
            mask: count - 1,
            shard_capacity,
            protected_capacity,
            potentials: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Whether a capacity bound is set.
    pub fn bounded(&self) -> bool {
        self.shard_capacity != usize::MAX
    }

    /// The total entry capacity, or `None` when unbounded. Reported as the
    /// per-shard budget times the shard count (construction rounds the
    /// requested capacity up to a whole entry per shard).
    pub fn capacity(&self) -> Option<usize> {
        self.bounded().then(|| self.shard_capacity * self.shards.len())
    }

    fn shard(&self, fp: Fingerprint) -> &RwLock<Shard> {
        &self.shards[(fp.0 as usize) & self.mask]
    }

    /// Looks up a fingerprint, counting a hit or miss. On a bounded cache
    /// a hit also *promotes* the entry (probation → protected, or to the
    /// protected segment's MRU position).
    pub fn get(&self, fp: Fingerprint) -> Option<CachedDelay> {
        let found = if self.bounded() {
            let mut guard = write_shard(self.shard(fp));
            // Reborrow through the guard once so field borrows can split.
            let shard: &mut Shard = &mut guard;
            match shard.map.get(&fp.0) {
                Some(slot) => {
                    let entry = slot.entry.clone();
                    let was_protected = slot.protected;
                    let stamp = shard.push_protected(fp.0);
                    let slot = shard.map.get_mut(&fp.0).expect("slot just read");
                    slot.stamp = stamp;
                    slot.protected = true;
                    if !was_protected {
                        shard.protected_len += 1;
                    }
                    // Keep the protected segment under its bound by
                    // demoting its LRU back to probation (as MRU — it was
                    // referenced more recently than probation's tail).
                    while shard.protected_len > self.protected_capacity {
                        let Some(demoted) = Shard::pop_lru(&mut shard.protected, &shard.map) else {
                            break;
                        };
                        let stamp = shard.push_probation(demoted);
                        let slot = shard.map.get_mut(&demoted).expect("demoted slot is live");
                        slot.stamp = stamp;
                        slot.protected = false;
                        shard.protected_len -= 1;
                    }
                    Some(entry)
                }
                None => None,
            }
        } else {
            read_shard(self.shard(fp)).map.get(&fp.0).map(|slot| slot.entry.clone())
        };
        match found {
            Some(entry) => {
                self.hits.fetch_add(1, Relaxed);
                Some(entry)
            }
            None => {
                self.misses.fetch_add(1, Relaxed);
                None
            }
        }
    }

    /// Inserts `entry` (replacing any previous slot for the key). On a
    /// bounded cache the slot enters probation and the shard evicts down
    /// to the capacity bound; an unbounded cache keeps no recency queues.
    fn insert_slot(&self, fp: Fingerprint, entry: CachedDelay) {
        let mut shard = write_shard(self.shard(fp));
        if !self.bounded() {
            shard.map.insert(fp.0, Slot { entry, stamp: 0, protected: false });
            return;
        }
        let stamp = shard.push_probation(fp.0);
        if let Some(old) = shard.map.insert(fp.0, Slot { entry, stamp, protected: false }) {
            if old.protected {
                shard.protected_len -= 1;
            }
        }
        shard.evict_to(self.shard_capacity, &self.evictions);
    }

    /// Inserts (or replaces) an entry, counting an insert.
    pub fn insert(&self, fp: Fingerprint, entry: CachedDelay) {
        // The fault hook fires *before* the lock is taken: an injected
        // panic here loses only this one insert, never shard consistency.
        isdc_faults::fire("cache/insert");
        self.inserts.fetch_add(1, Relaxed);
        self.insert_slot(fp, entry);
    }

    /// Inserts without touching the insert counter (snapshot loading).
    /// Evictions still count — a bounded cache stays bounded under load.
    pub(crate) fn insert_silent(&self, fp: Fingerprint, entry: CachedDelay) {
        self.insert_slot(fp, entry);
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| read_shard(s).map.len()).sum()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The lookup, insert and eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            inserts: self.inserts.load(Relaxed),
            evictions: self.evictions.load(Relaxed),
        }
    }

    /// Drops all entries (and their recency history), keeping the counters.
    pub fn clear(&self) {
        for s in self.shards.iter() {
            *write_shard(s) = Shard::default();
        }
    }

    /// Stores (or replaces) the potentials learned for `design` at
    /// `clock_ps`, keeping the per-design list sorted by period.
    pub fn store_potentials(&self, design: Fingerprint, clock_ps: f64, pi: Vec<i64>) {
        let mut map = write_shard(&self.potentials);
        let list = map.entry(design.0).or_default();
        match list.binary_search_by(|p| p.clock_ps.total_cmp(&clock_ps)) {
            Ok(i) => list[i].pi = pi,
            Err(i) => list.insert(i, StoredPotentials { clock_ps, pi }),
        }
    }

    /// The potentials best suited to warm-start a run of `design` at
    /// `clock_ps`: an exact period match first; otherwise the closest
    /// *shorter* period (whose optimum satisfies the relaxed bounds of the
    /// longer one — timing constraints are monotone in the period);
    /// otherwise the closest longer period, which the importer's validation
    /// may still accept. Returns the stored period alongside the vector.
    pub fn nearest_potentials(
        &self,
        design: Fingerprint,
        clock_ps: f64,
    ) -> Option<(f64, Vec<i64>)> {
        let map = read_shard(&self.potentials);
        let list = map.get(&design.0)?;
        let pick = match list.binary_search_by(|p| p.clock_ps.total_cmp(&clock_ps)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        let entry = list.get(pick)?;
        Some((entry.clock_ps, entry.pi.clone()))
    }

    /// All stored potentials, ascending by design fingerprint then period
    /// (a stable order for snapshots and tests).
    pub fn potential_entries(&self) -> Vec<(Fingerprint, StoredPotentials)> {
        let map = read_shard(&self.potentials);
        let mut out: Vec<(Fingerprint, StoredPotentials)> = map
            .iter()
            .flat_map(|(&k, list)| list.iter().map(move |p| (Fingerprint(k), p.clone())))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.clock_ps.total_cmp(&b.1.clock_ps)));
        out
    }

    /// All entries, ascending by fingerprint (a stable order for snapshots
    /// and tests).
    pub fn entries(&self) -> Vec<(Fingerprint, CachedDelay)> {
        let mut out: Vec<(Fingerprint, CachedDelay)> = self
            .shards
            .iter()
            .flat_map(|s| {
                read_shard(s)
                    .map
                    .iter()
                    .map(|(&k, slot)| (Fingerprint(k), slot.entry.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_by_key(|&(fp, _)| fp);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(x: u128) -> Fingerprint {
        Fingerprint(x)
    }

    fn entry(d: f64) -> CachedDelay {
        CachedDelay { delay_ps: d, aig_depth: 3, and_count: 7, arrivals: vec![(0, d)] }
    }

    #[test]
    fn get_insert_and_counters() {
        let cache = DelayCache::new();
        assert_eq!(cache.get(fp(1)), None);
        cache.insert(fp(1), entry(10.0));
        assert_eq!(cache.get(fp(1)), Some(entry(10.0)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shard_count_rounds_up() {
        let cache = DelayCache::with_shards(5);
        for i in 0..100u128 {
            cache.insert(fp(i), entry(i as f64));
        }
        assert_eq!(cache.len(), 100);
        for i in 0..100u128 {
            assert_eq!(cache.get(fp(i)).unwrap().delay_ps, i as f64);
        }
    }

    #[test]
    fn concurrent_mixed_access_is_consistent() {
        let cache = std::sync::Arc::new(DelayCache::new());
        std::thread::scope(|scope| {
            for t in 0..8u128 {
                let cache = std::sync::Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..200u128 {
                        let key = fp((i % 50) * 8 + t);
                        if cache.get(key).is_none() {
                            cache.insert(key, entry((key.0 % 1000) as f64));
                        }
                    }
                });
            }
        });
        assert_eq!(cache.len(), 400);
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 1600);
    }

    #[test]
    fn clear_empties_without_resetting_stats() {
        let cache = DelayCache::new();
        cache.insert(fp(9), entry(1.0));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().inserts, 1);
    }

    #[test]
    fn potentials_nearest_prefers_exact_then_below_then_above() {
        let cache = DelayCache::new();
        let d = fp(42);
        cache.store_potentials(d, 2000.0, vec![1, 2]);
        cache.store_potentials(d, 3000.0, vec![3, 4]);
        assert_eq!(cache.nearest_potentials(d, 3000.0), Some((3000.0, vec![3, 4])));
        assert_eq!(cache.nearest_potentials(d, 2500.0), Some((2000.0, vec![1, 2])));
        assert_eq!(cache.nearest_potentials(d, 9000.0), Some((3000.0, vec![3, 4])));
        assert_eq!(cache.nearest_potentials(d, 1000.0), Some((2000.0, vec![1, 2])));
        assert_eq!(cache.nearest_potentials(fp(7), 2000.0), None, "unknown design");
        // Replacement at an existing period.
        cache.store_potentials(d, 2000.0, vec![9]);
        assert_eq!(cache.nearest_potentials(d, 2000.0), Some((2000.0, vec![9])));
        assert_eq!(cache.potential_entries().len(), 2);
    }

    #[test]
    fn capacity_bound_evicts_lru_probation_first() {
        // 1 shard so the eviction order is exactly the global LRU order.
        let cache = DelayCache::with_shards_and_capacity(1, 3);
        assert_eq!(cache.capacity(), Some(3));
        cache.insert(fp(1), entry(1.0));
        cache.insert(fp(2), entry(2.0));
        cache.insert(fp(3), entry(3.0));
        assert!(cache.get(fp(1)).is_some(), "promote 1 to protected");
        cache.insert(fp(4), entry(4.0)); // over capacity: evict LRU probation = 2
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(fp(2)).is_none(), "LRU probation entry was evicted");
        assert!(cache.get(fp(1)).is_some(), "protected entry survived");
        assert!(cache.get(fp(3)).is_some());
        assert!(cache.get(fp(4)).is_some());
    }

    #[test]
    fn eviction_never_changes_a_returned_delay() {
        // The bit-identity contract at the unit level: every get that hits
        // returns exactly what the (re-)insert stored, bounded or not.
        let bounded = DelayCache::with_shards_and_capacity(1, 4);
        let unbounded = DelayCache::with_shards(1);
        let keys = [3u128, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4];
        for (cache, log) in [(&bounded, true), (&unbounded, false)] {
            let mut returned = Vec::new();
            for &k in &keys {
                match cache.get(fp(k)) {
                    Some(e) => returned.push((k, e.delay_ps)),
                    None => {
                        cache.insert(fp(k), entry(k as f64));
                        returned.push((k, k as f64));
                    }
                }
            }
            for (k, d) in returned {
                assert_eq!(d, k as f64, "returned delay must match the oracle value");
            }
            if log {
                assert!(cache.stats().evictions > 0, "the bounded run must actually evict");
                assert!(cache.len() <= 4);
            }
        }
    }

    #[test]
    fn eviction_is_deterministic_for_a_fixed_op_sequence() {
        let run = || {
            let cache = DelayCache::with_shards_and_capacity(2, 4);
            for round in 0..3u128 {
                for k in 0..10u128 {
                    if cache.get(fp(k)).is_none() {
                        cache.insert(fp(k), entry((k + round) as f64));
                    }
                }
            }
            (cache.entries(), cache.stats())
        };
        assert_eq!(run(), run(), "same ops, same survivors, same counters");
    }

    #[test]
    fn recency_queues_are_kept_only_when_bounded() {
        let src = DelayCache::new();
        for k in 0..20u128 {
            src.insert(fp(k), entry(k as f64));
        }
        let snapshot = src.to_json("oracle");
        let queued = |cache: &DelayCache| -> usize {
            cache.shards.iter().map(read_shard).map(|s| s.probation.len() + s.protected.len()).sum()
        };

        // Unbounded: inserts, re-inserts, hits and a snapshot load leave
        // no recency bookkeeping behind.
        let unbounded = DelayCache::with_shards(2);
        for k in 0..10u128 {
            unbounded.insert(fp(k), entry(k as f64));
            unbounded.insert(fp(k), entry(k as f64));
            assert!(unbounded.get(fp(k)).is_some());
        }
        assert_eq!(unbounded.merge_json(&snapshot, "oracle"), Ok(20));
        assert_eq!(unbounded.len(), 20);
        assert_eq!(queued(&unbounded), 0, "an unbounded cache must keep no recency queues");

        // Bounded: a snapshot load stays within the bound and counts its
        // evictions, but not as inserts.
        let bounded = DelayCache::with_shards_and_capacity(1, 5);
        bounded.merge_json(&snapshot, "oracle").unwrap();
        assert_eq!(bounded.len(), 5, "a load must not blow the bound");
        assert_eq!(bounded.stats().evictions, 15);
        assert_eq!(bounded.stats().inserts, 0, "a load bypasses the insert counter");
        assert!(queued(&bounded) > 0);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = DelayCache::new();
        assert!(!cache.bounded());
        assert_eq!(cache.capacity(), None);
        for k in 0..1000u128 {
            cache.insert(fp(k), entry(k as f64));
        }
        assert_eq!(cache.len(), 1000);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn entries_are_sorted() {
        let cache = DelayCache::new();
        for k in [5u128, 1, 9, 3] {
            cache.insert(fp(k), entry(k as f64));
        }
        let keys: Vec<u128> = cache.entries().iter().map(|&(f, _)| f.0).collect();
        assert_eq!(keys, vec![1, 3, 5, 9]);
    }
}
