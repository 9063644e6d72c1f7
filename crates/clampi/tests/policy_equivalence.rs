//! Differential proof that the cache's refactors changed no decision:
//! `reference::ReferenceCache` below is a faithful copy of the cache as it
//! was *before* victim selection moved behind the
//! [`EvictionPolicy`](rmatc_clampi::EvictionPolicy) trait and before its
//! miss path was rebuilt: the `BTreeMap` free list of
//! `support/reference_freelist.rs`, victims sampled one draw at a time with
//! a `%` per probe, SipHash for the compulsory-miss set, and the
//! same arithmetic, RNG and stats ordering. The proptests and a long
//! fixed-seed trace replay insert/get interleavings against both, asserting
//! decision-for-decision equality — every lookup result, every insert
//! outcome, every counter, under both score policies and with the adaptive
//! heuristic on or off.
//!
//! The second property pins down [`ShardedClampi`]: with exactly one shard
//! the split is the identity, so it must match a plain [`Clampi`] the same
//! way.

mod support;

use proptest::prelude::*;
use rmatc_clampi::cache::CacheInsertOutcome;
use rmatc_clampi::{Clampi, ClampiConfig, EntryKey, ShardedClampi};
use rmatc_rma::WindowId;

/// The cache exactly as it stood before the policy trait and the bitmap
/// allocator: victim scores, admission control and sampled victim selection
/// inlined, over the reference `BTreeMap` free list and the unchanged
/// `AdaptiveState`.
mod reference {
    use crate::support::reference_freelist::FreeList;
    use rmatc_clampi::adaptive::{AdaptiveAction, AdaptiveState};
    use rmatc_clampi::{ClampiConfig, ConsistencyMode, EntryKey, ScorePolicy};
    use std::collections::HashSet;
    use std::sync::Arc;

    const WAYS: usize = 4;

    pub struct RefEntry {
        pub key: EntryKey,
        pub data: Arc<[u32]>,
        pub addr: usize,
        pub bytes: usize,
        pub last_access: u64,
        pub user_score: f64,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RefOutcome {
        Inserted,
        InsertedAfterEvicting(usize),
        NotCached,
    }

    /// Counters mirroring the pre-refactor `CacheStats` (without the
    /// policy-attributed fields this PR added).
    #[derive(Debug, Default, PartialEq)]
    pub struct RefStats {
        pub hits: u64,
        pub misses: u64,
        pub compulsory_misses: u64,
        pub capacity_evictions: u64,
        pub conflict_evictions: u64,
        pub uncacheable: u64,
        pub bytes_from_cache: u64,
        pub bytes_from_network: u64,
        pub flushes: u64,
        pub table_resizes: u64,
        pub capacity_resizes: u64,
    }

    pub struct ReferenceCache {
        config: ClampiConfig,
        slots: Vec<Option<RefEntry>>,
        freelist: FreeList,
        clock: u64,
        pub stats: RefStats,
        seen: HashSet<EntryKey>,
        adaptive: AdaptiveState,
        occupied: usize,
        occupied_bytes: usize,
        max_user_score: f64,
        rng_state: u64,
    }

    impl ReferenceCache {
        pub fn new(config: ClampiConfig) -> Self {
            let mut slots = Vec::new();
            slots.resize_with(config.table_slots.max(1), || None);
            Self {
                freelist: FreeList::new(config.capacity_bytes),
                slots,
                clock: 0,
                stats: RefStats::default(),
                seen: HashSet::new(),
                adaptive: AdaptiveState::default(),
                occupied: 0,
                occupied_bytes: 0,
                max_user_score: 0.0,
                rng_state: 0x9e37_79b9_7f4a_7c15,
                config,
            }
        }

        pub fn len(&self) -> usize {
            self.occupied
        }

        pub fn occupied_bytes(&self) -> usize {
            self.occupied_bytes
        }

        pub fn fragmentation(&self) -> f64 {
            self.freelist.fragmentation()
        }

        fn probe_slots(&self, key: &EntryKey) -> ([usize; WAYS], usize) {
            let n = self.slots.len();
            let base = key.slot(n);
            let count = WAYS.min(n);
            let mut probes = [0usize; WAYS];
            for (i, probe) in probes.iter_mut().take(count).enumerate() {
                *probe = (base + i) % n;
            }
            (probes, count)
        }

        pub fn lookup(&mut self, key: EntryKey) -> Option<Arc<[u32]>> {
            self.clock += 1;
            self.adaptive.record_access();
            let clock = self.clock;
            let mut hit = None;
            let (probes, ways) = self.probe_slots(&key);
            for &slot in &probes[..ways] {
                if let Some(entry) = &mut self.slots[slot] {
                    if entry.key == key {
                        entry.last_access = clock;
                        hit = Some(Arc::clone(&entry.data));
                        break;
                    }
                }
            }
            if let Some(data) = &hit {
                self.stats.hits += 1;
                self.stats.bytes_from_cache += (data.len() * std::mem::size_of::<u32>()) as u64;
            } else {
                self.stats.misses += 1;
                if self.seen.insert(key) {
                    self.stats.compulsory_misses += 1;
                }
            }
            self.maybe_adapt();
            hit
        }

        pub fn insert(&mut self, key: EntryKey, data: Vec<u32>, user_score: f64) -> RefOutcome {
            let data: Arc<[u32]> = data.into();
            let bytes = data.len() * std::mem::size_of::<u32>();
            self.stats.bytes_from_network += bytes as u64;
            if bytes > self.freelist.capacity() {
                self.stats.uncacheable += 1;
                return RefOutcome::NotCached;
            }
            self.max_user_score = self.max_user_score.max(user_score);
            let mut evicted = 0usize;
            let (probes, ways) = self.probe_slots(&key);
            let probes = &probes[..ways];
            let mut slot = None;
            for &s in probes {
                match &self.slots[s] {
                    Some(resident) if resident.key == key => {
                        let resident = self.slots[s].as_mut().expect("checked above");
                        resident.data = data;
                        resident.last_access = self.clock;
                        resident.user_score = user_score;
                        return RefOutcome::Inserted;
                    }
                    None if slot.is_none() => slot = Some(s),
                    _ => {}
                }
            }
            let slot = match slot {
                Some(s) => s,
                None => {
                    let victim = probes
                        .iter()
                        .copied()
                        .max_by(|&a, &b| {
                            let sa = self.victim_score(self.slots[a].as_ref().expect("occupied"));
                            let sb = self.victim_score(self.slots[b].as_ref().expect("occupied"));
                            sa.partial_cmp(&sb).expect("scores are not NaN")
                        })
                        .expect("probe sequence is never empty");
                    self.evict_slot(victim);
                    self.stats.conflict_evictions += 1;
                    self.adaptive.record_conflict();
                    evicted += 1;
                    victim
                }
            };
            let addr = loop {
                if let Some(addr) = self.freelist.allocate(bytes) {
                    break addr;
                }
                match self.pick_victim_slot(slot) {
                    Some(victim_slot) => {
                        if self.config.scoring == ScorePolicy::ApplicationScore {
                            let victim_score = self.slots[victim_slot]
                                .as_ref()
                                .map(|e| e.user_score)
                                .unwrap_or(0.0);
                            if user_score < victim_score {
                                self.stats.uncacheable += 1;
                                return RefOutcome::NotCached;
                            }
                        }
                        self.evict_slot(victim_slot);
                        self.stats.capacity_evictions += 1;
                        self.adaptive.record_space_eviction();
                        evicted += 1;
                    }
                    None => {
                        self.stats.uncacheable += 1;
                        return RefOutcome::NotCached;
                    }
                }
            };
            self.slots[slot] = Some(RefEntry {
                key,
                data,
                addr,
                bytes,
                last_access: self.clock,
                user_score,
            });
            self.occupied += 1;
            self.occupied_bytes += bytes;
            if evicted == 0 {
                RefOutcome::Inserted
            } else {
                RefOutcome::InsertedAfterEvicting(evicted)
            }
        }

        pub fn flush(&mut self) {
            for slot in 0..self.slots.len() {
                if self.slots[slot].is_some() {
                    self.evict_slot(slot);
                }
            }
            self.stats.flushes += 1;
        }

        pub fn end_epoch(&mut self) {
            if self.config.mode == ConsistencyMode::Transparent {
                self.flush();
            }
        }

        fn victim_score(&self, entry: &RefEntry) -> f64 {
            let age =
                (self.clock.saturating_sub(entry.last_access)) as f64 / (self.clock.max(1)) as f64;
            match self.config.scoring {
                ScorePolicy::LruPositional => {
                    let (before, after) = self.freelist.adjacency_to_free(entry.addr, entry.bytes);
                    let positional = (before as u8 + after as u8) as f64 / 2.0;
                    self.config.lru_weight * age + self.config.positional_weight * positional
                }
                ScorePolicy::ApplicationScore => {
                    let norm = if self.max_user_score > 0.0 {
                        entry.user_score / self.max_user_score
                    } else {
                        0.0
                    };
                    self.config.lru_weight * age - self.config.user_weight * norm
                }
            }
        }

        fn pick_victim_slot(&mut self, protect: usize) -> Option<usize> {
            if self.occupied == 0 || (self.occupied == 1 && self.slots[protect].is_some()) {
                return None;
            }
            const SAMPLES: usize = 16;
            let nslots = self.slots.len();
            let mut best: Option<(usize, f64)> = None;
            let mut inspected = 0usize;
            let mut attempts = 0usize;
            while inspected < SAMPLES && attempts < nslots.saturating_mul(8).max(64) {
                attempts += 1;
                let idx = self.next_random() % nslots;
                if idx == protect {
                    continue;
                }
                if let Some(entry) = &self.slots[idx] {
                    inspected += 1;
                    let score = self.victim_score(entry);
                    if best.map(|(_, s)| score > s).unwrap_or(true) {
                        best = Some((idx, score));
                    }
                }
            }
            if best.is_none() {
                for idx in 0..nslots {
                    if idx == protect {
                        continue;
                    }
                    if let Some(entry) = &self.slots[idx] {
                        let score = self.victim_score(entry);
                        if best.map(|(_, s)| score > s).unwrap_or(true) {
                            best = Some((idx, score));
                        }
                    }
                }
            }
            best.map(|(idx, _)| idx)
        }

        fn evict_slot(&mut self, slot: usize) {
            if let Some(entry) = self.slots[slot].take() {
                self.freelist.free(entry.addr, entry.bytes);
                self.occupied -= 1;
                self.occupied_bytes -= entry.bytes;
            }
        }

        fn maybe_adapt(&mut self) {
            let Some(adaptive_cfg) = self.config.adaptive else {
                return;
            };
            let action =
                self.adaptive
                    .decide(&adaptive_cfg, self.slots.len(), self.freelist.capacity());
            match action {
                Some(AdaptiveAction::GrowTable { new_slots }) => {
                    self.flush();
                    self.slots = Vec::new();
                    self.slots.resize_with(new_slots, || None);
                    self.config.table_slots = new_slots;
                    self.stats.table_resizes += 1;
                }
                Some(AdaptiveAction::GrowCapacity { new_capacity }) => {
                    self.freelist.grow(new_capacity);
                    self.config.capacity_bytes = new_capacity;
                    self.stats.capacity_resizes += 1;
                }
                None => {}
            }
        }

        fn next_random(&mut self) -> usize {
            let mut x = self.rng_state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.rng_state = x;
            (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as usize
        }
    }
}

/// One step of a replayed trace.
#[derive(Debug, Clone)]
enum Op {
    /// Lookup `key(offset, len)`; on a miss, insert `len` words with `score`.
    Access {
        offset: usize,
        len: usize,
        score: f64,
    },
    /// Close the epoch.
    EndEpoch,
    /// Explicit flush.
    Flush,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // 80% accesses, 10% epoch closures, 10% flushes (the vendored proptest
    // stub has no `prop_oneof!`, so the selector is mapped by hand).
    (0u32..10, 0usize..48, 1usize..12, 0u32..1000).prop_map(|(sel, offset, len, score)| match sel {
        8 => Op::EndEpoch,
        9 => Op::Flush,
        _ => Op::Access {
            offset,
            len,
            score: score as f64,
        },
    })
}

fn key(offset: usize, len: usize) -> EntryKey {
    EntryKey::new(WindowId(0), 1, offset, len)
}

fn assert_stats_match(
    live: &rmatc_clampi::CacheStats,
    reference: &reference::RefStats,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(live.hits, reference.hits);
    prop_assert_eq!(live.misses, reference.misses);
    prop_assert_eq!(live.compulsory_misses, reference.compulsory_misses);
    prop_assert_eq!(live.capacity_evictions, reference.capacity_evictions);
    prop_assert_eq!(live.conflict_evictions, reference.conflict_evictions);
    prop_assert_eq!(live.uncacheable, reference.uncacheable);
    prop_assert_eq!(live.bytes_from_cache, reference.bytes_from_cache);
    prop_assert_eq!(live.bytes_from_network, reference.bytes_from_network);
    prop_assert_eq!(live.flushes, reference.flushes);
    prop_assert_eq!(live.table_resizes, reference.table_resizes);
    prop_assert_eq!(live.capacity_resizes, reference.capacity_resizes);
    Ok(())
}

/// Looks `key(offset, len)` up in both caches and, on a miss, inserts `len`
/// words with `score` into both, failing on the first diverging decision.
fn access_both(
    live: &mut Clampi<u32>,
    reference: &mut reference::ReferenceCache,
    offset: usize,
    len: usize,
    score: f64,
    i: usize,
) -> Result<(), TestCaseError> {
    let k = key(offset, len);
    let live_hit = live.lookup(k);
    let ref_hit = reference.lookup(k);
    prop_assert_eq!(
        live_hit.is_some(),
        ref_hit.is_some(),
        "lookup {} diverged",
        i
    );
    if let (Some(a), Some(b)) = (&live_hit, &ref_hit) {
        prop_assert_eq!(&**a, &**b);
    }
    if live_hit.is_none() {
        let data: Vec<u32> = (0..len as u32).map(|x| x + offset as u32).collect();
        let live_out = live.insert(k, data.clone(), score);
        let ref_out = reference.insert(k, data, score);
        let matches = matches!(
            (live_out, ref_out),
            (
                CacheInsertOutcome::Inserted,
                reference::RefOutcome::Inserted
            ) | (
                CacheInsertOutcome::NotCached,
                reference::RefOutcome::NotCached
            )
        ) || matches!(
            (live_out, ref_out),
            (
                CacheInsertOutcome::InsertedAfterEvicting(a),
                reference::RefOutcome::InsertedAfterEvicting(b)
            ) if a == b
        );
        prop_assert!(
            matches,
            "insert {} diverged: {:?} vs {:?}",
            i,
            live_out,
            ref_out
        );
    }
    Ok(())
}

/// A long Zipf-skewed trace of variable-length rows through a buffer a few
/// dozen rows wide: thousands of capacity and conflict evictions over a
/// fragmented buffer, where a misplaced allocation or a different sampled
/// victim would show within a few steps. Fixed seed, both score policies.
#[test]
fn long_skewed_trace_is_bit_identical_to_pre_refactor_cache() {
    const KEYS: usize = 4_000;
    const ACCESSES: usize = 24_000;
    // Zipf(1.0) over KEYS ranks, sampled by inverting the cumulative weights.
    let cdf: Vec<f64> = (1..=KEYS)
        .scan(0.0, |acc, r| {
            *acc += 1.0 / r as f64;
            Some(*acc)
        })
        .collect();
    let total = cdf[KEYS - 1];
    for use_scores in [false, true] {
        let mut cfg = ClampiConfig::always_cache(6_002, 251);
        if use_scores {
            cfg = cfg.with_application_scores();
        }
        let mut live: Clampi<u32> = Clampi::new(cfg);
        let mut reference = reference::ReferenceCache::new(cfg);
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut max_fragmentation = 0.0f64;
        for i in 0..ACCESSES {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let u = (rng >> 11) as f64 / (1u64 << 53) as f64 * total;
            let v = cdf.partition_point(|&c| c < u).min(KEYS - 1);
            // Popular rows are long (hubs), the tail short and ragged.
            let len = 1 + (v * 2_654_435_761) % 40 + 400 / (v + 1);
            access_both(&mut live, &mut reference, v * 512, len, len as f64, i).unwrap();
            assert_eq!(live.len(), reference.len(), "entry count diverged at {i}");
            assert_eq!(live.occupied_bytes(), reference.occupied_bytes());
            assert_eq!(live.fragmentation(), reference.fragmentation(), "at {i}");
            max_fragmentation = max_fragmentation.max(live.fragmentation());
        }
        assert_stats_match(live.stats(), &reference.stats).unwrap();
        let stats = live.stats();
        assert!(stats.reconciles(), "{stats:?}");
        assert!(
            stats.evictions() >= 2_000,
            "scores {use_scores}: only {} evictions",
            stats.evictions()
        );
        assert!(
            max_fragmentation > 0.5,
            "scores {use_scores}: fragmentation peaked at {max_fragmentation}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole guarantee: `PaperScore` through the trait is
    /// decision-for-decision identical to the pre-refactor cache, under both
    /// score policies, with and without the adaptive heuristic.
    #[test]
    fn paper_score_is_bit_identical_to_pre_refactor_cache(
        ops in prop::collection::vec(op_strategy(), 1..400),
        capacity in 32usize..2048,
        slots in 1usize..96,
        use_scores in any::<bool>(),
        adaptive in any::<bool>(),
    ) {
        let mut cfg = ClampiConfig::always_cache(capacity, slots);
        if use_scores {
            cfg = cfg.with_application_scores();
        }
        if adaptive {
            cfg = cfg.with_adaptive();
            // Small window so the heuristic actually fires inside the trace.
            cfg.adaptive.as_mut().unwrap().interval = 32;
            cfg.adaptive.as_mut().unwrap().max_capacity_bytes = capacity * 4;
        }
        let mut live: Clampi<u32> = Clampi::new(cfg);
        let mut reference = reference::ReferenceCache::new(cfg);
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                Op::Access { offset, len, score } => {
                    access_both(&mut live, &mut reference, offset, len, score, i)?;
                }
                Op::EndEpoch => {
                    live.end_epoch();
                    reference.end_epoch();
                }
                Op::Flush => {
                    live.flush();
                    reference.flush();
                }
            }
            prop_assert_eq!(live.len(), reference.len(), "entry count diverged at op {}", i);
            prop_assert_eq!(live.occupied_bytes(), reference.occupied_bytes());
        }
        assert_stats_match(live.stats(), &reference.stats)?;
        prop_assert!(live.stats().reconciles(), "{:?}", live.stats());
    }

    /// `ShardedClampi` with one shard is the identity split: it must match a
    /// plain `Clampi` on every observable, for every policy kind.
    #[test]
    fn single_shard_matches_plain_cache(
        ops in prop::collection::vec(op_strategy(), 1..300),
        capacity in 32usize..2048,
        slots in 1usize..96,
        policy_idx in 0usize..4,
        use_scores in any::<bool>(),
    ) {
        let mut cfg = ClampiConfig::always_cache(capacity, slots)
            .with_policy(rmatc_clampi::EvictionPolicyKind::ALL[policy_idx]);
        if use_scores {
            cfg = cfg.with_application_scores();
        }
        let mut plain: Clampi<u32> = Clampi::new(cfg);
        let sharded: ShardedClampi<u32> = ShardedClampi::new(cfg, 1);
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                Op::Access { offset, len, score } => {
                    let k = key(offset, len);
                    let plain_hit = plain.lookup(k);
                    let sharded_hit = sharded.lookup(k);
                    prop_assert_eq!(
                        plain_hit.is_some(),
                        sharded_hit.is_some(),
                        "lookup {} diverged",
                        i
                    );
                    if plain_hit.is_none() {
                        let data: Vec<u32> = (0..len as u32).collect();
                        let a = plain.insert(k, data.clone(), score);
                        let b = sharded.insert(k, data, score);
                        prop_assert_eq!(a, b, "insert {} diverged", i);
                    }
                }
                Op::EndEpoch => {
                    plain.end_epoch();
                    sharded.end_epoch();
                }
                Op::Flush => {
                    plain.flush();
                    sharded.flush();
                }
            }
            prop_assert_eq!(plain.len(), sharded.len());
            prop_assert_eq!(plain.occupied_bytes(), sharded.occupied_bytes());
        }
        prop_assert_eq!(plain.stats(), &sharded.stats());
        prop_assert!(plain.stats().reconciles(), "{:?}", plain.stats());
    }
}
