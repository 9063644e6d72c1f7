//! The CLaMPI cache proper: slot-indexed variable-size entries over a managed memory
//! buffer, with pluggable victim selection (see [`crate::policy`]) and optional
//! adaptive resizing.

use crate::adaptive::{AdaptiveAction, AdaptiveState};
use crate::config::{ClampiConfig, ConsistencyMode};
use crate::entry::{Entry, EntryKey};
use crate::freelist::FreeList;
use crate::policy::{AnyPolicy, EntryView, EvictionPolicy, EvictionPolicyKind, PolicyContext};
use crate::stats::CacheStats;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Result of trying to insert a missed region into the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheInsertOutcome {
    /// The entry was stored without evicting anything.
    Inserted,
    /// The entry was stored after evicting this many victims.
    InsertedAfterEvicting(usize),
    /// The entry could not be stored (larger than the whole buffer, or eviction
    /// could not make room).
    NotCached,
}

/// Number of hash-table slots probed per key (set associativity). A purely
/// direct-mapped index evicts on every collision even when the table is sized to
/// the expected entry count; a small probe sequence removes those artificial
/// conflict evictions, matching the behaviour the paper relies on when it sizes
/// the hash tables (Section III-B1).
const WAYS: usize = 4;

/// Occupied candidates the victim sampler scores per eviction.
const SAMPLES: usize = 16;

/// Probes the victim sampler draws and tests at once.
const PROBE_BATCH: usize = 8;

/// Division-free `x % n` for a 32-bit `x` and one fixed `n`, by the direct
/// remainder computation of Lemire, Kaser and Kurz, *Faster Remainder by
/// Direct Computation* (2019): with `M = ceil(2^64 / n)`, `x % n` is the high
/// half of `(M · x mod 2^64) · n`, exact for every `x` and `n` below `2^32`.
/// The victim sampler's draws are 32-bit, so this replaces its `%` exactly.
#[derive(Debug, Clone, Copy)]
struct Remainder {
    n: u64,
    /// `ceil(2^64 / n)` for `n < 2^32` (wrapped to 0 for `n = 1`).
    magic: u64,
}

impl Remainder {
    fn new(n: usize) -> Self {
        let n = n as u64;
        let magic = if n <= u32::MAX as u64 {
            (u64::MAX / n).wrapping_add(1)
        } else {
            0
        };
        Self { n, magic }
    }

    /// `x % n`.
    #[inline]
    fn of(&self, x: u32) -> usize {
        if self.n > u32::MAX as u64 {
            // Every 32-bit value is already below `n`.
            return x as usize;
        }
        let low = self.magic.wrapping_mul(x as u64);
        ((low as u128 * self.n as u128) >> 64) as usize
    }
}

/// Hasher of the compulsory-miss set. A key is four integers and the set only
/// answers membership, so one folded 64×64→128-bit multiply per integer
/// replaces SipHash's rounds. The hash is unkeyed: an input graph built to
/// make keys collide could slow the miss path, but never change a decision.
#[derive(Debug, Default, Clone, Copy)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        let product = ((self.0 ^ v) as u128) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// One CLaMPI cache instance: in the paper there are two per rank, `C_offsets` over
/// the offsets window and `C_adj` over the adjacencies window.
#[derive(Debug)]
pub struct Clampi<T> {
    config: ClampiConfig,
    /// Hash-table slots; each occupied slot owns its entry, as in CLaMPI where the
    /// hash table indexes the cached regions directly.
    slots: Vec<Option<Entry<T>>>,
    /// Division-free `% slots.len()` for the victim sampler.
    sample_mod: Remainder,
    /// One bit per slot, set while the slot holds an entry: the victim sampler
    /// tests its probes here instead of touching the slots.
    occupancy: Vec<u64>,
    freelist: FreeList,
    clock: u64,
    stats: CacheStats,
    /// Keys ever requested, for compulsory-miss accounting.
    seen: HashSet<EntryKey, BuildHasherDefault<KeyHasher>>,
    adaptive: AdaptiveState,
    occupied: usize,
    occupied_bytes: usize,
    max_user_score: f64,
    /// Deterministic internal RNG state for sampled victim selection.
    rng_state: u64,
    /// The active eviction policy, built from [`ClampiConfig::policy`]. Every
    /// victim score, admission decision and eviction notification goes
    /// through it; the default [`PaperScore`](crate::policy::PaperScore)
    /// reproduces the paper's behaviour bit-for-bit.
    policy: AnyPolicy,
}

impl<T: Clone> Clampi<T> {
    /// Creates a cache with the given configuration.
    pub fn new(config: ClampiConfig) -> Self {
        let table_slots = config.table_slots.max(1);
        let mut slots = Vec::new();
        slots.resize_with(table_slots, || None);
        Self {
            freelist: FreeList::with_cell_size(config.capacity_bytes, std::mem::size_of::<T>()),
            slots,
            sample_mod: Remainder::new(table_slots),
            occupancy: vec![0; table_slots.div_ceil(64)],
            clock: 0,
            stats: CacheStats::default(),
            seen: HashSet::default(),
            adaptive: AdaptiveState::default(),
            occupied: 0,
            occupied_bytes: 0,
            max_user_score: 0.0,
            rng_state: 0x9e37_79b9_7f4a_7c15,
            policy: config.policy.build(),
            config,
        }
    }

    /// Which eviction-policy family this cache runs.
    pub fn policy_kind(&self) -> EvictionPolicyKind {
        self.policy.kind()
    }

    /// The active configuration (capacity and table size reflect adaptive resizes).
    pub fn config(&self) -> &ClampiConfig {
        &self.config
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Records one compressed row moving through this cache (`logical`
    /// decoded bytes stored as `stored` compressed bytes). The cache is
    /// format-agnostic, so the reader that knows the row encoding reports the
    /// sizes (see [`CacheStats::logical_bytes`]).
    pub fn record_compression(&mut self, logical: u64, stored: u64) {
        self.stats.record_compression(logical, stored);
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Bytes currently occupied in the memory buffer.
    pub fn occupied_bytes(&self) -> usize {
        self.occupied_bytes
    }

    /// External fragmentation of the memory buffer, in `[0, 1]`.
    pub fn fragmentation(&self) -> f64 {
        self.freelist.fragmentation()
    }

    /// The probe sequence of a key: up to [`WAYS`] consecutive slots starting at its
    /// hash, returned in a fixed-size array (the lookup hot path must not allocate).
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

    /// Looks up a region. On a hit the entry's recency is refreshed and its data is
    /// returned (a refcount bump — the hit path performs no heap allocation); on a
    /// miss the caller is expected to perform the real RMA get and then call
    /// [`Clampi::insert`].
    pub fn lookup(&mut self, key: EntryKey) -> Option<Arc<[T]>> {
        self.lookup_entry(key).map(|(data, _checksum)| data)
    }

    /// Like [`Clampi::lookup`], but also returns the integrity stamp recorded
    /// at insert time (if any) so the caller can verify the data before
    /// serving it — the hook of the self-healing cached read path.
    pub fn lookup_entry(&mut self, key: EntryKey) -> Option<(Arc<[T]>, Option<u64>)> {
        self.clock += 1;
        self.adaptive.record_access();
        let clock = self.clock;
        let mut hit = None;
        let (probes, ways) = self.probe_slots(&key);
        for &slot in &probes[..ways] {
            if let Some(entry) = &mut self.slots[slot] {
                if entry.key == key {
                    entry.last_access = clock;
                    entry.hits += 1;
                    let ctx = PolicyContext {
                        clock,
                        max_user_score: self.max_user_score,
                        config: &self.config,
                        freelist: &self.freelist,
                    };
                    entry.priority = self.policy.priority_on_hit(entry.view(), &ctx);
                    hit = Some((Arc::clone(&entry.data), entry.checksum));
                    break;
                }
            }
        }
        if let Some((data, _)) = &hit {
            self.stats.hits += 1;
            self.stats.bytes_from_cache += (data.len() * std::mem::size_of::<T>()) as u64;
        } else {
            self.stats.misses += 1;
            if self.seen.insert(key) {
                self.stats.compulsory_misses += 1;
            }
        }
        self.maybe_adapt();
        hit
    }

    /// Inserts data fetched after a miss. The shared buffer is retained as-is — an
    /// `Arc` refcount bump, never a payload copy — so callers hand the cache the
    /// very allocation the RMA transfer landed in (a `Vec` is also accepted for
    /// convenience and converted once). `user_score` is the application-defined
    /// score (the paper passes the out-degree of the vertex whose adjacency list was
    /// fetched); pass `0.0` when not using application scores.
    pub fn insert(
        &mut self,
        key: EntryKey,
        data: impl Into<Arc<[T]>>,
        user_score: f64,
    ) -> CacheInsertOutcome {
        self.insert_with_checksum(key, data, user_score, None)
    }

    /// Like [`Clampi::insert`], additionally recording an integrity stamp the
    /// caller computed over the clean transfer; later hits hand it back via
    /// [`Clampi::lookup_entry`] for verification. `None` (the fault-free path)
    /// disables verification for this entry.
    pub fn insert_with_checksum(
        &mut self,
        key: EntryKey,
        data: impl Into<Arc<[T]>>,
        user_score: f64,
        checksum: Option<u64>,
    ) -> CacheInsertOutcome {
        let outcome = self.insert_data(key, data.into(), user_score, checksum);
        self.debug_assert_conserved();
        outcome
    }

    fn insert_data(
        &mut self,
        key: EntryKey,
        data: Arc<[T]>,
        user_score: f64,
        checksum: Option<u64>,
    ) -> CacheInsertOutcome {
        let bytes = data.len() * std::mem::size_of::<T>();
        self.stats.bytes_from_network += bytes as u64;
        if bytes > self.freelist.capacity() {
            self.stats.uncacheable += 1;
            return CacheInsertOutcome::NotCached;
        }
        self.max_user_score = self.max_user_score.max(user_score);
        let mut evicted = 0usize;
        // Index handling: within the key's probe sequence, reuse the slot holding the
        // same key, else take an empty slot, else this is a hash conflict and CLaMPI's
        // eviction procedure picks a victim among the residents of the set.
        let (probes, ways) = self.probe_slots(&key);
        let probes = &probes[..ways];
        let mut slot = None;
        for &s in probes {
            match &self.slots[s] {
                Some(resident) if resident.key == key => {
                    // Re-inserting an already-cached key (e.g. after a racing fetch):
                    // refresh the data in place. The refresh counts as an access for
                    // frequency-aware policies.
                    let resident = self.slots[s].as_mut().expect("checked above");
                    resident.data = data;
                    resident.last_access = self.clock;
                    resident.user_score = user_score;
                    resident.checksum = checksum;
                    resident.hits += 1;
                    let ctx = PolicyContext {
                        clock: self.clock,
                        max_user_score: self.max_user_score,
                        config: &self.config,
                        freelist: &self.freelist,
                    };
                    resident.priority = self.policy.priority_on_hit(resident.view(), &ctx);
                    return CacheInsertOutcome::Inserted;
                }
                None if slot.is_none() => slot = Some(s),
                _ => {}
            }
        }
        let slot = match slot {
            Some(s) => s,
            None => {
                // Every slot of the set is occupied by a different key: conflict.
                let victim = probes
                    .iter()
                    .copied()
                    .max_by(|&a, &b| {
                        let sa = self.victim_score(self.slots[a].as_ref().expect("occupied"));
                        let sb = self.victim_score(self.slots[b].as_ref().expect("occupied"));
                        sa.partial_cmp(&sb).expect("scores are not NaN")
                    })
                    .expect("probe sequence is never empty");
                self.evict_chosen_victim(victim);
                self.stats.conflict_evictions += 1;
                self.adaptive.record_conflict();
                evicted += 1;
                victim
            }
        };
        // Space handling: evict until a contiguous region of `bytes` is available.
        let addr = loop {
            if let Some(addr) = self.freelist.allocate(bytes) {
                break addr;
            }
            match self.pick_victim_slot(slot) {
                Some(victim_slot) => {
                    // Admission control: the policy may refuse to displace the
                    // prospective victim (PaperScore under application-defined
                    // scores rejects entries scoring below the victim, to "avoid
                    // storing a high number of low-degree vertices" instead of
                    // churning the cache).
                    let victim_view = self.slots[victim_slot]
                        .as_ref()
                        .map(|e| e.view())
                        .expect("pick_victim_slot only returns occupied slots");
                    let ctx = PolicyContext {
                        clock: self.clock,
                        max_user_score: self.max_user_score,
                        config: &self.config,
                        freelist: &self.freelist,
                    };
                    if !self.policy.admits(user_score, bytes, victim_view, &ctx) {
                        self.stats.uncacheable += 1;
                        self.stats.admission_rejections += 1;
                        return CacheInsertOutcome::NotCached;
                    }
                    self.evict_chosen_victim(victim_slot);
                    self.stats.capacity_evictions += 1;
                    self.adaptive.record_space_eviction();
                    evicted += 1;
                }
                None => {
                    self.stats.uncacheable += 1;
                    return CacheInsertOutcome::NotCached;
                }
            }
        };
        let view = EntryView {
            bytes,
            addr,
            last_access: self.clock,
            user_score,
            hits: 1,
            priority: 0.0,
        };
        let ctx = PolicyContext {
            clock: self.clock,
            max_user_score: self.max_user_score,
            config: &self.config,
            freelist: &self.freelist,
        };
        let priority = self.policy.priority_on_insert(view, &ctx);
        self.slots[slot] = Some(Entry {
            key,
            data,
            addr,
            bytes,
            last_access: self.clock,
            user_score,
            checksum,
            hits: 1,
            priority,
        });
        self.occupancy[slot / 64] |= 1 << (slot % 64);
        self.occupied += 1;
        self.occupied_bytes += bytes;
        if evicted == 0 {
            CacheInsertOutcome::Inserted
        } else {
            CacheInsertOutcome::InsertedAfterEvicting(evicted)
        }
    }

    /// Removes the entry for `key`, if resident, counting an invalidation.
    /// Used by the self-healing read path when a hit fails checksum
    /// verification: the rotten entry is dropped so the next read refetches.
    /// Returns whether an entry was removed.
    pub fn invalidate(&mut self, key: EntryKey) -> bool {
        let (probes, ways) = self.probe_slots(&key);
        for &slot in &probes[..ways] {
            if self.slots[slot].as_ref().is_some_and(|e| e.key == key) {
                self.evict_slot(slot);
                self.stats.invalidations += 1;
                self.debug_assert_conserved();
                return true;
            }
        }
        false
    }

    /// Removes every entry (the cache flush CLaMPI performs at epoch closures in
    /// transparent mode, on hash-table resizes, or on user request).
    pub fn flush(&mut self) {
        for slot in 0..self.slots.len() {
            if self.slots[slot].is_some() {
                self.evict_slot(slot);
            }
        }
        self.policy.on_flush();
        self.stats.flushes += 1;
        self.debug_assert_conserved();
    }

    /// Debug-build check of the buffer and index bookkeeping: occupied plus
    /// free bytes is the capacity, and the occupancy bitmap counts exactly
    /// the resident entries.
    fn debug_assert_conserved(&self) {
        debug_assert_eq!(
            self.occupied_bytes + self.freelist.total_free(),
            self.freelist.capacity(),
            "occupied + free bytes must equal the buffer capacity"
        );
        debug_assert_eq!(
            self.occupancy
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>(),
            self.occupied,
            "occupancy bitmap must count the resident entries"
        );
    }

    /// Signals the closure of an access epoch. In `Transparent` mode this flushes the
    /// cache; in the other modes it is a no-op.
    pub fn end_epoch(&mut self) {
        if self.config.mode == ConsistencyMode::Transparent {
            self.flush();
        }
    }

    /// Victim score of an entry, as judged by the active policy: larger means
    /// more evictable.
    fn victim_score(&self, entry: &Entry<T>) -> f64 {
        let ctx = PolicyContext {
            clock: self.clock,
            max_user_score: self.max_user_score,
            config: &self.config,
            freelist: &self.freelist,
        };
        self.policy.victim_score(entry.view(), &ctx)
    }

    /// Chooses a victim among occupied slots, excluding `protect` (the slot about to
    /// receive the new entry). CLaMPI scans its index for the best victim; at the
    /// scale of the LCC experiments an exhaustive scan per eviction is too slow, so
    /// we sample a bounded number of occupied slots and evict the best-scoring one —
    /// the standard approximation of weighted-LRU victim selection.
    ///
    /// The sample is a fixed function of the RNG stream: probe `i` is draw `i`
    /// modulo the table size, skipped when it is `protect` or empty, until
    /// [`SAMPLES`] occupied candidates were scored or 8·slots probes drawn.
    /// Probes are drawn [`PROBE_BATCH`] at a time and tested against the
    /// occupancy bitmap without branches; the generator is then rewound to
    /// the state after the last probe the bounds let the sample consume, so
    /// the stream, the candidates and their order match drawing one at a time.
    fn pick_victim_slot(&mut self, protect: usize) -> Option<usize> {
        if self.occupied == 0 || (self.occupied == 1 && self.slots[protect].is_some()) {
            return None;
        }
        let nslots = self.slots.len();
        let max_attempts = nslots.saturating_mul(8).max(64);
        let mut best: Option<(usize, f64)> = None;
        let mut inspected = 0usize;
        let mut attempts = 0usize;
        while inspected < SAMPLES && attempts < max_attempts {
            let batch = PROBE_BATCH.min(max_attempts - attempts);
            let mut states = [0u64; PROBE_BATCH];
            let mut probes = [0usize; PROBE_BATCH];
            let mut candidates = 0u32;
            let mut x = self.rng_state;
            for j in 0..batch {
                x = xorshift(x);
                let idx = self.sample_mod.of(scramble(x));
                states[j] = x;
                probes[j] = idx;
                let occupied = (self.occupancy[idx / 64] >> (idx % 64)) as u32 & 1;
                candidates |= (occupied & (idx != protect) as u32) << j;
            }
            let mut consumed = batch;
            while candidates != 0 {
                let j = candidates.trailing_zeros() as usize;
                candidates &= candidates - 1;
                let idx = probes[j];
                inspected += 1;
                let score = self.victim_score(self.slots[idx].as_ref().expect("occupied slot"));
                if best.map(|(_, s)| score > s).unwrap_or(true) {
                    best = Some((idx, score));
                }
                if inspected == SAMPLES {
                    consumed = j + 1;
                    break;
                }
            }
            self.rng_state = states[consumed - 1];
            attempts += consumed;
        }
        if best.is_none() {
            // Sampling failed (extremely sparse occupancy); fall back to a scan.
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

    /// Evicts a slot the policy *chose* (conflict or capacity victim): the
    /// policy is notified and the freed bytes are attributed to it. Flushes
    /// and invalidations are not victim selections and go through
    /// [`Clampi::evict_slot`] directly.
    fn evict_chosen_victim(&mut self, slot: usize) {
        if let Some(entry) = &self.slots[slot] {
            let view = entry.view();
            self.stats.evicted_bytes += view.bytes as u64;
            self.policy.on_evict(view);
        }
        self.evict_slot(slot);
    }

    fn evict_slot(&mut self, slot: usize) {
        if let Some(entry) = self.slots[slot].take() {
            self.occupancy[slot / 64] &= !(1 << (slot % 64));
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
                // Growing the hash table invalidates slot assignments: flush, as the
                // real CLaMPI does.
                self.flush();
                self.slots = Vec::new();
                self.slots.resize_with(new_slots, || None);
                self.sample_mod = Remainder::new(new_slots);
                self.occupancy = vec![0; new_slots.div_ceil(64)];
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

    /// Fault injection: replaces the resident entry's data for `key` with a
    /// byte-flipped copy (the stamp recorded at insert time is left alone, so
    /// verification will catch the rot). The shared buffer handed out to
    /// earlier readers is never mutated — corruption builds a fresh `Arc`.
    /// Returns whether a non-empty entry was corrupted.
    pub fn corrupt_entry(&mut self, key: EntryKey, salt: u64) -> bool
    where
        T: Copy,
    {
        let (probes, ways) = self.probe_slots(&key);
        for &slot in &probes[..ways] {
            if let Some(entry) = &mut self.slots[slot] {
                if entry.key == key && !entry.data.is_empty() {
                    entry.data = rmatc_rma::fault::corrupt_copy(&entry.data, salt);
                    return true;
                }
            }
        }
        false
    }
}

/// One step of the victim sampler's xorshift64* generator: deterministic,
/// cheap, good enough for victim sampling.
fn xorshift(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x
}

/// The xorshift64* output of state `x`: its high 32 bits after the multiply.
fn scramble(x: u64) -> u32 {
    (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmatc_rma::WindowId;

    fn key(offset: usize, len: usize) -> EntryKey {
        EntryKey::new(WindowId(0), 1, offset, len)
    }

    fn cache(capacity: usize, slots: usize) -> Clampi<u32> {
        Clampi::new(ClampiConfig::always_cache(capacity, slots))
    }

    #[test]
    fn remainder_matches_the_hardware_remainder() {
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut sizes = vec![1usize, 2, 3, 7, 64, 1013, 1 << 24, u32::MAX as usize];
        for _ in 0..200 {
            x = xorshift(x);
            sizes.push(1 + (x % (1 << 26)) as usize);
        }
        for n in sizes {
            let r = Remainder::new(n);
            for v in [0u32, 1, u32::MAX, u32::MAX - 1, n as u32] {
                assert_eq!(r.of(v), v as usize % n, "{v} % {n}");
            }
            for _ in 0..200 {
                x = xorshift(x);
                let v = scramble(x);
                assert_eq!(r.of(v), v as usize % n, "{v} % {n}");
            }
        }
        // Tables wider than every 32-bit draw leave the draw unchanged.
        assert_eq!(Remainder::new(1 << 40).of(u32::MAX), u32::MAX as usize);
    }

    /// The victim sampler as specified: one draw at a time, a `%` per
    /// probe. Returns the victim and the generator state it leaves behind.
    fn sample_one_draw_at_a_time(c: &Clampi<u32>, protect: usize) -> (Option<usize>, u64) {
        let nslots = c.slots.len();
        let mut state = c.rng_state;
        let (mut inspected, mut attempts) = (0, 0);
        let mut best: Option<(usize, f64)> = None;
        while inspected < SAMPLES && attempts < nslots.saturating_mul(8).max(64) {
            attempts += 1;
            state = xorshift(state);
            let idx = scramble(state) as usize % nslots;
            if idx == protect {
                continue;
            }
            if let Some(entry) = &c.slots[idx] {
                inspected += 1;
                let score = c.victim_score(entry);
                if best.map(|(_, s)| score > s).unwrap_or(true) {
                    best = Some((idx, score));
                }
            }
        }
        (best.map(|(idx, _)| idx), state)
    }

    #[test]
    fn batched_sampling_matches_drawing_one_probe_at_a_time() {
        // Sparse tables end samples on the attempt bound, dense ones on the
        // sample bound, mid-batch.
        for (slots, entries) in [(8usize, 3usize), (64, 5), (64, 60), (4096, 2), (4096, 3000)] {
            let mut c = cache(1 << 20, slots);
            for i in 0..entries * 4 {
                if c.len() >= entries {
                    break;
                }
                c.insert(key(i * 4, 4), vec![0; 4], 0.0);
                for _ in 0..i % 3 {
                    let _ = c.lookup(key(i * 4, 4));
                }
            }
            assert!(c.len() >= 2);
            for protect in [0, slots / 2, slots - 1] {
                let (expected, state) = sample_one_draw_at_a_time(&c, protect);
                let got = c.pick_victim_slot(protect);
                assert_eq!(c.rng_state, state, "{slots} slots, {entries} entries");
                if expected.is_some() {
                    assert_eq!(got, expected, "{slots} slots, {entries} entries");
                }
            }
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut c = cache(1024, 64);
        assert!(c.lookup(key(0, 4)).is_none());
        assert_eq!(
            c.insert(key(0, 4), vec![1, 2, 3, 4], 0.0),
            CacheInsertOutcome::Inserted
        );
        let hit = c.lookup(key(0, 4)).expect("must hit after insert");
        assert_eq!(*hit, vec![1, 2, 3, 4]);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().compulsory_misses, 1);
    }

    #[test]
    fn different_regions_do_not_alias() {
        let mut c = cache(1024, 64);
        c.insert(key(0, 2), vec![1, 2], 0.0);
        c.insert(key(2, 2), vec![3, 4], 0.0);
        assert_eq!(*c.lookup(key(0, 2)).unwrap(), vec![1, 2]);
        assert_eq!(*c.lookup(key(2, 2)).unwrap(), vec![3, 4]);
        assert!(
            c.lookup(key(0, 4)).is_none(),
            "a different length is a different region"
        );
    }

    #[test]
    fn compulsory_misses_counted_once_per_key() {
        let mut c = cache(16, 4);
        for _ in 0..3 {
            let _ = c.lookup(key(0, 2));
        }
        assert_eq!(c.stats().misses, 3);
        assert_eq!(c.stats().compulsory_misses, 1);
    }

    #[test]
    fn entry_larger_than_buffer_is_uncacheable() {
        let mut c = cache(8, 4);
        assert_eq!(
            c.insert(key(0, 100), vec![0u32; 100], 0.0),
            CacheInsertOutcome::NotCached
        );
        assert_eq!(c.stats().uncacheable, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_pressure_evicts_old_entries() {
        // Buffer fits exactly two 4-element (16-byte) entries.
        let mut c = cache(32, 64);
        c.insert(key(0, 4), vec![0; 4], 0.0);
        c.insert(key(4, 4), vec![1; 4], 0.0);
        assert_eq!(c.len(), 2);
        let outcome = c.insert(key(8, 4), vec![2; 4], 0.0);
        assert!(matches!(
            outcome,
            CacheInsertOutcome::InsertedAfterEvicting(_)
        ));
        assert_eq!(c.len(), 2);
        assert!(c.stats().capacity_evictions >= 1);
        assert_eq!(c.occupied_bytes(), 32);
    }

    #[test]
    fn lru_prefers_evicting_stale_entries() {
        let mut c = cache(32, 64);
        c.insert(key(0, 4), vec![0; 4], 0.0);
        c.insert(key(4, 4), vec![1; 4], 0.0);
        // Touch the first entry many times so the second is the LRU victim.
        for _ in 0..50 {
            assert!(c.lookup(key(0, 4)).is_some());
        }
        c.insert(key(8, 4), vec![2; 4], 0.0);
        assert!(c.lookup(key(0, 4)).is_some(), "hot entry should survive");
    }

    #[test]
    fn application_scores_protect_high_degree_entries() {
        let cfg = ClampiConfig::always_cache(32, 64).with_application_scores();
        let mut c: Clampi<u32> = Clampi::new(cfg);
        // Entry with a high application score (a high-degree vertex)...
        c.insert(key(0, 4), vec![0; 4], 1_000.0);
        // ...and one with a low score, accessed more recently.
        c.insert(key(4, 4), vec![1; 4], 1.0);
        let _ = c.lookup(key(4, 4));
        // Under plain LRU the high-score entry would be the victim; with application
        // scores the low-score entry goes instead.
        c.insert(key(8, 4), vec![2; 4], 1.0);
        assert!(
            c.lookup(key(0, 4)).is_some(),
            "high-score entry must be protected"
        );
    }

    #[test]
    fn application_scores_reject_low_value_entries_when_full() {
        let cfg = ClampiConfig::always_cache(32, 64).with_application_scores();
        let mut c: Clampi<u32> = Clampi::new(cfg);
        // Fill the buffer with two high-score (high-degree) entries.
        c.insert(key(0, 4), vec![0; 4], 500.0);
        c.insert(key(4, 4), vec![1; 4], 400.0);
        // A low-degree entry should not displace them (admission control)...
        assert_eq!(
            c.insert(key(8, 4), vec![2; 4], 3.0),
            CacheInsertOutcome::NotCached
        );
        assert!(c.lookup(key(0, 4)).is_some());
        assert!(c.lookup(key(4, 4)).is_some());
        // ...but a higher-degree entry still evicts its way in.
        let outcome = c.insert(key(12, 4), vec![3; 4], 900.0);
        assert!(matches!(
            outcome,
            CacheInsertOutcome::InsertedAfterEvicting(_)
        ));
        assert!(c.lookup(key(12, 4)).is_some());
    }

    #[test]
    fn admission_rejections_are_counted_separately() {
        let cfg = ClampiConfig::always_cache(32, 64).with_application_scores();
        let mut c: Clampi<u32> = Clampi::new(cfg);
        c.insert(key(0, 4), vec![0; 4], 500.0);
        c.insert(key(4, 4), vec![1; 4], 400.0);
        assert_eq!(
            c.insert(key(8, 4), vec![2; 4], 3.0),
            CacheInsertOutcome::NotCached
        );
        assert_eq!(c.stats().admission_rejections, 1);
        assert_eq!(c.stats().uncacheable, 1);
        // An entry larger than the whole buffer is uncacheable but not an
        // admission rejection — no victim was ever consulted.
        let _ = c.insert(key(50, 100), vec![0u32; 100], 900.0);
        assert_eq!(c.stats().admission_rejections, 1);
        assert_eq!(c.stats().uncacheable, 2);
    }

    #[test]
    fn evicted_bytes_attributed_to_policy_victims_only() {
        let mut c = cache(32, 64);
        c.insert(key(0, 4), vec![0; 4], 0.0); // 16 B
        c.insert(key(4, 4), vec![1; 4], 0.0); // 16 B
        c.insert(key(8, 4), vec![2; 4], 0.0); // evicts one 16 B victim
        assert_eq!(c.stats().evicted_bytes, 16);
        // Flush frees everything but chose no victims: counter unchanged.
        c.flush();
        assert_eq!(c.stats().evicted_bytes, 16);
        // Invalidation likewise.
        c.insert(key(12, 4), vec![3; 4], 0.0);
        assert!(c.invalidate(key(12, 4)));
        assert_eq!(c.stats().evicted_bytes, 16);
    }

    #[test]
    fn lfu_policy_protects_frequent_entries_over_recent_ones() {
        let cfg = ClampiConfig::always_cache(32, 64).with_policy(EvictionPolicyKind::Lfu);
        let mut c: Clampi<u32> = Clampi::new(cfg);
        assert_eq!(c.policy_kind(), EvictionPolicyKind::Lfu);
        c.insert(key(0, 4), vec![0; 4], 0.0);
        c.insert(key(4, 4), vec![1; 4], 0.0);
        // Make the first entry frequent, then touch the second once so it is
        // the more *recent* one: LFU must still evict it.
        for _ in 0..10 {
            assert!(c.lookup(key(0, 4)).is_some());
        }
        assert!(c.lookup(key(4, 4)).is_some());
        c.insert(key(8, 4), vec![2; 4], 0.0);
        assert!(c.lookup(key(0, 4)).is_some(), "frequent entry must survive");
    }

    #[test]
    fn gdsf_policy_prefers_keeping_small_frequent_entries() {
        // Buffer fits one 24-element entry or several 2-element ones.
        let cfg = ClampiConfig::always_cache(96, 64).with_policy(EvictionPolicyKind::Gdsf);
        let mut c: Clampi<u32> = Clampi::new(cfg);
        assert_eq!(c.policy_kind(), EvictionPolicyKind::Gdsf);
        // Two small entries, re-hit to earn priority.
        c.insert(key(0, 2), vec![0; 2], 0.0);
        c.insert(key(2, 2), vec![1; 2], 0.0);
        for _ in 0..5 {
            assert!(c.lookup(key(0, 2)).is_some());
            assert!(c.lookup(key(2, 2)).is_some());
        }
        // One big cold entry fills most of the buffer...
        c.insert(key(100, 20), vec![9; 20], 0.0);
        // ...and a new entry forces an eviction: the big cold entry must go.
        c.insert(key(200, 2), vec![7; 2], 0.0);
        assert!(c.lookup(key(0, 2)).is_some(), "small hot entries survive");
        assert!(c.lookup(key(2, 2)).is_some(), "small hot entries survive");
        assert!(c.lookup(key(100, 20)).is_none(), "big cold entry evicted");
    }

    #[test]
    fn conflict_on_same_slot_evicts_resident() {
        // A single-slot table forces every distinct key to conflict.
        let mut c = cache(1024, 1);
        c.insert(key(0, 2), vec![1, 2], 0.0);
        c.insert(key(100, 2), vec![3, 4], 0.0);
        assert_eq!(c.stats().conflict_evictions, 1);
        assert_eq!(c.len(), 1);
        assert!(c.lookup(key(0, 2)).is_none());
        assert_eq!(*c.lookup(key(100, 2)).unwrap(), vec![3, 4]);
    }

    #[test]
    fn reinserting_same_key_refreshes_data() {
        let mut c = cache(1024, 16);
        c.insert(key(0, 2), vec![1, 2], 0.0);
        assert_eq!(
            c.insert(key(0, 2), vec![9, 9], 5.0),
            CacheInsertOutcome::Inserted
        );
        assert_eq!(c.len(), 1);
        assert_eq!(*c.lookup(key(0, 2)).unwrap(), vec![9, 9]);
    }

    #[test]
    fn flush_empties_the_cache_and_counts() {
        let mut c = cache(1024, 16);
        c.insert(key(0, 2), vec![1, 2], 0.0);
        c.insert(key(2, 2), vec![3, 4], 0.0);
        c.flush();
        assert!(c.is_empty());
        assert_eq!(c.occupied_bytes(), 0);
        assert_eq!(c.stats().flushes, 1);
        assert!(c.lookup(key(0, 2)).is_none());
    }

    #[test]
    fn transparent_mode_flushes_on_epoch_end() {
        let cfg = ClampiConfig {
            mode: ConsistencyMode::Transparent,
            ..ClampiConfig::always_cache(1024, 16)
        };
        let mut c: Clampi<u32> = Clampi::new(cfg);
        c.insert(key(0, 2), vec![1, 2], 0.0);
        c.end_epoch();
        assert!(c.is_empty());

        let mut always: Clampi<u32> = Clampi::new(ClampiConfig::always_cache(1024, 16));
        always.insert(key(0, 2), vec![1, 2], 0.0);
        always.end_epoch();
        assert_eq!(
            always.len(),
            1,
            "always-cache mode must persist across epochs"
        );
    }

    #[test]
    fn adaptive_grows_table_under_conflicts() {
        let mut cfg = ClampiConfig::always_cache(4096, 2).with_adaptive();
        cfg.adaptive.as_mut().unwrap().interval = 32;
        cfg.adaptive.as_mut().unwrap().conflict_threshold = 0.05;
        let mut c: Clampi<u32> = Clampi::new(cfg);
        // Many distinct keys over a 2-slot table: constant conflicts.
        for i in 0..200usize {
            let k = key(i * 2, 2);
            if c.lookup(k).is_none() {
                c.insert(k, vec![i as u32; 2], 0.0);
            }
        }
        assert!(c.stats().table_resizes >= 1, "table should have grown");
        assert!(c.config().table_slots > 2);
        assert!(c.stats().flushes >= 1, "growing the table must flush");
    }

    #[test]
    fn adaptive_grows_capacity_under_space_pressure() {
        let mut cfg = ClampiConfig::always_cache(64, 256).with_adaptive();
        let a = cfg.adaptive.as_mut().unwrap();
        a.interval = 64;
        a.eviction_threshold = 0.2;
        a.max_capacity_bytes = 1024;
        let mut c: Clampi<u32> = Clampi::new(cfg);
        for i in 0..300usize {
            let k = key(i * 4, 4);
            if c.lookup(k).is_none() {
                c.insert(k, vec![0u32; 4], 0.0);
            }
        }
        assert!(c.stats().capacity_resizes >= 1);
        assert!(c.config().capacity_bytes > 64);
        assert!(c.config().capacity_bytes <= 1024);
    }

    #[test]
    fn hit_and_network_bytes_are_tracked() {
        let mut c = cache(1024, 16);
        let _ = c.lookup(key(0, 4));
        c.insert(key(0, 4), vec![1, 2, 3, 4], 0.0);
        let _ = c.lookup(key(0, 4));
        assert_eq!(c.stats().bytes_from_network, 16);
        assert_eq!(c.stats().bytes_from_cache, 16);
    }

    #[test]
    fn checksummed_inserts_roundtrip_their_stamp() {
        let mut c = cache(1024, 16);
        c.insert_with_checksum(key(0, 2), vec![1, 2], 0.0, Some(0xfeed));
        c.insert(key(2, 2), vec![3, 4], 0.0);
        assert_eq!(
            c.lookup_entry(key(0, 2)),
            Some((Arc::from(vec![1u32, 2]), Some(0xfeed)))
        );
        assert_eq!(
            c.lookup_entry(key(2, 2)),
            Some((Arc::from(vec![3u32, 4]), None))
        );
        assert!(c.lookup_entry(key(4, 2)).is_none());
    }

    #[test]
    fn invalidate_removes_the_entry_and_counts() {
        let mut c = cache(1024, 16);
        c.insert(key(0, 2), vec![1, 2], 0.0);
        assert!(c.invalidate(key(0, 2)));
        assert!(!c.invalidate(key(0, 2)), "already gone");
        assert!(c.is_empty());
        assert_eq!(c.occupied_bytes(), 0);
        assert_eq!(c.stats().invalidations, 1);
        assert!(c.lookup(key(0, 2)).is_none());
    }

    #[test]
    fn corrupt_entry_replaces_data_without_mutating_shared_buffers() {
        let mut c = cache(1024, 16);
        let stamp = rmatc_rma::fault::checksum(&[1u32, 2]);
        c.insert_with_checksum(key(0, 2), vec![1, 2], 0.0, Some(stamp));
        let before = c.lookup(key(0, 2)).expect("resident");
        assert!(c.corrupt_entry(key(0, 2), 99));
        let (after, checksum) = c.lookup_entry(key(0, 2)).expect("still resident");
        assert!(!Arc::ptr_eq(&before, &after), "corruption must not alias");
        assert_eq!(&*before, &[1, 2], "handed-out buffers stay clean");
        assert_ne!(&*after, &[1, 2]);
        assert_eq!(checksum, Some(stamp), "the stamp stays, exposing the rot");
        assert_ne!(rmatc_rma::fault::checksum(&after), stamp);
        assert!(!c.corrupt_entry(key(50, 2), 1), "absent keys are a no-op");
    }

    #[test]
    fn eviction_loop_handles_fragmentation() {
        // Buffer of 40 bytes; insert 8-byte and 12-byte entries to fragment it, then
        // require a 24-byte entry which only fits after multiple evictions.
        let mut c = cache(40, 64);
        c.insert(key(0, 2), vec![0; 2], 0.0); // 8 B
        c.insert(key(10, 3), vec![0; 3], 0.0); // 12 B
        c.insert(key(20, 2), vec![0; 2], 0.0); // 8 B
        c.insert(key(30, 1), vec![0; 1], 0.0); // 4 B
        let outcome = c.insert(key(40, 6), vec![0; 6], 0.0); // 24 B
        assert!(matches!(
            outcome,
            CacheInsertOutcome::InsertedAfterEvicting(_)
        ));
        assert!(c.lookup(key(40, 6)).is_some());
        assert!(c.occupied_bytes() <= 40);
    }
}
