//! Pluggable eviction policies.
//!
//! The paper evaluates exactly one victim-selection rule: CLaMPI's weighted
//! LRU score, optionally biased by an application-defined score (for LCC, the
//! out-degree of the cached vertex — Figure 8). That rule is one point in a
//! much larger design space, so the cache routes every eviction decision
//! through the [`EvictionPolicy`] trait and ships four implementations:
//!
//! * [`PaperScore`] — the default. Bit-identical to the pre-trait cache: the
//!   same weighted-LRU / application-score arithmetic, the same admission
//!   control, evaluated in the same order (proved by differential proptests
//!   in `tests/policy_equivalence.rs`).
//! * [`Lru`] — pure recency, no positional or application component.
//! * [`Lfu`] — least frequently used, with an infinitesimal recency
//!   tie-break so victim selection stays deterministic.
//! * [`Gdsf`] — Greedy-Dual-Size-Frequency with aging: priority
//!   `H = L + frequency × miss_cost(size) / size`, the natural
//!   generalization of degree scoring to variable-length adjacency rows
//!   (a row's refetch cost is latency + bytes, its buffer footprint is
//!   bytes, and its observed frequency replaces the degree prior).
//!
//! Policies are selected by [`EvictionPolicyKind`] on
//! [`ClampiConfig::policy`](crate::ClampiConfig::policy); the cache owns one
//! [`AnyPolicy`] (an enum over the four, so every decision is a direct,
//! inlinable call rather than a virtual one) and reports its decisions
//! through the usual [`CacheStats`](crate::CacheStats) counters (plus the
//! policy-attributed `evicted_bytes` / `admission_rejections` counters added
//! with this layer).

use crate::config::{ClampiConfig, ScorePolicy};
use crate::freelist::FreeList;

/// Selects which [`EvictionPolicy`] a cache instance runs.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum EvictionPolicyKind {
    /// The paper's weighted-score selection (the default): LRU + positional
    /// score, or LRU − application score under
    /// [`ScorePolicy::ApplicationScore`].
    #[default]
    PaperScore,
    /// Pure least-recently-used.
    Lru,
    /// Least-frequently-used with a deterministic recency tie-break.
    Lfu,
    /// Greedy-Dual-Size-Frequency with aging.
    Gdsf,
}

impl EvictionPolicyKind {
    /// Every selectable policy, in shootout order.
    pub const ALL: [EvictionPolicyKind; 4] = [
        EvictionPolicyKind::PaperScore,
        EvictionPolicyKind::Lru,
        EvictionPolicyKind::Lfu,
        EvictionPolicyKind::Gdsf,
    ];

    /// Stable lower-case name (bench records and reports key on it).
    pub fn name(&self) -> &'static str {
        match self {
            EvictionPolicyKind::PaperScore => "paper_score",
            EvictionPolicyKind::Lru => "lru",
            EvictionPolicyKind::Lfu => "lfu",
            EvictionPolicyKind::Gdsf => "gdsf",
        }
    }

    /// Builds a fresh policy instance of this kind.
    pub fn build(&self) -> AnyPolicy {
        match self {
            EvictionPolicyKind::PaperScore => AnyPolicy::PaperScore(PaperScore),
            EvictionPolicyKind::Lru => AnyPolicy::Lru(Lru),
            EvictionPolicyKind::Lfu => AnyPolicy::Lfu(Lfu),
            EvictionPolicyKind::Gdsf => AnyPolicy::Gdsf(Gdsf::default()),
        }
    }
}

/// One of the four shipped policies, as [`EvictionPolicyKind::build`] makes
/// it. The set is closed, so the cache holds this enum instead of a
/// `Box<dyn EvictionPolicy>`: the per-victim score is a match the compiler
/// can inline into the sampling loop.
#[derive(Debug, Clone, Copy)]
pub enum AnyPolicy {
    /// [`PaperScore`].
    PaperScore(PaperScore),
    /// [`Lru`].
    Lru(Lru),
    /// [`Lfu`].
    Lfu(Lfu),
    /// [`Gdsf`].
    Gdsf(Gdsf),
}

/// Calls `$body` with `$p` bound to the policy inside `$self`.
macro_rules! dispatch {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            AnyPolicy::PaperScore($p) => $body,
            AnyPolicy::Lru($p) => $body,
            AnyPolicy::Lfu($p) => $body,
            AnyPolicy::Gdsf($p) => $body,
        }
    };
}

impl EvictionPolicy for AnyPolicy {
    fn kind(&self) -> EvictionPolicyKind {
        dispatch!(self, p => p.kind())
    }

    #[inline]
    fn victim_score(&self, entry: EntryView, ctx: &PolicyContext<'_>) -> f64 {
        dispatch!(self, p => p.victim_score(entry, ctx))
    }

    #[inline]
    fn priority_on_insert(&mut self, entry: EntryView, ctx: &PolicyContext<'_>) -> f64 {
        dispatch!(self, p => p.priority_on_insert(entry, ctx))
    }

    #[inline]
    fn priority_on_hit(&mut self, entry: EntryView, ctx: &PolicyContext<'_>) -> f64 {
        dispatch!(self, p => p.priority_on_hit(entry, ctx))
    }

    #[inline]
    fn admits(
        &self,
        candidate_score: f64,
        candidate_bytes: usize,
        victim: EntryView,
        ctx: &PolicyContext<'_>,
    ) -> bool {
        dispatch!(self, p => p.admits(candidate_score, candidate_bytes, victim, ctx))
    }

    fn on_evict(&mut self, victim: EntryView) {
        dispatch!(self, p => p.on_evict(victim))
    }

    fn on_flush(&mut self) {
        dispatch!(self, p => p.on_flush())
    }
}

/// Borrow-free snapshot of the entry fields a policy may consult. The cache
/// builds one per decision; policies never see the payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntryView {
    /// Bytes the entry occupies in the memory buffer.
    pub bytes: usize,
    /// Start address in the memory buffer (for positional scoring).
    pub addr: usize,
    /// Logical timestamp of the last access.
    pub last_access: u64,
    /// Application-defined score passed at insert time (vertex degree in the
    /// paper's LCC runs; `0.0` when unused).
    pub user_score: f64,
    /// Times this entry was accessed, counting the insert itself.
    pub hits: u64,
    /// Policy-private scalar stored on the entry (GDSF keeps its priority
    /// `H` here); `0.0` for policies that do not use it.
    pub priority: f64,
}

/// Cache-side state a policy decision may consult, passed by reference so the
/// hot path allocates nothing.
#[derive(Debug)]
pub struct PolicyContext<'a> {
    /// The cache's logical clock (monotonic access counter).
    pub clock: u64,
    /// Largest application score seen so far (for score normalisation).
    pub max_user_score: f64,
    /// The active configuration (scoring weights, score policy).
    pub config: &'a ClampiConfig,
    /// The buffer's free-region manager (for positional scoring).
    pub freelist: &'a FreeList,
}

impl PolicyContext<'_> {
    /// Relative age of an entry in `[0, 1]`: the recency component every
    /// shipped policy shares, computed exactly as the pre-trait cache did.
    pub fn age(&self, last_access: u64) -> f64 {
        (self.clock.saturating_sub(last_access)) as f64 / (self.clock.max(1)) as f64
    }
}

/// A victim-selection (and admission) policy. The cache calls `victim_score`
/// when it must evict, the `priority_on_*` hooks when an entry is inserted or
/// hit (their return value is stored on the entry), `admits` before
/// displacing a chosen victim, `on_evict` when a victim it chose is removed,
/// and `on_flush` when the whole cache is dropped.
///
/// Implementations must be deterministic: given the same sequence of calls
/// they must return the same values, because replayed runs (chaos schedules,
/// differential tests) compare caches decision-for-decision.
pub trait EvictionPolicy: std::fmt::Debug + Send {
    /// Which [`EvictionPolicyKind`] built this policy.
    fn kind(&self) -> EvictionPolicyKind;

    /// Victim score of a resident entry: **larger means more evictable**.
    /// Must never return NaN.
    fn victim_score(&self, entry: EntryView, ctx: &PolicyContext<'_>) -> f64;

    /// Priority scalar to store on a freshly inserted entry.
    fn priority_on_insert(&mut self, entry: EntryView, ctx: &PolicyContext<'_>) -> f64 {
        let _ = (entry, ctx);
        0.0
    }

    /// Updated priority scalar after a hit (`entry.hits` already counts it).
    fn priority_on_hit(&mut self, entry: EntryView, ctx: &PolicyContext<'_>) -> f64 {
        let _ = (entry, ctx);
        0.0
    }

    /// Whether a new entry (with `candidate_score` and `candidate_bytes`) may
    /// displace `victim`. Returning `false` refuses admission: the fetched
    /// data is still handed to the caller, just not cached.
    fn admits(
        &self,
        candidate_score: f64,
        candidate_bytes: usize,
        victim: EntryView,
        ctx: &PolicyContext<'_>,
    ) -> bool {
        let _ = (candidate_score, candidate_bytes, victim, ctx);
        true
    }

    /// A victim chosen by this policy is about to be evicted.
    fn on_evict(&mut self, victim: EntryView) {
        let _ = victim;
    }

    /// The cache was flushed; reset any aging state.
    fn on_flush(&mut self) {}
}

/// The paper's weighted-score victim selection — the pre-trait behaviour,
/// preserved bit-for-bit.
///
/// Under [`ScorePolicy::LruPositional`] the score is
/// `lru_weight · age + positional_weight · positional` where `positional`
/// rewards evicting entries adjacent to free regions (reducing external
/// fragmentation). Under [`ScorePolicy::ApplicationScore`] it is
/// `lru_weight · age − user_weight · score/max_score`, plus the admission
/// rule that refuses entries scoring below the prospective victim.
#[derive(Debug, Clone, Copy, Default)]
pub struct PaperScore;

impl EvictionPolicy for PaperScore {
    fn kind(&self) -> EvictionPolicyKind {
        EvictionPolicyKind::PaperScore
    }

    fn victim_score(&self, entry: EntryView, ctx: &PolicyContext<'_>) -> f64 {
        let age = ctx.age(entry.last_access);
        match ctx.config.scoring {
            ScorePolicy::LruPositional => {
                let (before, after) = ctx.freelist.adjacency_to_free(entry.addr, entry.bytes);
                let positional = (before as u8 + after as u8) as f64 / 2.0;
                ctx.config.lru_weight * age + ctx.config.positional_weight * positional
            }
            ScorePolicy::ApplicationScore => {
                let norm = if ctx.max_user_score > 0.0 {
                    entry.user_score / ctx.max_user_score
                } else {
                    0.0
                };
                ctx.config.lru_weight * age - ctx.config.user_weight * norm
            }
        }
    }

    fn admits(
        &self,
        candidate_score: f64,
        _candidate_bytes: usize,
        victim: EntryView,
        ctx: &PolicyContext<'_>,
    ) -> bool {
        // Admission control under application-defined scores: the point of
        // the paper's extension is to "avoid storing a high number of
        // low-degree vertices" — a new entry whose score is lower than the
        // prospective victim's is not admitted at all, instead of churning
        // the cache.
        ctx.config.scoring != ScorePolicy::ApplicationScore || candidate_score >= victim.user_score
    }
}

/// Pure least-recently-used: the victim is the entry idle the longest,
/// ignoring position, frequency and application scores.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lru;

impl EvictionPolicy for Lru {
    fn kind(&self) -> EvictionPolicyKind {
        EvictionPolicyKind::Lru
    }

    fn victim_score(&self, entry: EntryView, ctx: &PolicyContext<'_>) -> f64 {
        ctx.age(entry.last_access)
    }
}

/// How much the recency tie-break may contribute to an [`Lfu`] victim score.
/// Ages live in `[0, 1]` and frequencies are integers, so any weight below 1
/// can only order entries of *equal* frequency.
const LFU_TIE_BREAK: f64 = 1e-3;

/// Least-frequently-used: the victim is the entry with the fewest accesses;
/// equal frequencies fall back to evicting the least recently used.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lfu;

impl EvictionPolicy for Lfu {
    fn kind(&self) -> EvictionPolicyKind {
        EvictionPolicyKind::Lfu
    }

    fn victim_score(&self, entry: EntryView, ctx: &PolicyContext<'_>) -> f64 {
        -(entry.hits as f64) + LFU_TIE_BREAK * ctx.age(entry.last_access)
    }
}

/// Greedy-Dual-Size-Frequency with aging.
///
/// Every access sets the entry's priority to `H = L + f · c(s) / s` where
/// `f` is the access count, `s` the entry size and `c(s) = latency_bytes + s`
/// the modeled refetch cost (an RMA get pays a latency term plus a byte
/// term, so small rows are proportionally more expensive to re-miss). The
/// victim is the lowest-priority entry; evicting it advances the aging level
/// `L` to its priority, so long-resident entries must keep earning hits to
/// stay above newly inserted ones — the classic inflation scheme that lets
/// GDSF adapt when the hot set drifts.
#[derive(Debug, Clone, Copy)]
pub struct Gdsf {
    /// Aging level `L`: the priority of the most recently evicted victim.
    inflation: f64,
    /// Byte-equivalent of the per-get latency in the cost term `c(s)`.
    latency_bytes: f64,
}

impl Gdsf {
    /// Default byte-equivalent latency: roughly one Aries-class get setup
    /// (~1 µs) at ~10 GB/s, i.e. the row size below which latency dominates
    /// the refetch cost.
    pub const DEFAULT_LATENCY_BYTES: f64 = 512.0;

    /// GDSF with an explicit latency/bandwidth crossover (in bytes).
    pub fn with_latency_bytes(latency_bytes: f64) -> Self {
        Self {
            inflation: 0.0,
            latency_bytes: latency_bytes.max(0.0),
        }
    }

    /// Current aging level `L`.
    pub fn inflation(&self) -> f64 {
        self.inflation
    }

    /// Priority `H` of an entry with `hits` accesses and `bytes` size.
    fn priority(&self, hits: u64, bytes: usize) -> f64 {
        let size = bytes.max(1) as f64;
        self.inflation + (hits as f64) * (self.latency_bytes + size) / size
    }
}

impl Default for Gdsf {
    fn default() -> Self {
        Self::with_latency_bytes(Self::DEFAULT_LATENCY_BYTES)
    }
}

impl EvictionPolicy for Gdsf {
    fn kind(&self) -> EvictionPolicyKind {
        EvictionPolicyKind::Gdsf
    }

    fn victim_score(&self, entry: EntryView, _ctx: &PolicyContext<'_>) -> f64 {
        // Lowest priority evicts first; the cache maximises victim scores.
        -entry.priority
    }

    fn priority_on_insert(&mut self, entry: EntryView, _ctx: &PolicyContext<'_>) -> f64 {
        self.priority(entry.hits, entry.bytes)
    }

    fn priority_on_hit(&mut self, entry: EntryView, _ctx: &PolicyContext<'_>) -> f64 {
        self.priority(entry.hits, entry.bytes)
    }

    fn on_evict(&mut self, victim: EntryView) {
        // Aging: future priorities start from the evicted entry's level, so
        // resident entries decay relative to new arrivals unless re-hit.
        if victim.priority > self.inflation {
            self.inflation = victim.priority;
        }
    }

    fn on_flush(&mut self) {
        self.inflation = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(config: &'a ClampiConfig, freelist: &'a FreeList, clock: u64) -> PolicyContext<'a> {
        PolicyContext {
            clock,
            max_user_score: 100.0,
            config,
            freelist,
        }
    }

    fn view(last_access: u64, bytes: usize, hits: u64, priority: f64) -> EntryView {
        EntryView {
            bytes,
            addr: 0,
            last_access,
            user_score: 0.0,
            hits,
            priority,
        }
    }

    #[test]
    fn kinds_build_matching_policies() {
        for kind in EvictionPolicyKind::ALL {
            assert_eq!(kind.build().kind(), kind);
        }
        assert_eq!(
            EvictionPolicyKind::default(),
            EvictionPolicyKind::PaperScore
        );
    }

    #[test]
    fn names_are_stable_and_distinct() {
        let names: std::collections::HashSet<_> =
            EvictionPolicyKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), EvictionPolicyKind::ALL.len());
        assert_eq!(EvictionPolicyKind::Gdsf.name(), "gdsf");
    }

    #[test]
    fn lru_prefers_older_entries() {
        let config = ClampiConfig::always_cache(1024, 16);
        let fl = FreeList::new(1024);
        let ctx = ctx(&config, &fl, 100);
        let lru = Lru;
        assert!(
            lru.victim_score(view(10, 64, 1, 0.0), &ctx)
                > lru.victim_score(view(90, 64, 1, 0.0), &ctx)
        );
    }

    #[test]
    fn lfu_prefers_rare_entries_with_recency_tie_break() {
        let config = ClampiConfig::always_cache(1024, 16);
        let fl = FreeList::new(1024);
        let ctx = ctx(&config, &fl, 100);
        let lfu = Lfu;
        // Frequency dominates: an old popular entry outlives a fresh rare one.
        assert!(
            lfu.victim_score(view(99, 64, 1, 0.0), &ctx)
                > lfu.victim_score(view(1, 64, 50, 0.0), &ctx)
        );
        // Equal frequency: older evicts first.
        assert!(
            lfu.victim_score(view(10, 64, 3, 0.0), &ctx)
                > lfu.victim_score(view(90, 64, 3, 0.0), &ctx)
        );
    }

    #[test]
    fn gdsf_priorities_scale_with_frequency_and_against_size() {
        let mut gdsf = Gdsf::default();
        let config = ClampiConfig::always_cache(1024, 16);
        let fl = FreeList::new(1024);
        let ctx = ctx(&config, &fl, 100);
        let small_hot = gdsf.priority_on_hit(view(0, 64, 10, 0.0), &ctx);
        let small_cold = gdsf.priority_on_hit(view(0, 64, 1, 0.0), &ctx);
        let large_cold = gdsf.priority_on_hit(view(0, 1 << 20, 1, 0.0), &ctx);
        assert!(small_hot > small_cold, "frequency raises priority");
        assert!(
            small_cold > large_cold,
            "per-byte value falls with size at equal frequency"
        );
        // Victim score is the negated priority.
        assert!(
            gdsf.victim_score(view(0, 1 << 20, 1, large_cold), &ctx)
                > gdsf.victim_score(view(0, 64, 10, small_hot), &ctx)
        );
    }

    #[test]
    fn gdsf_ages_on_eviction_and_resets_on_flush() {
        let mut gdsf = Gdsf::default();
        assert_eq!(gdsf.inflation(), 0.0);
        gdsf.on_evict(view(0, 64, 1, 7.5));
        assert_eq!(gdsf.inflation(), 7.5);
        // Aging never regresses.
        gdsf.on_evict(view(0, 64, 1, 2.0));
        assert_eq!(gdsf.inflation(), 7.5);
        // New priorities start from the aging level.
        let config = ClampiConfig::always_cache(1024, 16);
        let fl = FreeList::new(1024);
        let c = ctx(&config, &fl, 1);
        assert!(gdsf.priority_on_insert(view(0, 64, 1, 0.0), &c) > 7.5);
        gdsf.on_flush();
        assert_eq!(gdsf.inflation(), 0.0);
    }

    #[test]
    fn paper_score_admission_only_bites_under_application_scores() {
        let lru_cfg = ClampiConfig::always_cache(1024, 16);
        let app_cfg = ClampiConfig::always_cache(1024, 16).with_application_scores();
        let fl = FreeList::new(1024);
        let policy = PaperScore;
        let victim = EntryView {
            user_score: 50.0,
            ..view(0, 64, 1, 0.0)
        };
        let lru_ctx = ctx(&lru_cfg, &fl, 10);
        let app_ctx = ctx(&app_cfg, &fl, 10);
        assert!(policy.admits(0.0, 64, victim, &lru_ctx));
        assert!(!policy.admits(49.0, 64, victim, &app_ctx));
        assert!(policy.admits(50.0, 64, victim, &app_ctx));
    }
}
