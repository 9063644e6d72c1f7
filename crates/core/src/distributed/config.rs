//! Configuration of the distributed runner: rank count, partitioning, intersection
//! method, network model, double buffering, and the CLaMPI cache budget split.

use crate::intersect::{CostModel, IntersectMethod};
use rmatc_clampi::{ClampiConfig, EvictionPolicyKind};
use rmatc_graph::partition::PartitionScheme;
use rmatc_graph::GraphStorage;
use rmatc_rma::{FaultPlan, NetworkModel, RetryPolicy};

/// Which eviction score the adjacency cache uses (Figure 8's comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ScoreMode {
    /// CLaMPI's original LRU + positional score.
    Lru,
    /// The paper's extension: the out-degree of the fetched vertex is passed as the
    /// application-defined score, protecting high-degree (high-reuse) entries.
    DegreeCentrality,
}

/// Cache budget for one rank, split between the offsets cache and the adjacency
/// cache the way the paper does for its overall-performance experiments.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CacheSpec {
    /// Total bytes reserved per rank for both CLaMPI caches.
    pub total_bytes: usize,
    /// Bytes reserved for `C_offsets`; `None` uses the paper's rule of
    /// `0.8 · |V|` bytes. The reader caches each vertex's (start, end) offsets
    /// as one 16-byte pair of `u64`s, so that holds `0.05 · |V|` pairs (1,013
    /// on the 20,269-vertex perfbench graph, where the offsets hit rate is
    /// about 0.49).
    pub offsets_bytes: Option<usize>,
    /// Enable caching of the offsets window.
    pub cache_offsets: bool,
    /// Enable caching of the adjacencies window.
    pub cache_adjacencies: bool,
    /// Enable CLaMPI's adaptive resizing heuristic.
    pub adaptive: bool,
    /// Eviction-policy family both windows' caches run. The default,
    /// [`EvictionPolicyKind::PaperScore`], reproduces the paper exactly;
    /// [`ScoreMode`] then selects which score variant it computes.
    pub policy: EvictionPolicyKind,
}

impl CacheSpec {
    /// The paper's configuration: both windows cached, offsets cache sized at
    /// `0.8 · |V|` bytes, remainder of the budget to the adjacency cache.
    pub fn paper(total_bytes: usize) -> Self {
        Self {
            total_bytes,
            offsets_bytes: None,
            cache_offsets: true,
            cache_adjacencies: true,
            adaptive: false,
            policy: EvictionPolicyKind::PaperScore,
        }
    }

    /// Cache only the offsets window (Figure 7, left pair of panels).
    pub fn offsets_only(bytes: usize) -> Self {
        Self {
            total_bytes: bytes,
            offsets_bytes: Some(bytes),
            cache_offsets: true,
            cache_adjacencies: false,
            adaptive: false,
            policy: EvictionPolicyKind::PaperScore,
        }
    }

    /// Cache only the adjacencies window (Figure 7, right pair of panels).
    pub fn adjacencies_only(bytes: usize) -> Self {
        Self {
            total_bytes: bytes,
            offsets_bytes: Some(0),
            cache_offsets: false,
            cache_adjacencies: true,
            adaptive: false,
            policy: EvictionPolicyKind::PaperScore,
        }
    }

    /// Enables adaptive tuning.
    pub fn with_adaptive(mut self) -> Self {
        self.adaptive = true;
        self
    }

    /// Selects the eviction-policy family for both windows' caches
    /// (see [`rmatc_clampi::policy`]).
    pub fn with_policy(mut self, policy: EvictionPolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Resolves the per-window CLaMPI configurations for a graph with `n_global`
    /// vertices whose full adjacency array occupies `graph_adj_bytes`.
    ///
    /// Hash-table sizing follows Section III-B1: the offsets cache stores fixed
    /// 16-byte (start, end) entries, so one slot per storable entry; the adjacency
    /// cache uses the power-law estimate `n · f^α` with `α = 2`, where `f` is the
    /// fraction of the adjacency data the cache can hold.
    pub fn resolve(&self, n_global: usize, graph_adj_bytes: u64) -> ResolvedCaches {
        let offsets_bytes = self
            .offsets_bytes
            .unwrap_or(((n_global as f64) * 0.8) as usize)
            .min(self.total_bytes);
        let adj_bytes =
            self.total_bytes
                .saturating_sub(if self.cache_offsets { offsets_bytes } else { 0 });
        let offsets_cfg = if self.cache_offsets && offsets_bytes > 0 {
            let slots = ClampiConfig::offsets_table_slots(offsets_bytes, 16);
            let mut cfg = ClampiConfig::always_cache(offsets_bytes, slots).with_policy(self.policy);
            if self.adaptive {
                cfg = cfg.with_adaptive();
            }
            Some(cfg)
        } else {
            None
        };
        let adj_cfg = if self.cache_adjacencies && adj_bytes > 0 {
            let fraction = if graph_adj_bytes == 0 {
                1.0
            } else {
                (adj_bytes as f64 / graph_adj_bytes as f64).min(1.0)
            };
            let slots = ClampiConfig::adjacency_table_slots(n_global, fraction);
            let mut cfg = ClampiConfig::always_cache(adj_bytes, slots).with_policy(self.policy);
            if self.adaptive {
                cfg = cfg.with_adaptive();
            }
            Some(cfg)
        } else {
            None
        };
        ResolvedCaches {
            offsets: offsets_cfg,
            adjacencies: adj_cfg,
        }
    }
}

/// Concrete per-window cache configurations produced by [`CacheSpec::resolve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolvedCaches {
    /// Configuration for `C_offsets`, if that window is cached.
    pub offsets: Option<ClampiConfig>,
    /// Configuration for `C_adj`, if that window is cached.
    pub adjacencies: Option<ClampiConfig>,
}

/// Full configuration of a distributed run.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DistConfig {
    /// Number of ranks (the paper's "computing nodes").
    pub ranks: usize,
    /// Vertex partitioning scheme.
    pub scheme: PartitionScheme,
    /// Intersection kernel.
    pub method: IntersectMethod,
    /// Cost model [`IntersectMethod::Hybrid`] resolves kernels through on
    /// every rank: analytic (default) or machine-calibrated (see
    /// [`crate::intersect::calibrate`]). Kernel choice only — rank outputs
    /// are identical under any model.
    pub cost_model: CostModel,
    /// Network cost model for remote reads.
    pub network: NetworkModel,
    /// Overlap the communication of the next edge with the computation of the
    /// current one (Section III-A's double buffering).
    pub double_buffering: bool,
    /// CLaMPI caching; `None` runs the non-cached variant.
    pub cache: Option<CacheSpec>,
    /// Eviction score mode for the adjacency cache.
    pub score_mode: ScoreMode,
    /// Retry policy of the self-healing remote-read path: attempt budget,
    /// exponential backoff and completion timeout, all charged through the
    /// cost accounting.
    pub retry: RetryPolicy,
    /// Deterministic fault injection; `None` (the default) runs the reliable
    /// network with zero overhead (no checksums computed).
    pub faults: Option<FaultPlan>,
    /// Software-pipelining depth of the overlapped worker loop: how many
    /// remote adjacency gets are kept in flight ahead of the computation.
    /// `0` or `1` runs the classic issue-wait-compute loop; `D ≥ 2` issues up
    /// to `D` gets before draining the oldest, overlapping their modeled
    /// latency with the intersections of already-landed rows (see
    /// `docs/OVERLAP.md`).
    pub pipeline_depth: usize,
    /// Worker threads *inside* each rank. `1` (the default) keeps the rank
    /// single-threaded; `T ≥ 2` splits the rank's local vertices across `T`
    /// pool tasks, each with its own RMA endpoint, sharing one lock-sharded
    /// CLaMPI cache ([`rmatc_clampi::ShardedClampi`]).
    pub intra_threads: usize,
    /// Adjacency storage exposed in the RMA windows:
    /// [`GraphStorage::Plain`] (the default) exposes raw CSR rows;
    /// [`GraphStorage::Compressed`] exposes delta/varint-compressed rows
    /// ([`rmatc_graph::compressed`]), transfers and caches them compressed,
    /// and intersects through the fused decompress kernels
    /// ([`crate::intersect::compressed`]). Scores are bit-identical either
    /// way. The constructors honour `RMATC_STORAGE=compressed`.
    pub storage: GraphStorage,
}

impl DistConfig {
    /// Non-cached baseline configuration on `ranks` ranks.
    pub fn non_cached(ranks: usize) -> Self {
        Self {
            ranks,
            scheme: PartitionScheme::Block1D,
            method: IntersectMethod::Hybrid,
            cost_model: CostModel::Analytic,
            network: NetworkModel::aries(),
            double_buffering: true,
            cache: None,
            score_mode: ScoreMode::Lru,
            retry: RetryPolicy::default(),
            faults: None,
            pipeline_depth: 1,
            intra_threads: 1,
            storage: GraphStorage::from_env(),
        }
    }

    /// Cached configuration with the paper's budget split.
    pub fn cached(ranks: usize, cache_bytes: usize) -> Self {
        Self {
            cache: Some(CacheSpec::paper(cache_bytes)),
            ..Self::non_cached(ranks)
        }
    }

    /// Switches the adjacency-cache eviction score to degree centrality.
    ///
    /// Known defect: the score does not reach the cache yet. Each read
    /// passes the row's degree, but [`CacheSpec::resolve`] leaves
    /// `ClampiConfig::scoring` at `ScorePolicy::LruPositional`, and under that
    /// scoring the paper policy's victim score and admission ignore
    /// application scores. Runs with and without this call therefore make the
    /// same cache decisions. See "Picking one" in `docs/CACHE_POLICIES.md`.
    pub fn with_degree_scores(mut self) -> Self {
        self.score_mode = ScoreMode::DegreeCentrality;
        self
    }

    /// Selects the eviction-policy family both windows' caches run. A no-op
    /// on the non-cached configuration (there is no cache to configure).
    pub fn with_eviction_policy(mut self, policy: EvictionPolicyKind) -> Self {
        if let Some(cache) = self.cache.as_mut() {
            cache.policy = policy;
        }
        self
    }

    /// Same configuration with a different cost model for `Hybrid`
    /// resolution on every rank.
    pub fn with_cost_model(mut self, cost_model: CostModel) -> Self {
        self.cost_model = cost_model;
        self
    }

    /// Same configuration with a different retry policy for the self-healing
    /// read path.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables deterministic fault injection per `plan` (chaos testing). Use
    /// [`crate::DistLcc::try_run`] to observe unrecoverable plans as errors
    /// instead of panics.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Sets the software-pipelining depth of the overlapped worker loop
    /// (`0` and `1` both mean "no pipelining").
    pub fn with_pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth;
        self
    }

    /// Sets the number of worker threads inside each rank (`0` and `1` both
    /// mean "single-threaded rank").
    pub fn with_intra_threads(mut self, threads: usize) -> Self {
        self.intra_threads = threads;
        self
    }

    /// Selects the adjacency storage mode exposed in the RMA windows (see
    /// [`DistConfig::storage`]).
    pub fn with_storage(mut self, storage: GraphStorage) -> Self {
        self.storage = storage;
        self
    }

    /// The effective pipeline depth (`max(depth, 1)`).
    pub fn effective_pipeline_depth(&self) -> usize {
        self.pipeline_depth.max(1)
    }

    /// The effective intra-rank thread count (`max(threads, 1)`).
    pub fn effective_intra_threads(&self) -> usize {
        self.intra_threads.max(1)
    }

    /// Whether this configuration takes the overlapped (pipelined and/or
    /// intra-rank-threaded) worker path instead of the classic sequential one.
    pub fn overlapped(&self) -> bool {
        self.effective_pipeline_depth() > 1 || self.effective_intra_threads() > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_split_gives_offsets_point_eight_n() {
        let spec = CacheSpec::paper(1 << 20);
        let resolved = spec.resolve(100_000, 10 << 20);
        let offsets = resolved.offsets.expect("offsets cache enabled");
        assert_eq!(offsets.capacity_bytes, 80_000);
        let adj = resolved.adjacencies.expect("adjacency cache enabled");
        assert_eq!(adj.capacity_bytes, (1 << 20) - 80_000);
    }

    #[test]
    fn offsets_only_disables_adjacency_cache() {
        let resolved = CacheSpec::offsets_only(1 << 16).resolve(1_000, 1 << 20);
        assert!(resolved.offsets.is_some());
        assert!(resolved.adjacencies.is_none());
    }

    #[test]
    fn adjacencies_only_disables_offsets_cache() {
        let resolved = CacheSpec::adjacencies_only(1 << 16).resolve(1_000, 1 << 20);
        assert!(resolved.offsets.is_none());
        let adj = resolved.adjacencies.unwrap();
        assert_eq!(adj.capacity_bytes, 1 << 16);
    }

    #[test]
    fn adjacency_slots_shrink_with_smaller_caches() {
        let big = CacheSpec::adjacencies_only(1 << 20).resolve(100_000, 1 << 20);
        let small = CacheSpec::adjacencies_only(1 << 14).resolve(100_000, 1 << 20);
        assert!(big.adjacencies.unwrap().table_slots > small.adjacencies.unwrap().table_slots);
    }

    #[test]
    fn adaptive_flag_propagates() {
        let resolved = CacheSpec::paper(1 << 20)
            .with_adaptive()
            .resolve(1_000, 1 << 20);
        assert!(resolved.offsets.unwrap().adaptive.is_some());
        assert!(resolved.adjacencies.unwrap().adaptive.is_some());
    }

    #[test]
    fn tiny_budget_never_exceeds_total() {
        let spec = CacheSpec::paper(1_000);
        let resolved = spec.resolve(10_000, 1 << 20);
        // 0.8 · |V| = 8,000 exceeds the budget, so it is clamped to the budget and
        // the adjacency cache gets nothing.
        assert_eq!(resolved.offsets.unwrap().capacity_bytes, 1_000);
        assert!(resolved.adjacencies.is_none());
    }

    #[test]
    fn eviction_policy_threads_through_resolve() {
        let spec = CacheSpec::paper(1 << 20);
        assert_eq!(spec.policy, EvictionPolicyKind::PaperScore);
        let resolved = spec
            .with_policy(EvictionPolicyKind::Gdsf)
            .resolve(100_000, 10 << 20);
        assert_eq!(resolved.offsets.unwrap().policy, EvictionPolicyKind::Gdsf);
        assert_eq!(
            resolved.adjacencies.unwrap().policy,
            EvictionPolicyKind::Gdsf
        );
        // And via the DistConfig builder.
        let c = DistConfig::cached(4, 1 << 20).with_eviction_policy(EvictionPolicyKind::Lfu);
        assert_eq!(c.cache.unwrap().policy, EvictionPolicyKind::Lfu);
        // No cache, no-op.
        let nc = DistConfig::non_cached(4).with_eviction_policy(EvictionPolicyKind::Lfu);
        assert!(nc.cache.is_none());
    }

    #[test]
    fn config_builders() {
        let c = DistConfig::cached(8, 1 << 20).with_degree_scores();
        assert_eq!(c.ranks, 8);
        assert!(c.cache.is_some());
        assert_eq!(c.score_mode, ScoreMode::DegreeCentrality);
        let nc = DistConfig::non_cached(4);
        assert!(nc.cache.is_none());
        assert!(nc.faults.is_none(), "faults are opt-in");
        let faulted = nc
            .with_faults(FaultPlan::light(9))
            .with_retry(RetryPolicy::no_retries());
        assert_eq!(faulted.faults, Some(FaultPlan::light(9)));
        assert_eq!(faulted.retry.max_attempts, 1);
    }

    #[test]
    fn overlap_knobs_default_off_and_normalize() {
        let c = DistConfig::non_cached(2);
        assert_eq!(c.pipeline_depth, 1);
        assert_eq!(c.intra_threads, 1);
        assert!(!c.overlapped());
        // 0 and 1 both mean "off" for either knob.
        assert!(!c.with_pipeline_depth(0).overlapped());
        assert_eq!(c.with_pipeline_depth(0).effective_pipeline_depth(), 1);
        assert_eq!(c.with_intra_threads(0).effective_intra_threads(), 1);
        let p = c.with_pipeline_depth(4);
        assert!(p.overlapped());
        assert_eq!(p.effective_pipeline_depth(), 4);
        let t = c.with_intra_threads(3);
        assert!(t.overlapped());
        assert_eq!(t.effective_intra_threads(), 3);
    }
}
