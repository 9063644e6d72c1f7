//! The four workloads: their input graph and the fully pinned configuration
//! each one runs. Nothing here reads the environment — `RMATC_STORAGE`,
//! which the `DistConfig` constructors honour, is overridden explicitly.

use rmatc_core::{CacheSpec, CostModel, DistConfig};
use rmatc_graph::gen::{GraphGenerator, RmatGenerator};
use rmatc_graph::{CsrGraph, GraphStorage};

/// Ranks of every workload. Every rank is a thread of this process, and the
/// benchmark refuses to report wall-clock metrics on a host with fewer cores.
pub const RANKS: usize = 2;
/// R-MAT scale and edge factor: the paper's skew, `2^15` vertices.
pub const SCALE: u32 = 15;
pub const EDGE_FACTOR: u32 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LccSkewCached,
    LccSkewUncached,
    JaccardSkewCompressed,
    ServiceHubOpen,
}

/// The per-edge kernel a batch job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visitor {
    Lcc,
    Jaccard,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LccSkewCached,
        Workload::LccSkewUncached,
        Workload::JaccardSkewCompressed,
        Workload::ServiceHubOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LccSkewCached => "lcc_skew_cached",
            Workload::LccSkewUncached => "lcc_skew_uncached",
            Workload::JaccardSkewCompressed => "jaccard_skew_compressed",
            Workload::ServiceHubOpen => "service_hub_open",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The batch job this workload times. The service workload's per-layer
    /// `dist.*` metrics come from one `DistLcc` call over its configuration.
    pub fn visitor(self) -> Visitor {
        match self {
            Workload::JaccardSkewCompressed => Visitor::Jaccard,
            _ => Visitor::Lcc,
        }
    }

    pub fn storage(self) -> GraphStorage {
        match self {
            Workload::JaccardSkewCompressed => GraphStorage::Compressed,
            _ => GraphStorage::Plain,
        }
    }

    pub fn cached(self) -> bool {
        self != Workload::LccSkewUncached
    }

    /// The configuration the workload's pipeline runs: 2 ranks, one thread
    /// per rank, no pipelining, analytic cost model, explicit storage, and —
    /// when cached — the paper's budget split over half the CSR footprint
    /// with degree scores.
    pub fn dist_config(self, g: &CsrGraph) -> DistConfig {
        let config = DistConfig::non_cached(RANKS)
            .with_storage(self.storage())
            .with_cost_model(CostModel::Analytic)
            .with_pipeline_depth(1)
            .with_intra_threads(1);
        if self.cached() {
            with_paper_cache(config, g)
        } else {
            config
        }
    }

    /// The cache configuration the cache-layer replay runs. For the uncached
    /// workload it is its cached sibling's, so the layer is measured over the
    /// same stream while the workload's own pipeline bypasses it.
    pub fn replay_config(self, g: &CsrGraph) -> DistConfig {
        with_paper_cache(self.dist_config(g), g)
    }
}

fn with_paper_cache(config: DistConfig, g: &CsrGraph) -> DistConfig {
    DistConfig {
        cache: Some(CacheSpec::paper((g.csr_size_bytes() / 2) as usize)),
        ..config
    }
    .with_degree_scores()
}

/// The input graph of every workload: a cleaned R-MAT graph with the paper's
/// skew, generated from the benchmark seed.
pub fn input_graph(seed: u64) -> CsrGraph {
    RmatGenerator::paper(SCALE, EDGE_FACTOR)
        .generate_cleaned(seed)
        .into_csr()
}
