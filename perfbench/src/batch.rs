//! The batch jobs: one `DistLcc::run_partitioned` or
//! `DistJaccard::run_partitioned` call is one operation. Every call's output
//! is checked against a reference computed before timing starts.

use crate::measure::{max, median, ns_since, peak_rss_mb, percentile, Report};
use crate::trace::Tracer;
use crate::workload::{Visitor, Workload};
use crate::Outcome;
use rmatc_clampi::CacheStats;
use rmatc_core::{DistConfig, DistJaccard, DistLcc};
use rmatc_graph::partition::PartitionedGraph;
use rmatc_graph::reference;
use rmatc_graph::types::Direction;
use rmatc_graph::CsrGraph;
use std::time::{Duration, Instant};

/// Repetitions of the set-up step before timing; their median is
/// `setup_s`. (Interleaving them with the timed operations would raise the
/// run's peak RSS with set-up copies the workload never holds.)
pub const SETUP_REPS: usize = 15;
/// Fewest job calls a timed loop makes, however short its budget.
const MIN_CALLS: usize = 3;

/// The reference answer of a batch job.
pub enum Expected {
    /// Per-vertex closed triplets and the triangle count, from
    /// `rmatc_graph::reference`.
    Lcc { per_vertex: Vec<u64>, count: u64 },
    /// Per directed edge in CSR order: common neighbours and Jaccard score,
    /// computed sequentially on the CSR.
    Jaccard(Vec<(u64, f64)>),
}

impl Expected {
    pub fn compute(visitor: Visitor, g: &CsrGraph) -> Self {
        match visitor {
            Visitor::Lcc => {
                let per_vertex = reference::per_vertex_triangles(g);
                // `reference::count_triangles` would recount; apply its rule
                // to the per-vertex counts instead: every undirected triangle
                // is counted once from each of its three corners.
                let total: u64 = per_vertex.iter().sum();
                let count = match g.direction() {
                    Direction::Undirected => total / 3,
                    Direction::Directed => total,
                };
                Expected::Lcc { per_vertex, count }
            }
            Visitor::Jaccard => Expected::Jaccard(direct_jaccard(g)),
        }
    }
}

/// Jaccard similarity of every directed edge, straight from the CSR. The
/// graph is symmetric, so each unordered pair is intersected once and the
/// result mirrored to its reverse edge.
fn direct_jaccard(g: &CsrGraph) -> Vec<(u64, f64)> {
    let offsets = g.offsets();
    let mut out = vec![(0u64, 0.0f64); g.adjacencies().len()];
    for u in 0..g.vertex_count() as u32 {
        let adj_u = g.neighbours(u);
        for (i, &v) in adj_u.iter().enumerate() {
            if v < u {
                continue;
            }
            let adj_v = g.neighbours(v);
            let (common, score) = similarity(adj_u, adj_v);
            out[offsets[u as usize] as usize + i] = (common, score);
            let j = adj_v
                .binary_search(&u)
                .expect("cleaned R-MAT graphs are symmetric");
            out[offsets[v as usize] as usize + j] = (common, score);
        }
    }
    out
}

/// Common neighbours and Jaccard score of two sorted adjacency rows, by a
/// plain merge.
pub fn similarity(adj_u: &[u32], adj_v: &[u32]) -> (u64, f64) {
    let common = reference::sorted_intersection_count(adj_u, adj_v);
    let union = adj_u.len() as u64 + adj_v.len() as u64 - common;
    let score = if union == 0 {
        0.0
    } else {
        common as f64 / union as f64
    };
    (common, score)
}

/// What one job call measured.
#[derive(Debug, Clone)]
pub struct JobSample {
    pub wall_ns: f64,
    /// Sum over ranks of the rank loop's thread CPU time.
    pub cpu_ns: f64,
    pub compute_ns_max: f64,
    pub comm_ns_max: f64,
    /// Share of the modeled communication credited as hidden behind
    /// compute (double buffering), summed over ranks.
    pub overlap_share: f64,
    /// The paper's metric: the longest rank's modeled time.
    pub modeled_ns_max: f64,
    /// Longest rank's modeled time over the mean.
    pub imbalance: f64,
    pub gets: u64,
    pub bytes: u64,
    /// Pipeline cache counters merged over ranks (`DistLcc` reports them).
    pub offsets_cache: Option<CacheStats>,
    pub adjacency_cache: Option<CacheStats>,
    pub correct: bool,
}

/// Runs one job through the public entry point and checks its output.
pub fn call(
    visitor: Visitor,
    config: DistConfig,
    pg: &PartitionedGraph,
    expected: &Expected,
    tracer: &mut Tracer,
    run: u64,
) -> JobSample {
    let span = tracer.begin("dist.run_partitioned", run);
    let start = Instant::now();
    match visitor {
        Visitor::Lcc => {
            let result = DistLcc::new(config).run_partitioned(pg);
            let wall_ns = ns_since(start);
            tracer.end(span);
            let correct = match expected {
                Expected::Lcc { per_vertex, count } => {
                    result.triangle_count == *count && result.per_vertex_triangles == *per_vertex
                }
                Expected::Jaccard(_) => unreachable!("LCC jobs are checked against LCC"),
            };
            let totals: Vec<f64> = result.ranks.iter().map(|r| r.timing.total_ns()).collect();
            JobSample {
                wall_ns,
                cpu_ns: result.ranks.iter().map(|r| r.timing.compute_ns).sum(),
                compute_ns_max: max(&result
                    .ranks
                    .iter()
                    .map(|r| r.timing.compute_ns)
                    .collect::<Vec<_>>()),
                comm_ns_max: result.max_comm_time_ns(),
                overlap_share: overlap_share(
                    result
                        .ranks
                        .iter()
                        .map(|r| (r.timing.overlapped_ns, r.timing.comm_ns)),
                ),
                modeled_ns_max: result.max_rank_time_ns(),
                imbalance: imbalance(&totals),
                gets: result.total_gets(),
                bytes: result.total_bytes(),
                offsets_cache: result.offsets_cache_totals(),
                adjacency_cache: result.adjacency_cache_totals(),
                correct,
            }
        }
        Visitor::Jaccard => {
            let result = DistJaccard::new(config).run_partitioned(pg);
            let wall_ns = ns_since(start);
            tracer.end(span);
            let correct = match expected {
                Expected::Jaccard(want) => {
                    result.edges.len() == want.len()
                        && result.edges.iter().zip(want).all(|(e, &(common, score))| {
                            e.common_neighbours == common && e.jaccard.to_bits() == score.to_bits()
                        })
                }
                Expected::Lcc { .. } => unreachable!("Jaccard jobs are checked against Jaccard"),
            };
            // Same per-rank total as `TimingBreakdown::total_ns`.
            let totals: Vec<f64> = result
                .rank_stats
                .iter()
                .zip(&result.compute_ns)
                .map(|(s, &c)| c as f64 + s.comm_time_ns + s.local_time_ns)
                .collect();
            JobSample {
                wall_ns,
                cpu_ns: result.compute_ns.iter().map(|&c| c as f64).sum(),
                compute_ns_max: result
                    .compute_ns
                    .iter()
                    .map(|&c| c as f64)
                    .fold(0.0, f64::max),
                comm_ns_max: result.max_comm_time_ns(),
                overlap_share: overlap_share(
                    result
                        .rank_stats
                        .iter()
                        .map(|s| (s.overlapped_ns, s.comm_time_ns)),
                ),
                modeled_ns_max: max(&totals),
                imbalance: imbalance(&totals),
                gets: result.total_gets(),
                bytes: result.rank_stats.iter().map(|s| s.bytes).sum(),
                offsets_cache: None,
                adjacency_cache: None,
                correct,
            }
        }
    }
}

/// Hidden over hidden-plus-charged modeled communication, from per-rank
/// `(overlapped_ns, comm_ns)` pairs; 0 without communication.
fn overlap_share(ranks: impl Iterator<Item = (f64, f64)>) -> f64 {
    let (hidden, charged) = ranks.fold((0.0, 0.0), |(h, c), (o, m)| (h + o, c + m));
    if hidden + charged == 0.0 {
        0.0
    } else {
        hidden / (hidden + charged)
    }
}

fn imbalance(totals: &[f64]) -> f64 {
    let mean = totals.iter().sum::<f64>() / totals.len() as f64;
    if mean == 0.0 {
        1.0
    } else {
        max(totals) / mean
    }
}

/// Partitions `g` `reps` times; returns the last partition and each time in
/// seconds.
pub fn partition(
    g: &CsrGraph,
    config: &DistConfig,
    reps: usize,
    tracer: &mut Tracer,
) -> (PartitionedGraph, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut pg = None;
    for rep in 0..reps {
        let span = tracer.begin("graph.from_global", rep as u64);
        let start = Instant::now();
        let built = PartitionedGraph::from_global(g, config.scheme, config.ranks)
            .expect("2 ranks fit every benchmark graph");
        times.push(ns_since(start) / 1e9);
        tracer.end(span);
        pg = Some(built);
    }
    (pg.expect("at least one repetition"), times)
}

/// Calls the job back to back for `budget` (at least [`MIN_CALLS`] times).
pub fn timed_loop(
    visitor: Visitor,
    config: DistConfig,
    pg: &PartitionedGraph,
    expected: &Expected,
    budget: Duration,
    tracer: &mut Tracer,
    first_run: u64,
) -> Vec<JobSample> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_CALLS || start.elapsed() < budget {
        let run = first_run + samples.len() as u64;
        samples.push(call(visitor, config, pg, expected, tracer, run));
    }
    samples
}

/// The untraced batch run: set-up, then back-to-back job calls for
/// `seconds`, reported as the end-to-end metrics.
pub fn run_untraced(w: Workload, g: &CsrGraph, seconds: u64) -> Outcome {
    let config = w.dist_config(g);
    let expected = Expected::compute(w.visitor(), g);
    let mut tracer = Tracer::new(false);
    let (pg, setup_times) = partition(g, &config, SETUP_REPS, &mut tracer);
    // One untimed call first, so lazy set-up and cold caches stay out of
    // the timing; its output is checked like every other.
    let warm = call(w.visitor(), config, &pg, &expected, &mut tracer, 0);
    let samples = timed_loop(
        w.visitor(),
        config,
        &pg,
        &expected,
        Duration::from_secs(seconds),
        &mut tracer,
        1,
    );
    let edges = g.edge_count() as f64;
    let walls: Vec<f64> = samples.iter().map(|s| s.wall_ns).collect();
    let cpus: Vec<f64> = samples.iter().map(|s| s.cpu_ns).collect();
    let modeled: Vec<f64> = samples.iter().map(|s| s.modeled_ns_max).collect();
    let wrong = samples.iter().chain([&warm]).filter(|s| !s.correct).count() as u64;
    let attempted = samples.len() as u64 + 1;

    let mut report = Report::default();
    let ms = |v: &[f64]| {
        v.iter()
            .map(|x| (x / 1e4).round() / 1e2)
            .collect::<Vec<_>>()
    };
    report.note(format!("job wall ms: {:?}", ms(&walls)));
    report.note(format!("job rank cpu ms: {:?}", ms(&cpus)));
    report.add("setup_s", median(&setup_times), "s");
    report.add("edges_per_s", edges / (median(&walls) / 1e9), "1/s");
    report.add("cpu_ns_per_edge", median(&cpus) / edges, "ns");
    report.add("modeled_ns_per_edge", median(&modeled) / edges, "ns");
    report.add("job_ms.p50", median(&walls) / 1e6, "ms");
    report.add("job_ms.p90", percentile(&walls, 0.9) / 1e6, "ms");
    report.add("failed_ratio", wrong as f64 / attempted as f64, "ratio");
    report.add("job_calls", samples.len() as f64, "count");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    Outcome {
        report,
        attempted,
        failed: wrong,
        tracer,
    }
}
