//! Integration tests of the caching behaviour the paper's evaluation depends on:
//! caching eliminates repeated remote reads, larger caches miss less, degree scores
//! help under pressure, and the compulsory-miss floor grows with the rank count.

use rmatc::prelude::*;

fn skewed_graph() -> CsrGraph {
    RmatGenerator::paper(11, 16).generate_cleaned(21).into_csr()
}

/// Runs `cfg` on `g` and checks every cache statistic the run produced, per
/// rank and merged, against its conservation laws.
fn run_checked(cfg: DistConfig, g: &CsrGraph) -> DistResult {
    let result = DistLcc::new(cfg).run(g);
    let merged = [
        result.offsets_cache_totals(),
        result.adjacency_cache_totals(),
    ];
    let per_rank = result
        .ranks
        .iter()
        .flat_map(|r| [&r.offsets_cache, &r.adjacency_cache]);
    for stats in per_rank.flatten().chain(merged.iter().flatten()) {
        assert!(stats.reconciles(), "{stats:?}");
    }
    result
}

#[test]
fn caching_reduces_gets_and_communication_time() {
    let g = skewed_graph();
    let non_cached = run_checked(DistConfig::non_cached(4), &g);
    let cached = run_checked(
        DistConfig::cached(4, g.csr_size_bytes() as usize).with_degree_scores(),
        &g,
    );
    assert!(cached.total_gets() < non_cached.total_gets() / 2);
    assert!(cached.max_comm_time_ns() < non_cached.max_comm_time_ns());
    assert!(cached.cache_hits() > 0);
}

#[test]
fn miss_rate_decreases_monotonically_with_cache_size() {
    let g = skewed_graph();
    let adj_bytes = g.edge_count() as usize * 4;
    let mut previous_miss_rate = 1.0f64;
    for fraction in [0.05, 0.25, 1.0] {
        let mut cfg = DistConfig::non_cached(2);
        cfg.cache = Some(CacheSpec::adjacencies_only(
            (adj_bytes as f64 * fraction) as usize,
        ));
        let result = run_checked(cfg, &g);
        let miss = result.adjacency_cache_totals().unwrap().miss_rate();
        assert!(
            miss <= previous_miss_rate + 0.02,
            "miss rate should not grow with a larger cache ({miss} after {previous_miss_rate})"
        );
        previous_miss_rate = miss;
    }
    // A cache as large as the adjacency data reaches (close to) the compulsory floor.
    let mut cfg = DistConfig::non_cached(2);
    cfg.cache = Some(CacheSpec::adjacencies_only(adj_bytes));
    let result = run_checked(cfg, &g);
    let stats = result.adjacency_cache_totals().unwrap();
    assert!(stats.miss_rate() < stats.compulsory_miss_rate() + 0.05);
}

#[test]
fn degree_scores_do_not_hit_less_than_lru_under_pressure() {
    let g = skewed_graph();
    let adj_bytes = g.edge_count() as usize * 4;
    // 25% of the non-local partition, as in Figure 8: evictions are guaranteed.
    let capacity = adj_bytes / 4;
    let run = |mode| {
        let mut cfg = DistConfig::non_cached(4);
        cfg.cache = Some(CacheSpec::adjacencies_only(capacity));
        cfg.score_mode = mode;
        run_checked(cfg, &g)
    };
    let lru = run(ScoreMode::Lru);
    let degree = run(ScoreMode::DegreeCentrality);
    let lru_stats = lru.adjacency_cache_totals().unwrap();
    let degree_stats = degree.adjacency_cache_totals().unwrap();
    assert!(
        lru_stats.evictions() > 0,
        "the configuration must create cache pressure"
    );
    assert!(
        degree_stats.hit_rate() >= lru_stats.hit_rate() - 0.01,
        "degree scores should not lose to LRU on a skewed graph ({} vs {})",
        degree_stats.hit_rate(),
        lru_stats.hit_rate()
    );
}

#[test]
fn compulsory_miss_floor_grows_with_rank_count() {
    let g = skewed_graph();
    let budget = g.csr_size_bytes() as usize;
    let rate = |ranks| {
        let result = run_checked(DistConfig::cached(ranks, budget), &g);
        result
            .adjacency_cache_totals()
            .unwrap()
            .compulsory_miss_rate()
    };
    let at_2 = rate(2);
    let at_16 = rate(16);
    assert!(
        at_16 > at_2,
        "partitioning over more ranks must increase compulsory misses ({at_2} -> {at_16})"
    );
}

#[test]
fn offsets_cache_alone_already_saves_communication() {
    let g = skewed_graph();
    let baseline = run_checked(DistConfig::non_cached(2), &g);
    let mut cfg = DistConfig::non_cached(2);
    cfg.cache = Some(CacheSpec::offsets_only((g.vertex_count() + 2) * 16));
    let cached = run_checked(cfg, &g);
    assert!(cached.max_comm_time_ns() < baseline.max_comm_time_ns());
    assert!(cached.adjacency_cache_totals().is_none());
    assert!(cached.offsets_cache_totals().unwrap().hits > 0);
}

#[test]
fn double_buffering_never_increases_charged_communication() {
    let g = skewed_graph();
    // 8 rank threads oversubscribe a small host: a descheduled thread's
    // wall-clock laps must not turn into overlap beyond its measured CPU.
    for ranks in [4, 8] {
        let run = |db| {
            let mut cfg = DistConfig::non_cached(ranks);
            cfg.double_buffering = db;
            run_checked(cfg, &g)
        };
        let with = run(true);
        let without = run(false);
        let with_comm: f64 = with.ranks.iter().map(|r| r.timing.comm_ns).sum();
        let without_comm: f64 = without.ranks.iter().map(|r| r.timing.comm_ns).sum();
        assert!(with_comm <= without_comm + 1e-3, "ranks = {ranks}");
        let overlapped: f64 = with.ranks.iter().map(|r| r.timing.overlapped_ns).sum();
        assert!(overlapped > 0.0, "double buffering must hide some latency");
        for r in &with.ranks {
            // One thread per rank: overlapped_ns <= compute_ns.
            assert!(
                r.timing.overlap_within_compute(1),
                "ranks = {ranks}, rank {}: overlapped {} ns > compute {} ns",
                r.rank,
                r.timing.overlapped_ns,
                r.timing.compute_ns
            );
        }
    }
}

#[test]
fn double_buffering_reads_the_cpu_clock_once_per_vertex() {
    use rmatc::core::distributed::worker::run_worker;
    use rmatc::core::distributed::GraphWindows;
    use rmatc::rma::cputime::thread_cpu_clock_reads;

    let g = RmatGenerator::paper(9, 16).generate_cleaned(3).into_csr();
    let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, 2).unwrap();
    let sequential = DistConfig::non_cached(2);
    let windows = GraphWindows::build_with(&pg, sequential.storage);
    let owned = pg.partitions[0].local_vertex_count() as u64;
    assert!(sequential.double_buffering);
    // One intra-rank thread runs inline on this thread, so its clock reads
    // land in this thread's counter too.
    let overlapped = sequential.with_pipeline_depth(2).with_intra_threads(1);
    for (name, cfg) in [("sequential", sequential), ("overlapped", overlapped)] {
        let before = thread_cpu_clock_reads();
        let out = run_worker(0, &pg, &windows, &cfg).unwrap();
        let reads = thread_cpu_clock_reads() - before;
        assert!(out.remote_edges > owned, "{name}: too few remote edges");
        assert!(out.rma.overlapped_ns > 0.0, "{name}: no overlap credit");
        // Start, end, and at most one capped bank per owned vertex.
        assert!(
            reads <= owned + 2,
            "{name}: {reads} CPU-clock reads for {owned} owned vertices \
             and {} remote edges",
            out.remote_edges
        );
    }
}

#[test]
fn cache_statistics_are_internally_consistent() {
    let g = skewed_graph();
    let result = run_checked(DistConfig::cached(4, g.csr_size_bytes() as usize / 4), &g);
    for report in &result.ranks {
        for stats in [&report.offsets_cache, &report.adjacency_cache]
            .into_iter()
            .flatten()
        {
            assert_eq!(stats.lookups(), stats.hits + stats.misses);
            assert!(stats.compulsory_misses <= stats.misses);
            assert!(
                (stats.hit_rate() + stats.miss_rate() - 1.0).abs() < 1e-9 || stats.lookups() == 0
            );
        }
    }
}
