//! The traced run: per-layer metrics for any workload, plus the tracing
//! overhead. Every layer is measured on every workload, over that workload's
//! graph, storage and cache configuration, so each per-layer metric exists
//! everywhere; README.md says which end-to-end metric each should move.
//!
//! Order matters for exact counts: the first job call is the first thing in
//! the process to create RMA windows after partitioning, and the cache replay
//! keys its entries with that call's window ids.

use crate::batch::{self, Expected};
use crate::measure::{median, ns_since, Report, SplitMix};
use crate::replay;
use crate::service::{self, Schedule, RATES};
use crate::trace::Tracer;
use crate::workload::Workload;
use crate::Outcome;
use rmatc_core::distributed::GraphWindows;
use rmatc_graph::CsrGraph;
use std::time::{Duration, Instant};

/// Repetitions of the window build; its median is `graph.windows_build_s`.
const WINDOW_REPS: usize = 3;
/// Length of the service-layer probe on the batch workloads.
const SERVICE_PROBE: Duration = Duration::from_secs(2);

pub fn run_traced(w: Workload, g: &CsrGraph, seed: u64, seconds: u64) -> Outcome {
    let mut tracer = Tracer::new(true);
    let mut report = Report::default();
    let config = w.dist_config(g);
    let visitor = w.visitor();
    let edges = g.edge_count() as f64;

    let span = tracer.begin("reference", 0);
    let expected = Expected::compute(visitor, g);
    tracer.end(span);

    // graph: partition (the batch workloads' set-up step) and window build.
    let (pg, times) = batch::partition(g, &config, batch::SETUP_REPS, &mut tracer);
    report.add("graph.partition_s", median(&times), "s");

    // distributed: one job call, the first to create windows.
    let ids = replay::next_window_ids();
    let job = batch::call(visitor, config, &pg, &expected, &mut tracer, 0);
    let mut attempted = 1;
    let mut failed = u64::from(!job.correct);

    let mut times = Vec::with_capacity(WINDOW_REPS);
    let mut windows = None;
    for rep in 0..WINDOW_REPS {
        let span = tracer.begin("graph.windows_build", rep as u64);
        let start = Instant::now();
        windows = Some(GraphWindows::build_with(&pg, config.storage));
        times.push(ns_since(start) / 1e9);
        tracer.end(span);
    }
    let windows = windows.expect("at least one repetition");
    report.add("graph.windows_build_s", median(&times), "s");
    report.add(
        "graph.compression_ratio",
        windows.compression_ratio(),
        "ratio",
    );

    // intersect: the kernel alone, sequential LocalLcc.
    let intersect_ns = replay::intersect_ns_per_edge(g, config.storage, &mut tracer);
    report.add("intersect.ns_per_edge", intersect_ns, "ns");

    // clampi: the edge stream through the resolved caches.
    let stream = replay::edge_stream(&pg);
    let cache = replay::replay_cache(
        &pg,
        &windows,
        &w.replay_config(g),
        ids,
        &stream,
        &mut tracer,
    );
    let adj = &cache.adjacency;
    report.add("clampi.adj.lookups", adj.lookups() as f64, "count");
    report.add("clampi.adj.hit_rate", adj.hit_rate(), "ratio");
    report.add("clampi.adj.evictions", adj.evictions() as f64, "count");
    report.add(
        "clampi.adj.admission_rejections",
        adj.admission_rejections as f64,
        "count",
    );
    report.add("clampi.offsets.hit_rate", cache.offsets.hit_rate(), "ratio");
    report.add(
        "clampi.probe_ns",
        cache.lookup_ns / cache.lookups as f64,
        "ns",
    );
    report.add(
        "clampi.insert_ns",
        cache.insert_ns / cache.inserts as f64,
        "ns",
    );
    cross_check_cache(&mut report, w, &cache, &job);

    // rma: the gets the pipeline issues, replayed without a cache.
    let gets = if w.cached() {
        cache.gets
    } else {
        replay::uncached_gets(&windows, &stream)
    };
    let rma = replay::replay_rma(&windows, config.network, &gets, &mut tracer);
    report.add("rma.gets", rma.gets as f64, "count");
    report.add("rma.bytes", rma.bytes as f64, "B");
    report.add("rma.modeled_comm_s", rma.comm_ns_max / 1e9, "s");
    report.add(
        "rma.transfer_ns_per_kib",
        rma.wall_ns / (rma.bytes as f64 / 1024.0),
        "ns",
    );
    report.note(format!(
        "check rma replay vs pipeline: gets {} vs {} (diff {}), bytes {} vs {} (diff {})",
        rma.gets,
        job.gets,
        rma.gets as i64 - job.gets as i64,
        rma.bytes,
        job.bytes,
        rma.bytes as i64 - job.bytes as i64
    ));
    if !w.cached() && (rma.gets != job.gets || rma.bytes != job.bytes) {
        // Without a cache the replay must issue exactly the pipeline's gets.
        report.note("FAILED: the uncached replay does not reproduce the pipeline's gets/bytes");
        failed += 1;
    }

    // distributed, from the job call's own result.
    report.add("dist.compute_s.max", job.compute_ns_max / 1e9, "s");
    report.add("dist.comm_s.max", job.comm_ns_max / 1e9, "s");
    report.add("dist.overlap_share", job.overlap_share, "ratio");
    report.add("dist.imbalance", job.imbalance, "ratio");
    report.add(
        "dist.remote_edge_fraction",
        pg.remote_edge_fraction(),
        "ratio",
    );
    report.add("dist.gets", job.gets as f64, "count");
    let cache_ns = if w.cached() {
        (cache.lookup_ns + cache.insert_ns) / edges
    } else {
        0.0
    };
    report.add(
        "dist.residual_ns_per_edge",
        job.cpu_ns / edges - intersect_ns - cache_ns - rma.wall_ns / edges,
        "ns",
    );

    // service, and the tracing overhead measured on the workload's own
    // operation.
    let mut rng = SplitMix::new(seed ^ 0x5e4u64);
    let (mut engine, _) = service::build_engine(g, config, 1, &mut tracer);
    let (a, f) = service::warm_up(g, &mut engine, &mut rng);
    attempted += a;
    failed += f;
    let half = Duration::from_secs_f64(seconds as f64 / 2.0);
    let mut phase_at_mid = |length, traced, tracer: &mut Tracer| {
        let schedule = Schedule::new(g, &mut rng, RATES[1].1, length);
        tracer.set_enabled(traced);
        let phase = service::run_phase(g, &mut engine, &schedule, tracer);
        tracer.set_enabled(true);
        attempted += phase.attempted;
        failed += phase.failed();
        phase
    };
    let overhead_pct = if w == Workload::ServiceHubOpen {
        let plain = phase_at_mid(half, false, &mut tracer);
        let phase = phase_at_mid(half, true, &mut tracer);
        service::report_layer(&mut report, &engine, &phase);
        let rate = |p: &service::Phase| p.edges as f64 / p.busy_ns;
        (rate(&plain) / rate(&phase) - 1.0) * 100.0
    } else {
        let phase = phase_at_mid(SERVICE_PROBE, true, &mut tracer);
        service::report_layer(&mut report, &engine, &phase);
        drop(engine);

        tracer.set_enabled(false);
        let plain = batch::timed_loop(visitor, config, &pg, &expected, half, &mut tracer, 1);
        tracer.set_enabled(true);
        let traced = batch::timed_loop(visitor, config, &pg, &expected, half, &mut tracer, 1000);
        for s in plain.iter().chain(&traced) {
            attempted += 1;
            failed += u64::from(!s.correct);
        }
        let wall =
            |v: &[batch::JobSample]| median(&v.iter().map(|s| s.wall_ns).collect::<Vec<_>>());
        (wall(&traced) / wall(&plain) - 1.0) * 100.0
    };
    report.add("trace.overhead_pct", overhead_pct, "%");

    for (name, (count, total, own)) in tracer.summary() {
        report.note(format!(
            "span {name}: {count} calls, {:.3} ms total, {:.3} ms self",
            total / 1e6,
            own / 1e6
        ));
    }
    Outcome {
        report,
        attempted,
        failed,
        tracer,
    }
}

/// Prints the cache replay's counts next to the pipeline's. `DistLcc`
/// reports its `CacheStats`; `DistJaccard` reports only gets, which the
/// replay predicts as its misses.
fn cross_check_cache(
    report: &mut Report,
    w: Workload,
    cache: &replay::CacheReplay,
    job: &batch::JobSample,
) {
    if !w.cached() {
        report.note("check clampi: the pipeline runs uncached; replayed with its cached sibling's configuration");
        return;
    }
    let pairs = [
        ("adj", &cache.adjacency, &job.adjacency_cache),
        ("offsets", &cache.offsets, &job.offsets_cache),
    ];
    for (name, replayed, pipeline) in pairs {
        match pipeline {
            Some(p) => report.note(format!(
                "check clampi.{name} replay vs pipeline: hits {} vs {} (diff {}), misses {} vs {} (diff {})",
                replayed.hits,
                p.hits,
                replayed.hits as i64 - p.hits as i64,
                replayed.misses,
                p.misses,
                replayed.misses as i64 - p.misses as i64
            )),
            None => report.note(format!(
                "check clampi.{name} replay: hits {}, misses {} (the pipeline reports gets only; see the rma check)",
                replayed.hits, replayed.misses
            )),
        }
    }
}
