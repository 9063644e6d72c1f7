//! The resident query service driven by an open loop.
//!
//! A generator thread releases seeded Poisson arrivals on schedule whatever
//! the engine is doing; the engine thread admits what has arrived
//! (`QueryEngine::submit`) and runs batch windows (`QueryEngine::run_batch`)
//! while anything is queued. Each query is timed from its *due* time, so a
//! stall delays every query behind it in the measurement too. A shed query
//! counts as failed and as missing the latency limit. Every answer is compared
//! with one computed from the CSR before timing starts.

use crate::batch::{similarity, SETUP_REPS};
use crate::measure::{max, median, ns_since, peak_rss_mb, percentile, Report, SplitMix};
use crate::trace::Tracer;
use crate::workload::Workload;
use crate::Outcome;
use rmatc_core::jaccard::{top_k_edges, EdgeSimilarity};
use rmatc_core::{DistConfig, Query, QueryAnswer, QueryEngine, ServiceConfig, ServiceError};
use rmatc_graph::reference::{lcc_from_triangles, sorted_intersection_count};
use rmatc_graph::CsrGraph;
use rmatc_rma::ThreadTimer;
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Queries drained into one batch window.
pub const BATCH: usize = 64;
/// Admission-queue bound: 16 batch windows.
pub const QUEUE_CAPACITY: usize = 16 * BATCH;
/// The three fixed arrival rates, in queries per second, with the share of
/// the run each gets. The end-to-end latencies come from `mid`, which gets
/// most of the run so its p99 rests on enough samples.
pub const RATES: [(&str, f64, f64); 3] = [
    ("low", 100.0, 0.15),
    ("mid", 250.0, 0.7),
    ("high", 500.0, 0.15),
];
/// The p99 latency limit `max_qps` is judged against.
pub const P99_LIMIT_MS: f64 = 250.0;
/// Queries run closed-loop in full batches before timing, to warm the caches.
const WARMUP_QUERIES: usize = 1_000;

/// The hub-heavy mix of `crates/bench/benches/service.rs`, seeded: 40%
/// Jaccard and 20% common-neighbour queries on degree-weighted edges
/// (power-of-two choices on the source row), 20% top-k around such sources,
/// 20% LCC of uniform vertices.
pub fn hub_mix(g: &CsrGraph, rng: &mut SplitMix, count: usize) -> Vec<Query> {
    let adj = g.adjacencies();
    let offsets = g.offsets();
    let source = |pos: u64| (offsets.partition_point(|&o| o <= pos) - 1) as u32;
    let hub_edge = |rng: &mut SplitMix| {
        let pa = rng.below(adj.len() as u64);
        let pb = rng.below(adj.len() as u64);
        let (ua, ub) = (source(pa), source(pb));
        if g.degree(ua) >= g.degree(ub) {
            (ua, adj[pa as usize])
        } else {
            (ub, adj[pb as usize])
        }
    };
    (0..count)
        .map(|_| match rng.below(10) {
            0..=3 => {
                let (u, v) = hub_edge(rng);
                Query::Jaccard { u, v }
            }
            4 | 5 => {
                let (u, v) = hub_edge(rng);
                Query::CommonNeighbors { u, v }
            }
            6 | 7 => {
                let (u, _) = hub_edge(rng);
                Query::TopK {
                    u,
                    k: rng.below(8) as usize,
                }
            }
            _ => Query::LccOf {
                v: rng.below(g.vertex_count() as u64) as u32,
            },
        })
        .collect()
}

/// Row intersections a query performs — the service's unit of work, the
/// same unit as one directed edge of a batch job: one for a pair query, one
/// per neighbour of the home vertex for top-k and LCC.
pub fn work_edges(g: &CsrGraph, q: &Query) -> u64 {
    match *q {
        Query::Jaccard { .. } | Query::CommonNeighbors { .. } => 1,
        Query::TopK { u, .. } => g.degree(u) as u64,
        Query::LccOf { v } => g.degree(v) as u64,
    }
}

/// The answer of every query, computed sequentially on the CSR.
pub fn expected_answers(g: &CsrGraph, queries: &[Query]) -> Vec<QueryAnswer> {
    let record = |u: u32, v: u32| {
        let (common, jaccard) = similarity(g.neighbours(u), g.neighbours(v));
        EdgeSimilarity {
            source: u,
            destination: v,
            common_neighbours: common,
            jaccard,
        }
    };
    let mut ranked: HashMap<u32, Vec<EdgeSimilarity>> = HashMap::new();
    let mut lcc: HashMap<u32, f64> = HashMap::new();
    queries
        .iter()
        .map(|q| match *q {
            Query::CommonNeighbors { u, v } => {
                QueryAnswer::CommonNeighbors(record(u, v).common_neighbours)
            }
            Query::Jaccard { u, v } => QueryAnswer::Jaccard(record(u, v)),
            Query::TopK { u, k } => {
                let all = ranked.entry(u).or_insert_with(|| {
                    let edges: Vec<_> = g.neighbours(u).iter().map(|&v| record(u, v)).collect();
                    top_k_edges(&edges, edges.len())
                });
                QueryAnswer::TopK(all[..k.min(all.len())].to_vec())
            }
            Query::LccOf { v } => QueryAnswer::Lcc(*lcc.entry(v).or_insert_with(|| {
                lcc_from_triangles(g.direction(), g.degree(v), triangles_at(g, v))
            })),
        })
        .collect()
}

/// Closed triplets at `v` of an undirected graph, as
/// `rmatc_graph::reference::per_vertex_triangles` counts them.
fn triangles_at(g: &CsrGraph, v: u32) -> u64 {
    let a = g.neighbours(v);
    a.iter()
        .map(|&w| {
            let b = g.neighbours(w);
            let from_a = a.partition_point(|&x| x <= w);
            let from_b = b.partition_point(|&x| x <= w);
            sorted_intersection_count(&a[from_a..], &b[from_b..])
        })
        .sum()
}

fn answer_matches(got: &QueryAnswer, want: &QueryAnswer) -> bool {
    match (got, want) {
        // Scores are integer-ratio arithmetic in one order on both sides;
        // allow only float noise for the LCC normalisation.
        (QueryAnswer::Lcc(a), QueryAnswer::Lcc(b)) => (a - b).abs() <= 1e-12,
        _ => got == want,
    }
}

/// The queries of one open-loop phase with their due offsets from the
/// phase start.
pub struct Schedule {
    pub due: Vec<Duration>,
    pub queries: Vec<Query>,
    pub expected: Vec<QueryAnswer>,
}

impl Schedule {
    /// Seeded Poisson arrivals at `rate` per second for `length`.
    pub fn new(g: &CsrGraph, rng: &mut SplitMix, rate: f64, length: Duration) -> Self {
        let mut due = Vec::new();
        let mut t = 0.0;
        loop {
            t += -rng.unit().ln() / rate;
            if t >= length.as_secs_f64() {
                break;
            }
            due.push(Duration::from_secs_f64(t));
        }
        let queries = hub_mix(g, rng, due.len());
        let expected = expected_answers(g, &queries);
        Self {
            due,
            queries,
            expected,
        }
    }
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub attempted: u64,
    pub wrong: u64,
    pub shed: u64,
    pub expired: u64,
    pub read_errors: u64,
    /// Wall latency from due time of each answered query, ms.
    pub latency_ms: Vec<f64>,
    /// Virtual (modeled) latency of each answered query, ms.
    pub virtual_ms: Vec<f64>,
    pub submit_ns: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub batch_ms: Vec<f64>,
    pub batch_sizes: Vec<f64>,
    pub edges: u64,
    pub busy_ns: f64,
    pub busy_cpu_ns: f64,
    /// Advance of the engine's virtual clock over the phase.
    pub virtual_ns: f64,
    pub late_ms_max: f64,
    /// Queue depth when the last arrival was admitted.
    pub final_backlog: usize,
}

impl Phase {
    pub fn failed(&self) -> u64 {
        self.wrong + self.shed + self.expired + self.read_errors
    }

    /// p99 that counts every failed query as missing any limit (its latency
    /// is taken as `f64::MAX`).
    pub fn p99_ms(&self) -> f64 {
        let mut all = self.latency_ms.clone();
        all.extend(std::iter::repeat_n(f64::MAX, self.failed() as usize));
        percentile(&all, 0.99)
    }

    pub fn backlog_grew(&self) -> bool {
        self.final_backlog > 2 * BATCH
    }
}

/// Runs `schedule` open-loop against `engine`.
pub fn run_phase(
    g: &CsrGraph,
    engine: &mut QueryEngine,
    schedule: &Schedule,
    tracer: &mut Tracer,
) -> Phase {
    let (tx, rx) = mpsc::channel::<usize>();
    let origin = Instant::now();
    let due = &schedule.due;
    std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut late_max = Duration::ZERO;
            for (i, &d) in due.iter().enumerate() {
                // Spin to the due time: a sleep would add the host's timer
                // slack to every arrival.
                let at = origin + d;
                while Instant::now() < at {
                    std::hint::spin_loop();
                }
                late_max = late_max.max(Instant::now().saturating_duration_since(at));
                tx.send(i)
                    .expect("the engine thread outlives the generator");
            }
            late_max
        });
        let mut phase = serve(g, engine, schedule, origin, &rx, tracer);
        let late = generator
            .join()
            .expect("the generator thread does not panic");
        phase.late_ms_max = late.as_secs_f64() * 1e3;
        phase
    })
}

fn serve(
    g: &CsrGraph,
    engine: &mut QueryEngine,
    schedule: &Schedule,
    origin: Instant,
    rx: &mpsc::Receiver<usize>,
    tracer: &mut Tracer,
) -> Phase {
    let mut phase = Phase::default();
    let virtual_start = engine.virtual_now_ns();
    let mut admitted: HashMap<u64, (usize, Instant)> = HashMap::new();
    let total = schedule.due.len();
    let mut arrived = 0usize;
    while arrived < total || engine.queue_depth() > 0 {
        // Admit everything that has arrived. When idle, spin rather than
        // block, so the wake-up latency of the host does not enter the
        // measured latencies.
        let mut next = rx.try_recv().ok();
        while next.is_none() && engine.queue_depth() == 0 && arrived < total {
            std::hint::spin_loop();
            next = match rx.try_recv() {
                Ok(i) => Some(i),
                Err(mpsc::TryRecvError::Empty) => None,
                Err(mpsc::TryRecvError::Disconnected) => {
                    panic!("the generator sends every arrival")
                }
            };
        }
        while let Some(i) = next {
            arrived += 1;
            phase.attempted += 1;
            let span = tracer.begin("service.submit", i as u64);
            let start = Instant::now();
            let result = engine.submit(schedule.queries[i]);
            phase.submit_ns.push(ns_since(start));
            tracer.end(span);
            match result {
                Ok(id) => {
                    admitted.insert(id.0, (i, start));
                }
                Err(ServiceError::Overloaded { .. }) => phase.shed += 1,
                Err(_) => phase.wrong += 1,
            }
            if arrived == total {
                phase.final_backlog = engine.queue_depth();
            }
            next = rx.try_recv().ok();
        }
        if engine.queue_depth() == 0 {
            continue;
        }
        let span = tracer.begin("service.run_batch", phase.batch_ms.len() as u64);
        let batch_start = Instant::now();
        let cpu = ThreadTimer::start();
        let responses = engine.run_batch();
        let busy_cpu = cpu.elapsed_ns() as f64;
        let done = Instant::now();
        tracer.end(span);
        let busy = (done - batch_start).as_nanos() as f64;
        phase.busy_ns += busy;
        phase.busy_cpu_ns += busy_cpu;
        phase.batch_ms.push(busy / 1e6);
        phase.batch_sizes.push(responses.len() as f64);
        for r in responses {
            let (i, submitted) = admitted
                .remove(&r.id.0)
                .expect("every response answers an admitted query");
            phase
                .queue_wait_ms
                .push((batch_start - submitted).as_secs_f64() * 1e3);
            match &r.result {
                Ok(answer) if answer_matches(answer, &schedule.expected[i]) => {
                    let due_at = origin + schedule.due[i];
                    phase
                        .latency_ms
                        .push(done.saturating_duration_since(due_at).as_secs_f64() * 1e3);
                    phase.virtual_ms.push(r.virtual_ns / 1e6);
                    phase.edges += work_edges(g, &r.query);
                }
                Ok(_) => phase.wrong += 1,
                Err(ServiceError::DeadlineExceeded { .. }) => phase.expired += 1,
                Err(ServiceError::Read(_)) => phase.read_errors += 1,
                Err(_) => phase.wrong += 1,
            }
        }
    }
    phase.virtual_ns = engine.virtual_now_ns() - virtual_start;
    phase
}

/// The service configuration every engine of the benchmark runs.
pub fn service_config(dist: DistConfig) -> ServiceConfig {
    ServiceConfig::new(dist)
        .with_batch_size(BATCH)
        .with_queue_capacity(QUEUE_CAPACITY)
}

/// Builds the engine `reps` times; returns the last one and each build time
/// in seconds.
pub fn build_engine(
    g: &CsrGraph,
    dist: DistConfig,
    reps: usize,
    tracer: &mut Tracer,
) -> (QueryEngine, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut engine = None;
    for rep in 0..reps {
        // One resident engine at a time.
        drop(engine.take());
        let span = tracer.begin("service.new", rep as u64);
        let start = Instant::now();
        engine = Some(QueryEngine::new(g, service_config(dist)));
        times.push(ns_since(start) / 1e9);
        tracer.end(span);
    }
    (engine.expect("at least one repetition"), times)
}

/// Runs the warm-up queries closed-loop in full batch windows and checks
/// their answers. Returns `(attempted, failed)`.
pub fn warm_up(g: &CsrGraph, engine: &mut QueryEngine, rng: &mut SplitMix) -> (u64, u64) {
    let queries = hub_mix(g, rng, WARMUP_QUERIES);
    let expected = expected_answers(g, &queries);
    let mut failed = 0;
    for (chunk, want) in queries.chunks(BATCH).zip(expected.chunks(BATCH)) {
        for &q in chunk {
            engine.submit(q).expect("a warm-up chunk fits the queue");
        }
        let responses = engine.drain();
        failed += responses
            .iter()
            .zip(want)
            .filter(|(r, w)| !matches!(&r.result, Ok(a) if answer_matches(a, w)))
            .count() as u64;
    }
    (queries.len() as u64, failed)
}

/// The untraced service run: build, warm up, then the three rates for
/// their share of `seconds`.
pub fn run_untraced(g: &CsrGraph, seed: u64, seconds: u64) -> Outcome {
    let dist = Workload::ServiceHubOpen.dist_config(g);
    let mut rng = SplitMix::new(seed ^ 0x5e4u64);
    let schedules: Vec<Schedule> = RATES
        .iter()
        .map(|&(_, rate, share)| {
            let length = Duration::from_secs_f64(seconds as f64 * share);
            Schedule::new(g, &mut rng, rate, length)
        })
        .collect();
    let mut tracer = Tracer::new(false);
    let (mut engine, setup_times) = build_engine(g, dist, SETUP_REPS, &mut tracer);
    let (mut attempted, mut failed) = warm_up(g, &mut engine, &mut rng);
    let phases: Vec<Phase> = schedules
        .iter()
        .map(|s| run_phase(g, &mut engine, s, &mut tracer))
        .collect();
    let stats = engine.stats();
    assert!(
        stats.reconciles(),
        "service admission accounting must reconcile"
    );

    let mut report = Report::default();
    report.add("setup_s", median(&setup_times), "s");
    let edges: u64 = phases.iter().map(|p| p.edges).sum();
    let busy: f64 = phases.iter().map(|p| p.busy_ns).sum();
    let busy_cpu: f64 = phases.iter().map(|p| p.busy_cpu_ns).sum();
    report.add("edges_per_s", edges as f64 / (busy / 1e9), "1/s");
    report.add("cpu_ns_per_edge", busy_cpu / edges as f64, "ns");
    // Modeled (virtual-clock) service time per unit of work.
    let virtual_ns: f64 = phases.iter().map(|p| p.virtual_ns).sum();
    report.add("modeled_ns_per_edge", virtual_ns / edges as f64, "ns");
    let mid = &phases[1];
    for ((name, _, _), p) in RATES.iter().zip(&phases) {
        report.add(format!("query_p50_ms.{name}"), median(&p.latency_ms), "ms");
        report.add(format!("query_p99_ms.{name}"), p.p99_ms(), "ms");
        report.add(format!("queries.{name}"), p.attempted as f64, "count");
    }
    report.add(
        "query_virtual_p99_ms.mid",
        percentile(&mid.virtual_ms, 0.99),
        "ms",
    );
    let max_qps = RATES
        .iter()
        .zip(&phases)
        .filter(|(_, p)| p.p99_ms() <= P99_LIMIT_MS && !p.backlog_grew())
        .map(|((_, rate, _), _)| *rate)
        .fold(0.0, f64::max);
    report.add("max_qps", max_qps, "1/s");
    report.add(
        "gen.late_ms.max",
        max(&phases.iter().map(|p| p.late_ms_max).collect::<Vec<_>>()),
        "ms",
    );
    for p in &phases {
        attempted += p.attempted;
        failed += p.failed();
    }
    report.add("failed_ratio", failed as f64 / attempted as f64, "ratio");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    Outcome {
        report,
        attempted,
        failed,
        tracer,
    }
}

/// Adds the `service.*` layer metrics of a traced phase.
pub fn report_layer(report: &mut Report, engine: &QueryEngine, phase: &Phase) {
    let stats = engine.stats();
    report.add("service.submit_ns.p50", median(&phase.submit_ns), "ns");
    report.add(
        "service.queue_wait_ms.p50",
        median(&phase.queue_wait_ms),
        "ms",
    );
    report.add(
        "service.queue_wait_ms.p99",
        percentile(&phase.queue_wait_ms, 0.99),
        "ms",
    );
    report.add("service.batch_ms.p50", median(&phase.batch_ms), "ms");
    report.add(
        "service.batch_ms.p99",
        percentile(&phase.batch_ms, 0.99),
        "ms",
    );
    let sizes = &phase.batch_sizes;
    report.add(
        "service.batch_size.mean",
        sizes.iter().sum::<f64>() / sizes.len() as f64,
        "count",
    );
    report.add("service.dedup_ratio", stats.dedup_ratio(), "ratio");
    report.add(
        "service.adj_hit_rate",
        stats.cache_hit_rate().unwrap_or(0.0),
        "ratio",
    );
    report.add("service.shed", stats.shed_overload as f64, "count");
    report.add("service.deadline_expired", phase.expired as f64, "count");
    report.add("gen.late_ms.max", phase.late_ms_max, "ms");
}
