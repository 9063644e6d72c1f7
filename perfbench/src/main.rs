//! One benchmark run: `perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`.
//!
//! Prints every metric of the run as `metric <name> = <value> <unit>`, the
//! cross-checks as `note ...` lines, and as its last line one JSON object with
//! the run's verdict and the contract metrics: the end-to-end ones untraced,
//! the per-layer ones traced. Exits non-zero when any output was wrong.
//! `perfbench/run.py` builds this binary and is the command to use.

mod batch;
mod layers;
mod measure;
mod replay;
mod service;
mod trace;
mod workload;

use measure::Report;
use serde::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;
use workload::Workload;

/// The end-to-end metrics every untraced run reports (see README.md for what
/// each means on each workload, and for the latencies printed beside them).
const END_TO_END: [&str; 5] = [
    "setup_s",
    "edges_per_s",
    "cpu_ns_per_edge",
    "modeled_ns_per_edge",
    "peak_rss_mb",
];

/// The per-layer metrics every traced run reports.
const PER_LAYER: [&str; 34] = [
    "graph.partition_s",
    "graph.windows_build_s",
    "graph.compression_ratio",
    "intersect.ns_per_edge",
    "clampi.adj.lookups",
    "clampi.adj.hit_rate",
    "clampi.adj.evictions",
    "clampi.adj.admission_rejections",
    "clampi.offsets.hit_rate",
    "clampi.probe_ns",
    "clampi.insert_ns",
    "rma.gets",
    "rma.bytes",
    "rma.modeled_comm_s",
    "rma.transfer_ns_per_kib",
    "dist.compute_s.max",
    "dist.comm_s.max",
    "dist.overlap_share",
    "dist.imbalance",
    "dist.remote_edge_fraction",
    "dist.gets",
    "dist.residual_ns_per_edge",
    "service.submit_ns.p50",
    "service.queue_wait_ms.p50",
    "service.queue_wait_ms.p99",
    "service.batch_ms.p50",
    "service.batch_ms.p99",
    "service.batch_size.mean",
    "service.dedup_ratio",
    "service.adj_hit_rate",
    "service.shed",
    "service.deadline_expired",
    "gen.late_ms.max",
    "trace.overhead_pct",
];

/// Threads a run keeps busy: two rank threads, or the engine thread and the
/// open-loop generator.
const THREADS_USED: usize = 2;

/// What a workload run returns.
pub struct Outcome {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    pub tracer: Tracer,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host cpus {cpus}, threads used {THREADS_USED}");
    if cpus < THREADS_USED {
        // Rank threads would share a core and every wall-clock number would
        // measure the scheduler: report nothing rather than that.
        eprintln!("perfbench: {cpus} cores < {THREADS_USED} threads used; wall-clock metrics are not reported");
        return ExitCode::from(3);
    }

    let g = workload::input_graph(args.seed);
    println!(
        "input R-MAT scale {} edge factor {} seed {}: {} vertices, {} directed edges",
        workload::SCALE,
        workload::EDGE_FACTOR,
        args.seed,
        g.vertex_count(),
        g.edge_count()
    );
    let w = args.workload;
    let outcome = match (args.trace, w) {
        (false, Workload::ServiceHubOpen) => service::run_untraced(&g, args.seed, args.seconds),
        (false, _) => batch::run_untraced(w, &g, args.seconds),
        (true, _) => layers::run_traced(w, &g, args.seed, args.seconds),
    };
    let names: &[&str] = if args.trace {
        let path = PathBuf::from(format!(
            "perfbench/out/trace-{}-{}.json",
            w.name(),
            args.seed
        ));
        if let Err(e) = outcome.tracer.write_chrome(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(4);
        }
        println!("trace written to {}", path.display());
        &PER_LAYER
    } else {
        &END_TO_END
    };

    let report = &outcome.report;
    for note in &report.notes {
        println!("note {note}");
    }
    for m in &report.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    let metrics = names
        .iter()
        .map(|&name| {
            let m = report
                .get(name)
                .unwrap_or_else(|| panic!("{} did not measure {name}", w.name()));
            (
                name.to_string(),
                Value::object([
                    ("value", Value::Number(m.value)),
                    ("unit", Value::String(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    let verdict = Value::object([
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", Value::Number(outcome.attempted as f64)),
        ("failed", Value::Number(outcome.failed as f64)),
        ("metrics", Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde::json::to_string(&verdict).expect("every metric is finite")
    );
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} operations failed",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}
