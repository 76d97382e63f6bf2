//! Metric definitions, the layer-to-end-to-end map, and the schema check.
//!
//! `BENCHMARK.json` lists the same names and units; a self-test keeps the
//! two in step.

use crate::json::Json;
use crate::workload::Workload;

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Workloads whose path runs through this metric's layer so that it
    /// cannot be 0: a zero there means nothing was measured (a placeholder)
    /// and the schema check rejects it.  On other workloads the layer is
    /// off the path, or the count may truly be 0 (sheds, refusals).
    pub nonzero_on: &'static [Workload],
    /// Which end-to-end metric a change in this one should move, and where.
    pub moves: &'static str,
}

use Workload::{QueryCold as COLD, QueryWarm as WARM, ServeTcp as TCP};
const ALL: &[Workload] = &[WARM, COLD, TCP];
const IN_PROCESS: &[Workload] = &[WARM, COLD];
const NONE: &[Workload] = &[];

const fn d(
    name: &'static str,
    unit: &'static str,
    nonzero_on: &'static [Workload],
    moves: &'static str,
) -> Def {
    Def {
        name,
        unit,
        nonzero_on,
        moves,
    }
}

/// The end-to-end metrics, reported by every untraced run.
pub const END_TO_END: [Def; 6] = [
    d("qps", "1/s", ALL, ""),
    d("latency_p50_ms", "ms", ALL, ""),
    d("latency_p90_ms", "ms", ALL, ""),
    d("success_rate", "ratio", ALL, ""),
    d("setup_s", "s", ALL, ""),
    d("peak_rss_mb", "MB", ALL, ""),
];

const SETUP: &str = "setup_s and peak_rss_mb on every workload; nothing else";
const COLD_PATH: &str =
    "qps and latency on query-cold; setup_s elsewhere; no change to query-warm qps";
const WARM_PATH: &str = "qps and latency on query-warm, then query-cold; no change on serve-tcp";
const WIRE_PATH: &str = "qps and latency on serve-tcp; no change on query-warm and query-cold";
const SERVER_PATH: &str = "latency_p90_ms and success_rate on serve-tcp";
const CHECK: &str = "nothing: the benchmark's own check, outside every latency sample";
const TRACE: &str = "nothing: traced half against untraced half of the same run";

/// The per-layer metrics, reported by every traced run.  Times are per
/// answered query unless the name says otherwise.
pub const PER_LAYER: [Def; 30] = [
    d("sequitur.compress_ms", "ms", ALL, SETUP),
    d("sequitur.dag_ms", "ms", ALL, SETUP),
    d(
        "sequitur.compressed_bytes_per_input_byte",
        "ratio",
        ALL,
        SETUP,
    ),
    d("engine.build_ms", "ms", ALL, COLD_PATH),
    d("engine.shared_init_us", "us", &[COLD], COLD_PATH),
    d("engine.analysis_fills", "count", &[COLD], COLD_PATH),
    d("engine.run_us", "us", ALL, WARM_PATH),
    d("engine.traversal_us", "us", IN_PROCESS, WARM_PATH),
    d("engine.finalize_us", "us", IN_PROCESS, WARM_PATH),
    d("engine.epochs_per_query", "count", IN_PROCESS, WARM_PATH),
    d("engine.table_ops_per_query", "count", IN_PROCESS, WARM_PATH),
    d(
        "engine.elements_scanned_per_query",
        "count",
        IN_PROCESS,
        WARM_PATH,
    ),
    d("engine.degraded", "count", NONE, WARM_PATH),
    d("results_cache.hit_ratio", "ratio", &[TCP], WIRE_PATH),
    d("results_cache.hit_us", "us", &[TCP], WIRE_PATH),
    d("protocol.encode_us", "us", &[TCP], WIRE_PATH),
    d("protocol.response_bytes", "bytes", &[TCP], WIRE_PATH),
    d("protocol.decode_us", "us", &[TCP], WIRE_PATH),
    d("client.roundtrip_us", "us", &[TCP], WIRE_PATH),
    d("server.residual_us", "us", NONE, WIRE_PATH),
    d("server.max_queue_depth", "count", &[TCP], SERVER_PATH),
    d("server.batched_ratio", "ratio", NONE, SERVER_PATH),
    d("server.shed", "count", NONE, SERVER_PATH),
    d("server.refused", "count", NONE, SERVER_PATH),
    d("server.protocol_errors", "count", NONE, SERVER_PATH),
    d("check.verify_us", "us", ALL, CHECK),
    d("check.verify_share", "ratio", ALL, CHECK),
    d("trace.qps_overhead", "ratio", NONE, TRACE),
    d("trace.p50_overhead", "ratio", NONE, TRACE),
    d("trace.p90_overhead", "ratio", NONE, TRACE),
];

/// A measured value.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

impl Metric {
    /// A measured value.
    pub const fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value }
    }
}

/// A value the benchmark cannot observe from outside the program, with the
/// reason.  Reported instead of a number, never as 0.
#[derive(Debug, Clone)]
pub struct Absent {
    /// What would have been measured.
    pub name: &'static str,
    /// Why it cannot be.
    pub reason: &'static str,
}

/// Checks `metrics` against `defs` for `workload`: every metric present
/// once with its unit and a finite value, nothing extra, no zero where the
/// workload's path runs through the metric's layer (a placeholder), and
/// every absent value carrying a reason.  Empty means valid.
pub fn schema_problems(
    defs: &[Def],
    metrics: &[Metric],
    absent: &[Absent],
    workload: Workload,
) -> Vec<String> {
    let mut problems = Vec::new();
    for d in defs {
        let found: Vec<&Metric> = metrics.iter().filter(|m| m.name == d.name).collect();
        match found.as_slice() {
            [] => problems.push(format!("{}: missing", d.name)),
            [m] => {
                if m.unit != d.unit {
                    problems.push(format!("{}: unit {} (expected {})", d.name, m.unit, d.unit));
                }
                if !m.value.is_finite() {
                    problems.push(format!("{}: non-finite value {}", d.name, m.value));
                } else if m.value == 0.0 && d.nonzero_on.contains(&workload) {
                    problems.push(format!(
                        "{}: reads 0 on {}, whose path runs through it (placeholder)",
                        d.name,
                        workload.name()
                    ));
                }
            }
            _ => problems.push(format!("{}: reported {} times", d.name, found.len())),
        }
    }
    for m in metrics {
        if !defs.iter().any(|d| d.name == m.name) {
            problems.push(format!("{}: not a defined metric", m.name));
        }
    }
    for a in absent {
        if a.reason.trim().is_empty() {
            problems.push(format!("{}: absent without a reason", a.name));
        }
        if metrics.iter().any(|m| m.name == a.name) {
            problems.push(format!("{}: both absent and measured", a.name));
        }
    }
    problems
}

/// The `metrics` object of the result line.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

/// The layer map, for the run report.
pub fn layer_map_json() -> Json {
    Json::obj(PER_LAYER.iter().map(|d| (d.name, Json::str(d.moves))))
}
