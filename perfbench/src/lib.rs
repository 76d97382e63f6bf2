//! End-to-end and per-layer benchmark of the compressed-analytics engine.
//!
//! One command runs one workload for a fixed time and prints, as its last
//! line, `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics of an untraced run, or the per-layer metrics of a traced one.
//! See `README.md` in this directory for the workloads and the layer map.

#![forbid(unsafe_code)]

pub mod dataset;
pub mod json;
pub mod metrics;
pub mod mix;
pub mod stats;
pub mod trace;
pub mod workload;

use json::Json;
use metrics::{schema_problems, Def, END_TO_END, PER_LAYER};
use workload::{RunReport, ENGINE_THREADS, SETUP_REPS};

/// The metric definitions a run must report.
pub fn expected(trace: bool) -> &'static [Def] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Schema problems of a finished run.
pub fn validate(r: &RunReport) -> Vec<String> {
    schema_problems(expected(r.cfg.trace), &r.metrics, &r.absent, r.cfg.workload)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(r: &RunReport, correct: bool) -> Json {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(r.attempted.max(1))),
        ("failed", Json::Int(r.failed)),
        ("metrics", metrics::metrics_json(&r.metrics)),
    ])
}

/// The full run report: provenance, metrics, gate and schema results.
pub fn report_json(r: &RunReport, schema: &[String]) -> Json {
    let strs = |v: &[String]| Json::Arr(v.iter().map(|s| Json::str(s.as_str())).collect());
    let parallelism = match std::thread::available_parallelism() {
        Ok(n) => Json::Int(n.get() as u64),
        Err(e) => Json::str(format!("unavailable: {e}")),
    };
    let w = r.cfg.workload;
    Json::obj([
        ("workload", Json::str(w.name())),
        ("why", Json::str(w.why())),
        ("seed", Json::Int(r.cfg.seed)),
        ("scale", Json::Num(dataset::SCALE)),
        ("seconds", Json::Num(r.cfg.seconds)),
        ("trace", Json::Bool(r.cfg.trace)),
        (
            "dataset",
            Json::obj([
                ("preset", Json::str(r.shape.dataset)),
                ("files", Json::Int(r.shape.files as u64)),
                ("tokens", Json::Int(r.shape.tokens as u64)),
                (
                    "compressed_bytes",
                    Json::Int(r.shape.compressed_bytes as u64),
                ),
                ("input_bytes", Json::Int(r.shape.input_bytes)),
                ("rules", Json::Int(r.shape.rules as u64)),
                (
                    "corpus_digest",
                    Json::str(format!("{:016x}", r.shape.corpus_digest)),
                ),
            ]),
        ),
        ("available_parallelism", parallelism),
        ("engine_threads", Json::Int(ENGINE_THREADS as u64)),
        ("clients", Json::Int(w.clients() as u64)),
        (
            "loop",
            Json::str("closed: each caller waits for its reply before the next request"),
        ),
        (
            "mix",
            Json::Arr(
                mix::MIX
                    .iter()
                    .enumerate()
                    .map(|(k, m)| {
                        Json::obj([
                            ("key", Json::str(mix::label(k))),
                            ("weight", Json::Int(u64::from(m.2))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "setup_reps_s",
            Json::Arr(r.setup_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("setup_reps", Json::Int(SETUP_REPS as u64)),
        (
            "latency_samples",
            Json::obj([
                ("count", Json::Int(r.samples.0 as u64)),
                ("beyond_p50", Json::Int(r.samples.1 as u64)),
                ("beyond_p90", Json::Int(r.samples.2 as u64)),
            ]),
        ),
        ("attempted", Json::Int(r.attempted)),
        ("failed", Json::Int(r.failed)),
        ("metrics", metrics::metrics_json(&r.metrics)),
        (
            "absent",
            Json::obj(r.absent.iter().map(|a| (a.name, Json::str(a.reason)))),
        ),
        (
            "zero_allowed",
            Json::Arr(
                expected(r.cfg.trace)
                    .iter()
                    .filter(|d| !d.nonzero_on.contains(&w))
                    .map(|d| Json::str(d.name))
                    .collect(),
            ),
        ),
        (
            "per_key",
            Json::Arr(
                r.per_key
                    .iter()
                    .map(|k| {
                        Json::obj([
                            ("key", Json::str(k.label.as_str())),
                            ("answered", Json::Int(k.answered as u64)),
                            ("p50_ms", Json::Num(k.p50_ns as f64 / 1e6)),
                            ("p90_ms", Json::Num(k.p90_ns as f64 / 1e6)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("counts_repeat", Json::Bool(r.irregular_counts.is_empty())),
        ("irregular_counts", strs(&r.irregular_counts)),
        (
            "spans",
            Json::obj(r.span_summary.iter().map(|(name, &(n, total, own))| {
                let mean_us = |ns: u64| Json::Num(ns as f64 / 1e3 / n.max(1) as f64);
                (
                    *name,
                    Json::obj([
                        ("count", Json::Int(n)),
                        ("mean_us", mean_us(total)),
                        ("mean_self_us", mean_us(own)),
                    ]),
                )
            })),
        ),
        ("layer_map", metrics::layer_map_json()),
        ("gate", strs(&r.gate)),
        ("schema", strs(schema)),
    ])
}
