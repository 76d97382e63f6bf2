//! Serving load generator: the `experiments -- serve` command.
//!
//! The ROADMAP's north star is serving heavy query traffic over compressed
//! archives, so the headline number of the serving milestone is not a
//! single-query wall-clock but *latency under concurrency*: N closed-loop
//! client threads (each submits, waits for the answer, submits again)
//! hammer **one shared** [`Engine`] for a fixed duration, and the report
//! records p50/p99 latency, queries/sec, and the results-cache hit rate —
//! committed as `BENCH_serve.json` next to `BENCH_fine_grained.json`.
//!
//! Two transports share the same load loop and report schema:
//! [`ServeTransport::InProcess`] calls `Engine::run` directly (measures the
//! engine's concurrency machinery alone), and [`ServeTransport::Tcp`]
//! drives a real `tadoc-server` over loopback through the wire protocol —
//! framing, admission queue and shedding included — and folds the server's
//! counters (shed, max queue depth) into the report's `tcp` block.
//!
//! Every answer is digest-checked against the sequential oracle (computed
//! once per distinct key before the clock starts), so the load test is also
//! a correctness test: a single divergent answer fails schema validation
//! and the `serve-gate` CI job.

use crate::experiments::{prepare_dataset, ExperimentScale, PreparedDataset};
use datagen::DatasetId;
use server::client::{Client, QueryOutcome};
use server::server::{Server, ServerConfig, ServerError};
use server::WireErrorCode;
use std::time::{Duration, Instant};
use tadoc::apps::{Task, TaskConfig};
use tadoc::fine_grained::{Engine, EngineError};

/// Which `(task, cfg)` keys the clients cycle through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMix {
    /// All six tasks at the default config, plus the two sequence tasks at
    /// `l = 2` — eight keys exercising every artifact kind (the default).
    All,
    /// The counting tasks only (wordCount, sort, invertedIndex,
    /// termVector): no head/tail buffers, heavier merge traffic.
    Counting,
    /// The sequence tasks at `l ∈ {2, 3, 4}`: hammers the per-`l` head/tail
    /// slots, the artifact kind with the most interesting contention.
    Sequences,
}

impl ServeMix {
    /// Parses the `--mix` flag value.
    pub fn parse(s: &str) -> Option<ServeMix> {
        match s {
            "all" => Some(ServeMix::All),
            "counting" => Some(ServeMix::Counting),
            "sequences" => Some(ServeMix::Sequences),
            _ => None,
        }
    }

    /// Flag-value name of the mix.
    pub fn name(&self) -> &'static str {
        match self {
            ServeMix::All => "all",
            ServeMix::Counting => "counting",
            ServeMix::Sequences => "sequences",
        }
    }

    /// The `(task, cfg)` keys of this mix.
    pub fn keys(&self) -> Vec<(Task, TaskConfig)> {
        let default = TaskConfig::default();
        match self {
            ServeMix::All => {
                let mut keys: Vec<(Task, TaskConfig)> =
                    Task::ALL.into_iter().map(|t| (t, default)).collect();
                keys.push((Task::SequenceCount, TaskConfig { sequence_length: 2 }));
                keys.push((Task::RankedInvertedIndex, TaskConfig { sequence_length: 2 }));
                keys
            }
            ServeMix::Counting => vec![
                (Task::WordCount, default),
                (Task::Sort, default),
                (Task::InvertedIndex, default),
                (Task::TermVector, default),
            ],
            ServeMix::Sequences => [2usize, 3, 4]
                .into_iter()
                .flat_map(|l| {
                    let cfg = TaskConfig { sequence_length: l };
                    [(Task::SequenceCount, cfg), (Task::RankedInvertedIndex, cfg)]
                })
                .collect(),
        }
    }
}

/// How the load generator reaches the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeTransport {
    /// Clients call `Engine::run` directly on shared memory.
    InProcess,
    /// Clients speak the wire protocol to a real server on loopback.
    Tcp,
}

impl ServeTransport {
    /// Parses the `--transport` flag value.
    pub fn parse(s: &str) -> Option<ServeTransport> {
        match s {
            "in-process" => Some(ServeTransport::InProcess),
            "tcp" => Some(ServeTransport::Tcp),
            _ => None,
        }
    }

    /// Flag-value name of the transport.
    pub fn name(&self) -> &'static str {
        match self {
            ServeTransport::InProcess => "in-process",
            ServeTransport::Tcp => "tcp",
        }
    }
}

/// Configuration of one serve run.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Dataset to serve.
    pub dataset: DatasetId,
    /// Dataset scale factor.
    pub scale: ExperimentScale,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Engine worker threads.
    pub threads: usize,
    /// Load duration (clients stop submitting once it elapses).
    pub duration: Duration,
    /// Task mix the clients cycle through.
    pub mix: ServeMix,
    /// Whether the engine caches whole task outputs.
    pub results_cache: bool,
    /// Transport between clients and engine.
    pub transport: ServeTransport,
    /// Admission queue capacity (TCP transport only).
    pub queue_depth: usize,
}

/// A serve run that could not produce a report (per-query problems — wrong
/// digests, shed requests — are *counted in* the report instead).
#[derive(Debug)]
pub enum ServeError {
    /// The engine session could not be built.
    Engine(EngineError),
    /// The loopback server failed to start or crashed.
    Server(ServerError),
    /// A client hit a transport or protocol failure mid-run.
    Client(String),
    /// A client thread panicked.
    ClientPanicked(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Engine(e) => write!(f, "serve engine failed to build: {e}"),
            ServeError::Server(e) => write!(f, "loopback server failed: {e}"),
            ServeError::Client(msg) => write!(f, "serve client failed: {msg}"),
            ServeError::ClientPanicked(msg) => write!(f, "serve client panicked: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

impl From<ServerError> for ServeError {
    fn from(e: ServerError) -> Self {
        ServeError::Server(e)
    }
}

/// Per-key traffic accounting of one serve run.
#[derive(Debug, Clone)]
pub struct KeyTraffic {
    /// The task.
    pub task: Task,
    /// Its configuration.
    pub cfg: TaskConfig,
    /// Queries answered for this key across all clients.
    pub queries: u64,
}

/// Server-side counters of one TCP serve run, fetched from the real server
/// after shutdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpServeStats {
    /// Queries the server answered with a result or a typed error.
    pub queries_answered: u64,
    /// Requests shed with `Overloaded` (server counter).
    pub shed: u64,
    /// `Overloaded` answers the clients observed (must equal `shed`).
    pub client_observed_shed: u64,
    /// Requests refused with `ShuttingDown` during drain.
    pub refused: u64,
    /// High-water mark of the admission queue depth.
    pub max_queue_depth: u64,
    /// Configured admission queue capacity.
    pub queue_capacity: u64,
    /// Connections the server accepted.
    pub accepted_connections: u64,
    /// Frames the server failed to parse (must be zero under this load).
    pub protocol_errors: u64,
}

/// The measured result of one serve run — everything `BENCH_serve.json`
/// records for one dataset.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Dataset label.
    pub dataset: String,
    /// Transport the clients used.
    pub transport: ServeTransport,
    /// Server-side counters (TCP transport only).
    pub tcp: Option<TcpServeStats>,
    /// Dataset scale factor.
    pub scale: f64,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Engine worker threads.
    pub threads: usize,
    /// Cores the measuring machine offered (`available_parallelism`).
    pub available_parallelism: usize,
    /// Configured load duration in milliseconds.
    pub duration_ms: u64,
    /// Measured wall-clock of the load window in nanoseconds.
    pub elapsed_ns: u64,
    /// Mix the clients cycled through.
    pub mix: ServeMix,
    /// Total queries answered.
    pub total_queries: u64,
    /// Answers whose digest diverged from the sequential oracle (must be
    /// zero — counted rather than panicking so the report can say so).
    pub wrong_answers: u64,
    /// Queries served by the degraded (sequential-fallback) path.
    pub degraded: u64,
    /// Median query latency in nanoseconds.
    pub p50_latency_ns: u64,
    /// 99th-percentile query latency in nanoseconds.
    pub p99_latency_ns: u64,
    /// Worst query latency in nanoseconds.
    pub max_latency_ns: u64,
    /// Mean query latency in nanoseconds.
    pub mean_latency_ns: u64,
    /// Queries per second over the measured window.
    pub qps: f64,
    /// Whether the results cache was enabled.
    pub cache_enabled: bool,
    /// Results-cache `(hits, misses)`: `(0, 0)` in-process with the cache
    /// off, `None` over TCP, where the server does not export them.
    pub cache_counters: Option<(u64, u64)>,
    /// Per-key traffic.
    pub per_key: Vec<KeyTraffic>,
}

impl ServeReport {
    /// Cache hit rate in `[0, 1]` (0 when the cache was disabled or no
    /// query ran), or `None` when the counters were not observable.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        self.cache_counters
            .map(|(hits, misses)| match hits + misses {
                0 => 0.0,
                probes => hits as f64 / probes as f64,
            })
    }

    /// Validates the report: the run must have answered queries, answered
    /// them correctly, and produced finite, ordered latency numbers.
    /// Returns the problems found (empty = valid) — the `serve-gate` CI job
    /// exits non-zero on any.
    pub fn schema_problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let label = format!("dataset {}", self.dataset);
        if self.clients == 0 {
            problems.push(format!("{label}: zero clients"));
        }
        if self.available_parallelism == 0 {
            problems.push(format!("{label}: available_parallelism is zero"));
        }
        if self.total_queries == 0 {
            problems.push(format!("{label}: no query completed"));
        }
        if self.wrong_answers != 0 {
            problems.push(format!(
                "{label}: {} answers diverged from the sequential oracle",
                self.wrong_answers
            ));
        }
        if self.total_queries > 0 {
            for (name, v) in [
                ("p50_latency_ns", self.p50_latency_ns),
                ("p99_latency_ns", self.p99_latency_ns),
                ("max_latency_ns", self.max_latency_ns),
                ("mean_latency_ns", self.mean_latency_ns),
            ] {
                if v == 0 {
                    problems.push(format!("{label}: {name} is zero"));
                }
            }
            if !(self.p50_latency_ns <= self.p99_latency_ns
                && self.p99_latency_ns <= self.max_latency_ns)
            {
                problems.push(format!(
                    "{label}: latency percentiles out of order (p50 {} / p99 {} / max {})",
                    self.p50_latency_ns, self.p99_latency_ns, self.max_latency_ns
                ));
            }
        }
        if !self.qps.is_finite() || self.qps <= 0.0 {
            problems.push(format!("{label}: invalid qps {}", self.qps));
        }
        // Over TCP the cache counters live inside the server and are not
        // part of the wire stats, so a TCP run must not report any; an
        // in-process run must, and its probes must reconcile.
        match (self.transport, self.cache_counters) {
            (ServeTransport::Tcp, Some(_)) => problems.push(format!(
                "{label}: tcp run reports cache counters the server does not export"
            )),
            (ServeTransport::InProcess, None) => {
                problems.push(format!("{label}: in-process run without cache counters"));
            }
            (ServeTransport::InProcess, Some((hits, misses))) => {
                if self.cache_enabled && hits + misses != self.total_queries {
                    problems.push(format!(
                        "{label}: cache probes ({hits} + {misses}) do not reconcile with {} queries",
                        self.total_queries
                    ));
                }
            }
            (ServeTransport::Tcp, None) => {}
        }
        match (self.transport, &self.tcp) {
            (ServeTransport::Tcp, None) => {
                problems.push(format!("{label}: tcp transport without a tcp stats block"));
            }
            (ServeTransport::InProcess, Some(_)) => {
                problems.push(format!("{label}: in-process transport with a tcp stats block"));
            }
            (ServeTransport::Tcp, Some(t)) => {
                if t.protocol_errors != 0 {
                    problems.push(format!(
                        "{label}: server counted {} protocol errors under clean load",
                        t.protocol_errors
                    ));
                }
                if t.client_observed_shed != t.shed {
                    problems.push(format!(
                        "{label}: clients observed {} sheds but the server counted {}",
                        t.client_observed_shed, t.shed
                    ));
                }
                if t.max_queue_depth > t.queue_capacity {
                    problems.push(format!(
                        "{label}: queue depth {} exceeded its capacity {} (unbounded queuing)",
                        t.max_queue_depth, t.queue_capacity
                    ));
                }
                if t.queries_answered < self.total_queries {
                    problems.push(format!(
                        "{label}: server answered {} queries but clients measured {}",
                        t.queries_answered, self.total_queries
                    ));
                }
            }
            (ServeTransport::InProcess, None) => {}
        }
        let key_sum: u64 = self.per_key.iter().map(|k| k.queries).sum();
        if key_sum != self.total_queries {
            problems.push(format!(
                "{label}: per-key traffic sums to {key_sum}, expected {}",
                self.total_queries
            ));
        }
        problems
    }

    /// Renders the report as an aligned text block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "SERVE (dataset {}, scale {:.3}, {}): {} clients x {}ms against one {}-thread engine on {} cores (mix {})\n",
            self.dataset, self.scale, self.transport.name(), self.clients, self.duration_ms,
            self.threads, self.available_parallelism, self.mix.name()
        ));
        out.push_str(&format!(
            "  {} queries in {:.1}ms -> {:.0} qps | latency p50 {:.3}ms p99 {:.3}ms max {:.3}ms\n",
            self.total_queries,
            self.elapsed_ns as f64 / 1e6,
            self.qps,
            self.p50_latency_ns as f64 / 1e6,
            self.p99_latency_ns as f64 / 1e6,
            self.max_latency_ns as f64 / 1e6,
        ));
        let counters = match (self.cache_counters, self.cache_hit_rate()) {
            (Some((hits, misses)), Some(rate)) => format!(
                "{hits} hits / {misses} misses, hit rate {:.1}%",
                rate * 100.0
            ),
            _ => "counters not exported".to_string(),
        };
        out.push_str(&format!(
            "  results cache: {} ({counters}) | degraded {} | wrong answers {}\n",
            if self.cache_enabled { "on" } else { "off" },
            self.degraded,
            self.wrong_answers,
        ));
        if let Some(t) = &self.tcp {
            out.push_str(&format!(
                "  tcp: {} shed / {} refused | max queue depth {}/{} | \
                 {} connections | {} protocol errors\n",
                t.shed,
                t.refused,
                t.max_queue_depth,
                t.queue_capacity,
                t.accepted_connections,
                t.protocol_errors,
            ));
        }
        for k in &self.per_key {
            out.push_str(&format!(
                "    {:<23} l={} {:>8} queries\n",
                k.task.name(),
                k.cfg.sequence_length,
                k.queries
            ));
        }
        out
    }
}

/// Nearest-rank percentile of an ascending-sorted latency list.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// What one client thread measured.
struct ClientLog {
    latencies_ns: Vec<u64>,
    per_key: Vec<u64>,
    wrong: u64,
    degraded: u64,
    shed: u64,
}

impl ClientLog {
    fn new(keys: usize) -> Self {
        Self {
            latencies_ns: Vec::new(),
            per_key: vec![0u64; keys],
            wrong: 0,
            degraded: 0,
            shed: 0,
        }
    }
}

/// Unwraps a client thread's join result into a typed error.
fn join_client(
    res: std::thread::Result<Result<ClientLog, ServeError>>,
) -> Result<ClientLog, ServeError> {
    match res {
        Ok(log) => log,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("opaque panic payload");
            Err(ServeError::ClientPanicked(msg.to_string()))
        }
    }
}

/// Runs one closed-loop load test: prepares the dataset, computes the
/// oracle digest for every key of the mix, then lets `clients` threads
/// query one shared engine — directly or through a loopback TCP server —
/// until the duration elapses.
pub fn run_serve(cfg: ServeConfig) -> Result<ServeReport, ServeError> {
    let prepared = prepare_dataset(cfg.dataset, cfg.scale);
    let keys = cfg.mix.keys();

    // Oracle digests, computed before the clock starts: serving must be
    // *provably* correct under load, not just fast.
    let oracle: Vec<u64> = keys
        .iter()
        .map(|&(task, c)| {
            tadoc::apps::run_task(&prepared.archive, &prepared.dag, task, c)
                .output
                .digest()
        })
        .collect();

    match cfg.transport {
        ServeTransport::InProcess => serve_in_process(cfg, &prepared, &keys, &oracle),
        ServeTransport::Tcp => serve_tcp(cfg, &prepared, &keys, &oracle),
    }
}

fn serve_in_process(
    cfg: ServeConfig,
    prepared: &PreparedDataset,
    keys: &[(Task, TaskConfig)],
    oracle: &[u64],
) -> Result<ServeReport, ServeError> {
    let engine = Engine::builder(&prepared.archive, &prepared.dag)
        .threads(cfg.threads)
        .results_cache(cfg.results_cache)
        .build()?;

    let started = Instant::now();
    let logs: Result<Vec<ClientLog>, ServeError> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|c| {
                let engine = &engine;
                s.spawn(move || -> Result<ClientLog, ServeError> {
                    let mut log = ClientLog::new(keys.len());
                    // Offset by client id so different keys overlap in
                    // flight from the first instant.
                    let mut next = c % keys.len();
                    while started.elapsed() < cfg.duration {
                        let (task, task_cfg) = keys[next];
                        let t = Instant::now();
                        let exec = engine.run(task, task_cfg)?;
                        log.latencies_ns.push(t.elapsed().as_nanos().max(1) as u64);
                        if exec.output.digest() != oracle[next] {
                            log.wrong += 1;
                        }
                        if exec.timings.degraded.is_some() {
                            log.degraded += 1;
                        }
                        log.per_key[next] += 1;
                        next = (next + 1) % keys.len();
                    }
                    Ok(log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| join_client(h.join()))
            .collect()
    });
    let elapsed_ns = started.elapsed().as_nanos() as u64;
    let cache_counters = engine.results_cache_counters().unwrap_or((0, 0));
    Ok(assemble_report(
        cfg,
        prepared,
        keys,
        logs?,
        elapsed_ns,
        Some(cache_counters),
        None,
    ))
}

fn serve_tcp(
    cfg: ServeConfig,
    prepared: &PreparedDataset,
    keys: &[(Task, TaskConfig)],
    oracle: &[u64],
) -> Result<ServeReport, ServeError> {
    let server = Server::bind(
        ("127.0.0.1", 0),
        ServerConfig {
            // One handler per client: the protocol is one request in
            // flight per connection, so fewer handlers would serialize
            // clients behind each other instead of behind the engine.
            handler_threads: cfg.clients.max(1),
            queue_depth: cfg.queue_depth,
            engine_threads: cfg.threads,
            results_cache: cfg.results_cache,
            ..ServerConfig::default()
        },
    )?;
    let addr = server.local_addr();
    let handle = server.handle();

    let mut server_outcome: Option<Result<server::StatsSnapshot, ServerError>> = None;
    let started = Instant::now();
    let logs: Result<Vec<ClientLog>, ServeError> = std::thread::scope(|s| {
        let server_thread = s.spawn(|| server.run(&prepared.archive, &prepared.dag));
        let handles: Vec<_> = (0..cfg.clients)
            .map(|c| {
                s.spawn(move || -> Result<ClientLog, ServeError> {
                    let mut client = Client::connect(addr)
                        .map_err(|e| ServeError::Client(format!("connect: {e}")))?;
                    let mut log = ClientLog::new(keys.len());
                    let mut next = c % keys.len();
                    while started.elapsed() < cfg.duration {
                        let (task, task_cfg) = keys[next];
                        let t = Instant::now();
                        let outcome = client
                            .query(task, task_cfg)
                            .map_err(|e| ServeError::Client(format!("query: {e}")))?;
                        match outcome {
                            QueryOutcome::Ok(out) => {
                                log.latencies_ns.push(t.elapsed().as_nanos().max(1) as u64);
                                if out.digest() != oracle[next] {
                                    log.wrong += 1;
                                }
                                log.per_key[next] += 1;
                            }
                            QueryOutcome::Overloaded { .. } => log.shed += 1,
                            QueryOutcome::Denied(e) if e.code == WireErrorCode::ShuttingDown => {
                                break;
                            }
                            QueryOutcome::Denied(e) => {
                                return Err(ServeError::Client(format!(
                                    "query denied ({:?}): {}",
                                    e.code, e.message
                                )));
                            }
                        }
                        next = (next + 1) % keys.len();
                    }
                    Ok(log)
                })
            })
            .collect();
        let logs = handles
            .into_iter()
            .map(|h| join_client(h.join()))
            .collect();
        handle.shutdown();
        server_outcome = Some(match server_thread.join() {
            Ok(r) => r,
            Err(_) => Err(ServerError::Bind(std::io::Error::other(
                "server thread panicked",
            ))),
        });
        logs
    });
    let elapsed_ns = started.elapsed().as_nanos() as u64;
    let stats = match server_outcome {
        Some(Ok(stats)) => stats,
        Some(Err(e)) => return Err(ServeError::Server(e)),
        None => unreachable!("server outcome recorded before scope exit"),
    };
    let logs = logs?;
    let client_observed_shed = logs.iter().map(|l| l.shed).sum();
    let tcp = TcpServeStats {
        queries_answered: stats.queries_answered,
        shed: stats.shed,
        client_observed_shed,
        refused: stats.refused,
        max_queue_depth: stats.max_queue_depth,
        queue_capacity: cfg.queue_depth.max(1) as u64,
        accepted_connections: stats.accepted_connections,
        protocol_errors: stats.protocol_errors,
    };
    Ok(assemble_report(
        cfg,
        prepared,
        keys,
        logs,
        elapsed_ns,
        None,
        Some(tcp),
    ))
}

fn assemble_report(
    cfg: ServeConfig,
    prepared: &PreparedDataset,
    keys: &[(Task, TaskConfig)],
    logs: Vec<ClientLog>,
    elapsed_ns: u64,
    cache_counters: Option<(u64, u64)>,
    tcp: Option<TcpServeStats>,
) -> ServeReport {
    let mut latencies: Vec<u64> = Vec::new();
    let mut per_key = vec![0u64; keys.len()];
    let (mut wrong, mut degraded) = (0u64, 0u64);
    for log in logs {
        latencies.extend(log.latencies_ns);
        wrong += log.wrong;
        degraded += log.degraded;
        for (k, n) in log.per_key.into_iter().enumerate() {
            per_key[k] += n;
        }
    }
    latencies.sort_unstable();
    let total_queries = latencies.len() as u64;
    let mean = if latencies.is_empty() {
        0
    } else {
        latencies.iter().sum::<u64>() / total_queries
    };

    ServeReport {
        dataset: format!("{:?}", prepared.id),
        transport: cfg.transport,
        tcp,
        scale: cfg.scale.0,
        clients: cfg.clients,
        threads: cfg.threads,
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        duration_ms: cfg.duration.as_millis() as u64,
        elapsed_ns,
        mix: cfg.mix,
        total_queries,
        wrong_answers: wrong,
        degraded,
        p50_latency_ns: percentile(&latencies, 50.0),
        p99_latency_ns: percentile(&latencies, 99.0),
        max_latency_ns: latencies.last().copied().unwrap_or(0),
        mean_latency_ns: mean,
        qps: total_queries as f64 / (elapsed_ns.max(1) as f64 / 1e9),
        cache_enabled: cfg.results_cache,
        cache_counters,
        per_key: keys
            .iter()
            .zip(per_key)
            .map(|(&(task, c), queries)| KeyTraffic {
                task,
                cfg: c,
                queries,
            })
            .collect(),
    }
}

/// Notes committed alongside the serving numbers.
pub const SERVE_NOTES: &[&str] = &[
    "Closed-loop load: each client thread submits one query, waits for the \
     answer, and immediately submits the next, so offered load scales with \
     measured latency (no open-loop queue buildup).",
    "All clients share ONE Engine: the first query of each (task, cfg) key \
     fills the once-filled analysis layer, repeats are served warm, and \
     with the results cache on, repeats of a whole key are answered without \
     executing anything.",
    "When clients outnumber cores, qps and latency percentiles measure the \
     concurrency *machinery* (admission, publication, leasing), not \
     parallel speedup.",
    "Every answer is digest-checked against the sequential oracle computed \
     before the clock started; wrong_answers must be 0 for the report to \
     validate.",
    "transport=tcp runs drive a real tadoc-server over loopback through the \
     wire protocol: the tcp block records the server's admission counters \
     (shed, max_queue_depth) and must show zero protocol errors, \
     shed counts that reconcile with what the clients observed, and a queue \
     depth that never exceeded its configured capacity.  Their \
     results_cache hits, misses and hit_rate are null: the cache is the \
     server's cache of encoded result frames, and the server does not \
     export its counters.",
];

/// A JSON value, or `null` when it was not observed.
fn json_or_null(value: Option<String>) -> String {
    value.unwrap_or_else(|| "null".to_string())
}

/// Renders serve reports as the machine-readable `BENCH_serve.json`.
pub fn serve_json(reports: &[ServeReport]) -> String {
    let mut out = String::from("{\n  \"benchmark\": \"serve\",\n  \"unit\": \"ns\",\n  \"notes\": [\n");
    for (i, note) in SERVE_NOTES.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\"{}\n",
            note.replace('"', "\\\""),
            if i + 1 == SERVE_NOTES.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"runs\": [\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str(&format!(
            "    {{\n      \"dataset\": \"{}\",\n      \"transport\": \"{}\",\n      \"scale\": {:.3},\n      \"clients\": {},\n      \"threads\": {},\n      \"available_parallelism\": {},\n      \"duration_ms\": {},\n      \"elapsed_ns\": {},\n      \"mix\": \"{}\",\n      \"total_queries\": {},\n      \"wrong_answers\": {},\n      \"degraded\": {},\n      \"qps\": {:.3},\n      \"latency\": {{\"p50_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}, \"mean_ns\": {}}},\n      \"results_cache\": {{\"enabled\": {}, \"hits\": {}, \"misses\": {}, \"hit_rate\": {}}},\n",
            r.dataset,
            r.transport.name(),
            r.scale,
            r.clients,
            r.threads,
            r.available_parallelism,
            r.duration_ms,
            r.elapsed_ns,
            r.mix.name(),
            r.total_queries,
            r.wrong_answers,
            r.degraded,
            r.qps,
            r.p50_latency_ns,
            r.p99_latency_ns,
            r.max_latency_ns,
            r.mean_latency_ns,
            r.cache_enabled,
            json_or_null(r.cache_counters.map(|(hits, _)| hits.to_string())),
            json_or_null(r.cache_counters.map(|(_, misses)| misses.to_string())),
            json_or_null(r.cache_hit_rate().map(|rate| format!("{rate:.4}"))),
        ));
        if let Some(t) = &r.tcp {
            out.push_str(&format!(
                "      \"tcp\": {{\"queries_answered\": {}, \"shed\": {}, \"client_observed_shed\": {}, \"refused\": {}, \"max_queue_depth\": {}, \"queue_capacity\": {}, \"accepted_connections\": {}, \"protocol_errors\": {}}},\n",
                t.queries_answered,
                t.shed,
                t.client_observed_shed,
                t.refused,
                t.max_queue_depth,
                t.queue_capacity,
                t.accepted_connections,
                t.protocol_errors,
            ));
        }
        out.push_str("      \"per_key\": [\n");
        for (j, k) in r.per_key.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"task\": \"{}\", \"sequence_length\": {}, \"queries\": {}}}{}\n",
                k.task.name(),
                k.cfg.sequence_length,
                k.queries,
                if j + 1 == r.per_key.len() { "" } else { "," }
            ));
        }
        out.push_str(&format!(
            "      ]\n    }}{}\n",
            if i + 1 == reports.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> ServeReport {
        ServeReport {
            dataset: "A".to_string(),
            transport: ServeTransport::InProcess,
            tcp: None,
            scale: 0.05,
            clients: 2,
            threads: 2,
            available_parallelism: 2,
            duration_ms: 50,
            elapsed_ns: 50_000_000,
            mix: ServeMix::All,
            total_queries: 10,
            wrong_answers: 0,
            degraded: 0,
            p50_latency_ns: 1_000,
            p99_latency_ns: 2_000,
            max_latency_ns: 3_000,
            mean_latency_ns: 1_200,
            qps: 200.0,
            cache_enabled: true,
            cache_counters: Some((2, 8)),
            per_key: vec![KeyTraffic {
                task: Task::WordCount,
                cfg: TaskConfig::default(),
                queries: 10,
            }],
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let lat = [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile(&lat, 50.0), 50);
        assert_eq!(percentile(&lat, 99.0), 100);
        assert_eq!(percentile(&lat, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn schema_accepts_a_valid_report_and_rejects_broken_ones() {
        assert!(tiny_report().schema_problems().is_empty());

        let mut no_queries = tiny_report();
        no_queries.total_queries = 0;
        no_queries.per_key[0].queries = 0;
        no_queries.cache_counters = Some((0, 0));
        assert!(!no_queries.schema_problems().is_empty());

        let mut wrong = tiny_report();
        wrong.wrong_answers = 1;
        assert!(wrong
            .schema_problems()
            .iter()
            .any(|p| p.contains("diverged")));

        let mut disordered = tiny_report();
        disordered.p50_latency_ns = 5_000;
        assert!(disordered
            .schema_problems()
            .iter()
            .any(|p| p.contains("out of order")));

        let mut no_cores = tiny_report();
        no_cores.available_parallelism = 0;
        assert!(no_cores
            .schema_problems()
            .iter()
            .any(|p| p.contains("available_parallelism")));

        let mut bad_probes = tiny_report();
        bad_probes.cache_counters = Some((0, 8));
        assert!(bad_probes
            .schema_problems()
            .iter()
            .any(|p| p.contains("reconcile")));
    }

    #[test]
    fn in_process_runs_must_report_reconciling_cache_counters() {
        let json = serve_json(&[tiny_report()]);
        assert!(
            json.contains("\"hits\": 2, \"misses\": 8, \"hit_rate\": 0.2000"),
            "{json}"
        );

        let mut unobserved = tiny_report();
        unobserved.cache_counters = None;
        assert!(unobserved
            .schema_problems()
            .iter()
            .any(|p| p.contains("without cache counters")));

        // With the cache off nothing is probed: (0, 0) is the honest count.
        let mut off = tiny_report();
        off.cache_enabled = false;
        off.cache_counters = Some((0, 0));
        assert!(off.schema_problems().is_empty());
    }

    #[test]
    fn tcp_runs_must_report_null_cache_counters() {
        let json = serve_json(&[tiny_tcp_report()]);
        assert!(
            json.contains("\"hits\": null, \"misses\": null, \"hit_rate\": null"),
            "{json}"
        );

        // Placeholder zeros for a cache that is on are rejected.
        let mut placeholder = tiny_tcp_report();
        placeholder.cache_counters = Some((0, 0));
        assert!(placeholder
            .schema_problems()
            .iter()
            .any(|p| p.contains("does not export")));
    }

    fn tiny_tcp_report() -> ServeReport {
        let mut r = tiny_report();
        r.transport = ServeTransport::Tcp;
        r.cache_counters = None;
        r.tcp = Some(TcpServeStats {
            queries_answered: 10,
            shed: 2,
            client_observed_shed: 2,
            refused: 0,
            max_queue_depth: 3,
            queue_capacity: 4,
            accepted_connections: 2,
            protocol_errors: 0,
        });
        r
    }

    #[test]
    fn tcp_schema_checks_reconciliation_and_bounded_queuing() {
        assert!(tiny_tcp_report().schema_problems().is_empty());

        let mut missing_block = tiny_tcp_report();
        missing_block.tcp = None;
        assert!(missing_block
            .schema_problems()
            .iter()
            .any(|p| p.contains("without a tcp stats block")));

        let mut stray_block = tiny_report();
        stray_block.tcp = tiny_tcp_report().tcp;
        assert!(stray_block
            .schema_problems()
            .iter()
            .any(|p| p.contains("in-process transport with")));

        let mut proto = tiny_tcp_report();
        if let Some(t) = proto.tcp.as_mut() {
            t.protocol_errors = 1;
        }
        assert!(proto
            .schema_problems()
            .iter()
            .any(|p| p.contains("protocol errors")));

        let mut shed_gap = tiny_tcp_report();
        if let Some(t) = shed_gap.tcp.as_mut() {
            t.client_observed_shed = 1;
        }
        assert!(shed_gap
            .schema_problems()
            .iter()
            .any(|p| p.contains("sheds")));

        let mut unbounded = tiny_tcp_report();
        if let Some(t) = unbounded.tcp.as_mut() {
            t.max_queue_depth = 99;
        }
        assert!(unbounded
            .schema_problems()
            .iter()
            .any(|p| p.contains("unbounded queuing")));
    }

    #[test]
    fn transports_parse_round_trip() {
        for t in [ServeTransport::InProcess, ServeTransport::Tcp] {
            assert_eq!(ServeTransport::parse(t.name()), Some(t));
        }
        assert_eq!(ServeTransport::parse("carrier-pigeon"), None);
    }

    #[test]
    fn serve_json_contains_every_gate_checked_field() {
        let json = serve_json(&[tiny_report()]);
        for field in [
            "\"p50_ns\"",
            "\"p99_ns\"",
            "\"max_ns\"",
            "\"qps\"",
            "\"hit_rate\"",
            "\"total_queries\"",
            "\"wrong_answers\"",
            "\"available_parallelism\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn mixes_expose_distinct_nonempty_key_sets() {
        for mix in [ServeMix::All, ServeMix::Counting, ServeMix::Sequences] {
            assert!(!mix.keys().is_empty());
            assert_eq!(ServeMix::parse(mix.name()), Some(mix));
        }
        assert_eq!(ServeMix::parse("bogus"), None);
        assert_ne!(ServeMix::All.keys(), ServeMix::Counting.keys());
    }

    /// A miniature end-to-end run: tiny dataset, short window — the report
    /// must validate and reconcile.
    #[test]
    fn miniature_serve_run_produces_a_valid_report() {
        let report = run_serve(ServeConfig {
            dataset: DatasetId::A,
            scale: ExperimentScale(0.02),
            clients: 2,
            threads: 2,
            duration: Duration::from_millis(120),
            mix: ServeMix::All,
            results_cache: true,
            transport: ServeTransport::InProcess,
            queue_depth: 16,
        })
        .expect("in-process serve run");
        let problems = report.schema_problems();
        assert!(problems.is_empty(), "schema problems: {problems:?}");
        assert!(report.total_queries > 0);
        assert_eq!(report.wrong_answers, 0);
        assert!(report.tcp.is_none());
    }

    /// The same miniature run through a real loopback server: the report
    /// must validate, reconcile its tcp block, and stay oracle-correct over
    /// the wire.
    #[test]
    fn miniature_tcp_serve_run_produces_a_valid_report() {
        let report = run_serve(ServeConfig {
            dataset: DatasetId::A,
            scale: ExperimentScale(0.02),
            clients: 2,
            threads: 2,
            duration: Duration::from_millis(120),
            mix: ServeMix::All,
            results_cache: true,
            transport: ServeTransport::Tcp,
            queue_depth: 16,
        })
        .expect("tcp serve run");
        let problems = report.schema_problems();
        assert!(problems.is_empty(), "schema problems: {problems:?}");
        assert!(report.total_queries > 0);
        assert_eq!(report.wrong_answers, 0);
        let tcp = report.tcp.expect("tcp stats block");
        assert_eq!(tcp.protocol_errors, 0);
        assert!(tcp.accepted_connections >= 2);
        let json = serve_json(&[report]);
        assert!(json.contains("\"transport\": \"tcp\""));
        assert!(json.contains("\"max_queue_depth\""));
    }
}
