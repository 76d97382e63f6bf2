//! The three workloads: set-up, closed-loop load, and the traced run.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use datagen::DatasetId;
use sequitur::{Dag, TadocArchive};
use server::client::{Client, QueryOutcome};
use server::framing::{write_frame, FrameReader, ReadOutcome};
use server::protocol::{
    encode_request, encode_response, parse_response, QueryRequest, Request, Response, HEADER_LEN,
};
use server::{Server, ServerConfig, StatsSnapshot, WireErrorCode};
use tadoc::apps::{run_task, Task, TaskConfig};
use tadoc::fine_grained::Engine;
use tadoc::results::AnalyticsOutput;
use tadoc::timing::PhaseTimings;

use crate::dataset::{self, Shape, TokenFiles};
use crate::metrics::{Absent, Metric};
use crate::mix::{self, Deck};
use crate::stats::{beyond, median, percentile};
use crate::trace::{self, Span, Tracer};

/// Engine worker threads in every workload.
pub const ENGINE_THREADS: usize = 2;
/// Timed set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;
/// Most traced serve-tcp answers replayed in-process for the cache and
/// encode layers.
const REPLAY_CAP: usize = 20_000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dataset B, one warm in-process session, results cache off.
    QueryWarm,
    /// Dataset A, a fresh engine per query.
    QueryCold,
    /// Dataset A behind a loopback server, results cache on.
    ServeTcp,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::QueryWarm, Workload::QueryCold, Workload::ServeTcp];

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Workload name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::QueryWarm => "query-warm",
            Workload::QueryCold => "query-cold",
            Workload::ServeTcp => "serve-tcp",
        }
    }

    /// Dataset served.
    pub fn dataset(self) -> DatasetId {
        match self {
            Workload::QueryWarm => DatasetId::B,
            Workload::QueryCold | Workload::ServeTcp => DatasetId::A,
        }
    }

    /// Closed-loop callers (at most the 2 cores of the reference machine).
    pub fn clients(self) -> usize {
        match self {
            Workload::QueryWarm | Workload::QueryCold => 1,
            Workload::ServeTcp => 2,
        }
    }

    /// Why the workload exists: the layer it isolates (as recorded in
    /// `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::QueryWarm => {
                "dataset B on one warm in-process session, results cache off: every query recomputes traversal and the k-way merge, so the engine layer is nearly all the time"
            }
            Workload::QueryCold => {
                "dataset A, a fresh Engine per query (the paper's per-task init + traversal): Engine::build and the analysis fills that query-warm never pays"
            }
            Workload::ServeTcp => {
                "dataset A behind a loopback tadoc-server with the results cache on and 2 connections: every answer is a cache hit, so cache clone, encode, socket and decode dominate"
            }
        }
    }
}

/// Arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload.
    pub workload: Workload,
    /// Seed of the corpus and the query order.
    pub seed: u64,
    /// Load duration.
    pub seconds: f64,
    /// Traced run: half untraced, half traced, per-layer metrics.
    pub trace: bool,
}

/// Latency and count summary of one key.
#[derive(Debug, Clone)]
pub struct KeyStats {
    /// Key label.
    pub label: String,
    /// Answered queries.
    pub answered: usize,
    /// Nearest-rank median, ns.
    pub p50_ns: u64,
    /// Nearest-rank 90th percentile, ns.
    pub p90_ns: u64,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct RunReport {
    /// The run's arguments.
    pub cfg: RunConfig,
    /// Served dataset.
    pub shape: Shape,
    /// Each timed set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Queries attempted in the reported window.
    pub attempted: u64,
    /// Of which failed (wrong, typed error, shed, refused, transport).
    pub failed: u64,
    /// Correctness-gate violations (non-empty fails the run).
    pub gate: Vec<String>,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// Values the benchmark cannot observe.
    pub absent: Vec<Absent>,
    /// Latency samples behind the percentiles, and how many lie beyond
    /// p50 and p90.
    pub samples: (usize, usize, usize),
    /// Per-key summaries of the reported window.
    pub per_key: Vec<KeyStats>,
    /// Keys whose per-query work counts did not repeat exactly.
    pub irregular_counts: Vec<String>,
    /// Recorded spans (traced runs).
    pub spans: Vec<Span>,
    /// Per span name: count, total ns and self ns (traced runs).
    pub span_summary: BTreeMap<&'static str, (u64, u64, u64)>,
}

// ---------------------------------------------------------------------------
// Per-window accounting
// ---------------------------------------------------------------------------

/// Engine-layer counts of the queries one caller ran.
#[derive(Debug, Default, Clone)]
struct EngineTally {
    queries: u64,
    shared_init_ns: u64,
    traversal_ns: u64,
    finalize_ns: u64,
    epochs: u64,
    fills: u64,
    table_ops: u64,
    elements: u64,
    degraded: u64,
    /// Queries whose timings carry a results-cache probe, the hits, and
    /// the time the hits took (replay session only).
    probes: u64,
    hits: u64,
    hit_ns: u64,
    /// First `(epochs, table_ops, elements)` seen per key.
    first: BTreeMap<usize, (u64, u64, u64)>,
    irregular: Vec<usize>,
}

impl EngineTally {
    fn record(&mut self, key: usize, t: &PhaseTimings, epochs: u64, fills: u64) {
        let work = t.total_work();
        self.queries += 1;
        self.shared_init_ns += t.shared_init.as_nanos() as u64;
        self.traversal_ns += t.traversal.as_nanos() as u64;
        self.finalize_ns += t.finalize.as_nanos() as u64;
        self.epochs += epochs;
        self.fills += fills;
        self.table_ops += work.table_ops;
        self.elements += work.elements_scanned;
        self.degraded += u64::from(t.degraded.is_some());
        if let Some(c) = t.results_cache {
            self.probes += 1;
            self.hits += u64::from(c.hit);
        }
        let counts = (epochs, work.table_ops, work.elements_scanned);
        if *self.first.entry(key).or_insert(counts) != counts && !self.irregular.contains(&key) {
            self.irregular.push(key);
        }
    }

    fn per_query(&self, v: u64) -> f64 {
        v as f64 / self.queries.max(1) as f64
    }
}

/// What the callers observed in one load window.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    wrong: u64,
    typed_errors: u64,
    shed: u64,
    refused: u64,
    transport: u64,
    /// `(key, latency ns)` of every answered query, in order.
    samples: Vec<(usize, u64)>,
    /// When the last answer arrived.
    last_end: Option<Instant>,
    /// Response frame bytes received (serve-tcp).
    response_bytes: u64,
    /// Engine counts (in-process callers only).
    engine: EngineTally,
}

impl Tally {
    fn answered(&mut self, key: usize, latency: Duration, correct: bool) {
        self.samples.push((key, latency.as_nanos().max(1) as u64));
        self.last_end = Some(Instant::now());
        self.wrong += u64::from(!correct);
    }

    fn failed(&self) -> u64 {
        self.wrong + self.typed_errors + self.shed + self.refused + self.transport
    }

    /// Folds in another TCP caller's tally (TCP callers run no engine).
    fn merge(&mut self, o: Tally) {
        debug_assert_eq!(o.engine.queries, 0, "TCP callers run no engine");
        self.attempted += o.attempted;
        self.wrong += o.wrong;
        self.typed_errors += o.typed_errors;
        self.shed += o.shed;
        self.refused += o.refused;
        self.transport += o.transport;
        self.samples.extend(o.samples);
        self.last_end = self.last_end.max(o.last_end);
        self.response_bytes += o.response_bytes;
    }

    fn sorted_latencies(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.samples.iter().map(|&(_, ns)| ns).collect();
        v.sort_unstable();
        v
    }

    /// qps over window `w` (answers over the time to the last answer) and
    /// the nearest-rank latency percentiles of all its answers.
    fn headline(&self, w: Window) -> Option<Headline> {
        let lat = self.sorted_latencies();
        let last = self.last_end?;
        Some(Headline {
            qps: lat.len() as f64 / last.saturating_duration_since(w.start).as_secs_f64(),
            p50_ns: percentile(&lat, 50.0)?,
            p90_ns: percentile(&lat, 90.0)?,
            samples: (lat.len(), beyond(&lat, 50.0), beyond(&lat, 90.0)),
        })
    }

    fn per_key(&self) -> Vec<KeyStats> {
        (0..mix::MIX.len())
            .map(|k| {
                let mut lat: Vec<u64> = self
                    .samples
                    .iter()
                    .filter(|s| s.0 == k)
                    .map(|s| s.1)
                    .collect();
                lat.sort_unstable();
                KeyStats {
                    label: mix::label(k),
                    answered: lat.len(),
                    p50_ns: percentile(&lat, 50.0).unwrap_or(0),
                    p90_ns: percentile(&lat, 90.0).unwrap_or(0),
                }
            })
            .collect()
    }
}

/// End-to-end numbers of one window.
#[derive(Debug, Clone, Copy)]
struct Headline {
    qps: f64,
    p50_ns: u64,
    p90_ns: u64,
    /// Latency samples, and how many lie beyond p50 and p90.
    samples: (usize, usize, usize),
}

/// Checks an answer against the oracle inside a `check.verify` span (never
/// inside a latency sample).
fn verify(tr: &mut Tracer, parent: u64, req: u64, out: &AnalyticsOutput, oracle: u64) -> bool {
    tr.span("check.verify", Some(parent), req, || out.digest() == oracle)
}

/// Request ids: lane in the high bits, sequence below.
fn request_id(lane: u64, seq: &mut u64) -> u64 {
    *seq += 1;
    (lane << 40) | *seq
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// One timed set-up: token files in memory to a session that has answered
/// every key once.
struct Setup {
    seconds: f64,
    digests: Vec<u64>,
    archive: TadocArchive,
    dag: Dag,
}

fn server_config() -> ServerConfig {
    ServerConfig {
        // One handler per connection: the protocol allows one request in
        // flight per connection, so fewer handlers would queue clients
        // behind each other instead of behind the engine.
        handler_threads: 2,
        engine_threads: ENGINE_THREADS,
        results_cache: true,
        ..ServerConfig::default()
    }
}

fn compress(input: TokenFiles, tr: &mut Tracer, parent: u64, req: u64) -> (TadocArchive, Dag) {
    let archive = tr.span("sequitur.compress", Some(parent), req, || input.compress());
    let dag = tr.span("sequitur.dag", Some(parent), req, || {
        Dag::from_grammar(&archive.grammar)
    });
    (archive, dag)
}

fn setup_in_process(input: TokenFiles, tr: &mut Tracer, req: u64) -> Result<Setup, String> {
    let root = tr.open("setup", None, req);
    let start = Instant::now();
    let (archive, dag) = compress(input, tr, root.id(), req);
    let outputs = {
        let engine = tr
            .span("engine.build", Some(root.id()), req, || {
                Engine::builder(&archive, &dag)
                    .threads(ENGINE_THREADS)
                    .build()
            })
            .map_err(|e| format!("engine build: {e}"))?;
        let mut outputs = Vec::new();
        for (task, cfg) in mix::keys() {
            let exec = tr
                .span("setup.warm", Some(root.id()), req, || engine.run(task, cfg))
                .map_err(|e| format!("warm-up {}: {e}", task.name()))?;
            outputs.push(exec.output);
        }
        outputs
    };
    let seconds = start.elapsed().as_secs_f64();
    tr.close(root);
    Ok(Setup {
        seconds,
        digests: outputs.iter().map(AnalyticsOutput::digest).collect(),
        archive,
        dag,
    })
}

/// Queries every key once over `client` (the serve-tcp warm-up).
fn warm_over_tcp(client: &mut Client) -> Result<Vec<AnalyticsOutput>, String> {
    let mut outputs = Vec::new();
    for (task, cfg) in mix::keys() {
        match client
            .query(task, cfg)
            .map_err(|e| format!("warm-up query: {e}"))?
        {
            QueryOutcome::Ok(out) => outputs.push(out),
            other => return Err(format!("warm-up {} not answered: {other:?}", task.name())),
        }
    }
    Ok(outputs)
}

fn setup_tcp(input: TokenFiles, tr: &mut Tracer, req: u64) -> Result<Setup, String> {
    let root = tr.open("setup", None, req);
    let start = Instant::now();
    let (archive, dag) = compress(input, tr, root.id(), req);
    let server = tr
        .span("server.bind", Some(root.id()), req, || {
            Server::bind(("127.0.0.1", 0), server_config())
        })
        .map_err(|e| format!("bind: {e}"))?;
    let (addr, handle) = (server.local_addr(), server.handle());
    let (warmed, seconds, served) = thread::scope(|s| {
        let running = s.spawn(|| server.run(&archive, &dag));
        let warmed = tr.span("setup.warm", Some(root.id()), req, || {
            let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
            warm_over_tcp(&mut client)
        });
        let seconds = start.elapsed().as_secs_f64();
        handle.shutdown();
        (warmed, seconds, running.join())
    });
    tr.close(root);
    served
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("server: {e}"))?;
    Ok(Setup {
        seconds,
        digests: warmed?.iter().map(AnalyticsOutput::digest).collect(),
        archive,
        dag,
    })
}

// ---------------------------------------------------------------------------
// Load loops
// ---------------------------------------------------------------------------

/// A load window: queries start while `now < end`.
#[derive(Debug, Clone, Copy)]
struct Window {
    start: Instant,
    end: Instant,
    traced: bool,
}

/// The load windows: a traced run measures its first half untraced and
/// its second half traced.
fn windows(seconds: f64, trace: bool) -> Vec<Window> {
    let start = Instant::now();
    let total = Duration::from_secs_f64(seconds);
    if trace {
        let mid = start + total / 2;
        vec![
            Window {
                start,
                end: mid,
                traced: false,
            },
            Window {
                start: mid,
                end: start + total,
                traced: true,
            },
        ]
    } else {
        vec![Window {
            start,
            end: start + total,
            traced: false,
        }]
    }
}

/// Closed loop over one warm in-process session (query-warm).
fn warm_loop(
    engine: &Engine<'_>,
    oracle: &[u64],
    deck: &mut Deck,
    w: Window,
    tr: &mut Tracer,
    seq: &mut u64,
) -> Tally {
    let keys = mix::keys();
    let mut t = Tally::default();
    while Instant::now() < w.end {
        let k = deck.draw();
        let (task, cfg) = keys[k];
        let req = request_id(0, seq);
        let root = tr.open("request", None, req);
        let (epochs, fills) = (engine.epochs(), engine.analysis_fills());
        t.attempted += 1;
        let span = tr.open("engine.run", Some(root.id()), req);
        let start = Instant::now();
        let res = engine.run(task, cfg);
        let latency = start.elapsed();
        tr.close(span);
        match res {
            Ok(exec) => {
                let (e, f) = (engine.epochs() - epochs, engine.analysis_fills() - fills);
                t.engine.record(k, &exec.timings, e, f);
                let ok = verify(tr, root.id(), req, &exec.output, oracle[k]);
                t.answered(k, latency, ok);
            }
            Err(_) => t.typed_errors += 1,
        }
        tr.close(root);
    }
    t
}

/// Closed loop opening a fresh engine per query (query-cold).
fn cold_loop(
    archive: &TadocArchive,
    dag: &Dag,
    oracle: &[u64],
    deck: &mut Deck,
    w: Window,
    tr: &mut Tracer,
    seq: &mut u64,
) -> Tally {
    let keys = mix::keys();
    let mut t = Tally::default();
    while Instant::now() < w.end {
        let k = deck.draw();
        let (task, cfg) = keys[k];
        let req = request_id(0, seq);
        let root = tr.open("request", None, req);
        t.attempted += 1;
        let query = tr.open("query", Some(root.id()), req);
        let start = Instant::now();
        let built = tr.span("engine.build", Some(query.id()), req, || {
            Engine::builder(archive, dag)
                .threads(ENGINE_THREADS)
                .build()
        });
        let res = built.map(|engine| {
            let res = tr.span("engine.run", Some(query.id()), req, || {
                engine.run(task, cfg)
            });
            let counts = (engine.epochs(), engine.analysis_fills());
            tr.span("engine.drop", Some(query.id()), req, || drop(engine));
            res.map(|exec| (exec, counts))
        });
        let latency = start.elapsed();
        tr.close(query);
        match res {
            Ok(Ok((exec, (epochs, fills)))) => {
                t.engine.record(k, &exec.timings, epochs, fills);
                let ok = verify(tr, root.id(), req, &exec.output, oracle[k]);
                t.answered(k, latency, ok);
            }
            _ => t.typed_errors += 1,
        }
        tr.close(root);
    }
    t
}

/// How one TCP query ended.
enum Wire {
    Answer(AnalyticsOutput, u64),
    Shed,
    Refused,
    Denied,
}

/// One query through the public client (untraced path).
fn query_client(client: &mut Client, task: Task, cfg: TaskConfig) -> Result<Wire, String> {
    Ok(match client.query(task, cfg).map_err(|e| e.to_string())? {
        QueryOutcome::Ok(out) => Wire::Answer(out, 0),
        QueryOutcome::Overloaded { .. } => Wire::Shed,
        QueryOutcome::Denied(e) if e.code == WireErrorCode::ShuttingDown => Wire::Refused,
        QueryOutcome::Denied(_) => Wire::Denied,
    })
}

/// One query through `protocol` and `framing` directly, with a span around
/// each layer call (traced path; the same calls `Client::query` makes).
fn query_framed(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    task: Task,
    cfg: TaskConfig,
    tr: &mut Tracer,
    parent: u64,
    req: u64,
) -> Result<Wire, String> {
    let frame = tr.span("protocol.encode_request", Some(parent), req, || {
        encode_request(&Request::Query(QueryRequest {
            task,
            cfg,
            deadline_ms: None,
        }))
    });
    let rt = tr.open("client.roundtrip", Some(parent), req);
    write_frame(stream, &frame).map_err(|e| format!("write: {e}"))?;
    let (kind, payload) = loop {
        match reader.read_frame(stream).map_err(|e| e.to_string())? {
            ReadOutcome::Frame { kind, payload } => break (kind, payload),
            ReadOutcome::Closed => return Err("server closed the connection".into()),
            ReadOutcome::Idle => continue,
        }
    };
    tr.close(rt);
    let bytes = (HEADER_LEN + payload.len()) as u64;
    let resp = tr.span("protocol.decode", Some(parent), req, || {
        parse_response(kind, &payload)
    });
    Ok(match resp.map_err(|e| e.to_string())? {
        Response::Result(out) => Wire::Answer(out, bytes),
        Response::Overloaded { .. } => Wire::Shed,
        Response::Error(e) if e.code == WireErrorCode::ShuttingDown => Wire::Refused,
        Response::Error(_) | Response::Stats(_) | Response::ShutdownAck => Wire::Denied,
    })
}

/// The connection a TCP caller uses in one window.
enum Conn {
    Client(Client),
    Framed(TcpStream, FrameReader),
}

fn connect(addr: SocketAddr, traced: bool) -> Result<Conn, String> {
    if traced {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        Ok(Conn::Framed(stream, FrameReader::new()))
    } else {
        Ok(Conn::Client(
            Client::connect(addr).map_err(|e| format!("connect: {e}"))?,
        ))
    }
}

/// Closed loop of one TCP connection over one window (serve-tcp).
fn tcp_loop(
    addr: SocketAddr,
    oracle: &[u64],
    deck: &mut Deck,
    w: Window,
    tr: &mut Tracer,
    lane: u64,
    seq: &mut u64,
) -> Tally {
    let keys = mix::keys();
    let mut t = Tally::default();
    let mut conn = match connect(addr, w.traced) {
        Ok(c) => c,
        Err(_) => {
            t.attempted += 1;
            t.transport += 1;
            return t;
        }
    };
    while Instant::now() < w.end {
        let k = deck.draw();
        let (task, cfg) = keys[k];
        let req = request_id(lane, seq);
        let root = tr.open("request", None, req);
        t.attempted += 1;
        let query = tr.open("client.query", Some(root.id()), req);
        let start = Instant::now();
        let res = match &mut conn {
            Conn::Client(c) => query_client(c, task, cfg),
            Conn::Framed(s, r) => query_framed(s, r, task, cfg, tr, query.id(), req),
        };
        let latency = start.elapsed();
        tr.close(query);
        match res {
            Ok(Wire::Answer(out, bytes)) => {
                t.response_bytes += bytes;
                let ok = verify(tr, root.id(), req, &out, oracle[k]);
                t.answered(k, latency, ok);
            }
            Ok(Wire::Shed) => t.shed += 1,
            Ok(Wire::Refused) => t.refused += 1,
            Ok(Wire::Denied) => t.typed_errors += 1,
            Err(_) => {
                // The stream's state is unknown after a transport failure.
                t.transport += 1;
                tr.close(root);
                break;
            }
        }
        tr.close(root);
    }
    t
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

/// Measurements of the load phase, before they become metrics.
struct Load {
    /// One tally per window (untraced first).
    windows: Vec<(Window, Tally)>,
    spans: Vec<Span>,
    /// serve-tcp: server counters at the traced window's start and end,
    /// and the final counters after shutdown.
    server: Option<(StatsSnapshot, StatsSnapshot, StatsSnapshot)>,
    /// Warm-up answers of the load session were oracle-identical.
    warm_ok: bool,
}

/// Runs one workload end to end.
pub fn run(cfg: RunConfig) -> Result<RunReport, String> {
    let w = cfg.workload;
    let corpus = dataset::generate(w.dataset(), cfg.seed);
    let epoch = Instant::now();
    let mut setup_tr = Tracer::new(cfg.trace, epoch, 0);

    let mut setup = |rep: u64| {
        let input = TokenFiles::of(&corpus);
        let req = (1u64 << 39) | rep;
        match w {
            Workload::ServeTcp => setup_tcp(input, &mut setup_tr, req),
            _ => setup_in_process(input, &mut setup_tr, req),
        }
    };
    // The first timed set-up's archive serves the load; the other set-ups
    // run after it, so the memory they leave behind in the allocator does
    // not count towards the load's peak RSS.
    let first = setup(0)?;
    let (archive, dag) = (first.archive, first.dag);
    let mut setup_s = vec![first.seconds];
    let mut digests = vec![first.digests];

    // Oracle digests, before the load clock starts.
    let oracle: Vec<u64> = mix::keys()
        .into_iter()
        .map(|(task, c)| run_task(&archive, &dag, task, c).output.digest())
        .collect();
    let shape = Shape::of(w.dataset(), &corpus, &archive, &dag);

    let mut load = match w {
        Workload::QueryWarm | Workload::QueryCold => {
            load_in_process(cfg, &archive, &dag, &oracle, epoch)?
        }
        Workload::ServeTcp => load_tcp(cfg, &archive, &dag, &oracle, epoch)?,
    };
    let peak_rss_mb = peak_rss_mb().ok_or("VmHWM unavailable in /proc/self/status")?;
    for rep in 1..SETUP_REPS as u64 {
        let s = setup(rep)?;
        setup_s.push(s.seconds);
        digests.push(s.digests);
    }
    drop(corpus);
    let setup_median = median(&setup_s).ok_or("no set-up time")?;
    let mut gate = Vec::new();
    if digests.iter().any(|d| *d != oracle) {
        gate.push("a set-up warm-up answer diverged from the sequential oracle".to_string());
    }
    if !load.warm_ok {
        gate.push("a load-session warm-up answer diverged from the sequential oracle".into());
    }
    let mut spans = setup_tr.into_spans();
    spans.append(&mut load.spans);

    // serve-tcp traced runs replay the traced answers in-process to time the
    // cache hit and the response encode, which happen inside the server.
    let replay = match (w, cfg.trace) {
        (Workload::ServeTcp, true) => {
            let traced = &load.windows[load.windows.len() - 1].1;
            let order: Vec<usize> = traced.samples.iter().map(|s| s.0).collect();
            let mut tr = Tracer::new(true, epoch, 9);
            let tally = replay(&archive, &dag, &order, &mut tr)?;
            spans.extend(tr.into_spans());
            Some(tally)
        }
        _ => None,
    };

    let reported = &load.windows[load.windows.len() - 1];
    let tally = &reported.1;
    gate.extend(reconcile(&load, replay.as_ref()));

    let head = tally
        .headline(reported.0)
        .ok_or("no query was answered in the load window")?;
    let metrics = if cfg.trace {
        let (untraced, u) = &load.windows[0];
        let u = u
            .headline(*untraced)
            .ok_or("no query was answered in the untraced half")?;
        let worse =
            |traced: u64, untraced: u64| (traced as f64 - untraced as f64) / untraced as f64;
        let overhead = (
            (u.qps - head.qps) / u.qps,
            worse(head.p50_ns, u.p50_ns),
            worse(head.p90_ns, u.p90_ns),
        );
        let bytes_ratio = shape.compressed_bytes as f64 / shape.input_bytes.max(1) as f64;
        let layers = Layers {
            spans: &spans,
            tally,
            replay: replay.as_ref(),
            server: load.server.as_ref(),
        };
        per_layer(w, &layers, bytes_ratio, overhead)
    } else {
        let attempted = tally.attempted.max(1) as f64;
        vec![
            Metric::new("qps", "1/s", head.qps),
            Metric::new("latency_p50_ms", "ms", head.p50_ns as f64 / 1e6),
            Metric::new("latency_p90_ms", "ms", head.p90_ns as f64 / 1e6),
            Metric::new(
                "success_rate",
                "ratio",
                1.0 - tally.failed() as f64 / attempted,
            ),
            Metric::new("setup_s", "s", setup_median),
            Metric::new("peak_rss_mb", "MB", peak_rss_mb),
        ]
    };
    let mut irregular = tally.engine.irregular.clone();
    if let Some(r) = &replay {
        irregular.extend(r.irregular.iter().copied());
    }
    Ok(RunReport {
        cfg,
        shape,
        setup_s,
        attempted: tally.attempted,
        failed: tally.failed(),
        gate,
        metrics,
        absent: absent(w, cfg.trace),
        samples: head.samples,
        per_key: tally.per_key(),
        irregular_counts: irregular.into_iter().map(mix::label).collect(),
        span_summary: trace::summarize(&spans),
        spans,
    })
}

/// The correctness gate's reconciliations of one load: wrong answers, cache
/// probes, and the server's counters against what the clients saw.
fn reconcile(load: &Load, replay: Option<&EngineTally>) -> Vec<String> {
    let mut problems = Vec::new();
    let wrong: u64 = load.windows.iter().map(|(_, t)| t.wrong).sum();
    if wrong > 0 {
        problems.push(format!(
            "{wrong} answers diverged from the sequential oracle"
        ));
    }
    for (_, t) in &load.windows {
        if t.engine.probes != 0 {
            problems.push(format!(
                "{} queries probed a results cache that is off",
                t.engine.probes
            ));
        }
    }
    if let Some(r) = replay {
        // Every replayed query must have probed the cache.
        if r.probes != r.queries {
            problems.push(format!(
                "replay cache probes {} != queries {}",
                r.probes, r.queries
            ));
        }
    }
    if let Some((_, _, fin)) = &load.server {
        let client_answered: u64 = load
            .windows
            .iter()
            .map(|(_, t)| t.samples.len() as u64)
            .sum::<u64>()
            + mix::MIX.len() as u64;
        let client_shed: u64 = load.windows.iter().map(|(_, t)| t.shed).sum();
        if fin.protocol_errors != 0 {
            problems.push(format!(
                "server counted {} protocol errors",
                fin.protocol_errors
            ));
        }
        if fin.shed != client_shed {
            problems.push(format!(
                "clients saw {client_shed} sheds, server counted {}",
                fin.shed
            ));
        }
        if fin.queries_answered < client_answered {
            problems.push(format!(
                "server answered {} queries, clients received {client_answered}",
                fin.queries_answered
            ));
        }
    }
    problems
}

fn load_in_process(
    cfg: RunConfig,
    archive: &TadocArchive,
    dag: &Dag,
    oracle: &[u64],
    epoch: Instant,
) -> Result<Load, String> {
    // query-warm serves every query from one session, warmed here; query-cold
    // builds a fresh engine per query.
    let session = match cfg.workload {
        Workload::QueryWarm => Some(
            Engine::builder(archive, dag)
                .threads(ENGINE_THREADS)
                .build()
                .map_err(|e| format!("engine build: {e}"))?,
        ),
        _ => None,
    };
    let mut warm_ok = true;
    if let Some(engine) = &session {
        for (k, (task, c)) in mix::keys().into_iter().enumerate() {
            let exec = engine.run(task, c).map_err(|e| format!("warm-up: {e}"))?;
            warm_ok &= exec.output.digest() == oracle[k];
        }
    }
    let mut tr = Tracer::new(cfg.trace, epoch, 1);
    let mut deck = Deck::new(cfg.seed, 0);
    let mut seq = 0;
    let mut tallies = Vec::new();
    for win in windows(cfg.seconds, cfg.trace) {
        let mut off = Tracer::new(false, epoch, 1);
        let tr = if win.traced { &mut tr } else { &mut off };
        tallies.push((
            win,
            match &session {
                Some(engine) => warm_loop(engine, oracle, &mut deck, win, tr, &mut seq),
                None => cold_loop(archive, dag, oracle, &mut deck, win, tr, &mut seq),
            },
        ));
    }
    Ok(Load {
        windows: tallies,
        spans: tr.into_spans(),
        server: None,
        warm_ok,
    })
}

fn load_tcp(
    cfg: RunConfig,
    archive: &TadocArchive,
    dag: &Dag,
    oracle: &[u64],
    epoch: Instant,
) -> Result<Load, String> {
    let server =
        Server::bind(("127.0.0.1", 0), server_config()).map_err(|e| format!("bind: {e}"))?;
    let (addr, handle) = (server.local_addr(), server.handle());
    let clients = cfg.workload.clients();
    let (warm, lanes, marks, served) = thread::scope(|s| {
        let running = s.spawn(|| server.run(archive, dag));
        let warm = Client::connect(addr)
            .map_err(|e| format!("connect: {e}"))
            .and_then(|mut c| warm_over_tcp(&mut c));
        let wins = windows(cfg.seconds, cfg.trace);
        let lanes: Vec<_> = (0..clients as u64)
            .map(|lane| {
                let wins = wins.clone();
                s.spawn(move || {
                    let mut tr = Tracer::new(cfg.trace, epoch, 2 + lane);
                    let mut deck = Deck::new(cfg.seed, lane);
                    let mut seq = 0;
                    let mut tallies = Vec::new();
                    for win in wins {
                        let mut off = Tracer::new(false, epoch, 2 + lane);
                        let tr = if win.traced { &mut tr } else { &mut off };
                        tallies.push((
                            win,
                            tcp_loop(addr, oracle, &mut deck, win, tr, lane, &mut seq),
                        ));
                    }
                    (tallies, tr.into_spans())
                })
            })
            .collect();
        // Server counters around the traced (last) window.
        let last = wins[wins.len() - 1];
        thread::sleep(last.start.saturating_duration_since(Instant::now()));
        let at_start = handle.stats();
        let lanes: Vec<_> = lanes.into_iter().map(|h| h.join()).collect();
        let at_end = handle.stats();
        handle.shutdown();
        (warm, lanes, (at_start, at_end), running.join())
    });
    let fin = served
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("server: {e}"))?;
    let warm = warm?;
    let warm_ok = warm.iter().zip(oracle).all(|(o, &d)| o.digest() == d);
    let mut spans = Vec::new();
    let mut merged: Vec<(Window, Tally)> = Vec::new();
    for lane in lanes {
        let (tallies, lane_spans) = lane.map_err(|_| "client thread panicked".to_string())?;
        spans.extend(lane_spans);
        for (i, (win, t)) in tallies.into_iter().enumerate() {
            if merged.len() <= i {
                merged.push((win, Tally::default()));
            }
            merged[i].1.merge(t);
        }
    }
    Ok(Load {
        windows: merged,
        spans,
        server: Some((marks.0, marks.1, fin)),
        warm_ok,
    })
}

/// Replays the traced serve-tcp key order on an in-process session with the
/// results cache on: `engine.run` (a cache hit) and `protocol.encode` of the
/// same answer, each in its own span.
fn replay(
    archive: &TadocArchive,
    dag: &Dag,
    order: &[usize],
    tr: &mut Tracer,
) -> Result<EngineTally, String> {
    let keys = mix::keys();
    let req0 = 9u64 << 40;
    let engine = tr
        .span("engine.build", None, req0, || {
            Engine::builder(archive, dag)
                .threads(ENGINE_THREADS)
                .results_cache(true)
                .build()
        })
        .map_err(|e| format!("replay build: {e}"))?;
    for (task, cfg) in &keys {
        tr.span("setup.warm", None, req0, || engine.run(*task, *cfg))
            .map_err(|e| format!("replay warm-up: {e}"))?;
    }
    let mut tally = EngineTally::default();
    for (i, &k) in order.iter().take(REPLAY_CAP).enumerate() {
        let req = req0 | (i as u64 + 1);
        let (task, cfg) = keys[k];
        let (epochs, fills) = (engine.epochs(), engine.analysis_fills());
        let exec = tr
            .span("engine.run", None, req, || engine.run(task, cfg))
            .map_err(|e| format!("replay: {e}"))?;
        if exec.timings.results_cache.is_some_and(|c| c.hit) {
            tally.hit_ns += tr.last_ns();
        }
        tally.record(
            k,
            &exec.timings,
            engine.epochs() - epochs,
            engine.analysis_fills() - fills,
        );
        let resp = Response::Result(exec.output);
        let frame = tr.span("protocol.encode", None, req, || encode_response(&resp));
        std::hint::black_box(frame);
    }
    let (hits, misses) = engine
        .results_cache_counters()
        .ok_or("replay cache is off")?;
    if hits + misses != tally.queries + keys.len() as u64 {
        return Err(format!(
            "replay cache counters {hits}+{misses} do not reconcile with {} queries",
            tally.queries + keys.len() as u64
        ));
    }
    Ok(tally)
}

/// Values no outside observer can see on `w`.
fn absent(w: Workload, trace: bool) -> Vec<Absent> {
    if w != Workload::ServeTcp || !trace {
        return Vec::new();
    }
    vec![
        Absent {
            name: "server.results_cache_hits",
            reason: "the Stats frame (protocol v1) has no results-cache counters; \
                     results_cache.* are measured on an in-process replay session",
        },
        Absent {
            name: "server.engine_build_ms",
            reason: "Server::run builds its engine internally; engine.build_ms is the \
                     replay session's build",
        },
        Absent {
            name: "server.queue_wait_us",
            reason: "queue wait is server-internal; it is part of the derived \
                     server.residual_us",
        },
    ]
}

/// Per-query mean of the durations of spans named `name`, in µs.
fn per_query_us(summary: &BTreeMap<&'static str, (u64, u64, u64)>, name: &str, n: u64) -> f64 {
    summary
        .get(name)
        .map_or(0.0, |s| s.1 as f64 / 1e3 / n.max(1) as f64)
}

/// Median duration of spans named `name`, in ms.
fn median_ms(spans: &[Span], name: &str) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    median(&d).unwrap_or(0.0)
}

/// What the traced run recorded, by source.
struct Layers<'r> {
    spans: &'r [Span],
    tally: &'r Tally,
    replay: Option<&'r EngineTally>,
    server: Option<&'r (StatsSnapshot, StatsSnapshot, StatsSnapshot)>,
}

fn per_layer(
    w: Workload,
    l: &Layers<'_>,
    bytes_ratio: f64,
    (qps_overhead, p50_overhead, p90_overhead): (f64, f64, f64),
) -> Vec<Metric> {
    let Layers {
        spans,
        tally,
        replay,
        server,
    } = *l;
    let summary = trace::summarize(spans);
    let answered = tally.samples.len() as u64;
    // Engine-layer numbers come from the queries the engine ran: the load
    // session in-process, the replay session for serve-tcp.
    let eng = replay.unwrap_or(&tally.engine);
    let n_eng = eng.queries;
    let engine_run_us = per_query_us(&summary, "engine.run", n_eng);
    let encode_us = per_query_us(&summary, "protocol.encode", n_eng);
    let hit_us = eng.per_query(eng.hit_ns) / 1e3;
    let roundtrip_us = per_query_us(&summary, "client.roundtrip", answered);
    let residual_us = if w == Workload::ServeTcp {
        roundtrip_us - hit_us - encode_us
    } else {
        0.0
    };
    let (delta, max_depth) = match server {
        Some((a, b, fin)) => (
            (
                b.batched_queries - a.batched_queries,
                b.queries_answered - a.queries_answered,
                b.shed - a.shed,
                b.refused - a.refused,
                b.protocol_errors - a.protocol_errors,
            ),
            fin.max_queue_depth,
        ),
        None => ((0, 0, 0, 0, 0), 0),
    };
    let verify_ns = summary.get("check.verify").map_or(0, |s| s.1);
    let loop_ns = summary.get("request").map_or(0, |s| s.1);
    let m = Metric::new;
    vec![
        m(
            "sequitur.compress_ms",
            "ms",
            median_ms(spans, "sequitur.compress"),
        ),
        m("sequitur.dag_ms", "ms", median_ms(spans, "sequitur.dag")),
        m(
            "sequitur.compressed_bytes_per_input_byte",
            "ratio",
            bytes_ratio,
        ),
        m("engine.build_ms", "ms", median_ms(spans, "engine.build")),
        m(
            "engine.shared_init_us",
            "us",
            eng.per_query(eng.shared_init_ns) / 1e3,
        ),
        m("engine.analysis_fills", "count", eng.per_query(eng.fills)),
        m("engine.run_us", "us", engine_run_us),
        m(
            "engine.traversal_us",
            "us",
            eng.per_query(eng.traversal_ns) / 1e3,
        ),
        m(
            "engine.finalize_us",
            "us",
            eng.per_query(eng.finalize_ns) / 1e3,
        ),
        m(
            "engine.epochs_per_query",
            "count",
            eng.per_query(eng.epochs),
        ),
        m(
            "engine.table_ops_per_query",
            "count",
            eng.per_query(eng.table_ops),
        ),
        m(
            "engine.elements_scanned_per_query",
            "count",
            eng.per_query(eng.elements),
        ),
        m("engine.degraded", "count", eng.degraded as f64),
        m("results_cache.hit_ratio", "ratio", eng.per_query(eng.hits)),
        m("results_cache.hit_us", "us", hit_us),
        m("protocol.encode_us", "us", encode_us),
        m(
            "protocol.response_bytes",
            "bytes",
            tally.response_bytes as f64 / answered.max(1) as f64,
        ),
        m(
            "protocol.decode_us",
            "us",
            per_query_us(&summary, "protocol.decode", answered),
        ),
        m("client.roundtrip_us", "us", roundtrip_us),
        m("server.residual_us", "us", residual_us),
        m("server.max_queue_depth", "count", max_depth as f64),
        m(
            "server.batched_ratio",
            "ratio",
            delta.0 as f64 / delta.1.max(1) as f64,
        ),
        m("server.shed", "count", delta.2 as f64),
        m("server.refused", "count", delta.3 as f64),
        m("server.protocol_errors", "count", delta.4 as f64),
        m(
            "check.verify_us",
            "us",
            verify_ns as f64 / 1e3 / answered.max(1) as f64,
        ),
        m(
            "check.verify_share",
            "ratio",
            verify_ns as f64 / loop_ns.max(1) as f64,
        ),
        m("trace.qps_overhead", "ratio", qps_overhead),
        m("trace.p50_overhead", "ratio", p50_overhead),
        m("trace.p90_overhead", "ratio", p90_overhead),
    ]
}

/// Peak resident set (VmHWM) of this process, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
