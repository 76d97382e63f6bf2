//! The TCP serving front end: acceptor, connection handler pool, bounded
//! admission queue, executors over one shared [`Engine`] session.
//!
//! Thread shape (all std threads inside one [`std::thread::scope`]):
//!
//! ```text
//! acceptor ──┬─> conn channel ──> handler pool (N threads, one connection
//!            │                    at a time each): frame I/O + admission
//!            │                        │ try_push (shed on full)
//!            │                        v
//!            │                  AdmissionQueue (bounded)
//!            │                        │ pop (one job per turn)
//!            │                        v
//!            └─ poke on shutdown  executors ──> shared Engine (&self)
//! ```
//!
//! Admission contract: handlers **never block and never queue unboundedly**
//! — a full queue sheds the request immediately with
//! [`Response::Overloaded`].  Executors are the only callers of the engine:
//! each pops one admitted query and runs it through [`Engine::run_with`]
//! with the query's deadline and the server's drain [`CancelToken`].  Work
//! is shared through the engine's once-filled analysis layer, not by
//! grouping queries.
//!
//! Graceful shutdown (a [`Request::Shutdown`] frame or
//! [`ServerHandle::shutdown`]): the acceptor stops, and a watchdog starts
//! that cancels the drain token if draining exceeds
//! [`ServerConfig::drain_timeout`], so shutdown always terminates.  Each
//! open connection answers the frame in hand (new queries get
//! `ShuttingDown`) and closes, so a client that keeps sending cannot hold
//! the server open.  Admitted queries drain to completion or cancellation.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use failpoints::fail_point;
use sequitur::{Dag, TadocArchive};
use tadoc::apps::{Task, TaskConfig};
use tadoc::fine_grained::{CancelToken, Engine, EngineError, QueryOptions};

use crate::framing::{FrameReadError, FrameReader, ReadOutcome};
use crate::protocol::{
    encode_response, is_framing_fatal, parse_request, Request, Response, StatsSnapshot, WireError,
    WireErrorCode,
};
use crate::queue::{AdmissionQueue, Push};

/// Serving configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connection handler threads (each serves one connection at a time).
    pub handler_threads: usize,
    /// Executor threads running admitted queries on the engine.
    pub executor_threads: usize,
    /// Admission queue capacity; a full queue sheds with `Overloaded`.
    pub queue_depth: usize,
    /// Worker threads of the underlying engine session.
    pub engine_threads: usize,
    /// Whether the engine's results cache is enabled.
    pub results_cache: bool,
    /// How long a graceful shutdown may spend draining admitted queries
    /// before the drain token cancels the remainder.
    pub drain_timeout: Duration,
    /// Socket read timeout: how often an idle connection polls the
    /// shutdown flag.
    pub read_poll: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            handler_threads: 4,
            executor_threads: 1,
            queue_depth: 64,
            engine_threads: 2,
            results_cache: true,
            drain_timeout: Duration::from_secs(5),
            read_poll: Duration::from_millis(25),
        }
    }
}

/// Serving failures that abort the server itself (per-query failures travel
/// back to clients as typed [`Response::Error`]s instead).
#[derive(Debug)]
pub enum ServerError {
    /// Binding the listen socket failed.
    Bind(io::Error),
    /// The engine session could not be built.
    Engine(EngineError),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Bind(e) => write!(f, "failed to bind listen socket: {e}"),
            ServerError::Engine(e) => write!(f, "failed to build engine session: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<EngineError> for ServerError {
    fn from(e: EngineError) -> Self {
        ServerError::Engine(e)
    }
}

/// Cumulative counters, shared between the serving threads and any
/// [`ServerHandle`].
#[derive(Debug, Default)]
struct Counters {
    accepted_connections: AtomicU64,
    queries_answered: AtomicU64,
    shed: AtomicU64,
    refused: AtomicU64,
    max_queue_depth: AtomicU64,
    protocol_errors: AtomicU64,
}

impl Counters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            accepted_connections: self.accepted_connections.load(Ordering::Relaxed),
            queries_answered: self.queries_answered.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            batches: 0,
            batched_queries: 0,
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
        }
    }
}

/// State shared between the server's threads and detached handles.
#[derive(Debug)]
struct Shared {
    shutdown_flag: AtomicBool,
    addr: SocketAddr,
    counters: Counters,
}

impl Shared {
    fn is_shutting_down(&self) -> bool {
        self.shutdown_flag.load(Ordering::Acquire)
    }

    /// Sets the shutdown flag and pokes the acceptor awake with a throwaway
    /// loopback connection so a blocked `accept` observes the flag.
    fn trigger_shutdown(&self) {
        self.shutdown_flag.store(true, Ordering::Release);
        drop(TcpStream::connect_timeout(
            &self.addr,
            Duration::from_millis(500),
        ));
    }
}

/// A detached, cloneable handle to a running (or bound) server: signal
/// shutdown and read counters without holding the server itself.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Begins graceful shutdown: stop accepting, drain admitted queries,
    /// then return from [`Server::run`].
    pub fn shutdown(&self) {
        self.shared.trigger_shutdown();
    }

    /// Whether shutdown has been signalled.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.is_shutting_down()
    }

    /// Snapshot of the server's counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.counters.snapshot()
    }
}

/// One admitted query: what to run, its limits, and where the handler waits
/// for the answer.
struct Job {
    task: Task,
    cfg: TaskConfig,
    /// Absolute expiry, measured from admission (queue wait counts).
    deadline: Option<Instant>,
    reply: mpsc::SyncSender<Response>,
}

/// A bound-but-not-yet-running server.
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listen socket (use port 0 for an ephemeral port).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> Result<Server, ServerError> {
        let listener = TcpListener::bind(addr).map_err(ServerError::Bind)?;
        let addr = listener.local_addr().map_err(ServerError::Bind)?;
        Ok(Server {
            listener,
            config,
            shared: Arc::new(Shared {
                shutdown_flag: AtomicBool::new(false),
                addr,
                counters: Counters::default(),
            }),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A detached handle for shutdown and stats.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until shutdown is signalled, then drains and returns the
    /// final counters.  Blocks the calling thread for the server's whole
    /// lifetime.
    pub fn run(self, archive: &TadocArchive, dag: &Dag) -> Result<StatsSnapshot, ServerError> {
        let engine = Engine::builder(archive, dag)
            .threads(self.config.engine_threads)
            .results_cache(self.config.results_cache)
            .build()?;
        let queue = AdmissionQueue::new(self.config.queue_depth);
        let drain_cancel = CancelToken::new();
        let config = &self.config;
        let shared = &*self.shared;
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Mutex::new(conn_rx);
        let drained = AtomicBool::new(false);

        thread::scope(|s| {
            let executors: Vec<_> = (0..config.executor_threads.max(1))
                .map(|_| {
                    let drain_cancel = drain_cancel.clone();
                    let (engine, queue) = (&engine, &queue);
                    s.spawn(move || executor_loop(engine, queue, shared, &drain_cancel))
                })
                .collect();
            let handlers: Vec<_> = (0..config.handler_threads.max(1))
                .map(|_| {
                    let (conn_rx, queue) = (&conn_rx, &queue);
                    s.spawn(move || handler_loop(conn_rx, queue, shared, config))
                })
                .collect();

            accept_loop(&self.listener, &conn_tx, shared);

            // Shutdown: the drain is bounded from here on.  Handlers wait
            // for their in-flight replies, so the watchdog must run while
            // they are still joining, not after.
            let watchdog = s.spawn(|| {
                let expiry = Instant::now() + config.drain_timeout;
                while !drained.load(Ordering::Acquire) {
                    if Instant::now() >= expiry {
                        drain_cancel.cancel();
                        break;
                    }
                    thread::sleep(Duration::from_millis(10));
                }
            });
            // No new connections; handlers answer the frame in hand on
            // their current connection, then exit.
            drop(conn_tx);
            for h in handlers {
                drop(h.join());
            }
            // Every pusher is gone: executors finish what was admitted.
            queue.close();
            for e in executors {
                drop(e.join());
            }
            drained.store(true, Ordering::Release);
            drop(watchdog.join());
        });

        Ok(shared.counters.snapshot())
    }
}

/// Accepts connections until shutdown is signalled, handing each stream to
/// the handler pool.
fn accept_loop(listener: &TcpListener, conn_tx: &mpsc::Sender<TcpStream>, shared: &Shared) {
    for stream in listener.incoming() {
        if shared.is_shutting_down() {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        // Fault injection: a dropped connection at accept time must leave
        // the pool serving everyone else.
        fail_point!("server-accept", {
            drop(stream);
            continue;
        });
        if conn_tx.send(stream).is_err() {
            break;
        }
    }
}

/// Admission with a fault-injection site: an armed `server-queue` behaves
/// exactly like a full queue, so shedding is testable deterministically.
fn submit(queue: &AdmissionQueue<Job>, job: Job) -> Push<Job> {
    fail_point!("server-queue", return Push::Full(job));
    queue.try_push(job)
}

/// Handler thread: picks up one connection at a time and serves it to
/// completion.
fn handler_loop(
    conn_rx: &Mutex<mpsc::Receiver<TcpStream>>,
    queue: &AdmissionQueue<Job>,
    shared: &Shared,
    config: &ServerConfig,
) {
    loop {
        let stream = {
            let rx = conn_rx.lock().unwrap_or_else(PoisonError::into_inner);
            match rx.recv() {
                Ok(s) => s,
                Err(_) => break,
            }
        };
        Counters::bump(&shared.counters.accepted_connections);
        // One misbehaving connection must not take the handler down.
        drop(catch_unwind(AssertUnwindSafe(|| {
            drop(serve_connection(stream, queue, shared, config));
        })));
    }
}

/// Serves one connection until the peer closes, the stream breaks, framing
/// becomes unrecoverable, or shutdown is signalled (checked before every
/// read, so a client that never goes idle cannot hold the server open).
fn serve_connection(
    mut stream: TcpStream,
    queue: &AdmissionQueue<Job>,
    shared: &Shared,
    config: &ServerConfig,
) -> io::Result<()> {
    stream.set_read_timeout(Some(config.read_poll))?;
    stream.set_nodelay(true)?;
    let mut reader = FrameReader::new();
    while !shared.is_shutting_down() {
        let (kind, payload) = match reader.read_frame(&mut stream) {
            Ok(ReadOutcome::Frame { kind, payload }) => (kind, payload),
            Ok(ReadOutcome::Idle) => continue,
            Ok(ReadOutcome::Closed) => return Ok(()),
            Err(FrameReadError::Protocol(e)) => {
                // Unrecoverable framing: answer with a typed error, then
                // close — the stream has no next frame boundary.
                Counters::bump(&shared.counters.protocol_errors);
                let resp = Response::Error(WireError::new(WireErrorCode::Protocol, e.to_string()));
                drop(write_response(&mut stream, &resp));
                return Ok(());
            }
            Err(FrameReadError::Io(e)) => return Err(e),
        };
        let request = match parse_request(kind, &payload) {
            Ok(r) => r,
            Err(e) => {
                // A payload-level error inside a well-formed frame leaves
                // the stream in sync: answer and keep serving.
                Counters::bump(&shared.counters.protocol_errors);
                let resp = Response::Error(WireError::new(WireErrorCode::Protocol, e.to_string()));
                write_response(&mut stream, &resp)?;
                if is_framing_fatal(&e) {
                    return Ok(());
                }
                continue;
            }
        };
        match request {
            Request::Stats => {
                write_response(&mut stream, &Response::Stats(shared.counters.snapshot()))?;
            }
            Request::Shutdown => {
                write_response(&mut stream, &Response::ShutdownAck)?;
                shared.trigger_shutdown();
            }
            Request::Query(q) => {
                let resp = admit_query(q, queue, shared);
                write_response(&mut stream, &resp)?;
            }
        }
    }
    Ok(())
}

/// Admits one query (or sheds/refuses it) and waits for its answer.
fn admit_query(
    q: crate::protocol::QueryRequest,
    queue: &AdmissionQueue<Job>,
    shared: &Shared,
) -> Response {
    if shared.is_shutting_down() {
        Counters::bump(&shared.counters.refused);
        return Response::Error(WireError::new(
            WireErrorCode::ShuttingDown,
            "server is shutting down",
        ));
    }
    let (reply_tx, reply_rx) = mpsc::sync_channel::<Response>(1);
    let job = Job {
        task: q.task,
        cfg: q.cfg,
        deadline: q
            .deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms)),
        reply: reply_tx,
    };
    match submit(queue, job) {
        Push::Queued { depth } => {
            shared
                .counters
                .max_queue_depth
                .fetch_max(depth as u64, Ordering::Relaxed);
            match reply_rx.recv() {
                Ok(resp) => resp,
                // The executor died mid-query; its catch_unwind normally
                // answers, so this is a last-resort fallback.
                Err(_) => Response::Error(WireError::new(
                    WireErrorCode::Internal,
                    "executor dropped the query",
                )),
            }
        }
        Push::Full(_) => {
            Counters::bump(&shared.counters.shed);
            Response::Overloaded {
                queue_depth: queue.depth().min(u32::MAX as usize) as u32,
                capacity: queue.capacity().min(u32::MAX as usize) as u32,
            }
        }
    }
}

fn write_response(stream: &mut TcpStream, resp: &Response) -> io::Result<()> {
    crate::framing::write_frame(stream, &encode_response(resp))
}

/// Executor thread: runs admitted queries one at a time on the shared
/// engine session until the queue is closed **and** empty.
fn executor_loop(
    engine: &Engine<'_>,
    queue: &AdmissionQueue<Job>,
    shared: &Shared,
    drain_cancel: &CancelToken,
) {
    while let Some(job) = queue.pop() {
        let resp = run_one(engine, &job, drain_cancel);
        Counters::bump(&shared.counters.queries_answered);
        drop(job.reply.send(resp));
    }
}

/// Runs one query under its limits; never unwinds.
fn run_one(engine: &Engine<'_>, job: &Job, drain_cancel: &CancelToken) -> Response {
    let opts = QueryOptions {
        // Queue wait counts against the deadline: whatever budget remains
        // at execution time is the engine's budget (zero means the
        // pre-flight check answers `DeadlineExceeded` without running).
        deadline: job
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now())),
        cancel: Some(drain_cancel.clone()),
    };
    match catch_unwind(AssertUnwindSafe(|| {
        engine.run_with(job.task, job.cfg, &opts)
    })) {
        Ok(Ok(exec)) => Response::Result(exec.output),
        Ok(Err(e)) => Response::Error(WireError::from(&e)),
        Err(_) => Response::Error(WireError::new(
            WireErrorCode::Internal,
            "query execution panicked",
        )),
    }
}
