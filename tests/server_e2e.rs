//! End-to-end tests for the network serving subsystem: a real
//! `tadoc-server` on an ephemeral loopback port, driven by real TCP
//! clients.
//!
//! The contract under test: concurrent clients receive answers
//! byte-identical to the sequential oracle; malformed, truncated and
//! oversized frames get **typed** protocol errors without taking the
//! handler pool down; a full admission queue sheds with `Overloaded`
//! instead of queuing unboundedly; expired deadlines answer
//! `DeadlineExceeded`; and graceful shutdown drains admitted work before
//! the listener goes away, promptly even while a client keeps sending.

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use g_tadoc_repro::prelude::*;
use server::framing::{FrameReader, ReadOutcome};
use server::protocol::{
    encode_request, parse_response, QueryRequest, Request, Response, StatsSnapshot, WireErrorCode,
    HEADER_LEN, MAGIC, MAX_PAYLOAD_LEN, VERSION,
};
use server::server::{Server, ServerConfig, ServerHandle};
use server::{Client, QueryOutcome};

fn corpus() -> Vec<(String, String)> {
    let shared = "the quick brown fox jumps over the lazy dog while the cat watches ".repeat(6);
    (0..16)
        .map(|i| (format!("doc{i}"), format!("{shared} topic{} {shared}", i % 5)))
        .collect()
}

/// A corpus big enough that one cold query comfortably overlaps other
/// clients' admissions (used by the shed and drain tests).
fn large_corpus() -> Vec<(String, String)> {
    let page = "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu ".repeat(40);
    (0..8)
        .map(|i| (format!("book{i}"), format!("{page} chapter{i} {page}")))
        .collect()
}

fn oracle_digests(archive: &TadocArchive, dag: &Dag) -> HashMap<(Task, TaskConfig), u64> {
    Task::ALL
        .into_iter()
        .map(|t| {
            let cfg = TaskConfig::default();
            ((t, cfg), run_task(archive, dag, t, cfg).output.digest())
        })
        .collect()
}

/// The failpoint registry is process-global: a site armed by one test
/// would fire in any server running alongside it.  Every test in this file
/// holds this lock, so its server is the only one running.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Triggers shutdown when dropped, so a panicking test body still lets the
/// server thread (and the enclosing `thread::scope`) finish.
struct ShutdownOnDrop(ServerHandle);

impl Drop for ShutdownOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Binds an ephemeral loopback port, runs the server for the duration of
/// `body`, then shuts it down and returns the final stats.
fn with_server<F>(config: ServerConfig, archive: &TadocArchive, dag: &Dag, body: F) -> StatsSnapshot
where
    F: FnOnce(&ServerHandle),
{
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let handle = server.handle();
    let mut stats = None;
    std::thread::scope(|s| {
        let runner = s.spawn(|| server.run(archive, dag).expect("server run"));
        {
            let _guard = ShutdownOnDrop(handle.clone());
            body(&handle);
        }
        stats = Some(runner.join().expect("server thread panicked"));
    });
    stats.expect("server stats")
}

/// Reads exactly one response frame off a raw stream (blocking).
fn read_response(stream: &mut TcpStream, reader: &mut FrameReader) -> Response {
    loop {
        match reader.read_frame(stream).expect("read response frame") {
            ReadOutcome::Frame { kind, payload } => {
                return parse_response(kind, &payload).expect("parse response")
            }
            ReadOutcome::Idle => continue,
            ReadOutcome::Closed => panic!("server closed the stream before responding"),
        }
    }
}

fn assert_protocol_error(resp: &Response) {
    match resp {
        Response::Error(e) => assert_eq!(
            e.code,
            WireErrorCode::Protocol,
            "expected a protocol error, got {:?}: {}",
            e.code,
            e.message
        ),
        other => panic!("expected a typed protocol error, got {other:?}"),
    }
}

/// ≥4 concurrent TCP clients running the full task mix against one server:
/// every answer must match the sequential oracle's digest.
#[test]
fn concurrent_tcp_clients_get_oracle_identical_answers() {
    let _guard = serial();
    let archive = compress_corpus(&corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let oracle = oracle_digests(&archive, &dag);

    let config = ServerConfig {
        handler_threads: 6,
        ..ServerConfig::default()
    };
    let stats = with_server(config, &archive, &dag, |handle| {
        std::thread::scope(|s| {
            for c in 0..5usize {
                let addr = handle.addr();
                let oracle = &oracle;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    for i in 0..2 * Task::ALL.len() {
                        let task = Task::ALL[(c + i) % Task::ALL.len()];
                        let cfg = TaskConfig::default();
                        match client.query(task, cfg).expect("query round trip") {
                            QueryOutcome::Ok(out) => assert_eq!(
                                Some(&out.digest()),
                                oracle.get(&(task, cfg)),
                                "client {c}: {} diverged from the oracle over TCP",
                                task.name()
                            ),
                            other => panic!("client {c}: unexpected outcome {other:?}"),
                        }
                    }
                });
            }
        });
    });
    assert_eq!(stats.queries_answered, 5 * 2 * Task::ALL.len() as u64);
    assert_eq!(stats.protocol_errors, 0);
    assert!(stats.accepted_connections >= 5);
}

/// Malformed, truncated and oversized frames each get a **typed** protocol
/// error; non-fatal ones leave the same connection usable; and the handler
/// pool keeps serving fresh clients afterwards.
#[test]
fn bad_frames_get_typed_errors_without_killing_the_pool() {
    let _guard = serial();
    let archive = compress_corpus(&corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let wc_digest = run_task(&archive, &dag, Task::WordCount, TaskConfig::default())
        .output
        .digest();

    let valid_query = encode_request(&Request::Query(QueryRequest {
        task: Task::WordCount,
        cfg: TaskConfig::default(),
        deadline_ms: None,
    }));
    let query_kind = valid_query[5];

    let stats = with_server(ServerConfig::default(), &archive, &dag, |handle| {
        let addr = handle.addr();

        // Bad magic: fatal — typed error, then the server closes.
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(&[0xFFu8; 64]).expect("write garbage");
        assert_protocol_error(&read_response(&mut s, &mut FrameReader::new()));
        drop(s);

        // Oversized declared length: fatal, rejected from the header alone.
        let mut s = TcpStream::connect(addr).expect("connect");
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.push(VERSION);
        frame.push(query_kind);
        frame.extend_from_slice(&(MAX_PAYLOAD_LEN + 1).to_le_bytes());
        s.write_all(&frame).expect("write oversized header");
        assert_protocol_error(&read_response(&mut s, &mut FrameReader::new()));
        drop(s);

        // Truncated frame then EOF: fatal.
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(&valid_query[..valid_query.len() - 2])
            .expect("write truncated frame");
        s.shutdown(std::net::Shutdown::Write).expect("half-close");
        assert_protocol_error(&read_response(&mut s, &mut FrameReader::new()));
        drop(s);

        // Unsupported version: fatal.
        let mut s = TcpStream::connect(addr).expect("connect");
        let mut frame = valid_query.clone();
        frame[4] = VERSION + 1;
        s.write_all(&frame).expect("write future-version frame");
        assert_protocol_error(&read_response(&mut s, &mut FrameReader::new()));
        drop(s);

        // Unknown kind and malformed payload are NON-fatal: the same
        // connection must answer a valid query afterwards.
        let mut s = TcpStream::connect(addr).expect("connect");
        let mut reader = FrameReader::new();
        let mut unknown = Vec::new();
        unknown.extend_from_slice(&MAGIC);
        unknown.push(VERSION);
        unknown.push(0x7f);
        unknown.extend_from_slice(&0u32.to_le_bytes());
        s.write_all(&unknown).expect("write unknown kind");
        assert_protocol_error(&read_response(&mut s, &mut reader));

        let mut corrupt = valid_query.clone();
        corrupt[HEADER_LEN] = 0xEE; // unknown task tag
        s.write_all(&corrupt).expect("write corrupt payload");
        assert_protocol_error(&read_response(&mut s, &mut reader));

        s.write_all(&valid_query).expect("write valid query");
        match read_response(&mut s, &mut reader) {
            Response::Result(out) => assert_eq!(out.digest(), wc_digest),
            other => panic!("expected a result on the surviving stream, got {other:?}"),
        }
        drop(s);

        // A fresh client still gets oracle-correct answers: the pool is up.
        let mut client = Client::connect(addr).expect("connect after abuse");
        match client
            .query(Task::WordCount, TaskConfig::default())
            .expect("query")
        {
            QueryOutcome::Ok(out) => assert_eq!(out.digest(), wc_digest),
            other => panic!("unexpected outcome {other:?}"),
        }
        let snap = client.stats().expect("stats");
        assert!(
            snap.protocol_errors >= 6,
            "expected ≥6 protocol errors counted, got {}",
            snap.protocol_errors
        );
    });
    assert!(stats.protocol_errors >= 6);
    assert_eq!(stats.queries_answered, 2);
}

/// A saturated admission queue sheds with `Overloaded` instead of queuing
/// unboundedly: capacity 1, one executor, many closed-loop clients.
#[test]
fn full_queue_sheds_with_overloaded() {
    let _guard = serial();
    let archive = compress_corpus(&large_corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let digest = run_task(&archive, &dag, Task::WordCount, TaskConfig::default())
        .output
        .digest();

    let config = ServerConfig {
        handler_threads: 8,
        executor_threads: 1,
        queue_depth: 1,
        results_cache: false, // cache hits would finish too fast to overlap
        ..ServerConfig::default()
    };
    let stats = with_server(config, &archive, &dag, |handle| {
        let shed = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..6usize {
                let addr = handle.addr();
                let shed = &shed;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    for _ in 0..30 {
                        match client
                            .query(Task::WordCount, TaskConfig::default())
                            .expect("query round trip")
                        {
                            QueryOutcome::Ok(out) => assert_eq!(out.digest(), digest),
                            QueryOutcome::Overloaded {
                                queue_depth,
                                capacity,
                            } => {
                                assert!(queue_depth <= capacity);
                                assert_eq!(capacity, 1);
                                shed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                            QueryOutcome::Denied(e) => {
                                panic!("unexpected denial: {:?} {}", e.code, e.message)
                            }
                        }
                    }
                });
            }
        });
        assert!(
            shed.load(std::sync::atomic::Ordering::Relaxed) > 0,
            "6 closed-loop clients against a capacity-1 queue never saw Overloaded"
        );
    });
    assert!(stats.shed > 0);
    assert!(stats.max_queue_depth <= 1);
    assert_eq!(stats.refused, 0);
}

/// An already-expired deadline (`deadline_ms: 0`) answers
/// `DeadlineExceeded` without executing, and the engine keeps serving the
/// same connection afterwards.  (In-flight expiry is covered
/// deterministically by `faults::inflight_deadline_expiry`, which stalls
/// execution at a chunk boundary.)
#[test]
fn expired_deadlines_answer_deadline_exceeded() {
    let _guard = serial();
    let archive = compress_corpus(&corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);

    let stats = with_server(ServerConfig::default(), &archive, &dag, |handle| {
        let mut client = Client::connect(handle.addr()).expect("connect");

        // Already expired on arrival: never executes.
        match client
            .query_with_deadline(Task::WordCount, TaskConfig::default(), 0)
            .expect("round trip")
        {
            QueryOutcome::Denied(e) => assert_eq!(e.code, WireErrorCode::DeadlineExceeded),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }

        // The engine is unharmed: the same connection then gets a real
        // answer with no deadline.
        match client
            .query(Task::WordCount, TaskConfig::default())
            .expect("round trip")
        {
            QueryOutcome::Ok(out) => {
                let oracle = run_task(&archive, &dag, Task::WordCount, TaskConfig::default());
                assert_eq!(out.digest(), oracle.output.digest());
            }
            other => panic!("expected a result, got {other:?}"),
        }
    });
    assert_eq!(stats.queries_answered, 2);
}

/// Graceful shutdown drains: a query in flight when `Shutdown` arrives is
/// still answered (oracle-identical), the listener then goes away, and new
/// connections are refused.
#[test]
fn graceful_shutdown_drains_inflight_queries() {
    let _guard = serial();
    let archive = compress_corpus(&large_corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let digest = run_task(&archive, &dag, Task::SequenceCount, TaskConfig::default())
        .output
        .digest();

    let config = ServerConfig {
        results_cache: false,
        ..ServerConfig::default()
    };
    let mut addr = None;
    let stats = with_server(config, &archive, &dag, |handle| {
        addr = Some(handle.addr());
        std::thread::scope(|s| {
            let addr = handle.addr();
            let worker = s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client
                    .query(Task::SequenceCount, TaskConfig::default())
                    .expect("round trip")
            });
            // Let the query reach the executor, then ask for shutdown.
            std::thread::sleep(Duration::from_millis(5));
            let mut admin = Client::connect(addr).expect("connect admin");
            admin.shutdown_server().expect("shutdown ack");

            match worker.join().expect("client thread") {
                QueryOutcome::Ok(out) => assert_eq!(
                    out.digest(),
                    digest,
                    "in-flight query diverged during graceful shutdown"
                ),
                other => panic!("in-flight query was not drained: {other:?}"),
            }
        });
    });
    assert!(stats.queries_answered >= 1);
    // The listener is gone: fresh connections fail outright.
    let addr = addr.expect("server address");
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener still accepting after graceful shutdown"
    );
}

/// Serves on a background thread, runs `before_shutdown` against the live
/// server, then signals shutdown and returns how long `run` took to return.
fn shutdown_latency(
    config: ServerConfig,
    archive: &TadocArchive,
    dag: &Dag,
    before_shutdown: impl FnOnce(&ServerHandle),
) -> Duration {
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let handle = server.handle();
    std::thread::scope(|s| {
        let runner = s.spawn(|| {
            server.run(archive, dag).expect("server run");
            Instant::now()
        });
        // The guard also shuts the server down if `before_shutdown` panics.
        let shutdown = ShutdownOnDrop(handle.clone());
        before_shutdown(&handle);
        let shutdown_at = Instant::now();
        drop(shutdown);
        runner.join().expect("server thread panicked") - shutdown_at
    })
}

/// A client that never goes idle cannot hold the server open: once
/// shutdown is signalled its connection answers the frame in hand and
/// closes, so `run` returns long before the client would stop on its own.
#[test]
fn flooding_client_does_not_block_shutdown() {
    let _guard = serial();
    let archive = compress_corpus(&corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    std::thread::scope(|s| {
        let mut flooder = None;
        let took = shutdown_latency(ServerConfig::default(), &archive, &dag, |handle| {
            let addr = handle.addr();
            let flood = s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let start = Instant::now();
                let mut answered = 0u64;
                while start.elapsed() < Duration::from_secs(3) {
                    match client.query(Task::WordCount, TaskConfig::default()) {
                        Ok(QueryOutcome::Ok(_)) => answered += 1,
                        Ok(_) => {}
                        // The server closed the connection.
                        Err(_) => break,
                    }
                }
                answered
            });
            // Shut down only once the flood is being served.
            while handle.stats().queries_answered < 10 && !flood.is_finished() {
                std::thread::sleep(Duration::from_millis(1));
            }
            flooder = Some(flood);
        });
        assert!(
            took < Duration::from_secs(1),
            "run returned {took:?} after shutdown while a client kept sending"
        );
        let answered = flooder.expect("flooder").join().expect("flooder thread");
        assert!(answered > 0, "the flood was never served");
    });
}

/// Fault-injection coverage (armed only under `--features failpoints`): a
/// dropped accept recovers, an injected queue-full sheds deterministically,
/// and stalled chunk boundaries drive in-flight deadline expiry and the
/// drain watchdog.
#[cfg(feature = "failpoints")]
mod faults {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// `server-accept` armed once: the first connection is dropped at
    /// accept; the next one is served normally.
    #[test]
    fn dropped_accept_recovers() {
        let _guard = serial();
        failpoints::reset();
        let archive = compress_corpus(&corpus(), CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        let digest = run_task(&archive, &dag, Task::WordCount, TaskConfig::default())
            .output
            .digest();

        let stats = with_server(ServerConfig::default(), &archive, &dag, |handle| {
            failpoints::enable_times("server-accept", 1);
            // The dropped connection: connect succeeds at the TCP level,
            // but the server discards the stream, so the query cannot
            // complete.
            let mut doomed = Client::connect(handle.addr()).expect("connect");
            assert!(
                doomed.query(Task::WordCount, TaskConfig::default()).is_err(),
                "query should fail on a connection dropped at accept"
            );
            // The acceptor survived: the next connection is served.
            let mut client = Client::connect(handle.addr()).expect("reconnect");
            match client
                .query(Task::WordCount, TaskConfig::default())
                .expect("round trip")
            {
                QueryOutcome::Ok(out) => assert_eq!(out.digest(), digest),
                other => panic!("expected a result after recovery, got {other:?}"),
            }
            failpoints::reset();
        });
        assert_eq!(stats.queries_answered, 1);
    }

    /// In-flight deadline expiry, deterministically: an `observe` hook on
    /// the engine's `chunk-boundary` site stalls execution past the
    /// query's budget, so the deadline trips **during** execution (not at
    /// the pre-flight check), and the answer is `DeadlineExceeded`.
    #[test]
    fn inflight_deadline_expiry() {
        let _guard = serial();
        failpoints::reset();
        let archive = compress_corpus(&corpus(), CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        let digest = run_task(&archive, &dag, Task::WordCount, TaskConfig::default())
            .output
            .digest();

        let stats = with_server(ServerConfig::default(), &archive, &dag, |handle| {
            failpoints::observe("chunk-boundary", || {
                std::thread::sleep(Duration::from_millis(25))
            });
            let mut client = Client::connect(handle.addr()).expect("connect");
            // A generous-enough budget to pass the pre-flight check, far
            // too small to survive a stalled chunk boundary.
            match client
                .query_with_deadline(Task::WordCount, TaskConfig::default(), 10)
                .expect("round trip")
            {
                QueryOutcome::Denied(e) => assert_eq!(e.code, WireErrorCode::DeadlineExceeded),
                other => panic!("expected in-flight DeadlineExceeded, got {other:?}"),
            }
            failpoints::reset();
            // The same engine still answers an unlimited query correctly.
            match client
                .query(Task::WordCount, TaskConfig::default())
                .expect("round trip")
            {
                QueryOutcome::Ok(out) => assert_eq!(out.digest(), digest),
                other => panic!("expected a result after reset, got {other:?}"),
            }
        });
        assert_eq!(stats.queries_answered, 2);
    }

    /// The drain watchdog bounds a graceful shutdown: every chunk boundary
    /// stalls, so the query is still in flight when `drain_timeout` runs
    /// out.  The drain token cancels it, the client gets a typed
    /// `Cancelled`, and `run` returns promptly.
    #[test]
    fn drain_timeout_cancels_a_stalled_inflight_query() {
        let _guard = serial();
        failpoints::reset();
        let archive = compress_corpus(&large_corpus(), CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        let drain_timeout = Duration::from_millis(50);
        let config = ServerConfig {
            drain_timeout,
            results_cache: false,
            ..ServerConfig::default()
        };

        let stalled = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stalled);
        failpoints::observe("chunk-boundary", move || {
            flag.store(true, Ordering::Release);
            std::thread::sleep(Duration::from_millis(100))
        });
        let (took, outcome) = std::thread::scope(|s| {
            let mut worker = None;
            let took = shutdown_latency(config, &archive, &dag, |handle| {
                let addr = handle.addr();
                let query = s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client
                        .query(Task::WordCount, TaskConfig::default())
                        .expect("round trip")
                });
                // Shut down only once the query is stalled in the engine.
                while !stalled.load(Ordering::Acquire) && !query.is_finished() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                worker = Some(query);
            });
            (took, worker.expect("worker").join().expect("client thread"))
        });
        failpoints::reset();
        match outcome {
            QueryOutcome::Denied(e) => assert_eq!(e.code, WireErrorCode::Cancelled),
            other => panic!("expected the drain watchdog to cancel, got {other:?}"),
        }
        assert!(
            took < Duration::from_secs(1),
            "run returned {took:?} after shutdown with a {drain_timeout:?} drain timeout"
        );
    }

    /// `server-queue` armed N times: each admission sheds with
    /// `Overloaded`, deterministically, then service resumes.
    #[test]
    fn injected_queue_full_sheds_deterministically() {
        let _guard = serial();
        failpoints::reset();
        let archive = compress_corpus(&corpus(), CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        let digest = run_task(&archive, &dag, Task::WordCount, TaskConfig::default())
            .output
            .digest();

        let stats = with_server(ServerConfig::default(), &archive, &dag, |handle| {
            failpoints::enable_times("server-queue", 3);
            let mut client = Client::connect(handle.addr()).expect("connect");
            for i in 0..3 {
                match client
                    .query(Task::WordCount, TaskConfig::default())
                    .expect("round trip")
                {
                    QueryOutcome::Overloaded { .. } => {}
                    other => panic!("injection {i}: expected Overloaded, got {other:?}"),
                }
            }
            match client
                .query(Task::WordCount, TaskConfig::default())
                .expect("round trip")
            {
                QueryOutcome::Ok(out) => assert_eq!(out.digest(), digest),
                other => panic!("expected a result once disarmed, got {other:?}"),
            }
            failpoints::reset();
        });
        assert_eq!(stats.shed, 3);
        assert_eq!(stats.queries_answered, 1);
    }
}
