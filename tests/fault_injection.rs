//! Fault-injection suite: compiled and run only with the `failpoints`
//! feature (`cargo test --features failpoints`), which arms the injection
//! sites across the execution stack (`worker-epoch`, `chunk-boundary`,
//! `merge-fold` — see `ARCHITECTURE.md`, *Failure model & recovery*; the
//! arena's `arena-reserve` site is exercised at the arena level only,
//! because the CPU engine never probes arena tables).
//!
//! The contract under test: an injected fault at **any** site, under any
//! thread count, for every task, leaves the *same* `Engine` serving
//! byte-identical results to the sequential oracle — first via the degraded
//! (sequential-retry) answer of the faulted query itself, then via the
//! healed fine path on the query after.

#![cfg(feature = "failpoints")]

use g_tadoc_repro::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;
use tadoc::apps::run_task;
use tadoc::fine_grained::exec::{EpochOutcome, WorkerPool};
use tadoc::timing::Degradation;

/// The failpoint registry is process-global and tests arm/disarm it, so
/// they must not interleave.  (A test that panics poisons the mutex; later
/// tests just take the guard anyway — the registry itself is still valid.)
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Every site planted on the CPU engine's execution path, in stack order.
const FAILPOINTS: [&str; 3] = ["worker-epoch", "chunk-boundary", "merge-fold"];

fn corpus() -> Vec<(String, String)> {
    let shared = "the quick brown fox jumps over the lazy dog while the cat watches ".repeat(8);
    (0..12)
        .map(|i| (format!("doc{i}"), format!("{shared} topic{} {shared}", i % 5)))
        .collect()
}

/// A corpus big enough that a cold fine-grained query comfortably outlives
/// a microsecond-scale deadline (used by the limit tests).
fn large_corpus() -> Vec<(String, String)> {
    let page = "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu ".repeat(60);
    (0..8)
        .map(|i| (format!("book{i}"), format!("{page} chapter{} {page}", i)))
        .collect()
}

#[test]
fn every_failpoint_leaves_the_engine_serving_oracle_identical_results() {
    let _guard = serial();
    failpoints::reset();
    let archive = compress_corpus(&corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let cfg = TaskConfig::default();
    for threads in [1usize, 4, 8] {
        let mut fired = [false; FAILPOINTS.len()];
        for task in Task::ALL {
            let oracle = run_task(&archive, &dag, task, cfg);
            for (site, fired) in FAILPOINTS.into_iter().zip(&mut fired) {
                let label = format!("site={site} threads={threads} task={}", task.name());
                let engine = Engine::builder(&archive, &dag)
                    .threads(threads)
                    .build()
                    .expect("valid archive");
                failpoints::enable_times(site, 1);
                // The faulted query must still *succeed* — degraded to the
                // sequential path, never surfaced as a panic or error.
                let faulted = engine
                    .run(task, cfg)
                    .unwrap_or_else(|e| panic!("{label}: query failed: {e}"));
                assert_eq!(faulted.output, oracle.output, "{label}: degraded output");
                // The armed hit is consumed exactly when the site fired, and
                // a fired site always degrades the query.
                let consumed = !failpoints::is_armed(site);
                assert_eq!(
                    consumed,
                    faulted.timings.degraded == Some(Degradation::WorkerPanic),
                    "{label}: site fired iff the query degraded"
                );
                if site == "worker-epoch" || site == "chunk-boundary" {
                    // These sites sit on every task's path, so one armed hit
                    // is guaranteed to fire.  `merge-fold` only fires for
                    // tasks that merge shard buffers (termVector merges by
                    // scatter).
                    assert!(consumed, "{label}: must have fired");
                }
                *fired |= consumed;
                failpoints::reset();
                // The *same* engine keeps serving on the (healed) fine path.
                let after = engine
                    .run(task, cfg)
                    .unwrap_or_else(|e| panic!("{label}: post-fault query failed: {e}"));
                assert_eq!(after.output, oracle.output, "{label}: post-fault output");
                assert!(
                    after.timings.degraded.is_none(),
                    "{label}: post-fault query must run the fine path"
                );
            }
        }
        for (site, fired) in FAILPOINTS.into_iter().zip(fired) {
            assert!(fired, "site={site} threads={threads}: fired on no task");
        }
    }
}

#[test]
fn pool_heals_across_repeated_poison_cycles_with_monotonic_epochs() {
    let _guard = serial();
    failpoints::reset();
    let archive = compress_corpus(&corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let oracle = run_task(&archive, &dag, Task::WordCount, TaskConfig::default());
    let engine = Engine::builder(&archive, &dag)
        .threads(4)
        .build()
        .expect("valid archive");

    let clean = engine.run(Task::WordCount, TaskConfig::default()).unwrap();
    assert_eq!(clean.output, oracle.output);
    assert!(clean.timings.degraded.is_none());
    let mut last_epochs = engine.epochs();
    assert!(last_epochs > 0, "the clean run dispatched epochs");

    for round in 0..6 {
        // Poison: the first pool epoch of this query faults.
        failpoints::enable_times("worker-epoch", 1);
        let faulted = engine.run(Task::WordCount, TaskConfig::default()).unwrap();
        assert_eq!(faulted.output, oracle.output, "round {round}");
        assert_eq!(
            faulted.timings.degraded,
            Some(Degradation::WorkerPanic),
            "round {round}"
        );
        let healthy = engine.with_worker_pool(|pool| !pool.is_poisoned());
        assert!(healthy, "round {round}: pool must be healed");
        let epochs = engine.epochs();
        assert!(
            epochs > last_epochs,
            "round {round}: epochs must keep increasing across heals \
             ({epochs} <= {last_epochs})"
        );
        last_epochs = epochs;

        // Heal: the next query runs the fine path on the rebuilt pool.
        let healed = engine.run(Task::WordCount, TaskConfig::default()).unwrap();
        assert_eq!(healed.output, oracle.output, "round {round}");
        assert!(healed.timings.degraded.is_none(), "round {round}");
        let epochs = engine.epochs();
        assert!(epochs > last_epochs, "round {round}: healed run dispatched epochs");
        last_epochs = epochs;
    }
}

#[test]
fn cancellation_mid_query_returns_typed_error_and_keeps_the_session_healthy() {
    let _guard = serial();
    failpoints::reset();
    let archive = compress_corpus(&corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let oracle = run_task(&archive, &dag, Task::WordCount, TaskConfig::default());
    let engine = Engine::builder(&archive, &dag)
        .threads(4)
        .build()
        .expect("valid archive");

    // Deterministic in-flight cancellation: the observation hook cancels the
    // token the moment execution crosses the first chunk boundary, so the
    // very checkpoint that ran the hook sees the flag and aborts — no timer
    // racing the query.
    let token = CancelToken::new();
    let hook_token = token.clone();
    failpoints::observe("chunk-boundary", move || hook_token.cancel());
    let opts = QueryOptions::new().cancel_token(token);
    let err = engine
        .run_with(Task::WordCount, TaskConfig::default(), &opts)
        .expect_err("hook cancels during the query");
    assert_eq!(err, EngineError::Cancelled);
    failpoints::reset();

    // Clean abort: nothing poisoned, the next unrestricted query is served
    // by the fine path and matches the oracle.
    assert!(engine.with_worker_pool(|pool| !pool.is_poisoned()));
    let after = engine.run(Task::WordCount, TaskConfig::default()).unwrap();
    assert_eq!(after.output, oracle.output);
    assert!(after.timings.degraded.is_none());
}

#[test]
fn deadline_mid_query_returns_typed_error_in_bounded_time() {
    let _guard = serial();
    failpoints::reset();
    let archive = compress_corpus(&large_corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let engine = Engine::builder(&archive, &dag)
        .threads(4)
        .build()
        .expect("valid archive");

    // Deterministic in-flight expiry: the hook stalls the first chunk
    // boundary past the deadline, so that same checkpoint trips it.
    failpoints::observe("chunk-boundary", || {
        std::thread::sleep(Duration::from_millis(5));
    });
    let opts = QueryOptions::new().deadline(Duration::from_millis(1));
    let err = engine
        .run_with(Task::SequenceCount, TaskConfig { sequence_length: 3 }, &opts)
        .expect_err("deadline expires during the query");
    assert_eq!(err, EngineError::DeadlineExceeded);
    failpoints::reset();

    // The session survives: the identical query, unrestricted, completes
    // and matches the oracle.
    assert!(engine.with_worker_pool(|pool| !pool.is_poisoned()));
    let cfg = TaskConfig { sequence_length: 3 };
    let oracle = run_task(&archive, &dag, Task::SequenceCount, cfg);
    let after = engine.run(Task::SequenceCount, cfg).unwrap();
    assert_eq!(after.output, oracle.output);
    assert!(after.timings.degraded.is_none());
}

#[test]
fn arena_reserve_failpoint_surfaces_as_typed_capacity_errors() {
    let _guard = serial();
    failpoints::reset();

    // The try_* API returns the injected fault as a typed Result.
    let mut region = vec![0u32; arena::local_table::try_words_required(8).unwrap() as usize];
    arena::local_table::init(&mut region);
    failpoints::enable_times("arena-reserve", 1);
    let err = arena::local_table::try_insert_add(&mut region, 42, 1)
        .expect_err("armed site injects a capacity error");
    assert!(matches!(err, arena::CapacityError::TableOverflow { key: 42, .. }));
    // Disarmed, the same insert succeeds.
    assert!(arena::local_table::try_insert_add(&mut region, 42, 1).is_ok());

    // The panicking wrapper (gpu-sim's interface) carries the same typed
    // payload through the unwind.
    failpoints::enable_times("arena-reserve", 1);
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        arena::local_table::insert_add(&mut region, 7, 1);
    }))
    .expect_err("armed site panics through the wrapper");
    let cap = payload
        .downcast_ref::<arena::CapacityError>()
        .expect("payload is the typed capacity error");
    assert!(matches!(cap, arena::CapacityError::TableOverflow { key: 7, .. }));
    failpoints::reset();
}

#[test]
fn capacity_panic_payloads_classify_through_the_pool_as_faults() {
    let _guard = serial();
    failpoints::reset();
    // A worker epoch dying on a typed panic payload must surface as a
    // Faulted outcome whose payload still downcasts to its type — the
    // transport the engine's degrade ladder relies on to tell a clean
    // cancel/deadline abort from a worker fault.
    let pool = WorkerPool::new(4);
    let outcome = pool.run_epoch(&|w: usize| {
        if w == 1 {
            std::panic::panic_any(arena::CapacityError::ZeroCapacity { key: 9 });
        }
    });
    match outcome {
        EpochOutcome::Faulted(payload) => {
            let cap = payload
                .downcast_ref::<arena::CapacityError>()
                .expect("typed payload survives the barrier");
            assert_eq!(*cap, arena::CapacityError::ZeroCapacity { key: 9 });
        }
        EpochOutcome::Completed => panic!("epoch must fault"),
    }
    assert!(pool.is_poisoned(), "a capacity fault poisons the pool");
}

/// A fault injected into **one** query of a concurrent mix must stay
/// per-query: at every failpoint, all answers from all client threads
/// remain oracle-identical, at most the single query that absorbed the
/// armed hit degrades, and the shared engine keeps serving clean fine-path
/// answers afterwards.
#[test]
fn concurrent_fault_isolation_at_every_failpoint() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let _guard = serial();
    failpoints::reset();
    let archive = compress_corpus(&corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let mix: Vec<(Task, TaskConfig)> = Task::ALL
        .into_iter()
        .map(|t| (t, TaskConfig::default()))
        .collect();
    let oracle: Vec<AnalyticsOutput> = mix
        .iter()
        .map(|&(task, cfg)| run_task(&archive, &dag, task, cfg).output)
        .collect();

    for site in FAILPOINTS {
        let engine = Engine::builder(&archive, &dag)
            .threads(4)
            .build()
            .expect("valid archive");
        failpoints::enable_times(site, 1);
        let degraded = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for c in 0..4usize {
                let engine = &engine;
                let mix = &mix;
                let oracle = &oracle;
                let degraded = &degraded;
                s.spawn(move || {
                    for i in 0..2 * mix.len() {
                        let k = (c + i) % mix.len();
                        let (task, cfg) = mix[k];
                        let exec = engine.run(task, cfg).unwrap_or_else(|e| {
                            panic!("site={site} client {c}: query failed: {e}")
                        });
                        assert_eq!(
                            exec.output,
                            oracle[k],
                            "site={site} client {c}: a fault in one query \
                             poisoned another's answer"
                        );
                        if exec.timings.degraded.is_some() {
                            degraded.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        failpoints::reset();
        assert!(
            degraded.load(Ordering::Relaxed) <= 1,
            "site={site}: one armed hit may degrade at most the query that \
             absorbed it"
        );
        // The same engine keeps serving clean fine-path answers.
        let after = engine
            .run(Task::WordCount, TaskConfig::default())
            .expect("post-round query");
        assert_eq!(after.output, oracle[0], "site={site}: post-round output");
        assert!(
            after.timings.degraded.is_none(),
            "site={site}: post-round query must run the fine path"
        );
    }
}

/// Cancelling one concurrent query must not cancel, degrade, or corrupt
/// the queries of other client threads — the cancel token travels with
/// exactly one query's control.
#[test]
fn cancellation_in_one_concurrent_query_leaves_others_untouched() {
    let _guard = serial();
    failpoints::reset();
    let archive = compress_corpus(&corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let cfg = TaskConfig::default();
    let oracle = run_task(&archive, &dag, Task::WordCount, cfg);
    let engine = Engine::builder(&archive, &dag)
        .threads(4)
        .build()
        .expect("valid archive");

    // The observation hook cancels the victim's token the moment *any*
    // execution crosses a chunk boundary; only the victim carries the
    // token, so only the victim aborts.
    let token = CancelToken::new();
    let hook_token = token.clone();
    failpoints::observe("chunk-boundary", move || hook_token.cancel());
    let victim_result = std::thread::scope(|s| {
        let victim = s.spawn(|| {
            let opts = QueryOptions::new().cancel_token(token);
            engine.run_with(Task::WordCount, cfg, &opts)
        });
        for c in 0..3usize {
            let engine = &engine;
            let oracle = &oracle;
            s.spawn(move || {
                for i in 0..8 {
                    let exec = engine.run(Task::WordCount, cfg).unwrap_or_else(|e| {
                        panic!("bystander {c} iteration {i} failed: {e}")
                    });
                    assert_eq!(
                        exec.output, oracle.output,
                        "bystander {c} iteration {i}: output corrupted"
                    );
                    assert!(
                        exec.timings.degraded.is_none(),
                        "bystander {c} iteration {i}: must not degrade"
                    );
                }
            });
        }
        victim.join().expect("victim thread must not panic")
    });
    failpoints::reset();
    assert_eq!(
        victim_result.expect_err("the victim's token is always cancelled"),
        EngineError::Cancelled,
        "the victim aborts with the typed cancellation error"
    );

    // The session survives: an unrestricted query serves the fine path.
    let after = engine.run(Task::WordCount, cfg).expect("post-round query");
    assert_eq!(after.output, oracle.output);
    assert!(after.timings.degraded.is_none());
}
