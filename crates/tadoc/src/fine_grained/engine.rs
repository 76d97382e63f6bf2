//! Long-lived execution sessions: [`Engine`], [`EngineBuilder`], and the
//! cached analysis layer shared by every query of a session.
//!
//! [`Engine`] is the one way to run the fine-grained design; the sequential
//! baseline is [`run_task`] and the coarse-grained one is
//! [`run_task_parallel`](crate::parallel::run_task_parallel).  A session
//! exists because the serving scenario the paper (and TADOC before it)
//! targets treats the compressed corpus as a long-lived analytic substrate
//! queried many times, so everything derived only from the *archive* — the
//! worker pool, the DAG levels, rule and file weights, head/tail buffers —
//! should be paid for once, not once per query.
//!
//! An [`Engine`] borrows the archive and DAG for its whole lifetime
//! (immutability for free — no invalidation logic exists because no
//! invalidation can be needed), owns one persistent [`WorkerPool`] whose
//! worker ids stay pinned to OS threads across queries, and fills a
//! session cache lazily: each artifact is computed by the first query
//! that needs it and served from the cache afterwards.  The cache keys are
//! the artifact kinds themselves — per session there is exactly one DAG
//! level schedule, one rule-weight vector, one file-weight table, one
//! term-vector CSR, one chunk decomposition (the chunk threshold is fixed
//! at build time), and one head/tail buffer set *per sequence length* `l`
//! (the only per-query knob that shapes an artifact).
//!
//! Cold vs warm is observable:
//! [`shared_init`](crate::timing::PhaseTimings::shared_init) records the
//! time a query spent *computing* shared artifacts (zero on a warm run) and
//! [`warm`](crate::timing::PhaseTimings::warm) flags runs served entirely
//! from cache — see the
//! `--warm` mode of the experiments binary, which commits the measured
//! amortization to `BENCH_fine_grained.json`.

// The session layer (this module and `exec`) is the error boundary of the
// fine path: every fallible edge must either return a typed error or carry a
// documented unreachability argument — bare `.unwrap()` is banned outright
// (enforced by the CI `robustness-gate` clippy run).
#![deny(clippy::unwrap_used)]

use super::exec::{Abort, WorkerPool};
use super::head_tail::{build_head_tail, levels_bottom_up, levels_top_down, HeadTail};
use super::scratch::ScratchPool;
use super::{
    build_term_vector_prep, parallel_file_weights, parallel_rule_weights, root_chunks,
    run_fine_with_cache, sequence_work_items, FileWeightLists, FineGrainedConfig, SeqItem,
    TermVectorPrep, TvScratch,
};
use crate::apps::{run_task, Task, TaskConfig, TaskExecution};
use crate::results::AnalyticsOutput;
use crate::timing::{Degradation, PhaseTimings, ResultsCacheStats, Timer, WorkStats};
use crate::weights::file_segments;
use sequitur::fxhash::FxHashMap;
use sequitur::{Dag, Grammar, TadocArchive};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, TryLockError};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Typed configuration errors
// ---------------------------------------------------------------------------

/// A configuration the [`EngineBuilder`] (or [`Engine::run`]) refuses.
///
/// Nonsense knobs are loud errors rather than silent clamps: a service that
/// builds an engine once should learn about them at build time, not by
/// running on one thread forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `num_threads` was 0; a pool needs at least the calling thread.
    ZeroThreads,
    /// `chunk_elements` was 0; chunks must cover at least one index.
    ZeroChunkElements,
    /// A sequence-sensitive task was submitted with `sequence_length == 0`
    /// (windows of zero words are not a meaningful query).
    ZeroSequenceLength {
        /// The task that was submitted.
        task: Task,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroThreads => {
                write!(f, "num_threads must be at least 1 (the calling thread)")
            }
            ConfigError::ZeroChunkElements => {
                write!(f, "chunk_elements must be at least 1")
            }
            ConfigError::ZeroSequenceLength { task } => write!(
                f,
                "task {} requires sequence_length >= 1",
                task.name()
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

// ---------------------------------------------------------------------------
// Typed execution errors, cancellation, deadlines
// ---------------------------------------------------------------------------

/// A typed, recoverable failure of an [`Engine`] query (or a rejected
/// [`EngineBuilder::build`]).  The failure model (see `ARCHITECTURE.md`,
/// *Failure model & recovery*):
///
/// * A worker panic never escapes [`Engine::run`] as a panic.  The engine
///   heals its pool if the fault poisoned it, then **degrades**: the query
///   is retried once on the sequential path (oracle-identical by
///   construction) and succeeds with
///   [`PhaseTimings::degraded`](crate::timing::PhaseTimings::degraded) set.
///   [`EngineError::WorkerPanicked`] is returned only when that fallback
///   *also* fails — a double fault, which on identical input means the
///   fault is input-shaped, not transient.
/// * [`EngineError::Cancelled`] / [`EngineError::DeadlineExceeded`] are
///   clean cooperative aborts: the session stays healthy, nothing is
///   poisoned, and the next query runs normally.
/// * [`EngineError::Config`] / [`EngineError::InvalidArchive`] are rejected
///   before anything executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// An invalid configuration knob (see [`ConfigError`]).
    Config(ConfigError),
    /// The archive/DAG failed structural validation at build time
    /// (out-of-range rule references, cycles, an empty root, or a DAG that
    /// was not derived from this grammar).
    InvalidArchive {
        /// What the validator found.
        reason: String,
    },
    /// A worker panicked and the sequential fallback failed too.
    WorkerPanicked {
        /// The panic message of the original fine-grained fault.
        message: String,
    },
    /// The query's deadline passed before it completed.  The session is
    /// not poisoned; subsequent queries run normally.
    DeadlineExceeded,
    /// The query's [`CancelToken`] was triggered.  The session is not
    /// poisoned; subsequent queries run normally.
    Cancelled,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Config(e) => write!(f, "invalid configuration: {e}"),
            EngineError::InvalidArchive { reason } => {
                write!(f, "invalid archive: {reason}")
            }
            EngineError::WorkerPanicked { message } => write!(
                f,
                "worker panicked ({message}) and the sequential fallback failed"
            ),
            EngineError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            EngineError::Cancelled => write!(f, "query cancelled"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for EngineError {
    fn from(e: ConfigError) -> Self {
        EngineError::Config(e)
    }
}

/// A shared cancellation flag for cooperative query abort.
///
/// Clone the token, hand one clone to [`Engine::run_with`] via
/// [`QueryOptions`], keep the other; calling [`cancel`](CancelToken::cancel)
/// from any thread makes the running query stop at its next chunk boundary
/// (or DAG level) and return [`EngineError::Cancelled`].  Tokens are
/// one-shot latches: once cancelled, every query submitted with the token
/// fails until a fresh token is used.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation (idempotent, callable from any thread).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// The raw flag the worker-pool checkpoints poll.
    fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.flag)
    }
}

/// Per-query execution limits for [`Engine::run_with`]: an optional
/// deadline (a time budget measured from query start) and an optional
/// [`CancelToken`].  Both are enforced *cooperatively* at chunk boundaries
/// and between DAG levels, so a stuck or oversized query stops in bounded
/// time without killing the session.
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Time budget for the query; `Some(d)` makes the query return
    /// [`EngineError::DeadlineExceeded`] once `d` has elapsed.
    pub deadline: Option<Duration>,
    /// Cancellation token; see [`CancelToken`].
    pub cancel: Option<CancelToken>,
}

impl QueryOptions {
    /// No limits (what [`Engine::run`] uses).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the query's time budget.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a cancellation token.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

// ---------------------------------------------------------------------------
// The analysis layer (immutable, once-filled) and per-query charge
// ---------------------------------------------------------------------------

/// What one query charged for shared-artifact computation: the time and work
/// it spent *filling* analysis cells (both zero on a fully warm query).
///
/// The charge is **per-query local** — each task path owns one on its stack
/// and threads it through the `ensure_*` calls — so concurrent queries never
/// share accounting state, and a faulted query's charge simply unwinds with
/// it (nothing to reset).  A query that *waits* on another query's in-flight
/// fill comes out warm: only the thread whose closure ran inside the
/// `OnceLock` pays (and records) the cost.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RunCharge {
    /// Wall-clock spent computing shared artifacts this query.
    pub(crate) time: Duration,
    /// Work performed computing shared artifacts this query.
    pub(crate) work: WorkStats,
    /// Whether any artifact was computed (false ⇒ the query was warm).
    pub(crate) computed: bool,
}

impl RunCharge {
    /// Records that `time`/`work` was spent filling an analysis cell.
    fn note(&mut self, time: Duration, work: WorkStats) {
        self.time += time;
        self.work.merge(&work);
        self.computed = true;
    }
}

/// Maximum distinct sequence lengths whose head/tail buffers a session
/// keeps at once.  Each entry costs O(grammar expansion) heap; real query
/// mixes use a handful of lengths, so a small FIFO bound caps worst-case
/// memory without ever evicting on realistic workloads.
const HEAD_TAIL_CACHE_CAP: usize = 8;

/// The head/tail slot table: per sequence length `l`, an `Arc`'d `OnceLock`
/// cell.  The *table* mutex is held only for map lookup/insert/eviction;
/// the *fill* runs inside the cell's `get_or_init`, outside the table lock,
/// so two queries filling different lengths never serialize on each other.
#[derive(Default)]
struct HeadTailSlots {
    map: FxHashMap<usize, Arc<OnceLock<HeadTail>>>,
    /// Insertion order of `map` keys, oldest first (FIFO eviction).
    order: Vec<usize>,
}

/// The immutable, once-filled analysis layer of a session — everything
/// derived purely from the borrowed archive/DAG (plus the engine-fixed
/// thread count and chunk threshold), so nothing ever needs invalidating:
/// the borrow guarantees the archive cannot change while the session lives.
///
/// **Publication contract.**  Every artifact lives in a [`OnceLock`]:
/// concurrent first-touch races fill **exactly once** (losers block until
/// the winner's value is published, then read it), a filling closure that
/// panics leaves the cell empty (the next query simply retries — the
/// degrade ladder relies on this panic-atomicity), and once a cell is
/// filled its contents are never written again, so queries read it with no
/// synchronization beyond the `OnceLock`'s own acquire load.  The
/// [`fills`](Self::fills) counter increments once per executed fill closure
/// — [`Engine::analysis_fills`] exposes it so tests can prove "filled
/// exactly once" under thundering-herd load.
///
/// The `.expect("… ensured")` sites in the task paths are unreachable by
/// construction: each is dominated by the `ensure_*` call that fills (or
/// waits for) the cell.
#[derive(Default)]
pub(crate) struct Analysis {
    /// Top-down DAG level schedule (root layer first).
    levels_top_down: OnceLock<Vec<Vec<u32>>>,
    /// Bottom-up DAG level schedule (deepest layer first).
    levels_bottom_up: OnceLock<Vec<Vec<u32>>>,
    /// Root file segments (`file_segments`).
    segments: OnceLock<Vec<(usize, usize)>>,
    /// Rule weights (top-down propagation).
    rule_weights: OnceLock<Vec<u64>>,
    /// Per-rule `(file, occurrences)` lists (top-down pull propagation).
    file_weights: OnceLock<FileWeightLists>,
    /// Local-word-list chunks of every rule (wordCount / sort item space).
    word_chunks: OnceLock<Vec<super::exec::Chunk>>,
    /// Non-root local-word chunks + root segment chunks (invertedIndex
    /// item space).
    index_chunks: OnceLock<(Vec<super::exec::Chunk>, Vec<super::sequences::RootChunk>)>,
    /// Term-vector initialization product (file-major CSR + file costs).
    term_vector: OnceLock<TermVectorPrep>,
    /// Head/tail buffers keyed by sequence length `l` — the only per-query
    /// knob that shapes a shared artifact.  Bounded at
    /// [`HEAD_TAIL_CACHE_CAP`] entries (FIFO eviction): a serving
    /// deployment accepting user-supplied `l` values must not grow memory
    /// monotonically with every distinct length ever queried.  Evicted
    /// entries stay alive (via the `Arc`) for any query still reading them.
    head_tail: Mutex<HeadTailSlots>,
    /// Sequence-task work items (rule-body chunks + root chunks).
    sequence_items: OnceLock<Vec<SeqItem>>,
    /// Fill closures executed — one per computed artifact, never counting
    /// waiters or warm hits.
    fills: AtomicU64,
}

impl Analysis {
    /// Fills `cell` at most once, charging the computing query (and only
    /// it) for the time and work.  Waiters block inside `get_or_init` and
    /// come out warm.
    fn fill<'c, T>(
        &self,
        cell: &'c OnceLock<T>,
        charge: &mut RunCharge,
        compute: impl FnOnce(&mut WorkStats) -> T,
    ) -> &'c T {
        cell.get_or_init(|| {
            let timer = Timer::start();
            let mut work = WorkStats::default();
            let value = compute(&mut work);
            charge.note(timer.elapsed(), work);
            self.fills.fetch_add(1, Ordering::Relaxed);
            value
        })
    }

    /// Number of fill closures executed so far (see the type docs).
    pub(crate) fn fills(&self) -> u64 {
        self.fills.load(Ordering::Relaxed)
    }

    pub(crate) fn ensure_levels_top_down(
        &self,
        dag: &Dag,
        charge: &mut RunCharge,
    ) -> &Vec<Vec<u32>> {
        self.fill(&self.levels_top_down, charge, |_| levels_top_down(dag))
    }

    pub(crate) fn ensure_levels_bottom_up(
        &self,
        dag: &Dag,
        charge: &mut RunCharge,
    ) -> &Vec<Vec<u32>> {
        self.fill(&self.levels_bottom_up, charge, |_| levels_bottom_up(dag))
    }

    pub(crate) fn ensure_segments(
        &self,
        grammar: &Grammar,
        charge: &mut RunCharge,
    ) -> &Vec<(usize, usize)> {
        self.fill(&self.segments, charge, |_| file_segments(grammar))
    }

    pub(crate) fn ensure_rule_weights(
        &self,
        dag: &Dag,
        pool: &WorkerPool,
        charge: &mut RunCharge,
    ) -> &Vec<u64> {
        let levels = self.ensure_levels_top_down(dag, charge);
        self.fill(&self.rule_weights, charge, |work| {
            parallel_rule_weights(dag, levels, pool, work)
        })
    }

    pub(crate) fn ensure_file_weights(
        &self,
        grammar: &Grammar,
        dag: &Dag,
        pool: &WorkerPool,
        charge: &mut RunCharge,
    ) -> &FileWeightLists {
        let levels = self.ensure_levels_top_down(dag, charge);
        let segments = self.ensure_segments(grammar, charge);
        self.fill(&self.file_weights, charge, |work| {
            parallel_file_weights(grammar, dag, levels, segments, pool, work)
        })
    }

    pub(crate) fn ensure_word_chunks(
        &self,
        dag: &Dag,
        fcfg: FineGrainedConfig,
        charge: &mut RunCharge,
    ) -> &Vec<super::exec::Chunk> {
        self.fill(&self.word_chunks, charge, |_| {
            super::exec::chunk_ranges(
                (0..dag.num_rules).map(|r| dag.local_words[r].len()),
                fcfg.chunk_elements,
            )
        })
    }

    pub(crate) fn ensure_index_chunks(
        &self,
        grammar: &Grammar,
        dag: &Dag,
        fcfg: FineGrainedConfig,
        charge: &mut RunCharge,
    ) -> &(Vec<super::exec::Chunk>, Vec<super::sequences::RootChunk>) {
        let segments = self.ensure_segments(grammar, charge);
        self.fill(&self.index_chunks, charge, |_| {
            let rule_chunks = super::exec::chunk_ranges(
                (0..dag.num_rules).map(|r| if r == 0 { 0 } else { dag.local_words[r].len() }),
                fcfg.chunk_elements,
            );
            let seg_chunks = root_chunks(segments, fcfg.chunk_elements);
            (rule_chunks, seg_chunks)
        })
    }

    pub(crate) fn ensure_term_vector_prep(
        &self,
        archive: &TadocArchive,
        dag: &Dag,
        fcfg: FineGrainedConfig,
        pool: &WorkerPool,
        charge: &mut RunCharge,
    ) -> &TermVectorPrep {
        let segments = self.ensure_segments(&archive.grammar, charge);
        self.fill(&self.term_vector, charge, |work| {
            build_term_vector_prep(archive, dag, segments, fcfg, pool, work)
        })
    }

    /// Returns the (filled) head/tail cell for sequence length `l`.  The
    /// `Arc` keeps the buffers alive for this query even if a concurrent
    /// query's distinct `l` evicts the table entry mid-flight.
    pub(crate) fn ensure_head_tail(
        &self,
        grammar: &Grammar,
        dag: &Dag,
        l: usize,
        pool: &WorkerPool,
        charge: &mut RunCharge,
    ) -> Arc<OnceLock<HeadTail>> {
        let levels = self.ensure_levels_bottom_up(dag, charge);
        let cell = {
            let mut slots = self
                .head_tail
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            match slots.map.get(&l) {
                Some(cell) => Arc::clone(cell),
                None => {
                    if slots.order.len() >= HEAD_TAIL_CACHE_CAP {
                        let oldest = slots.order.remove(0);
                        slots.map.remove(&oldest);
                    }
                    let cell = Arc::new(OnceLock::new());
                    slots.map.insert(l, Arc::clone(&cell));
                    slots.order.push(l);
                    cell
                }
            }
        };
        cell.get_or_init(|| {
            let timer = Timer::start();
            let mut work = WorkStats::default();
            let ht = build_head_tail(grammar, dag, levels, l, pool, &mut work);
            charge.note(timer.elapsed(), work);
            self.fills.fetch_add(1, Ordering::Relaxed);
            ht
        });
        cell
    }

    pub(crate) fn ensure_sequence_items(
        &self,
        grammar: &Grammar,
        fcfg: FineGrainedConfig,
        charge: &mut RunCharge,
    ) -> &Vec<SeqItem> {
        let segments = self.ensure_segments(grammar, charge);
        self.fill(&self.sequence_items, charge, |_| {
            sequence_work_items(grammar, segments, fcfg.chunk_elements)
        })
    }
}

/// The borrowed context a fine-grained task path runs against: the fixed
/// configuration, the shared [`Analysis`] layer, and the scratch pool the
/// term-vector path leases its dense regions from.  `Copy` by design — the
/// dispatch clones it freely into every task function.
#[derive(Clone, Copy)]
pub(crate) struct FineCtx<'e> {
    pub(crate) fcfg: FineGrainedConfig,
    pub(crate) analysis: &'e Analysis,
    pub(crate) tv_scratch: &'e ScratchPool<Vec<TvScratch>>,
}

// ---------------------------------------------------------------------------
// The results cache
// ---------------------------------------------------------------------------

/// Maximum distinct `(Task, TaskConfig)` keys the results cache holds; a
/// full cache stops inserting (the working set of a serving mix is tiny —
/// six tasks × a handful of sequence lengths — so eviction buys nothing).
const RESULTS_CACHE_CAP: usize = 256;

/// Whole-output memoization keyed by `(Task, TaskConfig)` — sound because
/// the archive is immutable for the engine's lifetime and the engine is
/// deterministic for a fixed key.  Exact-key semantics: distinct configs
/// never alias (the full `TaskConfig` is the key, even for tasks that
/// ignore `sequence_length`).  Opt-in via [`EngineBuilder::results_cache`];
/// degraded results are never inserted (a degraded answer is
/// oracle-identical, but its *provenance* is not worth caching — the next
/// query should retake the fine path).
///
/// Concurrent misses on the same key may compute the output twice and both
/// insert (last write wins, values identical by determinism); the counters
/// therefore reconcile as *probes* — `hits + misses == lookups` always,
/// `misses == distinct keys` only without concurrent same-key races.
#[derive(Default)]
struct ResultsCache {
    map: Mutex<FxHashMap<(Task, TaskConfig), AnalyticsOutput>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultsCache {
    /// Probes the cache, counting the probe as a hit or miss.
    fn lookup(&self, task: Task, cfg: TaskConfig) -> Option<AnalyticsOutput> {
        let found = self
            .map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&(task, cfg))
            .cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts a clean (non-degraded) output, unless the cache is full.
    fn insert(&self, task: Task, cfg: TaskConfig, output: AnalyticsOutput) {
        let mut map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
        if map.len() < RESULTS_CACHE_CAP || map.contains_key(&(task, cfg)) {
            map.insert((task, cfg), output);
        }
    }

    /// `(hits, misses)` counters.
    fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// The per-query stats snapshot attached to [`PhaseTimings`].
    fn stats(&self, hit: bool) -> ResultsCacheStats {
        let (hits, misses) = self.counters();
        ResultsCacheStats { hit, hits, misses }
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Configures and validates an [`Engine`].  Created by [`Engine::builder`].
///
/// Defaults: `available_parallelism` worker threads, the default chunk
/// threshold (4096 indices), results cache off.  [`build`](Self::build)
/// rejects invalid knobs with a typed [`ConfigError`].
#[derive(Debug, Clone, Copy)]
pub struct EngineBuilder<'a> {
    archive: &'a TadocArchive,
    dag: &'a Dag,
    num_threads: usize,
    chunk_elements: usize,
    results_cache: bool,
}

impl<'a> EngineBuilder<'a> {
    /// Sets the worker thread count (must be ≥ 1).
    pub fn threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Sets the chunking threshold (must be ≥ 1).
    pub fn chunk_elements(mut self, chunk_elements: usize) -> Self {
        self.chunk_elements = chunk_elements;
        self
    }

    /// Enables whole-output memoization keyed by `(Task, TaskConfig)` —
    /// sound because the archive is immutable for the session's lifetime.
    /// Off by default: repeated identical queries then re-run the (still
    /// analysis-warm) compute path, which is what benchmarks and
    /// epoch-accounting tests expect.  Serving deployments with repetitive
    /// query mixes should turn it on; hit/miss counters surface through
    /// [`PhaseTimings::results_cache`](crate::timing::PhaseTimings::results_cache)
    /// and [`Engine::results_cache_counters`].
    pub fn results_cache(mut self, enabled: bool) -> Self {
        self.results_cache = enabled;
        self
    }

    /// Validates the configuration **and the archive/DAG structure**, then
    /// builds the engine, spawning its persistent worker pool.
    ///
    /// # Errors
    /// [`EngineError::Config`] for a nonsense knob;
    /// [`EngineError::InvalidArchive`] when the grammar fails structural
    /// validation (out-of-range rule references, cycles, empty root,
    /// misplaced splitters) or the DAG does not match the grammar — caught
    /// here, at build time, instead of panicking mid-traversal on the first
    /// query.
    pub fn build(self) -> Result<Engine<'a>, EngineError> {
        if self.num_threads == 0 {
            return Err(ConfigError::ZeroThreads.into());
        }
        if self.chunk_elements == 0 {
            return Err(ConfigError::ZeroChunkElements.into());
        }
        validate_archive(self.archive, self.dag)?;
        Ok(Engine {
            archive: self.archive,
            dag: self.dag,
            fcfg: FineGrainedConfig {
                num_threads: self.num_threads,
                chunk_elements: self.chunk_elements,
            },
            exec: Mutex::new(ExecState {
                pool: WorkerPool::new(self.num_threads),
                epochs_retired: 0,
            }),
            analysis: Analysis::default(),
            tv_scratch: ScratchPool::default(),
            results: self.results_cache.then(ResultsCache::default),
        })
    }
}

/// Structural validation of the archive/DAG pair a session is built over.
/// Every traversal in the engine assumes these invariants (in-range rule
/// references, acyclicity, a DAG derived from *this* grammar); violating
/// them used to surface as a panic (or worse, an index-out-of-bounds abort)
/// deep inside the first query.
fn validate_archive(archive: &TadocArchive, dag: &Dag) -> Result<(), EngineError> {
    let grammar = &archive.grammar;
    grammar
        .validate()
        .map_err(|e| EngineError::InvalidArchive {
            reason: e.to_string(),
        })?;
    if grammar.root().is_empty() {
        return Err(EngineError::InvalidArchive {
            reason: "root rule is empty (no corpus content)".to_string(),
        });
    }
    if dag.num_rules != grammar.num_rules() {
        return Err(EngineError::InvalidArchive {
            reason: format!(
                "DAG has {} rules but the grammar has {} — the DAG was not \
                 derived from this grammar",
                dag.num_rules,
                grammar.num_rules()
            ),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// The execution half of the session state — the admission point.
///
/// **Admission contract**: one query at a time owns the shared persistent
/// pool, claimed with `try_lock` (never blocking).  A query that finds the
/// pool busy runs **inline** on a transient single-worker pool (zero helper
/// threads: the calling thread executes every chunk itself).  Contended
/// queries therefore trade parallel speedup for immediate admission — no
/// queueing, no convoy, bounded latency — and the transient pool's epochs
/// are folded into `epochs_retired` afterwards so [`Engine::epochs`] stays
/// monotonic over *all* dispatched epochs.  Cancellation/deadline control
/// installs on whichever pool the query exclusively holds.
struct ExecState {
    pool: WorkerPool,
    /// Epochs dispatched by pools this session has already retired — healed
    /// after poisoning, or transient inline pools after a contended query.
    epochs_retired: u64,
}

/// A long-lived, **concurrently shareable** fine-grained execution session
/// over one compressed archive.
///
/// The engine borrows the archive and DAG for its whole lifetime and owns
/// the persistent [`WorkerPool`] plus the once-filled analysis layer, so
/// repeated queries pay the shared initialization (DAG levels, rule/file
/// weights, head/tail buffers, chunk decompositions, the term-vector CSR)
/// **once** instead of once per call.  Outputs are byte-identical to the
/// sequential oracle [`run_task`]; the amortization is observable via
/// [`PhaseTimings::shared_init`] / [`PhaseTimings::warm`].
///
/// Every query method takes `&self`, and `Engine` is [`Sync`]: N client
/// threads may query one shared engine simultaneously
/// (`std::thread::scope` plus `&engine` is all it takes).  The session
/// state is split by mutability: the worker pool is the one
/// exclusively-held piece, the analysis layer is immutable-once-filled and
/// shared by every concurrent query, and mutable scratch is leased per query
/// from a typed pool.  The admission contract: one query at a time owns the
/// shared pool (claimed with a non-blocking `try_lock`); a query finding it
/// busy runs inline on a transient single-worker pool rather than queueing,
/// trading parallel speedup for immediate admission and bounded latency.
///
/// ```
/// use sequitur::compress::{compress_corpus, CompressOptions};
/// use sequitur::Dag;
/// use tadoc::apps::{Task, TaskConfig};
/// use tadoc::fine_grained::Engine;
///
/// let corpus = vec![
///     ("a.txt".to_string(), "the cat sat on the mat the cat sat".to_string()),
///     ("b.txt".to_string(), "the dog sat on the mat".to_string()),
/// ];
/// let archive = compress_corpus(&corpus, CompressOptions::default());
/// let dag = Dag::from_grammar(&archive.grammar);
///
/// // One session, many queries: the second word count is served from the
/// // warm analysis layer (no shared-artifact work at all).
/// let engine = Engine::builder(&archive, &dag).threads(2).build().unwrap();
/// let cold = engine.run(Task::WordCount, TaskConfig::default()).unwrap();
/// let warm = engine.run(Task::WordCount, TaskConfig::default()).unwrap();
/// assert_eq!(cold.output, warm.output);
/// assert!(!cold.timings.warm);
/// assert!(warm.timings.warm);
/// assert!(warm.timings.shared_init.is_zero());
///
/// // Concurrent clients share the engine (and its analysis layer) by
/// // reference.
/// std::thread::scope(|s| {
///     for _ in 0..2 {
///         s.spawn(|| engine.run(Task::WordCount, TaskConfig::default()).unwrap());
///     }
/// });
/// ```
///
/// [`PhaseTimings::shared_init`]: crate::timing::PhaseTimings::shared_init
/// [`PhaseTimings::warm`]: crate::timing::PhaseTimings::warm
pub struct Engine<'a> {
    archive: &'a TadocArchive,
    dag: &'a Dag,
    fcfg: FineGrainedConfig,
    exec: Mutex<ExecState>,
    analysis: Analysis,
    tv_scratch: ScratchPool<Vec<TvScratch>>,
    /// Whole-output memoization, present when the builder enabled it.
    results: Option<ResultsCache>,
}

impl<'a> Engine<'a> {
    /// Starts building a session over `archive`/`dag` (default thread count
    /// and chunk threshold).
    pub fn builder(archive: &'a TadocArchive, dag: &'a Dag) -> EngineBuilder<'a> {
        let defaults = FineGrainedConfig::default();
        EngineBuilder {
            archive,
            dag,
            num_threads: defaults.num_threads,
            chunk_elements: defaults.chunk_elements,
            results_cache: false,
        }
    }

    /// The archive this session runs over.
    pub fn archive(&self) -> &'a TadocArchive {
        self.archive
    }

    /// Number of barrier epochs the session has dispatched so far across
    /// every pool it has owned — the persistent pool, healed replacements,
    /// and transient inline pools of contended queries.  Strictly
    /// increasing.
    pub fn epochs(&self) -> u64 {
        let exec = self.exec.lock().unwrap_or_else(PoisonError::into_inner);
        exec.epochs_retired + exec.pool.epochs()
    }

    /// Runs `f` against the session's persistent worker pool.  The pool is
    /// exclusively held for the duration of `f` — a concurrent query
    /// arriving meanwhile is admitted inline per the admission contract,
    /// never blocked.
    pub fn with_worker_pool<R>(&self, f: impl FnOnce(&WorkerPool) -> R) -> R {
        let exec = self.exec.lock().unwrap_or_else(PoisonError::into_inner);
        f(&exec.pool)
    }

    /// Number of analysis-layer fill computations executed so far.  Each
    /// shared artifact counts once no matter how many concurrent queries
    /// raced to first-touch it — the "filled exactly once" proof hook.
    pub fn analysis_fills(&self) -> u64 {
        self.analysis.fills()
    }

    /// Cumulative results-cache `(hits, misses)`, or `None` when the cache
    /// was not enabled at build time.
    pub fn results_cache_counters(&self) -> Option<(u64, u64)> {
        self.results.as_ref().map(ResultsCache::counters)
    }

    /// Runs one task, reusing every applicable cached artifact and caching
    /// whatever had to be computed for the queries that follow.
    ///
    /// Equivalent to [`run_with`](Self::run_with) under no limits.
    ///
    /// # Errors
    /// See [`EngineError`] for the full failure model; with no limits
    /// attached, the reachable errors are [`EngineError::Config`] (a
    /// sequence-sensitive task with `sequence_length == 0`) and the
    /// double-fault [`EngineError::WorkerPanicked`].
    pub fn run(&self, task: Task, cfg: TaskConfig) -> Result<TaskExecution, EngineError> {
        self.run_with(task, cfg, &QueryOptions::default())
    }

    /// Runs one task under per-query limits (deadline, cancellation).
    ///
    /// The limits are enforced cooperatively: the engine checks them at
    /// every chunk boundary and between DAG levels, so an abort surfaces in
    /// bounded time and never poisons the session.
    ///
    /// # Errors
    /// [`EngineError::Cancelled`] / [`EngineError::DeadlineExceeded`] for
    /// tripped limits, plus everything [`run`](Self::run) can return.
    pub fn run_with(
        &self,
        task: Task,
        cfg: TaskConfig,
        opts: &QueryOptions,
    ) -> Result<TaskExecution, EngineError> {
        if task.is_sequence_sensitive() && cfg.sequence_length == 0 {
            return Err(ConfigError::ZeroSequenceLength { task }.into());
        }
        // Pre-flight: an already-tripped limit fails before any work.
        if opts.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Err(EngineError::Cancelled);
        }
        let deadline = opts.deadline.map(|d| Instant::now() + d);
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(EngineError::DeadlineExceeded);
        }
        // Results-cache probe (after validation/pre-flight, so rejected
        // queries never touch the counters): a hit synthesizes a warm
        // execution with no compute at all.
        if let Some(cache) = &self.results {
            if let Some(output) = cache.lookup(task, cfg) {
                return Ok(TaskExecution {
                    output,
                    timings: PhaseTimings {
                        warm: true,
                        results_cache: Some(cache.stats(true)),
                        ..Default::default()
                    },
                });
            }
        }
        let cancel = opts.cancel.as_ref().map(CancelToken::flag);
        let mut exec = self.run_fine(task, cfg, cancel, deadline)?;
        if let Some(cache) = &self.results {
            if exec.timings.degraded.is_none() {
                cache.insert(task, cfg, exec.output.clone());
            }
            exec.timings.results_cache = Some(cache.stats(false));
        }
        Ok(exec)
    }

    /// The admission point (see [`ExecState`] for the contract): claims the
    /// shared pool with a non-blocking `try_lock`, or — when another query
    /// holds it — runs inline on a transient single-worker pool, folding
    /// the transient pool's dispatched epochs into the shared accounting
    /// afterwards so [`Engine::epochs`] stays monotonic.
    fn run_fine(
        &self,
        task: Task,
        cfg: TaskConfig,
        cancel: Option<Arc<AtomicBool>>,
        deadline: Option<Instant>,
    ) -> Result<TaskExecution, EngineError> {
        match self.exec.try_lock() {
            Ok(mut exec) => self.run_fine_on_pool(task, cfg, &mut exec, cancel, deadline),
            Err(TryLockError::Poisoned(poisoned)) => {
                // The ladder below never unwinds while the guard is held, so
                // a poisoned mutex is unreachable — but heal defensively
                // rather than asserting on a std implementation detail.
                let mut exec = poisoned.into_inner();
                self.run_fine_on_pool(task, cfg, &mut exec, cancel, deadline)
            }
            Err(TryLockError::WouldBlock) => {
                let mut local = ExecState {
                    pool: WorkerPool::new(1),
                    epochs_retired: 0,
                };
                let result = self.run_fine_on_pool(task, cfg, &mut local, cancel, deadline);
                let dispatched = local.epochs_retired + local.pool.epochs();
                self.exec
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .epochs_retired += dispatched;
                result
            }
        }
    }

    /// The fault-isolation shell: runs the query on the exclusively-held
    /// pool inside `catch_unwind`, classifies any escaped payload, heals the
    /// pool if the fault poisoned it, and degrades to the sequential oracle
    /// path once.  Faults are **per-query** by construction: the analysis
    /// fills are panic-atomic (a faulted fill leaves its cell empty),
    /// scratch leases dropped mid-unwind are discarded rather than recycled,
    /// and the query's charge is stack-local — so nothing a fault touches is
    /// visible to concurrent or subsequent queries.
    ///
    /// The recovery ladder, in order:
    /// 1. [`Abort`] payloads (cancel/deadline checkpoints fired) are clean:
    ///    return the matching [`EngineError`] — nothing is poisoned, no
    ///    retry.
    /// 2. Anything else is a worker fault.  If it poisoned the pool, rebuild
    ///    it (same thread count), retiring the old pool's epoch count so
    ///    [`Engine::epochs`] keeps increasing monotonically.
    /// 3. Retry once on the sequential path — byte-identical output by
    ///    construction — and mark the result
    ///    [`degraded`](crate::timing::PhaseTimings::degraded).
    /// 4. If the sequential retry *also* faults (a double fault: the input
    ///    itself is panic-shaped, not a transient), return
    ///    [`EngineError::WorkerPanicked`] carrying the original message.
    fn run_fine_on_pool(
        &self,
        task: Task,
        cfg: TaskConfig,
        exec: &mut ExecState,
        cancel: Option<Arc<AtomicBool>>,
        deadline: Option<Instant>,
    ) -> Result<TaskExecution, EngineError> {
        let ctx = FineCtx {
            fcfg: self.fcfg,
            analysis: &self.analysis,
            tv_scratch: &self.tv_scratch,
        };
        exec.pool.install_control(cancel, deadline);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_fine_with_cache(self.archive, self.dag, task, cfg, ctx, &exec.pool)
        }));
        exec.pool.clear_control();
        let payload = match result {
            Ok(execution) => return Ok(execution),
            Err(payload) => payload,
        };

        if let Some(abort) = payload.downcast_ref::<Abort>() {
            return Err(match abort {
                Abort::Cancelled => EngineError::Cancelled,
                Abort::DeadlineExceeded => EngineError::DeadlineExceeded,
            });
        }

        if exec.pool.is_poisoned() {
            let healed = WorkerPool::new(exec.pool.threads());
            let old = std::mem::replace(&mut exec.pool, healed);
            exec.epochs_retired += old.epochs();
        }
        let retry = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_task(self.archive, self.dag, task, cfg)
        }));
        match retry {
            Ok(mut execution) => {
                execution.timings.degraded = Some(Degradation::WorkerPanic);
                Ok(execution)
            }
            Err(_) => Err(EngineError::WorkerPanicked {
                message: panic_message(payload.as_ref()),
            }),
        }
    }
}

/// Best-effort extraction of a human-readable message from a panic payload
/// (`&str` and `String` cover everything `panic!` produces; typed
/// `panic_any` payloads are classified before this is consulted).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

impl std::fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("threads", &self.fcfg.num_threads)
            .field("chunk_elements", &self.fcfg.chunk_elements)
            .field("epochs", &self.epochs())
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // tests may assert by unwrapping
mod tests {
    use super::*;
    use sequitur::compress::{compress_corpus, CompressOptions};

    fn build_archive() -> (TadocArchive, Dag) {
        let shared = "alpha beta gamma delta epsilon zeta eta theta ".repeat(10);
        let corpus: Vec<(String, String)> = (0..5)
            .map(|i| (format!("doc{i}"), format!("{shared} unique{i} {shared}")))
            .collect();
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        (archive, dag)
    }

    #[test]
    fn builder_rejects_invalid_configuration() {
        let (archive, dag) = build_archive();
        assert_eq!(
            Engine::builder(&archive, &dag).threads(0).build().err(),
            Some(EngineError::Config(ConfigError::ZeroThreads))
        );
        assert_eq!(
            Engine::builder(&archive, &dag)
                .chunk_elements(0)
                .build()
                .err(),
            Some(EngineError::Config(ConfigError::ZeroChunkElements))
        );
        // Errors render as readable messages.
        assert!(ConfigError::ZeroThreads.to_string().contains("num_threads"));
        assert!(
            ConfigError::ZeroSequenceLength {
                task: Task::SequenceCount
            }
            .to_string()
            .contains("sequenceCount")
        );
        assert!(EngineError::Config(ConfigError::ZeroThreads)
            .to_string()
            .contains("invalid configuration"));
    }

    #[test]
    fn builder_rejects_structurally_invalid_archives() {
        use sequitur::Symbol;
        let (archive, dag) = build_archive();

        // Out-of-range rule reference.
        let mut corrupt = archive.clone();
        corrupt.grammar.rules[0].push(Symbol::Rule(u32::MAX));
        match Engine::builder(&corrupt, &dag).build().err() {
            Some(EngineError::InvalidArchive { reason }) => {
                assert!(reason.contains("nonexistent"), "reason: {reason}")
            }
            other => panic!("expected InvalidArchive, got {other:?}"),
        }

        // Cycle through the root.
        let mut cyclic = archive.clone();
        cyclic.grammar.rules[0].push(Symbol::Rule(0));
        assert!(matches!(
            Engine::builder(&cyclic, &dag).build().err(),
            Some(EngineError::InvalidArchive { .. })
        ));

        // Empty root: no corpus content to traverse.
        let mut empty = archive.clone();
        empty.grammar.rules = vec![Vec::new()];
        let empty_dag = Dag::from_grammar(&empty.grammar);
        match Engine::builder(&empty, &empty_dag).build().err() {
            Some(EngineError::InvalidArchive { reason }) => {
                assert!(reason.contains("root rule is empty"), "reason: {reason}")
            }
            other => panic!("expected InvalidArchive, got {other:?}"),
        }

        // A DAG that was not derived from this grammar.
        let (other_archive, _) = build_archive();
        let mut trimmed = other_archive.clone();
        trimmed.grammar.rules = vec![vec![Symbol::Word(1), Symbol::Word(2)]];
        let foreign_dag = Dag::from_grammar(&trimmed.grammar);
        assert!(matches!(
            Engine::builder(&archive, &foreign_dag).build().err(),
            Some(EngineError::InvalidArchive { .. })
        ));

        // The pristine pair still builds.
        assert!(Engine::builder(&archive, &dag).build().is_ok());
    }

    #[test]
    fn run_rejects_zero_sequence_length_with_typed_error() {
        let (archive, dag) = build_archive();
        let engine = Engine::builder(&archive, &dag).threads(2).build().unwrap();
        let cfg = TaskConfig { sequence_length: 0 };
        assert_eq!(
            engine.run(Task::SequenceCount, cfg).err(),
            Some(EngineError::Config(ConfigError::ZeroSequenceLength {
                task: Task::SequenceCount
            }))
        );
        assert_eq!(engine.epochs(), 0, "nothing may have run");
        // Non-sequence tasks ignore the knob entirely.
        assert!(engine.run(Task::WordCount, cfg).is_ok());
    }

    #[test]
    fn pre_flight_limit_checks_reject_before_any_work() {
        let (archive, dag) = build_archive();
        let engine = Engine::builder(&archive, &dag).threads(2).build().unwrap();
        let token = CancelToken::new();
        token.cancel();
        assert!(token.is_cancelled());
        let opts = QueryOptions::new().cancel_token(token);
        assert_eq!(
            engine
                .run_with(Task::WordCount, TaskConfig::default(), &opts)
                .err(),
            Some(EngineError::Cancelled)
        );
        assert_eq!(engine.epochs(), 0, "cancelled pre-flight: nothing ran");
        // A fresh token imposes nothing.
        let opts = QueryOptions::new().cancel_token(CancelToken::new());
        assert!(engine
            .run_with(Task::WordCount, TaskConfig::default(), &opts)
            .is_ok());
        // A generous deadline does not trip.
        let opts = QueryOptions::new().deadline(Duration::from_secs(3600));
        assert!(engine
            .run_with(Task::WordCount, TaskConfig::default(), &opts)
            .is_ok());
    }

    #[test]
    fn warm_runs_skip_shared_initialization() {
        let (archive, dag) = build_archive();
        let cfg = TaskConfig::default();
        let engine = Engine::builder(&archive, &dag).threads(2).build().unwrap();
        for task in Task::ALL {
            let cold = engine.run(task, cfg).unwrap();
            let warm = engine.run(task, cfg).unwrap();
            assert_eq!(cold.output, warm.output, "{}", task.name());
            assert!(warm.timings.warm, "{} second run must be warm", task.name());
            assert!(
                warm.timings.shared_init.is_zero(),
                "{} warm run must compute no shared artifacts",
                task.name()
            );
            assert_eq!(
                warm.timings.init_work.total_ops(),
                0,
                "{} warm init must perform no shared work",
                task.name()
            );
        }
    }

    #[test]
    fn distinct_sequence_lengths_get_distinct_head_tail_cache_entries() {
        let (archive, dag) = build_archive();
        let engine = Engine::builder(&archive, &dag).threads(2).build().unwrap();
        for l in [2usize, 3, 4] {
            let cfg = TaskConfig { sequence_length: l };
            let first = engine.run(Task::SequenceCount, cfg).unwrap();
            assert!(!first.timings.warm, "l={l} first run computes head/tail");
            let again = engine.run(Task::SequenceCount, cfg).unwrap();
            assert!(again.timings.warm, "l={l} repeat must be warm");
            assert_eq!(first.output, again.output);
        }
        // Previously-seen lengths stay cached.
        let back = engine
            .run(Task::SequenceCount, TaskConfig { sequence_length: 2 })
            .unwrap();
        assert!(back.timings.warm, "l=2 was cached earlier in the session");
    }

    #[test]
    fn head_tail_cache_is_bounded_with_fifo_eviction() {
        let (archive, dag) = build_archive();
        let engine = Engine::builder(&archive, &dag).threads(2).build().unwrap();
        let baseline: Vec<_> = (1..=HEAD_TAIL_CACHE_CAP + 2)
            .map(|l| {
                let cfg = TaskConfig { sequence_length: l };
                engine.run(Task::SequenceCount, cfg).unwrap().output
            })
            .collect();
        {
            let slots = engine.analysis.head_tail.lock().unwrap();
            assert_eq!(
                slots.map.len(),
                HEAD_TAIL_CACHE_CAP,
                "cache must stay bounded"
            );
            assert!(
                !slots.map.contains_key(&1) && !slots.map.contains_key(&2),
                "oldest lengths must have been evicted first"
            );
        }
        // An evicted length recomputes (cold) but stays correct.
        let again = engine
            .run(Task::SequenceCount, TaskConfig { sequence_length: 1 })
            .unwrap();
        assert!(!again.timings.warm, "evicted l=1 must recompute");
        assert_eq!(again.output, baseline[0], "recomputed output must match");
    }

    #[test]
    fn engine_is_sync_and_shareable_across_threads() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<Engine<'_>>();

        let (archive, dag) = build_archive();
        let engine = Engine::builder(&archive, &dag).threads(2).build().unwrap();
        let cfg = TaskConfig::default();
        let baseline = engine.run(Task::WordCount, cfg).unwrap();
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let got = engine.run(Task::WordCount, cfg).unwrap();
                    assert_eq!(got.output, baseline.output);
                });
            }
        });
    }

    #[test]
    fn analysis_fills_count_once_regardless_of_query_count() {
        let (archive, dag) = build_archive();
        let engine = Engine::builder(&archive, &dag).threads(2).build().unwrap();
        let cfg = TaskConfig::default();
        engine.run(Task::WordCount, cfg).unwrap();
        let after_first = engine.analysis_fills();
        assert!(after_first > 0, "cold query must fill shared artifacts");
        for _ in 0..4 {
            engine.run(Task::WordCount, cfg).unwrap();
        }
        assert_eq!(
            engine.analysis_fills(),
            after_first,
            "warm queries must not re-fill the analysis layer"
        );
    }

    #[test]
    fn results_cache_is_off_by_default_and_opt_in() {
        let (archive, dag) = build_archive();
        let plain = Engine::builder(&archive, &dag).threads(2).build().unwrap();
        assert_eq!(plain.results_cache_counters(), None);
        let exec = plain.run(Task::WordCount, TaskConfig::default()).unwrap();
        assert!(exec.timings.results_cache.is_none());

        let caching = Engine::builder(&archive, &dag)
            .threads(2)
            .results_cache(true)
            .build()
            .unwrap();
        let cfg = TaskConfig::default();
        let cold = caching.run(Task::WordCount, cfg).unwrap();
        let stats = cold.timings.results_cache.expect("cache stats attached");
        assert!(!stats.hit);
        let warm = caching.run(Task::WordCount, cfg).unwrap();
        let stats = warm.timings.results_cache.expect("cache stats attached");
        assert!(stats.hit, "identical (task, cfg) must hit the results cache");
        assert!(warm.timings.warm, "a cache hit is by definition warm");
        assert_eq!(warm.output, cold.output);
        assert_eq!(caching.results_cache_counters(), Some((1, 1)));
    }

    #[test]
    fn results_cache_distinguishes_configs() {
        let (archive, dag) = build_archive();
        let engine = Engine::builder(&archive, &dag)
            .threads(2)
            .results_cache(true)
            .build()
            .unwrap();
        let a = engine
            .run(Task::SequenceCount, TaskConfig { sequence_length: 2 })
            .unwrap();
        let b = engine
            .run(Task::SequenceCount, TaskConfig { sequence_length: 3 })
            .unwrap();
        assert_ne!(a.output, b.output, "different l must give different output");
        let (hits, misses) = engine.results_cache_counters().unwrap();
        assert_eq!((hits, misses), (0, 2), "distinct cfgs never alias a key");
        let again = engine
            .run(Task::SequenceCount, TaskConfig { sequence_length: 2 })
            .unwrap();
        assert_eq!(again.output, a.output);
        assert_eq!(engine.results_cache_counters(), Some((1, 2)));
    }
}
