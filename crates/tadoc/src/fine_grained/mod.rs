//! Fine-grained parallel CPU execution engine.
//!
//! This module brings the G-TADOC scheduling (so far only realised on the
//! `gpu-sim` backend) onto real CPU threads, replacing the coarse-grained
//! file-partition parallelism of [`crate::parallel`] with the design the
//! paper argues for:
//!
//! 1. **Level-synchronized DAG traversal on a persistent worker pool.**
//!    Rules are grouped by dependency depth ([`head_tail::levels_top_down`]
//!    / [`head_tail::levels_bottom_up`]); all rules of one level are
//!    processed in parallel across one long-lived [`exec::WorkerPool`]
//!    (parked threads, created once per [`Engine`] session), and the pool's
//!    generation-counted epoch barrier between levels plays the role of the
//!    GPU's mask/stop-flag round barrier (Algorithm 1 top-down for
//!    rule/file weights, Algorithm 2 bottom-up for head/tail assembly —
//!    `rule.numOutEdge` ordering falls out of the layer grouping, since every
//!    child sits in a strictly deeper layer than all of its parents).
//!    Because worker ids are pinned to OS threads for the lifetime of the
//!    pool, a worker's arena region stays on the same thread across levels
//!    and phases, and small DAG levels no longer pay a thread-spawn each.
//! 2. **Private per-worker accumulators** (Figure 5's lock-free local
//!    tables, in CPU-appropriate form).  Every worker owns its accumulation
//!    state outright — append-and-compact shard buffers for the counting
//!    tasks, a dense `counts[word]` scratch with touched-word tracking for
//!    term vector (word ids are already a perfect hash of the vocabulary) —
//!    the CPU twin of the paper's observation that a table owned by one
//!    thread needs no locks.  (The flat open-addressing tables of
//!    [`arena::flat64`] remain the substrate of the simulated GPU engine,
//!    where dynamic allocation per thread is not an option.)
//! 3. **Sharded lock-free global merge over append-and-compact buffers.**
//!    Instead of the global table's bucket locks (Figure 5's
//!    `lock`/`entries` buffers), the CPU merge assigns every key hash-shard
//!    to exactly one worker ([`exec::shard_of`]), so the per-shard merges
//!    run concurrently with no synchronization at all — contention is
//!    resolved statically rather than with atomics.  Workers accumulate
//!    their shards in [`arena::shard::ShardBuf`]s (an append per
//!    occurrence, self-compacting by sort + fold), so no per-worker hash
//!    maps are materialised on the traversal hot path and each shard's
//!    merge is one sort + fold.
//! 4. **Chunk-granular work decomposition.**  Work items are *chunks* of an
//!    item's index space ([`exec::chunk_ranges`]), not whole rules or files:
//!    an oversized rule body (dataset B's root holds most of the corpus),
//!    local-word list, or root segment is split at
//!    [`FineGrainedConfig::chunk_elements`] and every chunk is weighted
//!    individually into [`exec::partition_by_cost`] or the dynamic work
//!    queue — the CPU analogue of the paper's thread groups for oversized
//!    rules (Section IV-B), applied to every app path.
//! 5. **File-major CSR accumulation for term vector.**  The top-down pass
//!    produces rule-major `(file, occurrences)` tables; term vector consumes
//!    their transpose ([`file_csr::FileCsr`]) so files can be statically
//!    partitioned across workers by cost and each worker walks only *its
//!    own files'* rules, accumulating one file at a time into a dense
//!    per-worker scratch with touched-word tracking.  File ownership is
//!    disjoint, so there is nothing to merge — the same static-sharding
//!    trick as the global merge.
//! 6. **Rule-local sequence support** (Figures 6–8).  Sequence tasks build
//!    per-rule head/tail buffers bottom-up and count every window **once per
//!    rule**, scaling by rule weight (sequence count) or per-file rule
//!    weight (ranked inverted index); rule bodies and the root are split
//!    into chunks the way the paper's thread groups split oversized rules
//!    (Section IV-B), with chunk-boundary windows completed by an O(`l`)
//!    word-bounded extension ([`sequences::count_range_windows`]).  This
//!    is the reuse that lets the engine beat the sequential baseline even on
//!    a single core — the baseline re-streams every occurrence.
//!
//! The paper compares three designs, and each has one function:
//! [`run_task`](crate::apps::run_task) is the sequential TADOC baseline,
//! [`run_task_parallel`](crate::parallel::run_task_parallel) the
//! coarse-grained file-partition design, and [`engine::Engine`] the
//! fine-grained design of this module: a long-lived session owning the
//! persistent pool and a lazily-cached analysis layer (DAG levels,
//! rule/file weights, head/tail buffers, chunk decompositions, the
//! term-vector CSR) shared by every query over the borrowed archive.
//!
//! Outputs are byte-identical to the sequential oracle for all six tasks
//! (asserted by `tests/cross_implementation.rs`, `tests/engine_session.rs`
//! and the unit tests below).

pub mod engine;
pub mod exec;
pub mod file_csr;
pub mod head_tail;
pub mod merge;
pub(crate) mod scratch;
pub mod sequences;

pub use engine::{CancelToken, ConfigError, Engine, EngineBuilder, EngineError, QueryOptions};

use crate::apps::{Task, TaskConfig, TaskExecution};
use crate::results::*;
use crate::timing::{PhaseTimings, Timer, WorkStats};
use arena::shard::{sort_fold, CountEntry, MaskEntry, ShardBuf};
use engine::{FineCtx, RunCharge};
use exec::{DisjointSlots, WorkerPool};
use merge::{par_merge_postings, par_merge_rows, PostingRun};
use file_csr::FileCsr;
use sequences::{count_range_windows, count_root_chunk, root_chunks, RootChunk};
use sequitur::{Dag, Grammar, Symbol, TadocArchive, WordId};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-rule per-file occurrence counts in compact form: `fw[r]` holds rule
/// `r`'s `(file, occurrences)` pairs sorted by file id.  The compact lists
/// replaced the per-rule `FxHashMap<FileId, u64>` tables: dataset B has four
/// files, so a hash map per rule was almost entirely allocator and probe
/// overhead.
pub type FileWeightLists = Vec<Vec<(FileId, u64)>>;

/// Configuration of the fine-grained runner.
#[derive(Debug, Clone, Copy)]
pub struct FineGrainedConfig {
    /// Number of worker threads in the pool.
    pub num_threads: usize,
    /// Target indices per work chunk: any oversized item — a huge rule body
    /// (primarily the root), a giant local-word list, a whole-file root
    /// segment — is split into chunks of at most this many indices, each
    /// weighted individually into the cost partition / work queue (the CPU
    /// analogue of the thread-group split for oversized rules).
    pub chunk_elements: usize,
}

impl Default for FineGrainedConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self {
            num_threads: threads,
            chunk_elements: 4096,
        }
    }
}

/// Dispatches one fine-grained task over an existing pool and session
/// context — the back end of [`Engine::run`].  Takes only shared references
/// to the session state (the [`FineCtx`] is `Copy`): all mutation happens
/// through the analysis layer's once-filled cells and the leased per-query
/// scratch, which is what lets [`Engine::run`] accept `&self`.
///
/// The caller (the builder and [`Engine::run_with`]) is responsible for
/// configuration validation; `cfg.sequence_length` must be at least 1 for
/// sequence-sensitive tasks.
pub(crate) fn run_fine_with_cache(
    archive: &TadocArchive,
    dag: &Dag,
    task: Task,
    cfg: TaskConfig,
    ctx: FineCtx<'_>,
    pool: &WorkerPool,
) -> TaskExecution {
    match task {
        Task::WordCount | Task::Sort => word_count_fine(archive, dag, task, ctx, pool),
        Task::InvertedIndex => inverted_index_fine(archive, dag, ctx, pool),
        Task::TermVector => term_vector_fine(archive, dag, ctx, pool),
        Task::SequenceCount => sequence_count_fine(archive, dag, cfg, ctx, pool),
        Task::RankedInvertedIndex => ranked_inverted_index_fine(archive, dag, cfg, ctx, pool),
    }
}

// ---------------------------------------------------------------------------
// Level-synchronized weight propagation (Algorithm 1 on real threads)
// ---------------------------------------------------------------------------

/// Computes rule weights with a level-synchronized top-down traversal: all
/// rules of one layer propagate `freq × weight` to their children in
/// parallel (atomic adds), with a barrier between layers.  `levels` must be
/// the top-down level schedule of `dag`
/// ([`head_tail::levels_top_down`]); sessions pass their cached copy.
fn parallel_rule_weights(
    dag: &Dag,
    levels: &[Vec<u32>],
    pool: &WorkerPool,
    work: &mut WorkStats,
) -> Vec<u64> {
    let n = dag.num_rules;
    let weights: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    if n == 0 {
        return Vec::new();
    }
    weights[0].store(1, Ordering::Relaxed);
    let edges = AtomicU64::new(0);
    for level in levels {
        pool.checkpoint(); // cancel/deadline, once per DAG level
        pool.for_range(level.len(), |i| {
            let r = level[i] as usize;
            let w = weights[r].load(Ordering::Relaxed);
            if w == 0 {
                return;
            }
            let children = &dag.children[r];
            for &(c, freq) in children {
                weights[c as usize].fetch_add(freq as u64 * w, Ordering::Relaxed);
            }
            edges.fetch_add(children.len() as u64, Ordering::Relaxed);
        });
    }
    let edges = edges.into_inner();
    work.elements_scanned += edges;
    work.sync_ops += edges;
    weights.into_iter().map(AtomicU64::into_inner).collect()
}

/// Computes per-rule per-file occurrence counts with the same
/// level-synchronized top-down schedule, in *pull* form: every rule combines
/// its root seed with its parents' (already final) lists, so each list is
/// written by exactly one worker and the propagation needs no locks at all.
///
/// The lists are compact `(file, occurrences)` vectors sorted by file id —
/// no per-rule hash maps (see [`FileWeightLists`]); a rule folds its
/// parents' contributions with one sort + fold over a scratch vector.
///
/// `levels` must be the top-down level schedule of `dag` and `segments` the
/// root's file segments; sessions pass their cached copies.  The per-level
/// collection is **lock-free**: each rule's list slot is written directly by
/// the one worker that owns the rule this level ([`DisjointSlots`]), and the
/// parent lists it reads were finished in earlier epochs — the old
/// `Mutex<Vec<_>>` funnel and post-barrier scatter are gone.
fn parallel_file_weights(
    grammar: &Grammar,
    dag: &Dag,
    levels: &[Vec<u32>],
    segments: &[(usize, usize)],
    pool: &WorkerPool,
    work: &mut WorkStats,
) -> FileWeightLists {
    let n = dag.num_rules;
    if n == 0 {
        return Vec::new();
    }
    let mut fw: FileWeightLists = vec![Vec::new(); n];

    // Seed: direct rule references in the root, attributed to their file
    // (one linear scan of the root body).  Files are visited in id order, so
    // each rule's seed list comes out sorted by construction.
    let root = grammar.root();
    for (fid, &(start, end)) in segments.iter().enumerate() {
        for sym in &root[start..end] {
            work.elements_scanned += 1;
            if let Symbol::Rule(c) = *sym {
                let list = &mut fw[c as usize];
                match list.last_mut() {
                    Some(last) if last.0 == fid as FileId => last.1 += 1,
                    _ => list.push((fid as FileId, 1)),
                }
                work.table_ops += 1;
            }
        }
    }

    // Pull pass, level by level: all parents of a rule live in strictly
    // shallower layers, so their lists are final when the rule's level runs.
    let ops = AtomicU64::new(0);
    {
        let slots = DisjointSlots::new(&mut fw);
        for level in levels {
            pool.checkpoint(); // cancel/deadline, once per DAG level
            pool.for_range(level.len(), |i| {
                let r = level[i] as usize;
                if r == 0 {
                    return;
                }
                // SAFETY: rule ids within a level are unique, so slot `r` is
                // written by exactly one worker this epoch and read only by
                // that worker (its own seed); every parent slot read lives in
                // a strictly shallower layer, finished in an earlier epoch.
                unsafe {
                    // Common case first: exactly one contributing parent and
                    // no root seed — the list is the parent's, scaled, and
                    // stays sorted without any sort + fold.
                    let mut contributors = 0usize;
                    let mut single: (u32, u32) = (0, 0);
                    for &(p, freq) in &dag.parents[r] {
                        if p != 0 && !slots.get(p as usize).is_empty() {
                            contributors += 1;
                            single = (p, freq);
                        }
                    }
                    if contributors == 0 {
                        return; // the seed list already in place is final
                    }
                    let seed = slots.get(r);
                    let gathered: Vec<(FileId, u64)> = if contributors == 1 && seed.is_empty() {
                        let (p, freq) = single;
                        let parent = slots.get(p as usize);
                        ops.fetch_add(parent.len() as u64, Ordering::Relaxed);
                        parent
                            .iter()
                            .map(|&(f, cnt)| (f, cnt * freq as u64))
                            .collect()
                    } else {
                        let mut gathered: Vec<(FileId, u64)> = Vec::new();
                        let mut local_ops = 0u64;
                        for &(p, freq) in &dag.parents[r] {
                            if p == 0 {
                                continue; // already covered by the seed
                            }
                            for &(f, cnt) in slots.get(p as usize) {
                                gathered.push((f, cnt * freq as u64));
                                local_ops += 1;
                            }
                        }
                        gathered.extend_from_slice(seed); // root seed
                        gathered.sort_unstable_by_key(|&(f, _)| f);
                        gathered.dedup_by(|cur, prev| {
                            if cur.0 == prev.0 {
                                prev.1 += cur.1;
                                true
                            } else {
                                false
                            }
                        });
                        ops.fetch_add(local_ops, Ordering::Relaxed);
                        gathered
                    };
                    slots.set(r, gathered);
                }
            });
        }
    }
    work.table_ops += ops.into_inner();
    fw
}

/// Transposes per-worker sharded maps into per-shard worker lists so the
/// merge can own its shard's data without cloning.
fn transpose_shards<T: Default>(locals: Vec<Vec<T>>, shards: usize) -> Vec<Vec<T>> {
    let mut by_shard: Vec<Vec<T>> = (0..shards).map(|_| Vec::new()).collect();
    for mut local in locals {
        debug_assert_eq!(local.len(), shards);
        for (s, item) in local.drain(..).enumerate() {
            by_shard[s].push(item);
        }
    }
    by_shard
}

/// The sharded lock-free global merge shared by every task: folds the
/// workers' stats, hands each shard's per-worker pieces to exactly one merge
/// worker, and returns the per-shard results (`merge` sees all of one
/// shard's inputs and owns them).
fn merge_sharded<T, R, F>(
    locals: Vec<(Vec<T>, WorkStats)>,
    pool: &WorkerPool,
    traversal_work: &mut WorkStats,
    merge: F,
) -> Vec<R>
where
    T: Send + Default,
    R: Send,
    F: Fn(Vec<T>) -> R + Sync,
{
    let mut shard_inputs = Vec::with_capacity(locals.len());
    for (shards, stats) in locals {
        traversal_work.merge(&stats);
        shard_inputs.push(shards);
    }
    let by_shard = transpose_shards(shard_inputs, pool.threads());
    pool.map_workers(by_shard, |_s, pieces| merge(pieces))
}

// The per-shard sorted runs produced by `merge_sharded` feed straight into
// the k-way merges of [`merge`] — there is no hash-table collection step
// anywhere on the finalize path (the old `collect_shard_rows` re-inserted
// every distinct key into an `FxHashMap`; the `no-hash-finalize` xtask lint
// keeps it from coming back).

// ---------------------------------------------------------------------------
// word count / sort
// ---------------------------------------------------------------------------

fn word_count_fine(
    _archive: &TadocArchive,
    dag: &Dag,
    task: Task,
    ctx: FineCtx<'_>,
    pool: &WorkerPool,
) -> TaskExecution {
    let threads = pool.threads();

    // Phase 1: initialization — weights via the level-synchronized top-down
    // traversal, served from the analysis layer when warm.  The work items
    // are *chunks* of each rule's local-word list (the root's list holds
    // most of a few-huge-files corpus, so a whole-rule item would serialise
    // on one worker), claimed dynamically.
    let init_timer = Timer::start();
    let mut charge = RunCharge::default();
    let weights = ctx.analysis.ensure_rule_weights(dag, pool, &mut charge);
    let chunks = ctx.analysis.ensure_word_chunks(dag, ctx.fcfg, &mut charge);
    let init_work = charge.work;
    let init = init_timer.elapsed();

    // Phase 2: traversal — every chunk appends its local-word slice × rule
    // weight straight into per-shard [`ShardBuf`]s.  The local-word lists
    // are already deduplicated per rule, so on real corpora the entry total
    // is at most a small multiple of the vocabulary and the self-compacting
    // buffers fold it without any per-occurrence hash probes; the sharded
    // merge is one sort + fold per shard.
    let trav_timer = Timer::start();
    let queue = exec::WorkQueue::new(chunks.len(), 16);
    let locals: Vec<(Vec<ShardBuf<CountEntry<WordId>>>, WorkStats)> =
        pool.collect(|_w| {
            let mut shards: Vec<ShardBuf<CountEntry<WordId>>> =
                (0..threads).map(|_| ShardBuf::default()).collect();
            let mut stats = WorkStats::default();
            while let Some(range) = queue.next() {
                pool.checkpoint(); // cancel/deadline, once per claimed chunk
                for item in range {
                    let c = chunks[item];
                    let r = c.item as usize;
                    let weight = weights[r];
                    if weight == 0 {
                        continue;
                    }
                    for &(w, cnt) in &dag.local_words[r][c.begin as usize..c.end as usize] {
                        shards[exec::shard_of(w as u64, threads)]
                            .push(CountEntry::new(w, cnt as u64 * weight));
                        stats.table_ops += 1;
                    }
                    stats.elements_scanned += c.len() as u64;
                }
            }
            (shards, stats)
        });

    let mut traversal_work = WorkStats::default();
    let shard_runs = merge_sharded(locals, pool, &mut traversal_work, |pieces| {
        ShardBuf::merge(pieces)
            .into_iter()
            .map(|e| (e.key, e.count))
            .collect::<Vec<(WordId, u64)>>()
    });
    // Finalize: k-way merge the disjoint shard runs into the ordered
    // columns — shards interleave in key order, so this is a real merge,
    // but it touches each row exactly once and probes nothing.
    let fin_timer = Timer::start();
    let rows = par_merge_rows(shard_runs, pool, &mut traversal_work);
    let (words, counts): (Vec<WordId>, Vec<u64>) = rows.into_iter().unzip();
    let wc = WordCountResult::from_sorted_columns(words, counts);
    let output = if task == Task::WordCount {
        AnalyticsOutput::WordCount(wc)
    } else {
        AnalyticsOutput::Sort(SortResult::from_word_count(&wc))
    };
    let finalize = fin_timer.elapsed();
    let traversal = trav_timer.elapsed();

    TaskExecution {
        output,
        timings: PhaseTimings {
            init,
            traversal,
            init_work,
            traversal_work,
            shared_init: charge.time,
            finalize,
            warm: !charge.computed,
            ..Default::default()
        },
    }
}

// ---------------------------------------------------------------------------
// inverted index
// ---------------------------------------------------------------------------

fn inverted_index_fine(
    archive: &TadocArchive,
    dag: &Dag,
    ctx: FineCtx<'_>,
    pool: &WorkerPool,
) -> TaskExecution {
    let grammar = &archive.grammar;
    let threads = pool.threads();

    let init_timer = Timer::start();
    let mut charge = RunCharge::default();
    let fw = ctx
        .analysis
        .ensure_file_weights(grammar, dag, pool, &mut charge);
    let (rule_chunks, seg_chunks) =
        ctx.analysis
            .ensure_index_chunks(grammar, dag, ctx.fcfg, &mut charge);
    let init_work = charge.work;
    let init = init_timer.elapsed();

    let trav_timer = Timer::start();
    // Work item space: chunks of each non-root rule's local-word list first,
    // then chunks of the root's file segments — a few huge files fan out
    // across the whole pool instead of one worker per file.  Posting
    // candidates are *appended* as `(word, file-block)` bitmask entries into
    // per-shard [`ShardBuf`]s (duplicates allowed, self-compacting, equal
    // keys OR their masks): an append per occurrence is far cheaper than a
    // hash probe per occurrence, and packing 64 files per entry means a rule
    // with a dense file list costs one entry per (word, block) instead of
    // one per (word, file).
    let num_rule_items = rule_chunks.len();
    let queue = exec::WorkQueue::new(num_rule_items + seg_chunks.len(), 16);
    let root = grammar.root();
    type PostingShards = Vec<ShardBuf<MaskEntry<(WordId, u32)>>>;
    let locals: Vec<(PostingShards, WorkStats)> =
        pool.collect(|_w| {
            let mut shards: PostingShards =
                (0..threads).map(|_| ShardBuf::default()).collect();
            let mut stats = WorkStats::default();
            // The current rule's file list folded into (block, mask) pairs,
            // rebuilt once per chunk, not once per word.
            let mut blocks: Vec<(u32, u64)> = Vec::new();
            while let Some(range) = queue.next() {
                pool.checkpoint(); // cancel/deadline, once per claimed chunk
                for item in range {
                    if item < num_rule_items {
                        let c = rule_chunks[item];
                        let r = c.item as usize;
                        if fw[r].is_empty() {
                            continue;
                        }
                        blocks.clear();
                        for &(f, _) in &fw[r] {
                            let block = f / 64;
                            let bit = 1u64 << (f % 64);
                            match blocks.last_mut() {
                                Some(last) if last.0 == block => last.1 |= bit,
                                _ => blocks.push((block, bit)),
                            }
                        }
                        for &(w, _) in &dag.local_words[r][c.begin as usize..c.end as usize] {
                            let s = exec::shard_of(w as u64, threads);
                            for &(block, mask) in &blocks {
                                shards[s].push(MaskEntry::new((w, block), mask));
                            }
                            stats.table_ops += blocks.len() as u64;
                        }
                        stats.elements_scanned += c.len() as u64;
                    } else {
                        let c = seg_chunks[item - num_rule_items];
                        for sym in &root[c.begin..c.end] {
                            stats.elements_scanned += 1;
                            if let Symbol::Word(w) = *sym {
                                shards[exec::shard_of(w as u64, threads)].push(MaskEntry::new(
                                    (w, c.file / 64),
                                    1u64 << (c.file % 64),
                                ));
                                stats.table_ops += 1;
                            }
                        }
                    }
                }
            }
            (shards, stats)
        });

    let mut traversal_work = WorkStats::default();
    let shard_runs = merge_sharded(locals, pool, &mut traversal_work, |pieces| {
        // One sort + OR-fold per shard, then expand the sorted
        // (word, block) mask runs straight into a columnar posting run
        // (blocks and bits ascend, so the lists come out file-sorted).
        let entries = ShardBuf::merge(pieces);
        let mut run = PostingRun::<WordId, FileId>::default();
        let mut i = 0usize;
        while i < entries.len() {
            let w = entries[i].key.0;
            // Size the posting list exactly (one popcount pass over the
            // word's blocks) so the expansion below never reallocates.
            let run_end = entries[i..]
                .iter()
                .position(|e| e.key.0 != w)
                .map_or(entries.len(), |p| i + p);
            let total: u32 = entries[i..run_end].iter().map(|e| e.mask.count_ones()).sum();
            run.values.reserve(total as usize);
            for e in &entries[i..run_end] {
                let block = e.key.1;
                let mut mask = e.mask;
                while mask != 0 {
                    run.values.push(block * 64 + mask.trailing_zeros());
                    mask &= mask - 1;
                }
            }
            i = run_end;
            run.keys.push(w);
            run.offsets.push(run.values.len());
        }
        run
    });
    let fin_timer = Timer::start();
    let merged = par_merge_postings(shard_runs, pool, &mut traversal_work);
    let result = InvertedIndexResult::from_sorted_parts(merged.keys, merged.offsets, merged.values);
    let finalize = fin_timer.elapsed();
    let traversal = trav_timer.elapsed();

    TaskExecution {
        output: AnalyticsOutput::InvertedIndex(result),
        timings: PhaseTimings {
            init,
            traversal,
            init_work,
            traversal_work,
            shared_init: charge.time,
            finalize,
            warm: !charge.computed,
            ..Default::default()
        },
    }
}

// ---------------------------------------------------------------------------
// term vector
// ---------------------------------------------------------------------------

/// The cacheable initialization product of the term-vector task: the
/// file-major CSR, the per-file traversal costs, and the sizes the dense
/// scratch is carved with.  Depends only on the archive, the DAG, and the
/// engine-fixed `chunk_elements` — never on a per-query knob — so a session
/// computes it once.  The cost-balanced per-worker file *ranges* are
/// deliberately **not** cached: they depend on the width of the pool that
/// happens to execute the query (a contended query may run inline on a
/// 1-thread pool), so each query derives them from `costs` with
/// [`exec::partition_by_cost`].
pub(crate) struct TermVectorPrep {
    pub(crate) csr: FileCsr,
    pub(crate) costs: Vec<u64>,
    pub(crate) num_files: usize,
    pub(crate) vocab: usize,
}

/// The dense per-worker accumulation region of the term-vector traversal:
/// `counts[word]` (a perfect-hash array over the vocabulary) plus the
/// touched-word list that bounds per-file cleanup.  Leased as a
/// `Vec<TvScratch>` (one entry per worker) from the session's
/// [`ScratchPool`] so concurrent queries never share a region.  The
/// recycling invariant — all counts zero, `touched` empty — is exactly the
/// state the per-file cleanup restores, so a lease that completes its epoch
/// is returned clean and the next query skips the O(vocab) zeroing.
#[derive(Default)]
pub(crate) struct TvScratch {
    counts: Vec<u64>,
    touched: Vec<WordId>,
}

/// Builds [`TermVectorPrep`]: the file-major CSR *directly* with a
/// per-file top-down propagation over the file's reachable sub-DAG.
/// Unlike the other file-attributed tasks, no rule-major
/// `FxHashMap<FileId, _>` tables are ever built: each worker owns a dense
/// `occ[rule]` scratch plus per-layer buckets, seeds them from the file's
/// root segment, propagates occurrence counts in layer order (every parent
/// sits in a strictly shallower layer, so one pass suffices), and emits the
/// file's `(rule, occurrences)` row.  Scratch cleanup touches only the
/// rules the file reached, so the cost is the size of the file's sub-DAG,
/// not of the whole grammar.
pub(crate) fn build_term_vector_prep(
    archive: &TadocArchive,
    dag: &Dag,
    segments: &[(usize, usize)],
    fcfg: FineGrainedConfig,
    pool: &WorkerPool,
    init_work: &mut WorkStats,
) -> TermVectorPrep {
    let grammar = &archive.grammar;
    let threads = pool.threads();
    let num_files = archive.num_files().max(grammar.num_files());
    let root = grammar.root();
    let n = dag.num_rules;

    // Oversized root segments (a few-huge-files corpus) get their seed scan
    // chunked across the pool first: each chunk folds its direct rule
    // references into a compact sorted list, and the per-file propagation
    // below seeds from the folded lists instead of re-scanning the segment.
    // Small segments skip this entirely — their seed scan stays fused with
    // the propagation.
    let mut seed_chunks: Vec<RootChunk> = Vec::new();
    for (file, &(start, end)) in segments.iter().enumerate() {
        if end - start > fcfg.chunk_elements {
            let mut begin = start;
            while begin < end {
                let chunk_end = (begin + fcfg.chunk_elements).min(end);
                seed_chunks.push(RootChunk {
                    begin,
                    end: chunk_end,
                    seg_end: end,
                    file: file as FileId,
                });
                begin = chunk_end;
            }
        }
    }
    let mut seeds: Vec<Option<Vec<CountEntry<u32>>>> = vec![None; num_files];
    if !seed_chunks.is_empty() {
        let queue = exec::WorkQueue::new(seed_chunks.len(), 1);
        type SeedLists = Vec<(FileId, Vec<CountEntry<u32>>)>;
        let locals: Vec<(SeedLists, WorkStats)> = pool.collect(|_w| {
            let mut out: SeedLists = Vec::new();
            let mut stats = WorkStats::default();
            while let Some(range) = queue.next() {
                pool.checkpoint(); // cancel/deadline, once per claimed chunk
                for ci in range {
                    let c = seed_chunks[ci];
                    let mut buf: ShardBuf<CountEntry<u32>> = ShardBuf::default();
                    for sym in &root[c.begin..c.end] {
                        stats.elements_scanned += 1;
                        if let Symbol::Rule(r) = *sym {
                            buf.push(CountEntry::new(r, 1));
                        }
                    }
                    out.push((c.file, buf.into_sorted()));
                }
            }
            (out, stats)
        });
        for (lists, stats) in locals {
            init_work.merge(&stats);
            for (f, list) in lists {
                seeds[f as usize]
                    .get_or_insert_with(Vec::new)
                    .extend(list);
            }
        }
        for seed in seeds.iter_mut().flatten() {
            sort_fold(seed);
            init_work.table_ops += seed.len() as u64;
        }
    }

    // Dynamic chunking sized like `for_range`: corpora with fewer files
    // than `threads × 8` must still spread across workers (dataset B has 4
    // huge files — a fixed chunk would hand all of them to one worker).
    let chunk = (num_files / (threads * 8)).clamp(1, 64);
    let queue = exec::WorkQueue::new(num_files, chunk);
    type FileRows = Vec<(usize, Vec<(u32, u64)>)>;
    let locals: Vec<(FileRows, WorkStats)> = pool.collect(|_w| {
        let mut occ = vec![0u64; n];
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); dag.num_layers];
        let mut stats = WorkStats::default();
        let mut out: FileRows = Vec::new();
        while let Some(range) = queue.next() {
            pool.checkpoint(); // cancel/deadline, once per claimed chunk
            for f in range {
                // Seed: direct rule references in the file's root segment —
                // from the pre-folded chunk lists for oversized segments,
                // from the segment scan otherwise.
                if let Some(seed) = &seeds[f] {
                    for &CountEntry { key: c, count } in seed {
                        if occ[c as usize] == 0 {
                            buckets[dag.layers[c as usize] as usize].push(c);
                        }
                        occ[c as usize] += count;
                        stats.table_ops += 1;
                    }
                } else if let Some(&(start, end)) = segments.get(f) {
                    for sym in &root[start..end] {
                        stats.elements_scanned += 1;
                        if let Symbol::Rule(c) = *sym {
                            if occ[c as usize] == 0 {
                                buckets[dag.layers[c as usize] as usize].push(c);
                            }
                            occ[c as usize] += 1;
                        }
                    }
                }
                // Propagate top-down in layer order; children always land
                // in strictly deeper buckets, so indexed iteration is safe.
                let mut row: Vec<(u32, u64)> = Vec::new();
                for layer in 0..buckets.len() {
                    for idx in 0..buckets[layer].len() {
                        let r = buckets[layer][idx] as usize;
                        let o = occ[r];
                        row.push((r as u32, o));
                        for &(c, freq) in &dag.children[r] {
                            if occ[c as usize] == 0 {
                                buckets[dag.layers[c as usize] as usize].push(c);
                            }
                            occ[c as usize] += freq as u64 * o;
                            stats.table_ops += 1;
                        }
                    }
                }
                // Reset only what this file touched.
                for bucket in &mut buckets {
                    for &r in bucket.iter() {
                        occ[r as usize] = 0;
                    }
                    bucket.clear();
                }
                out.push((f, row));
            }
        }
        (out, stats)
    });
    let mut rows: Vec<Vec<(u32, u64)>> = vec![Vec::new(); num_files];
    for (worker_rows, stats) in locals {
        init_work.merge(&stats);
        for (f, row) in worker_rows {
            rows[f] = row;
        }
    }
    let csr = FileCsr::from_rows(rows);
    init_work.table_ops += csr.nnz() as u64;
    let vocab = archive.vocabulary_size();
    let costs: Vec<u64> = (0..num_files)
        .map(|f| {
            let root_words = segments.get(f).map_or(0, |&(s, e)| (e - s) as u64);
            let local: u64 = csr
                .entries(f)
                .map(|(r, _)| dag.local_words[r as usize].len() as u64)
                .sum();
            root_words + local
        })
        .collect();
    TermVectorPrep {
        csr,
        costs,
        num_files,
        vocab,
    }
}

fn term_vector_fine(
    archive: &TadocArchive,
    dag: &Dag,
    ctx: FineCtx<'_>,
    pool: &WorkerPool,
) -> TaskExecution {
    let grammar = &archive.grammar;
    let threads = pool.threads();

    // Phase 1: initialization — the whole CSR build is a session artifact
    // ([`TermVectorPrep`]): cold runs compute it here, warm runs skip
    // straight to the traversal.
    let init_timer = Timer::start();
    let mut charge = RunCharge::default();
    let prep = ctx
        .analysis
        .ensure_term_vector_prep(archive, dag, ctx.fcfg, pool, &mut charge);
    let segments = ctx.analysis.ensure_segments(grammar, &mut charge);
    let csr = &prep.csr;
    let (num_files, vocab) = (prep.num_files, prep.vocab);
    let root = grammar.root();
    let init_work = charge.work;
    let init = init_timer.elapsed();

    // Phase 2: traversal — file-major accumulation.  Each worker owns a
    // contiguous file range (cost-balanced for *this* pool's width — the
    // cached prep stores only the costs) and walks only those files' CSR
    // entries, accumulating one file at a time into a dense per-worker
    // `counts[word]` scratch with a touched-word list: word ids are already
    // a perfect hash of the vocabulary, so the accumulate is a direct array
    // add (no probing at all) and the per-file cleanup touches only the
    // file's own words.  File ownership is disjoint, so the "merge" is a
    // plain scatter of finished vectors.
    //
    // The scratch regions are *leased* from the session's [`ScratchPool`]
    // rather than allocated per query: per-file cleanup restores the
    // all-zero recycling invariant, so a lease that completes its epoch is
    // marked clean and returned; a query that unwinds mid-epoch drops its
    // lease dirty and the pool discards it (see `scratch`).
    let trav_timer = Timer::start();
    let ranges = exec::partition_by_cost(&prep.costs, threads);
    let mut lease = ctx.tv_scratch.lease_with(Vec::new);
    if lease.len() < threads {
        lease.resize_with(threads, TvScratch::default);
    }
    for s in lease.iter_mut().take(threads) {
        s.counts.resize(vocab, 0);
    }
    type FileVectors = Vec<(usize, Vec<(WordId, u64)>)>;
    let locals: Vec<(FileVectors, WorkStats)> = {
        let slots = DisjointSlots::new(&mut lease[..threads]);
        pool.map_workers(ranges, |w, files| {
            // SAFETY: worker `w` is handed exactly one input by
            // `map_workers` and borrows exactly scratch slot `w`; no other
            // worker touches that slot until the epoch barrier, and the
            // borrow ends with this closure call.
            let scratch = unsafe { slots.get_mut(w) };
            let (counts, touched) = (&mut scratch.counts, &mut scratch.touched);
            let mut stats = WorkStats::default();
            stats.bytes_moved += vocab as u64 * 8;
            let mut vectors: FileVectors = Vec::with_capacity(files.len());
            for f in files {
                pool.checkpoint(); // cancel/deadline, once per owned file
                // Root words of the file's segment.
                if let Some(&(start, end)) = segments.get(f) {
                    for sym in &root[start..end] {
                        stats.elements_scanned += 1;
                        if let Symbol::Word(w) = *sym {
                            if counts[w as usize] == 0 {
                                touched.push(w);
                            }
                            counts[w as usize] += 1;
                            stats.table_ops += 1;
                        }
                    }
                }
                // Rule-local words scaled by the rule's occurrences in `f`.
                for (r, occ) in csr.entries(f) {
                    for &(w, c) in &dag.local_words[r as usize] {
                        if counts[w as usize] == 0 {
                            touched.push(w);
                        }
                        counts[w as usize] += c as u64 * occ;
                        stats.table_ops += 1;
                    }
                    stats.elements_scanned += dag.rule_lengths[r as usize] as u64;
                }
                touched.sort_unstable();
                let v: Vec<(WordId, u64)> = touched
                    .iter()
                    .map(|&w| (w, counts[w as usize]))
                    .collect();
                for &w in touched.iter() {
                    counts[w as usize] = 0;
                }
                touched.clear();
                stats.bytes_moved += v.len() as u64 * 12;
                vectors.push((f, v));
            }
            (vectors, stats)
        })
    };
    // Every worker finished its epoch, so every region is back to the
    // all-zero invariant — return the lease to the pool for the next query.
    lease.mark_clean();

    // Finalize: file ownership is disjoint, so the "merge" is a plain
    // scatter of finished vectors followed by one flattening pass into the
    // CSR columns.
    let fin_timer = Timer::start();
    let mut vectors: Vec<Vec<(WordId, u64)>> = vec![Vec::new(); num_files];
    let mut traversal_work = WorkStats::default();
    for (worker_vectors, stats) in locals {
        traversal_work.merge(&stats);
        for (f, v) in worker_vectors {
            vectors[f] = v;
        }
    }
    let result = TermVectorResult::from_rows(vectors);
    let finalize = fin_timer.elapsed();
    let traversal = trav_timer.elapsed();

    TaskExecution {
        output: AnalyticsOutput::TermVector(result),
        timings: PhaseTimings {
            init,
            traversal,
            init_work,
            traversal_work,
            shared_init: charge.time,
            finalize,
            warm: !charge.computed,
            ..Default::default()
        },
    }
}

// ---------------------------------------------------------------------------
// sequence count / ranked inverted index
// ---------------------------------------------------------------------------

/// Work item of the sequence traversals: one chunk of a non-root rule body
/// (most rules are one chunk; oversized bodies split at the chunking
/// threshold), or one chunk of the root body.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SeqItem {
    /// Element range `[begin, end)` of rule `r`'s body.
    Rule { r: usize, begin: usize, end: usize },
    Root(RootChunk),
}

pub(crate) fn sequence_work_items(grammar: &Grammar, segments: &[(usize, usize)], target: usize) -> Vec<SeqItem> {
    let body_lens = (0..grammar.rules.len()).map(|r| if r == 0 { 0 } else { grammar.rules[r].len() });
    let mut items: Vec<SeqItem> = exec::chunk_ranges(body_lens, target)
        .into_iter()
        .map(|c| SeqItem::Rule {
            r: c.item as usize,
            begin: c.begin as usize,
            end: c.end as usize,
        })
        .collect();
    items.extend(root_chunks(segments, target).into_iter().map(SeqItem::Root));
    items
}

fn sequence_count_fine(
    archive: &TadocArchive,
    dag: &Dag,
    cfg: TaskConfig,
    ctx: FineCtx<'_>,
    pool: &WorkerPool,
) -> TaskExecution {
    if sequences::can_pack(cfg.sequence_length, archive.vocabulary_size()) {
        sequence_count_fine_impl::<u64>(archive, dag, cfg, ctx, pool)
    } else {
        sequence_count_fine_impl::<Sequence>(archive, dag, cfg, ctx, pool)
    }
}

fn sequence_count_fine_impl<K: sequences::SeqKey>(
    archive: &TadocArchive,
    dag: &Dag,
    cfg: TaskConfig,
    ctx: FineCtx<'_>,
    pool: &WorkerPool,
) -> TaskExecution {
    let grammar = &archive.grammar;
    let threads = pool.threads();
    let l = cfg.sequence_length;

    let init_timer = Timer::start();
    let mut charge = RunCharge::default();
    let weights = ctx.analysis.ensure_rule_weights(dag, pool, &mut charge);
    let ht_cell = ctx
        .analysis
        .ensure_head_tail(grammar, dag, l, pool, &mut charge);
    let ht = ht_cell.get().expect("head/tail ensured");
    let items = ctx
        .analysis
        .ensure_sequence_items(grammar, ctx.fcfg, &mut charge);
    let init_work = charge.work;
    let init = init_timer.elapsed();

    let trav_timer = Timer::start();
    let queue = exec::WorkQueue::new(items.len(), 16);
    let locals: Vec<(Vec<ShardBuf<CountEntry<K>>>, WorkStats)> =
        pool.collect(|_w| {
            let mut shards: Vec<ShardBuf<CountEntry<K>>> =
                (0..threads).map(|_| ShardBuf::default()).collect();
            let mut stats = WorkStats::default();
            while let Some(range) = queue.next() {
                pool.checkpoint(); // cancel/deadline, once per claimed chunk
                for item in range {
                    match items[item] {
                        SeqItem::Rule { r, begin, end } => {
                            let weight = weights[r];
                            if weight == 0 {
                                continue;
                            }
                            let body = &grammar.rules[r];
                            count_range_windows(body, ht, begin, end, body.len(), |words, _| {
                                let key = K::encode(words);
                                let s = exec::shard_of(key.hash64(), threads);
                                shards[s].push(CountEntry::new(key, weight));
                                stats.table_ops += 1;
                            });
                            stats.elements_scanned += (end - begin) as u64;
                        }
                        SeqItem::Root(chunk) => {
                            count_root_chunk(grammar.root(), ht, chunk, |words| {
                                let key = K::encode(words);
                                let s = exec::shard_of(key.hash64(), threads);
                                shards[s].push(CountEntry::new(key, 1));
                                stats.table_ops += 1;
                            });
                            stats.elements_scanned += (chunk.end - chunk.begin) as u64;
                        }
                    }
                }
            }
            (shards, stats)
        });

    let mut traversal_work = WorkStats::default();
    let shard_runs = merge_sharded(locals, pool, &mut traversal_work, |pieces| {
        ShardBuf::merge(pieces)
            .into_iter()
            .map(|e| (e.key, e.count))
            .collect::<Vec<(K, u64)>>()
    });
    // Finalize: the key type picks the strategy — packed keys k-way merge
    // in parallel and decode into the flat arena, owned keys merge
    // serially by move (see `SeqKey`).
    let fin_timer = Timer::start();
    let result = K::finalize_counts(l, shard_runs, pool, &mut traversal_work);
    let finalize = fin_timer.elapsed();
    let traversal = trav_timer.elapsed();

    TaskExecution {
        output: AnalyticsOutput::SequenceCount(result),
        timings: PhaseTimings {
            init,
            traversal,
            init_work,
            traversal_work,
            shared_init: charge.time,
            finalize,
            warm: !charge.computed,
            ..Default::default()
        },
    }
}

fn ranked_inverted_index_fine(
    archive: &TadocArchive,
    dag: &Dag,
    cfg: TaskConfig,
    ctx: FineCtx<'_>,
    pool: &WorkerPool,
) -> TaskExecution {
    if sequences::can_pack(cfg.sequence_length, archive.vocabulary_size()) {
        ranked_inverted_index_fine_impl::<u64>(archive, dag, cfg, ctx, pool)
    } else {
        ranked_inverted_index_fine_impl::<Sequence>(archive, dag, cfg, ctx, pool)
    }
}

fn ranked_inverted_index_fine_impl<K: sequences::SeqKey>(
    archive: &TadocArchive,
    dag: &Dag,
    cfg: TaskConfig,
    ctx: FineCtx<'_>,
    pool: &WorkerPool,
) -> TaskExecution {
    let grammar = &archive.grammar;
    let threads = pool.threads();
    let l = cfg.sequence_length;

    let init_timer = Timer::start();
    let mut charge = RunCharge::default();
    let fw = ctx
        .analysis
        .ensure_file_weights(grammar, dag, pool, &mut charge);
    let ht_cell = ctx
        .analysis
        .ensure_head_tail(grammar, dag, l, pool, &mut charge);
    let ht = ht_cell.get().expect("head/tail ensured");
    let items = ctx
        .analysis
        .ensure_sequence_items(grammar, ctx.fcfg, &mut charge);
    let init_work = charge.work;
    let init = init_timer.elapsed();

    let trav_timer = Timer::start();
    let queue = exec::WorkQueue::new(items.len(), 16);
    // Shard entries are ((sequence key, file), count): sharding by the
    // sequence key alone keeps all files of one sequence in one shard, so
    // the merge can slice the sorted entries into per-sequence file lists.
    type RankedShards<K> = Vec<ShardBuf<CountEntry<(K, FileId)>>>;
    let locals: Vec<(RankedShards<K>, WorkStats)> =
        pool.collect(|_w| {
            let mut shards: RankedShards<K> =
                (0..threads).map(|_| ShardBuf::default()).collect();
            let mut stats = WorkStats::default();
            let mut local: Vec<CountEntry<K>> = Vec::new();
            while let Some(range) = queue.next() {
                pool.checkpoint(); // cancel/deadline, once per claimed chunk
                for item in range {
                    match items[item] {
                        SeqItem::Rule { r, begin, end } => {
                            if fw[r].is_empty() {
                                continue;
                            }
                            // Count the chunk's local windows once (folded
                            // in a scratch vector), then scale by the
                            // per-file occurrence counts.
                            local.clear();
                            let body = &grammar.rules[r];
                            count_range_windows(body, ht, begin, end, body.len(), |words, _| {
                                local.push(CountEntry::new(K::encode(words), 1));
                            });
                            sort_fold(&mut local);
                            for e in local.drain(..) {
                                let s = exec::shard_of(e.key.hash64(), threads);
                                for &(f, occ) in &fw[r] {
                                    shards[s].push(CountEntry::new(
                                        (e.key.clone(), f),
                                        e.count * occ,
                                    ));
                                    stats.table_ops += 1;
                                }
                            }
                            stats.elements_scanned += (end - begin) as u64;
                        }
                        SeqItem::Root(chunk) => {
                            count_root_chunk(grammar.root(), ht, chunk, |words| {
                                let key = K::encode(words);
                                let s = exec::shard_of(key.hash64(), threads);
                                shards[s].push(CountEntry::new((key, chunk.file), 1));
                                stats.table_ops += 1;
                            });
                            stats.elements_scanned += (chunk.end - chunk.begin) as u64;
                        }
                    }
                }
            }
            (shards, stats)
        });

    let mut traversal_work = WorkStats::default();
    let shard_runs = merge_sharded(locals, pool, &mut traversal_work, |pieces| {
        // One sort + fold per shard, then slice the ((key, file), count)
        // runs into per-sequence postings ranked by in-file frequency —
        // columnar posting runs for packed keys, owned rows for the
        // fallback (see `SeqKey::ranked_run_from_entries`).
        K::ranked_run_from_entries(ShardBuf::merge(pieces))
    });
    let fin_timer = Timer::start();
    let result = K::finalize_ranked(l, shard_runs, pool, &mut traversal_work);
    let finalize = fin_timer.elapsed();
    let traversal = trav_timer.elapsed();

    TaskExecution {
        output: AnalyticsOutput::RankedInvertedIndex(result),
        timings: PhaseTimings {
            init,
            traversal,
            init_work,
            traversal_work,
            shared_init: charge.time,
            finalize,
            warm: !charge.computed,
            ..Default::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::run_task;
    use crate::weights;
    use sequitur::compress::{compress_corpus, CompressOptions};
    use sequitur::fxhash::FxHashMap;

    fn build(corpus: &[(String, String)]) -> (TadocArchive, Dag) {
        let archive = compress_corpus(corpus, CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        (archive, dag)
    }

    fn redundant_corpus() -> Vec<(String, String)> {
        let shared = "the quick brown fox jumps over the lazy dog while the cat watches ".repeat(6);
        (0..7)
            .map(|i| (format!("doc{i}"), format!("{shared} unique token{i} {shared}")))
            .collect()
    }

    #[test]
    fn parallel_weights_match_sequential_weights() {
        let (archive, dag) = build(&redundant_corpus());
        let mut w1 = WorkStats::default();
        let expected = weights::rule_weights(&dag, &mut w1);
        let levels = head_tail::levels_top_down(&dag);
        for threads in [1, 3, 8] {
            let pool = WorkerPool::new(threads);
            let mut w2 = WorkStats::default();
            let got = parallel_rule_weights(&dag, &levels, &pool, &mut w2);
            assert_eq!(got, expected, "threads = {threads}");
        }
        let _ = archive;
    }

    /// Converts the sequential oracle's per-rule hash maps into the compact
    /// sorted-list form the fine engine uses.
    fn to_lists(fw: &[FxHashMap<FileId, u64>]) -> FileWeightLists {
        fw.iter()
            .map(|m| {
                let mut v: Vec<(FileId, u64)> = m.iter().map(|(&f, &c)| (f, c)).collect();
                v.sort_unstable_by_key(|&(f, _)| f);
                v
            })
            .collect()
    }

    #[test]
    fn parallel_file_weights_match_sequential() {
        let (archive, dag) = build(&redundant_corpus());
        let mut w1 = WorkStats::default();
        let expected = to_lists(&weights::file_weights(&archive.grammar, &dag, &mut w1));
        let levels = head_tail::levels_top_down(&dag);
        let segments = weights::file_segments(&archive.grammar);
        for threads in [1, 4] {
            let pool = WorkerPool::new(threads);
            let mut w2 = WorkStats::default();
            let got = parallel_file_weights(
                &archive.grammar,
                &dag,
                &levels,
                &segments,
                &pool,
                &mut w2,
            );
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn file_csr_matches_file_weights_on_real_grammars() {
        let (archive, dag) = build(&redundant_corpus());
        let pool = WorkerPool::new(2);
        let mut work = WorkStats::default();
        let fw = parallel_file_weights(
            &archive.grammar,
            &dag,
            &head_tail::levels_top_down(&dag),
            &weights::file_segments(&archive.grammar),
            &pool,
            &mut work,
        );
        let num_files = archive.num_files();
        let csr = FileCsr::build(&fw, num_files);
        for f in 0..num_files {
            let mut got: Vec<(u32, u64)> = csr.entries(f).collect();
            got.sort_unstable();
            let mut expected: Vec<(u32, u64)> = fw
                .iter()
                .enumerate()
                .skip(1)
                .filter_map(|(r, list)| {
                    list.iter()
                        .find(|&&(lf, _)| lf == f as FileId)
                        .map(|&(_, occ)| (r as u32, occ))
                })
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected, "file {f}");
        }
    }

    #[test]
    fn all_tasks_match_sequential_at_various_thread_counts() {
        let (archive, dag) = build(&redundant_corpus());
        let cfg = TaskConfig::default();
        for threads in [1usize, 3, 8] {
            let engine = Engine::builder(&archive, &dag)
                .threads(threads)
                .chunk_elements(7)
                .build()
                .unwrap();
            for task in Task::ALL {
                let seq = run_task(&archive, &dag, task, cfg);
                let fine = engine.run(task, cfg).unwrap();
                assert_eq!(
                    fine.output,
                    seq.output,
                    "task {} with {threads} threads diverges",
                    task.name()
                );
            }
        }
    }

    #[test]
    fn sequence_lengths_one_to_four_match_sequential() {
        let (archive, dag) = build(&redundant_corpus());
        let engine = Engine::builder(&archive, &dag).threads(4).build().unwrap();
        for l in [1usize, 2, 4] {
            let cfg = TaskConfig { sequence_length: l };
            for task in [Task::SequenceCount, Task::RankedInvertedIndex] {
                let seq = run_task(&archive, &dag, task, cfg);
                let fine = engine.run(task, cfg).unwrap();
                assert_eq!(fine.output, seq.output, "task {} l={l}", task.name());
            }
        }
    }

    #[test]
    fn degenerate_corpora_are_handled() {
        // A corpus of one empty file has an empty root: the builder rejects
        // it with a typed error instead of running a query over nothing.
        let (archive, dag) = build(&[("empty".to_string(), String::new())]);
        assert!(matches!(
            Engine::builder(&archive, &dag).threads(3).build(),
            Err(EngineError::InvalidArchive { .. })
        ));

        let corpora: Vec<Vec<(String, String)>> = vec![
            vec![
                ("empty".to_string(), String::new()),
                ("tiny".to_string(), "x".to_string()),
                ("normal".to_string(), "x y z x y z x y".to_string()),
            ],
            vec![("one".to_string(), "a b a b a b a b".to_string())],
        ];
        let cfg = TaskConfig::default();
        for corpus in corpora {
            let (archive, dag) = build(&corpus);
            let engine = Engine::builder(&archive, &dag).threads(3).build().unwrap();
            for task in Task::ALL {
                let seq = run_task(&archive, &dag, task, cfg);
                let fine = engine.run(task, cfg).unwrap();
                assert_eq!(fine.output, seq.output, "task {}", task.name());
            }
        }
    }

    #[test]
    fn work_stats_are_recorded() {
        let (archive, dag) = build(&redundant_corpus());
        let engine = Engine::builder(&archive, &dag).threads(2).build().unwrap();
        let exec = engine.run(Task::WordCount, TaskConfig::default()).unwrap();
        assert!(exec.timings.traversal_work.total_ops() > 0);
        assert!(exec.timings.init_work.total_ops() > 0);
    }
}
