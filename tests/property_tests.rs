//! Property-based tests (proptest) on the core invariants:
//!
//! * Sequitur compression is lossless for arbitrary token streams and
//!   arbitrary file splits;
//! * the archive binary format round-trips;
//! * the grammar respects rule-utility and acyclicity invariants;
//! * rule weights equal true expansion counts; file weights partition them;
//! * the GPU hash table behaves like a map; the pool-backed local tables
//!   behave like maps; the memory pool never overlaps regions;
//! * G-TADOC word count and sequence count agree with the oracle on random
//!   corpora;
//! * a `ShardBuf` merge equals a `BTreeMap` fold of its pieces.

use std::collections::{BTreeMap, BTreeSet};

use arena::shard::{CountEntry, MaskEntry, SetEntry, ShardBuf, ShardEntry};
use proptest::collection::vec;
use proptest::prelude::*;

use g_tadoc_repro::prelude::*;
use gtadoc::hashtable::{local_table, GpuHashTable};
use sequitur::compress::compress_token_files;
use sequitur::Dictionary;
use tadoc::timing::WorkStats;

/// Builds an archive from raw token streams (vocabulary = max token + 1).
fn archive_from_tokens(files: &[Vec<u32>]) -> TadocArchive {
    let vocab = files
        .iter()
        .flatten()
        .copied()
        .max()
        .map_or(1, |m| m as usize + 1);
    let mut dict = Dictionary::new();
    for i in 0..vocab {
        dict.intern(&format!("w{i}"));
    }
    let names = (0..files.len()).map(|i| format!("f{i}")).collect();
    let sizes = files.iter().map(|f| f.len() as u64 * 3).collect();
    compress_token_files(dict, files.to_vec(), names, sizes)
}

/// Strategy: between 1 and 4 files of tokens drawn from a small alphabet
/// (small alphabets maximise repetition and therefore grammar depth).
fn token_files() -> impl Strategy<Value = Vec<Vec<u32>>> {
    vec(vec(0u32..12, 0..120), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sequitur_roundtrip_is_lossless(files in token_files()) {
        let archive = archive_from_tokens(&files);
        prop_assert_eq!(archive.grammar.expand_files(), files);
    }

    #[test]
    fn grammar_invariants_hold(files in token_files()) {
        let archive = archive_from_tokens(&files);
        prop_assert!(archive.grammar.validate().is_ok());
        // Rule utility: every non-root rule is referenced at least twice.
        let counts = archive.grammar.rule_use_counts();
        for (r, &c) in counts.iter().enumerate().skip(1) {
            prop_assert!(c >= 2, "rule {} used {} times", r, c);
        }
    }

    #[test]
    fn archive_binary_format_roundtrips(files in token_files()) {
        let archive = archive_from_tokens(&files);
        let restored = TadocArchive::from_bytes(&archive.to_bytes()).unwrap();
        prop_assert_eq!(restored.grammar, archive.grammar);
        prop_assert_eq!(restored.files, archive.files);
    }

    #[test]
    fn rule_weights_equal_expansion_counts(files in token_files()) {
        let archive = archive_from_tokens(&files);
        let dag = Dag::from_grammar(&archive.grammar);
        let mut work = WorkStats::default();
        let weights = tadoc::weights::rule_weights(&dag, &mut work);
        let fw = tadoc::weights::file_weights(&archive.grammar, &dag, &mut work);
        for r in 1..dag.num_rules {
            // File weights partition the total weight.
            let total: u64 = fw[r].values().sum();
            prop_assert_eq!(total, weights[r]);
        }
    }

    #[test]
    fn gtadoc_word_count_matches_oracle(files in token_files()) {
        let archive = archive_from_tokens(&files);
        let expanded = archive.grammar.expand_files();
        let mut engine = GtadocEngine::new(GpuSpec::gtx_1080());
        let gpu = engine.run_archive(&archive, Task::WordCount);
        let expected = AnalyticsOutput::WordCount(tadoc::oracle::word_count(&expanded));
        prop_assert_eq!(gpu.output, expected);
    }

    #[test]
    fn gtadoc_sequence_count_matches_oracle(files in token_files(), l in 1usize..=3) {
        let archive = archive_from_tokens(&files);
        let expanded = archive.grammar.expand_files();
        let params = GtadocParams { sequence_length: l, ..Default::default() };
        let mut engine = GtadocEngine::with_params(GpuSpec::tesla_v100(), params);
        let gpu = engine.run_archive(&archive, Task::SequenceCount);
        let expected = AnalyticsOutput::SequenceCount(tadoc::oracle::sequence_count(&expanded, l));
        prop_assert_eq!(gpu.output, expected);
    }

    #[test]
    fn gpu_hash_table_behaves_like_a_map(ops in vec((0u64..64, 1u64..5), 0..300)) {
        let mut table = GpuHashTable::with_capacity(64, 2.0);
        let mut model = std::collections::HashMap::new();
        for (key, value) in ops {
            table.insert_add_host(key, value);
            *model.entry(key).or_insert(0u64) += value;
        }
        prop_assert_eq!(table.len(), model.len());
        for (k, v) in &model {
            prop_assert_eq!(table.get(*k), Some(*v));
        }
    }

    #[test]
    fn local_table_behaves_like_a_map(ops in vec((0u32..40, 1u32..4), 0..120)) {
        let mut region = vec![0u32; local_table::words_required(40) as usize];
        local_table::init(&mut region);
        let mut model = std::collections::HashMap::new();
        for (key, value) in ops {
            local_table::insert_add(&mut region, key, value);
            *model.entry(key).or_insert(0u32) += value;
        }
        prop_assert_eq!(local_table::len(&region) as usize, model.len());
        for (k, v) in &model {
            prop_assert_eq!(local_table::get(&region, *k), Some(*v));
        }
    }

    // Adversarial fill factors for the arena tables: `max_keys` sized
    // exactly for the number of distinct keys inserted (the tightest legal
    // bound, including 0), duplicate-heavy insert streams, and values past
    // 32 bits for `flat64`.  Iteration must agree with the model too — it
    // drives every merge scan in the fine-grained engine.
    #[test]
    fn flat64_behaves_like_a_map_at_tight_capacity(
        keys in vec(0u32..30, 0..30),
        reps in 1usize..6,
    ) {
        let distinct: std::collections::BTreeSet<u32> = keys.iter().copied().collect();
        let mut region = vec![0u32; arena::flat64::words_required(distinct.len() as u32) as usize];
        arena::flat64::init(&mut region);
        let mut model = std::collections::HashMap::new();
        let big = u32::MAX as u64; // force 64-bit accumulation
        for _ in 0..reps {
            for &key in &keys {
                arena::flat64::insert_add(&mut region, key, big + key as u64);
                *model.entry(key).or_insert(0u64) += big + key as u64;
            }
        }
        prop_assert_eq!(arena::flat64::len(&region) as usize, model.len());
        for (k, v) in &model {
            prop_assert_eq!(arena::flat64::get(&region, *k), Some(*v));
        }
        let mut pairs: Vec<(u32, u64)> = arena::flat64::iter(&region).collect();
        pairs.sort_unstable();
        let mut expected: Vec<(u32, u64)> = model.into_iter().collect();
        expected.sort_unstable();
        prop_assert_eq!(pairs, expected);
    }

    // Same adversarial shapes for the `u32 → u32` codec, driven straight to
    // 100% slot occupancy: every slot of the region must be usable when the
    // consumer's bound is exact.
    #[test]
    fn local_table_survives_exact_fill(extra in 0u32..40, seed in 0u32..1000) {
        let max_keys = extra; // includes 0: a zero-capacity table
        let mut region = vec![0u32; local_table::words_required(max_keys) as usize];
        local_table::init(&mut region);
        if max_keys == 0 {
            prop_assert_eq!(region.len(), 0);
            prop_assert_eq!(local_table::len(&region), 0);
            prop_assert_eq!(local_table::iter(&region).count(), 0);
            return Ok(());
        }
        // Fill to the full slot capacity (2× the nominal bound), not just
        // `max_keys` — the table must honour every allocated slot.
        let cap = region[0];
        for i in 0..cap {
            local_table::insert_add(&mut region, seed.wrapping_add(i.wrapping_mul(2654435761)), 1);
        }
        prop_assert_eq!(local_table::len(&region), cap);
        prop_assert_eq!(local_table::iter(&region).count() as u32, cap);
        for i in 0..cap {
            let key = seed.wrapping_add(i.wrapping_mul(2654435761));
            prop_assert_eq!(local_table::get(&region, key), Some(1));
        }
    }

    #[test]
    fn memory_pool_regions_never_overlap(reqs in vec(0u32..50, 0..60)) {
        let device = gpu_sim::Device::new(GpuSpec::gtx_1080());
        let pool = gtadoc::mempool::MemoryPool::allocate(&device, &reqs);
        prop_assert!(pool.regions_disjoint());
        prop_assert_eq!(pool.num_regions(), reqs.len());
        let total: u64 = reqs.iter().map(|&r| r as u64).sum();
        prop_assert_eq!(pool.total_words() as u64, total);
    }

    #[test]
    fn head_tail_buffers_match_true_expansions(files in token_files(), l in 1usize..=3) {
        let archive = archive_from_tokens(&files);
        let dag = Dag::from_grammar(&archive.grammar);
        let layout = gtadoc::layout::GpuLayout::build(&archive, &dag);
        let mut device = gpu_sim::Device::new(GpuSpec::gtx_1080());
        let ht = gtadoc::sequence::init_head_tail(&mut device, &layout, l);
        let keep = l - 1;
        for r in 1..layout.num_rules as u32 {
            let full = archive.grammar.expand_rule_words(r);
            let head: Vec<u32> = full.iter().copied().take(keep).collect();
            let tail: Vec<u32> = full[full.len().saturating_sub(keep)..].to_vec();
            prop_assert_eq!(&ht.head[r as usize], &head);
            prop_assert_eq!(&ht.tail[r as usize], &tail);
            if full.len() <= 2 * keep {
                prop_assert_eq!(ht.short_expansion[r as usize].as_deref(), Some(full.as_slice()));
            }
        }
    }
}

/// Strategy: up to 6 per-shard runs of `(key, value)` pairs (sorted by the
/// tests before merging — the shim strategy has no `prop_map`).  Includes
/// the adversarial cases: empty runs, single-key runs, duplicate keys both
/// within and across runs.
fn raw_runs() -> impl Strategy<Value = Vec<Vec<(u32, u64)>>> {
    vec(vec((0u32..30, 0u64..1000), 0..40), 0..6)
}

/// Stable-sorts each run by key: the shape the fine-grained finalize merges.
fn sort_runs(mut runs: Vec<Vec<(u32, u64)>>) -> Vec<Vec<(u32, u64)>> {
    for run in &mut runs {
        run.sort_by_key(|&(k, _)| k);
    }
    runs
}

/// The reference the k-way merges must equal: concatenate the runs in order
/// and stable-sort by key.
fn concat_stable_sort(runs: &[Vec<(u32, u64)>]) -> Vec<(u32, u64)> {
    let mut all: Vec<(u32, u64)> = runs.iter().flatten().copied().collect();
    all.sort_by_key(|&(k, _)| k);
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The serial move-based k-way merge (the `Sequence` fallback path)
    // equals the concat + stable-sort reference on adversarial runs.
    #[test]
    fn kway_merge_equals_concat_stable_sort(runs in raw_runs()) {
        let runs = sort_runs(runs);
        let reference = concat_stable_sort(&runs);
        let merged = tadoc::fine_grained::merge::kway_merge_rows(runs);
        prop_assert_eq!(merged, reference);
    }

    // The parallel segmented merge agrees with the same reference at every
    // pool width; amplification repeats each pair in place (keys stay
    // sorted) so larger instances cross the parallel threshold and exercise
    // the splitter-partitioned path, not just the serial fallback.
    #[test]
    fn par_merge_equals_concat_stable_sort(runs in raw_runs(), wide in 0usize..2) {
        let amplify = if wide == 0 { 1u64 } else { 64 };
        let runs: Vec<Vec<(u32, u64)>> = sort_runs(runs)
            .into_iter()
            .map(|run| {
                run.into_iter()
                    .flat_map(|(k, v)| (0..amplify).map(move |i| (k, v + i)))
                    .collect()
            })
            .collect();
        let reference = concat_stable_sort(&runs);
        for threads in [1usize, 4, 8] {
            let pool = tadoc::fine_grained::exec::WorkerPool::new(threads);
            let mut work = WorkStats::default();
            let merged =
                tadoc::fine_grained::merge::par_merge_rows(runs.clone(), &pool, &mut work);
            prop_assert_eq!(&merged, &reference, "threads = {}", threads);
        }
    }
}

proptest! {
    // Fewer cases: each runs all six tasks at three pool widths.
    #![proptest_config(ProptestConfig::with_cases(10))]

    // Round-trip equality of the ordered columnar results against the
    // hash-built sequential oracle: every task's fine-grained output (built
    // by the k-way merge, no hash table) must equal the oracle's (built in
    // a hash map and converted once) at 1, 4, and 8 threads.
    #[test]
    fn ordered_results_equal_hash_built_oracle_across_tasks(files in token_files()) {
        let archive = archive_from_tokens(&files);
        let dag = Dag::from_grammar(&archive.grammar);
        let cfg = tadoc::TaskConfig::default();
        let references = Task::ALL.map(|task| tadoc::run_task(&archive, &dag, task, cfg).output);
        for threads in [1usize, 4, 8] {
            let engine = match Engine::builder(&archive, &dag).threads(threads).build() {
                Ok(engine) => engine,
                // A corpus with no content at all is refused with a typed
                // error rather than served.
                Err(EngineError::InvalidArchive { .. }) if archive.grammar.root().is_empty() => {
                    continue
                }
                Err(e) => panic!("valid archive refused: {e}"),
            };
            for (task, reference) in Task::ALL.into_iter().zip(&references) {
                let fine = engine.run(task, cfg).expect("valid task config");
                prop_assert_eq!(
                    &fine.output,
                    reference,
                    "task {} at {} threads",
                    task.name(),
                    threads
                );
            }
        }
    }
}

/// Strategy: up to 4 shard pieces of raw `(key, value)` pairs.  The tests
/// narrow the keys modulo a drawn spread, so the same draw covers
/// duplicate-heavy pieces (3 keys), moderately folding ones and nearly
/// distinct ones.
fn raw_pieces() -> impl Strategy<Value = Vec<Vec<(u32, u64)>>> {
    vec(vec((0u32..400, 0u64..1000), 0..200), 0..4)
}

/// One `ShardBuf` per raw piece, with an empty piece spliced in at
/// `empty_at` (clamped), so every case merges at least one empty piece.
fn shard_pieces<T: ShardEntry>(
    rows: &[Vec<(u32, u64)>],
    empty_at: usize,
    entry: impl Fn(u32, u64) -> T,
) -> Vec<ShardBuf<T>> {
    let mut pieces: Vec<ShardBuf<T>> = rows
        .iter()
        .map(|row| {
            let mut buf = ShardBuf::default();
            for &(k, v) in row {
                buf.push(entry(k, v));
            }
            buf
        })
        .collect();
    pieces.insert(empty_at.min(pieces.len()), ShardBuf::default());
    pieces
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The merge contract: one `ShardBuf::merge` over any pieces is sorted by
    // key with exactly one entry per distinct key, each the fold of every
    // pushed duplicate — i.e. it equals a `BTreeMap` fold — for counted,
    // bitmask, set and owned-vector keys.
    #[test]
    fn shard_merge_equals_btreemap_fold(
        raw in raw_pieces(),
        spread in 0usize..3,
        empty_at in 0usize..5,
    ) {
        let modulus = [3u32, 40, 400][spread];
        let rows: Vec<Vec<(u32, u64)>> = raw
            .iter()
            .map(|row| row.iter().map(|&(k, v)| (k % modulus, v)).collect())
            .collect();
        let pairs = || rows.iter().flatten().copied();

        let mut sums: BTreeMap<u32, u64> = BTreeMap::new();
        for (k, v) in pairs() {
            *sums.entry(k).or_default() += v;
        }
        let merged = ShardBuf::merge(shard_pieces(&rows, empty_at, CountEntry::new));
        let merged: Vec<(u32, u64)> = merged.into_iter().map(|e| (e.key, e.count)).collect();
        prop_assert_eq!(merged, sums.into_iter().collect::<Vec<_>>());

        let mask_entry = |k: u32, v: u64| MaskEntry::new((k, (v % 3) as u32), 1u64 << (v % 64));
        let mut masks: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        for (k, v) in pairs() {
            let e = mask_entry(k, v);
            *masks.entry(e.key).or_default() |= e.mask;
        }
        let merged = ShardBuf::merge(shard_pieces(&rows, empty_at, mask_entry));
        let merged: Vec<((u32, u32), u64)> = merged.into_iter().map(|e| (e.key, e.mask)).collect();
        prop_assert_eq!(merged, masks.into_iter().collect::<Vec<_>>());

        let set: BTreeSet<u32> = pairs().map(|(k, _)| k).collect();
        let merged = ShardBuf::merge(shard_pieces(&rows, empty_at, |k, _| SetEntry::new(k)));
        let merged: Vec<u32> = merged.into_iter().map(|e| e.key).collect();
        prop_assert_eq!(merged, set.into_iter().collect::<Vec<_>>());

        // Owned sequence keys of length 0..=3 sharing prefixes.
        let seq_key = |k: u32, v: u64| (0..(v % 4) as u32).map(|i| k + i).collect::<Vec<u32>>();
        let mut seq_sums: BTreeMap<Vec<u32>, u64> = BTreeMap::new();
        for (k, v) in pairs() {
            *seq_sums.entry(seq_key(k, v)).or_default() += v;
        }
        let merged =
            ShardBuf::merge(shard_pieces(&rows, empty_at, |k, v| CountEntry::new(seq_key(k, v), v)));
        let merged: Vec<(Vec<u32>, u64)> = merged.into_iter().map(|e| (e.key, e.count)).collect();
        prop_assert_eq!(merged, seq_sums.into_iter().collect::<Vec<_>>());
    }
}
