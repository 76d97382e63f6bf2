//! Append-only shard buffers for lock-free sharded merges.
//!
//! The fine-grained engines accumulate per-worker partial results and merge
//! them by hash shard: every key shard is owned by exactly one merge worker,
//! so the merges need no synchronization.  Earlier revisions materialised the
//! per-worker shards as hash maps, paying a probe per *occurrence* on the
//! traversal hot path and another per entry during the merge.  A [`ShardBuf`]
//! replaces that with a plain append (duplicates allowed): the hot path is a
//! vector push, and the merge is the single sort + fold per shard.  Nothing
//! sorts before the merge — the sequence tasks' keys barely repeat, so an
//! earlier sort would fold almost nothing and be paid again by the merge.
//!
//! The merge contract:
//!
//! 1. Workers append entries (duplicates allowed, any order) into one
//!    `ShardBuf` per shard, routing each entry by its key hash (the caller's
//!    `shard_of`).  Buffers never fold before the merge, so a worker holds
//!    exactly the entries it pushed.
//! 2. The per-shard buffers of all workers are handed to that shard's merge
//!    worker, which calls [`ShardBuf::merge`] once: the result is sorted by
//!    key and contains **exactly one entry per distinct key**, with equal-key
//!    entries combined by [`ShardEntry::absorb`].
//! 3. Because shards partition the key space, concatenating (or iterating)
//!    the per-shard merge outputs yields every key exactly once.
//!
//! ```
//! use arena::shard::{CountEntry, ShardBuf};
//!
//! // Two workers accumulate counts for the same shard.
//! let mut a = ShardBuf::default();
//! a.push(CountEntry::new(7u32, 2));
//! a.push(CountEntry::new(3, 1));
//! let mut b = ShardBuf::default();
//! b.push(CountEntry::new(7, 5));
//!
//! let merged = ShardBuf::merge(vec![a, b]);
//! let pairs: Vec<(u32, u64)> = merged.into_iter().map(|e| (e.key, e.count)).collect();
//! assert_eq!(pairs, vec![(3, 1), (7, 7)]);
//! ```

/// An entry a [`ShardBuf`] can sort and fold: a key plus a combine rule for
/// equal-key duplicates.
pub trait ShardEntry {
    /// Sort/fold key.  Entries with equal keys are combined.
    type Key: Ord;

    /// The entry's key.
    fn key(&self) -> &Self::Key;

    /// Folds `other` (an equal-key duplicate about to be discarded) into
    /// `self`.
    fn absorb(&mut self, other: &mut Self);
}

/// A counted entry: equal keys sum their counts (word counts, sequence
/// counts, per-file occurrence totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountEntry<K> {
    /// The key counted.
    pub key: K,
    /// Accumulated count.
    pub count: u64,
}

impl<K> CountEntry<K> {
    /// A new entry carrying `count` occurrences of `key`.
    #[inline]
    pub fn new(key: K, count: u64) -> Self {
        Self { key, count }
    }
}

impl<K: Ord> ShardEntry for CountEntry<K> {
    type Key = K;
    #[inline]
    fn key(&self) -> &K {
        &self.key
    }
    #[inline]
    fn absorb(&mut self, other: &mut Self) {
        self.count += other.count;
    }
}

/// A set-membership entry: equal keys collapse to one (posting lists, where
/// only *whether* a (word, file) pair occurred matters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetEntry<K> {
    /// The key witnessed.
    pub key: K,
}

impl<K> SetEntry<K> {
    /// A new membership witness for `key`.
    #[inline]
    pub fn new(key: K) -> Self {
        Self { key }
    }
}

impl<K: Ord> ShardEntry for SetEntry<K> {
    type Key = K;
    #[inline]
    fn key(&self) -> &K {
        &self.key
    }
    #[inline]
    fn absorb(&mut self, _other: &mut Self) {}
}

/// A bitmask entry: equal keys OR their masks.  Used for posting lists — the
/// key is `(word, file_block)` and the mask holds one bit per file of the
/// 64-file block, so a rule occurring in many files costs one entry per
/// (word, block) instead of one per (word, file).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskEntry<K> {
    /// The key the mask is accumulated under.
    pub key: K,
    /// Accumulated bitmask.
    pub mask: u64,
}

impl<K> MaskEntry<K> {
    /// A new entry contributing `mask` to `key`.
    #[inline]
    pub fn new(key: K, mask: u64) -> Self {
        Self { key, mask }
    }
}

impl<K: Ord> ShardEntry for MaskEntry<K> {
    type Key = K;
    #[inline]
    fn key(&self) -> &K {
        &self.key
    }
    #[inline]
    fn absorb(&mut self, other: &mut Self) {
        self.mask |= other.mask;
    }
}

/// An append-only accumulation buffer for one hash shard of one worker.
///
/// Entries are pushed with duplicates allowed — an append per occurrence is
/// far cheaper than a hash probe per occurrence — and folded once, by
/// [`ShardBuf::merge`].
#[derive(Debug, Clone)]
pub struct ShardBuf<T> {
    entries: Vec<T>,
}

impl<T> Default for ShardBuf<T> {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
        }
    }
}

impl<T: ShardEntry> ShardBuf<T> {
    /// Appends one entry (duplicates allowed).
    #[inline]
    pub fn push(&mut self, entry: T) {
        self.entries.push(entry);
    }

    /// Number of buffered entries, duplicates included.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merges the per-worker buffers of one shard: one sort + fold over all
    /// pieces, returning the shard's entries sorted by key with exactly one
    /// entry per distinct key (see the module docs for the full contract).
    pub fn merge(pieces: Vec<ShardBuf<T>>) -> Vec<T> {
        // Fault-injection site: a worker panicking mid-merge-fold, the
        // hardest point for a dispatcher to recover from (partial shard
        // state on other workers).
        failpoints::fail_point!("merge-fold");
        let mut out: Vec<T> = Vec::with_capacity(pieces.iter().map(ShardBuf::len).sum());
        for piece in pieces {
            out.extend(piece.entries);
        }
        sort_fold(&mut out);
        out
    }
}

/// Sorts `entries` by key and folds equal-key runs in place with
/// [`ShardEntry::absorb`] — the primitive [`ShardBuf::merge`] is built on,
/// exposed for callers folding scratch vectors of their own.
pub fn sort_fold<T: ShardEntry>(entries: &mut Vec<T>) {
    entries.sort_unstable_by(|a, b| a.key().cmp(b.key()));
    entries.dedup_by(|cur, prev| {
        if cur.key() == prev.key() {
            prev.absorb(cur);
            true
        } else {
            false
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_fold_across_pushes_and_pieces() {
        let mut a = ShardBuf::default();
        for _ in 0..3 {
            a.push(CountEntry::new(5u64, 2));
        }
        a.push(CountEntry::new(1, 1));
        let mut b = ShardBuf::default();
        b.push(CountEntry::new(5, 4));
        let merged = ShardBuf::merge(vec![a, b]);
        assert_eq!(
            merged,
            vec![CountEntry::new(1, 1), CountEntry::new(5, 10)]
        );
    }

    #[test]
    fn set_entries_dedup() {
        let mut buf = ShardBuf::default();
        for f in [2u32, 1, 2, 2, 1] {
            buf.push(SetEntry::new((7u32, f)));
        }
        assert_eq!(
            ShardBuf::merge(vec![buf]),
            vec![SetEntry::new((7, 1)), SetEntry::new((7, 2))]
        );
    }

    #[test]
    fn merge_folds_duplicate_heavy_pieces_exactly() {
        // 10 × 4096 pushes of 7 keys, split over two pieces: buffers keep
        // every push, and the one merge folds them to exact per-key sums.
        const PUSHES: usize = 10 * 4096;
        let mut pieces = vec![ShardBuf::default(), ShardBuf::default()];
        let mut sums = [0u64; 7];
        for i in 0..PUSHES {
            pieces[i % 2].push(CountEntry::new((i % 7) as u64, 1));
            sums[i % 7] += 1;
        }
        assert_eq!(pieces.iter().map(ShardBuf::len).sum::<usize>(), PUSHES);
        let expected: Vec<CountEntry<u64>> = (0..7u64)
            .map(|k| CountEntry::new(k, sums[k as usize]))
            .collect();
        assert_eq!(ShardBuf::merge(pieces), expected);
    }

    #[test]
    fn masks_or_together() {
        let mut a = ShardBuf::default();
        a.push(MaskEntry::new((4u32, 0u32), 0b0001));
        a.push(MaskEntry::new((4, 0), 0b0100));
        let mut b = ShardBuf::default();
        b.push(MaskEntry::new((4, 1), 0b1000));
        b.push(MaskEntry::new((4, 0), 0b0001));
        let merged = ShardBuf::merge(vec![a, b]);
        assert_eq!(
            merged,
            vec![MaskEntry::new((4, 0), 0b0101), MaskEntry::new((4, 1), 0b1000)]
        );
    }

    #[test]
    fn merge_of_empty_pieces_is_empty() {
        let merged = ShardBuf::<CountEntry<u32>>::merge(vec![
            ShardBuf::default(),
            ShardBuf::default(),
        ]);
        assert!(merged.is_empty());
        assert!(ShardBuf::<CountEntry<u32>>::default().is_empty());
    }

    #[test]
    fn non_copy_keys_are_supported() {
        // Sequence keys above the packable length are owned vectors.
        let mut buf = ShardBuf::default();
        buf.push(CountEntry::new(vec![1u32, 2, 3], 1));
        buf.push(CountEntry::new(vec![1, 2, 3], 2));
        buf.push(CountEntry::new(vec![0, 9], 5));
        let merged = ShardBuf::merge(vec![buf]);
        assert_eq!(
            merged,
            vec![
                CountEntry::new(vec![0, 9], 5),
                CountEntry::new(vec![1, 2, 3], 3)
            ]
        );
    }
}
