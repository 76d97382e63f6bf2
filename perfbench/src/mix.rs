//! The query mix: eight `(task, config)` keys with fixed weights, drawn in a
//! seeded order.
//!
//! The keys are the serve bench's `all` mix: the six tasks at `l = 3` plus
//! the two sequence tasks at `l = 2`.  Queries are dealt from shuffled
//! decks holding each key exactly `weight` times, so every run sees the
//! recorded proportions (to within one deck) and only the order depends on
//! the seed.

use datagen::SplitMix64;
use tadoc::apps::{Task, TaskConfig};

/// `(task, sequence length, weight)` of every key.
///
/// Weights are chosen so that the nearest-rank p50 and p90 fall well inside
/// one key's latency distribution on the in-process workloads instead of on
/// the boundary between two keys (an equal-weight cycle puts p50 exactly
/// between the 4th and 5th cheapest keys, so p50 then measures one key's
/// tail).
///
/// Measured per-key medians on a 2-core machine put the keys in this cost
/// order — query-warm: wordCount < sort ~ termVector < invertedIndex <
/// sequenceCount/2 < sequenceCount/3 < rankedInvertedIndex/2 < /3;
/// query-cold: wordCount ~ sort < sequenceCount/2 < termVector ~
/// sequenceCount/3 < invertedIndex < rankedInvertedIndex/2 ~ /3.  With
/// these weights (30 per deck) p50 lies inside sort on query-warm and
/// inside wordCount/sort on query-cold, and p90 inside rankedInvertedIndex
/// on both, at least 10% of the mix from either edge.  Across ten seeds the
/// medians of wordCount, sort and rankedInvertedIndex/3 on the warm session
/// moved 5-7% (quartile spread); invertedIndex, termVector and
/// sequenceCount/2 moved 15-23%, so they are kept light.
pub const MIX: [(Task, usize, u32); 8] = [
    (Task::WordCount, 3, 9),
    (Task::Sort, 3, 9),
    (Task::InvertedIndex, 3, 2),
    (Task::TermVector, 3, 1),
    (Task::SequenceCount, 3, 1),
    (Task::RankedInvertedIndex, 3, 6),
    (Task::SequenceCount, 2, 1),
    (Task::RankedInvertedIndex, 2, 1),
];

/// The keys, in [`MIX`] order.
pub fn keys() -> Vec<(Task, TaskConfig)> {
    MIX.iter()
        .map(|&(task, l, _)| (task, TaskConfig { sequence_length: l }))
        .collect()
}

/// Printable `task/l=N` label of key `k`.
pub fn label(k: usize) -> String {
    let (task, l, _) = MIX[k];
    format!("{}/l={l}", task.name())
}

/// An endless seeded stream of key indices.
#[derive(Debug, Clone)]
pub struct Deck {
    rng: SplitMix64,
    cards: Vec<usize>,
    next: usize,
}

impl Deck {
    /// The stream for `lane` (one per client) under `seed`.
    pub fn new(seed: u64, lane: u64) -> Self {
        let mut cards = Vec::new();
        for (k, &(_, _, w)) in MIX.iter().enumerate() {
            cards.extend(std::iter::repeat_n(k, w as usize));
        }
        let next = cards.len();
        Self {
            rng: SplitMix64::new(seed ^ 0x6D69_7800_0000_0000 ^ lane.wrapping_mul(0x9E37_79B9)),
            cards,
            next,
        }
    }

    /// The next key index.
    pub fn draw(&mut self) -> usize {
        if self.next == self.cards.len() {
            // Fisher-Yates reshuffle of a full deck.
            for i in (1..self.cards.len()).rev() {
                let j = self.rng.next_below(i as u64 + 1) as usize;
                self.cards.swap(i, j);
            }
            self.next = 0;
        }
        let k = self.cards[self.next];
        self.next += 1;
        k
    }
}
