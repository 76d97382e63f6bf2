//! # arena
//!
//! Backend-agnostic data-structure substrate shared by every execution
//! engine in the workspace: the self-maintained memory pool of Section IV-C
//! and the flat open-addressing local tables of Figure 5.
//!
//! The G-TADOC paper sizes every per-rule table during the initialization
//! phase, allocates one large flat buffer, and hands out non-overlapping
//! regions by a prefix-sum bump allocation, because dynamic allocation from
//! thousands of GPU threads is not an option.  The same layout turns out to
//! be exactly what a fine-grained *CPU* engine wants too — per-worker tables
//! carved out of one arena, written lock-free, then merged — so this crate
//! hosts the pool and the table codecs with **no device dependency**:
//!
//! * [`MemoryPool`] / [`PoolRegion`] — the flat `u32` arena with
//!   non-overlapping regions ([`MemoryPool::split_regions`] hands every
//!   region out as a disjoint `&mut [u32]`, which is what scoped worker
//!   threads borrow);
//! * [`local_table`] — the compact `u32 → u32` open-addressing table used by
//!   the simulated GPU traversals (private per-rule tables need no locks);
//! * [`flat64`] — the `u32 → u64` variant used by the fine-grained CPU
//!   engine, whose analytics counts exceed 32 bits;
//! * [`mix64`] — the shared full-avalanche finalizer both tables hash with;
//! * [`shard`] — append-only shard buffers ([`shard::ShardBuf`]) for
//!   the sharded lock-free merges: workers append `(key, value)` entries per
//!   hash shard, merges do one sort + fold per shard.
//!
//! The `gtadoc` crate re-exports these for the simulator backend; the
//! `tadoc` fine-grained engine uses them directly on real threads.
//!
//! ## Table design: group probing over control tags
//!
//! Both table codecs share one Swiss-table-style probing core (the `probe`
//! module): every slot owns a 1-byte control *tag* — `0` for empty, or
//! `0x80 | top-7-hash-bits` for occupied — packed into `u32` words ahead of
//! the key/value arrays.  A probe hashes the key with [`mix64`], picks a
//! 16-slot *group* with a widening-multiply range reduction over the **full
//! 64-bit hash** (no modulo, no discarded high bits), and scans all 16 tags
//! of the group at once: with SSE2 on `x86_64` (`_mm_cmpeq_epi8` +
//! `_mm_movemask_epi8`), or with an exact branch-free `u64` SWAR comparison
//! everywhere else.  Candidate lanes are then confirmed against the key
//! array.  Iteration walks the tag words and skips empty groups in one
//! 16-lane test each, so scanning a sparsely filled table costs
//! `O(capacity / 16)` word reads instead of a full key-array sweep.
//!
//! ## Sizing contract
//!
//! Capacity is guaranteed by the *consumer*, never grown by the table:
//!
//! * `words_required(max_keys)` returns the exact region length for a table
//!   that can always hold `max_keys` distinct keys (2× slots for the load
//!   factor, rounded up to a whole tag group).  The bounds come from the
//!   initialization phase — `genLocTblBoundKernel` per rule on the GPU
//!   path, the per-worker distinct-key prefix-scan on the CPU path.
//! * `words_required(0) == 0`: a consumer with no keys gets a zero-length
//!   region.  Zero-capacity tables are **legal no-ops** for `init`, `iter`,
//!   `len` and `get`; only `insert_add` panics (with a clear message), since
//!   an insert proves the consumer's bound was wrong.
//! * A full table fails fast: the probe loop counts wrapped groups and
//!   panics with the table's capacity and the offending key instead of
//!   spinning forever.  Well-sized tables never take that path — the probe
//!   always terminates at an empty lane first (the tables never delete, so
//!   groups only ever fill up).

//!
//! ## Example
//!
//! One pool, one region per worker, sized during the initialization phase:
//!
//! ```
//! use arena::{flat64, MemoryPool};
//!
//! // Worker 0 expects at most 8 distinct keys; worker 1 expects none.
//! let requirements = [flat64::words_required(8), flat64::words_required(0)];
//! let mut pool = MemoryPool::from_requirements(&requirements);
//! let mut regions = pool.split_regions();
//!
//! flat64::init(regions[0]);
//! flat64::insert_add(regions[0], 42, 5);
//! flat64::insert_add(regions[0], 42, 5);
//! assert_eq!(flat64::get(regions[0], 42), Some(10));
//!
//! // `words_required(0) == 0`: the no-key worker legally gets a
//! // zero-length region, and init/iter/len/get are no-ops on it.
//! assert_eq!(regions[1].len(), 0);
//! flat64::init(regions[1]);
//! assert_eq!(flat64::len(regions[1]), 0);
//! ```

pub mod shard;

/// A violated capacity bound: the recoverable form of every sizing failure
/// in this crate.
///
/// The `try_*` APIs ([`local_table::try_insert_add`],
/// [`flat64::try_insert_add`], [`MemoryPool::try_from_requirements`],
/// `try_words_required`) return it as a `Result`; the panicking wrappers
/// raise it as a **typed panic payload** via [`std::panic::panic_any`], so a
/// dispatcher that catches a worker's unwind can downcast the payload to
/// `CapacityError` and classify the fault as recoverable capacity
/// exhaustion rather than an arbitrary bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityError {
    /// Insert into a region the consumer sized for zero keys.
    ZeroCapacity {
        /// The key whose insert was rejected.
        key: u32,
    },
    /// Wrapped-probe overflow: the table is full, the consumer's
    /// distinct-key bound was violated.
    TableOverflow {
        /// The key whose insert was rejected.
        key: u32,
        /// Table capacity in slots.
        capacity: u32,
        /// Distinct keys already stored.
        len: u32,
    },
    /// A pool or table region exceeds the 4G-word (`u32` offset) addressing
    /// limit; the dataset must be sharded.
    PoolTooLarge {
        /// The requested size in `u32` words.
        words: u64,
    },
}

impl std::fmt::Display for CapacityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CapacityError::ZeroCapacity { key } => write!(
                f,
                "insert into zero-capacity table (key {key}): the consumer \
                 sized this region for 0 keys"
            ),
            CapacityError::TableOverflow { key, capacity, len } => write!(
                f,
                "table overflow inserting key {key}: capacity {capacity} slots, \
                 {len} keys stored (the consumer's distinct-key bound was violated)"
            ),
            CapacityError::PoolTooLarge { words } => write!(
                f,
                "allocation of {words} words exceeds the 4G-word pool limit; \
                 shard the dataset"
            ),
        }
    }
}

impl std::error::Error for CapacityError {}

/// Raises `err` as a typed panic payload (downcastable to [`CapacityError`]).
#[inline(never)]
#[cold]
fn raise_capacity(err: CapacityError) -> ! {
    std::panic::panic_any(err)
}

/// SplitMix64 finalizer: a full-avalanche mix so that *every* output bit used
/// for group selection and control tags depends on every input bit.  (A bare
/// multiplicative hash leaves the low bits a function of only the low input
/// bits, which makes packed multi-word sequence keys — identical last word,
/// different prefix — collide into the same bucket and degenerate into long
/// chains.)
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A region of the pool owned by one consumer (a rule, or a CPU worker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolRegion {
    /// First `u32` word of the region inside the pool buffer.
    pub offset: u32,
    /// Length of the region in `u32` words.
    pub len: u32,
}

impl PoolRegion {
    /// An empty region.
    pub const EMPTY: PoolRegion = PoolRegion { offset: 0, len: 0 };

    /// The half-open word range of this region.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.offset as usize..(self.offset + self.len) as usize
    }
}

/// The memory pool: one flat `u32` buffer plus the per-consumer regions.
#[derive(Debug)]
pub struct MemoryPool {
    storage: Vec<u32>,
    regions: Vec<PoolRegion>,
}

impl MemoryPool {
    /// Builds a pool from per-consumer requirements (in `u32` words) with a
    /// bump (prefix-sum) allocation.
    ///
    /// # Panics
    /// Panics (with a [`CapacityError::PoolTooLarge`] payload) if the total
    /// exceeds `u32::MAX` words; [`MemoryPool::try_from_requirements`] is
    /// the recoverable form.
    pub fn from_requirements(requirements: &[u32]) -> Self {
        Self::try_from_requirements(requirements).unwrap_or_else(|e| raise_capacity(e))
    }

    /// Fallible form of [`MemoryPool::from_requirements`]: returns
    /// [`CapacityError::PoolTooLarge`] instead of panicking when the total
    /// exceeds the 4G-word addressing limit.
    pub fn try_from_requirements(requirements: &[u32]) -> Result<Self, CapacityError> {
        let mut regions = Vec::with_capacity(requirements.len());
        let mut offset: u64 = 0;
        for &req in requirements {
            regions.push(PoolRegion {
                offset: offset as u32,
                len: req,
            });
            offset += req as u64;
        }
        if offset > u32::MAX as u64 {
            return Err(CapacityError::PoolTooLarge { words: offset });
        }
        Ok(Self {
            storage: vec![0u32; offset as usize],
            regions,
        })
    }

    /// Number of consumers (regions).
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// Total pool size in `u32` words.
    pub fn total_words(&self) -> usize {
        self.storage.len()
    }

    /// The region of consumer `i`.
    pub fn region(&self, i: usize) -> PoolRegion {
        self.regions[i]
    }

    /// Immutable view of consumer `i`'s region.
    pub fn slice(&self, i: usize) -> &[u32] {
        &self.storage[self.regions[i].range()]
    }

    /// Mutable view of consumer `i`'s region.
    pub fn slice_mut(&mut self, i: usize) -> &mut [u32] {
        let range = self.regions[i].range();
        &mut self.storage[range]
    }

    /// Mutable access to the whole backing storage together with the region
    /// table — what a kernel holding the raw pool pointer would see.
    pub fn storage_and_regions(&mut self) -> (&mut [u32], &[PoolRegion]) {
        (&mut self.storage, &self.regions)
    }

    /// Splits the pool into one disjoint mutable slice per region, in region
    /// order — the shape scoped worker threads borrow so every worker owns
    /// its region with no locks.
    pub fn split_regions(&mut self) -> Vec<&mut [u32]> {
        let mut out = Vec::with_capacity(self.regions.len());
        let mut rest: &mut [u32] = &mut self.storage;
        let mut consumed = 0usize;
        for region in &self.regions {
            debug_assert_eq!(region.offset as usize, consumed, "regions must be contiguous");
            let (head, tail) = rest.split_at_mut(region.len as usize);
            out.push(head);
            rest = tail;
            consumed += region.len as usize;
        }
        out
    }

    /// Verifies that no two regions overlap (invariant test hook).
    pub fn regions_disjoint(&self) -> bool {
        let mut sorted: Vec<PoolRegion> =
            self.regions.iter().copied().filter(|r| r.len > 0).collect();
        sorted.sort_by_key(|r| r.offset);
        sorted
            .windows(2)
            .all(|w| w[0].offset + w[0].len <= w[1].offset)
    }
}

/// The group-probing core shared by [`local_table`] and [`flat64`].
///
/// Control tags live in the region right after the two header words, one
/// byte per slot packed little-endian into `u32` words ([`GROUP`](probe::GROUP) slots = 4
/// tag words per group).  All group-scan primitives return a dense 16-bit
/// lane mask (bit `i` = slot `group * GROUP + i`), whichever backend
/// produced it.
pub mod probe {
    /// Slots scanned per probe step.  One SSE2 vector on `x86_64`; two `u64`
    /// SWAR halves elsewhere.  The region layout is identical either way.
    pub const GROUP: usize = 16;
    /// Tag words per group (4 tag bytes per `u32`).
    pub const GROUP_TAG_WORDS: usize = GROUP / 4;
    /// Control tag of an empty slot.
    pub const EMPTY_TAG: u8 = 0;

    /// Control tag of an occupied slot: the top 7 hash bits with the high
    /// bit forced so a stored tag can never equal [`EMPTY_TAG`].
    #[inline]
    pub fn tag_of(hash: u64) -> u8 {
        0x80 | (hash >> 57) as u8
    }

    /// Home group for `hash` among `num_groups` groups: a widening-multiply
    /// range reduction over the full 64-bit hash — no modulo in the hot
    /// path, and the high hash bits participate instead of being discarded.
    #[inline]
    pub fn group_of(hash: u64, num_groups: u32) -> u32 {
        (((hash as u128) * (num_groups as u128)) >> 64) as u32
    }

    const SWAR_LO: u64 = 0x0101_0101_0101_0101;
    const SWAR_HI: u64 = 0x8080_8080_8080_8080;

    /// Exact per-byte equality on 8 packed tags: returns an 8-bit lane mask
    /// of the bytes of `v` equal to `b`.  Uses the carry-free
    /// `((x & 0x7f…) + 0x7f…) | x` zero-byte test (no false positives, no
    /// cross-byte borrows), then compresses the per-byte high bits into a
    /// dense mask with a multiply.
    #[inline]
    fn swar_eq8(v: u64, b: u8) -> u32 {
        let x = v ^ (SWAR_LO.wrapping_mul(b as u64));
        let zero = !(((x & !SWAR_HI).wrapping_add(!SWAR_HI)) | x) & SWAR_HI;
        // Gather the per-byte high bits into a dense 8-bit mask: with the
        // match bits at positions 8i, the 0x0102…4080 multiplier places bit
        // i at position 56+i, and no two partial products ever collide.
        ((zero >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) as u32
    }

    /// Portable 16-lane tag comparison (also the reference the SIMD path is
    /// tested against): bit `i` of the result = `tag(slot i) == b`.
    #[inline]
    pub fn eq_mask_swar(tags: &[u32], group: usize, b: u8) -> u32 {
        let base = group * GROUP_TAG_WORDS;
        let lo = tags[base] as u64 | (tags[base + 1] as u64) << 32;
        let hi = tags[base + 2] as u64 | (tags[base + 3] as u64) << 32;
        swar_eq8(lo, b) | swar_eq8(hi, b) << 8
    }

    /// 16-lane tag comparison: SSE2 on `x86_64` (always available there),
    /// SWAR elsewhere.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    pub fn eq_mask(tags: &[u32], group: usize, b: u8) -> u32 {
        use core::arch::x86_64::{_mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8, _mm_set1_epi8};
        let base = group * GROUP_TAG_WORDS;
        debug_assert!(base + GROUP_TAG_WORDS <= tags.len());
        // SAFETY: the four tag words of `group` are in bounds (asserted
        // above); `_mm_loadu_si128` has no alignment requirement, and the
        // little-endian byte view of the `u32` tag words matches the
        // shift-based packing used by `set_tag`.
        unsafe {
            let ctrl = _mm_loadu_si128(tags.as_ptr().add(base).cast());
            _mm_movemask_epi8(_mm_cmpeq_epi8(ctrl, _mm_set1_epi8(b as i8))) as u32 & 0xFFFF
        }
    }

    /// 16-lane tag comparison: SSE2 on `x86_64`, SWAR elsewhere.
    #[cfg(not(target_arch = "x86_64"))]
    #[inline]
    pub fn eq_mask(tags: &[u32], group: usize, b: u8) -> u32 {
        eq_mask_swar(tags, group, b)
    }

    /// Lane mask of the occupied slots of a group.
    #[inline]
    pub fn occupied_mask(tags: &[u32], group: usize) -> u32 {
        !eq_mask(tags, group, EMPTY_TAG) & 0xFFFF
    }

    /// Reads the control tag of `slot`.
    #[inline]
    pub fn get_tag(tags: &[u32], slot: usize) -> u8 {
        (tags[slot / 4] >> (8 * (slot % 4))) as u8
    }

    /// Writes the control tag of `slot`.
    #[inline]
    pub fn set_tag(tags: &mut [u32], slot: usize, tag: u8) {
        let shift = 8 * (slot % 4);
        let word = &mut tags[slot / 4];
        *word = (*word & !(0xFFu32 << shift)) | (tag as u32) << shift;
    }
}

/// Shared region codec: layout, sizing, probing, iteration.  `VW` is the
/// number of `u32` value words per slot (1 for [`local_table`], 2 for
/// [`flat64`]).
///
/// Region layout (in `u32` words):
/// `[capacity, len, tags (capacity/4 words), keys (capacity words),
///   values (VW × capacity words)]`, capacity a multiple of
/// [`probe::GROUP`] (or 0).
mod table_core {
    use super::probe;

    pub const HEADER_WORDS: usize = 2;

    /// Slots allocated for `max_keys` distinct keys: 2× for the load
    /// factor, rounded up to whole groups; 0 for 0 keys.
    fn slots_for(max_keys: u32) -> u64 {
        if max_keys == 0 {
            return 0;
        }
        (2 * max_keys as u64).div_ceil(probe::GROUP as u64) * probe::GROUP as u64
    }

    /// Region length (in `u32` words) for a table holding `max_keys`
    /// distinct keys.  `words_required(0) == 0` — see the sizing contract.
    pub fn words_required<const VW: usize>(max_keys: u32) -> u32 {
        try_words_required::<VW>(max_keys).unwrap_or_else(|e| super::raise_capacity(e))
    }

    /// Fallible form of [`words_required`]: a table whose region would
    /// exceed the 4G-word addressing limit is a
    /// [`CapacityError::PoolTooLarge`](super::CapacityError) instead of a
    /// panic.  (A real check, not a debug one: silently truncating here
    /// would surface later as a bogus "bound violated" overflow panic.)
    pub fn try_words_required<const VW: usize>(
        max_keys: u32,
    ) -> Result<u32, super::CapacityError> {
        let slots = slots_for(max_keys);
        if slots == 0 {
            return Ok(0);
        }
        let words = HEADER_WORDS as u64 + slots / 4 + slots * (1 + VW as u64);
        if words > u32::MAX as u64 {
            return Err(super::CapacityError::PoolTooLarge { words });
        }
        Ok(words as u32)
    }

    /// Initialises a region as an empty table, deriving the capacity from
    /// the region length (the inverse of [`words_required`], rounded down
    /// to whole groups).  Zero-length and under-sized regions become legal
    /// zero-capacity tables.
    pub fn init<const VW: usize>(region: &mut [u32]) {
        // words = 2 + cap/4 + cap*(1+VW)  =>  cap = (words-2)*4 / (4*(1+VW)+1)
        let cap = if region.len() > HEADER_WORDS {
            let cap = (region.len() - HEADER_WORDS) * 4 / (4 * (1 + VW) + 1);
            cap / probe::GROUP * probe::GROUP
        } else {
            0
        };
        if region.is_empty() {
            return;
        }
        region[0] = cap as u32;
        if let Some(len) = region.get_mut(1) {
            *len = 0;
        }
        // Only the control tags need clearing: keys and values are written
        // before they are ever read (`insert_add` stores, not adds, on the
        // first touch of a slot).
        if cap > 0 {
            region[HEADER_WORDS..HEADER_WORDS + cap / 4].fill(0);
        }
    }

    /// Resets an initialised table to empty while keeping its capacity:
    /// clears the length and the control tags (`O(capacity / 4)` word
    /// writes, no capacity re-derivation).  For consumers that reuse one
    /// fixed-size region across consecutive accumulations; a consumer whose
    /// per-round bound *varies* should instead re-[`init`] a sub-slice
    /// sized for the round.  A no-op on zero-capacity regions.
    pub fn clear(region: &mut [u32]) {
        let cap = capacity(region) as usize;
        if region.len() > HEADER_WORDS {
            region[1] = 0;
        }
        if cap > 0 {
            region[HEADER_WORDS..HEADER_WORDS + cap / 4].fill(0);
        }
    }

    /// Capacity in slots (0 for empty/under-sized regions).
    #[inline]
    pub fn capacity(region: &[u32]) -> u32 {
        if region.len() > HEADER_WORDS {
            region[0]
        } else {
            0
        }
    }

    /// Number of distinct keys stored.
    #[inline]
    pub fn len(region: &[u32]) -> u32 {
        if region.len() > HEADER_WORDS {
            region[1]
        } else {
            0
        }
    }

    #[inline]
    fn tags_end(cap: usize) -> usize {
        HEADER_WORDS + cap / 4
    }

    #[inline]
    fn key_base(cap: usize) -> usize {
        tags_end(cap)
    }

    #[inline]
    fn value_base<const VW: usize>(cap: usize, slot: usize) -> usize {
        tags_end(cap) + cap + VW * slot
    }

    /// Finds `key`'s slot, inserting it if absent.  Returns the word index
    /// of the slot's value area and whether the slot is fresh.
    ///
    /// # Panics
    /// Panics (payload downcastable to
    /// [`CapacityError`](super::CapacityError)) on zero capacity, and when
    /// the probe wraps the whole table (table full) — both mean the
    /// consumer's sizing bound was violated.  [`try_find_or_insert`] is the
    /// recoverable form.
    pub fn find_or_insert<const VW: usize>(region: &mut [u32], key: u32) -> (usize, bool) {
        try_find_or_insert::<VW>(region, key).unwrap_or_else(|e| super::raise_capacity(e))
    }

    /// Fallible form of [`find_or_insert`]: capacity exhaustion is an `Err`
    /// instead of a panic, so a caller can recover rather than abort.
    pub fn try_find_or_insert<const VW: usize>(
        region: &mut [u32],
        key: u32,
    ) -> Result<(usize, bool), super::CapacityError> {
        let cap = capacity(region) as usize;
        // Fault-injection site: a simulated capacity exhaustion on the next
        // reserve, without having to actually fill a table.
        failpoints::fail_point!(
            "arena-reserve",
            return Err(super::CapacityError::TableOverflow {
                key,
                capacity: cap as u32,
                len: len(region),
            })
        );
        if cap == 0 {
            return Err(super::CapacityError::ZeroCapacity { key });
        }
        let num_groups = (cap / probe::GROUP) as u32;
        let hash = super::mix64(key as u64);
        let tag = probe::tag_of(hash);
        let mut g = probe::group_of(hash, num_groups) as usize;
        let (tags, rest) = region[HEADER_WORDS..].split_at_mut(cap / 4);
        let keys = &mut rest[..cap];
        // Wrapped-probe detection: a well-sized table terminates at an
        // empty lane long before `num_groups` steps.
        for _ in 0..num_groups {
            let mut eq = probe::eq_mask(tags, g, tag);
            while eq != 0 {
                let slot = g * probe::GROUP + eq.trailing_zeros() as usize;
                if keys[slot] == key {
                    return Ok((value_base::<VW>(cap, slot), false));
                }
                eq &= eq - 1;
            }
            let empty = probe::eq_mask(tags, g, probe::EMPTY_TAG);
            if empty != 0 {
                let slot = g * probe::GROUP + empty.trailing_zeros() as usize;
                probe::set_tag(tags, slot, tag);
                keys[slot] = key;
                region[1] += 1;
                return Ok((value_base::<VW>(cap, slot), true));
            }
            g += 1;
            if g == num_groups as usize {
                g = 0;
            }
        }
        Err(super::CapacityError::TableOverflow {
            key,
            capacity: cap as u32,
            len: len(region),
        })
    }

    /// Finds `key`'s slot without inserting.  Returns the word index of the
    /// slot's value area.
    pub fn find<const VW: usize>(region: &[u32], key: u32) -> Option<usize> {
        let cap = capacity(region) as usize;
        if cap == 0 {
            return None;
        }
        let num_groups = (cap / probe::GROUP) as u32;
        let hash = super::mix64(key as u64);
        let tag = probe::tag_of(hash);
        let mut g = probe::group_of(hash, num_groups) as usize;
        let tags = &region[HEADER_WORDS..tags_end(cap)];
        let keys = &region[key_base(cap)..key_base(cap) + cap];
        for _ in 0..num_groups {
            let mut eq = probe::eq_mask(tags, g, tag);
            while eq != 0 {
                let slot = g * probe::GROUP + eq.trailing_zeros() as usize;
                if keys[slot] == key {
                    return Some(value_base::<VW>(cap, slot));
                }
                eq &= eq - 1;
            }
            if probe::eq_mask(tags, g, probe::EMPTY_TAG) != 0 {
                return None;
            }
            g += 1;
            if g == num_groups as usize {
                g = 0;
            }
        }
        None
    }

    /// Iterates over the occupied slots as `(key, value word index)` pairs,
    /// skipping empty groups with one 16-lane tag test each (the compact
    /// merge-scan of the tentpole: sparse tables cost `O(capacity/16)`
    /// instead of a full sweep).
    pub fn iter<const VW: usize>(
        region: &[u32],
    ) -> impl Iterator<Item = (u32, usize)> + '_ {
        let cap = capacity(region) as usize;
        let num_groups = cap / probe::GROUP;
        let tags_end = tags_end(cap);
        (0..num_groups).flat_map(move |g| {
            let mut occ = probe::occupied_mask(&region[HEADER_WORDS..tags_end], g);
            std::iter::from_fn(move || {
                if occ == 0 {
                    return None;
                }
                let slot = g * probe::GROUP + occ.trailing_zeros() as usize;
                occ &= occ - 1;
                Some((region[key_base(cap) + slot], value_base::<VW>(cap, slot)))
            })
        })
    }
}

/// Operations on a private `u32 → u32` table stored inside a pool region.
///
/// Group-probing open addressing over 1-word values; see the crate docs for
/// the shared layout and the sizing contract (`words_required(0) == 0`,
/// zero-capacity tables are no-ops except for `insert_add`, full tables
/// panic instead of spinning).
pub mod local_table {
    use super::table_core;

    const VW: usize = 1;

    /// Fixed header length in words (capacity, size).
    pub const HEADER_WORDS: u32 = table_core::HEADER_WORDS as u32;

    /// Number of `u32` words a table for `max_keys` distinct keys requires
    /// (0 for 0 keys).
    pub fn words_required(max_keys: u32) -> u32 {
        table_core::words_required::<VW>(max_keys)
    }

    /// Fallible form of [`words_required`]: an over-4G-words table is a
    /// [`CapacityError`](super::CapacityError) instead of a panic.
    pub fn try_words_required(max_keys: u32) -> Result<u32, super::CapacityError> {
        table_core::try_words_required::<VW>(max_keys)
    }

    /// Initialises a region as an empty table (no-op on zero-length
    /// regions).
    pub fn init(region: &mut [u32]) {
        table_core::init::<VW>(region);
    }

    /// Empties an initialised table without re-deriving its capacity — the
    /// cheap way to reuse one region for many consecutive accumulations.
    pub fn clear(region: &mut [u32]) {
        table_core::clear(region);
    }

    /// Adds `count` to `key`'s entry (inserting it if absent).
    ///
    /// # Panics
    /// Panics (payload downcastable to [`CapacityError`](super::CapacityError))
    /// if the table has zero capacity or is full — the bounds computed
    /// during the initialization phase (`genLocTblBoundKernel`) guarantee
    /// this cannot happen for well-formed inputs.  The simulated-GPU
    /// kernels keep this thin wrapper; recoverable consumers use
    /// [`try_insert_add`].
    pub fn insert_add(region: &mut [u32], key: u32, count: u32) {
        let (base, fresh) = table_core::find_or_insert::<VW>(region, key);
        if fresh {
            region[base] = count;
        } else {
            region[base] += count;
        }
    }

    /// Fallible form of [`insert_add`]: a violated capacity bound is a
    /// [`CapacityError`](super::CapacityError) instead of a panic.
    pub fn try_insert_add(
        region: &mut [u32],
        key: u32,
        count: u32,
    ) -> Result<(), super::CapacityError> {
        let (base, fresh) = table_core::try_find_or_insert::<VW>(region, key)?;
        if fresh {
            region[base] = count;
        } else {
            region[base] += count;
        }
        Ok(())
    }

    /// Number of distinct keys stored.
    pub fn len(region: &[u32]) -> u32 {
        table_core::len(region)
    }

    /// Iterates over `(key, count)` pairs in slot order.
    pub fn iter(region: &[u32]) -> impl Iterator<Item = (u32, u32)> + '_ {
        table_core::iter::<VW>(region).map(|(k, base)| (k, region[base]))
    }

    /// Looks up the count stored for `key`.
    pub fn get(region: &[u32], key: u32) -> Option<u32> {
        table_core::find::<VW>(region, key).map(|base| region[base])
    }
}

/// Operations on a private `u32 → u64` table stored inside a pool region.
///
/// Same group-probing design as [`local_table`], but values are 64-bit (two
/// words, little-endian lo/hi) so the fine-grained CPU engine can accumulate
/// analytics counts (word frequency × rule weight) without overflow.
pub mod flat64 {
    use super::table_core;

    const VW: usize = 2;

    /// Fixed header length in words (capacity, size).
    pub const HEADER_WORDS: u32 = table_core::HEADER_WORDS as u32;

    /// Number of `u32` words a table for `max_keys` distinct keys requires
    /// (0 for 0 keys).
    pub fn words_required(max_keys: u32) -> u32 {
        table_core::words_required::<VW>(max_keys)
    }

    /// Fallible form of [`words_required`]: an over-4G-words table is a
    /// [`CapacityError`](super::CapacityError) instead of a panic.
    pub fn try_words_required(max_keys: u32) -> Result<u32, super::CapacityError> {
        table_core::try_words_required::<VW>(max_keys)
    }

    /// Initialises a region as an empty table (no-op on zero-length
    /// regions).
    pub fn init(region: &mut [u32]) {
        table_core::init::<VW>(region);
    }

    /// Empties an initialised table without re-deriving its capacity — the
    /// cheap way to reuse one region for many consecutive accumulations.
    ///
    /// ```
    /// let mut region = vec![0u32; arena::flat64::words_required(4) as usize];
    /// arena::flat64::init(&mut region);
    /// arena::flat64::insert_add(&mut region, 7, 1);
    /// arena::flat64::clear(&mut region);
    /// assert_eq!(arena::flat64::len(&region), 0);
    /// assert_eq!(arena::flat64::get(&region, 7), None);
    /// ```
    pub fn clear(region: &mut [u32]) {
        table_core::clear(region);
    }

    #[inline]
    fn read_value(region: &[u32], base: usize) -> u64 {
        region[base] as u64 | (region[base + 1] as u64) << 32
    }

    #[inline]
    fn write_value(region: &mut [u32], base: usize, value: u64) {
        region[base] = value as u32;
        region[base + 1] = (value >> 32) as u32;
    }

    /// Adds `count` to `key`'s entry (inserting it if absent).
    ///
    /// # Panics
    /// Panics (payload downcastable to [`CapacityError`](super::CapacityError))
    /// if the table has zero capacity or is full — capacity bounds are
    /// computed during the initialization phase exactly as on the GPU.
    /// Recoverable consumers use [`try_insert_add`].
    pub fn insert_add(region: &mut [u32], key: u32, count: u64) {
        let (base, fresh) = table_core::find_or_insert::<VW>(region, key);
        let value = if fresh {
            count
        } else {
            read_value(region, base) + count
        };
        write_value(region, base, value);
    }

    /// Fallible form of [`insert_add`]: a violated capacity bound is a
    /// [`CapacityError`](super::CapacityError) instead of a panic.
    pub fn try_insert_add(
        region: &mut [u32],
        key: u32,
        count: u64,
    ) -> Result<(), super::CapacityError> {
        let (base, fresh) = table_core::try_find_or_insert::<VW>(region, key)?;
        let value = if fresh {
            count
        } else {
            read_value(region, base) + count
        };
        write_value(region, base, value);
        Ok(())
    }

    /// Number of distinct keys stored.
    pub fn len(region: &[u32]) -> u32 {
        table_core::len(region)
    }

    /// Iterates over `(key, value)` pairs in slot order.
    pub fn iter(region: &[u32]) -> impl Iterator<Item = (u32, u64)> + '_ {
        table_core::iter::<VW>(region).map(|(k, base)| (k, read_value(region, base)))
    }

    /// Looks up the value stored for `key`.
    pub fn get(region: &[u32], key: u32) -> Option<u64> {
        table_core::find::<VW>(region, key).map(|base| read_value(region, base))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_regions_follow_requirements() {
        let pool = MemoryPool::from_requirements(&[4, 0, 8, 2]);
        assert_eq!(pool.num_regions(), 4);
        assert_eq!(pool.total_words(), 14);
        assert_eq!(pool.region(0), PoolRegion { offset: 0, len: 4 });
        assert_eq!(pool.region(1), PoolRegion { offset: 4, len: 0 });
        assert_eq!(pool.region(2), PoolRegion { offset: 4, len: 8 });
        assert_eq!(pool.region(3), PoolRegion { offset: 12, len: 2 });
        assert!(pool.regions_disjoint());
    }

    #[test]
    fn split_regions_yields_disjoint_mut_slices() {
        let mut pool = MemoryPool::from_requirements(&[3, 0, 2]);
        {
            let mut slices = pool.split_regions();
            assert_eq!(slices.len(), 3);
            assert_eq!(slices[0].len(), 3);
            assert_eq!(slices[1].len(), 0);
            assert_eq!(slices[2].len(), 2);
            slices[0][1] = 7;
            slices[2][0] = 9;
        }
        assert_eq!(pool.slice(0), &[0, 7, 0]);
        assert_eq!(pool.slice(2), &[9, 0]);
    }

    #[test]
    fn empty_pool_is_fine() {
        let mut pool = MemoryPool::from_requirements(&[]);
        assert_eq!(pool.num_regions(), 0);
        assert_eq!(pool.total_words(), 0);
        assert!(pool.split_regions().is_empty());
    }

    #[test]
    fn local_table_roundtrip() {
        let mut region = vec![0u32; local_table::words_required(8) as usize];
        local_table::init(&mut region);
        local_table::insert_add(&mut region, 5, 2);
        local_table::insert_add(&mut region, 9, 1);
        local_table::insert_add(&mut region, 5, 3);
        assert_eq!(local_table::get(&region, 5), Some(5));
        assert_eq!(local_table::get(&region, 9), Some(1));
        assert_eq!(local_table::get(&region, 7), None);
        assert_eq!(local_table::len(&region), 2);
    }

    #[test]
    fn flat64_holds_values_beyond_32_bits() {
        let mut region = vec![0u32; flat64::words_required(16) as usize];
        flat64::init(&mut region);
        let big = 7 * (u32::MAX as u64);
        flat64::insert_add(&mut region, 3, big);
        flat64::insert_add(&mut region, 3, 1);
        flat64::insert_add(&mut region, 100, 42);
        assert_eq!(flat64::get(&region, 3), Some(big + 1));
        assert_eq!(flat64::get(&region, 100), Some(42));
        assert_eq!(flat64::get(&region, 4), None);
        assert_eq!(flat64::len(&region), 2);
        let mut pairs: Vec<(u32, u64)> = flat64::iter(&region).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(3, big + 1), (100, 42)]);
    }

    #[test]
    fn flat64_capacity_bound_is_honoured() {
        let mut region = vec![0u32; flat64::words_required(32) as usize];
        flat64::init(&mut region);
        for k in 0..32u32 {
            flat64::insert_add(&mut region, 1000 + k, k as u64 + 1);
        }
        assert_eq!(flat64::len(&region), 32);
        for k in 0..32u32 {
            assert_eq!(flat64::get(&region, 1000 + k), Some(k as u64 + 1));
        }
    }

    #[test]
    fn clear_resets_tables_for_reuse() {
        let mut region = vec![0u32; flat64::words_required(8) as usize];
        flat64::init(&mut region);
        for k in 0..8u32 {
            flat64::insert_add(&mut region, k, k as u64 + 1);
        }
        let cap = region[0];
        flat64::clear(&mut region);
        assert_eq!(region[0], cap, "clear must keep the capacity");
        assert_eq!(flat64::len(&region), 0);
        assert_eq!(flat64::iter(&region).count(), 0);
        for k in 0..8u32 {
            assert_eq!(flat64::get(&region, k), None);
        }
        flat64::insert_add(&mut region, 3, 9);
        assert_eq!(flat64::get(&region, 3), Some(9));

        let mut small = vec![0u32; local_table::words_required(2) as usize];
        local_table::init(&mut small);
        local_table::insert_add(&mut small, 11, 4);
        local_table::clear(&mut small);
        assert_eq!(local_table::len(&small), 0);

        // Zero-capacity clears are legal no-ops, like init.
        let mut empty: Vec<u32> = Vec::new();
        local_table::clear(&mut empty);
        flat64::clear(&mut empty);
    }

    #[test]
    fn zero_capacity_tables_are_legal_no_ops() {
        assert_eq!(local_table::words_required(0), 0);
        assert_eq!(flat64::words_required(0), 0);
        let mut region: Vec<u32> = Vec::new();
        local_table::init(&mut region);
        flat64::init(&mut region);
        assert_eq!(local_table::len(&region), 0);
        assert_eq!(flat64::len(&region), 0);
        assert_eq!(local_table::iter(&region).count(), 0);
        assert_eq!(flat64::iter(&region).count(), 0);
        assert_eq!(local_table::get(&region, 7), None);
        assert_eq!(flat64::get(&region, 7), None);
    }

    /// Extracts the typed capacity payload from a caught panic.
    fn capacity_payload(err: Box<dyn std::any::Any + Send>) -> CapacityError {
        *err.downcast::<CapacityError>()
            .expect("capacity panics carry a CapacityError payload")
    }

    #[test]
    fn local_table_zero_capacity_insert_panics_with_typed_payload() {
        let err = std::panic::catch_unwind(|| {
            let mut region: Vec<u32> = Vec::new();
            local_table::init(&mut region);
            local_table::insert_add(&mut region, 1, 1);
        })
        .expect_err("zero-capacity insert must panic");
        let err = capacity_payload(err);
        assert_eq!(err, CapacityError::ZeroCapacity { key: 1 });
        assert!(err.to_string().contains("zero-capacity table"));
    }

    #[test]
    fn flat64_zero_capacity_insert_panics_with_typed_payload() {
        let err = std::panic::catch_unwind(|| {
            let mut region: Vec<u32> = Vec::new();
            flat64::init(&mut region);
            flat64::insert_add(&mut region, 1, 1);
        })
        .expect_err("zero-capacity insert must panic");
        assert_eq!(capacity_payload(err), CapacityError::ZeroCapacity { key: 1 });
    }

    #[test]
    fn try_insert_add_reports_capacity_errors_without_panicking() {
        let mut empty: Vec<u32> = Vec::new();
        local_table::init(&mut empty);
        assert_eq!(
            local_table::try_insert_add(&mut empty, 9, 1),
            Err(CapacityError::ZeroCapacity { key: 9 })
        );
        flat64::init(&mut empty);
        assert_eq!(
            flat64::try_insert_add(&mut empty, 9, 1),
            Err(CapacityError::ZeroCapacity { key: 9 })
        );

        // Overfill: the wrapped probe reports a typed overflow.
        let mut region = vec![0u32; flat64::words_required(8) as usize];
        flat64::init(&mut region);
        let cap = region[0];
        for k in 0..cap {
            flat64::try_insert_add(&mut region, k * 31 + 7, 1).expect("within capacity");
        }
        let err = flat64::try_insert_add(&mut region, cap * 31 + 7, 1)
            .expect_err("one past capacity must overflow");
        assert_eq!(
            err,
            CapacityError::TableOverflow {
                key: cap * 31 + 7,
                capacity: cap,
                len: cap
            }
        );
        // The fallible path must leave the table intact and readable.
        assert_eq!(flat64::len(&region), cap);
        assert_eq!(flat64::get(&region, 7), Some(1));
    }

    #[test]
    fn try_from_requirements_rejects_over_4g_pools() {
        let reqs = vec![u32::MAX, u32::MAX];
        let err = MemoryPool::try_from_requirements(&reqs).expect_err("9G-word pool");
        assert_eq!(
            err,
            CapacityError::PoolTooLarge {
                words: 2 * u32::MAX as u64
            }
        );
        assert!(err.to_string().contains("shard the dataset"));
        assert!(matches!(
            flat64::try_words_required(u32::MAX),
            Err(CapacityError::PoolTooLarge { .. })
        ));
        assert!(matches!(
            local_table::try_words_required(u32::MAX),
            Err(CapacityError::PoolTooLarge { .. })
        ));
    }

    /// Fills a table to its *entire* slot capacity (beyond the nominal 2×
    /// load-factor bound): every slot must be usable, lookups must stay
    /// correct at 100% fill, and one further insert must trip the
    /// wrapped-probe overflow detection rather than spinning forever.
    #[test]
    fn exactly_full_local_table_still_works() {
        let mut region = vec![0u32; local_table::words_required(24) as usize];
        local_table::init(&mut region);
        let cap = region[0];
        assert!(cap >= 48);
        for k in 0..cap {
            local_table::insert_add(&mut region, k * 31 + 7, k + 1);
        }
        assert_eq!(local_table::len(&region), cap);
        for k in 0..cap {
            assert_eq!(local_table::get(&region, k * 31 + 7), Some(k + 1));
        }
        assert_eq!(local_table::get(&region, 1), None, "absent key on a full table");
        assert_eq!(local_table::iter(&region).count(), cap as usize);
    }

    #[test]
    fn local_table_overflow_panics_with_context() {
        let err = std::panic::catch_unwind(|| {
            let mut region = vec![0u32; local_table::words_required(8) as usize];
            local_table::init(&mut region);
            let cap = region[0];
            for k in 0..=cap {
                local_table::insert_add(&mut region, k * 31 + 7, 1);
            }
        })
        .expect_err("overfilling must panic");
        let err = capacity_payload(err);
        assert!(matches!(err, CapacityError::TableOverflow { .. }));
        assert!(err.to_string().contains("table overflow"));
    }

    #[test]
    fn flat64_overflow_panics_with_context() {
        let err = std::panic::catch_unwind(|| {
            let mut region = vec![0u32; flat64::words_required(8) as usize];
            flat64::init(&mut region);
            let cap = region[0];
            for k in 0..=cap {
                flat64::insert_add(&mut region, k * 31 + 7, 1);
            }
        })
        .expect_err("overfilling must panic");
        assert!(matches!(
            capacity_payload(err),
            CapacityError::TableOverflow { .. }
        ));
    }

    #[test]
    fn probe_simd_matches_swar_reference() {
        // One group of 16 tags with repeats, empties and high-bit values.
        let bytes: [u8; 16] = [
            0x80, 0x00, 0xA5, 0xFF, 0x80, 0x00, 0x91, 0xA5, 0x00, 0x80, 0xFF, 0xC3, 0x00, 0x00,
            0xA5, 0x80,
        ];
        let mut tags = [0u32; probe::GROUP_TAG_WORDS];
        for (slot, &b) in bytes.iter().enumerate() {
            probe::set_tag(&mut tags, slot, b);
        }
        for (slot, &b) in bytes.iter().enumerate() {
            assert_eq!(probe::get_tag(&tags, slot), b, "slot {slot}");
        }
        for needle in [0x00u8, 0x80, 0xA5, 0xFF, 0x91, 0xC3, 0x81] {
            let expected: u32 = bytes
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b == needle)
                .map(|(i, _)| 1u32 << i)
                .sum();
            assert_eq!(probe::eq_mask(&tags, 0, needle), expected, "simd {needle:#x}");
            assert_eq!(
                probe::eq_mask_swar(&tags, 0, needle),
                expected,
                "swar {needle:#x}"
            );
        }
        assert_eq!(
            probe::occupied_mask(&tags, 0),
            !probe::eq_mask_swar(&tags, 0, 0) & 0xFFFF
        );
    }

    #[test]
    fn probe_tags_are_never_empty_and_groups_in_range() {
        for k in 0..10_000u64 {
            let h = mix64(k);
            assert_ne!(probe::tag_of(h), probe::EMPTY_TAG);
            assert!(probe::group_of(h, 7) < 7);
        }
    }

    #[test]
    fn mix64_avalanches_low_bits() {
        // Keys differing only in high bits must land in different buckets
        // often enough; sanity-check a few.
        let a = mix64(1 << 40) & 0xff;
        let b = mix64(2 << 40) & 0xff;
        let c = mix64(3 << 40) & 0xff;
        assert!(!(a == b && b == c), "low bits must depend on high input bits");
    }
}
