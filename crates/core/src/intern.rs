//! Shared state-interning machinery: seeded fingerprint hashing, a
//! fingerprint → id index with exact-equality confirmation, flat bit
//! packing, and a block-chunked row arena.
//!
//! These are the pieces behind the fingerprint-arena fast paths — the
//! [`convergence`](crate::convergence) cycle detector and the exact
//! product-graph explorer in `stabilization-verify` both resolve states
//! the same way:
//!
//! 1. encode the state into a flat, allocation-free representation
//!    (a row of an arena, or a few [bit-packed](pack) `u64` words);
//! 2. hash it with the seeded [`FxHasher`] into a 64-bit fingerprint;
//! 3. probe a [`FingerprintIndex`]: every fingerprint hit is confirmed by
//!    exact equality against the arena, so collisions cost a comparison
//!    but never an incorrect answer, and no owned key (no
//!    `HashMap<Vec<_>, _>` clone) is ever stored. A state of one packed
//!    word and no auxiliary words cannot collide
//!    ([`fingerprint_is_exact`]), so its hit is confirmed without reading
//!    the arena.
//!
//! [`ChunkedArena`] backs the rows themselves, indexed by the id the
//! index hands out: size-capped blocks mean appending a million rows
//! never reallocates-and-copies the rows already written, and its blocks
//! stream out as they are for checkpointing.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// An FxHash-style multiplicative [`Hasher`] with a fixed seed: one
/// rotate-xor-multiply per 8-byte word, ~4× faster than SipHash on the
/// wide labelings and packed state words the fast paths fingerprint. Not
/// collision-resistant against adversaries — which is fine, because every
/// fingerprint hit is confirmed by exact equality against the arena.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

/// The golden-ratio multiplier used by rustc's FxHash.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    /// Starts a fingerprint from an initial word (length prefixes make
    /// prefix states hash differently).
    pub fn seeded(word: u64) -> Self {
        FxHasher { hash: word }
    }

    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`] — use for `HashMap`s keyed by values
/// that are already well-mixed words (fingerprints, small indices), where
/// SipHash would waste the fast path.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Seeded FxHash fingerprint of a packed state: the row words, then the
/// auxiliary words. This is **the** state fingerprint — the product-graph
/// explorer's interning, its successor lookups, and the checkpoint
/// restore path all call this one function, so a state resolves to the
/// same id no matter who hashes it. On states of one row word and no
/// auxiliary words it is injective ([`fingerprint_is_exact`]).
pub fn state_fingerprint(row: &[u64], aux: &[u64]) -> u64 {
    let mut h = FxHasher::default();
    for &w in row {
        h.write_u64(w);
    }
    for &a in aux {
        h.write_u64(a);
    }
    h.finish()
}

/// Whether [`state_fingerprint`] tells apart every state of this shape:
/// it does exactly when the row is one word and there are no auxiliary
/// words. [`FxHasher`] starts at 0, so such a state's fingerprint is
/// `row × FX_SEED mod 2^64`, and `FX_SEED` is odd, so that product is a
/// bijection of `u64`. A fingerprint hit on such a state is then already
/// an exact hit, and its confirmation needs no read of the stored row.
/// Any other shape folds several words into one and must be confirmed.
pub const fn fingerprint_is_exact(row_words: usize, aux_words: usize) -> bool {
    row_words == 1 && aux_words == 0
}

/// Fingerprint → id index with exact-equality confirmation.
///
/// Maps 64-bit fingerprints to the id of the first state that produced
/// them. Because fingerprints can collide, every hit must be *confirmed*
/// by the caller against its arena; unconfirmed entries (a genuine 64-bit
/// collision between distinct states) go to a small side list so the map
/// itself stays one bare `u64 → u64` entry per state — no owned keys, no
/// per-entry heap allocation. A caller whose states satisfy
/// [`fingerprint_is_exact`] may confirm without reading its arena: no
/// two of them share a fingerprint.
#[derive(Debug, Default)]
pub struct FingerprintIndex {
    seen: HashMap<u64, u64, FxBuildHasher>,
    collisions: Vec<(u64, u64)>,
}

impl FingerprintIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty index with room for `capacity` states.
    pub fn with_capacity(capacity: usize) -> Self {
        FingerprintIndex {
            seen: HashMap::with_capacity_and_hasher(capacity, FxBuildHasher::default()),
            collisions: Vec::new(),
        }
    }

    /// Number of states interned (confirmed-distinct entries).
    pub fn len(&self) -> usize {
        self.seen.len() + self.collisions.len()
    }

    /// Whether no state has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Looks up `fp`; `confirm(id)` must report whether the state stored
    /// under `id` is exactly equal to the one being probed.
    ///
    /// Returns `Some(id)` of the confirmed-equal existing state, or `None`
    /// after recording `candidate` as the id owning this fingerprint (the
    /// caller then appends the state to its arena under that id).
    pub fn probe(&mut self, fp: u64, candidate: u64, confirm: impl Fn(u64) -> bool) -> Option<u64> {
        match self.seen.entry(fp) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(candidate);
                None
            }
            std::collections::hash_map::Entry::Occupied(o) => {
                let first = *o.get();
                if confirm(first) {
                    return Some(first);
                }
                // 64-bit collision: consult (and extend) the side list.
                let extra = self
                    .collisions
                    .iter()
                    .filter(|&&(f, _)| f == fp)
                    .map(|&(_, id)| id)
                    .find(|&id| confirm(id));
                if extra.is_none() {
                    self.collisions.push((fp, candidate));
                }
                extra
            }
        }
    }

    /// Read-only twin of [`probe`](FingerprintIndex::probe): looks up
    /// `fp` and returns the confirmed-equal existing id, or `None`.
    /// Never records anything — this is the lookup the edge-less
    /// verifier's successor oracle uses on states that are guaranteed
    /// to have been interned already.
    pub fn find(&self, fp: u64, confirm: impl Fn(u64) -> bool) -> Option<u64> {
        let &first = self.seen.get(&fp)?;
        if confirm(first) {
            return Some(first);
        }
        self.collisions
            .iter()
            .filter(|&&(f, _)| f == fp)
            .map(|&(_, id)| id)
            .find(|&id| confirm(id))
    }
}

/// Bits needed to store one of `cardinality` distinct values:
/// `⌈log₂ cardinality⌉`, with 0 for cardinalities 0 and 1 (a single
/// possible value needs no bits at all).
pub fn bits_for(cardinality: usize) -> u32 {
    if cardinality <= 1 {
        0
    } else {
        usize::BITS - (cardinality - 1).leading_zeros()
    }
}

/// Writes the low `width` bits of `value` into `words` at bit offset
/// `bit` (little-endian within and across words; fields may straddle a
/// word boundary). The target bits must currently be zero — states are
/// packed once into zeroed scratch, never rewritten in place.
///
/// `width = 0` writes nothing (fields over single-valued domains vanish
/// from the representation).
///
/// # Panics
///
/// Debug-panics if `value` does not fit in `width` bits or the field runs
/// past the end of `words`.
#[inline]
pub fn pack(words: &mut [u64], bit: usize, width: u32, value: u64) {
    debug_assert!(width <= 64);
    if width == 0 {
        return;
    }
    debug_assert!(
        width == 64 || value < 1u64 << width,
        "value overflows field"
    );
    let word = bit / 64;
    let off = (bit % 64) as u32;
    words[word] |= value << off;
    let spill = off + width;
    if spill > 64 {
        // The field straddles into the next word.
        words[word + 1] |= value >> (64 - off);
    }
    debug_assert!(bit + width as usize <= words.len() * 64);
}

/// Reads back a `width`-bit field written by [`pack`]. `width = 0` reads 0.
#[inline]
pub fn unpack(words: &[u64], bit: usize, width: u32) -> u64 {
    if width == 0 {
        return 0;
    }
    let word = bit / 64;
    let off = (bit % 64) as u32;
    let mut v = words[word] >> off;
    let spill = off + width;
    if spill > 64 {
        v |= words[word + 1] << (64 - off);
    }
    if width == 64 {
        v
    } else {
        v & ((1u64 << width) - 1)
    }
}

/// [`ChunkedArena`] block sizing: blocks start at ~4 KiB and double up to
/// a fixed ~1 MiB cap, so short histories (a sweep runs thousands of
/// small classifications) cost one small allocation while million-row
/// histories grow in constant-size blocks. A full block is never
/// reallocated — no row ever moves after being written, and rows stay
/// contiguous (a block always holds whole rows).
const ARENA_FIRST_BLOCK_BYTES: usize = 1 << 12;
const ARENA_MAX_BLOCK_BYTES: usize = 1 << 20;

/// A grow-only arena of fixed-length rows stored in size-capped blocks.
///
/// `push_row` appends one row; `row(i)` returns it as a contiguous slice.
/// Unlike a flat `Vec`, growth never copies existing rows (no realloc
/// churn, no page-fault storms on million-row histories) — the trade is
/// one block lookup per access.
#[derive(Debug)]
pub struct ChunkedArena<T> {
    blocks: Vec<Vec<T>>,
    /// `starts[b]` = index of the first row stored in block `b`.
    starts: Vec<usize>,
    row_len: usize,
    /// Row capacity of the next block to allocate (doubles up to the cap).
    next_block_rows: usize,
    max_block_rows: usize,
    rows: usize,
}

impl<T: Clone> ChunkedArena<T> {
    /// An empty arena of rows of `row_len` elements.
    pub fn new(row_len: usize) -> Self {
        let row_bytes = row_len.max(1) * std::mem::size_of::<T>().max(1);
        ChunkedArena {
            blocks: Vec::new(),
            starts: Vec::new(),
            row_len,
            next_block_rows: (ARENA_FIRST_BLOCK_BYTES / row_bytes).max(1),
            max_block_rows: (ARENA_MAX_BLOCK_BYTES / row_bytes).max(1),
            rows: 0,
        }
    }

    /// Number of rows stored.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the arena holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Total bytes of row storage currently allocated.
    pub fn allocated_bytes(&self) -> usize {
        self.blocks.iter().map(Vec::capacity).sum::<usize>() * std::mem::size_of::<T>()
    }

    /// The stored rows, block by block, in row order. Blocks are never
    /// realloc-copied after a row lands in them, so this is the zero-copy
    /// export path (checkpointing streams these slices straight to disk).
    pub fn blocks(&self) -> impl Iterator<Item = &[T]> {
        self.blocks.iter().map(|b| b.as_slice())
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != row_len`.
    pub fn push_row(&mut self, row: &[T]) {
        assert_eq!(row.len(), self.row_len, "row length mismatch");
        // A block is "full" when the next row would not fit its capacity
        // (capacity may exceed the request; never realloc a live block).
        let full = match self.blocks.last() {
            None => true,
            Some(b) => b.len() + self.row_len > b.capacity(),
        };
        if full {
            self.blocks.push(Vec::with_capacity(
                self.next_block_rows * self.row_len.max(1),
            ));
            self.starts.push(self.rows);
            self.next_block_rows = (self.next_block_rows * 2).min(self.max_block_rows);
        }
        self.blocks
            .last_mut()
            .expect("block just ensured")
            .extend_from_slice(row);
        self.rows += 1;
    }

    /// The `i`-th row, as one contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn row(&self, i: usize) -> &[T] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        // Block sizes double then plateau, so there are O(log n) blocks
        // plus a linear tail; partition_point finds the owning block.
        let b = self.starts.partition_point(|&s| s <= i) - 1;
        let start = (i - self.starts[b]) * self.row_len;
        &self.blocks[b][start..start + self.row_len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_matches_ceil_log2() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 0);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(5), 3);
        assert_eq!(bits_for(16), 4);
        assert_eq!(bits_for(17), 5);
    }

    #[test]
    fn pack_unpack_roundtrips_across_word_boundaries() {
        // 7-bit fields never align with 64-bit words: every straddle case
        // is exercised.
        let mut words = vec![0u64; 3];
        let values: Vec<u64> = (0..24).map(|k| (k * 37 + 5) % 128).collect();
        for (k, &v) in values.iter().enumerate() {
            pack(&mut words, k * 7, 7, v);
        }
        for (k, &v) in values.iter().enumerate() {
            assert_eq!(unpack(&words, k * 7, 7), v, "field {k}");
        }
    }

    #[test]
    fn pack_unpack_zero_width_is_identity() {
        let mut words = vec![0u64; 1];
        pack(&mut words, 13, 0, 0);
        assert_eq!(words[0], 0);
        assert_eq!(unpack(&words, 13, 0), 0);
    }

    #[test]
    fn pack_unpack_full_width() {
        let mut words = vec![0u64; 2];
        pack(&mut words, 3, 64, u64::MAX - 7);
        assert_eq!(unpack(&words, 3, 64), u64::MAX - 7);
    }

    #[test]
    fn fingerprint_index_interns_and_confirms() {
        let states: Vec<u64> = vec![10, 20, 30, 10, 20];
        let mut arena: Vec<u64> = Vec::new();
        let mut index = FingerprintIndex::new();
        let mut ids = Vec::new();
        for &s in &states {
            // Deliberately colliding fingerprint (all states hash to 1):
            // confirmation must still resolve them exactly.
            let id = match index.probe(1, arena.len() as u64, |id| arena[id as usize] == s) {
                Some(existing) => existing,
                None => {
                    arena.push(s);
                    (arena.len() - 1) as u64
                }
            };
            ids.push(id);
        }
        assert_eq!(ids, vec![0, 1, 2, 0, 1]);
        assert_eq!(arena, vec![10, 20, 30]);
        assert_eq!(index.len(), 3);
    }

    /// Pins the rule that lets one-word states skip confirmation: a
    /// change to the hasher's start value or multiplier that makes the
    /// one-word fingerprint non-injective fails here instead of merging
    /// distinct states.
    #[test]
    fn one_word_fingerprints_invert_exactly() {
        assert!(fingerprint_is_exact(1, 0));
        assert!(!fingerprint_is_exact(2, 0));
        assert!(!fingerprint_is_exact(1, 1));
        assert!(!fingerprint_is_exact(1, 4));
        // The inverse of the odd multiplier mod 2^64 by Newton's
        // iteration: x ← x·(2 − a·x) doubles the correct low bits, from
        // the 3 that x = a already has.
        let inverse = (0..5).fold(FX_SEED, |x, _| {
            x.wrapping_mul(2u64.wrapping_sub(FX_SEED.wrapping_mul(x)))
        });
        assert_eq!(FX_SEED.wrapping_mul(inverse), 1);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let random = (0..100_000).map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state ^ state >> 29
        });
        for word in [0, 1, u64::MAX].into_iter().chain(random) {
            assert_eq!(
                state_fingerprint(&[word], &[]).wrapping_mul(inverse),
                word,
                "{word:#x}"
            );
        }
    }

    #[test]
    fn chunked_arena_rows_survive_growth() {
        // Tiny rows force many rows per block; wide enough total to cross
        // several block boundaries if blocks were small. Use a row size
        // that doesn't divide the block size evenly.
        let mut arena: ChunkedArena<u32> = ChunkedArena::new(3);
        let total = 100_000;
        for i in 0..total {
            let row = [i as u32, (i * 2) as u32, (i * 3) as u32];
            arena.push_row(&row);
        }
        assert_eq!(arena.len(), total);
        for i in (0..total).step_by(977) {
            assert_eq!(arena.row(i), &[i as u32, (i * 2) as u32, (i * 3) as u32]);
        }
        assert!(arena.allocated_bytes() >= total * 3 * 4);
    }

    #[test]
    fn chunked_arena_handles_empty_rows() {
        let mut arena: ChunkedArena<u64> = ChunkedArena::new(0);
        for _ in 0..10 {
            arena.push_row(&[]);
        }
        assert_eq!(arena.len(), 10);
        assert_eq!(arena.row(9), &[] as &[u64]);
    }

    #[test]
    fn block_export_rebuilds_an_identical_index() {
        // The checkpoint restore path: intern rows (with a deliberately
        // coarse fingerprint, so hits must be confirmed), stream the
        // arena out block by block, re-intern it in id order into a fresh
        // index, and require every row fresh under its old id.
        let fp = |row: &[u64]| row[0] % 7;
        let intern = |index: &mut FingerprintIndex, arena: &mut ChunkedArena<u64>, row: &[u64]| {
            let candidate = arena.len() as u64;
            match index.probe(fp(row), candidate, |id| arena.row(id as usize) == row) {
                Some(id) => (id, false),
                None => {
                    arena.push_row(row);
                    (candidate, true)
                }
            }
        };
        let (mut index, mut arena) = (FingerprintIndex::new(), ChunkedArena::new(2));
        let states: Vec<[u64; 2]> = (0..3000u64).map(|i| [i % 1000, i % 1000 * 3]).collect();
        let ids: Vec<u64> = states
            .iter()
            .map(|row| intern(&mut index, &mut arena, row).0)
            .collect();
        assert_eq!(arena.len(), 1000, "repeats dedup");
        assert_eq!(index.len(), 1000);
        let flat: Vec<u64> = arena.blocks().flatten().copied().collect();
        assert_eq!(flat.len(), 2000);
        let (mut rebuilt, mut rows) = (FingerprintIndex::new(), ChunkedArena::new(2));
        for (k, row) in flat.chunks_exact(2).enumerate() {
            assert_eq!(intern(&mut rebuilt, &mut rows, row), (k as u64, true));
        }
        for (row, &id) in states.iter().zip(&ids) {
            assert_eq!(rows.row(id as usize), row);
            let found = rebuilt.find(fp(row), |k| rows.row(k as usize) == row);
            assert_eq!(found, Some(id));
        }
        assert_eq!(
            rebuilt.find(fp(&[5, 0]), |k| rows.row(k as usize) == [5, 0]),
            None
        );
    }

    #[test]
    fn seeded_hasher_differs_by_seed() {
        let mut a = FxHasher::seeded(1);
        let mut b = FxHasher::seeded(2);
        a.write_u64(42);
        b.write_u64(42);
        assert_ne!(a.finish(), b.finish());
    }
}
