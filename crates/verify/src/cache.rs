//! Memoized verdict cache: in-memory + on-disk memoization of exact
//! verification results, keyed by the canonical
//! [`instance_fingerprint`].
//!
//! Repeated verification queries are the production traffic pattern —
//! placement sweeps re-verify near-identical instances, batch services
//! replay whole job files — and the product-graph exploration behind
//! each query is deterministic: the same instance always produces the
//! bit-identical `{verdict, witness, stats}`. The fingerprint covers
//! everything that shapes the explored graph (topology, `r`, query
//! mode, deduplicated alphabet, inputs, fault model, symmetry mode,
//! state/edge budgets, and a behavioral digest of the reactions) and
//! deliberately **excludes** worker thread counts, the deadline, and the
//! checkpoint policy — none of them change the verdict, which is exactly
//! the cache-key property: a result computed at 8 threads serves a
//! 1-thread query bit for bit.
//!
//! # One table per query
//!
//! A query validates its parameters, then tabulates every node's
//! reaction once per in-labeling ([`ReactionTable`]) and takes its key
//! from that table, so a hit calls each reaction once per entry and
//! builds no explorer. A miss or a resume hands the same table to the
//! explorer, which reacts, validates symmetries and stamps its
//! checkpoints from it: the key digests exactly the entries exploration
//! reads. Every final verdict a query computes is memoized. An instance
//! whose table would exceed the state budget plus one entry per node is
//! refused before anything is tabulated, as the `verify_*` entry points
//! refuse it, and nothing is stored for it.
//!
//! [`ReactionTable`]: stateless_core::symmetry::ReactionTable
//!
//! # What is stored
//!
//! Each entry carries the verdict (witness included, with labels
//! encoded as indices into the deduplicated alphabet — every witness
//! label is an alphabet member by construction), the [`ExploreStats`],
//! and a [`Provenance`] record: the commit the result was computed at,
//! the wall time it took, and the limits actually used. Entries are
//! held serialized (a flat `u64` word vector), so one cache serves any
//! label type `L`; decoding on a hit reconstructs the labels through
//! the *query's* alphabet, which the fingerprint guarantees matches the
//! writer's. The fingerprint digests every reaction entry, so two
//! different instances cross-serve only if they collide on the 64-bit
//! hash — the same trust model as checkpoint resume.
//!
//! # `Verdict::Partial` is never memoized as final
//!
//! A deadline-truncated run proves nothing; caching it as an answer
//! would serve "no claim" forever. Instead a `Partial` that carries a
//! [`CheckpointHandle`] is stored as a **resume pointer** — the store
//! directory and epoch of its final checkpoint. A later query for the
//! same instance finds the pointer and *resumes* the exploration
//! ([`CacheOutcome::Resumed`]) instead of restarting it; if the longer
//! deadline completes the run, the full verdict replaces the pointer
//! and subsequent queries are plain hits. A `Partial` without a handle
//! (no checkpoint policy) is returned but not memoized at all.
//!
//! # Persistence
//!
//! With a directory ([`VerdictCache::open`]) the cache persists through
//! the length+checksum-framed segment format of
//! [`stateless_core::checkpoint`]: one epoch file per save, one segment
//! per entry, committed tmp-then-rename through a [`CheckpointStore`].
//! Corrupt data is **skipped, never trusted**: a torn or bit-flipped
//! epoch fails its checksum validation and loading falls back to the
//! previous epoch (or an empty cache — a recompute, never a wrong
//! answer), and an entry that decodes inconsistently is dropped at
//! lookup time. Eviction is LRU under a byte budget measured over the
//! serialized entry payloads.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use stateless_core::checkpoint::{CheckpointError, CheckpointStore};
use stateless_core::prelude::*;
use stateless_core::symmetry::{dedup_alphabet, SymmetryMode};

use crate::checkpoint::{instance_fingerprint, CheckpointHandle};
use crate::product::{CycleWitness, ExploreStats, Instance, Limits, Verdict, VerifyError};

/// Default byte budget for the serialized entry payloads (64 MiB —
/// verdict entries are tiny; this is effectively "unbounded unless you
/// cache millions of witnesses").
pub const DEFAULT_BYTE_BUDGET: usize = 64 << 20;

/// Segment tag of the cache header segment (one per epoch).
const HEADER_TAG: u32 = 0x5643_4844; // "VCHD"
/// Segment tag of one serialized cache entry.
const ENTRY_TAG: u32 = 0x5643_4531; // "VCE1"
/// Magic word opening the header segment.
const HEADER_MAGIC: u64 = 0x7374_6c73_2d76_6331; // "stls-vc1"
/// Entry format version; entries of another version are skipped on load
/// (a recompute, never a misdecode). Version 5 entries carry an
/// [`ExploreStats::edge_bytes`] whose records have no stream key, 8
/// bytes per record below the figure a version 4 entry holds for the
/// same instance.
const ENTRY_VERSION: u64 = 5;

/// Entry kind words.
const KIND_STABILIZING: u64 = 0;
const KIND_NOT_STABILIZING: u64 = 1;
const KIND_RESUME_POINTER: u64 = 2;

/// How a [`VerdictCache`] query was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from a memoized final verdict — no exploration ran.
    Hit,
    /// Computed from scratch (and memoized when final, or stored as a
    /// resume pointer when `Partial` with a checkpoint).
    Miss,
    /// A stored `Partial` resume pointer was found and the exploration
    /// **continued** from its checkpoint epoch instead of restarting.
    Resumed,
}

impl CacheOutcome {
    /// The lowercase wire name (`hit` / `miss` / `resumed`) used in
    /// `verifyd` result rows.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Resumed => "resumed",
        }
    }
}

/// How a cached verdict came to be: the audit record stored alongside
/// every entry and returned with every answer (on a hit, the
/// provenance of the run that *originally* computed the result).
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// The commit the computing process ran at — read from the
    /// `STATELESS_COMMIT` environment variable (CI exports the build
    /// sha; no git invocation at runtime), `"unknown"` when unset.
    pub commit: String,
    /// Wall-clock seconds the computing run took (tabulation through
    /// verdict). Zero for a resume pointer that has not completed yet.
    pub wall_secs: f64,
    /// Worker threads the computing run used ([`Limits::threads`]).
    pub threads: usize,
    /// Symmetry mode of the instance (also part of the cache key).
    pub symmetry: SymmetryMode,
    /// State budget of the instance (part of the cache key).
    pub max_states: usize,
    /// Edge budget of the instance (part of the cache key).
    pub max_edges: usize,
}

/// One answered query: the verdict (bit-identical to the computing
/// run's), its exploration stats, the provenance of the run that
/// computed it, the instance fingerprint it was keyed under, and how
/// the cache answered.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedVerdict<L> {
    /// The exact verdict.
    pub verdict: Verdict<L>,
    /// The computing run's exploration stats.
    pub stats: ExploreStats,
    /// The audit record of the computing run.
    pub provenance: Provenance,
    /// The instance fingerprint (the cache key).
    pub fingerprint: u64,
    /// Hit, miss, or resumed.
    pub outcome: CacheOutcome,
}

/// One serialized entry: the flat word vector (see the encoding
/// helpers) and its LRU stamp.
#[derive(Debug)]
struct Entry {
    words: Vec<u64>,
    last_used: u64,
}

impl Entry {
    fn bytes(&self) -> usize {
        self.words.len() * 8
    }
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<u64, Entry>,
    total_bytes: usize,
    /// Monotonic LRU clock.
    tick: u64,
    /// The last persisted epoch number (0 before any save).
    epoch: u64,
}

/// The memoized verdict cache. See the [module docs](self) for the key,
/// storage, and `Partial` semantics. All methods take `&self`; the
/// cache is internally synchronized and shared freely across
/// [`par_sweep`](stateless_core::convergence::par_sweep) workers.
/// Lookups and inserts lock briefly; verification itself runs outside
/// the lock, so concurrent misses on the *same* instance may compute it
/// twice (both arrive at the bit-identical entry — wasted work, never a
/// wrong answer).
#[derive(Debug)]
pub struct VerdictCache {
    inner: Mutex<Inner>,
    dir: Option<PathBuf>,
    byte_budget: usize,
}

impl VerdictCache {
    /// A memory-only cache with the given byte budget over serialized
    /// entry payloads ([`DEFAULT_BYTE_BUDGET`] is a good default).
    pub fn in_memory(byte_budget: usize) -> Self {
        VerdictCache {
            inner: Mutex::new(Inner::default()),
            dir: None,
            byte_budget,
        }
    }

    /// Opens (creating if needed) a persistent cache in `dir`, loading
    /// every decodable entry from the newest valid epoch. A corrupt
    /// newest epoch falls back to the previous one; no valid epoch at
    /// all is an empty cache — corruption can only cost recomputation.
    /// Every insert rewrites the store (entries are small; a save is
    /// one tmp-then-rename commit).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the directory cannot be created or
    /// listed.
    pub fn open(dir: &Path, byte_budget: usize) -> Result<Self, CheckpointError> {
        let store = CheckpointStore::open(dir)?;
        let mut inner = Inner::default();
        if let Ok(Some(epoch)) = store.latest_valid_epoch() {
            inner.epoch = epoch;
            // The epoch validated wholesale already; per-entry decoding
            // failures below (version skew, malformed words) skip the
            // entry rather than poisoning the load.
            if let Ok(mut reader) = store.open_epoch(epoch) {
                let header_ok = match reader.next_segment() {
                    Ok(Some(mut seg)) => {
                        seg.tag == HEADER_TAG && seg.take_u64().ok() == Some(HEADER_MAGIC)
                    }
                    _ => false,
                };
                // A missing or mismatched header means the epoch is not
                // a cache save (e.g. the directory is shared with some
                // other checkpoint writer) — load nothing from it.
                if header_ok {
                    while let Ok(Some(mut seg)) = reader.next_segment() {
                        if seg.tag != ENTRY_TAG {
                            continue;
                        }
                        let mut words = Vec::with_capacity(seg.remaining() / 8);
                        if seg.take_u64s(seg.remaining() / 8, &mut words).is_err() {
                            continue;
                        }
                        // Entries were written in LRU order, so stamping
                        // in read order preserves the eviction order.
                        if let Some(fp) = entry_key(&words) {
                            inner.tick += 1;
                            let entry = Entry {
                                words,
                                last_used: inner.tick,
                            };
                            inner.total_bytes += entry.bytes();
                            inner.entries.insert(fp, entry);
                        }
                    }
                }
            }
        }
        Ok(VerdictCache {
            inner: Mutex::new(inner),
            dir: Some(dir.to_path_buf()),
            byte_budget,
        })
    }

    /// Number of entries currently held (final verdicts and resume
    /// pointers alike).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total serialized bytes currently held — the figure the byte
    /// budget bounds. (A single entry larger than the whole budget is
    /// kept — the cache never evicts the entry an insert just paid
    /// for — so this can exceed the budget only in that degenerate
    /// single-entry case.)
    pub fn total_bytes(&self) -> usize {
        self.inner.lock().expect("cache lock").total_bytes
    }

    /// The byte budget eviction holds [`total_bytes`](Self::total_bytes)
    /// to.
    pub fn byte_budget(&self) -> usize {
        self.byte_budget
    }

    /// The instance fingerprint a **label**-stabilization query of
    /// these parameters is keyed under (exposed so services can report
    /// the key alongside their rows). Validates and tabulates the
    /// instance to take it, as the query itself does. An instance the
    /// query rejects or refuses is not tabulated: its fingerprint digests
    /// no reaction, and no store is ever keyed by it, since such a query
    /// fails before it opens one.
    pub fn label_fingerprint<L: Label>(
        protocol: &Protocol<L>,
        inputs: &[Input],
        alphabet: &[L],
        r: u8,
        limits: &Limits,
    ) -> u64 {
        match Instance::new(protocol, inputs, alphabet, r, false, limits) {
            Ok(inst) => inst.key(limits),
            Err(_) => {
                let dedup = dedup_alphabet(alphabet);
                instance_fingerprint(protocol, inputs, &dedup, None, r, false, limits)
            }
        }
    }

    /// Answers a **label**-stabilization query through the cache:
    /// a memoized final verdict is a [`CacheOutcome::Hit`] (bit-identical
    /// `{verdict, witness, stats}` to the run that computed it), a
    /// stored `Partial` pointer resumes from its checkpoint epoch
    /// ([`CacheOutcome::Resumed`]), and anything else verifies from
    /// scratch ([`CacheOutcome::Miss`]) and memoizes the result.
    ///
    /// # Errors
    ///
    /// As for [`verify_label_stabilization_with_stats`]. Cache-layer
    /// I/O can never fail a query: a broken persistence directory only
    /// stops memoization, and a corrupt entry falls back to recompute.
    ///
    /// [`verify_label_stabilization_with_stats`]: crate::verify_label_stabilization_with_stats
    pub fn verify_label<L: Label>(
        &self,
        protocol: &Protocol<L>,
        inputs: &[Input],
        alphabet: &[L],
        r: u8,
        limits: &Limits,
    ) -> Result<CachedVerdict<L>, VerifyError> {
        self.verify(protocol, inputs, alphabet, r, false, limits)
    }

    /// The **output**-stabilization twin of
    /// [`verify_label`](Self::verify_label) (a different query mode is
    /// a different fingerprint, so the two never cross-serve).
    ///
    /// # Errors
    ///
    /// As for [`verify_label`](Self::verify_label).
    pub fn verify_output<L: Label>(
        &self,
        protocol: &Protocol<L>,
        inputs: &[Input],
        alphabet: &[L],
        r: u8,
        limits: &Limits,
    ) -> Result<CachedVerdict<L>, VerifyError> {
        self.verify(protocol, inputs, alphabet, r, true, limits)
    }

    /// One query: tabulate, key, look up, and on a miss or a resume hand
    /// the same instance, table included, to the explorer. The deadline
    /// clock starts before the tabulation, as for the `verify_*` entry
    /// points; a resumed run's budget starts once its epoch is loaded.
    fn verify<L: Label>(
        &self,
        protocol: &Protocol<L>,
        inputs: &[Input],
        alphabet: &[L],
        r: u8,
        track_outputs: bool,
        limits: &Limits,
    ) -> Result<CachedVerdict<L>, VerifyError> {
        let started = Instant::now();
        let inst = Instance::new(protocol, inputs, alphabet, r, track_outputs, limits)?;
        let fp = inst.key(limits);
        // Lookup under the lock; decode failures drop the entry (a
        // corrupt record must fall back to recompute, not error).
        let cached = {
            let mut inner = self.inner.lock().expect("cache lock");
            let decoded = inner
                .entries
                .get(&fp)
                .map(|entry| decode_entry::<L>(&entry.words, &inst.alphabet));
            match decoded {
                Some(Some(decoded)) => {
                    inner.tick += 1;
                    let tick = inner.tick;
                    inner
                        .entries
                        .get_mut(&fp)
                        .expect("entry just found")
                        .last_used = tick;
                    Some(decoded)
                }
                Some(None) => {
                    let dropped = inner.entries.remove(&fp).expect("entry just found");
                    inner.total_bytes -= dropped.bytes();
                    None
                }
                None => None,
            }
        };
        let pointer = match cached {
            Some(Decoded::Final {
                verdict,
                stats,
                provenance,
            }) => {
                return Ok(CachedVerdict {
                    verdict,
                    stats,
                    provenance,
                    fingerprint: fp,
                    outcome: CacheOutcome::Hit,
                })
            }
            Some(Decoded::Pointer { handle }) => Some(handle),
            None => None,
        };
        let alphabet = inst.alphabet.clone();
        let ((verdict, stats), outcome) = match pointer {
            // The stored epoch first; a pruned or corrupted one falls back
            // to the newest valid epoch, and a dead store to a fresh run —
            // a pointer can cost a restart, never a wrong answer.
            Some(handle) => {
                let resumed = inst
                    .clone()
                    .resume(limits, &handle.dir, Some(handle.epoch))
                    .or_else(|e| match e {
                        VerifyError::Resume(_) => inst.clone().resume(limits, &handle.dir, None),
                        other => Err(other),
                    });
                match resumed {
                    Ok(settled) => (settled, CacheOutcome::Resumed),
                    Err(VerifyError::Resume(_)) => {
                        (inst.verify(limits, started)?, CacheOutcome::Miss)
                    }
                    Err(other) => return Err(other),
                }
            }
            None => (inst.verify(limits, started)?, CacheOutcome::Miss),
        };
        let provenance = provenance_of(limits, started.elapsed().as_secs_f64());
        self.memoize(fp, &verdict, stats, &provenance, &alphabet);
        Ok(CachedVerdict {
            verdict,
            stats,
            provenance,
            fingerprint: fp,
            outcome,
        })
    }

    /// Stores a computed result: final verdicts as full entries,
    /// checkpointed `Partial`s as resume pointers, handle-less
    /// `Partial`s not at all.
    fn memoize<L: Label>(
        &self,
        fp: u64,
        verdict: &Verdict<L>,
        stats: ExploreStats,
        provenance: &Provenance,
        dedup: &[L],
    ) {
        let words = match verdict {
            Verdict::Partial {
                checkpoint: Some(handle),
                ..
            } => encode_pointer(fp, stats, provenance, handle),
            Verdict::Partial {
                checkpoint: None, ..
            } => return,
            final_verdict => match encode_final(fp, final_verdict, stats, provenance, dedup) {
                Some(words) => words,
                // A witness label outside the alphabet cannot be
                // index-coded; unreachable by construction, but an
                // uncacheable verdict beats a corrupt entry.
                None => return,
            },
        };
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let entry = Entry {
            words,
            last_used: inner.tick,
        };
        let added = entry.bytes();
        if let Some(old) = inner.entries.insert(fp, entry) {
            inner.total_bytes -= old.bytes();
        }
        inner.total_bytes += added;
        // LRU eviction to the byte budget; the entry just inserted is
        // exempt (evicting what a miss just paid for would thrash).
        while inner.total_bytes > self.byte_budget && inner.entries.len() > 1 {
            let victim = inner
                .entries
                .iter()
                .filter(|(&k, _)| k != fp)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k);
            let Some(victim) = victim else { break };
            let evicted = inner.entries.remove(&victim).expect("victim exists");
            inner.total_bytes -= evicted.bytes();
        }
        if self.dir.is_some() {
            // Persistence is best-effort: an I/O failure loses
            // durability, not correctness (the in-memory entry stands).
            let _ = self.save(&mut inner);
        }
    }

    /// Writes every entry as one new epoch (LRU order, oldest first, so
    /// a reload reconstructs the eviction order) and commits it through
    /// the checkpoint store, retaining the previous epoch as the
    /// corruption fallback. Advances the epoch counter on success only.
    fn save(&self, inner: &mut Inner) -> Result<(), CheckpointError> {
        let dir = self.dir.as_deref().expect("save requires a directory");
        let store = CheckpointStore::open(dir)?;
        let epoch = inner.epoch + 1;
        let mut writer = store.begin_epoch(epoch)?;
        writer.begin_segment(HEADER_TAG);
        writer.put_u64(HEADER_MAGIC);
        writer.put_u64(inner.entries.len() as u64);
        writer.end_segment()?;
        let mut ordered: Vec<&Entry> = inner.entries.values().collect();
        ordered.sort_by_key(|e| e.last_used);
        for entry in ordered {
            writer.begin_segment(ENTRY_TAG);
            writer.put_u64s(&entry.words);
            writer.end_segment()?;
        }
        store.commit(writer, 2)?;
        inner.epoch = epoch;
        Ok(())
    }

    /// Persists the current entries now (inserts already save
    /// eagerly; this is for callers that mutated nothing but want the
    /// epoch trail advanced, e.g. a service shutting down cleanly).
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on store I/O; memory-only caches return `Ok`.
    pub fn persist(&self) -> Result<(), CheckpointError> {
        if self.dir.is_none() {
            return Ok(());
        }
        let mut inner = self.inner.lock().expect("cache lock");
        self.save(&mut inner)
    }
}

fn provenance_of(limits: &Limits, wall_secs: f64) -> Provenance {
    Provenance {
        commit: std::env::var("STATELESS_COMMIT").unwrap_or_else(|_| "unknown".into()),
        wall_secs,
        threads: limits.threads,
        symmetry: limits.symmetry,
        max_states: limits.max_states,
        max_edges: limits.max_edges,
    }
}

// ---------------------------------------------------------------------------
// Entry encoding: a flat little-endian u64 vector, segment-framed on
// disk and held verbatim in memory (the hit path decodes exactly what a
// reload would, so memory and disk can never drift apart).
//
//   [version, fingerprint, kind,
//    states, edges, words_per_state, state_bytes, edge_bytes,     (stats)
//    wall_secs_bits, threads, symmetry, max_states, max_edges,
//    commit_len, commit_words…,                                   (provenance)
//    kind-specific payload…]
//
// KIND_NOT_STABILIZING payload: labeling_len, label_idx…,
//   schedule_steps, (step_len, node…)…,
//   adversary_steps, (pair_count, (node, label_len, label_idx…)…)…
// KIND_RESUME_POINTER payload: epoch, dir_len, dir_words…
// ---------------------------------------------------------------------------

/// The fingerprint key of a serialized entry, `None` when the record is
/// too short or version-skewed (the load path skips such entries).
fn entry_key(words: &[u64]) -> Option<u64> {
    if words.len() >= 3 && words[0] == ENTRY_VERSION {
        Some(words[1])
    } else {
        None
    }
}

fn push_str(words: &mut Vec<u64>, s: &str) {
    let bytes = s.as_bytes();
    words.push(bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        words.push(u64::from_le_bytes(word));
    }
}

fn encode_header(fp: u64, kind: u64, stats: ExploreStats, provenance: &Provenance) -> Vec<u64> {
    let mut words = vec![
        ENTRY_VERSION,
        fp,
        kind,
        stats.states as u64,
        stats.edges as u64,
        stats.words_per_state as u64,
        stats.state_bytes as u64,
        stats.edge_bytes as u64,
        provenance.wall_secs.to_bits(),
        provenance.threads as u64,
        match provenance.symmetry {
            SymmetryMode::Off => 0,
            SymmetryMode::Auto => 1,
        },
        provenance.max_states as u64,
        provenance.max_edges as u64,
    ];
    push_str(&mut words, &provenance.commit);
    words
}

fn encode_final<L: Label>(
    fp: u64,
    verdict: &Verdict<L>,
    stats: ExploreStats,
    provenance: &Provenance,
    dedup: &[L],
) -> Option<Vec<u64>> {
    let index_of = |l: &L| dedup.iter().position(|d| d == l).map(|i| i as u64);
    match verdict {
        Verdict::Stabilizing => Some(encode_header(fp, KIND_STABILIZING, stats, provenance)),
        Verdict::NotStabilizing(w) => {
            let mut words = encode_header(fp, KIND_NOT_STABILIZING, stats, provenance);
            words.push(w.labeling.len() as u64);
            for l in &w.labeling {
                words.push(index_of(l)?);
            }
            words.push(w.schedule.len() as u64);
            for step in &w.schedule {
                words.push(step.len() as u64);
                words.extend(step.iter().map(|&id| id as u64));
            }
            words.push(w.adversary.len() as u64);
            for step in &w.adversary {
                words.push(step.len() as u64);
                for (node, labels) in step {
                    words.push(*node as u64);
                    words.push(labels.len() as u64);
                    for l in labels {
                        words.push(index_of(l)?);
                    }
                }
            }
            Some(words)
        }
        Verdict::Partial { .. } => None,
    }
}

fn encode_pointer(
    fp: u64,
    stats: ExploreStats,
    provenance: &Provenance,
    handle: &CheckpointHandle,
) -> Vec<u64> {
    let mut words = encode_header(fp, KIND_RESUME_POINTER, stats, provenance);
    words.push(handle.epoch);
    push_str(&mut words, &handle.dir.to_string_lossy());
    words
}

/// A decoded entry: either a servable final verdict or a resume
/// pointer.
enum Decoded<L> {
    Final {
        verdict: Verdict<L>,
        stats: ExploreStats,
        provenance: Provenance,
    },
    Pointer {
        handle: CheckpointHandle,
    },
}

/// Cursor-based decoding over the word vector; any inconsistency —
/// short record, bad discriminant, label index past the alphabet —
/// returns `None` and the caller drops the entry (recompute, never a
/// wrong or garbled answer).
struct Cursor<'a> {
    words: &'a [u64],
    at: usize,
}

impl Cursor<'_> {
    fn take(&mut self) -> Option<u64> {
        let v = self.words.get(self.at).copied()?;
        self.at += 1;
        Some(v)
    }

    fn take_len(&mut self) -> Option<usize> {
        // An absurd length word (from a colliding or corrupt record)
        // must not drive allocation: entries are bounded by the segment
        // size, so any legitimate count fits the remaining words (at
        // most 8 payload bytes per remaining word for strings).
        let len = self.take()? as usize;
        (len <= (self.words.len() - self.at) * 8).then_some(len)
    }

    fn take_str(&mut self) -> Option<String> {
        let len = self.take_len()?;
        let mut bytes = Vec::with_capacity(len);
        for _ in 0..len.div_ceil(8) {
            bytes.extend_from_slice(&self.take()?.to_le_bytes());
        }
        bytes.truncate(len);
        String::from_utf8(bytes).ok()
    }
}

fn decode_entry<L: Label>(words: &[u64], dedup: &[L]) -> Option<Decoded<L>> {
    let mut c = Cursor { words, at: 0 };
    if c.take()? != ENTRY_VERSION {
        return None;
    }
    let _fp = c.take()?;
    let kind = c.take()?;
    let stats = ExploreStats {
        states: c.take()? as usize,
        edges: c.take()? as usize,
        words_per_state: c.take()? as usize,
        state_bytes: c.take()? as usize,
        edge_bytes: c.take()? as usize,
    };
    let wall_secs = f64::from_bits(c.take()?);
    let threads = c.take()? as usize;
    let symmetry = match c.take()? {
        0 => SymmetryMode::Off,
        1 => SymmetryMode::Auto,
        _ => return None,
    };
    let provenance = Provenance {
        max_states: c.take()? as usize,
        max_edges: c.take()? as usize,
        commit: c.take_str()?,
        wall_secs,
        threads,
        symmetry,
    };
    let label_at = |idx: u64| dedup.get(idx as usize).cloned();
    match kind {
        KIND_STABILIZING => Some(Decoded::Final {
            verdict: Verdict::Stabilizing,
            stats,
            provenance,
        }),
        KIND_NOT_STABILIZING => {
            let mut labeling = Vec::with_capacity(c.take_len()?);
            for _ in 0..labeling.capacity() {
                labeling.push(label_at(c.take()?)?);
            }
            let steps = c.take_len()?;
            let mut schedule = Vec::with_capacity(steps);
            for _ in 0..steps {
                let len = c.take_len()?;
                let mut step = Vec::with_capacity(len);
                for _ in 0..len {
                    step.push(c.take()? as NodeId);
                }
                schedule.push(step);
            }
            let steps = c.take_len()?;
            let mut adversary = Vec::with_capacity(steps);
            for _ in 0..steps {
                let pairs = c.take_len()?;
                let mut step = Vec::with_capacity(pairs);
                for _ in 0..pairs {
                    let node = c.take()? as NodeId;
                    let len = c.take_len()?;
                    let mut labels = Vec::with_capacity(len);
                    for _ in 0..len {
                        labels.push(label_at(c.take()?)?);
                    }
                    step.push((node, labels));
                }
                adversary.push(step);
            }
            Some(Decoded::Final {
                verdict: Verdict::NotStabilizing(CycleWitness {
                    labeling,
                    schedule,
                    adversary,
                }),
                stats,
                provenance,
            })
        }
        KIND_RESUME_POINTER => {
            let epoch = c.take()?;
            let dir = PathBuf::from(c.take_str()?);
            Some(Decoded::Pointer {
                handle: CheckpointHandle { dir, epoch },
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> ExploreStats {
        ExploreStats {
            states: 6561,
            edges: 98415,
            words_per_state: 2,
            state_bytes: 104_976,
            edge_bytes: 4096,
        }
    }

    fn sample_provenance() -> Provenance {
        Provenance {
            commit: "abc123def".into(),
            wall_secs: 0.125,
            threads: 4,
            symmetry: SymmetryMode::Auto,
            max_states: 1_000_000,
            max_edges: 1 << 30,
        }
    }

    #[test]
    fn witness_entries_round_trip_bit_identically() {
        let alphabet = vec![10u64, 20, 30];
        let verdict: Verdict<u64> = Verdict::NotStabilizing(CycleWitness {
            labeling: vec![30, 10, 10, 20],
            schedule: vec![vec![0, 2], vec![1]],
            adversary: vec![vec![(2, vec![20, 20])], vec![]],
        });
        let words = encode_final(
            0xfeed,
            &verdict,
            sample_stats(),
            &sample_provenance(),
            &alphabet,
        )
        .unwrap();
        assert_eq!(entry_key(&words), Some(0xfeed));
        match decode_entry::<u64>(&words, &alphabet).unwrap() {
            Decoded::Final {
                verdict: got,
                stats,
                provenance,
            } => {
                assert_eq!(got, verdict);
                assert_eq!(stats, sample_stats());
                assert_eq!(provenance, sample_provenance());
            }
            Decoded::Pointer { .. } => panic!("decoded a pointer from a final entry"),
        }
    }

    #[test]
    fn pointer_entries_round_trip() {
        let handle = CheckpointHandle {
            dir: PathBuf::from("/tmp/some dir/with spaces"),
            epoch: 17,
        };
        let words = encode_pointer(0xbead, sample_stats(), &sample_provenance(), &handle);
        match decode_entry::<bool>(&words, &[false, true]).unwrap() {
            Decoded::Pointer { handle: got } => assert_eq!(got, handle),
            Decoded::Final { .. } => panic!("decoded a final from a pointer entry"),
        }
    }

    #[test]
    fn malformed_entries_decode_to_none() {
        let alphabet = vec![false, true];
        let verdict: Verdict<bool> = Verdict::NotStabilizing(CycleWitness {
            labeling: vec![true, false],
            schedule: vec![vec![0]],
            adversary: vec![vec![]],
        });
        let words =
            encode_final(1, &verdict, sample_stats(), &sample_provenance(), &alphabet).unwrap();
        // Truncations at every prefix length must fail cleanly.
        for cut in 0..words.len() {
            assert!(
                decode_entry::<bool>(&words[..cut], &alphabet).is_none(),
                "prefix of {cut} words decoded"
            );
        }
        // A label index past the alphabet is rejected, not wrapped.
        // Header layout: 13 fixed words + commit string (len word +
        // ceil(9/8) = 2 payload words), so the labeling length sits at
        // word 16 and the first label index at word 17.
        let mut bad = words.clone();
        assert_eq!(bad[16], 2, "labeling length where expected");
        bad[17] = 99;
        assert!(decode_entry::<bool>(&bad, &alphabet).is_none());
        // Version skew is rejected up front (and skipped at load).
        let mut skewed = words;
        skewed[0] = ENTRY_VERSION + 1;
        assert!(decode_entry::<bool>(&skewed, &alphabet).is_none());
        assert_eq!(entry_key(&skewed), None);
    }

    #[test]
    fn strings_round_trip_at_every_chunk_boundary() {
        for len in 0..=17 {
            let s: String = "abcdefghijklmnopq".chars().take(len).collect();
            let mut words = Vec::new();
            push_str(&mut words, &s);
            let mut c = Cursor {
                words: &words,
                at: 0,
            };
            assert_eq!(c.take_str().as_deref(), Some(s.as_str()), "len {len}");
            assert_eq!(c.at, words.len(), "len {len} consumed exactly");
        }
    }
}
