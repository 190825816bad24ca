//! Damaged epoch files, at random: truncating a checkpoint epoch or a
//! `VerdictCache` epoch at any byte, or flipping any bit of one, must end
//! in a typed error, a fallback to the previous valid epoch, or a cache
//! entry that is recomputed — never a panic, a wrong verdict, or an
//! allocation sized from a damaged length field. Segment lengths are
//! capped by `MAX_SEGMENT_BYTES` and by the bytes left in the file, and
//! the counts inside a segment by the bytes left after them, so no
//! allocation made while reading an epoch outgrows the file. A
//! peak-request allocator checks that: per thread, so the harness's own
//! threads never count, it records the largest single request.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use proptest::prelude::*;
use stateless_computation::core::checkpoint::CheckpointStore;
use stateless_computation::core::prelude::*;
use stateless_computation::verify::cache::DEFAULT_BYTE_BUDGET;
use stateless_computation::verify::{
    verify_label_stabilization_resumed, verify_label_stabilization_resumed_at,
    verify_label_stabilization_with_stats, CacheOutcome, CheckpointPolicy, ExploreStats, Limits,
    ResumeError, Verdict, VerdictCache, VerifyError,
};

struct PeakRequest;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the thread-local cell is a plain statistic and allocates nothing.
unsafe impl GlobalAlloc for PeakRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        PEAK.with(|p| p.set(p.get().max(layout.size())));
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        PEAK.with(|p| p.set(p.get().max(new_size)));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: PeakRequest = PeakRequest;

/// Runs `f` and returns its result with the largest single allocation
/// this thread requested meanwhile.
fn peak_request<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|p| p.set(0));
    let t = f();
    (t, PEAK.with(Cell::get))
}

/// A bound on the largest request reading a store of these small
/// instances needs apart from the file's own bytes (16 KiB when
/// measured), with room to spare. A damaged file of `len` bytes may
/// justify up to `len`.
const FLOOR_BYTES: usize = 64 << 10;

/// `bytes` damaged by `mode`: 0 truncates it to `pos % (len + 1)`
/// bytes; 1 flips bit `bit % 8` of byte `pos % len`; 2 flips bit
/// `bit % 32` of the length field of frame `pos % frames` (a frame is a
/// 4-byte tag, an 8-byte length, an 8-byte checksum, then the payload),
/// inflating it by up to 2^31 — the random flips of mode 1 rarely land
/// there, and larger values overshoot `MAX_SEGMENT_BYTES`.
fn damage(bytes: &[u8], mode: u8, pos: usize, bit: u32) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match mode {
        0 => out.truncate(pos % (bytes.len() + 1)),
        1 => out[pos % bytes.len()] ^= 1 << (bit % 8),
        _ => {
            let mut frames = Vec::new();
            let mut at = 0;
            while at + 20 <= bytes.len() {
                frames.push(at);
                let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap());
                at += 20 + len as usize;
            }
            let field = frames[pos % frames.len()] + 4;
            let len = u64::from_le_bytes(out[field..field + 8].try_into().unwrap());
            out[field..field + 8].copy_from_slice(&(len ^ 1 << (bit % 32)).to_le_bytes());
        }
    }
    out
}

fn rotate_ring(n: usize) -> Protocol<bool> {
    Protocol::builder(topology::unidirectional_ring(n), 1.0)
        .uniform_reaction(FnReaction::new(|_, inc: &[bool], _| (vec![inc[0]], 42)))
        .build()
        .unwrap()
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "stateless-damage-test-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const INPUTS: [u64; 4] = [0; 4];
const ALPHABET: [bool; 2] = [false, true];
const R: u8 = 3;

fn one_thread() -> Limits {
    Limits {
        threads: 1,
        ..Limits::default()
    }
}

/// A verification's verdict and stats.
type Answer = (Verdict<bool>, ExploreStats);

/// A checkpointed run of the rotation ring that leaves one epoch per
/// batch: its result, its store, and the newest epoch's number. Each
/// case builds its own, so no store outlives its case.
fn checkpoint_fixture() -> (Answer, PathBuf, u64) {
    let dir = scratch_dir("checkpoint");
    let limits = Limits {
        checkpoint: Some(CheckpointPolicy {
            every_states: Some(1),
            retain: usize::MAX,
            ..CheckpointPolicy::new(&dir)
        }),
        ..one_thread()
    };
    let clean =
        verify_label_stabilization_with_stats(&rotate_ring(4), &INPUTS, &ALPHABET, R, limits)
            .unwrap();
    let epochs = CheckpointStore::open(&dir).unwrap().epochs().unwrap();
    assert!(epochs.len() >= 2, "need a fallback epoch, got {epochs:?}");
    (clean, dir, *epochs.last().unwrap())
}

/// A cache store holding two instances saved one after the other, so it
/// has a one-entry epoch and, newest, a two-entry one: each instance's
/// inputs and reference result, the store, and the newest epoch's path.
fn cache_fixture() -> (Vec<([u64; 4], Answer)>, PathBuf, PathBuf) {
    let dir = scratch_dir("cache");
    let cache = VerdictCache::open(&dir, DEFAULT_BYTE_BUDGET).unwrap();
    let reference = [[0u64; 4], [1u64; 4]]
        .into_iter()
        .map(|inputs| {
            let got = cache
                .verify_label(&rotate_ring(4), &inputs, &ALPHABET, R, &one_thread())
                .unwrap();
            (inputs, (got.verdict, got.stats))
        })
        .collect();
    let store = CheckpointStore::open(&dir).unwrap();
    let newest = store.epoch_path(*store.epochs().unwrap().last().unwrap());
    (reference, dir, newest)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Resuming the damaged newest epoch by number is a typed error.
    /// Resuming the newest valid one falls back to the epoch before and
    /// reproduces the clean run, unless a truncation fell exactly on a
    /// segment boundary: then every frame still checks out, and the
    /// explorer finds the epoch incomplete, a typed error again.
    #[test]
    fn damaged_checkpoint_epochs_fail_typed_or_fall_back(
        mode in 0u8..3,
        pos in 0usize..1_000_000,
        bit in 0u32..64,
    ) {
        let (clean, dir, newest) = checkpoint_fixture();
        let path = CheckpointStore::open(&dir).unwrap().epoch_path(newest);
        let damaged = damage(&std::fs::read(&path).unwrap(), mode, pos, bit);
        std::fs::write(&path, &damaged).unwrap();
        let p = rotate_ring(4);
        let (explicit, peak) = peak_request(|| {
            verify_label_stabilization_resumed_at(
                &p, &INPUTS, &ALPHABET, R, one_thread(), &dir, Some(newest),
            )
        });
        prop_assert!(
            matches!(
                explicit,
                Err(VerifyError::Resume(ResumeError::Corrupt { .. } | ResumeError::Io { .. }))
            ),
            "explicit newest epoch: {explicit:?}"
        );
        prop_assert!(peak <= FLOOR_BYTES.max(damaged.len()), "peak request {peak} B");
        let (newest_valid, peak) = peak_request(|| {
            verify_label_stabilization_resumed(&p, &INPUTS, &ALPHABET, R, one_thread(), &dir)
        });
        match newest_valid {
            Ok(resumed) => prop_assert_eq!(resumed, clean),
            Err(e) => prop_assert!(
                matches!(e, VerifyError::Resume(ResumeError::Corrupt { .. })),
                "newest valid epoch: {e}"
            ),
        }
        prop_assert!(peak <= FLOOR_BYTES.max(damaged.len()), "peak request {peak} B");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A cache whose newest epoch is damaged still opens, loading the
    /// previous epoch (or the frames of the newest that still check
    /// out), and answers every query with the reference result: a hit
    /// when the entry survived, a recomputed miss when it did not.
    #[test]
    fn damaged_cache_epochs_lose_entries_never_answers(
        mode in 0u8..3,
        pos in 0usize..1_000_000,
        bit in 0u32..64,
    ) {
        let (reference, dir, newest) = cache_fixture();
        let damaged = damage(&std::fs::read(&newest).unwrap(), mode, pos, bit);
        std::fs::write(&newest, &damaged).unwrap();
        let (cache, peak) = peak_request(|| VerdictCache::open(&dir, DEFAULT_BYTE_BUDGET));
        let cache = cache.expect("damage never fails an open");
        prop_assert!(peak <= FLOOR_BYTES.max(damaged.len()), "peak request {peak} B");
        prop_assert!(cache.len() <= reference.len());
        for (inputs, reference) in &reference {
            let got = cache
                .verify_label(&rotate_ring(4), inputs, &ALPHABET, R, &one_thread())
                .unwrap();
            prop_assert!(
                matches!(got.outcome, CacheOutcome::Hit | CacheOutcome::Miss),
                "{:?}",
                got.outcome
            );
            prop_assert_eq!(&(got.verdict, got.stats), reference);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
