//! Memoized verdict cache suite: a hit must be bit-identical to the
//! computing run's `{verdict, witness, stats}` no matter which thread
//! count either side used (it is excluded from the cache key by
//! design); a [`Verdict::Partial`] must never be served as
//! a final answer — it is stored as a resume pointer, so a later query
//! with a longer (or no) deadline *continues* the exploration; a
//! corrupt persisted cache must degrade to recomputation, never a wrong
//! answer; and LRU eviction must respect the byte budget.

use std::path::PathBuf;
use std::time::Duration;

use stateless_computation::core::prelude::*;
use stateless_computation::verify::cache::DEFAULT_BYTE_BUDGET;
use stateless_computation::verify::{
    verify_label_stabilization_with_stats, CacheOutcome, CheckpointPolicy, Limits, SymmetryMode,
    Verdict, VerdictCache,
};

/// Thread counts the hit-equality matrix runs at (mirrors the
/// differential suite): `1`, `2`, `4`, plus `STATELESS_TEST_THREADS`.
fn test_threads() -> Vec<usize> {
    let mut counts = vec![1, 2, 4];
    if let Some(n) = std::env::var("STATELESS_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        if !counts.contains(&n) {
            counts.push(n);
        }
    }
    counts
}

/// A fresh, empty scratch directory unique to this process and test.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "stateless-cache-test-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The non-stabilizing rotation ring (every node copies its
/// predecessor) — its `NotStabilizing` witness exercises the full
/// labeling/schedule/adversary encoding of a cache entry.
fn rotate_ring(n: usize) -> Protocol<bool> {
    Protocol::builder(topology::unidirectional_ring(n), 1.0)
        .uniform_reaction(FnReaction::new(|_, inc: &[bool], _| (vec![inc[0]], 42)))
        .build()
        .unwrap()
}

/// A stabilizing twin: every node emits a constant, so the ring settles
/// in one round and the cached verdict is a plain `Stabilizing`.
fn const_ring(n: usize) -> Protocol<bool> {
    Protocol::builder(topology::unidirectional_ring(n), 1.0)
        .uniform_reaction(FnReaction::new(|_, _: &[bool], _| (vec![false], 7)))
        .build()
        .unwrap()
}

/// The key property of the cache key: the thread count is **excluded**
/// from the instance fingerprint, so one cold computation serves every
/// thread count — bit-identically, witness and stats included. Symmetry mode is *in* the key, so each
/// mode gets its own cold run and its own entry.
#[test]
fn hits_are_bit_identical_across_threads_backends_and_symmetry() {
    let witnessed = rotate_ring(4);
    let settling = const_ring(4);
    let inputs = [0u64; 4];
    let alphabet = [false, true];
    let r = 2;
    for (name, protocol) in [("rotate", &witnessed), ("const", &settling)] {
        let cache = VerdictCache::in_memory(DEFAULT_BYTE_BUDGET);
        for symmetry in [SymmetryMode::Off, SymmetryMode::Auto] {
            let base = Limits {
                symmetry,
                ..Limits::default()
            };
            let reference = verify_label_stabilization_with_stats(
                protocol,
                &inputs,
                &alphabet,
                r,
                base.clone(),
            )
            .unwrap();
            let cold = cache
                .verify_label(protocol, &inputs, &alphabet, r, &base)
                .unwrap();
            assert_eq!(cold.outcome, CacheOutcome::Miss, "{name} {symmetry:?}");
            assert_eq!((cold.verdict.clone(), cold.stats), reference, "{name}");
            for threads in test_threads() {
                let hit = cache
                    .verify_label(
                        protocol,
                        &inputs,
                        &alphabet,
                        r,
                        &Limits {
                            threads,
                            symmetry,
                            ..Limits::default()
                        },
                    )
                    .unwrap();
                assert_eq!(
                    hit.outcome,
                    CacheOutcome::Hit,
                    "{name} {symmetry:?} t={threads}"
                );
                assert_eq!(
                    (hit.verdict, hit.stats),
                    reference,
                    "{name} {symmetry:?} t={threads}: hit must be bit-identical"
                );
                assert_eq!(hit.fingerprint, cold.fingerprint);
            }
        }
        // Two symmetry modes ⇒ two distinct entries.
        assert_eq!(cache.len(), 2, "{name}");
    }
}

/// The `Partial` contract: a deadline-truncated run is memoized only as
/// a resume pointer — a repeat query is `Resumed` (the exploration
/// continues from the checkpoint epoch and completes under the longer
/// deadline, bit-identical to an uninterrupted run), and only *then* is
/// the final verdict memoized, making a third query a plain `Hit`.
#[test]
fn partial_is_never_served_as_final_and_resumes_instead() {
    let p = rotate_ring(4);
    let inputs = [0u64; 4];
    let alphabet = [false, true];
    let r = 3;
    let ckpt = scratch_dir("partial-ckpt");
    let reference =
        verify_label_stabilization_with_stats(&p, &inputs, &alphabet, r, Limits::default())
            .unwrap();
    let cache = VerdictCache::in_memory(DEFAULT_BYTE_BUDGET);
    let truncated = cache
        .verify_label(
            &p,
            &inputs,
            &alphabet,
            r,
            &Limits {
                deadline: Some(Duration::from_nanos(1)),
                checkpoint: Some(CheckpointPolicy::new(&ckpt)),
                ..Limits::default()
            },
        )
        .unwrap();
    assert_eq!(truncated.outcome, CacheOutcome::Miss);
    assert!(
        matches!(
            truncated.verdict,
            Verdict::Partial {
                checkpoint: Some(_),
                ..
            }
        ),
        "a 1 ns deadline must truncate, got {:?}",
        truncated.verdict
    );
    assert_eq!(cache.len(), 1, "the pointer is memoized");
    // The repeat query carries no deadline: it must RESUME the stored
    // checkpoint — never be handed the Partial as if it were final.
    let resumed = cache
        .verify_label(&p, &inputs, &alphabet, r, &Limits::default())
        .unwrap();
    assert_eq!(resumed.outcome, CacheOutcome::Resumed);
    assert_eq!(
        (resumed.verdict, resumed.stats),
        reference,
        "resumed completion is bit-identical to an uninterrupted run"
    );
    let hit = cache
        .verify_label(&p, &inputs, &alphabet, r, &Limits::default())
        .unwrap();
    assert_eq!(hit.outcome, CacheOutcome::Hit, "completion was memoized");
    assert_eq!((hit.verdict, hit.stats), reference);
    let _ = std::fs::remove_dir_all(&ckpt);
}

/// A stale resume pointer (its checkpoint directory deleted) degrades
/// to a plain recomputation — still the right verdict, reported as the
/// `Miss` it effectively was.
#[test]
fn dead_resume_pointers_degrade_to_recompute() {
    let p = rotate_ring(4);
    let inputs = [0u64; 4];
    let alphabet = [false, true];
    let r = 3;
    let ckpt = scratch_dir("dead-pointer-ckpt");
    let reference =
        verify_label_stabilization_with_stats(&p, &inputs, &alphabet, r, Limits::default())
            .unwrap();
    let cache = VerdictCache::in_memory(DEFAULT_BYTE_BUDGET);
    let truncated = cache
        .verify_label(
            &p,
            &inputs,
            &alphabet,
            r,
            &Limits {
                deadline: Some(Duration::from_nanos(1)),
                checkpoint: Some(CheckpointPolicy::new(&ckpt)),
                ..Limits::default()
            },
        )
        .unwrap();
    assert!(matches!(truncated.verdict, Verdict::Partial { .. }));
    std::fs::remove_dir_all(&ckpt).unwrap();
    let recomputed = cache
        .verify_label(&p, &inputs, &alphabet, r, &Limits::default())
        .unwrap();
    assert_eq!(recomputed.outcome, CacheOutcome::Miss);
    assert_eq!((recomputed.verdict, recomputed.stats), reference);
}

/// Corrupt persisted entries are skipped, never trusted: flipping bytes
/// in every epoch file leaves a reopened cache empty (or falls back to
/// a still-valid epoch when only the newest is torn), the next query
/// recomputes the correct verdict, and the store heals itself.
#[test]
fn corrupt_cache_files_recompute_instead_of_serving_garbage() {
    let p = rotate_ring(4);
    let inputs = [0u64; 4];
    let alphabet = [false, true];
    let r = 2;
    let dir = scratch_dir("corrupt-cache");
    let reference =
        verify_label_stabilization_with_stats(&p, &inputs, &alphabet, r, Limits::default())
            .unwrap();
    {
        let cache = VerdictCache::open(&dir, DEFAULT_BYTE_BUDGET).unwrap();
        let cold = cache
            .verify_label(&p, &inputs, &alphabet, r, &Limits::default())
            .unwrap();
        assert_eq!(cold.outcome, CacheOutcome::Miss);
    }
    // A clean reopen serves a hit from disk.
    {
        let cache = VerdictCache::open(&dir, DEFAULT_BYTE_BUDGET).unwrap();
        let hit = cache
            .verify_label(&p, &inputs, &alphabet, r, &Limits::default())
            .unwrap();
        assert_eq!(hit.outcome, CacheOutcome::Hit, "reload from disk");
        assert_eq!((hit.verdict, hit.stats), reference);
    }
    // Corrupt EVERY epoch file: the checksummed framing must reject
    // them all and the reopened cache recomputes from scratch.
    let mut flipped = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "ckpt") {
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            std::fs::write(&path, bytes).unwrap();
            flipped += 1;
        }
    }
    assert!(flipped > 0, "the cache must have persisted epoch files");
    {
        let cache = VerdictCache::open(&dir, DEFAULT_BYTE_BUDGET).unwrap();
        assert!(cache.is_empty(), "corrupt epochs must load nothing");
        let recomputed = cache
            .verify_label(&p, &inputs, &alphabet, r, &Limits::default())
            .unwrap();
        assert_eq!(recomputed.outcome, CacheOutcome::Miss);
        assert_eq!(
            (recomputed.verdict, recomputed.stats),
            reference,
            "recomputation after corruption is still exact"
        );
    }
    // The recomputation re-persisted: a final reopen hits again.
    {
        let cache = VerdictCache::open(&dir, DEFAULT_BYTE_BUDGET).unwrap();
        let hit = cache
            .verify_label(&p, &inputs, &alphabet, r, &Limits::default())
            .unwrap();
        assert_eq!(hit.outcome, CacheOutcome::Hit, "store healed itself");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// LRU eviction under the byte budget: distinct instances (the input
/// vector is part of the fingerprint) fill a deliberately small cache;
/// the oldest entries fall out — re-querying them is a `Miss` — while
/// the most recent stays a `Hit`, and `total_bytes` never exceeds the
/// budget once more than one entry is involved.
#[test]
fn eviction_respects_the_byte_budget_lru_first() {
    let p = rotate_ring(3);
    let alphabet = [false, true];
    let r = 1;
    // Size one entry, then budget for about two of them.
    let probe = VerdictCache::in_memory(DEFAULT_BYTE_BUDGET);
    probe
        .verify_label(&p, &[0, 0, 0], &alphabet, r, &Limits::default())
        .unwrap();
    let entry_bytes = probe.total_bytes();
    assert!(entry_bytes > 0);
    let budget = entry_bytes * 2 + entry_bytes / 2;
    let cache = VerdictCache::in_memory(budget);
    let inputs_of = |k: u64| [k, k + 1, k + 2];
    for k in 0..4u64 {
        let miss = cache
            .verify_label(&p, &inputs_of(k), &alphabet, r, &Limits::default())
            .unwrap();
        assert_eq!(miss.outcome, CacheOutcome::Miss, "instance {k} is fresh");
        assert!(
            cache.total_bytes() <= budget,
            "after instance {k}: {} bytes exceeds the {budget} budget",
            cache.total_bytes()
        );
    }
    assert!(
        cache.len() < 4,
        "four entries cannot fit a two-entry budget"
    );
    // The newest instance survived; the oldest was evicted LRU-first.
    let newest = cache
        .verify_label(&p, &inputs_of(3), &alphabet, r, &Limits::default())
        .unwrap();
    assert_eq!(newest.outcome, CacheOutcome::Hit);
    let oldest = cache
        .verify_label(&p, &inputs_of(0), &alphabet, r, &Limits::default())
        .unwrap();
    assert_eq!(oldest.outcome, CacheOutcome::Miss, "evicted LRU-first");
}

/// A cache shared by the cached sweep drivers: the second sweep over
/// the same instance set is pure hits, and its rows (verdicts and
/// witnesses) are identical to the cold sweep's and to the uncached
/// driver's.
#[test]
fn cached_sweeps_warm_to_pure_hits_with_identical_rows() {
    use stateless_computation::protocols::bfs_tree::{bfs_alphabet, bfs_tree_protocol};
    use stateless_computation::verify::{
        sweep_byzantine_placements, sweep_byzantine_placements_cached,
    };
    let p = bfs_tree_protocol(topology::bidirectional_ring(4), 0, 2, FaultModel::none()).unwrap();
    let inputs = vec![0u64; 4];
    let alphabet = bfs_alphabet(2);
    let plain =
        sweep_byzantine_placements(&p, &inputs, &alphabet, 1, Limits::default(), 1, &[]).unwrap();
    let cache = VerdictCache::in_memory(DEFAULT_BYTE_BUDGET);
    let cold = sweep_byzantine_placements_cached(
        &p,
        &inputs,
        &alphabet,
        1,
        Limits::default(),
        1,
        &[],
        &cache,
    )
    .unwrap();
    assert_eq!(cold.len(), plain.len());
    assert!(cold.iter().all(|row| row.cache == CacheOutcome::Miss));
    let warm = sweep_byzantine_placements_cached(
        &p,
        &inputs,
        &alphabet,
        1,
        Limits::default(),
        1,
        &[],
        &cache,
    )
    .unwrap();
    assert!(
        warm.iter().all(|row| row.cache == CacheOutcome::Hit),
        "warm sweep must be pure hits"
    );
    for ((plain_row, cold_row), warm_row) in plain.iter().zip(&cold).zip(&warm) {
        assert_eq!(plain_row.placement, cold_row.placement);
        assert_eq!(plain_row.verdict, cold_row.verdict, "cold matches uncached");
        assert_eq!(cold_row.placement, warm_row.placement);
        assert_eq!(cold_row.verdict, warm_row.verdict, "hit matches cold");
        assert_eq!(cold_row.stats, warm_row.stats);
    }
}

/// A two-node ring over `0..16` whose node 0 emits 0 and whose node 1
/// answers 0 with `a` and anything else with 0. It settles at
/// `(0, a)`. With `flip`, node 0 answers `a` with 1 instead: that one
/// table entry turns the ring into an inverter loop with no fixed point.
fn inverter_ring(a: u64, flip: bool) -> Protocol<u64> {
    Protocol::builder(topology::unidirectional_ring(2), 4.0)
        .reaction(
            0,
            FnReaction::new(move |_, inc: &[u64], _| (vec![u64::from(flip && inc[0] == a)], 0)),
        )
        .reaction(
            1,
            FnReaction::new(move |_, inc: &[u64], _| (vec![if inc[0] == 0 { a } else { 0 }], 0)),
        )
        .build()
        .unwrap()
}

#[test]
fn a_one_entry_change_gets_its_own_verdict() {
    // Each perturbed table differs from its base in one entry only. The
    // key digests every entry of a table this small, so the base's
    // cached `Stabilizing` must never answer for the perturbed twin.
    let alphabet: Vec<u64> = (0..16).collect();
    let cache = VerdictCache::in_memory(DEFAULT_BYTE_BUDGET);
    for a in 1..16 {
        let base = cache
            .verify_label(
                &inverter_ring(a, false),
                &[0; 2],
                &alphabet,
                2,
                &Limits::default(),
            )
            .unwrap();
        assert_eq!(base.verdict, Verdict::Stabilizing, "a = {a}");
        let flipped = cache
            .verify_label(
                &inverter_ring(a, true),
                &[0; 2],
                &alphabet,
                2,
                &Limits::default(),
            )
            .unwrap();
        assert_ne!(flipped.fingerprint, base.fingerprint, "a = {a}");
        assert_eq!(flipped.outcome, CacheOutcome::Miss, "a = {a}");
        assert!(
            matches!(flipped.verdict, Verdict::NotStabilizing(_)),
            "a = {a}: {:?}",
            flipped.verdict
        );
    }
}
