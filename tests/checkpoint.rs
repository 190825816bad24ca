//! Crash-safe verification suite: checkpointed explorations must resume
//! from **any** epoch — at any thread count, with symmetry quotienting
//! on or off — to verdicts, witnesses, and
//! stats bit-identical to an uninterrupted run; a corrupted newest epoch
//! must fall back to the previous one; a mismatched instance must be the
//! typed [`ResumeError::InstanceMismatch`], never a silent wrong answer;
//! a [`Limits::deadline`] must degrade gracefully to a resumable
//! [`Verdict::Partial`]; meaningless policies and instances over the
//! state budget are rejected up front; and a panicking reaction is
//! isolated (its tabulation retried once, then the typed
//! [`VerifyError::PoisonedChunk`]).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use stateless_computation::core::checkpoint::CheckpointStore;
use stateless_computation::core::graph::DiGraph;
use stateless_computation::core::prelude::*;
use stateless_computation::protocols::bfs_tree::{bfs_alphabet, bfs_tree_protocol};
use stateless_computation::verify::cache::DEFAULT_BYTE_BUDGET;
use stateless_computation::verify::{
    sweep_byzantine_placements, sweep_crash_placements_cached, verify_label_stabilization,
    verify_label_stabilization_naive, verify_label_stabilization_resumed,
    verify_label_stabilization_resumed_at, verify_label_stabilization_with_stats,
    verify_output_stabilization, verify_output_stabilization_naive,
    verify_output_stabilization_resumed, verify_output_stabilization_with_stats, CheckpointPolicy,
    ExploreStats, Limits, ResumeError, SymmetryMode, Verdict, VerdictCache, VerifyError,
};

/// Thread counts the resume-equality matrix runs at (mirrors the
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
    let dir =
        std::env::temp_dir().join(format!("stateless-ckpt-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The non-stabilizing rotation ring (every node copies its
/// predecessor): node-uniform, so `SymmetryMode::Auto` derives a
/// nontrivial group, and large enough at `r = 3` to take several expand
/// batches — i.e. several checkpoint epochs at `every_states: Some(1)`.
fn rotate_ring(n: usize) -> Protocol<bool> {
    Protocol::builder(topology::unidirectional_ring(n), 1.0)
        .uniform_reaction(FnReaction::new(|_, inc: &[bool], _| (vec![inc[0]], 42)))
        .build()
        .unwrap()
}

/// A checkpoint-every-batch policy with effectively unbounded retention,
/// so the resume matrix can replay from *every* epoch.
fn every_batch(dir: &std::path::Path) -> CheckpointPolicy {
    CheckpointPolicy {
        every_states: Some(1),
        retain: usize::MAX,
        ..CheckpointPolicy::new(dir)
    }
}

/// The tentpole acceptance test: a checkpointed run leaves a trail of
/// epochs, and resuming from **each** of them — across thread counts
/// and symmetry modes — reproduces the uninterrupted
/// run's verdict, witness, and stats bit for bit.
#[test]
fn resume_from_every_epoch_is_bit_identical() {
    let p = rotate_ring(4);
    let inputs = [0u64; 4];
    let alphabet = [false, true];
    let r = 3;
    for symmetry in [SymmetryMode::Off, SymmetryMode::Auto] {
        let dir = scratch_dir(&format!("every-epoch-{symmetry:?}"));
        let limits = Limits {
            symmetry,
            checkpoint: Some(every_batch(&dir)),
            ..Limits::default()
        };
        let clean =
            verify_label_stabilization_with_stats(&p, &inputs, &alphabet, r, limits.clone())
                .unwrap();
        assert!(
            matches!(clean.0, Verdict::NotStabilizing(_)),
            "rotation never label-stabilizes"
        );
        let epochs = CheckpointStore::open(&dir).unwrap().epochs().unwrap();
        assert!(
            epochs.len() >= 2,
            "every-batch policy must leave a multi-epoch trail, got {epochs:?}"
        );
        for &epoch in &epochs {
            for threads in test_threads() {
                let resumed = verify_label_stabilization_resumed_at(
                    &p,
                    &inputs,
                    &alphabet,
                    r,
                    Limits {
                        threads,
                        checkpoint: None,
                        ..limits.clone()
                    },
                    &dir,
                    Some(epoch),
                )
                .unwrap();
                assert_eq!(
                    clean, resumed,
                    "epoch {epoch}, {threads} threads, {symmetry:?}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The output-stabilization twin resumes too (its checkpoints carry the
/// auxiliary output rows, and its instance fingerprint differs from the
/// label mode's). The n = 5 ring's 864 states span two row segments and
/// four aux segments in an epoch, so resume re-interns states across
/// segment boundaries of both kinds.
#[test]
fn output_mode_resumes_to_identical_verdicts() {
    let alphabet = [false, true];
    for (n, r) in [(3, 3), (5, 2)] {
        let p = rotate_ring(n);
        let inputs = vec![0u64; n];
        let dir = scratch_dir(&format!("output-mode-{n}"));
        let limits = Limits {
            checkpoint: Some(every_batch(&dir)),
            ..Limits::default()
        };
        let clean =
            verify_output_stabilization_with_stats(&p, &inputs, &alphabet, r, limits.clone())
                .unwrap();
        assert!(clean.0.is_stabilizing(), "constant outputs converge");
        let resumed = verify_output_stabilization_resumed(
            &p,
            &inputs,
            &alphabet,
            r,
            Limits {
                threads: 4,
                checkpoint: None,
                ..Limits::default()
            },
            &dir,
        )
        .unwrap();
        assert_eq!(clean, resumed, "n = {n}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A tiny deadline degrades gracefully: [`Verdict::Partial`] with the
/// interned-state count, the unexpanded frontier, and a checkpoint
/// handle naming the epoch that was flushed on the way out — and that
/// handle resumes to the uninterrupted run's exact verdict.
#[test]
fn deadline_yields_resumable_partial_verdict() {
    let p = rotate_ring(4);
    let inputs = [0u64; 4];
    let alphabet = [false, true];
    let dir = scratch_dir("deadline");
    let clean = verify_label_stabilization_with_stats(&p, &inputs, &alphabet, 3, Limits::default())
        .unwrap();
    let (partial, stats) = verify_label_stabilization_with_stats(
        &p,
        &inputs,
        &alphabet,
        3,
        Limits {
            deadline: Some(Duration::from_nanos(1)),
            checkpoint: Some(CheckpointPolicy::new(&dir)),
            ..Limits::default()
        },
    )
    .unwrap();
    let Verdict::Partial {
        states_explored,
        frontier_len,
        checkpoint,
    } = partial
    else {
        panic!("a 1 ns deadline must truncate the exploration, got {partial:?}")
    };
    assert!(!Verdict::<bool>::Partial {
        states_explored,
        frontier_len,
        checkpoint: checkpoint.clone()
    }
    .is_stabilizing());
    assert_eq!(states_explored, stats.states);
    assert!(frontier_len > 0, "nothing was expanded before the deadline");
    let handle = checkpoint.expect("a checkpoint policy was set");
    assert_eq!(handle.dir, dir);
    let resumed =
        verify_label_stabilization_resumed(&p, &inputs, &alphabet, 3, Limits::default(), &dir)
            .unwrap();
    assert_eq!(clean, resumed, "resume after deadline truncation");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The deadline clock starts before the seed phase, so a budget the
/// seeds alone exhaust truncates before any state is expanded: seeding
/// the 2^16 labelings of the n = 16 ring outlasts 0.2 ms.
#[test]
fn a_deadline_shorter_than_seeding_expands_nothing() {
    let v = verify_label_stabilization(
        &rotate_ring(16),
        &[0u64; 16],
        &[false, true],
        2,
        Limits {
            deadline: Some(Duration::from_micros(200)),
            ..Limits::default()
        },
    )
    .unwrap();
    let Verdict::Partial {
        states_explored,
        frontier_len,
        ..
    } = v
    else {
        panic!("a 0.2 ms deadline must truncate the exploration, got {v:?}")
    };
    assert_eq!(frontier_len, states_explored, "no state was expanded");
}

/// Flipping one byte in the newest epoch file must not poison resume:
/// the store falls back to the previous (still-valid) epoch, and the
/// resumed verdict is still bit-identical. Explicitly requesting the
/// corrupted epoch is a typed error.
#[test]
fn corrupted_newest_epoch_falls_back_to_previous() {
    let p = rotate_ring(4);
    let inputs = [0u64; 4];
    let alphabet = [false, true];
    let dir = scratch_dir("corrupt");
    let limits = Limits {
        checkpoint: Some(every_batch(&dir)),
        ..Limits::default()
    };
    let clean =
        verify_label_stabilization_with_stats(&p, &inputs, &alphabet, 3, limits.clone()).unwrap();
    let store = CheckpointStore::open(&dir).unwrap();
    let epochs = store.epochs().unwrap();
    assert!(epochs.len() >= 2, "need a fallback epoch, got {epochs:?}");
    let newest = *epochs.last().unwrap();
    let path = store.epoch_path(newest);
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&path, bytes).unwrap();
    assert_eq!(
        store.latest_valid_epoch().unwrap(),
        Some(newest - 1),
        "torn newest epoch must be skipped"
    );
    let resumed = verify_label_stabilization_resumed(
        &p,
        &inputs,
        &alphabet,
        3,
        Limits {
            checkpoint: None,
            ..limits.clone()
        },
        &dir,
    )
    .unwrap();
    assert_eq!(clean, resumed, "resume from the fallback epoch");
    let err = verify_label_stabilization_resumed_at(
        &p,
        &inputs,
        &alphabet,
        3,
        Limits::default(),
        &dir,
        Some(newest),
    )
    .unwrap_err();
    assert!(
        matches!(
            &err,
            VerifyError::Resume(ResumeError::Corrupt { .. } | ResumeError::Io { .. })
        ),
        "explicitly resuming the torn epoch: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming a checkpoint under a *different* instance (here: another
/// fairness bound, then other inputs) is the typed
/// [`ResumeError::InstanceMismatch`] — never a silently wrong verdict.
#[test]
fn instance_mismatch_is_a_typed_error() {
    let p = rotate_ring(3);
    let alphabet = [false, true];
    let dir = scratch_dir("mismatch");
    let limits = Limits {
        checkpoint: Some(CheckpointPolicy {
            every_states: Some(1),
            ..CheckpointPolicy::new(&dir)
        }),
        ..Limits::default()
    };
    verify_label_stabilization(&p, &[0u64; 3], &alphabet, 2, limits).unwrap();
    for (inputs, r) in [([0u64; 3], 3), ([1u64; 3], 2)] {
        let err =
            verify_label_stabilization_resumed(&p, &inputs, &alphabet, r, Limits::default(), &dir)
                .unwrap_err();
        assert!(
            matches!(
                err,
                VerifyError::Resume(ResumeError::InstanceMismatch { expected, found })
                    if expected != found
            ),
            "inputs {inputs:?}, r = {r}: {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An empty (or never-written) checkpoint directory is
/// [`ResumeError::NoEpoch`].
#[test]
fn resuming_an_empty_directory_is_no_epoch() {
    let p = rotate_ring(3);
    let dir = scratch_dir("empty");
    std::fs::create_dir_all(&dir).unwrap();
    let err = verify_label_stabilization_resumed(
        &p,
        &[0u64; 3],
        &[false, true],
        2,
        Limits::default(),
        &dir,
    )
    .unwrap_err();
    assert!(
        matches!(err, VerifyError::Resume(ResumeError::NoEpoch { .. })),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Meaningless deadline/checkpoint combinations are rejected up front as
/// [`VerifyError::BadParameters`] — before any exploration work.
#[test]
fn meaningless_policies_are_rejected_up_front() {
    let p = rotate_ring(3);
    let dir = scratch_dir("badparams");
    let bad = [
        Limits {
            deadline: Some(Duration::ZERO),
            ..Limits::default()
        },
        Limits {
            checkpoint: Some(CheckpointPolicy {
                every_states: Some(0),
                ..CheckpointPolicy::new(&dir)
            }),
            ..Limits::default()
        },
        Limits {
            checkpoint: Some(CheckpointPolicy {
                retain: 0,
                ..CheckpointPolicy::new(&dir)
            }),
            ..Limits::default()
        },
    ];
    for limits in bad {
        let err = verify_label_stabilization(&p, &[0u64; 3], &[false, true], 2, limits.clone())
            .unwrap_err();
        assert!(
            matches!(err, VerifyError::BadParameters { .. }),
            "{limits:?}: {err}"
        );
    }
    assert!(!dir.exists(), "rejected policies must not touch the disk");
}

/// Every node writes the XOR of its in-labels on its one out-edge and
/// outputs 42 — on a unidirectional ring exactly [`rotate_ring`]'s copy
/// — except that reaction call `k` (counting from 0) panics whenever
/// `panics(k)`. Below its first panic a tripwire behaves like the healthy
/// protocol, so the two share one instance fingerprint. Returns the
/// protocol and its call counter.
fn tripwire(
    graph: DiGraph,
    panics: impl Fn(usize) -> bool + Send + Sync + 'static,
) -> (Protocol<bool>, Arc<AtomicUsize>) {
    let calls = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&calls);
    let p = Protocol::builder(graph, 1.0)
        .uniform_reaction(FnReaction::new(move |_, inc: &[bool], _| {
            if panics(counter.fetch_add(1, Ordering::Relaxed)) {
                panic!("tripwire: injected reaction fault");
            }
            (vec![inc.iter().fold(false, |a, &b| a ^ b)], 42)
        }))
        .build()
        .unwrap();
    (p, calls)
}

/// Fifteen nodes with edges `1…14 → 0` and `0 → 1`. Node 0 alone has
/// 2^14 Boolean in-labelings, so the reaction table has 16,399 entries,
/// and building it is the only place the verifier calls the reactions.
/// At `r = 1` the product graph is its 2^15 labelings.
fn fan_in() -> DiGraph {
    let mut g = DiGraph::new(15);
    for v in 1..15 {
        g.add_edge(v, 0).unwrap();
    }
    g.add_edge(0, 1).unwrap();
    g
}

/// A reaction that panics **once** is isolated: on the fan-in the panic
/// strikes the tabulation, the retried tabulation succeeds, and the
/// verdict and stats are bit-identical to a clean run's.
#[test]
fn single_worker_panic_is_retried_and_absorbed() {
    let inputs = [0u64; 15];
    let alphabet = [false, true];
    let (healthy, _) = tripwire(fan_in(), |_| false);
    let clean =
        verify_label_stabilization_with_stats(&healthy, &inputs, &alphabet, 1, Limits::default())
            .unwrap();
    // A one-shot tripwire: exactly the 200th reaction call panics, inside
    // the tabulation, and every later call succeeds — so the retried
    // tabulation goes through.
    let (p_once, fired) = tripwire(fan_in(), |k| k == 200);
    let recovered = verify_label_stabilization_with_stats(
        &p_once,
        &inputs,
        &alphabet,
        1,
        Limits {
            threads: 1,
            ..Limits::default()
        },
    )
    .unwrap();
    assert!(
        fired.load(Ordering::Relaxed) > 200,
        "the tripwire must actually have fired"
    );
    assert_eq!(clean, recovered, "one panic, retried, absorbed");
}

/// A reaction that panics on the retry too fails the query as the typed
/// [`VerifyError::PoisonedChunk`], carrying the panic message. The panic
/// strikes the tabulation, before anything is explored, so even with a
/// checkpoint policy set there is no epoch to flush: the error has no
/// handle, and no store directory is created.
#[test]
fn persistent_panic_fails_before_any_store_opens() {
    let dir = scratch_dir("poisoned");
    let (poisoned, _) = tripwire(fan_in(), |k| k >= 500);
    let err = verify_label_stabilization(
        &poisoned,
        &[0u64; 15],
        &[false, true],
        1,
        Limits {
            threads: 2,
            checkpoint: Some(CheckpointPolicy::new(&dir)),
            ..Limits::default()
        },
    )
    .unwrap_err();
    let VerifyError::PoisonedChunk { what, checkpoint } = err else {
        panic!("a persistent panic must poison the run, got {err:?}")
    };
    assert!(what.contains("tripwire"), "panic message survives: {what}");
    assert_eq!(checkpoint, None, "nothing was explored to checkpoint");
    assert!(!dir.exists(), "a failed tabulation opens no store");
}

/// Without a checkpoint policy, a persistent panic still fails typed —
/// with no handle to resume from.
#[test]
fn persistent_panic_without_policy_has_no_handle() {
    let (poisoned, _) = tripwire(fan_in(), |k| k >= 100);
    let err = verify_label_stabilization(
        &poisoned,
        &[0u64; 15],
        &[false, true],
        1,
        Limits {
            threads: 1,
            ..Limits::default()
        },
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::PoisonedChunk {
                checkpoint: None,
                ..
            }
        ),
        "{err:?}"
    );
}

/// On a tabled instance the reactions run only while the reaction table
/// is built, once per entry (8 on the 4-ring). A reaction that panics
/// once there is absorbed by one rebuild: 4 calls up to the panic, 8 in
/// the retry, none after, and the verdict and stats match a clean run's.
#[test]
fn table_build_panic_is_retried_and_absorbed() {
    let inputs = [0u64; 4];
    let alphabet = [false, true];
    let clean = verify_label_stabilization_with_stats(
        &rotate_ring(4),
        &inputs,
        &alphabet,
        3,
        Limits::default(),
    )
    .unwrap();
    let (p_once, calls) = tripwire(topology::unidirectional_ring(4), |k| k == 3);
    let recovered =
        verify_label_stabilization_with_stats(&p_once, &inputs, &alphabet, 3, Limits::default())
            .unwrap();
    assert_eq!(calls.load(Ordering::Relaxed), 4 + 8);
    assert_eq!(clean, recovered, "one panic, rebuilt, absorbed");
}

/// A reaction that panics on every call of a tabled instance fails the
/// table build twice: the typed [`VerifyError::PoisonedChunk`] with no
/// checkpoint (nothing was explored, and no store is opened), from
/// `verify_*` and from the [`VerdictCache`] alike, whose key comes from
/// the same one table. Nothing unwinds out of either.
#[test]
fn persistent_table_build_panic_is_typed_without_a_checkpoint() {
    let inputs = [0u64; 4];
    let alphabet = [false, true];
    let dir = scratch_dir("table-panic");
    let (poisoned, _) = tripwire(topology::unidirectional_ring(4), |_| true);
    let err = verify_label_stabilization(
        &poisoned,
        &inputs,
        &alphabet,
        3,
        Limits {
            checkpoint: Some(CheckpointPolicy::new(&dir)),
            ..Limits::default()
        },
    )
    .unwrap_err();
    assert!(
        matches!(
            &err,
            VerifyError::PoisonedChunk { what, checkpoint: None } if what.contains("reaction table")
        ),
        "{err:?}"
    );
    assert!(!dir.exists(), "a failed table build opens no store");
    // The query tabulates its 8 entries once, before the key is taken,
    // so a trip at the first call and one midway both poison that one
    // tabulation.
    for trip in [0, 4] {
        let (poisoned, _) = tripwire(topology::unidirectional_ring(4), move |k| k >= trip);
        let cache = VerdictCache::open(&dir, DEFAULT_BYTE_BUDGET).unwrap();
        let err = cache
            .verify_label(&poisoned, &inputs, &alphabet, 3, &Limits::default())
            .unwrap_err();
        assert!(
            matches!(
                &err,
                VerifyError::PoisonedChunk { what, checkpoint: None } if what.contains("reaction table")
            ),
            "trip {trip}: {err:?}"
        );
        assert!(cache.is_empty(), "trip {trip}: nothing is memoized");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Inputs come one per node. A 4-ring given 3 inputs and the 15-node
/// fan-in given 14 are `BadParameters` in
/// both query modes, from the packed verifier, the naive reference and
/// the verdict cache alike, before anything runs: the reactions panic on
/// every call yet none is called, the checkpoint policy's store is never
/// opened, and nothing is memoized.
#[test]
fn inputs_of_the_wrong_length_are_bad_parameters() {
    let dir = scratch_dir("wrong-inputs");
    let limits = Limits {
        checkpoint: Some(CheckpointPolicy::new(&dir)),
        ..Limits::default()
    };
    let cache = VerdictCache::in_memory(DEFAULT_BYTE_BUDGET);
    let alphabet = [false, true];
    for graph in [topology::unidirectional_ring(4), fan_in()] {
        let n = graph.node_count();
        let (p, calls) = tripwire(graph, |_| true);
        let inputs = vec![0u64; n - 1];
        for output in [false, true] {
            let (packed, naive, cached) = if output {
                (
                    verify_output_stabilization(&p, &inputs, &alphabet, 1, limits.clone()).err(),
                    verify_output_stabilization_naive(&p, &inputs, &alphabet, 1, limits.clone())
                        .err(),
                    cache
                        .verify_output(&p, &inputs, &alphabet, 1, &limits)
                        .err(),
                )
            } else {
                (
                    verify_label_stabilization(&p, &inputs, &alphabet, 1, limits.clone()).err(),
                    verify_label_stabilization_naive(&p, &inputs, &alphabet, 1, limits.clone())
                        .err(),
                    cache.verify_label(&p, &inputs, &alphabet, 1, &limits).err(),
                )
            };
            for (path, err) in [("packed", packed), ("naive", naive), ("cache", cached)] {
                assert!(
                    matches!(&err, Some(VerifyError::BadParameters { what }) if what.contains("inputs")),
                    "n = {n}, output mode {output}, {path}: {err:?}"
                );
            }
        }
        assert_eq!(
            calls.load(Ordering::Relaxed),
            0,
            "n = {n}: no reaction runs"
        );
    }
    assert!(!dir.exists(), "no checkpoint store is opened");
    assert!(cache.is_empty(), "nothing is memoized");
}

/// Every labeling is a seed state, so under `SymmetryMode::Off`, where
/// each is a state of its own, an instance with more labelings than the
/// state budget is refused as [`VerifyError::TooManyStates`] before any
/// reaction runs — from the `verify_*` and `*_resumed` entry points, the
/// verdict cache and the sweeps alike, with no store opened and nothing
/// memoized — and its cache key is taken without one. The fan-in's 2^15
/// labelings are refused under a budget of 2^15 − 1 states (and under
/// 16,383, where its 16,399-entry table is over the budget too); at
/// exactly 2^15 the table is built, once, and the query runs. Under
/// `Auto` the table's size refuses: a table has at most one entry per
/// labeling plus one per node, so one over the budget plus `n` entries
/// is refused at 16,383 states, and at 16,384 it is built, once, before
/// seeding the 2^15 labelings (the fan-in has no symmetry) trips the
/// budget.
#[test]
fn over_budget_tables_are_refused_before_any_reaction() {
    let dir = scratch_dir("refused");
    let (inputs, alphabet) = ([0u64; 15], [false, true]);
    let limits = |max_states, symmetry| Limits {
        max_states,
        symmetry,
        checkpoint: Some(CheckpointPolicy::new(&dir)),
        ..Limits::default()
    };
    let (p, calls) = tripwire(fan_in(), |_| false);
    let cache = VerdictCache::in_memory(DEFAULT_BYTE_BUDGET);
    for refused in [
        limits(16_383, SymmetryMode::Off),
        limits(32_767, SymmetryMode::Off),
        limits(16_383, SymmetryMode::Auto),
    ] {
        let errors = [
            verify_label_stabilization(&p, &inputs, &alphabet, 1, refused.clone()).err(),
            verify_output_stabilization(&p, &inputs, &alphabet, 1, refused.clone()).err(),
            verify_label_stabilization_resumed(&p, &inputs, &alphabet, 1, refused.clone(), &dir)
                .err(),
            verify_output_stabilization_resumed(&p, &inputs, &alphabet, 1, refused.clone(), &dir)
                .err(),
            cache
                .verify_label(&p, &inputs, &alphabet, 1, &refused)
                .err(),
            cache
                .verify_output(&p, &inputs, &alphabet, 1, &refused)
                .err(),
            sweep_byzantine_placements(&p, &inputs, &alphabet, 1, refused.clone(), 1, &[]).err(),
            sweep_crash_placements_cached(
                &p,
                &inputs,
                &alphabet,
                1,
                refused.clone(),
                1,
                &[],
                &cache,
            )
            .err(),
        ];
        let limit = refused.max_states;
        for (k, err) in errors.into_iter().enumerate() {
            assert_eq!(
                err,
                Some(VerifyError::TooManyStates { limit }),
                "{:?} at {limit}: entry point {k}",
                refused.symmetry
            );
        }
        VerdictCache::label_fingerprint(&p, &inputs, &alphabet, 1, &refused);
    }
    assert_eq!(calls.load(Ordering::Relaxed), 0, "no reaction runs");
    assert!(!dir.exists(), "no checkpoint store is opened");
    assert!(cache.is_empty(), "nothing is memoized");
    let err = verify_label_stabilization(
        &p,
        &inputs,
        &alphabet,
        1,
        limits(16_384, SymmetryMode::Auto),
    )
    .unwrap_err();
    assert_eq!(err, VerifyError::TooManyStates { limit: 16_384 });
    assert_eq!(calls.load(Ordering::Relaxed), 16_399, "one tabulation");
    let exact = Limits {
        max_states: 1 << 15,
        ..Limits::default()
    };
    let (_, stats) =
        verify_label_stabilization_with_stats(&p, &inputs, &alphabet, 1, exact).unwrap();
    assert_eq!(stats.states, 1 << 15);
    assert_eq!(calls.load(Ordering::Relaxed), 2 * 16_399, "one tabulation");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An `r = 1` label-mode state is its labeling alone, so every successor
/// is a seed and exploration counts the seeds' edges instead of
/// expanding them. On the f = 1 Byzantine BFS biring
/// n = 5 the edge count and the edge budget are the batch loop's, the
/// transient peak is the seed batch's (one 16-byte record per seed), and
/// resuming from a checkpoint taken after seeding, or from one written
/// once exploration is done, reproduces the uninterrupted run's stats.
#[test]
fn r1_label_queries_count_seed_edges_instead_of_expanding() {
    let p = bfs_tree_protocol(topology::bidirectional_ring(5), 0, 2, FaultModel::none()).unwrap();
    let (inputs, alphabet) = ([0u64; 5], bfs_alphabet(2));
    let limits = Limits {
        faults: FaultModel::byzantine(&[2]).unwrap(),
        ..Limits::default()
    };
    let clean =
        verify_label_stabilization_with_stats(&p, &inputs, &alphabet, 1, limits.clone()).unwrap();
    let stats = clean.1;
    assert_eq!((stats.states, stats.edges), (59_049, 531_441));
    // The seed batch's records, 16 bytes each (fingerprint, one packed
    // word): no expansion batch ran.
    assert_eq!(stats.edge_bytes, 59_049 * 16);
    for (max_edges, ok) in [(531_440, false), (531_441, true)] {
        let got = verify_label_stabilization_with_stats(
            &p,
            &inputs,
            &alphabet,
            1,
            Limits {
                max_edges,
                ..limits.clone()
            },
        );
        match got {
            Ok(run) => assert!(ok && run == clean, "{max_edges}: {run:?}"),
            Err(e) => assert!(
                !ok && e == VerifyError::TooManyEdges { limit: max_edges },
                "{max_edges}: {e}"
            ),
        }
    }
    let dir = scratch_dir("r1-seed-edges");
    let (partial, _) = verify_label_stabilization_with_stats(
        &p,
        &inputs,
        &alphabet,
        1,
        Limits {
            deadline: Some(Duration::from_nanos(1)),
            checkpoint: Some(CheckpointPolicy::new(&dir)),
            ..limits.clone()
        },
    )
    .unwrap();
    assert!(
        matches!(
            partial,
            Verdict::Partial {
                frontier_len: 59_049,
                ..
            }
        ),
        "the deadline trips after seeding: {partial:?}"
    );
    let resumed =
        verify_label_stabilization_resumed(&p, &inputs, &alphabet, 1, limits.clone(), &dir)
            .unwrap();
    assert_eq!(clean, resumed, "resumed after seeding");
    let _ = std::fs::remove_dir_all(&dir);
    let checkpointed = Limits {
        checkpoint: Some(every_batch(&dir)),
        ..limits.clone()
    };
    assert_eq!(
        clean,
        verify_label_stabilization_with_stats(&p, &inputs, &alphabet, 1, checkpointed).unwrap()
    );
    let resumed =
        verify_label_stabilization_resumed(&p, &inputs, &alphabet, 1, limits, &dir).unwrap();
    assert_eq!(clean, resumed, "resumed from the finished exploration");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `ExploreStats` sanity on a resumed run: the struct still carries the
/// packed-layout figures (regression guard for the header round-trip).
#[test]
fn resumed_stats_carry_the_packed_layout() {
    let p = rotate_ring(3);
    let dir = scratch_dir("stats");
    let limits = Limits {
        checkpoint: Some(every_batch(&dir)),
        ..Limits::default()
    };
    let (_, clean): (Verdict<bool>, ExploreStats) =
        verify_label_stabilization_with_stats(&p, &[0u64; 3], &[false, true], 2, limits).unwrap();
    let (_, resumed) = verify_label_stabilization_resumed(
        &p,
        &[0u64; 3],
        &[false, true],
        2,
        Limits::default(),
        &dir,
    )
    .unwrap();
    assert_eq!(clean, resumed);
    assert!(resumed.words_per_state >= 1 && resumed.state_bytes > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite (PR 10): a process that dies between `begin_epoch` and
/// `commit` leaves an orphaned `epoch-*.ckpt.tmp` behind; reopening the
/// store — which is what a checkpointed verification or a resume does
/// first — must sweep the orphan while leaving every committed epoch
/// loadable. The crash is simulated by running a checkpointed
/// verification (committed epochs), then dropping an uncommitted
/// `SegmentWriter` and a torn `MANIFEST.tmp` into the same store.
#[test]
fn crashed_commit_orphans_are_swept_on_reopen() {
    let p = rotate_ring(4);
    let inputs = [0u64; 4];
    let alphabet = [false, true];
    let r = 3;
    let dir = scratch_dir("orphan-sweep");
    let limits = Limits {
        checkpoint: Some(every_batch(&dir)),
        ..Limits::default()
    };
    let clean =
        verify_label_stabilization_with_stats(&p, &inputs, &alphabet, r, limits.clone()).unwrap();

    // Crash simulation: an epoch write that never reached commit, plus a
    // manifest rewrite torn mid-flight.
    let store = CheckpointStore::open(&dir).unwrap();
    let committed = store.epochs().unwrap();
    let next = committed.last().unwrap() + 1;
    let mut w = store.begin_epoch(next).unwrap();
    w.begin_segment(1);
    w.put_u64(0xdead);
    w.end_segment().unwrap();
    drop(w); // process dies before CheckpointStore::commit
    std::fs::write(dir.join("MANIFEST.tmp"), "torn").unwrap();
    let orphan = dir.join(format!("epoch-{next}.ckpt.tmp"));
    assert!(orphan.exists(), "crash must leave the tmp file behind");

    // Reopening sweeps both orphans and keeps the committed trail.
    let store = CheckpointStore::open(&dir).unwrap();
    assert!(!orphan.exists(), "stale epoch tmp must be swept on open");
    assert!(!dir.join("MANIFEST.tmp").exists());
    assert_eq!(store.epochs().unwrap(), committed);

    // The swept store still resumes to the bit-identical verdict.
    let resumed =
        verify_label_stabilization_resumed(&p, &inputs, &alphabet, r, Limits::default(), &dir)
            .unwrap();
    assert_eq!(clean, resumed, "sweep must not disturb committed epochs");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes one epoch of the resume format by hand — a header of format
/// `version`, then one row segment holding `rows` unless it is empty —
/// for an instance of `words` packed words per state, with valid
/// checksums.
fn craft_epoch(
    dir: &std::path::Path,
    version: u64,
    fp: u64,
    n_states: u64,
    rows: &[u64],
    words: u64,
) {
    // Segment tags: 1 header, 3 row block.
    let store = CheckpointStore::open(dir).unwrap();
    let mut w = store.begin_epoch(1).unwrap();
    w.begin_segment(1);
    for v in [
        0x5354_4c53_434b_5031,
        version,
        fp,
        n_states,
        0,
        0,
        0,
        words,
        0,
    ] {
        w.put_u64(v);
    }
    w.end_segment().unwrap();
    if !rows.is_empty() {
        w.begin_segment(3);
        w.put_u64s(rows);
        w.end_segment().unwrap();
    }
    store.commit(w, 1).unwrap();
}

/// An `r = 1` label-mode query without a quotient reads each state's id
/// off its row as the labeling's rank, so an epoch that does not hold
/// every labeling in rank order is corrupt: one short of states used to
/// panic the SCC pass, and reordered rows would misaddress its edges.
#[test]
fn ranked_epochs_must_hold_every_labeling_in_rank_order() {
    use stateless_computation::core::symmetry::ReactionTable;
    use stateless_computation::verify::checkpoint::instance_fingerprint;
    // 3 edges of 2-bit labels over 3 values: 27 labelings, one word each.
    let p = Protocol::builder(topology::unidirectional_ring(3), 1.0)
        .uniform_reaction(FnReaction::new(|_, inc: &[u8], _| {
            (vec![(inc[0] + 1) % 3], 0)
        }))
        .build()
        .unwrap();
    let (inputs, alphabet, r) = (vec![0u64; 3], vec![0u8, 1, 2], 1);
    let limits = Limits::default();
    let table = ReactionTable::build(&p, &inputs, &alphabet, u64::MAX);
    let fp = instance_fingerprint(&p, &inputs, &alphabet, table.as_ref(), r, false, &limits);
    let labeling = |rank: u64| {
        (0..3)
            .map(|k| (rank / 3u64.pow(k) % 3) << (2 * k))
            .sum::<u64>()
    };
    let rows: Vec<u64> = (0..27).map(labeling).collect();
    let mut swapped = rows.clone();
    swapped.swap(1, 2);
    // Rank 3 is the digits (0, 1, 0); the row 3 spells (3, 0, 0), whose
    // rank is 3 too, but 3 is no label.
    let mut foreign = rows.clone();
    foreign[3] = 3;
    let cases: [(&str, u64, &[u64], &str); 4] = [
        (
            "short",
            2,
            &rows[..2],
            "2 states, but the instance's 27 labelings",
        ),
        (
            "swapped",
            27,
            &swapped,
            "row 1 is not the labeling of rank 1",
        ),
        (
            "foreign",
            27,
            &foreign,
            "row 3 is not the labeling of rank 3",
        ),
        ("in-order", 27, &rows, ""),
    ];
    for (name, n_states, rows, bound) in cases {
        let dir = scratch_dir(&format!("ranked-{name}"));
        craft_epoch(&dir, 2, fp, n_states, rows, 1);
        let got =
            verify_label_stabilization_resumed(&p, &inputs, &alphabet, r, limits.clone(), &dir);
        match &got {
            Err(VerifyError::Resume(ResumeError::Corrupt { what })) if !bound.is_empty() => {
                assert!(what.contains(bound), "{name}: {what}")
            }
            Ok((verdict, stats)) if bound.is_empty() => {
                // The crafted epoch records no seed records' bytes.
                let fresh = verify_label_stabilization(&p, &inputs, &alphabet, r, limits.clone());
                assert_eq!(Ok(verdict), fresh.as_ref(), "{name}");
                assert_eq!((stats.states, stats.edges), (27, 27), "{name}");
            }
            _ => panic!("{name}: {got:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// An epoch whose length fields claim more than its bytes hold is a
/// typed [`ResumeError::Corrupt`] naming the bound it broke, never a
/// panic or an allocation sized from the claim: a row segment longer
/// than the states its header leaves, and a header of nearly 2^32
/// states over one row. A header of the previous format version is
/// rejected by its version before anything else is read.
#[test]
fn inflated_length_fields_are_corrupt_not_a_panic() {
    use stateless_computation::core::symmetry::ReactionTable;
    use stateless_computation::verify::checkpoint::instance_fingerprint;
    // 16 edges × 1 label bit + 8 × 7 countdown bits: 2 words per state.
    // Its 2^16 labelings fit the budget: an instance with more labelings
    // than the budget (times its group) is refused before its epoch is
    // read.
    let n = 8;
    let p = Protocol::builder(topology::bidirectional_ring(n), 1.0)
        .uniform_reaction(FnReaction::new(|_, inc: &[u8], _| (inc.to_vec(), 0)))
        .build()
        .unwrap();
    let (inputs, alphabet, r) = (vec![0u64; n], (0..2u8).collect::<Vec<_>>(), 128);
    let limits = Limits::default();
    let table = ReactionTable::build(&p, &inputs, &alphabet, u64::MAX);
    let fp = instance_fingerprint(&p, &inputs, &alphabet, table.as_ref(), r, false, &limits);
    let cases: [(&str, u64, u64, &[u64], &str); 3] = [
        (
            "long-segment",
            2,
            1,
            &[0, 0, 1, 0, 2, 0],
            "segment of 3 rows, but only 1 of 1 states remain",
        ),
        (
            "huge-header",
            2,
            u64::from(u32::MAX) - 1,
            &[0, 0],
            "header claims 4294967294 states, but only 36 bytes follow",
        ),
        (
            "version-1",
            1,
            1,
            &[0, 0],
            "unsupported checkpoint format version 1",
        ),
    ];
    for (name, version, n_states, rows, bound) in cases {
        let dir = scratch_dir(name);
        craft_epoch(&dir, version, fp, n_states, rows, 2);
        let err =
            verify_label_stabilization_resumed(&p, &inputs, &alphabet, r, limits.clone(), &dir)
                .unwrap_err();
        match &err {
            VerifyError::Resume(ResumeError::Corrupt { what }) => {
                assert!(what.contains(bound), "{name}: {what}")
            }
            _ => panic!("{name}: {err}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
