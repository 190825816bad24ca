//! Differential tests: the buffered engine hot path (`react_into` /
//! `step_sync` / scratch-buffer `step_with`) must produce **bit-identical**
//! labeling traces and outputs to the naive allocating `react` path, on
//! random protocols, topologies, schedules, and initial labelings; the
//! buffered `Schedule::activations_into` must emit the same activation
//! sequences as the allocating wrapper for every built-in schedule; the
//! fingerprint-arena `classify_sync` must agree exactly with the
//! clone-based reference; the `Brent` cycle detector must agree with
//! `ExactArena` on every classified run; and the parallel product-graph
//! explorer must produce verdicts, witnesses, and state/edge counts that
//! are bit-identical across thread counts — and verdict-identical to the
//! owned-`Vec` naive explorer.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use stateless_computation::core::convergence::{
    classify_scheduled, classify_sync, classify_sync_naive, classify_sync_with, CycleDetector,
};
use stateless_computation::core::graph::DiGraph;
use stateless_computation::core::prelude::*;
use stateless_computation::verify::cache::DEFAULT_BYTE_BUDGET;
use stateless_computation::verify::{
    verify_label_stabilization, verify_label_stabilization_naive,
    verify_label_stabilization_resumed, verify_label_stabilization_with_stats,
    verify_output_stabilization, verify_output_stabilization_naive, CacheOutcome, CheckpointPolicy,
    CycleWitness, Limits, SymmetryMode, Verdict, VerdictCache, VerifyError,
};

/// Thread counts the cross-thread assertions run at: `2`
/// and `4` always, plus `STATELESS_TEST_THREADS=N` (set by the CI
/// multi-worker job) so the determinism suite provably exercises more
/// than one worker where cores exist.
fn test_threads() -> Vec<usize> {
    let mut counts = vec![2, 4];
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

/// A pseudo-random but fully deterministic reaction body: mixes the node
/// id, the incoming labels, and the input into one word, then derives a
/// distinct label per outgoing edge. `q` bounds the label alphabet so
/// classification state spaces stay finite.
fn mix(node: NodeId, incoming: &[u64], input: u64, q: u64) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64 ^ (node as u64);
    for &l in incoming {
        acc = (acc.rotate_left(7) ^ l).wrapping_mul(0x0000_0100_0000_01B3);
    }
    acc = (acc.rotate_left(7) ^ input).wrapping_mul(0x0000_0100_0000_01B3);
    acc % q
}

fn out_label(seed_word: u64, k: usize, q: u64) -> u64 {
    (seed_word.wrapping_mul(2 * k as u64 + 1).rotate_left(11) ^ seed_word) % q
}

/// The same random protocol through the naive (allocating `FnReaction`)
/// and buffered (`FnBufReaction`) paths.
fn protocol_pair(graph: &DiGraph, q: u64) -> (Protocol<u64>, Protocol<u64>) {
    let mut naive = Protocol::builder(graph.clone(), (q as f64).log2());
    let mut buffered = Protocol::builder(graph.clone(), (q as f64).log2());
    for node in 0..graph.node_count() {
        let deg = graph.out_degree(node);
        naive = naive.reaction(
            node,
            FnReaction::new(move |i: NodeId, incoming: &[u64], input| {
                let w = mix(i, incoming, input, q);
                ((0..deg).map(|k| out_label(w, k, q)).collect(), w)
            }),
        );
        buffered = buffered.reaction(
            node,
            FnBufReaction::new(
                vec![0u64; deg],
                move |i: NodeId, incoming: &[u64], input, out: &mut [u64]| {
                    let w = mix(i, incoming, input, q);
                    for (k, slot) in out.iter_mut().enumerate() {
                        *slot = out_label(w, k, q);
                    }
                    w
                },
            ),
        );
    }
    (naive.build().unwrap(), buffered.build().unwrap())
}

fn topology_of(kind: usize, size: usize) -> DiGraph {
    match kind % 4 {
        0 => topology::unidirectional_ring(size.max(2)),
        1 => topology::bidirectional_ring(size.max(3)),
        2 => topology::clique(size.max(2)),
        _ => topology::torus(3, size.max(3)),
    }
}

/// Random activation schedule: `steps` nonempty subsets drawn with a
/// seeded RNG, replayed identically against both engines.
fn random_schedule(rng: &mut StdRng, n: usize, steps: usize) -> Vec<Vec<NodeId>> {
    (0..steps)
        .map(|_| {
            let mut set: Vec<NodeId> = (0..n).filter(|_| rng.random_bool(0.4)).collect();
            if set.is_empty() {
                set.push(rng.random_range(0..n));
            }
            set
        })
        .collect()
}

/// Small strongly connected topologies whose product graphs stay
/// exhaustively explorable (`|Σ|^E · r^n` states).
fn verify_topology_of(kind: usize) -> DiGraph {
    match kind % 4 {
        0 => topology::unidirectional_ring(3),
        1 => topology::unidirectional_ring(4),
        2 => topology::bidirectional_ring(3),
        _ => topology::clique(3),
    }
}

/// A node-symmetric random protocol: one seeded reaction shared by every
/// node (the node id never enters the mix), so on vertex-transitive
/// topologies the derived automorphism group is usually nontrivial and
/// `SymmetryMode::Auto` actually quotients. Requires a uniform
/// out-degree, which every topology below has.
fn symmetric_protocol(graph: &DiGraph, q: u64, seed: u64) -> Protocol<u64> {
    let deg = graph.out_degree(0);
    Protocol::builder(graph.clone(), (q as f64).log2())
        .uniform_reaction(FnBufReaction::new(
            vec![0u64; deg],
            move |_, incoming: &[u64], input, out: &mut [u64]| {
                let w = mix(seed as usize, incoming, input, q);
                for (k, slot) in out.iter_mut().enumerate() {
                    *slot = out_label(w, k, q);
                }
                w
            },
        ))
        .build()
        .unwrap()
}

/// Small vertex-transitive topologies for the symmetry-quotient sweep:
/// rings (cyclic/dihedral groups, the Booth path) and the 2-cube
/// (bit-permutation group, the generic orbit-scan path).
fn quotient_topology_of(kind: usize) -> DiGraph {
    match kind % 4 {
        0 => topology::unidirectional_ring(3),
        1 => topology::unidirectional_ring(4),
        2 => topology::bidirectional_ring(3),
        _ => topology::hypercube(2),
    }
}

/// Replays a [`CycleWitness`] from its labeling through two laps of its
/// cyclic schedule; returns whether the labels changed, whether the
/// outputs changed, and whether the labeling returned to the start after
/// each lap (the witness is a product-graph cycle, so a valid one always
/// closes). Output changes are measured on the second lap only: the
/// countdown construction activates every node at least once per lap, so
/// lap one flushes the fresh simulation's placeholder outputs and lap two
/// runs exactly along the product cycle, outputs included.
fn replay_witness(
    p: &Protocol<u64>,
    inputs: &[Input],
    w: &CycleWitness<u64>,
) -> (bool, bool, bool) {
    let n = p.node_count();
    let mut sim = Simulation::new(p, inputs, w.labeling.clone()).unwrap();
    let mut sched = Scripted::cycle(w.schedule.clone());
    sched.validate(n).expect("witness names real nodes");
    let mut active = Vec::new();
    let (mut labels_changed, mut outputs_changed) = (false, false);
    let mut closed = true;
    for lap in 0..2 {
        for _ in 0..w.schedule.len() {
            let labels_before = sim.labeling().to_vec();
            let outputs_before = sim.outputs().to_vec();
            sched.activations_into(sim.time() + 1, n, &mut active);
            sim.step_with(&active);
            labels_changed |= labels_before != sim.labeling();
            if lap == 1 {
                outputs_changed |= outputs_before != sim.outputs();
            }
        }
        closed &= sim.labeling() == &w.labeling[..];
    }
    (labels_changed, outputs_changed, closed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// step_with (buffered scratch path) ≡ step_with_naive (allocating
    /// apply path) under random asynchronous schedules, on every topology
    /// family.
    #[test]
    fn buffered_step_matches_naive_trace(seed in 0u64..10_000, kind in 0usize..4, size in 3usize..7) {
        let graph = topology_of(kind, size);
        let n = graph.node_count();
        let q = 17;
        let (p_naive, p_buf) = protocol_pair(&graph, q);
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs: Vec<u64> = (0..n).map(|_| rng.random_range(0u64..5)).collect();
        let init: Vec<u64> = (0..graph.edge_count()).map(|_| rng.random_range(0..q)).collect();
        let schedule = random_schedule(&mut rng, n, 40);

        let mut a = Simulation::new(&p_naive, &inputs, init.clone()).unwrap();
        let mut b = Simulation::new(&p_buf, &inputs, init).unwrap();
        for (t, active) in schedule.iter().enumerate() {
            a.step_with_naive(active);
            b.step_with(active);
            prop_assert_eq!(a.labeling(), b.labeling(), "labelings diverged at step {}", t);
            prop_assert_eq!(a.outputs(), b.outputs(), "outputs diverged at step {}", t);
        }
    }

    /// step_sync ≡ step_with_naive(all nodes): the synchronous fast path
    /// is trace-identical to the naive full-activation step.
    #[test]
    fn step_sync_matches_naive_trace(seed in 0u64..10_000, kind in 0usize..4, size in 3usize..7) {
        let graph = topology_of(kind, size);
        let n = graph.node_count();
        let q = 23;
        let (p_naive, p_buf) = protocol_pair(&graph, q);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51ac_0ff5);
        let inputs: Vec<u64> = (0..n).map(|_| rng.random_range(0u64..5)).collect();
        let init: Vec<u64> = (0..graph.edge_count()).map(|_| rng.random_range(0..q)).collect();
        let all: Vec<NodeId> = (0..n).collect();

        let mut a = Simulation::new(&p_naive, &inputs, init.clone()).unwrap();
        let mut b = Simulation::new(&p_buf, &inputs, init).unwrap();
        for t in 0..30 {
            a.step_with_naive(&all);
            b.step_sync();
            prop_assert_eq!(a.labeling(), b.labeling(), "labelings diverged at round {}", t);
            prop_assert_eq!(a.outputs(), b.outputs(), "outputs diverged at round {}", t);
        }
    }

    /// run_until_label_stable through the buffered engine agrees with the
    /// naive reference — on the step count when it converges, and on the
    /// NotConverged verdict and final labeling when it does not (max of
    /// *incoming* labels can oscillate on even structures).
    #[test]
    fn run_until_stable_agrees_across_paths(seed in 0u64..10_000, size in 3usize..7) {
        let graph = topology::bidirectional_ring(size.max(3));
        let n = graph.node_count();
        let build = |buffered: bool| -> Protocol<u64> {
            let mut b = Protocol::builder(graph.clone(), 8.0);
            for node in 0..n {
                let deg = graph.out_degree(node);
                if buffered {
                    b = b.reaction(node, FnBufReaction::new(
                        vec![0u64; deg],
                        |_, inc: &[u64], x, out: &mut [u64]| {
                            let m = inc.iter().copied().max().unwrap_or(0).max(x);
                            out.fill(m);
                            m
                        },
                    ));
                } else {
                    b = b.reaction(node, FnReaction::new(move |_, inc: &[u64], x| {
                        let m = inc.iter().copied().max().unwrap_or(0).max(x);
                        (vec![m; deg], m)
                    }));
                }
            }
            b.build().unwrap()
        };
        let p_naive = build(false);
        let p_buf = build(true);
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs: Vec<u64> = (0..n).map(|_| rng.random_range(0u64..100)).collect();
        let init: Vec<u64> = (0..graph.edge_count()).map(|_| rng.random_range(0u64..100)).collect();

        let mut a = Simulation::new(&p_naive, &inputs, init.clone()).unwrap();
        let mut b = Simulation::new(&p_buf, &inputs, init).unwrap();
        let sa = a.run_until_label_stable(&mut Synchronous, 10 * n as u64);
        let sb = b.run_until_label_stable(&mut Synchronous, 10 * n as u64);
        prop_assert_eq!(sa, sb);
        prop_assert_eq!(a.labeling(), b.labeling());
        prop_assert_eq!(a.outputs(), b.outputs());
    }

    /// Fingerprint classify_sync ≡ clone-based reference on random small
    /// instances (both stabilizing and oscillating dynamics arise from the
    /// mixed reactions).
    #[test]
    fn classify_agrees_with_reference(seed in 0u64..10_000, kind in 0usize..3, size in 3usize..5, q in 2u64..4) {
        let graph = topology_of(kind, size);
        let (p_naive, p_buf) = protocol_pair(&graph, q);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = graph.node_count();
        let inputs: Vec<u64> = (0..n).map(|_| rng.random_range(0u64..3)).collect();
        let init: Vec<u64> = (0..graph.edge_count()).map(|_| rng.random_range(0..q)).collect();
        let cap = 200_000;
        let fast = classify_sync(&p_buf, &inputs, init.clone(), cap);
        let reference = classify_sync_naive(&p_naive, &inputs, init, cap);
        prop_assert_eq!(fast, reference);
    }

    /// Buffered activations_into ≡ allocating activations, for every
    /// built-in schedule type, driving two identically seeded instances
    /// side by side (stateful schedules must advance identically through
    /// either entry point).
    #[test]
    fn buffered_activations_match_allocating(seed in 0u64..10_000, n in 1usize..9, r in 1usize..5, k in 1usize..6) {
        let script: Vec<Vec<NodeId>> = {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..6).map(|_| {
                let mut set: Vec<NodeId> = (0..n).filter(|_| rng.random_bool(0.5)).collect();
                if set.is_empty() {
                    set.push(rng.random_range(0..n));
                }
                set
            }).collect()
        };
        let pairs: Vec<(Box<dyn Schedule>, Box<dyn Schedule>)> = vec![
            (Box::new(Synchronous), Box::new(Synchronous)),
            (Box::new(RoundRobin::new(k)), Box::new(RoundRobin::new(k))),
            (
                Box::new(Scripted::cycle(script.clone())),
                Box::new(Scripted::cycle(script.clone())),
            ),
            (
                Box::new(RandomRFair::new(r, 0.3, StdRng::seed_from_u64(seed))),
                Box::new(RandomRFair::new(r, 0.3, StdRng::seed_from_u64(seed))),
            ),
            (
                Box::new(FairnessMonitor::new(RandomRFair::new(r, 0.3, StdRng::seed_from_u64(seed)))),
                Box::new(FairnessMonitor::new(RandomRFair::new(r, 0.3, StdRng::seed_from_u64(seed)))),
            ),
        ];
        let mut buf = Vec::new();
        for (mut buffered, mut allocating) in pairs {
            for t in 1..=40u64 {
                buffered.activations_into(t, n, &mut buf);
                let fresh = allocating.activations(t, n);
                prop_assert_eq!(&buf, &fresh, "t = {}", t);
                prop_assert!(!fresh.is_empty());
                prop_assert!(fresh.iter().all(|&i| i < n));
            }
        }
    }

    /// `Simulation::run` through the buffered scheduling layer ≡ the naive
    /// loop (allocating activations + naive allocating step), bit for bit,
    /// for every built-in schedule type on random protocols.
    #[test]
    fn buffered_run_matches_naive_loop(seed in 0u64..10_000, kind in 0usize..4, size in 3usize..7, r in 1usize..5) {
        let graph = topology_of(kind, size);
        let n = graph.node_count();
        let (p_naive, p_buf) = protocol_pair(&graph, 13);
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs: Vec<u64> = (0..n).map(|_| rng.random_range(0u64..5)).collect();
        let init: Vec<u64> = (0..graph.edge_count()).map(|_| rng.random_range(0..13)).collect();
        let script = random_schedule(&mut rng, n, 7);
        let schedules: Vec<(Box<dyn Schedule>, Box<dyn Schedule>)> = vec![
            (Box::new(Synchronous), Box::new(Synchronous)),
            (Box::new(RoundRobin::new(2)), Box::new(RoundRobin::new(2))),
            (
                Box::new(Scripted::cycle(script.clone())),
                Box::new(Scripted::cycle(script.clone())),
            ),
            (
                Box::new(RandomRFair::new(r, 0.4, StdRng::seed_from_u64(seed))),
                Box::new(RandomRFair::new(r, 0.4, StdRng::seed_from_u64(seed))),
            ),
            (
                Box::new(FairnessMonitor::new(RoundRobin::new(3))),
                Box::new(FairnessMonitor::new(RoundRobin::new(3))),
            ),
        ];
        for (mut s_buf, mut s_naive) in schedules {
            let mut a = Simulation::new(&p_buf, &inputs, init.clone()).unwrap();
            a.run(s_buf.as_mut(), 30);
            let mut b = Simulation::new(&p_naive, &inputs, init.clone()).unwrap();
            for _ in 0..30 {
                let active = s_naive.activations(b.time() + 1, n);
                b.step_with_naive(&active);
            }
            prop_assert_eq!(a.labeling(), b.labeling());
            prop_assert_eq!(a.outputs(), b.outputs());
            prop_assert_eq!(a.time(), b.time());
        }
    }

    /// Brent ≡ ExactArena on synchronous classification of random
    /// protocols: identical outcome enums, including rounds and periods.
    #[test]
    fn brent_agrees_with_arena(seed in 0u64..10_000, kind in 0usize..3, size in 3usize..5, q in 2u64..4) {
        let graph = topology_of(kind, size);
        let (_, p) = protocol_pair(&graph, q);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb4e9);
        let n = graph.node_count();
        let inputs: Vec<u64> = (0..n).map(|_| rng.random_range(0u64..3)).collect();
        let init: Vec<u64> = (0..graph.edge_count()).map(|_| rng.random_range(0..q)).collect();
        let cap = 2_000_000;
        let arena = classify_sync_with(&p, &inputs, init.clone(), cap, CycleDetector::ExactArena);
        let brent = classify_sync_with(&p, &inputs, init, cap, CycleDetector::Brent);
        prop_assert_eq!(arena, brent);
    }

    /// Brent ≡ ExactArena on product-state classification under random
    /// periodic (scripted) schedules.
    #[test]
    fn brent_agrees_with_arena_scheduled(seed in 0u64..10_000, kind in 0usize..3, size in 3usize..5, q in 2u64..3, period in 1usize..5) {
        let graph = topology_of(kind, size);
        let (_, p) = protocol_pair(&graph, q);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5c4ed);
        let n = graph.node_count();
        let inputs: Vec<u64> = (0..n).map(|_| rng.random_range(0u64..3)).collect();
        let init: Vec<u64> = (0..graph.edge_count()).map(|_| rng.random_range(0..q)).collect();
        let sched = Scripted::cycle(random_schedule(&mut rng, n, period));
        let cap = 2_000_000;
        let arena = classify_scheduled(&p, &inputs, init.clone(), &sched, cap, CycleDetector::ExactArena);
        let brent = classify_scheduled(&p, &inputs, init, &sched, cap, CycleDetector::Brent);
        prop_assert_eq!(arena, brent);
    }

    /// The packed-arena product explorer ≡ the retained owned-`Vec`
    /// reference, on random protocols, topologies, and fairness bounds:
    /// identical verdicts for both label and output r-stabilization, and
    /// every produced witness must be *valid* (its labels really change
    /// and its cycle really closes when replayed) — the two explorers may
    /// legitimately find different witnesses of the same oscillation.
    #[test]
    fn packed_verifier_agrees_with_naive(seed in 0u64..10_000, kind in 0usize..4, q in 2u64..4, r in 1u8..4) {
        let graph = verify_topology_of(kind);
        let n = graph.node_count();
        // Keep |Σ|^E · rⁿ exhaustively explorable: wide graphs get the
        // Boolean alphabet.
        let q = if graph.edge_count() > 4 { 2 } else { q };
        let (_, p) = protocol_pair(&graph, q);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7e51f);
        let inputs: Vec<u64> = (0..n).map(|_| rng.random_range(0u64..3)).collect();
        let alphabet: Vec<u64> = (0..q).collect();
        let limits = Limits { max_states: 500_000, ..Limits::default() };

        let fast = verify_label_stabilization(&p, &inputs, &alphabet, r, limits.clone()).unwrap();
        let naive = verify_label_stabilization_naive(&p, &inputs, &alphabet, r, limits.clone()).unwrap();
        prop_assert_eq!(fast.is_stabilizing(), naive.is_stabilizing(), "label verdicts");
        for v in [&fast, &naive] {
            if let Verdict::NotStabilizing(w) = v {
                let (labels_changed, _, closed) = replay_witness(&p, &inputs, w);
                prop_assert!(labels_changed, "label witness must change labels");
                prop_assert!(closed, "label witness must close its cycle");
            }
        }

        let fast_o = verify_output_stabilization(&p, &inputs, &alphabet, r, limits.clone()).unwrap();
        let naive_o = verify_output_stabilization_naive(&p, &inputs, &alphabet, r, limits).unwrap();
        prop_assert_eq!(fast_o.is_stabilizing(), naive_o.is_stabilizing(), "output verdicts");
        for v in [&fast_o, &naive_o] {
            if let Verdict::NotStabilizing(w) = v {
                let (_, outputs_changed, closed) = replay_witness(&p, &inputs, w);
                prop_assert!(outputs_changed, "output witness must change outputs");
                prop_assert!(closed, "output witness must close its cycle");
            }
        }
    }

    /// The parallel product explorer is **deterministic in the thread
    /// count**: verdicts, witnesses (bit for bit — labeling and schedule,
    /// not just validity), and the explored state/edge counts are
    /// identical at 1, 2, and 4 workers, for both label and output
    /// stabilization, on random protocols, topologies, and fairness
    /// bounds. This is the hard invariant of the sharded-interning
    /// design, not a best-effort property.
    #[test]
    fn packed_verifier_identical_across_thread_counts(seed in 0u64..10_000, kind in 0usize..4, q in 2u64..4, r in 1u8..4) {
        let graph = verify_topology_of(kind);
        let n = graph.node_count();
        let q = if graph.edge_count() > 4 { 2 } else { q };
        let (_, p) = protocol_pair(&graph, q);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3a11e1);
        let inputs: Vec<u64> = (0..n).map(|_| rng.random_range(0u64..3)).collect();
        let alphabet: Vec<u64> = (0..q).collect();
        let at = |threads: usize| {
            let limits = Limits { max_states: 500_000, threads, ..Limits::default() };
            let label =
                verify_label_stabilization_with_stats(&p, &inputs, &alphabet, r, limits.clone())
                    .unwrap();
            let output = verify_output_stabilization(&p, &inputs, &alphabet, r, limits).unwrap();
            (label, output)
        };
        let sequential = at(1);
        for threads in test_threads() {
            let parallel = at(threads);
            prop_assert_eq!(&sequential.0 .0, &parallel.0 .0, "label verdict+witness, {} threads", threads);
            prop_assert_eq!(sequential.0 .1, parallel.0 .1, "explore stats, {} threads", threads);
            prop_assert_eq!(&sequential.1, &parallel.1, "output verdict+witness, {} threads", threads);
        }
    }

    /// A dense activation-set workload (a clique protocol where no node
    /// is deadline-forced initially, so every state fans out into
    /// `2^n − 1` activation edges) that exceeds [`Limits::max_edges`]
    /// must surface as [`VerifyError::TooManyEdges`] — never a panic or
    /// an OOM grind — at one and several workers.
    #[test]
    fn edge_cap_trips_cleanly_on_dense_activation_sets(r in 2u8..4, max_edges in 16usize..200) {
        let graph = topology::clique(4);
        let (_, p) = protocol_pair(&graph, 2);
        let inputs = vec![0u64; 4];
        for threads in [1usize, 4] {
            let limits = Limits { max_edges, threads, ..Limits::default() };
            let err = verify_label_stabilization(&p, &inputs, &[0, 1], r, limits)
                .unwrap_err();
            prop_assert_eq!(
                err,
                VerifyError::TooManyEdges { limit: max_edges },
                "threads = {}", threads
            );
        }
    }

    /// Symmetry-quotient exploration (`SymmetryMode::Auto`) ≡ the full
    /// unquotiented explorer on random node-symmetric protocols over
    /// ring and hypercube topologies: identical verdicts for label and
    /// output r-stabilization across the swept fairness bounds, a state
    /// space that never grows, every quotient witness valid on the
    /// **unquotiented** system — and the quotient run itself
    /// bit-identical across 1/2/4(/`STATELESS_TEST_THREADS`) workers.
    #[test]
    fn quotient_verifier_agrees_with_full(seed in 0u64..10_000, kind in 0usize..4, q in 2u64..4, r in 1u8..4) {
        let graph = quotient_topology_of(kind);
        let n = graph.node_count();
        let q = if graph.edge_count() > 4 { 2 } else { q };
        let p = symmetric_protocol(&graph, q, seed);
        // Uniform inputs keep the automorphism group alive (asymmetric
        // inputs degrade Auto to the identity, which the `Off` arm
        // already covers).
        let inputs = vec![0u64; n];
        let alphabet: Vec<u64> = (0..q).collect();
        let full_limits = Limits { max_states: 500_000, ..Limits::default() };
        let full =
            verify_label_stabilization_with_stats(&p, &inputs, &alphabet, r, full_limits.clone())
                .unwrap();
        let full_o =
            verify_output_stabilization(&p, &inputs, &alphabet, r, full_limits.clone()).unwrap();
        let at = |threads: usize| {
            let limits = Limits {
                threads,
                symmetry: SymmetryMode::Auto,
                ..full_limits.clone()
            };
            let label =
                verify_label_stabilization_with_stats(&p, &inputs, &alphabet, r, limits.clone())
                    .unwrap();
            let output = verify_output_stabilization(&p, &inputs, &alphabet, r, limits).unwrap();
            (label, output)
        };
        let base = at(1);
        prop_assert_eq!(base.0 .0.is_stabilizing(), full.0.is_stabilizing(), "label verdicts");
        prop_assert_eq!(base.1.is_stabilizing(), full_o.is_stabilizing(), "output verdicts");
        prop_assert!(
            base.0 .1.states <= full.1.states,
            "quotient interned {} states, full {}",
            base.0 .1.states, full.1.states
        );
        if let Verdict::NotStabilizing(w) = &base.0 .0 {
            let (labels_changed, _, closed) = replay_witness(&p, &inputs, w);
            prop_assert!(labels_changed, "quotient label witness must change labels");
            prop_assert!(closed, "quotient label witness must close its cycle");
        }
        if let Verdict::NotStabilizing(w) = &base.1 {
            let (_, outputs_changed, closed) = replay_witness(&p, &inputs, w);
            prop_assert!(outputs_changed, "quotient output witness must change outputs");
            prop_assert!(closed, "quotient output witness must close its cycle");
        }
        for threads in test_threads() {
            prop_assert_eq!(&base, &at(threads), "{} threads", threads);
        }
    }

    /// Every `NotStabilizing` witness of the packed explorer, replayed
    /// via `Scripted::cycle`, oscillates: labels change within the lap
    /// and the labeling closes the cycle (the generalization of the
    /// hand-written `witness_schedule_really_oscillates` test to random
    /// protocols).
    #[test]
    fn verifier_witness_replays_as_oscillation(seed in 0u64..10_000, kind in 0usize..4, r in 1u8..4) {
        let graph = verify_topology_of(kind);
        let n = graph.node_count();
        let (_, p) = protocol_pair(&graph, 2);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9b1d);
        let inputs: Vec<u64> = (0..n).map(|_| rng.random_range(0u64..3)).collect();
        let limits = Limits { max_states: 500_000, ..Limits::default() };
        let verdict = verify_label_stabilization(&p, &inputs, &[0, 1], r, limits).unwrap();
        if let Verdict::NotStabilizing(w) = verdict {
            prop_assert!(!w.schedule.is_empty());
            prop_assert!(w.schedule.iter().all(|step| !step.is_empty()));
            let (labels_changed, _, closed) = replay_witness(&p, &inputs, &w);
            prop_assert!(labels_changed, "witness labels oscillate");
            prop_assert!(closed, "witness cycle closes");
        }
    }
}

/// The edge-less verifier's memory win, pinned end to end on the
/// clique(4) dense-activation regression (the same instance whose CSR
/// made `TooManyEdges` the binding limit): the **peak transient** edge
/// bytes the verifier ever holds ([`ExploreStats::edge_bytes`] — the
/// largest per-batch record buffer of exploration; the SCC pass and the
/// witness search store no edges) must stay below half of what storing
/// the full product CSR used to cost. The old figure is
/// computed from the stats in the exact layout the pre-oracle verifier
/// kept resident: `states + 1` offsets at 8 bytes, and targets plus
/// activation metadata at 8 bytes per edge (exploration generates each
/// edge exactly once, so `ExploreStats::edges` is the CSR's edge count).
#[test]
fn edgeless_verifier_peak_transient_stays_below_half_the_old_csr() {
    let graph = topology::clique(4);
    let (_, p) = protocol_pair(&graph, 2);
    let inputs = vec![0u64; 4];
    let alphabet = [0u64, 1];
    for r in [2u8, 3] {
        let (_, stats) =
            verify_label_stabilization_with_stats(&p, &inputs, &alphabet, r, Limits::default())
                .unwrap();
        let old_csr_bytes = (stats.states + 1) * 8 + stats.edges * 8;
        assert!(
            stats.edge_bytes * 2 < old_csr_bytes,
            "r = {r}: peak transient edge bytes ({}) must stay below half the \
             old stored-CSR bytes ({old_csr_bytes}) on clique(4)",
            stats.edge_bytes
        );
        assert!(
            stats.edge_bytes > 0,
            "r = {r}: the peak must be tracked, not dropped"
        );
    }
}

/// The verifier's work after exploration, pinned end to end: exploration
/// expands every state once, and the Tarjan pass regenerates each
/// state's edges once more (`tests/scc.rs` counts those oracle calls per
/// state). Both read the instance's reaction table, so a Stabilizing,
/// fault-free, symmetry-`Off` query with no checkpoint calls the
/// reaction exactly once per table entry, `Σᵥ |Σ|^indeg(v)`, at every
/// thread count. The instance has 15 nodes with edges `1…14 → 0` and
/// `0 → 1`: node 0 alone has 2^14 Boolean in-labelings, so the table
/// holds 16,399 entries, while reacting in both passes would take
/// `2 · n · states` = 983,040 calls over the 2^15 states at `r = 1`.
/// Every node writes `false`.
#[test]
fn stabilizing_query_regenerates_its_edges_once_after_exploration() {
    let mut fan_in = DiGraph::new(15);
    for v in 1..15 {
        fan_in.add_edge(v, 0).unwrap();
    }
    fan_in.add_edge(0, 1).unwrap();
    let entries: usize = (0..15).map(|v| 1 << fan_in.in_degree(v)).sum();
    assert_eq!(entries, 16_399);
    for threads in [1, 2] {
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        let p = Protocol::builder(fan_in.clone(), 1.0)
            .uniform_reaction(FnReaction::new(move |_, _: &[bool], _| {
                counter.fetch_add(1, Ordering::Relaxed);
                (vec![false], 0)
            }))
            .build()
            .unwrap();
        let limits = Limits {
            threads,
            ..Limits::default()
        };
        let (verdict, stats) =
            verify_label_stabilization_with_stats(&p, &[0; 15], &[false, true], 1, limits).unwrap();
        assert!(verdict.is_stabilizing(), "{verdict:?}");
        assert_eq!(stats.states, 1 << 15);
        assert_eq!(calls.load(Ordering::Relaxed), entries, "{threads} threads");
    }
}

/// A query tabulates each node's reaction once per in-labeling, faulty
/// nodes included, and every later step reads that one table —
/// exploration, Tarjan and the witness search, symmetry validation, the
/// instance key behind checkpoints and the verdict cache, and resumes.
/// So every query makes exactly `Σᵥ |Σ|^indeg(v)` calls, whatever `r`,
/// the thread count, the query mode, the symmetry mode, the fault
/// placement, the checkpoint policy or deadline, or whether the cache
/// misses, hits or resumes: `2n` on the Boolean unidirectional ring, and
/// 16,399 on the 15-node fan-in of
/// `stabilizing_query_regenerates_its_edges_once_after_exploration`.
/// With `copy` every node writes its first in-label (`false` when it has
/// none), so the fan-in's nodes 0 and 1 swap their labels forever;
/// without it every node writes `false`.
#[test]
fn tabled_reactions_run_once_per_entry() {
    let dir = std::env::temp_dir().join(format!("stateless-once-per-entry-{}", std::process::id()));
    let mut fan_in = DiGraph::new(15);
    for v in 1..15 {
        fan_in.add_edge(v, 0).unwrap();
    }
    fan_in.add_edge(0, 1).unwrap();
    let instances = [
        (topology::unidirectional_ring(4), 1..=3u8),
        (topology::unidirectional_ring(5), 1..=3),
        (fan_in, 1..=1),
    ];
    for (graph, rs) in instances {
        let n = graph.node_count();
        let entries: usize = (0..n).map(|v| 1 << graph.in_degree(v)).sum();
        for r in rs {
            for threads in [1, 2] {
                for copy in [false, true] {
                    let calls = Arc::new(AtomicUsize::new(0));
                    let counter = Arc::clone(&calls);
                    let p = Protocol::builder(graph.clone(), 1.0)
                        .uniform_reaction(FnReaction::new(move |_, inc: &[bool], _| {
                            counter.fetch_add(1, Ordering::Relaxed);
                            (vec![copy && inc.first() == Some(&true)], 0)
                        }))
                        .build()
                        .unwrap();
                    let once = |query: &str| {
                        assert_eq!(
                            calls.swap(0, Ordering::Relaxed),
                            entries,
                            "{query}: n = {n}, r = {r}, {threads} threads, copy = {copy}"
                        );
                    };
                    let (inputs, alphabet) = (vec![0; n], [false, true]);
                    let byz = FaultModel::byzantine(&[1]).unwrap();
                    let at = |symmetry, faults| Limits {
                        threads,
                        symmetry,
                        faults,
                        ..Limits::default()
                    };
                    let plain = at(SymmetryMode::Off, FaultModel::none());
                    let saved = |every_states, deadline| {
                        let _ = std::fs::remove_dir_all(&dir);
                        Limits {
                            checkpoint: Some(CheckpointPolicy {
                                every_states,
                                ..CheckpointPolicy::new(&dir)
                            }),
                            deadline,
                            ..plain.clone()
                        }
                    };
                    let label = |limits: Limits| {
                        verify_label_stabilization(&p, &inputs, &alphabet, r, limits).unwrap()
                    };
                    assert_eq!(label(plain.clone()).is_stabilizing(), !copy);
                    once("label");
                    let output =
                        verify_output_stabilization(&p, &inputs, &alphabet, r, plain.clone());
                    assert!(output.unwrap().is_stabilizing(), "n = {n}, r = {r}");
                    once("output");
                    let auto = at(SymmetryMode::Auto, FaultModel::none());
                    assert_eq!(label(auto).is_stabilizing(), !copy);
                    once("Auto");
                    label(at(SymmetryMode::Off, byz));
                    once("Byzantine {1}");
                    label(at(SymmetryMode::Auto, byz));
                    once("Auto, Byzantine {1}");
                    assert_eq!(label(saved(Some(4), None)).is_stabilizing(), !copy);
                    once("checkpoint every 4 states");
                    let deadline = Some(Duration::from_nanos(1));
                    assert!(label(saved(None, deadline)).is_partial());
                    once("1 ns deadline");
                    let (resumed, _) = verify_label_stabilization_resumed(
                        &p,
                        &inputs,
                        &alphabet,
                        r,
                        plain.clone(),
                        &dir,
                    )
                    .unwrap();
                    assert_eq!(resumed.is_stabilizing(), !copy);
                    once("resume");
                    let cache = VerdictCache::in_memory(DEFAULT_BYTE_BUDGET);
                    let cached = |limits: &Limits| {
                        cache
                            .verify_label(&p, &inputs, &alphabet, r, limits)
                            .unwrap()
                    };
                    for outcome in [CacheOutcome::Miss, CacheOutcome::Hit] {
                        assert_eq!(cached(&plain).outcome, outcome);
                        once(outcome.as_str());
                    }
                    let got = cached(&at(SymmetryMode::Auto, byz));
                    assert_eq!(got.outcome, CacheOutcome::Miss);
                    once("miss, Auto, Byzantine {1}");
                    let cache = VerdictCache::in_memory(DEFAULT_BYTE_BUDGET);
                    let partial = cache
                        .verify_label(&p, &inputs, &alphabet, r, &saved(None, deadline))
                        .unwrap();
                    assert!(partial.verdict.is_partial());
                    once("cached 1 ns deadline");
                    let resumed = cache
                        .verify_label(&p, &inputs, &alphabet, r, &plain)
                        .unwrap();
                    assert_eq!(resumed.outcome, CacheOutcome::Resumed);
                    assert_eq!(resumed.verdict.is_stabilizing(), !copy);
                    once("cache resume");
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
