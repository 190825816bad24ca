//! The state numbering is pinned across versions. Dense state ids decide
//! the canonical edge order, the component numbering, and so which
//! interesting edge anchors a witness. These literals were produced by
//! the build that numbered states through 64 fingerprint shards and a
//! heap merge; the current explorer numbers each state when it is first
//! interned, and must give the same verdicts, witnesses and stats.
//!
//! `edge_bytes` is the one figure that moved: a successor record lost its
//! 8-byte stream key, so the peak transient is the same number of
//! records, each 8 bytes smaller.

use stateless_computation::core::prelude::*;
use stateless_computation::protocols::bfs_tree::{bfs_alphabet, bfs_tree_protocol};
use stateless_computation::verify::{
    verify_label_stabilization_with_stats, verify_output_stabilization_with_stats, CycleWitness,
    ExploreStats, Limits, SymmetryMode, Verdict,
};

fn rotate_ring(n: usize) -> Protocol<bool> {
    Protocol::builder(topology::unidirectional_ring(n), 1.0)
        .uniform_reaction(FnReaction::new(|_, inc: &[bool], _| (vec![inc[0]], 42)))
        .build()
        .unwrap()
}

/// Asserts `got` against the pinned verdict and `(states, edges,
/// words_per_state, state_bytes)`, and that `edge_bytes` is the pinned
/// peak with 8 bytes fewer per record of `record_bytes` bytes.
fn check<L: Label>(
    name: &str,
    got: (Verdict<L>, ExploreStats),
    verdict: Verdict<L>,
    stats: (usize, usize, usize, usize),
    keyed_edge_bytes: usize,
    record_bytes: usize,
) {
    let (v, s) = got;
    assert_eq!(v, verdict, "{name}: verdict");
    assert_eq!(
        (s.states, s.edges, s.words_per_state, s.state_bytes),
        stats,
        "{name}: stats"
    );
    assert_eq!(keyed_edge_bytes % record_bytes, 0, "{name}: whole records");
    assert_eq!(
        s.edge_bytes,
        keyed_edge_bytes / record_bytes * (record_bytes - 8),
        "{name}: edge_bytes"
    );
}

#[test]
fn rotation_ring_numbering_is_pinned() {
    let p = rotate_ring(5);
    let run = |output: bool, symmetry: SymmetryMode| {
        let limits = Limits {
            symmetry,
            ..Limits::default()
        };
        if output {
            verify_output_stabilization_with_stats(&p, &[0; 5], &[false, true], 2, limits)
        } else {
            verify_label_stabilization_with_stats(&p, &[0; 5], &[false, true], 2, limits)
        }
        .unwrap()
    };
    // Label mode: 24-byte records (key, fingerprint, one packed word).
    check(
        "label/off",
        run(false, SymmetryMode::Off),
        Verdict::NotStabilizing(CycleWitness {
            labeling: vec![true, false, false, false, false],
            schedule: vec![
                vec![1],
                vec![0, 2, 3, 4],
                vec![1],
                vec![0, 2, 3, 4],
                vec![1, 3, 4],
                vec![0, 1, 2, 3, 4],
            ],
            adversary: vec![vec![], vec![], vec![], vec![], vec![], vec![]],
        }),
        (432, 3872, 1, 3456),
        69120,
        24,
    );
    check(
        "label/auto",
        run(false, SymmetryMode::Auto),
        Verdict::NotStabilizing(CycleWitness {
            labeling: vec![false, false, false, false, true],
            schedule: vec![
                vec![0],
                vec![1, 2, 3, 4],
                vec![0],
                vec![0, 1, 2, 3, 4],
                vec![3],
                vec![0, 1, 2, 4],
                vec![3],
                vec![0, 1, 2, 3, 4],
                vec![1],
                vec![0, 2, 3, 4],
                vec![1],
                vec![0, 1, 2, 3, 4],
                vec![4],
                vec![0, 1, 2, 3],
                vec![4],
                vec![0, 1, 2, 3, 4],
                vec![2],
                vec![0, 1, 3, 4],
                vec![2],
                vec![0, 1, 2, 3, 4],
            ],
            adversary: vec![
                vec![],
                vec![],
                vec![],
                vec![],
                vec![],
                vec![],
                vec![],
                vec![],
                vec![],
                vec![],
                vec![],
                vec![],
                vec![],
                vec![],
                vec![],
                vec![],
                vec![],
                vec![],
                vec![],
                vec![],
            ],
        }),
        (88, 824, 1, 704),
        13824,
        24,
    );
    // Output mode: 64-byte records (five output words ride along).
    check(
        "output/off",
        run(true, SymmetryMode::Off),
        Verdict::Stabilizing,
        (864, 7744, 1, 41472),
        247808,
        64,
    );
    check(
        "output/auto",
        run(true, SymmetryMode::Auto),
        Verdict::Stabilizing,
        (176, 1648, 1, 8448),
        52736,
        64,
    );
}

#[test]
fn byzantine_bfs_numbering_is_pinned() {
    let alphabet = bfs_alphabet(2);
    // f = 1 Byzantine BFS biring n = 4, cap 2, r = 1, node 1 faulty.
    let p = bfs_tree_protocol(topology::bidirectional_ring(4), 0, 2, FaultModel::none()).unwrap();
    let limits = Limits {
        faults: FaultModel::byzantine(&[1]).unwrap(),
        ..Limits::default()
    };
    check(
        "biring4/r1/byz1",
        verify_label_stabilization_with_stats(&p, &[0; 4], &alphabet, 1, limits.clone()).unwrap(),
        Verdict::NotStabilizing(CycleWitness {
            labeling: vec![0, 1, 1, 1, 0, 0, 1, 1],
            schedule: vec![vec![0, 1, 2, 3], vec![0, 1, 2, 3]],
            adversary: vec![vec![(1, vec![0, 0])], vec![(1, vec![1, 0])]],
        }),
        (6561, 59049, 1, 52488),
        157464,
        24,
    );
    // r = 2 on the path of three nodes, node 1 faulty.
    let p = bfs_tree_protocol(topology::bidirectional_path(3), 0, 2, FaultModel::none()).unwrap();
    check(
        "path3/r2/byz1",
        verify_label_stabilization_with_stats(&p, &[0; 3], &alphabet, 2, limits).unwrap(),
        Verdict::NotStabilizing(CycleWitness {
            labeling: vec![0, 0, 1, 1],
            schedule: vec![vec![2], vec![0, 1], vec![0, 1, 2]],
            adversary: vec![vec![], vec![(1, vec![0, 0])], vec![(1, vec![0, 1])]],
        }),
        (306, 6885, 1, 2448),
        61776,
        24,
    );
}
