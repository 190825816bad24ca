//! Graph-oracle suite for `stateless_core::scc`: `condense` must produce
//! the **same components in the same canonical numbering** as a
//! definition-level reference (u and v share a component iff each
//! reaches the other, components numbered by minimum member id), and the
//! same **marked edge** as brute force (the least `(source, edge index)`
//! marked edge whose endpoints share a reference component), on random
//! CSR digraphs from two generator families (Erdős–Rényi, including
//! self-loops, and layered DAGs of cliques) with seeded random marks,
//! plus fixed regression graphs and one fixed graph for each way Tarjan
//! closes an edge. The CSR arrays reach `condense` through `from_fn`,
//! the same regenerate-on-demand shape the verifier's oracle has, and
//! that oracle counts its calls: `condense` must ask for each state's
//! successors exactly once, since the verifier regenerates a state's
//! edges on every call.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use stateless_computation::core::scc::{condense, from_fn, Condensation};

/// CSR arrays from an explicit edge list over `n` states.
fn csr(n: usize, edges: &[(u32, u32)]) -> (Vec<usize>, Vec<u32>) {
    let mut offsets = vec![0usize; n + 1];
    for &(u, _) in edges {
        offsets[u as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor = offsets[..n].to_vec();
    let mut targets = vec![0u32; edges.len()];
    for &(u, v) in edges {
        targets[cursor[u as usize]] = v;
        cursor[u as usize] += 1;
    }
    (offsets, targets)
}

/// The components by definition: u and v share one iff each reaches
/// the other, found by one BFS per state over the CSR arrays; numbered
/// canonically, by minimum member id. Quadratic, and independent of any
/// SCC algorithm.
fn reference(offsets: &[usize], targets: &[u32]) -> Vec<u32> {
    let n = offsets.len() - 1;
    let reach: Vec<Vec<bool>> = (0..n)
        .map(|src| {
            let mut seen = vec![false; n];
            seen[src] = true;
            let mut queue = std::collections::VecDeque::from([src]);
            while let Some(u) = queue.pop_front() {
                for &v in &targets[offsets[u]..offsets[u + 1]] {
                    if !std::mem::replace(&mut seen[v as usize], true) {
                        queue.push_back(v as usize);
                    }
                }
            }
            seen
        })
        .collect();
    let mut comp = vec![u32::MAX; n];
    let mut next = 0;
    for u in 0..n {
        if comp[u] != u32::MAX {
            continue;
        }
        for v in u..n {
            if reach[u][v] && reach[v][u] {
                comp[v] = next;
            }
        }
        next += 1;
    }
    comp
}

/// Condenses the digraph of an explicit edge list over `n` states, edge
/// `i` marked iff `marks[i]`. An edge's index at its source is its rank
/// among the list's edges from that source.
fn condense_marked(n: usize, edges: &[(u32, u32)], marks: &[bool]) -> Condensation {
    let mut adj = vec![Vec::new(); n];
    for (&(u, v), &mark) in edges.iter().zip(marks) {
        adj[u as usize].push((v, mark));
    }
    condense(&mut from_fn(n, |u, out| {
        out.clear();
        out.extend_from_slice(&adj[u as usize]);
    }))
}

/// Asserts `condense` ≡ [`reference`] — same components, same canonical
/// numbering — and, under a mark per edge drawn from `seed` (at a density
/// also drawn from it), the same marked edge as brute force: the first
/// marked edge in `(source, edge index)` order whose endpoints share a
/// reference component. Also asserts that `condense` asked for every
/// state's successors exactly once. Returns the component vector for
/// further shape assertions.
fn assert_matches_reference(n: usize, edges: &[(u32, u32)], seed: u64) -> Vec<u32> {
    let (offsets, targets) = csr(n, edges);
    let expected = reference(&offsets, &targets);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6d61_726b);
    let density = [0.0, 0.01, 0.05, 0.2, 0.5, 1.0][rng.random_range(0..6usize)];
    let marks: Vec<bool> = (0..targets.len())
        .map(|_| rng.random_bool(density))
        .collect();
    let marked = (0..n).find_map(|u| {
        (offsets[u]..offsets[u + 1])
            .find(|&e| marks[e] && expected[u] == expected[targets[e] as usize])
            .map(|e| (u as u32, e - offsets[u]))
    });
    let mut asked = vec![0usize; n];
    let got = condense(&mut from_fn(n, |u, out| {
        asked[u as usize] += 1;
        let range = offsets[u as usize]..offsets[u as usize + 1];
        out.clear();
        out.extend(
            targets[range.clone()]
                .iter()
                .zip(&marks[range])
                .map(|(&v, &m)| (v, m)),
        );
    }));
    assert_eq!(
        got.comp,
        expected,
        "condense diverged from the reachability reference (n = {n}, {} edges)",
        edges.len()
    );
    assert_eq!(
        got.marked,
        marked,
        "condense reported the wrong marked edge (n = {n}, {} edges, density {density})",
        edges.len()
    );
    assert_eq!(
        asked,
        vec![1; n],
        "condense must ask each state once (n = {n}, {} edges)",
        edges.len()
    );
    expected
}

/// Erdős–Rényi digraph on `n` states: every ordered pair — including
/// self-loops, which the product graphs this module serves do contain —
/// is an edge with probability `p`.
fn erdos_renyi(rng: &mut StdRng, n: usize, p: f64) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            if rng.random_bool(p) {
                edges.push((u, v));
            }
        }
    }
    edges
}

/// Layered DAG of cliques: `layers` layers of bidirectional-clique
/// blocks of `width` states (each block one SCC), with every
/// consecutive-layer state pair connected forward with probability
/// `0.5` — many same-size components, each reached from the one
/// before it.
fn layered_cliques(rng: &mut StdRng, layers: usize, width: usize) -> (usize, Vec<(u32, u32)>) {
    let n = layers * width;
    let mut edges = Vec::new();
    for l in 0..layers {
        let base = (l * width) as u32;
        for a in 0..width as u32 {
            for b in 0..width as u32 {
                if a != b {
                    edges.push((base + a, base + b));
                }
            }
        }
        if l + 1 < layers {
            for a in 0..width as u32 {
                for b in 0..width as u32 {
                    if rng.random_bool(0.5) {
                        edges.push((base + a, base + width as u32 + b));
                    }
                }
            }
        }
    }
    (n, edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Erdős–Rényi graphs across the density spectrum — sparse graphs
    /// are mostly singletons, dense ones collapse into few giant SCCs.
    #[test]
    fn erdos_renyi_matches_tarjan(seed in 0u64..100_000, n in 1usize..40, permille in 5u64..250) {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges = erdos_renyi(&mut rng, n, permille as f64 / 1000.0);
        assert_matches_reference(n, &edges, seed);
    }

    /// Layered DAGs of cliques: the condensation must recover exactly
    /// one component per clique block, numbered by layer.
    #[test]
    fn layered_cliques_match_tarjan(seed in 0u64..100_000, layers in 1usize..6, width in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc11c);
        let (n, edges) = layered_cliques(&mut rng, layers, width);
        let comp = assert_matches_reference(n, &edges, seed);
        // Each width-block is one SCC; canonical numbering orders the
        // blocks by their first state, i.e. by layer.
        let expected: Vec<u32> = (0..n).map(|u| (u / width) as u32).collect();
        prop_assert_eq!(comp, expected);
    }
}

#[test]
fn empty_graph() {
    assert_eq!(assert_matches_reference(0, &[], 0), Vec::<u32>::new());
}

#[test]
fn self_loops_are_kept_out_of_the_trim() {
    // 0 →(loop) 0 → 1 → 2(loop): self-loops make real one-state SCCs
    // beside the loop-free singleton 1. The partition is all-singletons
    // either way — the point is that nothing panics or misnumbers.
    let comp = assert_matches_reference(3, &[(0, 0), (0, 1), (1, 2), (2, 2)], 1);
    assert_eq!(comp, vec![0, 1, 2]);
}

#[test]
fn two_cycles() {
    // Two disjoint 2-cycles plus a bridge: exactly two components.
    let comp = assert_matches_reference(4, &[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)], 2);
    assert_eq!(comp, vec![0, 0, 1, 1]);
}

#[test]
fn single_giant_scc() {
    // A 512-cycle with chords: one component containing every state.
    let n = 512u32;
    let mut edges: Vec<(u32, u32)> = (0..n).map(|u| (u, (u + 1) % n)).collect();
    edges.extend((0..n).step_by(7).map(|u| (u, (u + n / 2) % n)));
    let comp = assert_matches_reference(n as usize, &edges, 3);
    assert!(comp.iter().all(|&c| c == 0), "one giant component");
}

#[test]
fn long_one_way_tail() {
    // A 2-cycle feeding a 39-state one-way tail: the DFS path runs the
    // whole tail deep before any frame pops, and every tail state comes
    // out as its own singleton.
    let mut edges = vec![(0u32, 1u32), (1, 0), (1, 2)];
    edges.extend((2..40u32).map(|u| (u, u + 1)));
    let comp = assert_matches_reference(41, &edges, 6);
    let expected: Vec<u32> = [0].into_iter().chain(0..40).collect();
    assert_eq!(comp, expected);
}

#[test]
fn max_id_isolated_state() {
    // The highest state id has no edges at all; the rest form a cycle.
    // Guards the offsets/degree bookkeeping at the array boundary.
    let comp = assert_matches_reference(5, &[(0, 1), (1, 2), (2, 3), (3, 0)], 4);
    assert_eq!(comp, vec![0, 0, 0, 0, 1]);
}

#[test]
fn pure_dag_numbering_is_the_identity() {
    // On a DAG every state is its own component and the canonical
    // numbering (by minimum member id) is the identity permutation.
    let comp = assert_matches_reference(6, &[(0, 2), (1, 2), (2, 3), (2, 4), (4, 5)], 5);
    assert_eq!(comp, vec![0, 1, 2, 3, 4, 5]);
}

// One fixed graph per way Tarjan closes a marked edge. The DFS starts at
// state 0 and follows each state's edges in list order.

#[test]
fn marked_self_loop_is_intra() {
    // 0 → 1 →(loop) 1 → 2: the self-loop closes into a state on the stack.
    let got = condense_marked(3, &[(0, 1), (1, 1), (1, 2)], &[false, true, false]);
    assert_eq!(got.comp, vec![0, 1, 2]);
    assert_eq!(got.marked, Some((1, 0)));
}

#[test]
fn marked_back_edge_is_intra() {
    // 0 → 1 → 2 → 0: 2 → 0 is a back edge into the DFS root.
    let got = condense_marked(3, &[(0, 1), (1, 2), (2, 0)], &[false, false, true]);
    assert_eq!(got.comp, vec![0, 0, 0]);
    assert_eq!(got.marked, Some((2, 0)));
}

#[test]
fn marked_edge_into_a_finished_frame_still_on_the_stack_is_intra() {
    // 0 → 1 → 0 finishes 1's frame with 1 still on the Tarjan stack
    // (its low-link reaches 0); then 0 → 2 → 1 is a cross edge into it.
    let got = condense_marked(
        3,
        &[(0, 1), (0, 2), (1, 0), (2, 1)],
        &[false, false, false, true],
    );
    assert_eq!(got.comp, vec![0, 0, 0]);
    assert_eq!(got.marked, Some((2, 0)));
}

#[test]
fn marked_tree_edge_whose_child_stays_on_the_stack_is_intra() {
    // 0 → 1 → 0: when 1's frame pops, 1 is still on the stack, so the
    // tree edge 0 → 1 stays inside the component.
    let got = condense_marked(2, &[(0, 1), (1, 0)], &[true, false]);
    assert_eq!(got.comp, vec![0, 0]);
    assert_eq!(got.marked, Some((0, 0)));
}

#[test]
fn marked_tree_edge_into_a_component_that_completes_first_is_not_intra() {
    // 0 ⇄ 3 and 1 ⇄ 2, joined by the marked tree edge 0 → 1: the
    // component {1, 2} completes when 1's frame pops, before 0's does.
    let got = condense_marked(
        4,
        &[(0, 1), (0, 3), (1, 2), (2, 1), (3, 0)],
        &[true, false, false, false, false],
    );
    assert_eq!(got.comp, vec![0, 1, 1, 0]);
    assert_eq!(got.marked, None);
}

#[test]
fn marked_edge_into_an_earlier_completed_component_is_not_intra() {
    // The DFS from 0 completes {0, 1}; the DFS from 2 then meets the
    // marked edge 2 → 0 into that finished component.
    let got = condense_marked(
        4,
        &[(0, 1), (1, 0), (2, 0), (2, 3), (3, 2)],
        &[false, false, true, false, false],
    );
    assert_eq!(got.comp, vec![0, 0, 1, 1]);
    assert_eq!(got.marked, None);
}

#[test]
fn least_marked_edge_wins_whatever_order_tarjan_closes_it() {
    // 0 → 1 → 2 → 0, all marked: the back edge 2 → 0 closes first and
    // the tree edge 0 → 1 last, yet (0, 0) is the least.
    let got = condense_marked(3, &[(0, 1), (1, 2), (2, 0)], &[true; 3]);
    assert_eq!(got.marked, Some((0, 0)));
    // A later edge index at the same source loses to an earlier one.
    let got = condense_marked(
        3,
        &[(0, 2), (0, 1), (1, 0), (2, 0)],
        &[false, true, true, true],
    );
    assert_eq!(got.marked, Some((0, 1)));
}
