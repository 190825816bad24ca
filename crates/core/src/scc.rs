//! Strongly connected components of implicit digraphs behind a
//! **successor oracle**.
//!
//! The exact verifier in `stabilization-verify` never stores its product
//! graph: successors are regenerated on demand from the interned packed
//! state words. [`condense`] therefore computes the SCC condensation
//! against a [`SuccessorOracle`] — anything that can answer "how many
//! states?" and "overwrite this buffer with the edges of `u`" — so the
//! verifier and [`crate::graph::DiGraph`] share one implementation, and
//! [`from_fn`] turns any closure into an oracle.
//!
//! The engine is a serial iterative Tarjan: one depth-first pass that
//! asks the oracle for each state's successors exactly once. It is serial
//! by design: through a regenerating oracle every additional sweep costs
//! a full re-expansion of the graph, and a parallel trim +
//! Forward–Backward decomposition measured 1.3–5× slower than this one
//! pass on the verifier's product graphs, at one worker and at two.
//!
//! Every edge carries a mark, and the same pass reports the least
//! `(source, edge index)` marked edge inside a component
//! ([`Condensation::marked`]): the verifier marks label-changing edges,
//! so Theorem 3.1's question needs no second sweep. An edge `u → w` is
//! decided when it closes: it stays inside a component iff `w` is still
//! on the Tarjan stack — for a tree edge, once `w`'s frame has popped.
//!
//! # Determinism
//!
//! [`condense`] returns the **canonical** component numbering:
//! components are numbered by the smallest state id they contain, in
//! increasing order of that id (equivalently: by first occurrence when
//! scanning states `0, 1, 2, …`). That numbering depends only on the
//! component *partition* — a property of the graph, not of the DFS
//! order — which is what lets the verifier's witness search compare
//! component ids directly. The marked edge, too, is the least one
//! whatever order the DFS closes edges in.
//!
//! # Memory
//!
//! Nothing here materializes a forward or reverse CSR. The working set
//! is O(states) — component id, discovery index, low-link, and on-stack
//! flag per state, about 13 bytes — plus the edge buffers of the live
//! DFS call frames, bounded by the sum of out-degrees along one DFS path.
//! Edge storage is whatever the oracle itself holds; for the verifier
//! that is nothing beyond the packed states.
//!
//! Unlike [`crate::graph::DiGraph`], oracle graphs may contain
//! self-loops (the verifier's product graph does); a state with a
//! self-loop is a regular one-state SCC.

/// `comp` value of a state not yet assigned to any component.
const UNASSIGNED: u32 = u32::MAX;

/// A Tarjan call frame: state, edge buffer, cursor into it.
type Frame = (u32, Vec<(u32, bool)>, usize);

/// An implicit digraph with marked edges: `state_count()` states
/// addressed `0..n`, edges answered one source state at a time.
///
/// `successors` must **replace** the contents of `out` with the
/// `(target, marked)` edges of `u` (clear, then fill); an edge's index is
/// its position in that list. Duplicate targets and self-loops are
/// allowed; target ids must be `< state_count()`. The edge list of a
/// given state, marks included, must be identical on every call — the
/// condensation rests on the graph not shifting under it.
pub trait SuccessorOracle {
    /// Number of states; ids run `0..state_count()`.
    fn state_count(&self) -> usize;
    /// Overwrites `out` with the `(target, marked)` edges of `u`.
    fn successors(&mut self, u: u32, out: &mut Vec<(u32, bool)>);
}

/// Closure-backed oracle from [`from_fn`].
pub struct FnOracle<F> {
    n: usize,
    f: F,
}

/// Wraps a closure `f(u, &mut out)` (same overwrite contract as
/// [`SuccessorOracle::successors`]) over `n` states as an oracle — the
/// lightest way to condense a graph that exists only as a function.
pub fn from_fn<F: FnMut(u32, &mut Vec<(u32, bool)>)>(n: usize, f: F) -> FnOracle<F> {
    FnOracle { n, f }
}

impl<F: FnMut(u32, &mut Vec<(u32, bool)>)> SuccessorOracle for FnOracle<F> {
    fn state_count(&self) -> usize {
        self.n
    }

    fn successors(&mut self, u: u32, out: &mut Vec<(u32, bool)>) {
        (self.f)(u, out)
    }
}

/// What [`condense`] returns (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Condensation {
    /// Component id of every state, in the canonical numbering.
    pub comp: Vec<u32>,
    /// The least `(source, edge index)` marked edge whose endpoints share
    /// a component, if any.
    pub marked: Option<(u32, usize)>,
}

/// Computes the SCC condensation of an implicit digraph and its least
/// marked intra-component edge.
///
/// Serial iterative Tarjan: call frames own their materialized edge
/// buffers (generated once when the frame is pushed, recycled through a
/// spare pool), so transient memory is bounded by the sum of out-degrees
/// along one DFS path.
pub fn condense<O: SuccessorOracle + ?Sized>(oracle: &mut O) -> Condensation {
    let n = oracle.state_count();
    let mut comp = vec![UNASSIGNED; n];
    // Discovery indices, offset by one so 0 means "unvisited".
    let mut order = vec![0u32; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut call: Vec<Frame> = Vec::new();
    let mut spare: Vec<Vec<(u32, bool)>> = Vec::new();
    let mut next_order: u32 = 1;
    let mut comp_count: u32 = 0;
    let mut marked: Option<(u32, usize)> = None;
    for root in 0..n as u32 {
        if order[root as usize] != 0 {
            continue;
        }
        order[root as usize] = next_order;
        low[root as usize] = next_order;
        next_order += 1;
        stack.push(root);
        on_stack[root as usize] = true;
        let mut succs = spare.pop().unwrap_or_default();
        oracle.successors(root, &mut succs);
        call.push((root, succs, 0));
        while let Some(&mut (v, ref succs, ref mut cursor)) = call.last_mut() {
            let vu = v as usize;
            if *cursor < succs.len() {
                let k = *cursor;
                let (w, mark) = succs[k];
                let w = w as usize;
                *cursor += 1;
                if order[w] == 0 {
                    // A tree edge: decided when `w`'s frame pops.
                    order[w] = next_order;
                    low[w] = next_order;
                    next_order += 1;
                    stack.push(w as u32);
                    on_stack[w] = true;
                    let mut succs = spare.pop().unwrap_or_default();
                    oracle.successors(w as u32, &mut succs);
                    call.push((w as u32, succs, 0));
                } else if on_stack[w] {
                    low[vu] = low[vu].min(order[w]);
                    if mark {
                        marked = Some(marked.map_or((v, k), |best| best.min((v, k))));
                    }
                }
            } else {
                if low[vu] == order[vu] {
                    loop {
                        let w = stack.pop().expect("Tarjan stack holds v");
                        on_stack[w as usize] = false;
                        comp[w as usize] = comp_count;
                        if w == v {
                            break;
                        }
                    }
                    comp_count += 1;
                }
                let (_, buf, _) = call.pop().expect("frame present");
                spare.push(buf);
                if let Some(&mut (parent, ref succs, cursor)) = call.last_mut() {
                    let pu = parent as usize;
                    low[pu] = low[pu].min(low[vu]);
                    // The tree edge parent → v, at the parent's cursor − 1.
                    let edge = (parent, cursor - 1);
                    if on_stack[vu] && succs[edge.1].1 {
                        marked = Some(marked.map_or(edge, |best| best.min(edge)));
                    }
                }
            }
        }
    }
    canonicalize(&mut comp, comp_count);
    Condensation { comp, marked }
}

/// Renumbers raw component ids (each `< raw_count`) into the canonical
/// numbering: components in increasing order of their minimum state id.
fn canonicalize(comp: &mut [u32], raw_count: u32) {
    let mut remap = vec![UNASSIGNED; raw_count as usize];
    let mut next = 0u32;
    for c in comp.iter_mut() {
        debug_assert!(*c < raw_count, "every state is assigned");
        let slot = &mut remap[*c as usize];
        if *slot == UNASSIGNED {
            *slot = next;
            next += 1;
        }
        *c = *slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Condenses the digraph given by an explicit edge list over `n`
    /// states, every edge unmarked.
    fn comps(n: usize, edges: &[(u32, u32)]) -> Vec<u32> {
        let mut adj = vec![Vec::new(); n];
        for &(u, v) in edges {
            adj[u as usize].push((v, false));
        }
        let cond = condense(&mut from_fn(n, |u, out: &mut Vec<(u32, bool)>| {
            out.clear();
            out.extend_from_slice(&adj[u as usize]);
        }));
        assert_eq!(cond.marked, None, "no edge is marked");
        cond.comp
    }

    #[test]
    fn empty_graph_has_no_components() {
        assert_eq!(comps(0, &[]), Vec::<u32>::new());
    }

    #[test]
    fn isolated_states_are_singletons_in_id_order() {
        assert_eq!(comps(4, &[]), vec![0, 1, 2, 3]);
    }

    #[test]
    fn self_loop_is_a_singleton_component() {
        assert_eq!(comps(3, &[(0, 1), (1, 1), (1, 2)]), vec![0, 1, 2]);
    }

    #[test]
    fn cycle_is_one_component() {
        let comp = comps(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert_eq!(comp, vec![0; 5]);
    }

    #[test]
    fn two_cycles_bridged_are_two_components() {
        let comp = comps(4, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]);
        assert_eq!(comp, vec![0, 0, 1, 1]);
    }

    #[test]
    fn dag_numbering_is_identity() {
        // Canonical numbering orders components by minimum state id, so a
        // DAG of singletons numbers as the identity.
        let comp = comps(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(comp, vec![0, 1, 2, 3]);
    }

    #[test]
    fn trim_tail_into_cycle() {
        // 0 → 1 → {2 ⇄ 3} → 4: singleton ends around one 2-cycle.
        let comp = comps(5, &[(0, 1), (1, 2), (2, 3), (3, 2), (3, 4)]);
        assert_eq!(comp, vec![0, 1, 2, 2, 3]);
    }

    #[test]
    fn dag_of_cliques() {
        // Two 3-cliques (strongly connected) joined by one-way edges.
        let mut edges = Vec::new();
        for a in 0..3u32 {
            for b in 0..3u32 {
                if a != b {
                    edges.push((a, b));
                    edges.push((a + 3, b + 3));
                }
            }
        }
        edges.push((2, 3));
        edges.push((0, 4));
        assert_eq!(comps(6, &edges), vec![0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn long_dead_out_tail_exceeding_the_sweep_cap() {
        // A 2-cycle feeding a 39-state one-way tail: the DFS path runs
        // the whole tail deep before any frame pops, and every tail state
        // must come out as its own singleton.
        let mut edges = vec![(0u32, 1u32), (1, 0), (1, 2)];
        edges.extend((2..40u32).map(|u| (u, u + 1)));
        let comp = comps(41, &edges);
        assert_eq!(comp[0], 0);
        assert_eq!(comp[1], 0);
        let expected: Vec<u32> = (1..40).collect();
        assert_eq!(&comp[2..], &expected[..]);
    }
}
