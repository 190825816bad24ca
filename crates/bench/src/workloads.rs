//! Shared benchmark workloads: the reference protocols and schedules the
//! criterion benches and the `experiments --json` bench rows both
//! measure. One definition — so the committed `BENCH_engine.jsonl`, the
//! benches, and the acceptance numbers always time the same reactions.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stateless_core::prelude::*;

/// Max-propagation on the unidirectional ring through the buffered
/// (zero-allocation) reaction path.
pub fn max_ring(n: usize) -> Protocol<u64> {
    Protocol::builder(topology::unidirectional_ring(n), 8.0)
        .uniform_reaction(FnBufReaction::new(
            vec![0u64],
            |_, inc: &[u64], x, out: &mut [u64]| {
                let m = inc[0].max(x);
                out[0] = m;
                m
            },
        ))
        .build()
        .expect("ring nodes all have reactions")
}

/// The same protocol through plain `FnReaction` closures, so the naive
/// baseline also pays the closure's `Vec` return (as all seed reactions
/// did).
pub fn max_ring_naive(n: usize) -> Protocol<u64> {
    Protocol::builder(topology::unidirectional_ring(n), 8.0)
        .uniform_reaction(FnReaction::new(|_, inc: &[u64], x| {
            let m = inc[0].max(x);
            (vec![m], m)
        }))
        .build()
        .expect("ring nodes all have reactions")
}

/// Sticky-OR on the unidirectional ring (buffered): the standard
/// exhaustive-sweep workload — stabilizes from every labeling.
pub fn sticky_or_ring(n: usize) -> Protocol<bool> {
    Protocol::builder(topology::unidirectional_ring(n), 1.0)
        .uniform_reaction(FnBufReaction::new(
            vec![false],
            |_, inc: &[bool], x, out: &mut [bool]| {
                let b = inc[0] || x == 1;
                out[0] = b;
                u64::from(b)
            },
        ))
        .build()
        .expect("ring nodes all have reactions")
}

/// Rotation on the unidirectional ring (buffered): every node forwards
/// its incoming label, so labels circulate forever — the canonical
/// non-stabilizing instance for the exact verifier (its ≈4ⁿ-state
/// product graph at r = 2 exercises interning, SCCs, and witnesses).
pub fn rotation_ring(n: usize) -> Protocol<bool> {
    Protocol::builder(topology::unidirectional_ring(n), 1.0)
        .uniform_reaction(FnBufReaction::new(
            vec![false],
            |_, inc: &[bool], _, out: &mut [bool]| {
                out[0] = inc[0];
                0
            },
        ))
        .build()
        .expect("ring nodes all have reactions")
}

/// The benchmark schedule families (one representative per built-in
/// schedule type, seeded deterministically) for a graph of `n` nodes.
/// `random_rfair_8` (sparse, p = 0.05) and `random_rfair_dense` (p = 0.5)
/// bracket the geometric gap sampler: the sparse case is where per-node
/// Bernoulli sampling wasted ~n RNG draws per step, the dense case is
/// where gap sampling degenerates toward one draw per node again.
pub const SCHEDULE_KINDS: [&str; 5] = [
    "round_robin_64",
    "scripted_pairs",
    "random_rfair_8",
    "random_rfair_dense",
    "monitored_rr_64",
];

/// Builds the named schedule workload from [`SCHEDULE_KINDS`].
///
/// # Panics
///
/// Panics on an unknown `kind`.
pub fn schedule_workload(kind: &str, n: usize) -> Box<dyn Schedule> {
    match kind {
        "round_robin_64" => Box::new(RoundRobin::new(64)),
        "scripted_pairs" => Box::new(Scripted::cycle(
            (0..n).map(|t| vec![t, (t + 1) % n]).collect(),
        )),
        "random_rfair_8" => Box::new(RandomRFair::new(8, 0.05, StdRng::seed_from_u64(7))),
        "random_rfair_dense" => Box::new(RandomRFair::new(8, 0.5, StdRng::seed_from_u64(11))),
        "monitored_rr_64" => Box::new(FairnessMonitor::new(RoundRobin::new(64))),
        other => unreachable!("unknown schedule kind {other}"),
    }
}

/// The seed's per-round stability probe: one allocating `apply` per node,
/// compared edge by edge. The naive counterpart of
/// `Protocol::is_stable_labeling_buffered`.
pub fn is_stable_naive(p: &Protocol<u64>, labeling: &[u64], inputs: &[Input]) -> bool {
    for (node, &input) in inputs.iter().enumerate() {
        let (out, _) = p
            .apply(node, labeling, input)
            .expect("reaction arity is valid");
        for (slot, &e) in out.iter().zip(p.graph().out_edges(node)) {
            if *slot != labeling[e] {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffered_and_naive_workloads_agree() {
        let n = 16;
        let inputs: Vec<u64> = (0..n as u64).collect();
        let p = max_ring(n);
        let p_naive = max_ring_naive(n);
        let mut a = Simulation::new(&p, &inputs, vec![0; n]).unwrap();
        let mut b = Simulation::new(&p_naive, &inputs, vec![0; n]).unwrap();
        a.run(&mut Synchronous, n as u64);
        b.run(&mut Synchronous, n as u64);
        assert_eq!(a.labeling(), b.labeling());
        assert!(is_stable_naive(&p_naive, b.labeling(), &inputs));
    }
}
