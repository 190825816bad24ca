//! Schedules `σ : N⁺ → 2^[n]` and fairness.
//!
//! A schedule decides which nodes are activated at each time step. The paper
//! distinguishes *fair* schedules (every node activated infinitely often)
//! and *r-fair* schedules (every node activated at least once in every `r`
//! consecutive steps); the synchronous case is `r = 1`.
//!
//! # Buffered activations
//!
//! The hot entry point is [`Schedule::activations_into`], which writes the
//! activation set into a caller-owned buffer so run loops reuse one
//! allocation across steps (see
//! [`Simulation::run`](crate::engine::Simulation::run)); the allocating
//! [`Schedule::activations`] is a convenience wrapper around it. Every
//! built-in schedule implements `activations_into` allocation-free.
//!
//! ## Migration note for `Schedule` implementors
//!
//! `activations_into` is the one required method; `activations` is
//! provided on top of it. An implementation that defined only the
//! allocating `activations` must move its body into `activations_into`
//! (clear `out`, then push the activated nodes).

use std::error::Error;
use std::fmt;

use rand::{Rng, RngExt};

use crate::NodeId;

/// Errors produced while building or validating schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// A scripted schedule had no steps.
    EmptyScript,
    /// A scripted activation set was empty (a schedule maps every step to a
    /// *nonempty* subset of the nodes).
    EmptyActivationSet {
        /// Zero-based index of the offending script step.
        step: usize,
    },
    /// A script named a node outside `0..n` for the graph it is driving.
    NodeOutOfRange {
        /// Zero-based index of the offending script step.
        step: usize,
        /// The offending node id.
        node: NodeId,
        /// The node count the schedule was asked to drive.
        node_count: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::EmptyScript => {
                write!(f, "scripted schedule needs at least one step")
            }
            ScheduleError::EmptyActivationSet { step } => {
                write!(f, "activation set of script step {step} is empty")
            }
            ScheduleError::NodeOutOfRange {
                step,
                node,
                node_count,
            } => write!(
                f,
                "script step {step} activates node {node}, but the graph has {node_count} nodes"
            ),
        }
    }
}

impl Error for ScheduleError {}

/// A source of activation sets.
///
/// `activations_into(t, n, out)` writes the set `σ(t)` for time step
/// `t ≥ 1` on a graph with `n` nodes into `out`. Implementations may be
/// stateful (e.g. random schedules track deadlines) but must produce a
/// nonempty subset of `0..n`.
///
/// See the [module docs](self) for the buffered-API migration note.
pub trait Schedule {
    /// Writes the activation set for time step `t` (1-based) on `n` nodes
    /// into `out`, replacing its contents. The buffer's capacity is reused
    /// across calls — every built-in schedule is allocation-free here after
    /// warm-up.
    fn activations_into(&mut self, t: u64, n: usize, out: &mut Vec<NodeId>);

    /// The activation set for time step `t` (1-based) on `n` nodes, as a
    /// fresh `Vec`. Convenience wrapper around
    /// [`activations_into`](Schedule::activations_into); prefer the
    /// buffered method in loops.
    fn activations(&mut self, t: u64, n: usize) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.activations_into(t, n, &mut out);
        out
    }

    /// Whether this schedule activates **every** node at **every** step
    /// and is stateless, i.e. `activations(t, n) = [0, …, n−1]` for all
    /// `t`. The engine uses this to dispatch to its allocation-free
    /// synchronous fast path
    /// ([`Simulation::step_sync`](crate::engine::Simulation::step_sync))
    /// without calling `activations_into` at all. Only override to return
    /// `true` if both conditions hold exactly.
    fn is_synchronous(&self) -> bool {
        false
    }
}

/// A schedule whose future activation sets are fully determined by a
/// bounded *phase*: `σ(t + P) = σ(t)` for the period `P = period_on(n)`.
///
/// This is what makes exact cycle classification possible beyond the
/// synchronous case: the pair `(labeling, phase)` evolves deterministically,
/// so [`classify_scheduled`](crate::convergence::classify_scheduled) can
/// detect cycles in that product state. The adversarial scripts of the
/// paper's proofs (Example 1, Claim B.8) are all periodic.
pub trait PeriodicSchedule: Schedule {
    /// The schedule's period on `n` nodes (an upper bound is allowed: the
    /// activation sequence must satisfy `σ(t + period_on(n)) = σ(t)`).
    fn period_on(&self, n: usize) -> usize;

    /// The current phase. Two instances with equal phases (and equal
    /// parameters) produce identical activation sequences forever; the
    /// phase advances deterministically with each `activations_into` call
    /// and takes at most [`period_on`](PeriodicSchedule::period_on)
    /// distinct values.
    fn phase(&self, n: usize) -> u64;
}

/// The synchronous schedule: every node is activated at every step
/// (1-fair). This is the setting of the paper's Part II.
#[derive(Debug, Clone, Copy, Default)]
pub struct Synchronous;

impl Schedule for Synchronous {
    fn activations_into(&mut self, _t: u64, n: usize, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(0..n);
    }

    fn is_synchronous(&self) -> bool {
        true
    }
}

impl PeriodicSchedule for Synchronous {
    fn period_on(&self, _n: usize) -> usize {
        1
    }

    fn phase(&self, _n: usize) -> u64 {
        0
    }
}

/// Round-robin: activates `k` consecutive nodes per step, wrapping around.
/// With `k = 1` this is the canonical n-fair sequential schedule.
#[derive(Debug, Clone)]
pub struct RoundRobin {
    k: usize,
    next: usize,
}

impl RoundRobin {
    /// A round-robin schedule activating `k ≥ 1` nodes per step.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(
            k >= 1,
            "round-robin must activate at least one node per step"
        );
        RoundRobin { k, next: 0 }
    }
}

impl Schedule for RoundRobin {
    fn activations_into(&mut self, _t: u64, n: usize, out: &mut Vec<NodeId>) {
        out.clear();
        for i in 0..self.k.min(n) {
            out.push((self.next + i) % n);
        }
        self.next = (self.next + self.k) % n.max(1);
        out.sort_unstable();
        out.dedup();
    }
}

impl PeriodicSchedule for RoundRobin {
    fn period_on(&self, n: usize) -> usize {
        // `next` advances by k (mod n) per step, so the start offset — and
        // with it the activation set — repeats after n / gcd(k, n) steps.
        if n == 0 {
            return 1;
        }
        let mut a = n;
        let mut b = self.k % n;
        while b != 0 {
            (a, b) = (b, a % b);
        }
        n / a
    }

    fn phase(&self, _n: usize) -> u64 {
        self.next as u64
    }
}

/// A scripted schedule: replays a fixed sequence of activation sets,
/// cycling when it reaches the end. This is how the adversarial schedules
/// from the paper's proofs (e.g. the Example 1 oscillation and the
/// Theorem B.8 set-disjointness schedule) are expressed.
#[derive(Debug, Clone)]
pub struct Scripted {
    steps: Vec<Vec<NodeId>>,
    pos: usize,
}

impl Scripted {
    /// Builds a scripted schedule from `steps`; after the last entry the
    /// script repeats from the beginning.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::EmptyScript`] if `steps` is empty and
    /// [`ScheduleError::EmptyActivationSet`] if any step activates nothing.
    /// Node ids are validated against the graph at use time (see
    /// [`validate`](Scripted::validate)), since the script does not know
    /// the node count yet.
    pub fn try_cycle(steps: Vec<Vec<NodeId>>) -> Result<Self, ScheduleError> {
        if steps.is_empty() {
            return Err(ScheduleError::EmptyScript);
        }
        if let Some(step) = steps.iter().position(|s| s.is_empty()) {
            return Err(ScheduleError::EmptyActivationSet { step });
        }
        Ok(Scripted { steps, pos: 0 })
    }

    /// Builds a scripted schedule from `steps`; after the last entry the
    /// script repeats from the beginning.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty or contains an empty activation set (the
    /// fallible constructor is [`try_cycle`](Scripted::try_cycle)).
    pub fn cycle(steps: Vec<Vec<NodeId>>) -> Self {
        match Self::try_cycle(steps) {
            Ok(s) => s,
            Err(ScheduleError::EmptyScript) => {
                panic!("scripted schedule needs at least one step")
            }
            Err(e) => panic!("activation sets must be nonempty: {e}"),
        }
    }

    /// The script length before repetition.
    pub fn period(&self) -> usize {
        self.steps.len()
    }

    /// Checks that every scripted activation targets a node in `0..n`.
    ///
    /// Activation sets are also validated on every
    /// [`activations_into`](Schedule::activations_into) call (a script
    /// naming a node `≥ n` used to flow straight into the engine); call
    /// this up front to get the error as a value instead of a panic.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::NodeOutOfRange`] naming the first offending step.
    pub fn validate(&self, n: usize) -> Result<(), ScheduleError> {
        for (step, set) in self.steps.iter().enumerate() {
            if let Some(&node) = set.iter().find(|&&node| node >= n) {
                return Err(ScheduleError::NodeOutOfRange {
                    step,
                    node,
                    node_count: n,
                });
            }
        }
        Ok(())
    }

    /// The largest gap between consecutive activations of any node over one
    /// period (considering the cyclic repetition): the smallest `r` for
    /// which this schedule is r-fair.
    ///
    /// Returns `None` if some node in `0..n` never appears (the schedule is
    /// not even fair for that node).
    pub fn fairness(&self, n: usize) -> Option<usize> {
        let period = self.steps.len();
        let mut worst = 0usize;
        for node in 0..n {
            let hits: Vec<usize> = (0..period)
                .filter(|&i| self.steps[i].contains(&node))
                .collect();
            if hits.is_empty() {
                return None;
            }
            for (k, &h) in hits.iter().enumerate() {
                let prev = if k == 0 {
                    hits[hits.len() - 1] as isize - period as isize
                } else {
                    hits[k - 1] as isize
                };
                let gap = (h as isize - prev) as usize;
                worst = worst.max(gap);
            }
        }
        Some(worst)
    }
}

impl Schedule for Scripted {
    fn activations_into(&mut self, _t: u64, n: usize, out: &mut Vec<NodeId>) {
        let set = &self.steps[self.pos];
        if let Some(&node) = set.iter().find(|&&node| node >= n) {
            let err = ScheduleError::NodeOutOfRange {
                step: self.pos,
                node,
                node_count: n,
            };
            panic!("invalid scripted schedule: {err}");
        }
        out.clear();
        out.extend_from_slice(set);
        self.pos = (self.pos + 1) % self.steps.len();
    }
}

impl PeriodicSchedule for Scripted {
    fn period_on(&self, _n: usize) -> usize {
        self.steps.len()
    }

    fn phase(&self, _n: usize) -> u64 {
        self.pos as u64
    }
}

/// A randomized r-fair schedule: each step activates each node
/// independently with probability `p`, then force-includes every node whose
/// activation deadline (r steps since last activation) has arrived, so the
/// produced schedule is r-fair **by construction**.
///
/// The hot path is a single read-mostly sweep. Deadline forcing reads a
/// per-node absolute deadline (`last activation + r`) instead of
/// incrementing a per-node wait counter, so nodes that do nothing this
/// step cost a load and a compare, not a store. Random inclusions are
/// drawn by the cheapest sampler for `p` (see `InclusionSampler`):
/// *geometric gap sampling* for sparse `p` — jump straight to the next
/// included node with `⌊ln U / ln(1−p)⌋`-distributed gaps, about `p·n + 1`
/// RNG draws per step instead of `n` — and a raw 64-bit integer threshold
/// compare for dense `p` (no float math per node at all). The per-node
/// inclusion law is unchanged up to ~2⁻⁵² quantization (each node is
/// included independently with probability `p`, forced inclusions on
/// top); only the RNG value *stream* differs from the old per-node
/// formulation, which no consumer may rely on across versions —
/// determinism is promised per seed, not across code changes.
#[derive(Debug)]
pub struct RandomRFair<R> {
    r: usize,
    p: f64,
    rng: R,
    /// Internal step counter (the schedule ignores the engine's `t`, which
    /// restarts across simulations).
    step: u64,
    /// `deadline[node]` = first step at which the node is deadline-forced
    /// (its last activation + r).
    deadline: Vec<u64>,
    sampler: InclusionSampler,
}

/// How [`RandomRFair`] draws its random inclusions, picked once from `p`.
///
/// Gap sampling does `p·n` logarithms per step where the threshold
/// sampler does `n` RNG draws, so the gap form wins only while `p` is
/// small; the crossover with [`fast_ln_unit`] is around p ≈ 0.25.
#[derive(Debug, Clone, Copy)]
enum InclusionSampler {
    /// `p = 0`: deadline forcing only.
    Never,
    /// `p = 1`: every node, every step.
    Always,
    /// Sparse `p`: geometric gaps of `1 / ln(1 − p)` scale.
    Gap { inv_ln_q: f64 },
    /// Dense `p`: include node iff `next_u64() < bits` (`bits = p·2⁶⁴`).
    Threshold { bits: u64 },
}

/// Largest `p` the gap sampler is used for (see [`InclusionSampler`]).
const GAP_SAMPLER_MAX_P: f64 = 0.25;

/// `ln x` for `x ∈ (0, 1]`, via exponent extraction and a 4-term
/// atanh-series polynomial on the mantissa — ~3× faster than libm's `ln`
/// and within 2·10⁻⁵ absolute on this range, which perturbs a sampled
/// geometric gap by well under one part in a thousand. Only the gap
/// sampler uses it; nothing verdict-bearing does.
fn fast_ln_unit(x: f64) -> f64 {
    let bits = x.to_bits();
    let e = ((bits >> 52) as i64 - 1023) as f64;
    // Mantissa scaled into [1, 2).
    let m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000);
    // ln m = 2 atanh t with t = (m−1)/(m+1) ∈ [0, 1/3).
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let ln_m = 2.0 * t * (1.0 + t2 * (1.0 / 3.0 + t2 * (1.0 / 5.0 + t2 * (1.0 / 7.0))));
    e * std::f64::consts::LN_2 + ln_m
}

/// A geometric gap: how many nodes to skip before the next randomly
/// included one (0 = the very next node is included). `⌊ln U / ln(1−p)⌋`
/// with `U` uniform on `(0, 1]`; the `U = 0` endpoint is excluded so `ln`
/// never sees zero, and an overflowing gap saturates (Rust float casts
/// clamp), which just means "past the end of the node range".
fn geometric_gap<R: Rng>(rng: &mut R, inv_ln_q: f64) -> usize {
    // 53 uniform mantissa bits shifted into (0, 1]: never exactly 0.
    let unit = ((rng.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64);
    (fast_ln_unit(unit) * inv_ln_q) as usize
}

impl<R: Rng> RandomRFair<R> {
    /// Creates an r-fair random schedule with per-node inclusion probability
    /// `p` (forced inclusions are added on top).
    ///
    /// # Panics
    ///
    /// Panics if `r == 0` or `p` is not in `[0, 1]`.
    pub fn new(r: usize, p: f64, rng: R) -> Self {
        assert!(r >= 1, "fairness parameter r must be at least 1");
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        let sampler = if p <= 0.0 {
            InclusionSampler::Never
        } else if p >= 1.0 {
            InclusionSampler::Always
        } else if p <= GAP_SAMPLER_MAX_P {
            InclusionSampler::Gap {
                inv_ln_q: 1.0 / (1.0 - p).ln(),
            }
        } else {
            InclusionSampler::Threshold {
                // p·2⁶⁴, saturating; exact for every p that is a multiple
                // of 2⁻⁵².
                bits: (p * (u64::MAX as f64 + 1.0)) as u64,
            }
        };
        RandomRFair {
            r,
            p,
            rng,
            step: 0,
            deadline: Vec::new(),
            sampler,
        }
    }

    /// The fairness parameter `r`.
    pub fn r(&self) -> usize {
        self.r
    }

    /// The per-node inclusion probability `p`.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl<R: Rng> Schedule for RandomRFair<R> {
    fn activations_into(&mut self, _t: u64, n: usize, out: &mut Vec<NodeId>) {
        out.clear();
        if n == 0 {
            // No nodes, no activations; in particular the nonemptiness
            // fallback below must not sample from an empty range.
            return;
        }
        self.step += 1;
        let t = self.step;
        let r = self.r as u64;
        // Preserve existing deadlines when the node count changes; nodes
        // beyond the old count start fresh, i.e. as if last activated on
        // the previous step. Rebuilding from scratch would both allocate
        // and forget how long existing nodes have waited.
        if self.deadline.len() != n {
            self.deadline.resize(n, t - 1 + r);
        }
        // One merged sweep, 64 nodes at a time, emits forced and sampled
        // nodes in node order — the output is sorted and duplicate-free by
        // construction. The activation decisions are collected into a
        // *bitmask* first (branch-free, auto-vectorizable deadline
        // compares) and only the set bits are walked; with ~15% of nodes
        // firing per step, per-node `if included` branches mispredict
        // constantly and dominated both this path and the old per-node
        // Bernoulli formulation.
        let mut next_rand = match self.sampler {
            InclusionSampler::Gap { inv_ln_q } => geometric_gap(&mut self.rng, inv_ln_q),
            _ => usize::MAX,
        };
        for base in (0..n).step_by(64) {
            let limit = (n - base).min(64);
            // Deadline-forced bits, branch-free.
            let mut mask: u64 = 0;
            for (j, &deadline) in self.deadline[base..base + limit].iter().enumerate() {
                mask |= u64::from(t >= deadline) << j;
            }
            match self.sampler {
                InclusionSampler::Never => {}
                InclusionSampler::Always => {
                    mask = if limit == 64 {
                        u64::MAX
                    } else {
                        (1 << limit) - 1
                    };
                }
                InclusionSampler::Gap { inv_ln_q } => {
                    while next_rand < base + limit {
                        mask |= 1 << (next_rand - base);
                        next_rand =
                            (next_rand + 1).saturating_add(geometric_gap(&mut self.rng, inv_ln_q));
                    }
                }
                InclusionSampler::Threshold { bits } => {
                    for j in 0..limit {
                        mask |= u64::from(self.rng.next_u64() < bits) << j;
                    }
                }
            }
            while mask != 0 {
                let node = base + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                out.push(node);
                self.deadline[node] = t + r;
            }
        }
        if out.is_empty() {
            // A schedule maps to a *nonempty* subset; activate one random
            // node so the step is well-formed.
            let node = self.rng.random_range(0..n);
            out.push(node);
            self.deadline[node] = t + r;
        }
    }
}

/// Wraps a schedule and records the observed fairness: the largest gap any
/// node has gone without activation. Useful to *check* that an allegedly
/// r-fair schedule really is one.
#[derive(Debug)]
pub struct FairnessMonitor<S> {
    inner: S,
    since: Vec<usize>,
    worst_gap: usize,
}

impl<S: Schedule> FairnessMonitor<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        FairnessMonitor {
            inner,
            since: Vec::new(),
            worst_gap: 0,
        }
    }

    /// The largest observed activation gap so far (a lower bound on the
    /// schedule's true fairness parameter `r`).
    pub fn worst_gap(&self) -> usize {
        self.worst_gap
    }

    /// Consumes the monitor, returning the wrapped schedule.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Schedule> Schedule for FairnessMonitor<S> {
    fn activations_into(&mut self, t: u64, n: usize, out: &mut Vec<NodeId>) {
        self.since.resize(n, 0);
        self.inner.activations_into(t, n, out);
        for node in 0..n {
            self.since[node] += 1;
        }
        for &node in out.iter() {
            self.worst_gap = self.worst_gap.max(self.since[node]);
            self.since[node] = 0;
        }
    }

    // Note: is_synchronous stays `false` even for a synchronous inner
    // schedule — the engine must keep calling `activations_into` so the
    // monitor actually observes the activations it is wrapping.
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn synchronous_activates_everyone() {
        let mut s = Synchronous;
        assert_eq!(s.activations(1, 4), vec![0, 1, 2, 3]);
        assert_eq!(s.activations(99, 2), vec![0, 1]);
    }

    #[test]
    fn activations_into_reuses_the_buffer() {
        let mut s = Synchronous;
        let mut buf = Vec::with_capacity(8);
        s.activations_into(1, 4, &mut buf);
        assert_eq!(buf, vec![0, 1, 2, 3]);
        let ptr = buf.as_ptr();
        s.activations_into(2, 3, &mut buf);
        assert_eq!(buf, vec![0, 1, 2]);
        assert_eq!(ptr, buf.as_ptr(), "no reallocation within capacity");
    }

    #[test]
    fn round_robin_single_is_n_fair() {
        let mut s = FairnessMonitor::new(RoundRobin::new(1));
        for t in 1..=20 {
            s.activations(t, 5);
        }
        assert_eq!(s.worst_gap(), 5);
    }

    #[test]
    fn round_robin_k_wraps() {
        let mut s = RoundRobin::new(3);
        assert_eq!(s.activations(1, 4), vec![0, 1, 2]);
        assert_eq!(s.activations(2, 4), vec![0, 1, 3]);
    }

    #[test]
    fn round_robin_period_is_n_over_gcd() {
        assert_eq!(RoundRobin::new(1).period_on(5), 5);
        assert_eq!(RoundRobin::new(2).period_on(6), 3);
        assert_eq!(RoundRobin::new(3).period_on(6), 2);
        assert_eq!(RoundRobin::new(6).period_on(6), 1);
        assert_eq!(RoundRobin::new(7).period_on(5), 5);
    }

    #[test]
    fn round_robin_activations_repeat_with_period() {
        let mut s = RoundRobin::new(2);
        let n = 6;
        let period = s.period_on(n);
        let lap: Vec<Vec<NodeId>> = (0..period as u64)
            .map(|t| s.activations(t + 1, n))
            .collect();
        for t in 0..period as u64 {
            assert_eq!(s.activations(period as u64 + t + 1, n), lap[t as usize]);
        }
    }

    #[test]
    fn scripted_cycles_and_reports_fairness() {
        let s = Scripted::cycle(vec![vec![0, 1], vec![1, 2], vec![0, 2]]);
        assert_eq!(s.fairness(3), Some(2));
        assert_eq!(s.period_on(3), 3);
        let mut s = s;
        assert_eq!(s.phase(3), 0);
        assert_eq!(s.activations(1, 3), vec![0, 1]);
        assert_eq!(s.phase(3), 1);
        assert_eq!(s.activations(2, 3), vec![1, 2]);
        assert_eq!(s.activations(3, 3), vec![0, 2]);
        assert_eq!(s.phase(3), 0);
        assert_eq!(s.activations(4, 3), vec![0, 1], "wraps around");
    }

    #[test]
    fn scripted_fairness_none_when_node_missing() {
        let s = Scripted::cycle(vec![vec![0], vec![1]]);
        assert_eq!(s.fairness(3), None);
        assert_eq!(s.fairness(2), Some(2));
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn scripted_rejects_empty_sets() {
        Scripted::cycle(vec![vec![]]);
    }

    #[test]
    fn try_cycle_reports_structured_errors() {
        assert_eq!(
            Scripted::try_cycle(vec![]).unwrap_err(),
            ScheduleError::EmptyScript
        );
        assert_eq!(
            Scripted::try_cycle(vec![vec![0], vec![]]).unwrap_err(),
            ScheduleError::EmptyActivationSet { step: 1 }
        );
        assert!(Scripted::try_cycle(vec![vec![0]]).is_ok());
    }

    #[test]
    fn scripted_validate_catches_out_of_range_nodes() {
        let s = Scripted::cycle(vec![vec![0, 1], vec![2]]);
        assert_eq!(s.validate(3), Ok(()));
        assert_eq!(
            s.validate(2),
            Err(ScheduleError::NodeOutOfRange {
                step: 1,
                node: 2,
                node_count: 2,
            })
        );
        let msg = s.validate(2).unwrap_err().to_string();
        assert!(msg.contains("step 1") && msg.contains("node 2"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "invalid scripted schedule")]
    fn scripted_out_of_range_node_panics_at_use_time() {
        let mut s = Scripted::cycle(vec![vec![5]]);
        let mut buf = Vec::new();
        s.activations_into(1, 3, &mut buf);
    }

    #[test]
    fn random_rfair_is_rfair_by_construction() {
        let rng = StdRng::seed_from_u64(3);
        let mut s = FairnessMonitor::new(RandomRFair::new(4, 0.2, rng));
        for t in 1..=500 {
            let set = s.activations(t, 9);
            assert!(!set.is_empty());
        }
        assert!(
            s.worst_gap() <= 4,
            "observed gap {} exceeds r=4",
            s.worst_gap()
        );
    }

    #[test]
    fn random_rfair_with_p0_is_pure_deadline() {
        let rng = StdRng::seed_from_u64(3);
        let mut s = FairnessMonitor::new(RandomRFair::new(3, 0.0, rng));
        for t in 1..=300 {
            assert!(!s.activations(t, 4).is_empty());
        }
        // With p = 0 nodes fire only at deadlines (or as the nonemptiness
        // fallback), so the worst gap is exactly r.
        assert_eq!(s.worst_gap(), 3);
    }

    #[test]
    fn random_rfair_gap_sampling_matches_bernoulli_rate() {
        // With r huge, activations are (almost) purely the geometric gap
        // sampler; each node must still be included with probability ≈ p
        // per step, independently — the distribution the per-node
        // Bernoulli formulation drew directly.
        let rng = StdRng::seed_from_u64(42);
        let (n, p, steps) = (16usize, 0.25, 4000u64);
        let mut s = RandomRFair::new(1000, p, rng);
        let mut hits = vec![0u32; n];
        for t in 1..=steps {
            for node in s.activations(t, n) {
                hits[node] += 1;
            }
        }
        let expect = steps as f64 * p;
        for (node, &h) in hits.iter().enumerate() {
            assert!(
                (f64::from(h) - expect).abs() < 120.0,
                "node {node}: {h} activations, expected ≈ {expect}"
            );
        }
    }

    #[test]
    fn random_rfair_emits_sorted_unique_sets() {
        let rng = StdRng::seed_from_u64(9);
        let mut s = RandomRFair::new(3, 0.7, rng);
        for t in 1..=200 {
            let set = s.activations(t, 11);
            assert!(set.windows(2).all(|w| w[0] < w[1]), "t={t}: {set:?}");
            assert!(set.iter().all(|&i| i < 11));
        }
    }

    #[test]
    fn random_rfair_p1_activates_everyone() {
        let rng = StdRng::seed_from_u64(5);
        let mut s = RandomRFair::new(4, 1.0, rng);
        for t in 1..=20 {
            assert_eq!(s.activations(t, 6), vec![0, 1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn random_rfair_zero_nodes_yields_empty_set() {
        // The nonemptiness fallback used to sample random_range(0..0) here.
        let rng = StdRng::seed_from_u64(3);
        let mut s = RandomRFair::new(2, 0.5, rng);
        assert_eq!(s.activations(1, 0), Vec::<NodeId>::new());
        // And the schedule still works when nodes appear afterwards.
        let set = s.activations(2, 4);
        assert!(!set.is_empty());
        assert!(set.iter().all(|&i| i < 4));
    }

    #[test]
    fn random_rfair_keeps_deadlines_across_node_count_growth() {
        // With p = 0, activations are exactly the deadline-forced nodes
        // plus the nonemptiness fallback. Mirror the per-node wait times
        // independently and check that every overdue node is activated —
        // the invariant a from-scratch rebuild of `since` would violate
        // right after the node count grows.
        let rng = StdRng::seed_from_u64(11);
        let mut s = RandomRFair::new(3, 0.0, rng);
        let mut since = [0usize; 6];
        let mut buf = Vec::new();
        for t in 1..=20u64 {
            let n = if t <= 5 { 2 } else { 6 };
            s.activations_into(t, n, &mut buf);
            assert!(!buf.is_empty());
            for wait in since.iter_mut().take(n) {
                *wait += 1;
            }
            for (node, &wait) in since.iter().enumerate().take(n) {
                if wait >= 3 {
                    assert!(
                        buf.contains(&node),
                        "t={t}: node {node} overdue, got {buf:?}"
                    );
                }
            }
            for &node in &buf {
                since[node] = 0;
            }
        }
    }

    #[test]
    fn fairness_monitor_never_claims_synchrony() {
        // Claiming it would let the engine bypass activations_into and the
        // monitor would observe nothing.
        assert!(!FairnessMonitor::new(Synchronous).is_synchronous());
        assert!(!FairnessMonitor::new(RoundRobin::new(1)).is_synchronous());
    }
}
