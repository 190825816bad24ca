//! Exact classification of deterministic runs by cycle detection.
//!
//! Under the synchronous (1-fair) schedule the global transition is a
//! deterministic function of the labeling alone, so every run eventually
//! enters a cycle; detecting that cycle classifies the run exactly:
//!
//! * cycle of period 1 → the run **label-stabilizes**, and the round at
//!   which it first reached the fixed point is its label-convergence time;
//! * period > 1 with constant outputs along the cycle → the run
//!   **output-stabilizes** but not label-stabilizes (the labels oscillate
//!   forever while outputs stay put);
//! * otherwise the run oscillates in outputs too.
//!
//! This is the measurement used for the paper's round complexity `Rₙ`
//! (Section 2.3), which is defined for synchronous interaction.
//!
//! The same machinery extends to **any periodic schedule** (the scripted
//! adversaries of the paper's proofs, round-robin, …): the pair
//! `(labeling, schedule phase)` evolves deterministically, so
//! [`classify_scheduled`] detects cycles in that product state and turns
//! e.g. the Example 1 oscillation into a machine-checked verdict. Both
//! entry points take a pluggable [`CycleDetector`]:
//! [`CycleDetector::ExactArena`] (fingerprint table + flat history arena,
//! memory proportional to the rounds visited) or [`CycleDetector::Brent`]
//! (Brent's teleporting-tortoise algorithm, O(1) state memory at the cost
//! of re-running the deterministic prefix a few times).

use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::engine::Simulation;
use crate::error::CoreError;
use crate::intern::{ChunkedArena, FingerprintIndex, FxHasher};
use crate::label::Label;
use crate::protocol::Protocol;
use crate::schedule::{PeriodicSchedule, Schedule, Synchronous};
use crate::{Input, Output};

/// The exact outcome of a classified run from one initial labeling.
///
/// Produced by [`classify_sync`] (synchronous runs, where "step" and
/// "round" coincide) and [`classify_scheduled`] (any periodic schedule,
/// where the counts are in *steps* of that schedule and stability is
/// relative to it — a labeling no activated node ever rewrites is stable
/// under that schedule even if an unscheduled node could move it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncOutcome<L> {
    /// The labeling reached a fixed point.
    LabelStable {
        /// First round at which the stable labeling held (earliest round
        /// after which the labeling never changed again).
        round: u64,
        /// The stable labeling.
        labeling: Vec<L>,
        /// Node outputs at (and forever after) the close of the detected
        /// cycle. Under partial schedules a node's output settles at its
        /// first activation after label stabilization.
        outputs: Vec<Output>,
    },
    /// The labeling entered a cycle of period ≥ 2 (for scheduled runs: a
    /// cycle of the (labeling, phase) product along which the labeling is
    /// not constant).
    Oscillating {
        /// First round of the recurring segment.
        cycle_start: u64,
        /// Cycle period (≥ 2; for scheduled runs, a period of the product
        /// state — always a multiple of the labeling's own period).
        period: u64,
        /// If outputs are constant along the cycle: the round after which
        /// outputs never change again, and their final values.
        outputs_stable: Option<(u64, Vec<Output>)>,
    },
}

impl<L> SyncOutcome<L> {
    /// Whether the run label-stabilized.
    pub fn is_label_stable(&self) -> bool {
        matches!(self, SyncOutcome::LabelStable { .. })
    }

    /// Whether the run output-stabilized (label stability implies it).
    pub fn is_output_stable(&self) -> bool {
        match self {
            SyncOutcome::LabelStable { .. } => true,
            SyncOutcome::Oscillating { outputs_stable, .. } => outputs_stable.is_some(),
        }
    }

    /// The converged outputs, if the run output-stabilized.
    pub fn final_outputs(&self) -> Option<&[Output]> {
        match self {
            SyncOutcome::LabelStable { outputs, .. } => Some(outputs),
            SyncOutcome::Oscillating { outputs_stable, .. } => {
                outputs_stable.as_ref().map(|(_, o)| o.as_slice())
            }
        }
    }

    /// The output-convergence round: the earliest round after which outputs
    /// never change, if the run output-stabilized.
    pub fn output_round(&self) -> Option<u64> {
        match self {
            SyncOutcome::LabelStable { round, .. } => Some(*round),
            SyncOutcome::Oscillating { outputs_stable, .. } => {
                outputs_stable.as_ref().map(|&(r, _)| r)
            }
        }
    }
}

/// The cycle-detection engine behind [`classify_sync_with`] and
/// [`classify_scheduled`]. Both modes are exact on verdicts, periods, and
/// rounds; they trade memory against (re)computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CycleDetector {
    /// Fingerprint table + flat history arena: every visited labeling is
    /// retained, the cycle is recognized the first time a state repeats,
    /// and all round numbers fall out of the recorded history. Memory is
    /// proportional to `rounds visited × |E|`; `max_states` caps the
    /// number of *distinct product states* visited.
    #[default]
    ExactArena,
    /// Brent's cycle detection: O(1) state memory (two run cursors plus a
    /// handful of snapshots), at the cost of re-running the deterministic
    /// prefix a few times to recover the exact cycle start and the exact
    /// convergence rounds. `max_states` caps the number of *steps* of the
    /// main search (the recovery passes are bounded by the cycle found).
    /// Use when the history arena would not fit — e.g. runs whose
    /// transient is millions of wide labelings.
    Brent,
}

/// Seeded 64-bit fingerprint of a (labeling, schedule-phase) product state
/// ([`FxHasher`] over every label's `Hash` image, then the phase).
/// Fingerprints index the visited-state table; exact equality against the
/// history arena confirms every hit, so collisions cost a comparison but
/// never an incorrect classification.
fn fingerprint<L: Label>(labeling: &[L], phase: u64) -> u64 {
    let mut h = FxHasher::seeded(labeling.len() as u64);
    for l in labeling {
        l.hash(&mut h);
    }
    h.write_u64(phase);
    h.finish()
}

/// Advances the run one step: the synchronous fast path when the schedule
/// declares itself synchronous, the buffered scheduled step otherwise.
fn advance<L: Label>(sim: &mut Simulation<'_, L>, schedule: &mut dyn Schedule, sync: bool) {
    if sync {
        sim.step_sync();
    } else {
        sim.step_scheduled(schedule);
    }
}

/// Runs `protocol` synchronously from `initial` and classifies the run by
/// exact cycle detection with the default [`CycleDetector::ExactArena`].
///
/// The hot loop runs through the engine's allocation-free
/// [`step_sync`](Simulation::step_sync) path; visited labelings are
/// indexed by 64-bit fingerprints into a flat history
/// arena (one contiguous `Vec<L>`), with exact equality confirmation on
/// every fingerprint hit — classification stays exact, but no per-round
/// `HashMap<Vec<L>, _>` key clones are made.
///
/// Memory is proportional to the number of distinct labelings visited,
/// which is at most `|Σ|^|E|` — use only where that is acceptable; the cap
/// `max_states` aborts earlier. When the history would not fit, use
/// [`classify_sync_with`] and [`CycleDetector::Brent`].
///
/// # Errors
///
/// Returns [`CoreError::NotConverged`] if more than `max_states` distinct
/// labelings were visited without closing a cycle, and validation errors
/// for mismatched lengths.
pub fn classify_sync<L: Label>(
    protocol: &Protocol<L>,
    inputs: &[Input],
    initial: Vec<L>,
    max_states: usize,
) -> Result<SyncOutcome<L>, CoreError> {
    classify_sync_with(
        protocol,
        inputs,
        initial,
        max_states,
        CycleDetector::ExactArena,
    )
}

/// [`classify_sync`] with an explicit [`CycleDetector`]. Both detectors
/// return identical outcomes; they differ in memory (arena: O(rounds·|E|),
/// Brent: O(|E|)) and in how `max_states` is interpreted (distinct states
/// vs. search steps — see [`CycleDetector`]).
///
/// # Errors
///
/// As for [`classify_sync`].
pub fn classify_sync_with<L: Label>(
    protocol: &Protocol<L>,
    inputs: &[Input],
    initial: Vec<L>,
    max_states: usize,
    detector: CycleDetector,
) -> Result<SyncOutcome<L>, CoreError> {
    classify_scheduled(
        protocol,
        inputs,
        initial,
        &Synchronous,
        max_states,
        detector,
    )
}

/// Classifies the run of `protocol` from `initial` under any *periodic*
/// schedule, exactly, by cycle detection in the `(labeling, phase)`
/// product state.
///
/// The schedule is cloned (classification never advances the caller's
/// copy) and replayed from its current phase. Because the product state
/// determines the entire future, a repeated product state is a hard
/// cycle, so the verdict is exact — e.g. the paper's Example 1 protocol
/// under its adversarial schedule
/// (`stateless_protocols::example1::oscillation_schedule`) is *proven* to
/// oscillate, not merely observed to keep moving for a while:
///
/// * labeling constant along the product cycle → **label-stable under
///   this schedule** (`round` = earliest step after which the labeling
///   never changed). Note this is schedule-relative: a node the schedule
///   never activates cannot veto stability.
/// * otherwise **oscillating**, with the product-cycle start and period,
///   and the output-convergence step when outputs are constant along the
///   cycle.
///
/// # Errors
///
/// Returns [`CoreError::NotConverged`] if the `max_states` budget is
/// exhausted (distinct product states for
/// [`CycleDetector::ExactArena`], search steps for
/// [`CycleDetector::Brent`]), and validation errors for mismatched
/// lengths.
pub fn classify_scheduled<L, S>(
    protocol: &Protocol<L>,
    inputs: &[Input],
    initial: Vec<L>,
    schedule: &S,
    max_states: usize,
    detector: CycleDetector,
) -> Result<SyncOutcome<L>, CoreError>
where
    L: Label,
    S: PeriodicSchedule + Clone,
{
    match detector {
        CycleDetector::ExactArena => {
            classify_scheduled_arena(protocol, inputs, initial, schedule, max_states)
        }
        CycleDetector::Brent => {
            classify_scheduled_brent(protocol, inputs, initial, schedule, max_states)
        }
    }
}

/// The arena-backed product-state classifier behind
/// [`CycleDetector::ExactArena`].
fn classify_scheduled_arena<L, S>(
    protocol: &Protocol<L>,
    inputs: &[Input],
    initial: Vec<L>,
    schedule: &S,
    max_states: usize,
) -> Result<SyncOutcome<L>, CoreError>
where
    L: Label,
    S: PeriodicSchedule + Clone,
{
    let n = protocol.node_count();
    let e = protocol.edge_count();
    let sync = schedule.is_synchronous();
    let mut sched = schedule.clone();
    let mut sim = Simulation::new(protocol, inputs, initial)?;
    // Block-chunked arenas (fixed ~1 MiB blocks, so million-round
    // transients never realloc-and-copy their history): the labeling of
    // step t is arena.row(t), the outputs produced by the step into step t
    // are out_arena.row(t) (step 0 holds the pre-run placeholder and is
    // never inspected), and the schedule phase at step t is phases[t].
    let mut arena: ChunkedArena<L> = ChunkedArena::new(e);
    let mut out_arena: ChunkedArena<Output> = ChunkedArena::new(n);
    let mut phases: Vec<u64> = Vec::with_capacity(64.min(max_states + 1));
    // fingerprint → first step whose product state hashed to it; every hit
    // is confirmed by exact equality against the arena (see
    // [`FingerprintIndex`]), so no owned labeling key is ever stored.
    let mut seen = FingerprintIndex::new();
    arena.push_row(sim.labeling());
    out_arena.push_row(&vec![0; n]);
    phases.push(sched.phase(n));
    let fp0 = fingerprint(sim.labeling(), sched.phase(n));
    let miss = seen.probe(fp0, 0, |_| false);
    debug_assert!(miss.is_none());

    for t in 1..=(max_states as u64) {
        advance(&mut sim, &mut sched, sync);
        let phase = sched.phase(n);
        let current = sim.labeling();
        let fp = fingerprint(current, phase);
        let row = |s: u64| arena.row(s as usize);
        let hit = seen.probe(fp, t, |s| phases[s as usize] == phase && row(s) == current);
        let Some(s) = hit else {
            arena.push_row(current);
            out_arena.push_row(sim.outputs());
            phases.push(phase);
            continue;
        };
        let period = t - s;
        // The product state at step t equals the one at step s, so the run
        // repeats steps s..t forever. If the labeling is constant along
        // that cycle, the run is label-stable under this schedule.
        if (s..t).all(|r| row(r) == current) {
            // Earliest step after which the labeling never changed: walk
            // back through the recorded (pairwise-distinct-as-products,
            // but possibly label-equal) history.
            let mut round = s;
            for back in (0..s).rev() {
                if row(back) != current {
                    break;
                }
                round = back;
            }
            return Ok(SyncOutcome::LabelStable {
                round,
                labeling: current.to_vec(),
                outputs: sim.outputs().to_vec(),
            });
        }
        out_arena.push_row(sim.outputs());
        // Outputs along the cycle are steps s+1 ..= t (the step out of
        // step s produced step s+1's outputs, and the cycle repeats).
        let outs_of = |r: u64| out_arena.row(r as usize);
        let constant = (s + 1..t).all(|r| outs_of(r) == outs_of(r + 1));
        let outputs_stable = if constant {
            let final_outputs = outs_of(s + 1).to_vec();
            // Earliest step after which outputs never changed: walk back
            // from the end of recorded history.
            let mut round = s + 1;
            for back in (1..=t).rev() {
                if outs_of(back) != final_outputs {
                    round = back + 1;
                    break;
                }
                round = back;
            }
            Some((round, final_outputs))
        } else {
            None
        };
        return Ok(SyncOutcome::Oscillating {
            cycle_start: s,
            period,
            outputs_stable,
        });
    }
    Err(CoreError::NotConverged {
        steps: max_states as u64,
    })
}

/// The O(1)-memory classifier behind [`CycleDetector::Brent`].
///
/// Brent's algorithm finds the cycle period λ with a teleporting tortoise
/// (the hare runs ahead; the tortoise jumps to the hare at powers of two),
/// then the cycle start µ by running two cursors λ apart. Two more
/// deterministic replays recover the exact label/output convergence steps
/// that the arena detector reads off its history — so both detectors
/// return identical outcomes.
fn classify_scheduled_brent<L, S>(
    protocol: &Protocol<L>,
    inputs: &[Input],
    initial: Vec<L>,
    schedule: &S,
    max_states: usize,
) -> Result<SyncOutcome<L>, CoreError>
where
    L: Label,
    S: PeriodicSchedule + Clone,
{
    let n = protocol.node_count();
    let sync = schedule.is_synchronous();
    let budget = max_states as u64;
    let overrun = || CoreError::NotConverged { steps: budget };
    let fresh = || -> Result<_, CoreError> {
        Ok((
            Simulation::new(protocol, inputs, initial.clone())?,
            schedule.clone(),
        ))
    };

    // Phase 1 — the period λ.
    let (mut hare, mut hare_sched) = fresh()?;
    let mut tort_labeling: Vec<L> = hare.labeling().to_vec();
    let mut tort_phase = hare_sched.phase(n);
    advance(&mut hare, &mut hare_sched, sync);
    let mut steps = 1u64;
    let mut power = 1u64;
    let mut lam = 1u64;
    while hare_sched.phase(n) != tort_phase || hare.labeling() != &tort_labeling[..] {
        if power == lam {
            // Teleport: the tortoise adopts the hare's position.
            tort_labeling.clear();
            tort_labeling.extend_from_slice(hare.labeling());
            tort_phase = hare_sched.phase(n);
            power *= 2;
            lam = 0;
        }
        advance(&mut hare, &mut hare_sched, sync);
        lam += 1;
        steps += 1;
        if steps > budget {
            return Err(overrun());
        }
    }

    // Phase 2 — the cycle start µ: two cursors λ apart walk until they
    // coincide.
    let (mut front, mut front_sched) = fresh()?;
    for _ in 0..lam {
        advance(&mut front, &mut front_sched, sync);
    }
    let (mut back, mut back_sched) = fresh()?;
    let mut mu = 0u64;
    while front_sched.phase(n) != back_sched.phase(n) || front.labeling() != back.labeling() {
        advance(&mut front, &mut front_sched, sync);
        advance(&mut back, &mut back_sched, sync);
        mu += 1;
        if mu > budget {
            return Err(overrun());
        }
    }
    // `back` now sits at step µ, the cycle entry.
    let close = mu + lam;

    // Phase 3 — walk the cycle once: is the labeling constant? Are the
    // outputs?
    let entry: Vec<L> = back.labeling().to_vec();
    let mut labels_constant = true;
    let mut outs_constant = true;
    let mut cycle_outs: Vec<Output> = Vec::new();
    for j in 0..lam {
        advance(&mut back, &mut back_sched, sync);
        if back.labeling() != &entry[..] {
            labels_constant = false;
        }
        if j == 0 {
            cycle_outs.extend_from_slice(back.outputs());
        } else if back.outputs() != &cycle_outs[..] {
            outs_constant = false;
        }
    }
    // `back` is at step µ+λ: the cycle close, where the arena detector
    // reads its final outputs.
    let final_outputs = back.outputs().to_vec();

    if labels_constant {
        // Phase 4a — earliest step after which the labeling never changed:
        // one replay over the transient, tracking the last step whose
        // labeling differed from the stable one.
        let (mut probe, mut probe_sched) = fresh()?;
        let mut round = u64::from(probe.labeling() != &entry[..]);
        for t in 1..close {
            advance(&mut probe, &mut probe_sched, sync);
            if probe.labeling() != &entry[..] {
                round = t + 1;
            }
        }
        return Ok(SyncOutcome::LabelStable {
            round,
            labeling: entry,
            outputs: final_outputs,
        });
    }

    let outputs_stable = if outs_constant {
        // Phase 4b — earliest step after which outputs never changed:
        // one replay tracking the last step whose outputs differed from
        // the final ones (steps 1..=close, matching the arena walk-back).
        let (mut probe, mut probe_sched) = fresh()?;
        let mut round = 1u64;
        for t in 1..=close {
            advance(&mut probe, &mut probe_sched, sync);
            if probe.outputs() != &final_outputs[..] {
                round = t + 1;
            }
        }
        Some((round, final_outputs))
    } else {
        None
    };
    Ok(SyncOutcome::Oscillating {
        cycle_start: mu,
        period: lam,
        outputs_stable,
    })
}

/// Reference implementation of [`classify_sync`]: the original
/// clone-per-round `HashMap<Vec<L>, u64>` cycle detector stepping through
/// the allocating [`Protocol::apply`] path. Kept for differential testing
/// and as the baseline in the `convergence` bench; the two must agree on
/// every input.
///
/// # Errors
///
/// As for [`classify_sync`].
#[doc(hidden)]
pub fn classify_sync_naive<L: Label>(
    protocol: &Protocol<L>,
    inputs: &[Input],
    initial: Vec<L>,
    max_states: usize,
) -> Result<SyncOutcome<L>, CoreError> {
    protocol.check_lengths(&initial, inputs)?;
    let n = protocol.node_count();
    let mut seen: HashMap<Vec<L>, u64> = HashMap::new();
    // history[t] = labeling at round t; outputs_history[t] = outputs
    // produced by the step from round t-1 to t (outputs_history[0] is the
    // pre-run placeholder and never inspected).
    let mut history: Vec<Vec<L>> = vec![initial.clone()];
    let mut outputs_history: Vec<Vec<Output>> = vec![vec![0; n]];
    let mut current = initial;
    seen.insert(current.clone(), 0);

    for t in 1..=(max_states as u64) {
        let mut next = current.clone();
        let mut outs = vec![0; n];
        for node in 0..n {
            let (outgoing, output) = protocol.apply(node, &current, inputs[node])?;
            for (slot, &e) in outgoing.into_iter().zip(protocol.graph().out_edges(node)) {
                next[e] = slot;
            }
            outs[node] = output;
        }
        if let Some(&s) = seen.get(&next) {
            let period = t - s;
            if period == 1 && next == current {
                // Fixed point: find the first round the labeling equaled it.
                let round = history
                    .iter()
                    .position(|l| *l == next)
                    .expect("fixed point was visited") as u64;
                // Outputs after stabilization: produced by stepping from the
                // stable labeling.
                return Ok(SyncOutcome::LabelStable {
                    round,
                    labeling: next,
                    outputs: outs,
                });
            }
            history.push(next.clone());
            outputs_history.push(outs);
            // Outputs along the cycle are outputs_history[s+1 ..= t]; they
            // are the recurring output vectors (the step out of round s
            // produced outputs_history[s+1], and the cycle repeats).
            let cycle_outputs = &outputs_history[(s + 1) as usize..=t as usize];
            let constant = cycle_outputs.windows(2).all(|w| w[0] == w[1]);
            let outputs_stable = if constant {
                let final_outputs = cycle_outputs[0].clone();
                // Earliest round after which outputs never changed: walk
                // back from the end of recorded history.
                let mut round = s + 1;
                for back in (1..=t).rev() {
                    if outputs_history[back as usize] != final_outputs {
                        round = back + 1;
                        break;
                    }
                    round = back;
                }
                Some((round, final_outputs))
            } else {
                None
            };
            return Ok(SyncOutcome::Oscillating {
                cycle_start: s,
                period,
                outputs_stable,
            });
        }
        seen.insert(next.clone(), t);
        history.push(next.clone());
        outputs_history.push(outs);
        current = next;
    }
    Err(CoreError::NotConverged {
        steps: max_states as u64,
    })
}

/// Measures the synchronous round complexity of `protocol` over a set of
/// initial labelings and one input: the maximum label-stabilization round,
/// or `None` if some run oscillates.
///
/// # Errors
///
/// Propagates [`classify_sync`] errors.
pub fn sync_round_complexity<L: Label>(
    protocol: &Protocol<L>,
    inputs: &[Input],
    initials: impl IntoIterator<Item = Vec<L>>,
    max_states: usize,
) -> Result<Option<u64>, CoreError> {
    sync_round_complexity_with(
        protocol,
        inputs,
        initials,
        max_states,
        CycleDetector::ExactArena,
    )
}

/// [`sync_round_complexity`] with an explicit [`CycleDetector`] — use
/// [`CycleDetector::Brent`] when individual runs have transients too long
/// to keep in the arena.
///
/// # Errors
///
/// Propagates [`classify_sync_with`] errors.
pub fn sync_round_complexity_with<L: Label>(
    protocol: &Protocol<L>,
    inputs: &[Input],
    initials: impl IntoIterator<Item = Vec<L>>,
    max_states: usize,
    detector: CycleDetector,
) -> Result<Option<u64>, CoreError> {
    let mut worst = 0;
    for initial in initials {
        match classify_sync_with(protocol, inputs, initial, max_states, detector)? {
            SyncOutcome::LabelStable { round, .. } => worst = worst.max(round),
            SyncOutcome::Oscillating { .. } => return Ok(None),
        }
    }
    Ok(Some(worst))
}

/// Work-batch size for the parallel sweep drivers: large enough to
/// amortize the chunk-claim (one atomic fetch-add per batch), small enough
/// to balance uneven per-initial classification costs.
const PAR_BATCH: usize = 64;

/// Applies `f` to every initial labeling, in parallel across all available
/// cores, and returns the results **in input order**.
///
/// Work is distributed by an atomic chunked counter: workers claim
/// `PAR_BATCH`-sized index ranges with one `fetch_add` each (no shared
/// lock on the hot path) and regenerate their items from a per-worker
/// clone of the iterator, which must therefore be `Clone +
/// ExactSizeIterator` — cheap for lazy generators like [`all_labelings`]
/// (which jumps its odometer in O(|E|) per skip) and for `Vec` inputs.
/// The full sweep is never materialized at once. `Protocol` is
/// `Send + Sync` (reactions are `Arc`ed), so `f` can capture one and
/// drive per-worker simulations.
///
/// # Examples
///
/// ```
/// use stateless_core::convergence::{all_labelings, par_sweep};
///
/// let ones = par_sweep(all_labelings(&[false, true], 8), |l| {
///     l.iter().filter(|&&b| b).count()
/// });
/// assert_eq!(ones.len(), 256);
/// assert_eq!(ones.iter().sum::<usize>(), 8 * 128);
/// ```
pub fn par_sweep<L, T, I, F>(initials: I, f: F) -> Vec<T>
where
    L: Label,
    T: Send,
    I: IntoIterator<Item = Vec<L>>,
    I::IntoIter: Send + Clone + ExactSizeIterator,
    F: Fn(Vec<L>) -> T + Sync,
{
    par_sweep_init_with_workers(rayon::current_num_threads(), || (), initials, |(), l| f(l))
}

/// [`par_sweep`] with per-worker scratch state: `init` builds one `S` per
/// worker and `f` receives it mutably alongside each labeling, so sweep
/// bodies can reuse buffers across items instead of allocating per probe
/// (e.g. the scratch pair of
/// [`Protocol::is_stable_labeling_buffered`]).
pub fn par_sweep_init<L, T, S, I, FI, F>(init: FI, initials: I, f: F) -> Vec<T>
where
    L: Label,
    T: Send,
    I: IntoIterator<Item = Vec<L>>,
    I::IntoIter: Send + Clone + ExactSizeIterator,
    FI: Fn() -> S + Sync,
    F: Fn(&mut S, Vec<L>) -> T + Sync,
{
    par_sweep_init_with_workers(rayon::current_num_threads(), init, initials, f)
}

/// [`par_sweep_init`] with an explicit worker count (tests exercise the
/// threaded path regardless of the host's core count).
fn par_sweep_init_with_workers<L, T, S, I, FI, F>(
    workers: usize,
    init: FI,
    initials: I,
    f: F,
) -> Vec<T>
where
    L: Label,
    T: Send,
    I: IntoIterator<Item = Vec<L>>,
    I::IntoIter: Send + Clone + ExactSizeIterator,
    FI: Fn() -> S + Sync,
    F: Fn(&mut S, Vec<L>) -> T + Sync,
{
    let source = initials.into_iter();
    let total = source.len();
    if workers <= 1 || total <= PAR_BATCH {
        // No parallelism available (or nothing to balance): skip the
        // worker machinery entirely.
        let mut state = init();
        return source.map(|l| f(&mut state, l)).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(total));
    rayon::scope(|s| {
        for _ in 0..workers {
            // Each worker owns a clone of the source iterator and advances
            // it monotonically to whatever chunk it claims; claims cost one
            // atomic fetch-add, results are merged once per worker.
            let mut it = source.clone();
            let (next, results, init, f) = (&next, &results, &init, &f);
            s.spawn(move || {
                let mut state = init();
                let mut pos = 0usize;
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    let start = next.fetch_add(PAR_BATCH, Ordering::Relaxed);
                    if start >= total {
                        break;
                    }
                    let end = (start + PAR_BATCH).min(total);
                    if start > pos {
                        it.nth(start - pos - 1);
                        pos = start;
                    }
                    for i in start..end {
                        let item = it.next().expect("iterator shorter than its len()");
                        pos += 1;
                        local.push((i, f(&mut state, item)));
                    }
                }
                if !local.is_empty() {
                    results
                        .lock()
                        .expect("sweep results lock")
                        .append(&mut local);
                }
            });
        }
    });
    let mut results = results.into_inner().expect("sweep workers joined");
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, t)| t).collect()
}

/// Parallel [`sync_round_complexity`]: classifies every initial labeling
/// concurrently (chunk-claimed over all cores) and folds the worst
/// stabilization round. Stops early as soon as any run oscillates.
///
/// When every run classifies cleanly the result is identical to the
/// sequential driver. When the sweep contains both an oscillating run and
/// a failing one, an oscillation verdict (`Ok(None)`) deterministically
/// wins here — it is a conclusive statement about the protocol regardless
/// of the budget failure — whereas the sequential driver returns
/// whichever it encounters first in iteration order. (Consequently a
/// classification error stops nothing: the sweep runs to completion —
/// or to the first oscillation — before the error is reported.) When
/// several runs fail and none oscillates, which error is reported is
/// nondeterministic.
///
/// # Errors
///
/// Propagates [`classify_sync`] errors.
pub fn sync_round_complexity_par<L, I>(
    protocol: &Protocol<L>,
    inputs: &[Input],
    initials: I,
    max_states: usize,
) -> Result<Option<u64>, CoreError>
where
    L: Label,
    I: IntoIterator<Item = Vec<L>>,
    I::IntoIter: Send + Clone + ExactSizeIterator,
{
    sync_round_complexity_par_with(
        protocol,
        inputs,
        initials,
        max_states,
        CycleDetector::ExactArena,
    )
}

/// [`sync_round_complexity_par`] with an explicit [`CycleDetector`].
///
/// # Errors
///
/// As for [`sync_round_complexity_par`].
pub fn sync_round_complexity_par_with<L, I>(
    protocol: &Protocol<L>,
    inputs: &[Input],
    initials: I,
    max_states: usize,
    detector: CycleDetector,
) -> Result<Option<u64>, CoreError>
where
    L: Label,
    I: IntoIterator<Item = Vec<L>>,
    I::IntoIter: Send + Clone + ExactSizeIterator,
{
    sync_round_complexity_par_with_workers(
        rayon::current_num_threads(),
        protocol,
        inputs,
        initials,
        max_states,
        detector,
    )
}

/// [`sync_round_complexity_par_with`] with an explicit worker count.
fn sync_round_complexity_par_with_workers<L, I>(
    workers: usize,
    protocol: &Protocol<L>,
    inputs: &[Input],
    initials: I,
    max_states: usize,
    detector: CycleDetector,
) -> Result<Option<u64>, CoreError>
where
    L: Label,
    I: IntoIterator<Item = Vec<L>>,
    I::IntoIter: Send + Clone + ExactSizeIterator,
{
    let source = initials.into_iter();
    let total = source.len();
    if workers <= 1 || total <= PAR_BATCH {
        return sync_round_complexity_with(protocol, inputs, source, max_states, detector);
    }
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let oscillating = AtomicBool::new(false);
    let worst = AtomicU64::new(0);
    let error: Mutex<Option<CoreError>> = Mutex::new(None);
    rayon::scope(|s| {
        for _ in 0..workers {
            let mut it = source.clone();
            let (next, stop, oscillating, worst, error) =
                (&next, &stop, &oscillating, &worst, &error);
            s.spawn(move || {
                let mut pos = 0usize;
                'claims: while !stop.load(Ordering::Relaxed) {
                    let start = next.fetch_add(PAR_BATCH, Ordering::Relaxed);
                    if start >= total {
                        break;
                    }
                    let end = (start + PAR_BATCH).min(total);
                    if start > pos {
                        it.nth(start - pos - 1);
                        pos = start;
                    }
                    for _ in start..end {
                        let Some(initial) = it.next() else {
                            break 'claims;
                        };
                        pos += 1;
                        if stop.load(Ordering::Relaxed) {
                            break 'claims;
                        }
                        match classify_sync_with(protocol, inputs, initial, max_states, detector) {
                            Ok(SyncOutcome::LabelStable { round, .. }) => {
                                worst.fetch_max(round, Ordering::Relaxed);
                            }
                            Ok(SyncOutcome::Oscillating { .. }) => {
                                oscillating.store(true, Ordering::Relaxed);
                                stop.store(true, Ordering::Relaxed);
                            }
                            Err(e) => {
                                // Record the error but keep sweeping: a
                                // later oscillation verdict overrides it
                                // (setting `stop` here would starve that
                                // check and break the documented
                                // precedence).
                                let mut slot = error.lock().expect("sweep error lock");
                                slot.get_or_insert(e);
                            }
                        }
                    }
                }
            });
        }
    });
    // Oscillation is checked before errors: it is a final verdict about
    // the protocol, while an error only says some *other* run blew its
    // classification budget (see the doc above).
    if oscillating.load(Ordering::Relaxed) {
        return Ok(None);
    }
    if let Some(e) = error.into_inner().expect("sweep workers joined") {
        return Err(e);
    }
    Ok(Some(worst.load(Ordering::Relaxed)))
}

/// Enumerates all labelings of a graph with `edges` edges over the label
/// alphabet `alphabet` (cartesian power). Intended for exhaustive sweeps
/// on tiny instances; the iterator yields `|alphabet|^edges` items and
/// knows its exact length (saturating at `usize::MAX` for sweep sizes
/// that could never be enumerated anyway). Skipping via
/// [`Iterator::nth`] jumps the internal odometer directly instead of
/// materializing the skipped labelings — this is what lets the parallel
/// sweep drivers fan chunks out without a shared iterator lock.
pub fn all_labelings<L: Label>(alphabet: &[L], edges: usize) -> AllLabelings<L> {
    let remaining = u32::try_from(edges)
        .ok()
        .and_then(|e| alphabet.len().checked_pow(e))
        .unwrap_or(usize::MAX);
    AllLabelings {
        alphabet: alphabet.to_vec(),
        counters: vec![0; edges],
        remaining,
    }
}

/// Iterator over all labelings; see [`all_labelings`].
#[derive(Debug, Clone)]
pub struct AllLabelings<L> {
    alphabet: Vec<L>,
    /// Little-endian base-`alphabet.len()` odometer of the next item.
    counters: Vec<usize>,
    remaining: usize,
}

impl<L: Label> Iterator for AllLabelings<L> {
    type Item = Vec<L>;

    fn next(&mut self) -> Option<Vec<L>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let item: Vec<L> = self
            .counters
            .iter()
            .map(|&c| self.alphabet[c].clone())
            .collect();
        // Increment odometer (wrap-around past the last item is harmless:
        // `remaining` is the source of truth for termination).
        for c in self.counters.iter_mut() {
            *c += 1;
            if *c == self.alphabet.len() {
                *c = 0;
            } else {
                break;
            }
        }
        Some(item)
    }

    fn nth(&mut self, k: usize) -> Option<Vec<L>> {
        if k >= self.remaining {
            self.remaining = 0;
            return None;
        }
        // Jump the odometer k positions forward in O(edges) without
        // materializing the skipped labelings.
        let base = self.alphabet.len();
        if base > 1 {
            let mut carry = k;
            for c in self.counters.iter_mut() {
                if carry == 0 {
                    break;
                }
                let digit = *c + carry % base;
                *c = digit % base;
                carry = carry / base + digit / base;
            }
        }
        self.remaining -= k;
        self.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<L: Label> ExactSizeIterator for AllLabelings<L> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reaction::FnReaction;
    use crate::schedule::{RoundRobin, Scripted};
    use crate::topology;

    fn max_ring(n: usize) -> Protocol<u64> {
        Protocol::builder(topology::unidirectional_ring(n), 8.0)
            .uniform_reaction(FnReaction::new(|_, incoming: &[u64], input| {
                let m = incoming[0].max(input);
                (vec![m], m)
            }))
            .build()
            .unwrap()
    }

    fn rotate_ring(n: usize) -> Protocol<u64> {
        Protocol::builder(topology::unidirectional_ring(n), 8.0)
            .uniform_reaction(FnReaction::new(|_, incoming: &[u64], _| {
                (vec![incoming[0]], incoming[0])
            }))
            .build()
            .unwrap()
    }

    #[test]
    fn classify_detects_fixed_point_and_round() {
        let p = max_ring(4);
        for detector in [CycleDetector::ExactArena, CycleDetector::Brent] {
            let outcome =
                classify_sync_with(&p, &[1, 2, 3, 4], vec![0; 4], 10_000, detector).unwrap();
            match outcome {
                SyncOutcome::LabelStable {
                    round,
                    labeling,
                    outputs,
                } => {
                    assert!(round <= 4);
                    assert_eq!(labeling, vec![4; 4]);
                    assert_eq!(outputs, vec![4; 4]);
                }
                other => panic!("expected label stability, got {other:?}"),
            }
        }
    }

    #[test]
    fn classify_detects_oscillation_with_period() {
        let p = rotate_ring(3);
        for detector in [CycleDetector::ExactArena, CycleDetector::Brent] {
            let outcome = classify_sync_with(&p, &[0; 3], vec![7, 8, 9], 10_000, detector).unwrap();
            match outcome {
                SyncOutcome::Oscillating {
                    cycle_start,
                    period,
                    outputs_stable,
                } => {
                    assert_eq!(cycle_start, 0);
                    assert_eq!(period, 3);
                    assert!(outputs_stable.is_none(), "rotating distinct outputs");
                }
                other => panic!("expected oscillation, got {other:?}"),
            }
        }
    }

    #[test]
    fn output_stable_label_oscillation() {
        // Rotating identical labels but constant outputs: rotate labels,
        // output a constant.
        let p = Protocol::builder(topology::unidirectional_ring(3), 8.0)
            .uniform_reaction(FnReaction::new(|_, incoming: &[u64], _| {
                (vec![incoming[0].wrapping_add(1) % 2], 42)
            }))
            .build()
            .unwrap();
        // Labels cycle (parity flip through ring of odd size → period 2).
        for detector in [CycleDetector::ExactArena, CycleDetector::Brent] {
            let outcome = classify_sync_with(&p, &[0; 3], vec![0, 1, 0], 10_000, detector).unwrap();
            match outcome {
                SyncOutcome::Oscillating { outputs_stable, .. } => {
                    let (round, outs) = outputs_stable.expect("outputs constant");
                    assert_eq!(outs, vec![42; 3]);
                    assert!(round <= 1);
                }
                SyncOutcome::LabelStable { .. } => panic!("labels should oscillate"),
            }
        }
    }

    #[test]
    fn brent_agrees_with_arena_on_every_field() {
        let cases: Vec<(Protocol<u64>, Vec<Input>, Vec<u64>)> = vec![
            (max_ring(4), vec![1, 2, 3, 4], vec![0; 4]),
            (max_ring(3), vec![0, 0, 0], vec![9, 1, 5]),
            (rotate_ring(3), vec![0; 3], vec![7, 8, 9]),
            (rotate_ring(4), vec![0; 4], vec![1, 1, 2, 2]),
            (rotate_ring(5), vec![0; 5], vec![1, 1, 1, 1, 1]),
        ];
        for (p, inputs, init) in cases {
            let arena =
                classify_sync_with(&p, &inputs, init.clone(), 10_000, CycleDetector::ExactArena)
                    .unwrap();
            let brent =
                classify_sync_with(&p, &inputs, init, 10_000, CycleDetector::Brent).unwrap();
            assert_eq!(arena, brent);
        }
    }

    #[test]
    fn classify_scheduled_sees_oscillation_under_round_robin() {
        // Negation on an odd ring has no fixed point a sequential schedule
        // can reach (e₀ = ¬e₂, e₁ = ¬e₀, e₂ = ¬e₁ is contradictory), so
        // the product run must close a non-constant cycle.
        let p = Protocol::builder(topology::unidirectional_ring(3), 1.0)
            .uniform_reaction(FnReaction::new(|_, incoming: &[bool], _| {
                (vec![!incoming[0]], u64::from(!incoming[0]))
            }))
            .build()
            .unwrap();
        let sched = RoundRobin::new(1);
        for detector in [CycleDetector::ExactArena, CycleDetector::Brent] {
            let outcome = classify_scheduled(
                &p,
                &[0; 3],
                vec![false, false, false],
                &sched,
                10_000,
                detector,
            )
            .unwrap();
            let SyncOutcome::Oscillating { period, .. } = outcome else {
                panic!("negation ring oscillates under round-robin, got {outcome:?}");
            };
            assert!(period >= 2, "period {period}");
        }
        // And both detectors agree exactly.
        let arena = classify_scheduled(
            &p,
            &[0; 3],
            vec![false, true, false],
            &RoundRobin::new(1),
            10_000,
            CycleDetector::ExactArena,
        )
        .unwrap();
        let brent = classify_scheduled(
            &p,
            &[0; 3],
            vec![false, true, false],
            &RoundRobin::new(1),
            10_000,
            CycleDetector::Brent,
        )
        .unwrap();
        assert_eq!(arena, brent);
    }

    #[test]
    fn classify_scheduled_label_stable_under_partial_schedule() {
        // Max-propagation from an already-stable labeling: any schedule
        // keeps it put, and the verdict is LabelStable at step 0.
        let p = max_ring(3);
        let sched = Scripted::cycle(vec![vec![0], vec![1, 2]]);
        for detector in [CycleDetector::ExactArena, CycleDetector::Brent] {
            let outcome =
                classify_scheduled(&p, &[0; 3], vec![5, 5, 5], &sched, 10_000, detector).unwrap();
            match outcome {
                SyncOutcome::LabelStable {
                    round, labeling, ..
                } => {
                    assert_eq!(round, 0);
                    assert_eq!(labeling, vec![5, 5, 5]);
                }
                other => panic!("expected stability, got {other:?}"),
            }
        }
    }

    #[test]
    fn classify_scheduled_converges_then_reports_round() {
        // Round-robin max-propagation: converges after a transient; both
        // detectors must agree on the exact convergence step.
        let p = max_ring(4);
        let sched = RoundRobin::new(1);
        let arena = classify_scheduled(
            &p,
            &[7, 0, 0, 0],
            vec![0; 4],
            &sched,
            10_000,
            CycleDetector::ExactArena,
        )
        .unwrap();
        let brent = classify_scheduled(
            &p,
            &[7, 0, 0, 0],
            vec![0; 4],
            &sched,
            10_000,
            CycleDetector::Brent,
        )
        .unwrap();
        assert_eq!(arena, brent);
        assert!(arena.is_label_stable());
        let SyncOutcome::LabelStable { round, outputs, .. } = arena else {
            unreachable!()
        };
        assert!(round >= 1, "a real transient was crossed");
        assert_eq!(outputs, vec![7; 4]);
    }

    #[test]
    fn classify_scheduled_respects_initial_phase() {
        // Advancing the schedule before classification must shift which
        // activation comes first (phase is part of the product state).
        let p = max_ring(3);
        let mut shifted = Scripted::cycle(vec![vec![0], vec![1], vec![2]]);
        let mut buf = Vec::new();
        shifted.activations_into(1, 3, &mut buf); // now at phase 1
        let fresh = Scripted::cycle(vec![vec![0], vec![1], vec![2]]);
        let a = classify_scheduled(
            &p,
            &[0, 0, 9],
            vec![0; 3],
            &shifted,
            10_000,
            CycleDetector::ExactArena,
        )
        .unwrap();
        let b = classify_scheduled(
            &p,
            &[0, 0, 9],
            vec![0; 3],
            &fresh,
            10_000,
            CycleDetector::ExactArena,
        )
        .unwrap();
        // Both stabilize to all-9, but along different trajectories.
        assert!(a.is_label_stable() && b.is_label_stable());
        assert_ne!(a.output_round(), b.output_round());
    }

    #[test]
    fn round_complexity_over_all_initials() {
        let p = max_ring(3);
        let initials = all_labelings(&[0u64, 1, 2], 3);
        let r = sync_round_complexity(&p, &[0, 1, 2], initials, 10_000)
            .unwrap()
            .expect("max protocol always stabilizes");
        // Labels ≥ inputs are absorbed within n rounds.
        assert!(r <= 3, "got {r}");
    }

    #[test]
    fn round_complexity_agrees_across_detectors() {
        let p = max_ring(3);
        let exact = sync_round_complexity_with(
            &p,
            &[0, 1, 2],
            all_labelings(&[0u64, 1, 2], 3),
            10_000,
            CycleDetector::ExactArena,
        )
        .unwrap();
        let brent = sync_round_complexity_with(
            &p,
            &[0, 1, 2],
            all_labelings(&[0u64, 1, 2], 3),
            10_000,
            CycleDetector::Brent,
        )
        .unwrap();
        assert_eq!(exact, brent);
    }

    #[test]
    fn round_complexity_none_on_oscillators() {
        let p = rotate_ring(3);
        let initials = vec![vec![0u64, 1, 2]];
        assert_eq!(
            sync_round_complexity(&p, &[0; 3], initials, 1000).unwrap(),
            None
        );
    }

    #[test]
    fn all_labelings_enumerates_cartesian_power() {
        let all: Vec<Vec<bool>> = all_labelings(&[false, true], 3).collect();
        assert_eq!(all.len(), 8);
        assert_eq!(all[0], vec![false, false, false]);
        assert!(all.contains(&vec![true, false, true]));
        let dedup: std::collections::HashSet<_> = all.iter().cloned().collect();
        assert_eq!(dedup.len(), 8);
    }

    #[test]
    fn all_labelings_zero_edges_is_single_empty() {
        let all: Vec<Vec<bool>> = all_labelings(&[false, true], 0).collect();
        assert_eq!(all, vec![Vec::<bool>::new()]);
    }

    #[test]
    fn all_labelings_len_is_exact() {
        assert_eq!(all_labelings(&[0u64, 1, 2], 4).len(), 81);
        assert_eq!(all_labelings(&[0u64], 5).len(), 1);
        assert_eq!(all_labelings(&[] as &[u64], 3).len(), 0);
        let mut it = all_labelings(&[false, true], 3);
        it.next();
        assert_eq!(it.len(), 7);
    }

    #[test]
    fn all_labelings_nth_jumps_the_odometer() {
        for k in 0..16 {
            let direct = all_labelings(&[0u64, 1], 4).nth(k);
            let stepped: Option<Vec<u64>> = {
                let mut it = all_labelings(&[0u64, 1], 4);
                let mut item = None;
                for _ in 0..=k {
                    item = it.next();
                }
                item
            };
            assert_eq!(direct, stepped, "k = {k}");
        }
        // Jumping past the end terminates cleanly.
        assert_eq!(all_labelings(&[0u64, 1], 4).nth(16), None);
        let mut it = all_labelings(&[0u64, 1], 4);
        it.nth(20);
        assert_eq!(it.len(), 0);
        // And chained jumps compose: nth(10) consumes items 0..=10, so a
        // following nth(5) yields absolute index 16.
        let mut it = all_labelings(&[0u64, 1, 2], 4);
        it.nth(10);
        let a = it.nth(5);
        let b = all_labelings(&[0u64, 1, 2], 4).nth(16);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_round_complexity_matches_sequential() {
        let p = max_ring(3);
        let initials: Vec<Vec<u64>> = all_labelings(&[0u64, 1, 2], 3).collect();
        let seq = sync_round_complexity(&p, &[0, 1, 2], initials.clone(), 10_000).unwrap();
        // Exercise the threaded path explicitly (the public entry point
        // may fall back to sequential on single-core hosts) and the
        // fallback.
        for workers in [1, 4] {
            for detector in [CycleDetector::ExactArena, CycleDetector::Brent] {
                let par = sync_round_complexity_par_with_workers(
                    workers,
                    &p,
                    &[0, 1, 2],
                    initials.clone(),
                    10_000,
                    detector,
                )
                .unwrap();
                assert_eq!(seq, par, "workers = {workers}, {detector:?}");
                assert!(par.is_some());
            }
        }
        let public = sync_round_complexity_par(&p, &[0, 1, 2], initials, 10_000).unwrap();
        assert_eq!(seq, public);
    }

    #[test]
    fn parallel_round_complexity_detects_oscillation() {
        let p = rotate_ring(3);
        for workers in [1, 4] {
            let initials = all_labelings(&[0u64, 1], 3);
            assert_eq!(
                sync_round_complexity_par_with_workers(
                    workers,
                    &p,
                    &[0; 3],
                    initials,
                    1000,
                    CycleDetector::ExactArena,
                )
                .unwrap(),
                None,
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn parallel_round_complexity_propagates_errors() {
        let p = Protocol::builder(topology::unidirectional_ring(2), 64.0)
            .uniform_reaction(FnReaction::new(|_, incoming: &[u64], _| {
                (vec![incoming[0] + 1], 0)
            }))
            .build()
            .unwrap();
        for workers in [1, 4] {
            let err = sync_round_complexity_par_with_workers(
                workers,
                &p,
                &[0, 0],
                vec![vec![0u64, 0]],
                100,
                CycleDetector::ExactArena,
            )
            .unwrap_err();
            assert_eq!(
                err,
                CoreError::NotConverged { steps: 100 },
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn par_sweep_preserves_input_order() {
        for workers in [1, 4] {
            let initials: Vec<Vec<u64>> = (0..500).map(|i| vec![i]).collect();
            let doubled = par_sweep_init_with_workers(workers, || (), initials, |(), l| l[0] * 2);
            assert_eq!(doubled.len(), 500);
            for (i, v) in doubled.into_iter().enumerate() {
                assert_eq!(v, 2 * i as u64, "workers = {workers}");
            }
        }
    }

    #[test]
    fn par_sweep_with_more_workers_than_items() {
        // 3 items on 8 workers: the atomic-counter chunk claiming must
        // neither panic on empty claims nor drop or duplicate items. A
        // sub-batch total exercises the sequential fallback; a total one
        // past PAR_BATCH engages the threaded path with six of the eight
        // workers claiming beyond-the-end (empty) chunks.
        for total in [3usize, PAR_BATCH + 1] {
            let initials: Vec<Vec<u64>> = (0..total as u64).map(|i| vec![i]).collect();
            let got = par_sweep_init_with_workers(8, || (), initials, |(), l| l[0] + 1);
            assert_eq!(
                got,
                (1..=total as u64).collect::<Vec<_>>(),
                "total = {total}"
            );
        }
        // Same guard for the round-complexity driver.
        let p = max_ring(3);
        let initials: Vec<Vec<u64>> = all_labelings(&[0u64, 1, 2], 3).take(3).collect();
        let seq = sync_round_complexity(&p, &[0, 1, 2], initials.clone(), 10_000).unwrap();
        let par = sync_round_complexity_par_with_workers(
            8,
            &p,
            &[0, 1, 2],
            initials,
            10_000,
            CycleDetector::ExactArena,
        )
        .unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn par_sweep_over_lazy_generator_preserves_order() {
        // The chunk-claiming path regenerates items from per-worker
        // iterator clones; the odometer jumps must land on the right
        // labelings in the right order.
        let expected: Vec<Vec<u64>> = all_labelings(&[0u64, 1, 2], 5).collect();
        for workers in [2, 4] {
            let got = par_sweep_init_with_workers(
                workers,
                || (),
                all_labelings(&[0u64, 1, 2], 5),
                |(), l| l,
            );
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn par_sweep_init_reuses_worker_state() {
        for workers in [1, 4] {
            let initials: Vec<Vec<u64>> = (0..300).map(|i| vec![i]).collect();
            // Each worker counts its own items in its scratch state; the
            // returned running counts prove states persist across items.
            let counts = par_sweep_init_with_workers(
                workers,
                || 0u64,
                initials,
                |count, _l| {
                    *count += 1;
                    *count
                },
            );
            assert_eq!(counts.len(), 300);
            let max_seen = counts.iter().max().copied().unwrap();
            assert!(max_seen > 1, "workers = {workers}: state was not reused");
            // One count-1 entry per worker that got items (a fast worker
            // may drain every batch, so only a lower/upper bound holds).
            let fresh = counts.iter().filter(|&&c| c == 1).count();
            assert!(
                (1..=workers).contains(&fresh),
                "workers = {workers}: {fresh} fresh states"
            );
        }
    }

    #[test]
    fn parallel_oscillation_verdict_beats_budget_error() {
        // One initial blows the classification budget (counter grows
        // unboundedly), another oscillates. The documented precedence:
        // the oscillation verdict (Ok(None)) must win, even when the
        // failing run is classified first.
        let p = Protocol::builder(topology::unidirectional_ring(2), 64.0)
            .uniform_reaction(FnReaction::new(|_, incoming: &[u64], _| {
                // Labels below 1000 grow forever (budget blower); labels
                // at 1000/1001 swap forever (oscillator).
                let next = match incoming[0] {
                    1000 => 1001,
                    1001 => 1000,
                    v => v + 1,
                };
                (vec![next], 0)
            }))
            .build()
            .unwrap();
        // The sweep needs more items than one PAR_BATCH so the threaded
        // path engages: many budget blowers, one oscillator in the middle.
        let mut initials: Vec<Vec<u64>> =
            (0..2 * PAR_BATCH as u64).map(|k| vec![k % 50, 0]).collect();
        initials.insert(PAR_BATCH, vec![1000, 1000]);
        for workers in [1, 4] {
            let got = sync_round_complexity_par_with_workers(
                workers,
                &p,
                &[0, 0],
                initials.clone(),
                50,
                CycleDetector::ExactArena,
            );
            if workers == 1 {
                // Sequential fallback hits a failing run first.
                assert_eq!(got.unwrap_err(), CoreError::NotConverged { steps: 50 });
            } else {
                assert_eq!(got.unwrap(), None, "oscillation wins over the error");
            }
        }
    }

    #[test]
    fn classify_respects_state_cap() {
        let p = Protocol::builder(topology::unidirectional_ring(2), 64.0)
            .uniform_reaction(FnReaction::new(|_, incoming: &[u64], _| {
                (vec![incoming[0] + 1], 0)
            }))
            .build()
            .unwrap();
        // Counter grows unboundedly; must hit the cap in both modes.
        for detector in [CycleDetector::ExactArena, CycleDetector::Brent] {
            let err = classify_sync_with(&p, &[0, 0], vec![0, 0], 100, detector).unwrap_err();
            assert_eq!(err, CoreError::NotConverged { steps: 100 });
        }
    }
}
