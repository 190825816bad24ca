//! The labeling × countdown product graph and its SCC analysis.
//!
//! # Memory model
//!
//! The explorer is built on the fingerprint-interning machinery of
//! [`stateless_core::intern`], so the product graph is stored flat:
//!
//! * **Packed states.** Each product state `(labeling, countdown,
//!   outputs)` is bit-packed into a fixed number of `u64` words: every
//!   edge label becomes a `⌈log₂|Σ|⌉`-bit alphabet index and every
//!   per-node countdown a `⌈log₂ r⌉`-bit field (outputs, tracked only for
//!   output-stabilization queries, ride in a parallel flat word row). A
//!   state of a 16-edge Boolean protocol with `r ≤ 16` occupies 16 bytes
//!   instead of three heap `Vec`s *plus* their `HashMap`-key clones.
//! * **Sharded fingerprint interning.** States are resolved through a
//!   [`ShardedStateIndex`]: the top bits of the seeded FxHash fingerprint
//!   pick one of [`SHARD_COUNT`] self-contained shards, each owning its
//!   fingerprint index, collision side list, and packed-row arenas, and
//!   ids are `(shard, local)` pairs packed into one `u64`. Every
//!   fingerprint hit is confirmed by exact equality against the shard
//!   arena, so hash collisions cost a comparison but never a wrong
//!   verdict.
//! * **No stored edges.** The verifier holds **no full-graph CSR**: a
//!   product transition is a pure function of its packed source row, so
//!   every phase that needs edges regenerates them on the fly —
//!   decode the row, call each correct node's reaction once, enumerate
//!   activation sets, pack (and, under symmetry, canonicalize) each
//!   successor, and resolve it by a read-only fingerprint lookup
//!   ([`StateShard::lookup`]) against the shard arenas. This is the
//!   classic on-the-fly / implicit-graph model-checking move: memory is
//!   O(states) plus bounded transients (per-batch record buffers during
//!   exploration, the successor buffers along one DFS path during SCC,
//!   and one small CSR over the single verdict SCC during witness
//!   reconstruction), never O(edges). [`Limits::max_edges`] survives as
//!   a **traversal budget**: exploration still counts every transition
//!   it generates (each exactly once) and fails with
//!   [`VerifyError::TooManyEdges`] past the budget, bounding wall time
//!   on dense activation sets — it just no longer corresponds to any
//!   stored array.
//! * **SCC over a successor oracle.** Components come from
//!   [`stateless_core::scc::condense`], one serial iterative Tarjan pass
//!   driven through the [`scc::SuccessorOracle`] trait, which regenerates
//!   each state's successors from its packed row exactly once. The
//!   numbering is canonical (components ordered by minimum member id),
//!   a property of the graph alone, so component ids — and hence
//!   verdicts and witnesses — are bit-identical at every thread count.
//!
//! ## Migration note (`max_edges` / `TooManyEdges`)
//!
//! Through PR 5, [`VerifyError::TooManyEdges`] meant "the stored CSR
//! arrays would exceed [`Limits::max_edges`] entries". The stored
//! arrays are gone; the error now means "exploration *generated* more
//! than `max_edges` transitions". Because the old explorer also
//! generated each edge exactly once, the error trips at the same point
//! on the same graphs with the same `limit` payload — existing matchers
//! on `TooManyEdges { limit }` keep working unchanged — but the default
//! budget is now sized for wall time, not for a 8-byte-per-edge array
//! (see [`Limits::default`]). [`ExploreStats::edge_bytes`] likewise now
//! reports the **peak transient** edge bytes (largest per-batch record
//! buffer, plus the witness-phase component CSR) instead of final CSR
//! storage.
//!
//! # Parallel exploration and determinism
//!
//! Frontier expansion runs on [`Limits::threads`] workers in batches of
//! bounded fan-out, in three phases per batch:
//!
//! 1. **Expand** (parallel over chunks): workers claim contiguous slices
//!    of the batch's source states, decode each state from the shard
//!    arenas (read locks only), call each correct node's reaction once
//!    and resolve its out-labels to alphabet indices, enumerate its
//!    activation sets (each set only copies those indices), and emit,
//!    per target shard, a record stream of `(stream key, fingerprint,
//!    packed words)` — successors are *not* resolved yet, and nothing
//!    per-edge outlives the batch.
//! 2. **Intern** (parallel over shards): each shard is claimed by exactly
//!    one worker, which replays that shard's records **in stream order**
//!    (chunk by chunk, record by record) against the shard's fingerprint
//!    index — so local id assignment never depends on thread timing, and
//!    shards never contend.
//! 3. **Number** (serial barrier): fresh states from all shards are
//!    merged by stream key — the position of the edge that first
//!    discovered them — and dense ids are assigned in that order, which
//!    is exactly the order the sequential explorer interns in. The
//!    batch's record buffers are then dropped; only the edge count (the
//!    traversal budget) and the peak transient byte figure survive.
//!
//! Batch and chunk boundaries derive only from per-state degree
//! estimates (never the thread count), shard assignment depends only on
//! the fingerprint, and every merge is ordered by stream position — so
//! verdicts, state numbering, and witnesses are **bit-identical for
//! every thread count**, and `threads = 1` *is* the sequential packed
//! explorer rather than a separate code path. `tests/differential.rs`
//! asserts this invariant on random protocols.
//!
//! # Symmetry-quotient exploration ([`Limits::symmetry`])
//!
//! With [`SymmetryMode::Auto`], the explorer quotients the product
//! graph by the protocol's behaviorally-validated automorphism group
//! ([`stateless_core::symmetry`]): every packed successor is rewritten
//! to the lexicographically-least element of its orbit *before*
//! fingerprint resolution, so exactly one representative per orbit is
//! ever interned — up to `|G|`× fewer states and generated edges (n× on
//! rings, 2n× on bidirectional rings).
//!
//! **Soundness.** A validated automorphism `g` commutes with the
//! product transition: `succ_{π_g(A)}(g·s) = g·succ_A(s)`, and it
//! preserves whether an edge is "interesting" (labels/outputs changed).
//! The seed set (all labelings × full countdowns × zero outputs) is
//! closed under the group, so canonical seeding covers every orbit.
//! Hence any full-graph cycle maps edge-by-edge onto a closed walk of
//! the quotient, and conversely any interesting intra-SCC quotient edge
//! lifts to a concrete cycle — the two verdicts coincide. Because the
//! canonical form is a pure function of the state and never of thread
//! timing, the cross-thread determinism contract holds verbatim under
//! the quotient. Pure ring groups take the keyed ring path of
//! [`Symmetry::canonicalize`] (one `u128` key per position, Booth's
//! minimal-rotation search over the keys written twice, the winner
//! repacked straight from them); other groups run the generator-orbit
//! scan. Each worker's [`CanonScratch`] keeps either path
//! allocation-free per edge.
//!
//! **Witnesses.** Each regenerated quotient edge carries the group
//! element `h` that canonicalized its successor. Witness reconstruction
//! de-canonicalizes: walking the quotient cycle with an accumulated
//! element `c` (concrete mask = `c`-image of the quotient mask, then
//! `c ← c ∘ h⁻¹`), and unrolling laps until `c` returns to the identity
//! (at most `|G|` laps), yields a concrete cycle of the *unquotiented*
//! system — replayed witnesses stay valid `Scripted` schedules exactly
//! as with symmetry off.
//!
//! The previous owned-`Vec`-interning explorer is retained as
//! [`verify_label_stabilization_naive`] / [`verify_output_stabilization_naive`]
//! and differentially tested against this one (`tests/differential.rs`);
//! it exists for testing only. One behavioral refinement: the packed
//! explorer requires the reactions to be closed over `alphabet` and
//! reports a violation immediately as [`VerifyError::BadParameters`],
//! where the naive explorer would silently grow the state space until
//! [`Limits::max_states`] tripped.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::RwLockReadGuard;
use std::time::{Duration, Instant};

use stateless_core::checkpoint::{CheckpointError, CheckpointStore, SegmentWriter};
use stateless_core::convergence::all_labelings;
use stateless_core::intern::{
    bits_for, pack, pack_state_id, shard_of, state_fingerprint as fingerprint, unpack,
    unpack_state_id, FxBuildHasher, ShardedStateIndex, StateShard, SHARD_COUNT,
};
use stateless_core::label::Label;
use stateless_core::prelude::*;
use stateless_core::scc;
use stateless_core::symmetry::{Automorphism, CanonScratch, PackedLayout, Symmetry, SymmetryMode};

use crate::checkpoint::{instance_fingerprint, CheckpointHandle, CheckpointPolicy, ResumeError};

/// Largest node count the exact verifier accepts; a larger protocol is
/// rejected as [`VerifyError::BadParameters`] before anything is
/// explored.
pub const MAX_NODES: usize = 16;

/// Exploration limits and parallelism.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Maximum number of product states to materialize.
    pub max_states: usize,
    /// Traversal budget: the maximum number of product transitions
    /// exploration may *generate* (each edge is generated exactly once).
    /// Nothing per-edge is stored anymore — see the module docs'
    /// migration note — but edges outnumber states by the
    /// activation-set fan-out (up to `2^n − 1` per state on dense
    /// activation sets), so the state cap alone does not bound wall
    /// time; this one does. Exceeding it fails with
    /// [`VerifyError::TooManyEdges`], exactly as it always did.
    pub max_edges: usize,
    /// Worker threads for frontier expansion and the interesting-edge
    /// scan; `0` means all available cores. SCC condensation is one
    /// serial pass whatever the value. Verdicts, state ids, and
    /// witnesses are bit-identical for every value — the thread count is
    /// purely a throughput knob.
    pub threads: usize,
    /// Symmetry-quotient exploration. [`SymmetryMode::Off`] (the
    /// default) explores the full product graph exactly as before;
    /// [`SymmetryMode::Auto`] derives behaviorally-validated topology
    /// automorphisms ([`stateless_core::symmetry::Symmetry::derive`])
    /// and interns only orbit-canonical states, shrinking states and
    /// generated edges by up to the group order with the **same**
    /// verdict and a witness that replays on the unquotiented system
    /// (see the module docs' symmetry section). With faults present the
    /// derived group is restricted to its fault-placement-preserving
    /// subgroup (the fault sets act as a node coloring), so quotienting
    /// stays sound under [`Limits::faults`] too.
    pub symmetry: SymmetryMode,
    /// The fault model ([`FaultModel::none`] by default). Byzantine
    /// nodes' reactions are replaced by demonic adversary choices — at
    /// every activation, any label per outgoing edge — and crash nodes'
    /// by the single keep-current-labels choice; both leave their
    /// tracked output frozen at `0`. The product graph then branches
    /// over *scheduler* edges and *adversary-choice* edges, both
    /// universally quantified, so `Stabilizing` means "under every
    /// r-fair schedule **and** every adversary strategy, the
    /// correct-node labels (or outputs) eventually stop changing", and a
    /// [`CycleWitness`] carries the adversary's per-step choices — a
    /// concrete replayable strategy
    /// ([`Simulation::step_with_adversary`](stateless_core::engine::Simulation::step_with_adversary)).
    pub faults: FaultModel,
    /// Wall-clock budget for exploration (`None` — the default — means
    /// unlimited). Unlike [`Limits::max_states`], exceeding it is **not**
    /// an error: exploration stops at the next batch boundary and the
    /// verifier returns [`Verdict::Partial`], carrying a resumable
    /// [`CheckpointHandle`] when a [`Limits::checkpoint`] policy is set.
    /// The budget covers exploration only — a run that finishes
    /// exploring always condenses and reports its full verdict, however
    /// long the SCC phase takes. Batch boundaries depend only on
    /// deterministic exploration totals, but *which* boundary the
    /// deadline trips at is inherently timing-dependent; determinism is
    /// preserved where it matters — any checkpoint, wherever taken,
    /// resumes to the bit-identical final verdict.
    pub deadline: Option<Duration>,
    /// Crash-safe checkpointing policy (`None` — the default — writes
    /// nothing). See [`CheckpointPolicy`]: epochs are written at batch
    /// boundaries into a [`stateless_core::checkpoint::CheckpointStore`]
    /// and resumed with `verify_label_stabilization_resumed` /
    /// `verify_output_stabilization_resumed`.
    pub checkpoint: Option<CheckpointPolicy>,
}

impl Limits {
    /// Rejects meaningless limit combinations up front — a zero
    /// checkpoint interval, a non-finite or non-positive wall-clock
    /// interval, a zero epoch retention, or a zero deadline — as
    /// [`VerifyError::BadParameters`] instead of misbehaving
    /// mid-exploration. Every verification entry point (packed and
    /// naive) calls this before exploring.
    ///
    /// # Errors
    ///
    /// [`VerifyError::BadParameters`] naming the offending field.
    pub fn validate(&self) -> Result<(), VerifyError> {
        let bad = |what: &str| {
            Err(VerifyError::BadParameters {
                what: what.to_string(),
            })
        };
        if self.deadline == Some(Duration::ZERO) {
            return bad("deadline must be positive (Duration::ZERO would never explore)");
        }
        if let Some(policy) = &self.checkpoint {
            if policy.every_states == Some(0) {
                return bad("checkpoint.every_states must be ≥ 1");
            }
            if let Some(secs) = policy.every_secs {
                if !secs.is_finite() || secs <= 0.0 {
                    return bad("checkpoint.every_secs must be finite and positive");
                }
            }
            if policy.retain == 0 {
                return bad("checkpoint.retain must be ≥ 1 (0 would prune the epoch just written)");
            }
        }
        Ok(())
    }
}

/// The argument [`ExploredProduct::condense`] still takes from its bench
/// callers; there is one SCC engine, so the value selects nothing.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SccBackend {
    /// Serial iterative Tarjan ([`stateless_core::scc::condense`]).
    #[default]
    Tarjan,
}

impl Default for Limits {
    fn default() -> Self {
        // With no stored edges, memory is O(states): a Boolean-alphabet
        // state costs a word or two of packed row plus ~16 bytes of
        // fingerprint index and ~13 bytes of dense/bookkeeping arrays, so
        // 10^8 states is a few GB where the seed's CSR arrays alone would
        // have needed tens. `max_edges` is now a traversal budget (wall
        // time, not storage) and scales accordingly: 2^40 generated
        // transitions is roughly a day of single-core exploration — far
        // past the seed's 2^28 storage cap that dense activation sets
        // kept tripping.
        Limits {
            max_states: 100_000_000,
            max_edges: 1 << 40,
            threads: 0,
            symmetry: SymmetryMode::Off,
            faults: FaultModel::none(),
            deadline: None,
            checkpoint: None,
        }
    }
}

/// Errors from exact verification.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyError {
    /// The product graph exceeded [`Limits::max_states`].
    TooManyStates {
        /// The limit that was hit.
        limit: usize,
    },
    /// The product graph exceeded [`Limits::max_edges`].
    TooManyEdges {
        /// The limit that was hit.
        limit: usize,
    },
    /// A protocol probe failed.
    Core(CoreError),
    /// Parameters out of range (e.g. `r = 0`, more than [`MAX_NODES`]
    /// nodes, or a reaction that emits labels outside the declared
    /// alphabet).
    BadParameters {
        /// Description.
        what: String,
    },
    /// Writing a checkpoint epoch failed (an I/O problem in the
    /// [`CheckpointPolicy::dir`] store). Exploration state is intact in
    /// memory but could not be persisted.
    Checkpoint {
        /// The underlying store failure.
        what: String,
    },
    /// Resuming from a checkpoint failed — see [`ResumeError`] for the
    /// typed causes (instance mismatch, no valid epoch, corruption, I/O).
    Resume(ResumeError),
    /// An expand worker panicked on the same chunk twice (once in the
    /// parallel wave, once in the serial retry) — a reaction with a
    /// reproducible panic. When a [`Limits::checkpoint`] policy is set,
    /// everything interned *before* the poisoned batch was written as a
    /// final epoch first, so the work is not lost; fix the reaction and
    /// resume from [`checkpoint`](VerifyError::PoisonedChunk::checkpoint).
    PoisonedChunk {
        /// The panic payload (when it was a string) and the chunk range.
        what: String,
        /// The checkpoint-and-fail epoch, when a policy was set and the
        /// final write succeeded.
        checkpoint: Option<CheckpointHandle>,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::TooManyStates { limit } => {
                write!(f, "product graph exceeded {limit} states")
            }
            VerifyError::TooManyEdges { limit } => {
                write!(f, "product graph exceeded {limit} edges")
            }
            VerifyError::Core(e) => write!(f, "protocol probe failed: {e}"),
            VerifyError::BadParameters { what } => write!(f, "bad parameters: {what}"),
            VerifyError::Checkpoint { what } => {
                write!(f, "checkpoint write failed: {what}")
            }
            VerifyError::Resume(e) => write!(f, "resume failed: {e}"),
            VerifyError::PoisonedChunk { what, checkpoint } => {
                write!(f, "expand worker panicked twice: {what}")?;
                match checkpoint {
                    Some(h) => write!(
                        f,
                        " (progress checkpointed as epoch {} in {})",
                        h.epoch,
                        h.dir.display()
                    ),
                    None => Ok(()),
                }
            }
        }
    }
}

impl Error for VerifyError {}

impl From<CoreError> for VerifyError {
    fn from(e: CoreError) -> Self {
        VerifyError::Core(e)
    }
}

impl From<ResumeError> for VerifyError {
    fn from(e: ResumeError) -> Self {
        VerifyError::Resume(e)
    }
}

impl From<CheckpointError> for VerifyError {
    fn from(e: CheckpointError) -> Self {
        VerifyError::Checkpoint {
            what: e.to_string(),
        }
    }
}

/// A concrete non-convergence witness: start at `labeling` and repeat
/// `schedule` forever; the labeling never converges, and the schedule is
/// r-fair by the countdown construction.
///
/// Under a fault model the witness is a full adversary *strategy*:
/// [`adversary`](CycleWitness::adversary) records, step by step, the
/// labels the Byzantine nodes write — replay it with
/// [`Simulation::step_with_adversary`](stateless_core::engine::Simulation::step_with_adversary)
/// and the correct-node labels oscillate forever.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleWitness<L> {
    /// The labeling at the cycle entry.
    pub labeling: Vec<L>,
    /// The cyclic activation script.
    pub schedule: Vec<Vec<NodeId>>,
    /// The adversary's choices, one entry per schedule step: for each
    /// *activated Byzantine* node, the labels it writes on its outgoing
    /// edges (in `out_edges` order). Always `schedule.len()` entries;
    /// all of them empty when the fault model is fault-free.
    pub adversary: Vec<Vec<(NodeId, Vec<L>)>>,
}

/// The verification verdict.
///
/// # Migration note (`Verdict::Partial`)
///
/// Through PR 8 this enum had exactly two variants and exploration
/// could only end in a full verdict or a [`VerifyError`]. With
/// [`Limits::deadline`] set, running out of wall clock is **not** an
/// error: the verifier degrades gracefully to [`Verdict::Partial`],
/// reporting how far it got and (when a [`Limits::checkpoint`] policy
/// is set) a resumable [`CheckpointHandle`]. Code that never sets a
/// deadline never sees the new variant; exhaustive matches need one new
/// arm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict<L> {
    /// Every r-fair run from every initial labeling converges.
    Stabilizing,
    /// Some r-fair run oscillates forever; here is one.
    NotStabilizing(CycleWitness<L>),
    /// The [`Limits::deadline`] expired before exploration finished: no
    /// claim either way. Resume with
    /// [`verify_label_stabilization_resumed`] /
    /// [`verify_output_stabilization_resumed`] to continue toward the
    /// full verdict — which is bit-identical to what an uninterrupted
    /// run would have produced.
    Partial {
        /// Product states interned so far (all of them persisted when
        /// [`checkpoint`](Verdict::Partial::checkpoint) is `Some`).
        states_explored: usize,
        /// States interned but not yet expanded — the remaining frontier.
        frontier_len: usize,
        /// The final checkpoint epoch written at the deadline boundary,
        /// when a [`Limits::checkpoint`] policy was set.
        checkpoint: Option<CheckpointHandle>,
    },
}

impl<L> Verdict<L> {
    /// Whether the verdict is [`Verdict::Stabilizing`]. A
    /// [`Verdict::Partial`] is **not** stabilizing — it is no claim at
    /// all; check [`is_partial`](Verdict::is_partial) first when
    /// deadlines are in play.
    pub fn is_stabilizing(&self) -> bool {
        matches!(self, Verdict::Stabilizing)
    }

    /// Whether the verdict is [`Verdict::Partial`].
    pub fn is_partial(&self) -> bool {
        matches!(self, Verdict::Partial { .. })
    }
}

/// Size accounting for one exploration, reported by
/// [`verify_label_stabilization_with_stats`]. All byte figures are
/// *logical payload* bytes — rows × row width for states, records ×
/// record width for the transient buffers. Allocation slack on top
/// (partially filled arena blocks in each of the [`SHARD_COUNT`]
/// shards, ~16 bytes of fingerprint index per state) is excluded; it is
/// bounded and amortizes away at the state counts where memory matters.
///
/// Every field is bit-identical across thread counts —
/// the differential suite asserts stats equality — so the transient
/// peak is computed only from thread-independent quantities (batch
/// boundaries derive from degree estimates, the witness CSR from the
/// verdict component).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreStats {
    /// Product states materialized.
    pub states: usize,
    /// Product transitions generated during exploration (each exactly
    /// once) — the figure [`Limits::max_edges`] budgets. None of them
    /// are stored.
    pub edges: usize,
    /// Packed `u64` words per state.
    pub words_per_state: usize,
    /// Bytes of state storage: the packed arenas plus output rows.
    pub state_bytes: usize,
    /// **Peak transient** edge bytes: the largest per-batch successor
    /// record buffer exploration ever held (records die with their
    /// batch), maxed with the witness phase's single-component CSR.
    /// Replaces the stored-CSR figure of the pre-oracle verifier — see
    /// the module docs' migration note. The exploration contribution is
    /// capped by the batch-budget ceiling (`BATCH_EDGE_BUDGET`); on a
    /// cyclic verdict the witness CSR — proportional to the verdict
    /// SCC's intra-edges, not the whole graph — can exceed it and
    /// dominate this figure.
    pub edge_bytes: usize,
}

/// Ceiling of the per-batch fan-out budget: a batch closes once the
/// estimated edge count of its sources reaches the current budget (see
/// [`Explorer::batch_edge_budget`]). With no stored CSR, the per-batch
/// record buffers (roughly 24–40 bytes per edge) **are** the verifier's
/// entire per-edge memory, so the budget directly caps the transient
/// peak that [`ExploreStats::edge_bytes`] reports — a few MB at this
/// ceiling, independent of the graph.
///
/// The budget ramps from [`BATCH_EDGE_BUDGET_MIN`] with the explored
/// graph size so that small product graphs never see a transient larger
/// than a fraction of their own (former) CSR. It is a function of
/// `(n_states, n_edges)` at the batch boundary — deterministic,
/// identical at every thread count — and **never** of the thread count
/// or the machine: batch and chunk boundaries decide scheduling only
/// (dense numbering is anchored to the globally monotone stream keys,
/// so even the boundaries themselves cannot change the output).
const BATCH_EDGE_BUDGET: u64 = 1 << 17;
/// Floor of the adaptive per-batch fan-out budget.
const BATCH_EDGE_BUDGET_MIN: u64 = 1 << 12;
/// Per-chunk fan-out budget: sources are grouped into chunks of roughly
/// this many edges, the unit of work-stealing inside a batch.
const CHUNK_EDGE_BUDGET: u64 = 1 << 14;
/// Initial labelings interned per seed batch; bounds the seed-phase
/// record buffers exactly like [`BATCH_EDGE_BUDGET`] bounds expansion.
const SEED_BATCH_STATES: usize = 1 << 17;
/// Batches with fewer estimated edges than this run their pipeline waves
/// inline instead of spawning workers: the vendored rayon stand-in has no
/// persistent pool, so each wave costs OS thread spawns, which only
/// amortize over enough work. Purely a scheduling heuristic — the
/// pipeline's results are deterministic by construction, so execution
/// strategy never affects verdicts, ids, or witnesses.
const PARALLEL_MIN_BATCH_EDGES: u64 = 1 << 16;
/// States per chunk of the parallel interesting-edge scan. A fixed
/// constant for the same reason as the budgets above: the scan returns
/// the first hit of the earliest chunk, so chunk boundaries must not
/// depend on the thread count.
const SCAN_CHUNK_STATES: usize = 1 << 14;

/// Read-only exploration parameters, shared by every worker.
struct Config<'p, L: Label> {
    protocol: &'p Protocol<L>,
    inputs: Vec<Input>,
    r: u8,
    track_outputs: bool,
    /// Deduplicated alphabet; packed label fields are indices into it.
    alphabet: Vec<L>,
    label_index: HashMap<L, u32, FxBuildHasher>,
    label_width: u32,
    countdown_width: u32,
    words_per_state: usize,
    /// Words of auxiliary per-state output storage (`n` when outputs are
    /// tracked, else 0). Outputs are raw `Output` words — no palette
    /// indirection, so fingerprints and equality never depend on the
    /// (timing-dependent) order outputs are first observed in.
    aux_len: usize,
    n: usize,
    e: usize,
    /// Resolved worker count (≥ 1).
    threads: usize,
    /// The packed bit layout, as [`stateless_core::symmetry`] consumes it.
    layout: PackedLayout,
    /// The validated automorphism group when quotient exploration is on
    /// (`None` for [`SymmetryMode::Off`] or a trivial derived group);
    /// with faults present, already restricted to the
    /// fault-placement-preserving subgroup.
    symmetry: Option<Symmetry>,
    /// The fault model (validated against `n` up front).
    faults: FaultModel,
    /// Edge ids whose *source* node is correct — the only edges whose
    /// changes count as "interesting" under a fault model (Byzantine
    /// edges change at the adversary's whim, crash edges never change).
    /// Empty when the model is fault-free (full-slice comparison is
    /// then the interesting test, exactly the pre-fault code path).
    correct_src_edges: Vec<usize>,
    /// Upper bound on the adversary branching factor of any activation
    /// set: `|Σ|^(total Byzantine out-degree)`, saturating. `1` when
    /// fault-free — every fan-out estimate degrades to the exact
    /// pre-fault figure.
    byz_branch_bound: u64,
}

impl<L: Label> Config<'_, L> {
    /// Number of *free* (not deadline-forced) nodes of a packed state: a
    /// countdown field packs `cd − 1`, so nonzero means the node is not
    /// forced. Sizes the state's fan-out as `2^free` activation sets.
    fn free_count(&self, row: &[u64]) -> u8 {
        let base = self.e * self.label_width as usize;
        let cw = self.countdown_width;
        (0..self.n)
            .filter(|&i| unpack(row, base + i * cw as usize, cw) != 0)
            .count() as u8
    }
}

// The state fingerprint is `stateless_core::intern::state_fingerprint`
// (imported as `fingerprint`): the shard, the confirm-equality probe,
// the checkpoint restore path, and every thread count agree on the one
// function.

/// Per-target-shard record stream of one chunk: each record is an edge
/// whose successor hashes into that shard, in stream order (source state
/// order, then activation-set order). Flat SoA storage — `words`/`aux`
/// are strided by the packed row lengths.
#[derive(Default)]
struct ShardRecords {
    /// Stream keys: `(source dense id << 32) | edge index` for expansion
    /// records, the enumeration index for seed records. Strictly
    /// increasing along each shard's replayed stream; fresh states are
    /// dense-numbered in key order.
    keys: Vec<u64>,
    fps: Vec<u64>,
    words: Vec<u64>,
    aux: Vec<u64>,
}

impl ShardRecords {
    /// A record buffer pre-sized for about `records` records of `w` packed
    /// words and `aux_len` auxiliary words — fingerprints spread records
    /// uniformly over the shards, so sizing each to its fair share (plus
    /// slack) avoids most growth reallocations on the hot path.
    fn with_capacity(records: usize, w: usize, aux_len: usize) -> Self {
        ShardRecords {
            keys: Vec::with_capacity(records),
            fps: Vec::with_capacity(records),
            words: Vec::with_capacity(records * w),
            aux: Vec::with_capacity(records * aux_len),
        }
    }
}

/// One chunk's expansion output: the per-shard successor records plus
/// the chunk's generated-edge count (the traversal-budget figure —
/// nothing per-edge survives the batch).
struct ChunkOut {
    /// Transitions this chunk generated.
    emitted: usize,
    /// Successor records, bucketed by target shard.
    shards: Vec<ShardRecords>,
}

/// One shard's interning output for a batch: the fresh states it
/// discovered (ascending stream keys — the merge relies on it). Hits
/// are not reported back — with no CSR to scatter into, only fresh
/// states matter.
struct ShardIntern {
    /// `(stream key, local id, free-node count)` per fresh state.
    fresh: Vec<(u64, u32, u8)>,
}

/// Reusable per-worker decode/pack buffers for successor enumeration —
/// everything [`Explorer::for_each_successor`] needs beyond the shard
/// read guards. One per worker, warm across states: regenerating an edge
/// allocates nothing.
struct ExpandScratch<L> {
    labeling: Vec<L>,
    label_idx: Vec<u32>,
    next_label_idx: Vec<u32>,
    /// Per edge, the alphabet index its (correct) source node's reaction
    /// writes from the current state; per node, that reaction's output.
    /// Filled once per state, copied per activation set.
    react_idx: Vec<u32>,
    react_out: Vec<u64>,
    countdown: Vec<u8>,
    out_words: Vec<u64>,
    next_out_words: Vec<u64>,
    state: Vec<u64>,
    in_buf: Vec<L>,
    react_buf: Vec<L>,
    free_nodes: Vec<usize>,
    /// Out-edge ids of the activated Byzantine nodes of the current
    /// activation set (ascending node id, `out_edges` order) — the digit
    /// positions of the adversary-choice code.
    byz_edges: Vec<usize>,
    /// Canonicalization-side copy of the auxiliary output row: the same
    /// successor is re-canonicalized once per adversary choice, so the
    /// choice-independent `next_out_words` must not be permuted in place.
    canon_aux: Vec<u64>,
    canon: CanonScratch,
}

impl<L: Label> ExpandScratch<L> {
    fn new(cfg: &Config<'_, L>) -> Self {
        ExpandScratch {
            labeling: Vec::with_capacity(cfg.e),
            label_idx: vec![0u32; cfg.e],
            next_label_idx: vec![0u32; cfg.e],
            react_idx: vec![0u32; cfg.e],
            react_out: vec![0u64; cfg.n],
            countdown: vec![0u8; cfg.n],
            out_words: vec![0u64; cfg.aux_len],
            next_out_words: vec![0u64; cfg.aux_len],
            state: vec![0u64; cfg.words_per_state],
            in_buf: Vec::new(),
            react_buf: Vec::new(),
            free_nodes: Vec::with_capacity(cfg.n),
            byz_edges: Vec::with_capacity(cfg.e),
            canon_aux: vec![0u64; cfg.aux_len],
            canon: CanonScratch::default(),
        }
    }
}

/// Runs `count` independent jobs on up to `threads` workers (claimed via
/// an atomic cursor, like the sweep drivers in `stateless-core`) and
/// returns the results **in job order** — callers depend on index order,
/// never completion order, which is what keeps the pipeline
/// deterministic. `threads = 1` runs inline on the caller thread.
/// Renders a caught panic payload for error reporting: the `&str` /
/// `String` payloads `panic!` produces, or a placeholder otherwise.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_indexed<T, F>(threads: usize, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || count <= 1 {
        return (0..count).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, T)> = Vec::with_capacity(count);
    rayon::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(count))
            .map(|_| {
                let (next, f) = (&next, &f);
                scope.spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        got.push((i, f(i)));
                    }
                    got
                })
            })
            .collect();
        for worker in workers {
            indexed.extend(worker.join().expect("pipeline worker panicked"));
        }
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, t)| t).collect()
}

/// Outcome of the batch loop: a fully explored product graph, or the
/// deadline-truncated prefix of one (everything interned so far plus
/// the cursor separating expanded states from the frontier).
enum Explored<'p, L: Label> {
    Complete(Explorer<'p, L>),
    Partial {
        ex: Explorer<'p, L>,
        cursor: usize,
        checkpoint: Option<CheckpointHandle>,
    },
}

/// Magic stamped first into every epoch header segment ("STLSCKP1").
const CKPT_MAGIC: u64 = 0x5354_4c53_434b_5031;
/// Epoch payload format version.
const CKPT_VERSION: u64 = 1;
/// Header segment: magic, version, instance fingerprint, totals,
/// cursor, and the packed layout.
const SEG_HEADER: u32 = 1;
/// Per-shard metadata: shard index, row count, block counts.
const SEG_SHARD: u32 = 2;
/// One arena block of packed state rows (whole rows, local-id order) —
/// streamed out of [`StateShard::row_blocks`] as-is.
const SEG_ROWS: u32 = 3;
/// One arena block of auxiliary output rows.
const SEG_AUX: u32 = 4;
/// A shard's dense ids, one `u32` per local id.
const SEG_DENSE: u32 = 5;

/// The periodic-checkpoint state of one [`Explorer::run`]: the open
/// store, the next epoch number (continuing past any epochs already in
/// the directory), and the interval accounting.
struct CheckpointRun {
    store: CheckpointStore,
    every_states: Option<usize>,
    every_secs: Option<f64>,
    retain: usize,
    instance_fp: u64,
    next_epoch: u64,
    /// `n_states + cursor` at the last write. Progress is interned
    /// states *plus* expanded states: label-mode `r = 1` instances seed
    /// their entire state space up front, so counting interned states
    /// alone would never trigger a write on exactly the long
    /// expansion-bound runs checkpointing exists for.
    progress_at_last: usize,
    last_write: Instant,
}

impl CheckpointRun {
    /// Opens the policy's store (`Ok(None)` when no policy is set).
    fn begin<L: Label>(
        ex: &Explorer<'_, L>,
        cursor: usize,
        limits: &Limits,
    ) -> Result<Option<CheckpointRun>, VerifyError> {
        let Some(policy) = &limits.checkpoint else {
            return Ok(None);
        };
        let store = CheckpointStore::open(&policy.dir)?;
        let next_epoch = store.epochs()?.last().map_or(1, |&k| k + 1);
        Ok(Some(CheckpointRun {
            store,
            every_states: policy.every_states,
            every_secs: policy.every_secs,
            retain: policy.retain,
            instance_fp: ex.instance_fp(limits),
            next_epoch,
            progress_at_last: ex.n_states + cursor,
            last_write: Instant::now(),
        }))
    }

    /// Writes an epoch if either periodic interval has elapsed.
    fn maybe_write<L: Label>(
        &mut self,
        ex: &Explorer<'_, L>,
        cursor: usize,
    ) -> Result<(), VerifyError> {
        let due = self
            .every_states
            .is_some_and(|k| ex.n_states + cursor - self.progress_at_last >= k)
            || self
                .every_secs
                .is_some_and(|s| self.last_write.elapsed().as_secs_f64() >= s);
        if due {
            self.write(ex, cursor)?;
        }
        Ok(())
    }

    /// Writes one epoch at the batch boundary `cursor` and commits it
    /// (prune-to-retention included).
    fn write<L: Label>(
        &mut self,
        ex: &Explorer<'_, L>,
        cursor: usize,
    ) -> Result<CheckpointHandle, VerifyError> {
        let mut writer = self.store.begin_epoch(self.next_epoch)?;
        ex.save_into(&mut writer, cursor, self.instance_fp)?;
        self.store.commit(writer, self.retain)?;
        let handle = CheckpointHandle {
            dir: self.store.dir().to_path_buf(),
            epoch: self.next_epoch,
        };
        self.next_epoch += 1;
        self.progress_at_last = ex.n_states + cursor;
        self.last_write = Instant::now();
        Ok(handle)
    }
}

struct Explorer<'p, L: Label> {
    cfg: Config<'p, L>,
    /// Sharded state storage: fingerprint index + packed rows per shard.
    index: ShardedStateIndex,
    /// Dense id → packed `(shard, local)` id.
    dense_ids: Vec<u64>,
    /// Dense id → free-node count (sizes batches and chunks).
    free_bits: Vec<u8>,
    n_states: usize,
    /// Transitions generated during exploration (each exactly once) —
    /// the running total [`Limits::max_edges`] budgets. No per-edge
    /// storage backs it.
    n_edges: usize,
    /// Peak transient edge bytes (see [`ExploreStats::edge_bytes`]):
    /// max over batches of the record-buffer payload, later maxed with
    /// the witness CSR by `&self` phases — hence atomic.
    peak_edge_bytes: AtomicUsize,
}

impl<'p, L: Label> Explorer<'p, L> {
    /// Full exploration: [`Explorer::prepare`], seed, then
    /// [`Explorer::run`] from cursor 0.
    fn explore(
        protocol: &'p Protocol<L>,
        inputs: &[Input],
        alphabet: &[L],
        r: u8,
        track_outputs: bool,
        limits: &Limits,
    ) -> Result<Explored<'p, L>, VerifyError> {
        let mut ex = Explorer::prepare(protocol, inputs, alphabet, r, track_outputs, limits)?;
        ex.seed(limits)?;
        ex.run(0, limits)
    }

    /// Validates every parameter and constructs an empty explorer —
    /// shared by [`Explorer::explore`] and the checkpoint-resume path,
    /// so both agree on every derived quantity (deduped alphabet, packed
    /// layout, symmetry group, fan-out bounds).
    fn prepare(
        protocol: &'p Protocol<L>,
        inputs: &[Input],
        alphabet: &[L],
        r: u8,
        track_outputs: bool,
        limits: &Limits,
    ) -> Result<Self, VerifyError> {
        limits.validate()?;
        let n = protocol.node_count();
        let e = protocol.edge_count();
        if n > MAX_NODES {
            return Err(VerifyError::BadParameters {
                what: format!("exhaustive verification supports n ≤ {MAX_NODES}, got {n}"),
            });
        }
        if r == 0 {
            return Err(VerifyError::BadParameters {
                what: "r must be ≥ 1".into(),
            });
        }
        limits
            .faults
            .validate(n)
            .map_err(|e| VerifyError::BadParameters {
                what: e.to_string(),
            })?;
        // Deduplicate the alphabet (first occurrence wins) so equal labels
        // share one packed index and states dedup exactly as in the naive
        // explorer.
        let mut label_index: HashMap<L, u32, FxBuildHasher> = HashMap::default();
        let mut dedup: Vec<L> = Vec::with_capacity(alphabet.len());
        for l in alphabet {
            if !label_index.contains_key(l) {
                label_index.insert(l.clone(), dedup.len() as u32);
                dedup.push(l.clone());
            }
        }
        // Adversary fan-out: an activated Byzantine node branches over
        // |Σ|^out-degree label choices. The per-source edge index must
        // fit the u32 half of the stream key, so reject models whose
        // worst-case fan-out (every activation set × every choice) could
        // overflow it — such an exploration would be astronomically
        // infeasible anyway.
        let faults = limits.faults;
        let mut byz_branch_bound = 1u64;
        for i in faults.byzantine_nodes().filter(|&i| i < n) {
            for _ in 0..protocol.graph().out_degree(i) {
                byz_branch_bound = byz_branch_bound.saturating_mul(dedup.len() as u64);
            }
        }
        if (1u64 << n).saturating_mul(byz_branch_bound) > u64::from(u32::MAX) {
            return Err(VerifyError::BadParameters {
                what: format!(
                    "adversary fan-out |Σ|^byz-out-degree = {byz_branch_bound} is too \
                     large to enumerate (per-state fan-out must fit 32 bits)"
                ),
            });
        }
        let correct_src_edges: Vec<usize> = if faults.has_faults() {
            protocol
                .graph()
                .edges()
                .filter(|&(_, u, _)| !faults.is_faulty(u))
                .map(|(id, _, _)| id)
                .collect()
        } else {
            Vec::new()
        };
        let label_width = bits_for(dedup.len());
        let countdown_width = bits_for(r as usize);
        let state_bits = e * label_width as usize + n * countdown_width as usize;
        let words_per_state = state_bits.div_ceil(64).max(1);
        let aux_len = if track_outputs { n } else { 0 };
        let threads = if limits.threads == 0 {
            rayon::current_num_threads()
        } else {
            limits.threads
        }
        .max(1);
        let layout = PackedLayout {
            label_width,
            countdown_width,
            edges: e,
            nodes: n,
            words: words_per_state,
            aux: aux_len,
        };
        // Derive the automorphism group up front (Auto only); a trivial
        // group degrades to exactly the Off code path. Fault placement
        // acts as a node coloring: only placement-preserving elements
        // survive (a Byzantine node may only map to a Byzantine node),
        // which is what keeps orbit-canonical interning sound under
        // adversary branching.
        let symmetry = match limits.symmetry {
            SymmetryMode::Off => None,
            SymmetryMode::Auto => {
                let derived = Symmetry::derive(protocol, inputs, &dedup);
                let restricted = if faults.has_faults() {
                    let colors: Vec<u64> = (0..n)
                        .map(|i| {
                            if faults.is_byzantine(i) {
                                1
                            } else if faults.is_crash(i) {
                                2
                            } else {
                                0
                            }
                        })
                        .collect();
                    derived.restrict_to_coloring(&colors)
                } else {
                    derived
                };
                Some(restricted).filter(|s| !s.is_trivial())
            }
        };
        let ex = Explorer {
            cfg: Config {
                protocol,
                inputs: inputs.to_vec(),
                r,
                track_outputs,
                alphabet: dedup,
                label_index,
                label_width,
                countdown_width,
                words_per_state,
                aux_len,
                n,
                e,
                threads,
                layout,
                symmetry,
                faults,
                correct_src_edges,
                byz_branch_bound,
            },
            index: ShardedStateIndex::new(words_per_state, aux_len),
            dense_ids: Vec::new(),
            free_bits: Vec::new(),
            n_states: 0,
            n_edges: 0,
            peak_edge_bytes: AtomicUsize::new(0),
        };
        Ok(ex)
    }

    /// The canonical fingerprint of this exploration instance — what
    /// every checkpoint epoch stamps and the resume path verifies.
    fn instance_fp(&self, limits: &Limits) -> u64 {
        instance_fingerprint(
            self.cfg.protocol,
            &self.cfg.inputs,
            &self.cfg.alphabet,
            self.cfg.r,
            self.cfg.track_outputs,
            &self.cfg.faults,
            limits.symmetry,
            limits.max_states,
            limits.max_edges,
        )
    }

    /// Drives the batch loop from `cursor` to completion — or to the
    /// [`Limits::deadline`], whichever comes first — writing checkpoint
    /// epochs per the [`Limits::checkpoint`] policy at batch boundaries.
    /// Both the fresh exploration and the resume path run through this
    /// one loop, so their behavior can never drift apart.
    fn run(mut self, mut cursor: usize, limits: &Limits) -> Result<Explored<'p, L>, VerifyError> {
        let started = Instant::now();
        let mut ckpt = CheckpointRun::begin(&self, cursor, limits)?;
        while cursor < self.n_states {
            if let Some(deadline) = limits.deadline {
                if started.elapsed() >= deadline {
                    let checkpoint = match &mut ckpt {
                        Some(c) => Some(c.write(&self, cursor)?),
                        None => None,
                    };
                    return Ok(Explored::Partial {
                        ex: self,
                        cursor,
                        checkpoint,
                    });
                }
            }
            cursor = match self.expand_batch(cursor, limits) {
                Ok(end) => end,
                Err(VerifyError::PoisonedChunk { what, .. }) => {
                    // Checkpoint-and-fail: the batch that poisoned did
                    // not commit (assign_dense never ran), so the state
                    // at `cursor` is a clean boundary — persist it
                    // before surfacing the panic.
                    let checkpoint = match &mut ckpt {
                        Some(c) => c.write(&self, cursor).ok(),
                        None => None,
                    };
                    return Err(VerifyError::PoisonedChunk { what, checkpoint });
                }
                Err(e) => return Err(e),
            };
            if let Some(c) = &mut ckpt {
                c.maybe_write(&self, cursor)?;
            }
        }
        Ok(Explored::Complete(self))
    }

    /// Serializes the exploration state at the batch boundary `cursor`
    /// into one epoch: a header segment (format magic + instance
    /// fingerprint + totals), then per shard its metadata, its packed
    /// row arena blocks **as-is** ([`StateShard::row_blocks`] — the
    /// chunked arenas never realloc-copy, so this is a straight stream),
    /// its auxiliary blocks, and its dense ids. Everything else the
    /// explorer holds (`dense_ids`, `free_bits`) is derived and gets
    /// rebuilt on load.
    fn save_into(
        &self,
        writer: &mut SegmentWriter,
        cursor: usize,
        instance_fp: u64,
    ) -> Result<(), VerifyError> {
        debug_assert!(cursor <= self.n_states, "cursor is a batch boundary");
        writer.begin_segment(SEG_HEADER);
        writer.put_u64(CKPT_MAGIC);
        writer.put_u64(CKPT_VERSION);
        writer.put_u64(instance_fp);
        writer.put_u64(self.n_states as u64);
        writer.put_u64(cursor as u64);
        writer.put_u64(self.n_edges as u64);
        writer.put_u64(self.peak_edge_bytes.load(Ordering::Relaxed) as u64);
        writer.put_u64(self.cfg.words_per_state as u64);
        writer.put_u64(self.cfg.aux_len as u64);
        writer.end_segment()?;
        let guards = self.index.read_all();
        for (s, shard) in guards.iter().enumerate() {
            debug_assert_eq!(
                shard.dense_ids().len(),
                shard.len(),
                "batch boundary: every interned state is dense-numbered"
            );
            writer.begin_segment(SEG_SHARD);
            writer.put_u64(s as u64);
            writer.put_u64(shard.len() as u64);
            writer.put_u64(shard.row_blocks().count() as u64);
            writer.put_u64(shard.aux_blocks().count() as u64);
            writer.end_segment()?;
            for block in shard.row_blocks() {
                writer.begin_segment(SEG_ROWS);
                writer.put_u64s(block);
                writer.end_segment()?;
            }
            for block in shard.aux_blocks() {
                writer.begin_segment(SEG_AUX);
                writer.put_u64s(block);
                writer.end_segment()?;
            }
            writer.begin_segment(SEG_DENSE);
            writer.put_u32s(shard.dense_ids());
            writer.end_segment()?;
        }
        Ok(())
    }

    /// Loads a checkpoint epoch into a freshly [`prepare`](Explorer::prepare)d
    /// explorer and returns it with the stored batch cursor. The packed
    /// rows are **re-interned** in local-id order through the very same
    /// [`StateShard::intern`] path exploration uses, so the rebuilt
    /// fingerprint index (probe order, collision side lists) is
    /// byte-for-byte the one an uninterrupted run would hold — which is
    /// what makes the continued exploration bit-identical.
    ///
    /// `epoch` selects an explicit epoch; `None` means the newest one
    /// that passes validation (a torn or corrupted newest epoch falls
    /// back to its predecessor).
    #[allow(clippy::too_many_arguments)]
    fn resume(
        protocol: &'p Protocol<L>,
        inputs: &[Input],
        alphabet: &[L],
        r: u8,
        track_outputs: bool,
        limits: &Limits,
        dir: &Path,
        epoch: Option<u64>,
    ) -> Result<(Self, usize), VerifyError> {
        let corrupt = |what: String| VerifyError::Resume(ResumeError::Corrupt { what });
        let mut ex = Explorer::prepare(protocol, inputs, alphabet, r, track_outputs, limits)?;
        let expected = ex.instance_fp(limits);
        let store = CheckpointStore::open(dir).map_err(ResumeError::from)?;
        let epoch = match epoch {
            Some(k) => k,
            None => store
                .latest_valid_epoch()
                .map_err(ResumeError::from)?
                .ok_or_else(|| ResumeError::NoEpoch {
                    dir: dir.display().to_string(),
                })?,
        };
        let mut reader = store.open_epoch(epoch).map_err(ResumeError::from)?;
        let mut head = reader
            .next_segment()
            .map_err(ResumeError::from)?
            .ok_or_else(|| corrupt("epoch has no header segment".into()))?;
        if head.tag != SEG_HEADER {
            return Err(corrupt(format!(
                "expected header segment, got tag {}",
                head.tag
            )));
        }
        fn take(seg: &mut stateless_core::checkpoint::Segment) -> Result<u64, VerifyError> {
            Ok(seg.take_u64().map_err(ResumeError::from)?)
        }
        if take(&mut head)? != CKPT_MAGIC {
            return Err(corrupt("not a stateless-verify checkpoint".into()));
        }
        let version = take(&mut head)?;
        if version != CKPT_VERSION {
            return Err(corrupt(format!(
                "unsupported checkpoint format version {version} (this build reads {CKPT_VERSION})"
            )));
        }
        let found = take(&mut head)?;
        if found != expected {
            return Err(VerifyError::Resume(ResumeError::InstanceMismatch {
                expected,
                found,
            }));
        }
        let n_states = take(&mut head)? as usize;
        let cursor = take(&mut head)? as usize;
        let n_edges = take(&mut head)? as usize;
        let peak_edge_bytes = take(&mut head)? as usize;
        let words = take(&mut head)? as usize;
        let aux_len = take(&mut head)? as usize;
        if words != ex.cfg.words_per_state || aux_len != ex.cfg.aux_len {
            return Err(corrupt(format!(
                "packed layout mismatch: checkpoint has {words}×u64 + {aux_len} aux words per \
                 state, instance packs {}×u64 + {}",
                ex.cfg.words_per_state, ex.cfg.aux_len
            )));
        }
        if cursor > n_states || n_states >= u32::MAX as usize {
            return Err(corrupt(format!(
                "inconsistent totals: cursor {cursor} of {n_states} states"
            )));
        }
        let mut dense_ids = vec![u64::MAX; n_states];
        let mut free_bits = vec![0u8; n_states];
        let mut rows_flat: Vec<u64> = Vec::new();
        let mut aux_flat: Vec<u64> = Vec::new();
        let mut dense: Vec<u32> = Vec::new();
        let mut expect = |tag: u32| -> Result<stateless_core::checkpoint::Segment, VerifyError> {
            let seg = reader
                .next_segment()
                .map_err(ResumeError::from)?
                .ok_or_else(|| corrupt("epoch ends mid-shard".into()))?;
            if seg.tag != tag {
                return Err(corrupt(format!("expected tag {tag}, got {}", seg.tag)));
            }
            Ok(seg)
        };
        let mut total = 0usize;
        for s in 0..SHARD_COUNT {
            let mut meta = expect(SEG_SHARD)?;
            let idx = take(&mut meta)?;
            if idx as usize != s {
                return Err(corrupt(format!(
                    "shard segments out of order: {idx} at {s}"
                )));
            }
            let len = take(&mut meta)? as usize;
            let n_row_blocks = take(&mut meta)? as usize;
            let n_aux_blocks = take(&mut meta)? as usize;
            rows_flat.clear();
            for _ in 0..n_row_blocks {
                let mut seg = expect(SEG_ROWS)?;
                let count = seg.remaining() / 8;
                seg.take_u64s(count, &mut rows_flat)
                    .map_err(ResumeError::from)?;
            }
            if rows_flat.len() != len * words {
                return Err(corrupt(format!(
                    "shard {s}: {} row words for {len} rows of {words}",
                    rows_flat.len()
                )));
            }
            aux_flat.clear();
            for _ in 0..n_aux_blocks {
                let mut seg = expect(SEG_AUX)?;
                let count = seg.remaining() / 8;
                seg.take_u64s(count, &mut aux_flat)
                    .map_err(ResumeError::from)?;
            }
            if aux_flat.len() != len * aux_len {
                return Err(corrupt(format!(
                    "shard {s}: {} aux words for {len} rows of {aux_len}",
                    aux_flat.len()
                )));
            }
            dense.clear();
            let mut seg = expect(SEG_DENSE)?;
            seg.take_u32s(len, &mut dense).map_err(ResumeError::from)?;
            if seg.remaining() != 0 {
                return Err(corrupt(format!("shard {s}: trailing dense-id bytes")));
            }
            let mut shard = ex.index.write(s);
            for k in 0..len {
                let row = &rows_flat[k * words..(k + 1) * words];
                let aux = &aux_flat[k * aux_len..(k + 1) * aux_len];
                let fp = fingerprint(row, aux);
                if shard_of(fp) != s {
                    return Err(corrupt(format!(
                        "shard {s}: row {k} hashes to shard {}",
                        shard_of(fp)
                    )));
                }
                let (local, fresh) = shard.intern(fp, row, aux);
                if !fresh || local as usize != k {
                    return Err(corrupt(format!("shard {s}: duplicate row at local id {k}")));
                }
                shard.push_dense(dense[k]);
                let d = dense[k] as usize;
                if d >= n_states || dense_ids[d] != u64::MAX {
                    return Err(corrupt(format!("shard {s}: bad dense id {d} at local {k}")));
                }
                dense_ids[d] = pack_state_id(s, local);
                free_bits[d] = ex.cfg.free_count(row);
                total += 1;
            }
        }
        if total != n_states {
            return Err(corrupt(format!(
                "shards hold {total} states, header claims {n_states}"
            )));
        }
        if reader.next_segment().map_err(ResumeError::from)?.is_some() {
            return Err(corrupt("trailing segments after the last shard".into()));
        }
        ex.dense_ids = dense_ids;
        ex.free_bits = free_bits;
        ex.n_states = n_states;
        ex.n_edges = n_edges;
        ex.peak_edge_bytes = AtomicUsize::new(peak_edge_bytes);
        Ok((ex, cursor))
    }

    /// Logical payload bytes of one successor record: stream key +
    /// fingerprint + packed words + auxiliary words.
    fn record_bytes(&self) -> usize {
        16 + 8 * (self.cfg.words_per_state + self.cfg.aux_len)
    }

    /// Folds a transient figure into the deterministic peak.
    fn note_transient_bytes(&self, bytes: usize) {
        self.peak_edge_bytes.fetch_max(bytes, Ordering::Relaxed);
    }

    /// Interns the initialization vertices — every labeling with full
    /// countdowns and zero outputs — in enumeration order, batched so the
    /// record buffers stay bounded on huge alphabets.
    fn seed(&mut self, limits: &Limits) -> Result<(), VerifyError> {
        let (w, lw, cw) = (
            self.cfg.words_per_state,
            self.cfg.label_width,
            self.cfg.countdown_width,
        );
        let (n, e, r, threads) = (self.cfg.n, self.cfg.e, self.cfg.r, self.cfg.threads);
        let digit_alphabet: Vec<u32> = (0..self.cfg.alphabet.len() as u32).collect();
        let mut labelings = all_labelings(&digit_alphabet, e);
        let mut state_buf = vec![0u64; w];
        let mut aux_zero = vec![0u64; self.cfg.aux_len];
        let mut canon = CanonScratch::default();
        let mut next_key = 0u64;
        loop {
            let mut recs: Vec<ShardRecords> =
                (0..SHARD_COUNT).map(|_| ShardRecords::default()).collect();
            let mut count = 0usize;
            while count < SEED_BATCH_STATES {
                let Some(digits) = labelings.next() else {
                    break;
                };
                state_buf.fill(0);
                for (k, &d) in digits.iter().enumerate() {
                    pack(&mut state_buf, k * lw as usize, lw, u64::from(d));
                }
                for i in 0..n {
                    pack(
                        &mut state_buf,
                        e * lw as usize + i * cw as usize,
                        cw,
                        u64::from(r - 1),
                    );
                }
                // Seeds are group-closed (uniform countdowns, zero
                // outputs), so canonical seeding still covers every
                // orbit; duplicates dedup at the interning step.
                if let Some(sym) = &self.cfg.symmetry {
                    sym.canonicalize(&self.cfg.layout, &mut state_buf, &mut aux_zero, &mut canon);
                }
                let fp = fingerprint(&state_buf, &aux_zero);
                let rec = &mut recs[shard_of(fp)];
                rec.keys.push(next_key);
                rec.fps.push(fp);
                rec.words.extend_from_slice(&state_buf);
                rec.aux.extend_from_slice(&aux_zero);
                next_key += 1;
                count += 1;
            }
            if count == 0 {
                break;
            }
            self.note_transient_bytes(count * self.record_bytes());
            let chunks = vec![ChunkOut {
                emitted: 0, // seed records are states, not transitions
                shards: recs,
            }];
            let wave_threads = if (count as u64) < PARALLEL_MIN_BATCH_EDGES {
                1
            } else {
                threads
            };
            let interned = {
                let this = &*self;
                run_indexed(wave_threads, SHARD_COUNT, |s| this.intern_shard(s, &chunks))
            };
            self.assign_dense(&interned, limits)?;
            if count < SEED_BATCH_STATES {
                break;
            }
        }
        Ok(())
    }

    /// Estimated fan-out of a state with `free` unforced nodes: every
    /// subset of the free nodes joins the forced ones, minus the empty
    /// total set (possible only when nothing is forced, i.e. `free = n`),
    /// scaled by the adversary branching bound (`1` when fault-free).
    fn est_edges(&self, free: u8) -> u64 {
        ((1u64 << free) - u64::from(usize::from(free) == self.cfg.n))
            .saturating_mul(self.cfg.byz_branch_bound)
    }

    /// The current batch's fan-out budget: an eighth of the explored
    /// graph size so far (states + generated edges), clamped between
    /// [`BATCH_EDGE_BUDGET_MIN`] and [`BATCH_EDGE_BUDGET`]. Small graphs
    /// get batches a small fraction of their own size — keeping the peak
    /// transient well under what storing their CSR used to cost — while
    /// large graphs ramp to the constant ceiling. Depends only on
    /// deterministic, thread-independent exploration totals.
    fn batch_edge_budget(&self) -> u64 {
        (((self.n_states + self.n_edges) / 8) as u64)
            .clamp(BATCH_EDGE_BUDGET_MIN, BATCH_EDGE_BUDGET)
    }

    /// Expands one batch of source states starting at `cursor` through
    /// the three-phase pipeline (see the module docs) and returns the
    /// cursor past the batch.
    fn expand_batch(&mut self, cursor: usize, limits: &Limits) -> Result<usize, VerifyError> {
        // Batch = the next source range whose estimated fan-out fits the
        // budget (always at least one source). Boundaries derive only
        // from per-state degree estimates and prior batch totals, never
        // the thread count.
        let budget = self.batch_edge_budget();
        let mut end = cursor;
        let mut est = 0u64;
        while end < self.n_states && (end == cursor || est < budget) {
            est += self.est_edges(self.free_bits[end]);
            end += 1;
        }
        let mut ranges: Vec<(usize, usize)> = Vec::new();
        let mut start = cursor;
        let mut acc = 0u64;
        for u in cursor..end {
            acc += self.est_edges(self.free_bits[u]);
            if acc >= CHUNK_EDGE_BUDGET {
                ranges.push((start, u + 1));
                start = u + 1;
                acc = 0;
            }
        }
        if start < end {
            ranges.push((start, end));
        }
        // Small batches run their waves inline — OS thread spawns (no
        // persistent pool in the vendored rayon) only amortize over
        // enough work, and the results are identical either way.
        let threads = if est < PARALLEL_MIN_BATCH_EDGES {
            1
        } else {
            self.cfg.threads
        };
        // Phase 1: expand chunks in parallel, each isolated behind
        // `catch_unwind` so one panicking reaction cannot take down the
        // worker pool (and with it hours of interned states). A panicked
        // chunk is retried once, serially — expansion is read-only and
        // per-chunk state is local, so a transient panic leaves nothing
        // poisoned — and a second panic fails the exploration as
        // [`VerifyError::PoisonedChunk`]; [`Explorer::run`] then writes a
        // final checkpoint-and-fail epoch (the batch never committed, so
        // the pre-batch state is a clean boundary).
        let attempts = {
            let this = &*self;
            run_indexed(threads, ranges.len(), |c| {
                catch_unwind(AssertUnwindSafe(|| {
                    this.expand_chunk(ranges[c].0, ranges[c].1)
                }))
                .map_err(panic_message)
            })
        };
        let mut chunk_outs: Vec<ChunkOut> = Vec::with_capacity(ranges.len());
        for (c, attempt) in attempts.into_iter().enumerate() {
            let (start, end) = ranges[c];
            let outcome = match attempt {
                Ok(r) => r,
                Err(first) => {
                    match catch_unwind(AssertUnwindSafe(|| self.expand_chunk(start, end))) {
                        Ok(r) => r,
                        Err(second) => {
                            return Err(VerifyError::PoisonedChunk {
                                what: format!(
                                    "chunk {start}..{end}: {first}; retry: {}",
                                    panic_message(second)
                                ),
                                checkpoint: None,
                            });
                        }
                    }
                }
            };
            chunk_outs.push(outcome?);
        }
        // Phase 2: replay each shard's record stream in order.
        let interned: Vec<ShardIntern> = {
            let this = &*self;
            run_indexed(threads, SHARD_COUNT, |s| this.intern_shard(s, &chunk_outs))
        };
        // Phase 3 (serial barrier): dense-number the fresh states, then
        // charge the batch against the traversal budget and the peak
        // transient figure. The record buffers die here — nothing
        // per-edge survives the batch.
        self.assign_dense(&interned, limits)?;
        let emitted: usize = chunk_outs.iter().map(|c| c.emitted).sum();
        self.note_transient_bytes(emitted * self.record_bytes());
        self.n_edges += emitted;
        if self.n_edges > limits.max_edges {
            return Err(VerifyError::TooManyEdges {
                limit: limits.max_edges,
            });
        }
        Ok(end)
    }

    /// Phase 1: expands source states `start..end`, emitting the
    /// per-shard successor records. Takes only read locks on the shards;
    /// every per-edge step is allocation-free.
    fn expand_chunk(&self, start: usize, end: usize) -> Result<ChunkOut, VerifyError> {
        let cfg = &self.cfg;
        let guards = self.index.read_all();
        let est: u64 = self.free_bits[start..end]
            .iter()
            .map(|&f| self.est_edges(f))
            .sum();
        let per_shard = (est as usize / SHARD_COUNT) * 5 / 4 + 4;
        let mut shards: Vec<ShardRecords> = (0..SHARD_COUNT)
            .map(|_| ShardRecords::with_capacity(per_shard, cfg.words_per_state, cfg.aux_len))
            .collect();
        let mut emitted = 0usize;
        let mut scratch = ExpandScratch::new(cfg);
        for u in start..end {
            let mut edge_k: u32 = 0;
            self.for_each_successor(
                &guards,
                u,
                &mut scratch,
                |words, aux, _mask, _interesting, _elem, _choice| {
                    let fp = fingerprint(words, aux);
                    let rec = &mut shards[shard_of(fp)];
                    // Dense ids are capped below u32::MAX and the
                    // adversary fan-out bound is validated to fit 32
                    // bits, so the key packs (dense source, edge index)
                    // exactly — and stays strictly increasing in stream
                    // order, the property dense numbering rests on.
                    rec.keys.push(((u as u64) << 32) | u64::from(edge_k));
                    rec.fps.push(fp);
                    rec.words.extend_from_slice(words);
                    rec.aux.extend_from_slice(aux);
                    edge_k += 1;
                },
            )?;
            emitted += edge_k as usize;
        }
        Ok(ChunkOut { emitted, shards })
    }

    /// Enumerates the successors of dense state `u` in activation-set
    /// order, then adversary-choice order within each activation set —
    /// the canonical edge order, identical for every phase that
    /// regenerates edges — invoking
    /// `emit(words, aux, mask, interesting, elem, choice)` with the
    /// packed successor row, its auxiliary output row, the activation
    /// mask, whether the correct-node labeling (or the tracked outputs)
    /// changed along the edge, the index of the group element that
    /// canonicalized the successor (0 — the identity — whenever symmetry
    /// is off), and the adversary-choice code. The code is a base-`|Σ|`
    /// number whose digits, least-significant first, are the labels the
    /// activated Byzantine nodes write on their out-edges (ascending
    /// node id, `out_edges` order); fault-free states emit exactly one
    /// choice, code `0` — bit-for-bit the pre-fault behavior. Under
    /// quotient exploration the emitted row is the successor's **orbit
    /// representative**; mask, `interesting`, and `choice` stay in the
    /// source state's frame. Each correct node's reaction runs once per
    /// state, before the activation sets are enumerated; faulty nodes'
    /// reactions never run. Allocation-free per edge given a
    /// warm `scratch`; the only error is a reaction emitting a label
    /// outside the declared alphabet, which exploration surfaces as
    /// [`VerifyError::BadParameters`] (post-exploration regeneration can
    /// therefore never hit it).
    fn for_each_successor<F>(
        &self,
        guards: &[RwLockReadGuard<'_, StateShard>],
        u: usize,
        scratch: &mut ExpandScratch<L>,
        mut emit: F,
    ) -> Result<(), VerifyError>
    where
        F: FnMut(&[u64], &[u64], u32, bool, u32, u64),
    {
        let cfg = &self.cfg;
        let (n, e) = (cfg.n, cfg.e);
        let (lw, cw) = (cfg.label_width, cfg.countdown_width);
        let sc = scratch;
        // Decode the source state from its shard arena.
        let (s, local) = unpack_state_id(self.dense_ids[u]);
        {
            let row = guards[s].row(local);
            sc.labeling.clear();
            for (k, idx) in sc.label_idx.iter_mut().enumerate() {
                let v = unpack(row, k * lw as usize, lw) as u32;
                *idx = v;
                sc.labeling.push(cfg.alphabet[v as usize].clone());
            }
            for (i, cd) in sc.countdown.iter_mut().enumerate() {
                *cd = unpack(row, e * lw as usize + i * cw as usize, cw) as u8 + 1;
            }
            if cfg.track_outputs {
                sc.out_words.copy_from_slice(guards[s].aux_row(local));
            }
        }
        let graph = cfg.protocol.graph();
        // Every activation set reads the same pre-step labeling, and the
        // full set activates every node, so reacting here once per
        // correct node makes the same calls the subset loop would.
        for i in 0..n {
            if cfg.faults.is_faulty(i) {
                continue;
            }
            sc.react_out[i] = cfg.protocol.apply_buffered(
                i,
                &sc.labeling,
                cfg.inputs[i],
                &mut sc.in_buf,
                &mut sc.react_buf,
            );
            for (slot, &eid) in sc.react_buf.iter().zip(graph.out_edges(i)) {
                let Some(&idx) = cfg.label_index.get(slot) else {
                    return Err(VerifyError::BadParameters {
                        what: format!(
                            "node {i} emitted the label {slot:?}, which is \
                             outside the declared alphabet"
                        ),
                    });
                };
                sc.react_idx[eid] = idx;
            }
        }
        let forced: u32 = (0..n)
            .filter(|&i| sc.countdown[i] == 1)
            .map(|i| 1 << i)
            .sum();
        sc.free_nodes.clear();
        sc.free_nodes
            .extend((0..n).filter(|&i| sc.countdown[i] != 1));
        // Every activation set: forced nodes plus any subset of the
        // rest (skipping the empty total set).
        for subset in 0..(1u32 << sc.free_nodes.len()) {
            let mut mask = forced;
            for (k, &i) in sc.free_nodes.iter().enumerate() {
                if subset >> k & 1 == 1 {
                    mask |= 1 << i;
                }
            }
            if mask == 0 {
                continue;
            }
            sc.next_label_idx.copy_from_slice(&sc.label_idx);
            if cfg.track_outputs {
                sc.next_out_words.copy_from_slice(&sc.out_words);
            }
            sc.byz_edges.clear();
            for i in (0..n).filter(|&i| mask >> i & 1 == 1) {
                if cfg.faults.is_faulty(i) {
                    // Crash: the activation commits nothing. Byzantine:
                    // the out-labels are set per adversary branch below.
                    // Either way the tracked output stays frozen — it is
                    // 0 in the seeds and never written, so faulty output
                    // slots are 0 in every reachable state.
                    if cfg.faults.is_byzantine(i) {
                        sc.byz_edges.extend_from_slice(graph.out_edges(i));
                    }
                    continue;
                }
                for &eid in graph.out_edges(i) {
                    sc.next_label_idx[eid] = sc.react_idx[eid];
                }
                if cfg.track_outputs {
                    sc.next_out_words[i] = sc.react_out[i];
                }
            }
            // One branch per adversary choice: a base-|Σ| code whose
            // digits (LSD first) are the labels the activated Byzantine
            // nodes write, in `byz_edges` order. Fault-free runs take
            // exactly one iteration with choice 0 and no digit writes.
            let q = cfg.alphabet.len() as u64;
            let n_choices = q.pow(sc.byz_edges.len() as u32);
            for choice in 0..n_choices {
                let mut digits = choice;
                for &eid in &sc.byz_edges {
                    sc.next_label_idx[eid] = (digits % q) as u32;
                    digits /= q;
                }
                let interesting = if cfg.track_outputs {
                    // Faulty output slots are 0 on both sides, so the
                    // full-row comparison only ever sees correct nodes.
                    sc.next_out_words != sc.out_words
                } else if cfg.faults.has_faults() {
                    // Byzantine-sourced labels flip freely, so label
                    // stabilization is judged on correct-sourced edges.
                    cfg.correct_src_edges
                        .iter()
                        .any(|&k| sc.next_label_idx[k] != sc.label_idx[k])
                } else {
                    sc.next_label_idx != sc.label_idx
                };
                // Pack the successor: labels, then countdowns (reset to
                // r for activated nodes, decremented otherwise).
                sc.state.fill(0);
                for (k, &idx) in sc.next_label_idx.iter().enumerate() {
                    pack(&mut sc.state, k * lw as usize, lw, u64::from(idx));
                }
                for (i, &cd_now) in sc.countdown.iter().enumerate() {
                    let cd = if mask >> i & 1 == 1 {
                        cfg.r
                    } else {
                        cd_now - 1
                    };
                    pack(
                        &mut sc.state,
                        e * lw as usize + i * cw as usize,
                        cw,
                        u64::from(cd - 1),
                    );
                }
                // Quotient step: rewrite the successor to its orbit
                // representative (a pure function of the packed row, so
                // the determinism contract is untouched) and remember
                // which element did it — witness reconstruction
                // de-canonicalizes with it. Canonicalization permutes
                // the aux row in place, and the same `next_out_words`
                // feeds every adversary branch of this activation set,
                // so it is copied into `canon_aux` first.
                let mut elem = 0u32;
                if let Some(sym) = &cfg.symmetry {
                    sc.canon_aux.copy_from_slice(&sc.next_out_words);
                    elem = sym.canonicalize(
                        &cfg.layout,
                        &mut sc.state,
                        &mut sc.canon_aux,
                        &mut sc.canon,
                    ) as u32;
                    emit(&sc.state, &sc.canon_aux, mask, interesting, elem, choice);
                } else {
                    emit(
                        &sc.state,
                        &sc.next_out_words,
                        mask,
                        interesting,
                        elem,
                        choice,
                    );
                }
            }
        }
        Ok(())
    }

    /// Regenerates and resolves the outgoing edges of dense state `u`:
    /// every successor is packed, fingerprinted, and looked up read-only
    /// in its shard ([`StateShard::lookup`] — exploration interned all
    /// of them), then mapped to its dense id. `out` is overwritten with
    /// `(dense target, activation mask, interesting, canonicalizing
    /// element, adversary choice)` in the canonical edge order.
    fn successors_resolved(
        &self,
        guards: &[RwLockReadGuard<'_, StateShard>],
        u: usize,
        scratch: &mut ExpandScratch<L>,
        out: &mut Vec<(u32, u32, bool, u32, u64)>,
    ) {
        out.clear();
        self.for_each_successor(
            guards,
            u,
            scratch,
            |words, aux, mask, interesting, elem, choice| {
                let fp = fingerprint(words, aux);
                let s = shard_of(fp);
                let local = guards[s]
                    .lookup(fp, words, aux)
                    .expect("every successor was interned during exploration");
                out.push((guards[s].dense_of(local), mask, interesting, elem, choice));
            },
        )
        .expect("alphabet closure was validated during exploration");
    }

    /// Phase 2: replays shard `s`'s record stream — chunks in order,
    /// records in order — against its fingerprint index. Exactly one
    /// worker claims each shard, so interning is single-writer and the
    /// local id sequence is deterministic.
    fn intern_shard(&self, s: usize, chunks: &[ChunkOut]) -> ShardIntern {
        let (w, al) = (self.cfg.words_per_state, self.cfg.aux_len);
        let mut shard = self.index.write(s);
        let mut out = ShardIntern { fresh: Vec::new() };
        for chunk in chunks {
            let rec = &chunk.shards[s];
            for (i, &fp) in rec.fps.iter().enumerate() {
                let row = &rec.words[i * w..(i + 1) * w];
                let aux = &rec.aux[i * al..(i + 1) * al];
                let (local, fresh) = shard.intern(fp, row, aux);
                if fresh {
                    out.fresh
                        .push((rec.keys[i], local, self.cfg.free_count(row)));
                }
            }
        }
        out
    }

    /// Phase 3a: merges every shard's fresh states by stream key — the
    /// position of the edge (or seed labeling) that first discovered them
    /// — and assigns dense ids in that order. This is exactly the order a
    /// sequential scan interns in, so dense numbering is identical for
    /// every thread count.
    fn assign_dense(
        &mut self,
        interned: &[ShardIntern],
        limits: &Limits,
    ) -> Result<(), VerifyError> {
        let cap = limits.max_states.min(u32::MAX as usize - 1);
        let mut guards: Vec<_> = (0..SHARD_COUNT).map(|s| self.index.write(s)).collect();
        let mut heads: BinaryHeap<Reverse<(u64, usize)>> = interned
            .iter()
            .enumerate()
            .filter(|(_, si)| !si.fresh.is_empty())
            .map(|(s, si)| Reverse((si.fresh[0].0, s)))
            .collect();
        let mut pos = [0usize; SHARD_COUNT];
        while let Some(Reverse((_, s))) = heads.pop() {
            let (_, local, free) = interned[s].fresh[pos[s]];
            if self.n_states >= cap {
                return Err(VerifyError::TooManyStates {
                    limit: limits.max_states,
                });
            }
            guards[s].push_dense(self.n_states as u32);
            self.dense_ids.push(pack_state_id(s, local));
            self.free_bits.push(free);
            self.n_states += 1;
            pos[s] += 1;
            if let Some(&(key, _, _)) = interned[s].fresh.get(pos[s]) {
                heads.push(Reverse((key, s)));
            }
        }
        Ok(())
    }

    /// Condenses the explored product graph **without materializing
    /// it**: a [`ProductOracle`] regenerates successors on demand for
    /// [`stateless_core::scc::condense`], in the canonical numbering.
    fn sccs(&self) -> Vec<u32> {
        scc::condense(&ProductOracle::new(self))
    }

    /// Finds a cycle through an "interesting" intra-SCC edge, as a
    /// witness. The *first* such edge suffices — its endpoints share an
    /// SCC, so the closing path always exists and one BFS settles the
    /// whole component. The BFS needs repeated edge access over that one
    /// component, so the verdict SCC — and only it — is re-expanded into
    /// a small **transient** CSR (component-local targets + activation
    /// masks + canonicalizing elements), discarded when the witness is
    /// built; its size is folded into the [`ExploreStats::edge_bytes`]
    /// peak.
    ///
    /// Under quotient exploration the cycle found here lives in the
    /// **quotient** graph, so it is de-canonicalized before being
    /// returned (see the module docs' symmetry section): walking the
    /// quotient cycle with an accumulated group element `c` (masks map
    /// through `c`, then `c ← c ∘ h⁻¹` for the edge's canonicalizing
    /// element `h`) and unrolling laps until `c` is the identity again
    /// yields a concrete cycle of the unquotiented system, starting at
    /// the decoded (canonical) entry labeling.
    fn witness(&self, comp: &[u32]) -> Option<CycleWitness<L>> {
        let (u, v, mask, elem, choice) = self.first_interesting_intra_scc_edge(comp)?;
        // Re-expand the verdict component into local-id CSR arrays.
        let cid = comp[u];
        let members: Vec<u32> = (0..self.n_states as u32)
            .filter(|&x| comp[x as usize] == cid)
            .collect();
        let mut local_of: Vec<u32> = vec![u32::MAX; self.n_states];
        for (i, &x) in members.iter().enumerate() {
            local_of[x as usize] = i as u32;
        }
        let guards = self.index.read_all();
        let mut scratch = ExpandScratch::new(&self.cfg);
        let mut edges: Vec<(u32, u32, bool, u32, u64)> = Vec::new();
        let mut offsets: Vec<usize> = Vec::with_capacity(members.len() + 1);
        offsets.push(0);
        let mut targets: Vec<u32> = Vec::new();
        let mut masks: Vec<u32> = Vec::new();
        let mut elems: Vec<u32> = Vec::new();
        let mut choices: Vec<u64> = Vec::new();
        for &x in &members {
            self.successors_resolved(&guards, x as usize, &mut scratch, &mut edges);
            for &(t, m, _, h, c) in &edges {
                if comp[t as usize] == cid {
                    targets.push(local_of[t as usize]);
                    masks.push(m);
                    elems.push(h);
                    choices.push(c);
                }
            }
            offsets.push(targets.len());
        }
        self.note_transient_bytes(
            offsets.len() * std::mem::size_of::<usize>()
                + targets.len() * 4
                + masks.len() * 4
                + elems.len() * 4
                + choices.len() * 8,
        );
        let (lu, lv) = (local_of[u] as usize, local_of[v] as usize);
        let m = members.len();
        let mut prev: Vec<u32> = vec![u32::MAX; m];
        let mut prev_mask: Vec<u32> = vec![0; m];
        let mut prev_elem: Vec<u32> = vec![0; m];
        let mut prev_choice: Vec<u64> = vec![0; m];
        let mut queue: VecDeque<u32> = VecDeque::new();
        // BFS from v back to u inside the component.
        queue.push_back(lv as u32);
        let mut found = lv == lu;
        'bfs: while let Some(w) = queue.pop_front() {
            let wu = w as usize;
            for c in offsets[wu]..offsets[wu + 1] {
                let x = targets[c] as usize;
                if x != lv && prev[x] == u32::MAX {
                    prev[x] = w;
                    prev_mask[x] = masks[c];
                    prev_elem[x] = elems[c];
                    prev_choice[x] = choices[c];
                    if x == lu {
                        found = true;
                        break 'bfs;
                    }
                    queue.push_back(x as u32);
                }
            }
        }
        debug_assert!(found, "u and v share an SCC, so v reaches u");
        if !found {
            return None;
        }
        // Reconstruct the quotient cycle u →(mask, elem, choice) v → …
        // → u in forward order.
        let mut quot = vec![(mask, elem, choice)];
        let mut path_rev = Vec::new();
        let mut at = lu;
        while at != lv {
            path_rev.push((prev_mask[at], prev_elem[at], prev_choice[at]));
            at = prev[at] as usize;
        }
        quot.extend(path_rev.into_iter().rev());
        let n = self.cfg.n;
        let graph = self.cfg.protocol.graph();
        let ident = Automorphism::identity(n, self.cfg.e);
        let mut sched_masks: Vec<u32> = Vec::with_capacity(quot.len());
        let mut adversary: Vec<Vec<(NodeId, Vec<L>)>> = Vec::with_capacity(quot.len());
        match &self.cfg.symmetry {
            None => {
                for &(m, _, c) in &quot {
                    sched_masks.push(m);
                    adversary.push(decode_adversary(
                        graph,
                        self.cfg.faults,
                        &self.cfg.alphabet,
                        m,
                        c,
                        &ident,
                    ));
                }
            }
            Some(sym) => {
                // De-canonicalize: the concrete state after t quotient
                // steps is `c · v_t`; each lap multiplies `c` by a fixed
                // group element, so at most `|G|` laps close the
                // concrete cycle. The coloring-restricted group maps
                // Byzantine nodes to Byzantine nodes, so the adversary
                // decode holds in the concrete frame too.
                let els = sym.elements();
                let mut acc = ident;
                loop {
                    for &(m, h, c) in &quot {
                        sched_masks.push(acc.apply_mask(m));
                        adversary.push(decode_adversary(
                            graph,
                            self.cfg.faults,
                            &self.cfg.alphabet,
                            m,
                            c,
                            &acc,
                        ));
                        acc = acc.compose(&els[h as usize].inverse());
                    }
                    if acc.is_identity() {
                        break;
                    }
                }
            }
        }
        let schedule = sched_masks
            .into_iter()
            .map(|m| (0..n).filter(|&i| m >> i & 1 == 1).collect())
            .collect();
        Some(CycleWitness {
            labeling: self.decode_labeling(u),
            schedule,
            adversary,
        })
    }

    /// Finds the first (in canonical edge order — ascending source
    /// state, then activation-set order) labeling/output-changing edge
    /// whose endpoints share a component, regenerating each state's
    /// edges on the fly. The scan is chunked over fixed state ranges and
    /// the chunks run on [`Limits::threads`] workers; taking the
    /// earliest non-empty chunk reproduces the serial scan's answer
    /// exactly (chunk boundaries are constants, never derived from the
    /// thread count), and a shared low-water mark lets workers skip
    /// chunks that can no longer win.
    fn first_interesting_intra_scc_edge(
        &self,
        comp: &[u32],
    ) -> Option<(usize, usize, u32, u32, u64)> {
        let chunks = self.n_states.div_ceil(SCAN_CHUNK_STATES);
        let best = AtomicUsize::new(usize::MAX);
        let guards = self.index.read_all();
        let scan = |c: usize| -> Option<(usize, usize, u32, u32, u64)> {
            if c > best.load(Ordering::Relaxed) {
                return None;
            }
            let start = c * SCAN_CHUNK_STATES;
            let end = (start + SCAN_CHUNK_STATES).min(self.n_states);
            let mut scratch = ExpandScratch::new(&self.cfg);
            let mut edges: Vec<(u32, u32, bool, u32, u64)> = Vec::new();
            for u in start..end {
                self.successors_resolved(&guards, u, &mut scratch, &mut edges);
                for &(v, mask, interesting, elem, choice) in &edges {
                    if interesting && comp[u] == comp[v as usize] {
                        best.fetch_min(c, Ordering::Relaxed);
                        return Some((u, v as usize, mask, elem, choice));
                    }
                }
            }
            None
        };
        run_indexed(self.cfg.threads.min(chunks), chunks, scan)
            .into_iter()
            .flatten()
            .next()
    }

    /// Decodes state `u`'s labeling from its shard arena.
    fn decode_labeling(&self, u: usize) -> Vec<L> {
        let (s, local) = unpack_state_id(self.dense_ids[u]);
        let shard = self.index.read(s);
        let row = shard.row(local);
        let lw = self.cfg.label_width;
        (0..self.cfg.e)
            .map(|k| self.cfg.alphabet[unpack(row, k * lw as usize, lw) as usize].clone())
            .collect()
    }

    fn stats(&self) -> ExploreStats {
        ExploreStats {
            states: self.n_states,
            edges: self.n_edges,
            words_per_state: self.cfg.words_per_state,
            state_bytes: self.n_states * (self.cfg.words_per_state + self.cfg.aux_len) * 8,
            edge_bytes: self.peak_edge_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Reconstructs the adversary's concrete writes along one product edge
/// from its `(mask, choice)` tag: for every activated Byzantine node
/// (ascending quotient-frame id) the base-`|Σ|` digits of `choice` name,
/// least-significant first, the labels written on its out-edges in
/// `out_edges` order — the exact encoding of
/// [`Explorer::for_each_successor`]. `acc` maps the quotient frame into
/// the concrete frame (pass the identity when symmetry is off): digit
/// `(i, s)` lands on the concrete edge `acc.edge_perm[out_edges(i)[s]]`,
/// reported at that edge's slot within the concrete node's own
/// `out_edges` — the shape [`Simulation::step_with_adversary`] replays.
fn decode_adversary<L: Label>(
    graph: &DiGraph,
    faults: FaultModel,
    alphabet: &[L],
    mask: u32,
    choice: u64,
    acc: &Automorphism,
) -> Vec<(NodeId, Vec<L>)> {
    let q = alphabet.len() as u64;
    let mut digits = choice;
    let mut out: Vec<(NodeId, Vec<L>)> = Vec::new();
    for i in 0..graph.node_count() {
        if mask >> i & 1 == 0 || !faults.is_byzantine(i) {
            continue;
        }
        let node = acc.node_perm[i] as NodeId;
        let slots = graph.out_edges(node);
        let mut labels = vec![alphabet[0].clone(); slots.len()];
        for &eid in graph.out_edges(i) {
            let concrete = acc.edge_perm[eid] as EdgeId;
            let slot = slots
                .iter()
                .position(|&k| k == concrete)
                .expect("automorphisms map out-edges to out-edges");
            labels[slot] = alphabet[(digits % q) as usize].clone();
            digits /= q;
        }
        out.push((node, labels));
    }
    out.sort_by_key(|&(node, _)| node);
    out
}

/// Oracle scratch: expansion state plus a resolved `(target, mask,
/// interesting, element, choice)` edge buffer.
type OracleScratch<L> = (ExpandScratch<L>, Vec<(u32, u32, bool, u32, u64)>);

/// The verifier's [`scc::SuccessorOracle`]: read guards over the shard
/// arenas plus one expansion scratch. A successor query regenerates the
/// state's edges via [`Explorer::successors_resolved`] and strips them
/// to dense target ids — the SCC engine never sees (and the process
/// never stores) a full-graph edge array. Under quotient exploration the
/// regenerated successors are re-canonicalized by `successors_resolved`
/// itself, so the oracle serves exactly the interned quotient graph.
struct ProductOracle<'e, 'p, L: Label> {
    ex: &'e Explorer<'p, L>,
    guards: Vec<RwLockReadGuard<'e, StateShard>>,
    /// Reused across queries; the SCC pass is serial, so one suffices.
    scratch: RefCell<OracleScratch<L>>,
}

impl<'e, 'p, L: Label> ProductOracle<'e, 'p, L> {
    fn new(ex: &'e Explorer<'p, L>) -> Self {
        ProductOracle {
            ex,
            guards: ex.index.read_all(),
            scratch: RefCell::new((ExpandScratch::new(&ex.cfg), Vec::new())),
        }
    }
}

impl<L: Label> scc::SuccessorOracle for ProductOracle<'_, '_, L> {
    fn state_count(&self) -> usize {
        self.ex.n_states
    }

    fn successors(&self, u: u32, out: &mut Vec<u32>) {
        let (scratch, edges) = &mut *self.scratch.borrow_mut();
        self.ex
            .successors_resolved(&self.guards, u as usize, scratch, edges);
        out.clear();
        out.extend(edges.iter().map(|&(v, _, _, _, _)| v));
    }
}

/// Decides **label** r-stabilization of `protocol` under the given inputs,
/// exactly, by exploring the full product graph over `alphabet`-labelings.
///
/// `alphabet` must be closed under the reactions; a reaction emitting a
/// label outside it is reported as [`VerifyError::BadParameters`].
///
/// See the [module docs](self) for the memory model (packed states,
/// sharded fingerprint interning, regenerated edges, oracle SCC) and the
/// determinism contract of the parallel explorer ([`Limits::threads`]).
///
/// # Errors
///
/// [`VerifyError::TooManyStates`] / [`VerifyError::TooManyEdges`] if the
/// product graph exceeds the limits; [`VerifyError::BadParameters`] for
/// `r = 0`, oversized graphs, or a non-closed alphabet.
pub fn verify_label_stabilization<L: Label>(
    protocol: &Protocol<L>,
    inputs: &[Input],
    alphabet: &[L],
    r: u8,
    limits: Limits,
) -> Result<Verdict<L>, VerifyError> {
    verify_label_stabilization_with_stats(protocol, inputs, alphabet, r, limits).map(|(v, _)| v)
}

/// [`verify_label_stabilization`], also reporting the size of the explored
/// product graph ([`ExploreStats`]) — the figures behind the
/// `verify_scaling` perf section.
///
/// # Errors
///
/// As for [`verify_label_stabilization`].
pub fn verify_label_stabilization_with_stats<L: Label>(
    protocol: &Protocol<L>,
    inputs: &[Input],
    alphabet: &[L],
    r: u8,
    limits: Limits,
) -> Result<(Verdict<L>, ExploreStats), VerifyError> {
    let explored = Explorer::explore(protocol, inputs, alphabet, r, false, &limits)?;
    Ok(settle(explored))
}

/// Turns a batch-loop outcome into a verdict: condense + witness on a
/// complete exploration, [`Verdict::Partial`] on a deadline-truncated
/// one. Shared by every entry point (fresh and resumed, label and
/// output mode).
fn settle<L: Label>(explored: Explored<'_, L>) -> (Verdict<L>, ExploreStats) {
    match explored {
        Explored::Complete(ex) => {
            let comp = ex.sccs();
            let verdict = match ex.witness(&comp) {
                Some(w) => Verdict::NotStabilizing(w),
                None => Verdict::Stabilizing,
            };
            (verdict, ex.stats())
        }
        Explored::Partial {
            ex,
            cursor,
            checkpoint,
        } => {
            let verdict = Verdict::Partial {
                states_explored: ex.n_states,
                frontier_len: ex.n_states - cursor,
                checkpoint,
            };
            (verdict, ex.stats())
        }
    }
}

/// Resumes a **label**-stabilization verification from the newest valid
/// checkpoint epoch in `dir` (see [`CheckpointPolicy`]) and drives it to
/// a verdict. Pass the *same* protocol, inputs, alphabet, `r`, and
/// instance-shaping limits (fault model, symmetry mode, state/edge
/// budgets) as the original run: the checkpoint's stored instance
/// fingerprint is verified first and a mismatch is the typed
/// [`ResumeError::InstanceMismatch`] — never a silently wrong verdict.
/// `limits.threads` may freely differ: the resumed verdict, state ids,
/// and witness are bit-identical to an uninterrupted run at any thread
/// count.
///
/// # Errors
///
/// [`VerifyError::Resume`] if the store holds no valid epoch, the epoch
/// is corrupt, or the instance fingerprint mismatches; otherwise as for
/// [`verify_label_stabilization`].
pub fn verify_label_stabilization_resumed<L: Label>(
    protocol: &Protocol<L>,
    inputs: &[Input],
    alphabet: &[L],
    r: u8,
    limits: Limits,
    dir: &Path,
) -> Result<(Verdict<L>, ExploreStats), VerifyError> {
    verify_label_stabilization_resumed_at(protocol, inputs, alphabet, r, limits, dir, None)
}

/// [`verify_label_stabilization_resumed`] from an explicit epoch — the
/// resume-at-any-epoch test hook.
///
/// # Errors
///
/// As for [`verify_label_stabilization_resumed`].
#[doc(hidden)]
pub fn verify_label_stabilization_resumed_at<L: Label>(
    protocol: &Protocol<L>,
    inputs: &[Input],
    alphabet: &[L],
    r: u8,
    limits: Limits,
    dir: &Path,
    epoch: Option<u64>,
) -> Result<(Verdict<L>, ExploreStats), VerifyError> {
    let (ex, cursor) = Explorer::resume(protocol, inputs, alphabet, r, false, &limits, dir, epoch)?;
    let explored = ex.run(cursor, &limits)?;
    Ok(settle(explored))
}

/// Resumes an **output**-stabilization verification from the newest
/// valid checkpoint epoch in `dir`; see
/// [`verify_label_stabilization_resumed`] for the matching rules.
///
/// # Errors
///
/// As for [`verify_label_stabilization_resumed`].
pub fn verify_output_stabilization_resumed<L: Label>(
    protocol: &Protocol<L>,
    inputs: &[Input],
    alphabet: &[L],
    r: u8,
    limits: Limits,
    dir: &Path,
) -> Result<(Verdict<L>, ExploreStats), VerifyError> {
    verify_output_stabilization_resumed_at(protocol, inputs, alphabet, r, limits, dir, None)
}

/// [`verify_output_stabilization_resumed`] from an explicit epoch.
///
/// # Errors
///
/// As for [`verify_label_stabilization_resumed`].
#[doc(hidden)]
pub fn verify_output_stabilization_resumed_at<L: Label>(
    protocol: &Protocol<L>,
    inputs: &[Input],
    alphabet: &[L],
    r: u8,
    limits: Limits,
    dir: &Path,
    epoch: Option<u64>,
) -> Result<(Verdict<L>, ExploreStats), VerifyError> {
    let (ex, cursor) = Explorer::resume(protocol, inputs, alphabet, r, true, &limits, dir, epoch)?;
    let explored = ex.run(cursor, &limits)?;
    Ok(settle(explored))
}

/// An explored **label**-stabilization product graph, held open for
/// repeated SCC condensation — the hook the `verify_scaling` perf rows
/// use to time the SCC phase in isolation on the real graph without
/// re-exploring it each time.
#[doc(hidden)]
pub struct ExploredProduct<'p, L: Label>(Explorer<'p, L>);

/// Explores the product graph of a **label**-stabilization query and
/// returns it as an [`ExploredProduct`] handle (no verdict).
///
/// # Errors
///
/// As for [`verify_label_stabilization`].
#[doc(hidden)]
pub fn explore_product<'p, L: Label>(
    protocol: &'p Protocol<L>,
    inputs: &[Input],
    alphabet: &[L],
    r: u8,
    limits: Limits,
) -> Result<ExploredProduct<'p, L>, VerifyError> {
    match Explorer::explore(protocol, inputs, alphabet, r, false, &limits)? {
        Explored::Complete(ex) => Ok(ExploredProduct(ex)),
        Explored::Partial { .. } => Err(VerifyError::BadParameters {
            what: "explore_product cannot represent a deadline-truncated exploration; \
                   drop Limits::deadline or use verify_label_stabilization_resumed"
                .into(),
        }),
    }
}

impl<L: Label> ExploredProduct<'_, L> {
    /// Condenses via the successor oracle, exactly as the verifier
    /// does. Both arguments are ignored: there is one serial SCC engine.
    pub fn condense(&self, _backend: SccBackend, _threads: usize) -> Vec<u32> {
        self.0.sccs()
    }

    /// Exploration stats ([`ExploreStats`]).
    pub fn stats(&self) -> ExploreStats {
        self.0.stats()
    }
}

/// Decides **output** r-stabilization (the weaker condition: outputs must
/// converge, labels may dance forever). Same exploration with outputs in
/// the state.
///
/// # Errors
///
/// As for [`verify_label_stabilization`].
pub fn verify_output_stabilization<L: Label>(
    protocol: &Protocol<L>,
    inputs: &[Input],
    alphabet: &[L],
    r: u8,
    limits: Limits,
) -> Result<Verdict<L>, VerifyError> {
    verify_output_stabilization_with_stats(protocol, inputs, alphabet, r, limits).map(|(v, _)| v)
}

/// [`verify_output_stabilization`], also reporting the size of the
/// explored product graph — the output-mode twin of
/// [`verify_label_stabilization_with_stats`] (the verdict cache stores
/// stats for both query modes).
///
/// # Errors
///
/// As for [`verify_label_stabilization`].
pub fn verify_output_stabilization_with_stats<L: Label>(
    protocol: &Protocol<L>,
    inputs: &[Input],
    alphabet: &[L],
    r: u8,
    limits: Limits,
) -> Result<(Verdict<L>, ExploreStats), VerifyError> {
    let explored = Explorer::explore(protocol, inputs, alphabet, r, true, &limits)?;
    Ok(settle(explored))
}

// ---------------------------------------------------------------------------
// Naive reference explorer (owned-`Vec` interning + Kosaraju), kept for
// differential testing only.
// ---------------------------------------------------------------------------

/// One product-graph vertex of the naive explorer: `(labeling, countdown,
/// outputs)` (outputs all-zero when not tracked).
type ProductState<L> = (Vec<L>, Vec<u8>, Vec<Output>);

struct NaiveExplorer<'p, L: Label> {
    protocol: &'p Protocol<L>,
    inputs: Vec<Input>,
    r: u8,
    track_outputs: bool,
    faults: FaultModel,
    /// Deduplicated alphabet (first occurrence wins, like the packed
    /// explorer) — the digit base of adversary-choice codes.
    alphabet: Vec<L>,
    /// Edges sourced at correct nodes; the label-mode "interesting" set
    /// when the fault model is non-trivial (empty when fault-free).
    correct_src_edges: Vec<usize>,
    index: HashMap<ProductState<L>, usize>,
    states: Vec<ProductState<L>>,
    /// edges[u] = (v, interesting: labeling/output changed, activation
    /// mask, adversary-choice code)
    edges: Vec<Vec<(usize, bool, u32, u64)>>,
    in_buf: Vec<L>,
    out_buf: Vec<L>,
}

impl<'p, L: Label> NaiveExplorer<'p, L> {
    fn explore(
        protocol: &'p Protocol<L>,
        inputs: &[Input],
        alphabet: &[L],
        r: u8,
        track_outputs: bool,
        limits: &Limits,
    ) -> Result<Self, VerifyError> {
        limits.validate()?;
        let n = protocol.node_count();
        if n > MAX_NODES {
            return Err(VerifyError::BadParameters {
                what: format!("exhaustive verification supports n ≤ {MAX_NODES}, got {n}"),
            });
        }
        if r == 0 {
            return Err(VerifyError::BadParameters {
                what: "r must be ≥ 1".into(),
            });
        }
        limits
            .faults
            .validate(n)
            .map_err(|e| VerifyError::BadParameters {
                what: e.to_string(),
            })?;
        let mut dedup: Vec<L> = Vec::with_capacity(alphabet.len());
        for l in alphabet {
            if !dedup.contains(l) {
                dedup.push(l.clone());
            }
        }
        let correct_src_edges: Vec<usize> = if limits.faults.has_faults() {
            protocol
                .graph()
                .edges()
                .filter(|&(_, u, _)| !limits.faults.is_faulty(u))
                .map(|(id, _, _)| id)
                .collect()
        } else {
            Vec::new()
        };
        let mut ex = NaiveExplorer {
            protocol,
            inputs: inputs.to_vec(),
            r,
            track_outputs,
            faults: limits.faults,
            alphabet: dedup,
            correct_src_edges,
            index: HashMap::new(),
            states: Vec::new(),
            edges: Vec::new(),
            in_buf: Vec::new(),
            out_buf: Vec::new(),
        };
        for labeling in all_labelings(alphabet, protocol.edge_count()) {
            let state = (labeling, vec![r; n], vec![0; n]);
            ex.intern(state, limits)?;
        }
        let mut cursor = 0;
        while cursor < ex.states.len() {
            ex.expand(cursor, limits)?;
            cursor += 1;
        }
        Ok(ex)
    }

    fn intern(&mut self, state: ProductState<L>, limits: &Limits) -> Result<usize, VerifyError> {
        if let Some(&id) = self.index.get(&state) {
            return Ok(id);
        }
        if self.states.len() >= limits.max_states {
            return Err(VerifyError::TooManyStates {
                limit: limits.max_states,
            });
        }
        let id = self.states.len();
        self.index.insert(state.clone(), id);
        self.states.push(state);
        self.edges.push(Vec::new());
        Ok(id)
    }

    fn expand(&mut self, u: usize, limits: &Limits) -> Result<(), VerifyError> {
        let n = self.protocol.node_count();
        let (labeling, countdown, outputs) = self.states[u].clone();
        let forced: u32 = (0..n).filter(|&i| countdown[i] == 1).map(|i| 1 << i).sum();
        let free: Vec<usize> = (0..n).filter(|&i| countdown[i] != 1).collect();
        for subset in 0..(1u32 << free.len()) {
            let mut mask = forced;
            for (k, &i) in free.iter().enumerate() {
                if subset >> k & 1 == 1 {
                    mask |= 1 << i;
                }
            }
            if mask == 0 {
                continue;
            }
            let mut next_labeling = labeling.clone();
            let mut next_outputs = outputs.clone();
            let graph = self.protocol.graph();
            let mut byz_edges: Vec<usize> = Vec::new();
            for i in (0..n).filter(|&i| mask >> i & 1 == 1) {
                if self.faults.is_faulty(i) {
                    // Crash: no writes. Byzantine: set per choice below.
                    // Faulty outputs stay frozen at 0 either way.
                    if self.faults.is_byzantine(i) {
                        byz_edges.extend_from_slice(graph.out_edges(i));
                    }
                    continue;
                }
                let y = self.protocol.apply_buffered(
                    i,
                    &labeling,
                    self.inputs[i],
                    &mut self.in_buf,
                    &mut self.out_buf,
                );
                for (slot, &e) in self.out_buf.iter().zip(graph.out_edges(i)) {
                    next_labeling[e] = slot.clone();
                }
                next_outputs[i] = y;
            }
            let next_countdown: Vec<u8> = (0..n)
                .map(|i| {
                    if mask >> i & 1 == 1 {
                        self.r
                    } else {
                        countdown[i] - 1
                    }
                })
                .collect();
            // Same digit encoding as the packed explorer: base-|Σ|,
            // least-significant digit first over byz_edges.
            let q = self.alphabet.len() as u64;
            let n_choices = q.pow(byz_edges.len() as u32);
            for choice in 0..n_choices {
                let mut digits = choice;
                for &e in &byz_edges {
                    next_labeling[e] = self.alphabet[(digits % q) as usize].clone();
                    digits /= q;
                }
                let interesting = if self.track_outputs {
                    next_outputs != outputs
                } else if self.faults.has_faults() {
                    self.correct_src_edges
                        .iter()
                        .any(|&k| next_labeling[k] != labeling[k])
                } else {
                    next_labeling != labeling
                };
                let mut state_outputs = next_outputs.clone();
                if !self.track_outputs {
                    state_outputs = vec![0; n]; // outputs not part of the state
                }
                let v = self.intern(
                    (next_labeling.clone(), next_countdown.clone(), state_outputs),
                    limits,
                )?;
                self.edges[u].push((v, interesting, mask, choice));
            }
        }
        Ok(())
    }

    /// Kosaraju SCC; returns the component id per state.
    fn sccs(&self) -> Vec<usize> {
        let n = self.states.len();
        let mut order = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            seen[start] = true;
            while let Some(&mut (u, ref mut next)) = stack.last_mut() {
                if *next < self.edges[u].len() {
                    let v = self.edges[u][*next].0;
                    *next += 1;
                    if !seen[v] {
                        seen[v] = true;
                        stack.push((v, 0));
                    }
                } else {
                    order.push(u);
                    stack.pop();
                }
            }
        }
        let mut redges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (u, outs) in self.edges.iter().enumerate() {
            for &(v, _, _, _) in outs {
                redges[v].push(u);
            }
        }
        let mut comp = vec![usize::MAX; n];
        let mut c = 0;
        for &start in order.iter().rev() {
            if comp[start] != usize::MAX {
                continue;
            }
            let mut stack = vec![start];
            comp[start] = c;
            while let Some(u) = stack.pop() {
                for &v in &redges[u] {
                    if comp[v] == usize::MAX {
                        comp[v] = c;
                        stack.push(v);
                    }
                }
            }
            c += 1;
        }
        comp
    }

    fn witness(&self, comp: &[usize]) -> Option<CycleWitness<L>> {
        for (u, outs) in self.edges.iter().enumerate() {
            for &(v, interesting, mask, choice) in outs {
                if !interesting || comp[u] != comp[v] {
                    continue;
                }
                let mut prev: HashMap<usize, (usize, u32, u64)> = HashMap::new();
                let mut queue = VecDeque::from([v]);
                let mut found = v == u;
                while let Some(w) = queue.pop_front() {
                    if found {
                        break;
                    }
                    for &(x, _, m, c) in &self.edges[w] {
                        if comp[x] == comp[u] && x != v && !prev.contains_key(&x) {
                            prev.insert(x, (w, m, c));
                            if x == u {
                                found = true;
                                break;
                            }
                            queue.push_back(x);
                        }
                    }
                }
                if !found && v != u {
                    continue;
                }
                let mut steps = vec![(mask, choice)];
                let mut path_rev = Vec::new();
                let mut at = u;
                while at != v {
                    let &(p, m, c) = prev.get(&at).expect("BFS reached u");
                    path_rev.push((m, c));
                    at = p;
                }
                steps.extend(path_rev.into_iter().rev());
                let n = self.protocol.node_count();
                let graph = self.protocol.graph();
                let ident = Automorphism::identity(n, graph.edge_count());
                let adversary = steps
                    .iter()
                    .map(|&(m, c)| {
                        decode_adversary(graph, self.faults, &self.alphabet, m, c, &ident)
                    })
                    .collect();
                let schedule = steps
                    .into_iter()
                    .map(|(m, _)| (0..n).filter(|&i| m >> i & 1 == 1).collect())
                    .collect();
                return Some(CycleWitness {
                    labeling: self.states[u].0.clone(),
                    schedule,
                    adversary,
                });
            }
        }
        None
    }
}

/// Reference implementation of [`verify_label_stabilization`]: the
/// original explorer interning owned `(Vec<L>, Vec<u8>, Vec<Output>)`
/// states in a `HashMap` and running Kosaraju over `Vec<Vec<…>>` edges.
/// Kept for differential testing and as the baseline in the
/// `verify_scaling` perf section; the two must agree on every verdict.
///
/// # Errors
///
/// As for [`verify_label_stabilization`].
#[doc(hidden)]
pub fn verify_label_stabilization_naive<L: Label>(
    protocol: &Protocol<L>,
    inputs: &[Input],
    alphabet: &[L],
    r: u8,
    limits: Limits,
) -> Result<Verdict<L>, VerifyError> {
    let ex = NaiveExplorer::explore(protocol, inputs, alphabet, r, false, &limits)?;
    let comp = ex.sccs();
    match ex.witness(&comp) {
        Some(w) => Ok(Verdict::NotStabilizing(w)),
        None => Ok(Verdict::Stabilizing),
    }
}

/// Reference implementation of [`verify_output_stabilization`]; see
/// [`verify_label_stabilization_naive`].
///
/// # Errors
///
/// As for [`verify_output_stabilization`].
#[doc(hidden)]
pub fn verify_output_stabilization_naive<L: Label>(
    protocol: &Protocol<L>,
    inputs: &[Input],
    alphabet: &[L],
    r: u8,
    limits: Limits,
) -> Result<Verdict<L>, VerifyError> {
    let ex = NaiveExplorer::explore(protocol, inputs, alphabet, r, true, &limits)?;
    let comp = ex.sccs();
    match ex.witness(&comp) {
        Some(w) => Ok(Verdict::NotStabilizing(w)),
        None => Ok(Verdict::Stabilizing),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stateless_core::reaction::{ConstReaction, FnReaction};

    fn rotate_ring(n: usize) -> Protocol<bool> {
        Protocol::builder(topology::unidirectional_ring(n), 1.0)
            .uniform_reaction(FnReaction::new(|_, inc: &[bool], _| (vec![inc[0]], 42)))
            .build()
            .unwrap()
    }

    #[test]
    fn constant_protocol_is_stabilizing_for_all_r() {
        let p = Protocol::builder(topology::clique(3), 1.0)
            .uniform_reaction(ConstReaction::new(false, 0, 2))
            .build()
            .unwrap();
        for r in 1..=3 {
            let v = verify_label_stabilization(&p, &[0; 3], &[false, true], r, Limits::default())
                .unwrap();
            assert!(v.is_stabilizing(), "r = {r}");
        }
    }

    #[test]
    fn rotation_is_not_label_stabilizing_but_output_stabilizes() {
        let p = rotate_ring(3);
        let label =
            verify_label_stabilization(&p, &[0; 3], &[false, true], 2, Limits::default()).unwrap();
        match label {
            Verdict::NotStabilizing(w) => {
                assert!(!w.schedule.is_empty());
            }
            Verdict::Stabilizing => panic!("rotation never label-stabilizes"),
            Verdict::Partial { .. } => panic!("no deadline was set, so no partial verdict"),
        }
        let output =
            verify_output_stabilization(&p, &[0; 3], &[false, true], 2, Limits::default()).unwrap();
        assert!(output.is_stabilizing(), "constant outputs converge");
    }

    #[test]
    fn witness_schedule_really_oscillates() {
        let p = rotate_ring(3);
        let v =
            verify_label_stabilization(&p, &[0; 3], &[false, true], 3, Limits::default()).unwrap();
        let Verdict::NotStabilizing(w) = v else {
            panic!("expected a witness")
        };
        // Replay the witness: labels must change within a few script laps
        // and the labeling must return to the start each lap (it is a
        // cycle in the product graph).
        let mut sim = Simulation::new(&p, &[0; 3], w.labeling.clone()).unwrap();
        let mut sched = Scripted::cycle(w.schedule.clone());
        sched.validate(3).expect("witness names real nodes");
        let mut changed = false;
        let mut active = Vec::new();
        for _ in 0..w.schedule.len() {
            let before = sim.labeling().to_vec();
            sched.activations_into(sim.time() + 1, 3, &mut active);
            sim.step_with(&active);
            changed |= before != sim.labeling();
        }
        assert!(changed, "labels changed along the cycle");
        assert_eq!(sim.labeling(), &w.labeling[..], "cycle closes");
    }

    #[test]
    fn limits_are_enforced() {
        let p = rotate_ring(4);
        let err = verify_label_stabilization(
            &p,
            &[0; 4],
            &[false, true],
            3,
            Limits {
                max_states: 10,
                ..Limits::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, VerifyError::TooManyStates { limit: 10 });
    }

    #[test]
    fn edge_limits_are_enforced() {
        let p = rotate_ring(4);
        let err = verify_label_stabilization(
            &p,
            &[0; 4],
            &[false, true],
            3,
            Limits {
                max_edges: 100,
                ..Limits::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, VerifyError::TooManyEdges { limit: 100 });
    }

    #[test]
    fn r_zero_is_rejected() {
        let p = rotate_ring(3);
        assert!(matches!(
            verify_label_stabilization(&p, &[0; 3], &[false, true], 0, Limits::default()),
            Err(VerifyError::BadParameters { .. })
        ));
    }

    #[test]
    fn non_closed_alphabet_is_rejected() {
        // The reaction emits `true`, which the declared alphabet lacks.
        let p = Protocol::builder(topology::unidirectional_ring(3), 1.0)
            .uniform_reaction(FnReaction::new(|_, _: &[bool], _| (vec![true], 0)))
            .build()
            .unwrap();
        let err =
            verify_label_stabilization(&p, &[0; 3], &[false], 2, Limits::default()).unwrap_err();
        assert!(matches!(err, VerifyError::BadParameters { .. }), "{err:?}");
    }

    #[test]
    fn duplicate_alphabet_entries_do_not_inflate_the_state_space() {
        let p = rotate_ring(3);
        let (_, plain) = verify_label_stabilization_with_stats(
            &p,
            &[0; 3],
            &[false, true],
            2,
            Limits::default(),
        )
        .unwrap();
        let (_, duped) = verify_label_stabilization_with_stats(
            &p,
            &[0; 3],
            &[false, true, false, true],
            2,
            Limits::default(),
        )
        .unwrap();
        assert_eq!(plain.states, duped.states);
    }

    #[test]
    fn packed_explorer_matches_naive_on_verdicts() {
        // Hand-picked spread: stabilizing and oscillating, label and
        // output mode, r from 1 to 3 (the proptests in
        // tests/differential.rs cover random protocols).
        let rot = rotate_ring(3);
        let constp = Protocol::builder(topology::clique(3), 1.0)
            .uniform_reaction(ConstReaction::new(false, 0, 2))
            .build()
            .unwrap();
        for r in 1..=3u8 {
            for p in [&rot, &constp] {
                let fast =
                    verify_label_stabilization(p, &[0; 3], &[false, true], r, Limits::default())
                        .unwrap();
                let naive = verify_label_stabilization_naive(
                    p,
                    &[0; 3],
                    &[false, true],
                    r,
                    Limits::default(),
                )
                .unwrap();
                assert_eq!(fast.is_stabilizing(), naive.is_stabilizing(), "r = {r}");
                let fast_o =
                    verify_output_stabilization(p, &[0; 3], &[false, true], r, Limits::default())
                        .unwrap();
                let naive_o = verify_output_stabilization_naive(
                    p,
                    &[0; 3],
                    &[false, true],
                    r,
                    Limits::default(),
                )
                .unwrap();
                assert_eq!(fast_o.is_stabilizing(), naive_o.is_stabilizing(), "r = {r}");
            }
        }
    }

    #[test]
    fn verdicts_witnesses_and_stats_are_identical_across_thread_counts() {
        // The hard determinism invariant: not just equal verdicts, but
        // bit-identical witnesses and state/edge counts for every worker
        // count (tests/differential.rs covers random protocols).
        let p = rotate_ring(4);
        let at = |threads: usize| {
            let limits = Limits {
                threads,
                ..Limits::default()
            };
            let label = verify_label_stabilization_with_stats(
                &p,
                &[0; 4],
                &[false, true],
                3,
                limits.clone(),
            )
            .unwrap();
            let output =
                verify_output_stabilization(&p, &[0; 4], &[false, true], 3, limits).unwrap();
            (label, output)
        };
        let base = at(1);
        for threads in [2, 4, 7] {
            assert_eq!(base, at(threads), "threads = {threads}");
        }
    }

    #[test]
    fn quotient_shrinks_the_ring_and_keeps_the_verdict() {
        let p = rotate_ring(5);
        let (full_v, full) = verify_label_stabilization_with_stats(
            &p,
            &[0; 5],
            &[false, true],
            2,
            Limits::default(),
        )
        .unwrap();
        let (quot_v, quot) = verify_label_stabilization_with_stats(
            &p,
            &[0; 5],
            &[false, true],
            2,
            Limits {
                symmetry: SymmetryMode::Auto,
                ..Limits::default()
            },
        )
        .unwrap();
        assert_eq!(full_v.is_stabilizing(), quot_v.is_stabilizing());
        // The rotation group has order 5; only the all-equal labelings
        // are fixed points, so the quotient is very close to 5× smaller.
        assert!(
            quot.states * 4 <= full.states,
            "quotient {} vs full {}",
            quot.states,
            full.states
        );
        assert!(quot.edges * 4 <= full.edges);
    }

    #[test]
    fn quotient_witness_replays_on_the_unquotiented_system() {
        for n in [3usize, 4, 5] {
            let p = rotate_ring(n);
            let v = verify_label_stabilization(
                &p,
                &vec![0; n],
                &[false, true],
                2,
                Limits {
                    symmetry: SymmetryMode::Auto,
                    ..Limits::default()
                },
            )
            .unwrap();
            let Verdict::NotStabilizing(w) = v else {
                panic!("rotation never label-stabilizes (n = {n})")
            };
            // The de-canonicalized witness must be a genuine cycle of the
            // full (unquotiented) system: labels change and the labeling
            // returns to the start after one script lap.
            let mut sim = Simulation::new(&p, &vec![0; n], w.labeling.clone()).unwrap();
            let mut sched = Scripted::cycle(w.schedule.clone());
            sched.validate(n).expect("witness names real nodes");
            let mut changed = false;
            let mut active = Vec::new();
            for _ in 0..w.schedule.len() {
                let before = sim.labeling().to_vec();
                sched.activations_into(sim.time() + 1, n, &mut active);
                sim.step_with(&active);
                changed |= before != sim.labeling();
            }
            assert!(changed, "labels changed along the cycle (n = {n})");
            assert_eq!(sim.labeling(), &w.labeling[..], "cycle closes (n = {n})");
        }
    }

    #[test]
    fn quotient_is_thread_and_backend_deterministic() {
        let p = rotate_ring(4);
        let run = |threads: usize| {
            verify_label_stabilization_with_stats(
                &p,
                &[0; 4],
                &[false, true],
                3,
                Limits {
                    threads,
                    symmetry: SymmetryMode::Auto,
                    ..Limits::default()
                },
            )
            .unwrap()
        };
        let base = run(1);
        for threads in [2, 4, 7] {
            assert_eq!(base, run(threads), "t{threads}");
        }
    }

    #[test]
    fn stats_report_packed_sizes() {
        let p = rotate_ring(3);
        let (_, stats) = verify_label_stabilization_with_stats(
            &p,
            &[0; 3],
            &[false, true],
            2,
            Limits::default(),
        )
        .unwrap();
        // 3 label bits + 3 countdown bits pack into one word.
        assert_eq!(stats.words_per_state, 1);
        assert!(stats.states > 0 && stats.edges > 0);
        assert_eq!(stats.state_bytes, stats.states * 8);
        // Reachable closure of 8 labelings × countdowns ∈ {1,2}³ minus
        // combinations the dynamics never produce; at least all 8 initial
        // states exist.
        assert!(stats.states >= 8);
    }
}
