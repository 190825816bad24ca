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
//! * **One numbering.** A state's id is its dense id from the moment it
//!   is interned: one [`FingerprintIndex`] maps the seeded FxHash
//!   fingerprint to it, and the packed rows are kept by dense id in one
//!   [`ChunkedArena`] (tracked outputs in a second one). A state of one
//!   packed word and no tracked outputs — every label-mode state whose
//!   labels and countdowns fit 64 bits — has an injective fingerprint
//!   ([`fingerprint_is_exact`]), so its fingerprint hit is exact and reads
//!   no row. Every other hit is confirmed by exact equality against those
//!   rows, so hash collisions cost a comparison but never a wrong verdict.
//! * **No stored edges.** The verifier holds **no full-graph CSR**: a
//!   product transition is a pure function of its packed source row, so
//!   every phase that needs edges regenerates them on the fly —
//!   react each correct node once into one reacted row, enumerate
//!   activation sets, build each successor from the source and reacted
//!   rows with whole-word masks (and, under symmetry, canonicalize it),
//!   and resolve it to its dense id by a read-only fingerprint lookup
//!   ([`FingerprintIndex::find`]), confirmed as above. Reacting is a
//!   table lookup: the query tabulates every node's reaction once per
//!   in-labeling ([`ReactionTable`]) before anything else, and that one
//!   table serves the whole query: symmetry validation, the instance key
//!   the checkpoints and the verdict cache trust, and
//!   `Explorer::prepare`, which packs each correct node's out-labels into
//!   whole-word masks, so a state reads each node's in-edge digits from
//!   its row and ORs in that node's entry. Every edge is the in-edge of
//!   exactly one node, so the table (`Σᵥ |Σ|^indeg(v)` entries) has at
//!   most one entry per labeling plus one per node, and every labeling
//!   is a seed state: the table costs no more than the seeds, and an
//!   instance whose table exceeds [`Limits::max_states`] plus `n`
//!   entries is refused as [`VerifyError::TooManyStates`] before any
//!   reaction runs. This is the classic on-the-fly / implicit-graph
//!   model-checking move: memory is
//!   O(states) plus bounded transients (per-batch record buffers during
//!   exploration, the edge buffers along one DFS path during SCC, and
//!   the witness search's map over the states it reaches), never
//!   O(edges). [`Limits::max_edges`] survives as a **traversal
//!   budget**: exploration still counts every transition
//!   it generates (each exactly once) and fails with
//!   [`VerifyError::TooManyEdges`] past the budget, bounding wall time
//!   on dense activation sets — it just no longer corresponds to any
//!   stored array.
//! * **SCC over a successor oracle.** Components come from
//!   [`stateless_core::scc::condense`], one serial iterative Tarjan pass
//!   driven through the [`scc::SuccessorOracle`] trait, which regenerates
//!   each state's successors from its packed row exactly once and marks
//!   the interesting (label- or output-changing) ones. The same pass
//!   reports the least interesting edge inside a component, which
//!   decides the verdict (Theorem 3.1) and anchors the witness, so
//!   after exploration the graph is regenerated once, plus the states a
//!   witness search visits. The numbering is canonical (components
//!   ordered by minimum member id), a property of the graph alone, so
//!   component ids — and hence verdicts and witnesses — are
//!   bit-identical at every thread count.
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
//! reports the **peak transient** edge bytes (the largest per-batch
//! record buffer of exploration) instead of final CSR storage. A record
//! no longer carries the 8-byte stream key that numbering states
//! through 64 fingerprint shards needed, so the figure is 8 bytes per
//! record below what those builds reported, for the same records.
//!
//! # Parallel exploration and determinism
//!
//! Frontier expansion runs on [`Limits::threads`] workers in batches of
//! bounded fan-out, in two phases per batch:
//!
//! 1. **Expand** (parallel over chunks): workers claim contiguous slices
//!    of the batch's source states, read each state's row by dense id,
//!    react each correct node once into a reacted row (a table lookup),
//!    enumerate its activation sets (each set is a few whole-word
//!    operations on the source and reacted rows), and emit one record
//!    stream per chunk of `(fingerprint, packed words)` — successors are
//!    *not* resolved yet, and nothing per-edge outlives the batch.
//! 2. **Intern** (serial, on the calling thread): the chunks' records
//!    are replayed **in stream order** — chunk by chunk, record by
//!    record — against the fingerprint index. A hit is exact for a
//!    one-word row without aux words and confirmed against the rows
//!    otherwise; a miss is numbered on the spot with the next
//!    dense id, after the [`Limits::max_states`] check. Stream order is
//!    source order, then canonical edge order, so each state's id is
//!    the position of the edge that first discovered it — exactly the
//!    order the sequential explorer interns in. The batch's record
//!    buffers are then dropped; only the edge count (the traversal
//!    budget) and the peak transient byte figure survive.
//!
//! An `r = 1` label-mode query skips the batches. Its countdown fields
//! are zero bits wide and outputs are not tracked, so a state is its
//! labeling alone, and every labeling is a seed: the batches would
//! generate every edge only to intern nothing. Instead the
//! loop counts those edges (each state's lone activation set branches
//! over every adversary choice), charges them against
//! [`Limits::max_edges`], and goes straight to the SCC pass, which
//! generates each edge once. Packing the table has already checked
//! every correct node's entry against the alphabet, the one check those
//! batches made.
//!
//! Batch and chunk boundaries derive only from per-state degree
//! estimates (never the thread count), and interning follows the record
//! replay order, which no thread timing can change — so verdicts, state
//! numbering, and witnesses are **bit-identical for every thread
//! count**, and `threads = 1` *is* the sequential packed explorer rather
//! than a separate code path. `tests/differential.rs`
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
//! the quotient. Pure ring groups take the ring path of
//! [`Symmetry::canonicalize`]: a row without aux words whose positions
//! fit one word is rotated as one integer, and any other row runs Booth's
//! minimal-rotation search over one `u128` key per position. Other
//! groups run the generator-orbit scan. Each worker's [`CanonScratch`]
//! keeps every path allocation-free per edge.
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
//! reports a violation immediately as [`VerifyError::BadParameters`] —
//! while packing the reaction table, before seeding — where the naive
//! explorer would silently grow the state space until
//! [`Limits::max_states`] tripped.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use stateless_core::checkpoint::{CheckpointError, CheckpointStore, SegmentWriter};
use stateless_core::convergence::all_labelings;
use stateless_core::intern::{
    bits_for, fingerprint_is_exact, pack, state_fingerprint as fingerprint, unpack, ChunkedArena,
    FingerprintIndex, FxBuildHasher,
};
use stateless_core::label::Label;
use stateless_core::prelude::*;
use stateless_core::scc;
use stateless_core::symmetry::{
    dedup_alphabet, Automorphism, CanonScratch, PackedLayout, ReactionTable, Symmetry, SymmetryMode,
};

use crate::checkpoint::{instance_fingerprint, CheckpointHandle, CheckpointPolicy, ResumeError};
use crate::table::PackedReactions;

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
    /// Worker threads for frontier expansion; `0` means all available
    /// cores. Interning the expanded successors, SCC condensation (which
    /// also finds the witness edge), and the witness search run on the
    /// calling thread whatever the value. Verdicts, state ids, and
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
    /// The budget covers exploration only — the seed phase included,
    /// which is not interruptible, so the first check follows it — and a
    /// run that finishes exploring always condenses and reports its full
    /// verdict, however long the SCC phase takes. For an `r = 1`
    /// label-mode query, exploration is the seed phase alone (see the
    /// module docs), so the budget trips only if seeding outlasts it. A
    /// resumed run's budget starts once its epoch is loaded. Batch
    /// boundaries depend only on deterministic exploration totals, but
    /// *which* boundary the deadline trips at is inherently
    /// timing-dependent; determinism is preserved where it matters — any
    /// checkpoint, wherever taken, resumes to the bit-identical final
    /// verdict.
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
    /// checkpoint interval, a zero epoch retention, or a zero deadline —
    /// as [`VerifyError::BadParameters`] instead of misbehaving
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
            if policy.retain == 0 {
                return bad("checkpoint.retain must be ≥ 1 (0 would prune the epoch just written)");
            }
        }
        Ok(())
    }

    /// The states a query may number: [`Limits::max_states`], but never
    /// as many as 32-bit dense ids can name.
    fn state_budget(&self) -> usize {
        self.max_states.min(u32::MAX as usize - 1)
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
        // fingerprint index and one byte of fan-out bookkeeping, so
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
    /// The product graph exceeded [`Limits::max_states`], or the
    /// instance was refused before anything ran: its reaction table has
    /// more entries than the budget plus one per node, so it has more
    /// labelings, all of them seed states, than the budget.
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
    /// A reaction panicked in both tries of the query's one tabulation of
    /// its reaction table — a reaction with a reproducible panic. Nothing
    /// was explored, so there is no checkpoint to resume from.
    ///
    /// Expansion reads the table and calls no reaction, but the expand
    /// workers keep their guard as a safety net: a worker that panics on
    /// the same chunk twice (once in the parallel wave, once in the
    /// serial retry) is this error too, and when a [`Limits::checkpoint`]
    /// policy is set, everything interned *before* the poisoned batch is
    /// written as a final epoch first, so the work is not lost; resume
    /// from [`checkpoint`](VerifyError::PoisonedChunk::checkpoint).
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
                write!(f, "panicked twice: {what}")?;
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
/// record width for the transient buffers. Allocation slack on top (the
/// partially filled last arena block, ~16 bytes of fingerprint index per
/// state) is excluded; it is bounded and amortizes away at the state
/// counts where memory matters.
///
/// Every field is bit-identical across thread counts —
/// the differential suite asserts stats equality — so the transient
/// peak is computed only from thread-independent quantities (batch
/// boundaries derive from degree estimates).
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
    /// batch), capped by the batch-budget ceiling (`BATCH_EDGE_BUDGET`).
    /// A record is a fingerprint plus the packed and auxiliary words,
    /// `8 + 8 · (words_per_state + aux)` bytes; a seed batch counts one
    /// record per seeded labeling. Replaces the stored-CSR figure of the
    /// pre-oracle verifier — see the module docs' migration note. The
    /// phases after exploration store no edges, so they add nothing here.
    pub edge_bytes: usize,
}

/// Ceiling of the per-batch fan-out budget: a batch closes once the
/// estimated edge count of its sources reaches the current budget (see
/// [`Explorer::batch_edge_budget`]). With no stored CSR, the per-batch
/// record buffers (roughly 16–32 bytes per edge) **are** the verifier's
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
/// (records are interned in stream order, which is the same however the
/// stream is cut, so even the boundaries themselves cannot change the
/// output).
const BATCH_EDGE_BUDGET: u64 = 1 << 17;
/// Floor of the adaptive per-batch fan-out budget.
const BATCH_EDGE_BUDGET_MIN: u64 = 1 << 12;
/// Per-chunk fan-out budget: sources are grouped into chunks of roughly
/// this many edges, the unit of work-stealing inside a batch.
const CHUNK_EDGE_BUDGET: u64 = 1 << 14;
/// Initial labelings interned per seed batch; bounds the seed-phase
/// record buffers exactly like [`BATCH_EDGE_BUDGET`] bounds expansion.
const SEED_BATCH_STATES: usize = 1 << 17;
/// Batches with fewer estimated edges than this expand inline instead of
/// spawning workers: the vendored rayon stand-in has no persistent pool,
/// so each wave costs OS thread spawns, which only amortize over enough
/// work. Purely a scheduling heuristic — the pipeline's results are
/// deterministic by construction, so execution strategy never affects
/// verdicts, ids, or witnesses.
const PARALLEL_MIN_BATCH_EDGES: u64 = 1 << 16;

/// One query's instance, validated and tabulated: what an explorer is
/// prepared from and what the verdict cache keys. Built once per query
/// ([`Instance::new`]), so every consumer of the reactions — symmetry
/// validation, the instance key, the packed reactions — reads the same
/// table, and nothing else calls a reaction.
#[derive(Clone)]
pub(crate) struct Instance<'p, L: Label> {
    protocol: &'p Protocol<L>,
    inputs: Vec<Input>,
    r: u8,
    track_outputs: bool,
    /// Deduplicated alphabet; packed label fields are indices into it.
    pub(crate) alphabet: Vec<L>,
    /// Every node's reaction over `alphabet`, tabulated once, faulty nodes
    /// included.
    table: ReactionTable<L>,
    /// Upper bound on the adversary branching factor of any activation
    /// set: `|Σ|^(total Byzantine out-degree)`, saturating. `1` when
    /// fault-free — every fan-out estimate degrades to the exact
    /// pre-fault figure.
    byz_branch_bound: u64,
}

impl<'p, L: Label> Instance<'p, L> {
    /// Validates every parameter, then tabulates the reactions. No
    /// reaction runs before the parameters pass or for a refused
    /// instance, and a reaction panic while tabulating is retried once
    /// ([`retry_once`]).
    ///
    /// # Errors
    ///
    /// [`VerifyError::BadParameters`] for bad limits, more than
    /// [`MAX_NODES`] nodes, `r = 0`, an invalid fault model, `inputs` not
    /// one per node, or an adversary fan-out past 32 bits;
    /// [`VerifyError::TooManyStates`] when the table would have more than
    /// the state budget plus `n` entries (see the module docs);
    /// [`VerifyError::PoisonedChunk`] when tabulating panics twice.
    pub(crate) fn new(
        protocol: &'p Protocol<L>,
        inputs: &[Input],
        alphabet: &[L],
        r: u8,
        track_outputs: bool,
        limits: &Limits,
    ) -> Result<Self, VerifyError> {
        limits.validate()?;
        let n = protocol.node_count();
        let bad = |what: String| Err(VerifyError::BadParameters { what });
        if n > MAX_NODES {
            return bad(format!(
                "exhaustive verification supports n ≤ {MAX_NODES}, got {n}"
            ));
        }
        if r == 0 {
            return bad("r must be ≥ 1".into());
        }
        if let Err(e) = limits.faults.validate(n) {
            return bad(e.to_string());
        }
        if inputs.len() != n {
            return bad(wrong_inputs(inputs.len(), n));
        }
        // Equal labels share one packed index, so states dedup exactly as
        // in the naive explorer.
        let dedup = dedup_alphabet(alphabet);
        // Adversary fan-out: an activated Byzantine node branches over
        // |Σ|^out-degree label choices. Reject models whose worst-case
        // per-state fan-out (every activation set × every choice) could
        // exceed 32 bits — such an exploration would be astronomically
        // infeasible anyway, and the bound keeps every choice code and
        // fan-out estimate far from overflow.
        let mut byz_branch_bound = 1u64;
        for i in limits.faults.byzantine_nodes().filter(|&i| i < n) {
            for _ in 0..protocol.graph().out_degree(i) {
                byz_branch_bound = byz_branch_bound.saturating_mul(dedup.len() as u64);
            }
        }
        if (1u64 << n).saturating_mul(byz_branch_bound) > u64::from(u32::MAX) {
            return bad(format!(
                "adversary fan-out |Σ|^byz-out-degree = {byz_branch_bound} is too \
                 large to enumerate (per-state fan-out must fit 32 bits)"
            ));
        }
        // A table has at most one entry per labeling plus one per node, and
        // every labeling is a seed, so a table over the state budget plus
        // `n` entries means more seeds than the budget.
        let max_entries = (limits.state_budget() + n) as u64;
        let table = retry_once("reaction table", || {
            ReactionTable::build(protocol, inputs, &dedup, max_entries)
        })?
        .ok_or(VerifyError::TooManyStates {
            limit: limits.max_states,
        })?;
        Ok(Instance {
            protocol,
            inputs: inputs.to_vec(),
            r,
            track_outputs,
            alphabet: dedup,
            table,
            byz_branch_bound,
        })
    }

    /// The instance key ([`instance_fingerprint`]): every checkpoint
    /// epoch stamps it, resume verifies it, and the verdict cache is keyed
    /// by it. It hashes the table's entries and calls no reaction.
    pub(crate) fn key(&self, limits: &Limits) -> u64 {
        instance_fingerprint(
            self.protocol,
            &self.inputs,
            &self.alphabet,
            Some(&self.table),
            self.r,
            self.track_outputs,
            limits,
        )
    }

    /// Explores the instance from its seeds and settles the verdict. The
    /// deadline is measured from `started`.
    ///
    /// # Errors
    ///
    /// As for [`verify_label_stabilization`].
    pub(crate) fn verify(
        self,
        limits: &Limits,
        started: Instant,
    ) -> Result<(Verdict<L>, ExploreStats), VerifyError> {
        Ok(settle(Explorer::explore(self, limits, started)?))
    }

    /// Resumes the instance from checkpoint epoch `epoch` in `dir` (the
    /// newest valid one when `None`) and settles the verdict. The
    /// deadline is measured from the moment the epoch is loaded.
    ///
    /// # Errors
    ///
    /// As for [`verify_label_stabilization_resumed`].
    pub(crate) fn resume(
        self,
        limits: &Limits,
        dir: &Path,
        epoch: Option<u64>,
    ) -> Result<(Verdict<L>, ExploreStats), VerifyError> {
        let (ex, cursor) = Explorer::resume(self, limits, dir, epoch)?;
        Ok(settle(ex.run(cursor, limits, Instant::now())?))
    }
}

/// The [`VerifyError::BadParameters`] message for `got` inputs on an
/// `n`-node protocol.
fn wrong_inputs(got: usize, n: usize) -> String {
    format!("inputs has {got} entries, but the protocol has {n} nodes")
}

/// Read-only exploration parameters, shared by every worker.
struct Config<'p, L: Label> {
    /// The query: protocol, inputs, `r`, mode, alphabet and table.
    inst: Instance<'p, L>,
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
    /// Bit `i` set iff node `i` is Byzantine.
    byzantine: u32,
    /// The whole-word masks [`step_row`] builds successors from.
    masks: RowMasks,
    /// Every correct node's table entries as packed masks.
    reactions: PackedReactions,
    /// Whether every successor is a seed: an `r = 1` label-mode state is
    /// its labeling alone (countdown fields are zero bits wide and
    /// outputs are not tracked), and every labeling is seeded.
    /// Exploration then finds nothing past the seeds, so
    /// [`Explorer::run`] counts their edges instead of expanding them.
    /// Packing the table has already checked every correct node's entry
    /// against the alphabet, the one check expansion would make.
    successors_are_seeds: bool,
}

impl<L: Label> Config<'_, L> {
    /// The deadline-forced nodes of a packed state, as a bitmask: a
    /// countdown field packs `cd − 1`, so zero means `cd = 1` and the node
    /// must be in every activation set.
    fn forced(&self, row: &[u64]) -> u32 {
        let base = self.e * self.label_width as usize;
        let cw = self.countdown_width;
        (0..self.n)
            .filter(|&i| unpack(row, base + i * cw as usize, cw) == 0)
            .fold(0, |m, i| m | 1 << i)
    }

    /// Number of *free* (not deadline-forced) nodes of a packed state.
    /// Sizes the state's fan-out as `2^free` activation sets.
    fn free_count(&self, row: &[u64]) -> u8 {
        (self.n as u32 - self.forced(row).count_ones()) as u8
    }

    /// Decodes the labeling of a packed row into `out`.
    fn decode_labeling(&self, row: &[u64], out: &mut Vec<L>) {
        let lw = self.label_width;
        out.clear();
        out.extend(
            (0..self.e)
                .map(|k| self.inst.alphabet[unpack(row, k * lw as usize, lw) as usize].clone()),
        );
    }
}

/// Whole-word masks over a packed row, each `words_per_state` words long,
/// from which [`step_row`] builds every successor row without unpacking
/// its fields.
struct RowMasks {
    /// Node-major, one row per node: the bits node `i`'s activation
    /// overwrites — its countdown field, plus its out-edge label fields
    /// unless it is a crash node (a crashed activation writes no label).
    over: Vec<u64>,
    /// A packed 1 in every countdown field. `ticks & !F` is what one step
    /// subtracts from the nodes outside an activation set's mask `F`.
    ticks: Vec<u64>,
    /// The label fields of correct-sourced edges: a label-mode edge is
    /// interesting iff one of these bits changes. Byzantine-sourced
    /// labels flip at the adversary's whim and crash-sourced ones never
    /// change, so neither counts.
    watch: Vec<u64>,
    /// `r − 1` in every countdown field and zero elsewhere — where each
    /// state's reacted row starts.
    reset: Vec<u64>,
}

impl RowMasks {
    fn new(graph: &DiGraph, faults: FaultModel, layout: &PackedLayout, r: u8) -> Self {
        let w = layout.words;
        let (lw, cw) = (layout.label_width, layout.countdown_width);
        let ones = |width: u32| u64::MAX.checked_shr(64 - width).unwrap_or(0);
        let cd_at = |i: usize| layout.edges * lw as usize + i * cw as usize;
        let mut m = RowMasks {
            over: vec![0; layout.nodes * w],
            ticks: vec![0; w],
            watch: vec![0; w],
            reset: vec![0; w],
        };
        for i in 0..layout.nodes {
            let over = &mut m.over[i * w..(i + 1) * w];
            pack(over, cd_at(i), cw, ones(cw));
            if !faults.is_crash(i) {
                for &eid in graph.out_edges(i) {
                    pack(over, eid * lw as usize, lw, ones(lw));
                }
            }
            pack(&mut m.ticks, cd_at(i), cw, 1);
            pack(&mut m.reset, cd_at(i), cw, u64::from(r - 1));
        }
        for (eid, src, _) in graph.edges() {
            if !faults.is_faulty(src) {
                pack(&mut m.watch, eid * lw as usize, lw, ones(lw));
            }
        }
        m
    }
}

/// One activation set's successor row, built from its source row with
/// whole-word operations: `((src & !F) | (reacted & F)) − (ticks & !F)`
/// over the row's words with a borrow chain, where `F` is the union of
/// the `over` masks of the nodes in `mask`. Activated nodes take their
/// reacted labels and countdown `r` (a Byzantine node's label fields
/// come out zero, ready for the adversary's digits); the rest keep their
/// labels and count down by one. `mask` must contain every forced node,
/// so each idle node's packed countdown is at least 1 and the
/// subtraction borrows across a word only inside a field that straddles
/// the boundary. Returns whether a watched (correct-sourced) label bit
/// changed.
fn step_row(masks: &RowMasks, src: &[u64], reacted: &[u64], mask: u32, out: &mut [u64]) -> bool {
    let w = out.len();
    let mut borrow = false;
    let mut changed = 0u64;
    for k in 0..w {
        let mut f = 0u64;
        let mut nodes = mask;
        while nodes != 0 {
            f |= masks.over[nodes.trailing_zeros() as usize * w + k];
            nodes &= nodes - 1;
        }
        let kept = (src[k] & !f) | (reacted[k] & f);
        let (d, b1) = kept.overflowing_sub(masks.ticks[k] & !f);
        let (d, b2) = d.overflowing_sub(u64::from(borrow));
        out[k] = d;
        borrow = b1 | b2;
        changed |= (d ^ src[k]) & masks.watch[k];
    }
    changed != 0
}

// The state fingerprint is `stateless_core::intern::state_fingerprint`
// (imported as `fingerprint`): interning, the successor lookup, the
// checkpoint restore path, and every thread count agree on the one
// function.

/// The record stream of one chunk (or one seed batch): one record per
/// generated edge (or seeded labeling), in stream order — source state
/// order, then canonical edge order. Flat SoA storage: `words`/`aux`
/// are strided by the packed row lengths. A chunk generates exactly one
/// record per transition, so its length is also its edge count.
#[derive(Default)]
struct Records {
    fps: Vec<u64>,
    words: Vec<u64>,
    aux: Vec<u64>,
}

impl Records {
    /// A record buffer pre-sized for `records` records of `w` packed
    /// words and `aux_len` auxiliary words.
    fn with_capacity(records: usize, w: usize, aux_len: usize) -> Self {
        Records {
            fps: Vec::with_capacity(records),
            words: Vec::with_capacity(records * w),
            aux: Vec::with_capacity(records * aux_len),
        }
    }

    fn len(&self) -> usize {
        self.fps.len()
    }

    fn push(&mut self, words: &[u64], aux: &[u64]) {
        self.fps.push(fingerprint(words, aux));
        self.words.extend_from_slice(words);
        self.aux.extend_from_slice(aux);
    }
}

/// Whether `(row, aux)`, whose fingerprint the index matched to dense id
/// `id`, is exactly the state stored under `id`. A one-word row without
/// aux words has an injective fingerprint ([`fingerprint_is_exact`]), so
/// the match settles it and no arena is read (debug builds still
/// compare). Otherwise the row is compared, and the aux arena too when
/// `aux` is non-empty: in label mode it holds no rows.
#[inline]
fn is_state(
    rows: &ChunkedArena<u64>,
    auxes: &ChunkedArena<u64>,
    id: u64,
    row: &[u64],
    aux: &[u64],
) -> bool {
    if fingerprint_is_exact(row.len(), aux.len()) {
        debug_assert_eq!(
            rows.row(id as usize),
            row,
            "one-word fingerprints are exact"
        );
        return true;
    }
    rows.row(id as usize) == row && (aux.is_empty() || auxes.row(id as usize) == aux)
}

/// Reusable per-worker decode/pack buffers for successor enumeration —
/// everything [`Explorer::for_each_successor`] needs beyond the explorer
/// itself. One per worker, warm across states: regenerating an edge
/// allocates nothing.
struct ExpandScratch {
    /// The source row, and the row every activated node would write: each
    /// correct node's reaction as alphabet indices on its out-edges,
    /// `r − 1` in every countdown field, zeros in Byzantine label fields.
    /// Filled once per state.
    src: Vec<u64>,
    reacted: Vec<u64>,
    /// Per node, the output its reaction returns from the current state
    /// (a faulty node's slot stays 0). Filled once per state.
    react_out: Vec<u64>,
    out_words: Vec<u64>,
    next_out_words: Vec<u64>,
    /// One activation set's successor row before the adversary's digits,
    /// and the emitted row.
    next: Vec<u64>,
    state: Vec<u64>,
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

impl ExpandScratch {
    fn new<L: Label>(cfg: &Config<'_, L>) -> Self {
        ExpandScratch {
            src: vec![0u64; cfg.words_per_state],
            reacted: vec![0u64; cfg.words_per_state],
            react_out: vec![0u64; cfg.n],
            out_words: vec![0u64; cfg.aux_len],
            next_out_words: vec![0u64; cfg.aux_len],
            next: vec![0u64; cfg.words_per_state],
            state: vec![0u64; cfg.words_per_state],
            free_nodes: Vec::with_capacity(cfg.n),
            byz_edges: Vec::with_capacity(cfg.e),
            canon_aux: vec![0u64; cfg.aux_len],
            canon: CanonScratch::default(),
        }
    }
}

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

/// Runs `f`, the tabulation of the reactions, and retries it once if it
/// panics, as a panicked chunk is retried. A second panic is
/// [`VerifyError::PoisonedChunk`] without a checkpoint, so a reaction
/// panic never unwinds out of the packed verifier or the verdict cache.
fn retry_once<T>(what: &str, mut f: impl FnMut() -> T) -> Result<T, VerifyError> {
    let first = match catch_unwind(AssertUnwindSafe(&mut f)) {
        Ok(t) => return Ok(t),
        Err(payload) => panic_message(payload),
    };
    catch_unwind(AssertUnwindSafe(f)).map_err(|second| VerifyError::PoisonedChunk {
        what: format!("{what}: {first}; retry: {}", panic_message(second)),
        checkpoint: None,
    })
}

/// Runs `count` independent jobs on up to `threads` workers (claimed via
/// an atomic cursor, like the sweep drivers in `stateless-core`) and
/// returns the results **in job order** — callers depend on index order,
/// never completion order, which is what keeps the pipeline
/// deterministic. `threads = 1` runs inline on the caller thread.
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
/// Epoch payload format version: 2 stores the rows in dense order (an
/// epoch of version 1, which stored them per fingerprint shard, is
/// rejected as corrupt).
const CKPT_VERSION: u64 = 2;
/// Header segment: magic, version, instance fingerprint, totals,
/// cursor, and the packed layout.
const SEG_HEADER: u32 = 1;
/// One arena block of packed state rows (whole rows, dense order) —
/// streamed out of [`ChunkedArena::blocks`] as-is.
const SEG_ROWS: u32 = 3;
/// One arena block of auxiliary output rows (dense order).
const SEG_AUX: u32 = 4;

/// The periodic-checkpoint state of one [`Explorer::run`]: the open
/// store, the next epoch number (continuing past any epochs already in
/// the directory), and the interval accounting.
struct CheckpointRun {
    store: CheckpointStore,
    every_states: Option<usize>,
    retain: usize,
    instance_fp: u64,
    next_epoch: u64,
    /// `n_states + cursor` at the last write. Progress is interned
    /// states *plus* expanded states: label-mode `r = 1` instances seed
    /// their entire state space up front, so counting interned states
    /// alone would never trigger a write on exactly the long
    /// expansion-bound runs checkpointing exists for.
    progress_at_last: usize,
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
            retain: policy.retain,
            instance_fp: ex.cfg.inst.key(limits),
            next_epoch,
            progress_at_last: ex.n_states + cursor,
        }))
    }

    /// Writes an epoch if the periodic interval has elapsed.
    fn maybe_write<L: Label>(
        &mut self,
        ex: &Explorer<'_, L>,
        cursor: usize,
    ) -> Result<(), VerifyError> {
        let due = self
            .every_states
            .is_some_and(|k| ex.n_states + cursor - self.progress_at_last >= k);
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
        Ok(handle)
    }
}

struct Explorer<'p, L: Label> {
    cfg: Config<'p, L>,
    /// Fingerprint → dense id of every interned state.
    index: FingerprintIndex,
    /// Dense id → packed row.
    rows: ChunkedArena<u64>,
    /// Dense id → auxiliary output row; empty unless outputs are tracked.
    aux: ChunkedArena<u64>,
    /// Dense id → free-node count (sizes batches and chunks).
    free_bits: Vec<u8>,
    /// States numbered so far: the length of `rows`, `free_bits` and (when
    /// outputs are tracked) `aux`, except while a resume is still
    /// re-interning the rows it has read.
    n_states: usize,
    /// Transitions generated during exploration (each exactly once) —
    /// the running total [`Limits::max_edges`] budgets. No per-edge
    /// storage backs it.
    n_edges: usize,
    /// Peak transient edge bytes (see [`ExploreStats::edge_bytes`]):
    /// max over seed and expansion batches of the record-buffer payload.
    peak_edge_bytes: usize,
}

impl<'p, L: Label> Explorer<'p, L> {
    /// Full exploration: [`Explorer::prepare`], seed, then
    /// [`Explorer::run`] from cursor 0. The deadline is measured from
    /// `started`, which callers take before [`Instance::new`], so the
    /// tabulation and the seed phase count against it.
    fn explore(
        inst: Instance<'p, L>,
        limits: &Limits,
        started: Instant,
    ) -> Result<Explored<'p, L>, VerifyError> {
        let mut ex = Explorer::prepare(inst, limits)?;
        ex.seed(limits)?;
        ex.run(0, limits, started)
    }

    /// Constructs an empty explorer for a validated instance — shared by
    /// [`Explorer::explore`] and the checkpoint-resume path, so both agree
    /// on every derived quantity (packed layout, symmetry group, packed
    /// reactions, fan-out bounds). Calls no reaction: the symmetry group
    /// and the packed reactions both come from the instance's table.
    ///
    /// # Errors
    ///
    /// [`VerifyError::BadParameters`] when a correct node's table entry
    /// holds a label outside the alphabet.
    fn prepare(inst: Instance<'p, L>, limits: &Limits) -> Result<Self, VerifyError> {
        let (n, e) = (inst.protocol.node_count(), inst.protocol.edge_count());
        let graph = inst.protocol.graph();
        let label_index: HashMap<L, u32, FxBuildHasher> = inst
            .alphabet
            .iter()
            .enumerate()
            .map(|(i, l)| (l.clone(), i as u32))
            .collect();
        let faults = limits.faults;
        let byzantine = faults
            .byzantine_nodes()
            .filter(|&i| i < n)
            .fold(0u32, |m, i| m | 1 << i);
        let label_width = bits_for(inst.alphabet.len());
        let countdown_width = bits_for(inst.r as usize);
        let state_bits = e * label_width as usize + n * countdown_width as usize;
        let words_per_state = state_bits.div_ceil(64).max(1);
        let aux_len = if inst.track_outputs { n } else { 0 };
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
        // The automorphism group (Auto only), validated against the table.
        // A trivial group degrades to exactly the Off code path. Fault
        // placement acts as a node coloring: only placement-preserving
        // elements survive (a Byzantine node may only map to a Byzantine
        // node), which is what keeps orbit-canonical interning sound under
        // adversary branching.
        let symmetry = match limits.symmetry {
            SymmetryMode::Auto => {
                let derived = Symmetry::from_table(graph, &inst.inputs, &inst.table);
                let colors: Vec<u64> = (0..n)
                    .map(|i| u64::from(faults.is_byzantine(i)) + 2 * u64::from(faults.is_crash(i)))
                    .collect();
                Some(derived.restrict_to_coloring(&colors)).filter(|s| !s.is_trivial())
            }
            SymmetryMode::Off => None,
        };
        let masks = RowMasks::new(graph, faults, &layout, inst.r);
        let reactions = PackedReactions::new(&inst.table, graph, &label_index, faults, &layout)?;
        let successors_are_seeds = inst.r == 1 && !inst.track_outputs;
        let ex = Explorer {
            cfg: Config {
                inst,
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
                byzantine,
                masks,
                reactions,
                successors_are_seeds,
            },
            index: FingerprintIndex::new(),
            rows: ChunkedArena::new(words_per_state),
            aux: ChunkedArena::new(aux_len),
            free_bits: Vec::new(),
            n_states: 0,
            n_edges: 0,
            peak_edge_bytes: 0,
        };
        Ok(ex)
    }

    /// Drives the batch loop from `cursor` to completion — or to the
    /// [`Limits::deadline`], whichever comes first — writing checkpoint
    /// epochs per the [`Limits::checkpoint`] policy at batch boundaries.
    /// Both the fresh exploration and the resume path run through this
    /// one loop, so their behavior can never drift apart. The deadline
    /// is measured from `started`. When every successor is a seed
    /// ([`Config::successors_are_seeds`]) the loop makes one pass that
    /// counts the remaining states' edges ([`Explorer::charge_seed_edges`])
    /// instead of expanding them, with the same deadline check before it
    /// and the same edge budget and checkpoint write after it.
    fn run(
        mut self,
        mut cursor: usize,
        limits: &Limits,
        started: Instant,
    ) -> Result<Explored<'p, L>, VerifyError> {
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
            let batch = if self.cfg.successors_are_seeds {
                self.charge_seed_edges(cursor, limits)
            } else {
                self.expand_batch(cursor, limits)
            };
            cursor = match batch {
                Ok(end) => end,
                Err(VerifyError::PoisonedChunk { what, .. }) => {
                    // Checkpoint-and-fail: the batch that poisoned
                    // interned nothing (expansion finishes before
                    // interning starts), so the state at `cursor` is a
                    // clean boundary — persist it before surfacing the
                    // panic.
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
    /// fingerprint + totals), then the packed row arena blocks **as-is**
    /// in dense order ([`ChunkedArena::blocks`] — the chunked arenas
    /// never realloc-copy, so this is a straight stream), then the
    /// auxiliary blocks. Everything else the explorer holds (the
    /// fingerprint index, `free_bits`) is derived and gets rebuilt on
    /// load.
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
        writer.put_u64(self.peak_edge_bytes as u64);
        writer.put_u64(self.cfg.words_per_state as u64);
        writer.put_u64(self.cfg.aux_len as u64);
        writer.end_segment()?;
        for (tag, arena) in [(SEG_ROWS, &self.rows), (SEG_AUX, &self.aux)] {
            for block in arena.blocks() {
                writer.begin_segment(tag);
                writer.put_u64s(block);
                writer.end_segment()?;
            }
        }
        Ok(())
    }

    /// Loads a checkpoint epoch into a freshly [`prepare`](Explorer::prepare)d
    /// explorer and returns it with the stored batch cursor. The rows are
    /// read one segment at a time, and each state is **re-interned** as
    /// soon as its last part is read (its row in label mode, its aux row
    /// in output mode), through the same fingerprint index exploration
    /// probes. It must come back fresh with the next dense id, so the
    /// rebuilt index (probe order, collision side list) is the one an
    /// uninterrupted run would hold — which is what makes the continued
    /// exploration bit-identical.
    ///
    /// `epoch` selects an explicit epoch; `None` means the newest one
    /// that passes validation (a torn or corrupted newest epoch falls
    /// back to its predecessor).
    fn resume(
        inst: Instance<'p, L>,
        limits: &Limits,
        dir: &Path,
        epoch: Option<u64>,
    ) -> Result<(Self, usize), VerifyError> {
        let corrupt = |what: String| VerifyError::Resume(ResumeError::Corrupt { what });
        let mut ex = Explorer::prepare(inst, limits)?;
        let expected = ex.cfg.inst.key(limits);
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
        // Every state stores its row words and its aux words in the rest
        // of the file, so a count the file cannot hold is rejected before
        // anything is sized from it.
        let state_bytes = 8 * (words + aux_len) as u64;
        if (n_states as u64)
            .checked_mul(state_bytes)
            .is_none_or(|bytes| bytes > reader.remaining())
        {
            return Err(corrupt(format!(
                "header claims {n_states} states, but only {} bytes follow",
                reader.remaining()
            )));
        }
        let mut segment: Vec<u64> = Vec::new();
        for (tag, width) in [(SEG_ROWS, words), (SEG_AUX, aux_len)] {
            let mut read = 0;
            while width > 0 && read < n_states {
                let mut seg = reader
                    .next_segment()
                    .map_err(ResumeError::from)?
                    .ok_or_else(|| {
                        corrupt(format!("epoch ends after {read} of {n_states} rows"))
                    })?;
                if seg.tag != tag {
                    return Err(corrupt(format!("expected tag {tag}, got {}", seg.tag)));
                }
                // Bounded by the states still unread, so `len` times the
                // row width cannot overflow.
                let len = seg.remaining() / (8 * width);
                if len > n_states - read {
                    return Err(corrupt(format!(
                        "segment of {len} rows, but only {} of {n_states} states remain",
                        n_states - read
                    )));
                }
                segment.clear();
                seg.take_u64s(len * width, &mut segment)
                    .map_err(ResumeError::from)?;
                if seg.remaining() != 0 {
                    return Err(corrupt(format!("segment tag {tag} ends mid-row")));
                }
                for row in segment.chunks_exact(width) {
                    if tag == SEG_ROWS {
                        ex.rows.push_row(row);
                        ex.free_bits.push(ex.cfg.free_count(row));
                    } else {
                        ex.aux.push_row(row);
                    }
                }
                read += len;
                let complete = if aux_len == 0 {
                    ex.rows.len()
                } else {
                    ex.aux.len()
                };
                while ex.n_states < complete {
                    let k = ex.n_states;
                    let row = ex.rows.row(k);
                    let aux = if aux_len == 0 { &[] } else { ex.aux.row(k) };
                    let (rows, auxes) = (&ex.rows, &ex.aux);
                    let hit = ex.index.probe(fingerprint(row, aux), k as u64, |id| {
                        is_state(rows, auxes, id, row, aux)
                    });
                    if hit.is_some() {
                        return Err(corrupt(format!("duplicate state at dense id {k}")));
                    }
                    ex.n_states += 1;
                }
            }
        }
        if reader.next_segment().map_err(ResumeError::from)?.is_some() {
            return Err(corrupt("trailing segments after the last row".into()));
        }
        ex.n_edges = n_edges;
        ex.peak_edge_bytes = peak_edge_bytes;
        Ok((ex, cursor))
    }

    /// Logical payload bytes of one successor record: fingerprint +
    /// packed words + auxiliary words.
    fn record_bytes(&self) -> usize {
        8 + 8 * (self.cfg.words_per_state + self.cfg.aux_len)
    }

    /// Folds a transient figure into the deterministic peak.
    fn note_transient_bytes(&mut self, bytes: usize) {
        self.peak_edge_bytes = self.peak_edge_bytes.max(bytes);
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
        let (n, e, r) = (self.cfg.n, self.cfg.e, self.cfg.inst.r);
        let digit_alphabet: Vec<u32> = (0..self.cfg.inst.alphabet.len() as u32).collect();
        let mut labelings = all_labelings(&digit_alphabet, e);
        let mut state_buf = vec![0u64; w];
        let mut aux_zero = vec![0u64; self.cfg.aux_len];
        let mut canon = CanonScratch::default();
        loop {
            let mut recs = Records::default();
            while recs.len() < SEED_BATCH_STATES {
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
                recs.push(&state_buf, &aux_zero);
            }
            if recs.len() == 0 {
                break;
            }
            self.note_transient_bytes(recs.len() * self.record_bytes());
            self.intern(&recs, limits)?;
            if recs.len() < SEED_BATCH_STATES {
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
            .saturating_mul(self.cfg.inst.byz_branch_bound)
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
    /// the two-phase pipeline (see the module docs) and returns the
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
        // Small batches expand inline — OS thread spawns (no persistent
        // pool in the vendored rayon) only amortize over enough work, and
        // the results are identical either way.
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
        let mut chunks: Vec<Records> = Vec::with_capacity(ranges.len());
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
            chunks.push(outcome);
        }
        // Phase 2: intern the records in stream order, then charge the
        // batch against the traversal budget and the peak transient
        // figure. The record buffers die here — nothing per-edge
        // survives the batch.
        for recs in &chunks {
            self.intern(recs, limits)?;
        }
        let emitted: usize = chunks.iter().map(Records::len).sum();
        self.note_transient_bytes(emitted * self.record_bytes());
        self.charge_edges(emitted, limits)?;
        Ok(end)
    }

    /// Charges `emitted` generated transitions against the
    /// [`Limits::max_edges`] traversal budget.
    fn charge_edges(&mut self, emitted: usize, limits: &Limits) -> Result<(), VerifyError> {
        self.n_edges += emitted;
        if self.n_edges > limits.max_edges {
            return Err(VerifyError::TooManyEdges {
                limit: limits.max_edges,
            });
        }
        Ok(())
    }

    /// The batch loop's one pass when every successor is a seed
    /// ([`Config::successors_are_seeds`]): expanding states
    /// `cursor..n_states` would intern nothing and emit exactly
    /// [`Explorer::est_edges`] edges per state (every node is forced, so
    /// the lone activation set branches over every adversary choice), so
    /// only that count is charged. No records are built, so the
    /// transient peak stays the seed phase's. Returns the cursor past
    /// every state.
    fn charge_seed_edges(&mut self, cursor: usize, limits: &Limits) -> Result<usize, VerifyError> {
        let emitted: u64 = self.free_bits[cursor..]
            .iter()
            .map(|&f| self.est_edges(f))
            .sum();
        self.charge_edges(emitted as usize, limits)?;
        Ok(self.n_states)
    }

    /// Phase 1: expands source states `start..end`, emitting one
    /// successor record per generated edge. Reads rows by dense id and
    /// allocates nothing per edge.
    fn expand_chunk(&self, start: usize, end: usize) -> Records {
        let cfg = &self.cfg;
        let est: u64 = self.free_bits[start..end]
            .iter()
            .map(|&f| self.est_edges(f))
            .sum();
        // The estimate is exact without faults and an upper bound with
        // them, so the reservation is capped.
        let mut recs = Records::with_capacity(
            est.min(2 * CHUNK_EDGE_BUDGET) as usize,
            cfg.words_per_state,
            cfg.aux_len,
        );
        let mut scratch = ExpandScratch::new(cfg);
        for u in start..end {
            self.for_each_successor(u, &mut scratch, |words, aux, _, _, _, _| {
                recs.push(words, aux)
            });
        }
        recs
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
    /// source state's frame.
    ///
    /// Each correct node reacts once per state, before the activation
    /// sets are enumerated, into one reacted row beside the source row,
    /// by a [`ReactionTable`] lookup. Faulty nodes never react. Each
    /// activation set then takes its successor row from those two rows
    /// with a few whole-word operations ([`step_row`]), and each
    /// adversary choice packs its digits into the zeroed Byzantine
    /// fields. Allocation-free per edge given a warm `scratch`.
    fn for_each_successor<F>(&self, u: usize, scratch: &mut ExpandScratch, mut emit: F)
    where
        F: FnMut(&[u64], &[u64], u32, bool, u32, u64),
    {
        let cfg = &self.cfg;
        let lw = cfg.label_width as usize;
        let sc = scratch;
        sc.src.copy_from_slice(self.rows.row(u));
        if cfg.inst.track_outputs {
            sc.out_words.copy_from_slice(self.aux.row(u));
        }
        let graph = cfg.inst.protocol.graph();
        // Every activation set reads the same pre-step labeling, and the
        // full set activates every node, so reacting here once per
        // correct node gives what the subset loop would. A faulty node
        // never reacts: its tracked output stays frozen at the seeds' 0,
        // and so does its `react_out` slot.
        sc.reacted.copy_from_slice(&cfg.masks.reset);
        cfg.reactions
            .react(&sc.src, &mut sc.reacted, &mut sc.react_out);
        let forced = cfg.forced(&sc.src);
        sc.free_nodes.clear();
        sc.free_nodes
            .extend((0..cfg.n).filter(|&i| forced >> i & 1 == 0));
        let q = cfg.inst.alphabet.len() as u64;
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
            let labels_changed = step_row(&cfg.masks, &sc.src, &sc.reacted, mask, &mut sc.next);
            let interesting = if cfg.inst.track_outputs {
                sc.next_out_words.copy_from_slice(&sc.out_words);
                let mut nodes = mask;
                while nodes != 0 {
                    let i = nodes.trailing_zeros() as usize;
                    sc.next_out_words[i] = sc.react_out[i];
                    nodes &= nodes - 1;
                }
                // Faulty output slots are 0 on both sides, so the
                // full-row comparison only ever sees correct nodes.
                sc.next_out_words != sc.out_words
            } else {
                labels_changed
            };
            sc.byz_edges.clear();
            let mut byz = mask & cfg.byzantine;
            while byz != 0 {
                sc.byz_edges
                    .extend_from_slice(graph.out_edges(byz.trailing_zeros() as usize));
                byz &= byz - 1;
            }
            // One branch per adversary choice: a base-|Σ| code whose
            // digits (LSD first) are the labels the activated Byzantine
            // nodes write, in `byz_edges` order. Fault-free runs take
            // exactly one iteration with choice 0 and no digit writes.
            let n_choices = q.pow(sc.byz_edges.len() as u32);
            for choice in 0..n_choices {
                sc.state.copy_from_slice(&sc.next);
                let mut digits = choice;
                for &eid in &sc.byz_edges {
                    pack(&mut sc.state, eid * lw, lw as u32, digits % q);
                    digits /= q;
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
    }

    /// Regenerates and resolves the outgoing edges of dense state `u`
    /// ([`Explorer::resolve`]). `out` is overwritten with `(dense target,
    /// activation mask, canonicalizing element, adversary choice)` in the
    /// canonical edge order.
    fn successors_resolved(
        &self,
        u: usize,
        scratch: &mut ExpandScratch,
        out: &mut Vec<(u32, u32, u32, u64)>,
    ) {
        out.clear();
        self.for_each_successor(u, scratch, |words, aux, mask, _, elem, choice| {
            out.push((self.resolve(words, aux), mask, elem, choice));
        });
    }

    /// The dense id of a regenerated successor row, by a read-only
    /// fingerprint lookup — exploration interned every successor. The
    /// hit is exact for a one-word row without aux words and confirmed
    /// against the rows otherwise (`is_state`).
    fn resolve(&self, words: &[u64], aux: &[u64]) -> u32 {
        self.index
            .find(fingerprint(words, aux), |id| {
                is_state(&self.rows, &self.aux, id, words, aux)
            })
            .expect("every successor was interned during exploration") as u32
    }

    /// Phase 2: replays `recs` in stream order against the fingerprint
    /// index. A hit is exact for a one-word row without aux words and
    /// confirmed by equality against the rows otherwise (`is_state`); a
    /// miss is numbered on the spot with the next dense id, after the
    /// [`Limits::max_states`] check. Replaying every batch's records in
    /// order numbers each state by the edge (or seed labeling) that
    /// first discovered it — the same order at every thread count.
    fn intern(&mut self, recs: &Records, limits: &Limits) -> Result<(), VerifyError> {
        let (w, al) = (self.cfg.words_per_state, self.cfg.aux_len);
        let cap = limits.state_budget();
        for (i, &fp) in recs.fps.iter().enumerate() {
            let row = &recs.words[i * w..(i + 1) * w];
            let aux = &recs.aux[i * al..(i + 1) * al];
            let (rows, auxes) = (&self.rows, &self.aux);
            let fresh = self
                .index
                .probe(fp, self.n_states as u64, |id| {
                    is_state(rows, auxes, id, row, aux)
                })
                .is_none();
            if fresh {
                if self.n_states >= cap {
                    return Err(VerifyError::TooManyStates {
                        limit: limits.max_states,
                    });
                }
                self.rows.push_row(row);
                if al > 0 {
                    self.aux.push_row(aux);
                }
                self.free_bits.push(self.cfg.free_count(row));
                self.n_states += 1;
            }
        }
        Ok(())
    }

    /// Condenses the explored product graph **without materializing
    /// it**. The [`scc::SuccessorOracle`] is a closure over the explorer
    /// and one expansion scratch: a query
    /// regenerates the state's edges ([`Explorer::for_each_successor`],
    /// which under quotient exploration canonicalizes every successor
    /// itself) and emits each as its dense target id, marked when the
    /// edge is interesting. So the canonical numbering comes back with
    /// the witness edge, and no full-graph edge array ever exists.
    fn sccs(&self) -> scc::Condensation {
        let mut scratch = ExpandScratch::new(&self.cfg);
        scc::condense(&mut scc::from_fn(self.n_states, |u, out| {
            out.clear();
            self.for_each_successor(
                u as usize,
                &mut scratch,
                |words, aux, _, interesting, _, _| {
                    out.push((self.resolve(words, aux), interesting));
                },
            );
        }))
    }

    /// Builds a witness cycle through the condensation's marked edge
    /// `u → v`: the least interesting edge, in canonical edge order
    /// (ascending source state, then activation-set order), whose
    /// endpoints share an SCC. Since they do, the closing path always
    /// exists, and a BFS from `v` back to `u` inside `u`'s component finds
    /// it. Like every other phase, the BFS regenerates the edges of each
    /// state it dequeues; it keeps only a map over the states it reaches,
    /// keyed by dense id, and stores no edges.
    ///
    /// Under quotient exploration the cycle found here lives in the
    /// **quotient** graph, so it is de-canonicalized before being
    /// returned (see the module docs' symmetry section): walking the
    /// quotient cycle with an accumulated group element `c` (masks map
    /// through `c`, then `c ← c ∘ h⁻¹` for the edge's canonicalizing
    /// element `h`) and unrolling laps until `c` is the identity again
    /// yields a concrete cycle of the unquotiented system, starting at
    /// the decoded (canonical) entry labeling.
    fn witness(&self, cond: &scc::Condensation) -> Option<CycleWitness<L>> {
        let (u, k) = cond.marked?;
        let mut scratch = ExpandScratch::new(&self.cfg);
        let mut edges: Vec<(u32, u32, u32, u64)> = Vec::new();
        self.successors_resolved(u as usize, &mut scratch, &mut edges);
        // Expanding `u` left its row in the scratch: the witness's entry
        // labeling.
        let mut labeling = Vec::new();
        self.cfg.decode_labeling(&scratch.src, &mut labeling);
        let (v, mask, elem, choice) = edges[k];
        // The quotient cycle u →(mask, elem, choice) v → … → u, in
        // forward order; a self-loop closes it at once.
        let mut quot = vec![(mask, elem, choice)];
        if v != u {
            let cid = cond.comp[u as usize];
            // Per reached state: its BFS parent and the (mask, elem,
            // choice) of the edge that reached it.
            let mut prev: HashMap<u32, (u32, u32, u32, u64), FxBuildHasher> = HashMap::default();
            let mut queue = VecDeque::from([v]);
            'bfs: while let Some(w) = queue.pop_front() {
                self.successors_resolved(w as usize, &mut scratch, &mut edges);
                for &(x, m, h, c) in &edges {
                    if x == v || cond.comp[x as usize] != cid {
                        continue;
                    }
                    if let Entry::Vacant(slot) = prev.entry(x) {
                        slot.insert((w, m, h, c));
                        if x == u {
                            break 'bfs;
                        }
                        queue.push_back(x);
                    }
                }
            }
            debug_assert!(
                prev.contains_key(&u),
                "u and v share an SCC, so v reaches u"
            );
            let mut path_rev = Vec::new();
            let mut at = u;
            while at != v {
                let &(p, m, h, c) = prev.get(&at)?;
                path_rev.push((m, h, c));
                at = p;
            }
            quot.extend(path_rev.into_iter().rev());
        }
        let n = self.cfg.n;
        let graph = self.cfg.inst.protocol.graph();
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
                        &self.cfg.inst.alphabet,
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
                            &self.cfg.inst.alphabet,
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
            labeling,
            schedule,
            adversary,
        })
    }

    fn stats(&self) -> ExploreStats {
        ExploreStats {
            states: self.n_states,
            edges: self.n_edges,
            words_per_state: self.cfg.words_per_state,
            state_bytes: self.n_states * (self.cfg.words_per_state + self.cfg.aux_len) * 8,
            edge_bytes: self.peak_edge_bytes,
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

/// Decides **label** r-stabilization of `protocol` under the given inputs,
/// exactly, by exploring the full product graph over `alphabet`-labelings.
///
/// `alphabet` must be closed under the reactions; a reaction emitting a
/// label outside it is reported as [`VerifyError::BadParameters`].
///
/// See the [module docs](self) for the memory model (packed states,
/// one dense numbering, regenerated edges, oracle SCC) and the
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
    let started = Instant::now();
    Instance::new(protocol, inputs, alphabet, r, false, &limits)?.verify(&limits, started)
}

/// Turns a batch-loop outcome into a verdict: condense + witness on a
/// complete exploration, [`Verdict::Partial`] on a deadline-truncated
/// one. Shared by every entry point (fresh and resumed, label and
/// output mode).
fn settle<L: Label>(explored: Explored<'_, L>) -> (Verdict<L>, ExploreStats) {
    match explored {
        Explored::Complete(ex) => {
            let cond = ex.sccs();
            let verdict = match ex.witness(&cond) {
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
    Instance::new(protocol, inputs, alphabet, r, false, &limits)?.resume(&limits, dir, epoch)
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
    Instance::new(protocol, inputs, alphabet, r, true, &limits)?.resume(&limits, dir, epoch)
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
    let started = Instant::now();
    let inst = Instance::new(protocol, inputs, alphabet, r, false, &limits)?;
    match Explorer::explore(inst, &limits, started)? {
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
        self.0.sccs().comp
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
    let started = Instant::now();
    Instance::new(protocol, inputs, alphabet, r, true, &limits)?.verify(&limits, started)
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
        if inputs.len() != n {
            return Err(VerifyError::BadParameters {
                what: wrong_inputs(inputs.len(), n),
            });
        }
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
        // The reaction emits `true`, which the declared alphabet lacks;
        // packing the reaction table rejects it.
        let p = Protocol::builder(topology::unidirectional_ring(3), 1.0)
            .uniform_reaction(FnReaction::new(|_, _: &[bool], _| (vec![true], 0)))
            .build()
            .unwrap();
        let err =
            verify_label_stabilization(&p, &[0; 3], &[false], 2, Limits::default()).unwrap_err();
        assert!(matches!(err, VerifyError::BadParameters { .. }), "{err:?}");
        // The same holds for a table of 16,399 entries (node 0 of
        // `1…14 → 0`, `0 → 1` has 2^14 in-labelings): node 0 emits 2 once
        // two of its in-labels are 1.
        let mut fan_in = DiGraph::new(15);
        for v in 1..15 {
            fan_in.add_edge(v, 0).unwrap();
        }
        fan_in.add_edge(0, 1).unwrap();
        let p = Protocol::builder(fan_in, 1.0)
            .uniform_reaction(FnReaction::new(|_, inc: &[u8], _| {
                (vec![inc.iter().sum::<u8>().min(2)], 0)
            }))
            .build()
            .unwrap();
        let err =
            verify_label_stabilization(&p, &[0; 15], &[0, 1], 1, Limits::default()).unwrap_err();
        assert!(matches!(err, VerifyError::BadParameters { .. }), "{err:?}");
        // A faulty node never reacts, so its reaction may leave the
        // alphabet: the table keeps node 0's `true` entries as labels and
        // packs the correct nodes only.
        let p = Protocol::builder(topology::unidirectional_ring(3), 1.0)
            .uniform_reaction(FnReaction::new(|node, inc: &[bool], _| {
                (vec![node == 0 || inc[0]], 0)
            }))
            .build()
            .unwrap();
        let limits = |faults| Limits {
            faults,
            symmetry: SymmetryMode::Auto,
            ..Limits::default()
        };
        let err = verify_label_stabilization(&p, &[0; 3], &[false], 2, limits(FaultModel::none()));
        assert!(
            matches!(err, Err(VerifyError::BadParameters { .. })),
            "{err:?}"
        );
        for faults in [FaultModel::byzantine(&[0]), FaultModel::crash(&[0])] {
            let got = verify_label_stabilization(&p, &[0; 3], &[false], 2, limits(faults.unwrap()));
            assert_eq!(got, Ok(Verdict::Stabilizing));
        }
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

    /// Field-by-field successor of `src` under activation set `mask`:
    /// activated correct nodes write `react`, activated Byzantine nodes
    /// write `digits` and crash nodes nothing; activated countdowns reset
    /// to `r` and the rest count down. Returns the packed row and whether
    /// a correct-sourced label changed.
    fn reference_step<L: Label>(
        cfg: &Config<'_, L>,
        src: &[u64],
        react: &[u64],
        digits: &[u64],
        mask: u32,
    ) -> (Vec<u64>, bool) {
        let (lw, cw) = (cfg.label_width, cfg.countdown_width);
        let cd_at = |i: usize| cfg.e * lw as usize + i * cw as usize;
        let graph = cfg.inst.protocol.graph();
        let before: Vec<u64> = (0..cfg.e)
            .map(|k| unpack(src, k * lw as usize, lw))
            .collect();
        let mut labels = before.clone();
        let mut row = vec![0u64; cfg.words_per_state];
        for i in 0..cfg.n {
            let cd = unpack(src, cd_at(i), cw) + 1;
            if mask >> i & 1 == 1 {
                pack(&mut row, cd_at(i), cw, u64::from(cfg.inst.r) - 1);
                if !cfg.faults.is_crash(i) {
                    for &eid in graph.out_edges(i) {
                        let byz = cfg.faults.is_byzantine(i);
                        labels[eid] = if byz { digits[eid] } else { react[eid] };
                    }
                }
            } else {
                pack(&mut row, cd_at(i), cw, cd - 2);
            }
        }
        for (k, &l) in labels.iter().enumerate() {
            pack(&mut row, k * lw as usize, lw, l);
        }
        let changed = graph
            .edges()
            .any(|(k, from, _)| !cfg.faults.is_faulty(from) && labels[k] != before[k]);
        (row, changed)
    }

    #[test]
    fn word_parallel_rows_match_a_per_field_reference() {
        // (graph, |Σ|, r, words): 75 bits with a countdown field across
        // bit 64; 115 bits with a label field across it; 150 bits with a
        // label field across bit 64 and a countdown field across 128;
        // 210 bits with a countdown field across 192. Each instance is
        // tabulated, so the third is a ring (16,000 entries), not a
        // clique (12.8 million).
        let cases = [
            (topology::clique(5), 8u64, 5u8, 2usize),
            (topology::clique(5), 20, 5, 2),
            (topology::bidirectional_ring(10), 40, 5, 3),
            (topology::bidirectional_ring(10), 200, 20, 4),
        ];
        let placements: [(&[NodeId], &[NodeId]); 4] =
            [(&[], &[]), (&[], &[1]), (&[2], &[]), (&[0], &[3])];
        let mut seed = 0x5EED_0123_u64;
        let mut draw = |below: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % below
        };
        for (graph, q, r, words) in cases {
            let (n, e) = (graph.node_count(), graph.edge_count());
            let alphabet: Vec<u8> = (0..q as u8).collect();
            let p = Protocol::builder(graph, 1.0)
                .uniform_reaction(FnReaction::new(|_, inc: &[u8], _| (inc.to_vec(), 0)))
                .build()
                .unwrap();
            for (byz, crash) in placements {
                let limits = Limits {
                    faults: FaultModel::new(byz, crash).unwrap(),
                    ..Limits::default()
                };
                let inst = Instance::new(&p, &vec![0; n], &alphabet, r, false, &limits).unwrap();
                let ex = Explorer::prepare(inst, &limits).unwrap();
                let cfg = &ex.cfg;
                assert_eq!(cfg.words_per_state, words);
                let (lw, cw) = (cfg.label_width as usize, cfg.countdown_width);
                for _ in 0..24 {
                    let mut src = vec![0u64; words];
                    for k in 0..e {
                        pack(&mut src, k * lw, lw as u32, draw(q));
                    }
                    for i in 0..n {
                        pack(&mut src, e * lw + i * cw as usize, cw, draw(u64::from(r)));
                    }
                    let react: Vec<u64> = (0..e).map(|_| draw(q)).collect();
                    let digits: Vec<u64> = (0..e).map(|_| draw(q)).collect();
                    let mut reacted = cfg.masks.reset.clone();
                    for (k, from, _) in p.graph().edges() {
                        if !cfg.faults.is_faulty(from) {
                            pack(&mut reacted, k * lw, lw as u32, react[k]);
                        }
                    }
                    let forced = cfg.forced(&src);
                    for mask in (1..1u32 << n).filter(|m| m & forced == forced) {
                        let mut row = vec![0u64; words];
                        let changed = step_row(&cfg.masks, &src, &reacted, mask, &mut row);
                        for i in (0..n).filter(|&i| mask >> i & 1 == 1 && byz.contains(&i)) {
                            for &eid in p.graph().out_edges(i) {
                                pack(&mut row, eid * lw, lw as u32, digits[eid]);
                            }
                        }
                        assert_eq!(
                            (row, changed),
                            reference_step(cfg, &src, &react, &digits, mask),
                            "{words} words, byzantine {byz:?}, crash {crash:?}, mask {mask:#b}"
                        );
                    }
                }
            }
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
