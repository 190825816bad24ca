//! # stabilization-verify
//!
//! **Exact** verification of label/output r-stabilization for stateless
//! protocols, by model-checking the very object Theorem 3.1's proof
//! manipulates: the product graph over `Σ^E × [r]^n`, whose vertices pair
//! a labeling with a per-node *countdown* (steps each node may remain
//! inactive) and whose edges are the legal activation sets (nonempty,
//! containing every node whose countdown hit 1).
//!
//! A protocol is label r-stabilizing **iff** no reachable strongly
//! connected component of this graph contains a labeling-changing edge:
//! every infinite r-fair run eventually lives inside one SCC, and label
//! convergence means the labeling component goes quiet. The checker
//! returns either [`Verdict::Stabilizing`] or a concrete
//! [`CycleWitness`] — an initial labeling plus a cyclic activation script
//! that oscillates forever (and is r-fair by construction).
//!
//! The state space is `|Σ|^{|E|} · r^n` — exponential, exactly as the
//! paper's PSPACE-completeness (Theorem 4.2) and communication bounds
//! (Theorem 4.1) say it must be. The explorer packs each state into a few
//! `u64` words (alphabet-index labels, narrow countdown fields), resolves
//! states through a **sharded** fingerprint index with exact confirmation
//! (`(shard, local)` ids packed into one `u64`), stores no transitions —
//! every phase that needs edges regenerates them from the packed states —
//! and condenses the graph with one serial Tarjan pass over a successor
//! oracle (`stateless_core::scc::condense`). Frontier expansion and the
//! witness edge scan are parallel over [`Limits::threads`] workers and
//! *deterministic*: verdicts, state numbering, and witnesses are
//! bit-identical at every thread count — see the [`product`] module docs
//! for the memory model and the determinism contract. Experiment E4 uses
//! it to confirm Example 1's tightness, and bench `verify` plus the
//! per-thread `verify_scaling` perf rows (including the isolated SCC
//! phase) chart the blowup and the scaling.
//!
//! [`Limits::faults`] extends every query with a **Byzantine adversary**:
//! faulty nodes' reactions are replaced by adversarially-chosen labels,
//! the product graph branches over every choice (both quantifiers stay
//! demonic, so the SCC machinery is unchanged), and a `NotStabilizing`
//! witness carries the adversary's concrete strategy
//! ([`CycleWitness::adversary`]) alongside the schedule. The [`sweep`]
//! module quantifies over fault *placements* too.
//!
//! Long explorations are **crash-safe**: a [`CheckpointPolicy`] on
//! [`Limits::checkpoint`] persists the sharded state index as
//! checksummed epoch files at batch boundaries, a [`Limits::deadline`]
//! degrades gracefully to [`Verdict::Partial`] with a resumable
//! [`CheckpointHandle`] instead of erroring, and
//! [`verify_label_stabilization_resumed`] /
//! [`verify_output_stabilization_resumed`] continue from the newest
//! valid epoch — after verifying the stored instance fingerprint
//! ([`checkpoint`] module docs) — to a verdict bit-identical to an
//! uninterrupted run at any thread count.
//!
//! Repeated queries go through the [`cache`] module's [`VerdictCache`]:
//! exact memoization keyed by the instance fingerprint (which excludes
//! thread counts and deadlines — they never change the verdict), with
//! LRU eviction under a byte budget, optional
//! checksummed on-disk persistence, and `Partial`-as-resume-pointer
//! semantics so a deadline-truncated run is *continued*, never served
//! as an answer. The cached sweep variants
//! ([`sweep_byzantine_placements_cached`] /
//! [`sweep_crash_placements_cached`]) route every placement through a
//! shared cache and report per-row hit/miss/resumed provenance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod checkpoint;
pub mod product;
pub mod stable;
pub mod sweep;

pub use cache::{CacheOutcome, CachedVerdict, Provenance, VerdictCache};
pub use checkpoint::{CheckpointHandle, CheckpointPolicy, ResumeError};
#[doc(hidden)]
pub use product::{
    explore_product, verify_label_stabilization_naive, verify_label_stabilization_resumed_at,
    verify_output_stabilization_naive, verify_output_stabilization_resumed_at, ExploredProduct,
    SccBackend,
};
pub use product::{
    verify_label_stabilization, verify_label_stabilization_resumed,
    verify_label_stabilization_with_stats, verify_output_stabilization,
    verify_output_stabilization_resumed, verify_output_stabilization_with_stats, CycleWitness,
    ExploreStats, Limits, Verdict, VerifyError, MAX_NODES,
};
pub use stable::enumerate_stable_labelings;
pub use stateless_core::fault::FaultModel;
pub use stateless_core::symmetry::SymmetryMode;
pub use sweep::{
    byzantine_placements, sweep_byzantine_placements, sweep_byzantine_placements_cached,
    sweep_crash_placements, sweep_crash_placements_cached, CachedPlacementVerdict,
    PlacementVerdict,
};
