//! Fault-placement sweeps: verify a protocol under **every** placement
//! of `f` Byzantine nodes and tabulate the verdicts.
//!
//! A single [`Limits::faults`] run answers "does the protocol stabilize
//! with *these* nodes faulty?"; robustness claims quantify over the
//! placement too. [`sweep_byzantine_placements`] enumerates all
//! `C(n − |exclude|, f)` placements in lexicographic order (skipping
//! `exclude`d nodes — e.g. a BFS root that must stay correct), runs the
//! exact verifier per placement on a
//! [`par_sweep`] worker pool,
//! and returns one [`PlacementVerdict`] row per placement, in placement
//! order. Every `NotStabilizing` row carries a concrete replayable
//! adversary strategy ([`CycleWitness::adversary`]).
//! [`sweep_crash_placements`] is the crash-fault twin: same enumeration,
//! same driver, with each placement's nodes crashed (frozen labels)
//! instead of adversarial.
//!
//! The `_cached` variants ([`sweep_byzantine_placements_cached`] /
//! [`sweep_crash_placements_cached`]) route every placement through a
//! shared [`VerdictCache`]: a placement whose instance fingerprint is
//! already memoized is served without re-exploring, and every
//! [`CachedPlacementVerdict`] row reports how it was answered
//! (hit / miss / resumed) plus the run's [`ExploreStats`] — the
//! workhorse of the `verifyd` batch service, where repeated job files
//! make warm sweeps almost entirely hits.

use crate::cache::{CacheOutcome, VerdictCache};
use crate::product::{
    verify_label_stabilization_with_stats, ExploreStats, Limits, Verdict, VerifyError,
};
use stateless_core::convergence::par_sweep;
use stateless_core::prelude::*;

#[allow(unused_imports)] // rustdoc link target
use crate::product::CycleWitness;

/// One row of a fault-placement sweep: which nodes were Byzantine, and
/// the exact verdict under that placement.
#[derive(Debug, Clone)]
pub struct PlacementVerdict<L: Label> {
    /// The Byzantine node ids, ascending.
    pub placement: Vec<NodeId>,
    /// The exact ∀-schedule ∀-strategy verdict for this placement.
    pub verdict: Verdict<L>,
}

/// One row of a cache-routed fault-placement sweep: the
/// [`PlacementVerdict`] fields plus the exploration stats and how the
/// [`VerdictCache`] answered this placement.
#[derive(Debug, Clone)]
pub struct CachedPlacementVerdict<L: Label> {
    /// The faulty node ids, ascending.
    pub placement: Vec<NodeId>,
    /// The exact ∀-schedule ∀-strategy verdict for this placement —
    /// bit-identical whether served from cache or computed.
    pub verdict: Verdict<L>,
    /// The exploration stats of the run that computed this verdict
    /// (a hit reports the original computing run's stats).
    pub stats: ExploreStats,
    /// Whether this row was a cache hit, a fresh computation, or a
    /// resumed `Partial`.
    pub cache: CacheOutcome,
}

/// All size-`f` subsets of `{0, …, n−1} \ exclude`, each ascending, in
/// lexicographic order — the placement enumeration behind
/// [`sweep_byzantine_placements`]. Empty when fewer than `f` nodes are
/// eligible; the single empty placement when `f == 0` (even with every
/// node excluded — the fault-free instance needs no eligible nodes).
///
/// `exclude` is normalized first: duplicate ids and ids outside
/// `0..n` are ignored, so the result is always exactly the
/// `C(n − |exclude ∩ {0, …, n−1}|, f)` set-difference subsets —
/// never a silently skewed enumeration from a sloppy exclusion list.
pub fn byzantine_placements(n: usize, f: usize, exclude: &[NodeId]) -> Vec<Vec<NodeId>> {
    let mut excluded: Vec<NodeId> = exclude.iter().copied().filter(|&i| i < n).collect();
    excluded.sort_unstable();
    excluded.dedup();
    let eligible: Vec<NodeId> = (0..n)
        .filter(|i| excluded.binary_search(i).is_err())
        .collect();
    let mut out = Vec::new();
    if f > eligible.len() {
        return out;
    }
    // Odometer over index combinations of `eligible`.
    let mut idx: Vec<usize> = (0..f).collect();
    loop {
        out.push(idx.iter().map(|&k| eligible[k]).collect());
        // Advance the rightmost index that still has room.
        let mut i = f;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] + (f - i) < eligible.len() {
                idx[i] += 1;
                for j in i + 1..f {
                    idx[j] = idx[j - 1] + 1;
                }
                break;
            }
        }
    }
}

/// Verifies **label** r-stabilization of `protocol` under every placement
/// of `f` Byzantine nodes outside `exclude`, in parallel over placements.
///
/// `limits.faults` is overridden per placement; every other limit (state
/// caps, thread count, symmetry mode) applies to each run
/// unchanged. Rows come back in the lexicographic placement order of
/// [`byzantine_placements`], so the table is deterministic.
///
/// # Errors
///
/// The first placement (in placement order) whose verification fails
/// surfaces its [`VerifyError`]; `f = 0` runs exactly one fault-free
/// verification.
pub fn sweep_byzantine_placements<L: Label>(
    protocol: &Protocol<L>,
    inputs: &[Input],
    alphabet: &[L],
    r: u8,
    limits: Limits,
    f: usize,
    exclude: &[NodeId],
) -> Result<Vec<PlacementVerdict<L>>, VerifyError> {
    sweep_placements(
        protocol,
        inputs,
        alphabet,
        r,
        limits,
        f,
        exclude,
        FaultModel::byzantine,
    )
}

/// Verifies **label** r-stabilization of `protocol` under every placement
/// of `f` **crash** nodes outside `exclude` — the crash twin of
/// [`sweep_byzantine_placements`], with the same placement enumeration,
/// the same parallel driver, and the same deterministic row order. A
/// crashed node's reaction is replaced by the single
/// keep-current-labels choice, so each placement's product graph is far
/// smaller than its Byzantine counterpart's.
///
/// # Errors
///
/// As for [`sweep_byzantine_placements`].
pub fn sweep_crash_placements<L: Label>(
    protocol: &Protocol<L>,
    inputs: &[Input],
    alphabet: &[L],
    r: u8,
    limits: Limits,
    f: usize,
    exclude: &[NodeId],
) -> Result<Vec<PlacementVerdict<L>>, VerifyError> {
    sweep_placements(
        protocol,
        inputs,
        alphabet,
        r,
        limits,
        f,
        exclude,
        FaultModel::crash,
    )
}

/// The Byzantine twin of [`sweep_crash_placements_cached`]: every
/// placement's query is routed through `cache`, so placements already
/// memoized (from an earlier sweep, a persisted cache directory, or a
/// single-instance query for the same fingerprint) are served without
/// re-exploring. Rows come back in placement order with per-row
/// hit / miss / resumed provenance; verdicts and witnesses are
/// bit-identical to the uncached [`sweep_byzantine_placements`].
///
/// # Errors
///
/// As for [`sweep_byzantine_placements`].
#[allow(clippy::too_many_arguments)] // the sweep surface plus the cache
pub fn sweep_byzantine_placements_cached<L: Label>(
    protocol: &Protocol<L>,
    inputs: &[Input],
    alphabet: &[L],
    r: u8,
    limits: Limits,
    f: usize,
    exclude: &[NodeId],
    cache: &VerdictCache,
) -> Result<Vec<CachedPlacementVerdict<L>>, VerifyError> {
    sweep_placements_cached(
        protocol,
        inputs,
        alphabet,
        r,
        limits,
        f,
        exclude,
        FaultModel::byzantine,
        Some(cache),
    )
}

/// The crash twin of [`sweep_byzantine_placements_cached`]: same cache
/// routing, same row provenance, with each placement's nodes crashed.
///
/// # Errors
///
/// As for [`sweep_byzantine_placements`].
#[allow(clippy::too_many_arguments)] // the sweep surface plus the cache
pub fn sweep_crash_placements_cached<L: Label>(
    protocol: &Protocol<L>,
    inputs: &[Input],
    alphabet: &[L],
    r: u8,
    limits: Limits,
    f: usize,
    exclude: &[NodeId],
    cache: &VerdictCache,
) -> Result<Vec<CachedPlacementVerdict<L>>, VerifyError> {
    sweep_placements_cached(
        protocol,
        inputs,
        alphabet,
        r,
        limits,
        f,
        exclude,
        FaultModel::crash,
        Some(cache),
    )
}

/// The uncached driver: the cache-routed driver with the rows projected
/// down to plain [`PlacementVerdict`]s (a `None` cache makes every row
/// a fresh computation, exactly the old behavior).
#[allow(clippy::too_many_arguments)] // private driver behind two thin public wrappers
fn sweep_placements<L: Label>(
    protocol: &Protocol<L>,
    inputs: &[Input],
    alphabet: &[L],
    r: u8,
    limits: Limits,
    f: usize,
    exclude: &[NodeId],
    model: fn(&[NodeId]) -> Result<FaultModel, CoreError>,
) -> Result<Vec<PlacementVerdict<L>>, VerifyError> {
    let rows = sweep_placements_cached(
        protocol, inputs, alphabet, r, limits, f, exclude, model, None,
    )?;
    Ok(rows
        .into_iter()
        .map(|row| PlacementVerdict {
            placement: row.placement,
            verdict: row.verdict,
        })
        .collect())
}

/// The shared sweep driver: enumerate placements, build each placement's
/// fault model with `model` ([`FaultModel::byzantine`] or
/// [`FaultModel::crash`]), and verify per placement on the
/// [`par_sweep`] pool — through `cache` when given (the cache is
/// internally synchronized, so all workers share it; a placement
/// computed by one worker is a hit for every later repeat).
#[allow(clippy::too_many_arguments)] // private driver behind four thin public wrappers
fn sweep_placements_cached<L: Label>(
    protocol: &Protocol<L>,
    inputs: &[Input],
    alphabet: &[L],
    r: u8,
    limits: Limits,
    f: usize,
    exclude: &[NodeId],
    model: fn(&[NodeId]) -> Result<FaultModel, CoreError>,
    cache: Option<&VerdictCache>,
) -> Result<Vec<CachedPlacementVerdict<L>>, VerifyError> {
    let placements = byzantine_placements(protocol.node_count(), f, exclude);
    let rows = par_sweep(placements, |placement: Vec<NodeId>| {
        let faults = model(&placement).map_err(|e| VerifyError::BadParameters {
            what: e.to_string(),
        })?;
        let limits = Limits {
            faults,
            ..limits.clone()
        };
        let (verdict, stats, outcome) = match cache {
            Some(cache) => {
                let hit = cache.verify_label(protocol, inputs, alphabet, r, &limits)?;
                (hit.verdict, hit.stats, hit.outcome)
            }
            None => {
                let (verdict, stats) =
                    verify_label_stabilization_with_stats(protocol, inputs, alphabet, r, limits)?;
                (verdict, stats, CacheOutcome::Miss)
            }
        };
        Ok(CachedPlacementVerdict {
            placement,
            verdict,
            stats,
            cache: outcome,
        })
    });
    rows.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placements_enumerate_lexicographically_and_skip_excluded() {
        assert_eq!(
            byzantine_placements(4, 2, &[]),
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
        assert_eq!(
            byzantine_placements(4, 1, &[0]),
            vec![vec![1], vec![2], vec![3]]
        );
        assert_eq!(byzantine_placements(3, 0, &[]), vec![Vec::<NodeId>::new()]);
        assert!(byzantine_placements(3, 3, &[0]).is_empty());
    }

    #[test]
    fn placements_normalize_sloppy_exclusion_lists() {
        // Duplicate ids must not be counted twice: with {0} excluded
        // once or thrice, two of three nodes stay eligible and
        // C(2, 2) = 1 — a naive |exclude| count would claim C(0, 2) = 0.
        assert_eq!(byzantine_placements(3, 2, &[0, 0, 0]), vec![vec![1, 2]]);
        assert_eq!(
            byzantine_placements(3, 2, &[0]),
            byzantine_placements(3, 2, &[0, 0, 0])
        );
        // Out-of-range ids exclude nothing.
        assert_eq!(
            byzantine_placements(4, 1, &[7, 99]),
            vec![vec![0], vec![1], vec![2], vec![3]]
        );
        // Unsorted + duplicated + out-of-range all at once.
        assert_eq!(
            byzantine_placements(4, 1, &[3, 0, 3, 10, 0]),
            vec![vec![1], vec![2]]
        );
        // f = 0 stays the single empty placement even when the
        // exclusion list covers (or over-covers) every node.
        assert_eq!(
            byzantine_placements(3, 0, &[2, 1, 0, 1, 5]),
            vec![Vec::<NodeId>::new()]
        );
        // f exceeding the *normalized* eligible count is empty.
        assert!(byzantine_placements(3, 3, &[1, 1]).is_empty());
    }
}
