//! Crash-safe verification: checkpoint policies, resumable handles, and
//! the canonical instance fingerprint.
//!
//! The exact verifier's exploration is a long, deterministic
//! computation; this module is the contract that lets it survive
//! interruption. A [`CheckpointPolicy`] on
//! [`Limits::checkpoint`](crate::product::Limits::checkpoint) makes the
//! explorer serialize its sharded state index — plus the batch cursor
//! and edge totals — into epoch files of a
//! [`stateless_core::checkpoint::CheckpointStore`] at batch boundaries.
//! A [`CheckpointHandle`] names one committed epoch; resuming from it
//! (`verify_label_stabilization_resumed` and friends in
//! [`product`](crate::product)) replays the interned states back into a
//! fresh explorer and continues from the stored cursor, producing
//! verdicts, state ids, and witnesses **bit-identical** to an
//! uninterrupted run at any thread count.
//!
//! # The instance fingerprint
//!
//! A checkpoint is only meaningful for the exact verification instance
//! that wrote it. Every epoch header therefore stores an
//! [`instance_fingerprint`] over everything that shapes the product
//! graph: node and edge structure of the topology, `r`, the query mode
//! (label vs output stabilization), the deduplicated alphabet, the
//! inputs, the fault model, the symmetry mode, and the state/edge
//! budgets — plus a *behavioral* digest of the protocol table itself
//! (the reactions are opaque functions, so they are probed and the
//! responses hashed; see below). Worker
//! thread counts, the deadline, and the checkpoint policy are
//! deliberately **excluded**: none of them change the
//! explored graph, and resume-at-a-different-thread-count is exactly
//! the point. A mismatch at resume time is a typed
//! [`ResumeError::InstanceMismatch`], never a silent wrong answer.
//!
//! The behavioral digest is **exact** when the reaction domain is small:
//! if `Σᵥ |Σ|^indeg(v)` ([`reaction_domain`]) is at most [`PROBE_CAP`],
//! every node's reaction is called on every combination of its in-labels
//! (node order, then in-edge order, the first in-edge's digit varying
//! fastest; every other edge holds the first alphabet label), so two
//! instances with different reaction tables get different digests up to
//! a 64-bit hash collision. Above the cap the reactions are probed on a
//! fixed pseudorandom sample of whole labelings instead. That sample is
//! a guard against accidental mismatch, not a proof of protocol
//! equality: two reactions that agree on it but differ elsewhere
//! collide.

use std::fmt;
use std::path::PathBuf;

use stateless_core::checkpoint::CheckpointError;
use stateless_core::intern::FxHasher;
use stateless_core::prelude::*;
use stateless_core::symmetry::{reaction_domain, SymmetryMode, PROBE_CAP};
use std::hash::{Hash, Hasher};

/// When (and where) the explorer writes checkpoint epochs.
///
/// Epochs are written only at deterministic exploration points — batch
/// boundaries of the three-phase pipeline — so every epoch is an exact
/// prefix of the (thread-count-independent) exploration and resuming
/// from it reproduces the uninterrupted run bit for bit.
///
/// With both intervals `None`, no periodic epochs are written; the
/// explorer still writes a final epoch when a
/// [`Limits::deadline`](crate::product::Limits::deadline) expires (the
/// handle inside [`Verdict::Partial`](crate::product::Verdict::Partial))
/// and when a poisoned chunk forces a checkpoint-and-fail.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointPolicy {
    /// Directory of the checkpoint store (created if needed). One
    /// verification instance per directory — epochs of different
    /// instances must not share a store.
    pub dir: PathBuf,
    /// Write an epoch once this many states of progress — newly
    /// interned *plus* newly expanded — have accumulated since the last
    /// one. Expansion counts because label-mode `r = 1` instances seed
    /// their whole state space up front; interning alone would never
    /// come due there. `Some(0)` is rejected by
    /// [`Limits::validate`](crate::product::Limits::validate).
    pub every_states: Option<usize>,
    /// Write an epoch once this much wall-clock time has elapsed since
    /// the last one (seconds). Must be finite and positive.
    pub every_secs: Option<f64>,
    /// How many committed epochs to keep; older ones are pruned at each
    /// commit. At least 1 (0 is rejected up front); keep ≥ 2 so a
    /// corrupted newest epoch still leaves a fallback.
    pub retain: usize,
}

impl CheckpointPolicy {
    /// A policy writing to `dir` with no periodic interval (epochs only
    /// at deadline expiry or poisoned-chunk failure) and a retention of
    /// 2 epochs. Set [`every_states`](CheckpointPolicy::every_states) /
    /// [`every_secs`](CheckpointPolicy::every_secs) for periodic
    /// checkpointing.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointPolicy {
            dir: dir.into(),
            every_states: None,
            every_secs: None,
            retain: 2,
        }
    }
}

/// One committed checkpoint epoch — the resumable handle carried by
/// [`Verdict::Partial`](crate::product::Verdict::Partial) and accepted
/// (via its directory) by the `*_resumed` entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointHandle {
    /// The checkpoint store directory.
    pub dir: PathBuf,
    /// The committed epoch number.
    pub epoch: u64,
}

/// Typed failures of the resume path. A checkpoint never silently
/// produces a wrong answer: anything unexpected is one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ResumeError {
    /// The checkpoint was written by a different verification instance
    /// (protocol table, topology, r, query mode, alphabet, inputs,
    /// fault model, symmetry mode, or budgets differ).
    InstanceMismatch {
        /// The fingerprint of the instance being resumed.
        expected: u64,
        /// The fingerprint stored in the checkpoint.
        found: u64,
    },
    /// The store holds no epoch that passes validation.
    NoEpoch {
        /// The store directory that was searched.
        dir: String,
    },
    /// An epoch or manifest failed checksum / framing / consistency
    /// validation.
    Corrupt {
        /// What failed to validate.
        what: String,
    },
    /// A filesystem operation failed.
    Io {
        /// The failed operation.
        what: String,
    },
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::InstanceMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different verification instance \
                 (expected fingerprint {expected:016x}, found {found:016x})"
            ),
            ResumeError::NoEpoch { dir } => {
                write!(f, "no valid checkpoint epoch in {dir}")
            }
            ResumeError::Corrupt { what } => write!(f, "corrupt checkpoint: {what}"),
            ResumeError::Io { what } => write!(f, "checkpoint I/O failed: {what}"),
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<CheckpointError> for ResumeError {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Io { what } => ResumeError::Io { what },
            CheckpointError::Corrupt { what } => ResumeError::Corrupt { what },
            CheckpointError::Missing { what } => ResumeError::Io {
                what: format!("missing {what}"),
            },
        }
    }
}

/// Version word mixed into every instance fingerprint, bumped whenever
/// the fingerprinted feature set changes (v2: the exact reaction digest).
const FINGERPRINT_SEED: u64 = 0x5354_4c53_4650_0002; // "STLSFP" v2

/// Number of pseudorandom labelings each node's reaction is probed with
/// when its reaction domain exceeds [`PROBE_CAP`].
const PROBES_PER_NODE: usize = 8;

/// The canonical fingerprint of a verification instance — see the
/// [module docs](self) for exactly what is (and is not) covered.
///
/// `alphabet` must already be deduplicated (first occurrence wins), as
/// the explorer's `Config` holds it: duplicate alphabet entries do not
/// change the instance.
#[allow(clippy::too_many_arguments)] // one parameter per fingerprinted dimension
pub fn instance_fingerprint<L: Label>(
    protocol: &Protocol<L>,
    inputs: &[Input],
    alphabet: &[L],
    r: u8,
    track_outputs: bool,
    faults: &FaultModel,
    symmetry: SymmetryMode,
    max_states: usize,
    max_edges: usize,
) -> u64 {
    let mut h = FxHasher::seeded(FINGERPRINT_SEED);
    let graph = protocol.graph();
    let (n, e) = (graph.node_count(), graph.edge_count());
    h.write_usize(n);
    h.write_usize(e);
    for (id, u, v) in graph.edges() {
        h.write_usize(id);
        h.write_usize(u);
        h.write_usize(v);
    }
    h.write_u8(r);
    h.write_u8(u8::from(track_outputs));
    h.write_usize(alphabet.len());
    for l in alphabet {
        l.hash(&mut h);
    }
    h.write_usize(inputs.len());
    for &x in inputs {
        h.write_u64(x);
    }
    faults.hash(&mut h);
    h.write_u8(match symmetry {
        SymmetryMode::Off => 0,
        SymmetryMode::Auto => 1,
    });
    h.write_usize(max_states);
    h.write_usize(max_edges);
    // Behavioral digest of the protocol table: hash the emitted labels
    // and output of every probe. Reactions are opaque functions, so the
    // digest is exact only where every entry can be enumerated.
    if alphabet.is_empty() {
        return h.finish();
    }
    let q = alphabet.len();
    let mut labeling: Vec<L> = vec![alphabet[0].clone(); e];
    let mut in_buf: Vec<L> = Vec::new();
    let mut react_buf: Vec<L> = Vec::new();
    let mut probe = |node: NodeId, labeling: &[L], h: &mut FxHasher| {
        let y = protocol.apply_buffered(
            node,
            labeling,
            inputs.get(node).copied().unwrap_or(0),
            &mut in_buf,
            &mut react_buf,
        );
        h.write_u64(y);
        h.write_usize(react_buf.len());
        for l in &react_buf {
            l.hash(h);
        }
    };
    if reaction_domain(graph, q) <= PROBE_CAP {
        // Every entry: each node on every in-label combination, the
        // first in-edge's digit varying fastest.
        let mut digits: Vec<usize> = Vec::new();
        for node in 0..n {
            let ins = graph.in_edges(node);
            digits.clear();
            digits.resize(ins.len(), 0);
            'entries: loop {
                for (&d, &f) in digits.iter().zip(ins) {
                    labeling[f] = alphabet[d].clone();
                }
                probe(node, &labeling, &mut h);
                for d in digits.iter_mut() {
                    *d += 1;
                    if *d < q {
                        continue 'entries;
                    }
                    *d = 0;
                }
                break;
            }
            for &f in ins {
                labeling[f] = alphabet[0].clone();
            }
        }
    } else {
        // A fixed pseudorandom sample of whole labelings (an LCG over
        // alphabet indices — deterministic, platform-independent).
        let mut lcg: u64 = 0x9e37_79b9_7f4a_7c15;
        for node in 0..n {
            for _ in 0..PROBES_PER_NODE {
                for slot in labeling.iter_mut() {
                    lcg = lcg
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    *slot = alphabet[(lcg >> 33) as usize % q].clone();
                }
                probe(node, &labeling, &mut h);
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stateless_core::reaction::FnReaction;

    fn ring(n: usize) -> Protocol<bool> {
        Protocol::builder(topology::unidirectional_ring(n), 1.0)
            .uniform_reaction(FnReaction::new(|_, inc: &[bool], _| (vec![inc[0]], 0)))
            .build()
            .unwrap()
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let p = ring(3);
        let fp = |r: u8, inputs: &[Input], track: bool| {
            instance_fingerprint(
                &p,
                inputs,
                &[false, true],
                r,
                track,
                &FaultModel::none(),
                SymmetryMode::Off,
                1000,
                10_000,
            )
        };
        assert_eq!(fp(2, &[0; 3], false), fp(2, &[0; 3], false));
        assert_ne!(fp(2, &[0; 3], false), fp(3, &[0; 3], false), "r");
        assert_ne!(fp(2, &[0; 3], false), fp(2, &[1, 0, 0], false), "inputs");
        assert_ne!(fp(2, &[0; 3], false), fp(2, &[0; 3], true), "query mode");
    }

    #[test]
    fn fingerprint_sees_the_reaction_table() {
        let not_ring = Protocol::builder(topology::unidirectional_ring(3), 1.0)
            .uniform_reaction(FnReaction::new(|_, inc: &[bool], _| (vec![!inc[0]], 0)))
            .build()
            .unwrap();
        let base = |p: &Protocol<bool>| {
            instance_fingerprint(
                p,
                &[0; 3],
                &[false, true],
                2,
                false,
                &FaultModel::none(),
                SymmetryMode::Off,
                1000,
                10_000,
            )
        };
        assert_ne!(base(&ring(3)), base(&not_ring));
    }

    #[test]
    fn fingerprint_sees_every_reaction_entry_of_a_small_domain() {
        // |Σ| = 16 on a 3-ring: 48 entries, far under PROBE_CAP. Node 0's
        // table is perturbed at one in-label at a time; a sample of 8
        // labelings sees at most 8 of its 16 entries.
        let fp = |perturbed: Option<u64>| {
            let p = Protocol::builder(topology::unidirectional_ring(3), 4.0)
                .uniform_reaction(FnReaction::new(move |node, inc: &[u64], _| {
                    let hit = node == 0 && Some(inc[0]) == perturbed;
                    (vec![(inc[0] + u64::from(hit)) % 16], 0)
                }))
                .build()
                .unwrap();
            let alphabet: Vec<u64> = (0..16).collect();
            instance_fingerprint(
                &p,
                &[0; 3],
                &alphabet,
                2,
                false,
                &FaultModel::none(),
                SymmetryMode::Off,
                1000,
                10_000,
            )
        };
        let base = fp(None);
        assert_eq!(base, fp(None));
        for x in 0..16 {
            assert_ne!(fp(Some(x)), base, "entry {x} of node 0");
        }
    }

    #[test]
    fn fingerprint_sees_faults_symmetry_and_budgets() {
        let p = ring(4);
        let fp = |faults: FaultModel, sym: SymmetryMode, ms: usize| {
            instance_fingerprint(
                &p,
                &[0; 4],
                &[false, true],
                2,
                false,
                &faults,
                sym,
                ms,
                10_000,
            )
        };
        let base = fp(FaultModel::none(), SymmetryMode::Off, 1000);
        let byz = FaultModel::byzantine(&[1]).unwrap();
        let crash = FaultModel::crash(&[1]).unwrap();
        assert_ne!(base, fp(byz, SymmetryMode::Off, 1000), "byzantine");
        assert_ne!(
            fp(byz, SymmetryMode::Off, 1000),
            fp(crash, SymmetryMode::Off, 1000),
            "byzantine vs crash"
        );
        assert_ne!(base, fp(FaultModel::none(), SymmetryMode::Auto, 1000));
        assert_ne!(base, fp(FaultModel::none(), SymmetryMode::Off, 2000));
    }
}
