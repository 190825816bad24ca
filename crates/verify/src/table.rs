//! Packed reactions: every correct node's entries of the query's
//! [`ReactionTable`] compiled into a lookup over its in-label digits.
//!
//! Over the verifier's finite alphabet a reaction δᵢ is a finite map from
//! in-labelings to out-labels and an output, and each query tabulates it
//! once ([`ReactionTable::build`], the only code of the packed verifier
//! that calls reactions). [`PackedReactions::new`] stores each correct
//! node's entries as whole-word masks over the packed row (the
//! out-labels as alphabet indices in the node's out-edge fields) plus the
//! output; faulty nodes never react, so they get no masks, and only a
//! correct node's label outside the alphabet is an error.
//! [`PackedReactions::react`] then reacts a packed state by reading each
//! correct node's in-edge digits from the row and OR-ing that node's
//! entry into the reacted row: no labeling decode, closure call or label
//! hash. Every query the verifier accepts has a table: its entries,
//! `Σᵥ |Σ|^indeg(v)`, number at most one per seed state plus one per
//! node, and the verifier refuses an instance whose table would exceed
//! its state budget plus one entry per node.
//!
//! [`RankedSteps`] serves the queries whose states are exactly the
//! seeded labelings (`r = 1`, label mode, no quotient): there a state's
//! dense id is its labeling's rank, so a successor's id is computed from
//! its row instead of looked up.

use std::collections::HashMap;

use stateless_core::intern::{pack, unpack, FxBuildHasher};
use stateless_core::prelude::*;
use stateless_core::symmetry::{PackedLayout, ReactionTable};

use crate::product::VerifyError;

/// One correct node's slice of a [`PackedReactions`].
struct NodeEntries {
    node: usize,
    /// `in_bits[ins.0..ins.1]`: the bit offsets of the node's in-edge
    /// label fields, first in-edge first.
    ins: (usize, usize),
    /// Index of the node's entry for the all-zero in-digits.
    base: usize,
}

/// Every correct node's [`ReactionTable`] entries as packed masks. A
/// node's entry for digits `d₀, d₁, …` (first in-edge first) sits at
/// `base + Σₖ dₖ·|Σ|ᵏ`, the table's own numbering.
pub(crate) struct PackedReactions {
    /// Packed words per row, and so per entry mask.
    words: usize,
    label_width: u32,
    /// Alphabet size: the base of the entry index.
    q: usize,
    /// Correct nodes in ascending id; faulty nodes have no entries.
    nodes: Vec<NodeEntries>,
    in_bits: Vec<usize>,
    /// Entry-major, `words` per entry: the entry's out-labels packed as
    /// alphabet indices into the node's out-edge fields, zero elsewhere.
    masks: Vec<u64>,
    /// The output of each entry.
    outputs: Vec<Output>,
}

impl PackedReactions {
    /// Packs every correct node's entries of `table`, whose alphabet
    /// `label_index` numbers, for a protocol on `graph`.
    ///
    /// # Errors
    ///
    /// [`VerifyError::BadParameters`] when a correct node's entry holds a
    /// label outside the alphabet.
    pub(crate) fn new<L: Label>(
        table: &ReactionTable<L>,
        graph: &DiGraph,
        label_index: &HashMap<L, u32, FxBuildHasher>,
        faults: FaultModel,
        layout: &PackedLayout,
    ) -> Result<Self, VerifyError> {
        let (w, lw) = (layout.words, layout.label_width);
        let mut packed = PackedReactions {
            words: w,
            label_width: lw,
            q: table.alphabet_len(),
            nodes: Vec::new(),
            in_bits: Vec::new(),
            masks: Vec::new(),
            outputs: Vec::new(),
        };
        for node in (0..graph.node_count()).filter(|&i| !faults.is_faulty(i)) {
            let start = packed.in_bits.len();
            packed
                .in_bits
                .extend(graph.in_edges(node).iter().map(|&f| f * lw as usize));
            packed.nodes.push(NodeEntries {
                node,
                ins: (start, packed.in_bits.len()),
                base: packed.outputs.len(),
            });
            for entry in 0..table.node_entries(node) {
                let (y, labels) = table.entry(node, entry);
                let at = packed.masks.len();
                packed.masks.resize(at + w, 0);
                for (label, &eid) in labels.iter().zip(graph.out_edges(node)) {
                    let Some(&idx) = label_index.get(label) else {
                        return Err(VerifyError::BadParameters {
                            what: format!(
                                "node {node} emitted the label {label:?}, which is outside \
                                 the declared alphabet"
                            ),
                        });
                    };
                    pack(
                        &mut packed.masks[at..],
                        eid * lw as usize,
                        lw,
                        u64::from(idx),
                    );
                }
                packed.outputs.push(y);
            }
        }
        Ok(packed)
    }

    /// Reacts every correct node to the labels of the packed row `src`:
    /// ORs its out-labels into `reacted`, whose label fields the caller
    /// has zeroed, and writes its output to `outputs[node]`. Faulty
    /// nodes' slots are left as they are.
    pub(crate) fn react(&self, src: &[u64], reacted: &mut [u64], outputs: &mut [Output]) {
        let w = self.words;
        for node in &self.nodes {
            let mut entry = 0usize;
            for &bit in self.in_bits[node.ins.0..node.ins.1].iter().rev() {
                entry = entry * self.q + unpack(src, bit, self.label_width) as usize;
            }
            let entry = node.base + entry;
            for (r, &m) in reacted
                .iter_mut()
                .zip(&self.masks[entry * w..(entry + 1) * w])
            {
                *r |= m;
            }
            outputs[node.node] = self.outputs[entry];
        }
    }
}

/// The one step of an `r = 1` label-mode state without a quotient, with
/// its successors addressed by rank. Every node is forced there, so the
/// lone activation set is all `n` nodes: correct nodes write their
/// reactions, crash nodes keep their labels, and each adversary choice
/// fills the Byzantine fields. Seeding interns the labelings in odometer
/// order (edge 0 fastest) and no two share a row, so a state's dense id
/// is its labeling's little-endian base-`|Σ|` rank `Σₖ dₖ·|Σ|ᵏ`.
pub(crate) struct RankedSteps {
    /// `bytes[b][v]`: the rank carried by row byte `b` when it reads `v`.
    /// The rank is linear in the row's bits (bit `j` of field `k` weighs
    /// `2ʲ·|Σ|ᵏ`), so a row's rank is the sum of one entry per byte.
    bytes: Vec<[u32; 256]>,
    /// The crash-sourced label fields, which the step keeps from the
    /// source row.
    kept: u64,
    /// Each adversary choice's rank offset, in choice order: its digits,
    /// least significant first, weighted by the fields they fill
    /// (`byz_edges` of ascending node id, `out_edges` order). One zero
    /// offset when fault-free, none when there are no nodes.
    offsets: Vec<u32>,
}

impl RankedSteps {
    /// The tables of a one-word `layout` over an alphabet of `q` labels.
    /// Ranks are summed in wrapping `u32` arithmetic, which is exact for
    /// every row when the `q^|E|` labelings fit 32 bits.
    pub(crate) fn new(
        graph: &DiGraph,
        faults: FaultModel,
        layout: &PackedLayout,
        q: usize,
    ) -> Self {
        debug_assert_eq!(layout.words, 1, "ranked rows are one word");
        let lw = layout.label_width as usize;
        let q = q as u32;
        let weights: Vec<u32> = (0..layout.edges * lw)
            .map(|bit| (1u32 << (bit % lw)).wrapping_mul(q.wrapping_pow((bit / lw) as u32)))
            .collect();
        let bytes = weights
            .chunks(8)
            .map(|byte| {
                let mut table = [0u32; 256];
                for v in 1..256usize {
                    let low = byte.get(v.trailing_zeros() as usize).copied().unwrap_or(0);
                    table[v] = table[v & (v - 1)].wrapping_add(low);
                }
                table
            })
            .collect();
        let field = u64::MAX.checked_shr(64 - lw as u32).unwrap_or(0);
        let mut kept = 0u64;
        let mut byz_edges = Vec::new();
        for node in 0..graph.node_count() {
            for &eid in graph.out_edges(node) {
                if faults.is_crash(node) {
                    kept |= field << (eid * lw);
                } else if faults.is_byzantine(node) {
                    byz_edges.push(eid);
                }
            }
        }
        let mut offsets = vec![0u32; usize::from(graph.node_count() > 0)];
        for &eid in &byz_edges {
            // Digits least significant first: each further field repeats
            // the choices so far once per label it can hold.
            let unit = q.wrapping_pow(eid as u32);
            offsets = (0..q)
                .flat_map(|d| {
                    offsets
                        .iter()
                        .map(move |&o| o.wrapping_add(d.wrapping_mul(unit)))
                })
                .collect();
        }
        RankedSteps {
            bytes,
            kept,
            offsets,
        }
    }

    /// The rank of a one-word row.
    #[inline]
    pub(crate) fn rank(&self, row: u64) -> u32 {
        self.bytes
            .iter()
            .enumerate()
            .fold(0u32, |rank, (b, table)| {
                rank.wrapping_add(table[(row >> (8 * b)) as usize & 0xFF])
            })
    }

    /// The step's row before the adversary's digits: the `reacted` labels
    /// (Byzantine fields zero) with the crash fields of `src`.
    #[inline]
    pub(crate) fn step(&self, src: u64, reacted: u64) -> u64 {
        reacted | (src & self.kept)
    }

    /// Each adversary choice's rank offset, in choice order.
    pub(crate) fn offsets(&self) -> &[u32] {
        &self.offsets
    }
}
