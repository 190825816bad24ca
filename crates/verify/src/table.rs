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
