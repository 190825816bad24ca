//! Reaction tables: every correct node's reaction compiled, once per
//! instance, into a lookup over its in-label digits.
//!
//! Over the verifier's finite alphabet a reaction δᵢ is a finite map from
//! in-labelings to out-labels and an output. [`ReactionTable::build`]
//! calls each correct node's reaction once per in-label combination and
//! stores the out-labels as a whole-word mask over the packed row, plus
//! the output. Every labeling is a seed, so exploration evaluates exactly
//! these (node, in-labeling) pairs anyway; the table pays for each once
//! per instance instead of once per product state and per pass.
//! [`ReactionTable::react`] then reacts a packed state by reading each
//! correct node's in-edge digits from the row and OR-ing that node's
//! entry into the reacted row: no labeling decode, closure call or label
//! hash.
//!
//! The explorer builds a table when the instance has at most
//! [`PROBE_CAP`](stateless_core::symmetry::PROBE_CAP) entries
//! (`Σᵥ |Σ|^indeg(v)`, [`reaction_domain`](stateless_core::symmetry::reaction_domain)).
//! Larger instances react through the protocol's closures, which is the
//! only path they have.

use std::collections::HashMap;

use stateless_core::intern::{pack, unpack, FxBuildHasher};
use stateless_core::prelude::*;
use stateless_core::symmetry::PackedLayout;

use crate::product::VerifyError;

/// The [`VerifyError::BadParameters`] for node `node` emitting `label`,
/// which the declared alphabet lacks.
pub(crate) fn outside_alphabet(node: NodeId, label: &impl std::fmt::Debug) -> VerifyError {
    VerifyError::BadParameters {
        what: format!(
            "node {node} emitted the label {label:?}, which is outside the declared alphabet"
        ),
    }
}

/// One correct node's slice of a [`ReactionTable`].
struct NodeEntries {
    node: usize,
    /// `in_bits[ins.0..ins.1]`: the bit offsets of the node's in-edge
    /// label fields, first in-edge first.
    ins: (usize, usize),
    /// Index of the node's entry for the all-zero in-digits.
    base: usize,
}

/// Every correct node's reaction over every in-label digit combination.
/// A node's entry for digits `d₀, d₁, …` (first in-edge first) sits at
/// `base + Σₖ dₖ·|Σ|ᵏ`: the first digit varies fastest, the order
/// [`instance_fingerprint`](crate::checkpoint::instance_fingerprint)
/// probes in.
pub(crate) struct ReactionTable {
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

impl ReactionTable {
    /// Calls each correct node's reaction once per in-label combination
    /// over the non-empty `alphabet`, whose indices `label_index` holds.
    ///
    /// # Errors
    ///
    /// [`VerifyError::BadParameters`] when a reaction emits a label
    /// outside the alphabet. A reaction panic unwinds to the caller.
    pub(crate) fn build<L: Label>(
        protocol: &Protocol<L>,
        inputs: &[Input],
        alphabet: &[L],
        label_index: &HashMap<L, u32, FxBuildHasher>,
        faults: FaultModel,
        layout: &PackedLayout,
    ) -> Result<Self, VerifyError> {
        let graph = protocol.graph();
        let (w, lw, q) = (layout.words, layout.label_width, alphabet.len());
        let mut table = ReactionTable {
            words: w,
            label_width: lw,
            q,
            nodes: Vec::new(),
            in_bits: Vec::new(),
            masks: Vec::new(),
            outputs: Vec::new(),
        };
        let mut labeling = vec![alphabet[0].clone(); graph.edge_count()];
        let (mut in_buf, mut out_buf) = (Vec::new(), Vec::new());
        let mut digits: Vec<usize> = Vec::new();
        for node in (0..graph.node_count()).filter(|&i| !faults.is_faulty(i)) {
            let ins = graph.in_edges(node);
            let start = table.in_bits.len();
            table.in_bits.extend(ins.iter().map(|&f| f * lw as usize));
            table.nodes.push(NodeEntries {
                node,
                ins: (start, table.in_bits.len()),
                base: table.outputs.len(),
            });
            digits.clear();
            digits.resize(ins.len(), 0);
            'entries: loop {
                for (&d, &f) in digits.iter().zip(ins) {
                    labeling[f] = alphabet[d].clone();
                }
                let y = protocol.apply_buffered(
                    node,
                    &labeling,
                    inputs[node],
                    &mut in_buf,
                    &mut out_buf,
                );
                let at = table.masks.len();
                table.masks.resize(at + w, 0);
                for (label, &eid) in out_buf.iter().zip(graph.out_edges(node)) {
                    let Some(&idx) = label_index.get(label) else {
                        return Err(outside_alphabet(node, label));
                    };
                    pack(
                        &mut table.masks[at..],
                        eid * lw as usize,
                        lw,
                        u64::from(idx),
                    );
                }
                table.outputs.push(y);
                for d in digits.iter_mut() {
                    *d += 1;
                    if *d < q {
                        continue 'entries;
                    }
                    *d = 0;
                }
                break;
            }
        }
        Ok(table)
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
