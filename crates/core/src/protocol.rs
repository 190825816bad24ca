//! Stateless protocols `A = (Σ, δ)`: a graph plus one reaction per node.

use std::fmt;
use std::sync::Arc;

use crate::error::CoreError;
use crate::graph::DiGraph;
use crate::label::Label;
use crate::reaction::Reaction;
use crate::{Input, NodeId, Output};

/// A stateless protocol: the label space `Σ` (implicit in `L` plus the
/// declared [`label_bits`](Protocol::label_bits)) and the reaction vector
/// `δ = (δ₁, …, δₙ)` on a fixed directed graph.
///
/// Construct with [`Protocol::builder`]. Protocols are immutable once built
/// and cheap to share (`reactions` are `Arc`ed), so one protocol can drive
/// many concurrent simulations.
pub struct Protocol<L: Label> {
    graph: DiGraph,
    reactions: Vec<Arc<dyn Reaction<L>>>,
    label_bits: f64,
    name: String,
}

impl<L: Label> Protocol<L> {
    /// Starts building a protocol on `graph`, declaring a label complexity
    /// of `label_bits = log₂|Σ|` bits (the paper's `Lₙ`).
    pub fn builder(graph: DiGraph, label_bits: f64) -> ProtocolBuilder<L> {
        ProtocolBuilder {
            graph,
            reactions: Vec::new(),
            label_bits,
            name: String::from("unnamed"),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of edges (the length of a labeling).
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Declared label complexity `Lₙ = log₂|Σ|` in bits.
    pub fn label_bits(&self) -> f64 {
        self.label_bits
    }

    /// Human-readable protocol name (used in experiment reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Applies node `i`'s reaction to the global labeling, returning its new
    /// outgoing labels (ordered like `graph().out_edges(i)`) and output.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::WrongOutgoingArity`] if the reaction returns the
    /// wrong number of labels — a bug in the reaction function.
    ///
    /// # Panics
    ///
    /// Panics if `labeling` is shorter than the edge count.
    pub fn apply(
        &self,
        node: NodeId,
        labeling: &[L],
        input: Input,
    ) -> Result<(Vec<L>, Output), CoreError> {
        let incoming: Vec<L> = self
            .graph
            .in_edges(node)
            .iter()
            .map(|&e| labeling[e].clone())
            .collect();
        let (outgoing, output) = self.reactions[node].react(node, &incoming, input);
        if outgoing.len() != self.graph.out_degree(node) {
            return Err(CoreError::WrongOutgoingArity {
                node,
                got: outgoing.len(),
                expected: self.graph.out_degree(node),
            });
        }
        Ok((outgoing, output))
    }

    /// Node `i`'s reaction function (the engine's buffered hot paths call
    /// it directly, bypassing [`apply`](Protocol::apply)).
    pub(crate) fn reaction(&self, node: NodeId) -> &dyn Reaction<L> {
        &*self.reactions[node]
    }

    /// Allocation-free [`apply`](Protocol::apply): gathers node `i`'s
    /// incoming labels into `in_buf`, runs its reaction through
    /// [`Reaction::react_into`] with `out_buf` as the outgoing buffer
    /// (cleared and prefilled with the node's current outgoing labels),
    /// and returns the output. On return, `out_buf` holds the new outgoing
    /// labels ordered like [`DiGraph::out_edges`](crate::graph::DiGraph::out_edges);
    /// the caller commits them. Both buffers are plain scratch — pass the
    /// same two `Vec`s across calls and no allocation happens after
    /// warm-up.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range, `labeling` is shorter than the
    /// edge count, or the reaction misbehaves on the buffered path.
    pub fn apply_buffered(
        &self,
        node: NodeId,
        labeling: &[L],
        input: Input,
        in_buf: &mut Vec<L>,
        out_buf: &mut Vec<L>,
    ) -> Output {
        in_buf.clear();
        in_buf.extend(
            self.graph
                .in_edges(node)
                .iter()
                .map(|&e| labeling[e].clone()),
        );
        out_buf.clear();
        out_buf.extend(
            self.graph
                .out_edges(node)
                .iter()
                .map(|&e| labeling[e].clone()),
        );
        self.reactions[node].react_into(node, in_buf, input, out_buf)
    }

    /// Whether `labeling` is a *stable labeling*: a fixed point of every
    /// reaction function under inputs `x` (Section 3).
    ///
    /// # Errors
    ///
    /// Validates the labeling/input lengths. A reaction that misbehaves on
    /// the buffered path panics (see
    /// [`Reaction::react_into`]).
    pub fn is_stable_labeling(&self, labeling: &[L], inputs: &[Input]) -> Result<bool, CoreError> {
        self.check_lengths(labeling, inputs)?;
        let mut in_buf = Vec::new();
        let mut out_buf = Vec::new();
        Ok(self.is_stable_labeling_buffered(labeling, inputs, &mut in_buf, &mut out_buf))
    }

    /// [`is_stable_labeling`](Protocol::is_stable_labeling) with
    /// caller-provided scratch buffers, for allocation-free convergence
    /// and sweep loops: pass the same two `Vec`s across calls and no
    /// allocation happens after warm-up.
    ///
    /// The labeling/input lengths must already be validated (e.g. once
    /// per sweep via [`check_lengths`](Protocol::is_stable_labeling) —
    /// this probe skips that work).
    ///
    /// # Panics
    ///
    /// May panic on out-of-range indices if `labeling` or `inputs` are
    /// shorter than the graph requires.
    pub fn is_stable_labeling_buffered(
        &self,
        labeling: &[L],
        inputs: &[Input],
        in_buf: &mut Vec<L>,
        out_buf: &mut Vec<L>,
    ) -> bool {
        for node in self.graph.nodes() {
            let in_edges = self.graph.in_edges(node);
            let incoming: &[L] = if let [e] = *in_edges {
                std::slice::from_ref(&labeling[e])
            } else {
                in_buf.clear();
                in_buf.extend(in_edges.iter().map(|&e| labeling[e].clone()));
                in_buf.as_slice()
            };
            out_buf.clear();
            out_buf.extend(
                self.graph
                    .out_edges(node)
                    .iter()
                    .map(|&e| labeling[e].clone()),
            );
            self.reactions[node].react_into(node, incoming, inputs[node], out_buf);
            for (slot, &e) in out_buf.iter().zip(self.graph.out_edges(node)) {
                if *slot != labeling[e] {
                    return false;
                }
            }
        }
        true
    }

    pub(crate) fn check_lengths(&self, labeling: &[L], inputs: &[Input]) -> Result<(), CoreError> {
        if labeling.len() != self.edge_count() {
            return Err(CoreError::WrongLabelingLength {
                got: labeling.len(),
                expected: self.edge_count(),
            });
        }
        if inputs.len() != self.node_count() {
            return Err(CoreError::WrongInputLength {
                got: inputs.len(),
                expected: self.node_count(),
            });
        }
        Ok(())
    }
}

impl<L: Label> Clone for Protocol<L> {
    fn clone(&self) -> Self {
        Protocol {
            graph: self.graph.clone(),
            reactions: self.reactions.clone(),
            label_bits: self.label_bits,
            name: self.name.clone(),
        }
    }
}

impl<L: Label> fmt::Debug for Protocol<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Protocol")
            .field("name", &self.name)
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count())
            .field("label_bits", &self.label_bits)
            .finish()
    }
}

/// Incrementally builds a [`Protocol`]; see [`Protocol::builder`].
pub struct ProtocolBuilder<L: Label> {
    graph: DiGraph,
    reactions: Vec<(NodeId, Arc<dyn Reaction<L>>)>,
    label_bits: f64,
    name: String,
}

impl<L: Label> ProtocolBuilder<L> {
    /// Names the protocol (for reports and `Debug` output).
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the reaction function of `node`. The last call per node wins.
    #[must_use]
    pub fn reaction(mut self, node: NodeId, reaction: impl Reaction<L> + 'static) -> Self {
        self.reactions.push((node, Arc::new(reaction)));
        self
    }

    /// Sets the same reaction function (shared) for every node.
    #[must_use]
    pub fn uniform_reaction(mut self, reaction: impl Reaction<L> + 'static) -> Self {
        let shared: Arc<dyn Reaction<L>> = Arc::new(reaction);
        for node in 0..self.graph.node_count() {
            self.reactions.push((node, Arc::clone(&shared)));
        }
        self
    }

    /// Finalizes the protocol.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MissingReaction`] if some node has no reaction.
    pub fn build(self) -> Result<Protocol<L>, CoreError> {
        let n = self.graph.node_count();
        let mut slots: Vec<Option<Arc<dyn Reaction<L>>>> = vec![None; n];
        for (node, r) in self.reactions {
            if node >= n {
                return Err(CoreError::NodeOutOfRange {
                    node,
                    node_count: n,
                });
            }
            slots[node] = Some(r);
        }
        let mut reactions = Vec::with_capacity(n);
        for (node, slot) in slots.into_iter().enumerate() {
            reactions.push(slot.ok_or(CoreError::MissingReaction { node })?);
        }
        Ok(Protocol {
            graph: self.graph,
            reactions,
            label_bits: self.label_bits,
            name: self.name,
        })
    }
}

impl<L: Label> fmt::Debug for ProtocolBuilder<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProtocolBuilder")
            .field("name", &self.name)
            .field("nodes", &self.graph.node_count())
            .field("reactions_set", &self.reactions.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reaction::{ConstReaction, FnReaction};
    use crate::topology;

    fn or_clique(n: usize) -> Protocol<bool> {
        let graph = topology::clique(n);
        let deg = n - 1;
        Protocol::builder(graph, 1.0)
            .name("or")
            .uniform_reaction(FnReaction::new(move |_, incoming: &[bool], input| {
                let bit = input == 1 || incoming.iter().any(|&b| b);
                (vec![bit; deg], u64::from(bit))
            }))
            .build()
            .unwrap()
    }

    #[test]
    fn build_requires_all_reactions() {
        let graph = topology::unidirectional_ring(3);
        let err = Protocol::<bool>::builder(graph, 1.0)
            .reaction(0, ConstReaction::new(false, 0, 1))
            .build()
            .unwrap_err();
        assert_eq!(err, CoreError::MissingReaction { node: 1 });
    }

    #[test]
    fn build_rejects_out_of_range_node() {
        let graph = topology::unidirectional_ring(3);
        let err = Protocol::<bool>::builder(graph, 1.0)
            .uniform_reaction(ConstReaction::new(false, 0, 1))
            .reaction(9, ConstReaction::new(false, 0, 1))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            CoreError::NodeOutOfRange {
                node: 9,
                node_count: 3
            }
        );
    }

    #[test]
    fn apply_validates_arity() {
        let graph = topology::clique(3);
        let p = Protocol::builder(graph, 1.0)
            .uniform_reaction(FnReaction::new(|_, _: &[bool], _| (vec![true], 0)))
            .build()
            .unwrap();
        let labeling = vec![false; 6];
        let err = p.apply(0, &labeling, 0).unwrap_err();
        assert_eq!(
            err,
            CoreError::WrongOutgoingArity {
                node: 0,
                got: 1,
                expected: 2
            }
        );
    }

    #[test]
    fn stable_labeling_detection() {
        let p = or_clique(3);
        // With all inputs 0: the all-false labeling is stable, all-true too
        // (OR of trues stays true).
        assert!(p.is_stable_labeling(&[false; 6], &[0, 0, 0]).unwrap());
        assert!(p.is_stable_labeling(&[true; 6], &[0, 0, 0]).unwrap());
        // With input x₀=1 the all-false labeling is not stable.
        assert!(!p.is_stable_labeling(&[false; 6], &[1, 0, 0]).unwrap());
    }

    #[test]
    fn stable_labeling_validates_lengths() {
        let p = or_clique(3);
        assert!(matches!(
            p.is_stable_labeling(&[false; 5], &[0, 0, 0]),
            Err(CoreError::WrongLabelingLength {
                got: 5,
                expected: 6
            })
        ));
        assert!(matches!(
            p.is_stable_labeling(&[false; 6], &[0, 0]),
            Err(CoreError::WrongInputLength {
                got: 2,
                expected: 3
            })
        ));
    }

    #[test]
    fn protocol_is_cloneable_and_debuggable() {
        let p = or_clique(3);
        let q = p.clone();
        assert_eq!(format!("{p:?}"), format!("{q:?}"));
        assert!(format!("{p:?}").contains("\"or\""));
    }
}
