//! Directed graphs `G = ([n], E)` on which stateless protocols run.
//!
//! Graphs are *simple* (no parallel edges, no self-loops) and directed; a
//! bidirectional link is a pair of antiparallel edges. Edge ids are assigned
//! in insertion order, which the topology constructors in [`crate::topology`]
//! exploit to give protocols a predictable incoming/outgoing ordering.

use std::collections::HashMap;
use std::fmt;

use crate::error::CoreError;
use crate::{EdgeId, NodeId};

/// A simple directed graph with stable node and edge ids.
///
/// # Examples
///
/// ```
/// use stateless_core::graph::DiGraph;
///
/// let mut g = DiGraph::new(3);
/// g.add_edge(0, 1)?;
/// g.add_edge(1, 2)?;
/// g.add_edge(2, 0)?;
/// assert!(g.is_strongly_connected());
/// assert_eq!(g.out_degree(0), 1);
/// # Ok::<(), stateless_core::CoreError>(())
/// ```
#[derive(Clone)]
pub struct DiGraph {
    node_count: usize,
    edges: Vec<(NodeId, NodeId)>,
    out_edges: Vec<Vec<EdgeId>>,
    in_edges: Vec<Vec<EdgeId>>,
    index: HashMap<(NodeId, NodeId), EdgeId>,
}

impl DiGraph {
    /// Creates a graph with `node_count` nodes and no edges.
    pub fn new(node_count: usize) -> Self {
        DiGraph {
            node_count,
            edges: Vec::new(),
            out_edges: vec![Vec::new(); node_count],
            in_edges: vec![Vec::new(); node_count],
            index: HashMap::new(),
        }
    }

    /// Adds the directed edge `(from, to)` and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeOutOfRange`] if an endpoint does not exist,
    /// [`CoreError::SelfLoop`] if `from == to`, and
    /// [`CoreError::DuplicateEdge`] if the edge already exists.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> Result<EdgeId, CoreError> {
        for node in [from, to] {
            if node >= self.node_count {
                return Err(CoreError::NodeOutOfRange {
                    node,
                    node_count: self.node_count,
                });
            }
        }
        if from == to {
            return Err(CoreError::SelfLoop { node: from });
        }
        if self.index.contains_key(&(from, to)) {
            return Err(CoreError::DuplicateEdge { from, to });
        }
        let id = self.edges.len();
        self.edges.push((from, to));
        self.out_edges[from].push(id);
        self.in_edges[to].push(id);
        self.index.insert((from, to), id);
        Ok(id)
    }

    /// Number of nodes `n`.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of edges `|E|`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterates over node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.node_count
    }

    /// The `(from, to)` endpoints of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.edges[e]
    }

    /// All edges as `(edge_id, from, to)` triples in id order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(id, &(u, v))| (id, u, v))
    }

    /// The edge id of `(from, to)`, if present.
    pub fn edge(&self, from: NodeId, to: NodeId) -> Option<EdgeId> {
        self.index.get(&(from, to)).copied()
    }

    /// Whether the edge `(from, to)` exists.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.index.contains_key(&(from, to))
    }

    /// Outgoing edge ids of `node`, in insertion order. This is the order in
    /// which a [`crate::reaction::Reaction`] must emit outgoing labels.
    pub fn out_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.out_edges[node]
    }

    /// Incoming edge ids of `node`, in insertion order. This is the order in
    /// which a [`crate::reaction::Reaction`] receives incoming labels.
    pub fn in_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.in_edges[node]
    }

    /// Out-degree of `node`.
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_edges[node].len()
    }

    /// In-degree of `node`.
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.in_edges[node].len()
    }

    /// Maximum total degree `Δ(G) = max_i (in(i) + out(i))`, the `k` of
    /// Theorem 5.10.
    pub fn max_degree(&self) -> usize {
        (0..self.node_count)
            .map(|i| self.in_degree(i) + self.out_degree(i))
            .max()
            .unwrap_or(0)
    }

    /// Position of the edge from `from` among `node`'s incoming edges, i.e.
    /// the index at which a reaction of `node` sees `from`'s label.
    pub fn in_neighbor_index(&self, node: NodeId, from: NodeId) -> Option<usize> {
        let e = self.edge(from, node)?;
        self.in_edges[node].iter().position(|&x| x == e)
    }

    /// Position of the edge to `to` among `node`'s outgoing edges, i.e. the
    /// index at which a reaction of `node` must emit the label for `to`.
    pub fn out_neighbor_index(&self, node: NodeId, to: NodeId) -> Option<usize> {
        let e = self.edge(node, to)?;
        self.out_edges[node].iter().position(|&x| x == e)
    }

    /// In-neighbors of `node` in incoming-edge order.
    pub fn in_neighbors(&self, node: NodeId) -> Vec<NodeId> {
        self.in_edges[node]
            .iter()
            .map(|&e| self.edges[e].0)
            .collect()
    }

    /// Out-neighbors of `node` in outgoing-edge order.
    pub fn out_neighbors(&self, node: NodeId) -> Vec<NodeId> {
        self.out_edges[node]
            .iter()
            .map(|&e| self.edges[e].1)
            .collect()
    }

    /// Directed BFS distances from `src`; unreachable nodes get `None`.
    pub fn bfs_distances(&self, src: NodeId) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.node_count];
        let mut queue = std::collections::VecDeque::new();
        dist[src] = Some(0);
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            let du = dist[u].expect("queued nodes have distances");
            for &e in &self.out_edges[u] {
                let v = self.edges[e].1;
                if dist[v].is_none() {
                    dist[v] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Whether every node reaches every other node — i.e. the graph is
    /// one strongly connected component ([`crate::scc::condense`] over
    /// the adjacency lists directly; no CSR is materialized).
    pub fn is_strongly_connected(&self) -> bool {
        if self.node_count == 0 {
            return true;
        }
        let mut oracle = crate::scc::from_fn(self.node_count, |u, out| {
            out.clear();
            out.extend(
                self.out_edges[u as usize]
                    .iter()
                    .map(|&e| (self.edges[e].1 as u32, false)),
            );
        });
        // Canonical numbering: strongly connected ⇔ every component id
        // is the component of node 0, which numbers 0.
        crate::scc::condense(&mut oracle)
            .comp
            .iter()
            .all(|&c| c == 0)
    }

    /// Eccentricity of `node`: the maximum BFS distance to any node.
    ///
    /// Returns `None` if some node is unreachable from `node`.
    pub fn eccentricity(&self, node: NodeId) -> Option<usize> {
        self.bfs_distances(node)
            .into_iter()
            .try_fold(0, |acc, d| d.map(|d| acc.max(d)))
    }

    /// The directed radius `min_v ecc(v)` (the `r` of Proposition 2.1).
    ///
    /// Returns `None` for graphs that are not strongly connected.
    pub fn radius(&self) -> Option<usize> {
        (0..self.node_count)
            .filter_map(|v| self.eccentricity(v))
            .min()
    }

    /// The directed diameter `max_v ecc(v)`.
    ///
    /// Returns `None` for graphs that are not strongly connected.
    pub fn diameter(&self) -> Option<usize> {
        let mut best = 0;
        for v in 0..self.node_count {
            best = best.max(self.eccentricity(v)?);
        }
        Some(best)
    }

    /// A spanning out-arborescence rooted at `root`: for every node `i ≠ root`
    /// there is a directed path `root → … → i` along parent edges.
    ///
    /// Returns `parent[i] = Some(edge from parent(i) to i)` with
    /// `parent[root] = None` — the tree `T₁` of Proposition 2.3.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotStronglyConnected`] if some node is
    /// unreachable from `root`.
    pub fn out_arborescence(&self, root: NodeId) -> Result<Vec<Option<EdgeId>>, CoreError> {
        let mut parent = vec![None; self.node_count];
        let mut seen = vec![false; self.node_count];
        seen[root] = true;
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            for &e in &self.out_edges[u] {
                let v = self.edges[e].1;
                if !seen[v] {
                    seen[v] = true;
                    parent[v] = Some(e);
                    queue.push_back(v);
                }
            }
        }
        if seen.iter().all(|&b| b) {
            Ok(parent)
        } else {
            Err(CoreError::NotStronglyConnected)
        }
    }

    /// A spanning in-arborescence rooted at `root`: for every node `i ≠ root`
    /// there is a directed path `i → … → root` along parent edges.
    ///
    /// Returns `parent[i] = Some(edge from i towards root)` with
    /// `parent[root] = None` — the tree `T₂` of Proposition 2.3.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotStronglyConnected`] if `root` is unreachable
    /// from some node.
    pub fn in_arborescence(&self, root: NodeId) -> Result<Vec<Option<EdgeId>>, CoreError> {
        let mut parent = vec![None; self.node_count];
        let mut seen = vec![false; self.node_count];
        seen[root] = true;
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            for &e in &self.in_edges[u] {
                let v = self.edges[e].0;
                if !seen[v] {
                    seen[v] = true;
                    parent[v] = Some(e);
                    queue.push_back(v);
                }
            }
        }
        if seen.iter().all(|&b| b) {
            Ok(parent)
        } else {
            Err(CoreError::NotStronglyConnected)
        }
    }
}

impl fmt::Debug for DiGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiGraph")
            .field("nodes", &self.node_count)
            .field("edges", &self.edges)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> DiGraph {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        g.add_edge(2, 0).unwrap();
        g
    }

    #[test]
    fn add_edge_assigns_sequential_ids() {
        let g = triangle();
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.endpoints(0), (0, 1));
        assert_eq!(g.endpoints(2), (2, 0));
        assert_eq!(g.edge(1, 2), Some(1));
        assert_eq!(g.edge(2, 1), None);
    }

    #[test]
    fn rejects_self_loops_and_duplicates_and_bad_nodes() {
        let mut g = DiGraph::new(2);
        assert_eq!(g.add_edge(0, 0), Err(CoreError::SelfLoop { node: 0 }));
        g.add_edge(0, 1).unwrap();
        assert_eq!(
            g.add_edge(0, 1),
            Err(CoreError::DuplicateEdge { from: 0, to: 1 })
        );
        assert_eq!(
            g.add_edge(0, 5),
            Err(CoreError::NodeOutOfRange {
                node: 5,
                node_count: 2
            })
        );
    }

    #[test]
    fn strongly_connected_detection() {
        assert!(triangle().is_strongly_connected());
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        assert!(!g.is_strongly_connected());
        // Reaches all from 0, but 0 unreachable.
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1).unwrap();
        g.add_edge(0, 2).unwrap();
        g.add_edge(1, 2).unwrap();
        assert!(!g.is_strongly_connected());
    }

    #[test]
    fn radius_and_diameter_of_directed_cycle() {
        let g = triangle();
        assert_eq!(g.radius(), Some(2));
        assert_eq!(g.diameter(), Some(2));
        assert_eq!(g.eccentricity(0), Some(2));
    }

    #[test]
    fn neighbor_index_lookup() {
        let g = triangle();
        assert_eq!(g.in_neighbor_index(1, 0), Some(0));
        assert_eq!(g.out_neighbor_index(0, 1), Some(0));
        assert_eq!(g.in_neighbor_index(1, 2), None);
        assert_eq!(g.in_neighbors(1), vec![0]);
        assert_eq!(g.out_neighbors(1), vec![2]);
    }

    #[test]
    fn arborescences_cover_all_nodes() {
        let g = triangle();
        let out = g.out_arborescence(0).unwrap();
        assert_eq!(out[0], None);
        assert!(out[1].is_some() && out[2].is_some());
        let inn = g.in_arborescence(0).unwrap();
        assert_eq!(inn[0], None);
        // In a directed 3-cycle, node 1's path to 0 goes through edge (1,2).
        assert_eq!(g.endpoints(inn[1].unwrap()).0, 1);
    }

    #[test]
    fn arborescence_fails_on_disconnected() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1).unwrap();
        assert!(g.out_arborescence(1).is_err());
        assert!(g.in_arborescence(0).is_err());
    }

    #[test]
    fn max_degree_counts_both_directions() {
        let g = triangle();
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn empty_graph_is_trivially_strongly_connected() {
        assert!(DiGraph::new(0).is_strongly_connected());
        assert_eq!(DiGraph::new(0).radius(), None);
    }
}
