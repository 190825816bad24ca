//! Topology automorphisms and orbit-canonical packed states — the
//! symmetry-reduction machinery behind the exact verifier's
//! `SymmetryMode::Auto`.
//!
//! # Model
//!
//! An [`Automorphism`] of a protocol is a node permutation `π` together
//! with the edge permutation `σ` it induces (`σ(edge(u, v)) =
//! edge(π(u), π(v))`) such that the *dynamics* commute with it: for every
//! node `i` and every assignment of in-labels, node `π(i)` reacting on the
//! `σ`-permuted in-labels produces exactly the `σ`-permuted out-labels and
//! the same output word, and `inputs[π(i)] = inputs[i]`. Under such a
//! permutation, applying activation set `A` to a permuted product state
//! lands on the permuted successor — so whole runs, r-fair schedules,
//! cycles, and verdicts transport along the group.
//!
//! # Derivation ([`Symmetry::derive`])
//!
//! Candidate node permutations are proposed purely from the graph shape —
//! cyclic rotation and reflection on `n` nodes (rings), coordinate
//! rotations/swaps and single-bit translates when `n` is a power of two
//! (hypercubes), row/column shifts for every grid factorization of `n`
//! (tori) — and then **validated behaviorally** against the protocol's
//! [`ReactionTable`]: every node's output and out-labels on every
//! in-labeling, tabulated once. A candidate is kept only if the induced
//! edge permutation exists (it is a graph automorphism), inputs are
//! constant on its node orbits, and for every node `i` and every
//! in-labeling, `i`'s entry equals `π(i)`'s entry for the same labels
//! moved onto the `σ`-images of `i`'s in-edges, out-labels compared slot
//! by `σ`-image slot. Validation reads table entries and calls no
//! reaction. It is what makes `Auto` sound for *arbitrary* reactions: a
//! reflection on a bidirectional ring, for example, swaps each node's
//! clockwise and counter-clockwise slots and survives only if the
//! reaction genuinely treats them symmetrically. [`Symmetry::derive`]
//! gives an instance over [`PROBE_CAP`] entries the identity group. The
//! validated generators are closed into the full group (bounded by a
//! closure cap; on overflow the derivation degrades soundly to the
//! identity).
//!
//! # Canonicalization ([`Symmetry::canonicalize`])
//!
//! The canonical form of a packed product state is the
//! lexicographically-least element of its orbit. Every group except pure
//! rotations runs the generator-orbit scan over the (small, capped)
//! closure, comparing label indices, then countdown fields, then
//! auxiliary output words. Pure cyclic groups on ring-shaped layouts
//! take the ring path instead, in O(n). When the row has no auxiliary
//! words and its `n` `(label, countdown)` pairs fit 64 bits, they are
//! interleaved into one `u64`, position 0 most significant, by one
//! byte-table lookup per row byte. The least of its `n` integer
//! rotations wins, and the row is rewritten by rotating its label block
//! and its countdown block by the winning start. The tables depend only
//! on the layout: [`Symmetry::bind`] builds them once for the layout a
//! verifier packs, and a call with any other layout builds them into its
//! [`CanonScratch`]. Any other ring row turns each position's
//! `(label, countdown, aux)` triple into one `u128` key that orders
//! exactly like the tuple, writes the keys twice into the caller's
//! [`CanonScratch`], lets Booth's minimal-rotation search
//! ([`booth_least_rotation`]) read every rotation as a plain slice of
//! them, and repacks the least rotation straight from its keys. Both
//! ring forms order positions the same way, so they pick the same
//! representative. With a warm scratch no path allocates. Either way the
//! representative is a deterministic function of the state alone — never
//! of thread timing — so the verifier's cross-thread determinism
//! contract survives quotienting verbatim. The element that was applied
//! is returned so callers (witness reconstruction) can *de*-canonicalize:
//! a quotient cycle lifts to a concrete cycle by conjugating each
//! activation mask with the accumulated group element and unrolling until
//! the accumulator returns to the identity.

use std::collections::HashMap;

use crate::graph::DiGraph;
use crate::intern::{pack, unpack};
use crate::label::Label;
use crate::protocol::Protocol;
use crate::{Input, NodeId, Output};

/// Largest reaction domain ([`reaction_domain`]) that [`Symmetry::derive`]
/// tabulates. Above it `derive` returns the identity group — soundly,
/// since missing a true automorphism only costs reduction. Callers that
/// build a [`ReactionTable`] themselves pass their own entry cap.
pub const PROBE_CAP: u64 = 1 << 14;

/// The number of reaction entries of a protocol on `graph` over an
/// alphabet of `q` labels: `Σᵥ q^indeg(v)`, saturating.
pub fn reaction_domain(graph: &DiGraph, q: usize) -> u64 {
    (0..graph.node_count())
        .map(|v| (0..graph.in_degree(v)).fold(1u64, |c, _| c.saturating_mul(q as u64)))
        .fold(0u64, u64::saturating_add)
}

/// `alphabet` without repeats, first occurrence first: the alphabet a
/// [`ReactionTable`] is built over, whose indices label the verifier's
/// packed states.
pub fn dedup_alphabet<L: Label>(alphabet: &[L]) -> Vec<L> {
    let mut dedup: Vec<L> = Vec::with_capacity(alphabet.len());
    for l in alphabet {
        if !dedup.contains(l) {
            dedup.push(l.clone());
        }
    }
    dedup
}

/// Every node's reaction over every in-labeling of a deduplicated
/// alphabet `Σ`: over a finite alphabet a stateless protocol *is* this
/// table. Node `v` has `|Σ|^indeg(v)` entries (none when `Σ` is empty
/// and the protocol has an edge: it has no labeling); its entry for
/// in-label digits `d₀, d₁, …` (alphabet indices, first in-edge first)
/// is number `Σₖ dₖ·|Σ|ᵏ`, so the first in-edge's digit varies fastest,
/// and the nodes follow each other in id order. An entry is the node's
/// output and its out-labels, in [`DiGraph::out_edges`] order, as the
/// reaction returned them: a label outside the alphabet is kept as it
/// is.
///
/// [`ReactionTable::build`] is the one place that calls reactions over
/// their domain. Symmetry validation ([`Symmetry::from_table`]), the
/// verifier's instance key and its packed reaction masks all read the
/// entries.
#[derive(Debug, Clone)]
pub struct ReactionTable<L> {
    /// Alphabet size: the base of an entry's number.
    q: usize,
    /// Where each node's entries sit, by node id.
    nodes: Vec<NodeSpan>,
    outputs: Vec<Output>,
    labels: Vec<L>,
}

/// One node's slice of a [`ReactionTable`].
#[derive(Debug, Clone, Copy)]
struct NodeSpan {
    /// Index of the node's entry 0 in `outputs`.
    first: usize,
    /// Where the node's entry 0 starts in `labels`.
    label_first: usize,
    /// `|Σ|^indeg`.
    entries: usize,
    /// Out-labels per entry.
    out_degree: usize,
}

impl<L: Label> ReactionTable<L> {
    /// Calls every node's reaction once per in-labeling over the
    /// deduplicated `alphabet`, node by node; every edge outside the
    /// node's in-edges holds `alphabet[0]`. Over an empty alphabet a
    /// protocol with an edge has no labeling, so its table has no entries
    /// and nothing is called. `None`, calling nothing, when `inputs` does
    /// not have one entry per node or the table would exceed
    /// `max_entries` entries ([`reaction_domain`]). A reaction panic
    /// unwinds to the caller.
    pub fn build(
        protocol: &Protocol<L>,
        inputs: &[Input],
        alphabet: &[L],
        max_entries: u64,
    ) -> Option<Self> {
        let graph = protocol.graph();
        let (n, e) = (graph.node_count(), graph.edge_count());
        let size = reaction_domain(graph, alphabet.len());
        if inputs.len() != n || size > max_entries {
            return None;
        }
        let q = alphabet.len();
        let labelings = usize::from(q > 0 || e == 0);
        let mut table = ReactionTable {
            q,
            nodes: Vec::with_capacity(n),
            outputs: Vec::with_capacity(size as usize * labelings),
            labels: Vec::with_capacity(size as usize * labelings),
        };
        let mut labeling = alphabet.first().map_or(Vec::new(), |l| vec![l.clone(); e]);
        let (mut in_buf, mut out_buf) = (Vec::new(), Vec::new());
        for (node, &input) in inputs.iter().enumerate() {
            let ins = graph.in_edges(node);
            let span = NodeSpan {
                first: table.outputs.len(),
                label_first: table.labels.len(),
                entries: labelings * q.pow(ins.len() as u32),
                out_degree: graph.out_degree(node),
            };
            table.nodes.push(span);
            for entry in 0..span.entries {
                let mut rest = entry;
                for &f in ins {
                    labeling[f] = alphabet[rest % q].clone();
                    rest /= q;
                }
                let y = protocol.apply_buffered(node, &labeling, input, &mut in_buf, &mut out_buf);
                table.outputs.push(y);
                table.labels.extend_from_slice(&out_buf);
            }
            if let Some(first) = alphabet.first() {
                for &f in ins {
                    labeling[f] = first.clone();
                }
            }
        }
        Some(table)
    }

    /// The alphabet size `|Σ|`, the base of an entry's number.
    pub fn alphabet_len(&self) -> usize {
        self.q
    }

    /// The number of entries of `node`: `|Σ|^indeg(node)`, or none when
    /// the protocol has no labeling.
    pub fn node_entries(&self, node: NodeId) -> usize {
        self.nodes[node].entries
    }

    /// Entry number `entry` of `node`: its output and out-labels.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is not below [`node_entries`](Self::node_entries).
    pub fn entry(&self, node: NodeId, entry: usize) -> (Output, &[L]) {
        let span = &self.nodes[node];
        assert!(entry < span.entries, "no entry {entry} at node {node}");
        let at = span.label_first + entry * span.out_degree;
        (
            self.outputs[span.first + entry],
            &self.labels[at..at + span.out_degree],
        )
    }
}

/// Cap on the generated group order. Ring/dihedral/hypercube groups at
/// `n ≤ 16` are far below it; if a closure ever exceeds the cap the
/// derivation returns the identity group instead.
const CLOSURE_CAP: usize = 1024;

/// Symmetry reduction mode for the exact verifier (`Limits::symmetry`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SymmetryMode {
    /// No reduction: explore the full product graph (the default, and
    /// exactly the pre-symmetry behavior).
    #[default]
    Off,
    /// Derive validated automorphisms from the protocol
    /// ([`Symmetry::derive`]) and intern only orbit-canonical states.
    /// Verdicts and replayed witnesses are identical to [`Off`]; state
    /// and edge counts shrink by up to the group order.
    ///
    /// [`Off`]: SymmetryMode::Off
    Auto,
}

/// One validated protocol automorphism: a node permutation and the edge
/// permutation it induces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Automorphism {
    /// `node_perm[i]` is the image `π(i)` of node `i`.
    pub node_perm: Vec<u32>,
    /// `edge_perm[e]` is the image `σ(e)` of edge `e`, where
    /// `σ(edge(u, v)) = edge(π(u), π(v))`.
    pub edge_perm: Vec<u32>,
}

impl Automorphism {
    /// The identity on `n` nodes and `e` edges.
    pub fn identity(n: usize, e: usize) -> Self {
        Automorphism {
            node_perm: (0..n as u32).collect(),
            edge_perm: (0..e as u32).collect(),
        }
    }

    /// Whether this is the identity permutation.
    pub fn is_identity(&self) -> bool {
        self.node_perm
            .iter()
            .enumerate()
            .all(|(i, &p)| p == i as u32)
    }

    /// Function composition `self ∘ other` (apply `other` first).
    pub fn compose(&self, other: &Automorphism) -> Automorphism {
        Automorphism {
            node_perm: other
                .node_perm
                .iter()
                .map(|&i| self.node_perm[i as usize])
                .collect(),
            edge_perm: other
                .edge_perm
                .iter()
                .map(|&e| self.edge_perm[e as usize])
                .collect(),
        }
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> Automorphism {
        let mut node_perm = vec![0u32; self.node_perm.len()];
        for (i, &p) in self.node_perm.iter().enumerate() {
            node_perm[p as usize] = i as u32;
        }
        let mut edge_perm = vec![0u32; self.edge_perm.len()];
        for (e, &p) in self.edge_perm.iter().enumerate() {
            edge_perm[p as usize] = e as u32;
        }
        Automorphism {
            node_perm,
            edge_perm,
        }
    }

    /// Maps an activation bitmask through the node permutation: bit `i`
    /// of `mask` becomes bit `π(i)` of the result.
    pub fn apply_mask(&self, mask: u32) -> u32 {
        let mut out = 0u32;
        for (i, &p) in self.node_perm.iter().enumerate() {
            if mask >> i & 1 == 1 {
                out |= 1 << p;
            }
        }
        out
    }
}

/// The bit layout of a packed product state, as the verifier packs it:
/// `edges` label-index fields of `label_width` bits, then `nodes`
/// countdown fields of `countdown_width` bits, in `words` little-endian
/// `u64` words; `aux` auxiliary output words (one per node, or zero)
/// ride in a parallel row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedLayout {
    /// Bits per packed label-index field.
    pub label_width: u32,
    /// Bits per packed countdown field.
    pub countdown_width: u32,
    /// Number of label fields (the protocol's edge count).
    pub edges: usize,
    /// Number of countdown fields (the protocol's node count).
    pub nodes: usize,
    /// Packed `u64` words per state.
    pub words: usize,
    /// Auxiliary output words per state (`nodes` when outputs are
    /// tracked, else 0).
    pub aux: usize,
}

/// Reusable decode/compare buffers for [`Symmetry::canonicalize`]; keep
/// one per worker and, once its buffers have grown to the layout, every
/// call is allocation-free.
#[derive(Debug, Default)]
pub struct CanonScratch {
    /// Ring path: the byte tables of the last one-word layout seen by a
    /// group not bound to it ([`Symmetry::bind`]).
    word: Option<RingWord>,
    /// Ring path: one key per position, written twice.
    keys: Vec<u128>,
    /// Ring path: Booth's failure function over `keys`.
    fail: Vec<isize>,
    /// Orbit scan: the decoded state, the candidate image and the best
    /// image so far.
    labels: Vec<u32>,
    cds: Vec<u32>,
    cand_labels: Vec<u32>,
    cand_cds: Vec<u32>,
    cand_aux: Vec<u64>,
    best_labels: Vec<u32>,
    best_cds: Vec<u32>,
    best_aux: Vec<u64>,
}

/// A validated automorphism group of a protocol, with the machinery to
/// rewrite packed product states to their orbit-canonical form. Obtain
/// one from [`Symmetry::derive`] (validated, always sound) or
/// [`Symmetry::from_generators`] (caller-asserted, for tests).
#[derive(Debug, Clone)]
pub struct Symmetry {
    /// The full group, element 0 the identity, in deterministic
    /// closure-discovery order.
    elements: Vec<Automorphism>,
    /// Ring path: when the group is exactly the `n` rotations of a
    /// ring-shaped layout (`e == n`, edge `k` co-rotating with node `k`),
    /// `ring[j]` is the element index of rotation by `j`.
    ring: Option<Vec<u32>>,
    /// Ring path: the byte tables of the layout bound by
    /// [`Symmetry::bind`].
    word: Option<RingWord>,
}

impl Symmetry {
    /// The trivial (identity-only) group on `n` nodes and `e` edges.
    pub fn identity(n: usize, e: usize) -> Self {
        Symmetry {
            elements: vec![Automorphism::identity(n, e)],
            ring: None,
            word: None,
        }
    }

    /// Binds the group to the layout its states are packed in: a ring
    /// group whose `layout` rows fit one word gets that layout's byte
    /// tables, built here once, so every [`canonicalize`] call with
    /// `layout` reads them instead of building its own. Any other group
    /// or layout is returned as it is.
    ///
    /// [`canonicalize`]: Symmetry::canonicalize
    pub fn bind(mut self, layout: &PackedLayout) -> Self {
        if self.ring.is_some() && layout.aux == 0 && RingWord::fits_one_word(layout) {
            self.word = Some(RingWord::new(layout));
        }
        self
    }

    /// Closes `generators` into a group (identity first, deterministic
    /// order) **without behavioral validation** — the caller asserts the
    /// generators really are protocol automorphisms. Returns `None` if
    /// the closure exceeds the internal cap or a generator is malformed
    /// (not a permutation of `0..n` / `0..e`). Prefer
    /// [`Symmetry::derive`] outside tests.
    pub fn from_generators(n: usize, e: usize, generators: &[Automorphism]) -> Option<Self> {
        for g in generators {
            if !is_permutation(&g.node_perm, n) || !is_permutation(&g.edge_perm, e) {
                return None;
            }
        }
        close(n, e, generators).map(Symmetry::from_elements)
    }

    /// Derives the validated automorphism group of `protocol` under
    /// `inputs` over `alphabet`: tabulates the reactions
    /// ([`ReactionTable::build`], over the deduplicated alphabet, up to
    /// [`PROBE_CAP`] entries) and validates against the table
    /// ([`Symmetry::from_table`]). Always sound; an instance over the cap
    /// gets the identity group.
    pub fn derive<L: Label>(protocol: &Protocol<L>, inputs: &[Input], alphabet: &[L]) -> Self {
        let g = protocol.graph();
        match ReactionTable::build(protocol, inputs, &dedup_alphabet(alphabet), PROBE_CAP) {
            Some(table) => Symmetry::from_table(g, inputs, &table),
            None => Symmetry::identity(g.node_count(), g.edge_count()),
        }
    }

    /// The validated automorphism group of the protocol on `graph` whose
    /// reactions under `inputs` `table` holds — see the module docs.
    /// Every returned element has passed validation against every entry,
    /// and anything unverifiable degrades to the identity group. Calls no
    /// reaction.
    pub fn from_table<L: Label>(
        graph: &DiGraph,
        inputs: &[Input],
        table: &ReactionTable<L>,
    ) -> Self {
        let (n, e) = (graph.node_count(), graph.edge_count());
        if n < 2 || e == 0 || inputs.len() != n {
            return Symmetry::identity(n, e);
        }
        let generators: Vec<Automorphism> = candidate_perms(n)
            .iter()
            .filter_map(|perm| validate(graph, inputs, table, perm))
            .collect();
        if generators.is_empty() {
            return Symmetry::identity(n, e);
        }
        close(n, e, &generators).map_or_else(|| Symmetry::identity(n, e), Symmetry::from_elements)
    }

    /// The stabilizer subgroup of a node coloring: keeps exactly the
    /// elements whose node permutation preserves `colors`
    /// (`colors[π(i)] == colors[i]` for every node), in the original
    /// deterministic order. Used by the verifier to restrict symmetry to
    /// fault-placement-preserving automorphisms — a Byzantine node may
    /// only map to a Byzantine node, a crash node to a crash node. The
    /// ring path is re-detected on the subgroup (restriction
    /// usually breaks the pure-rotation shape), which is bound to no
    /// layout.
    ///
    /// Color-preservation is closed under composition and inverse, so the
    /// filtered set is itself a group; the identity always survives.
    pub fn restrict_to_coloring(&self, colors: &[u64]) -> Symmetry {
        let elements: Vec<Automorphism> = self
            .elements
            .iter()
            .filter(|el| {
                el.node_perm
                    .iter()
                    .enumerate()
                    .all(|(i, &p)| colors[p as usize] == colors[i])
            })
            .cloned()
            .collect();
        Symmetry::from_elements(elements)
    }

    /// The group of `elements` (identity first), with its ring path
    /// detected and bound to no layout.
    fn from_elements(elements: Vec<Automorphism>) -> Self {
        let (n, e) = (elements[0].node_perm.len(), elements[0].edge_perm.len());
        let ring = detect_ring(&elements, n, e);
        Symmetry {
            elements,
            ring,
            word: None,
        }
    }

    /// The group order (≥ 1; element 0 is the identity).
    pub fn order(&self) -> usize {
        self.elements.len()
    }

    /// Whether the group is identity-only (no reduction possible).
    pub fn is_trivial(&self) -> bool {
        self.elements.len() <= 1
    }

    /// The group elements; index 0 is the identity.
    pub fn elements(&self) -> &[Automorphism] {
        &self.elements
    }

    /// Rewrites the packed state (`words` per `layout`, plus its `aux`
    /// output row) to the lexicographically-least element of its orbit,
    /// returning the index of the group element that was applied
    /// (`canonical = elements[returned] · original`; 0 means the state
    /// was already canonical). Idempotent, and constant on orbits:
    /// `canonicalize(g · s) == canonicalize(s)` for every group element
    /// `g` — the property quotient exploration rests on.
    pub fn canonicalize(
        &self,
        layout: &PackedLayout,
        words: &mut [u64],
        aux: &mut [u64],
        scratch: &mut CanonScratch,
    ) -> usize {
        if self.is_trivial() {
            return 0;
        }
        let Some(ring) = &self.ring else {
            return self.canonicalize_orbit(layout, words, aux, scratch);
        };
        if !aux.is_empty() || !RingWord::fits_one_word(layout) {
            return canonicalize_ring(ring, layout, words, aux, scratch);
        }
        let word: &RingWord = match &self.word {
            Some(word) if word.is_for(layout) => word,
            _ => match &mut scratch.word {
                Some(word) if word.is_for(layout) => word,
                slot => slot.insert(RingWord::new(layout)),
            },
        };
        canonicalize_ring_word(ring, word, words)
    }

    /// The generator-orbit scan behind [`Symmetry::canonicalize`] for
    /// groups without the ring shape: apply every element and keep the
    /// least `(labels, countdowns, aux)` image.
    fn canonicalize_orbit(
        &self,
        layout: &PackedLayout,
        words: &mut [u64],
        aux: &mut [u64],
        sc: &mut CanonScratch,
    ) -> usize {
        let (e, n) = (layout.edges, layout.nodes);
        let (lw, cw) = (layout.label_width, layout.countdown_width);
        sc.labels.clear();
        sc.labels
            .extend((0..e).map(|k| unpack(words, k * lw as usize, lw) as u32));
        sc.cds.clear();
        sc.cds
            .extend((0..n).map(|i| unpack(words, e * lw as usize + i * cw as usize, cw) as u32));
        let mut best = 0usize;
        sc.best_labels.clone_from(&sc.labels);
        sc.best_cds.clone_from(&sc.cds);
        sc.best_aux.clear();
        sc.best_aux.extend_from_slice(aux);
        sc.cand_labels.resize(e, 0);
        sc.cand_cds.resize(n, 0);
        sc.cand_aux.resize(aux.len(), 0);
        for (idx, el) in self.elements.iter().enumerate().skip(1) {
            for (k, &l) in sc.labels.iter().enumerate() {
                sc.cand_labels[el.edge_perm[k] as usize] = l;
            }
            for (i, &c) in sc.cds.iter().enumerate() {
                sc.cand_cds[el.node_perm[i] as usize] = c;
            }
            for (i, &a) in aux.iter().enumerate() {
                sc.cand_aux[el.node_perm[i] as usize] = a;
            }
            if (&sc.cand_labels, &sc.cand_cds, &sc.cand_aux)
                < (&sc.best_labels, &sc.best_cds, &sc.best_aux)
            {
                best = idx;
                std::mem::swap(&mut sc.best_labels, &mut sc.cand_labels);
                std::mem::swap(&mut sc.best_cds, &mut sc.cand_cds);
                std::mem::swap(&mut sc.best_aux, &mut sc.cand_aux);
            }
        }
        if best == 0 {
            return 0;
        }
        words.fill(0);
        for (k, &l) in sc.best_labels.iter().enumerate() {
            pack(words, k * lw as usize, lw, u64::from(l));
        }
        for (i, &c) in sc.best_cds.iter().enumerate() {
            pack(words, e * lw as usize + i * cw as usize, cw, u64::from(c));
        }
        aux.copy_from_slice(&sc.best_aux);
        best
    }
}

/// The ring path of [`Symmetry::canonicalize`] for a row with aux words
/// or over 64 bits: the orbit is the `n` rotations of the per-position
/// `(label, countdown, aux)` sequence, and `ring[j]` is the element index
/// of rotation by `j`. Each position is one integer key,
/// `label · 2^(cw+64) + countdown · 2^64 + aux`, which orders exactly
/// like the tuple. The keys are written twice into `sc.keys`, so Booth's
/// search reads rotation `m` as `keys[m..m + n]` without wrapping; the
/// least start `m` is rotation *by* `n − m`, and the winner is repacked
/// straight from its keys. Allocation-free once `sc` is warm.
fn canonicalize_ring(
    ring: &[u32],
    layout: &PackedLayout,
    words: &mut [u64],
    aux: &mut [u64],
    sc: &mut CanonScratch,
) -> usize {
    let n = layout.nodes;
    let (lw, cw) = (layout.label_width, layout.countdown_width);
    debug_assert!(lw <= 32 && cw <= 32, "fields are u32 indices");
    let cd_base = n * lw as usize;
    let label_shift = 64 + cw;
    sc.keys.clear();
    for i in 0..n {
        let label = u128::from(unpack(words, i * lw as usize, lw));
        let cd = u128::from(unpack(words, cd_base + i * cw as usize, cw));
        let a = u128::from(aux.get(i).copied().unwrap_or(0));
        sc.keys.push(label << label_shift | cd << 64 | a);
    }
    sc.keys.extend_from_within(..n);
    let m = booth_doubled(&sc.keys, &mut sc.fail);
    if m == 0 {
        return 0;
    }
    words.fill(0);
    for (i, &key) in sc.keys[m..m + n].iter().enumerate() {
        pack(words, i * lw as usize, lw, (key >> label_shift) as u64);
        let cd = (key >> 64) as u64 & ((1 << cw) - 1);
        pack(words, cd_base + i * cw as usize, cw, cd);
        if let Some(slot) = aux.get_mut(i) {
            *slot = key as u64;
        }
    }
    ring[n - m] as usize
}

/// The byte tables of the ring path for one layout whose `n` positions
/// fit one word without aux words. Each position's `(label, countdown)`
/// pair is one `lw + cw`-bit digit of an integer, position 0 most
/// significant, so integer order is the keyed path's tuple order. Every
/// row bit lands on one digit bit, so the integer is the OR of one table
/// entry per row byte: `bytes[b][v]` holds where the bits of row byte `b`
/// land when it reads `v`.
#[derive(Debug, Clone)]
struct RingWord {
    nodes: usize,
    label_width: u32,
    countdown_width: u32,
    bytes: Vec<[u64; 256]>,
}

impl RingWord {
    /// Whether `layout`'s positions fit one word: `n · (lw + cw) ≤ 64`.
    fn fits_one_word(layout: &PackedLayout) -> bool {
        layout.nodes * (layout.label_width + layout.countdown_width) as usize <= 64
    }

    fn new(layout: &PackedLayout) -> Self {
        let n = layout.nodes as u32;
        let (lw, cw) = (layout.label_width, layout.countdown_width);
        let (k, label_bits) = (lw + cw, n * lw);
        // The digit bit row bit `p` lands on: label bit `j` of position
        // `i` is digit bit `cw + j`, countdown bit `j` is digit bit `j`.
        let digit_bit = |p: u32| -> u64 {
            let (i, bit) = if p < label_bits {
                (p / lw, cw + p % lw)
            } else if p < n * k {
                ((p - label_bits) / cw, (p - label_bits) % cw)
            } else {
                return 0;
            };
            1 << ((n - 1 - i) * k + bit)
        };
        let bytes = (0..(n * k).div_ceil(8))
            .map(|b| {
                let mut table = [0u64; 256];
                for v in 1..256 {
                    // `v` is `v & (v − 1)` plus its lowest set bit.
                    table[v] = table[v & (v - 1)] | digit_bit(8 * b + v.trailing_zeros());
                }
                table
            })
            .collect();
        RingWord {
            nodes: layout.nodes,
            label_width: lw,
            countdown_width: cw,
            bytes,
        }
    }

    /// Whether these are `layout`'s tables.
    fn is_for(&self, layout: &PackedLayout) -> bool {
        (self.nodes, self.label_width, self.countdown_width)
            == (layout.nodes, layout.label_width, layout.countdown_width)
    }
}

/// The ring path for a row without aux words whose `n` positions fit one
/// word, read through `word`'s byte tables. Rotation start `m` is the
/// digit integer rotated left by `m` digits; the least of the `n`
/// rotations wins (ties go to the least start). Position `m` then comes
/// first, so the label block and the countdown block of `words[0]` each
/// rotate right by `m` fields.
fn canonicalize_ring_word(ring: &[u32], word: &RingWord, words: &mut [u64]) -> usize {
    let n = word.nodes as u32;
    let (lw, cw) = (word.label_width, word.countdown_width);
    let k = lw + cw;
    if k == 0 {
        // One label and r = 1: the row is empty and every rotation ties.
        return 0;
    }
    let bits = n * k;
    let row = words[0];
    let x = word
        .bytes
        .iter()
        .zip((0..64u32).step_by(8))
        .fold(0, |x, (table, at)| x | table[(row >> at) as u8 as usize]);
    let full = u64::MAX >> (64 - bits);
    let (mut best, mut best_m) = (x, 0);
    let mut rot = x;
    for m in 1..n {
        rot = (rot << k | rot >> (bits - k)) & full;
        if rot < best {
            (best, best_m) = (rot, m);
        }
    }
    if best_m == 0 {
        return 0;
    }
    // A block that fills the word leaves no countdown bits above it.
    let cds = row.checked_shr(n * lw).unwrap_or(0);
    let cds = rotate_block(cds, n * cw, best_m * cw);
    words[0] = rotate_block(row, n * lw, best_m * lw) | cds.checked_shl(n * lw).unwrap_or(0);
    ring[(n - best_m) as usize] as usize
}

/// The low `width` bits of `x`, rotated right by `by < width` bits among
/// themselves (`by = 0` when `width = 0`).
fn rotate_block(x: u64, width: u32, by: u32) -> u64 {
    let ones = u64::MAX.checked_shr(64 - width).unwrap_or(0);
    let x = x & ones;
    if by == 0 {
        return x;
    }
    (x >> by | x << (width - by)) & ones
}

/// Booth's minimal-rotation algorithm: the least index `m` such that the
/// rotation of `seq` starting at `m` is lexicographically minimal among
/// all rotations (ties resolve to the smallest `m`). O(len) time; this
/// entry point allocates its buffers, [`Symmetry::canonicalize`] runs
/// the same search on reused ones.
pub fn booth_least_rotation<T: Ord>(seq: &[T]) -> usize {
    let doubled: Vec<&T> = seq.iter().chain(seq).collect();
    booth_doubled(&doubled, &mut Vec::new())
}

/// Booth's search over a sequence already written twice (`doubled` has
/// even length `2n`, `doubled[n + i] == doubled[i]`), with its failure
/// function in `fail`: no index wraps, so the inner loop takes no `%`.
fn booth_doubled<T: Ord>(doubled: &[T], fail: &mut Vec<isize>) -> usize {
    let n = doubled.len() / 2;
    if n <= 1 {
        return 0;
    }
    fail.clear();
    fail.resize(2 * n, -1);
    let mut k: usize = 0;
    for j in 1..2 * n {
        let sj = &doubled[j];
        let mut i = fail[j - k - 1];
        while i != -1 && *sj != doubled[k + i as usize + 1] {
            if *sj < doubled[k + i as usize + 1] {
                k = j - i as usize - 1;
            }
            i = fail[i as usize];
        }
        if i == -1 && *sj != doubled[k] {
            if *sj < doubled[k] {
                k = j;
            }
            fail[j - k] = -1;
        } else {
            fail[j - k] = i + 1;
        }
    }
    k % n
}

/// Shape-derived candidate node permutations for an `n`-node graph, in a
/// fixed order (deduplicated, identity excluded). Wrong guesses cost
/// nothing but a rejected validation.
fn candidate_perms(n: usize) -> Vec<Vec<u32>> {
    let mut candidates: Vec<Vec<u32>> = Vec::new();
    let mut add = |perm: Vec<u32>| {
        if perm.iter().enumerate().any(|(i, &p)| p != i as u32) && !candidates.contains(&perm) {
            candidates.push(perm);
        }
    };
    // Ring rotation and reflection.
    add((0..n).map(|i| ((i + 1) % n) as u32).collect());
    add((0..n).map(|i| ((n - i) % n) as u32).collect());
    // Hypercube coordinate rotation/swap and a single-bit translate.
    if n.is_power_of_two() && n >= 4 {
        let d = n.trailing_zeros() as usize;
        add((0..n)
            .map(|v| (((v << 1) | (v >> (d - 1))) & (n - 1)) as u32)
            .collect());
        add((0..n)
            .map(|v| ((v & !3) | ((v & 1) << 1) | ((v >> 1) & 1)) as u32)
            .collect());
        add((0..n).map(|v| (v ^ 1) as u32).collect());
    }
    // Torus row/column shifts for every w×h grid factorization.
    for w in 2..n {
        if !n.is_multiple_of(w) {
            continue;
        }
        let h = n / w;
        if h < 2 {
            continue;
        }
        add((0..n)
            .map(|id| (id / w * w + (id % w + 1) % w) as u32)
            .collect());
        add((0..n)
            .map(|id| ((id / w + 1) % h * w + id % w) as u32)
            .collect());
    }
    candidates
}

fn is_permutation(perm: &[u32], n: usize) -> bool {
    if perm.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &p in perm {
        let p = p as usize;
        if p >= n || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

/// Validates one candidate node permutation against the reaction table:
/// the induced edge permutation must exist (graph automorphism), inputs
/// must be constant on node orbits, and every node's entries must match
/// its image's. Node `i`'s entry for digits `d` is compared with `π(i)`'s
/// entry for the same digits moved onto the `σ`-images of `i`'s
/// in-edges: the digit of `i`'s in-slot `s` weighs `|Σ|^t` there, `t`
/// the slot of `σ(in_edges(i)[s])` within `in_edges(π(i))`. Returns the
/// full [`Automorphism`] on success.
fn validate<L: Label>(
    g: &DiGraph,
    inputs: &[Input],
    table: &ReactionTable<L>,
    node_perm: &[u32],
) -> Option<Automorphism> {
    let (n, e) = (g.node_count(), g.edge_count());
    if !is_permutation(node_perm, n) {
        return None;
    }
    let mut edge_perm = vec![0u32; e];
    let mut seen_edge = vec![false; e];
    for (id, u, v) in g.edges() {
        let f = g.edge(node_perm[u] as usize, node_perm[v] as usize)?;
        if seen_edge[f] {
            return None;
        }
        seen_edge[f] = true;
        edge_perm[id] = f as u32;
    }
    for i in 0..n {
        if inputs[node_perm[i] as usize] != inputs[i] {
            return None;
        }
    }
    let q = table.alphabet_len();
    // The slot of σ(f) within `image`, an edge list of π(i).
    let slot_of =
        |image: &[usize], f: usize| image.iter().position(|&x| x == edge_perm[f] as usize);
    for (i, &pi) in node_perm.iter().enumerate() {
        let pi = pi as usize;
        let weights: Vec<usize> = g
            .in_edges(i)
            .iter()
            .map(|&f| slot_of(g.in_edges(pi), f).map(|t| q.pow(t as u32)))
            .collect::<Option<_>>()?;
        // Out-slot correspondence: slot s of node i maps to the slot of
        // σ(out_edges(i)[s]) within out_edges(π(i)).
        let out_map: Vec<usize> = g
            .out_edges(i)
            .iter()
            .map(|&f| slot_of(g.out_edges(pi), f))
            .collect::<Option<_>>()?;
        for entry in 0..table.node_entries(i) {
            let (mut rest, mut image) = (entry, 0);
            for &w in &weights {
                image += rest % q * w;
                rest /= q;
            }
            let (y_a, out_a) = table.entry(i, entry);
            let (y_b, out_b) = table.entry(pi, image);
            if y_a != y_b
                || out_map
                    .iter()
                    .enumerate()
                    .any(|(s, &t)| out_a[s] != out_b[t])
            {
                return None;
            }
        }
    }
    Some(Automorphism {
        node_perm: node_perm.to_vec(),
        edge_perm,
    })
}

/// Closes `generators` under composition (identity first, breadth-first
/// discovery order — deterministic for a fixed generator list). `None`
/// if the group would exceed [`CLOSURE_CAP`].
fn close(n: usize, e: usize, generators: &[Automorphism]) -> Option<Vec<Automorphism>> {
    let mut elements = vec![Automorphism::identity(n, e)];
    let mut index: HashMap<Vec<u32>, usize> = HashMap::new();
    index.insert(elements[0].node_perm.clone(), 0);
    let mut i = 0;
    while i < elements.len() {
        for g in generators {
            let prod = g.compose(&elements[i]);
            if !index.contains_key(&prod.node_perm) {
                if elements.len() >= CLOSURE_CAP {
                    return None;
                }
                index.insert(prod.node_perm.clone(), elements.len());
                elements.push(prod);
            }
        }
        i += 1;
    }
    Some(elements)
}

/// Detects the ring path: the group is exactly the `n` rotations
/// of a ring-shaped layout, with edge `k` co-rotating with node `k`.
/// Returns `ring` with `ring[j]` the element index of rotation by `j`.
fn detect_ring(elements: &[Automorphism], n: usize, e: usize) -> Option<Vec<u32>> {
    if e != n || elements.len() != n {
        return None;
    }
    let mut ring = vec![u32::MAX; n];
    for (idx, el) in elements.iter().enumerate() {
        let j = el.node_perm[0] as usize;
        let is_rot = (0..n).all(|i| {
            el.node_perm[i] as usize == (i + j) % n && el.edge_perm[i] as usize == (i + j) % n
        });
        if !is_rot || ring[j] != u32::MAX {
            return None;
        }
        ring[j] = idx as u32;
    }
    Some(ring)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reaction::FnReaction;
    use crate::topology;

    fn rotation_ring(n: usize) -> Protocol<bool> {
        Protocol::builder(topology::unidirectional_ring(n), 1.0)
            .uniform_reaction(FnReaction::new(|_, inc: &[bool], _| (vec![inc[0]], 0)))
            .build()
            .unwrap()
    }

    #[test]
    fn booth_agrees_with_brute_force() {
        let cases: Vec<Vec<u32>> = vec![
            vec![0],
            vec![1, 0],
            vec![0, 0, 0],
            vec![2, 1, 0, 1],
            vec![1, 0, 1, 0],
            vec![3, 1, 2, 1, 3, 0],
            vec![5, 4, 3, 2, 1, 0],
        ];
        for s in cases {
            let n = s.len();
            let rot = |m: usize| -> Vec<u32> { (0..n).map(|i| s[(i + m) % n]).collect() };
            let brute = (0..n).min_by_key(|&m| (rot(m), m)).unwrap();
            assert_eq!(booth_least_rotation(&s), brute, "seq {s:?}");
        }
    }

    /// Brute-force ring reference: the least rotation start `m` of the
    /// `(label, countdown, aux)` sequence, ties going to the least `m`,
    /// as `(row, aux, element)` with element `ring[(n − m) % n]`.
    fn ring_reference(
        ring: &[u32],
        layout: &PackedLayout,
        words: &[u64],
        aux: &[u64],
    ) -> (Vec<u64>, Vec<u64>, usize) {
        let n = layout.nodes;
        let (lw, cw) = (layout.label_width, layout.countdown_width);
        let cd_base = n * lw as usize;
        let tuples: Vec<(u64, u64, u64)> = (0..n)
            .map(|i| {
                (
                    unpack(words, i * lw as usize, lw),
                    unpack(words, cd_base + i * cw as usize, cw),
                    aux.get(i).copied().unwrap_or(0),
                )
            })
            .collect();
        let rotation =
            |m: usize| -> Vec<(u64, u64, u64)> { (0..n).map(|i| tuples[(m + i) % n]).collect() };
        let m = (0..n).min_by_key(|&m| (rotation(m), m)).unwrap();
        let mut row = vec![0u64; layout.words];
        let mut row_aux = aux.to_vec();
        for (i, &(l, c, a)) in rotation(m).iter().enumerate() {
            pack(&mut row, i * lw as usize, lw, l);
            pack(&mut row, cd_base + i * cw as usize, cw, c);
            if let Some(slot) = row_aux.get_mut(i) {
                *slot = a;
            }
        }
        (row, row_aux, ring[(n - m) % n] as usize)
    }

    #[test]
    fn ring_path_matches_the_brute_force_least_rotation() {
        use rand::rngs::StdRng;
        use rand::{Rng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x0B00_7417);
        let mut scratch = CanonScratch::default();
        for n in 2..=16usize {
            let step = Automorphism {
                node_perm: (0..n as u32).map(|i| (i + 1) % n as u32).collect(),
                edge_perm: (0..n as u32).map(|i| (i + 1) % n as u32).collect(),
            };
            let sym = Symmetry::from_generators(n, n, &[step]).unwrap();
            let ring = sym.ring.clone().expect("rotations take the ring path");
            let periods: Vec<usize> = (1..=n).filter(|p| n % p == 0).collect();
            // cw = 0 is r = 1; n = 16 at lw + cw = 4 fills one word exactly
            // and n = 13 at 5 needs 65 bits, so both ring paths run.
            for lw in 1..=4u32 {
                for cw in 0..=2u32 {
                    for aux_len in [0, n] {
                        let layout = PackedLayout {
                            label_width: lw,
                            countdown_width: cw,
                            edges: n,
                            nodes: n,
                            words: (n * (lw + cw) as usize).div_ceil(64),
                            aux: aux_len,
                        };
                        for trial in 0..48 {
                            // Even trials draw free rows; odd ones repeat a
                            // random block, so several rotations tie.
                            let period = if trial % 2 == 0 {
                                n
                            } else {
                                periods[rng.random_range(0..periods.len())]
                            };
                            // Small aux words force ties on the first two
                            // fields to be broken by aux; wide ones use
                            // the high bits.
                            let wide = trial % 4 == 3;
                            let block: Vec<(u64, u64, u64)> = (0..period)
                                .map(|_| {
                                    let a = if wide {
                                        rng.next_u64()
                                    } else {
                                        rng.random_range(0..3u64)
                                    };
                                    (
                                        rng.random_range(0..1u64 << lw),
                                        rng.random_range(0..1u64 << cw),
                                        a,
                                    )
                                })
                                .collect();
                            let mut words = vec![0u64; layout.words];
                            let mut aux = vec![0u64; aux_len];
                            for i in 0..n {
                                let (l, c, a) = block[i % period];
                                pack(&mut words, i * lw as usize, lw, l);
                                pack(&mut words, n * lw as usize + i * cw as usize, cw, c);
                                if let Some(slot) = aux.get_mut(i) {
                                    *slot = a;
                                }
                            }
                            let expected = ring_reference(&ring, &layout, &words, &aux);
                            let elem =
                                sym.canonicalize(&layout, &mut words, &mut aux, &mut scratch);
                            assert_eq!(
                                (words, aux, elem),
                                expected,
                                "n {n}, widths {lw}/{cw}, aux {aux_len}, trial {trial}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The rotation group of the `n`-ring, which takes the ring path.
    fn rotations(n: usize) -> Symmetry {
        let step = Automorphism {
            node_perm: (0..n as u32).map(|i| (i + 1) % n as u32).collect(),
            edge_perm: (0..n as u32).map(|i| (i + 1) % n as u32).collect(),
        };
        Symmetry::from_generators(n, n, &[step]).unwrap()
    }

    /// The one-word ring path as it read fields before the byte tables:
    /// each position's `(label, countdown)` pair is read field by field
    /// into the digit integer, position 0 most significant, and the least
    /// rotation (least start on ties) is de-interleaved digit by digit.
    fn ring_word_reference(ring: &[u32], layout: &PackedLayout, words: &mut [u64]) -> usize {
        let n = layout.nodes;
        let (lw, cw) = (layout.label_width, layout.countdown_width);
        let k = lw + cw;
        if k == 0 {
            return 0;
        }
        let bits = n as u32 * k;
        let cd_base = n as u32 * lw;
        let (label_mask, cd_mask) = ((1u64 << lw) - 1, (1u64 << cw) - 1);
        let row = words[0];
        let mut x = 0u64;
        for i in 0..n as u32 {
            let label = row >> (i * lw) & label_mask;
            // A zero-width countdown field may sit at bit 64.
            let cd = if cw == 0 {
                0
            } else {
                row >> (cd_base + i * cw) & cd_mask
            };
            x = x << k | label << cw | cd;
        }
        let full = u64::MAX >> (64 - bits);
        let (mut best, mut best_m) = (x, 0);
        let mut rot = x;
        for m in 1..n {
            rot = (rot << k | rot >> (bits - k)) & full;
            if rot < best {
                (best, best_m) = (rot, m);
            }
        }
        if best_m == 0 {
            return 0;
        }
        let mut out = 0u64;
        for i in 0..n as u32 {
            let digit = best >> ((n as u32 - 1 - i) * k);
            out |= (digit >> cw & label_mask) << (i * lw);
            if cw != 0 {
                out |= (digit & cd_mask) << (cd_base + i * cw);
            }
        }
        words[0] = out;
        ring[n - best_m] as usize
    }

    /// The byte-table ring path gives the per-position path's row and
    /// element on every row of every small one-word layout, and on random
    /// rows of larger ones (several bytes, up to a full word), whether the
    /// group is bound to the layout or builds the tables into its scratch.
    #[test]
    fn byte_tables_match_the_per_position_ring_word_path() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xB17E_7AB1);
        let mut scratch = CanonScratch::default();
        let mut check = |n: usize, lw: u32, cw: u32, rows: &mut dyn Iterator<Item = u64>| {
            let sym = rotations(n);
            let ring = sym.ring.clone().unwrap();
            let layout = PackedLayout {
                label_width: lw,
                countdown_width: cw,
                edges: n,
                nodes: n,
                words: 1,
                aux: 0,
            };
            let bound = sym.clone().bind(&layout);
            assert!(bound.word.is_some(), "n {n}, widths {lw}/{cw} bind");
            for row in rows {
                let mut expected = [row];
                let elem = ring_word_reference(&ring, &layout, &mut expected);
                for (group, how) in [(&sym, "scratch"), (&bound, "bound")] {
                    let mut got = [row];
                    let got_elem = group.canonicalize(&layout, &mut got, &mut [], &mut scratch);
                    assert_eq!(
                        (got, got_elem),
                        (expected, elem),
                        "n {n}, widths {lw}/{cw}, row {row:#x}, {how}"
                    );
                }
            }
        };
        for n in 2..=8usize {
            for (lw, cw) in [(0, 1), (1, 0), (1, 1), (2, 1), (1, 2), (2, 2)] {
                let bits = n as u32 * (lw + cw);
                if bits <= 18 {
                    check(n, lw, cw, &mut (0..1u64 << bits));
                } else {
                    let mut random = (0..1 << 14).map(|_| rng.next_u64() >> (64 - bits));
                    check(n, lw, cw, &mut random);
                }
            }
        }
        // Rows that fill the word: no bit is left above the countdown
        // block, or above the label block when there is none.
        for (n, lw, cw) in [
            (8, 4, 4),
            (8, 7, 1),
            (8, 8, 0),
            (16, 2, 2),
            (16, 3, 1),
            (32, 1, 1),
            (32, 2, 0),
            (64, 1, 0),
            (64, 0, 1),
        ] {
            let mut random = (0..1 << 12).map(|_| rng.next_u64());
            check(n, lw, cw, &mut random);
        }
    }

    #[test]
    fn tables_keep_to_their_cap_and_an_empty_alphabet_has_no_entry() {
        // Two entries per node of the 3-ring over {false, true}: 6 in all.
        let p = rotation_ring(3);
        assert!(ReactionTable::build(&p, &[0; 3], &[false, true], 5).is_none());
        let table = ReactionTable::build(&p, &[0; 3], &[false, true], 6).unwrap();
        assert_eq!((0..3).map(|v| table.node_entries(v)).sum::<usize>(), 6);
        // Over no label a protocol with an edge has no labeling: nothing
        // to tabulate, and no reaction runs.
        let never = Protocol::builder(topology::unidirectional_ring(3), 1.0)
            .uniform_reaction(FnReaction::new(|_, _: &[bool], _| {
                panic!("no labeling to react to")
            }))
            .build()
            .unwrap();
        let empty = ReactionTable::build(&never, &[0; 3], &[], u64::MAX).unwrap();
        assert!((0..3).all(|v| empty.node_entries(v) == 0));
    }

    #[test]
    fn derive_finds_ring_rotations_and_uses_booth() {
        let p = rotation_ring(5);
        let sym = Symmetry::derive(&p, &[0; 5], &[false, true]);
        assert_eq!(sym.order(), 5);
        assert!(sym.ring.is_some(), "pure cyclic ring takes the Booth path");
    }

    #[test]
    fn derive_rejects_asymmetric_inputs() {
        let p = rotation_ring(5);
        let sym = Symmetry::derive(&p, &[1, 0, 0, 0, 0], &[false, true]);
        assert!(sym.is_trivial());
    }

    #[test]
    fn canonicalize_is_orbit_constant_on_a_ring() {
        let p = rotation_ring(4);
        let sym = Symmetry::derive(&p, &[0; 4], &[false, true]);
        let layout = PackedLayout {
            label_width: 1,
            countdown_width: 2,
            edges: 4,
            nodes: 4,
            words: 1,
            aux: 0,
        };
        let mut scratch = CanonScratch::default();
        // State: labels 1,0,0,1 / countdowns 2,1,3,1 (stored − 1).
        let labels = [1u64, 0, 0, 1];
        let cds = [1u64, 0, 2, 0];
        let pack_state = |labels: &[u64], cds: &[u64]| -> Vec<u64> {
            let mut w = vec![0u64; 1];
            for (k, &l) in labels.iter().enumerate() {
                pack(&mut w, k, 1, l);
            }
            for (i, &c) in cds.iter().enumerate() {
                pack(&mut w, 4 + 2 * i, 2, c);
            }
            w
        };
        let mut canon0 = pack_state(&labels, &cds);
        sym.canonicalize(&layout, &mut canon0, &mut [], &mut scratch);
        for rot in 1..4 {
            let rl: Vec<u64> = (0..4).map(|k| labels[(k + 4 - rot) % 4]).collect();
            let rc: Vec<u64> = (0..4).map(|i| cds[(i + 4 - rot) % 4]).collect();
            let mut w = pack_state(&rl, &rc);
            sym.canonicalize(&layout, &mut w, &mut [], &mut scratch);
            assert_eq!(w, canon0, "rotation {rot} lands on the same canonical");
        }
    }

    #[test]
    fn coloring_restriction_keeps_placement_preserving_elements() {
        let p = rotation_ring(5);
        let sym = Symmetry::derive(&p, &[0; 5], &[false, true]);
        assert_eq!(sym.order(), 5);
        // Marking node 2 faulty kills every nontrivial rotation.
        let restricted = sym.restrict_to_coloring(&[0, 0, 1, 0, 0]);
        assert!(restricted.is_trivial());
        assert!(restricted.ring.is_none());
        // A uniform coloring keeps the whole group and the Booth path.
        let unrestricted = sym.restrict_to_coloring(&[7; 5]);
        assert_eq!(unrestricted.order(), 5);
        assert!(unrestricted.ring.is_some());
    }

    #[test]
    fn from_generators_rejects_malformed_permutations() {
        assert!(Symmetry::from_generators(
            3,
            3,
            &[Automorphism {
                node_perm: vec![0, 0, 1],
                edge_perm: vec![0, 1, 2],
            }]
        )
        .is_none());
    }
}
