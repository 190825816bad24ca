//! # stateless-protocols
//!
//! Every protocol construction in "Stateless Computation", as runnable
//! code:
//!
//! | Paper anchor | Module | What it builds |
//! |---|---|---|
//! | Example 1 (§3) | [`example1`] | The clique protocol with two stable labelings; oscillates under an (n−1)-fair schedule, converges under anything fairer |
//! | Proposition 2.3 | [`generic`] | The two-spanning-tree protocol computing any `f` with `Lₙ = n+1`, `Rₙ ≤ 2n` |
//! | Lemma C.2(2) | [`worst_case`] | The unidirectional-ring protocol with `Rₙ = n(|Σ|−1)` |
//! | Theorem 5.2 | [`tm_ring`] | The logspace-TM simulation on the unidirectional ring |
//! | Claims 5.5 / 5.6 | [`counter`] | The stateless 2-counter and D-counter on odd bidirectional rings |
//! | Theorem 5.4 | [`circuit_ring`] | The Boolean-circuit compiler onto the bidirectional ring |
//! | Theorem 4.1 / B.4 / B.7 | [`snake_reduction`] | The snake-in-the-box clique protocols reducing EQ and DISJ to stabilization verification |
//! | Theorem B.11 | [`string_oscillation`] | The String-Oscillation problem and its stateful-protocol reduction |
//! | Theorem B.14 | [`metanode`] | The stateful → stateless metanode transformation `Kₙ → K₃ₙ` |
//! | §6 (fault tolerance), cf. arXiv:2502.17035 | [`bfs_tree`] | The self-stabilizing BFS distance/parent spanning-tree rule on rooted topologies, verified fault-free and under Byzantine placements |
//!
//! The branching-program compilations of Theorem 5.2 live in the
//! `branching-program` crate (`branching_program::convert`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs_tree;
pub mod circuit_ring;
pub mod counter;
pub mod example1;
pub mod generic;
pub mod metanode;
pub mod snake_reduction;
pub mod stateful;
pub mod string_oscillation;
pub mod tm_ring;
pub mod worst_case;
