//! Stable-labeling enumeration: the hypothesis side of Theorem 3.1.

use stateless_core::convergence::{all_labelings, par_sweep_init};
use stateless_core::label::Label;
use stateless_core::prelude::*;

/// Enumerates every stable labeling (fixed point of all reactions) of
/// `protocol` under `inputs`, over the given label alphabet.
///
/// The `|Σ|^|E|` candidate labelings are probed in parallel across all
/// cores through the allocation-free buffered reaction path
/// ([`Protocol::is_stable_labeling_buffered`] with per-worker scratch via
/// [`par_sweep_init`]); the result order matches the [`all_labelings`]
/// enumeration, so it is deterministic.
///
/// Theorem 3.1 says: **two or more** results here ⟹ the protocol is not
/// label (n−1)-stabilizing.
///
/// # Errors
///
/// Returns length-validation errors up front. A reaction that misbehaves
/// on the buffered path panics (see
/// [`Reaction::react_into`]).
pub fn enumerate_stable_labelings<L: Label>(
    protocol: &Protocol<L>,
    inputs: &[Input],
    alphabet: &[L],
) -> Result<Vec<Vec<L>>, CoreError> {
    // Validate the input/labeling lengths once, through the validating
    // probe on the first candidate; the sweep itself then runs the
    // buffered probe with reusable per-worker scratch buffers.
    if let Some(labeling) = all_labelings(alphabet, protocol.edge_count()).next() {
        protocol.is_stable_labeling(&labeling, inputs)?;
    }
    let probed = par_sweep_init(
        || (Vec::new(), Vec::new()),
        all_labelings(alphabet, protocol.edge_count()),
        |(in_buf, out_buf), labeling| {
            if protocol.is_stable_labeling_buffered(&labeling, inputs, in_buf, out_buf) {
                Some(labeling)
            } else {
                None
            }
        },
    );
    Ok(probed.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stateless_core::reaction::FnReaction;

    /// The Example 1 reaction, reconstructed locally to avoid a dependency
    /// cycle with `stateless-protocols` (which dev-depends on this crate).
    fn example1(n: usize) -> Protocol<bool> {
        let deg = n - 1;
        Protocol::builder(topology::clique(n), 1.0)
            .uniform_reaction(FnReaction::new(move |_, incoming: &[bool], _| {
                let bit = incoming.iter().any(|&b| b);
                (vec![bit; deg], u64::from(bit))
            }))
            .build()
            .unwrap()
    }

    #[test]
    fn example1_has_exactly_two_stable_labelings() {
        for n in [3usize, 4] {
            let p = example1(n);
            let stable = enumerate_stable_labelings(&p, &vec![0; n], &[false, true]).unwrap();
            assert_eq!(stable.len(), 2, "n = {n}");
            assert!(stable.contains(&vec![false; n * (n - 1)]));
            assert!(stable.contains(&vec![true; n * (n - 1)]));
        }
    }

    #[test]
    fn rotation_has_uniform_stable_labelings_only() {
        let p = Protocol::builder(topology::unidirectional_ring(3), 1.0)
            .uniform_reaction(FnReaction::new(|_, inc: &[bool], _| (vec![inc[0]], 0)))
            .build()
            .unwrap();
        let stable = enumerate_stable_labelings(&p, &[0; 3], &[false, true]).unwrap();
        // Fixed points of rotation: constant labelings.
        assert_eq!(stable.len(), 2);
    }
}
