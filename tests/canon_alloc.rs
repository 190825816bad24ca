//! `Symmetry::canonicalize` must not allocate once its `CanonScratch` is
//! warm: the verifier canonicalizes every regenerated product edge, so
//! one allocation per call is one per edge. A counting global allocator
//! (per thread, so the test harness's own threads never count) checks
//! the ring path with and without an aux row, and the orbit scan on the
//! bidirectional ring's dihedral group.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use stateless_computation::core::intern::pack;
use stateless_computation::core::prelude::*;
use stateless_computation::core::symmetry::{Automorphism, CanonScratch, PackedLayout, Symmetry};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Random packed states (words, aux) for `layout`, built before counting.
fn random_states(layout: &PackedLayout, count: usize, seed: u64) -> Vec<(Vec<u64>, Vec<u64>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (lw, cw) = (layout.label_width, layout.countdown_width);
    (0..count)
        .map(|_| {
            let mut words = vec![0u64; layout.words];
            for k in 0..layout.edges {
                pack(
                    &mut words,
                    k * lw as usize,
                    lw,
                    rng.random_range(0..1u64 << lw),
                );
            }
            for i in 0..layout.nodes {
                let bit = layout.edges * lw as usize + i * cw as usize;
                pack(&mut words, bit, cw, rng.random_range(0..1u64 << cw));
            }
            let aux = (0..layout.aux).map(|_| rng.next_u64() % 4).collect();
            (words, aux)
        })
        .collect()
}

/// Canonicalizes every state once to warm `scratch`, then counts the
/// allocations of canonicalizing all of them again, 10 times over.
fn allocations_after_warmup(sym: &Symmetry, layout: &PackedLayout, aux_len: usize) -> u64 {
    let layout = PackedLayout {
        aux: aux_len,
        ..*layout
    };
    let states = random_states(&layout, 256, 0xA110C);
    let mut work = states.clone();
    let mut scratch = CanonScratch::default();
    for (words, aux) in &mut work {
        sym.canonicalize(&layout, words, aux, &mut scratch);
    }
    let mut moved = 0usize;
    let before = allocations();
    for _ in 0..10 {
        for ((words, aux), (w0, a0)) in work.iter_mut().zip(&states) {
            words.copy_from_slice(w0);
            aux.copy_from_slice(a0);
            moved += usize::from(sym.canonicalize(&layout, words, aux, &mut scratch) != 0);
        }
    }
    let counted = allocations() - before;
    assert!(moved > 0, "some states must be rewritten");
    counted
}

fn ring_layout(n: usize, edges: usize, lw: u32, cw: u32) -> PackedLayout {
    PackedLayout {
        label_width: lw,
        countdown_width: cw,
        edges,
        nodes: n,
        words: (edges * lw as usize + n * cw as usize).div_ceil(64),
        aux: 0,
    }
}

#[test]
fn ring_path_is_allocation_free_once_warm() {
    let n = 8;
    let step = Automorphism {
        node_perm: (0..n as u32).map(|i| (i + 1) % n as u32).collect(),
        edge_perm: (0..n as u32).map(|i| (i + 1) % n as u32).collect(),
    };
    let sym = Symmetry::from_generators(n, n, &[step]).unwrap();
    let layout = ring_layout(n, n, 2, 2);
    assert_eq!(allocations_after_warmup(&sym, &layout, 0), 0, "no aux");
    assert_eq!(allocations_after_warmup(&sym, &layout, n), 0, "with aux");
}

#[test]
fn orbit_scan_is_allocation_free_once_warm() {
    // Rotations plus a reflection of the bidirectional ring: the dihedral
    // group of order 2n, which the ring path does not cover.
    let n = 6;
    let graph = topology::bidirectional_ring(n);
    let protocol = Protocol::builder(graph.clone(), 1.0)
        .uniform_reaction(FnBufReaction::new(
            vec![0u64; 2],
            |_, incoming: &[u64], _, out: &mut [u64]| {
                let w = incoming.iter().sum::<u64>() % 2;
                out.fill(w);
                w
            },
        ))
        .build()
        .unwrap();
    let sym = Symmetry::derive(&protocol, &vec![0u64; n], &[0u64, 1]);
    assert_eq!(sym.order(), 2 * n, "dihedral group");
    let layout = ring_layout(n, graph.edge_count(), 1, 2);
    assert_eq!(allocations_after_warmup(&sym, &layout, 0), 0, "no aux");
    assert_eq!(allocations_after_warmup(&sym, &layout, n), 0, "with aux");
}
