//! An `Auto` instance whose labelings outnumber the state budget times
//! its symmetry group can never be seeded: an orbit holds at most `|G|`
//! labelings, so it has more canonical seeds than the budget. It must be
//! refused as `TooManyStates` once the group is known, before seeding. A
//! byte-counting global allocator (per thread, so the test harness's own
//! threads never count) checks that the refusal allocates next to
//! nothing; seeding until the budget tripped allocated over 300 MB in
//! all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use stateless_computation::core::prelude::*;
use stateless_computation::protocols::bfs_tree::{bfs_alphabet, bfs_tree_protocol};
use stateless_computation::verify::{
    verify_label_stabilization, Limits, SymmetryMode, VerifyError,
};

struct Counting;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the count touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.with(|c| c.set(c.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.with(|c| c.set(c.get() + new_size as u64));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocated() -> u64 {
    BYTES.with(Cell::get)
}

/// The BFS tree on the 16-node bidirectional ring, distances capped at
/// 16: 17^32 labelings, and root 0 breaks every rotation.
#[test]
fn auto_refuses_an_unseedable_instance_before_seeding() {
    let protocol =
        bfs_tree_protocol(topology::bidirectional_ring(16), 0, 16, FaultModel::none()).unwrap();
    let alphabet = bfs_alphabet(16);
    let limits = Limits {
        max_states: 1_000_000,
        threads: 1,
        symmetry: SymmetryMode::Auto,
        ..Limits::default()
    };
    let before = allocated();
    let got = verify_label_stabilization(&protocol, &[0; 16], &alphabet, 1, limits);
    let bytes = allocated() - before;
    assert_eq!(
        got.err(),
        Some(VerifyError::TooManyStates { limit: 1_000_000 })
    );
    assert!(bytes < 1 << 20, "the refusal allocated {bytes} bytes");
}
