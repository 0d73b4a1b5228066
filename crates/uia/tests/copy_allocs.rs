//! A block copy costs O(1) heap allocations, whatever the block's size.
//!
//! Its own test binary with one test, so the counting global allocator
//! sees nothing else; the count is kept per thread.

use dmi_uia::{ControlProps, ControlType, Lineage, Snapshot};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// A one-window snapshot.
fn window() -> (Snapshot, usize) {
    let mut s = Snapshot::new();
    let w = s.push(ControlProps::new("Window", ControlType::Window), None, 0);
    s.push_window_root(w);
    (s, w)
}

/// A window holding one recorded block: a group of `groups` groups of
/// `leaves` buttons each. Returns the snapshot and the block's root.
fn block_source(groups: usize, leaves: usize) -> (Snapshot, usize) {
    let (mut s, w) = window();
    let root = s.push(ControlProps::new("Block", ControlType::Group), Some(w), 0);
    for g in 0..groups {
        let group =
            s.push(ControlProps::new(format!("Group {g}"), ControlType::Group), Some(root), 0);
        for b in 0..leaves {
            s.push(ControlProps::new(format!("Button {b}"), ControlType::Button), Some(group), 0);
        }
    }
    s.record_block(root, s.len(), Lineage::default());
    (s, root)
}

/// Heap allocations made by copying the block of `src` at `root` into a
/// fresh one-window snapshot.
fn copy_allocs(src: &Snapshot, root: usize) -> usize {
    let (mut dst, w) = window();
    let before = ALLOCS.with(Cell::get);
    dst.append_subtree_from(src, root, w, 0);
    let made = ALLOCS.with(Cell::get) - before;
    assert_eq!(dst.len(), 1 + src.descendants(root).len());
    assert!(dst.block_at(1).is_some(), "the copy carries the lineage");
    made
}

/// A 4-node block (two inner nodes) and a 1,001-node block (251 inner
/// nodes) cost the same allocations to copy: the node reservation and
/// the block record, none per node.
#[test]
fn a_block_copy_allocates_the_same_for_any_size() {
    let (small, small_root) = block_source(1, 2);
    let (large, large_root) = block_source(250, 3);
    assert_eq!(
        (small.descendants(small_root).len(), large.descendants(large_root).len()),
        (4, 1001)
    );
    let (small, large) = (copy_allocs(&small, small_root), copy_allocs(&large, large_root));
    assert_eq!(small, large, "allocations per copy do not grow with the block");
    assert!(large <= 3, "{large} allocations for one copy");
}
