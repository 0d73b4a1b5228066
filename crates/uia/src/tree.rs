//! Immutable accessibility-tree snapshots.
//!
//! A [`Snapshot`] is what a UIA client sees when it walks the tree at one
//! instant: an arena of [`Node`]s in pre-order, each linked to its parent,
//! so a subtree is one contiguous range of the arena. Applications
//! produce a fresh snapshot after every input event; the DMI executor and
//! the GUI ripper both operate exclusively on snapshots, which mirrors how
//! real accessibility clients are decoupled from the provider process.

use crate::index::{Lineage, SnapIndex};
use crate::{ControlId, ControlKey, ControlProps, Rect, RuntimeId};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// One control in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Snapshot-unique runtime id.
    pub runtime_id: RuntimeId,
    /// Property bag, shared by the copies of this node that incremental
    /// providers carry into later snapshots
    /// ([`Snapshot::append_subtree_from`]).
    pub props: Arc<ControlProps>,
    /// Bounding rectangle in virtual screen coordinates: the snapshot's
    /// placement of the node, not one of its properties, so a provider
    /// that copies the node into a later snapshot may move it
    /// ([`Snapshot::set_rect`]).
    pub rect: Rect,
    /// Index of the parent node in the arena, `None` for roots. A node's
    /// children are the later nodes that name it, in z/document order.
    pub parent: Option<usize>,
    /// Index of the top-level window this node belongs to.
    pub window: usize,
}

/// A block of a snapshot recorded by its provider: one subtree's
/// contiguous node range and its identity [`Lineage`]
/// ([`Snapshot::record_block`]).
#[derive(Debug, Clone)]
pub struct Block {
    /// First node of the range: the subtree's root.
    pub start: usize,
    /// One past the last node of the range.
    pub end: usize,
    /// The block's identity lineage.
    pub lineage: Lineage,
}

/// An immutable snapshot of the accessibility tree for a desktop.
///
/// Node index 0.. are arena indices; `windows` lists the arena index of each
/// top-level window root in z-order (last = topmost), mirroring UIA's
/// desktop children. The arena is in pre-order ([`Snapshot::push`]), so
/// parents precede children and a subtree is a range
/// ([`Snapshot::descendants`]).
#[derive(Debug, Default, Clone)]
pub struct Snapshot {
    nodes: Vec<Node>,
    windows: Vec<usize>,
    /// Modality flag per entry of `windows`.
    modal: Vec<bool>,
    /// Blocks recorded by an incremental provider, in arena order; never
    /// compared.
    blocks: Vec<Block>,
    /// Lazily built identity index (see [`SnapIndex`]); invalidated by any
    /// mutation, never compared.
    index: OnceLock<SnapIndex>,
}

// Equality ignores the block records and the derived identity cache.
impl PartialEq for Snapshot {
    fn eq(&self, other: &Snapshot) -> bool {
        self.nodes == other.nodes && self.windows == other.windows && self.modal == other.modal
    }
}

impl Snapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Snapshot::default()
    }

    /// Adds a node as the last child of `parent` and returns its arena
    /// index.
    ///
    /// Keeps the arena in pre-order: `parent` must be the last node pushed
    /// or one of its ancestors.
    pub fn push(&mut self, props: ControlProps, parent: Option<usize>, window: usize) -> usize {
        let idx = self.nodes.len();
        debug_assert!(
            parent.is_none_or(|p| idx > 0 && self.is_in_subtree(idx - 1, p)),
            "pre-order"
        );
        self.index.take();
        let runtime_id = RuntimeId(idx as u64 + 1);
        let props = Arc::new(props);
        let rect = Rect::default();
        self.nodes.push(Node { runtime_id, props, rect, parent, window });
        idx
    }

    /// Appends a copy of the subtree rooted at `root` in another snapshot
    /// as the last child of `parent`, remapping parent indices and
    /// retagging the nodes with the given top-level `window` ordinal.
    /// Returns the arena index of the copied root.
    ///
    /// Providers that rebuild snapshots incrementally use this to carry an
    /// unchanged subtree — one block of a window, with runtime ids,
    /// property bags and rectangles — from an earlier capture instead of
    /// re-walking the widget tree; a provider that lays the block out
    /// elsewhere moves the copied rectangles after the copy
    /// ([`Snapshot::set_rect`]). The subtree is one arena range
    /// ([`Snapshot::descendants`]), copied with one reservation. When
    /// `src` recorded a block at `root`, the copy is recorded as a block
    /// of the same [`Lineage`], so the identity index copies its columns
    /// instead of computing them ([`SnapIndex::build`]).
    pub fn append_subtree_from(
        &mut self,
        src: &Snapshot,
        root: usize,
        parent: usize,
        window: usize,
    ) -> usize {
        let base = self.nodes.len();
        debug_assert!(base > 0 && self.is_in_subtree(base - 1, parent), "copies are in pre-order");
        self.index.take();
        self.nodes.extend(src.nodes[src.descendants(root)].iter().map(|n| Node {
            parent: Some(n.parent.filter(|&p| p >= root).map_or(parent, |p| p - root + base)),
            window,
            ..n.clone()
        }));
        if let Some(b) = src.block_at(root) {
            self.record_block(base, self.nodes.len(), b.lineage.clone());
        }
        base
    }

    /// Records the node range `start..end` — one subtree's arena range
    /// ([`Snapshot::descendants`]), after every block recorded so far — as
    /// a block of
    /// `lineage`. A provider may give two blocks one lineage only when
    /// their nodes, in order, carry equal control types, primary ids and
    /// names: then their identity columns are equal wherever their roots'
    /// ancestor paths are (see [`SnapIndex`]), and so are the per-node
    /// terms a client keeps in the lineage ([`Lineage::node_terms`]). Not
    /// part of equality.
    pub fn record_block(&mut self, start: usize, end: usize, lineage: Lineage) {
        debug_assert!(start < end && self.descendants(start).end == end, "a block is a subtree");
        debug_assert!(self.blocks.last().is_none_or(|b| b.end <= start), "blocks in arena order");
        self.index.take();
        self.blocks.push(Block { start, end, lineage });
    }

    /// The recorded blocks, in arena order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The recorded block whose range starts at `start`, if any.
    pub fn block_at(&self, start: usize) -> Option<&Block> {
        let i = self.blocks.binary_search_by_key(&start, |b| b.start).ok()?;
        Some(&self.blocks[i])
    }

    /// Registers a node as a top-level window root (z-order append).
    pub fn push_window_root(&mut self, idx: usize) {
        self.windows.push(idx);
        self.modal.push(false);
    }

    /// Registers a modal window root (blocks input to windows below it).
    pub fn push_modal_window_root(&mut self, idx: usize) {
        self.windows.push(idx);
        self.modal.push(true);
    }

    /// Whether the `i`-th window (ordinal in [`Snapshot::windows`]) is
    /// modal.
    pub fn window_is_modal(&self, i: usize) -> bool {
        self.modal.get(i).copied().unwrap_or(false)
    }

    /// The ordinal of the topmost modal window, if any.
    pub fn top_modal_window(&self) -> Option<usize> {
        (0..self.windows.len()).rev().find(|&i| self.window_is_modal(i))
    }

    /// Whether a node can receive input right now: no modal window sits
    /// above its window in the z-order.
    pub fn is_available(&self, idx: usize) -> bool {
        match self.top_modal_window() {
            Some(m) => self.nodes[idx].window >= m,
            None => true,
        }
    }

    /// Overrides the runtime id of a node (providers that derive runtime
    /// ids from their own widget identity use this after `push`).
    pub fn set_runtime_id(&mut self, idx: usize, rt: RuntimeId) {
        self.index.take();
        self.nodes[idx].runtime_id = rt;
    }

    /// Places a node at `rect` (providers set it after `push`, and move
    /// copied nodes with it).
    pub fn set_rect(&mut self, idx: usize, rect: Rect) {
        self.nodes[idx].rect = rect;
    }

    /// The snapshot's identity index, built on first use (O(n)) and O(1)
    /// to query thereafter. See [`SnapIndex`] for the design.
    pub fn index(&self) -> &SnapIndex {
        self.index.get_or_init(|| SnapIndex::build(self))
    }

    /// Synthesizes the control identifier of a node from cached parts.
    pub fn control_id(&self, idx: usize) -> ControlId {
        self.index().control_id(self, idx)
    }

    /// The 64-bit identity fingerprint of a node.
    pub fn control_key(&self, idx: usize) -> ControlKey {
        self.index().key(idx)
    }

    /// Resolves a control identifier to the first exactly matching node in
    /// arena order, O(1) via the identity index (with collision confirm).
    pub fn resolve(&self, id: &ControlId) -> Option<usize> {
        self.index().resolve(self, id)
    }

    /// Whether `idx` lies in the subtree rooted at `root` (inclusive).
    pub fn is_in_subtree(&self, idx: usize, root: usize) -> bool {
        std::iter::successors(Some(idx), |&i| self.nodes[i].parent).any(|i| i == root)
    }

    /// Number of nodes in the snapshot.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the snapshot has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow a node by arena index.
    pub fn node(&self, idx: usize) -> &Node {
        &self.nodes[idx]
    }

    /// Arena indices of top-level window roots, bottom to top.
    pub fn windows(&self) -> &[usize] {
        &self.windows
    }

    /// Arena index of the topmost window root, if any.
    pub fn top_window(&self) -> Option<usize> {
        self.windows.last().copied()
    }

    /// Iterates over all nodes with their indices.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Node)> {
        self.nodes.iter().enumerate()
    }

    /// The subtree rooted at `root` (inclusive) in depth-first pre-order:
    /// the arena range from `root` up to the first later node whose parent
    /// precedes `root`.
    pub fn descendants(&self, root: usize) -> Range<usize> {
        let len = self.nodes.len();
        root..(root + 1..len).find(|&j| self.nodes[j].parent < Some(root)).unwrap_or(len)
    }

    /// Slash-delimited ancestor path of names, root-first (§4.1).
    ///
    /// Served from the identity index cache; use
    /// [`SnapIndex::path`] (via [`Snapshot::index`]) to borrow the cached
    /// string without this method's allocation.
    pub fn ancestor_path(&self, idx: usize) -> String {
        self.index().path(idx).to_string()
    }

    /// Finds all nodes matching a predicate.
    pub fn find_all(&self, mut pred: impl FnMut(&Node) -> bool) -> Vec<usize> {
        self.iter().filter(|(_, n)| pred(n)).map(|(i, _)| i).collect()
    }

    /// Finds the first node whose name equals `name`.
    pub fn find_by_name(&self, name: &str) -> Option<usize> {
        self.iter().find(|(_, n)| n.props.name == name).map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ControlProps, ControlType, Rect};

    fn sample() -> Snapshot {
        let mut s = Snapshot::new();
        let w = s.push(ControlProps::new("Main", ControlType::Window), None, 0);
        s.push_window_root(w);
        let tab = s.push(ControlProps::new("Home", ControlType::TabItem), Some(w), 0);
        let grp = s.push(ControlProps::new("Font", ControlType::Group), Some(tab), 0);
        let bold = s.push(ControlProps::new("Bold", ControlType::Button), Some(grp), 0);
        s.set_rect(bold, Rect::new(10, 10, 20, 20));
        s
    }

    #[test]
    fn push_links_parent_and_children() {
        let s = sample();
        assert_eq!(s.len(), 4);
        assert_eq!(s.node(1).parent, Some(0));
        assert_eq!(s.node(3).parent, Some(2));
    }

    #[test]
    fn descendants_pre_order() {
        let s = sample();
        assert_eq!(s.descendants(0), 0..4);
        assert_eq!(s.descendants(2), 2..4);
        assert_eq!(s.descendants(3), 3..4);
    }

    #[test]
    fn ancestor_path_is_root_first() {
        let s = sample();
        assert_eq!(s.ancestor_path(3), "Main/Home/Font");
        assert_eq!(s.ancestor_path(0), "");
    }

    #[test]
    fn find_by_name_and_type() {
        let s = sample();
        assert_eq!(s.find_by_name("Bold"), Some(3));
        assert_eq!(s.find_all(|n| n.props.control_type == ControlType::Group), vec![2]);
    }

    #[test]
    fn subtree_copy_relinks_under_the_given_parent() {
        let src = sample();
        let mut s = Snapshot::new();
        let w = s.push(ControlProps::new("Other", ControlType::Window), None, 1);
        s.push(ControlProps::new("First", ControlType::Button), Some(w), 1);
        let tab = s.append_subtree_from(&src, 1, w, 1);
        assert_eq!(tab, 2);
        assert_eq!(s.node(tab).parent, Some(w));
        assert_eq!(s.node(3).parent, Some(tab));
        assert_eq!(s.node(4).parent, Some(3));
        assert_eq!((s.descendants(w), s.descendants(tab)), (0..5, 2..5));
        assert!(s.iter().all(|(_, n)| n.window == 1));
        assert_eq!(s.node(4).props, src.node(3).props);
        assert_eq!(s.node(4).rect, Rect::new(10, 10, 20, 20));
        assert_eq!(s.ancestor_path(4), "Other/Home/Font");
    }

    #[test]
    fn a_copied_block_keeps_its_lineage() {
        let mut src = sample();
        let lineage = Lineage::default();
        src.record_block(1, 4, lineage.clone());
        let mut s = Snapshot::new();
        let w = s.push(ControlProps::new("Other", ControlType::Window), None, 0);
        s.append_subtree_from(&src, 1, w, 0);
        assert_eq!(s.blocks().len(), 1);
        assert_eq!((s.blocks()[0].start, s.blocks()[0].end), (1, 4));
        assert!(s.blocks()[0].lineage.same(&lineage));
        assert!(s.block_at(1).is_some() && s.block_at(2).is_none());
        // A subtree that is not a recorded block is copied unrecorded.
        s.append_subtree_from(&src, 2, w, 0);
        assert_eq!(s.blocks().len(), 1);
        // Records are not part of equality.
        let mut plain = s.clone();
        plain.blocks.clear();
        assert_eq!(plain, s);
    }

    #[test]
    fn runtime_ids_unique() {
        let s = sample();
        let mut ids: Vec<_> = s.iter().map(|(_, n)| n.runtime_id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), s.len());
    }
}
