//! Immutable accessibility-tree snapshots.
//!
//! A [`Snapshot`] is what a UIA client sees when it walks the tree at one
//! instant: an arena of [`Node`]s with parent/child links. Applications
//! produce a fresh snapshot after every input event; the DMI executor and
//! the GUI ripper both operate exclusively on snapshots, which mirrors how
//! real accessibility clients are decoupled from the provider process.

use crate::index::SnapIndex;
use crate::{ControlId, ControlKey, ControlProps, RuntimeId};
use std::sync::OnceLock;

/// One control in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Snapshot-unique runtime id.
    pub runtime_id: RuntimeId,
    /// Property bag.
    pub props: ControlProps,
    /// Index of the parent node in the arena, `None` for roots.
    pub parent: Option<usize>,
    /// Indices of child nodes, in z/document order.
    pub children: Vec<usize>,
    /// Index of the top-level window this node belongs to.
    pub window: usize,
}

/// An immutable snapshot of the accessibility tree for a desktop.
///
/// Node index 0.. are arena indices; `windows` lists the arena index of each
/// top-level window root in z-order (last = topmost), mirroring UIA's
/// desktop children.
#[derive(Debug, Default, Clone)]
pub struct Snapshot {
    nodes: Vec<Node>,
    windows: Vec<usize>,
    /// Modality flag per entry of `windows`.
    modal: Vec<bool>,
    /// Lazily built identity index (see [`SnapIndex`]); invalidated by any
    /// mutation, never compared.
    index: OnceLock<SnapIndex>,
}

// Equality ignores the derived identity cache.
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

    /// Adds a node and returns its arena index.
    ///
    /// `parent` must be an index previously returned by `push`.
    pub fn push(&mut self, props: ControlProps, parent: Option<usize>, window: usize) -> usize {
        self.index.take();
        let idx = self.nodes.len();
        let runtime_id = RuntimeId(idx as u64 + 1);
        self.nodes.push(Node { runtime_id, props, parent, children: Vec::new(), window });
        if let Some(p) = parent {
            self.nodes[p].children.push(idx);
        }
        idx
    }

    /// Appends a copy of the node range `start..end` from another snapshot,
    /// remapping parent/child indices and retagging the nodes with the
    /// given top-level `window` ordinal. Returns the arena index of the
    /// first copied node (the subtree root when the range is one window's
    /// contiguous DFS block).
    ///
    /// Providers that rebuild snapshots incrementally use this to carry an
    /// unchanged window's subtree — rectangles, runtime ids, and all —
    /// from the previous capture instead of re-walking the widget tree.
    /// The range must be self-contained: every in-range node's parent is
    /// either in range or `None`, as is the case for the contiguous block
    /// a window's DFS emits.
    pub fn append_window_from(
        &mut self,
        src: &Snapshot,
        start: usize,
        end: usize,
        window: usize,
    ) -> usize {
        self.index.take();
        let base = self.nodes.len();
        for i in start..end {
            let n = &src.nodes[i];
            debug_assert!(
                n.parent.is_none_or(|p| (start..end).contains(&p)),
                "copied window range must be self-contained"
            );
            self.nodes.push(Node {
                runtime_id: n.runtime_id,
                props: n.props.clone(),
                parent: n.parent.map(|p| p - start + base),
                children: n.children.iter().map(|&c| c - start + base).collect(),
                window,
            });
        }
        base
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
        let mut cur = Some(idx);
        while let Some(i) = cur {
            if i == root {
                return true;
            }
            cur = self.nodes[i].parent;
        }
        false
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

    /// Depth-first pre-order traversal below `root` (inclusive).
    pub fn descendants(&self, root: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(i) = stack.pop() {
            out.push(i);
            // Push children reversed so traversal is document-order.
            for &c in self.nodes[i].children.iter().rev() {
                stack.push(c);
            }
        }
        out
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
        let mut bold = ControlProps::new("Bold", ControlType::Button);
        bold.rect = Rect::new(10, 10, 20, 20);
        s.push(bold, Some(grp), 0);
        s
    }

    #[test]
    fn push_links_parent_and_children() {
        let s = sample();
        assert_eq!(s.len(), 4);
        assert_eq!(s.node(0).children, vec![1]);
        assert_eq!(s.node(3).parent, Some(2));
    }

    #[test]
    fn descendants_pre_order() {
        let s = sample();
        assert_eq!(s.descendants(0), vec![0, 1, 2, 3]);
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
    fn runtime_ids_unique() {
        let s = sample();
        let mut ids: Vec<_> = s.iter().map(|(_, n)| n.runtime_id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), s.len());
    }
}
