//! The mutable provider-side control tree.
//!
//! A [`UiTree`] is an arena of widgets plus the runtime UI state the
//! toolkit manages: the open-window stack (main window, dialogs, child
//! windows), the open-popup chain (menus, dropdowns), keyboard focus,
//! and late-loading containers. A contextual control (PowerPoint's
//! Picture Format tab) is an ordinary widget whose `visible` flag its
//! application writes.
//!
//! Widgets are never removed from the arena — hidden instead — so
//! [`WidgetId`]s are stable for the lifetime of the application instance.
//!
//! The arena is copy-on-write: widgets live in fixed-size chunks behind
//! [`Arc`]s, a clone shares every chunk, and the first write to a shared
//! chunk copies only that chunk. Forking a launch image, restoring one
//! (a restart is a fork in place), and dropping a tree therefore cost
//! the chunks touched, not the arena.

use crate::widget::{Widget, WidgetId};
use dmi_uia::ControlType;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Widgets per arena chunk (a power of two, so indexing is a shift and a
/// mask).
const CHUNK: usize = 64;

/// An entry in the open-window stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenWindow {
    /// Arena root of the window.
    pub root: WidgetId,
    /// Whether input outside the window is blocked.
    pub modal: bool,
}

/// The provider-side control tree and its runtime UI state.
///
/// A clone shares every arena chunk and copies the rest, epochs and
/// stamps included: it is the same state as its source, and continues
/// its clocks from the same readings.
#[derive(Debug, Default, Clone)]
pub struct UiTree {
    /// The widget arena: `CHUNK`-sized chunks, every one full but the
    /// last, shared copy-on-write between clones.
    widgets: Vec<Arc<Vec<Widget>>>,
    /// Arena root of the main application window.
    main_root: Option<WidgetId>,
    /// Open windows, bottom to top; index 0 is the main window.
    open_windows: Vec<OpenWindow>,
    /// Open popup containers, in open order (a chain for nested menus).
    open_popups: Vec<WidgetId>,
    /// Keyboard focus.
    focus: Option<WidgetId>,
    /// Widgets whose children are still "loading" (instability
    /// injection), each with the query sequence number at which
    /// `UiTree::reveal_loaded` shows them: hidden from captures until
    /// then. Setting and dropping a schedule are both stamped writes.
    pending_children: BTreeMap<WidgetId, u64>,
    /// Counter of *persistent* state mutations: widget property writes,
    /// arena growth, selection and focus changes — the state a
    /// freshly launched application would not have. Deliberately
    /// NOT bumped by window/popup open/close (transient UI, undone by Esc)
    /// or tab selection (self-healing: selecting a tab deselects its
    /// siblings). The ripper's recovery planner compares epochs to decide
    /// whether pressing Esc can reach a launch-equivalent state or a full
    /// restart is required (§4.1 state restoration). Monotonic between
    /// restarts: a restored tree reads its image's epoch again.
    state_epoch: u64,
    /// Clock issuing mutation stamps (see [`UiTree::window_stamp`]).
    /// Shared across roots so stamps are totally ordered within one tree
    /// lineage; a clone continues it, so two clones of one image issue
    /// the same ticks.
    view_clock: u64,
    /// Stamp of the last *snapshot-visible* mutation per arena root and
    /// per block (a root's child with its descendants; see
    /// [`UiTree::block_stamp`]): widget property writes, arena growth,
    /// tab/item selection, and pending-children schedules and reveals
    /// under it. Popup expansion and the window stack are deliberately
    /// NOT stamped — they are keyed structurally (open-popup chain,
    /// open-window stack) by the capture cache, so transient open+close
    /// sequences return to a cache hit.
    stamps: BTreeMap<WidgetId, u64>,
}

impl UiTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        UiTree::default()
    }

    /// Stamps the window (arena root) containing `id`, and the block
    /// containing it unless `id` is the root, with a fresh view tick: any
    /// capture of that window or block cached against an earlier stamp
    /// is stale.
    fn stamp(&mut self, id: WidgetId) {
        let (root, block) = self.root_and_block_of(id);
        self.view_clock += 1;
        self.stamps.insert(root, self.view_clock);
        if let Some(block) = block {
            self.stamps.insert(block, self.view_clock);
        }
    }

    /// Copy-on-write access to one arena slot: the slot's chunk is copied
    /// first if another tree shares it. Every widget write goes through
    /// here.
    fn slot_mut(&mut self, id: WidgetId) -> &mut Widget {
        &mut Arc::make_mut(&mut self.widgets[id.0 / CHUNK])[id.0 % CHUNK]
    }

    /// Writes a widget's `selected` flag, copying nothing when the flag
    /// already holds `on`. A write stamps the widget: a sibling of the
    /// selected widget may lie in another block.
    fn set_selected(&mut self, id: WidgetId, on: bool) {
        if self.widget(id).selected != on {
            self.stamp(id);
            self.slot_mut(id).selected = on;
        }
    }

    /// Writes a widget's `expanded` flag, copying nothing when the flag
    /// already holds `on`.
    fn set_expanded(&mut self, id: WidgetId, on: bool) {
        if self.widget(id).expanded != on {
            self.slot_mut(id).expanded = on;
        }
    }

    /// Appends a widget to the arena.
    fn push(&mut self, w: Widget) -> WidgetId {
        let id = WidgetId(self.len());
        match self.widgets.last_mut() {
            Some(last) if last.len() < CHUNK => Arc::make_mut(last).push(w),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(w);
                self.widgets.push(Arc::new(chunk));
            }
        }
        id
    }

    /// Adds a root widget (no parent). The first root added becomes the
    /// main window and is opened immediately; later roots are dialog or
    /// child-window roots, closed until opened.
    pub fn add_root(&mut self, w: Widget) -> WidgetId {
        let mut w = w;
        w.parent = None;
        self.state_epoch += 1;
        let id = self.push(w);
        self.stamp(id);
        if self.main_root.is_none() {
            self.main_root = Some(id);
            self.open_windows.push(OpenWindow { root: id, modal: false });
        }
        id
    }

    /// Adds a child widget under `parent` and returns its id.
    pub fn add(&mut self, parent: WidgetId, w: Widget) -> WidgetId {
        let mut w = w;
        w.parent = Some(parent);
        self.state_epoch += 1;
        let id = self.push(w);
        self.slot_mut(parent).children.push(id);
        self.stamp(parent);
        id
    }

    /// Number of widgets in the arena.
    pub fn len(&self) -> usize {
        self.widgets.last().map_or(0, |last| (self.widgets.len() - 1) * CHUNK + last.len())
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.widgets.is_empty()
    }

    /// Borrows a widget.
    pub fn widget(&self, id: WidgetId) -> &Widget {
        &self.widgets[id.0 / CHUNK][id.0 % CHUNK]
    }

    /// Mutably borrows a widget. Counts as a persistent state mutation
    /// (see [`UiTree::state_epoch`]): callers hold a write handle, and the
    /// tree must assume a property changed.
    pub fn widget_mut(&mut self, id: WidgetId) -> &mut Widget {
        self.state_epoch += 1;
        self.stamp(id);
        self.slot_mut(id)
    }

    /// Renames a widget WITHOUT bumping the state epoch or the window
    /// stamp — the tree's change-tracking invariant is deliberately
    /// violated. Fault-injection hook for the fuzzer: a provider whose
    /// properties drift while its stamps claim nothing changed models a
    /// real app lying to the capture cache. Never call this from
    /// production code; every capture layer is entitled to trust stamps.
    #[doc(hidden)]
    pub fn relabel_unstamped(&mut self, id: WidgetId, name: impl Into<String>) {
        self.slot_mut(id).name = name.into();
    }

    /// The persistent-mutation epoch. Two equal readings with no restart
    /// between them bracket a span in which no widget property, arena,
    /// selection, or focus changed — transient window/popup
    /// state and tab selection excluded — so pressing Esc back to the base
    /// window provably restores a launch-equivalent UI. The epoch only
    /// grows between restarts, but a restart restores the image's tree and
    /// so its epoch: a reading taken before a restart proves nothing after
    /// it (the ripper records its base epoch after each restart).
    pub fn state_epoch(&self) -> u64 {
        self.state_epoch
    }

    /// The stamp of the last snapshot-visible mutation inside the window
    /// rooted at `root` (widget writes, arena growth, tab/item selection,
    /// pending-children schedules and reveals). Popup expansion and the
    /// window stack move no stamp — capture caches key them structurally,
    /// so transient open+close sequences compare equal again. Two equal
    /// readings (with equal popup chains) and no restart
    /// between them prove the window's snapshot subtree and layout rows
    /// are byte-identical. A restart rewinds every stamp to the image's,
    /// so a write before it and another write after it can read the same
    /// tick (which is why a restart empties the capture cache). A root or
    /// block never stamped reads 0.
    ///
    /// Every mutation that stamps a window also stamps the block it lands
    /// in ([`UiTree::block_stamp`]), unless it lands on the root itself.
    pub fn window_stamp(&self, root: WidgetId) -> u64 {
        self.stamps.get(&root).copied().unwrap_or(0)
    }

    /// The stamp of the last snapshot-visible mutation inside the block
    /// rooted at `block`, a child of a window root: the same ticks as
    /// [`UiTree::window_stamp`], recorded on the block each one lands in.
    /// Two equal readings (with equal popups inside the block and
    /// off-screen flag of the block root, and no restart between them)
    /// prove the block's snapshot nodes are byte-identical up to
    /// their placement, wherever the window around it changed: the rows
    /// above the block only move it (`layout::shift_rect`).
    pub fn block_stamp(&self, block: WidgetId) -> u64 {
        self.stamps.get(&block).copied().unwrap_or(0)
    }

    /// The open popups whose subtrees live under `root`, in chain order.
    /// Part of every per-window capture key: expansion state is kept in
    /// lockstep with the chain by [`UiTree::open_popup`] and
    /// [`UiTree::collapse_popup`].
    pub fn popups_under(&self, root: WidgetId) -> Vec<WidgetId> {
        self.open_popups.iter().copied().filter(|&p| self.root_of(p) == root).collect()
    }

    /// Iterates over all widgets with ids.
    pub fn iter(&self) -> impl Iterator<Item = (WidgetId, &Widget)> {
        self.widgets
            .iter()
            .flat_map(|chunk| chunk.iter())
            .enumerate()
            .map(|(i, w)| (WidgetId(i), w))
    }

    /// The main window root.
    pub fn main_root(&self) -> WidgetId {
        self.main_root.expect("tree has no main root")
    }

    /// The open-window stack, bottom to top.
    pub fn open_windows(&self) -> &[OpenWindow] {
        &self.open_windows
    }

    /// The topmost open window.
    pub fn top_window(&self) -> OpenWindow {
        *self.open_windows.last().expect("window stack empty")
    }

    /// The chain of open popups, outermost first.
    pub fn open_popups(&self) -> &[WidgetId] {
        &self.open_popups
    }

    /// The focused widget, if any.
    pub fn focus(&self) -> Option<WidgetId> {
        self.focus
    }

    /// Sets keyboard focus.
    pub fn set_focus(&mut self, id: Option<WidgetId>) {
        if self.focus != id {
            self.state_epoch += 1;
        }
        self.focus = id;
    }

    /// Whether the window rooted at `root` is open.
    pub fn is_window_open(&self, root: WidgetId) -> bool {
        self.open_windows.iter().any(|w| w.root == root)
    }

    /// Opens the window rooted at `root` (push on top of the stack).
    pub fn open_window(&mut self, root: WidgetId, modal: bool) {
        if !self.is_window_open(root) {
            self.open_windows.push(OpenWindow { root, modal });
        }
    }

    /// Closes the topmost window (never the main window). Returns its root.
    pub fn close_top_window(&mut self) -> Option<WidgetId> {
        if self.open_windows.len() > 1 {
            // Close any popups that live inside the window being closed.
            let root = self.open_windows.pop().map(|w| w.root);
            if let Some(r) = root {
                let inside: Vec<WidgetId> = self
                    .open_popups
                    .iter()
                    .copied()
                    .filter(|&p| self.window_root_of(p) == Some(r))
                    .collect();
                for p in inside {
                    self.collapse_popup(p);
                }
            }
            root
        } else {
            None
        }
    }

    /// Opens a popup container (marks expanded, appends to the chain).
    pub fn open_popup(&mut self, id: WidgetId) {
        if !self.open_popups.contains(&id) {
            self.set_expanded(id, true);
            self.open_popups.push(id);
        }
    }

    /// Closes one popup (and any popups opened after it).
    pub fn collapse_popup(&mut self, id: WidgetId) {
        if let Some(pos) = self.open_popups.iter().position(|&p| p == id) {
            // Later popups are nested under this one and close with it.
            let closing: Vec<WidgetId> = self.open_popups.drain(pos..).collect();
            for p in closing {
                self.set_expanded(p, false);
            }
        }
    }

    /// Closes every open popup.
    pub fn close_all_popups(&mut self) {
        let all: Vec<WidgetId> = self.open_popups.drain(..).collect();
        for p in all {
            self.set_expanded(p, false);
        }
    }

    /// Closes popups that do not contain `id` in their subtree (clicking
    /// elsewhere dismisses unrelated menus).
    pub fn close_popups_not_containing(&mut self, id: WidgetId) {
        let keep: Vec<WidgetId> = self
            .open_popups
            .iter()
            .copied()
            .take_while(|&p| self.is_descendant_or_self(id, p))
            .collect();
        let to_close: Vec<WidgetId> = self.open_popups[keep.len()..].to_vec();
        if let Some(&first) = to_close.first() {
            self.collapse_popup(first);
        }
    }

    /// Whether `id` is `anc` or inside `anc`'s subtree.
    pub fn is_descendant_or_self(&self, id: WidgetId, anc: WidgetId) -> bool {
        let mut cur = Some(id);
        while let Some(c) = cur {
            if c == anc {
                return true;
            }
            cur = self.widget(c).parent;
        }
        false
    }

    /// The arena root above `id`.
    pub fn root_of(&self, id: WidgetId) -> WidgetId {
        self.root_and_block_of(id).0
    }

    /// The arena root above `id` and the block `id` lies in: its ancestor
    /// (or itself) that is a child of the root, `None` when `id` is the
    /// root. A block is the unit of capture reuse inside a window (see
    /// [`UiTree::block_stamp`]).
    pub fn root_and_block_of(&self, id: WidgetId) -> (WidgetId, Option<WidgetId>) {
        let (mut cur, mut block) = (id, None);
        while let Some(p) = self.widget(cur).parent {
            block = Some(cur);
            cur = p;
        }
        (cur, block)
    }

    /// The open-window root containing `id`, if its root is open.
    pub fn window_root_of(&self, id: WidgetId) -> Option<WidgetId> {
        let root = self.root_of(id);
        self.is_window_open(root).then_some(root)
    }

    /// Whether a widget is currently revealed (its window open, every
    /// popup ancestor expanded, every tab ancestor selected, and its own
    /// and every ancestor's `visible` flag on).
    pub fn is_shown(&self, id: WidgetId) -> bool {
        let mut cur = Some(id);
        while let Some(c) = cur {
            if !self.is_shown_if_parent_is(c) {
                return false;
            }
            cur = self.widget(c).parent;
        }
        true
    }

    /// [`UiTree::is_shown`] for a widget whose parent is known to be
    /// shown (a root's answer is exact): the widget's own conditions and
    /// its parent's popup and tab gating, without the walk up to the
    /// root. Tree walks that descend only into shown widgets use it.
    pub(crate) fn is_shown_if_parent_is(&self, id: WidgetId) -> bool {
        let w = self.widget(id);
        if !w.visible {
            return false;
        }
        match w.parent {
            None => self.is_window_open(id),
            Some(p) => {
                let pw = self.widget(p);
                (!pw.popup || pw.expanded)
                    && (pw.control_type != ControlType::TabItem || pw.selected)
            }
        }
    }

    /// Selects a tab item, deselecting its sibling tab items.
    pub fn select_tab(&mut self, id: WidgetId) {
        self.stamp(id);
        let parent = self.widget(id).parent;
        if let Some(p) = parent {
            let siblings: Vec<WidgetId> = self
                .widget(p)
                .children
                .iter()
                .copied()
                .filter(|&c| self.widget(c).control_type == ControlType::TabItem)
                .collect();
            for s in siblings {
                self.set_selected(s, s == id);
            }
        } else {
            self.set_selected(id, true);
        }
    }

    /// Selects a selection item; when not `additive`, deselects siblings.
    pub fn select_item(&mut self, id: WidgetId, additive: bool) {
        self.state_epoch += 1;
        self.stamp(id);
        if !additive {
            if let Some(p) = self.widget(id).parent {
                let siblings = self.widget(p).children.clone();
                for s in siblings {
                    self.set_selected(s, false);
                }
            }
        }
        self.set_selected(id, true);
    }

    /// Marks a container's children as still loading until query
    /// `ready_query`: the capture leaves them out until
    /// `UiTree::reveal_loaded` reaches that query. A schedule is a
    /// stamped write (a persistent one too: the launch state has none).
    pub fn set_pending_children(&mut self, id: WidgetId, ready_query: u64) {
        self.state_epoch += 1;
        self.stamp(id);
        self.pending_children.insert(id, ready_query);
    }

    /// Reveals every container whose children finish loading by query
    /// `query_seq`: drops its schedule and stamps its window and block,
    /// so the reveal is a snapshot-visible write like any other and no
    /// capture taken while the children were hidden matches after it.
    /// Moves no state epoch: a reveal only shows children already there,
    /// so Esc recovery sees nothing new. The session calls it once per
    /// query, before the capture.
    pub(crate) fn reveal_loaded(&mut self, query_seq: u64) {
        let ready: Vec<WidgetId> = self
            .pending_children
            .iter()
            .filter(|&(_, &r)| r <= query_seq)
            .map(|(&id, _)| id)
            .collect();
        for id in ready {
            self.pending_children.remove(&id);
            self.stamp(id);
        }
    }

    /// Whether a container's children are still loading (hidden from
    /// captures until a reveal).
    pub fn is_loading(&self, id: WidgetId) -> bool {
        self.pending_children.contains_key(&id)
    }

    /// Finds the first widget with the given name (structural search).
    pub fn find_by_name(&self, name: &str) -> Option<WidgetId> {
        self.iter().find(|(_, w)| w.name == name).map(|(i, _)| i)
    }

    /// Finds the first widget with the given automation id.
    pub fn find_by_automation_id(&self, auto: &str) -> Option<WidgetId> {
        self.iter().find(|(_, w)| w.automation_id == auto).map(|(i, _)| i)
    }

    /// Restores the runtime UI state to "freshly launched": only the main
    /// window open, no popups, no focus, no late loads. Widget state
    /// (values, toggles) is left to the application's own reset.
    pub fn reset_ui_state(&mut self) {
        self.close_all_popups();
        while self.open_windows.len() > 1 {
            self.open_windows.pop();
        }
        self.focus = None;
        // Dropping a schedule re-reveals hidden subtrees: stamp every
        // window and block that had one outstanding.
        for id in std::mem::take(&mut self.pending_children).into_keys() {
            self.stamp(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::widget::WidgetBuilder;
    use dmi_uia::ControlType as CT;

    fn tree() -> (UiTree, WidgetId, WidgetId, WidgetId, WidgetId) {
        let mut t = UiTree::new();
        let main = t.add_root(Widget::new("Main", CT::Window));
        let tabs = t.add(main, Widget::new("Ribbon", CT::Tab));
        let home = t.add(tabs, WidgetBuilder::new("Home", CT::TabItem).selected().build());
        let insert = t.add(tabs, Widget::new("Insert", CT::TabItem));
        (t, main, tabs, home, insert)
    }

    #[test]
    fn first_root_is_open_main_window() {
        let (t, main, ..) = tree();
        assert_eq!(t.main_root(), main);
        assert!(t.is_window_open(main));
        assert_eq!(t.open_windows().len(), 1);
    }

    #[test]
    fn tab_scoping_hides_unselected_panels() {
        let (mut t, _, _, home, insert) = tree();
        let bold = t.add(home, Widget::new("Bold", CT::Button));
        let table = t.add(insert, Widget::new("Table", CT::Button));
        assert!(t.is_shown(bold));
        assert!(!t.is_shown(table));
        t.select_tab(insert);
        assert!(!t.is_shown(bold));
        assert!(t.is_shown(table));
    }

    #[test]
    fn popup_chain_open_and_collapse() {
        let (mut t, main, ..) = tree();
        let menu = t.add(main, WidgetBuilder::new("Colors", CT::SplitButton).popup().build());
        let sub = t.add(menu, WidgetBuilder::new("More", CT::MenuItem).popup().build());
        let cell = t.add(sub, Widget::new("Blue", CT::ListItem));
        assert!(!t.is_shown(cell));
        t.open_popup(menu);
        t.open_popup(sub);
        assert!(t.is_shown(cell));
        assert_eq!(t.open_popups().len(), 2);
        t.collapse_popup(menu);
        assert!(t.open_popups().is_empty());
        assert!(!t.is_shown(cell));
    }

    #[test]
    fn close_popups_not_containing_keeps_own_chain() {
        let (mut t, main, ..) = tree();
        let menu = t.add(main, WidgetBuilder::new("Colors", CT::SplitButton).popup().build());
        let item = t.add(menu, Widget::new("Blue", CT::ListItem));
        let other = t.add(main, Widget::new("Paste", CT::Button));
        t.open_popup(menu);
        t.close_popups_not_containing(item);
        assert_eq!(t.open_popups().len(), 1);
        t.close_popups_not_containing(other);
        assert!(t.open_popups().is_empty());
    }

    #[test]
    fn dialog_windows_stack_and_close() {
        let (mut t, main, ..) = tree();
        let dlg = t.add_root(Widget::new("Format", CT::Window));
        let ok = t.add(dlg, Widget::new("OK", CT::Button));
        assert!(!t.is_shown(ok));
        t.open_window(dlg, true);
        assert!(t.is_shown(ok));
        assert!(t.top_window().modal);
        assert_eq!(t.close_top_window(), Some(dlg));
        assert!(!t.is_shown(ok));
        // The main window never closes.
        assert_eq!(t.close_top_window(), None);
        assert!(t.is_window_open(main));
    }

    #[test]
    fn window_root_of_walks_up() {
        let (mut t, main, _, home, _) = tree();
        let bold = t.add(home, Widget::new("Bold", CT::Button));
        assert_eq!(t.window_root_of(bold), Some(main));
        let dlg = t.add_root(Widget::new("Dialog", CT::Window));
        let btn = t.add(dlg, Widget::new("OK", CT::Button));
        assert_eq!(t.window_root_of(btn), None);
        t.open_window(dlg, true);
        assert_eq!(t.window_root_of(btn), Some(dlg));
    }

    #[test]
    fn pending_children_window() {
        let (mut t, main, ..) = tree();
        t.set_pending_children(main, 5);
        t.reveal_loaded(4);
        assert!(t.is_loading(main));
        t.reveal_loaded(5);
        assert!(!t.is_loading(main));
    }

    #[test]
    fn reset_ui_state_restores_launch_shape() {
        let (mut t, ..) = tree();
        let dlg = t.add_root(Widget::new("Dialog", CT::Window));
        t.open_window(dlg, true);
        t.reset_ui_state();
        assert_eq!(t.open_windows().len(), 1);
    }

    #[test]
    fn state_epoch_tracks_persistent_mutations_only() {
        let (mut t, main, _, home, insert) = tree();
        let dlg = t.add_root(Widget::new("Dialog", CT::Window));
        let menu = t.add(main, WidgetBuilder::new("Colors", CT::SplitButton).popup().build());
        let epoch = t.state_epoch();
        // Transient UI: windows and popups do not move the epoch.
        t.open_window(dlg, true);
        t.close_top_window();
        t.open_popup(menu);
        t.collapse_popup(menu);
        // Tab selection is self-healing (selecting deselects siblings).
        t.select_tab(insert);
        t.select_tab(home);
        assert_eq!(t.state_epoch(), epoch, "transient state must not move the epoch");
        // Persistent mutations do.
        t.widget_mut(home).enabled = false;
        assert!(t.state_epoch() > epoch, "widget writes move the epoch");
    }

    #[test]
    fn window_stamps_track_visible_mutations_per_root() {
        let (mut t, main, _, home, insert) = tree();
        let dlg = t.add_root(Widget::new("Dialog", CT::Window));
        let btn = t.add(dlg, Widget::new("OK", CT::Button));
        let menu = t.add(main, WidgetBuilder::new("Colors", CT::SplitButton).popup().build());
        let (m0, d0) = (t.window_stamp(main), t.window_stamp(dlg));
        // Transient structure: popups and the window stack move no stamp
        // (capture caches key them structurally).
        t.open_window(dlg, true);
        t.open_popup(menu);
        t.collapse_popup(menu);
        t.close_top_window();
        assert_eq!((t.window_stamp(main), t.window_stamp(dlg)), (m0, d0));
        // A widget write stamps exactly its owning window.
        t.widget_mut(btn).enabled = false;
        assert_eq!(t.window_stamp(main), m0, "main window untouched");
        assert!(t.window_stamp(dlg) > d0, "dialog window stamped");
        // Tab selection stamps the window but not the persistent epoch.
        let epoch = t.state_epoch();
        t.select_tab(insert);
        t.select_tab(home);
        assert_eq!(t.state_epoch(), epoch, "tab selection stays transient for recovery");
        assert!(t.window_stamp(main) > m0, "tab selection is snapshot-visible");
    }

    #[test]
    fn block_stamps_track_visible_mutations_per_block() {
        let (mut t, main, tabs, _, insert) = tree();
        let status = t.add(main, Widget::new("Status", CT::StatusBar));
        let ready = t.add(status, Widget::new("Ready", CT::Text));
        assert_eq!(t.root_and_block_of(ready), (main, Some(status)));
        assert_eq!(t.root_and_block_of(tabs), (main, Some(tabs)));
        assert_eq!(t.root_and_block_of(main), (main, None));
        let (w0, r0, s0) = (t.window_stamp(main), t.block_stamp(tabs), t.block_stamp(status));
        // A write stamps its window and its block, not the sibling block.
        t.widget_mut(ready).value = "Busy".into();
        assert!(t.window_stamp(main) > w0 && t.block_stamp(status) > s0);
        assert_eq!(t.block_stamp(tabs), r0, "the ribbon's block is clean");
        // A write to the root stamps the window alone.
        let (w1, s1) = (t.window_stamp(main), t.block_stamp(status));
        t.widget_mut(main).help_text = "main".into();
        assert!(t.window_stamp(main) > w1);
        assert_eq!((t.block_stamp(tabs), t.block_stamp(status)), (r0, s1));
        // Selecting a tab stamps its block.
        t.select_tab(insert);
        assert!(t.block_stamp(tabs) > r0);
        assert_eq!(t.block_stamp(status), s1);
        // Tabs that are themselves blocks: each deselected one is stamped.
        let t1 = t.add(main, WidgetBuilder::new("T1", CT::TabItem).selected().build());
        let t2 = t.add(main, Widget::new("T2", CT::TabItem));
        let before = t.block_stamp(t1);
        t.select_tab(t2);
        assert!(t.block_stamp(t1) > before, "the deselected tab's block is stamped");
        // Dropping a late-load schedule stamps the block that held it.
        t.set_pending_children(status, 9);
        let pending = t.block_stamp(status);
        t.reset_ui_state();
        assert!(t.block_stamp(status) > pending);
    }

    #[test]
    fn clones_share_chunks_copy_on_write() {
        let (mut t, main, ..) = tree();
        let label = t.add(main, Widget::new("A label with a long name", CT::Text));
        let pristine = t.clone();
        // Mutate, then restore.
        t.widget_mut(label).name.push_str(" (edited)");
        t.widget_mut(label).enabled = false;
        assert_eq!(pristine.widget(label).name, "A label with a long name", "clone is isolated");
        t = pristine.clone();
        assert_eq!(t.widget(label).name, "A label with a long name");
        assert!(t.widget(label).enabled);
        // Copy-on-write both ways: a write through either tree after the
        // restore stays invisible to the other.
        t.widget_mut(label).value.push_str("restored side");
        assert_eq!(pristine.widget(label).value, "");
        let mut image = pristine.clone();
        image.widget_mut(label).value.push_str("image side");
        assert_eq!(t.widget(label).value, "restored side");
        assert_eq!(pristine.widget(label).value, "");
    }

    #[test]
    fn arena_spans_chunks_and_unchanged_flags_copy_nothing() {
        let (mut t, main, tabs, home, insert) = tree();
        let list = t.add(main, Widget::new("List", CT::List));
        let items: Vec<WidgetId> = (0..3 * CHUNK)
            .map(|i| t.add(list, Widget::new(format!("Item {i}"), CT::ListItem)))
            .collect();
        assert_eq!(t.len(), 3 * CHUNK + 5);
        assert_eq!(t.iter().count(), t.len());
        assert_eq!(t.widget(items[2 * CHUNK]).name, format!("Item {}", 2 * CHUNK));
        assert_eq!(t.root_of(items[3 * CHUNK - 1]), main);
        assert_eq!(t.widget(list).children.len(), 3 * CHUNK);
        let image = t.clone();
        let shared = |t: &UiTree| {
            t.widgets.iter().zip(&image.widgets).filter(|(a, b)| Arc::ptr_eq(a, b)).count()
        };
        assert_eq!(shared(&t), t.widgets.len(), "a clone shares every chunk");
        // Re-selecting the selected tab writes no value, so it copies no
        // chunk; selecting an item copies only the chunk it lands in.
        t.select_tab(home);
        assert_eq!(shared(&t), t.widgets.len(), "deselecting unselected siblings copies nothing");
        t.select_item(items[0], true);
        t.select_item(items[0], true);
        assert_eq!(shared(&t), t.widgets.len() - 1, "only the first item's chunk was copied");
        t.select_tab(insert);
        assert!(t.widget(insert).selected && !t.widget(home).selected);
        assert!(!image.widget(insert).selected && image.widget(home).selected);
        assert_eq!(t.root_of(tabs), main);
        assert_eq!(shared(&t), t.widgets.len() - 1, "the tabs share the first item's chunk");
    }

    #[test]
    fn a_reveal_stamps_the_loading_block_and_its_window_only() {
        let (mut t, main, tabs, ..) = tree();
        let dlg = t.add_root(Widget::new("Dialog", CT::Window));
        let menu = t.add(main, WidgetBuilder::new("Colors", CT::SplitButton).popup().build());
        t.set_pending_children(menu, 7);
        let stamps = |t: &UiTree| {
            [t.window_stamp(main), t.block_stamp(menu), t.block_stamp(tabs), t.window_stamp(dlg)]
        };
        let (before, epoch) = (stamps(&t), t.state_epoch());
        // Before its query the reveal moves nothing.
        t.reveal_loaded(6);
        assert!(t.is_loading(menu));
        assert_eq!(stamps(&t), before);
        // At it: the menu's block and window are stamped, nothing else.
        t.reveal_loaded(7);
        assert!(!t.is_loading(menu));
        let [w, m, r, d] = stamps(&t);
        assert!(w > before[0] && m > before[1], "the loading block and its window");
        assert_eq!((r, d), (before[2], before[3]), "other blocks and windows unaffected");
        assert_eq!(t.state_epoch(), epoch, "a reveal is no persistent mutation");
        // A revealed schedule is gone: a later call moves nothing.
        t.reveal_loaded(8);
        assert_eq!(stamps(&t), [w, m, r, d]);
    }

    #[test]
    fn select_item_exclusive_and_additive() {
        let (mut t, main, ..) = tree();
        let list = t.add(main, Widget::new("List", CT::List));
        let a = t.add(list, Widget::new("A", CT::ListItem));
        let b = t.add(list, Widget::new("B", CT::ListItem));
        t.select_item(a, false);
        t.select_item(b, true);
        assert!(t.widget(a).selected && t.widget(b).selected);
        t.select_item(a, false);
        assert!(t.widget(a).selected);
        assert!(!t.widget(b).selected);
    }
}
