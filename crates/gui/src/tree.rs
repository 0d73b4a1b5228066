//! The mutable provider-side control tree.
//!
//! A [`UiTree`] is an arena of widgets plus the runtime UI state the
//! toolkit manages: the open-window stack (main window, dialogs, child
//! windows), the open-popup chain (menus, dropdowns), keyboard focus,
//! and active UI contexts (e.g. "image-selected").
//!
//! Widgets are never removed from the arena — hidden instead — so
//! [`WidgetId`]s are stable for the lifetime of the application instance.
//!
//! The arena is copy-on-write: widgets live in fixed-size chunks behind
//! [`Arc`]s, a clone shares every chunk, and the first write to a shared
//! chunk copies only that chunk. Forking a launch image, restoring one,
//! and dropping a tree therefore cost the chunks touched, not the arena.

use crate::widget::{Widget, WidgetId};
use dmi_uia::ControlType;
use std::collections::{BTreeMap, BTreeSet};
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
#[derive(Debug, Default)]
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
    /// Active UI contexts gating `visible_when` widgets.
    contexts: BTreeSet<String>,
    /// Widgets whose children are still "loading": hidden from snapshots
    /// until the given query sequence number (instability injection).
    pending_children: BTreeMap<WidgetId, u64>,
    /// Monotonic counter of *persistent* state mutations: widget property
    /// writes, arena growth, selection, focus, and context changes — the
    /// state a freshly launched application would not have. Deliberately
    /// NOT bumped by window/popup open/close (transient UI, undone by Esc)
    /// or tab selection (self-healing: selecting a tab deselects its
    /// siblings). The ripper's recovery planner compares epochs to decide
    /// whether pressing Esc can reach a launch-equivalent state or a full
    /// restart is required (§4.1 state restoration).
    state_epoch: u64,
    /// Monotonic clock issuing per-window mutation stamps (see
    /// [`UiTree::window_stamp`]). Shared across roots so stamps are
    /// totally ordered within one tree lineage.
    view_clock: u64,
    /// Stamp of the last *snapshot-visible* mutation per arena root:
    /// widget property writes, arena growth, tab/item selection, and
    /// pending-children schedules under that root. Popup expansion and
    /// the window stack are deliberately NOT stamped — they are keyed
    /// structurally (open-popup chain, open-window stack) by the capture
    /// cache, so transient open+close sequences return to a cache hit.
    window_stamps: BTreeMap<WidgetId, u64>,
    /// Floor value reported for roots with no stamp on record. Advanced
    /// past every issued stamp on `clone_from` (a wholesale restore), so
    /// capture keys recorded before a reset can never validate after it.
    stamp_floor: u64,
    /// Bumped whenever the active-context set changes. Contexts gate
    /// `visible_when` widgets in *any* window, so this is a global key
    /// component rather than a per-root stamp.
    context_epoch: u64,
}

impl Clone for UiTree {
    /// Shares every arena chunk; the remaining fields are copied.
    fn clone(&self) -> UiTree {
        UiTree {
            widgets: self.widgets.clone(),
            open_windows: self.open_windows.clone(),
            open_popups: self.open_popups.clone(),
            contexts: self.contexts.clone(),
            pending_children: self.pending_children.clone(),
            window_stamps: self.window_stamps.clone(),
            ..*self
        }
    }

    /// Wholesale restore: shares the source's arena chunks, so an
    /// `office::Pristine` reset costs the chunks this tree had copied,
    /// not the arena size.
    ///
    /// The epochs are NOT copied from the source: a wholesale restore is
    /// one big mutation, so every counter advances monotonically past both
    /// trees. Capture keys recorded against the old state (or against the
    /// pristine image's own counters) can therefore never validate against
    /// the restored tree.
    // The source is destructured exhaustively so adding a field without
    // deciding its restore semantics is a compile error.
    fn clone_from(&mut self, src: &UiTree) {
        let UiTree {
            widgets,
            main_root,
            open_windows,
            open_popups,
            focus,
            contexts,
            pending_children,
            state_epoch,
            view_clock,
            window_stamps: _, // Superseded: every stamp re-floors below.
            stamp_floor: _,
            context_epoch,
        } = src;
        self.widgets.clone_from(widgets);
        self.main_root = *main_root;
        self.open_windows.clone_from(open_windows);
        self.open_popups.clone_from(open_popups);
        self.focus = *focus;
        // Equality pre-checks: these maps are almost always identical to
        // the pristine image, and the compare is allocation-free where a
        // blind clone is not.
        if self.contexts != *contexts {
            self.contexts = contexts.clone();
        }
        if self.pending_children != *pending_children {
            self.pending_children = pending_children.clone();
        }
        self.state_epoch = self.state_epoch.max(*state_epoch) + 1;
        self.view_clock = self.view_clock.max(*view_clock) + 1;
        self.stamp_floor = self.view_clock;
        self.window_stamps.clear();
        self.context_epoch = self.context_epoch.max(*context_epoch) + 1;
    }
}

impl UiTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        UiTree::default()
    }

    /// Stamps the window (arena root) containing `id` with a fresh view
    /// tick: any snapshot or layout of that window cached against an
    /// earlier stamp is stale.
    fn stamp(&mut self, id: WidgetId) {
        let root = self.root_of(id);
        self.view_clock += 1;
        self.window_stamps.insert(root, self.view_clock);
    }

    /// Copy-on-write access to one arena slot: the slot's chunk is copied
    /// first if another tree shares it. Every widget write goes through
    /// here.
    fn slot_mut(&mut self, id: WidgetId) -> &mut Widget {
        &mut Arc::make_mut(&mut self.widgets[id.0 / CHUNK])[id.0 % CHUNK]
    }

    /// Writes a widget's `selected` flag, copying nothing when the flag
    /// already holds `on`.
    fn set_selected(&mut self, id: WidgetId, on: bool) {
        if self.widget(id).selected != on {
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

    /// The persistent-mutation epoch. Two equal readings bracket a span in
    /// which no widget property, arena, selection, focus, or context
    /// changed — transient window/popup state and tab selection excluded —
    /// so pressing Esc back to the base window provably restores a
    /// launch-equivalent UI.
    pub fn state_epoch(&self) -> u64 {
        self.state_epoch
    }

    /// The stamp of the last snapshot-visible mutation inside the window
    /// rooted at `root` (widget writes, arena growth, tab/item selection,
    /// pending-children schedules). Popup expansion and the window stack
    /// move no stamp — capture caches key them structurally, so transient
    /// open+close sequences compare equal again. Two equal readings (with
    /// equal popup chains and context epoch) prove the window's snapshot
    /// subtree and layout rows are byte-identical.
    pub fn window_stamp(&self, root: WidgetId) -> u64 {
        self.window_stamps.get(&root).copied().unwrap_or(self.stamp_floor)
    }

    /// The active-context epoch: bumped whenever the context set changes
    /// (contexts gate `visible_when` widgets in any window).
    pub fn context_epoch(&self) -> u64 {
        self.context_epoch
    }

    /// The open popups whose subtrees live under `root`, in chain order.
    /// Part of every per-window capture key: expansion state is kept in
    /// lockstep with the chain by [`UiTree::open_popup`] and
    /// [`UiTree::collapse_popup`].
    pub fn popups_under(&self, root: WidgetId) -> Vec<WidgetId> {
        self.open_popups.iter().copied().filter(|&p| self.root_of(p) == root).collect()
    }

    /// The earliest query sequence at which a pending-children schedule
    /// under `root` will reveal a subtree that is hidden at `query_seq`
    /// (`u64::MAX` when none is outstanding). A snapshot of this window
    /// built at `query_seq` stays observably identical to an eager rebuild
    /// for every query strictly before the returned value.
    pub fn next_reveal_under(&self, root: WidgetId, query_seq: u64) -> u64 {
        self.pending_children
            .iter()
            .filter(|&(&id, &ready)| ready > query_seq && self.root_of(id) == root)
            .map(|(_, &ready)| ready)
            .min()
            .unwrap_or(u64::MAX)
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

    /// Activates or deactivates a UI context (e.g. `"image-selected"`).
    pub fn set_context(&mut self, ctx: &str, on: bool) {
        let changed =
            if on { self.contexts.insert(ctx.to_string()) } else { self.contexts.remove(ctx) };
        if changed {
            self.state_epoch += 1;
            self.context_epoch += 1;
        }
    }

    /// Whether a context is active.
    pub fn context_active(&self, ctx: &str) -> bool {
        self.contexts.contains(ctx)
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
        let mut cur = id;
        while let Some(p) = self.widget(cur).parent {
            cur = p;
        }
        cur
    }

    /// The open-window root containing `id`, if its root is open.
    pub fn window_root_of(&self, id: WidgetId) -> Option<WidgetId> {
        let root = self.root_of(id);
        self.is_window_open(root).then_some(root)
    }

    /// Whether a widget is currently revealed (its window open, every
    /// popup ancestor expanded, every tab ancestor selected, context
    /// conditions met, and static visibility on).
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
        if let Some(ctx) = &w.visible_when {
            if !self.contexts.contains(ctx) {
                return false;
            }
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

    /// Marks a container's children as still loading until `ready_query`.
    pub fn set_pending_children(&mut self, id: WidgetId, ready_query: u64) {
        self.state_epoch += 1;
        self.stamp(id);
        self.pending_children.insert(id, ready_query);
    }

    /// Whether a container's children are hidden at query `query_seq`.
    pub fn children_pending(&self, id: WidgetId, query_seq: u64) -> bool {
        self.pending_children.get(&id).is_some_and(|&r| query_seq < r)
    }

    /// Depth-first pre-order ids below `root` (inclusive), *structural*
    /// (ignores visibility).
    pub fn descendants(&self, root: WidgetId) -> Vec<WidgetId> {
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(i) = stack.pop() {
            out.push(i);
            for &c in self.widget(i).children.iter().rev() {
                stack.push(c);
            }
        }
        out
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
    /// window open, no popups, no focus, contexts cleared. Widget state
    /// (values, toggles) is left to the application's own reset.
    pub fn reset_ui_state(&mut self) {
        self.close_all_popups();
        while self.open_windows.len() > 1 {
            self.open_windows.pop();
        }
        self.focus = None;
        if !self.contexts.is_empty() {
            self.contexts.clear();
            self.context_epoch += 1;
        }
        if !self.pending_children.is_empty() {
            // Dropping a schedule re-reveals hidden subtrees: stamp every
            // window that had one outstanding.
            let roots: Vec<WidgetId> =
                self.pending_children.keys().map(|&id| self.root_of(id)).collect();
            self.pending_children.clear();
            for root in roots {
                self.stamp(root);
            }
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
    fn context_gated_visibility() {
        let (mut t, main, ..) = tree();
        let pic = t.add(
            main,
            WidgetBuilder::new("Picture Format", CT::TabItem)
                .visible_when("image-selected")
                .build(),
        );
        assert!(!t.is_shown(pic));
        t.set_context("image-selected", true);
        assert!(t.is_shown(pic));
        t.set_context("image-selected", false);
        assert!(!t.is_shown(pic));
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
        assert!(t.children_pending(main, 4));
        assert!(!t.children_pending(main, 5));
    }

    #[test]
    fn reset_ui_state_restores_launch_shape() {
        let (mut t, ..) = tree();
        let dlg = t.add_root(Widget::new("Dialog", CT::Window));
        t.open_window(dlg, true);
        t.set_context("image-selected", true);
        t.reset_ui_state();
        assert_eq!(t.open_windows().len(), 1);
        assert!(!t.context_active("image-selected"));
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
        let epoch = t.state_epoch();
        t.set_context("image-selected", true);
        assert!(t.state_epoch() > epoch, "context changes move the epoch");
        let epoch = t.state_epoch();
        t.set_context("image-selected", true); // Already active: no change.
        assert_eq!(t.state_epoch(), epoch);
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
    fn context_epoch_moves_only_on_actual_changes() {
        let (mut t, ..) = tree();
        let c0 = t.context_epoch();
        t.set_context("image-selected", true);
        assert!(t.context_epoch() > c0);
        let c1 = t.context_epoch();
        t.set_context("image-selected", true); // Already active.
        assert_eq!(t.context_epoch(), c1);
        t.set_context("image-selected", false);
        assert!(t.context_epoch() > c1);
    }

    #[test]
    fn clone_from_shares_chunks_and_advances_epochs() {
        let (mut t, main, ..) = tree();
        let label = t.add(main, Widget::new("A label with a long name", CT::Text));
        let pristine = t.clone();
        // Mutate, then restore.
        t.widget_mut(label).name.push_str(" (edited)");
        t.widget_mut(label).enabled = false;
        assert_eq!(pristine.widget(label).name, "A label with a long name", "clone is isolated");
        let (e0, s0, c0) = (t.state_epoch(), t.window_stamp(main), t.context_epoch());
        t.clone_from(&pristine);
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
        // Every epoch advanced past both trees: no capture key recorded
        // before the restore can validate after it.
        assert!(t.state_epoch() > e0.max(pristine.state_epoch()));
        assert!(t.window_stamp(main) > s0);
        assert!(t.context_epoch() > c0.max(pristine.context_epoch()));
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
    fn next_reveal_under_scopes_to_the_owning_root() {
        let (mut t, main, ..) = tree();
        let dlg = t.add_root(Widget::new("Dialog", CT::Window));
        let menu = t.add(main, WidgetBuilder::new("Colors", CT::SplitButton).popup().build());
        t.set_pending_children(menu, 7);
        assert_eq!(t.next_reveal_under(main, 3), 7);
        assert_eq!(t.next_reveal_under(main, 7), u64::MAX, "already revealed");
        assert_eq!(t.next_reveal_under(dlg, 3), u64::MAX, "other windows unaffected");
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
