//! The cached capture pipeline: epoch-keyed [`dmi_uia::Snapshot`]s built
//! from a live [`UiTree`] and shared behind [`Arc`]s.
//!
//! The snapshot is the *client view*: only revealed widgets appear (closed
//! menus contribute nothing, mirroring lazy UIA providers), instability
//! perturbations (late loads, name variation) are applied here, and each
//! window's nodes are built inside its one layout walk
//! ([`layout::walk_window`]), which places their rectangles and
//! off-screen flags.
//!
//! # Why a cache
//!
//! With restart-replay gone, snapshot construction dominates rip
//! cost: ~8.9k captures on the small Word app, each re-walking the full
//! arena, recomputing layout, and discarding the previous snapshot's
//! lazily built `SnapIndex`. Most of those captures see a UI that is
//! byte-identical to one captured moments earlier — the ripper's hot loop
//! (escape to base → walk → pre-click capture → click → post-click
//! capture) keeps returning to the same handful of states.
//!
//! # How validity is decided
//!
//! One rule decides whether a capture can be reused: its per-window keys
//! plus two global components.
//!
//! - **per window** (`WindowKey`): the arena root, its modality and
//!   stack position, the root's [`UiTree::window_stamp`] (bumped by every
//!   snapshot-visible mutation under that root), and the open-popup chain
//!   under the root (popup expansion is keyed *structurally* instead of
//!   stamped, so a transient open+close compares equal again — the same
//!   reasoning as Esc recovery);
//! - **globally**: [`UiTree::context_epoch`] (contexts gate `visible_when`
//!   widgets in any window) and the query clock's position relative to
//!   each window's *next reveal* — the earliest pending-children schedule
//!   still hidden at build time ([`UiTree::next_reveal_under`]). Late-load
//!   instability is thereby resolved into the key at build time: a cached
//!   window is served only while an eager rebuild would produce the same
//!   bytes, and the reveal query itself always misses and rebuilds.
//!
//! [`CaptureCache`] keeps a short MRU list of past captures. A capture
//! whose every component matches is returned in O(1) as the same
//! [`Arc<Snapshot>`] — including its already-materialized `SnapIndex`
//! (cached ancestor paths and key multimap), which the eager path rebuilt
//! per query. On a miss, each clean window's node block is copied
//! wholesale from the best donor capture
//! ([`Snapshot::append_window_from`]) and only dirty windows are
//! re-walked, each laid out along with its walk. The new
//! snapshot builds its own `SnapIndex` from its own nodes on first use,
//! like any other capture.
//!
//! # Launch and restarts
//!
//! Every fork of a launch image starts in the same UI state, so an app
//! that keeps one image also keeps a table of its launch captures
//! ([`LaunchCaptures`], offered through
//! [`crate::GuiApp::launch_captures`] and owned by the image, so it lives
//! exactly as long as the image). Of the instability model only name
//! variation reaches a launch capture, so the table is keyed by
//! `(seed, name_variation_prob)`, with one shared entry for every model
//! that varies no name; late loads never touch a launch state. An entry is
//! built once, from the image's own tree as a restart leaves it, when a
//! cached session over one of the image's apps is created — never inside
//! [`crate::Session::snapshot`], so [`CaptureStats`] never depend on which
//! session built it. The table holds at most [`LaunchCaptures::CAPACITY`]
//! models, first come, with no eviction; a session whose model finds the
//! table full is neither seeded nor served the entry after a restart.
//!
//! A new session seeds its cache with the entry as its only recent
//! capture. A fresh fork clones the image tree's window stamps, so its
//! first capture probes equal to the entry and is served in O(1) as the
//! shared [`Arc<Snapshot>`], index included, while a tree that was driven
//! before it was wrapped in a session misses through the same key rule
//! and only borrows the entry's clean windows.
//!
//! An application `reset` may swap its tree wholesale, which breaks stamp
//! lineage, so a restart empties the MRU list. The image's table is the
//! one source of a capture that survives it: an app offers a table only
//! if every `reset` restores exactly that image, so a restart re-keys the
//! table's entry for the session's model against the fresh tree and
//! adopts it as the only MRU entry. From then on ordinary probes serve it
//! (while the launch state holds) or copy clean windows from it (after
//! the first click), through the same key rule as every other capture.
//!
//! The eager [`build`] stays as the uncached oracle;
//! `CaptureConfig::full_rebuild` (see [`crate::session`]) routes every
//! capture through it, and the release-gated equivalence tests assert
//! byte-identical UNGs either way.

use crate::instability::InstabilityModel;
use crate::layout;
use crate::tree::UiTree;
use crate::widget::WidgetId;
use dmi_uia::{ControlProps, RuntimeId, Snapshot};
use std::sync::{Arc, Mutex, PoisonError};

/// Builds a snapshot of every open window (eager, uncached).
///
/// `query_seq` is the monotonically increasing snapshot counter maintained
/// by the session; late-loading subtrees compare against it.
pub fn build(tree: &UiTree, inst: &InstabilityModel, query_seq: u64) -> Snapshot {
    let mut snap = Snapshot::new();
    for (wi, win) in tree.open_windows().iter().enumerate() {
        push_window(tree, inst, query_seq, win.root, win.modal, wi, &mut snap);
    }
    snap
}

/// Walks one window into `snap` and registers its root in z-order. The
/// children of a container still loading at `query_seq` are left out,
/// though the layout walk still places their rows.
fn push_window(
    tree: &UiTree,
    inst: &InstabilityModel,
    query_seq: u64,
    root: WidgetId,
    modal: bool,
    wi: usize,
    snap: &mut Snapshot,
) {
    // `parents[d]`: the snapshot index of the last node visited at depth
    // `d`, or `None` when its children are absent (left out, or loading).
    let mut parents: Vec<Option<usize>> = Vec::new();
    let start = snap.len();
    layout::walk_window(tree, root, wi, |id, depth, rect, offscreen| {
        parents.truncate(depth);
        let parent = match depth.checked_sub(1).map(|d| parents[d]) {
            Some(None) => {
                parents.push(None);
                return;
            }
            up => up.flatten(),
        };
        let w = tree.widget(id);
        let mut props = ControlProps::new(inst.live_name(id, &w.name), w.control_type);
        props.automation_id = w.automation_id.clone();
        props.class_name = w.class_name.clone();
        props.help_text = w.help_text.clone();
        props.patterns = w.patterns;
        props.enabled = w.enabled;
        props.value = w.value.clone();
        props.toggle = w.toggle;
        props.selected = w.selected;
        props.expanded = if w.popup { Some(w.expanded) } else { None };
        props.rect = rect;
        props.offscreen = offscreen;
        let idx = snap.push(props, parent, wi);
        // Snapshot runtime ids must track the widget arena, not insertion order.
        snap.set_runtime_id(idx, runtime_of(id));
        parents.push((!tree.children_pending(id, query_seq)).then_some(idx));
    });
    if snap.len() > start {
        if modal {
            snap.push_modal_window_root(start);
        } else {
            snap.push_window_root(start);
        }
    }
}

/// Walks one window into `snap` ([`push_window`]) and records the keys
/// its node block is valid under.
fn rebuild_window(
    tree: &UiTree,
    inst: &InstabilityModel,
    query_seq: u64,
    key: &WindowKey,
    wi: usize,
    snap: &mut Snapshot,
) -> WindowMeta {
    let start = snap.len();
    push_window(tree, inst, query_seq, key.root, key.modal, wi, snap);
    let end = snap.len();
    WindowMeta {
        key: key.clone(),
        start,
        end,
        rooted: end > start,
        next_reveal: tree.next_reveal_under(key.root, query_seq),
    }
}

/// The capture key of one open window, read off the live tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WindowKey {
    root: WidgetId,
    modal: bool,
    stamp: u64,
    popups: Vec<WidgetId>,
}

/// The keys of every open window, bottom to top.
fn window_keys(tree: &UiTree) -> Vec<WindowKey> {
    tree.open_windows()
        .iter()
        .map(|win| WindowKey {
            root: win.root,
            modal: win.modal,
            stamp: tree.window_stamp(win.root),
            popups: tree.popups_under(win.root),
        })
        .collect()
}

/// Per-window record of a cached capture.
#[derive(Debug, Clone)]
struct WindowMeta {
    key: WindowKey,
    /// Node range `[start, end)` this window occupies in the snapshot
    /// arena (`start == end` when the window root was hidden).
    start: usize,
    end: usize,
    /// Whether a window root was registered for this range.
    rooted: bool,
    /// First query sequence at which a pending-children schedule under
    /// this root reveals a subtree hidden at build time (`u64::MAX` when
    /// none): the cached bytes are valid strictly before it.
    next_reveal: u64,
}

impl WindowMeta {
    fn valid_for(&self, key: &WindowKey, query_seq: u64) -> bool {
        self.key == *key && query_seq < self.next_reveal
    }
}

/// One cached capture: the shared snapshot plus the keys it was built
/// under. Both are shared, so a clone (a seeded launch capture) copies
/// two pointers.
#[derive(Debug, Clone)]
struct CachedCapture {
    snap: Arc<Snapshot>,
    context_epoch: u64,
    windows: Arc<[WindowMeta]>,
}

impl CachedCapture {
    fn matches(&self, keys: &[WindowKey], context_epoch: u64, query_seq: u64) -> bool {
        self.context_epoch == context_epoch
            && self.windows.len() == keys.len()
            && self.windows.iter().zip(keys).all(|(m, k)| m.valid_for(k, query_seq))
    }
}

/// How many recent captures the MRU cache retains. The rip loop keeps
/// alternating between a base state and a handful of transient states,
/// so a short history converts most captures into O(1) hits (a depth of
/// 1 measured about 3x slower on full-app rips).
const MRU_DEPTH: usize = 4;

/// MRU cache of recent captures (see the module docs). Owned by
/// `Session`.
#[derive(Debug, Default)]
pub struct CaptureCache {
    entries: Vec<CachedCapture>,
}

/// Counters for capture-cache effectiveness (see `Session::capture_stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaptureStats {
    /// Captures taken (cache hits included).
    pub captures: u64,
    /// Captures served in O(1) as a shared `Arc` to a previous build.
    pub full_hits: u64,
    /// Windows whose node block was copied from a donor capture during a
    /// partial rebuild.
    pub windows_reused: u64,
    /// Windows re-walked from the widget tree.
    pub windows_rebuilt: u64,
}

impl CaptureCache {
    /// Drops every cached capture.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Seeds this cache with the launch capture under `inst` from
    /// `launch`, an image and its table ([`crate::GuiApp::launch_captures`]),
    /// as the only recent capture. The entry keeps the image tree's keys,
    /// which a fresh fork of the image shares. Leaves the cache as it is
    /// when there is no table, or it is full without the model's entry.
    pub(crate) fn seed(
        &mut self,
        launch: Option<(&UiTree, &LaunchCaptures)>,
        inst: &InstabilityModel,
    ) {
        if let Some(entry) = launch.and_then(|(image, captures)| captures.capture(image, inst)) {
            self.entries = vec![entry];
        }
    }

    /// Empties the MRU list after an application restart, then adopts the
    /// launch capture under `inst` from `launch` (see [`CaptureCache::seed`])
    /// re-keyed against the fresh tree, when the table holds one and the
    /// tree opens the same windows.
    pub(crate) fn restart(
        &mut self,
        tree: &UiTree,
        launch: Option<(&UiTree, &LaunchCaptures)>,
        inst: &InstabilityModel,
        query_seq: u64,
    ) {
        self.entries.clear();
        let Some(entry) = launch.and_then(|(image, captures)| captures.capture(image, inst)) else {
            return;
        };
        let keys = window_keys(tree);
        let same_windows = entry.windows.len() == keys.len()
            && entry
                .windows
                .iter()
                .zip(&keys)
                .all(|(m, k)| (m.key.root, m.key.modal) == (k.root, k.modal));
        if !same_windows {
            return;
        }
        let windows = entry
            .windows
            .iter()
            .zip(keys)
            .map(|(m, key)| WindowMeta {
                next_reveal: tree.next_reveal_under(key.root, query_seq),
                key,
                ..m.clone()
            })
            .collect();
        let context_epoch = tree.context_epoch();
        self.entries.push(CachedCapture { snap: entry.snap, context_epoch, windows });
    }
}

/// Probes the MRU cache for an O(1) full hit against the current tree
/// state. On a miss, returns the per-window capture keys so the caller
/// can pass them to [`rebuild`] without recomputing them.
pub(crate) fn probe(
    tree: &UiTree,
    query_seq: u64,
    cache: &mut CaptureCache,
) -> Result<Arc<Snapshot>, Vec<WindowKey>> {
    let context_epoch = tree.context_epoch();
    let keys = window_keys(tree);

    // O(1) path: any recent capture whose every key component matches is
    // byte-identical to what an eager rebuild would produce.
    if let Some(pos) = cache.entries.iter().position(|e| e.matches(&keys, context_epoch, query_seq))
    {
        let entry = cache.entries.remove(pos);
        let snap = Arc::clone(&entry.snap);
        cache.entries.insert(0, entry);
        return Ok(snap);
    }
    Err(keys)
}

/// Builds the capture for the current tree state after [`probe`] missed:
/// clean windows are copied from the best donor capture, dirty windows
/// are re-walked.
pub(crate) fn rebuild(
    tree: &UiTree,
    inst: &InstabilityModel,
    query_seq: u64,
    keys: Vec<WindowKey>,
    cache: &mut CaptureCache,
    stats: &mut CaptureStats,
) -> Arc<Snapshot> {
    let context_epoch = tree.context_epoch();
    let mut snap = Snapshot::new();
    let mut metas = Vec::with_capacity(keys.len());
    for (wi, key) in keys.iter().enumerate() {
        let donor = cache.entries.iter().find_map(|e| {
            if e.context_epoch != context_epoch {
                return None;
            }
            let m = e.windows.get(wi)?;
            m.valid_for(key, query_seq).then_some((&e.snap, m))
        });
        let meta = match donor {
            Some((donor_snap, m)) => {
                let start = snap.append_window_from(donor_snap, m.start, m.end, wi);
                let end = snap.len();
                if m.rooted {
                    if key.modal {
                        snap.push_modal_window_root(start);
                    } else {
                        snap.push_window_root(start);
                    }
                }
                stats.windows_reused += 1;
                dmi_obs::tally("capture.windows_reused", 1);
                WindowMeta {
                    key: key.clone(),
                    start,
                    end,
                    rooted: m.rooted,
                    next_reveal: m.next_reveal,
                }
            }
            None => {
                stats.windows_rebuilt += 1;
                dmi_obs::tally("capture.windows_rebuilt", 1);
                rebuild_window(tree, inst, query_seq, key, wi, &mut snap)
            }
        };
        metas.push(meta);
    }

    let snap = Arc::new(snap);
    let entry = CachedCapture { snap: Arc::clone(&snap), context_epoch, windows: metas.into() };
    cache.entries.insert(0, entry);
    cache.entries.truncate(MRU_DEPTH);
    snap
}

/// One launch image's captures of its launch state, one per
/// name-variation model (see "Launch and restarts" in the module docs).
/// Filled first come, never evicted, and shared by every session over
/// the image's apps; thread-safe, since the image and its forks are.
#[derive(Debug, Default)]
pub struct LaunchCaptures {
    /// `(launch key, capture)` pairs in insertion order.
    table: Mutex<Vec<(LaunchKey, CachedCapture)>>,
}

/// The part of an [`InstabilityModel`] a launch capture depends on: the
/// seed and probability of name variation, or `None` for every model
/// that varies no name.
type LaunchKey = Option<(u64, u64)>;

impl LaunchCaptures {
    /// The most models one image keeps a capture for. Measured distinct
    /// launch keys per image and process: 16 in the benchmark's
    /// `agent_grid` (the rip's model that varies no name, the grid's 3
    /// run seeds, then the agent sample's 12), 13 in `build_office3`, 7
    /// in the claims evaluation and 1 in `serve_mix`. A workload that
    /// uses more models loses the launch hit only for those that come
    /// after the table is full.
    pub const CAPACITY: usize = 16;

    /// Number of models with a capture in the table.
    pub fn len(&self) -> usize {
        self.table.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Whether no capture has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The launch capture of `image` under `inst`: the table's entry for
    /// the model's launch key, built and added on first use while the
    /// table has room; `None` once it is full without one. The lock is
    /// held across the build, so concurrent first uses of one key build
    /// it once; a build that panics pushes nothing, so a poisoned table
    /// is still whole.
    fn capture(&self, image: &UiTree, inst: &InstabilityModel) -> Option<CachedCapture> {
        let key: LaunchKey = (inst.name_variation_prob > 0.0)
            .then(|| (inst.seed, inst.name_variation_prob.to_bits()));
        let mut table = self.table.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, entry)) = table.iter().find(|(k, _)| *k == key) {
            return Some(entry.clone());
        }
        if table.len() == Self::CAPACITY {
            return None;
        }
        let entry = launch_capture(image, inst);
        table.push((key, entry.clone()));
        Some(entry)
    }
}

/// Builds the capture of the state a restart leaves `image` in (the
/// app's `reset` restores the image, then `UiTree::reset_ui_state`),
/// under the image tree's own keys. `reset_ui_state` drops every
/// late-load schedule, so the build is query-independent. Timed as a
/// capture `rebuild`, but counted in no session's [`CaptureStats`].
fn launch_capture(image: &UiTree, inst: &InstabilityModel) -> CachedCapture {
    let _rebuild_span = dmi_obs::span(dmi_obs::Cat::Capture, "rebuild", 0);
    dmi_obs::tally("capture.launch_builds", 1);
    let mut tree = image.clone();
    tree.reset_ui_state();
    let mut snap = Snapshot::new();
    let windows = window_keys(&tree)
        .iter()
        .enumerate()
        .map(|(wi, key)| rebuild_window(&tree, inst, 0, key, wi, &mut snap))
        .collect();
    CachedCapture { snap: Arc::new(snap), context_epoch: tree.context_epoch(), windows }
}

/// An empty placeholder for the retired cross-session capture pool. It
/// holds no captures and no session reads it; it remains only because
/// the frozen benchmark (`dmibench/src/legacy.rs`) names it through
/// `dmi_store::recording_pool` and `Session::capture_pool`, and goes
/// with that benchmark's next change.
#[derive(Debug, Default)]
pub struct CapturePool;

impl CapturePool {
    /// Always 0: the shell holds no captures.
    pub fn len(&self) -> usize {
        0
    }

    /// Always true (see [`CapturePool::len`]).
    pub fn is_empty(&self) -> bool {
        true
    }
}

/// Maps a snapshot runtime id back to the widget it was built from.
///
/// Runtime ids encode the widget arena index (`index + 1`), which keeps the
/// provider/client correspondence trivial while remaining opaque to DMI
/// (which never relies on it across restarts).
pub fn widget_of(rt: RuntimeId) -> WidgetId {
    WidgetId((rt.0 - 1) as usize)
}

/// The runtime id a widget will carry in snapshots.
pub fn runtime_of(id: WidgetId) -> RuntimeId {
    RuntimeId(id.0 as u64 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::widget::{Widget, WidgetBuilder};
    use dmi_uia::ControlType as CT;

    fn tree() -> (UiTree, WidgetId, WidgetId, WidgetId) {
        let mut t = UiTree::new();
        let main = t.add_root(Widget::new("Main", CT::Window));
        let menu = t.add(main, WidgetBuilder::new("Colors", CT::SplitButton).popup().build());
        let item = t.add(menu, Widget::new("Blue", CT::ListItem));
        (t, main, menu, item)
    }

    #[test]
    fn closed_menus_contribute_nothing() {
        let (t, _, _, _) = tree();
        let s = build(&t, &InstabilityModel::off(), 0);
        assert!(s.find_by_name("Colors").is_some());
        assert!(s.find_by_name("Blue").is_none());
    }

    #[test]
    fn open_menus_reveal_children() {
        let (mut t, _, menu, _) = tree();
        t.open_popup(menu);
        let s = build(&t, &InstabilityModel::off(), 0);
        assert!(s.find_by_name("Blue").is_some());
    }

    #[test]
    fn runtime_ids_track_widget_ids() {
        let (mut t, _, menu, item) = tree();
        t.open_popup(menu);
        let s = build(&t, &InstabilityModel::off(), 0);
        let idx = s.find_by_name("Blue").unwrap();
        assert_eq!(widget_of(s.node(idx).runtime_id), item);
    }

    #[test]
    fn late_loading_children_absent_then_present() {
        let (mut t, _, menu, _) = tree();
        t.open_popup(menu);
        t.set_pending_children(menu, 5);
        let s4 = build(&t, &InstabilityModel::off(), 4);
        assert!(s4.find_by_name("Blue").is_none());
        let s5 = build(&t, &InstabilityModel::off(), 5);
        assert!(s5.find_by_name("Blue").is_some());
    }

    #[test]
    fn late_loading_children_keep_their_rows() {
        let mut t = UiTree::new();
        let main = t.add_root(Widget::new("Main", CT::Window));
        let grp = t.add(main, Widget::new("Group", CT::Group));
        t.add(grp, Widget::new("First", CT::Button));
        t.add(grp, Widget::new("Second", CT::Button));
        t.add(main, Widget::new("After", CT::Button));
        t.set_pending_children(grp, 5);
        let rect = |s: &Snapshot, name| s.node(s.find_by_name(name).unwrap()).props.rect;
        let (s4, s5) =
            (build(&t, &InstabilityModel::off(), 4), build(&t, &InstabilityModel::off(), 5));
        assert!(s4.find_by_name("First").is_none());
        assert_eq!(rect(&s4, "After"), rect(&s5, "After"));
        assert_eq!(rect(&s5, "After").y, 4 * layout::ROW_H);
    }

    #[test]
    fn name_variation_applies_in_snapshot_only() {
        let (mut t, _, menu, _) = tree();
        t.open_popup(menu);
        let inst = InstabilityModel::new(3, 0.0, 1.0);
        let s = build(&t, &inst, 0);
        // The provider-side name is unchanged.
        assert_eq!(t.widget(menu).name, "Colors");
        // The snapshot name is the varied one.
        let snap_names: Vec<String> = s.iter().map(|(_, n)| n.props.name.clone()).collect();
        assert!(snap_names
            .iter()
            .any(|n| n != "Colors" && n.starts_with("Colors") || n == "Colors*"));
    }

    #[test]
    fn multiple_windows_in_z_order() {
        let (mut t, ..) = tree();
        let dlg = t.add_root(Widget::new("Format Cells", CT::Window));
        t.add(dlg, Widget::new("OK", CT::Button));
        t.open_window(dlg, true);
        let s = build(&t, &InstabilityModel::off(), 0);
        assert_eq!(s.windows().len(), 2);
        let top = s.top_window().unwrap();
        assert_eq!(s.node(top).props.name, "Format Cells");
    }
}
