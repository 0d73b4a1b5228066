//! The cached capture pipeline: stamp-keyed [`dmi_uia::Snapshot`]s built
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
//! One rule decides whether captured nodes can be reused: their keys,
//! per window and per block, with no global part. A whole capture is
//! served again when every window's key matches; on a miss, nodes are
//! copied at one grain, the *block* — a child of a window root with all
//! its descendants.
//!
//! - **per window** (`WindowKey`): the arena root, its modality and
//!   stack position, the root's [`UiTree::window_stamp`] (bumped by every
//!   snapshot-visible mutation under that root), and the open-popup chain
//!   under the root (popup expansion is keyed *structurally* instead of
//!   stamped, so a transient open+close compares equal again — the same
//!   reasoning as Esc recovery);
//! - **per block** (`BlockKey`, within the window at the same stack
//!   position): the block root, its [`UiTree::block_stamp`] (every
//!   mutation that stamps a window also stamps the block it lands in),
//!   the open popups inside the block, and whether the root's viewport
//!   leaves it off-screen. Nothing else reaches a block's nodes but
//!   their rectangles: rows above the block only move it, and the window
//!   root reaches it only through the viewport flag.
//!
//! Showing or hiding a widget is a stamped write of its `visible` flag,
//! so a contextual control (PowerPoint's Picture Format tab) re-walks
//! only the block that holds it.
//!
//! Late loads need no key of their own, and nothing here reads the query
//! clock: a reveal is a stamped write. Before each capture the session
//! calls `UiTree::reveal_loaded`, which drops every pending-children
//! schedule due at that query and stamps the loading container's window
//! and block, so no capture taken while the children were hidden matches
//! from the reveal on, and the reveal query re-walks the block that
//! reveals. A capture reads only whether a container is still loading
//! ([`UiTree::is_loading`]).
//!
//! [`CaptureCache`] keeps a short MRU list of past captures. A capture
//! whose every window key matches is returned in O(1) as the same
//! [`Arc<Snapshot>`] — including its already-materialized `SnapIndex`
//! (cached ancestor paths and key multimap), which the eager path rebuilt
//! per query. On a miss, every window is walked and laid out, root first.
//! When the walk reaches a block root that a recent capture holds under
//! an equal block key, it copies the block's nodes — the donor's subtree
//! at the block root, one range of its pre-order arena, copied with one
//! reservation and no allocation per node
//! ([`Snapshot::append_subtree_from`]) — and skips the subtree
//! ([`layout::Step::SkipTo`]), advancing the row counter by the rows the
//! donor recorded for the block, so later blocks get the rects an eager
//! walk gives them. Rectangles are placement, not properties: when the
//! walk enters the block at another row than the donor's walk did (a
//! popup above it opened or closed), the copy is moved by the row shift
//! with the walk's own rule ([`layout::shift_rect`]), which leaves scroll
//! bars and off-screen nodes where they are. A click in the ribbon
//! thereby re-walks the ribbon, not the grid below it, and a window none
//! of whose blocks changed costs its root and one donor search per block.
//! Copied nodes share their property bags with the donor.
//!
//! # Identity lineages
//!
//! Every block of a cached capture is recorded in its snapshot
//! ([`Snapshot::record_block`]) with an identity [`Lineage`]. A block gets
//! one in one of two ways: a walked block mints a fresh one, and a copied
//! block keeps its donor's ([`Snapshot::append_subtree_from`]). Blocks
//! that share a lineage thereby hold the same nodes, copied under an
//! equal block key, so they carry equal names, control types and primary
//! ids in equal order. The snapshot's `SnapIndex` copies the key and path
//! columns a lineage holds under an equal root path and computes only the
//! other nodes, and the ripper's diff skips a block whose lineage an
//! available block of the pre-click capture shares. The eager [`build`]
//! records no block, so a full-rebuild session computes every column and
//! probes every node. A provider that changes a name without a stamp
//! breaks the key's promise: a copied block keeps the old name, with the
//! index and token terms of its lineage, and the byte axis of the
//! cached-vs-eager walk oracle flags it.
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
//! capture. A fresh fork clones the image tree's window and block stamps,
//! so its first capture probes equal to the entry and is served in O(1)
//! as the shared [`Arc<Snapshot>`], index included, while a tree that was
//! driven before it was wrapped in a session misses through the same key
//! rule and only borrows the entry's clean blocks. The entry's block
//! records and lineages are built with it, once per table entry.
//!
//! A restart is a fork in place. An app offers a table only if its
//! `reset` leaves the tree equal to the image, stamps and epochs
//! included, so a restarted tree carries the entry's keys as a fresh
//! fork does: a restart empties the MRU list and seeds it with the entry
//! exactly as a new session does. From then on ordinary probes serve it
//! (while the launch state holds) or copy clean blocks from it (after
//! the first click), through the same key rule as every other capture.
//! Emptying the list is what keeps that rule sound across a restart: the
//! restored tree's stamps rewind to the image's, so a write before the
//! restart and a different write after it can read the same tick, and a
//! capture taken before the restart would otherwise be served after it.
//!
//! The eager [`build`] stays as the uncached oracle;
//! `CaptureConfig::full_rebuild` (see [`crate::session`]) routes every
//! capture through it, and the release-gated equivalence tests assert
//! byte-identical UNGs either way.

use crate::instability::InstabilityModel;
use crate::layout::{self, Placed, Step};
use crate::tree::{OpenWindow, UiTree};
use crate::widget::WidgetId;
use dmi_uia::{ControlProps, Lineage, RuntimeId, Snapshot};
use std::sync::{Arc, Mutex, PoisonError};

/// Builds a snapshot of every open window (eager, uncached). The children
/// of a container still loading are left out: the session reveals the
/// due ones first (`UiTree::reveal_loaded`).
pub fn build(tree: &UiTree, inst: &InstabilityModel) -> Snapshot {
    let mut snap = Snapshot::new();
    for (wi, win) in tree.open_windows().iter().enumerate() {
        push_window(tree, inst, *win, wi, &mut snap, None);
    }
    snap
}

/// Walks one window into `snap` and registers its root in z-order. The
/// children of a container still loading are left out, though the layout
/// walk still places their rows. With `blocks`, a block that a donor
/// holds under an equal key is copied instead of walked, and every block
/// of the window is recorded ([`BlockWalk`]). Returns the number of
/// widgets the walk visited.
fn push_window(
    tree: &UiTree,
    inst: &InstabilityModel,
    win: OpenWindow,
    wi: usize,
    snap: &mut Snapshot,
    mut blocks: Option<&mut BlockWalk>,
) -> u64 {
    // `parents[d]`: the snapshot index of the last node visited at depth
    // `d`, or `None` when its children are absent (left out, or loading).
    let mut parents: Vec<Option<usize>> = Vec::new();
    let mut walked = 0;
    let start = snap.len();
    let end_row = layout::walk_window(tree, win.root, wi, |p| {
        parents.truncate(p.depth);
        let up = p.depth.checked_sub(1).map(|d| parents[d]);
        if let (1, Some(b), Some(Some(up))) = (p.depth, blocks.as_deref_mut(), up) {
            if let Some(end_row) = b.enter(tree, p, snap, up) {
                return Step::SkipTo(end_row);
            }
        }
        walked += 1;
        let parent = match up {
            Some(None) => {
                parents.push(None);
                return Step::Descend;
            }
            up => up.flatten(),
        };
        let w = tree.widget(p.id);
        let mut props = ControlProps::new(inst.live_name(p.id, &w.name), w.control_type);
        props.automation_id = w.automation_id.clone();
        props.help_text = w.help_text.clone();
        props.patterns = w.patterns;
        props.enabled = w.enabled;
        props.value = w.value.clone();
        props.toggle = w.toggle;
        props.selected = w.selected;
        props.expanded = if w.popup { Some(w.expanded) } else { None };
        props.offscreen = p.offscreen;
        let idx = snap.push(props, parent, wi);
        // Snapshot runtime ids must track the widget arena, not insertion order.
        snap.set_runtime_id(idx, runtime_of(p.id));
        snap.set_rect(idx, p.rect);
        parents.push((!tree.is_loading(p.id)).then_some(idx));
        Step::Descend
    });
    if let Some(b) = blocks {
        b.close(snap, end_row);
    }
    if snap.len() > start {
        if win.modal {
            snap.push_modal_window_root(start);
        } else {
            snap.push_window_root(start);
        }
    }
    walked
}

/// Walks one window into `snap` ([`push_window`]), copying each block
/// one of the `donors` holds, and records the keys its nodes are valid
/// under. Returns the record, the widgets walked and the blocks copied.
fn rebuild_window(
    tree: &UiTree,
    inst: &InstabilityModel,
    key: &WindowKey,
    wi: usize,
    snap: &mut Snapshot,
    donors: &[CachedCapture],
) -> (WindowMeta, u64, u64) {
    let win = OpenWindow { root: key.root, modal: key.modal };
    let mut blocks = BlockWalk::new(tree, key.root, wi, donors);
    let walked = push_window(tree, inst, win, wi, snap, Some(&mut blocks));
    let meta = WindowMeta { key: key.clone(), blocks: blocks.blocks.into() };
    (meta, walked, blocks.reused)
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
#[derive(Debug)]
struct WindowMeta {
    key: WindowKey,
    /// The window's blocks in walk order (none when the root's children
    /// were left out).
    blocks: Box<[BlockMeta]>,
}

/// The capture key of one block: a shown child of a window root and its
/// descendants, keyed within the window at the same stack position.
/// Everything a block's nodes depend on but their rectangles is here:
/// the block's own widgets (stamped, visibility writes and late-load
/// reveals included), the popups open inside it, and whether the root's
/// viewport leaves the block off-screen. Where the walk enters the block
/// only places it: a copy entered at another row is moved
/// ([`layout::shift_rect`]).
#[derive(Debug, PartialEq, Eq)]
struct BlockKey {
    root: WidgetId,
    stamp: u64,
    popups: Vec<WidgetId>,
    offscreen: bool,
}

/// Per-block record of a cached window.
#[derive(Debug)]
struct BlockMeta {
    key: BlockKey,
    /// The block root's node in its snapshot; the block is its subtree
    /// ([`Snapshot::descendants`]).
    start: usize,
    /// The row counter at the block root, which places its rectangles.
    row: i32,
    /// Rows the block takes in the layout walk, its root's included.
    rows: i32,
}

/// The block bookkeeping of one window's cached walk: the donor blocks
/// it may copy, and the record of every block so far.
struct BlockWalk<'a> {
    /// Each recent capture, most recent first: its snapshot and its
    /// blocks at the window's stack position.
    donors: Vec<(&'a Snapshot, &'a [BlockMeta])>,
    /// `(block, popup)` for every open popup inside a block of the
    /// window, in chain order.
    popups: Vec<(WidgetId, WidgetId)>,
    /// The window's stack position.
    wi: usize,
    blocks: Vec<BlockMeta>,
    /// The block being walked: its key, first node, and the row counter
    /// at its root.
    open: Option<(BlockKey, usize, i32)>,
    reused: u64,
}

impl<'a> BlockWalk<'a> {
    /// Starts the bookkeeping of the window rooted at `root`, at stack
    /// position `wi`, that may copy blocks from the recent captures
    /// `donors`.
    fn new(tree: &UiTree, root: WidgetId, wi: usize, donors: &'a [CachedCapture]) -> Self {
        let donors =
            donors.iter().filter_map(|e| Some((&*e.snap, &*e.windows.get(wi)?.blocks))).collect();
        let popups = tree
            .open_popups()
            .iter()
            .filter_map(|&p| match tree.root_and_block_of(p) {
                (r, Some(block)) if r == root => Some((block, p)),
                _ => None,
            })
            .collect();
        BlockWalk { donors, popups, wi, blocks: Vec::new(), open: None, reused: 0 }
    }

    /// The key of the block whose root the walk placed at `p`.
    fn key(&self, tree: &UiTree, p: Placed) -> BlockKey {
        BlockKey {
            root: p.id,
            stamp: tree.block_stamp(p.id),
            popups: self.popups.iter().filter(|&&(b, _)| b == p.id).map(|&(_, q)| q).collect(),
            offscreen: p.offscreen,
        }
    }

    /// The first donor block, most recent capture first, held under
    /// `key`, with its snapshot.
    fn donor(&self, key: &BlockKey) -> Option<(&'a Snapshot, &'a BlockMeta)> {
        self.donors
            .iter()
            .find_map(|&(src, blocks)| Some((src, blocks.iter().find(|b| b.key == *key)?)))
    }

    /// The walk placed a block root at `p`, under the window's root node
    /// `up`. Closes the block before it; then copies the block from a
    /// donor that holds it, moved to the root's row, and returns the row
    /// counter after it, or opens it for walking under a fresh lineage
    /// and returns `None`.
    fn enter(&mut self, tree: &UiTree, p: Placed, snap: &mut Snapshot, up: usize) -> Option<i32> {
        self.close(snap, p.row);
        let key = self.key(tree, p);
        let Some((src, b)) = self.donor(&key) else {
            self.open = Some((key, snap.len(), p.row));
            return None;
        };
        let start = snap.append_subtree_from(src, b.start, up, self.wi);
        let shift = p.row - b.row;
        for i in (start..snap.len()).filter(|_| shift != 0) {
            let n = snap.node(i);
            let (ty, off) = (n.props.control_type, n.props.offscreen);
            snap.set_rect(i, layout::shift_rect(self.wi, ty, off, n.rect, shift));
        }
        self.blocks.push(BlockMeta { key, start, row: p.row, rows: b.rows });
        self.reused += 1;
        Some(p.row + b.rows)
    }

    /// Records the block being walked, if any, as ending at the end of
    /// `snap` with the row counter at `row`.
    fn close(&mut self, snap: &mut Snapshot, row: i32) {
        if let Some((key, start, row0)) = self.open.take() {
            snap.record_block(start, snap.len(), Lineage::default());
            self.blocks.push(BlockMeta { key, start, row: row0, rows: row - row0 });
        }
    }
}

/// One cached capture: the shared snapshot plus the keys it was built
/// under. Both are shared, so a clone (a seeded launch capture) copies
/// two pointers.
#[derive(Debug, Clone)]
struct CachedCapture {
    snap: Arc<Snapshot>,
    windows: Arc<[WindowMeta]>,
}

impl CachedCapture {
    fn matches(&self, keys: &[WindowKey]) -> bool {
        self.windows.iter().map(|m| &m.key).eq(keys)
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
    /// Windows walked from the widget tree: every window of a capture
    /// that missed, though the walk may have copied some or all of its
    /// blocks (counted in `blocks_reused`).
    pub windows_rebuilt: u64,
    /// Blocks (a window root's child with its descendants) copied from a
    /// donor capture inside a walked window.
    pub blocks_reused: u64,
    /// Widgets the layout walks of rebuilt windows visited: the capture's
    /// work, copied blocks excluded.
    pub nodes_walked: u64,
}

impl CaptureCache {
    /// Drops every cached capture.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Seeds this cache with the launch capture under `inst` from
    /// `launch`, an image and its table ([`crate::GuiApp::launch_captures`]),
    /// as the most recent capture; callers seed an empty cache. The entry
    /// keeps the image tree's keys, which a fresh fork of the image and a
    /// restarted tree share. Leaves the cache as it is when there is no
    /// table, or it is full without the model's entry.
    pub(crate) fn seed(
        &mut self,
        launch: Option<(&UiTree, &LaunchCaptures)>,
        inst: &InstabilityModel,
    ) {
        if let Some(entry) = launch.and_then(|(image, captures)| captures.capture(image, inst)) {
            self.entries.insert(0, entry);
        }
    }
}

/// Probes the MRU cache for an O(1) full hit against the current tree
/// state. On a miss, returns the per-window capture keys so the caller
/// can pass them to [`rebuild`] without recomputing them.
pub(crate) fn probe(
    tree: &UiTree,
    cache: &mut CaptureCache,
) -> Result<Arc<Snapshot>, Vec<WindowKey>> {
    let keys = window_keys(tree);

    // O(1) path: any recent capture whose every key component matches is
    // byte-identical to what an eager rebuild would produce.
    if let Some(pos) = cache.entries.iter().position(|e| e.matches(&keys)) {
        let entry = cache.entries.remove(pos);
        let snap = Arc::clone(&entry.snap);
        cache.entries.insert(0, entry);
        return Ok(snap);
    }
    Err(keys)
}

/// Builds the capture for the current tree state after [`probe`] missed:
/// every window is walked, copying each clean block a recent capture
/// holds.
pub(crate) fn rebuild(
    tree: &UiTree,
    inst: &InstabilityModel,
    keys: Vec<WindowKey>,
    cache: &mut CaptureCache,
    stats: &mut CaptureStats,
) -> Arc<Snapshot> {
    let mut snap = Snapshot::new();
    let mut windows = Vec::with_capacity(keys.len());
    for (wi, key) in keys.iter().enumerate() {
        let (meta, walked, reused) = rebuild_window(tree, inst, key, wi, &mut snap, &cache.entries);
        stats.windows_rebuilt += 1;
        stats.nodes_walked += walked;
        stats.blocks_reused += reused;
        dmi_obs::tally("capture.windows_rebuilt", 1);
        dmi_obs::tally("capture.nodes_walked", walked);
        dmi_obs::tally("capture.blocks_reused", reused);
        windows.push(meta);
    }

    let snap = Arc::new(snap);
    let entry = CachedCapture { snap: Arc::clone(&snap), windows: windows.into() };
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
/// late-load schedule, so no container in it is still loading. Timed as
/// a capture `rebuild`, but counted in no session's [`CaptureStats`].
fn launch_capture(image: &UiTree, inst: &InstabilityModel) -> CachedCapture {
    let _rebuild_span = dmi_obs::span(dmi_obs::Cat::Capture, "rebuild", 0);
    dmi_obs::tally("capture.launch_builds", 1);
    let mut tree = image.clone();
    tree.reset_ui_state();
    let mut snap = Snapshot::new();
    let windows = window_keys(&tree)
        .iter()
        .enumerate()
        .map(|(wi, key)| rebuild_window(&tree, inst, key, wi, &mut snap, &[]).0)
        .collect();
    CachedCapture { snap: Arc::new(snap), windows }
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
        let s = build(&t, &InstabilityModel::off());
        assert!(s.find_by_name("Colors").is_some());
        assert!(s.find_by_name("Blue").is_none());
    }

    #[test]
    fn open_menus_reveal_children() {
        let (mut t, _, menu, _) = tree();
        t.open_popup(menu);
        let s = build(&t, &InstabilityModel::off());
        assert!(s.find_by_name("Blue").is_some());
    }

    #[test]
    fn runtime_ids_track_widget_ids() {
        let (mut t, _, menu, item) = tree();
        t.open_popup(menu);
        let s = build(&t, &InstabilityModel::off());
        let idx = s.find_by_name("Blue").unwrap();
        assert_eq!(widget_of(s.node(idx).runtime_id), item);
    }

    #[test]
    fn late_loading_children_absent_then_present() {
        let (mut t, _, menu, _) = tree();
        t.open_popup(menu);
        t.set_pending_children(menu, 5);
        t.reveal_loaded(4);
        let s4 = build(&t, &InstabilityModel::off());
        assert!(s4.find_by_name("Blue").is_none());
        t.reveal_loaded(5);
        let s5 = build(&t, &InstabilityModel::off());
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
        let rect = |s: &Snapshot, name| s.node(s.find_by_name(name).unwrap()).rect;
        t.reveal_loaded(4);
        let s4 = build(&t, &InstabilityModel::off());
        t.reveal_loaded(5);
        let s5 = build(&t, &InstabilityModel::off());
        assert!(s4.find_by_name("First").is_none());
        assert_eq!(rect(&s4, "After"), rect(&s5, "After"));
        assert_eq!(rect(&s5, "After").y, 4 * layout::ROW_H);
    }

    #[test]
    fn name_variation_applies_in_snapshot_only() {
        let (mut t, _, menu, _) = tree();
        t.open_popup(menu);
        let inst = InstabilityModel::new(3, 0.0, 1.0);
        let s = build(&t, &inst);
        // The provider-side name is unchanged.
        assert_eq!(t.widget(menu).name, "Colors");
        // The snapshot name is the varied one.
        let snap_names: Vec<String> = s.iter().map(|(_, n)| n.props.name.clone()).collect();
        assert!(snap_names
            .iter()
            .any(|n| n != "Colors" && n.starts_with("Colors") || n == "Colors*"));
    }

    /// A main window of three blocks: a ribbon with a popup menu of two
    /// items, a grid of 3 rows x 4 cells, and a status bar.
    fn blocks() -> (UiTree, [WidgetId; 4]) {
        let mut t = UiTree::new();
        let main = t.add_root(Widget::new("Main", CT::Window));
        let ribbon = t.add(main, Widget::new("Ribbon", CT::Group));
        let menu = t.add(ribbon, WidgetBuilder::new("Colors", CT::SplitButton).popup().build());
        t.add(menu, Widget::new("Blue", CT::ListItem));
        t.add(menu, Widget::new("Red", CT::ListItem));
        let grid = t.add(main, Widget::new("Grid", CT::Table));
        for r in 0..3 {
            let row = t.add(grid, Widget::new(format!("Row {r}"), CT::DataItem));
            for c in 0..4 {
                t.add(row, Widget::new(format!("R{r}C{c}"), CT::DataItem));
            }
        }
        let status = t.add(main, Widget::new("Status", CT::StatusBar));
        t.add(status, Widget::new("Ready", CT::Text));
        (t, [main, menu, grid, status])
    }

    /// Captures `t` through `cache`, the way a cached session does,
    /// without comparing it to the eager build.
    fn cached(t: &UiTree, cache: &mut CaptureCache, stats: &mut CaptureStats) -> Arc<Snapshot> {
        let inst = InstabilityModel::off();
        probe(t, cache).unwrap_or_else(|keys| rebuild(t, &inst, keys, cache, stats))
    }

    /// [`cached`], asserted byte-identical to the eager build.
    fn capture(t: &UiTree, cache: &mut CaptureCache, stats: &mut CaptureStats) -> Arc<Snapshot> {
        let snap = cached(t, cache, stats);
        assert_eq!(*snap, build(t, &InstabilityModel::off()));
        snap
    }

    fn rect_of(s: &Snapshot, name: &str) -> dmi_uia::Rect {
        s.node(s.find_by_name(name).unwrap()).rect
    }

    #[test]
    fn stamped_mutation_in_one_block_copies_its_siblings() {
        let (mut t, [_, _, grid, _]) = blocks();
        let (mut cache, mut stats) = (CaptureCache::default(), CaptureStats::default());
        capture(&t, &mut cache, &mut stats);
        let all = t.len() as u64 - 2; // the closed menu's items are not shown
        assert_eq!((stats.windows_rebuilt, stats.blocks_reused, stats.nodes_walked), (1, 0, all));
        // A cell write stamps the grid's block only: the ribbon and the
        // status bar are copied, the root and the grid walked.
        let cell = t.find_by_name("R1C2").unwrap();
        t.widget_mut(cell).value = "42".into();
        let snap = capture(&t, &mut cache, &mut stats);
        assert_eq!(snap.node(snap.find_by_name("R1C2").unwrap()).props.value, "42");
        let grid_nodes = 1 + 3 * 5;
        assert_eq!(stats.windows_rebuilt, 2);
        assert_eq!(stats.blocks_reused, 2, "ribbon and status bar copied");
        assert_eq!(stats.nodes_walked, all + 1 + grid_nodes, "root and grid walked");
        // A grid write again: the previous capture's sibling blocks serve.
        t.widget_mut(grid).help_text = "cells".into();
        capture(&t, &mut cache, &mut stats);
        assert_eq!(stats.blocks_reused, 4);
        // A root write re-walks the root alone: every block is clean.
        let root = t.main_root();
        t.widget_mut(root).help_text = "main".into();
        capture(&t, &mut cache, &mut stats);
        assert_eq!((stats.blocks_reused, stats.nodes_walked), (7, all + 2 * (1 + grid_nodes) + 1));
    }

    #[test]
    fn a_popup_in_an_earlier_block_shifts_the_later_blocks() {
        let (mut t, [_, menu, _, status]) = blocks();
        let (mut cache, mut stats) = (CaptureCache::default(), CaptureStats::default());
        let base = capture(&t, &mut cache, &mut stats);
        // Opening the menu adds two rows to the ribbon's block: the grid
        // and the status bar start two rows later, so they are copied and
        // moved two rows down, where the eager build places them.
        t.open_popup(menu);
        let open = capture(&t, &mut cache, &mut stats);
        assert_eq!(stats.blocks_reused, 2, "the grid and the status bar copied");
        assert_eq!(rect_of(&open, "R0C0").y, rect_of(&base, "R0C0").y + 2 * layout::ROW_H);
        assert_eq!(rect_of(&open, "Ready").y, rect_of(&base, "Ready").y + 2 * layout::ROW_H);
        // Closing it returns to the base capture whole.
        t.collapse_popup(menu);
        assert!(Arc::ptr_eq(&capture(&t, &mut cache, &mut stats), &base));
        // A write in the last block with the menu open leaves the earlier
        // ones in place; closing the menu then moves the most recent
        // grid and status bar two rows up.
        t.open_popup(menu);
        assert!(Arc::ptr_eq(&capture(&t, &mut cache, &mut stats), &open));
        t.widget_mut(status).value = "Busy".into();
        capture(&t, &mut cache, &mut stats);
        assert_eq!(stats.blocks_reused, 4, "ribbon and grid copied");
        t.collapse_popup(menu);
        let closed = capture(&t, &mut cache, &mut stats);
        assert_eq!(stats.blocks_reused, 7, "every block copied");
        assert_eq!(rect_of(&closed, "Ready"), rect_of(&base, "Ready"));
    }

    #[test]
    fn a_late_load_inside_a_copied_block_reveals_at_its_query() {
        let (mut t, [_, menu, grid, _]) = blocks();
        let (mut cache, mut stats) = (CaptureCache::default(), CaptureStats::default());
        t.open_popup(menu);
        t.set_pending_children(menu, 4);
        // Each query reveals what is due before it captures, as a session
        // does.
        t.reveal_loaded(1);
        let lag = capture(&t, &mut cache, &mut stats);
        assert!(lag.find_by_name("Blue").is_none());
        // A grid write before the reveal copies the ribbon, still loading.
        t.widget_mut(grid).help_text = "cells".into();
        t.reveal_loaded(2);
        let copied = capture(&t, &mut cache, &mut stats);
        assert_eq!(stats.blocks_reused, 2);
        assert!(copied.find_by_name("Blue").is_none());
        t.reveal_loaded(3);
        assert!(Arc::ptr_eq(&capture(&t, &mut cache, &mut stats), &copied));
        // The reveal stamps the ribbon: its query re-walks the ribbon
        // alone, items included.
        t.reveal_loaded(4);
        let revealed = capture(&t, &mut cache, &mut stats);
        assert!(revealed.find_by_name("Blue").is_some());
        assert_eq!(stats.blocks_reused, 4, "grid and status bar copied at the reveal");
    }

    #[test]
    fn an_unstamped_relabel_in_a_clean_block_serves_stale_bytes() {
        // The blast radius of a provider that lies to its stamps: a block
        // copied after an unstamped relabel keeps the old name, and only
        // the eager oracle tells.
        let (mut t, [_, _, grid, status]) = blocks();
        let (mut cache, mut stats) = (CaptureCache::default(), CaptureStats::default());
        capture(&t, &mut cache, &mut stats);
        let ready = t.widget(status).children[0];
        t.relabel_unstamped(ready, "Stale");
        t.widget_mut(grid).help_text = "cells".into();
        let snap = cached(&t, &mut cache, &mut stats);
        assert_eq!(stats.blocks_reused, 2);
        assert!(snap.find_by_name("Ready").is_some(), "the copied block keeps the old name");
        let oracle = build(&t, &InstabilityModel::off());
        assert!(oracle.find_by_name("Stale").is_some());
        assert_ne!(*snap, oracle, "the oracle flags the stale block");
    }

    /// The lineage of the block whose root is named `name`.
    fn lineage_of(s: &Snapshot, name: &str) -> Lineage {
        s.block_at(s.find_by_name(name).unwrap()).expect("a recorded block").lineage.clone()
    }

    /// Asserts that the identity index of the capture `snap` of `t` equals
    /// the index of the eager build, computed whole.
    fn assert_index_fresh(snap: &Snapshot, t: &UiTree) {
        let eager = build(t, &InstabilityModel::off());
        assert!(eager.blocks().is_empty(), "the eager build records no block");
        let (a, b) = (snap.index(), eager.index());
        for i in 0..eager.len() {
            assert_eq!((a.key(i), a.path(i)), (b.key(i), b.path(i)), "node {i}");
        }
    }

    /// Whether node `name` has its ancestor path in one allocation in the
    /// indexes of `a` and `b`: copied from one lineage, not computed twice.
    fn path_shared(a: &Snapshot, b: &Snapshot, name: &str) -> bool {
        let (i, j) = (a.find_by_name(name).unwrap(), b.find_by_name(name).unwrap());
        std::ptr::eq(a.index().path(i).as_ptr(), b.index().path(j).as_ptr())
    }

    #[test]
    fn a_popup_that_shifts_later_blocks_copies_them_under_their_lineage() {
        let (mut t, [_, menu, _, _]) = blocks();
        let (mut cache, mut stats) = (CaptureCache::default(), CaptureStats::default());
        let base = capture(&t, &mut cache, &mut stats);
        base.index();
        // The popup opens inside the ribbon and moves the later blocks'
        // rows: the ribbon is walked under a fresh lineage, the grid and
        // the status bar are copied at their new rows under the lineage
        // of their base blocks, so the index copies their columns.
        t.open_popup(menu);
        let open = capture(&t, &mut cache, &mut stats);
        assert_eq!(stats.blocks_reused, 2, "the grid and the status bar copied");
        assert!(!lineage_of(&open, "Ribbon").same(&lineage_of(&base, "Ribbon")));
        for name in ["Grid", "Status"] {
            assert!(lineage_of(&open, name).same(&lineage_of(&base, name)), "{name}");
        }
        assert_index_fresh(&open, &t);
        assert!(path_shared(&open, &base, "R2C3") && path_shared(&open, &base, "Ready"));
        assert!(!path_shared(&open, &base, "Colors"), "the ribbon's columns are computed");
    }

    #[test]
    fn a_stamped_write_mints_a_fresh_lineage() {
        let (mut t, _) = blocks();
        let (mut cache, mut stats) = (CaptureCache::default(), CaptureStats::default());
        let base = capture(&t, &mut cache, &mut stats);
        base.index();
        let cell = t.find_by_name("R1C2").unwrap();
        t.widget_mut(cell).value = "42".into();
        let snap = capture(&t, &mut cache, &mut stats);
        assert!(!lineage_of(&snap, "Grid").same(&lineage_of(&base, "Grid")), "the grid is new");
        for name in ["Ribbon", "Status"] {
            assert!(lineage_of(&snap, name).same(&lineage_of(&base, name)), "{name} copied");
        }
        assert_index_fresh(&snap, &t);
        assert!(!path_shared(&snap, &base, "R0C0") && path_shared(&snap, &base, "Ready"));
    }

    #[test]
    fn a_window_root_rename_recomputes_the_copied_columns() {
        let (mut t, [main, ..]) = blocks();
        let (mut cache, mut stats) = (CaptureCache::default(), CaptureStats::default());
        let base = capture(&t, &mut cache, &mut stats);
        base.index();
        // The rename stamps the root alone: every block is copied under
        // its lineage, but under a new root path, so the index computes
        // their columns again — and the diff's root-path check fails too.
        t.widget_mut(main).name = "Renamed".into();
        let snap = capture(&t, &mut cache, &mut stats);
        assert_eq!(stats.blocks_reused, 3);
        assert!(lineage_of(&snap, "Grid").same(&lineage_of(&base, "Grid")));
        assert_index_fresh(&snap, &t);
        let grid = snap.find_by_name("Grid").unwrap();
        assert_eq!(snap.index().path(snap.find_by_name("R0C0").unwrap()), "Renamed/Grid/Row 0");
        assert_ne!(snap.index().path(grid), base.index().path(grid), "root paths differ");
        assert!(!path_shared(&snap, &base, "Ready"));
    }

    #[test]
    fn an_unstamped_relabel_in_a_shifted_block_serves_stale_bytes() {
        // A provider that lies to its stamps, where a block moves: the
        // status bar, copied two rows down after an unstamped relabel,
        // keeps the old name with its donor's lineage, and so its old
        // identity; only the eager oracle tells, wherever the copy lands.
        let (mut t, [_, menu, _, status]) = blocks();
        let (mut cache, mut stats) = (CaptureCache::default(), CaptureStats::default());
        let base = cached(&t, &mut cache, &mut stats);
        base.index();
        let ready = t.widget(status).children[0];
        t.relabel_unstamped(ready, "Stale");
        t.open_popup(menu);
        let snap = cached(&t, &mut cache, &mut stats);
        assert_eq!(stats.blocks_reused, 2, "the grid and the status bar are copied");
        assert!(lineage_of(&snap, "Status").same(&lineage_of(&base, "Status")));
        let oracle = build(&t, &InstabilityModel::off());
        let stale = oracle.find_by_name("Stale").expect("the eager build reads the new name");
        assert_eq!(snap.find_by_name("Ready"), Some(stale), "the copy keeps the old name");
        assert_eq!(
            snap.node(stale).rect,
            oracle.node(stale).rect,
            "placed as the oracle places it"
        );
        assert_ne!(*snap, oracle, "the oracle flags the stale block");
        assert_eq!(snap.resolve(&oracle.control_id(stale)), None, "the new identity misses");
    }

    #[test]
    fn a_dirty_dialog_over_a_clean_main_window_copies_its_blocks() {
        let (mut t, [main, ..]) = blocks();
        let dlg = t.add_root(Widget::new("Format Cells", CT::Window));
        let edit = t.add(dlg, Widget::new("Name", CT::Edit));
        t.open_window(dlg, true);
        let (mut cache, mut stats) = (CaptureCache::default(), CaptureStats::default());
        let base = capture(&t, &mut cache, &mut stats);
        // A write in the dialog walks the main window's root and copies
        // its three blocks, then walks the whole dialog.
        let before = stats;
        t.widget_mut(edit).value = "Quarterly".into();
        let snap = capture(&t, &mut cache, &mut stats);
        assert_eq!(stats.windows_rebuilt - before.windows_rebuilt, 2, "every window walked");
        assert_eq!(stats.blocks_reused - before.blocks_reused, 3, "every main block copied");
        assert_eq!(stats.nodes_walked - before.nodes_walked, 1 + 2, "main root and dialog walked");
        assert_eq!(snap.node(snap.find_by_name("Name").unwrap()).props.value, "Quarterly");
        // The main window keeps its nodes, runtime ids included.
        let main_end = snap.windows()[1];
        assert_eq!(snap.node(0).runtime_id, runtime_of(main));
        for i in 0..main_end {
            assert_eq!(snap.node(i), base.node(i), "node {i}");
        }
    }

    #[test]
    fn multiple_windows_in_z_order() {
        let (mut t, ..) = tree();
        let dlg = t.add_root(Widget::new("Format Cells", CT::Window));
        t.add(dlg, Widget::new("OK", CT::Button));
        t.open_window(dlg, true);
        let s = build(&t, &InstabilityModel::off());
        assert_eq!(s.windows().len(), 2);
        let top = s.top_window().unwrap();
        assert_eq!(s.node(top).props.name, "Format Cells");
    }
}
