//! The cached capture pipeline: epoch-keyed [`dmi_uia::Snapshot`]s built
//! from a live [`UiTree`] and shared behind [`Arc`]s.
//!
//! The snapshot is the *client view*: only revealed widgets appear (closed
//! menus contribute nothing, mirroring lazy UIA providers), instability
//! perturbations (late loads, name variation) are applied here, and layout
//! rectangles and off-screen flags come from [`crate::layout`].
//!
//! # Why a cache
//!
//! With restart-replay gone (PR 2), snapshot construction dominates rip
//! cost: ~8.9k captures on the small Word app, each re-walking the full
//! arena, recomputing layout, and discarding the previous snapshot's
//! lazily built `SnapIndex`. Most of those captures see a UI that is
//! byte-identical to one captured moments earlier — the ripper's hot loop
//! (escape to base → walk → pre-click capture → click → post-click
//! capture) keeps returning to the same handful of states.
//!
//! # How validity is decided
//!
//! A capture is fully determined by per-window keys plus two global
//! components:
//!
//! - **per window**: the arena root, its modality and stack position, the
//!   root's [`UiTree::window_stamp`] (bumped by every snapshot-visible
//!   mutation under that root), and the open-popup chain under the root
//!   (popup expansion is keyed *structurally* instead of stamped, so a
//!   transient open+close compares equal again — the same reasoning as
//!   PR 2's Esc recovery);
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
//! (cached ancestor paths, key multimap, runtime-id table), which the
//! eager path rebuilt per query. On a miss, each clean window's node
//! block is copied wholesale from the best donor capture
//! ([`Snapshot::append_window_from`]) and only dirty windows are
//! re-walked, with their layout rows served by the shared
//! [`layout::LayoutCache`]. Copied blocks also carry the donor's
//! identity-index columns forward ([`Snapshot::seed_index_window`]): when
//! the new snapshot's `SnapIndex` materializes, clean windows splice the
//! donor's shared path `Arc`s and key columns, so only dirty windows pay
//! index construction.
//!
//! Between the MRU probe and a rebuild, sessions attached to a
//! [`CapturePool`] additionally probe a **cross-session** pool: sibling
//! sessions forked from the same pristine image (the gateway's pooled
//! tenant sessions) serve each other's captures, keyed by pristine-relative
//! action traces — see [`CapturePool`] for the soundness argument.
//!
//! The eager [`build`] stays as the uncached oracle;
//! `CaptureConfig::full_rebuild` (see [`crate::session`]) routes every
//! capture through it, and the release-gated equivalence tests assert
//! byte-identical UNGs either way.

use crate::instability::InstabilityModel;
use crate::layout::{self, LayoutCache, WindowLayout};
use crate::tree::UiTree;
use crate::widget::WidgetId;
use dmi_uia::{ControlProps, RuntimeId, Snapshot};
use std::sync::{Arc, Mutex};

/// Builds a snapshot of every open window (eager, uncached).
///
/// `query_seq` is the monotonically increasing snapshot counter maintained
/// by the session; late-loading subtrees compare against it.
pub fn build(tree: &UiTree, inst: &InstabilityModel, query_seq: u64) -> Snapshot {
    let mut snap = Snapshot::new();
    for (wi, win) in tree.open_windows().iter().enumerate() {
        let lay = layout::compute_window(tree, win.root, wi);
        push_window(tree, inst, query_seq, win.root, win.modal, wi, &lay, &mut snap);
    }
    snap
}

/// Walks one window into `snap`, registering its root in z-order.
#[allow(clippy::too_many_arguments)]
fn push_window(
    tree: &UiTree,
    inst: &InstabilityModel,
    query_seq: u64,
    root: WidgetId,
    modal: bool,
    wi: usize,
    lay: &WindowLayout,
    snap: &mut Snapshot,
) {
    let root_idx = add_subtree(tree, inst, query_seq, root, None, wi, lay, snap);
    if let Some(r) = root_idx {
        if modal {
            snap.push_modal_window_root(r);
        } else {
            snap.push_window_root(r);
        }
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

impl WindowKey {
    fn of(tree: &UiTree, root: WidgetId, modal: bool) -> WindowKey {
        WindowKey { root, modal, stamp: tree.window_stamp(root), popups: tree.popups_under(root) }
    }
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
/// under.
#[derive(Debug, Clone)]
struct CachedCapture {
    snap: Arc<Snapshot>,
    context_epoch: u64,
    windows: Vec<WindowMeta>,
}

impl CachedCapture {
    fn matches(&self, keys: &[WindowKey], context_epoch: u64, query_seq: u64) -> bool {
        self.context_epoch == context_epoch
            && self.windows.len() == keys.len()
            && self.windows.iter().zip(keys).all(|(m, k)| m.valid_for(k, query_seq))
    }
}

/// MRU cache of recent captures plus the shared per-window layout cache.
/// Owned by `Session`; cleared on restart (an application `reset` may
/// swap the tree wholesale, which would break stamp lineage).
#[derive(Debug, Default)]
pub struct CaptureCache {
    entries: Vec<CachedCapture>,
    layout: LayoutCache,
}

/// Counters for capture-cache effectiveness (see `Session::capture_stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaptureStats {
    /// Captures taken (cache hits included).
    pub captures: u64,
    /// Captures served in O(1) as a shared `Arc` to a previous build.
    pub full_hits: u64,
    /// Subset of `full_hits` served from the restart-surviving pristine
    /// stash (post-restart captures of an unchanged launch image).
    pub pristine_hits: u64,
    /// Windows whose node block was copied from a donor capture during a
    /// partial rebuild.
    pub windows_reused: u64,
    /// Windows re-walked from the widget tree.
    pub windows_rebuilt: u64,
    /// Captures served from a shared cross-session [`CapturePool`] (a
    /// sibling session built the identical snapshot first).
    pub pool_hits: u64,
    /// Pool probes that found no matching entry (the capture then built
    /// locally and was offered to the pool).
    pub pool_misses: u64,
    /// Times a poisoned [`CapturePool`] lock was recovered: the pooled
    /// entries are discarded (a sibling session died while holding the
    /// lock) and the capture falls back to a fresh rebuild instead of
    /// propagating the panic into this session's checkout path.
    pub poison_recoveries: u64,
    /// Subset of `pool_hits` served from *warm* entries — captures
    /// imported from a persistent store rather than built by a live
    /// sibling session this process.
    pub pool_warm_hits: u64,
    /// Entries evicted from the shared pool under the frequency × cost
    /// retention policy while this session inserted.
    pub pool_evictions: u64,
}

impl CaptureCache {
    /// Drops every cached capture and layout row set.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.layout.clear();
    }

    /// The shared layout for the current tree state, reusing unchanged
    /// windows (used by the session's input paths).
    pub fn layout(&mut self, tree: &UiTree) -> layout::Layout {
        self.layout.compute(tree)
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
    let keys: Vec<WindowKey> =
        tree.open_windows().iter().map(|win| WindowKey::of(tree, win.root, win.modal)).collect();

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
/// clean windows are copied from the best donor capture (their identity-
/// index columns seeded for carry-forward when the donor's index is
/// already materialized), dirty windows are re-walked.
pub(crate) fn rebuild(
    tree: &UiTree,
    inst: &InstabilityModel,
    query_seq: u64,
    depth: usize,
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
            m.valid_for(key, query_seq).then(|| (Arc::clone(&e.snap), m.clone()))
        });
        let meta = match donor {
            Some((donor_snap, m)) => {
                let start = snap.append_window_from(&donor_snap, m.start, m.end, wi);
                let end = snap.len();
                if m.rooted {
                    if key.modal {
                        snap.push_modal_window_root(start);
                    } else {
                        snap.push_window_root(start);
                    }
                }
                // Subtree carry-forward: the copied block is byte-
                // identical to the donor range, so the donor's per-node
                // index columns (shared path `Arc`s, keys, depths) can be
                // spliced instead of rebuilt — but only when the donor
                // index already exists; splicing must never force one.
                if let Some(donor_ix) = donor_snap.index_if_built() {
                    snap.seed_index_window(start, end, donor_ix, m.start);
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
                let lay = cache.layout.window(tree, key.root, wi);
                let start = snap.len();
                push_window(tree, inst, query_seq, key.root, key.modal, wi, &lay, &mut snap);
                let end = snap.len();
                stats.windows_rebuilt += 1;
                dmi_obs::tally("capture.windows_rebuilt", 1);
                WindowMeta {
                    key: key.clone(),
                    start,
                    end,
                    rooted: end > start,
                    next_reveal: tree.next_reveal_under(key.root, query_seq),
                }
            }
        };
        metas.push(meta);
    }

    let snap = Arc::new(snap);
    cache
        .entries
        .insert(0, CachedCapture { snap: Arc::clone(&snap), context_epoch, windows: metas });
    cache.entries.truncate(depth.max(1));
    snap
}

/// A shared, read-mostly pool of captures keyed by pristine-relative
/// action traces, serving snapshot hits **across sessions** forked from
/// one pristine launch image (see `Session::set_capture_pool`).
///
/// # Why sharing across sessions is sound
///
/// Per-session capture keys (window mutation stamps, state epochs) are
/// monotonic counters whose absolute values depend on each session's
/// history, so they are meaningless across sessions. What *is* comparable
/// is the action trace: on a deterministic application, the widget tree —
/// and hence the snapshot bytes — is a pure function of `(pristine image,
/// input actions since the state provably equaled that image)`. Sessions
/// attest the image via `GuiApp::pristine_token` and track the trace as a
/// fingerprint sequence (reset whenever the state provably returns to
/// pristine, poisoned by any input the trace cannot fingerprint), so two
/// sessions with the same `(token, trace)` hold byte-identical trees and
/// may share one snapshot `Arc` — identity index included.
///
/// Entries additionally key on an instability-model fingerprint (name
/// variation is a pure function of `(seed, widget)`, so equal models
/// perturb forks identically), and sessions skip the pool entirely while
/// late-load instability is configured — the one perturbation keyed on
/// session-local clocks rather than tree state.
///
/// # Locking discipline
///
/// One flat `Mutex` around a small MRU vector. Every operation is a short
/// critical section — a key scan plus an `Arc` clone or a bounded insert;
/// no snapshot is ever *built* under the lock, so contention costs a few
/// compares while a hit saves a full O(arena) walk and index build.
#[derive(Debug, Default)]
pub struct CapturePool {
    capacity: usize,
    entries: Mutex<Vec<PoolEntry>>,
}

#[derive(Debug)]
struct PoolEntry {
    /// `GuiApp::pristine_token` of the image the trace is relative to.
    token: u64,
    /// Instability-model fingerprint (seed + name-variation setting).
    model: u64,
    /// Chained hash of the action trace (fast reject).
    hash: u64,
    /// The full fingerprint trace, compared element-wise on a hash match
    /// — this guards against chained-hash collisions for free. The
    /// per-action fingerprints themselves are unconfirmed 64-bit digests
    /// (two *different* actions colliding on every fingerprint would
    /// alias), which is weaker than the ControlKey hash+confirm
    /// discipline but over ~a dozen independent 64-bit draws per trace,
    /// not a practical concern.
    trace: Vec<u64>,
    snap: Arc<Snapshot>,
    /// Times this entry served a lookup (the frequency half of the
    /// retention score).
    hits: u64,
    /// Whether the entry was imported from a persistent store (a *warm*
    /// entry) rather than built by a live session this process.
    warm: bool,
}

impl PoolEntry {
    /// Retention score under the frequency × cost policy: how many
    /// node-walks the entry has saved, weighted by how many it would
    /// cost to rebuild. `hits + 1` counts the build itself, so a large
    /// never-hit capture still outranks a tiny never-hit one.
    fn retention_score(&self) -> u128 {
        (self.hits as u128 + 1) * self.snap.len().max(1) as u128
    }
}

/// One exported pool entry, ready for persistence. The pristine token is
/// deliberately absent: it attests an in-process allocation and does not
/// survive serialization — importers re-key entries to the live session's
/// token after attesting the pristine image structurally (see
/// `dmi_core::incremental::pristine_signature`).
#[derive(Debug, Clone)]
pub struct PooledCapture {
    /// Instability-model fingerprint the entry was built under.
    pub model: u64,
    /// Chained action-trace hash (fast reject key).
    pub hash: u64,
    /// The full fingerprint trace (hash-collision confirm key).
    pub trace: Vec<u64>,
    /// The pooled snapshot.
    pub snap: Arc<Snapshot>,
    /// Lookup count carried across processes so the retention policy
    /// keeps historically hot entries.
    pub hits: u64,
}

impl CapturePool {
    /// A pool retaining up to `capacity` captures (frequency × cost
    /// retention, see [`PoolEntry::retention_score`]).
    pub fn new(capacity: usize) -> CapturePool {
        CapturePool { capacity: capacity.max(1), entries: Mutex::new(Vec::new()) }
    }

    /// A pool with the default capacity, ready to share across sessions.
    pub fn shared() -> Arc<CapturePool> {
        Arc::new(CapturePool::new(64))
    }

    /// Number of pooled captures.
    pub fn len(&self) -> usize {
        match self.entries.lock() {
            Ok(g) => g.len(),
            Err(p) => p.into_inner().len(),
        }
    }

    /// Whether the pool holds no captures.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Locks the entry list, recovering from poisoning: a sibling session
    /// that panicked while holding the lock forfeits every pooled entry
    /// (sharing degrades to fresh rebuilds, counted in
    /// `CaptureStats::poison_recoveries`), but never takes the surviving
    /// sessions down with it.
    fn entries_recovered(
        &self,
        stats: &mut CaptureStats,
    ) -> std::sync::MutexGuard<'_, Vec<PoolEntry>> {
        match self.entries.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                let mut g = poisoned.into_inner();
                g.clear();
                self.entries.clear_poison();
                stats.poison_recoveries += 1;
                dmi_obs::tally("capture.poison_recoveries", 1);
                g
            }
        }
    }

    /// Serves the capture for `(token, model, trace)` if a sibling session
    /// already built it (hash fast-path, full-trace confirm).
    pub(crate) fn lookup(
        &self,
        token: u64,
        model: u64,
        hash: u64,
        trace: &[u64],
        stats: &mut CaptureStats,
    ) -> Option<Arc<Snapshot>> {
        let mut entries = self.entries_recovered(stats);
        let pos = entries.iter().position(|e| {
            e.token == token && e.model == model && e.hash == hash && e.trace == trace
        })?;
        let mut entry = entries.remove(pos);
        entry.hits += 1;
        if entry.warm {
            stats.pool_warm_hits += 1;
            dmi_obs::tally("capture.pool_warm_hits", 1);
        }
        let snap = Arc::clone(&entry.snap);
        entries.insert(0, entry);
        Some(snap)
    }

    /// Offers a freshly built capture to the pool. If a racing sibling
    /// already inserted the same key, the existing entry wins (both are
    /// byte-identical; keeping one maximizes sharing).
    pub(crate) fn insert(
        &self,
        token: u64,
        model: u64,
        hash: u64,
        trace: &[u64],
        snap: &Arc<Snapshot>,
        stats: &mut CaptureStats,
    ) {
        let mut entries = self.entries_recovered(stats);
        if let Some(pos) = entries.iter().position(|e| {
            e.token == token && e.model == model && e.hash == hash && e.trace == trace
        }) {
            let entry = entries.remove(pos);
            entries.insert(0, entry);
            return;
        }
        entries.insert(
            0,
            PoolEntry {
                token,
                model,
                hash,
                trace: trace.to_vec(),
                snap: Arc::clone(snap),
                hits: 0,
                warm: false,
            },
        );
        Self::evict_over_capacity(&mut entries, self.capacity, stats);
    }

    /// Frequency × cost eviction: while over capacity, drop the entry
    /// with the lowest [`PoolEntry::retention_score`], breaking ties
    /// toward the least recently used (largest MRU index). Replaces the
    /// original pure-MRU truncate: a rarely-hit pool (Word's ~1% rate)
    /// used to cycle expensive captures out in insertion order, while
    /// hot pools (Excel/PowerPoint ~20%) never got to weigh a cheap
    /// popup snapshot against a full dialog one.
    fn evict_over_capacity(
        entries: &mut Vec<PoolEntry>,
        capacity: usize,
        stats: &mut CaptureStats,
    ) {
        while entries.len() > capacity {
            let victim = entries
                .iter()
                .enumerate()
                .min_by_key(|(i, e)| (e.retention_score(), std::cmp::Reverse(*i)))
                .map(|(i, _)| i)
                .expect("over-capacity pool is non-empty");
            entries.remove(victim);
            stats.pool_evictions += 1;
            dmi_obs::tally("capture.pool_evictions", 1);
        }
    }

    /// Exports every entry keyed to `token` for persistence, MRU order
    /// preserved. Snapshots travel as shared `Arc`s — exporting copies
    /// nothing.
    pub fn export(&self, token: u64) -> Vec<PooledCapture> {
        let mut scratch = CaptureStats::default();
        let entries = self.entries_recovered(&mut scratch);
        entries
            .iter()
            .filter(|e| e.token == token)
            .map(|e| PooledCapture {
                model: e.model,
                hash: e.hash,
                trace: e.trace.clone(),
                snap: Arc::clone(&e.snap),
                hits: e.hits,
            })
            .collect()
    }

    /// Imports persisted captures, re-keyed to the live session's
    /// `token`, marked *warm* (hits on them are reported separately in
    /// [`CaptureStats::pool_warm_hits`]). The caller is responsible for
    /// pristine attestation: entries must come from a store whose
    /// pristine signature matches the live app (see
    /// `dmi_store::warm_session`). Existing live entries win duplicate
    /// keys; the retention policy applies immediately, so importing more
    /// than the capacity keeps the highest-scoring captures. Returns the
    /// number of entries actually added.
    pub fn import(
        &self,
        token: u64,
        captures: Vec<PooledCapture>,
        stats: &mut CaptureStats,
    ) -> usize {
        let mut entries = self.entries_recovered(stats);
        let mut added = 0usize;
        for c in captures {
            let dup = entries.iter().any(|e| {
                e.token == token && e.model == c.model && e.hash == c.hash && e.trace == c.trace
            });
            if dup {
                continue;
            }
            entries.push(PoolEntry {
                token,
                model: c.model,
                hash: c.hash,
                trace: c.trace,
                snap: c.snap,
                hits: c.hits,
                warm: true,
            });
            added += 1;
        }
        Self::evict_over_capacity(&mut entries, self.capacity, stats);
        added
    }
}

/// Re-keys a restart-surviving pristine capture against the *current*
/// tree (whose stamps a reset re-floored) and inserts it at the MRU head,
/// so the next (post-click) partial rebuild can copy clean windows from
/// it as a donor. The caller guarantees the snapshot is byte-identical to
/// what an eager build of the current tree would produce (the pristine
/// mark held when it was served).
///
/// Window blocks are recovered from the snapshot's window-root indices
/// (each open window's DFS emits one contiguous block starting at its
/// root); adoption is skipped when the shapes cannot be aligned (a hidden
/// window root contributed no block).
pub(crate) fn adopt(
    cache: &mut CaptureCache,
    tree: &UiTree,
    snap: &Arc<Snapshot>,
    query_seq: u64,
    depth: usize,
) {
    let open = tree.open_windows();
    if snap.windows().len() != open.len() {
        return;
    }
    // Drop a stale entry for the same snapshot (its keys pre-date the
    // reset and can never validate again) before re-inserting fresh.
    cache.entries.retain(|e| !Arc::ptr_eq(&e.snap, snap));
    let mut metas = Vec::with_capacity(open.len());
    for (wi, win) in open.iter().enumerate() {
        let start = snap.windows()[wi];
        let end = snap.windows().get(wi + 1).copied().unwrap_or(snap.len());
        if start > end {
            return;
        }
        metas.push(WindowMeta {
            key: WindowKey::of(tree, win.root, win.modal),
            start,
            end,
            rooted: true,
            next_reveal: tree.next_reveal_under(win.root, query_seq),
        });
    }
    cache.entries.insert(
        0,
        CachedCapture {
            snap: Arc::clone(snap),
            context_epoch: tree.context_epoch(),
            windows: metas,
        },
    );
    cache.entries.truncate(depth.max(1));
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

#[allow(clippy::too_many_arguments)]
fn add_subtree(
    tree: &UiTree,
    inst: &InstabilityModel,
    query_seq: u64,
    id: WidgetId,
    parent: Option<usize>,
    window: usize,
    lay: &WindowLayout,
    snap: &mut Snapshot,
) -> Option<usize> {
    if !tree.is_shown(id) {
        return None;
    }
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
    props.rect = lay.rect(id).unwrap_or_default();
    props.offscreen = lay.offscreen(id);

    let idx = snap.push(props, parent, window);
    // Snapshot runtime ids must track the widget arena, not insertion order.
    debug_assert!(idx < snap.len());
    override_runtime_id(snap, idx, id);

    if !tree.children_pending(id, query_seq) {
        for &c in &tree.widget(id).children {
            add_subtree(tree, inst, query_seq, c, Some(idx), window, lay, snap);
        }
    }
    Some(idx)
}

/// Replaces the sequential runtime id assigned by `Snapshot::push` with the
/// widget-derived one.
fn override_runtime_id(snap: &mut Snapshot, idx: usize, id: WidgetId) {
    // Snapshot nodes are immutable through the public API; we rebuild the
    // runtime id through a dedicated setter to keep the arena consistent.
    snap.set_runtime_id(idx, runtime_of(id));
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
    fn poisoned_pool_lock_degrades_to_a_rebuild() {
        let pool = std::sync::Arc::new(CapturePool::new(4));
        let (t, ..) = tree();
        let snap = std::sync::Arc::new(build(&t, &InstabilityModel::off(), 0));
        let mut stats = CaptureStats::default();
        pool.insert(7, 1, 99, &[1, 2], &snap, &mut stats);
        assert_eq!(pool.len(), 1);
        assert_eq!(stats.poison_recoveries, 0);

        // A sibling session dies while holding the entry lock.
        let p2 = std::sync::Arc::clone(&pool);
        let _ = std::thread::spawn(move || {
            let _guard = p2.entries.lock().unwrap();
            panic!("injected fault: die holding the pool lock");
        })
        .join();

        // Every path recovers: the poisoned entries are forfeited, the
        // recovery is counted, and the pool keeps working afterwards.
        assert!(pool.lookup(7, 1, 99, &[1, 2], &mut stats).is_none(), "entries forfeited");
        assert_eq!(stats.poison_recoveries, 1);
        pool.insert(7, 1, 99, &[1, 2], &snap, &mut stats);
        assert_eq!(stats.poison_recoveries, 1, "the lock heals after one recovery");
        assert!(pool.lookup(7, 1, 99, &[1, 2], &mut stats).is_some());
        assert_eq!(pool.len(), 1);
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
