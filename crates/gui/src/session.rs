//! The interactive session: input events in, snapshots and events out.
//!
//! [`Session`] owns a boxed [`GuiApp`] and executes input the way an OS
//! input stack would: coordinate clicks resolve by hit testing, widget
//! clicks run the widget's [`Behavior`], modal windows swallow outside
//! input, popups dismiss when clicking elsewhere, keyboard input goes to
//! focus. It also exposes the UIA *pattern* operations (`set_value`,
//! `set_toggle`, `scroll_to`, ...) that real accessibility clients can call
//! directly — the foundation DMI's state/observation declarations build on.

use crate::behavior::{Behavior, CommandBinding, CommitKind, ShortcutAction};
use crate::instability::{splitmix64 as mix64, InstabilityModel};
use crate::layout;
use crate::snapshot::{self, CaptureCache, CapturePool, CaptureStats};
use crate::tree::UiTree;
use crate::widget::WidgetId;
use dmi_uia::event::EventLog;
use dmi_uia::{ControlType, PatternKind, Snapshot, ToggleState, UiaEvent};
use std::sync::Arc;

/// Errors surfaced by application command dispatch or input handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppError {
    /// The widget cannot be interacted with right now.
    NotInteractable {
        /// Why (hidden, disabled, blocked by a modal window, trapped...).
        reason: String,
    },
    /// The application rejected a command.
    Command {
        /// The command that failed.
        command: String,
        /// Why.
        reason: String,
    },
    /// The requested pattern operation is unsupported by the widget.
    PatternUnsupported {
        /// The widget's name.
        name: String,
        /// The pattern.
        pattern: PatternKind,
    },
    /// An argument was out of range.
    InvalidArgument {
        /// Description.
        message: String,
    },
}

impl std::fmt::Display for AppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppError::NotInteractable { reason } => write!(f, "not interactable: {reason}"),
            AppError::Command { command, reason } => {
                write!(f, "command '{command}' failed: {reason}")
            }
            AppError::PatternUnsupported { name, pattern } => {
                write!(f, "'{name}' does not support {pattern}")
            }
            AppError::InvalidArgument { message } => write!(f, "invalid argument: {message}"),
        }
    }
}

impl std::error::Error for AppError {}

/// The trait simulated applications implement (see `dmi-apps`).
///
/// `Send` is a supertrait: simulated applications are plain data (a widget
/// arena plus a document model), and the fleet ripper and the serving
/// gateway move sessions onto worker threads — mirroring real UIA, where
/// every provider lives in its own process anyway.
pub trait GuiApp: Send {
    /// Application display name (window title).
    fn name(&self) -> &str;

    /// Owning process id (used for new-window attribution).
    fn process_id(&self) -> u32 {
        1000
    }

    /// The provider-side control tree.
    fn tree(&self) -> &UiTree;

    /// Mutable access to the control tree.
    fn tree_mut(&mut self) -> &mut UiTree;

    /// Executes a semantic command bound to `source`.
    fn dispatch(&mut self, source: WidgetId, binding: &CommandBinding) -> Result<(), AppError>;

    /// Notification that a window is closing with the given commit kind.
    fn on_window_close(&mut self, _root: WidgetId, _commit: CommitKind) -> Result<(), AppError> {
        Ok(())
    }

    /// Restores the application to its launch state (document and UI).
    fn reset(&mut self);

    /// Forks a fresh launch-state instance of this application, sharing
    /// the immutable pristine launch image (no widget-tree
    /// reconstruction). Deterministic simulations make a fork equivalent
    /// to launching another copy of the same build, so forks can explore
    /// independently on other threads. Returns `None` when the app keeps
    /// no shareable launch image (the default).
    fn fork(&self) -> Option<Box<dyn GuiApp>> {
        None
    }

    /// An identity token for the pristine launch image [`GuiApp::reset`]
    /// restores, if — and only if — every reset restores that one fixed
    /// image bit-for-bit (tree and document). The token keys restart-
    /// surviving capture reuse: two restarts reporting the same token
    /// provably reach byte-identical UI states. Apps whose reset is
    /// partial or stateful must return `None` (the default).
    fn pristine_token(&self) -> Option<u64> {
        None
    }

    /// Downcast support (task verifiers inspect concrete app models).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// How [`Session::capture`] builds snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaptureConfig {
    /// Serve epoch-keyed cached captures (the default). Off, every capture
    /// is an eager full rebuild — the equivalence oracle: both settings
    /// are observably identical (byte-identical snapshots and UNGs).
    pub cached: bool,
}

impl Default for CaptureConfig {
    fn default() -> Self {
        CaptureConfig { cached: true }
    }
}

impl CaptureConfig {
    /// Forces an eager full rebuild on every capture (the oracle setting).
    pub fn full_rebuild() -> Self {
        CaptureConfig { cached: false }
    }
}

/// A lightweight handle to one capture: the shared snapshot plus the
/// query sequence it was taken at and whether the cache served it.
#[derive(Debug, Clone)]
pub struct Capture {
    snap: Arc<Snapshot>,
    query_seq: u64,
    cache_hit: bool,
}

impl Capture {
    /// The shared snapshot.
    pub fn snap(&self) -> &Arc<Snapshot> {
        &self.snap
    }

    /// Consumes the handle, returning the shared snapshot.
    pub fn into_snap(self) -> Arc<Snapshot> {
        self.snap
    }

    /// The query sequence number this capture was taken at.
    pub fn query_seq(&self) -> u64 {
        self.query_seq
    }

    /// Whether the capture was served in O(1) from the cache (same `Arc`,
    /// same already-built identity index).
    pub fn is_cache_hit(&self) -> bool {
        self.cache_hit
    }
}

impl std::ops::Deref for Capture {
    type Target = Snapshot;

    fn deref(&self) -> &Snapshot {
        &self.snap
    }
}

/// An interactive session over one application.
pub struct Session {
    app: Box<dyn GuiApp>,
    inst: InstabilityModel,
    events: EventLog,
    /// Capture pipeline configuration.
    capture_cfg: CaptureConfig,
    /// Recent captures + per-window layout rows (see [`CaptureCache`]).
    cache: CaptureCache,
    /// Cache-effectiveness counters.
    capture_stats: CaptureStats,
    /// Snapshot counter (late-load clocks compare against this).
    query_seq: u64,
    /// Input action counter.
    action_seq: u64,
    /// Restart counter. Restarts are state restoration, not input: they
    /// are counted separately so action counts reported by the modeling
    /// experiments reflect actual user-level input.
    restart_seq: u64,
    /// Number of jumps to external applications (blocklist hazards).
    external_jumps: u64,
    /// Whether the UI entered an un-exitable state.
    trapped: bool,
    /// Restart-surviving capture stash: the snapshot of the pristine
    /// launch state, keyed by [`GuiApp::pristine_token`]. Unlike the MRU
    /// cache (whose stamp lineage a reset breaks), this survives
    /// [`Session::restart`]: a restart back to an unchanged pristine image
    /// is an O(1) snapshot hit instead of a cold rebuild.
    pristine_snap: Option<(u64, Arc<Snapshot>)>,
    /// Proof obligations recorded at the last restart under which the
    /// current UI state still equals the pristine launch image.
    pristine_mark: Option<PristineMark>,
    /// Optional cross-session capture pool shared with sibling sessions
    /// forked from the same pristine image (see [`CapturePool`]).
    pool: Option<Arc<CapturePool>>,
    /// The pristine-relative action trace keying pool captures.
    trace: ActionTrace,
    /// Tree counters recorded at the last restart: while they (and the
    /// window/popup structure) read back unchanged, the tree provably
    /// equals the pristine image again and the trace re-floors to empty.
    trace_floor: Option<TraceFloor>,
}

/// The pristine-relative input trace: fingerprints of every input action
/// executed since the session state last provably equaled the pristine
/// launch image. On a deterministic application the widget tree is a pure
/// function of `(pristine image, trace)`, which is what makes the trace a
/// sound cross-session capture key (see [`CapturePool`]).
///
/// Only actions with a precise fingerprint (widget clicks, key presses)
/// keep the trace valid; any other input — and any direct application
/// access via [`Session::app_mut`] — *poisons* it until the next restart,
/// so an unfingerprinted mutation can never alias a pooled capture.
#[derive(Debug, Clone, Default)]
struct ActionTrace {
    valid: bool,
    fps: Vec<u64>,
    hash: u64,
}

const TRACE_HASH_BASE: u64 = 0x9E37_79B9_7F4A_7C15;

impl ActionTrace {
    /// Starts a fresh trace at a restart; valid only when the application
    /// attests a pristine token (otherwise there is no image to be
    /// relative to).
    fn rebase(&mut self, valid: bool) {
        self.valid = valid;
        self.fps.clear();
        self.hash = TRACE_HASH_BASE;
    }

    /// The state provably returned to the pristine image: the trace keys
    /// it as empty again.
    fn refloor(&mut self) {
        self.fps.clear();
        self.hash = TRACE_HASH_BASE;
    }

    /// Invalidates the trace until the next restart.
    fn poison(&mut self) {
        self.valid = false;
        self.fps.clear();
    }

    /// Appends one action fingerprint.
    fn record(&mut self, fp: u64) {
        if self.valid {
            self.fps.push(fp);
            self.hash = mix64(self.hash ^ fp);
        }
    }
}

/// The tree counters a valid trace compares against to detect a provable
/// return to the pristine image (all O(1) reads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TraceFloor {
    state_epoch: u64,
    context_epoch: u64,
    main_stamp: u64,
}

/// Everything that must still hold for the session state to equal the
/// pristine image captured at the last restart. All components are O(1)
/// reads: any input action, snapshot-visible main-window mutation, context
/// change, or transient window/popup invalidates the mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PristineMark {
    token: u64,
    action_seq: u64,
    state_epoch: u64,
    context_epoch: u64,
    main_stamp: u64,
}

impl Session {
    /// Starts a session with no instability.
    pub fn new(app: Box<dyn GuiApp>) -> Self {
        Session::with_instability(app, InstabilityModel::off())
    }

    /// Starts a session with the given instability model.
    pub fn with_instability(app: Box<dyn GuiApp>, inst: InstabilityModel) -> Self {
        Session {
            app,
            inst,
            events: EventLog::new(),
            capture_cfg: CaptureConfig::default(),
            cache: CaptureCache::default(),
            capture_stats: CaptureStats::default(),
            query_seq: 0,
            action_seq: 0,
            restart_seq: 0,
            external_jumps: 0,
            trapped: false,
            pristine_snap: None,
            pristine_mark: None,
            pool: None,
            trace: ActionTrace::default(),
            trace_floor: None,
        }
    }

    /// Forks a fresh worker session off the application's shared pristine
    /// launch image (see [`GuiApp::fork`]): a launch-state app instance,
    /// the same instability model and capture configuration, and fresh
    /// event log, caches, and counters. Deterministic simulations make the
    /// fork behaviorally equivalent to launching another instance of the
    /// same build, so forks can run independently — the serving gateway
    /// pools them per app. `None` when the application does not support
    /// forking.
    pub fn fork_from_pristine(&self) -> Option<Session> {
        let app = self.app.fork()?;
        let mut s = Session::with_instability(app, self.inst.clone());
        s.capture_cfg = self.capture_cfg;
        // Forks share the parent's capture pool: they attest the same
        // pristine token, so their pristine-relative traces are mutually
        // comparable — the whole point of the pool.
        s.pool = self.pool.clone();
        Some(s)
    }

    /// Returns the session to a just-launched state under a new
    /// instability model, so a pooled session can serve its next tenant
    /// indistinguishably from a fresh launch. This is what makes online
    /// session reuse trace-sound: every counter the instability model
    /// keys off (action, query, external-jump clocks) is zeroed, the
    /// event log and all cached captures — the pristine stash included,
    /// since it was captured under the *previous* tenant's instability —
    /// are dropped, and the application resets to its launch image. The
    /// attached [`CapturePool`] is deliberately kept: pool serving is
    /// capture-transparent and its keys fingerprint the instability
    /// model, so captures shared across tenants can never alias.
    ///
    /// Returns whether the application attested a pristine launch image
    /// for the reset ([`GuiApp::pristine_token`]); a caller pooling
    /// sessions should forfeit the session when it did not, because
    /// nothing then proves the next tenant starts from launch state.
    pub fn recycle(&mut self, inst: InstabilityModel) -> bool {
        self.inst = inst;
        self.events = EventLog::new();
        self.capture_stats = CaptureStats::default();
        self.query_seq = 0;
        self.external_jumps = 0;
        self.pristine_snap = None;
        // Zeroed *before* `restart` so the pristine mark records the
        // same action clock a fresh launch would.
        self.action_seq = 0;
        self.restart();
        self.restart_seq = 0;
        self.pristine_mark.is_some()
    }

    /// Replaces the instability model on a session that has not yet been
    /// driven (all perturbation clocks at zero and no cached captures) —
    /// the gateway retargets a just-forked session to its tenant's model
    /// this way, making the fork bitwise-equivalent to a fresh
    /// [`Session::with_instability`] launch under that model. On a
    /// session that *has* been driven, use [`Session::recycle`] instead:
    /// swapping models mid-flight would desynchronize the perturbation
    /// clocks from the captures already taken under the old model.
    pub fn set_instability(&mut self, inst: InstabilityModel) {
        debug_assert!(
            self.query_seq == 0 && self.action_seq == 0 && self.pristine_snap.is_none(),
            "set_instability is only sound on an undriven session"
        );
        self.inst = inst;
    }

    /// Attaches (or detaches) a cross-session [`CapturePool`]. Sessions
    /// sharing one pool serve each other's captures whenever their state
    /// provably matches — see the pool's docs for the soundness argument.
    /// Forks created after attachment inherit the pool.
    pub fn set_capture_pool(&mut self, pool: Option<Arc<CapturePool>>) {
        self.pool = pool;
    }

    /// The attached cross-session capture pool, if any.
    pub fn capture_pool(&self) -> Option<&Arc<CapturePool>> {
        self.pool.as_ref()
    }

    /// Replaces the capture configuration (drops any cached captures,
    /// the pristine stash included).
    pub fn set_capture_config(&mut self, cfg: CaptureConfig) {
        self.capture_cfg = cfg;
        self.cache.clear();
        self.pristine_snap = None;
        self.pristine_mark = None;
    }

    /// The capture configuration in effect.
    pub fn capture_config(&self) -> CaptureConfig {
        self.capture_cfg
    }

    /// Capture-cache effectiveness counters.
    pub fn capture_stats(&self) -> CaptureStats {
        self.capture_stats
    }

    /// Capture statistics since the last recycle or take, zeroing the
    /// session's accumulator. Harvest points (e.g. gateway check-in) use
    /// this so each capture event is counted exactly once no matter how
    /// often the same idle session is swept.
    pub fn take_capture_stats(&mut self) -> CaptureStats {
        std::mem::take(&mut self.capture_stats)
    }

    /// The application.
    pub fn app(&self) -> &dyn GuiApp {
        self.app.as_ref()
    }

    /// Mutable application access. Poisons the pristine-relative action
    /// trace until the next restart: direct application mutations are
    /// invisible to the trace, so pooled captures must never alias them.
    pub fn app_mut(&mut self) -> &mut dyn GuiApp {
        self.trace.poison();
        self.app.as_mut()
    }

    /// The UIA event log.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Number of input actions executed so far.
    pub fn action_count(&self) -> u64 {
        self.action_seq
    }

    /// Number of snapshot queries taken so far.
    pub fn query_count(&self) -> u64 {
        self.query_seq
    }

    /// Number of application restarts so far.
    pub fn restart_count(&self) -> u64 {
        self.restart_seq
    }

    /// Number of jumps into external applications.
    pub fn external_jumps(&self) -> u64 {
        self.external_jumps
    }

    /// Whether the UI is in an un-exitable state.
    pub fn is_trapped(&self) -> bool {
        self.trapped
    }

    /// Takes an accessibility snapshot (increments the query clock).
    ///
    /// The snapshot is shared: while the UI is unchanged since a recent
    /// capture — same per-window mutation stamps, popup chain, window
    /// stack, contexts, and no late-load reveal crossing — the same
    /// [`Arc`] is returned in O(1), identity index included. See
    /// [`Session::capture`] for the handle carrying cache metadata and
    /// [`CaptureConfig::full_rebuild`] for the eager oracle path.
    pub fn snapshot(&mut self) -> Arc<Snapshot> {
        self.capture().into_snap()
    }

    /// Takes an accessibility snapshot, returning the full [`Capture`]
    /// handle (query sequence, cache-hit flag).
    ///
    /// Serving order: restart-surviving pristine stash, per-session MRU
    /// cache, cross-session [`CapturePool`] (when attached), then a
    /// partial rebuild — every path produces the same bytes.
    pub fn capture(&mut self) -> Capture {
        self.query_seq += 1;
        self.capture_stats.captures += 1;
        dmi_obs::tally("capture.captures", 1);
        if !self.capture_cfg.cached {
            let snap = Arc::new(snapshot::build(self.app.tree(), &self.inst, self.query_seq));
            return Capture { snap, query_seq: self.query_seq, cache_hit: false };
        }
        // Restart-surviving fast path: while the pristine mark holds, the
        // state is byte-for-byte the launch image, so the stashed snapshot
        // of a *previous* restart is exact — the MRU cache cannot help
        // here because a reset re-floors every window stamp.
        let pristine_token = self.pristine_mark_holds();
        if let Some(token) = pristine_token {
            if let Some((t, snap)) = &self.pristine_snap {
                if *t == token {
                    let snap = Arc::clone(snap);
                    self.capture_stats.full_hits += 1;
                    self.capture_stats.pristine_hits += 1;
                    dmi_obs::tally("capture.full_hits", 1);
                    dmi_obs::tally("capture.pristine_hits", 1);
                    // Re-key the stash against the current tree so the
                    // next (post-click) capture can copy clean windows
                    // from it instead of re-walking everything.
                    snapshot::adopt(&mut self.cache, self.app.tree(), &snap, self.query_seq);
                    return Capture { snap, query_seq: self.query_seq, cache_hit: true };
                }
            }
        }
        // Per-session MRU cache: O(1) full hits, no locking.
        let keys = match snapshot::probe(self.app.tree(), self.query_seq, &mut self.cache) {
            Ok(snap) => {
                self.capture_stats.full_hits += 1;
                dmi_obs::tally("capture.full_hits", 1);
                if let Some(token) = pristine_token {
                    self.pristine_snap = Some((token, Arc::clone(&snap)));
                }
                return Capture { snap, query_seq: self.query_seq, cache_hit: true };
            }
            Err(keys) => keys,
        };
        // Cross-session pool: a sibling session may have built this exact
        // state already (keyed by the pristine-relative action trace).
        let pool_key = self.pool_key();
        if let Some((token, model)) = pool_key {
            let pool = Arc::clone(self.pool.as_ref().expect("pool_key requires an attached pool"));
            if let Some(snap) =
                pool.lookup(token, model, self.trace.hash, &self.trace.fps, &mut self.capture_stats)
            {
                self.capture_stats.pool_hits += 1;
                dmi_obs::tally("capture.pool_hits", 1);
                dmi_obs::instant(dmi_obs::Cat::Capture, "pool_hit", 0);
                // Adopt as a donor so the next partial rebuild can copy
                // clean windows (re-keyed against this session's stamps).
                snapshot::adopt(&mut self.cache, self.app.tree(), &snap, self.query_seq);
                if let Some(token) = pristine_token {
                    self.pristine_snap = Some((token, Arc::clone(&snap)));
                }
                return Capture { snap, query_seq: self.query_seq, cache_hit: true };
            }
            self.capture_stats.pool_misses += 1;
            dmi_obs::tally("capture.pool_misses", 1);
        }
        // Partial rebuild: clean windows copied from donors, dirty
        // windows re-walked.
        let rebuild_span = dmi_obs::span(dmi_obs::Cat::Capture, "rebuild", 0);
        let snap = snapshot::rebuild(
            self.app.tree(),
            &self.inst,
            self.query_seq,
            keys,
            &mut self.cache,
            &mut self.capture_stats,
        );
        drop(rebuild_span);
        if let Some((token, model)) = pool_key {
            let pool = Arc::clone(self.pool.as_ref().expect("pool_key requires an attached pool"));
            pool.insert(
                token,
                model,
                self.trace.hash,
                &self.trace.fps,
                &snap,
                &mut self.capture_stats,
            );
        }
        if let Some(token) = pristine_token {
            self.pristine_snap = Some((token, Arc::clone(&snap)));
        }
        Capture { snap, query_seq: self.query_seq, cache_hit: false }
    }

    /// The cross-session pool key for the current state, when pooling is
    /// sound right now: a pool is attached, the trace is valid (pristine
    /// token attested at the last restart, every action since fingerprint-
    /// able), late-load instability is off (its reveals are keyed on
    /// session-local clocks the trace cannot see), and no subtree is
    /// pending reveal. Name variation stays poolable — it is a pure
    /// function of `(seed, widget)`, fingerprinted into the model key.
    fn pool_key(&self) -> Option<(u64, u64)> {
        self.pool.as_ref()?;
        if !self.trace.valid || self.inst.late_load_prob > 0.0 {
            return None;
        }
        let tree = self.app.tree();
        if tree
            .open_windows()
            .iter()
            .any(|w| tree.next_reveal_under(w.root, self.query_seq) != u64::MAX)
        {
            return None;
        }
        let token = self.app.pristine_token()?;
        let model = mix64(self.inst.seed ^ self.inst.name_variation_prob.to_bits());
        Some((token, model))
    }

    /// The session's capture-pool identity — `(pristine token, instability
    /// model fingerprint)` — independent of the current trace state.
    /// Persistence layers use it to export this session's pool entries
    /// and to re-key imported ones; `None` when the app does not attest a
    /// pristine image or late-load instability is configured (such
    /// sessions never pool, so there is nothing to export or import).
    pub fn pool_identity(&self) -> Option<(u64, u64)> {
        if self.inst.late_load_prob > 0.0 {
            return None;
        }
        let token = self.app.pristine_token()?;
        let model = mix64(self.inst.seed ^ self.inst.name_variation_prob.to_bits());
        Some((token, model))
    }

    /// Exports this session's shareable capture-pool entries (those keyed
    /// to its pristine token) for persistence. Empty when the session has
    /// no pool attached or cannot pool at all.
    pub fn export_pool_captures(&self) -> Vec<crate::snapshot::PooledCapture> {
        match (self.pool_identity(), &self.pool) {
            (Some((token, _)), Some(pool)) => pool.export(token),
            _ => Vec::new(),
        }
    }

    /// Imports persisted captures into this session's shared pool,
    /// re-keyed to the live pristine token and marked warm. Eviction and
    /// warm-hit accounting land in this session's [`CaptureStats`]. The
    /// caller must have attested that the entries were captured against a
    /// structurally identical pristine image (`dmi_store::warm_session`
    /// refuses otherwise) — importing foreign captures would serve wrong
    /// bytes. Returns the number of entries added.
    pub fn import_pool_captures(&mut self, captures: Vec<crate::snapshot::PooledCapture>) -> usize {
        let (Some((token, _)), Some(pool)) = (self.pool_identity(), self.pool.clone()) else {
            return 0;
        };
        pool.import(token, captures, &mut self.capture_stats)
    }

    /// Post-action trace maintenance: if the state provably returned to
    /// the pristine image (floor counters and window/popup structure
    /// unchanged since the last restart), the trace re-floors to empty —
    /// re-keying this state as pristine, exactly the launch-equivalence
    /// argument Esc-based recovery rests on. Tree-invisible document
    /// state is deliberately outside the check: snapshots (the only thing
    /// pooled) observe the tree alone.
    fn trace_refloor(&mut self) {
        if !self.trace.valid {
            return;
        }
        let Some(floor) = self.trace_floor else { return };
        let t = self.app.tree();
        if t.open_windows().len() == 1
            && t.open_popups().is_empty()
            && t.state_epoch() == floor.state_epoch
            && t.context_epoch() == floor.context_epoch
            && t.window_stamp(t.main_root()) == floor.main_stamp
        {
            self.trace.refloor();
        }
    }

    /// Fingerprint of a widget click.
    fn fp_click(id: WidgetId) -> u64 {
        mix64(0xC11C ^ (id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Fingerprint of a key press.
    fn fp_press(keys: &str) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64 ^ 0x9E55;
        for b in keys.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        mix64(h)
    }

    /// Whether the UI state still equals the pristine image captured at
    /// the last restart; returns the image token when it does. Sound
    /// because every snapshot-visible divergence trips a component: input
    /// actions bump `action_seq` (even failed ones), main-window widget
    /// mutations move its stamp, contexts move the context epoch, and
    /// extra windows or popups fail the structural checks.
    fn pristine_mark_holds(&self) -> Option<u64> {
        let m = self.pristine_mark?;
        let t = self.app.tree();
        (self.app.pristine_token() == Some(m.token)
            && self.action_seq == m.action_seq
            && t.open_windows().len() == 1
            && t.open_popups().is_empty()
            && t.state_epoch() == m.state_epoch
            && t.context_epoch() == m.context_epoch
            && t.window_stamp(t.main_root()) == m.main_stamp)
            .then_some(m.token)
    }

    /// The current layout, served from the per-window layout cache when
    /// enabled (input paths: hit testing, drags, wheel).
    fn layout(&mut self) -> layout::Layout {
        if self.capture_cfg.cached {
            self.cache.layout(self.app.tree())
        } else {
            layout::compute(self.app.tree())
        }
    }

    /// Maps a snapshot runtime id to the provider widget.
    pub fn widget_of(&self, rt: dmi_uia::RuntimeId) -> WidgetId {
        snapshot::widget_of(rt)
    }

    /// Resets the application and session UI state (like a restart), as
    /// the ripper does between exploration branches when recovery fails.
    /// Counted as a restart, not an input action.
    pub fn restart(&mut self) {
        self.app.reset();
        self.app.tree_mut().reset_ui_state();
        self.trapped = false;
        self.restart_seq += 1;
        // An application `reset` may swap its tree wholesale (breaking
        // stamp lineage), so cached captures cannot be trusted across it.
        // The pristine stash survives instead: when the app attests (via
        // `pristine_token`) that resets restore one fixed launch image,
        // the post-restart capture is served from the stash in O(1).
        self.cache.clear();
        self.pristine_mark = self.app.pristine_token().map(|token| {
            let t = self.app.tree();
            PristineMark {
                token,
                action_seq: self.action_seq,
                state_epoch: t.state_epoch(),
                context_epoch: t.context_epoch(),
                main_stamp: t.window_stamp(t.main_root()),
            }
        });
        // The state equals the attested pristine image again: rebase the
        // pool trace (and record the counters a later provable return to
        // this image will read back unchanged).
        self.trace.rebase(self.pristine_mark.is_some());
        self.trace_floor = self.pristine_mark.as_ref().map(|m| TraceFloor {
            state_epoch: m.state_epoch,
            context_epoch: m.context_epoch,
            main_stamp: m.main_stamp,
        });
    }

    // ------------------------------------------------------------------
    // State-restoration support (§4.1 Esc-based fast recovery)
    // ------------------------------------------------------------------

    /// The tree's persistent-mutation epoch (see [`UiTree::state_epoch`]).
    /// Recovery planners record it at a known-base state; an unchanged
    /// reading later proves no widget property, arena, selection, focus,
    /// or context change happened in between, so collapsing transient
    /// windows and popups with Esc restores that base exactly.
    pub fn ui_state_epoch(&self) -> u64 {
        self.app.tree().state_epoch()
    }

    /// Number of open windows (main window included).
    pub fn window_depth(&self) -> usize {
        self.app.tree().open_windows().len()
    }

    /// Number of open popups (nested menu chain length).
    pub fn popup_depth(&self) -> usize {
        self.app.tree().open_popups().len()
    }

    /// Presses Esc until only the main window remains and every popup is
    /// collapsed — the paper's standard-command state restoration. Returns
    /// whether the base was reached, plus the number of presses spent
    /// (counted even on failure, so effort accounting stays honest when
    /// Esc stops making progress — trapped UI, a window that refuses to
    /// close).
    pub fn escape_to_base(&mut self) -> (bool, u64) {
        let mut presses = 0u64;
        while self.window_depth() > 1 || self.popup_depth() > 0 {
            let before = (self.window_depth(), self.popup_depth());
            if self.press("Esc").is_err() {
                return (false, presses);
            }
            presses += 1;
            if (self.window_depth(), self.popup_depth()) == before {
                return (false, presses);
            }
        }
        (true, presses)
    }

    // ------------------------------------------------------------------
    // Pointer input
    // ------------------------------------------------------------------

    /// Clicks a widget (the primary interaction).
    pub fn click(&mut self, id: WidgetId) -> Result<(), AppError> {
        self.trace.record(Self::fp_click(id));
        let r = self.click_inner(id);
        self.trace_refloor();
        r
    }

    fn click_inner(&mut self, id: WidgetId) -> Result<(), AppError> {
        self.action_seq += 1;
        self.check_interactable(id)?;
        self.app.tree_mut().close_popups_not_containing(id);
        let behavior = self.app.tree().widget(id).on_click.clone();
        self.run_behavior(id, behavior)
    }

    /// Clicks at screen coordinates (hit-tests the current layout).
    pub fn click_at(&mut self, x: i32, y: i32) -> Result<(), AppError> {
        let lay = self.layout();
        let target = self.hit_test(&lay, x, y);
        match target {
            Some(id) => self.click(id),
            None => {
                self.action_seq += 1;
                Err(AppError::NotInteractable { reason: format!("nothing at ({x}, {y})") })
            }
        }
    }

    /// Drags from one point to another (scrollbar manipulation, text
    /// selection on document surfaces).
    pub fn drag(&mut self, from: (i32, i32), to: (i32, i32)) -> Result<(), AppError> {
        self.action_seq += 1;
        self.trace.poison();
        if self.trapped {
            return Err(AppError::NotInteractable { reason: "UI trapped".into() });
        }
        let lay = self.layout();
        let Some(hit) = self.hit_test(&lay, from.0, from.1) else {
            return Err(AppError::NotInteractable { reason: "drag source empty".into() });
        };
        // Walk up to the nearest draggable ancestor (a drag that starts on
        // a paragraph still drags the enclosing document surface).
        let mut src = hit;
        loop {
            let w = self.app.tree().widget(src);
            if w.text_surface
                || w.control_type == ControlType::ScrollBar
                || w.control_type == ControlType::Thumb
            {
                break;
            }
            match w.parent {
                Some(p) => src = p,
                None => {
                    src = hit;
                    break;
                }
            }
        }
        let w = self.app.tree().widget(src);
        if w.control_type == ControlType::ScrollBar || w.control_type == ControlType::Thumb {
            let track = lay.rect(src).unwrap_or_default();
            let pct = layout::scrollbar_percent(track, to.1);
            let target = w.scroll_target;
            if let Some(t) = target {
                self.app.tree_mut().widget_mut(t).scroll_pos = pct;
                self.app.tree_mut().widget_mut(src).value = format!("{pct:.0}");
                return Ok(());
            }
            return Err(AppError::NotInteractable { reason: "scrollbar has no target".into() });
        }
        if w.text_surface {
            // Line-range selection by drag: row indices relative to the
            // surface's own rectangle (self-consistent with how callers
            // compute drag coordinates from the surface rect).
            let rect = lay.rect(src).unwrap_or_default();
            let row_a = ((from.1 - rect.y) / layout::ROW_H).max(0) as usize;
            let row_b = ((to.1 - rect.y) / layout::ROW_H).max(0) as usize;
            let (a, b) = if row_a <= row_b { (row_a, row_b) } else { (row_b, row_a) };
            // Viewport-relative rows: the application resolves them against
            // its scroll position (absolute selection goes through
            // `select_lines`).
            let binding = CommandBinding::with_arg("ui.select_lines_viewport", format!("{a}..{b}"));
            return self.app.dispatch(src, &binding);
        }
        Err(AppError::NotInteractable { reason: format!("'{}' is not draggable", w.name) })
    }

    /// Scrolls the wheel over a point.
    pub fn wheel(&mut self, x: i32, y: i32, delta_percent: f64) -> Result<(), AppError> {
        self.action_seq += 1;
        self.trace.poison();
        let lay = self.layout();
        let Some(mut cur) = self.hit_test(&lay, x, y) else {
            return Err(AppError::NotInteractable { reason: "nothing under wheel".into() });
        };
        // Walk up to the nearest scrollable container.
        loop {
            if self.app.tree().widget(cur).scrollable {
                let w = self.app.tree_mut().widget_mut(cur);
                w.scroll_pos = (w.scroll_pos + delta_percent).clamp(0.0, 100.0);
                return Ok(());
            }
            match self.app.tree().widget(cur).parent {
                Some(p) => cur = p,
                None => {
                    return Err(AppError::NotInteractable {
                        reason: "no scrollable ancestor".into(),
                    })
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Keyboard input
    // ------------------------------------------------------------------

    /// Types text into the focused edit control.
    pub fn type_text(&mut self, text: &str) -> Result<(), AppError> {
        self.action_seq += 1;
        self.trace.poison();
        if self.trapped {
            return Err(AppError::NotInteractable { reason: "UI trapped".into() });
        }
        let Some(f) = self.app.tree().focus() else {
            return Err(AppError::NotInteractable { reason: "no focused edit".into() });
        };
        let w = self.app.tree().widget(f);
        if !w.patterns.supports(PatternKind::Value) && !w.patterns.supports(PatternKind::Text) {
            let name = w.name.clone();
            return Err(AppError::PatternUnsupported { name, pattern: PatternKind::Value });
        }
        if w.value == text {
            // Typing the text already present changes nothing: no value
            // write, no event — the logs the robustness and late-load
            // clocks compare against must not record phantom changes.
            return Ok(());
        }
        self.app.tree_mut().widget_mut(f).value = text.to_string();
        self.events.push(UiaEvent::PropertyChanged {
            control: snapshot::runtime_of(f),
            property: "Value.Value".into(),
        });
        Ok(())
    }

    /// Presses a key or key combination (e.g. `"Enter"`, `"Esc"`,
    /// `"Ctrl+B"`).
    pub fn press(&mut self, keys: &str) -> Result<(), AppError> {
        self.trace.record(Self::fp_press(keys));
        let r = self.press_inner(keys);
        self.trace_refloor();
        r
    }

    fn press_inner(&mut self, keys: &str) -> Result<(), AppError> {
        self.action_seq += 1;
        if self.trapped && keys != "Esc" {
            return Err(AppError::NotInteractable { reason: "UI trapped".into() });
        }
        match keys {
            "Esc" => {
                if self.trapped {
                    // Esc does not rescue a trapped UI (that is the point
                    // of the blocklist).
                    return Err(AppError::NotInteractable { reason: "UI trapped".into() });
                }
                let t = self.app.tree_mut();
                if let Some(&outer) = t.open_popups().first() {
                    t.collapse_popup(outer);
                    return Ok(());
                }
                if let Some(root) = t.close_top_window() {
                    let title = self.app.tree().widget(root).name.clone();
                    let _ = self.app.on_window_close(root, CommitKind::Cancel);
                    self.events
                        .push(UiaEvent::WindowClosed { window: snapshot::runtime_of(root), title });
                }
                Ok(())
            }
            "Enter" => self.commit_focused_edit(),
            other => {
                let action = self.app.tree().shortcut(other).cloned();
                match action {
                    Some(ShortcutAction::CommitFocusedEdit) => self.commit_focused_edit(),
                    Some(ShortcutAction::Escape) => self.press("Esc"),
                    Some(ShortcutAction::Command(b)) => {
                        let src = self.app.tree().main_root();
                        self.app.dispatch(src, &b)
                    }
                    None => Err(AppError::NotInteractable {
                        reason: format!("no binding for shortcut '{other}'"),
                    }),
                }
            }
        }
    }

    fn commit_focused_edit(&mut self) -> Result<(), AppError> {
        let Some(f) = self.app.tree().focus() else {
            return Err(AppError::NotInteractable { reason: "no focused edit".into() });
        };
        let binding = self.app.tree().widget(f).binding.clone();
        match binding {
            Some(b) => self.app.dispatch(f, &b),
            None => Ok(()), // Edits without a commit binding just keep their value.
        }
    }

    // ------------------------------------------------------------------
    // UIA pattern operations (client-invocable, like real UIA)
    // ------------------------------------------------------------------

    /// `ScrollPattern.SetScrollPercent` on a scrollable container (or the
    /// container driven by a scrollbar).
    pub fn scroll_to(&mut self, id: WidgetId, percent: f64) -> Result<(), AppError> {
        self.action_seq += 1;
        self.trace.poison();
        if !(0.0..=100.0).contains(&percent) {
            return Err(AppError::InvalidArgument {
                message: format!("scroll percent {percent} outside 0..=100"),
            });
        }
        let w = self.app.tree().widget(id);
        let target = if w.scrollable {
            id
        } else if let Some(t) = w.scroll_target {
            t
        } else {
            return Err(AppError::PatternUnsupported {
                name: w.name.clone(),
                pattern: PatternKind::Scroll,
            });
        };
        self.app.tree_mut().widget_mut(target).scroll_pos = percent;
        Ok(())
    }

    /// `TogglePattern.Toggle` to a specific state.
    pub fn set_toggle(&mut self, id: WidgetId, on: bool) -> Result<(), AppError> {
        self.action_seq += 1;
        self.trace.poison();
        self.check_interactable(id)?;
        let w = self.app.tree().widget(id);
        if !w.patterns.supports(PatternKind::Toggle) {
            return Err(AppError::PatternUnsupported {
                name: w.name.clone(),
                pattern: PatternKind::Toggle,
            });
        }
        let desired = if on { ToggleState::On } else { ToggleState::Off };
        if self.app.tree().widget(id).toggle == Some(desired) {
            return Ok(()); // Already in the requested state.
        }
        self.app.tree_mut().widget_mut(id).toggle = Some(desired);
        let binding = self.app.tree().widget(id).binding.clone();
        if let Some(b) = binding {
            self.app.dispatch(id, &b)?;
        }
        Ok(())
    }

    /// `SelectionItemPattern.Select` / `AddToSelection`.
    pub fn select(&mut self, id: WidgetId, additive: bool) -> Result<(), AppError> {
        self.action_seq += 1;
        self.trace.poison();
        self.check_interactable(id)?;
        let w = self.app.tree().widget(id);
        if !w.patterns.supports(PatternKind::SelectionItem) {
            return Err(AppError::PatternUnsupported {
                name: w.name.clone(),
                pattern: PatternKind::SelectionItem,
            });
        }
        self.app.tree_mut().select_item(id, additive);
        let binding = self.app.tree().widget(id).binding.clone();
        if let Some(b) = binding {
            self.app.dispatch(id, &b)?;
        }
        Ok(())
    }

    /// `ValuePattern.SetValue`.
    pub fn set_value(&mut self, id: WidgetId, value: &str) -> Result<(), AppError> {
        self.action_seq += 1;
        self.trace.poison();
        self.check_interactable(id)?;
        let w = self.app.tree().widget(id);
        if !w.patterns.supports(PatternKind::Value) {
            return Err(AppError::PatternUnsupported {
                name: w.name.clone(),
                pattern: PatternKind::Value,
            });
        }
        self.app.tree_mut().widget_mut(id).value = value.to_string();
        Ok(())
    }

    /// `ExpandCollapsePattern.Expand` / `Collapse`.
    pub fn set_expanded(&mut self, id: WidgetId, expanded: bool) -> Result<(), AppError> {
        self.action_seq += 1;
        self.trace.poison();
        self.check_interactable(id)?;
        let w = self.app.tree().widget(id);
        if !w.popup && !w.patterns.supports(PatternKind::ExpandCollapse) {
            return Err(AppError::PatternUnsupported {
                name: w.name.clone(),
                pattern: PatternKind::ExpandCollapse,
            });
        }
        if expanded {
            self.app.tree_mut().open_popup(id);
            self.maybe_delay_children(id);
        } else {
            self.app.tree_mut().collapse_popup(id);
        }
        Ok(())
    }

    /// `TextPattern` line-range selection on a text surface (the DMI
    /// `select_lines` state declaration bottoms out here).
    pub fn select_lines(&mut self, id: WidgetId, start: usize, end: usize) -> Result<(), AppError> {
        self.action_seq += 1;
        self.trace.poison();
        self.check_interactable(id)?;
        let w = self.app.tree().widget(id);
        if !w.text_surface {
            return Err(AppError::PatternUnsupported {
                name: w.name.clone(),
                pattern: PatternKind::Text,
            });
        }
        if start > end {
            return Err(AppError::InvalidArgument {
                message: format!("line range {start}..{end} is inverted"),
            });
        }
        let binding = CommandBinding::with_arg("ui.select_lines", format!("{start}..{end}"));
        self.app.dispatch(id, &binding)
    }

    /// `TextPattern` paragraph-range selection on a text surface.
    pub fn select_paragraphs(
        &mut self,
        id: WidgetId,
        start: usize,
        end: usize,
    ) -> Result<(), AppError> {
        self.action_seq += 1;
        self.trace.poison();
        self.check_interactable(id)?;
        let w = self.app.tree().widget(id);
        if !w.text_surface {
            return Err(AppError::PatternUnsupported {
                name: w.name.clone(),
                pattern: PatternKind::Text,
            });
        }
        if start > end {
            return Err(AppError::InvalidArgument {
                message: format!("paragraph range {start}..{end} is inverted"),
            });
        }
        let binding = CommandBinding::with_arg("ui.select_paragraphs", format!("{start}..{end}"));
        self.app.dispatch(id, &binding)
    }

    /// `TextPattern`/`ValuePattern` structured read: the control's text.
    pub fn get_text(&self, id: WidgetId) -> String {
        let w = self.app.tree().widget(id);
        if !w.value.is_empty() {
            w.value.clone()
        } else {
            w.name.clone()
        }
    }

    // ------------------------------------------------------------------
    // Behavior execution
    // ------------------------------------------------------------------

    fn check_interactable(&self, id: WidgetId) -> Result<(), AppError> {
        if self.trapped {
            return Err(AppError::NotInteractable { reason: "UI trapped".into() });
        }
        let t = self.app.tree();
        if !t.is_shown(id) {
            return Err(AppError::NotInteractable {
                reason: format!("'{}' is not on screen", t.widget(id).name),
            });
        }
        if !t.widget(id).enabled {
            return Err(AppError::NotInteractable {
                reason: format!("'{}' is disabled", t.widget(id).name),
            });
        }
        // Modal windows swallow outside clicks.
        let top = t.top_window();
        if top.modal && t.window_root_of(id) != Some(top.root) {
            return Err(AppError::NotInteractable {
                reason: format!(
                    "'{}' is blocked by modal window '{}'",
                    t.widget(id).name,
                    t.widget(top.root).name
                ),
            });
        }
        Ok(())
    }

    fn maybe_delay_children(&mut self, container: WidgetId) {
        let delay = self.inst.late_delay_for(container, self.action_seq);
        if delay > 0 {
            // The next `delay` snapshots still miss the children; they
            // appear on snapshot `query_seq + delay + 1`.
            let ready = self.query_seq + delay + 1;
            self.app.tree_mut().set_pending_children(container, ready);
        }
    }

    fn run_behavior(&mut self, id: WidgetId, behavior: Behavior) -> Result<(), AppError> {
        match behavior {
            Behavior::None => Ok(()),
            Behavior::OpenMenu => {
                self.app.tree_mut().open_popup(id);
                self.maybe_delay_children(id);
                self.events.push(UiaEvent::StructureChanged { subtree: snapshot::runtime_of(id) });
                Ok(())
            }
            Behavior::SwitchTab => {
                self.app.tree_mut().select_tab(id);
                self.events.push(UiaEvent::StructureChanged { subtree: snapshot::runtime_of(id) });
                Ok(())
            }
            Behavior::OpenDialog(root) => {
                self.app.tree_mut().close_all_popups();
                self.app.tree_mut().open_window(root, true);
                self.maybe_delay_children(root);
                let title = self.app.tree().widget(root).name.clone();
                self.events.push(UiaEvent::WindowOpened {
                    window: snapshot::runtime_of(root),
                    title,
                    process_id: self.app.process_id(),
                    modal: true,
                });
                Ok(())
            }
            Behavior::OpenWindow(root) => {
                self.app.tree_mut().open_window(root, false);
                self.maybe_delay_children(root);
                let title = self.app.tree().widget(root).name.clone();
                self.events.push(UiaEvent::WindowOpened {
                    window: snapshot::runtime_of(root),
                    title,
                    process_id: self.app.process_id(),
                    modal: false,
                });
                Ok(())
            }
            Behavior::CloseWindow(commit) => {
                let t = self.app.tree_mut();
                if let Some(root) = t.close_top_window() {
                    let title = self.app.tree().widget(root).name.clone();
                    self.app.on_window_close(root, commit)?;
                    self.events
                        .push(UiaEvent::WindowClosed { window: snapshot::runtime_of(root), title });
                }
                Ok(())
            }
            Behavior::Command(b) => self.app.dispatch(id, &b),
            Behavior::CommandAndDismiss(b) => {
                let r = self.app.dispatch(id, &b);
                self.app.tree_mut().close_all_popups();
                r
            }
            Behavior::Select => {
                self.app.tree_mut().select_item(id, false);
                let binding = self.app.tree().widget(id).binding.clone();
                if let Some(b) = binding {
                    self.app.dispatch(id, &b)?;
                }
                Ok(())
            }
            Behavior::Toggle => {
                let cur = self.app.tree().widget(id).toggle.unwrap_or(ToggleState::Off);
                let next = match cur {
                    ToggleState::On => ToggleState::Off,
                    _ => ToggleState::On,
                };
                self.app.tree_mut().widget_mut(id).toggle = Some(next);
                let binding = self.app.tree().widget(id).binding.clone();
                if let Some(b) = binding {
                    self.app.dispatch(id, &b)?;
                }
                Ok(())
            }
            Behavior::FocusEdit => {
                self.app.tree_mut().set_focus(Some(id));
                self.events.push(UiaEvent::FocusChanged { control: snapshot::runtime_of(id) });
                Ok(())
            }
            Behavior::OpenExternal => {
                self.external_jumps += 1;
                Ok(())
            }
            Behavior::Trap => {
                self.trapped = true;
                Ok(())
            }
        }
    }

    fn hit_test(&self, lay: &layout::Layout, x: i32, y: i32) -> Option<WidgetId> {
        // Deepest shown widget whose rect contains the point, preferring
        // widgets in the topmost window.
        let t = self.app.tree();
        for win in t.open_windows().iter().rev() {
            let mut best: Option<(WidgetId, usize)> = None;
            for id in t.descendants(win.root) {
                if !t.is_shown(id) || lay.offscreen(id) {
                    continue;
                }
                if let Some(r) = lay.rect(id) {
                    if r.contains(x, y) {
                        let depth = {
                            let mut d = 0;
                            let mut cur = id;
                            while let Some(p) = t.widget(cur).parent {
                                d += 1;
                                cur = p;
                            }
                            d
                        };
                        if best.is_none_or(|(_, bd)| depth >= bd) {
                            best = Some((id, depth));
                        }
                    }
                }
            }
            if let Some((id, _)) = best {
                return Some(id);
            }
            if t.top_window().modal {
                // Modal window swallows the click even on a miss.
                return None;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::widget::{Widget, WidgetBuilder};
    use dmi_uia::ControlType as CT;

    /// A minimal test application: a counter bumped by a ribbon button,
    /// a dialog with an edit, and a color picker merge-node structure.
    struct TestApp {
        tree: UiTree,
        counter: u32,
        committed: Option<String>,
        last_color: Option<(String, String)>, // (target, color)
        color_target: String,
    }

    struct TestIds {
        bump: WidgetId,
        dlg_open: WidgetId,
        dlg_edit: WidgetId,
        dlg_ok: WidgetId,
        font_menu: WidgetId,
        outline_menu: WidgetId,
        blue_font: WidgetId,
        blue_outline: WidgetId,
        doc: WidgetId,
        sbar: WidgetId,
    }

    fn build() -> (TestApp, TestIds) {
        let mut t = UiTree::new();
        let main = t.add_root(Widget::new("TestApp", CT::Window));
        let bump = t.add(
            main,
            WidgetBuilder::new("Bump", CT::Button)
                .on_click(Behavior::Command(CommandBinding::new("bump")))
                .build(),
        );
        let dlg = t.add_root(Widget::new("Settings", CT::Window));
        let dlg_edit = t.add(
            dlg,
            WidgetBuilder::new("Name", CT::Edit)
                .on_click(Behavior::FocusEdit)
                .binding(CommandBinding::new("commit_name"))
                .build(),
        );
        let dlg_ok = t.add(
            dlg,
            WidgetBuilder::new("OK", CT::Button)
                .on_click(Behavior::CloseWindow(CommitKind::Ok))
                .build(),
        );
        let dlg_open = t.add(
            main,
            WidgetBuilder::new("Open Settings", CT::Button)
                .on_click(Behavior::OpenDialog(dlg))
                .build(),
        );
        // Merge-node color picker: two menus leading to "the same" color.
        let font_menu = t.add(
            main,
            WidgetBuilder::new("Font Color", CT::SplitButton)
                .popup()
                .on_click(Behavior::OpenMenu)
                .build(),
        );
        let blue_font = t.add(
            font_menu,
            WidgetBuilder::new("Blue", CT::ListItem)
                .on_click(Behavior::CommandAndDismiss(CommandBinding::with_arg(
                    "set_color",
                    "Blue",
                )))
                .build(),
        );
        let outline_menu = t.add(
            main,
            WidgetBuilder::new("Outline Color", CT::SplitButton)
                .popup()
                .on_click(Behavior::OpenMenu)
                .build(),
        );
        let blue_outline = t.add(
            outline_menu,
            WidgetBuilder::new("Blue", CT::ListItem)
                .on_click(Behavior::CommandAndDismiss(CommandBinding::with_arg(
                    "set_color",
                    "Blue",
                )))
                .build(),
        );
        let doc = t.add(main, WidgetBuilder::new("Doc", CT::Document).scrollable(3).build());
        for i in 0..12 {
            t.add(doc, Widget::new(format!("Para {i}"), CT::Text));
        }
        let sbar =
            t.add(main, WidgetBuilder::new("Vertical", CT::ScrollBar).scroll_target(doc).build());
        (
            TestApp {
                tree: t,
                counter: 0,
                committed: None,
                last_color: None,
                color_target: "font".into(),
            },
            TestIds {
                bump,
                dlg_open,
                dlg_edit,
                dlg_ok,
                font_menu,
                outline_menu,
                blue_font,
                blue_outline,
                doc,
                sbar,
            },
        )
    }

    impl GuiApp for TestApp {
        fn name(&self) -> &str {
            "TestApp"
        }
        fn tree(&self) -> &UiTree {
            &self.tree
        }
        fn tree_mut(&mut self) -> &mut UiTree {
            &mut self.tree
        }
        fn dispatch(&mut self, src: WidgetId, b: &CommandBinding) -> Result<(), AppError> {
            match b.command.as_str() {
                "bump" => {
                    self.counter += 1;
                    Ok(())
                }
                "commit_name" => {
                    self.committed = Some(self.tree.widget(src).value.clone());
                    Ok(())
                }
                "set_color" => {
                    // Path-dependent semantics: the target property depends
                    // on which menu is (or was) open.
                    let target = if self
                        .tree
                        .widget(src)
                        .parent
                        .is_some_and(|p| self.tree.widget(p).name.starts_with("Outline"))
                    {
                        "outline"
                    } else {
                        &self.color_target
                    };
                    self.last_color = Some((target.to_string(), b.arg.clone().unwrap_or_default()));
                    Ok(())
                }
                other => Err(AppError::Command { command: other.into(), reason: "unknown".into() }),
            }
        }
        fn reset(&mut self) {
            self.counter = 0;
            self.committed = None;
            self.last_color = None;
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn session() -> (Session, TestIds) {
        let (app, ids) = build();
        (Session::new(Box::new(app)), ids)
    }

    fn counter(s: &Session) -> u32 {
        s.app().as_any().downcast_ref::<TestApp>().unwrap().counter
    }

    #[test]
    fn click_dispatches_command() {
        let (mut s, ids) = session();
        s.click(ids.bump).unwrap();
        s.click(ids.bump).unwrap();
        assert_eq!(counter(&s), 2);
    }

    #[test]
    fn hidden_control_click_fails() {
        let (mut s, ids) = session();
        let e = s.click(ids.blue_font).unwrap_err();
        assert!(matches!(e, AppError::NotInteractable { .. }));
    }

    #[test]
    fn menu_click_then_item() {
        let (mut s, ids) = session();
        s.click(ids.font_menu).unwrap();
        s.click(ids.blue_font).unwrap();
        let app = s.app().as_any().downcast_ref::<TestApp>().unwrap();
        assert_eq!(app.last_color, Some(("font".into(), "Blue".into())));
        // CommandAndDismiss closed the popup chain.
        assert!(s.app().tree().open_popups().is_empty());
    }

    #[test]
    fn merge_node_paths_have_distinct_semantics() {
        let (mut s, ids) = session();
        s.click(ids.outline_menu).unwrap();
        s.click(ids.blue_outline).unwrap();
        let app = s.app().as_any().downcast_ref::<TestApp>().unwrap();
        assert_eq!(app.last_color, Some(("outline".into(), "Blue".into())));
    }

    #[test]
    fn modal_dialog_blocks_outside_clicks() {
        let (mut s, ids) = session();
        s.click(ids.dlg_open).unwrap();
        let e = s.click(ids.bump).unwrap_err();
        assert!(matches!(e, AppError::NotInteractable { .. }));
        // OK closes; then the ribbon is interactable again.
        s.click(ids.dlg_ok).unwrap();
        s.click(ids.bump).unwrap();
        assert_eq!(counter(&s), 1);
    }

    #[test]
    fn edit_focus_type_enter_commits() {
        let (mut s, ids) = session();
        s.click(ids.dlg_open).unwrap();
        s.click(ids.dlg_edit).unwrap();
        s.type_text("Quarterly Report").unwrap();
        s.press("Enter").unwrap();
        let app = s.app().as_any().downcast_ref::<TestApp>().unwrap();
        assert_eq!(app.committed.as_deref(), Some("Quarterly Report"));
    }

    #[test]
    fn esc_closes_popup_then_dialog() {
        let (mut s, ids) = session();
        s.click(ids.dlg_open).unwrap();
        assert_eq!(s.app().tree().open_windows().len(), 2);
        s.press("Esc").unwrap();
        assert_eq!(s.app().tree().open_windows().len(), 1);
        s.click(ids.font_menu).unwrap();
        assert_eq!(s.app().tree().open_popups().len(), 1);
        s.press("Esc").unwrap();
        assert!(s.app().tree().open_popups().is_empty());
    }

    #[test]
    fn scrollbar_drag_sets_scroll() {
        let (mut s, ids) = session();
        let snap = s.snapshot();
        let sb_idx = snap.find_by_name("Vertical").unwrap();
        let r = snap.node(sb_idx).props.rect;
        s.drag(r.center(), (r.center().0, r.y + (r.h as f64 * 0.8) as i32)).unwrap();
        let pos = s.app().tree().widget(ids.doc).scroll_pos;
        assert!((pos - 80.0).abs() < 2.0, "scroll pos {pos}");
    }

    #[test]
    fn scroll_pattern_direct() {
        let (mut s, ids) = session();
        s.scroll_to(ids.sbar, 55.0).unwrap();
        assert!((s.app().tree().widget(ids.doc).scroll_pos - 55.0).abs() < 1e-9);
        assert!(s.scroll_to(ids.doc, 120.0).is_err());
    }

    #[test]
    fn wheel_scrolls_document() {
        let (mut s, ids) = session();
        let snap = s.snapshot();
        let doc_idx = snap.index_of_runtime(snapshot::runtime_of(ids.doc)).unwrap();
        let (cx, cy) = snap.node(doc_idx).props.rect.center();
        s.wheel(cx, cy, 30.0).unwrap();
        assert!((s.app().tree().widget(ids.doc).scroll_pos - 30.0).abs() < 1e-9);
    }

    #[test]
    fn click_at_coordinates_resolves() {
        let (mut s, ids) = session();
        let snap = s.snapshot();
        let idx = snap.index_of_runtime(snapshot::runtime_of(ids.bump)).unwrap();
        let (x, y) = snap.node(idx).props.rect.center();
        s.click_at(x, y).unwrap();
        assert_eq!(counter(&s), 1);
    }

    #[test]
    fn set_toggle_is_idempotent_and_pattern_checked() {
        let (mut s, ids) = session();
        assert!(s.set_toggle(ids.bump, true).is_err()); // No Toggle pattern.
        let _ = ids;
    }

    #[test]
    fn restart_resets_everything() {
        let (mut s, ids) = session();
        s.click(ids.bump).unwrap();
        s.click(ids.dlg_open).unwrap();
        s.restart();
        assert_eq!(counter(&s), 0);
        assert_eq!(s.app().tree().open_windows().len(), 1);
    }

    #[test]
    fn restart_is_not_an_input_action() {
        let (mut s, ids) = session();
        s.click(ids.bump).unwrap();
        let actions = s.action_count();
        s.restart();
        s.restart();
        assert_eq!(s.action_count(), actions, "restarts must not skew action counts");
        assert_eq!(s.restart_count(), 2);
    }

    #[test]
    fn type_text_noop_write_is_event_free() {
        let (mut s, ids) = session();
        s.click(ids.dlg_open).unwrap();
        s.click(ids.dlg_edit).unwrap();
        s.type_text("Report").unwrap();
        let events_after_first = s.events().all().len();
        s.type_text("Report").unwrap();
        assert_eq!(
            s.events().all().len(),
            events_after_first,
            "unchanged text must not log an event"
        );
        s.type_text("Report 2").unwrap();
        assert_eq!(s.events().all().len(), events_after_first + 1, "a real change still logs");
    }

    #[test]
    fn escape_to_base_collapses_windows_and_popups() {
        let (mut s, ids) = session();
        s.click(ids.dlg_open).unwrap();
        s.press("Esc").unwrap();
        s.click(ids.font_menu).unwrap();
        assert_eq!(s.popup_depth(), 1);
        let epoch = s.ui_state_epoch();
        assert_eq!(s.escape_to_base(), (true, 1));
        assert_eq!((s.window_depth(), s.popup_depth()), (1, 0));
        assert_eq!(s.ui_state_epoch(), epoch, "popup collapse is transient, not a mutation");
        // Already at base: nothing to press.
        assert_eq!(s.escape_to_base(), (true, 0));
    }

    #[test]
    fn snapshot_reflects_viewport() {
        let (mut s, ids) = session();
        let snap = s.snapshot();
        let p0 = snap.find_by_name("Para 0").unwrap();
        let p9 = snap.find_by_name("Para 9").unwrap();
        assert!(!snap.node(p0).props.offscreen);
        assert!(snap.node(p9).props.offscreen);
        s.scroll_to(ids.doc, 100.0).unwrap();
        let snap = s.snapshot();
        let p0 = snap.find_by_name("Para 0").unwrap();
        let p11 = snap.find_by_name("Para 11").unwrap();
        assert!(snap.node(p0).props.offscreen);
        assert!(!snap.node(p11).props.offscreen);
    }

    #[test]
    fn events_record_window_lifecycle() {
        let (mut s, ids) = session();
        let c = s.events().cursor();
        s.click(ids.dlg_open).unwrap();
        assert!(s.events().window_opened_since(c).is_some());
    }

    #[test]
    fn late_loading_children_need_retry() {
        let (app, ids) = build();
        let mut s = Session::with_instability(Box::new(app), InstabilityModel::new(5, 1.0, 0.0));
        s.click(ids.font_menu).unwrap();
        let first = s.snapshot();
        assert!(first.find_by_name("Blue").is_none(), "children should lag one query");
        let second = s.snapshot();
        assert!(second.find_by_name("Blue").is_some());
    }

    // ------------------------------------------------------------------
    // Epoch-cached capture semantics
    // ------------------------------------------------------------------

    #[test]
    fn transient_popup_open_close_returns_to_a_cache_hit() {
        let (mut s, ids) = session();
        let base = s.capture();
        assert!(!base.is_cache_hit(), "first capture is a cold build");
        s.click(ids.font_menu).unwrap();
        let open = s.capture();
        assert!(!open.is_cache_hit(), "popup open changes the visible tree");
        assert!(open.find_by_name("Blue").is_some());
        s.press("Esc").unwrap();
        let back = s.capture();
        assert!(back.is_cache_hit(), "popup close returns to the cached base");
        assert!(Arc::ptr_eq(base.snap(), back.snap()), "same shared snapshot, index included");
    }

    #[test]
    fn transient_dialog_open_close_returns_to_a_cache_hit() {
        let (mut s, ids) = session();
        let base = s.capture();
        s.click(ids.dlg_open).unwrap();
        let dlg = s.capture();
        assert!(!dlg.is_cache_hit());
        assert_eq!(dlg.windows().len(), 2);
        s.press("Esc").unwrap();
        let back = s.capture();
        assert!(back.is_cache_hit(), "dialog close restores the cached base");
        assert!(Arc::ptr_eq(base.snap(), back.snap()));
        // Reopening also hits: the open-dialog state is still in the MRU.
        s.click(ids.dlg_open).unwrap();
        let again = s.capture();
        assert!(again.is_cache_hit(), "reopened dialog state is still cached");
        assert!(Arc::ptr_eq(dlg.snap(), again.snap()));
    }

    #[test]
    fn widget_write_invalidates_exactly_the_owning_window() {
        let (mut s, ids) = session();
        s.click(ids.dlg_open).unwrap();
        let _warm = s.capture();
        let before = s.capture_stats();
        // Write inside the dialog window only.
        s.set_value(ids.dlg_edit, "Quarterly").unwrap();
        let snap = s.capture();
        assert!(!snap.is_cache_hit());
        let after = s.capture_stats();
        assert_eq!(after.windows_reused - before.windows_reused, 1, "main window copied");
        assert_eq!(after.windows_rebuilt - before.windows_rebuilt, 1, "dialog re-walked");
        let edit = snap.find_by_name("Name").unwrap();
        assert_eq!(snap.node(edit).props.value, "Quarterly");
        // And the main window write invalidates only the main window.
        let before = s.capture_stats();
        s.press("Esc").unwrap(); // back to main only
        s.scroll_to(ids.doc, 40.0).unwrap();
        let _snap = s.capture();
        let after = s.capture_stats();
        assert_eq!(after.windows_rebuilt - before.windows_rebuilt, 1, "main re-walked");
    }

    #[test]
    fn late_load_reveals_on_the_correct_query_under_caching() {
        let (app, ids) = build();
        let mut s = Session::with_instability(Box::new(app), InstabilityModel::new(5, 1.0, 0.0));
        let (app2, ids2) = build();
        let mut oracle =
            Session::with_instability(Box::new(app2), InstabilityModel::new(5, 1.0, 0.0));
        oracle.set_capture_config(CaptureConfig::full_rebuild());
        assert_eq!(ids.font_menu, ids2.font_menu);
        s.click(ids.font_menu).unwrap();
        oracle.click(ids2.font_menu).unwrap();
        // The lagging capture misses the children; a repeat before the
        // reveal is a cache hit with the children still hidden; the reveal
        // query itself must rebuild and match the eager oracle.
        let lag = s.capture();
        assert!(!lag.is_cache_hit());
        assert!(lag.find_by_name("Blue").is_none());
        assert_eq!(*lag.snap().as_ref(), *oracle.snapshot(), "lagging capture matches oracle");
        let revealed = s.capture();
        assert!(!revealed.is_cache_hit(), "the reveal query must not be served from cache");
        assert!(revealed.find_by_name("Blue").is_some());
        assert_eq!(*revealed.snap().as_ref(), *oracle.snapshot(), "reveal matches oracle");
        let warm = s.capture();
        assert!(warm.is_cache_hit(), "post-reveal state is stable and cacheable");
        assert_eq!(*warm.snap().as_ref(), *oracle.snapshot());
    }

    #[test]
    fn cached_and_full_rebuild_captures_are_byte_identical() {
        // A scripted action mix — popups, dialogs, edits, toggles, scroll,
        // tab-free clicks — must produce identical snapshots either way.
        let (app_a, ids) = build();
        let (app_b, _) = build();
        let mut cached = Session::new(Box::new(app_a));
        let mut eager = Session::new(Box::new(app_b));
        eager.set_capture_config(CaptureConfig::full_rebuild());
        type Step = Box<dyn Fn(&mut Session) -> Result<(), AppError>>;
        let script: Vec<Step> = vec![
            Box::new(move |s| s.click(ids.bump)),
            Box::new(move |s| s.click(ids.font_menu)),
            Box::new(move |s| s.click(ids.blue_font)),
            Box::new(move |s| s.click(ids.dlg_open)),
            Box::new(move |s| s.click(ids.dlg_edit)),
            Box::new(move |s| s.type_text("Report")),
            Box::new(move |s| s.press("Esc")),
            Box::new(move |s| s.scroll_to(ids.doc, 60.0)),
            Box::new(move |s| s.click(ids.outline_menu)),
            Box::new(move |s| s.press("Esc")),
        ];
        assert_eq!(*cached.snapshot(), *eager.snapshot());
        for step in &script {
            step(&mut cached).unwrap();
            step(&mut eager).unwrap();
            assert_eq!(*cached.snapshot(), *eager.snapshot());
            // Double-capture: the repeat is a hit and still identical.
            assert_eq!(*cached.snapshot(), *eager.snapshot());
        }
        assert!(cached.capture_stats().full_hits > 0, "the cache did serve hits");
    }

    #[test]
    fn restart_drops_cached_captures() {
        let (mut s, ids) = session();
        let base = s.capture();
        s.click(ids.bump).unwrap();
        s.restart();
        let fresh = s.capture();
        assert!(!fresh.is_cache_hit(), "restart must invalidate the cache");
        assert!(!Arc::ptr_eq(base.snap(), fresh.snap()));
    }

    // ------------------------------------------------------------------
    // Pristine-image forks and restart-surviving capture reuse
    // ------------------------------------------------------------------

    /// A pristine-image app in the `office::Pristine` mold: reset clones
    /// one fixed launch image, so it can attest a pristine token and
    /// fork.
    struct ImageApp {
        tree: UiTree,
        counter: u32,
        pristine: Arc<(UiTree, u32)>,
    }

    struct ImageIds {
        bump: WidgetId,
        menu: WidgetId,
        label: WidgetId,
    }

    fn image_app() -> (ImageApp, ImageIds) {
        let mut t = UiTree::new();
        let main = t.add_root(Widget::new("Image", CT::Window));
        let bump = t.add(
            main,
            WidgetBuilder::new("Bump", CT::Button)
                .on_click(Behavior::Command(CommandBinding::new("bump")))
                .build(),
        );
        let menu = t.add(
            main,
            WidgetBuilder::new("Menu", CT::SplitButton)
                .popup()
                .on_click(Behavior::OpenMenu)
                .build(),
        );
        t.add(menu, Widget::new("Item", CT::ListItem));
        let label = t.add(main, Widget::new("Label", CT::Text));
        let pristine = Arc::new((t.clone(), 0));
        (ImageApp { tree: t, counter: 0, pristine }, ImageIds { bump, menu, label })
    }

    impl GuiApp for ImageApp {
        fn name(&self) -> &str {
            "Image"
        }
        fn tree(&self) -> &UiTree {
            &self.tree
        }
        fn tree_mut(&mut self) -> &mut UiTree {
            &mut self.tree
        }
        fn dispatch(&mut self, _src: WidgetId, b: &CommandBinding) -> Result<(), AppError> {
            if b.command == "bump" {
                self.counter += 1;
            }
            Ok(())
        }
        fn reset(&mut self) {
            let pristine = Arc::clone(&self.pristine);
            self.tree.clone_from(&pristine.0);
            self.counter = pristine.1;
        }
        fn fork(&self) -> Option<Box<dyn GuiApp>> {
            let pristine = Arc::clone(&self.pristine);
            Some(Box::new(ImageApp { tree: pristine.0.clone(), counter: pristine.1, pristine }))
        }
        fn pristine_token(&self) -> Option<u64> {
            Some(Arc::as_ptr(&self.pristine) as u64)
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn restart_to_unchanged_pristine_image_is_a_snapshot_hit() {
        let (app, ids) = image_app();
        let mut s = Session::new(Box::new(app));
        s.restart();
        let first = s.capture();
        assert!(!first.is_cache_hit(), "first post-restart capture builds and stashes");
        s.click(ids.bump).unwrap();
        s.restart();
        let again = s.capture();
        assert!(again.is_cache_hit(), "restart back to the pristine image is O(1)");
        assert!(Arc::ptr_eq(first.snap(), again.snap()), "same stashed snapshot");
        assert!(s.capture_stats().pristine_hits >= 1);
        // The stash matches an eager rebuild byte-for-byte.
        let mut oracle = Session::new(Box::new(image_app().0));
        oracle.set_capture_config(CaptureConfig::full_rebuild());
        oracle.restart();
        assert_eq!(*again.snap().as_ref(), *oracle.snapshot());
    }

    #[test]
    fn pristine_stash_seeds_partial_rebuilds_after_a_click() {
        let (app, ids) = image_app();
        let mut s = Session::new(Box::new(app));
        s.restart();
        let _stash = s.capture();
        s.restart();
        let hit = s.capture();
        assert!(hit.is_cache_hit());
        // The adopted stash acts as a donor: opening a popup dirties only
        // the main window, but the snapshot after closing it again is the
        // stash itself (structural popup keying).
        s.click(ids.menu).unwrap();
        let open = s.capture();
        assert!(!open.is_cache_hit());
        assert!(open.find_by_name("Item").is_some());
        s.press("Esc").unwrap();
        let back = s.capture();
        assert!(back.is_cache_hit(), "collapse returns to the adopted stash");
        assert!(Arc::ptr_eq(hit.snap(), back.snap()));
    }

    #[test]
    fn pristine_mark_invalidates_on_any_divergence() {
        let (app, ids) = image_app();
        let mut s = Session::new(Box::new(app));
        s.restart();
        let _stash = s.capture();
        // Input action after restart: no pristine hit.
        s.restart();
        s.click(ids.bump).unwrap();
        assert!(!s.capture().is_cache_hit());
        // Direct tree mutation (no input action): the main-window stamp
        // moves, so the mark cannot hold.
        s.restart();
        s.app_mut().tree_mut().widget_mut(ids.label).name.push('!');
        let diverged = s.capture();
        assert!(!diverged.is_cache_hit());
        assert_eq!(diverged.find_by_name("Label!").map(|_| ()), Some(()));
        // The oracle configuration never serves the stash.
        s.set_capture_config(CaptureConfig::full_rebuild());
        s.restart();
        s.restart();
        assert!(!s.capture().is_cache_hit());
    }

    #[test]
    fn fork_from_pristine_is_an_independent_launch_state_session() {
        let (app, ids) = image_app();
        let mut s = Session::new(Box::new(app));
        s.click(ids.bump).unwrap();
        s.click(ids.menu).unwrap();
        let mut fork = s.fork_from_pristine().expect("image app forks");
        // The fork is at launch state, unaffected by the parent's drift.
        assert_eq!(fork.app().as_any().downcast_ref::<ImageApp>().unwrap().counter, 0);
        assert_eq!(fork.popup_depth(), 0);
        assert_eq!(fork.action_count(), 0);
        // Same pristine token: fork restarts share the parent's identity.
        assert_eq!(fork.app().pristine_token(), s.app().pristine_token());
        // Mutating the fork leaves the parent untouched (and vice versa).
        fork.click(ids.bump).unwrap();
        fork.click(ids.bump).unwrap();
        assert_eq!(fork.app().as_any().downcast_ref::<ImageApp>().unwrap().counter, 2);
        assert_eq!(s.app().as_any().downcast_ref::<ImageApp>().unwrap().counter, 1);
        assert_eq!(s.popup_depth(), 1, "parent popup state untouched by the fork");
        // Forks produce byte-identical snapshots to a fresh launch.
        fork.restart();
        let mut fresh = Session::new(Box::new(image_app().0));
        fresh.restart();
        assert_eq!(*fork.snapshot(), *fresh.snapshot());
        // Sessions (and their forks) are Send: workers move them across
        // threads.
        fn assert_send<T: Send>(_: &T) {}
        assert_send(&fork);
    }

    // ------------------------------------------------------------------
    // Cross-session capture pool + index carry-forward
    // ------------------------------------------------------------------

    #[test]
    fn capture_pool_shares_snapshots_across_forked_sessions() {
        let (app, ids) = image_app();
        let mut a = Session::new(Box::new(app));
        let pool = CapturePool::shared();
        a.set_capture_pool(Some(Arc::clone(&pool)));
        let mut b = a.fork_from_pristine().expect("image app forks");
        assert!(b.capture_pool().is_some(), "forks inherit the pool");
        a.restart();
        b.restart();
        let base_a = a.capture();
        assert!(!base_a.is_cache_hit(), "first capture anywhere is a build");
        assert_eq!(a.capture_stats().pool_misses, 1, "probed and offered to the pool");
        let base_b = b.capture();
        assert!(base_b.is_cache_hit(), "sibling state served from the pool");
        assert!(Arc::ptr_eq(base_a.snap(), base_b.snap()), "one shared snapshot across sessions");
        assert_eq!(b.capture_stats().pool_hits, 1);
        // The same click path from pristine shares again — on both sides.
        a.click(ids.menu).unwrap();
        b.click(ids.menu).unwrap();
        let m_a = a.capture();
        let m_b = b.capture();
        assert!(!m_a.is_cache_hit());
        assert!(m_b.is_cache_hit());
        assert!(Arc::ptr_eq(m_a.snap(), m_b.snap()));
        // Byte-identity against an eager rebuild of the same state.
        let (oracle_app, oracle_ids) = image_app();
        let mut oracle = Session::new(Box::new(oracle_app));
        oracle.set_capture_config(CaptureConfig::full_rebuild());
        oracle.restart();
        assert_eq!(oracle_ids.menu, ids.menu);
        oracle.click(oracle_ids.menu).unwrap();
        assert_eq!(*m_b.snap().as_ref(), *oracle.snapshot());
    }

    #[test]
    fn capture_pool_keys_on_the_divergence_and_refloors_at_base() {
        let (app, ids) = image_app();
        let mut a = Session::new(Box::new(app));
        a.set_capture_pool(Some(CapturePool::shared()));
        let mut b = a.fork_from_pristine().unwrap();
        a.restart();
        b.restart();
        let base_a = a.capture();
        // Divergent traces never alias: A opens the menu, B clicks the
        // (tree-invisible) bump command — B's state re-floors to pristine.
        a.click(ids.menu).unwrap();
        b.click(ids.bump).unwrap();
        let menu_a = a.capture();
        let base_b = b.capture();
        assert!(base_b.is_cache_hit(), "B provably returned to pristine: base is shared");
        assert!(Arc::ptr_eq(base_a.snap(), base_b.snap()));
        assert!(!Arc::ptr_eq(menu_a.snap(), base_b.snap()));
        // Esc re-floors A too: its next base capture rides the pool entry.
        a.press("Esc").unwrap();
        let back_a = a.capture();
        assert!(Arc::ptr_eq(back_a.snap(), base_a.snap()));
    }

    #[test]
    fn unfingerprinted_input_poisons_the_pool_trace_until_restart() {
        let (app, ids) = image_app();
        let mut s = Session::new(Box::new(app));
        let pool = CapturePool::shared();
        s.set_capture_pool(Some(Arc::clone(&pool)));
        s.restart();
        let _ = s.capture();
        assert_eq!(pool.len(), 1, "pristine base pooled");
        // A pattern operation has no trace fingerprint: captures stop
        // touching the pool (no hits, no inserts) until the next restart.
        s.scroll_to(ids.label, 0.0).unwrap_err(); // label is not scrollable, but the attempt poisons
        s.click(ids.menu).unwrap();
        let before = s.capture_stats();
        let _ = s.capture();
        assert_eq!(pool.len(), 1, "poisoned session must not insert");
        assert_eq!(s.capture_stats().pool_misses, before.pool_misses, "nor probe");
        // app_mut poisons too.
        s.restart();
        s.app_mut();
        let before = s.capture_stats();
        let _ = s.capture();
        assert_eq!(s.capture_stats().pool_misses, before.pool_misses);
        // A restart re-arms the trace: the next non-pristine state is
        // pooled again (the pristine state itself rides the stash, which
        // outranks the pool inside one session).
        s.restart();
        s.click(ids.menu).unwrap();
        let _ = s.capture();
        assert_eq!(pool.len(), 2, "re-armed trace offers new states to the pool");
        assert!(s.capture_stats().pool_misses > 0);
    }

    #[test]
    fn late_load_instability_disables_pooling() {
        let (app, _) = image_app();
        let mut s = Session::with_instability(Box::new(app), InstabilityModel::new(5, 1.0, 0.0));
        let pool = CapturePool::shared();
        s.set_capture_pool(Some(Arc::clone(&pool)));
        s.restart();
        let _ = s.capture();
        assert!(pool.is_empty(), "late-load models are keyed on session clocks: never pooled");
        assert_eq!(s.capture_stats().pool_misses, 0, "the pool is not even probed");
    }

    #[test]
    fn partial_rebuild_splices_donor_index_for_clean_windows() {
        let (mut s, ids) = session();
        s.click(ids.dlg_open).unwrap();
        let first = s.capture();
        first.index().key_multimap(); // materialize the donor's index
        let donor_ix = first.snap().index_if_built().expect("materialized");
        // Dirty only the dialog window: the main window's node block is
        // copied forward and its index columns spliced.
        s.set_value(ids.dlg_edit, "Quarterly").unwrap();
        let second = s.capture();
        assert!(!second.is_cache_hit());
        let spliced = second.index();
        let main_end = second.windows()[1];
        for i in 0..main_end {
            assert!(
                std::ptr::eq(spliced.path(i).as_ptr(), donor_ix.path(i).as_ptr()),
                "node {i}: spliced path must alias the donor allocation"
            );
        }
        // The spliced index is indistinguishable from a from-scratch build.
        let fresh = dmi_uia::SnapIndex::build(second.snap());
        for (i, n) in second.iter() {
            assert_eq!(spliced.path(i), fresh.path(i), "node {i}");
            assert_eq!(spliced.key(i), fresh.key(i), "node {i}");
            assert_eq!(spliced.depth(i), fresh.depth(i), "node {i}");
            assert_eq!(spliced.index_of_runtime(n.runtime_id), Some(i));
            let cid = spliced.control_id(&second, i);
            assert_eq!(spliced.resolve(&second, &cid), fresh.resolve(&second, &cid), "node {i}");
        }
    }

    #[test]
    fn partial_reset_apps_never_serve_pristine_hits() {
        // TestApp's reset is partial (tree values persist), so it
        // correctly attests no pristine token and restarts always rebuild.
        let (mut s, _) = session();
        assert_eq!(s.app().pristine_token(), None);
        assert!(s.fork_from_pristine().is_none());
        s.restart();
        let a = s.capture();
        s.restart();
        let b = s.capture();
        assert!(!b.is_cache_hit());
        assert!(!Arc::ptr_eq(a.snap(), b.snap()));
        assert_eq!(s.capture_stats().pristine_hits, 0);
    }
}
