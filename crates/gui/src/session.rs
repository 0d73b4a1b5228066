//! The interactive session: input events in, snapshots out.
//!
//! [`Session`] owns a boxed [`GuiApp`] and executes input the way an OS
//! input stack would: coordinate clicks resolve by hit testing, widget
//! clicks run the widget's [`Behavior`], modal windows swallow outside
//! input, popups dismiss when clicking elsewhere, keyboard input goes to
//! focus. It also exposes the UIA *pattern* operations (`set_value`,
//! `set_toggle`, `scroll_to`, ...) that real accessibility clients can call
//! directly — the foundation DMI's state/observation declarations build on.

use crate::behavior::{Behavior, CommandBinding, CommitKind};
use crate::instability::InstabilityModel;
use crate::layout;
use crate::snapshot::{self, CaptureCache, CapturePool, CaptureStats, LaunchCaptures};
use crate::tree::UiTree;
use crate::widget::WidgetId;
use dmi_uia::{ControlType, PatternKind, Rect, Snapshot, ToggleState};
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
/// every provider lives in its own process anyway. `Any` is a supertrait
/// so task verifiers can inspect concrete app models by upcasting:
/// `(s.app() as &dyn Any).downcast_ref::<WordApp>()`.
pub trait GuiApp: std::any::Any + Send {
    /// The provider-side control tree.
    fn tree(&self) -> &UiTree;

    /// Mutable access to the control tree. A plain accessor, with no
    /// side effect of its own: every [`Session::snapshot`] reveals late
    /// loads through it, and cached and full-rebuild sessions must see
    /// the same tree.
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
    /// the immutable launch image (no widget-tree reconstruction).
    /// Deterministic simulations make a fork equivalent to launching
    /// another copy of the same build, so the serving gateway gives every
    /// tenant task its own fork. The fork's tree is a
    /// clone of the image's, stamps included, so a session over it
    /// is served the image's launch capture on its first snapshot (see
    /// [`GuiApp::launch_captures`]). Returns `None` when the app keeps no
    /// shareable launch image (the default); the gateway refuses requests
    /// to such an app.
    fn fork(&self) -> Option<Box<dyn GuiApp>> {
        None
    }

    /// The launch image's tree and its table of launch captures, if — and
    /// only if — every [`GuiApp::reset`] leaves the app equal to that
    /// image (tree and document), the tree's stamps and epochs included:
    /// a reset is then a [`GuiApp::fork`] in place, and the table must
    /// live with the image. The table is the one source of capture reuse
    /// across a restart: a new cached session and every
    /// [`Session::restart`] seed the capture cache from it alike, so the
    /// first [`Session::snapshot`] of a fresh fork or a restarted app is
    /// an O(1) hit (see "Launch and restarts" in [`crate::snapshot`]).
    /// Apps whose reset is partial or stateful must return `None` (the
    /// default): their sessions rebuild after every restart.
    fn launch_captures(&self) -> Option<(&UiTree, &LaunchCaptures)> {
        None
    }
}

/// How [`Session::snapshot`] builds snapshots.
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

/// An interactive session over one application.
pub struct Session {
    app: Box<dyn GuiApp>,
    inst: InstabilityModel,
    /// Capture pipeline configuration.
    capture_cfg: CaptureConfig,
    /// Recent captures (see [`CaptureCache`]).
    cache: CaptureCache,
    /// Cache-effectiveness counters.
    capture_stats: CaptureStats,
    /// Snapshot counter: late-load schedules are due at a reading of it
    /// (`UiTree::reveal_loaded`).
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
}

impl Session {
    /// Starts a session with no instability.
    pub fn new(app: Box<dyn GuiApp>) -> Self {
        Session::with_instability(app, InstabilityModel::off())
    }

    /// Starts a session with the given instability model.
    ///
    /// When the app keeps a table of launch captures
    /// ([`GuiApp::launch_captures`]), the capture cache starts seeded
    /// with the image's capture under `inst`, built here on the first use
    /// of its name-variation model: a fresh fork's first
    /// [`Session::snapshot`] is then an O(1) hit on a shared capture,
    /// while a tree driven before it was wrapped misses as usual. A model
    /// that finds the table full (`LaunchCaptures::CAPACITY`) starts
    /// unseeded, as over an app without a table.
    pub fn with_instability(app: Box<dyn GuiApp>, inst: InstabilityModel) -> Self {
        Session::start(app, inst, CaptureConfig::default())
    }

    fn start(app: Box<dyn GuiApp>, inst: InstabilityModel, capture_cfg: CaptureConfig) -> Self {
        let mut s = Session {
            app,
            inst,
            capture_cfg,
            cache: CaptureCache::default(),
            capture_stats: CaptureStats::default(),
            query_seq: 0,
            action_seq: 0,
            restart_seq: 0,
            external_jumps: 0,
            trapped: false,
        };
        s.seed_launch_capture();
        s
    }

    /// Seeds the (empty) capture cache of a cached session from the app's
    /// launch-capture table, if it has one.
    fn seed_launch_capture(&mut self) {
        if self.capture_cfg.cached {
            self.cache.seed(self.app.launch_captures(), &self.inst);
        }
    }

    /// Forks a fresh worker session off the application's shared launch
    /// image (see [`GuiApp::fork`]): a launch-state app instance under
    /// `inst`, the same capture configuration, fresh counters, and
    /// a capture cache seeded as [`Session::with_instability`] seeds it.
    /// Deterministic simulations make the fork behaviorally equivalent to
    /// a [`Session::with_instability`] launch of the same build under
    /// `inst`, so forks can run independently — the serving gateway forks
    /// one per tenant task, under that tenant's model. `None` when the
    /// application does not support forking.
    pub fn fork_from_pristine(&self, inst: InstabilityModel) -> Option<Session> {
        Some(Session::start(self.app.fork()?, inst, self.capture_cfg))
    }

    /// Ignores its argument: [`CapturePool`] is an empty placeholder. It
    /// remains only because the frozen benchmark
    /// (`dmibench/src/legacy.rs`) calls it, and goes with that
    /// benchmark's next change.
    pub fn set_capture_pool(&mut self, _pool: Option<Arc<CapturePool>>) {}

    /// Always `None` (see [`Session::set_capture_pool`]); goes with the
    /// benchmark's next change.
    pub fn capture_pool(&self) -> Option<&Arc<CapturePool>> {
        None
    }

    /// Replaces the capture configuration: drops every cached capture,
    /// then seeds a cached session's cache from the app's launch captures
    /// as a new session's.
    pub fn set_capture_config(&mut self, cfg: CaptureConfig) {
        self.capture_cfg = cfg;
        self.cache.clear();
        self.seed_launch_capture();
    }

    /// The capture configuration in effect.
    pub fn capture_config(&self) -> CaptureConfig {
        self.capture_cfg
    }

    /// Capture-cache effectiveness counters.
    pub fn capture_stats(&self) -> CaptureStats {
        self.capture_stats
    }

    /// The application.
    pub fn app(&self) -> &dyn GuiApp {
        self.app.as_ref()
    }

    /// Mutable application access.
    pub fn app_mut(&mut self) -> &mut dyn GuiApp {
        self.app.as_mut()
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
    /// The query first reveals every late-loading container due at it
    /// (`UiTree::reveal_loaded`), a stamped tree write, so cached and
    /// full-rebuild sessions see the same tree; nothing after it reads
    /// the clock. The snapshot is shared: while the UI is unchanged since
    /// a recent capture — same per-window mutation stamps (reveals and
    /// visibility writes included), popup chain and window stack — the
    /// same [`Arc`] is returned in O(1), identity index included (counted in
    /// [`CaptureStats::full_hits`]). Otherwise the capture is rebuilt:
    /// every window is walked, and each clean block (a child of the
    /// window root with its descendants) is copied from a recent capture
    /// instead of walked. The image's launch capture,
    /// which a new session and a [`Session::restart`] are seeded with, is
    /// served through the same probe (see
    /// [`Session::with_instability`] and [`Session::restart`]).
    /// See [`CaptureConfig::full_rebuild`] for the eager oracle path;
    /// every path produces the same bytes.
    pub fn snapshot(&mut self) -> Arc<Snapshot> {
        self.query_seq += 1;
        self.app.tree_mut().reveal_loaded(self.query_seq);
        self.capture_stats.captures += 1;
        dmi_obs::tally("capture.captures", 1);
        if !self.capture_cfg.cached {
            return Arc::new(snapshot::build(self.app.tree(), &self.inst));
        }
        let keys = match snapshot::probe(self.app.tree(), &mut self.cache) {
            Ok(snap) => {
                self.capture_stats.full_hits += 1;
                dmi_obs::tally("capture.full_hits", 1);
                return snap;
            }
            Err(keys) => keys,
        };
        let _rebuild_span = dmi_obs::span(dmi_obs::Cat::Capture, "rebuild", 0);
        snapshot::rebuild(
            self.app.tree(),
            &self.inst,
            keys,
            &mut self.cache,
            &mut self.capture_stats,
        )
    }

    /// Maps a snapshot runtime id to the provider widget.
    pub fn widget_of(&self, rt: dmi_uia::RuntimeId) -> WidgetId {
        snapshot::widget_of(rt)
    }

    /// Resets the application and session UI state (like a restart), as
    /// the ripper does between exploration branches when recovery fails.
    /// Counted as a restart, not an input action.
    ///
    /// The reset rewinds the tree's stamps and epochs to its launch
    /// state's, so a capture taken before the restart could match a
    /// different state after it: every recent capture is dropped. The
    /// cache is then seeded as a new session's
    /// ([`Session::with_instability`]): an app whose reset is a fork in
    /// place ([`GuiApp::launch_captures`]) leaves its tree with the launch
    /// capture's keys, so the next [`Session::snapshot`] serves it in O(1)
    /// if the launch state still holds, or copies its clean blocks.
    pub fn restart(&mut self) {
        self.app.reset();
        self.app.tree_mut().reset_ui_state();
        self.trapped = false;
        self.restart_seq += 1;
        self.cache.clear();
        self.seed_launch_capture();
    }

    // ------------------------------------------------------------------
    // State-restoration support (§4.1 Esc-based fast recovery)
    // ------------------------------------------------------------------

    /// The tree's persistent-mutation epoch (see [`UiTree::state_epoch`]).
    /// Recovery planners record it at a known-base state; an unchanged
    /// reading later, with no [`Session::restart`] in between, proves no
    /// widget property, arena, selection, or focus change happened, so
    /// collapsing transient windows and popups with Esc restores that
    /// base exactly. A restart rewinds the epoch to the
    /// launch state's, so a planner records its base again after each
    /// one (the ripper's `base_epoch`).
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
        self.action_seq += 1;
        self.check_interactable(id)?;
        self.app.tree_mut().close_popups_not_containing(id);
        let behavior = self.app.tree().widget(id).on_click.clone();
        self.run_behavior(id, behavior)
    }

    /// Drags from one point to another (scrollbar manipulation, text
    /// selection on document surfaces).
    pub fn drag(&mut self, from: (i32, i32), to: (i32, i32)) -> Result<(), AppError> {
        self.action_seq += 1;
        if self.trapped {
            return Err(AppError::NotInteractable { reason: "UI trapped".into() });
        }
        let Some((hit, wi)) = self.hit_test(from.0, from.1) else {
            return Err(AppError::NotInteractable { reason: "drag source empty".into() });
        };
        // Walk up to the nearest draggable ancestor (a drag that starts on
        // a paragraph still drags the enclosing document surface).
        let mut src = hit;
        loop {
            let w = self.app.tree().widget(src);
            if w.text_surface || w.control_type == ControlType::ScrollBar {
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
        let t = self.app.tree();
        let w = t.widget(src);
        let scrollbar = w.control_type == ControlType::ScrollBar;
        let scroll_target = w.scroll_target;
        if !scrollbar && !w.text_surface {
            return Err(AppError::NotInteractable {
                reason: format!("'{}' is not draggable", w.name),
            });
        }
        // The track or surface rect, from the walk of the hit's window
        // (`src` is the hit or one of its ancestors).
        let mut rect = Rect::default();
        layout::walk_window(t, t.open_windows()[wi].root, wi, |p| {
            if p.id == src {
                rect = p.rect;
            }
            layout::Step::Descend
        });
        if scrollbar {
            let Some(target) = scroll_target else {
                return Err(AppError::NotInteractable { reason: "scrollbar has no target".into() });
            };
            let pct = layout::scrollbar_percent(rect, to.1);
            self.app.tree_mut().widget_mut(target).scroll_pos = pct;
            self.app.tree_mut().widget_mut(src).value = format!("{pct:.0}");
            return Ok(());
        }
        // Line-range selection by drag: row indices relative to the
        // surface's own rectangle (self-consistent with how callers
        // compute drag coordinates from the surface rect).
        let row_a = ((from.1 - rect.y) / layout::ROW_H).max(0) as usize;
        let row_b = ((to.1 - rect.y) / layout::ROW_H).max(0) as usize;
        let (a, b) = if row_a <= row_b { (row_a, row_b) } else { (row_b, row_a) };
        // Viewport-relative rows: the application resolves them against
        // its scroll position (absolute selection goes through
        // `select_lines`).
        let binding = CommandBinding::with_arg("ui.select_lines_viewport", format!("{a}..{b}"));
        self.app.dispatch(src, &binding)
    }

    // ------------------------------------------------------------------
    // Keyboard input
    // ------------------------------------------------------------------

    /// Types text into the focused edit control.
    pub fn type_text(&mut self, text: &str) -> Result<(), AppError> {
        self.action_seq += 1;
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
            // Typing the text already present changes nothing: skipping
            // the tree write keeps the window stamp and the state epoch
            // unmoved, so cached captures and Esc recovery stay valid.
            return Ok(());
        }
        self.app.tree_mut().widget_mut(f).value = text.to_string();
        Ok(())
    }

    /// Presses a key or key combination. `"Esc"` collapses the outermost
    /// popup or closes the top window, `"Enter"` commits the focused
    /// edit; any other key (e.g. `"Ctrl+B"`) is unbound and fails with
    /// [`AppError::NotInteractable`], still counted as an input action.
    pub fn press(&mut self, keys: &str) -> Result<(), AppError> {
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
                    let _ = self.app.on_window_close(root, CommitKind::Cancel);
                }
                Ok(())
            }
            "Enter" => self.commit_focused_edit(),
            other => Err(AppError::NotInteractable {
                reason: format!("no binding for shortcut '{other}'"),
            }),
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
                Ok(())
            }
            Behavior::SwitchTab => {
                self.app.tree_mut().select_tab(id);
                Ok(())
            }
            Behavior::OpenDialog(root) => {
                self.app.tree_mut().close_all_popups();
                self.app.tree_mut().open_window(root, true);
                self.maybe_delay_children(root);
                Ok(())
            }
            Behavior::OpenWindow(root) => {
                self.app.tree_mut().open_window(root, false);
                self.maybe_delay_children(root);
                Ok(())
            }
            Behavior::CloseWindow(commit) => {
                let t = self.app.tree_mut();
                if let Some(root) = t.close_top_window() {
                    self.app.on_window_close(root, commit)?;
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

    /// The deepest on-screen widget whose rect contains the point, and
    /// its window's stack position, preferring the topmost window; ties
    /// go to the later widget in walk order.
    fn hit_test(&self, x: i32, y: i32) -> Option<(WidgetId, usize)> {
        let t = self.app.tree();
        for (wi, win) in t.open_windows().iter().enumerate().rev() {
            let mut best: Option<(WidgetId, usize)> = None;
            layout::walk_window(t, win.root, wi, |p| {
                if !p.offscreen && p.rect.contains(x, y) && best.is_none_or(|(_, bd)| p.depth >= bd)
                {
                    best = Some((p.id, p.depth));
                }
                layout::Step::Descend
            });
            if let Some((id, _)) = best {
                return Some((id, wi));
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
    use std::any::Any;

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
    }

    /// Takes a snapshot and reports whether the cache served it (the
    /// `full_hits` counter advanced).
    fn capture(s: &mut Session) -> (Arc<Snapshot>, bool) {
        let hits = s.capture_stats().full_hits;
        let snap = s.snapshot();
        (snap, s.capture_stats().full_hits > hits)
    }

    fn session() -> (Session, TestIds) {
        let (app, ids) = build();
        (Session::new(Box::new(app)), ids)
    }

    fn counter(s: &Session) -> u32 {
        (s.app() as &dyn Any).downcast_ref::<TestApp>().unwrap().counter
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
        let app = (s.app() as &dyn Any).downcast_ref::<TestApp>().unwrap();
        assert_eq!(app.last_color, Some(("font".into(), "Blue".into())));
        // CommandAndDismiss closed the popup chain.
        assert!(s.app().tree().open_popups().is_empty());
    }

    #[test]
    fn merge_node_paths_have_distinct_semantics() {
        let (mut s, ids) = session();
        s.click(ids.outline_menu).unwrap();
        s.click(ids.blue_outline).unwrap();
        let app = (s.app() as &dyn Any).downcast_ref::<TestApp>().unwrap();
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
        let app = (s.app() as &dyn Any).downcast_ref::<TestApp>().unwrap();
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
        let r = snap.node(sb_idx).rect;
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
    fn set_toggle_requires_the_toggle_pattern() {
        let (mut s, ids) = session();
        assert!(s.set_toggle(ids.bump, true).is_err()); // No Toggle pattern.
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
        let epoch = s.ui_state_epoch();
        s.type_text("Report").unwrap();
        assert_eq!(s.ui_state_epoch(), epoch, "unchanged text must not write the tree");
        s.type_text("Report 2").unwrap();
        assert!(s.ui_state_epoch() > epoch, "a real change still writes");
    }

    #[test]
    fn unbound_shortcut_is_not_interactable() {
        let (mut s, _) = session();
        let before = s.action_count();
        match s.press("Ctrl+B") {
            Err(AppError::NotInteractable { reason }) => {
                assert!(reason.contains("Ctrl+B"), "reason names the key: {reason}")
            }
            other => panic!("expected NotInteractable, got {other:?}"),
        }
        assert_eq!(s.action_count(), before + 1, "a failed press is still an input action");
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
        let (base, base_hit) = capture(&mut s);
        assert!(!base_hit, "first capture is a cold build");
        s.click(ids.font_menu).unwrap();
        let (open, open_hit) = capture(&mut s);
        assert!(!open_hit, "popup open changes the visible tree");
        assert!(open.find_by_name("Blue").is_some());
        s.press("Esc").unwrap();
        let (back, back_hit) = capture(&mut s);
        assert!(back_hit, "popup close returns to the cached base");
        assert!(Arc::ptr_eq(&base, &back), "same shared snapshot, index included");
    }

    #[test]
    fn transient_dialog_open_close_returns_to_a_cache_hit() {
        let (mut s, ids) = session();
        let base = s.snapshot();
        s.click(ids.dlg_open).unwrap();
        let (dlg, dlg_hit) = capture(&mut s);
        assert!(!dlg_hit);
        assert_eq!(dlg.windows().len(), 2);
        s.press("Esc").unwrap();
        let (back, back_hit) = capture(&mut s);
        assert!(back_hit, "dialog close restores the cached base");
        assert!(Arc::ptr_eq(&base, &back));
        // Reopening also hits: the open-dialog state is still in the MRU.
        s.click(ids.dlg_open).unwrap();
        let (again, again_hit) = capture(&mut s);
        assert!(again_hit, "reopened dialog state is still cached");
        assert!(Arc::ptr_eq(&dlg, &again));
    }

    #[test]
    fn widget_write_invalidates_exactly_the_owning_window() {
        let (mut s, ids) = session();
        s.click(ids.dlg_open).unwrap();
        let _warm = s.snapshot();
        let before = s.capture_stats();
        // Write inside the dialog window only.
        s.set_value(ids.dlg_edit, "Quarterly").unwrap();
        let (snap, snap_hit) = capture(&mut s);
        assert!(!snap_hit);
        let after = s.capture_stats();
        assert_eq!(after.windows_rebuilt - before.windows_rebuilt, 2, "both roots walked");
        assert_eq!(after.blocks_reused - before.blocks_reused, 7, "main's 6 blocks and OK copied");
        assert_eq!(after.nodes_walked - before.nodes_walked, 3, "the roots and the edit walked");
        let edit = snap.find_by_name("Name").unwrap();
        assert_eq!(snap.node(edit).props.value, "Quarterly");
        // And the main window write invalidates only the main window.
        let before = s.capture_stats();
        s.press("Esc").unwrap(); // back to main only
        s.scroll_to(ids.doc, 40.0).unwrap();
        let _snap = s.snapshot();
        let after = s.capture_stats();
        assert_eq!(after.windows_rebuilt - before.windows_rebuilt, 1, "main re-walked");
    }

    #[test]
    fn a_drag_re_walks_only_the_blocks_it_stamps() {
        // Name variation on: copied blocks keep the varied names.
        let inst = InstabilityModel::new(3, 0.0, 0.5);
        let (app, ids) = build();
        let (app2, _) = build();
        let mut s = Session::with_instability(Box::new(app), inst.clone());
        let mut oracle = Session::with_instability(Box::new(app2), inst);
        oracle.set_capture_config(CaptureConfig::full_rebuild());
        let base = s.snapshot();
        assert_eq!(*base, *oracle.snapshot());
        let track = base.node(base.find_all(|n| n.props.control_type == CT::ScrollBar)[0]).rect;
        let (x, y) = track.center();
        let before = s.capture_stats();
        for session in [&mut s, &mut oracle] {
            session.drag((x, y), (x, track.y + track.h)).unwrap();
        }
        let snap = s.snapshot();
        assert_eq!(*snap, *oracle.snapshot(), "the partly copied capture matches the oracle");
        let after = s.capture_stats();
        assert_eq!(after.windows_rebuilt - before.windows_rebuilt, 1);
        assert_eq!(after.blocks_reused - before.blocks_reused, 4, "buttons and menus copied");
        let walked = 1 + (1 + 12) + 1; // the root, the document, the scrollbar
        assert_eq!(after.nodes_walked - before.nodes_walked, walked);
        assert_eq!(s.app().tree().widget(ids.doc).scroll_pos, 100.0);
        assert_eq!(snap.node(snap.find_by_name("Vertical").unwrap()).props.value, "100");
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
        let (lag, lag_hit) = capture(&mut s);
        assert!(!lag_hit);
        assert!(lag.find_by_name("Blue").is_none());
        assert_eq!(*lag, *oracle.snapshot(), "lagging capture matches oracle");
        let (revealed, revealed_hit) = capture(&mut s);
        assert!(!revealed_hit, "the reveal query must not be served from cache");
        assert!(revealed.find_by_name("Blue").is_some());
        assert_eq!(*revealed, *oracle.snapshot(), "reveal matches oracle");
        let (warm, warm_hit) = capture(&mut s);
        assert!(warm_hit, "post-reveal state is stable and cacheable");
        assert_eq!(*warm, *oracle.snapshot());
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
        let base = s.snapshot();
        s.click(ids.bump).unwrap();
        s.restart();
        let (fresh, fresh_hit) = capture(&mut s);
        assert!(!fresh_hit, "restart must invalidate the cache");
        assert!(!Arc::ptr_eq(&base, &fresh));
    }

    // ------------------------------------------------------------------
    // Pristine-image forks and restart-surviving capture reuse
    // ------------------------------------------------------------------

    /// A launch-image app in the `office::OfficeApp` mold: reset clones
    /// one fixed launch image, so it can fork and offer the image's table
    /// of launch captures.
    struct ImageApp {
        tree: UiTree,
        counter: u32,
        pristine: Arc<(UiTree, u32, LaunchCaptures)>,
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
        let pristine = Arc::new((t.clone(), 0, LaunchCaptures::default()));
        (ImageApp { tree: t, counter: 0, pristine }, ImageIds { bump, menu, label })
    }

    impl GuiApp for ImageApp {
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
            self.tree = self.pristine.0.clone();
            self.counter = self.pristine.1;
        }
        fn fork(&self) -> Option<Box<dyn GuiApp>> {
            let pristine = Arc::clone(&self.pristine);
            Some(Box::new(ImageApp { tree: pristine.0.clone(), counter: pristine.1, pristine }))
        }
        fn launch_captures(&self) -> Option<(&UiTree, &LaunchCaptures)> {
            Some((&self.pristine.0, &self.pristine.2))
        }
    }

    /// An image-app session paired with a full-rebuild oracle session
    /// over an identical app (same widget ids).
    fn image_pair() -> (Session, Session, ImageIds) {
        let (app, ids) = image_app();
        let mut oracle = Session::new(Box::new(image_app().0));
        oracle.set_capture_config(CaptureConfig::full_rebuild());
        (Session::new(Box::new(app)), oracle, ids)
    }

    /// Captures on both sessions, asserts identical bytes, and reports
    /// whether the cached side was a hit.
    fn capture_checked(s: &mut Session, oracle: &mut Session) -> (Arc<Snapshot>, bool) {
        let (snap, hit) = capture(s);
        assert_eq!(*snap, *oracle.snapshot(), "cached capture matches the full rebuild");
        (snap, hit)
    }

    #[test]
    fn restart_to_unchanged_pristine_image_is_a_snapshot_hit() {
        let (mut s, mut oracle, ids) = image_pair();
        s.restart();
        oracle.restart();
        // The restart adopts the table's launch capture.
        let (first, first_hit) = capture_checked(&mut s, &mut oracle);
        assert!(first_hit, "the first capture after a restart is the launch capture");
        s.click(ids.menu).unwrap();
        oracle.click(ids.menu).unwrap();
        assert!(!capture_checked(&mut s, &mut oracle).1);
        s.restart();
        oracle.restart();
        let (again, again_hit) = capture_checked(&mut s, &mut oracle);
        assert!(again_hit, "restart back to the launch image is O(1)");
        assert!(Arc::ptr_eq(&first, &again), "same launch capture");
    }

    #[test]
    fn adopted_launch_capture_seeds_partial_rebuilds_after_a_click() {
        let (mut s, mut oracle, ids) = image_pair();
        s.restart();
        oracle.restart();
        let (launch, _) = capture_checked(&mut s, &mut oracle);
        // The restart adopts the launch capture before any capture, so a
        // click straight after it still finds it in the MRU: opening the
        // popup misses, and collapsing it again returns to the launch
        // capture (structural popup keying).
        for sess in [&mut s, &mut oracle] {
            sess.restart();
            sess.click(ids.menu).unwrap();
        }
        let (open, open_hit) = capture_checked(&mut s, &mut oracle);
        assert!(!open_hit);
        assert!(open.find_by_name("Item").is_some());
        s.press("Esc").unwrap();
        oracle.press("Esc").unwrap();
        let (back, back_hit) = capture_checked(&mut s, &mut oracle);
        assert!(back_hit, "collapse returns to the adopted launch capture");
        assert!(Arc::ptr_eq(&launch, &back));
    }

    #[test]
    fn diverged_first_capture_is_never_adopted() {
        let (mut s, mut oracle, ids) = image_pair();
        // The first capture after this restart sees an open popup, not the
        // launch keys: it is a rebuild, and no restart adopts it.
        for sess in [&mut s, &mut oracle] {
            sess.restart();
            sess.click(ids.menu).unwrap();
        }
        let (diverged, diverged_hit) = capture_checked(&mut s, &mut oracle);
        assert!(!diverged_hit);
        for sess in [&mut s, &mut oracle] {
            sess.restart();
        }
        let (launch, launch_hit) = capture_checked(&mut s, &mut oracle);
        assert!(launch_hit, "the restart adopts the table's launch capture");
        assert!(!Arc::ptr_eq(&launch, &diverged));
        for sess in [&mut s, &mut oracle] {
            sess.restart();
        }
        let (again, again_hit) = capture_checked(&mut s, &mut oracle);
        assert!(again_hit, "every restart adopts the same launch capture");
        assert!(Arc::ptr_eq(&launch, &again));
    }

    #[test]
    fn adopted_launch_capture_misses_on_any_divergence() {
        let (mut s, mut oracle, ids) = image_pair();
        // An input action with no visible effect keeps every key: the
        // adopted launch capture is still exact.
        for sess in [&mut s, &mut oracle] {
            sess.restart();
            sess.click(ids.bump).unwrap();
        }
        assert!(capture_checked(&mut s, &mut oracle).1);
        // Direct tree mutation (no input action): the main-window stamp
        // moves, so the adopted launch capture no longer matches.
        for sess in [&mut s, &mut oracle] {
            sess.restart();
            sess.app_mut().tree_mut().widget_mut(ids.label).name.push('!');
        }
        let (diverged, diverged_hit) = capture_checked(&mut s, &mut oracle);
        assert!(!diverged_hit);
        assert!(diverged.find_by_name("Label!").is_some());
        // The oracle configuration never serves the launch capture.
        s.set_capture_config(CaptureConfig::full_rebuild());
        s.restart();
        s.restart();
        assert!(!capture(&mut s).1);
    }

    /// A restart rewinds the tree's stamps to the image's, so a write
    /// before it and a different write after it to the same block read
    /// the same tick. Only emptying the MRU at the restart keeps the
    /// capture of the first write from being served for the second.
    #[test]
    fn a_write_after_a_restart_is_never_served_the_capture_of_one_before() {
        let (mut s, mut oracle, ids) = image_pair();
        let main = s.app().tree().main_root();
        let write = |sess: &mut Session, name: &str| {
            sess.app_mut().tree_mut().widget_mut(ids.label).name = name.into();
        };
        for sess in [&mut s, &mut oracle] {
            write(sess, "Before");
        }
        let ticks = |s: &Session| {
            (s.app().tree().window_stamp(main), s.app().tree().block_stamp(ids.label))
        };
        let before = ticks(&s);
        let (first, _) = capture_checked(&mut s, &mut oracle);
        assert!(first.find_by_name("Before").is_some());
        for sess in [&mut s, &mut oracle] {
            sess.restart();
            write(sess, "After");
        }
        assert_eq!(ticks(&s), before, "the restart rewound the clock: the same tick again");
        let (after, hit) = capture_checked(&mut s, &mut oracle);
        assert!(!hit, "the capture of the write before the restart is gone");
        assert!(after.find_by_name("After").is_some() && after.find_by_name("Before").is_none());
    }

    #[test]
    fn launch_capture_is_shared_by_fresh_forks_only() {
        let (app, ids) = image_app();
        let donor = Session::new(Box::new(app));
        let mut oracle = Session::new(Box::new(image_app().0));
        oracle.set_capture_config(CaptureConfig::full_rebuild());
        let inst = InstabilityModel::off();
        let mut a = donor.fork_from_pristine(inst.clone()).expect("image app forks");
        let mut b = donor.fork_from_pristine(inst.clone()).expect("image app forks");
        let (first, first_hit) = capture_checked(&mut a, &mut oracle);
        assert!(first_hit, "a fresh fork's first capture is the launch capture");
        let (second, second_hit) = capture(&mut b);
        assert!(second_hit && Arc::ptr_eq(&first, &second), "forks share one launch capture");
        // A tree driven before it is wrapped keeps the image's lineage but
        // not its stamps: its first capture misses and walks the tree.
        let mut driven = donor.app().fork().expect("image app forks");
        driven.tree_mut().widget_mut(ids.label).name.push('!');
        oracle.app_mut().tree_mut().widget_mut(ids.label).name.push('!');
        let mut wrapped = Session::new(driven);
        let (snap, hit) = capture_checked(&mut wrapped, &mut oracle);
        assert!(!hit, "a driven tree is never served the launch capture");
        assert!(snap.find_by_name("Label!").is_some());
        // The full-rebuild configuration is never seeded.
        let mut eager = Session::new(donor.app().fork().expect("image app forks"));
        eager.set_capture_config(CaptureConfig::full_rebuild());
        assert!(!capture(&mut eager).1);
    }

    /// The launch capture shows the state a restart leaves the image in:
    /// forks of an image kept with its menu open show the open menu on
    /// their first capture, which therefore misses, and are served the
    /// launch capture only after a restart has closed it.
    #[test]
    fn launch_capture_is_the_state_a_restart_leaves() {
        let open_image = || {
            let (mut app, ids) = image_app();
            app.tree.open_popup(ids.menu);
            app.pristine = Arc::new((app.tree.clone(), 0, LaunchCaptures::default()));
            app
        };
        let mut s = Session::new(Box::new(open_image()));
        let mut oracle = Session::new(Box::new(open_image()));
        oracle.set_capture_config(CaptureConfig::full_rebuild());
        let (open, open_hit) = capture_checked(&mut s, &mut oracle);
        assert!(!open_hit && open.find_by_name("Item").is_some());
        s.restart();
        oracle.restart();
        let (closed, closed_hit) = capture_checked(&mut s, &mut oracle);
        assert!(closed_hit && closed.find_by_name("Item").is_none());
    }

    #[test]
    fn fork_from_pristine_is_an_independent_launch_state_session() {
        let (app, ids) = image_app();
        let mut s = Session::new(Box::new(app));
        s.click(ids.bump).unwrap();
        s.click(ids.menu).unwrap();
        let mut fork = s.fork_from_pristine(InstabilityModel::off()).expect("image app forks");
        // The fork is at launch state, unaffected by the parent's drift.
        assert_eq!((fork.app() as &dyn Any).downcast_ref::<ImageApp>().unwrap().counter, 0);
        assert_eq!(fork.popup_depth(), 0);
        assert_eq!(fork.action_count(), 0);
        // Same launch image: fork restarts adopt the parent's launch captures.
        let table = |s: &Session| s.app().launch_captures().map(|(_, t)| t as *const _);
        assert_eq!(table(&fork), table(&s));
        // Mutating the fork leaves the parent untouched (and vice versa).
        fork.click(ids.bump).unwrap();
        fork.click(ids.bump).unwrap();
        assert_eq!((fork.app() as &dyn Any).downcast_ref::<ImageApp>().unwrap().counter, 2);
        assert_eq!((s.app() as &dyn Any).downcast_ref::<ImageApp>().unwrap().counter, 1);
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

    #[test]
    fn fork_from_pristine_runs_under_the_given_instability() {
        let (app, ids) = image_app();
        let donor = Session::new(Box::new(app));
        let inst = InstabilityModel::new(5, 1.0, 0.0);
        let mut fork = donor.fork_from_pristine(inst.clone()).expect("image app forks");
        let mut fresh = Session::with_instability(Box::new(image_app().0), inst);
        fork.click(ids.menu).unwrap();
        fresh.click(ids.menu).unwrap();
        let lag = fork.snapshot();
        assert!(lag.find_by_name("Item").is_none(), "the fork's menu loads late");
        assert_eq!(*lag, *fresh.snapshot());
        assert_eq!(*fork.snapshot(), *fresh.snapshot());
    }

    // ------------------------------------------------------------------
    // Copied blocks
    // ------------------------------------------------------------------

    /// A partial rebuild walks the clean main window's root and copies
    /// every one of its blocks from the donor capture; every copied node
    /// keeps its identity, and the new snapshot's own index resolves it.
    #[test]
    fn partial_rebuild_keeps_clean_window_identities() {
        let (mut s, ids) = session();
        s.click(ids.dlg_open).unwrap();
        let first = s.snapshot();
        // Dirty only the dialog window.
        let before = s.capture_stats();
        s.set_value(ids.dlg_edit, "Quarterly").unwrap();
        let (second, second_hit) = capture(&mut s);
        assert!(!second_hit);
        let after = s.capture_stats();
        assert_eq!(after.blocks_reused - before.blocks_reused, 7, "main's 6 blocks and OK copied");
        assert_eq!(after.nodes_walked - before.nodes_walked, 3, "the roots and the edit walked");
        let main_end = second.windows()[1];
        assert_eq!(main_end, first.windows()[1]);
        for i in 0..main_end {
            let cid = first.control_id(i);
            assert_eq!(second.control_id(i), cid, "node {i}");
            assert_eq!(second.control_key(i), first.control_key(i), "node {i}");
            assert_eq!(second.node(i).runtime_id, first.node(i).runtime_id, "node {i}");
            let hit = second.resolve(&cid).expect("copied node resolves");
            assert_eq!(Some(hit), first.resolve(&cid), "node {i}");
        }
    }

    #[test]
    fn partial_reset_apps_never_serve_pristine_hits() {
        // TestApp's reset is partial (tree values persist), so it
        // correctly offers no launch captures and restarts always rebuild.
        let (mut s, _) = session();
        let mut oracle = Session::new(Box::new(build().0));
        oracle.set_capture_config(CaptureConfig::full_rebuild());
        assert!(s.app().launch_captures().is_none());
        assert!(s.fork_from_pristine(InstabilityModel::off()).is_none());
        s.restart();
        oracle.restart();
        let (a, _) = capture_checked(&mut s, &mut oracle);
        s.restart();
        oracle.restart();
        let (b, b_hit) = capture_checked(&mut s, &mut oracle);
        assert!(!b_hit);
        assert!(!Arc::ptr_eq(&a, &b));
    }
}
