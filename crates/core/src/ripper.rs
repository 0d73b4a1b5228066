//! GUI ripping: automated UNG construction by differential capture (§4.1).
//!
//! Exploration proceeds depth-first: capture the accessibility tree,
//! activate a candidate control (click), capture again; newly revealed
//! controls define navigation edges. New top-level or modal windows are
//! detected from the window list. A manual *blocklist* skips controls that
//! jump to external applications or trap the UI, and a *context manager*
//! re-explores under manually established contexts (e.g. "an image is
//! selected") to reach context-conditional controls.
//!
//! State restoration between branches prefers the paper's §4.1 fast
//! recovery: the ripper tracks how the current UI state was reached —
//! the tree's persistent-mutation epoch, the open-popup chain and window
//! stack depth, and whether any tab was switched — and presses Esc to
//! collapse transient windows and popups back to a launch-equivalent base
//! before clicking the next candidate's path forward. Only when Esc
//! provably cannot reach that base (trapped UI, tree-visible state
//! mutations, context passes) does it fall back to a full
//! [`Session::restart`] plus path replay. Pure document-model mutations
//! are invisible to the epoch — and to snapshots: the UNG only observes
//! the tree, and any later rendering of document state into widgets goes
//! through tree writes that do move the epoch. The resulting UNG is
//! byte-identical either way; the full-restart strategy stays available
//! behind [`RipConfig::esc_recovery`] as the equivalence oracle.
//!
//! # Sequential depth-first search
//!
//! One private `Ripper` owns the session, the recovery-planner state, and
//! the UNG under construction with its visited set and DFS stack. It pops
//! a candidate, establishes the candidate's prefix state, clicks it, diffs
//! the pre/post capture pair and attaches the revealed controls, in one
//! deterministic order. [`rip_fleet`] runs that sequential rip for many
//! applications at once, one entry per thread.

use crate::error::RipError;
use crate::graph::{Ung, UngNode, UngNodeId};
use dmi_gui::Session;
use dmi_uia::{ControlId, ControlIdSet, ControlKey, ControlProps, ControlType, Snapshot};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread;

/// A context the ripper establishes before a dedicated exploration pass
/// (§4.1 "Context-aware exploration"). The clicks encode app-specific
/// prior knowledge (e.g. select slide 2, then its image).
#[derive(Debug, Clone)]
pub struct ContextSetup {
    /// Context label (diagnostic only).
    pub name: String,
    /// Control names clicked, in order, to establish the context.
    pub clicks: Vec<String>,
}

/// Ripper configuration.
#[derive(Debug, Clone)]
pub struct RipConfig {
    /// Control types worth clicking during exploration.
    pub candidate_types: Vec<ControlType>,
    /// Control names / automation ids never clicked (external jumps,
    /// traps). Maintaining this list is most of the manual effort (§4.1).
    pub blocklist: Vec<String>,
    /// Maximum click-path depth.
    pub max_depth: usize,
    /// Optional cap on total candidate clicks (debug aid).
    pub max_clicks: Option<usize>,
    /// Context passes to run after the base pass.
    pub contexts: Vec<ContextSetup>,
    /// Prefer Esc-based fast state restoration between sibling candidates
    /// (§4.1) over full restart-replay. Off, every candidate restores
    /// state by restarting the application — the legacy strategy kept as
    /// the equivalence oracle: both settings produce byte-identical UNGs.
    pub esc_recovery: bool,
}

impl Default for RipConfig {
    fn default() -> Self {
        RipConfig {
            candidate_types: vec![
                ControlType::Button,
                ControlType::SplitButton,
                ControlType::MenuItem,
                ControlType::TabItem,
                ControlType::ComboBox,
                ControlType::ListItem,
                ControlType::Hyperlink,
            ],
            blocklist: vec![
                "Account".into(),
                "Feedback".into(),
                "Text to Columns".into(),
                "From Beginning".into(),
                "From Current Slide".into(),
            ],
            max_depth: 12,
            max_clicks: None,
            contexts: Vec::new(),
            esc_recovery: true,
        }
    }
}

impl RipConfig {
    /// The configuration used for the Office case studies, including the
    /// PowerPoint image context.
    pub fn office(app: &str) -> RipConfig {
        let mut c = RipConfig::default();
        if app == "PowerPoint" {
            c.contexts.push(ContextSetup {
                name: "image-selected".into(),
                clicks: vec!["Slide 2".into(), "image 2".into()],
            });
        }
        c
    }
}

/// Statistics from one rip.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RipStats {
    /// Candidate controls clicked.
    pub clicks: u64,
    /// Snapshots captured.
    pub snapshots: u64,
    /// Application restarts (state restoration fallback).
    pub restarts: u64,
    /// Candidates whose prefix state was restored by Esc instead of a
    /// restart (§4.1 fast recovery).
    pub esc_recoveries: u64,
    /// Esc presses spent collapsing transient windows and popups.
    pub esc_presses: u64,
    /// Candidates skipped by the blocklist.
    pub blocklisted: u64,
    /// Candidates skipped because replay failed.
    pub replay_failures: u64,
    /// New windows observed opening.
    pub windows_seen: u64,
}

/// An empty placeholder for the retired exploration journal. It records
/// nothing and the store does not persist it; it remains only because
/// the frozen benchmark (`dmibench/src/legacy.rs`) constructs it, and
/// goes with that benchmark's next change.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RipJournal;

impl RipJournal {
    /// The (always empty) journal.
    pub fn new() -> RipJournal {
        RipJournal
    }
}

/// One candidate awaiting exploration: the control, its fingerprint, and
/// the click path that reveals it.
#[derive(Debug, Clone)]
struct Candidate {
    cid: ControlId,
    key: ControlKey,
    path: Vec<ControlId>,
}

/// The depth-first ripper: one session, the §4.1 recovery planner, and
/// the UNG under construction. All graph mutation goes through
/// [`Ripper::attach`].
struct Ripper<'a> {
    session: &'a mut Session,
    config: &'a RipConfig,
    stats: RipStats,
    /// The tree's persistent-mutation epoch recorded at the last restart.
    /// While it holds, the only state accumulated since the restart is
    /// transient (windows, popups) or tab selection — exactly what Esc
    /// plus a forward replay can neutralize.
    base_epoch: u64,
    /// Whether any main-window tab was clicked since the last restart.
    /// Tab selection survives Esc; it self-heals only when the next
    /// forward click is itself a tab (selecting a tab deselects its
    /// siblings).
    tab_dirty: bool,
    /// Whether a tab *inside a dialog* was clicked since the last
    /// restart. Dialog-internal tab selection survives Esc-closing the
    /// dialog, and replaying a path re-opens the dialog without
    /// re-selecting its default tab — nothing heals it, so only a
    /// restart clears this.
    dialog_tab_dirty: bool,
    g: Ung,
    /// Controls already explored (or blocklisted), keyed by
    /// [`ControlKey`] with full-id confirmation — no per-probe string
    /// encoding or hashing.
    visited: ControlIdSet,
    /// DFS stack of candidates (top = next to explore).
    stack: Vec<Candidate>,
}

/// Rips an application into a UNG by depth-first differential capture
/// ([`rip_fleet`] runs this for many applications at once).
pub fn rip(session: &mut Session, config: &RipConfig) -> (Ung, RipStats) {
    let _rip_span = dmi_obs::span(dmi_obs::Cat::Rip, "rip.sequential", 0);
    let mut r = Ripper {
        session,
        config,
        stats: RipStats::default(),
        base_epoch: 0,
        tab_dirty: false,
        dialog_tab_dirty: false,
        g: Ung::new(),
        visited: ControlIdSet::new(),
        stack: Vec::new(),
    };
    // The base pass starts from launch state, each context pass from its
    // setup clicks. Controls a pass starts with attach under the virtual
    // root: they appeared because of the launch or the context, not a
    // modeled click.
    let no_setup: &[String] = &[];
    for setup in std::iter::once(no_setup).chain(config.contexts.iter().map(|c| &c.clicks[..])) {
        if r.replay(setup, &[]) {
            let snap = r.snapshot();
            let root = r.g.root();
            r.attach(&snap, 0..snap.len(), &[], root, true);
            r.drain(setup);
        }
    }
    (r.g, r.stats)
}

impl Ripper<'_> {
    fn snapshot(&mut self) -> Arc<Snapshot> {
        self.stats.snapshots += 1;
        dmi_obs::tally("rip.snapshots", 1);
        self.session.snapshot()
    }

    fn restart(&mut self) {
        self.stats.restarts += 1;
        dmi_obs::tally("rip.restarts", 1);
        self.session.restart();
        self.base_epoch = self.session.ui_state_epoch();
        self.tab_dirty = false;
        self.dialog_tab_dirty = false;
    }

    /// Clicks the control at `idx` in `snap`; false when the click fails.
    fn click(&mut self, snap: &Snapshot, idx: usize) -> bool {
        let wid = self.session.widget_of(snap.node(idx).runtime_id);
        self.session.click(wid).is_ok()
    }

    /// Clicks the modeled control `cid`, found at `idx` in `snap`, as a
    /// counted candidate click. A miss (`idx` is `None`) or a failed click
    /// is charged as a replay failure when `charge` is set. A successful
    /// tab click is recorded: main-window tabs are self-healing,
    /// dialog-internal tabs poison recovery until restart.
    fn click_modeled(
        &mut self,
        snap: &Snapshot,
        cid: &ControlId,
        idx: Option<usize>,
        charge: bool,
    ) -> bool {
        let clicked = idx.is_some_and(|idx| {
            self.stats.clicks += 1;
            dmi_obs::tally("rip.clicks", 1);
            self.click(snap, idx)
        });
        if !clicked {
            if charge {
                self.stats.replay_failures += 1;
                dmi_obs::tally("rip.replay_failures", 1);
            }
            return false;
        }
        if cid.control_type == ControlType::TabItem {
            if self.session.window_depth() > 1 {
                self.dialog_tab_dirty = true;
            } else {
                self.tab_dirty = true;
            }
        }
        true
    }

    /// Replays a click path from a fresh start; returns false on failure.
    fn replay(&mut self, setup: &[String], path: &[ControlId]) -> bool {
        self.restart();
        self.walk(setup, path, true)
    }

    /// Clicks the setup names and path controls forward from the current
    /// state. `count_failures` controls whether a miss is recorded in the
    /// stats — a failed Esc fast-recovery walk retries with a clean
    /// restart instead of charging a replay failure.
    fn walk(&mut self, setup: &[String], path: &[ControlId], count_failures: bool) -> bool {
        for name in setup {
            let snap = self.snapshot();
            match snap.find_by_name(name) {
                Some(idx) if self.click(&snap, idx) => {}
                _ => return false,
            }
        }
        for cid in path {
            let snap = self.snapshot();
            if !self.click_modeled(&snap, cid, snap.resolve(cid), count_failures) {
                return false;
            }
        }
        true
    }

    /// Whether the candidate's prefix state is reachable by Esc-based fast
    /// recovery from the current state — the §4.1 planner. Requires the
    /// base pass (context setups establish state Esc cannot re-create),
    /// an un-trapped UI, no persistent *tree-visible* mutation since the
    /// last restart (document-model state the tree never renders is
    /// outside the epoch, and outside what snapshots — hence the UNG —
    /// can observe), no surviving dialog-internal tab selection, and
    /// either untouched main-window tabs or a path that re-selects one
    /// first.
    fn can_recover(&self, setup: &[String], c: &Candidate) -> bool {
        if !self.config.esc_recovery || !setup.is_empty() || self.session.is_trapped() {
            return false;
        }
        if self.session.ui_state_epoch() != self.base_epoch || self.dialog_tab_dirty {
            return false;
        }
        if self.tab_dirty {
            // A path starting with a (main-window) tab deselects whatever
            // tab is stale; the first path click always happens with only
            // the main window open, so it can never be a dialog tab.
            let first = c.path.first().unwrap_or(&c.cid).control_type;
            return first == ControlType::TabItem;
        }
        true
    }

    /// Establishes the candidate's prefix state: launch state plus the
    /// clicks in its path. Prefers Esc-based fast restoration; falls back to
    /// a full restart + replay when the planner refuses or the fast walk
    /// diverges from the modeled path.
    fn establish(&mut self, setup: &[String], c: &Candidate) -> bool {
        if self.can_recover(setup, c) {
            let (at_base, presses) = self.session.escape_to_base();
            self.stats.esc_presses += presses;
            dmi_obs::tally("rip.esc_presses", presses);
            // A window closed by Esc runs its cancel handler; re-check
            // the epoch before trusting the collapsed state as base.
            if at_base
                && self.session.ui_state_epoch() == self.base_epoch
                && self.walk(setup, &c.path, false)
            {
                self.stats.esc_recoveries += 1;
                dmi_obs::tally("rip.esc_recoveries", 1);
                return true;
            }
        }
        self.replay(setup, &c.path)
    }

    /// Explores one candidate: establishes its prefix state, clicks it
    /// (recovering from stray modal windows with Esc), and returns the
    /// pre/post snapshot pair. `None` when the state could not be
    /// established or the click failed (counted as a replay failure).
    fn explore(
        &mut self,
        setup: &[String],
        c: &Candidate,
    ) -> Option<(Arc<Snapshot>, Arc<Snapshot>)> {
        if !self.establish(setup, c) {
            return None;
        }
        // A replayed path can leave a stray modal window above the
        // candidate (e.g. a picture-insert dialog whose side effect
        // revealed the candidate). Recover with Esc, like the paper's
        // standard-command state restoration.
        let mut pre = self.snapshot();
        let mut target = None;
        for _attempt in 0..3 {
            let Some(idx) = pre.resolve(&c.cid).filter(|&i| pre.node(i).props.enabled) else {
                break;
            };
            if pre.is_available(idx) {
                target = Some(idx);
                break;
            }
            if self.session.press("Esc").is_err() {
                break;
            }
            self.stats.esc_presses += 1;
            dmi_obs::tally("rip.esc_presses", 1);
            pre = self.snapshot();
        }
        if !self.click_modeled(&pre, &c.cid, target, true) {
            return None;
        }
        let post = self.snapshot();
        Some((pre, post))
    }

    /// Explores candidates until the stack is empty (or the click cap is
    /// reached), attaching what each click reveals under the clicked
    /// control.
    fn drain(&mut self, setup: &[String]) {
        while let Some(c) = self.stack.pop() {
            if !self.visited.insert(c.key, &c.cid) {
                continue;
            }
            if self.config.max_clicks.is_some_and(|cap| self.stats.clicks >= cap as u64) {
                return;
            }
            let Some((pre, post)) = self.explore(setup, &c) else {
                continue;
            };
            if post.windows().len() > pre.windows().len() {
                self.stats.windows_seen += 1;
                dmi_obs::tally("rip.windows_seen", 1);
            }
            let fresh = diff_fresh(&pre, &post);
            let clicked = self.g.find(&c.cid).expect("clicked control must already be a UNG node");
            let path = [&c.path[..], std::slice::from_ref(&c.cid)].concat();
            self.attach(&post, fresh, &path, clicked, false);
        }
    }

    /// Adds the controls at `nodes` (arena indices of `snap`, parents
    /// before children) to the UNG, each dedup-inserted through the
    /// [`ControlKey`] hash+confirm index. Each gains an edge from its
    /// snapshot parent when that parent was added too (deep hierarchy),
    /// else from `anchor`. Each is offered for exploration under the
    /// click path `path` — on a `seeding` pass always, otherwise only
    /// when the UNG did not hold it yet.
    fn attach(
        &mut self,
        snap: &Snapshot,
        nodes: impl IntoIterator<Item = usize>,
        path: &[ControlId],
        anchor: UngNodeId,
        seeding: bool,
    ) {
        let index = snap.index();
        let mut gids: Vec<Option<UngNodeId>> = vec![None; snap.len()];
        for idx in nodes {
            let node = snap.node(idx);
            let key = index.key(idx);
            let cid = index.control_id(snap, idx);
            if seeding || self.g.find_with_key(&cid, key).is_none() {
                self.enqueue(&cid, key, &node.props, path);
            }
            // `cid` is consumed by the UNG node — no per-node clone.
            let gid = self.g.add_node_with_key(
                UngNode {
                    control: cid,
                    name: node.props.name.clone(),
                    control_type: node.props.control_type,
                    help_text: node.props.help_text.clone(),
                },
                key,
            );
            gids[idx] = Some(gid);
            let src = node.parent.and_then(|p| gids[p]).unwrap_or(anchor);
            self.g.add_edge(src, gid);
        }
    }

    /// Pushes a candidate-typed, unvisited control onto the DFS stack
    /// unless the blocklist names it (then it is marked visited) or its
    /// path is already at the depth limit.
    fn enqueue(
        &mut self,
        cid: &ControlId,
        key: ControlKey,
        props: &ControlProps,
        path: &[ControlId],
    ) {
        if !self.config.candidate_types.contains(&props.control_type)
            || self.visited.contains(key, cid)
        {
            return;
        }
        let auto = &props.automation_id;
        if self.config.blocklist.iter().any(|b| *b == props.name || (!auto.is_empty() && b == auto))
        {
            self.visited.insert(key, cid);
            self.stats.blocklisted += 1;
            dmi_obs::tally("rip.blocklisted", 1);
            return;
        }
        if path.len() < self.config.max_depth {
            self.stack.push(Candidate { cid: cid.clone(), key, path: path.to_vec() });
        }
    }
}

/// The pure half of differential capture (§4.1): post-snapshot arena
/// indices of controls *available* after the click but not before.
/// Availability (not mere tree presence) is the right diff domain: a
/// modal dialog removes the main window's controls from the available
/// set, so its OK/Cancel buttons gain back-edges to the re-revealed
/// window — the cycles §3.2 decycles away.
///
/// The "present before?" test runs against the pre-snapshot's identity
/// index: each post node's [`ControlKey`] probes the pre key-multimap and
/// collision-confirms component-wise. Depends only on the two snapshots.
fn diff_fresh(pre: &Snapshot, post: &Snapshot) -> Vec<usize> {
    let pre_ix = pre.index();
    let post_ix = post.index();
    // One probe per post node follows: amortize the multimap.
    pre_ix.key_multimap();
    let mut fresh = Vec::new();
    for (idx, node) in post.iter() {
        if !post.is_available(idx) {
            continue;
        }
        let key = post_ix.key(idx);
        // Identical control available before the click? (Identity is
        // compared component-wise: primary id, type, cached path.)
        let existed_before = pre_ix.candidates(key).any(|i| {
            let pn = &pre.node(i).props;
            pre.is_available(i)
                && pn.control_type == node.props.control_type
                && pn.primary_id() == node.props.primary_id()
                && pre_ix.path(i) == post_ix.path(idx)
        });
        if !existed_before {
            fresh.push(idx);
        }
    }
    fresh
}

/// Options for [`rip_fleet`]. It has none: the fleet always runs at most
/// one rip thread per available CPU. The type stays because the
/// benchmark (`dmibench/src/office3.rs`) passes `ParRipConfig::default()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParRipConfig;

/// One application in a fleet rip: a session to rip, the configuration to
/// rip it under, and a caller-chosen id naming it in outcomes and panic
/// reports.
pub struct FleetEntry {
    /// Caller-chosen identifier (e.g. `"Word"`, `"Excel-v2"`).
    pub app_id: String,
    /// The session whose application is ripped.
    pub session: Session,
    /// The rip configuration for this entry.
    pub config: RipConfig,
}

impl FleetEntry {
    /// Convenience constructor.
    pub fn new(app_id: impl Into<String>, session: Session, config: RipConfig) -> FleetEntry {
        FleetEntry { app_id: app_id.into(), session, config }
    }
}

/// How one fleet entry's rip concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RipStatus {
    /// The sequential rip ran to completion.
    Ripped,
    /// Never constructed by [`rip_fleet`]: every entry either rips or
    /// fails. Kept because the benchmark (`dmibench/src/office3.rs`)
    /// matches on it.
    Degraded(RipError),
    /// The application panicked during the rip. The graph is empty and
    /// the error carries the panic payload; sibling entries are
    /// unaffected.
    Failed(RipError),
}

/// The result of ripping one fleet entry.
pub struct RipOutcome {
    /// The entry's `app_id`, echoed back.
    pub app_id: String,
    /// The entry's UNG, byte-identical to its sequential rip (empty for
    /// [`RipStatus::Failed`] entries).
    pub graph: Ung,
    /// The sequential rip's effort counters (zero for failed entries).
    pub stats: RipStats,
    /// Whether the rip completed or panicked.
    pub status: RipStatus,
}

impl RipOutcome {
    /// The contained fault, when one was detected.
    pub fn error(&self) -> Option<&RipError> {
        match &self.status {
            RipStatus::Degraded(e) | RipStatus::Failed(e) => Some(e),
            RipStatus::Ripped => None,
        }
    }
}

/// Rips every entry with the sequential [`rip`], returning one outcome per
/// entry in entry order. The paper builds each application's UNG on its
/// own (§4.1), so entries share nothing: they are pulled in input order
/// onto at most `min(entries, available_parallelism)` scoped threads, and
/// every outcome is byte-identical to the entry's sequential rip. Each rip
/// runs under `catch_unwind`: an application that panics mid-click fails
/// its own entry ([`RipStatus::Failed`], empty graph, payload preserved)
/// while its siblings finish normally.
pub fn rip_fleet(entries: &mut [FleetEntry], _config: &ParRipConfig) -> Vec<RipOutcome> {
    let _fleet_span = dmi_obs::span(dmi_obs::Cat::Rip, "rip.fleet", entries.len() as u64);
    let cpus = thread::available_parallelism().map_or(1, |n| n.get());
    let threads = cpus.min(entries.len());
    let mut outcomes: Vec<Option<RipOutcome>> = entries.iter().map(|_| None).collect();
    let queue = Mutex::new(entries.iter_mut().zip(outcomes.iter_mut()));
    thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // The guard drops at the end of this statement: rips never
                // run under the lock, so it cannot be poisoned.
                let next = queue.lock().expect("no rip runs under the lock").next();
                let Some((entry, slot)) = next else { break };
                *slot = Some(rip_entry(entry));
            });
        }
    });
    outcomes.into_iter().map(|o| o.expect("every entry was ripped")).collect()
}

/// Rips one entry, turning a panic into [`RipStatus::Failed`].
fn rip_entry(entry: &mut FleetEntry) -> RipOutcome {
    let app_id = entry.app_id.clone();
    match catch_unwind(AssertUnwindSafe(|| rip(&mut entry.session, &entry.config))) {
        Ok((graph, stats)) => RipOutcome { app_id, graph, stats, status: RipStatus::Ripped },
        Err(p) => {
            let payload = panic_payload(p.as_ref());
            let err = RipError::WorkerPanic { app_id: app_id.clone(), payload };
            RipOutcome {
                app_id,
                graph: Ung::new(),
                stats: RipStats::default(),
                status: RipStatus::Failed(err),
            }
        }
    }
}

/// Renders a `catch_unwind` payload as text (panic messages are `&str`
/// or `String`).
pub fn panic_payload(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        s.to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("non-string panic payload")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::small_rip;
    use dmi_apps::testkit::{PanickyApp, UnforkableApp};
    use dmi_apps::AppKind;

    fn rip_small(kind: AppKind) -> (Ung, RipStats) {
        let (g, stats, _) = small_rip(kind);
        (g.clone(), *stats)
    }

    #[test]
    fn word_rip_covers_ribbon_and_galleries() {
        let (g, stats) = rip_small(AppKind::Word);
        assert!(g.node_count() > 1500, "got {} nodes", g.node_count());
        assert!(stats.clicks > 500);
        // The Find & Replace dialog was discovered.
        assert!(g.ids().any(|i| g.node(i).name == "Find and Replace"));
        // Color cells discovered under menus.
        assert!(g.ids().any(|i| g.node(i).name == "Blue"));
    }

    #[test]
    fn word_rip_produces_merge_nodes_and_cycles() {
        let (mut g, _) = rip_small(AppKind::Word);
        assert!(!g.merge_nodes().is_empty(), "shared dialogs must appear as merge nodes");
        assert!(!crate::topology::is_acyclic(&g), "close buttons create cycles");
        let stats = crate::topology::decycle(&mut g);
        assert!(stats.back_edges_removed > 0);
    }

    #[test]
    fn blocklist_is_respected() {
        let (_, stats) = rip_small(AppKind::Word);
        assert!(stats.blocklisted >= 1, "Account/Feedback should be blocked");
    }

    #[test]
    fn no_external_jumps_or_traps_during_rip() {
        let mut s = Session::new(AppKind::Excel.launch_small());
        let cfg = RipConfig::office("Excel");
        let _ = rip(&mut s, &cfg);
        assert_eq!(s.external_jumps(), 0, "blocklist must prevent external jumps");
        assert!(!s.is_trapped());
    }

    #[test]
    fn powerpoint_context_pass_finds_picture_format() {
        let (g, _) = rip_small(AppKind::PowerPoint);
        assert!(
            g.ids().any(|i| g.node(i).name == "Picture Format"),
            "context exploration must reveal the Picture Format tab"
        );
        assert!(g.ids().any(|i| g.node(i).name == "Picture Quick Styles"));
    }

    #[test]
    fn excel_rip_reaches_nested_dialogs() {
        let (g, _) = rip_small(AppKind::Excel);
        // Conditional Formatting -> Highlight Cells Rules -> Greater Than.
        assert!(g.ids().any(|i| g.node(i).name == "Greater Than"));
        assert!(g.ids().any(|i| g.node(i).name == "Freeze Top Row"));
    }

    /// What a [`MiniApp`] is built with, for recovery-planner unit tests.
    #[derive(Clone, Copy, PartialEq)]
    enum MiniShape {
        /// A popup menu with three items: purely transient UI.
        MenuOnly,
        /// The menu plus a toggle button whose click persistently mutates
        /// widget + document state.
        WithToggle,
        /// The menu plus a modal dialog containing its own tab strip
        /// (like Excel's Format Cells): dialog-internal tab selection
        /// survives Esc and nothing heals it.
        WithDialogTabs,
    }

    struct MiniApp {
        tree: dmi_gui::UiTree,
        shape: MiniShape,
        toggled: u32,
    }

    impl MiniApp {
        fn new(shape: MiniShape) -> MiniApp {
            use dmi_gui::{Behavior, CommandBinding, CommitKind, Widget, WidgetBuilder};
            let mut t = dmi_gui::UiTree::new();
            let main = t.add_root(Widget::new("Mini", ControlType::Window));
            let menu = t.add(
                main,
                WidgetBuilder::new("Menu", ControlType::SplitButton)
                    .popup()
                    .on_click(Behavior::OpenMenu)
                    .build(),
            );
            for name in ["A", "B", "C"] {
                t.add(
                    menu,
                    WidgetBuilder::new(name, ControlType::ListItem)
                        .on_click(Behavior::CommandAndDismiss(CommandBinding::new("noop")))
                        .build(),
                );
            }
            if shape == MiniShape::WithToggle {
                t.add(
                    main,
                    WidgetBuilder::new("Mutate", ControlType::Button)
                        .toggle_state(false)
                        .on_click(Behavior::Toggle)
                        .binding(CommandBinding::new("mutate"))
                        .build(),
                );
            }
            if shape == MiniShape::WithDialogTabs {
                let dlg = t.add_root(Widget::new("Box", ControlType::Window));
                for (tab, item, selected) in [("T1", "B1", true), ("T2", "B2", false)] {
                    let mut b =
                        WidgetBuilder::new(tab, ControlType::TabItem).on_click(Behavior::SwitchTab);
                    if selected {
                        b = b.selected();
                    }
                    let tid = t.add(dlg, b.build());
                    t.add(
                        tid,
                        WidgetBuilder::new(item, ControlType::ListItem)
                            .on_click(Behavior::CommandAndDismiss(CommandBinding::new("noop")))
                            .build(),
                    );
                }
                t.add(
                    dlg,
                    WidgetBuilder::new("Shut", ControlType::Button)
                        .on_click(Behavior::CloseWindow(CommitKind::Cancel))
                        .build(),
                );
                t.add(
                    main,
                    WidgetBuilder::new("Open Box", ControlType::Button)
                        .on_click(Behavior::OpenDialog(dlg))
                        .build(),
                );
            }
            MiniApp { tree: t, shape, toggled: 0 }
        }
    }

    impl dmi_gui::GuiApp for MiniApp {
        fn tree(&self) -> &dmi_gui::UiTree {
            &self.tree
        }
        fn tree_mut(&mut self) -> &mut dmi_gui::UiTree {
            &mut self.tree
        }
        fn dispatch(
            &mut self,
            _src: dmi_gui::WidgetId,
            b: &dmi_gui::CommandBinding,
        ) -> Result<(), dmi_gui::AppError> {
            if b.command == "mutate" {
                self.toggled += 1; // A document mutation.
            }
            Ok(())
        }
        fn reset(&mut self) {
            *self = MiniApp::new(self.shape);
        }
    }

    #[test]
    fn esc_recovery_skips_restarts_for_transient_ui() {
        // Menus and their items only open/close popups: after the single
        // base-pass restart every sibling is reached by Esc recovery.
        let mut s = Session::new(Box::new(MiniApp::new(MiniShape::MenuOnly)));
        let (g, stats) = rip(&mut s, &RipConfig::default());
        assert_eq!(stats.restarts, 1, "only the base-pass restart");
        assert_eq!(stats.esc_recoveries, 4, "Menu + A, B, C recovered via Esc");
        assert!(g.ids().any(|i| g.node(i).name == "C"));
    }

    #[test]
    fn esc_recovery_refuses_after_document_mutating_click() {
        // The toggle click flips widget state (which is what moves the
        // epoch — the accompanying document mutation is tree-invisible
        // and detected only through its widget write): the planner must
        // refuse Esc recovery for the next candidate and fall back to a
        // full restart.
        let mut s = Session::new(Box::new(MiniApp::new(MiniShape::WithToggle)));
        let (_, stats) = rip(&mut s, &RipConfig::default());
        assert_eq!(stats.restarts, 2, "base-pass restart + post-mutation fallback");
        assert_eq!(stats.esc_recoveries, 4, "toggle + menu items still recover elsewhere");
    }

    #[test]
    fn esc_recovery_refuses_after_dialog_tab_click() {
        // Dialog-internal tab selection survives Esc-closing the dialog
        // and is not healed by replaying the path (the dialog reopens on
        // whatever tab was left selected), so any candidate explored
        // after a dialog tab click must fall back to a restart.
        let mut s = Session::new(Box::new(MiniApp::new(MiniShape::WithDialogTabs)));
        let (g_fast, fast) = rip(&mut s, &RipConfig::default());
        let legacy_cfg = RipConfig { esc_recovery: false, ..RipConfig::default() };
        let mut s2 = Session::new(Box::new(MiniApp::new(MiniShape::WithDialogTabs)));
        let (g_slow, slow) = rip(&mut s2, &legacy_cfg);
        assert_eq!(g_fast.node_count(), g_slow.node_count(), "UNG nodes match the oracle");
        assert_eq!(g_fast.edge_count(), g_slow.edge_count(), "UNG edges match the oracle");
        assert_eq!(fast.replay_failures, slow.replay_failures, "no stale-tab resolution misses");
        assert!(
            fast.restarts > 1,
            "candidates after a dialog tab click must restart (got {} restarts)",
            fast.restarts
        );
        assert!(fast.restarts < slow.restarts, "menu/dialog siblings still recover via Esc");
    }

    /// Regression pin for the three small Office rips: the FNV-1a digest
    /// of each serialized UNG and of the offline model built from it
    /// ([`crate::Dmi::to_json`]: forest plus description options), every
    /// [`RipStats`] field and the capture work (`Session::capture_stats`).
    /// A drift in any of them means the rip clicked, captured or committed
    /// differently, the capture layer served, copied or re-walked a
    /// different set of windows, or decycling and externalization built a
    /// different forest. Each rip's first capture is a full hit on the
    /// launch capture its session was seeded with.
    #[test]
    fn small_office_rips_are_pinned() {
        let fnv = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let pins = [
            (
                AppKind::Word,
                0xe227_a529_29a0_cff1,
                0x3e09_415e_78db_9829,
                RipStats {
                    clicks: 6558,
                    snapshots: 8870,
                    restarts: 10,
                    esc_recoveries: 2302,
                    esc_presses: 360,
                    blocklisted: 2,
                    replay_failures: 1,
                    windows_seen: 15,
                },
                [8870, 5757, 98, 3074],
            ),
            (
                AppKind::Excel,
                0x9a76_2abf_7506_56dd,
                0xf86d_7b58_e5b6_1059,
                RipStats {
                    clicks: 2725,
                    snapshots: 3802,
                    restarts: 38,
                    esc_recoveries: 1039,
                    esc_presses: 106,
                    blocklisted: 3,
                    replay_failures: 1,
                    windows_seen: 11,
                },
                [3802, 3071, 111, 710],
            ),
            (
                AppKind::PowerPoint,
                0x7c58_cea0_66a3_7700,
                0x6194_0546_96fd_09f6,
                RipStats {
                    clicks: 4959,
                    snapshots: 6961,
                    restarts: 130,
                    esc_recoveries: 1688,
                    esc_presses: 167,
                    blocklisted: 4,
                    replay_failures: 52,
                    windows_seen: 9,
                },
                [6961, 4407, 376, 2446],
            ),
        ];
        for (kind, digest, model_digest, stats, work) in pins {
            let (g, st, cs) = small_rip(kind);
            let bytes = serde_json::to_string(g).unwrap();
            assert_eq!(fnv(bytes.as_bytes()), digest, "{kind}: serialized UNG digest");
            let cfg = crate::DmiBuildConfig::office(kind.name());
            let model = crate::Dmi::from_ung(g.clone(), &cfg).0.to_json();
            assert_eq!(fnv(model.as_bytes()), model_digest, "{kind}: offline model digest");
            assert_eq!(*st, stats, "{kind}: rip stats");
            let got = [cs.captures, cs.full_hits, cs.windows_reused, cs.windows_rebuilt];
            assert_eq!(got, work, "{kind}: captures, full hits, windows reused, windows rebuilt");
        }
    }

    #[test]
    fn rip_is_deterministic() {
        let (g1, s1) = rip_small(AppKind::PowerPoint);
        let mut s = Session::new(AppKind::PowerPoint.launch_small());
        let (g2, s2) = rip(&mut s, &RipConfig::office("PowerPoint"));
        assert_eq!(g1.node_count(), g2.node_count());
        assert_eq!(g1.edge_count(), g2.edge_count());
        assert_eq!(s1, s2);
    }

    fn bytes(g: &Ung) -> String {
        serde_json::to_string(g).unwrap()
    }

    /// A small-app office3 fleet returns, in input order, exactly the
    /// sequential rips: the same UNG bytes and the same stats.
    #[test]
    fn office3_fleet_is_byte_identical_to_sequential_rips_in_order() {
        let mut entries: Vec<FleetEntry> = AppKind::ALL
            .iter()
            .map(|k| {
                FleetEntry::new(
                    k.name(),
                    Session::new(k.launch_small()),
                    RipConfig::office(k.name()),
                )
            })
            .collect();
        let out = rip_fleet(&mut entries, &ParRipConfig);
        assert_eq!(out.len(), 3);
        for (o, kind) in out.iter().zip(AppKind::ALL) {
            let (g_seq, st_seq, _) = small_rip(kind);
            assert_eq!(o.app_id, kind.name(), "outcomes come back in entry order");
            assert_eq!(o.status, RipStatus::Ripped);
            assert_eq!(bytes(&o.graph), bytes(g_seq), "{kind}: fleet UNG bytes");
            assert_eq!(&o.stats, st_seq, "{kind}: a fleet entry is the sequential rip");
        }
    }

    /// More entries than CPUs: threads keep pulling entries until none
    /// is left, and every outcome lands at its entry's position.
    #[test]
    fn fleet_wider_than_the_cpu_count_returns_every_outcome_in_order() {
        let cpus = thread::available_parallelism().map_or(1, |n| n.get());
        let n = cpus + 3;
        let mut entries: Vec<FleetEntry> = (0..n)
            .map(|i| {
                FleetEntry::new(
                    format!("app-{i}"),
                    Session::new(Box::new(UnforkableApp::new(i + 1))),
                    RipConfig::default(),
                )
            })
            .collect();
        let out = rip_fleet(&mut entries, &ParRipConfig);
        assert_eq!(out.len(), n);
        for (i, o) in out.iter().enumerate() {
            let mut s = Session::new(Box::new(UnforkableApp::new(i + 1)));
            let (g_seq, _) = rip(&mut s, &RipConfig::default());
            assert_eq!(o.app_id, format!("app-{i}"));
            assert_eq!(o.status, RipStatus::Ripped);
            assert_eq!(bytes(&o.graph), bytes(&g_seq), "entry {i}");
        }
        assert!(rip_fleet(&mut [], &ParRipConfig).is_empty());
    }

    /// A panicking entry fails alone: `Failed` with its payload and app
    /// id and an empty graph, while its sibling stays byte-identical to
    /// its sequential rip.
    #[test]
    fn panicking_entry_fails_alone_with_its_payload() {
        crate::fuzz::silence_injected_panics();
        let mut entries = vec![
            FleetEntry::new(
                "Panicky",
                Session::new(Box::new(PanickyApp::new(3, 2))),
                RipConfig::default(),
            ),
            FleetEntry::new(
                "Excel",
                Session::new(AppKind::Excel.launch_small()),
                RipConfig::office("Excel"),
            ),
        ];
        let out = rip_fleet(&mut entries, &ParRipConfig);

        assert_eq!(out[0].app_id, "Panicky");
        match &out[0].status {
            RipStatus::Failed(RipError::WorkerPanic { app_id, payload }) => {
                assert_eq!(app_id, "Panicky");
                assert!(payload.contains("injected fault"), "payload preserved, got: {payload}");
            }
            other => panic!("expected Failed(WorkerPanic), got {other:?}"),
        }
        assert_eq!(out[0].graph.node_count(), Ung::new().node_count(), "failed entries are empty");

        assert_eq!(out[1].app_id, "Excel");
        assert_eq!(out[1].status, RipStatus::Ripped, "the sibling is not dragged down");
        assert_eq!(bytes(&out[1].graph), bytes(&small_rip(AppKind::Excel).0));
    }
}
