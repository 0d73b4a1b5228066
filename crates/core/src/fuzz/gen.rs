//! Generative adversarial applications: random widget arenas behind the
//! [`GuiApp`] trait, with injectable determinism faults.

use dmi_gui::{
    AppError, Behavior, CommandBinding, CommitKind, GuiApp, LaunchCaptures, UiTree, Widget,
    WidgetBuilder, WidgetId,
};
use dmi_uia::{ControlType as CT, ToggleState};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Maximum scope-stack depth the arena builder honors; deeper push ops
/// degrade to plain buttons so arbitrary (and arbitrarily shrunk) op
/// sequences always build a rippable UI.
const MAX_DEPTH: usize = 4;

/// Rows of the scrolled log ([`ArenaOp::Pop`]).
const LOG_ROWS: usize = 36;
/// Rows of the log its viewport shows: with the log's group and document
/// rows, the log alone fills the main window's 36 rows, so a popup that
/// opens or closes above it moves a block that wraps the window.
const LOG_VIEW: usize = 34;

/// One arena-growing instruction. The builder keeps a scope stack
/// (current parent widget); push ops open a scope, [`ArenaOp::Pop`]
/// closes one. Every sequence of ops is valid — out-of-place ops degrade
/// rather than fail — which is what keeps delta-debugged subsequences
/// ([`super::shrink_ops`]) buildable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArenaOp {
    /// A command button (`Button {k}`) under the current scope. Clicking
    /// it flips its own toggle state and shows it as its value (`on` or
    /// `off`): a stamped, snapshot-visible write confined to the button's
    /// block, so cached captures copy the rest of its window. A button
    /// whose `k` is 5 mod 6 is built disabled, so generated arenas carry
    /// a disabled control (and its prompt flag) without another op kind.
    Button(u16),
    /// A dismiss-on-pick list item (`Item {k}`) under the current scope.
    Item(u16),
    /// A popup menu (`Menu {k}`); pushes its scope.
    Menu(u16),
    /// A modal dialog (`Dialog {k}`) reachable through an opener button;
    /// pushes the dialog's scope. Only legal from the main window's
    /// scope chain (degrades to a button elsewhere). The dialog always
    /// gets a `Close {k}` cancel button so it stays escapable.
    Dialog(u16),
    /// A tab item (`Tab {k}`); pushes its scope. The first tab of each
    /// window starts selected.
    Tab(u16),
    /// Closes the innermost open scope. At the main window, which has no
    /// scope to close, it closes nothing; an arena with such a pop ends
    /// its main window with a scrolled log (a block with a scroll bar,
    /// off-screen rows and as many rows as the window shows).
    Pop,
}

impl ArenaOp {
    /// Decodes one raw `(kind, k)` pair — the shrink-friendly encoding
    /// property tests sample (`u8` kinds shrink toward `Button`).
    pub fn from_raw(kind: u8, k: u16) -> ArenaOp {
        match kind % 6 {
            0 => ArenaOp::Button(k),
            1 => ArenaOp::Item(k),
            2 => ArenaOp::Menu(k),
            3 => ArenaOp::Tab(k),
            4 => ArenaOp::Dialog(k),
            _ => ArenaOp::Pop,
        }
    }
}

/// Which determinism lies an [`AdversarialApp`] tells, and when. All
/// fields off is an honest, fully deterministic app — the property the
/// clean-spec identity fuzz relies on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Every reset leaks a counter into a widget name while the app *still
    /// offers* its launch image's table of launch captures. The leak is
    /// unstamped, so the rebuilt tree carries the image's stamps: every
    /// restart seeds the MRU cache with the table's launch capture, its
    /// keys match the leaked tree's, and the next probe serves its stale
    /// bytes. Caught by the cached-vs-rebuild oracle.
    pub lying_reset: bool,
    /// After this many dispatches, a widget is relabeled WITHOUT bumping
    /// epoch or window stamps — the MRU cache keeps serving the old
    /// bytes. Caught by the cached-vs-rebuild oracle.
    pub unstamped_relabel_after: Option<u32>,
    /// Cancel-closing a window (Esc or a cancel button) mutates the main
    /// window unstamped — "Esc lands in the wrong state". Caught by the
    /// Esc-recovery-vs-full-restart oracle.
    pub esc_side_effect: bool,
    /// Every instance panics on its nth dispatch — an application dying
    /// mid-click. Contained per entry by the fleet as
    /// [`crate::RipStatus::Failed`], and per task by the
    /// gateway.
    pub panic_on_click: Option<u32>,
}

impl FaultPlan {
    /// Whether any fault is armed.
    pub fn any(&self) -> bool {
        *self != FaultPlan::default()
    }
}

/// A generated application: the arena-growing ops plus the fault plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppSpec {
    /// Arena-growing instructions, applied in order.
    pub ops: Vec<ArenaOp>,
    /// The lies this app tells (none by default).
    pub faults: FaultPlan,
}

impl AppSpec {
    /// A clean (fault-free) spec from explicit ops.
    pub fn new(ops: Vec<ArenaOp>) -> AppSpec {
        AppSpec { ops, faults: FaultPlan::default() }
    }

    /// Decodes a spec from the raw pairs property tests sample.
    pub fn from_raw(raw: &[(u8, u16)]) -> AppSpec {
        AppSpec::new(raw.iter().map(|&(kind, k)| ArenaOp::from_raw(kind, k)).collect())
    }

    /// Deterministically generates a random clean spec (up to `max_ops`
    /// ops) — the seeded driver for the bulk identity fuzz runs.
    pub fn generate(seed: u64, max_ops: usize) -> AppSpec {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(1..max_ops.max(2));
        let ops = (0..n)
            .map(|_| {
                ArenaOp::from_raw(rng.gen_range(0..32u32) as u8, rng.gen_range(0..6u32) as u16)
            })
            .collect();
        AppSpec::new(ops)
    }

    /// Arms a fault plan on this spec.
    pub fn with_faults(mut self, faults: FaultPlan) -> AppSpec {
        self.faults = faults;
        self
    }
}

/// Builds the widget arena for a spec. `leak` > 0 appends the lying reset
/// counter to the fault target's name, through the unstamped relabel hook
/// — the tree is freshly built, so stamps carry no history to preserve.
fn build(spec: &AppSpec, leak: u32) -> UiTree {
    let mut t = UiTree::new();
    let main = t.add_root(Widget::new("Fuzz", CT::Window));
    // (parent to add under, root window of that scope)
    let mut stack: Vec<(WidgetId, WidgetId)> = vec![(main, main)];
    let mut tabbed: Vec<WidgetId> = Vec::new(); // windows with a selected tab
    let mut logged = false;
    for op in &spec.ops {
        let (parent, root) = *stack.last().expect("the main scope is never popped");
        match *op {
            ArenaOp::Button(k) => {
                add_button(&mut t, parent, k);
            }
            ArenaOp::Item(k) => {
                t.add(
                    parent,
                    WidgetBuilder::new(format!("Item {k}"), CT::ListItem)
                        .on_click(Behavior::CommandAndDismiss(CommandBinding::new(format!(
                            "pick-{k}"
                        ))))
                        .build(),
                );
            }
            ArenaOp::Menu(k) => {
                if stack.len() >= MAX_DEPTH {
                    add_button(&mut t, parent, k);
                } else {
                    let m = t.add(
                        parent,
                        WidgetBuilder::new(format!("Menu {k}"), CT::SplitButton)
                            .popup()
                            .on_click(Behavior::OpenMenu)
                            .build(),
                    );
                    stack.push((m, root));
                }
            }
            ArenaOp::Tab(k) => {
                if stack.len() >= MAX_DEPTH {
                    add_button(&mut t, parent, k);
                } else {
                    let mut b = WidgetBuilder::new(format!("Tab {k}"), CT::TabItem)
                        .on_click(Behavior::SwitchTab);
                    if !tabbed.contains(&root) {
                        tabbed.push(root);
                        b = b.selected();
                    }
                    let tid = t.add(parent, b.build());
                    stack.push((tid, root));
                }
            }
            ArenaOp::Dialog(k) => {
                if root != main || stack.len() >= MAX_DEPTH {
                    add_button(&mut t, parent, k);
                } else {
                    let dlg = t.add_root(Widget::new(format!("Dialog {k}"), CT::Window));
                    t.add(
                        dlg,
                        WidgetBuilder::new(format!("Close {k}"), CT::Button)
                            .on_click(Behavior::CloseWindow(CommitKind::Cancel))
                            .build(),
                    );
                    t.add(
                        parent,
                        WidgetBuilder::new(format!("Open Dialog {k}"), CT::Button)
                            .on_click(Behavior::OpenDialog(dlg))
                            .build(),
                    );
                    stack.push((dlg, dlg));
                }
            }
            ArenaOp::Pop => {
                if stack.len() > 1 {
                    stack.pop();
                } else {
                    logged = true;
                }
            }
        }
    }
    if logged {
        add_log(&mut t, main);
    }
    if let Some(target) = fault_target(&t, main) {
        if leak > 0 {
            let name = format!("{} #{leak}", t.widget(target).name);
            t.relabel_unstamped(target, name);
        }
    }
    t
}

fn add_button(t: &mut UiTree, parent: WidgetId, k: u16) {
    let mut b = WidgetBuilder::new(format!("Button {k}"), CT::Button)
        .on_click(Behavior::Command(CommandBinding::new(format!("cmd-{k}"))));
    if k % 6 == 5 {
        b = b.disabled();
    }
    t.add(parent, b.build());
}

/// Ends the main window with a scrolled log, one block of the window: a
/// group holding a document of [`LOG_ROWS`] text rows, whose viewport
/// leaves the last rows off-screen, and a scroll bar that drives it. It
/// gives the fuzz sweeps a scroll bar, off-screen rows and a wrapped
/// window, moved whenever a popup of the main window opens or closes,
/// without another op kind: every raw sequence decodes to the ops it
/// always did.
fn add_log(t: &mut UiTree, main: WidgetId) {
    let log = t.add(main, Widget::new("Log", CT::Group));
    let rows = WidgetBuilder::new("Log Rows", CT::Document).scrollable(LOG_VIEW).build();
    let doc = t.add(log, rows);
    for r in 0..LOG_ROWS {
        t.add(doc, Widget::new(format!("Row {r}"), CT::Text));
    }
    t.add(log, WidgetBuilder::new("Log Scroll", CT::ScrollBar).scroll_target(doc).build());
}

/// The widget faults mutate: the main window's first child (`None` for
/// an empty arena, where mutation faults have nothing to bite).
fn fault_target(t: &UiTree, main: WidgetId) -> Option<WidgetId> {
    t.iter().find(|(_, w)| w.parent == Some(main)).map(|(id, _)| id)
}

/// A generated application with optional injected determinism faults —
/// the fuzz harness's [`GuiApp`]. With an empty [`FaultPlan`] it is a
/// fully deterministic, forkable app whose launch-capture table is honest.
pub struct AdversarialApp {
    spec: AppSpec,
    tree: UiTree,
    /// The launch tree and its launch captures, shared with every fork.
    image: Arc<(UiTree, LaunchCaptures)>,
    dispatches: u32,
    leak: u32,
    mangles: u32,
}

impl AdversarialApp {
    /// Builds the app in its launch state, which becomes its image.
    pub fn new(spec: AppSpec) -> AdversarialApp {
        let tree = build(&spec, 0);
        let image = Arc::new((tree.clone(), LaunchCaptures::default()));
        AdversarialApp { spec, tree, image, dispatches: 0, leak: 0, mangles: 0 }
    }

    /// Convenience: a boxed launch-state instance.
    pub fn launch(spec: AppSpec) -> Box<dyn GuiApp> {
        Box::new(AdversarialApp::new(spec))
    }

    fn target(&self) -> Option<WidgetId> {
        fault_target(&self.tree, self.tree.main_root())
    }
}

impl GuiApp for AdversarialApp {
    fn tree(&self) -> &UiTree {
        &self.tree
    }

    fn tree_mut(&mut self) -> &mut UiTree {
        &mut self.tree
    }

    fn dispatch(&mut self, src: WidgetId, b: &CommandBinding) -> Result<(), AppError> {
        self.dispatches += 1;
        if self.spec.faults.panic_on_click == Some(self.dispatches) {
            panic!("injected fault: dispatch #{} dies mid-click", self.dispatches);
        }
        if b.command.starts_with("cmd-") {
            let w = self.tree.widget_mut(src);
            let on = w.toggle != Some(ToggleState::On);
            w.toggle = Some(if on { ToggleState::On } else { ToggleState::Off });
            w.value = String::from(if on { "on" } else { "off" });
        }
        if let Some(n) = self.spec.faults.unstamped_relabel_after {
            if self.dispatches == n {
                if let Some(id) = self.target() {
                    self.tree.relabel_unstamped(id, "stale control");
                }
            }
        }
        Ok(())
    }

    fn on_window_close(&mut self, _root: WidgetId, commit: CommitKind) -> Result<(), AppError> {
        if self.spec.faults.esc_side_effect && commit == CommitKind::Cancel {
            self.mangles += 1;
            if let Some(id) = self.target() {
                let name = format!("esc victim {}", self.mangles);
                self.tree.relabel_unstamped(id, name);
            }
        }
        Ok(())
    }

    fn reset(&mut self) {
        if self.spec.faults.lying_reset {
            self.leak += 1;
        }
        self.tree = build(&self.spec, self.leak);
        self.mangles = 0;
    }

    fn fork(&self) -> Option<Box<dyn GuiApp>> {
        Some(Box::new(AdversarialApp {
            spec: self.spec.clone(),
            tree: self.image.0.clone(),
            image: Arc::clone(&self.image),
            dispatches: 0,
            leak: 0,
            mangles: 0,
        }))
    }

    fn launch_captures(&self) -> Option<(&UiTree, &LaunchCaptures)> {
        // Offered even under `lying_reset` — that offer IS the lie the
        // cached-capture oracle exists to catch.
        Some((&self.image.0, &self.image.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_raw_sequence_builds_a_rippable_arena() {
        // Arbitrary (including degenerate) op sequences must build: the
        // shrinker relies on subsequence validity.
        for seed in 0..50u64 {
            let spec = AppSpec::generate(seed, 24);
            let app = AdversarialApp::new(spec.clone());
            assert!(!app.tree().is_empty());
            let mut popped = spec.clone();
            popped.ops.retain(|op| *op != ArenaOp::Pop);
            let _ = AdversarialApp::new(popped);
        }
    }

    #[test]
    fn a_pop_at_the_main_scope_ends_the_window_with_a_scrolled_log() {
        let main_children = |ops: Vec<ArenaOp>| {
            let app = AdversarialApp::new(AppSpec::new(ops));
            let t = app.tree();
            t.widget(t.main_root())
                .children
                .iter()
                .map(|&c| t.widget(c).name.clone())
                .collect::<Vec<_>>()
        };
        let popped = vec![ArenaOp::Menu(1), ArenaOp::Item(2), ArenaOp::Pop, ArenaOp::Button(3)];
        assert_eq!(main_children(popped), ["Menu 1", "Button 3"], "no scope-less pop, no log");
        let ops =
            vec![ArenaOp::Pop, ArenaOp::Menu(1), ArenaOp::Item(2), ArenaOp::Pop, ArenaOp::Pop];
        assert_eq!(main_children(ops.clone()), ["Menu 1", "Log"], "one log, at the end");
        let mut s = dmi_gui::Session::new(AdversarialApp::launch(AppSpec::new(ops)));
        let snap = s.snapshot();
        let rows = |off: bool| snap.iter().filter(|(_, n)| n.props.offscreen == off).count();
        assert_eq!(rows(true), LOG_ROWS - LOG_VIEW, "the viewport leaves rows off-screen");
        assert!(rows(false) > dmi_gui::layout::window_rows(0) as usize, "the rows wrap the window");
        assert!(snap.find_by_name("Log Scroll").is_some());
    }

    #[test]
    fn clean_resets_restore_the_launch_image() {
        let mut app = AdversarialApp::new(AppSpec::generate(7, 16));
        let before = format!("{:?}", collect_names(app.tree()));
        app.reset();
        app.reset();
        assert_eq!(format!("{:?}", collect_names(app.tree())), before);
        let (image, _) = app.launch_captures().expect("the app offers its launch image");
        assert_eq!(format!("{:?}", collect_names(image)), before);
    }

    #[test]
    fn lying_reset_leaks_but_keeps_attesting() {
        let faults = FaultPlan { lying_reset: true, ..FaultPlan::default() };
        let spec = AppSpec::new(vec![ArenaOp::Button(1), ArenaOp::Button(2)]).with_faults(faults);
        let mut app = AdversarialApp::new(spec);
        app.reset();
        assert!(
            collect_names(app.tree()).iter().any(|n| n.contains("#1")),
            "the leak must be visible in the real tree"
        );
        let (image, _) = app.launch_captures().expect("the app keeps offering its launch image");
        assert!(
            !collect_names(image).iter().any(|n| n.contains('#')),
            "the app keeps lying: the image it offers has no leak"
        );
    }

    fn collect_names(t: &UiTree) -> Vec<String> {
        t.iter().map(|(_, w)| w.name.clone()).collect()
    }
}
