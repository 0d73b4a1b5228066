//! Generative adversarial applications: random widget arenas behind the
//! [`GuiApp`] trait, with injectable determinism faults.

use dmi_gui::{
    AppError, Behavior, CommandBinding, CommitKind, GuiApp, UiTree, Widget, WidgetBuilder, WidgetId,
};
use dmi_uia::ControlType as CT;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Maximum scope-stack depth the arena builder honors; deeper push ops
/// degrade to plain buttons so arbitrary (and arbitrarily shrunk) op
/// sequences always build a rippable UI.
const MAX_DEPTH: usize = 4;

/// One arena-growing instruction. The builder keeps a scope stack
/// (current parent widget); push ops open a scope, [`ArenaOp::Pop`]
/// closes one. Every sequence of ops is valid — out-of-place ops degrade
/// rather than fail — which is what keeps delta-debugged subsequences
/// ([`super::shrink_ops`]) buildable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArenaOp {
    /// A command button (`Button {k}`) under the current scope.
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
    /// Closes the innermost open scope (no-op at the main window).
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
    /// Every reset leaks a counter into a widget name while *still
    /// attesting* the pristine token — the capture layer's restart
    /// stash serves stale bytes. Caught by the cached-vs-rebuild oracle.
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

    /// An FNV-1a fingerprint of the spec, used as the (possibly lying)
    /// pristine token.
    pub fn token(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in format!("{:?}", self).bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        h
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
                }
            }
        }
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
    t.add(
        parent,
        WidgetBuilder::new(format!("Button {k}"), CT::Button)
            .on_click(Behavior::Command(CommandBinding::new(format!("cmd-{k}"))))
            .build(),
    );
}

/// The widget faults mutate: the main window's first child (`None` for
/// an empty arena, where mutation faults have nothing to bite).
fn fault_target(t: &UiTree, main: WidgetId) -> Option<WidgetId> {
    t.iter().find(|(_, w)| w.parent == Some(main)).map(|(id, _)| id)
}

/// A generated application with optional injected determinism faults —
/// the fuzz harness's [`GuiApp`]. With an empty [`FaultPlan`] it is a
/// fully deterministic, forkable, honestly-attesting app.
pub struct AdversarialApp {
    spec: AppSpec,
    tree: UiTree,
    dispatches: u32,
    leak: u32,
    mangles: u32,
}

impl AdversarialApp {
    /// Builds the app in its launch state.
    pub fn new(spec: AppSpec) -> AdversarialApp {
        let tree = build(&spec, 0);
        AdversarialApp { spec, tree, dispatches: 0, leak: 0, mangles: 0 }
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

    fn dispatch(&mut self, _src: WidgetId, _b: &CommandBinding) -> Result<(), AppError> {
        self.dispatches += 1;
        if self.spec.faults.panic_on_click == Some(self.dispatches) {
            panic!("injected fault: dispatch #{} dies mid-click", self.dispatches);
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
        Some(Box::new(AdversarialApp::new(self.spec.clone())))
    }

    fn pristine_token(&self) -> Option<u64> {
        // Attested even under `lying_reset` — that attestation IS the lie
        // the cached-capture oracle exists to catch.
        Some(self.spec.token())
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
    fn clean_resets_restore_the_launch_image() {
        let spec = AppSpec::generate(7, 16);
        let mut app = AdversarialApp::new(spec.clone());
        let before = format!("{:?}", collect_names(app.tree()));
        app.reset();
        app.reset();
        assert_eq!(format!("{:?}", collect_names(app.tree())), before);
        assert_eq!(app.pristine_token(), Some(spec.token()));
    }

    #[test]
    fn lying_reset_leaks_but_keeps_attesting() {
        let faults = FaultPlan { lying_reset: true, ..FaultPlan::default() };
        let spec = AppSpec::new(vec![ArenaOp::Button(1), ArenaOp::Button(2)]).with_faults(faults);
        let mut app = AdversarialApp::new(spec.clone());
        let token = app.pristine_token();
        app.reset();
        assert!(
            collect_names(app.tree()).iter().any(|n| n.contains("#1")),
            "the leak must be visible in the real tree"
        );
        assert_eq!(app.pristine_token(), token, "the app keeps lying about pristineness");
    }

    fn collect_names(t: &UiTree) -> Vec<String> {
        t.iter().map(|(_, w)| w.name.clone()).collect()
    }
}
