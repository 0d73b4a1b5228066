//! Test-support fixtures shared by downstream crates' test suites.
//!
//! Hidden from docs: these are not part of the simulation surface, just
//! reusable scaffolding so e.g. the fleet's unit tests and the
//! release-gated identity oracles exercise the same minimal apps instead
//! of carrying divergent copies.

use dmi_gui::{
    AppError, Behavior, CommandBinding, GuiApp, UiTree, Widget, WidgetBuilder, WidgetId,
};
use dmi_uia::ControlType as CT;

/// A minimal application with **no pristine fork** (`GuiApp::fork` stays
/// `None`): one window, one popup menu with `items` no-op entries. Fleet
/// tests use it to check that nothing on the rip path needs a fork.
pub struct UnforkableApp {
    tree: UiTree,
    items: usize,
}

impl UnforkableApp {
    /// Builds the app with `items` menu entries (`Item 0`, `Item 1`, …).
    pub fn new(items: usize) -> UnforkableApp {
        let mut t = UiTree::new();
        let main = t.add_root(Widget::new("Unforkable", CT::Window));
        let menu = t.add(
            main,
            WidgetBuilder::new("Menu", CT::SplitButton)
                .popup()
                .on_click(Behavior::OpenMenu)
                .build(),
        );
        for i in 0..items {
            t.add(
                menu,
                WidgetBuilder::new(format!("Item {i}"), CT::ListItem)
                    .on_click(Behavior::CommandAndDismiss(CommandBinding::new("noop")))
                    .build(),
            );
        }
        UnforkableApp { tree: t, items }
    }
}

impl GuiApp for UnforkableApp {
    fn tree(&self) -> &UiTree {
        &self.tree
    }
    fn tree_mut(&mut self) -> &mut UiTree {
        &mut self.tree
    }
    fn dispatch(&mut self, _src: WidgetId, _b: &CommandBinding) -> Result<(), AppError> {
        Ok(())
    }
    fn reset(&mut self) {
        *self = UnforkableApp::new(self.items);
    }
}

/// An application that **panics** on its nth dispatched command — an app
/// dying mid-click, for fault-containment tests. Resets keep the dispatch
/// count. Structure: one window, one popup menu with `items` command
/// entries.
pub struct PanickyApp {
    tree: UiTree,
    items: usize,
    panic_at: u32,
    dispatches: u32,
}

impl PanickyApp {
    /// Builds the app with `items` menu entries; it panics on dispatch
    /// number `panic_at` (1-based). `panic_at` larger than the rip's
    /// click count makes the app behave like a healthy fixture.
    pub fn new(items: usize, panic_at: u32) -> PanickyApp {
        let mut t = UiTree::new();
        let main = t.add_root(Widget::new("Panicky", CT::Window));
        let menu = t.add(
            main,
            WidgetBuilder::new("Menu", CT::SplitButton)
                .popup()
                .on_click(Behavior::OpenMenu)
                .build(),
        );
        for i in 0..items {
            t.add(
                menu,
                WidgetBuilder::new(format!("Item {i}"), CT::ListItem)
                    .on_click(Behavior::CommandAndDismiss(CommandBinding::new(format!("noop-{i}"))))
                    .build(),
            );
        }
        PanickyApp { tree: t, items, panic_at, dispatches: 0 }
    }
}

impl GuiApp for PanickyApp {
    fn tree(&self) -> &UiTree {
        &self.tree
    }
    fn tree_mut(&mut self) -> &mut UiTree {
        &mut self.tree
    }
    fn dispatch(&mut self, _src: WidgetId, _b: &CommandBinding) -> Result<(), AppError> {
        self.dispatches += 1;
        if self.dispatches == self.panic_at {
            panic!("injected fault: dispatch #{} dies mid-click", self.panic_at);
        }
        Ok(())
    }
    fn reset(&mut self) {
        let dispatches = self.dispatches;
        *self = PanickyApp::new(self.items, self.panic_at);
        self.dispatches = dispatches;
    }
    fn pristine_token(&self) -> Option<u64> {
        // The launch image really is restored by reset; panicking is a
        // crash fault, not a pristineness lie.
        Some(0x9a71_c355_0f2d_4b01 ^ self.items as u64 ^ ((self.panic_at as u64) << 32))
    }
}
