//! Click behaviors and command bindings.

use crate::widget::WidgetId;

/// A binding from a UI control to an application-semantic command.
///
/// The `command` string is interpreted by the owning [`crate::GuiApp`];
/// `arg` carries a static argument (e.g. the color of a palette cell).
/// Path-dependent semantics (the paper's merge-node hazard) arise when the
/// command's effect depends on application state that earlier navigation
/// established — e.g. a shared color grid whose target property was chosen
/// by the menu it was opened from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandBinding {
    /// Application command identifier.
    pub command: String,
    /// Optional static argument.
    pub arg: Option<String>,
}

impl CommandBinding {
    /// Creates a binding without an argument.
    pub fn new(command: impl Into<String>) -> Self {
        CommandBinding { command: command.into(), arg: None }
    }

    /// Creates a binding with an argument.
    pub fn with_arg(command: impl Into<String>, arg: impl Into<String>) -> Self {
        CommandBinding { command: command.into(), arg: Some(arg.into()) }
    }
}

/// How a window-closing control commits pending changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitKind {
    /// OK: apply pending edits, then close.
    Ok,
    /// Close: keep applied state, close.
    Close,
    /// Cancel: discard pending edits, close.
    Cancel,
}

/// What happens when a widget is clicked.
#[derive(Debug, Clone, PartialEq)]
pub enum Behavior {
    /// Inert control (labels, separators).
    None,
    /// Expand this popup container, revealing its children.
    OpenMenu,
    /// Select this tab item among its siblings, revealing its panel.
    SwitchTab,
    /// Open the dialog rooted at the given widget (modal).
    OpenDialog(WidgetId),
    /// Open a non-modal child window rooted at the given widget.
    OpenWindow(WidgetId),
    /// Close the containing window with the given commit semantics.
    CloseWindow(CommitKind),
    /// Run an application command.
    Command(CommandBinding),
    /// Run an application command, then close the containing popup chain.
    CommandAndDismiss(CommandBinding),
    /// SelectionItem select (list items, gallery cells that only select).
    Select,
    /// Toggle the widget's toggle state, then run an optional command.
    Toggle,
    /// Give the widget keyboard focus (edit fields).
    FocusEdit,
    /// Jump to an external application (paper §4.1: blocklist candidate,
    /// e.g. an "Account" button opening a web browser).
    OpenExternal,
    /// Enter a state that cannot be exited with Esc/Close (blocklist
    /// candidate).
    Trap,
}

impl Behavior {
    /// Whether this behavior reveals new controls (navigation edge source).
    pub fn is_navigational(&self) -> bool {
        matches!(
            self,
            Behavior::OpenMenu
                | Behavior::SwitchTab
                | Behavior::OpenDialog(_)
                | Behavior::OpenWindow(_)
        )
    }

    /// Whether this behavior should be blocklisted during ripping.
    pub fn is_rip_hazard(&self) -> bool {
        matches!(self, Behavior::OpenExternal | Behavior::Trap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn navigational_classification() {
        assert!(Behavior::OpenMenu.is_navigational());
        assert!(Behavior::SwitchTab.is_navigational());
        assert!(Behavior::OpenDialog(WidgetId(3)).is_navigational());
        assert!(!Behavior::Toggle.is_navigational());
        assert!(!Behavior::Command(CommandBinding::new("x")).is_navigational());
    }

    #[test]
    fn rip_hazards() {
        assert!(Behavior::OpenExternal.is_rip_hazard());
        assert!(Behavior::Trap.is_rip_hazard());
        assert!(!Behavior::OpenMenu.is_rip_hazard());
    }

    #[test]
    fn binding_constructors() {
        let b = CommandBinding::with_arg("set_color", "Blue");
        assert_eq!(b.command, "set_color");
        assert_eq!(b.arg.as_deref(), Some("Blue"));
        assert_eq!(CommandBinding::new("undo").arg, None);
    }
}
