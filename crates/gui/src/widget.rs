//! Widgets: the provider-side control representation.

use crate::behavior::Behavior;
use dmi_uia::{ControlType, PatternSet, ToggleState};

/// Index of a widget in a [`crate::UiTree`] arena.
///
/// Stable for the lifetime of the application instance (widgets are never
/// removed from the arena, only hidden), so it doubles as the basis of the
/// snapshot [`dmi_uia::RuntimeId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WidgetId(pub usize);

impl std::fmt::Display for WidgetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// One control in the provider tree.
#[derive(Debug, Clone)]
pub struct Widget {
    /// UIA name.
    pub name: String,
    /// UIA automation id (possibly empty; not guaranteed unique).
    pub automation_id: String,
    /// Control type.
    pub control_type: ControlType,
    /// Help text / full description.
    pub help_text: String,
    /// Patterns the control supports.
    pub patterns: PatternSet,
    /// What a click does.
    pub on_click: Behavior,
    /// Parent in the arena.
    pub parent: Option<WidgetId>,
    /// Children in document order.
    pub children: Vec<WidgetId>,
    /// Whether the control is enabled.
    pub enabled: bool,
    /// Visibility flag: a hidden widget and its subtree are left out of
    /// every capture. Applications write it like any other property
    /// (PowerPoint's Picture Format tab shows only while an image is
    /// selected).
    pub visible: bool,
    /// Whether children are revealed only while `expanded` (popup
    /// containers: menus, split buttons, combo boxes).
    pub popup: bool,
    /// ExpandCollapse state.
    pub expanded: bool,
    /// SelectionItem state (tab items, list items).
    pub selected: bool,
    /// Toggle state.
    pub toggle: Option<ToggleState>,
    /// Value (edit fields, cells, name box).
    pub value: String,
    /// Vertical scroll position in percent (0..=100) for scrollable
    /// containers.
    pub scroll_pos: f64,
    /// Whether the widget is a scrollable viewport over its children.
    pub scrollable: bool,
    /// How many children are visible in the viewport at once (scrollable
    /// containers only).
    pub viewport_rows: usize,
    /// Whether the widget is a text-document surface supporting line and
    /// paragraph selection.
    pub text_surface: bool,
    /// Semantic command dispatched on toggle, edit commit (Enter), or
    /// item selection, independent of the click behavior.
    pub binding: Option<crate::behavior::CommandBinding>,
    /// For scrollbars: the scrollable container this scrollbar drives.
    pub scroll_target: Option<WidgetId>,
}

impl Widget {
    /// Creates a widget with type-default patterns and no behavior.
    pub fn new(name: impl Into<String>, control_type: ControlType) -> Self {
        Widget {
            name: name.into(),
            automation_id: String::new(),
            control_type,
            help_text: String::new(),
            patterns: PatternSet::defaults_for(control_type),
            on_click: Behavior::None,
            parent: None,
            children: Vec::new(),
            enabled: true,
            visible: true,
            popup: false,
            expanded: false,
            selected: false,
            toggle: None,
            value: String::new(),
            scroll_pos: 0.0,
            scrollable: false,
            viewport_rows: 0,
            text_surface: false,
            binding: None,
            scroll_target: None,
        }
    }

    /// The primary identifier (automation id, else name, else `[Unnamed]`).
    pub fn primary_id(&self) -> &str {
        if !self.automation_id.is_empty() {
            &self.automation_id
        } else if !self.name.is_empty() {
            &self.name
        } else {
            "[Unnamed]"
        }
    }
}

/// Fluent builder used by applications to declare widget subtrees.
///
/// # Examples
///
/// ```
/// use dmi_gui::{WidgetBuilder, Behavior};
/// use dmi_uia::ControlType;
///
/// let w = WidgetBuilder::new("Bold", ControlType::Button)
///     .automation_id("FontBold")
///     .help("Make your text bold.")
///     .on_click(Behavior::Toggle)
///     .build();
/// assert_eq!(w.primary_id(), "FontBold");
/// ```
#[derive(Debug, Clone)]
pub struct WidgetBuilder {
    w: Widget,
}

impl WidgetBuilder {
    /// Starts a builder for a named control.
    pub fn new(name: impl Into<String>, ct: ControlType) -> Self {
        WidgetBuilder { w: Widget::new(name, ct) }
    }

    /// Sets the automation id.
    pub fn automation_id(mut self, id: impl Into<String>) -> Self {
        self.w.automation_id = id.into();
        self
    }

    /// Sets the help text / description.
    pub fn help(mut self, h: impl Into<String>) -> Self {
        self.w.help_text = h.into();
        self
    }

    /// Sets the click behavior.
    pub fn on_click(mut self, b: Behavior) -> Self {
        self.w.on_click = b;
        self
    }

    /// Marks the widget as a popup container (children shown only while
    /// expanded).
    pub fn popup(mut self) -> Self {
        self.w.popup = true;
        self
    }

    /// Marks the widget disabled.
    pub fn disabled(mut self) -> Self {
        self.w.enabled = false;
        self
    }

    /// Sets the initial value.
    pub fn value(mut self, v: impl Into<String>) -> Self {
        self.w.value = v.into();
        self
    }

    /// Sets the toggle state (and implies the Toggle pattern).
    pub fn toggle_state(mut self, on: bool) -> Self {
        self.w.toggle = Some(if on { ToggleState::On } else { ToggleState::Off });
        self.w.patterns.insert(dmi_uia::PatternKind::Toggle);
        self
    }

    /// Marks the widget as initially selected.
    pub fn selected(mut self) -> Self {
        self.w.selected = true;
        self
    }

    /// Makes the widget a scrollable viewport showing `rows` children.
    pub fn scrollable(mut self, rows: usize) -> Self {
        self.w.scrollable = true;
        self.w.viewport_rows = rows.max(1);
        self.w.patterns.insert(dmi_uia::PatternKind::Scroll);
        self
    }

    /// Marks the widget as a text surface (documents).
    pub fn text_surface(mut self) -> Self {
        self.w.text_surface = true;
        self.w.patterns.insert(dmi_uia::PatternKind::Text);
        self
    }

    /// Adds a pattern.
    pub fn pattern(mut self, p: dmi_uia::PatternKind) -> Self {
        self.w.patterns.insert(p);
        self
    }

    /// Attaches a semantic command binding (dispatched on toggle, edit
    /// commit, or selection).
    pub fn binding(mut self, b: crate::behavior::CommandBinding) -> Self {
        self.w.binding = Some(b);
        self
    }

    /// For scrollbars: sets the scrollable container this scrollbar drives.
    pub fn scroll_target(mut self, t: WidgetId) -> Self {
        self.w.scroll_target = Some(t);
        self.w.patterns.insert(dmi_uia::PatternKind::RangeValue);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Widget {
        self.w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::Behavior;
    use dmi_uia::PatternKind;

    #[test]
    fn builder_sets_fields() {
        let w = WidgetBuilder::new("Font Color", ControlType::SplitButton)
            .automation_id("FontColorPicker")
            .help("Change the color of your text.")
            .popup()
            .on_click(Behavior::OpenMenu)
            .build();
        assert_eq!(w.name, "Font Color");
        assert_eq!(w.automation_id, "FontColorPicker");
        assert!(w.popup);
        assert!(matches!(w.on_click, Behavior::OpenMenu));
    }

    #[test]
    fn toggle_state_implies_pattern() {
        let w = WidgetBuilder::new("Bold", ControlType::Button).toggle_state(false).build();
        assert!(w.patterns.supports(PatternKind::Toggle));
        assert_eq!(w.toggle, Some(ToggleState::Off));
    }

    #[test]
    fn scrollable_implies_scroll_pattern() {
        let w = WidgetBuilder::new("Document", ControlType::Document).scrollable(20).build();
        assert!(w.patterns.supports(PatternKind::Scroll));
        assert_eq!(w.viewport_rows, 20);
    }

    #[test]
    fn primary_id_fallback() {
        let w = Widget::new("", ControlType::Pane);
        assert_eq!(w.primary_id(), "[Unnamed]");
    }
}
