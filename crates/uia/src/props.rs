//! Control property bags and geometry.

use crate::{ControlType, PatternSet};

/// A rectangle in virtual screen coordinates (pixels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rect {
    pub x: i32,
    pub y: i32,
    pub w: i32,
    pub h: i32,
}

impl Rect {
    /// Creates a rectangle from origin and size.
    pub fn new(x: i32, y: i32, w: i32, h: i32) -> Self {
        Rect { x, y, w, h }
    }

    /// The center point, used for simulated pointer input.
    pub fn center(&self) -> (i32, i32) {
        (self.x + self.w / 2, self.y + self.h / 2)
    }

    /// Whether the point lies inside the rectangle.
    pub fn contains(&self, px: i32, py: i32) -> bool {
        px >= self.x && px < self.x + self.w && py >= self.y && py < self.y + self.h
    }

    /// The intersection with another rectangle, or `None` if disjoint.
    pub fn intersect(&self, other: &Rect) -> Option<Rect> {
        let x1 = self.x.max(other.x);
        let y1 = self.y.max(other.y);
        let x2 = (self.x + self.w).min(other.x + other.w);
        let y2 = (self.y + self.h).min(other.y + other.h);
        if x2 > x1 && y2 > y1 {
            Some(Rect::new(x1, y1, x2 - x1, y2 - y1))
        } else {
            None
        }
    }

    /// Whether the rectangle has zero area.
    pub fn is_empty(&self) -> bool {
        self.w <= 0 || self.h <= 0
    }
}

/// Runtime identifier for a live control instance.
///
/// Like UIA runtime ids, these are unique within a snapshot but *not*
/// stable across application restarts or even across UI rebuilds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuntimeId(pub u64);

impl std::fmt::Display for RuntimeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rt:{}", self.0)
    }
}

/// Toggle state for `TogglePattern` controls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ToggleState {
    Off,
    On,
    Indeterminate,
}

/// The property bag exposed for one control, mirroring the UIA property
/// system.
///
/// Caveats faithfully reproduced from real UIA (and exploited by the
/// robustness tests): `automation_id` may be empty and is not guaranteed
/// globally unique; `name` may vary between snapshots (localization, state
/// suffixes); `help_text` is frequently missing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ControlProps {
    /// UIA `AutomationId`; possibly empty, not guaranteed unique.
    pub automation_id: String,
    /// UIA `Name`; human-readable label.
    pub name: String,
    /// Control type.
    pub control_type: ControlType,
    /// UIA `HelpText` / full description; often empty.
    pub help_text: String,
    /// Supported control patterns.
    pub patterns: PatternSet,
    /// Whether the control is enabled.
    pub enabled: bool,
    /// Whether the control is scrolled or clipped out of view.
    pub offscreen: bool,
    /// UIA `Value.Value` (edit/cell content) when the Value pattern exists.
    pub value: String,
    /// Toggle state when the Toggle pattern exists.
    pub toggle: Option<ToggleState>,
    /// Selected state when the SelectionItem pattern exists.
    pub selected: bool,
    /// Expanded state when the ExpandCollapse pattern exists.
    pub expanded: Option<bool>,
}

// `ControlProps::default` needs a default control type; Custom matches
// what providers report for unknown widgets.
#[allow(clippy::derivable_impls)]
impl Default for ControlType {
    fn default() -> Self {
        ControlType::Custom
    }
}

impl ControlProps {
    /// Creates a property bag with type defaults for patterns.
    pub fn new(name: impl Into<String>, control_type: ControlType) -> Self {
        ControlProps {
            automation_id: String::new(),
            name: name.into(),
            control_type,
            help_text: String::new(),
            patterns: PatternSet::defaults_for(control_type),
            enabled: true,
            offscreen: false,
            value: String::new(),
            toggle: None,
            selected: false,
            expanded: None,
        }
    }

    /// The primary identifier component (§4.1): `automation_id`, falling
    /// back to `name`, falling back to `"[Unnamed]"`.
    pub fn primary_id(&self) -> &str {
        if !self.automation_id.is_empty() {
            &self.automation_id
        } else if !self.name.is_empty() {
            &self.name
        } else {
            "[Unnamed]"
        }
    }

    /// Whether the control is interactable right now.
    pub fn is_actionable(&self) -> bool {
        self.enabled && !self.offscreen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_center_and_contains() {
        let r = Rect::new(10, 20, 100, 50);
        let (cx, cy) = r.center();
        assert!(r.contains(cx, cy));
        assert!(!r.contains(9, 20));
        assert!(!r.contains(110, 20));
    }

    #[test]
    fn rect_intersection() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 10, 10);
        assert_eq!(a.intersect(&b), Some(Rect::new(5, 5, 5, 5)));
        let c = Rect::new(20, 20, 5, 5);
        assert_eq!(a.intersect(&c), None);
    }

    #[test]
    fn primary_id_fallback_chain() {
        let mut p = ControlProps::new("Save", ControlType::Button);
        p.automation_id = "FileSave".into();
        assert_eq!(p.primary_id(), "FileSave");
        p.automation_id.clear();
        assert_eq!(p.primary_id(), "Save");
        p.name.clear();
        assert_eq!(p.primary_id(), "[Unnamed]");
    }

    #[test]
    fn new_assigns_default_patterns() {
        let p = ControlProps::new("OK", ControlType::Button);
        assert!(p.patterns.supports(crate::PatternKind::Invoke));
    }

    #[test]
    fn actionable_requires_enabled_and_onscreen() {
        let mut p = ControlProps::new("OK", ControlType::Button);
        assert!(p.is_actionable());
        p.enabled = false;
        assert!(!p.is_actionable());
        p.enabled = true;
        p.offscreen = true;
        assert!(!p.is_actionable());
    }
}
