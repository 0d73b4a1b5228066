//! The 34 UIA control patterns.
//!
//! A control advertises its interaction capabilities through a finite set of
//! control patterns (§2.2 Insight #3 of the paper). DMI's state and
//! observation declarations are built on top of these patterns (Table 2).

/// A UIA control pattern kind.
///
/// Mirrors the official `UIA_*PatternId` list (34 patterns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PatternKind {
    Annotation,
    CustomNavigation,
    Dock,
    Drag,
    DropTarget,
    ExpandCollapse,
    Grid,
    GridItem,
    Invoke,
    ItemContainer,
    LegacyIAccessible,
    MultipleView,
    ObjectModel,
    RangeValue,
    Scroll,
    ScrollItem,
    Selection,
    Selection2,
    SelectionItem,
    Spreadsheet,
    SpreadsheetItem,
    Styles,
    SynchronizedInput,
    Table,
    TableItem,
    Text,
    Text2,
    TextChild,
    TextEdit,
    TextRange,
    Toggle,
    Transform,
    Transform2,
    Value,
}

impl PatternKind {
    /// All 34 control patterns.
    pub const ALL: [PatternKind; 34] = [
        PatternKind::Annotation,
        PatternKind::CustomNavigation,
        PatternKind::Dock,
        PatternKind::Drag,
        PatternKind::DropTarget,
        PatternKind::ExpandCollapse,
        PatternKind::Grid,
        PatternKind::GridItem,
        PatternKind::Invoke,
        PatternKind::ItemContainer,
        PatternKind::LegacyIAccessible,
        PatternKind::MultipleView,
        PatternKind::ObjectModel,
        PatternKind::RangeValue,
        PatternKind::Scroll,
        PatternKind::ScrollItem,
        PatternKind::Selection,
        PatternKind::Selection2,
        PatternKind::SelectionItem,
        PatternKind::Spreadsheet,
        PatternKind::SpreadsheetItem,
        PatternKind::Styles,
        PatternKind::SynchronizedInput,
        PatternKind::Table,
        PatternKind::TableItem,
        PatternKind::Text,
        PatternKind::Text2,
        PatternKind::TextChild,
        PatternKind::TextEdit,
        PatternKind::TextRange,
        PatternKind::Toggle,
        PatternKind::Transform,
        PatternKind::Transform2,
        PatternKind::Value,
    ];

    /// The UIA-style pattern name (e.g. `"ScrollPattern"`).
    pub fn as_str(self) -> &'static str {
        match self {
            PatternKind::Annotation => "AnnotationPattern",
            PatternKind::CustomNavigation => "CustomNavigationPattern",
            PatternKind::Dock => "DockPattern",
            PatternKind::Drag => "DragPattern",
            PatternKind::DropTarget => "DropTargetPattern",
            PatternKind::ExpandCollapse => "ExpandCollapsePattern",
            PatternKind::Grid => "GridPattern",
            PatternKind::GridItem => "GridItemPattern",
            PatternKind::Invoke => "InvokePattern",
            PatternKind::ItemContainer => "ItemContainerPattern",
            PatternKind::LegacyIAccessible => "LegacyIAccessiblePattern",
            PatternKind::MultipleView => "MultipleViewPattern",
            PatternKind::ObjectModel => "ObjectModelPattern",
            PatternKind::RangeValue => "RangeValuePattern",
            PatternKind::Scroll => "ScrollPattern",
            PatternKind::ScrollItem => "ScrollItemPattern",
            PatternKind::Selection => "SelectionPattern",
            PatternKind::Selection2 => "Selection2Pattern",
            PatternKind::SelectionItem => "SelectionItemPattern",
            PatternKind::Spreadsheet => "SpreadsheetPattern",
            PatternKind::SpreadsheetItem => "SpreadsheetItemPattern",
            PatternKind::Styles => "StylesPattern",
            PatternKind::SynchronizedInput => "SynchronizedInputPattern",
            PatternKind::Table => "TablePattern",
            PatternKind::TableItem => "TableItemPattern",
            PatternKind::Text => "TextPattern",
            PatternKind::Text2 => "Text2Pattern",
            PatternKind::TextChild => "TextChildPattern",
            PatternKind::TextEdit => "TextEditPattern",
            PatternKind::TextRange => "TextRangePattern",
            PatternKind::Toggle => "TogglePattern",
            PatternKind::Transform => "TransformPattern",
            PatternKind::Transform2 => "Transform2Pattern",
            PatternKind::Value => "ValuePattern",
        }
    }

    /// Parses the name produced by [`PatternKind::as_str`].
    pub fn parse(s: &str) -> Option<PatternKind> {
        PatternKind::ALL.iter().copied().find(|p| p.as_str() == s)
    }

    /// Bit position used by [`PatternSet`].
    fn bit(self) -> u64 {
        1u64 << (self as u32)
    }
}

impl std::fmt::Display for PatternKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A compact set of control patterns supported by one control.
///
/// Stored as a bitset; with 34 patterns a `u64` suffices.
///
/// # Examples
///
/// ```
/// use dmi_uia::{PatternKind, PatternSet};
///
/// let set = PatternSet::new().with(PatternKind::Scroll).with(PatternKind::Value);
/// assert!(set.supports(PatternKind::Scroll));
/// assert!(!set.supports(PatternKind::Toggle));
/// assert_eq!(set.iter().count(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PatternSet(u64);

impl PatternSet {
    /// Creates an empty pattern set.
    pub fn new() -> Self {
        PatternSet(0)
    }

    /// Returns a copy of this set with `p` added (builder style).
    pub fn with(mut self, p: PatternKind) -> Self {
        self.insert(p);
        self
    }

    /// Adds a pattern to the set.
    pub fn insert(&mut self, p: PatternKind) {
        self.0 |= p.bit();
    }

    /// Removes a pattern from the set.
    pub fn remove(&mut self, p: PatternKind) {
        self.0 &= !p.bit();
    }

    /// Whether the control supports `p`.
    pub fn supports(&self, p: PatternKind) -> bool {
        self.0 & p.bit() != 0
    }

    /// Whether no pattern is supported.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates over the supported patterns in id order.
    pub fn iter(&self) -> impl Iterator<Item = PatternKind> + '_ {
        PatternKind::ALL.into_iter().filter(|p| self.supports(*p))
    }

    /// Default patterns for a control type, mirroring what common UIA
    /// providers expose (e.g. buttons expose `Invoke`, scrollbars expose
    /// `RangeValue`).
    pub fn defaults_for(ct: crate::ControlType) -> PatternSet {
        use crate::ControlType as C;
        use PatternKind as P;
        let mut s = PatternSet::new();
        match ct {
            C::Button | C::SplitButton | C::Hyperlink | C::MenuItem | C::AppBar => {
                s.insert(P::Invoke);
            }
            C::CheckBox => {
                s.insert(P::Toggle);
            }
            C::RadioButton | C::ListItem | C::TabItem | C::TreeItem => {
                s.insert(P::SelectionItem);
            }
            C::ComboBox => {
                s.insert(P::ExpandCollapse);
                s.insert(P::Value);
            }
            C::Edit => {
                s.insert(P::Value);
                s.insert(P::Text);
            }
            C::Document => {
                s.insert(P::Text);
                s.insert(P::Scroll);
            }
            C::List | C::Tree | C::DataGrid | C::Calendar => {
                s.insert(P::Selection);
                s.insert(P::Scroll);
            }
            C::DataItem => {
                s.insert(P::SelectionItem);
                s.insert(P::Value);
                s.insert(P::GridItem);
                s.insert(P::TableItem);
            }
            C::ScrollBar => {
                s.insert(P::RangeValue);
            }
            C::Slider | C::Spinner | C::ProgressBar => {
                s.insert(P::RangeValue);
            }
            C::Table => {
                s.insert(P::Grid);
                s.insert(P::Table);
            }
            C::Tab => {
                s.insert(P::Selection);
            }
            C::Window => {
                s.insert(P::Transform);
            }
            C::Menu | C::MenuBar => {
                s.insert(P::ExpandCollapse);
            }
            C::Text => {
                s.insert(P::Text);
            }
            _ => {}
        }
        s
    }
}

impl FromIterator<PatternKind> for PatternSet {
    fn from_iter<T: IntoIterator<Item = PatternKind>>(iter: T) -> Self {
        let mut s = PatternSet::new();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ControlType;

    #[test]
    fn all_has_34_distinct_patterns() {
        let set: std::collections::BTreeSet<_> = PatternKind::ALL.into_iter().collect();
        assert_eq!(set.len(), 34);
    }

    #[test]
    fn parse_round_trips() {
        for p in PatternKind::ALL {
            assert_eq!(PatternKind::parse(p.as_str()), Some(p));
        }
        assert_eq!(PatternKind::parse("FooPattern"), None);
    }

    #[test]
    fn set_insert_remove() {
        let mut s = PatternSet::new();
        assert!(s.is_empty());
        s.insert(PatternKind::Toggle);
        assert!(s.supports(PatternKind::Toggle));
        s.remove(PatternKind::Toggle);
        assert!(!s.supports(PatternKind::Toggle));
    }

    #[test]
    fn defaults_are_sensible() {
        assert!(PatternSet::defaults_for(ControlType::Button).supports(PatternKind::Invoke));
        assert!(PatternSet::defaults_for(ControlType::ScrollBar).supports(PatternKind::RangeValue));
        assert!(PatternSet::defaults_for(ControlType::Edit).supports(PatternKind::Value));
        assert!(PatternSet::defaults_for(ControlType::DataItem).supports(PatternKind::Value));
    }

    #[test]
    fn from_iterator_collects() {
        let s: PatternSet = [PatternKind::Text, PatternKind::Scroll].into_iter().collect();
        assert_eq!(s.iter().count(), 2);
    }

    #[test]
    fn bitset_is_order_independent() {
        let a = PatternSet::new().with(PatternKind::Text).with(PatternKind::Value);
        let b = PatternSet::new().with(PatternKind::Value).with(PatternKind::Text);
        assert_eq!(a, b);
    }
}
