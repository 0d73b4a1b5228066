//! The 41 UIA control types.
//!
//! Windows UI Automation defines a closed set of 41 control types; the
//! paper's Insight #3 (§2.2) relies on this finiteness to bound the
//! interaction-abstraction problem. The set below mirrors the official
//! `UIA_*ControlTypeId` list.

use serde::Serialize;

/// A UIA control type.
///
/// Every UI control exposed through the accessibility tree carries exactly
/// one control type. The variant order follows the UIA control type id
/// order; [`ControlType::ALL`] enumerates all 41.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum ControlType {
    AppBar,
    Button,
    Calendar,
    CheckBox,
    ComboBox,
    Custom,
    DataGrid,
    DataItem,
    Document,
    Edit,
    Group,
    Header,
    HeaderItem,
    Hyperlink,
    Image,
    List,
    ListItem,
    Menu,
    MenuBar,
    MenuItem,
    Pane,
    ProgressBar,
    RadioButton,
    ScrollBar,
    SemanticZoom,
    Separator,
    Slider,
    Spinner,
    SplitButton,
    StatusBar,
    Tab,
    TabItem,
    Table,
    Text,
    Thumb,
    TitleBar,
    ToolBar,
    ToolTip,
    Tree,
    TreeItem,
    Window,
}

impl ControlType {
    /// All 41 control types, in UIA id order.
    pub const ALL: [ControlType; 41] = [
        ControlType::AppBar,
        ControlType::Button,
        ControlType::Calendar,
        ControlType::CheckBox,
        ControlType::ComboBox,
        ControlType::Custom,
        ControlType::DataGrid,
        ControlType::DataItem,
        ControlType::Document,
        ControlType::Edit,
        ControlType::Group,
        ControlType::Header,
        ControlType::HeaderItem,
        ControlType::Hyperlink,
        ControlType::Image,
        ControlType::List,
        ControlType::ListItem,
        ControlType::Menu,
        ControlType::MenuBar,
        ControlType::MenuItem,
        ControlType::Pane,
        ControlType::ProgressBar,
        ControlType::RadioButton,
        ControlType::ScrollBar,
        ControlType::SemanticZoom,
        ControlType::Separator,
        ControlType::Slider,
        ControlType::Spinner,
        ControlType::SplitButton,
        ControlType::StatusBar,
        ControlType::Tab,
        ControlType::TabItem,
        ControlType::Table,
        ControlType::Text,
        ControlType::Thumb,
        ControlType::TitleBar,
        ControlType::ToolBar,
        ControlType::ToolTip,
        ControlType::Tree,
        ControlType::TreeItem,
        ControlType::Window,
    ];

    /// The short UIA-style name (e.g. `"TabItem"`), used in control
    /// identifiers and serialized topology descriptions.
    pub fn as_str(self) -> &'static str {
        match self {
            ControlType::AppBar => "AppBar",
            ControlType::Button => "Button",
            ControlType::Calendar => "Calendar",
            ControlType::CheckBox => "CheckBox",
            ControlType::ComboBox => "ComboBox",
            ControlType::Custom => "Custom",
            ControlType::DataGrid => "DataGrid",
            ControlType::DataItem => "DataItem",
            ControlType::Document => "Document",
            ControlType::Edit => "Edit",
            ControlType::Group => "Group",
            ControlType::Header => "Header",
            ControlType::HeaderItem => "HeaderItem",
            ControlType::Hyperlink => "Hyperlink",
            ControlType::Image => "Image",
            ControlType::List => "List",
            ControlType::ListItem => "ListItem",
            ControlType::Menu => "Menu",
            ControlType::MenuBar => "MenuBar",
            ControlType::MenuItem => "MenuItem",
            ControlType::Pane => "Pane",
            ControlType::ProgressBar => "ProgressBar",
            ControlType::RadioButton => "RadioButton",
            ControlType::ScrollBar => "ScrollBar",
            ControlType::SemanticZoom => "SemanticZoom",
            ControlType::Separator => "Separator",
            ControlType::Slider => "Slider",
            ControlType::Spinner => "Spinner",
            ControlType::SplitButton => "SplitButton",
            ControlType::StatusBar => "StatusBar",
            ControlType::Tab => "Tab",
            ControlType::TabItem => "TabItem",
            ControlType::Table => "Table",
            ControlType::Text => "Text",
            ControlType::Thumb => "Thumb",
            ControlType::TitleBar => "TitleBar",
            ControlType::ToolBar => "ToolBar",
            ControlType::ToolTip => "ToolTip",
            ControlType::Tree => "Tree",
            ControlType::TreeItem => "TreeItem",
            ControlType::Window => "Window",
        }
    }

    /// Parses the short UIA-style name produced by [`ControlType::as_str`].
    pub fn parse(s: &str) -> Option<ControlType> {
        ControlType::ALL.iter().copied().find(|c| c.as_str() == s)
    }

    /// Whether this is a "key type" for description purposes (§4.2).
    ///
    /// Key-type controls always carry their full description in the
    /// serialized topology because they organize functionality.
    pub fn is_key_type(self) -> bool {
        matches!(
            self,
            ControlType::Menu
                | ControlType::MenuBar
                | ControlType::MenuItem
                | ControlType::TabItem
                | ControlType::Tab
                | ControlType::ComboBox
                | ControlType::Group
                | ControlType::Button
                | ControlType::SplitButton
        )
    }
}

impl std::fmt::Display for ControlType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_has_41_distinct_types() {
        let mut set = std::collections::BTreeSet::new();
        for c in ControlType::ALL {
            set.insert(c);
        }
        assert_eq!(set.len(), 41);
    }

    #[test]
    fn parse_round_trips() {
        for c in ControlType::ALL {
            assert_eq!(ControlType::parse(c.as_str()), Some(c));
        }
        assert_eq!(ControlType::parse("NotAType"), None);
    }

    #[test]
    fn key_types_include_organizers() {
        assert!(ControlType::TabItem.is_key_type());
        assert!(ControlType::Menu.is_key_type());
        assert!(!ControlType::Text.is_key_type());
        assert!(!ControlType::DataItem.is_key_type());
    }

    #[test]
    fn display_matches_as_str() {
        assert_eq!(ControlType::SplitButton.to_string(), "SplitButton");
    }
}
