//! On-screen control labeling.
//!
//! Both the GUI baseline and DMI's interaction-related interfaces address
//! *currently visible* controls through short alphabetic labels ("A",
//! "HF"), assigned over the accessibility tree before each LLM call
//! (§5.1). Alphabetic labels are deliberately distinct from the numeric
//! ids of the navigation topology; interaction interfaces accept only
//! labels (§3.5).
//!
//! The full-tree and labeled-screen prompts share one line format
//! (`label: name(type) = 'value' [flag]`). Their token counts are taken
//! from the built text with [`crate::tokens::count`]; an agent counts
//! each at most once per capture through `interface::Observed`.

use dmi_uia::{ControlType, PatternSet, Rect, RuntimeId, Snapshot};

/// One labeled on-screen control.
#[derive(Debug, Clone, PartialEq)]
pub struct ScreenEntry {
    /// Alphabetic label ("A", "B", ..., "AA", ...).
    pub label: String,
    /// Runtime id in the snapshot.
    pub runtime: RuntimeId,
    /// Control name.
    pub name: String,
    /// Control type.
    pub control_type: ControlType,
    /// Value (edits, cells).
    pub value: String,
    /// Supported patterns.
    pub patterns: PatternSet,
    /// Whether the control is enabled.
    pub enabled: bool,
    /// Bounding rectangle (for coordinate-based imperative input).
    pub rect: Rect,
}

/// The labeled view of one snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LabeledScreen {
    /// Labeled entries in document order.
    pub entries: Vec<ScreenEntry>,
}

/// Converts an index to an alphabetic label (0 -> "A", 25 -> "Z",
/// 26 -> "AA").
pub fn alpha_label(mut i: usize) -> String {
    let mut s = String::new();
    loop {
        s.insert(0, (b'A' + (i % 26) as u8) as char);
        i /= 26;
        if i == 0 {
            break;
        }
        i -= 1;
    }
    s
}

/// Renders the *full* exposed accessibility tree as prompt text — the
/// baseline's observation (§5.1 registers a UIA event handler so apps
/// expose complete control trees, so every exposed control, on-screen or
/// not, lands in the prompt).
pub fn full_tree_prompt_text(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (i, node) in snap.iter() {
        let p = &node.props;
        let flag = if p.offscreen { " [offscreen]" } else { "" };
        push_line(&mut out, &alpha_label(i), &p.name, p.control_type, &p.value, flag);
    }
    out
}

/// Appends one prompt line: `label: name(type)`, then ` = 'value'` for a
/// non-empty value, then the flag.
fn push_line(
    out: &mut String,
    label: &str,
    name: &str,
    control_type: ControlType,
    value: &str,
    flag: &str,
) {
    for piece in [label, ": ", name, "(", control_type.as_str(), ")"] {
        out.push_str(piece);
    }
    if !value.is_empty() {
        for piece in [" = '", value, "'"] {
            out.push_str(piece);
        }
    }
    out.push_str(flag);
    out.push('\n');
}

/// Labels every on-screen (not off-screen) control in the snapshot.
pub fn label_screen(snap: &Snapshot) -> LabeledScreen {
    let mut entries = Vec::new();
    for (_, node) in snap.iter() {
        if node.props.offscreen {
            continue;
        }
        let label = alpha_label(entries.len());
        entries.push(ScreenEntry {
            label,
            runtime: node.runtime_id,
            name: node.props.name.clone(),
            control_type: node.props.control_type,
            value: node.props.value.clone(),
            patterns: node.props.patterns,
            enabled: node.props.enabled,
            rect: node.props.rect,
        });
    }
    LabeledScreen { entries }
}

impl LabeledScreen {
    /// Resolves a label to the control's runtime id.
    pub fn resolve(&self, label: &str) -> Option<&ScreenEntry> {
        self.entries.iter().find(|e| e.label == label)
    }

    /// Finds the first entry with the given name.
    pub fn find_by_name(&self, name: &str) -> Option<&ScreenEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Renders the labeled controls as prompt text (one line each).
    pub fn to_prompt_text(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let flag = if e.enabled { "" } else { " [disabled]" };
            push_line(&mut out, &e.label, &e.name, e.control_type, &e.value, flag);
        }
        out
    }

    /// Number of labeled controls.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the screen has no labeled controls.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmi_uia::ControlProps;

    #[test]
    fn alpha_labels_roll_over() {
        assert_eq!(alpha_label(0), "A");
        assert_eq!(alpha_label(25), "Z");
        assert_eq!(alpha_label(26), "AA");
        assert_eq!(alpha_label(27), "AB");
        assert_eq!(alpha_label(26 * 27 + 25), "AAZ");
    }

    #[test]
    fn offscreen_controls_are_not_labeled() {
        let mut s = Snapshot::new();
        let w = s.push(ControlProps::new("W", ControlType::Window), None, 0);
        s.push_window_root(w);
        s.push(ControlProps::new("Visible", ControlType::Button), Some(w), 0);
        let mut hidden = ControlProps::new("Hidden", ControlType::Button);
        hidden.offscreen = true;
        s.push(hidden, Some(w), 0);
        let screen = label_screen(&s);
        assert_eq!(screen.len(), 2); // window + visible button
        assert!(screen.find_by_name("Hidden").is_none());
    }

    #[test]
    fn prompt_text_carries_value_and_disabled() {
        let mut s = Snapshot::new();
        let w = s.push(ControlProps::new("W", ControlType::Window), None, 0);
        s.push_window_root(w);
        let mut e = ControlProps::new("Name Box", ControlType::Edit);
        e.value = "A1".into();
        s.push(e, Some(w), 0);
        let mut d = ControlProps::new("Paste", ControlType::Button);
        d.enabled = false;
        s.push(d, Some(w), 0);
        let text = label_screen(&s).to_prompt_text();
        assert_eq!(text, "A: W(Window)\nB: Name Box(Edit) = 'A1'\nC: Paste(Button) [disabled]\n");
        // The full tree flags off-screen controls instead of disabled ones.
        let mut off = ControlProps::new("Row 9", ControlType::Text);
        off.offscreen = true;
        s.push(off, Some(w), 0);
        assert_eq!(
            full_tree_prompt_text(&s),
            "A: W(Window)\nB: Name Box(Edit) = 'A1'\nC: Paste(Button)\nD: Row 9(Text) [offscreen]\n"
        );
    }

    #[test]
    fn resolve_round_trips() {
        let mut s = Snapshot::new();
        let w = s.push(ControlProps::new("W", ControlType::Window), None, 0);
        s.push_window_root(w);
        s.push(ControlProps::new("B", ControlType::Button), Some(w), 0);
        let screen = label_screen(&s);
        let entry = screen.find_by_name("B").unwrap();
        assert_eq!(screen.resolve(&entry.label).unwrap().name, "B");
        assert!(screen.resolve("ZZZ").is_none());
    }
}
