//! Observation declarations (§3.5): structured information retrieval.
//!
//! `get_texts()` runs in two modes (§3.5 "Supporting precise perception by
//! default"):
//!
//! - **passive**: before each LLM call, all `DataItem` controls are read
//!   through Value/TextPattern, truncated, and coalesced (runs of empty
//!   cells collapse into a single marker) — this replaces pixel parsing
//!   and saves round trips;
//! - **active**: when the truncated view is insufficient, the LLM requests
//!   specific controls by label and receives full content.

use crate::error::{DmiError, DmiResult};
use crate::screen::LabeledScreen;
use dmi_gui::Session;
use dmi_uia::{ControlType, PatternKind, Snapshot};

/// One retrieved text item.
#[derive(Debug, Clone, PartialEq)]
pub struct TextItem {
    /// Control name (e.g. a cell reference like `"B7"`).
    pub name: String,
    /// Full or truncated content.
    pub text: String,
    /// Whether the text was truncated in this view.
    pub truncated: bool,
}

/// Options for the passive scan.
#[derive(Debug, Clone)]
pub struct PassiveConfig {
    /// Maximum characters per item in the passive view.
    pub max_chars: usize,
    /// Maximum non-empty items included (rest summarized).
    pub max_items: usize,
}

impl Default for PassiveConfig {
    fn default() -> Self {
        PassiveConfig { max_chars: 16, max_items: 200 }
    }
}

/// The passive `get_texts()` result forwarded into the prompt.
#[derive(Debug, Clone, PartialEq)]
pub struct PassiveTexts {
    /// Truncated non-empty items.
    pub items: Vec<TextItem>,
    /// Count of empty controls coalesced away.
    pub empty_coalesced: usize,
    /// Count of non-empty items beyond `max_items`.
    pub overflow: usize,
}

impl PassiveTexts {
    /// Renders for the prompt: one compact line per item plus coalescing
    /// markers.
    pub fn to_prompt_text(&self) -> String {
        let mut out = String::from("#data-items\n");
        for it in &self.items {
            out.push_str(&format!(
                "{}='{}'{}\n",
                it.name,
                it.text,
                if it.truncated { "…" } else { "" }
            ));
        }
        if self.empty_coalesced > 0 {
            out.push_str(&format!("({} empty items coalesced)\n", self.empty_coalesced));
        }
        if self.overflow > 0 {
            out.push_str(&format!("({} more items; use get_texts active mode)\n", self.overflow));
        }
        out
    }
}

/// Passive mode: scans every `DataItem` in the snapshot (on- or
/// off-screen — pattern reads do not require visibility).
pub fn get_texts_passive(snap: &Snapshot, cfg: &PassiveConfig) -> PassiveTexts {
    let mut items = Vec::new();
    let mut empty = 0usize;
    let mut overflow = 0usize;
    for (_, node) in snap.iter() {
        if node.props.control_type != ControlType::DataItem {
            continue;
        }
        let v = &node.props.value;
        if v.is_empty() {
            empty += 1;
            continue;
        }
        if items.len() >= cfg.max_items {
            overflow += 1;
            continue;
        }
        let truncated = v.chars().count() > cfg.max_chars;
        let text: String = v.chars().take(cfg.max_chars).collect();
        items.push(TextItem { name: node.props.name.clone(), text, truncated });
    }
    PassiveTexts { items, empty_coalesced: empty, overflow }
}

/// Active mode: full text of specific labeled controls (Value/Text
/// pattern required; no partial execution).
pub fn get_texts_active(
    session: &Session,
    screen: &LabeledScreen,
    labels: &[&str],
) -> DmiResult<Vec<TextItem>> {
    let mut resolved = Vec::with_capacity(labels.len());
    for l in labels {
        if l.chars().all(|c| c.is_ascii_digit()) && !l.is_empty() {
            return Err(DmiError::StaticIdProhibited { label: l.to_string() });
        }
        let e =
            screen.resolve(l).ok_or_else(|| DmiError::LabelNotFound { label: l.to_string() })?;
        if !e.patterns.supports(PatternKind::Value) && !e.patterns.supports(PatternKind::Text) {
            return Err(DmiError::PatternUnsupported {
                name: e.name.clone(),
                pattern: "TextPattern".into(),
            });
        }
        resolved.push(e);
    }
    Ok(resolved
        .into_iter()
        .map(|e| {
            let wid = session.widget_of(e.runtime);
            TextItem { name: e.name.clone(), text: session.get_text(wid), truncated: false }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::screen::label_screen;
    use dmi_apps::AppKind;
    use dmi_gui::GuiApp;
    use std::any::Any;

    #[test]
    fn passive_scan_coalesces_empties() {
        let mut s = Session::new(AppKind::Excel.launch_small());
        let snap = s.snapshot();
        let p = get_texts_passive(&snap, &PassiveConfig::default());
        // Seeded table: header + 8 data rows over 4 columns.
        assert!(p.items.iter().any(|i| i.name == "A1" && i.text == "Product"));
        assert!(p.empty_coalesced > 20, "blank cells coalesced: {}", p.empty_coalesced);
        let text = p.to_prompt_text();
        assert!(text.contains("empty items coalesced"));
    }

    #[test]
    fn passive_truncates_long_values() {
        let mut s = Session::new(AppKind::Excel.launch_small());
        {
            let app = (s.app_mut() as &mut dyn Any).downcast_mut::<dmi_apps::ExcelApp>().unwrap();
            let addr = dmi_apps::model::sheet::Addr::parse("A5").unwrap();
            app.sheet.set_value(addr, "a very long cell value that exceeds the cap");
            let wid = app.cell_widget(addr).unwrap();
            app.tree_mut().widget_mut(wid).value =
                "a very long cell value that exceeds the cap".into();
        }
        let snap = s.snapshot();
        let p = get_texts_passive(&snap, &PassiveConfig::default());
        let item = p.items.iter().find(|i| i.name == "A5").unwrap();
        assert!(item.truncated);
        assert_eq!(item.text.chars().count(), 16);
    }

    #[test]
    fn active_mode_returns_full_content() {
        let mut s = Session::new(AppKind::Excel.launch_small());
        {
            let app = (s.app_mut() as &mut dyn Any).downcast_mut::<dmi_apps::ExcelApp>().unwrap();
            let addr = dmi_apps::model::sheet::Addr::parse("A5").unwrap();
            let wid = app.cell_widget(addr).unwrap();
            app.tree_mut().widget_mut(wid).value = "full untruncated content here".into();
        }
        let snap = s.snapshot();
        let screen = label_screen(&snap);
        let label = screen.find_by_name("A5").unwrap().label.clone();
        let items = get_texts_active(&s, &screen, &[&label]).unwrap();
        assert_eq!(items[0].text, "full untruncated content here");
        assert!(!items[0].truncated);
    }

    #[test]
    fn active_mode_rejects_bad_labels_without_partial_reads() {
        let s_snap = {
            let mut s = Session::new(AppKind::Excel.launch_small());
            let snap = s.snapshot();
            (s, snap)
        };
        let (s, snap) = s_snap;
        let screen = label_screen(&snap);
        let good = screen.find_by_name("A1").unwrap().label.clone();
        let err = get_texts_active(&s, &screen, &[&good, "NOPE"]).unwrap_err();
        assert!(matches!(err, DmiError::LabelNotFound { .. }));
        let err = get_texts_active(&s, &screen, &["123"]).unwrap_err();
        assert!(matches!(err, DmiError::StaticIdProhibited { .. }));
    }

    #[test]
    fn max_items_overflow_is_reported() {
        let mut s = Session::new(AppKind::Excel.launch_small());
        let snap = s.snapshot();
        let p = get_texts_passive(&snap, &PassiveConfig { max_chars: 16, max_items: 3 });
        assert_eq!(p.items.len(), 3);
        assert!(p.overflow > 0);
        assert!(p.to_prompt_text().contains("more items"));
    }
}
