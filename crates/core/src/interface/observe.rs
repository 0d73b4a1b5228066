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
//!
//! An agent observes through [`Observed`], which labels each capture's
//! screen and counts the prompts of it once per capture: the full-tree
//! and screen prompts summed per line, the passive prompt from its text.

use crate::error::DmiResult;
use crate::screen::{full_tree_prompt_tokens, label_screen, LabeledScreen};
use crate::tokens;
use dmi_gui::Session;
use dmi_uia::{ControlType, PatternKind, Snapshot};
use std::sync::Arc;

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

/// Maximum characters per item in the passive view.
const MAX_CHARS: usize = 16;

/// Maximum non-empty items in the passive view; the rest are counted as
/// overflow.
const MAX_ITEMS: usize = 200;

/// The passive `get_texts()` result forwarded into the prompt.
#[derive(Debug, Clone, PartialEq)]
pub struct PassiveTexts {
    /// Truncated non-empty items.
    pub items: Vec<TextItem>,
    /// Count of empty controls coalesced away.
    pub empty_coalesced: usize,
    /// Count of non-empty items beyond the passive view's 200.
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
/// off-screen — pattern reads do not require visibility), keeping the
/// first 200 non-empty items, each truncated to 16 characters.
pub fn get_texts_passive(snap: &Snapshot) -> PassiveTexts {
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
        if items.len() >= MAX_ITEMS {
            overflow += 1;
            continue;
        }
        let truncated = v.chars().count() > MAX_CHARS;
        let text: String = v.chars().take(MAX_CHARS).collect();
        items.push(TextItem { name: node.props.name.clone(), text, truncated });
    }
    PassiveTexts { items, empty_coalesced: empty, overflow }
}

/// Active mode: full text of specific labeled controls (Value/Text
/// pattern required; no partial execution).
pub fn get_texts_active(
    session: &Session,
    screen: &LabeledScreen,
    labels: &[impl AsRef<str>],
) -> DmiResult<Vec<TextItem>> {
    let nodes = labels
        .iter()
        .map(|l| screen.resolve_supporting(l.as_ref(), &[PatternKind::Text, PatternKind::Value]))
        .collect::<DmiResult<Vec<_>>>()?;
    Ok(nodes
        .into_iter()
        .map(|n| {
            let text = session.get_text(session.widget_of(n.runtime_id));
            TextItem { name: n.props.name.clone(), text, truncated: false }
        })
        .collect())
}

/// One observation per capture: the labeled screen of the last snapshot
/// an agent took, which holds that snapshot's `Arc`, and the token
/// counts of the prompts of it, each counted at most once.
///
/// [`Observed::capture`] always takes a snapshot, since every capture
/// advances the session's query clock, which late-load reveals read. It
/// labels the screen again only when the session returns a different
/// snapshot `Arc`: the screen's `Arc` keeps its allocation alive, so an
/// equal pointer is the same, immutable snapshot.
#[derive(Debug, Default)]
pub struct Observed {
    screen: Option<LabeledScreen>,
    full_tree_tokens: Option<usize>,
    screen_tokens: Option<usize>,
    passive_tokens: Option<usize>,
}

impl Observed {
    /// Takes a snapshot and returns its labeled screen.
    pub fn capture(&mut self, session: &mut Session) -> &LabeledScreen {
        let snap = session.snapshot();
        if !self.screen.as_ref().is_some_and(|held| Arc::ptr_eq(held.snapshot(), &snap)) {
            *self = Observed { screen: Some(label_screen(&snap)), ..Observed::default() };
        }
        self.screen()
    }

    /// The labeled screen of the last capture. Panics before the first.
    pub fn screen(&self) -> &LabeledScreen {
        self.screen.as_ref().expect("an observation follows a capture")
    }

    /// Tokens in the last capture's full-tree prompt
    /// ([`crate::screen::full_tree_prompt_text`]), summed per line
    /// ([`full_tree_prompt_tokens`]).
    pub fn full_tree_tokens(&mut self) -> usize {
        let n = self
            .full_tree_tokens
            .unwrap_or_else(|| full_tree_prompt_tokens(self.screen().snapshot()));
        *self.full_tree_tokens.insert(n)
    }

    /// Tokens in the last capture's labeled-screen prompt
    /// ([`LabeledScreen::to_prompt_text`]), summed per line
    /// ([`LabeledScreen::prompt_tokens`]).
    pub fn screen_tokens(&mut self) -> usize {
        let n = self.screen_tokens.unwrap_or_else(|| self.screen().prompt_tokens());
        *self.screen_tokens.insert(n)
    }

    /// Tokens in the last capture's passive `get_texts()` prompt.
    pub fn passive_tokens(&mut self) -> usize {
        let n = self.passive_tokens.unwrap_or_else(|| {
            tokens::count(&get_texts_passive(self.screen().snapshot()).to_prompt_text())
        });
        *self.passive_tokens.insert(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DmiError;
    use crate::screen::{alpha_label, full_tree_prompt_text};
    use dmi_apps::AppKind;
    use dmi_gui::GuiApp;
    use dmi_uia::ControlProps;
    use std::any::Any;

    #[test]
    fn passive_scan_coalesces_empties() {
        let mut s = Session::new(AppKind::Excel.launch_small());
        let snap = s.snapshot();
        let p = get_texts_passive(&snap);
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
        let p = get_texts_passive(&snap);
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
        let label = alpha_label(screen.find_by_name("A5").unwrap());
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
        let good = alpha_label(screen.find_by_name("A1").unwrap());
        let err = get_texts_active(&s, &screen, &[good.as_str(), "NOPE"]).unwrap_err();
        assert!(matches!(err, DmiError::LabelNotFound { .. }));
        let err = get_texts_active(&s, &screen, &["123"]).unwrap_err();
        assert!(matches!(err, DmiError::StaticIdProhibited { .. }));
    }

    /// The first shown widget whose click behavior `pred` accepts.
    fn first_shown(
        s: &Session,
        pred: impl Fn(&dmi_gui::Behavior) -> bool,
    ) -> Option<dmi_gui::WidgetId> {
        let tree = s.app().tree();
        tree.iter()
            .map(|(id, _)| id)
            .find(|&id| tree.is_shown(id) && pred(&tree.widget(id).on_click))
    }

    /// An observer kept across UI changes serves the count of each prompt
    /// text built from the current snapshot, never a stale one.
    #[test]
    fn observed_counts_equal_counted_prompt_texts() {
        use crate::tokens::count;
        use dmi_gui::Behavior;

        let (mut offscreen, mut disabled, mut truncated) = (false, false, false);
        for kind in AppKind::ALL {
            let mut s = Session::new(kind.launch_small());
            let mut observed = Observed::default();
            let mut before = String::new();
            for state in ["launch", "menu", "dialog", "cell value"] {
                match state {
                    "menu" => {
                        let menu = first_shown(&s, |b| matches!(b, Behavior::OpenMenu));
                        s.click(menu.expect("a shown menu")).unwrap();
                    }
                    "dialog" => {
                        let _ = s.press("Esc");
                        let is_dialog = |b: &Behavior| matches!(b, Behavior::OpenDialog(_));
                        // Switch ribbon tabs until one shows a dialog opener.
                        let tree = s.app().tree();
                        let tabs: Vec<_> = tree
                            .iter()
                            .map(|(id, _)| id)
                            .filter(|&id| {
                                tree.is_shown(id)
                                    && matches!(tree.widget(id).on_click, Behavior::SwitchTab)
                            })
                            .collect();
                        let mut tabs = tabs.into_iter();
                        while first_shown(&s, is_dialog).is_none() {
                            s.click(tabs.next().expect("a tab with a dialog opener")).unwrap();
                        }
                        s.click(first_shown(&s, is_dialog).unwrap()).unwrap();
                    }
                    "cell value" => {
                        let _ = s.press("Esc");
                        if let Some(app) =
                            (s.app_mut() as &mut dyn Any).downcast_mut::<dmi_apps::ExcelApp>()
                        {
                            let wid = app
                                .cell_widget(dmi_apps::model::sheet::Addr::parse("B3").unwrap())
                                .unwrap();
                            app.tree_mut().widget_mut(wid).value =
                                "Ünïcode — a long, \"quoted\" value".into();
                        }
                    }
                    _ => {}
                }
                let snap = s.snapshot();
                let full = full_tree_prompt_text(&snap);
                let screen = label_screen(&snap);
                let passive = get_texts_passive(&snap);
                let (screen_text, passive_text) =
                    (screen.to_prompt_text(), passive.to_prompt_text());
                let at = format!("{kind} at {state}");
                assert_ne!(full, before, "{at}: the UI changed since the last capture");
                assert_eq!(observed.capture(&mut s), &screen, "{at}");
                assert_eq!(observed.full_tree_tokens(), count(&full), "{at}");
                assert_eq!(observed.screen_tokens(), count(&screen_text), "{at}");
                assert_eq!(observed.passive_tokens(), count(&passive_text), "{at}");
                offscreen |= full.contains(" [offscreen]\n");
                disabled |= screen_text.contains(" [disabled]\n");
                truncated |= passive_text.contains("…\n");
                before = full;
            }
        }
        assert!(offscreen && disabled && truncated, "{offscreen} {disabled} {truncated}");
    }

    #[test]
    fn max_items_overflow_is_reported() {
        let mut snap = Snapshot::new();
        let root = snap.push(ControlProps::new("Sheet", ControlType::DataGrid), None, 0);
        snap.push_window_root(root);
        for i in 0..MAX_ITEMS + 5 {
            let mut props = ControlProps::new(format!("A{i}"), ControlType::DataItem);
            props.value = format!("{i}");
            snap.push(props, Some(root), 0);
        }
        let p = get_texts_passive(&snap);
        assert_eq!(p.items.len(), MAX_ITEMS);
        assert_eq!(p.overflow, 5);
        assert!(p.to_prompt_text().ends_with("(5 more items; use get_texts active mode)\n"));
    }
}
