//! State declarations (§3.5, Table 2): set a control's desired end state.
//!
//! These interfaces operate on controls addressed by their *on-screen
//! label* — static topology ids are explicitly prohibited to keep access
//! and complex interaction separated (§3.5). Execution is conservative:
//! if any addressed control lacks the required pattern, nothing is
//! executed (§4.4). On success a structured status is returned.

use crate::error::{DmiError, DmiResult};
use crate::screen::LabeledScreen;
use dmi_gui::Session;
use dmi_uia::{PatternKind, RuntimeId};

/// Structured status returned by state declarations (§4.4).
#[derive(Debug, Clone, PartialEq)]
pub struct StateReport {
    /// Human/LLM-readable summary of the resulting state.
    pub status: String,
}

fn resolve(screen: &LabeledScreen, label: &str) -> DmiResult<RuntimeId> {
    if label.chars().all(|c| c.is_ascii_digit()) && !label.is_empty() {
        return Err(DmiError::StaticIdProhibited { label: label.to_string() });
    }
    screen
        .resolve(label)
        .map(|e| e.runtime)
        .ok_or_else(|| DmiError::LabelNotFound { label: label.to_string() })
}

fn require_pattern(
    screen: &LabeledScreen,
    label: &str,
    pattern: PatternKind,
) -> DmiResult<RuntimeId> {
    let rt = resolve(screen, label)?;
    let entry = screen.entries.iter().find(|e| e.runtime == rt).expect("resolved entry");
    if !entry.patterns.supports(pattern) {
        return Err(DmiError::PatternUnsupported {
            name: entry.name.clone(),
            pattern: pattern.as_str().to_string(),
        });
    }
    Ok(rt)
}

/// `set_scrollbar_pos(y_percent)` on a scrollbar or scrollable container
/// (ScrollPattern / RangeValuePattern).
pub fn set_scrollbar_pos(
    session: &mut Session,
    screen: &LabeledScreen,
    label: &str,
    y_percent: f64,
) -> DmiResult<StateReport> {
    let rt = resolve(screen, label)?;
    let entry = screen.entries.iter().find(|e| e.runtime == rt).expect("resolved entry");
    if !entry.patterns.supports(PatternKind::Scroll)
        && !entry.patterns.supports(PatternKind::RangeValue)
    {
        return Err(DmiError::PatternUnsupported {
            name: entry.name.clone(),
            pattern: "ScrollPattern".into(),
        });
    }
    if !(0.0..=100.0).contains(&y_percent) {
        return Err(DmiError::InvalidArgument {
            message: format!("scroll percent {y_percent} outside 0..=100"),
        });
    }
    let wid = session.widget_of(rt);
    session.scroll_to(wid, y_percent).map_err(DmiError::from)?;
    Ok(StateReport { status: format!("scrollbar '{}' at {y_percent:.0}%", entry.name) })
}

/// `select_lines(start, end)` on a text surface (TextPattern).
pub fn select_lines(
    session: &mut Session,
    screen: &LabeledScreen,
    label: &str,
    start: usize,
    end: usize,
) -> DmiResult<StateReport> {
    let rt = require_pattern(screen, label, PatternKind::Text)?;
    let wid = session.widget_of(rt);
    session.select_lines(wid, start, end).map_err(DmiError::from)?;
    Ok(StateReport { status: format!("lines {start}..={end} selected") })
}

/// `select_paragraphs(start, end)` on a text surface (TextPattern).
pub fn select_paragraphs(
    session: &mut Session,
    screen: &LabeledScreen,
    label: &str,
    start: usize,
    end: usize,
) -> DmiResult<StateReport> {
    let rt = require_pattern(screen, label, PatternKind::Text)?;
    let wid = session.widget_of(rt);
    session.select_paragraphs(wid, start, end).map_err(DmiError::from)?;
    Ok(StateReport { status: format!("paragraphs {start}..={end} selected") })
}

/// `select_controls(labels)` — single or multi select (SelectionItem).
///
/// Conservative: every label must resolve and support the pattern before
/// anything is selected.
pub fn select_controls(
    session: &mut Session,
    screen: &LabeledScreen,
    labels: &[&str],
) -> DmiResult<StateReport> {
    if labels.is_empty() {
        return Err(DmiError::InvalidArgument { message: "no labels given".into() });
    }
    let mut targets = Vec::with_capacity(labels.len());
    for l in labels {
        targets.push(require_pattern(screen, l, PatternKind::SelectionItem)?);
    }
    for (i, rt) in targets.iter().enumerate() {
        let wid = session.widget_of(*rt);
        session.select(wid, i > 0).map_err(DmiError::from)?;
    }
    Ok(StateReport { status: format!("{} control(s) selected", targets.len()) })
}

/// `set_toggle_state(on)` (TogglePattern). Idempotent.
pub fn set_toggle_state(
    session: &mut Session,
    screen: &LabeledScreen,
    label: &str,
    on: bool,
) -> DmiResult<StateReport> {
    let rt = require_pattern(screen, label, PatternKind::Toggle)?;
    let wid = session.widget_of(rt);
    session.set_toggle(wid, on).map_err(DmiError::from)?;
    Ok(StateReport { status: format!("toggle set {}", if on { "on" } else { "off" }) })
}

/// `set_expanded` / `set_collapsed` (ExpandCollapsePattern).
pub fn set_expanded(
    session: &mut Session,
    screen: &LabeledScreen,
    label: &str,
    expanded: bool,
) -> DmiResult<StateReport> {
    let rt = require_pattern(screen, label, PatternKind::ExpandCollapse)?;
    let wid = session.widget_of(rt);
    session.set_expanded(wid, expanded).map_err(DmiError::from)?;
    Ok(StateReport { status: (if expanded { "expanded" } else { "collapsed" }).to_string() })
}

/// `set_texts(text)` (TextPattern/ValuePattern): set an edit's content
/// without keystroke emulation.
pub fn set_texts(
    session: &mut Session,
    screen: &LabeledScreen,
    label: &str,
    text: &str,
) -> DmiResult<StateReport> {
    let rt = require_pattern(screen, label, PatternKind::Value)?;
    let wid = session.widget_of(rt);
    session.set_value(wid, text).map_err(DmiError::from)?;
    Ok(StateReport { status: format!("text set ({} chars)", text.len()) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::screen::label_screen;
    use dmi_apps::AppKind;
    use std::any::Any;

    fn word_session() -> Session {
        Session::new(AppKind::Word.launch_small())
    }

    #[test]
    fn static_ids_are_prohibited() {
        let mut s = word_session();
        let snap = s.snapshot();
        let screen = label_screen(&snap);
        let err = set_scrollbar_pos(&mut s, &screen, "42", 50.0).unwrap_err();
        assert!(matches!(err, DmiError::StaticIdProhibited { .. }));
    }

    #[test]
    fn scrollbar_pos_sets_viewport() {
        let mut s = word_session();
        let snap = s.snapshot();
        let screen = label_screen(&snap);
        let sb = screen.find_by_name("Vertical Scroll Bar").unwrap().label.clone();
        let r = set_scrollbar_pos(&mut s, &screen, &sb, 100.0).unwrap();
        assert!(r.status.contains("100"));
        // The document scrolled: the last paragraph is now on screen.
        let snap2 = s.snapshot();
        let last = snap2.find_by_name("Paragraph 11").unwrap();
        assert!(!snap2.node(last).props.offscreen);
    }

    #[test]
    fn select_lines_reaches_model() {
        let mut s = word_session();
        let snap = s.snapshot();
        let screen = label_screen(&snap);
        let doc = screen.find_by_name("Document").unwrap().label.clone();
        select_lines(&mut s, &screen, &doc, 3, 5).unwrap();
        let w = (s.app() as &dyn Any).downcast_ref::<dmi_apps::WordApp>().unwrap();
        let sel = w.doc.selection.unwrap();
        assert_eq!((sel.start, sel.end), (3, 5));
    }

    #[test]
    fn select_controls_is_all_or_nothing() {
        let mut s = Session::new(AppKind::PowerPoint.launch_small());
        let snap = s.snapshot();
        let screen = label_screen(&snap);
        let s1 = screen.find_by_name("Slide 1").unwrap().label.clone();
        // "Bold" is a Button without SelectionItem: whole call must fail
        // without selecting Slide 1.
        let bold = screen.find_by_name("Bold").unwrap().label.clone();
        let err = select_controls(&mut s, &screen, &[&s1, &bold]).unwrap_err();
        assert!(matches!(err, DmiError::PatternUnsupported { .. }));
        // Single valid selection works.
        let r = select_controls(&mut s, &screen, &[&s1]).unwrap();
        assert!(r.status.contains('1'));
    }

    #[test]
    fn toggle_state_is_idempotent() {
        let mut s = word_session();
        // Select something so bold applies; then toggle twice to "on".
        let surf = s.app().tree().find_by_automation_id("Body").unwrap();
        s.select_lines(surf, 0, 0).unwrap();
        let snap = s.snapshot();
        let screen = label_screen(&snap);
        let bold = screen.find_by_name("Bold").unwrap().label.clone();
        set_toggle_state(&mut s, &screen, &bold, true).unwrap();
        set_toggle_state(&mut s, &screen, &bold, true).unwrap();
        let w = (s.app() as &dyn Any).downcast_ref::<dmi_apps::WordApp>().unwrap();
        assert!(w.doc.paragraphs[0].format.bold, "double-set stays on");
    }

    #[test]
    fn unknown_label_errors() {
        let mut s = word_session();
        let snap = s.snapshot();
        let screen = label_screen(&snap);
        let err = set_toggle_state(&mut s, &screen, "ZZZZ", true).unwrap_err();
        assert!(matches!(err, DmiError::LabelNotFound { .. }));
    }

    #[test]
    fn set_texts_writes_value_directly() {
        let mut s = Session::new(AppKind::Excel.launch_small());
        let snap = s.snapshot();
        let screen = label_screen(&snap);
        let nb = screen.find_by_name("Name Box").unwrap().label.clone();
        set_texts(&mut s, &screen, &nb, "D4").unwrap();
        let excel = (s.app() as &dyn Any).downcast_ref::<dmi_apps::ExcelApp>().unwrap();
        let nb_id = excel.name_box();
        assert_eq!(s.app().tree().widget(nb_id).value, "D4");
    }
}
