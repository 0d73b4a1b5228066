//! Robustness integration: UI instability (late loading, name variation),
//! dynamic renames, trap/external hazards, and the GUI fallback.

use dmi_core::{label_screen, Dmi, DmiBuildConfig};
use dmi_gui::{InstabilityModel, Session};
use std::any::Any;

/// Builds the Word DMI model on a *stable* session, then executes against
/// an *unstable* one — the §3.4 robustness scenario.
fn word_dmi() -> Dmi {
    let mut s = Session::new(dmi_apps::AppKind::Word.launch_small());
    Dmi::build(&mut s, &DmiBuildConfig::office("Word")).0
}

fn unstable_word(seed: u64, late: f64, name_var: f64) -> Session {
    Session::with_instability(
        dmi_apps::AppKind::Word.launch_small(),
        InstabilityModel::new(seed, late, name_var),
    )
}

#[test]
fn visit_survives_late_loading_menus() {
    let dmi = word_dmi();
    // Every popup's children lag one snapshot: retries must absorb it.
    let mut s = unstable_word(3, 1.0, 0.0);
    let narrow = dmi
        .forest
        .nodes
        .iter()
        .find(|n| n.name == "Narrow" && dmi.forest.is_functional_leaf(n.id))
        .unwrap()
        .id;
    let out = dmi.visit_json(&mut s, &format!(r#"[{{"id": {narrow}}}]"#));
    assert!(out.ok(), "{:?}", out.error);
    let w = (s.app() as &dyn Any).downcast_ref::<dmi_apps::WordApp>().unwrap();
    assert_eq!(w.doc.page.margins, (0.5, 0.5, 0.5, 0.5));
}

#[test]
fn visit_survives_mild_name_variation() {
    let dmi = word_dmi();
    let mut successes = 0;
    let mut attempts = 0;
    for seed in 0..6u64 {
        let mut s = unstable_word(seed, 0.0, 0.15);
        let narrow = dmi
            .forest
            .nodes
            .iter()
            .find(|n| n.name == "Narrow" && dmi.forest.is_functional_leaf(n.id))
            .unwrap()
            .id;
        attempts += 1;
        let out = dmi.visit_json(&mut s, &format!(r#"[{{"id": {narrow}}}]"#));
        let w = (s.app() as &dyn Any).downcast_ref::<dmi_apps::WordApp>().unwrap();
        if out.ok() && w.doc.page.margins == (0.5, 0.5, 0.5, 0.5) {
            successes += 1;
        }
    }
    assert!(
        successes * 3 >= attempts * 2,
        "fuzzy matching should absorb most name variation: {successes}/{attempts}"
    );
}

#[test]
fn dynamic_rename_breaks_exact_match_but_not_everything() {
    // §6's example: typing "+1" renames "Next" to "Go To"; the modeled
    // topology is stale. Exact matching fails; the executor reports a
    // structured ControlNotFound instead of acting on the wrong control.
    let dmi = word_dmi();
    let mut s = Session::new(dmi_apps::AppKind::Word.launch_small());
    let (find_what, fw_refs) =
        dmi_agent::dmi_agent::resolve_target(&dmi.forest, &dmi_llm::TargetQuery::name("Find what"))
            .unwrap();
    let (next, next_refs) =
        dmi_agent::dmi_agent::resolve_target(&dmi.forest, &dmi_llm::TargetQuery::name("Next"))
            .unwrap();
    let json = format!(
        r#"[{{"id": {find_what}, "entry_ref_id": {fw_refs:?}, "text": "+1"}}, {{"shortcut_key": "Enter"}}, {{"id": {next}, "entry_ref_id": {next_refs:?}}}]"#
    );
    let out = dmi.visit_json(&mut s, &json);
    // "Next" was renamed "Go To" mid-call. Either the fuzzy matcher
    // rejects it (structured error) or — if it were similar enough —
    // resolves it; it must not silently click something unrelated.
    match out.error {
        Some(dmi_core::DmiError::ControlNotFound { name, .. }) => assert_eq!(name, "Next"),
        None => {
            // Accept only if it really reached the renamed button.
            assert_eq!(out.executed.len(), 3);
        }
        Some(other) => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn screen_labels_follow_live_names() {
    let mut s = unstable_word(5, 0.0, 1.0);
    let snap = s.snapshot();
    let screen = label_screen(&snap);
    // The provider-side names are unperturbed; screen labels expose the
    // varied ones, so label-based interfaces keep working regardless.
    assert!(!screen.is_empty());
    for e in &screen.entries {
        assert!(!e.label.is_empty());
    }
}

#[test]
fn disabled_control_feedback_is_structured() {
    let dmi = word_dmi();
    let mut s = Session::new(dmi_apps::AppKind::Word.launch_small());
    let paste = dmi
        .forest
        .nodes
        .iter()
        .find(|n| n.name == "Paste" && dmi.forest.is_functional_leaf(n.id))
        .unwrap()
        .id;
    let out = dmi.visit_json(&mut s, &format!(r#"[{{"id": {paste}}}]"#));
    match out.error {
        Some(dmi_core::DmiError::ControlDisabled { name, path }) => {
            assert_eq!(name, "Paste");
            assert!(path.contains("Word"));
        }
        other => panic!("expected structured disabled feedback, got {other:?}"),
    }
}

#[test]
fn executor_closes_stale_windows_with_ok_priority() {
    let dmi = word_dmi();
    let mut s = Session::new(dmi_apps::AppKind::Word.launch_small());
    // Open the Find & Replace dialog out-of-band.
    let tree = s.app().tree();
    let launcher = tree
        .iter()
        .find(|(i, w)| w.name == "Replace" && tree.is_shown(*i))
        .map(|(i, _)| i)
        .unwrap();
    s.click(launcher).unwrap();
    assert_eq!(s.app().tree().open_windows().len(), 2);
    // Visiting a ribbon control must close the dialog first.
    let bold = dmi
        .forest
        .nodes
        .iter()
        .find(|n| n.name == "Bold" && dmi.forest.is_functional_leaf(n.id))
        .unwrap()
        .id;
    let out = dmi.visit_json(&mut s, &format!(r#"[{{"id": {bold}}}]"#));
    assert!(out.ok(), "{:?}", out.error);
    assert_eq!(s.app().tree().open_windows().len(), 1);
}

#[test]
fn trap_controls_stay_trapped_for_imperative_use() {
    let mut s = Session::new(dmi_apps::AppKind::PowerPoint.launch_small());
    let tree = s.app().tree();
    let show_tab = tree.find_by_name("Slide Show").unwrap();
    s.click(show_tab).unwrap();
    let tree = s.app().tree();
    let beginning = tree
        .iter()
        .find(|(i, w)| w.name == "From Beginning" && tree.is_shown(*i))
        .map(|(i, _)| i)
        .unwrap();
    s.click(beginning).unwrap();
    assert!(s.is_trapped());
    assert!(s.click(show_tab).is_err(), "trapped UI rejects further input");
}

#[test]
fn enforced_access_clicks_navigation_nodes() {
    // §5.7 "Explicit navigation-node access": the enforced parameter
    // bypasses the non-leaf filter when the caller really wants a
    // navigation node (e.g. just open the Design tab).
    let dmi = word_dmi();
    let mut s = Session::new(dmi_apps::AppKind::Word.launch_small());
    let design =
        dmi.forest.nodes.iter().find(|n| n.name == "Design" && !n.children.is_empty()).unwrap().id;
    // Without enforcement: filtered, nothing happens.
    let out = dmi.visit_json(&mut s, &format!(r#"[{{"id": {design}}}]"#));
    assert!(out.executed.is_empty());
    assert_eq!(out.filtered.len(), 1);
    // With enforcement: the tab is actually selected.
    let out = dmi.visit_json(&mut s, &format!(r#"[{{"id": {design}, "enforced": true}}]"#));
    assert!(out.ok(), "{:?}", out.error);
    assert_eq!(out.executed.len(), 1);
    let tree = s.app().tree();
    let tab = tree.find_by_name("Design").unwrap();
    assert!(tree.widget(tab).selected, "Design tab selected via enforced access");
}
