//! Observation declarations on the spreadsheet: passive `get_texts` before
//! each LLM call (coalesced DataItems), active mode for full content, and
//! a conditional-formatting rule applied declaratively.
//!
//! ```text
//! cargo run -p dmi-examples --bin spreadsheet_audit
//! ```

use dmi_core::interface::observe::{get_texts_active, get_texts_passive, PassiveConfig};
use dmi_core::{label_screen, Dmi, DmiBuildConfig};
use dmi_gui::Session;
use std::any::Any;

fn main() {
    let mut s = Session::new(dmi_apps::AppKind::Excel.launch_small());

    // Passive perception: every DataItem read through Value/TextPattern,
    // empties coalesced — this text rides along in each prompt.
    let snap = s.snapshot();
    let passive = get_texts_passive(&snap, &PassiveConfig::default());
    println!(
        "passive get_texts ({} items, {} empty coalesced):",
        passive.items.len(),
        passive.empty_coalesced
    );
    println!("{}", passive.to_prompt_text());

    // Active mode: full content of specific cells by on-screen label.
    let screen = label_screen(&snap);
    let labels: Vec<String> = ["D2", "D3", "D4"]
        .iter()
        .filter_map(|n| screen.find_by_name(n).map(|e| e.label.clone()))
        .collect();
    let refs: Vec<&str> = labels.iter().map(|l| l.as_str()).collect();
    let items = get_texts_active(&s, &screen, &refs).expect("cells readable");
    println!("active get_texts:");
    for it in &items {
        println!("  {} = {}", it.name, it.text);
    }

    // Declarative action on what we observed: highlight small Units values.
    let (dmi, _) = Dmi::build(&mut s, &DmiBuildConfig::office("Excel"));
    let nb = dmi
        .forest
        .nodes
        .iter()
        .find(|n| n.name == "Name Box" && dmi.forest.is_functional_leaf(n.id))
        .unwrap()
        .id;
    let threshold_edit = dmi
        .forest
        .nodes
        .iter()
        .find(|n| {
            n.name == "Format cells that are"
                && dmi.forest.path_to(n.id).iter().any(|&a| dmi.forest.nodes[a].name == "Less Than")
        })
        .unwrap()
        .id;
    let apply = dmi
        .forest
        .nodes
        .iter()
        .find(|n| {
            n.name == "Apply Rule"
                && dmi.forest.path_to(n.id).iter().any(|&a| dmi.forest.nodes[a].name == "Less Than")
        })
        .unwrap()
        .id;
    let json = format!(
        r#"[{{"id": {nb}, "text": "C1:C10"}}, {{"shortcut_key": "Enter"}},
           {{"id": {threshold_edit}, "text": "10"}}, {{"shortcut_key": "Enter"}},
           {{"id": {apply}}}]"#
    );
    let out = dmi.visit_json(&mut s, &json);
    println!("\nvisit outcome: executed={} error={:?}", out.executed.len(), out.error);
    let excel = (s.app() as &dyn Any).downcast_ref::<dmi_apps::ExcelApp>().unwrap();
    println!("conditional rules applied: {}", excel.sheet.cond_rules.len());
    assert_eq!(excel.sheet.cond_rules.len(), 1);
    println!("spreadsheet audit OK");
}
