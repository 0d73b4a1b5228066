//! Quickstart: model an application offline, then drive it declaratively.
//!
//! ```text
//! cargo run -p dmi-examples --bin quickstart
//! ```

use dmi_core::{Dmi, DmiBuildConfig};
use dmi_gui::Session;
use std::any::Any;

fn main() {
    // 1. Launch the simulated Word and run DMI's offline phase:
    //    GUI ripping -> UI Navigation Graph -> decycle -> forest ->
    //    context-efficient descriptions.
    let mut session = Session::new(dmi_apps::AppKind::Word.launch_small());
    let (dmi, stats) = Dmi::build(&mut session, &DmiBuildConfig::office("Word"));
    println!("offline phase:");
    println!("  UNG nodes            : {}", stats.rip_nodes);
    println!("  back edges removed   : {}", stats.decycle.back_edges_removed);
    println!("  merge nodes          : {}", stats.forest.merge_nodes);
    println!("  shared subtrees      : {}", stats.forest.externalized);
    println!("  forest nodes         : {}", stats.forest.forest_nodes);
    println!("  core topology tokens : {}", stats.core_tokens);

    // 2. The LLM-facing artifact: the compact core topology. (First 400
    //    characters shown.)
    let head: String = dmi.core_text().chars().take(400).collect();
    println!("\ncore topology (head):\n{head}…\n");

    // 3. A declarative access: set the page margins to Narrow with one
    //    visit call — no menu navigation emitted by the caller.
    let narrow = dmi
        .forest
        .nodes
        .iter()
        .find(|n| n.name == "Narrow" && dmi.forest.is_functional_leaf(n.id))
        .expect("Narrow is modeled");
    let json = format!(r#"[{{"id": {}}}]"#, narrow.id);
    println!("visit({json})");
    let outcome = dmi.visit_json(&mut session, &json);
    println!("executed: {:?}  error: {:?}", outcome.executed, outcome.error);

    let word = (session.app() as &dyn Any).downcast_ref::<dmi_apps::WordApp>().unwrap();
    println!("margins now: {:?}", word.doc.page.margins);
    assert_eq!(word.doc.page.margins, (0.5, 0.5, 0.5, 0.5));
    println!("\nquickstart OK");
}
