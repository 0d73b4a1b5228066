//! Traced fleet rip walkthrough: rip the three Office small apps as a
//! fleet with the `dmi-obs` recorder enabled, export the span timeline
//! as Chrome trace-event JSON (load it in Perfetto or `chrome://tracing`),
//! and print the counter tallies plus the span summary — after proving
//! tracing never changed a UNG byte.
//!
//! ```text
//! cargo run --example trace_rip --release [out.json]
//! ```

use dmi_apps::AppKind;
use dmi_core::ripper::RipConfig;
use dmi_core::{rip_fleet, FleetEntry, ParRipConfig};
use dmi_gui::Session;

fn entries() -> Vec<FleetEntry> {
    AppKind::ALL
        .iter()
        .map(|k| {
            FleetEntry::new(k.name(), Session::new(k.launch_small()), RipConfig::office(k.name()))
        })
        .collect()
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "target/trace_rip.json".into());
    let par = ParRipConfig;

    // The untraced reference: tracing is observational, so the traced
    // fleet below must produce byte-identical UNGs.
    let mut plain = entries();
    let reference: Vec<String> = rip_fleet(&mut plain, &par)
        .iter()
        .map(|o| serde_json::to_string(&o.graph).unwrap())
        .collect();

    dmi_obs::clear();
    dmi_obs::set_enabled(true);
    let mut observed = entries();
    let out = rip_fleet(&mut observed, &par);
    dmi_obs::set_enabled(false);
    let trace = dmi_obs::drain();
    let tallies = dmi_obs::tallies();
    dmi_obs::clear();

    for (o, want) in out.iter().zip(&reference) {
        assert_eq!(
            &serde_json::to_string(&o.graph).unwrap(),
            want,
            "{}: traced UNG must be byte-identical to the untraced rip",
            o.app_id
        );
        println!(
            "{:<12} nodes={:<5} edges={:<5} byte-identical to untraced rip",
            o.app_id,
            o.graph.node_count(),
            o.graph.edge_count()
        );
    }

    let rips = trace.count(Some(dmi_obs::Cat::Rip), "rip.sequential");
    assert_eq!(rips, out.len(), "one sequential rip span per app");
    println!("\n{} events ({rips} per-app rip.sequential spans)", trace.events.len());

    let json = trace.to_chrome_json();
    std::fs::write(&out_path, &json).expect("write chrome trace");
    println!("chrome trace written to {out_path} ({} bytes)\n", json.len());

    println!("tallies");
    for (name, v) in &tallies {
        println!("  {name:<28} {v}");
    }
    println!("{}", trace.text_summary());
}
