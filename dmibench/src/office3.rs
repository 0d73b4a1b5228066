//! `build_office3`: the offline phase of a deployment. Launch Word, Excel
//! and PowerPoint, rip them together with `rip_fleet`, build each model
//! with `Dmi::from_ung`, and save each rip to a store.
//!
//! The fleet engine, the capture layer and store writes do almost all
//! their work here, and Excel is the straggler that bounds any per-app
//! parallel design. The build has no random input; `--seed` only picks
//! the run seeds of the agent check that uses the built models.

use crate::agent;
use crate::harness::{observe, Ctx, Outcome, Run, TempDir};
use crate::legacy;
use crate::metrics::{Fnv, Layers, RIP_MS};
use dmi_apps::AppKind;
use dmi_core::describe::full_description;
use dmi_core::topology::{build_forest, decycle};
use dmi_core::{
    rip_fleet, Dmi, DmiBuildConfig, FleetEntry, ParRipConfig, RipConfig, RipStatus, Ung,
};
use dmi_gui::Session;
use dmi_store::Store;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

fn launch(ctx: &Ctx, kind: AppKind) -> Session {
    Session::new(if ctx.tiny { kind.launch_small() } else { kind.launch() })
}

fn ung_digest(g: &Ung) -> u64 {
    Fnv::of(serde_json::to_string(g).expect("UNG serializes").as_bytes())
}

/// `Dmi::from_ung`, or — in a traced iteration — the same four stages
/// called one by one so each can be timed.
fn model(ung: Ung, cfg: &DmiBuildConfig, layers: Option<&mut Layers>) -> Dmi {
    let Some(layers) = layers else {
        return Dmi::from_ung(ung, cfg).0;
    };
    let mut g = ung;
    let t = Instant::now();
    decycle(&mut g);
    layers.add("topology.decycle_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    let (forest, _) = build_forest(&g, &cfg.forest);
    layers.add("topology.forest_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    let dmi = Dmi::from_forest(forest, cfg.describe.clone());
    layers.add("describe.core_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    let _ = full_description(&dmi.forest, &dmi.describe);
    layers.add("describe.full_ms", t.elapsed().as_secs_f64() * 1e3);
    dmi
}

/// One office3 build: rip → model → save. Returns the models and, per
/// app, whether its rip ended degraded or failed.
fn build(
    entries: &mut [FleetEntry],
    store: &Store,
    mut layers: Option<&mut Layers>,
) -> (Vec<Arc<Dmi>>, Vec<bool>) {
    let t = Instant::now();
    let outcomes = rip_fleet(entries, &ParRipConfig::default());
    if let Some(l) = layers.as_deref_mut() {
        l.add("parallel.rip_fleet_ms", t.elapsed().as_secs_f64() * 1e3);
    }
    let mut bad = Vec::new();
    let mut models = Vec::new();
    for (entry, out) in entries.iter_mut().zip(outcomes) {
        bad.push(matches!(out.status, RipStatus::Degraded(_) | RipStatus::Failed(_)));
        let stored = legacy::stored_rip(&out.app_id, &mut entry.session, out.graph, out.stats);
        let bytes = store.save_rip(&stored).expect("save the rip");
        if let Some(l) = layers.as_deref_mut() {
            l.add("store.bytes", bytes as f64);
        }
        let cfg = DmiBuildConfig::office(&out.app_id);
        models.push(Arc::new(model(stored.ung, &cfg, layers.as_deref_mut())));
    }
    (models, bad)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let dir = TempDir::new("build_office3");
    let store = Store::open(dir.path()).expect("open the build store");
    // `ParRipConfig::default()` runs one rip worker per available CPU.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut run = Run::new(ctx, cpus);
    // Per iteration and app: the stored graph's digest, and whether the
    // rip ended degraded or failed or the staged model differs.
    let mut ops: Vec<Vec<(u64, bool)>> = Vec::new();
    let mut models = Vec::new();
    while let Some(traced) = run.next_iter(1) {
        let t = Instant::now();
        let mut entries: Vec<FleetEntry> = AppKind::ALL
            .iter()
            .map(|&k| FleetEntry::new(k.name(), launch(ctx, k), RipConfig::office(k.name())))
            .collect();
        let setup = t.elapsed().as_secs_f64();
        let layers = &mut run.layers;
        let ((built, bad), secs, obs) =
            observe(traced, || build(&mut entries, &store, traced.then_some(layers)));
        run.absorb(&obs);
        run.record(traced, setup, secs, AppKind::ALL.len());
        run.attempted += AppKind::ALL.len() as u64;
        let mut iter_ops = Vec::new();
        for ((kind, bad), dmi) in AppKind::ALL.iter().zip(bad).zip(&built) {
            let ung = store.load_rip(kind.name()).expect("load the rip").ung;
            let digest = ung_digest(&ung);
            // A traced build stages `Dmi::from_ung` by hand; it must still
            // build the same model.
            let staged_ok = !traced || {
                let (want, _) = Dmi::from_ung(ung, &DmiBuildConfig::office(kind.name()));
                want.to_json() == dmi.to_json() && want.core_tokens() == dmi.core_tokens()
            };
            iter_ops.push((digest, bad || !staged_ok));
        }
        ops.push(iter_ops);
        models = built;
    }

    // Reference: each app's sequential rip, which the fleet must match
    // byte for byte on every iteration.
    let mut det = Vec::new();
    for (i, kind) in AppKind::ALL.iter().enumerate() {
        let t = Instant::now();
        let (g, _) =
            dmi_core::ripper::rip(&mut launch(ctx, *kind), &RipConfig::office(kind.name()));
        let rip_ms = t.elapsed().as_secs_f64() * 1e3;
        if ctx.trace {
            run.layers.set(RIP_MS[i], rip_ms);
        }
        let want = ung_digest(&g);
        run.failed += ops.iter().filter(|o| o[i].1 || o[i].0 != want).count() as u64;
        det.push(format!("digest {} UNG {want:016x}", kind.name()));
    }
    let core_tokens: usize = models.iter().map(|m| m.core_tokens()).sum();
    run.layers.set("describe.core_tokens", core_tokens as f64);

    // The built models in use: the core-setting Table 3 cells over them.
    // Their agent metrics equal agent_grid's, whose models the digest
    // check makes identical; the end-to-end metrics cannot read 0.
    let traces = agent::core_sample(&models, ctx);
    let mut e2e = BTreeMap::new();
    agent::agent_metrics(&traces, &mut e2e);
    det.push(agent::closed_loop_virtual(&traces, &mut e2e));
    let notes = vec![format!("op_ms_p50 is the median of {} office3 builds", run.iters())];
    run.finish(e2e, det, notes)
}
