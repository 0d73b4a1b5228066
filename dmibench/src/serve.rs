//! `serve_mix`: one closed batch of requests, all arriving at virtual time
//! 0, served by `Gateway::serve` with an in-flight cap of 48 and 16
//! sessions per app over the small apps. Requests go round-robin over the
//! 27 tasks and 8 tenants; even tenants run GUI-only and odd ones GUI+DMI,
//! so tenant lanes differ in cost. Set-up warm-boots the gateway with
//! `ServeApp::from_store` from a store written before any timing.
//!
//! The gateway steps each round inline (`workers: 1`). Its threaded path
//! waits for every worker at the end of each round (about 150 a batch, up
//! to 48 task steps each), so on a shared 2-vCPU host one slowed worker
//! stalls the whole round and the wall time measures the host scheduler:
//! with 2 workers the spread of the batch time across runs passed 25%.
//! The served traces and every virtual-clock figure are the same at any
//! worker count.
//!
//! Gateway admission, session recycling, LLM batching and store reads run
//! only here; the agent steps run on recycled sessions instead of fresh
//! launches.

use crate::agent;
use crate::harness::{observe, Ctx, Outcome, Run, TempDir};
use crate::legacy;
use crate::metrics::{median, Fnv};
use dmi_agent::{
    run_task, AgentTask, CapabilityProfile, Gateway, GatewayConfig, InterfaceMode, RunConfig,
    RunTrace, ServeApp, ServeRequest,
};
use dmi_apps::AppKind;
use dmi_core::{Dmi, DmiBuildConfig};
use dmi_gui::Session;
use dmi_store::Store;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

const TENANTS: usize = 8;
/// Served requests checked against their sequential `run_task`.
const SAMPLES: usize = 16;

/// The request batch for `seed`: order, per-request run seeds and the
/// tenant rotation all come from it.
fn requests(seed: u64, n: usize) -> Vec<ServeRequest> {
    let tasks: Vec<Arc<AgentTask>> = dmi_tasks::all_tasks().into_iter().map(Arc::new).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let rotate = rng.gen_range(0..TENANTS);
    let mut reqs: Vec<ServeRequest> = (0..n)
        .map(|i| {
            let task = &tasks[i % tasks.len()];
            let tenant = (i + rotate) % TENANTS;
            let mode = if tenant.is_multiple_of(2) {
                InterfaceMode::GuiOnly
            } else {
                InterfaceMode::GuiPlusDmi
            };
            ServeRequest {
                tenant: format!("tenant-{tenant}"),
                app: task.app.name().to_string(),
                task: Arc::clone(task),
                cfg: RunConfig::test(CapabilityProfile::gpt5_medium(), mode, rng.gen()),
            }
        })
        .collect();
    for i in (1..n).rev() {
        reqs.swap(i, rng.gen_range(0..i + 1));
    }
    reqs
}

fn trace_digest(t: Option<&RunTrace>) -> u64 {
    t.map_or(0, |t| Fnv::of(t.identity_bytes().as_bytes()))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let n = if ctx.tiny { 64 } else { 1024 };
    let dir = TempDir::new("serve_mix");
    let store = Store::open(dir.path()).expect("open the serve store");
    for kind in AppKind::ALL {
        legacy::write_serve_store(&store, kind);
    }
    let batch = requests(ctx.seed, n);
    let config = GatewayConfig { workers: 1, sessions_per_app: 16, max_in_flight: 48 };
    let mut run = Run::new(ctx, 1);
    let mut first: Option<(Vec<u64>, dmi_agent::ServeReport)> = None;
    let mut models: BTreeMap<&'static str, Arc<Dmi>> = BTreeMap::new();
    while let Some(traced) = run.next_iter(1) {
        let (apps, setup, obs) = observe(traced, || {
            AppKind::ALL
                .iter()
                .map(|k| {
                    let donor = Session::new(k.launch_small());
                    let cfg = DmiBuildConfig::office(k.name());
                    ServeApp::from_store(k.name(), &store, donor, &cfg).expect("warm boot")
                })
                .collect::<Vec<_>>()
        });
        run.absorb(&obs);
        if traced {
            let warm: usize = apps.iter().map(legacy::warm_imported).sum();
            run.layers.add("store.warm_imported", warm as f64);
        }
        for (k, app) in AppKind::ALL.iter().zip(&apps) {
            models
                .insert(k.name(), Arc::clone(app.dmi.as_ref().expect("warm boot builds a model")));
        }
        let mut gateway = Gateway::new(apps, config.clone());
        let reqs = batch.clone();
        let (report, secs, obs) = observe(traced, || gateway.serve(reqs));
        run.absorb(&obs);
        run.record(traced, setup, secs, report.stats.completed);
        run.attempted += n as u64;
        run.failed += report.stats.faulted as u64;
        let ids: Vec<u64> =
            report.outcomes.iter().map(|o| trace_digest(o.trace.as_ref())).collect();
        if traced {
            let l = &mut run.layers;
            let s = &report.stats;
            l.add("gateway.rounds", s.rounds as f64);
            let admit: Vec<f64> = report.outcomes.iter().map(|o| o.admit_vt).collect();
            l.add("gateway.queue_wait_vs_p50", median(&admit));
            l.add("_admit_vt", admit.iter().sum());
            l.add("_finish_vt", report.outcomes.iter().map(|o| o.finish_vt).sum());
            l.add("_reuses", s.session_reuses as f64);
            l.add("_forks", s.session_forks as f64);
            l.add("_cap_hits", s.capture_pool_hits as f64);
            l.add("_cap_misses", s.capture_pool_misses as f64);
        }
        match &first {
            None => first = Some((ids, report)),
            Some((want, _)) => {
                run.failed += ids.iter().zip(want).filter(|(a, b)| a != b).count() as u64
            }
        }
    }
    let core_tokens: usize = models.values().map(|m| m.core_tokens()).sum();
    run.layers.set("describe.core_tokens", core_tokens as f64);

    // A fixed sample of served traces must equal their sequential runs.
    let (ids, report) = first.expect("at least one pass");
    for i in (0..n).step_by(n / SAMPLES) {
        let r = &batch[i];
        let seq = run_task(&r.task, models.get(r.app.as_str()), &r.cfg);
        run.failed += u64::from(trace_digest(Some(&seq)) != ids[i]);
    }

    let digest = ids.iter().fold(Fnv::default(), |mut h, id| *h.write(&id.to_le_bytes()));
    let mut det = vec![format!("digest serve_mix traces {:016x} ({n} requests)", digest.0)];
    let traces: Vec<RunTrace> = report.outcomes.iter().filter_map(|o| o.trace.clone()).collect();
    let latency: Vec<f64> =
        report.outcomes.iter().filter(|o| o.trace.is_some()).map(|o| o.finish_vt).collect();
    let mut e2e = BTreeMap::new();
    agent::agent_metrics(&traces, &mut e2e);
    det.push(agent::virtual_latency(&latency, report.stats.virtual_secs, &mut e2e));
    let notes = vec![format!("op_ms_p50 is the median of {} served batches", run.iters())];
    run.finish(e2e, det, notes)
}
