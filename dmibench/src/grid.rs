//! `agent_grid`: the paper's Table 3 grid — 8 profile × interface cells
//! over the 27-task suite, three run seeds each — every task run in a
//! closed loop from `TaskState::new` to `finish` on full-size apps under
//! `RunConfig::evaluation`. Set-up builds the three models with
//! `Dmi::build`, the sequential rip. The agent metrics come from the
//! larger core-setting sample run after the timed passes; the grid's own
//! core-setting cells are printed as the `exp_table3` figures.
//!
//! The agent step loop, the online `visit`/state/observe primitives and
//! per-task app launches dominate here; the fleet engine, the gateway and
//! the store do nothing.

use crate::agent::{self, run_timed, TimedRun};
use crate::harness::{observe, Ctx, Outcome, Run};
use crate::metrics::{median, span_ms, tail, Fnv, RIP_MS};
use dmi_agent::RunConfig;
use dmi_apps::AppKind;
use dmi_core::{Dmi, DmiBuildConfig};
use dmi_gui::Session;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

pub fn run(ctx: &Ctx) -> Outcome {
    let tasks = dmi_tasks::all_tasks();
    let grid = dmi_bench::table3_rows();
    let seeds = ctx.run_seeds();
    let mut run = Run::new(ctx, 1);
    let mut task_ms = Vec::new();
    let mut first: Option<(Vec<u64>, Vec<dmi_agent::RunTrace>)> = None;
    let mut models = Vec::new();
    // Two passes at least, so the tail percentile has samples to spare.
    // An iteration takes seconds, over which the host speed can drift, so
    // the host is probed after each model build and each grid cell; the
    // set-up and pass times leave the probes out.
    while let Some(traced) = run.next_iter(2) {
        models.clear();
        let mut setup = 0.0;
        for (kind, key) in AppKind::ALL.iter().zip(RIP_MS) {
            let t = Instant::now();
            let launched = if ctx.tiny { kind.launch_small() } else { kind.launch() };
            let ((dmi, _), _, obs) = observe(traced, || {
                Dmi::build(&mut Session::new(launched), &DmiBuildConfig::office(kind.name()))
            });
            setup += t.elapsed().as_secs_f64();
            if let Some(o) = &obs {
                run.layers.add(key, span_ms(&o.trace, dmi_obs::Cat::Rip, "rip.sequential").0);
            }
            run.absorb(&obs);
            models.push(Arc::new(dmi));
            run.probe();
        }

        let mut runs: Vec<TimedRun> = Vec::new();
        let mut secs = 0.0;
        let ((), _, obs) = observe(traced, || {
            for (profile, mode) in &grid {
                let t = Instant::now();
                for task in &tasks {
                    let dmi =
                        &models[AppKind::ALL.iter().position(|&k| k == task.app).expect("app")];
                    for &seed in &seeds {
                        let mut cfg = RunConfig::evaluation(profile.clone(), *mode, seed);
                        cfg.small_apps = ctx.tiny;
                        runs.push(run_timed(task, Some(dmi.as_ref()), &cfg));
                    }
                }
                secs += t.elapsed().as_secs_f64();
                run.probe();
            }
        });
        run.absorb(&obs);
        run.record(traced, setup, secs, runs.len());
        run.attempted += runs.len() as u64;
        let ids: Vec<u64> =
            runs.iter().map(|r| Fnv::of(r.trace.identity_bytes().as_bytes())).collect();
        match &first {
            None => first = Some((ids, runs.iter().map(|r| r.trace.clone()).collect())),
            Some((want, _)) => {
                run.failed += ids.iter().zip(want).filter(|(a, b)| a != b).count() as u64
            }
        }
        for r in &runs {
            if traced {
                r.fold(&mut run.layers);
            } else {
                task_ms.push(r.wall_ms);
            }
        }
    }
    let core_tokens: usize = models.iter().map(|m| m.core_tokens()).sum();
    run.layers.set("describe.core_tokens", core_tokens as f64);

    let (ids, traces) = first.expect("at least one pass");
    let digest = ids.iter().fold(Fnv::default(), |mut h, id| *h.write(&id.to_le_bytes()));
    let mut det = vec![format!("digest agent_grid traces {:016x} ({} runs)", digest.0, ids.len())];
    // The grid's own core-setting cells, as `exp_table3` prints them.
    let mut table3 = BTreeMap::new();
    agent::agent_metrics(&traces, &mut table3);
    det.push(format!(
        "table3 GPT-5 (Medium), run seeds {seeds:?}: sr_dmi = {} %, sr_gui = {} %",
        table3["sr_dmi"], table3["sr_gui"]
    ));
    let mut e2e = BTreeMap::new();
    let sample = agent::core_sample(&models, ctx);
    agent::agent_metrics(&sample, &mut e2e);
    det.push(agent::closed_loop_virtual(&sample, &mut e2e));
    let (p, tail_ms) = tail(&task_ms);
    let (p50, n) = (median(&task_ms), task_ms.len());
    let notes = vec![
        format!("op_ms_p50 is the median of {} grid passes", run.iters()),
        format!("task_ms_p50 = {p50} ms, task_ms_tail = {tail_ms} ms (p{p} of {n} task runs)"),
    ];
    run.finish(e2e, det, notes)
}
