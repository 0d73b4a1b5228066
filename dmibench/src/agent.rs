//! Agent task runs timed stage by stage from the benchmark side, and the
//! agent-level end-to-end metrics computed from their traces.

use crate::harness::Ctx;
use crate::metrics::{median, tail, Layers};
use dmi_agent::{
    aggregate, run_task, AgentTask, CapabilityProfile, FailureLevel, InterfaceMode, RunConfig,
    RunTrace, StepStatus, TaskState,
};
use dmi_apps::AppKind;
use dmi_core::Dmi;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// One closed-loop task run, `TaskState::new` through `finish`.
pub struct TimedRun {
    pub trace: RunTrace,
    pub wall_ms: f64,
    launch_ms: f64,
    host_ms: f64,
    /// The GUI turns or DMI steps between the host call and verification.
    middle_ms: Vec<f64>,
    /// The two closing verification steps plus `finish`.
    verify_ms: f64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn run_timed(task: &AgentTask, dmi: Option<&Dmi>, cfg: &RunConfig) -> TimedRun {
    let t = Instant::now();
    let mut state = TaskState::new(task, cfg);
    let mut marks = vec![ms_since(t)];
    loop {
        let status = state.step(task, dmi);
        marks.push(ms_since(t));
        if status == StepStatus::Finished {
            break;
        }
    }
    let (trace, _session) = state.finish(task);
    let wall_ms = ms_since(t);
    // Every run has a host step, at least one middle step and two
    // verification steps.
    let steps: Vec<f64> = marks.windows(2).map(|w| w[1] - w[0]).collect();
    let k = steps.len();
    assert!(k >= 4, "task {} ran only {k} steps", task.id);
    TimedRun {
        trace,
        wall_ms,
        launch_ms: marks[0],
        host_ms: steps[0],
        middle_ms: steps[1..k - 2].to_vec(),
        verify_ms: steps[k - 2] + steps[k - 1] + (wall_ms - marks[k]),
    }
}

impl TimedRun {
    /// Adds this run's stage times and failure attribution to the layers.
    pub fn fold(&self, layers: &mut Layers) {
        layers.add("_runs", 1.0);
        layers.add("_launch_ms", self.launch_ms);
        layers.add("_host_ms", self.host_ms);
        layers.add("_verify_ms", self.verify_ms);
        let middle: f64 = self.middle_ms.iter().sum();
        let steps = self.middle_ms.len() as f64;
        if self.trace.mode == InterfaceMode::GuiPlusDmi {
            layers.add("_dmi_runs", 1.0);
            layers.add("_fallbacks", f64::from(u8::from(self.trace.fallback_used)));
            layers.add("_dmi_step_ms", middle);
            layers.add("_dmi_steps", steps);
        } else {
            layers.add("_gui_turn_ms", middle);
            layers.add("_gui_turns", steps);
        }
        match self.trace.failure.map(|c| c.level()) {
            Some(FailureLevel::Policy) => layers.add("agent.failures.policy", 1.0),
            Some(FailureLevel::Mechanism) => layers.add("agent.failures.mechanism", 1.0),
            None => {}
        }
    }
}

/// The GPT-5 (Medium) GUI-only and GUI+DMI runs among `traces` — the
/// paper's core setting, which every agent-level metric is computed on.
fn core_setting(traces: &[RunTrace], mode: InterfaceMode) -> Vec<RunTrace> {
    let medium = CapabilityProfile::gpt5_medium().label();
    traces.iter().filter(|t| t.profile == medium && t.mode == mode).cloned().collect()
}

/// The core setting's runs over the whole suite and the sample's run
/// seeds, each one `run_task` on the model of its task's app (`models`
/// in `AppKind::ALL` order).
pub fn core_sample(models: &[Arc<Dmi>], ctx: &Ctx) -> Vec<RunTrace> {
    let profile = CapabilityProfile::gpt5_medium();
    let mut traces = Vec::new();
    for mode in [InterfaceMode::GuiOnly, InterfaceMode::GuiPlusDmi] {
        for task in dmi_tasks::all_tasks() {
            let dmi = &models[AppKind::ALL.iter().position(|&k| k == task.app).expect("app")];
            for seed in ctx.sample_seeds() {
                let mut cfg = RunConfig::evaluation(profile.clone(), mode, seed);
                cfg.small_apps = ctx.tiny;
                traces.push(run_task(&task, Some(dmi), &cfg));
            }
        }
    }
    traces
}

/// Success rates, steps, one-shot share and tokens of the core-setting
/// runs among `traces`, computed the way `dmi_agent::aggregate` computes
/// Table 3.
pub fn agent_metrics(traces: &[RunTrace], m: &mut BTreeMap<&'static str, f64>) {
    let dmi = aggregate(&core_setting(traces, InterfaceMode::GuiPlusDmi));
    let gui = aggregate(&core_setting(traces, InterfaceMode::GuiOnly));
    m.insert("sr_dmi", dmi.sr * 100.0);
    m.insert("sr_gui", gui.sr * 100.0);
    m.insert("steps_dmi", dmi.avg_steps);
    m.insert("steps_gui", gui.avg_steps);
    m.insert("one_shot_dmi", dmi.one_shot_frac * 100.0);
    m.insert("tokens_dmi", dmi.avg_tokens);
}

/// Virtual-time metrics of core-setting runs made one after another by a
/// single client: no queueing, so latency is each run's simulated time.
pub fn closed_loop_virtual(traces: &[RunTrace], m: &mut BTreeMap<&'static str, f64>) -> String {
    let secs: Vec<f64> = core_setting(traces, InterfaceMode::GuiOnly)
        .iter()
        .chain(&core_setting(traces, InterfaceMode::GuiPlusDmi))
        .map(|t| t.sim_secs)
        .collect();
    virtual_latency(&secs, secs.iter().sum(), m)
}

/// Fills `vtput` and `vlat_p50_s` from per-task virtual latencies and
/// the virtual seconds they took in all; returns the printed-only tail.
pub fn virtual_latency(lat: &[f64], makespan: f64, m: &mut BTreeMap<&'static str, f64>) -> String {
    let (p, tail_s) = tail(lat);
    m.insert("vtput", if makespan > 0.0 { lat.len() as f64 / makespan } else { 0.0 });
    m.insert("vlat_p50_s", median(lat));
    format!("vlat_tail_s = {tail_s} s (p{p} of {} virtual task latencies)", lat.len())
}
