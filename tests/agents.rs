//! Agent-behavior integration: error injection, failure causes, step
//! caps, one-shot completion, and mode asymmetries.

use dmi_agent::{
    aggregate, run_task, FailureLevel, Gateway, GatewayConfig, InterfaceMode, RunConfig, RunTrace,
    ServeApp, ServeRequest,
};
use dmi_apps::AppKind;
use dmi_gui::Session;
use dmi_integration_tests::{dmi_models, perfect_profile};
use dmi_llm::CapabilityProfile;
use std::sync::Arc;

fn run_suite(profile: CapabilityProfile, mode: InterfaceMode, seeds: &[u64]) -> Vec<RunTrace> {
    let models = dmi_models();
    let mut out = Vec::new();
    for t in dmi_tasks::all_tasks() {
        for &seed in seeds {
            let cfg = RunConfig::test(profile.clone(), mode, seed);
            out.push(run_task(&t, models.get(t.app.name()), &cfg));
        }
    }
    out
}

#[test]
fn forced_policy_error_fails_with_policy_cause() {
    let mut p = perfect_profile();
    p.policy_err = 1.0;
    let traces = run_suite(p, InterfaceMode::GuiPlusDmi, &[0]);
    let agg = aggregate(&traces);
    assert_eq!(agg.sr, 0.0, "all plans corrupted");
    assert!(agg.policy_failure_frac() > 0.9, "causes should be policy-level");
}

#[test]
fn forced_grounding_errors_fail_mechanically_in_gui_only() {
    let mut p = perfect_profile();
    p.grounding_err = 0.9;
    p.recover_prob = 0.0;
    let traces = run_suite(p.clone(), InterfaceMode::GuiOnly, &[0]);
    let agg = aggregate(&traces);
    assert!(agg.sr < 0.1, "grounding failures should sink the baseline (sr={})", agg.sr);
    for cause in agg.failures.keys() {
        assert_eq!(cause.level(), FailureLevel::Mechanism, "{cause:?}");
    }
    // The same errors cannot hurt DMI: grounding is not sampled there.
    let traces = run_suite(p, InterfaceMode::GuiPlusDmi, &[0]);
    let agg = aggregate(&traces);
    assert!(agg.sr > 0.9, "DMI is immune to visual grounding (sr={})", agg.sr);
}

#[test]
fn recovery_costs_extra_steps_but_succeeds() {
    let mut flaky = perfect_profile();
    flaky.grounding_err = 0.25;
    flaky.recover_prob = 1.0;
    let clean = run_suite(perfect_profile(), InterfaceMode::GuiOnly, &[0]);
    let noisy = run_suite(flaky, InterfaceMode::GuiOnly, &[0]);
    let a_clean = aggregate(&clean);
    let a_noisy = aggregate(&noisy);
    // Recovery re-plans, but a wrong click may already have mutated the
    // document (cascading damage, §2.1): success is partial, not full.
    assert!(a_noisy.sr >= 0.4, "recovery keeps a good share alive (sr={})", a_noisy.sr);
    assert!(
        a_noisy.avg_steps > a_clean.avg_steps,
        "recovered errors cost round trips: {} vs {}",
        a_noisy.avg_steps,
        a_clean.avg_steps
    );
}

#[test]
fn instruction_noise_is_tolerated_by_dmi() {
    let mut p = perfect_profile();
    p.instruction_noise = 1.0;
    let traces = run_suite(p, InterfaceMode::GuiPlusDmi, &[0]);
    let agg = aggregate(&traces);
    assert!(agg.sr > 0.9, "filtering + structured errors absorb noise (sr={})", agg.sr);
}

#[test]
fn step_cap_is_respected() {
    let mut p = perfect_profile();
    p.grounding_err = 1.0;
    p.recover_prob = 1.0; // Recover forever: must hit the cap.
    let models = dmi_models();
    let t = dmi_tasks::task_by_id("word-bold-range").unwrap();
    let cfg = RunConfig::test(p, InterfaceMode::GuiOnly, 0);
    let trace = run_task(&t, models.get(t.app.name()), &cfg);
    assert!(!trace.success);
    assert!(trace.llm_calls <= 30, "cap violated: {}", trace.llm_calls);
}

#[test]
fn dmi_prompts_cost_more_tokens_per_call_but_fewer_calls() {
    let gui = run_suite(perfect_profile(), InterfaceMode::GuiOnly, &[0]);
    let dmi = run_suite(perfect_profile(), InterfaceMode::GuiPlusDmi, &[0]);
    let per_call_gui: f64 =
        gui.iter().map(|t| t.prompt_tokens as f64 / t.llm_calls as f64).sum::<f64>()
            / gui.len() as f64;
    let per_call_dmi: f64 =
        dmi.iter().map(|t| t.prompt_tokens as f64 / t.llm_calls as f64).sum::<f64>()
            / dmi.len() as f64;
    assert!(per_call_dmi > per_call_gui, "forest raises per-call context");
    let calls_gui: usize = gui.iter().map(|t| t.llm_calls).sum();
    let calls_dmi: usize = dmi.iter().map(|t| t.llm_calls).sum();
    assert!(calls_dmi < calls_gui, "declarative planning cuts round trips");
}

#[test]
fn seeds_are_reproducible() {
    let p = CapabilityProfile::gpt5_medium();
    let a = run_suite(p.clone(), InterfaceMode::GuiOnly, &[7]);
    let b = run_suite(p, InterfaceMode::GuiOnly, &[7]);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.success, y.success);
        assert_eq!(x.llm_calls, y.llm_calls);
        assert_eq!(x.failure, y.failure);
    }
}

#[test]
fn ablation_differs_from_baseline_only_in_prompt_and_policy() {
    let p = CapabilityProfile::gpt5_mini_medium();
    let base = run_suite(p.clone(), InterfaceMode::GuiOnly, &[0, 1]);
    let abl = run_suite(p, InterfaceMode::GuiPlusForest, &[0, 1]);
    let a_base = aggregate(&base);
    let a_abl = aggregate(&abl);
    // Forest knowledge raises per-run prompt tokens.
    assert!(a_abl.avg_tokens > a_base.avg_tokens);
    // And does not *hurt* the small model's success rate.
    assert!(a_abl.sr >= a_base.sr - 0.1, "{} vs {}", a_abl.sr, a_base.sr);
}

/// A request whose task targets another Office app than the pool's donor
/// (here the Word task `word-scroll-end` sent to an Excel pool) is refused
/// at admission with a fault naming both apps. No session is checked out
/// for it, and its siblings' traces match their sequential runs.
#[test]
fn gateway_refuses_a_task_for_another_app() {
    let cfg = |seed| RunConfig::test(perfect_profile(), InterfaceMode::GuiOnly, seed);
    let requests: Vec<ServeRequest> = ["excel-set-b2", "word-scroll-end", "excel-fill-yellow"]
        .iter()
        .enumerate()
        .map(|(i, id)| ServeRequest {
            tenant: format!("tenant-{i}"),
            app: "excel".into(),
            task: Arc::new(dmi_tasks::task_by_id(id).expect("task exists")),
            cfg: cfg(1 + i as u64),
        })
        .collect();
    let donor = Session::new(AppKind::Excel.launch_small());
    let mut gw = Gateway::new(
        vec![ServeApp::new("excel", donor, None)],
        GatewayConfig { workers: 1, sessions_per_app: 1, max_in_flight: 4 },
    );
    let report = gw.serve(requests.clone());
    assert_eq!((report.stats.completed, report.stats.faulted), (2, 1));
    assert_eq!(
        report.stats.session_forks, report.stats.completed,
        "no session is spent on the refused request"
    );
    assert!(report.outcomes[2].admit_vt > 0.0, "the cap holds the second sibling back");
    let refused = &report.outcomes[1];
    assert!(refused.trace.is_none());
    assert_eq!(
        refused.fault.as_deref(),
        Some("app `excel` runs Excel, but task `word-scroll-end` targets Word")
    );
    for i in [0, 2] {
        let want = run_task(&requests[i].task, None, &requests[i].cfg).identity_bytes();
        let got = report.outcomes[i].trace.as_ref().expect("sibling trace").identity_bytes();
        assert_eq!(got, want, "request {i}");
    }
}
