//! Unit-level agent tests on a minimal inline task (the full-suite
//! behaviour is covered by the workspace integration tests).

use dmi_agent::{
    run_task, AgentTask, Gateway, GatewayConfig, InterfaceMode, RunConfig, ServeApp, ServeRequest,
};
use dmi_apps::{AppKind, WordApp};
use dmi_llm::{CapabilityProfile, GuiStep, PlanStep, TargetQuery, TaskPlan, VisitTarget};
use std::any::Any;
use std::sync::Arc;

fn perfect() -> CapabilityProfile {
    let mut p = CapabilityProfile::gpt5_medium();
    p.policy_err = 0.0;
    p.dmi_mech_err = 0.0;
    p.grounding_err = 0.0;
    p.composite_err = 0.0;
    p.instruction_noise = 0.0;
    p
}

/// A two-action task whose GUI actions are co-visible from the start
/// (both live on the Home tab), so a wide action-sequence horizon can
/// bundle them into one turn.
fn bold_italic_task() -> AgentTask {
    AgentTask {
        id: "unit-bold-italic".into(),
        app: AppKind::Word,
        description: "Make the first paragraph bold and italic.".into(),
        setup: Some(|s| {
            let surf = s.app().tree().find_by_automation_id("Body").unwrap();
            s.select_lines(surf, 0, 0).unwrap();
        }),
        verify: |s| {
            let w = (s.app() as &dyn Any).downcast_ref::<WordApp>().unwrap();
            w.doc.paragraphs[0].format.bold && w.doc.paragraphs[0].format.italic
        },
        plan: TaskPlan {
            dmi: vec![PlanStep::Visit(vec![
                VisitTarget::click(TargetQuery::under("Bold", "Font")),
                VisitTarget::click(TargetQuery::under("Italic", "Font")),
            ])],
            gui: vec![
                GuiStep::Click(TargetQuery::under("Bold", "Font")),
                GuiStep::Click(TargetQuery::under("Italic", "Font")),
            ],
        },
        mutations: vec![dmi_llm::PlanMutation::DropLast],
    }
}

#[test]
fn wide_horizon_bundles_covisible_actions() {
    let task = bold_italic_task();
    let mut narrow = perfect();
    narrow.gui_bundle_limit = 1;
    let mut wide = perfect();
    wide.gui_bundle_limit = 4;
    let t_narrow = run_task(&task, None, &RunConfig::test(narrow, InterfaceMode::GuiOnly, 0));
    let t_wide = run_task(&task, None, &RunConfig::test(wide, InterfaceMode::GuiOnly, 0));
    assert!(t_narrow.success && t_wide.success);
    // Narrow horizon: host + 2 action turns + 2 verify = 5.
    assert_eq!(t_narrow.llm_calls, 5);
    // Wide horizon: both actions ride one action sequence (UFO2-as).
    assert_eq!(t_wide.llm_calls, 4);
}

#[test]
fn dmi_run_is_single_core_call_either_way() {
    let task = bold_italic_task();
    let mut s = dmi_gui::Session::new(AppKind::Word.launch_small());
    let (dmi, _) = dmi_core::Dmi::build(&mut s, &dmi_core::DmiBuildConfig::office("Word"));
    let dmi = std::sync::Arc::new(dmi);
    let trace =
        run_task(&task, Some(&dmi), &RunConfig::test(perfect(), InterfaceMode::GuiPlusDmi, 0));
    assert!(trace.success);
    assert_eq!(trace.llm_calls, 4, "one visit call for both targets");
    assert_eq!(trace.core_calls, 1);
}

#[test]
fn trace_records_mode_profile_and_tokens() {
    let task = bold_italic_task();
    let trace = run_task(&task, None, &RunConfig::test(perfect(), InterfaceMode::GuiOnly, 9));
    assert_eq!(trace.mode, InterfaceMode::GuiOnly);
    assert_eq!(trace.profile, "GPT-5 (Medium)");
    assert_eq!(trace.seed, 9);
    assert!(trace.prompt_tokens > 1000, "prompts accounted: {}", trace.prompt_tokens);
    assert!(trace.sim_secs > 0.0);
    assert!(!trace.fallback_used);
}

/// `GatewayConfig::workers` is ignored, so one serve covers every worker
/// count.
#[test]
fn gateway_traces_match_sequential_runs_at_any_worker_count() {
    let task = Arc::new(bold_italic_task());
    let mut s = dmi_gui::Session::new(AppKind::Word.launch_small());
    let (dmi, _) = dmi_core::Dmi::build(&mut s, &dmi_core::DmiBuildConfig::office("Word"));
    let dmi = Arc::new(dmi);

    // Three tenants, mixed modes and seeds, all against one shared app.
    let requests: Vec<ServeRequest> = (0..6u64)
        .map(|i| ServeRequest {
            tenant: format!("tenant-{}", i % 3),
            app: "word".into(),
            task: Arc::clone(&task),
            cfg: RunConfig::test(
                perfect(),
                if i % 2 == 0 { InterfaceMode::GuiPlusDmi } else { InterfaceMode::GuiOnly },
                i,
            ),
        })
        .collect();

    let sequential: Vec<String> =
        requests.iter().map(|r| run_task(&r.task, Some(&dmi), &r.cfg).identity_bytes()).collect();

    let donor = dmi_gui::Session::new(AppKind::Word.launch_small());
    let mut gw = Gateway::new(
        vec![ServeApp::new("word", donor, Some(Arc::clone(&dmi)))],
        GatewayConfig { workers: 1, sessions_per_app: 2, max_in_flight: 4 },
    );
    let report = gw.serve(requests);
    assert_eq!(report.stats.completed, 6);
    assert_eq!(report.stats.faulted, 0);
    assert_eq!(
        report.stats.session_forks, report.stats.completed,
        "every task runs on its own fresh fork"
    );
    for (outcome, expect) in report.outcomes.iter().zip(&sequential) {
        let got = outcome.trace.as_ref().expect("trace present").identity_bytes();
        assert_eq!(&got, expect, "tenant={}", outcome.tenant);
    }
    // Overlapping rounds: the virtual makespan undercuts the serialized
    // baseline whenever two tasks ever share a round.
    assert!(report.stats.virtual_secs < report.stats.serialized_secs);
    assert!(report.latency_percentile(99.0) >= report.latency_percentile(50.0));
}

/// A request to an app whose donor cannot fork is refused at admission
/// with a fault naming the app: no session is ever checked out, and the
/// serve terminates.
#[test]
fn gateway_refuses_requests_to_an_unforkable_app() {
    let task = Arc::new(bold_italic_task());
    let requests: Vec<ServeRequest> = (0..3u64)
        .map(|i| ServeRequest {
            tenant: format!("tenant-{i}"),
            app: "menu".into(),
            task: Arc::clone(&task),
            cfg: RunConfig::test(perfect(), InterfaceMode::GuiOnly, i),
        })
        .collect();
    let donor = dmi_gui::Session::new(Box::new(dmi_apps::testkit::UnforkableApp::new(3)));
    let mut gw = Gateway::new(
        vec![ServeApp::new("menu", donor, None)],
        GatewayConfig { workers: 1, sessions_per_app: 1, max_in_flight: 4 },
    );
    let report = gw.serve(requests);
    assert_eq!((report.stats.completed, report.stats.faulted), (0, 3));
    assert_eq!(report.stats.session_forks, 0, "nothing forked off an unforkable app");
    for outcome in &report.outcomes {
        assert!(outcome.trace.is_none());
        assert_eq!(outcome.fault.as_deref(), Some("app `menu` cannot fork sessions"));
    }
}

/// A GUI+DMI request to an app served without a DMI model is refused at
/// admission with a fault naming the app: no session is checked out for
/// it, and its GUI-only siblings each run on their own fork, one at a
/// time under the cap of one session.
#[test]
fn gateway_rejects_gui_plus_dmi_requests_to_an_app_without_a_model() {
    let task = Arc::new(bold_italic_task());
    let requests: Vec<ServeRequest> = (0..3u64)
        .map(|i| ServeRequest {
            tenant: format!("tenant-{i}"),
            app: "word".into(),
            task: Arc::clone(&task),
            cfg: RunConfig::test(
                perfect(),
                if i == 0 { InterfaceMode::GuiPlusDmi } else { InterfaceMode::GuiOnly },
                i,
            ),
        })
        .collect();
    let donor = dmi_gui::Session::new(AppKind::Word.launch_small());
    let mut gw = Gateway::new(
        vec![ServeApp::new("word", donor, None)],
        GatewayConfig { workers: 1, sessions_per_app: 1, max_in_flight: 4 },
    );
    let report = gw.serve(requests);
    assert_eq!(report.stats.completed, 2);
    assert_eq!(report.stats.faulted, 1);
    assert_eq!(
        report.stats.session_forks, report.stats.completed,
        "no session is spent on the refused request"
    );
    assert!(report.outcomes[2].admit_vt > 0.0, "the cap holds the second sibling back");
    let refused = &report.outcomes[0];
    assert!(refused.trace.is_none());
    assert_eq!(
        refused.fault.as_deref(),
        Some("app `word` has no DMI model for a GUI+DMI request"),
        "the fault names the app"
    );
}

/// A task whose verifier or setup panics faults only its own request:
/// both run under the same containment as steps, and the siblings'
/// traces still match their sequential runs.
#[test]
fn gateway_contains_panicking_verifiers_and_setups() {
    let good = Arc::new(bold_italic_task());
    let mut bad_verify = bold_italic_task();
    bad_verify.verify = |_| panic!("injected fault: verifier dies");
    let mut bad_setup = bold_italic_task();
    bad_setup.setup = Some(|_| panic!("injected fault: setup dies"));
    let tasks = [Arc::clone(&good), Arc::new(bad_verify), Arc::clone(&good), Arc::new(bad_setup)];
    let requests: Vec<ServeRequest> = tasks
        .iter()
        .enumerate()
        .map(|(i, task)| ServeRequest {
            tenant: format!("tenant-{i}"),
            app: "word".into(),
            task: Arc::clone(task),
            cfg: RunConfig::test(perfect(), InterfaceMode::GuiOnly, i as u64),
        })
        .collect();
    let donor = dmi_gui::Session::new(AppKind::Word.launch_small());
    let mut gw = Gateway::new(
        vec![ServeApp::new("word", donor, None)],
        GatewayConfig { workers: 1, sessions_per_app: 2, max_in_flight: 4 },
    );
    let report = gw.serve(requests.clone());
    assert_eq!((report.stats.completed, report.stats.faulted), (2, 2));
    assert_eq!(report.outcomes[1].fault.as_deref(), Some("injected fault: verifier dies"));
    assert_eq!(report.outcomes[3].fault.as_deref(), Some("injected fault: setup dies"));
    for i in [0, 2] {
        let want = run_task(&requests[i].task, None, &requests[i].cfg).identity_bytes();
        let got = report.outcomes[i].trace.as_ref().expect("sibling trace").identity_bytes();
        assert_eq!(got, want, "request {i}");
    }
}

#[test]
fn gui_plus_forest_requires_no_dmi_but_uses_its_tokens() {
    let task = bold_italic_task();
    let mut s = dmi_gui::Session::new(AppKind::Word.launch_small());
    let (dmi, _) = dmi_core::Dmi::build(&mut s, &dmi_core::DmiBuildConfig::office("Word"));
    let dmi = std::sync::Arc::new(dmi);
    let with =
        run_task(&task, Some(&dmi), &RunConfig::test(perfect(), InterfaceMode::GuiPlusForest, 0));
    let without = run_task(&task, None, &RunConfig::test(perfect(), InterfaceMode::GuiOnly, 0));
    assert!(with.success && without.success);
    assert!(
        with.prompt_tokens > without.prompt_tokens + 1000,
        "forest knowledge inflates prompts: {} vs {}",
        with.prompt_tokens,
        without.prompt_tokens
    );
}
