//! Adversarial determinism fuzzing (tier-1 smoke + release-gated long
//! runs).
//!
//! Each fault class in [`FaultPlan`] gets a seeded test proving two
//! things: the designated differential oracle *flags* the fault, and
//! delta-debugging the generating op sequence converges on a minimal
//! reproducer (≤ 12 actions). A fleet-level test injects a panicking
//! app next to healthy ones and checks per-entry fault containment.
//! Clean (fault-free) specs must pass every oracle — the determinism
//! contract itself (`docs/determinism.md`) — checked over a seeded
//! corpus: a small smoke here, hundreds of seeds in the release-gated
//! `#[ignore]` runs. A seeded input fuzz drives random `visit` command
//! arrays through `Dmi::visit_json` on the small Office models: every
//! one must return a typed outcome, 501 in the smoke and 10,002 in the
//! `#[ignore]`d run.

use dmi_core::fuzz::{
    check_cached_capture, check_esc_recovery, check_fleet, check_spec, shrink_ops,
    silence_injected_panics, AdversarialApp, AppSpec, ArenaOp, FaultPlan,
};
use dmi_core::ripper::rip;
use dmi_core::{rip_fleet, FleetEntry, ParRipConfig, RipConfig, RipError, RipStatus, Ung};
use dmi_gui::Session;
use dmi_integration_tests::{dmi_models, SplitMix};
use proptest::prelude::*;

/// Canonical UNG bytes — the representation every oracle pins.
fn bytes(g: &Ung) -> String {
    serde_json::to_string(g).expect("UNGs serialize")
}

/// Sequential reference rip of a spec.
fn rip_seq(spec: &AppSpec) -> Ung {
    let mut s = Session::new(AdversarialApp::launch(spec.clone()));
    rip(&mut s, &RipConfig::default()).0
}

/// Shrinks a flagged spec and asserts the reproducer is minimal enough
/// and still flagged.
fn assert_shrinks(
    base: &AppSpec,
    oracle: impl Fn(&AppSpec) -> bool,
    extra: impl Fn(&[ArenaOp]) -> bool,
) -> Vec<ArenaOp> {
    assert!(oracle(base), "the full spec must be flagged before shrinking");
    let faults = base.faults;
    let min =
        shrink_ops(&base.ops, |ops| extra(ops) && oracle(&AppSpec { ops: ops.to_vec(), faults }));
    assert!(
        min.len() <= 12,
        "reproducer must shrink to <= 12 actions, got {} ({min:?})",
        min.len()
    );
    assert!(
        oracle(&AppSpec { ops: min.clone(), faults }),
        "the shrunk reproducer must still be flagged: {min:?}"
    );
    min
}

/// A base spec guaranteed to exercise restarts, Esc recovery, dialogs,
/// tabs, and repeated command dispatch, prepended with seeded noise so
/// the shrinker has real work to do.
fn noisy(seed: u64, trigger: &[ArenaOp]) -> Vec<ArenaOp> {
    let mut ops = AppSpec::generate(seed, 24).ops;
    ops.extend_from_slice(trigger);
    ops
}

// ---------------------------------------------------------------------
// Per-fault-class: the oracle flags it, the reproducer shrinks.
// ---------------------------------------------------------------------

/// Every reset leaks state while the app keeps attesting its pristine
/// token: each restart adopts the stashed launch capture into the MRU
/// cache, which then serves stale bytes, caught against full rebuilds.
#[test]
fn fault_lying_reset_flagged_and_shrunk() {
    let faults = FaultPlan { lying_reset: true, ..FaultPlan::default() };
    // Tabs poison Esc recovery for the following non-tab candidate, so
    // the rip restarts repeatedly — each restart leaks.
    let trigger =
        [ArenaOp::Button(0), ArenaOp::Tab(1), ArenaOp::Pop, ArenaOp::Tab(2), ArenaOp::Pop];
    let base = AppSpec { ops: noisy(22, &trigger), faults };
    assert_shrinks(&base, |s| check_cached_capture(s).is_some(), |_| true);
}

/// A widget is relabeled without bumping the epoch stamps the MRU cache
/// trusts; cached rips keep serving the old bytes.
#[test]
fn fault_unstamped_relabel_flagged_and_shrunk() {
    let faults = FaultPlan { unstamped_relabel_after: Some(2), ..FaultPlan::default() };
    // A flat button arena: the relabel lands during the second button
    // click with the main window visible, so the rebuild rip must see
    // it while cached stamps claim nothing changed. Flat specs are
    // explore-order-insensitive, keeping the trigger deterministic.
    let base = AppSpec { ops: (0..16).map(ArenaOp::Button).collect(), faults };
    assert_shrinks(&base, |s| check_cached_capture(s).is_some(), |_| true);
}

/// Cancel-closing a window mutates the main window unstamped: Esc-based
/// recovery accumulates state a full restart never sees.
#[test]
fn fault_esc_side_effect_flagged_and_shrunk() {
    let faults = FaultPlan { esc_side_effect: true, ..FaultPlan::default() };
    // A leading button keeps the mangled control off every click path,
    // so the mangle survives to the captures. Clicking the dialog's
    // cancel button runs the side effect *during* the click; the mangle
    // counter then differs between Esc recovery (accumulates) and
    // restart-replay (reset each time), and the bytes follow.
    let trigger = [ArenaOp::Button(9), ArenaOp::Dialog(0), ArenaOp::Button(1)];
    let mut ops = trigger.to_vec();
    ops.extend((10..24).map(ArenaOp::Button));
    let base = AppSpec { ops, faults };
    assert_shrinks(&base, |s| check_esc_recovery(s).is_some(), |_| true);
}

/// The app panics mid-dispatch; the fleet contains the panic as a
/// per-entry failure, which the fleet oracle reports.
#[test]
fn fault_worker_panic_flagged_and_shrunk() {
    silence_injected_panics();
    let faults = FaultPlan { panic_on_click: Some(1), ..FaultPlan::default() };
    let base = AppSpec { ops: noisy(55, &[ArenaOp::Button(7)]), faults };
    let min = assert_shrinks(&base, |s| check_fleet(std::slice::from_ref(s)).is_some(), |_| true);
    assert_eq!(min.len(), 1, "one dispatching control suffices to trigger the panic");
}

// ---------------------------------------------------------------------
// Fleet fault containment: faulty entries fail alone.
// ---------------------------------------------------------------------

/// One panicking app between two healthy apps: per-entry outcomes,
/// healthy UNGs byte-identical to their sequential rips, the faulty
/// entry failed in place, no process abort, no wrong bytes anywhere.
#[test]
fn fault_injected_fleet_is_contained_per_entry() {
    silence_injected_panics();
    let healthy_a = AppSpec::generate(101, 14);
    let healthy_b = AppSpec::generate(202, 14);
    let panicky = AppSpec {
        ops: noisy(303, &[ArenaOp::Button(0)]),
        faults: FaultPlan { panic_on_click: Some(1), ..FaultPlan::default() },
    };

    let mut entries: Vec<FleetEntry> =
        [("healthy-a", &healthy_a), ("panicky", &panicky), ("healthy-b", &healthy_b)]
            .into_iter()
            .map(|(id, spec)| {
                FleetEntry::new(
                    id,
                    Session::new(AdversarialApp::launch(spec.clone())),
                    RipConfig::default(),
                )
            })
            .collect();
    let out = rip_fleet(&mut entries, &ParRipConfig);
    assert_eq!(out.len(), 3);

    for (spec, idx) in [(&healthy_a, 0usize), (&healthy_b, 2)] {
        assert_eq!(
            out[idx].status,
            RipStatus::Ripped,
            "healthy entry '{}' must not be dragged down by a faulty sibling",
            out[idx].app_id
        );
        assert_eq!(
            bytes(&out[idx].graph),
            bytes(&rip_seq(spec)),
            "healthy entry '{}' must stay byte-identical to its sequential rip",
            out[idx].app_id
        );
    }

    match out[1].error().expect("the panic must be reported") {
        RipError::WorkerPanic { app_id, payload } => {
            assert_eq!(app_id, "panicky");
            assert!(payload.contains("injected fault"), "payload preserved, got: {payload}");
        }
    }
    assert!(matches!(out[1].status, RipStatus::Failed(_)));
    assert_eq!(bytes(&out[1].graph), bytes(&Ung::new()), "a failed entry has an empty graph");
}

/// Gateway fault containment: an executor-visit task against a
/// [`FaultPlan`]-drifting adversarial app runs through the multi-tenant
/// gateway next to healthy Office tenants. The drifting tenant's fault
/// stays contained — its task dies cleanly with the panic payload
/// reported per-outcome — while every sibling tenant's [`RunTrace`]
/// stays byte-identical to its solo sequential run.
#[test]
fn fault_drifting_tenant_is_contained_in_the_gateway() {
    use dmi_agent::{
        Gateway, GatewayConfig, InterfaceMode, RunConfig, ServeApp, ServeRequest, TaskState,
    };
    use dmi_llm::{CapabilityProfile, GuiStep, TargetQuery, TaskPlan};
    use std::sync::Arc;

    silence_injected_panics();

    // Every session of this app panics on its first command dispatch —
    // the executor's visit click detonates it mid-task.
    let spec = AppSpec {
        ops: (0..6).map(ArenaOp::Button).collect(),
        faults: FaultPlan { panic_on_click: Some(1), ..FaultPlan::default() },
    };

    // The adversarial task clicks arena buttons GUI-style. `app` (an
    // AppKind) is a placeholder: the gateway draws sessions from the
    // named `ServeApp` donor, never from the task's own launcher.
    let adversarial_task = Arc::new(dmi_agent::AgentTask {
        id: "fuzz-drift-visit".into(),
        app: dmi_apps::AppKind::Word,
        description: "Click two arena buttons.".into(),
        setup: None,
        verify: |_| false,
        plan: TaskPlan {
            dmi: vec![dmi_llm::PlanStep::Visit(vec![dmi_llm::VisitTarget::click(
                TargetQuery::name("Button 0"),
            )])],
            gui: vec![
                GuiStep::Click(TargetQuery::name("Button 0")),
                GuiStep::Click(TargetQuery::name("Button 1")),
            ],
        },
        mutations: vec![dmi_llm::PlanMutation::DropLast],
    });

    let perfect = {
        let mut p = CapabilityProfile::gpt5_medium();
        p.policy_err = 0.0;
        p.grounding_err = 0.0;
        p.composite_err = 0.0;
        p.instruction_noise = 0.0;
        p
    };
    let office_task =
        Arc::new(dmi_tasks::task_by_id("ppt-background-all").expect("suite task exists"));
    let requests: Vec<ServeRequest> = vec![
        ServeRequest {
            tenant: "healthy-1".into(),
            app: "PowerPoint".into(),
            task: Arc::clone(&office_task),
            cfg: RunConfig::test(perfect.clone(), InterfaceMode::GuiOnly, 3),
        },
        ServeRequest {
            tenant: "drifter".into(),
            app: "adversarial".into(),
            task: Arc::clone(&adversarial_task),
            cfg: RunConfig::test(perfect.clone(), InterfaceMode::GuiOnly, 1),
        },
        ServeRequest {
            tenant: "healthy-2".into(),
            app: "PowerPoint".into(),
            task: Arc::clone(&office_task),
            cfg: RunConfig::test(perfect.clone(), InterfaceMode::GuiOnly, 7),
        },
    ];

    // Solo references for the healthy tenants (sequential, own session).
    let expected: Vec<String> = requests
        .iter()
        .filter(|r| r.app == "PowerPoint")
        .map(|r| dmi_agent::run_task(&r.task, None, &r.cfg).identity_bytes())
        .collect();
    // Solo reference for the drifting tenant, driven through the same
    // resumable machine on a fresh adversarial fork: it panics.
    let solo_drift = {
        let donor = Session::new(AdversarialApp::launch(spec.clone()));
        let cfg = RunConfig::test(perfect.clone(), InterfaceMode::GuiOnly, 1);
        let fork =
            donor.fork_from_pristine(cfg.instability_model()).expect("adversarial apps fork");
        let mut state = TaskState::with_session(&adversarial_task, fork, &cfg);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            while state.step(&adversarial_task, None) == dmi_agent::StepStatus::Running {}
        }))
    };
    assert!(solo_drift.is_err(), "the drifting app must panic on the visit click");

    let mut gw = Gateway::new(
        vec![
            ServeApp::new(
                "PowerPoint",
                Session::new(dmi_apps::AppKind::PowerPoint.launch_small()),
                None,
            ),
            ServeApp::new("adversarial", Session::new(AdversarialApp::launch(spec)), None),
        ],
        GatewayConfig { workers: 1, sessions_per_app: 2, max_in_flight: 4 },
    );
    let report = gw.serve(requests);

    assert_eq!(report.stats.completed, 2, "both healthy tenants complete");
    assert_eq!(report.stats.faulted, 1, "exactly the drifting tenant dies");

    let drift = &report.outcomes[1];
    assert_eq!(drift.tenant, "drifter");
    assert!(drift.trace.is_none(), "a panicked task yields no trace");
    let fault = drift.fault.as_ref().expect("the panic payload is reported");
    assert!(fault.contains("injected fault"), "payload preserved, got: {fault}");

    for (o, want) in [&report.outcomes[0], &report.outcomes[2]].iter().zip(&expected) {
        let got = o.trace.as_ref().expect("healthy trace").identity_bytes();
        assert_eq!(
            &got, want,
            "healthy tenant '{}' must stay byte-identical to its solo run",
            o.tenant
        );
    }
}

// ---------------------------------------------------------------------
// Clean specs: the determinism contract holds on every axis.
// ---------------------------------------------------------------------

/// Byte-identity between solo and fleet rips for a range of seeded
/// random clean apps. Fleet runs batch four specs per fleet.
fn assert_identity_for_seeds(seeds: std::ops::Range<u64>) {
    let specs: Vec<AppSpec> = seeds.map(|s| AppSpec::generate(s, 20)).collect();
    let reference: Vec<String> = specs.iter().map(|s| bytes(&rip_seq(s))).collect();
    for (chunk, expectations) in specs.chunks(4).zip(reference.chunks(4)) {
        let mut entries: Vec<FleetEntry> = chunk
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                FleetEntry::new(
                    format!("app-{i}"),
                    Session::new(AdversarialApp::launch(spec.clone())),
                    RipConfig::default(),
                )
            })
            .collect();
        let out = rip_fleet(&mut entries, &ParRipConfig);
        for ((o, expect), spec) in out.iter().zip(expectations).zip(chunk) {
            assert_eq!(o.error(), None, "no oracle may fire on a clean spec {spec:?}");
            assert_eq!(&bytes(&o.graph), expect, "fleet rip diverged for spec {spec:?}");
        }
    }
}

/// Tier-1 smoke: a small seeded corpus, debug-friendly.
#[test]
fn clean_specs_rip_identically_smoke() {
    assert_identity_for_seeds(0..24);
}

/// Release-gated long run (`cargo test --release -- --ignored`): the
/// acceptance corpus, ≥200 seeded random apps.
#[test]
#[ignore = "long corpus; run with --release -- --ignored"]
fn clean_specs_rip_identically_200_seeds() {
    assert_identity_for_seeds(1000..1208);
}

/// Release-gated: every oracle (capture caches and Esc recovery
/// included) stays quiet across a seeded clean corpus.
#[test]
#[ignore = "long corpus; run with --release -- --ignored"]
fn clean_specs_pass_every_oracle_100_seeds() {
    for seed in 2000..2100u64 {
        let spec = AppSpec::generate(seed, 20);
        assert_eq!(check_spec(&spec), None, "clean spec from seed {seed} diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Structured generation through the shrink-friendly raw encoding:
    /// arbitrary op sequences (degenerate nesting included) must pass
    /// every oracle as long as no fault is armed.
    #[test]
    fn random_clean_specs_pass_every_oracle(raw in proptest::collection::vec((0u8..6, 0u16..5), 1..20)) {
        let spec = AppSpec::from_raw(&raw);
        prop_assert!(check_spec(&spec).is_none(), "clean spec diverged: {:?}", spec.ops);
    }
}

// ---------------------------------------------------------------------
// `visit` input fuzz: any command array is a typed outcome.
// ---------------------------------------------------------------------

/// Node ids a fuzzed command draws from: functional leaves (the ids a
/// `visit` executes) and reference nodes (the valid entry references).
struct FuzzIds {
    len: usize,
    leaves: Vec<usize>,
    refs: Vec<usize>,
}

impl FuzzIds {
    fn of(forest: &dmi_core::Forest) -> FuzzIds {
        let leaves = (0..forest.len()).filter(|&id| forest.is_functional_leaf(id)).collect();
        FuzzIds { len: forest.len(), leaves, refs: forest.entry_map.keys().copied().collect() }
    }

    /// One JSON value for an id-like field: mostly a leaf, a reference
    /// or any node, sometimes an off-by-one, a huge or negative integer,
    /// or the wrong type.
    fn value(&self, rng: &mut SplitMix) -> String {
        let n = self.len;
        let pick = |ids: &[usize], rng: &mut SplitMix| match ids.len() {
            0 => n.to_string(),
            k => ids[rng.below(k)].to_string(),
        };
        match rng.below(16) {
            0..=6 => pick(&self.leaves, rng),
            7 | 8 => pick(&self.refs, rng),
            9 | 10 => rng.below(n).to_string(),
            11 => [n, n + 1, usize::MAX][rng.below(3)].to_string(),
            12 => [u64::MAX.to_string(), i64::MAX.to_string(), "1e30".into()][rng.below(3)].clone(),
            13 => ["-1", "-9223372036854775808", "-0"][rng.below(3)].to_string(),
            _ => ["3.5", "\"7\"", "null", "true", "[]", "{}"][rng.below(6)].to_string(),
        }
    }

    /// A JSON list of zero to three id values.
    fn list(&self, rng: &mut SplitMix) -> String {
        let ids: Vec<String> = (0..rng.below(4)).map(|_| self.value(rng)).collect();
        format!("[{}]", ids.join(", "))
    }

    /// One random `visit` command array: mostly node accesses (with or
    /// without text, `enforced` and entry references of every shape),
    /// some shortcuts and queries, unknown keys, non-object items, and
    /// now and then a document that is not an array or not JSON at all.
    fn commands(&self, rng: &mut SplitMix) -> String {
        match rng.below(50) {
            0 => return "{\"id\": 1}".into(),
            1 => return "[{\"id\": ".into(),
            2 => return "[]".into(),
            _ => {}
        }
        let items: Vec<String> = (0..1 + rng.below(4))
            .map(|_| {
                let mut fields = Vec::new();
                match rng.below(20) {
                    0 => return ["1", "\"click\"", "null", "[[]]", "{}"][rng.below(5)].into(),
                    1 | 2 => {
                        let key = ["\"Esc\"", "\"Enter\"", "\"Ctrl+B\"", "\"\"", "42"];
                        fields.push(format!("\"shortcut_key\": {}", key[rng.below(5)]));
                    }
                    3 => {
                        let ids = if rng.below(2) == 0 { self.list(rng) } else { self.value(rng) };
                        fields.push(format!("\"further_query\": {ids}"));
                    }
                    _ => {
                        fields.push(format!("\"id\": {}", self.value(rng)));
                        if rng.below(3) == 0 {
                            let refs =
                                if rng.below(2) == 0 { self.list(rng) } else { self.value(rng) };
                            fields.push(format!("\"entry_ref_id\": {refs}"));
                        }
                        if rng.below(5) == 0 {
                            let text = ["\"\"", "\"hello\"", "\"12\"", "7"][rng.below(4)];
                            fields.push(format!("\"text\": {text}"));
                        }
                        if rng.below(6) == 0 {
                            let on = ["true", "false", "1"][rng.below(3)];
                            fields.push(format!("\"enforced\": {on}"));
                        }
                    }
                }
                if rng.below(10) == 0 {
                    fields.push("\"bogus\": 0".into());
                }
                format!("{{{}}}", fields.join(", "))
            })
            .collect();
        format!("[{}]", items.join(", "))
    }
}

/// Drives `inputs` random command arrays through [`dmi_core::Dmi::visit_json`]
/// on each small Office app's model, restarting the session every 16
/// inputs. Every input must return a [`dmi_core::VisitOutcome`] (its
/// error, if any, a typed [`dmi_core::DmiError`]); a panic names the
/// input that caused it. Returns how many outcomes carried an error.
fn fuzz_visit_json(inputs: usize, seed: u64) -> usize {
    let mut rng = SplitMix(seed);
    let mut errors = 0;
    for kind in dmi_apps::AppKind::ALL {
        let dmi = &dmi_models()[kind.name()];
        let ids = FuzzIds::of(&dmi.forest);
        let mut session = Session::new(kind.launch_small());
        for input in 0..inputs / 3 {
            if input % 16 == 0 {
                session.restart();
            }
            let json = ids.commands(&mut rng);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                dmi.visit_json(&mut session, &json)
            }))
            .unwrap_or_else(|_| panic!("{kind} input {input}: visit_json panicked on {json}"));
            errors += usize::from(!outcome.ok());
        }
    }
    errors
}

/// `visit` fuzz smoke: 501 random command arrays over the three small
/// Office models, never a panic.
#[test]
fn random_visit_commands_return_typed_outcomes() {
    let errors = fuzz_visit_json(501, 1);
    assert!(errors > 0 && errors < 501, "both outcomes occur: {errors} errors");
}

/// The long `visit` fuzz: 10,002 random command arrays.
#[test]
#[ignore = "long corpus; run with --release -- --ignored"]
fn random_visit_commands_return_typed_outcomes_10k() {
    let errors = fuzz_visit_json(10_002, 2);
    assert!(errors > 0 && errors < 10_002, "both outcomes occur: {errors} errors");
}
