//! The control-identity layer: `ControlKey` stability, indexed resolution
//! equivalence with the old linear scan, pinned rip capture counts,
//! launch-image forks equal to freshly constructed apps, launch captures
//! shared by forks and equal to full rebuilds, the layout pin over seeded
//! input walks, and the agent trace pin over the Table 3 grid.

use dmi_agent::RunConfig;
use dmi_apps::model::sheet::Addr;
use dmi_apps::{
    AppKind, ExcelApp, ExcelConfig, PowerPointApp, PowerPointConfig, WordApp, WordConfig,
};
use dmi_core::ripper::{rip, RipConfig};
use dmi_core::{rip_fleet, Dmi, DmiBuildConfig, FleetEntry, ParRipConfig};
use dmi_gui::{Behavior, CaptureConfig, GuiApp, InstabilityModel, Session, Widget, WidgetId};
use dmi_integration_tests::{fnv1a, Fnv1a, SplitMix};
use dmi_llm::{CapabilityProfile, InterfaceMode};
use dmi_uia::{ControlId, ControlKey, ControlType, PatternKind, Snapshot};
use std::any::Any;
use std::sync::Arc;

/// The ancestor path computed the pre-index way: walk parents, join names.
fn walked_path(snap: &Snapshot, idx: usize) -> String {
    let mut names: Vec<&str> = Vec::new();
    let mut cur = snap.node(idx).parent;
    while let Some(p) = cur {
        let name = &snap.node(p).props.name;
        names.push(if name.is_empty() { "[Unnamed]" } else { name });
        cur = snap.node(p).parent;
    }
    names.reverse();
    names.join("/")
}

/// The resolver this PR replaced: a full arena scan with per-candidate
/// path recomputation. Kept here as the equivalence oracle.
fn linear_resolve(snap: &Snapshot, cid: &ControlId) -> Option<usize> {
    (0..snap.len()).find(|&i| {
        let props = &snap.node(i).props;
        props.primary_id() == cid.primary
            && props.control_type == cid.control_type
            && walked_path(snap, i) == cid.ancestor_path
    })
}

#[test]
fn indexed_resolve_matches_linear_scan_on_all_small_apps() {
    for kind in AppKind::ALL {
        let mut s = Session::new(kind.launch_small());
        let snap = s.snapshot();
        for (i, _) in snap.iter() {
            let cid = snap.control_id(i);
            assert_eq!(
                snap.resolve(&cid),
                linear_resolve(&snap, &cid),
                "{}: node {i} ({})",
                kind.name(),
                cid
            );
        }
        // Identifiers that exist nowhere must miss in both.
        let ghost = ControlId {
            primary: "No Such Control".into(),
            control_type: dmi_uia::ControlType::Button,
            ancestor_path: "Nowhere/At All".into(),
        };
        assert_eq!(snap.resolve(&ghost), None);
        assert_eq!(linear_resolve(&snap, &ghost), None);
    }
}

#[test]
fn cached_paths_match_walked_paths_on_all_small_apps() {
    for kind in AppKind::ALL {
        let mut s = Session::new(kind.launch_small());
        let snap = s.snapshot();
        for (i, _) in snap.iter() {
            assert_eq!(snap.ancestor_path(i), walked_path(&snap, i), "{}: node {i}", kind.name());
        }
    }
}

#[test]
fn control_keys_stable_across_snapshots_of_same_ui() {
    let mut s = Session::new(AppKind::Word.launch_small());
    let a = s.snapshot();
    let b = s.snapshot();
    let key_by_runtime = |snap: &Snapshot| {
        snap.iter()
            .map(|(i, n)| (n.runtime_id, snap.control_key(i)))
            .collect::<std::collections::HashMap<_, _>>()
    };
    let ka = key_by_runtime(&a);
    let kb = key_by_runtime(&b);
    let mut common = 0;
    for (rt, k) in &ka {
        if let Some(k2) = kb.get(rt) {
            assert_eq!(k, k2, "key changed across snapshots for {rt}");
            common += 1;
        }
    }
    assert!(common > 50, "snapshots should overlap substantially (got {common})");

    // Stability across a restart of the same application build: the same
    // identifier synthesizes the same key from a fresh widget arena.
    s.restart();
    let c = s.snapshot();
    let kc = key_by_runtime(&c);
    let mut matched = 0;
    for (rt, k) in &kc {
        if let Some(k0) = ka.get(rt) {
            assert_eq!(k, k0, "key changed across restart for {rt}");
            matched += 1;
        }
    }
    assert!(matched > 50, "restart rebuilds the same UI (got {matched})");
}

#[test]
fn control_key_is_a_pure_function_of_the_identifier() {
    let mut s = Session::new(AppKind::Excel.launch_small());
    let snap = s.snapshot();
    for (i, _) in snap.iter() {
        let cid = snap.control_id(i);
        assert_eq!(snap.control_key(i), ControlKey::of_id(&cid), "node {i}");
    }
}

/// Regression pin for the Word small-app rip under the default Esc-based
/// fast state restoration: capture counts must not drift silently. The
/// UNG node/edge counts are byte-identical to the legacy full-restart
/// strategy (pinned below); the effort counters reflect the recovery
/// planner (most restarts replaced by Esc presses).
#[test]
fn word_small_rip_capture_counts_pinned() {
    let mut s = Session::new(AppKind::Word.launch_small());
    let (g, stats) = rip(&mut s, &RipConfig::office("Word"));
    assert_eq!(g.node_count(), 2411, "UNG node count");
    assert_eq!(g.edge_count(), 2435, "UNG edge count");
    assert_eq!(stats.snapshots, 8870, "snapshots captured");
    assert_eq!(stats.clicks, 6558, "candidate clicks");
    assert_eq!(stats.restarts, 10, "fallback restarts (was 2312 before Esc recovery)");
    assert_eq!(stats.esc_recoveries + stats.restarts, 2312, "restorations + fallback restarts");
    assert_eq!(stats.blocklisted, 2, "blocklisted candidates");
    assert_eq!(stats.replay_failures, 1, "replay failures");
    assert_eq!(stats.windows_seen, 15, "windows observed opening");
}

/// The legacy full-restart strategy is the equivalence oracle: with
/// [`RipConfig::esc_recovery`] off, every count must stay byte-identical
/// to the values produced before fast recovery existed.
#[test]
#[ignore = "rip-heavy: CI runs these in release via `-- --ignored`"]
fn word_small_rip_legacy_full_restart_counts_unchanged() {
    let mut s = Session::new(AppKind::Word.launch_small());
    let mut cfg = RipConfig::office("Word");
    cfg.esc_recovery = false;
    let (g, stats) = rip(&mut s, &cfg);
    assert_eq!(g.node_count(), 2411, "UNG node count");
    assert_eq!(g.edge_count(), 2435, "UNG edge count");
    assert_eq!(stats.snapshots, 8870, "snapshots captured");
    assert_eq!(stats.clicks, 6558, "candidate clicks");
    assert_eq!(stats.restarts, 2312, "state-restoration restarts");
    assert_eq!(stats.esc_recoveries, 0, "no fast recoveries on the legacy path");
    assert_eq!(stats.esc_presses, 0, "no recovery Esc presses on the legacy path");
    assert_eq!(stats.blocklisted, 2, "blocklisted candidates");
    assert_eq!(stats.replay_failures, 1, "replay failures");
    assert_eq!(stats.windows_seen, 15, "windows observed opening");
}

/// Capture-cache equivalence oracle: ripping with the default epoch-cached
/// capture pipeline must produce a UNG byte-identical (nodes, names,
/// types, edges, in order) to a session whose [`CaptureConfig`] forces an
/// eager full rebuild on every capture — for every app — with identical
/// rip statistics, while serving a substantial share of captures in O(1).
#[test]
fn cached_capture_ung_is_byte_identical_to_full_rebuild_oracle() {
    for kind in AppKind::ALL {
        let cfg = RipConfig::office(kind.name());
        let mut s = Session::new(kind.launch_small());
        assert!(s.capture_config().cached, "epoch-cached capture is the default");
        let (g_cached, st_cached) = rip(&mut s, &cfg);

        let mut s2 = Session::new(kind.launch_small());
        s2.set_capture_config(CaptureConfig::full_rebuild());
        let (g_full, st_full) = rip(&mut s2, &cfg);

        assert_eq!(g_cached.node_count(), g_full.node_count(), "{kind}: node count");
        assert_eq!(g_cached.edge_count(), g_full.edge_count(), "{kind}: edge count");
        for id in g_cached.ids() {
            assert_eq!(g_cached.node(id), g_full.node(id), "{kind}: node {id}");
            assert_eq!(g_cached.successors(id), g_full.successors(id), "{kind}: edges of {id}");
        }
        assert_eq!(st_cached, st_full, "{kind}: every rip statistic matches the oracle");
        let stats = s.capture_stats();
        assert_eq!(stats.captures, st_cached.snapshots, "{kind}: every capture was counted");
        assert!(
            stats.full_hits * 2 > stats.captures,
            "{kind}: most captures should be O(1) hits ({} of {})",
            stats.full_hits,
            stats.captures
        );
        assert_eq!(s2.capture_stats().full_hits, 0, "{kind}: the oracle never serves a hit");
    }
}

/// Fleet equivalence oracle: ripping the full Word, Excel and
/// PowerPoint as one fleet — with an unforkable entry mixed in, since
/// nothing on the rip path may need a fork — must return, in entry
/// order, each entry's sequential rip: the same UNG bytes and the same
/// stats.
#[test]
#[ignore = "rip-heavy: CI runs these in release via `-- --ignored`"]
fn fleet_rip_ungs_are_byte_identical_to_sequential() {
    use dmi_apps::testkit::UnforkableApp;

    let launch = |app: &str| -> Session {
        match AppKind::ALL.iter().find(|k| k.name() == app) {
            Some(k) => Session::new(k.launch()),
            None => Session::new(Box::new(UnforkableApp::new(3))),
        }
    };
    let apps = ["Word", "Excel", "PowerPoint", "Unforkable"];
    let mut entries: Vec<FleetEntry> =
        apps.iter().map(|&a| FleetEntry::new(a, launch(a), RipConfig::office(a))).collect();
    let out = rip_fleet(&mut entries, &ParRipConfig);

    assert_eq!(out.len(), apps.len(), "one outcome per entry");
    for (o, app) in out.iter().zip(apps) {
        let (g_seq, st_seq) = rip(&mut launch(app), &RipConfig::office(app));
        assert_eq!(o.app_id, app, "outcomes come back in entry order");
        assert_eq!(o.error(), None, "{app}: a healthy entry rips");
        assert_eq!(
            serde_json::to_string(&o.graph).unwrap(),
            serde_json::to_string(&g_seq).unwrap(),
            "{app}: fleet UNG must serialize byte-identically to the sequential rip"
        );
        assert_eq!(o.stats, st_seq, "{app}: a fleet entry is the sequential rip");
    }
}

/// The serve oracle: every task served through the multi-tenant gateway
/// must yield a [`dmi_agent::RunTrace`] byte-identical to its
/// single-session sequential run, at every concurrency level — the
/// gateway may change scheduling, session provenance (a fork of the
/// donor's launch image instead of a launch), and latency accounting,
/// but never a single trace byte.
#[test]
#[ignore = "rip-heavy: CI runs these in release via `-- --ignored`"]
fn gateway_traces_are_byte_identical_to_sequential_at_all_concurrencies() {
    use dmi_agent::{
        run_task, Gateway, GatewayConfig, InterfaceMode, RunConfig, ServeApp, ServeRequest,
    };
    use dmi_integration_tests::dmi_models;

    let models = dmi_models();
    let tasks: Vec<Arc<dmi_agent::AgentTask>> =
        dmi_tasks::all_tasks().into_iter().map(Arc::new).collect();

    // The request mix cycles all 27 tasks over all three Office apps with
    // varied seeds and modes; `gpt5_medium` keeps failure injection live
    // so failed traces are oracle-checked too.
    let mix = |n: usize| -> Vec<ServeRequest> {
        (0..n)
            .map(|i| {
                let task = &tasks[i % tasks.len()];
                ServeRequest {
                    tenant: format!("tenant-{}", i % 5),
                    app: task.app.name().to_string(),
                    task: Arc::clone(task),
                    cfg: RunConfig::test(
                        dmi_llm::CapabilityProfile::gpt5_medium(),
                        if i % 3 == 0 { InterfaceMode::GuiOnly } else { InterfaceMode::GuiPlusDmi },
                        i as u64,
                    ),
                }
            })
            .collect()
    };

    for concurrency in [64usize, 4096] {
        let requests = mix(concurrency);
        let expected: Vec<String> = requests
            .iter()
            .map(|r| run_task(&r.task, models.get(r.task.app.name()), &r.cfg).identity_bytes())
            .collect();

        let apps: Vec<ServeApp> = dmi_apps::AppKind::ALL
            .iter()
            .map(|&k| {
                ServeApp::new(
                    k.name(),
                    Session::new(k.launch_small()),
                    models.get(k.name()).cloned(),
                )
            })
            .collect();
        let mut gw = Gateway::new(
            apps,
            GatewayConfig { workers: 1, sessions_per_app: 8, max_in_flight: 32 },
        );
        let report = gw.serve(requests);
        assert_eq!(report.stats.completed, concurrency, "every request produces a trace");
        assert_eq!(report.stats.faulted, 0);
        for (i, (o, want)) in report.outcomes.iter().zip(&expected).enumerate() {
            let got = o.trace.as_ref().expect("trace present").identity_bytes();
            assert_eq!(
                &got, want,
                "c={concurrency} request {i} ({} on {}): served trace must be \
                 byte-identical to the sequential run",
                o.tenant, o.app
            );
        }
        assert_eq!(
            report.stats.session_forks, report.stats.completed,
            "c={concurrency}: every request runs on its own fresh fork"
        );
    }
}

/// §4.1 equivalence: ripping with Esc-based fast state restoration must
/// produce a UNG byte-identical (nodes, names, types, edges, in order) to
/// the legacy full-restart path, for every app — while restarting far
/// less often.
#[test]
fn esc_recovery_ung_is_byte_identical_to_full_restart_oracle() {
    for kind in AppKind::ALL {
        let fast_cfg = RipConfig::office(kind.name());
        assert!(fast_cfg.esc_recovery, "fast recovery is the default");
        let mut s = Session::new(kind.launch_small());
        let (g_fast, s_fast) = rip(&mut s, &fast_cfg);

        let mut legacy_cfg = fast_cfg.clone();
        legacy_cfg.esc_recovery = false;
        let mut s2 = Session::new(kind.launch_small());
        let (g_slow, s_slow) = rip(&mut s2, &legacy_cfg);

        assert_eq!(g_fast.node_count(), g_slow.node_count(), "{kind}: node count");
        assert_eq!(g_fast.edge_count(), g_slow.edge_count(), "{kind}: edge count");
        for id in g_fast.ids() {
            assert_eq!(g_fast.node(id), g_slow.node(id), "{kind}: node {id}");
            assert_eq!(g_fast.successors(id), g_slow.successors(id), "{kind}: edges of {id}");
        }
        assert!(
            s_fast.restarts * 2 < s_slow.restarts,
            "{kind}: recovery should replace most restarts ({} vs {})",
            s_fast.restarts,
            s_slow.restarts
        );
        assert!(s_fast.esc_recoveries > 0, "{kind}: fast recoveries happened");
        assert_eq!(s_fast.blocklisted, s_slow.blocklisted, "{kind}: blocklist hits");
        assert_eq!(s_fast.windows_seen, s_slow.windows_seen, "{kind}: windows seen");
    }
}

/// The observability non-interference oracle for the serve path: the
/// c=64 gateway mix served with tracing enabled must yield per-request
/// run traces byte-identical to the untraced serve.
#[test]
#[ignore = "rip-heavy: CI runs these in release via `-- --ignored`"]
fn traced_gateway_serve_is_byte_identical_to_untraced() {
    use dmi_agent::{Gateway, GatewayConfig, InterfaceMode, RunConfig, ServeApp, ServeRequest};
    use dmi_integration_tests::dmi_models;

    // Models are ripped outside the observation window: fixture setup is
    // not part of the serve being traced.
    let models = dmi_models();
    let tasks: Vec<Arc<dmi_agent::AgentTask>> =
        dmi_tasks::all_tasks().into_iter().map(Arc::new).collect();
    let mix = || -> Vec<ServeRequest> {
        (0..64)
            .map(|i| {
                let task = &tasks[i % tasks.len()];
                ServeRequest {
                    tenant: format!("tenant-{}", i % 5),
                    app: task.app.name().to_string(),
                    task: Arc::clone(task),
                    cfg: RunConfig::test(
                        dmi_llm::CapabilityProfile::gpt5_medium(),
                        if i % 3 == 0 { InterfaceMode::GuiOnly } else { InterfaceMode::GuiPlusDmi },
                        i as u64,
                    ),
                }
            })
            .collect()
    };
    let gateway = || -> Gateway {
        let apps: Vec<ServeApp> = AppKind::ALL
            .iter()
            .map(|&k| {
                ServeApp::new(
                    k.name(),
                    Session::new(k.launch_small()),
                    models.get(k.name()).cloned(),
                )
            })
            .collect();
        Gateway::new(apps, GatewayConfig { workers: 1, sessions_per_app: 8, max_in_flight: 32 })
    };

    let untraced = gateway().serve(mix());
    assert_eq!(untraced.stats.completed, 64);

    dmi_obs::clear();
    dmi_obs::set_enabled(true);
    let traced = gateway().serve(mix());
    dmi_obs::set_enabled(false);
    let trace = dmi_obs::drain();
    dmi_obs::clear();

    assert_eq!(traced.stats.completed, 64);
    for (i, (a, b)) in traced.outcomes.iter().zip(&untraced.outcomes).enumerate() {
        assert_eq!(
            a.trace.as_ref().map(dmi_agent::RunTrace::identity_bytes),
            b.trace.as_ref().map(dmi_agent::RunTrace::identity_bytes),
            "request {i} ({} on {}): tracing must never change a trace byte",
            a.tenant,
            a.app
        );
    }
    assert!(trace.count(Some(dmi_obs::Cat::Gateway), "round") > 0, "rounds recorded");
}

/// A freshly constructed app, bypassing the launch images: the default
/// configuration, or the small one [`AppKind::launch_small`] forks.
fn construct(kind: AppKind, small: bool) -> Box<dyn GuiApp> {
    match (kind, small) {
        (AppKind::Word, false) => Box::new(WordApp::new()),
        (AppKind::Excel, false) => Box::new(ExcelApp::new()),
        (AppKind::PowerPoint, false) => Box::new(PowerPointApp::new()),
        (AppKind::Word, true) => {
            Box::new(WordApp::with_config(WordConfig { paragraphs: 12, viewport_rows: 6 }))
        }
        (AppKind::Excel, true) => {
            Box::new(ExcelApp::with_config(ExcelConfig { rows: 12, cols: 8, viewport_rows: 6 }))
        }
        (AppKind::PowerPoint, true) => {
            Box::new(PowerPointApp::with_config(PowerPointConfig { slides: 5, viewport_rows: 5 }))
        }
    }
}

fn launch(kind: AppKind, small: bool) -> Box<dyn GuiApp> {
    if small {
        kind.launch_small()
    } else {
        kind.launch()
    }
}

/// The app's document model, rendered for comparison.
fn document(s: &Session) -> String {
    let app = s.app() as &dyn Any;
    if let Some(word) = app.downcast_ref::<WordApp>() {
        format!("{:?}", word.doc)
    } else if let Some(excel) = app.downcast_ref::<ExcelApp>() {
        format!("{:?}", excel.sheet)
    } else {
        format!("{:?}", app.downcast_ref::<PowerPointApp>().expect("an Office app").deck)
    }
}

/// The first shown widget in arena order that satisfies `pred`.
fn first_shown(s: &Session, what: &str, pred: impl Fn(&Widget) -> bool) -> WidgetId {
    let tree = s.app().tree();
    let found = tree.iter().find(|&(i, w)| pred(w) && tree.is_shown(i));
    found.unwrap_or_else(|| panic!("no shown {what}")).0
}

/// Drives a session through a document edit ([`edit_document`]), a
/// ribbon-tab click, a menu open, typing into an edit (opening its window
/// first when it is closed) and a `SetValue` in the top window. Targets
/// are picked in arena order, so two launch-identical apps get the same
/// script.
fn drive(s: &mut Session) {
    edit_document(s);
    let tab =
        first_shown(s, "unselected tab", |w| w.control_type == ControlType::TabItem && !w.selected);
    s.click(tab).unwrap();
    let menu = first_shown(s, "closed menu", |w| w.popup && w.enabled && !w.expanded);
    s.click(menu).unwrap();
    let tree = s.app().tree();
    let opener = |root: WidgetId| {
        let opens = |w: &Widget| matches!(w.on_click, Behavior::OpenDialog(r) | Behavior::OpenWindow(r) if r == root);
        tree.iter().find(|&(i, w)| opens(w) && tree.is_shown(i)).map(|(i, _)| i)
    };
    let (edit, open) = tree
        .iter()
        .filter(|(_, w)| w.on_click == Behavior::FocusEdit && w.enabled)
        .find_map(|(i, _)| {
            if tree.is_shown(i) {
                Some((i, None))
            } else {
                opener(tree.root_of(i)).map(|o| (i, Some(o)))
            }
        })
        .expect("an edit the script can reach");
    if let Some(o) = open {
        s.click(o).unwrap();
    }
    s.click(edit).unwrap();
    s.type_text("Quarterly Report").unwrap();
    let tree = s.app().tree();
    let top = tree.top_window().root;
    let field = tree
        .iter()
        .find(|&(i, w)| {
            w.patterns.supports(PatternKind::Value)
                && w.enabled
                && tree.is_shown(i)
                && tree.root_of(i) == top
        })
        .expect("a value control in the top window")
        .0;
    s.set_value(field, "42").unwrap();
}

/// Edits the document model from the launch state: selects two Word
/// paragraphs, the Excel cell B2, or the second PowerPoint slide.
fn edit_document(s: &mut Session) {
    let app = s.app() as &dyn Any;
    if let Some(word) = app.downcast_ref::<WordApp>() {
        let surface = word.doc_surface();
        s.select_lines(surface, 0, 1).unwrap();
        return;
    }
    let target = if let Some(excel) = app.downcast_ref::<ExcelApp>() {
        excel.cell_widget(Addr { row: 1, col: 1 }).expect("cell B2")
    } else {
        let ppt = app.downcast_ref::<PowerPointApp>().expect("an Office app");
        s.app().tree().widget(ppt.thumbnails()).children[1]
    };
    s.click(target).unwrap();
}

/// Asserts two sessions snapshot the same bytes and carry the same
/// document.
fn assert_same(a: &mut Session, b: &mut Session, what: &str) {
    assert!(*a.snapshot() == *b.snapshot(), "{what}: snapshots differ");
    assert_eq!(document(a), document(b), "{what}: documents differ");
}

/// Launch equals construction: `AppKind::launch`/`launch_small` fork one
/// process-wide image per app and size, which both sides of the served vs
/// sequential oracle share. This oracle keeps it independent: a launch
/// must be indistinguishable from a freshly built app, right after launch
/// and after the same scripted inputs, under no instability and under the
/// evaluation model, and a driven launch's edits must never reach the
/// image. Restart equals construction too: a driven launch restarted
/// with [`Session::restart`] snapshots and carries the document of a
/// fresh construction, and keeps its pristine token.
#[test]
fn launch_equals_construction() {
    let evaluation =
        RunConfig::evaluation(CapabilityProfile::gpt5_medium(), InterfaceMode::GuiPlusDmi, 1)
            .instability_model();
    for small in [true, false] {
        for kind in AppKind::ALL {
            for inst in [InstabilityModel::off(), evaluation.clone()] {
                let what = format!("{kind} (small: {small}, instability: {})", inst.is_active());
                let mut driven = Session::with_instability(launch(kind, small), inst.clone());
                drive(&mut driven);
                let mut launched = Session::with_instability(launch(kind, small), inst.clone());
                let mut built = Session::with_instability(construct(kind, small), inst.clone());
                assert_eq!(
                    launched.app().pristine_token(),
                    driven.app().pristine_token(),
                    "{what}: launches of one image share its pristine token"
                );
                assert!(
                    *driven.snapshot() != *launched.snapshot(),
                    "{what}: the script must change the UI"
                );
                assert_ne!(
                    document(&driven),
                    document(&launched),
                    "{what}: the script must change the document"
                );
                assert_same(&mut launched, &mut built, &format!("{what}, at launch"));
                drive(&mut launched);
                drive(&mut built);
                assert_same(&mut launched, &mut built, &format!("{what}, after the script"));
                let token = driven.app().pristine_token();
                driven.restart();
                assert_eq!(
                    driven.app().pristine_token(),
                    token,
                    "{what}: a restart keeps the pristine token"
                );
                let mut rebuilt = Session::with_instability(construct(kind, small), inst.clone());
                assert_same(&mut driven, &mut rebuilt, &format!("{what}, after a restart"));
            }
        }
    }
}

/// The models the launch-capture oracle forks under, each with the group
/// of models sharing its launch key: off, a zero-probability seeded model
/// as `RunConfig::test` builds (off's key: it varies no name), the
/// evaluation models at run seeds 1-3, and the seed-1 evaluation model
/// with other late-load settings (seed 1's key: late loads never touch a
/// launch state).
fn launch_models() -> Vec<(InstabilityModel, usize)> {
    let (profile, mode) = (CapabilityProfile::gpt5_medium(), InterfaceMode::GuiPlusDmi);
    let evaluation = |seed| RunConfig::evaluation(profile.clone(), mode, seed).instability_model();
    let mut late = evaluation(1);
    late.late_load_prob = 0.9;
    late.late_load_delay = 3;
    vec![
        (InstabilityModel::off(), 0),
        (RunConfig::test(profile.clone(), mode, 1).instability_model(), 0),
        (evaluation(1), 1),
        (evaluation(2), 2),
        (evaluation(3), 3),
        (late, 1),
    ]
}

/// Launch-capture oracle: for every app, on a freshly constructed image
/// (an empty table), two forks under each model of [`launch_models`]
/// have a full hit as their first capture, share it (`Arc::ptr_eq`) with
/// the forks under every model of the same launch key and with no other,
/// and equal a full-rebuild fork's first capture. After the
/// [`launch_equals_construction`] drive script and a [`Session::restart`],
/// the cached fork still agrees with the full-rebuild fork and is back on
/// the launch capture.
fn check_launch_captures(small: bool) {
    let models = launch_models();
    for kind in AppKind::ALL {
        let image = construct(kind, small);
        let fork = || image.fork().expect("Office apps fork");
        let mut firsts: Vec<Arc<Snapshot>> = Vec::new();
        for (i, (inst, group)) in models.iter().enumerate() {
            let what = format!("{kind} (small: {small}), model {i}");
            let mut oracle = Session::with_instability(fork(), inst.clone());
            oracle.set_capture_config(CaptureConfig::full_rebuild());
            let want = oracle.snapshot();
            let mut forks = [0, 1].map(|_| Session::with_instability(fork(), inst.clone()));
            let snaps = forks.each_mut().map(|s| s.snapshot());
            for (s, snap) in forks.iter().zip(&snaps) {
                assert_eq!(s.capture_stats().full_hits, 1, "{what}: the first capture is a hit");
                assert!(**snap == *want, "{what}: the launch capture equals a full rebuild");
            }
            assert!(Arc::ptr_eq(&snaps[0], &snaps[1]), "{what}: forks share one capture");
            for ((_, other), prev) in models.iter().zip(&firsts) {
                assert_eq!(Arc::ptr_eq(prev, &snaps[0]), other == group, "{what}: shared by key");
            }
            firsts.push(Arc::clone(&snaps[0]));
            let [mut s, _] = forks;
            drive(&mut s);
            drive(&mut oracle);
            assert!(*s.snapshot() == *oracle.snapshot(), "{what}: after the script");
            s.restart();
            oracle.restart();
            let back = s.snapshot();
            assert!(*back == *oracle.snapshot(), "{what}: after a restart");
            assert!(
                Arc::ptr_eq(&back, &snaps[0]),
                "{what}: a restart returns to the launch capture"
            );
        }
        let table = image.launch_captures().expect("Office apps keep launch captures").1;
        assert_eq!(table.len(), 4, "{kind}: one entry per launch key");
    }
}

#[test]
fn launch_capture_is_shared_and_exact() {
    check_launch_captures(true);
}

/// The full-size variant of the launch-capture oracle.
#[test]
#[ignore = "rip-heavy: CI runs these in release via `-- --ignored`"]
fn full_office_launch_capture_is_shared_and_exact() {
    check_launch_captures(false);
}

/// One seeded walk of the layout pin, under late loads and name
/// variation: a snapshot before every step, then an Esc, a restart, a
/// `scroll_to`, a drag from the centre of a shown row or a click, picked
/// from what that snapshot shows. Every snapshot's parent, window, name,
/// type, rect, off-screen and enabled columns and every input result
/// fold into one FNV-1a digest. Also returns how many snapshots were
/// taken while a shown container was still loading.
fn layout_walk(kind: AppKind, small: bool, seed: u64, steps: usize) -> (u64, usize) {
    let mut s =
        Session::with_instability(launch(kind, small), InstabilityModel::new(seed, 0.3, 0.1));
    let mut rng = SplitMix(seed);
    let mut h = Fnv1a::default();
    let mut loading = 0;
    for _ in 0..steps {
        let snap = s.snapshot();
        for (_, n) in snap.iter() {
            let p = &n.props;
            h.write(&n.parent.map_or(u64::MAX, |i| i as u64).to_le_bytes());
            h.write(&(n.window as u64).to_le_bytes());
            h.write(p.name.as_bytes());
            h.write(&[0xff, p.control_type as u8, p.offscreen as u8, p.enabled as u8]);
            for v in [p.rect.x, p.rect.y, p.rect.w, p.rect.h] {
                h.write(&v.to_le_bytes());
            }
        }
        let tree = s.app().tree();
        let q = s.query_count();
        loading +=
            tree.iter().any(|(i, _)| tree.children_pending(i, q) && tree.is_shown(i)) as usize;
        let shown: Vec<WidgetId> = snap.iter().map(|(_, n)| s.widget_of(n.runtime_id)).collect();
        let result = match rng.below(20) {
            0 => {
                s.restart();
                Ok(())
            }
            1 | 2 => s.press("Esc"),
            3..=5 => {
                let scrollers: Vec<WidgetId> = shown
                    .into_iter()
                    .filter(|&i| {
                        tree.widget(i).scrollable || tree.widget(i).scroll_target.is_some()
                    })
                    .collect();
                let percent = rng.below(101) as f64;
                match scrollers.get(rng.below(scrollers.len().max(1))) {
                    Some(&id) => s.scroll_to(id, percent),
                    None => Ok(()),
                }
            }
            6..=10 => {
                let rows: Vec<_> =
                    snap.iter().map(|(_, n)| n.props.rect).filter(|r| r.w > 0 && r.h > 0).collect();
                let from = rows[rng.below(rows.len())].center();
                let to_y = rng.below(dmi_gui::layout::SCREEN_H as usize) as i32;
                s.drag(from, (from.0, to_y))
            }
            pick => {
                // Most clicks open something, so menus, dialogs and tabs
                // (and their late loads) come and go.
                let opens = |b: &Behavior| {
                    matches!(
                        b,
                        Behavior::OpenMenu
                            | Behavior::SwitchTab
                            | Behavior::OpenDialog(_)
                            | Behavior::OpenWindow(_)
                    )
                };
                let targets: Vec<WidgetId> = shown
                    .into_iter()
                    .filter(|&i| {
                        let b = &tree.widget(i).on_click;
                        !b.is_rip_hazard() && (pick < 15 || opens(b))
                    })
                    .collect();
                match targets.get(rng.below(targets.len().max(1))) {
                    Some(&id) => s.click(id),
                    None => Ok(()),
                }
            }
        };
        h.write(format!("{result:?}").as_bytes());
    }
    (h.0, loading)
}

/// Layout pin: rows, off-screen flags and hit testing are a pure function
/// of the tree, so seeded walks over the small Office apps must keep
/// these digests (computed before rows were placed inside the capture
/// and hit-test walks). The UNG digests carry no rects, so nothing else
/// pins layout bytes.
#[test]
fn small_office_layout_walks_are_pinned() {
    let pins = [
        (AppKind::Word, 0x537d_52e7_c0ab_181e),
        (AppKind::Excel, 0x02d4_92bb_809b_e7c8),
        (AppKind::PowerPoint, 0xcd02_5e93_1e91_60f2),
    ];
    for (kind, want) in pins {
        let (digest, loading) = layout_walk(kind, true, 1, 300);
        assert!(loading > 0, "{kind}: the walk must capture a container still loading");
        assert_eq!(digest, want, "{kind}: layout walk digest {digest:#018x}");
    }
}

/// The full-size, 3-seed variant of the layout pin.
#[test]
#[ignore = "rip-heavy: CI runs these in release via `-- --ignored`"]
fn full_office_layout_walks_are_pinned() {
    let pins = [
        (AppKind::Word, [0xb183_0a65_76bf_7275, 0xa759_dd85_8b34_2e68, 0x84c5_9b7f_3fd1_fc38]),
        (AppKind::Excel, [0xf28b_8361_2e2b_0469, 0xd9ec_5dda_3bf5_6f85, 0x8d59_8b74_6dec_2bb2]),
        (
            AppKind::PowerPoint,
            [0xe25d_22dc_4cac_8804, 0x4adb_73c2_0cb3_d0fc, 0xc94e_d359_add9_cd02],
        ),
    ];
    for (kind, wants) in pins {
        for (seed, want) in (1..).zip(wants) {
            let (digest, loading) = layout_walk(kind, false, seed, 500);
            assert!(
                loading > 0,
                "{kind} seed {seed}: the walk must capture a container still loading"
            );
            assert_eq!(digest, want, "{kind} seed {seed}: layout walk digest {digest:#018x}");
        }
    }
}

/// The `agent_grid` trace digest: each run's `RunTrace::identity_bytes`
/// hashed on its own, and the per-run digests folded in run order —
/// every Table 3 cell × the 27 suite tasks × `seeds`, each task on the
/// model of its app.
fn grid_trace_digest(models: &[Arc<Dmi>], small: bool, seeds: &[u64]) -> (u64, usize) {
    let tasks = dmi_tasks::all_tasks();
    let mut h = Fnv1a::default();
    let mut runs = 0;
    for (profile, mode) in dmi_bench::table3_rows() {
        for task in &tasks {
            let dmi = &models[AppKind::ALL.iter().position(|&k| k == task.app).expect("app")];
            for &seed in seeds {
                let mut cfg = RunConfig::evaluation(profile.clone(), mode, seed);
                cfg.small_apps = small;
                let trace = dmi_agent::run_task(task, Some(dmi), &cfg);
                h.write(&fnv1a(trace.identity_bytes().as_bytes()).to_le_bytes());
                runs += 1;
            }
        }
    }
    (h.0, runs)
}

/// Agent trace pin: every Table 3 cell over the suite on the small apps,
/// under the evaluation instability, must keep the traces (prompt
/// tokens included) computed before prompt counts were memoized per
/// capture. The served-vs-sequential oracle runs the same
/// code on both sides, so only fixed values catch a miscount.
#[test]
fn small_office_agent_traces_are_pinned() {
    let models = dmi_integration_tests::dmi_models();
    let models: Vec<_> = AppKind::ALL.iter().map(|k| Arc::clone(&models[k.name()])).collect();
    let (digest, runs) = grid_trace_digest(&models, true, &[1, 2, 3]);
    assert_eq!(runs, 8 * 27 * 3);
    assert_eq!(digest, 0xc59a_5ad4_08cc_0423, "small-app grid trace digest {digest:#018x}");
}

/// The full-size variant of the agent trace pin: the `agent_grid`
/// benchmark's seed-1 pass (run seeds 4–6) on models built by
/// `Dmi::build` from full launches. Its digest is the one the benchmark
/// prints as `digest agent_grid traces`.
#[test]
#[ignore = "rip-heavy: CI runs these in release via `-- --ignored`"]
fn full_office_agent_traces_are_pinned() {
    let models: Vec<_> = AppKind::ALL
        .iter()
        .map(|k| {
            let mut s = Session::new(k.launch());
            Arc::new(Dmi::build(&mut s, &DmiBuildConfig::office(k.name())).0)
        })
        .collect();
    let (digest, runs) = grid_trace_digest(&models, false, &[4, 5, 6]);
    assert_eq!(runs, 8 * 27 * 3);
    assert_eq!(digest, 0x371c_f1f4_f65e_245d, "full-app grid trace digest {digest:#018x}");
}
