//! Observability integration tests: OFF-path silence through real rips,
//! traced-vs-untraced UNG byte identity, Chrome-trace export validity,
//! span nesting, virtual-time determinism, the stats-vs-tallies drift
//! cross-checks, one launch-capture build per image and model, the
//! pinned identity-lineage work of the small fleet rip and the pinned
//! prompt-token work of a small-app agent pass.
//!
//! The recorder's enable flag is process-global, so every test that
//! opens an observation window serializes on one lock — tests can never
//! observe each other's events. The shared fleet fixture is ripped once
//! and inspected by every trace-shape test.

use dmi_apps::AppKind;
use dmi_core::ripper::{rip, RipConfig, RipStats};
use dmi_core::{rip_fleet, FleetEntry, ParRipConfig, RipOutcome};
use dmi_gui::{InstabilityModel, Session};
use dmi_obs::{Cat, Clock, Event, Trace};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn office_entries() -> Vec<FleetEntry> {
    AppKind::ALL
        .iter()
        .map(|k| {
            FleetEntry::new(k.name(), Session::new(k.launch_small()), RipConfig::office(k.name()))
        })
        .collect()
}

/// One traced 3-app fleet rip, shared by every test that only inspects
/// its results (the rip is the expensive part).
struct FleetObs {
    trace: Trace,
    tallies: BTreeMap<&'static str, u64>,
    stats: Vec<RipStats>,
    /// Per-app UNG bytes (`serde_json`), in entry order.
    ungs: Vec<String>,
}

fn ung_bytes(outcomes: &[RipOutcome]) -> Vec<String> {
    outcomes.iter().map(|o| serde_json::to_string(&o.graph).expect("UNGs serialize")).collect()
}

fn fleet_obs() -> &'static FleetObs {
    static OBS: OnceLock<FleetObs> = OnceLock::new();
    OBS.get_or_init(|| {
        // The window opens on the rips alone: creating a session may
        // build its image's launch capture, a capture `rebuild` outside
        // any rip.
        let mut entries = office_entries();
        dmi_obs::clear();
        dmi_obs::set_enabled(true);
        let out = rip_fleet(&mut entries, &ParRipConfig);
        dmi_obs::set_enabled(false);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|o| o.error().is_none()), "every Office app rips");
        let trace = dmi_obs::drain();
        let tallies = dmi_obs::tallies();
        dmi_obs::clear();
        FleetObs {
            trace,
            tallies,
            stats: out.iter().map(|o| o.stats).collect(),
            ungs: ung_bytes(&out),
        }
    })
}

#[test]
fn off_path_records_nothing_through_a_real_rip() {
    let _g = guard();
    dmi_obs::set_enabled(false);
    dmi_obs::clear();
    let mut cfg = RipConfig::office("Word");
    cfg.max_clicks = Some(40);
    let mut s = Session::new(AppKind::Word.launch_small());
    let (g, stats) = rip(&mut s, &cfg);
    assert!(g.node_count() > 0 && stats.clicks > 0, "the rip itself ran");
    let t = dmi_obs::drain();
    assert!(t.events.is_empty(), "a disabled recorder buffers nothing through a full rip");
    assert_eq!(t.dropped, 0);
    assert!(dmi_obs::tallies().is_empty(), "a disabled recorder tallies nothing");
}

/// The observability non-interference oracle for the rip path: the
/// traced fleet's UNGs are byte-identical to an untraced fleet rip of
/// the same apps.
#[test]
fn traced_fleet_ungs_are_byte_identical_to_untraced() {
    let _g = guard();
    let obs = fleet_obs();
    let untraced = ung_bytes(&rip_fleet(&mut office_entries(), &ParRipConfig));
    assert_eq!(obs.ungs.len(), untraced.len());
    for (kind, (traced, plain)) in AppKind::ALL.iter().zip(obs.ungs.iter().zip(&untraced)) {
        assert!(traced == plain, "{}: tracing must never change a UNG byte", kind.name());
    }
}

#[test]
fn traced_fleet_records_per_app_rips_and_exports_valid_chrome_json() {
    let _g = guard();
    let obs = fleet_obs();

    // One sequential rip span per app, each with its capture rebuilds,
    // all listed by the summary.
    assert_eq!(obs.trace.count(Some(Cat::Rip), "rip.sequential"), 3, "one rip per app");
    assert!(obs.trace.total_dur_us(Some(Cat::Rip), "rip.sequential") > 0);
    assert!(obs.trace.count(Some(Cat::Capture), "rebuild") > 0, "captures were rebuilt");
    let summary = obs.trace.text_summary();
    assert!(summary.contains("rip.sequential"), "{summary}");

    // The Chrome export round-trips through the JSON parser as a valid
    // trace-event array.
    let json = obs.trace.to_chrome_json();
    let v = serde_json::parse_value(&json).expect("chrome export is valid JSON");
    let arr = v.as_array().expect("top level is an array");
    let has_virtual = obs.trace.events.iter().any(|e| e.clock == Clock::Virtual);
    let metadata = if has_virtual { 2 } else { 1 };
    assert_eq!(
        arr.len(),
        obs.trace.events.len() + metadata,
        "every event exported, plus one process-name record per timeline"
    );
    for e in arr {
        let o = e.as_object().expect("every element is an object");
        assert!(o.get("name").and_then(|n| n.as_str()).is_some());
        let ph = o.get("ph").and_then(|p| p.as_str()).expect("phase present");
        assert!(matches!(ph, "X" | "i" | "M"), "unexpected phase {ph}");
        assert!(o.get("pid").and_then(|p| p.as_u64()).is_some());
        if ph == "X" {
            assert!(o.get("dur").and_then(|d| d.as_u64()).is_some(), "complete spans carry dur");
        }
    }
}

/// Wall-clock events of one thread come out of one ring, so RAII spans
/// recorded on a thread must nest: every `rip.sequential` interval lies
/// inside the enclosing `rip.fleet` span, one fleet thread's rips never
/// overlap each other, and each capture `rebuild` nests inside the rip
/// on its thread.
#[test]
fn raii_spans_balance_per_thread() {
    let _g = guard();
    let obs = fleet_obs();
    let fleet = obs
        .trace
        .events
        .iter()
        .find(|e| e.name == "rip.fleet")
        .expect("the fleet rip records its top-level span");
    let fleet_end = fleet.ts_us + fleet.dur_us;
    let mut by_tid: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for e in obs.trace.events.iter().filter(|e| e.name == "rip.sequential") {
        assert!(e.ts_us >= fleet.ts_us && e.ts_us + e.dur_us <= fleet_end, "rip nests in fleet");
        by_tid.entry(e.tid).or_default().push(e);
    }
    assert!(!by_tid.is_empty());
    for (tid, rips) in &by_tid {
        // Drained order is (ts, tid)-sorted already.
        for w in rips.windows(2) {
            assert!(
                w[0].ts_us + w[0].dur_us <= w[1].ts_us,
                "thread {tid}: rips are sequential, not overlapping"
            );
        }
    }
    for e in obs.trace.events.iter().filter(|e| e.name == "rebuild") {
        let rips = by_tid.get(&e.tid).expect("rebuilds happen on rip threads");
        assert!(
            rips.iter().any(|r| e.ts_us >= r.ts_us && e.ts_us + e.dur_us <= r.ts_us + r.dur_us),
            "thread {}: a rebuild nests in its rip",
            e.tid
        );
    }
}

fn vt_events(trace: &Trace) -> Vec<(&'static str, u64, u64, u64)> {
    trace
        .events
        .iter()
        .filter(|e| e.clock == Clock::Virtual)
        .map(|e| (e.name, e.ts_us, e.dur_us, e.lane))
        .collect()
}

fn serve_traced(n: usize) -> (dmi_agent::ServeReport, Trace, BTreeMap<&'static str, u64>) {
    use dmi_agent::{Gateway, GatewayConfig, InterfaceMode, RunConfig, ServeApp, ServeRequest};
    use std::sync::Arc;

    let tasks: Vec<Arc<dmi_agent::AgentTask>> =
        dmi_tasks::all_tasks().into_iter().map(Arc::new).collect();
    let requests: Vec<ServeRequest> = (0..n)
        .map(|i| {
            let task = &tasks[i % tasks.len()];
            ServeRequest {
                tenant: format!("tenant-{}", i % 3),
                app: task.app.name().to_string(),
                task: Arc::clone(task),
                cfg: RunConfig::test(
                    dmi_integration_tests::perfect_profile(),
                    InterfaceMode::GuiOnly,
                    i as u64,
                ),
            }
        })
        .collect();
    let apps: Vec<ServeApp> = AppKind::ALL
        .iter()
        .map(|&k| ServeApp::new(k.name(), Session::new(k.launch_small()), None))
        .collect();
    let mut gw =
        Gateway::new(apps, GatewayConfig { workers: 1, sessions_per_app: 2, max_in_flight: 8 });

    dmi_obs::clear();
    dmi_obs::set_enabled(true);
    let report = gw.serve(requests);
    dmi_obs::set_enabled(false);
    let trace = dmi_obs::drain();
    let tallies = dmi_obs::tallies();
    dmi_obs::clear();
    (report, trace, tallies)
}

/// Virtual-time spans ride the deterministic virtual clock: identical
/// run to run, with a non-overlapping monotonic round timeline and task
/// lifecycles that match the reported outcomes exactly.
#[test]
fn virtual_time_spans_are_deterministic_and_monotonic() {
    let _g = guard();
    let (report_a, trace_a, _) = serve_traced(12);
    let (report_b, trace_b, _) = serve_traced(12);
    assert_eq!(report_a.stats.completed, 12);
    assert_eq!(report_b.stats.completed, 12);

    let vt_a = vt_events(&trace_a);
    let vt_b = vt_events(&trace_b);
    assert!(!vt_a.is_empty(), "serving records virtual-time spans");
    assert_eq!(vt_a, vt_b, "virtual timeline is identical run to run");

    // Round spans tile the virtual clock: non-overlapping, monotonic.
    let rounds: Vec<&(&str, u64, u64, u64)> =
        vt_a.iter().filter(|(name, ..)| *name == "round.vt").collect();
    assert!(!rounds.is_empty());
    let mut sorted = rounds.clone();
    sorted.sort_by_key(|(_, ts, _, lane)| (*ts, *lane));
    for w in sorted.windows(2) {
        let (_, ts0, dur0, _) = *w[0];
        let (_, ts1, ..) = *w[1];
        assert!(ts0 + dur0 <= ts1, "round spans never overlap");
    }

    // Per-tenant task lifecycles: every `task` span's admit/finish pair
    // matches a reported outcome on the same virtual clock.
    let task_spans: Vec<_> = vt_a.iter().filter(|(name, ..)| *name == "task").collect();
    assert_eq!(task_spans.len(), 12, "one lifecycle span per completed task");
    for (_, ts, dur, _lane) in task_spans {
        let finish = ts + dur;
        assert!(
            report_a.outcomes.iter().any(|o| {
                (o.admit_vt * 1e6).round() as u64 == *ts
                    && (o.finish_vt * 1e6).round() as u64 == finish
            }),
            "task span [{ts}, {finish}] matches a reported outcome"
        );
    }
}

/// The rip-side drift cross-check: every engine stat field and its obs
/// tally are incremented at the same sites, so a traced rip must report
/// identical numbers through both channels — a counter accumulated twice
/// (or a site that forgot one side) breaks the equality.
#[test]
fn rip_stats_match_obs_tallies() {
    let _g = guard();
    dmi_obs::clear();
    dmi_obs::set_enabled(true);
    let mut cfg = RipConfig::office("Word");
    cfg.max_clicks = Some(300);
    let mut s = Session::new(AppKind::Word.launch_small());
    let (_graph, stats) = rip(&mut s, &cfg);
    dmi_obs::set_enabled(false);
    let tallies = dmi_obs::tallies();
    let cs = s.capture_stats();
    dmi_obs::clear();

    let t = |k: &str| tallies.get(k).copied().unwrap_or(0);
    assert_eq!(stats.clicks, t("rip.clicks"), "clicks");
    assert_eq!(stats.snapshots, t("rip.snapshots"), "snapshots");
    assert_eq!(stats.restarts, t("rip.restarts"), "restarts");
    assert_eq!(stats.esc_recoveries, t("rip.esc_recoveries"), "esc recoveries");
    assert_eq!(stats.esc_presses, t("rip.esc_presses"), "esc presses");
    assert_eq!(stats.blocklisted, t("rip.blocklisted"), "blocklisted");
    assert_eq!(stats.replay_failures, t("rip.replay_failures"), "replay failures");
    assert_eq!(stats.windows_seen, t("rip.windows_seen"), "windows seen");
    assert_eq!(cs.captures, t("capture.captures"), "captures");
    assert_eq!(cs.full_hits, t("capture.full_hits"), "full hits");
    assert_eq!(cs.windows_rebuilt, t("capture.windows_rebuilt"), "windows rebuilt");
    assert_eq!(cs.blocks_reused, t("capture.blocks_reused"), "blocks reused");
    assert_eq!(cs.nodes_walked, t("capture.nodes_walked"), "nodes walked");
}

/// Launch captures are built once per launch image and name-variation
/// model, when a session is created, each timed as a capture `rebuild`:
/// sessions over forks of one fresh image under two models tally exactly
/// two builds, and every session's first capture is a full hit that
/// walks no window.
#[test]
fn launch_captures_build_once_per_image_and_model() {
    let _g = guard();
    let image = AppKind::Word.launch_small_version(1);
    let models = [InstabilityModel::off(), InstabilityModel::new(7, 0.5, 0.1)];
    dmi_obs::clear();
    dmi_obs::set_enabled(true);
    for i in 0..6 {
        let fork = image.fork().expect("Office apps fork");
        let mut s = Session::with_instability(fork, models[i % 2].clone());
        s.snapshot();
    }
    dmi_obs::set_enabled(false);
    let trace = dmi_obs::drain();
    let tallies = dmi_obs::tallies();
    dmi_obs::clear();
    let t = |k: &str| tallies.get(k).copied().unwrap_or(0);
    assert_eq!(t("capture.launch_builds"), 2, "one build per model");
    assert_eq!(trace.count(Some(Cat::Capture), "rebuild"), 2, "each build is a timed rebuild");
    assert_eq!(t("capture.captures"), 6);
    assert_eq!(t("capture.full_hits"), 6, "every first capture is a full hit");
    assert_eq!(t("capture.windows_rebuilt"), 0, "no session walks a window");
    assert_eq!(t("capture.nodes_walked"), 0, "nor a widget");
}

/// The fleet-side drift cross-check: the per-entry stats, summed over the
/// fleet, must add up to exactly the per-event tallies recorded on every
/// rip thread — an entry counted twice (or a thread's events lost)
/// breaks it.
#[test]
fn fleet_stats_match_obs_tallies() {
    let _g = guard();
    let obs = fleet_obs();
    let t = |k: &str| obs.tallies.get(k).copied().unwrap_or(0);
    let sum = |f: fn(&RipStats) -> u64| obs.stats.iter().map(f).sum::<u64>();
    assert_eq!(sum(|s| s.windows_seen), t("rip.windows_seen"), "windows seen");
    assert_eq!(sum(|s| s.clicks), t("rip.clicks"), "clicks");
    assert_eq!(sum(|s| s.snapshots), t("rip.snapshots"), "snapshots");
    assert_eq!(sum(|s| s.restarts), t("rip.restarts"), "restarts");
    assert_eq!(sum(|s| s.esc_recoveries), t("rip.esc_recoveries"), "esc recoveries");
    assert_eq!(sum(|s| s.blocklisted), t("rip.blocklisted"), "blocklist hits");
}

/// The exact work of the identity lineages on the small 3-app fleet rip:
/// post nodes the rip diffs probed against the pre index, and post nodes
/// they skipped inside a block sharing an available pre block's lineage
/// (a copied block's). A drift means the capture layer copied blocks
/// under other lineages or the diff's skip rule changed; the byte oracles
/// cannot see either.
#[test]
fn small_fleet_lineage_work_is_pinned() {
    let _g = guard();
    let obs = fleet_obs();
    let t = |k: &str| obs.tallies.get(k).copied().unwrap_or(0);
    let got = [t("rip.diff_probed"), t("rip.diff_skipped")];
    assert_eq!(got, [148_460, 227_069], "diff probes, diff skips");
}

/// The prompt-token work of one small-app Table 3 pass (every cell over
/// the suite at one run seed, under the evaluation instability): the
/// nodes whose name/type term a block lineage held, and the nodes whose
/// term a count computed. The run seed is used by no other test in this
/// binary, so its name-variation model gets launch captures of its own,
/// with fresh lineages, whatever ran before. Beside them, the pass's
/// agent-path lookups: executor resolves answered by the key lookup or
/// by the fuzzy pass, `further_query` calls, grounding scans, and no
/// full-description render at all.
#[test]
fn small_agent_token_work_is_pinned() {
    use dmi_agent::RunConfig;
    let _g = guard();
    let models = dmi_integration_tests::dmi_models();
    let tasks = dmi_tasks::all_tasks();
    dmi_obs::clear();
    dmi_obs::set_enabled(true);
    for (profile, mode) in dmi_bench::table3_rows() {
        for task in &tasks {
            let mut cfg = RunConfig::evaluation(profile.clone(), mode, 41);
            cfg.small_apps = true;
            dmi_agent::run_task(task, Some(&models[task.app.name()]), &cfg);
        }
    }
    dmi_obs::set_enabled(false);
    let tallies = dmi_obs::tallies();
    dmi_obs::clear();
    let t = |k: &str| tallies.get(k).copied().unwrap_or(0);
    let got = [t("observe.tokens_reused"), t("observe.tokens_computed")];
    assert_eq!(got, [40_436, 5_706], "name/type terms reused, computed");
    let got = [t("visit.exact"), t("visit.fuzzy"), t("visit.further_queries"), t("ground.scans")];
    assert_eq!(got, [290, 5, 4, 859], "exact and fuzzy resolves, full queries, grounding scans");
    // Every model came from `Dmi::build`, which renders its full
    // description once; the pass's queries all share that text.
    assert_eq!(t("describe.full_renders"), 0, "full renders during the pass");
}

/// The serve-side drift cross-check: the gateway's outcome counters and
/// virtual clock must equal the per-event tallies.
#[test]
fn serve_stats_match_obs_tallies() {
    let _g = guard();
    let (report, _trace, tallies) = serve_traced(12);
    let t = |k: &str| tallies.get(k).copied().unwrap_or(0);
    assert_eq!(report.stats.completed as u64, t("gateway.completed"), "completed");
    assert_eq!(report.stats.faulted as u64, t("gateway.faulted"), "faulted");
    assert_eq!(report.stats.completed as u64, t("gateway.admitted"), "all admissions completed");
    // Virtual seconds vs the settled-batch tally: equal up to the µs
    // rounding applied once per settled round.
    let vt_us = (report.stats.virtual_secs * 1e6).round() as i64;
    let tallied = t("llm.overlapped_us") as i64;
    assert!(
        (vt_us - tallied).abs() <= report.stats.rounds as i64,
        "virtual clock {vt_us}us vs tallied {tallied}us (rounds={})",
        report.stats.rounds
    );
    assert!(t("llm.calls") > 0, "batched calls were tallied");
}
