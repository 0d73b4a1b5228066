//! The paper's claims as checked invariants.
//!
//! [`Evaluation::run`] reproduces the §5.1 methodology once: it rips the
//! three apps, runs every distinct (profile, interface) cell over the
//! 27-task suite at run seeds 1–3 with a 30-step cap, the §3.4 robustness
//! grid and the two Table 1 examples. Every table and figure derives from
//! that one trace set, and [`Evaluation::claims`] turns it into the claims
//! table, the only place that knows a paper number. Each [`Claim`] states
//! its source, the paper's value, the measured value, a [`Predicate`] and
//! the [`Status`] recorded for it; a claim that stops holding and a known
//! miss that starts to hold both count as drift ([`Claim::drifted`]).

use crate::report::pct;
use dmi_agent::{aggregate, normalized_core_steps, run_task, Aggregate, RunConfig, RunTrace};
use dmi_core::graph::{ung_from_parts, Ung};
use dmi_core::topology::{build_forest, decycle, ForestStats};
use dmi_core::{Dmi, DmiBuildConfig, DmiBuildStats, ExecutorConfig, ForestConfig};
use dmi_gui::Session;
use dmi_llm::{CapabilityProfile, InterfaceMode};
use dmi_uia::{ControlType, FuzzyMatcher};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use InterfaceMode::{GuiOnly, GuiPlusDmi, GuiPlusForest};
use Predicate::{Greater, Within};

/// Run seeds of every cell: the paper averages three runs (§5.1).
pub const SEEDS: [u64; 3] = [1, 2, 3];

/// The interface conditions, in Figure 5b's column order.
const MODES: [InterfaceMode; 3] = [GuiOnly, GuiPlusForest, GuiPlusDmi];

/// The robustness ablation's executors (§3.4): label, retries on, fuzzy
/// matching on.
pub const EXECUTORS: [(&str, bool, bool); 4] = [
    ("full robustness", true, true),
    ("no retries", false, true),
    ("exact match only", true, false),
    ("naive (neither)", false, false),
];

/// The robustness ablation's UI instability levels: label, (late-load,
/// rename) probabilities. The mild level is the evaluation's own.
pub const LEVELS: [(&str, (f64, f64)); 3] = [
    ("stable UI", (0.0, 0.0)),
    ("mild (6% late, 2% rename)", (0.06, 0.02)),
    ("harsh (25% late, 10% rename)", (0.25, 0.10)),
];

/// One app's offline model plus its build statistics and wall time.
pub struct AppModel {
    /// The DMI instance, shared by reference with every run.
    pub dmi: Arc<Dmi>,
    /// Offline-phase statistics (§5.2).
    pub stats: DmiBuildStats,
    /// Wall-clock modeling time in seconds.
    pub build_secs: f64,
}

/// A Table 1 example run by an error-free agent on a stable UI, once
/// through the GUI alone and once through DMI.
pub struct Oracle {
    /// Imperative actions in the task's GUI plan.
    pub gui_actions: usize,
    /// Declarative turns in the task's DMI plan.
    pub dmi_turns: usize,
    /// The GUI-only and the GUI+DMI run.
    pub runs: [RunTrace; 2],
}

/// Every measurement the claims rest on, taken once.
pub struct Evaluation {
    /// Whether the apps were the small instances.
    pub small: bool,
    /// The offline models, by app name.
    pub models: BTreeMap<&'static str, AppModel>,
    /// Each distinct (profile label, mode) cell: the suite's tasks in
    /// order, each at every seed of [`SEEDS`].
    cells: BTreeMap<(String, InterfaceMode), Vec<RunTrace>>,
    /// GPT-5 (Medium) GUI+DMI success rate per executor of [`EXECUTORS`]
    /// (rows) and instability level of [`LEVELS`] (columns).
    pub robustness: [[f64; 3]; 4],
    /// The two Table 1 examples, slide background then scrolling.
    pub table1: [Oracle; 2],
    /// Figure 4's synthetic graphs: the diamond chain of each length, fully
    /// cloned and as a cost-based forest.
    pub chains: [(usize, ForestStats, ForestStats); 5],
}

/// The Table 3 grid: every row of the paper's table, in order.
pub fn table3_rows() -> Vec<(CapabilityProfile, InterfaceMode)> {
    let med = CapabilityProfile::gpt5_medium();
    let min = CapabilityProfile::gpt5_minimal();
    let mini = CapabilityProfile::gpt5_mini_medium();
    vec![
        (med.clone(), InterfaceMode::GuiOnly),
        (med.clone(), InterfaceMode::GuiPlusForest),
        (med, InterfaceMode::GuiPlusDmi),
        (min.clone(), InterfaceMode::GuiOnly),
        (min, InterfaceMode::GuiPlusDmi),
        (mini.clone(), InterfaceMode::GuiOnly),
        (mini.clone(), InterfaceMode::GuiPlusForest),
        (mini, InterfaceMode::GuiPlusDmi),
    ]
}

/// A chain of `k` diamonds (a node forking into two that join again),
/// decycled: a DAG linear in `k` whose full-clone tree doubles per diamond.
pub fn diamond_chain(k: usize) -> Ung {
    let mut names: Vec<String> = vec!["S".into()];
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for i in 0..k {
        let (prev, b) = (names.len().saturating_sub(1), names.len());
        names.extend(["L", "R", "J"].map(|side| format!("{side}{i}")));
        edges.extend([(prev, b), (prev, b + 1), (b, b + 2), (b + 1, b + 2)]);
    }
    let named: Vec<(&str, ControlType)> =
        names.iter().map(|n| (n.as_str(), ControlType::Button)).collect();
    let mut g = ung_from_parts(&named, &edges);
    decycle(&mut g);
    g
}

type Models = BTreeMap<&'static str, Arc<Dmi>>;

/// Rips the three apps (small or full instances) once each.
pub fn rip_models(small: bool) -> BTreeMap<&'static str, AppModel> {
    let mut models = BTreeMap::new();
    for kind in dmi_apps::AppKind::ALL {
        let mut session = Session::new(if small { kind.launch_small() } else { kind.launch() });
        let t0 = Instant::now();
        let (dmi, stats) = Dmi::build(&mut session, &DmiBuildConfig::office(kind.name()));
        let build_secs = t0.elapsed().as_secs_f64();
        models.insert(kind.name(), AppModel { dmi: Arc::new(dmi), stats, build_secs });
    }
    models
}

/// The suite's tasks in order, each at every seed, on its app's model.
fn run_suite(dmis: &Models, cfg: impl Fn(u64) -> RunConfig) -> Vec<RunTrace> {
    let tasks = dmi_tasks::all_tasks();
    let runs = tasks.iter().flat_map(|task| SEEDS.map(|seed| (task, seed)));
    runs.map(|(task, seed)| run_task(task, dmis.get(task.app.name()), &cfg(seed))).collect()
}

impl Evaluation {
    /// Rips the three apps (small or full instances) once and runs every
    /// cell, the robustness grid and the Table 1 examples on those models.
    pub fn run(small: bool) -> Evaluation {
        let models = rip_models(small);
        let dmis: Models = models.iter().map(|(&k, m)| (k, Arc::clone(&m.dmi))).collect();
        let cfg = |profile: &CapabilityProfile, mode, seed| RunConfig {
            small_apps: small,
            ..RunConfig::evaluation(profile.clone(), mode, seed)
        };

        // The robustness grid runs on a second thread beside the cells; every
        // run is independent, so the traces do not depend on the schedule.
        let med = CapabilityProfile::gpt5_medium();
        let (cells, robustness) = std::thread::scope(|scope| {
            let robustness = scope.spawn(|| {
                EXECUTORS.map(|(_, retries, fuzzy)| {
                    let mut exec = ExecutorConfig::default();
                    if !retries {
                        exec.retries = 0;
                    }
                    if !fuzzy {
                        // Above 1.0 no fuzzy score passes; exact matches still resolve.
                        exec.matcher = FuzzyMatcher { threshold: 1.01, ..exec.matcher };
                    }
                    let mut execs = dmis.clone();
                    for dmi in execs.values_mut() {
                        Arc::make_mut(dmi).executor = exec.clone();
                    }
                    LEVELS.map(|(_, instability)| {
                        let cfg = |seed| RunConfig { instability, ..cfg(&med, GuiPlusDmi, seed) };
                        aggregate(&run_suite(&execs, cfg)).sr
                    })
                })
            });
            let cells = table3_rows()
                .into_iter()
                .map(|(p, mode)| ((p.label(), mode), run_suite(&dmis, |seed| cfg(&p, mode, seed))));
            (cells.collect(), robustness.join().expect("the robustness grid runs to the end"))
        });

        let perfect = CapabilityProfile {
            policy_err: 0.0,
            dmi_mech_err: 0.0,
            grounding_err: 0.0,
            composite_err: 0.0,
            instruction_noise: 0.0,
            ..med
        };
        let table1 = TABLE1.map(|(_, id, ..)| {
            let task = dmi_tasks::task_by_id(id).expect("Table 1 task is in the suite");
            let runs = [GuiOnly, GuiPlusDmi].map(|mode| {
                let cfg = RunConfig { instability: (0.0, 0.0), ..cfg(&perfect, mode, 1) };
                run_task(&task, dmis.get(task.app.name()), &cfg)
            });
            assert!(runs.iter().all(|t| t.success), "{id}: oracle runs must succeed");
            Oracle { gui_actions: task.plan.gui.len(), dmi_turns: task.plan.dmi.len(), runs }
        });

        let chains = [4, 6, 8, 10, 12].map(|k| {
            let g = diamond_chain(k);
            let tree = ForestConfig { externalize_threshold: usize::MAX };
            let forest = ForestConfig { externalize_threshold: 4 };
            (k, build_forest(&g, &tree).1, build_forest(&g, &forest).1)
        });

        Evaluation { small, models, cells, robustness, table1, chains }
    }

    /// One cell's traces.
    pub fn cell(&self, profile: &CapabilityProfile, mode: InterfaceMode) -> &[RunTrace] {
        &self.cells[&(profile.label(), mode)]
    }

    /// One cell's Table 3 metrics.
    pub fn agg(&self, profile: &CapabilityProfile, mode: InterfaceMode) -> Aggregate {
        aggregate(self.cell(profile, mode))
    }

    /// Figure 5b for one profile: normalized core steps of each mode the
    /// paper plots (a `Some` in `bars`) over the (task, seed) runs all of
    /// those modes solved, and how many runs that is.
    fn fig5b(&self, profile: &CapabilityProfile, bars: Bars) -> (Bars, usize) {
        let plotted = MODES.iter().zip(bars).filter(|(_, bar)| bar.is_some());
        let by_mode = plotted.map(|(&mode, _)| (mode, self.cell(profile, mode).to_vec())).collect();
        let (norm, n) = normalized_core_steps(&by_mode);
        (MODES.map(|mode| norm.get(&mode).copied()), n)
    }
}

/// Half-width of every ratio band: a measured value within ±10% of the
/// paper's reproduces it.
pub const BAND: f64 = 0.10;

/// What makes a claim hold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Predicate {
    /// An ordering or a threshold: the first value exceeds the second.
    Greater(f64, f64),
    /// A ratio within the band: `(measured, paper)` with
    /// `measured / paper` in `1 ± BAND`.
    Within(f64, f64),
}

impl Predicate {
    /// Whether the measurement satisfies the predicate.
    fn holds(self) -> bool {
        match self {
            Predicate::Greater(a, b) => a > b,
            Predicate::Within(measured, paper) => (measured / paper - 1.0).abs() <= BAND,
        }
    }
}

/// The status recorded for a claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The reproduction shows the claim.
    Held,
    /// The reproduction misses the claim, for the stated cause.
    KnownMiss {
        /// Why, or "unattributed" while no cause has been located.
        cause: &'static str,
    },
}

/// One claim of the paper, checked against an [`Evaluation`].
#[derive(Debug, Clone)]
pub struct Claim {
    /// Table, figure or section of the paper.
    pub source: &'static str,
    /// What the paper claims.
    pub statement: String,
    /// The paper's value.
    pub paper: String,
    /// The reproduction's value.
    pub measured: String,
    /// The check on the measured value.
    pub predicate: Predicate,
    /// Recorded status on the full apps.
    pub full: Status,
    /// Recorded status on the small apps; `None` where the claim says
    /// nothing at that size, such as absolute values calibrated on the
    /// full apps.
    pub small: Option<Status>,
}

impl Claim {
    /// Whether the measurement disagrees with the status recorded at this
    /// size: a `Held` claim that misses, or a `KnownMiss` that holds.
    pub fn drifted(&self, small: bool) -> bool {
        let recorded = if small { self.small } else { Some(self.full) };
        recorded.is_some_and(|s| (s == Status::Held) != self.predicate.holds())
    }
}

const HELD: Status = Status::Held;
const UNATTRIBUTED: Status = Status::KnownMiss { cause: "unattributed" };
const GUI_LOW: Status = Status::KnownMiss {
    cause: "GPT-5 (Medium) GUI-only succeeds less often than in the paper while the \
            GUI+DMI and Nav.forest cells match it; why that baseline runs low is unattributed",
};
const THIN: Status = Status::KnownMiss {
    cause: "the paper plots all three modes for GPT-5-mini, and their intersection holds a \
            single run (n); GUI-only and GUI+DMI alone share 8 solved runs, ordered as in the \
            paper",
};
const SMALL_SCREENS: Status = Status::KnownMiss {
    cause: "the small apps' screens carry a fraction of the full apps' controls while the \
            DMI core topology keeps nearly its full size, so GUI-only prompts are the cheaper",
};
const EXCEL_GRID: Status = Status::KnownMiss {
    cause: "2,860 of the simulated Excel's 4,184 forest nodes are grid cells, which the core \
            prunes as large enumerations (286 kept), and its galleries hold fewer list items \
            (970) than Word's (2,153) or PowerPoint's (1,741)",
};
const RETRY_STEPS: Status = Status::KnownMiss {
    cause: "without retries the same runs succeed with more LLM calls (harsh UI, full apps: \
            388 vs 372 calls, 4.65 vs 4.41 steps per success): a late load costs the agent a \
            step after the structured error instead of costing the task",
};

/// Table 1's examples: label, suite task, and the paper's imperative GUI
/// chain and declarative DMI call.
const TABLE1: [(&str, &str, &str, &str); 2] = [
    (
        "Task 1: blue background on all slides",
        "ppt-background-all",
        "click(Design)->click(Format Background)->click(Solid fill)->click(Fill Color)->click(Blue)->click(Apply to All)",
        "visit([\"Blue\", \"Apply to All\"])",
    ),
    ("Task 2: show the area close to the end", "word-scroll-end", "iterative drag-and-drop", "set_scrollbar_pos(90%)"),
];

/// Table 3 as the paper prints it, in [`table3_rows`] order: SR (%),
/// steps and time (s), each with its recorded full-app status.
const TABLE3: [[(f64, Status); 3]; 8] = [
    [(44.4, GUI_LOW), (8.16, HELD), (392.0, UNATTRIBUTED)],
    [(42.0, HELD), (8.41, UNATTRIBUTED), (353.0, HELD)],
    [(74.1, HELD), (4.61, HELD), (239.0, UNATTRIBUTED)],
    [(23.5, HELD), (8.42, UNATTRIBUTED), (251.0, UNATTRIBUTED)],
    [(40.7, HELD), (5.52, HELD), (140.0, HELD)],
    [(17.3, HELD), (7.14, HELD), (171.0, HELD)],
    [(23.5, HELD), (6.32, HELD), (150.0, UNATTRIBUTED)],
    [(43.2, HELD), (4.43, HELD), (167.0, UNATTRIBUTED)],
];

/// One value per mode of [`MODES`], `None` where the paper has no bar.
type Bars = [Option<f64>; 3];

/// Figure 5b's normalized core steps per profile of
/// `CapabilityProfile::evaluation_set`, in [`MODES`] order (the paper has
/// no Nav.forest bar for GPT-5 (Minimal)), with the recorded full-app
/// status of "GUI+DMI needs fewer core steps than GUI-only".
const FIG5B: [(Bars, Status); 3] = [
    ([Some(4.94), Some(5.58), Some(1.60)], HELD),
    ([Some(7.10), None, Some(3.42)], HELD),
    ([Some(4.02), Some(3.26), Some(1.52)], THIN),
];

impl Evaluation {
    /// The claims table, measured on this evaluation.
    pub fn claims(&self) -> Vec<Claim> {
        let mut out = Vec::new();
        let mut push = |source, statement: String, values: [String; 2], predicate, full, small| {
            let [paper, measured] = values;
            out.push(Claim { source, statement, paper, measured, predicate, full, small });
        };
        let (med, mini) = (CapabilityProfile::gpt5_medium(), CapabilityProfile::gpt5_mini_medium());

        for ((label, _, gui_chain, dmi_call), oracle) in TABLE1.iter().zip(&self.table1) {
            let [gui, dmi] = oracle.runs.each_ref().map(|t| t.llm_calls);
            let (actions, turns) = (oracle.gui_actions, oracle.dmi_turns);
            let values = [
                format!("{gui_chain} vs {dmi_call}"),
                format!("{actions} imperative actions / {gui} LLM calls vs {turns} declarative turn(s) / {dmi} LLM calls"),
            ];
            let statement = format!("{label}: one declarative call replaces the GUI chain");
            let predicate = Greater(gui as f64, dmi as f64);
            push("Table 1", statement, values, predicate, HELD, Some(HELD));
        }

        let grid = table3_rows();
        let paper = |profile: &CapabilityProfile, mode, metric: usize| {
            let row = grid.iter().position(|(p, m)| p == profile && *m == mode);
            TABLE3[row.expect("a Table 3 cell")][metric].0
        };
        for ((profile, mode), row) in grid.iter().zip(TABLE3) {
            let agg = self.agg(profile, *mode);
            let metrics = [
                ("SR", agg.sr * 100.0, 1, "%"),
                ("steps", agg.avg_steps, 2, ""),
                ("time (s)", agg.avg_secs, 0, ""),
            ];
            for ((metric, measured, digits, unit), (paper, full)) in metrics.into_iter().zip(row) {
                let statement = format!("{} {} {metric}", profile.label(), mode.label());
                let values = [paper, measured].map(|v| format!("{v:.digits$}{unit}"));
                push("Table 3", statement, values, Within(measured, paper), full, None);
            }
        }

        for (profile, win, lose, full) in
            [(&med, GuiOnly, GuiPlusForest, GUI_LOW), (&mini, GuiPlusForest, GuiOnly, HELD)]
        {
            let [w, l] = [win, lose].map(|m| self.agg(profile, m).sr);
            let values = [
                format!("{:.1}% vs {:.1}%", paper(profile, win, 0), paper(profile, lose, 0)),
                format!("{} vs {}", pct(w), pct(l)),
            ];
            let statement =
                format!("{}: {} beats {} on SR", profile.label(), win.label(), lose.label());
            push("Table 3", statement, values, Greater(w, l), full, Some(full));
        }

        let (gui, dmi) = (self.agg(&med, GuiOnly), self.agg(&med, GuiPlusDmi));
        let ratio = |metric: usize| paper(&med, GuiPlusDmi, metric) / paper(&med, GuiOnly, metric);
        let sr_gain = dmi.sr / gui.sr.max(1e-9);
        let cuts =
            [("steps", 1, dmi.avg_steps / gui.avg_steps), ("time", 2, dmi.avg_secs / gui.avg_secs)];
        for (metric, column, kept) in cuts {
            let (paper, measured) = (100.0 * (1.0 - ratio(column)), 100.0 * (1.0 - kept));
            let statement = format!("GPT-5 (Medium): GUI+DMI cuts {metric} per success");
            let values = [format!("{paper:.1}%"), format!("{measured:.1}%")];
            push("Fig 5a", statement, values, Within(measured, paper), HELD, Some(HELD));
        }
        let statement = "GPT-5 (Medium): GUI+DMI multiplies the GUI-only SR".to_string();
        let values = [format!("{:.2}x", ratio(0)), format!("{sr_gain:.2}x")];
        push("Fig 5a", statement, values, Within(sr_gain, ratio(0)), GUI_LOW, Some(GUI_LOW));
        let tokens = MODES.map(|m| format!("{:.0}", self.agg(&med, m).avg_tokens)).join(" / ");
        let statement = "GPT-5 (Medium): GUI+DMI spends fewer tokens per task".to_string();
        let values = ["DMI below GUI-only".into(), format!("GUI / Nav.forest / DMI {tokens}")];
        let predicate = Greater(gui.avg_tokens, dmi.avg_tokens);
        push("Fig 5a", statement, values, predicate, HELD, Some(SMALL_SCREENS));

        let profiles = CapabilityProfile::evaluation_set();
        for ((profile, (bars, full)), small) in
            profiles.iter().zip(FIG5B).zip([Some(HELD), None, None])
        {
            let (steps, n) = self.fig5b(profile, bars);
            let show = |bars: Bars| bars.map(|v| v.map_or("-".into(), |v| format!("{v:.2}")));
            let (paper, measured) = (show(bars).join(" / "), show(steps).join(" / "));
            let measured = format!("{measured} (n = {n})");
            let statement = format!("{}: GUI+DMI needs fewer core steps", profile.label());
            let [gui, dmi] = [steps[0], steps[2]].map(|v| v.expect("every row plots both"));
            let predicate = Greater(gui, dmi);
            push("Fig 5b", statement, [paper, measured], predicate, full, small);
        }

        let solved = self.cell(&med, GuiPlusDmi).iter().filter(|t| t.success);
        let (n, one_shot) =
            solved.fold((0, 0), |(n, k), t| (n + 1, k + usize::from(t.llm_calls <= 4)));
        let statement =
            "GPT-5 (Medium): over 61% of GUI+DMI successes take one core call".to_string();
        let values = ["> 61%".into(), format!("{one_shot} / {n} = {}", pct(dmi.one_shot_frac))];
        let predicate = Greater(dmi.one_shot_frac * 100.0, 61.0);
        push("§5.3", statement, values, predicate, HELD, Some(HELD));

        for (label, agg, paper) in [("GUI+DMI", &dmi, 81.0), ("GUI-only", &gui, 46.7)] {
            let policy = agg.policy_failure_frac() * 100.0;
            let split = |p: f64| format!("{p:.1}% policy / {:.1}% mechanism", 100.0 - p);
            let statement = format!("GPT-5 (Medium) {label}: policy-level share of failures");
            let predicate = Within(policy, paper);
            push("Fig 6", statement, [split(paper), split(policy)], predicate, HELD, Some(HELD));
        }

        let ((k0, tree0, _), (k, tree, forest)) =
            (self.chains[0], self.chains[self.chains.len() - 1]);
        let grow =
            (tree.forest_nodes as f64 / tree0.forest_nodes as f64).powf(1.0 / (k - k0) as f64);
        let linear = forest.forest_nodes as f64 / forest.dag_nodes as f64;
        let statement = "Cloning every merge node grows the tree exponentially".to_string();
        let values = ["x2 per diamond".into(), format!("x{grow:.3} per diamond")];
        push("Fig 4", statement, values, Within(grow, 2.0), HELD, Some(HELD));
        let statement = "The cost-based forest stays linear in the graph".to_string();
        let values = ["linear".into(), format!("{linear:.2}x the DAG at k = {k}")];
        push("Fig 4", statement, values, Greater(2.0, linear), HELD, Some(HELD));

        let stat = |app: &str, f: fn(&DmiBuildStats) -> usize| f(&self.models[app].stats) as f64;
        let per_app = |f| {
            self.models.keys().map(|a| format!("{a} {}", stat(a, f))).collect::<Vec<_>>().join(", ")
        };
        let sum = |f| self.models.keys().map(|a| stat(a, f)).sum::<f64>();
        let min_raw = self.models.keys().map(|a| stat(a, |s| s.rip_nodes)).fold(f64::MAX, f64::min);
        let statement = "Each app's raw modeled graph exceeds 4K controls".to_string();
        let values = ["> 4K".into(), per_app(|s| s.rip_nodes)];
        push("§5.2", statement, values, Greater(min_raw, 4000.0), UNATTRIBUTED, None);
        let rival = stat("Word", |s| s.core_tokens).max(stat("PowerPoint", |s| s.core_tokens));
        let statement = "Excel has the largest core topology".to_string();
        let values = [
            "tokens Excel ~30K, Word and PowerPoint ~15K; controls Excel ~2K, others ~1K".into(),
            format!(
                "tokens {}; controls {}",
                per_app(|s| s.core_tokens),
                per_app(|s| s.core_controls)
            ),
        ];
        let predicate = Greater(stat("Excel", |s| s.core_tokens), rival);
        push("§5.2, §5.4", statement, values, predicate, EXCEL_GRID, None);
        let per_control = sum(|s| s.full_tokens) / sum(|s| s.forest.forest_nodes);
        let statement = "A control's description costs about 15 tokens".to_string();
        let values = ["~15".into(), format!("{per_control:.1} over all apps")];
        push("§5.4", statement, values, Within(per_control, 15.0), UNATTRIBUTED, None);

        let sr = |exec: usize, level: usize| self.robustness[exec][level];
        let drop = |exec: usize| sr(exec, 0) - sr(exec, 2);
        let texts = [
            ("Retries absorb late loading (harsh UI)", "full > no retries"),
            ("Fuzzy matching absorbs renames (mild UI)", "full > exact match only"),
            ("The naive executor degrades fastest", "naive drops more than full"),
        ];
        let checks = [(sr(0, 2), sr(1, 2)), (sr(0, 1), sr(2, 1)), (drop(3), drop(0))];
        for ((text, (a, b)), full) in texts.into_iter().zip(checks).zip([RETRY_STEPS, HELD, HELD]) {
            let values = [text.1.into(), format!("{} vs {}", pct(a), pct(b))];
            push("§3.4", text.0.into(), values, Greater(a, b), full, Some(full));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every claim meaningful at the evaluation's size keeps its recorded
    /// status.
    fn assert_no_drift(eval: &Evaluation) -> Vec<Claim> {
        let claims = eval.claims();
        let drift: Vec<String> =
            claims.iter().filter(|c| c.drifted(eval.small)).map(|c| format!("{c:?}")).collect();
        assert!(
            drift.is_empty(),
            "claims drifted from their recorded status:\n{}",
            drift.join("\n")
        );
        claims
    }

    #[test]
    fn small_app_claims_keep_their_status() {
        let eval = Evaluation::run(true);
        for cell in eval.cells.values() {
            assert_eq!(cell.len(), dmi_tasks::all_tasks().len() * SEEDS.len());
        }
        let sr = eval.agg(&CapabilityProfile::gpt5_medium(), GuiPlusDmi).sr;
        assert!(sr > 0.3, "GUI+DMI SR too low: {sr}");
        let claims = assert_no_drift(&eval);
        let table3 = claims.iter().filter(|c| c.source == "Table 3" && c.small.is_none());
        assert_eq!(table3.count(), 3 * table3_rows().len(), "SR, steps and time of every cell");
    }

    #[test]
    #[ignore = "rips the full apps; run in release"]
    fn full_app_claims_keep_their_status() {
        assert_no_drift(&Evaluation::run(false));
    }
}
