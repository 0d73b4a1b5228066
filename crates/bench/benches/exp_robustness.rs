//! Robustness ablation (DESIGN.md design-choice ablations; §3.4).
//!
//! DMI ships three robustness mechanisms: fuzzy control matching, failure
//! retries for late-loading UIs, and structured error feedback. This
//! harness disables the first two and measures GUI+DMI success under
//! increasing UI instability, isolating each mechanism's contribution.

use dmi_agent::{aggregate, run_task, InterfaceMode, RunConfig};
use dmi_bench::{models, report, EvalConfig};
use dmi_core::{Dmi, ExecutorConfig};
use dmi_llm::CapabilityProfile;
use dmi_uia::FuzzyMatcher;
use std::collections::BTreeMap;
use std::sync::Arc;

fn with_executor(dmi: &Dmi, exec: ExecutorConfig) -> Dmi {
    let mut d = dmi.clone();
    d.executor = exec;
    d
}

fn run_suite(execs: &BTreeMap<&'static str, Arc<Dmi>>, instability: (f64, f64)) -> f64 {
    let profile = CapabilityProfile::gpt5_medium();
    let cfg = EvalConfig::default();
    let mut traces = Vec::new();
    for task in &dmi_tasks::all_tasks() {
        for &seed in &cfg.seeds {
            let run_cfg = RunConfig {
                profile: profile.clone(),
                mode: InterfaceMode::GuiPlusDmi,
                seed,
                step_cap: 30,
                small_apps: false,
                instability,
            };
            traces.push(run_task(task, execs.get(task.app.name()), &run_cfg));
        }
    }
    aggregate(&traces).sr
}

fn main() {
    let models = models();
    println!("{}", report::banner("Robustness ablation: GUI+DMI SR under UI instability"));

    let full = ExecutorConfig::default();
    let no_retry = ExecutorConfig { retries: 0, ..ExecutorConfig::default() };
    let exact_only = ExecutorConfig {
        // A threshold above 1.0 disables fuzzy acceptance; exact matches
        // still resolve.
        matcher: FuzzyMatcher { threshold: 1.01, name_weight: 0.5 },
        ..ExecutorConfig::default()
    };
    let naive = ExecutorConfig {
        retries: 0,
        matcher: FuzzyMatcher { threshold: 1.01, name_weight: 0.5 },
        ..ExecutorConfig::default()
    };

    let configs: Vec<(&str, &ExecutorConfig)> = vec![
        ("full robustness", &full),
        ("no retries", &no_retry),
        ("exact match only", &exact_only),
        ("naive (neither)", &naive),
    ];
    let levels: Vec<(&str, (f64, f64))> = vec![
        ("stable UI", (0.0, 0.0)),
        ("mild (6% late, 2% rename)", (0.06, 0.02)),
        ("harsh (25% late, 10% rename)", (0.25, 0.10)),
    ];

    let mut rows = Vec::new();
    for (cname, exec) in &configs {
        let execs: BTreeMap<&'static str, Arc<Dmi>> = models
            .iter()
            .map(|(&k, m)| (k, Arc::new(with_executor(&m.dmi, (*exec).clone()))))
            .collect();
        let mut row = vec![cname.to_string()];
        for (_, inst) in &levels {
            row.push(report::pct(run_suite(&execs, *inst)));
        }
        rows.push(row);
    }
    let headers: Vec<&str> =
        std::iter::once("Executor").chain(levels.iter().map(|(l, _)| *l)).collect();
    println!("{}", report::table(&headers, &rows));
    println!("Expectation: retries absorb late loading; fuzzy matching absorbs renames;");
    println!("the naive executor degrades fastest as instability grows (§3.4).");
}
