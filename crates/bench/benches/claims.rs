//! Runs the paper's evaluation once on the full apps and prints the tables
//! behind each claim, then the claims table with each claim's recorded
//! status: `cargo bench -p dmi-bench --bench claims`.

use dmi_bench::claims::{diamond_chain, Evaluation, Status, EXECUTORS, LEVELS};
use dmi_bench::report::{banner, pct, table};
use dmi_core::topology::build_forest;
use dmi_core::ForestConfig;
use dmi_llm::{CapabilityProfile, InterfaceMode};
use std::collections::BTreeMap;
use std::time::Instant;

fn row<const N: usize>(cells: [&dyn ToString; N]) -> Vec<String> {
    cells.iter().map(|c| c.to_string()).collect()
}

fn print(title: &str, headers: &str, rows: &[Vec<String>]) {
    println!("{}{}", banner(title), table(&headers.split('|').collect::<Vec<_>>(), rows));
}

fn main() {
    let t0 = Instant::now();
    let eval = Evaluation::run(false);
    let med = CapabilityProfile::gpt5_medium();

    let rows: Vec<_> = eval
        .models
        .iter()
        .map(|(app, m)| {
            let (s, f) = (&m.stats, &m.stats.forest);
            let growth = format!("{:.2}x", f.forest_nodes as f64 / f.dag_nodes as f64);
            let per_control = format!("{:.1}", s.full_tokens as f64 / f.forest_nodes as f64);
            let secs = format!("{:.1}", m.build_secs);
            row([app, &s.rip_nodes, &s.rip_edges, &s.decycle.back_edges_removed, &f.merge_nodes])
                .into_iter()
                .chain(row([&f.externalized, &f.cloned, &f.forest_nodes, &growth]))
                .chain(row([&s.core_controls, &s.core_tokens, &s.full_tokens, &per_control, &secs]))
                .collect()
        })
        .collect();
    let headers = "App|UNG nodes|UNG edges|Back edges|Merge nodes|Externalized|Cloned|Forest nodes\
                   |Growth|Core controls|Core tokens|Full tokens|Tokens/control|Model time (s)";
    print("§5.2, §5.4, Figure 4: offline models of the full apps", headers, &rows);
    let rows: Vec<_> = eval
        .models
        .iter()
        .map(|(app, m)| {
            let r = &m.stats.rip;
            row([app, &r.clicks, &r.snapshots, &r.restarts, &r.blocklisted])
                .into_iter()
                .chain(row([&r.replay_failures, &r.windows_seen]))
                .collect()
        })
        .collect();
    let headers = "App|Clicks|Snapshots|Restarts|Blocklisted|Replay fails|Windows";
    print("§5.2: ripper effort", headers, &rows);

    let rows: Vec<_> = eval
        .chains
        .iter()
        .map(|(k, tree, forest)| {
            row([k, &tree.dag_nodes, &tree.forest_nodes, &forest.forest_nodes])
        })
        .collect();
    let headers = "Diamond chain k|DAG nodes|Full-clone tree nodes|Forest nodes";
    print("Figure 4 (synthetic): cloning blow-up vs forest", headers, &rows);
    let g = diamond_chain(10);
    let rows: Vec<_> = [0, 2, 4, 8, 16, 64, 1024, usize::MAX]
        .into_iter()
        .map(|t| {
            let (_, s) = build_forest(&g, &ForestConfig { externalize_threshold: t });
            let label = if t == usize::MAX { "inf".to_string() } else { t.to_string() };
            row([&label, &s.externalized, &s.cloned, &s.forest_nodes])
        })
        .collect();
    let headers = "Threshold|Externalized|Cloned|Total nodes";
    print("Figure 4: threshold sweep on the k=10 chain", headers, &rows);

    for mode in [InterfaceMode::GuiPlusDmi, InterfaceMode::GuiOnly] {
        let agg = eval.agg(&med, mode);
        let mut failures: Vec<_> = agg.failures.iter().collect();
        failures.sort_by_key(|&(_, n)| std::cmp::Reverse(*n));
        let share = |n: usize| pct(n as f64 / agg.failure_count().max(1) as f64);
        let rows: Vec<_> = failures
            .into_iter()
            .map(|(cause, n)| row([cause, &format!("{:?}", cause.level()), n, &share(*n)]))
            .collect();
        let title = format!("Figure 6: GPT-5 (Medium) {} failures", mode.label());
        print(&title, "Cause|Level|Count|Share", &rows);
    }

    let traces = eval.cell(&med, InterfaceMode::GuiPlusDmi);
    let mut calls: BTreeMap<usize, usize> = BTreeMap::new();
    for t in traces.iter().filter(|t| t.success) {
        *calls.entry(t.llm_calls).or_default() += 1;
    }
    let successes = calls.values().sum::<usize>() as f64;
    let rows: Vec<_> =
        calls.iter().map(|(c, n)| row([c, n, &pct(*n as f64 / successes)])).collect();
    let title = "§5.3: LLM calls per success (GPT-5 Medium, GUI+DMI)";
    print(title, "LLM calls|Successful runs|Share", &rows);
    let fallback = traces.iter().filter(|t| t.fallback_used).count();
    println!("GUI fallback used in {fallback} / {} runs", traces.len());

    let rows: Vec<_> = EXECUTORS
        .iter()
        .zip(&eval.robustness)
        .map(|((label, ..), srs)| [label.to_string()].into_iter().chain(srs.map(pct)).collect())
        .collect();
    let headers = format!("Executor|{}", LEVELS.map(|(label, _)| label).join("|"));
    print("§3.4 robustness: GPT-5 (Medium) GUI+DMI SR under UI instability", &headers, &rows);

    let claims = eval.claims();
    let rows: Vec<_> = claims
        .iter()
        .map(|c| {
            let status = if c.full == Status::Held { "held" } else { "known miss" };
            let drift = if c.drifted(false) { " (DRIFTED)" } else { "" };
            row([&c.source, &c.statement, &c.paper, &c.measured, &format!("{status}{drift}")])
        })
        .collect();
    print("Claims", "Source|Claim|Paper|Measured|Status", &rows);
    println!("Known misses:");
    for c in &claims {
        if let Status::KnownMiss { cause } = c.full {
            println!("- [{}] {}: {cause}", c.source, c.statement);
        }
    }
    let drifted = claims.iter().filter(|c| c.drifted(false)).count();
    println!("\n{} claims, {drifted} drifted from their recorded status", claims.len());
    println!("wall time {:.2} s", t0.elapsed().as_secs_f64());
}
