//! Run traces and evaluation aggregation (Table 3 / Figure 5 metrics).

use dmi_llm::{FailureCause, FailureLevel, InterfaceMode};
use std::collections::{BTreeMap, BTreeSet};

/// The record of one task run.
#[derive(Debug, Clone)]
pub struct RunTrace {
    /// Task identifier.
    pub task_id: String,
    /// Interface condition.
    pub mode: InterfaceMode,
    /// Profile label (e.g. `"GPT-5 (Medium)"`).
    pub profile: String,
    /// Run seed.
    pub seed: u64,
    /// Whether the verifier accepted the end state.
    pub success: bool,
    /// Total LLM calls (the paper's Steps metric).
    pub llm_calls: usize,
    /// Calls minus the fixed 3-call framework overhead.
    pub core_calls: usize,
    /// Simulated completion time in seconds.
    pub sim_secs: f64,
    /// Total prompt tokens.
    pub prompt_tokens: usize,
    /// Total output tokens.
    pub output_tokens: usize,
    /// Failure cause when unsuccessful.
    pub failure: Option<FailureCause>,
    /// Whether the DMI agent fell back to GUI primitives.
    pub fallback_used: bool,
}

impl RunTrace {
    /// The canonical byte rendering of the trace, covering every field —
    /// what the trace-identity oracles compare. Two runs are equivalent
    /// exactly when these bytes match.
    pub fn identity_bytes(&self) -> String {
        format!("{self:?}")
    }
}

/// Aggregated metrics for one (mode, profile) cell of Table 3.
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    /// Number of runs.
    pub runs: usize,
    /// Success rate over all runs.
    pub sr: f64,
    /// Average LLM calls over *successful* runs (paper methodology).
    pub avg_steps: f64,
    /// Average simulated time over successful runs (seconds).
    pub avg_secs: f64,
    /// Average total tokens per run (prompt + output), all runs.
    pub avg_tokens: f64,
    /// Fraction of successful runs completed in ≤ 4 calls (one core call).
    pub one_shot_frac: f64,
    /// Failure-cause histogram over failed runs.
    pub failures: BTreeMap<FailureCause, usize>,
}

impl Aggregate {
    /// Policy-level share of failures (Figure 6).
    pub fn policy_failure_frac(&self) -> f64 {
        let total: usize = self.failures.values().sum();
        if total == 0 {
            return 0.0;
        }
        let policy: usize = self
            .failures
            .iter()
            .filter(|(c, _)| c.level() == FailureLevel::Policy)
            .map(|(_, n)| n)
            .sum();
        policy as f64 / total as f64
    }

    /// Total failures recorded.
    pub fn failure_count(&self) -> usize {
        self.failures.values().sum()
    }
}

/// Aggregates traces into Table 3 metrics.
pub fn aggregate(traces: &[RunTrace]) -> Aggregate {
    let runs = traces.len();
    if runs == 0 {
        return Aggregate::default();
    }
    let successes: Vec<&RunTrace> = traces.iter().filter(|t| t.success).collect();
    let sr = successes.len() as f64 / runs as f64;
    let avg = |f: &dyn Fn(&RunTrace) -> f64, set: &[&RunTrace]| -> f64 {
        if set.is_empty() {
            0.0
        } else {
            set.iter().map(|t| f(t)).sum::<f64>() / set.len() as f64
        }
    };
    let avg_steps = avg(&|t| t.llm_calls as f64, &successes);
    let avg_secs = avg(&|t| t.sim_secs, &successes);
    let all: Vec<&RunTrace> = traces.iter().collect();
    let avg_tokens = avg(&|t| (t.prompt_tokens + t.output_tokens) as f64, &all);
    let one_shot = successes.iter().filter(|t| t.llm_calls <= 4).count();
    let one_shot_frac =
        if successes.is_empty() { 0.0 } else { one_shot as f64 / successes.len() as f64 };
    let mut failures = BTreeMap::new();
    for t in traces.iter().filter(|t| !t.success) {
        if let Some(c) = t.failure {
            *failures.entry(c).or_insert(0) += 1;
        }
    }
    Aggregate { runs, sr, avg_steps, avg_secs, avg_tokens, one_shot_frac, failures }
}

/// Figure 5b's normalized core steps: average core calls per mode over the
/// intersection of `(task, seed)` runs every mode solved, and the number of
/// runs in that intersection — the sample each average rests on.
pub fn normalized_core_steps(
    by_mode: &BTreeMap<InterfaceMode, Vec<RunTrace>>,
) -> (BTreeMap<InterfaceMode, f64>, usize) {
    // Key solved sets by (task, seed).
    let mut solved: Vec<BTreeSet<(String, u64)>> = Vec::new();
    for traces in by_mode.values() {
        solved.push(
            traces.iter().filter(|t| t.success).map(|t| (t.task_id.clone(), t.seed)).collect(),
        );
    }
    let intersection: BTreeSet<(String, u64)> = match solved.split_first() {
        Some((first, rest)) => {
            rest.iter().fold(first.clone(), |acc, s| acc.intersection(s).cloned().collect())
        }
        None => BTreeSet::new(),
    };
    let mut out = BTreeMap::new();
    for (mode, traces) in by_mode {
        let subset: Vec<&RunTrace> = traces
            .iter()
            .filter(|t| t.success && intersection.contains(&(t.task_id.clone(), t.seed)))
            .collect();
        let avg = if subset.is_empty() {
            0.0
        } else {
            subset.iter().map(|t| t.core_calls as f64).sum::<f64>() / subset.len() as f64
        };
        out.insert(*mode, avg);
    }
    (out, intersection.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tr(task: &str, mode: InterfaceMode, seed: u64, success: bool, calls: usize) -> RunTrace {
        RunTrace {
            task_id: task.into(),
            mode,
            profile: "test".into(),
            seed,
            success,
            llm_calls: calls,
            core_calls: calls.saturating_sub(3),
            sim_secs: calls as f64 * 40.0,
            prompt_tokens: 1000 * calls,
            output_tokens: 50 * calls,
            failure: if success { None } else { Some(FailureCause::ControlLocalization) },
            fallback_used: false,
        }
    }

    #[test]
    fn aggregate_basic_metrics() {
        let traces = vec![
            tr("a", InterfaceMode::GuiOnly, 0, true, 4),
            tr("b", InterfaceMode::GuiOnly, 0, true, 8),
            tr("c", InterfaceMode::GuiOnly, 0, false, 30),
        ];
        let a = aggregate(&traces);
        assert_eq!(a.runs, 3);
        assert!((a.sr - 2.0 / 3.0).abs() < 1e-9);
        assert!((a.avg_steps - 6.0).abs() < 1e-9, "steps over successes only");
        assert!((a.one_shot_frac - 0.5).abs() < 1e-9);
        assert_eq!(a.failure_count(), 1);
        assert_eq!(a.policy_failure_frac(), 0.0);
    }

    #[test]
    fn empty_aggregate_is_zeroed() {
        let a = aggregate(&[]);
        assert_eq!(a.runs, 0);
        assert_eq!(a.sr, 0.0);
    }

    #[test]
    fn normalized_steps_use_intersection() {
        let mut by_mode = BTreeMap::new();
        by_mode.insert(
            InterfaceMode::GuiOnly,
            vec![
                tr("a", InterfaceMode::GuiOnly, 0, true, 10),
                tr("b", InterfaceMode::GuiOnly, 0, false, 30),
            ],
        );
        by_mode.insert(
            InterfaceMode::GuiPlusDmi,
            vec![
                tr("a", InterfaceMode::GuiPlusDmi, 0, true, 4),
                tr("b", InterfaceMode::GuiPlusDmi, 0, true, 4),
            ],
        );
        let (n, runs) = normalized_core_steps(&by_mode);
        // Only task "a" (seed 0) is solved by both; GUI avg = 7, DMI avg = 1.
        assert_eq!(runs, 1);
        assert!((n[&InterfaceMode::GuiOnly] - 7.0).abs() < 1e-9);
        assert!((n[&InterfaceMode::GuiPlusDmi] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn normalized_steps_count_the_intersection() {
        let solved = |mode, runs: &[(&str, u64)]| -> Vec<RunTrace> {
            runs.iter().map(|&(task, seed)| tr(task, mode, seed, true, 5)).collect()
        };
        let (gui, forest, dmi) =
            (InterfaceMode::GuiOnly, InterfaceMode::GuiPlusForest, InterfaceMode::GuiPlusDmi);
        let disjoint = BTreeMap::from([
            (gui, solved(gui, &[("a", 1), ("b", 1)])),
            (dmi, solved(dmi, &[("a", 2)])),
        ]);
        let (n, runs) = normalized_core_steps(&disjoint);
        assert_eq!(runs, 0, "same task at another seed is another run");
        assert_eq!((n[&gui], n[&dmi]), (0.0, 0.0));

        let overlapping = BTreeMap::from([
            (gui, solved(gui, &[("a", 1), ("a", 2), ("b", 1), ("c", 3)])),
            (dmi, solved(dmi, &[("a", 1), ("b", 1), ("c", 3), ("d", 1)])),
            (forest, solved(forest, &[("a", 1), ("c", 3)])),
        ]);
        assert_eq!(normalized_core_steps(&overlapping).1, 2, "(a, 1) and (c, 3)");
    }

    #[test]
    fn policy_fraction_counts_levels() {
        let mut t1 = tr("a", InterfaceMode::GuiPlusDmi, 0, false, 5);
        t1.failure = Some(FailureCause::AmbiguousTask);
        let t2 = tr("b", InterfaceMode::GuiPlusDmi, 0, false, 5);
        let a = aggregate(&[t1, t2]);
        assert!((a.policy_failure_frac() - 0.5).abs() < 1e-9);
    }
}
