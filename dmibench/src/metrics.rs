//! Metric declarations, the per-layer fold, and small statistics helpers.
//!
//! `BENCHMARK.json` at the repository root must declare exactly these
//! names, units and directions; the self-check in `main.rs` enforces it.

use dmi_obs::{Cat, Clock, Phase, Trace};
use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric. `note` says what it measures (end to end) or
/// which end-to-end metric and workload it should move (per layer).
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub note: &'static str,
}

const fn d(name: &'static str, unit: &'static str, better: Better, note: &'static str) -> Decl {
    Decl { name, unit, better, note }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every workload with tracing off. Each
/// workload gives the operation-level ones its own unit of work: an
/// office3 build, a Table 3 grid pass, or a served batch. The agent
/// metrics come from GPT-5 (Medium) runs: the core-setting sample on
/// build_office3 and agent_grid, the served batch on serve_mix. The wall
/// times (`setup_s`, `op_ms_p50`, `tasks_per_s`) are scaled to the
/// reference host speed (see `harness`). The tail latencies are printed
/// too, but not bounded.
pub const END_TO_END: &[Decl] = &[
    d("setup_s", "s", Lower, "median set-up: app launches | three Dmi::builds | gateway warm boot"),
    d(
        "op_ms_p50",
        "ms",
        Lower,
        "median wall per operation: office3 build | grid pass | served batch",
    ),
    d("tasks_per_s", "1/s", Higher, "apps modeled | task runs | served requests per wall second"),
    d("sr_dmi", "%", Higher, "GPT-5 (Medium) GUI+DMI success rate"),
    d("sr_gui", "%", Higher, "GPT-5 (Medium) GUI-only success rate"),
    d("steps_dmi", "calls", Lower, "GPT-5 (Medium) GUI+DMI LLM calls per successful run"),
    d("steps_gui", "calls", Lower, "GPT-5 (Medium) GUI-only LLM calls per successful run"),
    d("one_shot_dmi", "%", Higher, "GPT-5 (Medium) GUI+DMI successes done in one LLM call"),
    d("tokens_dmi", "tokens", Lower, "GPT-5 (Medium) GUI+DMI tokens per run"),
    d("vtput", "1/s", Higher, "GPT-5 (Medium) tasks per virtual second"),
    d("vlat_p50_s", "s", Lower, "median virtual task latency, queueing included"),
];

/// Per-layer metrics, printed by every workload with tracing on. A layer
/// a workload does not exercise, or that only program-internal spans
/// could split out, reads 0 there.
pub const PER_LAYER: &[Decl] = &[
    d("parallel.rip_fleet_ms", "ms", Lower, "op_ms_p50 on build_office3"),
    d("parallel.stall_reveal_ms", "ms", Lower, "op_ms_p50 on build_office3"),
    d("parallel.stall_await_ms", "ms", Lower, "op_ms_p50 on build_office3"),
    d("parallel.explore_ms", "ms", Lower, "op_ms_p50 on build_office3"),
    d("parallel.spec_adopt_ratio", "ratio", Higher, "op_ms_p50 on build_office3"),
    d("ripper.rip_ms.word", "ms", Lower, "setup_s on agent_grid"),
    d("ripper.rip_ms.excel", "ms", Lower, "setup_s on agent_grid"),
    d("ripper.rip_ms.powerpoint", "ms", Lower, "setup_s on agent_grid"),
    d("ripper.clicks", "count", Lower, "setup_s on agent_grid, op_ms_p50 on build_office3"),
    d("ripper.snapshots", "count", Lower, "setup_s on agent_grid, op_ms_p50 on build_office3"),
    d("ripper.restarts", "count", Lower, "setup_s on agent_grid, op_ms_p50 on build_office3"),
    d(
        "ripper.esc_recoveries",
        "count",
        Higher,
        "setup_s on agent_grid, op_ms_p50 on build_office3",
    ),
    d("gui.capture_rebuild_ms", "ms", Lower, "op_ms_p50 on build_office3, setup_s on agent_grid"),
    d("gui.captures", "count", Lower, "op_ms_p50 on build_office3, setup_s on agent_grid"),
    d("gui.full_hit_ratio", "ratio", Higher, "op_ms_p50 on build_office3, setup_s on agent_grid"),
    d("gui.windows_rebuilt", "count", Lower, "op_ms_p50 on build_office3, setup_s on agent_grid"),
    d("gui.pool_hit_ratio", "ratio", Higher, "op_ms_p50 on build_office3, setup_s on agent_grid"),
    d("topology.decycle_ms", "ms", Lower, "op_ms_p50 on build_office3, setup_s on serve_mix"),
    d("topology.forest_ms", "ms", Lower, "op_ms_p50 on build_office3, setup_s on serve_mix"),
    d("describe.core_ms", "ms", Lower, "op_ms_p50 on build_office3, setup_s on serve_mix"),
    d("describe.full_ms", "ms", Lower, "op_ms_p50 on build_office3, setup_s on serve_mix"),
    d("describe.core_tokens", "tokens", Lower, "tokens_dmi on agent_grid and serve_mix"),
    d("store.save_ms", "ms", Lower, "op_ms_p50 on build_office3"),
    d("store.bytes", "bytes", Lower, "op_ms_p50 on build_office3"),
    d("store.load_ms", "ms", Lower, "setup_s on serve_mix"),
    d("store.warm_imported", "count", Higher, "setup_s on serve_mix"),
    d("agent.launch_ms", "ms", Lower, "op_ms_p50, tasks_per_s on agent_grid and serve_mix"),
    d("agent.host_step_ms", "ms", Lower, "op_ms_p50, tasks_per_s on agent_grid and serve_mix"),
    d("agent.gui_turn_ms", "ms", Lower, "op_ms_p50, tasks_per_s on agent_grid and serve_mix"),
    d("agent.dmi_step_ms", "ms", Lower, "op_ms_p50, tasks_per_s on agent_grid and serve_mix"),
    d("agent.verify_ms", "ms", Lower, "op_ms_p50, tasks_per_s on agent_grid and serve_mix"),
    d("agent.fallback_frac", "ratio", Lower, "op_ms_p50, steps_dmi on agent_grid"),
    d("agent.failures.policy", "count", Lower, "sr_dmi, sr_gui on agent_grid"),
    d("agent.failures.mechanism", "count", Lower, "sr_dmi, sr_gui on agent_grid"),
    d("gateway.rounds", "count", Lower, "tasks_per_s, vlat_* on serve_mix"),
    d("gateway.round_ms", "ms", Lower, "tasks_per_s, op_ms_p50 on serve_mix"),
    d("gateway.queue_wait_vs_p50", "s", Lower, "vlat_* on serve_mix"),
    d(
        "gateway.queue_share",
        "ratio",
        Lower,
        "vlat_* on serve_mix; rises before vtput stops rising",
    ),
    d("gateway.session_reuse_ratio", "ratio", Higher, "tasks_per_s on serve_mix"),
    d("gateway.capture_hit_ratio", "ratio", Higher, "tasks_per_s on serve_mix"),
    d("llm.overlap", "ratio", Higher, "vtput, vlat_* on serve_mix"),
    d("obs.overhead_pct", "%", Lower, "tracing cost: traced minus untraced iteration wall"),
];

/// The per-app rip timings, in `AppKind::ALL` order.
pub const RIP_MS: [&str; 3] =
    ["ripper.rip_ms.word", "ripper.rip_ms.excel", "ripper.rip_ms.powerpoint"];

/// Per-layer accumulator. `sums` hold per-iteration totals (reported as
/// the mean over traced iterations); keys starting with `_` are
/// numerators and denominators for ratios and means; `fixed` values are
/// reported as they are.
#[derive(Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
    fixed: BTreeMap<&'static str, f64>,
}

/// Total wall-clock milliseconds and count of spans named exactly `name`.
pub fn span_ms(trace: &Trace, cat: Cat, name: &str) -> (f64, usize) {
    trace
        .events
        .iter()
        .filter(|e| e.phase == Phase::Complete && e.clock == Clock::Wall)
        .filter(|e| e.cat == cat && e.name == name)
        .fold((0.0, 0), |(ms, n), e| (ms + e.dur_us as f64 / 1e3, n + 1))
}

impl Layers {
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_insert(0.0) += v;
    }

    pub fn set(&mut self, key: &'static str, v: f64) {
        self.fixed.insert(key, v);
    }

    fn get(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// Folds one traced window: the spans and tallies `dmi-obs` recorded.
    pub fn absorb(&mut self, trace: &Trace, tallies: &BTreeMap<&'static str, u64>) {
        let spans: [(&'static str, Cat, &str); 8] = [
            ("parallel.stall_reveal_ms", Cat::Scheduler, "stall.reveal"),
            ("parallel.stall_await_ms", Cat::Scheduler, "stall.await"),
            ("parallel.explore_ms", Cat::Worker, "explore"),
            ("gui.capture_rebuild_ms", Cat::Capture, "rebuild"),
            ("store.save_ms", Cat::Store, "save_rip"),
            ("store.save_ms", Cat::Store, "save_captures"),
            ("store.load_ms", Cat::Store, "load_rip"),
            ("store.load_ms", Cat::Store, "load_captures"),
        ];
        for (key, cat, name) in spans {
            self.add(key, span_ms(trace, cat, name).0);
        }
        let (round_ms, rounds) = span_ms(trace, Cat::Gateway, "round");
        self.add("_round_ms", round_ms);
        self.add("_round_spans", rounds as f64);
        let counters: [(&'static str, &str); 13] = [
            ("ripper.clicks", "rip.clicks"),
            ("ripper.snapshots", "rip.snapshots"),
            ("ripper.restarts", "rip.restarts"),
            ("ripper.esc_recoveries", "rip.esc_recoveries"),
            ("gui.captures", "capture.captures"),
            ("gui.windows_rebuilt", "capture.windows_rebuilt"),
            ("_full_hits", "capture.full_hits"),
            ("_pool_hits", "capture.pool_hits"),
            ("_pool_misses", "capture.pool_misses"),
            ("_spec_adopted", "spec.adopt"),
            ("_spec_published", "spec.depth"),
            ("_llm_serialized_us", "llm.serialized_us"),
            ("_llm_overlapped_us", "llm.overlapped_us"),
        ];
        for (key, tally) in counters {
            self.add(key, tallies.get(tally).copied().unwrap_or(0) as f64);
        }
        self.add("_dropped", trace.dropped as f64);
    }

    /// Every [`PER_LAYER`] metric: per-iteration sums averaged over
    /// `iters` traced iterations, ratios from their summed parts.
    pub fn finish(&self, iters: usize) -> BTreeMap<&'static str, f64> {
        let n = iters.max(1) as f64;
        let ratio = |num: &str, den: f64| if den > 0.0 { self.get(num) / den } else { 0.0 };
        let mut out: BTreeMap<&'static str, f64> =
            PER_LAYER.iter().map(|m| (m.name, self.get(m.name) / n)).collect();
        let mut put = |k: &'static str, v: f64| {
            out.insert(k, v);
        };
        put("gui.full_hit_ratio", ratio("_full_hits", self.get("gui.captures")));
        put(
            "gui.pool_hit_ratio",
            ratio("_pool_hits", self.get("_pool_hits") + self.get("_pool_misses")),
        );
        put("parallel.spec_adopt_ratio", ratio("_spec_adopted", self.get("_spec_published")));
        put("llm.overlap", ratio("_llm_serialized_us", self.get("_llm_overlapped_us")));
        put("gateway.round_ms", ratio("_round_ms", self.get("_round_spans")));
        put("gateway.queue_share", ratio("_admit_vt", self.get("_finish_vt")));
        put(
            "gateway.session_reuse_ratio",
            ratio("_reuses", self.get("_reuses") + self.get("_forks")),
        );
        put(
            "gateway.capture_hit_ratio",
            ratio("_cap_hits", self.get("_cap_hits") + self.get("_cap_misses")),
        );
        put("agent.launch_ms", ratio("_launch_ms", self.get("_runs")));
        put("agent.host_step_ms", ratio("_host_ms", self.get("_runs")));
        put("agent.verify_ms", ratio("_verify_ms", self.get("_runs")));
        put("agent.gui_turn_ms", ratio("_gui_turn_ms", self.get("_gui_turns")));
        put("agent.dmi_step_ms", ratio("_dmi_step_ms", self.get("_dmi_steps")));
        put("agent.fallback_frac", ratio("_fallbacks", self.get("_dmi_runs")));
        for (k, v) in &self.fixed {
            out.insert(k, *v);
        }
        out
    }

    /// Events the recorder lost to ring overwrite (the fold undercounts
    /// when this is not 0).
    pub fn dropped(&self) -> f64 {
        self.get("_dropped")
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile `p` (0–100] of `v` (0 when empty).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest of p99.9 / p99 / p90 / p50 with at least ten samples
/// beyond it (the maximum when there are too few samples for any), as
/// `(percentile, value)`.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let n = v.len() as f64;
    for p in [99.9, 99.0, 90.0, 50.0] {
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-6 {
            return (p, percentile(v, p));
        }
    }
    (100.0, percentile(v, 100.0))
}

/// FNV-1a, 64 bit: the digest of serialized graphs and trace bytes.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn of(bytes: &[u8]) -> u64 {
        Fnv::default().write(bytes).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(tail(&v), (90.0, 90.0));
        assert_eq!(tail(&v[..5]), (100.0, 5.0));
    }
}
