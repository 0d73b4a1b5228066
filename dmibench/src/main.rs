//! The repository benchmark.
//!
//! ```text
//! dmibench --workload <build_office3|agent_grid|serve_mix> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through the public entry points of `dmi-core`,
//! `dmi-agent`, `dmi-store` and `dmi-gui` for `--seconds`, checks its
//! outputs, prints every metric as `name = value unit`, and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured untraced;
//! with `--trace 1` they are the per-layer ones, from traced iterations
//! alternating with untraced ones.

mod agent;
mod grid;
mod harness;
mod legacy;
mod metrics;
mod office3;
mod serve;

use harness::{Ctx, Outcome};
use metrics::{Decl, END_TO_END, PER_LAYER};

type Workload = fn(&Ctx) -> Outcome;

/// The workloads, by the name `--workload` takes.
const WORKLOADS: [(&str, Workload); 3] =
    [("build_office3", office3::run), ("agent_grid", grid::run), ("serve_mix", serve::run)];

fn usage(msg: &str) -> ! {
    eprintln!("dmibench: {msg}");
    eprintln!("usage: dmibench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    std::process::exit(2);
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| usage(&format!("bad value for {flag}: {value}")))
}

fn parse_args() -> (Workload, Ctx) {
    let mut ctx = Ctx { seed: 0, seconds: 10.0, trace: false, tiny: false };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => ctx.seed = number(&flag, &value),
            "--seconds" => ctx.seconds = number(&flag, &value),
            "--trace" => ctx.trace = number::<u8>(&flag, &value) == 1,
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let name = workload.unwrap_or_else(|| usage("--workload is required"));
    match WORKLOADS.iter().find(|(n, _)| *n == name) {
        Some((_, run)) => (*run, ctx),
        None => usage(&format!("unknown workload {name}")),
    }
}

/// The declared metrics a run in this mode must print.
fn declared(trace: bool) -> &'static [Decl] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The printed report: `#` lines, one `name = value unit` line per
/// metric, then the JSON result line. A workload that reports other
/// metrics than the declared ones, or a value that is not finite, is a
/// bug in the benchmark.
fn render(out: &Outcome, trace: bool) -> String {
    let decls = declared(trace);
    assert!(out.metrics.keys().all(|k| decls.iter().any(|m| m.name == *k)), "undeclared metric");
    let mut text = String::new();
    for note in out.deterministic.iter().chain(&out.notes) {
        text.push_str(&format!("# {note}\n"));
    }
    let mut json = Vec::new();
    for m in decls {
        let v = out.metrics[m.name];
        assert!(v.is_finite(), "{} = {v}", m.name);
        text.push_str(&format!(
            "{} = {v} {}  ({}: {})\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.note
        ));
        json.push(format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit));
    }
    let correct = out.failed == 0 && out.attempted > 0;
    text.push_str(&format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
        out.attempted,
        out.failed,
        json.join(", ")
    ));
    text
}

fn main() {
    let (run, ctx) = parse_args();
    print!("{}", render(&run(&ctx), ctx.trace));
}

#[cfg(test)]
mod self_check {
    use super::*;
    use serde_json::Value;

    /// `(name, unit, better)` of every metric `BENCHMARK.json` declares
    /// under `key`.
    fn manifest(key: &str) -> Vec<(String, String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        let field = |m: &Value, f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
        doc.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect()
    }

    fn decls(list: &[Decl]) -> Vec<(String, String, String)> {
        list.iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.as_str().to_string()))
            .collect()
    }

    #[test]
    fn manifest_matches_the_declarations() {
        assert_eq!(manifest("end_to_end"), decls(END_TO_END));
        assert_eq!(manifest("per_layer"), decls(PER_LAYER));
    }

    /// Every workload at a tiny size: every declared metric prints with
    /// its unit, outputs check out, and the deterministic metrics and
    /// digests repeat exactly across two runs.
    #[test]
    fn tiny_runs_print_every_metric_and_repeat() {
        const DETERMINISTIC: [&str; 8] = [
            "sr_dmi",
            "sr_gui",
            "steps_dmi",
            "steps_gui",
            "one_shot_dmi",
            "tokens_dmi",
            "vtput",
            "vlat_p50_s",
        ];
        for (name, run) in WORKLOADS {
            for trace in [false, true] {
                let ctx = Ctx { seed: 7, seconds: 0.0, trace, tiny: true };
                let a = run(&ctx);
                let text = render(&a, trace);
                for m in declared(trace) {
                    let line = format!("{} = {} {} ", m.name, a.metrics[m.name], m.unit);
                    assert!(text.contains(&line), "{name}: {line}");
                }
                assert_eq!((a.failed, a.attempted > 0), (0, true), "{name} checks failed");
                if trace {
                    continue;
                }
                let b = run(&ctx);
                for m in DETERMINISTIC {
                    assert_eq!(a.metrics[m], b.metrics[m], "{name}: {m} differs across runs");
                    assert!(a.metrics[m] > 0.0, "{name}: {m} is 0");
                }
                assert!(a.deterministic.iter().any(|l| l.starts_with("digest")), "{name}");
                assert_eq!(a.deterministic, b.deterministic, "{name}: output differs across runs");
            }
        }
    }
}
