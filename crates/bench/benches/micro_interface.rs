//! Criterion micro-benchmarks for the online interfaces: command parsing,
//! path resolution, fuzzy matching, screen labeling, prompt pricing, and
//! visit execution.

use criterion::{criterion_group, criterion_main, Criterion};
use dmi_core::interface::{control_path, parse_commands};
use dmi_core::ripper::{rip, RipConfig};
use dmi_core::screen::full_tree_prompt_text;
use dmi_core::topology::{build_forest, decycle, Forest, ForestConfig};
use dmi_core::{label_screen, tokens, DescribeConfig, Dmi};
use dmi_gui::Session;
use dmi_uia::{ControlKey, FuzzyMatcher};
use std::sync::OnceLock;

fn word_forest() -> &'static Forest {
    static F: OnceLock<Forest> = OnceLock::new();
    F.get_or_init(|| {
        let mut s = Session::new(dmi_apps::AppKind::Word.launch_small());
        let (mut g, _) = rip(&mut s, &RipConfig::office("Word"));
        decycle(&mut g);
        build_forest(&g, &ForestConfig::default()).0
    })
}

fn bench_parse(c: &mut Criterion) {
    let json = r#"[{"id": 7}, {"id": 12, "entry_ref_id": [3]}, {"id": 9, "text": "hello"}, {"shortcut_key": "Enter"}]"#;
    c.bench_function("parse_visit_commands", |b| {
        b.iter(|| std::hint::black_box(parse_commands(json).unwrap().len()))
    });
}

fn bench_control_path(c: &mut Criterion) {
    let f = word_forest();
    let target =
        f.nodes.iter().find(|n| n.name == "Narrow" && f.is_functional_leaf(n.id)).unwrap().id
            as u64;
    c.bench_function("control_path_resolution", |b| {
        b.iter(|| std::hint::black_box(control_path(f, target, &[]).unwrap().len()))
    });
}

fn bench_fuzzy(c: &mut Criterion) {
    let mut s = Session::new(dmi_apps::AppKind::Word.launch_small());
    let snap = s.snapshot();
    let f = word_forest();
    let bold = &f.nodes.iter().find(|n| n.name == "Bold").unwrap().control;
    let m = FuzzyMatcher::default();
    c.bench_function("fuzzy_best_match", |b| {
        b.iter(|| {
            std::hint::black_box(
                m.best_match(&snap, ControlKey::of_id(bold), bold, None, false).map(|r| r.index),
            )
        })
    });
}

fn bench_label_screen(c: &mut Criterion) {
    let mut s = Session::new(dmi_apps::AppKind::Excel.launch_small());
    let snap = s.snapshot();
    c.bench_function("label_screen_excel", |b| {
        b.iter(|| std::hint::black_box(label_screen(&snap).len()))
    });
}

/// The GUI baseline's per-turn prompt on the full Excel launch: built
/// and counted, as `interface::Observed` does once per capture.
fn bench_full_tree_prompt(c: &mut Criterion) {
    let mut s = Session::new(dmi_apps::AppKind::Excel.launch());
    let snap = s.snapshot();
    c.bench_function("observe/full_tree_text", |b| {
        b.iter(|| std::hint::black_box(tokens::count(&full_tree_prompt_text(&snap))))
    });
}

fn bench_visit(c: &mut Criterion) {
    let dmi = Dmi::from_forest(word_forest().clone(), DescribeConfig::default());
    let narrow = dmi
        .forest
        .nodes
        .iter()
        .find(|n| n.name == "Narrow" && dmi.forest.is_functional_leaf(n.id))
        .unwrap()
        .id;
    let json = format!(r#"[{{"id": {narrow}}}]"#);
    let mut group = c.benchmark_group("online");
    group.sample_size(20);
    group.bench_function("visit_margins_narrow", |b| {
        b.iter(|| {
            let mut s = Session::new(dmi_apps::AppKind::Word.launch_small());
            let out = dmi.visit_json(&mut s, &json);
            std::hint::black_box(out.ok())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_parse,
    bench_control_path,
    bench_fuzzy,
    bench_label_screen,
    bench_full_tree_prompt,
    bench_visit
);
criterion_main!(benches);
