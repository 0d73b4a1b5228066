//! Criterion micro-benchmarks for the snapshot identity index: control
//! resolution latency, identity-index build cost, differential-capture
//! (record_diff-style) containment checks, and end-to-end rip throughput.
//!
//! The `*/string_*` benchmarks preserve the pre-index implementations
//! (linear scan with per-candidate path recomputation; encoded-string
//! sets) so the speedup is measured inside one binary.

use criterion::{criterion_group, criterion_main, Criterion};
use dmi_apps::AppKind;
use dmi_bench::report;
use dmi_core::parallel::{rip_fleet, FleetEntry, ParRipConfig, RipStatus};
use dmi_core::ripper::{rip, RipConfig};
use dmi_gui::{CaptureConfig, Session};
use dmi_uia::{ControlId, Snapshot};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::OnceLock;

fn word_snapshot() -> &'static Snapshot {
    static SNAP: OnceLock<std::sync::Arc<Snapshot>> = OnceLock::new();
    SNAP.get_or_init(|| {
        let mut s = Session::new(AppKind::Word.launch());
        s.snapshot()
    })
}

/// Identifiers of every node, synthesized once.
fn word_targets() -> &'static Vec<ControlId> {
    static IDS: OnceLock<Vec<ControlId>> = OnceLock::new();
    IDS.get_or_init(|| {
        let snap = word_snapshot();
        snap.iter().map(|(i, _)| snap.control_id(i)).collect()
    })
}

/// The pre-index ancestor path: walk parents, join names.
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

/// The pre-index resolver: O(n) scan recomputing paths per candidate.
fn linear_resolve(snap: &Snapshot, cid: &ControlId) -> Option<usize> {
    (0..snap.len()).find(|&i| {
        let props = &snap.node(i).props;
        props.primary_id() == cid.primary
            && props.control_type == cid.control_type
            && walked_path(snap, i) == cid.ancestor_path
    })
}

fn bench_resolve(c: &mut Criterion) {
    let snap = word_snapshot();
    let targets = word_targets();
    // Resolve a spread of controls: first, middle, last, and a miss.
    let picks: Vec<&ControlId> =
        vec![&targets[0], &targets[targets.len() / 2], &targets[targets.len() - 1]];
    let ghost = ControlId {
        primary: "No Such Control".into(),
        control_type: dmi_uia::ControlType::Button,
        ancestor_path: "Nowhere/At All".into(),
    };

    let mut group = c.benchmark_group("resolve");
    group.bench_function("string_linear_scan", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for cid in &picks {
                hits += usize::from(linear_resolve(snap, cid).is_some());
            }
            hits += usize::from(linear_resolve(snap, &ghost).is_some());
            black_box(hits)
        })
    });
    group.bench_function("indexed", |b| {
        snap.index().key_multimap(); // warm, as in a probed snapshot
        b.iter(|| {
            let mut hits = 0usize;
            for cid in &picks {
                hits += usize::from(snap.resolve(cid).is_some());
            }
            hits += usize::from(snap.resolve(&ghost).is_some());
            black_box(hits)
        })
    });
    group.finish();
}

fn bench_index_build(c: &mut Criterion) {
    let snap = word_snapshot();
    let mut group = c.benchmark_group("index_build");
    group.bench_function("core_columns", |b| {
        b.iter(|| black_box(dmi_uia::SnapIndex::build(snap).path(snap.len() - 1).len()))
    });
    group.bench_function("core_plus_multimap", |b| {
        b.iter(|| {
            let ix = dmi_uia::SnapIndex::build(snap);
            ix.key_multimap();
            black_box(ix.key(snap.len() - 1))
        })
    });
    group.finish();
}

/// The record_diff containment check over one (pre, post) snapshot pair.
fn bench_record_diff(c: &mut Criterion) {
    // Identical pre/post is the worst case for containment: every post
    // node probes and hits.
    let pre = word_snapshot();
    let post = word_snapshot();

    let mut group = c.benchmark_group("record_diff");
    group.bench_function("string_sets", |b| {
        b.iter(|| {
            let before: HashSet<String> = (0..pre.len())
                .filter(|&i| pre.is_available(i))
                .map(|i| {
                    let p = &pre.node(i).props;
                    format!(
                        "{}|{}|{}",
                        p.primary_id(),
                        p.control_type.as_str(),
                        walked_path(pre, i)
                    )
                })
                .collect();
            let mut new = 0usize;
            for (idx, _) in post.iter() {
                if !post.is_available(idx) {
                    continue;
                }
                let p = &post.node(idx).props;
                let enc = format!(
                    "{}|{}|{}",
                    p.primary_id(),
                    p.control_type.as_str(),
                    walked_path(post, idx)
                );
                if !before.contains(&enc) {
                    new += 1;
                }
            }
            black_box(new)
        })
    });
    group.bench_function("indexed", |b| {
        b.iter(|| {
            // Fresh indexes per iteration, as a rip click would pay.
            let pre_ix = dmi_uia::SnapIndex::build(pre);
            let post_ix = dmi_uia::SnapIndex::build(post);
            pre_ix.key_multimap();
            let mut new = 0usize;
            for (idx, node) in post.iter() {
                if !post.is_available(idx) {
                    continue;
                }
                let key = post_ix.key(idx);
                let existed = pre_ix.candidates(key).any(|i| {
                    let pn = &pre.node(i).props;
                    pre.is_available(i)
                        && pn.control_type == node.props.control_type
                        && pn.primary_id() == node.props.primary_id()
                        && pre_ix.path(i) == post_ix.path(idx)
                });
                if !existed {
                    new += 1;
                }
            }
            black_box(new)
        })
    });
    group.finish();
}

/// The capture pipeline itself: a cold full build, a pure cache hit, and
/// a partial rebuild where one (dialog) window is dirty and the big main
/// window is copied from the previous capture.
fn bench_snapshot_capture(c: &mut Criterion) {
    let mut group = c.benchmark_group("snap");
    group.bench_function("cold", |b| {
        let mut s = Session::new(AppKind::Word.launch());
        s.set_capture_config(CaptureConfig::full_rebuild());
        b.iter(|| black_box(s.snapshot().len()))
    });
    group.bench_function("cached", |b| {
        let mut s = Session::new(AppKind::Word.launch());
        let warm = s.snapshot();
        black_box(warm.len());
        b.iter(|| black_box(s.snapshot().len()))
    });
    group.bench_function("dirty_one_window", |b| {
        let mut s = Session::new(AppKind::Word.launch());
        // Open the Find and Replace dialog, then dirty only that window
        // each iteration: the main window's node block is copied forward.
        let tree = s.app().tree();
        let launcher = tree
            .iter()
            .find(|(i, w)| w.name == "Replace" && tree.is_shown(*i))
            .map(|(i, _)| i)
            .expect("Replace launcher");
        s.click(launcher).unwrap();
        let find_edit = s.app().tree().find_by_name("Find what").expect("dialog edit");
        let mut tick = 0u64;
        b.iter(|| {
            tick += 1;
            s.set_value(find_edit, if tick.is_multiple_of(2) { "alpha" } else { "beta" }).unwrap();
            black_box(s.snapshot().len())
        })
    });
    group.finish();
}

fn bench_rip(c: &mut Criterion) {
    let mut group = c.benchmark_group("rip");
    group.sample_size(10);
    // Default strategy: Esc-based fast state restoration + pristine-clone
    // reset (§4.1). The `*/full_restart` variants force the legacy
    // restart-replay recovery so the end-to-end speedup is measured inside
    // one binary; both produce byte-identical UNGs (see tests/identity.rs).
    for kind in AppKind::ALL {
        group.bench_function(&format!("small_{}", kind.name().to_lowercase()), |b| {
            b.iter(|| {
                let mut s = Session::new(kind.launch_small());
                let (g, stats) = rip(&mut s, &RipConfig::office(kind.name()));
                black_box((g.node_count(), stats.clicks))
            })
        });
        group.bench_function(&format!("small_{}_full_restart", kind.name().to_lowercase()), |b| {
            let mut cfg = RipConfig::office(kind.name());
            cfg.esc_recovery = false;
            b.iter(|| {
                let mut s = Session::new(kind.launch_small());
                let (g, stats) = rip(&mut s, &cfg);
                black_box((g.node_count(), stats.clicks))
            })
        });
    }
    // Capture-cache contribution in isolation: same Esc recovery, but every
    // snapshot eagerly rebuilt (the equivalence-oracle configuration).
    group.bench_function("small_word_full_rebuild", |b| {
        b.iter(|| {
            let mut s = Session::new(AppKind::Word.launch_small());
            s.set_capture_config(CaptureConfig::full_rebuild());
            let (g, stats) = rip(&mut s, &RipConfig::office("Word"));
            black_box((g.node_count(), stats.clicks))
        })
    });
    group.finish();
}

/// A fresh 3-app Office fleet (Word + Excel + PowerPoint, small).
fn office_fleet() -> Vec<FleetEntry> {
    AppKind::ALL
        .iter()
        .map(|k| {
            FleetEntry::new(k.name(), Session::new(k.launch_small()), RipConfig::office(k.name()))
        })
        .collect()
}

/// Fleet ripping: all three Office apps, each a sequential `rip` on its
/// own thread (at most one per CPU). Every entry's UNG is byte-identical
/// to its sequential rip (release-gated in tests/identity.rs), so
/// `rip_fleet/office3` against the sum of the `rip/small_*` baselines
/// measures how well the per-app threads overlap.
fn bench_rip_fleet(c: &mut Criterion) {
    // One-shot per-app recovery report, printed outside the timed loop —
    // and only when this group is actually selected by the name filter.
    fn report_once() {
        static ONCE: OnceLock<()> = OnceLock::new();
        ONCE.get_or_init(|| {
            // Trace the reporting rip: the drained spans and tallies feed
            // one registry summary table below the per-app lines.
            dmi_obs::set_enabled(true);
            for o in rip_fleet(&mut office_fleet(), &ParRipConfig) {
                let status = match &o.status {
                    RipStatus::Ripped => "ripped",
                    RipStatus::Degraded(_) => "degraded",
                    RipStatus::Failed(_) => "failed",
                };
                eprintln!(
                    "{}",
                    report::fault_line(&o.app_id, status, o.stats.restarts, o.stats.esc_recoveries)
                );
            }
            dmi_obs::set_enabled(false);
            let trace = dmi_obs::drain();
            let mut reg = dmi_obs::Registry::from_trace(&trace);
            for (name, v) in dmi_obs::tallies() {
                reg.inc(name, v);
            }
            dmi_obs::clear();
            eprint!("{}", reg.summary_table());
            eprintln!("{}", trace.text_summary());
        });
    }

    let mut group = c.benchmark_group("rip_fleet");
    group.sample_size(10);
    group.bench_function("office3", |b| {
        report_once();
        b.iter(|| {
            let out = rip_fleet(&mut office_fleet(), &ParRipConfig);
            black_box(out.iter().map(|o| o.graph.node_count()).sum::<usize>())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_resolve,
    bench_index_build,
    bench_record_diff,
    bench_snapshot_capture,
    bench_rip,
    bench_rip_fleet
);
criterion_main!(benches);
