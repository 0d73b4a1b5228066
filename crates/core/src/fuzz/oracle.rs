//! Differential determinism oracles.
//!
//! Every oracle rips the same [`AppSpec`] twice along one axis the
//! determinism contract says must not matter — fleet vs solo, recovery
//! strategy, capture cache — and byte-compares the resulting UNGs
//! (`serde_json` serialization equality, the same representation the
//! engines themselves pin). On mismatch it walks the graphs for the
//! first node whose identity differs and reports a [`Divergence`]
//! naming the window and control where the bytes first disagree.
//!
//! The UNG carries no rectangle, off-screen flag, toggle or value, so the
//! capture-cache axis also compares snapshots: [`walk_cached_and_eager`]
//! drives a cached and a full-rebuild session in lockstep through seeded
//! inputs and byte-compares every capture, then compares its identity
//! index (key and ancestor path per node), which a cached capture may copy
//! per block lineage instead of computing. Across every click it also
//! compares the rip's diff (the post nodes it calls fresh): the cached
//! side skips blocks whose lineage an available pre block shares, the
//! full-rebuild side records no block and probes every node. The UNG
//! cannot see a diff that over-skips nodes it already holds. Last, it
//! compares the cached session's prompt token counts, which
//! `interface::Observed` sums per line with each block's name/type terms
//! held by its lineage, with `tokens::count` of the full rebuild's prompt
//! texts.

use super::gen::{AdversarialApp, AppSpec};
use crate::graph::Ung;
use crate::interface::{is_clickable, Observed};
use crate::ripper::{diff_fresh, rip, RipConfig};
use crate::screen::{full_tree_prompt_text, label_screen};
use crate::tokens;
use crate::{rip_fleet, FleetEntry, ParRipConfig, RipStatus};
use dmi_gui::{CaptureConfig, InstabilityModel, Session};
use dmi_uia::{ControlType, Snapshot};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Which differential axis an oracle exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// Per-entry sequential rips vs a multi-entry fleet run.
    Fleet,
    /// Esc-based state recovery vs full restart-replay.
    EscRecovery,
    /// Cached captures (MRU, the seeded launch capture included) vs full
    /// rebuilds, compared as rip UNGs and as the snapshots of an input
    /// walk.
    CachedCapture,
}

/// A determinism violation: which oracle fired and where the two graphs
/// first disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The oracle that caught it.
    pub oracle: OracleKind,
    /// The window owning the first divergent control (its UNG ancestor
    /// path root), or a summary marker for structural mismatches.
    pub window: String,
    /// The first divergent control's name.
    pub control: String,
    /// Human-readable explanation of the disagreement.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} oracle diverged at window '{}', control '{}': {}",
            self.oracle, self.window, self.control, self.detail
        )
    }
}

/// Rips a fresh instance of `spec` sequentially under the given capture
/// and rip configurations.
fn rip_with(spec: &AppSpec, capture: CaptureConfig, config: &RipConfig) -> Ung {
    let mut s = Session::new(AdversarialApp::launch(spec.clone()));
    s.set_capture_config(capture);
    rip(&mut s, config).0
}

/// The seed of the input walks [`check_cached_capture`] runs, and of the
/// late loads of its second walk.
const WALK_SEED: u64 = 1;
/// The inputs that walk takes.
const WALK_STEPS: usize = 64;

/// Cached captures (MRU probes, including the image's launch capture a
/// restart seeds the MRU with) must serve the same bytes a from-scratch
/// rebuild produces: the same rip UNG, and the same snapshot at every
/// step of a seeded input walk ([`walk_cached_and_eager`]), rects,
/// toggles and values included, once without instability and once under
/// late loads only (half of all opened containers load a query late).
/// Catches lying launch-capture tables and unstamped relabels — the two
/// fault classes that desynchronize the cache's trust anchors from the
/// real tree — block copies served under a key that misses what their
/// bytes depend on, and late-load reveals that do not stamp what they
/// show.
pub fn check_cached_capture(spec: &AppSpec) -> Option<Divergence> {
    let cached = rip_with(spec, CaptureConfig::default(), &RipConfig::default());
    let rebuilt = rip_with(spec, CaptureConfig::full_rebuild(), &RipConfig::default());
    let walk = |inst: InstabilityModel| walk_cached_and_eager(spec, &inst, WALK_SEED, WALK_STEPS);
    diff_graphs(OracleKind::CachedCapture, &cached, &rebuilt)
        .or_else(|| walk(InstabilityModel::off()).err())
        .or_else(|| walk(InstabilityModel::new(WALK_SEED, 0.5, 0.0)).err())
}

/// Drives a cached and a full-rebuild session over fresh launches of
/// `spec`, both under `inst`, through the same `steps` seeded inputs —
/// clicks on shown controls, Esc presses, restarts — and byte-compares
/// their captures before every step and after the last, identity indexes
/// and prompt token counts included, and the rip diff across every
/// click. Returns both sessions, or the first step whose captures,
/// indexes, token counts, click results or diffs differ.
pub fn walk_cached_and_eager(
    spec: &AppSpec,
    inst: &InstabilityModel,
    seed: u64,
    steps: usize,
) -> Result<(Session, Session), Divergence> {
    let launch = || Session::with_instability(AdversarialApp::launch(spec.clone()), inst.clone());
    let (mut cached, mut eager) = (launch(), launch());
    eager.set_capture_config(CaptureConfig::full_rebuild());
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut observed = Observed::default();
    // The captures before the last step's click, if it clicked.
    let mut clicked: Option<(Arc<Snapshot>, Arc<Snapshot>)> = None;
    for step in 0..=steps {
        let snap = Arc::clone(observed.capture(&mut cached).snapshot());
        let oracle = eager.snapshot();
        if *snap != *oracle {
            return Err(diff_captures(step, &snap, &oracle));
        }
        if let Some(d) = diff_indexes(step, &snap, &oracle) {
            return Err(d);
        }
        if let Some(d) = diff_tokens(step, &mut observed, &oracle) {
            return Err(d);
        }
        if let Some((pre, pre_oracle)) = clicked.take() {
            if let Some(d) = diff_diffs(step - 1, [&pre, &snap], [&pre_oracle, &oracle]) {
                return Err(d);
            }
        }
        if step == steps {
            break;
        }
        match rng.gen_range(0..8u32) {
            0 => {
                cached.restart();
                eager.restart();
            }
            1 => {
                let _ = (cached.press("Esc"), eager.press("Esc"));
            }
            _ => {
                let idx = click_target(&snap, &mut rng);
                let id = cached.widget_of(snap.node(idx).runtime_id);
                let (a, b) = (cached.click(id), eager.click(id));
                if a.is_ok() != b.is_ok() {
                    return Err(Divergence {
                        oracle: OracleKind::CachedCapture,
                        window: window_of(&snap, idx),
                        control: snap.node(idx).props.name.clone(),
                        detail: format!("step {step}: the clicks returned {a:?} vs {b:?}"),
                    });
                }
                clicked = Some((snap, oracle));
            }
        }
    }
    Ok((cached, eager))
}

/// A node of `snap` for the walk to click, drawn among the shown nodes a
/// click acts on (the clickable control types and scroll bars), so inert
/// rows do not use up the walk's steps; among all nodes when none is.
fn click_target(snap: &Snapshot, rng: &mut SmallRng) -> usize {
    let acts = |&i: &usize| {
        let p = &snap.node(i).props;
        !p.offscreen && (is_clickable(p.control_type) || p.control_type == ControlType::ScrollBar)
    };
    let targets: Vec<usize> = (0..snap.len()).filter(acts).collect();
    match targets.len() {
        0 => rng.gen_range(0..snap.len()),
        n => targets[rng.gen_range(0..n)],
    }
}

/// The name of the window that holds node `idx` of `snap`.
fn window_of(snap: &Snapshot, idx: usize) -> String {
    let root = snap.windows().get(snap.node(idx).window);
    root.map_or_else(|| String::from("(no window)"), |&r| snap.node(r).props.name.clone())
}

/// Names the first node at which a cached capture and a full rebuild's
/// differ, or summarizes their structure when every shared node agrees.
fn diff_captures(step: usize, cached: &Snapshot, rebuilt: &Snapshot) -> Divergence {
    let shared = cached.len().min(rebuilt.len());
    let (window, control, detail) = match (0..shared).find(|&i| cached.node(i) != rebuilt.node(i)) {
        Some(i) => (
            window_of(cached, i),
            cached.node(i).props.name.clone(),
            format!("step {step}: node {i}: {:?} vs {:?}", cached.node(i), rebuilt.node(i)),
        ),
        None => (
            String::from("(structure)"),
            String::from("(structure)"),
            format!(
                "step {step}: {} nodes in {} windows vs {} nodes in {} windows",
                cached.len(),
                cached.windows().len(),
                rebuilt.len(),
                rebuilt.windows().len()
            ),
        ),
    };
    Divergence { oracle: OracleKind::CachedCapture, window, control, detail }
}

/// Names the first node whose identity key or ancestor path differs
/// between the indexes of two byte-identical captures: a cached capture's
/// index copies the columns of blocks whose lineage holds them, the full
/// rebuild's computes every node.
fn diff_indexes(step: usize, cached: &Snapshot, rebuilt: &Snapshot) -> Option<Divergence> {
    let (a, b) = (cached.index(), rebuilt.index());
    let i = (0..cached.len()).find(|&i| a.key(i) != b.key(i) || a.path(i) != b.path(i))?;
    Some(Divergence {
        oracle: OracleKind::CachedCapture,
        window: window_of(cached, i),
        control: cached.node(i).props.name.clone(),
        detail: format!(
            "step {step}: node {i}: index path '{}' ({:?}) vs '{}' ({:?})",
            a.path(i),
            a.key(i),
            b.path(i),
            b.key(i)
        ),
    })
}

/// Compares the prompt token counts `observed` holds for the cached
/// session's last capture, summed per line with the name/type terms of
/// each block taken from its lineage, with `tokens::count` of the prompt
/// texts of `rebuilt`, the full rebuild's byte-identical capture.
fn diff_tokens(
    step: usize,
    observed: &mut Observed,
    rebuilt: &Arc<Snapshot>,
) -> Option<Divergence> {
    let full = (observed.full_tree_tokens(), tokens::count(&full_tree_prompt_text(rebuilt)));
    let screen = (observed.screen_tokens(), tokens::count(&label_screen(rebuilt).to_prompt_text()));
    let (prompt, (a, b)) =
        [("full-tree", full), ("screen", screen)].into_iter().find(|(_, (a, b))| a != b)?;
    Some(Divergence {
        oracle: OracleKind::CachedCapture,
        window: String::from("(prompt)"),
        control: format!("({prompt} prompt)"),
        detail: format!(
            "step {step}: {a} {prompt} prompt tokens summed per line vs {b} counted from the \
             full rebuild's text"
        ),
    })
}

/// Names the first post node that only one of two rip diffs across the
/// click at `step` calls fresh: the cached session's `[pre, post]`, whose
/// block records let it skip shared lineages, and the full rebuild's,
/// which probes every node.
fn diff_diffs(
    step: usize,
    [pre, post]: [&Snapshot; 2],
    [pre_oracle, post_oracle]: [&Snapshot; 2],
) -> Option<Divergence> {
    let (a, b) = (diff_fresh(pre, post), diff_fresh(pre_oracle, post_oracle));
    let only_one = |i: &&usize| a.binary_search(i).is_ok() != b.binary_search(i).is_ok();
    let &i = a.iter().chain(&b).filter(only_one).min()?;
    Some(Divergence {
        oracle: OracleKind::CachedCapture,
        window: window_of(post, i),
        control: post.node(i).props.name.clone(),
        detail: format!(
            "step {step}: node {i} fresh in the {} diff only ({} vs {} fresh nodes)",
            if a.binary_search(&i).is_ok() { "cached" } else { "full-rebuild" },
            a.len(),
            b.len()
        ),
    })
}

/// Esc-based recovery must land in the same state a full restart-replay
/// reaches. Both rips run with full capture rebuilds so a cancel-time
/// side effect cannot hide behind a stale cache — this oracle isolates
/// the *recovery* axis.
pub fn check_esc_recovery(spec: &AppSpec) -> Option<Divergence> {
    let esc = RipConfig { esc_recovery: true, ..RipConfig::default() };
    let restart = RipConfig { esc_recovery: false, ..RipConfig::default() };
    let fast = rip_with(spec, CaptureConfig::full_rebuild(), &esc);
    let slow = rip_with(spec, CaptureConfig::full_rebuild(), &restart);
    diff_graphs(OracleKind::EscRecovery, &fast, &slow)
}

/// Rips every spec in one fleet and compares each entry against its
/// private sequential rip. A contained fault ([`RipStatus::Failed`])
/// counts as a divergence too. First divergence wins.
pub fn check_fleet(specs: &[AppSpec]) -> Option<Divergence> {
    let mut entries: Vec<FleetEntry> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            FleetEntry::new(
                format!("fuzz-{i}"),
                Session::new(AdversarialApp::launch(spec.clone())),
                RipConfig::default(),
            )
        })
        .collect();
    let outcomes = rip_fleet(&mut entries, &ParRipConfig);
    for (spec, out) in specs.iter().zip(&outcomes) {
        match &out.status {
            RipStatus::Ripped => {
                let reference = rip_with(spec, CaptureConfig::default(), &RipConfig::default());
                if let Some(d) = diff_graphs(OracleKind::Fleet, &out.graph, &reference) {
                    return Some(d);
                }
            }
            RipStatus::Degraded(e) | RipStatus::Failed(e) => {
                return Some(Divergence {
                    oracle: OracleKind::Fleet,
                    window: String::from("(fleet engine)"),
                    control: out.app_id.clone(),
                    detail: e.to_string(),
                });
            }
        }
    }
    None
}

/// Runs every oracle against one spec; the first divergence wins. `None`
/// is the full determinism contract holding on all axes at once.
pub fn check_spec(spec: &AppSpec) -> Option<Divergence> {
    check_cached_capture(spec).or_else(|| check_esc_recovery(spec))
}

/// Byte-compares two UNGs; on mismatch, walks to the first node whose
/// name or control type differs and names its window and control. Falls
/// back to a structural summary (node/edge counts) when every shared
/// node matches — the graphs then differ in length or edges only.
fn diff_graphs(oracle: OracleKind, a: &Ung, b: &Ung) -> Option<Divergence> {
    let aj = serde_json::to_string(a).expect("UNGs serialize");
    let bj = serde_json::to_string(b).expect("UNGs serialize");
    if aj == bj {
        return None;
    }
    let shared = a.node_count().min(b.node_count());
    for id in 0..shared {
        let (na, nb) = (a.node(id), b.node(id));
        if na.name != nb.name || na.control_type != nb.control_type {
            let window = na
                .control
                .ancestor_path
                .split('/')
                .next()
                .filter(|s| !s.is_empty())
                .unwrap_or(&na.name)
                .to_string();
            return Some(Divergence {
                oracle,
                window,
                control: na.name.clone(),
                detail: format!(
                    "node {id}: '{}' ({:?}) vs '{}' ({:?})",
                    na.name, na.control_type, nb.name, nb.control_type
                ),
            });
        }
    }
    Some(Divergence {
        oracle,
        window: String::from("(structure)"),
        control: String::from("(structure)"),
        detail: format!(
            "graphs differ structurally: {} nodes / {} edges vs {} nodes / {} edges",
            a.node_count(),
            a.edge_count(),
            b.node_count(),
            b.edge_count()
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::gen::{ArenaOp, FaultPlan};

    #[test]
    fn clean_specs_pass_every_oracle() {
        for seed in [1u64, 9, 23] {
            let spec = AppSpec::generate(seed, 10);
            assert_eq!(check_spec(&spec), None, "clean spec from seed {seed} diverged");
        }
    }

    #[test]
    fn diff_names_the_first_divergent_control() {
        let a = rip_with(
            &AppSpec::new(vec![ArenaOp::Button(1), ArenaOp::Button(2)]),
            CaptureConfig::default(),
            &RipConfig::default(),
        );
        let b = rip_with(
            &AppSpec::new(vec![ArenaOp::Button(1), ArenaOp::Button(3)]),
            CaptureConfig::default(),
            &RipConfig::default(),
        );
        let d =
            diff_graphs(OracleKind::CachedCapture, &a, &b).expect("different arenas must diverge");
        assert_eq!(d.window, "Fuzz");
        assert!(
            d.control.contains("Button 2") || d.detail.contains("Button 2"),
            "expected the renamed button to be named, got: {d}"
        );
    }

    /// A block carries its lineage only by being copied: an unstamped
    /// relabel inside a block that a popup moves leaves the copy, at its
    /// new rows, with the old name, and its index and full-tree count
    /// agree with those stale bytes, not with the full rebuild
    /// (`dmi_gui`'s
    /// `an_unstamped_relabel_in_a_shifted_block_serves_stale_bytes`). The
    /// walk's byte axis flags it first; the index and token axes would
    /// too.
    #[test]
    fn an_unstamped_relabel_in_a_shifted_block_leaves_a_stale_capture() {
        // Two blocks of the main window before its log: a menu with one
        // item, a button.
        let spec = AppSpec::new(vec![
            ArenaOp::Menu(1),
            ArenaOp::Item(1),
            ArenaOp::Pop,
            ArenaOp::Button(2),
        ]);
        let mut cached = Session::new(AdversarialApp::launch(spec.clone()));
        let mut eager = Session::new(AdversarialApp::launch(spec));
        eager.set_capture_config(CaptureConfig::full_rebuild());
        let mut observed = Observed::default();
        observed.capture(&mut cached).snapshot().index();
        let base = eager.snapshot();
        assert_eq!(diff_tokens(0, &mut observed, &base), None, "an honest capture counts exact");
        for s in [&mut cached, &mut eager] {
            let t = s.app_mut().tree_mut();
            let (button, menu) =
                (t.find_by_name("Button 2").unwrap(), t.find_by_name("Menu 1").unwrap());
            t.relabel_unstamped(button, "A stale button label");
            // The popup opens in the menu's block and moves the later
            // blocks' rows: the button's block is copied a row down.
            t.open_popup(menu);
        }
        let snap = Arc::clone(observed.capture(&mut cached).snapshot());
        let oracle = eager.snapshot();
        let d = diff_captures(1, &snap, &oracle);
        assert_eq!((d.oracle, d.window.as_str()), (OracleKind::CachedCapture, "Fuzz"));
        assert_eq!(d.control, "Button 2", "the copy keeps the old name");
        assert!(d.detail.starts_with("step 1: "), "{d}");
        assert!(diff_indexes(1, &snap, &oracle).is_some(), "a stale identity");
        let stale = observed.full_tree_tokens();
        assert_eq!(stale, tokens::count(&full_tree_prompt_text(&snap)), "the copy's own count");
        let counted = tokens::count(&full_tree_prompt_text(&oracle));
        let relabel = tokens::count("A stale button label") - tokens::count("Button 2");
        assert_eq!(counted - stale, relabel, "the old name's term is summed");
        assert!(diff_tokens(1, &mut observed, &oracle).is_some(), "the token axis flags it");
    }

    /// The walk names the step and window of the first capture that
    /// differs: under a reset that leaks state, the first restart's
    /// seeded launch capture is stale.
    #[test]
    fn the_walk_names_the_first_stale_capture() {
        let spec = AppSpec::new(vec![ArenaOp::Button(1), ArenaOp::Menu(2), ArenaOp::Item(3)]);
        let off = InstabilityModel::off();
        assert!(walk_cached_and_eager(&spec, &off, 5, 32).is_ok(), "a clean spec walks clean");
        let lying = spec.with_faults(FaultPlan { lying_reset: true, ..FaultPlan::default() });
        let Err(d) = walk_cached_and_eager(&lying, &off, 5, 32) else {
            panic!("the leak is flagged")
        };
        assert_eq!((d.oracle, d.window.as_str()), (OracleKind::CachedCapture, "Fuzz"));
        assert!(d.detail.starts_with("step "), "{d}");
    }
}
