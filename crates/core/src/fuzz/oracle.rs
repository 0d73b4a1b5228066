//! Differential determinism oracles.
//!
//! Every oracle rips the same [`AppSpec`] twice along one axis the
//! determinism contract says must not matter — fleet vs solo, recovery
//! strategy, capture cache — and byte-compares the resulting UNGs
//! (`serde_json` serialization equality, the same representation the
//! engines themselves pin). On mismatch it walks the graphs for the
//! first node whose identity differs and reports a [`Divergence`]
//! naming the window and control where the bytes first disagree.

use super::gen::{AdversarialApp, AppSpec};
use crate::graph::Ung;
use crate::ripper::{rip, RipConfig};
use crate::{rip_fleet, FleetEntry, ParRipConfig, RipStatus};
use dmi_gui::{CaptureConfig, Session};

/// Which differential axis an oracle exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// Per-entry sequential rips vs a multi-entry fleet run.
    Fleet,
    /// Esc-based state recovery vs full restart-replay.
    EscRecovery,
    /// Cached captures (MRU + pristine stash) vs full rebuilds.
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

/// Cached captures (MRU probes + the pristine restart stash) must serve
/// the same bytes a from-scratch rebuild produces. Catches lying
/// pristine attestations and unstamped relabels — the two fault classes
/// that desynchronize the cache's trust anchors from the real tree.
pub fn check_cached_capture(spec: &AppSpec) -> Option<Divergence> {
    let cached = rip_with(spec, CaptureConfig::default(), &RipConfig::default());
    let rebuilt = rip_with(spec, CaptureConfig::full_rebuild(), &RipConfig::default());
    diff_graphs(OracleKind::CachedCapture, &cached, &rebuilt)
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
    use crate::fuzz::gen::ArenaOp;

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
}
