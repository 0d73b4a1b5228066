//! Visual grounding: how an LLM locates a named control on screen.
//!
//! Under imperative GUI use, the model must map its intent ("click Font
//! Color") to a labeled screen element. Humans do this with robust vision;
//! LLMs are comparatively weak (§2.1 Mismatch #2), which the simulation
//! models as a per-action grounding-error rate plus name-similarity-based
//! matching (tolerant of live-name variation, unlike exact string match).

use dmi_core::screen::LabeledScreen;
use dmi_llm::TargetQuery;
use dmi_uia::{ident::SimilarityQuery, Node};

/// Minimum name similarity for a visual match.
pub const GROUNDING_SIMILARITY: f64 = 0.8;

/// Finds the on-screen control for a query, by name similarity.
///
/// Returns its position on the screen and its node. Prefers exact
/// matches, then the highest-similarity control above the threshold.
/// Disabled controls still ground (clicking them fails, realistically).
/// The query's name is folded once per scan (tallied as `ground.scans`).
pub fn ground<'a>(screen: &'a LabeledScreen, q: &TargetQuery) -> Option<(usize, &'a Node)> {
    dmi_obs::tally("ground.scans", 1);
    let query = SimilarityQuery::new(&q.name);
    // A user looking for something to click prefers interactive elements
    // over same-named containers (ribbon groups often share their
    // dialog-launcher's name).
    let mut best: Option<(usize, f64, bool)> = None; // (idx, score, clickable)
    for (i, n) in screen.nodes().enumerate() {
        let clickable = dmi_core::interface::is_clickable(n.props.control_type);
        // Only equal names score 1.0, so the first clickable one cannot
        // be beaten.
        if clickable && n.props.name == q.name {
            return Some((i, n));
        }
        let s = query.similarity_bounded(&n.props.name, GROUNDING_SIMILARITY);
        if s < GROUNDING_SIMILARITY {
            continue;
        }
        let better = match best {
            None => true,
            Some((_, bs, bc)) => (clickable, s) > (bc, bs),
        };
        if better {
            best = Some((i, s, clickable));
        }
    }
    best.map(|(i, _, _)| (i, screen.node(i)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmi_core::interface::is_clickable;
    use dmi_core::label_screen;
    use dmi_gui::Session;
    use dmi_uia::ident::string_similarity;

    fn screen() -> LabeledScreen {
        let mut s = Session::new(dmi_apps::AppKind::Word.launch_small());
        let snap = s.snapshot();
        label_screen(&snap)
    }

    #[test]
    fn exact_name_grounds() {
        let sc = screen();
        let (_, n) = ground(&sc, &TargetQuery::name("Bold")).unwrap();
        assert_eq!(n.props.name, "Bold");
    }

    #[test]
    fn similar_name_grounds() {
        let sc = screen();
        // A trailing-space or ellipsis variant still grounds.
        let (_, n) = ground(&sc, &TargetQuery::name("Font Color ")).unwrap();
        assert!(n.props.name.starts_with("Font Color"));
    }

    #[test]
    fn unrelated_name_does_not_ground() {
        let sc = screen();
        assert!(ground(&sc, &TargetQuery::name("Quantum Flux Capacitor")).is_none());
    }

    #[test]
    fn hidden_menu_items_are_not_visible() {
        let sc = screen();
        // Color cells live inside a closed menu: not on screen.
        assert!(ground(&sc, &TargetQuery::under("Blue", "Font Color")).is_none());
        assert!(ground(&sc, &TargetQuery::name("Bold")).is_some());
    }

    /// The full scan `ground` replaced: every control scored with the
    /// unbounded similarity, exact names at 1.0.
    fn ground_full_scan(screen: &LabeledScreen, q: &TargetQuery) -> Option<usize> {
        let mut best: Option<(usize, f64, bool)> = None;
        for (i, n) in screen.nodes().enumerate() {
            let (name, clickable) = (&n.props.name, is_clickable(n.props.control_type));
            let s = if *name == q.name { 1.0 } else { string_similarity(name, &q.name) };
            if s < GROUNDING_SIMILARITY {
                continue;
            }
            if best.is_none_or(|(_, bs, bc)| (clickable, s) > (bc, bs)) {
                best = Some((i, s, clickable));
            }
        }
        best.map(|(i, _, _)| i)
    }

    #[test]
    fn early_exit_matches_the_full_scan() {
        for kind in [dmi_apps::AppKind::Word, dmi_apps::AppKind::Excel] {
            let mut s = Session::new(kind.launch_small());
            let sc = label_screen(&s.snapshot());
            let (mut exact, mut similar) = (0, 0);
            for node in sc.nodes() {
                let n = &node.props.name;
                for name in [n.clone(), format!("{n} "), n.to_lowercase(), format!("{n}…")] {
                    let q = TargetQuery::name(name);
                    let got = ground(&sc, &q);
                    assert_eq!(
                        got.map(|(i, _)| i),
                        ground_full_scan(&sc, &q),
                        "{kind}: query {:?}",
                        q.name
                    );
                    match got {
                        Some((_, hit)) if hit.props.name == q.name => exact += 1,
                        Some(_) => similar += 1,
                        None => {}
                    }
                }
            }
            assert!(exact > 0 && similar > 0, "{kind}: {exact} exact, {similar} similar hits");
        }
    }
}
