//! Property-based tests over core invariants.

use dmi_apps::model::sheet::{Addr, Range};
use dmi_core::graph::{ung_from_parts, Ung, UngNode};
use dmi_core::tokens;
use dmi_core::topology::{build_forest, decycle, is_acyclic, ForestConfig};
use dmi_uia::ident::{levenshtein, path_similarity, string_similarity};
use dmi_uia::{ControlId, ControlType};
use proptest::prelude::*;

/// Random DAG-ish edge lists over `n` nodes (may contain cycles).
fn arb_graph(max_nodes: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2..max_nodes).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..n * 3);
        (Just(n), edges)
    })
}

fn build_ung(n: usize, edges: &[(usize, usize)]) -> Ung {
    let names: Vec<(String, ControlType)> = (0..n)
        .map(|i| {
            let ct = match i % 4 {
                0 => ControlType::Button,
                1 => ControlType::MenuItem,
                2 => ControlType::ListItem,
                _ => ControlType::TabItem,
            };
            (format!("N{i}"), ct)
        })
        .collect();
    let named: Vec<(&str, ControlType)> = names.iter().map(|(s, t)| (s.as_str(), *t)).collect();
    ung_from_parts(&named, edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn decycle_always_yields_acyclic((n, edges) in arb_graph(24)) {
        let mut g = build_ung(n, &edges);
        decycle(&mut g);
        prop_assert!(is_acyclic(&g));
    }

    #[test]
    fn decycle_preserves_reachability((n, edges) in arb_graph(24)) {
        let mut g = build_ung(n, &edges);
        let before = g.reachable().len();
        decycle(&mut g);
        prop_assert_eq!(g.reachable().len(), before);
    }

    #[test]
    fn forest_has_unique_paths_any_threshold(
        (n, edges) in arb_graph(20),
        threshold in 0usize..40,
    ) {
        let mut g = build_ung(n, &edges);
        decycle(&mut g);
        let (forest, _) = build_forest(&g, &ForestConfig { externalize_threshold: threshold });
        prop_assert!(forest.verify_unique_paths());
        // Consecutive ids.
        for (i, node) in forest.nodes.iter().enumerate() {
            prop_assert_eq!(i, node.id);
        }
    }

    #[test]
    fn forest_externalization_never_grows_beyond_cloning(
        (n, edges) in arb_graph(18),
    ) {
        let mut g = build_ung(n, &edges);
        decycle(&mut g);
        let (_, ext) = build_forest(&g, &ForestConfig { externalize_threshold: 0 });
        let (_, clone) = build_forest(&g, &ForestConfig { externalize_threshold: usize::MAX });
        // Externalizing every merge node is never larger than full cloning.
        prop_assert!(ext.forest_nodes <= clone.forest_nodes + 2 * ext.merge_nodes);
    }

    #[test]
    fn token_count_is_subadditive(a in ".{0,40}", b in ".{0,40}") {
        let joined = format!("{a}{b}");
        prop_assert!(tokens::count(&joined) <= tokens::count(&a) + tokens::count(&b) + 1);
    }

    #[test]
    fn levenshtein_is_a_metric(a in "[a-z]{0,12}", b in "[a-z]{0,12}", c in "[a-z]{0,12}") {
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        prop_assert_eq!(levenshtein(&a, &a), 0);
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
    }

    #[test]
    fn similarity_is_bounded(a in ".{0,24}", b in ".{0,24}") {
        let s = string_similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
        let p = path_similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn addr_round_trips(row in 0usize..5000, col in 0usize..700) {
        let a = Addr { row, col };
        prop_assert_eq!(Addr::parse(&a.to_a1()), Some(a));
    }

    #[test]
    fn range_iter_size_matches(r1 in 0usize..30, c1 in 0usize..12, r2 in 0usize..30, c2 in 0usize..12) {
        let range = Range { from: Addr { row: r1, col: c1 }, to: Addr { row: r2, col: c2 } };
        let expect = (r1.abs_diff(r2) + 1) * (c1.abs_diff(c2) + 1);
        prop_assert_eq!(range.iter().count(), expect);
    }

    #[test]
    fn ung_dedup_is_idempotent(name in "[a-z]{1,10}") {
        let mut g = Ung::new();
        let node = UngNode {
            control: ControlId {
                primary: name.clone(),
                control_type: ControlType::Button,
                ancestor_path: "W".into(),
            },
            name,
            control_type: ControlType::Button,
            help_text: String::new(),
        };
        let a = g.add_node(node.clone());
        let b = g.add_node(node);
        prop_assert_eq!(a, b);
        prop_assert_eq!(g.node_count(), 2);
    }
}

#[test]
fn alpha_labels_are_unique_for_large_screens() {
    let labels: Vec<String> = (0..2000).map(dmi_core::screen::alpha_label).collect();
    let mut sorted = labels.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), labels.len());
}
