//! Property-based tests over core invariants.

use dmi_apps::model::sheet::{Addr, Range};
use dmi_core::graph::{ung_from_parts, Ung, UngNode};
use dmi_core::screen::{
    alpha_label, full_tree_prompt_text, full_tree_prompt_tokens, label_screen, label_tokens_below,
};
use dmi_core::tokens;
use dmi_core::topology::{build_forest, decycle, is_acyclic, ForestConfig};
use dmi_uia::ident::{levenshtein, path_similarity, string_similarity};
use dmi_uia::{ControlId, ControlProps, ControlType, Lineage, Snapshot};
use proptest::prelude::*;
use std::sync::Arc;

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

/// One generated prompt line: name, control type, value, flags (bit 0
/// off-screen, bit 1 disabled) and where the node goes (0: a new block's
/// root, 1: a child of the block root, 2: a child of the node before, 3:
/// a window child outside every block).
type Line = (String, u8, String, u8, u8);

const LINE_TYPES: [ControlType; 6] = [
    ControlType::Button,
    ControlType::Text,
    ControlType::Edit,
    ControlType::DataItem,
    ControlType::MenuItem,
    ControlType::Group,
];

/// Builds a one-window snapshot of `lines` under the window root, with
/// every block recorded under `lineages[k]` for its `k`th block, minting
/// lineages past the end. Returns the snapshot and the lineages used.
fn line_snapshot(lines: &[Line], lineages: &[Lineage]) -> (Snapshot, Vec<Lineage>) {
    let mut s = Snapshot::new();
    let w = s.push(ControlProps::new("Window", ControlType::Window), None, 0);
    s.push_window_root(w);
    let (mut blocks, mut root) = (Vec::new(), None::<usize>);
    for (name, ty, value, flags, place) in lines {
        let mut p = ControlProps::new(name.clone(), LINE_TYPES[*ty as usize % LINE_TYPES.len()]);
        p.value = value.clone();
        p.offscreen = flags & 1 != 0;
        p.enabled = flags & 2 == 0;
        let parent = match (place, root) {
            (1, Some(r)) => r,
            (2, Some(_)) => s.len() - 1,
            _ => w,
        };
        let i = s.push(p, Some(parent), 0);
        if parent == w {
            if let Some(start) = root.take() {
                blocks.push((start, i));
            }
            root = (*place != 3).then_some(i);
        }
    }
    blocks.extend(root.map(|start| (start, s.len())));
    let mut used = Vec::new();
    for (k, (start, end)) in blocks.into_iter().enumerate() {
        let lineage = lineages.get(k).cloned().unwrap_or_default();
        s.record_block(start, end, lineage.clone());
        used.push(lineage);
    }
    (s, used)
}

/// The per-line sums equal the count of the built prompt texts.
fn assert_sums_are_counts(snap: Snapshot) {
    let full = tokens::count(&full_tree_prompt_text(&snap));
    prop_assert_eq!(full_tree_prompt_tokens(&snap), full);
    let screen = label_screen(&Arc::new(snap));
    prop_assert_eq!(screen.prompt_tokens(), tokens::count(&screen.to_prompt_text()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Prompt tokens are additive: the full-tree and screen counts summed
    /// per line, with each block's name/type terms held by its lineage,
    /// equal `tokens::count` of the prompt texts — for names with Unicode,
    /// digits and trailing punctuation, empty and non-empty values, and
    /// mixed flags, whether a lineage's terms are computed by this count
    /// or held from an earlier snapshot whose values and flags differ.
    #[test]
    fn prompt_token_sums_equal_counted_texts(
        lines in proptest::collection::vec(
            ("[a-zA-Z0-9 éÄ日ß.,!?:()'/]{0,10}", 0u8..6, "[a-z0-9 é.,'=]{0,3}", 0u8..4, 0u8..4),
            1..40,
        ),
    ) {
        let (first, lineages) = line_snapshot(&lines, &[]);
        assert_sums_are_counts(first.clone());
        assert_sums_are_counts(first);
        // Equal names and types keep the lineage promise; values and
        // flags rotate, so the held terms meet other lines.
        let mut shifted = lines.clone();
        for (k, line) in shifted.iter_mut().enumerate() {
            line.2 = lines[(k + 1) % lines.len()].2.clone();
            line.3 = (line.3 + 1) % 4;
        }
        assert_sums_are_counts(line_snapshot(&shifted, &lineages).0);
    }


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

/// The closed-form sum of the label terms agrees with `tokens::count` of
/// each label at every label-length boundary up to the first five-letter
/// label (position 475,254), and with the running sum over the first
/// 20,000 positions.
#[test]
fn label_tokens_match_counted_labels_at_every_length_boundary() {
    let counted = |pos: usize| tokens::count(&(alpha_label(pos) + ": "));
    let mut running = 0;
    for n in 0..20_000 {
        assert_eq!(label_tokens_below(n), running, "sum below {n}");
        running += counted(n);
    }
    for first in [26, 702, 18_278, 475_254] {
        for pos in [first - 1, first, first + 1] {
            let term = label_tokens_below(pos + 1) - label_tokens_below(pos);
            assert_eq!(term, counted(pos), "{}", alpha_label(pos));
        }
    }
    assert_eq!((alpha_label(475_254), counted(475_254)), (String::from("AAAAA"), 3));
    assert_eq!(label_tokens_below(475_255), 2 * 475_254 + 3);
}
