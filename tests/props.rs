//! Property-based tests over core invariants.

use dmi_apps::model::sheet::{Addr, Range};
use dmi_core::graph::{ung_from_parts, Ung, UngNode};
use dmi_core::screen::{
    alpha_label, full_tree_prompt_text, full_tree_prompt_tokens, label_screen, label_tokens_below,
};
use dmi_core::tokens;
use dmi_core::topology::{build_forest, decycle, is_acyclic, ForestConfig};
use dmi_uia::ident::{
    levenshtein, path_similarity, string_similarity, string_similarity_bounded, SimilarityQuery,
};
use dmi_uia::{
    ControlId, ControlKey, ControlProps, ControlType, FuzzyMatcher, Lineage, Rect, RuntimeId,
    Snapshot,
};
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

/// The similarity the bounded matchers must agree with, written plainly:
/// both strings folded, the full two-row edit-distance DP, the prefix
/// rule, and no bound of any kind.
fn reference_similarity(a: &str, b: &str) -> f64 {
    if a == b {
        return 1.0;
    }
    let al: Vec<char> = a.chars().flat_map(char::to_lowercase).collect();
    let bl: Vec<char> = b.chars().flat_map(char::to_lowercase).collect();
    if al == bl {
        return 0.97;
    }
    if al.is_empty() || bl.is_empty() {
        return 0.0;
    }
    let mut prev: Vec<usize> = (0..=bl.len()).collect();
    for (i, ac) in al.iter().enumerate() {
        let mut cur = vec![i + 1; bl.len() + 1];
        for (j, bc) in bl.iter().enumerate() {
            cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + usize::from(ac != bc));
        }
        prev = cur;
    }
    let base = 1.0 - prev[bl.len()] as f64 / al.len().max(bl.len()) as f64;
    if al.starts_with(&bl) || bl.starts_with(&al) {
        (base + 0.25).min(0.95)
    } else {
        base
    }
}

/// Floors the bounded similarity is checked at: none, the matchers' own
/// thresholds, and floors no pair (or only an equal pair) reaches.
const SIMILARITY_FLOORS: [f64; 6] = [0.0, 0.55, 0.8, 0.95, 1.0, 1.2];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The bounded similarity against the plain reference: where the
    /// reference reaches the floor the bounded value equals it exactly,
    /// and elsewhere it stays below the floor. The two strings share a
    /// stem (one side possibly lowercased) so prefix pairs, case-only
    /// differences and near misses are common; the alphabet mixes ASCII
    /// case, spaces, digits, `…`, `É`, `ß` and `İ` (which lowercases to
    /// two chars).
    #[test]
    fn bounded_similarity_equals_the_reference_at_the_floor(
        stem in "[aAbB 1É…ßİ]{0,6}",
        tail_a in "[aAbB 1É…ßİ]{0,4}",
        tail_b in "[aAbB 1É…ßİ]{0,4}",
        shape in 0u8..8,
    ) {
        let stem_b = if shape & 1 != 0 { stem.to_lowercase() } else { stem.clone() };
        let tail_b = if shape & 2 != 0 { tail_b } else { String::new() };
        let (mut a, mut b) = (format!("{stem}{tail_a}"), format!("{stem_b}{tail_b}"));
        if shape & 4 != 0 {
            std::mem::swap(&mut a, &mut b);
        }
        let want = reference_similarity(&a, &b);
        prop_assert_eq!(string_similarity(&a, &b), want);
        let query = SimilarityQuery::new(&b);
        for floor in SIMILARITY_FLOORS {
            let got = string_similarity_bounded(&a, &b, floor);
            prop_assert_eq!(query.similarity_bounded(&a, floor), got);
            if want >= floor {
                prop_assert_eq!(got, want);
            } else {
                prop_assert!(got < floor, "{a:?} vs {b:?} at {floor}: {got} for {want}");
            }
        }
    }
}

/// The full scan `FuzzyMatcher::best_match` replaced: the first exact
/// identifier in arena order, else every candidate scored with the
/// unbounded similarity and the first highest score at or above the
/// threshold.
fn best_match_full_scan(
    m: &FuzzyMatcher,
    snap: &Snapshot,
    ids: &[ControlId],
    target: &ControlId,
    scope: Option<usize>,
    skip_offscreen: bool,
) -> Option<(usize, f64, bool)> {
    let allowed = |i: usize| {
        !(skip_offscreen && snap.node(i).props.offscreen)
            && scope.is_none_or(|r| snap.is_in_subtree(i, r))
    };
    if let Some(i) = (0..snap.len()).find(|&i| allowed(i) && ids[i] == *target) {
        return Some((i, 1.0, true));
    }
    let candidates = scope.map_or(0..snap.len(), |root| snap.descendants(root));
    let (type_w, path_w) = ((1.0 - m.name_weight) * 0.5, (1.0 - m.name_weight) * 0.5);
    let mut best: Option<(usize, f64, bool)> = None;
    for i in candidates.filter(|&i| allowed(i)) {
        let props = &snap.node(i).props;
        let name = string_similarity(props.primary_id(), &target.primary)
            .max(string_similarity(&props.name, &target.primary));
        let type_score = if props.control_type == target.control_type { 1.0 } else { 0.0 };
        let path = path_similarity(snap.index().path(i), &target.ancestor_path);
        let s = m.name_weight * name + (type_w * type_score + path_w * path);
        if s >= m.threshold && best.is_none_or(|(_, bs, _)| s > bs) {
            best = Some((i, s, false));
        }
    }
    best
}

/// `best_match` (keyed exact pass, then the fuzzy pass over one prepared
/// query with its type, path and name bounds) picks what the full scan
/// picks, with the same score, on the small Office apps' launch
/// snapshots: for targets whose name is exact, lowercased, padded with a
/// space, ellipsized or truncated, of their own or another control type,
/// scoped to the top window or not, and with off-screen controls skipped
/// or not.
#[test]
fn best_match_equals_the_full_scan() {
    let m = FuzzyMatcher::default();
    for kind in dmi_apps::AppKind::ALL {
        let snap = dmi_gui::Session::new(kind.launch_small()).snapshot();
        let top = snap.top_window();
        let ids: Vec<ControlId> = (0..snap.len()).map(|i| ControlId::of(&snap, i)).collect();
        let (mut exact, mut fuzzy, mut none) = (0, 0, 0);
        let step = (snap.len() / 16).max(1);
        for i in (0..snap.len()).step_by(step) {
            let id = &ids[i];
            let p = &id.primary;
            let cut: String = p.chars().take((p.chars().count() * 2 / 3).max(1)).collect();
            let other = match id.control_type {
                ControlType::Button => ControlType::MenuItem,
                _ => ControlType::Button,
            };
            let primaries = [p.clone(), p.to_lowercase(), format!("{p} "), format!("{p}…"), cut];
            for (primary, control_type) in primaries
                .into_iter()
                .flat_map(|primary| [(primary.clone(), id.control_type), (primary, other)])
            {
                let target = ControlId { primary, control_type, ..id.clone() };
                let key = ControlKey::of_id(&target);
                for (scope, skip_offscreen) in
                    [(None, false), (None, true), (top, false), (top, true)]
                {
                    let got = m.best_match(&snap, key, &target, scope, skip_offscreen);
                    let got = got.map(|g| (g.index, g.score, g.exact));
                    let want =
                        best_match_full_scan(&m, &snap, &ids, &target, scope, skip_offscreen);
                    assert_eq!(got, want, "{kind}: {target} in {scope:?}, skip {skip_offscreen}");
                    match got {
                        Some((_, _, true)) => exact += 1,
                        Some(_) => fuzzy += 1,
                        None => none += 1,
                    }
                }
            }
        }
        assert!(exact > 0 && fuzzy > 0 && none > 0, "{kind}: {exact} / {fuzzy} / {none}");
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

/// The last node of `s` and its ancestors, nearest first: the nodes a
/// pre-order push may hang under.
fn open_chain(s: &Snapshot) -> Vec<usize> {
    std::iter::successors(s.len().checked_sub(1), |&i| s.node(i).parent).collect()
}

/// Pushes a new window root, tagged with its window ordinal.
fn push_window(s: &mut Snapshot) -> usize {
    let wi = s.windows().len();
    let w = s.push(ControlProps::new(format!("Window {wi}"), ControlType::Window), None, wi);
    s.push_window_root(w);
    w
}

/// A random pre-order snapshot: op `(0, _, _)` pushes a window root, any
/// other `(ty, up, mark)` a control under the `up`-th node of the open
/// chain (modulo its length). Runtime ids and rects are scattered, and
/// every node whose mark is a multiple of three roots a recorded block
/// unless an earlier block holds it.
fn pre_order_snapshot(ops: &[(u8, u8, u8)]) -> Snapshot {
    let mut s = Snapshot::new();
    let mut marked = Vec::new();
    for (i, &(ty, up, mark)) in ops.iter().enumerate() {
        let chain = open_chain(&s);
        let idx = if ty == 0 || chain.is_empty() {
            push_window(&mut s)
        } else {
            let mut p = ControlProps::new(format!("N{}", i % 7), LINE_TYPES[ty as usize % 6]);
            p.value = format!("{mark}");
            let parent = chain[up as usize % chain.len()];
            s.push(p, Some(parent), s.node(parent).window)
        };
        s.set_runtime_id(idx, RuntimeId(1000 + 7 * i as u64));
        s.set_rect(idx, Rect::new(i as i32, up as i32, 10, 10));
        if mark % 3 == 0 {
            marked.push(idx);
        }
    }
    let mut end = 0;
    for root in marked.into_iter().filter(|&r| r > 0) {
        if root >= end {
            end = s.descendants(root).end;
            s.record_block(root, end, Lineage::default());
        }
    }
    s
}

/// The deleted `Snapshot::descendants`, kept as the reference: a stack
/// DFS over child lists, here rebuilt from the parent links.
fn descendants_by_dfs(s: &Snapshot, root: usize) -> Vec<usize> {
    let mut children = vec![Vec::new(); s.len()];
    for (i, n) in s.iter() {
        if let Some(p) = n.parent {
            children[p].push(i);
        }
    }
    let (mut out, mut stack) = (Vec::new(), vec![root]);
    while let Some(i) = stack.pop() {
        out.push(i);
        stack.extend(children[i].iter().rev());
    }
    out
}

/// Every subtree range equals the reference DFS, and membership in it is
/// `is_in_subtree`.
fn assert_subtrees_are_ranges(s: &Snapshot) {
    for i in 0..s.len() {
        let range = s.descendants(i);
        assert_eq!(range.clone().collect::<Vec<_>>(), descendants_by_dfs(s, i), "subtree of {i}");
        for j in 0..s.len() {
            assert_eq!(s.is_in_subtree(j, i), range.contains(&j), "{j} under {i}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Pushes and copies equal their eager builds: subtrees of a random
    /// pre-order snapshot (several windows, recorded blocks) copied into
    /// another snapshot with `append_subtree_from` equal the same nodes
    /// pushed one by one, with shared property bags, and carry a lineage
    /// exactly when their source recorded a block at the copied root. In
    /// both snapshots every `descendants` range equals a stack DFS over
    /// the parent links.
    #[test]
    fn subtree_copies_equal_their_pushes(
        ops in proptest::collection::vec((0u8..7, 0u8..8, 0u8..9), 1..40),
        copies in proptest::collection::vec((0u8..64, 0u8..8, 0u8..5), 1..12),
    ) {
        let src = pre_order_snapshot(&ops);
        assert_subtrees_are_ranges(&src);
        let (mut copy, mut eager) = (Snapshot::new(), Snapshot::new());
        for &(pick, up, new_window) in &copies {
            if copy.is_empty() || new_window == 0 {
                push_window(&mut copy);
                push_window(&mut eager);
            }
            // Hang the copy outside every recorded block, so each block
            // stays its root's subtree.
            let in_block = |p: usize| copy.blocks().iter().any(|b| (b.start..b.end).contains(&p));
            let chain: Vec<usize> = open_chain(&copy).into_iter().filter(|&p| !in_block(p)).collect();
            let parent = chain[up as usize % chain.len()];
            let window = copy.node(parent).window;
            let root = pick as usize % src.len();
            let base = copy.append_subtree_from(&src, root, parent, window);
            for i in src.descendants(root) {
                let n = src.node(i);
                let up = if i == root { parent } else { n.parent.unwrap() - root + base };
                let j = eager.push((*n.props).clone(), Some(up), window);
                eager.set_runtime_id(j, n.runtime_id);
                eager.set_rect(j, n.rect);
                prop_assert!(Arc::ptr_eq(&copy.node(j).props, &n.props), "bag of {i} shared");
            }
            match (copy.block_at(base), src.block_at(root)) {
                (Some(c), Some(b)) => prop_assert!(c.lineage.same(&b.lineage)),
                (c, b) => prop_assert_eq!(c.is_some(), b.is_some()),
            }
        }
        prop_assert!(copy == eager, "copies equal their pushes");
        assert_subtrees_are_ranges(&copy);
    }
}
