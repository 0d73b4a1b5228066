//! Context-efficient descriptions of controls and navigation (§3.3, §4.2).
//!
//! Serialization schema (per navigation tree / subtree):
//!
//! ```text
//! name(type)(description)_id[children]
//! ```
//!
//! Parentheses mark optional fields; square brackets encode hierarchical
//! nesting; ids are consecutive integers. Descriptions are selectively
//! attached (key control types, shared-name groups, non-leaf nodes) and
//! truncated. A depth-limited **core topology** excludes large enumerations
//! and manually identified nodes; `further_query` expands pruned branches
//! or fetches the complete forest on demand.

use crate::topology::{Forest, TopoKind};
use serde::Serialize;
use std::collections::{HashMap, HashSet};

/// Options for description generation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DescribeConfig {
    /// Maximum characters kept from a control's description.
    pub max_description_chars: usize,
    /// Core topology depth limit (levels below a root).
    pub core_max_depth: usize,
    /// A node with more than this many children is a "large enumeration";
    /// the core keeps the first `enum_keep` children plus a marker.
    pub enum_threshold: usize,
    /// Children kept from a pruned enumeration.
    pub enum_keep: usize,
    /// Node names / automation ids manually excluded from the core
    /// (children pruned; the node itself stays as a queryable stub).
    pub manual_prune: Vec<String>,
}

impl Default for DescribeConfig {
    fn default() -> Self {
        // The paper's core topology keeps six levels below the app window
        // and excludes large enumerations (font lists). Our depth counts
        // from the virtual root, which adds the window and ribbon levels,
        // hence 8. The enumeration threshold keeps color grids (60 cells)
        // and transition galleries while pruning font lists (216),
        // symbols (280+), and bulk grid rows.
        DescribeConfig {
            max_description_chars: 60,
            core_max_depth: 8,
            enum_threshold: 100,
            enum_keep: 12,
            manual_prune: Vec::new(),
        }
    }
}

/// Sanitizes a name for the compact schema (no structural characters).
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            '(' | ')' | '[' | ']' | ',' | '_' => ' ',
            other => other,
        })
        .collect::<String>()
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
}

/// Whether a description should be attached to this node (§4.2 rules).
fn wants_description(forest: &Forest, id: usize, shared_names: &HashSet<String>) -> bool {
    let n = &forest.nodes[id];
    if n.help_text.is_empty() {
        return false;
    }
    if !n.children.is_empty() {
        return true; // Non-leaf (navigational) nodes: pivotal, few.
    }
    if n.control_type.is_key_type() {
        return true;
    }
    if shared_names.contains(&n.name) {
        return true;
    }
    // Functional leaves with provider descriptions keep them (truncated):
    // rich control descriptions are what make declarative selection
    // reliable (§5.7 "Rich control descriptions").
    true
}

/// Names shared by more than one node where at least one holder is a key
/// type (§4.2: such groups all get descriptions).
fn shared_name_set(forest: &Forest) -> HashSet<String> {
    let mut count: HashMap<&str, (usize, bool)> = HashMap::new();
    for n in &forest.nodes {
        let e = count.entry(n.name.as_str()).or_insert((0, false));
        e.0 += 1;
        e.1 |= n.control_type.is_key_type();
    }
    count.into_iter().filter(|(_, (c, key))| *c > 1 && *key).map(|(n, _)| n.to_string()).collect()
}

/// Serializes one node (and children, within limits) into `out`.
#[allow(clippy::too_many_arguments)]
fn write_node(
    forest: &Forest,
    id: usize,
    depth: usize,
    cfg: &DescribeConfig,
    shared_names: &HashSet<String>,
    limit_depth: Option<usize>,
    included: &mut HashSet<usize>,
    out: &mut String,
) {
    let n = &forest.nodes[id];
    included.insert(id);
    out.push_str(&sanitize(&n.name));
    out.push('(');
    out.push_str(n.control_type.as_str());
    out.push(')');
    if let TopoKind::Reference { subtree_root } = n.kind {
        out.push_str(&format!("(ref subtree {subtree_root})"));
    } else if wants_description(forest, id, shared_names) {
        let mut d = sanitize(&n.help_text);
        if d.len() > cfg.max_description_chars {
            d.truncate(cfg.max_description_chars);
            d.push('…');
        }
        out.push('(');
        out.push_str(&d);
        out.push(')');
    }
    out.push('_');
    out.push_str(&n.id.to_string());

    if n.children.is_empty() {
        return;
    }
    // Depth cutoff: keep the node as a queryable stub.
    if let Some(max) = limit_depth {
        if depth >= max {
            out.push_str(&format!("[…{} children, further_query]", n.children.len()));
            return;
        }
    }
    let manual = cfg.manual_prune.iter().any(|m| m == &n.name);
    let prune_enum = limit_depth.is_some() && n.children.len() > cfg.enum_threshold;
    let kids: Vec<usize> = if limit_depth.is_some() && manual {
        Vec::new()
    } else if prune_enum {
        n.children.iter().copied().take(cfg.enum_keep).collect()
    } else {
        n.children.clone()
    };
    if kids.is_empty() && (manual || prune_enum) {
        out.push_str(&format!("[…{} children, further_query]", n.children.len()));
        return;
    }
    out.push('[');
    for (i, c) in kids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_node(forest, *c, depth + 1, cfg, shared_names, limit_depth, included, out);
    }
    if prune_enum {
        out.push_str(&format!(",…{} more, further_query", n.children.len() - kids.len()));
    }
    out.push(']');
}

/// A rendered topology description plus the set of node ids it includes.
#[derive(Debug, Clone, PartialEq)]
pub struct Description {
    /// The compact structured text handed to the LLM.
    pub text: String,
    /// Node ids fully visible in the text.
    pub included: HashSet<usize>,
}

impl Description {
    /// Approximate token cost of the description.
    pub fn tokens(&self) -> usize {
        crate::tokens::count(&self.text)
    }
}

/// Renders the complete forest (main tree + shared subtrees + entry map).
pub fn full_description(forest: &Forest, cfg: &DescribeConfig) -> Description {
    render(forest, cfg, None)
}

/// Renders the depth-limited core topology (§3.3 "Query on demand").
pub fn core_description(forest: &Forest, cfg: &DescribeConfig) -> Description {
    render(forest, cfg, Some(cfg.core_max_depth))
}

fn render(forest: &Forest, cfg: &DescribeConfig, limit: Option<usize>) -> Description {
    let shared_names = shared_name_set(forest);
    let mut text = String::new();
    let mut included = HashSet::new();
    text.push_str("#main-tree\n");
    write_node(forest, forest.main_root, 0, cfg, &shared_names, limit, &mut included, &mut text);
    for (i, &r) in forest.shared_roots.iter().enumerate() {
        text.push_str(&format!("\n#shared-subtree-{i}\n"));
        write_node(forest, r, 0, cfg, &shared_names, limit, &mut included, &mut text);
    }
    if !forest.entry_map.is_empty() {
        text.push_str("\n#entry-map (ref_id -> subtree root)\n");
        let mut entries: Vec<_> = forest.entry_map.iter().collect();
        entries.sort();
        for (r, root) in entries {
            text.push_str(&format!("{r}->{root} "));
        }
    }
    Description { text, included }
}

/// Expands the branches beneath the given node ids (targeted
/// `further_query` mode (a)); `-1` anywhere requests the complete forest
/// (mode (b)).
pub fn further_query(forest: &Forest, cfg: &DescribeConfig, ids: &[i64]) -> Description {
    if ids.contains(&-1) {
        return full_description(forest, cfg);
    }
    let shared_names = shared_name_set(forest);
    let mut text = String::new();
    let mut included = HashSet::new();
    for &id in ids {
        let Ok(idx) = usize::try_from(id) else {
            continue;
        };
        if idx >= forest.nodes.len() {
            text.push_str(&format!("#branch {id}: unknown id\n"));
            continue;
        }
        text.push_str(&format!("#branch {id}\n"));
        write_node(forest, idx, 0, cfg, &shared_names, None, &mut included, &mut text);
        text.push('\n');
    }
    Description { text, included }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ung_from_parts;
    use crate::topology::{build_forest, decycle, ForestConfig};
    use dmi_uia::ControlType as CT;

    fn forest_fixture() -> Forest {
        // root -> Home(tab) -> [Font(group) -> Bold, Italic]; Home -> Dialog(window, merge via Insert too)
        let mut g = ung_from_parts(
            &[
                ("Home", CT::TabItem),
                ("Insert", CT::TabItem),
                ("Font", CT::Group),
                ("Bold", CT::Button),
                ("Italic", CT::Button),
                ("Colors", CT::Window),
            ],
            &[(0, 2), (2, 3), (2, 4), (0, 5), (1, 5)],
        );
        let r = g.root();
        g.add_edge(r, 2); // root -> Insert (arena id 2)
                          // Big payload under Colors so it externalizes.
        for i in 0..20 {
            let id = g.add_node(crate::graph::UngNode {
                control: dmi_uia::ControlId {
                    primary: format!("Cell{i}"),
                    control_type: CT::ListItem,
                    ancestor_path: String::new(),
                },
                name: format!("Cell {i}"),
                control_type: CT::ListItem,
                help_text: String::new(),
            });
            let colors = 6; // arena id of Colors node
            g.add_edge(colors, id);
        }
        decycle(&mut g);
        let (f, _) = build_forest(&g, &ForestConfig::default());
        f
    }

    #[test]
    fn schema_shape_and_ids() {
        let f = forest_fixture();
        let d = full_description(&f, &DescribeConfig::default());
        assert!(d.text.contains("#main-tree"));
        assert!(d.text.contains("Bold(Button)"));
        assert!(d.text.contains("#shared-subtree-0"));
        assert!(d.text.contains("#entry-map"));
        // Every node included in the full description.
        assert_eq!(d.included.len(), f.len());
    }

    #[test]
    fn core_prunes_depth() {
        let f = forest_fixture();
        let cfg = DescribeConfig { core_max_depth: 1, ..Default::default() };
        let d = core_description(&f, &cfg);
        assert!(d.text.contains("further_query"));
        assert!(d.included.len() < f.len());
    }

    #[test]
    fn enum_pruning_keeps_prefix_and_marker() {
        let f = forest_fixture();
        let cfg = DescribeConfig {
            enum_threshold: 10,
            enum_keep: 3,
            core_max_depth: 10,
            ..Default::default()
        };
        let d = core_description(&f, &cfg);
        assert!(d.text.contains("Cell 0"));
        assert!(!d.text.contains("Cell 15"));
        assert!(d.text.contains("more, further_query"));
    }

    #[test]
    fn manual_prune_stubs_node() {
        let f = forest_fixture();
        let cfg = DescribeConfig { manual_prune: vec!["Font".into()], ..Default::default() };
        let d = core_description(&f, &cfg);
        assert!(d.text.contains("Font(Group)"));
        assert!(!d.text.contains("Bold(Button)"));
        let full = full_description(&f, &cfg);
        assert!(full.text.contains("Bold(Button)"), "full description ignores manual prunes");
    }

    #[test]
    fn further_query_expands_branch() {
        let f = forest_fixture();
        let cfg = DescribeConfig { manual_prune: vec!["Font".into()], ..Default::default() };
        let core = core_description(&f, &cfg);
        assert!(!core.text.contains("Bold(Button)"));
        let font_id = f.nodes.iter().find(|n| n.name == "Font").unwrap().id;
        let d = further_query(&f, &cfg, &[font_id as i64]);
        assert!(d.text.contains("Bold(Button)"));
        // -1 fetches everything.
        let all = further_query(&f, &cfg, &[-1]);
        assert_eq!(all.included.len(), f.len());
    }

    #[test]
    fn sanitize_strips_structural_chars() {
        assert_eq!(sanitize("a(b)[c],d_e"), "a b c d e");
        assert_eq!(sanitize("  spaced   out  "), "spaced out");
    }

    #[test]
    fn token_cost_is_about_15_per_control() {
        let f = forest_fixture();
        let d = full_description(&f, &DescribeConfig::default());
        let per_control = d.tokens() as f64 / f.len() as f64;
        assert!((3.0..=25.0).contains(&per_control), "tokens per control = {per_control:.1}");
    }

    #[test]
    fn empty_help_text_yields_no_truncated_description() {
        let mut g = ung_from_parts(&[("Menu", CT::SplitButton), ("Leaf", CT::Text)], &[(0, 1)]);
        decycle(&mut g);
        let (f, _) = build_forest(&g, &ForestConfig::default());
        let d = full_description(&f, &DescribeConfig::default());
        // No help text in fixture: no description parens beyond type.
        assert!(!d.text.contains(")(…"));
    }
}
