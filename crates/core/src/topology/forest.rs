//! DAG → forest: cost-based selective externalization (§3.2).
//!
//! Merge nodes (multiple incoming edges) break path uniqueness. Naive
//! cloning of every merge node's substructure guarantees unique paths but
//! blows up exponentially on diamond chains. The paper's algorithm walks
//! nodes in reverse topological order and, per merge node, estimates the
//! substructure size and the *cloning cost* (extra nodes from duplicating
//! the substructure along all incoming edges). When that cost exceeds a
//! configurable threshold the node is **externalized** as a shared subtree
//! and incoming edges are redirected to fresh *reference nodes*; otherwise
//! the substructure is cloned per edge. The result is a main tree plus
//! shared subtrees with linear node growth, unique paths preserved.

use crate::graph::{Ung, UngNodeId};
use crate::topology::decycle::reverse_topo;
use dmi_uia::{ControlId, ControlKey, ControlType};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration for the externalization pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForestConfig {
    /// Externalize a merge node when `(indegree - 1) * subtree_size`
    /// exceeds this. `usize::MAX` forces full cloning (pure tree, the
    /// Figure 4 strawman); `0` externalizes every merge node.
    pub externalize_threshold: usize,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig { externalize_threshold: 12 }
    }
}

/// Node role in the forest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopoKind {
    /// The virtual root of the main tree.
    Root,
    /// A real UI control.
    Control,
    /// A reference node redirecting into a shared subtree.
    Reference {
        /// Forest id of the shared subtree's root.
        subtree_root: usize,
    },
}

/// One node of the forest (main tree or a shared subtree).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopoNode {
    /// Consecutive numeric id (the LLM-facing identifier, §4.2).
    pub id: usize,
    /// Role.
    pub kind: TopoKind,
    /// Underlying control identifier (reference nodes carry their target
    /// subtree's control id for readability).
    pub control: ControlId,
    /// Precomputed fingerprint of `control` (ROADMAP "Forest-side key
    /// interning"): the executor's exact-match pass probes snapshot
    /// identity indexes with it directly instead of re-hashing the
    /// identifier on every resolve.
    pub key: ControlKey,
    /// Display name.
    pub name: String,
    /// Control type.
    pub control_type: ControlType,
    /// Full description when available.
    pub help_text: String,
    /// Child forest ids.
    pub children: Vec<usize>,
    /// Parent forest id (`None` for the main root and shared roots).
    pub parent: Option<usize>,
}

/// The path-unambiguous navigation topology: one main tree plus shared
/// subtrees, connected through reference nodes (the shared subtree entry
/// map of §3.3).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Forest {
    /// All nodes; index == `TopoNode::id`.
    pub nodes: Vec<TopoNode>,
    /// Id of the main-tree root (the virtual root).
    pub main_root: usize,
    /// Roots of shared subtrees, in externalization order.
    pub shared_roots: Vec<usize>,
    /// Entry map: reference node id → shared subtree root id.
    pub entry_map: HashMap<usize, usize>,
}

/// Statistics from a forest transformation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForestStats {
    /// Nodes in the source DAG (reachable).
    pub dag_nodes: usize,
    /// Merge nodes found.
    pub merge_nodes: usize,
    /// Merge nodes externalized into shared subtrees.
    pub externalized: usize,
    /// Merge nodes cloned inline.
    pub cloned: usize,
    /// Total forest nodes (including reference nodes).
    pub forest_nodes: usize,
}

impl Forest {
    /// Number of nodes in the forest.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the forest is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrows a node by id.
    pub fn node(&self, id: usize) -> Option<&TopoNode> {
        self.nodes.get(id)
    }

    /// Whether a node is a functional leaf (no children, real control).
    pub fn is_functional_leaf(&self, id: usize) -> bool {
        self.node(id).is_some_and(|n| n.children.is_empty() && matches!(n.kind, TopoKind::Control))
    }

    /// The root (main or shared) above a node.
    pub fn root_of(&self, id: usize) -> usize {
        let mut cur = id;
        while let Some(p) = self.nodes[cur].parent {
            cur = p;
        }
        cur
    }

    /// Whether a node lives in a shared subtree (not the main tree).
    pub fn in_shared_subtree(&self, id: usize) -> Option<usize> {
        let root = self.root_of(id);
        (root != self.main_root).then_some(root)
    }

    /// Reference nodes that enter the given shared subtree root.
    pub fn references_to(&self, subtree_root: usize) -> Vec<usize> {
        let mut refs: Vec<usize> = self
            .entry_map
            .iter()
            .filter(|(_, &root)| root == subtree_root)
            .map(|(&r, _)| r)
            .collect();
        refs.sort_unstable();
        refs
    }

    /// The chain of node ids from the containing root down to `id`
    /// (inclusive), always unique — the point of the whole transformation.
    pub fn path_to(&self, id: usize) -> Vec<usize> {
        let mut path = vec![id];
        let mut cur = id;
        while let Some(p) = self.nodes[cur].parent {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Depth-first pre-order ids below `root` (inclusive).
    pub fn descendants(&self, root: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(u) = stack.pop() {
            out.push(u);
            for &c in self.nodes[u].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Verifies the path-uniqueness invariant: every node has exactly one
    /// parent link and is reachable from exactly one root (see
    /// [`Forest::validate`]).
    pub fn verify_unique_paths(&self) -> bool {
        self.validate().is_ok()
    }

    /// Checks the structural invariants every reader of a forest relies
    /// on, so a forest read from outside the process cannot make them
    /// index out of bounds or loop: `nodes[i].id == i`; every id (children,
    /// parents, main and shared roots, entry map, reference targets) is in
    /// range; every child's `parent` names the node that lists it; roots
    /// have no parent; and every node is reached exactly once from the main
    /// root plus the shared roots. Returns the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.nodes.len();
        let in_range = |what: &str, id: usize| {
            if id < n {
                Ok(())
            } else {
                Err(format!("{what} {id} is out of range ({n} nodes)"))
            }
        };
        in_range("main root", self.main_root)?;
        for &r in &self.shared_roots {
            in_range("shared root", r)?;
        }
        for (&r, &root) in &self.entry_map {
            in_range("entry-map reference", r)?;
            in_range("entry-map subtree root", root)?;
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if node.id != i {
                return Err(format!("node at index {i} has id {}", node.id));
            }
            if let Some(p) = node.parent {
                in_range("parent", p)?;
            }
            if let TopoKind::Reference { subtree_root } = node.kind {
                in_range("reference subtree root", subtree_root)?;
            }
            for &c in &node.children {
                in_range("child", c)?;
                if self.nodes[c].parent != Some(i) {
                    return Err(format!("child {c} of node {i} does not name it as parent"));
                }
            }
        }
        let mut stack: Vec<usize> =
            std::iter::once(self.main_root).chain(self.shared_roots.iter().copied()).collect();
        if let Some(&r) = stack.iter().find(|&&r| self.nodes[r].parent.is_some()) {
            return Err(format!("root {r} has a parent"));
        }
        let mut seen = vec![false; n];
        while let Some(u) = stack.pop() {
            if std::mem::replace(&mut seen[u], true) {
                return Err(format!("node {u} is reached more than once"));
            }
            stack.extend(&self.nodes[u].children);
        }
        match seen.iter().position(|&s| !s) {
            Some(u) => Err(format!("node {u} is unreachable")),
            None => Ok(()),
        }
    }
}

/// Internal representation of a resolved DAG node during the bottom-up
/// pass.
#[derive(Clone, Copy)]
enum Repr {
    /// Inline the node's substructure wherever a parent needs it.
    Inline,
    /// The node was externalized; parents get a reference node.
    Shared,
}

/// Transforms a single-source DAG into a [`Forest`].
///
/// The input must already be acyclic (run
/// [`crate::topology::decycle::decycle`] first); panics otherwise.
pub fn build_forest(g: &Ung, config: &ForestConfig) -> (Forest, ForestStats) {
    let order = reverse_topo(g); // children before parents
    let reach: std::collections::HashSet<UngNodeId> = order.iter().copied().collect();

    let mut stats = ForestStats {
        dag_nodes: order.len(),
        merge_nodes: 0,
        externalized: 0,
        cloned: 0,
        forest_nodes: 0,
    };

    // Pass 1 (bottom-up): decide Inline vs Shared per node and compute the
    // *emitted* subtree size of each node's representation (shared children
    // count as one reference node).
    let mut repr: HashMap<UngNodeId, Repr> = HashMap::new();
    let mut size: HashMap<UngNodeId, usize> = HashMap::new();
    for &u in &order {
        let mut s = 1usize;
        for &v in g.successors(u) {
            if !reach.contains(&v) {
                continue;
            }
            s += match repr[&v] {
                Repr::Inline => size[&v],
                Repr::Shared => 1, // a reference node
            };
        }
        let indeg = g.predecessors(u).iter().filter(|p| reach.contains(p)).count();
        let r = if u != g.root() && indeg > 1 {
            stats.merge_nodes += 1;
            let clone_cost = (indeg - 1).saturating_mul(s);
            if clone_cost > config.externalize_threshold {
                stats.externalized += 1;
                Repr::Shared
            } else {
                stats.cloned += 1;
                Repr::Inline
            }
        } else {
            Repr::Inline
        };
        repr.insert(u, r);
        size.insert(u, s);
    }

    // Pass 2: materialize. Shared subtrees are emitted once; inline nodes
    // are emitted per occurrence (cloning).
    let mut forest = Forest::default();
    let mut shared_root_of: HashMap<UngNodeId, usize> = HashMap::new();
    let mut pending_refs: Vec<(usize, UngNodeId)> = Vec::new(); // (ref node id, target DAG node)

    // Emit shared subtrees in reverse topological order so that any
    // references *between* shared subtrees point to already-emitted roots
    // ... except references can point forward; fix them up afterwards.
    #[allow(clippy::too_many_arguments)]
    fn emit(
        g: &Ung,
        u: UngNodeId,
        parent: Option<usize>,
        repr: &HashMap<UngNodeId, Repr>,
        reach: &std::collections::HashSet<UngNodeId>,
        forest: &mut Forest,
        pending_refs: &mut Vec<(usize, UngNodeId)>,
        as_root: bool,
    ) -> usize {
        let n = g.node(u);
        let id = forest.nodes.len();
        let kind = if u == g.root() { TopoKind::Root } else { TopoKind::Control };
        forest.nodes.push(TopoNode {
            id,
            kind,
            control: n.control.clone(),
            key: ControlKey::of_id(&n.control),
            name: n.name.clone(),
            control_type: n.control_type,
            help_text: n.help_text.clone(),
            children: Vec::new(),
            parent,
        });
        if let Some(p) = parent {
            forest.nodes[p].children.push(id);
        }
        let _ = as_root;
        for &v in g.successors(u) {
            if !reach.contains(&v) {
                continue;
            }
            match repr[&v] {
                Repr::Inline => {
                    emit(g, v, Some(id), repr, reach, forest, pending_refs, false);
                }
                Repr::Shared => {
                    // Emit a reference node; target resolved in fix-up.
                    let rid = forest.nodes.len();
                    let tn = g.node(v);
                    forest.nodes.push(TopoNode {
                        id: rid,
                        kind: TopoKind::Reference { subtree_root: usize::MAX },
                        control: tn.control.clone(),
                        key: ControlKey::of_id(&tn.control),
                        name: format!("→{}", tn.name),
                        control_type: tn.control_type,
                        help_text: String::new(),
                        children: Vec::new(),
                        parent: Some(id),
                    });
                    forest.nodes[id].children.push(rid);
                    pending_refs.push((rid, v));
                }
            }
        }
        id
    }

    // Main tree.
    forest.main_root = emit(g, g.root(), None, &repr, &reach, &mut forest, &mut pending_refs, true);

    // Shared subtrees: every node marked Shared gets one body.
    let shared_nodes: Vec<UngNodeId> = order
        .iter()
        .rev() // top-down order for stable ids
        .copied()
        .filter(|u| matches!(repr[u], Repr::Shared))
        .collect();
    for u in shared_nodes {
        let root_id = emit(g, u, None, &repr, &reach, &mut forest, &mut pending_refs, true);
        forest.shared_roots.push(root_id);
        shared_root_of.insert(u, root_id);
    }

    // Fix up references and the entry map.
    for (rid, target) in pending_refs {
        let root = shared_root_of[&target];
        forest.nodes[rid].kind = TopoKind::Reference { subtree_root: root };
        forest.entry_map.insert(rid, root);
    }

    stats.forest_nodes = forest.nodes.len();
    (forest, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ung_from_parts;
    use crate::topology::decycle::decycle;
    use dmi_uia::ControlType as CT;

    /// Diamond with a big payload under the merge node.
    fn diamond(payload: usize) -> Ung {
        // 0:A 1:B 2:C 3:M then payload children of M.
        let mut names: Vec<(String, CT)> = vec![
            ("A".into(), CT::TabItem),
            ("B".into(), CT::Button),
            ("C".into(), CT::Button),
            ("M".into(), CT::Window),
        ];
        for i in 0..payload {
            names.push((format!("P{i}"), CT::Button));
        }
        let named: Vec<(&str, CT)> = names.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        let mut edges = vec![(0, 1), (0, 2), (1, 3), (2, 3)];
        for i in 0..payload {
            edges.push((3, 4 + i));
        }
        let mut g = ung_from_parts(&named, &edges);
        decycle(&mut g);
        g
    }

    #[test]
    fn small_merge_is_cloned() {
        let g = diamond(2);
        // clone_cost = (2-1)*3 = 3 <= threshold 12 -> cloned.
        let (forest, stats) = build_forest(&g, &ForestConfig::default());
        assert_eq!(stats.merge_nodes, 1);
        assert_eq!(stats.cloned, 1);
        assert_eq!(stats.externalized, 0);
        assert!(forest.shared_roots.is_empty());
        // M appears twice (once under B, once under C).
        let ms = forest.nodes.iter().filter(|n| n.name == "M").count();
        assert_eq!(ms, 2);
        assert!(forest.verify_unique_paths());
    }

    #[test]
    fn large_merge_is_externalized() {
        let g = diamond(30);
        let (forest, stats) = build_forest(&g, &ForestConfig::default());
        assert_eq!(stats.externalized, 1);
        assert_eq!(forest.shared_roots.len(), 1);
        // M body appears once; two reference nodes point at it.
        let ms = forest
            .nodes
            .iter()
            .filter(|n| n.name == "M" && matches!(n.kind, TopoKind::Control))
            .count();
        assert_eq!(ms, 1);
        let root = forest.shared_roots[0];
        assert_eq!(forest.references_to(root).len(), 2);
        assert!(forest.verify_unique_paths());
    }

    #[test]
    fn threshold_max_forces_full_tree() {
        let g = diamond(30);
        let cfg = ForestConfig { externalize_threshold: usize::MAX };
        let (forest, stats) = build_forest(&g, &cfg);
        assert_eq!(stats.externalized, 0);
        assert!(forest.shared_roots.is_empty());
        // Full cloning: the 31-node payload subtree is duplicated.
        assert!(stats.forest_nodes > stats.dag_nodes + 25);
        assert!(forest.verify_unique_paths());
    }

    #[test]
    fn threshold_zero_externalizes_everything() {
        let g = diamond(2);
        let cfg = ForestConfig { externalize_threshold: 0 };
        let (forest, stats) = build_forest(&g, &cfg);
        assert_eq!(stats.externalized, 1);
        assert_eq!(forest.shared_roots.len(), 1);
        assert!(forest.verify_unique_paths());
    }

    #[test]
    fn diamond_chain_blows_up_without_externalization() {
        // k chained diamonds: cloning doubles per stage; forest stays linear.
        let k = 8;
        let mut names: Vec<(String, CT)> = vec![("S".into(), CT::Button)];
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut prev = 0usize;
        for i in 0..k {
            let b = names.len();
            names.push((format!("L{i}"), CT::Button));
            names.push((format!("R{i}"), CT::Button));
            names.push((format!("J{i}"), CT::Button));
            edges.push((prev, b));
            edges.push((prev, b + 1));
            edges.push((b, b + 2));
            edges.push((b + 1, b + 2));
            prev = b + 2;
        }
        let named: Vec<(&str, CT)> = names.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        let mut g = ung_from_parts(&named, &edges);
        decycle(&mut g);

        let (_tree, tree_stats) =
            build_forest(&g, &ForestConfig { externalize_threshold: usize::MAX });
        let (_forest, forest_stats) = build_forest(&g, &ForestConfig { externalize_threshold: 4 });
        assert!(
            tree_stats.forest_nodes > 2usize.pow(k as u32),
            "cloning should explode: {} nodes",
            tree_stats.forest_nodes
        );
        assert!(
            forest_stats.forest_nodes < 8 * forest_stats.dag_nodes,
            "forest should stay near-linear: {} nodes for {} dag nodes",
            forest_stats.forest_nodes,
            forest_stats.dag_nodes
        );
    }

    #[test]
    fn path_to_is_unique_and_root_first() {
        let g = diamond(30);
        let (forest, _) = build_forest(&g, &ForestConfig::default());
        let p0 = forest
            .nodes
            .iter()
            .find(|n| n.name == "P0" && matches!(n.kind, TopoKind::Control))
            .unwrap();
        let path = forest.path_to(p0.id);
        assert_eq!(*path.last().unwrap(), p0.id);
        // Path starts at the shared-subtree root (M).
        let root = forest.root_of(p0.id);
        assert_eq!(path[0], root);
        assert_eq!(forest.in_shared_subtree(p0.id), Some(root));
    }

    #[test]
    fn ids_are_consecutive() {
        let g = diamond(5);
        let (forest, _) = build_forest(&g, &ForestConfig::default());
        for (i, n) in forest.nodes.iter().enumerate() {
            assert_eq!(i, n.id);
        }
    }

    #[test]
    fn functional_leaf_classification() {
        let g = diamond(30);
        let (forest, _) = build_forest(&g, &ForestConfig::default());
        let p0 = forest.nodes.iter().find(|n| n.name == "P0").unwrap();
        assert!(forest.is_functional_leaf(p0.id));
        let m = forest
            .nodes
            .iter()
            .find(|n| n.name == "M" && matches!(n.kind, TopoKind::Control))
            .unwrap();
        assert!(!forest.is_functional_leaf(m.id));
        // Reference nodes are not functional leaves.
        let r = forest.nodes.iter().find(|n| matches!(n.kind, TopoKind::Reference { .. })).unwrap();
        assert!(!forest.is_functional_leaf(r.id));
    }
}
