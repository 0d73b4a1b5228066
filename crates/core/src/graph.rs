//! The UI Navigation Graph (UNG), §3.2.
//!
//! `UNG = (V, E)`: nodes are UI controls exposed by the accessibility API,
//! directed edges capture click-induced reachability. Only control-to-
//! control transitions are modeled; keyboard shortcuts are not edges (their
//! effects are achievable via equivalent clicks).

use dmi_uia::{ControlId, ControlKey, ControlType, KeyMap};
use serde::{Deserialize, Serialize};

/// Index of a node in the UNG.
pub type UngNodeId = usize;

/// One control in the navigation graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UngNode {
    /// Synthesized control identifier (§4.1).
    pub control: ControlId,
    /// Display name at modeling time.
    pub name: String,
    /// Control type.
    pub control_type: ControlType,
    /// Full description (UIA help text), often empty.
    pub help_text: String,
}

/// The borrowed decomposition [`Ung::raw_parts`] hands to an external
/// codec: `(nodes, succ, pred, root, edge_count)`.
pub type UngRawParts<'a> =
    (&'a [UngNode], &'a [Vec<UngNodeId>], &'a [Vec<UngNodeId>], UngNodeId, usize);

/// The UI Navigation Graph.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Ung {
    nodes: Vec<UngNode>,
    /// Adjacency: out-edges per node, insertion-ordered, deduplicated.
    succ: Vec<Vec<UngNodeId>>,
    /// Reverse adjacency.
    pred: Vec<Vec<UngNodeId>>,
    /// Root node (virtual).
    root: UngNodeId,
    /// Dedup index: [`ControlKey`] fingerprint -> nodes with that key.
    /// Buckets are confirmed against the full [`ControlId`] on lookup
    /// (hash+confirm, §4.1), so collisions cost a comparison, never a
    /// wrong dedup. Rebuilt after deserialization.
    #[serde(skip)]
    index: KeyMap<ControlKey, Vec<UngNodeId>>,
    edge_count: usize,
}

impl Ung {
    /// Creates a graph containing only the virtual root.
    pub fn new() -> Self {
        let mut g = Ung {
            nodes: Vec::new(),
            succ: Vec::new(),
            pred: Vec::new(),
            root: 0,
            index: KeyMap::default(),
            edge_count: 0,
        };
        let root_id = ControlId {
            primary: "<root>".into(),
            control_type: ControlType::Window,
            ancestor_path: String::new(),
        };
        g.add_node(UngNode {
            control: root_id,
            name: "<root>".into(),
            control_type: ControlType::Window,
            help_text: String::new(),
        });
        g
    }

    fn insert(&mut self, node: UngNode, key: ControlKey) -> UngNodeId {
        let bucket = self.index.entry(key).or_default();
        if let Some(&id) = bucket.iter().find(|&&id| self.nodes[id].control == node.control) {
            return id;
        }
        let id = self.nodes.len();
        bucket.push(id);
        self.nodes.push(node);
        self.succ.push(Vec::new());
        self.pred.push(Vec::new());
        id
    }

    /// Adds (or finds) a node for a control; returns its id.
    pub fn add_node(&mut self, node: UngNode) -> UngNodeId {
        let key = ControlKey::of_id(&node.control);
        self.insert(node, key)
    }

    /// Like [`Ung::add_node`] with the control's fingerprint already in
    /// hand (snapshot indexes carry it), skipping the re-hash.
    pub fn add_node_with_key(&mut self, node: UngNode, key: ControlKey) -> UngNodeId {
        debug_assert_eq!(key, ControlKey::of_id(&node.control));
        self.insert(node, key)
    }

    /// Adds a deduplicated directed edge; returns true if new.
    pub fn add_edge(&mut self, u: UngNodeId, v: UngNodeId) -> bool {
        if u == v || self.succ[u].contains(&v) {
            return false;
        }
        self.succ[u].push(v);
        self.pred[v].push(u);
        self.edge_count += 1;
        true
    }

    /// The virtual root id.
    pub fn root(&self) -> UngNodeId {
        self.root
    }

    /// Number of nodes, including the virtual root.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Borrows a node.
    pub fn node(&self, id: UngNodeId) -> &UngNode {
        &self.nodes[id]
    }

    /// Successors of a node.
    pub fn successors(&self, id: UngNodeId) -> &[UngNodeId] {
        &self.succ[id]
    }

    /// Predecessors of a node.
    pub fn predecessors(&self, id: UngNodeId) -> &[UngNodeId] {
        &self.pred[id]
    }

    /// Looks up a node by control id (O(1) keyed, collision-confirmed).
    pub fn find(&self, control: &ControlId) -> Option<UngNodeId> {
        self.find_with_key(control, ControlKey::of_id(control))
    }

    /// Like [`Ung::find`] with the fingerprint already in hand.
    pub fn find_with_key(&self, control: &ControlId, key: ControlKey) -> Option<UngNodeId> {
        self.index.get(&key)?.iter().find(|&&id| self.nodes[id].control == *control).copied()
    }

    /// Iterates over all node ids.
    pub fn ids(&self) -> impl Iterator<Item = UngNodeId> {
        0..self.nodes.len()
    }

    /// Nodes reachable from the root (the graph may contain stragglers if
    /// modeling was interrupted).
    pub fn reachable(&self) -> Vec<UngNodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![self.root];
        seen[self.root] = true;
        let mut out = Vec::new();
        while let Some(u) = stack.pop() {
            out.push(u);
            for &v in &self.succ[u] {
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        out
    }

    /// Merge-node ids: reachable nodes with more than one predecessor.
    pub fn merge_nodes(&self) -> Vec<UngNodeId> {
        self.reachable().into_iter().filter(|&v| self.pred[v].len() > 1).collect()
    }

    /// Rebuilds the dedup index (needed after deserialization).
    pub fn rebuild_index(&mut self) {
        self.index = KeyMap::default();
        self.index.reserve(self.nodes.len());
        for (i, n) in self.nodes.iter().enumerate() {
            self.index.entry(ControlKey::of_id(&n.control)).or_default().push(i);
        }
    }

    /// Decomposes the graph into its serializable parts for an external
    /// codec: `(nodes, succ, pred, root, edge_count)`. The adjacency lists
    /// must travel as-is — their per-list order is insertion order, which
    /// downstream serializations (and therefore the byte-identity oracles)
    /// observe; an edge-replay reconstruction would reorder `pred`.
    pub fn raw_parts(&self) -> UngRawParts<'_> {
        (&self.nodes, &self.succ, &self.pred, self.root, self.edge_count)
    }

    /// Reassembles a graph from [`Ung::raw_parts`]-shaped data, validating
    /// structural invariants (parallel lengths, in-range ids, `succ`/`pred`
    /// symmetry, edge count) and rebuilding the dedup index. Returns a
    /// description of the violated invariant on malformed input so codec
    /// callers can surface a typed error instead of panicking later.
    pub fn from_raw_parts(
        nodes: Vec<UngNode>,
        succ: Vec<Vec<UngNodeId>>,
        pred: Vec<Vec<UngNodeId>>,
        root: UngNodeId,
        edge_count: usize,
    ) -> Result<Ung, String> {
        let n = nodes.len();
        if succ.len() != n || pred.len() != n {
            return Err(format!(
                "adjacency shape mismatch: {n} nodes, {} succ rows, {} pred rows",
                succ.len(),
                pred.len()
            ));
        }
        if root >= n {
            return Err(format!("root {root} out of range for {n} nodes"));
        }
        let mut edges = 0usize;
        for (u, outs) in succ.iter().enumerate() {
            for &v in outs {
                if v >= n {
                    return Err(format!("edge {u}->{v} out of range for {n} nodes"));
                }
                if !pred[v].contains(&u) {
                    return Err(format!("edge {u}->{v} missing from pred[{v}]"));
                }
                edges += 1;
            }
        }
        if pred.iter().map(Vec::len).sum::<usize>() != edges {
            return Err("pred holds edges absent from succ".into());
        }
        if edges != edge_count {
            return Err(format!("edge count {edge_count} disagrees with adjacency ({edges})"));
        }
        let mut g = Ung { nodes, succ, pred, root, index: KeyMap::default(), edge_count };
        g.rebuild_index();
        Ok(g)
    }

    /// Removes the given edges (used by decycling).
    pub fn remove_edges(&mut self, edges: &[(UngNodeId, UngNodeId)]) {
        for &(u, v) in edges {
            if let Some(p) = self.succ[u].iter().position(|&x| x == v) {
                self.succ[u].remove(p);
                if let Some(q) = self.pred[v].iter().position(|&x| x == u) {
                    self.pred[v].remove(q);
                }
                self.edge_count -= 1;
            }
        }
    }
}

/// Convenience constructor for tests and benchmarks: builds a UNG from
/// `(name, type)` nodes and index edges. Node 0 is attached beneath the
/// virtual root automatically when it has no other predecessor.
pub fn ung_from_parts(nodes: &[(&str, ControlType)], edges: &[(usize, usize)]) -> Ung {
    let mut g = Ung::new();
    let ids: Vec<UngNodeId> = nodes
        .iter()
        .enumerate()
        .map(|(i, (name, ct))| {
            g.add_node(UngNode {
                control: ControlId {
                    primary: format!("{name}#{i}"),
                    control_type: *ct,
                    ancestor_path: String::new(),
                },
                name: (*name).to_string(),
                control_type: *ct,
                help_text: String::new(),
            })
        })
        .collect();
    for &(u, v) in edges {
        g.add_edge(ids[u], ids[v]);
    }
    // Node 0 is always the entry point; nodes without predecessors are
    // also attached so everything is reachable from the virtual root.
    let r = g.root();
    if let Some(&first) = ids.first() {
        g.add_edge(r, first);
    }
    for &id in &ids[1.min(ids.len())..] {
        if g.predecessors(id).is_empty() {
            g.add_edge(r, id);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmi_uia::ControlType as CT;

    #[test]
    fn nodes_dedup_by_control_id() {
        let mut g = Ung::new();
        let id = ControlId {
            primary: "Bold".into(),
            control_type: CT::Button,
            ancestor_path: "W/Home".into(),
        };
        let n = UngNode {
            control: id.clone(),
            name: "Bold".into(),
            control_type: CT::Button,
            help_text: String::new(),
        };
        let a = g.add_node(n.clone());
        let b = g.add_node(n);
        assert_eq!(a, b);
        assert_eq!(g.node_count(), 2); // root + Bold
        assert_eq!(g.find(&id), Some(a));
    }

    #[test]
    fn edges_dedup_and_no_self_loops() {
        let mut g = ung_from_parts(&[("A", CT::Button), ("B", CT::Button)], &[(0, 1), (0, 1)]);
        assert_eq!(g.edge_count(), 2); // root->A, A->B
        let a = 1;
        assert!(!g.add_edge(a, a));
    }

    #[test]
    fn merge_nodes_detected() {
        // A -> C, B -> C; root -> A, root -> B.
        let mut g = ung_from_parts(
            &[("A", CT::Button), ("B", CT::Button), ("C", CT::Button)],
            &[(0, 2), (1, 2)],
        );
        let r = g.root();
        g.add_edge(r, 2); // B (index base shifts by root) — attach B under root too.
        let merges = g.merge_nodes();
        assert_eq!(merges.len(), 1);
        assert_eq!(g.node(merges[0]).name, "C");
    }

    #[test]
    fn reachable_ignores_orphans() {
        let mut g = Ung::new();
        g.add_node(UngNode {
            control: ControlId {
                primary: "Orphan".into(),
                control_type: CT::Button,
                ancestor_path: String::new(),
            },
            name: "Orphan".into(),
            control_type: CT::Button,
            help_text: String::new(),
        });
        assert_eq!(g.reachable().len(), 1); // root only
    }

    #[test]
    fn remove_edges_updates_counts() {
        let mut g = ung_from_parts(&[("A", CT::Button), ("B", CT::Button)], &[(0, 1)]);
        let before = g.edge_count();
        g.remove_edges(&[(1, 2)]);
        assert_eq!(g.edge_count(), before - 1);
        assert!(g.successors(1).is_empty());
    }

    #[test]
    fn serde_round_trip_with_index_rebuild() {
        let g = ung_from_parts(&[("A", CT::Button), ("B", CT::MenuItem)], &[(0, 1)]);
        let json = serde_json::to_string(&g).unwrap();
        let mut g2: Ung = serde_json::from_str(&json).unwrap();
        g2.rebuild_index();
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.find(&g.node(1).control), Some(1));
    }

    #[test]
    fn serde_round_trip_restores_adjacency_and_dedup_exactly() {
        // A graph with a merge node (two predecessors) and a cycle, so
        // both adjacency directions carry real structure.
        let mut g = ung_from_parts(
            &[("A", CT::Button), ("B", CT::Button), ("C", CT::Button)],
            &[(0, 2), (1, 2), (2, 0)],
        );
        let r = g.root();
        g.add_edge(r, 2);
        let json = serde_json::to_string(&g).unwrap();
        let mut g2: Ung = serde_json::from_str(&json).unwrap();
        g2.rebuild_index();
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        for id in g.ids() {
            assert_eq!(g2.node(id), g.node(id), "node {id}");
            assert_eq!(g2.successors(id), g.successors(id), "succ of {id}");
            assert_eq!(g2.predecessors(id), g.predecessors(id), "pred of {id}");
            // The rebuilt dedup index resolves every stored control.
            assert_eq!(g2.find(&g.node(id).control), Some(id), "find {id}");
        }
        assert_eq!(g2.merge_nodes(), g.merge_nodes());
        // Dedup still works against rebuilt state: re-adding an existing
        // control returns its id, a new control gets a fresh one.
        let existing = g.node(1).control.clone();
        let n = g2.node_count();
        assert_eq!(
            g2.add_node(UngNode {
                control: existing,
                name: "A".into(),
                control_type: CT::Button,
                help_text: String::new(),
            }),
            1
        );
        assert_eq!(g2.node_count(), n, "re-add must dedup, not grow");
    }

    #[test]
    fn from_raw_parts_round_trips_and_rejects_an_empty_graph() {
        let g = ung_from_parts(&[("A", CT::Button), ("B", CT::Button)], &[(0, 1)]);
        let (nodes, succ, pred, root, edges) = g.raw_parts();
        let back =
            Ung::from_raw_parts(nodes.to_vec(), succ.to_vec(), pred.to_vec(), root, edges).unwrap();
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        // Every graph holds at least its virtual root; zero nodes with
        // root 0 would index out of bounds downstream.
        let err = Ung::from_raw_parts(Vec::new(), Vec::new(), Vec::new(), 0, 0).unwrap_err();
        assert!(err.contains("root 0 out of range for 0 nodes"), "{err}");
    }

    #[test]
    fn merge_dedup_confirms_on_forced_key_collision() {
        // Two distinct controls deliberately filed under one fingerprint:
        // the hash+confirm dedup the UNG merge relies on must keep
        // them apart (a collision costs a comparison, never a wrong
        // merge) while still deduplicating true re-insertions.
        let shared = ControlKey::of_parts("Bold", CT::Button, "W/Home/Font");
        let mk = |primary: &str| UngNode {
            control: ControlId {
                primary: primary.into(),
                control_type: CT::Button,
                ancestor_path: "W/Home/Font".into(),
            },
            name: primary.into(),
            control_type: CT::Button,
            help_text: String::new(),
        };
        let mut g = Ung::new();
        let a = g.insert(mk("Bold"), shared);
        let b = g.insert(mk("Italic"), shared);
        assert_ne!(a, b, "colliding keys must not conflate distinct controls");
        assert_eq!(g.insert(mk("Bold"), shared), a, "true duplicate dedups");
        assert_eq!(g.insert(mk("Italic"), shared), b);
        assert_eq!(g.node_count(), 3); // root + Bold + Italic
        assert_eq!(g.find_with_key(&mk("Bold").control, shared), Some(a));
        assert_eq!(g.find_with_key(&mk("Italic").control, shared), Some(b));
    }
}
