//! The snapshot-resident control-identity index (§4.1, §3.4).
//!
//! Both the offline ripper and the online `visit` executor resolve
//! synthesized `primary|type|ancestor_path` identifiers ([`ControlId`])
//! against freshly captured snapshots. Doing that naively is quadratic in
//! practice: every [`ControlId::of`] re-walks and re-joins the ancestor
//! chain, every resolve is an O(n) scan that recomputes those paths per
//! candidate, and the ripper's differential capture materializes encoded
//! string sets for two snapshots per click.
//!
//! [`SnapIndex`] computes control identity **once per snapshot** in a
//! single O(n) arena pass:
//!
//! - the ancestor path of each node (shared via `Arc<str>` — all siblings
//!   point at one allocation),
//! - a 64-bit [`ControlKey`] fingerprint per node.
//!
//! One keyed table, a `ControlKey -> arena indices` multimap, is derived
//! **lazily** from the key column, because a freshly captured snapshot
//! often serves exactly one query before being dropped (each replay step
//! in the ripper captures its own snapshot). It is built on first *batch*
//! probing ([`SnapIndex::key_multimap`]) — the ripper's differential
//! capture probes it once per post-click node. Cold single probes
//! ([`SnapIndex::resolve`]) instead scan the key column: a branch-free
//! `u64` comparison per node, with no per-snapshot allocation.
//!
//! # Hash + confirm
//!
//! Keys are 64-bit digests, so distinct identifiers may collide. Every
//! keyed lookup therefore confirms candidates against the full identifier
//! components before returning them ([`SnapIndex::resolve`] compares
//! primary id, control type, and cached path). A collision costs one extra
//! string comparison; it can never return the wrong control. This is why
//! the table can use pass-through hashing ([`KeyMap`]) safely.
//!
//! # Why not index-based addressing?
//!
//! The paper deliberately avoids identifying controls by tree position
//! (child index): dynamic menus shift indices unpredictably between
//! snapshots (§4.1). The index accelerates *name-path* identity — it does
//! not change what identity means, so ripped UNGs and resolution results
//! are byte-identical to the string-keyed implementation.
//!
//! The index is built lazily on first use (snapshots are immutable once
//! built; any later mutation through `&mut` accessors invalidates it) and
//! is never serialized.

use crate::ident::{ControlKey, KeyMap};
use crate::{ControlId, Snapshot};
use std::sync::{Arc, OnceLock};

/// A multimap bucket: almost always a single index, so the single case is
/// stored inline (no heap allocation per distinct key).
#[derive(Debug, Clone)]
pub enum Bucket {
    /// A single arena index (the common case), stored inline.
    One(u32),
    /// Two or more arena indices, in arena order.
    Many(Vec<u32>),
}

impl Bucket {
    fn push(&mut self, idx: u32) {
        match self {
            Bucket::One(first) => *self = Bucket::Many(vec![*first, idx]),
            Bucket::Many(v) => v.push(idx),
        }
    }

    /// Indices in arena order.
    pub fn as_slice(&self) -> &[u32] {
        match self {
            Bucket::One(first) => std::slice::from_ref(first),
            Bucket::Many(v) => v,
        }
    }
}

/// Candidate arena indices for one [`ControlKey`], in arena order.
///
/// Candidates, not answers: the fingerprint may collide, so callers must
/// confirm identity (e.g. via [`SnapIndex::matches`]).
pub enum Candidates<'a> {
    /// Backed by the built multimap.
    Indexed(std::slice::Iter<'a, u32>),
    /// Cold path: scanning the key column.
    Scan {
        /// Remaining keys to scan.
        keys: &'a [ControlKey],
        /// Key being searched.
        key: ControlKey,
        /// Next position to examine.
        pos: usize,
    },
}

impl Iterator for Candidates<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            Candidates::Indexed(it) => it.next().map(|&i| i as usize),
            Candidates::Scan { keys, key, pos } => {
                while *pos < keys.len() {
                    let i = *pos;
                    *pos += 1;
                    if keys[i] == *key {
                        return Some(i);
                    }
                }
                None
            }
        }
    }
}

/// Per-snapshot identity index. Core columns are built in one O(n) pass by
/// [`SnapIndex::build`]; the key multimap derives lazily from them.
#[derive(Debug, Default, Clone)]
pub struct SnapIndex {
    /// Ancestor path per node; siblings share one `Arc`.
    paths: Vec<Arc<str>>,
    /// Identity fingerprint per node.
    keys: Vec<ControlKey>,
    /// Fingerprint -> arena indices; built on first batch probe.
    by_key: OnceLock<KeyMap<ControlKey, Bucket>>,
}

impl SnapIndex {
    /// Builds the core identity columns in one pass over the arena.
    ///
    /// Relies on the arena invariant that parents precede children
    /// (guaranteed by [`Snapshot::push`]).
    pub fn build(snap: &Snapshot) -> SnapIndex {
        let n = snap.len();
        let mut paths: Vec<Arc<str>> = Vec::with_capacity(n);
        let mut keys: Vec<ControlKey> = Vec::with_capacity(n);
        // The path each node's *children* inherit, built at most once per
        // parent and shared by all of its children.
        let mut child_paths: Vec<Option<Arc<str>>> = vec![None; n];
        let empty: Arc<str> = Arc::from("");

        for (idx, node) in snap.iter() {
            let path = match node.parent {
                None => empty.clone(),
                Some(p) => {
                    debug_assert!(p < idx, "arena parents precede children");
                    child_paths[p]
                        .get_or_insert_with(|| {
                            let pp: &str = &paths[p];
                            let pname = display_name(&snap.node(p).props.name);
                            if pp.is_empty() {
                                Arc::from(pname)
                            } else {
                                let mut s = String::with_capacity(pp.len() + 1 + pname.len());
                                s.push_str(pp);
                                s.push('/');
                                s.push_str(pname);
                                Arc::from(s.as_str())
                            }
                        })
                        .clone()
                }
            };
            keys.push(ControlKey::of_parts(
                node.props.primary_id(),
                node.props.control_type,
                &path,
            ));
            paths.push(path);
        }

        SnapIndex { paths, keys, by_key: OnceLock::new() }
    }

    /// The cached ancestor path of a node (root-first, slash-delimited).
    pub fn path(&self, idx: usize) -> &str {
        &self.paths[idx]
    }

    /// The identity fingerprint of a node.
    pub fn key(&self, idx: usize) -> ControlKey {
        self.keys[idx]
    }

    /// The `ControlKey -> arena indices` multimap, built on first use.
    ///
    /// Call this before a batch of keyed probes (e.g. the ripper probes
    /// once per post-click node); one O(n) build amortizes across them.
    /// Isolated probes are cheaper through [`SnapIndex::candidates`]'s
    /// scan path.
    pub fn key_multimap(&self) -> &KeyMap<ControlKey, Bucket> {
        self.by_key.get_or_init(|| {
            let mut map: KeyMap<ControlKey, Bucket> = KeyMap::default();
            map.reserve(self.keys.len());
            for (i, &k) in self.keys.iter().enumerate() {
                map.entry(k).and_modify(|b| b.push(i as u32)).or_insert(Bucket::One(i as u32));
            }
            map
        })
    }

    /// Arena indices whose fingerprint equals `key`, in arena order: O(1)
    /// through the multimap when built, otherwise a branch-free scan of
    /// the key column (no allocation — right for one-off probes).
    pub fn candidates(&self, key: ControlKey) -> Candidates<'_> {
        match self.by_key.get() {
            Some(map) => {
                Candidates::Indexed(map.get(&key).map(Bucket::as_slice).unwrap_or(&[]).iter())
            }
            None => Candidates::Scan { keys: &self.keys, key, pos: 0 },
        }
    }

    /// Whether the node at `idx` matches the identifier exactly
    /// (component-wise; uses the cached path, no allocation).
    pub fn matches(&self, snap: &Snapshot, idx: usize, id: &ControlId) -> bool {
        let props = &snap.node(idx).props;
        props.control_type == id.control_type
            && props.primary_id() == id.primary
            && *self.paths[idx] == *id.ancestor_path
    }

    /// Resolves an identifier to the first exactly matching arena index
    /// (arena order, matching the old linear scan's tie-break).
    pub fn resolve(&self, snap: &Snapshot, id: &ControlId) -> Option<usize> {
        let key = ControlKey::of_id(id);
        self.candidates(key).find(|&i| self.matches(snap, i, id))
    }

    /// Synthesizes the full identifier for a node from cached parts.
    pub fn control_id(&self, snap: &Snapshot, idx: usize) -> ControlId {
        let props = &snap.node(idx).props;
        ControlId {
            primary: props.primary_id().to_string(),
            control_type: props.control_type,
            ancestor_path: self.paths[idx].to_string(),
        }
    }
}

/// The name a node contributes to its descendants' ancestor paths.
fn display_name(name: &str) -> &str {
    if name.is_empty() {
        "[Unnamed]"
    } else {
        name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ControlProps, ControlType};

    fn sample() -> Snapshot {
        let mut s = Snapshot::new();
        let w = s.push(ControlProps::new("Main", ControlType::Window), None, 0);
        s.push_window_root(w);
        let tab = s.push(ControlProps::new("Home", ControlType::TabItem), Some(w), 0);
        let grp = s.push(ControlProps::new("", ControlType::Group), Some(tab), 0);
        s.push(ControlProps::new("Bold", ControlType::Button), Some(grp), 0);
        s.push(ControlProps::new("Italic", ControlType::Button), Some(grp), 0);
        s
    }

    /// The ancestor path computed without the index: walk parents, join
    /// names.
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

    #[test]
    fn paths_match_walked_ancestor_paths() {
        let s = sample();
        let ix = SnapIndex::build(&s);
        for (i, _) in s.iter() {
            assert_eq!(ix.path(i), walked_path(&s, i), "node {i}");
        }
        // Unnamed ancestors appear as [Unnamed], exactly like the walk.
        assert_eq!(ix.path(3), "Main/Home/[Unnamed]");
    }

    #[test]
    fn sibling_paths_share_one_allocation() {
        let s = sample();
        let ix = SnapIndex::build(&s);
        assert!(Arc::ptr_eq(&ix.paths[3], &ix.paths[4]));
    }

    #[test]
    fn resolve_round_trips_every_node() {
        let s = sample();
        let ix = SnapIndex::build(&s);
        for (i, _) in s.iter() {
            let id = ix.control_id(&s, i);
            // Cold (scan) path.
            assert_eq!(ix.resolve(&s, &id), Some(i));
        }
        // Warm (multimap) path agrees.
        ix.key_multimap();
        for (i, _) in s.iter() {
            let id = ix.control_id(&s, i);
            assert_eq!(ix.resolve(&s, &id), Some(i));
        }
    }

    #[test]
    fn duplicate_identities_resolve_to_first_in_arena_order() {
        let mut s = Snapshot::new();
        let w = s.push(ControlProps::new("W", ControlType::Window), None, 0);
        s.push_window_root(w);
        let a = s.push(ControlProps::new("OK", ControlType::Button), Some(w), 0);
        let b = s.push(ControlProps::new("OK", ControlType::Button), Some(w), 0);
        let ix = SnapIndex::build(&s);
        let id = ix.control_id(&s, a);
        assert_eq!(ix.resolve(&s, &id), Some(a));
        // Both duplicates surface as candidates, scan and indexed alike.
        assert_eq!(ix.candidates(ix.key(a)).collect::<Vec<_>>(), vec![a, b]);
        ix.key_multimap();
        assert_eq!(ix.candidates(ix.key(a)).collect::<Vec<_>>(), vec![a, b]);
        assert_eq!(ix.resolve(&s, &id), Some(a));
    }
}
