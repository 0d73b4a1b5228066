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
//! - the ancestor path of each node, as an entry in a table of the
//!   snapshot's distinct paths (all siblings share one `Arc<str>` entry),
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
//! built; any later mutation through `&mut` accessors invalidates it).
//!
//! # Columns shared per block identity
//!
//! A provider that builds snapshots incrementally records each block it
//! emits — a contiguous subtree range — with a [`Lineage`], an identity
//! token that two blocks share only when their nodes carry equal control
//! types, primary ids and ancestor names (see [`Snapshot::record_block`]).
//! A block's paths and keys then depend only on its lineage and its *root
//! path*, the ancestor path of the block's root. The lineage lazily holds
//! the columns of the first index built over one of its blocks, with the
//! root path they were computed under; [`SnapIndex::build`] copies them
//! for every later block of that lineage under an equal root path and
//! computes only the other nodes. A copy costs a `u32` and a `u64` per
//! node and one `Arc` clone per distinct path in the block. The result
//! equals a from-scratch build whenever the provider keeps the lineage
//! promise; a snapshot with no recorded blocks is computed whole.
//!
//! The same promise carries one more column a client defines: per-node
//! `u32` terms of the promised fields, filled once per lineage by a rule
//! the client passes in ([`Lineage::node_terms`]; the prompt token counts
//! of `dmi-core` keep each line's name and type tokens there).

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

/// The identity lineage of a snapshot block (see "Columns shared per
/// block identity" in the module docs): a token that blocks share only
/// when their nodes carry equal control types, primary ids and names in
/// order. It holds, each filled by the first block that needs it, the
/// identity columns of the first index built over one of its blocks and
/// the per-node terms a caller derives from those promised fields
/// ([`Lineage::node_terms`]). Cloning shares the lineage;
/// [`Lineage::default`] mints a fresh one.
#[derive(Debug, Clone, Default)]
pub struct Lineage(Arc<LineageMemo>);

/// What one lineage holds for all of its blocks, in one allocation.
#[derive(Debug, Default)]
struct LineageMemo {
    columns: OnceLock<BlockColumns>,
    terms: OnceLock<Box<[u32]>>,
}

/// The identity columns of one lineage's blocks, with their paths in a
/// block-local table whose entry 0 is the root path they were computed
/// under (the block root's own path).
#[derive(Debug)]
struct BlockColumns {
    table: Box<[Arc<str>]>,
    path_ix: Box<[u32]>,
    keys: Box<[ControlKey]>,
}

impl Lineage {
    /// Whether `self` and `other` are the same lineage (pointer equality).
    pub fn same(&self, other: &Lineage) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// The held columns of a `len`-node block whose root path is
    /// `root_path`, if they were computed under that root path.
    fn columns(&self, root_path: &str, len: usize) -> Option<&BlockColumns> {
        self.0.columns.get().filter(|c| c.keys.len() == len && *c.table[0] == *root_path)
    }

    /// The per-node terms of a `len`-node block of this lineage: the held
    /// ones, or else `compute`'s for this block, which the lineage keeps
    /// for every later block. A term may depend only on what the lineage
    /// promises equal — a node's control type, primary id and name — so
    /// every caller passes one rule. `None` when the held terms cover
    /// another length, as [`SnapIndex::build`] refuses columns: the
    /// caller computes the block itself.
    pub fn node_terms(&self, len: usize, compute: impl FnOnce() -> Vec<u32>) -> Option<&[u32]> {
        let terms = self.0.terms.get_or_init(|| compute().into_boxed_slice());
        (terms.len() == len).then_some(&**terms)
    }
}

/// Marks a node whose children's path has no table entry yet.
const NO_ENTRY: u32 = u32::MAX;

/// Per-snapshot identity index. Core columns are built in one O(n) pass by
/// [`SnapIndex::build`]; the key multimap derives lazily from them.
#[derive(Debug, Default, Clone)]
pub struct SnapIndex {
    /// The distinct ancestor paths; entry 0 is the roots' empty path.
    table: Vec<Arc<str>>,
    /// Per node: its ancestor path's entry in `table`.
    path_ix: Vec<u32>,
    /// Identity fingerprint per node.
    keys: Vec<ControlKey>,
    /// Fingerprint -> arena indices; built on first batch probe.
    by_key: OnceLock<KeyMap<ControlKey, Bucket>>,
}

impl SnapIndex {
    /// Builds the core identity columns in one pass over the arena,
    /// copying the columns of each recorded block whose lineage holds them
    /// under the block's root path, and leaving its own computed columns
    /// with every lineage that holds none yet.
    ///
    /// Relies on the arena's pre-order, in which parents precede children
    /// and a recorded block is its root's subtree (asserted by
    /// [`Snapshot::push`] and [`Snapshot::record_block`]).
    pub fn build(snap: &Snapshot) -> SnapIndex {
        let n = snap.len();
        let mut ix = SnapIndex {
            table: vec![Arc::from("")],
            path_ix: Vec::with_capacity(n),
            keys: Vec::with_capacity(n),
            by_key: OnceLock::new(),
        };
        // The table entry of the path each node's *children* inherit,
        // added at most once per parent and shared by all of its children.
        let mut child_ix = vec![NO_ENTRY; n];
        let mut blocks = snap.blocks().iter().peekable();

        let mut idx = 0;
        while idx < n {
            // A block starting here, with its root path's entry.
            let block =
                blocks.next_if(|b| b.start == idx).map(|b| (b, ix.entry(snap, idx, &mut child_ix)));
            let end = block.map_or(idx + 1, |(b, _)| b.end);
            if let Some((b, root)) = block {
                if let Some(cols) = b.lineage.columns(&ix.table[root as usize], end - idx) {
                    // Local entry 0 is the root path; entry k > 0 lands at
                    // `base + k`.
                    let base = ix.table.len() as u32 - 1;
                    ix.table.extend_from_slice(&cols.table[1..]);
                    let local = cols.path_ix.iter().map(|&k| if k == 0 { root } else { base + k });
                    ix.path_ix.extend(local);
                    ix.keys.extend_from_slice(&cols.keys);
                    idx = end;
                    continue;
                }
            }
            let first = ix.table.len() as u32;
            for i in idx..end {
                let e = ix.entry(snap, i, &mut child_ix);
                let props = &snap.node(i).props;
                let path = &ix.table[e as usize];
                ix.keys.push(ControlKey::of_parts(props.primary_id(), props.control_type, path));
                ix.path_ix.push(e);
            }
            if let Some((b, root)) = block {
                b.lineage.0.columns.get_or_init(|| ix.block_columns(idx..end, root, first));
            }
            idx = end;
        }
        ix
    }

    /// The table entry of node `idx`'s ancestor path, given the entries of
    /// every node before it: the roots' is 0, every other node shares its
    /// parent's `child_ix` entry, added on first use.
    fn entry(&mut self, snap: &Snapshot, idx: usize, child_ix: &mut [u32]) -> u32 {
        let Some(p) = snap.node(idx).parent else {
            return 0;
        };
        debug_assert!(p < idx, "arena parents precede children");
        if child_ix[p] == NO_ENTRY {
            let pp: &str = &self.table[self.path_ix[p] as usize];
            let pname = display_name(&snap.node(p).props.name);
            let path: Arc<str> = if pp.is_empty() {
                Arc::from(pname)
            } else {
                let mut s = String::with_capacity(pp.len() + 1 + pname.len());
                s.push_str(pp);
                s.push('/');
                s.push_str(pname);
                Arc::from(s.as_str())
            };
            child_ix[p] = self.table.len() as u32;
            self.table.push(path);
        }
        child_ix[p]
    }

    /// The columns of the block computed over `range`, whose root path is
    /// entry `root` and whose other paths are the entries from `first` on.
    fn block_columns(&self, range: std::ops::Range<usize>, root: u32, first: u32) -> BlockColumns {
        let local = |e: u32| {
            debug_assert!(e == root || e >= first, "a block's paths are its own");
            if e == root {
                0
            } else {
                e - first + 1
            }
        };
        let own = &self.table[first as usize..];
        BlockColumns {
            table: std::iter::once(&self.table[root as usize]).chain(own).cloned().collect(),
            path_ix: self.path_ix[range.clone()].iter().map(|&e| local(e)).collect(),
            keys: self.keys[range].into(),
        }
    }

    /// The cached ancestor path of a node (root-first, slash-delimited).
    pub fn path(&self, idx: usize) -> &str {
        &self.table[self.path_ix[idx] as usize]
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
            && self.path(idx) == id.ancestor_path
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
            ancestor_path: self.path(idx).to_string(),
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
        assert!(std::ptr::eq(ix.path(3).as_ptr(), ix.path(4).as_ptr()));
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

    /// A window named `root` holding one block — a group and its two
    /// buttons — recorded under `lineage` when one is given.
    fn one_block(root: &str, lineage: Option<&Lineage>) -> Snapshot {
        let mut s = Snapshot::new();
        let w = s.push(ControlProps::new(root, ControlType::Window), None, 0);
        s.push_window_root(w);
        let grp = s.push(ControlProps::new("Font", ControlType::Group), Some(w), 0);
        s.push(ControlProps::new("Bold", ControlType::Button), Some(grp), 0);
        s.push(ControlProps::new("", ControlType::Button), Some(grp), 0);
        if let Some(l) = lineage {
            s.record_block(grp, s.len(), l.clone());
        }
        s
    }

    #[test]
    fn a_lineage_serves_its_columns_under_an_equal_root_path() {
        let lineage = Lineage::default();
        let first = one_block("Main", Some(&lineage));
        let again = one_block("Main", Some(&lineage));
        let renamed = one_block("Other", Some(&lineage));
        for (snap, root) in [(&first, "Main"), (&again, "Main"), (&renamed, "Other")] {
            let (ix, whole) = (snap.index(), SnapIndex::build(&one_block(root, None)));
            for (i, _) in snap.iter() {
                assert_eq!((ix.key(i), ix.path(i)), (whole.key(i), whole.path(i)), "{root}: {i}");
            }
        }
        let same_alloc = |a: &Snapshot, b: &Snapshot, i| {
            std::ptr::eq(a.index().path(i).as_ptr(), b.index().path(i).as_ptr())
        };
        assert!(same_alloc(&first, &again, 3), "copied from the lineage");
        assert!(!same_alloc(&first, &renamed, 3), "recomputed under another root path");
        assert!(!same_alloc(&first, &one_block("Main", Some(&Lineage::default())), 3));
    }

    #[test]
    fn a_lineage_computes_its_node_terms_once_per_length() {
        let lineage = Lineage::default();
        let mut calls = 0;
        let mut terms = |len: usize| {
            lineage
                .node_terms(len, || {
                    calls += 1;
                    vec![7; len]
                })
                .map(<[u32]>::to_vec)
        };
        assert_eq!(terms(3), Some(vec![7; 3]), "computed");
        assert_eq!(terms(3), Some(vec![7; 3]), "held");
        assert_eq!(terms(2), None, "another length is not served");
        assert_eq!(calls, 1);
        assert_eq!(Lineage::default().node_terms(2, || vec![1, 2]), Some(&[1, 2][..]));
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
