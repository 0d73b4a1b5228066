//! XPath-like control identifiers and fuzzy matching (§4.1, §3.4).
//!
//! Since UIA does not guarantee globally unique `automation_id`s, the paper
//! synthesizes an identifier of the form:
//!
//! ```text
//! primary_id|control_type|ancestor_path
//! ```
//!
//! where `primary_id` falls back from `automation_id` to `name` to
//! `[Unnamed]`, and `ancestor_path` is a slash-delimited chain of ancestor
//! names. Index-based addressing is deliberately avoided because dynamic
//! menus shift indices unpredictably.
//!
//! Exact matching can fail in live UIs (name variation, missing ids), so
//! the executor falls back to a [`FuzzyMatcher`] that scores candidates by
//! control type, ancestor hierarchy, and name similarity.

use crate::{ControlType, Node, Snapshot};
use serde::Serialize;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A 64-bit fingerprint of a [`ControlId`] (§4.1, hash+confirm design).
///
/// Keys are FxHash-style digests of the `primary | control_type |
/// ancestor_path` triple. Two distinct identifiers may collide (the key is
/// only 64 bits), so every keyed structure keeps the full [`ControlId`]
/// (or an equivalent component view) alongside and confirms equality on
/// lookup — collisions cost a comparison, never correctness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ControlKey(u64);

impl ControlKey {
    /// Fingerprints raw identifier components.
    ///
    /// Components are length-prefixed before hashing so `("ab", "c")` and
    /// `("a", "bc")` cannot alias.
    pub fn of_parts(primary: &str, control_type: ControlType, ancestor_path: &str) -> ControlKey {
        const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        #[inline]
        fn mix(h: u64, w: u64) -> u64 {
            (h.rotate_left(5) ^ w).wrapping_mul(SEED)
        }
        #[inline]
        fn mix_str(mut h: u64, s: &str) -> u64 {
            h = mix(h, s.len() as u64);
            let bytes = s.as_bytes();
            let mut chunks = bytes.chunks_exact(8);
            for c in &mut chunks {
                h = mix(h, u64::from_le_bytes(c.try_into().unwrap()));
            }
            let mut tail = 0u64;
            for (i, &b) in chunks.remainder().iter().enumerate() {
                tail |= (b as u64) << (8 * i);
            }
            mix(h, tail)
        }
        let mut h = mix(SEED, control_type as u64);
        h = mix_str(h, primary);
        h = mix_str(h, ancestor_path);
        ControlKey(h)
    }

    /// Fingerprints a full identifier.
    pub fn of_id(id: &ControlId) -> ControlKey {
        ControlKey::of_parts(&id.primary, id.control_type, &id.ancestor_path)
    }

    /// The raw 64-bit digest.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl Serialize for ControlKey {
    fn to_value(&self) -> serde::Value {
        self.0.to_value()
    }
}

/// A pass-through hasher for keys that are already high-quality digests
/// ([`ControlKey`]s, runtime ids). Avoids re-hashing through SipHash on
/// every map probe.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("IdentityHasher only accepts u64 writes");
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// A hash map keyed by pre-hashed 64-bit digests.
pub type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<IdentityHasher>>;

/// A set of [`ControlId`]s keyed by [`ControlKey`] with full-identifier
/// confirmation on every probe, so hash collisions cannot conflate two
/// distinct controls.
#[derive(Debug, Clone, Default)]
pub struct ControlIdSet {
    map: KeyMap<ControlKey, Vec<ControlId>>,
}

impl ControlIdSet {
    /// Creates an empty set.
    pub fn new() -> ControlIdSet {
        ControlIdSet::default()
    }

    /// Whether the set holds `id` (whose key is `key`).
    pub fn contains(&self, key: ControlKey, id: &ControlId) -> bool {
        self.map.get(&key).is_some_and(|bucket| bucket.iter().any(|c| c == id))
    }

    /// Inserts `id` under `key`; returns `true` if it was not present.
    /// The identifier is cloned only on actual insertion.
    pub fn insert(&mut self, key: ControlKey, id: &ControlId) -> bool {
        let bucket = self.map.entry(key).or_default();
        if bucket.iter().any(|c| c == id) {
            return false;
        }
        bucket.push(id.clone());
        true
    }

    /// Number of identifiers stored.
    pub fn len(&self) -> usize {
        self.map.values().map(Vec::len).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Synthesized control identifier: `primary_id|control_type|ancestor_path`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct ControlId {
    /// `automation_id`, or `name`, or `"[Unnamed]"`.
    pub primary: String,
    /// UIA control type.
    pub control_type: ControlType,
    /// Slash-delimited root-first ancestor names.
    pub ancestor_path: String,
}

impl ControlId {
    /// Synthesizes the identifier for a snapshot node.
    ///
    /// Served from the snapshot's identity index: the ancestor path is the
    /// cached per-snapshot string, not a fresh walk-and-join.
    pub fn of(snap: &Snapshot, idx: usize) -> ControlId {
        snap.control_id(idx)
    }

    /// Serializes to the canonical `primary|type|path` string.
    pub fn encode(&self) -> String {
        format!("{}|{}|{}", self.primary, self.control_type.as_str(), self.ancestor_path)
    }
}

impl std::fmt::Display for ControlId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.encode())
    }
}

/// A match produced by [`FuzzyMatcher`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchScore {
    /// Arena index of the candidate node.
    pub index: usize,
    /// Similarity in `[0, 1]`; `1.0` is an exact match.
    pub score: f64,
}

/// Fuzzy control matcher combining control type, ancestor hierarchy, and
/// name similarity (paper §3.4, "Handling unstable UI interaction").
#[derive(Debug, Clone)]
pub struct FuzzyMatcher {
    /// Minimum acceptable score; candidates below are rejected.
    pub threshold: f64,
    /// Weight of name similarity (the rest is split between type match and
    /// ancestor-path similarity).
    pub name_weight: f64,
}

impl Default for FuzzyMatcher {
    fn default() -> Self {
        // High enough that unrelated same-type siblings ("Borders" for
        // "Margins") are rejected, low enough that live-name variations
        // ("Next" -> "Next Page") with matching type and path still pass.
        FuzzyMatcher { threshold: 0.8, name_weight: 0.5 }
    }
}

impl FuzzyMatcher {
    /// Finds the best node for `target` (whose fingerprint is `key`) in
    /// the snapshot, exact first and fuzzy as fallback, restricted to
    /// descendants of `scope` when given and optionally skipping off-screen
    /// candidates (an executor looking for something *visible* must not
    /// match scrolled-out content). Returns `None` if nothing reaches the
    /// threshold. Callers that resolve the same modeled controls repeatedly
    /// (the `visit` executor walking a forest path) precompute the key once
    /// at model-build time instead of re-hashing the identifier.
    pub fn best_match(
        &self,
        snap: &Snapshot,
        key: ControlKey,
        target: &ControlId,
        scope: Option<usize>,
        skip_offscreen: bool,
    ) -> Option<MatchScore> {
        debug_assert_eq!(key, ControlKey::of_id(target));
        // Exact pass: keyed lookup in the snapshot identity index
        // (collision-confirmed), instead of scanning every candidate with
        // per-node path rebuilding. Among duplicate exact matches the
        // earliest arena index wins.
        let ix = snap.index();
        for i in ix.candidates(key) {
            if !ix.matches(snap, i, target) {
                continue;
            }
            if skip_offscreen && snap.node(i).props.offscreen {
                continue;
            }
            if let Some(root) = scope {
                if !snap.is_in_subtree(i, root) {
                    continue;
                }
            }
            return Some(MatchScore { index: i, score: 1.0 });
        }
        // Fuzzy pass.
        let candidates: Vec<usize> = match scope {
            Some(root) => snap.descendants(root),
            None => (0..snap.len()).collect(),
        };
        let mut best: Option<MatchScore> = None;
        let mut floor = self.threshold;
        for i in candidates {
            if skip_offscreen && snap.node(i).props.offscreen {
                continue;
            }
            let s = self.score_bounded(snap, i, target, floor);
            if s >= self.threshold && best.is_none_or(|b| s > b.score) {
                best = Some(MatchScore { index: i, score: s });
                floor = floor.max(s);
            }
        }
        best
    }

    /// Scores one candidate node against a target identifier. May return
    /// early with an underestimate once the candidate provably cannot reach
    /// `floor`
    /// (cheap components are computed first; the name similarity is then
    /// bounded before any edit-distance work).
    fn score_bounded(&self, snap: &Snapshot, idx: usize, target: &ControlId, floor: f64) -> f64 {
        let n: &Node = snap.node(idx);
        let type_w = (1.0 - self.name_weight) * 0.5;
        let path_w = (1.0 - self.name_weight) * 0.5;

        let type_score = if n.props.control_type == target.control_type { 1.0 } else { 0.0 };
        let path_score = path_similarity(snap.index().path(idx), &target.ancestor_path);
        let fixed = type_w * type_score + path_w * path_score;
        // The name score needed to reach `floor`; above 1.0 is hopeless.
        let name_floor = (floor - fixed) / self.name_weight;
        if name_floor > 1.0 {
            return fixed;
        }

        let a = n.props.primary_id();
        let mut name_score = string_similarity_bounded(a, &target.primary, name_floor);
        if a != n.props.name {
            name_score = name_score.max(string_similarity_bounded(
                &n.props.name,
                &target.primary,
                name_floor,
            ));
        }
        self.name_weight * name_score + fixed
    }
}

/// Reusable per-thread buffers for similarity computations: lowercased
/// character vectors and the two Levenshtein DP rows. Fuzzy matching
/// scores hundreds of candidates per resolve; without this every call
/// paid four heap allocations.
struct SimScratch {
    al: Vec<char>,
    bl: Vec<char>,
    prev: Vec<usize>,
    cur: Vec<usize>,
}

thread_local! {
    static SIM_SCRATCH: std::cell::RefCell<SimScratch> =
        const {
            std::cell::RefCell::new(SimScratch {
                al: Vec::new(),
                bl: Vec::new(),
                prev: Vec::new(),
                cur: Vec::new(),
            })
        };
}

/// Normalized similarity of two strings based on Levenshtein distance with
/// a case-insensitive prefix bonus. Returns a value in `[0, 1]`.
pub fn string_similarity(a: &str, b: &str) -> f64 {
    string_similarity_bounded(a, b, 0.0)
}

/// Like [`string_similarity`], but may return `0.0` early when a cheap
/// length-difference bound proves the similarity cannot reach `floor`
/// (the edit distance between strings is at least their length
/// difference). Exact whenever the true similarity is `>= floor`, so
/// thresholded callers can reject candidates for ~nothing.
pub fn string_similarity_bounded(a: &str, b: &str, floor: f64) -> f64 {
    if a == b {
        return 1.0;
    }
    SIM_SCRATCH.with(|scratch| {
        let s = &mut *scratch.borrow_mut();
        s.al.clear();
        s.al.extend(a.chars().flat_map(char::to_lowercase));
        s.bl.clear();
        s.bl.extend(b.chars().flat_map(char::to_lowercase));
        if s.al == s.bl {
            return 0.97;
        }
        if s.al.is_empty() || s.bl.is_empty() {
            return 0.0;
        }
        let (la, lb) = (s.al.len(), s.bl.len());
        let max_len = la.max(lb);
        // d >= |la - lb|, so base <= base_bound; the prefix bonus can add
        // at most 0.25 (capped at 0.95).
        let base_bound = 1.0 - la.abs_diff(lb) as f64 / max_len as f64;
        let upper = base_bound.max((base_bound + 0.25).min(0.95));
        if upper < floor {
            return 0.0;
        }
        // Prefix containment: "Go To" vs "Go To…" or "Next" renamed
        // "Next Page".
        let prefix = s.al.starts_with(&s.bl) || s.bl.starts_with(&s.al);
        let d = lev_chars(&s.al, &s.bl, &mut s.prev, &mut s.cur);
        let base = 1.0 - d as f64 / max_len as f64;
        if prefix {
            (base + 0.25).min(0.95)
        } else {
            base
        }
    })
}

/// Similarity of two slash-delimited ancestor paths: fraction of matching
/// components, compared suffix-first (nearest ancestors matter most).
/// Allocation-free: components are compared straight off the split
/// iterators.
pub fn path_similarity(a: &str, b: &str) -> f64 {
    if a == b {
        return 1.0;
    }
    fn comps(s: &str) -> impl Iterator<Item = &str> {
        s.split('/').filter(|c| !c.is_empty())
    }
    let na = comps(a).count();
    let nb = comps(b).count();
    if na == 0 && nb == 0 {
        return 1.0;
    }
    let matched = a
        .rsplit('/')
        .filter(|c| !c.is_empty())
        .zip(b.rsplit('/').filter(|c| !c.is_empty()))
        .filter(|(x, y)| x.eq_ignore_ascii_case(y))
        .count();
    matched as f64 / na.max(nb) as f64
}

/// Levenshtein edit distance over characters.
pub fn levenshtein(a: &str, b: &str) -> usize {
    SIM_SCRATCH.with(|scratch| {
        let s = &mut *scratch.borrow_mut();
        s.al.clear();
        s.al.extend(a.chars());
        s.bl.clear();
        s.bl.extend(b.chars());
        lev_chars(&s.al, &s.bl, &mut s.prev, &mut s.cur)
    })
}

/// Two-row Levenshtein DP over char slices, reusing row buffers.
fn lev_chars(av: &[char], bv: &[char], prev: &mut Vec<usize>, cur: &mut Vec<usize>) -> usize {
    if av.is_empty() {
        return bv.len();
    }
    if bv.is_empty() {
        return av.len();
    }
    prev.clear();
    prev.extend(0..=bv.len());
    cur.clear();
    cur.resize(bv.len() + 1, 0);
    for (i, &ac) in av.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &bc) in bv.iter().enumerate() {
            let cost = usize::from(ac != bc);
            cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(prev, cur);
    }
    prev[bv.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ControlProps, ControlType};

    fn snap_with(names: &[(&str, &str, ControlType)]) -> Snapshot {
        // names: (name, automation_id, type) as a chain root->leaf.
        let mut s = Snapshot::new();
        let mut parent = None;
        for (i, (name, auto, ct)) in names.iter().enumerate() {
            let mut p = ControlProps::new(*name, *ct);
            p.automation_id = auto.to_string();
            let idx = s.push(p, parent, 0);
            if i == 0 {
                s.push_window_root(idx);
            }
            parent = Some(idx);
        }
        s
    }

    #[test]
    fn encode_is_primary_type_path() {
        let id = ControlId {
            primary: "FontColor".into(),
            control_type: ControlType::SplitButton,
            ancestor_path: "Word/Home/Font".into(),
        };
        assert_eq!(id.encode(), "FontColor|SplitButton|Word/Home/Font");
        assert_eq!(id.to_string(), id.encode());
    }

    #[test]
    fn of_uses_fallback_primary() {
        let s = snap_with(&[
            ("Main", "", ControlType::Window),
            ("Home", "TabHome", ControlType::TabItem),
            ("Bold", "", ControlType::Button),
        ]);
        let id = ControlId::of(&s, 2);
        assert_eq!(id.primary, "Bold");
        assert_eq!(id.ancestor_path, "Main/Home");
        assert!(s.index().matches(&s, 2, &id));
        assert!(!s.index().matches(&s, 1, &id));
    }

    #[test]
    fn exact_match_preferred() {
        let s = snap_with(&[
            ("Main", "", ControlType::Window),
            ("Home", "", ControlType::TabItem),
            ("Bold", "", ControlType::Button),
        ]);
        let id = ControlId::of(&s, 2);
        let m = FuzzyMatcher::default()
            .best_match(&s, ControlKey::of_id(&id), &id, None, false)
            .unwrap();
        assert_eq!(m.index, 2);
        assert_eq!(m.score, 1.0);
    }

    #[test]
    fn fuzzy_handles_name_variation() {
        // Modeled as "Next", live UI renamed to "Go To" -> should NOT match.
        // Modeled as "Next", live renamed "Next Page" -> should match.
        let s = snap_with(&[
            ("Main", "", ControlType::Window),
            ("Find and Replace", "", ControlType::Window),
            ("Next Page", "", ControlType::Button),
        ]);
        let id = ControlId {
            primary: "Next".into(),
            control_type: ControlType::Button,
            ancestor_path: "Main/Find and Replace".into(),
        };
        let m = FuzzyMatcher::default()
            .best_match(&s, ControlKey::of_id(&id), &id, None, false)
            .expect("prefix variation matches");
        assert_eq!(m.index, 2);
        assert!(m.score < 1.0);
    }

    #[test]
    fn fuzzy_rejects_unrelated() {
        let s = snap_with(&[
            ("Main", "", ControlType::Window),
            ("Design", "", ControlType::TabItem),
            ("Watermark", "", ControlType::Button),
        ]);
        let id = ControlId {
            primary: "Conditional Formatting".into(),
            control_type: ControlType::MenuItem,
            ancestor_path: "Book1/Home/Styles".into(),
        };
        assert!(FuzzyMatcher::default()
            .best_match(&s, ControlKey::of_id(&id), &id, None, false)
            .is_none());
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
    }

    #[test]
    fn path_similarity_suffix_weighted() {
        assert_eq!(path_similarity("A/B/C", "A/B/C"), 1.0);
        assert!(path_similarity("X/B/C", "A/B/C") > 0.5);
        assert_eq!(path_similarity("", ""), 1.0);
    }

    #[test]
    fn scoped_match_restricts_to_subtree() {
        let mut s = Snapshot::new();
        let w1 = s.push(ControlProps::new("W1", ControlType::Window), None, 0);
        s.push_window_root(w1);
        let b1 = s.push(ControlProps::new("OK", ControlType::Button), Some(w1), 0);
        let w2 = s.push(ControlProps::new("W2", ControlType::Window), None, 1);
        s.push_window_root(w2);
        let b2 = s.push(ControlProps::new("OK", ControlType::Button), Some(w2), 1);
        let id = ControlId {
            primary: "OK".into(),
            control_type: ControlType::Button,
            ancestor_path: "W2".into(),
        };
        let m = FuzzyMatcher::default()
            .best_match(&s, ControlKey::of_id(&id), &id, Some(w2), false)
            .unwrap();
        assert_eq!(m.index, b2);
        // Within w1's scope only the w1 button is a candidate and its path
        // differs; it may still fuzzily match, but must not be b2.
        if let Some(m1) =
            FuzzyMatcher::default().best_match(&s, ControlKey::of_id(&id), &id, Some(w1), false)
        {
            assert_eq!(m1.index, b1);
        }
    }

    #[test]
    fn control_key_separates_components() {
        // Length-prefixed hashing: shifting a character across the
        // component boundary must change the key.
        let k1 = ControlKey::of_parts("ab", ControlType::Button, "c");
        let k2 = ControlKey::of_parts("a", ControlType::Button, "bc");
        assert_ne!(k1, k2);
        let k3 = ControlKey::of_parts("ab", ControlType::MenuItem, "c");
        assert_ne!(k1, k3);
        // Deterministic across processes and runs.
        assert_eq!(k1, ControlKey::of_parts("ab", ControlType::Button, "c"));
    }

    #[test]
    fn control_id_set_confirms_on_forced_key_collision() {
        // Two distinct identifiers deliberately filed under one key: the
        // set must keep them apart by confirming the full identifier —
        // this is the collision-confirmation path that makes 64-bit keys
        // safe.
        let shared = ControlKey::of_parts("Bold", ControlType::Button, "W/Home/Font");
        let bold = ControlId {
            primary: "Bold".into(),
            control_type: ControlType::Button,
            ancestor_path: "W/Home/Font".into(),
        };
        let imposter = ControlId {
            primary: "Italic".into(),
            control_type: ControlType::Button,
            ancestor_path: "W/Home/Font".into(),
        };
        let mut set = ControlIdSet::new();
        assert!(set.insert(shared, &bold));
        assert!(!set.insert(shared, &bold), "re-insert is a no-op");
        assert!(set.contains(shared, &bold));
        assert!(!set.contains(shared, &imposter), "colliding key must not conflate ids");
        assert!(set.insert(shared, &imposter), "collision bucket holds both");
        assert!(set.contains(shared, &imposter));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn exact_match_uses_index_and_skips_offscreen() {
        let mut s = Snapshot::new();
        let w = s.push(ControlProps::new("W", ControlType::Window), None, 0);
        s.push_window_root(w);
        let mut hidden = ControlProps::new("Save", ControlType::Button);
        hidden.offscreen = true;
        let off = s.push(hidden, Some(w), 0);
        let on = s.push(ControlProps::new("Save", ControlType::Button), Some(w), 0);
        let id = ControlId::of(&s, on);
        // Unfiltered: the earlier (offscreen) duplicate wins, as the old
        // arena-order scan did.
        let m = FuzzyMatcher::default()
            .best_match(&s, ControlKey::of_id(&id), &id, None, false)
            .unwrap();
        assert_eq!((m.index, m.score), (off, 1.0));
        // Visible-only: the exact pass must skip the offscreen duplicate.
        let m = FuzzyMatcher::default()
            .best_match(&s, ControlKey::of_id(&id), &id, None, true)
            .unwrap();
        assert_eq!((m.index, m.score), (on, 1.0));
    }
}
