//! On-screen control labeling.
//!
//! Both the GUI baseline and DMI's interaction-related interfaces address
//! *currently visible* controls through short alphabetic labels ("A",
//! "HF"), assigned over the accessibility tree before each LLM call
//! (§5.1). Alphabetic labels are deliberately distinct from the numeric
//! ids of the navigation topology; interaction interfaces accept only
//! labels (§3.5).
//!
//! A label is a position: the `n`th on-screen node of one snapshot, in
//! document order, carries [`alpha_label`]`(n)`, and [`label_index`]
//! reads the position back. A [`LabeledScreen`] is therefore a view, the
//! snapshot `Arc` plus the indices of its on-screen nodes. Readers borrow
//! each control's [`Node`] from the snapshot, and no label or control
//! text is stored.
//!
//! The full-tree and labeled-screen prompts share one line format
//! (`label: name(type) = 'value' [flag]`). [`crate::tokens::count`]
//! starts every line clean (the space after the label's colon and each
//! line's `'\n'` end all runs, and the value and flag pieces start with a
//! space), so a prompt's count is the sum over its lines of four terms:
//! the label's (constant for every label length, so the labels of a
//! prompt sum in closed form, [`label_tokens_below`]), the name and type's
//! (`count("name(type)")`, which does not split further, since a name
//! ending in punctuation joins the `(` run), the value's and the flag's.
//! [`full_tree_prompt_tokens`] and [`LabeledScreen::prompt_tokens`] sum
//! them without building the text, and take the name/type term of a node
//! in a recorded block from its block's identity lineage
//! ([`dmi_uia::Lineage::node_terms`]), so each lineage's terms are
//! counted once, whichever capture first counts one of its blocks. The
//! count of the built text stays the specification they are tested
//! against; an agent takes each count at most once per capture through
//! `interface::Observed`.

use crate::error::{DmiError, DmiResult};
use crate::tokens;
use dmi_uia::{ControlProps, Node, PatternKind, Snapshot};
use std::sync::Arc;

/// The flag of an off-screen line of the full-tree prompt.
const OFFSCREEN: &str = " [offscreen]";
/// The flag of a disabled line of the labeled-screen prompt.
const DISABLED: &str = " [disabled]";

/// The labeled view of one snapshot: its on-screen nodes in document
/// order, the node at position `n` labeled [`alpha_label`]`(n)`.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledScreen {
    snap: Arc<Snapshot>,
    /// Arena indices of the on-screen nodes, in document order.
    on_screen: Vec<usize>,
}

/// Converts a position to an alphabetic label (0 -> "A", 25 -> "Z",
/// 26 -> "AA").
pub fn alpha_label(i: usize) -> String {
    let mut s = String::new();
    push_label(&mut s, i);
    s
}

/// Appends [`alpha_label`]`(i)` to `out`.
fn push_label(out: &mut String, mut i: usize) {
    let start = out.len();
    loop {
        out.insert(start, (b'A' + (i % 26) as u8) as char);
        i /= 26;
        if i == 0 {
            break;
        }
        i -= 1;
    }
}

/// The summed tokens of the labels of positions `0..n`, each with its
/// `": "`: a label of `k` capital letters counts `ceil(k / 4)`, plus one
/// for the colon, and the labels of `k` letters are the `26^k` positions
/// after those of fewer, so the sum takes one product per label length.
pub fn label_tokens_below(n: usize) -> usize {
    let (mut total, mut first, mut width, mut letters) = (0, 0usize, 26usize, 1usize);
    while first < n {
        let end = first.saturating_add(width).min(n);
        total += (end - first) * (letters.div_ceil(4) + 1);
        (first, width, letters) = (end, width.saturating_mul(26), letters + 1);
    }
    total
}

/// The position a label names, the inverse of [`alpha_label`]: `None`
/// unless `label` is a non-empty run of ASCII capitals whose position
/// fits a `usize`.
pub fn label_index(label: &str) -> Option<usize> {
    let n = label.bytes().try_fold(0usize, |n, b| {
        if !b.is_ascii_uppercase() {
            return None;
        }
        n.checked_mul(26)?.checked_add(usize::from(b - b'A') + 1)
    })?;
    n.checked_sub(1)
}

/// Renders the *full* exposed accessibility tree as prompt text — the
/// baseline's observation (§5.1 registers a UIA event handler so apps
/// expose complete control trees, so every exposed control, on-screen or
/// not, lands in the prompt).
pub fn full_tree_prompt_text(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (i, node) in snap.iter() {
        let flag = if node.props.offscreen { OFFSCREEN } else { "" };
        push_line(&mut out, i, &node.props, flag);
    }
    out
}

/// `tokens::count(&full_tree_prompt_text(snap))`, summed per line (see
/// the module docs).
pub fn full_tree_prompt_tokens(snap: &Snapshot) -> usize {
    label_tokens_below(snap.len()) + body_tokens(snap, 0..snap.len(), |p| p.offscreen, OFFSCREEN)
}

/// The summed body tokens — everything after the label's `": "` — of the
/// prompt lines of nodes `indices` of `snap`, ascending, where the lines
/// of the nodes `flagged` accepts end in `flag`. A node in a recorded
/// block takes its name/type term from the block's lineage, which
/// computes it for the whole block on the first count that needs it.
/// Tallies the nodes whose term a lineage held (`observe.tokens_reused`)
/// and the nodes whose term this count computed
/// (`observe.tokens_computed`).
fn body_tokens(
    snap: &Snapshot,
    indices: impl Iterator<Item = usize>,
    flagged: impl Fn(&ControlProps) -> bool,
    flag: &str,
) -> usize {
    let flag_tokens = tokens::count(flag);
    let mut blocks = snap.blocks().iter().peekable();
    // The block holding the last node: its first node, its end, its
    // lineage's terms and whether this count computed them.
    let mut block: Option<(usize, usize, Option<&[u32]>, bool)> = None;
    let (mut total, mut reused, mut computed) = (0, 0, 0);
    for i in indices {
        if block.is_none_or(|(_, end, ..)| i >= end) {
            while blocks.next_if(|b| b.end <= i).is_some() {}
            block = blocks.peek().filter(|b| b.start <= i).map(|b| {
                let mut fresh = false;
                let terms = b.lineage.node_terms(b.end - b.start, || {
                    fresh = true;
                    let props = (b.start..b.end).map(|j| &snap.node(j).props);
                    props.map(|p| name_type_tokens(p) as u32).collect()
                });
                (b.start, b.end, terms, fresh)
            });
        }
        let p = &snap.node(i).props;
        total += match block {
            Some((start, _, Some(terms), fresh)) => {
                if fresh {
                    computed += 1;
                } else {
                    reused += 1;
                }
                terms[i - start] as usize
            }
            _ => {
                computed += 1;
                name_type_tokens(p)
            }
        };
        if !p.value.is_empty() {
            total += tokens::count_chars(" = '".chars().chain(p.value.chars()).chain(['\'']));
        }
        if flagged(p) {
            total += flag_tokens;
        }
    }
    dmi_obs::tally("observe.tokens_reused", reused);
    dmi_obs::tally("observe.tokens_computed", computed);
    total
}

/// Tokens of a prompt line's `name(type)`.
fn name_type_tokens(p: &ControlProps) -> usize {
    let ty = p.control_type.as_str().chars().chain([')']);
    tokens::count_chars(p.name.chars().chain(['(']).chain(ty))
}

/// Appends one prompt line: `label: name(type)`, then ` = 'value'` for a
/// non-empty value, then the flag.
fn push_line(out: &mut String, pos: usize, p: &ControlProps, flag: &str) {
    push_label(out, pos);
    for piece in [": ", &p.name, "(", p.control_type.as_str(), ")"] {
        out.push_str(piece);
    }
    if !p.value.is_empty() {
        for piece in [" = '", &p.value, "'"] {
            out.push_str(piece);
        }
    }
    out.push_str(flag);
    out.push('\n');
}

/// Labels every on-screen (not off-screen) control in the snapshot.
pub fn label_screen(snap: &Arc<Snapshot>) -> LabeledScreen {
    LabeledScreen { snap: Arc::clone(snap), on_screen: snap.find_all(|n| !n.props.offscreen) }
}

impl LabeledScreen {
    /// The snapshot this screen labels.
    pub fn snapshot(&self) -> &Arc<Snapshot> {
        &self.snap
    }

    /// The labeled control at position `pos` (the one labeled
    /// [`alpha_label`]`(pos)`). Panics if `pos >= self.len()`.
    pub fn node(&self, pos: usize) -> &Node {
        self.snap.node(self.on_screen[pos])
    }

    /// The labeled controls in label order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> + '_ {
        self.on_screen.iter().map(|&i| self.snap.node(i))
    }

    /// Resolves a label from outside the program (an LLM's call) to its
    /// control: a digits-only label is a static topology id, which
    /// interaction interfaces refuse (§3.5), and any other label must name
    /// a position on this screen.
    pub fn resolve(&self, label: &str) -> DmiResult<&Node> {
        if !label.is_empty() && label.bytes().all(|b| b.is_ascii_digit()) {
            return Err(DmiError::StaticIdProhibited { label: label.to_string() });
        }
        label_index(label)
            .filter(|&pos| pos < self.len())
            .map(|pos| self.node(pos))
            .ok_or_else(|| DmiError::LabelNotFound { label: label.to_string() })
    }

    /// [`Self::resolve`], then requires the control to support at least
    /// one of `patterns`; the error names the first.
    pub fn resolve_supporting(&self, label: &str, patterns: &[PatternKind]) -> DmiResult<&Node> {
        let node = self.resolve(label)?;
        if !patterns.iter().any(|&p| node.props.patterns.supports(p)) {
            return Err(DmiError::PatternUnsupported {
                name: node.props.name.clone(),
                pattern: patterns[0].as_str().to_string(),
            });
        }
        Ok(node)
    }

    /// The position of the first labeled control with the given name.
    pub fn find_by_name(&self, name: &str) -> Option<usize> {
        self.nodes().position(|n| n.props.name == name)
    }

    /// Renders the labeled controls as prompt text (one line each).
    pub fn to_prompt_text(&self) -> String {
        let mut out = String::new();
        for (pos, node) in self.nodes().enumerate() {
            let flag = if node.props.enabled { "" } else { DISABLED };
            push_line(&mut out, pos, &node.props, flag);
        }
        out
    }

    /// `tokens::count(&self.to_prompt_text())`, summed per line (see the
    /// module docs).
    pub fn prompt_tokens(&self) -> usize {
        let on_screen = self.on_screen.iter().copied();
        label_tokens_below(self.len())
            + body_tokens(&self.snap, on_screen, |p| !p.enabled, DISABLED)
    }

    /// Number of labeled controls.
    pub fn len(&self) -> usize {
        self.on_screen.len()
    }

    /// Whether the screen has no labeled controls.
    pub fn is_empty(&self) -> bool {
        self.on_screen.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmi_uia::ControlType;

    #[test]
    fn alpha_labels_roll_over() {
        assert_eq!(alpha_label(0), "A");
        assert_eq!(alpha_label(25), "Z");
        assert_eq!(alpha_label(26), "AA");
        assert_eq!(alpha_label(27), "AB");
        assert_eq!(alpha_label(26 * 27 + 25), "AAZ");
    }

    /// Labels come from the LLM: every label of one to three letters reads
    /// back to its position, and anything else is no position at all.
    #[test]
    fn label_index_inverts_alpha_label() {
        let three_letters = 26 + 26 * 26 + 26 * 26 * 26;
        assert_eq!(three_letters, 18_278);
        for i in 0..three_letters {
            assert_eq!(label_index(&alpha_label(i)), Some(i), "{}", alpha_label(i));
        }
        assert_eq!(alpha_label(three_letters), "AAAA");
        let overflow = "Z".repeat(20);
        for bad in ["", "a", "A1", "7", "Ä", "ÄA", " A", overflow.as_str()] {
            assert_eq!(label_index(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn offscreen_controls_are_not_labeled() {
        let mut s = Snapshot::new();
        let w = s.push(ControlProps::new("W", ControlType::Window), None, 0);
        s.push_window_root(w);
        s.push(ControlProps::new("Visible", ControlType::Button), Some(w), 0);
        let mut hidden = ControlProps::new("Hidden", ControlType::Button);
        hidden.offscreen = true;
        s.push(hidden, Some(w), 0);
        let screen = label_screen(&Arc::new(s));
        assert_eq!(screen.len(), 2); // window + visible button
        assert!(screen.find_by_name("Hidden").is_none());
    }

    #[test]
    fn prompt_text_carries_value_and_disabled() {
        let mut s = Snapshot::new();
        let w = s.push(ControlProps::new("W", ControlType::Window), None, 0);
        s.push_window_root(w);
        let mut e = ControlProps::new("Name Box", ControlType::Edit);
        e.value = "A1".into();
        s.push(e, Some(w), 0);
        let mut d = ControlProps::new("Paste", ControlType::Button);
        d.enabled = false;
        s.push(d, Some(w), 0);
        let text = label_screen(&Arc::new(s.clone())).to_prompt_text();
        assert_eq!(text, "A: W(Window)\nB: Name Box(Edit) = 'A1'\nC: Paste(Button) [disabled]\n");
        // The full tree flags off-screen controls instead of disabled ones.
        let mut off = ControlProps::new("Row 9", ControlType::Text);
        off.offscreen = true;
        s.push(off, Some(w), 0);
        assert_eq!(
            full_tree_prompt_text(&s),
            "A: W(Window)\nB: Name Box(Edit) = 'A1'\nC: Paste(Button)\nD: Row 9(Text) [offscreen]\n"
        );
    }

    #[test]
    fn resolve_round_trips() {
        let mut s = Snapshot::new();
        let w = s.push(ControlProps::new("W", ControlType::Window), None, 0);
        s.push_window_root(w);
        let mut hidden = ControlProps::new("Hidden", ControlType::Button);
        hidden.offscreen = true;
        s.push(hidden, Some(w), 0);
        s.push(ControlProps::new("B", ControlType::Button), Some(w), 0);
        let screen = label_screen(&Arc::new(s));
        // The hidden button takes no position: "B" is the second label.
        let pos = screen.find_by_name("B").unwrap();
        assert_eq!(alpha_label(pos), "B");
        assert_eq!(screen.resolve(&alpha_label(pos)).unwrap().props.name, "B");
        assert!(matches!(screen.resolve("C"), Err(DmiError::LabelNotFound { .. })));
        assert!(matches!(screen.resolve("ZZZ"), Err(DmiError::LabelNotFound { .. })));
        assert!(matches!(screen.resolve("12"), Err(DmiError::StaticIdProhibited { .. })));
    }
}
