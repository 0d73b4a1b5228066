//! The `visit` executor (§4.3): path resolution and robust navigation.
//!
//! Each retained command resolves to a unique root-to-target path in the
//! forest (through entry references for shared subtrees). Navigation then
//! matches the path backward against the topmost window's visible
//! hierarchy, closes windows that contain none of the remaining path
//! (OK > Close > Cancel, favoring saved modifications), and proceeds
//! forward with fuzzy matching and bounded retries for late-loading
//! controls.

use crate::error::{DmiError, DmiResult};
use crate::topology::{Forest, TopoKind};
use dmi_gui::Session;
use dmi_uia::{ControlType, FuzzyMatcher, Snapshot};

/// Maximum windows closed while realigning.
const MAX_WINDOW_CLOSES: u32 = 4;

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Retries per path element (fresh snapshot each) for late loading.
    pub retries: u32,
    /// Fuzzy matcher for live-name variation.
    pub matcher: FuzzyMatcher,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig { retries: 2, matcher: FuzzyMatcher::default() }
    }
}

/// Resolves the unique forest path for a target, consuming entry
/// references for shared subtrees. Returns forest node ids, root-first,
/// ending at the target.
pub fn control_path(forest: &Forest, target: u64, entries: &[u64]) -> DmiResult<Vec<usize>> {
    let tid = target as usize;
    if forest.node(tid).is_none() {
        return Err(DmiError::UnknownId { id: target });
    }
    let mut remaining: Vec<u64> = entries.to_vec();
    let mut chain = resolve_chain(forest, tid, &mut remaining)?;
    // Drop reference/root markers from the click chain; keep controls.
    chain.retain(|&id| matches!(forest.nodes[id].kind, TopoKind::Control));
    Ok(chain)
}

fn resolve_chain(forest: &Forest, id: usize, entries: &mut Vec<u64>) -> DmiResult<Vec<usize>> {
    match forest.in_shared_subtree(id) {
        None => Ok(forest.path_to(id)),
        Some(subtree_root) => {
            let refs = forest.references_to(subtree_root);
            let chosen =
                if let Some(pos) = entries.iter().position(|e| refs.contains(&(*e as usize))) {
                    entries.remove(pos) as usize
                } else if let Some(&bad) = entries.first() {
                    // An entry was supplied but does not reach this subtree.
                    if forest.node(bad as usize).is_none()
                        || !matches!(forest.nodes[bad as usize].kind, TopoKind::Reference { .. })
                    {
                        return Err(DmiError::WrongEntry { id: id as u64, entry: bad });
                    }
                    if refs.len() == 1 {
                        refs[0]
                    } else {
                        return Err(DmiError::WrongEntry { id: id as u64, entry: bad });
                    }
                } else if refs.len() == 1 {
                    refs[0]
                } else {
                    return Err(DmiError::AmbiguousEntry {
                        id: id as u64,
                        candidates: refs.iter().map(|&r| r as u64).collect(),
                    });
                };
            // Chain to the reference node (recursively: the reference may
            // itself sit in another shared subtree), minus the reference
            // node, plus the in-subtree path.
            let mut upper = resolve_chain(forest, chosen, entries)?;
            upper.pop(); // The reference node itself is not clicked.
            upper.extend(forest.path_to(id));
            Ok(upper)
        }
    }
}

/// Whether this control type participates in click navigation (containers
/// like windows, panes, and groups reveal their children passively).
pub fn is_clickable(ct: ControlType) -> bool {
    matches!(
        ct,
        ControlType::Button
            | ControlType::SplitButton
            | ControlType::MenuItem
            | ControlType::TabItem
            | ControlType::ComboBox
            | ControlType::ListItem
            | ControlType::Hyperlink
            | ControlType::CheckBox
            | ControlType::RadioButton
            | ControlType::Edit
            | ControlType::DataItem
            | ControlType::TreeItem
            | ControlType::AppBar
    )
}

/// Executes one access: navigates along the unique path and performs the
/// primitive interaction (click) on the target; optionally inputs text.
pub fn access(
    session: &mut Session,
    forest: &Forest,
    config: &ExecutorConfig,
    target: u64,
    entries: &[u64],
    input_text: Option<&str>,
) -> DmiResult<()> {
    let chain = control_path(forest, target, entries)?;
    let clickables: Vec<usize> =
        chain.iter().copied().filter(|&id| is_clickable(forest.nodes[id].control_type)).collect();
    if clickables.is_empty() {
        return Err(DmiError::NotClickable { id: target });
    }

    // Realign: close foreign windows until the topmost window contains part
    // of the path (§4.3 "Path navigation").
    let mut closes = 0u32;
    let start: usize = loop {
        let snap = session.snapshot();
        match deepest_visible(&snap, forest, config, &clickables) {
            Some(k) => break k,
            None => {
                if snap.windows().len() <= 1 || closes >= MAX_WINDOW_CLOSES {
                    break 0; // Try from the top of the path in the main window.
                }
                close_top_window(session, &snap)?;
                closes += 1;
            }
        }
    };

    // Forward navigation: click from the deepest visible element through
    // the target (re-clicking idempotent navigation controls is harmless
    // and re-establishes state). Each element is retried with a fresh
    // snapshot to tolerate late-loading controls (§3.4). Retries are
    // capture-aware: a retry capture served from the cache as the *same*
    // `Arc` that just failed to resolve is provably identical — the fuzzy
    // re-resolve is skipped, while the capture itself still runs so the
    // query clock advances toward any pending late-load reveal (reveals
    // always invalidate the cache, so they are never skipped).
    for (step, &node_id) in clickables.iter().enumerate().skip(start) {
        let is_target = step == clickables.len() - 1;
        let mut clicked = false;
        let mut last_miss: Option<std::sync::Arc<Snapshot>> = None;
        for _attempt in 0..=config.retries {
            let snap = session.snapshot();
            if last_miss.as_ref().is_some_and(|prev| std::sync::Arc::ptr_eq(prev, &snap)) {
                continue; // Identical bytes: the resolve would fail again.
            }
            let Some(idx) = resolve_in(&snap, forest, config, node_id) else {
                last_miss = Some(snap);
                continue;
            };
            let node = snap.node(idx);
            if !node.props.enabled {
                return Err(DmiError::ControlDisabled {
                    name: node.props.name.clone(),
                    path: snap.ancestor_path(idx),
                });
            }
            let wid = session.widget_of(node.runtime_id);
            session.click(wid).map_err(DmiError::from)?;
            clicked = true;
            break;
        }
        if !clicked {
            return Err(not_found(forest, node_id, config));
        }
        if is_target {
            if let Some(text) = input_text {
                session.type_text(text).map_err(DmiError::from)?;
            }
        }
    }
    Ok(())
}

fn not_found(forest: &Forest, node_id: usize, config: &ExecutorConfig) -> DmiError {
    let n = &forest.nodes[node_id];
    DmiError::ControlNotFound {
        name: n.name.clone(),
        path: n.control.ancestor_path.clone(),
        retries: config.retries,
    }
}

/// The deepest path element visible in the topmost window, if any.
fn deepest_visible(
    snap: &Snapshot,
    forest: &Forest,
    config: &ExecutorConfig,
    clickables: &[usize],
) -> Option<usize> {
    let top = snap.top_window()?;
    for (k, &node_id) in clickables.iter().enumerate().rev() {
        if match_visible(snap, forest, config, node_id, top).is_some() {
            return Some(k);
        }
    }
    None
}

fn resolve_in(
    snap: &Snapshot,
    forest: &Forest,
    config: &ExecutorConfig,
    node_id: usize,
) -> Option<usize> {
    let top = snap.top_window()?;
    match_visible(snap, forest, config, node_id, top)
}

/// Matches a forest node among the visible controls under `top`, tallying
/// which matcher pass answered (`visit.exact` or `visit.fuzzy`).
fn match_visible(
    snap: &Snapshot,
    forest: &Forest,
    config: &ExecutorConfig,
    node_id: usize,
    top: usize,
) -> Option<usize> {
    let n = &forest.nodes[node_id];
    let m = config.matcher.best_match(snap, n.key, &n.control, Some(top), true)?;
    dmi_obs::tally(if m.exact { "visit.exact" } else { "visit.fuzzy" }, 1);
    Some(m.index)
}

/// Closes the topmost window with the OK > Close > Cancel priority,
/// falling back to Esc.
fn close_top_window(session: &mut Session, snap: &Snapshot) -> DmiResult<()> {
    if let Some(top) = snap.top_window() {
        for name in ["OK", "Close", "Cancel"] {
            if let Some(idx) = snap
                .descendants(top)
                .find(|&i| snap.node(i).props.name == name && snap.node(i).props.enabled)
            {
                let wid = session.widget_of(snap.node(idx).runtime_id);
                session.click(wid).map_err(DmiError::from)?;
                return Ok(());
            }
        }
    }
    session.press("Esc").map_err(DmiError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::small_forest;
    use dmi_apps::AppKind;
    use std::any::Any;

    fn build(kind: AppKind) -> (Session, Forest) {
        let s = Session::new(kind.launch_small());
        (s, small_forest(kind).clone())
    }

    fn find_leaf(forest: &Forest, name: &str) -> u64 {
        forest
            .nodes
            .iter()
            .find(|n| n.name == name && forest.is_functional_leaf(n.id))
            .unwrap_or_else(|| panic!("no functional leaf '{name}'"))
            .id as u64
    }

    #[test]
    fn control_path_is_unique_and_root_first() {
        let (_s, forest) = build(AppKind::Word);
        let bold = find_leaf(&forest, "Bold");
        let path = control_path(&forest, bold, &[]).unwrap();
        assert_eq!(*path.last().unwrap(), bold as usize);
        // The path passes through the Home tab.
        assert!(path.iter().any(|&i| forest.nodes[i].name == "Home"));
    }

    #[test]
    fn unknown_target_errors() {
        let (_s, forest) = build(AppKind::Word);
        assert!(matches!(control_path(&forest, 10_000_000, &[]), Err(DmiError::UnknownId { .. })));
    }

    #[test]
    fn unclickable_target_is_a_typed_error() {
        let (mut s, forest) = build(AppKind::Word);
        let status = forest.nodes.iter().find(|n| n.name == "Page 1 of 1").unwrap().id as u64;
        let err = access(&mut s, &forest, &ExecutorConfig::default(), status, &[], None);
        assert_eq!(err, Err(DmiError::NotClickable { id: status }));
    }

    #[test]
    fn access_clicks_through_hidden_menu() {
        let (mut s, forest) = build(AppKind::Word);
        // Select a paragraph first so the color applies.
        let surf = s.app().tree().find_by_automation_id("Body").unwrap();
        s.select_lines(surf, 0, 0).unwrap();
        // Find the "Blue" standard cell under Font Color.
        let blue = forest
            .nodes
            .iter()
            .find(|n| {
                n.name == "Blue"
                    && forest.is_functional_leaf(n.id)
                    && forest.path_to(n.id).iter().any(|&a| forest.nodes[a].name == "Font Color")
            })
            .expect("Blue under Font Color")
            .id as u64;
        access(&mut s, &forest, &ExecutorConfig::default(), blue, &[], None).unwrap();
        let word = (s.app() as &dyn Any).downcast_ref::<dmi_apps::WordApp>().unwrap();
        assert_eq!(&*word.doc.paragraphs[0].format.color, "Blue");
    }

    #[test]
    fn access_and_input_text() {
        let (mut s, forest) = build(AppKind::Excel);
        let name_box = find_leaf(&forest, "Name Box");
        access(&mut s, &forest, &ExecutorConfig::default(), name_box, &[], Some("B2:C3")).unwrap();
        // Text input alone does not commit (the paper's Name Box lesson).
        let excel = (s.app() as &dyn Any).downcast_ref::<dmi_apps::ExcelApp>().unwrap();
        assert!(excel.sheet.selection.is_none());
        s.press("Enter").unwrap();
        let excel = (s.app() as &dyn Any).downcast_ref::<dmi_apps::ExcelApp>().unwrap();
        assert!(excel.sheet.selection.is_some());
    }

    #[test]
    fn shared_subtree_requires_entry_when_ambiguous() {
        let (_s, forest) = build(AppKind::Word);
        // The shared Colors dialog: find a custom cell inside it.
        let Some(cell) = forest
            .nodes
            .iter()
            .find(|n| n.name == "Custom 3" && forest.in_shared_subtree(n.id).is_some())
        else {
            // Externalization threshold may have inlined it; nothing to test.
            return;
        };
        let root = forest.in_shared_subtree(cell.id).unwrap();
        let refs = forest.references_to(root);
        if refs.len() > 1 {
            let err = control_path(&forest, cell.id as u64, &[]).unwrap_err();
            assert!(matches!(err, DmiError::AmbiguousEntry { .. }));
            // With an entry the path resolves.
            let path = control_path(&forest, cell.id as u64, &[refs[0] as u64]).unwrap();
            assert!(!path.is_empty());
        }
    }

    #[test]
    fn disabled_target_reports_structured_error() {
        let (mut s, forest) = build(AppKind::Word);
        let paste = find_leaf(&forest, "Paste");
        let err =
            access(&mut s, &forest, &ExecutorConfig::default(), paste, &[], None).unwrap_err();
        assert!(matches!(err, DmiError::ControlDisabled { .. }), "got {err:?}");
    }

    #[test]
    fn capture_aware_retries_preserve_late_load_and_not_found_semantics() {
        use dmi_gui::{CaptureConfig, InstabilityModel};
        // Late loads force the retry loop through lagging captures; the
        // cached session may skip provably identical re-resolves but must
        // reach the same outcomes as the eager-capture oracle.
        let forest = crate::testutil::small_forest(AppKind::Word).clone();
        let bold = find_leaf(&forest, "Bold");
        let run = |cfg: CaptureConfig| {
            let mut s = Session::with_instability(
                AppKind::Word.launch_small(),
                InstabilityModel::new(5, 1.0, 0.0),
            );
            s.set_capture_config(cfg);
            access(&mut s, &forest, &ExecutorConfig::default(), bold, &[], None)
        };
        assert!(run(CaptureConfig::default()).is_ok(), "cached retries tolerate late loads");
        assert!(run(CaptureConfig::full_rebuild()).is_ok(), "oracle agrees");

        // A control that never resolves (the live UI renamed "Next" to
        // "Go To", which fuzzy matching rejects): retries on a static UI
        // are all O(1) cache hits with the resolve skipped, and the
        // structured error is unchanged.
        let next = forest
            .nodes
            .iter()
            .find(|n| n.name == "Next" && forest.is_functional_leaf(n.id))
            .expect("modeled Next button")
            .id;
        // The Find & Replace dialog is a shared subtree (two launchers):
        // disambiguate with the first entry reference when needed.
        let entries: Vec<u64> = forest
            .in_shared_subtree(next)
            .map(|root| forest.references_to(root).first().map(|&r| r as u64).into_iter().collect())
            .unwrap_or_default();
        let next = next as u64;
        let run_missing = |cfg: CaptureConfig| {
            let mut s = Session::new(AppKind::Word.launch_small());
            s.set_capture_config(cfg);
            // Rename the live button before navigating to it.
            let tree = s.app().tree();
            let launcher = tree
                .iter()
                .find(|(i, w)| w.name == "Replace" && tree.is_shown(*i))
                .map(|(i, _)| i)
                .unwrap();
            s.click(launcher).unwrap();
            let edit = s.app().tree().find_by_name("Find what").unwrap();
            s.click(edit).unwrap();
            s.type_text("+1").unwrap();
            s.press("Enter").unwrap();
            let before = s.query_count();
            let err = access(&mut s, &forest, &ExecutorConfig::default(), next, &entries, None)
                .unwrap_err();
            (err, s.query_count() - before)
        };
        let (cached_err, cached_queries) = run_missing(CaptureConfig::default());
        let (eager_err, eager_queries) = run_missing(CaptureConfig::full_rebuild());
        assert!(matches!(cached_err, DmiError::ControlNotFound { .. }), "got {cached_err:?}");
        assert_eq!(
            format!("{cached_err:?}"),
            format!("{eager_err:?}"),
            "skipping identical re-resolves must not change the outcome"
        );
        assert_eq!(cached_queries, eager_queries, "every retry still advances the query clock");
    }

    #[test]
    fn stale_window_is_closed_before_navigation() {
        let (mut s, forest) = build(AppKind::Word);
        // Open the Find & Replace dialog, then visit a ribbon control.
        let tree = s.app().tree();
        let launcher = tree
            .iter()
            .find(|(i, w)| w.name == "Replace" && tree.is_shown(*i))
            .map(|(i, _)| i)
            .unwrap();
        s.click(launcher).unwrap();
        assert_eq!(s.app().tree().open_windows().len(), 2);
        let bold = find_leaf(&forest, "Bold");
        access(&mut s, &forest, &ExecutorConfig::default(), bold, &[], None).unwrap();
        assert_eq!(s.app().tree().open_windows().len(), 1, "dialog was closed");
    }
}
