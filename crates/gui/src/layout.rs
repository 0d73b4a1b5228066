//! Deterministic layout: assigns bounding rectangles and off-screen flags.
//!
//! The layout is intentionally simple — the paper's claims concern
//! structure, not pixel aesthetics — but it is *consistent*: hit testing,
//! scrollbar drags, and off-screen computation all agree with the
//! rectangles placed here.
//!
//! Scheme: each open window gets a fixed rectangle (the main window fills
//! the virtual screen; dialogs cascade). Within a window, shown widgets are
//! stacked as 22-pixel rows in depth-first order, indented by depth.
//! Children of a scrollable container participate only while inside the
//! viewport window determined by `scroll_pos`; the rest are marked
//! off-screen (they stay in the accessibility tree, like real UIA).
//!
//! Rows are placed in one walk, [`walk_window`], which visits every shown
//! widget of one window with its rectangle and is never cached. Three
//! visitors drive it: the capture pipeline (`crate::snapshot`) builds the
//! nodes of each window it re-walks, skipping the subtrees it copies from
//! an earlier capture ([`Step::SkipTo`]), hit testing keeps the deepest
//! row under the point, and drags read the rectangle of their track or
//! text surface; those two visit every widget. The walk is provider-side:
//! the children of a container still loading (instability late loads)
//! are visited and use up their rows, and the capture visitor leaves them
//! out of the snapshot, so a late load never shifts the rows of later
//! siblings. A subtree the capture copies from a walk that entered it at
//! another row is moved by [`shift_rect`], with the walk's own row rule.

use crate::tree::UiTree;
use crate::widget::WidgetId;
use dmi_uia::Rect;

/// Virtual screen size.
pub const SCREEN_W: i32 = 1280;
/// Virtual screen height.
pub const SCREEN_H: i32 = 800;
/// Row height for laid-out widgets.
pub const ROW_H: i32 = 22;
/// Dialog size.
pub const DIALOG_W: i32 = 640;
/// Dialog height.
pub const DIALOG_H: i32 = 480;

/// The window rectangle for the `i`-th open window (0 = main).
pub fn window_rect(i: usize) -> Rect {
    if i == 0 {
        Rect::new(0, 0, SCREEN_W, SCREEN_H)
    } else {
        let off = (i as i32 - 1) * 24;
        Rect::new(
            (SCREEN_W - DIALOG_W) / 2 + off,
            (SCREEN_H - DIALOG_H) / 2 + off,
            DIALOG_W,
            DIALOG_H,
        )
    }
}

/// The rows a window of stack position `wi` shows: row `r` of the walk
/// lies at row `r % window_rows(wi)` of the window, so the row counter
/// at a widget fixes every rectangle of its subtree only modulo this.
pub fn window_rows(wi: usize) -> i32 {
    (window_rect(wi).h / ROW_H).max(1)
}

/// One widget the walk places.
#[derive(Debug, Clone, Copy)]
pub struct Placed {
    /// The widget.
    pub id: WidgetId,
    /// Its depth below the window root (0 for the root).
    pub depth: usize,
    /// Its rectangle.
    pub rect: Rect,
    /// Whether it lies outside its scroll viewport.
    pub offscreen: bool,
    /// The row counter before the widget's own row was placed.
    pub row: i32,
}

/// What the walk does after a visit.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    /// Visit the widget's shown children.
    Descend,
    /// Visit none of the widget's descendants and resume with the row
    /// counter at the given value: the visitor knows the rows the
    /// subtree takes (the capture copying a block from an earlier walk).
    SkipTo(i32),
}

/// Visits every shown widget of the window rooted at `root`, which sits
/// at stack position `wi`, in depth-first pre-order, the root at depth 0
/// with the window rectangle. The visitor may skip a widget's subtree
/// ([`Step::SkipTo`]). Returns the row counter after the last widget. A
/// root that is not shown visits nothing.
pub fn walk_window(
    tree: &UiTree,
    root: WidgetId,
    wi: usize,
    mut visit: impl FnMut(Placed) -> Step,
) -> i32 {
    if !tree.is_shown_if_parent_is(root) {
        return 0;
    }
    let wrect = window_rect(wi);
    let mut row = 1i32; // row 0 is the window chrome
    let placed = Placed { id: root, depth: 0, rect: wrect, offscreen: false, row };
    if let Step::SkipTo(end) = visit(placed) {
        return end;
    }
    place_children(tree, root, wrect, &mut row, 1, false, &mut visit);
    row
}

/// Places the shown children of `parent`, which is shown, and their
/// subtrees.
fn place_children(
    tree: &UiTree,
    parent: WidgetId,
    wrect: Rect,
    row: &mut i32,
    depth: usize,
    forced_off: bool,
    visit: &mut impl FnMut(Placed) -> Step,
) {
    let pw = tree.widget(parent);
    let shown = |c: &&WidgetId| tree.is_shown_if_parent_is(**c);

    // Viewport window for scrollable containers.
    let viewport: Option<(usize, usize)> = if pw.scrollable {
        let kids = pw.children.iter().filter(shown).count();
        (kids > 0).then(|| {
            let rows = pw.viewport_rows.min(kids);
            let max_start = kids - rows;
            let start = ((pw.scroll_pos / 100.0) * max_start as f64).round() as usize;
            (start.min(max_start), rows)
        })
    } else {
        None
    };

    for (i, &c) in pw.children.iter().filter(shown).enumerate() {
        let cw = tree.widget(c);
        let in_viewport = match viewport {
            Some((start, rows)) => i >= start && i < start + rows,
            None => true,
        };
        let off = forced_off || !in_viewport;

        let at = *row;
        let rect = if cw.control_type == dmi_uia::ControlType::ScrollBar {
            // Scrollbars hug the right edge of their window, full height.
            Rect::new(wrect.x + wrect.w - 18, wrect.y, 18, wrect.h)
        } else if off {
            Rect::new(0, 0, 0, 0)
        } else {
            let d = depth as i32;
            *row += 1;
            Rect::new(wrect.x + d * 8, row_y(wrect, at), (wrect.w - d * 16).max(40), ROW_H - 2)
        };
        match visit(Placed { id: c, depth, rect, offscreen: off, row: at }) {
            Step::Descend => place_children(tree, c, wrect, row, depth + 1, off, visit),
            Step::SkipTo(end) => *row = end,
        }
    }
}

/// The y of the row that the row counter `row` reaches in the window
/// `wrect`: rows wrap modulo the rows the window shows.
fn row_y(wrect: Rect, row: i32) -> i32 {
    wrect.y + row.rem_euclid((wrect.h / ROW_H).max(1)) * ROW_H
}

/// Where the walk of the window at stack position `wi` places a widget of
/// control type `ty`, off-screen flag `offscreen` and rectangle `rect`
/// when it reaches the widget `shift` rows later (earlier, if negative),
/// as it does every widget of a block whose root moved by `shift` rows: a
/// row moves by the shift modulo [`window_rows`], while scroll bars and
/// off-screen widgets keep their rectangles, which no row places.
pub fn shift_rect(
    wi: usize,
    ty: dmi_uia::ControlType,
    offscreen: bool,
    rect: Rect,
    shift: i32,
) -> Rect {
    if ty == dmi_uia::ControlType::ScrollBar || offscreen {
        return rect;
    }
    let wrect = window_rect(wi);
    Rect { y: row_y(wrect, (rect.y - wrect.y) / ROW_H + shift), ..rect }
}

/// Converts a y-coordinate on a scrollbar track to a scroll percentage.
pub fn scrollbar_percent(track: Rect, y: i32) -> f64 {
    if track.h <= 0 {
        return 0.0;
    }
    let rel = (y - track.y).clamp(0, track.h) as f64 / track.h as f64;
    (rel * 100.0).clamp(0.0, 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::widget::{Widget, WidgetBuilder};
    use dmi_uia::ControlType as CT;
    use std::collections::HashMap;

    /// Every row the walk places in the open windows of `t`: rect and
    /// off-screen flag per visited widget.
    fn rows(t: &UiTree) -> HashMap<WidgetId, (Rect, bool)> {
        let mut rows = HashMap::new();
        for (wi, win) in t.open_windows().iter().enumerate() {
            walk_window(t, win.root, wi, |p| {
                rows.insert(p.id, (p.rect, p.offscreen));
                Step::Descend
            });
        }
        rows
    }

    #[test]
    fn walk_visits_shown_widgets_in_pre_order_with_depths() {
        let mut t = UiTree::new();
        let main = t.add_root(Widget::new("Main", CT::Window));
        let grp = t.add(main, Widget::new("G", CT::Group));
        let a = t.add(grp, Widget::new("A", CT::Button));
        let menu = t.add(main, WidgetBuilder::new("M", CT::Menu).popup().build());
        t.add(menu, Widget::new("H", CT::MenuItem));
        let b = t.add(main, Widget::new("B", CT::Button));
        let mut seen = Vec::new();
        walk_window(&t, main, 0, |p| {
            seen.push((p.id, p.depth, p.rect.y));
            Step::Descend
        });
        let rows: Vec<_> = (0..5).map(|r| r * ROW_H).collect();
        assert_eq!(
            seen,
            [(main, 0, 0), (grp, 1, rows[1]), (a, 2, rows[2]), (menu, 1, rows[3]), (b, 1, rows[4])]
        );
    }

    #[test]
    fn a_skipped_subtree_advances_the_rows_it_takes() {
        let mut t = UiTree::new();
        let main = t.add_root(Widget::new("Main", CT::Window));
        let grp = t.add(main, Widget::new("G", CT::Group));
        t.add(grp, Widget::new("A", CT::Button));
        t.add(grp, Widget::new("B", CT::Button));
        let after = t.add(main, Widget::new("After", CT::Button));
        let full = rows(&t);
        let mut skipped = HashMap::new();
        let end = walk_window(&t, main, 0, |p| {
            skipped.insert(p.id, (p.rect, p.offscreen));
            if p.id == grp {
                Step::SkipTo(p.row + 3)
            } else {
                Step::Descend
            }
        });
        assert_eq!(skipped.len(), 3, "the group's children are not visited");
        assert_eq!(skipped[&after], full[&after]);
        assert_eq!(end, 5);
        assert_eq!(window_rows(0), SCREEN_H / ROW_H);
    }

    #[test]
    fn shifting_a_walk_equals_walking_from_the_shifted_row() {
        // A lead menu, then a block taller than any window: a scroll bar
        // and a viewport whose last rows are off-screen, one with a child.
        for lead in [3, 40] {
            let mut t = UiTree::new();
            let main = t.add_root(Widget::new("Main", CT::Window));
            let menu = t.add(main, WidgetBuilder::new("Lead", CT::Menu).popup().build());
            for i in 0..lead {
                t.add(menu, Widget::new(format!("L{i}"), CT::MenuItem));
            }
            let block = t.add(main, Widget::new("Block", CT::Group));
            let doc = t.add(block, WidgetBuilder::new("Doc", CT::Document).scrollable(40).build());
            t.add(block, WidgetBuilder::new("Bar", CT::ScrollBar).scroll_target(doc).build());
            let rows: Vec<WidgetId> =
                (0..44).map(|i| t.add(doc, Widget::new(format!("P{i}"), CT::Text))).collect();
            t.add(rows[43], Widget::new("Run", CT::Text));
            for wi in [0, 1] {
                let walk = |t: &UiTree| {
                    let mut placed = HashMap::new();
                    walk_window(t, main, wi, |p| {
                        if t.root_and_block_of(p.id).1 == Some(block) {
                            placed.insert(p.id, (t.widget(p.id).control_type, p.offscreen, p.rect));
                        }
                        Step::Descend
                    });
                    placed
                };
                let closed = walk(&t);
                t.open_popup(menu);
                let open = walk(&t);
                t.collapse_popup(menu);
                assert_eq!(closed.len(), 1 + 1 + 1 + 44 + 1);
                assert!(closed.values().any(|&(ty, _, _)| ty == CT::ScrollBar));
                assert_eq!(closed.values().filter(|&&(_, off, _)| off).count(), 5);
                let moved = |from: &HashMap<WidgetId, (CT, bool, Rect)>, shift: i32| {
                    let mut to = from.clone();
                    for (ty, off, rect) in to.values_mut() {
                        *rect = shift_rect(wi, *ty, *off, *rect, shift);
                    }
                    to
                };
                assert_eq!(moved(&closed, lead), open, "lead {lead}, window {wi}");
                assert_eq!(moved(&open, -lead), closed, "lead -{lead}, window {wi}");
            }
        }
    }

    #[test]
    fn window_rects_cascade() {
        assert_eq!(window_rect(0), Rect::new(0, 0, SCREEN_W, SCREEN_H));
        let d1 = window_rect(1);
        let d2 = window_rect(2);
        assert_eq!(d2.x - d1.x, 24);
    }

    #[test]
    fn shown_widgets_get_rects() {
        let mut t = UiTree::new();
        let main = t.add_root(Widget::new("Main", CT::Window));
        let a = t.add(main, Widget::new("A", CT::Button));
        let menu = t.add(main, WidgetBuilder::new("M", CT::Menu).popup().build());
        let hidden = t.add(menu, Widget::new("H", CT::MenuItem));
        let l = rows(&t);
        assert!(l.contains_key(&a));
        assert!(!l.contains_key(&hidden));
        assert_eq!(l[&main], (window_rect(0), false));
    }

    #[test]
    fn scroll_viewport_marks_offscreen() {
        let mut t = UiTree::new();
        let main = t.add_root(Widget::new("Main", CT::Window));
        let doc = t.add(main, WidgetBuilder::new("Doc", CT::Document).scrollable(3).build());
        let items: Vec<WidgetId> =
            (0..10).map(|i| t.add(doc, Widget::new(format!("P{i}"), CT::Text))).collect();
        let l = rows(&t);
        assert!(!l[&items[0]].1);
        assert!(!l[&items[2]].1);
        assert!(l[&items[5]].1);
        assert!(l[&items[9]].1);

        // Scroll to the end: last items become visible, first off-screen.
        t.widget_mut(doc).scroll_pos = 100.0;
        let l = rows(&t);
        assert!(l[&items[0]].1);
        assert!(!l[&items[9]].1);
    }

    #[test]
    fn scrollbar_hugs_right_edge_and_percent_maps() {
        let mut t = UiTree::new();
        let main = t.add_root(Widget::new("Main", CT::Window));
        let doc = t.add(main, WidgetBuilder::new("Doc", CT::Document).scrollable(3).build());
        let sb =
            t.add(main, WidgetBuilder::new("Vertical", CT::ScrollBar).scroll_target(doc).build());
        let r = rows(&t)[&sb].0;
        assert_eq!(r.x, SCREEN_W - 18);
        assert_eq!(r.h, SCREEN_H);
        assert!((scrollbar_percent(r, r.y) - 0.0).abs() < 1e-9);
        assert!((scrollbar_percent(r, r.y + r.h) - 100.0).abs() < 1e-9);
        assert!((scrollbar_percent(r, r.y + r.h / 2) - 50.0).abs() < 1.0);
    }

    #[test]
    fn descendants_of_offscreen_rows_are_offscreen() {
        let mut t = UiTree::new();
        let main = t.add_root(Widget::new("Main", CT::Window));
        let doc = t.add(main, WidgetBuilder::new("Doc", CT::Document).scrollable(1).build());
        let p0 = t.add(doc, Widget::new("P0", CT::Text));
        let p1 = t.add(doc, Widget::new("P1", CT::Text));
        let run = t.add(p1, Widget::new("Run", CT::Text));
        let l = rows(&t);
        assert!(!l[&p0].1);
        assert!(l[&p1].1);
        assert!(l[&run].1);
    }
}
