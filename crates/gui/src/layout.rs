//! Deterministic layout: assigns bounding rectangles and off-screen flags.
//!
//! The layout is intentionally simple — the paper's claims concern
//! structure, not pixel aesthetics — but it is *consistent*: hit testing,
//! coordinate clicks, scrollbar drags, and off-screen computation all agree
//! with the rectangles produced here.
//!
//! Scheme: each open window gets a fixed rectangle (the main window fills
//! the virtual screen; dialogs cascade). Within a window, shown widgets are
//! stacked as 22-pixel rows in depth-first order, indented by depth.
//! Children of a scrollable container participate only while inside the
//! viewport window determined by `scroll_pos`; the rest are marked
//! off-screen (they stay in the accessibility tree, like real UIA).
//!
//! Rows are computed *per window* ([`compute_window`]) and never cached:
//! the capture pipeline (`crate::snapshot`) lays out only the windows it
//! re-walks, whose nodes it visits anyway, and the input paths (hit
//! testing, drags, wheel) lay out every open window with [`compute`],
//! since hit testing walks every descendant regardless.

use crate::tree::UiTree;
use crate::widget::WidgetId;
use dmi_uia::Rect;
use std::collections::HashMap;

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

/// The rows of one open window: rectangle and off-screen flag per shown
/// widget under that window's root (root included). A window's rows
/// depend only on its stack position (the window rect cascade) and its
/// own subtree — never on other windows.
#[derive(Debug, Clone, Default)]
pub struct WindowLayout {
    entries: HashMap<WidgetId, (Rect, bool)>,
}

impl WindowLayout {
    /// The rect assigned to a widget, if it was laid out in this window.
    pub fn rect(&self, id: WidgetId) -> Option<Rect> {
        self.entries.get(&id).map(|(r, _)| *r)
    }

    /// Whether the widget was laid out here but is off-screen.
    pub fn offscreen(&self, id: WidgetId) -> bool {
        self.entries.get(&id).map(|(_, o)| *o).unwrap_or(false)
    }
}

/// Layout result: one [`WindowLayout`] per open window, bottom to top.
///
/// Widgets belong to exactly one arena root, so the per-window maps are
/// disjoint and lookups simply probe each window in turn (there are at
/// most a handful of open windows).
#[derive(Debug, Clone, Default)]
pub struct Layout {
    windows: Vec<WindowLayout>,
}

impl Layout {
    /// The rect assigned to a widget, if it was laid out.
    pub fn rect(&self, id: WidgetId) -> Option<Rect> {
        self.windows.iter().find_map(|w| w.rect(id))
    }

    /// Whether the widget was laid out but is off-screen.
    pub fn offscreen(&self, id: WidgetId) -> bool {
        self.windows.iter().any(|w| w.offscreen(id))
    }
}

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

/// Computes the rows of the window rooted at `root` sitting at stack
/// position `wi`.
pub fn compute_window(tree: &UiTree, root: WidgetId, wi: usize) -> WindowLayout {
    let mut wl = WindowLayout::default();
    let wrect = window_rect(wi);
    wl.entries.insert(root, (wrect, false));
    let mut row = 1i32; // row 0 is the window chrome
    place_children(tree, root, wrect, &mut row, 1, &mut wl, false);
    wl
}

/// Computes the layout for every widget shown in an open window.
pub fn compute(tree: &UiTree) -> Layout {
    Layout {
        windows: tree
            .open_windows()
            .iter()
            .enumerate()
            .map(|(wi, win)| compute_window(tree, win.root, wi))
            .collect(),
    }
}

/// Recursively places the shown children of `parent`.
#[allow(clippy::too_many_arguments)]
fn place_children(
    tree: &UiTree,
    parent: WidgetId,
    wrect: Rect,
    row: &mut i32,
    depth: i32,
    layout: &mut WindowLayout,
    forced_off: bool,
) {
    let pw = tree.widget(parent);
    let kids: Vec<WidgetId> = pw.children.iter().copied().filter(|&c| tree.is_shown(c)).collect();

    // Viewport window for scrollable containers.
    let viewport: Option<(usize, usize)> = if pw.scrollable && !kids.is_empty() {
        let rows = pw.viewport_rows.min(kids.len());
        let max_start = kids.len() - rows;
        let start = ((pw.scroll_pos / 100.0) * max_start as f64).round() as usize;
        Some((start.min(max_start), rows))
    } else {
        None
    };

    for (i, &c) in kids.iter().enumerate() {
        let cw = tree.widget(c);
        let in_viewport = match viewport {
            Some((start, rows)) => i >= start && i < start + rows,
            None => true,
        };
        let off = forced_off || !in_viewport;

        let rect = if cw.control_type == dmi_uia::ControlType::ScrollBar {
            // Scrollbars hug the right edge of their window, full height.
            Rect::new(wrect.x + wrect.w - 18, wrect.y, 18, wrect.h)
        } else if off {
            Rect::new(0, 0, 0, 0)
        } else {
            let y = wrect.y + (*row % ((wrect.h / ROW_H).max(1))) * ROW_H;
            let x = wrect.x + depth * 8;
            *row += 1;
            Rect::new(x, y, (wrect.w - depth * 16).max(40), ROW_H - 2)
        };
        layout.entries.insert(c, (rect, off));
        place_children(tree, c, wrect, row, depth + 1, layout, off);
    }
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
        let l = compute(&t);
        assert!(l.rect(a).is_some());
        assert!(l.rect(hidden).is_none());
        assert!(l.rect(main).is_some());
    }

    #[test]
    fn scroll_viewport_marks_offscreen() {
        let mut t = UiTree::new();
        let main = t.add_root(Widget::new("Main", CT::Window));
        let doc = t.add(main, WidgetBuilder::new("Doc", CT::Document).scrollable(3).build());
        let items: Vec<WidgetId> =
            (0..10).map(|i| t.add(doc, Widget::new(format!("P{i}"), CT::Text))).collect();
        let l = compute(&t);
        assert!(!l.offscreen(items[0]));
        assert!(!l.offscreen(items[2]));
        assert!(l.offscreen(items[5]));
        assert!(l.offscreen(items[9]));

        // Scroll to the end: last items become visible, first off-screen.
        t.widget_mut(doc).scroll_pos = 100.0;
        let l = compute(&t);
        assert!(l.offscreen(items[0]));
        assert!(!l.offscreen(items[9]));
    }

    #[test]
    fn scrollbar_hugs_right_edge_and_percent_maps() {
        let mut t = UiTree::new();
        let main = t.add_root(Widget::new("Main", CT::Window));
        let doc = t.add(main, WidgetBuilder::new("Doc", CT::Document).scrollable(3).build());
        let sb =
            t.add(main, WidgetBuilder::new("Vertical", CT::ScrollBar).scroll_target(doc).build());
        let l = compute(&t);
        let r = l.rect(sb).unwrap();
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
        let l = compute(&t);
        assert!(!l.offscreen(p0));
        assert!(l.offscreen(p1));
        assert!(l.offscreen(run));
    }
}
