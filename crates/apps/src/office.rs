//! Shared Office-style UI scaffolding.
//!
//! All three simulated applications are assembled from the same chrome:
//! a ribbon (tab strip + groups), popup galleries, color-picker split
//! buttons, modal dialogs with OK/Cancel, and a File backstage. The
//! builders here deliberately reproduce the *structural hazards* the paper
//! evaluates against:
//!
//! - **merge nodes**: shared dialogs (the "Colors" dialog, "Format
//!   Cells") reachable from several openers, with path-dependent semantics
//!   carried through application state set by the opener;
//! - **cycles**: OK/Cancel/Close buttons re-reveal the controls the modal
//!   dialog hid, producing back-edges during ripping;
//! - **ambiguous names**: palette cells named "Blue" exist under many
//!   menus; "OK" exists in every dialog;
//! - **rip hazards**: `Account`-style buttons jump to external apps.

use crate::model::color;
use dmi_gui::{Behavior, CommandBinding, CommitKind, UiTree, Widget, WidgetBuilder, WidgetId};
use dmi_uia::{ControlType as CT, PatternKind};
use std::sync::Arc;

/// A prebuilt launch-state image of an application: the fully constructed
/// widget arena plus the document model. `GuiApp::reset` restores from
/// this with `clone_from` and `GuiApp::fork` clones it, instead of
/// re-running widget-tree construction. Both share the image's arena
/// chunks copy-on-write (see [`UiTree`]), so they cost the chunks the live
/// tree had copied plus the document model. Held behind an [`Arc`] so the
/// immutable image is shared, never rebuilt, by the app and all its forks.
#[derive(Debug)]
pub struct Pristine<D: Clone> {
    tree: UiTree,
    doc: D,
}

impl<D: Clone> Pristine<D> {
    /// Captures the launch state. Call once, at the end of construction.
    pub fn capture(tree: &UiTree, doc: &D) -> Arc<Pristine<D>> {
        Arc::new(Pristine { tree: tree.clone(), doc: doc.clone() })
    }

    /// The captured widget arena. Restore with `clone_from`: it shares the
    /// image's chunks and advances the tree's capture epochs past both
    /// lineages, so stale cached captures can never validate against the
    /// restored state.
    pub fn tree(&self) -> &UiTree {
        &self.tree
    }

    /// The captured document model.
    pub fn doc(&self) -> &D {
        &self.doc
    }
}

/// Well-known command names shared across the apps.
pub mod commands {
    /// Opens the shared "Colors" dialog; arg = color target property.
    pub const OPEN_MORE_COLORS: &str = "open_more_colors";
    /// Applies a color to the property selected by the opener; arg = color.
    pub const APPLY_COLOR_CTX: &str = "apply_color_ctx";
}

/// Handles to the chrome every app shares.
#[derive(Debug, Clone, Copy)]
pub struct Chrome {
    /// Main window root.
    pub main: WidgetId,
    /// Ribbon tab strip.
    pub ribbon: WidgetId,
    /// The shared "Colors" (more colors) dialog root.
    pub more_colors: WidgetId,
    /// The status bar.
    pub status_bar: WidgetId,
}

/// Builds the main window, title bar, quick-access toolbar, ribbon strip,
/// shared Colors dialog, and status bar.
pub fn build_chrome(tree: &mut UiTree, title: &str) -> Chrome {
    let main =
        tree.add_root(WidgetBuilder::new(title, CT::Window).automation_id("AppWindow").build());
    let tb = tree.add(main, Widget::new("Title Bar", CT::TitleBar));
    tree.add(
        tb,
        WidgetBuilder::new("Account", CT::Button)
            .automation_id("AccountButton")
            .help("Sign in to your account (opens a web browser).")
            .on_click(Behavior::OpenExternal)
            .build(),
    );
    tree.add(tb, WidgetBuilder::new("Minimize", CT::Button).on_click(Behavior::None).build());
    tree.add(tb, WidgetBuilder::new("Restore Down", CT::Button).on_click(Behavior::None).build());
    // Quick access toolbar.
    let qat = tree.add(main, Widget::new("Quick Access Toolbar", CT::ToolBar));
    for (name, cmd) in [("Save", "save"), ("Undo", "undo"), ("Redo", "redo")] {
        tree.add(
            qat,
            WidgetBuilder::new(name, CT::Button)
                .on_click(Behavior::Command(CommandBinding::new(cmd)))
                .build(),
        );
    }
    let ribbon =
        tree.add(main, WidgetBuilder::new("Ribbon", CT::Tab).automation_id("RibbonTabs").build());
    let more_colors = build_more_colors_dialog(tree);
    let status_bar = tree.add(main, Widget::new("Status Bar", CT::StatusBar));
    tree.add(status_bar, Widget::new("Page 1 of 1", CT::Text));
    tree.add(status_bar, Widget::new("100%", CT::Text));
    Chrome { main, ribbon, more_colors, status_bar }
}

/// Adds a ribbon tab. The first selected tab hosts the default panel.
pub fn add_tab(tree: &mut UiTree, ribbon: WidgetId, name: &str, selected: bool) -> WidgetId {
    let mut b = WidgetBuilder::new(name, CT::TabItem)
        .automation_id(format!("Tab{}", name.replace(' ', "")))
        .help(format!("{name} tab."))
        .on_click(Behavior::SwitchTab);
    if selected {
        b = b.selected();
    }
    tree.add(ribbon, b.build())
}

/// Adds a context tab shown only while `ctx` is active.
pub fn add_context_tab(tree: &mut UiTree, ribbon: WidgetId, name: &str, ctx: &str) -> WidgetId {
    tree.add(
        ribbon,
        WidgetBuilder::new(name, CT::TabItem)
            .automation_id(format!("Tab{}", name.replace(' ', "")))
            .on_click(Behavior::SwitchTab)
            .visible_when(ctx)
            .build(),
    )
}

/// Adds a ribbon group under a tab.
pub fn add_group(tree: &mut UiTree, tab: WidgetId, name: &str) -> WidgetId {
    tree.add(tab, WidgetBuilder::new(name, CT::Group).help(format!("{name} group.")).build())
}

/// Adds a command button.
pub fn button(
    tree: &mut UiTree,
    parent: WidgetId,
    name: &str,
    command: &str,
    arg: Option<&str>,
) -> WidgetId {
    let binding = match arg {
        Some(a) => CommandBinding::with_arg(command, a),
        None => CommandBinding::new(command),
    };
    tree.add(
        parent,
        WidgetBuilder::new(name, CT::Button)
            .help(format!("{name}."))
            .on_click(Behavior::Command(binding))
            .build(),
    )
}

/// Adds a toggle button bound to a command (arg carries the property name).
pub fn toggle_button(tree: &mut UiTree, parent: WidgetId, name: &str, prop: &str) -> WidgetId {
    tree.add(
        parent,
        WidgetBuilder::new(name, CT::Button)
            .automation_id(format!("Toggle{}", prop))
            .help(format!("Toggle {name}."))
            .toggle_state(false)
            .on_click(Behavior::Toggle)
            .binding(CommandBinding::with_arg("toggle_format", prop))
            .build(),
    )
}

/// Adds a popup gallery: a split button whose children are item cells that
/// dispatch `command` with the item label as the argument and dismiss.
pub fn gallery(
    tree: &mut UiTree,
    parent: WidgetId,
    name: &str,
    items: &[String],
    command: &str,
) -> WidgetId {
    let g = tree.add(
        parent,
        WidgetBuilder::new(name, CT::SplitButton)
            .automation_id(format!("Gallery{}", name.replace([' ', '&'], "")))
            .help(format!("{name} gallery."))
            .popup()
            .on_click(Behavior::OpenMenu)
            .build(),
    );
    for item in items {
        tree.add(
            g,
            WidgetBuilder::new(item.clone(), CT::ListItem)
                .help(format!("{item}. Option in the {name} gallery; click to apply."))
                .on_click(Behavior::CommandAndDismiss(CommandBinding::with_arg(
                    command,
                    item.clone(),
                )))
                .build(),
        );
    }
    g
}

/// Adds a dropdown menu of named entries with explicit behaviors.
pub fn menu(
    tree: &mut UiTree,
    parent: WidgetId,
    name: &str,
    entries: &[(&str, Behavior)],
) -> WidgetId {
    let m = tree.add(
        parent,
        WidgetBuilder::new(name, CT::SplitButton)
            .help(format!("{name} menu."))
            .popup()
            .on_click(Behavior::OpenMenu)
            .build(),
    );
    for (label, behavior) in entries {
        tree.add(m, WidgetBuilder::new(*label, CT::MenuItem).on_click(behavior.clone()).build());
    }
    m
}

/// Adds a full color-picker split button: 60 theme cells + 10 standard
/// cells dispatching `command` directly, plus a "More Colors..." entry that
/// routes through the shared Colors dialog with `target` as the color
/// context (the merge-node path semantics).
pub fn color_menu(
    tree: &mut UiTree,
    parent: WidgetId,
    name: &str,
    command: &str,
    target: &str,
) -> WidgetId {
    let m = tree.add(
        parent,
        WidgetBuilder::new(name, CT::SplitButton)
            .automation_id(format!("Color{}", target.replace(' ', "")))
            .help(format!("{name}: pick a color."))
            .popup()
            .on_click(Behavior::OpenMenu)
            .build(),
    );
    let theme = tree.add(m, Widget::new("Theme Colors", CT::Group));
    for v in 0..color::VARIANTS.len() {
        for b in 0..color::THEME_BASES.len() {
            let c = color::theme_color(b, v);
            tree.add(
                theme,
                WidgetBuilder::new(c.clone(), CT::ListItem)
                    .help(format!("{c}. Theme color swatch under {name}."))
                    .on_click(Behavior::CommandAndDismiss(CommandBinding::with_arg(command, c)))
                    .build(),
            );
        }
    }
    let std_grp = tree.add(m, Widget::new("Standard Colors", CT::Group));
    for s in color::STANDARD {
        tree.add(
            std_grp,
            WidgetBuilder::new(s, CT::ListItem)
                .help(format!("{s}. Standard color swatch under {name}."))
                .on_click(Behavior::CommandAndDismiss(CommandBinding::with_arg(command, s)))
                .build(),
        );
    }
    tree.add(
        m,
        WidgetBuilder::new("More Colors...", CT::MenuItem)
            .help("Choose a custom color.")
            .on_click(Behavior::CommandAndDismiss(CommandBinding::with_arg(
                commands::OPEN_MORE_COLORS,
                target,
            )))
            .build(),
    );
    m
}

/// Builds the shared "Colors" dialog (a merge node: reachable from every
/// color menu). Cells dispatch [`commands::APPLY_COLOR_CTX`]; the target
/// property was chosen by the opener.
fn build_more_colors_dialog(tree: &mut UiTree) -> WidgetId {
    let dlg = tree.add_root(
        WidgetBuilder::new("Colors", CT::Window).automation_id("MoreColorsDialog").build(),
    );
    let honeycomb = tree.add(dlg, Widget::new("Custom Colors", CT::List));
    for i in 0..24 {
        let c = format!("Custom {i}");
        tree.add(
            honeycomb,
            WidgetBuilder::new(c.clone(), CT::ListItem)
                .on_click(Behavior::Command(CommandBinding::with_arg(commands::APPLY_COLOR_CTX, c)))
                .build(),
        );
    }
    tree.add(
        dlg,
        WidgetBuilder::new("OK", CT::Button)
            .on_click(Behavior::CloseWindow(CommitKind::Ok))
            .build(),
    );
    tree.add(
        dlg,
        WidgetBuilder::new("Cancel", CT::Button)
            .on_click(Behavior::CloseWindow(CommitKind::Cancel))
            .build(),
    );
    dlg
}

/// Builds a modal dialog skeleton with OK and Cancel buttons. Returns
/// `(dialog root, body pane)`.
pub fn dialog(tree: &mut UiTree, title: &str) -> (WidgetId, WidgetId) {
    let dlg = tree.add_root(
        WidgetBuilder::new(title, CT::Window)
            .automation_id(format!("Dialog{}", title.replace([' ', '.'], "")))
            .build(),
    );
    let body = tree.add(dlg, Widget::new("Body", CT::Pane));
    tree.add(
        dlg,
        WidgetBuilder::new("OK", CT::Button)
            .on_click(Behavior::CloseWindow(CommitKind::Ok))
            .build(),
    );
    tree.add(
        dlg,
        WidgetBuilder::new("Cancel", CT::Button)
            .on_click(Behavior::CloseWindow(CommitKind::Cancel))
            .build(),
    );
    (dlg, body)
}

/// Adds an opener button for a dialog.
pub fn dialog_launcher(tree: &mut UiTree, parent: WidgetId, name: &str, dlg: WidgetId) -> WidgetId {
    tree.add(
        parent,
        WidgetBuilder::new(name, CT::Button)
            .help(format!("Open the {name} dialog."))
            .on_click(Behavior::OpenDialog(dlg))
            .build(),
    )
}

/// Adds a labeled edit field with a commit binding (Enter commits).
pub fn edit_field(
    tree: &mut UiTree,
    parent: WidgetId,
    name: &str,
    commit_command: &str,
) -> WidgetId {
    tree.add(
        parent,
        WidgetBuilder::new(name, CT::Edit)
            .help(format!("{name} (press Enter to commit)."))
            .on_click(Behavior::FocusEdit)
            .binding(CommandBinding::new(commit_command))
            .build(),
    )
}

/// Adds a checkbox bound to a command.
pub fn checkbox(tree: &mut UiTree, parent: WidgetId, name: &str, prop: &str) -> WidgetId {
    tree.add(
        parent,
        WidgetBuilder::new(name, CT::CheckBox)
            .toggle_state(false)
            .on_click(Behavior::Toggle)
            .binding(CommandBinding::with_arg("toggle_format", prop))
            .build(),
    )
}

/// Adds a radio button group; each option dispatches `command` with its
/// label.
pub fn radio_group(
    tree: &mut UiTree,
    parent: WidgetId,
    group_name: &str,
    options: &[&str],
    command: &str,
) -> WidgetId {
    let g = tree.add(parent, Widget::new(group_name, CT::Group));
    for o in options {
        tree.add(
            g,
            WidgetBuilder::new(*o, CT::RadioButton)
                .pattern(PatternKind::SelectionItem)
                .on_click(Behavior::Select)
                .binding(CommandBinding::with_arg(command, *o))
                .build(),
        );
    }
    g
}

/// The standard font list (a "large enumeration" the core topology prunes).
pub fn font_names() -> Vec<String> {
    let bases = [
        "Arial",
        "Calibri",
        "Cambria",
        "Candara",
        "Consolas",
        "Constantia",
        "Corbel",
        "Courier New",
        "Franklin Gothic",
        "Garamond",
        "Georgia",
        "Gill Sans",
        "Helvetica",
        "Impact",
        "Lato",
        "Lucida Sans",
        "Palatino",
        "Rockwell",
        "Segoe UI",
        "Tahoma",
        "Times New Roman",
        "Trebuchet MS",
        "Verdana",
        "Book Antiqua",
    ];
    let weights = [
        "",
        " Light",
        " Semibold",
        " Black",
        " Condensed",
        " Narrow",
        " Italic",
        " Display",
        " Text",
    ];
    let mut out = Vec::new();
    for b in bases {
        for w in weights {
            out.push(format!("{b}{w}"));
        }
    }
    out
}

/// The symbol gallery contents (another large enumeration).
pub fn symbol_names(count: usize) -> Vec<String> {
    (0..count).map(|i| format!("Symbol U+{:04X}", 0x2200 + i)).collect()
}

/// Builds the File backstage menu shared by the apps. Returns its id.
pub fn build_backstage(tree: &mut UiTree, main: WidgetId) -> WidgetId {
    let file = tree.add(
        main,
        WidgetBuilder::new("File", CT::MenuItem)
            .automation_id("FileTabButton")
            .help("File backstage.")
            .popup()
            .on_click(Behavior::OpenMenu)
            .build(),
    );
    let new_menu = tree.add(
        file,
        WidgetBuilder::new("New", CT::MenuItem).popup().on_click(Behavior::OpenMenu).build(),
    );
    for i in 0..24 {
        tree.add(
            new_menu,
            WidgetBuilder::new(format!("Template {i}"), CT::ListItem)
                .on_click(Behavior::CommandAndDismiss(CommandBinding::with_arg(
                    "new_from_template",
                    format!("Template {i}"),
                )))
                .build(),
        );
    }
    let open_menu = tree.add(
        file,
        WidgetBuilder::new("Open", CT::MenuItem).popup().on_click(Behavior::OpenMenu).build(),
    );
    for i in 0..16 {
        tree.add(
            open_menu,
            WidgetBuilder::new(format!("Recent Document {i}"), CT::ListItem)
                .on_click(Behavior::CommandAndDismiss(CommandBinding::with_arg(
                    "open_recent",
                    format!("{i}"),
                )))
                .build(),
        );
    }
    for (name, cmd) in [("Save", "save"), ("Save As", "save_as"), ("Print", "print")] {
        tree.add(
            file,
            WidgetBuilder::new(name, CT::MenuItem)
                .on_click(Behavior::CommandAndDismiss(CommandBinding::new(cmd)))
                .build(),
        );
    }
    // Feedback jumps to an external browser — a rip blocklist candidate.
    tree.add(
        file,
        WidgetBuilder::new("Feedback", CT::MenuItem).on_click(Behavior::OpenExternal).build(),
    );
    file
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_has_account_hazard() {
        let mut t = UiTree::new();
        let c = build_chrome(&mut t, "Word");
        let acct = t.find_by_automation_id("AccountButton").unwrap();
        assert!(t.widget(acct).on_click.is_rip_hazard());
        assert_eq!(t.widget(c.main).name, "Word");
    }

    #[test]
    fn color_menu_has_71_entries_plus_groups() {
        let mut t = UiTree::new();
        let c = build_chrome(&mut t, "X");
        let tab = add_tab(&mut t, c.ribbon, "Home", true);
        let grp = add_group(&mut t, tab, "Font");
        let m = color_menu(&mut t, grp, "Font Color", "set_font_color", "font");
        let cells = t
            .descendants(m)
            .into_iter()
            .filter(|&i| t.widget(i).control_type == CT::ListItem)
            .count();
        assert_eq!(cells, 70);
        let more =
            t.descendants(m).into_iter().find(|&i| t.widget(i).name == "More Colors...").unwrap();
        assert!(matches!(t.widget(more).on_click, Behavior::CommandAndDismiss(_)));
    }

    #[test]
    fn shared_colors_dialog_is_separate_root() {
        let mut t = UiTree::new();
        let c = build_chrome(&mut t, "X");
        assert_ne!(t.root_of(c.more_colors), c.main);
        assert!(!t.is_window_open(c.more_colors));
    }

    #[test]
    fn font_names_is_large_enumeration() {
        assert!(font_names().len() >= 200);
    }

    #[test]
    fn dialog_has_ok_cancel() {
        let mut t = UiTree::new();
        let _ = build_chrome(&mut t, "X");
        let (dlg, _body) = dialog(&mut t, "Paragraph");
        let names: Vec<String> =
            t.descendants(dlg).iter().map(|&i| t.widget(i).name.clone()).collect();
        assert!(names.contains(&"OK".to_string()));
        assert!(names.contains(&"Cancel".to_string()));
    }

    #[test]
    fn backstage_contains_external_jump() {
        let mut t = UiTree::new();
        let c = build_chrome(&mut t, "X");
        let f = build_backstage(&mut t, c.main);
        let fb = t.descendants(f).into_iter().find(|&i| t.widget(i).name == "Feedback").unwrap();
        assert!(t.widget(fb).on_click.is_rip_hazard());
    }

    #[test]
    fn gallery_items_dispatch_with_label() {
        let mut t = UiTree::new();
        let c = build_chrome(&mut t, "X");
        let items: Vec<String> = (0..5).map(|i| format!("Style {i}")).collect();
        let g = gallery(&mut t, c.main, "Styles", &items, "apply_style");
        let first = t.widget(g).children[0];
        match &t.widget(first).on_click {
            Behavior::CommandAndDismiss(b) => {
                assert_eq!(b.command, "apply_style");
                assert_eq!(b.arg.as_deref(), Some("Style 0"));
            }
            other => panic!("unexpected behavior {other:?}"),
        }
    }
}
