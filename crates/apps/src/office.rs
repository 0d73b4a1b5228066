//! Shared Office-style UI scaffolding, and [`OfficeApp`]: the one launch
//! image, its launch captures, `reset` and `fork` of all three apps.
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
use dmi_gui::{
    AppError, Behavior, CommandBinding, CommitKind, GuiApp, LaunchCaptures, UiTree, Widget,
    WidgetBuilder, WidgetId,
};
use dmi_uia::{ControlType as CT, PatternKind};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// The model of one Office app: its widget tree, document, session
/// scalars and widget handles — everything a launch restores. `Clone` is
/// the launch: [`OfficeApp`] clones the model it was constructed as.
pub trait OfficeModel: Clone + Send + Sync + 'static {
    /// The provider-side control tree.
    fn tree(&self) -> &UiTree;

    /// Mutable access to the control tree.
    fn tree_mut(&mut self) -> &mut UiTree;

    /// Executes a semantic command bound to `source`.
    fn dispatch(&mut self, source: WidgetId, binding: &CommandBinding) -> Result<(), AppError>;
}

/// A launched Office app: the live model plus the launch image it was
/// constructed as, shared behind an [`Arc`] by the app and all its forks.
/// `GuiApp::fork` clones the image and `GuiApp::reset` is the same clone
/// in place, instead of re-running widget-tree construction. The image's
/// widget arena is shared copy-on-write (see [`UiTree`]), so both cost
/// the chunks the live tree had copied plus the rest of the model. Beside
/// the image sit its launch captures (`GuiApp::launch_captures`), which
/// therefore live exactly as long as the image; `reset` leaves the app
/// equal to that image, stamps included, so a restarted session is
/// served them as a fresh fork's is.
///
/// Dereferences to the model, so `WordApp::doc` and the like read through.
pub struct OfficeApp<M> {
    live: M,
    image: Arc<Image<M>>,
}

/// The launch image: the model as constructed, and one capture of its
/// launch state per name-variation model.
struct Image<M> {
    model: M,
    captures: LaunchCaptures,
}

impl<M: OfficeModel> OfficeApp<M> {
    /// Launches a freshly constructed model, which becomes the image:
    /// every fork and every reset clones it, stamps included.
    pub fn launch(model: M) -> Self {
        let image = Image { model: model.clone(), captures: LaunchCaptures::default() };
        OfficeApp { image: Arc::new(image), live: model }
    }
}

impl<M> Deref for OfficeApp<M> {
    type Target = M;

    fn deref(&self) -> &M {
        &self.live
    }
}

impl<M> DerefMut for OfficeApp<M> {
    fn deref_mut(&mut self) -> &mut M {
        &mut self.live
    }
}

impl<M: OfficeModel> GuiApp for OfficeApp<M> {
    fn tree(&self) -> &UiTree {
        self.live.tree()
    }

    fn tree_mut(&mut self) -> &mut UiTree {
        self.live.tree_mut()
    }

    fn dispatch(&mut self, source: WidgetId, binding: &CommandBinding) -> Result<(), AppError> {
        self.live.dispatch(source, binding)
    }

    fn reset(&mut self) {
        self.live = self.image.model.clone();
    }

    fn fork(&self) -> Option<Box<dyn GuiApp>> {
        let live = self.image.model.clone();
        Some(Box::new(OfficeApp { live, image: Arc::clone(&self.image) }))
    }

    fn launch_captures(&self) -> Option<(&UiTree, &LaunchCaptures)> {
        Some((self.image.model.tree(), &self.image.captures))
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

/// Adds a context tab, hidden until the application writes its
/// `visible` flag.
pub fn add_context_tab(tree: &mut UiTree, ribbon: WidgetId, name: &str) -> WidgetId {
    let mut tab = WidgetBuilder::new(name, CT::TabItem)
        .automation_id(format!("Tab{}", name.replace(' ', "")))
        .on_click(Behavior::SwitchTab)
        .build();
    tab.visible = false;
    tree.add(ribbon, tab)
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
    use dmi_gui::{CaptureConfig, CaptureStats, InstabilityModel, Session};
    use dmi_uia::Snapshot;

    /// The widgets at or below `root`, in arena order.
    fn subtree(t: &UiTree, root: WidgetId) -> Vec<WidgetId> {
        let under = |i| std::iter::successors(Some(i), |&c| t.widget(c).parent).any(|c| c == root);
        t.iter().map(|(i, _)| i).filter(|&i| under(i)).collect()
    }

    /// `reset` is `fork` in place: a driven app, once reset, carries a
    /// fresh fork's epochs and every window and block stamp, and a
    /// restarted cached session's first capture is the launch capture a
    /// fresh fork's session is served.
    #[test]
    fn reset_is_a_fork() {
        let app = small_word();
        let surface = app.doc_surface();
        let menu = app.tree().iter().find(|(_, w)| w.popup).expect("a popup").0;
        let mut driven = app.fork().unwrap();
        let t = driven.tree_mut();
        t.widget_mut(surface).name.push_str(" (edited)");
        t.open_popup(menu);
        driven.reset();
        let fresh = app.fork().unwrap();
        let (a, b) = (driven.tree(), fresh.tree());
        assert_eq!(a.state_epoch(), b.state_epoch());
        for (id, _) in b.iter() {
            assert_eq!(a.window_stamp(id), b.window_stamp(id), "window {id:?}");
            assert_eq!(a.block_stamp(id), b.block_stamp(id), "block {id:?}");
        }
        assert_eq!(a.widget(surface).name, b.widget(surface).name);
        assert!(a.open_popups().is_empty());

        let inst = InstabilityModel::new(11, 0.2, 0.3);
        let mut s = Session::with_instability(app.fork().unwrap(), inst.clone());
        s.app_mut().tree_mut().widget_mut(surface).name.push_str(" (edited)");
        s.snapshot();
        s.restart();
        let (launch, _) = first_capture(app.fork().unwrap(), &inst);
        assert!(Arc::ptr_eq(&s.snapshot(), &launch), "the restart is served the launch capture");
    }

    fn small_word() -> crate::WordApp {
        crate::WordApp::with_config(crate::WordConfig { paragraphs: 4, viewport_rows: 2 })
    }

    /// A new session's first capture of `app` under `inst`, checked
    /// against a full rebuild of a fresh construction, and the session's
    /// capture counters after it.
    fn first_capture(
        app: Box<dyn GuiApp>,
        inst: &InstabilityModel,
    ) -> (Arc<Snapshot>, CaptureStats) {
        let mut s = Session::with_instability(app, inst.clone());
        let snap = s.snapshot();
        let mut oracle = Session::with_instability(Box::new(small_word()), inst.clone());
        oracle.set_capture_config(CaptureConfig::full_rebuild());
        assert!(*snap == *oracle.snapshot(), "the first capture matches the full rebuild");
        (snap, s.capture_stats())
    }

    /// Whether a first capture was served from the launch table.
    fn hit(stats: CaptureStats) -> bool {
        stats.full_hits == 1 && stats.windows_rebuilt == 0
    }

    /// Models that vary no name share one entry, whatever their seed and
    /// late loads. The table stops at its capacity: a model past it is
    /// not seeded, so its first captures are counted rebuilds that its
    /// forks do not share.
    #[test]
    fn launch_captures_stop_at_capacity() {
        let app = small_word();
        let (off, off_stats) = first_capture(app.fork().unwrap(), &InstabilityModel::off());
        let zero = InstabilityModel::new(5, 0.5, 0.0);
        let (same, same_stats) = first_capture(app.fork().unwrap(), &zero);
        assert!(hit(off_stats) && hit(same_stats), "both first captures hit");
        assert!(Arc::ptr_eq(&off, &same), "one entry for both");
        // The shared entry takes one place, so the last three models find
        // the table full.
        for seed in 0..LaunchCaptures::CAPACITY + 2 {
            let inst = InstabilityModel::new(seed as u64, 0.0, 0.5);
            let (a, a_stats) = first_capture(app.fork().unwrap(), &inst);
            let (b, b_stats) = first_capture(app.fork().unwrap(), &inst);
            let kept = seed + 1 < LaunchCaptures::CAPACITY;
            assert_eq!(hit(a_stats) && hit(b_stats), kept, "model {seed}: hits iff in the table");
            if !kept {
                assert!(a_stats.full_hits + b_stats.full_hits == 0, "model {seed}: no hit");
                assert!(a_stats.windows_rebuilt > 0 && b_stats.windows_rebuilt > 0);
            }
            assert_eq!(Arc::ptr_eq(&a, &b), kept, "model {seed}: shared iff in the table");
        }
        assert_eq!(app.image.captures.len(), LaunchCaptures::CAPACITY);
    }

    #[test]
    fn concurrent_first_uses_of_a_model_build_one_entry() {
        let app = small_word();
        let inst = InstabilityModel::new(11, 0.2, 0.3);
        // Both threads fork first and start their sessions together.
        let start = std::sync::Barrier::new(2);
        let snaps: Vec<Arc<Snapshot>> = std::thread::scope(|scope| {
            let session = || {
                let fork = app.fork().unwrap();
                start.wait();
                first_capture(fork, &inst)
            };
            let forks: Vec<_> = (0..2).map(|_| scope.spawn(session)).collect();
            forks
                .into_iter()
                .map(|h| h.join().unwrap())
                .map(|(snap, stats)| {
                    assert!(hit(stats), "each thread's first capture hits");
                    snap
                })
                .collect()
        });
        assert!(Arc::ptr_eq(&snaps[0], &snaps[1]), "both threads got the one entry");
        assert_eq!(app.image.captures.len(), 1);
    }

    /// A fork driven before it is wrapped in a session misses the launch
    /// capture, whether a stamped write or a structural popup open
    /// drove it.
    #[test]
    fn a_driven_app_is_never_served_the_launch_capture() {
        let app = small_word();
        let inst = InstabilityModel::off();
        let (launch, stats) = first_capture(app.fork().unwrap(), &inst);
        assert!(hit(stats));
        let surface = app.doc_surface();
        let menu = app.tree().iter().find(|(_, w)| w.popup).expect("a popup").0;
        let edits: [fn(&mut UiTree, WidgetId, WidgetId); 2] = [
            |t, surface, _| t.widget_mut(surface).name.push_str(" (edited)"),
            |t, _, menu| t.open_popup(menu),
        ];
        for edit in edits {
            let mut driven = app.fork().unwrap();
            let mut built = small_word();
            edit(driven.tree_mut(), surface, menu);
            edit(built.tree_mut(), surface, menu);
            let mut s = Session::with_instability(driven, inst.clone());
            let snap = s.snapshot();
            assert_eq!(s.capture_stats().full_hits, 0, "a driven tree misses");
            assert!(s.capture_stats().blocks_reused > 0, "and copies the entry's clean blocks");
            assert!(!Arc::ptr_eq(&snap, &launch));
            let mut oracle = Session::with_instability(Box::new(built), inst.clone());
            oracle.set_capture_config(CaptureConfig::full_rebuild());
            assert!(*snap == *oracle.snapshot(), "the miss matches the full rebuild");
        }
    }

    /// A restart seeds the cache with the launch capture and its block
    /// records, whose keys the restarted tree carries: the first write
    /// after it re-walks only the written block.
    #[test]
    fn a_restart_adopts_the_launch_capture_with_its_blocks() {
        let app = small_word();
        let inst = InstabilityModel::off();
        let surface = app.doc_surface();
        let mut s = Session::with_instability(app.fork().unwrap(), inst.clone());
        let mut oracle = Session::with_instability(app.fork().unwrap(), inst);
        oracle.set_capture_config(CaptureConfig::full_rebuild());
        let blocks = app.tree().widget(app.chrome().main).children.len() as u64;
        for round in 0..2 {
            for session in [&mut s, &mut oracle] {
                session.restart();
                session.app_mut().tree_mut().widget_mut(surface).name.push_str(" (edited)");
            }
            let before = s.capture_stats();
            assert!(*s.snapshot() == *oracle.snapshot(), "round {round}: matches the oracle");
            let after = s.capture_stats();
            assert_eq!(after.windows_rebuilt - before.windows_rebuilt, 1, "round {round}");
            assert_eq!(after.blocks_reused - before.blocks_reused, blocks - 1, "round {round}");
        }
    }

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
        let cells = subtree(&t, m)
            .into_iter()
            .filter(|&i| t.widget(i).control_type == CT::ListItem)
            .count();
        assert_eq!(cells, 70);
        let more =
            subtree(&t, m).into_iter().find(|&i| t.widget(i).name == "More Colors...").unwrap();
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
            subtree(&t, dlg).iter().map(|&i| t.widget(i).name.clone()).collect();
        assert!(names.contains(&"OK".to_string()));
        assert!(names.contains(&"Cancel".to_string()));
    }

    #[test]
    fn backstage_contains_external_jump() {
        let mut t = UiTree::new();
        let c = build_chrome(&mut t, "X");
        let f = build_backstage(&mut t, c.main);
        let fb = subtree(&t, f).into_iter().find(|&i| t.widget(i).name == "Feedback").unwrap();
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
