//! The simulated PowerPoint application.
//!
//! Carries the paper's running example (Table 1 Task 1: "make the
//! background blue on all slides" through Design → Format Background →
//! Solid fill → Fill Color → Blue → Apply to All), the context-dependent
//! "Picture Format" tab that appears only while an image is selected
//! (§4.1 context-aware exploration; the model shows and hides the tab by
//! writing its `visible` flag), slide thumbnails whose selection
//! reveals per-slide shapes, and presentation-mode controls that trap the
//! UI (rip blocklist candidates).

use crate::model::deck::{Deck, Shape};
use crate::office::{self, commands, Chrome, OfficeApp, OfficeModel};
use dmi_gui::{AppError, Behavior, CommandBinding, UiTree, WidgetBuilder, WidgetId};
use dmi_uia::ControlType as CT;

/// Build-time options for the simulated PowerPoint instance.
#[derive(Debug, Clone)]
pub struct PowerPointConfig {
    /// Number of slides in the deck.
    pub slides: usize,
    /// Thumbnails visible in the slide panel viewport.
    pub viewport_rows: usize,
}

impl Default for PowerPointConfig {
    fn default() -> Self {
        PowerPointConfig { slides: 20, viewport_rows: 10 }
    }
}

/// The simulated PowerPoint application: a [`PowerPoint`] model launched
/// as an [`OfficeApp`].
pub type PowerPointApp = OfficeApp<PowerPoint>;

/// The PowerPoint model: widget tree, deck, session state and handles.
#[derive(Debug, Clone)]
pub struct PowerPoint {
    tree: UiTree,
    /// The deck model.
    pub deck: Deck,
    color_target: String,
    chrome: Chrome,
    thumbnails: WidgetId,
    canvas: WidgetId,
    notes: WidgetId,
    /// The Picture Format tab, shown only while an image is selected.
    picture_format: WidgetId,
    /// Per-slide shape widgets (canvas children), toggled with the
    /// current slide; inserting shapes at runtime grows it.
    shape_widgets: Vec<Vec<WidgetId>>,
}

impl PowerPointApp {
    /// Creates the app with a default 20-slide deck.
    pub fn new() -> Self {
        Self::with_config(PowerPointConfig::default())
    }

    /// Creates the app with explicit options.
    pub fn with_config(config: PowerPointConfig) -> Self {
        let mut deck = Deck::with_slides(config.slides);
        // Give a middle slide an image so the context tab is reachable.
        if config.slides > 2 {
            deck.slides[1].shapes.push(Shape::new("image", "logo.png"));
        }
        let mut tree = UiTree::new();
        let chrome = office::build_chrome(&mut tree, "Presentation1 - PowerPoint");
        office::build_backstage(&mut tree, chrome.main);
        let built = build_ui(&mut tree, &chrome, &config, &deck);
        apply_slide_visibility(&mut tree, &deck, &built.shape_widgets);
        apply_selection_context(&mut tree, &deck, built.picture_format);
        OfficeApp::launch(PowerPoint {
            tree,
            deck,
            color_target: "background".into(),
            chrome,
            thumbnails: built.thumbnails,
            canvas: built.canvas,
            notes: built.notes,
            picture_format: built.picture_format,
            shape_widgets: built.shape_widgets,
        })
    }
}

impl PowerPoint {
    /// The slide-thumbnail list widget.
    pub fn thumbnails(&self) -> WidgetId {
        self.thumbnails
    }

    /// The slide canvas pane.
    pub fn canvas(&self) -> WidgetId {
        self.canvas
    }

    /// The notes edit control.
    pub fn notes_widget(&self) -> WidgetId {
        self.notes
    }

    /// The chrome handles.
    pub fn chrome(&self) -> Chrome {
        self.chrome
    }

    /// Toggles canvas shape visibility so only the current slide's shapes
    /// show, and syncs the Picture Format tab with the selection.
    fn show_current_slide(&mut self) {
        apply_slide_visibility(&mut self.tree, &self.deck, &self.shape_widgets);
        self.sync_selection_context();
    }

    fn sync_selection_context(&mut self) {
        apply_selection_context(&mut self.tree, &self.deck, self.picture_format);
    }
}

/// Shows only the current slide's shapes on the canvas.
fn apply_slide_visibility(tree: &mut UiTree, deck: &Deck, shape_widgets: &[Vec<WidgetId>]) {
    for (slide, shapes) in shape_widgets.iter().enumerate() {
        for &w in shapes {
            tree.widget_mut(w).visible = slide == deck.current;
        }
    }
}

/// Shows the Picture Format tab exactly while an image is selected. The
/// write happens only when the flag changes, so an unchanged selection
/// moves no stamp and no state epoch.
fn apply_selection_context(tree: &mut UiTree, deck: &Deck, tab: WidgetId) {
    let img = deck.selected().is_some_and(|s| s.kind == "image");
    if tree.widget(tab).visible != img {
        tree.widget_mut(tab).visible = img;
    }
}

impl Default for PowerPointApp {
    fn default() -> Self {
        Self::new()
    }
}

struct Built {
    thumbnails: WidgetId,
    canvas: WidgetId,
    notes: WidgetId,
    picture_format: WidgetId,
    shape_widgets: Vec<Vec<WidgetId>>,
}

fn build_ui(tree: &mut UiTree, chrome: &Chrome, config: &PowerPointConfig, deck: &Deck) -> Built {
    let fonts = office::font_names();

    // ---------------- Home tab ----------------
    let home = office::add_tab(tree, chrome.ribbon, "Home", true);
    let slides_grp = office::add_group(tree, home, "Slides");
    let layouts: Vec<String> = [
        "Title Slide",
        "Title and Content",
        "Section Header",
        "Two Content",
        "Comparison",
        "Title Only",
        "Blank",
        "Content with Caption",
        "Picture with Caption",
    ]
    .map(String::from)
    .to_vec();
    office::gallery(tree, slides_grp, "New Slide", &layouts, "new_slide");
    office::gallery(tree, slides_grp, "Layout", &layouts, "set_layout");
    office::button(tree, slides_grp, "Reset", "reset_slide", None);

    let font_grp = office::add_group(tree, home, "Font");
    office::gallery(tree, font_grp, "Font Name", &fonts, "set_font");
    let sizes: Vec<String> =
        [10, 12, 14, 16, 18, 20, 24, 28, 32, 36, 40, 44, 54, 60, 66, 72, 80, 88, 96]
            .map(|s| s.to_string())
            .to_vec();
    office::gallery(tree, font_grp, "Font Size", &sizes, "set_font_size");
    office::toggle_button(tree, font_grp, "Bold", "bold");
    office::toggle_button(tree, font_grp, "Italic", "italic");
    office::toggle_button(tree, font_grp, "Underline", "underline");
    office::color_menu(tree, font_grp, "Font Color", "set_font_color", "font");

    let draw_grp = office::add_group(tree, home, "Drawing");
    let shape_cats = [
        "Lines",
        "Rectangles",
        "Basic Shapes",
        "Block Arrows",
        "Flowchart",
        "Stars and Banners",
        "Callouts",
        "Action Buttons",
    ];
    let shapes_menu = tree.add(
        draw_grp,
        WidgetBuilder::new("Shapes", CT::SplitButton).popup().on_click(Behavior::OpenMenu).build(),
    );
    for cat in shape_cats {
        let sub = tree.add(
            shapes_menu,
            WidgetBuilder::new(cat, CT::MenuItem).popup().on_click(Behavior::OpenMenu).build(),
        );
        for i in 0..18 {
            tree.add(
                sub,
                WidgetBuilder::new(format!("{cat} Shape {i}"), CT::ListItem)
                    .on_click(Behavior::CommandAndDismiss(CommandBinding::with_arg(
                        "insert_shape",
                        format!("{cat} Shape {i}"),
                    )))
                    .build(),
            );
        }
    }
    let quick: Vec<String> = (0..42).map(|i| format!("Shape Style {i}")).collect();
    office::gallery(tree, draw_grp, "Quick Styles", &quick, "apply_shape_style");
    office::color_menu(tree, draw_grp, "Shape Fill", "set_shape_fill", "shape-fill");
    office::color_menu(tree, draw_grp, "Shape Outline", "set_shape_outline", "shape-outline");

    // ---------------- Insert tab ----------------
    let insert = office::add_tab(tree, chrome.ribbon, "Insert", false);
    let ig = office::add_group(tree, insert, "Images");
    let (pic_dlg, pic_body) = office::dialog(tree, "Insert Picture");
    office::edit_field(tree, pic_body, "File name", "set_picture_name");
    office::button(tree, pic_body, "Insert", "insert_picture", None);
    office::dialog_launcher(tree, ig, "Pictures", pic_dlg);
    let tg = office::add_group(tree, insert, "Text");
    office::button(tree, tg, "Text Box", "insert_textbox", None);
    let (hf_dlg, hf_body) = office::dialog(tree, "Header and Footer");
    office::checkbox(tree, hf_body, "Date and time", "hf_date");
    office::checkbox(tree, hf_body, "Slide number", "hf_number");
    office::edit_field(tree, hf_body, "Footer", "set_slide_footer");
    office::dialog_launcher(tree, tg, "Header & Footer", hf_dlg);
    let wordart: Vec<String> = (0..15).map(|i| format!("WordArt Style {i}")).collect();
    office::gallery(tree, tg, "WordArt", &wordart, "insert_wordart");
    let sg = office::add_group(tree, insert, "Symbols");
    office::gallery(tree, sg, "Symbol", &office::symbol_names(240), "insert_symbol");
    let ill = office::add_group(tree, insert, "Illustrations");
    let smart: Vec<String> = (0..48).map(|i| format!("SmartArt {i}")).collect();
    office::gallery(tree, ill, "SmartArt", &smart, "insert_smartart");
    let icons: Vec<String> = (0..150).map(|i| format!("Icon {i}")).collect();
    office::gallery(tree, ill, "Icons", &icons, "insert_icon");
    let models: Vec<String> = (0..60).map(|i| format!("3D Model {i}")).collect();
    office::gallery(tree, ill, "3D Models", &models, "insert_3d_model");
    let stock: Vec<String> = (0..100).map(|i| format!("Stock Image {i}")).collect();
    office::gallery(tree, ig, "Stock Images", &stock, "insert_stock_image");
    let charts: Vec<String> = ["Column", "Line", "Pie", "Bar"]
        .iter()
        .flat_map(|k| (0..12).map(move |i| format!("{k} Chart {i}")))
        .collect();
    office::gallery(tree, ill, "Chart", &charts, "insert_chart");

    // ---------------- Design tab ----------------
    let design = office::add_tab(tree, chrome.ribbon, "Design", false);
    let themes_grp = office::add_group(tree, design, "Themes");
    let themes: Vec<String> = (0..44).map(|i| format!("Theme {i}")).collect();
    office::gallery(tree, themes_grp, "Themes", &themes, "apply_theme");
    let var_grp = office::add_group(tree, design, "Variants");
    let variants: Vec<String> = (0..16).map(|i| format!("Variant {i}")).collect();
    office::gallery(tree, var_grp, "Variants", &variants, "apply_variant");
    let cust = office::add_group(tree, design, "Customize");
    // Slide Size menu.
    let (ss_dlg, ss_body) = office::dialog(tree, "Slide Size");
    office::radio_group(
        tree,
        ss_body,
        "Slide size",
        &["Standard (4:3)", "Widescreen (16:9)"],
        "set_slide_size",
    );
    let ss_menu = tree.add(
        cust,
        WidgetBuilder::new("Slide Size", CT::SplitButton)
            .automation_id("SlideSize")
            .popup()
            .on_click(Behavior::OpenMenu)
            .build(),
    );
    for o in ["Standard (4:3)", "Widescreen (16:9)"] {
        tree.add(
            ss_menu,
            WidgetBuilder::new(o, CT::MenuItem)
                .on_click(Behavior::CommandAndDismiss(CommandBinding::with_arg(
                    "set_slide_size",
                    o,
                )))
                .build(),
        );
    }
    tree.add(
        ss_menu,
        WidgetBuilder::new("Custom Slide Size...", CT::MenuItem)
            .on_click(Behavior::OpenDialog(ss_dlg))
            .build(),
    );
    // Format Background dialog: the Table 1 Task 1 path.
    let fb_dlg = tree.add_root(
        WidgetBuilder::new("Format Background", CT::Window)
            .automation_id("FormatBackgroundPane")
            .build(),
    );
    office::radio_group(
        tree,
        fb_dlg,
        "Fill",
        &["Solid fill", "Gradient fill", "Picture or texture fill", "Pattern fill"],
        "set_bg_fill_kind",
    );
    office::color_menu(tree, fb_dlg, "Fill Color", "set_bg_color", "background");
    office::button(tree, fb_dlg, "Apply to All", "bg_apply_to_all", None);
    office::button(tree, fb_dlg, "Reset Background", "bg_reset", None);
    tree.add(
        fb_dlg,
        WidgetBuilder::new("Close", CT::Button)
            .on_click(Behavior::CloseWindow(dmi_gui::CommitKind::Close))
            .build(),
    );
    office::dialog_launcher(tree, cust, "Format Background", fb_dlg);

    // ---------------- Transitions tab ----------------
    let trans = office::add_tab(tree, chrome.ribbon, "Transitions", false);
    let tt = office::add_group(tree, trans, "Transition to This Slide");
    let transitions: Vec<String> = [
        "None",
        "Morph",
        "Fade",
        "Push",
        "Wipe",
        "Split",
        "Reveal",
        "Random Bars",
        "Shape",
        "Uncover",
        "Cover",
        "Flash",
        "Fall Over",
        "Drape",
        "Curtains",
        "Wind",
        "Prestige",
        "Fracture",
        "Crush",
        "Peel Off",
        "Page Curl",
        "Airplane",
        "Origami",
        "Dissolve",
        "Checkerboard",
        "Blinds",
        "Clock",
        "Ripple",
        "Honeycomb",
        "Glitter",
        "Vortex",
        "Shred",
        "Switch",
        "Flip",
        "Gallery",
        "Cube",
        "Doors",
        "Box",
        "Comb",
        "Zoom",
        "Pan",
        "Ferris Wheel",
        "Conveyor",
        "Rotate",
        "Window",
        "Orbit",
        "Fly Through",
    ]
    .map(String::from)
    .to_vec();
    office::gallery(tree, tt, "Transition Styles", &transitions, "set_transition");
    let effect_opts: Vec<String> = [
        "From Right",
        "From Left",
        "From Top",
        "From Bottom",
        "Horizontal In",
        "Horizontal Out",
        "Vertical In",
        "Vertical Out",
    ]
    .map(String::from)
    .to_vec();
    office::gallery(tree, tt, "Effect Options", &effect_opts, "set_transition_effect");
    let timing = office::add_group(tree, trans, "Timing");
    office::button(tree, timing, "Apply To All", "transition_apply_all", None);
    office::edit_field(tree, timing, "Duration", "set_transition_duration");

    // ---------------- Animations tab ----------------
    let anim = office::add_tab(tree, chrome.ribbon, "Animations", false);
    let ag = office::add_group(tree, anim, "Animation");
    let animations: Vec<String> = [
        "Appear",
        "Fade",
        "Fly In",
        "Float In",
        "Split",
        "Wipe",
        "Shape",
        "Wheel",
        "Random Bars",
        "Grow & Turn",
        "Zoom",
        "Swivel",
        "Bounce",
        "Pulse",
        "Color Pulse",
        "Teeter",
        "Spin",
        "Grow/Shrink",
        "Desaturate",
        "Darken",
        "Lighten",
        "Transparency",
        "Object Color",
        "Complementary Color",
        "Line Color",
        "Fill Color",
    ]
    .map(String::from)
    .to_vec();
    office::gallery(tree, ag, "Animation Styles", &animations, "set_animation");
    office::gallery(tree, ag, "Add Animation", &animations, "set_animation");

    // ---------------- Slide Show tab (trap hazards) ----------------
    let show = office::add_tab(tree, chrome.ribbon, "Slide Show", false);
    let start = office::add_group(tree, show, "Start Slide Show");
    tree.add(
        start,
        WidgetBuilder::new("From Beginning", CT::Button).on_click(Behavior::Trap).build(),
    );
    tree.add(
        start,
        WidgetBuilder::new("From Current Slide", CT::Button).on_click(Behavior::Trap).build(),
    );

    // ---------------- View tab ----------------
    let view = office::add_tab(tree, chrome.ribbon, "View", false);
    let vg = office::add_group(tree, view, "Presentation Views");
    for v in ["Normal", "Outline View", "Slide Sorter", "Notes Page", "Reading View"] {
        office::button(tree, vg, v, "set_view", Some(v));
    }
    let show_grp = office::add_group(tree, view, "Show");
    office::checkbox(tree, show_grp, "Ruler", "show_ruler");
    office::checkbox(tree, show_grp, "Gridlines", "show_gridlines");
    office::checkbox(tree, show_grp, "Show Notes", "show_notes");

    // ---------------- Picture Format context tab ----------------
    let pic_tab = office::add_context_tab(tree, chrome.ribbon, "Picture Format");
    let ps = office::add_group(tree, pic_tab, "Picture Styles");
    let pstyles: Vec<String> = (0..28).map(|i| format!("Picture Style {i}")).collect();
    office::gallery(tree, ps, "Picture Quick Styles", &pstyles, "apply_picture_style");
    office::color_menu(tree, ps, "Picture Border", "set_picture_border", "picture-border");
    let adj = office::add_group(tree, pic_tab, "Adjust");
    office::button(tree, adj, "Remove Background", "remove_background", None);
    let corrections: Vec<String> = (0..12).map(|i| format!("Correction {i}")).collect();
    office::gallery(tree, adj, "Corrections", &corrections, "apply_correction");
    let size_grp = office::add_group(tree, pic_tab, "Size");
    office::button(tree, size_grp, "Crop", "crop_picture", None);
    office::edit_field(tree, size_grp, "Height", "set_picture_height");
    office::edit_field(tree, size_grp, "Width", "set_picture_width");

    // ---------------- Slide panel, canvas, notes ----------------
    let thumbnails = tree.add(
        chrome.main,
        WidgetBuilder::new("Slide Thumbnails", CT::List)
            .automation_id("SlidePanel")
            .scrollable(config.viewport_rows)
            .build(),
    );
    for i in 0..config.slides {
        tree.add(
            thumbnails,
            WidgetBuilder::new(format!("Slide {}", i + 1), CT::ListItem)
                .on_click(Behavior::Select)
                .binding(CommandBinding::with_arg("select_slide", i.to_string()))
                .build(),
        );
    }
    tree.add(
        chrome.main,
        WidgetBuilder::new("Slide Panel Scroll Bar", CT::ScrollBar)
            .automation_id("SlidePanelScroll")
            .scroll_target(thumbnails)
            .build(),
    );
    let canvas = tree.add(
        chrome.main,
        WidgetBuilder::new("Slide Canvas", CT::Pane).automation_id("SlideCanvas").build(),
    );
    let mut shape_widgets = Vec::with_capacity(config.slides);
    for (si, slide) in deck.slides.iter().enumerate() {
        let mut ids = Vec::new();
        for (pi, shape) in slide.shapes.iter().enumerate() {
            let id = tree.add(
                canvas,
                WidgetBuilder::new(format!("{} {}", shape.kind, pi + 1), CT::Image)
                    .value(shape.text.clone())
                    .pattern(dmi_uia::PatternKind::SelectionItem)
                    .on_click(Behavior::Select)
                    .binding(CommandBinding::with_arg("select_shape", format!("{si}:{pi}")))
                    .build(),
            );
            ids.push(id);
        }
        shape_widgets.push(ids);
    }
    let notes = tree.add(
        chrome.main,
        WidgetBuilder::new("Notes", CT::Edit)
            .automation_id("NotesPane")
            .help("Click to add notes; press Enter to commit.")
            .on_click(Behavior::FocusEdit)
            .binding(CommandBinding::new("set_notes"))
            .build(),
    );

    Built { thumbnails, canvas, notes, picture_format: pic_tab, shape_widgets }
}

impl OfficeModel for PowerPoint {
    fn tree(&self) -> &UiTree {
        &self.tree
    }

    fn tree_mut(&mut self) -> &mut UiTree {
        &mut self.tree
    }

    fn dispatch(&mut self, src: WidgetId, b: &CommandBinding) -> Result<(), AppError> {
        let arg = b.arg.as_deref();
        match b.command.as_str() {
            "select_slide" => {
                let i: usize = arg.unwrap_or("0").parse().unwrap_or(0);
                if i < self.deck.slides.len() {
                    self.deck.current = i;
                    self.deck.selected_shape = None;
                    self.show_current_slide();
                }
                Ok(())
            }
            "select_shape" => {
                let s = arg.unwrap_or("0:0");
                let (si, pi) = s.split_once(':').unwrap_or(("0", "0"));
                let si: usize = si.parse().unwrap_or(0);
                let pi: usize = pi.parse().unwrap_or(0);
                if si == self.deck.current {
                    self.deck.selected_shape = Some(pi);
                    self.sync_selection_context();
                }
                Ok(())
            }
            "set_bg_fill_kind" => Ok(()),
            "set_bg_color" => {
                let c = arg.unwrap_or_default();
                self.deck.set_background(c, false);
                Ok(())
            }
            "bg_apply_to_all" => {
                if let Some(c) = self.deck.current_slide().background.clone() {
                    self.deck.set_background(&c, true);
                }
                Ok(())
            }
            "bg_reset" => {
                self.deck.current_slide_mut().background = None;
                Ok(())
            }
            commands::OPEN_MORE_COLORS => {
                self.color_target = arg.unwrap_or("background").to_string();
                let dlg = self.chrome.more_colors;
                self.tree.open_window(dlg, true);
                Ok(())
            }
            commands::APPLY_COLOR_CTX => {
                if self.color_target == "background" {
                    self.deck.set_background(arg.unwrap_or_default(), false);
                }
                Ok(())
            }
            "set_transition" => {
                self.deck.current_slide_mut().transition = Some(arg.unwrap_or("Fade").to_string());
                Ok(())
            }
            "transition_apply_all" => {
                if let Some(t) = self.deck.current_slide().transition.clone() {
                    for s in &mut self.deck.slides {
                        s.transition = Some(t.clone());
                    }
                }
                Ok(())
            }
            "set_animation" => {
                let a = arg.unwrap_or("Fade").to_string();
                if let Some(pi) = self.deck.selected_shape {
                    if let Some(sh) = self.deck.current_slide_mut().shapes.get_mut(pi) {
                        sh.animation = Some(a);
                    }
                    Ok(())
                } else {
                    Err(AppError::Command {
                        command: "set_animation".into(),
                        reason: "no shape selected".into(),
                    })
                }
            }
            "insert_textbox" => {
                let cur = self.deck.current;
                self.deck.slides[cur].shapes.push(Shape::new("textbox", "New text box"));
                let pi = self.deck.slides[cur].shapes.len() - 1;
                let canvas = self.canvas;
                let id = self.tree.add(
                    canvas,
                    WidgetBuilder::new(format!("textbox {}", pi + 1), CT::Edit)
                        .on_click(Behavior::FocusEdit)
                        .binding(CommandBinding::with_arg("set_shape_text", format!("{cur}:{pi}")))
                        .build(),
                );
                self.shape_widgets[cur].push(id);
                self.deck.selected_shape = Some(pi);
                self.sync_selection_context();
                Ok(())
            }
            "set_shape_text" => {
                let text = self.tree.widget(src).value.clone();
                let s = b.arg.as_deref().unwrap_or("0:0");
                let (si, pi) = s.split_once(':').unwrap_or(("0", "0"));
                let si: usize = si.parse().unwrap_or(0);
                let pi: usize = pi.parse().unwrap_or(0);
                if let Some(sh) = self.deck.slides.get_mut(si).and_then(|s| s.shapes.get_mut(pi)) {
                    sh.text = text;
                }
                Ok(())
            }
            "insert_picture" => {
                let cur = self.deck.current;
                self.deck.slides[cur].shapes.push(Shape::new("image", "inserted.png"));
                let pi = self.deck.slides[cur].shapes.len() - 1;
                let canvas = self.canvas;
                let id = self.tree.add(
                    canvas,
                    WidgetBuilder::new(format!("image {}", pi + 1), CT::Image)
                        .pattern(dmi_uia::PatternKind::SelectionItem)
                        .on_click(Behavior::Select)
                        .binding(CommandBinding::with_arg("select_shape", format!("{cur}:{pi}")))
                        .build(),
                );
                self.shape_widgets[cur].push(id);
                self.deck.selected_shape = Some(pi);
                self.sync_selection_context();
                Ok(())
            }
            "set_font_size" => {
                let size: f64 = arg.unwrap_or("18").parse().unwrap_or(18.0);
                if let Some(pi) = self.deck.selected_shape {
                    if let Some(sh) = self.deck.current_slide_mut().shapes.get_mut(pi) {
                        sh.font_size = size;
                    }
                }
                Ok(())
            }
            "set_notes" => {
                self.deck.current_slide_mut().notes = self.tree.widget(src).value.clone();
                Ok(())
            }
            "set_slide_size" => {
                self.deck.slide_size = arg.unwrap_or("Widescreen (16:9)").to_string();
                Ok(())
            }
            "set_slide_footer" => {
                let text = self.tree.widget(src).value.clone();
                self.deck.current_slide_mut().notes = format!("footer:{text}");
                Ok(())
            }
            "new_slide" => {
                let mut slide = crate::model::deck::Slide::titled("New slide");
                slide.layout = arg.unwrap_or("Title and Content").to_string();
                self.deck.slides.push(slide);
                self.shape_widgets.push(Vec::new());
                Ok(())
            }
            "apply_picture_style" | "apply_shape_style" => {
                if let Some(pi) = self.deck.selected_shape {
                    let style = arg.unwrap_or_default().to_string();
                    if let Some(sh) = self.deck.current_slide_mut().shapes.get_mut(pi) {
                        sh.style = Some(style);
                    }
                }
                Ok(())
            }
            "set_layout" => {
                self.deck.current_slide_mut().layout = arg.unwrap_or_default().to_string();
                Ok(())
            }
            "apply_theme" => {
                self.deck.theme = arg.unwrap_or("Office").to_string();
                Ok(())
            }
            "move_slide" => {
                let s = arg.unwrap_or("0:0");
                let (f, t) = s.split_once(':').unwrap_or(("0", "0"));
                self.deck.reorder(f.parse().unwrap_or(0), t.parse().unwrap_or(0));
                self.show_current_slide();
                Ok(())
            }
            "set_font"
            | "set_font_color"
            | "toggle_format"
            | "set_shape_fill"
            | "set_shape_outline"
            | "apply_variant"
            | "reset_slide"
            | "insert_shape"
            | "insert_wordart"
            | "insert_symbol"
            | "insert_smartart"
            | "insert_chart"
            | "set_picture_border"
            | "remove_background"
            | "apply_correction"
            | "crop_picture"
            | "set_picture_height"
            | "set_picture_width"
            | "set_picture_name"
            | "set_view"
            | "set_transition_duration"
            | "set_transition_effect"
            | "insert_icon"
            | "insert_3d_model"
            | "insert_stock_image"
            | "save"
            | "save_as"
            | "undo"
            | "redo"
            | "print"
            | "new_from_template"
            | "open_recent" => Ok(()),
            other => {
                Err(AppError::Command { command: other.into(), reason: "unknown command".into() })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmi_gui::{CaptureConfig, Session};
    use std::any::Any;

    fn session() -> Session {
        Session::new(Box::new(PowerPointApp::with_config(PowerPointConfig {
            slides: 5,
            viewport_rows: 5,
        })))
    }

    fn ppt(s: &Session) -> &PowerPointApp {
        (s.app() as &dyn Any).downcast_ref::<PowerPointApp>().unwrap()
    }

    fn click_by_name(s: &mut Session, name: &str) {
        let shown: Vec<_> = s
            .app()
            .tree()
            .iter()
            .filter(|(i, w)| w.name == name && s.app().tree().is_shown(*i))
            .map(|(i, _)| i)
            .collect();
        assert!(!shown.is_empty(), "no visible '{name}'");
        s.click(shown[0]).unwrap();
    }

    #[test]
    fn table1_task1_blue_background_on_all_slides() {
        // The paper's Table 1 Task 1, executed imperatively.
        let mut s = session();
        click_by_name(&mut s, "Design");
        click_by_name(&mut s, "Format Background");
        click_by_name(&mut s, "Solid fill");
        click_by_name(&mut s, "Fill Color");
        // The standard "Blue" cell (two Blues exist; standard group's one).
        let tree = s.app().tree();
        let blues: Vec<_> = tree
            .iter()
            .filter(|(i, w)| w.name == "Blue" && tree.is_shown(*i))
            .map(|(i, _)| i)
            .collect();
        assert!(blues.len() >= 2, "ambiguous Blue cells visible");
        s.click(*blues.last().unwrap()).unwrap();
        click_by_name(&mut s, "Apply to All");
        assert!(ppt(&s).deck.slides.iter().all(|sl| sl.background.as_deref() == Some("Blue")));
    }

    #[test]
    fn thumbnail_selection_switches_slide_and_shapes() {
        let mut s = session();
        assert_eq!(ppt(&s).deck.current, 0);
        click_by_name(&mut s, "Slide 2");
        assert_eq!(ppt(&s).deck.current, 1);
        // Slide 2 has the seeded image; its canvas shape should be shown.
        let tree = s.app().tree();
        let img = tree.iter().find(|(i, w)| w.name == "image 2" && tree.is_shown(*i));
        assert!(img.is_some(), "slide 2's image shape visible on canvas");
    }

    #[test]
    fn picture_format_tab_is_context_gated() {
        let mut s = session();
        assert!(s.app().tree().find_by_name("Picture Format").is_some());
        let tab = s.app().tree().find_by_name("Picture Format").unwrap();
        assert!(!s.app().tree().is_shown(tab));
        click_by_name(&mut s, "Slide 2");
        click_by_name(&mut s, "image 2");
        assert!(s.app().tree().is_shown(tab), "context tab appears when image selected");
    }

    /// Showing and hiding Picture Format is a stamped write of the ribbon
    /// block: in lockstep with a full-rebuild session, every cached
    /// capture is byte-equal, shows the tab exactly while the image is
    /// selected, and copies the blocks the selection change left clean.
    #[test]
    fn a_selection_change_copies_the_blocks_it_leaves_clean() {
        let mut cached = session();
        let mut full = session();
        full.set_capture_config(CaptureConfig::full_rebuild());
        for s in [&mut cached, &mut full] {
            click_by_name(s, "Slide 2");
            s.snapshot();
        }
        for (shape, image_selected) in [("image 2", true), ("title 1", false), ("image 2", true)] {
            let reused = cached.capture_stats().blocks_reused;
            click_by_name(&mut cached, shape);
            click_by_name(&mut full, shape);
            let snap = cached.snapshot();
            assert!(*snap == *full.snapshot(), "{shape}: the capture equals the full rebuild");
            let shown = snap.find_by_name("Picture Format").is_some();
            assert_eq!(shown, image_selected, "{shape}: Picture Format shown");
            assert!(cached.capture_stats().blocks_reused > reused, "{shape}: no block copied");
        }
    }

    #[test]
    fn transition_apply_to_all() {
        let mut s = session();
        click_by_name(&mut s, "Transitions");
        click_by_name(&mut s, "Transition Styles");
        click_by_name(&mut s, "Fade");
        click_by_name(&mut s, "Apply To All");
        assert!(ppt(&s).deck.slides.iter().all(|sl| sl.transition.as_deref() == Some("Fade")));
    }

    #[test]
    fn notes_commit() {
        let mut s = session();
        let notes = ppt(&s).notes_widget();
        s.click(notes).unwrap();
        s.type_text("Remember to thank the team").unwrap();
        s.press("Enter").unwrap();
        assert_eq!(ppt(&s).deck.slides[0].notes, "Remember to thank the team");
    }

    #[test]
    fn slide_show_traps() {
        let mut s = session();
        click_by_name(&mut s, "Slide Show");
        click_by_name(&mut s, "From Beginning");
        assert!(s.is_trapped());
    }

    #[test]
    fn animation_requires_selected_shape() {
        let mut s = session();
        click_by_name(&mut s, "Animations");
        click_by_name(&mut s, "Animation Styles");
        let tree = s.app().tree();
        let fade: Vec<_> = tree
            .iter()
            .filter(|(i, w)| w.name == "Fade" && tree.is_shown(*i))
            .map(|(i, _)| i)
            .collect();
        let err = s.click(fade[0]).unwrap_err();
        assert!(err.to_string().contains("no shape selected"));
    }

    #[test]
    fn default_tree_is_large() {
        let app = PowerPointApp::new();
        assert!(app.tree.len() > 1900, "PowerPoint tree has {} widgets", app.tree.len());
    }
}
