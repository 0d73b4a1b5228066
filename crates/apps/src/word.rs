//! The simulated Word application.
//!
//! A feature-rich text editor with the structural hazards the paper's
//! evaluation exercises: a deep ribbon, large galleries (fonts, symbols,
//! styles), four color pickers sharing the "Colors" dialog (merge nodes
//! with path-dependent semantics), the Find & Replace dialog whose "Next"
//! button renames itself on special input (§6 topology-inaccuracy example),
//! and a scrollable document surface with off-screen paragraphs.

use crate::model::word_doc::{Alignment, WordDoc};
use crate::office::{self, commands, Chrome, Pristine};
use dmi_gui::{
    AppError, Behavior, CommandBinding, GuiApp, UiTree, Widget, WidgetBuilder, WidgetId,
};
use dmi_uia::ControlType as CT;
use std::sync::Arc;

/// Build-time options for the simulated Word instance.
#[derive(Debug, Clone)]
pub struct WordConfig {
    /// Number of document paragraphs.
    pub paragraphs: usize,
    /// Rows visible in the document viewport.
    pub viewport_rows: usize,
}

impl Default for WordConfig {
    fn default() -> Self {
        WordConfig { paragraphs: 120, viewport_rows: 24 }
    }
}

/// The mutable model state captured in the pristine launch image: the
/// document plus every session-scoped scalar `dispatch` can change. Kept
/// as one struct so `reset` restores from the capture instead of
/// re-listing constructor defaults.
#[derive(Debug, Clone)]
struct WordState {
    doc: WordDoc,
    color_target: String,
    find_text: String,
    replace_text: String,
    find_subscript: bool,
}

/// The simulated Word application.
pub struct WordApp {
    tree: UiTree,
    /// The document model (task verifiers inspect this).
    pub doc: WordDoc,
    /// Color target chosen by the most recent color-menu opener.
    color_target: String,
    /// Find & Replace state.
    find_text: String,
    replace_text: String,
    /// The §5.6 pitfall flag: subscript checked inside Find & Replace
    /// applies to the find pattern, not the document selection.
    pub find_subscript: bool,
    chrome: Chrome,
    doc_surface: WidgetId,
    find_next_button: WidgetId,
    /// Launch-state image `reset` clones from (no arena reconstruction).
    pristine: Arc<Pristine<WordState>>,
}

impl WordApp {
    /// Creates the app with the default document.
    pub fn new() -> Self {
        Self::with_config(WordConfig::default())
    }

    /// Creates the app with explicit options.
    pub fn with_config(config: WordConfig) -> Self {
        let mut tree = UiTree::new();
        let doc = WordDoc::with_paragraphs(config.paragraphs);
        let chrome = office::build_chrome(&mut tree, "Document1 - Word");
        office::build_backstage(&mut tree, chrome.main);
        let (doc_surface, find_next_button) = build_ui(&mut tree, &chrome, &config, &doc);
        let state = WordState {
            doc,
            color_target: "font".into(),
            find_text: String::new(),
            replace_text: String::new(),
            find_subscript: false,
        };
        let pristine = Pristine::capture(&tree, &state);
        WordApp {
            tree,
            doc: state.doc,
            color_target: state.color_target,
            find_text: state.find_text,
            replace_text: state.replace_text,
            find_subscript: state.find_subscript,
            chrome,
            doc_surface,
            find_next_button,
            pristine,
        }
    }

    /// The document surface widget (a `Document` text surface).
    pub fn doc_surface(&self) -> WidgetId {
        self.doc_surface
    }

    /// The chrome handles.
    pub fn chrome(&self) -> Chrome {
        self.chrome
    }

    fn apply_color(&mut self, target: &str, color: &str) -> Result<(), AppError> {
        match target {
            "font" => {
                self.doc.format_selection(|f| f.color = color.to_string());
                Ok(())
            }
            "highlight" => {
                self.doc.format_selection(|f| f.highlight = Some(color.to_string()));
                Ok(())
            }
            "underline" => {
                // Underline color implies underline.
                self.doc.format_selection(|f| f.underline = true);
                Ok(())
            }
            "shading" => {
                self.doc.format_selection(|f| f.highlight = Some(color.to_string()));
                Ok(())
            }
            "page" => {
                self.doc.page.background = Some(color.to_string());
                Ok(())
            }
            other => Err(AppError::Command {
                command: "apply_color".into(),
                reason: format!("unknown color target '{other}'"),
            }),
        }
    }

    fn first_visible_row(&self) -> usize {
        let w = self.tree.widget(self.doc_surface);
        let n = w.children.len();
        let rows = w.viewport_rows.min(n);
        if n == 0 || rows == 0 {
            return 0;
        }
        let max_start = n - rows;
        ((w.scroll_pos / 100.0) * max_start as f64).round() as usize
    }

    fn parse_range(arg: Option<&str>) -> Result<(usize, usize), AppError> {
        let s = arg.ok_or_else(|| AppError::InvalidArgument { message: "missing range".into() })?;
        let (a, b) = s
            .split_once("..")
            .ok_or_else(|| AppError::InvalidArgument { message: format!("bad range '{s}'") })?;
        let a: usize = a
            .parse()
            .map_err(|_| AppError::InvalidArgument { message: format!("bad range '{s}'") })?;
        let b: usize = b
            .parse()
            .map_err(|_| AppError::InvalidArgument { message: format!("bad range '{s}'") })?;
        Ok((a, b))
    }
}

impl Default for WordApp {
    fn default() -> Self {
        Self::new()
    }
}

/// Builds the full Word UI; returns (document surface, find "Next" button).
fn build_ui(
    tree: &mut UiTree,
    chrome: &Chrome,
    config: &WordConfig,
    doc: &WordDoc,
) -> (WidgetId, WidgetId) {
    let fonts = office::font_names();
    let sizes: Vec<String> =
        [8, 9, 10, 11, 12, 14, 16, 18, 20, 24, 28, 32, 36, 48, 72].map(|s| s.to_string()).to_vec();

    // ---------------- Home tab ----------------
    let home = office::add_tab(tree, chrome.ribbon, "Home", true);
    let clip = office::add_group(tree, home, "Clipboard");
    let paste = office::button(tree, clip, "Paste", "paste", None);
    tree.widget_mut(paste).enabled = false; // Empty clipboard: structured-error demo.
    office::button(tree, clip, "Cut", "cut", None);
    office::button(tree, clip, "Copy", "copy", None);
    office::button(tree, clip, "Format Painter", "format_painter", None);

    let font_grp = office::add_group(tree, home, "Font");
    office::gallery(tree, font_grp, "Font Name", &fonts, "set_font");
    office::gallery(tree, font_grp, "Font Size", &sizes, "set_font_size");
    office::toggle_button(tree, font_grp, "Bold", "bold");
    office::toggle_button(tree, font_grp, "Italic", "italic");
    office::toggle_button(tree, font_grp, "Underline", "underline");
    office::toggle_button(tree, font_grp, "Strikethrough", "strikethrough");
    office::toggle_button(tree, font_grp, "Subscript", "subscript");
    office::toggle_button(tree, font_grp, "Superscript", "superscript");
    // Underline-style menu carries its own color picker: one of the paths
    // to "the same" colors with different semantics.
    let ul_menu = tree.add(
        font_grp,
        WidgetBuilder::new("Underline Style", CT::SplitButton)
            .popup()
            .on_click(Behavior::OpenMenu)
            .build(),
    );
    for style in ["Single", "Double", "Thick", "Dotted", "Dashed", "Wave"] {
        tree.add(
            ul_menu,
            WidgetBuilder::new(style, CT::MenuItem)
                .on_click(Behavior::CommandAndDismiss(CommandBinding::with_arg(
                    "set_underline_style",
                    style,
                )))
                .build(),
        );
    }
    office::color_menu(tree, ul_menu, "Underline Color", "set_underline_color", "underline");
    office::color_menu(tree, font_grp, "Font Color", "set_font_color", "font");
    let highlights: Vec<String> = [
        "Yellow",
        "Bright Green",
        "Turquoise",
        "Pink",
        "Blue",
        "Red",
        "Dark Blue",
        "Teal",
        "Green",
        "Violet",
        "Dark Red",
        "Dark Yellow",
        "Gray",
        "Black",
        "No Color",
    ]
    .map(String::from)
    .to_vec();
    office::gallery(tree, font_grp, "Text Highlight Color", &highlights, "set_highlight");
    let case_items: Vec<String> =
        ["Sentence case.", "lowercase", "UPPERCASE", "Capitalize Each Word", "tOGGLE cASE"]
            .map(String::from)
            .to_vec();
    office::gallery(tree, font_grp, "Change Case", &case_items, "change_case");
    office::button(tree, font_grp, "Clear All Formatting", "clear_formatting", None);
    // Font dialog (launcher; carries a second font enumeration).
    let (font_dlg, font_body) = office::dialog(tree, "Font");
    office::gallery(tree, font_body, "Font", &fonts, "set_font");
    office::gallery(tree, font_body, "Size", &sizes, "set_font_size");
    office::checkbox(tree, font_body, "Small caps", "smallcaps");
    office::checkbox(tree, font_body, "All caps", "allcaps");
    office::checkbox(tree, font_body, "Hidden", "hidden");
    office::dialog_launcher(tree, font_grp, "Font Settings", font_dlg);

    let para_grp = office::add_group(tree, home, "Paragraph");
    let bullets: Vec<String> = (0..12).map(|i| format!("Bullet Library {i}")).collect();
    office::gallery(tree, para_grp, "Bullets", &bullets, "set_bullets");
    let numbering: Vec<String> = (0..12).map(|i| format!("Numbering Library {i}")).collect();
    office::gallery(tree, para_grp, "Numbering", &numbering, "set_numbering");
    let multi: Vec<String> = (0..8).map(|i| format!("Multilevel List {i}")).collect();
    office::gallery(tree, para_grp, "Multilevel List", &multi, "set_multilevel");
    for (name, arg) in [
        ("Align Left", "Left"),
        ("Center", "Center"),
        ("Align Right", "Right"),
        ("Justify", "Justify"),
    ] {
        office::button(tree, para_grp, name, "set_alignment", Some(arg));
    }
    // Line-spacing menu plus the Paragraph dialog.
    let (para_dlg, para_body) = office::dialog(tree, "Paragraph");
    let spacing_opts: Vec<String> =
        ["1.0", "1.15", "1.5", "2.0", "2.5", "3.0"].map(String::from).to_vec();
    office::gallery(tree, para_body, "Line spacing", &spacing_opts, "set_line_spacing");
    let dlg_aligns: Vec<String> =
        ["Left", "Centered", "Right", "Justified"].map(String::from).to_vec();
    office::gallery(tree, para_body, "Alignment", &dlg_aligns, "set_alignment_dialog");
    let ls_menu = tree.add(
        para_grp,
        WidgetBuilder::new("Line and Paragraph Spacing", CT::SplitButton)
            .automation_id("LineSpacing")
            .popup()
            .on_click(Behavior::OpenMenu)
            .build(),
    );
    for opt in &spacing_opts {
        tree.add(
            ls_menu,
            WidgetBuilder::new(opt.clone(), CT::MenuItem)
                .on_click(Behavior::CommandAndDismiss(CommandBinding::with_arg(
                    "set_line_spacing",
                    opt.clone(),
                )))
                .build(),
        );
    }
    tree.add(
        ls_menu,
        WidgetBuilder::new("Line Spacing Options...", CT::MenuItem)
            .on_click(Behavior::OpenDialog(para_dlg))
            .build(),
    );
    office::color_menu(tree, para_grp, "Shading", "set_shading", "shading");
    let borders: Vec<String> = [
        "Bottom Border",
        "Top Border",
        "Left Border",
        "Right Border",
        "No Border",
        "All Borders",
        "Outside Borders",
        "Inside Borders",
    ]
    .map(String::from)
    .to_vec();
    office::gallery(tree, para_grp, "Borders", &borders, "set_borders");
    office::dialog_launcher(tree, para_grp, "Paragraph Settings", para_dlg);

    let styles_grp = office::add_group(tree, home, "Styles");
    let styles: Vec<String> = [
        "Normal",
        "No Spacing",
        "Heading 1",
        "Heading 2",
        "Heading 3",
        "Heading 4",
        "Title",
        "Subtitle",
        "Subtle Emphasis",
        "Emphasis",
        "Intense Emphasis",
        "Strong",
        "Quote",
        "Intense Quote",
        "Subtle Reference",
        "Intense Reference",
        "Book Title",
        "List Paragraph",
    ]
    .iter()
    .flat_map(|s| [(*s).to_string(), format!("{s} (linked)")])
    .collect();
    office::gallery(tree, styles_grp, "Styles", &styles, "apply_style");

    let edit_grp = office::add_group(tree, home, "Editing");
    // Find & Replace dialog with the renameable "Next" button.
    let (fr_dlg, fr_body) = office::dialog(tree, "Find and Replace");
    office::edit_field(tree, fr_body, "Find what", "set_find_text");
    office::edit_field(tree, fr_body, "Replace with", "set_replace_text");
    let next_btn = tree.add(
        fr_body,
        WidgetBuilder::new("Next", CT::Button)
            .help("Find the next occurrence.")
            .on_click(Behavior::Command(CommandBinding::new("find_next")))
            .build(),
    );
    office::button(tree, fr_body, "Replace", "replace_one", None);
    office::button(tree, fr_body, "Replace All", "replace_all", None);
    office::checkbox(tree, fr_body, "Match case", "find_match_case");
    office::checkbox(tree, fr_body, "Find whole words only", "find_whole_words");
    // The §5.6 pitfall: this subscript applies to the find pattern.
    let fmt_menu = tree.add(
        fr_body,
        WidgetBuilder::new("Format", CT::SplitButton).popup().on_click(Behavior::OpenMenu).build(),
    );
    office::checkbox(tree, fmt_menu, "Subscript", "find_subscript");
    office::checkbox(tree, fmt_menu, "Superscript", "find_superscript");
    let special: Vec<String> = [
        "Paragraph Mark",
        "Tab Character",
        "Any Character",
        "Any Digit",
        "Any Letter",
        "Caret Character",
        "Section Character",
        "Paragraph Character",
    ]
    .map(String::from)
    .to_vec();
    office::gallery(tree, fr_body, "Special", &special, "insert_special");
    office::dialog_launcher(tree, edit_grp, "Replace", fr_dlg);
    office::dialog_launcher(tree, edit_grp, "Find", fr_dlg);
    let select_menu = tree.add(
        edit_grp,
        WidgetBuilder::new("Select", CT::SplitButton).popup().on_click(Behavior::OpenMenu).build(),
    );
    tree.add(
        select_menu,
        WidgetBuilder::new("Select All", CT::MenuItem)
            .on_click(Behavior::CommandAndDismiss(CommandBinding::new("select_all")))
            .build(),
    );
    tree.add(
        select_menu,
        WidgetBuilder::new("Select Objects", CT::MenuItem)
            .on_click(Behavior::CommandAndDismiss(CommandBinding::new("select_objects")))
            .build(),
    );

    // ---------------- Insert tab ----------------
    let insert = office::add_tab(tree, chrome.ribbon, "Insert", false);
    let pages = office::add_group(tree, insert, "Pages");
    let covers: Vec<String> = (0..12).map(|i| format!("Cover Page {i}")).collect();
    office::gallery(tree, pages, "Cover Page", &covers, "insert_cover");
    office::button(tree, pages, "Blank Page", "insert_blank_page", None);
    office::button(tree, pages, "Page Break", "insert_page_break", None);
    let tables = office::add_group(tree, insert, "Tables");
    let grid: Vec<String> =
        (1..=8).flat_map(|r| (1..=8).map(move |c| format!("Table {r}x{c}"))).collect();
    office::gallery(tree, tables, "Table", &grid, "insert_table");
    let illus = office::add_group(tree, insert, "Illustrations");
    let (pic_dlg, pic_body) = office::dialog(tree, "Insert Picture");
    office::edit_field(tree, pic_body, "File name", "set_picture_name");
    office::button(tree, pic_body, "Insert", "insert_picture", None);
    office::dialog_launcher(tree, illus, "Pictures", pic_dlg);
    let shape_cats = [
        "Lines",
        "Rectangles",
        "Basic Shapes",
        "Block Arrows",
        "Equation Shapes",
        "Flowchart",
        "Stars and Banners",
        "Callouts",
    ];
    let shapes_menu = tree.add(
        illus,
        WidgetBuilder::new("Shapes", CT::SplitButton).popup().on_click(Behavior::OpenMenu).build(),
    );
    for cat in shape_cats {
        let sub = tree.add(
            shapes_menu,
            WidgetBuilder::new(cat, CT::MenuItem).popup().on_click(Behavior::OpenMenu).build(),
        );
        for i in 0..20 {
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
    let charts: Vec<String> = ["Column", "Line", "Pie", "Bar", "Area", "Scatter"]
        .iter()
        .flat_map(|k| (0..8).map(move |i| format!("{k} Chart {i}")))
        .collect();
    office::gallery(tree, illus, "Chart", &charts, "insert_chart");
    let hf = office::add_group(tree, insert, "Header & Footer");
    let headers: Vec<String> = (0..16).map(|i| format!("Header Design {i}")).collect();
    office::gallery(tree, hf, "Header", &headers, "set_header");
    let footers: Vec<String> = (0..16).map(|i| format!("Footer Design {i}")).collect();
    office::gallery(tree, hf, "Footer", &footers, "set_footer");
    let (hdr_dlg, hdr_body) = office::dialog(tree, "Edit Header");
    office::edit_field(tree, hdr_body, "Header text", "set_header_text");
    office::dialog_launcher(tree, hf, "Edit Header", hdr_dlg);
    let text_grp = office::add_group(tree, insert, "Text");
    let boxes: Vec<String> = (0..16).map(|i| format!("Text Box Style {i}")).collect();
    office::gallery(tree, text_grp, "Text Box", &boxes, "insert_textbox");
    let wordart: Vec<String> = (0..15).map(|i| format!("WordArt Style {i}")).collect();
    office::gallery(tree, text_grp, "WordArt", &wordart, "insert_wordart");
    let symbols_grp = office::add_group(tree, insert, "Symbols");
    let eqs: Vec<String> = (0..12).map(|i| format!("Equation {i}")).collect();
    office::gallery(tree, symbols_grp, "Equation", &eqs, "insert_equation");
    office::gallery(tree, symbols_grp, "Symbol", &office::symbol_names(280), "insert_symbol");
    let icons: Vec<String> = (0..150).map(|i| format!("Icon {i}")).collect();
    office::gallery(tree, illus, "Icons", &icons, "insert_icon");
    let models: Vec<String> = (0..60).map(|i| format!("3D Model {i}")).collect();
    office::gallery(tree, illus, "3D Models", &models, "insert_3d_model");
    let stock: Vec<String> = (0..100).map(|i| format!("Stock Image {i}")).collect();
    office::gallery(tree, illus, "Stock Images", &stock, "insert_stock_image");
    let quick_parts: Vec<String> = (0..40).map(|i| format!("Quick Part {i}")).collect();
    office::gallery(tree, text_grp, "Quick Parts", &quick_parts, "insert_quick_part");
    let pn_menu = tree.add(
        hf,
        WidgetBuilder::new("Page Number", CT::SplitButton)
            .popup()
            .on_click(Behavior::OpenMenu)
            .build(),
    );
    for pos in ["Top of Page", "Bottom of Page", "Page Margins", "Current Position"] {
        let sub = tree.add(
            pn_menu,
            WidgetBuilder::new(pos, CT::MenuItem).popup().on_click(Behavior::OpenMenu).build(),
        );
        for i in 0..20 {
            tree.add(
                sub,
                WidgetBuilder::new(format!("{pos} Number {i}"), CT::ListItem)
                    .on_click(Behavior::CommandAndDismiss(CommandBinding::with_arg(
                        "insert_page_number",
                        format!("{pos} {i}"),
                    )))
                    .build(),
            );
        }
    }

    // ---------------- Design tab ----------------
    let design = office::add_tab(tree, chrome.ribbon, "Design", false);
    let fmt = office::add_group(tree, design, "Document Formatting");
    let themes: Vec<String> = (0..44).map(|i| format!("Theme {i}")).collect();
    office::gallery(tree, fmt, "Themes", &themes, "apply_theme");
    let schemes: Vec<String> = (0..24).map(|i| format!("Color Scheme {i}")).collect();
    office::gallery(tree, fmt, "Colors", &schemes, "apply_color_scheme");
    let font_schemes: Vec<String> = (0..24).map(|i| format!("Font Scheme {i}")).collect();
    office::gallery(tree, fmt, "Theme Fonts", &font_schemes, "apply_font_scheme");
    let style_sets: Vec<String> = (0..36).map(|i| format!("Style Set {i}")).collect();
    office::gallery(tree, fmt, "Style Sets", &style_sets, "apply_style_set");
    let bg = office::add_group(tree, design, "Page Background");
    let marks: Vec<String> = [
        "CONFIDENTIAL 1",
        "CONFIDENTIAL 2",
        "DO NOT COPY 1",
        "DO NOT COPY 2",
        "DRAFT 1",
        "DRAFT 2",
        "SAMPLE 1",
        "SAMPLE 2",
        "ASAP 1",
        "URGENT 1",
    ]
    .map(String::from)
    .to_vec();
    office::gallery(tree, bg, "Watermark", &marks, "set_watermark");
    let (wm_dlg, wm_body) = office::dialog(tree, "Custom Watermark");
    office::edit_field(tree, wm_body, "Watermark text", "set_watermark_text");
    office::dialog_launcher(tree, bg, "Custom Watermark", wm_dlg);
    office::color_menu(tree, bg, "Page Color", "set_page_color", "page");
    let (border_dlg, border_body) = office::dialog(tree, "Borders and Shading");
    office::radio_group(
        tree,
        border_body,
        "Setting",
        &["None", "Box", "Shadow", "3-D"],
        "set_page_border",
    );
    office::dialog_launcher(tree, bg, "Page Borders", border_dlg);

    // ---------------- Layout tab ----------------
    let layout = office::add_tab(tree, chrome.ribbon, "Layout", false);
    let setup = office::add_group(tree, layout, "Page Setup");
    let margin_presets: Vec<String> =
        ["Normal", "Narrow", "Moderate", "Wide", "Mirrored"].map(String::from).to_vec();
    office::gallery(tree, setup, "Margins", &margin_presets, "set_margins");
    let (ps_dlg, ps_body) = office::dialog(tree, "Page Setup");
    office::edit_field(tree, ps_body, "Top", "set_margin_top");
    office::edit_field(tree, ps_body, "Bottom", "set_margin_bottom");
    office::edit_field(tree, ps_body, "Left", "set_margin_left");
    office::edit_field(tree, ps_body, "Right", "set_margin_right");
    office::radio_group(
        tree,
        ps_body,
        "Orientation",
        &["Portrait", "Landscape"],
        "set_orientation",
    );
    office::dialog_launcher(tree, setup, "Page Setup", ps_dlg);
    let orient_menu = tree.add(
        setup,
        WidgetBuilder::new("Orientation", CT::SplitButton)
            .popup()
            .on_click(Behavior::OpenMenu)
            .build(),
    );
    for o in ["Portrait", "Landscape"] {
        tree.add(
            orient_menu,
            WidgetBuilder::new(o, CT::MenuItem)
                .on_click(Behavior::CommandAndDismiss(CommandBinding::with_arg(
                    "set_orientation",
                    o,
                )))
                .build(),
        );
    }
    let sizes_g: Vec<String> =
        ["Letter", "Legal", "A3", "A4", "A5", "B4", "B5", "Executive", "Tabloid", "Statement"]
            .map(String::from)
            .to_vec();
    office::gallery(tree, setup, "Size", &sizes_g, "set_page_size");
    let cols: Vec<String> = ["One", "Two", "Three", "Left", "Right"].map(String::from).to_vec();
    office::gallery(tree, setup, "Columns", &cols, "set_columns");

    // ---------------- References / Review / View ----------------
    let refs = office::add_tab(tree, chrome.ribbon, "References", false);
    let toc_grp = office::add_group(tree, refs, "Table of Contents");
    let tocs: Vec<String> = (0..6).map(|i| format!("Automatic Table {i}")).collect();
    office::gallery(tree, toc_grp, "Table of Contents", &tocs, "insert_toc");
    let fn_grp = office::add_group(tree, refs, "Footnotes");
    office::button(tree, fn_grp, "Insert Footnote", "insert_footnote", None);
    office::button(tree, fn_grp, "Insert Endnote", "insert_endnote", None);

    let review = office::add_tab(tree, chrome.ribbon, "Review", false);
    let proof = office::add_group(tree, review, "Proofing");
    office::button(tree, proof, "Spelling & Grammar", "spellcheck", None);
    let (wc_dlg, wc_body) = office::dialog(tree, "Word Count");
    tree.add(wc_body, Widget::new("Statistics", CT::Text));
    office::dialog_launcher(tree, proof, "Word Count", wc_dlg);
    let track = office::add_group(tree, review, "Tracking");
    office::toggle_button(tree, track, "Track Changes", "track_changes");

    let view = office::add_tab(tree, chrome.ribbon, "View", false);
    let views_grp = office::add_group(tree, view, "Views");
    for v in ["Read Mode", "Print Layout", "Web Layout", "Outline", "Draft"] {
        office::button(tree, views_grp, v, "set_view", Some(v));
    }
    let show_grp = office::add_group(tree, view, "Show");
    office::checkbox(tree, show_grp, "Ruler", "show_ruler");
    office::checkbox(tree, show_grp, "Gridlines", "show_gridlines");
    office::checkbox(tree, show_grp, "Navigation Pane", "show_nav");

    // ---------------- Document area ----------------
    let doc_surface = tree.add(
        chrome.main,
        WidgetBuilder::new("Document", CT::Document)
            .automation_id("Body")
            .scrollable(config.viewport_rows)
            .text_surface()
            .build(),
    );
    for (i, p) in doc.paragraphs.iter().enumerate() {
        tree.add(
            doc_surface,
            WidgetBuilder::new(format!("Paragraph {i}"), CT::Text).value(p.text.clone()).build(),
        );
    }
    tree.add(
        chrome.main,
        WidgetBuilder::new("Vertical Scroll Bar", CT::ScrollBar)
            .automation_id("VScroll")
            .scroll_target(doc_surface)
            .build(),
    );

    (doc_surface, next_btn)
}

impl GuiApp for WordApp {
    fn tree(&self) -> &UiTree {
        &self.tree
    }

    fn tree_mut(&mut self) -> &mut UiTree {
        &mut self.tree
    }

    fn dispatch(&mut self, src: WidgetId, b: &CommandBinding) -> Result<(), AppError> {
        let arg = b.arg.as_deref();
        match b.command.as_str() {
            "toggle_format" => {
                let prop = arg.unwrap_or_default().to_string();
                match prop.as_str() {
                    "bold" => self.doc.format_selection(|f| f.bold = !f.bold),
                    "italic" => self.doc.format_selection(|f| f.italic = !f.italic),
                    "underline" => self.doc.format_selection(|f| f.underline = !f.underline),
                    "strikethrough" => self.doc.format_selection(|_| {}), // cosmetic only
                    "subscript" => self.doc.format_selection(|f| f.subscript = !f.subscript),
                    "superscript" => self.doc.format_selection(|f| f.superscript = !f.superscript),
                    "find_subscript" => {
                        // The pitfall: applies to the find pattern only.
                        self.find_subscript = !self.find_subscript;
                        0
                    }
                    _ => 0,
                };
                Ok(())
            }
            "set_font" => {
                let font = arg.unwrap_or_default().to_string();
                self.doc.format_selection(|f| f.font = font.clone());
                Ok(())
            }
            "set_font_size" => {
                let size: f64 = arg.unwrap_or("11").parse().unwrap_or(11.0);
                self.doc.format_selection(|f| f.size = size);
                Ok(())
            }
            "set_font_color" => self.apply_color("font", arg.unwrap_or_default()),
            "set_highlight" => self.apply_color("highlight", arg.unwrap_or_default()),
            "set_shading" => self.apply_color("shading", arg.unwrap_or_default()),
            "set_page_color" => self.apply_color("page", arg.unwrap_or_default()),
            "set_underline_color" => self.apply_color("underline", arg.unwrap_or_default()),
            "set_underline_style" => {
                self.doc.format_selection(|f| f.underline = true);
                Ok(())
            }
            commands::OPEN_MORE_COLORS => {
                self.color_target = arg.unwrap_or("font").to_string();
                let dlg = self.chrome.more_colors;
                self.tree.open_window(dlg, true);
                Ok(())
            }
            commands::APPLY_COLOR_CTX => {
                let target = self.color_target.clone();
                self.apply_color(&target, arg.unwrap_or_default())
            }
            "apply_style" => {
                let style = arg.unwrap_or("Normal").trim_end_matches(" (linked)").to_string();
                self.doc.format_selection(|f| f.style = style.clone());
                Ok(())
            }
            "set_alignment" | "set_alignment_dialog" => {
                let a = match arg.unwrap_or("Left") {
                    "Center" | "Centered" => Alignment::Center,
                    "Right" => Alignment::Right,
                    "Justify" | "Justified" => Alignment::Justify,
                    _ => Alignment::Left,
                };
                self.doc.format_selection(|f| f.alignment = a);
                Ok(())
            }
            "set_line_spacing" => {
                let ls: f64 = arg.unwrap_or("1.0").parse().unwrap_or(1.0);
                self.doc.format_selection(|f| f.line_spacing = ls);
                Ok(())
            }
            "set_find_text" => {
                self.find_text = self.tree.widget(src).value.clone();
                // Special input dynamically renames "Next" -> "Go To"
                // (§6 "(In)accurate navigation topology").
                let renamed = self.find_text.starts_with('+');
                let btn = self.find_next_button;
                self.tree.widget_mut(btn).name =
                    if renamed { "Go To".into() } else { "Next".into() };
                Ok(())
            }
            "set_replace_text" => {
                self.replace_text = self.tree.widget(src).value.clone();
                Ok(())
            }
            "replace_all" => {
                let (f, r) = (self.find_text.clone(), self.replace_text.clone());
                self.doc.replace_all(&f, &r);
                Ok(())
            }
            "replace_one" | "find_next" => Ok(()),
            "insert_special" => {
                self.find_text.push('^');
                Ok(())
            }
            "select_all" => {
                let n = self.doc.paragraphs.len();
                if n > 0 {
                    self.doc.select(0, n - 1);
                }
                Ok(())
            }
            "ui.select_lines" | "ui.select_paragraphs" => {
                let (a, b2) = Self::parse_range(arg)?;
                self.doc.select(a, b2);
                Ok(())
            }
            "ui.select_lines_viewport" => {
                let (a, b2) = Self::parse_range(arg)?;
                let fv = self.first_visible_row();
                self.doc.select(a + fv, b2 + fv);
                Ok(())
            }
            "set_margins" => {
                self.doc.page.margins = match arg.unwrap_or("Normal") {
                    "Narrow" => (0.5, 0.5, 0.5, 0.5),
                    "Moderate" => (1.0, 1.0, 0.75, 0.75),
                    "Wide" => (1.0, 1.0, 2.0, 2.0),
                    "Mirrored" => (1.0, 1.0, 1.25, 1.0),
                    _ => (1.0, 1.0, 1.0, 1.0),
                };
                Ok(())
            }
            "set_margin_top" | "set_margin_bottom" | "set_margin_left" | "set_margin_right" => {
                let v: f64 =
                    self.tree.widget(src).value.parse().map_err(|_| AppError::InvalidArgument {
                        message: format!(
                            "margin '{}' is not a number",
                            self.tree.widget(src).value
                        ),
                    })?;
                let m = &mut self.doc.page.margins;
                match b.command.as_str() {
                    "set_margin_top" => m.0 = v,
                    "set_margin_bottom" => m.1 = v,
                    "set_margin_left" => m.2 = v,
                    _ => m.3 = v,
                }
                Ok(())
            }
            "set_orientation" => {
                self.doc.page.orientation_landscape = arg == Some("Landscape");
                Ok(())
            }
            "set_header" => {
                self.doc.header = Some(arg.unwrap_or_default().to_string());
                Ok(())
            }
            "set_footer" => {
                self.doc.footer = Some(arg.unwrap_or_default().to_string());
                Ok(())
            }
            "set_header_text" => {
                self.doc.header = Some(self.tree.widget(src).value.clone());
                Ok(())
            }
            "set_watermark" => {
                self.doc.watermark = Some(arg.unwrap_or_default().to_string());
                Ok(())
            }
            "set_watermark_text" => {
                self.doc.watermark = Some(self.tree.widget(src).value.clone());
                Ok(())
            }
            "clear_formatting" => {
                self.doc.format_selection(|f| *f = Default::default());
                Ok(())
            }
            // Benign no-ops (inserts tracked loosely; state not needed by
            // the benchmark verifiers).
            "save" | "save_as" | "undo" | "redo" | "print" | "cut" | "copy" | "paste"
            | "format_painter" | "new_from_template" | "open_recent" | "insert_cover"
            | "insert_blank_page" | "insert_page_break" | "insert_table" | "insert_shape"
            | "insert_chart" | "insert_textbox" | "insert_wordart" | "insert_equation"
            | "insert_symbol" | "insert_toc" | "insert_footnote" | "insert_endnote"
            | "spellcheck" | "set_view" | "set_bullets" | "set_numbering" | "set_multilevel"
            | "set_borders" | "apply_theme" | "apply_color_scheme" | "apply_font_scheme"
            | "set_page_border" | "set_page_size" | "set_columns" | "change_case"
            | "select_objects" | "set_picture_name" | "insert_picture" | "insert_icon"
            | "insert_3d_model" | "insert_stock_image" | "insert_quick_part"
            | "insert_page_number" | "apply_style_set" => Ok(()),
            other => {
                Err(AppError::Command { command: other.into(), reason: "unknown command".into() })
            }
        }
    }

    fn reset(&mut self) {
        let pristine = Arc::clone(&self.pristine);
        self.tree.clone_from(pristine.tree());
        let state = pristine.doc();
        self.doc.clone_from(&state.doc);
        self.color_target.clone_from(&state.color_target);
        self.find_text.clone_from(&state.find_text);
        self.replace_text.clone_from(&state.replace_text);
        self.find_subscript = state.find_subscript;
    }

    fn fork(&self) -> Option<Box<dyn GuiApp>> {
        // A launch-state twin off the shared pristine image: no
        // `build_ui` re-run; widget handles are stable arena indices.
        let pristine = Arc::clone(&self.pristine);
        let state = pristine.doc().clone();
        Some(Box::new(WordApp {
            tree: pristine.tree().clone(),
            doc: state.doc,
            color_target: state.color_target,
            find_text: state.find_text,
            replace_text: state.replace_text,
            find_subscript: state.find_subscript,
            chrome: self.chrome,
            doc_surface: self.doc_surface,
            find_next_button: self.find_next_button,
            pristine,
        }))
    }

    fn pristine_token(&self) -> Option<u64> {
        // `reset` restores exactly this image, so its address identifies
        // the post-restart state for the lifetime of the app and of all
        // of its forks, which share the `Arc` (every `AppKind::launch` of
        // one launch image among them).
        Some(Arc::as_ptr(&self.pristine) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmi_gui::Session;
    use std::any::Any;

    fn session() -> Session {
        Session::new(Box::new(WordApp::with_config(WordConfig {
            paragraphs: 10,
            viewport_rows: 4,
        })))
    }

    fn word(s: &Session) -> &WordApp {
        (s.app() as &dyn Any).downcast_ref::<WordApp>().unwrap()
    }

    fn click_by_name(s: &mut Session, name: &str) {
        // Prefer visible widgets with a real behavior (ribbon groups share
        // names with dialog launchers; dialogs share button names).
        let tree = s.app().tree();
        let id = tree
            .iter()
            .filter(|(i, w)| {
                w.name == name && tree.is_shown(*i) && w.on_click != dmi_gui::Behavior::None
            })
            .map(|(i, _)| i)
            .next()
            .unwrap_or_else(|| panic!("no visible actionable '{name}'"));
        s.click(id).unwrap();
    }

    #[test]
    fn tree_is_large_and_deep() {
        let app = WordApp::new();
        assert!(app.tree.len() > 2400, "Word tree has {} widgets", app.tree.len());
    }

    #[test]
    fn bold_applies_to_selection() {
        let mut s = session();
        let surf = word(&s).doc_surface();
        s.select_lines(surf, 2, 4).unwrap();
        click_by_name(&mut s, "Bold");
        let d = &word(&s).doc;
        assert!(d.paragraphs[2].format.bold && d.paragraphs[4].format.bold);
        assert!(!d.paragraphs[1].format.bold);
    }

    #[test]
    fn font_color_via_menu() {
        let mut s = session();
        let surf = word(&s).doc_surface();
        s.select_lines(surf, 0, 0).unwrap();
        click_by_name(&mut s, "Font Color");
        // The first "Blue" cell under the open menu.
        let snap = s.snapshot();
        let blue = snap
            .find_all(|n| n.props.name == "Blue" && !n.props.offscreen)
            .into_iter()
            .next()
            .expect("a Blue cell is visible");
        let wid = s.widget_of(snap.node(blue).runtime_id);
        s.click(wid).unwrap();
        assert_eq!(word(&s).doc.paragraphs[0].format.color, "Blue");
    }

    #[test]
    fn more_colors_is_path_dependent() {
        let mut s = session();
        let surf = word(&s).doc_surface();
        s.select_lines(surf, 0, 1).unwrap();
        // Open via Page Color -> More Colors: should change the page.
        click_by_name(&mut s, "Design");
        click_by_name(&mut s, "Page Color");
        // Two "More Colors..." entries exist in the arena; pick the shown one.
        let shown: Vec<_> = s
            .app()
            .tree()
            .iter()
            .filter(|(i, w)| w.name == "More Colors..." && s.app().tree().is_shown(*i))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(shown.len(), 1);
        s.click(shown[0]).unwrap();
        click_by_name(&mut s, "Custom 3");
        let d = &word(&s).doc;
        assert_eq!(d.page.background.as_deref(), Some("Custom 3"));
        assert_eq!(d.paragraphs[0].format.color, "Black", "font untouched");
    }

    #[test]
    fn replace_all_via_dialog() {
        let mut s = session();
        click_by_name(&mut s, "Replace");
        click_by_name(&mut s, "Find what");
        s.type_text("fox").unwrap();
        s.press("Enter").unwrap();
        click_by_name(&mut s, "Replace with");
        s.type_text("cat").unwrap();
        s.press("Enter").unwrap();
        click_by_name(&mut s, "Replace All");
        assert_eq!(word(&s).doc.last_replace_count, 10);
    }

    #[test]
    fn special_find_text_renames_next_button() {
        let mut s = session();
        click_by_name(&mut s, "Replace");
        click_by_name(&mut s, "Find what");
        s.type_text("+1").unwrap();
        s.press("Enter").unwrap();
        assert!(s.app().tree().find_by_name("Go To").is_some());
        assert!(s.app().tree().find_by_name("Next").is_none());
    }

    #[test]
    fn find_subscript_does_not_touch_document() {
        let mut s = session();
        let surf = word(&s).doc_surface();
        s.select_lines(surf, 0, 0).unwrap();
        click_by_name(&mut s, "Replace");
        click_by_name(&mut s, "Format");
        // The Find & Replace "Subscript" checkbox (inside the Format menu).
        let tree = s.app().tree();
        let dlg_root = tree.top_window().root;
        let shown: Vec<_> = tree
            .iter()
            .filter(|(i, w)| {
                w.name == "Subscript"
                    && tree.is_shown(*i)
                    && tree.window_root_of(*i) == Some(dlg_root)
            })
            .map(|(i, _)| i)
            .collect();
        assert_eq!(shown.len(), 1, "exactly one subscript inside the dialog");
        s.click(shown[0]).unwrap();
        assert!(word(&s).find_subscript);
        assert!(!word(&s).doc.paragraphs[0].format.subscript, "pitfall: doc unchanged");
    }

    #[test]
    fn margins_presets_and_custom() {
        let mut s = session();
        click_by_name(&mut s, "Layout");
        click_by_name(&mut s, "Margins");
        click_by_name(&mut s, "Narrow");
        assert_eq!(word(&s).doc.page.margins, (0.5, 0.5, 0.5, 0.5));
        click_by_name(&mut s, "Page Setup");
        click_by_name(&mut s, "Top");
        s.type_text("2.5").unwrap();
        s.press("Enter").unwrap();
        assert_eq!(word(&s).doc.page.margins.0, 2.5);
    }

    #[test]
    fn paste_is_disabled_with_structured_reason() {
        let mut s = session();
        let paste = s.app().tree().find_by_name("Paste").unwrap();
        let e = s.click(paste).unwrap_err();
        assert!(e.to_string().contains("disabled"));
    }

    #[test]
    fn reset_restores_document_and_ui() {
        let mut s = session();
        let surf = word(&s).doc_surface();
        s.select_lines(surf, 0, 9).unwrap();
        click_by_name(&mut s, "Bold");
        s.restart();
        assert!(!word(&s).doc.paragraphs[0].format.bold);
        assert!(s.app().tree().find_by_name("Bold").is_some());
    }

    #[test]
    fn viewport_selection_respects_scroll() {
        let mut s = session();
        let surf = word(&s).doc_surface();
        s.scroll_to(surf, 100.0).unwrap();
        // Viewport rows 0..1 now map to paragraphs 6..7 (10 - 4 = 6 start).
        let snap = s.snapshot();
        let doc_idx = snap.find_by_name("Document").unwrap();
        let r = snap.node(doc_idx).props.rect;
        s.drag((r.x + 5, r.y + 2), (r.x + 5, r.y + 2 + dmi_gui::layout::ROW_H)).unwrap();
        let sel = word(&s).doc.selection.unwrap();
        assert_eq!((sel.start, sel.end), (6, 7));
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;
    use dmi_gui::Session;
    use std::any::Any;

    fn session() -> Session {
        Session::new(Box::new(WordApp::with_config(WordConfig { paragraphs: 8, viewport_rows: 4 })))
    }

    fn word(s: &Session) -> &WordApp {
        (s.app() as &dyn Any).downcast_ref::<WordApp>().unwrap()
    }

    fn click_visible(s: &mut Session, name: &str) {
        let tree = s.app().tree();
        let id = tree
            .iter()
            .filter(|(i, w)| {
                w.name == name && tree.is_shown(*i) && w.on_click != dmi_gui::Behavior::None
            })
            .map(|(i, _)| i)
            .next()
            .unwrap_or_else(|| panic!("no visible actionable '{name}'"));
        s.click(id).unwrap();
    }

    #[test]
    fn alignment_buttons_apply_to_selection() {
        let mut s = session();
        let surf = word(&s).doc_surface();
        s.select_lines(surf, 1, 2).unwrap();
        click_visible(&mut s, "Center");
        let d = &word(&s).doc;
        assert_eq!(d.paragraphs[1].format.alignment, crate::model::word_doc::Alignment::Center);
        assert_eq!(d.paragraphs[0].format.alignment, crate::model::word_doc::Alignment::Left);
    }

    #[test]
    fn line_spacing_menu_applies() {
        let mut s = session();
        let surf = word(&s).doc_surface();
        s.select_lines(surf, 0, 7).unwrap();
        click_visible(&mut s, "Line and Paragraph Spacing");
        click_visible(&mut s, "1.5");
        assert!((word(&s).doc.paragraphs[3].format.line_spacing - 1.5).abs() < 1e-9);
    }

    #[test]
    fn style_gallery_applies_heading() {
        let mut s = session();
        let surf = word(&s).doc_surface();
        s.select_lines(surf, 0, 0).unwrap();
        click_visible(&mut s, "Styles");
        click_visible(&mut s, "Heading 1");
        assert_eq!(word(&s).doc.paragraphs[0].format.style, "Heading 1");
    }

    #[test]
    fn font_size_gallery_applies() {
        let mut s = session();
        let surf = word(&s).doc_surface();
        s.select_lines(surf, 0, 1).unwrap();
        click_visible(&mut s, "Font Size");
        click_visible(&mut s, "24");
        assert!((word(&s).doc.paragraphs[0].format.size - 24.0).abs() < 1e-9);
    }

    #[test]
    fn highlight_gallery_applies() {
        let mut s = session();
        let surf = word(&s).doc_surface();
        s.select_lines(surf, 2, 2).unwrap();
        click_visible(&mut s, "Text Highlight Color");
        click_visible(&mut s, "Yellow");
        assert_eq!(word(&s).doc.paragraphs[2].format.highlight.as_deref(), Some("Yellow"));
    }

    #[test]
    fn orientation_menu_sets_landscape() {
        let mut s = session();
        click_visible(&mut s, "Layout");
        click_visible(&mut s, "Orientation");
        click_visible(&mut s, "Landscape");
        assert!(word(&s).doc.page.orientation_landscape);
    }

    #[test]
    fn custom_watermark_text_via_dialog() {
        let mut s = session();
        click_visible(&mut s, "Design");
        click_visible(&mut s, "Custom Watermark");
        click_visible(&mut s, "Watermark text");
        s.type_text("INTERNAL USE").unwrap();
        s.press("Enter").unwrap();
        assert_eq!(word(&s).doc.watermark.as_deref(), Some("INTERNAL USE"));
    }

    #[test]
    fn select_all_then_clear_formatting() {
        let mut s = session();
        let surf = word(&s).doc_surface();
        s.select_lines(surf, 0, 7).unwrap();
        click_visible(&mut s, "Bold");
        assert!(word(&s).doc.paragraphs[5].format.bold);
        click_visible(&mut s, "Clear All Formatting");
        assert!(!word(&s).doc.paragraphs[5].format.bold);
    }
}
