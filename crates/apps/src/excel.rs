//! The simulated Excel application.
//!
//! The workbook grid is the dominant control population (rows × cols
//! `DataItem` cells, like real Excel under UIA), complemented by the ribbon,
//! the Conditional Formatting menu tree (the paper's §5.6 policy-pitfall
//! example), the Name Box edit that commits on Enter (§5.7 "Rich control
//! descriptions" example), sort/filter machinery, and the Format Cells
//! dialog shared by several launchers (a merge node).

use crate::model::sheet::{Addr, CondRule, Range, Sheet};
use crate::office::{self, commands, Chrome, OfficeApp, OfficeModel};
use dmi_gui::{AppError, Behavior, CommandBinding, UiTree, Widget, WidgetBuilder, WidgetId};
use dmi_uia::{ControlType as CT, PatternKind};
use std::sync::Arc;

/// Build-time options for the simulated Excel instance.
#[derive(Debug, Clone)]
pub struct ExcelConfig {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Rows visible in the grid viewport.
    pub viewport_rows: usize,
}

impl Default for ExcelConfig {
    fn default() -> Self {
        ExcelConfig { rows: 110, cols: 26, viewport_rows: 30 }
    }
}

/// The simulated Excel application: an [`Excel`] model launched as an
/// [`OfficeApp`].
pub type ExcelApp = OfficeApp<Excel>;

/// The Excel model: widget tree, workbook, session state and handles.
#[derive(Debug, Clone)]
pub struct Excel {
    config: ExcelConfig,
    tree: UiTree,
    /// The workbook model.
    pub sheet: Sheet,
    /// Active cell (Name Box target).
    pub active: Addr,
    color_target: String,
    /// Staged threshold typed into a conditional-formatting dialog.
    cond_threshold: f64,
    /// Staged fill color for conditional formatting.
    cond_fill: String,
    chrome: Chrome,
    grid: WidgetId,
    name_box: WidgetId,
    formula_bar: WidgetId,
    /// Cell widget ids by (row, col); fixed at construction, so shared
    /// by the image and every fork and reset instead of copied.
    cell_widgets: Arc<Vec<Vec<WidgetId>>>,
}

impl ExcelApp {
    /// Creates the app with the default 100×26 sheet and seeded data.
    pub fn new() -> Self {
        Self::with_config(ExcelConfig::default())
    }

    /// Creates the app with explicit options.
    pub fn with_config(config: ExcelConfig) -> Self {
        let mut sheet = Sheet::new(config.rows, config.cols);
        seed_data(&mut sheet);
        let mut tree = UiTree::new();
        let chrome = office::build_chrome(&mut tree, "Book1 - Excel");
        office::build_backstage(&mut tree, chrome.main);
        let built = build_ui(&mut tree, &chrome, &config, &sheet);
        OfficeApp::launch(Excel {
            config,
            tree,
            sheet,
            active: Addr { row: 0, col: 0 },
            color_target: "fill".into(),
            cond_threshold: 0.0,
            cond_fill: "Red".into(),
            chrome,
            grid: built.grid,
            name_box: built.name_box,
            formula_bar: built.formula_bar,
            cell_widgets: Arc::new(built.cell_widgets),
        })
    }
}

impl Excel {
    /// The grid widget.
    pub fn grid(&self) -> WidgetId {
        self.grid
    }

    /// The Name Box edit.
    pub fn name_box(&self) -> WidgetId {
        self.name_box
    }

    /// The formula bar edit.
    pub fn formula_bar(&self) -> WidgetId {
        self.formula_bar
    }

    /// The chrome handles.
    pub fn chrome(&self) -> Chrome {
        self.chrome
    }

    /// The widget backing a grid cell.
    pub fn cell_widget(&self, a: Addr) -> Option<WidgetId> {
        self.cell_widgets.get(a.row).and_then(|r| r.get(a.col)).copied()
    }

    /// Refreshes cell widget values from the model (after mutation).
    fn sync_grid(&mut self) {
        for r in 0..self.config.rows {
            for c in 0..self.config.cols {
                let a = Addr { row: r, col: c };
                let v = self.sheet.cell(a).value;
                let id = self.cell_widgets[r][c];
                if self.tree.widget(id).value != v {
                    self.tree.widget_mut(id).value = v;
                }
            }
        }
    }

    fn selection_or_active(&self) -> Range {
        self.sheet.selection.unwrap_or(Range::cell(self.active))
    }

    fn apply_fill(&mut self, color: &str) {
        let range = self.selection_or_active();
        for a in range.iter().collect::<Vec<_>>() {
            self.sheet.cell_mut(a).fill = Some(color.to_string());
        }
    }

    fn add_staged_cond_rule(&mut self, kind: &str) {
        let rule = CondRule {
            kind: kind.to_string(),
            threshold: self.cond_threshold,
            fill: self.cond_fill.clone(),
            range: self.selection_or_active(),
        };
        self.sheet.add_cond_rule(rule);
    }
}

impl Default for ExcelApp {
    fn default() -> Self {
        Self::new()
    }
}

/// Seeds a small data table (used by sort/filter/conditional tasks).
fn seed_data(sheet: &mut Sheet) {
    let header = ["Product", "Region", "Units", "Revenue"];
    for (c, h) in header.iter().enumerate() {
        if c < sheet.cols {
            sheet.set_value(Addr { row: 0, col: c }, h);
        }
    }
    let rows: [(&str, &str, i64, i64); 8] = [
        ("Widget", "East", 30, 1500),
        ("Gadget", "West", 4, 200),
        ("Widget", "West", 100, 5000),
        ("Sprocket", "East", 55, 2750),
        ("Gadget", "East", 12, 600),
        ("Sprocket", "West", 70, 3500),
        ("Widget", "North", 8, 400),
        ("Gadget", "South", 41, 2050),
    ];
    for (r, (p, reg, u, rev)) in rows.iter().enumerate() {
        let row = r + 1;
        if row < sheet.rows && sheet.cols >= 4 {
            sheet.set_value(Addr { row, col: 0 }, p);
            sheet.set_value(Addr { row, col: 1 }, reg);
            sheet.set_value(Addr { row, col: 2 }, &u.to_string());
            sheet.set_value(Addr { row, col: 3 }, &rev.to_string());
        }
    }
}

struct Built {
    grid: WidgetId,
    name_box: WidgetId,
    formula_bar: WidgetId,
    cell_widgets: Vec<Vec<WidgetId>>,
}

fn build_ui(tree: &mut UiTree, chrome: &Chrome, config: &ExcelConfig, sheet: &Sheet) -> Built {
    let fonts = office::font_names();

    // ---------------- Home tab ----------------
    let home = office::add_tab(tree, chrome.ribbon, "Home", true);
    let clip = office::add_group(tree, home, "Clipboard");
    office::button(tree, clip, "Cut", "cut", None);
    office::button(tree, clip, "Copy", "copy", None);
    let paste = office::button(tree, clip, "Paste", "paste", None);
    tree.widget_mut(paste).enabled = false;

    let font_grp = office::add_group(tree, home, "Font");
    office::gallery(tree, font_grp, "Font Name", &fonts, "set_font");
    office::toggle_button(tree, font_grp, "Bold", "bold");
    office::toggle_button(tree, font_grp, "Italic", "italic");
    office::toggle_button(tree, font_grp, "Underline", "underline");
    let border_opts: Vec<String> = [
        "Bottom Border",
        "Top Border",
        "Left Border",
        "Right Border",
        "All Borders",
        "Outside Borders",
        "Thick Box Border",
        "No Border",
    ]
    .map(String::from)
    .to_vec();
    office::gallery(tree, font_grp, "Borders", &border_opts, "set_borders");
    office::color_menu(tree, font_grp, "Fill Color", "set_fill_color", "fill");
    office::color_menu(tree, font_grp, "Font Color", "set_font_color", "font");

    let align_grp = office::add_group(tree, home, "Alignment");
    for (n, a) in [("Align Left", "Left"), ("Center", "Center"), ("Align Right", "Right")] {
        office::button(tree, align_grp, n, "set_cell_alignment", Some(a));
    }
    office::checkbox(tree, align_grp, "Wrap Text", "wrap_text");
    let merge_opts: Vec<String> =
        ["Merge & Center", "Merge Across", "Merge Cells", "Unmerge Cells"]
            .map(String::from)
            .to_vec();
    office::gallery(tree, align_grp, "Merge", &merge_opts, "merge_cells");

    let num_grp = office::add_group(tree, home, "Number");
    let formats: Vec<String> = [
        "General",
        "Number",
        "Currency",
        "Accounting",
        "Short Date",
        "Long Date",
        "Time",
        "Percentage",
        "Fraction",
        "Scientific",
        "Text",
    ]
    .map(String::from)
    .to_vec();
    office::gallery(tree, num_grp, "Number Format", &formats, "set_number_format");
    office::button(tree, num_grp, "Percent Style", "set_number_format", Some("Percentage"));
    office::button(tree, num_grp, "Comma Style", "set_number_format", Some("Number"));
    office::button(tree, num_grp, "Increase Decimal", "increase_decimal", None);
    office::button(tree, num_grp, "Decrease Decimal", "decrease_decimal", None);
    // Format Cells dialog: a shared merge node reachable from several
    // launchers.
    let (fc_dlg, fc_body) = office::dialog(tree, "Format Cells");
    for tab_name in ["Number", "Alignment", "Font", "Border", "Fill", "Protection"] {
        let t = tree.add(
            fc_body,
            WidgetBuilder::new(tab_name, CT::TabItem).on_click(Behavior::SwitchTab).build(),
        );
        match tab_name {
            "Number" => {
                for f in &formats {
                    tree.add(
                        t,
                        WidgetBuilder::new(f.clone(), CT::ListItem)
                            .on_click(Behavior::Command(CommandBinding::with_arg(
                                "set_number_format",
                                f.clone(),
                            )))
                            .build(),
                    );
                }
            }
            "Fill" => {
                for c in crate::model::color::STANDARD {
                    tree.add(
                        t,
                        WidgetBuilder::new(c, CT::ListItem)
                            .on_click(Behavior::Command(CommandBinding::with_arg(
                                "set_fill_color",
                                c,
                            )))
                            .build(),
                    );
                }
            }
            _ => {
                for i in 0..6 {
                    tree.add(t, Widget::new(format!("{tab_name} Option {i}"), CT::CheckBox));
                }
            }
        }
    }
    office::dialog_launcher(tree, num_grp, "Number Format Settings", fc_dlg);

    let styles_grp = office::add_group(tree, home, "Styles");
    // Conditional Formatting menu tree.
    let cf = tree.add(
        styles_grp,
        WidgetBuilder::new("Conditional Formatting", CT::SplitButton)
            .automation_id("ConditionalFormatting")
            .help("Highlight interesting cells with rules.")
            .popup()
            .on_click(Behavior::OpenMenu)
            .build(),
    );
    let hc = tree.add(
        cf,
        WidgetBuilder::new("Highlight Cells Rules", CT::MenuItem)
            .popup()
            .on_click(Behavior::OpenMenu)
            .build(),
    );
    for (label, kind) in [
        ("Greater Than...", "greater_than"),
        ("Less Than...", "less_than"),
        ("Equal To...", "equal"),
    ] {
        let (dlg, body) = office::dialog(tree, label.trim_end_matches("..."));
        office::edit_field(tree, body, "Format cells that are", "set_cond_threshold");
        let fills: Vec<String> =
            ["Light Red Fill", "Yellow Fill", "Green Fill", "Red", "Yellow", "Green"]
                .map(String::from)
                .to_vec();
        office::gallery(tree, body, "with", &fills, "set_cond_fill");
        office::button(tree, body, "Apply Rule", "apply_cond_rule", Some(kind));
        tree.add(
            hc,
            WidgetBuilder::new(label, CT::MenuItem).on_click(Behavior::OpenDialog(dlg)).build(),
        );
    }
    let tb = tree.add(
        cf,
        WidgetBuilder::new("Top/Bottom Rules", CT::MenuItem)
            .popup()
            .on_click(Behavior::OpenMenu)
            .build(),
    );
    for l in [
        "Top 10 Items...",
        "Top 10%...",
        "Bottom 10 Items...",
        "Bottom 10%...",
        "Above Average...",
        "Below Average...",
    ] {
        tree.add(
            tb,
            WidgetBuilder::new(l, CT::MenuItem)
                .on_click(Behavior::CommandAndDismiss(CommandBinding::with_arg(
                    "apply_top_bottom",
                    l,
                )))
                .build(),
        );
    }
    for (name, n) in [("Data Bars", 12), ("Color Scales", 12), ("Icon Sets", 20)] {
        let m = tree.add(
            cf,
            WidgetBuilder::new(name, CT::MenuItem).popup().on_click(Behavior::OpenMenu).build(),
        );
        for i in 0..n {
            tree.add(
                m,
                WidgetBuilder::new(format!("{name} {i}"), CT::ListItem)
                    .on_click(Behavior::CommandAndDismiss(CommandBinding::with_arg(
                        "apply_visual_rule",
                        format!("{name} {i}"),
                    )))
                    .build(),
            );
        }
    }
    let table_styles: Vec<String> = (0..60).map(|i| format!("Table Style {i}")).collect();
    office::gallery(tree, styles_grp, "Format as Table", &table_styles, "format_as_table");
    let cell_styles: Vec<String> = (0..48).map(|i| format!("Cell Style {i}")).collect();
    office::gallery(tree, styles_grp, "Cell Styles", &cell_styles, "apply_cell_style");

    let cells_grp = office::add_group(tree, home, "Cells");
    let fmt_menu = tree.add(
        cells_grp,
        WidgetBuilder::new("Format", CT::SplitButton).popup().on_click(Behavior::OpenMenu).build(),
    );
    let (rh_dlg, rh_body) = office::dialog(tree, "Row Height");
    office::edit_field(tree, rh_body, "Row height", "set_row_height");
    tree.add(
        fmt_menu,
        WidgetBuilder::new("Row Height...", CT::MenuItem)
            .on_click(Behavior::OpenDialog(rh_dlg))
            .build(),
    );
    let (rn_dlg, rn_body) = office::dialog(tree, "Rename Sheet");
    office::edit_field(tree, rn_body, "Sheet name", "rename_sheet");
    tree.add(
        fmt_menu,
        WidgetBuilder::new("Rename Sheet", CT::MenuItem)
            .on_click(Behavior::OpenDialog(rn_dlg))
            .build(),
    );
    tree.add(
        fmt_menu,
        WidgetBuilder::new("Format Cells...", CT::MenuItem)
            .on_click(Behavior::OpenDialog(fc_dlg))
            .build(),
    );
    office::color_menu(tree, fmt_menu, "Tab Color", "set_tab_color", "tab");

    let edit_grp = office::add_group(tree, home, "Editing");
    let autosum = tree.add(
        edit_grp,
        WidgetBuilder::new("AutoSum", CT::SplitButton).popup().on_click(Behavior::OpenMenu).build(),
    );
    for f in ["Sum", "Average", "Count Numbers", "Max", "Min"] {
        tree.add(
            autosum,
            WidgetBuilder::new(f, CT::MenuItem)
                .on_click(Behavior::CommandAndDismiss(CommandBinding::with_arg("autosum", f)))
                .build(),
        );
    }
    let sf = tree.add(
        edit_grp,
        WidgetBuilder::new("Sort & Filter", CT::SplitButton)
            .automation_id("SortFilter")
            .popup()
            .on_click(Behavior::OpenMenu)
            .build(),
    );
    tree.add(
        sf,
        WidgetBuilder::new("Sort A to Z", CT::MenuItem)
            .on_click(Behavior::CommandAndDismiss(CommandBinding::with_arg("sort", "asc")))
            .build(),
    );
    tree.add(
        sf,
        WidgetBuilder::new("Sort Z to A", CT::MenuItem)
            .on_click(Behavior::CommandAndDismiss(CommandBinding::with_arg("sort", "desc")))
            .build(),
    );
    let (sort_dlg, sort_body) = office::dialog(tree, "Sort");
    let col_names: Vec<String> = (0..config.cols.min(26))
        .map(|c| format!("Column {}", Addr { row: 0, col: c }.to_a1().trim_end_matches('1')))
        .collect();
    office::gallery(tree, sort_body, "Sort by", &col_names, "set_sort_column");
    office::radio_group(tree, sort_body, "Order", &["Ascending", "Descending"], "set_sort_order");
    office::button(tree, sort_body, "Apply Sort", "apply_custom_sort", None);
    tree.add(
        sf,
        WidgetBuilder::new("Custom Sort...", CT::MenuItem)
            .on_click(Behavior::OpenDialog(sort_dlg))
            .build(),
    );
    tree.add(
        sf,
        WidgetBuilder::new("Filter", CT::MenuItem)
            .on_click(Behavior::CommandAndDismiss(CommandBinding::new("toggle_filter")))
            .build(),
    );

    // ---------------- Insert / Formulas / Data / View tabs ----------------
    let insert = office::add_tab(tree, chrome.ribbon, "Insert", false);
    let charts_grp = office::add_group(tree, insert, "Charts");
    for kind in ["Column", "Line", "Pie", "Bar"] {
        let items: Vec<String> = (0..12).map(|i| format!("{kind} Chart {i}")).collect();
        office::gallery(tree, charts_grp, &format!("Insert {kind} Chart"), &items, "insert_chart");
    }
    let tables_grp = office::add_group(tree, insert, "Tables");
    office::button(tree, tables_grp, "PivotTable", "insert_pivot", None);
    office::button(tree, tables_grp, "Table", "insert_table", None);

    let formulas = office::add_tab(tree, chrome.ribbon, "Formulas", false);
    let lib = office::add_group(tree, formulas, "Function Library");
    for cat in [
        "Financial",
        "Logical",
        "Text",
        "Date & Time",
        "Lookup",
        "Math & Trig",
        "Statistical",
        "Engineering",
    ] {
        let items: Vec<String> = (0..24).map(|i| format!("{cat} Function {i}")).collect();
        office::gallery(tree, lib, cat, &items, "insert_function");
    }

    let data = office::add_tab(tree, chrome.ribbon, "Data", false);
    let dg = office::add_group(tree, data, "Sort & Filter");
    office::button(tree, dg, "Sort Ascending", "sort", Some("asc"));
    office::button(tree, dg, "Sort Descending", "sort", Some("desc"));
    office::button(tree, dg, "Filter", "toggle_filter", None);
    let tools = office::add_group(tree, data, "Data Tools");
    office::button(tree, tools, "Remove Duplicates", "remove_duplicates", None);
    // A wizard that cannot be escaped — rip blocklist candidate.
    tree.add(
        tools,
        WidgetBuilder::new("Text to Columns", CT::Button).on_click(Behavior::Trap).build(),
    );

    let view = office::add_tab(tree, chrome.ribbon, "View", false);
    let wg = office::add_group(tree, view, "Window");
    let freeze = tree.add(
        wg,
        WidgetBuilder::new("Freeze Panes", CT::SplitButton)
            .automation_id("FreezePanes")
            .popup()
            .on_click(Behavior::OpenMenu)
            .build(),
    );
    for (l, a) in [
        ("Freeze Panes", "both"),
        ("Freeze Top Row", "top_row"),
        ("Freeze First Column", "first_col"),
    ] {
        tree.add(
            freeze,
            WidgetBuilder::new(l, CT::MenuItem)
                .on_click(Behavior::CommandAndDismiss(CommandBinding::with_arg("freeze", a)))
                .build(),
        );
    }
    let sg = office::add_group(tree, view, "Show");
    office::checkbox(tree, sg, "Gridlines", "show_gridlines");
    office::checkbox(tree, sg, "Formula Bar", "show_formula_bar");
    office::checkbox(tree, sg, "Headings", "show_headings");

    // ---------------- Name box, formula bar, grid ----------------
    let bar = tree.add(chrome.main, Widget::new("Formula Bar Area", CT::Pane));
    let name_box = tree.add(
        bar,
        WidgetBuilder::new("Name Box", CT::Edit)
            .automation_id("NameBox")
            .help("Type a cell reference and press Enter to go to it.")
            .on_click(Behavior::FocusEdit)
            .binding(CommandBinding::new("name_box_goto"))
            .build(),
    );
    let formula_bar = tree.add(
        bar,
        WidgetBuilder::new("Formula Bar", CT::Edit)
            .automation_id("FormulaBar")
            .help("Edit the active cell's value; press Enter to commit.")
            .on_click(Behavior::FocusEdit)
            .binding(CommandBinding::new("commit_formula"))
            .build(),
    );

    let grid = tree.add(
        chrome.main,
        WidgetBuilder::new("Sheet1 Grid", CT::Table)
            .automation_id("Grid")
            .scrollable(config.viewport_rows)
            .pattern(PatternKind::Grid)
            .pattern(PatternKind::Selection)
            .build(),
    );
    let header_row = tree.add(grid, Widget::new("Column Headers", CT::Header));
    for c in 0..config.cols {
        let name = Addr { row: 0, col: c }.to_a1().trim_end_matches('1').to_string();
        tree.add(
            header_row,
            WidgetBuilder::new(format!("Column {name}"), CT::HeaderItem)
                .on_click(Behavior::Command(CommandBinding::with_arg(
                    "select_column",
                    name.clone(),
                )))
                .build(),
        );
    }
    let mut cell_widgets = Vec::with_capacity(config.rows);
    for r in 0..config.rows {
        let row = tree.add(grid, Widget::new(format!("Row {}", r + 1), CT::Custom));
        let mut row_ids = Vec::with_capacity(config.cols);
        for c in 0..config.cols {
            let a = Addr { row: r, col: c };
            let id = tree.add(
                row,
                WidgetBuilder::new(a.to_a1(), CT::DataItem)
                    .value(sheet.cell(a).value)
                    .on_click(Behavior::Command(CommandBinding::with_arg("select_cell", a.to_a1())))
                    .build(),
            );
            row_ids.push(id);
        }
        cell_widgets.push(row_ids);
    }
    tree.add(
        chrome.main,
        WidgetBuilder::new("Vertical Scroll Bar", CT::ScrollBar)
            .automation_id("VScroll")
            .scroll_target(grid)
            .build(),
    );

    Built { grid, name_box, formula_bar, cell_widgets }
}

impl OfficeModel for Excel {
    fn tree(&self) -> &UiTree {
        &self.tree
    }

    fn tree_mut(&mut self) -> &mut UiTree {
        &mut self.tree
    }

    fn dispatch(&mut self, src: WidgetId, b: &CommandBinding) -> Result<(), AppError> {
        let arg = b.arg.as_deref();
        match b.command.as_str() {
            "select_cell" => {
                let a = Addr::parse(arg.unwrap_or_default()).ok_or_else(|| {
                    AppError::InvalidArgument { message: format!("bad cell ref {arg:?}") }
                })?;
                self.active = a;
                self.sheet.selection = Some(Range::cell(a));
                let v = self.sheet.cell(a).value;
                let fb = self.formula_bar;
                self.tree.widget_mut(fb).value = v;
                Ok(())
            }
            "select_column" => {
                let col_letter = arg.unwrap_or("A");
                let a = Addr::parse(&format!("{col_letter}1")).ok_or_else(|| {
                    AppError::InvalidArgument { message: format!("bad column {col_letter}") }
                })?;
                self.sheet.selection = Some(Range {
                    from: Addr { row: 0, col: a.col },
                    to: Addr { row: self.config.rows - 1, col: a.col },
                });
                Ok(())
            }
            "name_box_goto" => {
                let text = self.tree.widget(src).value.clone();
                let range = Range::parse(&text).ok_or_else(|| AppError::InvalidArgument {
                    message: format!("'{text}' is not a valid reference"),
                })?;
                self.sheet.selection = Some(range);
                self.active = range.from;
                Ok(())
            }
            "commit_formula" => {
                let text = self.tree.widget(src).value.clone();
                let a = self.active;
                self.sheet.set_value(a, &text);
                self.sync_grid();
                Ok(())
            }
            "set_cell_value" => {
                // Direct programmatic path used when typing into a cell.
                let a = self.active;
                self.sheet.set_value(a, arg.unwrap_or_default());
                self.sync_grid();
                Ok(())
            }
            "set_fill_color" => {
                self.apply_fill(arg.unwrap_or_default());
                Ok(())
            }
            "set_font_color" | "set_tab_color" => Ok(()),
            commands::OPEN_MORE_COLORS => {
                self.color_target = arg.unwrap_or("fill").to_string();
                let dlg = self.chrome.more_colors;
                self.tree.open_window(dlg, true);
                Ok(())
            }
            commands::APPLY_COLOR_CTX => {
                if self.color_target == "fill" {
                    self.apply_fill(arg.unwrap_or_default());
                }
                Ok(())
            }
            "toggle_format" => {
                if arg == Some("bold") {
                    let range = self.selection_or_active();
                    for a in range.iter().collect::<Vec<_>>() {
                        let cell = self.sheet.cell_mut(a);
                        cell.bold = !cell.bold;
                    }
                }
                Ok(())
            }
            "set_number_format" => {
                let f = arg.unwrap_or("General").to_string();
                let range = self.selection_or_active();
                for a in range.iter().collect::<Vec<_>>() {
                    self.sheet.cell_mut(a).number_format = Some(f.clone());
                }
                Ok(())
            }
            "set_cond_threshold" => {
                let text = self.tree.widget(src).value.clone();
                self.cond_threshold = text.parse().map_err(|_| AppError::InvalidArgument {
                    message: format!("'{text}' is not a number"),
                })?;
                Ok(())
            }
            "set_cond_fill" => {
                let f = arg.unwrap_or("Red");
                self.cond_fill = f.trim_end_matches(" Fill").replace("Light Red", "Red");
                Ok(())
            }
            "apply_cond_rule" => {
                self.add_staged_cond_rule(arg.unwrap_or("greater_than"));
                Ok(())
            }
            "sort" => {
                let asc = arg != Some("desc");
                let col = self.selection_or_active().from.col;
                self.sheet.sort_by_column(col, asc);
                self.sync_grid();
                Ok(())
            }
            "set_sort_column" => {
                let letter = arg.unwrap_or("Column A").trim_start_matches("Column ").to_string();
                if let Some(a) = Addr::parse(&format!("{letter}1")) {
                    self.active = Addr { row: 0, col: a.col };
                }
                Ok(())
            }
            "set_sort_order" => {
                self.cond_threshold = if arg == Some("Descending") { 1.0 } else { 0.0 };
                Ok(())
            }
            "apply_custom_sort" => {
                let desc = self.cond_threshold > 0.5;
                let col = self.active.col;
                self.sheet.sort_by_column(col, !desc);
                self.sync_grid();
                Ok(())
            }
            "toggle_filter" => {
                self.sheet.filter_on = !self.sheet.filter_on;
                Ok(())
            }
            "freeze" => {
                match arg {
                    Some("top_row") => self.sheet.frozen_rows = 1,
                    Some("first_col") => self.sheet.frozen_cols = 1,
                    _ => {
                        self.sheet.frozen_rows = self.active.row;
                        self.sheet.frozen_cols = self.active.col;
                    }
                }
                Ok(())
            }
            "rename_sheet" => {
                self.sheet.name = self.tree.widget(src).value.clone();
                Ok(())
            }
            "insert_chart" => {
                self.sheet.charts.push(arg.unwrap_or("Chart").to_string());
                Ok(())
            }
            "autosum" => {
                let f = match arg.unwrap_or("Sum") {
                    "Average" => "AVERAGE",
                    "Count Numbers" => "COUNT",
                    "Max" => "MAX",
                    "Min" => "MIN",
                    _ => "SUM",
                };
                // Sum the column above the active cell.
                let a = self.active;
                if a.row > 0 {
                    let range = Range {
                        from: Addr { row: 0, col: a.col },
                        to: Addr { row: a.row - 1, col: a.col },
                    };
                    let formula = format!("={f}({}:{})", range.from.to_a1(), range.to.to_a1());
                    self.sheet.set_value(a, &formula);
                    self.sync_grid();
                }
                Ok(())
            }
            "set_row_height" | "apply_top_bottom" | "apply_visual_rule" | "format_as_table"
            | "apply_cell_style" | "merge_cells" | "wrap_text" | "increase_decimal"
            | "decrease_decimal" | "set_borders" | "set_font" | "set_cell_alignment"
            | "insert_pivot" | "insert_table" | "insert_function" | "remove_duplicates"
            | "save" | "save_as" | "undo" | "redo" | "print" | "cut" | "copy" | "paste"
            | "new_from_template" | "open_recent" => Ok(()),
            other => {
                Err(AppError::Command { command: other.into(), reason: "unknown command".into() })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmi_gui::Session;
    use std::any::Any;

    fn session() -> Session {
        Session::new(Box::new(ExcelApp::with_config(ExcelConfig {
            rows: 12,
            cols: 6,
            viewport_rows: 6,
        })))
    }

    fn excel(s: &Session) -> &ExcelApp {
        (s.app() as &dyn Any).downcast_ref::<ExcelApp>().unwrap()
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
    fn default_tree_exceeds_4k_controls() {
        let app = ExcelApp::new();
        assert!(app.tree.len() > 4000, "Excel tree has {} widgets", app.tree.len());
    }

    #[test]
    fn name_box_selects_range() {
        let mut s = session();
        let nb = excel(&s).name_box();
        s.click(nb).unwrap();
        s.type_text("B2:C4").unwrap();
        s.press("Enter").unwrap();
        let sel = excel(&s).sheet.selection.unwrap();
        assert_eq!(sel.from, Addr { row: 1, col: 1 });
        assert_eq!(sel.to, Addr { row: 3, col: 2 });
    }

    #[test]
    fn name_box_requires_enter_to_commit() {
        let mut s = session();
        let nb = excel(&s).name_box();
        s.click(nb).unwrap();
        s.type_text("B2").unwrap();
        // No Enter: selection unchanged.
        assert_eq!(excel(&s).sheet.selection, None);
    }

    #[test]
    fn formula_bar_sets_active_cell() {
        let mut s = session();
        let a1 = excel(&s).cell_widget(Addr::parse("F10").unwrap()).unwrap();
        // Cell is offscreen in the 6-row viewport? F10 row 9 beyond viewport;
        // scroll first.
        let grid = excel(&s).grid();
        s.scroll_to(grid, 100.0).unwrap();
        s.click(a1).unwrap();
        let fb = excel(&s).formula_bar();
        s.click(fb).unwrap();
        s.type_text("=SUM(C2:C9)").unwrap();
        s.press("Enter").unwrap();
        let v = excel(&s).sheet.cell(Addr::parse("F10").unwrap()).value.clone();
        assert!(!v.starts_with('='), "formula evaluated, got {v}");
    }

    #[test]
    fn fill_color_applies_to_selection() {
        let mut s = session();
        let nb = excel(&s).name_box();
        s.click(nb).unwrap();
        s.type_text("A1:B2").unwrap();
        s.press("Enter").unwrap();
        click_by_name(&mut s, "Fill Color");
        click_by_name(&mut s, "Yellow");
        let sheet = &excel(&s).sheet;
        assert_eq!(sheet.cell(Addr::parse("A1").unwrap()).fill.as_deref(), Some("Yellow"));
        assert_eq!(sheet.cell(Addr::parse("B2").unwrap()).fill.as_deref(), Some("Yellow"));
        assert_eq!(sheet.cell(Addr::parse("C3").unwrap()).fill, None);
    }

    #[test]
    fn conditional_rule_through_dialog_hits_blanks() {
        let mut s = session();
        let nb = excel(&s).name_box();
        s.click(nb).unwrap();
        s.type_text("C1:C12").unwrap();
        s.press("Enter").unwrap();
        click_by_name(&mut s, "Conditional Formatting");
        click_by_name(&mut s, "Highlight Cells Rules");
        click_by_name(&mut s, "Less Than...");
        click_by_name(&mut s, "Format cells that are");
        s.type_text("10").unwrap();
        s.press("Enter").unwrap();
        click_by_name(&mut s, "Apply Rule");
        click_by_name(&mut s, "OK");
        let sheet = &excel(&s).sheet;
        assert_eq!(sheet.cond_rules.len(), 1);
        // C11/C12 are blank -> matched (the paper's pitfall).
        assert!(sheet.cell(Addr::parse("C11").unwrap()).fill.is_some());
    }

    #[test]
    fn sort_via_menu() {
        let mut s = session();
        let nb = excel(&s).name_box();
        s.click(nb).unwrap();
        s.type_text("C1").unwrap();
        s.press("Enter").unwrap();
        click_by_name(&mut s, "Sort & Filter");
        click_by_name(&mut s, "Sort A to Z");
        assert_eq!(excel(&s).sheet.last_sort, Some((2, true)));
        let units: Vec<String> =
            (1..9).map(|r| excel(&s).sheet.cell(Addr { row: r, col: 2 }).value.clone()).collect();
        let mut sorted = units.clone();
        sorted.sort_by_key(|v| v.parse::<i64>().unwrap_or(i64::MAX));
        assert_eq!(units, sorted);
    }

    #[test]
    fn freeze_top_row() {
        let mut s = session();
        click_by_name(&mut s, "View");
        click_by_name(&mut s, "Freeze Panes");
        // Inside the open menu, the item shares the button's name.
        let shown: Vec<_> = s
            .app()
            .tree()
            .iter()
            .filter(|(i, w)| w.name == "Freeze Top Row" && s.app().tree().is_shown(*i))
            .map(|(i, _)| i)
            .collect();
        s.click(shown[0]).unwrap();
        assert_eq!(excel(&s).sheet.frozen_rows, 1);
    }

    #[test]
    fn rename_sheet_dialog() {
        let mut s = session();
        click_by_name(&mut s, "Format");
        click_by_name(&mut s, "Rename Sheet");
        click_by_name(&mut s, "Sheet name");
        s.type_text("Budget").unwrap();
        s.press("Enter").unwrap();
        click_by_name(&mut s, "OK");
        assert_eq!(excel(&s).sheet.name, "Budget");
    }

    #[test]
    fn grid_cells_are_dataitems_with_values() {
        let mut s = session();
        let snap = s.snapshot();
        let b1 = snap.find_all(|n| n.props.name == "B1");
        assert_eq!(b1.len(), 1);
        assert_eq!(snap.node(b1[0]).props.value, "Region");
        assert_eq!(snap.node(b1[0]).props.control_type, CT::DataItem);
    }

    #[test]
    fn text_to_columns_traps_ui() {
        let mut s = session();
        click_by_name(&mut s, "Data");
        click_by_name(&mut s, "Text to Columns");
        assert!(s.is_trapped());
        assert!(s.press("Esc").is_err());
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;
    use dmi_gui::Session;
    use std::any::Any;

    fn session() -> Session {
        Session::new(Box::new(ExcelApp::with_config(ExcelConfig {
            rows: 14,
            cols: 7,
            viewport_rows: 8,
        })))
    }

    fn excel(s: &Session) -> &ExcelApp {
        (s.app() as &dyn Any).downcast_ref::<ExcelApp>().unwrap()
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

    fn goto(s: &mut Session, r: &str) {
        let nb = excel(s).name_box();
        s.click(nb).unwrap();
        s.type_text(r).unwrap();
        s.press("Enter").unwrap();
    }

    #[test]
    fn clicking_a_cell_selects_it_and_fills_formula_bar() {
        let mut s = session();
        let b1 = excel(&s).cell_widget(Addr::parse("B1").unwrap()).unwrap();
        s.click(b1).unwrap();
        assert_eq!(excel(&s).active, Addr::parse("B1").unwrap());
        let fb = excel(&s).formula_bar();
        assert_eq!(s.app().tree().widget(fb).value, "Region");
    }

    #[test]
    fn autosum_average_uses_column_above() {
        let mut s = session();
        goto(&mut s, "C11");
        click_visible(&mut s, "AutoSum");
        click_visible(&mut s, "Average");
        let v = excel(&s).sheet.cell(Addr::parse("C11").unwrap()).value.clone();
        assert_eq!(v, "40"); // 320 over 8 numeric rows.
    }

    #[test]
    fn custom_sort_descending_via_dialog() {
        let mut s = session();
        click_visible(&mut s, "Sort & Filter");
        click_visible(&mut s, "Custom Sort...");
        click_visible(&mut s, "Sort by");
        click_visible(&mut s, "Column D");
        click_visible(&mut s, "Descending");
        click_visible(&mut s, "Apply Sort");
        click_visible(&mut s, "OK");
        assert_eq!(excel(&s).sheet.last_sort, Some((3, false)));
        let top = excel(&s).sheet.cell(Addr::parse("D2").unwrap()).value.clone();
        assert_eq!(top, "5000");
    }

    #[test]
    fn greater_than_rule_only_hits_matches() {
        let mut s = session();
        goto(&mut s, "D1:D14");
        click_visible(&mut s, "Conditional Formatting");
        click_visible(&mut s, "Highlight Cells Rules");
        click_visible(&mut s, "Greater Than...");
        click_visible(&mut s, "Format cells that are");
        s.type_text("2500").unwrap();
        s.press("Enter").unwrap();
        click_visible(&mut s, "Apply Rule");
        click_visible(&mut s, "OK");
        let sheet = &excel(&s).sheet;
        assert!(sheet.cell(Addr::parse("D4").unwrap()).fill.is_some()); // 5000
        assert!(sheet.cell(Addr::parse("D3").unwrap()).fill.is_none()); // 200
    }

    #[test]
    fn filter_toggle_via_menu() {
        let mut s = session();
        click_visible(&mut s, "Sort & Filter");
        click_visible(&mut s, "Filter");
        assert!(excel(&s).sheet.filter_on);
    }

    #[test]
    fn number_format_gallery_applies_to_selection() {
        let mut s = session();
        goto(&mut s, "C2:C4");
        click_visible(&mut s, "Number Format");
        click_visible(&mut s, "Currency");
        let sheet = &excel(&s).sheet;
        assert_eq!(
            sheet.cell(Addr::parse("C3").unwrap()).number_format.as_deref(),
            Some("Currency")
        );
        assert_eq!(sheet.cell(Addr::parse("C5").unwrap()).number_format, None);
    }
}
