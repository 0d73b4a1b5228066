//! The Excel-like workbook model.

use std::collections::BTreeMap;

/// A cell address: 0-based row and column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr {
    pub row: usize,
    pub col: usize,
}

impl Addr {
    /// Parses an A1-style reference (e.g. `"B7"`).
    pub fn parse(s: &str) -> Option<Addr> {
        let s = s.trim().to_uppercase();
        let split = s.find(|c: char| c.is_ascii_digit())?;
        let (letters, digits) = s.split_at(split);
        if letters.is_empty() || digits.is_empty() {
            return None;
        }
        let mut col = 0usize;
        for c in letters.chars() {
            if !c.is_ascii_uppercase() {
                return None;
            }
            col = col * 26 + (c as usize - 'A' as usize + 1);
        }
        let row: usize = digits.parse().ok()?;
        if row == 0 {
            return None;
        }
        Some(Addr { row: row - 1, col: col - 1 })
    }

    /// Formats as an A1-style reference.
    pub fn to_a1(self) -> String {
        let mut col = self.col + 1;
        let mut letters = String::new();
        while col > 0 {
            let rem = (col - 1) % 26;
            letters.insert(0, (b'A' + rem as u8) as char);
            col = (col - 1) / 26;
        }
        format!("{}{}", letters, self.row + 1)
    }
}

/// A rectangular cell range, inclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Range {
    pub from: Addr,
    pub to: Addr,
}

impl Range {
    /// A single-cell range.
    pub fn cell(a: Addr) -> Range {
        Range { from: a, to: a }
    }

    /// Parses `"A1"` or `"A1:B5"`.
    pub fn parse(s: &str) -> Option<Range> {
        match s.split_once(':') {
            Some((a, b)) => Some(Range { from: Addr::parse(a)?, to: Addr::parse(b)? }),
            None => Addr::parse(s).map(Range::cell),
        }
    }

    /// Iterates over every address in the range, row-major.
    pub fn iter(&self) -> impl Iterator<Item = Addr> + '_ {
        let (r0, r1) = (self.from.row.min(self.to.row), self.from.row.max(self.to.row));
        let (c0, c1) = (self.from.col.min(self.to.col), self.from.col.max(self.to.col));
        (r0..=r1).flat_map(move |r| (c0..=c1).map(move |c| Addr { row: r, col: c }))
    }

    /// Whether the range contains an address.
    pub fn contains(&self, a: Addr) -> bool {
        let (r0, r1) = (self.from.row.min(self.to.row), self.from.row.max(self.to.row));
        let (c0, c1) = (self.from.col.min(self.to.col), self.from.col.max(self.to.col));
        a.row >= r0 && a.row <= r1 && a.col >= c0 && a.col <= c1
    }
}

/// One cell's content and formatting.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Cell {
    pub value: String,
    pub fill: Option<String>,
    pub bold: bool,
    pub number_format: Option<String>,
}

/// A conditional formatting rule.
#[derive(Debug, Clone, PartialEq)]
pub struct CondRule {
    /// `"greater_than"`, `"less_than"`, or `"equal"`.
    pub kind: String,
    /// Comparison threshold.
    pub threshold: f64,
    /// Fill applied to matching cells.
    pub fill: String,
    /// The range the rule applies to.
    pub range: Range,
}

/// The workbook: a single sheet grid with formatting state.
#[derive(Debug, Clone, PartialEq)]
pub struct Sheet {
    pub name: String,
    pub rows: usize,
    pub cols: usize,
    cells: BTreeMap<Addr, Cell>,
    pub selection: Option<Range>,
    pub frozen_rows: usize,
    pub frozen_cols: usize,
    pub cond_rules: Vec<CondRule>,
    /// (column, ascending) of the last sort.
    pub last_sort: Option<(usize, bool)>,
    /// Inserted chart kinds.
    pub charts: Vec<String>,
    /// Whether filter dropdowns are shown on the header row.
    pub filter_on: bool,
}

impl Sheet {
    /// An empty sheet of the given size.
    pub fn new(rows: usize, cols: usize) -> Self {
        Sheet {
            name: "Sheet1".into(),
            rows,
            cols,
            cells: BTreeMap::new(),
            selection: None,
            frozen_rows: 0,
            frozen_cols: 0,
            cond_rules: Vec::new(),
            last_sort: None,
            charts: Vec::new(),
            filter_on: false,
        }
    }

    /// Reads a cell (default-empty).
    pub fn cell(&self, a: Addr) -> Cell {
        self.cells.get(&a).cloned().unwrap_or_default()
    }

    /// Mutable access to a cell, creating it when absent.
    pub fn cell_mut(&mut self, a: Addr) -> &mut Cell {
        self.cells.entry(a).or_default()
    }

    /// Sets a cell's value; evaluates `=SUM(range)` and `=AVERAGE(range)`
    /// formulas immediately (value-storing model).
    pub fn set_value(&mut self, a: Addr, value: &str) {
        let stored =
            if let Some(result) = self.eval_formula(value) { result } else { value.to_string() };
        self.cell_mut(a).value = stored;
    }

    /// Evaluates supported formulas, returning the computed value.
    fn eval_formula(&self, v: &str) -> Option<String> {
        let body = v.strip_prefix('=')?;
        let (func, rest) = body.split_once('(')?;
        let range_str = rest.strip_suffix(')')?;
        let range = Range::parse(range_str)?;
        let nums: Vec<f64> =
            range.iter().filter_map(|a| self.cell(a).value.parse::<f64>().ok()).collect();
        match func.to_uppercase().as_str() {
            "SUM" => Some(format_num(nums.iter().sum())),
            "AVERAGE" if !nums.is_empty() => {
                Some(format_num(nums.iter().sum::<f64>() / nums.len() as f64))
            }
            "COUNT" => Some(format_num(nums.len() as f64)),
            "MAX" => nums
                .iter()
                .cloned()
                .fold(None, |m: Option<f64>, x| Some(m.map_or(x, |m| m.max(x))))
                .map(format_num),
            "MIN" => nums
                .iter()
                .cloned()
                .fold(None, |m: Option<f64>, x| Some(m.map_or(x, |m| m.min(x))))
                .map(format_num),
            _ => None,
        }
    }

    /// Sorts rows `1..rows` by the given column (row 0 is the header).
    pub fn sort_by_column(&mut self, col: usize, ascending: bool) {
        let mut data_rows: Vec<Vec<Cell>> = Vec::new();
        let mut present: Vec<usize> = Vec::new();
        for r in 1..self.rows {
            let any = (0..self.cols).any(|c| !self.cell(Addr { row: r, col: c }).value.is_empty());
            if any {
                present.push(r);
                data_rows
                    .push((0..self.cols).map(|c| self.cell(Addr { row: r, col: c })).collect());
            }
        }
        data_rows.sort_by(|a, b| {
            let av = &a[col].value;
            let bv = &b[col].value;
            let ord = match (av.parse::<f64>(), bv.parse::<f64>()) {
                (Ok(x), Ok(y)) => x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal),
                _ => av.cmp(bv),
            };
            if ascending {
                ord
            } else {
                ord.reverse()
            }
        });
        for (slot, row_cells) in present.iter().zip(data_rows) {
            for (c, cell) in row_cells.into_iter().enumerate() {
                if cell == Cell::default() {
                    self.cells.remove(&Addr { row: *slot, col: c });
                } else {
                    self.cells.insert(Addr { row: *slot, col: c }, cell);
                }
            }
        }
        self.last_sort = Some((col, ascending));
    }

    /// Adds a conditional rule and applies its fill to matching cells.
    ///
    /// Faithfully reproduces the Office semantics the paper calls out as a
    /// policy pitfall (§5.6): the rule applies to *all* cells in the
    /// selected range, including blanks (blank cells compare as 0).
    pub fn add_cond_rule(&mut self, rule: CondRule) {
        for a in rule.range.iter().collect::<Vec<_>>() {
            let v = self.cell(a).value.parse::<f64>().unwrap_or(0.0);
            let hit = match rule.kind.as_str() {
                "greater_than" => v > rule.threshold,
                "less_than" => v < rule.threshold,
                _ => (v - rule.threshold).abs() < f64::EPSILON,
            };
            if hit {
                self.cell_mut(a).fill = Some(rule.fill.clone());
            }
        }
        self.cond_rules.push(rule);
    }
}

fn format_num(x: f64) -> String {
    if (x - x.round()).abs() < 1e-9 {
        format!("{}", x.round() as i64)
    } else {
        format!("{x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_parse_and_format() {
        assert_eq!(Addr::parse("A1"), Some(Addr { row: 0, col: 0 }));
        assert_eq!(Addr::parse("b7"), Some(Addr { row: 6, col: 1 }));
        assert_eq!(Addr::parse("AA10"), Some(Addr { row: 9, col: 26 }));
        assert_eq!(Addr { row: 9, col: 26 }.to_a1(), "AA10");
        assert_eq!(Addr::parse("1A"), None);
        assert_eq!(Addr::parse(""), None);
        assert_eq!(Addr::parse("A0"), None);
    }

    #[test]
    fn range_parse_and_iter() {
        let r = Range::parse("A1:B2").unwrap();
        let cells: Vec<String> = r.iter().map(|a| a.to_a1()).collect();
        assert_eq!(cells, vec!["A1", "B1", "A2", "B2"]);
        assert!(r.contains(Addr::parse("B1").unwrap()));
        assert!(!r.contains(Addr::parse("C1").unwrap()));
    }

    #[test]
    fn set_and_get_values() {
        let mut s = Sheet::new(10, 5);
        s.set_value(Addr::parse("A1").unwrap(), "42");
        assert_eq!(s.cell(Addr::parse("A1").unwrap()).value, "42");
        assert_eq!(s.cell(Addr::parse("B9").unwrap()).value, "");
    }

    #[test]
    fn sum_formula_evaluates() {
        let mut s = Sheet::new(10, 5);
        s.set_value(Addr::parse("A1").unwrap(), "1");
        s.set_value(Addr::parse("A2").unwrap(), "2");
        s.set_value(Addr::parse("A3").unwrap(), "3.5");
        s.set_value(Addr::parse("B1").unwrap(), "=SUM(A1:A3)");
        assert_eq!(s.cell(Addr::parse("B1").unwrap()).value, "6.5");
        s.set_value(Addr::parse("B2").unwrap(), "=AVERAGE(A1:A2)");
        assert_eq!(s.cell(Addr::parse("B2").unwrap()).value, "1.5");
        s.set_value(Addr::parse("B3").unwrap(), "=MAX(A1:A3)");
        assert_eq!(s.cell(Addr::parse("B3").unwrap()).value, "3.5");
    }

    #[test]
    fn sort_rows_numeric_and_descending() {
        let mut s = Sheet::new(5, 2);
        for (i, v) in ["Name", "30", "4", "100"].iter().enumerate() {
            s.set_value(Addr { row: i, col: 0 }, v);
        }
        s.sort_by_column(0, true);
        let vals: Vec<String> = (1..4).map(|r| s.cell(Addr { row: r, col: 0 }).value).collect();
        assert_eq!(vals, vec!["4", "30", "100"]);
        s.sort_by_column(0, false);
        let vals: Vec<String> = (1..4).map(|r| s.cell(Addr { row: r, col: 0 }).value).collect();
        assert_eq!(vals, vec!["100", "30", "4"]);
        assert_eq!(s.last_sort, Some((0, false)));
    }

    #[test]
    fn cond_rule_includes_blank_cells() {
        // The paper's §5.6 failure example: blank cells compare as 0 and
        // match "less_than 10".
        let mut s = Sheet::new(4, 1);
        s.set_value(Addr { row: 0, col: 0 }, "5");
        // Row 1 left blank.
        s.set_value(Addr { row: 2, col: 0 }, "50");
        s.add_cond_rule(CondRule {
            kind: "less_than".into(),
            threshold: 10.0,
            fill: "Red".into(),
            range: Range::parse("A1:A4").unwrap(),
        });
        assert_eq!(s.cell(Addr { row: 0, col: 0 }).fill.as_deref(), Some("Red"));
        assert_eq!(s.cell(Addr { row: 1, col: 0 }).fill.as_deref(), Some("Red"), "blank matched");
        assert_eq!(s.cell(Addr { row: 2, col: 0 }).fill, None);
    }
}
