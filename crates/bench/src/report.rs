//! Plain-text table rendering for the claims runner.

/// Renders a simple aligned table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("| ");
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!("{:<w$} | ", c, w = widths[i]));
        }
        line.trim_end().to_string()
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&render_row(&hdr, &widths));
    out.push('\n');
    out.push_str(&format!(
        "|{}\n",
        widths.iter().map(|w| "-".repeat(w + 2) + "|").collect::<String>()
    ));
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// A section banner for bench output.
pub fn banner(title: &str) -> String {
    format!("\n=== {title} ===\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["Interface", "SR"],
            &[vec!["GUI-only".into(), "44.4%".into()], vec!["GUI+DMI".into(), "74.1%".into()]],
        );
        assert!(t.contains("| GUI-only "));
        assert!(t.contains("| 74.1%"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.741), "74.1%");
    }
}
