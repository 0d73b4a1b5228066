//! The Word-like document model.

use std::sync::Arc;

/// Paragraph alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alignment {
    Left,
    Center,
    Right,
    Justify,
}

/// Character/paragraph formatting state. Its names are shared strings,
/// so copying a document (a fork or a reset of a launch image) bumps
/// their reference counts instead of allocating them again.
#[derive(Debug, Clone, PartialEq)]
pub struct ParaFormat {
    pub font: Arc<str>,
    pub size: f64,
    pub bold: bool,
    pub italic: bool,
    pub underline: bool,
    pub subscript: bool,
    pub superscript: bool,
    pub color: Arc<str>,
    pub highlight: Option<Arc<str>>,
    pub style: Arc<str>,
    pub alignment: Alignment,
    pub line_spacing: f64,
}

impl Default for ParaFormat {
    fn default() -> Self {
        ParaFormat {
            font: "Calibri".into(),
            size: 11.0,
            bold: false,
            italic: false,
            underline: false,
            subscript: false,
            superscript: false,
            color: "Black".into(),
            highlight: None,
            style: "Normal".into(),
            alignment: Alignment::Left,
            line_spacing: 1.0,
        }
    }
}

/// One paragraph of document text.
#[derive(Debug, Clone, PartialEq)]
pub struct Paragraph {
    pub text: String,
    pub format: ParaFormat,
}

impl Paragraph {
    /// A paragraph with default formatting.
    pub fn new(text: impl Into<String>) -> Self {
        Paragraph { text: text.into(), format: ParaFormat::default() }
    }
}

/// Page setup state.
#[derive(Debug, Clone, PartialEq)]
pub struct PageSettings {
    /// Margins in inches: top, bottom, left, right.
    pub margins: (f64, f64, f64, f64),
    pub orientation_landscape: bool,
    /// Page background color ("Page Color").
    pub background: Option<String>,
}

impl Default for PageSettings {
    fn default() -> Self {
        PageSettings {
            margins: (1.0, 1.0, 1.0, 1.0),
            orientation_landscape: false,
            background: None,
        }
    }
}

/// Current selection: a contiguous paragraph range (the line granularity
/// maps 1:1 to paragraphs in this model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selection {
    pub start: usize,
    /// Inclusive end.
    pub end: usize,
}

/// The document.
#[derive(Debug, Clone, PartialEq)]
pub struct WordDoc {
    pub paragraphs: Vec<Paragraph>,
    pub page: PageSettings,
    pub header: Option<String>,
    pub footer: Option<String>,
    pub watermark: Option<String>,
    pub selection: Option<Selection>,
    /// Number of replacements performed by the last Replace All.
    pub last_replace_count: usize,
}

impl WordDoc {
    /// A document with `n` generated paragraphs.
    pub fn with_paragraphs(n: usize) -> Self {
        let paragraphs = (0..n)
            .map(|i| {
                Paragraph::new(format!(
                    "Paragraph {i}: the quick brown fox jumps over the lazy dog."
                ))
            })
            .collect();
        WordDoc {
            paragraphs,
            page: PageSettings::default(),
            header: None,
            footer: None,
            watermark: None,
            selection: None,
            last_replace_count: 0,
        }
    }

    /// The paragraph indexes covered by the current selection (empty when
    /// nothing is selected).
    pub fn selected_range(&self) -> Vec<usize> {
        match self.selection {
            Some(s) => (s.start..=s.end.min(self.paragraphs.len().saturating_sub(1))).collect(),
            None => Vec::new(),
        }
    }

    /// Applies a formatting mutation to every selected paragraph; returns
    /// how many paragraphs changed. With no selection, nothing changes.
    pub fn format_selection(&mut self, f: impl Fn(&mut ParaFormat)) -> usize {
        let range = self.selected_range();
        for &i in &range {
            f(&mut self.paragraphs[i].format);
        }
        range.len()
    }

    /// Selects a contiguous paragraph range (clamped to the document).
    pub fn select(&mut self, start: usize, end: usize) {
        if self.paragraphs.is_empty() {
            self.selection = None;
            return;
        }
        let max = self.paragraphs.len() - 1;
        self.selection = Some(Selection { start: start.min(max), end: end.min(max) });
    }

    /// Replace-all over every paragraph; returns the replacement count and
    /// records it in `last_replace_count`.
    pub fn replace_all(&mut self, find: &str, replace: &str) -> usize {
        if find.is_empty() {
            self.last_replace_count = 0;
            return 0;
        }
        let mut count = 0;
        for p in &mut self.paragraphs {
            let c = p.text.matches(find).count();
            if c > 0 {
                p.text = p.text.replace(find, replace);
                count += c;
            }
        }
        self.last_replace_count = count;
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_clamps_to_document() {
        let mut d = WordDoc::with_paragraphs(3);
        d.select(1, 99);
        assert_eq!(d.selected_range(), vec![1, 2]);
    }

    #[test]
    fn format_selection_applies_only_in_range() {
        let mut d = WordDoc::with_paragraphs(5);
        d.select(1, 2);
        let n = d.format_selection(|f| f.bold = true);
        assert_eq!(n, 2);
        assert!(!d.paragraphs[0].format.bold);
        assert!(d.paragraphs[1].format.bold);
        assert!(d.paragraphs[2].format.bold);
        assert!(!d.paragraphs[3].format.bold);
    }

    #[test]
    fn format_without_selection_is_noop() {
        let mut d = WordDoc::with_paragraphs(2);
        assert_eq!(d.format_selection(|f| f.italic = true), 0);
        assert!(!d.paragraphs[0].format.italic);
    }

    #[test]
    fn replace_all_counts_matches() {
        let mut d = WordDoc::with_paragraphs(3);
        let n = d.replace_all("fox", "cat");
        assert_eq!(n, 3);
        assert_eq!(d.last_replace_count, 3);
        assert!(d.paragraphs[0].text.contains("cat"));
        assert_eq!(d.replace_all("", "x"), 0);
    }

    #[test]
    fn empty_document_selection() {
        let mut d = WordDoc::with_paragraphs(0);
        d.select(0, 5);
        assert!(d.selected_range().is_empty());
    }
}
