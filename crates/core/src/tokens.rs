//! Deterministic token accounting.
//!
//! The paper measures context cost in `o200k_base` tokens (§5.4: "each
//! control contributes 15 tokens on average"). We substitute a
//! deterministic approximation: whitespace-split words contribute
//! `ceil(word_len / 4)` tokens, plus one token per punctuation/structure
//! character run. This tracks BPE counts closely enough for relative
//! accounting, which is all the reproduction needs.
//!
//! [`count`] is additive across whitespace: a whitespace character ends
//! every word and punctuation run, so the count of a text split just
//! before or after one is the sum of its parts' counts. A prompt whose
//! lines each start clean is therefore counted as a sum of per-line
//! terms: `screen::full_tree_prompt_tokens` and
//! `LabeledScreen::prompt_tokens` sum the label, name/type, value and
//! flag terms of each line without building the text, and keep each
//! block's name/type terms in its identity lineage, computed once per
//! lineage. `count` over the built text stays their specification. On
//! the agent step path `interface::Observed` takes each prompt's count at
//! most once per captured snapshot, and `Dmi` counts its core topology
//! once when the model is built.

/// Approximate token count of a text.
///
/// # Examples
///
/// ```
/// use dmi_core::tokens::count;
///
/// assert_eq!(count(""), 0);
/// assert!(count("Font Color") >= 2);
/// let long = "x".repeat(40);
/// assert_eq!(count(&long), 10);
/// ```
pub fn count(text: &str) -> usize {
    count_chars(text.chars())
}

/// [`count`] of the text `chars` spells, for a text never built as one
/// string.
///
/// ```
/// use dmi_core::tokens::{count, count_chars};
///
/// let line = "Bold".chars().chain(['(']).chain("Button)".chars());
/// assert_eq!(count_chars(line), count("Bold(Button)"));
/// ```
pub fn count_chars(chars: impl IntoIterator<Item = char>) -> usize {
    let mut tokens = 0usize;
    let mut word_len = 0usize;
    let mut punct_run = false;
    for ch in chars {
        if ch.is_alphanumeric() {
            word_len += 1;
            punct_run = false;
        } else {
            if word_len > 0 {
                tokens += word_len.div_ceil(4);
                word_len = 0;
            }
            if !ch.is_whitespace() && !punct_run {
                tokens += 1;
                punct_run = true;
            }
            if ch.is_whitespace() {
                punct_run = false;
            }
        }
    }
    if word_len > 0 {
        tokens += word_len.div_ceil(4);
    }
    tokens
}

/// A running token/cost ledger for one task or session.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TokenLedger {
    /// Prompt tokens per LLM call.
    pub prompt: Vec<usize>,
    /// Output tokens per LLM call.
    pub output: Vec<usize>,
}

impl TokenLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one LLM call.
    pub fn record(&mut self, prompt_tokens: usize, output_tokens: usize) {
        self.prompt.push(prompt_tokens);
        self.output.push(output_tokens);
    }

    /// Number of calls recorded.
    pub fn calls(&self) -> usize {
        self.prompt.len()
    }

    /// Total prompt tokens.
    pub fn total_prompt(&self) -> usize {
        self.prompt.iter().sum()
    }

    /// Total output tokens.
    pub fn total_output(&self) -> usize {
        self.output.iter().sum()
    }

    /// Total tokens across prompt and output.
    pub fn total(&self) -> usize {
        self.total_prompt() + self.total_output()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_whitespace() {
        assert_eq!(count(""), 0);
        assert_eq!(count("   "), 0);
    }

    #[test]
    fn words_scale_by_quarter_length() {
        assert_eq!(count("abcd"), 1);
        assert_eq!(count("abcde"), 2);
        assert_eq!(count("ab cd"), 2);
    }

    #[test]
    fn punctuation_runs_count_once() {
        assert_eq!(count("a..b"), 3); // a, "..", b
        assert!(count("name(type)_17[") >= 4);
    }

    #[test]
    fn typical_control_description_is_about_15_tokens() {
        let desc =
            "Conditional Formatting(SplitButton)(Highlight interesting cells with rules.)_412";
        let t = count(desc);
        assert!((10..=25).contains(&t), "got {t}");
    }

    #[test]
    fn ledger_accumulates() {
        let mut l = TokenLedger::new();
        l.record(1000, 50);
        l.record(2000, 80);
        assert_eq!(l.calls(), 2);
        assert_eq!(l.total_prompt(), 3000);
        assert_eq!(l.total_output(), 130);
        assert_eq!(l.total(), 3130);
    }
}
