//! Simulated LLM latency (the paper's Time column).
//!
//! Per-call latency is modeled as a reasoning-effort base plus linear
//! prompt- and output-token terms, accumulated on a virtual clock.
//! §2.1 motivates this: LLM round-trips cost 10–120+ seconds, which is
//! what makes high-frequency observe–act loops prohibitive.

/// Reasoning effort levels of the simulated API (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReasoningEffort {
    Minimal,
    Low,
    Medium,
    High,
}

impl ReasoningEffort {
    /// Display name matching the paper's tables.
    pub fn as_str(self) -> &'static str {
        match self {
            ReasoningEffort::Minimal => "Minimal",
            ReasoningEffort::Low => "Low",
            ReasoningEffort::Medium => "Medium",
            ReasoningEffort::High => "High",
        }
    }
}

/// Linear latency model: `base + prompt_tokens/1000 * per_1k_prompt +
/// output_tokens * per_output_token`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Fixed seconds per call (dominated by reasoning).
    pub base_secs: f64,
    /// Seconds per 1000 prompt tokens.
    pub per_1k_prompt_secs: f64,
    /// Seconds per output token.
    pub per_output_token_secs: f64,
}

impl LatencyModel {
    /// Latency of one call in simulated seconds.
    pub fn call_secs(&self, prompt_tokens: usize, output_tokens: usize) -> f64 {
        self.base_secs
            + prompt_tokens as f64 / 1000.0 * self.per_1k_prompt_secs
            + output_tokens as f64 * self.per_output_token_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_monotone_in_tokens() {
        let m =
            LatencyModel { base_secs: 30.0, per_1k_prompt_secs: 0.4, per_output_token_secs: 0.02 };
        let small = m.call_secs(1_000, 50);
        let big = m.call_secs(30_000, 50);
        assert!(big > small);
        assert!((small - (30.0 + 0.4 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn effort_names() {
        assert_eq!(ReasoningEffort::Medium.as_str(), "Medium");
        assert_eq!(ReasoningEffort::Minimal.as_str(), "Minimal");
    }
}
