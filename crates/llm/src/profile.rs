//! Capability profiles for the simulated LLMs (§5.1's model settings).
//!
//! A profile captures, as rates, the LLM characteristics the paper argues
//! determine interface fit (§2.1, §8): policy (semantic) error rates,
//! visual grounding weakness, composite-interaction fragility, recovery
//! ability, instruction-following noise, and the latency model. The three
//! presets are calibrated so the *relative* results of Table 3 reproduce;
//! `cargo bench -p dmi-bench --bench claims` checks them against the paper.

use crate::latency::{LatencyModel, ReasoningEffort};

/// A simulated LLM capability profile.
#[derive(Debug, Clone, PartialEq)]
pub struct CapabilityProfile {
    /// Display name ("GPT-5", "GPT-5-mini").
    pub model: String,
    /// Configured reasoning effort.
    pub reasoning: ReasoningEffort,
    /// Per-task probability of a policy-level (semantic) error when the
    /// LLM can focus on policy alone (the DMI condition).
    pub policy_err: f64,
    /// Multiplier on `policy_err` when the LLM must also plan mechanism
    /// (§5.6: splitting attention causes more semantic mistakes).
    pub gui_attention_mult: f64,
    /// Per-task probability of a DMI-side mechanism failure
    /// (topology inaccuracy / weak visual reading of structured payloads).
    pub dmi_mech_err: f64,
    /// Per-action probability of a visual grounding error (clicking the
    /// wrong control) under GUI interaction.
    pub grounding_err: f64,
    /// Per-action probability of botching a composite interaction
    /// (drag-based scroll/selection) under GUI interaction.
    pub composite_err: f64,
    /// Probability a mechanism error is noticed and recovered (costing an
    /// extra LLM round trip).
    pub recover_prob: f64,
    /// Probability a `visit` call includes navigation nodes or omits an
    /// entry reference (DMI filters / reports; §3.4).
    pub instruction_noise: f64,
    /// Maximum `visit` targets the model reliably bundles per call
    /// (reasoning-dependent; minimal reasoning plans shorter horizons).
    pub bundle_limit: usize,
    /// Maximum imperative actions bundled per GUI action sequence
    /// (visibility already bounds sequences; this is the planning
    /// horizon on top).
    pub gui_bundle_limit: usize,
    /// Multiplier on `policy_err` when the prompt carries the navigation
    /// forest as static knowledge (ablation §5.5): < 1.0 only for models
    /// that benefit from supplementary topology knowledge.
    pub forest_knowledge_gain: f64,
    /// Latency model.
    pub latency: LatencyModel,
}

impl CapabilityProfile {
    /// GPT-5, medium reasoning (the paper's core setting).
    pub fn gpt5_medium() -> Self {
        CapabilityProfile {
            model: "GPT-5".into(),
            reasoning: ReasoningEffort::Medium,
            policy_err: 0.22,
            gui_attention_mult: 1.24,
            dmi_mech_err: 0.06,
            grounding_err: 0.30,
            composite_err: 0.35,
            recover_prob: 0.75,
            instruction_noise: 0.12,
            bundle_limit: 8,
            gui_bundle_limit: 1,
            forest_knowledge_gain: 1.0,
            latency: LatencyModel {
                base_secs: 42.0,
                per_1k_prompt_secs: 0.25,
                per_output_token_secs: 0.03,
            },
        }
    }

    /// GPT-5, minimal reasoning (non-reasoning emulation).
    pub fn gpt5_minimal() -> Self {
        CapabilityProfile {
            model: "GPT-5".into(),
            reasoning: ReasoningEffort::Minimal,
            policy_err: 0.55,
            gui_attention_mult: 1.24,
            dmi_mech_err: 0.17,
            grounding_err: 0.17,
            composite_err: 0.40,
            recover_prob: 0.45,
            instruction_noise: 0.22,
            bundle_limit: 1,
            gui_bundle_limit: 1,
            forest_knowledge_gain: 1.0,
            latency: LatencyModel {
                base_secs: 22.0,
                per_1k_prompt_secs: 0.20,
                per_output_token_secs: 0.03,
            },
        }
    }

    /// GPT-5-mini, medium reasoning.
    pub fn gpt5_mini_medium() -> Self {
        CapabilityProfile {
            model: "GPT-5-mini".into(),
            reasoning: ReasoningEffort::Medium,
            policy_err: 0.50,
            gui_attention_mult: 1.24,
            dmi_mech_err: 0.12,
            grounding_err: 0.38,
            composite_err: 0.45,
            recover_prob: 0.50,
            instruction_noise: 0.18,
            bundle_limit: 6,
            gui_bundle_limit: 1,
            forest_knowledge_gain: 0.70,
            latency: LatencyModel {
                base_secs: 18.0,
                per_1k_prompt_secs: 0.45,
                per_output_token_secs: 0.03,
            },
        }
    }

    /// All three evaluation profiles, in Table 3 order.
    pub fn evaluation_set() -> Vec<CapabilityProfile> {
        vec![Self::gpt5_medium(), Self::gpt5_minimal(), Self::gpt5_mini_medium()]
    }

    /// Table row label, e.g. `"GPT-5 (Medium)"`.
    pub fn label(&self) -> String {
        format!("{} ({})", self.model, self.reasoning.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_capability() {
        let med = CapabilityProfile::gpt5_medium();
        let min = CapabilityProfile::gpt5_minimal();
        let mini = CapabilityProfile::gpt5_mini_medium();
        assert!(med.policy_err < min.policy_err);
        assert!(med.policy_err < mini.policy_err);
        assert!(med.grounding_err < mini.grounding_err);
        assert!(mini.forest_knowledge_gain < 1.0);
        assert!((med.forest_knowledge_gain - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn labels_match_table3() {
        assert_eq!(CapabilityProfile::gpt5_medium().label(), "GPT-5 (Medium)");
        assert_eq!(CapabilityProfile::gpt5_minimal().label(), "GPT-5 (Minimal)");
        assert_eq!(CapabilityProfile::gpt5_mini_medium().label(), "GPT-5-mini (Medium)");
    }

    #[test]
    fn probabilities_are_valid() {
        for p in CapabilityProfile::evaluation_set() {
            for v in [
                p.policy_err,
                p.dmi_mech_err,
                p.grounding_err,
                p.composite_err,
                p.recover_prob,
                p.instruction_noise,
            ] {
                assert!((0.0..=1.0).contains(&v));
            }
            assert!(p.bundle_limit >= 1);
        }
    }
}
