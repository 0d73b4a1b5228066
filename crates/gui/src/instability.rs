//! UI instability injection (§3.4 "Handling unstable UI interaction").
//!
//! Real GUI execution is unstable in two ways the paper's executor must
//! tolerate: controls can load slowly (absent from the first snapshot after
//! an interaction) and control names can vary between the modeled topology
//! and the live UI. This module provides a deterministic, seeded model of
//! both, so robustness paths are exercised reproducibly.
//!
//! Both perturbations compose with the epoch-cached capture pipeline
//! (`crate::snapshot`) without weakening it: name variation is a pure
//! function of `(seed, widget)` — identical across rebuilds of the same
//! state, so cached bytes stay exact — and late loads, the one effect
//! keyed on the *query* clock rather than tree state, are resolved into
//! each window's capture key at build time (`UiTree::next_reveal_under`):
//! a cached window is never served at or past the query sequence where a
//! pending subtree would have appeared.

use crate::widget::WidgetId;

/// The SplitMix64 finalizer: the crate's standard 64-bit mixer.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic instability model.
///
/// All sampling is a pure function of `(seed, widget id)` (and the action
/// sequence for late loading), so a given seed reproduces the same
/// perturbations run after run.
#[derive(Debug, Clone)]
pub struct InstabilityModel {
    /// RNG seed.
    pub seed: u64,
    /// Probability a newly revealed container's children lag one snapshot.
    pub late_load_prob: f64,
    /// Number of extra snapshot queries a late-loading subtree needs.
    pub late_load_delay: u64,
    /// Probability a control's live name differs from its modeled name.
    pub name_variation_prob: f64,
}

impl InstabilityModel {
    /// No instability (probabilities zero).
    pub fn off() -> Self {
        InstabilityModel {
            seed: 0,
            late_load_prob: 0.0,
            late_load_delay: 0,
            name_variation_prob: 0.0,
        }
    }

    /// A model with the given seed and probabilities.
    pub fn new(seed: u64, late_load_prob: f64, name_variation_prob: f64) -> Self {
        InstabilityModel { seed, late_load_prob, late_load_delay: 1, name_variation_prob }
    }

    /// Whether anything can ever be perturbed.
    pub fn is_active(&self) -> bool {
        self.late_load_prob > 0.0 || self.name_variation_prob > 0.0
    }

    /// Hash-based uniform sample in `[0, 1)` for a (widget, salt) pair.
    fn unit(&self, id: WidgetId, salt: u64) -> f64 {
        let x = splitmix64(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((id.0 as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
                .wrapping_add(salt.wrapping_mul(0x94D0_49BB_1331_11EB)),
        );
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// How many extra snapshot queries the children of `container` need
    /// before appearing, for a reveal that happened at `action_seq`.
    /// Returns 0 when the subtree loads immediately.
    pub fn late_delay_for(&self, container: WidgetId, action_seq: u64) -> u64 {
        if self.late_load_prob <= 0.0 {
            return 0;
        }
        if self.unit(container, action_seq ^ 0xA5A5) < self.late_load_prob {
            self.late_load_delay.max(1)
        } else {
            0
        }
    }

    /// The live name for a widget: usually the modeled name, occasionally a
    /// sticky variation (per widget, stable within a session).
    pub fn live_name(&self, id: WidgetId, name: &str) -> String {
        if self.name_variation_prob <= 0.0 || name.is_empty() {
            return name.to_string();
        }
        if self.unit(id, 0x5EED) < self.name_variation_prob {
            match (self.unit(id, 0x7777) * 3.0) as u32 {
                0 => format!("{name}..."),
                1 => format!("{name} "),
                _ => {
                    // Drop a trailing word if multi-word, else suffix.
                    match name.rsplit_once(' ') {
                        Some((head, _)) if !head.is_empty() => head.to_string(),
                        _ => format!("{name}*"),
                    }
                }
            }
        } else {
            name.to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_model_is_identity() {
        let m = InstabilityModel::off();
        assert!(!m.is_active());
        assert_eq!(m.live_name(WidgetId(3), "Bold"), "Bold");
        assert_eq!(m.late_delay_for(WidgetId(3), 7), 0);
    }

    #[test]
    fn sampling_is_deterministic() {
        let m = InstabilityModel::new(42, 0.5, 0.5);
        let a = m.live_name(WidgetId(10), "Font Color");
        let b = m.live_name(WidgetId(10), "Font Color");
        assert_eq!(a, b);
        assert_eq!(m.late_delay_for(WidgetId(10), 3), m.late_delay_for(WidgetId(10), 3));
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let m1 = InstabilityModel::new(1, 0.0, 1.0);
        let m2 = InstabilityModel::new(2, 0.0, 1.0);
        let names: Vec<String> =
            (0..64).map(|i| m1.live_name(WidgetId(i), "Conditional Formatting")).collect();
        let names2: Vec<String> =
            (0..64).map(|i| m2.live_name(WidgetId(i), "Conditional Formatting")).collect();
        assert_ne!(names, names2);
    }

    #[test]
    fn full_probability_always_varies() {
        let m = InstabilityModel::new(7, 1.0, 1.0);
        for i in 0..32 {
            assert_ne!(m.live_name(WidgetId(i), "Apply to All"), "Apply to All");
            assert!(m.late_delay_for(WidgetId(i), i as u64) >= 1);
        }
    }

    #[test]
    fn variation_keeps_recognizable_prefix_or_head() {
        let m = InstabilityModel::new(9, 0.0, 1.0);
        for i in 0..32 {
            let v = m.live_name(WidgetId(i), "Format Background");
            // Every variant either starts with the original head word or is
            // a prefix extension.
            assert!(v.starts_with("Format"), "variant {v:?} lost its recognizable head");
        }
    }
}
