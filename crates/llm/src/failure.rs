//! The paper's failure taxonomy (§5.6, Figure 6).
//!
//! Failures are classified as **policy-level** (semantic planning errors —
//! the LLM's responsibility) or **mechanism-level** (navigation and
//! interaction errors — what DMI eliminates). The reproduction injects
//! these causes with per-profile rates and reports the same distribution
//! the paper's Figure 6 shows.

/// Policy vs mechanism classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureLevel {
    /// Semantic planning (the LLM's job under DMI).
    Policy,
    /// Navigation / interaction (DMI's job).
    Mechanism,
}

/// A failure cause, following §5.6's categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FailureCause {
    /// Ambiguous task description misread (42.9% of GUI+DMI failures).
    AmbiguousTask,
    /// Misinterpretation of control semantics (e.g. Find & Replace's
    /// subscript; conditional formatting including blanks) — 28.6%.
    ControlSemanticsMisread,
    /// Misunderstanding of subtle task semantics — 9.5%.
    SubtleTaskSemantics,
    /// Weak visual-semantic understanding of screen payloads — 14.3%.
    WeakVisualSemantic,
    /// Navigation topology / modeling inaccuracies (e.g. the dynamically
    /// renamed "Next" button) — 4.8%.
    TopologyInaccuracy,
    /// Control localization / navigation error (GUI baseline: 14/45).
    ControlLocalization,
    /// Composite interaction error (drags, multi-step selections; 7/45).
    CompositeInteraction,
    /// Ran out of the 30-step budget while recovering.
    StepLimitExceeded,
}

impl FailureCause {
    /// The §5.6 classification used by Figure 6.
    pub fn level(self) -> FailureLevel {
        match self {
            FailureCause::AmbiguousTask
            | FailureCause::ControlSemanticsMisread
            | FailureCause::SubtleTaskSemantics => FailureLevel::Policy,
            FailureCause::WeakVisualSemantic
            | FailureCause::TopologyInaccuracy
            | FailureCause::ControlLocalization
            | FailureCause::CompositeInteraction
            | FailureCause::StepLimitExceeded => FailureLevel::Mechanism,
        }
    }

    /// Short display name.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureCause::AmbiguousTask => "ambiguous task description",
            FailureCause::ControlSemanticsMisread => "control semantics misread",
            FailureCause::SubtleTaskSemantics => "subtle task semantics",
            FailureCause::WeakVisualSemantic => "weak visual-semantic understanding",
            FailureCause::TopologyInaccuracy => "topology/modeling inaccuracy",
            FailureCause::ControlLocalization => "control localization/navigation",
            FailureCause::CompositeInteraction => "composite interaction",
            FailureCause::StepLimitExceeded => "step limit exceeded",
        }
    }

    /// The policy-type causes an LLM can commit regardless of interface.
    pub const POLICY: [FailureCause; 3] = [
        FailureCause::AmbiguousTask,
        FailureCause::ControlSemanticsMisread,
        FailureCause::SubtleTaskSemantics,
    ];
}

impl std::fmt::Display for FailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_match_figure_6() {
        assert_eq!(FailureCause::AmbiguousTask.level(), FailureLevel::Policy);
        assert_eq!(FailureCause::ControlSemanticsMisread.level(), FailureLevel::Policy);
        assert_eq!(FailureCause::WeakVisualSemantic.level(), FailureLevel::Mechanism);
        assert_eq!(FailureCause::TopologyInaccuracy.level(), FailureLevel::Mechanism);
        assert_eq!(FailureCause::ControlLocalization.level(), FailureLevel::Mechanism);
        assert_eq!(FailureCause::CompositeInteraction.level(), FailureLevel::Mechanism);
    }

    #[test]
    fn policy_list_is_policy() {
        for c in FailureCause::POLICY {
            assert_eq!(c.level(), FailureLevel::Policy);
        }
    }
}
