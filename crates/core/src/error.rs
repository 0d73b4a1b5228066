//! Structured error feedback (§3.4).
//!
//! DMI returns *structured* errors that describe control state and context
//! so the caller (an LLM) can re-plan — e.g. "control located but disabled"
//! rather than a bare failure.

/// Result alias for DMI operations.
pub type DmiResult<T> = Result<T, DmiError>;

/// Errors surfaced by the DMI interfaces.
#[derive(Debug, Clone, PartialEq)]
pub enum DmiError {
    /// The numeric topology id does not exist.
    UnknownId {
        /// The id the caller used.
        id: u64,
    },
    /// The target lives in a shared subtree and the entry reference is
    /// missing or ambiguous; `candidates` lists usable reference ids.
    AmbiguousEntry {
        /// Target id.
        id: u64,
        /// Reference-node ids that reach the target's subtree.
        candidates: Vec<u64>,
    },
    /// The supplied entry reference does not lead to the target's subtree.
    WrongEntry {
        /// Target id.
        id: u64,
        /// The reference id supplied.
        entry: u64,
    },
    /// Navigation could not locate a control on screen (after fuzzy
    /// matching and retries).
    ControlNotFound {
        /// The control's modeled name.
        name: String,
        /// Root-first modeled path.
        path: String,
        /// How many retries were attempted.
        retries: u32,
    },
    /// The control was located but is disabled; context for re-planning.
    ControlDisabled {
        /// Control name.
        name: String,
        /// Root-first path on screen.
        path: String,
    },
    /// A command was malformed (bad JSON, conflicting fields).
    Malformed {
        /// What was wrong.
        message: String,
    },
    /// The target's modeled path holds no clickable control, so no click
    /// sequence reaches it (e.g. a status-bar text label).
    NotClickable {
        /// Target id.
        id: u64,
    },
    /// `further_query` mixed with other commands (it is exclusive).
    QueryNotExclusive,
    /// Screen-label resolution failed for an interaction interface.
    LabelNotFound {
        /// The label the caller used.
        label: String,
    },
    /// Static topology ids are prohibited in interaction interfaces
    /// (§3.5 separation of control access and complex interactions).
    StaticIdProhibited {
        /// The offending label text.
        label: String,
    },
    /// A control does not support the pattern an interface requires; the
    /// executor refuses to partially execute (§4.4).
    PatternUnsupported {
        /// Control name.
        name: String,
        /// Pattern required.
        pattern: String,
    },
    /// An argument was out of range.
    InvalidArgument {
        /// Description.
        message: String,
    },
    /// The underlying UI rejected an interaction.
    Interaction {
        /// Description from the UI layer.
        message: String,
    },
}

impl std::fmt::Display for DmiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DmiError::UnknownId { id } => write!(f, "unknown topology id {id}"),
            DmiError::AmbiguousEntry { id, candidates } => write!(
                f,
                "target {id} is in a shared subtree; specify entry_ref_id from {candidates:?}"
            ),
            DmiError::WrongEntry { id, entry } => {
                write!(f, "entry_ref_id {entry} does not reach target {id}'s subtree")
            }
            DmiError::ControlNotFound { name, path, retries } => {
                write!(f, "control '{name}' (path {path}) not found after {retries} retries")
            }
            DmiError::ControlDisabled { name, path } => {
                write!(f, "control '{name}' at '{path}' is present but disabled")
            }
            DmiError::Malformed { message } => write!(f, "malformed command: {message}"),
            DmiError::NotClickable { id } => {
                write!(f, "target {id} resolves to no clickable path")
            }
            DmiError::QueryNotExclusive => {
                write!(f, "further_query cannot be mixed with other commands")
            }
            DmiError::LabelNotFound { label } => write!(f, "no on-screen control labeled '{label}'"),
            DmiError::StaticIdProhibited { label } => write!(
                f,
                "'{label}' looks like a static topology id; interaction interfaces accept only on-screen labels"
            ),
            DmiError::PatternUnsupported { name, pattern } => {
                write!(f, "'{name}' does not support {pattern}; nothing was executed")
            }
            DmiError::InvalidArgument { message } => write!(f, "invalid argument: {message}"),
            DmiError::Interaction { message } => write!(f, "interaction failed: {message}"),
        }
    }
}

impl std::error::Error for DmiError {}

/// A fault contained by the fleet rip engine. Unlike a [`DmiError`] (a
/// per-command interaction failure fed back to the caller for
/// re-planning), a `RipError` records that one fleet entry's rip died;
/// sibling entries finish normally. It is reported inside
/// [`crate::RipStatus::Failed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RipError {
    /// The application panicked while this entry was being ripped. The
    /// panic payload is preserved verbatim.
    WorkerPanic {
        /// The fleet entry's caller-chosen id.
        app_id: String,
        /// The panic payload, rendered as text.
        payload: String,
    },
}

impl std::fmt::Display for RipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RipError::WorkerPanic { app_id, payload } => {
                write!(f, "rip of app '{app_id}' panicked: {payload}")
            }
        }
    }
}

impl std::error::Error for RipError {}

impl From<dmi_gui::AppError> for DmiError {
    fn from(e: dmi_gui::AppError) -> Self {
        DmiError::Interaction { message: e.to_string() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_replanning_context() {
        let e =
            DmiError::ControlDisabled { name: "Paste".into(), path: "Word/Home/Clipboard".into() };
        let s = e.to_string();
        assert!(s.contains("Paste") && s.contains("disabled") && s.contains("Clipboard"));
    }

    #[test]
    fn ambiguous_entry_lists_candidates() {
        let e = DmiError::AmbiguousEntry { id: 9, candidates: vec![3, 7] };
        assert!(e.to_string().contains('3'));
        assert!(e.to_string().contains('7'));
    }
}
