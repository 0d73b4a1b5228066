//! Error types for accessibility operations.

/// Result alias for accessibility operations.
pub type UiaResult<T> = Result<T, UiaError>;

/// Errors surfaced by the simulated accessibility layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UiaError {
    /// No control matched the requested identifier.
    ControlNotFound {
        /// The identifier that failed to resolve.
        target: String,
    },
    /// The control exists but is disabled; carries structured context so
    /// the caller (an LLM) can re-plan (§3.4 structured error feedback).
    ControlDisabled {
        /// The resolved control's name.
        name: String,
        /// Root-first ancestor path.
        path: String,
    },
    /// The control does not support the requested pattern.
    PatternNotSupported {
        /// The control's name.
        name: String,
        /// The pattern that was requested.
        pattern: String,
    },
    /// An argument was out of the legal range (e.g. scrollbar 120%).
    InvalidArgument {
        /// Description of the violation.
        message: String,
    },
    /// The operation would have partially applied; conservative executors
    /// refuse instead (§4.4).
    PartialExecutionRefused {
        /// Description of the first failing element.
        message: String,
    },
    /// An internal invariant was violated (indicates a provider bug).
    Internal {
        /// Description.
        message: String,
    },
}

impl std::fmt::Display for UiaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UiaError::ControlNotFound { target } => {
                write!(f, "control not found: {target}")
            }
            UiaError::ControlDisabled { name, path } => {
                write!(f, "control '{name}' at '{path}' is disabled")
            }
            UiaError::PatternNotSupported { name, pattern } => {
                write!(f, "control '{name}' does not support {pattern}")
            }
            UiaError::InvalidArgument { message } => write!(f, "invalid argument: {message}"),
            UiaError::PartialExecutionRefused { message } => {
                write!(f, "refusing partial execution: {message}")
            }
            UiaError::Internal { message } => write!(f, "internal error: {message}"),
        }
    }
}

impl std::error::Error for UiaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = UiaError::ControlDisabled { name: "Paste".into(), path: "Word/Home".into() };
        let s = e.to_string();
        assert!(s.contains("Paste"));
        assert!(s.contains("disabled"));
    }

    #[test]
    fn errors_are_comparable() {
        let a = UiaError::InvalidArgument { message: "x".into() };
        let b = UiaError::InvalidArgument { message: "x".into() };
        assert_eq!(a, b);
    }
}
