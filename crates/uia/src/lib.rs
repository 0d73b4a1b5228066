//! Simulated accessibility framework modelled on Windows UI Automation (UIA).
//!
//! This crate is the substrate substitution for Windows UIA described in
//! `DESIGN.md`. It provides the exact surface that the DMI layer consumes:
//!
//! - the full set of 41 UIA [`ControlType`]s and 34 [`PatternKind`]s,
//! - property bags ([`ControlProps`]) with the same reliability caveats as
//!   real UIA (`automation_id` is *not* guaranteed unique and may be empty),
//! - immutable accessibility-tree snapshots ([`Snapshot`], [`Node`]),
//! - XPath-like control identifiers ([`ControlId`]) with fuzzy matching,
//!   resolved in O(1) through a per-snapshot identity index
//!   ([`SnapIndex`], [`ControlKey`] — see the [`index`] module for the
//!   hash+confirm design).
//!
//! Applications (see `dmi-gui` / `dmi-apps`) produce snapshots; the DMI
//! layer (`dmi-core`) consumes them. Nothing in this crate mutates UI state;
//! it is a read-side protocol, exactly like UIA's client view.
//!
//! # Examples
//!
//! ```
//! use dmi_uia::{ControlType, PatternKind};
//!
//! assert_eq!(ControlType::ALL.len(), 41);
//! assert_eq!(PatternKind::ALL.len(), 34);
//! assert!(ControlType::Button.is_key_type());
//! ```

pub mod control_type;
pub mod error;
pub mod ident;
pub mod index;
pub mod pattern;
pub mod props;
pub mod tree;

pub use control_type::ControlType;
pub use error::{UiaError, UiaResult};
pub use ident::{ControlId, ControlIdSet, ControlKey, FuzzyMatcher, KeyMap, MatchScore};
pub use index::SnapIndex;
pub use pattern::{PatternKind, PatternSet};
pub use props::{ControlProps, Rect, RuntimeId, ToggleState};
pub use tree::{Node, Snapshot};
