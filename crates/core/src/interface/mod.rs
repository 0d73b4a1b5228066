//! The DMI online interfaces: access (`visit`), state, and observation.

pub mod executor;
pub mod observe;
pub mod state;
pub mod visit;

pub use executor::{access, control_path, is_clickable, ExecutorConfig};
pub use observe::{get_texts_active, get_texts_passive, Observed, PassiveTexts, TextItem};
pub use state::{
    select_controls, select_lines, select_paragraphs, set_expanded, set_scrollbar_pos, set_texts,
    set_toggle_state, StateReport,
};
pub use visit::{filter_non_leaf, parse_commands, FilteredCommand, VisitCommand};
