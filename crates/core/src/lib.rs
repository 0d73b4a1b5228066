//! Declarative Model Interface (DMI).
//!
//! The paper's primary contribution: an abstraction layer that transforms
//! imperative GUI use into three declarative primitives — **access**,
//! **state**, and **observation** — decoupling high-level semantic policy
//! (the LLM's job) from low-level navigation and interaction mechanism
//! (DMI's job).
//!
//! Pipeline:
//!
//! 1. **Offline** ([`ripper`]): GUI ripping builds the UI Navigation Graph
//!    ([`graph::Ung`]) by DFS differential capture.
//! 2. **Topology** ([`topology`]): decycle to a single-source DAG, then
//!    cost-based selective externalization into a path-unambiguous
//!    [`topology::Forest`] (main tree + shared subtrees).
//! 3. **Descriptions** ([`describe`]): compact
//!    `name(type)(description)_id[children]` text, a depth-limited core
//!    topology, and `further_query` on-demand expansion.
//! 4. **Online** ([`interface`], [`Dmi`]): the `visit` access interface
//!    with non-leaf filtering, fuzzy matching, retries, and structured
//!    errors; state declarations (`set_scrollbar_pos`, `select_lines`,
//!    `select_controls`, ...); observation (`get_texts` passive/active).

pub mod describe;
pub mod dmi;
pub mod error;
pub mod fuzz;
pub mod graph;
pub mod interface;
mod pristine;
pub mod ripper;
pub mod screen;
pub mod tokens;
pub mod topology;

pub use describe::DescribeConfig;
pub use dmi::{Dmi, DmiBuildConfig, DmiBuildStats, VisitOutcome};
pub use error::{DmiError, DmiResult, RipError};
pub use graph::{Ung, UngNode};
pub use interface::{ExecutorConfig, VisitCommand};
pub use pristine::{pristine_signature, WindowSig};
pub use ripper::{
    panic_payload, rip_fleet, ContextSetup, FleetEntry, ParRipConfig, RipConfig, RipJournal,
    RipOutcome, RipStats, RipStatus,
};
pub use screen::{label_screen, LabeledScreen};
pub use topology::{Forest, ForestConfig};

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared, lazily-ripped fixtures so the test suite rips each small
    //! app once per binary instead of once per test.

    use crate::graph::Ung;
    use crate::ripper::{rip, RipConfig, RipStats};
    use crate::topology::{build_forest, decycle, Forest, ForestConfig};
    use dmi_apps::AppKind;
    use dmi_gui::CaptureStats;
    use std::sync::OnceLock;

    /// The ripped (raw) UNG, rip stats and capture work for a small app
    /// instance.
    pub fn small_rip(kind: AppKind) -> &'static (Ung, RipStats, CaptureStats) {
        static WORD: OnceLock<(Ung, RipStats, CaptureStats)> = OnceLock::new();
        static EXCEL: OnceLock<(Ung, RipStats, CaptureStats)> = OnceLock::new();
        static PPT: OnceLock<(Ung, RipStats, CaptureStats)> = OnceLock::new();
        let cell = match kind {
            AppKind::Word => &WORD,
            AppKind::Excel => &EXCEL,
            AppKind::PowerPoint => &PPT,
        };
        cell.get_or_init(|| {
            let mut s = dmi_gui::Session::new(kind.launch_small());
            let (g, stats) = rip(&mut s, &RipConfig::office(kind.name()));
            (g, stats, s.capture_stats())
        })
    }

    /// The decycled forest for a small app instance.
    pub fn small_forest(kind: AppKind) -> &'static Forest {
        static WORD: OnceLock<Forest> = OnceLock::new();
        static EXCEL: OnceLock<Forest> = OnceLock::new();
        static PPT: OnceLock<Forest> = OnceLock::new();
        let cell = match kind {
            AppKind::Word => &WORD,
            AppKind::Excel => &EXCEL,
            AppKind::PowerPoint => &PPT,
        };
        cell.get_or_init(|| {
            let mut g = small_rip(kind).0.clone();
            decycle(&mut g);
            build_forest(&g, &ForestConfig::default()).0
        })
    }
}
