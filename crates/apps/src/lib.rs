//! Simulated Office-like applications: Word, Excel, PowerPoint.
//!
//! These are the substrate substitution for Microsoft Office (see
//! `DESIGN.md`): feature-rich GUI applications built on `dmi-gui` that
//! reproduce the structural properties the paper's evaluation depends on —
//! thousands of controls, navigation depth over ten, popup galleries,
//! nested modal dialogs, shared dialogs forming merge nodes with
//! path-dependent semantics, context-conditional tabs, dynamic renames,
//! and scrollable content with off-screen elements.
//!
//! Each app exposes its document model (`WordDoc`, `Sheet`, `Deck`) so
//! benchmark verifiers check end state exactly, the way OSWorld getter
//! scripts do.

pub mod excel;
pub mod model;
pub mod office;
pub mod powerpoint;
#[doc(hidden)]
pub mod testkit;
pub mod word;

pub use excel::{ExcelApp, ExcelConfig};
pub use powerpoint::{PowerPointApp, PowerPointConfig};
pub use word::{WordApp, WordConfig};

use std::sync::OnceLock;

/// A constructed app that may serve as a process-wide launch image.
type Image = Box<dyn dmi_gui::GuiApp + Sync>;

/// The three case-study applications (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppKind {
    Word,
    Excel,
    PowerPoint,
}

impl AppKind {
    /// All apps.
    pub const ALL: [AppKind; 3] = [AppKind::Word, AppKind::Excel, AppKind::PowerPoint];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Word => "Word",
            AppKind::Excel => "Excel",
            AppKind::PowerPoint => "PowerPoint",
        }
    }

    /// The Office app a launched instance is, or `None` for any other
    /// [`dmi_gui::GuiApp`] (test fixtures, generated apps, wrappers).
    pub fn of(app: &dyn dmi_gui::GuiApp) -> Option<AppKind> {
        let app = app as &dyn std::any::Any;
        if app.is::<WordApp>() {
            Some(AppKind::Word)
        } else if app.is::<ExcelApp>() {
            Some(AppKind::Excel)
        } else if app.is::<PowerPointApp>() {
            Some(AppKind::PowerPoint)
        } else {
            None
        }
    }

    /// Instantiates the app with default configuration: a fork of this
    /// process's launch image of the app (see [`AppKind::launch_small`]).
    pub fn launch(self) -> Box<dyn dmi_gui::GuiApp> {
        static IMAGES: [OnceLock<Image>; 3] = [const { OnceLock::new() }; 3];
        self.fork_image(&IMAGES, || match self {
            AppKind::Word => Box::new(WordApp::new()),
            AppKind::Excel => Box::new(ExcelApp::new()),
            AppKind::PowerPoint => Box::new(PowerPointApp::new()),
        })
    }

    /// Instantiates the app with a small configuration (fast tests).
    ///
    /// Like [`AppKind::launch`], this forks one launch image per app and
    /// size, constructed on first use and kept for the life of the
    /// process. A fork shares the image's widget arena copy-on-write, so a
    /// launch costs the document model's clone instead of a widget-tree
    /// construction, and every launch of one image reports the same
    /// [`dmi_gui::GuiApp::pristine_token`].
    pub fn launch_small(self) -> Box<dyn dmi_gui::GuiApp> {
        static IMAGES: [OnceLock<Image>; 3] = [const { OnceLock::new() }; 3];
        self.fork_image(&IMAGES, || self.construct_small(0))
    }

    /// Forks this app's entry of `images`, constructing it on first use.
    fn fork_image(
        self,
        images: &[OnceLock<Image>; 3],
        construct: impl FnOnce() -> Image,
    ) -> Box<dyn dmi_gui::GuiApp> {
        images[self as usize].get_or_init(construct).fork().expect("Office apps fork")
    }

    /// Instantiates "version `v`" of the app with a small configuration:
    /// same build, progressively larger documents — a stand-in for the
    /// fleet-ripping scenario of serving several versions of one
    /// application concurrently (their UNGs genuinely differ, so each
    /// version needs its own rip). Version 0 is [`AppKind::launch_small`].
    pub fn launch_small_version(self, v: usize) -> Box<dyn dmi_gui::GuiApp> {
        if v == 0 {
            return self.launch_small();
        }
        self.construct_small(v)
    }

    fn construct_small(self, v: usize) -> Image {
        match self {
            AppKind::Word => Box::new(WordApp::with_config(WordConfig {
                paragraphs: 12 + 3 * v,
                viewport_rows: 6,
            })),
            AppKind::Excel => Box::new(ExcelApp::with_config(ExcelConfig {
                rows: 12 + 3 * v,
                cols: 8,
                viewport_rows: 6,
            })),
            AppKind::PowerPoint => Box::new(PowerPointApp::with_config(PowerPointConfig {
                slides: 5 + v,
                viewport_rows: 5,
            })),
        }
    }
}

impl std::fmt::Display for AppKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
