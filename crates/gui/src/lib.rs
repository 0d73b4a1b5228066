//! Simulated GUI toolkit and application runtime.
//!
//! This crate is the substrate substitution for the Windows GUI stack: it
//! hosts widget trees with the structural properties the paper's evaluation
//! depends on (deep nesting, popups and modal dialogs, tab-scoped panels,
//! context-conditional controls, scrollable viewports with off-screen
//! content), executes real input events (clicks, drags, wheel, keyboard),
//! and publishes [`dmi_uia::Snapshot`]s after every event.
//!
//! The key types are:
//!
//! - [`Widget`] / [`UiTree`]: the mutable provider-side control tree,
//! - [`Behavior`]: what a click on a widget does (open a menu, switch a tab,
//!   open a dialog, run an application command, ...),
//! - [`GuiApp`]: the trait applications implement (see `dmi-apps`),
//! - [`Session`]: the event loop — input in, epoch-cached shared snapshots
//!   (`Arc<Snapshot>`) out,
//! - [`InstabilityModel`]: injectable UI instability (late-loading controls,
//!   name variation) exercising DMI's robustness mechanisms (§3.4).

pub mod behavior;
pub mod instability;
pub mod layout;
pub mod session;
pub mod snapshot;
pub mod tree;
pub mod widget;

pub use behavior::{Behavior, CommandBinding, CommitKind};
pub use instability::InstabilityModel;
pub use session::{AppError, CaptureConfig, GuiApp, Session};
pub use snapshot::{CapturePool, CaptureStats, LaunchCaptures};
pub use tree::{OpenWindow, UiTree};
pub use widget::{Widget, WidgetBuilder, WidgetId};
