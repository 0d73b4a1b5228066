//! Every call the benchmark makes into APIs the roadmap plans to delete:
//! the rip journal that `StoredRip` still carries, and the capture-pool
//! export that store warm boots import. Deleting those APIs changes only
//! this file.

use dmi_agent::ServeApp;
use dmi_apps::AppKind;
use dmi_core::{RipConfig, RipJournal, RipStats, Ung};
use dmi_gui::Session;
use dmi_store::{Store, StoredRip};

/// Packages a finished rip for `Store::save_rip`, with an empty journal.
pub fn stored_rip(app: &str, session: &mut Session, ung: Ung, stats: RipStats) -> StoredRip {
    let pristine = dmi_core::pristine_signature(session);
    StoredRip { app: app.to_string(), pristine, ung, stats, journal: RipJournal::new() }
}

/// Writes the store a gateway warm-boots from: a sequential rip of the
/// small app plus the captures that rip left in its capture pool.
pub fn write_serve_store(store: &Store, kind: AppKind) {
    let name = kind.name();
    let mut session = Session::new(kind.launch_small());
    session.set_capture_pool(Some(dmi_store::recording_pool()));
    let (ung, stats) = dmi_core::ripper::rip(&mut session, &RipConfig::office(name));
    store.save_rip(&stored_rip(name, &mut session, ung, stats)).expect("save the serve rip");
    let caps = dmi_store::export_captures(name, &mut session);
    store.save_captures(&caps).expect("save the serve captures");
}

/// Captures a warm boot imported into the app's capture pool.
pub fn warm_imported(app: &ServeApp) -> usize {
    app.donor.capture_pool().map_or(0, |p| p.len())
}
