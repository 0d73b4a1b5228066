//! Persistent storage for ripped UNGs.
//!
//! This crate adds the third leg of the DMI lifecycle: after a UNG has
//! been ripped (`dmi-core`) and served (`dmi-agent`), it can be
//! **saved** — together with its rip stats — and a later process can
//! **load** it to warm-boot a gateway.
//!
//! Two layers:
//!
//! - `codec`: the length-prefixed, checksummed, versioned binary
//!   container ([`FORMAT_VERSION`], `b"DMISTORE"` magic). Corrupt,
//!   truncated, or wrong-version input surfaces a typed [`StoreError`],
//!   never a panic.
//! - [`Store`]: the on-disk directory of artifacts, keyed by application
//!   name. Cross-process identity is attested *structurally*: every
//!   artifact embeds the app's pristine-state window signature
//!   ([`dmi_core::pristine_signature`]), and warm paths refuse stores
//!   whose signature does not match the live app
//!   ([`StoreError::PristineMismatch`]). The in-process
//!   `pristine_token` cannot serve here — it is an `Arc` address and
//!   therefore process-local. Within one process it is shared by every
//!   launch of one launch image (`AppKind::launch` forks a per-process
//!   image), so it names a build and size there, not an instance.
//!
//! See `docs/persistence.md` for the format layout and compatibility
//! rules.

mod artifacts;
mod codec;

pub use codec::{StoreError, StoreResult, FORMAT_VERSION};

use codec::{kind, sec, ArtifactReader, ArtifactWriter, Dec, Enc};
use dmi_core::{RipConfig, RipJournal, RipStats, Ung, WindowSig};
use dmi_gui::{CapturePool, Session};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// An empty [`CapturePool`] placeholder. It remains only because the
/// frozen benchmark (`dmibench/src/legacy.rs`) calls it, and goes with
/// that benchmark's next change.
pub fn recording_pool() -> Arc<CapturePool> {
    Arc::new(CapturePool)
}

/// A persisted rip: the UNG, the rip stats, and the structural identity
/// of the application it was ripped from.
#[derive(Debug)]
pub struct StoredRip {
    /// Application key (also the file stem).
    pub app: String,
    /// Pristine-state window signature of the ripped build.
    pub pristine: Vec<WindowSig>,
    /// The ripped graph.
    pub ung: Ung,
    /// Stats of the recording rip.
    pub stats: RipStats,
    /// Always empty and never persisted. It remains only because the
    /// frozen benchmark (`dmibench/src/legacy.rs`) sets it; the
    /// benchmark's next change deletes it.
    pub journal: RipJournal,
}

/// An empty placeholder for the retired capture artifact, returned by
/// [`export_captures`] and accepted by [`Store::save_captures`]. It
/// remains only because the frozen benchmark (`dmibench/src/legacy.rs`)
/// passes it between them, and goes with that benchmark's next change.
#[derive(Debug, Default)]
pub struct StoredCaptures;

/// Serializes a [`StoredRip`] to the binary format.
pub fn encode_rip(rip: &StoredRip) -> Vec<u8> {
    let _span = dmi_obs::span(dmi_obs::Cat::Store, "encode_rip", 0);
    let mut w = ArtifactWriter::new(kind::RIP);
    let mut meta = Enc::default();
    meta.str(&mut w.interner, &rip.app);
    artifacts::enc_sigs(&mut meta, &mut w.interner, &rip.pristine);
    artifacts::enc_rip_stats(&mut meta, &rip.stats);
    let mut ung = Enc::default();
    artifacts::enc_ung(&mut ung, &mut w.interner, &rip.ung);
    w.section(sec::META, meta);
    w.section(sec::UNG, ung);
    w.finish()
}

/// Deserializes a [`StoredRip`], validating framing, checksums, and
/// every structural invariant.
pub fn decode_rip(bytes: &[u8]) -> StoreResult<StoredRip> {
    let _span = dmi_obs::span(dmi_obs::Cat::Store, "decode_rip", 0);
    dmi_obs::tally("store.decoded_bytes", bytes.len() as u64);
    let r = ArtifactReader::new(bytes, kind::RIP)?;
    let mut meta = Dec::new(r.section(sec::META)?, "rip meta");
    let app = meta.str(&r.strings)?.to_string();
    let pristine = artifacts::dec_sigs(&mut meta, &r.strings)?;
    let stats = artifacts::dec_rip_stats(&mut meta)?;
    meta.finish()?;
    let mut ung = Dec::new(r.section(sec::UNG)?, "ung");
    let graph = artifacts::dec_ung(&mut ung, &r.strings)?;
    ung.finish()?;
    Ok(StoredRip { app, pristine, ung: graph, stats, journal: RipJournal::new() })
}

/// An on-disk artifact store: one directory, one file per artifact,
/// keyed by application name (`{app}.rip.dmi`).
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> StoreResult<Store> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Store { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The file holding `app`'s rip. The stem keeps ASCII alphanumerics
    /// and escapes every other byte as `_` plus two hex digits, so
    /// distinct keys never share a file.
    fn rip_path(&self, app: &str) -> PathBuf {
        let mut stem = String::with_capacity(app.len());
        for b in app.bytes() {
            if b.is_ascii_alphanumeric() {
                stem.push(b as char);
            } else {
                stem.push_str(&format!("_{b:02x}"));
            }
        }
        self.root.join(format!("{stem}.rip.dmi"))
    }

    /// Persists a rip; returns the serialized size in bytes.
    pub fn save_rip(&self, rip: &StoredRip) -> StoreResult<u64> {
        let _span = dmi_obs::span(dmi_obs::Cat::Store, "save_rip", 0);
        let bytes = encode_rip(rip);
        std::fs::write(self.rip_path(&rip.app), &bytes)?;
        dmi_obs::tally("store.saved_bytes", bytes.len() as u64);
        Ok(bytes.len() as u64)
    }

    /// Loads the rip stored for `app`, refusing an artifact that records
    /// a different application ([`StoreError::AppMismatch`]).
    pub fn load_rip(&self, app: &str) -> StoreResult<StoredRip> {
        let _span = dmi_obs::span(dmi_obs::Cat::Store, "load_rip", 0);
        let rip = decode_rip(&std::fs::read(self.rip_path(app))?)?;
        if rip.app != app {
            return Err(StoreError::AppMismatch { requested: app.to_string(), found: rip.app });
        }
        Ok(rip)
    }

    /// Writes nothing and returns `Ok(0)`: [`StoredCaptures`] carries no
    /// captures. It remains only because the frozen benchmark
    /// (`dmibench/src/legacy.rs`) calls it, and goes with that
    /// benchmark's next change.
    pub fn save_captures(&self, _caps: &StoredCaptures) -> StoreResult<u64> {
        Ok(0)
    }
}

/// Rips `session` and packages the result for persistence. The pristine
/// signature is taken *after* the rip (the session restarts either way,
/// so the graph is unaffected).
pub fn record_rip(app: &str, session: &mut Session, config: &RipConfig) -> StoredRip {
    let (ung, stats) = dmi_core::ripper::rip(session, config);
    let pristine = dmi_core::pristine_signature(session);
    StoredRip { app: app.to_string(), pristine, ung, stats, journal: RipJournal::new() }
}

/// Returns the empty [`StoredCaptures`] placeholder. It remains only
/// because the frozen benchmark (`dmibench/src/legacy.rs`) calls it, and
/// goes with that benchmark's next change.
pub fn export_captures(_app: &str, _session: &mut Session) -> StoredCaptures {
    StoredCaptures
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmi_apps::AppKind;

    fn temp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!("dmi-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Store::open(dir).unwrap()
    }

    #[test]
    fn rip_artifact_round_trips_byte_identically() {
        let mut s = Session::new(AppKind::Word.launch_small());
        let stored = record_rip("Word", &mut s, &RipConfig::office("Word"));
        let store = temp_store("rip");
        let bytes = store.save_rip(&stored).unwrap();
        assert!(bytes > 0);
        let loaded = store.load_rip("Word").unwrap();
        assert_eq!(loaded.app, "Word");
        assert_eq!(loaded.pristine, stored.pristine);
        assert_eq!(
            serde_json::to_string(&loaded.ung).unwrap(),
            serde_json::to_string(&stored.ung).unwrap(),
            "UNG must round-trip byte-identically"
        );
        assert_eq!(loaded.stats, stored.stats);
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// Keys that differ only in punctuation get their own files: each
    /// loads back as itself, and an artifact filed under the wrong key is
    /// refused rather than served.
    #[test]
    fn keys_differing_in_punctuation_do_not_share_a_file() {
        let store = temp_store("keys");
        let keys = ["Excel-v2", "Excel_v2", "Excel v2"];
        let stored = |app: &str| StoredRip {
            app: app.to_string(),
            pristine: Vec::new(),
            ung: Ung::new(),
            stats: RipStats::default(),
            journal: RipJournal::new(),
        };
        for app in keys {
            store.save_rip(&stored(app)).unwrap();
        }
        for app in keys {
            assert_eq!(store.load_rip(app).unwrap().app, app, "{app} loads back as itself");
        }
        assert_eq!(store.rip_path("Word"), store.root().join("Word.rip.dmi"));

        std::fs::copy(store.rip_path("Excel-v2"), store.rip_path("Word")).unwrap();
        match store.load_rip("Word") {
            Err(StoreError::AppMismatch { requested, found }) => {
                assert_eq!((requested.as_str(), found.as_str()), ("Word", "Excel-v2"));
            }
            Err(e) => panic!("expected AppMismatch, got {e}"),
            Ok(_) => panic!("an artifact recorded for another app must not load"),
        }
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn an_empty_stored_ung_is_a_typed_error() {
        let mut w = ArtifactWriter::new(kind::RIP);
        let mut meta = Enc::default();
        meta.str(&mut w.interner, "Word");
        artifacts::enc_sigs(&mut meta, &mut w.interner, &[]);
        artifacts::enc_rip_stats(&mut meta, &RipStats::default());
        let mut ung = Enc::default();
        ung.len(0); // no nodes, hence no adjacency rows
        ung.u32(0); // root
        ung.u64(0); // edge count
        w.section(sec::META, meta);
        w.section(sec::UNG, ung);
        let bytes = w.finish();
        let store = temp_store("empty-ung");
        std::fs::write(store.rip_path("Word"), &bytes).unwrap();
        for result in [decode_rip(&bytes), store.load_rip("Word")] {
            match result {
                Err(StoreError::Corrupt { .. }) => {}
                Err(e) => panic!("expected Corrupt, got {e}"),
                Ok(_) => panic!("a UNG without its root node must not decode"),
            }
        }
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn binary_encoding_is_smaller_than_json() {
        let mut s = Session::new(AppKind::Word.launch_small());
        let stored = record_rip("Word", &mut s, &RipConfig::office("Word"));
        let binary = encode_rip(&stored).len();
        let json = serde_json::to_string(&stored.ung).unwrap().len();
        // The binary artifact additionally carries the stats and the
        // pristine signature, yet interning keeps it below the UNG's JSON
        // alone.
        assert!(binary < json, "binary {binary} bytes should beat UNG JSON {json} bytes");
    }
}
