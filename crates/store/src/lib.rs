//! Persistent storage for ripped UNGs and capture pools.
//!
//! This crate adds the third leg of the DMI lifecycle: after a UNG has
//! been ripped (`dmi-core`) and served (`dmi-agent`), it can be
//! **saved** — together with its rip stats and the session's capture
//! pool — and a later process can **load** it to warm-boot a gateway.
//!
//! Two layers:
//!
//! - [`codec`]: the length-prefixed, checksummed, versioned binary
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
//!   therefore process-local.
//!
//! See `docs/persistence.md` for the format layout and compatibility
//! rules.

mod artifacts;
mod codec;

pub use codec::{StoreError, StoreResult, FORMAT_VERSION};

use codec::{kind, sec, ArtifactReader, ArtifactWriter, Dec, Enc};
use dmi_core::{RipConfig, RipJournal, RipStats, Ung, WindowSig};
use dmi_gui::{PooledCapture, Session};
use std::path::{Path, PathBuf};

/// Maximum pooled captures persisted per app. On save, lower-value
/// entries (by the same frequency × node-count retention score the
/// in-memory pool uses) are dropped first.
pub const STORE_CAPACITY: usize = 64;

/// A capture pool sized for recording: one rip generates thousands of
/// distinct action traces, so the serving-sized `CapturePool::shared()`
/// (64 entries) churns every capture out before the rip finishes and the
/// post-rip export would be an arbitrary tail. A recording pool holds
/// the whole rip, letting hit counts accumulate so the
/// [`STORE_CAPACITY`] cap applied at save keeps the genuinely hottest
/// entries. Attach it to the donor before [`record_rip`] /
/// [`export_captures`], and to the warmed session before
/// [`warm_session`].
pub fn recording_pool() -> std::sync::Arc<dmi_gui::CapturePool> {
    std::sync::Arc::new(dmi_gui::CapturePool::new(8192))
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

/// A persisted capture-pool export.
#[derive(Debug)]
pub struct StoredCaptures {
    /// Application key (also the file stem).
    pub app: String,
    /// Pristine-state window signature of the donor build.
    pub pristine: Vec<WindowSig>,
    /// Pooled captures, most-recently-used first (the pool's MRU order).
    pub entries: Vec<PooledCapture>,
}

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

/// Serializes a [`StoredCaptures`] to the binary format.
pub fn encode_captures(caps: &StoredCaptures) -> Vec<u8> {
    let _span = dmi_obs::span(dmi_obs::Cat::Store, "encode_captures", 0);
    let mut w = ArtifactWriter::new(kind::CAPTURES);
    let mut meta = Enc::default();
    meta.str(&mut w.interner, &caps.app);
    artifacts::enc_sigs(&mut meta, &mut w.interner, &caps.pristine);
    let mut entries = Enc::default();
    artifacts::enc_captures(&mut entries, &mut w.interner, &caps.entries);
    w.section(sec::META, meta);
    w.section(sec::ENTRIES, entries);
    w.finish()
}

/// Deserializes a [`StoredCaptures`].
pub fn decode_captures(bytes: &[u8]) -> StoreResult<StoredCaptures> {
    let _span = dmi_obs::span(dmi_obs::Cat::Store, "decode_captures", 0);
    dmi_obs::tally("store.decoded_bytes", bytes.len() as u64);
    let r = ArtifactReader::new(bytes, kind::CAPTURES)?;
    let mut meta = Dec::new(r.section(sec::META)?, "captures meta");
    let app = meta.str(&r.strings)?.to_string();
    let pristine = artifacts::dec_sigs(&mut meta, &r.strings)?;
    meta.finish()?;
    let mut d = Dec::new(r.section(sec::ENTRIES)?, "capture entries");
    let entries = artifacts::dec_captures(&mut d, &r.strings)?;
    d.finish()?;
    Ok(StoredCaptures { app, pristine, entries })
}

/// Applies the persistence retention cap: keeps the [`STORE_CAPACITY`]
/// highest retention-score entries (the in-memory pool's frequency ×
/// node-count score), ties toward the more recent — exports are MRU
/// first. Returns the number evicted.
fn apply_store_capacity(entries: &mut Vec<PooledCapture>) -> usize {
    if entries.len() <= STORE_CAPACITY {
        return 0;
    }
    let evicted = entries.len() - STORE_CAPACITY;
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_by_key(|&i| {
        let c = &entries[i];
        (std::cmp::Reverse((c.hits + 1) as u128 * c.snap.len().max(1) as u128), i)
    });
    let keep: std::collections::HashSet<usize> = order[..STORE_CAPACITY].iter().copied().collect();
    let mut i = 0;
    entries.retain(|_| {
        let kept = keep.contains(&i);
        i += 1;
        kept
    });
    evicted
}

/// An on-disk artifact store: one directory, one file per artifact,
/// keyed by application name (`{app}.rip.dmi`, `{app}.caps.dmi`).
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

    fn path(&self, app: &str, suffix: &str) -> PathBuf {
        let stem: String =
            app.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
        self.root.join(format!("{stem}.{suffix}.dmi"))
    }

    /// Persists a rip; returns the serialized size in bytes.
    pub fn save_rip(&self, rip: &StoredRip) -> StoreResult<u64> {
        let _span = dmi_obs::span(dmi_obs::Cat::Store, "save_rip", 0);
        let bytes = encode_rip(rip);
        std::fs::write(self.path(&rip.app, "rip"), &bytes)?;
        dmi_obs::tally("store.saved_bytes", bytes.len() as u64);
        Ok(bytes.len() as u64)
    }

    /// Loads the rip stored for `app`.
    pub fn load_rip(&self, app: &str) -> StoreResult<StoredRip> {
        let _span = dmi_obs::span(dmi_obs::Cat::Store, "load_rip", 0);
        decode_rip(&std::fs::read(self.path(app, "rip"))?)
    }

    /// Persists a capture-pool export, applying the [`STORE_CAPACITY`]
    /// retention cap; returns the serialized size in bytes.
    pub fn save_captures(&self, caps: &StoredCaptures) -> StoreResult<u64> {
        let _span = dmi_obs::span(dmi_obs::Cat::Store, "save_captures", 0);
        let mut entries: Vec<PooledCapture> = caps.entries.clone();
        apply_store_capacity(&mut entries);
        let capped =
            StoredCaptures { app: caps.app.clone(), pristine: caps.pristine.clone(), entries };
        let bytes = encode_captures(&capped);
        std::fs::write(self.path(&caps.app, "caps"), &bytes)?;
        dmi_obs::tally("store.saved_bytes", bytes.len() as u64);
        Ok(bytes.len() as u64)
    }

    /// Loads the captures stored for `app`.
    pub fn load_captures(&self, app: &str) -> StoreResult<StoredCaptures> {
        let _span = dmi_obs::span(dmi_obs::Cat::Store, "load_captures", 0);
        decode_captures(&std::fs::read(self.path(app, "caps"))?)
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

/// Packages the session's current capture-pool contents for persistence.
pub fn export_captures(app: &str, session: &mut Session) -> StoredCaptures {
    let entries = session.export_pool_captures();
    let pristine = dmi_core::pristine_signature(session);
    StoredCaptures { app: app.to_string(), pristine, entries }
}

/// Warm-boots `session`'s capture pool from the store.
///
/// The stored pristine signature must match the live application's
/// ([`StoreError::PristineMismatch`] otherwise) — a new build invalidates
/// pooled captures, since replayed traces may now produce different
/// trees. Entries recorded under a different capture model (seed or
/// instability profile) are skipped. Returns the number of captures
/// imported.
pub fn warm_session(store: &Store, app: &str, session: &mut Session) -> StoreResult<usize> {
    let stored = store.load_captures(app)?;
    let Some((_, model)) = session.pool_identity() else {
        return Ok(0);
    };
    let live = dmi_core::pristine_signature(session);
    if live != stored.pristine {
        return Err(StoreError::PristineMismatch { app: app.to_string() });
    }
    let entries: Vec<PooledCapture> =
        stored.entries.into_iter().filter(|c| c.model == model).collect();
    Ok(session.import_pool_captures(entries))
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
        std::fs::write(store.path("Word", "rip"), &bytes).unwrap();
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

    #[test]
    fn captures_round_trip_and_warm_boot_is_attested() {
        let mut s = Session::new(AppKind::Word.launch_small());
        s.set_capture_pool(Some(recording_pool()));
        let _ = dmi_core::ripper::rip(&mut s, &RipConfig::office("Word"));
        let caps = export_captures("Word", &mut s);
        assert!(!caps.entries.is_empty(), "a rip must leave pooled captures");
        let store = temp_store("caps");
        store.save_captures(&caps).unwrap();

        // Same build: captures import and dedup against an empty pool.
        let mut warm = Session::new(AppKind::Word.launch_small());
        warm.set_capture_pool(Some(recording_pool()));
        let imported = warm_session(&store, "Word", &mut warm).unwrap();
        assert!(imported > 0);

        // Different build: structurally refused.
        let mut other = Session::new(AppKind::Word.launch_small_version(1));
        other.set_capture_pool(Some(recording_pool()));
        match warm_session(&store, "Word", &mut other) {
            Err(StoreError::PristineMismatch { app }) => assert_eq!(app, "Word"),
            Err(e) => panic!("expected PristineMismatch, got {e}"),
            Ok(n) => panic!("expected PristineMismatch, imported {n}"),
        }
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn store_capacity_evicts_lowest_value_entries_first() {
        let mut donor = Session::new(AppKind::Word.launch_small());
        donor.set_capture_pool(Some(recording_pool()));
        let _ = dmi_core::ripper::rip(&mut donor, &RipConfig::office("Word"));
        let seed = donor.export_pool_captures();
        assert!(!seed.is_empty());
        // Synthesize > STORE_CAPACITY entries with distinct hashes; give
        // index 0 a huge hit count so it must survive.
        let mut entries = Vec::new();
        for i in 0..(STORE_CAPACITY + 8) {
            let mut c = seed[i % seed.len()].clone();
            c.hash = c.hash.wrapping_add(i as u64);
            c.hits = if i == 0 { 1_000_000 } else { 0 };
            entries.push(c);
        }
        let evicted = apply_store_capacity(&mut entries);
        assert_eq!(evicted, 8);
        assert_eq!(entries.len(), STORE_CAPACITY);
        assert!(entries.iter().any(|c| c.hits == 1_000_000), "hot entry must be retained");
    }
}
