//! The binary container format: framing, checksums, string interning,
//! and the primitive value codecs.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic      8  b"DMISTORE"
//! version    4  FORMAT_VERSION
//! kind       1  artifact kind (rip = 1, captures = 2)
//! sections   4  section count
//! per section:
//!   tag      1
//!   len      8  payload byte length
//!   checksum 8  FNV-1a over the payload
//!   payload  len
//! ```
//!
//! Strings are interned: every section stores `u32` ids into a shared
//! string table carried in its own section (tag [`sec::STRINGS`]), which
//! is always decoded first. Office UNGs repeat a few hundred names across
//! thousands of nodes and snapshots — interning is most of the codec's
//! size win over the JSON path.
//!
//! Every read is bounds- and checksum-guarded: truncated, corrupt, or
//! wrong-version input surfaces a typed [`StoreError`], never a panic.

use std::collections::HashMap;
use std::fmt;

/// Current on-disk format version. Bump on any layout change; readers
/// refuse other versions with [`StoreError::UnsupportedVersion`] (see
/// `docs/persistence.md` for the compatibility rules).
pub const FORMAT_VERSION: u32 = 4;

/// File magic.
pub const MAGIC: [u8; 8] = *b"DMISTORE";

/// Artifact kinds (the `kind` header byte).
pub mod kind {
    /// A stored rip: UNG + rip stats + pristine signature.
    pub const RIP: u8 = 1;
    /// A stored capture-pool export.
    pub const CAPTURES: u8 = 2;
}

/// Section tags.
pub mod sec {
    /// The interned string table (decoded before everything else).
    pub const STRINGS: u8 = 1;
    /// Artifact metadata (app name, pristine signature, stats).
    pub const META: u8 = 2;
    /// The UNG graph.
    pub const UNG: u8 = 3;
    /// Pooled capture entries.
    pub const ENTRIES: u8 = 5;
}

/// Typed codec/store errors. The decoder's contract is total: any byte
/// stream produces either a value or one of these.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The magic bytes are wrong — not a store artifact.
    BadMagic,
    /// The artifact was written by an incompatible format version.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The artifact kind does not match what the caller asked to load.
    WrongKind {
        /// Kind byte expected for this load path.
        expected: u8,
        /// Kind byte found in the header.
        found: u8,
    },
    /// The input ended before a declared length was satisfied.
    Truncated {
        /// What was being read.
        context: &'static str,
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// Structurally invalid input: checksum mismatch, out-of-range id,
    /// violated graph invariant, …
    Corrupt {
        /// Human-readable description of the violated invariant.
        message: String,
    },
    /// A warm-boot attestation failed: the stored pristine signature
    /// does not match the live application's, so serving the stored
    /// UNG or captures would be unsound (e.g. a different app version).
    PristineMismatch {
        /// The store key the attestation was performed for.
        app: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::BadMagic => write!(f, "not a dmi-store artifact (bad magic)"),
            StoreError::UnsupportedVersion { found } => {
                write!(f, "unsupported format version {found} (supported: {FORMAT_VERSION})")
            }
            StoreError::WrongKind { expected, found } => {
                write!(f, "wrong artifact kind {found} (expected {expected})")
            }
            StoreError::Truncated { context, needed, remaining } => {
                write!(
                    f,
                    "truncated input reading {context}: needed {needed} bytes, {remaining} remain"
                )
            }
            StoreError::Corrupt { message } => write!(f, "corrupt artifact: {message}"),
            StoreError::PristineMismatch { app } => {
                write!(f, "pristine signature mismatch for `{app}`: stored artifacts were captured against a different launch image")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// Shorthand result type.
pub type StoreResult<T> = Result<T, StoreError>;

pub(crate) fn corrupt(message: impl Into<String>) -> StoreError {
    StoreError::Corrupt { message: message.into() }
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The shared string interner: first occurrence assigns the next id.
#[derive(Default)]
pub struct Interner {
    strings: Vec<String>,
    ids: HashMap<String, u32>,
}

impl Interner {
    fn id(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.strings.push(s.to_string());
        self.ids.insert(s.to_string(), id);
        id
    }
}

/// One section's encoder: primitive writers over a growable buffer, with
/// strings routed through the artifact-wide [`Interner`].
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A length-prefixed list header.
    pub fn len(&mut self, n: usize) {
        self.u32(n as u32);
    }

    /// An interned string reference.
    pub fn str(&mut self, interner: &mut Interner, s: &str) {
        self.u32(interner.id(s));
    }
}

/// One section's decoder: a cursor over the payload with total,
/// bounds-checked reads.
pub struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> Dec<'a> {
    pub fn new(bytes: &'a [u8], context: &'static str) -> Dec<'a> {
        Dec { bytes, pos: 0, context }
    }

    fn take(&mut self, n: usize) -> StoreResult<&'a [u8]> {
        let remaining = self.bytes.len() - self.pos;
        if n > remaining {
            return Err(StoreError::Truncated { context: self.context, needed: n, remaining });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn u8(&mut self) -> StoreResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> StoreResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(format!("invalid bool byte {b} in {}", self.context))),
        }
    }

    pub fn u32(&mut self) -> StoreResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub fn u64(&mut self) -> StoreResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub fn i32(&mut self) -> StoreResult<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// A list length, sanity-bounded by what the remaining payload could
    /// possibly hold (`min_elem_bytes` per element) so a corrupt length
    /// cannot trigger a huge allocation.
    pub fn len(&mut self, min_elem_bytes: usize) -> StoreResult<usize> {
        let n = self.u32()? as usize;
        let remaining = self.bytes.len() - self.pos;
        if n.saturating_mul(min_elem_bytes.max(1)) > remaining {
            return Err(corrupt(format!(
                "implausible length {n} in {} ({remaining} payload bytes remain)",
                self.context
            )));
        }
        Ok(n)
    }

    /// An interned string reference, resolved against the decoded table.
    pub fn str<'s>(&mut self, strings: &'s [String]) -> StoreResult<&'s str> {
        let id = self.u32()? as usize;
        strings
            .get(id)
            .map(String::as_str)
            .ok_or_else(|| corrupt(format!("string id {id} out of table range {}", strings.len())))
    }

    /// Asserts the payload was fully consumed (catches format drift).
    pub fn finish(self) -> StoreResult<()> {
        if self.pos != self.bytes.len() {
            return Err(corrupt(format!(
                "{} bytes of trailing garbage in {}",
                self.bytes.len() - self.pos,
                self.context
            )));
        }
        Ok(())
    }
}

/// Whole-artifact writer: collects tagged sections, then frames them with
/// the header, the string table, and per-section checksums.
pub struct ArtifactWriter {
    kind: u8,
    pub interner: Interner,
    sections: Vec<(u8, Vec<u8>)>,
}

impl ArtifactWriter {
    pub fn new(kind: u8) -> ArtifactWriter {
        ArtifactWriter { kind, interner: Interner::default(), sections: Vec::new() }
    }

    /// Adds a finished section.
    pub fn section(&mut self, tag: u8, enc: Enc) {
        self.sections.push((tag, enc.buf));
    }

    /// Serializes the artifact.
    pub fn finish(self) -> Vec<u8> {
        // The string table becomes its own section, emitted first so the
        // reader can resolve references while decoding the rest.
        let mut table = Vec::new();
        table.extend_from_slice(&(self.interner.strings.len() as u32).to_le_bytes());
        for s in &self.interner.strings {
            table.extend_from_slice(&(s.len() as u32).to_le_bytes());
            table.extend_from_slice(s.as_bytes());
        }
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.push(self.kind);
        out.extend_from_slice(&((self.sections.len() + 1) as u32).to_le_bytes());
        let mut emit = |tag: u8, payload: &[u8]| {
            out.push(tag);
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&fnv(payload).to_le_bytes());
            out.extend_from_slice(payload);
        };
        emit(sec::STRINGS, &table);
        for (tag, payload) in &self.sections {
            emit(*tag, payload);
        }
        out
    }
}

/// Whole-artifact reader: validates the header, splits checksummed
/// sections, and decodes the string table.
pub struct ArtifactReader<'a> {
    pub strings: Vec<String>,
    sections: Vec<(u8, &'a [u8])>,
}

impl<'a> ArtifactReader<'a> {
    /// Parses and validates the container framing.
    pub fn new(bytes: &'a [u8], expected_kind: u8) -> StoreResult<ArtifactReader<'a>> {
        let mut d = Dec::new(bytes, "artifact header");
        let magic = d.take(8)?;
        if magic != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = d.u32()?;
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion { found: version });
        }
        let kind = d.u8()?;
        if kind != expected_kind {
            return Err(StoreError::WrongKind { expected: expected_kind, found: kind });
        }
        let n_sections = d.u32()? as usize;
        let mut sections = Vec::with_capacity(n_sections);
        for _ in 0..n_sections {
            let tag = d.u8()?;
            let len = d.u64()? as usize;
            let checksum = d.u64()?;
            let payload = d.take(len)?;
            if fnv(payload) != checksum {
                return Err(corrupt(format!("checksum mismatch in section {tag}")));
            }
            sections.push((tag, payload));
        }
        d.finish()?;

        // Decode the string table up front.
        let table = sections
            .iter()
            .find(|(t, _)| *t == sec::STRINGS)
            .ok_or_else(|| corrupt("missing string table section"))?
            .1;
        let mut d = Dec::new(table, "string table");
        let count = d.len(4)?;
        let mut strings = Vec::with_capacity(count);
        for _ in 0..count {
            let len = d.u32()? as usize;
            let raw = d.take(len)?;
            let s =
                std::str::from_utf8(raw).map_err(|_| corrupt("non-utf8 bytes in string table"))?;
            strings.push(s.to_string());
        }
        d.finish()?;
        Ok(ArtifactReader { strings, sections })
    }

    /// The payload of a required section.
    pub fn section(&self, tag: u8) -> StoreResult<&'a [u8]> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, p)| *p)
            .ok_or_else(|| corrupt(format!("missing section {tag}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_artifact() -> Vec<u8> {
        let mut w = ArtifactWriter::new(kind::RIP);
        let mut e = Enc::default();
        e.u64(42);
        e.str(&mut w.interner, "hello");
        e.str(&mut w.interner, "hello");
        e.str(&mut w.interner, "world");
        w.section(sec::META, e);
        w.finish()
    }

    #[test]
    fn frame_round_trips_and_interns() {
        let bytes = round_trip_artifact();
        let r = ArtifactReader::new(&bytes, kind::RIP).unwrap();
        assert_eq!(r.strings, ["hello", "world"]);
        let mut d = Dec::new(r.section(sec::META).unwrap(), "meta");
        assert_eq!(d.u64().unwrap(), 42);
        assert_eq!(d.str(&r.strings).unwrap(), "hello");
        assert_eq!(d.str(&r.strings).unwrap(), "hello");
        assert_eq!(d.str(&r.strings).unwrap(), "world");
        d.finish().unwrap();
    }

    #[test]
    fn bad_magic_and_versions_are_typed_errors() {
        let mut bytes = round_trip_artifact();
        bytes[0] ^= 0xFF;
        assert!(matches!(ArtifactReader::new(&bytes, kind::RIP), Err(StoreError::BadMagic)));

        let mut bytes = round_trip_artifact();
        bytes[8] = 99; // version field
        assert!(matches!(
            ArtifactReader::new(&bytes, kind::RIP),
            Err(StoreError::UnsupportedVersion { found: 99 })
        ));

        let bytes = round_trip_artifact();
        assert!(matches!(
            ArtifactReader::new(&bytes, kind::CAPTURES),
            Err(StoreError::WrongKind { expected: kind::CAPTURES, found: kind::RIP })
        ));
    }

    #[test]
    fn every_truncation_point_is_a_typed_error() {
        let bytes = round_trip_artifact();
        for cut in 0..bytes.len() {
            let err = ArtifactReader::new(&bytes[..cut], kind::RIP)
                .err()
                .unwrap_or_else(|| panic!("truncation at {cut} must fail"));
            assert!(
                matches!(err, StoreError::Truncated { .. } | StoreError::BadMagic),
                "unexpected error at cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn payload_corruption_fails_the_checksum() {
        let mut bytes = round_trip_artifact();
        let last = bytes.len() - 1; // inside the META payload
        bytes[last] ^= 0x01;
        match ArtifactReader::new(&bytes, kind::RIP) {
            Err(StoreError::Corrupt { message }) => assert!(message.contains("checksum")),
            Err(other) => panic!("expected checksum error, got {other:?}"),
            Ok(_) => panic!("corrupt payload must not parse"),
        }
    }
}
