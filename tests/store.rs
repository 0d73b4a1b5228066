//! Persistence integration tests: the binary store round trip at the
//! workspace level, its failure modes, and the gateway warm boot it
//! powers.
//!
//! Tier-1 tests exercise the codec over fuzz-generated adversarial apps
//! (round trips must be lossless *and* re-encode byte-identically),
//! check that every corruption class surfaces a typed [`StoreError`]
//! rather than a panic — on the codec and through
//! [`dmi_agent::ServeApp::from_store`] — and prove a store-booted
//! gateway serves traces byte-identical to a conventionally rip-booted
//! one. A decode fuzz mutates payload bytes, re-seals the section
//! checksums and decodes: 500 inputs here, 10,000 in release.
//!
//! The `#[ignore]`d tests are the release-gated acceptance bar:
//! `load(save(rip))` byte-identity for all three Office apps, and the
//! long decode fuzz on the small PowerPoint rip.

use dmi_apps::AppKind;
use dmi_core::fuzz::{AdversarialApp, AppSpec};
use dmi_core::RipConfig;
use dmi_gui::Session;
use dmi_integration_tests::SplitMix;
use dmi_store::{Store, StoreError, StoredRip};

/// Canonical UNG bytes — the representation the oracles pin.
fn ung_bytes(g: &dmi_core::Ung) -> String {
    serde_json::to_string(g).expect("UNGs serialize")
}

/// A fresh store under the system temp dir, unique per test.
fn temp_store(tag: &str) -> Store {
    let dir = std::env::temp_dir().join(format!("dmi-store-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Store::open(dir).expect("temp store opens")
}

/// Records a fuzz app's rip.
fn record_fuzz(seed: u64, max_ops: usize) -> StoredRip {
    let spec = AppSpec::generate(seed, max_ops);
    let mut s = Session::new(AdversarialApp::launch(spec));
    dmi_store::record_rip(&format!("fuzz-{seed}"), &mut s, &RipConfig::default())
}

/// Codec round trips over fuzz-generated apps: decoding must be
/// lossless field-for-field, and re-encoding the decoded artifact must
/// reproduce the original bytes (the encoding is canonical — there is
/// exactly one byte string per artifact).
#[test]
fn fuzz_app_artifacts_round_trip_losslessly_and_canonically() {
    for seed in [7u64, 91, 1234] {
        let rip = record_fuzz(seed, 20);

        let bytes = dmi_store::encode_rip(&rip);
        let back = dmi_store::decode_rip(&bytes).expect("rip artifact decodes");
        assert_eq!(back.app, rip.app, "seed {seed}: app key");
        assert_eq!(back.pristine, rip.pristine, "seed {seed}: pristine signature");
        assert_eq!(back.stats, rip.stats, "seed {seed}: rip stats");
        assert_eq!(ung_bytes(&back.ung), ung_bytes(&rip.ung), "seed {seed}: UNG bytes");
        assert_eq!(dmi_store::encode_rip(&back), bytes, "seed {seed}: canonical re-encode");
    }
}

/// Every corruption class surfaces the right typed error — never a
/// panic, never a silently wrong artifact.
#[test]
fn corrupt_truncated_and_wrong_version_artifacts_fail_typed() {
    let rip = record_fuzz(5, 12);
    let bytes = dmi_store::encode_rip(&rip);

    // Truncation at structural boundaries: empty, mid-magic, end of
    // magic, mid-header, mid-payload, one byte short.
    for cut in [0usize, 3, 8, 12, bytes.len() / 2, bytes.len() - 1] {
        let err = dmi_store::decode_rip(&bytes[..cut]).expect_err("truncated input must fail");
        assert!(
            matches!(err, StoreError::Truncated { .. } | StoreError::Corrupt { .. }),
            "cut at {cut}: unexpected error {err}"
        );
    }

    // Bad magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(dmi_store::decode_rip(&bad), Err(StoreError::BadMagic)));

    // Wrong format version (header bytes 8..12, little-endian): an
    // unknown future version, version 2, whose stats section still
    // carried the speculation counters, version 3, which still carried
    // the exploration journal section, and version 4, whose stats still
    // carried the capture-pool counters.
    for version in [999u32, 2, 3, 4] {
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&version.to_le_bytes());
        let err = dmi_store::decode_rip(&bad).expect_err("a foreign version must be refused");
        assert!(
            matches!(err, StoreError::UnsupportedVersion { found } if found == version),
            "version {version}: unexpected error {err}"
        );
    }

    // Kind confusion: header byte 12 names the artifact kind, and only
    // rips (kind 1) exist.
    let mut bad = bytes.clone();
    bad[12] = 2;
    assert!(matches!(dmi_store::decode_rip(&bad), Err(StoreError::WrongKind { .. })));

    // A flipped payload byte fails the section checksum.
    let mut bad = bytes.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0xFF;
    assert!(matches!(dmi_store::decode_rip(&bad), Err(StoreError::Corrupt { .. })));
}

/// Booting a servable app from a store without a readable rip is a
/// typed error, never a panic: an app with no stored rip is
/// [`StoreError::Io`], and a rip file cut short is `Truncated` or
/// `Corrupt`.
#[test]
fn store_boot_without_a_readable_rip_fails_typed() {
    use dmi_agent::ServeApp;
    use dmi_core::DmiBuildConfig;

    let spec = AppSpec::generate(5, 12);
    let donor = || Session::new(AdversarialApp::launch(spec.clone()));
    let cfg = DmiBuildConfig::office("fuzz-5");
    let store = temp_store("boot-errors");

    match ServeApp::from_store("fuzz-5", &store, donor(), &cfg) {
        Err(StoreError::Io(_)) => {}
        Err(e) => panic!("expected Io for a missing rip, got {e}"),
        Ok(_) => panic!("an app with no stored rip must not boot"),
    }

    store.save_rip(&record_fuzz(5, 12)).expect("save rip");
    let files: Vec<_> = std::fs::read_dir(store.root())
        .expect("store dir lists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert_eq!(files.len(), 1, "one rip artifact on disk");
    let bytes = std::fs::read(&files[0]).expect("read rip");
    for cut in [bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&files[0], &bytes[..cut]).expect("write cut rip");
        match ServeApp::from_store("fuzz-5", &store, donor(), &cfg) {
            Err(StoreError::Truncated { .. } | StoreError::Corrupt { .. }) => {}
            Err(e) => panic!("cut at {cut}: expected Truncated or Corrupt, got {e}"),
            Ok(_) => panic!("cut at {cut}: a cut rip must not boot"),
        }
    }
    let _ = std::fs::remove_dir_all(store.root());
}

/// A gateway booted from the store ([`ServeApp::from_store`]) must
/// serve traces byte-identical to one booted the conventional way
/// (live rip via [`Dmi::build`]) — the stored UNG yields the same
/// model, byte for byte. A donor from a different build must be refused
/// at boot.
#[test]
fn store_booted_gateway_serves_byte_identical_traces() {
    use dmi_agent::{Gateway, GatewayConfig, InterfaceMode, RunConfig, ServeApp, ServeRequest};
    use dmi_core::{Dmi, DmiBuildConfig};
    use std::sync::Arc;

    let store = temp_store("gateway");
    let cfg = DmiBuildConfig::office("Word");

    // Record the persistent artifact from one session...
    let mut rec = Session::new(AppKind::Word.launch_small());
    let rip = dmi_store::record_rip("Word", &mut rec, &cfg.rip);
    store.save_rip(&rip).expect("save rip");

    // ...and build the conventional baseline from another.
    let mut live = Session::new(AppKind::Word.launch_small());
    let (dmi, _) = Dmi::build(&mut live, &cfg);
    let model = Arc::new(dmi);

    let tasks: Vec<Arc<dmi_agent::AgentTask>> = dmi_tasks::all_tasks()
        .into_iter()
        .filter(|t| t.app.name() == "Word")
        .map(Arc::new)
        .collect();
    assert!(!tasks.is_empty(), "the task suite covers Word");
    let mix = || -> Vec<ServeRequest> {
        (0..9)
            .map(|i| ServeRequest {
                tenant: format!("tenant-{}", i % 3),
                app: "Word".to_string(),
                task: Arc::clone(&tasks[i % tasks.len()]),
                cfg: RunConfig::test(
                    dmi_llm::CapabilityProfile::gpt5_medium(),
                    if i % 3 == 0 { InterfaceMode::GuiOnly } else { InterfaceMode::GuiPlusDmi },
                    i as u64,
                ),
            })
            .collect()
    };
    let gw_cfg = || GatewayConfig { workers: 1, sessions_per_app: 4, max_in_flight: 8 };

    let mut cold = Gateway::new(
        vec![ServeApp::new(
            "Word",
            Session::new(AppKind::Word.launch_small()),
            Some(Arc::clone(&model)),
        )],
        gw_cfg(),
    );
    let cold_report = cold.serve(mix());

    let warm_app =
        ServeApp::from_store("Word", &store, Session::new(AppKind::Word.launch_small()), &cfg)
            .expect("same-build donor boots from the store");
    // The store is the one way a model comes back in: the warm-booted
    // model is the live-built one, forest and description bytes included.
    let warm_model = warm_app.dmi.as_ref().expect("the warm app carries a model");
    assert_eq!(warm_model.to_json(), model.to_json(), "store-booted model bytes");
    assert_eq!(warm_model.core_text(), model.core_text(), "store-booted core topology");
    let mut warm = Gateway::new(vec![warm_app], gw_cfg());
    let warm_report = warm.serve(mix());

    assert_eq!(cold_report.stats.completed, 9);
    assert_eq!(warm_report.stats.completed, 9);
    assert_eq!(warm_report.stats.faulted, 0);
    for (i, (c, w)) in cold_report.outcomes.iter().zip(&warm_report.outcomes).enumerate() {
        let cold_bytes = c.trace.as_ref().expect("cold trace").identity_bytes();
        let warm_bytes = w.trace.as_ref().expect("warm trace").identity_bytes();
        assert_eq!(
            cold_bytes, warm_bytes,
            "request {i}: store-booted gateway must serve the exact bytes a rip-booted one does"
        );
    }

    // A donor from a changed build is refused at boot, not served wrong.
    let v1 = Session::new(AppKind::Word.launch_small_version(1));
    match ServeApp::from_store("Word", &store, v1, &cfg) {
        Err(StoreError::PristineMismatch { app }) => assert_eq!(app, "Word"),
        Err(e) => panic!("expected PristineMismatch, got {e}"),
        Ok(_) => panic!("a changed build must not boot from stored artifacts"),
    }

    let _ = std::fs::remove_dir_all(store.root());
}

/// §persistence acceptance: `load(save(rip))` is byte-identical for
/// every Office app.
#[test]
#[ignore = "rip-heavy: CI runs these in release via `-- --ignored`"]
fn stored_rips_round_trip_byte_identically_for_every_office_app() {
    let store = temp_store("office");
    for kind in AppKind::ALL {
        let mut s = Session::new(kind.launch_small());
        let rip = dmi_store::record_rip(kind.name(), &mut s, &RipConfig::office(kind.name()));
        store.save_rip(&rip).expect("save rip");

        let loaded = store.load_rip(kind.name()).expect("load rip");
        assert_eq!(
            ung_bytes(&loaded.ung),
            ung_bytes(&rip.ung),
            "{}: stored UNG must be byte-identical to the ripped one",
            kind.name()
        );
        assert_eq!(loaded.stats, rip.stats, "{}: rip stats", kind.name());
        assert_eq!(loaded.pristine, rip.pristine, "{}: pristine signature", kind.name());
    }
    let _ = std::fs::remove_dir_all(store.root());
}

/// FNV-1a, the container's section checksum.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// The payload byte range and checksum offset of every section of an
/// artifact (see the framing in `dmi_store`'s codec docs: a 17-byte
/// header, then per section a tag, a `u64` length, a `u64` checksum and
/// the payload).
fn sections(bytes: &[u8]) -> Vec<(std::ops::Range<usize>, usize)> {
    let count = u32::from_le_bytes(bytes[13..17].try_into().unwrap()) as usize;
    let mut at = 17;
    (0..count)
        .map(|_| {
            let len = u64::from_le_bytes(bytes[at + 1..at + 9].try_into().unwrap()) as usize;
            let (sum, start) = (at + 9, at + 17);
            at = start + len;
            (start..at, sum)
        })
        .collect()
}

/// Mutates `inputs` copies of `bytes` in one to three payload bytes each
/// (a bit flip, 0xFF or a random byte), re-seals every section checksum
/// so the mutation reaches the value decoders, and decodes each. Every
/// input must decode to a rip or a typed [`StoreError`]; a panic names
/// the input that caused it.
fn fuzz_resealed_decode(bytes: &[u8], inputs: usize, seed: u64) -> (usize, usize) {
    let secs = sections(bytes);
    let payload: Vec<usize> = secs.iter().flat_map(|(r, _)| r.clone()).collect();
    assert!(dmi_store::decode_rip(bytes).is_ok(), "the unmutated artifact decodes");
    let mut rng = SplitMix(seed);
    let (mut ok, mut refused) = (0, 0);
    for input in 0..inputs {
        let mut bad = bytes.to_vec();
        for _ in 0..1 + rng.below(3) {
            let at = payload[rng.below(payload.len())];
            bad[at] = match rng.below(3) {
                0 => bad[at] ^ (1 << rng.below(8)),
                1 => 0xFF,
                _ => rng.next_u64() as u8,
            };
        }
        for (range, sum) in &secs {
            let seal = fnv(&bad[range.clone()]).to_le_bytes();
            bad[*sum..*sum + 8].copy_from_slice(&seal);
        }
        match std::panic::catch_unwind(|| dmi_store::decode_rip(&bad)) {
            Ok(Ok(_)) => ok += 1,
            Ok(Err(_)) => refused += 1,
            Err(_) => panic!("seed {seed} input {input}: decode_rip panicked"),
        }
    }
    (ok, refused)
}

/// Decode fuzz smoke: 500 re-sealed mutations of a fuzz app's rip
/// artifact decode to a rip or a typed error, never a panic.
#[test]
fn resealed_payload_mutations_decode_or_fail_typed() {
    let bytes = dmi_store::encode_rip(&record_fuzz(11, 20));
    let (ok, refused) = fuzz_resealed_decode(&bytes, 500, 1);
    assert_eq!(ok + refused, 500);
    assert!(refused > 0, "mutations reach the value decoders' checks");

    // A corrupt section count in the header runs out of frames; nothing
    // is reserved for the count itself.
    let mut bad = bytes.clone();
    bad[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(dmi_store::decode_rip(&bad), Err(StoreError::Truncated { .. })));
}

/// The long decode fuzz: 10,000 re-sealed mutations of the small
/// PowerPoint rip artifact, never a panic.
#[test]
#[ignore = "rip-heavy: CI runs these in release via `-- --ignored`"]
fn resealed_office_rip_mutations_never_panic() {
    let mut s = Session::new(AppKind::PowerPoint.launch_small());
    let rip = dmi_store::record_rip("PowerPoint", &mut s, &RipConfig::office("PowerPoint"));
    let bytes = dmi_store::encode_rip(&rip);
    let (ok, refused) = fuzz_resealed_decode(&bytes, 10_000, 2);
    assert_eq!(ok + refused, 10_000);
    assert!(refused > 0, "mutations reach the value decoders' checks");
}
