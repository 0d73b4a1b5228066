//! Persistence benchmarks: the binary store codec against the JSON
//! baseline and disk round trips.
//!
//! - `store/encode_rip` / `store/decode_rip`: in-memory codec cost for a
//!   full Word rip artifact (UNG + stats + pristine sigs).
//! - `store/json_encode_ung`: the serde-JSON baseline the codec is
//!   measured against (UNG only — the binary artifact carries strictly
//!   more and must still be smaller).
//! - `store/save_load_rip`: the on-disk round trip through [`Store`].
//!
//! The one-shot `store Word:` line (printed outside the timed loops)
//! reports artifact size vs JSON and save/load wall ms.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dmi_apps::AppKind;
use dmi_bench::report;
use dmi_core::RipConfig;
use dmi_gui::Session;
use dmi_store::StoredRip;
use std::sync::OnceLock;
use std::time::Instant;

/// The stored Word v0 rip, recorded once.
fn word_fixture() -> &'static StoredRip {
    static FX: OnceLock<StoredRip> = OnceLock::new();
    FX.get_or_init(|| {
        let mut s = Session::new(AppKind::Word.launch_small_version(0));
        dmi_store::record_rip("Word", &mut s, &RipConfig::office("Word"))
    })
}

fn temp_store() -> dmi_store::Store {
    let dir = std::env::temp_dir().join(format!("dmi-store-bench-{}", std::process::id()));
    dmi_store::Store::open(dir).expect("temp store")
}

/// One-shot persistence report, printed outside the timed loops — and
/// only when the `store/*` group is selected by the bench name filter.
fn report_store_once() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let rip = word_fixture();
        let binary_bytes = dmi_store::encode_rip(rip).len() as u64;
        let json_bytes = serde_json::to_string(&rip.ung).expect("ung json").len() as u64;

        let store = temp_store();
        let t = Instant::now();
        store.save_rip(rip).expect("save rip");
        let save_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        black_box(store.load_rip("Word").expect("load rip"));
        let load_ms = t.elapsed().as_secs_f64() * 1e3;

        eprintln!("{}", report::store_line("Word", binary_bytes, json_bytes, save_ms, load_ms));
        let _ = std::fs::remove_dir_all(store.root());
    });
}

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    group.sample_size(10);

    group.bench_function("encode_rip", |b| {
        report_store_once();
        let rip = word_fixture();
        b.iter(|| black_box(dmi_store::encode_rip(rip).len()))
    });

    group.bench_function("decode_rip", |b| {
        report_store_once();
        let rip = word_fixture();
        let bytes = dmi_store::encode_rip(rip);
        b.iter(|| black_box(dmi_store::decode_rip(&bytes).expect("decode").ung.node_count()))
    });

    group.bench_function("json_encode_ung", |b| {
        report_store_once();
        let rip = word_fixture();
        b.iter(|| black_box(serde_json::to_string(&rip.ung).expect("json").len()))
    });

    group.bench_function("save_load_rip", |b| {
        report_store_once();
        let rip = word_fixture();
        let store = temp_store();
        b.iter(|| {
            store.save_rip(rip).expect("save");
            black_box(store.load_rip("Word").expect("load").ung.node_count())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
