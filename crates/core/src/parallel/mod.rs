//! Fleet ripping: many applications ripped at once, one UNG per entry.
//!
//! The paper builds each application's UNG offline on its own (§4.1), so a
//! fleet needs no shared state: [`rip_fleet`] runs the sequential
//! [`crate::ripper::rip`] for every entry on that entry's own session,
//! pulling entries in input order onto at most one scoped thread per
//! available CPU. Every UNG is therefore byte-identical to the entry's
//! sequential rip by construction, and so are its [`RipStats`]. Each rip
//! runs under `catch_unwind`: an application that panics mid-click fails
//! its own entry ([`RipStatus::Failed`], empty graph, payload preserved)
//! while its siblings finish normally.
//!
//! [`RipStats`]: crate::ripper::RipStats

use crate::error::RipError;
use crate::graph::Ung;
use crate::ripper::{rip, RipConfig, RipStats};
use dmi_gui::Session;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::thread;

/// Options for [`rip_fleet`]. It has none: the fleet always runs at most
/// one rip thread per available CPU. The type stays because the
/// benchmark (`dmibench/src/office3.rs`) passes `ParRipConfig::default()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParRipConfig;

/// One application in a fleet rip: a session to rip, the configuration to
/// rip it under, and a caller-chosen id naming it in outcomes and panic
/// reports.
pub struct FleetEntry {
    /// Caller-chosen identifier (e.g. `"Word"`, `"Excel-v2"`).
    pub app_id: String,
    /// The session whose application is ripped.
    pub session: Session,
    /// The rip configuration for this entry.
    pub config: RipConfig,
}

impl FleetEntry {
    /// Convenience constructor.
    pub fn new(app_id: impl Into<String>, session: Session, config: RipConfig) -> FleetEntry {
        FleetEntry { app_id: app_id.into(), session, config }
    }
}

/// How one fleet entry's rip concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RipStatus {
    /// The sequential rip ran to completion.
    Ripped,
    /// Never constructed by [`rip_fleet`]: every entry either rips or
    /// fails. Kept because the benchmark (`dmibench/src/office3.rs`)
    /// matches on it.
    Degraded(RipError),
    /// The application panicked during the rip. The graph is empty and
    /// the error carries the panic payload; sibling entries are
    /// unaffected.
    Failed(RipError),
}

/// The result of ripping one fleet entry.
pub struct RipOutcome {
    /// The entry's `app_id`, echoed back.
    pub app_id: String,
    /// The entry's UNG, byte-identical to its sequential rip (empty for
    /// [`RipStatus::Failed`] entries).
    pub graph: Ung,
    /// The sequential rip's effort counters (zero for failed entries).
    pub stats: RipStats,
    /// Whether the rip completed or panicked.
    pub status: RipStatus,
}

impl RipOutcome {
    /// The contained fault, when one was detected.
    pub fn error(&self) -> Option<&RipError> {
        match &self.status {
            RipStatus::Degraded(e) | RipStatus::Failed(e) => Some(e),
            RipStatus::Ripped => None,
        }
    }
}

/// Rips every entry with the sequential [`rip`], returning one outcome per
/// entry in entry order. Entries are pulled in input order onto at most
/// `min(entries, available_parallelism)` scoped threads.
pub fn rip_fleet(entries: &mut [FleetEntry], _config: &ParRipConfig) -> Vec<RipOutcome> {
    let _fleet_span = dmi_obs::span(dmi_obs::Cat::Rip, "rip.fleet", entries.len() as u64);
    let cpus = thread::available_parallelism().map_or(1, |n| n.get());
    let threads = cpus.min(entries.len());
    let queue = Mutex::new(entries.iter_mut().enumerate());
    let mut done: Vec<(usize, RipOutcome)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut ripped = Vec::new();
                    loop {
                        // The guard drops at the end of this statement: rips
                        // never run under the lock, so it cannot be poisoned.
                        let next = queue.lock().expect("no rip runs under the lock").next();
                        let Some((idx, entry)) = next else { break };
                        ripped.push((idx, rip_entry(entry)));
                    }
                    ripped
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("entry rips contain their own panics"))
            .collect()
    });
    done.sort_unstable_by_key(|(idx, _)| *idx);
    done.into_iter().map(|(_, outcome)| outcome).collect()
}

/// Rips one entry, turning a panic into [`RipStatus::Failed`].
fn rip_entry(entry: &mut FleetEntry) -> RipOutcome {
    let app_id = entry.app_id.clone();
    match catch_unwind(AssertUnwindSafe(|| rip(&mut entry.session, &entry.config))) {
        Ok((graph, stats)) => RipOutcome { app_id, graph, stats, status: RipStatus::Ripped },
        Err(p) => {
            let payload = panic_payload(p.as_ref());
            let err = RipError::WorkerPanic { app_id: app_id.clone(), payload };
            RipOutcome {
                app_id,
                graph: Ung::new(),
                stats: RipStats::default(),
                status: RipStatus::Failed(err),
            }
        }
    }
}

/// Renders a `catch_unwind` payload as text (panic messages are `&str`
/// or `String`).
pub fn panic_payload(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        s.to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("non-string panic payload")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::small_rip;
    use dmi_apps::testkit::{PanickyApp, UnforkableApp};
    use dmi_apps::AppKind;

    fn bytes(g: &Ung) -> String {
        serde_json::to_string(g).unwrap()
    }

    /// A small-app office3 fleet returns, in input order, exactly the
    /// sequential rips: the same UNG bytes and the same stats.
    #[test]
    fn office3_fleet_is_byte_identical_to_sequential_rips_in_order() {
        let mut entries: Vec<FleetEntry> = AppKind::ALL
            .iter()
            .map(|k| {
                FleetEntry::new(
                    k.name(),
                    Session::new(k.launch_small()),
                    RipConfig::office(k.name()),
                )
            })
            .collect();
        let out = rip_fleet(&mut entries, &ParRipConfig);
        assert_eq!(out.len(), 3);
        for (o, kind) in out.iter().zip(AppKind::ALL) {
            let (g_seq, st_seq) = small_rip(kind);
            assert_eq!(o.app_id, kind.name(), "outcomes come back in entry order");
            assert_eq!(o.status, RipStatus::Ripped);
            assert_eq!(bytes(&o.graph), bytes(g_seq), "{kind}: fleet UNG bytes");
            assert_eq!(&o.stats, st_seq, "{kind}: a fleet entry is the sequential rip");
        }
    }

    /// More entries than CPUs: threads keep pulling entries until none
    /// is left, and every outcome lands at its entry's position.
    #[test]
    fn fleet_wider_than_the_cpu_count_returns_every_outcome_in_order() {
        let cpus = thread::available_parallelism().map_or(1, |n| n.get());
        let n = cpus + 3;
        let mut entries: Vec<FleetEntry> = (0..n)
            .map(|i| {
                FleetEntry::new(
                    format!("app-{i}"),
                    Session::new(Box::new(UnforkableApp::new(i + 1))),
                    RipConfig::default(),
                )
            })
            .collect();
        let out = rip_fleet(&mut entries, &ParRipConfig);
        assert_eq!(out.len(), n);
        for (i, o) in out.iter().enumerate() {
            let mut s = Session::new(Box::new(UnforkableApp::new(i + 1)));
            let (g_seq, _) = rip(&mut s, &RipConfig::default());
            assert_eq!(o.app_id, format!("app-{i}"));
            assert_eq!(o.status, RipStatus::Ripped);
            assert_eq!(bytes(&o.graph), bytes(&g_seq), "entry {i}");
        }
        assert!(rip_fleet(&mut [], &ParRipConfig).is_empty());
    }

    /// A panicking entry fails alone: `Failed` with its payload and app
    /// id and an empty graph, while its sibling stays byte-identical to
    /// its sequential rip.
    #[test]
    fn panicking_entry_fails_alone_with_its_payload() {
        crate::fuzz::silence_injected_panics();
        let mut entries = vec![
            FleetEntry::new(
                "Panicky",
                Session::new(Box::new(PanickyApp::new(3, 2))),
                RipConfig::default(),
            ),
            FleetEntry::new(
                "Excel",
                Session::new(AppKind::Excel.launch_small()),
                RipConfig::office("Excel"),
            ),
        ];
        let out = rip_fleet(&mut entries, &ParRipConfig);

        assert_eq!(out[0].app_id, "Panicky");
        match &out[0].status {
            RipStatus::Failed(RipError::WorkerPanic { app_id, payload }) => {
                assert_eq!(app_id, "Panicky");
                assert!(payload.contains("injected fault"), "payload preserved, got: {payload}");
            }
            other => panic!("expected Failed(WorkerPanic), got {other:?}"),
        }
        assert_eq!(out[0].graph.node_count(), Ung::new().node_count(), "failed entries are empty");

        assert_eq!(out[1].app_id, "Excel");
        assert_eq!(out[1].status, RipStatus::Ripped, "the sibling is not dragged down");
        assert_eq!(bytes(&out[1].graph), bytes(&small_rip(AppKind::Excel).0));
    }
}
