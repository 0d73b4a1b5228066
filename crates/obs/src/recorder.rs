//! The span/event recorder: per-thread ring-buffer collectors behind one
//! global enable flag.
//!
//! # Determinism contract
//!
//! Recording is strictly *observational*: every hook writes into a
//! side-band buffer and returns — no recorded value ever feeds back into
//! a scheduling, caching, or merge decision. Wall-clock timestamps are
//! nondeterministic, but nothing in the engine reads them; the byte
//! streams the identity oracles compare (serialized UNGs, `RunTrace`
//! identity bytes) are computed from application state alone, so a traced
//! run is byte-identical to an untraced one (release-gated in
//! `tests/identity.rs`).
//!
//! # The OFF path
//!
//! Tracing defaults to off. Every entry point begins with one relaxed
//! atomic load and returns immediately when tracing is disabled: no
//! allocation, no lock, no clock read, no thread-local registration.
//! [`SpanGuard`] is a plain struct whose disarmed drop is a no-op, so an
//! instrumented hot path costs one branch when tracing is off.
//!
//! # Collectors
//!
//! When tracing is on, each thread lazily registers one fixed-capacity
//! ring buffer with the global sink on its first event. A full ring
//! overwrites its oldest events (the drop count is carried on the drained
//! [`Trace`]), bounding memory regardless of rip size. [`drain`] collects
//! every thread's events, merges them in timestamp order, and prunes
//! buffers whose threads have exited.
//!
//! Next to the event stream, the recorder keeps *tallies*: named global
//! counters ([`tally`]) incremented at the same sites as the engine's
//! own stat fields. They are immune to ring overflow, which makes them
//! the reference side of the stats-drift cross-checks in `tests/obs.rs`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity (events).
pub const RING_CAPACITY: usize = 1 << 16;

/// Event category: which subsystem emitted it. Doubles as the Chrome
/// trace `cat` field, so timelines filter by subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cat {
    /// Sequential rip driver.
    Rip,
    /// No engine emits this category any more; kept because the
    /// benchmark's per-layer fold (`dmibench/src/metrics.rs`) names it.
    Scheduler,
    /// No engine emits this category any more (see [`Cat::Scheduler`]).
    Worker,
    /// Capture cache.
    Capture,
    /// Multi-tenant serving gateway.
    Gateway,
    /// LLM batching.
    Llm,
    /// Persistent store codec + disk IO.
    Store,
}

impl Cat {
    /// Stable lowercase label (Chrome trace `cat`, summary grouping).
    pub fn as_str(self) -> &'static str {
        match self {
            Cat::Rip => "rip",
            Cat::Scheduler => "scheduler",
            Cat::Worker => "worker",
            Cat::Capture => "capture",
            Cat::Gateway => "gateway",
            Cat::Llm => "llm",
            Cat::Store => "store",
        }
    }
}

/// Which timeline an event's timestamps live on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Clock {
    /// Real time, microseconds since the recorder epoch.
    Wall,
    /// The deterministic virtual clock of the serve path, microseconds
    /// since virtual time zero.
    Virtual,
}

/// Event shape (maps onto Chrome trace phases).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A duration span: `ts_us .. ts_us + dur_us` (Chrome `"X"`).
    Complete,
    /// A point event (Chrome `"i"`).
    Instant,
}

/// One recorded event. Fixed-size and allocation-free: names are
/// `&'static str`, the one payload slot is an integer (`lane` — a fleet
/// size, request index, round index, or byte count, by convention of the
/// emitting site).
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Shape.
    pub phase: Phase,
    /// Emitting subsystem.
    pub cat: Cat,
    /// Event name (static, site-chosen).
    pub name: &'static str,
    /// Start timestamp in microseconds on `clock`.
    pub ts_us: u64,
    /// Duration in microseconds (`Phase::Complete` only, else 0).
    pub dur_us: u64,
    /// Integer payload (fleet size / request / round / bytes).
    pub lane: u64,
    /// Stable small id of the recording thread.
    pub tid: u64,
    /// Which timeline `ts_us` is on.
    pub clock: Clock,
}

/// A drained event stream (see [`drain`]).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events merged across all threads, ordered by `(ts_us, tid)`.
    pub events: Vec<Event>,
    /// Events lost to ring-buffer overwrite before the drain.
    pub dropped: u64,
}

// ------------------------------------------------------------- global state

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

struct Ring {
    buf: Vec<Event>,
    /// Index of the oldest event when the ring has wrapped.
    head: usize,
    wrapped: bool,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, e: Event) {
        if self.buf.len() < RING_CAPACITY {
            self.buf.push(e);
            return;
        }
        self.buf[self.head] = e;
        self.head = (self.head + 1) % RING_CAPACITY;
        self.wrapped = true;
        self.dropped += 1;
    }

    fn take(&mut self) -> (Vec<Event>, u64) {
        let mut out = Vec::with_capacity(self.buf.len());
        if self.wrapped {
            out.extend_from_slice(&self.buf[self.head..]);
            out.extend_from_slice(&self.buf[..self.head]);
        } else {
            out.extend_from_slice(&self.buf);
        }
        let dropped = self.dropped;
        self.buf.clear();
        self.head = 0;
        self.wrapped = false;
        self.dropped = 0;
        (out, dropped)
    }
}

struct ThreadBuf {
    tid: u64,
    ring: Mutex<Ring>,
}

fn sink() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static SINK: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

fn tallies_map() -> &'static Mutex<BTreeMap<&'static str, u64>> {
    static TALLIES: OnceLock<Mutex<BTreeMap<&'static str, u64>>> = OnceLock::new();
    TALLIES.get_or_init(|| Mutex::new(BTreeMap::new()))
}

thread_local! {
    static LOCAL: RefCell<Option<Arc<ThreadBuf>>> = const { RefCell::new(None) };
}

fn record(e: Event) {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            let buf = Arc::new(ThreadBuf {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                ring: Mutex::new(Ring { buf: Vec::new(), head: 0, wrapped: false, dropped: 0 }),
            });
            sink().lock().unwrap().push(Arc::clone(&buf));
            buf
        });
        let mut e = e;
        e.tid = buf.tid;
        buf.ring.lock().unwrap().push(e);
    });
}

// -------------------------------------------------------------- public API

/// Turns tracing on or off (process-global). The recorder epoch is pinned
/// at the first enable so timestamps stay comparable across toggles.
pub fn set_enabled(on: bool) {
    if on {
        epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether tracing is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Microseconds since the recorder epoch. Returns 0 while tracing is
/// disabled (no clock read on the OFF path).
#[inline]
pub fn now_us() -> u64 {
    if !enabled() {
        return 0;
    }
    epoch().elapsed().as_micros() as u64
}

/// RAII wall-clock span: records one `Complete` event on drop. Disarmed
/// (a no-op in and out) while tracing is off.
#[must_use = "a span measures the scope it is bound to"]
pub struct SpanGuard {
    cat: Cat,
    name: &'static str,
    lane: u64,
    start_us: u64,
    armed: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let end = now_us();
        record(Event {
            phase: Phase::Complete,
            cat: self.cat,
            name: self.name,
            ts_us: self.start_us,
            dur_us: end.saturating_sub(self.start_us),
            lane: self.lane,
            tid: 0,
            clock: Clock::Wall,
        });
    }
}

/// Opens a wall-clock span closed when the returned guard drops.
#[inline]
pub fn span(cat: Cat, name: &'static str, lane: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard { cat, name, lane, start_us: 0, armed: false };
    }
    SpanGuard { cat, name, lane, start_us: now_us(), armed: true }
}

/// Records a wall-clock span from explicit endpoints (for intervals whose
/// start and end live in different stack frames, e.g. gateway rounds).
pub fn complete_span(cat: Cat, name: &'static str, lane: u64, start_us: u64, end_us: u64) {
    if !enabled() {
        return;
    }
    record(Event {
        phase: Phase::Complete,
        cat,
        name,
        ts_us: start_us,
        dur_us: end_us.saturating_sub(start_us),
        lane,
        tid: 0,
        clock: Clock::Wall,
    });
}

/// Records a point event on the wall clock.
#[inline]
pub fn instant(cat: Cat, name: &'static str, lane: u64) {
    if !enabled() {
        return;
    }
    record(Event {
        phase: Phase::Instant,
        cat,
        name,
        ts_us: now_us(),
        dur_us: 0,
        lane,
        tid: 0,
        clock: Clock::Wall,
    });
}

/// Records a span on the deterministic virtual clock (serve path), from
/// explicit virtual seconds. Virtual timestamps are derived from the
/// deterministic simulated latencies, so traced virtual spans are
/// identical run to run.
pub fn vt_span(cat: Cat, name: &'static str, lane: u64, vt_start_secs: f64, vt_end_secs: f64) {
    if !enabled() {
        return;
    }
    let ts = (vt_start_secs * 1e6).round().max(0.0) as u64;
    let end = (vt_end_secs * 1e6).round().max(0.0) as u64;
    record(Event {
        phase: Phase::Complete,
        cat,
        name,
        ts_us: ts,
        dur_us: end.saturating_sub(ts),
        lane,
        tid: 0,
        clock: Clock::Virtual,
    });
}

/// Adds to a named global counter. Tallies live beside the event stream
/// (never dropped by ring overwrite) and mirror the engine's own stat
/// fields one-to-one at the increment site — the drift cross-checks
/// compare the two.
#[inline]
pub fn tally(name: &'static str, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    *tallies_map().lock().unwrap().entry(name).or_insert(0) += delta;
}

/// A snapshot of every tally recorded since the last [`clear`].
pub fn tallies() -> BTreeMap<&'static str, u64> {
    tallies_map().lock().unwrap().clone()
}

/// Collects every thread's buffered events into one [`Trace`] (merged in
/// `(ts_us, tid)` order), clearing the buffers. Buffers of threads that
/// have exited are pruned after collection.
pub fn drain() -> Trace {
    let mut events = Vec::new();
    let mut dropped = 0;
    let mut bufs = sink().lock().unwrap();
    for buf in bufs.iter() {
        let (mut evs, d) = buf.ring.lock().unwrap().take();
        events.append(&mut evs);
        dropped += d;
    }
    // A strong count of 1 means only the sink holds the buffer: its
    // thread is gone and it can never receive another event.
    bufs.retain(|b| Arc::strong_count(b) > 1);
    drop(bufs);
    events.sort_by_key(|e| (e.ts_us, e.tid));
    Trace { events, dropped }
}

/// Drops all buffered events and tallies (start of a fresh observation
/// window).
pub fn clear() {
    let _ = drain();
    tallies_map().lock().unwrap().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enable flag is process-global; tests that toggle it serialize
    // on this lock so they cannot observe each other's windows.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn off_path_records_nothing() {
        let _g = guard();
        set_enabled(false);
        clear();
        {
            let _s = span(Cat::Rip, "should-not-appear", 0);
            instant(Cat::Capture, "nor-this", 1);
            vt_span(Cat::Gateway, "nor-this-either", 0, 0.0, 1.0);
            complete_span(Cat::Rip, "silent", 0, 0, 10);
            tally("off.counter", 5);
        }
        let t = drain();
        assert!(t.events.is_empty(), "disabled recorder must buffer nothing");
        assert_eq!(t.dropped, 0);
        assert!(tallies().is_empty(), "disabled recorder must tally nothing");
    }

    #[test]
    fn spans_instants_and_tallies_round_trip() {
        let _g = guard();
        set_enabled(true);
        clear();
        {
            let _outer = span(Cat::Rip, "outer", 7);
            let _inner = span(Cat::Rip, "inner", 7);
            instant(Cat::Capture, "tick", 3);
            tally("unit.count", 2);
            tally("unit.count", 1);
        }
        set_enabled(false);
        let t = drain();
        let names: Vec<&str> = t.events.iter().map(|e| e.name).collect();
        assert!(names.contains(&"outer"));
        assert!(names.contains(&"inner"));
        assert!(names.contains(&"tick"));
        let outer = t.events.iter().find(|e| e.name == "outer").unwrap();
        let inner = t.events.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!(outer.phase, Phase::Complete);
        assert_eq!(outer.lane, 7);
        // Guards drop inner-first, so the inner interval nests inside.
        assert!(inner.ts_us >= outer.ts_us);
        assert!(inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us);
        assert_eq!(tallies().get("unit.count"), Some(&3));
        clear();
    }

    #[test]
    fn virtual_spans_ride_the_virtual_clock() {
        let _g = guard();
        set_enabled(true);
        clear();
        vt_span(Cat::Gateway, "task", 4, 1.5, 3.25);
        set_enabled(false);
        let t = drain();
        let e = t.events.iter().find(|e| e.name == "task").unwrap();
        assert_eq!(e.clock, Clock::Virtual);
        assert_eq!(e.ts_us, 1_500_000);
        assert_eq!(e.dur_us, 1_750_000);
        clear();
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut ring = Ring { buf: Vec::new(), head: 0, wrapped: false, dropped: 0 };
        let ev = |i: u64| Event {
            phase: Phase::Instant,
            cat: Cat::Rip,
            name: "e",
            ts_us: i,
            dur_us: 0,
            lane: i,
            tid: 0,
            clock: Clock::Wall,
        };
        for i in 0..(RING_CAPACITY as u64 + 10) {
            ring.push(ev(i));
        }
        let (events, dropped) = ring.take();
        assert_eq!(events.len(), RING_CAPACITY);
        assert_eq!(dropped, 10);
        assert_eq!(events[0].ts_us, 10, "oldest events were overwritten");
        assert_eq!(events.last().unwrap().ts_us, RING_CAPACITY as u64 + 9);
    }
}
