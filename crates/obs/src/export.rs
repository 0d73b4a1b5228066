//! Trace exporters: Chrome trace-event JSON and a plain-text hierarchical
//! summary.
//!
//! The Chrome export emits a flat JSON array of trace events loadable in
//! Perfetto / `chrome://tracing`: `Complete` spans as `"X"` events,
//! instants as `"i"`, plus `"M"` metadata naming the two pseudo-processes
//! — pid 1 is the wall-clock timeline, pid 2 the deterministic virtual
//! timeline (serve path). Thread ids are the recorder's stable per-thread
//! ids.
//!
//! The text summary aggregates events by `category.name`: count, total
//! and mean duration, ordered deterministically.

use crate::recorder::{Cat, Clock, Phase, Trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes a string into a JSON string literal (names are static and
/// ASCII by convention, but the exporter never trusts that).
fn json_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Trace {
    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total duration (µs) of all `Complete` spans whose name starts with
    /// `prefix`, optionally filtered by category.
    pub fn total_dur_us(&self, cat: Option<Cat>, prefix: &str) -> u64 {
        self.events
            .iter()
            .filter(|e| e.phase == Phase::Complete)
            .filter(|e| cat.is_none_or(|c| e.cat == c))
            .filter(|e| e.name.starts_with(prefix))
            .map(|e| e.dur_us)
            .sum()
    }

    /// Number of events whose name starts with `prefix`, optionally
    /// filtered by category.
    pub fn count(&self, cat: Option<Cat>, prefix: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.cat == cat.unwrap_or(e.cat) && e.name.starts_with(prefix))
            .count()
    }

    /// Renders the trace as a Chrome trace-event JSON array (load in
    /// Perfetto or `chrome://tracing`).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push('[');
        // Pseudo-process metadata: one timeline per clock.
        for (pid, label) in [(1u32, "wall-clock"), (2u32, "virtual-time")] {
            if pid == 2 && !self.events.iter().any(|e| e.clock == Clock::Virtual) {
                continue;
            }
            if out.len() > 1 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":"
            );
            json_str(label, &mut out);
            out.push_str("}}");
        }
        for e in &self.events {
            out.push(',');
            out.push_str("{\"name\":");
            json_str(e.name, &mut out);
            out.push_str(",\"cat\":");
            json_str(e.cat.as_str(), &mut out);
            let (ph, pid) = match (e.phase, e.clock) {
                (Phase::Complete, Clock::Wall) => ("X", 1),
                (Phase::Complete, Clock::Virtual) => ("X", 2),
                (Phase::Instant, Clock::Wall) => ("i", 1),
                (Phase::Instant, Clock::Virtual) => ("i", 2),
            };
            let _ =
                write!(out, ",\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{},\"ts\":{}", e.tid, e.ts_us);
            if e.phase == Phase::Complete {
                let _ = write!(out, ",\"dur\":{}", e.dur_us);
            }
            if e.phase == Phase::Instant {
                out.push_str(",\"s\":\"t\"");
            }
            let _ = write!(out, ",\"args\":{{\"lane\":{}}}}}", e.lane);
        }
        out.push(']');
        out
    }

    /// Renders a plain-text hierarchical summary: per `category.name`
    /// aggregates (count, total ms, mean µs) and the dropped-event count
    /// when the rings overflowed.
    pub fn text_summary(&self) -> String {
        #[derive(Default)]
        struct Agg {
            count: u64,
            total_us: u64,
        }
        let mut by_key: BTreeMap<(&'static str, &'static str), Agg> = BTreeMap::new();
        for e in &self.events {
            let a = by_key.entry((e.cat.as_str(), e.name)).or_default();
            a.count += 1;
            a.total_us += e.dur_us;
        }
        let mut out = String::from("trace summary\n");
        let mut last_cat = "";
        for ((cat, name), a) in &by_key {
            if *cat != last_cat {
                let _ = writeln!(out, "  {cat}");
                last_cat = cat;
            }
            let mean = a.total_us.checked_div(a.count).unwrap_or(0);
            let _ = writeln!(
                out,
                "    {name:<24} count={:<8} total={:.3}ms mean={}us",
                a.count,
                a.total_us as f64 / 1e3,
                mean
            );
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "  ({} events dropped by ring overwrite)", self.dropped);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Event;

    fn ev(phase: Phase, cat: Cat, name: &'static str, ts: u64, dur: u64, clock: Clock) -> Event {
        Event { phase, cat, name, ts_us: ts, dur_us: dur, lane: 1, tid: 3, clock }
    }

    fn sample() -> Trace {
        Trace {
            events: vec![
                ev(Phase::Complete, Cat::Rip, "rip.sequential", 10, 50, Clock::Wall),
                ev(Phase::Complete, Cat::Capture, "rebuild", 20, 30, Clock::Wall),
                ev(Phase::Instant, Cat::Capture, "pool_hit", 25, 0, Clock::Wall),
                ev(Phase::Complete, Cat::Gateway, "task", 0, 2_000_000, Clock::Virtual),
                ev(Phase::Complete, Cat::Capture, "rebuild", 60, 40, Clock::Wall),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn chrome_json_is_a_valid_event_array() {
        let json = sample().to_chrome_json();
        let v = serde_json::parse_value(&json).expect("export must be valid JSON");
        let arr = v.as_array().expect("top level is an array");
        // 2 metadata + 5 events.
        assert_eq!(arr.len(), 7);
        for e in arr {
            let o = e.as_object().expect("every trace event is an object");
            assert!(o.get("name").is_some());
            assert!(o.get("ph").is_some());
            assert!(o.get("pid").is_some());
        }
        let task = arr
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("task"))
            .expect("virtual task span exported");
        assert_eq!(task.get("pid").and_then(|p| p.as_u64()), Some(2), "virtual clock is pid 2");
        assert_eq!(task.get("dur").and_then(|d| d.as_u64()), Some(2_000_000));
    }

    #[test]
    fn summary_aggregates_by_category_and_name() {
        let s = sample().text_summary();
        assert!(s.contains("  capture\n"), "categories head their groups: {s}");
        assert!(
            s.contains("rebuild                  count=2        total=0.070ms mean=35us"),
            "{s}"
        );
        assert!(s.contains("rip.sequential"), "{s}");
        assert!(!s.contains("dropped"), "no drop line without overflow: {s}");
    }

    #[test]
    fn prefix_totals_filter_by_category() {
        let t = sample();
        assert_eq!(t.total_dur_us(Some(Cat::Capture), "rebuild"), 30 + 40);
        assert_eq!(t.total_dur_us(Some(Cat::Rip), "rebuild"), 0);
        assert_eq!(t.total_dur_us(None, ""), 50 + 30 + 2_000_000 + 40);
        assert_eq!(t.count(Some(Cat::Capture), "pool"), 1);
    }
}
