//! Plain-text table rendering for the experiment harnesses.
//!
//! The per-subsystem reporter lines (`fault_line`, `serve_line`,
//! `store_line`) are views over a [`dmi_obs::Registry`]:
//! each one loads its measurements into typed metrics first and renders
//! with the shared [`dmi_obs::KvLine`] builder, so every line speaks the
//! same `label subject: key=value ...` grammar and the registry remains
//! the single source for derived rates.

use dmi_obs::{KvLine, Registry};

/// Renders a simple aligned table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("| ");
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!("{:<w$} | ", c, w = widths[i]));
        }
        line.trim_end().to_string()
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&render_row(&hdr, &widths));
    out.push('\n');
    out.push_str(&format!(
        "|{}\n",
        widths.iter().map(|w| "-".repeat(w + 2) + "|").collect::<String>()
    ));
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a float to one decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a float to two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// A section banner for bench output.
pub fn banner(title: &str) -> String {
    format!("\n=== {title} ===\n")
}

/// One fault/recovery line for the fleet bench reporter: how the entry's
/// rip concluded and how much state-restoration work it spent (restarts,
/// Esc recoveries).
pub fn fault_line(app: &str, status: &str, restarts: u64, esc_recoveries: u64) -> String {
    let mut reg = Registry::new();
    reg.inc("rip.restarts", restarts);
    reg.inc("rip.esc_recoveries", esc_recoveries);
    KvLine::new("fault-recovery", format_args!("{app} [{status}]"))
        .field("restarts", reg.counter("rip.restarts"))
        .field("esc_recoveries", reg.counter("rip.esc_recoveries"))
        .render()
}

/// One gateway serving line for the serve bench reporter: throughput and
/// latency at a given concurrency, with the session-pool reuse rate that
/// makes the throughput possible.
pub fn serve_line(
    concurrency: usize,
    tasks_per_sec: f64,
    p50_secs: f64,
    p99_secs: f64,
    session_reuse_rate: f64,
    overlap_factor: f64,
) -> String {
    let mut reg = Registry::new();
    reg.set_gauge("gateway.tasks_per_sec", tasks_per_sec);
    reg.set_gauge("gateway.p50_secs", p50_secs);
    reg.set_gauge("gateway.p99_secs", p99_secs);
    reg.set_gauge("gateway.session_reuse_rate", session_reuse_rate);
    reg.set_gauge("gateway.overlap_factor", overlap_factor);
    KvLine::new("serve", format_args!("c={concurrency}"))
        .field("tasks_per_sec", format_args!("{:.3}", reg.gauge("gateway.tasks_per_sec")))
        .secs("p50", reg.gauge("gateway.p50_secs"))
        .secs("p99", reg.gauge("gateway.p99_secs"))
        .pct("session_reuse", reg.gauge("gateway.session_reuse_rate"))
        .field("overlap", format_args!("{:.1}x", reg.gauge("gateway.overlap_factor")))
        .render()
}

/// One persistence line for the store bench reporter: artifact size
/// against the JSON baseline and disk round-trip cost.
pub fn store_line(
    app: &str,
    binary_bytes: u64,
    json_bytes: u64,
    save_ms: f64,
    load_ms: f64,
) -> String {
    let mut reg = Registry::new();
    reg.inc("store.binary_bytes", binary_bytes);
    reg.inc("store.json_bytes", json_bytes);
    reg.set_gauge("store.save_ms", save_ms);
    reg.set_gauge("store.load_ms", load_ms);
    let binary = reg.counter("store.binary_bytes");
    let json = reg.counter("store.json_bytes");
    let ratio = if json == 0 { 0.0 } else { binary as f64 / json as f64 };
    KvLine::new("store", app)
        .field("binary", format_args!("{binary}B"))
        .field("json", format_args!("{json}B"))
        .pct("ratio", ratio)
        .ms("save", reg.gauge("store.save_ms"))
        .ms("load", reg.gauge("store.load_ms"))
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["Interface", "SR"],
            &[vec!["GUI-only".into(), "44.4%".into()], vec!["GUI+DMI".into(), "74.1%".into()]],
        );
        assert!(t.contains("| GUI-only "));
        assert!(t.contains("| 74.1%"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.741), "74.1%");
        assert_eq!(f1(8.157), "8.2");
        assert_eq!(f2(4.611), "4.61");
    }

    #[test]
    fn serve_line_reports_throughput_latency_and_pools() {
        assert_eq!(
            serve_line(64, 1.234, 38.25, 61.71, 0.75, 12.04),
            "serve c=64: tasks_per_sec=1.234 p50=38.2s p99=61.7s session_reuse=75.0% \
             overlap=12.0x"
        );
    }

    #[test]
    fn store_line_reports_size_ratio_times_and_rates() {
        assert_eq!(
            store_line("Word", 48_213, 130_552, 1.2345, 0.876),
            "store Word: binary=48213B json=130552B ratio=36.9% save=1.23ms load=0.88ms"
        );
    }

    #[test]
    fn fault_line_names_engine_and_counters() {
        assert_eq!(
            fault_line("Excel", "ripped", 4, 11),
            "fault-recovery Excel [ripped]: restarts=4 esc_recoveries=11"
        );
    }
}
