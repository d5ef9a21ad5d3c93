//! Plain-text table rendering and JSON persistence for experiment output.

use std::fs;
use std::path::Path;

use tlr_mvm::json::Json;
use tlr_mvm::json_fields;

use crate::wse_experiments::PhaseBreakdownRow;

/// Everything a `repro --trace` run persists under `target/trace/` —
/// the JSON schema documented in DESIGN.md §9.
pub struct TraceArtifact {
    /// The experiment that ran.
    pub experiment: String,
    /// Global trace snapshot across the whole run (spans, counters,
    /// solver iterations, rank histogram).
    pub report: tlr_mvm::trace::TraceReport,
    /// Per-config three-phase breakdown (only populated for `table2`
    /// and `all`).
    pub phase_breakdown: Vec<PhaseBreakdownRow>,
}

impl TraceArtifact {
    /// The artifact as the JSON document of DESIGN.md §9.
    pub fn to_json(&self) -> Json {
        json_fields!(self;
            experiment,
            report => self.report.to_json(),
            phase_breakdown => Json::arr(self.phase_breakdown.iter().map(PhaseBreakdownRow::to_json))
        )
    }
}

/// Render a fixed-width text table.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:>w$}", h, w = widths[i]))
        .collect();
    out.push_str(&header_line.join("  "));
    out.push('\n');
    out.push_str(&"-".repeat(header_line.join("  ").len()));
    out.push('\n');
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        out.push_str(&line.join("  "));
        out.push('\n');
    }
    out
}

/// Write `value` as `<dir>/<name>.json`, creating `dir`: experiment
/// results go to `target/repro`, `--trace` artifacts to `target/trace`
/// (kept apart so CI can upload the observability artifacts on their
/// own).
pub fn write_json(dir: &str, name: &str, value: &Json) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let path = Path::new(dir).join(format!("{name}.json"));
    fs::write(path, value.to_pretty())
}

/// Format bytes with a binary-ish human suffix used in the tables.
pub fn fmt_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "kB", "MB", "GB", "TB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1000.0 && u < UNITS.len() - 1 {
        v /= 1000.0;
        u += 1;
    }
    format!("{v:.2} {}", UNITS[u])
}

/// Format a bandwidth in PB/s.
pub fn fmt_pbs(bps: f64) -> String {
    format!("{:.2} PB/s", bps / 1e15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let s = render_table(
            "T",
            &["a", "long_header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(s.contains("== T =="));
        assert!(s.contains("long_header"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(500), "500.00 B");
        assert_eq!(fmt_bytes(1_500_000), "1.50 MB");
        assert_eq!(fmt_bytes(113_000_000_000), "113.00 GB");
    }
}
