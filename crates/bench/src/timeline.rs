//! Chrome Trace Event export: turn a [`tlr_mvm::trace::TraceReport`]
//! into a `*.timeline.json` loadable in `ui.perfetto.dev` (or
//! `chrome://tracing`).
//!
//! The export renders two process groups:
//!
//! * **pid 1 — host wall clock**: one track (tid) per span label, with
//!   one complete `"X"` event per recorded [`tlr_mvm::trace::SpanEvent`]
//!   (`ts`/`dur` in microseconds, measured from the trace epoch). This
//!   is real measured time on the machine that ran `repro`.
//! * **pid 2 — WSE simulator (modeled)**: one track per
//!   `wse.pe_group.cl{cl}_w{w}` phase, with a single `"X"` event whose
//!   duration is the group's modeled cycle total divided by the CS-2
//!   clock — the *predicted* on-wafer time, annotated with cycles,
//!   resident SRAM bytes, and PE count in `args`. These tracks all start
//!   at `ts = 0`: the model has no schedule, only per-group totals.
//!
//! Track names arrive via `"M"` (metadata) events, exactly as the Trace
//! Event format specifies. Serialization goes through [`tlr_mvm::json`],
//! so the artifact round-trips through this repo's own parser (the
//! schema test in `tests/perf.rs` relies on that).

use std::io;
use std::path::{Path, PathBuf};

use tlr_mvm::json::Json;
use tlr_mvm::trace::TraceReport;

/// Trace Event `pid` for measured host-side spans.
pub const HOST_PID: u64 = 1;
/// Trace Event `pid` for modeled WSE-simulator tracks.
pub const WSE_PID: u64 = 2;

/// Phase-name prefix that selects the simulator PE-group tracks.
pub const PE_GROUP_PREFIX: &str = "wse.pe_group.";

/// One Chrome Trace Event, pre-serialization.
#[derive(Clone, Debug)]
pub struct TimelineEvent {
    /// Event name (span label, phase name, or metadata kind).
    pub name: String,
    /// Event category shown by the viewer (`host` / `wse_model` /
    /// `__metadata`).
    pub cat: &'static str,
    /// Trace Event phase type: `"X"` (complete) or `"M"` (metadata).
    pub ph: &'static str,
    /// Timestamp in microseconds from the trace epoch.
    pub ts_us: f64,
    /// Duration in microseconds (`"X"` events only).
    pub dur_us: Option<f64>,
    /// Process id (track group).
    pub pid: u64,
    /// Thread id (track within the group).
    pub tid: u64,
    /// Extra key/value payload rendered by the viewer.
    pub args: Vec<(&'static str, Json)>,
}

impl TimelineEvent {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", self.name.as_str().into()),
            ("cat", self.cat.into()),
            ("ph", self.ph.into()),
            ("ts", self.ts_us.into()),
            ("pid", self.pid.into()),
            ("tid", self.tid.into()),
        ];
        if let Some(dur) = self.dur_us {
            fields.insert(4, ("dur", dur.into()));
        }
        if !self.args.is_empty() {
            fields.push(("args", Json::obj(self.args.iter().cloned())));
        }
        Json::obj(fields)
    }
}

fn metadata(name: &'static str, pid: u64, tid: u64, label: &str) -> TimelineEvent {
    TimelineEvent {
        name: name.to_string(),
        cat: "__metadata",
        ph: "M",
        ts_us: 0.0,
        dur_us: None,
        pid,
        tid,
        args: vec![("name", label.into())],
    }
}

/// Build the full event list for a trace report.
///
/// `clock_hz` converts the simulator's modeled cycle counts into modeled
/// wall time for the pid-2 tracks (use
/// [`wse_sim::Cs2Config::default`]'s `clock_hz` for CS-2 numbers).
pub fn build_timeline(report: &TraceReport, clock_hz: f64) -> Vec<TimelineEvent> {
    let mut events = Vec::new();

    // ---- pid 1: measured host spans, one tid per label ----
    let mut labels: Vec<&str> = report.span_events.iter().map(|e| e.name.as_str()).collect();
    labels.sort_unstable();
    labels.dedup();
    events.push(metadata("process_name", HOST_PID, 0, "host wall clock"));
    for (i, label) in labels.iter().enumerate() {
        let tid = i as u64 + 1;
        events.push(metadata("thread_name", HOST_PID, tid, label));
    }
    for span in &report.span_events {
        // Labels are sorted+deduped above, so the lookup always hits;
        // fall back to tid 0 rather than panicking if it ever doesn't.
        let tid = labels
            .binary_search(&span.name.as_str())
            .map_or(0, |i| i as u64 + 1);
        events.push(TimelineEvent {
            name: span.name.clone(),
            cat: "host",
            ph: "X",
            ts_us: span.start_ns as f64 / 1e3,
            dur_us: Some((span.dur_ns.max(1)) as f64 / 1e3),
            pid: HOST_PID,
            tid,
            args: Vec::new(),
        });
    }

    // ---- pid 2: modeled WSE PE-group tracks ----
    let groups: Vec<_> = report
        .phases
        .iter()
        .filter(|p| p.name.starts_with(PE_GROUP_PREFIX))
        .collect();
    if !groups.is_empty() {
        events.push(metadata(
            "process_name",
            WSE_PID,
            0,
            "WSE simulator (modeled)",
        ));
    }
    for (i, group) in groups.iter().enumerate() {
        let tid = i as u64 + 1;
        events.push(metadata("thread_name", WSE_PID, tid, &group.name));
        let dur_us = if clock_hz > 0.0 {
            (group.stats.cycles as f64 / clock_hz) * 1e6
        } else {
            0.0
        };
        events.push(TimelineEvent {
            name: group.name.clone(),
            cat: "wse_model",
            ph: "X",
            ts_us: 0.0,
            dur_us: Some(dur_us.max(1e-3)),
            pid: WSE_PID,
            tid,
            args: vec![
                ("cycles", group.stats.cycles.into()),
                ("sram_bytes", group.stats.sram_bytes.into()),
                ("pes", group.stats.iterations.into()),
            ],
        });
    }

    events
}

/// Wrap events in the Trace Event container object.
pub fn timeline_json(experiment: &str, events: &[TimelineEvent]) -> Json {
    let other = Json::obj([
        ("experiment", experiment.into()),
        ("generator", "repro --timeline".into()),
    ]);
    Json::obj([
        (
            "traceEvents",
            Json::arr(events.iter().map(TimelineEvent::to_json)),
        ),
        ("displayTimeUnit", "ms".into()),
        ("otherData", other),
    ])
}

/// Render a report and write it to
/// `target/trace/<experiment>.timeline.json`; returns the path written.
pub fn write_timeline(
    experiment: &str,
    report: &TraceReport,
    clock_hz: f64,
) -> io::Result<PathBuf> {
    let doc = timeline_json(experiment, &build_timeline(report, clock_hz));
    let dir = Path::new("target/trace");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{experiment}.timeline.json"));
    std::fs::write(&path, doc.to_pretty())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr_mvm::trace::{PhaseEntry, PhaseStats, SpanEvent};

    fn sample_report() -> TraceReport {
        TraceReport {
            phases: vec![
                PhaseEntry {
                    name: "tlr_mvm.v_batch".to_string(),
                    stats: PhaseStats {
                        calls: 2,
                        nanos: 5_000,
                        ..Default::default()
                    },
                },
                PhaseEntry {
                    name: "wse.pe_group.cl16_w4".to_string(),
                    stats: PhaseStats {
                        cycles: 8_500,
                        sram_bytes: 4_096,
                        iterations: 12,
                        ..Default::default()
                    },
                },
            ],
            span_events: vec![
                SpanEvent {
                    name: "tlr_mvm.v_batch".to_string(),
                    start_ns: 1_000,
                    dur_ns: 2_500,
                },
                SpanEvent {
                    name: "tlr_mvm.v_batch".to_string(),
                    start_ns: 4_000,
                    dur_ns: 2_500,
                },
            ],
            ..Default::default()
        }
    }

    #[test]
    fn host_and_wse_tracks_are_emitted() {
        let events = build_timeline(&sample_report(), 850.0e6);
        // One host X event per span event.
        let host_x: Vec<_> = events
            .iter()
            .filter(|e| e.ph == "X" && e.pid == HOST_PID)
            .collect();
        assert_eq!(host_x.len(), 2);
        assert!((host_x[0].ts_us - 1.0).abs() < 1e-9);
        assert_eq!(host_x[0].dur_us, Some(2.5));
        // One modeled track for the PE group: 8 500 cycles at 850 MHz
        // is exactly 10 µs.
        let wse_x: Vec<_> = events
            .iter()
            .filter(|e| e.ph == "X" && e.pid == WSE_PID)
            .collect();
        assert_eq!(wse_x.len(), 1);
        assert_eq!(wse_x[0].dur_us, Some(10.0));
        // Both processes and every track are named via metadata events.
        let meta_names: Vec<_> = events
            .iter()
            .filter(|e| e.ph == "M")
            .map(|e| (e.pid, e.tid))
            .collect();
        assert!(meta_names.contains(&(HOST_PID, 0)));
        assert!(meta_names.contains(&(WSE_PID, 1)));
    }

    #[test]
    fn container_document_roundtrips() {
        let events = build_timeline(&sample_report(), 850.0e6);
        let doc = timeline_json("table2", &events);
        let text = doc.to_pretty();
        let back = Json::parse(&text).expect("parse own timeline");
        let list = back
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        assert_eq!(list.len(), events.len());
        for ev in list {
            assert!(ev.get("ph").and_then(Json::as_str).is_some());
            assert!(ev.get("ts").and_then(Json::as_f64).is_some());
            assert!(ev.get("pid").and_then(Json::as_u64).is_some());
            assert!(ev.get("tid").and_then(Json::as_u64).is_some());
        }
    }

    #[test]
    fn empty_report_still_valid() {
        let events = build_timeline(&TraceReport::default(), 850.0e6);
        // Just the host process_name metadata row.
        assert!(events.iter().all(|e| e.ph == "M"));
        let doc = timeline_json("empty", &events);
        assert!(Json::parse(&doc.to_pretty()).is_ok());
    }
}
