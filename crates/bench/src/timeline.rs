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
use tlr_mvm::telemetry::{EventKind, FlightEvent};
use tlr_mvm::trace::TraceReport;

/// Trace Event `pid` for measured host-side spans.
pub const HOST_PID: u64 = 1;
/// Trace Event `pid` for modeled WSE-simulator tracks.
pub const WSE_PID: u64 = 2;
/// Trace Event `pid` for the MDD engine's flight-recorder tracks: one
/// tid per worker plus a submission track, with flow arrows
/// (submit→steal→exec) linking each job's causal chain.
pub const ENGINE_PID: u64 = 3;

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
    /// Flow-event id (`"s"`/`"t"`/`"f"` events): all events of one
    /// flow share it. `None` for ordinary slices and metadata.
    pub id: Option<u64>,
    /// Flow binding point (`"e"` on a `"f"` event binds the arrow to
    /// the enclosing slice). `None` otherwise.
    pub bp: Option<&'static str>,
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
        if let Some(id) = self.id {
            fields.push(("id", id.into()));
        }
        if let Some(bp) = self.bp {
            fields.push(("bp", bp.into()));
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
        id: None,
        bp: None,
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
            id: None,
            bp: None,
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
            id: None,
            bp: None,
            args: vec![
                ("cycles", group.stats.cycles.into()),
                ("sram_bytes", group.stats.sram_bytes.into()),
                ("pes", group.stats.iterations.into()),
            ],
        });
    }

    events
}

/// Accumulated lifecycle of one engine job while grouping flight events.
#[derive(Default)]
struct JobTrace {
    submit_ns: Option<u64>,
    submit_ring: u64,
    start_ns: Option<u64>,
    exec_ring: u64,
    exec_ns: u64,
    finish_ns: Option<u64>,
    stolen_ns: Option<u64>,
    thief_ring: u64,
}

/// Build the pid-3 engine tracks from a flight-recorder drain: one tid
/// per worker ring plus the submission (external) ring, a queued slice
/// and an exec slice per completed job, and a `"s"`→(`"t"`)→`"f"` flow
/// chain (id = job id) linking submit→steal→exec so Perfetto draws the
/// causal arrow across tracks.
///
/// `workers` names the first `workers` rings; ring `workers` is the
/// submission track. Jobs missing any of submit/start/finish (still in
/// flight, or overwritten in a wrapped ring) are skipped.
pub fn engine_track_events(flight: &[FlightEvent], workers: usize) -> Vec<TimelineEvent> {
    let mut jobs: Vec<(u64, JobTrace)> = Vec::new();
    let trace_for = |id: u64, jobs: &mut Vec<(u64, JobTrace)>| -> usize {
        match jobs.iter().position(|(j, _)| *j == id) {
            Some(i) => i,
            None => {
                jobs.push((id, JobTrace::default()));
                jobs.len() - 1
            }
        }
    };
    for e in flight {
        match e.kind {
            EventKind::JobSubmitted => {
                let i = trace_for(e.a, &mut jobs);
                jobs[i].1.submit_ns = Some(e.ts_ns);
                jobs[i].1.submit_ring = e.ring;
            }
            EventKind::JobStolen => {
                let i = trace_for(e.a, &mut jobs);
                jobs[i].1.stolen_ns = Some(e.ts_ns);
                jobs[i].1.thief_ring = e.ring;
            }
            EventKind::JobStarted => {
                let i = trace_for(e.a, &mut jobs);
                jobs[i].1.start_ns = Some(e.ts_ns);
                jobs[i].1.exec_ring = e.ring;
            }
            EventKind::JobFinished => {
                let i = trace_for(e.a, &mut jobs);
                jobs[i].1.finish_ns = Some(e.ts_ns);
                jobs[i].1.exec_ns = e.b;
            }
        }
    }
    jobs.retain(|(_, t)| t.submit_ns.is_some() && t.start_ns.is_some() && t.finish_ns.is_some());
    let mut events = Vec::new();
    if jobs.is_empty() {
        return events;
    }
    events.push(metadata(
        "process_name",
        ENGINE_PID,
        0,
        "MDD engine (flight recorder)",
    ));
    for w in 0..workers {
        let tid = w as u64 + 1;
        events.push(metadata(
            "thread_name",
            ENGINE_PID,
            tid,
            &format!("worker {w}"),
        ));
    }
    events.push(metadata(
        "thread_name",
        ENGINE_PID,
        workers as u64 + 1,
        "submit",
    ));
    for (id, t) in &jobs {
        let (submit_ns, start_ns, finish_ns) = match (t.submit_ns, t.start_ns, t.finish_ns) {
            (Some(s), Some(b), Some(f)) => (s, b, f),
            _ => continue,
        };
        let submit_tid = t.submit_ring + 1;
        let exec_tid = t.exec_ring + 1;
        // Queued slice on the submission track: submit → dequeue.
        events.push(TimelineEvent {
            name: format!("job {id} queued"),
            cat: "engine",
            ph: "X",
            ts_us: submit_ns as f64 / 1e3,
            dur_us: Some((start_ns.saturating_sub(submit_ns).max(1)) as f64 / 1e3),
            pid: ENGINE_PID,
            tid: submit_tid,
            id: None,
            bp: None,
            args: Vec::new(),
        });
        events.push(TimelineEvent {
            name: format!("job {id}"),
            cat: "engine",
            ph: "s",
            ts_us: submit_ns as f64 / 1e3,
            dur_us: None,
            pid: ENGINE_PID,
            tid: submit_tid,
            id: Some(*id),
            bp: None,
            args: Vec::new(),
        });
        if let Some(stolen_ns) = t.stolen_ns {
            events.push(TimelineEvent {
                name: format!("job {id}"),
                cat: "engine",
                ph: "t",
                ts_us: stolen_ns as f64 / 1e3,
                dur_us: None,
                pid: ENGINE_PID,
                tid: t.thief_ring + 1,
                id: Some(*id),
                bp: None,
                args: Vec::new(),
            });
        }
        // Exec slice on the worker track; the flow lands inside it.
        let exec_dur_ns = if t.exec_ns > 0 {
            t.exec_ns
        } else {
            finish_ns.saturating_sub(start_ns)
        };
        events.push(TimelineEvent {
            name: format!("job {id} exec"),
            cat: "engine",
            ph: "X",
            ts_us: start_ns as f64 / 1e3,
            dur_us: Some((exec_dur_ns.max(1)) as f64 / 1e3),
            pid: ENGINE_PID,
            tid: exec_tid,
            id: None,
            bp: None,
            args: vec![("stolen", t.stolen_ns.is_some().into())],
        });
        events.push(TimelineEvent {
            name: format!("job {id}"),
            cat: "engine",
            ph: "f",
            ts_us: start_ns as f64 / 1e3,
            dur_us: None,
            pid: ENGINE_PID,
            tid: exec_tid,
            id: Some(*id),
            bp: Some("e"),
            args: Vec::new(),
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
    write_timeline_events(experiment, &build_timeline(report, clock_hz))
}

/// Write a prebuilt event list (e.g. [`build_timeline`] output plus
/// [`engine_track_events`]) to `target/trace/<experiment>.timeline.json`.
pub fn write_timeline_events(experiment: &str, events: &[TimelineEvent]) -> io::Result<PathBuf> {
    let doc = timeline_json(experiment, events);
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

    fn fe(ring: u64, ts_ns: u64, kind: EventKind, a: u64, b: u64) -> FlightEvent {
        FlightEvent {
            ring,
            ts_ns,
            kind,
            a,
            b,
        }
    }

    #[test]
    fn engine_tracks_link_submit_steal_exec_with_flows() {
        // Two workers (rings 0/1), submission ring 2. Job 0 runs where it
        // was queued; job 1 is stolen by worker 1.
        let flight = vec![
            fe(2, 1_000, EventKind::JobSubmitted, 0, 1),
            fe(2, 2_000, EventKind::JobSubmitted, 1, 2),
            fe(0, 5_000, EventKind::JobStarted, 0, 4_000),
            fe(1, 6_000, EventKind::JobStolen, 1, 0),
            fe(1, 7_000, EventKind::JobStarted, 1, 5_000),
            fe(0, 9_000, EventKind::JobFinished, 0, 4_000),
            fe(1, 10_000, EventKind::JobFinished, 1, 3_000),
            // In-flight job: submitted but never finished — skipped.
            fe(2, 11_000, EventKind::JobSubmitted, 2, 1),
        ];
        let events = engine_track_events(&flight, 2);
        let flows_s: Vec<_> = events.iter().filter(|e| e.ph == "s").collect();
        let flows_t: Vec<_> = events.iter().filter(|e| e.ph == "t").collect();
        let flows_f: Vec<_> = events.iter().filter(|e| e.ph == "f").collect();
        assert_eq!(flows_s.len(), 2, "one flow start per completed job");
        assert_eq!(flows_t.len(), 1, "one steal step for the stolen job");
        assert_eq!(flows_f.len(), 2);
        assert!(flows_f.iter().all(|e| e.bp == Some("e")));
        assert!(flows_s.iter().all(|e| e.tid == 3), "starts on submit track");
        assert_eq!(flows_t[0].id, Some(1));
        // Exec slices land on the executing worker's track with the
        // recorder-reported duration.
        let execs: Vec<_> = events
            .iter()
            .filter(|e| e.ph == "X" && e.name.ends_with("exec"))
            .collect();
        assert_eq!(execs.len(), 2);
        assert_eq!(execs[0].tid, 1);
        assert_eq!(execs[0].dur_us, Some(4.0));
        assert_eq!(execs[1].tid, 2);
        assert_eq!(execs[1].dur_us, Some(3.0));
        // The flow id round-trips through serialization.
        let doc = timeline_json("serve-sim", &events);
        let back = Json::parse(&doc.to_pretty()).expect("parse engine timeline");
        let list = back.get("traceEvents").and_then(Json::as_arr).unwrap();
        let with_id = list
            .iter()
            .filter(|e| e.get("id").and_then(Json::as_u64).is_some())
            .count();
        assert_eq!(with_id, 5, "s+t+f events carry the flow id");
        // No trace for incomplete job 2.
        assert!(!events.iter().any(|e| e.name.contains("job 2")));
    }

    #[test]
    fn engine_tracks_for_no_completed_jobs_are_empty() {
        let flight = vec![fe(1, 10, EventKind::JobSubmitted, 0, 1)];
        assert!(engine_track_events(&flight, 1).is_empty());
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
