//! Integration tests for the performance-telemetry subsystem: latency
//! histogram percentile math (exact synthetic fills + property-based
//! monotonicity), the Chrome Trace Event timeline schema, and the
//! `BENCH_*.json` regression gate's failure path.
//!
//! Tests that open a trace window hold `TRACE_LOCK`, like `tests/trace.rs`.

use std::sync::Mutex;

use proptest::prelude::*;
use seismic_bench::perf::{compare_reports, BenchReport, RATIO_ROWS};
use seismic_bench::timeline::{build_timeline, timeline_json, HOST_PID, WSE_PID};
use seismic_bench::wse_experiments::traced_timeline_sample;
use tlr_mvm::json::Json;
use tlr_mvm::trace::{self, LatencyBucket, LatencyEntry};

static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    seismic_la::sync::lock(&TRACE_LOCK)
}

fn entry(buckets: &[(u64, u64)]) -> LatencyEntry {
    LatencyEntry {
        name: "synthetic".to_string(),
        count: buckets.iter().map(|&(_, c)| c).sum(),
        p50_ns: 0,
        p95_ns: 0,
        p99_ns: 0,
        buckets: buckets
            .iter()
            .map(|&(floor_ns, count)| LatencyBucket { floor_ns, count })
            .collect(),
    }
}

/// Exact nearest-rank results on a hand-computable fill: 50 spans in the
/// 0-bucket, 45 in the 1024-bucket, 5 in the 4096-bucket.
#[test]
fn percentiles_exact_on_synthetic_fill() {
    let e = entry(&[(0, 50), (1024, 45), (4096, 5)]);
    assert_eq!(e.count, 100);
    // rank(0.50) = 50 → still inside the first bucket.
    assert_eq!(e.percentile_ns(0.50), 0);
    // rank(0.95) = 95 → cumulative 50+45 exactly covers it.
    assert_eq!(e.percentile_ns(0.95), 1024);
    // rank(0.99) = 99 → only the last bucket reaches it.
    assert_eq!(e.percentile_ns(0.99), 4096);
    // Extremes: q=0 clamps to rank 1, q=1 is the max bucket.
    assert_eq!(e.percentile_ns(0.0), 0);
    assert_eq!(e.percentile_ns(1.0), 4096);
}

#[test]
fn percentiles_degenerate_cases() {
    // Single observation: every percentile is its exact bucket floor
    // (documented behavior, never an interpolated midpoint).
    let one = entry(&[(2048, 1)]);
    for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
        assert_eq!(one.percentile_ns(q), 2048);
    }
    // Empty: the documented "no data" sentinel, for every q.
    let none = entry(&[]);
    for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
        assert_eq!(none.percentile_ns(q), trace::LATENCY_EMPTY_SENTINEL);
    }
    // Out-of-range q clamps instead of panicking.
    let e = entry(&[(0, 3), (8, 1)]);
    assert_eq!(e.percentile_ns(-1.0), e.percentile_ns(0.0));
    assert_eq!(e.percentile_ns(2.0), e.percentile_ns(1.0));
}

/// The percentiles a live snapshot precomputes must match recomputing
/// them from the serialized buckets, and be ordered p50 ≤ p95 ≤ p99.
#[test]
fn snapshot_percentiles_match_bucket_recomputation() {
    let _g = locked();
    trace::reset();
    trace::set_enabled(true);
    for i in 0..40u64 {
        let _s = trace::span("perf.it.span");
        if i % 8 == 0 {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }
    trace::set_enabled(false);
    let rep = trace::snapshot();
    let e = rep.latency_for("perf.it.span").expect("histogram recorded");
    assert_eq!(e.count, 40);
    assert_eq!(e.p50_ns, e.percentile_ns(0.50));
    assert_eq!(e.p95_ns, e.percentile_ns(0.95));
    assert_eq!(e.p99_ns, e.percentile_ns(0.99));
    assert!(e.p50_ns <= e.p95_ns && e.p95_ns <= e.p99_ns);
}

proptest! {
    /// Nearest-rank percentiles over log2 buckets are monotone in q for
    /// any occupancy pattern.
    #[test]
    fn percentiles_are_monotone(
        c0 in 0u64..500,
        c1 in 0u64..500,
        c2 in 0u64..500,
        c3 in 0u64..500,
    ) {
        let e = entry(&[(0, c0), (64, c1), (4096, c2), (1 << 20, c3)]);
        let p50 = e.percentile_ns(0.50);
        let p95 = e.percentile_ns(0.95);
        let p99 = e.percentile_ns(0.99);
        prop_assert!(p50 <= p95, "p50 {p50} > p95 {p95}");
        prop_assert!(p95 <= p99, "p95 {p95} > p99 {p99}");
        // Every result is a bucket floor, or the documented sentinel
        // when the histogram is empty.
        for p in [p50, p95, p99] {
            if e.count == 0 {
                prop_assert!(p == trace::LATENCY_EMPTY_SENTINEL);
            } else {
                prop_assert!(p == 0 || p == 64 || p == 4096 || p == 1 << 20);
            }
        }
    }
}

/// The acceptance-criterion schema test: the timeline document carries
/// `ph`/`ts`/`dur`/`pid`/`tid` on every complete event, one host track
/// per TLR-MVM phase, and one modeled track per WSE PE group — built
/// from a real traced run of the sample the `--timeline` flag uses.
#[test]
fn timeline_schema_covers_all_tracks() {
    let _g = locked();
    trace::reset();
    trace::set_enabled(true);
    traced_timeline_sample();
    trace::set_enabled(false);
    let rep = trace::snapshot();

    let clock_hz = wse_sim::Cs2Config::default().clock_hz;
    let events = build_timeline(&rep, clock_hz);
    let text = timeline_json("test", &events).to_pretty();
    let doc = Json::parse(&text).expect("timeline parses with the repo's own parser");
    let list = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!list.is_empty());

    let mut host_names = Vec::new();
    let mut wse_names = Vec::new();
    for ev in list {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
        assert!(ph == "X" || ph == "M", "unexpected phase type {ph}");
        assert!(ev.get("ts").and_then(Json::as_f64).is_some(), "ts");
        let pid = ev.get("pid").and_then(Json::as_u64).expect("pid");
        assert!(ev.get("tid").and_then(Json::as_u64).is_some(), "tid");
        if ph == "X" {
            assert!(
                ev.get("dur").and_then(Json::as_f64).expect("dur on X") > 0.0,
                "complete events carry a positive duration"
            );
            let name = ev.get("name").and_then(Json::as_str).expect("name");
            if pid == HOST_PID {
                host_names.push(name.to_string());
            } else if pid == WSE_PID {
                wse_names.push(name.to_string());
            }
        }
    }
    for phase in ["tlr_mvm.v_batch", "tlr_mvm.shuffle", "tlr_mvm.u_batch"] {
        assert!(
            host_names.iter().any(|n| n == phase),
            "missing host track for {phase}; got {host_names:?}"
        );
    }
    assert!(
        wse_names.iter().any(|n| n.starts_with("wse.pe_group.")),
        "missing modeled PE-group tracks; got {wse_names:?}"
    );
    // Every modeled PE-group phase in the report got its own track.
    let group_phases = rep
        .phases
        .iter()
        .filter(|p| p.name.starts_with("wse.pe_group."))
        .count();
    assert!(group_phases >= 1);
    assert_eq!(wse_names.len(), group_phases);
}

/// End-to-end gate failure after a JSON round-trip: against the exact
/// projection of a real run a flipped checksum is rejected naming that
/// kernel, and an over-ceiling ratio is rejected naming that row.
#[test]
fn gate_rejects_flipped_checksum_and_over_ceiling_ratio_after_json_roundtrip() {
    let _g = locked();
    let run = seismic_bench::perf::run_perfbench(1);
    let reparse = |r: &BenchReport| BenchReport::parse(&r.to_json().to_pretty()).expect("parses");
    let baseline = reparse(&run.exact_projection());
    assert_eq!(reparse(&run), run);
    assert!(!compare_reports(&baseline, &baseline).failed());

    let mut forged = baseline.clone();
    forged.kernels[2].trace_checksum ^= 1;
    let out = compare_reports(&baseline, &reparse(&forged));
    assert_eq!(out.failing(), vec![baseline.kernels[2].name.as_str()]);

    for row in RATIO_ROWS {
        let Some(ceiling) = row.ceiling else { continue };
        let slow = reparse(&row.synthetic_run(1.01 * ceiling));
        let out = compare_reports(&reparse(&slow.exact_projection()), &slow);
        assert_eq!(out.failing(), vec![row.name().as_str()]);
    }
}
