//! `repro serve-sim` — a closed-loop synthetic serving load against the
//! batched multi-frequency engine (DESIGN.md §13).
//!
//! The simulator walks a monotone offered-QPS ladder. At each rung it
//! fetches the operator stack through the [`OperatorCache`] (the first
//! rung builds, later rungs hit), paces job submissions at the offered
//! rate, and drains every job before moving on. The generator is
//! *closed-loop*: it submits through [`Engine::submit`], whose
//! backpressure blocks the arrival process once `queue_depth` jobs are
//! in flight — past saturation the achieved rate flattens below the
//! offered rate instead of growing an unbounded queue.
//!
//! Per-stage latency (queue wait, execution, end-to-end) comes from the
//! `tlr_mvm::trace` latency histograms the engine feeds
//! (`engine.queue_wait`, `engine.exec_mvm`, `engine.job_total`), so the
//! p50/p95/p99 columns here reconcile with `--trace` output by
//! construction. The run **owns the global trace collector** — like
//! `perfbench`, call it outside any `--trace` window.
//!
//! The synthetic load is deterministic: job inputs are fixed
//! trigonometric fills varied per job index, never an RNG, so two runs
//! submit bit-identical work (wall-clock latencies still vary with the
//! host). CI smoke runs shrink the ladder with [`JOBS_ENV`] /
//! [`RUNGS_ENV`] and upload the JSON artifact.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use seismic_la::scalar::C32;
use seismic_la::Matrix;
use seismic_mdd::{
    engine_metric_families, Engine, EngineConfig, FrequencyOperators, JobSpec, OperatorCache,
    OperatorKey,
};
use tlr_mvm::json::Json;
use tlr_mvm::json_fields;
use tlr_mvm::telemetry::{
    check_openmetrics, render_openmetrics, trace_metric_families, FlightEvent, FlightRecorder,
};
use tlr_mvm::trace::TraceReport;
use tlr_mvm::{compress, trace, CompressionConfig, CompressionMethod, ToleranceMode};

/// Environment variable overriding jobs per ladder rung (CI smoke).
pub const JOBS_ENV: &str = "SERVE_SIM_JOBS";

/// Environment variable overriding the number of ladder rungs (1–8).
pub const RUNGS_ENV: &str = "SERVE_SIM_RUNGS";

/// Default jobs per rung.
pub const DEFAULT_JOBS_PER_RUNG: usize = 96;

/// Default ladder rungs.
pub const DEFAULT_RUNGS: usize = 5;

/// The engine stages whose latency histograms the report carries, in
/// pipeline order.
pub const STAGES: &[&str] = &["engine.queue_wait", "engine.exec_mvm", "engine.job_total"];

/// Frequency bins in the synthetic operator stack — the same "32+"
/// scale as the `engine.*` perfbench kernels.
const N_FREQS: usize = 32;
const NB: usize = 8;
const ACC: f32 = 1e-4;

/// One stage's latency distribution at one rung.
#[derive(Clone, Debug)]
pub struct StageLatency {
    /// Stage name (one of [`STAGES`]).
    pub stage: String,
    /// Jobs observed at this stage.
    pub count: u64,
    /// Median latency, ns (log2-bucket floor).
    pub p50_ns: u64,
    /// 95th percentile, ns.
    pub p95_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
}

/// One rung of the offered-load ladder.
#[derive(Clone, Debug)]
pub struct Rung {
    /// Arrival rate the generator paced at, jobs/s.
    pub offered_qps: f64,
    /// Jobs submitted and drained.
    pub jobs: u64,
    /// Wall time from first submission to last completion, seconds.
    pub wall_s: f64,
    /// `jobs / wall_s` — flattens below `offered_qps` past saturation.
    pub achieved_qps: f64,
    /// Per-stage latency percentiles, in [`STAGES`] order.
    pub stages: Vec<StageLatency>,
    /// Operator-cache hits during this rung (delta, not cumulative).
    pub cache_hits: u64,
    /// Operator-cache misses during this rung.
    pub cache_misses: u64,
    /// Operator-cache evictions during this rung.
    pub cache_evictions: u64,
    /// Jobs accepted by the scheduler during this rung.
    pub submitted: u64,
    /// Jobs fully executed during this rung.
    pub completed: u64,
    /// `try_submit` refusals during this rung (the paced generator uses
    /// blocking `submit`, so this stays 0 unless the loop changes).
    pub rejected: u64,
    /// Jobs stolen by an idle worker during this rung.
    pub stolen: u64,
}

/// The full serve-sim result: configuration, cache/scheduler counters,
/// and the latency-vs-offered-QPS curve.
#[derive(Clone, Debug)]
pub struct ServeSimReport {
    /// Engine worker threads.
    pub workers: usize,
    /// Engine queue depth (the backpressure bound).
    pub queue_depth: usize,
    /// Frequency bins per operator stack.
    pub n_freqs: usize,
    /// Operator cache hits across the ladder (rungs − 1 by design).
    pub cache_hits: u64,
    /// Operator cache misses (1: the first rung builds).
    pub cache_misses: u64,
    /// Jobs an idle worker stole from a peer's deque.
    pub stolen: u64,
    /// The ladder, in ascending offered-QPS order.
    pub rungs: Vec<Rung>,
}

/// Effective jobs per rung: [`JOBS_ENV`] override or
/// [`DEFAULT_JOBS_PER_RUNG`].
pub fn jobs_from_env() -> usize {
    std::env::var(JOBS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_JOBS_PER_RUNG)
}

/// Effective rung count: [`RUNGS_ENV`] override (clamped to 1–8) or
/// [`DEFAULT_RUNGS`].
pub fn rungs_from_env() -> usize {
    std::env::var(RUNGS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(DEFAULT_RUNGS, |n| n.clamp(1, 8))
}

/// The monotone offered-QPS ladder: 100 · 2^r for `rungs` rungs.
pub fn offered_ladder(rungs: usize) -> Vec<f64> {
    (0..rungs.max(1))
        .map(|r| 100.0 * (1u64 << r) as f64)
        .collect()
}

/// The synthetic compressed operator stack: [`N_FREQS`] smooth
/// oscillatory kernels, phase-shifted per frequency bin.
fn build_operators() -> FrequencyOperators {
    let (m, n) = (24usize, 20usize);
    let cfg = CompressionConfig {
        nb: NB,
        acc: ACC,
        method: CompressionMethod::Svd,
        mode: ToleranceMode::RelativeTile,
    };
    let tlr: Vec<_> = (0..N_FREQS)
        .map(|f| {
            let a = Matrix::from_fn(m, n, |i, j| {
                let d = (i as f32 / m as f32 - j as f32 / n as f32).abs() + 0.03;
                C32::from_polar(1.0 / (1.0 + 4.0 * d), -(3.0 + 0.2 * f as f32) * d)
            });
            compress(&a, cfg)
        })
        .collect();
    FrequencyOperators::build(&tlr)
}

/// Deterministic per-job input vector (job index varies the phase).
fn job_input(len: usize, job: usize) -> Vec<C32> {
    let p = job as f32 * 0.03;
    (0..len)
        .map(|i| C32::new((i as f32 * 0.17 + p).sin(), (i as f32 * 0.31 - p).cos()))
        .collect()
}

/// Flight-recorder ring capacity per ring for the serving run — enough
/// to hold every event of one rung at the default load.
const RING_CAPACITY: usize = 8192;

/// Everything a full serving run produces beyond the report: the
/// per-rung OpenMetrics scrapes, the final rung's trace snapshot and
/// flight-recorder drain (the raw material for the enriched
/// `--timeline` export), and how many workers the engine ran.
pub struct ServeSimArtifacts {
    /// The latency-vs-offered-QPS report.
    pub report: ServeSimReport,
    /// One rendered OpenMetrics exposition per rung, in ladder order —
    /// what `repro serve-sim` writes to `target/repro/metrics_<r>.prom`.
    pub rung_metrics: Vec<String>,
    /// Trace snapshot of the final rung (host spans + histograms).
    pub final_trace: TraceReport,
    /// Flight-recorder drain of the final rung, timestamp-ordered.
    pub final_events: Vec<FlightEvent>,
    /// Engine worker threads (the flight-recorder ring count minus the
    /// external ring).
    pub workers: usize,
}

/// Run the ladder. `ladder` must be strictly increasing — the report's
/// curve is defined over monotone offered load.
pub fn run_serve_sim(jobs_per_rung: usize, ladder: &[f64]) -> ServeSimReport {
    run_serve_sim_full(jobs_per_rung, ladder).report
}

/// [`run_serve_sim`] plus telemetry artifacts: per-rung OpenMetrics
/// scrapes and the final rung's flight-recorder drain.
pub fn run_serve_sim_full(jobs_per_rung: usize, ladder: &[f64]) -> ServeSimArtifacts {
    assert!(!ladder.is_empty() && jobs_per_rung > 0);
    assert!(
        ladder.windows(2).all(|w| w[0] < w[1]),
        "offered-QPS ladder must be strictly increasing"
    );
    let cfg = EngineConfig::default();
    let (workers, queue_depth) = (cfg.workers, cfg.queue_depth);
    let recorder = Arc::new(FlightRecorder::new(workers, RING_CAPACITY));
    let engine = Engine::start(EngineConfig {
        recorder: Some(Arc::clone(&recorder)),
        ..cfg
    });
    let cache = OperatorCache::new(256 << 20);
    let key = OperatorKey::new("serve-sim-synthetic", NB, ACC);

    let was_enabled = trace::is_enabled();
    let mut rungs = Vec::with_capacity(ladder.len());
    let mut rung_metrics = Vec::with_capacity(ladder.len());
    let mut final_trace = TraceReport::default();
    for &offered_qps in ladder {
        let cs_before = cache.stats();
        let es_before = engine.stats();
        let ops = cache.get_or_build(&key, build_operators);
        let period = Duration::from_secs_f64(1.0 / offered_qps);
        // One rung = one trace window and one flight-recorder epoch, so
        // timeline timestamps and metrics deltas share a zero.
        recorder.clear();
        recorder.reset_epoch();
        trace::reset();
        trace::set_enabled(true);
        let t0 = Instant::now();
        let mut handles = Vec::with_capacity(jobs_per_rung);
        for j in 0..jobs_per_rung {
            // Pace to the arrival slot; `submit` then blocks while the
            // queue is at depth (the closed loop).
            let slot = period * j as u32;
            let elapsed = t0.elapsed();
            if slot > elapsed {
                std::thread::sleep(slot - elapsed);
            }
            handles.push(engine.submit(JobSpec::Mvm {
                ops: Arc::clone(&ops),
                x: job_input(ops.ncols_total(), j),
            }));
        }
        for h in handles {
            std::hint::black_box(h.wait().output.len());
        }
        let wall_s = t0.elapsed().as_secs_f64();
        trace::set_enabled(false);
        let rep = trace::snapshot();
        let cs_after = cache.stats();
        let es_after = engine.stats();
        let stages = STAGES
            .iter()
            .map(|&stage| {
                let lat = rep.latency_for(stage);
                StageLatency {
                    stage: stage.to_string(),
                    count: lat.map_or(0, |l| l.count),
                    p50_ns: lat.map_or(0, |l| l.p50_ns),
                    p95_ns: lat.map_or(0, |l| l.p95_ns),
                    p99_ns: lat.map_or(0, |l| l.p99_ns),
                }
            })
            .collect();
        // Per-rung movement via the snapshot-delta helpers: each
        // endpoint is one consistent mutex-held snapshot, so a delta
        // can never mix counters from different instants.
        let cs_delta = cs_after.delta(&cs_before);
        let es_delta = es_after.delta(&es_before);
        rungs.push(Rung {
            offered_qps,
            jobs: jobs_per_rung as u64,
            wall_s,
            achieved_qps: jobs_per_rung as f64 / wall_s.max(1e-9),
            stages,
            cache_hits: cs_delta.hits,
            cache_misses: cs_delta.misses,
            cache_evictions: cs_delta.evictions,
            submitted: es_delta.submitted,
            completed: es_delta.completed,
            rejected: es_delta.rejected,
            stolen: es_delta.stolen,
        });
        // The once-per-rung scrape: trace histograms + engine gauges.
        let mut fams = trace_metric_families(&rep);
        fams.extend(engine_metric_families(
            &engine.gauges(),
            &es_after,
            &cs_after,
        ));
        rung_metrics.push(render_openmetrics(&fams));
        final_trace = rep;
    }
    let final_events = recorder.snapshot_events();
    trace::reset();
    trace::set_enabled(was_enabled);

    let cs = cache.stats();
    let es = engine.stats();
    ServeSimArtifacts {
        report: ServeSimReport {
            workers,
            queue_depth,
            n_freqs: N_FREQS,
            cache_hits: cs.hits,
            cache_misses: cs.misses,
            stolen: es.stolen,
            rungs,
        },
        rung_metrics,
        final_trace,
        final_events,
        workers,
    }
}

/// The `repro metrics` sample: a tiny deterministic engine run (one
/// cache build + one hit, a handful of MVM jobs) whose scrape is
/// rendered, validated against [`check_openmetrics`], and written to
/// `target/repro/metrics.prom`. Returns the path and the number of
/// samples the checker counted.
///
/// Owns the global trace collector — call outside any `--trace` window.
pub fn run_metrics_sample() -> io::Result<(PathBuf, usize)> {
    let engine = Engine::start(EngineConfig {
        workers: 2,
        queue_depth: 16,
        recorder: None,
    });
    let cache = OperatorCache::new(64 << 20);
    let key = OperatorKey::new("metrics-sample", NB, ACC);

    let was_enabled = trace::is_enabled();
    trace::reset();
    trace::set_enabled(true);
    let _build = cache.get_or_build(&key, build_operators);
    // Second lookup is a guaranteed hit, so the scrape shows both kinds.
    let ops = cache.get_or_build(&key, build_operators);
    let handles: Vec<_> = (0..6)
        .map(|j| {
            engine.submit(JobSpec::Mvm {
                ops: Arc::clone(&ops),
                x: job_input(ops.ncols_total(), j),
            })
        })
        .collect();
    for h in handles {
        std::hint::black_box(h.wait().output.len());
    }
    trace::set_enabled(false);
    let rep = trace::snapshot();
    let mut fams = trace_metric_families(&rep);
    fams.extend(engine_metric_families(
        &engine.gauges(),
        &engine.stats(),
        &cache.stats(),
    ));
    let text = render_openmetrics(&fams);
    trace::reset();
    trace::set_enabled(was_enabled);
    let samples =
        check_openmetrics(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let dir = Path::new("target/repro");
    std::fs::create_dir_all(dir)?;
    let path = dir.join("metrics.prom");
    std::fs::write(&path, &text)?;
    Ok((path, samples))
}

/// A report as the artifact's JSON tree.
pub fn report_to_json(r: &ServeSimReport) -> Json {
    let stage = |s: &StageLatency| json_fields!(s; stage, count, p50_ns, p95_ns, p99_ns);
    let rung = |rung: &Rung| {
        json_fields!(rung;
            offered_qps, jobs, wall_s, achieved_qps, cache_hits, cache_misses, cache_evictions,
            submitted, completed, rejected, stolen, stages => Json::arr(rung.stages.iter().map(stage))
        )
    };
    json_fields!(r;
        workers, queue_depth, n_freqs, cache_hits, cache_misses, stolen,
        rungs => Json::arr(r.rungs.iter().map(rung))
    )
}

/// Write one rung's OpenMetrics scrape to
/// `target/repro/metrics_<rung>.prom`, returning the path.
pub fn write_rung_metrics(rung: usize, text: &str) -> io::Result<PathBuf> {
    let dir = Path::new("target/repro");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("metrics_{rung}.prom"));
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Write the artifact to `target/repro/serve_sim.json` (pretty JSON),
/// returning the path.
pub fn write_serve_sim_json(report: &ServeSimReport) -> io::Result<PathBuf> {
    let dir = Path::new("target/repro");
    std::fs::create_dir_all(dir)?;
    let path = dir.join("serve_sim.json");
    std::fs::write(&path, report_to_json(report).to_pretty())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr_mvm::telemetry::EventKind;

    /// A two-rung micro-ladder: the curve is monotone in offered load,
    /// every stage histogram saw every job, and percentiles are ordered.
    #[test]
    fn micro_ladder_produces_full_stage_histograms() {
        let _g = crate::test_sync::trace_lock();
        let rep = run_serve_sim(6, &[400.0, 800.0]);
        assert_eq!(rep.rungs.len(), 2);
        assert!(rep.rungs[0].offered_qps < rep.rungs[1].offered_qps);
        assert_eq!((rep.cache_misses, rep.cache_hits), (1, 1));
        for rung in &rep.rungs {
            assert!(rung.wall_s > 0.0 && rung.achieved_qps > 0.0);
            assert_eq!(rung.stages.len(), STAGES.len());
            for s in &rung.stages {
                assert_eq!(s.count, 6, "{}: every job hits every stage", s.stage);
                assert!(
                    s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns,
                    "{}: percentiles must be ordered",
                    s.stage
                );
            }
        }
    }

    #[test]
    fn report_json_roundtrips_and_keeps_ladder_order() {
        let _g = crate::test_sync::trace_lock();
        let rep = run_serve_sim(3, &[800.0, 1600.0]);
        let text = report_to_json(&rep).to_pretty();
        let tree = Json::parse(&text).expect("own JSON parses");
        let rungs = tree.get("rungs").and_then(Json::as_arr).expect("rungs");
        assert_eq!(rungs.len(), 2);
        let offered: Vec<f64> = rungs
            .iter()
            .map(|r| r.get("offered_qps").and_then(Json::as_f64).unwrap())
            .collect();
        assert!(offered[0] < offered[1], "curve stays monotone in JSON");
        assert_eq!(
            rungs[0]
                .get("stages")
                .and_then(Json::as_arr)
                .map(|s| s.len()),
            Some(STAGES.len())
        );
    }

    #[test]
    fn ladder_helpers_respect_bounds() {
        assert_eq!(offered_ladder(3), vec![100.0, 200.0, 400.0]);
        assert!(offered_ladder(0).len() == 1);
        let l = offered_ladder(8);
        assert!(l.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_ladder_is_rejected() {
        run_serve_sim(1, &[200.0, 100.0]);
    }

    /// The full artifact bundle: one valid OpenMetrics scrape per rung,
    /// per-rung cache/scheduler deltas that reconcile with the run, and
    /// a final-rung flight-recorder snapshot covering every job.
    #[test]
    fn full_run_scrapes_metrics_and_drains_final_rung_events() {
        let _g = crate::test_sync::trace_lock();
        let jobs = 5;
        let art = run_serve_sim_full(jobs, &[400.0, 800.0]);
        assert_eq!(art.rung_metrics.len(), 2);
        for text in &art.rung_metrics {
            let n = check_openmetrics(text).expect("scrape passes the checker");
            assert!(n > 0, "scrape must carry samples");
            assert!(text.contains("# TYPE engine_queue_depth gauge"));
            assert!(text.contains("engine_jobs_total{state=\"completed\"}"));
        }
        let jobs_u64 = u64::try_from(jobs).unwrap();
        let first = &art.report.rungs[0];
        let last = &art.report.rungs[1];
        // Rung 0 builds the operator set (one miss); rung 1 re-checks
        // it out of the warm cache (one hit, nothing evicted).
        assert_eq!((first.cache_misses, first.cache_hits), (1, 0));
        assert_eq!(
            (last.cache_hits, last.cache_misses, last.cache_evictions),
            (1, 0, 0)
        );
        for rung in &art.report.rungs {
            assert_eq!(rung.submitted, jobs_u64);
            assert_eq!(rung.completed, jobs_u64);
            assert_eq!(rung.rejected, 0, "blocking submit never rejects");
        }
        // The recorder epoch resets per rung, so the final snapshot is
        // exactly the last rung's interleaving.
        let count = |kind: EventKind| {
            u64::try_from(art.final_events.iter().filter(|e| e.kind == kind).count()).unwrap()
        };
        assert_eq!(count(EventKind::JobSubmitted), jobs_u64);
        assert_eq!(count(EventKind::JobFinished), jobs_u64);
        assert_eq!(count(EventKind::JobStarted), jobs_u64);
        assert!(art.workers >= 1);
    }

    /// `repro metrics` end to end: the one-shot sample writes a file
    /// that passes the checker and carries both trace- and
    /// engine-derived families, including a guaranteed cache hit.
    #[test]
    fn metrics_sample_writes_valid_exposition() {
        let _g = crate::test_sync::trace_lock();
        let (path, samples) = run_metrics_sample().expect("sample runs");
        assert!(samples > 0);
        let text = std::fs::read_to_string(&path).expect("metrics.prom readable");
        check_openmetrics(&text).expect("written exposition passes the checker");
        assert!(text.contains("# TYPE cache_events counter"));
        assert!(text.contains("cache_events_total{kind=\"hit\"} 1"));
        assert!(text.contains("# TYPE stage_latency_ns histogram"));
        assert!(text.ends_with("# EOF\n"));
    }
}
