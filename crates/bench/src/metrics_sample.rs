//! `repro metrics` — a one-shot OpenMetrics scrape of a short,
//! deterministic run of the batched multi-frequency engine (DESIGN.md
//! §14).
//!
//! The sample builds one synthetic operator stack through the
//! [`OperatorCache`] (one miss, then one guaranteed hit), runs a handful
//! of MVM jobs, renders the trace histograms plus the engine and cache
//! families, validates the text with [`check_openmetrics`] and writes it
//! to `target/repro/metrics.prom`. Job inputs are fixed trigonometric
//! fills varied per job index, never an RNG, so the counters of two runs
//! are identical (the latency buckets still vary with the host).

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use seismic_la::scalar::C32;
use seismic_la::Matrix;
use seismic_mdd::{
    engine_metric_families, Engine, EngineConfig, FrequencyOperators, JobSpec, OperatorCache,
    OperatorKey,
};
use tlr_mvm::telemetry::{check_openmetrics, render_openmetrics, trace_metric_families};
use tlr_mvm::{compress, trace, CompressionConfig, CompressionMethod, ToleranceMode};

/// Frequency bins in the synthetic operator stack — the same "32+"
/// scale as the `engine.*` perfbench kernels.
const N_FREQS: usize = 32;
const NB: usize = 8;
const ACC: f32 = 1e-4;

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

#[cfg(test)]
mod tests {
    use super::*;

    /// `repro metrics` end to end: the one-shot sample writes a file
    /// that passes the checker and carries both trace- and
    /// engine-derived families, including a guaranteed cache hit and
    /// every one of the six jobs submitted and completed.
    #[test]
    fn metrics_sample_writes_valid_exposition() {
        let _g = crate::test_sync::trace_lock();
        let (path, samples) = run_metrics_sample().expect("sample runs");
        assert!(samples > 0);
        let text = std::fs::read_to_string(&path).expect("metrics.prom readable");
        check_openmetrics(&text).expect("written exposition passes the checker");
        assert!(text.contains("# TYPE cache_events counter"));
        assert!(text.contains("cache_events_total{kind=\"hit\"} 1"));
        assert!(text.contains("engine_jobs_total{state=\"submitted\"} 6"));
        assert!(text.contains("engine_jobs_total{state=\"completed\"} 6"));
        assert!(text.contains("# TYPE stage_latency_ns histogram"));
        assert!(text.ends_with("# EOF\n"));
    }
}
