//! Every metric the benchmark emits, declared once. `BENCHMARK.json` is
//! `manifest()` rendered to a file; a test keeps the two equal.

use crate::json::{self, Value};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by
    /// (end-to-end metrics only).
    pub bound: f64,
    /// Must repeat exactly between two runs with the same seed.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Seconds one run measures for (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;

/// What a user of the system sees. Every workload reports every one of
/// them (the acceptance driver requires that), so they are named for the
/// role, not the workload; README.md maps each to the per-workload
/// quantity it stands for.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("op_ms", "ms", Lower, 0.25, false),
    e2e("peak_rss_mb", "MiB", Lower, 0.20, false),
    e2e("operator_mb", "MiB", Lower, 0.02, true),
    e2e("rel_error", "ratio", Lower, 0.05, false),
];

/// Single-layer numbers of the traced run. A layer a workload never calls
/// reports 0 there.
pub const PER_LAYER: &[Metric] = &[
    layer("wave.generate_s", "s", Lower),
    layer("wave.observed_data_s", "s", Lower),
    layer("geom.permutation_s", "s", Lower),
    layer("geom.reorder_s", "s", Lower),
    layer("geom.perm_apply_s", "s", Lower),
    layer("la.svd_us_per_tile", "us", Lower),
    layer("la.rsvd_us_per_tile", "us", Lower),
    layer("fft.forward_s", "s", Lower),
    layer("fft.inverse_s", "s", Lower),
    layer("core.compress_s", "s", Lower),
    exact("core.compress_tiles", "count", Lower),
    exact("core.total_rank", "count", Lower),
    exact("core.max_rank", "count", Lower),
    layer("core.compress_mbps", "MiB/s", Higher),
    exact("core.compress_ratio", "ratio", Higher),
    layer("core.layout_build_s", "s", Lower),
    layer("core.ca_build_s", "s", Lower),
    layer("core.apply_s", "s", Lower),
    layer("core.adjoint_s", "s", Lower),
    exact("core.apply_calls", "count", Lower),
    layer("core.vbatch_s", "s", Lower),
    layer("core.shuffle_s", "s", Lower),
    layer("core.ubatch_s", "s", Lower),
    layer("core.phase_residual_pct", "%", Lower),
    layer("core.three_phase_s", "s", Lower),
    layer("core.comm_avoiding_s", "s", Lower),
    layer("core.tlr_apply_s", "s", Lower),
    layer("core.ca_over_tp", "ratio", Lower),
    exact("core.bytes_per_sweep", "B", Lower),
    exact("core.flops_per_sweep", "flop", Lower),
    exact("core.ops_per_byte", "flop/B", Higher),
    layer("core.sweep_gbps", "GB/s", Higher),
    layer("core.pct_of_triad", "%", Higher),
    layer("mdd.lsqr_self_s", "s", Lower),
    exact("mdd.lsqr_iters", "count", Lower),
    layer("mdd.final_rel_residual", "ratio", Lower),
    layer("engine.ops_build_s", "s", Lower),
    layer("engine.batch_over_serial", "ratio", Lower),
    layer("engine.sweep_s_t1", "s", Lower),
    layer("engine.scaling_eff", "ratio", Higher),
    layer("engine.job_ms_p50", "ms", Lower),
    layer("engine.job_ms_p90", "ms", Lower),
    layer("engine.queue_ms_p50", "ms", Lower),
    layer("engine.queue_ms_p90", "ms", Lower),
    layer("engine.exec_ms_p50", "ms", Lower),
    layer("engine.exec_ms_p90", "ms", Lower),
    layer("engine.submitted", "count", Higher),
    layer("engine.completed", "count", Higher),
    layer("engine.rejected", "count", Lower),
    layer("engine.stolen", "count", Lower),
    layer("engine.steal_share", "ratio", Lower),
    exact("engine.cache_hits", "count", Higher),
    exact("engine.cache_misses", "count", Lower),
    exact("engine.cache_evictions", "count", Lower),
    exact("engine.cache_hit_ratio", "ratio", Higher),
    layer("engine.cache_build_ms", "ms", Lower),
    layer("wse.workload_build_s", "s", Lower),
    layer("wse.place_s", "s", Lower),
    layer("wse.exec_s", "s", Lower),
    layer("wse.host_ns_per_chunk", "ns", Lower),
    layer("wse.host_mfmacs_per_s", "1e6/s", Higher),
    exact("wse.cycles", "cycles", Lower),
    exact("wse.stack_width", "count", Lower),
    exact("wse.pes_used", "count", Lower),
    exact("wse.occupancy", "ratio", Higher),
    exact("wse.fmacs", "count", Lower),
    exact("wse.rel_bytes", "B", Lower),
    exact("wse.abs_bytes", "B", Lower),
    exact("wse.rel_pbs", "PB/s", Higher),
    exact("wse.abs_pbs", "PB/s", Higher),
    exact("wse.pflops", "PFlop/s", Higher),
    exact("wse.flop_imbalance", "ratio", Lower),
    layer("host.triad_gbps", "GB/s", Higher),
    layer("host.copy_gbps", "GB/s", Higher),
    layer("host.array_mb", "MiB", Higher),
    layer("host.l2_kb", "KiB", Higher),
    layer("host.l3_kb", "KiB", Higher),
    layer("host.threads", "count", Higher),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.op_residual_pct", "%", Lower),
    layer("bench.ops_traced", "count", Higher),
    layer("bench.op_ms_median", "ms", Lower),
    layer("bench.op_ms_min", "ms", Lower),
    layer("bench.op_ms_p10", "ms", Lower),
    layer("bench.op_ms_tail", "ms", Lower),
    layer("bench.ops_per_s", "1/s", Higher),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The content of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let metric = |m: &Metric, with_bound: bool| {
        let mut kv = vec![
            ("name", json::string(m.name)),
            ("unit", json::string(m.unit)),
            ("better", json::string(m.better.as_str())),
        ];
        if with_bound {
            kv.push(("bound", json::num(m.bound)));
        }
        json::obj(kv)
    };
    json::obj([
        (
            "command",
            Value::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(json::string)
                .collect(),
            ),
        ),
        ("paths", Value::Arr(vec![json::string("benchmark")])),
        ("run_seconds", json::num(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                crate::workloads::ALL
                    .iter()
                    .map(|w| {
                        json::obj([("name", json::string(w.name)), ("why", json::string(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Value::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}
