//! The six workloads, the constants that fix their work, and the context
//! each one reports through.
//!
//! Work is fixed by the constants in this file and in `workloads/*.rs`,
//! never calibrated at run time: operation `i` of a workload has inputs
//! that depend only on `(seed, i)`, and the first `min_ops` operations
//! (the section every run completes) carry the exact counters and the
//! accuracy figure. `--seconds` only decides how many further operations
//! of the same kind are timed.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use seis_wave::{DatasetConfig, SyntheticDataset, VelocityModel};
use seismic_geom::Ordering;
use seismic_la::blas::gemv;
use seismic_la::{Matrix, C32};
use tlr_mvm::{compress, CompressionConfig, LinearOperator, TlrMatrix};

use crate::host;
use crate::json::{self, Value};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spans::{Guard, SpanId, Tracer};
use crate::stats;

mod compress_stack;
mod serve;
mod solve;
mod sweep;
mod wse;

pub struct Descriptor {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; README.md has the long form.
    pub why: &'static str,
    /// Percentile `bench.op_ms_tail` reports: the highest of p75/p90/p99 with
    /// at least ten samples beyond it at the operation count a
    /// `RUN_SECONDS` run reaches on the reference box, fixed so that the
    /// definition does not change with the speed of a run.
    pub tail_pct: f64,
    /// Percentile of the operation samples that `op_ms` reports. Where
    /// every operation does identical work it is 0, the minimum: the host
    /// (a shared guest: neighbours, frequency) only ever adds time, so the
    /// fastest operation is what the code costs, and between identical runs
    /// on the reference box it spreads a third to a half of what the median
    /// does. Blocks of `serve-mix` differ in how many lookups miss, so its
    /// minimum would be the luckiest block; it reports the fast decile.
    /// Minimum, decile, median and tail are all in the traced run.
    pub headline_pct: f64,
    run: fn(&mut Ctx),
}

pub const ALL: &[Descriptor] = &[
    Descriptor {
        name: "solve-large",
        why: "30-iteration LSQR MDD solves on an operator 8x the L2 of the cores: apply/adjoint bytes dominate, so fusion, layout and smaller-operator work shows here",
        tail_pct: 75.0,
        headline_pct: 0.0,
        run: solve::run_large,
    },
    Descriptor {
        name: "solve-small",
        why: "the same solve on the cache-resident 180x98 operator: allocation, fork-join, permutation and solver vector ops dominate, memory-traffic work should not move it",
        tail_pct: 90.0,
        headline_pct: 0.0,
        run: solve::run_small,
    },
    Descriptor {
        name: "sweep-large",
        why: "forward+adjoint all-frequency sweeps on the stacked layout at nb 64, no solver and no queue: the TLR-MVM kernel in isolation at a second tile shape",
        tail_pct: 90.0,
        headline_pct: 0.0,
        run: sweep::run,
    },
    Descriptor {
        name: "serve-mix",
        why: "closed loop of 90% MVM / 10% MDD jobs over three small operators and a cache that holds two: scheduler, queue, steal, cache hit and miss paths dominate",
        tail_pct: 90.0,
        headline_pct: 10.0,
        run: serve::run,
    },
    Descriptor {
        name: "compress-stack",
        why: "repeated compress_dataset at two (nb, acc) points with the default method: the write side of the operator, where the MVM does nothing",
        tail_pct: 75.0,
        headline_pct: 0.0,
        run: compress_stack::run,
    },
    Descriptor {
        name: "wse-map",
        why: "wse-sim mapping and functional execution of a compressed stack: simulated statistics repeat exactly, host time per simulated fmac is what may improve",
        tail_pct: 90.0,
        headline_pct: 0.0,
        run: wse::run,
    },
];

pub fn find(name: &str) -> Option<&'static Descriptor> {
    ALL.iter().find(|w| w.name == name)
}

/// `Full` is what the benchmark measures; `Smoke` is the test-only size
/// (a few dozen stations, a handful of operations).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    pub threads: usize,
}

/// Where a span goes: which tracer, whether this operation is traced,
/// and the span that caused it.
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    pub tracer: &'a Tracer,
    pub on: bool,
    pub parent: SpanId,
}

impl<'a> Scope<'a> {
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.tracer.time(self.on, name, self.parent, f)
    }

    pub fn span(&self, name: &'static str) -> Guard<'a> {
        self.tracer.span(self.on, name, self.parent)
    }

    /// Scope for spans caused by `guard`.
    pub fn under(&self, guard: &Guard<'_>) -> Scope<'a> {
        Scope {
            parent: guard.id(),
            ..*self
        }
    }
}

/// Result of one workload run, ready for the result line.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Sizes, sample counts, quartiles — context for `results.json`.
    pub info: Value,
    pub failures: Vec<String>,
    pub trace: Value,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

pub struct Ctx {
    pub opts: Options,
    pub tracer: Tracer,
    desc: &'static Descriptor,
    started: Instant,
    setup_s: Vec<f64>,
    plain_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    timed_wall_s: f64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    info: Vec<(String, Value)>,
}

impl Ctx {
    fn new(desc: &'static Descriptor, opts: Options) -> Self {
        Self {
            opts,
            tracer: Tracer::new(desc.name),
            desc,
            started: Instant::now(),
            setup_s: Vec::new(),
            plain_ms: Vec::new(),
            traced_ms: Vec::new(),
            timed_wall_s: 0.0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            values: BTreeMap::new(),
            info: Vec::new(),
        }
    }

    pub fn smoke(&self) -> bool {
        self.opts.size == Size::Smoke
    }

    /// Scope for phase-level spans (set-up, checks, probes): recorded in
    /// the traced run only.
    pub fn scope(&self) -> Scope<'_> {
        Scope {
            tracer: &self.tracer,
            on: self.opts.trace,
            parent: SpanId::ROOT,
        }
    }

    /// Report a metric value (end-to-end or per-layer) by its declared name.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            crate::metrics::find(name).is_some(),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Context for `results.json` (sizes, counts), not a metric.
    pub fn note(&mut self, key: &str, value: Value) {
        self.info.push((key.to_string(), value));
    }

    /// Count one correctness check; a failed one fails the run.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.check_with(ok, || what.to_string());
    }

    /// [`Ctx::check`] for the hot path: the message is built on failure only.
    pub fn check_with(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            eprintln!("[{}] FAILED: {why}", self.desc.name);
            self.failures.push(why);
        }
    }

    /// Everything before the first timed operation. Runs `build` `reps`
    /// times (the median is `setup_s`) and keeps the last state.
    pub fn setup<S>(&mut self, reps: usize, mut build: impl FnMut(Scope<'_>) -> S) -> S {
        let mut state = None;
        for _ in 0..reps.max(1) {
            drop(state.take());
            let t = Instant::now();
            let sc = self.scope();
            let g = sc.span("setup");
            state = Some(build(sc.under(&g)));
            drop(g);
            self.setup_s.push(t.elapsed().as_secs_f64());
        }
        state.expect("at least one set-up pass")
    }

    /// Record one timed operation.
    pub fn record_op(&mut self, ms: f64, traced: bool, result: Result<(), String>) {
        self.attempted += 1;
        if traced {
            self.traced_ms.push(ms);
        } else {
            self.plain_ms.push(ms);
        }
        if let Err(why) = result {
            self.fail(why);
        }
    }

    /// Whether operation `i` is traced: never in the plain run; in the
    /// traced run, alternate blocks of `block` operations, so the traced
    /// and untraced medians come from the same process and interleave.
    pub fn traced_op(&self, i: usize, block: usize) -> bool {
        self.opts.trace && (i / block.max(1)) % 2 == 1
    }

    /// The sequential timed section: operation `i = 0, 1, 2, …` until
    /// `min_ops` are done and `--seconds` have passed.
    pub fn run_ops(
        &mut self,
        min_ops: usize,
        block: usize,
        mut op: impl FnMut(usize, Scope<'_>) -> Result<(), String>,
    ) {
        let start = Instant::now();
        let mut i = 0;
        while i < min_ops || start.elapsed().as_secs_f64() < self.opts.seconds {
            let traced = self.traced_op(i, block);
            let sc = Scope {
                tracer: &self.tracer,
                on: traced,
                parent: SpanId::ROOT,
            };
            let t = Instant::now();
            let g = sc.span("op");
            let result = op(i, sc.under(&g));
            drop(g);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            self.record_op(ms, traced, result);
            i += 1;
        }
        self.timed_wall_s = start.elapsed().as_secs_f64();
    }

    pub fn set_timed_wall(&mut self, seconds: f64) {
        self.timed_wall_s = seconds;
    }

    /// Mean seconds per traced operation spent in spans named `name`.
    pub fn per_traced_op(&self, summary: &crate::spans::Summary, name: &str) -> f64 {
        summary.total_s(name) / self.traced_ms.len().max(1) as f64
    }

    /// Mean seconds per set-up pass spent in spans named `name` (summed
    /// over the frequencies of one pass; with more than one thread that
    /// is thread-seconds, not wall time).
    pub fn per_setup(&self, summary: &crate::spans::Summary, name: &str) -> f64 {
        summary.total_s(name) / self.setup_s.len().max(1) as f64
    }

    /// The set-up layers every workload has: dataset synthesis, Hilbert
    /// reorder, compression.
    pub fn set_setup_layers(&mut self, summary: &crate::spans::Summary) {
        for (metric, span) in [
            ("wave.generate_s", "wave.generate"),
            ("geom.reorder_s", "geom.reorder"),
            ("core.compress_s", "core.compress"),
        ] {
            let v = self.per_setup(summary, span);
            self.set(metric, v);
        }
    }

    /// Size counters of the compressed stack(s) a workload built.
    pub fn set_stack_counters<'t>(&mut self, stack: impl Iterator<Item = &'t TlrMatrix> + Clone) {
        let tiles: usize = stack.clone().map(|t| t.tiling().tile_count()).sum();
        let rank: usize = stack.clone().map(TlrMatrix::total_rank).sum();
        let max_rank = stack.map(TlrMatrix::max_rank).max().unwrap_or(0);
        self.set("core.compress_tiles", tiles as f64);
        self.set("core.total_rank", rank as f64);
        self.set("core.max_rank", max_rank as f64);
    }

    pub fn traced_ops(&self) -> usize {
        self.traced_ms.len()
    }

    fn finish(mut self) -> Outcome {
        let all_ms: Vec<f64> = self
            .plain_ms
            .iter()
            .chain(&self.traced_ms)
            .copied()
            .collect();
        let declared = if self.opts.trace {
            PER_LAYER
        } else {
            END_TO_END
        };
        if self.opts.trace {
            let pct = self.desc.headline_pct;
            let (plain, traced) = (
                stats::percentile(&self.plain_ms, pct),
                stats::percentile(&self.traced_ms, pct),
            );
            let overhead = if plain > 0.0 && !self.traced_ms.is_empty() {
                100.0 * (traced - plain) / plain
            } else {
                0.0
            };
            let summary = self.tracer.summary();
            let residual = if summary.total_s("op") > 0.0 {
                100.0 * summary.self_s("op") / summary.total_s("op")
            } else {
                0.0
            };
            for (name, value) in [
                ("bench.trace_overhead_pct", overhead),
                ("bench.op_residual_pct", residual),
                ("bench.ops_traced", self.traced_ms.len() as f64),
                ("bench.op_ms_median", stats::median(&all_ms)),
                ("bench.op_ms_min", stats::percentile(&all_ms, 0.0)),
                ("bench.op_ms_p10", stats::percentile(&all_ms, 10.0)),
                (
                    "bench.op_ms_tail",
                    stats::percentile(&all_ms, self.desc.tail_pct),
                ),
                (
                    "bench.ops_per_s",
                    all_ms.len() as f64 / self.timed_wall_s.max(1e-9),
                ),
                ("host.l2_kb", host::l2_bytes() as f64 / 1024.0),
                ("host.l3_kb", host::l3_bytes() as f64 / 1024.0),
                ("host.threads", self.opts.threads as f64),
            ] {
                self.set(name, value);
            }
        } else {
            self.set("setup_s", stats::median(&self.setup_s));
            self.set("op_ms", stats::percentile(&all_ms, self.desc.headline_pct));
            self.set("peak_rss_mb", host::peak_rss_mib());
        }

        let mut metrics = Vec::with_capacity(declared.len());
        for m in declared {
            let v = self.values.get(m.name).copied();
            let ok = match v {
                // A layer that is not called reports 0; an end-to-end
                // metric must be a positive number on every workload.
                Some(v) => v.is_finite() && (self.opts.trace || v > 0.0),
                None => self.opts.trace,
            };
            if !ok {
                self.attempted += 1;
                self.fail(format!("metric {} is {v:?}", m.name));
            }
            metrics.push((m.name, v.filter(|v| v.is_finite()).unwrap_or(0.0), m.unit));
        }

        let (q1, q2, q3) = stats::quartiles(&all_ms);
        let mut info = vec![
            ("ops".to_string(), json::num(all_ms.len() as f64)),
            (
                "ops_traced".to_string(),
                json::num(self.traced_ms.len() as f64),
            ),
            ("op_ms_q1".to_string(), json::num(q1)),
            ("op_ms_median".to_string(), json::num(q2)),
            ("op_ms_q3".to_string(), json::num(q3)),
            (
                "op_tail_percentile".to_string(),
                json::num(self.desc.tail_pct),
            ),
            (
                "op_headline_percentile".to_string(),
                json::num(self.desc.headline_pct),
            ),
            (
                "setup_passes".to_string(),
                json::num(self.setup_s.len() as f64),
            ),
            ("timed_wall_s".to_string(), json::num(self.timed_wall_s)),
            (
                "total_wall_s".to_string(),
                json::num(self.started.elapsed().as_secs_f64()),
            ),
        ];
        if let Some((p, v)) = stats::highest_supported_percentile(&all_ms) {
            info.push(("op_ms_highest_percentile".to_string(), json::num(p)));
            info.push(("op_ms_at_highest_percentile".to_string(), json::num(v)));
        }
        // Every timed sample, in run order, for offline analysis.
        for (key, samples) in [
            ("op_ms_samples", &self.plain_ms),
            ("op_ms_samples_traced", &self.traced_ms),
        ] {
            info.push((
                key.to_string(),
                Value::Arr(samples.iter().map(|v| json::num(*v)).collect()),
            ));
        }
        info.append(&mut self.info);
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            info: Value::Obj(info),
            failures: self.failures,
            trace: self.tracer.to_json(),
        }
    }
}

/// Run one workload in this process.
pub fn run(desc: &'static Descriptor, opts: Options) -> Outcome {
    let mut ctx = Ctx::new(desc, opts);
    (desc.run)(&mut ctx);
    ctx.finish()
}

// --- helpers shared by the workloads -----------------------------------------

pub const MIB: f64 = 1024.0 * 1024.0;

/// Accuracy gate of a 30-iteration inversion against ground truth; the
/// datasets here invert to an NMSE of a few percent.
pub const NMSE_GATE: f64 = 0.25;

/// Slack on the `acc`-derived bound `‖(A − Ã)x‖ ≤ acc·‖A‖_F·‖x‖` for f32
/// round-off in the two products being compared.
pub const ACC_BOUND_SLACK: f64 = 2.0;

pub fn rng(seed: u64, stream: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

pub fn random_vector(rng: &mut ChaCha8Rng, n: usize) -> Vec<C32> {
    (0..n)
        .map(|_| C32::new(rng.gen_range(-1.0f32..1.0), rng.gen_range(-1.0f32..1.0)))
        .collect()
}

/// The fixed (seed-independent) probe the accuracy figures use.
pub fn probe_vector(n: usize) -> Vec<C32> {
    random_vector(&mut rng(0x5eed_0acc, 0), n)
}

pub fn dataset(size: Size, scale: usize, freq_stride: usize, sc: Scope<'_>) -> SyntheticDataset {
    let config = match size {
        Size::Full => DatasetConfig {
            scale,
            freq_stride,
            ..DatasetConfig::default()
        },
        Size::Smoke => DatasetConfig {
            scale,
            ..DatasetConfig::tiny()
        },
    };
    sc.time("wave.generate", || {
        SyntheticDataset::generate(config, VelocityModel::overthrust())
    })
}

/// `compress_dataset` rebuilt from its public pieces with a span around
/// each: the same rayon loop over frequencies, the same two calls per
/// frequency, so the stack is identical to the library's.
fn compress_stack_traced(
    ds: &SyntheticDataset,
    config: CompressionConfig,
    sc: Scope<'_>,
) -> Vec<TlrMatrix> {
    use rayon::prelude::*;
    (0..ds.n_freqs())
        .into_par_iter()
        .map(|f| {
            let kernel = sc.time("geom.reorder", || ds.reordered_kernel(f, Ordering::Hilbert));
            sc.time("core.compress", || compress(&kernel, config))
        })
        .collect()
}

/// Compress the dataset: the library call in the plain run, the rebuilt
/// loop in the traced one.
pub fn compress_stack(
    ds: &SyntheticDataset,
    config: CompressionConfig,
    sc: Scope<'_>,
) -> Vec<TlrMatrix> {
    if sc.on {
        compress_stack_traced(ds, config, sc)
    } else {
        seismic_mdd::compress_dataset(ds, config, Ordering::Hilbert)
    }
}

/// `a < b`, false when either is NaN — so `!below(x, limit)` fails a NaN.
pub fn below(a: f64, b: f64) -> bool {
    a < b
}

pub fn all_finite(v: &[C32]) -> bool {
    v.iter().all(|z| z.re.is_finite() && z.im.is_finite())
}

pub fn norm(v: &[C32]) -> f64 {
    v.iter()
        .map(|z| f64::from(z.norm_sqr()))
        .sum::<f64>()
        .sqrt()
}

pub fn diff_norm(a: &[C32], b: &[C32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| f64::from((*x - *y).norm_sqr()))
        .sum::<f64>()
        .sqrt()
}

pub fn bit_equal(a: &[C32], b: &[C32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// FNV-1a over the bit patterns — the job-output checksum.
pub fn checksum(v: &[C32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for z in v {
        for w in [z.re.to_bits(), z.im.to_bits()] {
            h = (h ^ u64::from(w)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn dotc(a: &[C32], b: &[C32]) -> (f64, f64) {
    a.iter().zip(b).fold((0.0, 0.0), |(re, im), (x, y)| {
        let p = x.conj() * *y;
        (re + f64::from(p.re), im + f64::from(p.im))
    })
}

/// Adjoint dot-product test `⟨Ax, y⟩ = ⟨x, Aᴴy⟩` on the fixed probes,
/// relative to `‖Ax‖·‖y‖`.
pub fn adjoint_mismatch<A: LinearOperator + ?Sized>(a: &A) -> f64 {
    let x = probe_vector(a.ncols());
    let y = random_vector(&mut rng(0x5eed_0acc, 1), a.nrows());
    let ax = a.apply(&x);
    let ahy = a.apply_adjoint(&y);
    let (l_re, l_im) = dotc(&ax, &y);
    let (r_re, r_im) = dotc(&x, &ahy);
    ((l_re - r_re).hypot(l_im - r_im)) / (norm(&ax) * norm(&y)).max(f64::MIN_POSITIVE)
}

/// Float round-off allowance of the adjoint test.
pub const ADJOINT_TOL: f64 = 1e-4;

/// `‖Ãx − Ax‖ / ‖Ax‖` for one frequency against its dense reordered
/// kernel, and whether it is inside the `acc`-derived bound.
pub fn dense_error(kernel: &Matrix<C32>, x: &[C32], y_tlr: &[C32], acc: f32) -> (f64, bool) {
    let mut y = vec![C32::new(0.0, 0.0); kernel.nrows()];
    gemv(kernel, x, &mut y);
    let err = diff_norm(y_tlr, &y);
    let bound = ACC_BOUND_SLACK * f64::from(acc) * f64::from(kernel.fro_norm()) * norm(x);
    (err / norm(&y).max(f64::MIN_POSITIVE), err <= bound)
}

/// Worst [`dense_error`] of a frequency-major sweep output `y = Ã x` over
/// the sampled frequencies, and whether every one is inside the bound.
pub fn sweep_dense_error(
    ds: &SyntheticDataset,
    ops: &seismic_mdd::FrequencyOperators,
    x: &[C32],
    y: &[C32],
    acc: f32,
) -> (f64, bool) {
    let (n_src, n_rec) = (ops.n_src(), ops.n_rec());
    let mut worst = 0.0f64;
    let mut within = true;
    for f in sampled_freqs(ops.n_freqs()) {
        let kernel = ds.reordered_kernel(f, Ordering::Hilbert);
        let (err, ok) = dense_error(
            &kernel,
            &x[f * n_rec..(f + 1) * n_rec],
            &y[f * n_src..(f + 1) * n_src],
            acc,
        );
        worst = worst.max(err);
        within &= ok;
    }
    (worst, within)
}

/// The two frequencies the dense comparisons sample: one low, one high.
pub fn sampled_freqs(n_freqs: usize) -> [usize; 2] {
    [n_freqs / 4, (3 * n_freqs / 4).min(n_freqs - 1)]
}
