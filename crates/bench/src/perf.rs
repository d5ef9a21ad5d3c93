//! Host-kernel microbenchmarks (`repro perfbench`), the `BENCH_*.json`
//! baseline schema, and the regression gate behind
//! `cargo run -p xtask -- perfgate`.
//!
//! The subsystem turns the repo's perf trajectory into data: a
//! median-of-N run over the representative host kernels is written as a
//! `BENCH_table2.json` document (committed at the repo root as the
//! baseline), and every later run is compared against it. A median
//! regression beyond [`GateThresholds::fail_pct`] fails the gate;
//! between `warn_pct` and `fail_pct` it warns. Each kernel also carries
//! a **trace-counter checksum** — an FNV-1a fold over the deterministic
//! trace counters (flops, §6.6 bytes, cycles, SRAM bytes, iterations,
//! calls, rank histogram; never nanoseconds) of one traced run — so the
//! gate can tell *accounting drift* (checksum mismatch: the kernel now
//! does different work) from *timing noise* (same checksum, slower
//! median).
//!
//! Median-of-N with a warmup is deliberately simple: these kernels run
//! milliseconds, the gate's job is catching 2× cliffs, and the 8/15 %
//! thresholds absorb host jitter. `PERFBENCH_REPS` overrides N for CI
//! smoke runs.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use seismic_la::blas::{gemv_acc, gemv_conj_transpose};
use seismic_la::scalar::C32;
use seismic_la::{Matrix, Scalar};
use seismic_mdd::{lsqr, Engine, EngineConfig, FrequencyOperators, JobSpec, LsqrOptions};
use tlr_mvm::{
    compress, gather, gemv_acc_fast, gemv_conj_transpose_fast, three_phase_cost, tlr_mvm_cost,
    trace, CommAvoiding, CompressionConfig, CompressionMethod, LinearOperator, ThreePhase,
    ToleranceMode,
};
use wse_sim::{execute_chunks, Cs2Config, Strategy};

use crate::jsonio::Json;

/// Version stamp of the `BENCH_*.json` document layout; bump on
/// incompatible schema changes (the gate refuses cross-version compares).
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Default sample count per kernel (median-of-N).
pub const DEFAULT_REPS: usize = 15;

/// Environment variable overriding the sample count (CI smoke runs).
pub const REPS_ENV: &str = "PERFBENCH_REPS";

/// Tile size all perfbench kernels run at.
const NB: usize = 16;

/// Toolchain/host provenance recorded next to the numbers, so a baseline
/// diff shows *where* it was measured.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostInfo {
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// Logical CPUs visible to the process (0 if unknown).
    pub cpus: u64,
    /// `debug` or `release`.
    pub profile: String,
    /// This crate's version at measurement time.
    pub pkg_version: String,
}

impl HostInfo {
    /// Capture the current process environment.
    pub fn current() -> Self {
        Self {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
            profile: if cfg!(debug_assertions) {
                "debug".to_string()
            } else {
                "release".to_string()
            },
            pkg_version: env!("CARGO_PKG_VERSION").to_string(),
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("os".to_string(), Json::str(&self.os)),
            ("arch".to_string(), Json::str(&self.arch)),
            ("cpus".to_string(), Json::u64(self.cpus)),
            ("profile".to_string(), Json::str(&self.profile)),
            ("pkg_version".to_string(), Json::str(&self.pkg_version)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            os: jstr(v, "os")?,
            arch: jstr(v, "arch")?,
            cpus: ju64(v, "cpus")?,
            profile: jstr(v, "profile")?,
            pkg_version: jstr(v, "pkg_version")?,
        })
    }
}

/// One kernel's measurement in a [`BenchReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct KernelResult {
    /// Kernel id, stable across runs (the gate joins on it).
    pub name: String,
    /// Samples taken (after warmup).
    pub reps: u64,
    /// Median wall time per op, nanoseconds.
    pub median_ns: u64,
    /// Fastest sample, nanoseconds.
    pub min_ns: u64,
    /// §6.6 relative (cache-model) bytes one op moves.
    pub relative_bytes_per_op: u64,
    /// Real FP32 flops one op performs (0 where flops aren't the point,
    /// e.g. compression).
    pub flops_per_op: u64,
    /// `relative_bytes_per_op / median_ns` → sustained GB/s.
    pub derived_gbps: f64,
    /// FNV-1a fold over the deterministic trace counters of one traced
    /// op (see module docs) — accounting drift detector.
    pub trace_checksum: u64,
}

impl KernelResult {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".to_string(), Json::str(&self.name)),
            ("reps".to_string(), Json::u64(self.reps)),
            ("median_ns".to_string(), Json::u64(self.median_ns)),
            ("min_ns".to_string(), Json::u64(self.min_ns)),
            (
                "relative_bytes_per_op".to_string(),
                Json::u64(self.relative_bytes_per_op),
            ),
            ("flops_per_op".to_string(), Json::u64(self.flops_per_op)),
            ("derived_gbps".to_string(), Json::f64(self.derived_gbps)),
            ("trace_checksum".to_string(), Json::u64(self.trace_checksum)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            name: jstr(v, "name")?,
            reps: ju64(v, "reps")?,
            median_ns: ju64(v, "median_ns")?,
            min_ns: ju64(v, "min_ns")?,
            relative_bytes_per_op: ju64(v, "relative_bytes_per_op")?,
            flops_per_op: ju64(v, "flops_per_op")?,
            derived_gbps: jf64(v, "derived_gbps")?,
            trace_checksum: ju64(v, "trace_checksum")?,
        })
    }
}

/// A complete `BENCH_*.json` document.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// [`BENCH_SCHEMA_VERSION`] at write time.
    pub schema_version: u64,
    /// Experiment tag (`table2`; names the baseline file).
    pub experiment: String,
    /// Where the numbers were measured.
    pub host: HostInfo,
    /// Per-kernel measurements, in run order.
    pub kernels: Vec<KernelResult>,
}

impl BenchReport {
    /// Serialize to the on-disk JSON tree.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema_version".to_string(), Json::u64(self.schema_version)),
            ("experiment".to_string(), Json::str(&self.experiment)),
            ("host".to_string(), self.host.to_json()),
            (
                "kernels".to_string(),
                Json::Arr(self.kernels.iter().map(KernelResult::to_json).collect()),
            ),
        ])
    }

    /// Deserialize from a parsed JSON tree.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let host = HostInfo::from_json(v.get("host").ok_or("missing field 'host'")?)?;
        let kernels = v
            .get("kernels")
            .and_then(Json::as_arr)
            .ok_or("missing or non-array field 'kernels'")?
            .iter()
            .map(KernelResult::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            schema_version: ju64(v, "schema_version")?,
            experiment: jstr(v, "experiment")?,
            host,
            kernels,
        })
    }

    /// Parse a `BENCH_*.json` document.
    pub fn parse(text: &str) -> Result<Self, String> {
        let tree = Json::parse(text).map_err(|e| e.to_string())?;
        Self::from_json(&tree)
    }

    /// Look up a kernel by name.
    pub fn kernel(&self, name: &str) -> Option<&KernelResult> {
        self.kernels.iter().find(|k| k.name == name)
    }
}

fn ju64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-u64 field '{key}'"))
}

fn jf64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-number field '{key}'"))
}

fn jstr(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field '{key}'"))
}

/// Write a report to `path` (pretty JSON, trailing newline).
pub fn write_bench_json(path: &Path, report: &BenchReport) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, report.to_json().to_pretty())
}

/// Read and parse a `BENCH_*.json` file.
pub fn read_bench_json(path: &Path) -> Result<BenchReport, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    BenchReport::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// FNV-1a fold over the deterministic counters of a trace report:
/// phase names, calls, flops, relative/absolute bytes, cycles, SRAM
/// bytes, iterations, and the rank histogram. Wall-clock fields are
/// excluded on purpose — the checksum must be identical across runs on
/// any host as long as the kernel does the same work.
pub fn counters_checksum(report: &trace::TraceReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for p in &report.phases {
        eat(p.name.as_bytes());
        for v in [
            p.stats.calls,
            p.stats.flops,
            p.stats.relative_bytes,
            p.stats.absolute_bytes,
            p.stats.cycles,
            p.stats.sram_bytes,
            p.stats.iterations,
        ] {
            eat(&v.to_le_bytes());
        }
    }
    for b in &report.rank_histogram {
        eat(&b.rank.to_le_bytes());
        eat(&b.tiles.to_le_bytes());
    }
    h
}

/// The smooth complex kernel all perfbench kernels operate on — same
/// family as the phase-breakdown kernel, sized so a full run stays in
/// the hundreds of milliseconds.
fn perf_matrix() -> Matrix<C32> {
    let (m, n) = (9 * NB, 7 * NB);
    Matrix::from_fn(m, n, |i, j| {
        let x = i as f32 / m as f32;
        let y = j as f32 / n as f32;
        let d = ((x - y) * (x - y) + 0.02).sqrt();
        C32::from_polar(1.0 / (1.0 + 3.0 * d), -9.0 * d)
    })
}

fn perf_x(n: usize) -> Vec<C32> {
    (0..n)
        .map(|i| C32::new((i as f32 * 0.17).sin(), (i as f32 * 0.31).cos()))
        .collect()
}

fn compression_config() -> CompressionConfig {
    CompressionConfig {
        nb: NB,
        acc: 1e-4,
        method: CompressionMethod::Svd,
        mode: ToleranceMode::RelativeTile,
    }
}

/// Median and minimum of `reps` timed calls (2 warmup calls first).
fn measure<F: FnMut()>(reps: usize, mut op: F) -> (u64, u64) {
    for _ in 0..2 {
        op();
    }
    let mut samples: Vec<u64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            op();
            u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .collect();
    samples.sort_unstable();
    (samples[samples.len() / 2], samples[0])
}

/// Run `op` once inside a private trace window and fold its counters.
/// Restores the collector (empty) and the enable flag on exit.
fn traced_checksum<F: FnMut()>(mut op: F) -> u64 {
    let was_enabled = trace::is_enabled();
    trace::reset();
    trace::set_enabled(true);
    op();
    trace::set_enabled(false);
    let sum = counters_checksum(&trace::snapshot());
    trace::reset();
    trace::set_enabled(was_enabled);
    sum
}

/// Effective sample count: [`REPS_ENV`] override or [`DEFAULT_REPS`].
pub fn reps_from_env() -> usize {
    std::env::var(REPS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_REPS)
}

/// Number of frequency bins in the `engine.*` kernels — the batched
/// multi-frequency sweep is measured at the "32+ frequencies" scale the
/// DESIGN.md §13 speedup claim is stated at.
pub const ENGINE_FREQS: usize = 32;

/// Concurrent jobs per op in the `engine.queue` kernel.
const ENGINE_QUEUE_JOBS: usize = 8;

/// Run the host-kernel microbenchmarks (five pipeline kernels, the
/// three fastpath ref/fast pairs, and the batched-engine trio
/// `engine.serial` / `engine.batch` / `engine.queue`) median-of-`reps`
/// and return the report (experiment tag `table2`, matching the
/// committed baseline's filename).
///
/// Owns the global trace collector while measuring checksums; call it
/// outside any `--trace` window.
pub fn run_perfbench(reps: usize) -> BenchReport {
    let a = perf_matrix();
    let (m, n) = (a.nrows(), a.ncols());
    let x = perf_x(n);
    let tlr = compress(&a, compression_config());
    let cost = tlr_mvm_cost(&tlr);
    let tp_cost = three_phase_cost(&tlr).total();
    let tp = ThreePhase::new(&tlr);
    let ca = CommAvoiding::new(&tlr);
    let chunks = ca.chunks(8);
    let cfg = Cs2Config::default();
    let b = tp.apply(&x);
    let lsqr_opts = LsqrOptions {
        max_iters: 8,
        rel_tol: 0.0,
        damp: 0.0,
    };

    let mut kernels = Vec::new();
    let mut push = |name: &str, rel_bytes: u64, flops: u64, op: &mut dyn FnMut()| {
        let checksum = traced_checksum(&mut *op);
        let (median_ns, min_ns) = measure(reps, &mut *op);
        kernels.push(KernelResult {
            name: name.to_string(),
            reps: reps as u64,
            median_ns,
            min_ns,
            relative_bytes_per_op: rel_bytes,
            flops_per_op: flops,
            derived_gbps: rel_bytes as f64 / median_ns.max(1) as f64,
            trace_checksum: checksum,
        });
    };

    // Dense input the compressor reads: 8 bytes per complex entry.
    let dense_bytes = 8 * (m as u64) * (n as u64);
    push("compress.svd.nb16", dense_bytes, 0, &mut || {
        let t = compress(&a, compression_config());
        std::hint::black_box(t.total_rank());
    });
    push(
        "three_phase.apply.nb16",
        tp_cost.relative_bytes,
        tp_cost.flops,
        &mut || {
            std::hint::black_box(tp.apply(&x));
        },
    );
    push(
        "comm_avoiding.apply.nb16",
        cost.relative_bytes,
        cost.flops,
        &mut || {
            std::hint::black_box(ca.apply(&x));
        },
    );
    // One functional exec counts its fmacs exactly; 1 fmac = 2 flops.
    let exec_flops = 2 * execute_chunks(&chunks, &x, m, NB, Strategy::FusedSinglePe, &cfg).fmacs;
    push(
        "wse.exec.sw8.nb16",
        cost.relative_bytes,
        exec_flops,
        &mut || {
            std::hint::black_box(execute_chunks(
                &chunks,
                &x,
                m,
                NB,
                Strategy::FusedSinglePe,
                &cfg,
            ));
        },
    );
    // 8 LSQR iterations ≈ 8 × (A + Aᴴ) applies.
    push(
        "lsqr.8iters.nb16",
        16 * cost.relative_bytes,
        16 * cost.flops,
        &mut || {
            std::hint::black_box(lsqr(&tlr, &b, lsqr_opts));
        },
    );

    // Fastpath `.ref` / `.fast` pairs: the plain `seismic_la` kernel and
    // its register-blocked `tlr_mvm::fastpath` counterpart on identical
    // operands. Committing both sides makes the win the blocking buys a
    // gated, re-measurable number instead of a claim.
    // Cache-resident operands (~240 KB matrix): the pairs measure the
    // kernel's compute shape, not the host's DRAM bandwidth — the
    // three-phase stacks these kernels actually serve are SRAM/L2-sized
    // per-PE work units, never multi-MB streams.
    let (gm, gn) = (192, 160);
    let ga = Matrix::from_fn(gm, gn, |i, j| {
        let d = (i as f32 / gm as f32 - j as f32 / gn as f32).abs() + 0.03;
        C32::from_polar(1.0 / (1.0 + 4.0 * d), -7.0 * d)
    });
    let gx_m = perf_x(gm);
    let gx_n = perf_x(gn);
    // Aᴴx streams the full matrix once: 8 bytes per complex entry; one
    // complex fmac per entry = 8 real flops.
    let gemv_bytes = 8 * (gm as u64) * (gn as u64);
    let gemv_flops = 8 * (gm as u64) * (gn as u64);
    let mut gy_n = vec![C32::ZERO; gn];
    push("gemv.vbatch.ref", gemv_bytes, gemv_flops, &mut || {
        gemv_conj_transpose(&ga, &gx_m, &mut gy_n);
        std::hint::black_box(gy_n[0]);
    });
    push("gemv.vbatch.fast", gemv_bytes, gemv_flops, &mut || {
        gemv_conj_transpose_fast(&ga, &gx_m, &mut gy_n);
        std::hint::black_box(gy_n[0]);
    });
    let mut gy_m = vec![C32::ZERO; gm];
    push("gemv.ubatch.ref", gemv_bytes, gemv_flops, &mut || {
        gemv_acc(&ga, &gx_n, &mut gy_m);
        std::hint::black_box(gy_m[0]);
    });
    push("gemv.ubatch.fast", gemv_bytes, gemv_flops, &mut || {
        gemv_acc_fast(&ga, &gx_n, &mut gy_m);
        std::hint::black_box(gy_m[0]);
    });
    // Phase-2 shuffle at three-phase scale: a dense permutation applied
    // as a gather (`dst[p] = src[idx[p]]`), 8 bytes read + 8 bytes
    // written per element, zero flops.
    let sn = 1usize << 12;
    let sidx: Vec<usize> = (0..sn).map(|p| (p * 40503 + 12345) & (sn - 1)).collect();
    let ssrc = perf_x(sn);
    let sbytes = 16 * (sn as u64);
    let mut sdst = vec![C32::ZERO; sn];
    push("shuffle.ref", sbytes, 0, &mut || {
        for (p, d) in sdst.iter_mut().enumerate() {
            *d = ssrc[sidx[p]];
        }
        std::hint::black_box(sdst[0]);
    });
    push("shuffle.fast", sbytes, 0, &mut || {
        gather(&mut sdst, &sidx, &ssrc);
        std::hint::black_box(sdst[0]);
    });

    // Batched multi-frequency engine vs the serial per-frequency loop —
    // the production `MdcOperator` path: one `TlrMatrix::apply`
    // (per-tile kernels, fresh buffers) per frequency. The batched
    // sweep runs the same math through prebuilt stacked layouts with
    // pooled scratch and the fastpath kernels. Committing the pair
    // makes the DESIGN.md §13 ≥1.3× claim a gated, re-measurable
    // number; `engine.queue` adds the scheduler's submit/steal/wait
    // overhead on top of the same work.
    let freq_tlr: Vec<_> = (0..ENGINE_FREQS)
        .map(|f| {
            let (fm, fnn) = (6 * NB, 5 * NB);
            let a = Matrix::from_fn(fm, fnn, |i, j| {
                let xi = i as f32 / fm as f32;
                let yj = j as f32 / fnn as f32;
                let d = ((xi - yj) * (xi - yj) + 0.02).sqrt();
                C32::from_polar(1.0 / (1.0 + 3.0 * d), -(4.0 + 0.25 * f as f32) * d)
            });
            compress(&a, compression_config())
        })
        .collect();
    let (mut ser_bytes, mut ser_flops, mut bat_bytes, mut bat_flops) = (0u64, 0u64, 0u64, 0u64);
    for t in &freq_tlr {
        let c = tlr_mvm_cost(t);
        ser_bytes += c.relative_bytes;
        ser_flops += c.flops;
        let tc = three_phase_cost(t).total();
        bat_bytes += tc.relative_bytes;
        bat_flops += tc.flops;
    }
    // One shard on the measurement host: sharding only pays when the
    // segments run on distinct cores, and the committed baselines come
    // from a single-CPU runner where the extra per-shard scratch
    // checkouts would be pure overhead.
    let ops = Arc::new(FrequencyOperators::build(&freq_tlr).with_shards(1));
    let ex = perf_x(ops.ncols_total());
    let n_rec = ops.n_rec();
    push("engine.serial", ser_bytes, ser_flops, &mut || {
        let mut y = Vec::with_capacity(freq_tlr.len() * freq_tlr[0].nrows());
        for (f, t) in freq_tlr.iter().enumerate() {
            y.extend_from_slice(&t.apply(&ex[f * n_rec..(f + 1) * n_rec]));
        }
        std::hint::black_box(y.len());
    });
    // The batched side holds the output buffer across calls — steady
    // state for a server sweeping the same frequency grid per request,
    // and exactly what `JobSpec::Mvm` amortises through pooled scratch.
    let mut ey = vec![C32::new(0.0, 0.0); ops.nrows_total()];
    push("engine.batch", bat_bytes, bat_flops, &mut || {
        ops.apply_all_frequencies_into(&ex, &mut ey);
        std::hint::black_box(ey[0]);
    });
    let engine = Engine::start(EngineConfig {
        workers: 2,
        queue_depth: 64,
        recorder: None,
    });
    push(
        "engine.queue",
        ENGINE_QUEUE_JOBS as u64 * bat_bytes,
        ENGINE_QUEUE_JOBS as u64 * bat_flops,
        &mut || {
            let handles: Vec<_> = (0..ENGINE_QUEUE_JOBS)
                .map(|_| {
                    engine.submit(JobSpec::Mvm {
                        ops: Arc::clone(&ops),
                        x: ex.clone(),
                    })
                })
                .collect();
            for h in handles {
                std::hint::black_box(h.wait().output.len());
            }
        },
    );
    drop(engine);

    // Flight-recorder overhead on the hottest engine kernel: the same
    // batched sweep with shard events off vs on. Committing the pair
    // makes DESIGN.md §14's ≤3% overhead claim a gated number — the
    // recorder's seqlock writes must stay invisible next to the MVM
    // work they annotate.
    let rec = tlr_mvm::telemetry::FlightRecorder::new(1, 1 << 10);
    push("telemetry.overhead.off", bat_bytes, bat_flops, &mut || {
        ops.apply_all_frequencies_recorded(&ex, &mut ey, None);
        std::hint::black_box(ey[0]);
    });
    push("telemetry.overhead.on", bat_bytes, bat_flops, &mut || {
        ops.apply_all_frequencies_recorded(
            &ex,
            &mut ey,
            Some(seismic_mdd::ShardRecorder {
                recorder: &rec,
                ring: 0,
                job: 0,
            }),
        );
        std::hint::black_box(ey[0]);
    });

    BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        experiment: "table2".to_string(),
        host: HostInfo::current(),
        kernels,
    }
}

/// Regression thresholds on the median, in percent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GateThresholds {
    /// Median regression beyond this fails the gate.
    pub fail_pct: f64,
    /// Median regression beyond this (but below `fail_pct`) warns.
    pub warn_pct: f64,
}

impl Default for GateThresholds {
    fn default() -> Self {
        Self {
            fail_pct: 15.0,
            warn_pct: 8.0,
        }
    }
}

/// Severity of one gate finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum GateLevel {
    /// Informational (improvements, new kernels' first appearance).
    Info,
    /// Suspicious but not blocking.
    Warn,
    /// Gate failure — nonzero exit.
    Fail,
}

/// One per-kernel verdict from [`compare_reports`].
#[derive(Clone, Debug)]
pub struct GateFinding {
    /// Kernel the finding is about (or `schema` for document-level
    /// problems).
    pub kernel: String,
    /// Severity.
    pub level: GateLevel,
    /// Median change vs baseline in percent (positive = slower); 0 for
    /// non-timing findings.
    pub change_pct: f64,
    /// Human-readable explanation.
    pub message: String,
}

/// The gate's full output.
#[derive(Clone, Debug, Default)]
pub struct GateOutcome {
    /// Every finding, in kernel order.
    pub findings: Vec<GateFinding>,
}

impl GateOutcome {
    /// Whether any finding fails the gate.
    pub fn failed(&self) -> bool {
        self.findings.iter().any(|f| f.level == GateLevel::Fail)
    }

    /// Names of the kernels with failing findings.
    pub fn failing_kernels(&self) -> Vec<&str> {
        self.findings
            .iter()
            .filter(|f| f.level == GateLevel::Fail)
            .map(|f| f.kernel.as_str())
            .collect()
    }
}

/// Ceiling on `gemv.vbatch.fast ÷ gemv.ubatch.fast` within one run.
///
/// Both kernels stream the same 192×160 matrix once, so the quotient
/// needs no baseline and no quiet machine: it is ≈1.1 while LLVM
/// vectorises the conjugated dot (DESIGN.md §12) and 3.4 when it runs
/// scalar, which is what a compiler upgrade that de-vectorises the loop
/// looks like. 2.0 sits between the two.
pub const VBATCH_OVER_UBATCH_MAX: f64 = 2.0;

/// Name the V-batch ÷ U-batch finding carries.
pub const VBATCH_OVER_UBATCH: &str = "gemv.vbatch.fast/gemv.ubatch.fast";

/// The within-run V-batch ÷ U-batch verdict for `run`, if it holds both
/// kernels and was measured on an optimised build (a debug build
/// vectorises nothing, so its quotient says nothing).
fn vbatch_over_ubatch(run: &BenchReport) -> Option<GateFinding> {
    let v = run.kernel("gemv.vbatch.fast")?.median_ns;
    let u = run.kernel("gemv.ubatch.fast")?.median_ns;
    if run.host.profile != "release" || u == 0 {
        return None;
    }
    let ratio = v as f64 / u as f64;
    let (level, verdict) = if ratio > VBATCH_OVER_UBATCH_MAX {
        (
            GateLevel::Fail,
            "the conjugated dot is no longer vectorised",
        )
    } else {
        (GateLevel::Info, "within the ceiling")
    };
    Some(GateFinding {
        kernel: VBATCH_OVER_UBATCH.to_string(),
        level,
        change_pct: 0.0,
        message: format!(
            "V-batch {v} ns/op ÷ U-batch {u} ns/op over the same bytes = {ratio:.2} \
             (ceiling {VBATCH_OVER_UBATCH_MAX:.1}): {verdict}"
        ),
    })
}

/// Compare a current run against the committed baseline.
///
/// Fails on: schema-version mismatch, a baseline kernel missing from the
/// current run, a trace-checksum mismatch (accounting drift), a
/// median regression beyond `t.fail_pct`, or the current run's own
/// V-batch ÷ U-batch quotient above [`VBATCH_OVER_UBATCH_MAX`]. Warns
/// between `warn_pct` and `fail_pct` and on kernels that exist only in
/// the current run. Improvements beyond `fail_pct` are reported as info
/// (consider re-baselining).
pub fn compare_reports(
    baseline: &BenchReport,
    current: &BenchReport,
    t: GateThresholds,
) -> GateOutcome {
    let mut out = GateOutcome::default();
    if baseline.schema_version != current.schema_version {
        out.findings.push(GateFinding {
            kernel: "schema".to_string(),
            level: GateLevel::Fail,
            change_pct: 0.0,
            message: format!(
                "schema version mismatch: baseline v{} vs current v{} — re-baseline",
                baseline.schema_version, current.schema_version
            ),
        });
        return out;
    }
    for base in &baseline.kernels {
        let Some(cur) = current.kernel(&base.name) else {
            out.findings.push(GateFinding {
                kernel: base.name.clone(),
                level: GateLevel::Fail,
                change_pct: 0.0,
                message: "kernel present in baseline but missing from current run".to_string(),
            });
            continue;
        };
        if cur.trace_checksum != base.trace_checksum {
            out.findings.push(GateFinding {
                kernel: base.name.clone(),
                level: GateLevel::Fail,
                change_pct: 0.0,
                message: format!(
                    "trace-counter checksum changed ({:#018x} → {:#018x}): the kernel \
                     does different work now — re-baseline if intentional",
                    base.trace_checksum, cur.trace_checksum
                ),
            });
            continue;
        }
        let change_pct = if base.median_ns == 0 {
            0.0
        } else {
            100.0 * (cur.median_ns as f64 - base.median_ns as f64) / base.median_ns as f64
        };
        let (level, message) = if change_pct > t.fail_pct {
            (
                GateLevel::Fail,
                format!(
                    "median regressed {change_pct:+.1}% ({} → {} ns/op), beyond the \
                     {:.0}% gate",
                    base.median_ns, cur.median_ns, t.fail_pct
                ),
            )
        } else if change_pct > t.warn_pct {
            (
                GateLevel::Warn,
                format!(
                    "median regressed {change_pct:+.1}% ({} → {} ns/op)",
                    base.median_ns, cur.median_ns
                ),
            )
        } else if change_pct < -t.fail_pct {
            (
                GateLevel::Info,
                format!(
                    "median improved {change_pct:+.1}% ({} → {} ns/op) — consider \
                     re-baselining",
                    base.median_ns, cur.median_ns
                ),
            )
        } else {
            (
                GateLevel::Info,
                format!("median within noise ({change_pct:+.1}%)"),
            )
        };
        out.findings.push(GateFinding {
            kernel: base.name.clone(),
            level,
            change_pct,
            message,
        });
    }
    for cur in &current.kernels {
        if baseline.kernel(&cur.name).is_none() {
            out.findings.push(GateFinding {
                kernel: cur.name.clone(),
                level: GateLevel::Warn,
                change_pct: 0.0,
                message: "new kernel with no committed baseline entry".to_string(),
            });
        }
    }
    out.findings.extend(vbatch_over_ubatch(current));
    out
}

// ---------------------------------------------------------------------
// BENCH_history.jsonl — the append-only perf trend ledger.
// ---------------------------------------------------------------------

/// Minimal JSON string escape for history records (names here are plain
/// identifiers, but a ledger writer must never emit malformed lines).
fn jsonl_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The short commit id of `HEAD`, or `"unknown"` outside a git checkout
/// — history records carry provenance without requiring one.
fn head_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One single-line JSON record of a perfbench run: schema, commit,
/// profile, and every kernel's median. `jsonio`'s pretty writer is
/// multi-line by design, so the ledger line is composed here — the
/// parser side reuses [`Json::parse`], which accepts any whitespace.
pub fn bench_history_line(report: &BenchReport) -> String {
    let mut line = format!(
        "{{\"schema\":{},\"commit\":\"{}\",\"experiment\":\"{}\",\"profile\":\"{}\",\"medians\":{{",
        report.schema_version,
        jsonl_escape(&head_commit()),
        jsonl_escape(&report.experiment),
        jsonl_escape(&report.host.profile),
    );
    for (i, k) in report.kernels.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!("\"{}\":{}", jsonl_escape(&k.name), k.median_ns));
    }
    line.push_str("}}");
    line
}

/// Append one [`bench_history_line`] record to the append-only ledger
/// (`BENCH_history.jsonl` at the workspace root), creating it on first
/// use. Existing lines are never rewritten — the file is the raw input
/// of `xtask perfgate --trend`.
pub fn append_bench_history(path: &Path, report: &BenchReport) -> io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{}", bench_history_line(report))
}

/// Parse one history line into `(commit, profile, kernel medians)`.
/// Unknown fields are ignored so the record format can grow.
pub fn parse_history_line(line: &str) -> Result<(String, String, Vec<(String, u64)>), String> {
    let doc = Json::parse(line).map_err(|e| format!("history line: {e}"))?;
    let commit = jstr(&doc, "commit").unwrap_or_else(|_| "unknown".to_string());
    let profile = jstr(&doc, "profile").unwrap_or_else(|_| "unknown".to_string());
    let medians = match doc.get("medians") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, v)| v.as_u64().map(|m| (k.clone(), m)))
            .collect(),
        _ => return Err("history line: missing medians object".to_string()),
    };
    Ok((commit, profile, medians))
}

/// Scan the history ledger for cumulative drift: for every kernel
/// present in both the first and the last same-profile record, report
/// the first→last median change when it exceeds `warn_pct` — slow creep
/// that no single perfgate run is large enough to flag. Returns the
/// warning strings (empty = no drift worth reporting); unparseable
/// lines are skipped, fewer than two comparable records is not an
/// error.
pub fn history_trend(path: &Path, warn_pct: f64) -> Result<Vec<String>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let records: Vec<(String, String, Vec<(String, u64)>)> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| parse_history_line(l).ok())
        .collect();
    let mut out = Vec::new();
    let Some(last) = records.last() else {
        return Ok(out);
    };
    let Some(first) = records.iter().find(|r| r.1 == last.1) else {
        return Ok(out);
    };
    if std::ptr::eq(first, last) {
        return Ok(out);
    }
    let span = records.iter().filter(|r| r.1 == last.1).count();
    for (name, base) in &first.2 {
        let Some((_, cur)) = last.2.iter().find(|(n, _)| n == name) else {
            continue;
        };
        if *base == 0 {
            continue;
        }
        let drift = 100.0 * (*cur as f64 - *base as f64) / *base as f64;
        if drift >= warn_pct {
            out.push(format!(
                "{name}: median drifted +{drift:.1}% over {span} runs \
                 ({base} -> {cur} ns/op, {} -> {})",
                first.0, last.0
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(kernels: Vec<KernelResult>) -> BenchReport {
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            experiment: "table2".to_string(),
            host: HostInfo::current(),
            kernels,
        }
    }

    fn kernel(name: &str, median_ns: u64, checksum: u64) -> KernelResult {
        KernelResult {
            name: name.to_string(),
            reps: 15,
            median_ns,
            min_ns: median_ns,
            relative_bytes_per_op: 1_000,
            flops_per_op: 2_000,
            derived_gbps: 1.0,
            trace_checksum: checksum,
        }
    }

    #[test]
    fn bench_report_roundtrips_through_jsonio() {
        let rep = report_with(vec![kernel("three_phase.apply.nb16", 123_456, u64::MAX)]);
        let text = rep.to_json().to_pretty();
        let back = BenchReport::parse(&text).expect("parse own output");
        assert_eq!(rep, back);
    }

    /// The acceptance-criterion self-test shape: a 2× synthetic slowdown
    /// must fail the gate and name the offending kernel.
    #[test]
    fn gate_fails_on_2x_slowdown_and_names_kernel() {
        let base = report_with(vec![
            kernel("compress.svd.nb16", 100_000, 1),
            kernel("lsqr.8iters.nb16", 50_000, 2),
        ]);
        let mut cur = base.clone();
        cur.kernels[1].median_ns *= 2;
        let out = compare_reports(&base, &cur, GateThresholds::default());
        assert!(out.failed());
        assert_eq!(out.failing_kernels(), vec!["lsqr.8iters.nb16"]);
        assert!(out.findings.iter().any(|f| f.change_pct > 99.0));
    }

    #[test]
    fn gate_warns_between_thresholds_and_passes_within_noise() {
        let base = report_with(vec![kernel("k", 100_000, 7)]);
        let mut warn = base.clone();
        warn.kernels[0].median_ns = 110_000; // +10%
        let out = compare_reports(&base, &warn, GateThresholds::default());
        assert!(!out.failed());
        assert!(out.findings.iter().any(|f| f.level == GateLevel::Warn));

        let mut ok = base.clone();
        ok.kernels[0].median_ns = 104_000; // +4%
        let out = compare_reports(&base, &ok, GateThresholds::default());
        assert!(out.findings.iter().all(|f| f.level == GateLevel::Info));
    }

    /// The within-run quotient needs no baseline movement to fail: the
    /// same report on both sides, V-batch at 2.5× U-batch, is rejected by
    /// name; at 1.5× it passes; a debug-profile run is not judged.
    #[test]
    fn gate_fails_on_vbatch_over_ubatch_ratio_within_one_run() {
        let with_ratio = |v_ns, profile: &str| {
            let mut rep = report_with(vec![
                kernel("gemv.vbatch.fast", v_ns, 1),
                kernel("gemv.ubatch.fast", 10_000, 2),
            ]);
            rep.host.profile = profile.to_string();
            rep
        };
        let slow = with_ratio(25_000, "release");
        let out = compare_reports(&slow, &slow, GateThresholds::default());
        assert_eq!(out.failing_kernels(), vec![VBATCH_OVER_UBATCH]);

        let fine = with_ratio(15_000, "release");
        assert!(!compare_reports(&fine, &fine, GateThresholds::default()).failed());

        let debug = with_ratio(90_000, "debug");
        assert!(!compare_reports(&debug, &debug, GateThresholds::default()).failed());
    }

    #[test]
    fn gate_fails_on_checksum_drift_and_missing_kernel() {
        let base = report_with(vec![kernel("a", 1_000, 1), kernel("b", 1_000, 2)]);
        let cur = report_with(vec![kernel("a", 1_000, 99)]);
        let out = compare_reports(&base, &cur, GateThresholds::default());
        assert!(out.failed());
        let failing = out.failing_kernels();
        assert!(failing.contains(&"a") && failing.contains(&"b"));
        assert!(out
            .findings
            .iter()
            .any(|f| f.message.contains("checksum changed")));
    }

    #[test]
    fn gate_fails_on_schema_mismatch() {
        let base = report_with(vec![kernel("a", 1_000, 1)]);
        let mut cur = base.clone();
        cur.schema_version += 1;
        let out = compare_reports(&base, &cur, GateThresholds::default());
        assert!(out.failed());
        assert_eq!(out.failing_kernels(), vec!["schema"]);
    }

    #[test]
    fn checksum_ignores_wall_clock_but_sees_counters() {
        use tlr_mvm::trace::{PhaseEntry, PhaseStats, TraceReport};
        let mk = |nanos: u64, flops: u64| TraceReport {
            phases: vec![PhaseEntry {
                name: "p".to_string(),
                stats: PhaseStats {
                    calls: 1,
                    nanos,
                    flops,
                    ..Default::default()
                },
            }],
            ..Default::default()
        };
        assert_eq!(
            counters_checksum(&mk(10, 100)),
            counters_checksum(&mk(999_999, 100)),
            "nanos must not affect the checksum"
        );
        assert_ne!(
            counters_checksum(&mk(10, 100)),
            counters_checksum(&mk(10, 101)),
            "flops must affect the checksum"
        );
    }

    /// The committed baseline must show the fastpath actually paying
    /// off: each `.fast` kernel at most 0.9x its `.ref` median on at
    /// least two of the three pairs.
    #[test]
    fn committed_baseline_shows_fastpath_speedup() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_table2.json");
        let text = std::fs::read_to_string(path).expect("committed BENCH_table2.json");
        let base = BenchReport::parse(&text).expect("baseline parses");
        let pairs = [
            ("gemv.vbatch.ref", "gemv.vbatch.fast"),
            ("gemv.ubatch.ref", "gemv.ubatch.fast"),
            ("shuffle.ref", "shuffle.fast"),
        ];
        let mut wins = 0;
        for (r, f) in pairs {
            let kr = base.kernel(r).unwrap_or_else(|| panic!("{r} in baseline"));
            let kf = base.kernel(f).unwrap_or_else(|| panic!("{f} in baseline"));
            if (kf.median_ns as f64) <= 0.9 * kr.median_ns as f64 {
                wins += 1;
            }
        }
        assert!(
            wins >= 2,
            "committed baseline shows >=10% median win on only {wins}/3 fastpath pairs"
        );
    }

    /// The committed baseline must hold the batched-engine claim
    /// (DESIGN.md §13): one batched multi-frequency sweep at least
    /// 1.3× faster than the serial per-frequency loop at
    /// [`ENGINE_FREQS`] = 32 frequencies. Like the fastpath pairs,
    /// this pins the measured number the docs cite — re-baselining
    /// below the floor fails the build, not just the gate.
    ///
    /// The committed pair predates PR 15: its `engine.serial` is the
    /// *old* tile path (`LowRank::apply_acc` over `la::blas`, one `Vec`
    /// per tile), so the 1.33× it records is stacked-and-fast against
    /// per-tile-and-slow. `TlrMatrix::apply` now runs the same two
    /// fastpath kernels as the stacked sweep. At this pair's `nb` 16,
    /// where a tile is a few hundred bytes and per-tile calls dominate,
    /// both medians fall together: four fresh `perfbench` runs in one
    /// calm stretch of the reference box read `engine.serial ÷
    /// engine.batch` 1.24–1.33 (the parent 1.14–1.37 beside them), so a
    /// re-bless lands *at* this floor rather than clear of it (at `nb`
    /// 64, out of cache, the tile path is within 12 % of the stacked
    /// one — DESIGN.md §13, EXPERIMENTS.md). The file is not re-blessed
    /// in PR 15; the PR that re-blesses it has to restate this floor as
    /// a small-`nb` overhead claim, or lower it.
    #[test]
    fn committed_baseline_shows_batched_engine_speedup() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_table2.json");
        let text = std::fs::read_to_string(path).expect("committed BENCH_table2.json");
        let base = BenchReport::parse(&text).expect("baseline parses");
        let serial = base
            .kernel("engine.serial")
            .expect("engine.serial in baseline");
        let batch = base
            .kernel("engine.batch")
            .expect("engine.batch in baseline");
        assert!(
            batch.median_ns as f64 * 1.3 <= serial.median_ns as f64,
            "batched sweep {} ns/op vs serial {} ns/op — under the 1.3x floor",
            batch.median_ns,
            serial.median_ns
        );
    }

    /// The committed baseline must hold DESIGN.md §14's overhead claim:
    /// the batched sweep with flight-recorder shard events enabled at
    /// most 3% slower than with the recorder off. This is the number
    /// that licenses leaving telemetry on in production serving.
    #[test]
    fn committed_baseline_holds_telemetry_overhead_under_3pct() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_table2.json");
        let text = std::fs::read_to_string(path).expect("committed BENCH_table2.json");
        let base = BenchReport::parse(&text).expect("baseline parses");
        let off = base
            .kernel("telemetry.overhead.off")
            .expect("telemetry.overhead.off in baseline");
        let on = base
            .kernel("telemetry.overhead.on")
            .expect("telemetry.overhead.on in baseline");
        assert!(
            on.median_ns as f64 <= 1.03 * off.median_ns as f64,
            "recorder-on sweep {} ns/op vs recorder-off {} ns/op — over the 3% budget",
            on.median_ns,
            off.median_ns
        );
    }

    /// A tiny end-to-end run: kernels measure, checksums are stable
    /// across two runs, and the report round-trips.
    #[test]
    fn perfbench_smoke_is_deterministic_in_counters() {
        let _g = crate::test_sync::trace_lock();
        let a = run_perfbench(1);
        let b = run_perfbench(1);
        assert_eq!(a.kernels.len(), 16);
        for (ka, kb) in a.kernels.iter().zip(&b.kernels) {
            assert_eq!(ka.name, kb.name);
            assert!(ka.median_ns > 0);
            assert_eq!(
                ka.trace_checksum, kb.trace_checksum,
                "{}: checksum must be run-to-run deterministic",
                ka.name
            );
        }
        let back = BenchReport::parse(&a.to_json().to_pretty()).expect("roundtrip");
        assert_eq!(a, back);
    }

    fn history_report(median: u64) -> BenchReport {
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            experiment: "table2_kernels".to_string(),
            host: HostInfo::current(),
            kernels: vec![KernelResult {
                name: "gemv.acc".to_string(),
                reps: 1,
                median_ns: median,
                min_ns: median,
                relative_bytes_per_op: 10,
                flops_per_op: 10,
                derived_gbps: 1.0,
                trace_checksum: 7,
            }],
        }
    }

    #[test]
    fn history_line_is_single_line_and_parses_back() {
        let line = bench_history_line(&history_report(1234));
        assert!(!line.contains('\n'), "must be one line: {line}");
        let (_, profile, medians) = parse_history_line(&line).expect("parses");
        assert_eq!(profile, HostInfo::current().profile);
        assert_eq!(medians, vec![("gemv.acc".to_string(), 1234)]);
    }

    #[test]
    fn history_trend_warns_on_cumulative_drift_only() {
        let dir = std::env::temp_dir().join(format!(
            "bench_history_test_{}_{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_history.jsonl");
        let _ = std::fs::remove_file(&path);
        // Three runs creeping 2% each: no single step trips perfgate,
        // but first -> last is ~6%.
        for m in [1000u64, 1020, 1061] {
            append_bench_history(&path, &history_report(m)).expect("append");
        }
        let warnings = history_trend(&path, 5.0).expect("trend");
        assert_eq!(warnings.len(), 1, "cumulative 6.1% must warn: {warnings:?}");
        assert!(warnings[0].contains("gemv.acc"));
        // A flat ledger stays quiet.
        let flat = dir.join("flat.jsonl");
        let _ = std::fs::remove_file(&flat);
        for _ in 0..3 {
            append_bench_history(&flat, &history_report(1000)).expect("append");
        }
        assert!(history_trend(&flat, 5.0).expect("trend").is_empty());
        // Appending never truncates: the ledger keeps all lines.
        let text = std::fs::read_to_string(&path).expect("ledger");
        assert_eq!(text.lines().count(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
