//! Host-kernel microbenchmarks (`repro perfbench`), the `BENCH_*.json`
//! document, and the comparison behind `cargo run -p xtask -- perfgate`.
//!
//! What this module judges is **exact or within one run**; absolute
//! timings are evidence only in `benchmark/` (fixed work, alternating
//! parent/change pairs, bounded). Two things live here that `benchmark/`
//! cannot hold:
//!
//! * a **trace-counter checksum** per kernel — an FNV-1a fold over the
//!   deterministic trace counters (flops, §6.6 bytes, cycles, SRAM
//!   bytes, iterations, calls, rank histogram; never nanoseconds) of one
//!   traced run (`benchmark/` keeps `tlr_mvm::trace` off). A mismatch
//!   against the committed `BENCH_table2.json` means the kernel does
//!   different work now. The committed file is the
//!   [`BenchReport::exact_projection`] of a run — names, byte/flop
//!   counts, checksums — so it reads the same from any machine;
//! * **quotients of two kernels measured seconds apart in the same run**
//!   ([`RATIO_ROWS`]): same bytes, same process, same neighbours, so the
//!   quotient needs no baseline and no quiet machine.
//!
//! The run artifact under `target/perf/` is the same document with the
//! host and the per-kernel timings kept, for the CI upload.
//! `PERFBENCH_REPS` overrides the median-of-N sample count for smoke
//! runs.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use seismic_la::blas::{gemv_acc, gemv_conj_transpose};
use seismic_la::scalar::C32;
use seismic_la::{Matrix, Scalar};
use seismic_mdd::{
    lsqr, Engine, EngineConfig, FrequencyOperators, JobSpec, LsqrOptions, MdcOperator,
};
use tlr_mvm::json::Json;
use tlr_mvm::json_fields;
use tlr_mvm::{
    compress, gather, gemv_acc_fast, gemv_conj_transpose_fast, three_phase_cost, tlr_mvm_cost,
    trace, CommAvoiding, CompressionConfig, CompressionMethod, LinearOperator, Skeleton,
    ThreePhase, Tile, Tiling, TlrMatrix, ToleranceMode,
};
use wse_sim::{execute_chunks, Cs2Config, Strategy};

/// Version stamp of the `BENCH_*.json` document layout. Schema 1
/// committed a host and absolute medians; [`BenchReport::from_json`]
/// refuses it.
pub const BENCH_SCHEMA_VERSION: u64 = 2;

/// Default sample count per kernel (median-of-N).
pub const DEFAULT_REPS: usize = 15;

/// Environment variable overriding the sample count (CI smoke runs).
pub const REPS_ENV: &str = "PERFBENCH_REPS";

/// Tile size all perfbench kernels run at.
const NB: usize = 16;

/// Toolchain/host provenance recorded next to a run's timings; the
/// committed exact projection carries none.
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
        json_fields!(self; os, arch, cpus, profile, pkg_version)
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

/// The wall-clock half of a [`KernelResult`]: present in a run, absent
/// from the committed exact projection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelTiming {
    /// Samples taken (after warmup).
    pub reps: u64,
    /// Median wall time per op, nanoseconds.
    pub median_ns: u64,
    /// Fastest sample, nanoseconds.
    pub min_ns: u64,
}

impl KernelTiming {
    /// Sustained GB/s of an op that moves `bytes`: `bytes / median_ns`.
    pub fn gbps(&self, bytes: u64) -> f64 {
        bytes as f64 / self.median_ns.max(1) as f64
    }
}

/// One kernel's entry in a [`BenchReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct KernelResult {
    /// Kernel id, stable across runs (the gate joins on it).
    pub name: String,
    /// §6.6 relative (cache-model) bytes one op moves.
    pub relative_bytes_per_op: u64,
    /// Real FP32 flops one op performs (0 where flops aren't the point,
    /// e.g. compression).
    pub flops_per_op: u64,
    /// FNV-1a fold over the deterministic trace counters of one traced
    /// op (see module docs) — accounting drift detector.
    pub trace_checksum: u64,
    /// How long it took, when this entry comes from a run.
    pub timing: Option<KernelTiming>,
}

impl KernelResult {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", self.name.as_str().into()),
            ("relative_bytes_per_op", self.relative_bytes_per_op.into()),
            ("flops_per_op", self.flops_per_op.into()),
            ("trace_checksum", self.trace_checksum.into()),
        ];
        if let Some(t) = self.timing {
            let gbps = t.gbps(self.relative_bytes_per_op);
            fields.extend([
                ("reps", t.reps.into()),
                ("median_ns", t.median_ns.into()),
                ("min_ns", t.min_ns.into()),
                ("derived_gbps", gbps.into()),
            ]);
        }
        Json::obj(fields)
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let timing = match v.get("median_ns") {
            Some(_) => Some(KernelTiming {
                reps: ju64(v, "reps")?,
                median_ns: ju64(v, "median_ns")?,
                min_ns: ju64(v, "min_ns")?,
            }),
            None => None,
        };
        Ok(Self {
            name: jstr(v, "name")?,
            relative_bytes_per_op: ju64(v, "relative_bytes_per_op")?,
            flops_per_op: ju64(v, "flops_per_op")?,
            trace_checksum: ju64(v, "trace_checksum")?,
            timing,
        })
    }
}

/// A complete `BENCH_*.json` document: a run (host and timings present)
/// or the exact projection of one (both absent).
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// [`BENCH_SCHEMA_VERSION`] at write time.
    pub schema_version: u64,
    /// Experiment tag (`table2`; names the baseline file).
    pub experiment: String,
    /// Where the timings were measured, when there are any.
    pub host: Option<HostInfo>,
    /// Per-kernel entries, in run order.
    pub kernels: Vec<KernelResult>,
}

impl BenchReport {
    /// Serialize to the on-disk JSON tree.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema_version", self.schema_version.into()),
            ("experiment", self.experiment.as_str().into()),
        ];
        if let Some(host) = &self.host {
            fields.push(("host", host.to_json()));
        }
        fields.push((
            "kernels",
            Json::arr(self.kernels.iter().map(KernelResult::to_json)),
        ));
        Json::obj(fields)
    }

    /// Deserialize from a parsed JSON tree.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let schema_version = ju64(v, "schema_version")?;
        if schema_version != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "schema version {schema_version}, this build reads {BENCH_SCHEMA_VERSION} — \
                 re-bless with `cargo run -p xtask -- perfgate --bless`"
            ));
        }
        let kernels = v
            .get("kernels")
            .and_then(Json::as_arr)
            .ok_or("missing or non-array field 'kernels'")?
            .iter()
            .map(KernelResult::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            schema_version,
            experiment: jstr(v, "experiment")?,
            host: v.get("host").map(HostInfo::from_json).transpose()?,
            kernels,
        })
    }

    /// Parse a `BENCH_*.json` document.
    pub fn parse(text: &str) -> Result<Self, String> {
        let tree = Json::parse(text).map_err(|e| e.to_string())?;
        Self::from_json(&tree)
    }

    /// The part of a run that is the same on every machine — kernel
    /// names, byte/flop counts, trace checksums — which is what is
    /// committed as `BENCH_table2.json`.
    pub fn exact_projection(&self) -> Self {
        Self {
            host: None,
            kernels: self
                .kernels
                .iter()
                .map(|k| KernelResult {
                    timing: None,
                    ..k.clone()
                })
                .collect(),
            ..self.clone()
        }
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

/// Frequencies in the `mdc.*` pass pair.
const PASS_FREQS: usize = 16;

/// The stack the `mdc.two_pass` / `mdc.one_pass` pair streams: 16
/// frequencies of 512×384 at `nb` 32, 12.25 MiB stored — past the 2 MiB L2
/// of either core of the reference box, so a second pass is a second
/// trip to L3. Assembled from closed-form factors (no compressor in a
/// smoke run): dense tiles on the diagonal, skeletons of rank 3–15
/// elsewhere, ranks rising with the frequency as a real stack's do.
fn pass_stack() -> Vec<TlrMatrix> {
    const NB: usize = 32;
    let tiling = Tiling::new(16 * NB, 12 * NB, NB);
    // Column `q` is a complex exponential of its own pitch: full column rank.
    let waves = |cols: usize, seed: usize| {
        Matrix::from_fn(NB, cols, |p, q| {
            let pitch = 0.2 + 0.13 * q as f32 + 0.01 * seed as f32;
            C32::from_polar(1.0 / (1.0 + q as f32), pitch * p as f32)
        })
    };
    (0..PASS_FREQS)
        .map(|f| {
            let tiles = (0..tiling.tile_cols())
                .flat_map(|j| (0..tiling.tile_rows()).map(move |i| (i, j)))
                .map(|(i, j)| {
                    if i == j {
                        return Tile::Dense(waves(NB, f + i));
                    }
                    let r = 3 + (5 * i + 3 * j) % 6 + f / 2;
                    Tile::LowRank(Skeleton::from_factors(&waves(r, i + f), &waves(r, j)))
                })
                .collect();
            let config = CompressionConfig {
                nb: NB,
                ..compression_config()
            };
            TlrMatrix::new(tiling, tiles, config)
        })
        .collect()
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

/// Number of frequency bins in the `engine.*` kernels (DESIGN.md §13).
pub const ENGINE_FREQS: usize = 32;

/// Concurrent jobs per op in the `engine.queue` kernel.
const ENGINE_QUEUE_JOBS: usize = 8;

/// Run the host-kernel microbenchmarks (five pipeline kernels, the
/// three fastpath ref/fast pairs, the batched-engine trio
/// `engine.serial` / `engine.batch` / `engine.queue`, the flight-recorder
/// pair and the `mdc.two_pass` / `mdc.one_pass` pair) median-of-`reps`
/// and return the run (experiment tag `table2`, matching the committed
/// file's name).
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
            relative_bytes_per_op: rel_bytes,
            flops_per_op: flops,
            trace_checksum: checksum,
            timing: Some(KernelTiming {
                reps: reps as u64,
                median_ns,
                min_ns,
            }),
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
    // 8 LSQR iterations are 8 fused calls: 8 forward and 8 adjoint
    // products in 8 passes over the operator.
    push(
        "lsqr.8iters.nb16",
        8 * cost.relative_bytes,
        16 * cost.flops,
        &mut || {
            std::hint::black_box(lsqr(&tlr, &b, lsqr_opts));
        },
    );

    // Fastpath `.ref` / `.fast` pairs: the plain `seismic_la` kernel and
    // its register-blocked `tlr_mvm::fastpath` counterpart on identical
    // operands, so [`RATIO_ROWS`] can read the win the blocking buys
    // off every run.
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

    // Batched multi-frequency engine vs the serial per-frequency loop:
    // one `TlrMatrix::apply` (fresh buffers) per frequency. The batched
    // sweep is `MdcOperator`'s — the same tile-fused kernels over the same
    // stack, one task per frequency, into a held buffer — so both declare
    // the same `tlr_mvm_cost`; `engine.queue` adds the scheduler's
    // submit/steal/wait overhead on top of the same work.
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
    let (mut op_bytes, mut op_flops) = (0u64, 0u64);
    for t in &freq_tlr {
        let c = tlr_mvm_cost(t);
        op_bytes += c.relative_bytes;
        op_flops += c.flops;
    }
    let ops = Arc::new(FrequencyOperators::build(&freq_tlr));
    let ex = perf_x(ops.ncols_total());
    let n_rec = ops.n_rec();
    push("engine.serial", op_bytes, op_flops, &mut || {
        let mut y = Vec::with_capacity(freq_tlr.len() * freq_tlr[0].nrows());
        for (f, t) in freq_tlr.iter().enumerate() {
            y.extend_from_slice(&t.apply(&ex[f * n_rec..(f + 1) * n_rec]));
        }
        std::hint::black_box(y.len());
    });
    // The batched side holds the output buffer across calls — steady
    // state for a server sweeping the same frequency grid per request.
    let mut ey = vec![C32::new(0.0, 0.0); ops.nrows_total()];
    push("engine.batch", op_bytes, op_flops, &mut || {
        ops.apply_all_frequencies_into(&ex, &mut ey);
        std::hint::black_box(ey[0]);
    });
    // The served MVM jobs with the flight recorder absent and present
    // (DESIGN.md §14): `telemetry.overhead.off` is `engine.queue` again,
    // `.on` the same jobs stamping their submit/start/finish events — the
    // recorder's locked writes must stay invisible next to the MVM work
    // they annotate.
    let queue_bytes = ENGINE_QUEUE_JOBS as u64 * op_bytes;
    let queue_flops = ENGINE_QUEUE_JOBS as u64 * op_flops;
    let recorded = Arc::new(tlr_mvm::telemetry::FlightRecorder::new(2, 1 << 10));
    for (name, recorder) in [
        ("engine.queue", None),
        ("telemetry.overhead.off", None),
        ("telemetry.overhead.on", Some(recorded)),
    ] {
        let engine = Engine::start(EngineConfig {
            workers: 2,
            queue_depth: 64,
            recorder,
        });
        push(name, queue_bytes, queue_flops, &mut || {
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
        });
    }

    // One LSQR iteration's operator work on a stack that does not fit L2,
    // as the two passes the provided default makes and as the one fused
    // sweep — the A/B `benchmark/` cannot show, its traced solve reaching
    // the operator through a wrapper that implements neither `_into` nor
    // the fused call. Same kernels, same flops; the second pass's bytes
    // are what the quotient reads.
    let stack = pass_stack();
    let pass_flops: u64 = stack.iter().map(|t| tlr_mvm_cost(t).flops).sum();
    let mdc = MdcOperator::new(stack.iter().collect::<Vec<&TlrMatrix>>());
    // What a pass reads is the store itself.
    let pass_bytes = mdc.stored_bytes() as u64;
    let pu = perf_x(mdc.nrows());
    let mut pv = perf_x(mdc.ncols());
    let mut pw = vec![C32::ZERO; mdc.nrows()];
    let mut pz = vec![C32::ZERO; mdc.ncols()];
    push("mdc.two_pass", 2 * pass_bytes, 2 * pass_flops, &mut || {
        mdc.apply_adjoint_into(&pu, &mut pz);
        for (vi, zi) in pv.iter_mut().zip(&pz) {
            *vi = *zi - vi.scale(0.5);
        }
        mdc.apply_into(&pv, &mut pw);
        std::hint::black_box(pw[0]);
    });
    push("mdc.one_pass", pass_bytes, 2 * pass_flops, &mut || {
        mdc.adjoint_then_apply_into(&pu, 0.5, &mut pv, &mut pw, &mut pz);
        std::hint::black_box(pw[0]);
    });

    BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        experiment: "table2".to_string(),
        host: Some(HostInfo::current()),
        kernels,
    }
}

/// Severity of one gate finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum GateLevel {
    /// Informational.
    Info,
    /// Suspicious but not blocking.
    Warn,
    /// Gate failure — nonzero exit.
    Fail,
}

/// One verdict of a gate comparison — [`compare_reports`] here,
/// `acc_experiments::compare_acc` for the accuracy gate.
#[derive(Clone, Debug)]
pub struct GateFinding {
    /// What the finding is about: a kernel, a ratio row, a sweep point,
    /// or `schema` / `document` for file-level problems.
    pub subject: String,
    /// Severity.
    pub level: GateLevel,
    /// Human-readable explanation.
    pub message: String,
}

/// A gate comparison's full output.
#[derive(Clone, Debug, Default)]
pub struct GateOutcome {
    /// Every finding, in baseline order.
    pub findings: Vec<GateFinding>,
}

impl GateOutcome {
    /// Whether any finding fails the gate.
    pub fn failed(&self) -> bool {
        self.findings.iter().any(|f| f.level == GateLevel::Fail)
    }

    /// Subjects of the failing findings (deduplicated — one subject can
    /// fail on several counts at once).
    pub fn failing(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .findings
            .iter()
            .filter(|f| f.level == GateLevel::Fail)
            .map(|f| f.subject.as_str())
            .collect();
        out.dedup();
        out
    }
}

/// One within-run quotient the gate reports: `numerator ÷ denominator`
/// medians of the same release run, failing above `ceiling` when there
/// is one.
#[derive(Clone, Copy, Debug)]
pub struct RatioRow {
    /// Kernel on top.
    pub numerator: &'static str,
    /// Kernel underneath — same bytes, measured seconds apart.
    pub denominator: &'static str,
    /// Largest quotient that passes; `None` reports without gating.
    pub ceiling: Option<f64>,
    /// What a quotient under the ceiling shows (or why there is none).
    pub claim: &'static str,
}

impl RatioRow {
    /// The subject its finding carries: `numerator/denominator`.
    pub fn name(&self) -> String {
        format!("{}/{}", self.numerator, self.denominator)
    }

    /// A release run of just this row's two kernels whose quotient reads
    /// `ratio` — what the table test and `perfgate --self-test` feed the
    /// gate to see the row fail and pass on its own.
    pub fn synthetic_run(&self, ratio: f64) -> BenchReport {
        const DENOMINATOR_NS: u64 = 1_000_000;
        let kernel = |name: &str, median_ns: u64| KernelResult {
            name: name.to_string(),
            relative_bytes_per_op: 0,
            flops_per_op: 0,
            trace_checksum: 0,
            timing: Some(KernelTiming {
                reps: 1,
                median_ns,
                min_ns: median_ns,
            }),
        };
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            experiment: "table2".to_string(),
            host: Some(HostInfo {
                profile: "release".to_string(),
                ..HostInfo::current()
            }),
            kernels: vec![
                kernel(self.numerator, (ratio * DENOMINATOR_NS as f64) as u64),
                kernel(self.denominator, DENOMINATOR_NS),
            ],
        }
    }
}

/// Every timing `perfgate` judges. A ceiling stands clear of the worst
/// of 67 fresh release runs on the 2-vCPU reference box (EXPERIMENTS.md,
/// "perfgate ratio rows") and below what the failure it names reads; a
/// quotient whose run-to-run spread reaches the value it would have to
/// separate from is reported, not gated.
pub const RATIO_ROWS: &[RatioRow] = &[
    RatioRow {
        numerator: "gemv.vbatch.fast",
        denominator: "gemv.ubatch.fast",
        ceiling: Some(2.0),
        claim: "the conjugated dot is vectorised (median 1.32, 0.85-1.97 over 67 runs; \
                2.65-3.41 when LLVM leaves it scalar)",
    },
    RatioRow {
        numerator: "gemv.vbatch.fast",
        denominator: "gemv.vbatch.ref",
        ceiling: Some(0.9),
        claim: "the blocked V-batch kernel beats the plain la::blas one \
                (median 0.33, 0.19-0.45 over 67 runs)",
    },
    RatioRow {
        numerator: "gemv.ubatch.fast",
        denominator: "gemv.ubatch.ref",
        ceiling: None,
        claim: "not gated: median 0.70 but 0.46-0.96 over 67 runs, which reaches the 1.0 \
                of a kernel that lost its blocking",
    },
    RatioRow {
        numerator: "shuffle.fast",
        denominator: "shuffle.ref",
        ceiling: None,
        claim: "not gated: the .ref side is a bare indexed loop whose codegen is LLVM's \
                (0.30-0.60 over 67 runs, 0.80-1.02 in the two records before PR 14)",
    },
    RatioRow {
        numerator: "engine.batch",
        denominator: "engine.serial",
        ceiling: None,
        claim: "not gated: both sides run the same tile-fused kernels, so this reads the \
                held output buffer and the one-task-per-frequency split only (with 8 \
                contiguous shards on the stacked copy the engine used to keep: median \
                0.79, 0.57-1.41 over 67 runs)",
    },
    RatioRow {
        numerator: "mdc.one_pass",
        denominator: "mdc.two_pass",
        ceiling: None,
        claim: "not gated: an LSQR iteration's adjoint and forward product as one sweep over \
                a 12 MiB stack against the two passes it replaces — the same kernels, so \
                this reads the second pass's bytes (0.71 / 0.80 / 1.11 over 12 runs; \
                EXPERIMENTS.md, PR 22)",
    },
    RatioRow {
        numerator: "telemetry.overhead.on",
        denominator: "telemetry.overhead.off",
        ceiling: None,
        claim: "not gated: eight served MVM jobs with the recorder stamping their job \
                events against the same jobs without it (on per-shard events of one \
                sweep: median 1.00 but 0.79-1.58 over 67 runs, wider than any recorder \
                budget worth stating)",
    },
];

/// The [`RATIO_ROWS`] verdicts for `run`: nothing unless it was timed on
/// an optimised build (a debug build vectorises nothing, so its
/// quotients say nothing), and nothing for a row whose kernels are
/// missing, untimed, or whose denominator read zero.
fn ratio_findings(run: &BenchReport) -> Vec<GateFinding> {
    if run.host.as_ref().is_none_or(|h| h.profile != "release") {
        return Vec::new();
    }
    let median = |name: &str| Some(run.kernel(name)?.timing?.median_ns);
    RATIO_ROWS
        .iter()
        .filter_map(|row| {
            let (n, d) = (median(row.numerator)?, median(row.denominator)?);
            if d == 0 {
                return None;
            }
            let ratio = n as f64 / d as f64;
            let (level, verdict) = match row.ceiling {
                Some(c) if ratio > c => (GateLevel::Fail, format!("over the {c:.1} ceiling")),
                Some(c) => (GateLevel::Info, format!("within the {c:.1} ceiling")),
                None => (GateLevel::Info, "no ceiling".to_string()),
            };
            Some(GateFinding {
                subject: row.name(),
                level,
                message: format!(
                    "{n} ns/op ÷ {d} ns/op = {ratio:.2}, {verdict} — {}",
                    row.claim
                ),
            })
        })
        .collect()
}

/// Compare a current run against the committed exact projection.
///
/// Fails on: schema-version mismatch, a baseline kernel missing from the
/// current run, a trace-checksum mismatch (accounting drift), or one of
/// the current run's own [`RATIO_ROWS`] quotients above its ceiling.
/// Warns on kernels that exist only in the current run. No median is
/// compared with the baseline, which holds none.
pub fn compare_reports(baseline: &BenchReport, current: &BenchReport) -> GateOutcome {
    let mut out = GateOutcome::default();
    if baseline.schema_version != current.schema_version {
        out.findings.push(GateFinding {
            subject: "schema".to_string(),
            level: GateLevel::Fail,
            message: format!(
                "schema version mismatch: baseline v{} vs current v{} — re-bless",
                baseline.schema_version, current.schema_version
            ),
        });
        return out;
    }
    for base in &baseline.kernels {
        let (level, message) = match current.kernel(&base.name) {
            None => (
                GateLevel::Fail,
                "kernel present in baseline but missing from current run".to_string(),
            ),
            Some(cur) if cur.trace_checksum != base.trace_checksum => (
                GateLevel::Fail,
                format!(
                    "trace-counter checksum changed ({:#018x} → {:#018x}): the kernel \
                     does different work now — re-bless if intentional",
                    base.trace_checksum, cur.trace_checksum
                ),
            ),
            Some(cur) => (
                GateLevel::Info,
                format!(
                    "trace-counter checksum {:#018x} reproduced",
                    cur.trace_checksum
                ),
            ),
        };
        out.findings.push(GateFinding {
            subject: base.name.clone(),
            level,
            message,
        });
    }
    for cur in &current.kernels {
        if baseline.kernel(&cur.name).is_none() {
            out.findings.push(GateFinding {
                subject: cur.name.clone(),
                level: GateLevel::Warn,
                message: "new kernel with no committed baseline entry".to_string(),
            });
        }
    }
    out.findings.extend(ratio_findings(current));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(kernels: Vec<KernelResult>) -> BenchReport {
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            experiment: "table2".to_string(),
            host: Some(HostInfo::current()),
            kernels,
        }
    }

    fn kernel(name: &str, median_ns: u64, checksum: u64) -> KernelResult {
        KernelResult {
            name: name.to_string(),
            relative_bytes_per_op: 1_000,
            flops_per_op: 2_000,
            trace_checksum: checksum,
            timing: Some(KernelTiming {
                reps: 15,
                median_ns,
                min_ns: median_ns,
            }),
        }
    }

    fn committed_baseline() -> BenchReport {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_table2.json");
        let text = std::fs::read_to_string(path).expect("committed BENCH_table2.json");
        BenchReport::parse(&text).expect("baseline parses as the current schema")
    }

    /// One document, one writer, one parser: a run round-trips with its
    /// timings, its exact projection round-trips without them, the old
    /// host-specific schema is refused, and a run is clean against its
    /// own projection.
    #[test]
    fn run_and_exact_projection_share_writer_and_parser() {
        let run = report_with(vec![kernel("three_phase.apply.nb16", 123_456, u64::MAX)]);
        let text = run.to_json().to_pretty();
        assert_eq!(BenchReport::parse(&text).expect("parse own output"), run);

        let exact = run.exact_projection();
        let text = exact.to_json().to_pretty();
        for timing_field in ["host", "reps", "median_ns", "min_ns", "derived_gbps"] {
            assert!(!text.contains(timing_field), "{timing_field} in {text}");
        }
        let back = BenchReport::parse(&text).expect("parses without timing fields");
        assert_eq!(back, exact);
        assert_eq!(back.kernels[0].trace_checksum, u64::MAX);
        assert!(back.host.is_none() && back.kernels[0].timing.is_none());

        let schema1 = text.replace("\"schema_version\": 2", "\"schema_version\": 1");
        assert_ne!(schema1, text);
        let err = BenchReport::parse(&schema1).expect_err("schema 1 is refused");
        assert!(err.contains("re-bless"), "{err}");

        let out = compare_reports(&exact, &run);
        assert!(out.findings.iter().all(|f| f.level == GateLevel::Info));
    }

    /// A checksum one past `u64::MAX` is an error naming the field, not
    /// a report that silently holds `u64::MAX`.
    #[test]
    fn a_checksum_that_overflows_u64_is_refused_not_saturated() {
        let exact = report_with(vec![kernel("gemv.ubatch.fast", 1, u64::MAX)]).exact_projection();
        let text = exact.to_json().to_pretty();
        let path = std::env::temp_dir().join(format!("tlr-bench-{}.json", std::process::id()));
        for (lexeme, ok) in [
            ("18446744073709551615", true),
            ("18446744073709551616", false),
            ("1.8446744073709552e19", false),
        ] {
            std::fs::write(&path, text.replace("18446744073709551615", lexeme)).expect("written");
            let read = read_bench_json(&path);
            match (ok, read) {
                (true, read) => assert_eq!(read.as_ref(), Ok(&exact)),
                (false, Err(e)) => assert!(e.contains("'trace_checksum'"), "{e}"),
                (false, Ok(r)) => panic!("{lexeme} read back as {}", r.kernels[0].trace_checksum),
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Absolute medians are not this gate's evidence: two reports 100×
    /// apart in time with equal checksums compare clean.
    #[test]
    fn medians_100x_apart_with_equal_checksums_compare_clean() {
        let base = report_with(vec![
            kernel("compress.svd.nb16", 100_000, 1),
            kernel("lsqr.8iters.nb16", 50_000, 2),
        ]);
        let mut cur = base.clone();
        for k in &mut cur.kernels {
            let t = k.timing.as_mut().expect("timed");
            t.median_ns *= 100;
            t.min_ns *= 100;
        }
        for out in [compare_reports(&base, &cur), compare_reports(&cur, &base)] {
            assert!(
                out.findings.iter().all(|f| f.level == GateLevel::Info),
                "{:?}",
                out.findings
            );
        }
    }

    /// Walks [`RATIO_ROWS`]: a gated row fails just over its ceiling by
    /// its own name and passes just under; an ungated row never fails;
    /// no row is judged on a debug build or over a zero denominator.
    #[test]
    fn every_ratio_row_gates_at_its_ceiling_or_not_at_all() {
        let verdict = |run: &BenchReport| compare_reports(&run.exact_projection(), run);
        for row in RATIO_ROWS {
            let name = row.name();
            let Some(ceiling) = row.ceiling else {
                let out = verdict(&row.synthetic_run(50.0));
                assert!(!out.failed(), "{name} has no ceiling");
                assert!(out.findings.iter().any(|f| f.subject == name));
                continue;
            };
            let over = row.synthetic_run(1.01 * ceiling);
            assert_eq!(verdict(&over).failing(), vec![name.as_str()]);
            let out = verdict(&row.synthetic_run(0.99 * ceiling));
            assert!(!out.failed(), "{name} just under its ceiling");
            assert!(out.findings.iter().any(|f| f.subject == name));

            let mut debug = over.clone();
            debug.host.as_mut().expect("host").profile = "debug".to_string();
            let mut zero = over.clone();
            zero.kernels[1].timing.as_mut().expect("timed").median_ns = 0;
            for skipped in [debug, zero] {
                let out = verdict(&skipped);
                assert!(out.findings.iter().all(|f| f.subject != name), "{name}");
            }
        }
        let gated = RATIO_ROWS.iter().filter(|r| r.ceiling.is_some()).count();
        assert!(
            0 < gated && gated < RATIO_ROWS.len(),
            "both kinds of row walked"
        );
    }

    #[test]
    fn gate_fails_on_checksum_drift_and_missing_kernel() {
        let base = report_with(vec![kernel("a", 1_000, 1), kernel("b", 1_000, 2)]);
        let cur = report_with(vec![kernel("a", 1_000, 99)]);
        let out = compare_reports(&base, &cur);
        assert!(out.failed());
        assert_eq!(out.failing(), vec!["a", "b"]);
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
        let out = compare_reports(&base, &cur);
        assert!(out.failed());
        assert_eq!(out.failing(), vec!["schema"]);
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

    /// A tiny end-to-end run: kernels measure, checksums are stable
    /// across two runs, and its exact projection is the committed
    /// `BENCH_table2.json` — same 18 kernels, same counts, same
    /// checksums, on whatever machine and profile the test runs.
    #[test]
    fn perfbench_smoke_is_deterministic_in_counters() {
        let _g = crate::test_sync::trace_lock();
        let a = run_perfbench(1);
        let b = run_perfbench(1);
        assert_eq!(a.kernels.len(), 18);
        for (ka, kb) in a.kernels.iter().zip(&b.kernels) {
            assert_eq!(ka.name, kb.name);
            assert!(ka.timing.is_some_and(|t| t.median_ns > 0));
            assert_eq!(
                ka.trace_checksum, kb.trace_checksum,
                "{}: checksum must be run-to-run deterministic",
                ka.name
            );
        }
        assert_eq!(a.exact_projection(), committed_baseline());
    }
}
