//! MDD-quality experiments: Fig. 11 (adjoint vs inversion vs truth),
//! Fig. 12 (accuracy/compression trade-off), Fig. 13 (zero-offset
//! sections with multiple suppression).
//!
//! These run on the laptop-scale synthetic Overthrust dataset (the paper's
//! geometry divided by `scale`), with the paper's actual `nb` and `acc`
//! values.

use seis_wave::{DatasetConfig, SyntheticDataset, VelocityModel};
use seismic_geom::Ordering;
use seismic_mdd::{
    classify, compress_dataset, nmse_change_pct, run_mdd_with_operators, zero_offset_sections,
    LsqrOptions, MddConfig, QualityRegion,
};
use tlr_mvm::json::Json;
use tlr_mvm::json_fields;
use tlr_mvm::{CompressionConfig, CompressionMethod, ToleranceMode};

/// The geometry downscale factor when `REPRO_SCALE` is unset.
pub const DEFAULT_SCALE: usize = 12;

/// The geometry downscale factor: `REPRO_SCALE` (at least 2), or
/// [`DEFAULT_SCALE`] when it is unset — the one place the variable is
/// read. Smaller is a bigger problem: `REPRO_SCALE=6` quadruples the
/// station count. A value that is not a whole number is an error naming
/// it; `repro` refuses it before running anything.
pub fn repro_scale() -> Result<usize, String> {
    let Some(v) = std::env::var_os("REPRO_SCALE") else {
        return Ok(DEFAULT_SCALE);
    };
    let v = v.to_string_lossy();
    v.parse::<usize>()
        .map(|scale| scale.max(2))
        .map_err(|_| format!("REPRO_SCALE='{v}' is not a whole number"))
}

/// The laptop-scale dataset used by all MDD experiments, at
/// [`repro_scale`] (or [`DEFAULT_SCALE`] if that is malformed, which
/// `repro` has refused before any experiment runs).
pub fn default_dataset() -> SyntheticDataset {
    let scale = repro_scale().unwrap_or(DEFAULT_SCALE);
    SyntheticDataset::generate(
        DatasetConfig {
            scale,
            nt: 256,
            dt: 0.008,
            f_flat: 10.0,
            f_max: 12.0,
            freq_stride: 1,
            n_water_multiples: 2,
            station_spacing: 30.0,
        },
        VelocityModel::overthrust(),
    )
}

/// Tolerance bridge between the paper's scale and ours: the paper's
/// 26040×15930 ill-posed system amplifies operator perturbations ~100×
/// more than our 180×98 laptop system, so the paper's `acc` labels map to
/// `ACC_SCALE × acc` effective tolerances to land in the same
/// solution-quality regime (the Fig. 12 green→orange→red transition).
/// Measured by sweeping acc on this dataset: NMSE is flat below 1e-2 and
/// degrades a few percent per 1e-2 beyond it, mirroring the paper's
/// behaviour over 1e-4…7e-4.
pub const ACC_SCALE: f32 = 50.0;

/// MDD experiment configuration for a `(nb, acc)` point (effective acc).
pub fn mdd_config(nb: usize, acc: f32) -> MddConfig {
    MddConfig {
        compression: CompressionConfig {
            nb,
            acc,
            method: CompressionMethod::Svd,
            mode: ToleranceMode::RelativeTile,
        },
        ordering: Ordering::Hilbert,
        lsqr: LsqrOptions {
            max_iters: 30,
            rel_tol: 0.0,
            damp: 0.0,
        },
    }
}

/// One Fig. 11 panel summary.
#[derive(Clone, Debug)]
pub struct Fig11Result {
    /// Tile size.
    pub nb: usize,
    /// Paper-label compression accuracy (effective = label × ACC_SCALE).
    pub acc: f32,
    /// NMSE of the scaled adjoint (panel a) vs ground truth (panel d).
    pub nmse_adjoint: f64,
    /// NMSE of the inversion (panels b/c).
    pub nmse_inverse: f64,
    /// LSQR iterations.
    pub iterations: usize,
    /// Final LSQR residual estimate.
    pub final_residual: f32,
    /// Compression ratio achieved on this dataset.
    pub compression_ratio: f64,
}

impl Fig11Result {
    /// The row as a [`Json`] object, one key per field.
    pub fn to_json(&self) -> Json {
        json_fields!(self;
            nb, acc, nmse_adjoint, nmse_inverse, iterations, final_residual, compression_ratio
        )
    }
}

/// Fig. 11: adjoint and inversion at `acc = 1e-4` and `acc = 7e-4`
/// (`nb = 70`), vs ground truth. When `dump_panels` is set, the four
/// panels (adjoint / inverse×2 / truth) are written as CSV gathers under
/// `target/repro/` — the paper's wiggle displays in machine-readable form.
pub fn fig11_with_panels(ds: &SyntheticDataset, dump_panels: bool) -> Vec<Fig11Result> {
    use seismic_mdd::{gather_panel, write_panel_csv, PanelField};
    let vs = ds.acq.n_receivers() / 2;
    [1e-4f32, 7e-4]
        .iter()
        .map(|&acc| {
            let cfg = mdd_config(70, acc * ACC_SCALE);
            let tlr = compress_dataset(ds, cfg.compression, cfg.ordering);
            let run = run_mdd_with_operators(ds, &tlr, vs, &cfg);
            if dump_panels {
                let dir = std::path::Path::new("target/repro");
                for (field, name) in [
                    (PanelField::Adjoint, "adjoint"),
                    (PanelField::Inverted, "inverse"),
                    (PanelField::Truth, "truth"),
                ] {
                    let panel = gather_panel(&run, ds, field);
                    let path = dir.join(format!("fig11_{name}_acc{acc:.0e}.csv"));
                    let _ = write_panel_csv(&path, &panel, ds.config.dt);
                }
            }
            Fig11Result {
                nb: 70,
                acc,
                nmse_adjoint: run.nmse_adjoint,
                nmse_inverse: run.nmse_inverse,
                iterations: run.iterations,
                final_residual: run.residual_history.last().copied().unwrap_or(0.0),
                compression_ratio: run.compression.ratio,
            }
        })
        .collect()
}

/// Fig. 11 without panel dumps.
pub fn fig11(ds: &SyntheticDataset) -> Vec<Fig11Result> {
    fig11_with_panels(ds, false)
}

/// One Fig. 12 sweep point.
#[derive(Clone, Debug)]
pub struct Fig12Row {
    /// Tile size.
    pub nb: usize,
    /// Paper-label accuracy threshold (effective = label × ACC_SCALE).
    pub acc: f32,
    /// Inversion NMSE.
    pub nmse: f64,
    /// % NMSE change vs the benchmark (nb = 70, acc = 1e-4).
    pub nmse_change_pct: f64,
    /// Quality region (green/orange/red).
    pub region: QualityRegion,
    /// Compressed bytes of the whole operator stack (laptop scale).
    pub compressed_bytes: usize,
    /// Dense-to-compressed ratio.
    pub ratio: f64,
    /// Tiles stored dense rather than as factors, whole stack.
    pub dense_tiles: usize,
    /// All tiles of the stack.
    pub tiles: usize,
    /// Compressed bytes per frequency matrix (ascending frequency).
    pub bytes_per_freq: Vec<usize>,
}

impl Fig12Row {
    /// The row as a [`Json`] object, one key per field.
    pub fn to_json(&self) -> Json {
        json_fields!(self;
            nb, acc, nmse, nmse_change_pct, region => format!("{:?}", self.region).into(),
            compressed_bytes, ratio, dense_tiles, tiles,
            bytes_per_freq => Json::arr(self.bytes_per_freq.iter().map(Json::from))
        )
    }
}

/// Fig. 12: the `nb × acc` sweep against the `nb = 70, acc = 1e-4`
/// benchmark solution.
pub fn fig12(ds: &SyntheticDataset) -> Vec<Fig12Row> {
    let vs = ds.acq.n_receivers() / 2;
    let bench_cfg = mdd_config(70, 1e-4 * ACC_SCALE);
    let bench_tlr = compress_dataset(ds, bench_cfg.compression, bench_cfg.ordering);
    let bench_run = run_mdd_with_operators(ds, &bench_tlr, vs, &bench_cfg);
    let bench_nmse = bench_run.nmse_inverse;

    let mut rows = Vec::new();
    for &nb in &[25usize, 50, 70] {
        for &acc in &[1e-4f32, 3e-4, 5e-4, 7e-4] {
            let cfg = mdd_config(nb, acc * ACC_SCALE);
            let tlr = compress_dataset(ds, cfg.compression, cfg.ordering);
            let run = run_mdd_with_operators(ds, &tlr, vs, &cfg);
            let change = nmse_change_pct(run.nmse_inverse, bench_nmse);
            let bytes_per_freq: Vec<usize> = tlr.iter().map(|m| m.compressed_bytes()).collect();
            rows.push(Fig12Row {
                nb,
                acc,
                nmse: run.nmse_inverse,
                nmse_change_pct: change,
                region: classify(change),
                compressed_bytes: run.compression.compressed_bytes,
                ratio: run.compression.ratio,
                dense_tiles: run.compression.dense_tiles,
                tiles: tlr.iter().map(|m| m.tiling().tile_count()).sum(),
                bytes_per_freq,
            });
        }
    }
    rows
}

/// Whole-application host benchmark row (§6.2's "results reported on
/// basis of whole application"): dense vs TLR operator in the same
/// 30-iteration LSQR inversion.
#[derive(Clone, Debug)]
pub struct AppBenchRow {
    /// Operator label.
    pub operator: String,
    /// Wall-clock seconds for the inversion.
    pub seconds: f64,
    /// Operator storage bytes.
    pub operator_bytes: usize,
    /// Inversion NMSE vs ground truth.
    pub nmse: f64,
}

impl AppBenchRow {
    /// The row as a [`Json`] object, one key per field.
    pub fn to_json(&self) -> Json {
        json_fields!(self; operator, seconds, operator_bytes, nmse)
    }
}

/// Run the full MDD inversion with the dense operator and with TLR at
/// the paper's three tile sizes; report time, memory, quality.
pub fn app_bench(ds: &SyntheticDataset) -> Vec<AppBenchRow> {
    use seismic_la::scalar::C32;
    use seismic_la::Matrix;
    use seismic_mdd::{lsqr, MdcOperator};

    let vs = ds.acq.n_receivers() / 2;
    let (rows, cols) = ds.permutations(Ordering::Hilbert);
    let n_rec = ds.acq.n_receivers();
    let y_perm: Vec<C32> = ds
        .observed_data(vs)
        .iter()
        .flat_map(|yf| rows.apply(yf))
        .collect();
    let x_true: Vec<C32> = ds.true_reflectivity(vs).concat();
    let lsqr_opts = LsqrOptions {
        max_iters: 30,
        rel_tol: 0.0,
        damp: 0.0,
    };
    let nf = ds.n_freqs();
    let unpermute = |data: &[C32]| -> Vec<C32> {
        (0..nf)
            .flat_map(|f| cols.unapply(&data[f * n_rec..(f + 1) * n_rec]))
            .collect()
    };

    let mut out = Vec::new();

    // Dense baseline.
    let dense: Vec<Matrix<C32>> = (0..nf)
        .map(|f| ds.reordered_kernel(f, Ordering::Hilbert))
        .collect();
    let dense_bytes: usize = dense.iter().map(|m| m.len() * 8).sum();
    let op = MdcOperator::new(dense.iter().collect::<Vec<_>>());
    let t0 = std::time::Instant::now();
    let sol = lsqr(&op, &y_perm, lsqr_opts);
    let dt = t0.elapsed().as_secs_f64();
    let x = unpermute(&sol.x);
    out.push(AppBenchRow {
        operator: "dense".to_string(),
        seconds: dt,
        operator_bytes: dense_bytes,
        nmse: seismic_mdd::nmse(&x, &x_true),
    });
    drop(op);
    drop(dense);

    // TLR at the paper's tile sizes (effective tolerance, see ACC_SCALE).
    for nb in [25usize, 50, 70] {
        let cfg = mdd_config(nb, 1e-4 * ACC_SCALE);
        let tlr = compress_dataset(ds, cfg.compression, cfg.ordering);
        let bytes: usize = tlr.iter().map(|t| t.compressed_bytes()).sum();
        let op = MdcOperator::new(tlr.iter().collect::<Vec<_>>());
        let t0 = std::time::Instant::now();
        let sol = lsqr(&op, &y_perm, lsqr_opts);
        let dt = t0.elapsed().as_secs_f64();
        let x = unpermute(&sol.x);
        out.push(AppBenchRow {
            operator: format!("TLR nb={nb}"),
            seconds: dt,
            operator_bytes: bytes,
            nmse: seismic_mdd::nmse(&x, &x_true),
        });
    }
    out
}

/// §4 ablation row: joint vs per-frequency MDD on noisy data.
#[derive(Clone, Debug)]
pub struct CouplingRow {
    /// Data signal-to-noise ratio (power); `None` = clean.
    pub snr: Option<f64>,
    /// Joint (time-domain) NMSE.
    pub nmse_joint: f64,
    /// Decoupled per-frequency NMSE.
    pub nmse_per_frequency: f64,
    /// Worst single-frequency NMSE of the decoupled solve.
    pub worst_frequency_nmse: f64,
}

impl CouplingRow {
    /// The row as a [`Json`] object, one key per field.
    pub fn to_json(&self) -> Json {
        json_fields!(self; snr, nmse_joint, nmse_per_frequency, worst_frequency_nmse)
    }
}

/// §4 ablation: decoupling the inversion in frequency "may have
/// detrimental effects" — measured on clean and noisy data.
pub fn coupling_study(ds: &SyntheticDataset) -> Vec<CouplingRow> {
    use seismic_mdd::compare_frequency_coupling;
    let cfg = mdd_config(70, 1e-4 * ACC_SCALE);
    let tlr = compress_dataset(ds, cfg.compression, cfg.ordering);
    let vs = ds.acq.n_receivers() / 2;
    [None, Some(10.0), Some(3.0)]
        .into_iter()
        .map(|snr| {
            let r = compare_frequency_coupling(ds, &tlr, vs, &cfg, snr);
            CouplingRow {
                snr,
                nmse_joint: r.nmse_joint,
                nmse_per_frequency: r.nmse_per_frequency,
                worst_frequency_nmse: r.per_frequency_nmse.iter().cloned().fold(0.0, f64::max),
            }
        })
        .collect()
}

/// Fig. 13 summary: the sections plus the suppression measurement.
#[derive(Clone, Debug)]
pub struct Fig13Result {
    /// Trace inline positions (m).
    pub x_positions: Vec<f64>,
    /// Number of virtual sources run.
    pub n_virtual_sources: usize,
    /// Energy suppression of the first free-surface multiple, upgoing vs
    /// MDD panel (> 1 = suppressed).
    pub multiple_suppression_ratio: f64,
    /// RMS amplitude per panel (full / upgoing / mdd) for scale checks.
    pub rms_full: f64,
    /// RMS of the upgoing panel.
    pub rms_upgoing: f64,
    /// RMS of the stacked MDD panel.
    pub rms_mdd: f64,
}

impl Fig13Result {
    /// The row as a [`Json`] object, one key per field.
    pub fn to_json(&self) -> Json {
        json_fields!(self;
            x_positions => Json::arr(self.x_positions.iter().map(Json::from)),
            n_virtual_sources, multiple_suppression_ratio, rms_full, rms_upgoing, rms_mdd
        )
    }
}

fn rms(traces: &[Vec<f64>]) -> f64 {
    let n: usize = traces.iter().map(|t| t.len()).sum();
    let s: f64 = traces.iter().flatten().map(|v| v * v).sum();
    (s / n.max(1) as f64).sqrt()
}

/// Fig. 13: zero-offset sections along the central crossline. With
/// `dump_panels`, the full/upgoing/MDD sections are written as CSVs.
pub fn fig13_with_panels(ds: &SyntheticDataset, stride: usize, dump_panels: bool) -> Fig13Result {
    let cfg = mdd_config(70, 1e-4 * ACC_SCALE);
    let tlr = compress_dataset(ds, cfg.compression, cfg.ordering);
    let iy = ds.acq.receivers.ny / 2;
    let secs = zero_offset_sections(ds, &tlr, &cfg, iy, stride, 3);
    if dump_panels {
        use seismic_mdd::write_panel_csv;
        let dir = std::path::Path::new("target/repro");
        let _ = write_panel_csv(&dir.join("fig13_full.csv"), &secs.full, secs.dt);
        let _ = write_panel_csv(&dir.join("fig13_upgoing.csv"), &secs.upgoing, secs.dt);
        let _ = write_panel_csv(&dir.join("fig13_mdd_stack.csv"), &secs.mdd, secs.dt);
    }
    // Primary TWT of the first reflector at the line center.
    let mid = secs.x_positions.len() / 2;
    let primary_twt = secs.model_twt[mid][0];
    Fig13Result {
        n_virtual_sources: secs.x_positions.len(),
        multiple_suppression_ratio: secs.multiple_suppression_ratio(primary_twt),
        rms_full: rms(&secs.full),
        rms_upgoing: rms(&secs.upgoing),
        rms_mdd: rms(&secs.mdd),
        x_positions: secs.x_positions,
    }
}

/// Fig. 13 without panel dumps.
pub fn fig13(ds: &SyntheticDataset, stride: usize) -> Fig13Result {
    fig13_with_panels(ds, stride, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seis_wave::DatasetConfig;

    fn tiny() -> SyntheticDataset {
        SyntheticDataset::generate(DatasetConfig::tiny(), VelocityModel::overthrust())
    }

    #[test]
    fn fig11_tight_acc_beats_loose() {
        let _g = crate::test_sync::trace_lock();
        let ds = tiny();
        // Use small nb for the tiny grid.
        let vs = ds.acq.n_receivers() / 2;
        let runs: Vec<_> = [1e-4f32, 2e-2]
            .iter()
            .map(|&acc| {
                let cfg = mdd_config(8, acc);
                let tlr = compress_dataset(&ds, cfg.compression, cfg.ordering);
                run_mdd_with_operators(&ds, &tlr, vs, &cfg)
            })
            .collect();
        assert!(runs[0].nmse_inverse <= runs[1].nmse_inverse * 1.01);
    }

    #[test]
    fn fig12_benchmark_row_is_green() {
        // The benchmark config has 0 % change by construction.
        assert_eq!(classify(0.0), QualityRegion::Green);
    }
}
