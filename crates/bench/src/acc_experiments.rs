//! `repro acc-report` — the accuracy-observatory sweep and the
//! `xtask accgate` comparison it feeds (DESIGN.md §16).
//!
//! One [`AccRow`] per Fig. 12 sweep point `(nb, acc)`: the measured
//! inversion NMSE, the *exact* operator NMSE (`Σ_f ‖A_f − Ã_f‖²_F /
//! Σ_f ‖A_f‖²_F` over reconstructed frequency matrices), the
//! sampled-probe estimate of the same quantity
//! ([`tlr_mvm::probe_nmse`]), the compression ratio, an FNV-1a checksum
//! of the full per-tile rank structure, and the projected per-PE SRAM
//! footprint of the config on a CS-2 ([`wse_sim::plan_strategy1_pe`]).
//!
//! The sweep is **self-verifying** before anything is written:
//!
//! * the per-tile rank/byte grids the compressor records must reconcile
//!   exactly (`==`) with the [`TlrMatrix`] they describe
//!   ([`tlr_mvm::verify_compression_grids`]), and
//! * the probe NMSE estimate must agree with the exact operator NMSE
//!   within a generous multiplicative band (the estimator is unbiased
//!   but sampled; see [`PROBE_AGREEMENT_FACTOR`]).
//!
//! Every run sweeps all twelve points, and the gate fails on a baseline
//! point the run did not measure. The committed baseline is
//! `BENCH_accuracy.json` at the workspace root, re-blessed only via
//! `xtask accgate --bless`.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Mutex, OnceLock};

use seis_wave::SyntheticDataset;
use seismic_la::sync::lock;
use seismic_mdd::{compress_dataset, compression_stats, run_mdd_with_operators};
use tlr_mvm::cast::to_u64;
use tlr_mvm::json::Json;
use tlr_mvm::json_fields;
use tlr_mvm::{compress, probe_nmse, trace, verify_compression_grids, TlrMatrix};
use wse_sim::{plan_strategy1_pe, Cs2Config, RankModel};

use crate::mdd_experiments::{default_dataset, mdd_config, repro_scale, ACC_SCALE};

/// Schema version of `acc_report.json` / `BENCH_accuracy.json`.
pub const ACC_SCHEMA_VERSION: u64 = 1;

/// The paper's Fig. 12 tile sizes.
pub const SWEEP_NB: [usize; 3] = [25, 50, 70];

/// The paper's Fig. 12 accuracy labels (effective = label × ACC_SCALE).
pub const SWEEP_ACC: [f32; 4] = [1e-4, 3e-4, 5e-4, 7e-4];

/// Tiles sampled per frequency matrix by the probe estimator.
const PROBE_TILES: usize = 12;

/// Probe vectors per sampled tile.
const PROBE_VECTORS: usize = 4;

/// Self-verification band: the sampled-probe NMSE and the exact
/// operator NMSE must agree within this multiplicative factor (plus a
/// tiny absolute floor for the near-lossless corner, where a 12-tile
/// sample can legitimately miss the only tiles carrying error).
pub const PROBE_AGREEMENT_FACTOR: f64 = 10.0;

/// Absolute floor under which probe/exact disagreement is noise.
const PROBE_AGREEMENT_FLOOR: f64 = 1e-9;

/// One accuracy-observatory sweep point.
#[derive(Clone, Debug)]
pub struct AccRow {
    /// Tile size.
    pub nb: usize,
    /// Paper-label accuracy threshold (effective = label × ACC_SCALE).
    pub acc: f32,
    /// Effective tile tolerance handed to the compressor.
    pub effective_acc: f64,
    /// Inversion NMSE from the full MDD run (Fig. 12's y-axis).
    pub nmse_inverse: f64,
    /// Exact operator NMSE of the compressed frequency stack.
    pub operator_nmse: f64,
    /// Sampled-probe estimate of `operator_nmse`.
    pub probe_nmse: f64,
    /// Dense-to-compressed storage ratio of the whole stack.
    pub compression_ratio: f64,
    /// Compressed bytes of the whole stack.
    pub compressed_bytes: u64,
    /// Total truncation rank summed over frequencies.
    pub total_rank: u64,
    /// FNV-1a checksum of every per-tile rank, all frequencies —
    /// any rank-structure drift flips it.
    pub rank_checksum: u64,
    /// Projected per-PE SRAM bytes for the strategy-1 mapping.
    pub sram_bytes_per_pe: u64,
    /// Stack width used for the SRAM projection.
    pub stack_width: u64,
    /// Whether the strategy-1 plan fits the per-PE bases budget.
    pub sram_fits: bool,
    /// Whether the paper's Table 1 rank model covers this point.
    pub paper_rank_model: bool,
    /// `(tiles stored dense, all tiles)` of the stack this row measured —
    /// for the text table only. The artifact does not carry it (the gate
    /// judges ranks, bytes and NMSE), so a row read back holds `None`.
    pub dense_tiles: Option<(u64, u64)>,
}

/// Stable join key for a sweep point: `nb` in the high half, the
/// accuracy label in parts-per-billion in the low half.
pub fn point_key(nb: usize, acc: f32) -> u64 {
    let ppb = (f64::from(acc) * 1e9).round().clamp(0.0, u32::MAX as f64) as u64;
    ((nb as u64) << 32) | ppb
}

/// Human-readable sweep-point label for findings and tables.
pub fn point_label(nb: usize, acc: f32) -> String {
    format!("nb={nb} acc={acc:.0e}")
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over the complete rank structure of a frequency stack: tile
/// grid dimensions and every per-tile rank, in frequency then row-major
/// tile order. Deterministic for a deterministic compressor, so the
/// gate can require it byte-exact across runs and machines.
pub fn rank_structure_checksum(stack: &[TlrMatrix]) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv_u64(h, stack.len() as u64);
    for m in stack {
        let (mt, nt) = (m.tiling().tile_rows(), m.tiling().tile_cols());
        h = fnv_u64(h, mt as u64);
        h = fnv_u64(h, nt as u64);
        for i in 0..mt {
            for j in 0..nt {
                h = fnv_u64(h, m.rank(i, j) as u64);
            }
        }
    }
    h
}

/// Exact operator NMSE of a compressed stack against its dense
/// reference kernels, plus the fro²-weighted sampled-probe estimate of
/// the same quantity. Returns `(exact, probe)`.
fn operator_nmse_pair(
    ds: &SyntheticDataset,
    stack: &[TlrMatrix],
    ordering: seismic_geom::Ordering,
    seed: u64,
) -> (f64, f64) {
    let mut err2 = 0.0f64;
    let mut ref2 = 0.0f64;
    let mut probe_weighted = 0.0f64;
    for (f, tlr) in stack.iter().enumerate() {
        let dense = ds.reordered_kernel(f, ordering);
        let w = f64::from(dense.fro_norm()).powi(2);
        let diff = tlr.reconstruct().sub(&dense);
        err2 += f64::from(diff.fro_norm()).powi(2);
        ref2 += w;
        let est = probe_nmse(&dense, tlr, PROBE_TILES, PROBE_VECTORS, seed ^ (f as u64));
        probe_weighted += est.nmse * w;
    }
    if ref2 <= 0.0 {
        (0.0, 0.0)
    } else {
        (err2 / ref2, probe_weighted / ref2)
    }
}

/// Self-verification 1: compress the first frequency kernel under an
/// enabled trace window and require the recorded accuracy grids to
/// reconcile exactly (`==`) with the [`TlrMatrix`]. Owns (resets) the
/// process-global trace collector, like the other observability
/// harnesses in this crate.
fn verify_grid_wiring(ds: &SyntheticDataset, cfg: &seismic_mdd::MddConfig) -> Result<(), String> {
    let dense = ds.reordered_kernel(0, cfg.ordering);
    let was_enabled = trace::is_enabled();
    trace::reset();
    trace::set_enabled(true);
    let tlr = compress(&dense, cfg.compression);
    let report = trace::snapshot();
    trace::reset();
    trace::set_enabled(was_enabled);
    verify_compression_grids(&tlr, &report)
        .map_err(|e| format!("accuracy-grid reconciliation failed: {e}"))
}

/// Self-verification 2: probe estimate and exact NMSE must agree within
/// [`PROBE_AGREEMENT_FACTOR`] (plus an absolute floor).
fn verify_probe_agreement(row: &AccRow) -> Result<(), String> {
    let (exact, probe) = (row.operator_nmse, row.probe_nmse);
    let band = |x: f64| x * PROBE_AGREEMENT_FACTOR + PROBE_AGREEMENT_FLOOR;
    if probe > band(exact) || exact > band(probe) {
        return Err(format!(
            "probe/exact NMSE disagree at {}: probe {probe:.3e} vs exact {exact:.3e} \
             (allowed factor {PROBE_AGREEMENT_FACTOR})",
            point_label(row.nb, row.acc)
        ));
    }
    Ok(())
}

/// Run the accuracy sweep over `accs` (paper labels) × [`SWEEP_NB`].
///
/// Every row is self-verified (grid reconciliation once up front,
/// probe/exact agreement per row) before it is returned, so a row set
/// that reaches the artifact writer is already internally consistent.
pub fn acc_rows(ds: &SyntheticDataset, accs: &[f32]) -> Result<Vec<AccRow>, String> {
    if accs.is_empty() {
        return Err("acc-report: empty accuracy sweep".to_string());
    }
    let vs = ds.acq.n_receivers() / 2;
    let machine = Cs2Config::default();
    let mut rows = Vec::new();
    let mut wiring_checked = false;
    for &nb in &SWEEP_NB {
        for &acc in accs {
            let cfg = mdd_config(nb, acc * ACC_SCALE);
            if !wiring_checked {
                verify_grid_wiring(ds, &cfg)?;
                wiring_checked = true;
            }
            let stack = compress_dataset(ds, cfg.compression, cfg.ordering);
            let stats = compression_stats(&stack);
            let (exact, probe) = operator_nmse_pair(ds, &stack, cfg.ordering, point_key(nb, acc));
            let run = run_mdd_with_operators(ds, &stack, vs, &cfg);
            let w = machine.max_stack_width(nb);
            let (sram_bytes, fits) = match plan_strategy1_pe(&machine, nb, nb, w) {
                Ok(plan) => (plan.used_bytes as u64, true),
                Err(_) => ((16 * nb * w) as u64, false),
            };
            let row = AccRow {
                nb,
                acc,
                effective_acc: f64::from(acc * ACC_SCALE),
                nmse_inverse: run.nmse_inverse,
                operator_nmse: exact,
                probe_nmse: probe,
                compression_ratio: stats.ratio,
                compressed_bytes: stats.compressed_bytes as u64,
                total_rank: stats.total_rank as u64,
                rank_checksum: rank_structure_checksum(&stack),
                sram_bytes_per_pe: sram_bytes,
                stack_width: w as u64,
                sram_fits: fits,
                paper_rank_model: RankModel::paper(nb, acc).is_some(),
                dense_tiles: Some((
                    stats.dense_tiles as u64,
                    stack.iter().map(|t| t.tiling().tile_count() as u64).sum(),
                )),
            };
            verify_probe_agreement(&row)?;
            rows.push(row);
        }
    }
    Ok(rows)
}

/// The full `repro acc-report` sweep: [`SWEEP_ACC`] × [`SWEEP_NB`].
pub fn acc_report(ds: &SyntheticDataset) -> Result<Vec<AccRow>, String> {
    acc_rows(ds, &SWEEP_ACC)
}

/// Measured operator quality `(exact NMSE, compression ratio)` of one
/// `(nb, paper-label acc)` config on the default laptop-scale dataset —
/// compression only, no solver. Memoized per process: `repro recon`
/// calls this once per distinct validated config to fill its NMSE and
/// ratio columns.
pub fn operator_quality(nb: usize, acc: f32) -> (f64, f64) {
    static DS: OnceLock<SyntheticDataset> = OnceLock::new();
    static MEMO: Mutex<BTreeMap<u64, (f64, f64)>> = Mutex::new(BTreeMap::new());
    let key = point_key(nb, acc);
    if let Some(&hit) = lock(&MEMO).get(&key) {
        return hit;
    }
    let ds = DS.get_or_init(default_dataset);
    let cfg = mdd_config(nb, acc * ACC_SCALE);
    let stack = compress_dataset(ds, cfg.compression, cfg.ordering);
    let stats = compression_stats(&stack);
    let mut err2 = 0.0f64;
    let mut ref2 = 0.0f64;
    for (f, tlr) in stack.iter().enumerate() {
        let dense = ds.reordered_kernel(f, cfg.ordering);
        err2 += f64::from(tlr.reconstruct().sub(&dense).fro_norm()).powi(2);
        ref2 += f64::from(dense.fro_norm()).powi(2);
    }
    let nmse = if ref2 > 0.0 { err2 / ref2 } else { 0.0 };
    let out = (nmse, stats.ratio);
    lock(&MEMO).insert(key, out);
    out
}

// ---------------------------------------------------------------------
// JSON artifact (`tlr_mvm::json`, so u64 checksums roundtrip exactly).
// ---------------------------------------------------------------------

impl AccRow {
    /// The row as a [`Json`] object.
    pub fn to_json(&self) -> Json {
        json_fields!(self;
            nb, acc => f64::from(self.acc).into(), effective_acc, nmse_inverse, operator_nmse,
            probe_nmse, compression_ratio, compressed_bytes, total_rank, rank_checksum,
            sram_bytes_per_pe, stack_width, sram_fits, paper_rank_model
        )
    }

    /// Parse one row back from its [`Json`] object.
    pub fn from_json(v: &Json) -> Result<AccRow, String> {
        let u = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("acc row: missing/invalid u64 '{key}'"))
        };
        let f = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("acc row: missing/invalid number '{key}'"))
        };
        let b = |key: &str| -> Result<bool, String> {
            match v.get(key) {
                Some(Json::Bool(x)) => Ok(*x),
                _ => Err(format!("acc row: missing/invalid bool '{key}'")),
            }
        };
        Ok(AccRow {
            nb: u("nb")? as usize,
            acc: f("acc")? as f32,
            effective_acc: f("effective_acc")?,
            nmse_inverse: f("nmse_inverse")?,
            operator_nmse: f("operator_nmse")?,
            probe_nmse: f("probe_nmse")?,
            compression_ratio: f("compression_ratio")?,
            compressed_bytes: u("compressed_bytes")?,
            total_rank: u("total_rank")?,
            rank_checksum: u("rank_checksum")?,
            sram_bytes_per_pe: u("sram_bytes_per_pe")?,
            stack_width: u("stack_width")?,
            sram_fits: b("sram_fits")?,
            paper_rank_model: b("paper_rank_model")?,
            dense_tiles: None,
        })
    }
}

/// The artifact document: schema, experiment tag, the `REPRO_SCALE`
/// the rows were measured at, and the rows.
pub fn acc_doc(rows: &[AccRow], scale: u64) -> Json {
    Json::obj([
        ("schema_version", ACC_SCHEMA_VERSION.into()),
        ("experiment", "acc-report".into()),
        ("repro_scale", scale.into()),
        ("rows", Json::arr(rows.iter().map(AccRow::to_json))),
    ])
}

/// Write `acc_report.json` (pretty, trailing newline) at the
/// [`repro_scale`] the rows were measured at, creating parent
/// directories as needed.
pub fn write_acc_json(path: &Path, rows: &[AccRow]) -> Result<(), String> {
    let scale = to_u64(repro_scale()?);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, acc_doc(rows, scale).to_pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// Read an accuracy artifact back. Returns the rows and the
/// `repro_scale` they were measured at.
pub fn read_acc_json(path: &Path) -> Result<(Vec<AccRow>, u64), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let schema = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("acc json: missing schema_version")?;
    if schema != ACC_SCHEMA_VERSION {
        return Err(format!(
            "acc json: schema_version {schema} != {ACC_SCHEMA_VERSION}"
        ));
    }
    let scale = doc
        .get("repro_scale")
        .and_then(Json::as_u64)
        .ok_or("acc json: missing repro_scale")?;
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("acc json: missing rows array")?
        .iter()
        .map(AccRow::from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok((rows, scale))
}

// ---------------------------------------------------------------------
// The gate comparison (`xtask accgate`).
// ---------------------------------------------------------------------

/// Severity of one gate finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GateLevel {
    /// Informational.
    Info,
    /// Suspicious but not blocking.
    Warn,
    /// Gate failure — nonzero exit.
    Fail,
}

/// One verdict of [`compare_acc`].
#[derive(Clone, Debug)]
pub struct GateFinding {
    /// What the finding is about: a sweep point, or `document` for a
    /// `REPRO_SCALE` mismatch.
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

// Drift bands of [`compare_acc`], in percent. The rank checksum is
// always exact; NMSE and ratio get bands that absorb cross-machine
// float noise while catching real quality regressions.
/// Inversion/operator NMSE drift beyond this fails.
const NMSE_FAIL_PCT: f64 = 25.0;
/// NMSE drift beyond this (but below fail) warns.
const NMSE_WARN_PCT: f64 = 10.0;
/// Compression-ratio drift beyond this fails.
const RATIO_FAIL_PCT: f64 = 10.0;
/// Ratio drift beyond this (but below fail) warns.
const RATIO_WARN_PCT: f64 = 4.0;

fn drift_pct(base: f64, cur: f64) -> f64 {
    100.0 * (cur - base).abs() / base.abs().max(1e-12)
}

/// Compare a current accuracy run against the committed baseline.
///
/// Fails on: a `repro_scale` mismatch (different problem sizes are not
/// comparable), a rank-checksum mismatch (the compressor's rank
/// decisions drifted), NMSE or compression-ratio drift beyond the fail
/// thresholds, a config whose SRAM plan regressed from fitting to
/// not fitting, or any current row whose compression ratio is below 1
/// (exact and host-independent: no tile may store more words than its
/// dense block), or a baseline point the current run did not measure.
/// Current points with no baseline warn until blessed.
pub fn compare_acc(
    baseline: &[AccRow],
    baseline_scale: u64,
    current: &[AccRow],
    current_scale: u64,
) -> GateOutcome {
    let mut out = GateOutcome::default();
    if baseline_scale != current_scale {
        out.findings.push(GateFinding {
            subject: "document".to_string(),
            level: GateLevel::Fail,
            message: format!(
                "REPRO_SCALE mismatch: baseline {baseline_scale} vs current {current_scale}"
            ),
        });
        return out;
    }
    let cur: BTreeMap<u64, &AccRow> = current
        .iter()
        .map(|r| (point_key(r.nb, r.acc), r))
        .collect();
    for b in baseline {
        let label = point_label(b.nb, b.acc);
        let Some(c) = cur.get(&point_key(b.nb, b.acc)) else {
            out.findings.push(GateFinding {
                subject: label,
                level: GateLevel::Fail,
                message: "baseline point not measured in this run".to_string(),
            });
            continue;
        };
        if c.rank_checksum != b.rank_checksum {
            out.findings.push(GateFinding {
                subject: label.clone(),
                level: GateLevel::Fail,
                message: format!(
                    "rank-structure checksum drift: baseline {:#018x} vs current {:#018x}",
                    b.rank_checksum, c.rank_checksum
                ),
            });
        }
        if b.sram_fits && !c.sram_fits {
            out.findings.push(GateFinding {
                subject: label.clone(),
                level: GateLevel::Fail,
                message: "SRAM plan regressed: config no longer fits the per-PE budget".to_string(),
            });
        }
        let mut band = |name: &str, base: f64, curv: f64, fail: f64, warn: f64| {
            let d = drift_pct(base, curv);
            let (level, verb) = if d > fail {
                (GateLevel::Fail, "drifted")
            } else if d > warn {
                (GateLevel::Warn, "moved")
            } else {
                (GateLevel::Info, "stable")
            };
            out.findings.push(GateFinding {
                subject: label.clone(),
                level,
                message: format!(
                    "{name} {verb} {d:.1}%: baseline {base:.4e} vs current {curv:.4e}"
                ),
            });
        };
        band(
            "inversion NMSE",
            b.nmse_inverse,
            c.nmse_inverse,
            NMSE_FAIL_PCT,
            NMSE_WARN_PCT,
        );
        band(
            "operator NMSE",
            b.operator_nmse,
            c.operator_nmse,
            NMSE_FAIL_PCT,
            NMSE_WARN_PCT,
        );
        band(
            "compression ratio",
            b.compression_ratio,
            c.compression_ratio,
            RATIO_FAIL_PCT,
            RATIO_WARN_PCT,
        );
    }
    let base_keys: std::collections::BTreeSet<u64> =
        baseline.iter().map(|r| point_key(r.nb, r.acc)).collect();
    for c in current {
        if c.compression_ratio < 1.0 {
            out.findings.push(GateFinding {
                subject: point_label(c.nb, c.acc),
                level: GateLevel::Fail,
                message: format!(
                    "stored operator is larger than the dense one: compression ratio {:.4}",
                    c.compression_ratio
                ),
            });
        }
        if !base_keys.contains(&point_key(c.nb, c.acc)) {
            out.findings.push(GateFinding {
                subject: point_label(c.nb, c.acc),
                level: GateLevel::Warn,
                message: "no baseline row (run `xtask accgate --bless` to adopt)".to_string(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use seis_wave::{DatasetConfig, VelocityModel};

    fn sample_row(nb: usize, acc: f32) -> AccRow {
        AccRow {
            nb,
            acc,
            effective_acc: f64::from(acc * ACC_SCALE),
            nmse_inverse: 0.0123,
            operator_nmse: 3.4e-7,
            probe_nmse: 2.9e-7,
            compression_ratio: 2.75,
            compressed_bytes: 123_456,
            total_rank: 789,
            rank_checksum: 0xdead_beef_feed_face,
            sram_bytes_per_pe: 25_600,
            stack_width: 64,
            sram_fits: true,
            paper_rank_model: true,
            dense_tiles: None,
        }
    }

    #[test]
    fn point_key_distinguishes_every_sweep_point() {
        let mut keys = std::collections::BTreeSet::new();
        for &nb in &SWEEP_NB {
            for &acc in &SWEEP_ACC {
                assert!(keys.insert(point_key(nb, acc)), "duplicate key nb={nb}");
            }
        }
        assert_eq!(keys.len(), SWEEP_NB.len() * SWEEP_ACC.len());
    }

    #[test]
    fn acc_json_roundtrips_exactly() {
        let rows = vec![sample_row(25, 1e-4), sample_row(70, 7e-4)];
        let text = acc_doc(&rows, 12).to_pretty();
        let doc = Json::parse(&text).expect("parse back");
        assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("repro_scale").and_then(Json::as_u64), Some(12));
        let parsed: Vec<AccRow> = doc
            .get("rows")
            .and_then(Json::as_arr)
            .expect("rows")
            .iter()
            .map(|v| AccRow::from_json(v).expect("row"))
            .collect();
        assert_eq!(parsed.len(), rows.len());
        for (a, b) in rows.iter().zip(&parsed) {
            assert_eq!(a.nb, b.nb);
            assert_eq!(a.rank_checksum, b.rank_checksum);
            assert_eq!(a.compressed_bytes, b.compressed_bytes);
            assert_eq!(a.total_rank, b.total_rank);
            assert_eq!(a.sram_fits, b.sram_fits);
            assert!((a.nmse_inverse - b.nmse_inverse).abs() < 1e-15);
            assert!((a.compression_ratio - b.compression_ratio).abs() < 1e-15);
        }
    }

    #[test]
    fn compare_flags_induced_drift_and_passes_identity() {
        let base = vec![sample_row(25, 1e-4), sample_row(50, 3e-4)];
        // Identity: no failures.
        let same = compare_acc(&base, 12, &base, 12);
        assert!(
            !same.failed(),
            "identical runs must pass: {:?}",
            same.findings
        );
        // Induced NMSE drift fails and names the point.
        let mut worse = base.clone();
        worse[0].nmse_inverse *= 2.0;
        let out = compare_acc(&base, 12, &worse, 12);
        assert!(out.failed());
        assert!(out.failing().contains(&"nb=25 acc=1e-4"));
        // Checksum drift fails even with identical floats.
        let mut drifted = base.clone();
        drifted[1].rank_checksum ^= 1;
        assert!(compare_acc(&base, 12, &drifted, 12).failed());
        // Ratio drift fails.
        let mut fatter = base.clone();
        fatter[0].compression_ratio *= 1.5;
        assert!(compare_acc(&base, 12, &fatter, 12).failed());
        // A stored operator larger than the dense one fails on its own,
        // whatever the baseline says (here: the same sub-1 ratio, no drift).
        let mut bloated = base.clone();
        bloated[1].compression_ratio = 0.82;
        let out = compare_acc(&bloated, 12, &bloated, 12);
        assert_eq!(out.failing(), ["nb=50 acc=3e-4"]);
        // A baseline point the current run did not measure fails, named.
        let reduced = compare_acc(&base, 12, &base[..1], 12);
        assert_eq!(reduced.failing(), ["nb=50 acc=3e-4"]);
        // Scale mismatch is an immediate failure.
        assert!(compare_acc(&base, 12, &base, 6).failed());
    }

    #[test]
    fn sweep_rows_self_verify_on_a_tiny_dataset() {
        let _guard = crate::test_sync::trace_lock();
        // A deliberately tiny dataset: big scale divisor = few stations.
        let ds = SyntheticDataset::generate(
            DatasetConfig {
                scale: 40,
                nt: 128,
                dt: 0.008,
                f_flat: 10.0,
                f_max: 11.0,
                freq_stride: 2,
                n_water_multiples: 1,
                station_spacing: 30.0,
            },
            VelocityModel::overthrust(),
        );
        let rows = acc_rows(&ds, &[1e-4]).expect("sweep self-verifies");
        assert_eq!(rows.len(), SWEEP_NB.len());
        for r in &rows {
            assert!(r.compression_ratio > 0.0);
            assert!(r.compressed_bytes > 0);
            assert!(r.total_rank > 0);
            assert!(r.rank_checksum != 0);
            assert!(r.nmse_inverse.is_finite());
            // The paper rank model covers every (nb, 1e-4) point.
            assert!(r.paper_rank_model, "nb={} lacks rank model", r.nb);
        }
        // Determinism: the checksum must be identical on a re-run.
        let again = acc_rows(&ds, &[1e-4]).expect("re-run");
        for (a, b) in rows.iter().zip(&again) {
            assert_eq!(a.rank_checksum, b.rank_checksum);
            assert_eq!(a.compressed_bytes, b.compressed_bytes);
        }
    }
}
