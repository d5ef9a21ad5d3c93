//! Extension experiment (§8): recasting TLR-MVM into TLR-MMM for
//! simultaneous virtual sources — "this re-exacerbates the memory wall".
//!
//! We sweep the simultaneous-source count `s` and report (a) arithmetic
//! intensity under both byte models, (b) where the kernel sits against
//! the CS-2 roofline, and (c) the per-PE SRAM pressure from the `s` input
//! and output panels — quantifying the §8 claim on the paper's own
//! machine model.

use seis_wave::SyntheticDataset;
use seismic_geom::Ordering;
use seismic_mdd::compress_dataset;
use tlr_mvm::json::Json;
use tlr_mvm::json_fields;
use tlr_mvm::{tlr_mmm_cost, CompressionConfig, CompressionMethod, ToleranceMode};
use wse_sim::Cs2Config;

/// One row of the TLR-MMM sweep.
#[derive(Clone, Debug)]
pub struct MmmRow {
    /// Simultaneous virtual sources.
    pub s: usize,
    /// Relative (cache-model) arithmetic intensity, flop/byte.
    pub relative_intensity: f64,
    /// Absolute (flat-SRAM) intensity — does *not* improve with `s`.
    pub absolute_intensity: f64,
    /// Compute-bound on the CS-2 under the relative model?
    pub cs2_compute_bound: bool,
    /// Per-PE SRAM bytes for panels at the nb=70/w=23 chunk geometry
    /// (`s` × (x + yv + y) split-complex vectors).
    pub panel_bytes_per_pe: usize,
    /// Does the chunk still fit the 48 kB PE including panels?
    pub fits_sram: bool,
    /// Largest `s` is bounded by SRAM, not by arithmetic — the
    /// re-exacerbated wall.
    pub flops: u64,
}

impl MmmRow {
    /// The row as a [`Json`] object, one key per field.
    pub fn to_json(&self) -> Json {
        json_fields!(self;
            s, relative_intensity, absolute_intensity, cs2_compute_bound, panel_bytes_per_pe,
            fits_sram, flops
        )
    }
}

/// Sweep the simultaneous-source count on a real compressed laptop-scale
/// operator (shapes/intensities are scale-invariant; the SRAM analysis
/// uses the paper's nb = 70, stack width 23 chunk geometry).
pub fn mmm_sweep(ds: &SyntheticDataset, counts: &[usize]) -> Vec<MmmRow> {
    let cfg = CompressionConfig {
        nb: 70,
        acc: 5e-3,
        method: CompressionMethod::Svd,
        mode: ToleranceMode::RelativeTile,
    };
    let tlr = compress_dataset(ds, cfg, Ordering::Hilbert);
    let op = &tlr[ds.n_freqs() / 2];
    let cs2 = Cs2Config::default();
    // CS-2 ridge intensity (flop/byte) from the Fig. 15 ceilings: one
    // system: 20 PB/s memory, 1.7 PFlop/s compute.
    let ridge = 1.7e15 / 20.0e15;
    let nb = 70usize;
    let w = 23usize;
    let cl = 70usize;

    counts
        .iter()
        .map(|&s| {
            let cost = tlr_mmm_cost(op, s);
            // Panels per PE: s × split-complex (x: cl, yv: w, y: nb).
            let panel_bytes = s * 2 * 4 * (cl + w + nb);
            let bases_bytes = 16 * nb * w;
            let fits = bases_bytes + panel_bytes
                <= cs2.bases_budget_bytes() + cs2.runtime_reserved_bytes - 8 * 1024;
            MmmRow {
                s,
                relative_intensity: cost.relative_intensity(),
                absolute_intensity: cost.absolute_intensity(),
                cs2_compute_bound: cost.relative_intensity() > ridge,
                panel_bytes_per_pe: panel_bytes,
                fits_sram: fits,
                flops: cost.flops,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seis_wave::{DatasetConfig, VelocityModel};

    #[test]
    fn sweep_shows_reexacerbated_wall() {
        let _g = crate::test_sync::trace_lock();
        let ds = SyntheticDataset::generate(DatasetConfig::tiny(), VelocityModel::overthrust());
        let rows = mmm_sweep(&ds, &[1, 4, 16, 64, 512]);
        // Relative intensity grows with s…
        for w in rows.windows(2) {
            assert!(w[1].relative_intensity > w[0].relative_intensity);
        }
        // …but absolute (flat-SRAM) intensity does not.
        let a0 = rows[0].absolute_intensity;
        for r in &rows {
            assert!((r.absolute_intensity - a0).abs() < 0.05 * a0);
        }
        // SRAM eventually refuses the panels: the wall re-appears as a
        // capacity limit rather than a bandwidth one.
        assert!(rows[0].fits_sram);
        assert!(!rows.last().unwrap().fits_sram);
        // Flops scale linearly in s.
        assert_eq!(rows[1].flops, 4 * rows[0].flops);
    }
}
