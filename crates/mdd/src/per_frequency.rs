//! Per-frequency vs joint (time-domain) MDD — the paper's §4 point:
//! "this problem can be decoupled in the frequency domain, \[but\] recent
//! research has shown that this may have detrimental effects on the
//! quality of the retrieved local reflectivity" (citing Vargas et al.).
//!
//! The joint solve runs one LSQR over the whole block-diagonal system;
//! the decoupled solve runs an independent LSQR per frequency. On clean
//! data they coincide in the limit; on noisy data the decoupled solve
//! over-fits noise at the poorly-excited band edges where the per-block
//! conditioning is worst.
//!
//! Note the distinction from [`crate::engine`]'s batched sweep
//! (DESIGN.md §13): *decoupling* here changes the inverse problem (one
//! LSQR per frequency block), while the engine's
//! [`crate::engine::FrequencyOperators`] only changes the *schedule*
//! of the joint solve's operator application — it is bit-identical to
//! the per-frequency loop inside one joint iteration, so it
//! accelerates the quality-preserving formulation rather than trading
//! quality for parallelism.

use rayon::prelude::*;
use seis_wave::SyntheticDataset;
use seismic_la::scalar::C32;
use tlr_mvm::TlrMatrix;

use crate::driver::MddConfig;
use crate::lsqr::lsqr;
use crate::mdc::MdcOperator;
use crate::metrics::nmse;

/// Result of the joint-vs-decoupled comparison.
#[derive(Clone, Debug)]
pub struct FrequencyCouplingResult {
    /// NMSE of the joint (time-domain) solve.
    pub nmse_joint: f64,
    /// NMSE of the per-frequency (decoupled) solve.
    pub nmse_per_frequency: f64,
    /// Per-frequency NMSE of the decoupled solve (band-edge diagnosis).
    pub per_frequency_nmse: Vec<f64>,
}

/// Solve one virtual source both ways on (optionally noisy) data.
pub fn compare_frequency_coupling(
    ds: &SyntheticDataset,
    tlr: &[TlrMatrix],
    vs: usize,
    cfg: &MddConfig,
    snr: Option<f64>,
) -> FrequencyCouplingResult {
    let (rows, cols) = ds.permutations(cfg.ordering);
    let n_rec = ds.acq.n_receivers();
    let nf = ds.n_freqs();

    let x_true_blocks = ds.true_reflectivity(vs);
    let y_blocks = match snr {
        Some(s) => ds.observed_data_noisy(vs, s, 0xc0ffee),
        None => ds.observed_data_of(&x_true_blocks),
    };
    let x_true: Vec<C32> = x_true_blocks.concat();
    let y_perm: Vec<C32> = y_blocks.iter().flat_map(|yf| rows.apply(yf)).collect();

    let unpermute = |data: &[C32]| -> Vec<C32> {
        (0..nf)
            .flat_map(|f| cols.unapply(&data[f * n_rec..(f + 1) * n_rec]))
            .collect()
    };

    // Joint solve.
    let op = MdcOperator::new(tlr.iter().collect::<Vec<_>>());
    let joint = lsqr(&op, &y_perm, cfg.lsqr);
    let x_joint = unpermute(&joint.x);

    // Decoupled: independent LSQR per frequency with the same iteration
    // budget each.
    let n_src = ds.acq.n_sources();
    let x_blocks: Vec<Vec<C32>> = (0..nf)
        .into_par_iter()
        .map(|f| {
            let yf = &y_perm[f * n_src..(f + 1) * n_src];
            lsqr(&tlr[f], yf, cfg.lsqr).x
        })
        .collect();
    let x_dec_perm: Vec<C32> = x_blocks.concat();
    let x_dec = unpermute(&x_dec_perm);

    // Per-frequency NMSE of the decoupled solution.
    let per_frequency_nmse: Vec<f64> = (0..nf)
        .map(|f| {
            nmse(
                &x_dec[f * n_rec..(f + 1) * n_rec],
                &x_true[f * n_rec..(f + 1) * n_rec],
            )
        })
        .collect();

    FrequencyCouplingResult {
        nmse_joint: nmse(&x_joint, &x_true),
        nmse_per_frequency: nmse(&x_dec, &x_true),
        per_frequency_nmse,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::compress_dataset;
    use crate::lsqr::LsqrOptions;
    use seis_wave::{DatasetConfig, VelocityModel};
    use seismic_geom::Ordering;
    use tlr_mvm::{CompressionConfig, CompressionMethod, ToleranceMode};

    fn setup() -> (SyntheticDataset, Vec<TlrMatrix>, MddConfig) {
        let ds = SyntheticDataset::generate(DatasetConfig::tiny(), VelocityModel::overthrust());
        let cfg = MddConfig {
            compression: CompressionConfig {
                nb: 8,
                acc: 1e-4,
                method: CompressionMethod::Svd,
                mode: ToleranceMode::RelativeTile,
            },
            ordering: Ordering::Hilbert,
            lsqr: LsqrOptions {
                max_iters: 30,
                rel_tol: 0.0,
                damp: 0.0,
            },
        };
        let tlr = compress_dataset(&ds, cfg.compression, cfg.ordering);
        (ds, tlr, cfg)
    }

    #[test]
    fn clean_data_both_paths_agree() {
        let (ds, tlr, cfg) = setup();
        let r = compare_frequency_coupling(&ds, &tlr, 2, &cfg, None);
        // Noiseless: both reach small NMSE; decoupled gets nf× the
        // iterations, so it is at least comparable.
        assert!(r.nmse_joint < 0.2, "joint {}", r.nmse_joint);
        assert!(r.nmse_per_frequency < 0.2, "dec {}", r.nmse_per_frequency);
    }

    #[test]
    fn noisy_data_decoupled_is_not_better_everywhere() {
        let (ds, tlr, cfg) = setup();
        let r = compare_frequency_coupling(&ds, &tlr, 2, &cfg, Some(3.0));
        // With noise, some frequencies degrade badly in the decoupled
        // solve — its worst per-frequency NMSE exceeds its own mean by a
        // wide margin (the §4 band-edge pathology).
        let worst = r.per_frequency_nmse.iter().cloned().fold(0.0f64, f64::max);
        let mean: f64 =
            r.per_frequency_nmse.iter().sum::<f64>() / r.per_frequency_nmse.len() as f64;
        assert!(
            worst > 1.5 * mean,
            "expected band-edge degradation: worst {worst} mean {mean}"
        );
        // Both stay finite and the comparison fields are populated.
        assert!(r.nmse_joint.is_finite() && r.nmse_per_frequency.is_finite());
    }
}
