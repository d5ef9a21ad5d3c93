//! Multi-virtual-source MDD — the paper's §6.4 production mode ("tens of
//! thousands of virtual sources … embarrassingly parallel on 708 V100
//! GPUs"). The §8 TLR-MMM recast for simultaneous sources is kept as a
//! cost model only ([`tlr_mvm::tlr_mmm_cost`], `repro mmm`).
//!
//! Scaling is over the *source* axis here: every source solves an
//! independent inverse problem against one shared compressed operator
//! stack. The orthogonal axis — sweeping all *frequencies* of one
//! problem in a single batched pass — lives in [`crate::engine`]
//! (DESIGN.md §13); a serving deployment composes the two, submitting
//! one [`crate::engine::JobSpec::Mdd`] job per virtual source against
//! a cache-shared [`crate::engine::FrequencyOperators`].

use rayon::prelude::*;
use seis_wave::SyntheticDataset;
use tlr_mvm::TlrMatrix;

use crate::driver::{run_mdd_with_operators, MddConfig, MddRun};

/// Run MDD independently for many virtual sources (rayon-parallel — each
/// source is an independent inverse problem sharing the compressed
/// operator stack, exactly the paper's production layout).
pub fn run_mdd_multi(
    ds: &SyntheticDataset,
    tlr: &[TlrMatrix],
    virtual_sources: &[usize],
    cfg: &MddConfig,
) -> Vec<MddRun> {
    virtual_sources
        .par_iter()
        .map(|&vs| run_mdd_with_operators(ds, tlr, vs, cfg))
        .collect()
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
                max_iters: 20,
                rel_tol: 0.0,
                damp: 0.0,
            },
        };
        let tlr = compress_dataset(&ds, cfg.compression, cfg.ordering);
        (ds, tlr, cfg)
    }

    #[test]
    fn multi_matches_single_runs() {
        let (ds, tlr, cfg) = setup();
        let sources = [1usize, 3, 5];
        let multi = run_mdd_multi(&ds, &tlr, &sources, &cfg);
        assert_eq!(multi.len(), 3);
        for (k, &vs) in sources.iter().enumerate() {
            let single = run_mdd_with_operators(&ds, &tlr, vs, &cfg);
            assert!((multi[k].nmse_inverse - single.nmse_inverse).abs() < 1e-9);
        }
    }
}
