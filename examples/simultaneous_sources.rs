//! Multi-virtual-source MDD and the §8 TLR-MMM cost model: run many
//! independent inversions off one compressed operator stack (the paper's
//! production mode), then read what processing the same sources as one
//! multi-right-hand-side product would do to the arithmetic intensity.
//!
//! ```text
//! cargo run --release --example simultaneous_sources
//! ```

use seis_wave::{DatasetConfig, SyntheticDataset, VelocityModel};
use seismic_geom::Ordering;
use seismic_mdd::{compress_dataset, run_mdd_multi, LsqrOptions, MddConfig};
use tlr_mvm::{tlr_mmm_cost, CompressionConfig, CompressionMethod, ToleranceMode};

fn main() {
    let ds = SyntheticDataset::generate(
        DatasetConfig {
            scale: 16,
            nt: 256,
            dt: 0.008,
            f_flat: 10.0,
            f_max: 12.0,
            freq_stride: 2,
            n_water_multiples: 2,
            station_spacing: 30.0,
        },
        VelocityModel::overthrust(),
    );
    let cfg = MddConfig {
        compression: CompressionConfig {
            nb: 25,
            acc: 5e-3,
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

    // A line of virtual sources along a fixed crossline (the paper's §6.4
    // setup: 177 virtual sources on 708 GPUs; here a laptop line).
    let iy = ds.acq.receivers.ny / 2;
    let sources: Vec<usize> = (0..ds.acq.receivers.nx)
        .step_by(2)
        .map(|ix| iy * ds.acq.receivers.nx + ix)
        .collect();
    println!(
        "running MDD for {} virtual sources over {} frequencies…",
        sources.len(),
        ds.n_freqs()
    );
    let t0 = std::time::Instant::now();
    let runs = run_mdd_multi(&ds, &tlr, &sources, &cfg);
    let elapsed = t0.elapsed();
    let mean_nmse: f64 = runs.iter().map(|r| r.nmse_inverse).sum::<f64>() / runs.len() as f64;
    let worst = runs.iter().map(|r| r.nmse_inverse).fold(0.0f64, f64::max);
    println!(
        "  {} inversions in {:.2?} ({:.1} ms/source); mean NMSE {:.4}, worst {:.4}",
        runs.len(),
        elapsed,
        elapsed.as_secs_f64() * 1e3 / runs.len() as f64,
        mean_nmse,
        worst
    );

    // §8 extension, as a model: the same sources as one TLR-MMM.
    let op = &tlr[ds.n_freqs() / 2];
    let s = sources.len();
    let i1 = tlr_mmm_cost(op, 1).relative_intensity();
    let is = tlr_mmm_cost(op, s).relative_intensity();
    println!(
        "arithmetic intensity: {:.3} flop/B (one source) -> {:.3} flop/B ({s} sources)\n\
         the §8 'open research opportunity': the bases amortize across sources,\n\
         but flat SRAM machines regain no reuse — the memory wall re-appears.",
        i1, is
    );
}
