//! Cross-crate consistency tests: operator interchangeability, FFT-based
//! MDC time-domain round trips, reordering invariants, and the WSE
//! placement pipeline on measured (not synthetic) workloads.

use seis_wave::{DatasetConfig, SyntheticDataset, VelocityModel};
use seismic_geom::Ordering;
use seismic_la::blas::nrm2;
use seismic_la::scalar::C32;
use seismic_la::Matrix;
use seismic_mdd::{compress_dataset, lsqr, LsqrOptions, MdcOperator};
use tlr_mvm::{compress, CompressionConfig, CompressionMethod, LinearOperator, ToleranceMode};
use wse_sim::{place, Cluster, Strategy, Workload};

fn dataset() -> SyntheticDataset {
    SyntheticDataset::generate(DatasetConfig::tiny(), VelocityModel::overthrust())
}

fn compression(nb: usize, acc: f32) -> CompressionConfig {
    CompressionConfig {
        nb,
        acc,
        method: CompressionMethod::Svd,
        mode: ToleranceMode::RelativeTile,
    }
}

#[test]
fn lsqr_agrees_between_dense_and_tlr_operators() {
    // Solve the same per-frequency system with dense kernels and with
    // tightly compressed TLR kernels: solutions must agree.
    let ds = dataset();
    let dense_kernels: Vec<Matrix<C32>> = (0..ds.n_freqs())
        .map(|f| ds.reordered_kernel(f, Ordering::Hilbert))
        .collect();
    let tlr = compress_dataset(&ds, compression(8, 1e-6), Ordering::Hilbert);

    let n = ds.acq.n_receivers() * ds.n_freqs();
    let x_true: Vec<C32> = (0..n)
        .map(|i| C32::new((i as f32 * 0.11).sin(), (i as f32 * 0.05).cos()))
        .collect();

    let dense_op = MdcOperator::new(dense_kernels.iter().collect::<Vec<_>>());
    let tlr_op = MdcOperator::new(tlr.iter().collect::<Vec<_>>());
    let b = dense_op.apply(&x_true);

    let opts = LsqrOptions {
        max_iters: 40,
        rel_tol: 0.0,
        damp: 0.0,
    };
    let xd = lsqr(&dense_op, &b, opts).x;
    let xt = lsqr(&tlr_op, &b, opts).x;
    let diff: f32 = xd
        .iter()
        .zip(&xt)
        .map(|(a, b)| (*a - *b).norm_sqr())
        .sum::<f32>()
        .sqrt();
    assert!(
        diff < 1e-2 * nrm2(&xd).max(1.0),
        "dense and TLR LSQR solutions diverge: {diff}"
    );
}

#[test]
fn reordering_preserves_mvm_results() {
    // Permuting rows/cols of the kernel and correspondingly permuting the
    // vectors must give identical answers.
    let ds = dataset();
    let f = 0;
    let (rows, cols) = ds.permutations(Ordering::Hilbert);
    let k_nat = &ds.kernel(f);
    let k_perm = ds.reordered_kernel(f, Ordering::Hilbert);

    let n = ds.acq.n_receivers();
    let x_nat: Vec<C32> = (0..n)
        .map(|i| C32::new(i as f32 * 0.01, -(i as f32) * 0.02))
        .collect();
    let x_perm = cols.apply(&x_nat);

    let y_nat = k_nat.apply(&x_nat);
    let y_perm = k_perm.apply(&x_perm);
    // y_perm[i] should equal y_nat[rows.forward[i]].
    for (i, yp) in y_perm.iter().enumerate() {
        let want = y_nat[rows.forward[i]];
        assert!((*yp - want).abs() < 1e-4, "row {i}");
    }
}

#[test]
fn measured_workload_places_on_small_cluster() {
    // A real (laptop-scale) compressed workload must flow through the WSE
    // placement machinery without synthetic calibration.
    let ds = dataset();
    let tlr = compress_dataset(&ds, compression(8, 1e-3), Ordering::Hilbert);
    let workload = Workload::from_tlr_matrices(&tlr);
    let cluster = Cluster::new(1);
    for strategy in [Strategy::FusedSinglePe, Strategy::ScatterEightPes] {
        let rep = place(&workload, 8, strategy, &cluster).expect("tiny workload must fit");
        assert!(rep.pes_used > 0);
        assert!(rep.occupancy < 0.05, "tiny workload, near-empty wafer");
        assert!(rep.relative_bw > 0.0);
        assert!(rep.flops > 0);
    }
}

#[test]
fn gilbert_ordering_compresses_like_hilbert() {
    // The rectangle-exact generalized Hilbert curve should compress the
    // frequency matrices about as well as the square-embedded Hilbert
    // sort (both gather spatial clusters into tiles).
    let ds = dataset();
    let hil = compress_dataset(&ds, compression(8, 5e-3), Ordering::Hilbert);
    let gil = compress_dataset(&ds, compression(8, 5e-3), Ordering::GilbertRect);
    let hil_bytes: usize = hil.iter().map(|t| t.compressed_bytes()).sum();
    let gil_bytes: usize = gil.iter().map(|t| t.compressed_bytes()).sum();
    let ratio = gil_bytes as f64 / hil_bytes as f64;
    assert!(
        (0.8..=1.2).contains(&ratio),
        "gilbert {gil_bytes} vs hilbert {hil_bytes} (ratio {ratio})"
    );
}

#[test]
fn mdc_time_domain_roundtrip_energy() {
    // Frequency-domain MDC output converted to time must conserve the
    // per-bin energy (Parseval on the retained bins).
    let ds = dataset();
    let vs = 1;
    let y = ds.observed_data(vs);
    let bins: Vec<usize> = ds.slices.iter().map(|s| s.bin).collect();
    let n_src = ds.acq.n_sources();
    let flat: Vec<C32> = y.concat();
    let traces = seismic_mdd::freq_vectors_to_time_traces(&flat, &bins, n_src, ds.config.nt);
    assert_eq!(traces.len(), n_src);
    // Time-domain energy: (2/nt)·Σ|Y_k|² for one-sided bins (k≠0,Nyq).
    let nt = ds.config.nt as f64;
    let freq_energy: f64 = flat.iter().map(|v| v.norm_sqr() as f64).sum::<f64>() * 2.0 / nt / nt;
    let time_energy: f64 = traces.iter().flatten().map(|v| v * v).sum::<f64>() / nt;
    assert!(
        (freq_energy - time_energy).abs() < 1e-6 * freq_energy.max(1e-30),
        "Parseval: freq {freq_energy} vs time {time_energy}"
    );
}

#[test]
fn compression_backends_agree_on_operator_action() {
    // Every backend at the same tolerance produce operators whose
    // action agrees within the tolerance.
    let ds = dataset();
    let dense = ds.reordered_kernel(0, Ordering::Hilbert);
    let (m, n) = dense.shape();
    let x: Vec<C32> = (0..n)
        .map(|i| C32::new((i as f32).cos(), (i as f32 * 0.5).sin()))
        .collect();
    let mut dense_y = vec![C32::new(0.0, 0.0); m];
    seismic_la::blas::gemv(&dense, &x, &mut dense_y);
    let scale = nrm2(&dense_y).max(1e-20);
    for method in CompressionMethod::ALL {
        let tlr = compress(
            &dense,
            CompressionConfig {
                nb: 8,
                acc: 1e-4,
                method,
                mode: ToleranceMode::RelativeTile,
            },
        );
        let y = tlr.apply(&x);
        let err: f32 = y
            .iter()
            .zip(&dense_y)
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum::<f32>()
            .sqrt();
        assert!(err < 2e-3 * scale, "{method:?}: err {err} scale {scale}");
    }
}
