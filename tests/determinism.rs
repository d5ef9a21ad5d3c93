//! Determinism: every pipeline stage is seeded and reproducible — two
//! independent runs must agree bit-for-bit (modulo rayon reduction order,
//! which the implementations keep deterministic by reducing sequentially).

use seis_wave::{DatasetConfig, SyntheticDataset, VelocityModel};
use seismic_geom::Ordering;
use seismic_mdd::{compress_dataset, run_mdd_with_operators, LsqrOptions, MddConfig};
use tlr_mvm::{CompressionConfig, CompressionMethod, Tile, ToleranceMode};
use wse_sim::RankModel;

fn dataset() -> SyntheticDataset {
    SyntheticDataset::generate(DatasetConfig::tiny(), VelocityModel::overthrust())
}

#[test]
fn dataset_generation_is_deterministic() {
    let a = dataset();
    let b = dataset();
    assert_eq!(a.n_freqs(), b.n_freqs());
    for (sa, sb) in a.slices.iter().zip(&b.slices) {
        assert_eq!(sa.bin, sb.bin);
        assert_eq!(sa.kernel.as_slice(), sb.kernel.as_slice());
    }
}

#[test]
fn compression_is_deterministic() {
    let ds = dataset();
    let cfg = CompressionConfig {
        nb: 8,
        acc: 1e-3,
        method: CompressionMethod::Svd,
        mode: ToleranceMode::RelativeTile,
    };
    let a = compress_dataset(&ds, cfg, Ordering::Hilbert);
    let b = compress_dataset(&ds, cfg, Ordering::Hilbert);
    for (ta, tb) in a.iter().zip(&b) {
        assert_eq!(ta.total_rank(), tb.total_rank());
        assert_eq!(ta.compressed_bytes(), tb.compressed_bytes());
        // The stored forms agree exactly.
        for ((_, _, la), (_, _, lb)) in ta.tiles_with_coords().zip(tb.tiles_with_coords()) {
            match (la, lb) {
                (Tile::LowRank(la), Tile::LowRank(lb)) => {
                    assert_eq!(la.u.as_slice(), lb.u.as_slice());
                    assert_eq!(la.v.as_slice(), lb.v.as_slice());
                }
                (Tile::Dense(a), Tile::Dense(b)) => assert_eq!(a.as_slice(), b.as_slice()),
                _ => panic!("one run stored a tile dense, the other as factors"),
            }
        }
    }
    // The randomized backend is seeded per tile and equally deterministic.
    let cfg_rsvd = CompressionConfig {
        method: CompressionMethod::Rsvd,
        ..cfg
    };
    let ra = compress_dataset(&ds, cfg_rsvd, Ordering::Hilbert);
    let rb = compress_dataset(&ds, cfg_rsvd, Ordering::Hilbert);
    for (ta, tb) in ra.iter().zip(&rb) {
        assert_eq!(ta.total_rank(), tb.total_rank());
    }
}

#[test]
fn mdd_solve_is_deterministic() {
    let ds = dataset();
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
    let a = run_mdd_with_operators(&ds, &tlr, 3, &cfg);
    let b = run_mdd_with_operators(&ds, &tlr, 3, &cfg);
    assert_eq!(a.nmse_inverse, b.nmse_inverse);
    assert_eq!(a.inverted, b.inverted);
    assert_eq!(a.residual_history, b.residual_history);
}

#[test]
fn rank_model_and_noise_are_seeded() {
    let w1 = RankModel::paper(70, 1e-4).unwrap().generate();
    let w2 = RankModel::paper(70, 1e-4).unwrap().generate();
    assert_eq!(w1.col_ranks, w2.col_ranks);

    let ds = dataset();
    let n1 = ds.observed_data_noisy(1, 5.0, 7);
    let n2 = ds.observed_data_noisy(1, 5.0, 7);
    assert_eq!(n1, n2);
    let n3 = ds.observed_data_noisy(1, 5.0, 8);
    assert_ne!(n1, n3, "different seeds must differ");
}
