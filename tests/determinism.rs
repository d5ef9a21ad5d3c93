//! Determinism: every pipeline stage is seeded and reproducible — two
//! independent runs must agree bit-for-bit (modulo rayon reduction order,
//! which the implementations keep deterministic by reducing sequentially).

use seis_wave::modeling::{downgoing_matrix, ModelingConfig};
use seis_wave::{DatasetConfig, SyntheticDataset, VelocityModel};
use seismic_geom::Ordering;
use seismic_mdd::driver::compression_stats;
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

/// `generate` synthesises the whole frequency stack by phasor recurrence;
/// the oracle is the one-frequency form, `downgoing_matrix`, evaluated on
/// the same host — so the comparison does not depend on the platform's
/// `sin` / `cos`. Every committed checksum downstream (ranks, accuracy
/// grids, trace counters) is a function of these bits.
fn assert_generate_is_the_per_frequency_oracle(scale: usize, freq_stride: usize, n_freqs: usize) {
    let config = DatasetConfig {
        scale,
        freq_stride,
        ..DatasetConfig::default()
    };
    let mcfg = ModelingConfig {
        n_water_multiples: config.n_water_multiples,
        ..ModelingConfig::default()
    };
    let ds = SyntheticDataset::generate(config, VelocityModel::overthrust());
    assert_eq!(ds.n_freqs(), n_freqs);
    let bits = |z: &seismic_la::C32| (z.re.to_bits(), z.im.to_bits());
    for s in &ds.slices {
        let want = downgoing_matrix(s.freq_hz, s.wavelet_amp, &ds.acq, &ds.model, &mcfg);
        assert_eq!(s.kernel.shape(), want.shape());
        let differing = s
            .kernel
            .as_slice()
            .iter()
            .zip(want.as_slice())
            .filter(|(g, w)| bits(g) != bits(w))
            .count();
        assert_eq!(differing, 0, "bin {}: entries that differ", s.bin);
    }
}

#[test]
fn generate_is_the_per_frequency_oracle_bit_for_bit() {
    // The default dataset: scale 12, all 36 bins (180×98).
    assert_generate_is_the_per_frequency_oracle(12, 1, 36);
}

#[test]
#[ignore = "1.2 M entries: CI runs it in release"]
fn generate_is_the_per_frequency_oracle_at_scale_8() {
    // `compress-stack` / `wse-map`: 405×242, every third bin.
    assert_generate_is_the_per_frequency_oracle(8, 3, 12);
}

#[test]
#[ignore = "7.8 M entries: CI runs it in release"]
fn generate_is_the_per_frequency_oracle_at_scale_5() {
    // `solve-large`: 1032×630, every third bin.
    assert_generate_is_the_per_frequency_oracle(5, 3, 12);
}

/// The benchmark's `compress-stack` stack at its two `(nb, acc)` points:
/// tile counts, rank sum, stored bytes and dense-tile counts as they were
/// before `jacobi_svd` and `pivoted_qr` regrouped their arithmetic. A
/// rounding change that flips one tile's rank moves `total_rank`; one that
/// flips a tile between forms moves `dense_tiles`.
#[test]
#[ignore = "6,240 tile SVDs: CI runs it in release"]
fn compress_stack_keeps_every_rank_it_had() {
    let config = DatasetConfig {
        scale: 8,
        freq_stride: 3,
        ..DatasetConfig::default()
    };
    let ds = SyntheticDataset::generate(config, VelocityModel::overthrust());
    // (nb, acc) → (tiles, total_rank, compressed_bytes, dense_tiles)
    let points = [
        ((32, 1e-4), (1_248, 23_056, 7_694_560, 513)),
        ((16, 1e-3), (4_992, 43_947, 7_394_216, 2_061)),
    ];
    for ((nb, acc), want) in points {
        let cfg = CompressionConfig {
            nb,
            acc,
            method: CompressionMethod::Svd,
            mode: ToleranceMode::RelativeTile,
        };
        let tlr = compress_dataset(&ds, cfg, Ordering::Hilbert);
        let tiles: usize = tlr.iter().map(|t| t.tiling().tile_count()).sum();
        let stats = compression_stats(&tlr);
        assert_eq!(
            (
                tiles,
                stats.total_rank,
                stats.compressed_bytes,
                stats.dense_tiles
            ),
            want,
            "nb {nb} acc {acc}"
        );
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
