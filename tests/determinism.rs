//! Determinism: every pipeline stage is seeded and reproducible — two
//! independent runs must agree bit-for-bit (modulo rayon reduction order,
//! which the implementations keep deterministic by reducing sequentially).

use seis_wave::modeling::{downgoing_matrix, ModelingConfig};
use seis_wave::{DatasetConfig, SyntheticDataset, VelocityModel};
use seismic_geom::Ordering;
use seismic_la::svd_truncate;
use seismic_mdd::driver::compression_stats;
use seismic_mdd::{compress_dataset, run_mdd_with_operators, LsqrOptions, MddConfig};
use tlr_mvm::{compress, CompressionConfig, CompressionMethod, TileRef, ToleranceMode};
use wse_sim::RankModel;

fn dataset() -> SyntheticDataset {
    SyntheticDataset::generate(DatasetConfig::tiny(), VelocityModel::overthrust())
}

#[test]
fn dataset_generation_is_deterministic() {
    let a = dataset();
    let b = dataset();
    assert_eq!(a.n_freqs(), b.n_freqs());
    for (f, (sa, sb)) in a.slices.iter().zip(&b.slices).enumerate() {
        assert_eq!(sa.bin, sb.bin);
        assert_eq!(a.kernel(f).as_slice(), b.kernel(f).as_slice());
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
    for (f, s) in ds.slices.iter().enumerate() {
        let want = downgoing_matrix(s.freq_hz, s.wavelet_amp, &ds.acq, &ds.model, &mcfg);
        assert_eq!(ds.kernel(f).shape(), want.shape());
        let differing = ds
            .kernel(f)
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

#[test]
#[ignore = "11.7 M entries: CI runs it in release"]
fn generate_is_the_per_frequency_oracle_at_scale_5_stride_2() {
    // `sweep-large`: 1032×630, every second bin.
    assert_generate_is_the_per_frequency_oracle(5, 2, 18);
}

/// `sweep-large`'s dataset (1032×630, every second bin) gathered the two
/// ways the pipeline reads it — Hilbert-ordered for the compressor,
/// multiplied for the observed data — against the per-frequency oracle
/// permuted and multiplied densely, bit for bit.
#[test]
#[ignore = "11.7 M entries twice: CI runs it in release"]
fn gathers_at_scale_5_stride_2_are_the_dense_forms_bit_for_bit() {
    let config = DatasetConfig {
        scale: 5,
        freq_stride: 2,
        ..DatasetConfig::default()
    };
    let mcfg = ModelingConfig {
        n_water_multiples: config.n_water_multiples,
        ..ModelingConfig::default()
    };
    let ds = SyntheticDataset::generate(config, VelocityModel::overthrust());
    let (rows, cols) = ds.permutations(Ordering::Hilbert);
    let x = ds.true_reflectivity(ds.acq.n_receivers() / 3);
    let y = ds.observed_data_of(&x);
    let bits = |v: &[seismic_la::C32]| -> Vec<(u32, u32)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    };
    for (f, s) in ds.slices.iter().enumerate() {
        let dense = downgoing_matrix(s.freq_hz, s.wavelet_amp, &ds.acq, &ds.model, &mcfg);
        let permuted = dense.permute(&rows.forward, &cols.forward);
        let got = ds.reordered_kernel_with(f, &rows, &cols);
        assert!(
            bits(got.as_slice()) == bits(permuted.as_slice()),
            "bin {}: permuted",
            s.bin
        );
        let mut want = vec![seismic_la::C32::new(0.0, 0.0); dense.nrows()];
        seismic_la::blas::gemv(&dense, &x[f], &mut want);
        assert!(bits(&y[f]) == bits(&want), "bin {}: observed data", s.bin);
    }
}

/// What a compressed stack is pinned by: tile count, rank sum, stored
/// bytes, dense-tile count, and an FNV-1a checksum over the positions
/// (frequency-major, then tile-column-major) of the tiles stored dense.
type StackSignature = (usize, usize, usize, usize, u64);

fn stack_signature(scale: usize, freq_stride: usize, cfg: CompressionConfig) -> StackSignature {
    let config = DatasetConfig {
        scale,
        freq_stride,
        ..DatasetConfig::default()
    };
    let ds = SyntheticDataset::generate(config, VelocityModel::overthrust());
    let tlr = compress_dataset(&ds, cfg, Ordering::Hilbert);
    let stats = compression_stats(&tlr);
    let mut dense_at = 0xcbf2_9ce4_8422_2325_u64;
    let tiles = tlr.iter().flat_map(|t| t.tiles_with_coords());
    let mut count = 0;
    for (k, (_, _, tile)) in tiles.enumerate() {
        count += 1;
        if matches!(tile, TileRef::Dense(_)) {
            for b in (k as u64).to_le_bytes() {
                dense_at = (dense_at ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    (
        count,
        stats.total_rank,
        stats.compressed_bytes,
        stats.dense_tiles,
        dense_at,
    )
}

fn config(nb: usize, acc: f32, method: CompressionMethod) -> CompressionConfig {
    CompressionConfig {
        nb,
        acc,
        method,
        mode: ToleranceMode::RelativeTile,
    }
}

/// The default dataset (scale 12, all 36 bins) at the `solve-small`
/// configuration: ranks, forms and which tiles are dense as they were
/// before the skeleton form and the dense certificate — the certificate
/// may only skip work, the skeleton only words — and the stored bytes,
/// `r·(m+n−r)·8 + n` per skeleton and `m·n·8` per dense tile (4,873,216
/// as `U`/`V` pairs).
#[test]
fn default_stack_keeps_its_ranks_and_pins_its_bytes() {
    assert_eq!(
        stack_signature(12, 1, config(16, 1e-4, CompressionMethod::Svd)),
        (3_024, 37_433, 4_722_168, 2_522, 0x2b06_4e35_dcf0_3f2f)
    );
}

/// The other small-tile stacks of the default dataset, where a rounding
/// change in the factorisations would first move a rank: `serve-mix`'s two
/// looser keys (SVD at `(16, 1e-3)` and `(8, 1e-3)`; its third,
/// `(16, 1e-4)`, is `solve-small`'s stack, pinned above), the RRQR backend
/// at `solve-small`'s point and the randomized one at `(32, 1e-3)` (at
/// `nb` 16 its 16-column sketch spans the tile and it is the SVD). Pinned
/// as they were before the QR downdated its column norms and the QR and
/// Jacobi kernels moved to lanes.
#[test]
fn small_tile_stacks_keep_their_ranks_and_pin_their_bytes() {
    assert_eq!(
        stack_signature(12, 1, config(16, 1e-3, CompressionMethod::Svd)),
        (3_024, 29_291, 4_070_552, 1_784, 0xb777_721a_088d_f737)
    );
    assert_eq!(
        stack_signature(12, 1, config(8, 1e-3, CompressionMethod::Svd)),
        (10_764, 72_744, 4_758_112, 9_088, 0x7f7b_dee2_e1ce_d1e3)
    );
    assert_eq!(
        stack_signature(12, 1, config(16, 1e-4, CompressionMethod::Rrqr)),
        (3_024, 38_897, 4_830_968, 2_666, 0xe6a8_88a5_297f_2d29)
    );
    assert_eq!(
        stack_signature(12, 1, config(32, 1e-3, CompressionMethod::Rsvd)),
        (864, 9_773, 3_293_416, 346, 0xcc1d_650c_f8a5_7f88)
    );
}

/// The benchmark's `compress-stack` stack at its two `(nb, acc)` points
/// (the first is `wse-map`'s too): every rank and form as before
/// `jacobi_svd` and `pivoted_qr` regrouped their arithmetic and before the
/// QR stage learnt to prove a tile dense. A rounding change that flips
/// one tile's rank moves `total_rank`; a certificate that fires on a tile
/// the truncation would have stored as factors moves the dense count and
/// the checksum. Bytes were 7,694,560 / 7,394,216 as `U`/`V` pairs.
#[test]
#[ignore = "6,240 tile SVDs: CI runs it in release"]
fn compress_stack_keeps_every_rank_it_had() {
    assert_eq!(
        stack_signature(8, 3, config(32, 1e-4, CompressionMethod::Svd)),
        (1_248, 23_056, 7_019_034, 513, 0x9263_00d5_18b3_aa49)
    );
    assert_eq!(
        stack_signature(8, 3, config(16, 1e-3, CompressionMethod::Svd)),
        (4_992, 43_947, 6_757_088, 2_061, 0x73bf_557b_f4d7_7dd7)
    );
}

/// The two scale-5 benchmark stacks, `solve-large` (every third bin, SVD
/// at `nb` 32) and `sweep-large` (every second bin, RRQR at `nb` 64):
/// 42,628,864 and 55,122,784 bytes as `U`/`V` pairs.
#[test]
#[ignore = "10,980 tile compressions at 1032×630: CI runs it in release"]
fn scale_5_stacks_keep_their_ranks_and_pin_their_bytes() {
    assert_eq!(
        stack_signature(5, 3, config(32, 1e-4, CompressionMethod::Svd)),
        (7_920, 107_758, 37_486_216, 1_425, 0x472a_b38c_4c0c_6fe7)
    );
    assert_eq!(
        stack_signature(5, 2, config(64, 1e-4, CompressionMethod::Rrqr)),
        (3_060, 68_004, 47_999_108, 349, 0x75b4_522c_ed22_a191)
    );
}

/// `compress_dataset`, which gathers each tile from the dataset's tables,
/// against `compress` of each Hilbert-ordered frequency matrix, tile by
/// tile: the same form and rank, and the same bits of the skeleton's panel
/// and column order or of the dense block.
fn assert_compress_dataset_is_compress_of_each_kernel(
    scale: usize,
    freq_stride: usize,
    cfg: CompressionConfig,
) {
    let config = DatasetConfig {
        scale,
        freq_stride,
        ..DatasetConfig::default()
    };
    let ds = SyntheticDataset::generate(config, VelocityModel::overthrust());
    let (rows, cols) = ds.permutations(Ordering::Hilbert);
    let bits = |a: &seismic_la::Matrix<seismic_la::C32>| -> Vec<(u32, u32)> {
        let v = a.as_slice();
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    };
    for (f, got) in compress_dataset(&ds, cfg, Ordering::Hilbert)
        .iter()
        .enumerate()
    {
        let want = compress(&ds.reordered_kernel_with(f, &rows, &cols), cfg);
        assert_eq!(got.tiling(), want.tiling());
        let tiles = got.tiles_with_coords().zip(want.tiles_with_coords());
        for ((i, j, g), (_, _, w)) in tiles {
            let at = format!("scale {scale} / stride {freq_stride}: bin {f}, tile ({i},{j})");
            assert_eq!(g.rank(), w.rank(), "{at}");
            match (g, w) {
                (TileRef::LowRank(g), TileRef::LowRank(w)) => {
                    assert!(bits(g.panel()) == bits(w.panel()), "{at}: panel");
                    assert!(g.perm().eq(w.perm()), "{at}: column order");
                }
                (TileRef::Dense(g), TileRef::Dense(w)) => {
                    assert!(bits(&g.to_matrix()) == bits(&w.to_matrix()), "{at}: block")
                }
                _ => panic!("{at}: stored in another form"),
            }
        }
    }
}

/// The two scale-5 benchmark stacks, `solve-large`'s (SVD at `nb` 32) and
/// `sweep-large`'s (RRQR at `nb` 64), compressed from the tables and from
/// the dense frequency matrices: the same operators, bit for bit.
#[test]
#[ignore = "10,980 tile compressions twice at 1032×630: CI runs it in release"]
fn scale_5_stacks_compressed_from_the_tables_are_the_dense_paths_bit_for_bit() {
    assert_compress_dataset_is_compress_of_each_kernel(
        5,
        3,
        config(32, 1e-4, CompressionMethod::Svd),
    );
    assert_compress_dataset_is_compress_of_each_kernel(
        5,
        2,
        config(64, 1e-4, CompressionMethod::Rrqr),
    );
}

/// `(certified, dense)`: of the tiles an SVD-compressed stack stores
/// dense (`compress_tile` returned no skeleton), how many `svd_truncate`
/// proves dense from its QR's leading rows at the stop rank
/// `compress_tile` passes it — the tiles that never reach Jacobi.
fn dense_census(scale: usize, freq_stride: usize, nb: usize, acc: f32) -> (usize, usize) {
    let config = DatasetConfig {
        scale,
        freq_stride,
        ..DatasetConfig::default()
    };
    let ds = SyntheticDataset::generate(config, VelocityModel::overthrust());
    let cfg = self::config(nb, acc, CompressionMethod::Svd);
    let tlr = compress_dataset(&ds, cfg, Ordering::Hilbert);
    let (rows, cols) = ds.permutations(Ordering::Hilbert);
    let (mut certified, mut dense) = (0, 0);
    for (f, stack) in tlr.iter().enumerate() {
        let kernel = ds.reordered_kernel_with(f, &rows, &cols);
        let tiling = stack.tiling();
        for (i, j, tile) in stack.tiles_with_coords() {
            if !matches!(tile, TileRef::Dense(_)) {
                continue;
            }
            let ((r0, m), (c0, n)) = (tiling.row_range(i), tiling.col_range(j));
            let block = kernel.block(r0, c0, m, n);
            let tol = acc * block.fro_norm();
            dense += 1;
            if svd_truncate(&block, tol, Some((m * n).div_ceil(m + n))).is_none() {
                certified += 1;
            }
        }
    }
    (certified, dense)
}

/// How far the dense certificate reaches: nine in ten of the tiles stored
/// dense on the `compress-stack` stacks (466 of 513, 1,952 of 2,061), and
/// 1,222 of 1,425 (86 %) on the `solve-large` stack, where more of them
/// keep `⌈m·n/(m+n)⌉` ranks only through a tail of singular values each
/// below the tolerance, which a bound on one singular value cannot see.
/// The pins above hold that it never fires on a tile stored as factors.
#[test]
#[ignore = "re-truncates every dense tile of three stacks: CI runs it in release"]
fn dense_certificate_reaches_most_dense_tiles() {
    let stacks = [
        (8, 3, 32, 1e-4, 90),
        (8, 3, 16, 1e-3, 90),
        (5, 3, 32, 1e-4, 85),
    ];
    for (scale, stride, nb, acc, percent) in stacks {
        let (certified, dense) = dense_census(scale, stride, nb, acc);
        assert!(
            100 * certified >= percent * dense,
            "scale {scale}, nb {nb}, acc {acc}: {certified} of {dense} dense tiles certified"
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
                (TileRef::LowRank(la), TileRef::LowRank(lb)) => {
                    assert_eq!(la.panel().as_slice(), lb.panel().as_slice());
                    assert!(la.perm().eq(lb.perm()));
                }
                (TileRef::Dense(a), TileRef::Dense(b)) => {
                    assert_eq!(a.to_matrix().as_slice(), b.to_matrix().as_slice())
                }
                _ => panic!("one run stored a tile dense, the other as a skeleton"),
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
