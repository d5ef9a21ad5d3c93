//! Functional execution: run the TLR-MVM rank chunks the way the CS-2
//! placement lays them out — one virtual PE per chunk, host-side
//! reduction — while accumulating the cycle model. Used to prove the
//! mapping computes the right answer.
//!
//! The arithmetic is the layout's own [`ChunkRun`] over its rank chunks —
//! views of the matrix's tiles — the run
//! [`tlr_mvm::CommAvoiding::apply_chunked`] makes, so the two agree bit
//! for bit; this module adds the cost model, which reads each chunk's
//! modelled shape (`(cl + nb)·w` SRAM words), not its storage: the eight
//! real MVMs a PE runs on split-complex operands are counted by
//! [`crate::cycles`], not executed.

use seismic_la::scalar::C32;
use tlr_mvm::cast::to_u64;
use tlr_mvm::layouts::{ChunkRun, RankChunk};

use std::collections::BTreeMap;

use tlr_mvm::trace;

use crate::cycles::ChunkCost;
use crate::machine::Cs2Config;
use crate::placement::Strategy;

/// Result of a functional run.
#[derive(Clone, Debug)]
pub struct ExecResult {
    /// The reduced output vector (length `m`).
    pub y: Vec<C32>,
    /// Worst per-PE cycle count under the calibrated model.
    pub worst_cycles: u64,
    /// Virtual PEs engaged.
    pub pes_used: u64,
    /// Total real fmacs of the eight real MVMs (§6.6): `4·cl·w` for the V
    /// phase and `4·Σ row_len` for the U phase of each chunk — exactly
    /// the count a split-complex kernel performs on that shape.
    pub fmacs: u64,
}

/// Execute rank chunks functionally as virtual PEs.
///
/// Every chunk runs its fused V+U kernel into a partial over its own row
/// span; the partials are reduced on the host in chunk order, as the
/// paper does. `m` is the (unpadded) output length; `nb` the tile size,
/// which must be every chunk's U height.
pub fn execute_chunks(
    chunks: &[RankChunk],
    x: &[C32],
    m: usize,
    nb: usize,
    strategy: Strategy,
    cfg: &Cs2Config,
) -> ExecResult {
    for (c, ch) in chunks.iter().enumerate() {
        let (cols, rows) = (ch.x_range(), ch.row_span());
        assert!(
            ch.u_rows() == nb && cols.end <= x.len() && rows.end <= m,
            "chunk {c} (tile column {}, U height {}, x[{cols:?}], y[{rows:?}]) does not fit \
             nb {nb}, x of {} and m {m}",
            ch.col(),
            ch.u_rows(),
            x.len()
        );
    }
    // The run's one buffer and the output are allocated before the span
    // opens: the traced region is pure simulated-PE compute (HP01).
    let (mut buf, mut y) = (Vec::new(), vec![C32::new(0.0, 0.0); m]);
    let mut run = ChunkRun::new(chunks, x, &mut buf);

    let _span = trace::span("wse.exec");
    trace_pe_groups(chunks, nb, cfg);
    run.apply();
    run.reduce_into(&mut y);
    let (mut worst_cycles, mut fmacs, mut pes_used) = (0u64, 0u64, 0u64);
    for ch in chunks {
        let (cl, w) = (ch.x_range().len(), ch.width());
        let cost = ChunkCost::new(nb, cl, w, strategy, cfg);
        worst_cycles = worst_cycles.max(cost.pe_cycles);
        pes_used += cost.pes;
        fmacs += 4 * to_u64(cl * w + ch.row_len().iter().sum::<usize>());
    }
    ExecResult {
        y,
        worst_cycles,
        pes_used,
        fmacs,
    }
}

/// Attribute modeled cycles and resident SRAM bytes per PE *group*
/// (chunks sharing the same `(cl, w)` program shape run the same PE
/// code), plus the modeled V/U phase split summed over all PEs — the
/// numbers a `--trace` run cross-checks against measured wall-clock
/// phase ratios.
fn trace_pe_groups(chunks: &[RankChunk], nb: usize, cfg: &Cs2Config) {
    if !trace::is_enabled() {
        return;
    }
    // (cl, w) → (pes, cycles, sram_bytes).
    let mut groups: BTreeMap<(usize, usize), (u64, u64, u64)> = BTreeMap::new();
    let (mut v_cycles, mut u_cycles) = (0u64, 0u64);
    for ch in chunks {
        let (cl, w) = (ch.x_range().len(), ch.width());
        let ChunkCost { v, u, .. } = ChunkCost::new(nb, cl, w, Strategy::FusedSinglePe, cfg);
        v_cycles += v.cycles;
        u_cycles += u.cycles;
        // Split-complex storage: 8 bytes per stored complex word.
        let sram = 8 * to_u64(ch.stored_elements());
        let g = groups.entry((cl, w)).or_insert((0, 0, 0));
        g.0 += 1;
        g.1 += v.cycles + u.cycles;
        g.2 += sram;
    }
    for ((cl, w), (pes, cycles, sram)) in &groups {
        let name = format!("wse.pe_group.cl{cl}_w{w}");
        trace::add_cycles(&name, *cycles);
        trace::add_sram_bytes(&name, *sram);
        trace::add_iterations(&name, *pes);
    }
    trace::add_cycles("wse.exec.v_phase", v_cycles);
    trace::add_cycles("wse.exec.u_phase", u_cycles);
}

#[cfg(test)]
mod tests {
    use super::*;
    use seismic_la::blas::gemv;
    use seismic_la::scalar::C64;
    use seismic_la::Matrix;
    use tlr_mvm::{
        compress, CommAvoiding, CompressionConfig, CompressionMethod, Skeleton, Tiling, TlrMatrix,
        ToleranceMode,
    };

    /// Per stack width 1, 3, 5, 12 and `usize::MAX` on [`ragged_store`]:
    /// chunks, Σ width, Σ row_len, Σ row_span, Σ stored_elements, then
    /// `fmacs` and `worst_cycles` of strategy 1 and of strategy 2.
    const RAGGED_MODEL: [[u64; 9]; 5] = [
        [99, 99, 2304, 2304, 4458, 17544, 3696, 17544, 462],
        [34, 99, 2304, 910, 4458, 17544, 4288, 17544, 536],
        [21, 99, 2304, 606, 4458, 17544, 4880, 17544, 610],
        [10, 99, 2304, 374, 4458, 17544, 6952, 17544, 869],
        [4, 99, 2304, 258, 4458, 17544, 14944, 17544, 1868],
    ];

    fn kernel(m: usize, n: usize) -> Matrix<C32> {
        Matrix::from_fn(m, n, |i, j| {
            let x = i as f32 / m as f32;
            let y = j as f32 / n as f32;
            let d = ((x - y) * (x - y) + 0.02).sqrt();
            C32::from_polar(1.0 / (1.0 + 3.0 * d), -9.0 * d)
        })
    }

    fn test_x(n: usize) -> Vec<C32> {
        (0..n)
            .map(|i| C32::new((i as f32 * 0.13).sin(), (i as f32 * 0.29).cos()))
            .collect()
    }

    #[test]
    fn functional_exec_matches_host_tlrmvm() {
        let a = kernel(67, 53);
        let tlr = compress(
            &a,
            CompressionConfig {
                nb: 16,
                acc: 1e-4,
                method: CompressionMethod::Svd,
                mode: ToleranceMode::RelativeTile,
            },
        );
        let ca = CommAvoiding::new(&tlr);
        let x = test_x(53);
        let want = ca.apply(&x);
        let cfg = Cs2Config::default();
        for sw in [3usize, 8, 64] {
            let chunks = ca.chunks(sw);
            let res = execute_chunks(&chunks, &x, 67, 16, Strategy::FusedSinglePe, &cfg);
            assert_eq!(res.pes_used, chunks.len() as u64);
            let scale = seismic_la::blas::nrm2(&want).max(1.0);
            for (g, w) in res.y.iter().zip(&want) {
                assert!((*g - *w).abs() < 1e-4 * scale, "sw={sw}: {g} vs {w}");
            }
        }
    }

    fn compress_at(a: &Matrix<C32>, nb: usize) -> tlr_mvm::TlrMatrix {
        compress(
            a,
            CompressionConfig {
                nb,
                acc: 1e-4,
                method: CompressionMethod::Svd,
                mode: ToleranceMode::RelativeTile,
            },
        )
    }

    /// The simulator runs the layout's own chunk kernel: its output is
    /// `apply_chunked`'s to the bit, at every width, under both
    /// strategies, on a tiling ragged in both dimensions with a tile
    /// column of rank zero, and on the all-zero matrix (no chunks at all).
    #[test]
    fn exec_equals_apply_chunked_bit_for_bit() {
        let (m, n, nb) = (67, 53, 16);
        let (a, zero) = (kernel(m, n), C32::new(0.0, 0.0));
        let hole = Matrix::from_fn(m, n, |i, j| if j / nb == 1 { zero } else { a[(i, j)] });
        let cfg = Cs2Config::default();
        let x = test_x(n);
        for (dense, zero_rank_cols) in [(a, 0), (hole, 1), (Matrix::zeros(m, n), 4)] {
            let ca = CommAvoiding::new(&compress_at(&dense, nb));
            let empty = ca.columns().iter().filter(|c| c.rank() == 0).count();
            assert_eq!(empty, zero_rank_cols);
            for sw in [1usize, 2, 3, 7, 16, 64, 1000] {
                let want = ca.apply_chunked(&x, sw);
                for strategy in [Strategy::FusedSinglePe, Strategy::ScatterEightPes] {
                    let got = execute_chunks(&ca.chunks(sw), &x, m, nb, strategy, &cfg).y;
                    assert_eq!(got.len(), want.len());
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(
                            (g.re.to_bits(), g.im.to_bits()),
                            (w.re.to_bits(), w.im.to_bits()),
                            "sw={sw} {strategy:?}"
                        );
                    }
                }
            }
        }
    }

    /// The simulated counts at one geometry equal what a split-complex PE
    /// kernel performs: `fmacs` from the shape formula, `worst_cycles`
    /// from the `MvmTask` model.
    #[test]
    fn exec_counts_match_the_split_complex_executor() {
        let ca = CommAvoiding::new(&compress_at(&kernel(60, 44), 12));
        let (x, cfg) = (test_x(44), Cs2Config::default());
        let chunks = ca.chunks(5);
        let s1 = execute_chunks(&chunks, &x, 60, 12, Strategy::FusedSinglePe, &cfg);
        let s2 = execute_chunks(&chunks, &x, 60, 12, Strategy::ScatterEightPes, &cfg);
        assert_eq!((s1.fmacs, s1.worst_cycles, s1.pes_used), (6528, 4400, 16));
        assert_eq!((s2.fmacs, s2.worst_cycles, s2.pes_used), (6528, 550, 128));
    }

    /// A chunk's U height is the tile size: a different `nb` would place
    /// its rows in the wrong tile rows, so it is refused, naming the chunk.
    /// So is an input too short for a chunk's columns.
    #[test]
    #[should_panic(expected = "chunk 0 (tile column 0, U height 12, x[0..12], y[0..")]
    fn exec_rejects_an_nb_other_than_the_chunks_u_height() {
        let ca = CommAvoiding::new(&compress_at(&kernel(48, 40), 12));
        let cfg = Cs2Config::default();
        execute_chunks(
            &ca.chunks(4),
            &test_x(40),
            48,
            8,
            Strategy::FusedSinglePe,
            &cfg,
        );
    }

    #[test]
    #[should_panic(expected = "x[36..40], y[0..24]) does not fit nb 12, x of 39")]
    fn exec_rejects_an_input_shorter_than_a_chunks_columns() {
        let ca = CommAvoiding::new(&compress_at(&kernel(48, 40), 12));
        let cfg = Cs2Config::default();
        execute_chunks(
            &ca.chunks(4),
            &test_x(39),
            48,
            12,
            Strategy::FusedSinglePe,
            &cfg,
        );
    }

    /// A ragged 70×106 store at `nb` 24 built by hand, the one
    /// `tests/support/ragged_store.rs` builds: per tile, column-major, a
    /// skeleton of the listed rank or, for `None`, a dense tile. It holds
    /// dense tiles, rank-0 tiles, a rank-0 tile column (2), `r = n` and a
    /// rank of every residue mod 4; the entries are exact sevenths in
    /// `[−2, 2]`.
    fn ragged_store() -> TlrMatrix {
        const RANKS: [Option<usize>; 15] = [
            Some(5),
            None,
            Some(0),
            Some(1),
            Some(6),
            Some(3),
            Some(0),
            Some(0),
            Some(0),
            Some(4),
            Some(11),
            None,
            Some(2),
            Some(10),
            Some(9),
        ];
        let tiling = Tiling::new(70, 106, 24);
        let entry = |salt: usize| {
            move |i: usize, j: usize| {
                let part = |k: usize| ((k * 37 + salt * 11) % 29) as f32 / 7.0 - 2.0;
                C32::new(part(i * 31 + j), part(i * 31 + j + 13))
            }
        };
        let skeletons = RANKS
            .iter()
            .enumerate()
            .map(|(t, rank)| {
                let (_, m) = tiling.row_range(t % tiling.tile_rows());
                let (_, n) = tiling.col_range(t / tiling.tile_rows());
                rank.map(|r| {
                    let order: Vec<usize> = (0..n).map(|k| (k * 7 + 3) % n).collect();
                    Skeleton::new(
                        &Matrix::from_fn(m, r, entry(3 * t + 1)),
                        &Matrix::from_fn(n - r, r, entry(3 * t + 2)),
                        &order,
                    )
                })
            })
            .collect();
        // Entry `(i, j)` of dense tile `t` is `entry(3t)(i, j)`.
        let nb = tiling.nb;
        let block = |r0: usize, c0: usize, m: usize, n: usize| {
            Matrix::from_fn(m, n, |i, j| {
                let (r, c) = (r0 + i, c0 + j);
                entry(3 * tiling.tile_index(r / nb, c / nb))(r % nb, c % nb)
            })
        };
        TlrMatrix::new(
            tiling,
            CompressionConfig::paper_default().with_nb(24),
            skeletons,
            block,
        )
    }

    /// `‖got − A x‖ / (‖A‖_F‖x‖)` against the store's reconstruction in
    /// `f64`.
    fn relative_error(t: &TlrMatrix, x: &[C32], got: &[C32]) -> f64 {
        let a = t.reconstruct();
        let (mut err, mut fro) = (0.0f64, 0.0f64);
        for (i, g) in got.iter().enumerate() {
            let mut want = C64::new(0.0, 0.0);
            for (j, xj) in x.iter().enumerate() {
                want += a[(i, j)].widen() * xj.widen();
                fro += a[(i, j)].widen().norm_sqr();
            }
            err += (g.widen() - want).norm_sqr();
        }
        let xn = x.iter().map(|v| v.widen().norm_sqr()).sum::<f64>();
        (err / (fro * xn)).sqrt()
    }

    /// On the ragged store, at stack widths that start and end chunks
    /// inside tiles' rank ranges (1, 3, 5, 12) and at one chunk per tile
    /// column, the comm-avoiding apply, the chunked apply and the
    /// simulator's run are the reconstruction's product to four units of
    /// `f32` rounding relative to `‖A‖_F‖x‖`, and the simulator's run is
    /// the chunked apply's bits.
    #[test]
    fn exec_on_a_ragged_store_matches_the_dense_reconstruction() {
        let t = ragged_store();
        assert_eq!((t.dense_tiles(), t.column_rank(2)), (2, 0));
        let ca = CommAvoiding::new(&t);
        let (x, cfg) = (test_x(106), Cs2Config::default());
        let bound = 4.0 * f64::from(f32::EPSILON);
        let whole = ca.apply(&x);
        assert!(relative_error(&t, &x, &whole) <= bound);
        for sw in [1usize, 3, 5, 12, usize::MAX] {
            let chunked = ca.apply_chunked(&x, sw);
            let err = relative_error(&t, &x, &chunked);
            assert!(err <= bound, "sw={sw}: {err:e}");
            let run = execute_chunks(&ca.chunks(sw), &x, 70, 24, Strategy::FusedSinglePe, &cfg);
            assert!(run.y == chunked, "sw={sw}: execute_chunks is apply_chunked");
        }
    }

    /// The simulator's model reads the layout's shapes, not its storage:
    /// on the ragged store, per stack width, the chunk count, the sums of
    /// `width`, `row_len`, `row_span` and `stored_elements` (the modelled
    /// `(cl + nb)·w` SRAM words), and `execute_chunks`' `fmacs` and
    /// `worst_cycles` under both strategies — values the stacked-copy
    /// layout gave.
    #[test]
    fn exec_model_of_a_ragged_store_is_pinned() {
        let ca = CommAvoiding::new(&ragged_store());
        let (x, cfg) = (test_x(106), Cs2Config::default());
        let mut got = Vec::new();
        for sw in [1usize, 3, 5, 12, usize::MAX] {
            let chunks = ca.chunks(sw);
            let sum = |f: &dyn Fn(&RankChunk) -> usize| chunks.iter().map(f).sum::<usize>();
            let run = |s| execute_chunks(&chunks, &x, 70, 24, s, &cfg);
            let (s1, s2) = (run(Strategy::FusedSinglePe), run(Strategy::ScatterEightPes));
            got.push([
                chunks.len() as u64,
                sum(&|c| c.width()) as u64,
                sum(&|c| c.row_len().iter().sum()) as u64,
                sum(&|c| c.row_span().len()) as u64,
                sum(&|c| c.stored_elements()) as u64,
                s1.fmacs,
                s1.worst_cycles,
                s2.fmacs,
                s2.worst_cycles,
            ]);
        }
        assert_eq!(got, RAGGED_MODEL);
    }

    #[test]
    fn strategy2_same_answer_fewer_worst_cycles() {
        let a = kernel(48, 40);
        let tlr = compress(
            &a,
            CompressionConfig {
                nb: 12,
                acc: 1e-4,
                method: CompressionMethod::Svd,
                mode: ToleranceMode::RelativeTile,
            },
        );
        let ca = CommAvoiding::new(&tlr);
        let x = test_x(40);
        let cfg = Cs2Config::default();
        let chunks = ca.chunks(6);
        let s1 = execute_chunks(&chunks, &x, 48, 12, Strategy::FusedSinglePe, &cfg);
        let s2 = execute_chunks(&chunks, &x, 48, 12, Strategy::ScatterEightPes, &cfg);
        for (a, b) in s1.y.iter().zip(&s2.y) {
            assert_eq!(a, b, "strategies must compute identical results");
        }
        assert!(s2.worst_cycles < s1.worst_cycles);
        assert_eq!(s2.pes_used, 8 * s1.pes_used);
    }

    #[test]
    fn exec_matches_dense_reference() {
        let a = kernel(50, 38);
        let tlr = compress(
            &a,
            CompressionConfig {
                nb: 10,
                acc: 1e-5,
                method: CompressionMethod::Svd,
                mode: ToleranceMode::RelativeTile,
            },
        );
        let ca = CommAvoiding::new(&tlr);
        let x = test_x(38);
        let cfg = Cs2Config::default();
        let res = execute_chunks(&ca.chunks(5), &x, 50, 10, Strategy::FusedSinglePe, &cfg);
        let mut want = vec![C32::new(0.0, 0.0); 50];
        gemv(&a, &x, &mut want);
        let scale = seismic_la::blas::nrm2(&want);
        for (g, w) in res.y.iter().zip(&want) {
            assert!((*g - *w).abs() < 1e-4 * scale);
        }
        assert!(res.fmacs > 0);
    }
}
