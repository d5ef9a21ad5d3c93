//! Functional execution: run the TLR-MVM rank chunks the way the CS-2
//! placement lays them out — one virtual PE per chunk, host-side
//! reduction — while accumulating the cycle model. Used to prove the
//! mapping computes the right answer.
//!
//! The arithmetic is the layout's own [`ChunkRun`] over views of the
//! column stacks, the run [`tlr_mvm::CommAvoiding::apply_chunked`] makes,
//! so the two agree bit for bit; this module adds the cost model. The
//! split-complex arithmetic of a PE is modelled in [`crate::csl`].

use seismic_la::scalar::C32;
use tlr_mvm::layouts::{ChunkRun, RankChunk};
use tlr_mvm::precision::to_u64;

use std::collections::BTreeMap;

use tlr_mvm::trace;

use crate::cycles::{strategy1_phase_costs, MvmTask};
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
    let (mut worst_cycles, mut fmacs) = (0u64, 0u64);
    for ch in chunks {
        let (cl, w) = (ch.x_range().len(), ch.width());
        let v_task = MvmTask::dot_form(w, cl);
        let u_task = MvmTask::axpy_form(nb, w);
        let cycles = match strategy {
            Strategy::FusedSinglePe => 4 * v_task.cycles(cfg, true) + 4 * u_task.cycles(cfg, true),
            Strategy::ScatterEightPes => v_task.cycles(cfg, true).max(u_task.cycles(cfg, true)),
        };
        worst_cycles = worst_cycles.max(cycles);
        fmacs += 4 * to_u64(cl * w + ch.row_len().iter().sum::<usize>());
    }
    let pes_per_chunk = match strategy {
        Strategy::FusedSinglePe => 1,
        Strategy::ScatterEightPes => 8,
    };
    ExecResult {
        y,
        worst_cycles,
        pes_used: to_u64(chunks.len()) * pes_per_chunk,
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
        let (v, u) = strategy1_phase_costs(nb, cl, w, cfg, true);
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
    use seismic_la::Matrix;
    use tlr_mvm::{compress, CommAvoiding, CompressionConfig, CompressionMethod, ToleranceMode};

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
