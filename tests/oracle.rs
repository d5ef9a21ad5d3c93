//! One differential oracle for every product the workspace computes.
//!
//! Each operator here is checked against the same reference: the dense
//! matrix its tiles reconstruct (`TlrMatrix::reconstruct`), multiplied in
//! `f64`. What differs between the products is only the FP32 summation
//! order of the same terms, so every check has the form
//! `‖got − want‖ ≤ bound · ‖A‖_F · ‖input‖` with the bound named beside
//! the product it holds. On the all-zero matrix every product is the zero
//! vector exactly.
//!
//! The comm-avoiding forms are also held to each other bit for bit:
//! `CommAvoiding::apply` is `apply_chunked` with one chunk per column
//! stack, and `wse::execute_chunks` runs the same `ChunkRun`. On a ragged
//! store built by hand (`support/ragged_store.rs`) the layouts are held
//! at stack widths that cut tiles mid-rank, and the three-phase layout
//! phase by phase.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use seismic_la::blas::{gemv, gemv_acc, gemv_conj_transpose};
use seismic_la::scalar::{C32, C64};
use seismic_la::Matrix;
use seismic_mdd::MdcOperator;
use tlr_mvm::{
    compress, CommAvoiding, CompressionConfig, CompressionMethod, LinearOperator, ThreePhase,
    TileRef, TlrMatrix, ToleranceMode,
};
use wse_sim::{execute_chunks, Cs2Config, Strategy};

#[path = "support/ragged_store.rs"]
mod ragged_store;

const M: usize = 67;
const N: usize = 53;
const NB: usize = 16;

/// One FP32 product of the stored words, relative to `‖A‖_F·‖x‖`: four
/// units of `f32` rounding. Every product below reads at most 0.25 units
/// on these inputs, and a lost or doubled rank column reads about `acc`
/// (`1e-4`), three orders above.
const KERNEL_BOUND: f64 = 4.0 * f32::EPSILON as f64;
/// The fused call's `w = A v` reads a `v` that is itself a rounded
/// product: twice the allowance.
const FUSED_BOUND: f64 = 2.0 * KERNEL_BOUND;

/// The three inputs: a smooth kernel with tile column 1 zeroed (every
/// tile in it rank 0), the same kernel with noise on the diagonal tiles
/// (stored dense beside the low-rank ones), and the all-zero matrix.
fn inputs() -> [(&'static str, TlrMatrix); 3] {
    let smooth = Matrix::from_fn(M, N, |i, j| {
        let (x, y) = (i as f32 / M as f32, j as f32 / N as f32);
        let d = ((x - y) * (x - y) + 0.02).sqrt();
        C32::from_polar(1.0 / (1.0 + 3.0 * d), -9.0 * d)
    });
    let hole = Matrix::from_fn(M, N, |i, j| {
        if j / NB == 1 {
            C32::new(0.0, 0.0)
        } else {
            smooth[(i, j)]
        }
    });
    let noise = Matrix::<C32>::random_normal(M, N, &mut ChaCha8Rng::seed_from_u64(0x0ac1e));
    let mixed = Matrix::from_fn(M, N, |i, j| {
        if i / NB == j / NB {
            smooth[(i, j)] + noise[(i, j)]
        } else {
            smooth[(i, j)]
        }
    });
    let cfg = CompressionConfig {
        nb: NB,
        acc: 1e-4,
        method: CompressionMethod::Svd,
        mode: ToleranceMode::RelativeTile,
    };
    let out = [
        ("zero-rank tile column", compress(&hole, cfg)),
        ("dense and low-rank tiles", compress(&mixed, cfg)),
        ("all-zero", compress(&Matrix::zeros(M, N), cfg)),
    ];
    assert!(column_ranks(&out[0].1).contains(&0) && out[0].1.total_rank() > 0);
    let (dense, tiles) = (out[1].1.dense_tiles(), out[1].1.tiling().tile_count());
    assert!(0 < dense && dense < tiles, "{dense} of {tiles} tiles dense");
    assert!(out[1].1.total_rank() > 0 && out[2].1.total_rank() == 0);
    out
}

fn column_ranks(t: &TlrMatrix) -> Vec<usize> {
    (0..t.tiling().tile_cols())
        .map(|j| t.column_rank(j))
        .collect()
}

fn probe(n: usize, seed: f32) -> Vec<C32> {
    (0..n)
        .map(|i| {
            let t = i as f32 + seed;
            C32::new((0.37 * t).sin(), (0.23 * t).cos())
        })
        .collect()
}

fn widen(v: &[C32]) -> Vec<C64> {
    v.iter().map(|z| z.widen()).collect()
}

fn norm(v: &[C64]) -> f64 {
    v.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
}

/// The reference: the reconstructed matrix in `f64`, and its norm.
struct Dense {
    a: Matrix<C64>,
    fro: f64,
}

impl Dense {
    fn of(t: &TlrMatrix) -> Self {
        let r = t.reconstruct();
        let a = Matrix::from_fn(r.nrows(), r.ncols(), |i, j| r[(i, j)].widen());
        let fro = a
            .as_slice()
            .iter()
            .map(|z| z.norm_sqr())
            .sum::<f64>()
            .sqrt();
        Self { a, fro }
    }

    fn apply(&self, x: &[C64]) -> Vec<C64> {
        let mut y = vec![C64::new(0.0, 0.0); self.a.nrows()];
        gemv(&self.a, x, &mut y);
        y
    }

    fn adjoint(&self, y: &[C64]) -> Vec<C64> {
        let mut x = vec![C64::new(0.0, 0.0); self.a.ncols()];
        gemv_conj_transpose(&self.a, y, &mut x);
        x
    }
}

/// `‖got − want‖ ≤ bound·scale`, or exactly zero when the reference is.
fn check(what: &str, got: &[C32], want: &[C64], scale: f64, bound: f64) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    let diff: Vec<C64> = got.iter().zip(want).map(|(g, w)| g.widen() - *w).collect();
    let err = norm(&diff);
    if norm(want) == 0.0 {
        assert!(
            got.iter().all(|z| z.re == 0.0 && z.im == 0.0),
            "{what}: not zero"
        );
    }
    assert!(
        err <= bound * scale,
        "{what}: error {err:.3e} over {bound:.0e} · {scale:.3e}"
    );
}

fn bits(v: &[C32]) -> Vec<(u32, u32)> {
    v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

#[test]
fn every_product_matches_the_dense_reconstruction() {
    let cfg = Cs2Config::default();
    for (name, t) in &inputs() {
        let d = Dense::of(t);
        let (x, y) = (probe(N, 0.0), probe(M, 0.5));
        let (x64, y64) = (widen(&x), widen(&y));
        let (ax, ahy) = (d.apply(&x64), d.adjoint(&y64));
        let (sx, sy) = (d.fro * norm(&x64), d.fro * norm(&y64));
        let forward = |what: &str, got: &[C32]| {
            check(&format!("{name}: {what}"), got, &ax, sx, KERNEL_BOUND);
        };

        forward("TlrMatrix::apply", &t.apply(&x));
        check(
            &format!("{name}: TlrMatrix::apply_adjoint"),
            &t.apply_adjoint(&y),
            &ahy,
            sy,
            KERNEL_BOUND,
        );

        // v ← Aᴴu − βv, w ← Av, into dirty output and scratch.
        let beta = 0.7f32;
        let (mut v, mut w, mut scratch) = (x.clone(), probe(M, 9.0), probe(N, 7.0));
        t.adjoint_then_apply_into(&y, beta, &mut v, &mut w, &mut scratch);
        let v_want: Vec<C64> = (ahy.iter().zip(&x64))
            .map(|(a, x0)| *a - x0.scale(f64::from(beta)))
            .collect();
        let v_scale = sy + f64::from(beta) * norm(&x64);
        check(
            &format!("{name}: fused v"),
            &v,
            &v_want,
            v_scale,
            KERNEL_BOUND,
        );
        let w_scale = d.fro * norm(&v_want);
        check(
            &format!("{name}: fused w"),
            &w,
            &d.apply(&widen(&v)),
            w_scale,
            FUSED_BOUND,
        );

        forward("ThreePhase::apply", &ThreePhase::new(t).apply(&x));

        let ca = CommAvoiding::new(t);
        let whole = ca.apply(&x);
        forward("CommAvoiding::apply", &whole);
        let max_rank = column_ranks(t).into_iter().max().unwrap_or(0).max(1);
        for width in [1, 3, 7, max_rank] {
            let chunked = ca.apply_chunked(&x, width);
            forward(&format!("apply_chunked({width})"), &chunked);
            let run = execute_chunks(&ca.chunks(width), &x, M, NB, Strategy::FusedSinglePe, &cfg);
            forward(&format!("execute_chunks({width})"), &run.y);
        }
        let widest = ca.apply_chunked(&x, usize::MAX);
        let simulated = execute_chunks(
            &ca.chunks(usize::MAX),
            &x,
            M,
            NB,
            Strategy::FusedSinglePe,
            &cfg,
        );
        assert_eq!(
            bits(&whole),
            bits(&widest),
            "{name}: apply is apply_chunked(MAX)"
        );
        assert_eq!(
            bits(&whole),
            bits(&simulated.y),
            "{name}: and execute_chunks at it"
        );
        assert_eq!(
            bits(&whole),
            bits(&ca.apply_chunked(&x, max_rank)),
            "{name}"
        );
    }
}

/// The frequency sweep over the three inputs as one stack: forward and
/// adjoint, each frequency's segment against its own reconstruction.
#[test]
fn the_mdc_sweeps_match_the_dense_reconstructions() {
    let stack: Vec<TlrMatrix> = inputs().into_iter().map(|(_, t)| t).collect();
    let op = MdcOperator::new(stack.clone());
    let nf = stack.len();
    let (x, y) = (probe(nf * N, 1.0), probe(nf * M, 2.0));
    let (fwd, adj) = (op.apply(&x), op.apply_adjoint(&y));
    for (f, t) in stack.iter().enumerate() {
        let d = Dense::of(t);
        let (xf, yf) = (widen(&x[f * N..(f + 1) * N]), widen(&y[f * M..(f + 1) * M]));
        check(
            &format!("MdcOperator::apply, frequency {f}"),
            &fwd[f * M..(f + 1) * M],
            &d.apply(&xf),
            d.fro * norm(&xf),
            KERNEL_BOUND,
        );
        check(
            &format!("MdcOperator::apply_adjoint, frequency {f}"),
            &adj[f * N..(f + 1) * N],
            &d.adjoint(&yf),
            d.fro * norm(&yf),
            KERNEL_BOUND,
        );
    }
}

/// Tile `(i, j)` as the factor pair `(U, W)` it stands for, in `f64`: a
/// skeleton's `(C, Π·[I; X])`, a dense block's `(A, I)`.
fn factor_pair(t: &TlrMatrix, i: usize, j: usize) -> (Matrix<C64>, Matrix<C64>) {
    let wide = |a: &Matrix<C32>| Matrix::from_fn(a.nrows(), a.ncols(), |r, c| a[(r, c)].widen());
    match t.tile(i, j) {
        TileRef::LowRank(s) => {
            let pair = s.factors();
            (wide(&pair.u), wide(&pair.v))
        }
        TileRef::Dense(a) => {
            let one = |r, c| C64::new(if r == c { 1.0 } else { 0.0 }, 0.0);
            let (_, n) = a.shape();
            (wide(&a.to_matrix()), Matrix::from_fn(n, n, one))
        }
    }
}

fn fro(a: &Matrix<C64>) -> f64 {
    norm(a.as_slice())
}

/// On the ragged store the comm-avoiding apply, `apply_chunked` and
/// `execute_chunks` hold the kernel bound at stack widths 1, 3, 5 and 12,
/// which start and end chunks inside tiles' rank ranges, and at one chunk
/// per tile column. The three-phase layout is held phase by phase: the V
/// batch against `W_ijᴴ x_j` of every tile's factor pair (bound
/// `4ε·(Σ‖W_ij‖²‖x_j‖²)^½`), the shuffle as the exact reordering from
/// tile-column to tile-row order, and the U batch against `Σ_j U_ij t_ij`
/// of the coefficients it was given (bound `4ε·‖U‖_F‖t‖`).
#[test]
fn the_layouts_on_a_ragged_store_match_the_dense_reconstruction() {
    let t = ragged_store::ragged_store();
    let ((m, n), nb, tiling) = (t.shape(), t.tiling().nb, *t.tiling());
    let d = Dense::of(&t);
    let x = probe(n, 0.0);
    let x64 = widen(&x);
    let ax = d.apply(&x64);
    let forward = |what: &str, got: &[C32]| {
        check(what, got, &ax, d.fro * norm(&x64), KERNEL_BOUND);
    };

    let (ca, cfg) = (CommAvoiding::new(&t), Cs2Config::default());
    forward("CommAvoiding::apply", &ca.apply(&x));
    for width in [1, 3, 5, 12, usize::MAX] {
        forward(
            &format!("apply_chunked({width})"),
            &ca.apply_chunked(&x, width),
        );
        let run = execute_chunks(&ca.chunks(width), &x, m, nb, Strategy::FusedSinglePe, &cfg);
        forward(&format!("execute_chunks({width})"), &run.y);
    }

    let tp = ThreePhase::new(&t);
    let k = tp.total_rank();
    assert_eq!(k, t.total_rank());
    let (mut yv, mut yu, mut y) = (
        vec![C32::new(0.0, 0.0); k],
        vec![C32::new(0.0, 0.0); k],
        vec![C32::new(0.0, 0.0); m],
    );
    tp.v_batch_into(&x, &mut yv);
    let (mut v_want, mut v_scale) = (vec![], 0.0);
    for j in 0..tiling.tile_cols() {
        let (c0, cl) = tiling.col_range(j);
        for i in 0..tiling.tile_rows() {
            let (_, w) = factor_pair(&t, i, j);
            let mut coeff = vec![C64::new(0.0, 0.0); w.ncols()];
            gemv_conj_transpose(&w, &x64[c0..c0 + cl], &mut coeff);
            v_want.extend(coeff);
            v_scale += (fro(&w) * norm(&x64[c0..c0 + cl])).powi(2);
        }
    }
    check(
        "ThreePhase::v_batch_into",
        &yv,
        &v_want,
        v_scale.sqrt(),
        KERNEL_BOUND,
    );

    tp.shuffle_into(&yv, &mut yu);
    // Where tile (i, j)'s coefficients start in V order: column by column.
    let v_at = |i: usize, j: usize| -> usize {
        (0..j).map(|c| t.column_rank(c)).sum::<usize>()
            + (0..i).map(|r| t.rank(r, j)).sum::<usize>()
    };
    let mut u_order = Vec::with_capacity(k);
    for i in 0..tiling.tile_rows() {
        for j in 0..tiling.tile_cols() {
            u_order.extend_from_slice(&yv[v_at(i, j)..][..t.rank(i, j)]);
        }
    }
    assert_eq!(bits(&yu), bits(&u_order), "ThreePhase::shuffle_into");

    tp.u_batch_into(&yu, &mut y);
    let (mut y_want, mut u_fro, mut q) = (vec![C64::new(0.0, 0.0); m], 0.0f64, 0);
    for i in 0..tiling.tile_rows() {
        let (r0, rl) = tiling.row_range(i);
        for j in 0..tiling.tile_cols() {
            let (u, _) = factor_pair(&t, i, j);
            let coeff = widen(&yu[q..q + u.ncols()]);
            gemv_acc(&u, &coeff, &mut y_want[r0..r0 + rl]);
            u_fro += fro(&u).powi(2);
            q += u.ncols();
        }
    }
    let u_scale = u_fro.sqrt() * norm(&widen(&yu));
    check(
        "ThreePhase::u_batch_into",
        &y,
        &y_want,
        u_scale,
        KERNEL_BOUND,
    );
    forward("ThreePhase::apply", &tp.apply(&x));
}
