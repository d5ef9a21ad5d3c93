//! The [`LinearOperator`] contract, checked once over every implementor
//! in the workspace: the adjoint identity `⟨Ax, y⟩ = ⟨x, Aᴴy⟩`, the
//! `_into` entry points giving the bits of the allocating ones, the fused
//! half-step pair giving the bits of the two `_into` calls it stands for,
//! the provided defaults carrying an operator that implements only the
//! required pair, LSQR making one fused call per iteration and returning
//! what it returns on the two-pass default, the solvers never reaching
//! the allocating pair, and the library solve being the one a caller can
//! assemble from public pieces.

use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use seis_wave::{DatasetConfig, SyntheticDataset, VelocityModel};
use seismic_geom::Ordering;
use seismic_la::blas::nrm2;
use seismic_la::scalar::{C32, C64};
use seismic_la::Matrix;
use seismic_mdd::{
    compress_dataset, lsqr, run_mdd_with_operators, FrequencyOperators, LsqrOptions, MdcOperator,
    MddConfig, StopReason,
};
use tlr_mvm::{
    compress, CompressionConfig, CompressionMethod, LinearOperator, Tiling, TlrMatrix,
    ToleranceMode,
};

const NF: usize = 3;
const M: usize = 23;
const N: usize = 17;

fn rand_matrix(m: usize, n: usize, seed: u64) -> Matrix<C32> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Matrix::<C32>::random_normal(m, n, &mut rng)
}

fn rand_vec(n: usize, seed: u64) -> Vec<C32> {
    rand_matrix(n, 1, seed).into_vec()
}

const CFG: CompressionConfig = CompressionConfig {
    nb: 5,
    acc: 1e-3,
    method: CompressionMethod::Svd,
    mode: ToleranceMode::RelativeTile,
};

/// Ragged `nb` 5 grid over 23×17, one matrix per frequency.
fn stack() -> Vec<TlrMatrix> {
    (0..NF)
        .map(|f| compress(&rand_matrix(M, N, 200 + f as u64), CFG))
        .collect()
}

fn assert_same_bits(what: &str, got: &[C32], want: &[C32]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            (g.re.to_bits(), g.im.to_bits()),
            (w.re.to_bits(), w.im.to_bits()),
            "{what}: element {i}: {g:?} vs {w:?}"
        );
    }
}

/// `xᴴ y` accumulated in `f64`, so the operator is the only FP32 in the
/// identity being checked.
fn dot64(x: &[C32], y: &[C32]) -> C64 {
    x.iter().zip(y).fold(C64::new(0.0, 0.0), |acc, (p, q)| {
        acc + p.widen().conj() * q.widen()
    })
}

/// `(v, w)` after `v ← Aᴴu − βv`, `w ← Av` into dirty `w` and scratch.
fn fused<A: LinearOperator + ?Sized>(a: &A, u: &[C32], beta: f32, v0: &[C32]) -> [Vec<C32>; 2] {
    let (mut v, mut w) = (v0.to_vec(), rand_vec(a.nrows(), 310));
    let mut scratch = rand_vec(a.ncols(), 311);
    a.adjoint_then_apply_into(u, beta, &mut v, &mut w, &mut scratch);
    [v, w]
}

/// An operator's own `adjoint_then_apply_into` against the provided
/// default — two passes on its `_into` pair, which is what
/// [`RequiredOnly`] falls back to — with and without a `βv` to subtract.
fn check_fused<A: LinearOperator + ?Sized>(name: &str, a: &A) {
    let (u, v0) = (rand_vec(a.nrows(), 308), rand_vec(a.ncols(), 309));
    for beta in [0.0f32, 0.7] {
        let [v, w] = fused(a, &u, beta, &v0);
        let [v2, w2] = fused(&RequiredOnly(a), &u, beta, &v0);
        assert_same_bits(&format!("{name}: fused v, β = {beta}"), &v, &v2);
        assert_same_bits(&format!("{name}: fused w, β = {beta}"), &w, &w2);
    }
}

/// The contract every implementor meets: `apply_into` / `apply_adjoint_into`
/// overwrite a dirty buffer with exactly the bits `apply` / `apply_adjoint`
/// return, `adjoint_then_apply_into` gives the bits of the two of them
/// ([`check_fused`]), and `⟨Ax, y⟩ = ⟨x, Aᴴy⟩` to FP32 rounding of the two
/// products (`1e-4·‖Ax‖‖y‖`, the benchmark's tolerance).
fn check_contract<A: LinearOperator + ?Sized>(name: &str, a: &A) {
    let (x, y) = (rand_vec(a.ncols(), 301), rand_vec(a.nrows(), 302));
    let ax = a.apply(&x);
    let ahy = a.apply_adjoint(&y);
    assert_eq!(
        (ax.len(), ahy.len()),
        (a.nrows(), a.ncols()),
        "{name}: shape"
    );

    let mut into = rand_vec(a.nrows(), 303);
    a.apply_into(&x, &mut into);
    assert_same_bits(&format!("{name}: apply_into"), &into, &ax);
    let mut into = rand_vec(a.ncols(), 304);
    a.apply_adjoint_into(&y, &mut into);
    assert_same_bits(&format!("{name}: apply_adjoint_into"), &into, &ahy);
    check_fused(name, a);

    let gap = (dot64(&y, &ax) - dot64(&ahy, &x)).abs();
    let scale = f64::from(nrm2(&ax)) * f64::from(nrm2(&y));
    assert!(gap <= 1e-4 * scale, "{name}: adjoint gap {gap} vs {scale}");
}

/// An operator that implements only the two required methods — the shape
/// of the benchmark's timing wrapper.
struct RequiredOnly<O>(O);

impl<O: LinearOperator> LinearOperator for RequiredOnly<O> {
    fn nrows(&self) -> usize {
        self.0.nrows()
    }
    fn ncols(&self) -> usize {
        self.0.ncols()
    }
    fn apply(&self, x: &[C32]) -> Vec<C32> {
        self.0.apply(x)
    }
    fn apply_adjoint(&self, y: &[C32]) -> Vec<C32> {
        self.0.apply_adjoint(y)
    }
}

#[test]
fn every_implementor_meets_the_operator_contract() {
    let tlr = stack();
    let dense = rand_matrix(M, N, 210);
    check_contract("Matrix<C32>", &dense);
    check_contract("TlrMatrix", &tlr[0]);
    check_contract("&TlrMatrix", &&tlr[0]);
    check_contract("&dyn LinearOperator", &(&tlr[1] as &dyn LinearOperator));
    let mdc = MdcOperator::new(tlr.iter().collect::<Vec<&TlrMatrix>>());
    check_contract("MdcOperator<&TlrMatrix>", &mdc);
    check_contract(
        "MdcOperator<Matrix<C32>>",
        &MdcOperator::new(vec![dense.clone(), rand_matrix(M, N, 211)]),
    );
    check_contract("FrequencyOperators", &FrequencyOperators::build(&tlr));

    // The provided defaults: same bits as the wrapped operator's own
    // `_into`, through `apply` + copy.
    let wrapped = RequiredOnly(&mdc);
    check_contract("RequiredOnly<&MdcOperator>", &wrapped);
    let x = rand_vec(mdc.ncols(), 305);
    let (mut native, mut via_default) = (rand_vec(mdc.nrows(), 306), rand_vec(mdc.nrows(), 307));
    mdc.apply_into(&x, &mut native);
    wrapped.apply_into(&x, &mut via_default);
    assert_same_bits("default apply_into", &via_default, &native);
}

/// The engine sweeps the operator the solver runs on: forward, adjoint and
/// the fused pair of the engine's owned stack are `MdcOperator` over the
/// borrowed one bit for bit, over dense tiles (the noise of [`stack`]) and
/// low-rank ones (a smooth kernel) alike; `apply_serial` is the same loop
/// on one thread, and what the cache budgets is the stack's stored bytes.
#[test]
fn engine_sweeps_are_the_mdc_operator_bit_for_bit() {
    let mut tlr = stack();
    let smooth = Matrix::from_fn(M, N, |i, j| {
        let d = i as f32 / M as f32 - j as f32 / N as f32;
        C32::from_polar(1.0 / (1.0 + 3.0 * d.abs()), -7.0 * d)
    });
    tlr.push(compress(&smooth, *tlr[0].config()));
    let (dense, tiles) = tlr.iter().fold((0, 0), |(d, t), m| {
        (d + m.dense_tiles(), t + m.tiling().tile_count())
    });
    assert!(0 < dense && dense < tiles, "{dense} of {tiles} tiles dense");
    let nf = tlr.len();
    let mdc = MdcOperator::new(tlr.iter().collect::<Vec<&TlrMatrix>>());
    let (x, y) = (rand_vec(nf * N, 320), rand_vec(nf * M, 321));
    let (forward, adjoint) = (mdc.apply(&x), mdc.apply_adjoint(&y));
    let [v, w] = fused(&RequiredOnly(&mdc), &y, 0.7, &x);
    let ops = FrequencyOperators::build(&tlr);
    assert_same_bits("forward", &ops.apply_all_frequencies(&x), &forward);
    assert_same_bits("adjoint", &ops.apply_adjoint_all_frequencies(&y), &adjoint);
    assert_same_bits("serial", &ops.apply_serial(&x), &forward);
    let [v1, w1] = fused(&ops, &y, 0.7, &x);
    assert_same_bits("fused v", &v1, &v);
    assert_same_bits("fused w", &w1, &w);
    assert_eq!(
        ops.resident_bytes(),
        tlr.iter().map(TlrMatrix::compressed_bytes).sum::<usize>()
    );
}

/// A stack of all-dense stores assembled from dense tiles: `blocks(f, i,
/// j)` is tile `(i, j)` of frequency `f` on an `nb`-grid over `m × n`.
fn dense_stack(
    nf: usize,
    (m, n, nb): (usize, usize, usize),
    blocks: impl Fn(usize, usize, usize) -> Matrix<C32>,
) -> Vec<TlrMatrix> {
    let tiling = Tiling::new(m, n, nb);
    (0..nf)
        .map(|f| {
            let mut a = Matrix::zeros(m, n);
            for j in 0..tiling.tile_cols() {
                for i in 0..tiling.tile_rows() {
                    let ((r0, _), (c0, _)) = (tiling.row_range(i), tiling.col_range(j));
                    a.set_block(r0, c0, &blocks(f, i, j));
                }
            }
            let skeletons = vec![None; tiling.tile_count()];
            TlrMatrix::new(tiling, CFG, skeletons, |r0, c0, m, n| a.block(r0, c0, m, n))
        })
        .collect()
}

/// A NaN in one tile of one frequency goes where the two passes take it.
/// `MdcOperator` asserts finite vectors at its seams in debug builds, so
/// this runs where those compile to nothing.
#[cfg(not(debug_assertions))]
#[test]
fn a_nan_tile_reaches_the_same_entries_in_one_pass_as_in_two() {
    let mut tlr = stack();
    let t = Tiling::new(M, N, 5);
    tlr.extend(dense_stack(1, (M, N, 5), |_, i, j| {
        let mut block = rand_matrix(t.row_range(i).1, t.col_range(j).1, 230 + (i + 7 * j) as u64);
        if (i, j) == (2, 1) {
            block[(1, 3)] = C32::new(1.0, f32::NAN);
        }
        block
    }));
    let mdc = MdcOperator::new(tlr.iter().collect::<Vec<&TlrMatrix>>());
    check_fused("MdcOperator with a NaN tile", &mdc);
    check_fused(
        "FrequencyOperators with a NaN tile",
        &FrequencyOperators::build(&tlr),
    );
    let [v, w] = fused(
        &mdc,
        &rand_vec(mdc.nrows(), 308),
        0.0,
        &rand_vec(mdc.ncols(), 309),
    );
    let nan = |z: &C32| z.re.is_nan() || z.im.is_nan();
    assert!(v[..NF * N].iter().chain(&w[..NF * M]).all(|z| !nan(z)));
    assert!(v[NF * N..].iter().any(nan) && w[NF * M..].iter().any(nan));
}

fn same_solve(what: &str, got: &seismic_mdd::LsqrResult, want: &seismic_mdd::LsqrResult) {
    assert_same_bits(&format!("{what}: x"), &got.x, &want.x);
    let hist = |h: &[f32]| -> Vec<u32> { h.iter().map(|r| r.to_bits()).collect() };
    assert_eq!(
        hist(&got.residual_history),
        hist(&want.residual_history),
        "{what}: residual history"
    );
    assert_eq!(
        (got.iterations, got.stop),
        (want.iterations, want.stop),
        "{what}"
    );
}

/// LSQR on an operator's own fused call returns what it returns on the
/// provided default — the two-pass solve the benchmark's timing wrapper
/// runs — in `x`, history, iteration count and stop reason: at every way a
/// solve can end, on both stack operators, and whatever the pool size (one
/// task per frequency, results placed by index).
#[test]
fn lsqr_on_the_fused_call_is_lsqr_on_the_two_pass_default() {
    let tlr = stack();
    let mdc = MdcOperator::new(tlr.iter().collect::<Vec<&TlrMatrix>>());
    let ops = FrequencyOperators::build(&tlr);
    let b = rand_vec(mdc.nrows(), 330);
    let opts = |max_iters, rel_tol, damp| LsqrOptions {
        max_iters,
        rel_tol,
        damp,
    };
    // A tolerance the third residual meets and the second does not.
    let long = lsqr(&mdc, &b, opts(30, 0.0, 0.0));
    let h = &long.residual_history;
    let third = 0.5 * (h[1] + h[2]) / nrm2(&b);

    // Krylov space exhausted: every frequency diagonal and `b = e₁` of the
    // first, so `β₂ = ‖Av₁ − α₁u₁‖` is exactly zero after one iteration.
    let diagonal = dense_stack(2, (4, 4, 2), |f, i, j| {
        Matrix::from_fn(2, 2, |r, c| {
            let on = i == j && r == c;
            C32::new(if on { (2 + f + 2 * i + r) as f32 } else { 0.0 }, 0.0)
        })
    });
    let diagonal = MdcOperator::new(diagonal.iter().collect::<Vec<&TlrMatrix>>());
    let e1: Vec<C32> = (0..8)
        .map(|k| C32::new((k == 0) as u8 as f32, 0.0))
        .collect();
    // `A = (1, 1)ᵀ`, `b = (1, 0)`: `α₂` is exactly zero, seen by the second
    // fused call, whose forward product nobody reads.
    let column = dense_stack(1, (2, 1, 2), |_, _, _| {
        Matrix::from_fn(2, 1, |_, _| C32::new(1.0, 0.0))
    });
    // Overflows to infinity in the first adjoint. A bare `TlrMatrix`:
    // `MdcOperator` would assert on it in debug builds.
    let huge = dense_stack(1, (4, 4, 4), |_, _, _| {
        Matrix::from_fn(4, 4, |i, j| C32::new(if i == j { 3e19 } else { 1e19 }, 0.0))
    });

    for threads in [1, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let check = |what: &str, o: LsqrOptions, want: (usize, StopReason)| {
                let what = format!("{what}, {threads} threads");
                let direct = lsqr(&mdc, &b, o);
                assert_eq!((direct.iterations, direct.stop), want, "{what}");
                same_solve(&what, &direct, &lsqr(&RequiredOnly(&mdc), &b, o));
                same_solve(&format!("{what}, engine"), &lsqr(&ops, &b, o), &direct);
            };
            for k in [0, 1, 2, 30] {
                check(
                    &format!("max_iters {k}"),
                    opts(k, 0.0, 0.0),
                    (k, StopReason::MaxIters),
                );
            }
            check("rel_tol", opts(30, third, 0.0), (3, StopReason::Converged));
            check("damp", opts(30, 0.0, 0.7), (30, StopReason::MaxIters));
            same_solve(
                &format!("30 iterations, {threads} threads"),
                &lsqr(&mdc, &b, opts(30, 0.0, 0.0)),
                &long,
            );

            let direct = lsqr(&diagonal, &e1, opts(30, 0.0, 0.0));
            assert_eq!((direct.iterations, direct.stop), (1, StopReason::Breakdown));
            same_solve(
                "β breakdown",
                &direct,
                &lsqr(&RequiredOnly(&diagonal), &e1, opts(30, 0.0, 0.0)),
            );

            let b2 = [C32::new(1.0, 0.0), C32::new(0.0, 0.0)];
            let direct = lsqr(&column[0], &b2, opts(30, 0.0, 0.0));
            assert_eq!((direct.iterations, direct.stop), (1, StopReason::Breakdown));
            same_solve(
                "α breakdown",
                &direct,
                &lsqr(&RequiredOnly(&column[0]), &b2, opts(30, 0.0, 0.0)),
            );

            let b4 = rand_vec(4, 331);
            let direct = lsqr(&huge[0], &b4, opts(30, 0.0, 0.0));
            assert_eq!(direct.stop, StopReason::NonFinite);
            same_solve(
                "non-finite",
                &direct,
                &lsqr(&RequiredOnly(&huge[0]), &b4, opts(30, 0.0, 0.0)),
            );
        });
    }
}

/// Overrides all three layers and counts what the solver reaches.
struct Counting<'a> {
    inner: &'a Matrix<C32>,
    separate: AtomicUsize,
    fused: AtomicUsize,
}

impl LinearOperator for Counting<'_> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }
    fn ncols(&self) -> usize {
        self.inner.ncols()
    }
    fn apply(&self, _: &[C32]) -> Vec<C32> {
        panic!("solver called the allocating apply");
    }
    fn apply_adjoint(&self, _: &[C32]) -> Vec<C32> {
        panic!("solver called the allocating apply_adjoint");
    }
    fn apply_into(&self, x: &[C32], y: &mut [C32]) {
        self.separate.fetch_add(1, AtomicOrdering::Relaxed);
        self.inner.apply_into(x, y);
    }
    fn apply_adjoint_into(&self, y: &[C32], x: &mut [C32]) {
        self.separate.fetch_add(1, AtomicOrdering::Relaxed);
        self.inner.apply_adjoint_into(y, x);
    }
    fn adjoint_then_apply_into(
        &self,
        u: &[C32],
        beta: f32,
        v: &mut [C32],
        w: &mut [C32],
        scratch: &mut [C32],
    ) {
        self.fused.fetch_add(1, AtomicOrdering::Relaxed);
        self.inner.adjoint_then_apply_into(u, beta, v, w, scratch);
    }
}

/// A `k`-iteration LSQR solve is `k` fused calls and no other operator
/// call — one pass per iteration over an operator that fuses them —
/// however it ends; only `max_iters = 0`, with no iteration to fuse into,
/// makes the one adjoint that classifies `α₁`.
#[test]
fn lsqr_makes_one_fused_call_per_iteration_and_no_other() {
    let a = rand_matrix(20, 8, 220);
    let b = rand_vec(20, 221);
    let calls = |opts: LsqrOptions| {
        let op = Counting {
            inner: &a,
            separate: AtomicUsize::new(0),
            fused: AtomicUsize::new(0),
        };
        let sol = lsqr(&op, &b, opts);
        let [separate, fused] = [&op.separate, &op.fused].map(|c| c.load(AtomicOrdering::Relaxed));
        (sol.iterations, sol.stop, fused, separate)
    };
    let opts = |max_iters, rel_tol| LsqrOptions {
        max_iters,
        rel_tol,
        damp: 0.0,
    };
    for k in [1, 2, 6, 30] {
        assert_eq!(calls(opts(k, 0.0)), (k, StopReason::MaxIters, k, 0));
    }
    assert_eq!(calls(opts(0, 0.0)), (0, StopReason::MaxIters, 0, 1));
    let (k, stop, fused, separate) = calls(opts(500, 0.8));
    assert!(1 < k && k < 500, "{k} iterations");
    assert_eq!((stop, fused, separate), (StopReason::Converged, k, 0));
}

/// Overrides `_into` and counts; the allocating pair must never run.
struct IntoOnly<'a> {
    inner: &'a Matrix<C32>,
    forward: AtomicUsize,
    adjoint: AtomicUsize,
}

impl LinearOperator for IntoOnly<'_> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }
    fn ncols(&self) -> usize {
        self.inner.ncols()
    }
    fn apply(&self, _: &[C32]) -> Vec<C32> {
        panic!("solver called the allocating apply");
    }
    fn apply_adjoint(&self, _: &[C32]) -> Vec<C32> {
        panic!("solver called the allocating apply_adjoint");
    }
    fn apply_into(&self, x: &[C32], y: &mut [C32]) {
        self.forward.fetch_add(1, AtomicOrdering::Relaxed);
        self.inner.apply_into(x, y);
    }
    fn apply_adjoint_into(&self, y: &[C32], x: &mut [C32]) {
        self.adjoint.fetch_add(1, AtomicOrdering::Relaxed);
        self.inner.apply_adjoint_into(y, x);
    }
}

#[test]
fn solvers_run_on_the_into_entry_points_alone() {
    let a = rand_matrix(20, 8, 220);
    let b = rand_vec(20, 221);
    let opts = LsqrOptions {
        max_iters: 6,
        rel_tol: 0.0,
        damp: 0.0,
    };
    let counting = || IntoOnly {
        inner: &a,
        forward: AtomicUsize::new(0),
        adjoint: AtomicUsize::new(0),
    };

    let op = counting();
    let sol = lsqr(&op, &b, opts);
    assert_eq!((sol.iterations, sol.stop), (6, StopReason::MaxIters));
    // The provided fused call is one adjoint and one forward `_into`.
    assert_eq!(op.forward.load(AtomicOrdering::Relaxed), 6);
    assert_eq!(op.adjoint.load(AtomicOrdering::Relaxed), 6);
    assert_same_bits("lsqr through the wrapper", &sol.x, &lsqr(&a, &b, opts).x);
}

/// `run_mdd_with_operators` is `lsqr` on `MdcOperator<&TlrMatrix>` over
/// the permuted data and nothing else: a caller who assembles the same
/// solve from public pieces — directly, or behind a wrapper that only
/// implements the required methods, as the benchmark's traced solve does
/// — gets the same bits.
#[test]
fn library_solve_equals_the_solve_assembled_from_public_pieces() {
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
            max_iters: 10,
            rel_tol: 0.0,
            damp: 0.0,
        },
    };
    let tlr = compress_dataset(&ds, cfg.compression, cfg.ordering);
    let vs = ds.acq.n_receivers() / 2;
    let run = run_mdd_with_operators(&ds, &tlr, vs, &cfg);

    let (rows, cols) = ds.permutations(cfg.ordering);
    let n_rec = ds.acq.n_receivers();
    let y_perm: Vec<C32> = ds
        .observed_data(vs)
        .iter()
        .flat_map(|yf| rows.apply(yf))
        .collect();
    let op = MdcOperator::new(tlr.iter().collect::<Vec<&TlrMatrix>>());
    for (how, sol) in [
        ("direct", lsqr(&op, &y_perm, cfg.lsqr)),
        (
            "required-only wrapper",
            lsqr(&RequiredOnly(&op), &y_perm, cfg.lsqr),
        ),
    ] {
        let inverted: Vec<C32> = (0..ds.n_freqs())
            .flat_map(|f| cols.unapply(&sol.x[f * n_rec..(f + 1) * n_rec]))
            .collect();
        assert_same_bits(how, &inverted, &run.inverted);
        assert_eq!(sol.residual_history, run.residual_history, "{how}");
        assert_eq!((sol.iterations, sol.stop), (10, StopReason::MaxIters));
    }
}
