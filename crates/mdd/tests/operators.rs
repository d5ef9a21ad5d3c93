//! The [`LinearOperator`] contract, checked once over every implementor
//! in the workspace: the adjoint identity `⟨Ax, y⟩ = ⟨x, Aᴴy⟩`, the
//! `_into` entry points giving the bits of the allocating ones, the
//! provided defaults carrying an operator that implements only the
//! required pair, the solvers running on `_into` alone, and the library
//! solve being the one a caller can assemble from public pieces.

use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use seis_wave::{DatasetConfig, SyntheticDataset, VelocityModel};
use seismic_geom::Ordering;
use seismic_la::blas::nrm2;
use seismic_la::scalar::{C32, C64};
use seismic_la::Matrix;
use seismic_mdd::{
    cgls, compress_dataset, lsqr, run_mdd_with_operators, FrequencyOperators, LsqrOptions,
    MdcOperator, MddConfig, StopReason, WeightedMdcOperator,
};
use tlr_mvm::{
    compress, CompressionConfig, CompressionMethod, LinearOperator, TlrMatrix, ToleranceMode,
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

/// Ragged `nb` 5 grid over 23×17, one matrix per frequency.
fn stack() -> Vec<TlrMatrix> {
    let cfg = CompressionConfig {
        nb: 5,
        acc: 1e-3,
        method: CompressionMethod::Svd,
        mode: ToleranceMode::RelativeTile,
    };
    (0..NF)
        .map(|f| compress(&rand_matrix(M, N, 200 + f as u64), cfg))
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

/// The contract every implementor meets: `apply_into` / `apply_adjoint_into`
/// overwrite a dirty buffer with exactly the bits `apply` / `apply_adjoint`
/// return, and `⟨Ax, y⟩ = ⟨x, Aᴴy⟩` to FP32 rounding of the two products
/// (`1e-4·‖Ax‖‖y‖`, the benchmark's tolerance).
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
    check_contract("WeightedMdcOperator", &WeightedMdcOperator::new(&tlr, 0.05));
    for shards in [1, 2, 8] {
        let ops = FrequencyOperators::build(&tlr).with_shards(shards);
        check_contract(&format!("FrequencyOperators/{shards}"), &ops);
    }

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

/// The engine sweeps the operator the solver runs on: forward and adjoint
/// are `MdcOperator` over the same stack bit for bit, for every shard
/// count, over dense tiles (the noise of [`stack`]) and low-rank ones (a
/// smooth kernel) alike; `apply_serial` is the same loop unsharded, and
/// what the cache budgets is the stack's stored bytes.
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
    for shards in [1, 2, 3, nf, 64] {
        let ops = FrequencyOperators::build(&tlr).with_shards(shards);
        assert_same_bits("forward", &ops.apply_all_frequencies(&x), &forward);
        assert_same_bits("adjoint", &ops.apply_adjoint_all_frequencies(&y), &adjoint);
        assert_same_bits("serial", &ops.apply_serial(&x), &forward);
        assert_eq!(
            ops.resident_bytes(),
            tlr.iter().map(TlrMatrix::compressed_bytes).sum::<usize>()
        );
    }
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
    // One forward per iteration; α₁v₁ = Aᴴu₁ and one adjoint per
    // iteration but the last, whose adjoint nobody would read.
    assert_eq!(op.forward.load(AtomicOrdering::Relaxed), 6);
    assert_eq!(op.adjoint.load(AtomicOrdering::Relaxed), 6);
    assert_same_bits("lsqr through the wrapper", &sol.x, &lsqr(&a, &b, opts).x);

    let op = counting();
    let sol = cgls(&op, &b, opts);
    assert_eq!((sol.iterations, sol.stop), (6, StopReason::MaxIters));
    assert_eq!(op.forward.load(AtomicOrdering::Relaxed), 6);
    assert_eq!(op.adjoint.load(AtomicOrdering::Relaxed), 6);
    assert_same_bits("cgls through the wrapper", &sol.x, &cgls(&a, &b, opts).x);
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
