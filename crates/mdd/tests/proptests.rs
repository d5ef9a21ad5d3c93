//! Property-based tests for the MDD solver stack.

use std::sync::Arc;

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use seismic_la::blas::{dotc, nrm2};
use seismic_la::scalar::C32;
use seismic_la::Matrix;
use seismic_mdd::{
    lsqr, nmse, Engine, EngineConfig, FrequencyOperators, JobSpec, LsqrOptions, MdcOperator,
};
use tlr_mvm::{
    compress, CompressionConfig, CompressionMethod, LinearOperator, TlrMatrix, ToleranceMode,
};

/// Loose tile-relative SVD compression at `nb = 4` — small enough that
/// the random 10–12-point matrices tile into a proper grid.
fn prop_compression() -> CompressionConfig {
    CompressionConfig {
        nb: 4,
        acc: 1e-3,
        method: CompressionMethod::Svd,
        mode: ToleranceMode::RelativeTile,
    }
}

fn rand_matrix(m: usize, n: usize, seed: u64) -> Matrix<C32> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Matrix::<C32>::random_normal(m, n, &mut rng)
}

fn rand_vec(n: usize, seed: u64) -> Vec<C32> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            C32::new(
                seismic_la::dense::normal_sample(&mut rng) as f32,
                seismic_la::dense::normal_sample(&mut rng) as f32,
            )
        })
        .collect()
}

/// Exactly `max_iters` undamped iterations: no early stop.
fn fixed_iters(max_iters: usize) -> LsqrOptions {
    LsqrOptions {
        max_iters,
        rel_tol: 0.0,
        damp: 0.0,
    }
}

fn check_lsqr_residual_monotone(m: usize, n: usize, seed: u64) -> Result<(), TestCaseError> {
    let a = rand_matrix(m, n, seed);
    let b = rand_vec(m, seed + 1);
    let res = lsqr(&a, &b, fixed_iters(25));
    for w in res.residual_history.windows(2) {
        prop_assert!(w[1] <= w[0] * (1.0 + 1e-5));
    }
    Ok(())
}

fn check_lsqr_gradient_vanishes(m: usize, n: usize, seed: u64) -> Result<(), TestCaseError> {
    let a = rand_matrix(m, n, seed);
    let b = rand_vec(m, seed + 2);
    let res = lsqr(&a, &b, fixed_iters(150));
    let ax = a.apply(&res.x);
    let r: Vec<C32> = b.iter().zip(&ax).map(|(bi, axi)| *bi - *axi).collect();
    let g = a.apply_adjoint(&r);
    prop_assert!(nrm2(&g) < 1e-2 * nrm2(&b).max(1.0), "gradient {}", nrm2(&g));
    Ok(())
}

/// A failure proptest once shrank to this system; the seeded cases draw
/// it about one run in a thousand, so it is held here. The record did not
/// say which of the two properties the triple fits had failed.
#[test]
fn the_7_by_2_system_that_once_failed_still_passes() {
    check_lsqr_residual_monotone(7, 2, 171).expect("residual history at (7, 2, 171)");
    check_lsqr_gradient_vanishes(7, 2, 171).expect("gradient at (7, 2, 171)");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// LSQR's residual-norm estimate is monotone non-increasing for any
    /// system.
    #[test]
    fn lsqr_residual_monotone(m in 2usize..25, n in 2usize..25, seed in 0u64..500) {
        check_lsqr_residual_monotone(m, n, seed)?;
    }

    /// On square diagonally-dominant systems LSQR recovers the solution.
    #[test]
    fn lsqr_recovers_well_conditioned(n in 3usize..20, seed in 0u64..500) {
        let mut a = rand_matrix(n, n, seed);
        for i in 0..n {
            a[(i, i)] += C32::new(10.0, 0.0);
        }
        let x_true = rand_vec(n, seed + 1);
        let b = a.apply(&x_true);
        let res = lsqr(&a, &b, LsqrOptions { max_iters: 200, rel_tol: 1e-7, damp: 0.0 });
        let err: f32 = res.x.iter().zip(&x_true).map(|(g, w)| (*g - *w).norm_sqr()).sum::<f32>().sqrt();
        prop_assert!(err < 1e-2 * nrm2(&x_true), "err {err}");
    }

    /// The normal-equations gradient vanishes at the LSQR limit point for
    /// overdetermined systems.
    #[test]
    fn lsqr_gradient_vanishes(m in 6usize..30, n in 2usize..6, seed in 0u64..500) {
        check_lsqr_gradient_vanishes(m, n, seed)?;
    }

    /// The MDC operator satisfies the adjoint identity for any block
    /// structure.
    #[test]
    fn mdc_adjoint_identity(
        nf in 1usize..5,
        m in 2usize..10,
        n in 2usize..10,
        seed in 0u64..500,
    ) {
        let kernels: Vec<Matrix<C32>> = (0..nf)
            .map(|k| rand_matrix(m, n, seed + k as u64))
            .collect();
        let op = MdcOperator::new(kernels);
        let x = rand_vec(nf * n, seed + 10);
        let y = rand_vec(nf * m, seed + 11);
        let lhs = dotc(&y, &op.apply(&x));
        let rhs = dotc(&op.apply_adjoint(&y), &x);
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()));
    }

    /// NMSE is scale-aware: nmse(αt, t) = |α − 1|².
    #[test]
    fn nmse_scaling_law(n in 1usize..30, ar in -2.0f32..2.0, seed in 0u64..100) {
        let t = rand_vec(n, seed);
        prop_assume!(nrm2(&t) > 1e-3);
        let scaled: Vec<C32> = t.iter().map(|v| v.scale(ar)).collect();
        let got = nmse(&scaled, &t);
        let want = ((ar - 1.0) * (ar - 1.0)) as f64;
        prop_assert!((got - want).abs() < 1e-4 * (1.0 + want));
    }

    /// Damped LSQR never produces a larger solution norm than undamped.
    #[test]
    fn damping_regularizes(m in 4usize..20, n in 4usize..20, seed in 0u64..200, damp in 0.5f32..5.0) {
        let a = rand_matrix(m, n, seed);
        let b = rand_vec(m, seed + 3);
        let free = lsqr(&a, &b, fixed_iters(60));
        let reg = lsqr(&a, &b, LsqrOptions { max_iters: 60, rel_tol: 0.0, damp });
        prop_assert!(nrm2(&reg.x) <= nrm2(&free.x) * (1.0 + 1e-4));
    }

    /// The batched sweep is bit-identical to a serial per-frequency
    /// `TlrMatrix::apply` of the same stack, for any frequency count: one
    /// task per frequency only partitions disjoint output segments, it
    /// never reorders a summation.
    #[test]
    fn batched_sweep_bit_identical_to_serial_loop(
        nf in 1usize..6,
        seed in 0u64..300,
    ) {
        let (m, n) = (12usize, 10usize);
        let tlr: Vec<TlrMatrix> = (0..nf)
            .map(|f| compress(&rand_matrix(m, n, seed + f as u64), prop_compression()))
            .collect();
        let ops = FrequencyOperators::build(&tlr);
        let x = rand_vec(nf * n, seed + 40);
        let batched = ops.apply_all_frequencies(&x);
        for (f, t) in tlr.iter().enumerate() {
            let serial_f = t.apply(&x[f * n..(f + 1) * n]);
            for (a, b) in batched[f * m..(f + 1) * m].iter().zip(&serial_f) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    /// Routing the same sweep through the async engine — any worker
    /// count — changes nothing: a scheduled MVM job returns the exact bits
    /// of the in-thread batched sweep.
    #[test]
    fn engine_job_bit_identical_across_worker_counts(
        nf in 1usize..5,
        workers in 1usize..4,
        seed in 0u64..300,
    ) {
        let (m, n) = (10usize, 8usize);
        let tlr: Vec<TlrMatrix> = (0..nf)
            .map(|f| compress(&rand_matrix(m, n, seed + 7 + f as u64), prop_compression()))
            .collect();
        let ops = Arc::new(FrequencyOperators::build(&tlr));
        let x = rand_vec(nf * n, seed + 80);
        let want = ops.apply_all_frequencies(&x);
        let engine = Engine::start(EngineConfig {
            workers,
            queue_depth: 8,
            recorder: None,
        });
        let got = engine
            .submit(JobSpec::Mvm { ops: Arc::clone(&ops), x: x.clone() })
            .wait()
            .output;
        prop_assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
            prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }
}
