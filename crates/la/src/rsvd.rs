//! Randomized SVD (Halko–Martinsson–Tropp), one of the compression
//! backends the paper lists for the TLR pre-processing step.

use rand::Rng;

use crate::blas::{gemm, gemm_conj_transpose_left};
use crate::dense::{normal_sample, Matrix};
use crate::lowrank::LowRank;
use crate::qr::qr;
use crate::scalar::{Real, Scalar};
use crate::svd::jacobi_svd;

/// Options for [`randomized_svd`].
#[derive(Clone, Copy, Debug)]
pub struct RsvdOptions {
    /// Target rank of the range sketch (before truncation).
    pub sketch_rank: usize,
    /// Oversampling columns added to the sketch.
    pub oversample: usize,
    /// Subspace (power) iterations; 1–2 sharpen decaying spectra.
    pub power_iters: usize,
}

impl Default for RsvdOptions {
    fn default() -> Self {
        Self {
            sketch_rank: 16,
            oversample: 8,
            power_iters: 1,
        }
    }
}

/// Scalars that can be sampled from a (complex) standard normal.
pub trait SampleNormal: Scalar {
    /// Draw one standard-normal sample (complex scalars sample both parts).
    fn sample_normal<R: Rng>(rng: &mut R) -> Self;
}

impl SampleNormal for f32 {
    fn sample_normal<R: Rng>(rng: &mut R) -> Self {
        f32::from_f64(normal_sample(rng))
    }
}

impl SampleNormal for f64 {
    fn sample_normal<R: Rng>(rng: &mut R) -> Self {
        normal_sample(rng)
    }
}

impl SampleNormal for crate::scalar::C32 {
    fn sample_normal<R: Rng>(rng: &mut R) -> Self {
        crate::scalar::c32(
            f32::from_f64(normal_sample(rng)),
            f32::from_f64(normal_sample(rng)),
        )
    }
}

impl SampleNormal for crate::scalar::C64 {
    fn sample_normal<R: Rng>(rng: &mut R) -> Self {
        crate::scalar::c64(normal_sample(rng), normal_sample(rng))
    }
}

/// Randomized range finder + small SVD.
///
/// Returns `A ≈ U Σ Vᴴ` truncated at absolute Frobenius tolerance `tol`
/// *within the sketched subspace*; if the sketch rank is too small to reach
/// `tol`, the best approximation in the sketch is returned (callers that
/// need a guaranteed tolerance should grow `sketch_rank` and retry, as
/// [`rsvd_compress_adaptive`] does).
pub fn randomized_svd<S: SampleNormal, R: Rng>(
    a: &Matrix<S>,
    opts: RsvdOptions,
    tol: S::Real,
    rng: &mut R,
) -> LowRank<S> {
    let (m, n) = a.shape();
    let l = (opts.sketch_rank + opts.oversample).min(n).min(m);
    if l == 0 {
        return LowRank::new(Matrix::zeros(m, 0), Matrix::zeros(n, 0));
    }
    // Sketch the range: Y = A Ω.
    let omega = Matrix::from_fn(n, l, |_, _| S::sample_normal(rng));
    let mut y = gemm(a, &omega);
    // Power iterations with re-orthonormalization.
    for _ in 0..opts.power_iters {
        let q = qr(&y).q_thin();
        let z = gemm_conj_transpose_left(a, &q); // Aᴴ Q
        let qz = qr(&z).q_thin();
        y = gemm(a, &qz);
    }
    let q = qr(&y).q_thin(); // m × l orthonormal
                             // B = Qᴴ A  (l × n), then SVD of the small matrix.
    let b = gemm_conj_transpose_left(&q, a);
    let svd = jacobi_svd(&b);
    let k = svd.rank_for_tolerance(tol);
    let small = svd.truncate(k); // B ≈ Us Vsᴴ with Us already scaled by Σ
                                 // A ≈ Q B ≈ (Q Us) Vsᴴ.
    let u = gemm(&q, &small.u);
    LowRank::new(u, small.v)
}

/// Adaptive randomized compression: doubles the sketch rank until the
/// residual `‖A − U Vᴴ‖_F` meets `tol` or the factorization stops paying
/// (rank exceeds `min(m,n)/2`), then falls back to a dense representation.
pub fn rsvd_compress_adaptive<S: SampleNormal, R: Rng>(
    a: &Matrix<S>,
    tol: S::Real,
    rng: &mut R,
) -> LowRank<S> {
    let (m, n) = a.shape();
    let maxk = m.min(n);
    let mut sketch = 8usize;
    loop {
        let opts = RsvdOptions {
            sketch_rank: sketch.min(maxk),
            oversample: 8,
            power_iters: 1,
        };
        let lr = randomized_svd(a, opts, tol, rng);
        let err = lr.to_dense().sub(a).fro_norm();
        if err <= tol {
            return lr;
        }
        if sketch >= maxk {
            // Could not certify the tolerance: exact fallback.
            return LowRank::dense_as_lowrank(a);
        }
        sketch *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::C64;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn low_rank_matrix(m: usize, n: usize, k: usize, seed: u64) -> Matrix<C64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let u = Matrix::<C64>::random_normal(m, k, &mut rng);
        let v = Matrix::<C64>::random_normal(k, n, &mut rng);
        gemm(&u, &v)
    }

    #[test]
    fn recovers_exact_low_rank() {
        let a = low_rank_matrix(30, 24, 4, 51);
        let mut rng = ChaCha8Rng::seed_from_u64(52);
        let lr = randomized_svd(
            &a,
            RsvdOptions {
                sketch_rank: 8,
                oversample: 6,
                power_iters: 1,
            },
            1e-10 * a.fro_norm(),
            &mut rng,
        );
        assert!(lr.rank() <= 8);
        assert!(lr.rank() >= 4);
        let err = lr.to_dense().sub(&a).fro_norm();
        assert!(err < 1e-9 * a.fro_norm(), "err {err}");
    }

    #[test]
    fn adaptive_meets_tolerance_on_decaying_spectrum() {
        // Build a matrix with geometric singular value decay.
        let m = 24;
        let n = 20;
        let mut rng = ChaCha8Rng::seed_from_u64(53);
        let q1 = qr(&Matrix::<C64>::random_normal(m, n, &mut rng)).q_thin();
        let q2 = qr(&Matrix::<C64>::random_normal(n, n, &mut rng)).q_thin();
        let mut sig = Matrix::<C64>::zeros(n, n);
        for i in 0..n {
            sig[(i, i)] = crate::scalar::c64(0.5f64.powi(i as i32), 0.0);
        }
        let a = gemm(&gemm(&q1, &sig), &q2.conj_transpose());
        // σᵢ = 0.5^i, so the Frobenius tail at rank k is ≈ 1.155·0.5^k;
        // tol = 1e-4 should truncate around rank 14.
        let tol = 1e-4;
        let lr = rsvd_compress_adaptive(&a, tol, &mut rng);
        let err = lr.to_dense().sub(&a).fro_norm();
        assert!(err <= tol, "err {err}");
        assert!(
            lr.rank() < 18,
            "should have truncated, rank = {}",
            lr.rank()
        );
    }

    #[test]
    fn adaptive_falls_back_to_dense_for_incompressible() {
        let mut rng = ChaCha8Rng::seed_from_u64(54);
        let a = Matrix::<C64>::random_normal(10, 10, &mut rng);
        // Random Gaussian matrices are essentially full rank.
        let lr = rsvd_compress_adaptive(&a, 1e-14, &mut rng);
        let err = lr.to_dense().sub(&a).fro_norm();
        assert!(err <= 1e-12 * a.fro_norm());
    }

    #[test]
    fn empty_sketch_shapes() {
        let a = Matrix::<C64>::zeros(5, 0);
        let mut rng = ChaCha8Rng::seed_from_u64(55);
        let lr = randomized_svd(&a, RsvdOptions::default(), 0.0, &mut rng);
        assert_eq!(lr.shape(), (5, 0));
        assert_eq!(lr.rank(), 0);
    }
}
