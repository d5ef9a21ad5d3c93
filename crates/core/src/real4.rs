//! Split-complex storage: the PE SRAM image format of the WSE
//! simulator's CSL kernel, and the host reference that kernel is checked
//! against.
//!
//! The Cerebras SDK (like every vendor batched-BLAS the paper surveys)
//! lacks complex batched kernels, so the paper splits each complex MVM
//! into four real ones:
//! `y_re = A_re·x_re − A_im·x_im`, `y_im = A_re·x_im + A_im·x_re`.
//! With the V and U batches that makes **eight** independent real MVMs —
//! the unit the CS-2 strong-scaling strategies distribute over PEs.
//! [`RealSplitMatrix::from_complex`] and [`split_vec`] lay a chunk out as
//! the PE holds it; [`RealSplitMatrix::gemv_conj_transpose_acc_4real`]
//! (V phase) and [`RealSplitMatrix::gemv_acc_4real`] (U phase) compute on
//! the host what the interpreted PE program must reproduce. The host
//! itself runs complex arithmetic ([`crate::layouts::RankChunk`]).

use seismic_la::scalar::C32;
use seismic_la::Matrix;

/// Split-complex storage of a complex matrix: two real FP32 matrices.
#[derive(Clone, Debug)]
pub struct RealSplitMatrix {
    /// Real parts.
    pub re: Matrix<f32>,
    /// Imaginary parts.
    pub im: Matrix<f32>,
}

impl RealSplitMatrix {
    /// Split a complex matrix.
    pub fn from_complex(a: &Matrix<C32>) -> Self {
        let (m, n) = a.shape();
        let mut re = Matrix::zeros(m, n);
        let mut im = Matrix::zeros(m, n);
        for (idx, v) in a.as_slice().iter().enumerate() {
            re.as_mut_slice()[idx] = v.re;
            im.as_mut_slice()[idx] = v.im;
        }
        Self { re, im }
    }

    /// Shape `(m, n)` of the represented complex matrix.
    pub fn shape(&self) -> (usize, usize) {
        self.re.shape()
    }

    /// `y += A x` executed as the four real MVMs. Returns the number of
    /// real fused multiply-adds performed (for the performance model).
    pub fn gemv_acc_4real(
        &self,
        x_re: &[f32],
        x_im: &[f32],
        y_re: &mut [f32],
        y_im: &mut [f32],
    ) -> usize {
        let (m, n) = self.shape();
        assert_eq!(x_re.len(), n);
        assert_eq!(x_im.len(), n);
        assert_eq!(y_re.len(), m);
        assert_eq!(y_im.len(), m);
        // y_re += A_re x_re − A_im x_im; y_im += A_re x_im + A_im x_re.
        real_gemv_acc(&self.re, x_re, y_re, 1.0);
        real_gemv_acc(&self.im, x_im, y_re, -1.0);
        real_gemv_acc(&self.re, x_im, y_im, 1.0);
        real_gemv_acc(&self.im, x_re, y_im, 1.0);
        4 * m * n
    }

    /// `y += Aᴴ x` as four real MVMs (the V-batch of TLR-MVM computes
    /// `Vᴴ x`): `y_re = A_reᵀ x_re + A_imᵀ x_im`,
    /// `y_im = A_reᵀ x_im − A_imᵀ x_re`.
    pub fn gemv_conj_transpose_acc_4real(
        &self,
        x_re: &[f32],
        x_im: &[f32],
        y_re: &mut [f32],
        y_im: &mut [f32],
    ) -> usize {
        let (m, n) = self.shape();
        assert_eq!(x_re.len(), m);
        assert_eq!(x_im.len(), m);
        assert_eq!(y_re.len(), n);
        assert_eq!(y_im.len(), n);
        real_gemv_t_acc(&self.re, x_re, y_re, 1.0);
        real_gemv_t_acc(&self.im, x_im, y_re, 1.0);
        real_gemv_t_acc(&self.re, x_im, y_im, 1.0);
        real_gemv_t_acc(&self.im, x_re, y_im, -1.0);
        4 * m * n
    }
}

/// Split a complex vector into parallel real/imag arrays.
pub fn split_vec(x: &[C32]) -> (Vec<f32>, Vec<f32>) {
    (
        x.iter().map(|v| v.re).collect(),
        x.iter().map(|v| v.im).collect(),
    )
}

/// `y += sign·(A x)`; `sign` is ±1, so each step rounds as `y ± a·x`.
fn real_gemv_acc(a: &Matrix<f32>, x: &[f32], y: &mut [f32], sign: f32) {
    for (j, &xj) in x.iter().enumerate() {
        for (yi, &aij) in y.iter_mut().zip(a.col(j)) {
            *yi += sign * (aij * xj);
        }
    }
}

/// `y += sign·(Aᵀ x)`, one dot per column.
fn real_gemv_t_acc(a: &Matrix<f32>, x: &[f32], y: &mut [f32], sign: f32) {
    for (j, yj) in y.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for (&aij, &xi) in a.col(j).iter().zip(x) {
            acc += aij * xi;
        }
        *yj += sign * acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use seismic_la::blas::{gemv_acc, gemv_conj_transpose_acc};

    fn rand_cvec(n: usize, seed: u64) -> Vec<C32> {
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

    fn join(re: &[f32], im: &[f32]) -> Vec<C32> {
        re.iter().zip(im).map(|(&r, &i)| C32::new(r, i)).collect()
    }

    /// The planes are the parts, in the source's column-major order, so
    /// joining them back gives the source.
    #[test]
    fn split_roundtrip() {
        let mut rng = ChaCha8Rng::seed_from_u64(91);
        let a = Matrix::<C32>::random_normal(9, 7, &mut rng);
        let s = RealSplitMatrix::from_complex(&a);
        assert_eq!(s.shape(), (9, 7));
        assert_eq!(join(s.re.as_slice(), s.im.as_slice()), a.as_slice());
        let x = rand_cvec(5, 92);
        let (re, im) = split_vec(&x);
        assert_eq!(join(&re, &im), x);
    }

    #[test]
    fn four_real_mvm_equals_complex() {
        let mut rng = ChaCha8Rng::seed_from_u64(93);
        let a = Matrix::<C32>::random_normal(11, 8, &mut rng);
        let x = rand_cvec(8, 94);
        // Complex reference.
        let mut want = vec![C32::new(0.0, 0.0); 11];
        gemv_acc(&a, &x, &mut want);
        // Split path.
        let s = RealSplitMatrix::from_complex(&a);
        let (xr, xi) = split_vec(&x);
        let mut yr = vec![0.0f32; 11];
        let mut yi = vec![0.0f32; 11];
        let fmas = s.gemv_acc_4real(&xr, &xi, &mut yr, &mut yi);
        assert_eq!(fmas, 4 * 11 * 8);
        let got = join(&yr, &yi);
        for (g, w) in got.iter().zip(&want) {
            assert!((*g - *w).abs() < 1e-4);
        }
    }

    #[test]
    fn four_real_conj_transpose_equals_complex() {
        let mut rng = ChaCha8Rng::seed_from_u64(95);
        let a = Matrix::<C32>::random_normal(10, 6, &mut rng);
        let y = rand_cvec(10, 96);
        let mut want = vec![C32::new(0.0, 0.0); 6];
        gemv_conj_transpose_acc(&a, &y, &mut want);
        let s = RealSplitMatrix::from_complex(&a);
        let (yr, yi) = split_vec(&y);
        let mut xr = vec![0.0f32; 6];
        let mut xi = vec![0.0f32; 6];
        s.gemv_conj_transpose_acc_4real(&yr, &yi, &mut xr, &mut xi);
        let got = join(&xr, &xi);
        for (g, w) in got.iter().zip(&want) {
            assert!((*g - *w).abs() < 1e-4);
        }
    }
}
