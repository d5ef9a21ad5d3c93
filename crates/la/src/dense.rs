//! Column-major dense matrix storage.
//!
//! Column-major layout is chosen because every hot kernel in TLR-MVM sweeps
//! matrix columns (the CS-2 `fmac` loops in the paper run down a column while
//! accumulating into `y`), so a column is a contiguous slice.

use std::fmt;
use std::ops::{Index, IndexMut};

use rand::Rng;

use crate::scalar::{Real, Scalar};

/// Dense column-major matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix<S> {
    nrows: usize,
    ncols: usize,
    data: Vec<S>,
}

impl<S: Scalar> Matrix<S> {
    /// Zero matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            data: vec![S::ZERO; nrows * ncols],
        }
    }

    /// Identity-like matrix (ones on the main diagonal).
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = S::ONE;
        }
        m
    }

    /// Build from a closure over `(row, col)`.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> S) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for j in 0..ncols {
            for i in 0..nrows {
                data.push(f(i, j));
            }
        }
        Self { nrows, ncols, data }
    }

    /// Wrap an existing column-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != nrows * ncols`.
    pub fn from_col_major(nrows: usize, ncols: usize, data: Vec<S>) -> Self {
        assert_eq!(
            data.len(),
            nrows * ncols,
            "buffer length {} does not match {nrows}x{ncols}",
            data.len()
        );
        Self { nrows, ncols, data }
    }

    /// Row count.
    #[inline(always)]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Column count.
    #[inline(always)]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `(nrows, ncols)`.
    #[inline(always)]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Total element count.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix has no elements.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Underlying column-major slice.
    #[inline(always)]
    pub fn as_slice(&self) -> &[S] {
        &self.data
    }

    /// Mutable underlying column-major slice.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// Consume into the column-major buffer.
    pub fn into_vec(self) -> Vec<S> {
        self.data
    }

    /// Contiguous column `j`.
    #[inline(always)]
    pub fn col(&self, j: usize) -> &[S] {
        debug_assert!(j < self.ncols);
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Mutable contiguous column `j`.
    #[inline(always)]
    pub fn col_mut(&mut self, j: usize) -> &mut [S] {
        debug_assert!(j < self.ncols);
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Two distinct mutable columns at once (needed by Jacobi rotations).
    ///
    /// # Panics
    /// Panics if `p == q` or either index is out of range.
    pub fn cols_mut_pair(&mut self, p: usize, q: usize) -> (&mut [S], &mut [S]) {
        assert!(p != q && p < self.ncols && q < self.ncols);
        let n = self.nrows;
        let (lo, hi) = if p < q { (p, q) } else { (q, p) };
        let (head, tail) = self.data.split_at_mut(hi * n);
        let a = &mut head[lo * n..lo * n + n];
        let b = &mut tail[..n];
        if p < q {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Copy of row `i` (strided access).
    pub fn row(&self, i: usize) -> Vec<S> {
        (0..self.ncols).map(|j| self[(i, j)]).collect()
    }

    /// Transpose (no conjugation).
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)])
    }

    /// Conjugate transpose `Aᴴ`.
    pub fn conj_transpose(&self) -> Self {
        Self::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)].conj())
    }

    /// Elementwise conjugate.
    pub fn conj(&self) -> Self {
        Self {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self.data.iter().map(|x| x.conj()).collect(),
        }
    }

    /// Extract the dense block with rows `r0..r0+m` and cols `c0..c0+n`,
    /// each entry written once.
    pub fn block(&self, r0: usize, c0: usize, m: usize, n: usize) -> Self {
        assert!(r0 + m <= self.nrows && c0 + n <= self.ncols);
        let mut data = Vec::with_capacity(m * n);
        for j in c0..c0 + n {
            data.extend_from_slice(&self.col(j)[r0..r0 + m]);
        }
        Self::from_col_major(m, n, data)
    }

    /// Write `block` into position `(r0, c0)`.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &Self) {
        assert!(r0 + block.nrows <= self.nrows && c0 + block.ncols <= self.ncols);
        for j in 0..block.ncols {
            let dst_col = self.col_mut(c0 + j);
            dst_col[r0..r0 + block.nrows].copy_from_slice(block.col(j));
        }
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> S::Real {
        // Two-pass scaled sum is unnecessary for our magnitudes; a plain
        // compensated-free accumulation in the wider of the element's real
        // type is accurate enough for tolerances >= 1e-7.
        let mut acc = 0.0f64;
        for x in &self.data {
            acc += x.abs_sqr().to_f64();
        }
        S::Real::from_f64(acc.sqrt())
    }

    /// Maximum elementwise modulus.
    pub fn max_abs(&self) -> S::Real {
        self.data
            .iter()
            .map(|x| x.abs())
            .fold(S::Real::ZERO, |a, b| a.max_val(b))
    }

    /// `self - other`, shapes must match.
    pub fn sub(&self, other: &Self) -> Self {
        assert_eq!(self.shape(), other.shape());
        Self {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| a - b)
                .collect(),
        }
    }

    /// `self + other`, shapes must match.
    pub fn add(&self, other: &Self) -> Self {
        assert_eq!(self.shape(), other.shape());
        Self {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }

    /// Scale all entries by a real factor.
    pub fn scale_real(&self, s: S::Real) -> Self {
        Self {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self.data.iter().map(|x| x.mul_real(s)).collect(),
        }
    }

    /// Apply a column permutation: `out[:, j] = self[:, perm[j]]`.
    pub fn permute_cols(&self, perm: &[usize]) -> Self {
        assert_eq!(perm.len(), self.ncols);
        let mut out = Self::zeros(self.nrows, self.ncols);
        for (j, &src) in perm.iter().enumerate() {
            out.col_mut(j).copy_from_slice(self.col(src));
        }
        out
    }

    /// Apply a row and a column permutation in one gather:
    /// `out[i, j] = self[rows[i], cols[j]]`.
    pub fn permute(&self, rows: &[usize], cols: &[usize]) -> Self {
        assert_eq!(rows.len(), self.nrows);
        assert_eq!(cols.len(), self.ncols);
        let mut data = Vec::with_capacity(self.data.len());
        for &c in cols {
            let src = self.col(c);
            data.extend(rows.iter().map(|&r| src[r]));
        }
        Self {
            nrows: self.nrows,
            ncols: self.ncols,
            data,
        }
    }

    /// `true` if every entry is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Matrix<crate::scalar::C32> {
    /// Standard-normal random complex matrix (deterministic under a seeded RNG).
    pub fn random_normal<R: Rng>(nrows: usize, ncols: usize, rng: &mut R) -> Self {
        Self::from_fn(nrows, ncols, |_, _| {
            crate::scalar::c32(
                f32::from_f64(normal_sample(rng)),
                f32::from_f64(normal_sample(rng)),
            )
        })
    }
}

impl Matrix<crate::scalar::C64> {
    /// Standard-normal random complex matrix (deterministic under a seeded RNG).
    pub fn random_normal<R: Rng>(nrows: usize, ncols: usize, rng: &mut R) -> Self {
        Self::from_fn(nrows, ncols, |_, _| {
            crate::scalar::c64(normal_sample(rng), normal_sample(rng))
        })
    }
}

/// Box-Muller standard normal sample; avoids a rand_distr dependency.
pub fn normal_sample<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

impl<S: Scalar> Index<(usize, usize)> for Matrix<S> {
    type Output = S;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &S {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[j * self.nrows + i]
    }
}

impl<S: Scalar> IndexMut<(usize, usize)> for Matrix<S> {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut S {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[j * self.nrows + i]
    }
}

impl<S: Scalar> fmt::Debug for Matrix<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.nrows, self.ncols)?;
        let show_rows = self.nrows.min(8);
        let show_cols = self.ncols.min(8);
        for i in 0..show_rows {
            write!(f, "  ")?;
            for j in 0..show_cols {
                write!(f, "{} ", self[(i, j)])?;
            }
            if show_cols < self.ncols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if show_rows < self.nrows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::{c32, C32};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn shape_and_indexing() {
        let m = Matrix::<C32>::from_fn(3, 2, |i, j| c32(i as f32, j as f32));
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m[(2, 1)], c32(2.0, 1.0));
        assert_eq!(m.col(1), &[c32(0.0, 1.0), c32(1.0, 1.0), c32(2.0, 1.0)]);
    }

    #[test]
    fn transpose_and_conj_transpose() {
        let m = Matrix::<C32>::from_fn(2, 3, |i, j| c32((i + 1) as f32, (j + 1) as f32));
        let t = m.transpose();
        let h = m.conj_transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], m[(1, 2)]);
        assert_eq!(h[(2, 1)], m[(1, 2)].conj());
        // (Aᴴ)ᴴ = A
        assert_eq!(h.conj_transpose(), m);
    }

    #[test]
    fn block_roundtrip() {
        let m = Matrix::<C32>::from_fn(5, 7, |i, j| c32(i as f32, j as f32));
        let b = m.block(1, 2, 3, 4);
        assert_eq!(b.shape(), (3, 4));
        assert_eq!(b[(0, 0)], m[(1, 2)]);
        let mut z = Matrix::<C32>::zeros(5, 7);
        z.set_block(1, 2, &b);
        assert_eq!(z[(3, 5)], m[(3, 5)]);
        assert_eq!(z[(0, 0)], C32::ZERO);
    }

    #[test]
    fn cols_mut_pair_disjoint() {
        let mut m = Matrix::<C32>::from_fn(4, 3, |i, j| c32(i as f32, j as f32));
        let (a, b) = m.cols_mut_pair(2, 0);
        assert_eq!(a[0], c32(0.0, 2.0));
        assert_eq!(b[0], c32(0.0, 0.0));
        a[0] = c32(9.0, 9.0);
        b[0] = c32(8.0, 8.0);
        assert_eq!(m[(0, 2)], c32(9.0, 9.0));
        assert_eq!(m[(0, 0)], c32(8.0, 8.0));
    }

    #[test]
    fn fro_norm_matches_manual() {
        let m = Matrix::<C32>::from_fn(2, 2, |i, j| c32((i * 2 + j) as f32, 0.0));
        // entries 0,1,2,3 -> sum sq = 14
        assert!((m.fro_norm() - (14.0f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn permutations_invert() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let m = Matrix::<C32>::random_normal(6, 5, &mut rng);
        let perm = vec![4, 2, 0, 1, 3];
        let mut inv = vec![0usize; 5];
        for (j, &p) in perm.iter().enumerate() {
            inv[p] = j;
        }
        let round = m.permute_cols(&perm).permute_cols(&inv);
        assert_eq!(round, m);
        // The two-sided gather is the row gather followed by the column one.
        let rows = vec![5, 0, 3, 1, 4, 2];
        let by_rows = Matrix::from_fn(6, 5, |i, j| m[(rows[i], j)]);
        assert_eq!(m.permute(&rows, &perm), by_rows.permute_cols(&perm));
    }

    #[test]
    fn eye_is_identity_under_permute() {
        let e = Matrix::<C32>::eye(4);
        for i in 0..4 {
            for j in 0..4 {
                let want = if i == j { C32::ONE } else { C32::ZERO };
                assert_eq!(e[(i, j)], want);
            }
        }
    }

    #[test]
    #[should_panic]
    fn bad_buffer_length_panics() {
        let _ = Matrix::<C32>::from_col_major(2, 2, vec![C32::ZERO; 3]);
    }
}
