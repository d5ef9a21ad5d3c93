//! The stored form of an approximated tile: the interpolative (skeleton)
//! form `C·[I Xᴴ]·Πᵀ`.
//!
//! A rank-`r` product `U·Vᴴ` (`m × n`) equals `C·Wᴴ` with `C = U·V_Jᴴ`
//! — the tile's own columns `J` — and `W = V·V_J⁻¹`, which is the identity
//! on its rows `J` and `X = V_rest·V_J⁻¹` on the others. Only `C`
//! (`m × r`), `X` (`(n−r) × r`) and the column order `Π = [J, rest]` are
//! stored: `r·(m+n−r)` words instead of `r·(m+n)`, for the identical
//! approximant. `J` comes from a column-pivoted QR of `Vᴴ`, which keeps
//! every `|X_ij|` near 1 (at most 1.45 on the benchmark's 13,579 SVD
//! skeletons); a swap refinement enforces `|X_ij| ≤ 2` on data that defeats
//! the pivoting, so `‖W‖` is bounded and the product is as well
//! conditioned as the pair it replaces (DESIGN.md §12).

use std::ops::Range;

use seismic_la::blas::gemm_conj_transpose_right;
use seismic_la::scalar::{Scalar, C32, C64};
use seismic_la::{LowRank, Matrix, PivotedQr};

use crate::cast::checked_cast;
use crate::fastpath::{axpy_cols, dotc_cols};

const CZERO: C32 = C32::new(0.0, 0.0);

/// Column indices of one tile: a byte each while the tile has at most 256
/// columns, a word each beyond.
#[derive(Clone, Debug)]
enum Perm {
    Byte(Box<[u8]>),
    Wide(Box<[usize]>),
}

impl Perm {
    fn new(perm: &[usize]) -> Self {
        if perm.len() <= 256 {
            Perm::Byte(perm.iter().map(|&p| checked_cast(p)).collect())
        } else {
            Perm::Wide(perm.into())
        }
    }

    fn len(&self) -> usize {
        match self {
            Perm::Byte(p) => p.len(),
            Perm::Wide(p) => p.len(),
        }
    }

    fn bytes(&self) -> usize {
        match self {
            Perm::Byte(p) => p.len(),
            Perm::Wide(p) => std::mem::size_of_val(&**p),
        }
    }

    fn get(&self, k: usize) -> usize {
        match self {
            Perm::Byte(p) => usize::from(p[k]),
            Perm::Wide(p) => p[k],
        }
    }

    /// `x_J = src[perm[..r]]`, `x̃ = src[perm[r..]]` and the swapped copy of
    /// `x̃`, the latter two written two entries per store: the conjugated
    /// dot reads both right away in 16-byte loads, which an 8-byte store
    /// still in flight would stall.
    #[inline]
    fn gather_split(&self, src: &[C32], head: &mut [C32], rest: &mut [C32], swapped: &mut [C32]) {
        fn run<I: Copy + Into<usize>>(
            idx: &[I],
            src: &[C32],
            head: &mut [C32],
            rest: &mut [C32],
            swapped: &mut [C32],
        ) {
            let (head_idx, idx) = idx.split_at(head.len());
            assert!(idx.len() == rest.len() && idx.len() == swapped.len());
            for (d, &i) in head.iter_mut().zip(head_idx) {
                *d = src[i.into()];
            }
            let swap = |v: C32| C32::new(v.im, v.re);
            let ((d2, d1), (s2, s1)) = (rest.as_chunks_mut::<2>(), swapped.as_chunks_mut::<2>());
            let (i2, i1) = idx.as_chunks::<2>();
            for ((d, s), i) in d2.iter_mut().zip(s2).zip(i2) {
                let (v, w) = (src[i[0].into()], src[i[1].into()]);
                *d = [v, w];
                *s = [swap(v), swap(w)];
            }
            for ((d, s), &i) in d1.iter_mut().zip(s1).zip(i1) {
                *d = src[i.into()];
                *s = swap(*d);
            }
        }
        match self {
            Perm::Byte(p) => run(p, src, head, rest, swapped),
            Perm::Wide(p) => run(p, src, head, rest, swapped),
        }
    }

    /// `dst[perm[k]] += src[k]`.
    #[inline]
    fn scatter_add(&self, src: &[C32], dst: &mut [C32]) {
        fn run<I: Copy + Into<usize>>(idx: &[I], src: &[C32], dst: &mut [C32]) {
            assert_eq!(idx.len(), src.len());
            for (&v, &p) in src.iter().zip(idx) {
                dst[p.into()] += v;
            }
        }
        match self {
            Perm::Byte(p) => run(p, src, dst),
            Perm::Wide(p) => run(p, src, dst),
        }
    }
}

/// A rank-`r` tile `C·[I Xᴴ]·Πᵀ` (see the module header).
///
/// `X` and `C` are held as one column-major panel `[X; C]`
/// (`(n−r+m) × r`): column `c` is `X`'s column `c` with `C`'s behind it.
/// Both products work through the panel four columns at a time — the
/// forward one reduces the `X` parts of a block and then expands its `C`
/// parts, the adjoint one the reverse — so either reads the tile once,
/// front to back, as a single stream.
#[derive(Clone, Debug)]
pub struct Skeleton {
    /// `[X; C]`, `(n−r+m) × r`.
    panel: Matrix<C32>,
    /// Rows of `C`: the tile's row count.
    m: usize,
    /// The `n` column indices, `J` first; empty for a rank-0 tile, which
    /// stores nothing.
    perm: Perm,
}

impl Skeleton {
    /// Assemble from parts: `perm` lists the tile's `n` columns, the `r`
    /// skeleton columns first. Panics unless `c` is `m × r`, `x` is
    /// `(n−r) × r` and `perm` is a permutation of `0..n`.
    pub fn new(c: &Matrix<C32>, x: &Matrix<C32>, perm: &[usize]) -> Self {
        let r = c.ncols();
        assert_eq!(x.ncols(), r, "C and X must share the rank dimension");
        let n = r + x.nrows();
        assert_eq!(perm.len(), n, "one index per tile column");
        let mut seen = vec![false; n];
        for &p in perm {
            assert!(
                p < n && !std::mem::replace(&mut seen[p], true),
                "not a permutation"
            );
        }
        let mut panel = Matrix::zeros(x.nrows() + c.nrows(), r);
        for j in 0..r {
            let (top, bottom) = panel.col_mut(j).split_at_mut(x.nrows());
            top.copy_from_slice(x.col(j));
            bottom.copy_from_slice(c.col(j));
        }
        let perm = Perm::new(if r == 0 { &[] } else { perm });
        Self {
            panel,
            m: c.nrows(),
            perm,
        }
    }

    /// The skeleton form of `U·Vᴴ`.
    pub fn from_factors(u: &Matrix<C32>, v: &Matrix<C32>) -> Self {
        assert_eq!(
            u.ncols(),
            v.ncols(),
            "U and V must share the rank dimension"
        );
        Self::from_right_factor(v, |v_j| gemm_conj_transpose_right(u, v_j))
    }

    /// The skeleton form of `U·Vᴴ` for a `U` the caller holds in pieces:
    /// `left(V_J)` returns `U·V_Jᴴ` for the chosen rows `V_J` of `v`
    /// (`r' × r`; `r' < r` only when the pivoting meets an exactly zero
    /// residual).
    pub(crate) fn from_right_factor(
        v: &Matrix<C32>,
        left: impl FnOnce(&Matrix<C32>) -> Matrix<C32>,
    ) -> Self {
        let (perm, x) = pivot_and_solve(v);
        Self::from_interpolation(v, perm, x, left)
    }

    /// The skeleton form of the approximant `Q_k·R_k·Pᵀ` a column-pivoted
    /// QR stopped at: its right factor `P·R_kᴴ` is lower trapezoidal in
    /// the QR's own pivot order, so that order is taken as it is and only
    /// the substitution is left to do.
    pub(crate) fn from_pivoted_qr(qr: &PivotedQr<C32>) -> Self {
        let v = qr.right_factor();
        let l = Matrix::<C64>::from_fn(v.nrows(), v.ncols(), |i, c| v[(qr.perm[i], c)].widen());
        let x = solve_lower(&l, qr.rank);
        Self::from_interpolation(&v, qr.perm.clone(), x, |v_j| {
            qr.q_times(&v_j.conj_transpose())
        })
    }

    /// From a column order and the `X` it gives: bound `X`, then form `C`
    /// on the rows of `v` that end up chosen.
    fn from_interpolation(
        v: &Matrix<C32>,
        mut perm: Vec<usize>,
        mut x: Matrix<C64>,
        left: impl FnOnce(&Matrix<C32>) -> Matrix<C32>,
    ) -> Self {
        refine(&mut x, &mut perm);
        let (rest, k) = x.shape();
        let v_j = Matrix::from_fn(k, v.ncols(), |i, j| v[(perm[i], j)]);
        let x = Matrix::from_fn(rest, k, |i, j| x[(i, j)].narrow());
        Self::new(&left(&v_j), &x, &perm)
    }

    /// Rank `r`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.panel.ncols()
    }

    /// `(m, n)` of the tile.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.m, self.rest() + self.rank())
    }

    /// `n − r`: the rows of `X`.
    #[inline]
    fn rest(&self) -> usize {
        self.panel.nrows() - self.m
    }

    /// Stored scalars: `r·(m+n−r)`.
    #[inline]
    pub fn stored_elements(&self) -> usize {
        self.panel.len()
    }

    /// Bytes of the stored column order.
    #[inline]
    pub fn index_bytes(&self) -> usize {
        self.perm.bytes()
    }

    /// The stored panel `[X; C]`, `(n−r+m) × r`.
    pub fn panel(&self) -> &Matrix<C32> {
        &self.panel
    }

    /// Column `c` of `C` (`m` entries).
    #[inline]
    pub(crate) fn c_col(&self, c: usize) -> &[C32] {
        &self.panel.col(c)[self.rest()..]
    }

    /// Column `c` of `X` (`n − r` entries).
    #[inline]
    fn x_col(&self, c: usize) -> &[C32] {
        &self.panel.col(c)[..self.rest()]
    }

    /// A copy of `C`, `m × r`.
    pub fn c(&self) -> Matrix<C32> {
        self.panel.block(self.rest(), 0, self.m, self.rank())
    }

    /// A copy of `X`, `(n−r) × r`.
    pub fn x(&self) -> Matrix<C32> {
        self.panel.block(0, 0, self.rest(), self.rank())
    }

    /// The column order as stored (empty at rank 0).
    pub fn perm(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.perm.len()).map(|k| self.perm.get(k))
    }

    /// `t = x_J + Xᴴ x̃`: the coefficients the skeleton's columns
    /// multiply, four at a time on the conjugated-dot lanes, from the
    /// scratch [`Skeleton::gather`] filled.
    pub(crate) fn coefficients(&self, gathered: &[C32], t: &mut [C32]) {
        assert_eq!(t.len(), self.rank(), "one coefficient per column");
        let (x_j, x_rest, xs) = self.gathered(gathered);
        for (k, tk) in t.chunks_mut(4).enumerate() {
            let j = 4 * k;
            match tk.len() {
                1 => self.coefficient_block::<1>(j, x_j, x_rest, xs, tk),
                2 => self.coefficient_block::<2>(j, x_j, x_rest, xs, tk),
                3 => self.coefficient_block::<3>(j, x_j, x_rest, xs, tk),
                _ => self.coefficient_block::<4>(j, x_j, x_rest, xs, tk),
            }
        }
    }

    #[inline(always)]
    fn coefficient_block<const N: usize>(
        &self,
        j: usize,
        x_j: &[C32],
        x_rest: &[C32],
        xs: &[C32],
        t: &mut [C32],
    ) {
        let (top, _) = self.block::<N>(j);
        let d = dotc_cols(top, x_rest, xs);
        for ((tv, dv), &p) in t.iter_mut().zip(d).zip(&x_j[j..]) {
            *tv = dv + p;
        }
    }

    /// Write column `r` of the right factor `W` (tile `= C·Wᴴ`) into `dst`:
    /// `e_{J[r]}` plus column `r` of `X` on the other columns' rows.
    fn copy_w_col(&self, r: usize, dst: &mut [C32]) {
        dst.fill(CZERO);
        dst[self.perm.get(r)] = C32::new(1.0, 0.0);
        for (k, &v) in self.x_col(r).iter().enumerate() {
            dst[self.perm.get(self.rank() + k)] = v;
        }
    }

    /// The factor pair `(C, W)` this tile stands for.
    pub fn factors(&self) -> LowRank<C32> {
        let (_, n) = self.shape();
        let mut w = Matrix::zeros(n, self.rank());
        for r in 0..self.rank() {
            self.copy_w_col(r, w.col_mut(r));
        }
        LowRank::new(self.c(), w)
    }

    /// `y += C·(x_J + Xᴴ x̃)`: the gather of `x` into `scratch` (at least
    /// `2n` entries: the tile's ordering of `x`, and the swapped copy of
    /// `x̃`), then [`Skeleton::forward_acc`] over every column.
    #[inline]
    pub(crate) fn apply_acc_fast(&self, x: &[C32], scratch: &mut [C32], y: &mut [C32]) {
        let r = self.rank();
        if r == 0 {
            return;
        }
        self.gather(x, scratch);
        self.forward_acc(0..r, scratch, y);
    }

    /// `y += C[:, cols]·(x_J + Xᴴ x̃)[cols]` from the scratch
    /// [`Skeleton::gather`] filled, block by block of four panel columns
    /// from `cols.start` (the last of three, two or one): `t = x_J + Xᴴ x̃`
    /// of the block from the conjugated-dot lanes, then `y += C t` of the
    /// same columns.
    #[inline]
    pub(crate) fn forward_acc(&self, cols: Range<usize>, gathered: &[C32], y: &mut [C32]) {
        let (x_j, x_rest, xs) = self.gathered(gathered);
        let mut block = |j: usize, width: usize| match width {
            1 => self.forward_block::<1>(j, x_j, x_rest, xs, y),
            2 => self.forward_block::<2>(j, x_j, x_rest, xs, y),
            3 => self.forward_block::<3>(j, x_j, x_rest, xs, y),
            _ => self.forward_block::<4>(j, x_j, x_rest, xs, y),
        };
        cols.clone().step_by(4).for_each(|j| block(j, cols.end - j));
    }

    /// Fill the head of `scratch` (at least `2n` entries) with the tile's
    /// ordering of `x` — `x_J`, then `x̃` — and the swapped copy of `x̃`.
    #[inline]
    pub(crate) fn gather(&self, x: &[C32], scratch: &mut [C32]) {
        let (r, n) = (self.rank(), self.perm.len());
        let (xp, xs) = scratch.split_at_mut(n);
        let (x_j, x_rest) = xp.split_at_mut(r);
        self.perm.gather_split(x, x_j, x_rest, &mut xs[..n - r]);
    }

    /// What [`Skeleton::gather`] wrote: `x_J`, `x̃` and the swapped `x̃`.
    #[inline]
    fn gathered<'s>(&self, gathered: &'s [C32]) -> (&'s [C32], &'s [C32], &'s [C32]) {
        let (r, n) = (self.rank(), self.perm.len());
        let (x_j, rest) = gathered.split_at(r);
        let (x_rest, xs) = rest.split_at(n - r);
        (x_j, x_rest, &xs[..n - r])
    }

    #[inline(always)]
    fn forward_block<const N: usize>(
        &self,
        j: usize,
        x_j: &[C32],
        x_rest: &[C32],
        xs: &[C32],
        y: &mut [C32],
    ) {
        let (top, bottom) = self.block::<N>(j);
        let mut t = dotc_cols(top, x_rest, xs);
        for (tv, &p) in t.iter_mut().zip(&x_j[j..]) {
            *tv += p;
        }
        axpy_cols(bottom, t, y);
    }

    /// `x += Tᴴ y`, block by block: `s = Cᴴ y` of four columns, then
    /// `x̃ += X s` of the same columns; `[s; x̃]` is scattered back onto
    /// the tile's columns at the end. `ys` is `swap_re_im(y)`; `scratch`
    /// holds at least `n` entries.
    #[inline]
    pub(crate) fn apply_adjoint_acc_fast(
        &self,
        y: &[C32],
        ys: &[C32],
        scratch: &mut [C32],
        x: &mut [C32],
    ) {
        let (r, n) = (self.rank(), self.perm.len());
        if r == 0 {
            return;
        }
        let sz = &mut scratch[..n];
        let (s, z) = sz.split_at_mut(r);
        z.fill(CZERO);
        let mut block = |j: usize, width: usize| match width {
            1 => self.adjoint_block::<1>(j, y, ys, s, z),
            2 => self.adjoint_block::<2>(j, y, ys, s, z),
            3 => self.adjoint_block::<3>(j, y, ys, s, z),
            _ => self.adjoint_block::<4>(j, y, ys, s, z),
        };
        (0..r).step_by(4).for_each(|j| block(j, r - j));
        self.perm.scatter_add(sz, x);
    }

    #[inline(always)]
    fn adjoint_block<const N: usize>(
        &self,
        j: usize,
        y: &[C32],
        ys: &[C32],
        s: &mut [C32],
        z: &mut [C32],
    ) {
        let (top, bottom) = self.block::<N>(j);
        let d = dotc_cols(bottom, y, ys);
        s[j..j + N].copy_from_slice(&d);
        axpy_cols(top, d, z);
    }

    /// The `N` panel columns from `j`, each as its `X` part and its `C`
    /// part.
    #[inline(always)]
    fn block<const N: usize>(&self, j: usize) -> ([&[C32]; N], [&[C32]; N]) {
        let rest = self.rest();
        let cols: [(&[C32], &[C32]); N] =
            core::array::from_fn(|c| self.panel.col(j + c).split_at(rest));
        (cols.map(|c| c.0), cols.map(|c| c.1))
    }
}

/// The column-pivoted QR of `Vᴴ`, taken as the row-pivoted LQ of `V` so
/// that every inner loop runs down a column `n` long, in `f64`: the pivot
/// order and `X = L₂₁L₁₁⁻¹` (`(n−k) × k`; `= (R₁₁⁻¹R₁₂)ᴴ`, `k` the rank
/// found — `r` unless the residual became exactly zero). Step `j` moves
/// the row of largest residual norm to position `j` and reflects its
/// residual onto one component, for every row at once. Pivoting bounds
/// row `i` of `L₂₁` by `|L₁₁[i,i]|`, so the substitution cannot overflow.
fn pivot_and_solve(v: &Matrix<C32>) -> (Vec<usize>, Matrix<C64>) {
    let (n, r) = v.shape();
    let mut e = Matrix::<C64>::from_fn(n, r, |i, j| v[(i, j)].widen());
    let mut perm: Vec<usize> = (0..n).collect();
    let mut norms = vec![0.0f64; n];
    let mut w = vec![C64::ZERO; n];
    let mut u = vec![C64::ZERO; r];
    let mut k = 0;
    for j in 0..r.min(n) {
        // Residual row norms, recomputed over the columns still to reduce.
        norms[j..].fill(0.0);
        for c in j..r {
            for (nm, z) in norms[j..].iter_mut().zip(&e.col(c)[j..]) {
                *nm += z.norm_sqr();
            }
        }
        let (mut p, mut best) = (j, norms[j]);
        for (i, &nm) in norms.iter().enumerate().skip(j + 1) {
            if nm > best {
                (p, best) = (i, nm);
            }
        }
        if best <= 0.0 || best.is_nan() {
            break;
        }
        if p != j {
            for c in 0..r {
                e.col_mut(c).swap(j, p);
            }
            perm.swap(j, p);
        }
        // H = I − γ·u·uᴴ with H·x = β·e₁ for x = (row j)ᴴ; H is Hermitian,
        // so (row j)·H = β̄·e₁ᵀ, and every row takes the same H.
        let norm = best.sqrt();
        let alpha = e[(j, j)].conj();
        let beta = if alpha.abs() > 0.0 {
            -alpha.scale(norm / alpha.abs())
        } else {
            C64::new(-norm, 0.0)
        };
        for c in j..r {
            u[c] = e[(j, c)].conj();
        }
        u[j] -= beta;
        let gamma = 2.0 / u[j..].iter().map(|z| z.norm_sqr()).sum::<f64>();
        let w = &mut w[j..];
        w.fill(C64::ZERO);
        for (c, &uc) in u.iter().enumerate().skip(j) {
            for (wv, &z) in w.iter_mut().zip(&e.col(c)[j..]) {
                *wv += z * uc;
            }
        }
        for (c, &uc) in u.iter().enumerate().skip(j) {
            let f = uc.conj().scale(gamma);
            for (z, &wv) in e.col_mut(c)[j..].iter_mut().zip(&*w) {
                *z -= wv * f;
            }
        }
        k = j + 1;
    }
    let x = solve_lower(&e, k);
    (perm, x)
}

/// `X = L₂₁L₁₁⁻¹` (`(n−k) × k`) for the lower trapezoidal `L = [L₁₁; L₂₁]`
/// in the leading `k` columns of `l`: `X·L₁₁ = L₂₁`, the last column
/// first.
fn solve_lower(l: &Matrix<C64>, k: usize) -> Matrix<C64> {
    let mut x = Matrix::<C64>::from_fn(l.nrows() - k, k, |i, c| l[(k + i, c)]);
    for c in (0..k).rev() {
        for c2 in c + 1..k {
            let f = l[(c2, c)];
            let (xc, xc2) = x.cols_mut_pair(c, c2);
            for (z, &y) in xc.iter_mut().zip(&*xc2) {
                *z -= y * f;
            }
        }
        let inv = l[(c, c)].inv();
        for z in x.col_mut(c) {
            *z *= inv;
        }
    }
    x
}

/// Exchange skeleton column `p` with the other column `i` that holds the
/// largest `|X[i,p]|`, while that exceeds 2. Each exchange multiplies
/// `|det V_J|` by that entry and the determinant is bounded, so this
/// terminates; what is left has `|X_ij| ≤ 2` everywhere.
fn refine(x: &mut Matrix<C64>, perm: &mut [usize]) {
    let (_, k) = x.shape();
    loop {
        let mut worst = 4.0f64;
        let mut at = None;
        for p in 0..k {
            for (i, v) in x.col(p).iter().enumerate() {
                if v.norm_sqr() > worst {
                    worst = v.norm_sqr();
                    at = Some((i, p));
                }
            }
        }
        let Some((i, p)) = at else {
            return;
        };
        // In the basis with column i in place of skeleton column p, every
        // other row loses its p-component; row i becomes the old skeleton
        // column's: −w/w_p, with 1/w_p at p.
        let w: Vec<C64> = (0..k).map(|q| x[(i, q)]).collect();
        let inv = w[p].inv();
        for q in (0..k).filter(|&q| q != p) {
            let f = w[q] * inv;
            let (xq, xp) = x.cols_mut_pair(q, p);
            for (z, &y) in xq.iter_mut().zip(&*xp) {
                *z -= y * f;
            }
            xq[i] = -f;
        }
        for z in x.col_mut(p) {
            *z *= inv;
        }
        x[(i, p)] = inv;
        perm.swap(p, k + i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use seismic_la::qr::qr;

    /// `U·Vᴴ` with singular values decaying geometrically from 1 to
    /// `1e-6`, `V` orthonormal and `U` carrying the values — the shape
    /// `svd_compress` hands over.
    fn decaying_factors(m: usize, n: usize, r: usize, seed: u64) -> (Matrix<C32>, Matrix<C32>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut u = qr(&Matrix::<C32>::random_normal(m, r, &mut rng)).q_thin();
        let v = qr(&Matrix::<C32>::random_normal(n, r, &mut rng)).q_thin();
        for j in 0..r {
            let sigma = 1e-6f32.powf(j as f32 / (r.max(2) - 1) as f32);
            for e in u.col_mut(j) {
                *e = e.scale(sigma);
            }
        }
        (u, v)
    }

    fn max_abs_x(s: &Skeleton) -> f32 {
        let x = s.x();
        x.as_slice().iter().map(|v| v.abs()).fold(0.0, f32::max)
    }

    /// Random `(m, n, r)` with spectra decaying to `1e-6`: the stored form
    /// has `max|X| ≤ 2`, its column order is a permutation with the
    /// skeleton first, and it is the pair's product to a few `ε`.
    #[test]
    fn skeleton_of_random_factors_is_bounded_and_exact() {
        let mut rng = ChaCha8Rng::seed_from_u64(401);
        for case in 0..200 {
            let m = rng.gen_range(1..40usize);
            let n = rng.gen_range(1..40usize);
            let r = rng.gen_range(0..m.min(n) + 1);
            let (u, v) = decaying_factors(m, n, r, 1000 + case);
            let s = Skeleton::from_factors(&u, &v);
            let what = format!("case {case}: {m}x{n} rank {r}");
            assert_eq!((s.rank(), s.shape()), (r, (m, n)), "{what}");
            assert_eq!(s.stored_elements(), r * (m + n - r), "{what}");
            assert_eq!(s.index_bytes(), if r == 0 { 0 } else { n }, "{what}");
            assert!(max_abs_x(&s) <= 2.0, "{what}: max|X| {}", max_abs_x(&s));
            let mut seen: Vec<usize> = s.perm().collect();
            seen.sort_unstable();
            if r > 0 {
                assert_eq!(seen, (0..n).collect::<Vec<_>>(), "{what}");
            }
            let want = gemm_conj_transpose_right(&u, &v);
            let err = s.factors().to_dense().sub(&want).fro_norm();
            assert!(
                err <= 8.0 * f32::EPSILON * want.fro_norm(),
                "{what}: {err} vs {}",
                want.fro_norm()
            );
        }
    }

    /// The block-fused products against the `(C, W)` pair on
    /// `seismic_la::blas`, forward and adjoint, with the adjoint dot test:
    /// ranks 0, 1, `n − 1` and every column-block tail, `m < n`, `m > n`,
    /// and `X` parts of every length modulo the four dot lanes.
    #[test]
    fn fused_products_match_the_factor_pair() {
        use seismic_la::blas::{dotc, nrm2};
        let mut rng = ChaCha8Rng::seed_from_u64(405);
        let mut vector = |n: usize| Matrix::<C32>::random_normal(n, 1, &mut rng).into_vec();
        let dist = |a: &[C32], b: &[C32]| {
            let d: Vec<C32> = a.iter().zip(b).map(|(p, q)| *p - *q).collect();
            nrm2(&d)
        };
        let shapes = [(9, 7), (7, 12), (16, 16), (5, 2), (3, 40), (33, 19), (1, 6)];
        for (case, &(m, n)) in shapes.iter().enumerate() {
            for r in (0..=n.min(m)).filter(|&r| r < 8 || r + 1 >= n) {
                let (u, v) = decaying_factors(m, n, r, 2000 + case as u64);
                let s = Skeleton::from_factors(&u, &v);
                let pair = s.factors();
                let norm = pair.to_dense().fro_norm();
                let (x, y) = (vector(n), vector(m));
                let what = format!("{m}x{n} rank {r}");

                let mut scratch = vec![CZERO; 2 * n];
                let (mut got, mut want) = (vec![CZERO; m], vec![CZERO; m]);
                s.apply_acc_fast(&x, &mut scratch, &mut got);
                pair.apply_acc(&x, &mut want);
                assert!(
                    dist(&got, &want) <= 1e-5 * norm * nrm2(&x),
                    "{what}: forward"
                );
                let ax = got;

                let mut ys = vec![CZERO; m];
                crate::fastpath::swap_re_im(&y, &mut ys);
                let (mut got, mut want) = (vec![CZERO; n], vec![CZERO; n]);
                s.apply_adjoint_acc_fast(&y, &ys, &mut scratch, &mut got);
                pair.apply_adjoint_acc(&y, &mut want);
                assert!(
                    dist(&got, &want) <= 1e-5 * norm * nrm2(&y),
                    "{what}: adjoint"
                );

                let (lhs, rhs) = (dotc(&y, &ax), dotc(&got, &x));
                assert!(
                    (lhs - rhs).abs() <= 1e-4 * norm * nrm2(&x) * nrm2(&y),
                    "{what}: {lhs} vs {rhs}"
                );
            }
        }
    }

    /// A Kahan matrix with graded columns defeats column pivoting — no
    /// column is ever exchanged — while `R₁₁⁻¹` grows like `(1+c)^r`; one
    /// more column along its last row then reads `|T| ≈ 3.5` against the
    /// first pivot. The refinement must exchange it in, and leaves
    /// `|X| ≤ 2` and the same product.
    #[test]
    fn refinement_swaps_when_pivoting_leaves_a_large_entry() {
        let r = 6;
        let (c, s) = (0.6f64, 0.8f64);
        let vh = Matrix::<C64>::from_fn(r, r + 1, |i, j| {
            let grade = 0.999f64.powi(j as i32);
            let v = match (j == r, i.cmp(&j)) {
                (true, _) if i == r - 1 => 0.9 * s.powi(r as i32 - 1),
                (true, _) => 0.0,
                (false, std::cmp::Ordering::Equal) => grade * s.powi(i as i32),
                (false, std::cmp::Ordering::Less) => -c * grade * s.powi(i as i32),
                (false, std::cmp::Ordering::Greater) => 0.0,
            };
            C64::new(v, 0.0)
        });
        let v = Matrix::<C32>::from_fn(r + 1, r, |i, j| vh[(j, i)].conj().narrow());
        let (mut perm, mut x) = pivot_and_solve(&v);
        assert_eq!(perm, (0..=r).collect::<Vec<_>>(), "Kahan: no pivoting");
        let before = x.as_slice().iter().map(|z| z.abs()).fold(0.0, f64::max);
        assert!(before > 2.0, "max|X| {before}");
        refine(&mut x, &mut perm);
        assert_ne!(perm, (0..=r).collect::<Vec<_>>(), "at least one swap");
        let after = x.as_slice().iter().map(|z| z.abs()).fold(0.0, f64::max);
        assert!(after <= 2.0, "max|X| {after}");

        let mut rng = ChaCha8Rng::seed_from_u64(402);
        let u = Matrix::<C32>::random_normal(9, r, &mut rng);
        let sk = Skeleton::from_factors(&u, &v);
        assert!(max_abs_x(&sk) <= 2.0);
        let want = gemm_conj_transpose_right(&u, &v);
        let err = sk.factors().to_dense().sub(&want).fro_norm();
        assert!(err <= 8.0 * f32::EPSILON * want.fro_norm(), "{err}");
    }

    /// A right factor with a zero column has no well-conditioned `r × r`
    /// row set, but pivoting still bounds `X` and the product is the
    /// pair's; an all-zero right factor leaves nothing to store.
    #[test]
    fn rank_deficient_right_factors_keep_the_product() {
        let mut rng = ChaCha8Rng::seed_from_u64(403);
        let u = Matrix::<C32>::random_normal(7, 3, &mut rng);
        let mut v = Matrix::<C32>::random_normal(5, 3, &mut rng);
        for e in v.col_mut(1) {
            *e = CZERO;
        }
        let s = Skeleton::from_factors(&u, &v);
        assert!(s.rank() <= 3 && max_abs_x(&s) <= 2.0);
        let want = gemm_conj_transpose_right(&u, &v);
        let err = s.factors().to_dense().sub(&want).fro_norm();
        assert!(err <= 8.0 * f32::EPSILON * want.fro_norm(), "{err}");

        let s = Skeleton::from_factors(&u, &Matrix::zeros(5, 3));
        assert_eq!((s.rank(), s.shape(), s.index_bytes()), (0, (7, 5), 0));
    }

    /// More than 256 columns: the indices no longer fit a byte each.
    #[test]
    fn wide_tiles_store_word_indices() {
        let (u, v) = decaying_factors(4, 300, 2, 404);
        let s = Skeleton::from_factors(&u, &v);
        assert_eq!(s.index_bytes(), 300 * std::mem::size_of::<usize>());
        let want = gemm_conj_transpose_right(&u, &v);
        let err = s.factors().to_dense().sub(&want).fro_norm();
        assert!(err <= 8.0 * f32::EPSILON * want.fro_norm(), "{err}");
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn new_rejects_a_repeated_index() {
        Skeleton::new(&Matrix::zeros(3, 1), &Matrix::zeros(2, 1), &[0, 2, 2]);
    }
}
