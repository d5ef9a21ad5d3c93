//! # seismic-la
//!
//! Self-contained dense complex linear algebra for the `tlr-mvm-rs`
//! workspace — no BLAS/LAPACK bindings, everything implemented in Rust:
//!
//! * [`scalar`] — `f32`/`f64`/[`C32`]/[`C64`] under one [`Scalar`] trait.
//! * [`dense`] — column-major [`Matrix`] storage.
//! * [`blas`] — gemv/gemm/axpy/dot/norm kernels.
//! * [`mod@qr`] — Householder QR and column-pivoted rank-revealing QR.
//! * [`svd`] — one-sided Jacobi SVD (real & complex), and tolerance
//!   truncation that runs it on the RRQR factor only.
//! * [`rsvd`] — randomized SVD (Halko–Martinsson–Tropp).
//! * [`lowrank`] — the `A ≈ U Vᴴ` factor pair shared by all backends.
//! * [`sync`] — the poison-recovering `lock` every mutex in the workspace
//!   is taken through.
//!
//! These are three of the four algebraic compression methods the SC'23
//! paper *"Scaling the Memory Wall for Multi-Dimensional Seismic Processing
//! with Algebraic Compression on Cerebras CS-2 Systems"* lists for its TLR
//! pre-processing step (rank-revealing QR, randomized SVD and SVD; not
//! ACA).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::float_cmp,
        clippy::allow_attributes_without_reason
    )
)]
#![cfg_attr(not(test), deny(clippy::as_conversions))]

pub mod blas;
pub mod dense;
pub mod lowrank;
pub mod qr;
pub mod rsvd;
pub mod scalar;
pub mod svd;
pub mod sync;

pub use dense::Matrix;
pub use lowrank::LowRank;
pub use qr::{pivoted_qr, pivoted_qr_until, qr, PivotedQr, Qr, RankStop};
pub use rsvd::{randomized_svd, rsvd_compress_adaptive, RsvdOptions};
pub use scalar::{c32, c64, exactly_zero_f32, exactly_zero_f64, Complex, Real, Scalar, C32, C64};
pub use svd::{jacobi_svd, svd_compress, svd_compress_with_tail, svd_truncate, Svd, TruncatedSvd};
