//! # tlr-mvm
//!
//! Tile low-rank matrix-vector multiplication — the primary contribution
//! of *"Scaling the 'Memory Wall' for Multi-Dimensional Seismic Processing
//! with Algebraic Compression on Cerebras CS-2 Systems"* (SC '23):
//!
//! * [`tiling`] — uniform `nb × nb` tile grids with ragged edges.
//! * [`mod@compress`] — per-tile algebraic compression (SVD / RRQR /
//!   randomized SVD) at a tile-wise accuracy threshold `acc`.
//! * [`matrix`] — the [`TlrMatrix`] with apply/adjoint and storage stats.
//! * [`skeleton`] — the stored form of an approximated tile,
//!   `C·[I Xᴴ]·Πᵀ`: `r²` fewer words than the `U·Vᴴ` pair it equals.
//! * [`layouts`] — the classic three-phase pipeline (V-batch → shuffle →
//!   U-batch, paper Figs. 4–7) and the CS-2 communication-avoiding layout
//!   (paper Fig. 9): one chunk kernel plus host reduction, run at one
//!   chunk per tile column or at the stack width that defines per-PE work
//!   units. Both are forward-only views of the matrix's tiles (index
//!   tables, no base copied); the matrix's own apply and adjoint are the
//!   operator the solver runs.
//! * [`accounting`] — the paper's relative/absolute byte formulas and flop
//!   counts (§6.6, §7.1), and the §8 TLR-MMM cost model.
//! * [`ops`] — the [`LinearOperator`] abstraction used by the MDD solver.
//! * [`json`] — the workspace's one JSON value, writer and parser; every
//!   report, baseline and dump is built on it.
//! * [`trace`] — zero-cost-when-disabled phase spans and flop/byte
//!   counters; the runtime accounting behind `repro --trace`.
//! * [`telemetry`] — serving-grade observability: the engine's flight
//!   recorder (DESIGN.md §14).
//! * [`accuracy`] — the accuracy observatory: per-tile compression
//!   grids with exact byte/rank reconciliation and a sampled-probe NMSE
//!   estimator (DESIGN.md §16).
//!
//! ## Quick start
//!
//! ```
//! use seismic_la::{Matrix, C32};
//! use tlr_mvm::{compress, CompressionConfig, CompressionMethod, ToleranceMode};
//!
//! // A smooth oscillatory kernel — the structure seismic frequency
//! // matrices exhibit after Hilbert reordering.
//! let a = Matrix::from_fn(128, 96, |i, j| {
//!     let d = i as f32 / 128.0 - j as f32 / 96.0;
//!     let r = (d * d + 0.05).sqrt();
//!     C32::from_polar(1.0 / (1.0 + 2.0 * r), -8.0 * r)
//! });
//! let tlr = compress(&a, CompressionConfig {
//!     nb: 32,
//!     acc: 1e-3,
//!     method: CompressionMethod::Svd,
//!     mode: ToleranceMode::RelativeTile,
//! });
//! assert!(tlr.compression_ratio() > 1.5);
//! let x = vec![C32::new(1.0, 0.0); 96];
//! let y = tlr.apply(&x);
//! assert_eq!(y.len(), 128);
//! ```

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

pub mod accounting;
pub mod accuracy;
pub mod compress;
pub mod fastpath;
pub mod invariant;
pub mod json;
pub mod layouts;
pub mod matrix;
pub mod ops;
pub mod precision;
pub mod skeleton;
pub mod telemetry;
pub mod tiling;
pub mod trace;

pub use accounting::{
    absolute_bytes, mvm_flops, relative_bytes, three_phase_cost, tlr_mmm_cost, tlr_mvm_cost,
    ThreePhaseCost, TlrMvmCost,
};
pub use accuracy::{probe_nmse, verify_compression_grids, ProbeEstimate};
pub use compress::{
    compress, compress_blocks, compress_tile, CompressionConfig, CompressionMethod, ToleranceMode,
};
pub use fastpath::{gather, gemv_acc_fast, swap_re_im};
pub use layouts::{ChunkRun, ColumnStack, CommAvoiding, RankChunk, ThreePhase, ThreePhaseScratch};
pub use matrix::{DenseView, TileRef, TlrMatrix};
pub use ops::LinearOperator;
pub use skeleton::Skeleton;
pub use tiling::Tiling;
