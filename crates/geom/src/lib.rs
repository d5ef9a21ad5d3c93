//! # seismic-geom
//!
//! Acquisition geometry and the distance-aware reordering machinery of the
//! SC'23 TLR-MVM paper:
//!
//! * [`grid`] — source/receiver station grids and the ocean-bottom
//!   acquisition of the paper's §6.1 numerical example (plus scaled
//!   variants for laptop-scale runs).
//! * [`curves`] — Hilbert and Morton space-filling curves.
//! * [`reorder`] — station permutations per ordering strategy and the
//!   block-locality metric that predicts tile rank behaviour.

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

pub mod curves;
pub mod grid;
pub mod reorder;

pub use curves::{
    gilbert_order, hilbert_d2xy, hilbert_xy2d, morton_decode, morton_encode, order_for,
};
pub use grid::{Acquisition, Point3, StationGrid};
pub use reorder::{mean_block_diameter, station_permutation, Ordering, Permutation};
