//! # seis-wave
//!
//! Synthetic seismic wavefield generation — the workspace's substitute for
//! the paper's 1.8 TB SEG/EAGE Overthrust ocean-bottom dataset:
//!
//! * [`velocity`] — layered velocity models with an Overthrust-like thrust
//!   wedge and a 300 m water column.
//! * [`wavelet`] — Ricker and flat-band source wavelets (§6.1's "flat
//!   wavelet up to 45 Hz").
//! * [`modeling`] — image-source frequency-domain Green's functions: the
//!   downgoing wavefield `P⁺` (direct + free-surface ghost + water-layer
//!   reverberations) and the true local reflectivity `R`.
//! * [`dataset`] — per-frequency kernel matrices plus ground-truth
//!   reflectivity and forward-modeled upgoing data for MDD experiments.
//!
//! The generated kernels are oscillatory, distance-decaying complex
//! matrices: exactly the data-sparsity class whose tile ranks collapse
//! after Hilbert reordering, which is all the TLR algebra downstream sees.

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

pub mod dataset;
pub mod fdtd;
pub mod modeling;
pub mod time_domain;
pub mod velocity;
pub mod wavelet;

pub use dataset::{DatasetConfig, FrequencySlice, SyntheticDataset};
pub use fdtd::{first_break, simulate, FdTrace, FdtdConfig, VelocitySlice};
pub use modeling::{
    downgoing_matrix, downgoing_stack, reflectivity_column, DowngoingStack, ModelingConfig,
};
pub use time_domain::{downgoing_trace, peak_sample, GatherConfig};
pub use velocity::{Reflector, VelocityModel};
pub use wavelet::{flat_band_spectrum, ricker};
