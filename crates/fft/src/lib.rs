//! # seismic-fft
//!
//! Fast Fourier transforms for the `tlr-mvm-rs` workspace, implemented from
//! scratch (no external FFT dependency):
//!
//! * [`plan`] — reusable complex FFT plans: iterative radix-2 Cooley-Tukey
//!   for power-of-two lengths, Bluestein's chirp-z for everything else.
//! * [`real`] — the real↔Hermitian transform pair used on seismic traces.
//! * [`batch`] — rayon-parallel batched transforms over many traces and
//!   the trace-major ↔ frequency-major reshapes that feed the per-frequency
//!   matrix-vector products of the MDC operator (`y = Fᴴ K F x`).

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

pub mod batch;
pub mod plan;
pub mod real;

pub use batch::{
    forward_traces, frequency_slices_to_traces, inverse_traces, traces_to_frequency_slices,
};
pub use plan::{Direction, FftPlan};
pub use real::RealFft;
