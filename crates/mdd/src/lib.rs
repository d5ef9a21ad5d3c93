//! # seismic-mdd
//!
//! Multi-Dimensional Deconvolution — the inverse problem the paper's
//! TLR-MVM kernels accelerate (Eqn. 1–2, §6.2–6.4):
//!
//! * [`mod@lsqr`] — operator-based complex LSQR (Paige & Saunders), the
//!   paper's iterative scheme (30 iterations).
//! * [`mdc`] — the per-frequency MDC operator stack `y = Fᴴ K F x` plus
//!   frequency→time conversion of station gathers. Its sweep — one task
//!   per frequency, tile-fused on the stored tiles — is the one the solver,
//!   the engine and every benchmark run.
//! * [`engine`] — the batched multi-frequency operator
//!   ([`FrequencyOperators`], the [`MdcOperator`] over a compressed stack)
//!   and the async serving layer: work-stealing scheduler, LRU operator
//!   cache, backpressure, per-stage latency histograms (DESIGN.md §13).
//! * [`multi`] — many virtual sources, one independent inversion each,
//!   off one shared compressed stack.
//! * [`driver`] — the full pipeline: Hilbert reorder → TLR compress →
//!   adjoint (cross-correlation) and LSQR inversion → NMSE metrics.
//! * [`sections`] — Fig. 13's zero-offset panels (velocity model / full /
//!   upgoing / MDD-stacked) and the free-surface-multiple suppression
//!   measurement.
//! * [`metrics`] — NMSE, Fig. 12's % NMSE change and green/orange/red
//!   quality classification.

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

pub mod driver;
pub mod engine;
pub mod lsqr;
pub mod mdc;
pub mod metrics;
pub mod multi;
pub mod panels;
pub mod per_frequency;
pub mod sections;

pub use driver::{
    compress_dataset, compression_stats, run_mdd, run_mdd_with_operators, CompressionStats,
    MddConfig, MddRun,
};
pub use engine::{
    CacheStats, Engine, EngineConfig, EngineStats, FrequencyOperators, JobHandle, JobResult,
    JobSpec, OperatorCache, OperatorKey,
};
pub use lsqr::{lsqr, LsqrOptions, LsqrResult, StopReason};
pub use mdc::{freq_vectors_to_time_traces, MdcOperator};
pub use metrics::{classify, nmse, nmse_change_pct, window_energy, QualityRegion};
pub use multi::run_mdd_multi;
pub use panels::{gather_panel, write_panel_csv, PanelField};
pub use per_frequency::{compare_frequency_coupling, FrequencyCouplingResult};
pub use sections::{stack_traces, zero_offset_sections, ZeroOffsetSections};
