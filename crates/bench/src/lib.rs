//! # seismic-bench
//!
//! The reproduction harness: every table and figure of the paper has a
//! generator here, invoked by the `repro` binary (`repro --help`).
//!
//! * [`mdd_experiments`] — Fig. 11 / 12 / 13 on the laptop-scale
//!   synthetic dataset.
//! * [`wse_experiments`] — Fig. 14, Tables 1–5, the §7.6 power study, and
//!   the Fig. 15/16 roofline data through the CS-2 simulator at the
//!   paper's full scale.
//! * [`mmm_experiments`] — the §8 TLR-MMM extension: simultaneous
//!   virtual sources and the re-exacerbated memory wall.
//! * [`report`] — text tables and JSON output (`target/repro/*.json`).
//! * [`cli`] — the `repro` subcommand table the help text, `all` list,
//!   and dispatcher self-check are generated from.
//! * [`timeline`] — Chrome Trace Event / Perfetto export of trace
//!   reports (`repro <exp> --timeline`).
//! * [`acc_experiments`] — the accuracy observatory: the `repro
//!   acc-report` NMSE-vs-compression sweep, its self-verifying
//!   `acc_report.json` artifact, and the `xtask accgate` comparison
//!   against the committed `BENCH_accuracy.json` (DESIGN.md §16).

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

pub mod acc_experiments;
pub mod cli;
pub mod mdd_experiments;
pub mod mmm_experiments;
pub mod report;
pub mod timeline;
pub mod wse_experiments;

#[cfg(test)]
pub(crate) mod test_sync {
    //! `tlr_mvm::trace` is a process-global collector: while one test
    //! has it enabled, every other test of this binary that reaches
    //! instrumented code (`compress`, a stacked apply, `tlr_mmm`,
    //! `execute_chunks`, LSQR, the engine) records into
    //! the same window. Every test that reaches such code takes this
    //! lock first — not only the ones that reset or enable the
    //! collector. A test on synthetic reports or pure helpers needs none.
    use std::sync::{Mutex, MutexGuard};

    static TRACE_LOCK: Mutex<()> = Mutex::new(());

    pub fn trace_lock() -> MutexGuard<'static, ()> {
        seismic_la::sync::lock(&TRACE_LOCK)
    }
}
