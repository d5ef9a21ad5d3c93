//! Standalone benchmark harness for the TLR-MVM / MDD / engine / wse-sim
//! stack. `README.md` explains the workloads and metrics; `main.rs` is
//! the command line.

pub mod cli;
pub mod host;
pub mod json;
pub mod metrics;
pub mod spans;
pub mod stats;
pub mod workloads;
