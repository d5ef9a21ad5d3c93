//! # wse-sim
//!
//! A functional and performance simulator of Cerebras CS-2 wafer-scale
//! systems, scoped to what the SC '23 TLR-MVM paper exercises:
//!
//! * [`machine`] — the CS-2 model: 757×996 fabric (750×994 usable PEs),
//!   48 kB SRAM per PE in 8 banks, 850 MHz, 2×64-bit reads + 1 write per
//!   cycle (§5.2, §6.5), plus cluster (Condor Galaxy) scaling.
//! * [`sram`] — bank-aware per-PE memory planning with the alignment rule
//!   that makes dual-bank fmac reads possible.
//! * [`cycles`] — the calibrated cycle model
//!   (`m·n + 13·n + 425` per real MVM), validated against the paper's
//!   Tables 2–5 and Fig. 14.
//! * [`workload`] — stacked-rank workload descriptions, measured from real
//!   [`tlr_mvm::TlrMatrix`] data or synthesized by a [`RankModel`]
//!   calibrated to the paper's dataset, plus the §6.7 stack-width rule.
//! * [`placement`] — shard placement under both strong-scaling
//!   strategies with occupancy/bandwidth/PFlop-rate metrics.
//! * [`exec`] — functional execution of rank chunks as virtual PEs (the
//!   layout's own chunk kernel + host reduction, with the cycle model),
//!   proving the mapping computes the same answer as the host TLR-MVM.
//! * [`verify`] — static plan verification: every SRAM/PE/fabric bound
//!   checked against a plan before placement, reported as structured
//!   diagnostics (rule id, location).
//! * [`shards`] — explicit shard assignment with per-system statistics.
//! * [`io`] — the §6.6 host-link / double-buffering analysis.
//! * [`roofline`] — the machine descriptors of Figs. 15–16.
//! * [`energy`] — the §7.6 power model (16 kW/system, GFlop/s/W).

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

pub mod cycles;
pub mod energy;
pub mod exec;
pub mod io;
pub mod machine;
pub mod placement;
pub mod roofline;
pub mod shards;
pub mod sram;
pub mod verify;
pub mod workload;

pub use cycles::{pe_cost, strategy1_phase_costs, strategy1_tasks, MvmTask, PeCost};
pub use energy::{energy_report, energy_total_pj, EnergyReport};
pub use exec::{execute_chunks, ExecResult};
pub use io::{io_report, HostLink, IoReport};
pub use machine::{Cluster, Cs2Config};
pub use placement::{constant_size_bandwidth, place, PlaceError, PlacementReport, Strategy};
pub use roofline::{constant_rank_estimates, fig15_machines, fig16_machines, MachineDescriptor};
pub use shards::{assign_shards, ShardAssignment, ShardStats};
pub use sram::{plan_strategy1_pe, plan_strategy2_pe, SramError, SramPlan, SramPlanner};
pub use verify::{verify_plan, Diagnostic, VerifyReport};
pub use workload::{choose_stack_width, paper_total_rank, RankModel, Workload};
