//! Static verification of a TLR-MVM placement plan — every hard machine
//! bound checked *before* anything is placed or executed.
//!
//! [`place`](crate::placement::place) discovers infeasible plans by
//! failing mid-placement. This module re-derives every such bound from
//! the same arithmetic ([`sram`](crate::sram) planners,
//! [`chunk_census`](crate::workload::Workload::chunk_census)) and
//! reports *all* violations at once as structured diagnostics, so a bad
//! configuration is rejected with a rule id and location instead of a
//! panic deep in a simulated run.
//!
//! Soundness contract (tested by proptest): a plan this module accepts
//! is also accepted by [`place`](crate::placement::place) — the verifier
//! checks a superset of the runtime feasibility conditions.

use std::fmt;

use tlr_mvm::cast::to_u64;

use crate::machine::Cluster;
use crate::placement::Strategy;
use crate::sram::{
    plan_strategy1_pe, plan_strategy2_pe, strategy1_image_bytes, strategy1_vector_bytes,
};
use crate::workload::Workload;

/// One violated bound of a plan: every finding is an error.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Stable rule id (`WV01`…`WV07`).
    pub rule: &'static str,
    /// Where the violation is: a plan coordinate such as
    /// `chunk(cl=25, w=64)`.
    pub location: String,
    /// Human-readable explanation with the numbers that matter.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error [{}] {}: {}",
            self.rule, self.location, self.message
        )
    }
}

/// Stack width is zero or exceeds the strategy-1 bases-budget bound.
pub const RULE_STACK_WIDTH: &str = "WV01";
/// A chunk's base matrices overflow the per-PE SRAM bases budget.
pub const RULE_SRAM_BUDGET: &str = "WV02";
/// Working vectors + code do not fit the per-PE runtime reservation.
pub const RULE_RUNTIME_RESERVATION: &str = "WV03";
/// The plan needs more PEs than the cluster has.
pub const RULE_PE_COUNT: &str = "WV04";
/// The full chunk SRAM image exceeds the PE's SRAM.
pub const RULE_CHUNK_LAYOUT: &str = "WV05";
/// The machine description itself is inconsistent.
pub const RULE_MACHINE_GEOMETRY: &str = "WV06";
/// The workload's shape arrays are inconsistent.
pub const RULE_WORKLOAD_SHAPE: &str = "WV07";

/// Conservative per-PE code + stack estimate, matching the slack the
/// SRAM tests demand of the runtime reservation.
const CODE_BYTES_ESTIMATE: usize = 8 * 1024;

/// DSR file size of one PE.
const NUM_DSRS: usize = 8;
/// DSR slots the fused strategy-1 kernel configures: the real and
/// imaginary streams of `V`, `x` (V phase) and `U`, `y` (U phase).
const FUSED_KERNEL_DSRS: usize = 8;
/// DSR slots one scattered real MVM needs (matrix, x, y streams).
const SCATTER_KERNEL_DSRS: usize = 3;
// Neither kernel's DSR demand depends on the plan, so WV05 checks it
// here, at compile time.
const _: () = assert!(FUSED_KERNEL_DSRS <= NUM_DSRS && SCATTER_KERNEL_DSRS <= NUM_DSRS);

/// The verifier's output: every violated bound, not just the first.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// All findings, in rule order per check pass.
    pub diagnostics: Vec<Diagnostic>,
}

impl VerifyReport {
    /// `true` when no bound is violated.
    pub fn is_ok(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `true` when some diagnostic carries the given rule id.
    pub fn has_rule(&self, rule: &str) -> bool {
        self.diagnostics.iter().any(|d| d.rule == rule)
    }

    fn error(&mut self, rule: &'static str, location: String, message: String) {
        self.diagnostics.push(Diagnostic {
            rule,
            location,
            message,
        });
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return write!(f, "plan verified: no violations");
        }
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Statically verify a `(workload, stack width, strategy, cluster)` plan
/// without placing or executing it.
///
/// Checks, in order: machine-description consistency (`WV06`), workload
/// shape invariants (`WV07`), stack-width bound (`WV01`), per-chunk SRAM
/// bases budget via the exact [`sram`](crate::sram) planners (`WV02`),
/// runtime-reservation accounting (`WV03`), the full chunk-image bound
/// (`WV05`), and the cluster PE budget (`WV04`).
///
/// ```
/// use wse_sim::{choose_stack_width, verify_plan, Cluster, RankModel, Strategy};
///
/// // The paper's nb=50, acc=1e-4 dataset on a 6-system cluster.
/// let model = RankModel::paper(50, 1e-4).expect("validated (nb, acc)");
/// let workload = model.generate();
/// let cluster = Cluster::new(6);
/// let w_max = cluster.cs2.max_stack_width(50);
/// let sw = choose_stack_width(&workload, cluster.total_pes() as u64, w_max);
/// let report = verify_plan(&workload, sw, Strategy::FusedSinglePe, &cluster);
/// assert!(report.is_ok(), "{report}");
///
/// // An absurd stack width is rejected with the WV01 rule id.
/// let bad = verify_plan(&workload, 10_000, Strategy::FusedSinglePe, &cluster);
/// assert!(!bad.is_ok() && bad.has_rule("WV01"));
/// ```
pub fn verify_plan(
    workload: &Workload,
    stack_width: usize,
    strategy: Strategy,
    cluster: &Cluster,
) -> VerifyReport {
    let mut report = VerifyReport::default();
    let cfg = &cluster.cs2;

    check_machine(cluster, &mut report);
    check_workload(workload, &mut report);

    // A malformed machine or workload makes the remaining arithmetic
    // meaningless (division by zero, bogus budgets) — stop here.
    if !report.is_ok() {
        return report;
    }

    let nb = workload.nb;

    // WV01 — stack-width bounds.
    if stack_width == 0 {
        report.error(
            RULE_STACK_WIDTH,
            "plan".to_string(),
            "stack width must be at least 1".to_string(),
        );
        return report;
    }
    if strategy == Strategy::FusedSinglePe && stack_width > cfg.max_stack_width(nb) {
        report.error(
            RULE_STACK_WIDTH,
            "plan".to_string(),
            format!(
                "stack width {stack_width} exceeds the bases-budget bound {} for nb={nb}",
                cfg.max_stack_width(nb)
            ),
        );
    }

    // Per chunk shape: SRAM budgets and layout bounds. The census
    // collapses millions of chunks to a handful of (cl, w) shapes, so
    // this stays cheap for paper-scale workloads.
    let census = workload.chunk_census(stack_width);
    let mut pes_used: u64 = 0;
    for (&(cl, w), &count) in &census {
        let loc = format!("chunk(cl={cl}, w={w})");
        match strategy {
            Strategy::FusedSinglePe => {
                pes_used += count;
                // WV02 — bases budget, same arithmetic placement uses.
                if let Err(e) = plan_strategy1_pe(cfg, nb, cl, w) {
                    report.error(RULE_SRAM_BUDGET, loc.clone(), e.to_string());
                }
                // WV03 — the split vectors + code live in the reservation.
                let vectors = strategy1_vector_bytes(nb, cl, w);
                if vectors + CODE_BYTES_ESTIMATE > cfg.runtime_reserved_bytes {
                    report.error(
                        RULE_RUNTIME_RESERVATION,
                        loc.clone(),
                        format!(
                            "working vectors ({vectors} B) + code estimate \
                             ({CODE_BYTES_ESTIMATE} B) exceed the {} B runtime reservation",
                            cfg.runtime_reserved_bytes
                        ),
                    );
                }
                // WV05 — the chunk's full SRAM image: bases and vectors.
                let image = strategy1_image_bytes(nb, cl, w);
                if image > cfg.sram_bytes {
                    report.error(
                        RULE_CHUNK_LAYOUT,
                        loc,
                        format!(
                            "chunk SRAM image {image} B exceeds the {} B PE SRAM",
                            cfg.sram_bytes
                        ),
                    );
                }
            }
            Strategy::ScatterEightPes => {
                pes_used += 8 * count;
                // WV02 — each of the eight PEs holds one real base matrix
                // plus its vectors; check both shapes like placement does.
                if let Err(e) = plan_strategy2_pe(cfg, w, cl) {
                    report.error(RULE_SRAM_BUDGET, loc.clone(), format!("V-side: {e}"));
                }
                if let Err(e) = plan_strategy2_pe(cfg, nb, w) {
                    report.error(RULE_SRAM_BUDGET, loc.clone(), format!("U-side: {e}"));
                }
                // WV03 — scattered PEs keep only code in the reservation.
                if CODE_BYTES_ESTIMATE > cfg.runtime_reserved_bytes {
                    report.error(
                        RULE_RUNTIME_RESERVATION,
                        loc,
                        format!(
                            "code estimate {CODE_BYTES_ESTIMATE} B exceeds the {} B \
                             runtime reservation",
                            cfg.runtime_reserved_bytes
                        ),
                    );
                }
            }
        }
    }

    // WV04 — cluster PE budget, same comparison placement makes.
    let pes_available = to_u64(cluster.total_pes());
    if pes_used > pes_available {
        report.error(
            RULE_PE_COUNT,
            "plan".to_string(),
            format!("placement needs {pes_used} PEs, cluster has {pes_available}"),
        );
    }

    report
}

/// WV06 — the machine description must be internally consistent before
/// any budget derived from it means anything.
fn check_machine(cluster: &Cluster, report: &mut VerifyReport) {
    let cfg = &cluster.cs2;
    let loc = "machine".to_string();
    if cluster.systems == 0 {
        report.error(
            RULE_MACHINE_GEOMETRY,
            loc.clone(),
            "cluster has zero systems".into(),
        );
    }
    if cfg.usable_rows > cfg.grid_rows || cfg.usable_cols > cfg.grid_cols {
        report.error(
            RULE_MACHINE_GEOMETRY,
            loc.clone(),
            format!(
                "usable fabric {}x{} exceeds physical grid {}x{}",
                cfg.usable_rows, cfg.usable_cols, cfg.grid_rows, cfg.grid_cols
            ),
        );
    }
    if cfg.usable_rows == 0 || cfg.usable_cols == 0 {
        report.error(RULE_MACHINE_GEOMETRY, loc.clone(), "no usable PEs".into());
    }
    if cfg.sram_banks == 0 || !cfg.sram_bytes.is_multiple_of(cfg.sram_banks) {
        report.error(
            RULE_MACHINE_GEOMETRY,
            loc.clone(),
            format!(
                "SRAM of {} B does not divide into {} equal banks",
                cfg.sram_bytes, cfg.sram_banks
            ),
        );
    }
    if cfg.runtime_reserved_bytes >= cfg.sram_bytes {
        report.error(
            RULE_MACHINE_GEOMETRY,
            loc.clone(),
            format!(
                "runtime reservation {} B leaves no bases budget in {} B SRAM",
                cfg.runtime_reserved_bytes, cfg.sram_bytes
            ),
        );
    }
    if !(cfg.clock_hz.is_finite() && cfg.clock_hz > 0.0) {
        report.error(
            RULE_MACHINE_GEOMETRY,
            loc,
            format!("clock must be finite and positive, got {} Hz", cfg.clock_hz),
        );
    }
}

/// WV07 — the workload's parallel arrays must agree on shape.
fn check_workload(workload: &Workload, report: &mut VerifyReport) {
    let loc = "workload".to_string();
    if workload.nb == 0 {
        report.error(
            RULE_WORKLOAD_SHAPE,
            loc.clone(),
            "tile size nb is zero".into(),
        );
    }
    if workload.col_widths.len() != workload.cols_per_freq {
        report.error(
            RULE_WORKLOAD_SHAPE,
            loc.clone(),
            format!(
                "col_widths has {} entries for {} tile columns",
                workload.col_widths.len(),
                workload.cols_per_freq
            ),
        );
    }
    if workload.col_ranks.len() != workload.n_freqs * workload.cols_per_freq {
        report.error(
            RULE_WORKLOAD_SHAPE,
            loc.clone(),
            format!(
                "col_ranks has {} entries for {} frequencies x {} columns",
                workload.col_ranks.len(),
                workload.n_freqs,
                workload.cols_per_freq
            ),
        );
    }
    for (j, &cl) in workload.col_widths.iter().enumerate() {
        if cl == 0 || cl > workload.nb {
            report.error(
                RULE_WORKLOAD_SHAPE,
                format!("workload.col_widths[{j}]"),
                format!("column width {cl} outside 1..={}", workload.nb),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Cs2Config;
    use crate::placement::place;
    use crate::workload::{choose_stack_width, RankModel};

    fn paper_workload(nb: usize, acc: f32) -> Workload {
        RankModel::paper(nb, acc).unwrap().generate()
    }

    #[test]
    fn paper_configs_verify_clean() {
        let cluster = Cluster::new(6);
        let cfg = Cs2Config::default();
        for (nb, acc) in [
            (25usize, 1e-4f32),
            (50, 1e-4),
            (70, 1e-4),
            (50, 3e-4),
            (70, 3e-4),
        ] {
            let w = paper_workload(nb, acc);
            let sw = choose_stack_width(&w, to_u64(cluster.total_pes()), cfg.max_stack_width(nb));
            let rep = verify_plan(&w, sw, Strategy::FusedSinglePe, &cluster);
            assert!(rep.is_ok(), "nb={nb} acc={acc}:\n{rep}");
        }
    }

    // The two runtime-failure cases from `placement::tests`, rejected
    // statically with the matching rule ids.

    #[test]
    fn not_enough_pes_rejected_statically() {
        let cluster = Cluster::new(1);
        let w = paper_workload(25, 1e-4);
        let rep = verify_plan(&w, 64, Strategy::FusedSinglePe, &cluster);
        assert!(!rep.is_ok());
        assert!(rep.has_rule(RULE_PE_COUNT), "expected WV04:\n{rep}");
        // Agreement with the runtime path.
        assert!(place(&w, 64, Strategy::FusedSinglePe, &cluster).is_err());
    }

    #[test]
    fn sram_overflow_rejected_statically() {
        let cluster = Cluster::new(48);
        let w = paper_workload(70, 1e-4);
        let rep = verify_plan(&w, 60, Strategy::FusedSinglePe, &cluster);
        assert!(!rep.is_ok());
        assert!(rep.has_rule(RULE_SRAM_BUDGET), "expected WV02:\n{rep}");
        // Width 60 also breaches the nb=70 stack-width bound (23).
        assert!(rep.has_rule(RULE_STACK_WIDTH), "expected WV01:\n{rep}");
        assert!(place(&w, 60, Strategy::FusedSinglePe, &cluster).is_err());
    }

    #[test]
    fn zero_stack_width_rejected() {
        let cluster = Cluster::new(1);
        let w = paper_workload(25, 1e-4);
        let rep = verify_plan(&w, 0, Strategy::FusedSinglePe, &cluster);
        assert!(rep.has_rule(RULE_STACK_WIDTH));
    }

    #[test]
    fn malformed_machine_rejected() {
        let mut cluster = Cluster::new(1);
        cluster.cs2.usable_rows = cluster.cs2.grid_rows + 1;
        let w = paper_workload(25, 1e-4);
        let rep = verify_plan(&w, 64, Strategy::FusedSinglePe, &cluster);
        assert!(rep.has_rule(RULE_MACHINE_GEOMETRY));
    }

    #[test]
    fn malformed_workload_rejected() {
        let cluster = Cluster::new(6);
        let mut w = paper_workload(25, 1e-4);
        w.col_ranks.pop();
        let rep = verify_plan(&w, 64, Strategy::FusedSinglePe, &cluster);
        assert!(rep.has_rule(RULE_WORKLOAD_SHAPE));
    }

    #[test]
    fn scatter_strategy_verifies_on_48_shards() {
        let cluster = Cluster::new(48);
        for (nb, sw) in [(25usize, 64usize), (50, 32), (70, 23)] {
            let w = paper_workload(nb, 1e-4);
            let rep = verify_plan(&w, sw, Strategy::ScatterEightPes, &cluster);
            assert!(rep.is_ok(), "nb={nb}:\n{rep}");
        }
    }

    #[test]
    fn diagnostics_render_with_rule_and_location() {
        let cluster = Cluster::new(48);
        let w = paper_workload(70, 1e-4);
        let rep = verify_plan(&w, 60, Strategy::FusedSinglePe, &cluster);
        let text = rep.to_string();
        assert!(text.contains("WV02"), "{text}");
        assert!(text.contains("chunk(cl="), "{text}");
        assert!(text.contains("error"), "{text}");
    }
}
