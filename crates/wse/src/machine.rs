//! The CS-2 machine model (paper §5.2, §6.5).

/// Static description of one Cerebras CS-2 system as the paper uses it.
#[derive(Clone, Copy, Debug)]
pub struct Cs2Config {
    /// Rows usable by the program (750 of the fabric's 757; the rest
    /// route data on/off wafer).
    pub usable_rows: usize,
    /// Columns usable by the program (994 of 996).
    pub usable_cols: usize,
    /// Clock frequency (850 MHz).
    pub clock_hz: f64,
    /// SRAM per PE (48 kB).
    pub sram_bytes: usize,
    /// Per-PE runtime reservation (code, buffers, alignment padding);
    /// what remains of SRAM is available for the stacked bases. The
    /// default reproduces the paper's Table 1 stack widths
    /// (`⌊25 800 / (16·nb)⌋` → 64/32/23 for nb = 25/50/70).
    pub runtime_reserved_bytes: usize,
    /// Extra cycles per MVM column (loop control, `x_j` load, DSR setup).
    pub col_overhead_cycles: u64,
    /// Fixed cycles per MVM launch.
    pub launch_overhead_cycles: u64,
    /// Idle power draw per system (W).
    pub idle_power_w: f64,
    /// Additional power at 100 % PE occupancy (W); calibrated so a busy
    /// TLR-MVM shard draws the paper's measured 16 kW (§7.6).
    pub active_power_w: f64,
}

impl Default for Cs2Config {
    fn default() -> Self {
        Self {
            usable_rows: 750,
            usable_cols: 994,
            clock_hz: 850.0e6,
            sram_bytes: 48 * 1024,
            runtime_reserved_bytes: 48 * 1024 - 25_800,
            // Calibrated jointly against the paper's Tables 2–5 cycle
            // counts and Fig. 14's 2 PB/s single-system relative-bandwidth
            // saturation (see wse-sim docs): cycles(m×n real MVM) =
            // m·n + 13·n + 425.
            col_overhead_cycles: 13,
            launch_overhead_cycles: 425,
            idle_power_w: 4_000.0,
            active_power_w: 12_200.0,
        }
    }
}

impl Cs2Config {
    /// Usable PEs per system (`750 × 994 = 745 500`).
    pub fn usable_pes(&self) -> usize {
        self.usable_rows * self.usable_cols
    }

    /// SRAM bytes available for stacked bases on one PE.
    pub fn bases_budget_bytes(&self) -> usize {
        self.sram_bytes.saturating_sub(self.runtime_reserved_bytes)
    }

    /// Largest stack width whose strategy-1 chunk (4 real FP32 base
    /// matrices, `16·nb·w` bytes total) fits the bases budget.
    pub fn max_stack_width(&self, nb: usize) -> usize {
        (self.bases_budget_bytes() / (16 * nb)).max(1)
    }

    /// Seconds for a given cycle count.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        tlr_mvm::cast::u64_to_f64(cycles) / self.clock_hz
    }
}

/// A cluster of identical CS-2 systems (Condor Galaxy scale: up to 48).
#[derive(Clone, Copy, Debug)]
pub struct Cluster {
    /// Per-system configuration.
    pub cs2: Cs2Config,
    /// Number of systems.
    pub systems: usize,
}

impl Cluster {
    /// A cluster of `systems` default CS-2s.
    pub fn new(systems: usize) -> Self {
        Self {
            cs2: Cs2Config::default(),
            systems,
        }
    }

    /// Total usable PEs across the cluster.
    pub fn total_pes(&self) -> usize {
        self.cs2.usable_pes() * self.systems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_pe_counts() {
        let c = Cs2Config::default();
        assert_eq!(c.usable_pes(), 745_500);
        // §1: 48 systems = 35 784 000 PEs.
        assert_eq!(Cluster::new(48).total_pes(), 35_784_000);
    }

    #[test]
    fn table1_stack_widths() {
        // §7.2, Table 1: nb=25 → 64, nb=50 → 32, nb=70 → 23.
        let c = Cs2Config::default();
        assert_eq!(c.max_stack_width(25), 64);
        assert_eq!(c.max_stack_width(50), 32);
        assert_eq!(c.max_stack_width(70), 23);
    }

    #[test]
    fn timing_conversion() {
        let c = Cs2Config::default();
        let t = c.cycles_to_seconds(850);
        assert!((t - 1e-6).abs() < 1e-15);
    }
}
