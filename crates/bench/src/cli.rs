//! The `repro` CLI's single source of truth: one table of subcommands
//! from which the help text, the `repro all` experiment list, and the
//! unknown-experiment error are all generated.
//!
//! The binary's dispatcher is validated against this table (`repro
//! --self-check` and the `repro_cli` integration tests), so a
//! subcommand cannot appear in `--help` without dispatching, or
//! dispatch without appearing in `--help` — the drift the old
//! hand-maintained usage string allowed.

/// One `repro` subcommand.
pub struct Subcommand {
    /// The name typed on the command line (and joined into error text).
    pub name: &'static str,
    /// One-line help blurb.
    pub blurb: &'static str,
    /// Whether `repro all` runs it. Measurement tools (perfbench,
    /// atlas-sweep, acc-report) stay out: their timings are
    /// only meaningful run on their own.
    pub in_all: bool,
}

/// Every subcommand, in the order `repro all` executes them (the
/// `in_all` rows) followed by the standalone measurement tools.
pub const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        name: "fig11",
        blurb: "MDD panels: adjoint vs inversion vs ground truth",
        in_all: true,
    },
    Subcommand {
        name: "fig12",
        blurb: "compression threshold vs MDD accuracy",
        in_all: true,
    },
    Subcommand {
        name: "fig13",
        blurb: "zero-offset sections and multiple suppression",
        in_all: true,
    },
    Subcommand {
        name: "fig14",
        blurb: "tile size vs memory bandwidth, one CS-2",
        in_all: true,
    },
    Subcommand {
        name: "table1",
        blurb: "CS-2 mapping: stack widths, PEs used, occupancy",
        in_all: true,
    },
    Subcommand {
        name: "table2",
        blurb: "worst cycle count / memory accesses",
        in_all: true,
    },
    Subcommand {
        name: "table3",
        blurb: "aggregate bandwidth on six shards",
        in_all: true,
    },
    Subcommand {
        name: "table4",
        blurb: "strong scaling, nb=25 acc=1e-4",
        in_all: true,
    },
    Subcommand {
        name: "table5",
        blurb: "48-shard strategy-2 runs, acc=1e-4",
        in_all: true,
    },
    Subcommand {
        name: "fig15",
        blurb: "roofline: six CS-2 vs vendor hardware",
        in_all: true,
    },
    Subcommand {
        name: "fig16",
        blurb: "roofline: Condor Galaxy vs Top-5",
        in_all: true,
    },
    Subcommand {
        name: "recon",
        blurb: "roofline reconciliation (% of peak)",
        in_all: true,
    },
    Subcommand {
        name: "power",
        blurb: "§7.6 energy assessment",
        in_all: true,
    },
    Subcommand {
        name: "mmm",
        blurb: "§8 TLR-MMM: simultaneous sources vs the memory wall",
        in_all: true,
    },
    Subcommand {
        name: "io",
        blurb: "§6.6 host link vs kernel time",
        in_all: true,
    },
    Subcommand {
        name: "appbench",
        blurb: "whole-application dense vs TLR MDD",
        in_all: true,
    },
    Subcommand {
        name: "coupling",
        blurb: "§4 joint vs per-frequency decoupled ablation",
        in_all: true,
    },
    Subcommand {
        name: "precision",
        blurb: "FP32 vs bf16 base-storage ablation",
        in_all: true,
    },
    Subcommand {
        name: "tab2wse",
        blurb: "fabric-atlas heatmap summary of the validated configs",
        in_all: true,
    },
    Subcommand {
        name: "perfbench",
        blurb: "host-kernel checksums + within-run ratios (BENCH_*.json)",
        in_all: false,
    },
    Subcommand {
        name: "atlas-sweep",
        blurb: "one atlas frame per stack width per validated config",
        in_all: false,
    },
    Subcommand {
        name: "acc-report",
        blurb: "accuracy observatory: NMSE vs compression sweep",
        in_all: false,
    },
];

/// Look up a subcommand by its CLI name.
pub fn find(name: &str) -> Option<&'static Subcommand> {
    SUBCOMMANDS.iter().find(|s| s.name == name)
}

/// All subcommand names joined with `sep` (for the unknown-experiment
/// error), `all` included last.
pub fn names_joined(sep: &str) -> String {
    let mut names: Vec<&str> = SUBCOMMANDS.iter().map(|s| s.name).collect();
    names.push("all");
    names.join(sep)
}

/// The full `--help` text, generated from [`SUBCOMMANDS`] so the help
/// can never list an experiment the dispatcher doesn't know (or vice
/// versa).
pub fn usage() -> String {
    let mut out = String::from(
        "repro — regenerate every table and figure of the paper\n\n\
         USAGE: repro <experiment> [--json] [--trace] [--timeline] [--atlas]\n       \
         repro --self-check   (verify every listed experiment dispatches)\n\n\
         experiments ('all' runs every row marked •):\n",
    );
    for s in SUBCOMMANDS {
        let mark = if s.in_all { '•' } else { ' ' };
        out.push_str(&format!("  {mark} {:<12} {}\n", s.name, s.blurb));
    }
    out.push_str(
        "\n\
         --json additionally writes machine-readable results to target/repro/\n\
        \x20       (perfbench: target/perf/BENCH_table2.json, the run `xtask\n\
        \x20        perfgate` compares against the committed BENCH_table2.json)\n\
         --trace enables the runtime observability layer and writes the phase\n\
        \x20       breakdown (spans, flop/byte counters, solver iterations) to\n\
        \x20       target/trace/<experiment>.json; table2 additionally prints the\n\
        \x20       per-phase V/shuffle/U table against the cost model\n\
         --timeline writes a Chrome Trace Event / Perfetto timeline to\n\
        \x20       target/trace/<experiment>.timeline.json (host span tracks +\n\
        \x20       modeled WSE PE-group tracks; open in ui.perfetto.dev)\n\
         --atlas collects the per-PE-group fabric atlas (occupancy, SRAM bank\n\
        \x20       pressure, link traffic, flops, energy) for the validated\n\
        \x20       configs under both layouts, verifies every grid total against\n\
        \x20       the placement aggregates, and writes\n\
        \x20       target/trace/<experiment>.atlas.json plus a terminal heatmap\n\
         REPRO_SCALE=<n> overrides the dataset downscale factor (default 12)\n\
         PERFBENCH_REPS=<n> overrides perfbench's median-of-N sample count\n\
         acc-report --json writes target/repro/acc_report.json, the artifact\n\
        \x20       `xtask accgate` compares against BENCH_accuracy.json",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        for (i, s) in SUBCOMMANDS.iter().enumerate() {
            assert!(!s.name.is_empty() && !s.blurb.is_empty());
            assert_ne!(s.name, "all", "'all' is a meta-command, not a table row");
            assert!(
                SUBCOMMANDS[i + 1..].iter().all(|t| t.name != s.name),
                "duplicate subcommand '{}'",
                s.name
            );
        }
    }

    #[test]
    fn usage_lists_every_subcommand_exactly_once() {
        let text = usage();
        // Inspect the experiment list only — the flags/env section below
        // it may mention subcommand names in prose.
        let list = text
            .split("\n--json")
            .next()
            .expect("usage has an experiment list");
        for s in SUBCOMMANDS {
            assert_eq!(
                list.matches(&format!(" {:<12}", s.name)).count(),
                1,
                "'{}' must appear exactly once in the experiment list",
                s.name
            );
        }
    }

    #[test]
    fn error_list_covers_the_table_and_all() {
        let joined = names_joined(" ");
        for s in SUBCOMMANDS {
            assert!(joined.contains(s.name));
        }
        assert!(joined.ends_with("all"));
    }

    #[test]
    fn find_resolves_known_and_rejects_unknown() {
        assert!(find("atlas-sweep").is_some_and(|s| !s.in_all));
        assert!(find("fig11").is_some_and(|s| s.in_all));
        assert!(find("fig99").is_none());
    }
}
