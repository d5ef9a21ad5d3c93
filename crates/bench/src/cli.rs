//! The `repro` CLI's single source of truth: one table of subcommands
//! and one of flags, from which the help text, the `repro all`
//! experiment list, the argument parser and its errors are all
//! generated.
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
    /// Whether `repro all` runs it. The measurement tool (acc-report)
    /// stays out: its sweep is a gate's input, run on its own.
    pub in_all: bool,
}

/// Every subcommand, in the order `repro all` executes them (the
/// `in_all` rows) followed by the standalone measurement tool.
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
        name: "acc-report",
        blurb: "accuracy observatory: NMSE vs compression sweep",
        in_all: false,
    },
];

/// One `repro` flag.
pub struct Flag {
    /// The flag as typed, `--` included.
    pub name: &'static str,
    /// Help text; each line after the first is printed indented under
    /// the first.
    pub help: &'static str,
}

/// Every flag `repro` accepts. [`parse`] refuses any other, so a
/// mistyped or retired flag is an error instead of a silent no-op.
pub const FLAGS: &[Flag] = &[
    Flag {
        name: "--json",
        help: "additionally writes machine-readable results to target/repro/\n\
               (acc-report: target/repro/acc_report.json, the artifact\n \
               `xtask accgate` compares against BENCH_accuracy.json)",
    },
    Flag {
        name: "--trace",
        help: "enables the runtime observability layer and writes the phase\n\
               breakdown (spans, flop/byte counters, solver iterations) to\n\
               target/trace/<experiment>.json; table2 additionally prints the\n\
               per-phase V/shuffle/U table against the cost model",
    },
    Flag {
        name: "--timeline",
        help: "writes a Chrome Trace Event / Perfetto timeline to\n\
               target/trace/<experiment>.timeline.json (host span tracks +\n\
               modeled WSE PE-group tracks; open in ui.perfetto.dev)",
    },
    Flag {
        name: "--self-check",
        help: "verifies every listed experiment dispatches, and runs none",
    },
    Flag {
        name: "--help",
        help: "prints this text (also -h)",
    },
];

/// A parsed `repro` command line.
#[derive(Debug)]
pub struct Invocation {
    /// The experiment to run: a [`SUBCOMMANDS`] name, or `all` when the
    /// line names none.
    pub experiment: String,
    /// The [`FLAGS`] given, by name.
    pub flags: Vec<&'static str>,
}

impl Invocation {
    /// Whether the [`FLAGS`] entry `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains(&name)
    }
}

/// Parse a `repro` command line (the program name excluded). An unknown
/// flag, an unknown experiment and a second experiment are refused
/// with a message naming the argument, so nothing on the line is
/// silently dropped.
pub fn parse(args: &[String]) -> Result<Invocation, String> {
    let mut experiment: Option<&str> = None;
    let mut flags = Vec::new();
    for arg in args {
        let arg = arg.as_str();
        if arg.starts_with('-') {
            let name = if arg == "-h" { "--help" } else { arg };
            let flag = FLAGS.iter().find(|f| f.name == name).ok_or_else(|| {
                let known: Vec<&str> = FLAGS.iter().map(|f| f.name).collect();
                format!("unknown flag '{arg}'; choose from: {}", known.join(" "))
            })?;
            flags.push(flag.name);
        } else if let Some(first) = experiment {
            return Err(format!(
                "more than one experiment: '{first}' and '{arg}'; name one (or 'all')"
            ));
        } else if arg == "all" || find(arg).is_some() {
            experiment = Some(arg);
        } else {
            return Err(format!(
                "unknown experiment '{arg}'; choose from: {}",
                names_joined(" ")
            ));
        }
    }
    Ok(Invocation {
        experiment: experiment.unwrap_or("all").to_string(),
        flags,
    })
}

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

/// The full `--help` text, generated from [`SUBCOMMANDS`] and [`FLAGS`]
/// so the help can never list an experiment or flag the parser and
/// dispatcher don't know (or vice versa).
pub fn usage() -> String {
    let mut out = String::from(
        "repro — regenerate every table and figure of the paper\n\n\
         USAGE: repro [<experiment>] [<flag>...]   (no experiment: all)\n\n\
         experiments ('all' runs every row marked •):\n",
    );
    for s in SUBCOMMANDS {
        let mark = if s.in_all { '•' } else { ' ' };
        out.push_str(&format!("  {mark} {:<12} {}\n", s.name, s.blurb));
    }
    out.push_str("\nflags:\n");
    for f in FLAGS {
        let mut lines = f.help.lines();
        out.push_str(&format!(
            "  {:<13} {}\n",
            f.name,
            lines.next().unwrap_or("")
        ));
        for line in lines {
            out.push_str(&format!("  {:<13} {line}\n", ""));
        }
    }
    out.push_str(&format!(
        "\nenvironment:\n  \
         REPRO_SCALE=<n>  the dataset downscale factor (default {}; a value\n  \
         \x20                that is not a whole number is refused)",
        crate::mdd_experiments::DEFAULT_SCALE
    ));
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
            .split("\nflags:")
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

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_takes_one_experiment_and_known_flags() {
        let cmd = parse(&args("table2 --trace -h --json")).expect("valid line");
        assert_eq!(cmd.experiment, "table2");
        assert_eq!(cmd.flags, ["--trace", "--help", "--json"]);
        assert!(cmd.has("--json") && !cmd.has("--timeline"));
        assert_eq!(parse(&[]).expect("empty line").experiment, "all");
        assert_eq!(parse(&args("all --json")).expect("all").experiment, "all");
    }

    #[test]
    fn parse_refuses_what_it_would_drop() {
        let err = |line: &str| parse(&args(line)).expect_err(line);
        assert!(err("--jsno").starts_with("unknown flag '--jsno'"));
        assert!(err("table1 --jason").starts_with("unknown flag '--jason'"));
        assert!(err("table1 --json=1").contains("'--json=1'"));
        assert!(err("-j").contains("'-j'"));
        assert!(err("table1 fig14").contains("'table1' and 'fig14'"));
        assert!(err("all table1").contains("'all' and 'table1'"));
        assert!(err("fig99").starts_with("unknown experiment 'fig99'"));
    }

    #[test]
    fn usage_lists_every_flag() {
        let text = usage();
        let flags = text
            .split("\nflags:")
            .nth(1)
            .expect("usage has a flag list");
        for f in FLAGS {
            assert!(f.name.starts_with("--") && !f.help.is_empty());
            assert!(flags.contains(&format!("  {:<13} ", f.name)), "{}", f.name);
        }
    }

    #[test]
    fn find_resolves_known_and_rejects_unknown() {
        assert!(find("acc-report").is_some_and(|s| !s.in_all));
        assert!(find("fig11").is_some_and(|s| s.in_all));
        assert!(find("fig99").is_none());
    }
}
