//! Command line.
//!
//! ```text
//! mdd-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; last stdout line is the result object
//! mdd-benchmark run   [--seed n] [--seconds s] [--trace]
//!     every workload, each in a child process of its own
//! mdd-benchmark agree [--sets 2] [--runs 10] [--seed n] [--seconds s]
//!     sets of runs of this build, compared against the bounds
//! mdd-benchmark manifest
//!     the content of BENCHMARK.json
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use crate::host;
use crate::json::{self, Value};
use crate::metrics::{self, Better, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::stats;
use crate::workloads::{self, Options, Outcome, Size};

const DEFAULT_SEED: u64 = 20230928;

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {flag}: {v}")),
        }
    }

    fn flag(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

pub fn main(args: Vec<String>) -> i32 {
    let first = args.first().cloned().unwrap_or_default();
    let args = Args(args);
    let result = match first.as_str() {
        "manifest" => {
            println!("{}", pretty(&metrics::manifest()));
            Ok(0)
        }
        _ if cfg!(debug_assertions) => {
            Err("this is a debug build; timings from it mean nothing. Use --release.".to_string())
        }
        "run" => run_all(&args),
        "agree" => agree(&args),
        _ if args.value("--workload").is_some() => run_one(&args),
        _ => Err("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> | run | agree | manifest"
            .to_string()),
    };
    match result {
        Ok(code) => code,
        Err(why) => {
            eprintln!("mdd-benchmark: {why}");
            2
        }
    }
}

// --- one workload, this process ----------------------------------------------

/// The object printed as the last line of standard output.
pub fn result_line(o: &Outcome) -> Value {
    json::obj([
        ("correct", Value::Bool(o.correct())),
        ("attempted", json::num(o.attempted as f64)),
        ("failed", json::num(o.failed as f64)),
        (
            "metrics",
            json::obj(o.metrics.iter().map(|(name, value, unit)| {
                (
                    *name,
                    json::obj([("value", json::num(*value)), ("unit", json::string(*unit))]),
                )
            })),
        ),
    ])
}

fn run_one(args: &Args) -> Result<i32, String> {
    let name = args.value("--workload").unwrap_or_default();
    let desc = workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let trace = match args.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let threads = host::bench_threads();
    let opts = Options {
        seed: args.parsed("--seed", DEFAULT_SEED)?,
        seconds: args.parsed("--seconds", f64::from(RUN_SECONDS))?,
        trace,
        size: Size::Full,
        threads,
    };
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .map_err(|e| e.to_string())?;

    let outcome = workloads::run(desc, opts);

    let mode = if trace { "traced" } else { "plain" };
    println!("# {name} ({mode}) seed {} threads {threads}", opts.seed);
    for (metric, value, unit) in &outcome.metrics {
        println!("{metric:<28} {value:>16.6} {unit}");
    }
    println!(
        "failed_share                 {:>16.6} ratio   ({} of {})",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    let line = result_line(&outcome);
    let record = json::obj([
        ("workload", json::string(name)),
        ("mode", json::string(mode)),
        ("seed", json::num(opts.seed as f64)),
        ("seconds", json::num(opts.seconds)),
        ("host", host::fingerprint(threads)),
        ("info", outcome.info.clone()),
        (
            "failures",
            Value::Arr(outcome.failures.iter().map(json::string).collect()),
        ),
        ("result", line.clone()),
    ]);
    let dir = out_dir();
    let write = |file: String, v: &Value| {
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(dir.join(&file), v.render() + "\n"))
            .map_err(|e| format!("writing {file}: {e}"))
    };
    write(format!("{name}.{mode}.json"), &record)?;
    if trace {
        write(format!("{name}.trace.json"), &outcome.trace)?;
    }
    println!("{}", line.render());
    Ok(i32::from(!outcome.correct()))
}

// --- children ----------------------------------------------------------------

struct Child {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

/// Run one workload in a child process of this executable and parse its
/// result line. The child is waited for before this returns.
fn spawn(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{workload}: no output (exit {:?})", out.status.code()))?;
    let v = json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let field = |k: &str| {
        v.get(k)
            .ok_or_else(|| format!("{workload}: result has no {k}"))
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in field("metrics")?.as_object().unwrap_or_default() {
        let value = m.get("value").and_then(Value::as_f64);
        metrics.insert(
            name.clone(),
            value.ok_or_else(|| format!("{workload}: {name} has no value"))?,
        );
    }
    Ok(Child {
        correct: field("correct")?.as_bool().unwrap_or(false) && out.status.success(),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0),
        failed: field("failed")?.as_f64().unwrap_or(0.0),
        metrics,
    })
}

fn read_json(file: &str) -> Value {
    std::fs::read_to_string(out_dir().join(file))
        .ok()
        .and_then(|t| json::parse(&t).ok())
        .unwrap_or(Value::Null)
}

fn unit_of(name: &str) -> &'static str {
    metrics::find(name).map_or("", |m| m.unit)
}

// --- run: every workload once --------------------------------------------------

fn run_all(args: &Args) -> Result<i32, String> {
    let seed = args.parsed("--seed", DEFAULT_SEED)?;
    let seconds = args.parsed("--seconds", f64::from(RUN_SECONDS))?;
    let trace = args.flag("--trace");
    let mode = if trace { "traced" } else { "plain" };
    let host = host::fingerprint(host::bench_threads());
    println!("host: {}", host.render());
    println!("seed {seed}, {seconds} s per workload, {mode} run\n");

    let mut all_correct = true;
    let mut records = Vec::new();
    let mut traces = Vec::new();
    for w in workloads::ALL {
        let child = spawn(w.name, seed, seconds, trace)?;
        all_correct &= child.correct;
        println!(
            "== {} — {} ({} of {} failed)",
            w.name,
            if child.correct { "correct" } else { "FAILED" },
            child.failed,
            child.attempted
        );
        let declared = if trace { PER_LAYER } else { END_TO_END };
        for m in declared {
            let v = child.metrics.get(m.name).copied().unwrap_or(f64::NAN);
            // In the traced run a layer the workload never calls is 0.
            if !trace || v != 0.0 {
                println!("  {:<28} {v:>16.6} {}", m.name, m.unit);
            }
        }
        println!(
            "  {:<28} {:>16.6} ratio",
            "failed_share",
            child.failed / child.attempted.max(1.0)
        );
        records.push((w.name, read_json(&format!("{}.{mode}.json", w.name))));
        if trace {
            traces.push((w.name, read_json(&format!("{}.trace.json", w.name))));
        }
    }

    let results = json::obj([
        ("host", host),
        ("seed", json::num(seed as f64)),
        ("seconds", json::num(seconds)),
        ("mode", json::string(mode)),
        ("workloads", json::obj(records)),
    ]);
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    std::fs::write(dir.join("results.json"), results.render() + "\n").map_err(|e| e.to_string())?;
    println!("\nwrote {}", dir.join("results.json").display());
    if trace {
        std::fs::write(dir.join("trace.json"), json::obj(traces).render() + "\n")
            .map_err(|e| e.to_string())?;
        println!("wrote {}", dir.join("trace.json").display());
    }
    Ok(i32::from(!all_correct))
}

// --- agree: sets of runs of one build ---------------------------------------------

/// Share by which `b` is worse than `a`, in the metric's direction.
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

fn agree(args: &Args) -> Result<i32, String> {
    let sets: usize = args.parsed("--sets", 2)?;
    let runs: usize = args.parsed("--runs", 10)?;
    let seed: u64 = args.parsed("--seed", DEFAULT_SEED)?;
    let seconds = args.parsed("--seconds", f64::from(RUN_SECONDS))?;
    if sets < 2 || runs < 2 {
        return Err("agree needs at least 2 sets of at least 2 runs".into());
    }
    println!(
        "host: {}",
        host::fingerprint(host::bench_threads()).render()
    );
    println!(
        "{sets} sets x {runs} runs x {} workloads, {seconds} s each, seeds {seed}..\n",
        workloads::ALL.len()
    );

    // plain[workload][metric][set] = values by run; traced[workload][metric] = value by set.
    let mut plain: BTreeMap<&str, BTreeMap<&str, Vec<Vec<f64>>>> = BTreeMap::new();
    let mut traced: BTreeMap<&str, BTreeMap<&str, Vec<f64>>> = BTreeMap::new();
    let mut violations: Vec<String> = Vec::new();
    for set in 0..sets {
        for w in workloads::ALL {
            for run in 0..runs {
                let child = spawn(w.name, seed + run as u64, seconds, false)?;
                if !child.correct {
                    violations.push(format!(
                        "{} set {set} run {run}: {} of {} failed",
                        w.name, child.failed, child.attempted
                    ));
                }
                for m in END_TO_END {
                    let per_set = plain.entry(w.name).or_default().entry(m.name).or_default();
                    per_set.resize(sets, Vec::new());
                    per_set[set].push(child.metrics.get(m.name).copied().unwrap_or(f64::NAN));
                }
            }
            let child = spawn(w.name, seed, seconds, true)?;
            if !child.correct {
                violations.push(format!(
                    "{} set {set} traced run: {} of {} failed",
                    w.name, child.failed, child.attempted
                ));
            }
            for m in PER_LAYER {
                traced
                    .entry(w.name)
                    .or_default()
                    .entry(m.name)
                    .or_default()
                    .push(child.metrics.get(m.name).copied().unwrap_or(f64::NAN));
            }
            eprintln!("set {set}: {} done", w.name);
        }
    }

    for w in workloads::ALL {
        println!("== {}", w.name);
        println!(
            "  {:<14} {:>3} {:>14} {:>14} {:>14} {:>8}   {:>8} {:>6}",
            "metric", "set", "q1", "median", "q3", "spread", "worse", "bound"
        );
        for m in END_TO_END {
            let per_set = &plain[w.name][m.name];
            let medians: Vec<f64> = per_set.iter().map(|v| stats::quartiles(v).1).collect();
            for (set, values) in per_set.iter().enumerate() {
                let (q1, q2, q3) = stats::quartiles(values);
                let spread = stats::spread(values);
                let worse = if set == 0 {
                    0.0
                } else {
                    worsening(m.better, medians[0], medians[set])
                };
                println!(
                    "  {:<14} {set:>3} {q1:>14.6} {q2:>14.6} {q3:>14.6} {:>7.2}%   {:>7.2}% {:>5.0}%  {}",
                    m.name,
                    100.0 * spread,
                    100.0 * worse,
                    100.0 * m.bound,
                    m.unit
                );
                if m.name != "setup_s" && spread > m.bound {
                    violations.push(format!(
                        "{} {} set {set}: spread {:.2}% over the {:.0}% bound",
                        w.name,
                        m.name,
                        100.0 * spread,
                        100.0 * m.bound
                    ));
                }
                if worse > m.bound {
                    violations.push(format!(
                        "{} {}: set {set} median worse than set 0 by {:.2}% (bound {:.0}%)",
                        w.name,
                        m.name,
                        100.0 * worse,
                        100.0 * m.bound
                    ));
                }
                if m.exact && values != &per_set[0] {
                    violations.push(format!(
                        "{} {}: exact metric differs between set 0 and set {set}",
                        w.name, m.name
                    ));
                }
            }
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let values = &traced[w.name][m.name];
            if values.iter().any(|v| v != &values[0]) {
                violations.push(format!(
                    "{} {}: exact layer metric differs between sets: {values:?}",
                    w.name, m.name
                ));
            }
        }
        let overhead = &traced[w.name]["bench.trace_overhead_pct"];
        let residual = &traced[w.name]["bench.op_residual_pct"];
        println!("  trace overhead {overhead:.2?} %, unattributed share of a traced operation {residual:.2?} %");
        let shown: Vec<String> = PER_LAYER
            .iter()
            .filter(|m| traced[w.name][m.name].iter().any(|v| *v != 0.0))
            .map(|m| {
                format!(
                    "{}={:.6} {}",
                    m.name,
                    traced[w.name][m.name][0],
                    unit_of(m.name)
                )
            })
            .collect();
        println!("  layers (set 0): {}", shown.join(", "));
    }

    if violations.is_empty() {
        println!("\nagree: every end-to-end metric within its bound, every exact metric identical, nothing failed");
        Ok(0)
    } else {
        println!("\nagree: {} violation(s)", violations.len());
        for v in &violations {
            println!("  {v}");
        }
        Ok(1)
    }
}

// --- pretty printing of the manifest ---------------------------------------------

/// `BENCHMARK.json` layout: top-level keys on their own lines, list items
/// one per line.
fn pretty(v: &Value) -> String {
    let Value::Obj(kv) = v else {
        return v.render();
    };
    let mut out = String::from("{\n");
    for (i, (k, val)) in kv.iter().enumerate() {
        let comma = if i + 1 < kv.len() { "," } else { "" };
        match val {
            Value::Arr(items) if items.iter().any(|x| matches!(x, Value::Obj(_))) => {
                out.push_str(&format!("  {}: [\n", json::string(k.as_str()).render()));
                for (j, item) in items.iter().enumerate() {
                    let c = if j + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {}{c}\n", item.render()));
                }
                out.push_str(&format!("  ]{comma}\n"));
            }
            other => out.push_str(&format!(
                "  {}: {}{comma}\n",
                json::string(k.as_str()).render(),
                other.render()
            )),
        }
    }
    out.push('}');
    out
}
