//! Integration tests for the performance-telemetry subsystem: latency
//! histogram percentile math (exact synthetic fills + property-based
//! monotonicity), the Chrome Trace Event timeline schema, and the
//! trace-counter checksums of `BENCH_table2.json` — ten kernels, each run
//! once in a trace window, must do exactly the work the fixture records.
//! No test here times anything: wall-clock evidence is `benchmark/`'s,
//! and the two lane-kernel quotients are `crates/core/tests/lane_ratios.rs`'.
//!
//! Tests that open a trace window hold `TRACE_LOCK`, like `tests/trace.rs`.

use std::hint::black_box;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use seismic_bench::timeline::{build_timeline, timeline_json, HOST_PID, WSE_PID};
use seismic_bench::wse_experiments::traced_timeline_sample;
use seismic_la::scalar::C32;
use seismic_la::{Matrix, Scalar};
use seismic_mdd::{
    lsqr, Engine, EngineConfig, FrequencyOperators, JobSpec, LsqrOptions, MdcOperator,
};
use tlr_mvm::json::Json;
use tlr_mvm::telemetry::FlightRecorder;
use tlr_mvm::trace::{self, LatencyBucket, LatencyEntry};
use tlr_mvm::{
    compress, three_phase_cost, tlr_mvm_cost, CommAvoiding, CompressionConfig, CompressionMethod,
    LinearOperator, Skeleton, ThreePhase, Tiling, TlrMatrix, ToleranceMode,
};
use wse_sim::{execute_chunks, Cs2Config, Strategy};

static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    seismic_la::sync::lock(&TRACE_LOCK)
}

fn entry(buckets: &[(u64, u64)]) -> LatencyEntry {
    LatencyEntry {
        name: "synthetic".to_string(),
        count: buckets.iter().map(|&(_, c)| c).sum(),
        p50_ns: 0,
        p95_ns: 0,
        p99_ns: 0,
        buckets: buckets
            .iter()
            .map(|&(floor_ns, count)| LatencyBucket { floor_ns, count })
            .collect(),
    }
}

/// Exact nearest-rank results on a hand-computable fill: 50 spans in the
/// 0-bucket, 45 in the 1024-bucket, 5 in the 4096-bucket.
#[test]
fn percentiles_exact_on_synthetic_fill() {
    let e = entry(&[(0, 50), (1024, 45), (4096, 5)]);
    assert_eq!(e.count, 100);
    // rank(0.50) = 50 → still inside the first bucket.
    assert_eq!(e.percentile_ns(0.50), 0);
    // rank(0.95) = 95 → cumulative 50+45 exactly covers it.
    assert_eq!(e.percentile_ns(0.95), 1024);
    // rank(0.99) = 99 → only the last bucket reaches it.
    assert_eq!(e.percentile_ns(0.99), 4096);
    // Extremes: q=0 clamps to rank 1, q=1 is the max bucket.
    assert_eq!(e.percentile_ns(0.0), 0);
    assert_eq!(e.percentile_ns(1.0), 4096);
}

#[test]
fn percentiles_degenerate_cases() {
    // Single observation: every percentile is its exact bucket floor
    // (documented behavior, never an interpolated midpoint).
    let one = entry(&[(2048, 1)]);
    for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
        assert_eq!(one.percentile_ns(q), 2048);
    }
    // Empty: the documented "no data" sentinel, for every q.
    let none = entry(&[]);
    for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
        assert_eq!(none.percentile_ns(q), trace::LATENCY_EMPTY_SENTINEL);
    }
    // Out-of-range q clamps instead of panicking.
    let e = entry(&[(0, 3), (8, 1)]);
    assert_eq!(e.percentile_ns(-1.0), e.percentile_ns(0.0));
    assert_eq!(e.percentile_ns(2.0), e.percentile_ns(1.0));
}

/// The percentiles a live snapshot precomputes must match recomputing
/// them from the serialized buckets, and be ordered p50 ≤ p95 ≤ p99.
#[test]
fn snapshot_percentiles_match_bucket_recomputation() {
    let _g = locked();
    trace::reset();
    trace::set_enabled(true);
    for i in 0..40u64 {
        let _s = trace::span("perf.it.span");
        if i % 8 == 0 {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }
    trace::set_enabled(false);
    let rep = trace::snapshot();
    let e = rep.latency_for("perf.it.span").expect("histogram recorded");
    assert_eq!(e.count, 40);
    assert_eq!(e.p50_ns, e.percentile_ns(0.50));
    assert_eq!(e.p95_ns, e.percentile_ns(0.95));
    assert_eq!(e.p99_ns, e.percentile_ns(0.99));
    assert!(e.p50_ns <= e.p95_ns && e.p95_ns <= e.p99_ns);
}

proptest! {
    /// Nearest-rank percentiles over log2 buckets are monotone in q for
    /// any occupancy pattern.
    #[test]
    fn percentiles_are_monotone(
        c0 in 0u64..500,
        c1 in 0u64..500,
        c2 in 0u64..500,
        c3 in 0u64..500,
    ) {
        let e = entry(&[(0, c0), (64, c1), (4096, c2), (1 << 20, c3)]);
        let p50 = e.percentile_ns(0.50);
        let p95 = e.percentile_ns(0.95);
        let p99 = e.percentile_ns(0.99);
        prop_assert!(p50 <= p95, "p50 {p50} > p95 {p95}");
        prop_assert!(p95 <= p99, "p95 {p95} > p99 {p99}");
        // Every result is a bucket floor, or the documented sentinel
        // when the histogram is empty.
        for p in [p50, p95, p99] {
            if e.count == 0 {
                prop_assert!(p == trace::LATENCY_EMPTY_SENTINEL);
            } else {
                prop_assert!(p == 0 || p == 64 || p == 4096 || p == 1 << 20);
            }
        }
    }
}

/// The acceptance-criterion schema test: the timeline document carries
/// `ph`/`ts`/`dur`/`pid`/`tid` on every complete event, one host track
/// per TLR-MVM phase, and one modeled track per WSE PE group — built
/// from a real traced run of the sample the `--timeline` flag uses.
#[test]
fn timeline_schema_covers_all_tracks() {
    let _g = locked();
    trace::reset();
    trace::set_enabled(true);
    traced_timeline_sample();
    trace::set_enabled(false);
    let rep = trace::snapshot();

    let clock_hz = wse_sim::Cs2Config::default().clock_hz;
    let events = build_timeline(&rep, clock_hz);
    let text = timeline_json("test", &events).to_pretty();
    let doc = Json::parse(&text).expect("timeline parses with the repo's own parser");
    let list = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!list.is_empty());

    let mut host_names = Vec::new();
    let mut wse_names = Vec::new();
    for ev in list {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
        assert!(ph == "X" || ph == "M", "unexpected phase type {ph}");
        assert!(ev.get("ts").and_then(Json::as_f64).is_some(), "ts");
        let pid = ev.get("pid").and_then(Json::as_u64).expect("pid");
        assert!(ev.get("tid").and_then(Json::as_u64).is_some(), "tid");
        if ph == "X" {
            assert!(
                ev.get("dur").and_then(Json::as_f64).expect("dur on X") > 0.0,
                "complete events carry a positive duration"
            );
            let name = ev.get("name").and_then(Json::as_str).expect("name");
            if pid == HOST_PID {
                host_names.push(name.to_string());
            } else if pid == WSE_PID {
                wse_names.push(name.to_string());
            }
        }
    }
    for phase in ["tlr_mvm.v_batch", "tlr_mvm.shuffle", "tlr_mvm.u_batch"] {
        assert!(
            host_names.iter().any(|n| n == phase),
            "missing host track for {phase}; got {host_names:?}"
        );
    }
    assert!(
        wse_names.iter().any(|n| n.starts_with("wse.pe_group.")),
        "missing modeled PE-group tracks; got {wse_names:?}"
    );
    // Every modeled PE-group phase in the report got its own track.
    let group_phases = rep
        .phases
        .iter()
        .filter(|p| p.name.starts_with("wse.pe_group."))
        .count();
    assert!(group_phases >= 1);
    assert_eq!(wse_names.len(), group_phases);
}

// ---------------------------------------------------------------------
// Trace-counter checksums against `BENCH_table2.json`.
// ---------------------------------------------------------------------

/// The committed fixture.
const FIXTURE: &str = include_str!("../BENCH_table2.json");

/// One fixture entry: the work one run of a kernel does, as the §6.6
/// cost model and the trace collector count it — never how long it took.
#[derive(Clone, Debug, PartialEq)]
struct Kernel {
    name: String,
    /// §6.6 relative (cache-model) bytes one run moves.
    relative_bytes_per_op: u64,
    /// Real FP32 flops one run performs (0 for the compressor).
    flops_per_op: u64,
    /// [`counters_checksum`] of the run.
    trace_checksum: u64,
}

/// The document the fixture holds for `kernels`, byte for byte.
fn document(kernels: &[Kernel]) -> String {
    let entry = |k: &Kernel| {
        Json::obj([
            ("name", k.name.as_str().into()),
            ("relative_bytes_per_op", k.relative_bytes_per_op.into()),
            ("flops_per_op", k.flops_per_op.into()),
            ("trace_checksum", k.trace_checksum.into()),
        ])
    };
    Json::obj([
        ("schema_version", 2u64.into()),
        ("experiment", "table2".into()),
        ("kernels", Json::arr(kernels.iter().map(entry))),
    ])
    .to_pretty()
}

/// The kernels of a `BENCH_table2.json` document.
fn parse(text: &str) -> Vec<Kernel> {
    let doc = Json::parse(text).expect("BENCH_table2.json parses");
    let count = |k: &Json, key: &str| {
        k.get(key)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("kernel field '{key}' is not a u64"))
    };
    doc.get("kernels")
        .and_then(Json::as_arr)
        .expect("a 'kernels' array")
        .iter()
        .map(|k| Kernel {
            name: k
                .get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string(),
            relative_bytes_per_op: count(k, "relative_bytes_per_op"),
            flops_per_op: count(k, "flops_per_op"),
            trace_checksum: count(k, "trace_checksum"),
        })
        .collect()
}

/// Names of the kernels on which a run and the fixture disagree: an
/// entry that changed, one the run lacks, and one the fixture lacks.
fn failing(fixture: &[Kernel], run: &[Kernel]) -> Vec<String> {
    let changed = fixture.iter().filter(|f| !run.contains(f));
    let extra = run
        .iter()
        .filter(|r| fixture.iter().all(|f| f.name != r.name));
    changed.chain(extra).map(|k| k.name.clone()).collect()
}

/// FNV-1a fold over the deterministic counters of a trace report:
/// phase names, calls, flops, relative/absolute bytes, cycles, SRAM
/// bytes, iterations, and the rank histogram. Wall-clock fields are
/// excluded on purpose — the checksum must be identical across runs on
/// any host as long as the kernel does the same work.
fn counters_checksum(report: &trace::TraceReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for p in &report.phases {
        eat(p.name.as_bytes());
        for v in [
            p.stats.calls,
            p.stats.flops,
            p.stats.relative_bytes,
            p.stats.absolute_bytes,
            p.stats.cycles,
            p.stats.sram_bytes,
            p.stats.iterations,
        ] {
            eat(&v.to_le_bytes());
        }
    }
    for b in &report.rank_histogram {
        eat(&b.rank.to_le_bytes());
        eat(&b.tiles.to_le_bytes());
    }
    h
}

/// Run `op` once in a fresh trace window and record what it did.
fn kernel(name: &str, relative_bytes_per_op: u64, flops_per_op: u64, op: impl FnOnce()) -> Kernel {
    trace::reset();
    trace::set_enabled(true);
    op();
    trace::set_enabled(false);
    let trace_checksum = counters_checksum(&trace::snapshot());
    trace::reset();
    Kernel {
        name: name.to_string(),
        relative_bytes_per_op,
        flops_per_op,
        trace_checksum,
    }
}

/// Tile size of the pipeline kernels.
const NB: usize = 16;

/// Frequencies of the engine kernels' stack (DESIGN.md §13).
const ENGINE_FREQS: usize = 32;

/// MVM jobs one `engine.queue` run submits.
const QUEUE_JOBS: u64 = 8;

/// A smooth complex kernel, `m × n`, of phase slope `k`.
fn smooth(m: usize, n: usize, k: f32) -> Matrix<C32> {
    Matrix::from_fn(m, n, |i, j| {
        let x = i as f32 / m as f32;
        let y = j as f32 / n as f32;
        let d = ((x - y) * (x - y) + 0.02).sqrt();
        C32::from_polar(1.0 / (1.0 + 3.0 * d), -k * d)
    })
}

fn vector(n: usize) -> Vec<C32> {
    (0..n)
        .map(|i| C32::new((i as f32 * 0.17).sin(), (i as f32 * 0.31).cos()))
        .collect()
}

fn config(nb: usize) -> CompressionConfig {
    CompressionConfig {
        nb,
        acc: 1e-4,
        method: CompressionMethod::Svd,
        mode: ToleranceMode::RelativeTile,
    }
}

/// The stack the `mdc.two_pass` / `mdc.one_pass` pair sweeps: 16
/// frequencies of 512×384 at `nb` 32, 12.25 MiB stored. Assembled from
/// closed-form factors (no compressor): dense tiles on the diagonal,
/// skeletons of rank 3–15 elsewhere, ranks rising with the frequency as a
/// real stack's do.
fn pass_stack() -> Vec<TlrMatrix> {
    const NB: usize = 32;
    let tiling = Tiling::new(16 * NB, 12 * NB, NB);
    // Column `q` is a complex exponential of its own pitch: full column rank.
    let waves = |cols: usize, seed: usize| {
        Matrix::from_fn(NB, cols, |p, q| {
            let pitch = 0.2 + 0.13 * q as f32 + 0.01 * seed as f32;
            C32::from_polar(1.0 / (1.0 + q as f32), pitch * p as f32)
        })
    };
    (0..16)
        .map(|f| {
            let skeletons = (0..tiling.tile_cols())
                .flat_map(|j| (0..tiling.tile_rows()).map(move |i| (i, j)))
                .map(|(i, j)| {
                    let r = 3 + (5 * i + 3 * j) % 6 + f / 2;
                    (i != j).then(|| Skeleton::from_factors(&waves(r, i + f), &waves(r, j)))
                })
                .collect();
            // Each dense run is one diagonal tile, `(i, i)` at row `i·NB`.
            TlrMatrix::new(tiling, config(NB), skeletons, |r0, _, _, _| {
                waves(NB, f + r0 / NB)
            })
        })
        .collect()
}

/// Every fixture kernel, run once each in fixture order. What a kernel
/// declares in bytes and flops is the cost model's (or the simulator's)
/// figure for one run; what it did is its checksum.
fn run_kernels() -> Vec<Kernel> {
    // The pipeline on one 144 × 112 matrix at `nb` 16.
    let a = smooth(9 * NB, 7 * NB, 9.0);
    let (m, n) = (a.nrows(), a.ncols());
    let x = vector(n);
    let tlr = compress(&a, config(NB));
    let cost = tlr_mvm_cost(&tlr);
    let tp_cost = three_phase_cost(&tlr).total();
    let tp = ThreePhase::new(&tlr);
    let ca = CommAvoiding::new(&tlr);
    let chunks = ca.chunks(8);
    let cs2 = Cs2Config::default();
    let exec = || execute_chunks(&chunks, &x, m, NB, Strategy::FusedSinglePe, &cs2);
    // One functional exec counts its fmacs exactly; 1 fmac = 2 flops.
    let exec_flops = 2 * exec().fmacs;
    let b = tp.apply(&x);
    let lsqr_opts = LsqrOptions {
        max_iters: 8,
        rel_tol: 0.0,
        damp: 0.0,
    };
    // The compressor reads the dense input: 8 bytes per complex entry.
    let dense_bytes = 8 * (m * n) as u64;
    let mut kernels = vec![
        kernel("compress.svd.nb16", dense_bytes, 0, || {
            black_box(compress(&a, config(NB)));
        }),
        kernel(
            "three_phase.apply.nb16",
            tp_cost.relative_bytes,
            tp_cost.flops,
            || {
                black_box(tp.apply(&x));
            },
        ),
        kernel(
            "comm_avoiding.apply.nb16",
            cost.relative_bytes,
            cost.flops,
            || {
                black_box(ca.apply(&x));
            },
        ),
        kernel("wse.exec.sw8.nb16", cost.relative_bytes, exec_flops, || {
            black_box(exec());
        }),
        // 8 LSQR iterations are 8 fused calls: 8 forward and 8 adjoint
        // products in 8 passes over the operator.
        kernel(
            "lsqr.8iters.nb16",
            8 * cost.relative_bytes,
            16 * cost.flops,
            || {
                black_box(lsqr(&tlr, &b, lsqr_opts));
            },
        ),
    ];

    // A 32-frequency sweep as the engine runs it: batched (`MdcOperator`'s
    // sweep into a held buffer), then as eight queued MVM jobs on a
    // two-worker engine without and with the flight recorder stamping
    // their job events (DESIGN.md §14).
    let freq_tlr: Vec<TlrMatrix> = (0..ENGINE_FREQS)
        .map(|f| compress(&smooth(6 * NB, 5 * NB, 4.0 + 0.25 * f as f32), config(NB)))
        .collect();
    let (mut op_bytes, mut op_flops) = (0u64, 0u64);
    for t in &freq_tlr {
        let c = tlr_mvm_cost(t);
        op_bytes += c.relative_bytes;
        op_flops += c.flops;
    }
    let ops = Arc::new(FrequencyOperators::build(&freq_tlr));
    let ex = vector(ops.ncols_total());
    let mut ey = vec![C32::ZERO; ops.nrows_total()];
    kernels.push(kernel("engine.batch", op_bytes, op_flops, || {
        ops.apply_all_frequencies_into(&ex, &mut ey);
    }));
    let recorder = Arc::new(FlightRecorder::new(2, 1 << 10));
    for (name, recorder) in [
        ("engine.queue", None),
        ("telemetry.overhead.on", Some(recorder)),
    ] {
        let engine = Engine::start(EngineConfig {
            workers: 2,
            queue_depth: 64,
            recorder,
        });
        let (bytes, flops) = (QUEUE_JOBS * op_bytes, QUEUE_JOBS * op_flops);
        kernels.push(kernel(name, bytes, flops, || {
            let handles: Vec<_> = (0..QUEUE_JOBS)
                .map(|_| {
                    engine.submit(JobSpec::Mvm {
                        ops: Arc::clone(&ops),
                        x: ex.clone(),
                    })
                })
                .collect();
            for h in handles {
                black_box(h.wait().output.len());
            }
        }));
    }

    // One LSQR iteration's operator work as the two passes of the provided
    // default and as the one fused sweep: same kernels, same flops, half
    // the bytes.
    let stack = pass_stack();
    let pass_flops: u64 = stack.iter().map(|t| tlr_mvm_cost(t).flops).sum();
    let mdc = MdcOperator::new(stack.iter().collect::<Vec<&TlrMatrix>>());
    // What a pass reads is the store itself.
    let pass_bytes = mdc.stored_bytes() as u64;
    let u = vector(mdc.nrows());
    let mut v = vector(mdc.ncols());
    let mut w = vec![C32::ZERO; mdc.nrows()];
    let mut z = vec![C32::ZERO; mdc.ncols()];
    kernels.push(kernel(
        "mdc.two_pass",
        2 * pass_bytes,
        2 * pass_flops,
        || {
            mdc.apply_adjoint_into(&u, &mut z);
            for (vi, zi) in v.iter_mut().zip(&z) {
                *vi = *zi - vi.scale(0.5);
            }
            mdc.apply_into(&v, &mut w);
        },
    ));
    kernels.push(kernel("mdc.one_pass", pass_bytes, 2 * pass_flops, || {
        mdc.adjoint_then_apply_into(&u, 0.5, &mut v, &mut w, &mut z);
    }));
    kernels
}

/// Each kernel, run once in a trace window, does the work the fixture
/// records: the same kernels in the same order, the same byte and flop
/// counts and the same trace-counter checksums, on any machine and in
/// any profile. On a mismatch the message prints the document the
/// fixture would hold for this run, to commit if the change is intended.
#[test]
fn kernels_reproduce_the_committed_trace_checksums() {
    let _g = locked();
    let run = run_kernels();
    let failing = failing(&parse(FIXTURE), &run);
    let doc = document(&run);
    assert!(
        failing.is_empty() && doc == FIXTURE,
        "kernels that do different work now: {failing:?}\n\
         if that is intended, BENCH_table2.json should read:\n{doc}"
    );
}

/// The comparison can fail: against the parsed fixture, a flipped
/// checksum, a changed byte count, a dropped kernel and an extra kernel
/// each fail naming that kernel; the fixture passes against itself, and
/// its text is what [`document`] writes for it.
#[test]
fn an_edited_fixture_fails_naming_the_kernel() {
    let fixture = parse(FIXTURE);
    assert_eq!(document(&fixture), FIXTURE);
    assert!(failing(&fixture, &fixture).is_empty());
    let failing_after = |edit: &dyn Fn(&mut Vec<Kernel>)| {
        let mut run = fixture.clone();
        edit(&mut run);
        failing(&fixture, &run)
    };
    let named = [fixture[2].name.clone()];
    assert_eq!(failing_after(&|run| run[2].trace_checksum ^= 1), named);
    assert_eq!(
        failing_after(&|run| run[2].relative_bytes_per_op += 8),
        named
    );
    assert_eq!(
        failing_after(&|run| {
            run.remove(2);
        }),
        named
    );
    let extra = |run: &mut Vec<Kernel>| {
        let name = "gemv.vbatch.fast".to_string();
        run.push(Kernel {
            name,
            ..run[2].clone()
        });
    };
    assert_eq!(failing_after(&extra), ["gemv.vbatch.fast"]);
}

#[test]
fn checksum_ignores_wall_clock_but_sees_counters() {
    use tlr_mvm::trace::{PhaseEntry, PhaseStats, TraceReport};
    let mk = |nanos: u64, flops: u64| TraceReport {
        phases: vec![PhaseEntry {
            name: "p".to_string(),
            stats: PhaseStats {
                calls: 1,
                nanos,
                flops,
                ..Default::default()
            },
        }],
        ..Default::default()
    };
    assert_eq!(
        counters_checksum(&mk(10, 100)),
        counters_checksum(&mk(999_999, 100)),
        "nanos must not affect the checksum"
    );
    assert_ne!(
        counters_checksum(&mk(10, 100)),
        counters_checksum(&mk(10, 101)),
        "flops must affect the checksum"
    );
}
