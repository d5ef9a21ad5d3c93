//! Runtime observability: scoped phase spans, monotonic flop/byte/cycle
//! counters, and per-iteration solver traces — the accounting the paper's
//! tables are made of, collected while the code actually runs.
//!
//! The paper's argument is an *accounting* argument: sustained bandwidth,
//! achieved flop rates, and per-phase cycle counts for the three-phase
//! (V-batch / shuffle / U-batch) vs. the communication-avoiding TLR-MVM.
//! This module lets every `repro` run emit that accounting as a
//! machine-readable phase breakdown instead of a single end-to-end
//! number.
//!
//! ## Semantics
//!
//! * Tracing is **disabled by default** and globally gated by one atomic
//!   flag. While disabled, [`span`] returns an inert guard without
//!   reading the clock, every counter call returns after a single
//!   relaxed atomic load, and nothing is allocated or locked — the
//!   instrumentation seams are runtime no-ops (asserted by the
//!   `trace_disabled_is_noop` bench test).
//! * A [`Span`] measures wall time between its creation and drop and
//!   adds `(calls += 1, nanos += elapsed)` to the named phase. Spans
//!   nest freely: each span accounts its own full lifetime, so an inner
//!   phase's time is *included* in its enclosing phase (the
//!   three-phase pipeline records `tlr_mvm.v_batch` etc. at the seams,
//!   never double-counting siblings).
//! * Counters ([`add_flops`], [`add_bytes`], [`add_cycles`],
//!   [`add_sram_bytes`], [`add_iterations`]) are monotonic u64
//!   accumulators per phase name. Every increment is a `saturating_add`,
//!   so a counter that reaches `u64::MAX` on a long multi-frequency MDD
//!   run pins there instead of wrapping to a nonsense small value. The
//!   collector is a single `std::sync::Mutex`, so accumulation from
//!   rayon workers is safe; instrumentation therefore counts at *phase*
//!   granularity (once per batch), not per tile.
//! * Every completed span also feeds a **log-bucketed latency
//!   histogram** per phase label (bucket `b` covers `[2^b, 2^{b+1})`
//!   nanoseconds) from which [`LatencyEntry::percentile_ns`] derives
//!   p50/p95/p99 as nearest-rank bucket floors, and appends one
//!   **wall-clock-stamped [`SpanEvent`]** (start offset from the trace
//!   epoch plus duration) — the raw material of the Perfetto timeline
//!   export. Span events are capped at [`MAX_SPAN_EVENTS`]; overflow is
//!   counted, never silently dropped.
//! * Byte counters follow the paper's §6.6 models: `relative` =
//!   cache-model bytes, `absolute` = flat-SRAM bytes (see
//!   [`crate::accounting`]). The traced totals are computed from the
//!   same formulas as [`crate::accounting::tlr_mvm_cost`], which is why
//!   the phase shares in a trace report reconcile with the static cost
//!   model.
//! * [`record_solver_iteration`] appends one `(solver, iteration,
//!   residual, initial_residual, nanos)` row per iterative-solver step
//!   (LSQR) — carrying the starting residual lets a reader divide by
//!   it, so convergence curves compare across datasets — and
//!   [`record_tile_rank`] grows the compression rank histogram.
//! * [`add_grid`] accumulates named **2-D grid counters** (element-wise
//!   saturating adds over a row-major `u64` grid) — the per-tile
//!   accuracy grids of [`crate::accuracy`]. The first call for a name
//!   fixes the grid's dimensions; later calls with mismatched dimensions
//!   are ignored (documented on [`add_grid`]), so a grid can never
//!   silently change shape mid-trace.
//!
//! [`TraceReport::to_json`] is the report's JSON form; the schema is
//! documented in `DESIGN.md` §9 and written by `repro --trace` under
//! `target/trace/`.
//!
//! ## Example
//!
//! ```
//! use tlr_mvm::trace;
//!
//! trace::reset();
//! trace::set_enabled(true);
//! {
//!     let _span = trace::span("example.phase");
//!     trace::add_flops("example.phase", 1_000);
//!     trace::add_bytes("example.phase", 4_096, 12_288);
//! }
//! trace::set_enabled(false);
//!
//! let report = trace::snapshot();
//! let phase = report.phase("example.phase").unwrap();
//! assert_eq!(phase.stats.calls, 1);
//! assert_eq!(phase.stats.flops, 1_000);
//! assert_eq!(phase.stats.relative_bytes, 4_096);
//! assert_eq!(phase.stats.absolute_bytes, 12_288);
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use seismic_la::sync::lock;

use crate::json::Json;
use crate::json_fields;

/// The global on/off switch. Relaxed loads keep the disabled fast path
/// to a single uncontended atomic read.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The global collector. One coarse mutex is deliberate: all
/// instrumentation records at phase granularity (once per batched call),
/// so contention is negligible even under rayon.
static COLLECTOR: Mutex<Collector> = Mutex::new(Collector::new());

/// Hard cap on retained [`SpanEvent`]s per trace window. Beyond it the
/// collector keeps counting ([`TraceReport::dropped_span_events`]) but
/// stops storing, bounding memory on long multi-frequency MDD runs.
pub const MAX_SPAN_EVENTS: usize = 1 << 16;

/// Number of log2 latency buckets: bucket `b` covers `[2^b, 2^{b+1})`
/// ns (bucket 0 also holds 0-ns observations), so the top bucket starts
/// at 2^63 ns ≈ 292 years — every `u64` duration has a bucket.
const LATENCY_BUCKETS: usize = 64;

/// Dense per-phase latency buckets (collector-internal; snapshots
/// serialize the sparse [`LatencyEntry`] form).
struct LatencyBuckets([u64; LATENCY_BUCKETS]);

impl LatencyBuckets {
    fn record(&mut self, nanos: u64) {
        let b = bucket_index(nanos);
        self.0[b] = self.0[b].saturating_add(1);
    }
}

/// Log2 bucket index of a duration: `floor(log2(ns))`, with 0 and 1 ns
/// sharing bucket 0.
fn bucket_index(nanos: u64) -> usize {
    if nanos < 2 {
        0
    } else {
        crate::cast::to_usize(u64::from(nanos.ilog2()))
    }
}

/// Inclusive lower bound of a log2 bucket.
fn bucket_floor(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else {
        1u64 << bucket
    }
}

/// Aggregated state behind the collector mutex.
struct Collector {
    phases: BTreeMap<String, PhaseStats>,
    iterations: Vec<SolverIteration>,
    ranks: BTreeMap<u64, u64>,
    latency: BTreeMap<String, LatencyBuckets>,
    events: Vec<SpanEvent>,
    dropped_events: u64,
    /// Named 2-D grid counters: name → (rows, cols, row-major cells).
    grids: BTreeMap<String, (usize, usize, Vec<u64>)>,
    /// Wall-clock zero of the current trace window; set on [`reset`] and
    /// lazily on the first span completion after process start.
    epoch: Option<Instant>,
}

impl Collector {
    const fn new() -> Self {
        Self {
            phases: BTreeMap::new(),
            iterations: Vec::new(),
            ranks: BTreeMap::new(),
            latency: BTreeMap::new(),
            events: Vec::new(),
            dropped_events: 0,
            grids: BTreeMap::new(),
            epoch: None,
        }
    }

    fn phase_mut(&mut self, name: &str) -> &mut PhaseStats {
        // Allocating the key is fine here: counters fire at phase
        // granularity (once per batched call), never per tile.
        self.phases.entry(name.to_string()).or_default()
    }

    fn clear(&mut self) {
        self.phases.clear();
        self.iterations.clear();
        self.ranks.clear();
        self.latency.clear();
        self.events.clear();
        self.dropped_events = 0;
        self.grids.clear();
        self.epoch = None;
    }
}

/// Enable or disable tracing globally. Disabling does not clear
/// previously collected data — call [`reset`] for that.
///
/// Relaxed is enough: the flag gates recording and nothing else —
/// polled by [`is_enabled`], it decides only whether a span records,
/// never what data it touches, and all recorded data is serialized
/// through the collector's own mutex.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether tracing is currently enabled.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clear every collected phase, iteration trace, histogram bucket, and
/// span event, and restart the wall-clock epoch that [`SpanEvent`]
/// timestamps are measured from.
pub fn reset() {
    let mut c = lock(&COLLECTOR);
    c.clear();
    c.epoch = Some(Instant::now());
}

/// Monotonic counters attached to one named phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Times a span for this phase completed.
    pub calls: u64,
    /// Total wall-clock nanoseconds across those spans.
    pub nanos: u64,
    /// Real FP32 flops attributed to the phase (§6.6 counting).
    pub flops: u64,
    /// Relative (cache-model) bytes, §6.6.
    pub relative_bytes: u64,
    /// Absolute (flat-SRAM) bytes, §6.6.
    pub absolute_bytes: u64,
    /// Modeled PE cycles attributed to the phase (WSE simulator hooks).
    pub cycles: u64,
    /// SRAM bytes resident for the phase's working set (WSE hooks).
    pub sram_bytes: u64,
    /// Iterations attributed to the phase (solver hooks).
    pub iterations: u64,
}

/// One named phase in a [`TraceReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseEntry {
    /// Phase name (e.g. `tlr_mvm.v_batch`).
    pub name: String,
    /// The accumulated counters.
    pub stats: PhaseStats,
}

/// One iterative-solver step: the per-iteration residual/timing trace
/// the paper's convergence plots are built from.
#[derive(Clone, Debug, PartialEq)]
pub struct SolverIteration {
    /// Solver name (`lsqr`).
    pub solver: String,
    /// 1-based iteration index.
    pub iteration: u64,
    /// Residual estimate after the iteration (LSQR's `φ̄`).
    pub residual: f32,
    /// Residual of the starting iterate (`‖b‖` for a zero initial
    /// guess) — the scale that makes `residual` relative; 0 reads as
    /// "scale unknown".
    pub initial_residual: f32,
    /// Wall-clock nanoseconds the iteration took.
    pub nanos: u64,
}

/// One bucket of the compression rank histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankBucket {
    /// Tile rank.
    pub rank: u64,
    /// Number of tiles compressed to that rank.
    pub tiles: u64,
}

/// One occupied log2 latency bucket: `count` observations fell in
/// `[floor_ns, 2·max(floor_ns, 1))`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyBucket {
    /// Inclusive lower bound of the bucket in nanoseconds (0 or a power
    /// of two).
    pub floor_ns: u64,
    /// Observations in the bucket.
    pub count: u64,
}

/// Per-span-label latency distribution: sparse log2 buckets plus the
/// nearest-rank p50/p95/p99 snapshotted from them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyEntry {
    /// Span label (phase name).
    pub name: String,
    /// Total completed spans observed.
    pub count: u64,
    /// Median latency (nearest-rank bucket floor), ns.
    pub p50_ns: u64,
    /// 95th-percentile latency, ns.
    pub p95_ns: u64,
    /// 99th-percentile latency, ns.
    pub p99_ns: u64,
    /// Occupied buckets, sorted by `floor_ns`.
    pub buckets: Vec<LatencyBucket>,
}

/// Sentinel returned by [`LatencyEntry::percentile_ns`] for an **empty**
/// histogram (`count == 0`). An empty distribution has no percentiles;
/// returning 0 ns (the old behavior) was indistinguishable from a real
/// sub-nanosecond observation, so "no data" now reads as `u64::MAX` —
/// a value no real span can produce (it would be ~584 years of wall
/// time, and the bucket floors only go up to `2^63`).
pub const LATENCY_EMPTY_SENTINEL: u64 = u64::MAX;

impl LatencyEntry {
    /// Nearest-rank percentile over the log2 buckets: the floor of the
    /// bucket holding the `⌈q·count⌉`-th smallest observation (so the
    /// estimate is a lower bound, tight to within the bucket's factor of
    /// two). `q` is clamped to `[0, 1]`.
    ///
    /// Edge cases (both regression-tested):
    ///
    /// * **Empty histogram** (`count == 0`): returns
    ///   [`LATENCY_EMPTY_SENTINEL`] for every `q` — there is no
    ///   distribution to take a percentile of, and the sentinel cannot
    ///   be confused with a real bucket floor.
    /// * **Single sample** (`count == 1`): every `q` returns the exact
    ///   bucket floor of the one observation — a deterministic, defined
    ///   value, never an interpolated bucket midpoint.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return LATENCY_EMPTY_SENTINEL;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil(q·count), at least rank 1, never above count. A count
        // near u64::MAX rounds to 2^64 in f64, which f64_to_u64
        // rejects — saturate to `count` instead of panicking.
        let raw = (q * crate::cast::u64_to_f64(self.count)).ceil();
        let rank = if raw >= crate::cast::u64_to_f64(u64::MAX) {
            self.count
        } else {
            crate::cast::f64_to_u64(raw).clamp(1, self.count)
        };
        let mut cumulative = 0u64;
        for b in &self.buckets {
            cumulative = cumulative.saturating_add(b.count);
            if cumulative >= rank {
                return b.floor_ns;
            }
        }
        // Malformed entry (count > 0 with no buckets — only reachable
        // via hand-built data): also "no data".
        self.buckets
            .last()
            .map_or(LATENCY_EMPTY_SENTINEL, |b| b.floor_ns)
    }
}

/// One named 2-D grid counter: a row-major `rows × cols` field of
/// monotonic `u64` accumulators (the per-tile accuracy grids — rank,
/// stored bytes, truncation tail).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GridEntry {
    /// Grid name (e.g. `accuracy.tile_rank`).
    pub name: String,
    /// Grid height.
    pub rows: u64,
    /// Grid width.
    pub cols: u64,
    /// Row-major cells, length `rows · cols`.
    pub cells: Vec<u64>,
}

impl GridEntry {
    /// Saturating sum of every cell — the aggregate the grid must
    /// reconcile against.
    pub fn total(&self) -> u64 {
        self.cells.iter().fold(0u64, |a, &c| a.saturating_add(c))
    }
}

/// One completed span, stamped relative to the trace epoch (the last
/// [`reset`]) — the raw record the Perfetto timeline export renders.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span label (phase name).
    pub name: String,
    /// Wall-clock start offset from the trace epoch, ns.
    pub start_ns: u64,
    /// Span duration, ns.
    pub dur_ns: u64,
}

/// A snapshot of everything collected since [`reset`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceReport {
    /// Every phase, sorted by name.
    pub phases: Vec<PhaseEntry>,
    /// Per-iteration solver rows, in record order.
    pub solver_iterations: Vec<SolverIteration>,
    /// Compression rank histogram, sorted by rank.
    pub rank_histogram: Vec<RankBucket>,
    /// Per-span-label latency distributions, sorted by name.
    pub latency: Vec<LatencyEntry>,
    /// Completed spans with epoch-relative wall-clock stamps, in
    /// completion order (capped at [`MAX_SPAN_EVENTS`]).
    pub span_events: Vec<SpanEvent>,
    /// Span events discarded after the cap was hit.
    pub dropped_span_events: u64,
    /// Named 2-D grid counters, sorted by name.
    pub grids: Vec<GridEntry>,
}

impl TraceReport {
    /// The report as the JSON document of DESIGN.md §9, key for key in
    /// declaration order; u64 counters keep every digit.
    pub fn to_json(&self) -> Json {
        let stats = |s: &PhaseStats| {
            json_fields!(s;
                calls, nanos, flops, relative_bytes, absolute_bytes, cycles, sram_bytes, iterations
            )
        };
        let phase = |p: &PhaseEntry| json_fields!(p; name, stats => stats(&p.stats));
        let iteration = |i: &SolverIteration| {
            json_fields!(i;
                solver, iteration, residual, initial_residual, nanos
            )
        };
        let span = |e: &SpanEvent| json_fields!(e; name, start_ns, dur_ns);
        let bucket = |b: &LatencyBucket| json_fields!(b; floor_ns, count);
        let latency = |l: &LatencyEntry| {
            json_fields!(l;
                name, count, p50_ns, p95_ns, p99_ns, buckets => Json::arr(l.buckets.iter().map(bucket))
            )
        };
        json_fields!(self;
            phases => Json::arr(self.phases.iter().map(phase)),
            solver_iterations => Json::arr(self.solver_iterations.iter().map(iteration)),
            rank_histogram => Json::arr(self.rank_histogram.iter().map(|b| json_fields!(b; rank, tiles))),
            latency => Json::arr(self.latency.iter().map(latency)),
            span_events => Json::arr(self.span_events.iter().map(span)),
            dropped_span_events,
            grids => Json::arr(self.grids.iter().map(|g| json_fields!(g; name, rows, cols, cells => Json::arr(g.cells.iter().map(Json::from)))))
        )
    }

    /// Look up a phase by name.
    pub fn phase(&self, name: &str) -> Option<&PhaseEntry> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Look up a latency distribution by span label.
    pub fn latency_for(&self, name: &str) -> Option<&LatencyEntry> {
        self.latency.iter().find(|l| l.name == name)
    }

    /// Look up a grid counter by name.
    pub fn grid_for(&self, name: &str) -> Option<&GridEntry> {
        self.grids.iter().find(|g| g.name == name)
    }
}

/// A scoped wall-clock timer for one phase. Created by [`span`];
/// records on drop. Inert (no clock read, no lock) while tracing is
/// disabled.
#[must_use = "a span records its phase time when dropped"]
pub struct Span {
    live: Option<(&'static str, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((name, start)) = self.live.take() {
            let ns = duration_nanos(start.elapsed());
            let mut c = lock(&COLLECTOR);
            // First span since process start with no reset yet: its own
            // start becomes the epoch.
            let epoch = *c.epoch.get_or_insert(start);
            let start_ns = duration_nanos(start.saturating_duration_since(epoch));
            let p = c.phase_mut(name);
            p.calls = p.calls.saturating_add(1);
            p.nanos = p.nanos.saturating_add(ns);
            c.latency
                .entry(name.to_string())
                .or_insert_with(|| LatencyBuckets([0; LATENCY_BUCKETS]))
                .record(ns);
            if c.events.len() < MAX_SPAN_EVENTS {
                c.events.push(SpanEvent {
                    name: name.to_string(),
                    start_ns,
                    dur_ns: ns,
                });
            } else {
                c.dropped_events = c.dropped_events.saturating_add(1);
            }
        }
    }
}

/// Open a scoped span for `name`. While tracing is disabled this
/// returns an inert guard without touching the clock.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !is_enabled() {
        return Span { live: None };
    }
    Span {
        live: Some((name, Instant::now())),
    }
}

/// Saturating `Duration` → whole nanoseconds (a span would need ~584
/// years of wall time to saturate).
fn duration_nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Record one externally-timed observation for `name`: bumps the
/// phase's call/nano counters and feeds its latency histogram exactly
/// as a completed [`span`] would — but without a [`Span`] guard, so the
/// measured interval may start on one thread and end on another (the
/// engine's queue-wait stage is timed from submission on the caller's
/// thread to dequeue on a worker). No [`SpanEvent`] is appended: there
/// is no single on-thread span to stamp against the epoch.
#[inline]
pub fn record_duration(name: &str, nanos: u64) {
    if !is_enabled() {
        return;
    }
    let mut c = lock(&COLLECTOR);
    let p = c.phase_mut(name);
    p.calls = p.calls.saturating_add(1);
    p.nanos = p.nanos.saturating_add(nanos);
    c.latency
        .entry(name.to_string())
        .or_insert_with(|| LatencyBuckets([0; LATENCY_BUCKETS]))
        .record(nanos);
}

/// Add real-FP32 flops to a phase (saturating).
#[inline]
pub fn add_flops(name: &str, flops: u64) {
    if !is_enabled() {
        return;
    }
    let mut c = lock(&COLLECTOR);
    let p = c.phase_mut(name);
    p.flops = p.flops.saturating_add(flops);
}

/// Add §6.6 relative (cache-model) and absolute (flat-SRAM) bytes to a
/// phase (saturating).
#[inline]
pub fn add_bytes(name: &str, relative: u64, absolute: u64) {
    if !is_enabled() {
        return;
    }
    let mut c = lock(&COLLECTOR);
    let p = c.phase_mut(name);
    p.relative_bytes = p.relative_bytes.saturating_add(relative);
    p.absolute_bytes = p.absolute_bytes.saturating_add(absolute);
}

/// Add flops plus both byte counters in one lock acquisition — the
/// common shape for phase-cost attribution.
#[inline]
pub fn add_cost(name: &str, flops: u64, relative: u64, absolute: u64) {
    if !is_enabled() {
        return;
    }
    let mut c = lock(&COLLECTOR);
    let p = c.phase_mut(name);
    p.flops = p.flops.saturating_add(flops);
    p.relative_bytes = p.relative_bytes.saturating_add(relative);
    p.absolute_bytes = p.absolute_bytes.saturating_add(absolute);
}

/// Add modeled PE cycles to a phase (WSE simulator attribution,
/// saturating).
#[inline]
pub fn add_cycles(name: &str, cycles: u64) {
    if !is_enabled() {
        return;
    }
    let mut c = lock(&COLLECTOR);
    let p = c.phase_mut(name);
    p.cycles = p.cycles.saturating_add(cycles);
}

/// Add resident SRAM bytes to a phase (WSE simulator attribution,
/// saturating).
#[inline]
pub fn add_sram_bytes(name: &str, bytes: u64) {
    if !is_enabled() {
        return;
    }
    let mut c = lock(&COLLECTOR);
    let p = c.phase_mut(name);
    p.sram_bytes = p.sram_bytes.saturating_add(bytes);
}

/// Add solver iterations to a phase's iteration counter (saturating).
#[inline]
pub fn add_iterations(name: &str, iterations: u64) {
    if !is_enabled() {
        return;
    }
    let mut c = lock(&COLLECTOR);
    let p = c.phase_mut(name);
    p.iterations = p.iterations.saturating_add(iterations);
}

/// Append one per-iteration solver row (and bump the solver phase's
/// iteration counter). `initial_residual` is the residual of the
/// starting iterate (`‖b‖` for a zero initial guess), recorded on every
/// row so any subsequence of the trace stays self-scaling.
#[inline]
pub fn record_solver_iteration(
    solver: &'static str,
    iteration: u64,
    residual: f32,
    initial_residual: f32,
    nanos: u64,
) {
    if !is_enabled() {
        return;
    }
    let mut c = lock(&COLLECTOR);
    c.iterations.push(SolverIteration {
        solver: solver.to_string(),
        iteration,
        residual,
        initial_residual,
        nanos,
    });
    let p = c.phase_mut(solver);
    p.iterations = p.iterations.saturating_add(1);
}

/// Accumulate a row-major 2-D grid counter (element-wise saturating
/// adds under one lock acquisition).
///
/// The **first** call for a `name` fixes the grid's dimensions. Later
/// calls must pass the same `rows × cols`; a mismatched call — or any
/// call where `cells.len() != rows · cols` — is ignored rather than
/// resized, so a grid can never silently change shape mid-trace (a
/// caller sizes its grid from the tiling before the first add, so a
/// mismatch is always a caller bug, not data).
#[inline]
pub fn add_grid(name: &str, rows: usize, cols: usize, cells: &[u64]) {
    if !is_enabled() {
        return;
    }
    if cells.len() != rows.saturating_mul(cols) {
        return;
    }
    let mut c = lock(&COLLECTOR);
    let (grows, gcols, gcells) = c
        .grids
        .entry(name.to_string())
        .or_insert_with(|| (rows, cols, vec![0u64; cells.len()]));
    if *grows != rows || *gcols != cols {
        return;
    }
    for (dst, &src) in gcells.iter_mut().zip(cells) {
        *dst = dst.saturating_add(src);
    }
}

/// Count one compressed tile of the given rank into the histogram.
#[inline]
pub fn record_tile_rank(rank: usize) {
    if !is_enabled() {
        return;
    }
    let mut c = lock(&COLLECTOR);
    let tiles = c.ranks.entry(crate::cast::to_u64(rank)).or_insert(0);
    *tiles = tiles.saturating_add(1);
}

/// Snapshot everything collected since the last [`reset`] into a
/// serializable report. Collection continues unaffected.
pub fn snapshot() -> TraceReport {
    let c = lock(&COLLECTOR);
    TraceReport {
        phases: c
            .phases
            .iter()
            .map(|(name, stats)| PhaseEntry {
                name: name.clone(),
                stats: *stats,
            })
            .collect(),
        solver_iterations: c.iterations.clone(),
        rank_histogram: c
            .ranks
            .iter()
            .map(|(&rank, &tiles)| RankBucket { rank, tiles })
            .collect(),
        latency: c
            .latency
            .iter()
            .map(|(name, dense)| {
                let buckets: Vec<LatencyBucket> = dense
                    .0
                    .iter()
                    .enumerate()
                    .filter(|(_, &count)| count > 0)
                    .map(|(b, &count)| LatencyBucket {
                        floor_ns: bucket_floor(b),
                        count,
                    })
                    .collect();
                let count = buckets.iter().fold(0u64, |a, b| a.saturating_add(b.count));
                let mut entry = LatencyEntry {
                    name: name.clone(),
                    count,
                    p50_ns: 0,
                    p95_ns: 0,
                    p99_ns: 0,
                    buckets,
                };
                entry.p50_ns = entry.percentile_ns(0.50);
                entry.p95_ns = entry.percentile_ns(0.95);
                entry.p99_ns = entry.percentile_ns(0.99);
                entry
            })
            .collect(),
        span_events: c.events.clone(),
        dropped_span_events: c.dropped_events,
        grids: c
            .grids
            .iter()
            .map(|(name, (rows, cols, cells))| GridEntry {
                name: name.clone(),
                rows: crate::cast::to_u64(*rows),
                cols: crate::cast::to_u64(*cols),
                cells: cells.clone(),
            })
            .collect(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Serializes tests that flip the global enable flag, so parallel
    /// test threads cannot observe each other's tracing windows.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn locked() -> std::sync::MutexGuard<'static, ()> {
        lock(&TEST_LOCK)
    }

    #[test]
    fn disabled_tracing_collects_nothing() {
        let _g = locked();
        reset();
        set_enabled(false);
        {
            let _s = span("test.trace.disabled");
            add_flops("test.trace.disabled", 10);
            add_bytes("test.trace.disabled", 1, 2);
            record_tile_rank(3);
            record_solver_iteration("test.trace.disabled", 1, 0.5, 2.0, 7);
        }
        let rep = snapshot();
        assert!(rep.phase("test.trace.disabled").is_none());
        assert!(rep.solver_iterations.is_empty());
        assert!(rep.rank_histogram.is_empty());
    }

    #[test]
    fn span_and_counters_accumulate() {
        let _g = locked();
        reset();
        set_enabled(true);
        for _ in 0..3 {
            let _s = span("test.trace.acc");
            add_cost("test.trace.acc", 100, 40, 120);
        }
        add_cycles("test.trace.acc", 9);
        add_sram_bytes("test.trace.acc", 512);
        add_iterations("test.trace.acc", 2);
        set_enabled(false);
        let rep = snapshot();
        let p = rep.phase("test.trace.acc").map(|p| p.stats);
        let p = p.unwrap_or_default();
        assert_eq!(p.calls, 3);
        assert_eq!(p.flops, 300);
        assert_eq!(p.relative_bytes, 120);
        assert_eq!(p.absolute_bytes, 360);
        assert_eq!(p.cycles, 9);
        assert_eq!(p.sram_bytes, 512);
        assert_eq!(p.iterations, 2);
    }

    #[test]
    fn nested_spans_account_their_own_lifetimes() {
        let _g = locked();
        reset();
        set_enabled(true);
        {
            let _outer = span("test.trace.outer");
            {
                let _inner = span("test.trace.inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        set_enabled(false);
        let rep = snapshot();
        let outer = rep.phase("test.trace.outer").map(|p| p.stats.nanos);
        let inner = rep.phase("test.trace.inner").map(|p| p.stats.nanos);
        let (outer, inner) = (outer.unwrap_or(0), inner.unwrap_or(0));
        assert!(inner > 0, "inner span must record time");
        assert!(
            outer >= inner,
            "outer span includes inner: {outer} vs {inner}"
        );
    }

    #[test]
    fn record_duration_feeds_counters_and_histogram() {
        let _g = locked();
        reset();
        set_enabled(true);
        record_duration("test.dur", 1 << 20);
        record_duration("test.dur", 1 << 20);
        record_duration("test.dur", 1 << 10);
        set_enabled(false);
        let rep = snapshot();
        let p = rep.phase("test.dur").map(|p| p.stats).unwrap_or_default();
        assert_eq!(p.calls, 3);
        assert_eq!(p.nanos, (1 << 21) + (1 << 10));
        let lat = rep.latency_for("test.dur").expect("latency entry");
        assert_eq!(lat.count, 3);
        assert_eq!(lat.p50_ns, 1 << 20);
        // No span event: the interval has no on-thread span to stamp.
        assert!(rep.span_events.iter().all(|e| e.name != "test.dur"));
    }

    #[test]
    fn record_duration_respects_disable() {
        let _g = locked();
        reset();
        set_enabled(false);
        record_duration("test.dur.off", 123);
        let rep = snapshot();
        assert!(rep.phase("test.dur.off").is_none());
        assert!(rep.latency_for("test.dur.off").is_none());
    }

    #[test]
    fn rank_histogram_buckets() {
        let _g = locked();
        reset();
        set_enabled(true);
        for r in [3usize, 3, 5, 3, 0] {
            record_tile_rank(r);
        }
        set_enabled(false);
        let rep = snapshot();
        assert_eq!(
            rep.rank_histogram,
            vec![
                RankBucket { rank: 0, tiles: 1 },
                RankBucket { rank: 3, tiles: 3 },
                RankBucket { rank: 5, tiles: 1 },
            ]
        );
    }

    /// The satellite regression test: a counter wound to `u64::MAX`
    /// pins there on further increments instead of wrapping.
    #[test]
    fn counters_saturate_at_u64_max() {
        let _g = locked();
        reset();
        set_enabled(true);
        add_flops("test.sat", u64::MAX - 5);
        add_flops("test.sat", 100);
        add_bytes("test.sat", u64::MAX, u64::MAX - 1);
        add_bytes("test.sat", 1, 2);
        add_cost("test.sat", u64::MAX, u64::MAX, u64::MAX);
        add_cycles("test.sat", u64::MAX);
        add_cycles("test.sat", u64::MAX);
        add_sram_bytes("test.sat", u64::MAX);
        add_sram_bytes("test.sat", 9);
        add_iterations("test.sat", u64::MAX);
        add_iterations("test.sat", 7);
        set_enabled(false);
        let p = snapshot().phase("test.sat").map(|p| p.stats);
        let p = p.unwrap_or_default();
        assert_eq!(p.flops, u64::MAX);
        assert_eq!(p.relative_bytes, u64::MAX);
        assert_eq!(p.absolute_bytes, u64::MAX);
        assert_eq!(p.cycles, u64::MAX);
        assert_eq!(p.sram_bytes, u64::MAX);
        assert_eq!(p.iterations, u64::MAX);
    }

    #[test]
    fn spans_feed_latency_histogram_and_events() {
        let _g = locked();
        reset();
        set_enabled(true);
        for _ in 0..4 {
            let _s = span("test.lat");
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        set_enabled(false);
        let rep = snapshot();
        let lat = rep.latency_for("test.lat").expect("latency entry");
        assert_eq!(lat.count, 4);
        assert!(lat.p50_ns <= lat.p95_ns && lat.p95_ns <= lat.p99_ns);
        // ≥ 100 µs of sleep puts the median's bucket floor at ≥ 2^16 ns.
        assert!(lat.p50_ns >= (1 << 16), "p50 {} too small", lat.p50_ns);
        let events: Vec<_> = rep
            .span_events
            .iter()
            .filter(|e| e.name == "test.lat")
            .collect();
        assert_eq!(events.len(), 4);
        // Completion order means monotonically non-decreasing starts.
        for w in events.windows(2) {
            assert!(w[0].start_ns <= w[1].start_ns);
            assert!(w[0].dur_ns > 0);
        }
        assert_eq!(rep.dropped_span_events, 0);
    }

    /// Satellite regression test: an empty latency histogram returns the
    /// documented sentinel for every quantile — never a fake 0 ns.
    #[test]
    fn empty_histogram_percentile_is_sentinel() {
        let empty = LatencyEntry {
            name: "test.empty".to_string(),
            count: 0,
            p50_ns: 0,
            p95_ns: 0,
            p99_ns: 0,
            buckets: vec![],
        };
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(empty.percentile_ns(q), LATENCY_EMPTY_SENTINEL);
        }
    }

    /// Satellite regression test: a single-sample histogram returns the
    /// exact bucket floor of the one observation for every quantile —
    /// a defined value, not an interpolated midpoint.
    #[test]
    fn single_sample_percentile_is_exact_bucket_floor() {
        let _g = locked();
        reset();
        set_enabled(true);
        {
            let _s = span("test.single");
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        set_enabled(false);
        let rep = snapshot();
        let lat = rep.latency_for("test.single").expect("latency entry");
        assert_eq!(lat.count, 1);
        let floor = lat.buckets[0].floor_ns;
        assert_ne!(floor, LATENCY_EMPTY_SENTINEL);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(lat.percentile_ns(q), floor);
        }
        assert_eq!((lat.p50_ns, lat.p95_ns, lat.p99_ns), (floor, floor, floor));
    }

    #[test]
    fn grid_counters_accumulate_elementwise() {
        let _g = locked();
        reset();
        set_enabled(true);
        add_grid("test.grid", 2, 3, &[1, 2, 3, 4, 5, 6]);
        add_grid("test.grid", 2, 3, &[10, 0, 0, 0, 0, 1]);
        // Mismatched dims and mismatched length: both ignored.
        add_grid("test.grid", 3, 2, &[9, 9, 9, 9, 9, 9]);
        add_grid("test.grid", 2, 3, &[1, 1]);
        set_enabled(false);
        let rep = snapshot();
        let g = rep.grid_for("test.grid").expect("grid entry");
        assert_eq!((g.rows, g.cols), (2, 3));
        assert_eq!(g.cells, vec![11, 2, 3, 4, 5, 7]);
        assert_eq!(g.total(), 32);
    }

    #[test]
    fn grid_counters_saturate_and_respect_disable() {
        let _g = locked();
        reset();
        set_enabled(false);
        add_grid("test.grid.off", 1, 1, &[5]);
        set_enabled(true);
        add_grid("test.grid.sat", 1, 2, &[u64::MAX - 1, 0]);
        add_grid("test.grid.sat", 1, 2, &[7, 3]);
        set_enabled(false);
        let rep = snapshot();
        assert!(rep.grid_for("test.grid.off").is_none());
        let g = rep.grid_for("test.grid.sat").expect("grid entry");
        assert_eq!(g.cells, vec![u64::MAX, 3]);
    }

    #[test]
    fn bucket_index_and_floor_are_inverse_enough() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(u64::MAX), 63);
        for b in 0..LATENCY_BUCKETS {
            let f = bucket_floor(b);
            assert_eq!(bucket_index(f.max(1)), if b == 0 { 0 } else { b });
        }
    }
}
