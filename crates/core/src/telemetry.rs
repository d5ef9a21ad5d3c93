//! Serving-grade telemetry: a flight recorder and OpenMetrics text
//! exposition (DESIGN.md §14).
//!
//! Two layers, each usable on its own:
//!
//! * **Flight recorder** — [`FlightRecorder`] keeps one fixed-capacity
//!   ring of typed events per engine worker (plus one *external* ring
//!   for submissions), each behind its own mutex.
//!   Recording is allocation-free (the HP01 lint holds the record path
//!   to that); readers merge all rings into one timestamp-ordered
//!   [`FlightEvent`] list, locking one ring at a time.
//! * **Metrics** — [`MetricFamily`] values render to the
//!   OpenMetrics/Prometheus text format via [`render_openmetrics`], and
//!   [`check_openmetrics`] validates an exposition (HELP/TYPE lines,
//!   label escaping, monotone histogram buckets ending in `+Inf`).
//!   [`trace_metric_families`] derives families from a
//!   [`TraceReport`]'s phase counters and latency histograms.
//!
//! Event timestamps count nanoseconds from the recorder's creation
//! ([`FlightRecorder::now_ns`]).

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use seismic_la::sync::lock;

use crate::trace::TraceReport;

/// Zero-cost hot-path marker. The `xtask` HP01 lint treats the rest of
/// the enclosing block as allocation-free territory, exactly like a
/// `trace::span(..)` region; the call itself compiles to nothing.
#[inline(always)]
pub fn hot_path(_label: &'static str) {}

/// The event vocabulary of the flight recorder.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A job entered the scheduler (external ring; `a` = job id,
    /// `b` = queue depth after enqueue).
    JobSubmitted,
    /// An idle worker stole a job from a peer's deque (`a` = job id,
    /// `b` = victim worker).
    JobStolen,
    /// A worker began executing a job (`a` = job id, `b` = queue-wait
    /// nanoseconds).
    JobStarted,
    /// A worker finished a job (`a` = job id, `b` = execution
    /// nanoseconds).
    JobFinished,
}

/// One decoded flight-recorder event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Ring the event was recorded on (worker id, or
    /// [`FlightRecorder::external_ring`]).
    pub ring: u64,
    /// Nanoseconds since the recorder was created.
    pub ts_ns: u64,
    /// Event kind.
    pub kind: EventKind,
    /// First payload word (see [`EventKind`] per-variant docs).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

/// One ring: `capacity` preallocated slots written round-robin. Aligned
/// to a cache line so neighbouring rings' heads do not share one (two
/// workers on their own rings read 117 ns per event unaligned, 18 ns
/// aligned — EXPERIMENTS.md).
#[repr(align(64))]
struct Ring {
    slots: Box<[FlightEvent]>,
    /// Events ever recorded on this ring; the next one lands in slot
    /// `head % capacity`.
    head: u64,
}

/// Per-worker ring buffers of typed events, one mutex per ring.
///
/// Layout: `workers + 1` rings of `capacity` [`FlightEvent`] slots,
/// allocated once in [`FlightRecorder::new`]. The last ring is the
/// *external* ring for events with no owning worker (job submission),
/// so it is the one ring many threads write.
///
/// A writer locks its ring, stores one slot and bumps the head; a reader
/// locks one ring at a time and copies out the newest
/// `min(recorded, capacity)` events. The critical sections are a few
/// words long and no caller holds another lock while recording
/// (DESIGN.md §15), so a ring's mutex is the whole protocol: no event is
/// skipped, none is a mix of two.
pub struct FlightRecorder {
    capacity: usize,
    base: Instant,
    rings: Box<[Mutex<Ring>]>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("rings", &self.rings.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder with one ring per worker plus the external ring, each
    /// holding `capacity` events (min 2).
    pub fn new(workers: usize, capacity: usize) -> Self {
        let capacity = capacity.max(2);
        let rings = (0..workers.saturating_add(1))
            .map(|ring| {
                let empty = FlightEvent {
                    ring: u64::try_from(ring).unwrap_or(u64::MAX),
                    ts_ns: 0,
                    kind: EventKind::JobSubmitted,
                    a: 0,
                    b: 0,
                };
                Mutex::new(Ring {
                    slots: vec![empty; capacity].into_boxed_slice(),
                    head: 0,
                })
            })
            .collect();
        Self {
            capacity,
            base: Instant::now(),
            rings,
        }
    }

    /// Number of rings (workers + 1).
    pub fn rings(&self) -> usize {
        self.rings.len()
    }

    /// Slots per ring.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Index of the external ring (submit events).
    pub fn external_ring(&self) -> usize {
        self.rings.len() - 1
    }

    /// Total events ever recorded on `ring` (including overwritten
    /// ones); 0 for an out-of-range ring.
    pub fn recorded(&self, ring: usize) -> u64 {
        self.rings.get(ring).map_or(0, |r| lock(r).head)
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record an event stamped with [`FlightRecorder::now_ns`].
    pub fn record(&self, ring: usize, kind: EventKind, a: u64, b: u64) {
        self.record_at(ring, self.now_ns(), kind, a, b);
    }

    /// Record an event with an explicit timestamp (deterministic
    /// tests). Out-of-range rings are ignored.
    pub fn record_at(&self, ring: usize, ts_ns: u64, kind: EventKind, a: u64, b: u64) {
        crate::telemetry::hot_path("telemetry.record");
        let Some(r) = self.rings.get(ring) else {
            return;
        };
        let mut r = lock(r);
        let at = r.next_slot();
        let slot = &mut r.slots[at];
        slot.ts_ns = ts_ns;
        slot.kind = kind;
        slot.a = a;
        slot.b = b;
        r.head += 1;
    }

    /// Non-destructive merged drain: the newest `min(recorded,
    /// capacity)` events of every ring, sorted by timestamp, then ring;
    /// events of one ring with equal timestamps keep their write order. Each
    /// ring is copied under its own lock, one at a time, so a writer
    /// waits for at most one ring's copy.
    pub fn snapshot_events(&self) -> Vec<FlightEvent> {
        let mut out: Vec<FlightEvent> =
            Vec::with_capacity(self.rings.len().saturating_mul(self.capacity));
        for ring in self.rings.iter() {
            let r = lock(ring);
            // Oldest first, the slots read from the next write position
            // round; before the ring first wraps, the slots from the
            // head on were never written.
            let (newer, older) = r.slots.split_at(r.next_slot());
            if usize::try_from(r.head).map_or(true, |h| h >= self.capacity) {
                out.extend_from_slice(older);
            }
            out.extend_from_slice(newer);
        }
        out.sort_by_key(|e| (e.ts_ns, e.ring));
        out
    }
}

impl Ring {
    /// Slot the next event lands in.
    fn next_slot(&self) -> usize {
        let cap = u64::try_from(self.slots.len()).unwrap_or(u64::MAX);
        usize::try_from(self.head % cap).unwrap_or(0)
    }
}

/// Metric family kind, mirroring the OpenMetrics `# TYPE` vocabulary
/// this module emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter (samples rendered with the `_total` suffix).
    Counter,
    /// Instantaneous value.
    Gauge,
    /// Cumulative-bucket histogram (`_bucket`/`_count`/`_sum` samples).
    Histogram,
}

impl MetricKind {
    fn token(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One sample's value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// A plain number (counters and gauges).
    Scalar(f64),
    /// A histogram: `(upper_bound, cumulative_count)` buckets in
    /// ascending bound order (the renderer appends the `+Inf` bucket),
    /// plus the observation count and value sum.
    Histogram {
        /// Cumulative buckets, ascending `le`.
        buckets: Vec<(f64, u64)>,
        /// Total observations (the `+Inf` bucket and `_count` sample).
        count: u64,
        /// Sum of observed values (the `_sum` sample).
        sum: f64,
    },
}

impl MetricValue {
    /// A scalar sample from an integer counter.
    pub fn from_u64(v: u64) -> Self {
        MetricValue::Scalar(v as f64)
    }
}

/// One labeled sample within a [`MetricFamily`].
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSample {
    /// Label pairs, rendered in order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: MetricValue,
}

/// A named metric with HELP text, TYPE, and samples.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricFamily {
    /// Metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`; counters are rendered
    /// with `_total` appended).
    pub name: String,
    /// `# HELP` line body.
    pub help: String,
    /// Family kind.
    pub kind: MetricKind,
    /// Samples, in render order.
    pub samples: Vec<MetricSample>,
}

impl MetricFamily {
    /// An empty family.
    pub fn new(name: &str, help: &str, kind: MetricKind) -> Self {
        Self {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            samples: Vec::new(),
        }
    }

    /// A counter or gauge with one unlabeled sample.
    pub fn scalar(name: &str, help: &str, kind: MetricKind, value: f64) -> Self {
        let mut f = Self::new(name, help, kind);
        f.push(&[], MetricValue::Scalar(value));
        f
    }

    /// Append a sample.
    pub fn push(&mut self, labels: &[(&str, &str)], value: MetricValue) {
        self.samples.push(MetricSample {
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
        });
    }
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    format!("{{{}}}", parts.join(","))
}

fn render_le(le: f64) -> String {
    if le.is_infinite() {
        "+Inf".to_string()
    } else {
        format!("{le}")
    }
}

/// Render metric families to OpenMetrics/Prometheus text format,
/// terminated by `# EOF`.
pub fn render_openmetrics(families: &[MetricFamily]) -> String {
    let mut out = String::new();
    for f in families {
        out.push_str(&format!("# HELP {} {}\n", f.name, f.help));
        out.push_str(&format!("# TYPE {} {}\n", f.name, f.kind.token()));
        for s in &f.samples {
            match (&f.kind, &s.value) {
                (MetricKind::Counter, MetricValue::Scalar(v)) => {
                    out.push_str(&format!(
                        "{}_total{} {v}\n",
                        f.name,
                        render_labels(&s.labels, None)
                    ));
                }
                (MetricKind::Gauge, MetricValue::Scalar(v)) => {
                    out.push_str(&format!(
                        "{}{} {v}\n",
                        f.name,
                        render_labels(&s.labels, None)
                    ));
                }
                (
                    MetricKind::Histogram,
                    MetricValue::Histogram {
                        buckets,
                        count,
                        sum,
                    },
                ) => {
                    for (le, cum) in buckets {
                        out.push_str(&format!(
                            "{}_bucket{} {cum}\n",
                            f.name,
                            render_labels(&s.labels, Some(("le", &render_le(*le))))
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {count}\n",
                        f.name,
                        render_labels(&s.labels, Some(("le", "+Inf")))
                    ));
                    out.push_str(&format!(
                        "{}_count{} {count}\n",
                        f.name,
                        render_labels(&s.labels, None)
                    ));
                    out.push_str(&format!(
                        "{}_sum{} {sum}\n",
                        f.name,
                        render_labels(&s.labels, None)
                    ));
                }
                // Kind/value mismatches render as a gauge-style sample;
                // the checker will reject the exposition, which is the
                // loudest honest behavior short of panicking.
                (_, MetricValue::Scalar(v)) => {
                    out.push_str(&format!(
                        "{}{} {v}\n",
                        f.name,
                        render_labels(&s.labels, None)
                    ));
                }
                (_, MetricValue::Histogram { count, .. }) => {
                    out.push_str(&format!(
                        "{}{} {count}\n",
                        f.name,
                        render_labels(&s.labels, None)
                    ));
                }
            }
        }
    }
    out.push_str("# EOF\n");
    out
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    (first.is_ascii_alphabetic() || first == '_' || first == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parse the label block body (between `{` and `}`) into pairs,
/// validating escapes. Returns `(pairs, consumed_ok)`.
fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut pairs = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label pair without '=': {rest}"))?;
        let key = &rest[..eq];
        if !valid_metric_name(key) {
            return Err(format!("invalid label name '{key}'"));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("label value for '{key}' is not quoted"));
        }
        let mut value = String::new();
        let mut chars = after[1..].char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, 'n')) => value.push('\n'),
                    other => {
                        return Err(format!(
                            "invalid escape '\\{}' in label '{key}'",
                            other.map_or(String::new(), |(_, c)| c.to_string())
                        ))
                    }
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value for '{key}'"))?;
        pairs.push((key.to_string(), value));
        rest = &after[1 + end + 1..];
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
            if rest.is_empty() {
                return Err("trailing comma in label block".to_string());
            }
        } else if !rest.is_empty() {
            return Err(format!("junk after label value: {rest}"));
        }
    }
    Ok(pairs)
}

/// Split a sample line into `(name, label_body, value)`.
fn split_sample(line: &str) -> Result<(&str, &str, &str), String> {
    if let Some(brace) = line.find('{') {
        let name = &line[..brace];
        // Find the closing brace, honoring quotes and escapes.
        let body = &line[brace + 1..];
        let mut in_quotes = false;
        let mut escaped = false;
        for (i, c) in body.char_indices() {
            if escaped {
                escaped = false;
                continue;
            }
            match c {
                '\\' if in_quotes => escaped = true,
                '"' => in_quotes = !in_quotes,
                '}' if !in_quotes => {
                    let value = body[i + 1..].trim_start();
                    return Ok((name, &body[..i], value));
                }
                _ => {}
            }
        }
        Err(format!("unterminated label block: {line}"))
    } else {
        let sp = line
            .find(' ')
            .ok_or_else(|| format!("sample line without value: {line}"))?;
        Ok((&line[..sp], "", line[sp + 1..].trim_start()))
    }
}

/// Validate an OpenMetrics text exposition (the subset
/// [`render_openmetrics`] emits): every sample belongs to a family with
/// `# HELP` and `# TYPE` lines, names and label escapes are well
/// formed, histogram buckets are cumulative with strictly increasing
/// bounds ending in `+Inf`, `_count` matches the `+Inf` bucket, and the
/// document ends with `# EOF`. Returns the sample count.
pub fn check_openmetrics(text: &str) -> Result<usize, String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut helps: Vec<String> = Vec::new();
    let mut samples = 0usize;
    let mut eof = false;
    // (family, labels-without-le) -> ascending (le, cumulative count).
    let mut hist: BTreeMap<(String, String), Vec<(f64, u64)>> = BTreeMap::new();
    let mut hist_count: BTreeMap<(String, String), u64> = BTreeMap::new();
    let mut hist_sum: Vec<(String, String)> = Vec::new();

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim_end();
        if eof && !line.is_empty() {
            return Err(format!("line {lineno}: content after # EOF"));
        }
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            if rest == "EOF" {
                eof = true;
            } else if let Some(h) = rest.strip_prefix("HELP ") {
                let name = h.split_whitespace().next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(format!("line {lineno}: HELP for invalid name '{name}'"));
                }
                helps.push(name.to_string());
            } else if let Some(t) = rest.strip_prefix("TYPE ") {
                let mut it = t.split_whitespace();
                let name = it.next().unwrap_or("");
                let kind = it.next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(format!("line {lineno}: TYPE for invalid name '{name}'"));
                }
                if !matches!(kind, "counter" | "gauge" | "histogram") {
                    return Err(format!("line {lineno}: unknown metric type '{kind}'"));
                }
                if types.insert(name.to_string(), kind.to_string()).is_some() {
                    return Err(format!("line {lineno}: duplicate TYPE for '{name}'"));
                }
            } else {
                return Err(format!("line {lineno}: unrecognized comment '{line}'"));
            }
            continue;
        }
        // A sample line.
        let (name, label_body, value) =
            split_sample(line).map_err(|e| format!("line {lineno}: {e}"))?;
        if !valid_metric_name(name) {
            return Err(format!("line {lineno}: invalid metric name '{name}'"));
        }
        let labels = parse_labels(label_body).map_err(|e| format!("line {lineno}: {e}"))?;
        let special = matches!(value, "+Inf" | "-Inf" | "NaN");
        if !special && value.parse::<f64>().is_err() {
            return Err(format!("line {lineno}: unparseable value '{value}'"));
        }
        // Resolve the owning family from the declared TYPEs.
        let candidates: [(&str, &str); 5] = [
            (name.strip_suffix("_bucket").unwrap_or(""), "bucket"),
            (name.strip_suffix("_count").unwrap_or(""), "count"),
            (name.strip_suffix("_sum").unwrap_or(""), "sum"),
            (name.strip_suffix("_total").unwrap_or(""), "total"),
            (name, "plain"),
        ];
        let mut resolved = None;
        for (family, role) in candidates {
            if family.is_empty() {
                continue;
            }
            let Some(kind) = types.get(family) else {
                continue;
            };
            let ok = matches!(
                (kind.as_str(), role),
                ("counter", "total")
                    | ("gauge", "plain")
                    | ("histogram", "bucket" | "count" | "sum")
            );
            if ok {
                resolved = Some((family.to_string(), role));
                break;
            }
        }
        let Some((family, role)) = resolved else {
            return Err(format!(
                "line {lineno}: sample '{name}' matches no declared # TYPE"
            ));
        };
        if !helps.contains(&family) {
            return Err(format!("line {lineno}: family '{family}' has no # HELP"));
        }
        samples += 1;
        if role == "bucket" || role == "count" || role == "sum" {
            let series_labels: Vec<&(String, String)> =
                labels.iter().filter(|(k, _)| k != "le").collect();
            let series_key = series_labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(",");
            match role {
                "bucket" => {
                    let le_str = labels
                        .iter()
                        .find(|(k, _)| k == "le")
                        .map(|(_, v)| v.as_str())
                        .ok_or_else(|| format!("line {lineno}: _bucket without 'le' label"))?;
                    let le = if le_str == "+Inf" {
                        f64::INFINITY
                    } else {
                        le_str
                            .parse::<f64>()
                            .map_err(|_| format!("line {lineno}: unparseable le '{le_str}'"))?
                    };
                    let cum = value.parse::<u64>().map_err(|_| {
                        format!("line {lineno}: non-integer bucket count '{value}'")
                    })?;
                    hist.entry((family, series_key))
                        .or_default()
                        .push((le, cum));
                }
                "count" => {
                    let c = value
                        .parse::<u64>()
                        .map_err(|_| format!("line {lineno}: non-integer _count '{value}'"))?;
                    hist_count.insert((family, series_key), c);
                }
                _ => hist_sum.push((family, series_key)),
            }
        }
    }
    if !eof {
        return Err("missing terminal # EOF".to_string());
    }
    for ((family, series), buckets) in &hist {
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_cum = 0u64;
        for (le, cum) in buckets {
            if *le <= prev_le {
                return Err(format!(
                    "histogram '{family}'{{{series}}}: le bounds not strictly increasing"
                ));
            }
            if *cum < prev_cum {
                return Err(format!(
                    "histogram '{family}'{{{series}}}: bucket counts not monotone"
                ));
            }
            prev_le = *le;
            prev_cum = *cum;
        }
        let Some((last_le, last_cum)) = buckets.last() else {
            continue;
        };
        if !last_le.is_infinite() {
            return Err(format!(
                "histogram '{family}'{{{series}}}: buckets must end in le=\"+Inf\""
            ));
        }
        let key = (family.clone(), series.clone());
        match hist_count.get(&key) {
            Some(c) if c == last_cum => {}
            Some(c) => {
                return Err(format!(
                    "histogram '{family}'{{{series}}}: _count {c} != +Inf bucket {last_cum}"
                ))
            }
            None => {
                return Err(format!(
                    "histogram '{family}'{{{series}}}: missing _count sample"
                ))
            }
        }
        if !hist_sum.contains(&key) {
            return Err(format!(
                "histogram '{family}'{{{series}}}: missing _sum sample"
            ));
        }
    }
    Ok(samples)
}

/// Derive metric families from a trace report: per-phase call/nanosecond
/// counters, one `stage_latency_ns` histogram per latency stage
/// (log2 bucket floors become `le = 2·floor` upper bounds), and — when
/// the accuracy observatory recorded anything — `accuracy_grid_total`
/// gauges (one per `accuracy.*` grid), an `accuracy_tile_rank`
/// histogram over the compression rank histogram, and a
/// `solver_relative_residual` gauge carrying each solver's latest
/// scale-free residual.
pub fn trace_metric_families(report: &TraceReport) -> Vec<MetricFamily> {
    let mut calls = MetricFamily::new(
        "trace_phase_calls",
        "Calls recorded per trace phase.",
        MetricKind::Counter,
    );
    let mut nanos = MetricFamily::new(
        "trace_phase_nanos",
        "Wall nanoseconds accumulated per trace phase.",
        MetricKind::Counter,
    );
    for p in &report.phases {
        calls.push(&[("phase", &p.name)], MetricValue::from_u64(p.stats.calls));
        nanos.push(&[("phase", &p.name)], MetricValue::from_u64(p.stats.nanos));
    }
    let mut lat = MetricFamily::new(
        "stage_latency_ns",
        "Per-stage latency distribution (log2 buckets), nanoseconds.",
        MetricKind::Histogram,
    );
    for e in &report.latency {
        let mut cum = 0u64;
        let mut buckets = Vec::new();
        for b in &e.buckets {
            cum = cum.saturating_add(b.count);
            let le = if b.floor_ns == 0 {
                2.0
            } else {
                b.floor_ns.saturating_mul(2) as f64
            };
            buckets.push((le, cum));
        }
        let sum = report.phase(&e.name).map_or(0, |p| p.stats.nanos) as f64;
        lat.push(
            &[("stage", &e.name)],
            MetricValue::Histogram {
                buckets,
                count: e.count,
                sum,
            },
        );
    }
    let mut out = vec![calls, nanos];
    if !lat.samples.is_empty() {
        out.push(lat);
    }

    let mut grid_totals = MetricFamily::new(
        "accuracy_grid_total",
        "Total of each accuracy-observatory grid (ranks, stored bytes, tail ppb).",
        MetricKind::Gauge,
    );
    for g in &report.grids {
        if g.name.starts_with("accuracy.") {
            grid_totals.push(&[("grid", &g.name)], MetricValue::from_u64(g.total()));
        }
    }
    if !grid_totals.samples.is_empty() {
        out.push(grid_totals);
    }

    if !report.rank_histogram.is_empty() {
        let mut ranks = MetricFamily::new(
            "accuracy_tile_rank",
            "Distribution of per-tile truncation ranks across compressed tiles.",
            MetricKind::Histogram,
        );
        let mut cum = 0u64;
        let mut count = 0u64;
        let mut sum = 0.0f64;
        let mut buckets = Vec::new();
        for b in &report.rank_histogram {
            cum = cum.saturating_add(b.tiles);
            count = count.saturating_add(b.tiles);
            sum += b.rank as f64 * b.tiles as f64;
            buckets.push((b.rank as f64, cum));
        }
        ranks.push(
            &[],
            MetricValue::Histogram {
                buckets,
                count,
                sum,
            },
        );
        out.push(ranks);
    }

    let mut residuals = MetricFamily::new(
        "solver_relative_residual",
        "Latest scale-free relative residual per iterative solver.",
        MetricKind::Gauge,
    );
    let mut last: BTreeMap<&str, f32> = BTreeMap::new();
    for row in &report.solver_iterations {
        last.insert(&row.solver, row.relative_residual());
    }
    for (solver, rel) in last {
        residuals.push(&[("solver", solver)], MetricValue::Scalar(f64::from(rel)));
    }
    if !residuals.samples.is_empty() {
        out.push(residuals);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn single_writer_wraparound_keeps_last_capacity_events() {
        let rec = FlightRecorder::new(1, 4);
        for i in 0..10u64 {
            rec.record_at(0, i, EventKind::JobSubmitted, i, 0);
        }
        let ring0: Vec<u64> = rec
            .snapshot_events()
            .iter()
            .filter(|e| e.ring == 0)
            .map(|e| e.ts_ns)
            .collect();
        assert_eq!(ring0, vec![6, 7, 8, 9], "ring keeps the newest 4 events");
        assert_eq!(rec.recorded(0), 10);
    }

    #[test]
    fn out_of_range_ring_is_ignored() {
        let rec = FlightRecorder::new(1, 4);
        rec.record_at(99, 1, EventKind::JobSubmitted, 0, 0);
        assert!(rec.snapshot_events().is_empty());
        assert_eq!(rec.external_ring(), 1);
    }

    proptest! {
        /// Wraparound: whatever the capacity and event count, a
        /// single-writer ring drains exactly the newest
        /// `min(n, capacity)` events, timestamp-sorted.
        #[test]
        fn ring_wraparound_is_exact(cap in 2usize..17, n in 0u64..60) {
            let rec = FlightRecorder::new(1, cap);
            for i in 0..n {
                rec.record_at(0, i, EventKind::JobStarted, i, i.wrapping_mul(3));
            }
            let got: Vec<u64> = rec
                .snapshot_events()
                .iter()
                .filter(|e| e.ring == 0)
                .map(|e| e.ts_ns)
                .collect();
            let keep = n.min(u64::try_from(cap).unwrap());
            let want: Vec<u64> = (n - keep..n).collect();
            prop_assert_eq!(got, want);
        }
    }

    const KINDS: [EventKind; 4] = [
        EventKind::JobSubmitted,
        EventKind::JobStolen,
        EventKind::JobStarted,
        EventKind::JobFinished,
    ];

    /// The event counter `c` stands for, stamped `ts_ns = c`: every field
    /// is a function of `c`, so a slot holding words of two events
    /// cannot pass [`is_whole`].
    fn fields_of(c: u64) -> (EventKind, u64, u64) {
        (KINDS[(c % 4) as usize], c.wrapping_mul(3), !c)
    }

    fn record_counter(rec: &FlightRecorder, ring: usize, c: u64) {
        let (kind, a, b) = fields_of(c);
        rec.record_at(ring, c, kind, a, b);
    }

    fn is_whole(e: &FlightEvent) -> bool {
        (e.kind, e.a, e.b) == fields_of(e.ts_ns)
    }

    fn ring_stamps(events: &[FlightEvent], ring: u64) -> Vec<u64> {
        events
            .iter()
            .filter(|e| e.ring == ring)
            .map(|e| e.ts_ns)
            .collect()
    }

    /// Writers racing on one ring (what the external ring is in
    /// production) while a reader snapshots throughout. Mid-flight, every
    /// event of every snapshot is one a writer wrote, and every ring
    /// holds the newest `min(recorded, capacity)`: never more than its
    /// capacity, never fewer than it had when the snapshot began. After
    /// the writers join, each ring holds exactly its newest events in
    /// write order. Capacity 2 laps a stalled writer at once, 1,024 is
    /// the serving size.
    #[test]
    fn racing_writers_on_one_ring_never_tear() {
        const WRITERS: u64 = 3;
        const PER_WRITER: u64 = 400_000;
        for cap in [2usize, 16, 1024] {
            // Ring 0 is shared by every writer, ring `w + 1` is writer
            // `w`'s own; writer `w` records the counters `w + 3·i`.
            let rec = FlightRecorder::new(WRITERS as usize, cap);
            let running = AtomicU64::new(WRITERS);
            let (mut torn, mut over, mut short) = (0usize, 0usize, 0usize);
            std::thread::scope(|s| {
                for w in 0..WRITERS {
                    let (rec, running) = (&rec, &running);
                    s.spawn(move || {
                        for i in 0..PER_WRITER {
                            record_counter(rec, 0, w + WRITERS * i);
                            record_counter(rec, w as usize + 1, w + WRITERS * i);
                        }
                        running.fetch_sub(1, Ordering::Relaxed);
                    });
                }
                while running.load(Ordering::Relaxed) > 0 {
                    let before: Vec<u64> = (0..rec.rings()).map(|r| rec.recorded(r)).collect();
                    let events = rec.snapshot_events();
                    torn += events.iter().filter(|e| !is_whole(e)).count();
                    for (ring, recorded) in before.into_iter().enumerate() {
                        let held = events.iter().filter(|e| e.ring == ring as u64).count();
                        over += usize::from(held > cap);
                        short += usize::from((held as u64) < recorded.min(cap as u64));
                    }
                }
            });
            assert_eq!(
                (torn, over, short),
                (0, 0, 0),
                "capacity {cap}: torn events / rings over capacity / rings short of \
                 min(recorded, capacity), summed over the mid-flight snapshots"
            );

            let events = rec.snapshot_events();
            assert!(events.iter().all(is_whole), "capacity {cap}");
            assert!(
                events
                    .windows(2)
                    .all(|p| (p[0].ts_ns, p[0].ring) <= (p[1].ts_ns, p[1].ring)),
                "capacity {cap}: merged drain ordered by (ts_ns, ring)"
            );
            let keep = PER_WRITER.min(cap as u64);
            for w in 0..WRITERS {
                assert_eq!(rec.recorded(w as usize + 1), PER_WRITER);
                let want: Vec<u64> = (PER_WRITER - keep..PER_WRITER)
                    .map(|i| w + WRITERS * i)
                    .collect();
                assert_eq!(
                    ring_stamps(&events, w + 1),
                    want,
                    "capacity {cap}, ring {}",
                    w + 1
                );
            }
            // The shared ring's newest `cap` events in lock order: from
            // each writer a gapless run ending at its last event.
            assert_eq!(rec.recorded(0), WRITERS * PER_WRITER);
            let shared = ring_stamps(&events, 0);
            assert_eq!(shared.len(), cap.min((WRITERS * PER_WRITER) as usize));
            for w in 0..WRITERS {
                let mine: Vec<u64> = shared
                    .iter()
                    .filter(|&&c| c % WRITERS == w)
                    .map(|&c| c / WRITERS)
                    .collect();
                let want: Vec<u64> = (PER_WRITER - mine.len() as u64..PER_WRITER).collect();
                assert_eq!(
                    mine, want,
                    "capacity {cap}: writer {w}'s survivors on ring 0"
                );
            }
        }
    }

    /// Equal timestamps on one ring drain in write order (not by kind or
    /// payload), across a wrap; equal timestamps on two rings drain in
    /// ring order.
    #[test]
    fn equal_timestamps_drain_in_write_order() {
        let rec = FlightRecorder::new(1, 4);
        let written = [
            (EventKind::JobStarted, 9),
            (EventKind::JobFinished, 7),
            (EventKind::JobFinished, 8),
            (EventKind::JobSubmitted, 0),
            (EventKind::JobStolen, 3),
            (EventKind::JobStarted, 1),
        ];
        rec.record_at(1, 5, EventKind::JobStolen, 0, 0);
        for (kind, a) in written {
            rec.record_at(0, 5, kind, a, 0);
        }
        let got: Vec<(u64, EventKind, u64)> = rec
            .snapshot_events()
            .iter()
            .map(|e| (e.ring, e.kind, e.a))
            .collect();
        let mut want: Vec<(u64, EventKind, u64)> =
            written[2..].iter().map(|&(kind, a)| (0, kind, a)).collect();
        want.push((1, EventKind::JobStolen, 0));
        assert_eq!(got, want);
    }

    fn sample_families() -> Vec<MetricFamily> {
        let mut jobs = MetricFamily::new("engine_jobs", "Jobs by state.", MetricKind::Counter);
        jobs.push(&[("state", "submitted")], MetricValue::from_u64(8));
        jobs.push(&[("state", "completed")], MetricValue::from_u64(8));
        let depth = MetricFamily::scalar(
            "engine_queue_depth",
            "Jobs waiting in the scheduler.",
            MetricKind::Gauge,
            3.0,
        );
        let mut lat = MetricFamily::new(
            "stage_latency_ns",
            "Latency distribution.",
            MetricKind::Histogram,
        );
        lat.push(
            &[("stage", "engine.queue_wait")],
            MetricValue::Histogram {
                buckets: vec![(2.0, 1), (4.0, 3), (8.0, 6)],
                count: 7,
                sum: 40.0,
            },
        );
        vec![jobs, depth, lat]
    }

    #[test]
    fn render_passes_checker_and_has_expected_lines() {
        let text = render_openmetrics(&sample_families());
        assert!(text.contains("# HELP engine_jobs Jobs by state.\n"));
        assert!(text.contains("# TYPE engine_jobs counter\n"));
        assert!(text.contains("engine_jobs_total{state=\"submitted\"} 8\n"));
        assert!(text.contains("engine_queue_depth 3\n"));
        assert!(text.contains("stage_latency_ns_bucket{stage=\"engine.queue_wait\",le=\"2\"} 1\n"));
        assert!(
            text.contains("stage_latency_ns_bucket{stage=\"engine.queue_wait\",le=\"+Inf\"} 7\n")
        );
        assert!(text.contains("stage_latency_ns_count{stage=\"engine.queue_wait\"} 7\n"));
        assert!(text.contains("stage_latency_ns_sum{stage=\"engine.queue_wait\"} 40\n"));
        assert!(text.ends_with("# EOF\n"));
        let n = check_openmetrics(&text).expect("renderer output validates");
        // 2 counter samples + 1 gauge + 4 buckets (incl. +Inf) + _count + _sum.
        assert_eq!(n, 2 + 1 + 4 + 1 + 1);
    }

    #[test]
    fn label_escaping_roundtrips_through_checker() {
        let mut f = MetricFamily::new("weird", "Labels with escapes.", MetricKind::Gauge);
        f.push(&[("path", "a\\b\"c\nd")], MetricValue::Scalar(1.0));
        let text = render_openmetrics(&[f]);
        assert!(text.contains("weird{path=\"a\\\\b\\\"c\\nd\"} 1\n"));
        check_openmetrics(&text).expect("escaped labels validate");
    }

    #[test]
    fn checker_rejects_malformed_expositions() {
        // Missing EOF.
        assert!(check_openmetrics("# HELP a b\n# TYPE a gauge\na 1\n").is_err());
        // Sample without TYPE.
        assert!(check_openmetrics("a 1\n# EOF\n").is_err());
        // Sample without HELP.
        assert!(check_openmetrics("# TYPE a gauge\na 1\n# EOF\n").is_err());
        // Counter sampled without _total suffix.
        assert!(check_openmetrics("# HELP a b\n# TYPE a counter\na 1\n# EOF\n").is_err());
        // Bad escape in a label value.
        assert!(check_openmetrics("# HELP a b\n# TYPE a gauge\na{l=\"x\\q\"} 1\n# EOF\n").is_err());
        // Histogram without +Inf terminal bucket.
        let h = "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_count 1\nh_sum 2\n# EOF\n";
        assert!(check_openmetrics(h).is_err());
        // Histogram with non-monotone counts.
        let h = "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"2\"} 5\nh_bucket{le=\"4\"} 3\n\
                 h_bucket{le=\"+Inf\"} 5\nh_count 5\nh_sum 2\n# EOF\n";
        assert!(check_openmetrics(h).is_err());
        // _count disagreeing with the +Inf bucket.
        let h =
            "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_count 4\nh_sum 2\n# EOF\n";
        assert!(check_openmetrics(h).is_err());
        // Content after EOF.
        assert!(check_openmetrics("# EOF\na 1\n").is_err());
        // A valid minimal document passes.
        let ok = "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"+Inf\"} 1\n\
                  h_count 1\nh_sum 2\n# EOF\n";
        assert_eq!(check_openmetrics(ok), Ok(4));
    }

    #[test]
    fn trace_families_build_monotone_histograms() {
        use crate::trace::{LatencyBucket, LatencyEntry, PhaseEntry, PhaseStats};
        let report = TraceReport {
            phases: vec![PhaseEntry {
                name: "engine.queue_wait".to_string(),
                stats: PhaseStats {
                    calls: 7,
                    nanos: 40,
                    ..Default::default()
                },
            }],
            latency: vec![LatencyEntry {
                name: "engine.queue_wait".to_string(),
                count: 7,
                p50_ns: 0,
                p95_ns: 0,
                p99_ns: 0,
                buckets: vec![
                    LatencyBucket {
                        floor_ns: 0,
                        count: 1,
                    },
                    LatencyBucket {
                        floor_ns: 2,
                        count: 2,
                    },
                    LatencyBucket {
                        floor_ns: 4,
                        count: 4,
                    },
                ],
            }],
            ..Default::default()
        };
        let fams = trace_metric_families(&report);
        let text = render_openmetrics(&fams);
        check_openmetrics(&text).expect("trace-derived families validate");
        assert!(text.contains("stage_latency_ns_bucket{stage=\"engine.queue_wait\",le=\"2\"} 1\n"));
        assert!(text.contains("le=\"4\"} 3\n"));
        assert!(text.contains("le=\"8\"} 7\n"));
        assert!(text.contains("trace_phase_calls_total{phase=\"engine.queue_wait\"} 7\n"));
    }

    #[test]
    fn trace_metric_families_expose_accuracy_gauges() {
        let report = TraceReport {
            solver_iterations: vec![crate::trace::SolverIteration {
                solver: "lsqr".to_string(),
                iteration: 1,
                residual: 0.25,
                initial_residual: 1.0,
                nanos: 3,
            }],
            rank_histogram: vec![
                crate::trace::RankBucket { rank: 2, tiles: 3 },
                crate::trace::RankBucket { rank: 5, tiles: 1 },
            ],
            grids: vec![crate::trace::GridEntry {
                name: "accuracy.tile_rank".to_string(),
                rows: 1,
                cols: 2,
                cells: vec![2, 5],
            }],
            ..Default::default()
        };
        let fams = trace_metric_families(&report);
        let grid = fams
            .iter()
            .find(|f| f.name == "accuracy_grid_total")
            .expect("grid gauge family");
        assert_eq!(grid.samples.len(), 1);
        assert!(matches!(grid.samples[0].value, MetricValue::Scalar(v) if v == 7.0));
        let ranks = fams
            .iter()
            .find(|f| f.name == "accuracy_tile_rank")
            .expect("rank histogram family");
        assert!(matches!(
            &ranks.samples[0].value,
            MetricValue::Histogram { count: 4, .. }
        ));
        let resid = fams
            .iter()
            .find(|f| f.name == "solver_relative_residual")
            .expect("residual gauge family");
        assert!(matches!(resid.samples[0].value, MetricValue::Scalar(v) if v == 0.25));
        // The whole set still renders as valid OpenMetrics.
        let text = render_openmetrics(&fams);
        check_openmetrics(&text).expect("valid exposition");
    }
}
