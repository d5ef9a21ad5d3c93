//! Harness-side tracer. A span is a name, a start, an end and the span
//! that caused it; spans are kept in memory and written out once, when
//! the workload ends. The harness records them around its calls into the
//! library crates — nothing inside the library is instrumented, and
//! `tlr_mvm::trace` stays off.
//!
//! Parents are passed explicitly (a [`SpanId`]), not through a
//! thread-local stack, so a span opened on a rayon worker can name the
//! span on the submitting thread that caused it.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::{self, Value};

/// Index of a recorded span; `SpanId::ROOT` is "no parent".
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanId(u32);

impl SpanId {
    pub const ROOT: SpanId = SpanId(u32::MAX);
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    workload: &'static str,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// An open span; closes (records its end) on drop.
pub struct Guard<'a> {
    tracer: Option<&'a Tracer>,
    id: SpanId,
}

impl Guard<'_> {
    /// Id to pass as the parent of spans this one causes.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.tracer {
            t.end(self.id);
        }
    }
}

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span that [`Tracer::end`] closes — for a span that has to
    /// outlive a borrow of the tracer; [`Tracer::span`] is the scoped form.
    pub fn begin(&self, name: &'static str, parent: SpanId) -> SpanId {
        let now = self.now_ns();
        self.record(name, parent, now, now)
    }

    /// Set the end of span `id` to now.
    pub fn end(&self, id: SpanId) {
        let now = self.now_ns();
        self.lock()[id.0 as usize].end_ns = now;
    }

    /// Open a span. With `on == false` nothing is recorded and no clock
    /// is read, so untraced operations pay one branch.
    pub fn span(&self, on: bool, name: &'static str, parent: SpanId) -> Guard<'_> {
        if on {
            Guard {
                tracer: Some(self),
                id: self.begin(name, parent),
            }
        } else {
            Guard {
                tracer: None,
                id: SpanId::ROOT,
            }
        }
    }

    /// Time `f` under a span and return its value.
    pub fn time<R>(
        &self,
        on: bool,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> R {
        let _g = self.span(on, name, parent);
        f()
    }

    /// Record a span whose interval was measured elsewhere (the engine
    /// reports queue and execution time per job).
    pub fn record(&self, name: &'static str, parent: SpanId, start_ns: u64, end_ns: u64) -> SpanId {
        let mut spans = self.lock();
        let id = SpanId(u32::try_from(spans.len()).expect("fewer than 2^32 spans"));
        spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
        });
        id
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }

    pub fn summary(&self) -> Summary {
        Summary::of(&self.snapshot())
    }

    /// `{"workload":…, "spans":[{"id","name","start_ns","end_ns","parent"}…]}`
    pub fn to_json(&self) -> Value {
        let spans = self.snapshot();
        let items = spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                json::obj([
                    ("id", json::num(i as f64)),
                    ("name", json::string(s.name)),
                    ("start_ns", json::num(s.start_ns as f64)),
                    ("end_ns", json::num(s.end_ns as f64)),
                    (
                        "parent",
                        if s.parent == SpanId::ROOT {
                            Value::Null
                        } else {
                            json::num(f64::from(s.parent.0))
                        },
                    ),
                ])
            })
            .collect();
        json::obj([
            ("workload", json::string(self.workload)),
            ("spans", Value::Arr(items)),
        ])
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    /// Σ durations, seconds.
    pub total_s: f64,
    /// Σ self times, seconds: each span's duration minus the part of its
    /// interval that its child spans cover (children running in parallel
    /// are counted once where they overlap).
    pub self_s: f64,
}

#[derive(Clone, Debug, Default)]
pub struct Summary {
    pub by_name: BTreeMap<&'static str, NameTotals>,
}

impl Summary {
    pub fn of(spans: &[Span]) -> Self {
        let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans {
            if s.parent != SpanId::ROOT {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let covered = children
                .get_mut(&SpanId(i as u32))
                .map_or(0, |iv| covered_ns(iv, s.start_ns, s.end_ns));
            let t = by_name.entry(s.name).or_default();
            t.count += 1;
            t.total_s += s.duration_ns() as f64 * 1e-9;
            t.self_s += s.duration_ns().saturating_sub(covered) as f64 * 1e-9;
        }
        Self { by_name }
    }

    pub fn total_s(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |t| t.total_s)
    }

    pub fn self_s(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |t| t.self_s)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |t| t.count)
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("op", 0, 100, SpanId::ROOT),
            span("child", 10, 40, SpanId(0)),
            span("child", 30, 60, SpanId(0)), // overlaps the first by 10
            span("leaf", 35, 38, SpanId(2)),
        ];
        let s = Summary::of(&spans);
        assert_eq!(s.count("child"), 2);
        assert!((s.self_s("op") - 50e-9).abs() < 1e-15);
        assert!((s.total_s("child") - 60e-9).abs() < 1e-15);
        assert!((s.self_s("child") - 57e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let t = Tracer::new("test");
        {
            let outer = t.span(true, "outer", SpanId::ROOT);
            let _off = t.span(false, "hidden", outer.id());
            t.time(true, "inner", outer.id(), || ());
        }
        let spans = t.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, SpanId(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
