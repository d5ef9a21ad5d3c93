//! Serving-grade telemetry: the engine's flight recorder (DESIGN.md §14)
//! and the [`hot_path`] marker.
//!
//! [`FlightRecorder`] keeps one fixed-capacity ring of typed events per
//! engine worker (plus one *external* ring for submissions), each behind
//! its own mutex. Recording is allocation-free (the HP01 lint holds the
//! record path to that); readers merge all rings into one
//! timestamp-ordered [`FlightEvent`] list, locking one ring at a time.
//! [`EventKind`] is the event vocabulary.
//!
//! Event timestamps count nanoseconds from the recorder's creation
//! ([`FlightRecorder::now_ns`]).

use std::sync::Mutex;
use std::time::Instant;

use seismic_la::sync::lock;

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
}
