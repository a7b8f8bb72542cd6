//! Structured event journal: bounded per-core seqlock event rings.
//!
//! The interval series ([`crate::timeseries`]) answers "how much per
//! interval"; this module answers "what happened and exactly when".
//! Workers record timestamped discrete events — stall episode onset and
//! end, pool-exhaustion onset, FIB delta publishes vs full recompiles,
//! the dispatcher fuse, SLO burn-state transitions — into per-core
//! rings a harvester merges into one time-ordered journal, exported as
//! JSON lines and injected into the Chrome trace as instant events.
//!
//! The concurrency contract is [`SeqRing`]'s, shared with the interval
//! series: one writer per ring (the owning core), any number of readers,
//! a torn copy is a retry rather than undefined behaviour, and a bounded
//! capacity so a lagging reader loses overwritten history instead of the
//! dataplane ever waiting. Lost events are **counted** by the harvesting
//! side and exported — observability drops are themselves observable.

use crate::json;
use crate::seqring::{Record, SeqRing};
use crate::timeseries::{Harvester, IntervalRing, TimeSeries};
use std::sync::Arc;

/// Default event-ring capacity: events are rare (episode edges, not
/// per-packet), so a small ring covers minutes of history.
pub const DEFAULT_EVENT_RING_CAP: usize = 1024;

/// A discrete, timestamped occurrence worth journaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// SLO burn state changed; `arg` encodes the transition, see
    /// [`encode_slo_transition`].
    SloTransition,
    /// A credit-gate stall episode began (`arg` = stalls so far).
    CreditStallStart,
    /// The credit-gate stall episode ended (`arg` = stalls during it).
    CreditStallEnd,
    /// A NIC descriptor-ring stall episode began (`arg` = stalls so far).
    NicStallStart,
    /// The NIC descriptor-ring stall episode ended (`arg` = stalls
    /// during it).
    NicStallEnd,
    /// The FIB published an incremental delta (`arg` = routes changed).
    FibDeltaPublish,
    /// The FIB fell back to a full recompile (`arg` = routes total).
    FibRecompile,
    /// Source-side pool exhaustion began dropping packets (`arg` =
    /// drops so far).
    PoolExhaustedOnset,
    /// The dispatcher fuse tripped: the run was cut off at its quantum
    /// bound with work still pending (`arg` = quanta executed).
    DispatcherFuse,
    /// A cluster link entered a congestion epoch (`arg` = link id).
    LinkCongestionStart,
    /// A cluster link left its congestion epoch (`arg` = link id).
    LinkCongestionEnd,
}

impl EventKind {
    /// Every kind, in stable export order.
    pub const ALL: [EventKind; 11] = [
        EventKind::SloTransition,
        EventKind::CreditStallStart,
        EventKind::CreditStallEnd,
        EventKind::NicStallStart,
        EventKind::NicStallEnd,
        EventKind::FibDeltaPublish,
        EventKind::FibRecompile,
        EventKind::PoolExhaustedOnset,
        EventKind::DispatcherFuse,
        EventKind::LinkCongestionStart,
        EventKind::LinkCongestionEnd,
    ];

    /// Number of kinds (the per-kind counter array width).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name — the single source of truth shared by
    /// JSON lines, Prometheus `kind` labels, and the live view.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::SloTransition => "slo_transition",
            EventKind::CreditStallStart => "credit_stall_start",
            EventKind::CreditStallEnd => "credit_stall_end",
            EventKind::NicStallStart => "nic_stall_start",
            EventKind::NicStallEnd => "nic_stall_end",
            EventKind::FibDeltaPublish => "fib_delta_publish",
            EventKind::FibRecompile => "fib_recompile",
            EventKind::PoolExhaustedOnset => "pool_exhausted_onset",
            EventKind::DispatcherFuse => "dispatcher_fuse",
            EventKind::LinkCongestionStart => "link_congestion_start",
            EventKind::LinkCongestionEnd => "link_congestion_end",
        }
    }

    fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|k| *k == self)
            .expect("kind present in ALL")
    }
}

/// Packs an SLO burn-state transition into an event `arg`:
/// `from`/`to` are [`crate::slo::SloState::severity`] values.
pub fn encode_slo_transition(from: u8, to: u8) -> u64 {
    (u64::from(from) << 8) | u64::from(to)
}

/// Inverse of [`encode_slo_transition`]: `(from, to)` severities.
pub fn decode_slo_transition(arg: u64) -> (u8, u8) {
    ((arg >> 8) as u8, (arg & 0xff) as u8)
}

/// One journaled occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Ring-local sequence number (0-based, per writer).
    pub seq: u64,
    /// Core that recorded the event (the monitor thread records as the
    /// core id it was given, conventionally past the worker range).
    pub core: usize,
    /// Timestamp in the run's tick domain ([`crate::cycles::now`] ticks
    /// on live runs, simulated nanoseconds in the cluster replay).
    pub tick: u64,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific magnitude (see each [`EventKind`] variant).
    pub arg: u64,
}

impl Event {
    /// One JSON object on one line (the `/events.json` line format).
    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.key("tick").int(self.tick);
            w.key("core").int(self.core as u64);
            w.key("kind").str(self.kind.as_str());
            w.key("arg").int(self.arg);
        })
    }
}

/// A single-writer, multi-reader ring of journaled events.
pub type EventRing = SeqRing<Event>;

impl Record for Event {
    type Shape = ();

    fn width(_: &()) -> usize {
        3
    }

    fn seq(&self) -> u64 {
        self.seq
    }

    fn encode(&self, _: &()) -> impl Iterator<Item = u64> {
        [self.tick, self.kind.index() as u64, self.arg].into_iter()
    }

    fn decode(seq: u64, core: usize, w: &[u64]) -> Option<Event> {
        Some(Event {
            seq,
            core,
            tick: w[0],
            kind: EventKind::ALL.get(w[1] as usize).copied()?,
            arg: w[2],
        })
    }
}

/// The writer-side handle one driver embeds: owns the sequence counter
/// and stamps events into the shared ring.
#[derive(Debug)]
pub struct EventRecorder {
    ring: Arc<EventRing>,
    next: u64,
}

impl EventRecorder {
    /// Creates a recorder publishing into a fresh ring of
    /// [`DEFAULT_EVENT_RING_CAP`] slots.
    pub fn new(core: usize) -> EventRecorder {
        Self::with_capacity(core, DEFAULT_EVENT_RING_CAP)
    }

    /// As [`EventRecorder::new`] with an explicit ring capacity.
    pub fn with_capacity(core: usize, cap: usize) -> EventRecorder {
        EventRecorder {
            ring: Arc::new(EventRing::new(core, cap)),
            next: 0,
        }
    }

    /// The shared ring a harvester reads from.
    pub fn ring(&self) -> Arc<EventRing> {
        Arc::clone(&self.ring)
    }

    /// Journals one event at `tick`.
    pub fn record(&mut self, tick: u64, kind: EventKind, arg: u64) {
        let e = Event {
            seq: self.next,
            core: self.ring.core(),
            tick,
            kind,
            arg,
        };
        self.ring.publish(&e);
        self.next += 1;
    }

    /// Events recorded so far.
    pub fn recorded(&self) -> u64 {
        self.next
    }
}

/// Reader-side accumulator: polls one or more cores' event rings and
/// merges them into a time-ordered journal.
#[derive(Debug, Default)]
pub struct EventHarvester {
    rings: Vec<Arc<EventRing>>,
    cursors: Vec<u64>,
    events: Vec<Event>,
    overflow: u64,
}

impl EventHarvester {
    /// A harvester over `rings` (one per recording core).
    pub fn new(rings: Vec<Arc<EventRing>>) -> EventHarvester {
        let cursors = vec![0; rings.len()];
        EventHarvester {
            rings,
            cursors,
            events: Vec::new(),
            overflow: 0,
        }
    }

    /// Drains every ring's new events. Returns how many were newly read.
    pub fn poll(&mut self) -> usize {
        let mut read = 0;
        for (ring, cursor) in self.rings.iter().zip(self.cursors.iter_mut()) {
            let (next, overflowed, events) = ring.harvest(*cursor);
            *cursor = next;
            self.overflow += overflowed;
            read += events.len();
            self.events.extend(events);
        }
        read
    }

    /// Injects an event produced outside any ring (e.g. the monitor
    /// thread's SLO transitions, which have no dataplane writer).
    pub fn push(&mut self, e: Event) {
        self.events.push(e);
    }

    /// Time-sorted copy of everything harvested so far (live view).
    pub fn log(&self) -> EventLog {
        let mut log = EventLog {
            events: self.events.clone(),
            overflow: self.overflow,
        };
        log.sort();
        log
    }

    /// Final poll plus conversion into an owned, time-sorted journal.
    pub fn finish(mut self) -> EventLog {
        self.poll();
        self.log()
    }
}

/// One run's interval and event readers as a pair: whoever observes a run
/// — the single-threaded router reading itself, the MT harness's
/// dispatcher thread, the monitor behind `/metrics` — polls both at one
/// cadence and finishes both after the writers stop.
#[derive(Debug, Default)]
pub struct Harvest {
    /// The interval side.
    pub intervals: Harvester,
    /// The journal side.
    pub events: EventHarvester,
}

impl Harvest {
    /// A harvest over one run's rings (one of each per core).
    pub fn new(intervals: Vec<Arc<IntervalRing>>, events: Vec<Arc<EventRing>>) -> Harvest {
        Harvest {
            intervals: Harvester::new(intervals),
            events: EventHarvester::new(events),
        }
    }

    /// Reads what both sets of rings published since the last poll.
    /// `live` marks buckets read while the writers were still running.
    pub fn poll(&mut self, live: bool) {
        self.intervals.poll(live);
        self.events.poll();
    }

    /// One last poll — the writers have stopped and flushed — then the
    /// series (at the run's nominal `interval_ticks`) and the journal.
    pub fn finish(mut self, interval_ticks: u64) -> (TimeSeries, EventLog) {
        self.poll(false);
        (self.intervals.timeseries(interval_ticks), self.events.log())
    }
}

/// An owned, merged event journal — the exportable result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventLog {
    /// Events in `(tick, core, seq)` order.
    pub events: Vec<Event>,
    /// Events lost to ring overwrite before any reader saw them.
    pub overflow: u64,
}

impl EventLog {
    /// `true` when nothing was journaled (and nothing overflowed).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.overflow == 0
    }

    /// Number of journaled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Re-sorts into canonical `(tick, core, seq)` order.
    pub fn sort(&mut self) {
        self.events.sort_by_key(|e| (e.tick, e.core, e.seq));
    }

    /// Folds another journal in and re-sorts.
    pub fn merge(&mut self, other: &EventLog) {
        self.events.extend(other.events.iter().copied());
        self.overflow += other.overflow;
        self.sort();
    }

    /// Per-kind event counts in [`EventKind::ALL`] order.
    pub fn counts(&self) -> [u64; EventKind::COUNT] {
        let mut counts = [0u64; EventKind::COUNT];
        for e in &self.events {
            counts[e.kind.index()] += 1;
        }
        counts
    }

    /// Events of one kind, in journal order.
    pub fn of_kind(&self, kind: EventKind) -> Vec<Event> {
        self.events
            .iter()
            .filter(|e| e.kind == kind)
            .copied()
            .collect()
    }

    /// JSON-lines export: one object per line, first line a header
    /// carrying the overflow count (the `/events.json` body).
    pub fn to_json_lines(&self) -> String {
        let mut out = json::object(|w| {
            w.key("events").int(self.events.len() as u64);
            w.key("overflow").int(self.overflow);
        });
        out.push('\n');
        for e in &self.events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_round_trips_events_in_order() {
        let mut rec = EventRecorder::with_capacity(2, 16);
        let ring = rec.ring();
        rec.record(100, EventKind::CreditStallStart, 5);
        rec.record(250, EventKind::CreditStallEnd, 12);
        rec.record(300, EventKind::DispatcherFuse, 9999);
        let (next, overflowed, got) = ring.harvest(0);
        assert_eq!((next, overflowed), (3, 0));
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].kind, EventKind::CreditStallStart);
        assert_eq!(got[0].tick, 100);
        assert_eq!(got[0].core, 2);
        assert_eq!(got[2].arg, 9999);
    }

    #[test]
    fn overflow_is_counted_not_silent() {
        // Satellite requirement: journal drops are themselves counted
        // and survive into the exported log.
        let mut rec = EventRecorder::with_capacity(0, 4);
        let ring = rec.ring();
        for i in 0..10 {
            rec.record(i * 10, EventKind::FibDeltaPublish, i);
        }
        let mut h = EventHarvester::new(vec![ring]);
        h.poll();
        let log = h.finish();
        assert_eq!(log.events.len(), 4, "only the last `cap` events survive");
        assert_eq!(log.overflow, 6, "the 6 lapped events are counted");
        assert_eq!(log.events[0].seq, 6, "oldest surviving event");
        let text = log.to_json_lines();
        assert!(
            text.starts_with("{\"events\": 4, \"overflow\": 6}\n"),
            "{text}"
        );
    }

    #[test]
    fn harvester_merges_cores_in_time_order() {
        let mut r0 = EventRecorder::with_capacity(0, 8);
        let mut r1 = EventRecorder::with_capacity(1, 8);
        r0.record(300, EventKind::NicStallEnd, 2);
        r0.record(100, EventKind::NicStallStart, 1);
        r1.record(200, EventKind::PoolExhaustedOnset, 7);
        let mut h = EventHarvester::new(vec![r0.ring(), r1.ring()]);
        assert_eq!(h.poll(), 3);
        h.push(Event {
            seq: 0,
            core: 99,
            tick: 250,
            kind: EventKind::SloTransition,
            arg: encode_slo_transition(0, 2),
        });
        let log = h.finish();
        let ticks: Vec<u64> = log.events.iter().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![100, 200, 250, 300], "time-sorted");
        let counts = log.counts();
        assert_eq!(counts[EventKind::SloTransition.index()], 1);
        assert_eq!(counts[EventKind::NicStallStart.index()], 1);
        let (from, to) = decode_slo_transition(log.of_kind(EventKind::SloTransition)[0].arg);
        assert_eq!((from, to), (0, 2));
    }

    #[test]
    fn json_lines_parse_as_json_objects() {
        let mut rec = EventRecorder::with_capacity(0, 8);
        rec.record(42, EventKind::FibRecompile, 1000);
        let mut h = EventHarvester::new(vec![rec.ring()]);
        h.poll();
        let log = h.finish();
        for line in log.to_json_lines().lines() {
            let v = crate::json::parse(line).expect("every line parses");
            assert!(v.get("kind").is_some() || v.get("events").is_some());
        }
    }
}
