//! Structured event journal: what happened and exactly when.
//!
//! The interval series ([`crate::timeseries`]) answers "how much per
//! interval"; the journal answers "what happened and when". Its dataplane
//! events are not written by the dataplane: every one is an edge over a
//! counter the interval ring already carries, and the [`Harvester`] that
//! reads a core's buckets derives them there (`Edges`) — stall episode
//! onset and end, pool-exhaustion onset, the dispatcher fuse — stamped
//! with the tick the bucket closed at. The monitor thread journals SLO
//! burn-state transitions and the cluster replay link congestion epochs
//! into the same [`EventLog`], exported as JSON lines and injected into
//! the Chrome trace as instant events.
//!
//! A core that gets more than a ring's capacity ahead of every reader
//! loses the lapped buckets and the edges in them; the harvester counts
//! those buckets in [`EventLog::overflow`] — observability drops are
//! themselves observable.
//!
//! [`Harvester`]: crate::Harvester

use crate::json;
use crate::ledger::DropCause;
use crate::slo::SloState;
use crate::timeseries::IntervalStats;

/// A discrete, timestamped occurrence worth journaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// SLO burn state changed; `arg` encodes the transition, see
    /// [`encode_slo_transition`].
    SloTransition,
    /// A credit-gate stall episode began (`arg` = stalls in the interval
    /// it began in).
    CreditStallStart,
    /// The credit-gate stall episode ended (`arg` = 0).
    CreditStallEnd,
    /// A NIC descriptor-ring stall episode began (`arg` = stalls in the
    /// interval it began in).
    NicStallStart,
    /// The NIC descriptor-ring stall episode ended (`arg` = 0).
    NicStallEnd,
    /// Source-side pool exhaustion began dropping packets (`arg` =
    /// drops in the interval it began in).
    PoolExhaustedOnset,
    /// The dispatcher fuse tripped: a run was cut off at its quantum
    /// bound with work still pending (`arg` = fuse-outs in the interval).
    DispatcherFuse,
    /// A cluster link entered a congestion epoch (`arg` = link id).
    LinkCongestionStart,
    /// A cluster link left its congestion epoch (`arg` = link id).
    LinkCongestionEnd,
}

impl EventKind {
    /// Every kind, in stable export order.
    pub const ALL: [EventKind; 9] = [
        EventKind::SloTransition,
        EventKind::CreditStallStart,
        EventKind::CreditStallEnd,
        EventKind::NicStallStart,
        EventKind::NicStallEnd,
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

/// Packs an SLO burn-state transition into an event `arg`: the
/// [`SloState::severity`] of `from` in the second byte, of `to` in the
/// first.
pub fn encode_slo_transition(from: SloState, to: SloState) -> u64 {
    (from.severity() << 8) | to.severity()
}

/// Inverse of [`encode_slo_transition`]; `None` for an `arg` no pair of
/// states encodes — a bit set above the second byte, or a severity no
/// state has.
pub fn decode_slo_transition(arg: u64) -> Option<(SloState, SloState)> {
    let from = SloState::from_severity(arg >> 8)?;
    Some((from, SloState::from_severity(arg & 0xff)?))
}

/// One journaled occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Order within its writer: the interval bucket a dataplane edge was
    /// derived from; the monitor's and the cluster replay's own count.
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

/// The edge rule one core's buckets are read through, oldest first: a
/// stall episode opens on a bucket whose counter moved and closes on the
/// first one after it that held still; pool exhaustion journals its onset
/// only (the drops stopping re-arms it); a bucket with fuse-outs journals
/// one `dispatcher_fuse`.
#[derive(Debug, Default)]
pub(crate) struct Edges {
    nic: bool,
    credit: bool,
    pool: bool,
}

impl Edges {
    /// Appends the events bucket `b` makes to `out`, stamped with the
    /// tick it closed at and its seq.
    pub(crate) fn step(&mut self, b: &IntervalStats, out: &mut Vec<Event>) {
        let mut emit = |kind, arg| {
            out.push(Event {
                seq: b.seq,
                core: b.core,
                tick: b.end_tick,
                kind,
                arg,
            });
        };
        let pool = b.drops[DropCause::PoolExhausted.index()];
        for (open, moved, start, end) in [
            (
                &mut self.nic,
                b.nic_desc_stalls,
                EventKind::NicStallStart,
                Some(EventKind::NicStallEnd),
            ),
            (
                &mut self.credit,
                b.credit_stalls,
                EventKind::CreditStallStart,
                Some(EventKind::CreditStallEnd),
            ),
            (&mut self.pool, pool, EventKind::PoolExhaustedOnset, None),
        ] {
            match (*open, moved > 0, end) {
                (false, true, _) => emit(start, moved),
                (true, false, Some(end)) => emit(end, 0),
                _ => {}
            }
            *open = moved > 0;
        }
        if b.fuses > 0 {
            emit(EventKind::DispatcherFuse, b.fuses);
        }
    }
}

/// An owned, merged event journal — the exportable result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventLog {
    /// Events in `(tick, core, seq)` order.
    pub events: Vec<Event>,
    /// Records lost before any reader saw them: for a dataplane journal,
    /// the interval buckets lapped in their ring, edges and all.
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
    use crate::timeseries::{CumulativeTotals, Harvester, IntervalRecorder};

    #[test]
    fn recorder_round_trips_events_in_order() {
        // Core 2: credit stalls in the first interval, none in the second,
        // a fuse-out in the third.
        let mut rec = IntervalRecorder::with_capacity(2, 100, 0, 16);
        let mut totals = CumulativeTotals {
            credit_stalls: 5,
            ..CumulativeTotals::default()
        };
        rec.roll(100, &totals);
        rec.roll(250, &totals);
        totals.fuses = 1;
        rec.roll(300, &totals);
        let mut h = Harvester::new(vec![rec.ring()]);
        assert_eq!(h.poll(true), 3);
        let (_, log) = h.finish(100);
        assert_eq!((log.len(), log.overflow), (3, 0));
        assert_eq!(log.events[0].kind, EventKind::CreditStallStart);
        assert_eq!((log.events[0].tick, log.events[0].arg), (100, 5));
        assert_eq!(log.events[0].core, 2);
        assert_eq!(log.events[1].kind, EventKind::CreditStallEnd);
        assert_eq!(log.events[2].kind, EventKind::DispatcherFuse);
        assert_eq!((log.events[2].tick, log.events[2].arg), (300, 1));
    }

    #[test]
    fn overflow_is_counted_not_silent() {
        // Journal drops are themselves counted and survive into the
        // exported log: a bucket lapped before any reader saw it takes
        // its edges with it, and counts once.
        let mut rec = IntervalRecorder::with_capacity(0, 10, 0, 4);
        let mut totals = CumulativeTotals::default();
        for i in 0..10 {
            totals.fuses += 1;
            rec.roll((i + 1) * 10, &totals);
        }
        let (_, log) = Harvester::new(vec![rec.ring()]).finish(10);
        assert_eq!(log.events.len(), 4, "only the last `cap` buckets survive");
        assert_eq!(log.overflow, 6, "the 6 lapped buckets are counted");
        assert_eq!(log.events[0].seq, 6, "oldest surviving bucket");
        let text = log.to_json_lines();
        assert!(
            text.starts_with("{\"events\": 4, \"overflow\": 6}\n"),
            "{text}"
        );
    }

    #[test]
    fn harvester_merges_cores_in_time_order() {
        // Core 0 stalls its NIC ring in one interval and not the next;
        // core 1 starts dropping on an empty pool between the two.
        let mut r0 = IntervalRecorder::with_capacity(0, 10, 0, 8);
        let mut r1 = IntervalRecorder::with_capacity(1, 10, 0, 8);
        let stalled = CumulativeTotals {
            nic_desc_stalls: 1,
            ..CumulativeTotals::default()
        };
        r0.roll(100, &stalled);
        r0.roll(300, &stalled);
        let mut exhausted = CumulativeTotals::default();
        exhausted.drops[DropCause::PoolExhausted.index()] = 7;
        r1.roll(200, &exhausted);
        let mut h = Harvester::new(vec![r0.ring(), r1.ring()]);
        assert_eq!(h.poll(true), 3);
        let (_, mut log) = h.finish(10);
        log.merge(&EventLog {
            events: vec![Event {
                seq: 0,
                core: 99,
                tick: 250,
                kind: EventKind::SloTransition,
                arg: encode_slo_transition(SloState::Ok, SloState::Burning),
            }],
            overflow: 0,
        });
        let ticks: Vec<u64> = log.events.iter().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![100, 200, 250, 300], "time-sorted");
        let counts = log.counts();
        assert_eq!(counts[EventKind::SloTransition.index()], 1);
        assert_eq!(counts[EventKind::NicStallStart.index()], 1);
        assert_eq!(log.of_kind(EventKind::PoolExhaustedOnset)[0].arg, 7);
        let arc = decode_slo_transition(log.of_kind(EventKind::SloTransition)[0].arg);
        assert_eq!(arc, Some((SloState::Ok, SloState::Burning)));
    }

    #[test]
    fn json_lines_parse_as_json_objects() {
        let mut rec = IntervalRecorder::with_capacity(0, 10, 0, 8);
        rec.roll(
            42,
            &CumulativeTotals {
                fuses: 1,
                ..CumulativeTotals::default()
            },
        );
        let (_, log) = Harvester::new(vec![rec.ring()]).finish(10);
        assert_eq!(log.len(), 1);
        for line in log.to_json_lines().lines() {
            let v = crate::json::parse(line).expect("every line parses");
            assert!(v.get("kind").is_some() || v.get("events").is_some());
        }
    }

    #[test]
    fn slo_transitions_round_trip_and_odd_args_decode_to_none() {
        let states = [SloState::Ok, SloState::Warning, SloState::Burning];
        for from in states {
            for to in states {
                let arg = encode_slo_transition(from, to);
                assert_eq!(decode_slo_transition(arg), Some((from, to)), "{arg:#x}");
            }
        }
        // A bit set above the second byte; a severity no state has.
        assert_eq!(decode_slo_transition(0x1_0002), None);
        assert_eq!(decode_slo_transition(0x0003), None);
    }

    /// One watched counter as the driver stepped it at each interval
    /// roll before the journal was derived from the interval series: its
    /// cumulative total at the last roll, and whether an episode is open.
    /// Kept verbatim as the reference the derivation is held to.
    #[derive(Default)]
    struct Episode {
        last: u64,
        open: bool,
    }

    impl Episode {
        fn step(&mut self, total: u64) -> (u64, Option<bool>) {
            let moved = total.saturating_sub(self.last);
            let edge = (self.open != (moved > 0)).then_some(moved > 0);
            (self.last, self.open) = (total, moved > 0);
            (moved, edge)
        }
    }

    /// The driver's boundary rule over one core's per-core counters,
    /// journaling at `now` each edge the totals of roll `seq` make.
    #[derive(Default)]
    struct Reference {
        nic: Episode,
        credit: Episode,
        pool: Episode,
        events: Vec<Event>,
    }

    impl Reference {
        fn roll(&mut self, seq: u64, core: usize, now: u64, totals: &CumulativeTotals) {
            let mut edges = Vec::new();
            match self.nic.step(totals.nic_desc_stalls) {
                (moved, Some(true)) => edges.push((EventKind::NicStallStart, moved)),
                (_, Some(false)) => edges.push((EventKind::NicStallEnd, 0)),
                _ => {}
            }
            match self.credit.step(totals.credit_stalls) {
                (moved, Some(true)) => edges.push((EventKind::CreditStallStart, moved)),
                (_, Some(false)) => edges.push((EventKind::CreditStallEnd, 0)),
                _ => {}
            }
            let pool = totals.drops[DropCause::PoolExhausted.index()];
            if let (moved, Some(true)) = self.pool.step(pool) {
                edges.push((EventKind::PoolExhaustedOnset, moved));
            }
            self.events
                .extend(edges.into_iter().map(|(kind, arg)| Event {
                    seq,
                    core,
                    tick: now,
                    kind,
                    arg,
                }));
        }
    }

    proptest::proptest! {
        /// Random per-core counter sequences, rolled whenever the clock
        /// says and flushed at the end, read by a harvester polled at
        /// random points: on every bucket `roll` closed, each core's
        /// derived journal equals the boundary rule's, and only the final
        /// `flush` bucket, which the rule never stepped, may add an edge.
        #[test]
        fn derived_edges_match_the_boundary_rule(
            cores in proptest::collection::vec(
                proptest::collection::vec(
                    (0u64..5, 0u64..5, 0u64..5, 1u64..7, proptest::prelude::any::<bool>()),
                    1..80,
                ),
                1..4,
            )
        ) {
            let mut recs: Vec<IntervalRecorder> = (0..cores.len())
                .map(|core| IntervalRecorder::with_capacity(core, 10, 0, 256))
                .collect();
            let mut h = Harvester::new(recs.iter().map(IntervalRecorder::ring).collect());
            let mut rolled = vec![0u64; cores.len()];
            let mut reference: Vec<Reference> = cores.iter().map(|_| Reference::default()).collect();
            for (core, steps) in cores.iter().enumerate() {
                let (rec, refr) = (&mut recs[core], &mut reference[core]);
                let (mut totals, mut now) = (CumulativeTotals::default(), 0);
                for &(nic, credit, pool, dt, poll) in steps {
                    // Zero more often than not, so episodes also end.
                    totals.nic_desc_stalls += nic.saturating_sub(2);
                    totals.credit_stalls += credit.saturating_sub(2);
                    totals.drops[DropCause::PoolExhausted.index()] += pool.saturating_sub(2);
                    rec.quantum(1, true);
                    now += dt;
                    if rec.due(now) {
                        rec.roll(now, &totals);
                        refr.roll(rolled[core], core, now, &totals);
                        rolled[core] += 1;
                    }
                    if poll {
                        h.poll(true);
                    }
                }
                rec.flush(now + 1, &totals);
            }
            let (_, log) = h.finish(10);
            proptest::prop_assert_eq!(log.overflow, 0);
            for (core, refr) in reference.iter().enumerate() {
                let mine = log.events.iter().filter(|e| e.core == core).copied();
                let (closed, flushed): (Vec<Event>, Vec<Event>) =
                    mine.partition(|e| e.seq < rolled[core]);
                proptest::prop_assert_eq!(&closed, &refr.events);
                proptest::prop_assert!(flushed.iter().all(|e| e.seq == rolled[core]));
            }
        }
    }
}
