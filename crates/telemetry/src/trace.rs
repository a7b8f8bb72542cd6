//! Sampled per-packet path tracing.
//!
//! The runtime stamps every `1/N`-th sourced packet with a nonzero trace
//! ID (carried in the packet metadata) and appends a span record to a
//! per-core [`Tracer`] at every element dispatch, SPSC ring hop, and VLB
//! cluster hop the packet crosses. Shards are per-core and non-atomic —
//! the same discipline as [`crate::CoreMetrics`] — and are drained into a
//! mergeable [`TraceLog`] at run end, which exports Chrome trace-event
//! JSON (`chrome://tracing` / Perfetto loadable) through the
//! [`crate::json`] writer.
//!
//! With sampling off (`sample == 0`) the hot path pays one predictable
//! branch per site and records nothing.

use crate::events::EventLog;
use crate::json;

/// What a span record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// A packet passing through one element dispatch (`dur` covers the
    /// whole batch dispatch the packet rode in).
    Element,
    /// A packet entering an SPSC ring (flow-start side of a hop edge).
    RingSend,
    /// A packet leaving an SPSC ring (flow-finish side of a hop edge).
    RingRecv,
    /// A packet traversing one VLB cluster link; `node` is the hop's
    /// destination server and `dur` the modeled link+processing delay.
    ClusterHop,
}

impl TraceKind {
    /// Stable snake_case name (JSON `cat` field).
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Element => "element",
            TraceKind::RingSend => "ring_send",
            TraceKind::RingRecv => "ring_recv",
            TraceKind::ClusterHop => "cluster_hop",
        }
    }
}

/// One raw span record. `stage` indexes an element (resolved to a label
/// at drain time) for [`TraceKind::Element`]; `node` is the cluster
/// server for [`TraceKind::ClusterHop`]; timestamps are [`crate::cycles`]
/// ticks (or nanoseconds in the cluster simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The sampled packet this span belongs to (nonzero).
    pub trace_id: u64,
    /// Span type.
    pub kind: TraceKind,
    /// Element index (graph `ElementId`) for element spans; 0 otherwise.
    pub stage: u32,
    /// Cluster node for cluster hops; 0 otherwise.
    pub node: u32,
    /// Core (worker index) that recorded the span.
    pub core: u32,
    /// Span start, in recorder ticks.
    pub ts: u64,
    /// Span length in ticks (0 for instantaneous hop edges).
    pub dur: u64,
}

/// Default per-core event capacity; records past it are counted, not kept.
pub const DEFAULT_TRACE_CAP: usize = 1 << 16;

/// Per-core trace shard: samples source emissions and buffers span
/// records. Never shared across threads — one per worker, merged at
/// drain points.
#[derive(Debug)]
pub struct Tracer {
    /// Sample every `sample`-th sourced packet; 0 disables tracing.
    sample: u64,
    /// Emission counter driving the sampling decision.
    tick: u64,
    /// Next per-core sequence number for assigned IDs.
    next_seq: u64,
    /// Core index, partitioning the trace-ID space (IDs never collide
    /// across concurrently-stamping cores).
    core: u32,
    events: Vec<TraceEvent>,
    cap: usize,
    /// Records lost to the capacity bound.
    overflow: u64,
}

impl Tracer {
    /// A disabled tracer (the default for every router).
    pub fn off() -> Tracer {
        Tracer::new(0, 0)
    }

    /// A tracer sampling every `sample`-th sourced packet, recording as
    /// core `core`.
    ///
    /// # Panics
    ///
    /// Panics on a core above [`Tracer::MAX_CORE`].
    pub fn new(sample: u64, core: u32) -> Tracer {
        Self::check_core(core);
        Tracer {
            sample,
            tick: 0,
            next_seq: 0,
            core,
            events: Vec::new(),
            cap: DEFAULT_TRACE_CAP,
            overflow: 0,
        }
    }

    /// `true` when tracing is on — the one branch disabled sites pay.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sample != 0
    }

    /// The sampling interval (0 = off).
    pub fn sample(&self) -> u64 {
        self.sample
    }

    /// The core index IDs and records carry.
    pub fn core(&self) -> u32 {
        self.core
    }

    /// Re-homes the shard to `core` (set once per worker, before any
    /// stamping).
    ///
    /// # Panics
    ///
    /// Panics on a core above [`Tracer::MAX_CORE`].
    pub fn set_core(&mut self, core: u32) {
        Self::check_core(core);
        self.core = core;
    }

    /// The highest core a trace ID can name: `core + 1` takes the 24 bits
    /// above the 40-bit sequence number.
    pub const MAX_CORE: u32 = (1 << 24) - 2;

    fn check_core(core: u32) {
        assert!(
            core <= Self::MAX_CORE,
            "trace IDs name cores up to {}, not {core}",
            Self::MAX_CORE
        );
    }

    /// Sampling decision for one sourced packet: returns a fresh nonzero
    /// trace ID for every `sample`-th call, 0 otherwise. The ID space is
    /// partitioned by core (`(core+1) << 40 | seq`) so concurrent
    /// stampers never collide.
    #[inline]
    pub fn maybe_assign(&mut self) -> u64 {
        if self.sample == 0 {
            return 0;
        }
        self.tick += 1;
        if !self.tick.is_multiple_of(self.sample) {
            return 0;
        }
        self.next_seq += 1;
        (u64::from(self.core) + 1) << 40 | self.next_seq
    }

    /// Appends one span record (no-op when disabled or `trace_id == 0`).
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        if self.sample == 0 || event.trace_id == 0 {
            return;
        }
        if self.events.len() >= self.cap {
            self.overflow += 1;
            return;
        }
        self.events.push(event);
    }

    /// Records an element-dispatch span for each traced packet in a batch.
    pub fn record_element(&mut self, stage: u32, ids: &[u64], ts: u64, dur: u64) {
        for &id in ids {
            self.record(TraceEvent {
                trace_id: id,
                kind: TraceKind::Element,
                stage,
                node: 0,
                core: self.core,
                ts,
                dur,
            });
        }
    }

    /// Records a ring-hop edge endpoint for each traced packet.
    pub fn record_hop(&mut self, kind: TraceKind, ids: &[u64], ts: u64) {
        for &id in ids {
            self.record(TraceEvent {
                trace_id: id,
                kind,
                stage: 0,
                node: 0,
                core: self.core,
                ts,
                dur: 0,
            });
        }
    }

    /// Events recorded so far (for tests / incremental inspection).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drains the shard into a [`TraceLog`], resolving element labels via
    /// `label` (stage index → element name). The tracer keeps its
    /// sampling state so stamping can continue.
    pub fn drain(&mut self, label: impl Fn(u32) -> String) -> TraceLog {
        let spans = self
            .events
            .drain(..)
            .map(|e| TraceSpan {
                label: match e.kind {
                    TraceKind::Element => label(e.stage),
                    k => k.name().to_string(),
                },
                event: e,
            })
            .collect();
        let overflow = self.overflow;
        self.overflow = 0;
        TraceLog { spans, overflow }
    }
}

/// One span with its element label resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Display name: the element name for element spans, the kind name
    /// for hop records.
    pub label: String,
    /// The raw record.
    pub event: TraceEvent,
}

/// A drained, mergeable collection of trace spans — the exportable
/// artifact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceLog {
    /// All spans, in per-core record order (merge interleaves cores).
    pub spans: Vec<TraceSpan>,
    /// Records lost to per-core capacity bounds.
    pub overflow: u64,
}

impl TraceLog {
    /// Appends another log's spans (associative, like snapshot merge).
    pub fn merge(&mut self, other: TraceLog) {
        self.spans.extend(other.spans);
        self.overflow += other.overflow;
    }

    /// Distinct traced packets in the log.
    pub fn traced_packets(&self) -> usize {
        let mut ids: Vec<u64> = self.spans.iter().map(|s| s.event.trace_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// All spans for one trace ID, sorted by timestamp — the packet's
    /// path through the graph.
    pub fn path_of(&self, trace_id: u64) -> Vec<&TraceSpan> {
        let mut path: Vec<&TraceSpan> = self
            .spans
            .iter()
            .filter(|s| s.event.trace_id == trace_id)
            .collect();
        path.sort_by_key(|s| s.event.ts);
        path
    }

    /// Per-packet latencies in recorder ticks: for every traced packet,
    /// the span of wall time from its first recorded event to the end of
    /// its last (`ts + dur`). Returned sorted ascending, ready for
    /// [`TraceLog::latency_percentiles`]. Packets with a single
    /// instantaneous record yield 0 — they are kept, since "no measurable
    /// dwell" is a real latency observation, not a gap.
    pub fn packet_latencies(&self) -> Vec<u64> {
        use std::collections::HashMap;
        // (first start, last end) per trace id.
        let mut bounds: HashMap<u64, (u64, u64)> = HashMap::new();
        for span in &self.spans {
            let e = &span.event;
            let end = e.ts.saturating_add(e.dur);
            bounds
                .entry(e.trace_id)
                .and_modify(|(first, last)| {
                    *first = (*first).min(e.ts);
                    *last = (*last).max(end);
                })
                .or_insert((e.ts, end));
        }
        let mut lat: Vec<u64> = bounds.values().map(|(first, last)| last - first).collect();
        lat.sort_unstable();
        lat
    }

    /// Nearest-rank percentile over a sorted sample set; 0 when empty.
    pub fn percentile(sorted: &[u64], p: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        // At most `len` for p ≤ 100; `as` saturates and the clamp bounds
        // any other p.
        debug_assert!((0.0..=100.0).contains(&p));
        #[allow(clippy::cast_possible_truncation)]
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// `(p50, p99, p999)` packet latencies in recorder ticks — the
    /// p99 columns of `paper table1` and `paper regimes`.
    pub fn latency_percentiles(&self) -> (u64, u64, u64) {
        let lat = self.packet_latencies();
        (
            Self::percentile(&lat, 50.0),
            Self::percentile(&lat, 99.0),
            Self::percentile(&lat, 99.9),
        )
    }

    /// Exports Chrome trace-event JSON. `ticks_per_us` converts recorder
    /// ticks to microseconds (the trace-event time unit): pass
    /// `cycles::ticks_per_sec() / 1e6` for runtime traces or `1000.0`
    /// for the cluster simulator's nanosecond clock.
    ///
    /// Element and cluster-hop spans become complete events (`ph: "X"`);
    /// ring hops become flow-event pairs (`ph: "s"` / `ph: "f"`) keyed by
    /// trace ID, which Perfetto draws as cross-track arrows. Track IDs:
    /// `pid` is the cluster node (0 on a single server), `tid` the core.
    ///
    /// With `events`, the structured event journal is injected as instant
    /// events (`ph: "i"`, global scope) — stall episode edges, FIB
    /// publishes, SLO transitions and the dispatcher fuse appear as flags
    /// across all tracks, lined up against the packet spans on the same
    /// clock.
    pub fn to_chrome_json(&self, ticks_per_us: f64, events: Option<&EventLog>) -> String {
        let scale = if ticks_per_us > 0.0 {
            1.0 / ticks_per_us
        } else {
            1.0
        };
        let journal = events.map_or(&[][..], |log| &log.events[..]);
        // Normalize to the earliest span so timestamps start near zero.
        let t0 = self
            .spans
            .iter()
            .map(|s| s.event.ts)
            .chain(journal.iter().map(|e| e.tick))
            .min()
            .unwrap_or(0);
        let us = |ticks: u64| ticks.saturating_sub(t0) as f64 * scale;
        json::object(|w| {
            w.key("traceEvents").arr(|w| {
                for e in journal {
                    w.obj(|w| {
                        w.key("name").str(e.kind.as_str());
                        w.key("cat").str("journal").key("ph").str("i");
                        w.key("s").str("g");
                        w.key("ts").float(us(e.tick), 3);
                        w.key("pid").int(0).key("tid").int(e.core as u64);
                        w.key("args").obj(|w| {
                            w.key("arg").int(e.arg);
                        });
                    });
                }
                for span in &self.spans {
                    let e = &span.event;
                    w.obj(|w| {
                        w.key("name").str(&span.label);
                        w.key("cat").str(e.kind.name());
                        w.key("ts").float(us(e.ts), 3);
                        w.key("pid").int(e.node).key("tid").int(e.core);
                        match e.kind {
                            TraceKind::Element | TraceKind::ClusterHop => {
                                w.key("ph").str("X");
                                w.key("dur").float(e.dur as f64 * scale, 3);
                                w.key("args").obj(|w| {
                                    w.key("trace_id").int(e.trace_id);
                                });
                            }
                            TraceKind::RingSend => {
                                w.key("ph").str("s").key("id").int(e.trace_id);
                            }
                            TraceKind::RingRecv => {
                                w.key("ph").str("f").key("bp").str("e");
                                w.key("id").int(e.trace_id);
                            }
                        }
                    });
                }
            });
            w.key("trace_overflow").int(self.overflow);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn disabled_tracer_assigns_nothing_and_records_nothing() {
        let mut t = Tracer::off();
        assert!(!t.enabled());
        for _ in 0..100 {
            assert_eq!(t.maybe_assign(), 0);
        }
        t.record_element(3, &[42], 10, 5);
        assert!(t.is_empty());
    }

    #[test]
    fn sampling_assigns_every_nth() {
        let mut t = Tracer::new(4, 0);
        let ids: Vec<u64> = (0..16).map(|_| t.maybe_assign()).collect();
        let assigned: Vec<u64> = ids.iter().copied().filter(|&i| i != 0).collect();
        assert_eq!(assigned.len(), 4, "1/4 of 16 emissions sampled");
        // Every 4th call gets an ID; the rest get zero.
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(*id != 0, (i + 1) % 4 == 0, "call {i}");
        }
    }

    #[test]
    fn id_space_is_partitioned_by_core() {
        let mut a = Tracer::new(1, 0);
        let mut b = Tracer::new(1, 1);
        let ids_a: Vec<u64> = (0..100).map(|_| a.maybe_assign()).collect();
        let ids_b: Vec<u64> = (0..100).map(|_| b.maybe_assign()).collect();
        for id in &ids_a {
            assert!(!ids_b.contains(id), "cores share trace id {id}");
        }
    }

    /// The top core keeps its own ID space; one past it is refused, where
    /// `(core + 1) << 40` would have lost the core's high bit and named
    /// core -1.
    #[test]
    fn cores_past_the_id_space_are_refused() {
        let core_bits = |core: u32| {
            let mut t = Tracer::new(1, 0);
            t.set_core(core);
            let by_new = Tracer::new(1, core).maybe_assign();
            assert_eq!(t.maybe_assign(), by_new);
            by_new >> 40
        };
        let top = Tracer::MAX_CORE;
        assert_eq!(core_bits(top - 1), u64::from(top));
        assert_eq!(core_bits(top), u64::from(top) + 1);
        assert!(std::panic::catch_unwind(|| Tracer::new(1, top + 1)).is_err());
        let mut t = Tracer::new(1, 0);
        let set = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.set_core(top + 1)));
        assert!(set.is_err());
        assert_eq!(t.core(), 0, "a refused core leaves the tracer as it was");
    }

    #[test]
    fn zero_id_records_are_skipped_without_overflow() {
        let mut t = Tracer::new(1, 0);
        t.record_element(1, &[0, 0, 7], 5, 1);
        assert_eq!(t.len(), 1, "only the nonzero id is recorded");
    }

    #[test]
    fn capacity_bound_counts_overflow() {
        let mut t = Tracer::new(1, 0);
        t.cap = 2;
        for i in 1..=5u64 {
            t.record_hop(TraceKind::RingSend, &[i], i);
        }
        assert_eq!(t.len(), 2);
        let log = t.drain(|_| String::new());
        assert_eq!(log.overflow, 3);
        assert_eq!(log.spans.len(), 2);
    }

    #[test]
    fn drain_resolves_labels_and_paths_sort_by_time() {
        let mut t = Tracer::new(1, 0);
        t.record_element(2, &[9], 30, 4);
        t.record_element(1, &[9], 10, 4);
        t.record_hop(TraceKind::RingSend, &[9], 20);
        let log = t.drain(|stage| format!("el{stage}"));
        let path = log.path_of(9);
        assert_eq!(path.len(), 3);
        assert_eq!(path[0].label, "el1");
        assert_eq!(path[1].label, "ring_send");
        assert_eq!(path[2].label, "el2");
        assert_eq!(log.traced_packets(), 1);
    }

    #[test]
    fn chrome_export_parses_and_pairs_flow_events() {
        let mut t = Tracer::new(1, 0);
        let id = t.maybe_assign();
        assert_ne!(id, 0);
        t.record_element(0, &[id], 100, 50);
        t.record_hop(TraceKind::RingSend, &[id], 160);
        t.set_core(1);
        t.record_hop(TraceKind::RingRecv, &[id], 200);
        t.record_element(1, &[id], 210, 30);
        let log = t.drain(|s| format!("stage{s}"));
        let text = log.to_chrome_json(1.0, None);
        let v = json::parse(&text).expect("chrome JSON parses");
        let events = v
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 4);
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").and_then(json::Value::as_str).unwrap())
            .collect();
        assert_eq!(phases, ["X", "s", "f", "X"]);
        // Flow start/finish share an id, land on different tids.
        let send = &events[1];
        let recv = &events[2];
        assert_eq!(
            send.get("id").and_then(json::Value::as_f64),
            recv.get("id").and_then(json::Value::as_f64)
        );
        assert_ne!(
            send.get("tid").and_then(json::Value::as_f64),
            recv.get("tid").and_then(json::Value::as_f64)
        );
        // Timestamps normalized to the earliest span.
        assert_eq!(events[0].get("ts").and_then(json::Value::as_f64), Some(0.0));
    }

    #[test]
    fn journal_events_inject_as_instants() {
        let mut t = Tracer::new(1, 0);
        t.record_element(0, &[5], 100, 10);
        let log = t.drain(|_| "el".to_string());
        let mut journal = crate::events::EventLog::default();
        journal.events.push(crate::events::Event {
            seq: 0,
            core: 3,
            tick: 150,
            kind: crate::events::EventKind::DispatcherFuse,
            arg: 42,
        });
        let text = log.to_chrome_json(1.0, Some(&journal));
        let v = json::parse(&text).expect("chrome JSON with instants parses");
        let events = v
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 2);
        let instant = &events[0];
        assert_eq!(
            instant.get("ph").and_then(json::Value::as_str),
            Some("i"),
            "{text}"
        );
        assert_eq!(
            instant.get("name").and_then(json::Value::as_str),
            Some("dispatcher_fuse")
        );
        assert_eq!(instant.get("ts").and_then(json::Value::as_f64), Some(50.0));
        assert_eq!(instant.get("tid").and_then(json::Value::as_f64), Some(3.0));
    }

    #[test]
    fn packet_latencies_span_first_to_last_event() {
        let mut t = Tracer::new(1, 0);
        // Packet 1: first ts 10, last ends at 30+4. Packet 2: one span.
        t.record_element(0, &[1], 10, 4);
        t.record_hop(TraceKind::RingSend, &[1], 20);
        t.record_element(1, &[1], 30, 4);
        t.record_element(0, &[2], 100, 7);
        let log = t.drain(|_| "e".into());
        let lat = log.packet_latencies();
        assert_eq!(lat, vec![7, 24]);
        let (p50, p99, p999) = log.latency_percentiles();
        assert_eq!(p50, 7);
        assert_eq!(p99, 24);
        assert_eq!(p999, 24);
        assert_eq!(TraceLog::percentile(&[], 50.0), 0);
    }

    #[test]
    fn merge_concatenates_logs() {
        let mut a = Tracer::new(1, 0);
        a.record_element(0, &[1], 1, 1);
        let mut b = Tracer::new(1, 1);
        b.record_element(0, &[2], 2, 1);
        let mut log = a.drain(|_| "x".into());
        log.merge(b.drain(|_| "y".into()));
        assert_eq!(log.spans.len(), 2);
        assert_eq!(log.traced_packets(), 2);
    }
}
