//! The harness's own spans: recorded in memory around the calls into each
//! layer, written as Chrome trace-event JSON when the run ends. Nothing
//! here reaches inside the router.

use routebricks::telemetry::json::esc;
use std::time::Instant;

/// Thread lanes of the trace.
pub const TID_DATAPLANE: u32 = 0;
pub const TID_CONTROL: u32 = 1;
pub const TID_PROBES: u32 = 2;

/// One closed span. `id` is unique in the run; `parent` is the id of the
/// span that caused this one (0 = none), so a round's `inject` and
/// `run_until_idle` children share the round's id as their parent.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub tid: u32,
    pub id: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span (packets, routes, probe operations).
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Appends spans against one epoch. One recorder per thread; lanes are
/// merged with [`Recorder::absorb`] after the threads join.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    tid: u32,
    next_id: u32,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, tid: u32) -> Recorder {
        Recorder {
            epoch,
            tid,
            // Ids are unique across lanes: the lane is the top byte.
            next_id: (tid << 24) + 1,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserves an id for a span whose children are recorded first.
    pub fn reserve_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    pub fn push(
        &mut self,
        name: &'static str,
        id: u32,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
        count: u64,
    ) {
        self.spans.push(Span {
            name,
            tid: self.tid,
            id,
            parent,
            start_ns,
            end_ns,
            count,
        });
    }

    /// Times `f` as one parentless span and returns its result with the
    /// span's duration in nanoseconds.
    pub fn time<T>(&mut self, name: &'static str, count: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.reserve_id();
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.push(name, id, 0, start, end, count);
        (out, end - start)
    }

    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    /// Total duration and count of every span called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(d, c), s| (d + s.dur_ns(), c + s.count))
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): complete
    /// (`"ph": "X"`) events with microsecond timestamps; id, parent and
    /// count ride in `args`.
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 140);
        out.push_str("{\"displayTimeUnit\": \"ns\", \"otherData\": {\"workload\": \"");
        out.push_str(&esc(workload));
        out.push_str("\"}, \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"id\": {}, \"parent\": {}, \"count\": {}}}}}",
                esc(s.name),
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.id,
                s.parent,
                s.count
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routebricks::telemetry::json;

    #[test]
    fn totals_sum_duration_and_count_by_name() {
        let mut rec = Recorder::new(Instant::now(), TID_DATAPLANE);
        let round = rec.reserve_id();
        for (start, end) in [(10, 30), (40, 50)] {
            let id = rec.reserve_id();
            rec.push("inject", id, round, start, end, 512);
        }
        rec.push("round", round, 0, 0, 100, 1_024);
        assert_eq!(rec.total("inject"), (30, 1_024));
        assert_eq!(rec.total("round"), (100, 1_024));
        assert_eq!(rec.total("absent"), (0, 0));
    }

    #[test]
    fn lanes_get_disjoint_ids_and_merge() {
        let epoch = Instant::now();
        let mut data = Recorder::new(epoch, TID_DATAPLANE);
        let mut ctl = Recorder::new(epoch, TID_CONTROL);
        let (_, _) = data.time("round", 1, || ());
        let (_, _) = ctl.time("publish", 1_000, || ());
        assert_ne!(data.spans[0].id, ctl.spans[0].id);
        data.absorb(ctl);
        assert_eq!(data.spans.len(), 2);
        assert_eq!(data.total("publish").1, 1_000);
    }

    #[test]
    fn chrome_json_parses_and_keeps_the_fields() {
        let mut rec = Recorder::new(Instant::now(), TID_PROBES);
        let id = rec.reserve_id();
        rec.push("probe \"pool\"", id, 0, 1_500, 4_000, 32);
        let doc = json::parse(&rec.to_chrome_json("fwd64_tuned")).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .unwrap();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(
            e.get("name").and_then(json::Value::as_str),
            Some("probe \"pool\"")
        );
        assert_eq!(e.get("ph").and_then(json::Value::as_str), Some("X"));
        assert_eq!(e.get("ts").and_then(json::Value::as_f64), Some(1.5));
        assert_eq!(e.get("dur").and_then(json::Value::as_f64), Some(2.5));
        let args = e.get("args").unwrap();
        assert_eq!(args.get("count").and_then(json::Value::as_f64), Some(32.0));
        assert_eq!(
            doc.get("otherData")
                .and_then(|o| o.get("workload"))
                .and_then(json::Value::as_str),
            Some("fwd64_tuned")
        );
    }
}
