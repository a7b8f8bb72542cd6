//! Dependency-free embedded HTTP/1.1 scrape endpoint (std-only).
//!
//! [`MetricsServer`] owns one background thread that is both the
//! *harvester* (polling the interval rings the workers publish into,
//! wait-free for the writers, and deriving the journal from them) and
//! the *server* (answering `GET /metrics`, `/healthz`,
//! `/timeseries.json`, `/events.json`).
//! Workers are never paused by a scrape: readers only ever copy out of
//! seqlock rings, so the endpoint returns a seq-consistent snapshot no
//! matter how hard the dataplane is writing.
//!
//! The server outlives individual runs. [`MetricsServer::attach`] folds
//! any previously-attached run into an accumulated history (interval
//! seqs renumbered to continue the series), so a sequence of runs
//! against one server reads as one continuous operational timeline —
//! which is what lets the SLO burn state transition ok → burning → ok
//! across an overload episode and back.
//!
//! The monitor thread is also the *author* of SLO-transition events: it
//! grades the merged series after every poll and journals a
//! [`EventKind::SloTransition`] whenever the verdict changes.

use crate::events::{encode_slo_transition, Event, EventKind, EventLog};
use crate::slo::{SloReport, SloSpec, SloState};
use crate::timeseries::{Harvester, IntervalRing, TimeSeries};
use crate::{cycles, json, prometheus};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Everything the monitor needs to observe one run: the shared rings
/// plus the run's clock and objective configuration.
#[derive(Debug, Default)]
pub struct MonitorSource {
    /// One interval ring per worker core.
    pub interval_rings: Vec<Arc<IntervalRing>>,
    /// Nominal interval width in ticks.
    pub interval_ticks: u64,
    /// Tick rate for pps/latency conversion (0 keeps the previous).
    pub ticks_per_sec: f64,
    /// SLO objectives to grade the live series against.
    pub slo: Option<SloSpec>,
}

/// Monitor-side state behind the server mutex. The dataplane never
/// touches this — workers publish into rings; only the monitor thread
/// and scrape handlers lock it.
struct State {
    /// The currently attached run's rings.
    live: Option<Harvester>,
    /// Folded series of every previously attached (finished) run.
    history: TimeSeries,
    /// Folded journal of previous runs plus monitor-authored events.
    event_history: EventLog,
    interval_ticks: u64,
    ticks_per_sec: f64,
    slo: Option<SloSpec>,
    /// Last graded verdict, for transition edge detection.
    last_state: SloState,
    /// Core id the monitor stamps on its own events (one past the
    /// widest worker set seen).
    monitor_core: usize,
    monitor_seq: u64,
}

impl State {
    /// Polls the live rings and returns the full merged series: history
    /// plus the currently-attached run, seqs continuous.
    fn series(&mut self) -> TimeSeries {
        let mut out = self.history.clone();
        if let Some(live) = self.live.as_mut() {
            live.poll(true);
            out.extend(&live.timeseries(self.interval_ticks));
        }
        out
    }

    /// Polls the live rings and returns the full merged journal.
    fn events(&mut self) -> EventLog {
        let mut out = self.event_history.clone();
        if let Some(live) = self.live.as_mut() {
            live.poll(true);
            out.merge(&live.events());
        }
        out
    }

    /// Grades the merged series and journals a transition event when
    /// the verdict changed since the last grading.
    fn grade(&mut self) -> (SloState, Option<SloReport>) {
        let Some(spec) = self.slo else {
            return (SloState::Ok, None);
        };
        let series = self.series();
        let report = SloReport::evaluate(&spec, &series.intervals, self.ticks_per_sec);
        let state = report.state;
        if state != self.last_state {
            let e = Event {
                seq: self.monitor_seq,
                core: self.monitor_core,
                tick: cycles::now(),
                kind: EventKind::SloTransition,
                arg: encode_slo_transition(self.last_state, state),
            };
            self.monitor_seq += 1;
            self.event_history.events.push(e);
            self.event_history.sort();
            self.last_state = state;
        }
        (state, Some(report))
    }

    /// Folds the currently attached run into history and installs the
    /// new source.
    fn attach(&mut self, source: MonitorSource) {
        if let Some(finished) = self.live.take() {
            let (series, events) = finished.finish(self.interval_ticks);
            self.history.extend(&series);
            self.event_history.merge(&events);
        }
        self.monitor_core = self.monitor_core.max(source.interval_rings.len());
        if source.interval_ticks > 0 {
            self.interval_ticks = source.interval_ticks;
        }
        if source.ticks_per_sec > 0.0 {
            self.ticks_per_sec = source.ticks_per_sec;
        }
        if source.slo.is_some() {
            self.slo = source.slo;
        }
        self.live = Some(Harvester::new(source.interval_rings));
    }
}

struct Shared {
    stop: AtomicBool,
    state: Mutex<State>,
}

/// The embedded scrape endpoint: binds a TCP listener, spawns the
/// monitor thread, and serves until dropped.
pub struct MetricsServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    thread: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9898`; port 0 picks a free port)
    /// and starts the monitor/server thread.
    pub fn bind(addr: &str) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            state: Mutex::new(State {
                live: None,
                history: TimeSeries::default(),
                event_history: EventLog::default(),
                interval_ticks: 0,
                ticks_per_sec: cycles::ticks_per_sec(),
                slo: None,
                last_state: SloState::Ok,
                monitor_core: 0,
                monitor_seq: 0,
            }),
        });
        let worker = Arc::clone(&shared);
        let thread = thread::Builder::new()
            .name("rb-metrics".to_string())
            .spawn(move || serve_loop(&worker, &listener))?;
        Ok(MetricsServer {
            shared,
            addr,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Points the monitor at a (new) run's rings. Any previously
    /// attached run is folded into the accumulated history first, so
    /// back-to-back runs read as one continuous series.
    pub fn attach(&self, source: MonitorSource) {
        self.shared
            .state
            .lock()
            .expect("monitor lock")
            .attach(source);
    }

    /// Current SLO verdict over the full merged series (what
    /// `/healthz` reports).
    pub fn health(&self) -> SloState {
        self.shared.state.lock().expect("monitor lock").grade().0
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The monitor thread: interleaves ring harvesting, SLO grading, and
/// request handling. Never blocks longer than the poll tick, so a
/// scrape is answered within ~1 ms even when no requests are pending.
fn serve_loop(shared: &Shared, listener: &TcpListener) {
    while !shared.stop.load(Ordering::Acquire) {
        {
            let mut state = shared.state.lock().expect("monitor lock");
            state.grade();
        }
        loop {
            match listener.accept() {
                Ok((stream, _)) => handle_connection(shared, stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        thread::sleep(Duration::from_millis(1));
    }
}

/// How long a client has to deliver its request, from accept to the
/// blank line. The monitor thread serves one connection at a time and is
/// also the thread that grades the SLO and harvests rings that lap in
/// [`crate::DEFAULT_RING_CAP`] intervals, so the bound is on the whole
/// request: a per-read timeout would restart with every dribbled byte.
const REQUEST_DEADLINE: Duration = Duration::from_millis(250);

/// Reads one request, routes it, writes one response, closes.
fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(1000)));
    let Some(path) = read_request_path(&mut stream, Instant::now() + REQUEST_DEADLINE) else {
        let _ = write_response(&mut stream, 400, "text/plain", "bad request\n");
        return;
    };
    let (status, content_type, body) = route(shared, &path);
    let _ = write_response(&mut stream, status, content_type, &body);
}

/// Parses the request line out of an HTTP/1.x request, draining headers.
/// `None` — a 400 — for anything but a `GET` that arrived in full by
/// `deadline`.
fn read_request_path(stream: &mut TcpStream, deadline: Instant) -> Option<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        // Each read may take what is left of the one deadline, no more.
        let left = deadline.checked_duration_since(Instant::now())?;
        stream
            .set_read_timeout(Some(left.max(Duration::from_millis(1))))
            .ok()?;
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
                    break;
                }
            }
            Err(_) => return None,
        }
    }
    let text = String::from_utf8_lossy(&buf);
    let line = text.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    if method != "GET" {
        return None;
    }
    Some(path.to_string())
}

/// Routes a path to `(status, content type, body)`.
fn route(shared: &Shared, path: &str) -> (u16, &'static str, String) {
    let mut state = shared.state.lock().expect("monitor lock");
    match path {
        "/metrics" => {
            let (_, report) = state.grade();
            let (series, events) = (state.series(), state.events());
            let text =
                prometheus::render(&series, report.as_ref(), state.ticks_per_sec, Some(&events));
            (200, "text/plain; version=0.0.4", text)
        }
        "/healthz" => {
            let (verdict, report) = state.grade();
            let status = if verdict == SloState::Burning {
                503
            } else {
                200
            };
            let slo = report.map_or("null".to_string(), |r| r.to_json());
            let mut body = json::object(|w| {
                w.key("state").str(verdict.as_str());
                w.key("slo").raw(&slo);
            });
            body.push('\n');
            (status, "application/json", body)
        }
        "/timeseries.json" => {
            let series = state.series();
            (200, "application/json", series.to_json(state.ticks_per_sec))
        }
        "/events.json" => {
            state.grade();
            let events = state.events();
            (200, "application/x-ndjson", events.to_json_lines())
        }
        _ => (404, "text/plain", "not found\n".to_string()),
    }
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Minimal blocking HTTP GET against the embedded server — the client
/// half `rb_top` and the scrape smoke tests use, kept here so client
/// and server share one wire dialect. Returns `(status, body)`.
pub fn http_get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let req = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::{CumulativeTotals, IntervalRecorder, StageDelta};
    use crate::{json, DropCause};

    fn wait_for<T>(mut probe: impl FnMut() -> Option<T>) -> T {
        for _ in 0..500 {
            if let Some(v) = probe() {
                return v;
            }
            thread::sleep(Duration::from_millis(10));
        }
        panic!("condition not reached within 5s");
    }

    #[test]
    fn serves_all_routes_with_attached_source() {
        let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let mut rec = IntervalRecorder::with_stage_labels(
            0,
            100,
            0,
            64,
            vec![("rx".to_string(), "FromDevice".to_string())],
        );
        server.attach(MonitorSource {
            interval_rings: vec![rec.ring()],
            interval_ticks: 100,
            ticks_per_sec: 1e9,
            slo: SloSpec::parse("loss:0.5/floor:1"),
        });
        rec.quantum(10, true);
        // A NIC stall in the interval: the harvester derives its edge.
        let totals = CumulativeTotals {
            sourced: 10,
            forwarded: 10,
            nic_desc_stalls: 2,
            stages: vec![StageDelta {
                packets: 10,
                cycles: 50,
            }],
            ..CumulativeTotals::default()
        };
        rec.roll(100, &totals);

        let addr = server.local_addr();
        let metrics = wait_for(|| {
            let (status, body) = http_get(addr, "/metrics").ok()?;
            (status == 200 && body.contains("rb_sourced_packets_total 10")).then_some(body)
        });
        prometheus::lint(&metrics).expect("live exposition lints clean");
        assert!(
            metrics.contains("rb_stage_packets_total{element=\"rx\",class=\"FromDevice\"} 10"),
            "{metrics}"
        );
        assert!(
            metrics.contains("rb_events_total{kind=\"nic_stall_start\"} 1"),
            "{metrics}"
        );

        let (status, body) = http_get(addr, "/healthz").expect("healthz");
        assert_eq!(status, 200);
        let v = json::parse(&body).expect("healthz is JSON");
        assert_eq!(v.get("state").and_then(json::Value::as_str), Some("ok"));

        let (status, body) = http_get(addr, "/timeseries.json").expect("timeseries");
        assert_eq!(status, 200);
        let v = json::parse(&body).expect("timeseries is JSON");
        assert!(v.get("intervals").and_then(json::Value::as_array).is_some());

        let (status, body) = http_get(addr, "/events.json").expect("events");
        assert_eq!(status, 200);
        assert!(body.contains("\"nic_stall_start\""), "{body}");

        let (status, _) = http_get(addr, "/nonsense").expect("404 route");
        assert_eq!(status, 404);
    }

    /// The request deadline is on the whole request. With a per-read
    /// timeout a client sending a byte every 150 ms never timed out, and
    /// held the one monitor thread — scrapes, SLO grading and ring
    /// harvesting with it — for as long as it liked.
    #[test]
    fn a_dribbling_client_cannot_hold_the_monitor() {
        let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let mut slow = TcpStream::connect(addr).expect("connect");
        slow.write_all(b"G").expect("first byte");
        let started = Instant::now();
        // The dribbler connected first, so the accept queue hands it to
        // the monitor first: the scrape below waits behind it.
        let scraper = thread::spawn(move || {
            let t = Instant::now();
            let answer = http_get(addr, "/healthz");
            (answer, t.elapsed())
        });
        // A byte whenever 150 ms pass without an answer: each one used to
        // restart the 200 ms read timeout, so the request below, never
        // finished, held the thread for three seconds.
        slow.set_read_timeout(Some(Duration::from_millis(150)))
            .unwrap();
        let mut dribble = b"ET /healthz HTTP/1.1".iter();
        let (mut response, mut chunk) = (Vec::new(), [0u8; 256]);
        loop {
            match slow.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => response.extend_from_slice(&chunk[..n]),
                Err(_) => match dribble.next() {
                    Some(byte) => slow.write_all(&[*byte]).expect("server still reading"),
                    None => break,
                },
            }
        }
        let response = String::from_utf8_lossy(&response);
        assert!(response.starts_with("HTTP/1.1 400 "), "{response:?}");
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "the dribbler itself was cut off at the deadline"
        );
        let (answer, waited) = scraper.join().expect("scraper");
        let (status, body) = answer.expect("second client is answered");
        assert_eq!(status, 200);
        json::parse(&body).expect("healthz is JSON");
        assert!(
            waited < Duration::from_secs(1),
            "scrape waited {waited:?} behind a client that never finished"
        );
    }

    /// `SloSpec`'s fields are public, so a spec need not have come through
    /// `parse`: whatever it holds, `/healthz` answers with JSON.
    #[test]
    fn healthz_is_json_whatever_the_spec_holds() {
        let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let rec = IntervalRecorder::with_capacity(0, 10, 0, 8);
        server.attach(MonitorSource {
            interval_rings: vec![rec.ring()],
            interval_ticks: 10,
            ticks_per_sec: 1e9,
            slo: Some(SloSpec {
                p99_latency_us: Some(f64::INFINITY),
                min_pps: Some(f64::NAN),
                ..SloSpec::default()
            }),
        });
        let (status, body) = http_get(server.local_addr(), "/healthz").expect("healthz");
        assert_eq!(status, 200);
        let v = json::parse(&body).unwrap_or_else(|e| panic!("{e}: {body}"));
        let objectives = v.get("slo").and_then(|s| s.get("objectives"));
        assert_eq!(
            objectives.and_then(json::Value::as_array).map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn scrape_while_workers_write_is_seq_consistent() {
        // Satellite race test: a writer hammers the rings while we
        // scrape over real TCP. Every response must parse and every
        // decoded bucket must hold the writer's invariant
        // (forwarded == sourced) — a torn snapshot would break it.
        let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let mut rec = IntervalRecorder::with_capacity(0, 1, 0, 8);
        server.attach(MonitorSource {
            interval_rings: vec![rec.ring()],
            interval_ticks: 1,
            ticks_per_sec: 1e9,
            slo: None,
        });
        let stop = Arc::new(AtomicBool::new(false));
        let stop_w = Arc::clone(&stop);
        let writer = thread::spawn(move || {
            let mut totals = CumulativeTotals::default();
            let mut now = 0u64;
            while !stop_w.load(Ordering::Relaxed) {
                totals.sourced += 7;
                totals.forwarded += 7;
                rec.quantum(1, true);
                now += 2;
                rec.roll(now, &totals);
            }
        });
        let addr = server.local_addr();
        for _ in 0..25 {
            let (status, body) = http_get(addr, "/timeseries.json").expect("scrape");
            assert_eq!(status, 200);
            let v = json::parse(&body).expect("mid-run scrape parses");
            for b in v
                .get("intervals")
                .and_then(json::Value::as_array)
                .expect("intervals")
            {
                let sourced = b.get("sourced").and_then(json::Value::as_f64).unwrap();
                let forwarded = b.get("forwarded").and_then(json::Value::as_f64).unwrap();
                assert_eq!(sourced, forwarded, "torn scrape: {body}");
            }
            let (status, text) = http_get(addr, "/metrics").expect("metrics scrape");
            assert_eq!(status, 200);
            prometheus::lint(&text).expect("mid-run exposition lints");
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("writer");
    }

    #[test]
    fn reattach_accumulates_history_and_slo_transitions() {
        // Two "runs" against one server: a healthy one, then an
        // overloaded one. The series must accumulate and the monitor
        // must journal the ok → burning transition.
        let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let slo = SloSpec::parse("loss:0.01/fast:3/slow:6");

        let mut rec = IntervalRecorder::with_capacity(0, 10, 0, 64);
        server.attach(MonitorSource {
            interval_rings: vec![rec.ring()],
            interval_ticks: 10,
            ticks_per_sec: 1e9,
            slo,
        });
        let mut totals = CumulativeTotals::default();
        let mut now = 0;
        for _ in 0..6 {
            totals.sourced += 100;
            totals.forwarded += 100;
            rec.quantum(1, true);
            now += 10;
            rec.roll(now, &totals);
        }
        wait_for(|| (server.health() == SloState::Ok).then_some(()));

        // Second run: half the offered load drops.
        let mut rec2 = IntervalRecorder::with_capacity(0, 10, 0, 64);
        server.attach(MonitorSource {
            interval_rings: vec![rec2.ring()],
            interval_ticks: 10,
            ticks_per_sec: 1e9,
            slo,
        });
        let mut totals2 = CumulativeTotals::default();
        let mut now2 = 0;
        for _ in 0..6 {
            totals2.sourced += 100;
            totals2.forwarded += 50;
            totals2.drops[2] += 50; // QueueOverflow column.
            rec2.quantum(1, true);
            now2 += 10;
            rec2.roll(now2, &totals2);
        }
        wait_for(|| (server.health() == SloState::Burning).then_some(()));
        let (status, _) = http_get(addr, "/healthz").expect("healthz");
        assert_eq!(status, 503, "burning reads as 503");

        let (_, body) = http_get(addr, "/events.json").expect("events");
        assert!(body.contains("\"slo_transition\""), "{body}");
        let (_, ts) = http_get(addr, "/timeseries.json").expect("series");
        let v = json::parse(&ts).expect("series JSON");
        let n = v
            .get("intervals")
            .and_then(json::Value::as_array)
            .map(|a| a.len())
            .unwrap_or(0);
        assert!(n >= 12, "both runs' intervals accumulate, got {n}");
        // The drop cause label came from DropCause::as_str — check the
        // unified naming reached the wire.
        let (_, metrics) = http_get(addr, "/metrics").expect("metrics");
        assert!(
            metrics.contains(&format!(
                "rb_dropped_packets_total{{cause=\"{}\"}} 300",
                DropCause::QueueOverflow.as_str()
            )),
            "{metrics}"
        );
    }
}
