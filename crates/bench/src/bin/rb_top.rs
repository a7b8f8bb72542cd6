//! `top`-style live view of a running router, over the embedded scrape
//! endpoint.
//!
//! Points at a router built with `serve_metrics` (or the
//! `RuntimeConfig(serve_metrics ...)` knob), polls the JSON routes and
//! redraws the interval table, per-stage shares, and journal tail with
//! [`render_top`] — the same formatter the in-process
//! harvest path uses, fed from the wire instead of from shared rings.
//!
//!     rb_top 127.0.0.1:9898              # redraw every second
//!     rb_top 127.0.0.1:9898 --ms 250     # faster refresh
//!     rb_top 127.0.0.1:9898 --polls 3    # fixed number of polls (CI)
//!
//! The JSON exposition carries interval quantiles rather than the full
//! latency sketch, so the rebuilt histogram holds one sample per
//! exported quantile — the p50/p99 columns show the served values, not
//! a re-aggregation.

use routebricks::telemetry::http::http_get;
use routebricks::telemetry::{
    json, render_top, DropCause, Event, EventKind, EventLog, IntervalStats, Log2Histogram,
    SloState, StageDelta,
};
use std::net::SocketAddr;
use std::time::Duration;

const ROWS: usize = 10;

fn num(v: &json::Value, key: &str) -> u64 {
    v.get(key).and_then(json::Value::as_f64).unwrap_or(0.0) as u64
}

/// Interval series + stage labels + tick rate, as served on the wire.
type WireSeries = (Vec<IntervalStats>, Vec<(String, String)>, f64);

/// Rebuilds the interval series (and the tick rate) from the
/// `/timeseries.json` body.
fn parse_series(body: &str) -> Option<WireSeries> {
    let v = json::parse(body).ok()?;
    let tps = v.get("ticks_per_sec").and_then(json::Value::as_f64)?;
    let ticks_per_us = tps / 1e6;
    let names: Vec<(String, String)> = v
        .get("stage_names")
        .and_then(json::Value::as_array)
        .map(|a| {
            a.iter()
                .filter_map(|s| {
                    Some((
                        s.get("name")?.as_str()?.to_string(),
                        s.get("class")?.as_str()?.to_string(),
                    ))
                })
                .collect()
        })
        .unwrap_or_default();
    let mut series = Vec::new();
    for b in v.get("intervals").and_then(json::Value::as_array)? {
        let mut out = IntervalStats::empty(num(b, "seq"), 0, num(b, "start_tick"));
        out.end_tick = num(b, "end_tick");
        out.quanta = num(b, "quanta");
        out.empty_polls = num(b, "empty_polls");
        out.sourced = num(b, "sourced");
        out.forwarded = num(b, "forwarded");
        out.tx_bytes = num(b, "tx_bytes");
        out.credit_stalls = num(b, "credit_stalls");
        out.nic_desc_stalls = num(b, "nic_desc_stalls");
        if let Some(json::Value::Obj(drops)) = b.get("drops") {
            for (cause, n) in drops {
                if let Some(i) = DropCause::ALL.iter().position(|c| c.as_str() == cause) {
                    out.drops[i] = n.as_f64().unwrap_or(0.0) as u64;
                }
            }
        }
        if let Some(stages) = b.get("stages").and_then(json::Value::as_array) {
            out.stages = stages
                .iter()
                .map(|d| StageDelta {
                    packets: num(d, "packets"),
                    cycles: num(d, "cycles"),
                })
                .collect();
        }
        let mut lat = Log2Histogram::new();
        for q in ["lat_p50_us", "lat_p99_us"] {
            let us = b.get(q).and_then(json::Value::as_f64).unwrap_or(0.0);
            if us > 0.0 {
                lat.record((us * ticks_per_us) as u64);
            }
        }
        out.latency = lat;
        series.push(out);
    }
    Some((series, names, tps))
}

/// Rebuilds the journal from the `/events.json` body.
fn parse_events(body: &str) -> EventLog {
    let mut log = EventLog::default();
    for (i, line) in body.lines().enumerate() {
        let Ok(v) = json::parse(line) else { continue };
        if i == 0 {
            log.overflow = num(&v, "overflow");
            continue;
        }
        let Some(kind) = v
            .get("kind")
            .and_then(json::Value::as_str)
            .and_then(|s| EventKind::ALL.iter().find(|k| k.as_str() == s).copied())
        else {
            continue;
        };
        log.events.push(Event {
            seq: log.events.len() as u64,
            core: num(&v, "core") as usize,
            tick: num(&v, "tick"),
            kind,
            arg: num(&v, "arg"),
        });
    }
    log
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut addr: Option<SocketAddr> = None;
    let mut period_ms = 1000u64;
    let mut polls = 0u64; // 0 = until interrupted.
    while let Some(a) = args.next() {
        match a.as_str() {
            "--ms" => {
                period_ms = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--ms takes milliseconds")
            }
            "--polls" => {
                polls = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--polls takes a count")
            }
            other => {
                addr = Some(
                    other
                        .parse()
                        .unwrap_or_else(|e| panic!("bad address `{other}`: {e}")),
                )
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("usage: rb_top <host:port> [--ms <period>] [--polls <n>]");
        std::process::exit(2);
    };

    let mut done = 0u64;
    loop {
        match http_get(addr, "/timeseries.json") {
            Ok((200, body)) => {
                let Some((series, names, tps)) = parse_series(&body) else {
                    eprintln!("rb_top: unparsable /timeseries.json from {addr}");
                    std::process::exit(1);
                };
                let log = http_get(addr, "/events.json")
                    .ok()
                    .map(|(_, b)| parse_events(&b))
                    .unwrap_or_default();
                let health = http_get(addr, "/healthz")
                    .ok()
                    .and_then(|(status, b)| {
                        let state = json::parse(&b)
                            .ok()?
                            .get("state")
                            .and_then(json::Value::as_str)
                            .map(str::to_string)?;
                        Some((status, state))
                    })
                    .unwrap_or((0, "unknown".to_string()));
                // Clear + home, like top(1); harmless when piped.
                print!("\x1b[2J\x1b[H");
                println!(
                    "rb_top {addr}  health={} ({})  intervals={}  events={}",
                    health.1,
                    health.0,
                    series.len(),
                    log.len()
                );
                print!(
                    "{}",
                    render_top(&series, None, tps, ROWS, &names, Some(&log))
                );
                if health.1 == SloState::Burning.as_str() {
                    println!("ALERT: SLO burning — see /events.json for the transition arc");
                }
            }
            Ok((status, _)) => {
                eprintln!("rb_top: {addr}/timeseries.json returned {status}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("rb_top: cannot reach {addr}: {e}");
                std::process::exit(1);
            }
        }
        done += 1;
        if polls > 0 && done >= polls {
            break;
        }
        std::thread::sleep(Duration::from_millis(period_ms));
    }
}
