//! Service-level objectives over interval series: burn-rate
//! classification.
//!
//! An [`SloSpec`] names up to three objectives — latency p99 below a
//! bound, loss rate below a bound, throughput above a floor — and the
//! engine grades a [`TimeSeries`](crate::TimeSeries) against them with
//! the multi-window burn-rate method: each interval is *compliant* or
//! *violating* per objective; the violating fraction over a short and a
//! long trailing window, divided by the error budget, gives a fast and a
//! slow burn rate; both high means the budget is burning now
//! ([`SloState::Burning`]), only the fast one elevated is a
//! [`SloState::Warning`], and a clean fast window always reads
//! [`SloState::Ok`] — so a recovered overload clears the alert without
//! waiting for the long window to age out.
//!
//! Intervals with no traffic are neutral: they neither violate nor
//! repair an objective (an idle router is not "meeting" a throughput
//! floor, and grading silence would make short runs flap).

use crate::events::EventLog;
use crate::json;
use crate::timeseries::IntervalStats;

/// Error budget: tolerated violating-interval fraction (99 % compliance).
const ERROR_BUDGET: f64 = 0.01;

/// Burn rate at/above which both windows being hot means "burning"
/// (the classic 1-hour/5-minute page threshold).
const BURN_THRESHOLD: f64 = 14.4;

/// Burn rate at/above which an elevated pair of windows means
/// "warning" (the slow-burn ticket threshold).
const WARN_THRESHOLD: f64 = 6.0;

/// What the operator promised, parsed from `RouterBuilder::slo` or the
/// `RuntimeConfig(slo ...)` knob.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SloSpec {
    /// Latency objective: interval p99 of the quantum sketch at or
    /// below this many microseconds.
    pub p99_latency_us: Option<f64>,
    /// Loss objective: interval drop fraction at or below this.
    pub max_loss: Option<f64>,
    /// Throughput objective: interval forwarding rate at or above this
    /// many packets/second.
    pub min_pps: Option<f64>,
    /// Fast window length in intervals (0 = default 5).
    pub fast_window: usize,
    /// Slow window length in intervals (0 = default 20).
    pub slow_window: usize,
}

impl SloSpec {
    /// `true` when no objective is set.
    pub fn is_empty(&self) -> bool {
        self.p99_latency_us.is_none() && self.max_loss.is_none() && self.min_pps.is_none()
    }

    fn fast(&self) -> usize {
        if self.fast_window == 0 {
            5
        } else {
            self.fast_window
        }
    }

    fn slow(&self) -> usize {
        let s = if self.slow_window == 0 {
            20
        } else {
            self.slow_window
        };
        s.max(self.fast())
    }

    /// Parses the configuration-DSL spelling: `/`-separated
    /// `key:value` terms (no commas or spaces — the config grammar
    /// reserves both), e.g. `p99us:5000/loss:0.01/floor:1000000` or
    /// with window overrides `p99us:200/fast:3/slow:12`. A target must be
    /// a finite, non-negative number: `inf` and `nan` parse as floats but
    /// are not objectives, and would leave `/healthz` printing a number
    /// JSON does not have.
    pub fn parse(spec: &str) -> Option<SloSpec> {
        let target = |value: &str| {
            let v = value.parse::<f64>().ok()?;
            (v.is_finite() && v >= 0.0).then_some(v)
        };
        let mut out = SloSpec::default();
        for term in spec.split('/').filter(|t| !t.is_empty()) {
            let (key, value) = term.split_once(':')?;
            match key {
                "p99us" => out.p99_latency_us = Some(target(value)?),
                "loss" => out.max_loss = Some(target(value)?),
                "floor" => out.min_pps = Some(target(value)?),
                "fast" => out.fast_window = value.parse::<usize>().ok()?,
                "slow" => out.slow_window = value.parse::<usize>().ok()?,
                _ => return None,
            }
        }
        if out.is_empty() {
            return None;
        }
        Some(out)
    }

    /// The DSL spelling of this spec (parse/format round trip).
    pub fn as_spec_string(&self) -> String {
        let mut terms = Vec::new();
        if let Some(v) = self.p99_latency_us {
            terms.push(format!("p99us:{v}"));
        }
        if let Some(v) = self.max_loss {
            terms.push(format!("loss:{v}"));
        }
        if let Some(v) = self.min_pps {
            terms.push(format!("floor:{v}"));
        }
        if self.fast_window != 0 {
            terms.push(format!("fast:{}", self.fast_window));
        }
        if self.slow_window != 0 {
            terms.push(format!("slow:{}", self.slow_window));
        }
        terms.join("/")
    }
}

/// Traffic-light verdict for one objective or the whole spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloState {
    /// Fast window within budget.
    Ok,
    /// Budget burning in the fast window only (or both mildly).
    Warning,
    /// Both windows burning past the page threshold.
    Burning,
}

impl SloState {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            SloState::Ok => "ok",
            SloState::Warning => "warning",
            SloState::Burning => "burning",
        }
    }

    /// Numeric severity for gauge export (0 / 1 / 2).
    pub fn severity(self) -> u64 {
        match self {
            SloState::Ok => 0,
            SloState::Warning => 1,
            SloState::Burning => 2,
        }
    }

    /// The state whose [`SloState::severity`] is `n`, if any.
    pub fn from_severity(n: u64) -> Option<SloState> {
        [SloState::Ok, SloState::Warning, SloState::Burning]
            .into_iter()
            .find(|s| s.severity() == n)
    }
}

/// One objective's grading.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveReport {
    /// `latency_p99` | `loss_rate` | `throughput_floor`.
    pub objective: &'static str,
    /// The promised bound (µs, fraction, or pps).
    pub target: f64,
    /// Worst observed value across graded intervals.
    pub worst: f64,
    /// Violating fraction ÷ budget over the fast window.
    pub fast_burn: f64,
    /// Violating fraction ÷ budget over the slow window.
    pub slow_burn: f64,
    /// Verdict.
    pub state: SloState,
}

/// The graded spec: per-objective burn rates plus the overall verdict
/// (worst objective wins).
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Per-objective grading, in spec order.
    pub objectives: Vec<ObjectiveReport>,
    /// Worst objective state.
    pub state: SloState,
    /// Intervals with traffic that were graded.
    pub graded_intervals: usize,
}

fn classify(fast_burn: f64, slow_burn: f64) -> SloState {
    if fast_burn >= BURN_THRESHOLD && slow_burn >= BURN_THRESHOLD {
        SloState::Burning
    } else if fast_burn >= BURN_THRESHOLD
        || (fast_burn >= WARN_THRESHOLD && slow_burn >= WARN_THRESHOLD)
    {
        SloState::Warning
    } else {
        SloState::Ok
    }
}

/// One objective's violation test over one interval. Returns `None`
/// when the interval carries no signal for the objective.
fn violates(
    objective: &'static str,
    target: f64,
    b: &IntervalStats,
    ticks_per_sec: f64,
) -> Option<(bool, f64)> {
    match objective {
        "latency_p99" => {
            let p99_ticks = b.latency.quantile(0.99)?;
            let us = p99_ticks as f64 / (ticks_per_sec / 1e6);
            Some((us > target, us))
        }
        "loss_rate" => {
            if b.sourced == 0 && b.forwarded == 0 && b.dropped_total() == 0 {
                return None;
            }
            let loss = b.loss_rate();
            Some((loss > target, loss))
        }
        "throughput_floor" => {
            // Idle intervals (polls but no offered load) carry no
            // throughput signal — grading them would burn the budget on
            // quiet periods. Livelock still grades: sourced/dropped
            // packets with forwarded == 0 is a 0-pps violation.
            if b.sourced == 0 && b.forwarded == 0 && b.dropped_total() == 0 {
                return None;
            }
            let pps = b.pps(ticks_per_sec);
            Some((pps < target, pps))
        }
        _ => unreachable!("unknown objective"),
    }
}

impl SloReport {
    /// Grades `series` (newest interval last) against `spec`.
    /// `ticks_per_sec` converts sketch ticks to wall time.
    pub fn evaluate(spec: &SloSpec, series: &[IntervalStats], ticks_per_sec: f64) -> SloReport {
        let objectives_in: Vec<(&'static str, f64, bool)> = [
            ("latency_p99", spec.p99_latency_us, false),
            ("loss_rate", spec.max_loss, false),
            ("throughput_floor", spec.min_pps, true),
        ]
        .into_iter()
        .filter_map(|(name, target, floor)| target.map(|t| (name, t, floor)))
        .collect();

        let graded_intervals = series.iter().filter(|b| !b.is_empty()).count();
        let mut objectives = Vec::with_capacity(objectives_in.len());
        for (name, target, floor) in objectives_in {
            let burn = |window: usize| -> f64 {
                let mut graded = 0u64;
                let mut bad = 0u64;
                for b in series.iter().rev().take(window) {
                    if let Some((violated, _)) = violates(name, target, b, ticks_per_sec) {
                        graded += 1;
                        if violated {
                            bad += 1;
                        }
                    }
                }
                if graded == 0 {
                    0.0
                } else {
                    (bad as f64 / graded as f64) / ERROR_BUDGET
                }
            };
            let fast_burn = burn(spec.fast());
            let slow_burn = burn(spec.slow());
            let worst = series
                .iter()
                .filter_map(|b| violates(name, target, b, ticks_per_sec).map(|(_, v)| v))
                .fold(None::<f64>, |acc, v| {
                    Some(match acc {
                        None => v,
                        // "Worst" points away from the bound: max for
                        // ceilings, min for the throughput floor.
                        Some(a) if floor => a.min(v),
                        Some(a) => a.max(v),
                    })
                })
                .unwrap_or(0.0);
            objectives.push(ObjectiveReport {
                objective: name,
                target,
                worst,
                fast_burn,
                slow_burn,
                state: classify(fast_burn, slow_burn),
            });
        }
        let state = objectives
            .iter()
            .map(|o| o.state)
            .max()
            .unwrap_or(SloState::Ok);
        SloReport {
            objectives,
            state,
            graded_intervals,
        }
    }

    /// Grades every prefix of `series`: element `i` is the verdict an
    /// operator watching live would have seen after interval `i`
    /// closed. The ok → burning → ok arc of an overload run reads
    /// directly off this timeline.
    pub fn timeline(spec: &SloSpec, series: &[IntervalStats], ticks_per_sec: f64) -> Vec<SloState> {
        (1..=series.len())
            .map(|n| SloReport::evaluate(spec, &series[..n], ticks_per_sec).state)
            .collect()
    }

    /// JSON object: the verdict and one row per objective.
    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.key("state").str(self.state.as_str());
            w.key("graded_intervals").int(self.graded_intervals as u64);
            w.key("objectives").arr(|w| {
                for o in &self.objectives {
                    w.obj(|w| {
                        w.key("objective").str(o.objective);
                        w.key("target").float(o.target, 6);
                        w.key("worst").float(o.worst, 6);
                        w.key("fast_burn").float(o.fast_burn, 3);
                        w.key("slow_burn").float(o.slow_burn, 3);
                        w.key("state").str(o.state.as_str());
                    });
                }
            });
        })
    }
}

/// `rb_top`-style live view: the last few intervals as a refreshing
/// table plus the SLO verdict line, then — when `stage_names` label the
/// intervals' stage rows — each stage's share of the latest interval,
/// and the tail of the structured event journal when one is given. Pure
/// formatting — callers print it per harvest tick.
pub fn render_top(
    series: &[IntervalStats],
    slo: Option<&SloReport>,
    ticks_per_sec: f64,
    rows: usize,
    stage_names: &[(String, String)],
    events: Option<&EventLog>,
) -> String {
    let ticks_per_us = ticks_per_sec / 1e6;
    let mut out = String::new();
    out.push_str(&format!(
        "{:>5} {:>12} {:>12} {:>10} {:>8} {:>9} {:>9} {:>9}\n",
        "seq", "pps", "tx_bytes", "drops", "loss", "p50us", "p99us", "stalls"
    ));
    let skip = series.len().saturating_sub(rows);
    for b in &series[skip..] {
        let p50 = b.latency.quantile(0.50).unwrap_or(0) as f64 / ticks_per_us;
        let p99 = b.latency.quantile(0.99).unwrap_or(0) as f64 / ticks_per_us;
        out.push_str(&format!(
            "{:>5} {:>12.0} {:>12} {:>10} {:>8.4} {:>9.1} {:>9.1} {:>9}\n",
            b.seq,
            b.pps(ticks_per_sec),
            b.tx_bytes,
            b.dropped_total(),
            b.loss_rate(),
            p50,
            p99,
            b.credit_stalls + b.nic_desc_stalls,
        ));
    }
    match slo {
        Some(report) => {
            out.push_str(&format!("SLO: {}", report.state.as_str().to_uppercase()));
            for o in &report.objectives {
                out.push_str(&format!(
                    "  [{} {} fast={:.1} slow={:.1}]",
                    o.objective,
                    o.state.as_str(),
                    o.fast_burn,
                    o.slow_burn
                ));
            }
            out.push('\n');
        }
        None => out.push_str("SLO: (no spec)\n"),
    }
    // Per-stage share of the latest interval: the streaming twin of the
    // bottleneck table.
    if let Some(last) = series.last() {
        let total_cycles: u64 = last.stages.iter().map(|d| d.cycles).sum();
        if !stage_names.is_empty() && total_cycles > 0 {
            out.push_str("stages (latest interval):\n");
            for ((name, class), d) in stage_names.iter().zip(last.stages.iter()) {
                let share = d.cycles as f64 / total_cycles as f64 * 100.0;
                out.push_str(&format!(
                    "  {:>12} {:>16} {:>10} pkts {:>6.1}% cycles\n",
                    name, class, d.packets, share
                ));
            }
        }
    }
    if let Some(log) = events.filter(|log| !log.is_empty()) {
        out.push_str(&format!(
            "events ({} journaled, {} overflowed):\n",
            log.len(),
            log.overflow
        ));
        let skip = log.events.len().saturating_sub(rows);
        for e in &log.events[skip..] {
            out.push_str(&format!(
                "  t={:>14} core {:>2} {:<22} arg={}\n",
                e.tick,
                e.core,
                e.kind.as_str(),
                e.arg
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-second interval at `tps = 1e9` with the given traffic.
    fn interval(seq: u64, forwarded: u64, dropped: u64, lat_ticks: u64) -> IntervalStats {
        let mut b = IntervalStats {
            seq,
            core: 0,
            start_tick: seq * 1_000_000_000,
            end_tick: (seq + 1) * 1_000_000_000,
            quanta: 10,
            empty_polls: 0,
            sourced: forwarded + dropped,
            forwarded,
            tx_bytes: forwarded * 64,
            drops: [0; crate::DropCause::COUNT],
            credit_stalls: 0,
            nic_desc_stalls: 0,
            fuses: 0,
            latency: crate::Log2Histogram::new(),
            stages: Vec::new(),
        };
        b.drops[0] = dropped;
        for _ in 0..10 {
            b.latency.record(lat_ticks);
        }
        b
    }

    const TPS: f64 = 1e9; // 1 tick = 1 ns.

    #[test]
    fn spec_parses_and_round_trips() {
        let spec = SloSpec::parse("p99us:5000/loss:0.01/floor:1000000").unwrap();
        assert_eq!(spec.p99_latency_us, Some(5000.0));
        assert_eq!(spec.max_loss, Some(0.01));
        assert_eq!(spec.min_pps, Some(1_000_000.0));
        assert_eq!(SloSpec::parse(&spec.as_spec_string()), Some(spec));
        let windows = SloSpec::parse("p99us:200/fast:3/slow:12").unwrap();
        assert_eq!((windows.fast(), windows.slow()), (3, 12));
        assert_eq!(SloSpec::parse(""), None, "empty spec names no objective");
        assert_eq!(SloSpec::parse("p9:1"), None, "unknown keys rejected");
        assert_eq!(SloSpec::parse("loss:x"), None, "bad numbers rejected");
        for bad in [
            "p99us:inf",
            "floor:nan",
            "loss:-0.5",
            "p99us:-inf",
            "floor:1e999",
        ] {
            assert_eq!(SloSpec::parse(bad), None, "`{bad}` is not an objective");
        }
        assert!(
            SloSpec::parse("loss:0/floor:1e300").is_some(),
            "extreme but finite"
        );
    }

    #[test]
    fn clean_series_is_ok() {
        let series: Vec<IntervalStats> = (0..10).map(|s| interval(s, 1000, 0, 100)).collect();
        let spec = SloSpec::parse("loss:0.01/floor:10").unwrap();
        let r = SloReport::evaluate(&spec, &series, TPS);
        assert_eq!(r.state, SloState::Ok);
        assert_eq!(r.graded_intervals, 10);
        for o in &r.objectives {
            assert_eq!(o.state, SloState::Ok, "{o:?}");
            assert_eq!(o.fast_burn, 0.0);
        }
    }

    #[test]
    fn overload_burns_and_recovery_clears() {
        let spec = SloSpec::parse("loss:0.01/fast:3/slow:10").unwrap();
        // 5 clean, 6 lossy (50 % drops), then 6 clean again.
        let mut series: Vec<IntervalStats> = Vec::new();
        for s in 0..5 {
            series.push(interval(s, 1000, 0, 100));
        }
        for s in 5..11 {
            series.push(interval(s, 500, 500, 100));
        }
        for s in 11..17 {
            series.push(interval(s, 1000, 0, 100));
        }
        let timeline = SloReport::timeline(&spec, &series, TPS);
        assert_eq!(timeline[4], SloState::Ok, "clean start");
        assert_eq!(
            timeline[10],
            SloState::Burning,
            "full fast+slow windows violating: {timeline:?}"
        );
        assert_eq!(
            *timeline.last().unwrap(),
            SloState::Ok,
            "clean fast window clears the alert: {timeline:?}"
        );
        // The arc visited all three states in order.
        let burning_at = timeline
            .iter()
            .position(|s| *s == SloState::Burning)
            .expect("series burns");
        assert!(timeline[burning_at..].contains(&SloState::Ok));
    }

    #[test]
    fn single_bad_interval_warns_but_does_not_burn() {
        let spec = SloSpec::parse("loss:0.01/fast:3/slow:30").unwrap();
        let mut series: Vec<IntervalStats> = (0..20).map(|s| interval(s, 1000, 0, 100)).collect();
        series.push(interval(20, 500, 500, 100));
        let r = SloReport::evaluate(&spec, &series, TPS);
        // 1 bad of last 3 → fast burn 33.3 ≥ 14.4; 1 of 21 → slow 4.8.
        assert_eq!(r.state, SloState::Warning, "{r:?}");
    }

    #[test]
    fn latency_objective_grades_the_sketch() {
        // 1 ms quantum spans against a 200 µs objective.
        let series: Vec<IntervalStats> = (0..10).map(|s| interval(s, 1000, 0, 1_000_000)).collect();
        let spec = SloSpec::parse("p99us:200").unwrap();
        let r = SloReport::evaluate(&spec, &series, TPS);
        assert_eq!(r.state, SloState::Burning, "{r:?}");
        assert!(r.objectives[0].worst >= 1000.0, "{r:?}");
        // A generous objective passes.
        let lax = SloSpec::parse("p99us:10000").unwrap();
        assert_eq!(SloReport::evaluate(&lax, &series, TPS).state, SloState::Ok);
    }

    #[test]
    fn throughput_floor_catches_slumps() {
        let mut series: Vec<IntervalStats> = (0..8).map(|s| interval(s, 1000, 0, 100)).collect();
        for s in 8..14 {
            series.push(interval(s, 10, 0, 100)); // 10 pps slump.
        }
        let spec = SloSpec::parse("floor:500/fast:3/slow:10").unwrap();
        let r = SloReport::evaluate(&spec, &series, TPS);
        assert_eq!(r.state, SloState::Burning, "{r:?}");
        assert_eq!(r.objectives[0].worst, 10.0, "worst is the floor-most pps");
    }

    #[test]
    fn idle_intervals_are_neutral() {
        let mut series: Vec<IntervalStats> = (0..5).map(|s| interval(s, 1000, 0, 100)).collect();
        // Trailing silence: no traffic at all.
        for s in 5..30 {
            let mut b = interval(s, 0, 0, 100);
            b.quanta = 0;
            b.latency = crate::Log2Histogram::new();
            b.tx_bytes = 0;
            series.push(b);
        }
        let spec = SloSpec::parse("loss:0.01/floor:500").unwrap();
        let r = SloReport::evaluate(&spec, &series, TPS);
        assert_eq!(r.state, SloState::Ok, "silence neither violates nor heals");
        assert_eq!(r.graded_intervals, 5);
    }

    #[test]
    fn report_json_round_trips() {
        let series: Vec<IntervalStats> = (0..6).map(|s| interval(s, 500, 500, 100)).collect();
        let spec = SloSpec::parse("loss:0.01").unwrap();
        let r = SloReport::evaluate(&spec, &series, TPS);
        assert_eq!(r.state, SloState::Burning);
        let v = json::parse(&r.to_json()).expect("slo JSON parses");
        assert_eq!(
            v.get("state").and_then(json::Value::as_str),
            Some("burning")
        );
        let objs = v.get("objectives").and_then(json::Value::as_array).unwrap();
        assert_eq!(objs.len(), 1);
        assert_eq!(
            objs[0].get("objective").and_then(json::Value::as_str),
            Some("loss_rate")
        );
    }

    #[test]
    fn report_json_parses_at_the_extremes() {
        // The largest targets `parse` lets through, graded over nothing:
        // every number in the `/healthz` body must still be a JSON number.
        let spec = SloSpec::parse("p99us:1e300/loss:0/floor:1.7976931348623157e308").unwrap();
        let r = SloReport::evaluate(&spec, &[], TPS);
        assert_eq!(r.graded_intervals, 0);
        let v = json::parse(&r.to_json()).expect("slo JSON parses");
        let objs = v.get("objectives").and_then(json::Value::as_array).unwrap();
        assert_eq!(objs.len(), 3);
        assert_eq!(
            objs[2].get("target").and_then(json::Value::as_f64),
            Some(f64::MAX)
        );
    }

    #[test]
    fn render_top_prints_rows_and_verdict() {
        let series: Vec<IntervalStats> = (0..4).map(|s| interval(s, 1000, 10, 100)).collect();
        let spec = SloSpec::parse("loss:0.5").unwrap();
        let r = SloReport::evaluate(&spec, &series, TPS);
        let view = render_top(&series, Some(&r), TPS, 3, &[], None);
        assert!(view.contains("pps"), "{view}");
        assert!(view.contains("SLO: OK"), "{view}");
        // Only the last 3 of 4 rows are shown.
        assert!(!view.contains("\n    0 "), "{view}");
        let no_spec = render_top(&series, None, TPS, 3, &[], None);
        assert!(no_spec.contains("(no spec)"));
    }

    #[test]
    fn render_top_with_events_shows_stages_and_journal_tail() {
        let mut series: Vec<IntervalStats> = (0..2).map(|s| interval(s, 1000, 0, 100)).collect();
        series[1].stages = vec![
            crate::StageDelta {
                packets: 1000,
                cycles: 3000,
            },
            crate::StageDelta {
                packets: 1000,
                cycles: 1000,
            },
        ];
        let names = vec![
            ("rx".to_string(), "FromDevice".to_string()),
            ("tx".to_string(), "ToDevice".to_string()),
        ];
        let mut log = crate::EventLog::default();
        log.events.push(crate::Event {
            seq: 0,
            core: 0,
            tick: 500,
            kind: crate::EventKind::PoolExhaustedOnset,
            arg: 3,
        });
        let view = render_top(&series, None, TPS, 4, &names, Some(&log));
        assert!(view.contains("stages (latest interval):"), "{view}");
        assert!(view.contains("FromDevice"), "{view}");
        assert!(view.contains("75.0%"), "{view}");
        assert!(view.contains("pool_exhausted_onset"), "{view}");
        assert!(
            view.contains("events (1 journaled, 0 overflowed):"),
            "{view}"
        );
    }

    #[test]
    fn state_ordering_and_severity() {
        assert!(SloState::Burning > SloState::Warning);
        assert!(SloState::Warning > SloState::Ok);
        assert_eq!(SloState::Burning.severity(), 2);
        assert_eq!(SloState::Ok.as_str(), "ok");
    }
}
