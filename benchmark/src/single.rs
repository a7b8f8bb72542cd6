//! The single-thread harness: set-up, the closed-loop saturation phase, the
//! open-loop paced phase and the churn publisher beside them. Drives a
//! `BuiltRouter` through its public API only.

use crate::trace::{Recorder, TID_CONTROL};
use crate::verify::{ingress_counts, route_counts, verify_single_thread};
use crate::workloads::{
    make_inputs, router_builder, Inputs, Kind, Plan, Scale, Spec, BURST, CHURN_SLICE, POOL_SLOTS,
    ROUND,
};
use routebricks::builder::BuiltRouter;
use routebricks::click::elements::{FromDevice, ToDevice};
use routebricks::click::runtime::driver::RunStats;
use routebricks::lookup::{Dir24_8, RcuStats, RouteControl, RouteUpdate};
use routebricks::packet::{NicStats, Packet};
use routebricks::telemetry::TelemetryLevel;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Pause between two churn publishes.
const CHURN_PERIOD: Duration = Duration::from_millis(100);

/// A router that passed its verify pass and is warm.
pub struct Ready {
    pub router: BuiltRouter,
    /// Where the next round starts in the frame pool.
    pub cursor: usize,
}

/// The inputs of a run and what making them cost.
pub struct Prepared {
    pub inputs: Inputs,
    /// Reference FIB of the route workload: the verify pass and the lookup
    /// probes resolve against it.
    pub fib: Option<Dir24_8>,
    pub compile_s: f64,
}

pub fn prepare(spec: &Spec, scale: &Scale, seed: u64) -> Prepared {
    let inputs = make_inputs(spec, scale, seed);
    let t = Instant::now();
    let fib = inputs
        .rib
        .as_ref()
        .map(|rib| Dir24_8::compile(rib).expect("synthetic RIB compiles"));
    Prepared {
        inputs,
        fib,
        compile_s: t.elapsed().as_secs_f64(),
    }
}

/// Builds the workload's router, verifies it and runs the warm-up rounds.
pub fn make_ready(
    spec: &Spec,
    scale: &Scale,
    prepared: &Prepared,
    telemetry: TelemetryLevel,
    break_verify: bool,
) -> Result<Ready, String> {
    let mut router = router_builder(spec, &prepared.inputs, telemetry, true)
        .build()
        .map_err(|e| format!("router build: {e}"))?;
    verify_single_thread(
        spec,
        &mut router,
        &prepared.inputs.frames,
        prepared.fib.as_ref(),
        break_verify,
    )?;
    let mut cursor = 0;
    closed_loop(
        &mut router,
        &prepared.inputs.frames,
        &mut cursor,
        1,
        scale.warmup_rounds(),
        None,
    );
    Ok(Ready { router, cursor })
}

/// Everything before the first timed round, timed.
pub fn set_up(
    spec: &Spec,
    scale: &Scale,
    seed: u64,
    break_verify: bool,
) -> Result<(Prepared, Ready, f64), String> {
    let t = Instant::now();
    let prepared = prepare(spec, scale, seed);
    let ready = make_ready(spec, scale, &prepared, TelemetryLevel::Off, break_verify)?;
    Ok((prepared, ready, t.elapsed().as_secs_f64()))
}

/// One closed-loop segment: only `inject` and `run_until_idle` are timed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Segment {
    pub packets: u64,
    pub bytes: u64,
    pub secs: f64,
}

impl Segment {
    pub fn mpps(&self) -> f64 {
        self.packets as f64 / self.secs / 1e6
    }

    pub fn gbps(&self) -> f64 {
        self.bytes as f64 * 8.0 / self.secs / 1e9
    }
}

/// Runs `segments × rounds` rounds of [`ROUND`] frames. The frames of a
/// round are cloned before its clock starts. With a recorder, every round
/// leaves a `round` span with `inject` and `run_until_idle` children.
pub fn closed_loop(
    router: &mut BuiltRouter,
    frames: &[Packet],
    cursor: &mut usize,
    segments: usize,
    rounds: usize,
    mut rec: Option<&mut Recorder>,
) -> Vec<Segment> {
    let mut staged: Vec<Packet> = Vec::with_capacity(ROUND);
    let mut out = Vec::with_capacity(segments);
    for _ in 0..segments {
        let mut seg = Segment::default();
        for _ in 0..rounds {
            for i in 0..ROUND {
                let frame = &frames[(*cursor + i) % frames.len()];
                seg.bytes += frame.len() as u64;
                staged.push(frame.clone());
            }
            *cursor = (*cursor + ROUND) % frames.len();
            match rec.as_deref_mut() {
                None => {
                    let t0 = Instant::now();
                    for pkt in staged.drain(..) {
                        router.inject(0, pkt);
                    }
                    router.run_until_idle(u64::MAX);
                    seg.secs += t0.elapsed().as_secs_f64();
                }
                Some(rec) => {
                    let round = rec.reserve_id();
                    let t0 = rec.now_ns();
                    for pkt in staged.drain(..) {
                        router.inject(0, pkt);
                    }
                    let t1 = rec.now_ns();
                    router.run_until_idle(u64::MAX);
                    let t2 = rec.now_ns();
                    seg.secs += (t2 - t0) as f64 / 1e9;
                    let (inject, drive) = (rec.reserve_id(), rec.reserve_id());
                    rec.push("inject", inject, round, t0, t1, ROUND as u64);
                    rec.push("run_until_idle", drive, round, t1, t2, ROUND as u64);
                    rec.push("round", round, 0, t0, t2, ROUND as u64);
                }
            }
            seg.packets += ROUND as u64;
        }
        out.push(seg);
    }
    out
}

/// The paced samples, one per burst, in arrival order; every window
/// contributes the same number.
#[derive(Debug, Default)]
pub struct Paced {
    /// Completion minus due time, µs.
    pub latency_us: Vec<f64>,
    /// Injection minus due time, µs: how late the generator ran.
    pub late_us: Vec<f64>,
    pub packets: u64,
}

impl Paced {
    pub fn absorb(&mut self, window: Paced) {
        self.latency_us.extend(window.latency_us);
        self.late_us.extend(window.late_us);
        self.packets += window.packets;
    }
}

/// One open-loop window: burst `k` of [`BURST`] frames is due at `k × BURST
/// / offered_pps` after the window starts, whatever the router is doing. Generator and router share
/// the thread: inject every burst that is due (at most an arena's worth, so
/// a stall cannot overflow it; the rest stay due), `run_until_idle`, stamp.
/// `run_until_idle` returns only once the graph is idle, so every injected
/// burst has been transmitted by then; the phase-end ledger check proves
/// none was dropped. Latency counts from the instant a burst was *due*.
pub fn paced(
    router: &mut BuiltRouter,
    frames: &[Packet],
    cursor: &mut usize,
    bursts: usize,
    offered_pps: f64,
) -> Paced {
    let interval_ns = BURST as f64 / offered_pps * 1e9;
    let due_ns = |burst: usize| (burst as f64 * interval_ns) as u64;
    let max_staged = POOL_SLOTS / BURST;
    let mut out = Paced {
        latency_us: Vec::with_capacity(bursts),
        late_us: Vec::with_capacity(bursts),
        packets: 0,
    };
    let mut staged: Vec<Packet> = Vec::with_capacity(POOL_SLOTS);
    let mut stage = |staged: &mut Vec<Packet>| {
        for i in 0..BURST {
            staged.push(frames[(*cursor + i) % frames.len()].clone());
        }
        *cursor = (*cursor + BURST) % frames.len();
    };
    let start = Instant::now();
    let now_ns = || start.elapsed().as_nanos() as u64;
    let mut next = 0;
    while next < bursts {
        // The first burst is cloned ahead of its due time; bursts found
        // overdue after that are cloned late, which their latency shows.
        stage(&mut staged);
        let mut n = 1;
        let mut now = now_ns();
        while now < due_ns(next) {
            std::hint::spin_loop();
            now = now_ns();
        }
        while n < max_staged && next + n < bursts && due_ns(next + n) <= now {
            stage(&mut staged);
            n += 1;
        }
        let injected_at = now_ns();
        for pkt in staged.drain(..) {
            router.inject(0, pkt);
        }
        router.run_until_idle(u64::MAX);
        let done = now_ns();
        for burst in next..next + n {
            let due = due_ns(burst);
            out.late_us
                .push(injected_at.saturating_sub(due) as f64 / 1e3);
            out.latency_us.push(done.saturating_sub(due) as f64 / 1e3);
        }
        out.packets += (n * BURST) as u64;
        next += n;
    }
    out
}

/// What the churn publisher saw.
#[derive(Debug, Default)]
pub struct ChurnLog {
    /// `apply_and_publish` wall time per slice, ms.
    pub publish_ms: Vec<f64>,
    pub routes: u64,
    pub pending_retired_max: usize,
    pub stats: RcuStats,
}

/// Publishes [`CHURN_SLICE`]-route slices of `updates` every
/// [`CHURN_PERIOD`] until `stop`, cycling through the stream.
fn churn_loop(
    ctl: &RouteControl,
    updates: &[RouteUpdate],
    stop: &AtomicBool,
    mut rec: Option<Recorder>,
) -> (ChurnLog, Option<Recorder>) {
    let mut log = ChurnLog::default();
    let before = ctl.stats();
    let mut at = 0;
    while !stop.load(Ordering::Acquire) {
        let end = (at + CHURN_SLICE).min(updates.len());
        let slice = &updates[at..end];
        let t0 = Instant::now();
        let publish = || {
            ctl.apply_and_publish(slice)
                .expect("churn next hops are encodable")
        };
        match rec.as_mut() {
            Some(rec) => {
                rec.time("publish", slice.len() as u64, publish);
            }
            None => {
                publish();
            }
        }
        log.publish_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        log.routes += slice.len() as u64;
        log.pending_retired_max = log.pending_retired_max.max(ctl.stats().pending_retired);
        at = if end == updates.len() { 0 } else { end };
        let next = t0 + CHURN_PERIOD;
        while Instant::now() < next && !stop.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let after = ctl.stats();
    log.stats = RcuStats {
        publishes: after.publishes - before.publishes,
        delta_publishes: after.delta_publishes - before.delta_publishes,
        ..after
    };
    (log, rec)
}

/// Descriptor-ring counters summed over the ingress ring and every
/// egress ring.
fn nic_totals(router: &mut BuiltRouter) -> NicStats {
    let mut total = router
        .click()
        .element_as::<FromDevice>("rx0")
        .map(FromDevice::rx_ring_stats)
        .unwrap_or_default();
    for port in 0..router.ports() {
        if let Some(dev) = router.click().element_as::<ToDevice>(&format!("tx{port}")) {
            total.merge(&dev.tx_ring_stats());
        }
    }
    total
}

/// Counters of the timed segments and windows of one workload, as deltas
/// (warm-up and verify excluded) except the pool high-water mark. Both
/// harnesses fill one: from `RunStats` and the device rings, or from
/// `MtReport`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Packets forwarded.
    pub packets: u64,
    pub quanta: u64,
    pub pushes: u64,
    pub batch_calls: u64,
    /// Packets that left the graph through an unconnected output or a
    /// default `push`; must be 0.
    pub leaked: u64,
    pub pool_allocs: u64,
    pub pool_recycles: u64,
    pub pool_bulk_recycles: u64,
    pub pool_exhausted: u64,
    pub pool_fallbacks: u64,
    pub pool_peak_in_use: u64,
    pub nic_posted: u64,
    pub nic_doorbells: u64,
    pub nic_desc_stalls: u64,
    pub nic_dma_bytes: u64,
}

impl Counts {
    fn between(before: (RunStats, NicStats), after: (RunStats, NicStats), packets: u64) -> Counts {
        let ((b, nb), (a, na)) = (before, after);
        Counts {
            packets,
            quanta: a.quanta - b.quanta,
            pushes: a.pushes - b.pushes,
            batch_calls: a.batch_calls - b.batch_calls,
            leaked: (a.leaked + a.dropped_default) - (b.leaked + b.dropped_default),
            pool_allocs: a.pool_allocs - b.pool_allocs,
            pool_recycles: a.pool_recycles - b.pool_recycles,
            pool_bulk_recycles: a.pool_bulk_recycles - b.pool_bulk_recycles,
            pool_exhausted: a.pool_exhausted - b.pool_exhausted,
            pool_fallbacks: a.pool_fallbacks - b.pool_fallbacks,
            pool_peak_in_use: a.pool_peak_in_use,
            nic_posted: na.posted - nb.posted,
            nic_doorbells: na.doorbells - nb.doorbells,
            nic_desc_stalls: na.stalls - nb.stalls,
            nic_dma_bytes: na.dma_bytes - nb.dma_bytes,
        }
    }
}

/// What the timed segments and windows of one router produced.
#[derive(Debug, Default)]
pub struct PhaseResult {
    pub segments: Vec<Segment>,
    pub paced: Paced,
    pub churn: Option<ChurnLog>,
    pub offered: u64,
    pub counts: Counts,
    pub route_lookups: u64,
    pub route_misses: u64,
}

/// Runs the plan's cycles of `spec.segments_per_cycle` closed-loop segments
/// and one paced window, with the churn publisher beside them on the route
/// workload, and reconciles the device counters with the ledger at the end.
pub fn run_phases(
    spec: &Spec,
    ready: &mut Ready,
    inputs: &Inputs,
    plan: Plan,
    mut rec: Option<&mut Recorder>,
) -> Result<PhaseResult, String> {
    let Ready { router, cursor } = ready;
    let ingress_before = ingress_counts(router);
    let ledger_before = router.ledger();
    let counters_before = (router.click().stats(), nic_totals(router));
    let routes_before = route_counts(router);

    let ctl = match spec.kind {
        Kind::Route => Some(
            router
                .route_control()
                .ok_or("route workload needs RCU control")?,
        ),
        _ => None,
    };
    let churn_rec = rec
        .as_deref()
        .map(|r| Recorder::new(r.epoch(), TID_CONTROL));
    let stop = AtomicBool::new(false);
    let (segments, paced_out, churn) = std::thread::scope(|s| {
        let publisher = ctl.as_ref().map(|ctl| {
            let (stop, updates) = (&stop, inputs.churn.as_slice());
            s.spawn(move || churn_loop(ctl, updates, stop, churn_rec))
        });
        let frames = inputs.frames.as_slice();
        let mut segments = Vec::with_capacity(plan.cycles * spec.segments_per_cycle);
        let mut paced_out = Paced::default();
        for _ in 0..plan.cycles {
            segments.extend(closed_loop(
                router,
                frames,
                cursor,
                spec.segments_per_cycle,
                plan.rounds_per_segment,
                rec.as_deref_mut(),
            ));
            if plan.bursts_per_window > 0 {
                let bursts = plan.bursts_per_window;
                paced_out.absorb(paced(router, frames, cursor, bursts, spec.offered_pps));
            }
        }
        stop.store(true, Ordering::Release);
        let churn = publisher.map(|h| h.join().expect("churn publisher panicked"));
        (segments, paced_out, churn)
    });
    let churn = churn.map(|(log, lane)| {
        if let (Some(rec), Some(lane)) = (rec, lane) {
            rec.absorb(lane);
        }
        log
    });

    let offered = segments.iter().map(|s| s.packets).sum::<u64>() + paced_out.packets;
    let ingress = ingress_counts(router);
    let ledger = router.ledger();
    let injected = ingress.injected - ingress_before.injected;
    let rx_dropped = ingress.rx_dropped - ingress_before.rx_dropped;
    if injected != offered {
        return Err(format!("offered {offered} frames, device saw {injected}"));
    }
    // Cumulative since build: verify, warm-up and the phases all drained.
    if !ledger.balances() || ledger.in_flight != 0 || ledger.sourced != ingress.injected {
        return Err(format!(
            "ledger does not reconcile: {ledger:?} vs {ingress:?}"
        ));
    }
    let forwarded = ledger.forwarded - ledger_before.forwarded;
    if forwarded + rx_dropped > offered {
        return Err(format!(
            "forwarded {forwarded} + rx_dropped {rx_dropped} exceeds offered {offered}"
        ));
    }
    let routes = route_counts(router);
    let counters_after = (router.click().stats(), nic_totals(router));
    Ok(PhaseResult {
        segments,
        paced: paced_out,
        churn,
        offered,
        counts: Counts::between(counters_before, counters_after, forwarded),
        route_lookups: routes.0 - routes_before.0,
        route_misses: routes.1 - routes_before.1,
    })
}

/// Fails a run whose phases lost a route or conservation; lost packets are
/// not an error here, they are the run's `failed` count.
pub fn check_phases(spec: &Spec, phases: &PhaseResult) -> Result<(), String> {
    if phases.route_misses != 0 {
        return Err(format!("{} route misses", phases.route_misses));
    }
    if spec.kind == Kind::Route && phases.route_lookups != phases.offered {
        return Err(format!(
            "{} lookups for {} offered frames",
            phases.route_lookups, phases.offered
        ));
    }
    if phases.counts.leaked != 0 {
        return Err(format!("graph leaked packets: {:?}", phases.counts));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_ledger;
    use crate::workloads::spec_by_name;

    const SMOKE: Scale = Scale {
        seconds: 10.0,
        smoke: true,
    };

    #[test]
    fn phases_reconcile_on_the_route_workload() {
        let spec = spec_by_name("route64_fib1m_churn").unwrap();
        let (prepared, mut ready, setup_s) = set_up(spec, &SMOKE, 3, false).unwrap();
        assert!(setup_s > 0.0);
        let mut rec = Recorder::new(Instant::now(), crate::trace::TID_DATAPLANE);
        let plan = Plan {
            cycles: 4,
            rounds_per_segment: 3,
            bursts_per_window: 10,
        };
        let phases = run_phases(spec, &mut ready, &prepared.inputs, plan, Some(&mut rec)).unwrap();
        check_phases(spec, &phases).unwrap();
        let closed = 4 * spec.segments_per_cycle * 3 * ROUND;
        assert_eq!(phases.segments.len(), 4 * spec.segments_per_cycle);
        assert_eq!(phases.offered, (closed + 4 * 10 * BURST) as u64);
        assert_eq!(phases.counts.packets, phases.offered);
        assert_eq!(phases.paced.latency_us.len(), 40);
        assert_eq!(
            phases.counts.nic_posted,
            2 * phases.offered,
            "one RX and one TX descriptor each"
        );
        let churn = phases.churn.as_ref().expect("route workload churns");
        assert!(!churn.publish_ms.is_empty());
        assert_eq!(rec.total("round").1, closed as u64);
        assert_eq!(rec.total("publish").1, churn.routes);
        check_ledger(
            &ready.router.ledger(),
            ingress_counts(&mut ready.router).injected,
        )
        .unwrap();
    }

    #[test]
    fn paced_bursts_are_timed_from_their_due_instant() {
        let spec = spec_by_name("fwd64_tuned").unwrap();
        let (prepared, mut ready, _) = set_up(spec, &SMOKE, 3, false).unwrap();
        let out = paced(
            &mut ready.router,
            &prepared.inputs.frames,
            &mut ready.cursor,
            50,
            spec.offered_pps,
        );
        assert_eq!(out.packets, 50 * BURST as u64);
        for (lat, late) in out.latency_us.iter().zip(&out.late_us) {
            assert!(lat >= late, "completion cannot precede injection");
        }
    }

    #[test]
    fn a_broken_verify_stops_set_up() {
        let spec = spec_by_name("fwd64_untuned").unwrap();
        assert!(set_up(spec, &SMOKE, 3, true).is_err());
    }
}
