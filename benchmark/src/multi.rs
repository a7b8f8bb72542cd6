//! The multi-thread harness: `MtRouter::run` takes its whole input at once,
//! so the timed quantity is each `run` call — the dispatcher plus one
//! worker, two threads.

use crate::single::{Counts, Paced, Segment};
use crate::trace::Recorder;
use crate::verify::{check_egress, check_ledger};
use crate::workloads::{
    make_inputs, router_builder, Inputs, Plan, Scale, Spec, BURST, ROUND, VERIFY_FRAMES,
};
use routebricks::builder::MtRouter;
use routebricks::click::GraphRunOutcome;
use routebricks::packet::Packet;
use routebricks::telemetry::{MetricsSnapshot, TelemetryLevel};
use std::time::Instant;

fn take_frames(frames: &[Packet], cursor: &mut usize, n: usize) -> (Vec<Packet>, u64) {
    let mut bytes = 0;
    let input = (0..n)
        .map(|i| {
            let frame = &frames[(*cursor + i) % frames.len()];
            bytes += frame.len() as u64;
            frame.clone()
        })
        .collect();
    *cursor = (*cursor + n) % frames.len();
    (input, bytes)
}

/// One `run` call; fails unless it forwarded exactly what it was given and
/// its ledger balances.
fn run_checked(mt: &MtRouter, input: Vec<Packet>) -> Result<(GraphRunOutcome, f64), String> {
    let offered = input.len() as u64;
    let t0 = Instant::now();
    let out = mt.run(input).map_err(|e| format!("MtRouter::run: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    check_ledger(&out.report.ledger, offered)?;
    Ok((out, secs))
}

/// Builds the MT router, verifies a kept-frames twin of it and warms up.
pub fn make_ready_mt(
    spec: &Spec,
    scale: &Scale,
    inputs: &Inputs,
    telemetry: TelemetryLevel,
    break_verify: bool,
) -> Result<(MtRouter, usize), String> {
    let build = |keep| {
        router_builder(spec, inputs, telemetry, keep)
            .build_mt()
            .map_err(|e| format!("router build: {e}"))
    };
    let mut cursor = 0;
    let (mut ingress, _) = take_frames(&inputs.frames, &mut cursor, VERIFY_FRAMES);
    let egress = run_checked(&build(true)?, ingress.clone())?.0.egress;
    if break_verify {
        let last = ingress[0].len() - 1;
        ingress[0].data_mut()[last] ^= 0xff;
    }
    check_egress(spec.kind, &ingress, &egress, None)?;
    let mt = build(false)?;
    let (warmup, _) = take_frames(&inputs.frames, &mut cursor, scale.warmup_rounds() * ROUND);
    run_checked(&mt, warmup)?;
    Ok((mt, cursor))
}

/// Everything before the first timed `run`, timed.
pub fn set_up_mt(
    spec: &Spec,
    scale: &Scale,
    seed: u64,
    break_verify: bool,
) -> Result<(Inputs, MtRouter, usize, f64), String> {
    let t = Instant::now();
    let inputs = make_inputs(spec, scale, seed);
    let (mt, cursor) = make_ready_mt(spec, scale, &inputs, TelemetryLevel::Off, break_verify)?;
    Ok((inputs, mt, cursor, t.elapsed().as_secs_f64()))
}

/// Counters of the timed `run` calls, summed (peaks: maximum).
#[derive(Debug)]
pub struct MtTotals {
    pub counts: Counts,
    pub credit_stalls: u64,
    pub credit_peak_outstanding: u64,
    pub telemetry: MetricsSnapshot,
}

impl MtTotals {
    fn new() -> MtTotals {
        MtTotals {
            counts: Counts::default(),
            credit_stalls: 0,
            credit_peak_outstanding: 0,
            telemetry: MetricsSnapshot::empty(),
        }
    }

    /// `frame_len`: `MtReport` has no posted-descriptor count, but every
    /// frame of this workload has the same length, so DMA'd bytes give it.
    fn add(&mut self, out: &GraphRunOutcome, frame_len: u64) {
        let (r, c) = (&out.report, &mut self.counts);
        for worker in &out.worker_stats {
            c.quanta += worker.quanta;
            c.leaked += worker.leaked + worker.dropped_default;
            c.pool_peak_in_use = c.pool_peak_in_use.max(worker.pool_peak_in_use);
        }
        c.packets += r.ledger.forwarded;
        c.pushes += r.pushes;
        c.batch_calls += r.batch_calls;
        c.pool_allocs += r.pool_allocs;
        c.pool_recycles += r.pool_recycles;
        c.pool_bulk_recycles += r.pool_bulk_recycles;
        c.pool_exhausted += r.pool_exhausted;
        c.pool_fallbacks += r.pool_fallbacks;
        c.nic_posted += r.nic_dma_bytes / frame_len;
        c.nic_doorbells += r.nic_doorbells;
        c.nic_desc_stalls += r.nic_desc_stalls;
        c.nic_dma_bytes += r.nic_dma_bytes;
        self.credit_stalls += r.credit_stalls;
        self.credit_peak_outstanding = self.credit_peak_outstanding.max(r.credit_peak_outstanding);
        self.telemetry.merge(&r.telemetry);
    }
}

/// What the cycles of one MT router produced.
pub struct MtPhases {
    /// One entry per timed `run` call.
    pub segments: Vec<Segment>,
    pub totals: MtTotals,
    pub paced: Paced,
}

/// Runs the plan's cycles of `spec.segments_per_cycle` timed `run` calls and
/// one paced window. The input vector of a call is built before its clock
/// starts. With a recorder each timed call leaves a `run` span.
pub fn run_cycles_mt(
    spec: &Spec,
    mt: &MtRouter,
    frames: &[Packet],
    cursor: &mut usize,
    plan: Plan,
    mut rec: Option<&mut Recorder>,
) -> Result<MtPhases, String> {
    let frames_per_run = plan.rounds_per_segment * ROUND;
    let mut out = MtPhases {
        segments: Vec::with_capacity(plan.cycles * spec.segments_per_cycle),
        totals: MtTotals::new(),
        paced: Paced::default(),
    };
    for _ in 0..plan.cycles {
        for _ in 0..spec.segments_per_cycle {
            let (input, bytes) = take_frames(frames, cursor, frames_per_run);
            let start = rec.as_deref().map(Recorder::now_ns);
            let (outcome, secs) = run_checked(mt, input)?;
            if let (Some(rec), Some(start)) = (rec.as_deref_mut(), start) {
                let id = rec.reserve_id();
                rec.push("run", id, 0, start, rec.now_ns(), frames_per_run as u64);
            }
            out.totals.add(&outcome, frames[0].len() as u64);
            out.segments.push(Segment {
                packets: frames_per_run as u64,
                bytes,
                secs,
            });
        }
        if plan.bursts_per_window > 0 {
            let bursts = plan.bursts_per_window;
            out.paced
                .absorb(paced_mt(mt, frames, cursor, bursts, spec.offered_pps)?);
        }
    }
    Ok(out)
}

/// One open-loop window over `run`: one call per [`BURST`]-frame burst, due
/// every `BURST / offered_pps`. A call spawns and joins its threads, so this is
/// the latency a caller of `MtRouter::run` sees for a small batch, timed
/// from the instant the burst was due.
fn paced_mt(
    mt: &MtRouter,
    frames: &[Packet],
    cursor: &mut usize,
    bursts: usize,
    offered_pps: f64,
) -> Result<Paced, String> {
    let interval_ns = BURST as f64 / offered_pps * 1e9;
    let mut out = Paced::default();
    let start = Instant::now();
    let now_ns = || start.elapsed().as_nanos() as u64;
    for burst in 0..bursts {
        let (input, _) = take_frames(frames, cursor, BURST);
        let due = (burst as f64 * interval_ns) as u64;
        while now_ns() < due {
            std::hint::spin_loop();
        }
        let injected_at = now_ns();
        run_checked(mt, input)?;
        out.late_us
            .push(injected_at.saturating_sub(due) as f64 / 1e3);
        out.latency_us
            .push(now_ns().saturating_sub(due) as f64 / 1e3);
        out.packets += BURST as u64;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::spec_by_name;

    const SMOKE: Scale = Scale {
        seconds: 10.0,
        smoke: true,
    };

    #[test]
    fn mt_runs_forward_everything_and_add_up() {
        let spec = spec_by_name("mt_pull64_w1").unwrap();
        let (inputs, mt, mut cursor, _) = set_up_mt(spec, &SMOKE, 9, false).unwrap();
        let plan = Plan {
            cycles: 2,
            rounds_per_segment: 2,
            bursts_per_window: 5,
        };
        let out = run_cycles_mt(spec, &mt, &inputs.frames, &mut cursor, plan, None).unwrap();
        assert_eq!(out.segments.len(), 2 * spec.segments_per_cycle);
        assert_eq!(
            out.totals.counts.packets,
            (2 * spec.segments_per_cycle * 2 * ROUND) as u64
        );
        assert_eq!(out.totals.counts.pool_exhausted, 0);
        assert_eq!(out.paced.latency_us.len(), 2 * 5);
    }

    #[test]
    fn a_broken_verify_stops_mt_set_up() {
        let spec = spec_by_name("mt_pull64_w1").unwrap();
        assert!(set_up_mt(spec, &SMOKE, 9, true).is_err());
    }
}
