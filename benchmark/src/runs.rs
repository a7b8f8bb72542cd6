//! The two kinds of run: the untraced end-to-end run and the traced run
//! that yields the per-layer metrics. Each turns phase results into the
//! metric tables of [`crate::report`].

use crate::multi::{make_ready_mt, run_cycles_mt, set_up_mt};
use crate::probes::{self, PROBE_OPS};
use crate::report::{Metrics, Outcome, END_TO_END, PER_LAYER};
use crate::single::{
    check_phases, make_ready, run_phases, set_up, ChurnLog, Counts, Paced, Segment,
};
use crate::stats::{
    highest_supported_percentile, iqr_ratio, lowest_window_median, median, percentile, sorted,
};
use crate::trace::{Recorder, TID_DATAPLANE, TID_PROBES};
use crate::workloads::{Kind, Scale, Spec, CYCLES};
use routebricks::hw::{Application, BatchingConfig, CostModel};
use routebricks::lookup::{LpmLookup, RcuFib};
use routebricks::packet::Packet;
use routebricks::telemetry::{cycles, MetricsSnapshot, TelemetryLevel};
use std::path::PathBuf;
use std::time::Instant;

/// What the command line chose.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub scale: Scale,
    /// Corrupt one expected frame of the verify pass (must fail the run).
    pub break_verify: bool,
    /// Where `trace-<workload>.json` goes.
    pub trace_dir: PathBuf,
}

/// `VmHWM` of this process in MB; 0 where `/proc` does not offer it.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Rates of the closed loop. The reported rate is the fastest segment's:
/// the host slows whole stretches of a run by a third, and only the
/// fastest of many short segments repeats from run to run (README, "Why
/// the fastest segment"). The median and the spread stay visible per layer.
struct Throughput {
    mpps: f64,
    gbps: f64,
    median_mpps: f64,
    iqr_ratio: f64,
    samples: usize,
}

fn throughput(segments: &[Segment]) -> Throughput {
    let mpps: Vec<f64> = segments.iter().map(Segment::mpps).collect();
    Throughput {
        mpps: mpps.iter().copied().fold(0.0, f64::max),
        gbps: segments.iter().map(Segment::gbps).fold(0.0, f64::max),
        median_mpps: median(&mpps),
        iqr_ratio: iqr_ratio(&mpps),
        samples: segments.len(),
    }
}

/// Median burst latency of the quietest stretch: each paced window is cut
/// in four, and the lowest median wins (same reasoning as for the rate).
fn quiet_latency_us(paced: &Paced) -> f64 {
    lowest_window_median(&paced.latency_us, 4 * CYCLES)
}

fn end_to_end_metrics(
    segments: &[Segment],
    latency_us: (f64, usize),
    setups: &[f64],
    attempted: u64,
    forwarded: u64,
) -> Outcome {
    let tp = throughput(segments);
    eprintln!(
        "segments: n={} fastest {:.4} Mpps, median {:.4} Mpps, IQR/median {:.3}",
        tp.samples, tp.mpps, tp.median_mpps, tp.iqr_ratio
    );
    let fastest_setup = setups.iter().copied().fold(f64::INFINITY, f64::min);
    let mut m = Metrics::new(END_TO_END);
    m.set("fwd_mpps", tp.mpps, tp.samples);
    m.set("goodput_gbps", tp.gbps, tp.samples);
    m.set("latency_p50_us", latency_us.0, latency_us.1);
    // The set-ups are spread over the run; the fastest, for the same reason.
    m.set("setup_s", fastest_setup, setups.len());
    m.set("peak_rss_mb", peak_rss_mb(), 0);
    Outcome {
        correct: true,
        attempted,
        failed: attempted - forwarded,
        metrics: m,
    }
}

/// The untraced run, in [`Scale::blocks`] blocks: each sets the workload up
/// afresh (timed) and runs its share of the [`CYCLES`] on that instance,
/// which is dropped before the next block sets up. Every end-to-end metric
/// comes from here.
pub fn end_to_end(spec: &Spec, opts: &Options) -> Result<Outcome, String> {
    let scale = &opts.scale;
    let plan = scale.plan(spec, CYCLES / scale.blocks());
    let mut setups = Vec::new();
    let mut segments = Vec::new();
    let mut paced = Paced::default();
    let (mut attempted, mut forwarded) = (0, 0);
    for _ in 0..scale.blocks() {
        if spec.kind == Kind::MtForward {
            let (inputs, mt, mut cursor, secs) =
                set_up_mt(spec, scale, opts.seed, opts.break_verify)?;
            setups.push(secs);
            let plan = plan.without_windows();
            let out = run_cycles_mt(spec, &mt, &inputs.frames, &mut cursor, plan, None)?;
            // `run_checked` already failed the run unless every call
            // forwarded all it was given.
            attempted += out.totals.counts.packets;
            forwarded += out.totals.counts.packets;
            segments.extend(out.segments);
        } else {
            let (prepared, mut ready, secs) = set_up(spec, scale, opts.seed, opts.break_verify)?;
            setups.push(secs);
            let phases = run_phases(spec, &mut ready, &prepared.inputs, plan, None)?;
            check_phases(spec, &phases)?;
            attempted += phases.offered;
            forwarded += phases.counts.packets;
            segments.extend(phases.segments);
            paced.absorb(phases.paced);
        }
    }
    let latency_us = if spec.kind == Kind::MtForward {
        // `MtRouter::run` takes its whole input at once, so nothing can be
        // paced inside it: the latency a caller sees is the call's, here
        // the fastest timed call over one segment's frames.
        let fastest = segments
            .iter()
            .map(|s| s.secs)
            .fold(f64::INFINITY, f64::min);
        (fastest * 1e6, segments.len())
    } else {
        (quiet_latency_us(&paced), paced.latency_us.len())
    };
    Ok(end_to_end_metrics(
        &segments, latency_us, &setups, attempted, forwarded,
    ))
}

/// Cycles per packet of every element class in a telemetry snapshot.
fn set_stage_cycles(m: &mut Metrics, snapshot: &MetricsSnapshot) {
    for &(name, _) in PER_LAYER {
        let Some(class) = name.strip_prefix("click.stage_cycles_per_pkt.") else {
            continue;
        };
        let (cycles, packets) = snapshot
            .stages
            .iter()
            .filter(|s| s.class == class)
            .fold((0u64, 0u64), |(c, p), s| (c + s.cycles, p + s.packets));
        if packets > 0 {
            m.set(name, cycles as f64 / packets as f64, 0);
        }
    }
}

fn set_tails(m: &mut Metrics, paced: &Paced) {
    let latency = sorted(&paced.latency_us);
    let late = sorted(&paced.late_us);
    // p99.9 only when the sample supports it (ten samples beyond).
    let supported = highest_supported_percentile(latency.len()).unwrap_or(0.0);
    m.set(
        "latency.p99_us",
        percentile(&latency, 99.0f64.min(supported)),
        latency.len(),
    );
    m.set(
        "latency.p999_us",
        percentile(&latency, 99.9f64.min(supported)),
        latency.len(),
    );
    m.set(
        "harness.gen_late_p99_us",
        percentile(&late, 99.0),
        late.len(),
    );
    m.set(
        "harness.gen_late_max_us",
        late.last().copied().unwrap_or(0.0),
        late.len(),
    );
}

fn set_hw_model(m: &mut Metrics, spec: &Spec, frames: &[Packet], untraced_mpps: f64) {
    let mean_len = frames.iter().map(Packet::len).sum::<usize>() / frames.len().max(1);
    let model = CostModel {
        app: match spec.kind {
            Kind::Forward | Kind::MtForward => Application::MinimalForwarding,
            Kind::Route => Application::IpRouting,
            Kind::Ipsec => Application::Ipsec,
        },
        batching: BatchingConfig {
            kp: spec.kp as u32,
            kn: spec.kn as u32,
        },
    }
    .cpu_cycles(mean_len);
    let measured_ticks = cycles::ticks_per_sec() / (untraced_mpps * 1e6);
    m.set("hw.model_cpp", model, 0);
    m.set("hw.model_residual_ratio", measured_ticks / model, 0);
}

/// What the single-thread and the MT traced run both measured.
struct Traced<'a> {
    spec: &'a Spec,
    frames: &'a [Packet],
    /// Counts of the traced segments.
    counts: Counts,
    /// Rates of the untraced reference segments.
    base: Throughput,
    /// Best traced rate.
    traced_mpps: f64,
    /// Paced samples of the untraced reference.
    paced: &'a Paced,
    /// Stage table of the traced router(s).
    snapshot: &'a MetricsSnapshot,
    ops: usize,
}

impl Traced<'_> {
    fn e2e_ns(&self) -> f64 {
        1e3 / self.base.mpps
    }

    /// Sets every metric both traced runs report: those from the run's own
    /// counts, the probes every workload runs (pool, heap, descriptor ring
    /// and the two elements on every path) and the run's summary numbers.
    /// Returns the nanoseconds per packet those probes account for, each
    /// probe cost weighted by the run's own count.
    fn common_metrics(&self, m: &mut Metrics, rec: &mut Recorder) -> f64 {
        let Traced {
            spec,
            frames,
            counts: c,
            base,
            ops,
            ..
        } = self;
        let (ops, pkts) = (*ops, c.packets.max(1) as f64);
        let scalar = probes::pool_alloc_recycle(rec, frames, spec.slot_size, ops);
        let bulk = probes::pool_bulk_recycle(rec, frames, spec.slot_size, ops);
        let heap = probes::heap_alloc_free(rec, frames, ops);
        let (desc, doorbell) = probes::nic(rec, frames, ops);
        let check_ip = probes::check_ip(rec, frames, ops);
        let queue = probes::queue(rec, frames, ops);
        let bulk_share = c.pool_bulk_recycles as f64 / c.pool_recycles.max(1) as f64;
        let pool_ns =
            c.pool_allocs as f64 / pkts * (bulk_share * bulk + (1.0 - bulk_share) * scalar);
        let nic_ns = (c.nic_posted as f64 * desc + c.nic_doorbells as f64 * doorbell) / pkts;
        for (name, value, samples) in [
            ("packet.pool_alloc_recycle_ns", scalar, ops),
            ("packet.pool_bulk_recycle_ns", bulk, ops),
            ("packet.heap_alloc_free_ns", heap, ops),
            ("packet.nic_desc_ns", desc, ops),
            ("packet.nic_doorbell_ns", doorbell, ops),
            ("packet.nic_ns_per_pkt", nic_ns, 0),
            ("packet.nic_share", nic_ns / self.e2e_ns(), 0),
            ("packet.pool_allocs_per_pkt", c.pool_allocs as f64 / pkts, 0),
            ("packet.pool_bulk_recycle_ratio", bulk_share, 0),
            ("packet.pool_exhausted", c.pool_exhausted as f64, 0),
            ("packet.pool_heap_fallbacks", c.pool_fallbacks as f64, 0),
            ("packet.pool_peak_in_use", c.pool_peak_in_use as f64, 0),
            (
                "packet.nic_doorbells_per_pkt",
                c.nic_doorbells as f64 / pkts,
                0,
            ),
            (
                "packet.nic_desc_stalls_per_pkt",
                c.nic_desc_stalls as f64 / pkts,
                0,
            ),
            (
                "packet.nic_dma_bytes_per_pkt",
                c.nic_dma_bytes as f64 / pkts,
                0,
            ),
            ("click.check_ip_ns", check_ip, ops),
            ("click.queue_ns", queue, ops),
            ("click.quanta_per_pkt", c.quanta as f64 / pkts, 0),
            (
                "click.achieved_batch",
                c.pushes as f64 / c.batch_calls.max(1) as f64,
                0,
            ),
            (
                "telemetry.traced_over_untraced",
                self.traced_mpps / base.mpps,
                base.samples,
            ),
            ("fwd.segment_iqr_ratio", base.iqr_ratio, base.samples),
            (
                "fwd.median_over_best",
                base.median_mpps / base.mpps,
                base.samples,
            ),
        ] {
            m.set(name, value, samples);
        }
        set_stage_cycles(m, self.snapshot);
        set_hw_model(m, spec, frames, base.mpps);
        set_tails(m, self.paced);
        pool_ns + nic_ns + check_ip + queue
    }
}

fn set_publish_metrics(m: &mut Metrics, logs: &[&ChurnLog]) {
    let publish: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.publish_ms.iter().copied())
        .collect();
    let publish = sorted(&publish);
    let routes: u64 = logs.iter().map(|l| l.routes).sum();
    let busy_s: f64 = publish.iter().sum::<f64>() / 1e3;
    let (publishes, deltas) = logs.iter().fold((0, 0), |(p, d), l| {
        (p + l.stats.publishes, d + l.stats.delta_publishes)
    });
    m.set(
        "lookup.publish_p50_ms",
        percentile(&publish, 50.0),
        publish.len(),
    );
    m.set(
        "lookup.publish_p99_ms",
        percentile(&publish, 99.0),
        publish.len(),
    );
    m.set(
        "lookup.publish_routes_per_s",
        routes as f64 / busy_s,
        publish.len(),
    );
    m.set(
        "lookup.delta_publish_ratio",
        deltas as f64 / publishes.max(1) as f64,
        0,
    );
    m.set(
        "lookup.pending_retired_max",
        logs.iter()
            .map(|l| l.pending_retired_max)
            .max()
            .unwrap_or(0) as f64,
        0,
    );
}

fn probe_ops(scale: &Scale) -> usize {
    if scale.smoke {
        PROBE_OPS / 50
    } else {
        PROBE_OPS
    }
}

fn write_trace(opts: &Options, spec: &Spec, rec: &Recorder) -> Result<(), String> {
    let path = opts.trace_dir.join(format!("trace-{}.json", spec.name));
    std::fs::create_dir_all(&opts.trace_dir)
        .and_then(|()| std::fs::write(&path, rec.to_chrome_json(spec.name)))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("trace: {} spans -> {}", rec.spans.len(), path.display());
    Ok(())
}

/// The traced run: a third of the cycles untraced (the reference), the same
/// closed-loop segments again with `TelemetryLevel::Cycles` and harness
/// spans, then the layer probes. Writes the spans as Chrome trace-event JSON
/// and reports every per-layer metric.
pub fn traced(spec: &Spec, opts: &Options) -> Result<Outcome, String> {
    if spec.kind == Kind::MtForward {
        return traced_mt(spec, opts);
    }
    let scale = &opts.scale;
    let mut rec = Recorder::new(Instant::now(), TID_DATAPLANE);
    let plan = scale.plan(spec, CYCLES / 3);
    let ops = probe_ops(scale);

    let (prepared, mut ready, _) = set_up(spec, scale, opts.seed, opts.break_verify)?;
    let inputs = &prepared.inputs;
    let untraced = run_phases(spec, &mut ready, inputs, plan, None)?;
    check_phases(spec, &untraced)?;
    drop(ready);

    let segments_only = plan.without_windows();
    let mut ready = make_ready(spec, scale, &prepared, TelemetryLevel::Cycles, false)?;
    let traced = run_phases(spec, &mut ready, inputs, segments_only, Some(&mut rec))?;
    check_phases(spec, &traced)?;
    let snapshot = ready.router.telemetry_snapshot();
    drop(ready);

    let mut m = Metrics::new(PER_LAYER);
    let run = Traced {
        spec,
        frames: &inputs.frames,
        counts: traced.counts,
        base: throughput(&untraced.segments),
        traced_mpps: throughput(&traced.segments).mpps,
        paced: &untraced.paced,
        snapshot: &snapshot,
        ops,
    };
    let mut probe_rec = Recorder::new(rec.epoch(), TID_PROBES);
    let mut attributed = run.common_metrics(&mut m, &mut probe_rec);
    if spec.counts_pass {
        let mut ready = make_ready(spec, scale, &prepared, TelemetryLevel::Counts, false)?;
        let counted = run_phases(spec, &mut ready, inputs, segments_only, None)?;
        let ratio = throughput(&counted.segments).mpps / run.base.mpps;
        m.set("telemetry.counts_over_off", ratio, run.base.samples);
    }

    if let (Some(rib), Some(fib)) = (&inputs.rib, &prepared.fib) {
        let dsts = probes::destinations(&inputs.frames);
        let rcu = RcuFib::new(rib).map_err(|e| e.to_string())?;
        let scalar = probes::lookup_scalar(&mut probe_rec, fib, &dsts, ops);
        let batch = probes::lookup_batch32(&mut probe_rec, fib, &dsts, ops);
        let pin = probes::rcu_pin(&mut probe_rec, &rcu.reader(), ops);
        let dec_ttl = probes::dec_ttl(&mut probe_rec, &inputs.frames, ops);
        let lookup_route = probes::lookup_route(&mut probe_rec, rcu.reader(), &inputs.frames, ops);
        attributed += dec_ttl + lookup_route;
        let lookups = untraced.route_lookups + traced.route_lookups;
        let misses = untraced.route_misses + traced.route_misses;
        m.set("lookup.scalar_ns", scalar, ops);
        m.set("lookup.batch32_ns", batch, ops);
        m.set("lookup.rcu_pin_ns", pin, ops);
        m.set("click.dec_ttl_ns", dec_ttl, ops);
        m.set("click.lookup_route_ns", lookup_route, ops);
        m.set(
            "lookup.fib_mem_mb",
            fib.memory_bytes() as f64 / (1 << 20) as f64,
            0,
        );
        m.set("lookup.compile_s", prepared.compile_s, 1);
        m.set(
            "lookup.route_miss_ratio",
            misses as f64 / lookups.max(1) as f64,
            0,
        );
        let logs: Vec<&ChurnLog> = [&untraced.churn, &traced.churn]
            .into_iter()
            .flatten()
            .collect();
        set_publish_metrics(&mut m, &logs);
    }
    if spec.kind == Kind::Ipsec {
        let crypto_ops = ops / 20;
        let seal = probes::esp_seal_per_byte(&mut probe_rec, &inputs.frames, crypto_ops);
        let sha1 = probes::sha1_per_byte(&mut probe_rec, crypto_ops);
        let encap = probes::ipsec_encap(&mut probe_rec, &inputs.frames, crypto_ops);
        attributed += encap;
        m.set("crypto.esp_seal_ns_per_byte", seal, crypto_ops);
        m.set(
            "crypto.aes_block_ns",
            probes::aes_block(&mut probe_rec, ops),
            ops,
        );
        m.set("crypto.sha1_ns_per_byte", sha1, crypto_ops);
        m.set("click.ipsec_encap_ns", encap, crypto_ops);
    }

    let (inject_ns, injected) = rec.total("inject");
    let (drive_ns, driven) = rec.total("run_until_idle");
    m.set(
        "click.from_device_ns",
        inject_ns as f64 / injected.max(1) as f64,
        injected as usize,
    );
    m.set(
        "click.driver_ns_per_pkt",
        drive_ns as f64 / driven.max(1) as f64,
        driven as usize,
    );
    m.set(
        "click.unattributed_share",
        1.0 - attributed / run.e2e_ns(),
        0,
    );
    m.set("workload.traffic_gen_s", inputs.traffic_gen_s, 1);
    m.set("workload.rib_gen_s", inputs.rib_gen_s, 1);

    rec.absorb(probe_rec);
    write_trace(opts, spec, &rec)?;
    let attempted = untraced.offered + traced.offered;
    Ok(Outcome {
        correct: true,
        attempted,
        failed: attempted - untraced.counts.packets - traced.counts.packets,
        metrics: m,
    })
}

fn traced_mt(spec: &Spec, opts: &Options) -> Result<Outcome, String> {
    let scale = &opts.scale;
    let mut rec = Recorder::new(Instant::now(), TID_DATAPLANE);
    let plan = scale.plan(spec, CYCLES / 3);
    let ops = probe_ops(scale);

    let (inputs, mt, mut cursor, _) = set_up_mt(spec, scale, opts.seed, opts.break_verify)?;
    let frames = &inputs.frames;
    let untraced = run_cycles_mt(spec, &mt, frames, &mut cursor, plan, None)?;
    drop(mt);

    let segments_only = plan.without_windows();
    let (mt, mut cursor) = make_ready_mt(spec, scale, &inputs, TelemetryLevel::Cycles, false)?;
    let traced = run_cycles_mt(
        spec,
        &mt,
        frames,
        &mut cursor,
        segments_only,
        Some(&mut rec),
    )?;
    drop(mt);

    let mut m = Metrics::new(PER_LAYER);
    let totals = &traced.totals;
    let run = Traced {
        spec,
        frames,
        counts: totals.counts,
        base: throughput(&untraced.segments),
        traced_mpps: throughput(&traced.segments).mpps,
        paced: &untraced.paced,
        snapshot: &totals.telemetry,
        ops,
    };
    let mut probe_rec = Recorder::new(rec.epoch(), TID_PROBES);
    let attributed = run.common_metrics(&mut m, &mut probe_rec);
    let pkts = totals.counts.packets.max(1) as f64;
    let hop_ops = ops / 4;
    let hop = probes::spsc_hop(&mut probe_rec, frames, hop_ops);
    let hop_xthread = probes::spsc_hop_xthread(&mut probe_rec, frames, hop_ops);
    let bursts = untraced.paced.latency_us.len();
    m.set("click.spsc_hop_ns", hop, hop_ops / 32);
    m.set("click.spsc_hop_xthread_ns", hop_xthread, hop_ops / 32);
    m.set(
        "click.mt_burst_run_us",
        quiet_latency_us(&untraced.paced),
        bursts,
    );
    m.set("click.mt_achieved_batch", m.get("click.achieved_batch"), 0);
    m.set(
        "click.mt_credit_stalls_per_kpkt",
        totals.credit_stalls as f64 / pkts * 1e3,
        0,
    );
    m.set(
        "click.mt_credit_peak_outstanding",
        totals.credit_peak_outstanding as f64,
        0,
    );
    m.set(
        "click.unattributed_share",
        1.0 - attributed / run.e2e_ns(),
        0,
    );
    m.set("workload.traffic_gen_s", inputs.traffic_gen_s, 1);

    rec.absorb(probe_rec);
    write_trace(opts, spec, &rec)?;
    // `run_checked` failed the run unless every call forwarded its input.
    let attempted =
        untraced.totals.counts.packets + untraced.paced.packets + traced.totals.counts.packets;
    Ok(Outcome {
        correct: true,
        attempted,
        failed: 0,
        metrics: m,
    })
}
