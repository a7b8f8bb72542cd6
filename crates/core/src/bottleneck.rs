//! Fig. 9-style bottleneck attribution from measured telemetry.
//!
//! §5.3 of the paper asks *which component saturates first* as the input
//! rate grows. [`rb_hw::accounting`] answers that question analytically
//! from the calibrated cost model; this module answers it empirically:
//! it joins a [`MetricsSnapshot`] captured with
//! `TelemetryLevel::Cycles` against the same hardware model, attributing
//! measured cycles per packet to each element of the running graph and
//! computing where each stage would saturate.
//!
//! Two caveats keep the join honest:
//!
//! * Measured spans are in *this host's* timestamp ticks; the model's
//!   budgets are in *prototype* (2.8 GHz Nehalem) cycles. The report
//!   therefore scales per-stage saturation by the calibrated tick rate
//!   of the host, and reports the model prediction separately rather
//!   than mixing the two unit systems in one column.
//! * A `Queue` element is crossed twice per packet (enqueue + dequeue),
//!   so its stage row legitimately counts each packet twice; shares are
//!   computed over stage cycles, not packets.

use crate::report::{mpps, TextTable};
use rb_hw::{CostModel, ServerModel};
use rb_telemetry::{cycles, MetricsSnapshot};

/// One element's measured load, ready for rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    /// Element instance name in the graph.
    pub name: String,
    /// Element class name.
    pub class: String,
    /// Packets dispatched through this element (a queue counts each
    /// packet on both crossings).
    pub packets: u64,
    /// Measured timestamp ticks spent in this element.
    pub cycles: u64,
    /// Ticks per packet for this element.
    pub cycles_per_packet: f64,
    /// Share of all attributed stage cycles, in percent.
    pub share_pct: f64,
    /// Packet rate at which one core doing *only* this stage saturates,
    /// at the host's calibrated tick rate.
    pub saturation_pps: f64,
}

/// The joined report: measured per-stage loads plus the cost-model
/// prediction for the same application and packet size.
#[derive(Debug, Clone, PartialEq)]
pub struct BottleneckReport {
    /// Per-element rows, in first-dispatch order.
    pub stages: Vec<StageRow>,
    /// Index into [`BottleneckReport::stages`] of the stage with the
    /// highest cycles-per-packet — the empirical bottleneck.
    pub bottleneck: Option<usize>,
    /// Host timestamp ticks per second used for saturation rates.
    pub ticks_per_sec: f64,
    /// Peak stage crossings (max over stages). A graph with a `Queue`
    /// reports up to 2x the end-to-end packet count, since every packet
    /// crosses the queue twice.
    pub pipeline_packets: u64,
    /// Sum of per-stage ticks/packet — the attributed pipeline cost.
    pub measured_cpp: f64,
    /// End-to-end ticks/packet including scheduler overhead, after the
    /// paper's empty-poll correction (busy cycles only).
    pub end_to_end_cpp: f64,
    /// Cost-model prediction, in *prototype* cycles/packet.
    pub model_cpp: f64,
    /// Rate at which the prototype (all cores) saturates per the model.
    pub model_saturation_pps: f64,
    /// Measured ticks/packet summed over the device-boundary stages
    /// (`FromDevice`/`ToDevice` rows) — where the simulated descriptor
    /// rings charge their writeback/doorbell cost.
    pub device_cpp: f64,
    /// The model's device-boundary term `C_PCIE / kn`, in prototype
    /// cycles/packet ([`CostModel::pcie_cycles`]). Both this and
    /// `device_cpp` shrink as `kn` grows; comparing their *trends*
    /// checks the simulated NIC against Table 1 (the units differ:
    /// host ticks vs prototype cycles).
    pub model_pcie_cpp: f64,
    /// Frame bytes DMA'd across the device boundary, from the run's
    /// descriptor-ring counters (`RunStats`/`MtReport` `nic_dma_bytes`).
    /// The snapshot doesn't carry it — attach with
    /// [`BottleneckReport::with_nic_dma_bytes`]; 0 = not provided.
    pub nic_dma_bytes: u64,
    /// Modeled PCIe frame budget for this packet size, in frame bytes
    /// per second ([`CostModel::pcie_frame_budget_bps`]): the empirical
    /// link capacity derated by descriptor and transaction overhead.
    pub pcie_budget_bytes_per_sec: f64,
    /// Wall-clock duration of the measured run, in seconds. The
    /// snapshot doesn't carry it — attach with
    /// [`BottleneckReport::with_run_seconds`]; 0 = not provided, which
    /// disables the DMA-rate grading on the `device:` row.
    pub run_seconds: f64,
}

impl BottleneckReport {
    /// Joins a cycle-level snapshot with the hardware model. `size` is
    /// the representative packet size for the model's prediction.
    pub fn from_snapshot(
        snap: &MetricsSnapshot,
        model: &ServerModel,
        cost: &CostModel,
        size: usize,
    ) -> BottleneckReport {
        let ticks_per_sec = cycles::ticks_per_sec();
        let attributed: u64 = snap.stages.iter().map(|s| s.cycles).sum();
        let stages: Vec<StageRow> = snap
            .stages
            .iter()
            .map(|s| {
                let cpp = s.cycles_per_packet();
                StageRow {
                    name: s.name.clone(),
                    class: s.class.clone(),
                    packets: s.packets,
                    cycles: s.cycles,
                    cycles_per_packet: cpp,
                    share_pct: if attributed == 0 {
                        0.0
                    } else {
                        100.0 * s.cycles as f64 / attributed as f64
                    },
                    saturation_pps: if cpp > 0.0 {
                        ticks_per_sec / cpp
                    } else {
                        f64::INFINITY
                    },
                }
            })
            .collect();
        let bottleneck = stages
            .iter()
            .enumerate()
            .filter(|(_, s)| s.packets > 0 && s.cycles > 0)
            .max_by(|(_, a), (_, b)| a.cycles_per_packet.total_cmp(&b.cycles_per_packet))
            .map(|(i, _)| i);
        let model_cpp = cost.cpu_cycles(size) + model.queue_lock_penalty();
        let device_cpp = stages
            .iter()
            .filter(|s| s.class == "FromDevice" || s.class == "ToDevice")
            .map(|s| s.cycles_per_packet)
            .sum();
        let pipeline_packets = snap.pipeline_packets();
        BottleneckReport {
            stages,
            bottleneck,
            ticks_per_sec,
            pipeline_packets,
            measured_cpp: snap.stage_cpp_sum(),
            end_to_end_cpp: if pipeline_packets == 0 {
                0.0
            } else {
                snap.busy_cycles() as f64 / pipeline_packets as f64
            },
            model_cpp,
            model_saturation_pps: model.spec.cycle_budget() / model_cpp,
            device_cpp,
            model_pcie_cpp: cost.pcie_cycles(),
            nic_dma_bytes: 0,
            pcie_budget_bytes_per_sec: cost.pcie_frame_budget_bps(&model.spec, size),
            run_seconds: 0.0,
        }
    }

    /// Attaches the run's DMA byte count (`RunStats::nic_dma_bytes` /
    /// `MtReport::nic_dma_bytes`) so the `device:` row reports traffic
    /// volume next to the per-packet boundary cost.
    #[must_use]
    pub fn with_nic_dma_bytes(mut self, bytes: u64) -> BottleneckReport {
        self.nic_dma_bytes = bytes;
        self
    }

    /// Attaches the run's wall-clock duration so the `device:` row can
    /// grade the measured DMA rate (`nic_dma_bytes / seconds`) against
    /// the modeled PCIe frame budget.
    #[must_use]
    pub fn with_run_seconds(mut self, seconds: f64) -> BottleneckReport {
        self.run_seconds = seconds;
        self
    }

    /// Measured DMA throughput in frame bytes/second, or `None` if the
    /// byte count or run duration was not attached.
    pub fn dma_bytes_per_sec(&self) -> Option<f64> {
        (self.nic_dma_bytes > 0 && self.run_seconds > 0.0)
            .then(|| self.nic_dma_bytes as f64 / self.run_seconds)
    }

    /// Measured DMA rate as a fraction of the modeled PCIe frame
    /// budget (> 1.0 means the run moved more frame bytes per second
    /// than the modeled bus sustains). `None` when the rate or the
    /// budget is unavailable.
    pub fn pcie_utilization(&self) -> Option<f64> {
        let rate = self.dma_bytes_per_sec()?;
        self.pcie_budget_bytes_per_sec
            .is_finite()
            .then(|| rate / self.pcie_budget_bytes_per_sec)
    }

    /// The empirical bottleneck row, if any stage did work.
    pub fn bottleneck_stage(&self) -> Option<&StageRow> {
        self.bottleneck.map(|i| &self.stages[i])
    }

    /// Headroom of `stage` at `rate_pps` on this host, as a fraction of
    /// one core's tick budget: `1 − cpp·rate/ticks_per_sec`. Negative
    /// means the stage cannot keep up at that rate.
    pub fn headroom_at(&self, stage: &StageRow, rate_pps: f64) -> f64 {
        1.0 - stage.cycles_per_packet * rate_pps / self.ticks_per_sec
    }

    /// Renders the Fig. 9-style text report.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "element",
            "class",
            "packets",
            "cycles/pkt",
            "share",
            "saturates at",
        ]);
        for (i, s) in self.stages.iter().enumerate() {
            let marker = if Some(i) == self.bottleneck {
                " <- bottleneck"
            } else {
                ""
            };
            let (cpp, sat) = if s.packets == 0 {
                ("-".to_string(), "-".to_string())
            } else {
                (
                    format!("{:.0}", s.cycles_per_packet),
                    mpps(s.saturation_pps),
                )
            };
            t.row([
                s.name.clone(),
                s.class.clone(),
                s.packets.to_string(),
                cpp,
                format!("{:.1}%", s.share_pct),
                format!("{sat}{marker}"),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "pipeline: {} pkts, {:.0} ticks/pkt attributed, {:.0} end-to-end (busy)\n",
            self.pipeline_packets, self.measured_cpp, self.end_to_end_cpp,
        ));
        out.push_str(&format!(
            "model:    {:.0} cycles/pkt -> prototype saturates at {}\n",
            self.model_cpp,
            mpps(self.model_saturation_pps),
        ));
        if self.device_cpp > 0.0 {
            let dma = if self.nic_dma_bytes > 0 {
                format!(", {} bytes DMA'd", self.nic_dma_bytes)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "device:   {:.0} ticks/pkt measured at the NIC boundary vs \
                 C_PCIE/kn = {:.0} model cycles/pkt{dma}\n",
                self.device_cpp, self.model_pcie_cpp,
            ));
            if let Some(util) = self.pcie_utilization() {
                let rate = self.dma_bytes_per_sec().unwrap_or(0.0);
                let verdict = if util > 1.0 {
                    "exceeds the modeled bus"
                } else {
                    "within budget"
                };
                out.push_str(&format!(
                    "pcie:     {:.2e} B/s DMA rate vs {:.2e} B/s frame \
                     budget -> {:.1}% ({verdict})\n",
                    rate,
                    self.pcie_budget_bytes_per_sec,
                    100.0 * util,
                ));
            }
        }
        out
    }
}

impl core::fmt::Display for BottleneckReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RouterBuilder;
    use rb_hw::Application;
    use rb_telemetry::TelemetryLevel;

    fn report_for(count: u64) -> BottleneckReport {
        let mut r = RouterBuilder::minimal_forwarder()
            .telemetry(TelemetryLevel::Cycles)
            .source_packets(64, count)
            .build()
            .unwrap();
        r.run_until_idle(1_000_000);
        BottleneckReport::from_snapshot(
            &r.telemetry_snapshot(),
            &ServerModel::prototype(),
            &CostModel::tuned(Application::MinimalForwarding),
            64,
        )
    }

    #[test]
    fn report_attributes_every_active_stage() {
        let rep = report_for(400);
        // The forwarder's queue is crossed twice per packet (enqueue +
        // dequeue), so peak stage crossings are 2x the packet count.
        assert_eq!(rep.pipeline_packets, 800);
        let active: Vec<_> = rep.stages.iter().filter(|s| s.packets > 0).collect();
        assert!(active.len() >= 4, "src, chk, cnt, queue, tx at least");
        for s in &active {
            assert!(s.cycles > 0, "stage {} measured no cycles", s.name);
            assert!(s.cycles_per_packet > 0.0);
            assert!(s.saturation_pps.is_finite());
        }
        let share: f64 = rep.stages.iter().map(|s| s.share_pct).sum();
        assert!((share - 100.0).abs() < 1e-6, "shares sum to {share}");
    }

    #[test]
    fn bottleneck_is_the_max_cpp_stage() {
        let rep = report_for(400);
        let b = rep.bottleneck_stage().expect("some stage did work");
        for s in rep.stages.iter().filter(|s| s.packets > 0) {
            assert!(b.cycles_per_packet >= s.cycles_per_packet);
        }
        // Headroom at a rate far below saturation is nearly full; at a
        // rate far above, it goes negative.
        assert!(rep.headroom_at(b, b.saturation_pps / 1e6) > 0.99);
        assert!(rep.headroom_at(b, b.saturation_pps * 2.0) < 0.0);
    }

    #[test]
    fn model_join_matches_accounting_crate() {
        let rep = report_for(10);
        let model = ServerModel::prototype();
        let cost = CostModel::tuned(Application::MinimalForwarding);
        assert!((rep.model_cpp - (cost.cpu_cycles(64) + model.queue_lock_penalty())).abs() < 1e-9);
        // The paper's headline number: ~19 Mpps for minimal forwarding.
        assert!((18e6..20e6).contains(&rep.model_saturation_pps));
    }

    #[test]
    fn render_marks_the_bottleneck() {
        let rep = report_for(200);
        let text = rep.render();
        assert!(text.contains("<- bottleneck"));
        assert!(text.contains("model:"));
        let name = &rep.bottleneck_stage().unwrap().name;
        assert!(text.contains(name.as_str()));
    }

    #[test]
    fn device_boundary_row_tracks_the_pcie_term() {
        let mut r = RouterBuilder::minimal_forwarder()
            .telemetry(TelemetryLevel::Cycles)
            .source_packets(64, 400)
            .build()
            .unwrap();
        r.run_until_idle(1_000_000);
        let stats = r.click().stats();
        let rep = BottleneckReport::from_snapshot(
            &r.telemetry_snapshot(),
            &ServerModel::prototype(),
            &CostModel::tuned(Application::MinimalForwarding),
            64,
        )
        .with_nic_dma_bytes(stats.nic_dma_bytes);
        // The forwarder run has ToDevice stages, so the device-boundary
        // aggregate is populated and rendered, along with the DMA byte
        // count the descriptor rings measured (400 64-byte frames).
        assert!(rep.device_cpp > 0.0);
        assert_eq!(rep.nic_dma_bytes, 400 * 64);
        assert!(rep.render().contains("C_PCIE/kn"));
        assert!(rep.render().contains("25600 bytes DMA'd"));
        // The model side of the comparison is exactly C_PCIE / kn.
        let tuned = CostModel::tuned(Application::MinimalForwarding);
        assert!((rep.model_pcie_cpp - tuned.pcie_cycles()).abs() < 1e-9);
        let unbatched = CostModel {
            batching: rb_hw::BatchingConfig::none(),
            ..tuned
        };
        assert!(
            (unbatched.pcie_cycles() - 16.0 * tuned.pcie_cycles()).abs() < 1e-9,
            "kn=16 divides the device term by 16"
        );
    }

    #[test]
    fn pcie_grading_compares_dma_rate_to_frame_budget() {
        let mut r = RouterBuilder::minimal_forwarder()
            .telemetry(TelemetryLevel::Cycles)
            .source_packets(64, 400)
            .build()
            .unwrap();
        r.run_until_idle(1_000_000);
        let stats = r.click().stats();
        let base = BottleneckReport::from_snapshot(
            &r.telemetry_snapshot(),
            &ServerModel::prototype(),
            &CostModel::tuned(Application::MinimalForwarding),
            64,
        )
        .with_nic_dma_bytes(stats.nic_dma_bytes);
        // The budget comes straight from the cost model for this spec
        // and size, and sits strictly below the raw link capacity.
        let model = ServerModel::prototype();
        let cost = CostModel::tuned(Application::MinimalForwarding);
        assert!(
            (base.pcie_budget_bytes_per_sec - cost.pcie_frame_budget_bps(&model.spec, 64)).abs()
                < 1e-6
        );
        assert!(base.pcie_budget_bytes_per_sec < model.spec.pcie.empirical_bps / 8.0);
        // No duration attached: no rate, no grading row.
        assert!(base.dma_bytes_per_sec().is_none());
        assert!(base.pcie_utilization().is_none());
        assert!(!base.render().contains("pcie:"));
        // A slow run sits comfortably within budget...
        let slow = base.clone().with_run_seconds(1.0);
        let util = slow.pcie_utilization().expect("rate and budget known");
        assert!(util < 1.0, "25.6 KB over a second is not a loaded bus");
        assert!(slow.render().contains("within budget"));
        // ...while the same bytes squeezed into a nanosecond overdrive
        // the modeled bus and the row says so.
        let fast = base.with_run_seconds(1e-9);
        assert!(fast.pcie_utilization().unwrap() > 1.0);
        assert!(fast.render().contains("exceeds the modeled bus"));
    }

    #[test]
    fn empty_snapshot_yields_empty_report() {
        let snap = MetricsSnapshot::empty();
        let rep = BottleneckReport::from_snapshot(
            &snap,
            &ServerModel::prototype(),
            &CostModel::tuned(Application::MinimalForwarding),
            64,
        );
        assert!(rep.stages.is_empty());
        assert!(rep.bottleneck.is_none());
        assert_eq!(rep.pipeline_packets, 0);
    }
}
