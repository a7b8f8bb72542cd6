//! The five workloads: their fixed parameters, their seeded inputs and the
//! router each one drives.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use routebricks::builder::RouterBuilder;
use routebricks::lookup::{RouteTable, RouteUpdate};
use routebricks::packet::builder::PacketSpec;
use routebricks::packet::Packet;
use routebricks::telemetry::TelemetryLevel;
use routebricks::workload::{churn_stream, rib_full_table, ChurnConfig, SizeDist};
use routebricks::Regime;
use std::net::{Ipv4Addr, SocketAddrV4};
use std::time::Instant;

/// Frames injected between two `run_until_idle` calls in the closed loop.
/// Half the arena, so a round can never exhaust it.
pub const ROUND: usize = 512;
/// Frames per paced burst.
pub const BURST: usize = 32;
/// Arena slots behind every ingress device.
pub const POOL_SLOTS: usize = 1024;
/// Egress queue capacity; above [`POOL_SLOTS`], so the queue never drops.
pub const QUEUE_CAPACITY: usize = 4096;
/// Ports of the IP router; also the next-hop count of RIB and churn.
pub const ROUTE_PORTS: usize = 32;
/// Routes in one churn publish.
pub const CHURN_SLICE: usize = 1_000;
/// Frames of the verify pass.
pub const VERIFY_FRAMES: usize = 2_000;
/// A run alternates closed-loop segments and paced windows in this many
/// cycles, so that both the rate and the latency sample the whole run and
/// some of each escape the host's contention (README, "Why the fastest
/// segment").
pub const CYCLES: usize = 30;

/// Share of `--seconds` spent in the closed loop; the rest is paced.
pub const SATURATION_SHARE: f64 = 0.6;

/// Which application graph a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Forward,
    Route,
    Ipsec,
    MtForward,
}

/// The fixed parameters of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Poll-driven batch size.
    pub kp: usize,
    /// NIC-driven batch size.
    pub kn: usize,
    /// Arena slot bytes.
    pub slot_size: usize,
    /// Distinct pre-built frames the rounds cycle through.
    pub frame_pool: usize,
    /// Closed-loop rate of the seed on the reference box. It only sizes the
    /// fixed packet count of a run (`nominal_pps × seconds`); it is not a
    /// target.
    pub nominal_pps: f64,
    /// Open-loop offered rate, about half of `nominal_pps`.
    pub offered_pps: f64,
    /// The traced run adds one `TelemetryLevel::Counts` saturation pass.
    pub counts_pass: bool,
    /// Closed-loop segments per cycle; on the MT workload, timed
    /// `MtRouter::run` calls.
    pub segments_per_cycle: usize,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "fwd64_tuned",
        kind: Kind::Forward,
        kp: 32,
        kn: 16,
        slot_size: 256,
        frame_pool: 8_192,
        nominal_pps: 1_450_000.0,
        offered_pps: 700_000.0,
        counts_pass: true,
        // Over 100 ms each: long enough that every segment of the route
        // workload (same value) holds one churn publish.
        segments_per_cycle: 2,
    },
    Spec {
        name: "fwd64_untuned",
        kind: Kind::Forward,
        kp: 1,
        kn: 1,
        slot_size: 256,
        frame_pool: 8_192,
        nominal_pps: 215_000.0,
        offered_pps: 100_000.0,
        counts_pass: false,
        segments_per_cycle: 2,
    },
    Spec {
        name: "route64_fib1m_churn",
        kind: Kind::Route,
        kp: 32,
        kn: 16,
        slot_size: 256,
        // 128K uniform-random destinations touch 128K distinct TBL24 lines
        // (8 MiB), so lookups miss the caches as a full table does.
        frame_pool: 131_072,
        nominal_pps: 660_000.0,
        offered_pps: 320_000.0,
        counts_pass: false,
        segments_per_cycle: 2,
    },
    Spec {
        name: "ipsec_abilene",
        kind: Kind::Ipsec,
        kp: 32,
        kn: 16,
        slot_size: 2_048,
        frame_pool: 8_192,
        nominal_pps: 63_000.0,
        offered_pps: 30_000.0,
        counts_pass: false,
        segments_per_cycle: 2,
    },
    Spec {
        name: "mt_pull64_w1",
        kind: Kind::MtForward,
        kp: 32,
        kn: 16,
        slot_size: 2_048,
        frame_pool: 8_192,
        nominal_pps: 1_180_000.0,
        // One `MtRouter::run` per burst builds its replica and spawns and
        // joins its threads (about 0.4 ms here), so the paced rate is one
        // burst per millisecond, not a share of the saturation rate.
        offered_pps: 32_000.0,
        counts_pass: false,
        // About 30 ms each: both vCPUs must escape the host's contention at
        // once for a fast segment, so more, shorter ones; the small input
        // vector also keeps the harness's memory out of `peak_rss_mb`.
        segments_per_cycle: 8,
    },
];

pub fn spec_by_name(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// How large a run is: full, or the ~1 % `--smoke` shape.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub seconds: f64,
    pub smoke: bool,
}

/// The cycles one router instance runs: each is the workload's
/// `segments_per_cycle` closed-loop segments and one paced window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    pub cycles: usize,
    /// Rounds of [`ROUND`] frames in one closed-loop segment; on the MT
    /// workload, in the input of one timed `MtRouter::run`.
    pub rounds_per_segment: usize,
    /// Bursts of one paced window; 0 skips the windows.
    pub bursts_per_window: usize,
}

impl Plan {
    pub fn without_windows(self) -> Plan {
        Plan {
            bursts_per_window: 0,
            ..self
        }
    }
}

impl Scale {
    /// Routes in the synthetic RIB.
    pub fn rib_routes(&self) -> usize {
        if self.smoke {
            10_000
        } else {
            1_000_000
        }
    }

    /// Blocks per untraced run. Each block sets up afresh and runs its
    /// share of the [`CYCLES`], so the set-ups are spread over the whole run
    /// and one instance is alive at a time; `setup_s` is the fastest.
    pub fn blocks(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }

    pub fn warmup_rounds(&self) -> usize {
        if self.smoke {
            2
        } else {
            100
        }
    }

    fn shrink(&self) -> f64 {
        if self.smoke {
            0.01
        } else {
            1.0
        }
    }

    /// What one router instance runs when given `cycles` of the run's
    /// [`CYCLES`].
    pub fn plan(&self, spec: &Spec, cycles: usize) -> Plan {
        let segments = (CYCLES * spec.segments_per_cycle) as f64;
        let closed = spec.nominal_pps * self.seconds * SATURATION_SHARE * self.shrink() / segments;
        let paced_secs =
            self.seconds * (1.0 - SATURATION_SHARE) * if self.smoke { 0.05 } else { 1.0 };
        let bursts = spec.offered_pps * paced_secs / (BURST * CYCLES) as f64;
        Plan {
            cycles,
            rounds_per_segment: ((closed / ROUND as f64).round() as usize).max(1),
            bursts_per_window: (bursts.round() as usize).max(4),
        }
    }
}

/// SplitMix64 over the run seed and a stream label: every generator of a
/// run (traffic, RIB, churn) gets its own seed, all fixed by `--seed`.
pub fn derive_seed(seed: u64, stream: &str) -> u64 {
    let mut x = seed;
    for b in stream.bytes() {
        x = (x ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The pre-built frames of a workload. 64 B everywhere except
/// `ipsec_abilene`; destinations are uniform-random on the route workload
/// (the synthetic RIB has a default route, so none misses) and fixed
/// elsewhere; sources vary per frame so flows are distinct.
pub fn make_frames(spec: &Spec, seed: u64) -> Vec<Packet> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, "traffic"));
    let sizes = match spec.kind {
        Kind::Ipsec => SizeDist::abilene(),
        _ => SizeDist::worst_case(),
    };
    (0..spec.frame_pool)
        .map(|_| {
            let src = SocketAddrV4::new(
                Ipv4Addr::new(172, 16, rng.gen(), rng.gen()),
                rng.gen_range(1024..60_000),
            );
            let dst_ip = match spec.kind {
                Kind::Route => Ipv4Addr::from(rng.gen::<u32>()),
                _ => Ipv4Addr::new(10, 0, 0, 1),
            };
            PacketSpec::udp()
                .endpoints(src, SocketAddrV4::new(dst_ip, 80))
                .ttl(64)
                .frame_len(sizes.sample(&mut rng))
                .build()
        })
        .collect()
}

pub fn make_rib(scale: &Scale, seed: u64) -> RouteTable {
    rib_full_table(scale.rib_routes(), derive_seed(seed, "rib"))
}

/// The churn stream the control thread publishes in [`CHURN_SLICE`]s,
/// cycling when it runs out.
pub fn make_churn(table: &RouteTable, seed: u64) -> Vec<RouteUpdate> {
    churn_stream(
        table,
        &ChurnConfig {
            updates: 40 * CHURN_SLICE,
            next_hops: ROUTE_PORTS as u16,
            seed: derive_seed(seed, "churn"),
            ..ChurnConfig::default()
        },
    )
}

/// Everything a workload's router is built from.
pub struct Inputs {
    pub frames: Vec<Packet>,
    /// Route workload only.
    pub rib: Option<RouteTable>,
    pub churn: Vec<RouteUpdate>,
    pub traffic_gen_s: f64,
    pub rib_gen_s: f64,
}

pub fn make_inputs(spec: &Spec, scale: &Scale, seed: u64) -> Inputs {
    let t = Instant::now();
    let frames = make_frames(spec, seed);
    let traffic_gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (rib, churn) = if spec.kind == Kind::Route {
        let rib = make_rib(scale, seed);
        let churn = make_churn(&rib, seed);
        (Some(rib), churn)
    } else {
        (None, Vec::new())
    };
    Inputs {
        frames,
        rib,
        churn,
        traffic_gen_s,
        rib_gen_s: t.elapsed().as_secs_f64(),
    }
}

/// The workload's router configuration, through the public builder only.
pub fn router_builder(
    spec: &Spec,
    inputs: &Inputs,
    telemetry: TelemetryLevel,
    keep_tx_frames: bool,
) -> RouterBuilder {
    let app = match spec.kind {
        Kind::Forward => RouterBuilder::minimal_forwarder(),
        Kind::Route => RouterBuilder::ip_router()
            .ports(ROUTE_PORTS)
            .rcu_fib(true)
            .routes_from_table(inputs.rib.clone().expect("route workload has a RIB")),
        Kind::Ipsec => RouterBuilder::ipsec_gateway(),
        Kind::MtForward => RouterBuilder::minimal_forwarder()
            .workers(1)
            .regime(Regime::PullCredit),
    };
    app.batch_size(spec.kp)
        .nic_batch(spec.kn)
        .pool_slots(POOL_SLOTS)
        .slot_size(spec.slot_size)
        .queue_capacity(QUEUE_CAPACITY)
        .telemetry(telemetry)
        .keep_tx_frames(keep_tx_frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: Scale = Scale {
        seconds: 10.0,
        smoke: true,
    };

    fn bytes(frames: &[Packet]) -> Vec<Vec<u8>> {
        frames.iter().map(|p| p.data().to_vec()).collect()
    }

    #[test]
    fn same_seed_gives_identical_frames_and_churn() {
        for spec in &SPECS {
            let a = make_inputs(spec, &SMOKE, 42);
            let b = make_inputs(spec, &SMOKE, 42);
            assert_eq!(bytes(&a.frames), bytes(&b.frames), "{}", spec.name);
            assert_eq!(a.churn, b.churn, "{}", spec.name);
            assert_eq!(
                a.rib.as_ref().map(|t| t.iter().collect::<Vec<_>>()),
                b.rib.as_ref().map(|t| t.iter().collect::<Vec<_>>()),
            );
        }
    }

    #[test]
    fn another_seed_gives_other_frames_and_churn() {
        let spec = spec_by_name("route64_fib1m_churn").unwrap();
        let a = make_inputs(spec, &SMOKE, 1);
        let b = make_inputs(spec, &SMOKE, 2);
        assert_ne!(bytes(&a.frames), bytes(&b.frames));
        assert_ne!(a.churn, b.churn);
    }

    #[test]
    fn streams_of_one_seed_are_independent() {
        let labels = ["traffic", "rib", "churn"];
        for a in labels {
            for b in labels {
                assert_eq!(derive_seed(7, a) == derive_seed(7, b), a == b);
            }
        }
        assert_ne!(derive_seed(7, "rib"), derive_seed(8, "rib"));
    }

    #[test]
    fn frame_sizes_follow_the_workload() {
        let fwd = make_frames(spec_by_name("fwd64_tuned").unwrap(), 3);
        assert!(fwd.iter().all(|p| p.len() == 64));
        let ipsec = make_frames(spec_by_name("ipsec_abilene").unwrap(), 3);
        let sizes: std::collections::BTreeSet<usize> = ipsec.iter().map(Packet::len).collect();
        assert_eq!(sizes.into_iter().collect::<Vec<_>>(), vec![64, 576, 1500]);
    }

    #[test]
    fn full_scale_counts_are_whole_rounds() {
        let full = Scale {
            seconds: 10.0,
            smoke: false,
        };
        let tuned = spec_by_name("fwd64_tuned").unwrap();
        assert_eq!(
            full.plan(tuned, 6),
            Plan {
                cycles: 6,
                rounds_per_segment: 283,
                bursts_per_window: 2_917
            }
        );
        let mt = spec_by_name("mt_pull64_w1").unwrap();
        assert_eq!(full.plan(mt, CYCLES).rounds_per_segment, 58);
        assert_eq!(full.plan(mt, CYCLES).without_windows().bursts_per_window, 0);
        assert_eq!(CYCLES % full.blocks(), 0, "blocks share the cycles evenly");
    }
}
