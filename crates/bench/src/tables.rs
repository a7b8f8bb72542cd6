//! One function per table or figure; each returns what `paper <name>`
//! prints.

use crate::{compare, paper, Table};
use routebricks::cluster::model::{ClusterModel, REORDER_AVOIDANCE_CYCLES};
use routebricks::cluster::Rb4Results;
use routebricks::hw::accounting::load_series;
use routebricks::hw::analytic::ServerModel;
use routebricks::hw::cost::{Application, BatchingConfig, CostModel};
use routebricks::hw::numa;
use routebricks::hw::scenarios::{evaluate, evaluate_all, Scenario};
use routebricks::hw::sim::{SimConfig, Simulator};
use routebricks::hw::spec::{Capacity, Component, ServerSpec};
use routebricks::vlb::sizing::{fig3_dataset, layout, Layout, ServerConfig};
use routebricks::vlb::topology::{KAryNFly, Topology};
use routebricks::vlb::torus::{torus_processing_factor, KAryNCube};
use routebricks::workload::SizeDist;

/// The three applications of Tables 1–3, in the paper's order, with the
/// short names the load tables use.
const APPS: [(Application, &str); 3] = [
    (Application::MinimalForwarding, "fwd"),
    (Application::IpRouting, "rtr"),
    (Application::Ipsec, "ipsec"),
];

/// **Table 1**: forwarding rate vs polling configuration — the
/// closed-form model and the discrete-event simulator's emergent rate
/// for each (kp, kn), next to the paper's measurement.
pub fn table1() -> Vec<Table> {
    let model = ServerModel::prototype();
    let app = Application::MinimalForwarding;
    let rows = paper::TABLE1.map(|(kp, kn, paper_gbps)| {
        let batching = BatchingConfig { kp, kn };
        let rate = model.rate_with_batching(app, batching, 64.0);
        // Drive the simulator into saturation and read the carried rate.
        let mut cfg = SimConfig::prototype(CostModel { app, batching }, rate.pps * 1.3);
        cfg.duration_ns = 4_000_000;
        let des_gbps = Simulator::new(cfg).run().achieved_pps * 64.0 * 8.0 / 1e9;
        [
            format!("kp={kp} kn={kn}"),
            compare(rate.gbps(), paper_gbps),
            format!("{des_gbps:.2}"),
            rate.bottleneck.to_string(),
        ]
    });
    let title = "Table 1 — forwarding rates vs polling configuration (64 B packets)";
    let header = "configuration | model Gbps (vs paper) | DES Gbps | bottleneck";
    vec![Table::new(title, header).rows(rows).note(
        "Poll-driven batching (kp) amortises per-poll book-keeping; NIC-driven\n\
         batching (kn) amortises descriptor DMA. Both are needed to reach the\n\
         ~9.7 Gbps CPU-bound ceiling the paper reports.",
    )]
}

/// **Table 2**: nominal and empirical component capacities (inputs to
/// the model, transcribed from the paper) and each component's load at
/// the 64 B minimal-forwarding saturation point.
pub fn table2() -> Vec<Table> {
    let model = ServerModel::prototype();
    let spec = &model.spec;
    let cost = CostModel::tuned(Application::MinimalForwarding);
    let pps = model.rate(Application::MinimalForwarding, 64.0).pps;
    let components = [
        (Component::Cpu, Capacity::exact(spec.cycle_budget())),
        (Component::Memory, spec.memory),
        (Component::InterSocket, spec.inter_socket),
        (Component::IoLink, spec.io_link),
        (Component::Pcie, spec.pcie),
    ];
    let rows = components
        .into_iter()
        .zip(paper::TABLE2)
        .map(|((component, cap), paper)| {
            // Cycles per packet for the CPU, bits per packet for a bus.
            let load = pps
                * match component {
                    Component::Cpu => cost.cpu_cycles(64),
                    bus => 8.0 * cost.bus_bytes(bus, 64),
                };
            let (name, p_nom, p_emp) = paper;
            [
                name.to_string(),
                format!("{:.2}", cap.nominal_bps / 1e9),
                format!("{:.2}", cap.empirical_bps / 1e9),
                format!("{p_nom:.1} / {p_emp:.2}"),
                format!("{:.1}", load / 1e9),
                format!("{:.0}%", 100.0 * load / cap.empirical_bps),
            ]
        });
    let title = "Table 2 — component capacity bounds (Nehalem prototype)";
    let header = "component (Gbps, CPU Gcycles/s) | nominal | empirical | paper (nom/emp) \
                  | load at 64 B saturation | utilisation";
    vec![Table::new(title, header)
        .rows(rows)
        .note("Only the CPU reaches its bound — the paper's §5.3 conclusion.")]
}

/// **Table 3**: instructions per packet and cycles per instruction.
pub fn table3() -> Vec<Table> {
    let rows = APPS
        .into_iter()
        .zip(paper::TABLE3)
        .map(|((app, _), (name, ipp, cpi))| {
            let m = CostModel::tuned(app);
            [
                name.to_string(),
                format!("{ipp:.0}"),
                compare(m.cpi(), cpi),
                format!("{:.0}", m.cpu_cycles(64)),
            ]
        });
    let title = "Table 3 — instructions per packet and cycles per instruction (64 B)";
    let header = "application | instr/packet | model CPI (vs paper) | cycles/packet";
    vec![Table::new(title, header).rows(rows).note(
        "CPI near 1.2 for the memory-touching applications and ~0.55 for the\n\
         compute-dense IPsec matches the paper's \"the CPUs are efficiently\n\
         used\" reading: performance is limited by cycle count, not stalls.",
    )]
}

/// **Fig. 3**: servers required vs external ports for the three server
/// configurations and the rejected Arista-switched Clos cluster (in
/// server-cost equivalents).
pub fn fig3() -> Vec<Table> {
    let describe = |layout: &Layout| match (layout, layout.servers()) {
        (Layout::Mesh { .. }, Some(n)) => format!("{n} (mesh)"),
        (Layout::NFly { stages, .. }, Some(n)) => format!("{n} ({stages}-stage n-fly)"),
        _ => "infeasible".to_string(),
    };
    let ports = [4usize, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];
    let rows = fig3_dataset(&ports, 10e9).into_iter().map(|row| {
        let [current, more_nics, faster] = row.layouts.each_ref().map(describe);
        let switched = format!("{:.0}", row.switched_equivalents);
        [
            row.n_ports.to_string(),
            current,
            more_nics,
            faster,
            switched,
        ]
    });
    let title = "Fig. 3 — number of servers for an N-port, 10 Gbps/port router";
    let header = "ext. ports | current (5 slots) | more NICs (20 slots) \
                  | faster (2 ports, 20 slots) | 48-port switches (equiv)";
    vec![Table::new(title, header).rows(rows).note(
        "Mesh-to-n-fly transitions (paper: 32 / 128 ports for the first two\n\
         configurations): the fanout limit forces intermediate relay ranks;\n\
         the Arista-based Clos stays more expensive than the best server\n\
         cluster throughout, as §3.3 argues. The n-fly relay construction is\n\
         a reconstruction — see EXPERIMENTS.md for fidelity notes.",
    )]
}

/// **Fig. 6**: per-forwarding-path rates under the toy core/queue
/// layouts, and what §4.2's two rules buy.
pub fn fig6() -> Vec<Table> {
    let paper_rate = |s| match s {
        Scenario::Parallel => Some(paper::FIG6_PARALLEL),
        Scenario::PipelineSharedCache => Some(paper::FIG6_PIPELINE_SHARED),
        Scenario::PipelineCrossCache => Some(paper::FIG6_PIPELINE_CROSS),
        Scenario::OverlapWithoutMultiQueue => Some(paper::FIG6_OVERLAP_NO_MQ),
        Scenario::OverlapWithMultiQueue => Some(paper::FIG6_OVERLAP_MQ),
        _ => None,
    };
    let rows = evaluate_all().into_iter().map(|r| {
        let rate = format!("{:.2}", r.gbps_per_path);
        let rate = paper_rate(r.scenario).map_or(rate, |p| compare(r.gbps_per_path, p));
        [
            r.scenario.label().to_string(),
            rate,
            format!("{:.2}", r.gbps_total),
        ]
    });
    let per_path = |s| evaluate(s).gbps_per_path;
    let loss = |s| {
        format!(
            "{:+.0}%",
            100.0 * (per_path(s) / per_path(Scenario::Parallel) - 1.0)
        )
    };
    let gain = |with, without| {
        format!(
            "{:.1}×",
            evaluate(with).gbps_total / evaluate(without).gbps_total
        )
    };
    use Scenario::*;
    // The paper's words (§4.2) for the first three, its Fig. 6 bars for the last.
    let rules = [
        (
            "(a) vs (b): cross-core sync",
            loss(PipelineSharedCache),
            "as much as -29%",
        ),
        (
            "(a') vs (b): sync + cache misses",
            loss(PipelineCrossCache),
            "-64%",
        ),
        (
            "(d) / (c): multi-queue split",
            gain(SplitWithMultiQueue, SplitWithoutMultiQueue),
            ">3×",
        ),
        (
            "(f) / (e): multi-queue overlap",
            gain(OverlapWithMultiQueue, OverlapWithoutMultiQueue),
            "0.7 → 1.7",
        ),
    ]
    .map(|(what, model, paper)| [what.to_string(), model, paper.to_string()]);
    let title = "Fig. 6 — per-forwarding-path rates under core/queue layouts (64 B)";
    vec![
        Table::new(title, "scenario | Gbps/FP (vs paper) | aggregate Gbps").rows(rows),
        Table::new(
            "Fig. 6 — the two rules of §4.2",
            "comparison | model | paper",
        )
        .rows(rules)
        .note(
            "(1) One core per packet — parallel beats pipelined by the sync and\n\
                 cache-miss overheads; (2) one core per queue — multi-queue NICs\n\
                 recover the losses in the split and overlapping-path scenarios.",
        ),
    ]
}

/// **Fig. 7**: cumulative impact of the new server architecture,
/// multi-queue NICs and batching on the aggregate forwarding rate.
pub fn fig7() -> Vec<Table> {
    let (none, tuned) = (BatchingConfig::none(), BatchingConfig::tuned());
    let stages = [
        (
            "Xeon, single queue, no batching",
            ServerSpec::xeon_shared_bus(),
            none,
        ),
        (
            "Nehalem, single queue, no batching",
            ServerSpec::nehalem_single_queue(),
            none,
        ),
        (
            "Nehalem, multiple queues, no batching",
            ServerSpec::nehalem(),
            none,
        ),
        (
            "Nehalem, multiple queues, with batching",
            ServerSpec::nehalem(),
            tuned,
        ),
    ]
    .map(|(name, spec, batching)| {
        let app = Application::MinimalForwarding;
        (
            name,
            ServerModel::new(spec).rate_with_batching(app, batching, 64.0),
        )
    });
    let rows = stages.iter().map(|(name, r)| {
        [
            name.to_string(),
            format!("{:.2}", r.mpps()),
            r.bottleneck.to_string(),
        ]
    });
    let [xeon, base, _, full] = stages.each_ref().map(|(_, r)| r.pps);
    let gains = [
        (
            "full config, Mpps",
            compare(full / 1e6, paper::FIG7_FULL_MPPS),
        ),
        (
            "vs Nehalem baseline",
            compare(full / base, paper::FIG7_VS_NEHALEM_BASE),
        ),
        (
            "vs shared-bus Xeon",
            compare(full / xeon, paper::FIG7_VS_XEON),
        ),
    ]
    .map(|(what, cell)| [what.to_string(), cell]);
    let title = "Fig. 7 — aggregate 64 B forwarding rate per design stage";
    vec![
        Table::new(title, "configuration | Mpps | bottleneck").rows(rows),
        Table::new(
            "Fig. 7 — the full configuration",
            "comparison | model (vs paper)",
        )
        .rows(gains),
    ]
}

/// **Fig. 8**: forwarding rate vs packet size (top) and vs application
/// (bottom), for 64 B and the Abilene-like workload.
pub fn fig8() -> Vec<Table> {
    let model = ServerModel::prototype();
    let mean = SizeDist::abilene().mean();
    let sizes = [64.0, 128.0, 256.0, 512.0, 1024.0].map(|s| (format!("{s:.0} B"), s));
    let abilene = (format!("Abilene (mean {mean:.0} B)"), mean);
    let top = sizes.into_iter().chain([abilene]).map(|(label, size)| {
        let r = model.rate(Application::MinimalForwarding, size);
        let (mpps, gbps) = (format!("{:.2}", r.mpps()), format!("{:.2}", r.gbps()));
        [label, mpps, gbps, r.bottleneck.to_string()]
    });
    let bottom = APPS
        .into_iter()
        .zip(paper::FIG8)
        .map(|((app, _), (name, p64, pab))| {
            let gbps = |size| model.rate(app, size).gbps();
            [
                name.to_string(),
                compare(gbps(64.0), p64),
                compare(gbps(mean), pab),
            ]
        });
    let header = "application | 64 B Gbps (vs paper) | Abilene Gbps (vs paper)";
    vec![
        Table::new(
            "Fig. 8 (top) — minimal forwarding vs packet size",
            "packet size | Mpps | Gbps | bottleneck",
        )
        .rows(top),
        Table::new(
            "Fig. 8 (bottom) — per application, 64 B and Abilene",
            header,
        )
        .rows(bottom)
        .note(
            "Realistic (Abilene-like) traffic saturates the two NIC slots at\n\
                 24.6 Gbps for forwarding and routing; worst-case 64 B traffic and\n\
                 IPsec at any size are CPU-bound — the paper's central result.",
        ),
    ]
}

/// **Fig. 9**: CPU load (cycles/packet) vs input rate with the
/// available-cycles bound, and the rate at which each application's
/// load meets it.
pub fn fig9() -> Vec<Table> {
    let model = ServerModel::prototype();
    let rates: Vec<f64> = (1..=20).map(|m| m as f64 * 1e6).collect();
    let cpu = |app| load_series(&model, &CostModel::tuned(app), Component::Cpu, 64, &rates);
    let series = APPS.map(|(app, _)| cpu(app));
    let sweep = rates.iter().enumerate().map(|(i, rate)| {
        let cycles = series
            .each_ref()
            .map(|s| format!("{:.0}", s.points[i].measured));
        let available = format!("{:.0}", series[0].points[i].nominal_bound);
        let [fwd, rtr, ipsec] = cycles;
        [format!("{:.0}", rate / 1e6), available, fwd, rtr, ipsec]
    });
    let crossings = series.iter().zip(APPS).map(|(s, (_, name))| {
        let cycles = s.points[0].measured;
        let mpps = model.spec.cycle_budget() / cycles / 1e6;
        [
            name.to_string(),
            format!("{cycles:.0}"),
            format!("{mpps:.2}"),
        ]
    });
    vec![
        Table::new(
            "Fig. 9 — CPU cycles/packet vs input rate (64 B packets)",
            "rate (Mpps) | available cyc/pkt | fwd | rtr | ipsec",
        )
        .rows(sweep),
        Table::new(
            "Fig. 9 — where each load meets the available-cycles bound",
            "app | cycles/packet | CPU saturates at (Mpps)",
        )
        .rows(crossings)
        .note(
            "Per-packet cycles are flat in the input rate — so the curves'\n\
             intersection with the available-cycles bound pinpoints the\n\
             saturation rates, and the CPU is the bottleneck for all three\n\
             applications (§5.3, conclusion 1).",
        ),
    ]
}

/// **Fig. 10**: per-packet load on memory buses, socket-I/O links, PCIe
/// buses and the inter-socket link vs input rate, with nominal and
/// empirical bounds.
pub fn fig10() -> Vec<Table> {
    let model = ServerModel::prototype();
    let rates = [2.0, 5.0, 10.0, 15.0, 19.0].map(|m| m * 1e6);
    let (mut rows, mut saturating) = (Vec::new(), Vec::new());
    for bus in [
        Component::Memory,
        Component::IoLink,
        Component::Pcie,
        Component::InterSocket,
    ] {
        let series =
            APPS.map(|(app, _)| load_series(&model, &CostModel::tuned(app), bus, 64, &rates));
        if series.iter().any(|s| !s.never_saturates()) {
            saturating.push(bus.to_string());
        }
        rows.extend(rates.iter().enumerate().map(|(i, rate)| {
            let [fwd, rtr, ipsec] = series.each_ref().map(|s| &s.points[i]);
            let (empirical, nominal) = (fwd.empirical_bound, fwd.nominal_bound);
            let cells = [
                rate / 1e6,
                fwd.measured,
                rtr.measured,
                ipsec.measured,
                empirical,
                nominal,
            ];
            std::iter::once(bus.to_string())
                .chain(cells.map(|x| format!("{x:.0}")))
                .collect::<Vec<_>>()
        }));
    }
    let note = if saturating.is_empty() {
        "All four bus families stay clear of their empirical bounds across\n\
         the sweep: \"these traditional problem areas for packet processing\n\
         are no longer the primary performance limiters\" (§5.3, item 3)."
            .to_string()
    } else {
        format!("Saturates in range: {}.", saturating.join(", "))
    };
    let title = "Fig. 10 — bus loads (bytes/packet) vs input rate (64 B packets)";
    let header = "component | rate (Mpps) | fwd B/pkt | rtr B/pkt | ipsec B/pkt \
                  | empirical bound | nominal bound";
    vec![Table::new(title, header).rows(rows).note(note)]
}

/// **§4.2 NUMA data placement**: local vs remote socket-buffer
/// descriptors on a half-disabled server.
pub fn numa() -> Vec<Table> {
    let e = numa::run();
    let ratio = e.rate_ratio();
    let remote = format!("{:.0}%", 100.0 * e.remote_access_fraction);
    let rows = [
        (
            "socket-0 cores (ideal placement)",
            e.local,
            "0%".to_string(),
        ),
        ("socket-1 cores (remote descriptors)", e.remote, remote),
    ]
    .map(|(setup, r, remote)| {
        [
            setup.to_string(),
            format!("{:.2}", r.gbps()),
            r.bottleneck.to_string(),
            remote,
        ]
    });
    let title = "§4.2 — is NUMA-aware data placement essential? (64 B forwarding)";
    let header = "setup | Gbps | bottleneck | remote accesses";
    vec![Table::new(title, header).rows(rows).note(format!(
        "Rate ratio: {ratio:.3} — placement makes no difference (paper measured\n\
         6.3 Gbps in both setups with ≈23% remote accesses in the second).\n\
         The extra descriptor traffic lands on the inter-socket link, which\n\
         runs far below capacity; the CPU stays the bottleneck either way.\n\
         Note: our 4-core absolute rate derives from the 8-core calibration\n\
         (half the cycle budget), so it reproduces the *insensitivity*, not\n\
         the paper's absolute 6.3 Gbps (their 4-core runs scaled\n\
         super-linearly versus 8 cores — an artifact their §5.3 analysis\n\
         does not explain either).",
    ))]
}

/// **§6.2 latency**: the analytic per-server decomposition next to the
/// discrete-event simulator's distribution across loads and batching.
pub fn latency() -> Vec<Table> {
    // The paper's analytic decomposition with our calibrated cycles.
    let proc_us = CostModel::tuned(Application::IpRouting).cpu_cycles(64) / 2.8e9 * 1e6;
    let terms = [
        ("4 DMA transfers", 4.0 * 2.56),
        ("16-packet batch wait", 16.0 * proc_us),
        ("processing", proc_us),
    ];
    let total = ("total", terms.iter().map(|(_, us)| us).sum());
    let analytic = terms
        .into_iter()
        .zip(paper::LATENCY_TERMS_US)
        .chain([(total, paper::RB4_PER_SERVER_LATENCY_US)])
        .map(|((term, us), paper_us)| [term.to_string(), compare(us, paper_us)]);
    let mut simulated = Vec::new();
    for (name, batching) in [
        ("kp=32 kn=16", BatchingConfig::tuned()),
        ("kp=32 kn=1", BatchingConfig::poll_only()),
    ] {
        let cost = CostModel {
            app: Application::IpRouting,
            batching,
        };
        // Saturation differs per batching config; sweep relative loads.
        let cap = 22.4e9 / cost.cpu_cycles(64);
        for load in [0.5, 0.8, 0.95] {
            let mut cfg = SimConfig::prototype(cost, cap * load);
            cfg.duration_ns = 3_000_000;
            let r = Simulator::new(cfg).run();
            simulated.push([
                name.to_string(),
                format!("{:.2}", cap / 1e6),
                format!("{:.0}%", load * 100.0),
                format!("{:.1}", r.mean_latency_ns / 1e3),
                format!("{:.1}", r.p99_latency_ns as f64 / 1e3),
                format!("{:.2}", 100.0 * r.loss()),
            ]);
        }
    }
    let title =
        "§6.2 — per-server latency of 64 B IP routing: the paper's decomposition, our cycles";
    let header = "batching | CPU cap (Mpps) | load | mean (µs) | p99 (µs) | loss %";
    vec![
        Table::new(title, "term | model µs (vs paper)").rows(analytic),
        Table::new("§6.2 — simulated latency vs load and batching", header)
            .rows(simulated)
            .note(format!(
                "Batching is the latency tax the paper acknowledges: the kn=16\n\
                 transmit batch adds the ~{:.0} µs wait that dominates the per-server\n\
                 figure, while kn=1 transmits immediately at a large throughput cost\n\
                 (Table 1). Cluster traversal multiplies the per-server figure by the\n\
                 2–3 VLB hops: see `paper rb4`.",
                16.0 * proc_us
            )),
    ]
}

/// **§3.3 ablation**: butterfly vs torus interconnects ("we experimented
/// with both and chose the k-ary n-fly"). The torus folds relaying into
/// the port servers, so per-node processing and per-link rate grow with
/// the radius; the butterfly holds both constant and pays in relay ranks.
pub fn topologies() -> Vec<Table> {
    // Square (n=2) tori against radix-16 butterflies.
    let rows = [2usize, 4, 8, 16, 32].map(|k| {
        let nodes = k * k;
        let torus_link = KAryNCube::new(k, 2).required_link_bps(10e9) / 1e9;
        let fly = KAryNFly::new(nodes, 16);
        [
            nodes.to_string(),
            format!("({k}, 2)"),
            format!("{:.1}", torus_processing_factor(k, 2)),
            format!("{torus_link:.2}"),
            "3.0".to_string(), // VLB ceiling; relays carry ≤ 2R each.
            format!("{:.2}", fly.required_link_bps(10e9) / 1e9),
            format!("{}", fly.total_nodes() - nodes),
        ]
    });
    let title = "§3.3 ablation — butterfly vs torus for VLB clusters (R = 10 Gbps)";
    let header = "nodes | torus (k, n) | torus proc ×R | torus link Gbps | n-fly proc ×R \
                  | n-fly link Gbps | n-fly extra servers";
    vec![Table::new(title, header).rows(rows).note(
        "The torus's per-node processing and per-link rates grow with the\n\
         radius (k/2 average hops per dimension); past ~16 nodes they exceed\n\
         the 3R processing ceiling and the ≤R internal-link constraint of\n\
         §3.1. The butterfly holds both constant and pays with relay servers\n\
         — the trade the paper resolves in the butterfly's favour.",
    )]
}

/// **§8 discussion**: form factor, power and cost of server-based
/// routers against the hardware reference points the paper quotes.
pub fn discussion() -> Vec<Table> {
    // §8's per-server figures for the RB4-era machines.
    const SERVER_POWER_W: f64 = 650.0; // RB4: 2.6 kW / 4 servers.
    const SERVER_COST_USD: f64 = 3_625.0; // RB4: $14,500 / 4 servers.
    const SERVER_RACK_UNITS: f64 = 1.0;
    let rb4 = [
        (
            "power, 40 Gbps router",
            format!("{:.1} kW (4 servers)", 4.0 * SERVER_POWER_W / 1e3),
            "RB4: 2.6 kW; Cisco 7603: 1.6 kW",
        ),
        (
            "cost, 40 Gbps router",
            format!("${:.1}k (4 servers)", 4.0 * SERVER_COST_USD / 1e3),
            "RB4 parts: $14.5k; Cisco 7603 quote: $70k",
        ),
        (
            "form factor, 40 Gbps",
            format!("{:.0}U", 4.0 * SERVER_RACK_UNITS),
            "4U (paper: \"not unreasonable\")",
        ),
        (
            "form factor, 300–400 Gbps",
            "30–40 × 1U servers = 30–40U".to_string(),
            "paper estimate: 30U; Cisco 7600: 360 Gbps in 21U",
        ),
    ]
    .map(|(metric, model, paper)| [metric.to_string(), model, paper.to_string()]);
    // Scale-out over the Fig. 3 layouts (current-server configuration).
    let projection = [4usize, 16, 64, 256, 1024].into_iter().filter_map(|n| {
        let servers = layout(&ServerConfig::current(), n, 10e9).servers()? as f64;
        Some([
            n.to_string(),
            format!("{servers:.0}"),
            format!("{:.1}", servers * SERVER_POWER_W / 1e3),
            format!("{:.0}", servers * SERVER_COST_USD / 1e3),
            format!("{:.0}", servers * SERVER_RACK_UNITS),
        ])
    });
    let title = "§8 — scale-out projection (current servers, 10 Gbps ports)";
    let header = "ext. ports | servers | power (kW) | cost ($k) | rack units";
    vec![
        Table::new(
            "§8 — form factor, power and cost",
            "metric | RB4 (model) | paper reference point",
        )
        .rows(rb4),
        Table::new(title, header).rows(projection).note(
            "The paper's verdict stands: the server cluster pays ~60% more power\n\
             than the equivalent hardware router and wins heavily on parts cost,\n\
             with programmability as the qualitative differentiator (§8).",
        ),
    ]
}

/// **§5.3 projections**: expected rates on the 4-socket,
/// 8-core-per-socket follow-up server, and the current server's
/// Abilene rate had it not been limited to two NIC slots.
pub fn scaling() -> Vec<Table> {
    let next_gen = ServerModel::new(ServerSpec::nehalem_next_gen());
    let mut spec = ServerSpec::nehalem();
    spec.nic_input_bps = f64::INFINITY;
    spec.pcie = Capacity::exact(f64::INFINITY);
    spec.io_link.empirical_bps = 0.8 * spec.io_link.nominal_bps;
    let abilene = SizeDist::abilene().mean();
    let unconstrained = (
        "Abilene, current server, unconstrained NICs",
        ServerModel::new(spec).rate(Application::MinimalForwarding, abilene),
        paper::SCALING_UNCONSTRAINED_ABILENE_GBPS,
    );
    let rows = APPS
        .into_iter()
        .zip(paper::SCALING)
        .map(|((app, _), (name, gbps))| (name, next_gen.rate(app, 64.0), gbps))
        .chain([unconstrained])
        .map(|(name, r, gbps)| {
            [
                name.to_string(),
                compare(r.gbps(), gbps),
                r.bottleneck.to_string(),
            ]
        });
    let title = "§5.3 — projections for the next-generation server (64 B packets)";
    let header = "application | projected Gbps (vs paper) | bottleneck";
    vec![Table::new(title, header).rows(rows)]
}

/// **§6.2 RB4**: throughput, reordering and latency of the four-node
/// prototype, plus the Direct-vs-classic VLB ablation.
pub fn rb4() -> Vec<Table> {
    let r = Rb4Results::compute(100_000);
    let with = r.reorder_with_avoidance.reorder_fraction;
    let without = r.reorder_without_avoidance.reorder_fraction;
    let (lo, hi) = r.cluster_latency_us;
    let (p_lo, p_hi) = paper::RB4_CLUSTER_LATENCY_US;
    let (e_lo, e_hi) = paper::RB4_EXPECTED_64B_RANGE;
    let reorder =
        |model: f64, paper: f64| format!("{:.2}% (paper {:.2}%)", 100.0 * model, 100.0 * paper);
    let (p_with, p_without) = (paper::RB4_REORDER_WITH, paper::RB4_REORDER_WITHOUT);
    let rows = [
        (
            "throughput, 64 B workload",
            compare(r.gbps_64b, paper::RB4_64B_GBPS),
        ),
        (
            "throughput, Abilene workload",
            compare(r.gbps_abilene, paper::RB4_ABILENE_GBPS),
        ),
        (
            "64 B without avoidance overhead",
            format!(
                "{:.1} Gbps (paper expected {e_lo:.1}–{e_hi:.1})",
                r.gbps_64b_no_avoidance
            ),
        ),
        (
            "avoidance cost fitted to the 64 B row",
            format!("{REORDER_AVOIDANCE_CYCLES:.0} cycles/packet"),
        ),
        ("reordering, with flowlets", reorder(with, p_with)),
        ("reordering, plain Direct VLB", reorder(without, p_without)),
        (
            "reordering, plain ÷ flowlets",
            format!("{:.1}× (paper {:.1}×)", without / with, p_without / p_with),
        ),
        (
            "per-server latency",
            format!(
                "{:.1} µs (paper ≈{:.0} µs)",
                r.per_server_latency_us,
                paper::RB4_PER_SERVER_LATENCY_US
            ),
        ),
        (
            "cluster latency range",
            format!("{lo:.1}–{hi:.1} µs (paper {p_lo:.1}–{p_hi:.1})"),
        ),
    ]
    .map(|(metric, value)| [metric.to_string(), value]);
    let model = ClusterModel::rb4();
    let ablation = [
        ("Direct VLB (uniform matrix)", 1.0, "2R"),
        ("classic VLB", 0.0, "3R"),
    ]
    .map(|(name, direct, processing)| {
        let gbps = model.throughput(64.0, direct).total_bps / 1e9;
        [
            name.to_string(),
            format!("{gbps:.1}"),
            processing.to_string(),
        ]
    });
    vec![
        Table::new(
            "§6.2 — the RB4 four-node parallel router",
            "metric | model (vs paper)",
        )
        .rows(rows),
        Table::new(
            "Ablation — Direct VLB vs classic VLB (64 B workload)",
            "routing | total Gbps | per-node processing",
        )
        .rows(ablation),
    ]
}
