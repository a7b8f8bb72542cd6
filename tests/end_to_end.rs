//! End-to-end reproduction checks: the headline claims of every table
//! and figure, asserted through the public API in one place. These are
//! the tests that would catch a calibration regression anywhere in the
//! stack.

use routebricks::cluster::model::ClusterModel;
use routebricks::cluster::sim::{Policy, ReorderExperiment};
use routebricks::hw::analytic::ServerModel;
use routebricks::hw::cost::{Application, BatchingConfig};
use routebricks::hw::scenarios::{evaluate, Scenario};
use routebricks::hw::spec::ServerSpec;
use routebricks::vlb::sizing::{fig3_dataset, Layout, ServerConfig};
use routebricks::workload::{SizeDist, TraceConfig};

/// Relative-error helper.
fn close(measured: f64, paper: f64, tolerance: f64) -> bool {
    (measured / paper - 1.0).abs() <= tolerance
}

#[test]
fn table1_batching_ladder() {
    let model = ServerModel::prototype();
    for (kp, kn, paper_gbps) in [(1u32, 1u32, 1.46), (32, 1, 4.97), (32, 16, 9.77)] {
        let r = model.rate_with_batching(
            Application::MinimalForwarding,
            BatchingConfig { kp, kn },
            64.0,
        );
        assert!(
            close(r.gbps(), paper_gbps, 0.02),
            "kp={kp} kn={kn}: {:.2} vs {paper_gbps}",
            r.gbps()
        );
    }
}

#[test]
fn fig6_scenario_ordering_and_values() {
    let parallel = evaluate(Scenario::Parallel).gbps_per_path;
    let shared = evaluate(Scenario::PipelineSharedCache).gbps_per_path;
    let cross = evaluate(Scenario::PipelineCrossCache).gbps_per_path;
    assert!(parallel > shared && shared > cross);
    assert!(close(parallel, 1.7, 0.05));
    assert!(close(cross, 0.6, 0.1));
    let mq = evaluate(Scenario::SplitWithMultiQueue).gbps_total;
    let no_mq = evaluate(Scenario::SplitWithoutMultiQueue).gbps_total;
    assert!(mq / no_mq >= 2.9, "MQ split gain {:.2}", mq / no_mq);
}

#[test]
fn fig7_cumulative_gains() {
    let full = ServerModel::prototype().rate_with_batching(
        Application::MinimalForwarding,
        BatchingConfig::tuned(),
        64.0,
    );
    let base = ServerModel::new(ServerSpec::nehalem_single_queue()).rate_with_batching(
        Application::MinimalForwarding,
        BatchingConfig::none(),
        64.0,
    );
    let xeon = ServerModel::new(ServerSpec::xeon_shared_bus()).rate_with_batching(
        Application::MinimalForwarding,
        BatchingConfig::none(),
        64.0,
    );
    assert!(close(full.mpps(), 18.96, 0.05));
    assert!(close(full.pps / base.pps, 6.7, 0.1));
    assert!(close(full.pps / xeon.pps, 11.0, 0.1));
}

#[test]
fn fig8_application_rates() {
    let model = ServerModel::prototype();
    let abilene = SizeDist::abilene().mean();
    let cases = [
        (Application::MinimalForwarding, 9.7, 24.6),
        (Application::IpRouting, 6.35, 24.6),
        (Application::Ipsec, 1.4, 4.45),
    ];
    for (app, p64, pab) in cases {
        assert!(close(model.rate(app, 64.0).gbps(), p64, 0.03), "{app} @64B");
        assert!(
            close(model.rate(app, abilene).gbps(), pab, 0.07),
            "{app} @Abilene"
        );
    }
}

#[test]
fn fig9_10_cpu_is_the_only_bottleneck_at_64b() {
    use routebricks::hw::spec::Component;
    let model = ServerModel::prototype();
    for app in [
        Application::MinimalForwarding,
        Application::IpRouting,
        Application::Ipsec,
    ] {
        let r = model.rate(app, 64.0);
        assert_eq!(r.bottleneck, Component::Cpu, "{app}");
    }
}

#[test]
fn scaling_projections() {
    let ng = ServerModel::new(ServerSpec::nehalem_next_gen());
    for (app, paper_gbps) in [
        (Application::MinimalForwarding, 38.8),
        (Application::IpRouting, 19.9),
        (Application::Ipsec, 5.8),
    ] {
        assert!(
            close(ng.rate(app, 64.0).gbps(), paper_gbps, 0.05),
            "{app}: {:.1} vs {paper_gbps}",
            ng.rate(app, 64.0).gbps()
        );
    }
}

#[test]
fn fig3_mesh_limits() {
    // Mesh feasibility ends at 32 / 128 ports for the first two server
    // configurations (§3.3).
    assert!(matches!(
        routebricks::vlb::sizing::layout(&ServerConfig::current(), 32, 10e9),
        Layout::Mesh { .. }
    ));
    assert!(!matches!(
        routebricks::vlb::sizing::layout(&ServerConfig::current(), 64, 10e9),
        Layout::Mesh { .. }
    ));
    assert!(matches!(
        routebricks::vlb::sizing::layout(&ServerConfig::more_nics(), 128, 10e9),
        Layout::Mesh { .. }
    ));
    // And the dataset is monotone with the switched cluster above the
    // cheapest configuration everywhere.
    for row in fig3_dataset(&[16, 64, 256, 1024], 10e9) {
        let best = row.servers.into_iter().flatten().min().unwrap();
        assert!(row.switched_equivalents > best as f64, "N={}", row.n_ports);
    }
}

#[test]
fn rb4_throughput_and_latency() {
    let model = ClusterModel::rb4();
    let worst = model.throughput(64.0, 1.0);
    assert!(close(worst.total_bps / 1e9, 12.0, 0.05));
    let abilene = model.throughput(SizeDist::abilene().mean(), 0.75);
    assert!(
        close(abilene.total_bps / 1e9, 35.0, 0.12),
        "Abilene {:.1}",
        abilene.total_bps / 1e9
    );
    let per = model.per_server_latency_ns(64) / 1e3;
    assert!(close(per, 24.0, 0.15), "per-server {per:.1} µs");
}

#[test]
fn rb4_reordering_gap() {
    let exp = ReorderExperiment {
        trace: TraceConfig {
            packets: 50_000,
            ..TraceConfig::default()
        },
        ..ReorderExperiment::default()
    };
    let with = exp.run(Policy::Flowlet).reorder_fraction;
    let without = exp.run(Policy::PerPacket).reorder_fraction;
    // Paper: 0.15% vs 5.5% — we assert the order of magnitude and the
    // qualitative gap rather than the exact percentages.
    assert!(with < 0.005, "flowlet reordering {with:.4}");
    assert!(without > 0.012, "per-packet reordering {without:.4}");
    assert!(without / with.max(1e-6) > 8.0);
}

#[test]
fn graph_replicas_scale_like_fig6() {
    // Fig. 6 on real threads and REAL element graphs: per-core graph
    // replicas (parallel) vs a stage-per-core chain (pipeline), both
    // moving PacketBatches over SPSC rings. Counts are asserted always;
    // the pps ordering only when each worker can have its own core.
    use routebricks::builder::RouterBuilder;
    use routebricks::packet::builder::PacketSpec;
    use routebricks::packet::Packet;
    use routebricks::Regime;

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = cores.clamp(1, 4);
    let n = 40_000usize;
    let packets: Vec<Packet> = (0..n)
        .map(|i| {
            PacketSpec::udp()
                .src(&format!(
                    "10.{}.{}.{}:{}",
                    (i >> 16) & 0xff,
                    (i >> 8) & 0xff,
                    i & 0xff,
                    1024 + (i % 40_000)
                ))
                .unwrap()
                .frame_len(64)
                .build()
        })
        .collect();

    // Parallel: one replica of the whole minimal-forwarding graph per core.
    let mt = RouterBuilder::minimal_forwarder()
        .workers(workers)
        .build_mt()
        .unwrap();
    let parallel = mt.run(packets.clone()).unwrap();
    assert_eq!(parallel.report.processed, n as u64);
    assert_eq!(parallel.report.per_worker.len(), workers);
    assert!(
        parallel.report.achieved_batch() > 1.0,
        "kp batching must survive the thread hop"
    );

    // Pipeline: the same total work split into `workers` chained stages.
    let pipeline = RouterBuilder::minimal_forwarder()
        .workers(workers)
        .regime(Regime::Pipeline)
        .build_mt()
        .unwrap()
        .run(packets)
        .unwrap();
    assert_eq!(pipeline.report.processed, n as u64);
    assert_eq!(pipeline.report.per_worker.len(), workers);

    if cores < 4 {
        eprintln!(
            "WARNING: only {cores} core(s) available (< 4); skipping the \
             parallel-vs-pipeline pps assertion on real graphs."
        );
        return;
    }
    assert!(
        parallel.report.pps() >= pipeline.report.pps(),
        "with a core per worker, parallel replicas must at least match the \
         pipeline: parallel {:.2e} vs pipeline {:.2e}",
        parallel.report.pps(),
        pipeline.report.pps()
    );
}
