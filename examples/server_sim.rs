//! Drive the discrete-event server simulator: watch throughput, loss,
//! latency and CPU occupancy emerge as the offered load sweeps through
//! the saturation point — the dynamics behind Fig. 9's static picture.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example server_sim
//! ```

use routebricks::hw::analytic::ServerModel;
use routebricks::hw::cost::{Application, CostModel};
use routebricks::hw::sim::{SimConfig, Simulator};
use routebricks::report::TextTable;

fn main() {
    let app = Application::IpRouting;
    let cost = CostModel::tuned(app);
    let analytic = ServerModel::prototype().rate(app, 64.0);
    println!(
        "IP routing, 64 B packets — analytic loss-free rate: {:.2} Mpps ({:.2} Gbps)\n",
        analytic.mpps(),
        analytic.gbps()
    );

    let mut table = TextTable::new([
        "offered (Mpps)",
        "carried (Mpps)",
        "loss %",
        "CPU busy %",
        "mean latency (µs)",
        "p99 (µs)",
    ]);
    for factor in [0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.3] {
        let offered = analytic.pps * factor;
        let mut cfg = SimConfig::prototype(cost, offered);
        cfg.duration_ns = 4_000_000;
        let r = Simulator::new(cfg).run();
        table.row([
            format!("{:.2}", offered / 1e6),
            format!("{:.2}", r.achieved_pps / 1e6),
            format!("{:.2}", 100.0 * r.loss()),
            format!("{:.0}", 100.0 * r.cpu_busy_fraction),
            format!("{:.1}", r.mean_latency_ns / 1e3),
            format!("{:.1}", r.p99_latency_ns as f64 / 1e3),
        ]);
    }
    println!("{table}");
    println!(
        "Below saturation the server carries everything at ~10–30 µs (four\n\
         DMA transfers plus the kn-deep transmit batch wait the paper's §6.2\n\
         latency estimate is built from); past the analytic rate, rings fill,\n\
         drops appear and latency explodes — a loss-free rate measurement in\n\
         the making. Batching ablations: `cargo run -p rb-bench --bin paper table1`."
    );
}
