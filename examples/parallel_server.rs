//! Parallelism *within* a server, for real: one IP-router graph (64K
//! routes) run under each of the paper's core layouts on actual OS
//! threads — the Click configuration held fixed, only the layout
//! selected, as in §4.2.
//!
//! * pull — flows split by RSS hash, each worker owns its shard
//!   end-to-end ("one core per packet", "one core per queue"), fed over
//!   a credit-gated ring;
//! * pipeline — every packet crosses all worker threads, each a full
//!   stage of the graph, over the same gated rings.
//!
//! The absolute rates are your machine's, not the 2009 Nehalem's; the
//! *ordering* (parallel ≥ pipeline) is the paper's §4.2 claim. Fig. 6's
//! third column — all cores contending on one locked queue — has no
//! real-thread runner here; `cargo run -p rb-bench --bin paper fig6` prints it
//! from the hardware model.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example parallel_server [workers]
//! ```

use routebricks::builder::RouterBuilder;
use routebricks::lookup::gen::{generate_table, TableGenConfig};
use routebricks::packet::Packet;
use routebricks::workload::{SynthTrace, TraceConfig};
use routebricks::Regime;

const PACKETS: usize = 200_000;

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| cores.max(2));
    println!("host has {cores} core(s); running {workers} worker threads");

    println!("building a 64K-route FIB and a {PACKETS}-packet trace…");
    let table = generate_table(&TableGenConfig {
        routes: 64 * 1024,
        next_hops: 16,
        ..TableGenConfig::default()
    });
    // Many flows with a moderate tail: RSS load-balancing (and the
    // paper's one-core-per-queue rule) assumes no single flow exceeds a
    // core; a handful of mega-elephants would serialise on one shard.
    let trace = SynthTrace::generate(&TraceConfig {
        packets: PACKETS,
        flows: routebricks::workload::FlowGenConfig {
            flows: 20_000,
            pareto_shape: 1.6,
            ..Default::default()
        },
        ..TraceConfig::default()
    });
    let packets: Vec<Packet> = trace.packets.iter().map(|p| p.materialize()).collect();

    // CheckIPHeader -> DecIPTTL -> LookupIPRoute per port, the FIB
    // compiled once and shared read-only across cores exactly as Click
    // threads share a routing table.
    let router = RouterBuilder::ip_router()
        .ports(4)
        .routes_from_table(table)
        .workers(workers);

    println!("\nrouting {PACKETS} packets with {workers} workers:\n");
    let mut rates = Vec::new();
    for regime in [Regime::PullCredit, Regime::Pipeline] {
        let mt = router.clone().regime(regime).build_mt().expect("builds");
        let report = mt.run(packets.clone()).expect("graph replicates").report;
        println!(
            "  {:<10} {:>7.2} Mpps  ({} packets in {:?}, shard imbalance {:.2})",
            regime.as_str(),
            report.pps() / 1e6,
            report.processed,
            report.elapsed,
            report.imbalance()
        );
        rates.push(report.pps());
    }

    println!("\npipeline relative to pull: {:.2}x", rates[1] / rates[0]);
    println!(
        "\nThe paper's §4.2 rules in action: the parallel layout touches each\n\
         packet on one core with no shared queues, so it does not pay the\n\
         pipeline's inter-core handoff per stage. The locked shared queue\n\
         the rules also rule out is modelled, not run: `paper fig6`."
    );
    if cores < workers + 1 {
        println!(
            "note: {workers} workers plus the dispatcher thread share {cores} core(s), so\n\
         the comparison measures per-packet overheads (the Fig. 6 story); with\n\
         a core per thread the parallel layout additionally scales with the\n\
         core count."
        );
    }
}
