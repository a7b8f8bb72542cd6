//! Quickstart: build a tiny router from Click-style configuration text,
//! run it, and read counters — the programming model the paper keeps.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use routebricks::bottleneck::BottleneckReport;
use routebricks::click::build_router;
use routebricks::click::elements::device::ToDevice;
use routebricks::click::elements::queue::Queue;
use routebricks::hw::{Application, CostModel, ServerModel};

fn main() {
    // A classic Click configuration: a source of 10,000 64-byte packets,
    // classified by EtherType, counted, queued and transmitted. Non-IPv4
    // frames would fall through to the Discard. The RuntimeConfig line
    // turns on per-element cycle accounting for the bottleneck report.
    let config = "
        RuntimeConfig(telemetry cycles);
        src  :: InfiniteSource(64, 10000);
        cls  :: Classifier(12/0800, -);
        cnt  :: Counter;
        q    :: Queue(1000);
        tx   :: ToDevice(32);
        drop :: Discard;

        src -> cls;
        cls [0] -> cnt -> q -> tx;
        cls [1] -> drop;
    ";

    let mut router = build_router(config).expect("configuration parses and validates");
    router.run_until_idle(u64::MAX);
    // `stats()` adds the pool and descriptor-ring totals to the driver's
    // own counts.
    let stats = router.stats();

    let counted = router.counter("cnt").expect("cnt is a Counter");
    let queue = router
        .element_as::<Queue>("q")
        .expect("q is a Queue")
        .stats();
    let sent = router
        .element_as::<ToDevice>("tx")
        .expect("tx is a ToDevice")
        .sent_packets();

    println!("RouteBricks quickstart");
    println!("----------------------");
    println!("scheduling quanta : {}", stats.quanta);
    println!("element pushes    : {}", stats.pushes);
    println!(
        "IPv4 packets seen : {} ({} bytes)",
        counted.packets, counted.bytes
    );
    println!(
        "queue             : {} enqueued, {} dropped, high water {}",
        queue.enqueued, queue.dropped, queue.high_water
    );
    println!("transmitted       : {sent}");
    assert_eq!(sent, 10_000, "every generated packet reaches the wire");

    // Join the measured per-element cycles with the paper's calibrated
    // hardware model: which stage saturates first, and where would the
    // prototype top out for this application?
    let report = BottleneckReport::from_snapshot(
        &router.telemetry_snapshot(),
        &ServerModel::prototype(),
        &CostModel::tuned(Application::MinimalForwarding),
        64,
    )
    .with_nic_dma_bytes(stats.nic_dma_bytes);
    println!("\nBottleneck report (measured on this host)");
    println!("{report}");
    if let Some(b) = report.bottleneck_stage() {
        println!("hot stage: {} ({})", b.name, b.class);
    }

    println!("\nOK — the full source-to-device pipeline moved 10,000 packets.");
}
