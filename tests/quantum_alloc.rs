//! Allocation guard for the scheduling quantum, `run_until_idle`, the
//! ingress call, the IPsec tunnel path and a through-element in a pull
//! path, and count gates on what a round of a wide router costs in quanta
//! and on what its idle ports cost: nothing.
//!
//! A 32-port IP router runs 64 tasks, and a caller asks an idle one for
//! work over and over; `inject` is paid once per frame. None of it may
//! touch the heap: this is the test that fails if a `ports()` call (two
//! `Vec`s an answer), a `format!`-ed element name or a sweep of the
//! elements' pool counters into a fresh `Vec` creeps back into a path. The IPsec gateway
//! encapsulates inside the arena slot a frame arrived in; its test fails
//! if sealing goes back through a `Vec` or a second packet buffer. The
//! builder's graphs pull straight from a queue, so the drain that pulls
//! through a `Counter` is wired by hand; its test fails if resolving the
//! pull chain builds a collector of its own for each hop again.
//!
//! Building an RCU router over a big RIB hands the table to the FIB, which
//! keeps it as its RIB: a `BTreeMap` clone is one small allocation per
//! node, tens of thousands for a 200K-route table, so the count of small
//! allocations in `build()` fails if a copy of the RIB comes back.
//!
//! An RCU FIB's snapshots share the pages of its working table, so the
//! FIB holds one table plus the pages its updates touched: the bytes it
//! keeps alive, counted from the allocator, fail the last test if a
//! second full table comes back.
//!
//! The counting allocator counts per thread, so the tests in this file
//! can run side by side.

use routebricks::builder::{BuiltRouter, RouterBuilder};
use routebricks::click::elements::{Counter, FromDevice, Queue, ToDevice};
use routebricks::click::{Graph, Router};
use routebricks::packet::builder::PacketSpec;
use routebricks::packet::Packet;
use routebricks::telemetry::TelemetryLevel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// The subset under 4 KiB, the size of a B-tree node.
    static SMALL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated on this thread less those freed on it.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

/// Counts one allocation of `size` bytes on this thread.
fn count(size: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    if size < 4096 {
        let _ = SMALL_ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

/// Adds `by` bytes to this thread's live count.
fn live(by: isize) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + by));
}

/// `size` bytes as a signed count.
fn bytes(size: usize) -> isize {
    isize::try_from(size).expect("an allocation fits isize")
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a thread-local `Cell` with a
// `const` initialiser and no destructor, so touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        live(bytes(layout.size()));
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-bytes(layout.size()));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        live(bytes(new_size) - bytes(layout.size()));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (and reallocations) this thread makes inside `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// 64-byte frames to destinations spread over the 32 `/8`s routed below.
fn frames(n: usize) -> Vec<Packet> {
    (0..n)
        .map(|i| {
            PacketSpec::udp()
                .dst(&format!("{}.0.{}.1:80", 10 + i % 32, i % 200))
                .unwrap()
                .frame_len(64)
                .build()
        })
        .collect()
}

/// The paper's application at benchmark width: 32 ports, one route each.
fn router32(pool_slots: usize) -> BuiltRouter {
    router32_from(RouterBuilder::ip_router().pool_slots(pool_slots))
}

fn router32_from(b: RouterBuilder) -> BuiltRouter {
    let mut b = b.ports(32);
    for p in 0..32u16 {
        b = b.route(&format!("{}.0.0.0/8", 10 + p), p);
    }
    b.build().unwrap()
}

/// Forwards `n` frames, so every buffer on the path has grown.
fn warm_up(r: &mut BuiltRouter, n: usize) {
    for pkt in frames(n) {
        r.inject(0, pkt);
    }
    r.run_until_idle(u64::MAX);
    let sent: u64 = (0..32).map(|p| r.transmitted(p)).sum();
    assert_eq!(sent, n as u64, "warm-up frames must all forward");
}

#[test]
fn idle_quanta_do_not_allocate() {
    let mut r = router32(0);
    warm_up(&mut r, 512);
    let quanta = r.click().stats().quanta;
    let mut busy = 0;
    let allocs = allocations_in(|| {
        for _ in 0..10_000 {
            busy += u32::from(r.click().run_quantum());
        }
    });
    assert_eq!(busy, 0, "the router was drained");
    assert_eq!(allocs, 0, "10,000 run_quantum calls on a drained router");
    assert_eq!(
        r.click().stats().quanta,
        quanta,
        "a drained router's devices hold no frames: no task ran"
    );
}

#[test]
fn run_until_idle_on_a_drained_router_does_not_allocate() {
    let mut r = router32(1024);
    warm_up(&mut r, 512);
    let quanta = r.click().stats().quanta;
    let allocs = allocations_in(|| {
        for _ in 0..1_000 {
            assert!(!r.run_until_idle(u64::MAX).fused);
        }
    });
    assert_eq!(
        allocs, 0,
        "1,000 calls: run_until_idle sums the pool counters into a Vec again"
    );
    assert_eq!(r.click().stats().quanta, quanta, "and no task ran");
}

/// 32 frames into port 0 of a drained `ports`-port forwarder, which sends
/// them all out of port 1: the quanta the burst took, and port 1's frames.
fn forward_burst(ports: usize) -> (u64, Vec<Vec<u8>>) {
    let mut r = RouterBuilder::minimal_forwarder()
        .ports(ports)
        .keep_tx_frames(true)
        .build()
        .unwrap();
    r.run_until_idle(u64::MAX);
    let before = r.click().stats().quanta;
    for pkt in frames(32) {
        assert!(r.inject(0, pkt));
    }
    let quanta = r.run_until_idle(u64::MAX).quanta - before;
    let sent = r.tx_frames(1).iter().map(|f| f.data().to_vec()).collect();
    (quanta, sent)
}

#[test]
fn idle_ports_take_no_quanta() {
    let (narrow, wide) = (forward_burst(2), forward_burst(32));
    assert_eq!(narrow.1.len(), 32, "every frame left port 1");
    assert_eq!(narrow.1, wide.1, "both forwarders send the same frames");
    // Port 0 polled once and port 1's queue pulled once, however many
    // idle ports sit beside them; polling those took 6 and 66 quanta.
    assert_eq!(
        (narrow.0, wide.0),
        (2, 2),
        "quanta of a burst (2, 32 ports)"
    );

    // An idle device is parked, never stranded: a frame injected on port
    // 17 of the drained router is found by stepping quanta by hand.
    let mut r = RouterBuilder::minimal_forwarder()
        .ports(32)
        .build()
        .unwrap();
    r.run_until_idle(u64::MAX);
    assert!(r.inject(17, frames(1).remove(0)));
    let steps = (1..=4).find(|_| {
        r.click().run_quantum();
        r.transmitted(18) == 1
    });
    assert_eq!(steps, Some(2), "a poll of port 17, then its deferred drain");
}

#[test]
fn inject_into_an_arena_does_not_allocate() {
    let mut r = router32(1024);
    warm_up(&mut r, 512);
    // Built (and their heap buffers allocated) before counting starts;
    // `inject` copies each into an arena slot and frees the original.
    let batch = frames(256);
    let allocs = allocations_in(|| {
        for pkt in batch {
            assert!(r.inject(0, pkt));
        }
    });
    assert_eq!(allocs, 0, "256 injects into a warmed-up arena");
    r.run_until_idle(u64::MAX);
    let sent: u64 = (0..32).map(|p| r.transmitted(p)).sum();
    assert_eq!(sent, 512 + 256);
}

#[test]
fn a_round_costs_its_busy_tasks_and_fills_its_tx_batches() {
    // The benchmark's closed-loop round: 512 frames into port 0 of the
    // 32-port router, kp 32. One source is busy and every port gets
    // traffic; 62 of the 64 tasks have nothing to do most of the time,
    // and each poll leaves a packet or two in each egress queue.
    let mut r = router32_from(
        RouterBuilder::ip_router()
            .batch_size(32)
            .telemetry(TelemetryLevel::Counts),
    );
    // Destinations scattered, not dealt out in turn: a poll's 32 frames
    // hit about 20 of the 32 ports (multiplicative hash of the index).
    let round = |r: &mut BuiltRouter| {
        for i in 0..512u32 {
            let port = i.wrapping_mul(0x9e37_79b9) >> 27;
            let dst = format!("{}.0.{}.1:80", 10 + port, i % 200);
            let pkt = PacketSpec::udp().dst(&dst).unwrap().frame_len(64).build();
            assert!(r.inject(0, pkt));
        }
        r.run_until_idle(u64::MAX);
    };
    round(&mut r);
    let before = (r.click().stats().quanta, tx_stage(&r));
    round(&mut r);
    let quanta = r.click().stats().quanta - before.0;
    let (calls, packets) = tx_stage(&r);
    let (calls, packets) = (calls - before.1 .0, packets - before.1 .1);
    assert_eq!(packets, 512);
    eprintln!("quanta {quanta} calls {calls}");
    // Round-robin over all 64 tasks cost 2.1 quanta a packet here, and
    // pulled 1.6 packets a time.
    assert!(
        quanta * 2 <= 512,
        "{quanta} quanta for 512 packets: idle tasks are being polled"
    );
    assert!(
        packets >= 8 * calls,
        "{packets} packets in {calls} TX pulls: drains run before a batch has gathered"
    );
}

/// `(dispatches, packets)` summed over the `ToDevice` stages.
fn tx_stage(r: &BuiltRouter) -> (u64, u64) {
    let snap = r.telemetry_snapshot();
    let tx = snap.stages.iter().filter(|s| s.class == "ToDevice");
    tx.fold((0, 0), |(c, p), s| (c + s.calls, p + s.packets))
}

/// 256 frames, half minimum-size and half MTU-size.
fn tunnel_frames() -> Vec<Packet> {
    (0..256)
        .map(|i| {
            PacketSpec::udp()
                .frame_len(if i % 2 == 0 { 64 } else { 1500 })
                .build()
        })
        .collect()
}

#[test]
fn ipsec_gateway_encapsulates_without_allocating() {
    let mut r = RouterBuilder::ipsec_gateway()
        .pool_slots(1024)
        .build()
        .unwrap();
    for pkt in tunnel_frames() {
        r.inject(0, pkt);
    }
    r.run_until_idle(u64::MAX);
    assert_eq!(r.transmitted(1), 256, "warm-up frames must all forward");

    let batch = tunnel_frames();
    let bytes: u64 = batch.iter().map(|p| p.len() as u64).sum();
    let allocs = allocations_in(|| {
        for pkt in batch {
            assert!(r.inject(0, pkt));
        }
        // Quanta by hand, as a caller stepping the router runs them
        // (`run_until_idle` has its own test above).
        let mut idle = 0;
        while idle < 64 {
            idle = if r.click().run_quantum() { 0 } else { idle + 1 };
        }
    });
    assert_eq!(allocs, 0, "256 frames sealed in a warmed-up gateway");
    assert_eq!(r.transmitted(1), 512);
    // 44 bytes in front and at least the trailer and ICV behind, per frame.
    assert!(r.transmitted_bytes(1) >= 2 * (bytes + 256 * (44 + 2 + 12)));
    let stats = r.click().stats();
    assert_eq!(stats.pool_fallbacks, 0, "every tunnel frame stayed pooled");
    assert_eq!(stats.pool_allocs, 512);
}

#[test]
fn a_counter_in_a_pull_path_does_not_allocate() {
    let mut g = Graph::new();
    let rx = g.add("rx", Box::new(FromDevice::new(0, Some(32)))).unwrap();
    let q = g.add("q", Box::new(Queue::new(1024))).unwrap();
    let cnt = g.add("cnt", Box::new(Counter::new())).unwrap();
    let tx = g
        .add("tx", Box::new(ToDevice::new(Some(32), false)))
        .unwrap();
    g.connect(rx, 0, q, 0).unwrap();
    g.connect(q, 0, cnt, 0).unwrap();
    g.connect(cnt, 0, tx, 0).unwrap();
    let mut router = Router::new(g).unwrap();
    let inject = |router: &mut Router, n: usize| {
        let rx = router.element_as_mut::<FromDevice>("rx").unwrap();
        for pkt in frames(n) {
            assert!(rx.inject(pkt));
        }
    };
    inject(&mut router, 512);
    router.run_until_idle(u64::MAX);
    assert_eq!(router.counter("cnt").unwrap().packets, 512);

    inject(&mut router, 256);
    let allocs = allocations_in(|| {
        let mut idle = 0;
        while idle < 8 {
            idle = if router.run_quantum() { 0 } else { idle + 1 };
        }
    });
    assert_eq!(allocs, 0, "256 frames pulled through a Counter");
    assert_eq!(router.counter("cnt").unwrap().packets, 768);
    let sent = router.element_as::<ToDevice>("tx").unwrap().sent_packets();
    assert_eq!(sent, 768);
}

#[test]
fn an_rcu_router_takes_its_rib_without_copying_it() {
    let routes = 200_000;
    let builder = RouterBuilder::ip_router()
        .routes_from_table(routebricks::workload::rib_full_table(routes, 7));
    let before = SMALL_ALLOCS.with(Cell::get);
    let router = builder.build().expect("the RIB builds");
    let small = SMALL_ALLOCS.with(Cell::get) - before;
    assert!(
        small < routes as u64 / 50,
        "build() made {small} allocations under 4 KiB for a {routes}-route RIB"
    );
    let control = router
        .route_control()
        .expect("every IP router has a control");
    assert!(
        control.route_count() >= routes,
        "the FIB holds the whole RIB"
    );
}

/// Bytes alive on this thread.
fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

/// Bytes `f`'s result holds on this thread.
fn bytes_of<T>(f: impl FnOnce() -> T) -> isize {
    let before = live_bytes();
    let value = f();
    let held = live_bytes() - before;
    drop(value);
    held
}

#[test]
fn an_rcu_fib_holds_one_table() {
    use routebricks::lookup::gen::addresses_within;
    use routebricks::lookup::{LpmLookup, RcuFib, RouteUpdate};
    use routebricks::workload::{churn_stream, rib_full_table, ChurnConfig};
    use std::sync::atomic::{AtomicBool, Ordering};

    let table = rib_full_table(200_000, 7);
    let churn = churn_stream(
        &table,
        &ChurnConfig {
            updates: 20_000,
            ..ChurnConfig::default()
        },
    );
    let addrs = addresses_within(&table, 32, 5);
    // The FIB's RIB is `table` itself, allocated before the count starts;
    // what the churn adds to it is measured on a twin that takes the same
    // updates, so that only the FIB's tables are left.
    let mut twin = table.clone();
    for update in &churn {
        match *update {
            RouteUpdate::Announce(prefix, hop) => {
                twin.insert(prefix, hop);
            }
            RouteUpdate::Withdraw(prefix) => {
                twin.remove(&prefix);
            }
        }
    }
    let rib_growth = bytes_of(|| twin.clone()) - bytes_of(|| table.clone());

    let before = live_bytes();
    let fib = RcuFib::from_table(table).expect("the RIB builds");
    let one_table = |fib: &RcuFib| fib.reader().pin().memory_bytes() as f64;
    let built = (live_bytes() - before) as f64;
    assert!(
        built <= 1.15 * one_table(&fib),
        "the built FIB holds {built} B against one table's {} B",
        one_table(&fib)
    );

    let (reader, ctl) = (fib.reader(), fib.control());
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let stop = &stop;
        scope.spawn(move || {
            let mut hops = [None; 32];
            while !stop.load(Ordering::Relaxed) {
                reader.pin().lookup_batch(&addrs, &mut hops);
            }
        });
        for slice in churn.chunks(1_000) {
            ctl.apply_and_publish(slice).expect("churn applies");
        }
        stop.store(true, Ordering::Relaxed);
    });
    let churned = (live_bytes() - before - rib_growth) as f64;
    assert!(
        churned <= 1.3 * one_table(&fib),
        "after 20 publishes the FIB holds {churned} B against one table's {} B",
        one_table(&fib)
    );
}
