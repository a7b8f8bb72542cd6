//! High-level assembly of the paper's three applications.
//!
//! [`RouterBuilder`] wires the standard Click-style pipeline the paper
//! runs on every server:
//!
//! ```text
//! FromDevice(i) -> CheckIPHeader -> [app] -> Queue -> ToDevice(j)
//! ```
//!
//! where `[app]` is nothing (minimal forwarding), `DecIPTTL ->
//! LookupIPRoute` (IP routing) or `IpsecEncap` (IPsec), and the output
//! port is chosen by the route lookup (IP routing) or fixed (the paper's
//! "pre-determined input and output ports" for minimal forwarding and
//! IPsec).

use rb_click::elements::device::{FromDevice, ToDevice};
use rb_click::elements::ip::{CheckIPHeader, DecIPTTL};
use rb_click::elements::queue::Queue;
use rb_click::elements::route::LookupIPRoute;
use rb_click::elements::sink::Discard;
use rb_click::elements::source::{SpecSource, VecSource};
use rb_click::elements::{Counter, IpsecEncap};
use rb_click::graph::{ElementId, Graph};
use rb_click::runtime::mt::{run_graph, GraphRunOutcome};
use rb_click::{ConfigError, Element, GraphError, Knobs, Regime, Router};
use rb_crypto::SecurityAssociation;
use rb_lookup::{Prefix, RcuFib, RouteControl, RouteTable};
use rb_packet::builder::PacketSpec;
use rb_packet::Packet;
use rb_telemetry::{
    cycles, DropCause, MetricsServer, SloReport, SloSpec, TelemetryLevel, TimeSeries,
};

/// Which per-packet application the router runs (§5.1).
#[derive(Debug, Clone, PartialEq)]
enum App {
    Forward,
    Route { routes: Vec<(String, u16)> },
    Ipsec { sa_seed: u64 },
}

/// Fluent builder for single-server router instances: the graph's shape
/// (application, ports, queues, routes) plus one [`Knobs`] that every
/// runtime setter writes through to.
#[derive(Debug, Clone)]
pub struct RouterBuilder {
    app: App,
    ports: usize,
    queue_capacity: usize,
    source: Option<(usize, u64)>,
    keep_tx_frames: bool,
    /// A caller-supplied [`RouteTable`] replacing inline routes.
    prebuilt_table: Option<RouteTable>,
    knobs: Knobs,
}

impl RouterBuilder {
    /// The most ports a router may have: every `u16` names one.
    const MAX_PORTS: usize = 1 << 16;

    /// A minimal forwarder: traffic from port `i` goes to port
    /// `(i + 1) mod ports`.
    pub fn minimal_forwarder() -> RouterBuilder {
        RouterBuilder {
            app: App::Forward,
            ports: 2,
            queue_capacity: Queue::DEFAULT_CAPACITY,
            source: None,
            keep_tx_frames: false,
            prebuilt_table: None,
            knobs: Knobs::default(),
        }
    }

    /// An IP router; add routes with [`RouterBuilder::route`].
    pub fn ip_router() -> RouterBuilder {
        RouterBuilder {
            app: App::Route { routes: Vec::new() },
            ..Self::minimal_forwarder()
        }
    }

    /// An IPsec tunnel-encap gateway keyed from `SecurityAssociation`
    /// seed 0x5a; traffic forwards like the minimal forwarder.
    pub fn ipsec_gateway() -> RouterBuilder {
        RouterBuilder {
            app: App::Ipsec { sa_seed: 0x5a },
            ..Self::minimal_forwarder()
        }
    }

    /// Sets the number of router ports (default 2).
    ///
    /// # Panics
    ///
    /// Panics on 0 ports, or on more than 65,536 (a `FromDevice` is
    /// numbered with a `u16`).
    pub fn ports(mut self, n: usize) -> RouterBuilder {
        assert!(n >= 1, "need at least one port");
        assert!(
            n <= Self::MAX_PORTS,
            "at most {} ports, not {n}",
            Self::MAX_PORTS
        );
        self.ports = n;
        self
    }

    /// Adds a route (`"prefix/len"`, output port). IP-router mode only.
    ///
    /// # Panics
    ///
    /// Panics when called on a non-IP-router builder — a programming
    /// error, not a runtime condition.
    pub fn route(mut self, prefix: &str, port: u16) -> RouterBuilder {
        match &mut self.app {
            App::Route { routes } => routes.push((prefix.to_string(), port)),
            _ => panic!("route() only applies to RouterBuilder::ip_router()"),
        }
        self.ports = self.ports.max(usize::from(port) + 1);
        self
    }

    /// Does nothing, whatever `enable` says: every IP router routes
    /// through a live-updatable [`rb_lookup::RcuFib`] and hands out its
    /// [`RouteControl`] (see [`BuiltRouter::route_control`] /
    /// [`MtRouter::route_control`]). Kept only for callers written when
    /// this chose between that FIB and a static table.
    pub fn rcu_fib(self, _enable: bool) -> RouterBuilder {
        self
    }

    /// Replaces inline routes with a caller-built [`RouteTable`]
    /// (IP-router mode only). Benches generate a large RIB once
    /// ([`rb_workload::rib_full_table`]) and reuse it across router
    /// instances instead of regenerating per build. [`RouterBuilder::build`]
    /// and [`RouterBuilder::build_mt`] hand the table itself to an RCU FIB,
    /// which keeps it as its RIB: no copy of it is made.
    ///
    /// # Panics
    ///
    /// Panics when called on a non-IP-router builder.
    pub fn routes_from_table(mut self, table: RouteTable) -> RouterBuilder {
        assert!(
            matches!(self.app, App::Route { .. }),
            "routes_from_table() only applies to RouterBuilder::ip_router()"
        );
        self.prebuilt_table = Some(table);
        self
    }

    /// Replaces this builder's runtime knobs with a parsed [`Knobs`]
    /// (from `RuntimeConfig(...)` configuration text).
    pub fn apply_knobs(mut self, knobs: &Knobs) -> RouterBuilder {
        self.knobs = *knobs;
        self
    }

    /// Sets the IPsec SA seed (IPsec mode only; ignored otherwise).
    pub fn sa_seed(mut self, seed: u64) -> RouterBuilder {
        if let App::Ipsec { sa_seed } = &mut self.app {
            *sa_seed = seed;
        }
        self
    }

    /// Sets output queue capacity.
    pub fn queue_capacity(mut self, capacity: usize) -> RouterBuilder {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the device burst: packets every `FromDevice` poll and every
    /// `ToDevice` pull moves. By default devices move the graph batch
    /// size `kp` ([`RouterBuilder::batch_size`]) — the paper tunes one
    /// `kp`, not a knob per device.
    pub fn poll_burst(mut self, burst: usize) -> RouterBuilder {
        assert!(burst > 0, "poll burst must be positive");
        self.knobs.poll_burst = Some(burst);
        self
    }

    /// Backs every source/ingress element with a packet arena of `n`
    /// slots (default 0 = plain heap buffers). Each element — and each
    /// per-core replica under [`RouterBuilder::build_mt`] — gets its own
    /// pool, so allocation never contends across cores.
    pub fn pool_slots(mut self, n: usize) -> RouterBuilder {
        self.knobs.pool_slots = n;
        self
    }

    /// Sets the arena slot size in bytes (headroom + payload + tailroom;
    /// default [`rb_packet::pool::DEFAULT_SLOT_SIZE`]). Frames that
    /// outgrow a slot fall back to heap buffers, counted in the pool
    /// stats.
    pub fn slot_size(mut self, bytes: usize) -> RouterBuilder {
        self.knobs.slot_size = bytes;
        self
    }

    /// Sets the graph dispatch batch size `kp` (default 32; 1 = scalar
    /// per-packet dispatch). See [`Router::batch_size`].
    pub fn batch_size(mut self, kp: usize) -> RouterBuilder {
        assert!(kp > 0, "batch size must be positive");
        self.knobs.batch_size = kp;
        self
    }

    /// Sets the telemetry level (default [`TelemetryLevel::Off`]).
    /// `Counts` records per-element dispatch/packet counters and batch
    /// histograms; `Cycles` adds per-element cycle accounting — the
    /// input to [`crate::bottleneck::BottleneckReport`]. With telemetry
    /// off the hot path pays one predictable branch per dispatch.
    pub fn telemetry(mut self, level: TelemetryLevel) -> RouterBuilder {
        self.knobs.telemetry = level;
        self
    }

    /// Samples every `n`-th sourced packet into the path tracer
    /// (default 0 = off): each sampled packet gets a trace ID and a span
    /// per element dispatch and ring hop, exportable as Chrome
    /// trace-event JSON via [`BuiltRouter::take_trace_log`] /
    /// [`rb_click::runtime::mt::GraphRunOutcome::trace`]. With tracing
    /// off the hot path pays one predictable branch per dispatch.
    pub fn trace_sample(mut self, n: u64) -> RouterBuilder {
        self.knobs.trace_sample = n;
        self
    }

    /// Attaches a self-contained packet source (frame size, count)
    /// feeding input port 0, instead of external injection.
    pub fn source_packets(mut self, size: usize, count: u64) -> RouterBuilder {
        self.source = Some((size, count));
        self
    }

    /// Keeps transmitted frames for inspection (tests/examples).
    pub fn keep_tx_frames(mut self, keep: bool) -> RouterBuilder {
        self.keep_tx_frames = keep;
        self
    }

    /// Sets the worker-core count for [`RouterBuilder::build_mt`]
    /// (default 1): the graph is replicated once per worker and ingress
    /// is sharded by flow, §4.2's parallel layout.
    pub fn workers(mut self, n: usize) -> RouterBuilder {
        assert!(n >= 1, "need at least one worker");
        self.knobs.workers = n;
        self
    }

    /// Selects the scheduling regime [`MtRouter::run`] uses (default
    /// [`Regime::PullCredit`]): `PullCredit` streams each replica's flow
    /// shard over its ingress ring, `Pipeline` chains one stage per
    /// worker. Every ring is credit-gated in both, so sources stall
    /// instead of dropping when a worker's arena fills.
    pub fn regime(mut self, regime: Regime) -> RouterBuilder {
        self.knobs.regime = regime;
        self
    }

    /// Sets the SPSC ring depth, in batches, of every inter-core ring
    /// (default [`Knobs::default`]'s `ring_depth`). A ring's credit
    /// window is what it holds, `depth *` [`RouterBuilder::batch_size`]
    /// packets.
    pub fn ring_depth(mut self, depth: usize) -> RouterBuilder {
        assert!(depth >= 1, "ring depth must be positive");
        self.knobs.ring_depth = depth;
        self
    }

    /// Sets the NIC batching factor `kn` (default 1 = unbatched):
    /// descriptor writeback + doorbell cost is charged once per `kn`
    /// descriptors on every device ring. Table 1's second batching axis,
    /// orthogonal to [`RouterBuilder::batch_size`] (`kp`). See
    /// [`Router::configured`].
    pub fn nic_batch(mut self, kn: usize) -> RouterBuilder {
        assert!(kn > 0, "nic batch must be positive");
        self.knobs.nic_batch = kn;
        self
    }

    /// Enables the live interval clock: every `ms` milliseconds of run
    /// time each worker rolls its counter deltas and latency sketch into
    /// a wait-free interval ring, harvested without pausing the data
    /// plane (default 0 = off, one predictable branch per quantum). Read
    /// the merged series with [`BuiltRouter::timeseries`] /
    /// [`rb_click::runtime::mt::MtReport`]'s `timeseries`.
    pub fn interval_ms(mut self, ms: u64) -> RouterBuilder {
        self.knobs.interval_ms = ms;
        self
    }

    /// Attaches service-level objectives (latency-p99 / loss-rate /
    /// throughput-floor) graded against the interval series — see
    /// [`BuiltRouter::slo_report`] and [`MtRouter::slo_report`].
    /// Meaningful only with [`RouterBuilder::interval_ms`] > 0.
    pub fn slo(mut self, spec: SloSpec) -> RouterBuilder {
        self.knobs.slo = spec;
        self
    }

    /// Starts an embedded HTTP scrape endpoint on `addr` when the router
    /// is built (`GET /metrics`, `/healthz`, `/timeseries.json`,
    /// `/events.json`): the server thread reads the live interval rings
    /// without ever pausing the data plane. Port 0 picks a
    /// free port — read it back with [`BuiltRouter::metrics_addr`] /
    /// [`MtRouter::metrics_addr`]. Meaningful only with
    /// [`RouterBuilder::interval_ms`] > 0 (the rings ride the clock).
    pub fn serve_metrics(mut self, addr: std::net::SocketAddr) -> RouterBuilder {
        self.knobs.serve_metrics = Some(addr);
        self
    }

    /// Binds the configured scrape endpoint, if any.
    fn bind_monitor(&self) -> Result<Option<MetricsServer>, ConfigError> {
        let Some(addr) = self.knobs.serve_metrics else {
            return Ok(None);
        };
        MetricsServer::bind(&addr.to_string())
            .map(Some)
            .map_err(|e| ConfigError::BadArguments {
                class: "RouterBuilder".into(),
                message: format!("serve_metrics {addr}: {e}"),
            })
    }

    /// Builds the router.
    ///
    /// # Errors
    ///
    /// Propagates element-construction and graph-validation failures,
    /// and scrape-endpoint bind failures under
    /// [`RouterBuilder::serve_metrics`].
    pub fn build(mut self) -> Result<BuiltRouter, ConfigError> {
        let ports = self.ports;
        let monitor = self.bind_monitor()?;
        let prebuilt = self.prebuilt_table.take();
        let (g, route_control) = self.build_graph_inner(prebuilt)?;
        // `<stem>0`, `<stem>1`, … in index order: the per-port elements
        // `BuiltRouter`'s accessors would otherwise find by formatting a
        // name and hashing it on every call (`inject`: on every frame).
        let ids_of = |stem: &str| -> Vec<ElementId> {
            (0..)
                .map_while(|n| g.id_of(&format!("{stem}{n}")))
                .collect()
        };
        let (rx, tx, cnt) = (ids_of("rx"), ids_of("tx"), ids_of("cnt"));
        let inner = Router::configured(g, &self.knobs, 0)?;
        if let Some(server) = &monitor {
            server.attach(self.knobs.monitor_source(
                inner.interval_ring().into_iter().collect(),
                inner.interval_ticks(),
            ));
        }
        Ok(BuiltRouter {
            inner,
            ports,
            rx,
            tx,
            cnt,
            route_control,
            slo: self.knobs.slo,
            monitor,
        })
    }

    /// Builds the bare element graph (no driver attached) — the form the
    /// multi-threaded runtime replicates once per worker core. It reads
    /// no knob: it holds no arena, and its devices are unpinned, so
    /// [`Router::configured`] under this builder's [`Knobs`] gives them
    /// their bursts and arenas. Any RCU route-control handle is
    /// discarded; use [`RouterBuilder::build`] /
    /// [`RouterBuilder::build_mt`] to keep it. The builder stays usable,
    /// so a table from [`RouterBuilder::routes_from_table`] is cloned.
    ///
    /// # Errors
    ///
    /// Propagates element-construction and graph-wiring failures.
    pub fn build_graph(&self) -> Result<Graph, ConfigError> {
        Ok(self.build_graph_inner(self.prebuilt_table.clone())?.0)
    }

    /// The route table an IP router forwards with: `prebuilt`, the
    /// [`RouterBuilder::routes_from_table`] one, else the inline
    /// [`RouterBuilder::route`] list, which may be empty (every frame
    /// misses until a route is published).
    fn route_table(
        routes: &[(String, u16)],
        prebuilt: Option<RouteTable>,
    ) -> Result<RouteTable, ConfigError> {
        let bad = |message: String| ConfigError::BadArguments {
            class: "RouterBuilder".into(),
            message,
        };
        if let Some(table) = prebuilt {
            return Ok(table);
        }
        let mut table = RouteTable::new();
        for (prefix, hop) in routes {
            let parsed: Prefix = prefix
                .parse()
                .map_err(|e| bad(format!("route `{prefix}`: {e}")))?;
            table.insert(parsed, *hop);
        }
        Ok(table)
    }

    fn build_graph_inner(
        &self,
        prebuilt: Option<RouteTable>,
    ) -> Result<(Graph, Option<RouteControl>), ConfigError> {
        let bad = |message: String| ConfigError::BadArguments {
            class: "RouterBuilder".into(),
            message,
        };
        let mut g = Graph::new();
        let ports = self.ports;

        // Per-port egress: Queue -> ToDevice. Devices are unpinned: their
        // bursts, like every arena, are `Router::configured`'s.
        let mut queues = Vec::new();
        for p in 0..ports {
            let q = g.add(format!("q{p}"), Box::new(Queue::new(self.queue_capacity)))?;
            let tx = ToDevice::new(None, self.keep_tx_frames);
            let tx = g.add(format!("tx{p}"), Box::new(tx))?;
            g.connect(q, 0, tx, 0)?;
            queues.push(q);
        }

        // Shared ingress head: source or FromDevice per port 0..N.
        let heads: Vec<usize> = if let Some((size, count)) = self.source {
            // Specs, not pre-built packets: the source emits each frame by
            // writing headers + fill into its output buffer in place (one
            // copy total — straight into an arena slot when pooled).
            // Spread destinations so an IP router exercises several
            // routes: rotate the top octet over common prefixes.
            let specs: Vec<PacketSpec> = (0..count)
                .map(|i| {
                    let [.., hi, lo] = i.to_be_bytes();
                    PacketSpec::udp()
                        .endpoints(
                            std::net::SocketAddrV4::new(
                                std::net::Ipv4Addr::new(172, 16, hi, lo),
                                1024 + (i % 40_000) as u16,
                            ),
                            std::net::SocketAddrV4::new(
                                std::net::Ipv4Addr::new(10, (i % 8) as u8, 0, 1),
                                80,
                            ),
                        )
                        .frame_len(size)
                })
                .collect();
            vec![g.add("src0", Box::new(SpecSource::new(specs)))?]
        } else {
            (0..ports)
                .map(|p| {
                    let port = u16::try_from(p).expect("ports() caps the count at MAX_PORTS");
                    g.add(format!("rx{p}"), Box::new(FromDevice::new(port, None)))
                })
                .collect::<Result<_, _>>()?
        };

        // Route mode: one RCU FIB, built once and read by every ingress
        // path (and every per-core replica under `build_mt`) through a
        // reader of its own; the caller keeps its control handle for
        // live churn.
        let fib = match &self.app {
            App::Route { routes } => {
                let table = Self::route_table(routes, prebuilt)?;
                let max_hop = table.iter().map(|(_, h)| *h).max().unwrap_or(0);
                // Live churn can announce routes for any port later, so
                // every port is a next hop.
                let n_hops = ports.max(usize::from(max_hop) + 1);
                let rcu = RcuFib::from_table(table).map_err(|e| bad(e.to_string()))?;
                Some((rcu, n_hops))
            }
            _ => None,
        };

        for (idx, head) in heads.iter().copied().enumerate() {
            let chk = g.add(format!("chk{idx}"), Box::new(CheckIPHeader::ethernet()))?;
            let badsink = g.add(format!("bad{idx}"), Box::new(Discard::new()))?;
            let cnt = g.add(format!("cnt{idx}"), Box::new(Counter::new()))?;
            g.connect(head, 0, chk, 0)?;
            g.connect(chk, 1, badsink, 0)?;
            g.connect(chk, 0, cnt, 0)?;

            match &self.app {
                App::Forward => {
                    // Fixed output port: next port around the ring.
                    let out = (idx + 1) % ports;
                    g.connect(cnt, 0, queues[out], 0)?;
                }
                App::Route { .. } => {
                    let ttl = g.add(format!("ttl{idx}"), Box::new(DecIPTTL::ethernet()))?;
                    let expired = g.add(format!("exp{idx}"), Box::new(Discard::new()))?;
                    let (rcu, n_hops) = fib.as_ref().expect("a Route app builds a FIB");
                    let n_hops = *n_hops;
                    let rt_elem = LookupIPRoute::new_rcu(rcu.reader(), n_hops);
                    let rt = g.add(format!("rt{idx}"), Box::new(rt_elem))?;
                    let nomatch = g.add(
                        format!("miss{idx}"),
                        Box::new(Discard::with_cause(DropCause::NoRoute)),
                    )?;
                    g.connect(cnt, 0, ttl, 0)?;
                    g.connect(ttl, 1, expired, 0)?;
                    g.connect(ttl, 0, rt, 0)?;
                    // Route outputs -> per-port queues; drop port last.
                    for hop in 0..n_hops {
                        g.connect(rt, hop, queues[hop % ports], 0)?;
                    }
                    g.connect(rt, n_hops, nomatch, 0)?;
                }
                App::Ipsec { sa_seed } => {
                    let sa = SecurityAssociation::from_seed(*sa_seed);
                    let esp = g.add(
                        format!("esp{idx}"),
                        Box::new(IpsecEncap::new(
                            &sa,
                            std::net::Ipv4Addr::new(192, 0, 2, 1),
                            std::net::Ipv4Addr::new(192, 0, 2, 2),
                        )),
                    )?;
                    let badesp = g.add(format!("badesp{idx}"), Box::new(Discard::new()))?;
                    let out = (idx + 1) % ports;
                    g.connect(cnt, 0, esp, 0)?;
                    g.connect(esp, 1, badesp, 0)?;
                    g.connect(esp, 0, queues[out], 0)?;
                }
            }
        }

        // Ports that never receive traffic in this configuration (e.g. a
        // self-contained source feeding a forwarding ring) still have a
        // queue; feed them an empty source so the graph validates.
        for (p, q) in queues.iter().copied().enumerate() {
            if g.edges_into(q, 0).is_empty() {
                let filler = g.add(format!("idle{p}"), Box::new(VecSource::new(Vec::new())))?;
                g.connect(filler, 0, q, 0)?;
            }
        }

        // The `RcuFib` value itself may drop here: readers inside the
        // graph and the control handle each keep the shared state alive.
        let route_control = fib.map(|(rcu, _)| rcu.control());
        Ok((g, route_control))
    }

    /// Builds a multi-threaded router: the graph plus the knobs every
    /// run reads, ready for [`MtRouter::run`]. Requires injection
    /// mode — the MT runtime shards externally supplied packets across
    /// per-core replicas, so a self-contained source makes no sense here.
    ///
    /// # Errors
    ///
    /// Propagates element-construction and graph-wiring failures.
    pub fn build_mt(mut self) -> Result<MtRouter, ConfigError> {
        assert!(
            self.source.is_none(),
            "build_mt() requires injection mode, not source_packets()"
        );
        let monitor = self.bind_monitor()?;
        let prebuilt = self.prebuilt_table.take();
        let (graph, route_control) = self.build_graph_inner(prebuilt)?;
        Ok(MtRouter {
            graph,
            ports: self.ports,
            knobs: self.knobs,
            route_control,
            monitor,
        })
    }
}

/// A multi-threaded router: a template graph replicated once per worker
/// core on every run (§4.2's parallel layout), with per-port egress.
///
/// Egress indices of the returned [`GraphRunOutcome`] correspond to
/// router ports: the builder adds `tx0..txN` in port order, and graph
/// replication preserves element order.
pub struct MtRouter {
    graph: Graph,
    ports: usize,
    knobs: Knobs,
    route_control: Option<RouteControl>,
    /// Embedded scrape endpoint; every [`MtRouter::run`] attaches its
    /// live rings here before the workers spawn.
    monitor: Option<MetricsServer>,
}

impl MtRouter {
    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Number of worker cores used per run.
    pub fn workers(&self) -> usize {
        self.knobs.workers
    }

    /// The runtime knobs every [`MtRouter::run`] reads.
    pub fn knobs(&self) -> &Knobs {
        &self.knobs
    }

    /// The scheduling regime [`MtRouter::run`] dispatches to.
    pub fn regime(&self) -> Regime {
        self.knobs.regime
    }

    /// The service-level objectives graded by [`MtRouter::slo_report`].
    pub fn slo(&self) -> &SloSpec {
        &self.knobs.slo
    }

    /// Grades the configured objectives ([`RouterBuilder::slo`]) against
    /// a run's merged interval series. `None` when no objectives are set
    /// or the run had no interval clock
    /// ([`RouterBuilder::interval_ms`] 0).
    pub fn slo_report(&self, outcome: &GraphRunOutcome) -> Option<SloReport> {
        if self.knobs.slo.is_empty() {
            return None;
        }
        let series = outcome.report.timeseries.as_ref()?;
        Some(SloReport::evaluate(
            &self.knobs.slo,
            &series.intervals,
            cycles::ticks_per_sec(),
        ))
    }

    /// The template graph, replicated per worker on each run. It holds no
    /// arena: each replica gets its own when the run configures it.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The live-churn route handle of an IP router (every one routes
    /// through an [`RcuFib`]); `None` for a forwarder or an IPsec
    /// gateway, which have no FIB. The handle is cloneable and
    /// thread-safe — move a clone into a control-plane thread and
    /// announce/withdraw/publish while [`MtRouter::run`] forwards.
    pub fn route_control(&self) -> Option<RouteControl> {
        self.route_control.clone()
    }

    /// Runs `packets` through per-core replicas under the configured
    /// scheduling regime ([`RouterBuilder::regime`]; default
    /// [`Regime::PullCredit`] — split by flow, stream each replica its
    /// shard under a credit window, merge egress). With `workers == 1`
    /// the per-port output streams of one call are byte-identical to
    /// the single-threaded [`BuiltRouter`]'s for the same input. Not
    /// across calls: each call builds fresh replicas, so stateful
    /// elements start over — `IpsecEncap` numbers every call's ESP
    /// packets from sequence 1, where a `BuiltRouter` keeps counting.
    ///
    /// # Errors
    ///
    /// Propagates replication failures (see
    /// [`rb_click::runtime::mt::run_graph`]).
    pub fn run(&self, packets: Vec<Packet>) -> Result<GraphRunOutcome, GraphError> {
        run_graph(&self.graph, packets, &self.knobs, self.monitor.as_ref())
    }

    /// The embedded scrape endpoint's bound address (`None` unless built
    /// with [`RouterBuilder::serve_metrics`]). With port 0 this is where
    /// the ephemeral port lands.
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.monitor.as_ref().map(MetricsServer::local_addr)
    }
}

/// A built single-server router with convenience accessors.
pub struct BuiltRouter {
    inner: Router,
    ports: usize,
    /// Element ids of `rx<port>` (empty when built with
    /// [`RouterBuilder::source_packets`]), `tx<port>` and `cnt<ingress>`,
    /// resolved once at build time.
    rx: Vec<ElementId>,
    tx: Vec<ElementId>,
    cnt: Vec<ElementId>,
    route_control: Option<RouteControl>,
    slo: SloSpec,
    /// Embedded scrape endpoint serving this router's live rings.
    monitor: Option<MetricsServer>,
}

impl BuiltRouter {
    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Runs until idle (see [`Router::run_until_idle`]); the pool and
    /// descriptor-ring totals are in `click().stats()`.
    pub fn run_until_idle(&mut self, max_quanta: u64) -> rb_click::runtime::driver::DriverStats {
        self.inner.run_until_idle(max_quanta)
    }

    /// Injects a frame into input port `port` and reports whether it
    /// landed: `false` when there is no such `FromDevice`, or when a pooled
    /// one had no free arena slot and dropped the frame to
    /// `NoRxDescriptor` (it is counted in the ledger either way).
    pub fn inject(&mut self, port: usize, pkt: Packet) -> bool {
        let dev = (self.rx.get(port))
            .and_then(|&id| self.inner.element_mut(id).downcast_mut::<FromDevice>());
        dev.is_some_and(|dev| dev.inject(pkt))
    }

    /// The element of type `T` behind `ids[idx]`, if there is one.
    fn element_at<T: Element>(&self, ids: &[ElementId], idx: usize) -> Option<&T> {
        self.inner.graph().element(*ids.get(idx)?).downcast_ref()
    }

    /// Packets transmitted out of `port` so far.
    pub fn transmitted(&self, port: usize) -> u64 {
        self.element_at(&self.tx, port)
            .map_or(0, ToDevice::sent_packets)
    }

    /// Bytes transmitted out of `port` so far.
    pub fn transmitted_bytes(&self, port: usize) -> u64 {
        self.element_at(&self.tx, port)
            .map_or(0, ToDevice::sent_bytes)
    }

    /// Frames kept by `tx<port>` when built with `keep_tx_frames(true)`.
    pub fn tx_frames(&self, port: usize) -> &[Packet] {
        self.element_at(&self.tx, port)
            .map_or(&[], ToDevice::tx_log)
    }

    /// Valid-packet count at ingress `idx`.
    pub fn ingress_count(&self, idx: usize) -> u64 {
        self.element_at(&self.cnt, idx)
            .map_or(0, |c: &Counter| c.stats().packets)
    }

    /// Telemetry snapshot of the underlying driver (empty when built
    /// with the default [`TelemetryLevel::Off`]).
    pub fn telemetry_snapshot(&self) -> rb_telemetry::MetricsSnapshot {
        self.inner.telemetry_snapshot()
    }

    /// Drains the sampled path-trace spans collected so far (empty when
    /// built without [`RouterBuilder::trace_sample`]).
    pub fn take_trace_log(&mut self) -> rb_telemetry::TraceLog {
        self.inner.take_trace_log()
    }

    /// The packet-conservation ledger of everything run so far (see
    /// [`Router::ledger`]); on an idle router it must balance.
    pub fn ledger(&self) -> rb_telemetry::Ledger {
        self.inner.ledger()
    }

    /// Flushes the current partial interval and returns the live
    /// time-series harvested so far; `None` unless built with
    /// [`RouterBuilder::interval_ms`] > 0. Summed interval counters
    /// equal [`BuiltRouter::ledger`] exactly.
    pub fn timeseries(&mut self) -> Option<TimeSeries> {
        self.inner.timeseries()
    }

    /// Grades the configured objectives ([`RouterBuilder::slo`]) against
    /// the interval series collected so far. `None` when no objectives
    /// are set or the interval clock is off.
    pub fn slo_report(&mut self) -> Option<SloReport> {
        if self.slo.is_empty() {
            return None;
        }
        let series = self.inner.timeseries()?;
        Some(SloReport::evaluate(
            &self.slo,
            &series.intervals,
            cycles::ticks_per_sec(),
        ))
    }

    /// The live-churn route handle of an IP router (every one routes
    /// through an [`RcuFib`]); `None` for a forwarder or an IPsec
    /// gateway, which have no FIB. Announce/withdraw routes and
    /// [`RouteControl::publish`] between (or during) runs; the data plane
    /// picks the new snapshot up at its next batch.
    pub fn route_control(&self) -> Option<RouteControl> {
        self.route_control.clone()
    }

    /// The embedded scrape endpoint's bound address (`None` unless built
    /// with [`RouterBuilder::serve_metrics`]). With port 0 this is where
    /// the ephemeral port lands.
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.monitor.as_ref().map(MetricsServer::local_addr)
    }

    /// Escape hatch to the underlying Click router.
    pub fn click(&mut self) -> &mut Router {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_packet::builder::PacketSpec;

    #[test]
    fn minimal_forwarder_moves_everything_to_next_port() {
        let mut r = RouterBuilder::minimal_forwarder()
            .source_packets(64, 500)
            .build()
            .unwrap();
        r.run_until_idle(1_000_000);
        assert_eq!(r.ingress_count(0), 500);
        assert_eq!(r.transmitted(1), 500);
        assert_eq!(r.transmitted(0), 0);
    }

    #[test]
    fn ip_router_splits_by_route() {
        let mut r = RouterBuilder::ip_router()
            .route("10.0.0.0/9", 0) // Destinations 10.0–10.7 all match.
            .route("0.0.0.0/0", 1)
            .source_packets(64, 800)
            .build()
            .unwrap();
        r.run_until_idle(10_000_000);
        // Builder sources send everything to 10.x destinations.
        assert_eq!(r.transmitted(0) + r.transmitted(1), 800);
        assert_eq!(r.transmitted(0), 800, "all traffic matches 10/9");
    }

    #[test]
    fn ip_router_decrements_ttl() {
        let mut r = RouterBuilder::ip_router()
            .route("0.0.0.0/0", 1)
            .keep_tx_frames(true)
            .source_packets(64, 10)
            .build()
            .unwrap();
        r.run_until_idle(1_000_000);
        let frames = r.tx_frames(1);
        assert_eq!(frames.len(), 10);
        for f in frames {
            let ip = rb_packet::Ipv4Header::parse(&f.data()[14..]).unwrap();
            assert_eq!(ip.ttl, 63, "TTL must be decremented with valid checksum");
        }
    }

    #[test]
    fn ipsec_gateway_encapsulates() {
        let mut r = RouterBuilder::ipsec_gateway()
            .sa_seed(7)
            .keep_tx_frames(true)
            .source_packets(100, 20)
            .build()
            .unwrap();
        r.run_until_idle(1_000_000);
        let frames = r.tx_frames(1);
        assert_eq!(frames.len(), 20);
        for f in frames {
            let ip = rb_packet::Ipv4Header::parse(&f.data()[14..]).unwrap();
            assert_eq!(ip.proto, rb_packet::IpProto::Esp);
            assert!(f.len() > 100, "ESP adds overhead");
        }
    }

    #[test]
    fn injection_mode_works() {
        let mut r = RouterBuilder::minimal_forwarder().build().unwrap();
        for _ in 0..5 {
            assert!(r.inject(0, PacketSpec::udp().build()));
        }
        r.run_until_idle(1_000_000);
        assert_eq!(r.transmitted(1), 5);
    }

    #[test]
    fn inject_reports_a_frame_the_arena_had_no_slot_for() {
        let mut r = RouterBuilder::minimal_forwarder()
            .pool_slots(4)
            .build()
            .unwrap();
        let landed: Vec<bool> = (0..6)
            .map(|_| r.inject(0, PacketSpec::udp().build()))
            .collect();
        assert_eq!(landed, [true, true, true, true, false, false]);
        assert!(!r.inject(9, PacketSpec::udp().build()), "no such port");
        r.run_until_idle(1_000_000);
        assert_eq!(r.transmitted(1), 4);
        // The two refusals are booked where they always were.
        let led = r.ledger();
        assert_eq!(led.sourced, 6);
        assert_eq!(led.forwarded, 4);
        assert_eq!(led.dropped(DropCause::NoRxDescriptor), 2);
        assert!(led.balances(), "{led:?}");
        assert_eq!(r.click().stats().pool_exhausted, 2);
    }

    #[test]
    fn bad_packets_go_to_the_check_sink() {
        let mut r = RouterBuilder::minimal_forwarder().build().unwrap();
        let mut bad = PacketSpec::udp().build();
        bad.data_mut()[20] ^= 0xff; // Corrupt the IP header.
        r.inject(0, bad);
        r.run_until_idle(1_000_000);
        assert_eq!(r.transmitted(1), 0);
        assert_eq!(r.ingress_count(0), 0);
    }

    #[test]
    #[should_panic(expected = "only applies")]
    fn route_on_forwarder_panics() {
        let _ = RouterBuilder::minimal_forwarder().route("0.0.0.0/0", 0);
    }

    #[test]
    fn rcu_router_picks_up_published_routes_between_runs() {
        let mut r = RouterBuilder::ip_router().ports(2).build().unwrap();
        let ctl = r.route_control().expect("RCU router hands out control");
        // Empty FIB: everything is a NoRoute drop, ledger still balances.
        r.inject(0, PacketSpec::udp().dst("10.1.2.3:80").unwrap().build());
        r.run_until_idle(1_000_000);
        assert_eq!(r.transmitted(0) + r.transmitted(1), 0);
        let led = r.ledger();
        assert_eq!(led.dropped(DropCause::NoRoute), 1);
        assert!(led.balances(), "{led:?}");
        // Announce + publish, then traffic flows.
        ctl.insert("10.0.0.0/8".parse().unwrap(), 1).unwrap();
        ctl.publish();
        r.inject(0, PacketSpec::udp().dst("10.1.2.3:80").unwrap().build());
        r.run_until_idle(1_000_000);
        assert_eq!(r.transmitted(1), 1);
        // Withdraw and it misses again.
        ctl.remove(&"10.0.0.0/8".parse().unwrap());
        ctl.publish();
        r.inject(0, PacketSpec::udp().dst("10.1.2.3:80").unwrap().build());
        r.run_until_idle(1_000_000);
        assert_eq!(r.transmitted(1), 1);
        assert_eq!(r.ledger().dropped(DropCause::NoRoute), 2);
    }

    #[test]
    fn an_ip_router_without_routes_misses_until_a_route_is_published() {
        // Multi-threaded, two workers: every replica's reader sees the
        // route the control plane publishes between two runs.
        let mt = RouterBuilder::ip_router()
            .ports(3)
            .workers(2)
            .keep_tx_frames(true)
            .build_mt()
            .unwrap();
        let ctl = mt.route_control().expect("every IP router has a control");
        assert_eq!(ctl.route_count(), 0);
        let frames = || -> Vec<Packet> {
            (0..40)
                .map(|i| {
                    PacketSpec::udp()
                        .src(&format!("172.16.0.{i}:1000"))
                        .unwrap()
                        .dst("10.1.2.3:80")
                        .unwrap()
                        .build()
                })
                .collect()
        };
        let out = mt.run(frames()).unwrap();
        assert_eq!(out.report.ledger.dropped(DropCause::NoRoute), 40);
        assert!(out.egress.iter().all(Vec::is_empty));
        ctl.insert("10.0.0.0/8".parse().unwrap(), 2).unwrap();
        ctl.publish();
        let out = mt.run(frames()).unwrap();
        assert_eq!(out.report.ledger.dropped(DropCause::NoRoute), 0);
        assert_eq!(out.egress[2].len(), 40, "all through the published route");
    }

    #[test]
    #[should_panic(expected = "at most 65536 ports")]
    fn ports_past_65536_are_refused() {
        let _ = RouterBuilder::minimal_forwarder().ports(RouterBuilder::MAX_PORTS + 1);
    }

    #[test]
    fn synthetic_fib_router_forwards_and_counts_lookups() {
        let mut r = RouterBuilder::ip_router()
            .ports(2)
            .routes_from_table(rb_workload::rib_full_table(1_000, 7))
            .telemetry(TelemetryLevel::Counts)
            .source_packets(64, 400)
            .build()
            .unwrap();
        r.run_until_idle(10_000_000);
        let snap = r.telemetry_snapshot();
        assert_eq!(snap.route_lookups, 400);
        // The synthesized RIB always contains a default route, so no
        // destination can miss.
        assert_eq!(snap.route_misses, 0);
        assert_eq!(r.transmitted(0) + r.transmitted(1), 400);
        assert!(r.ledger().balances());
    }

    #[test]
    fn mt_router_runs_under_every_regime() {
        let packets: Vec<Packet> = (0..200)
            .map(|i| {
                PacketSpec::udp()
                    .src(&format!("172.16.0.{}:1000", i % 250))
                    .unwrap()
                    .build()
            })
            .collect();
        for regime in [Regime::Pipeline, Regime::PullCredit] {
            let mt = RouterBuilder::minimal_forwarder()
                .workers(2)
                .regime(regime)
                .ring_depth(2)
                .keep_tx_frames(true)
                .build_mt()
                .unwrap();
            assert_eq!(mt.regime(), regime);
            let out = mt.run(packets.clone()).unwrap();
            let delivered: u64 = out.egress.iter().map(|v| v.len() as u64).sum();
            assert_eq!(delivered, 200, "regime {regime} must deliver everything");
            assert!(out.report.ledger.balances(), "regime {regime}");
        }
    }

    #[test]
    fn knobs_regime_reaches_mt_router() {
        let (_, knobs) = rb_click::config::build_graph(
            "RuntimeConfig(workers 2, regime pull, ring_depth 16);
             src :: InfiniteSource(64, 10);
             src -> Discard;",
        )
        .unwrap();
        let mt = RouterBuilder::minimal_forwarder()
            .apply_knobs(&knobs)
            .build_mt()
            .unwrap();
        assert_eq!(mt.regime(), Regime::PullCredit);
        assert_eq!(mt.knobs().ring_depth, 16);
    }

    /// The bursts a router built by `builder` resolves for its devices:
    /// `tx0`'s pull, and how many of 64 waiting frames one poll of `rx0`
    /// takes.
    fn device_bursts(builder: &RouterBuilder) -> (usize, usize) {
        use rb_click::{Element, Output};
        let mut built = builder.clone().build().unwrap();
        let router = built.click();
        let pull = router.element_as::<ToDevice>("tx0").unwrap().burst();
        let rx = router.element_as_mut::<FromDevice>("rx0").unwrap();
        for _ in 0..64 {
            rx.inject(PacketSpec::udp().build());
        }
        let mut out = Output::new();
        rx.run_task(&mut out);
        (pull, out.len())
    }

    /// What a router's first useful device quanta move, `(rx, tx)`: the
    /// frames the first poll of `rx` takes of 200 waiting, and those the
    /// first pull into `tx` sends.
    fn first_bursts(router: &mut Router, rx: &str, tx: &str) -> (u64, u64) {
        for _ in 0..200 {
            let dev = router.element_as_mut::<FromDevice>(rx).unwrap();
            dev.inject(PacketSpec::udp().build());
        }
        let mut polled = 0;
        for _ in 0..100 {
            router.run_quantum();
            if polled == 0 {
                polled = router.element_as::<FromDevice>(rx).unwrap().received();
            }
            let sent = router.element_as::<ToDevice>(tx).unwrap().sent_packets();
            if sent > 0 {
                return (polled, sent);
            }
        }
        (polled, 0)
    }

    #[test]
    fn dsl_and_builder_routers_resolve_the_same_device_bursts() {
        // `poll_burst` is every unpinned device's burst, in both
        // directions, however the router was built: a configuration
        // text's bare `ToDevice` once pulled `kp` (8) where the builder's
        // pulled 64.
        let mut dsl = rb_click::build_router(
            "RuntimeConfig(batch_size 8, poll_burst 64);
             rx :: FromDevice(0); q :: Queue; tx :: ToDevice; rx -> q -> tx;",
        )
        .unwrap();
        assert_eq!(first_bursts(&mut dsl, "rx", "tx"), (64, 64));
        let mut built = RouterBuilder::minimal_forwarder()
            .batch_size(8)
            .poll_burst(64)
            .build()
            .unwrap();
        assert_eq!(first_bursts(built.click(), "rx0", "tx1"), (64, 64));
    }

    /// The knobs one `RuntimeConfig(...)` statement parses into.
    fn knobs_from(args: &str) -> Knobs {
        let text = format!("RuntimeConfig({args}); InfiniteSource(64, 1) -> Discard;");
        rb_click::config::build_graph(&text).unwrap().1
    }

    #[test]
    fn batch_size_alone_leaves_device_bursts_following_kp() {
        // `apply_knobs` used to pin every device at 32 whatever the text
        // said: `kp` is the single batching knob unless a burst is named.
        let follows = RouterBuilder::minimal_forwarder().apply_knobs(&knobs_from("batch_size 16"));
        assert_eq!(device_bursts(&follows), (16, 16));
        let pinned = RouterBuilder::minimal_forwarder()
            .apply_knobs(&knobs_from("batch_size 16, poll_burst 8"));
        assert_eq!(device_bursts(&pinned), (8, 8));
    }

    #[test]
    fn dsl_built_and_setter_built_mt_routers_hold_equal_knobs() {
        let text = "batch_size 16, workers 2, regime pull, ring_depth 64, nic_batch 4, \
                    interval_ms 5, trace_sample 8, telemetry on, pool_slots 128";
        let dsl = RouterBuilder::minimal_forwarder()
            .apply_knobs(&knobs_from(text))
            .build_mt()
            .unwrap();
        let set = RouterBuilder::minimal_forwarder()
            .batch_size(16)
            .workers(2)
            .regime(Regime::PullCredit)
            .ring_depth(64)
            .nic_batch(4)
            .interval_ms(5)
            .trace_sample(8)
            .telemetry(TelemetryLevel::Counts)
            .pool_slots(128)
            .build_mt()
            .unwrap();
        assert_eq!(dsl.knobs(), set.knobs());
    }

    #[test]
    fn every_knob_has_a_dsl_key_and_a_setter_that_agree() {
        // No `..`: a new `Knobs` field does not compile here until it is
        // named, and an unused binding fails the lint gate until the
        // field has a row — one DSL key, one setter, both landing in it.
        let Knobs {
            batch_size,
            poll_burst,
            ring_depth,
            workers,
            pool_slots,
            slot_size,
            telemetry,
            trace_sample,
            regime,
            nic_batch,
            interval_ms,
            slo,
            serve_metrics,
        } = Knobs::default();
        let b = RouterBuilder::ip_router;
        macro_rules! row {
            ($field:ident, $text:expr, $set:expr) => {
                let parsed = knobs_from($text);
                assert_ne!(parsed.$field, $field, "`{}` left the default", $text);
                assert_eq!(parsed, $set.knobs, "`{}` and its setter disagree", $text);
            };
        }
        row!(batch_size, "batch_size 16", b().batch_size(16));
        row!(poll_burst, "poll_burst 8", b().poll_burst(8));
        row!(ring_depth, "ring_depth 64", b().ring_depth(64));
        row!(workers, "workers 3", b().workers(3));
        row!(pool_slots, "pool_slots 128", b().pool_slots(128));
        row!(slot_size, "slot_size 512", b().slot_size(512));
        row!(
            telemetry,
            "telemetry cycles",
            b().telemetry(TelemetryLevel::Cycles)
        );
        row!(trace_sample, "trace_sample 8", b().trace_sample(8));
        row!(regime, "regime pipeline", b().regime(Regime::Pipeline));
        row!(nic_batch, "nic_batch 4", b().nic_batch(4));
        row!(interval_ms, "interval_ms 5", b().interval_ms(5));
        let spec = SloSpec::parse("loss:0.02").unwrap();
        row!(slo, "slo loss:0.02", b().slo(spec));
        let addr = "127.0.0.1:9898".parse().unwrap();
        row!(
            serve_metrics,
            "serve_metrics \"127.0.0.1:9898\"",
            b().serve_metrics(addr)
        );
        // The one setter left without a knob: every IP router is RCU.
        assert_eq!(b().rcu_fib(true).knobs, Knobs::default());
        assert_eq!(b().rcu_fib(false).knobs, Knobs::default());
    }

    #[test]
    fn interval_clock_and_slo_flow_through_the_builder() {
        // Single-thread: interval series conserves the ledger and the
        // SLO engine grades it. No throughput floor here — a bucket
        // boundary can land between a packet's source and its forward,
        // which a floor objective would legitimately flag on a series
        // this short.
        let spec = SloSpec::parse("loss:0.5").unwrap();
        let mut r = RouterBuilder::minimal_forwarder()
            .interval_ms(1)
            .slo(spec)
            .source_packets(64, 400)
            .build()
            .unwrap();
        r.run_until_idle(1_000_000);
        let series = r.timeseries().expect("interval clock is on");
        let led = series.ledger();
        assert_eq!(led.forwarded, r.ledger().forwarded);
        assert_eq!(led.sourced, r.ledger().sourced);
        let report = r.slo_report().expect("objectives are set");
        assert!(report.graded_intervals >= 1);
        // A healthy idle-to-idle run must not be burning.
        assert_ne!(report.state, rb_telemetry::SloState::Burning);

        // MT: the knob rides into every replica and the merged series
        // lands on the report.
        let packets: Vec<Packet> = (0..300)
            .map(|i| {
                PacketSpec::udp()
                    .src(&format!("172.16.0.{}:1000", i % 250))
                    .unwrap()
                    .build()
            })
            .collect();
        let mt = RouterBuilder::minimal_forwarder()
            .workers(2)
            .interval_ms(1)
            .slo(SloSpec::parse("p99us:1000000").unwrap())
            .build_mt()
            .unwrap();
        assert_eq!(mt.knobs().interval_ms, 1);
        let out = mt.run(packets).unwrap();
        let series = out.report.timeseries.as_ref().expect("series on");
        assert_eq!(series.ledger().forwarded, out.report.ledger.forwarded);
        assert!(mt.slo_report(&out).is_some());
    }

    #[test]
    fn serve_metrics_leaves_egress_identical() {
        // Differential: the embedded scrape endpoint observes through
        // wait-free rings, so switching it on (and scraping it
        // mid-run) must not change what the router emits.
        let packets = || -> Vec<Packet> {
            (0..400)
                .map(|i| {
                    PacketSpec::udp()
                        .src(&format!("172.16.{}.{}:1000", i / 250, i % 250))
                        .unwrap()
                        .build()
                })
                .collect()
        };
        let configure = |b: RouterBuilder| {
            b.workers(2)
                .telemetry(TelemetryLevel::Cycles)
                .interval_ms(1)
                .slo(SloSpec::parse("loss:0.5").unwrap())
                .keep_tx_frames(true)
        };
        let egress_multiset = |mt: &MtRouter| -> Vec<Vec<Vec<u8>>> {
            let out = mt.run(packets()).unwrap();
            out.egress
                .iter()
                .map(|port| {
                    let mut frames: Vec<Vec<u8>> = port.iter().map(|p| p.data().to_vec()).collect();
                    frames.sort();
                    frames
                })
                .collect()
        };
        let plain = configure(RouterBuilder::minimal_forwarder())
            .build_mt()
            .unwrap();
        let observed = configure(RouterBuilder::minimal_forwarder())
            .serve_metrics("127.0.0.1:0".parse().unwrap())
            .build_mt()
            .unwrap();
        let addr = observed.metrics_addr().expect("endpoint bound");
        assert!(plain.metrics_addr().is_none());
        let baseline = egress_multiset(&plain);
        let monitored = egress_multiset(&observed);
        assert_eq!(
            baseline, monitored,
            "scrape endpoint must not perturb egress"
        );
        // And the endpoint really was alive while that run happened.
        let (status, body) =
            rb_telemetry::http::http_get(addr, "/metrics").expect("endpoint answers");
        assert_eq!(status, 200);
        assert!(body.contains("rb_sourced_packets_total"));
    }

    #[test]
    fn knobs_interval_and_slo_reach_the_builder() {
        let (_, knobs) = rb_click::config::build_graph(
            "RuntimeConfig(workers 2, interval_ms 5, slo p99us:2500/loss:0.01);
             src :: InfiniteSource(64, 10);
             src -> Discard;",
        )
        .unwrap();
        let mt = RouterBuilder::minimal_forwarder()
            .apply_knobs(&knobs)
            .build_mt()
            .unwrap();
        assert_eq!(mt.knobs().interval_ms, 5);
        assert_eq!(mt.slo().p99_latency_us, Some(2500.0));
        assert_eq!(mt.slo().max_loss, Some(0.01));
    }

    #[test]
    fn knobs_map_onto_builder_including_fib() {
        let (_, knobs) = rb_click::config::build_graph(
            "RuntimeConfig(batch_size 16, workers 3);
             src :: InfiniteSource(64, 10);
             src -> Discard;",
        )
        .unwrap();
        let mt = RouterBuilder::ip_router()
            .ports(2)
            .routes_from_table(rb_workload::rib_full_table(500, 7))
            .apply_knobs(&knobs)
            .build_mt()
            .unwrap();
        assert_eq!(mt.workers(), 3);
        assert_eq!(mt.knobs().batch_size, 16);
        let ctl = mt.route_control().expect("every IP router is RCU");
        assert!(ctl.route_count() >= 500, "got {}", ctl.route_count());
    }
}
