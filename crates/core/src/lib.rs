//! # RouteBricks-RS
//!
//! A from-scratch Rust reproduction of *RouteBricks: Exploiting
//! Parallelism To Scale Software Routers* (Dobrescu et al., SOSP 2009):
//! a software router architecture that parallelises packet processing
//! both across servers (Valiant load-balanced clustering) and within a
//! server (multi-queue NICs, one core per queue, one core per packet,
//! poll- and NIC-driven batching).
//!
//! The workspace is organised as one crate per subsystem; this crate
//! re-exports them under stable module names and adds the high-level
//! [`builder`] API that assembles the paper's three applications
//! (minimal forwarding, IP routing, IPsec encryption) as runnable
//! dataplanes.
//!
//! ```text
//! routebricks::packet    wire formats, buffers, RSS       (rb-packet)
//! routebricks::lookup    DIR-24-8 LPM + baselines         (rb-lookup)
//! routebricks::crypto    AES-128 / SHA-1 / ESP            (rb-crypto)
//! routebricks::click     element framework + config DSL   (rb-click)
//! routebricks::workload  traffic generation               (rb-workload)
//! routebricks::hw        calibrated server model + DES    (rb-hw)
//! routebricks::vlb       VLB routing, topologies, sizing  (rb-vlb)
//! routebricks::cluster   RB4 cluster model                (rb-cluster)
//! routebricks::telemetry per-core metrics + cycle shards  (rb-telemetry)
//! ```
//!
//! # Examples
//!
//! Build and run an IP router on synthetic traffic:
//!
//! ```
//! use routebricks::builder::RouterBuilder;
//!
//! let mut router = RouterBuilder::ip_router()
//!     .route("10.0.0.0/8", 0)
//!     .route("0.0.0.0/0", 1)
//!     .source_packets(64, 1_000)
//!     .build()
//!     .unwrap();
//! router.run_until_idle(1_000_000);
//! let sent: u64 = (0..2).map(|p| router.transmitted(p)).sum();
//! assert_eq!(sent, 1_000);
//! ```

#![deny(clippy::cast_possible_truncation)]

pub use rb_click as click;
pub use rb_cluster as cluster;
pub use rb_crypto as crypto;
pub use rb_hw as hw;
pub use rb_lookup as lookup;
pub use rb_packet as packet;
pub use rb_telemetry as telemetry;
pub use rb_vlb as vlb;
pub use rb_workload as workload;

pub mod bottleneck;
pub mod builder;
pub mod report;

pub use bottleneck::BottleneckReport;
pub use builder::{BuiltRouter, MtRouter, RouterBuilder};
pub use rb_click::Regime;
pub use report::TextTable;
