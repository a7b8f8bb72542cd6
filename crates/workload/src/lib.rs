//! Traffic workload generation for RouteBricks experiments.
//!
//! The paper characterises a packet-processing workload by "(1) the
//! distribution of packet sizes, and (2) the application" (§5.1). This
//! crate supplies the first axis plus the traffic structure the cluster
//! experiments need:
//!
//! * [`sizes`] — packet-size distributions: fixed-size (the worst-case
//!   64 B workload), IMIX, and an Abilene-like empirical mixture standing
//!   in for the NLANR "Abilene-I" trace the paper replays (the trace
//!   itself is no longer distributable; see DESIGN.md for the
//!   substitution argument).
//! * [`matrix`] — traffic matrices across router ports: uniform
//!   (any-to-any), hotspot, permutation and single-pair worst cases.
//! * [`flows`] — TCP/UDP flow populations with heavy-tailed sizes, for
//!   the reordering experiments.
//! * [`trace`] — synthetic packet traces: Poisson/back-to-back arrivals,
//!   flow-stamped packets, replayable into any dataplane.
//! * [`rib`] — synthetic full-table RIBs (up to ~1M prefixes with the
//!   default-free-zone length mix) and BGP-like churn streams for the
//!   route-lookup scaling experiments.

#![deny(clippy::cast_possible_truncation)]

pub mod flows;
pub mod matrix;
pub mod rib;
pub mod sizes;
pub mod trace;

pub use flows::{FlowGenConfig, FlowGenerator};
pub use matrix::TrafficMatrix;
pub use rib::{churn_stream, rib_full_table, ChurnConfig, RouteUpdate};
pub use sizes::SizeDist;
pub use trace::{Arrivals, SynthTrace, TraceConfig, TracePacket};
