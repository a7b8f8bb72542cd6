//! Packet representation and protocol headers for the RouteBricks dataplane.
//!
//! This crate provides the foundational types every other RouteBricks crate
//! builds on:
//!
//! * [`PacketBuf`] — an owned byte buffer with headroom/tailroom management,
//!   modelled after the kernel `sk_buff` / Click `Packet` conventions the
//!   paper's dataplane relies on.
//! * [`Packet`] — a buffer plus the per-packet annotations (input port and
//!   queue, timestamps, VLB phase, paint) that the RouteBricks forwarding
//!   path threads through the cluster.
//! * Zero-copy header views for Ethernet ([`ethernet`]), IPv4 ([`ipv4`]),
//!   TCP ([`tcp`]) and UDP ([`udp`]).
//! * Internet checksums ([`checksum`]), including RFC 1624 incremental
//!   updates used on the TTL-decrement fast path.
//! * Flow identification ([`flow`]) and the Toeplitz receive-side-scaling
//!   hash ([`rss`]) that multi-queue NICs use to pin flows to queues —
//!   the mechanism behind the paper's "one core per queue" rule.
//! * A simulated multi-queue NIC ([`nic`]): fixed-depth descriptor rings
//!   with `kn`-batched writeback/doorbell cost — the NIC-driven batching
//!   axis of the paper's Table 1.
//!
//! # Examples
//!
//! ```
//! use rb_packet::{builder::PacketSpec, flow::FiveTuple};
//!
//! let pkt = PacketSpec::udp()
//!     .src("10.0.0.1:5000").unwrap()
//!     .dst("10.0.0.2:53").unwrap()
//!     .frame_len(64)
//!     .build();
//! let tuple = FiveTuple::of_ethernet_frame(pkt.data()).unwrap();
//! assert_eq!(tuple.src_port, 5000);
//! ```

#![deny(clippy::cast_possible_truncation)]

pub mod buf;
pub mod builder;
pub mod checksum;
pub mod ethernet;
pub mod flow;
pub mod icmp;
pub mod ipv4;
pub mod mac;
pub mod nic;
pub mod packet;
pub mod pool;
pub mod rss;
pub mod tcp;
pub mod udp;

pub use buf::PacketBuf;
pub use ethernet::{EtherType, EthernetHeader};
pub use flow::FiveTuple;
pub use ipv4::{IpProto, Ipv4Header};
pub use mac::MacAddr;
pub use nic::{DescRing, NicPort, NicQueue, NicStats};
pub use packet::{Packet, PacketMeta};
pub use pool::{FreeBatch, PacketPool, PoolSlot, PoolStats};
pub use rss::ToeplitzHasher;

/// Errors produced when parsing or mutating packet contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketError {
    /// The buffer is shorter than the header that was asked for.
    Truncated {
        /// Bytes required by the header.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A header field holds a value the protocol forbids.
    BadField(&'static str),
    /// A checksum did not verify.
    BadChecksum {
        /// The checksum carried by the packet.
        stored: u16,
        /// The checksum we computed over the packet contents.
        computed: u16,
    },
    /// The parser was asked for a protocol the packet does not carry.
    WrongProtocol(&'static str),
    /// Not enough headroom/tailroom to grow the packet in place.
    NoRoom {
        /// Bytes of room requested.
        needed: usize,
        /// Bytes of room available.
        available: usize,
    },
}

impl core::fmt::Display for PacketError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            PacketError::Truncated { needed, available } => {
                write!(f, "truncated packet: need {needed} bytes, have {available}")
            }
            PacketError::BadField(field) => write!(f, "invalid header field: {field}"),
            PacketError::BadChecksum { stored, computed } => {
                write!(
                    f,
                    "bad checksum: stored {stored:#06x}, computed {computed:#06x}"
                )
            }
            PacketError::WrongProtocol(wanted) => {
                write!(f, "packet does not carry expected protocol {wanted}")
            }
            PacketError::NoRoom { needed, available } => {
                write!(
                    f,
                    "no room to grow packet: need {needed} bytes, have {available}"
                )
            }
        }
    }
}

impl std::error::Error for PacketError {}

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, PacketError>;
