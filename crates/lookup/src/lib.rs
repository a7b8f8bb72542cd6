//! IPv4 longest-prefix-match (LPM) route lookup.
//!
//! The RouteBricks IP-routing application performs "a longest-prefix-match
//! lookup of the destination address in a routing table … the Click
//! distribution's implementation of the D-lookup algorithm [34] and …
//! a routing-table size of 256K entries" (§5.1). Reference [34] is
//! Gupta, Lin and McKeown's *DIR-24-8-BASIC* scheme — a full 2²⁴-entry
//! first-level table resolving almost every lookup in one memory access,
//! with a spill table for prefixes longer than /24.
//!
//! This crate provides:
//!
//! * [`Dir24_8`] — the paper's lookup structure, compiled from a
//!   [`RouteTable`].
//! * [`BinaryTrie`] — a classic one-bit-at-a-time trie, the natural
//!   baseline.
//! * [`LinearTable`] — a linear scan, useful for differential testing.
//! * [`gen`] — a generator of realistic random tables (256K entries with a
//!   backbone-like prefix-length mix) for workloads and benchmarks.
//!
//! All structures implement [`LpmLookup`], so they can be swapped under the
//! routing element and differential-tested against each other.
//!
//! # Examples
//!
//! ```
//! use rb_lookup::{Dir24_8, LpmLookup, Prefix, RouteTable};
//!
//! let mut table = RouteTable::new();
//! table.insert("10.0.0.0/8".parse().unwrap(), 1);
//! table.insert("10.1.0.0/16".parse().unwrap(), 2);
//! let fib = Dir24_8::compile(&table).unwrap();
//! assert_eq!(fib.lookup(u32::from_be_bytes([10, 1, 2, 3])), Some(2));
//! assert_eq!(fib.lookup(u32::from_be_bytes([10, 9, 9, 9])), Some(1));
//! assert_eq!(fib.lookup(u32::from_be_bytes([11, 0, 0, 1])), None);
//! ```

#![deny(clippy::cast_possible_truncation)]

pub mod dir24_8;
pub mod dynamic;
pub mod gen;
pub mod linear;
pub mod prefetch;
pub mod prefix;
pub mod rcu;
mod sweep;
pub mod table;
pub mod trie;

pub use dir24_8::Dir24_8;
pub use dynamic::DynamicDir24_8;
pub use linear::LinearTable;
pub use prefix::Prefix;
pub use rcu::{FibGuard, FibReader, RcuFib, RcuStats, RouteControl, RouteUpdate};
pub use table::RouteTable;
pub use trie::BinaryTrie;

/// A next-hop identifier.
///
/// DIR-24-8 packs next hops into 15 bits, so identifiers must stay below
/// [`MAX_NEXT_HOP`].
pub type NextHop = u16;

/// Largest next-hop identifier DIR-24-8 can represent (15 bits, with zero
/// reserved internally).
pub const MAX_NEXT_HOP: NextHop = 0x7ffe;

/// Errors raised when building lookup structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupError {
    /// A next-hop identifier exceeds what the structure can encode.
    NextHopTooLarge(NextHop),
    /// A prefix string failed to parse.
    BadPrefix(&'static str),
    /// Prefixes longer than /24 fall in more distinct /24s than the
    /// 15-bit `TBLlong` segment index can address
    /// ([`dir24_8::MAX_SEGMENTS`]).
    TooManySegments,
}

impl core::fmt::Display for LookupError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            LookupError::NextHopTooLarge(h) => {
                write!(
                    f,
                    "next hop {h} exceeds the encodable maximum {MAX_NEXT_HOP}"
                )
            }
            LookupError::BadPrefix(why) => write!(f, "bad prefix: {why}"),
            LookupError::TooManySegments => write!(
                f,
                "prefixes longer than /24 need more than {} TBLlong segments",
                dir24_8::MAX_SEGMENTS
            ),
        }
    }
}

impl std::error::Error for LookupError {}

/// Longest-prefix-match lookup over IPv4 destination addresses.
pub trait LpmLookup {
    /// Returns the next hop for `addr` (host byte order), or `None` when no
    /// prefix covers it.
    fn lookup(&self, addr: u32) -> Option<NextHop>;

    /// Returns the number of routes the structure was built from.
    fn route_count(&self) -> usize;

    /// Returns an estimate of the heap memory the structure occupies, in
    /// bytes. Used by the memory-footprint benchmarks.
    fn memory_bytes(&self) -> usize;

    /// Resolves a batch of destination addresses at once.
    ///
    /// The default is a scalar loop; implementations with exploitable
    /// memory-level parallelism (notably [`Dir24_8`]) override it with a
    /// split extract → prefetch → resolve pipeline. Results are
    /// positional: `out[i]` answers `addrs[i]`, and any result produced
    /// must be byte-identical to calling [`LpmLookup::lookup`] per
    /// address.
    ///
    /// # Panics
    ///
    /// Panics when `out` is shorter than `addrs`.
    fn lookup_batch(&self, addrs: &[u32], out: &mut [Option<NextHop>]) {
        assert!(out.len() >= addrs.len(), "output slice too short");
        for (addr, slot) in addrs.iter().zip(out.iter_mut()) {
            *slot = self.lookup(*addr);
        }
    }
}
