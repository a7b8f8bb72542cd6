//! DIR-24-8-BASIC longest-prefix-match (Gupta, Lin, McKeown 1998).
//!
//! The scheme the paper calls "D-lookup": a flat 2²⁴-entry first-level
//! table (`TBL24`) indexed by the top 24 destination bits, plus a spill
//! table (`TBLlong`) of 256-entry segments for the rare prefixes longer
//! than /24. Lookups cost one memory access for ≤ /24 routes and two for
//! longer ones — which is why the paper's IP-routing application stays
//! CPU-bound rather than memory-bound even at 256K routes.
//!
//! Encoding of a `TBL24` entry (16 bits):
//!
//! * `0x0000` — no route.
//! * high bit clear — `entry - 1` is the next hop.
//! * high bit set — `entry & 0x7fff` is the index of a 256-entry `TBLlong`
//!   segment indexed by the low 8 destination bits.
//!
//! `TBLlong` entries are `0` for "no route" or `next_hop + 1`.

use crate::prefetch::prefetch_slice;
use crate::prefix::Prefix;
use crate::sweep::sweep;
use crate::table::RouteTable;
use crate::{LookupError, LpmLookup, NextHop};

/// Number of entries in the first-level table.
pub(crate) const TBL24_SIZE: usize = 1 << 24;

/// High bit marking a `TBL24` entry as a `TBLlong` segment index.
pub(crate) const LONG_FLAG: u16 = 0x8000;

/// Most `TBLlong` segments an entry can address: the index has the 15
/// bits below the `LONG_FLAG` bit, so one more would alias segment 0.
pub const MAX_SEGMENTS: usize = 1 << 15;

/// The `TBL24` entry pointing at segment `seg_index`.
///
/// # Errors
///
/// Returns [`LookupError::TooManySegments`] from [`MAX_SEGMENTS`] on: the
/// index would not fit the 15 bits under [`LONG_FLAG`].
pub(crate) fn segment_entry(seg_index: usize) -> Result<u16, LookupError> {
    u16::try_from(seg_index)
        .ok()
        .filter(|&seg| seg < LONG_FLAG)
        .map(|seg| LONG_FLAG | seg)
        .ok_or(LookupError::TooManySegments)
}

/// A compiled DIR-24-8 forwarding table.
pub struct Dir24_8 {
    tbl24: Vec<u16>,
    tbl_long: Vec<u16>,
    route_count: usize,
}

impl Dir24_8 {
    /// Compiles a forwarding table from `routes`.
    ///
    /// One address-ordered sweep writes every covered `TBL24` slot once
    /// with the longest ≤ /24 prefix covering it (a table with a default
    /// route covers them all); the prefixes longer than /24
    /// then spill their slots into `TBLlong` segments, in address order.
    ///
    /// # Errors
    ///
    /// Returns [`LookupError::NextHopTooLarge`] when a next hop exceeds
    /// [`crate::MAX_NEXT_HOP`] (the 15-bit encoding limit), and
    /// [`LookupError::TooManySegments`] when the prefixes longer than /24
    /// fall in more than [`MAX_SEGMENTS`] distinct /24s.
    pub fn compile(routes: &RouteTable) -> Result<Dir24_8, LookupError> {
        // Zeroed (no route) from the allocator: a run no route covers
        // is never written, so its pages are never touched.
        let mut tbl24 = vec![0u16; TBL24_SIZE];
        let mut next = 0;
        let long = sweep(Prefix::DEFAULT, 24, 0, routes.iter(), |slots, entry| {
            if entry != 0 {
                tbl24[next..next + slots].fill(entry);
            }
            next += slots;
        })?;
        let mut fib = Dir24_8 {
            tbl24,
            tbl_long: Vec::new(),
            route_count: routes.len(),
        };
        for (prefix, hop) in long {
            fib.write_long(prefix, hop + 1)?;
        }
        Ok(fib)
    }

    /// Writes one prefix longer than /24 into its `TBL24` slot's segment,
    /// allocating the segment on the slot's first spill. Prefixes sharing
    /// a slot must come covers first.
    fn write_long(&mut self, prefix: Prefix, encoded: u16) -> Result<(), LookupError> {
        let idx24 = (prefix.first() >> 8) as usize;
        let slot = self.tbl24[idx24];
        let seg_index = if slot & LONG_FLAG != 0 {
            usize::from(slot & !LONG_FLAG)
        } else {
            let seg_index = self.tbl_long.len() / 256;
            self.tbl24[idx24] = segment_entry(seg_index)?;
            // Seed the fresh segment with the slot's ≤ /24 result so
            // uncovered low-byte values keep their answer.
            self.tbl_long.extend(std::iter::repeat_n(slot, 256));
            seg_index
        };
        let lo_start = (prefix.first() & 0xff) as usize;
        let lo_end = (prefix.last() & 0xff) as usize;
        let base = seg_index * 256;
        self.tbl_long[base + lo_start..=base + lo_end].fill(encoded);
        Ok(())
    }

    /// Returns the number of `TBLlong` segments allocated.
    pub fn long_segments(&self) -> usize {
        self.tbl_long.len() / 256
    }

    /// Assembles a FIB from already-encoded tables (the snapshot path of
    /// [`crate::DynamicDir24_8`]). Both tables must use the entry
    /// encoding documented at the top of this module.
    pub(crate) fn from_parts(tbl24: Vec<u16>, tbl_long: Vec<u16>, route_count: usize) -> Dir24_8 {
        debug_assert_eq!(tbl24.len(), TBL24_SIZE);
        debug_assert_eq!(tbl_long.len() % 256, 0);
        Dir24_8 {
            tbl24,
            tbl_long,
            route_count,
        }
    }

    /// Surrenders the raw tables, letting a replaced snapshot's
    /// allocations become the RCU FIB's next working table.
    pub(crate) fn into_parts(self) -> (Vec<u16>, Vec<u16>) {
        (self.tbl24, self.tbl_long)
    }

    /// The raw tables, for bringing a recycled pair up to date.
    pub(crate) fn parts(&self) -> (&[u16], &[u16]) {
        (&self.tbl24, &self.tbl_long)
    }

    /// Destination addresses in a batch rarely share cache lines in a
    /// 32 MiB `TBL24`, so the resolve loop is latency-bound on DRAM.
    /// Splitting it into a prefetch pass (issue every `TBL24` line, plus
    /// the `TBLlong` line for entries already visible as spilled) and a
    /// resolve pass lets the memory system overlap the misses.
    fn lookup_batch_impl(&self, addrs: &[u32], out: &mut [Option<NextHop>]) {
        assert!(out.len() >= addrs.len(), "output slice too short");
        // Pass 1: prefetch. For spilled slots the TBL24 entry must be
        // read to locate the segment — that read warms the line the
        // resolve pass needs anyway, and TBLlong lines gain the most
        // from an early hint (they are the second dependent access).
        for &addr in addrs {
            let idx = (addr >> 8) as usize;
            prefetch_slice(&self.tbl24, idx);
            if !self.tbl_long.is_empty() {
                let entry = self.tbl24[idx];
                if entry & LONG_FLAG != 0 {
                    let seg = usize::from(entry & !LONG_FLAG) * 256;
                    prefetch_slice(&self.tbl_long, seg + (addr & 0xff) as usize);
                }
            }
        }
        // Pass 2: resolve, identical logic to the scalar `lookup`.
        for (&addr, slot) in addrs.iter().zip(out.iter_mut()) {
            let entry = self.tbl24[(addr >> 8) as usize];
            let resolved = if entry & LONG_FLAG == 0 {
                entry
            } else {
                let seg = usize::from(entry & !LONG_FLAG) * 256;
                self.tbl_long[seg + (addr & 0xff) as usize]
            };
            *slot = if resolved == 0 {
                None
            } else {
                Some(resolved - 1)
            };
        }
    }
}

impl LpmLookup for Dir24_8 {
    #[inline]
    fn lookup(&self, addr: u32) -> Option<NextHop> {
        let entry = self.tbl24[(addr >> 8) as usize];
        let resolved = if entry & LONG_FLAG == 0 {
            entry
        } else {
            let seg = usize::from(entry & !LONG_FLAG) * 256;
            self.tbl_long[seg + (addr & 0xff) as usize]
        };
        if resolved == 0 {
            None
        } else {
            Some(resolved - 1)
        }
    }

    fn route_count(&self) -> usize {
        self.route_count
    }

    fn memory_bytes(&self) -> usize {
        (self.tbl24.len() + self.tbl_long.len()) * core::mem::size_of::<u16>()
    }

    fn lookup_batch(&self, addrs: &[u32], out: &mut [Option<NextHop>]) {
        self.lookup_batch_impl(addrs, out);
    }
}

/// Test-only census of the `TBL24` buffers (allocations of exactly
/// 2²⁴ `u16`s) allocated and not yet freed on the calling thread, and
/// the most there have been: an allocator that counts them for this
/// crate's unit tests.
#[cfg(test)]
pub(crate) mod live {
    use super::TBL24_SIZE;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    const TBL24_BYTES: usize = TBL24_SIZE * core::mem::size_of::<u16>();

    thread_local! {
        static TBL24: Cell<(isize, isize)> = const { Cell::new((0, 0)) };
    }

    fn adjust(bytes: usize, by: isize) {
        if bytes == TBL24_BYTES {
            // `try_with`: a thread's last frees can run after its
            // thread-locals are gone.
            let _ = TBL24.try_with(|c| {
                let (now, peak) = c.get();
                c.set((now + by, peak.max(now + by)));
            });
        }
    }

    /// `(alive now, peak)` on this thread.
    pub(crate) fn tbl24_buffers() -> (isize, isize) {
        TBL24.with(Cell::get)
    }

    struct Counting;

    #[global_allocator]
    static COUNTING: Counting = Counting;

    // SAFETY: each method forwards to `System` with its caller's own
    // arguments, so `System`'s guarantees are this allocator's; the
    // census touches only a `Copy` thread-local, which allocates nothing.
    unsafe impl GlobalAlloc for Counting {
        // SAFETY: the caller's `alloc` contract is `System`'s.
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            adjust(layout.size(), 1);
            System.alloc(layout)
        }

        // SAFETY: as `alloc`; zeroed pages stay untouched, as without
        // the census.
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            adjust(layout.size(), 1);
            System.alloc_zeroed(layout)
        }

        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            adjust(layout.size(), -1);
            System.dealloc(ptr, layout)
        }

        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            adjust(layout.size(), -1);
            adjust(new_size, 1);
            System.realloc(ptr, layout, new_size)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_NEXT_HOP;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn a(s: &str) -> u32 {
        u32::from(s.parse::<std::net::Ipv4Addr>().unwrap())
    }

    fn fib(routes: &[(&str, NextHop)]) -> Dir24_8 {
        let table: RouteTable = routes.iter().map(|(s, h)| (p(s), *h)).collect();
        Dir24_8::compile(&table).unwrap()
    }

    #[test]
    fn empty_table_always_misses() {
        let f = fib(&[]);
        assert_eq!(f.lookup(0), None);
        assert_eq!(f.lookup(u32::MAX), None);
        assert_eq!(f.route_count(), 0);
    }

    #[test]
    fn short_prefix_hierarchy() {
        let f = fib(&[
            ("0.0.0.0/0", 0),
            ("10.0.0.0/8", 1),
            ("10.1.0.0/16", 2),
            ("10.1.2.0/24", 3),
        ]);
        assert_eq!(f.lookup(a("10.1.2.200")), Some(3));
        assert_eq!(f.lookup(a("10.1.3.1")), Some(2));
        assert_eq!(f.lookup(a("10.200.0.0")), Some(1));
        assert_eq!(f.lookup(a("99.0.0.1")), Some(0));
        assert_eq!(f.long_segments(), 0);
    }

    #[test]
    fn long_prefix_spills_to_tbl_long() {
        let f = fib(&[
            ("10.1.2.0/24", 3),
            ("10.1.2.128/25", 4),
            ("10.1.2.130/32", 5),
        ]);
        assert_eq!(f.long_segments(), 1);
        assert_eq!(f.lookup(a("10.1.2.1")), Some(3));
        assert_eq!(f.lookup(a("10.1.2.129")), Some(4));
        assert_eq!(f.lookup(a("10.1.2.130")), Some(5));
        assert_eq!(f.lookup(a("10.1.2.131")), Some(4));
        assert_eq!(f.lookup(a("10.1.3.0")), None);
    }

    #[test]
    fn host_route_without_covering_prefix() {
        let f = fib(&[("1.2.3.4/32", 7)]);
        assert_eq!(f.lookup(a("1.2.3.4")), Some(7));
        assert_eq!(f.lookup(a("1.2.3.5")), None);
        assert_eq!(f.lookup(a("1.2.4.4")), None);
    }

    #[test]
    fn default_route_covers_all() {
        let f = fib(&[("0.0.0.0/0", 11)]);
        assert_eq!(f.lookup(0), Some(11));
        assert_eq!(f.lookup(u32::MAX), Some(11));
    }

    #[test]
    fn slash_25_boundaries() {
        let f = fib(&[("192.0.2.0/25", 1), ("192.0.2.128/25", 2)]);
        assert_eq!(f.lookup(a("192.0.2.0")), Some(1));
        assert_eq!(f.lookup(a("192.0.2.127")), Some(1));
        assert_eq!(f.lookup(a("192.0.2.128")), Some(2));
        assert_eq!(f.lookup(a("192.0.2.255")), Some(2));
    }

    #[test]
    fn matches_reference_on_mixed_table() {
        let routes = [
            ("0.0.0.0/0", 1),
            ("128.0.0.0/1", 2),
            ("10.0.0.0/8", 3),
            ("10.128.0.0/9", 4),
            ("172.16.0.0/12", 5),
            ("192.168.0.0/16", 6),
            ("192.168.100.0/22", 7),
            ("192.168.100.64/26", 8),
            ("192.168.100.65/32", 9),
            ("255.255.255.255/32", 10),
        ];
        let table: RouteTable = routes.iter().map(|(s, h)| (p(s), *h)).collect();
        let f = Dir24_8::compile(&table).unwrap();
        // Probe a spread of addresses including boundaries of every route.
        let mut probes = vec![0u32, 1, u32::MAX, u32::MAX - 1];
        for (s, _) in &routes {
            let pre = p(s);
            probes.extend([
                pre.first(),
                pre.last(),
                pre.first().wrapping_sub(1),
                pre.last().wrapping_add(1),
            ]);
        }
        for addr in probes {
            assert_eq!(
                f.lookup(addr),
                table.lookup_reference(addr),
                "mismatch at {addr:#010x}"
            );
        }
    }

    #[test]
    fn next_hop_overflow_is_rejected() {
        let mut table = RouteTable::new();
        table.insert(p("10.0.0.0/8"), MAX_NEXT_HOP + 1);
        assert!(matches!(
            Dir24_8::compile(&table),
            Err(LookupError::NextHopTooLarge(_))
        ));
    }

    #[test]
    fn segment_index_overflow_is_refused() {
        use crate::sweep::tests::one_25_per_24;
        let full = Dir24_8::compile(&one_25_per_24(MAX_SEGMENTS)).unwrap();
        assert_eq!(full.long_segments(), MAX_SEGMENTS);
        // The last segment answers for itself, not through segment 0.
        for i in [0, 1, u32::try_from(MAX_SEGMENTS - 1).unwrap()] {
            assert_eq!(full.lookup(i << 8 | 0x80), Some((i % 5) as NextHop));
            assert_eq!(full.lookup(i << 8), None);
        }
        assert_eq!(
            Dir24_8::compile(&one_25_per_24(40_000)).err(),
            Some(LookupError::TooManySegments)
        );
    }

    #[test]
    fn max_next_hop_is_encodable() {
        let f = fib(&[
            ("10.0.0.0/8", MAX_NEXT_HOP),
            ("10.0.0.1/32", MAX_NEXT_HOP - 1),
        ]);
        assert_eq!(f.lookup(a("10.0.0.2")), Some(MAX_NEXT_HOP));
        assert_eq!(f.lookup(a("10.0.0.1")), Some(MAX_NEXT_HOP - 1));
    }

    #[test]
    fn memory_accounting_counts_both_tables() {
        let f = fib(&[("10.1.2.128/25", 4)]);
        assert_eq!(f.memory_bytes(), (TBL24_SIZE + 256) * 2);
    }

    #[test]
    fn batch_matches_scalar_on_mixed_table() {
        let f = fib(&[
            ("0.0.0.0/0", 1),
            ("10.0.0.0/8", 3),
            ("192.168.100.64/26", 8),
            ("192.168.100.65/32", 9),
        ]);
        let addrs: Vec<u32> = (0..2048u32)
            .map(|i| i.wrapping_mul(0x9e37_79b9) ^ a("192.168.100.60"))
            .chain([a("192.168.100.65"), a("10.1.1.1"), 0, u32::MAX])
            .collect();
        let mut batched = vec![None; addrs.len()];
        f.lookup_batch(&addrs, &mut batched);
        for (i, &addr) in addrs.iter().enumerate() {
            assert_eq!(batched[i], f.lookup(addr), "mismatch at {addr:#010x}");
        }
    }

    #[test]
    fn batch_of_zero_and_one() {
        let f = fib(&[("10.0.0.0/8", 2)]);
        let mut out: Vec<Option<NextHop>> = Vec::new();
        f.lookup_batch(&[], &mut out);
        let mut one = [None];
        f.lookup_batch(&[a("10.5.5.5")], &mut one);
        assert_eq!(one[0], Some(2));
    }

    #[test]
    #[should_panic(expected = "output slice too short")]
    fn batch_with_short_output_panics() {
        let f = fib(&[]);
        let mut out = [None];
        f.lookup_batch(&[1, 2], &mut out);
    }
}
