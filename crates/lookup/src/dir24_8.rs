//! DIR-24-8-BASIC longest-prefix-match (Gupta, Lin, McKeown 1998).
//!
//! The scheme the paper calls "D-lookup": a flat 2²⁴-entry first-level
//! table (`TBL24`) indexed by the top 24 destination bits, plus a spill
//! table (`TBLlong`) of 256-entry segments for the rare prefixes longer
//! than /24. Lookups cost one memory access for ≤ /24 routes and two for
//! longer ones — which is why the paper's IP-routing application stays
//! CPU-bound rather than memory-bound even at 256K routes.
//!
//! Both tables are held in 4 KiB pages of 2,048 entries, each behind an
//! `Arc`: entry `i` is `pages[i >> 11][i & 2047]`. Cloning a
//! table clones its page directory (8,192 `Arc`s for `TBL24`), not its
//! entries, and a write copies the one page it lands in when a clone
//! still shares it. That is how the RCU FIB's snapshots and its writer
//! share every page a publish did not touch ([`crate::rcu`]).
//!
//! Encoding of a `TBL24` entry (16 bits):
//!
//! * `0x0000` — no route.
//! * high bit clear — `entry - 1` is the next hop.
//! * high bit set — `entry & 0x7fff` is the index of a 256-entry `TBLlong`
//!   segment indexed by the low 8 destination bits.
//!
//! `TBLlong` entries are `0` for "no route" or `next_hop + 1`.

use crate::dynamic::{resweep, Slack};
use crate::prefetch::prefetch_read;
use crate::prefix::Prefix;
use crate::table::RouteTable;
use crate::{LookupError, LpmLookup, NextHop};
use std::ops::Range;
use std::sync::Arc;

/// Number of entries in the first-level table.
pub(crate) const TBL24_SIZE: usize = 1 << 24;

/// High bit marking a `TBL24` entry as a `TBLlong` segment index.
pub(crate) const LONG_FLAG: u16 = 0x8000;

/// Most `TBLlong` segments an entry can address: the index has the 15
/// bits below the `LONG_FLAG` bit, so one more would alias segment 0.
pub const MAX_SEGMENTS: usize = 1 << 15;

/// Entries in one page: 2,048 `u16`s, 4 KiB, the unit a snapshot shares
/// and a write copies.
pub(crate) const PAGE_ENTRIES: usize = 1 << PAGE_BITS;
const PAGE_BITS: u32 = 11;
const PAGE_MASK: usize = PAGE_ENTRIES - 1;

/// Entries in one `TBLlong` segment.
const SEGMENT_ENTRIES: usize = 256;

/// One page of a table.
pub(crate) type Page = [u16; PAGE_ENTRIES];

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

/// A table of entries in pages: a clone shares every page, and a write
/// copies the page it lands in while a clone still shares it.
#[derive(Clone)]
pub(crate) struct Pages(Vec<Arc<Page>>);

impl Pages {
    /// `pages` pages of zeros (no route), all one shared page until
    /// written.
    fn zeroed(pages: usize) -> Pages {
        let zero = Arc::new([0; PAGE_ENTRIES]);
        Pages(vec![zero; pages])
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> u16 {
        self.0[i >> PAGE_BITS][i & PAGE_MASK]
    }

    /// Hints the cache line of entry `i` in (none past the end).
    #[inline]
    fn prefetch(&self, i: usize) {
        if let Some(page) = self.0.get(i >> PAGE_BITS) {
            prefetch_read(&page[i & PAGE_MASK]);
        }
    }

    /// Page `p`, writable: first copied, into a spare page when there is
    /// one, if another table still shares it.
    fn page_mut(&mut self, p: usize, spares: &mut Vec<Arc<Page>>) -> &mut Page {
        let slot = &mut self.0[p];
        // No table makes a `Weak`, so a count of 1 is what `get_mut`
        // wants; reading it costs a load, where `get_mut` costs a CAS.
        if Arc::strong_count(slot) > 1 {
            *slot = match spares.pop() {
                Some(mut spare) => {
                    *Arc::get_mut(&mut spare).expect("a spare page is unshared") = **slot;
                    spare
                }
                None => Arc::new(**slot),
            };
        }
        Arc::get_mut(slot).expect("unshared or copied above")
    }

    /// Writes `entry` over `range`. A page whose part of the range holds
    /// `entry` already is left alone, and so stays shared.
    pub(crate) fn fill(&mut self, range: Range<usize>, entry: u16, spares: &mut Vec<Arc<Page>>) {
        let mut start = range.start;
        while start < range.end {
            let p = start >> PAGE_BITS;
            let (lo, hi) = (
                start & PAGE_MASK,
                (range.end - (p << PAGE_BITS)).min(PAGE_ENTRIES),
            );
            if self.0[p][lo..hi].iter().any(|&e| e != entry) {
                self.page_mut(p, spares)[lo..hi].fill(entry);
            }
            start = (p + 1) << PAGE_BITS;
        }
    }
}

/// A compiled DIR-24-8 forwarding table: two page directories.
#[derive(Clone)]
pub struct Dir24_8 {
    /// `TBL24`: 2²⁴ entries in 8,192 pages.
    pub(crate) tbl24: Pages,
    /// `TBLlong`: `segments` 256-entry segments, eight to a page.
    pub(crate) tbl_long: Pages,
    pub(crate) segments: usize,
    pub(crate) route_count: usize,
}

impl Dir24_8 {
    /// A table no route covers: one zero page shared by every slot.
    pub(crate) fn empty() -> Dir24_8 {
        Dir24_8 {
            tbl24: Pages::zeroed(TBL24_SIZE / PAGE_ENTRIES),
            tbl_long: Pages(Vec::new()),
            segments: 0,
            route_count: 0,
        }
    }

    /// Compiles a forwarding table from `routes`.
    ///
    /// One address-ordered sweep writes every covered `TBL24` slot once
    /// with the longest ≤ /24 prefix covering it (a table with a default
    /// route covers them all); each /24 holding a longer prefix then
    /// spills into a segment swept the same way, in address order. This
    /// is [`crate::DynamicDir24_8`]'s update over the whole address space.
    ///
    /// # Errors
    ///
    /// Returns [`LookupError::NextHopTooLarge`] when a next hop exceeds
    /// [`crate::MAX_NEXT_HOP`] (the 15-bit encoding limit), and
    /// [`LookupError::TooManySegments`] when the prefixes longer than /24
    /// fall in more than [`MAX_SEGMENTS`] distinct /24s.
    pub fn compile(routes: &RouteTable) -> Result<Dir24_8, LookupError> {
        let mut fib = Dir24_8::empty();
        resweep(&mut fib, &mut Slack::default(), routes, Prefix::DEFAULT)?;
        fib.route_count = routes.len();
        Ok(fib)
    }

    /// Appends a zeroed segment, and a page for it when the last is full.
    pub(crate) fn add_segment(&mut self) {
        if self.segments * SEGMENT_ENTRIES == self.tbl_long.0.len() * PAGE_ENTRIES {
            self.tbl_long.0.push(Arc::new([0; PAGE_ENTRIES]));
        }
        self.segments += 1;
    }

    /// Returns the number of `TBLlong` segments allocated.
    pub fn long_segments(&self) -> usize {
        self.segments
    }

    /// Every page of both tables, for the writer to take back those no
    /// other table shares.
    pub(crate) fn into_pages(self) -> impl Iterator<Item = Arc<Page>> {
        self.tbl24.0.into_iter().chain(self.tbl_long.0)
    }

    /// The `TBLlong` entry `addr` resolves to under the spilled `TBL24`
    /// entry `entry`.
    #[inline]
    fn long_index(entry: u16, addr: u32) -> usize {
        usize::from(entry & !LONG_FLAG) * SEGMENT_ENTRIES + (addr & 0xff) as usize
    }

    /// Destination addresses in a batch rarely share cache lines in a
    /// 32 MiB `TBL24`, so the resolve loop is latency-bound on DRAM.
    /// Splitting it into a prefetch pass (issue every `TBL24` line, plus
    /// the `TBLlong` line for entries already visible as spilled) and a
    /// resolve pass lets the memory system overlap the misses. The page
    /// directories (64 KiB for `TBL24`) stay cache-resident, so paging
    /// adds a cached load per access, not a miss.
    fn lookup_batch_impl(&self, addrs: &[u32], out: &mut [Option<NextHop>]) {
        assert!(out.len() >= addrs.len(), "output slice too short");
        // Pass 1: prefetch. For spilled slots the TBL24 entry must be
        // read to locate the segment — that read warms the line the
        // resolve pass needs anyway, and TBLlong lines gain the most
        // from an early hint (they are the second dependent access).
        for &addr in addrs {
            let idx = (addr >> 8) as usize;
            self.tbl24.prefetch(idx);
            if self.segments > 0 {
                let entry = self.tbl24.get(idx);
                if entry & LONG_FLAG != 0 {
                    self.tbl_long.prefetch(Dir24_8::long_index(entry, addr));
                }
            }
        }
        // Pass 2: resolve, identical logic to the scalar `lookup`.
        for (&addr, slot) in addrs.iter().zip(out.iter_mut()) {
            *slot = self.lookup(addr);
        }
    }
}

impl LpmLookup for Dir24_8 {
    #[inline]
    fn lookup(&self, addr: u32) -> Option<NextHop> {
        let entry = self.tbl24.get((addr >> 8) as usize);
        let resolved = if entry & LONG_FLAG == 0 {
            entry
        } else {
            self.tbl_long.get(Dir24_8::long_index(entry, addr))
        };
        resolved.checked_sub(1)
    }

    fn route_count(&self) -> usize {
        self.route_count
    }

    /// The entries the tables hold, counted as if no page were shared:
    /// what one full table costs.
    fn memory_bytes(&self) -> usize {
        (TBL24_SIZE + self.segments * SEGMENT_ENTRIES) * core::mem::size_of::<u16>()
    }

    fn lookup_batch(&self, addrs: &[u32], out: &mut [Option<NextHop>]) {
        self.lookup_batch_impl(addrs, out);
    }
}

#[cfg(test)]
impl Dir24_8 {
    /// Both tables as flat arrays, for the build oracles.
    pub(crate) fn flat(&self) -> (Vec<u16>, Vec<u16>) {
        let flat = |pages: &Pages, len: usize| {
            let mut out = Vec::with_capacity(pages.0.len() * PAGE_ENTRIES);
            for page in &pages.0 {
                out.extend_from_slice(&page[..]);
            }
            out.truncate(len);
            out
        };
        (
            flat(&self.tbl24, TBL24_SIZE),
            flat(&self.tbl_long, self.segments * SEGMENT_ENTRIES),
        )
    }

    /// Every page of both tables, by address, for page censuses.
    pub(crate) fn page_ptrs(&self) -> impl Iterator<Item = *const Page> + '_ {
        self.tbl24.0.iter().chain(&self.tbl_long.0).map(Arc::as_ptr)
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
