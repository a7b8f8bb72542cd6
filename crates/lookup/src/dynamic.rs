//! Incrementally updatable DIR-24-8.
//!
//! [`crate::Dir24_8`] is an immutable compile-once FIB; real routers see
//! continuous BGP churn (hundreds of updates per second in 2009).
//! [`DynamicDir24_8`] supports in-place `insert`/`remove` without a full
//! 2²⁴-entry rebuild: an update changes its RIB, then re-sweeps just the
//! updated prefix's range from it — the build's address-ordered cover
//! walk, started from the innermost route strictly covering the prefix
//! (`RouteTable::cover`). The RIB already says which route
//! covers each slot, so the tables carry nothing beside their entries:
//! no per-entry owner length, which would cost a byte per slot (16 MiB
//! for `TBL24`).

use crate::dir24_8::{segment_entry, LONG_FLAG, MAX_SEGMENTS, TBL24_SIZE};
use crate::prefix::Prefix;
use crate::sweep::sweep;
use crate::table::RouteTable;
use crate::{LookupError, LpmLookup, NextHop, MAX_NEXT_HOP};

/// Entry budget past which a [`DirtyDelta`] degrades to "clone
/// everything": copying more than this many table slots individually
/// costs about as much as the straight memcpy it was avoiding.
const DIRTY_OVERFLOW_ENTRIES: usize = 1 << 21;
/// Range/segment count budget — bounds the delta's own memory.
const DIRTY_OVERFLOW_SPANS: usize = 1 << 16;

/// The table slots rewritten since the last [`DynamicDir24_8::take_dirty`],
/// in a form a snapshot holder can replay: copy these slots from the
/// newer tables and the previous snapshot becomes current, without
/// touching the other ~16M entries.
#[derive(Debug, Clone, Default)]
pub struct DirtyDelta {
    /// Inclusive `TBL24` slot ranges rewritten.
    ranges24: Vec<(usize, usize)>,
    /// Spill-segment indices rewritten (256 entries each).
    segments: Vec<usize>,
    /// Total entries covered (clone-cost proxy).
    entries: usize,
    /// Set once the delta grew past the point where replaying it beats a
    /// full clone; the span lists are discarded when this trips.
    overflow: bool,
}

impl DirtyDelta {
    /// `true` when nothing was rewritten.
    pub fn is_empty(&self) -> bool {
        !self.overflow && self.ranges24.is_empty() && self.segments.is_empty()
    }

    /// `true` when the delta no longer describes the rewrites precisely
    /// and the holder must copy the whole table instead.
    pub fn overflow(&self) -> bool {
        self.overflow
    }

    fn trip_overflow(&mut self) {
        self.overflow = true;
        self.ranges24 = Vec::new();
        self.segments = Vec::new();
    }

    fn over_budget(&self) -> bool {
        self.entries > DIRTY_OVERFLOW_ENTRIES
            || self.ranges24.len() + self.segments.len() > DIRTY_OVERFLOW_SPANS
    }

    fn mark24(&mut self, start: usize, end: usize) {
        if self.overflow {
            return;
        }
        // Adjacent updates often touch adjacent slots; cheap coalescing
        // with the previous range keeps the span list short.
        if let Some(last) = self.ranges24.last_mut() {
            if start <= last.1.saturating_add(1) && end.saturating_add(1) >= last.0 {
                let old_span = last.1 - last.0 + 1;
                last.0 = last.0.min(start);
                last.1 = last.1.max(end);
                self.entries += last.1 - last.0 + 1 - old_span;
                if self.over_budget() {
                    self.trip_overflow();
                }
                return;
            }
        }
        self.ranges24.push((start, end));
        self.entries += end - start + 1;
        if self.over_budget() {
            self.trip_overflow();
        }
    }

    fn mark_seg(&mut self, seg: usize) {
        if self.overflow {
            return;
        }
        if self.segments.last() == Some(&seg) {
            return;
        }
        self.segments.push(seg);
        self.entries += 256;
        if self.over_budget() {
            self.trip_overflow();
        }
    }
}

/// A mutable DIR-24-8 whose tables are a function of its RIB.
pub struct DynamicDir24_8 {
    /// The authoritative route set: every table entry holds the longest
    /// route here covering it, and a `TBL24` slot spills exactly when a
    /// route here is longer than /24 inside it.
    rib: RouteTable,
    /// The lookup tables, `tbl24` and `tbl_long`, are empty only between
    /// [`DynamicDir24_8::freeze`] and [`DynamicDir24_8::thaw`].
    tbl24: Vec<u16>,
    tbl_long: Vec<u16>,
    /// Free-list of segment indices whose slots got un-spilled.
    free_segments: Vec<usize>,
    /// Slots rewritten since the last [`DynamicDir24_8::take_dirty`].
    dirty: DirtyDelta,
}

impl DynamicDir24_8 {
    /// Creates an empty FIB.
    pub fn new() -> DynamicDir24_8 {
        DynamicDir24_8 {
            rib: RouteTable::new(),
            tbl24: vec![0u16; TBL24_SIZE],
            tbl_long: Vec::new(),
            free_segments: Vec::new(),
            dirty: DirtyDelta::default(),
        }
    }

    /// Builds from a route table, which becomes the FIB's RIB as it is:
    /// nothing is copied.
    ///
    /// The same address-ordered sweep as [`crate::Dir24_8::compile`]
    /// writes every covered `TBL24` slot once into a zeroed table (no
    /// route), and each /24 holding a longer prefix spills into a segment
    /// swept the same way, in address order: an update's re-sweep over the
    /// whole address space. The dirty set starts empty: the build is the
    /// baseline a first snapshot copies whole.
    ///
    /// # Errors
    ///
    /// Returns [`LookupError::NextHopTooLarge`] for unencodable hops and
    /// [`LookupError::TooManySegments`] when the prefixes longer than /24
    /// fall in more than [`MAX_SEGMENTS`] distinct /24s.
    pub fn from_table(table: RouteTable) -> Result<DynamicDir24_8, LookupError> {
        let mut fib = DynamicDir24_8 {
            rib: table,
            ..DynamicDir24_8::new()
        };
        fib.resweep(Prefix::DEFAULT, true)?;
        fib.dirty = DirtyDelta::default();
        Ok(fib)
    }

    /// Inserts or replaces a route.
    ///
    /// # Errors
    ///
    /// Returns [`LookupError::NextHopTooLarge`] when the hop does not fit
    /// the 15-bit encoding, and [`LookupError::TooManySegments`] when a
    /// prefix longer than /24 would spill a new /24 past
    /// [`MAX_SEGMENTS`] live segments. A refused insert changes nothing.
    pub fn insert(&mut self, prefix: Prefix, hop: NextHop) -> Result<(), LookupError> {
        if hop > MAX_NEXT_HOP {
            return Err(LookupError::NextHopTooLarge(hop));
        }
        let idx24 = (prefix.first() >> 8) as usize;
        let spilled = self.tbl24[idx24] & LONG_FLAG != 0;
        if prefix.len() > 24
            && !spilled
            && self.free_segments.is_empty()
            && self.tbl_long.len() == MAX_SEGMENTS * 256
        {
            return Err(LookupError::TooManySegments);
        }
        self.rib.insert(prefix, hop);
        if prefix.len() == 24 && !spilled {
            // A flat /24 is one slot with no longer route inside it, so
            // its entry is the new hop: the re-sweep's RIB walk, which
            // costs more than the write, has nothing to find.
            self.tbl24[idx24] = hop + 1;
            self.dirty.mark24(idx24, idx24);
            return Ok(());
        }
        self.resweep(prefix, false)
    }

    /// Removes a route; returns its next hop if it existed.
    pub fn remove(&mut self, prefix: &Prefix) -> Option<NextHop> {
        let hop = self.rib.remove(prefix)?;
        // Every /24 spilled after the withdraw spilled before it, and the
        // RIB's hops were checked on the way in: the re-sweep cannot fail.
        self.resweep(*prefix, false)
            .expect("a withdraw spills no new /24");
        Some(hop)
    }

    /// Rewrites every table entry in `range` from the RIB: one sweep of
    /// the routes inside it, its stack seeded with the innermost route
    /// strictly covering it, over `range`'s `TBL24` slots, then one over
    /// each segment of a /24 that holds a longer prefix. A range longer
    /// than /24 widens to its /24, whose slot may spill or unspill.
    /// `fresh` says the range's slots are still zeroed (the build): runs no
    /// route covers are left untouched, pages and all.
    fn resweep(&mut self, range: Prefix, fresh: bool) -> Result<(), LookupError> {
        let range = Prefix::new(range.addr(), range.len().min(24));
        let first = (range.first() >> 8) as usize;
        let mut next = first;
        let mut inside = self.rib.within(range).peekable();
        // A route at `range` itself covers all of it, so what covers
        // `range` shows nowhere: only a range the RIB lacks looks for it.
        let cover = match inside.peek() {
            Some(&(&route, _)) if route == range => 0,
            _ => self.rib.cover(&range).map_or(0, |(_, hop)| hop + 1),
        };
        let (tbl24, free) = (&mut self.tbl24, &mut self.free_segments);
        let long = sweep(range, 24, cover, inside, |slots, entry| {
            let run = next..next + slots;
            next += slots;
            if fresh {
                if entry != 0 {
                    tbl24[run].fill(entry);
                }
                return;
            }
            // A spilled slot gives its segment back; those still
            // holding a longer prefix spill again below.
            let spilled = tbl24[run.clone()].iter().filter(|&&e| e & LONG_FLAG != 0);
            free.extend(spilled.map(|&e| usize::from(e & !LONG_FLAG)));
            tbl24[run].fill(entry);
        })?;
        self.dirty.mark24(first, next - 1);
        for routes in long.chunk_by(|a, b| a.0.first() >> 8 == b.0.first() >> 8) {
            let idx24 = (routes[0].0.first() >> 8) as usize;
            let background = self.tbl24[idx24];
            let mut next = self.spill(idx24)? * 256;
            let tbl_long = &mut self.tbl_long;
            sweep(
                Prefix::new(routes[0].0.addr(), 24),
                32,
                background,
                routes.iter().map(|(prefix, hop)| (prefix, hop)),
                |entries, entry| {
                    tbl_long[next..next + entries].fill(entry);
                    next += entries;
                },
            )?;
        }
        Ok(())
    }

    /// Spills flat slot `idx24` into a segment, reusing a freed one first;
    /// returns the segment id. Fails, changing nothing, when none is free
    /// and [`MAX_SEGMENTS`] are allocated.
    fn spill(&mut self, idx24: usize) -> Result<usize, LookupError> {
        let seg_index = self
            .free_segments
            .pop()
            .unwrap_or(self.tbl_long.len() / 256);
        self.tbl24[idx24] = segment_entry(seg_index)?;
        if seg_index * 256 == self.tbl_long.len() {
            self.tbl_long.resize(self.tbl_long.len() + 256, 0);
        }
        self.dirty.mark24(idx24, idx24);
        self.dirty.mark_seg(seg_index);
        Ok(seg_index)
    }

    /// Number of live spill segments.
    pub fn long_segments(&self) -> usize {
        self.tbl_long.len() / 256 - self.free_segments.len()
    }

    /// Clones the current table state into an immutable [`crate::Dir24_8`].
    /// Freed spill segments are copied as-is (they are unreachable from
    /// `TBL24`, so lookups are unaffected; the snapshot just carries a
    /// little slack memory).
    pub fn snapshot(&self) -> crate::Dir24_8 {
        crate::Dir24_8::from_parts(self.tbl24.clone(), self.tbl_long.clone(), self.rib.len())
    }

    /// Takes the accumulated dirty set — the slots rewritten since the
    /// previous call — leaving it empty.
    pub fn take_dirty(&mut self) -> DirtyDelta {
        std::mem::take(&mut self.dirty)
    }

    /// The RCU FIB's publish step: moves the lookup tables, without
    /// copying, into an immutable snapshot and takes the dirty set, the
    /// slots that differ from the previous snapshot. Until
    /// [`DynamicDir24_8::thaw`] the table has no lookup tables: only
    /// `thaw` may touch it.
    pub(crate) fn freeze(&mut self) -> (crate::Dir24_8, DirtyDelta) {
        let tbl24 = std::mem::take(&mut self.tbl24);
        let tbl_long = std::mem::take(&mut self.tbl_long);
        let frozen = crate::Dir24_8::from_parts(tbl24, tbl_long, self.rib.len());
        (frozen, self.take_dirty())
    }

    /// Gives a frozen table its lookup tables back, equal to `live`'s.
    ///
    /// `recycled` is the snapshot `live` replaced, which holds the
    /// previous generation: only the slots in `delta` (`freeze`'s dirty
    /// set) are copied from `live` into it, plus any `TBLlong` growth —
    /// O(changed slots). `None`, or a delta that overflowed, copies all
    /// of `live`.
    pub(crate) fn thaw(
        &mut self,
        recycled: Option<crate::Dir24_8>,
        live: &crate::Dir24_8,
        delta: &DirtyDelta,
    ) {
        let (live24, live_long) = live.parts();
        let whole = recycled.is_none() || delta.overflow();
        let (mut tbl24, mut tbl_long) = recycled.map_or_else(
            || (vec![0u16; TBL24_SIZE], Vec::new()),
            crate::Dir24_8::into_parts,
        );
        // TBLlong only grows, and a new segment is always dirty, so
        // zero-extending before the segment copies is enough.
        tbl_long.resize(live_long.len(), 0);
        if whole {
            tbl24.copy_from_slice(live24);
            tbl_long.copy_from_slice(live_long);
        } else {
            for &(start, end) in &delta.ranges24 {
                tbl24[start..=end].copy_from_slice(&live24[start..=end]);
            }
            for &seg in &delta.segments {
                let base = seg * 256;
                tbl_long[base..base + 256].copy_from_slice(&live_long[base..base + 256]);
            }
        }
        self.tbl24 = tbl24;
        self.tbl_long = tbl_long;
    }

    /// The authoritative route set.
    pub fn routes(&self) -> &RouteTable {
        &self.rib
    }
}

impl Default for DynamicDir24_8 {
    fn default() -> Self {
        DynamicDir24_8::new()
    }
}

impl LpmLookup for DynamicDir24_8 {
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
        self.rib.len()
    }

    fn memory_bytes(&self) -> usize {
        (self.tbl24.len() + self.tbl_long.len()) * core::mem::size_of::<u16>()
    }
}

#[cfg(test)]
impl DynamicDir24_8 {
    /// `(tbl24, tbl_long)`, for the build oracles.
    pub(crate) fn tables(&self) -> (&[u16], &[u16]) {
        (&self.tbl24, &self.tbl_long)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::tests::Tables;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn a(s: &str) -> u32 {
        u32::from(s.parse::<std::net::Ipv4Addr>().unwrap())
    }

    #[test]
    fn insert_then_lookup() {
        let mut fib = DynamicDir24_8::new();
        fib.insert(p("10.0.0.0/8"), 1).unwrap();
        fib.insert(p("10.1.0.0/16"), 2).unwrap();
        assert_eq!(fib.lookup(a("10.1.2.3")), Some(2));
        assert_eq!(fib.lookup(a("10.9.9.9")), Some(1));
        assert_eq!(fib.lookup(a("11.0.0.0")), None);
    }

    #[test]
    fn out_of_order_insertion_is_handled() {
        // Unlike the static compiler, inserts arrive in arbitrary order.
        let mut fib = DynamicDir24_8::new();
        fib.insert(p("10.1.2.0/24"), 3).unwrap();
        fib.insert(p("10.0.0.0/8"), 1).unwrap(); // Shorter, later.
        assert_eq!(fib.lookup(a("10.1.2.9")), Some(3), "longer still wins");
        assert_eq!(fib.lookup(a("10.2.0.0")), Some(1));
    }

    #[test]
    fn remove_restores_covering_route() {
        let mut fib = DynamicDir24_8::new();
        fib.insert(p("10.0.0.0/8"), 1).unwrap();
        fib.insert(p("10.1.0.0/16"), 2).unwrap();
        assert_eq!(fib.remove(&p("10.1.0.0/16")), Some(2));
        assert_eq!(fib.lookup(a("10.1.2.3")), Some(1), "falls back to /8");
        assert_eq!(fib.remove(&p("10.0.0.0/8")), Some(1));
        assert_eq!(fib.lookup(a("10.1.2.3")), None);
        assert_eq!(fib.remove(&p("10.0.0.0/8")), None, "already gone");
    }

    #[test]
    fn long_prefixes_spill_and_unspill() {
        let mut fib = DynamicDir24_8::new();
        fib.insert(p("10.1.2.0/24"), 3).unwrap();
        fib.insert(p("10.1.2.128/25"), 4).unwrap();
        assert_eq!(fib.long_segments(), 1);
        assert_eq!(fib.lookup(a("10.1.2.129")), Some(4));
        assert_eq!(fib.lookup(a("10.1.2.1")), Some(3));
        fib.remove(&p("10.1.2.128/25"));
        assert_eq!(fib.lookup(a("10.1.2.129")), Some(3));
        assert_eq!(fib.long_segments(), 0, "segment reclaimed");
        // Reuse the freed segment.
        fib.insert(p("99.0.0.1/32"), 9).unwrap();
        assert_eq!(fib.long_segments(), 1);
        assert_eq!(fib.lookup(a("99.0.0.1")), Some(9));
    }

    #[test]
    fn shorter_insert_updates_spilled_background() {
        let mut fib = DynamicDir24_8::new();
        fib.insert(p("10.1.2.128/25"), 4).unwrap();
        // Now a covering /16 arrives: the other half of the spilled /24
        // must adopt it.
        fib.insert(p("10.1.0.0/16"), 7).unwrap();
        assert_eq!(fib.lookup(a("10.1.2.1")), Some(7));
        assert_eq!(fib.lookup(a("10.1.2.200")), Some(4));
    }

    #[test]
    fn replace_route_in_place() {
        let mut fib = DynamicDir24_8::new();
        fib.insert(p("10.0.0.0/8"), 1).unwrap();
        fib.insert(p("10.0.0.0/8"), 5).unwrap();
        assert_eq!(fib.lookup(a("10.3.3.3")), Some(5));
        assert_eq!(fib.route_count(), 1);
    }

    #[test]
    fn matches_static_fib_after_churn() {
        use crate::gen::{addresses_within, generate_table, TableGenConfig};
        let table = generate_table(&TableGenConfig {
            routes: 2_000,
            long_fraction: 0.1,
            ..Default::default()
        });
        let mut dynamic = DynamicDir24_8::from_table(table.clone()).unwrap();
        // Churn: remove every 3rd route, change every 5th.
        let routes: Vec<(Prefix, NextHop)> = table.iter().map(|(p, h)| (*p, *h)).collect();
        for (i, (prefix, hop)) in routes.iter().enumerate() {
            if i % 3 == 0 {
                dynamic.remove(prefix);
            } else if i % 5 == 0 {
                dynamic.insert(*prefix, (hop + 1) % 16).unwrap();
            }
        }
        // Rebuild the reference from the surviving RIB and compare, by
        // lookup and slot for slot.
        let reference = crate::Dir24_8::compile(dynamic.routes()).unwrap();
        for addr in addresses_within(&table, 4_000, 11) {
            assert_eq!(
                dynamic.lookup(addr),
                reference.lookup(addr),
                "mismatch at {addr:#010x}"
            );
        }
        let difference = Tables::of_dynamic(&dynamic)
            .first_difference(&Tables::of_static(reference, dynamic.routes()));
        assert!(difference.is_none(), "{difference:?}");
    }

    #[test]
    fn snapshot_matches_live_table() {
        use crate::gen::{addresses_within, generate_table, TableGenConfig};
        let table = generate_table(&TableGenConfig {
            routes: 1_500,
            long_fraction: 0.1,
            ..Default::default()
        });
        let mut dynamic = DynamicDir24_8::from_table(table.clone()).unwrap();
        // Force some segment churn so the snapshot carries freed slack.
        dynamic.insert("10.1.2.128/25".parse().unwrap(), 4).unwrap();
        dynamic.remove(&"10.1.2.128/25".parse().unwrap());
        let snap = dynamic.snapshot();
        assert_eq!(snap.route_count(), dynamic.route_count());
        for addr in addresses_within(&table, 3_000, 23) {
            assert_eq!(snap.lookup(addr), dynamic.lookup(addr), "at {addr:#010x}");
        }
    }

    #[test]
    fn segment_overflow_is_refused_and_changes_nothing() {
        use crate::sweep::tests::one_25_per_24;
        assert!(matches!(
            DynamicDir24_8::from_table(one_25_per_24(40_000)),
            Err(LookupError::TooManySegments)
        ));
        let mut fib = DynamicDir24_8::from_table(one_25_per_24(MAX_SEGMENTS)).unwrap();
        assert_eq!(fib.long_segments(), MAX_SEGMENTS);
        let before = (fib.tbl24.clone(), fib.tbl_long.clone());
        let extra = Prefix::new(u32::try_from(MAX_SEGMENTS << 8).unwrap(), 26);
        assert_eq!(fib.insert(extra, 3), Err(LookupError::TooManySegments));
        assert_eq!(fib.routes().get(&extra), None, "the RIB did not take it");
        assert_eq!(fib.routes().len(), MAX_SEGMENTS);
        assert!(fib.take_dirty().is_empty(), "nothing marked dirty");
        assert!(
            before == (fib.tbl24.clone(), fib.tbl_long.clone()),
            "tables untouched"
        );
        assert_eq!(fib.lookup(extra.first()), None);
        // A /24 that already spilled still takes routes, and a freed
        // segment is reused.
        fib.insert(Prefix::new(0, 26), 6).unwrap();
        assert_eq!(fib.lookup(0x10), Some(6));
        fib.remove(&Prefix::new(1 << 8 | 0x80, 25));
        fib.insert(extra, 3).unwrap();
        assert_eq!(fib.lookup(extra.first()), Some(3));
        assert_eq!(fib.long_segments(), MAX_SEGMENTS);
    }

    #[test]
    fn segment_limit_holds_at_the_build_and_on_insert() {
        use crate::sweep::tests::one_25_per_24;
        for n in [MAX_SEGMENTS - 1, MAX_SEGMENTS, MAX_SEGMENTS + 1] {
            let routes = one_25_per_24(n);
            let built = DynamicDir24_8::from_table(routes.clone());
            let mut inserted = DynamicDir24_8::new();
            let refused: Vec<Prefix> = routes
                .iter()
                .filter(|&(&prefix, &hop)| inserted.insert(prefix, hop).is_err())
                .map(|(&prefix, _)| prefix)
                .collect();
            let (&last, &hop) = routes.iter().last().unwrap();
            assert_eq!(inserted.long_segments(), n.min(MAX_SEGMENTS), "n = {n}");
            if n <= MAX_SEGMENTS {
                let built = built.unwrap();
                assert_eq!(built.long_segments(), n);
                assert!(refused.is_empty(), "n = {n}: {refused:?}");
                for fib in [&built, &inserted] {
                    // The last segment answers for itself, not through 0.
                    assert_eq!(fib.lookup(last.first()), Some(hop), "n = {n}");
                    assert_eq!(fib.lookup(last.first() - 0x80), None, "n = {n}");
                }
            } else {
                assert!(matches!(built, Err(LookupError::TooManySegments)));
                assert_eq!(refused, [last], "only the /24 past the limit");
                assert_eq!(inserted.lookup(last.first()), None);
            }
        }
    }

    #[test]
    fn oversized_hop_rejected() {
        let mut fib = DynamicDir24_8::new();
        assert!(fib.insert(p("10.0.0.0/8"), MAX_NEXT_HOP + 1).is_err());
    }
}
