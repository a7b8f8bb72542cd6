//! Incrementally updatable DIR-24-8.
//!
//! [`crate::Dir24_8`] is an immutable compile-once FIB; real routers see
//! continuous BGP churn (hundreds of updates per second in 2009).
//! [`DynamicDir24_8`] supports in-place `insert`/`remove` by keeping,
//! alongside each table entry, the *prefix length that owns it* (plus
//! one, so that a zeroed owner table, like a zeroed `TBL24`, means no
//! route). An update then only touches entries owned by shorter (insert)
//! or exactly the removed (remove) prefixes — the classic owner-tracking
//! scheme from the DIR-24-8 paper's update discussion.
//!
//! Memory: one extra byte per entry (≈16 MiB for `TBL24`), the price of
//! O(affected-range) updates instead of a full 2²⁴-entry rebuild.

use crate::dir24_8::{LONG_FLAG, MAX_SEGMENTS, TBL24_SIZE};
use crate::prefix::Prefix;
use crate::sweep::{owner_of, sweep24, NO_OWNER};
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
    ranges24: Vec<(u32, u32)>,
    /// Spill-segment indices rewritten (256 entries each).
    segments: Vec<u32>,
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

    fn mark24(&mut self, start: u32, end: u32) {
        if self.overflow {
            return;
        }
        // Adjacent updates often touch adjacent slots; cheap coalescing
        // with the previous range keeps the span list short.
        if let Some(last) = self.ranges24.last_mut() {
            if start <= last.1.saturating_add(1) && end.saturating_add(1) >= last.0 {
                let old_span = (last.1 - last.0 + 1) as usize;
                last.0 = last.0.min(start);
                last.1 = last.1.max(end);
                self.entries += (last.1 - last.0 + 1) as usize - old_span;
                if self.over_budget() {
                    self.trip_overflow();
                }
                return;
            }
        }
        self.ranges24.push((start, end));
        self.entries += (end - start + 1) as usize;
        if self.over_budget() {
            self.trip_overflow();
        }
    }

    fn mark_seg(&mut self, seg: u32) {
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

/// A mutable DIR-24-8 with owner tracking.
pub struct DynamicDir24_8 {
    /// Authoritative route set (needed to find replacement owners on
    /// remove).
    rib: RouteTable,
    /// The lookup tables, `tbl24` and `tbl_long`, are empty only between
    /// [`DynamicDir24_8::freeze`] and [`DynamicDir24_8::thaw`].
    tbl24: Vec<u16>,
    owner24: Vec<u8>,
    tbl_long: Vec<u16>,
    owner_long: Vec<u8>,
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
            owner24: vec![NO_OWNER; TBL24_SIZE],
            tbl_long: Vec::new(),
            owner_long: Vec::new(),
            free_segments: Vec::new(),
            dirty: DirtyDelta::default(),
        }
    }

    /// Builds from an existing route table.
    ///
    /// The same address-ordered sweep as [`crate::Dir24_8::compile`]
    /// writes every covered `TBL24` slot and its owner once into zeroed
    /// tables (no route, [`NO_OWNER`]), and the prefixes longer than /24
    /// spill into segments in address order; the RIB is one clone of
    /// `table`. The dirty set starts empty: the build is the baseline a
    /// first snapshot copies whole.
    ///
    /// # Errors
    ///
    /// Returns [`LookupError::NextHopTooLarge`] for unencodable hops and
    /// [`LookupError::TooManySegments`] when the prefixes longer than /24
    /// fall in more than [`MAX_SEGMENTS`] distinct /24s.
    pub fn from_table(table: &RouteTable) -> Result<DynamicDir24_8, LookupError> {
        // Zeroed from the allocator: a run no route covers is never
        // written, so its pages are never touched.
        let mut tbl24 = vec![0u16; TBL24_SIZE];
        let mut owner24 = vec![NO_OWNER; TBL24_SIZE];
        let mut next = 0;
        let long = sweep24(table, |slots, entry, owner| {
            if entry != 0 {
                tbl24[next..next + slots].fill(entry);
                owner24[next..next + slots].fill(owner);
            }
            next += slots;
        })?;
        let mut fib = DynamicDir24_8 {
            rib: table.clone(),
            tbl24,
            owner24,
            tbl_long: Vec::new(),
            owner_long: Vec::new(),
            free_segments: Vec::new(),
            dirty: DirtyDelta::default(),
        };
        for (prefix, encoded) in long {
            fib.write_long(prefix, encoded)?;
        }
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
        let encoded = hop + 1;
        let owner = owner_of(prefix.len());
        if prefix.len() <= 24 {
            let start = (prefix.first() >> 8) as usize;
            let end = (prefix.last() >> 8) as usize;
            self.dirty.mark24(start as u32, end as u32);
            for slot in start..=end {
                if self.owner24[slot] <= owner {
                    self.owner24[slot] = owner;
                    if self.tbl24[slot] & LONG_FLAG != 0 {
                        // Spilled slot: update the segment's background
                        // entries (those owned by ≤24-bit prefixes).
                        let seg_index = usize::from(self.tbl24[slot] & !LONG_FLAG);
                        self.dirty.mark_seg(seg_index as u32);
                        let seg = seg_index * 256;
                        for i in seg..seg + 256 {
                            if self.owner_long[i] <= owner {
                                self.tbl_long[i] = encoded;
                                self.owner_long[i] = owner;
                            }
                        }
                    } else {
                        self.tbl24[slot] = encoded;
                    }
                }
            }
        } else {
            self.write_long(prefix, encoded)?;
        }
        self.rib.insert(prefix, hop);
        Ok(())
    }

    /// Writes a prefix longer than /24 into its slot's segment, spilling
    /// the slot first if needed; entries owned by longer prefixes keep
    /// theirs.
    fn write_long(&mut self, prefix: Prefix, encoded: u16) -> Result<(), LookupError> {
        let idx24 = (prefix.first() >> 8) as usize;
        let seg_index = self.ensure_segment(idx24)?;
        self.dirty.mark_seg(seg_index as u32);
        let base = seg_index * 256;
        let lo_start = (prefix.first() & 0xff) as usize;
        let lo_end = (prefix.last() & 0xff) as usize;
        let owner = owner_of(prefix.len());
        for i in base + lo_start..=base + lo_end {
            if self.owner_long[i] <= owner {
                self.tbl_long[i] = encoded;
                self.owner_long[i] = owner;
            }
        }
        Ok(())
    }

    /// Removes a route; returns its next hop if it existed.
    pub fn remove(&mut self, prefix: &Prefix) -> Option<NextHop> {
        let hop = self.rib.remove(prefix)?;
        // Prefix ranges are laminar (nested or disjoint), so every entry
        // the removed prefix owned falls back to the same replacement:
        // the longest remaining strictly-shorter route covering it.
        // One RIB scan per update, not per table slot.
        let (enc, owner) = self.background_for(prefix);
        let removed = owner_of(prefix.len());
        if prefix.len() <= 24 {
            let start = (prefix.first() >> 8) as usize;
            let end = (prefix.last() >> 8) as usize;
            self.dirty.mark24(start as u32, end as u32);
            for slot in start..=end {
                if self.owner24[slot] != removed {
                    continue;
                }
                if self.tbl24[slot] & LONG_FLAG != 0 {
                    let seg_index = usize::from(self.tbl24[slot] & !LONG_FLAG);
                    self.dirty.mark_seg(seg_index as u32);
                    let seg = seg_index * 256;
                    for i in seg..seg + 256 {
                        if self.owner_long[i] == removed {
                            self.tbl_long[i] = enc;
                            self.owner_long[i] = owner;
                        }
                    }
                    self.owner24[slot] = owner;
                } else {
                    self.tbl24[slot] = enc;
                    self.owner24[slot] = owner;
                }
            }
        } else {
            let idx24 = (prefix.first() >> 8) as usize;
            if self.tbl24[idx24] & LONG_FLAG != 0 {
                let seg_index = usize::from(self.tbl24[idx24] & !LONG_FLAG);
                self.dirty.mark_seg(seg_index as u32);
                let base = seg_index * 256;
                let lo_start = (prefix.first() & 0xff) as usize;
                let lo_end = (prefix.last() & 0xff) as usize;
                for lo in lo_start..=lo_end {
                    let i = base + lo;
                    if self.owner_long[i] == removed {
                        self.tbl_long[i] = enc;
                        self.owner_long[i] = owner;
                    }
                }
                self.maybe_unspill(idx24);
            }
        }
        Some(hop)
    }

    /// Longest remaining route strictly shorter than `prefix` covering
    /// it, as `(encoded entry, owner byte)`.
    ///
    /// Any covering route is an ancestor — `prefix`'s own address masked
    /// to a shorter length — so at most `len` exact RIB probes suffice.
    /// A full-RIB scan here would make every withdraw O(routes), which
    /// caps churn at a few hundred updates/sec on a million-route table.
    fn background_for(&self, prefix: &Prefix) -> (u16, u8) {
        for len in (0..prefix.len()).rev() {
            let q = Prefix::new(prefix.addr(), len);
            if let Some(hop) = self.rib.get(&q) {
                return (hop + 1, owner_of(len));
            }
        }
        (0, NO_OWNER)
    }

    /// Ensures slot `idx24` spills to a segment; returns the segment id.
    /// Fails, changing nothing, when no segment is free and
    /// [`MAX_SEGMENTS`] are allocated.
    fn ensure_segment(&mut self, idx24: usize) -> Result<usize, LookupError> {
        if self.tbl24[idx24] & LONG_FLAG != 0 {
            return Ok(usize::from(self.tbl24[idx24] & !LONG_FLAG));
        }
        let background = self.tbl24[idx24];
        let owner = self.owner24[idx24];
        let seg_index = match self.free_segments.pop() {
            Some(seg) => seg,
            None => {
                let seg = self.tbl_long.len() / 256;
                if seg == MAX_SEGMENTS {
                    return Err(LookupError::TooManySegments);
                }
                self.tbl_long.extend(std::iter::repeat_n(0, 256));
                self.owner_long.extend(std::iter::repeat_n(NO_OWNER, 256));
                seg
            }
        };
        let base = seg_index * 256;
        for i in base..base + 256 {
            self.tbl_long[i] = background;
            self.owner_long[i] = owner;
        }
        self.tbl24[idx24] = LONG_FLAG | seg_index as u16;
        self.dirty.mark24(idx24 as u32, idx24 as u32);
        self.dirty.mark_seg(seg_index as u32);
        Ok(seg_index)
    }

    /// Releases a segment whose entries all fell back to ≤24-bit owners.
    fn maybe_unspill(&mut self, idx24: usize) {
        let seg_index = usize::from(self.tbl24[idx24] & !LONG_FLAG);
        let base = seg_index * 256;
        let all_background = self.owner_long[base..base + 256]
            .iter()
            .all(|&o| o <= owner_of(24));
        if !all_background {
            return;
        }
        // Uniform background → restore the flat TBL24 entry.
        let entry = self.tbl_long[base];
        let owner = self.owner_long[base];
        let uniform = self.tbl_long[base..base + 256].iter().all(|&e| e == entry)
            && self.owner_long[base..base + 256]
                .iter()
                .all(|&o| o == owner);
        if uniform {
            self.tbl24[idx24] = entry;
            self.owner24[idx24] = owner;
            self.dirty.mark24(idx24 as u32, idx24 as u32);
            self.free_segments.push(seg_index);
        }
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
                let (s, e) = (start as usize, end as usize);
                tbl24[s..=e].copy_from_slice(&live24[s..=e]);
            }
            for &seg in &delta.segments {
                let base = seg as usize * 256;
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
        self.tbl24.len() * 2 + self.owner24.len() + self.tbl_long.len() * 2 + self.owner_long.len()
    }
}

#[cfg(test)]
impl DynamicDir24_8 {
    /// `(tbl24, owner24, tbl_long, owner_long)`, for the build oracles.
    pub(crate) fn tables(&self) -> (&[u16], &[u8], &[u16], &[u8]) {
        (&self.tbl24, &self.owner24, &self.tbl_long, &self.owner_long)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut dynamic = DynamicDir24_8::from_table(&table).unwrap();
        // Churn: remove every 3rd route, change every 5th.
        let routes: Vec<(Prefix, NextHop)> = table.iter().map(|(p, h)| (*p, *h)).collect();
        for (i, (prefix, hop)) in routes.iter().enumerate() {
            if i % 3 == 0 {
                dynamic.remove(prefix);
            } else if i % 5 == 0 {
                dynamic.insert(*prefix, (hop + 1) % 16).unwrap();
            }
        }
        // Rebuild the reference from the surviving RIB and compare.
        let reference = crate::Dir24_8::compile(dynamic.routes()).unwrap();
        for addr in addresses_within(&table, 4_000, 11) {
            assert_eq!(
                dynamic.lookup(addr),
                reference.lookup(addr),
                "mismatch at {addr:#010x}"
            );
        }
    }

    #[test]
    fn snapshot_matches_live_table() {
        use crate::gen::{addresses_within, generate_table, TableGenConfig};
        let table = generate_table(&TableGenConfig {
            routes: 1_500,
            long_fraction: 0.1,
            ..Default::default()
        });
        let mut dynamic = DynamicDir24_8::from_table(&table).unwrap();
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
            DynamicDir24_8::from_table(&one_25_per_24(40_000)),
            Err(LookupError::TooManySegments)
        ));
        let mut fib = DynamicDir24_8::from_table(&one_25_per_24(MAX_SEGMENTS)).unwrap();
        assert_eq!(fib.long_segments(), MAX_SEGMENTS);
        let before = (fib.tbl24.clone(), fib.owner24.clone(), fib.tbl_long.clone());
        let extra = Prefix::new((MAX_SEGMENTS as u32) << 8, 26);
        assert_eq!(fib.insert(extra, 3), Err(LookupError::TooManySegments));
        assert_eq!(fib.routes().get(&extra), None, "the RIB did not take it");
        assert_eq!(fib.routes().len(), MAX_SEGMENTS);
        assert!(fib.take_dirty().is_empty(), "nothing marked dirty");
        assert!(
            before == (fib.tbl24.clone(), fib.owner24.clone(), fib.tbl_long.clone()),
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
    fn oversized_hop_rejected() {
        let mut fib = DynamicDir24_8::new();
        assert!(fib.insert(p("10.0.0.0/8"), MAX_NEXT_HOP + 1).is_err());
    }
}
