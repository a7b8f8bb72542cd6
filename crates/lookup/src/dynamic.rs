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
//!
//! The tables are a [`crate::Dir24_8`], whose pages a
//! [`DynamicDir24_8::snapshot`] shares: a write copies the page it lands
//! in while a snapshot still holds it, and writes in place once none
//! does.

use crate::dir24_8::{segment_entry, Dir24_8, Page, LONG_FLAG, MAX_SEGMENTS};
use crate::prefix::Prefix;
use crate::sweep::sweep;
use crate::table::RouteTable;
use crate::{LookupError, LpmLookup, NextHop, MAX_NEXT_HOP};
use std::sync::Arc;

/// What a writer reuses beside its tables.
#[derive(Default)]
pub(crate) struct Slack {
    /// Segment indices whose slots got un-spilled.
    segments: Vec<usize>,
    /// Pages no table shares any more, for the next copies: a writer on
    /// another thread than the build then copies into the memory the
    /// build allocated instead of growing its own thread's heap.
    pages: Vec<Arc<Page>>,
}

/// A mutable DIR-24-8 whose tables are a function of its RIB.
pub struct DynamicDir24_8 {
    /// The authoritative route set: every table entry holds the longest
    /// route here covering it, and a `TBL24` slot spills exactly when a
    /// route here is longer than /24 inside it.
    rib: RouteTable,
    /// The lookup tables.
    fib: Dir24_8,
    slack: Slack,
}

impl DynamicDir24_8 {
    /// Creates an empty FIB.
    pub fn new() -> DynamicDir24_8 {
        DynamicDir24_8 {
            rib: RouteTable::new(),
            fib: Dir24_8::empty(),
            slack: Slack::default(),
        }
    }

    /// Builds from a route table, which becomes the FIB's RIB as it is:
    /// nothing is copied. The tables are built as
    /// [`crate::Dir24_8::compile`] builds them.
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
        resweep(&mut fib.fib, &mut fib.slack, &fib.rib, Prefix::DEFAULT)?;
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
        let spilled = self.fib.tbl24.get(idx24) & LONG_FLAG != 0;
        if prefix.len() > 24
            && !spilled
            && self.slack.segments.is_empty()
            && self.fib.segments == MAX_SEGMENTS
        {
            return Err(LookupError::TooManySegments);
        }
        self.rib.insert(prefix, hop);
        if prefix.len() == 24 && !spilled {
            // A flat /24 is one slot with no longer route inside it, so
            // its entry is the new hop: the re-sweep's RIB walk, which
            // costs more than the write, has nothing to find.
            let (tbl24, spares) = (&mut self.fib.tbl24, &mut self.slack.pages);
            tbl24.fill(idx24..idx24 + 1, hop + 1, spares);
            return Ok(());
        }
        resweep(&mut self.fib, &mut self.slack, &self.rib, prefix)
    }

    /// Removes a route; returns its next hop if it existed.
    pub fn remove(&mut self, prefix: &Prefix) -> Option<NextHop> {
        let hop = self.rib.remove(prefix)?;
        // Every /24 spilled after the withdraw spilled before it, and the
        // RIB's hops were checked on the way in: the re-sweep cannot fail.
        resweep(&mut self.fib, &mut self.slack, &self.rib, *prefix)
            .expect("a withdraw spills no new /24");
        Some(hop)
    }

    /// Number of live spill segments.
    pub fn long_segments(&self) -> usize {
        self.fib.segments - self.slack.segments.len()
    }

    /// The current tables as an immutable [`crate::Dir24_8`] that shares
    /// every page with them: a clone of the two page directories, no
    /// entry copied. Freed spill segments come along (they are
    /// unreachable from `TBL24`, so lookups are unaffected).
    pub fn snapshot(&self) -> Dir24_8 {
        Dir24_8 {
            route_count: self.rib.len(),
            ..self.fib.clone()
        }
    }

    /// Takes back the pages of a snapshot nothing else reads any more that
    /// these tables no longer share, as spares for the next copies; the
    /// rest of its pages are dropped.
    ///
    /// The writer keeps no more spares than one snapshot gives back: the
    /// pages it replaced, about what the next batch of updates copies.
    pub(crate) fn recycle(&mut self, snapshot: Dir24_8) {
        let unshared: Vec<Arc<Page>> = snapshot
            .into_pages()
            .filter(|page| Arc::strong_count(page) == 1)
            .collect();
        if unshared.len() > self.slack.pages.len() {
            self.slack.pages = unshared;
        }
    }

    /// The authoritative route set.
    pub fn routes(&self) -> &RouteTable {
        &self.rib
    }
}

/// Rewrites every entry of `fib` in `range` from `rib`: one sweep of the
/// routes inside it, its stack seeded with the innermost route strictly
/// covering it, over `range`'s `TBL24` slots, then one over each segment
/// of a /24 that holds a longer prefix. A range longer than /24 widens to
/// its /24, whose slot may spill or unspill. Over [`Prefix::DEFAULT`] and
/// an empty table, it is the build.
pub(crate) fn resweep(
    fib: &mut Dir24_8,
    slack: &mut Slack,
    rib: &RouteTable,
    range: Prefix,
) -> Result<(), LookupError> {
    let range = Prefix::new(range.addr(), range.len().min(24));
    let mut next = (range.first() >> 8) as usize;
    let mut inside = rib.within(range).peekable();
    // A route at `range` itself covers all of it, so what covers
    // `range` shows nowhere: only a range the RIB lacks looks for it.
    let cover = match inside.peek() {
        Some(&(&route, _)) if route == range => 0,
        _ => rib.cover(&range).map_or(0, |(_, hop)| hop + 1),
    };
    // Only a table with a live segment has a spilled slot to look for.
    let any_spilled = fib.segments > slack.segments.len();
    let long = sweep(range, 24, cover, inside, |slots, entry| {
        let run = next..next + slots;
        next += slots;
        if any_spilled {
            // A spilled slot gives its segment back; those still
            // holding a longer prefix spill again below.
            let spilled = run.clone().map(|i| fib.tbl24.get(i));
            let spilled = spilled.filter(|&e| e & LONG_FLAG != 0);
            slack
                .segments
                .extend(spilled.map(|e| usize::from(e & !LONG_FLAG)));
        }
        fib.tbl24.fill(run, entry, &mut slack.pages);
    })?;
    for routes in long.chunk_by(|a, b| a.0.first() >> 8 == b.0.first() >> 8) {
        let idx24 = (routes[0].0.first() >> 8) as usize;
        let background = fib.tbl24.get(idx24);
        let mut next = spill(fib, slack, idx24)? * 256;
        sweep(
            Prefix::new(routes[0].0.addr(), 24),
            32,
            background,
            routes.iter().map(|(prefix, hop)| (prefix, hop)),
            |entries, entry| {
                fib.tbl_long
                    .fill(next..next + entries, entry, &mut slack.pages);
                next += entries;
            },
        )?;
    }
    Ok(())
}

/// Spills flat slot `idx24` into a segment, reusing a freed one first;
/// returns the segment id. Fails, changing nothing, when none is free
/// and [`MAX_SEGMENTS`] are allocated.
fn spill(fib: &mut Dir24_8, slack: &mut Slack, idx24: usize) -> Result<usize, LookupError> {
    let seg_index = slack.segments.pop().unwrap_or(fib.segments);
    let entry = segment_entry(seg_index)?;
    fib.tbl24.fill(idx24..idx24 + 1, entry, &mut slack.pages);
    if seg_index == fib.segments {
        fib.add_segment();
    }
    Ok(seg_index)
}

impl Default for DynamicDir24_8 {
    fn default() -> Self {
        DynamicDir24_8::new()
    }
}

impl LpmLookup for DynamicDir24_8 {
    #[inline]
    fn lookup(&self, addr: u32) -> Option<NextHop> {
        self.fib.lookup(addr)
    }

    fn route_count(&self) -> usize {
        self.rib.len()
    }

    fn memory_bytes(&self) -> usize {
        self.fib.memory_bytes()
    }
}

#[cfg(test)]
impl DynamicDir24_8 {
    /// The lookup tables, for the build oracles and page censuses.
    pub(crate) fn tables(&self) -> &Dir24_8 {
        &self.fib
    }

    /// The spare pages held for the next copies, by address.
    pub(crate) fn spare_ptrs(&self) -> impl Iterator<Item = *const Page> + '_ {
        self.slack.pages.iter().map(Arc::as_ptr)
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
        // The snapshot shares every page, so a write would copy one.
        let before = fib.snapshot();
        let extra = Prefix::new(u32::try_from(MAX_SEGMENTS << 8).unwrap(), 26);
        assert_eq!(fib.insert(extra, 3), Err(LookupError::TooManySegments));
        assert_eq!(fib.routes().get(&extra), None, "the RIB did not take it");
        assert_eq!(fib.routes().len(), MAX_SEGMENTS);
        assert!(
            before.page_ptrs().eq(fib.tables().page_ptrs()),
            "tables untouched: no page copied"
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
