//! The address-ordered sweep every DIR-24-8 build and update fills its
//! tables with.
//!
//! [`RouteTable`] keeps its routes in `Prefix` order, which is `(addr,
//! len)`: a prefix sorts before every prefix it covers, since those have
//! the same or a larger address and, at the same address, a longer mask;
//! and prefix ranges are laminar (nested or disjoint). Walking the table
//! in that order with a stack of the covers still open, the innermost
//! open cover of every `TBL24` slot is known the moment the walk passes
//! it, so each of the 2²⁴ slots is emitted exactly once, in slot order:
//! O(2²⁴ + routes) writes and no sort, where painting prefixes shortest
//! first costs Σ 2^(24 − len) writes. The same walk over the routes inside
//! one prefix, its stack seeded with the route strictly covering that
//! prefix, rewrites just that prefix's range: the dynamic FIB's update, at
//! `TBL24` granularity and, for a spilled /24, at address granularity.

use crate::prefix::Prefix;
use crate::{LookupError, NextHop, MAX_NEXT_HOP};

/// Walks `routes` — the routes inside `range`, in prefix order — and calls
/// `run(units, entry)` for consecutive runs of the units `range` spans, in
/// order, covering each unit once. A unit is a `TBL24` slot when
/// `unit_len` is 24 and an address (a `TBLlong` entry) when it is 32.
/// `entry` is the encoded next hop (`hop + 1`) of the longest route of at
/// most `unit_len` bits covering the run, or `cover` (the encoded route
/// strictly covering `range`, 0 for none) where no route inside does.
///
/// Returns the routes longer than `unit_len`, in prefix order, for the
/// caller's segments: each spills one `TBL24` slot, whose run has then
/// been emitted.
///
/// # Errors
///
/// Returns [`LookupError::NextHopTooLarge`] for a hop above
/// [`MAX_NEXT_HOP`], before `run` sees any unit past that route.
pub(crate) fn sweep<'a>(
    range: Prefix,
    unit_len: u8,
    cover: u16,
    routes: impl IntoIterator<Item = (&'a Prefix, &'a NextHop)>,
    mut run: impl FnMut(usize, u16),
) -> Result<Vec<(Prefix, NextHop)>, LookupError> {
    let unit = |addr: u32| (addr >> (32 - u32::from(unit_len))) as usize;
    // Covers still open, outermost first: (last unit, entry). Open covers
    // nest, so they differ in length: at most one per length from
    // `range`'s to `unit_len`, above `cover`, which spans the whole range
    // and so closes last. A fixed array: a segment's sweep allocates
    // nothing.
    let mut open = [(0usize, 0u16); 34];
    open[0] = (unit(range.last()), cover);
    let mut depth = 1;
    // First unit not emitted yet.
    let mut next = unit(range.first());
    // Emits every unit before `upto`: each open cover that ends first
    // closes on its own entry, and the gap up to `upto` takes the entry
    // of the cover still enclosing it.
    let mut advance = |open: &[(usize, u16)], depth: &mut usize, upto: usize| {
        while let Some(&(last, entry)) = open[..*depth].last() {
            if last >= upto {
                break;
            }
            if last >= next {
                run(last + 1 - next, entry);
                next = last + 1;
            }
            *depth -= 1;
        }
        if upto > next {
            run(upto - next, open[*depth - 1].1);
            next = upto;
        }
    };
    let mut long = Vec::new();
    for (&prefix, &hop) in routes {
        if hop > MAX_NEXT_HOP {
            return Err(LookupError::NextHopTooLarge(hop));
        }
        if prefix.len() > unit_len {
            long.push((prefix, hop));
            continue;
        }
        advance(&open, &mut depth, unit(prefix.first()));
        open[depth] = (unit(prefix.last()), hop + 1);
        depth += 1;
    }
    advance(&open, &mut depth, unit(range.last()) + 1);
    Ok(long)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dir24_8::{segment_entry, LONG_FLAG, TBL24_SIZE};
    use crate::table::RouteTable;
    use crate::{Dir24_8, DynamicDir24_8, LpmLookup};
    use proptest::prelude::*;

    /// `n` /25s, each in a /24 of its own: `n` spill segments.
    pub(crate) fn one_25_per_24(n: usize) -> RouteTable {
        (0u32..)
            .take(n)
            .map(|i| (Prefix::new(i << 8 | 0x80, 25), (i % 5) as NextHop))
            .collect()
    }

    /// DIR-24-8 tables with segments renumbered in slot order and the
    /// unreachable ones dropped, so that two builds which allocated
    /// segments in different orders compare slot for slot.
    #[derive(Debug, Default)]
    pub(crate) struct Tables {
        tbl24: Vec<u16>,
        tbl_long: Vec<u16>,
    }

    impl Tables {
        /// `spilled` lists the slots that should spill, ascending: those
        /// holding a prefix longer than /24. Looking only there keeps the
        /// check from scanning 2²⁴ entries per table in a debug build; a
        /// slot spilled anywhere else, or not spilled here, still differs
        /// from the reference's entry.
        fn canonical(tbl24: Vec<u16>, tbl_long: &[u16], spilled: &[usize]) -> Tables {
            let mut out = Tables {
                tbl24,
                ..Tables::default()
            };
            for &slot in spilled {
                let entry = out.tbl24[slot];
                if entry & LONG_FLAG == 0 {
                    continue;
                }
                let seg = usize::from(entry & !LONG_FLAG) * 256;
                out.tbl24[slot] = segment_entry(out.tbl_long.len() / 256).unwrap();
                out.tbl_long.extend_from_slice(&tbl_long[seg..seg + 256]);
            }
            out
        }

        pub(crate) fn of_static(fib: Dir24_8, routes: &RouteTable) -> Tables {
            let (tbl24, tbl_long) = fib.flat();
            Tables::canonical(tbl24, &tbl_long, &spilled_slots(routes))
        }

        pub(crate) fn of_dynamic(fib: &DynamicDir24_8) -> Tables {
            let (tbl24, tbl_long) = fib.tables().flat();
            Tables::canonical(tbl24, &tbl_long, &spilled_slots(fib.routes()))
        }

        /// The first entry where `self` and `other` differ, table by
        /// table.
        pub(crate) fn first_difference(&self, other: &Tables) -> Option<String> {
            fn diff<T: PartialEq + core::fmt::Debug>(
                name: &str,
                a: &[T],
                b: &[T],
            ) -> Option<String> {
                if a == b {
                    return None;
                }
                if a.len() != b.len() {
                    return Some(format!("{name}: {} entries against {}", a.len(), b.len()));
                }
                let i = a.iter().zip(b).position(|(x, y)| x != y)?;
                Some(format!("{name}[{i:#x}]: {:?} against {:?}", a[i], b[i]))
            }
            diff("tbl24", &self.tbl24, &other.tbl24)
                .or_else(|| diff("tbl_long", &self.tbl_long, &other.tbl_long))
        }
    }

    /// The slots of the prefixes longer than /24 in `routes`, ascending.
    fn spilled_slots(routes: &RouteTable) -> Vec<usize> {
        let mut slots: Vec<usize> = routes
            .iter()
            .filter(|(p, _)| p.len() > 24)
            .map(|(p, _)| (p.first() >> 8) as usize)
            .collect();
        slots.dedup();
        slots
    }

    /// The painter `Dir24_8::compile` used before the sweep: every prefix
    /// in ascending length order overwrites its whole range, so the
    /// longest cover of a slot writes last; a prefix longer than /24
    /// seeds its slot's segment from the slot on first spill.
    fn painted(routes: &RouteTable) -> Tables {
        let mut by_length: Vec<(Prefix, NextHop)> = routes.iter().map(|(p, h)| (*p, *h)).collect();
        by_length.sort_by_key(|(p, _)| (p.len(), p.addr()));
        let mut t = Tables {
            tbl24: vec![0; TBL24_SIZE],
            ..Tables::default()
        };
        for (prefix, hop) in by_length {
            let idx24 = (prefix.first() >> 8) as usize;
            if prefix.len() <= 24 {
                t.tbl24[idx24..=(prefix.last() >> 8) as usize].fill(hop + 1);
                continue;
            }
            if t.tbl24[idx24] & LONG_FLAG == 0 {
                let seg = t.tbl_long.len() / 256;
                t.tbl_long.extend(std::iter::repeat_n(t.tbl24[idx24], 256));
                t.tbl24[idx24] = segment_entry(seg).unwrap();
            }
            let base = usize::from(t.tbl24[idx24] & !LONG_FLAG) * 256;
            let entries =
                base + (prefix.first() & 0xff) as usize..=base + (prefix.last() & 0xff) as usize;
            t.tbl_long[entries].fill(hop + 1);
        }
        Tables::canonical(t.tbl24, &t.tbl_long, &spilled_slots(routes))
    }

    /// Builds `routes` with the reference painter and with both sweeps,
    /// and checks that they agree slot for slot, and with the reference
    /// scan at `probes` and around both ends of every route.
    fn check_builds_agree(
        routes: &[(Prefix, NextHop)],
        probes: &[u32],
    ) -> Result<(), TestCaseError> {
        let table: RouteTable = routes.iter().copied().collect();
        let fib = Dir24_8::compile(&table).unwrap();
        let swept = DynamicDir24_8::from_table(table.clone()).unwrap();
        let mut addrs = probes.to_vec();
        for (p, _) in routes {
            addrs.extend([
                p.first(),
                p.last(),
                p.first().wrapping_sub(1),
                p.last().wrapping_add(1),
            ]);
        }
        for &addr in &addrs {
            let expected = table.lookup_reference(addr);
            prop_assert_eq!(fib.lookup(addr), expected, "static at {:#010x}", addr);
            prop_assert_eq!(swept.lookup(addr), expected, "dynamic at {:#010x}", addr);
        }
        let reference = painted(&table);
        for (name, built) in [
            ("static sweep", Tables::of_static(fib, &table)),
            ("dynamic sweep", Tables::of_dynamic(&swept)),
        ] {
            let difference = built.first_difference(&reference);
            prop_assert!(
                difference.is_none(),
                "{} against the painter: {:?}",
                name,
                difference
            );
        }
        Ok(())
    }

    /// A route near one of a few anchors, so that generated tables nest
    /// prefixes on a shared address, put runs side by side, reach both
    /// ends of the address space and hang /25–/32s under shorter covers.
    fn route() -> impl Strategy<Value = (Prefix, NextHop)> {
        let anchor = prop_oneof![
            Just(0u32),
            Just(u32::MAX),
            Just(0x0a01_0200u32),
            any::<u32>()
        ];
        (anchor, 0u8..=32, any::<u32>(), 0u8..4, 0 as NextHop..64).prop_map(
            |(anchor, len, jitter, shape, hop)| {
                let addr = match shape {
                    // Nested on the anchor's own address.
                    0 => anchor,
                    // The sibling run right beside the anchor's prefix.
                    1 => anchor ^ 1u32.checked_shl(32 - u32::from(len)).unwrap_or(0),
                    // Somewhere in the anchor's /16.
                    2 => anchor ^ (jitter & 0xffff),
                    _ => jitter,
                };
                (Prefix::new(addr, len), hop)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn sweep_builds_match_the_painter_slot_for_slot(
            routes in prop::collection::vec(route(), 0..48),
            default_route in (any::<bool>(), 0 as NextHop..64),
            probes in prop::collection::vec(any::<u32>(), 64..65),
        ) {
            let mut routes = routes;
            routes.retain(|(p, _)| !p.is_default());
            if default_route.0 {
                routes.push((Prefix::DEFAULT, default_route.1));
            }
            check_builds_agree(&routes, &probes)?;
        }
    }

    #[test]
    fn sweep_built_and_insert_built_stay_equal_under_churn() {
        // rb-workload links this crate's non-test build, whose types differ
        // from the ones under test: prefixes cross over as (address, length).
        let full_table = rb_workload::rib_full_table(4_000, 11);
        let stream = rb_workload::churn_stream(
            &full_table,
            &rb_workload::ChurnConfig {
                updates: 6_000,
                ..Default::default()
            },
        );
        let base: RouteTable = full_table
            .iter()
            .map(|(p, h)| (Prefix::new(p.addr(), p.len()), *h))
            .collect();
        let routes: Vec<(Prefix, NextHop)> = base.iter().map(|(p, h)| (*p, *h)).collect();
        let mut swept = DynamicDir24_8::from_table(base).unwrap();
        // More-specifics before their covers: the out-of-order insert path.
        let mut inserted = DynamicDir24_8::new();
        for &(prefix, hop) in routes.iter().rev() {
            inserted.insert(prefix, hop).unwrap();
        }
        let assert_equal = |swept: &DynamicDir24_8, inserted: &DynamicDir24_8, when: &str| {
            assert!(
                swept.routes().iter().eq(inserted.routes().iter()),
                "RIBs {when}"
            );
            assert_eq!(swept.long_segments(), inserted.long_segments(), "{when}");
            let difference =
                Tables::of_dynamic(swept).first_difference(&Tables::of_dynamic(inserted));
            assert!(difference.is_none(), "{when}: {difference:?}");
        };
        assert_equal(&swept, &inserted, "after the build");
        for (i, chunk) in stream.chunks(1_500).enumerate() {
            for update in chunk {
                match *update {
                    rb_workload::RouteUpdate::Announce(p, hop) => {
                        let prefix = Prefix::new(p.addr(), p.len());
                        swept.insert(prefix, hop).unwrap();
                        inserted.insert(prefix, hop).unwrap();
                    }
                    rb_workload::RouteUpdate::Withdraw(p) => {
                        let prefix = Prefix::new(p.addr(), p.len());
                        assert_eq!(swept.remove(&prefix), inserted.remove(&prefix));
                    }
                }
            }
            assert_equal(&swept, &inserted, &format!("after churn chunk {i}"));
        }
    }
}
