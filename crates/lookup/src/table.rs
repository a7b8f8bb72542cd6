//! The authoritative route table (RIB) that lookup structures compile from.

use crate::prefix::Prefix;
use crate::NextHop;
use std::collections::BTreeMap;

/// An authoritative set of routes: prefix → next hop.
///
/// This plays the role of the RIB; the fast lookup structures
/// ([`crate::Dir24_8`], [`crate::BinaryTrie`], …) are FIBs compiled from
/// it. Insertion and removal are cheap; compilation is where the work
/// happens, mirroring how real routers separate control-plane updates from
/// forwarding-table builds.
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    routes: BTreeMap<Prefix, NextHop>,
}

impl RouteTable {
    /// Creates an empty table.
    pub fn new() -> RouteTable {
        RouteTable::default()
    }

    /// Inserts or replaces a route; returns the previous next hop, if any.
    pub fn insert(&mut self, prefix: Prefix, next_hop: NextHop) -> Option<NextHop> {
        self.routes.insert(prefix, next_hop)
    }

    /// Removes a route; returns its next hop if it existed.
    pub fn remove(&mut self, prefix: &Prefix) -> Option<NextHop> {
        self.routes.remove(prefix)
    }

    /// Returns the next hop stored for an exact prefix.
    pub fn get(&self, prefix: &Prefix) -> Option<NextHop> {
        self.routes.get(prefix).copied()
    }

    /// Returns the number of routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Returns `true` when the table holds no routes.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Iterates over routes in prefix order: by address, then by length,
    /// so a prefix comes before every prefix it covers.
    pub fn iter(&self) -> impl Iterator<Item = (&Prefix, &NextHop)> {
        self.routes.iter()
    }

    /// Iterates over `prefix` and the routes inside it, in prefix order. A
    /// shorter route at `prefix`'s address sorts before it and stays out.
    pub(crate) fn within(&self, prefix: Prefix) -> impl Iterator<Item = (&Prefix, &NextHop)> {
        self.routes.range(prefix..=Prefix::new(prefix.last(), 32))
    }

    /// Returns the longest route strictly covering `prefix`, if any.
    ///
    /// Walking back from `prefix` in prefix order, the first route met
    /// that covers it is the longest: covers sort by address, then length.
    /// A route met that does not cover it still bounds the search: every
    /// cover sorts before it, so covers its address too, and is no longer
    /// than the bits the two addresses share. Each step is one descent of
    /// the tree, and each shortens the bound, where probing every shorter
    /// length at `prefix`'s address costs a descent per length.
    pub(crate) fn cover(&self, prefix: &Prefix) -> Option<(Prefix, NextHop)> {
        let mut len = prefix.len().checked_sub(1)?;
        loop {
            let (&route, &hop) = self
                .routes
                .range(..=Prefix::new(prefix.addr(), len))
                .next_back()?;
            if Prefix::new(prefix.addr(), route.len()) == route {
                return Some((route, hop));
            }
            len = u8::try_from((route.addr() ^ prefix.addr()).leading_zeros()).ok()?;
        }
    }

    /// Performs a reference longest-prefix-match by scanning all routes.
    ///
    /// O(n); exists as ground truth for differential tests, not for the
    /// dataplane.
    pub fn lookup_reference(&self, addr: u32) -> Option<NextHop> {
        self.routes
            .iter()
            .filter(|(p, _)| p.contains(addr))
            .max_by_key(|(p, _)| p.len())
            .map(|(_, h)| *h)
    }
}

impl FromIterator<(Prefix, NextHop)> for RouteTable {
    fn from_iter<I: IntoIterator<Item = (Prefix, NextHop)>>(iter: I) -> RouteTable {
        RouteTable {
            routes: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn insert_replace_remove() {
        let mut t = RouteTable::new();
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(&p("10.0.0.0/8")), Some(2));
        assert!(t.is_empty());
    }

    #[test]
    fn reference_lookup_prefers_longest() {
        let t: RouteTable = [
            (p("0.0.0.0/0"), 9),
            (p("10.0.0.0/8"), 1),
            (p("10.1.0.0/16"), 2),
            (p("10.1.2.0/24"), 3),
            (p("10.1.2.3/32"), 4),
        ]
        .into_iter()
        .collect();
        let a = |s: &str| u32::from(s.parse::<std::net::Ipv4Addr>().unwrap());
        assert_eq!(t.lookup_reference(a("10.1.2.3")), Some(4));
        assert_eq!(t.lookup_reference(a("10.1.2.4")), Some(3));
        assert_eq!(t.lookup_reference(a("10.1.3.0")), Some(2));
        assert_eq!(t.lookup_reference(a("10.2.0.0")), Some(1));
        assert_eq!(t.lookup_reference(a("11.0.0.0")), Some(9));
    }

    #[test]
    fn cover_is_the_longest_strict_ancestor() {
        use crate::gen::{generate_table, TableGenConfig};
        let table = generate_table(&TableGenConfig {
            routes: 3_000,
            long_fraction: 0.1,
            ..Default::default()
        });
        let probed = |prefix: &Prefix| {
            (0..prefix.len()).rev().find_map(|len| {
                let ancestor = Prefix::new(prefix.addr(), len);
                table.get(&ancestor).map(|hop| (ancestor, hop))
            })
        };
        let mut seed = 7u32;
        let mut prefixes: Vec<Prefix> = table.iter().map(|(p, _)| *p).collect();
        for len in 0..=32 {
            for _ in 0..50 {
                seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                prefixes.push(Prefix::new(seed, len));
            }
        }
        for prefix in &prefixes {
            assert_eq!(table.cover(prefix), probed(prefix), "{prefix:?}");
        }
        let with_default: RouteTable = [(Prefix::DEFAULT, 1), (p("10.0.0.0/8"), 2)]
            .into_iter()
            .collect();
        assert_eq!(with_default.cover(&Prefix::DEFAULT), None);
        assert_eq!(
            with_default.cover(&p("10.0.0.0/8")),
            Some((Prefix::DEFAULT, 1))
        );
        assert_eq!(
            with_default.cover(&p("10.1.0.0/16")),
            Some((p("10.0.0.0/8"), 2))
        );
    }

    #[test]
    fn empty_table_lookup_misses() {
        assert_eq!(RouteTable::new().lookup_reference(42), None);
    }
}
