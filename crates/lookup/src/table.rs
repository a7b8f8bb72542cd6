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
    fn empty_table_lookup_misses() {
        assert_eq!(RouteTable::new().lookup_reference(42), None);
    }
}
