//! Binary-trie LPM: the classic baseline DIR-24-8 is measured against.

use crate::prefix::Prefix;
use crate::table::RouteTable;
use crate::{LpmLookup, NextHop};

/// One trie node: two children plus an optional stored next hop.
#[derive(Debug, Clone, Default)]
struct Node {
    /// Children indexed by the next address bit; `u32::MAX` = absent.
    children: [u32; 2],
    /// Next hop stored at this node, `encoded + 1` (0 = none).
    next_hop: u16,
}

/// Sentinel for "no child".
const NONE: u32 = u32::MAX;

/// A one-bit-at-a-time binary trie over IPv4 prefixes.
///
/// Lookup walks up to 32 levels, remembering the deepest next hop seen —
/// up to 32 dependent memory accesses versus DIR-24-8's one or two, which
/// is exactly the contrast the `lpm` benchmark quantifies.
pub struct BinaryTrie {
    nodes: Vec<Node>,
    route_count: usize,
}

impl BinaryTrie {
    /// Builds a trie from `routes`.
    pub fn compile(routes: &RouteTable) -> BinaryTrie {
        let mut trie = BinaryTrie {
            nodes: vec![Node {
                children: [NONE, NONE],
                next_hop: 0,
            }],
            route_count: routes.len(),
        };
        for (prefix, next_hop) in routes.iter() {
            trie.insert(*prefix, *next_hop);
        }
        trie
    }

    /// Inserts one prefix, creating intermediate nodes as needed.
    fn insert(&mut self, prefix: Prefix, next_hop: NextHop) {
        let mut node = 0usize;
        for depth in 0..prefix.len() {
            let bit = ((prefix.addr() >> (31 - depth)) & 1) as usize;
            let child = self.nodes[node].children[bit];
            node = if child == NONE {
                let idx = self.nodes.len();
                self.nodes.push(Node {
                    children: [NONE, NONE],
                    next_hop: 0,
                });
                self.nodes[node].children[bit] =
                    u32::try_from(idx).expect("2³² trie nodes outgrow memory first");
                idx
            } else {
                child as usize
            };
        }
        self.nodes[node].next_hop = next_hop + 1;
    }

    /// Returns the number of trie nodes (for memory studies).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

impl LpmLookup for BinaryTrie {
    fn lookup(&self, addr: u32) -> Option<NextHop> {
        let mut node = 0usize;
        let mut best = 0u16;
        for depth in 0..32 {
            let stored = self.nodes[node].next_hop;
            if stored != 0 {
                best = stored;
            }
            let bit = ((addr >> (31 - depth)) & 1) as usize;
            let child = self.nodes[node].children[bit];
            if child == NONE {
                break;
            }
            node = child as usize;
        }
        // A /32 match is only visible at the leaf itself.
        let stored = self.nodes[node].next_hop;
        if stored != 0 {
            best = stored;
        }
        if best == 0 {
            None
        } else {
            Some(best - 1)
        }
    }

    fn route_count(&self) -> usize {
        self.route_count
    }

    fn memory_bytes(&self) -> usize {
        self.nodes.len() * core::mem::size_of::<Node>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> u32 {
        u32::from(s.parse::<std::net::Ipv4Addr>().unwrap())
    }

    fn trie(routes: &[(&str, NextHop)]) -> BinaryTrie {
        let table: RouteTable = routes
            .iter()
            .map(|(s, h)| (s.parse().unwrap(), *h))
            .collect();
        BinaryTrie::compile(&table)
    }

    #[test]
    fn empty_trie_misses() {
        assert_eq!(trie(&[]).lookup(123), None);
    }

    #[test]
    fn longest_match_wins() {
        let t = trie(&[("10.0.0.0/8", 1), ("10.1.0.0/16", 2), ("10.1.2.3/32", 3)]);
        assert_eq!(t.lookup(a("10.1.2.3")), Some(3));
        assert_eq!(t.lookup(a("10.1.2.4")), Some(2));
        assert_eq!(t.lookup(a("10.99.0.0")), Some(1));
        assert_eq!(t.lookup(a("11.0.0.0")), None);
    }

    #[test]
    fn default_route_matches_everything() {
        let t = trie(&[("0.0.0.0/0", 5)]);
        assert_eq!(t.lookup(0), Some(5));
        assert_eq!(t.lookup(u32::MAX), Some(5));
    }

    #[test]
    fn host_route_at_all_ones() {
        let t = trie(&[("255.255.255.255/32", 1)]);
        assert_eq!(t.lookup(u32::MAX), Some(1));
        assert_eq!(t.lookup(u32::MAX - 1), None);
    }

    #[test]
    fn node_count_grows_with_depth() {
        let shallow = trie(&[("128.0.0.0/1", 1)]);
        let deep = trie(&[("1.2.3.4/32", 1)]);
        assert!(deep.node_count() > shallow.node_count());
    }
}
