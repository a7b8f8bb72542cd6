//! IPv4 route lookup element.

use crate::element::{Element, Output, PacketBatch, Ports};
use crate::ConfigError;
use rb_lookup::{FibReader, LpmLookup, NextHop, Prefix, RcuFib, RouteTable};
use rb_packet::ethernet::HEADER_LEN as ETH_HLEN;
use rb_packet::ipv4::fast;
use rb_packet::Packet;

/// Longest-prefix-match routing: sends each packet to the output port
/// named by its route's next hop.
///
/// The last output port is the drop port for packets with no route (and
/// unparseable ones). Every instance reads an [`rb_lookup::RcuFib`]
/// through its own [`FibReader`], so many forwarding paths — one per
/// core, as in §4.2 — share one FIB without copies, and a control-plane
/// thread may update it live through the FIB's
/// [`rb_lookup::RouteControl`].
///
/// Batches take the three-pass path: destination extraction across the
/// whole batch, one `lookup_batch` under a single epoch pin (prefetched),
/// then emission. The scalar `push` delegates to the batched
/// implementation with a batch of one.
pub struct LookupIPRoute {
    reader: FibReader,
    n_hops: usize,
    offset: usize,
    lookups: u64,
    misses: u64,
    // Scratch for the batch pipeline, reused across dispatches.
    dsts: Vec<u32>,
    parsed: Vec<bool>,
    hops: Vec<Option<NextHop>>,
}

impl LookupIPRoute {
    /// Creates the element over an [`rb_lookup::RcuFib`], reading through
    /// `reader`, with next hops in `0..n_hops`; the element gets
    /// `n_hops + 1` outputs (last = drop). Each batch pins the reader's
    /// epoch once and resolves the whole batch against that snapshot.
    pub fn new_rcu(reader: FibReader, n_hops: usize) -> LookupIPRoute {
        assert!(n_hops > 0, "need at least one next hop");
        LookupIPRoute {
            reader,
            n_hops,
            offset: ETH_HLEN,
            lookups: 0,
            misses: 0,
            dsts: Vec::new(),
            parsed: Vec::new(),
            hops: Vec::new(),
        }
    }

    /// Builds the element from Click-style inline routes:
    /// `"10.0.0.0/8 0, 192.168.0.0/16 1, 0.0.0.0/0 2"`, over an
    /// [`rb_lookup::RcuFib`] of its own (no control handle escapes: the
    /// routes stay as given).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadArguments`] on malformed routes.
    pub fn from_spec(spec: &str) -> Result<LookupIPRoute, ConfigError> {
        let bad = |message: String| ConfigError::BadArguments {
            class: "LookupIPRoute".into(),
            message,
        };
        let mut table = RouteTable::new();
        let mut max_hop = 0u16;
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (prefix_s, hop_s) = entry
                .rsplit_once(char::is_whitespace)
                .ok_or_else(|| bad(format!("route `{entry}` needs `prefix port`")))?;
            let prefix: Prefix = prefix_s
                .trim()
                .parse()
                .map_err(|e| bad(format!("route `{entry}`: {e}")))?;
            let hop: u16 = hop_s
                .parse()
                .map_err(|_| bad(format!("route `{entry}`: bad port")))?;
            max_hop = max_hop.max(hop);
            table.insert(prefix, hop);
        }
        if table.is_empty() {
            return Err(bad("no routes given".into()));
        }
        let fib = RcuFib::from_table(table).map_err(|e| bad(e.to_string()))?;
        Ok(LookupIPRoute::new_rcu(
            fib.reader(),
            usize::from(max_hop) + 1,
        ))
    }

    /// (lookups, misses) so far.
    pub fn counts(&self) -> (u64, u64) {
        (self.lookups, self.misses)
    }
}

impl Element for LookupIPRoute {
    fn class_name(&self) -> &'static str {
        "LookupIPRoute"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn ports(&self) -> Ports {
        Ports::push(1, self.n_hops + 1)
    }

    fn push(&mut self, port: usize, pkt: Packet, out: &mut Output) {
        // The scalar path is the batched path with a batch of one, so
        // the lookup logic exists exactly once.
        let mut batch = PacketBatch::from_vec(vec![pkt]);
        self.push_batch(port, &mut batch, out);
    }

    fn push_batch(&mut self, _port: usize, pkts: &mut PacketBatch, out: &mut Output) {
        let n = pkts.len();
        // Pass 1: extract every destination before any table touch, so
        // the header parses (cheap, cache-resident) don't interleave
        // with the FIB's DRAM misses.
        self.dsts.clear();
        self.parsed.clear();
        for pkt in pkts.as_slice() {
            match pkt
                .data()
                .get(self.offset..)
                .and_then(|ip| fast::dst(ip).ok())
            {
                Some(dst) => {
                    self.dsts.push(dst);
                    self.parsed.push(true);
                }
                None => {
                    // Placeholder keeps the batch positional; the result
                    // is overridden to a miss below.
                    self.dsts.push(0);
                    self.parsed.push(false);
                }
            }
        }
        // Pass 2: resolve the whole batch — prefetched, under one epoch
        // pin (one store to the reader's own line per batch).
        self.hops.clear();
        self.hops.resize(n, None);
        self.reader.pin().lookup_batch(&self.dsts, &mut self.hops);
        // Pass 3: emit.
        let (n_hops, drop_port) = (self.n_hops, self.n_hops);
        let mut misses = 0u64;
        for (i, mut pkt) in pkts.drain().enumerate() {
            let hop = if self.parsed[i] { self.hops[i] } else { None };
            match hop {
                Some(h) if usize::from(h) < n_hops => {
                    pkt.meta.output_port = Some(h);
                    out.push(usize::from(h), pkt);
                }
                _ => {
                    misses += 1;
                    out.push(drop_port, pkt);
                }
            }
        }
        self.lookups += n as u64;
        self.misses += misses;
    }

    fn replicate(&self) -> Option<Box<dyn Element>> {
        // The FIB is the canonical shared read-only structure: every
        // core's replica reads the same table, as Click threads share
        // one routing table. Each replica forks a reader with a fresh
        // epoch slot (per-core announcement state must not be shared).
        // Counters start fresh.
        Some(Box::new(LookupIPRoute::new_rcu(
            self.reader.fork(),
            self.n_hops,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_packet::builder::PacketSpec;

    fn pkt_to(dst: &str) -> Packet {
        PacketSpec::udp().dst(&format!("{dst}:80")).unwrap().build()
    }

    #[test]
    fn routes_by_longest_prefix() {
        let mut rt = LookupIPRoute::from_spec("10.0.0.0/8 0, 10.1.0.0/16 1, 0.0.0.0/0 2").unwrap();
        let mut out = Output::new();
        rt.push(0, pkt_to("10.2.3.4"), &mut out);
        rt.push(0, pkt_to("10.1.3.4"), &mut out);
        rt.push(0, pkt_to("8.8.8.8"), &mut out);
        let ports: Vec<usize> = out.drain().map(|(p, _)| p).collect();
        assert_eq!(ports, vec![0, 1, 2]);
        assert_eq!(rt.counts(), (3, 0));
    }

    #[test]
    fn missing_route_goes_to_drop_port() {
        let mut rt = LookupIPRoute::from_spec("10.0.0.0/8 0").unwrap();
        let mut out = Output::new();
        rt.push(0, pkt_to("11.0.0.1"), &mut out);
        // One next hop → drop port is 1.
        assert_eq!(out.drain().next().unwrap().0, 1);
        assert_eq!(rt.counts(), (1, 1));
    }

    #[test]
    fn annotation_records_output_port() {
        let mut rt = LookupIPRoute::from_spec("10.0.0.0/8 3, 0.0.0.0/0 0").unwrap();
        let mut out = Output::new();
        rt.push(0, pkt_to("10.9.9.9"), &mut out);
        let (_, pkt) = out.drain().next().unwrap();
        assert_eq!(pkt.meta.output_port, Some(3));
    }

    #[test]
    fn bad_specs_rejected() {
        assert!(LookupIPRoute::from_spec("").is_err());
        assert!(LookupIPRoute::from_spec("10.0.0.0/8").is_err());
        assert!(LookupIPRoute::from_spec("not-a-prefix 0").is_err());
        assert!(LookupIPRoute::from_spec("10.0.0.0/8 zz").is_err());
    }

    #[test]
    fn runt_packet_is_dropped() {
        let mut rt = LookupIPRoute::from_spec("0.0.0.0/0 0").unwrap();
        let mut out = Output::new();
        rt.push(0, Packet::from_slice(&[0u8; 10]), &mut out);
        assert_eq!(out.drain().next().unwrap().0, 1);
    }

    #[test]
    fn batch_path_matches_scalar_path() {
        let spec = "10.0.0.0/8 0, 10.1.0.0/16 1, 192.168.0.0/16 2, 0.0.0.0/0 3";
        let dsts = [
            "10.2.3.4",
            "10.1.99.1",
            "192.168.7.7",
            "8.8.8.8",
            "10.1.0.0",
        ];
        let mut scalar_rt = LookupIPRoute::from_spec(spec).unwrap();
        let mut scalar_out = Output::new();
        for d in dsts {
            scalar_rt.push(0, pkt_to(d), &mut scalar_out);
        }
        let mut batch_rt = LookupIPRoute::from_spec(spec).unwrap();
        let mut batch_out = Output::new();
        let mut batch = PacketBatch::from_vec(dsts.iter().map(|d| pkt_to(d)).collect());
        batch_rt.push_batch(0, &mut batch, &mut batch_out);
        let scalar: Vec<(usize, Vec<u8>)> = scalar_out
            .drain()
            .map(|(p, pkt)| (p, pkt.data().to_vec()))
            .collect();
        let batched: Vec<(usize, Vec<u8>)> = batch_out
            .drain()
            .map(|(p, pkt)| (p, pkt.data().to_vec()))
            .collect();
        assert_eq!(scalar, batched);
        assert_eq!(scalar_rt.counts(), batch_rt.counts());
    }

    #[test]
    fn rcu_backed_element_sees_published_updates() {
        let mut table = RouteTable::new();
        table.insert("0.0.0.0/0".parse().unwrap(), 0);
        let fib = RcuFib::new(&table).unwrap();
        let ctl = fib.control();
        let mut rt = LookupIPRoute::new_rcu(fib.reader(), 3);
        let mut out = Output::new();
        rt.push(0, pkt_to("10.5.5.5"), &mut out);
        assert_eq!(out.drain().next().unwrap().0, 0, "default route");
        ctl.insert("10.0.0.0/8".parse().unwrap(), 2).unwrap();
        rt.push(0, pkt_to("10.5.5.5"), &mut out);
        assert_eq!(out.drain().next().unwrap().0, 0, "not yet published");
        ctl.publish();
        rt.push(0, pkt_to("10.5.5.5"), &mut out);
        assert_eq!(out.drain().next().unwrap().0, 2, "published route wins");
    }

    #[test]
    fn rcu_replica_gets_its_own_reader() {
        let mut table = RouteTable::new();
        table.insert("0.0.0.0/0".parse().unwrap(), 0);
        let fib = RcuFib::new(&table).unwrap();
        let rt = LookupIPRoute::new_rcu(fib.reader(), 2);
        let mut replica = rt.replicate().expect("replicable");
        let rep = replica
            .as_any_mut()
            .downcast_mut::<LookupIPRoute>()
            .unwrap();
        let mut out = Output::new();
        rep.push(0, pkt_to("1.2.3.4"), &mut out);
        assert_eq!(out.drain().next().unwrap().0, 0);
        assert_eq!(rep.counts(), (1, 0), "fresh counters");
        // Both the original and the replica can pin concurrently (they
        // hold distinct epoch slots).
        let mut out2 = Output::new();
        let mut orig = rt;
        orig.push(0, pkt_to("1.2.3.4"), &mut out2);
        assert_eq!(out2.drain().next().unwrap().0, 0);
    }
}
