//! Packet sinks and counters.

use crate::element::{Element, Output, PacketBatch, Ports};
use rb_telemetry::{DropCause, Ledger};

/// Drops every packet it receives.
pub struct Discard {
    dropped: u64,
    cause: DropCause,
}

impl Discard {
    /// Creates a sink reporting [`DropCause::Discarded`].
    pub fn new() -> Discard {
        Discard::with_cause(DropCause::Discarded)
    }

    /// Creates a sink reporting `cause` in its ledger — used where the
    /// sink's position gives the drop a sharper meaning than "discarded"
    /// (e.g. [`DropCause::NoRoute`] behind a routing element's miss
    /// port).
    pub fn with_cause(cause: DropCause) -> Discard {
        Discard { dropped: 0, cause }
    }

    /// Packets discarded so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Default for Discard {
    fn default() -> Self {
        Discard::new()
    }
}

impl Element for Discard {
    fn class_name(&self) -> &'static str {
        "Discard"
    }

    fn ports(&self) -> Ports {
        Ports::push(1, 0)
    }

    fn push_batch(&mut self, _port: usize, pkts: &mut PacketBatch, _out: &mut Output) {
        self.dropped += pkts.len() as u64;
        pkts.recycle();
    }

    fn ledger(&self) -> Option<Ledger> {
        let mut led = Ledger::default();
        led.add(self.cause, self.dropped);
        Some(led)
    }

    fn replicate(&self) -> Option<Box<dyn Element>> {
        Some(Box::new(Discard::with_cause(self.cause)))
    }
}

/// Snapshot of a [`Counter`]'s totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterStats {
    /// Packets seen.
    pub packets: u64,
    /// Bytes seen.
    pub bytes: u64,
}

/// Counts packets and bytes, passing them through unchanged.
///
/// Agnostic ports: works in both push paths and pull paths.
pub struct Counter {
    stats: CounterStats,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter {
            stats: CounterStats::default(),
        }
    }

    /// Current totals.
    pub fn stats(&self) -> CounterStats {
        self.stats
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

impl Element for Counter {
    fn class_name(&self) -> &'static str {
        "Counter"
    }

    fn ports(&self) -> Ports {
        Ports::agnostic(1, 1)
    }

    fn push_batch(&mut self, _port: usize, pkts: &mut PacketBatch, out: &mut Output) {
        self.stats.packets += pkts.len() as u64;
        self.stats.bytes += pkts.as_slice().iter().map(|p| p.len() as u64).sum::<u64>();
        out.push_batch(0, pkts);
    }

    fn replicate(&self) -> Option<Box<dyn Element>> {
        Some(Box::new(Counter::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::OnePacket;
    use rb_packet::Packet;

    #[test]
    fn discard_counts_drops() {
        let mut d = Discard::new();
        let mut out = Output::new();
        d.push(0, Packet::from_slice(&[0; 64]), &mut out);
        d.push(0, Packet::from_slice(&[0; 64]), &mut out);
        assert_eq!(d.dropped(), 2);
        assert!(out.is_empty());
    }

    #[test]
    fn discard_cause_shows_in_ledger_and_survives_replication() {
        let mut d = Discard::with_cause(DropCause::NoRoute);
        let mut out = Output::new();
        d.push(0, Packet::from_slice(&[0; 64]), &mut out);
        let led = d.ledger().unwrap();
        assert_eq!(led.dropped(DropCause::NoRoute), 1);
        assert_eq!(led.dropped(DropCause::Discarded), 0);
        let rep = d.replicate().unwrap();
        let rep = rep.downcast_ref::<Discard>().unwrap();
        assert_eq!(rep.cause, DropCause::NoRoute);
        assert_eq!(rep.dropped(), 0);
    }

    #[test]
    fn counter_accumulates_and_forwards() {
        let mut c = Counter::new();
        let mut out = Output::new();
        c.push(0, Packet::from_slice(&[0; 64]), &mut out);
        c.push(0, Packet::from_slice(&[0; 100]), &mut out);
        assert_eq!(
            c.stats(),
            CounterStats {
                packets: 2,
                bytes: 164
            }
        );
        assert_eq!(out.len(), 2);
    }
}
