//! The bounded packet queue: the push-to-pull boundary.
//!
//! As in Click, `Queue` is where a push path ends and a pull path begins;
//! it is also the only element that drops packets under overload
//! (drop-tail), which is what makes loss-free-rate measurements
//! meaningful.

use crate::element::{Element, Output, PacketBatch, PortKind, Ports};
use rb_packet::Packet;
use rb_telemetry::{DropCause, Ledger};
use std::collections::VecDeque;

/// Statistics kept by a [`Queue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Packets accepted.
    pub enqueued: u64,
    /// Packets handed downstream.
    pub dequeued: u64,
    /// Packets dropped because the queue was full.
    pub dropped: u64,
    /// Largest occupancy observed.
    pub high_water: usize,
}

/// A bounded drop-tail FIFO with a push input and a pull output.
pub struct Queue {
    buf: VecDeque<Packet>,
    capacity: usize,
    stats: QueueStats,
}

impl Queue {
    /// Click's default queue capacity.
    pub const DEFAULT_CAPACITY: usize = 1000;

    /// Creates a queue bounded at `capacity` packets, stored on demand.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity — a queue that can hold nothing is a
    /// configuration error.
    pub fn new(capacity: usize) -> Queue {
        assert!(capacity > 0, "queue capacity must be positive");
        Queue {
            buf: VecDeque::new(),
            capacity,
            stats: QueueStats::default(),
        }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` when the queue holds no packets.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

impl Default for Queue {
    fn default() -> Self {
        Queue::new(Self::DEFAULT_CAPACITY)
    }
}

impl Element for Queue {
    fn class_name(&self) -> &'static str {
        "Queue"
    }

    fn ports(&self) -> Ports {
        Ports {
            inputs: vec![PortKind::Push],
            outputs: vec![PortKind::Pull],
        }
    }

    fn push_batch(&mut self, _port: usize, pkts: &mut PacketBatch, _out: &mut Output) {
        // One free-space computation and one stats update for the whole
        // batch: the first `accept` packets fit, the rest are drop-tail.
        let free = self.capacity.saturating_sub(self.buf.len());
        let accept = pkts.len().min(free);
        let mut packets = pkts.drain();
        self.buf.extend(packets.by_ref().take(accept));
        let dropped = packets.count();
        self.stats.enqueued += accept as u64;
        self.stats.dropped += dropped as u64;
        self.stats.high_water = self.stats.high_water.max(self.buf.len());
    }

    fn pull_batch(&mut self, _port: usize, max: usize, into: &mut PacketBatch) -> usize {
        let n = max.min(self.buf.len());
        into.extend(self.buf.drain(..n));
        self.stats.dequeued += n as u64;
        n
    }

    fn pull_backlog(&self, _port: usize) -> Option<(usize, usize)> {
        Some((self.buf.len(), self.capacity - self.buf.len()))
    }

    fn ledger(&self) -> Option<Ledger> {
        let mut led = Ledger {
            in_flight: self.buf.len() as u64,
            ..Ledger::default()
        };
        led.add(DropCause::QueueOverflow, self.stats.dropped);
        Some(led)
    }

    fn replicate(&self) -> Option<Box<dyn Element>> {
        // Same capacity, empty buffer: each core owns its own queue (the
        // "one core per queue" rule), so buffered packets stay put.
        Some(Box::new(Queue::new(self.capacity)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::OnePacket;

    #[test]
    fn fifo_order() {
        let mut q = Queue::new(10);
        let mut out = Output::new();
        q.push(0, Packet::from_slice(&[1]), &mut out);
        q.push(0, Packet::from_slice(&[2]), &mut out);
        assert_eq!(q.pull(0).unwrap().data(), &[1]);
        assert_eq!(q.pull(0).unwrap().data(), &[2]);
        assert!(q.pull(0).is_none());
    }

    #[test]
    fn drop_tail_on_overflow() {
        let mut q = Queue::new(2);
        let mut out = Output::new();
        for i in 0..5u8 {
            q.push(0, Packet::from_slice(&[i]), &mut out);
        }
        let s = q.stats();
        assert_eq!(s.enqueued, 2);
        assert_eq!(s.dropped, 3);
        assert_eq!(q.len(), 2);
        // Oldest packets survive (drop-tail, not drop-head).
        assert_eq!(q.pull(0).unwrap().data(), &[0]);
    }

    #[test]
    fn high_water_tracks_max_depth() {
        let mut q = Queue::new(10);
        let mut out = Output::new();
        for i in 0..4u8 {
            q.push(0, Packet::from_slice(&[i]), &mut out);
        }
        q.pull(0);
        q.pull(0);
        q.push(0, Packet::from_slice(&[9]), &mut out);
        assert_eq!(q.stats().high_water, 4);
        assert_eq!(q.stats().dequeued, 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        Queue::new(0);
    }

    #[test]
    fn batch_push_matches_scalar_semantics() {
        let mut q = Queue::new(3);
        let mut out = Output::new();
        let mut batch = PacketBatch::from_vec((0..5u8).map(|i| Packet::from_slice(&[i])).collect());
        q.push_batch(0, &mut batch, &mut out);
        let s = q.stats();
        assert_eq!(s.enqueued, 3);
        assert_eq!(s.dropped, 2);
        assert_eq!(s.high_water, 3);
        // Oldest packets survive, FIFO order intact.
        let mut drained = PacketBatch::new();
        assert_eq!(q.pull_batch(0, 10, &mut drained), 3);
        let order: Vec<u8> = drained.drain().map(|p| p.data()[0]).collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(q.stats().dequeued, 3);
    }

    #[test]
    fn batch_pull_respects_max() {
        let mut q = Queue::new(10);
        let mut out = Output::new();
        for i in 0..6u8 {
            q.push(0, Packet::from_slice(&[i]), &mut out);
        }
        let mut drained = PacketBatch::new();
        assert_eq!(q.pull_batch(0, 4, &mut drained), 4);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pull_batch(0, 4, &mut drained), 2);
        assert_eq!(q.pull_batch(0, 4, &mut drained), 0);
    }
}
