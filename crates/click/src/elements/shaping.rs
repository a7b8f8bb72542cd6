//! Traffic measurement and conditioning elements.
//!
//! [`Meter`] is a token-bucket policer keyed on the packet's receive
//! timestamp (`meta.rx_ns`): the RouteBricks dataplane runs on simulated
//! or trace time, so rate decisions are reproducible. [`RandomSample`]
//! thins traffic with a seeded RNG (monitoring taps, à la the paper's
//! measurement-and-logging motivation). [`SetTimestamp`] assigns
//! synthetic arrival timestamps at a configured rate, so self-contained
//! sources can drive time-aware elements.

use crate::element::{Element, Output, Ports};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rb_packet::Packet;

/// A byte-granularity token bucket driven by packet timestamps.
///
/// Output 0: conformant packets. Output 1: excess. The bucket holds
/// `burst_bytes` and refills at `rate_bps`.
///
/// A meter does not replicate (`workers(n)` fails with
/// [`crate::GraphError::NotReplicable`]): one bucket per core would
/// police at `n` times the configured rate.
pub struct Meter {
    rate_bps: f64,
    burst_bytes: f64,
    tokens: f64,
    last_ns: Option<u64>,
    conformant: u64,
    excess: u64,
}

impl Meter {
    /// Creates a meter.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive rate or burst — meaningless meters.
    pub fn new(rate_bps: f64, burst_bytes: f64) -> Meter {
        assert!(
            rate_bps > 0.0 && burst_bytes > 0.0,
            "meter needs positive rate/burst"
        );
        Meter {
            rate_bps,
            burst_bytes,
            tokens: burst_bytes,
            last_ns: None,
            conformant: 0,
            excess: 0,
        }
    }

    /// `(conformant, excess)` packet counts so far.
    pub fn counts(&self) -> (u64, u64) {
        (self.conformant, self.excess)
    }
}

impl Element for Meter {
    fn class_name(&self) -> &'static str {
        "Meter"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn ports(&self) -> Ports {
        Ports::push(1, 2)
    }

    fn push(&mut self, _port: usize, pkt: Packet, out: &mut Output) {
        let now = pkt.meta.rx_ns;
        if let Some(last) = self.last_ns {
            let dt = now.saturating_sub(last) as f64 / 1e9;
            self.tokens = (self.tokens + dt * self.rate_bps / 8.0).min(self.burst_bytes);
        }
        self.last_ns = Some(now);
        let need = pkt.len() as f64;
        if self.tokens >= need {
            self.tokens -= need;
            self.conformant += 1;
            out.push(0, pkt);
        } else {
            self.excess += 1;
            out.push(1, pkt);
        }
    }
}

/// Forwards each packet with probability `p` (output 0), otherwise sends
/// it to output 1. Deterministic per seed.
///
/// A sampler does not replicate: every core would restart the one seeded
/// stream, so `n` cores would draw the same decisions `n` times over.
pub struct RandomSample {
    p: f64,
    rng: StdRng,
    sampled: u64,
    passed: u64,
}

impl RandomSample {
    /// Creates a sampler keeping fraction `p` on output 0.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 ≤ p ≤ 1.0`.
    pub fn new(p: f64, seed: u64) -> RandomSample {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        RandomSample {
            p,
            rng: StdRng::seed_from_u64(seed),
            sampled: 0,
            passed: 0,
        }
    }

    /// `(sampled, passed-through)` counts so far.
    pub fn counts(&self) -> (u64, u64) {
        (self.sampled, self.passed)
    }
}

impl Element for RandomSample {
    fn class_name(&self) -> &'static str {
        "RandomSample"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn ports(&self) -> Ports {
        Ports::push(1, 2)
    }

    fn push(&mut self, _port: usize, pkt: Packet, out: &mut Output) {
        if self.rng.gen_bool(self.p) {
            self.sampled += 1;
            out.push(0, pkt);
        } else {
            self.passed += 1;
            out.push(1, pkt);
        }
    }
}

/// Stamps packets with synthetic arrival times at a fixed packet rate,
/// so sources without a clock can feed time-aware elements like
/// [`Meter`].
pub struct SetTimestamp {
    gap_ns: f64,
    next_ns: f64,
}

impl SetTimestamp {
    /// Creates a stamper emitting timestamps spaced for `rate_pps`.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive rate.
    pub fn new(rate_pps: f64) -> SetTimestamp {
        assert!(rate_pps > 0.0, "rate must be positive");
        SetTimestamp {
            gap_ns: 1e9 / rate_pps,
            next_ns: 0.0,
        }
    }
}

impl Element for SetTimestamp {
    fn class_name(&self) -> &'static str {
        "SetTimestamp"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn ports(&self) -> Ports {
        Ports::agnostic(1, 1)
    }

    fn push(&mut self, _port: usize, mut pkt: Packet, out: &mut Output) {
        // Nanoseconds since the first packet: a positive gap summed from
        // 0, below 2^64 for 584 years (and `as` saturates past it).
        debug_assert!((0.0..1.8e19).contains(&self.next_ns));
        #[allow(clippy::cast_possible_truncation)]
        let rx_ns = self.next_ns as u64;
        pkt.meta.rx_ns = rx_ns;
        self.next_ns += self.gap_ns;
        out.push(0, pkt);
    }

    fn replicate(&self) -> Option<Box<dyn Element>> {
        Some(Box::new(SetTimestamp {
            gap_ns: self.gap_ns,
            next_ns: 0.0,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt_at(ns: u64, len: usize) -> Packet {
        let mut p = Packet::from_slice(&vec![0u8; len]);
        p.meta.rx_ns = ns;
        p
    }

    #[test]
    fn meter_passes_conformant_rate() {
        // 8 Mbps = 1 MB/s; 1000-byte packets at 1 ms spacing = exactly
        // the line rate: all conformant.
        let mut m = Meter::new(8e6, 2_000.0);
        let mut out = Output::new();
        for i in 0..50u64 {
            m.push(0, pkt_at(i * 1_000_000, 1000), &mut out);
        }
        assert_eq!(m.counts(), (50, 0));
        assert!(out.drain().all(|(p, _)| p == 0));
    }

    #[test]
    fn meter_marks_excess() {
        // Same meter, packets twice as fast: steady-state ~50% excess.
        let mut m = Meter::new(8e6, 2_000.0);
        let mut out = Output::new();
        for i in 0..100u64 {
            m.push(0, pkt_at(i * 500_000, 1000), &mut out);
        }
        let (ok, excess) = m.counts();
        assert_eq!(ok + excess, 100);
        assert!((40..=60).contains(&ok), "conformant {ok}");
    }

    #[test]
    fn meter_burst_absorbs_spikes() {
        // A 10-packet burst within the bucket depth all conforms.
        let mut m = Meter::new(8e6, 10_000.0);
        let mut out = Output::new();
        for _ in 0..10 {
            m.push(0, pkt_at(0, 1000), &mut out);
        }
        assert_eq!(m.counts(), (10, 0));
        m.push(0, pkt_at(0, 1000), &mut out);
        assert_eq!(m.counts().1, 1, "the 11th exceeds the bucket");
    }

    #[test]
    fn sampler_matches_probability() {
        let mut s = RandomSample::new(0.25, 42);
        let mut out = Output::new();
        for _ in 0..4000 {
            s.push(0, pkt_at(0, 64), &mut out);
        }
        let (sampled, passed) = s.counts();
        assert_eq!(sampled + passed, 4000);
        let frac = sampled as f64 / 4000.0;
        assert!((0.22..0.28).contains(&frac), "sampled fraction {frac}");
    }

    #[test]
    fn sampler_extremes() {
        let mut all = RandomSample::new(1.0, 1);
        let mut none = RandomSample::new(0.0, 1);
        let mut out = Output::new();
        all.push(0, pkt_at(0, 64), &mut out);
        none.push(0, pkt_at(0, 64), &mut out);
        let ports: Vec<usize> = out.drain().map(|(p, _)| p).collect();
        assert_eq!(ports, vec![0, 1]);
    }

    /// What a two-worker run of `rx -> shaper -> q -> tx` reports, the
    /// shaper's second output into a `Discard`.
    fn two_workers_over(shaper: Box<dyn Element>) -> Result<(), crate::GraphError> {
        use crate::elements::{Discard, FromDevice, Queue, ToDevice};
        let mut g = crate::Graph::new();
        let rx = g.add("rx", Box::new(FromDevice::new(0, 32))).unwrap();
        let shaper = g.add("shaper", shaper).unwrap();
        let q = g.add("q", Box::new(Queue::new(64))).unwrap();
        let tx = g.add("tx", Box::new(ToDevice::new(32, false))).unwrap();
        let sink = g.add("sink", Box::new(Discard::new())).unwrap();
        g.connect(rx, 0, shaper, 0).unwrap();
        g.connect(shaper, 0, q, 0).unwrap();
        g.connect(shaper, 1, sink, 0).unwrap();
        g.connect(q, 0, tx, 0).unwrap();
        let knobs = crate::Knobs {
            workers: 2,
            ..crate::Knobs::default()
        };
        crate::runtime::mt::run_graph(&[&g], vec![pkt_at(0, 64)], &knobs, None).map(drop)
    }

    fn refused(class: &str) -> Result<(), crate::GraphError> {
        Err(crate::GraphError::NotReplicable {
            element: "shaper".into(),
            class: class.into(),
        })
    }

    #[test]
    fn meter_refuses_replication() {
        // One bucket per core would police at twice the rate.
        let meter = Box::new(Meter::new(8e6, 2_000.0));
        assert_eq!(two_workers_over(meter), refused("Meter"));
    }

    #[test]
    fn random_sample_refuses_replication() {
        // Both cores would replay the one seeded stream.
        let sampler = Box::new(RandomSample::new(0.5, 7));
        assert_eq!(two_workers_over(sampler), refused("RandomSample"));
    }

    #[test]
    fn timestamp_spacing_matches_rate() {
        let mut st = SetTimestamp::new(1e6); // 1 µs spacing.
        let mut out = Output::new();
        for _ in 0..3 {
            st.push(0, pkt_at(0, 64), &mut out);
        }
        let stamps: Vec<u64> = out.drain().map(|(_, p)| p.meta.rx_ns).collect();
        assert_eq!(stamps, vec![0, 1000, 2000]);
    }
}
