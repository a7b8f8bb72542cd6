//! The one seqlock ring: each core's interval series rides it.
//!
//! A [`SeqRing`] is a fixed window of fixed-width records, one writer
//! (the owning core), any number of readers. A slot is a version word,
//! the record's sequence number and its [`Record`] words, all `AtomicU64`s
//! in one flat slab:
//!
//! * the **writer** marks the slot odd, fences, stores the words, marks
//!   it even and advances `head` — wait-free, it never observes readers;
//! * a **reader** copies the words between two loads of the version and
//!   keeps the copy only if both saw the same even value — a torn copy
//!   is a retry, never undefined behaviour, and never blocks the writer;
//! * a reader that lags more than the capacity loses the overwritten
//!   records, and [`SeqRing::harvest`] says how many — the dataplane
//!   never waits for observers, and observability drops are themselves
//!   observable.
//!
//! This file is the only home of the protocol and of its fences;
//! [`crate::IntervalRing`] is this ring over the interval bucket's
//! [`Record`] codec, which keeps the bucket's word layout out of it.

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// A value a [`SeqRing`] carries: how it flattens into `u64` words and
/// comes back.
pub trait Record: Sized {
    /// What all records of one ring share and their width depends on
    /// (the interval ring's stage labels).
    type Shape: Default;

    /// Words a record occupies after its sequence number.
    fn width(shape: &Self::Shape) -> usize;

    /// The record's place in its writer's publication order, from 0.
    fn seq(&self) -> u64;

    /// The words after the sequence number; short of [`Record::width`]
    /// they are zero-filled, past it cut.
    fn encode(&self, shape: &Self::Shape) -> impl Iterator<Item = u64>;

    /// Rebuilds record `seq` of `core`'s ring from its `width` words.
    fn decode(seq: u64, core: usize, words: &[u64]) -> Option<Self>;
}

/// A single-writer, multi-reader ring of `R`s.
pub struct SeqRing<R: Record> {
    core: usize,
    cap: usize,
    shape: R::Shape,
    /// Records published so far (== the next sequence number).
    head: AtomicU64,
    /// `cap` slots: version (even = stable, odd = writer mid-publish),
    /// sequence number, then the record's words.
    slab: Box<[AtomicU64]>,
}

impl<R: Record> std::fmt::Debug for SeqRing<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeqRing")
            .field("core", &self.core)
            .field("cap", &self.cap)
            .field("head", &self.published())
            .finish()
    }
}

impl<R: Record> SeqRing<R> {
    /// A ring of `cap` slots (at least 2) for `core`.
    pub fn new(core: usize, cap: usize) -> SeqRing<R> {
        Self::shaped(core, cap, R::Shape::default())
    }

    /// As [`SeqRing::new`], for records of the given shape.
    pub fn shaped(core: usize, cap: usize, shape: R::Shape) -> SeqRing<R> {
        let cap = cap.max(2);
        let slot = 2 + R::width(&shape);
        SeqRing {
            core,
            cap,
            shape,
            head: AtomicU64::new(0),
            slab: (0..cap * slot).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The owning core id.
    pub fn core(&self) -> usize {
        self.core
    }

    /// What this ring's records share.
    pub fn shape(&self) -> &R::Shape {
        &self.shape
    }

    /// Ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Records published so far.
    pub fn published(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// `seq`'s slot, split into its version, sequence and payload words.
    fn slot(&self, seq: u64) -> (&AtomicU64, &AtomicU64, &[AtomicU64]) {
        let len = self.slab.len() / self.cap;
        let at = usize::try_from(seq % self.cap as u64).expect("below cap, a usize") * len;
        match &self.slab[at..at + len] {
            [version, seq, words @ ..] => (version, seq, words),
            _ => unreachable!("a slot is at least two words"),
        }
    }

    /// Publishes a record. Single-writer: only the owning core calls
    /// this. Wait-free — the writer never observes readers.
    pub fn publish(&self, record: &R) {
        let (version, seq, words) = self.slot(record.seq());
        let v = version.load(Ordering::Relaxed);
        // Seqlock write protocol: odd mark, release fence (orders the
        // mark before the word stores), data, even mark with release
        // (orders the words before the mark).
        version.store(v.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        seq.store(record.seq(), Ordering::Relaxed);
        let mut encoded = record.encode(&self.shape);
        for word in words {
            word.store(encoded.next().unwrap_or(0), Ordering::Relaxed);
        }
        version.store(v.wrapping_add(2), Ordering::Release);
        self.head.store(record.seq() + 1, Ordering::Release);
    }

    /// Copies record `seq` out of the ring, or `None` when it was never
    /// published, already overwritten, or persistently mid-overwrite.
    pub fn read(&self, seq: u64) -> Option<R> {
        if seq >= self.published() {
            return None;
        }
        let (version, stored, words) = self.slot(seq);
        // Bounded retries keep the reader lock-free against a writer
        // republishing the same slot (it can only happen once per full
        // ring revolution, so one retry nearly always suffices).
        for _ in 0..64 {
            let v1 = version.load(Ordering::Acquire);
            if v1 % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let got = stored.load(Ordering::Relaxed);
            let copy: Vec<u64> = words.iter().map(|w| w.load(Ordering::Relaxed)).collect();
            fence(Ordering::Acquire);
            if version.load(Ordering::Relaxed) == v1 {
                // Stable copy; reject it if the slot now holds a
                // different (lapped) record.
                return if got == seq {
                    R::decode(seq, self.core, &copy)
                } else {
                    None
                };
            }
        }
        None
    }

    /// Copies every still-available record with `seq >= from`, oldest
    /// first. Returns `(next_unread, lost, records)`: `lost` counts the
    /// records since `from` this reader will never see — overwritten
    /// before or while it read them.
    pub fn harvest(&self, from: u64) -> (u64, u64, Vec<R>) {
        let head = self.published();
        let lo = from.max(head.saturating_sub(self.cap as u64));
        let out: Vec<R> = (lo..head).filter_map(|seq| self.read(seq)).collect();
        (head, head.saturating_sub(from) - out.len() as u64, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IntervalRing, IntervalStats, StageDelta};
    use std::sync::atomic::AtomicBool;

    /// The three stage labels [`bucket`]'s rows need a ring shaped for.
    fn labels() -> Vec<(String, String)> {
        vec![("a".to_string(), "A".to_string()); 3]
    }

    /// A three-stage bucket every word of which is a function of `seq`.
    fn bucket(seq: u64) -> IntervalStats {
        let mut b = IntervalStats::empty_with_stages(seq, 0, seq, 3);
        (b.end_tick, b.quanta, b.empty_polls) = (seq + 1, seq, seq % 7);
        (b.sourced, b.forwarded, b.tx_bytes) = (seq * 3, seq * 3, seq << 6);
        (b.credit_stalls, b.nic_desc_stalls, b.fuses) = (seq ^ 5, seq / 2, seq % 3);
        b.drops = std::array::from_fn(|i| seq + i as u64);
        (0..seq % 7).for_each(|i| b.latency.record(seq << i));
        for (i, d) in b.stages.iter_mut().enumerate() {
            *d = StageDelta {
                packets: seq + i as u64,
                cycles: seq * 100 + i as u64,
            };
        }
        b
    }

    #[test]
    fn round_trips_wraps_and_counts_what_was_lapped() {
        let ring = IntervalRing::shaped(3, 4, labels());
        assert_eq!((ring.core(), ring.capacity()), (3, 4));
        assert_eq!(ring.read(0), None, "nothing published yet");
        (0..10).for_each(|seq| ring.publish(&bucket(seq)));
        assert_eq!(ring.published(), 10);
        assert_eq!(ring.read(5), None, "lapped slot must not decode");
        assert_eq!(ring.read(10), None, "not yet published");
        let at = |seq| IntervalStats {
            core: 3,
            ..bucket(seq)
        };
        assert_eq!(ring.read(6), Some(at(6)));
        let (next, lost, got) = ring.harvest(0);
        assert_eq!((next, lost), (10, 6));
        assert_eq!(got, (6..10).map(at).collect::<Vec<_>>());
        // Nothing new: empty harvest, cursor unchanged, nothing lost.
        assert_eq!(ring.harvest(next), (10, 0, Vec::new()));
    }

    /// One writer republishing `make(seq)` into a four-slot ring as fast
    /// as it can, one reader harvesting beside it. Every record read must
    /// be whole, and once the writer has stopped, what was read plus what
    /// `harvest` reported lost must be everything published.
    fn hammer<R>(ring: SeqRing<R>, make: fn(u64) -> R)
    where
        R: Record + PartialEq + std::fmt::Debug,
        R::Shape: Send + Sync,
    {
        let stop = AtomicBool::new(false);
        let (mut cursor, mut seen, mut lost) = (0u64, 0u64, 0u64);
        let mut harvest = || {
            let (next, missed, got) = ring.harvest(cursor);
            (cursor, lost, seen) = (next, lost + missed, seen + got.len() as u64);
            for record in &got {
                assert_eq!(record, &make(record.seq()), "torn record");
            }
            got.len()
        };
        let produced = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let mut seq = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    ring.publish(&make(seq));
                    seq += 1;
                }
                seq
            });
            for _ in 0..20_000 {
                if harvest() == 0 {
                    // On a single-CPU host the writer thread may not be
                    // scheduled yet; yield so the poll loop cannot spin
                    // to completion before any record exists.
                    std::thread::yield_now();
                }
            }
            stop.store(true, Ordering::Relaxed);
            writer.join().expect("writer thread")
        });
        harvest();
        assert!(seen > 0, "reader harvested nothing in 20k polls");
        assert_eq!(seen + lost, produced, "read + lost == published");
    }

    /// The record the crate publishes: an interval bucket with three
    /// stage rows (the fixed words, the 65 histogram buckets and two
    /// words a stage).
    #[test]
    fn concurrent_harvest_during_publish_never_tears() {
        let ring = IntervalRing::shaped(0, 4, labels());
        assert!(IntervalStats::width(ring.shape()) > 80);
        hammer(ring, bucket);
    }
}
