//! Log₂-bucketed histograms.
//!
//! The hot path cannot afford an exact reservoir; a log₂ histogram costs
//! one `leading_zeros` and one array increment per record, has a fixed
//! 520-byte footprint, and still answers the questions that matter for a
//! dataplane — "what is p99 dispatch latency", "what batch sizes does the
//! driver actually achieve" — to within a factor-of-two bucket.

/// Number of buckets: one for zero plus one per bit position of `u64`.
const BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds the value 0; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)`. Merging is bucket-wise addition, which is
/// associative and commutative — the property worker-shard merging
/// relies on.
#[derive(Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    counts: [u64; BUCKETS],
    total: u64,
}

impl Default for Log2Histogram {
    fn default() -> Log2Histogram {
        Log2Histogram::new()
    }
}

impl Log2Histogram {
    /// Number of buckets (the fixed flattened width — one word per
    /// bucket when a histogram is stored in an atomic interval slot).
    pub const NUM_BUCKETS: usize = BUCKETS;

    /// Creates an empty histogram.
    pub const fn new() -> Log2Histogram {
        Log2Histogram {
            counts: [0; BUCKETS],
            total: 0,
        }
    }

    /// The raw per-bucket counts, in bucket order.
    pub fn raw_counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Rebuilds a histogram from raw per-bucket counts (the inverse of
    /// [`Log2Histogram::raw_counts`]); the total is recomputed.
    pub fn from_raw(counts: [u64; BUCKETS]) -> Log2Histogram {
        let total = counts.iter().sum();
        Log2Histogram { counts, total }
    }

    /// Bucket index for `value`.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Inclusive lower bound of bucket `i`.
    pub fn bucket_lo(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => 1u64 << (i - 1),
        }
    }

    /// Inclusive upper bound of bucket `i`.
    pub fn bucket_hi(i: usize) -> u64 {
        match i {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.total += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Returns `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Adds another histogram's buckets into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The `[lo, hi]` bounds of the bucket holding quantile `q ∈ [0, 1]`
    /// (the smallest bucket whose cumulative count reaches `q · total`).
    /// `None` on an empty histogram.
    pub fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the sample we want, 1-based; q=0 maps to the first. With
        // q in [0, 1] it is at most `total`, a u64.
        let rank = q * self.total as f64;
        debug_assert!(rank <= self.total as f64);
        #[allow(clippy::cast_possible_truncation)]
        let rank = (rank.ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some((Self::bucket_lo(i), Self::bucket_hi(i)));
            }
        }
        None // Unreachable: seen ends at self.total >= rank.
    }

    /// Conservative quantile estimate: the upper bound of the quantile's
    /// bucket. `None` on an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.quantile_bounds(q).map(|(_, hi)| hi)
    }

    /// The p50/p90/p99 upper-bound estimates, or `None` when empty.
    pub fn percentiles(&self) -> Option<(u64, u64, u64)> {
        Some((
            self.quantile(0.50)?,
            self.quantile(0.90)?,
            self.quantile(0.99)?,
        ))
    }

    /// Smallest recorded value's bucket lower bound (`None` when empty).
    pub fn min_lo(&self) -> Option<u64> {
        self.counts.iter().position(|&c| c > 0).map(Self::bucket_lo)
    }

    /// Largest recorded value's bucket upper bound (`None` when empty).
    pub fn max_hi(&self) -> Option<u64> {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map(Self::bucket_hi)
    }

    /// Non-empty buckets as `(lo, hi, count)` rows, ascending.
    pub fn buckets(&self) -> Vec<(u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_lo(i), Self::bucket_hi(i), c))
            .collect()
    }
}

impl core::fmt::Debug for Log2Histogram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Log2Histogram")
            .field("count", &self.total)
            .field("buckets", &self.buckets())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_partition_u64() {
        // Every bucket's lo..=hi range is disjoint and contiguous.
        assert_eq!(Log2Histogram::bucket_lo(0), 0);
        assert_eq!(Log2Histogram::bucket_hi(0), 0);
        for i in 1..BUCKETS {
            assert_eq!(
                Log2Histogram::bucket_lo(i),
                Log2Histogram::bucket_hi(i - 1).wrapping_add(1)
            );
        }
        assert_eq!(Log2Histogram::bucket_hi(64), u64::MAX);
    }

    #[test]
    fn bucket_of_agrees_with_bounds() {
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX / 2, u64::MAX] {
            let b = Log2Histogram::bucket_of(v);
            assert!(Log2Histogram::bucket_lo(b) <= v, "v={v} bucket={b}");
            assert!(v <= Log2Histogram::bucket_hi(b), "v={v} bucket={b}");
        }
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let mut h = Log2Histogram::new();
        // 99 samples of 1, one sample of 1000.
        for _ in 0..99 {
            h.record(1);
        }
        h.record(1000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_bounds(0.50), Some((1, 1)));
        assert_eq!(h.quantile_bounds(0.99), Some((1, 1)));
        // The single outlier is the p100 sample; 1000 ∈ [512, 1023].
        assert_eq!(h.quantile_bounds(1.0), Some((512, 1023)));
        assert_eq!(h.min_lo(), Some(1));
        assert_eq!(h.max_hi(), Some(1023));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Log2Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.percentiles(), None);
        assert_eq!(h.min_lo(), None);
        assert_eq!(h.max_hi(), None);
    }

    #[test]
    fn raw_round_trip_preserves_everything() {
        let mut h = Log2Histogram::new();
        for v in [0u64, 1, 5, 1000, u64::MAX] {
            h.record(v);
        }
        let rebuilt = Log2Histogram::from_raw(*h.raw_counts());
        assert_eq!(rebuilt, h);
        assert_eq!(rebuilt.count(), 5);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        a.record(5);
        b.record(5);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.buckets(), vec![(4, 7, 2), (64, 127, 1)]);
    }
}
