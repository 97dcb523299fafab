//! Log₂-bucketed histograms for latencies, depths, and sizes.
//!
//! Bucket `i` covers `[2^(i-1), 2^i)` (bucket 0 holds exact zeros), so the
//! structure records any `u64` with 64 fixed buckets, no configuration,
//! and ≤ 2× relative quantile error — the right trade for "where does the
//! time go" instrumentation. All state is integer, so two deterministic
//! runs produce `Eq`-identical histograms (the same contract `NetStats`
//! gives counters).

/// A fixed-shape log₂ histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { buckets: [0; 65], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

/// Bucket index for a sample: 0 for 0, otherwise `floor(log2(v)) + 1`.
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Approximate quantile `q` in `[0, 1]`: the geometric midpoint of the
    /// bucket containing the `ceil(q·count)`-th sample, clamped to the
    /// observed min/max. Exact for single-bucket data; ≤ 2× error overall.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                if i == 0 {
                    return 0;
                }
                let lo = 1u64 << (i - 1);
                let hi = lo.saturating_mul(2).saturating_sub(1);
                // Geometric midpoint ≈ lo·√2, without floats on huge values.
                let mid = lo + lo / 2;
                return mid.clamp(self.min, self.max).clamp(lo, hi).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Folds another histogram in (for aggregating over runs).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn stats_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 106);
        assert_eq!((h.min, h.max), (0, 100));
    }

    #[test]
    fn quantiles_within_bucket_error() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        // True median is 500; bucket [256,511] midpoint estimate.
        assert!((256..=511).contains(&p50), "p50={p50}");
        let p99 = h.quantile(0.99);
        assert!((512..=1000).contains(&p99), "p99={p99}");
        assert_eq!(h.quantile(0.0), h.quantile(1e-9));
        let p100 = h.quantile(1.0);
        assert!((512..=1000).contains(&p100), "p100={p100}");
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in [5u64, 17, 90000] {
            a.record(v);
            both.record(v);
        }
        for v in [0u64, 2, 1 << 40] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }
}
