//! Fixed-log-bucket histogram over `u64` samples.
//!
//! Buckets are powers of two: bucket 0 holds exactly the value `0`,
//! bucket `i` (for `1 ≤ i ≤ 63`) holds values in `[2^(i-1), 2^i)`, and
//! bucket 64 holds everything from `2^63` up. The layout is fixed at
//! compile time, so two snapshots of one histogram subtract
//! bucket-by-bucket with no rebinning, and recording a sample is a single
//! shift + increment.
//!
//! Quantiles are answered from the bucket counts: `quantile(q)` returns
//! the *lower edge* of the bucket containing the `ceil(q·count)`-th
//! smallest sample. On inputs that are exact bucket edges (powers of
//! two and zero) this is exact; otherwise it underestimates by at most
//! one bucket width, which is the usual log-histogram contract.

/// Number of buckets: `0`, 63 pow-2 ranges, and one overflow bucket.
pub const BUCKETS: usize = 65;

/// A fixed-layout log-bucket histogram of `u64` samples.
///
/// Tracks exact `count`, `sum`, `min`, and `max` alongside the bucket
/// array, so means and extrema never suffer bucketing error.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a sample: 0 for 0, else `64 - leading_zeros`,
    /// capped at the overflow bucket.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
        }
    }

    /// Lower edge of bucket `i` (the smallest sample it can hold).
    pub fn bucket_lower(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => 1u64 << (i - 1).min(63),
        }
    }

    /// Exclusive upper edge of bucket `i`, or `u64::MAX` for the
    /// overflow bucket.
    pub fn bucket_upper(i: usize) -> u64 {
        if i >= BUCKETS - 1 {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Raw bucket counts (index via [`Histogram::bucket_index`]).
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Lower edge of the bucket containing the `ceil(q·count)`-th
    /// smallest sample (`0 < q ≤ 1`). Returns 0 when empty. Exact when
    /// every sample sits on a bucket edge (powers of two or zero).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The extrema are exact; use them to tighten the edges.
                return Self::bucket_lower(i).max(self.min).min(self.max);
            }
        }
        self.max
    }

    /// Median shorthand for [`Histogram::quantile`]`(0.50)`.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile shorthand for [`Histogram::quantile`]`(0.95)`.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// The samples recorded since `earlier` (which must be a previous
    /// snapshot of this histogram): bucket counts, `count` and `sum`
    /// subtract exactly (saturating against misuse); `min`/`max` are
    /// re-derived from the surviving buckets, so they are exact only to
    /// bucket resolution (lower edge of the first non-empty bucket,
    /// upper edge of the last). Backs the recorder's snapshot-delta
    /// API.
    pub fn saturating_diff(&self, earlier: &Histogram) -> Histogram {
        let mut out = Histogram::new();
        for (i, (&a, &b)) in self.buckets.iter().zip(earlier.buckets.iter()).enumerate() {
            out.buckets[i] = a.saturating_sub(b);
        }
        out.count = self.count.saturating_sub(earlier.count);
        out.sum = self.sum.saturating_sub(earlier.sum);
        if out.count > 0 {
            let first = out.buckets.iter().position(|&c| c > 0).unwrap_or(0);
            let last = out.buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
            out.min = Self::bucket_lower(first);
            out.max = Self::bucket_upper(last).saturating_sub(1).max(out.min);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        assert_eq!(Histogram::bucket_index(u64::MAX), BUCKETS - 1);
        // Each pow-2 value sits exactly on its bucket's lower edge.
        for i in 0..20 {
            let v = 1u64 << i;
            let b = Histogram::bucket_index(v);
            assert_eq!(Histogram::bucket_lower(b), v);
            assert!(v < Histogram::bucket_upper(b));
        }
    }

    #[test]
    fn quantiles_exact_on_pow2_inputs() {
        let mut h = Histogram::new();
        // 100 samples: 50× 4, 45× 16, 5× 1024.
        for _ in 0..50 {
            h.record(4);
        }
        for _ in 0..45 {
            h.record(16);
        }
        for _ in 0..5 {
            h.record(1024);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), 4); // rank 50 → still in the 4s
        assert_eq!(h.p95(), 16); // rank 95 → last of the 16s
        assert_eq!(h.quantile(0.96), 1024); // rank 96 → first 1024
        assert_eq!(h.max(), 1024);
        assert_eq!(h.min(), 4);
        assert_eq!(h.sum(), 50 * 4 + 45 * 16 + 5 * 1024);
    }

    #[test]
    fn quantile_clamped_by_exact_extrema() {
        let mut h = Histogram::new();
        h.record(1000); // bucket [512, 1024) — lower edge 512
        assert_eq!(h.p50(), 1000); // min == max == 1000 tightens it
        for _ in 0..9 {
            h.record(600);
        }
        // All ten samples share bucket 10; p50's lower edge 512 is
        // raised to the exact min 600.
        assert_eq!(h.p50(), 600);
    }

    /// The interpolation contract at exact bucket boundaries: a
    /// quantile rank landing on the last sample of a bucket reports
    /// that bucket, and rank+1 jumps to the next bucket's lower edge —
    /// no off-by-one smearing across the pow-2 boundary.
    #[test]
    fn quantile_ranks_at_exact_bucket_boundaries() {
        let mut h = Histogram::new();
        // 10 samples of 8 (bucket [8,16)) then 10 of 16 (bucket [16,32)).
        for _ in 0..10 {
            h.record(8);
        }
        for _ in 0..10 {
            h.record(16);
        }
        // Rank 10 (q = 0.5) is the last 8; rank 11 (q = 0.55) the first 16.
        assert_eq!(h.quantile(0.50), 8);
        assert_eq!(h.quantile(0.55), 16);
        // q just above 0.5 still rounds up to rank 11.
        assert_eq!(h.quantile(0.5001), 16);
        // The extreme quantiles pin to the exact extrema.
        assert_eq!(h.quantile(1.0), 16);
        assert_eq!(h.quantile(1e-9), 8); // rank clamps to 1
    }

    /// Boundary values `2^k` sit in bucket k+1 whose lower edge is the
    /// value itself, while `2^k - 1` sits one bucket below — quantiles
    /// over such inputs must respect the split exactly.
    #[test]
    fn quantiles_respect_the_pow2_split() {
        let mut h = Histogram::new();
        for _ in 0..50 {
            h.record(1023); // bucket [512, 1024)
        }
        for _ in 0..50 {
            h.record(1024); // bucket [1024, 2048)
        }
        assert_eq!(h.p50(), 1023); // rank 50: lower edge 512 raised to min
        assert_eq!(h.quantile(0.51), 1024); // rank 51: exactly the boundary
        assert_eq!(h.p95(), 1024);
    }

    #[test]
    fn saturating_diff_recovers_the_new_samples() {
        let mut h = Histogram::new();
        h.record(4);
        h.record(16);
        let snap = h.clone();
        h.record(16);
        h.record(64);
        let d = h.saturating_diff(&snap);
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum(), 16 + 64);
        assert_eq!(d.buckets()[Histogram::bucket_index(16)], 1);
        assert_eq!(d.buckets()[Histogram::bucket_index(64)], 1);
        // Extrema come back at bucket resolution: [16,32) and [64,128).
        assert_eq!(d.min(), 16);
        assert_eq!(d.max(), 127);
        // Diffing identical snapshots is empty.
        let z = h.saturating_diff(&h.clone());
        assert_eq!(z.count(), 0);
        assert_eq!(z.min(), 0);
        assert_eq!(z.max(), 0);
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
