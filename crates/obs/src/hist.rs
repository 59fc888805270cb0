//! Fixed-bucket log-scale histograms (the serving layer's latency
//! histograms among them).
//!
//! An HDR-style histogram with power-of-two major buckets subdivided 8
//! ways. The layout is *fixed* — no configuration, no rescaling — which
//! buys three properties every layer of the stack needs:
//!
//! * recording is a single index computation (no allocation, no locks:
//!   each worker owns its histogram);
//! * histograms [`merge`](LogHistogram::merge) by element-wise addition,
//!   and merging per-worker histograms is *exactly* equal to recording
//!   everything into one histogram;
//! * quantile extraction is deterministic: a quantile is the lower
//!   bound of the bucket holding that rank, so equal inputs print
//!   equal tables on every platform.
//!
//! Relative bucket error is bounded by 12.5% (1/8), which is far below
//! the run-to-run variance of any real serving system.

/// Sub-buckets per power-of-two major bucket (8 → ≤12.5% bucket width).
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// Enough groups to cover the full `u64` range.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Index of the bucket containing `v`.
fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let group = (msb - SUB_BITS + 1) as usize;
    let sub = ((v >> (msb - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    group * SUB + sub
}

/// Smallest value mapping to bucket `b` (the bucket's reported value).
fn bucket_floor(b: usize) -> u64 {
    let group = b / SUB;
    let sub = (b % SUB) as u64;
    if group == 0 {
        sub
    } else {
        (SUB as u64 + sub) << (group - 1)
    }
}

/// A mergeable log-scale histogram of microsecond values.
///
/// # Examples
///
/// ```
/// use fix_obs::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for us in [10, 20, 30, 40, 1000] {
///     h.record(us);
/// }
/// assert_eq!(h.count(), 5);
/// // p50 is the bucket floor of the rank-3 sample (30 µs → bucket [30,32)).
/// assert_eq!(h.quantile(0.50), 30);
/// assert_eq!(h.max(), 1000);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample, in µs.
    pub fn record(&mut self, us: u64) {
        self.counts[bucket_of(us)] += 1;
        self.total += 1;
        self.sum += us as u128;
        self.min = self.min.min(us);
        self.max = self.max.max(us);
    }

    /// Adds every sample of `other` into `self`. The result is
    /// identical to having recorded both sample streams into one
    /// histogram — the property that lets each driver-pool worker keep
    /// a private histogram and pay zero synchronization per request.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact mean of the recorded samples, in µs (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum as f64 / self.total as f64
    }

    /// Exact smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` (e.g. `0.99`), reported as the lower
    /// bound of the bucket holding that rank — deterministic, and never
    /// more than 12.5% below the exact order statistic. Returns 0 for an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(b);
            }
        }
        self.max
    }

    /// Fraction of samples whose bucket lies at or below `deadline_us`
    /// — SLO attainment for a latency-class deadline, at bucket
    /// resolution (≤12.5% value error, deterministic). Returns 1.0 for
    /// an empty histogram: no traffic, no violations.
    pub fn attainment(&self, deadline_us: u64) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        let cutoff = bucket_of(deadline_us);
        let within: u64 = self.counts[..=cutoff].iter().sum();
        within as f64 / self.total as f64
    }

    /// The standard serving quartet: (p50, p90, p99, p999).
    pub fn tail_summary(&self) -> (u64, u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
            self.quantile(0.999),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        // Every value maps into a bucket whose floor is ≤ the value, and
        // floors are strictly increasing with the bucket index.
        for v in (0u64..4096).chain([u64::MAX / 2, u64::MAX]) {
            let b = bucket_of(v);
            assert!(bucket_floor(b) <= v, "floor({b}) > {v}");
            if b + 1 < BUCKETS {
                assert!(bucket_floor(b + 1) > v, "value {v} past bucket {b}");
            }
        }
        for b in 1..BUCKETS {
            assert!(bucket_floor(b) > bucket_floor(b - 1));
        }
    }

    #[test]
    fn small_values_are_exact() {
        // Below 2·SUB the buckets have width 1: quantiles are exact.
        let mut h = LogHistogram::new();
        for v in 0..=15 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.50), 7);
        assert_eq!(h.quantile(1.0), 15);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
    }

    #[test]
    fn known_distribution_has_exact_bucketed_quantiles() {
        // 1000 samples: 900 at 100 µs, 90 at 1000 µs, 9 at 10_000 µs,
        // 1 at 100_000 µs — the textbook tail shape.
        let mut h = LogHistogram::new();
        for _ in 0..900 {
            h.record(100);
        }
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..9 {
            h.record(10_000);
        }
        h.record(100_000);
        assert_eq!(h.count(), 1000);
        assert_eq!(h.quantile(0.50), bucket_floor(bucket_of(100)));
        assert_eq!(h.quantile(0.90), bucket_floor(bucket_of(100)));
        assert_eq!(h.quantile(0.99), bucket_floor(bucket_of(1_000)));
        assert_eq!(h.quantile(0.999), bucket_floor(bucket_of(10_000)));
        assert_eq!(h.quantile(1.0), bucket_floor(bucket_of(100_000)));
        // Bucket floors undershoot by < 12.5%.
        assert!(h.quantile(0.99) > 875 && h.quantile(0.99) <= 1_000);
    }

    #[test]
    fn merged_worker_histograms_equal_the_single_histogram() {
        // Deterministic pseudo-random latencies, striped across four
        // "workers" exactly as the driver pool stripes requests.
        let lat = |i: u64| (i.wrapping_mul(2654435761) % 50_000) + 1;
        let mut single = LogHistogram::new();
        let mut workers = vec![LogHistogram::new(); 4];
        for i in 0..10_000u64 {
            single.record(lat(i));
            workers[(i % 4) as usize].record(lat(i));
        }
        let mut merged = LogHistogram::new();
        for w in &workers {
            merged.merge(w);
        }
        assert_eq!(merged, single);
        assert_eq!(merged.tail_summary(), single.tail_summary());
        assert_eq!(merged.mean(), single.mean());
    }

    #[test]
    fn attainment_counts_samples_within_the_deadline() {
        let mut h = LogHistogram::new();
        for _ in 0..90 {
            h.record(3); // Width-1 buckets: exact.
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        assert!((h.attainment(3) - 0.9).abs() < 1e-9);
        assert!((h.attainment(u64::MAX) - 1.0).abs() < 1e-9);
        assert_eq!(LogHistogram::new().attainment(1), 1.0);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }
}
