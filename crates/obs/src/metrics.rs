//! Monotonic counters and log2-bucketed histograms.
//!
//! Histograms use 64 power-of-two buckets, enough for any nanosecond
//! duration; quantiles report the upper bound of the bucket holding the
//! requested rank, so p50/p99 are conservative (never under-estimate).

use crate::json::Json;

/// A log2-bucketed histogram of `u64` observations (durations in ns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Hist {
    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            (64 - value.leading_zeros() as usize).min(63)
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Hist) {
        for (b, n) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += n;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation seen.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`0.0 <= q <= 1.0`); 0 when empty. The true max caps the answer.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i >= 63 { u64::MAX } else { (1u64 << i) - 1 };
                return upper
                    .min(self.max)
                    .max(if i == 0 { 0 } else { 1 << (i - 1) });
            }
        }
        self.max
    }

    /// Cumulative `(upper_bound, count ≤ bound)` pairs for exposition,
    /// trimmed after the highest non-empty bucket (empty when no
    /// observations). Bucket `i` holds values up to `2^i - 1`, so the
    /// bounds are `0, 1, 3, 7, ...`; a terminal `+Inf` bucket is the
    /// renderer's job (its count is [`count`](Self::count)).
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let last = match self.buckets.iter().rposition(|&n| n > 0) {
            Some(i) => i,
            None => return Vec::new(),
        };
        let mut cumulative = 0u64;
        self.buckets[..=last]
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                cumulative += n;
                let upper = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << i).saturating_sub(1)
                };
                (upper, cumulative)
            })
            .collect()
    }

    /// Fixed summary for serialisation.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            sum: self.sum,
            max: self.max,
            p50: self.quantile(0.50),
            p99: self.quantile(0.99),
        }
    }
}

/// Serialisable summary of a [`Hist`] (buckets are not round-tripped).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
    /// Conservative median (bucket upper bound).
    pub p50: u64,
    /// Conservative 99th percentile (bucket upper bound).
    pub p99: u64,
}

impl HistSummary {
    /// Appends the summary's fields to a JSON object (the shape trace
    /// `hist` records and the metrics exposition share).
    pub(crate) fn json_fields(&self, obj: Json) -> Json {
        obj.field("count", self.count)
            .field("sum", self.sum)
            .field("max", self.max)
            .field("p50", self.p50)
            .field("p99", self.p99)
    }

    /// Inverse of [`HistSummary::json_fields`].
    pub(crate) fn from_json(obj: &Json) -> Result<HistSummary, String> {
        Ok(HistSummary {
            count: obj.req_uint("count")?,
            sum: obj.req_uint("sum")?,
            max: obj.req_uint("max")?,
            p50: obj.req_uint("p50")?,
            p99: obj.req_uint("p99")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_hist_is_zero() {
        let h = Hist::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.summary(), HistSummary::default());
    }

    #[test]
    fn quantiles_are_monotonic_and_bounded() {
        let mut h = Hist::default();
        for v in [1u64, 3, 7, 100, 1000, 100_000, 5_000_000] {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p99);
        assert!(p99 <= h.max());
        assert!(p50 >= 7, "p50 {p50} should cover the median sample");
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1 + 3 + 7 + 100 + 1000 + 100_000 + 5_000_000);
    }

    #[test]
    fn merge_matches_recording_everything_in_one() {
        let values = [0u64, 1, 2, 50, 99, 4096, 1 << 40];
        let mut a = Hist::default();
        let mut b = Hist::default();
        let mut all = Hist::default();
        for (i, &v) in values.iter().enumerate() {
            if i % 2 == 0 { &mut a } else { &mut b }.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn zero_and_max_values_hit_valid_buckets() {
        let mut h = Hist::default();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }
}
