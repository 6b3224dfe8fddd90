//! Service observability: the completion-latency histograms the
//! scheduler keeps per algorithm and engine.
//!
//! Latencies land in log2-spaced microsecond buckets, so a histogram is
//! a fixed 48-word array — cheap enough to update on every job under the
//! scheduler's lock, precise enough for p50/p99 at the resolution that
//! matters (each bucket spans 2×).  Quantiles are read out by walking
//! the cumulative counts and interpolating inside the hit bucket.

/// Number of log2 buckets: covers 1 µs .. ~2^47 µs (≈ 4.5 years).
const BUCKETS: usize = 48;

/// A log2-bucketed latency histogram over microseconds.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }
}

fn bucket_of(us: u64) -> usize {
    (63 - us.max(1).leading_zeros() as usize).min(BUCKETS - 1)
}

impl LatencyHistogram {
    /// Record one observation in microseconds.
    pub fn record_us(&mut self, us: u64) {
        self.counts[bucket_of(us)] += 1;
        self.count += 1;
        self.sum_us += us;
        self.max_us = self.max_us.max(us);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64 / 1000.0
        }
    }

    /// Maximum observed latency in milliseconds.
    pub fn max_ms(&self) -> f64 {
        self.max_us as f64 / 1000.0
    }

    /// Approximate quantile (`0.0 ..= 1.0`) in milliseconds: the rank's
    /// bucket, linearly interpolated across the bucket's span, and never
    /// above the largest observation.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lo = 1u64 << b;
                let hi = lo << 1;
                let within = (rank - seen) as f64 / c as f64;
                let us = lo as f64 + within * (hi - lo) as f64;
                // The bucket's top can lie past every sample in it.
                return us.min(self.max_us as f64) / 1000.0;
            }
            seen += c;
        }
        self.max_ms()
    }

    /// This histogram's summary under `label`.
    pub fn summary(&self, label: String) -> LatencySummary {
        LatencySummary {
            label,
            completed: self.count,
            mean_ms: self.mean_ms(),
            p50_ms: self.quantile_ms(0.50),
            p99_ms: self.quantile_ms(0.99),
            max_ms: self.max_ms(),
        }
    }
}

/// One labelled latency series (per algorithm/engine pair).
#[derive(Clone, Debug)]
pub struct LatencySummary {
    /// Series label, e.g. `cc/bsp`.
    pub label: String,
    /// Completed jobs in the series.
    pub completed: u64,
    /// Mean latency (ms).
    pub mean_ms: f64,
    /// Median latency (ms).
    pub p50_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_ms: f64,
    /// Worst latency (ms).
    pub max_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_walk_the_buckets() {
        let mut h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record_us(1_000); // ~1 ms
        }
        h.record_us(1_000_000); // 1 s outlier
        assert_eq!(h.count(), 100);
        // 1000 µs lands in the [512, 1024) bucket; interpolation puts
        // the estimate inside it, within 2× of the true value.
        let p50 = h.quantile_ms(0.50);
        assert!((0.5..2.1).contains(&p50), "p50={p50}");
        let p99 = h.quantile_ms(0.99);
        assert!(p99 < 3.0, "p99={p99}"); // the outlier is beyond p99
        let p100 = h.quantile_ms(1.0);
        assert!(p100 >= 500.0, "p100={p100}");
        assert!((h.mean_ms() - (99.0 + 1000.0) / 100.0).abs() < 0.5);
    }

    #[test]
    fn quantiles_never_exceed_the_maximum() {
        // 1 000 µs lands in [512, 1024): interpolating to the bucket's top
        // would read 1.024 ms against a 1.0 ms maximum.
        for samples in [1, 50] {
            let mut h = LatencyHistogram::default();
            for _ in 0..samples {
                h.record_us(1_000);
            }
            for q in [0.5, 0.99, 1.0] {
                let v = h.quantile_ms(q);
                assert!(v <= h.max_ms(), "n={samples} q={q}: {v} > {}", h.max_ms());
            }
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_ms(0.5), 0.0);
        assert_eq!(h.mean_ms(), 0.0);
    }
}
