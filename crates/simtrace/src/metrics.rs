//! Self-metrics: named counters/gauges and log-bucketed histograms.
//!
//! This is the shared implementation behind metricsd's `GetSelfMetrics`
//! wire response and loadgen's reported percentiles — both sides feed
//! the same values through the same [`Histogram`], so a daemon-computed
//! p99 and a client-computed p99 over the same observations are equal
//! by construction, not by approximation luck.
//!
//! Buckets are powers of two: value `v` lands in bucket
//! `64 - v.leading_zeros()` (bucket 0 holds exactly `v == 0`), i.e.
//! bucket `i > 0` spans `[2^(i-1), 2^i - 1]`. Merging histograms is
//! bucket-wise addition — commutative and associative, so merge order
//! never changes a percentile.

/// Exact percentile over a pre-sorted slice — the nearest-rank rule
/// loadgen always used (`idx = round((len-1) · p)`), hoisted here so
/// there is exactly one definition in the workspace.
pub fn percentile_of_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Number of histogram buckets: one for zero plus one per bit position.
pub const BUCKETS: usize = 65;

/// A log-bucketed histogram of `u64` observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Build from an unsorted value set.
    pub fn from_values(values: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &v in values {
            h.observe(v);
        }
        h
    }

    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Bucket-wise merge (history tier rollups).
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Nearest-rank percentile resolved to the containing bucket's upper
    /// bound, clamped to the observed `[min, max]`. Deterministic in the
    /// observation *multiset* only — order doesn't matter.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count - 1) as f64 * p.clamp(0.0, 1.0)).round() as u64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if n > 0 && cum > rank {
                let upper = if i == 0 {
                    0
                } else {
                    (1u64 << (i - 1)) - 1 + (1u64 << (i - 1))
                };
                return upper.clamp(self.min(), self.max);
            }
        }
        self.max
    }
}

/// A named bag of counters/gauges and histograms. Names are few and
/// looked up linearly; insertion order is preserved, which makes wire
/// encodings deterministic.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: Vec<(String, u64)>,
    hists: Vec<(String, Histogram)>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Add to a counter, creating it at zero on first use.
    pub fn inc(&mut self, name: &str, by: u64) {
        match self.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += by,
            None => self.counters.push((name.to_string(), by)),
        }
    }

    /// Set a gauge (absolute value), creating it on first use.
    pub fn set(&mut self, name: &str, v: u64) {
        match self.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, slot)) => *slot = v,
            None => self.counters.push((name.to_string(), v)),
        }
    }

    /// Record one observation into a named histogram.
    pub fn observe(&mut self, name: &str, v: u64) {
        match self.hists.iter_mut().find(|(n, _)| n == name) {
            Some((_, h)) => h.observe(v),
            None => {
                let mut h = Histogram::new();
                h.observe(v);
                self.hists.push((name.to_string(), h));
            }
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, v)| (n.as_str(), *v))
    }

    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hists.iter().map(|(n, h)| (n.as_str(), h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_sorted_matches_nearest_rank() {
        assert_eq!(percentile_of_sorted(&[], 0.5), 0);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_of_sorted(&v, 0.0), 1);
        assert_eq!(percentile_of_sorted(&v, 0.5), 51); // round(99*0.5)=50
        assert_eq!(percentile_of_sorted(&v, 0.99), 99);
        assert_eq!(percentile_of_sorted(&v, 1.0), 100);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_percentiles_are_multiset_deterministic() {
        let values: Vec<u64> = (0..1000).map(|i| (i * 37) % 5000).collect();
        let mut reversed = values.clone();
        reversed.reverse();
        let a = Histogram::from_values(&values);
        let b = Histogram::from_values(&reversed);
        assert_eq!(a, b);
        for p in [0.5, 0.9, 0.99] {
            assert_eq!(a.percentile(p), b.percentile(p));
        }
        assert_eq!(a.count(), 1000);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), *values.iter().max().unwrap());
    }

    #[test]
    fn histogram_merge_equals_single_feed() {
        let values: Vec<u64> = (0..500).map(|i| i * i % 10_000).collect();
        let whole = Histogram::from_values(&values);
        let mut merged = Histogram::from_values(&values[..200]);
        merged.merge(&Histogram::from_values(&values[200..]));
        assert_eq!(whole, merged);
    }

    #[test]
    fn histogram_percentile_bounds() {
        let h = Histogram::from_values(&[7, 7, 7]);
        // Single-bucket data: every percentile is the clamped bound.
        assert_eq!(h.percentile(0.0), 7);
        assert_eq!(h.percentile(1.0), 7);
        assert_eq!(Histogram::new().percentile(0.5), 0);
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut r = Registry::new();
        r.inc("reads", 2);
        r.inc("reads", 3);
        r.set("sessions", 9);
        r.set("sessions", 4);
        r.observe("lat", 100);
        r.observe("lat", 200);
        assert_eq!(r.counter("reads"), 5);
        assert_eq!(r.counter("sessions"), 4);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.histogram("lat").unwrap().count(), 2);
    }
}
