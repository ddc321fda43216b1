//! Log-bucketed latency histogram and the order statistics the report uses.
//!
//! Values are nanoseconds. Each power-of-two octave is cut into 64 equal
//! sub-buckets, so a bucket is at most 1/64 (1.6 %) wide relative to its
//! lower edge and a reported percentile (interpolated inside its bucket) is
//! within 1.6 % of the true order statistic.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Values at or above 2^40 ns (18 min) land in the last bucket.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize) << SUB_BITS;

/// A fixed-size histogram of nanosecond durations.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    total: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist { counts: vec![0; BUCKETS], total: 0, max: 0 }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    if exp >= MAX_EXP {
        return BUCKETS - 1;
    }
    let shift = exp - SUB_BITS;
    (((exp - SUB_BITS + 1) as usize) << SUB_BITS) + ((v >> shift) & (SUB - 1)) as usize
}

/// Smallest value of bucket `i`, and how many values it spans.
fn span_of(i: usize) -> (u64, u64) {
    let (octave, sub) = ((i >> SUB_BITS) as u32, (i as u64) & (SUB - 1));
    if octave == 0 {
        return (sub, 1);
    }
    let shift = octave - 1;
    ((SUB + sub) << shift, 1 << shift)
}

impl Hist {
    /// Record one duration.
    #[inline]
    pub fn record(&mut self, nanos: u64) {
        self.counts[bucket_of(nanos)] += 1;
        self.total += 1;
        self.max = self.max.max(nanos);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest recorded value, exact.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Add every value of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (0 < q ≤ 1) in nanoseconds: the ⌈q·n⌉-th smallest
    /// value, taking the values of a bucket as spread evenly over it; 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = c as u64;
            if below + c >= rank {
                let (low, width) = span_of(i);
                let within = ((rank - below) as f64 - 0.5) / c as f64;
                return (low as f64 + within * width as f64 - 0.5).min(self.max as f64);
            }
            below += c;
        }
        self.max as f64
    }
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile by the exclusive method —
/// what Python's `statistics.quantiles(values, n=4)` returns. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = ((i * (n + 1)) as f64 - (j * 4) as f64) / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_narrow() {
        let mut last = 0;
        for v in 1..200_000u64 {
            let b = bucket_of(v);
            assert!(b == last || b == last + 1, "bucket {b} after {last} at {v}");
            last = b;
        }
        for v in (1..200_000u64).chain((18..40).map(|e| (1u64 << e) + 3)) {
            let (low, width) = span_of(bucket_of(v));
            assert!(low <= v && v < low + width, "{v} outside its bucket {low}+{width}");
            assert!(width == 1 || width * 64 <= low, "bucket {low}+{width} is wider than 1/64");
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2, 5, 4], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), [1.5, 3.0, 4.5]);
    }
}
