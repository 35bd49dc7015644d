//! Fixed log-bucket latency histogram.
//!
//! Values are nanoseconds. Values below 128 get a bucket each; above
//! that every power of two is split into 64 equal buckets, so any
//! point of a bucket is within 1/64 (1.6 %) of anything it holds and a
//! quantile interpolated inside its bucket is closer still.
//! The bucket array is allocated once, at construction: recording in
//! the timed loop never allocates.

const SUB: u64 = 64;
/// Largest value recorded exactly; anything above is clamped (18 min).
const MAX_NS: u64 = (1 << 40) - 1;
const BUCKETS: usize = 33 * SUB as usize + 128;

/// A latency histogram with ≤ 1 % bucket error.
#[derive(Clone)]
pub struct Hist {
    counts: Box<[u32]>,
    n: u64,
    sum_ns: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist { counts: vec![0; BUCKETS].into_boxed_slice(), n: 0, sum_ns: 0 }
    }
}

fn bucket_of(ns: u64) -> usize {
    let v = ns.min(MAX_NS);
    if v < 2 * SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() as u64 - 6;
    (shift * SUB + (v >> shift)) as usize
}

/// Lower edge and width of bucket `idx`, in nanoseconds.
fn bounds(idx: usize) -> (f64, f64) {
    let idx = idx as u64;
    if idx < 2 * SUB {
        return (idx as f64, 1.0);
    }
    let shift = idx / SUB - 1;
    (((idx - shift * SUB) << shift) as f64, (1u64 << shift) as f64)
}

impl Hist {
    pub fn new() -> Hist {
        Hist::default()
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        let c = &mut self.counts[bucket_of(ns)];
        *c = c.saturating_add(1);
        self.n += 1;
        self.sum_ns += ns;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.n += other.n;
        self.sum_ns += other.sum_ns;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// The `q`-quantile (0 < q ≤ 1) in nanoseconds; 0 when empty.
    /// Interpolates linearly inside the bucket the rank falls in, so
    /// two runs only read the same when their counts are the same.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let rank = (q * self.n as f64).clamp(0.0, self.n as f64);
        let mut seen = 0.0;
        for (idx, c) in self.counts.iter().enumerate() {
            let c = f64::from(*c);
            if c > 0.0 && seen + c >= rank {
                let (low, width) = bounds(idx);
                return low + width * (rank - seen) / c;
            }
            seen += c;
        }
        0.0
    }

    pub fn p50_us(&self) -> f64 {
        self.quantile_ns(0.5) / 1e3
    }

    /// The 99th percentile in µs, or `None` when fewer than ten
    /// samples lie beyond it.
    pub fn p99_us(&self) -> Option<f64> {
        (self.n >= 1000).then(|| self.quantile_ns(0.99) / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn buckets_are_contiguous_and_ordered() {
        let edges = (7..40).flat_map(|s| [(1u64 << s) - 1, 1 << s, (1 << s) + 1]);
        let mut last = 0;
        for v in (0..4096u64).chain(edges.filter(|v| *v >= 4096)) {
            let b = bucket_of(v);
            assert!(b == last || b == last + 1 || v >= 4096 && b > last, "bucket order at {v}");
            last = b;
        }
        assert_eq!(bucket_of(127) + 1, bucket_of(128));
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_within_one_percent_of_sorted_vector() {
        let mut rng = StdRng::seed_from_u64(5);
        // Log-uniform over 100 ns .. 100 ms: the range the benchmark sees.
        let mut vals: Vec<u64> =
            (0..200_000).map(|_| (100.0 * 10f64.powf(rng.gen::<f64>() * 6.0)) as u64).collect();
        let mut h = Hist::new();
        for v in &vals {
            h.record(*v);
        }
        vals.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let exact = vals[((q * vals.len() as f64).ceil() as usize).max(1) - 1] as f64;
            let got = h.quantile_ns(q);
            assert!((got - exact).abs() / exact <= 0.01, "q={q}: {got} vs {exact}");
        }
        assert_eq!(h.count(), 200_000);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut both) = (Hist::new(), Hist::new(), Hist::new());
        for v in 1..5000u64 {
            if v % 2 == 0 {
                a.record(v * 37)
            } else {
                b.record(v * 37)
            }
            both.record(v * 37);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.quantile_ns(0.5), both.quantile_ns(0.5));
        assert_eq!(a.quantile_ns(0.99), both.quantile_ns(0.99));
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let mut h = Hist::new();
        for v in 0..999 {
            h.record(v);
        }
        assert!(h.p99_us().is_none());
        h.record(5);
        assert!(h.p99_us().is_some());
    }
}
