//! Log-linear (HDR-style) latency histograms with bounded memory.
//!
//! A [`Histogram`] buckets non-negative `u64` values (the serving stack
//! records nanoseconds) into [`BUCKETS`] (= 976) fixed buckets: values
//! below [`SUB`] (= 16) get one bucket each, and every power-of-two range
//! above that is subdivided into [`SUB`] linear sub-buckets. The bucket
//! width at value `v` is therefore at most `v / 16` — quantile estimates
//! carry a relative error of at most `1/16` (≈ 6.25%, the bucket width),
//! which is the bound the serving crate's histogram-vs-exact unit test
//! pins. Memory is a flat `976 × 8` bytes however many samples are
//! recorded — the replacement for the dataplane's historically unbounded
//! per-frame latency `Vec`s.
//!
//! Recording is a handful of integer ops on plain (non-atomic) cells.
//! The serving engine records its histograms from the report's frame
//! runs after a run, off the data path (see the crate docs for the
//! zero-perturbation obligation).

/// Linear sub-buckets per power-of-two range (and the count of dedicated
/// single-value buckets at the bottom).
pub const SUB: u64 = 16;
const SUB_BITS: u32 = 4;

/// Total bucket count: `16` unit buckets + `(64 - 4)` octaves × `16`
/// sub-buckets.
pub const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// Bucket index of a value. Monotone in `v`; exact below [`SUB`].
#[inline]
fn index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros();
        let mantissa = (v >> (exp - SUB_BITS)) - SUB;
        ((u64::from(exp - SUB_BITS) + 1) * SUB + mantissa) as usize
    }
}

/// Inclusive lower bound of bucket `i` (the smallest value mapping to it).
#[inline]
fn bucket_low(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB {
        i
    } else {
        let group = i / SUB - 1; // 0 for [16, 32), 1 for [32, 64), …
        let mantissa = i % SUB;
        (SUB + mantissa) << group
    }
}

/// Exclusive upper bound of bucket `i`.
#[inline]
fn bucket_high(i: usize) -> u64 {
    if i + 1 < BUCKETS {
        bucket_low(i + 1)
    } else {
        u64::MAX
    }
}

/// A bounded log-linear histogram over `u64` values.
///
/// `Default` is the empty histogram. Recording only adds to counts, so
/// the result is independent of the order the samples arrive in.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("mean", &self.mean())
            .finish()
    }
}

impl Histogram {
    /// The empty histogram.
    pub fn new() -> Self {
        Self {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records a microsecond reading (as the serving stack measures
    /// stage wall-clocks) at nanosecond bucket resolution. Negative and
    /// NaN inputs saturate to zero, `+∞` (and anything ≥ 2⁶⁴ ns) to
    /// `u64::MAX` — the explicit saturation the unit tests pin, rather
    /// than leaning on `f64 as u64` cast semantics for the edges.
    #[inline]
    pub fn record_us(&mut self, us: f32) {
        let ns = f64::from(us) * 1e3;
        // `f64::max(NaN, 0.0)` happens to return 0.0, but spell the NaN
        // edge out: a poisoned timing read records as 0, never as junk.
        let ns = if ns.is_nan() { 0.0 } else { ns.max(0.0) };
        self.record(if ns >= u64::MAX as f64 {
            u64::MAX
        } else {
            ns as u64
        });
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of recorded values (sums are not bucketed).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact minimum recorded value, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded value, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values, or NaN when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Type-7 (linear-interpolation) quantile estimate, the same
    /// estimator as `ServeReport`'s exact-sample percentiles: the
    /// fractional rank `h = q · (n - 1)` (`q` clamped to `[0, 1]`) is
    /// split into its integer neighbours and the bucket-estimated values
    /// at ranks `⌊h⌋` and `⌈h⌉` are blended by the fractional part.
    /// Sharing the estimator keeps a histogram summary (the Prometheus
    /// quantiles) within the bucket resolution of the report's exact
    /// percentile over the same samples. NaN when empty.
    ///
    /// Each rank's value is the midpoint of the bucket holding that
    /// sample, clamped into the exact observed `[min, max]`, so the
    /// estimate differs from the exact type-7 value by at most one bucket
    /// width (relative error ≤ `1/16`).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let h = (self.count - 1) as f64 * q.clamp(0.0, 1.0);
        let lo_rank = h.floor() as u64;
        let hi_rank = h.ceil() as u64;
        let lo = self.value_at_rank(lo_rank);
        if hi_rank == lo_rank {
            return lo;
        }
        let hi = self.value_at_rank(hi_rank);
        lo + (hi - lo) * h.fract()
    }

    /// Bucket-estimated value of the rank-`rank` sample (0-based, in
    /// sorted order): the midpoint of its bucket, clamped into the exact
    /// observed `[min, max]`.
    fn value_at_rank(&self, rank: u64) -> f64 {
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                let low = bucket_low(i);
                let high = bucket_high(i);
                let mid = low + (high - low) / 2;
                return (mid.clamp(self.min, self.max)) as f64;
            }
        }
        self.max as f64
    }

    /// [`Histogram::quantile`] read back in microseconds for histograms
    /// recorded via [`Histogram::record_us`].
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile(q) / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn indexing_is_monotone_and_in_bounds() {
        let mut prev = 0usize;
        for v in 0..4096u64 {
            let i = index(v);
            assert!(i >= prev, "index must be monotone at {v}");
            assert!(i < BUCKETS);
            assert!(bucket_low(i) <= v && v < bucket_high(i), "v={v} i={i}");
            prev = i;
        }
        assert_eq!(index(u64::MAX), BUCKETS - 1);
        // The first SUB buckets are exact.
        for v in 0..SUB {
            assert_eq!(bucket_low(index(v)), v);
            assert_eq!(bucket_high(index(v)), v + 1);
        }
    }

    #[test]
    fn bucket_width_is_bounded_by_a_sixteenth() {
        for v in [16u64, 100, 1_000, 123_456, 10_000_000_000] {
            let i = index(v);
            let width = bucket_high(i) - bucket_low(i);
            assert!(
                width <= v / SUB + 1,
                "bucket width {width} at {v} exceeds v/16"
            );
        }
    }

    #[test]
    fn empty_histogram_is_nan_and_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert!(h.quantile(0.5).is_nan());
        assert!(h.mean().is_nan());
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn quantiles_track_exact_values_within_bucket_width() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut h = Histogram::new();
        let mut samples: Vec<u64> = (0..5_000)
            .map(|_| {
                // Mix of magnitudes, like µs latencies recorded in ns.
                let exp = rng.gen_range(0..30u32);
                rng.gen_range(0..(1u64 << exp).max(2))
            })
            .collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            // Exact type-7 value over the sorted samples — the estimator
            // both this histogram and the serving report's exact path use.
            let rank = (samples.len() - 1) as f64 * q;
            let (lo, hi) = (
                samples[rank.floor() as usize] as f64,
                samples[rank.ceil() as usize] as f64,
            );
            let exact = lo + (hi - lo) * rank.fract();
            let est = h.quantile(q);
            // Both interpolation endpoints are bucket-midpoints within one
            // bucket width of their sample; the blend inherits the larger
            // endpoint's bound.
            let tol = hi / SUB as f64 + 1.0;
            assert!(
                (est - exact).abs() <= tol,
                "q={q}: estimate {est} vs exact {exact} (tol {tol})"
            );
        }
        assert_eq!(h.count(), samples.len() as u64);
        assert_eq!(h.min(), samples[0]);
        assert_eq!(h.max(), *samples.last().unwrap());
    }

    #[test]
    fn record_us_roundtrips_through_nanoseconds() {
        let mut h = Histogram::new();
        h.record_us(1.5); // 1500 ns
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 1500);
        let q = h.quantile_us(0.5);
        assert!((q - 1.5).abs() <= 1.5 / 16.0 + 1e-3, "{q}");
        // Negative and non-finite clamp instead of panicking.
        h.record_us(-3.0);
        h.record_us(f32::NAN);
        h.record_us(f32::INFINITY);
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
    }

    /// Negative inputs saturate to exactly zero — never to a small
    /// positive bucket, never a panic.
    #[test]
    fn record_us_saturates_negative_to_zero() {
        let mut h = Histogram::new();
        for v in [-0.001f32, -1.0, -1e20, f32::NEG_INFINITY] {
            h.record_us(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(1.0), 0.0);
    }

    /// NaN inputs saturate to exactly zero, by the explicit branch (not
    /// the accident of `f64::max` NaN propagation or `as` casts).
    #[test]
    fn record_us_saturates_nan_to_zero() {
        let mut h = Histogram::new();
        h.record_us(f32::NAN);
        h.record_us(-f32::NAN);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    /// The sampled estimator is exactly type-7: on single-count unit
    /// buckets (values < SUB, which the histogram stores exactly) the
    /// estimate must equal the interpolated sample value, fractional part
    /// included.
    #[test]
    fn quantile_interpolates_type7_exactly_on_unit_buckets() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 5, 6, 7, 8, 9] {
            h.record(v);
        }
        // h = 9q: q=0.25 -> rank 2.25 -> 2.25 exactly.
        assert_eq!(h.quantile(0.25), 2.25);
        assert_eq!(h.quantile(0.5), 4.5);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), 9.0);
        // Out-of-range q clamps.
        assert_eq!(h.quantile(-3.0), 0.0);
        assert_eq!(h.quantile(7.0), 9.0);
    }
}
