//! Order statistics for repetition samples, and the FNV-1a digest.

/// Sorted copy of `values` (NaN-free by construction: every sample is a
/// measured duration, count or ratio).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// First quartile, median and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so the
/// spreads this package prints are the spreads the driver computes.
///
/// One sample is its own quartiles; no samples give zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let m = data.len();
    match m {
        0 => return (0.0, 0.0, 0.0),
        1 => return (data[0], data[0], data[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Inter-quartile range as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The tail of a latency-like sample: p99 where at least ten samples lie
/// beyond it, otherwise the highest percentile that still has ten samples
/// beyond it.  Returns `(percentile, value)`; with fewer than twenty-one
/// samples no percentile above the median qualifies and the median is
/// returned as `(50, median)`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let n = data.len();
    if n < 21 {
        return (50.0, median(values));
    }
    let p99 = (0.99 * n as f64).ceil() as usize - 1;
    let idx = p99.min(n - 11);
    (100.0 * (idx + 1) as f64 / n as f64, data[idx])
}

/// Nearest-rank percentile of integer samples (0 when empty).
pub fn percentile_u64(values: &mut [u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((p / 100.0) * (values.len() - 1) as f64).round() as usize;
    values[rank.min(values.len() - 1)]
}

/// 64-bit FNV-1a over a stream of `u64` words: the `sim_digest` of a run.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Folds one word in, byte by byte (little-endian).
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.byte(b);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 8.0, 4.0, 2.0, 1.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 is index 989, with exactly ten beyond it.
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 989.0));
        // 100 samples: p99 would leave one beyond; p90 leaves ten.
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 89.0));
        // Too few samples for any tail above the median.
        assert_eq!(tail(&[1.0, 2.0, 3.0]), (50.0, 2.0));
        let v: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail(&v), (50.0, 9.5));
        let v: Vec<f64> = (0..21).map(f64::from).collect();
        assert_eq!(tail(&v).1, 10.0);
    }

    #[test]
    fn integer_percentiles() {
        let mut v = vec![5, 1, 4, 2, 3];
        assert_eq!(percentile_u64(&mut v, 50.0), 3);
        assert_eq!(percentile_u64(&mut v, 100.0), 5);
        assert_eq!(percentile_u64(&mut [], 50.0), 0);
    }

    #[test]
    fn fnv1a_known_vector() {
        // The published 64-bit FNV-1a of "a".
        let mut h = Fnv::new();
        h.byte(b'a');
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        // Order matters, and the digest is a pure function of its input.
        let mut a = Fnv::new();
        a.word(1);
        a.word(2);
        let mut b = Fnv::new();
        b.word(2);
        b.word(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv::new();
        c.word(1);
        c.word(2);
        assert_eq!(a.finish(), c.finish());
    }
}
