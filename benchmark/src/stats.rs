//! Order statistics over timing samples, and the seeded generator every
//! workload draws its inputs from.
//!
//! The percentile rule follows the choosing-metrics guide: a percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it, so a
//! "p95" is never one outlier's name.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Sorts samples ascending (timings are never NaN).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of `samples` (any order); `0.0` for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (in `0..1`) of ascending `sorted`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The tail statistic of a run: the `preferred` percentile when the sample
/// supports it, otherwise the next lower rung that does, otherwise the
/// median. Returns the value and the percentile actually used, which the
/// caller prints so a fallback never hides.
pub fn tail(sorted: &[f64], preferred: f64) -> (f64, f64) {
    for p in [0.99, 0.95, 0.90, 0.80, 0.75] {
        if p <= preferred {
            if let Some(v) = percentile(sorted, p) {
                return (v, p);
            }
        }
    }
    (median(sorted), 0.50)
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// SplitMix64: the benchmark's only source of randomness. The program under
/// test never sees it — only the inputs generated from it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so two clients of
    /// one run never share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly chosen element.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples leaves exactly 10 beyond it; p91 leaves 9.
        assert_eq!(percentile(&s, 0.90), Some(90.0));
        assert_eq!(percentile(&s, 0.91), None);
        assert_eq!(percentile(&s[..19], 0.50), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_falls_back_to_a_supported_rung_and_says_so() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&s, 0.95), (90.0, 0.90));
        assert_eq!(tail(&s, 0.80), (80.0, 0.80));
        let few: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(tail(&few, 0.95), (5.0, 0.50));
    }

    #[test]
    fn median_handles_even_odd_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rng_is_a_function_of_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42, 0), draw(42, 0));
        assert_ne!(draw(42, 0), draw(43, 0));
        assert_ne!(draw(42, 0), draw(42, 1));
    }
}
