//! Empirical cumulative distribution functions.

/// An empirical CDF over a fixed sample set.
///
/// # Example
///
/// ```
/// use spotlake_analysis::Ecdf;
///
/// let cdf = Ecdf::new(vec![1.0, 2.0, 2.0, 4.0]);
/// assert_eq!(cdf.eval(2.0), 0.75);
/// assert_eq!(cdf.quantile(0.5), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the CDF from samples. Non-finite samples are dropped.
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.retain(|v| v.is_finite());
        samples.sort_by(f64::total_cmp);
        Ecdf { sorted: samples }
    }

    /// Number of (finite) samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F(x)`: the fraction of samples ≤ `x`.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty.
    pub fn eval(&self, x: f64) -> f64 {
        assert!(!self.is_empty(), "ECDF of an empty sample set");
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`0.0..=1.0`), by the nearest-rank method.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.is_empty(), "quantile of an empty sample set");
        assert!((0.0..=1.0).contains(&q), "quantile level {q} outside [0,1]");
        let n = self.sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[rank - 1]
    }

    /// The median.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Renders the CDF as `(x, F(x))` step points at each distinct sample —
    /// the series a plotting tool would draw.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        let mut out: Vec<(f64, f64)> = Vec::new();
        for (i, &x) in self.sorted.iter().enumerate() {
            let y = (i + 1) as f64 / n;
            match out.last_mut() {
                Some(last) if last.0 == x => last.1 = y,
                _ => out.push((x, y)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn eval_and_quantiles() {
        let cdf = Ecdf::new(vec![3.0, 1.0, 2.0, 2.0]);
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.eval(0.5), 0.0);
        assert_eq!(cdf.eval(1.0), 0.25);
        assert_eq!(cdf.eval(2.0), 0.75);
        assert_eq!(cdf.eval(10.0), 1.0);
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(0.5), 2.0);
        assert_eq!(cdf.quantile(1.0), 3.0);
        assert_eq!(cdf.median(), 2.0);
    }

    #[test]
    fn drops_non_finite() {
        let cdf = Ecdf::new(vec![1.0, f64::NAN, f64::INFINITY, 2.0]);
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    fn points_deduplicate_x() {
        let cdf = Ecdf::new(vec![1.0, 2.0, 2.0, 3.0]);
        let pts = cdf.points();
        assert_eq!(pts, vec![(1.0, 0.25), (2.0, 0.75), (3.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_eval_panics() {
        Ecdf::new(vec![]).eval(1.0);
    }

    proptest! {
        #[test]
        fn cdf_is_monotone(samples in prop::collection::vec(-1e6f64..1e6, 1..200)) {
            let cdf = Ecdf::new(samples);
            let pts = cdf.points();
            for w in pts.windows(2) {
                prop_assert!(w[0].0 < w[1].0);
                prop_assert!(w[0].1 <= w[1].1);
            }
            prop_assert_eq!(pts.last().unwrap().1, 1.0);
        }

        #[test]
        fn quantile_inverts_eval(samples in prop::collection::vec(-1e3f64..1e3, 1..100), q in 0.01f64..1.0) {
            let cdf = Ecdf::new(samples);
            let x = cdf.quantile(q);
            // F(quantile(q)) >= q by definition of nearest rank.
            prop_assert!(cdf.eval(x) + 1e-12 >= q);
        }
    }
}
