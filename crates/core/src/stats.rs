//! Online statistics for the τ recommender.
//!
//! Implements the paper's recursive mean/variance (Eq. 20–21):
//!
//! * `μ̂(n) = μ̂(n−1) + (x_n − μ̂(n−1)) / n`
//! * `σ̂²(n) = (n−2)/(n−1) · σ̂²(n−1) + n · (μ̂(n) − μ̂(n−1))²`
//!
//! (algebraically identical to Welford's update).

/// Incrementally maintained sample mean and variance.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    var: f64, // sample variance (n−1 denominator); 0 while n < 2
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation (Eq. 20–21).
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let n = self.n as f64;
        let old_mean = self.mean;
        self.mean += (x - old_mean) / n;
        if self.n >= 2 {
            let dm = self.mean - old_mean;
            self.var = (n - 2.0) / (n - 1.0) * self.var + n * dm * dm;
        }
    }

    /// Number of observations.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 before any observation).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance with `n−1` denominator (0 while `n < 2`).
    pub fn sample_var(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.var
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_mean_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn online_matches_batch() {
        let xs = [3.0, 1.5, 4.25, 0.5, 2.0, 8.0, -1.0, 2.5];
        let mut st = OnlineStats::new();
        for &x in &xs {
            st.push(x);
        }
        let (m, v) = batch_mean_var(&xs);
        assert!((st.mean() - m).abs() < 1e-12);
        assert!(
            (st.sample_var() - v).abs() < 1e-9,
            "{} vs {v}",
            st.sample_var()
        );
        assert_eq!(st.n(), xs.len() as u64);
    }

    #[test]
    fn degenerate_counts() {
        let mut st = OnlineStats::new();
        assert_eq!(st.mean(), 0.0);
        assert_eq!(st.sample_var(), 0.0);
        st.push(5.0);
        assert_eq!(st.mean(), 5.0);
        assert_eq!(st.sample_var(), 0.0);
    }

    #[test]
    fn constant_sequence_zero_variance() {
        let mut st = OnlineStats::new();
        for _ in 0..100 {
            st.push(7.0);
        }
        assert!((st.mean() - 7.0).abs() < 1e-12);
        assert!(st.sample_var().abs() < 1e-18);
    }
}
