//! Descriptive statistics used by the cohort analysis (Section 2.2 of the
//! paper): means, Pearson correlation between transition destination and
//! duration, normalised histograms, and simple quantiles.

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance; `0.0` for slices with fewer than two elements.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Pearson correlation coefficient between two equal-length samples.
///
/// Returns `0.0` when either sample has zero variance (the paper reports the
/// analogous coefficient between transition destination and duration ≈ 0.2).
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson requires equal-length samples");
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys.iter()) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx <= 0.0 || vy <= 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// Normalise counts into proportions summing to one (all-zero input stays zero).
pub fn normalize(counts: &[usize]) -> Vec<f64> {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return vec![0.0; counts.len()];
    }
    counts.iter().map(|&c| c as f64 / total as f64).collect()
}

/// A two-dimensional contingency table over `(row, col)` category pairs.
#[derive(Debug, Clone)]
pub struct Contingency {
    rows: usize,
    cols: usize,
    counts: Vec<usize>,
}

impl Contingency {
    /// Empty `rows × cols` table.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            counts: vec![0; rows * cols],
        }
    }

    /// Increment cell `(r, c)`.
    pub fn add(&mut self, r: usize, c: usize) {
        assert!(
            r < self.rows && c < self.cols,
            "contingency index out of range"
        );
        self.counts[r * self.cols + c] += 1;
    }

    /// Raw count at `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> usize {
        self.counts[r * self.cols + c]
    }

    /// Total number of recorded observations.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Distribution of rows within column `c` (normalised to sum to one).
    pub fn column_distribution(&self, c: usize) -> Vec<f64> {
        let col: Vec<usize> = (0..self.rows).map(|r| self.get(r, c)).collect();
        normalize(&col)
    }

    /// Pearson correlation between the row index and column index treated as
    /// numeric variables — the statistic the paper reports between transition
    /// destination and duration category (≈ 0.2).
    pub fn index_correlation(&self) -> f64 {
        let mut xs = Vec::with_capacity(self.total());
        let mut ys = Vec::with_capacity(self.total());
        for r in 0..self.rows {
            for c in 0..self.cols {
                for _ in 0..self.get(r, c) {
                    xs.push(r as f64);
                    ys.push(c as f64);
                }
            }
        }
        pearson(&xs, &ys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_std_on_known_sample() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn pearson_of_perfectly_correlated_is_one() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg = [-2.0, -4.0, -6.0, -8.0];
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_of_constant_sample_is_zero() {
        let xs = [1.0, 1.0, 1.0];
        let ys = [2.0, 5.0, 9.0];
        assert_eq!(pearson(&xs, &ys), 0.0);
    }

    #[test]
    fn normalize_gives_proportions_summing_to_one() {
        let p = normalize(&[1, 1, 3]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((p[2] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn normalize_of_zeros_stays_zero() {
        assert_eq!(normalize(&[0, 0]), vec![0.0, 0.0]);
    }

    #[test]
    fn contingency_marginals_and_distributions() {
        let mut t = Contingency::new(2, 3);
        t.add(0, 0);
        t.add(0, 1);
        t.add(1, 1);
        t.add(1, 1);
        assert_eq!(t.total(), 4);
        let d = t.column_distribution(1);
        assert!((d[1] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn index_correlation_detects_diagonal_association() {
        let mut t = Contingency::new(3, 3);
        for i in 0..3 {
            for _ in 0..10 {
                t.add(i, i);
            }
        }
        assert!(t.index_correlation() > 0.99);
        let mut weak = Contingency::new(2, 2);
        for r in 0..2 {
            for c in 0..2 {
                for _ in 0..5 {
                    weak.add(r, c);
                }
            }
        }
        assert!(weak.index_correlation().abs() < 1e-12);
    }
}
