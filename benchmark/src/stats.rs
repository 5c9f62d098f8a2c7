//! Order statistics for benchmark samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the harness that gates
//! later changes computes; `compare` must agree with it digit for digit.

/// Why a percentile was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooFewSamples {
    /// Samples offered.
    pub have: usize,
    /// Samples needed for ten to lie beyond the percentile.
    pub need: usize,
}

impl std::fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "percentile refused: {} samples, {} needed for ten to lie beyond it",
            self.have, self.need
        )
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
    v
}

/// Median (mean of the two middle values for an even count); `None` when
/// there are no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them. Needs two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let len = values.len();
    if len < 2 {
        return None;
    }
    let v = sorted(values);
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        // `delta` is computed from the clamped index, as CPython does.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// The `p`-th percentile (0 < p < 1) by nearest rank, refused unless at
/// least ten samples lie beyond it — a tail estimated from fewer is noise.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, TooFewSamples> {
    assert!(
        p > 0.0 && p < 1.0,
        "percentile must lie strictly between 0 and 1"
    );
    // `1.0 - 0.99` is not exactly a hundredth; the small allowance keeps the
    // quotient's rounding error from asking for one sample too many.
    let need = (10.0 / (1.0 - p) - 1e-6).ceil() as usize;
    if values.len() < need {
        return Err(TooFewSamples {
            have: values.len(),
            need,
        });
    }
    let v = sorted(values);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Ok(v[rank - 1])
}

/// Median of integer nanosecond samples, in microseconds.
pub fn median_us(ns: &[u64]) -> Option<f64> {
    let v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 20.0, 40.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(
            percentile(&few, 0.99),
            Err(TooFewSamples {
                have: 999,
                need: 1000
            })
        );
        let enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&enough, 0.99), Ok(990.0));
        // p90 needs only a hundred.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Ok(90.0));
        assert!(percentile(&hundred[..99], 0.9).is_err());
    }
}
