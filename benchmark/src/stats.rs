//! Exact percentiles over raw samples.
//!
//! Every timing the benchmark reports is a percentile of the raw
//! per-operation samples, never of a bucketed histogram, and is
//! reported with the number of samples it came from. A percentile is
//! refused unless at least [`MIN_BEYOND`] samples lie beyond it: a p99
//! over 200 samples is the second-worst sample, which says nothing
//! about the tail.

use std::fmt;

/// Samples that must lie strictly beyond a percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// A percentile refused because the sample is too small to support it.
#[derive(Clone, Debug, PartialEq)]
pub struct TooFewSamples {
    pub what: String,
    pub p: f64,
    pub have: usize,
    pub need: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: p{} needs {} samples ({} beyond it), have {}",
            self.what, self.p, self.need, MIN_BEYOND, self.have
        )
    }
}

impl std::error::Error for TooFewSamples {}

/// A percentile value with the sample count it was taken over.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    pub value: f64,
    pub samples: usize,
}

/// Raw samples of one quantity, in arrival order.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    what: String,
    values: Vec<f64>,
}

/// 1-based nearest rank of percentile `p` among `n` sorted samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Smallest sample count for which percentile `p` has
/// [`MIN_BEYOND`] samples beyond its rank.
pub fn samples_needed(p: f64) -> usize {
    let mut n = MIN_BEYOND + 1;
    while n - rank(p, n) < MIN_BEYOND {
        n += 1;
    }
    n
}

impl Samples {
    pub fn new(what: &str) -> Self {
        Samples {
            what: what.to_string(),
            values: Vec::new(),
        }
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// The nearest-rank percentile `p` (0 < p < 100): the smallest
    /// sample with at least `p`% of the samples at or below it. Refused
    /// unless [`MIN_BEYOND`] samples lie strictly above that rank.
    pub fn percentile(&self, p: f64) -> Result<Quantile, TooFewSamples> {
        assert!(p > 0.0 && p < 100.0, "percentile {p} out of (0, 100)");
        let n = self.values.len();
        let need = samples_needed(p);
        if n < need {
            return Err(TooFewSamples {
                what: self.what.clone(),
                p,
                have: n,
                need,
            });
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        Ok(Quantile {
            value: sorted[rank(p, n) - 1],
            samples: n,
        })
    }
}

/// Median of a handful of whole-run repetitions (set-up is repeated a
/// few times per run, not sampled per operation); the record keeps the
/// repetition count beside it.
pub fn median(reps: &[f64]) -> f64 {
    assert!(!reps.is_empty(), "median of no repetitions");
    let mut v = reps.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from(values: impl IntoIterator<Item = f64>) -> Samples {
        let mut s = Samples::new("t");
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn nearest_rank_on_known_data() {
        // 1..=100 in reverse order: p50 is 50, p90 is 90, regardless of
        // arrival order.
        let s = from((1..=100).rev().map(f64::from));
        assert_eq!(s.percentile(50.0).unwrap().value, 50.0);
        assert_eq!(s.percentile(90.0).unwrap().value, 90.0);
        assert_eq!(s.percentile(90.0).unwrap().samples, 100);
        assert_eq!(s.percentile(1.0).unwrap().value, 1.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(samples_needed(99.0), 1000);
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(50.0), 20);
        let s = from((0..999).map(f64::from));
        let err = s.percentile(99.0).unwrap_err();
        assert_eq!((err.have, err.need), (999, 1000));
        let s = from((1..=1000).map(f64::from));
        let q = s.percentile(99.0).unwrap();
        assert_eq!(q.value, 990.0);
        assert_eq!(q.samples, 1000);
    }

    #[test]
    fn median_of_twenty_and_refusal_below() {
        let s = from((1..=20).map(f64::from));
        assert_eq!(s.percentile(50.0).unwrap().value, 10.0);
        let s = from((1..=19).map(f64::from));
        assert!(s.percentile(50.0).is_err());
    }

    #[test]
    fn ties_and_duplicates() {
        let s = from(std::iter::repeat_n(7.5, 40).chain([1.0, 100.0]));
        assert_eq!(s.percentile(50.0).unwrap().value, 7.5);
        // 42 samples support a median but not a p90.
        assert!(s.percentile(90.0).is_err());
    }
}
