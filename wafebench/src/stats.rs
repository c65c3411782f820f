//! Percentiles over one sorted sample set per metric per run.
//!
//! Every percentile of a metric comes from the same sorted vector, so
//! p50 can never exceed p99 unless the code is wrong; the check stays as
//! a guard and fails the run.

/// The tail percentile reported for every latency.
pub const TAIL: f64 = 99.0;

/// The fewest samples a run must leave beyond its tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// A latency distribution reduced to what the benchmark reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    /// Samples strictly beyond the p99 rank.
    pub beyond_tail: usize,
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Sorts `samples` once and reads p50 and p99 from it. Fails when too
/// few samples lie beyond p99 for it to mean anything, or when the
/// percentiles come out out of order.
pub fn summarize(mut samples: Vec<f64>) -> Result<Summary, String> {
    let n = samples.len();
    if n == 0 {
        return Err("no samples".into());
    }
    samples.sort_by(f64::total_cmp);
    let beyond_tail = n - rank(n, TAIL);
    if beyond_tail < MIN_BEYOND_TAIL {
        return Err(format!(
            "{n} samples leave {beyond_tail} beyond p99; need {MIN_BEYOND_TAIL}"
        ));
    }
    let (p50, p99) = (percentile(&samples, 50.0), percentile(&samples, TAIL));
    if p50 > p99 {
        return Err(format!("p50 {p50} > p99 {p99}"));
    }
    Ok(Summary {
        n,
        p50,
        p99,
        beyond_tail,
    })
}

/// Median of a small set of repeated measurements (e.g. set-up times).
pub fn median(mut v: Vec<f64>) -> f64 {
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

    #[test]
    fn percentiles_of_a_known_shuffled_vector() {
        // 1..=1000 in a scrambled order: the ranks are exact.
        let v: Vec<f64> = (0..1000u64)
            .map(|i| ((i * 379) % 1000 + 1) as f64)
            .collect();
        let s = summarize(v).unwrap();
        assert_eq!(
            s,
            Summary {
                n: 1000,
                p50: 500.0,
                p99: 990.0,
                beyond_tail: 10
            }
        );
    }

    #[test]
    fn nearest_rank_on_small_sets() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 50.0), 2.0);
        assert_eq!(percentile(&sorted, 99.0), 4.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
    }

    #[test]
    fn too_few_samples_beyond_the_tail_fail() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(summarize(v).unwrap_err().contains("beyond p99"));
        assert!(summarize(Vec::new()).is_err());
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
