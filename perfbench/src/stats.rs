//! Order statistics used by every metric: the median and the tail rule.

/// Values sorted ascending by `f64::total_cmp`.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Median of `values`, NaN when there are none (a metric nothing measured).
pub fn med(values: impl IntoIterator<Item = f64>) -> f64 {
    median(&values.into_iter().collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// How many samples must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a sample: the highest nearest-rank percentile that still
/// has [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, `100 * (n - 10) / n`.
    pub pct: f64,
    /// The sample at that percentile: the eleventh largest.
    pub value: f64,
    /// Sample count `n`.
    pub samples: usize,
}

/// The tail of `values`, or `None` when fewer than `TAIL_BEYOND + 1`
/// samples exist (no percentile then has ten samples beyond it).
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let v = sorted(values);
    let rank = n - TAIL_BEYOND; // 1-based nearest rank
    Some(Tail {
        pct: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
        samples: n,
    })
}

/// Element-wise minimum over repetitions of one deterministic sequence of
/// timed steps: the time of each step with host interference filtered out.
/// `None` when there is no repetition or the repetitions differ in length.
pub fn stepwise_min(reps: &[Vec<f64>]) -> Option<Vec<f64>> {
    let (first, rest) = reps.split_first()?;
    let mut out = first.clone();
    for r in rest {
        if r.len() != out.len() {
            return None;
        }
        for (o, &x) in out.iter_mut().zip(r) {
            *o = o.min(x);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn stepwise_min_takes_each_steps_fastest_repetition() {
        let reps = vec![
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 5.0],
            vec![9.0, 9.0, 0.5],
        ];
        assert_eq!(stepwise_min(&reps), Some(vec![2.0, 1.0, 0.5]));
        assert_eq!(stepwise_min(&[]), None);
        assert_eq!(stepwise_min(&[vec![1.0], vec![1.0, 2.0]]), None);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        for n in 0..=TAIL_BEYOND {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert_eq!(tail(&v), None, "{n} samples leave no tail");
        }
        let v: Vec<f64> = (0..11).map(|i| i as f64).collect();
        let t = tail(&v).expect("11 samples have a tail");
        assert_eq!(t.value, 0.0, "the smallest sample has ten beyond it");
        assert!((t.pct - 100.0 / 11.0).abs() < 1e-12);
        assert_eq!(t.samples, 11);
    }

    #[test]
    fn tail_is_the_eleventh_largest_with_exactly_ten_beyond() {
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&v).expect("tail");
        assert_eq!(t.value, 990.0);
        assert!((t.pct - 99.0).abs() < 1e-12);
        let beyond = v.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn tail_counts_ties_by_rank() {
        let mut v = vec![5.0; 20];
        v.push(1.0);
        let t = tail(&v).expect("tail");
        assert_eq!(t.value, 5.0);
        assert_eq!(t.samples, 21);
    }
}
