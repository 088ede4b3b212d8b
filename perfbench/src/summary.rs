//! Order statistics for timing samples.
//!
//! A timing is reported as its median and the highest percentile that
//! still has at least [`TAIL_BEYOND`] samples above it, so a tail figure
//! never rests on one or two outliers.

/// Samples a reported tail percentile must have strictly above it.
pub const TAIL_BEYOND: usize = 10;

/// The median of `samples`, or `None` when empty. Even counts average the
/// two middle values.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The highest whole percentile `q` (at least 50) with at least
/// [`TAIL_BEYOND`] samples strictly beyond its nearest-rank value, as
/// `(q, value)`. `None` when fewer than `2 * TAIL_BEYOND` samples exist,
/// because then no percentile at or above the median qualifies.
pub fn tail(samples: &[f64]) -> Option<(u32, f64)> {
    let sorted = sorted(samples);
    let n = sorted.len();
    (50..=99u32).rev().find_map(|q| {
        // Nearest rank: the smallest rank r with r / n >= q / 100.
        let rank = (q as usize * n).div_ceil(100).max(1);
        (n.saturating_sub(rank) >= TAIL_BEYOND).then(|| (q, sorted[rank - 1]))
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        // Reversed, so the helpers must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(tail(&one_to(1000)), Some((99, 990.0)));
        // One sample short: only nine would lie beyond the p99 value.
        assert_eq!(tail(&one_to(999)).map(|(q, _)| q), Some(98));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        for n in [20, 37, 70, 88, 250, 1000, 5000] {
            let samples = one_to(n);
            let (q, value) = tail(&samples).expect("at least 20 samples");
            let beyond = samples.iter().filter(|&&s| s > value).count();
            assert!(beyond >= TAIL_BEYOND, "n={n}: p{q} has {beyond} beyond");
            if q < 99 {
                let rank = ((q as usize + 1) * n).div_ceil(100);
                assert!(n - rank < TAIL_BEYOND, "n={n}: p{} also qualifies", q + 1);
            }
        }
        assert_eq!(tail(&one_to(70)), Some((85, 60.0)));
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        assert_eq!(tail(&one_to(19)), None);
        assert_eq!(tail(&[]), None);
    }
}
