//! Order statistics used by every workload.

/// Median of `v` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The tail of a latency sample: the value at the highest nearest-rank
/// percentile that still has at least ten samples beyond it, and that
/// percentile. With `n` samples this is rank `n - 10` (1-based), i.e.
/// percentile `100 (n - 10) / n`. With ten or fewer samples no
/// percentile qualifies; the maximum is returned with percentile 100.
pub fn tail(v: &[f64]) -> (f64, f64) {
    if v.is_empty() {
        return (0.0, 100.0);
    }
    let s = sorted(v);
    let n = s.len();
    if n <= 10 {
        return (s[n - 1], 100.0);
    }
    let rank = n - 10;
    (s[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// Samples per window of [`windowed_tail`]: each window's tail is its
/// p90 (ten samples beyond it).
pub const WINDOW: usize = 100;

/// Consecutive windows of `len` samples of `v` (at least one; the last
/// takes the remainder).
pub fn windows<T>(v: &[T], len: usize) -> impl Iterator<Item = &[T]> {
    let k = (v.len() / len.max(1)).max(1);
    let len = v.len() / k;
    (0..k).map(move |w| {
        let end = if w + 1 == k { v.len() } else { (w + 1) * len };
        &v[w * len..end]
    })
}

/// [`tail`] of a long run, steadied: the samples, in arrival order, are
/// cut into [`windows`] of `len`, and the median of the windows' tails
/// is returned with the median of their percentiles. A burst of slow
/// samples moves its own window's tail, not the median. A run of fewer
/// than `2 * len` samples is a single window: its plain tail.
pub fn windowed_tail(v: &[f64], len: usize) -> (f64, f64) {
    let tails: Vec<(f64, f64)> = windows(v, len).map(tail).collect();
    let values: Vec<f64> = tails.iter().map(|t| t.0).collect();
    let pcts: Vec<f64> = tails.iter().map(|t| t.1).collect();
    (median(&values), median(&pcts))
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// FNV-1a over the bit patterns of `v`: a bitwise fingerprint.
pub fn bit_hash(v: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in v {
        h ^= x.to_bits();
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 1..=100: rank 90 leaves exactly ten samples (91..=100) beyond.
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let (value, pct) = tail(&v);
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        let beyond = v.iter().filter(|&&x| x > value).count();
        assert_eq!(beyond, 10);

        // 1000 samples: p99 (rank 990) is the highest qualifying one.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (990.0, 99.0));

        // Eleven samples: only the smallest one has ten beyond it.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let (value, pct) = tail(&v);
        assert_eq!(value, 1.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        assert_eq!(tail(&[5.0, 7.0, 6.0]), (7.0, 100.0));
        assert_eq!(tail(&[]), (0.0, 100.0));
    }

    #[test]
    fn windowed_tail_is_the_median_of_window_tails() {
        // Short runs are one window: the plain tail.
        let v: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(windowed_tail(&v, 100), tail(&v));
        // Ten windows of 300; one holds a burst of spikes that moves its
        // own tail but not the median of the ten.
        let mut v: Vec<f64> = (0..3000).map(|i| f64::from(i % 300)).collect();
        for x in &mut v[900..920] {
            *x = 1e6;
        }
        assert_eq!(windows(&v, 300).count(), 10);
        assert!(windows(&v, 300).all(|w| w.len() == 300));
        let (value, pct) = windowed_tail(&v, 300);
        assert_eq!(value, 289.0);
        assert!((pct - 100.0 * 290.0 / 300.0).abs() < 1e-9);
    }

    #[test]
    fn bit_hash_tells_signed_zeros_apart() {
        assert_ne!(bit_hash(&[0.0]), bit_hash(&[-0.0]));
        assert_eq!(bit_hash(&[1.5, 2.0]), bit_hash(&[1.5, 2.0]));
    }
}
