//! The benchmark's own arithmetic: order statistics, span self time and
//! the trace accounting identities. Kept free of I/O so it is unit-tested
//! in isolation.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by the nearest-rank method:
/// the smallest sample with at least `q·n` samples at or below it.
/// `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Whether the `q`-quantile of `n` samples has at least ten samples
/// beyond it — the condition for reporting that percentile at all.
pub fn percentile_supported(n: usize, q: f64) -> bool {
    let at_or_below = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    n.saturating_sub(at_or_below.max(1)) >= 10
}

/// A closed-open time interval `[start, end)` in nanoseconds.
pub type Interval = (u64, u64);

/// Length of the union of `intervals`, each clipped to `within`.
/// Overlapping children are counted once.
pub fn covered(within: Interval, intervals: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = intervals
        .iter()
        .map(|&(s, e)| (s.max(within.0), e.min(within.1)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<Interval> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover.
pub fn self_time(span: Interval, children: &[Interval]) -> u64 {
    span.1.saturating_sub(span.0) - covered(span, children)
}

/// Share of the driver's wall time that no layer span claims, in percent:
/// `(driver − Σ layer self time) / driver · 100`.
pub fn residual_pct(driver_nanos: u64, layer_self_nanos: u64) -> f64 {
    if driver_nanos == 0 {
        return 0.0;
    }
    (driver_nanos as f64 - layer_self_nanos as f64) / driver_nanos as f64 * 100.0
}

/// Share of a whole `Scenario::run` that the layer-by-layer driver does
/// not mirror, in percent: `(run − driver) / run · 100`.
pub fn unmirrored_pct(run_secs: f64, driver_secs: f64) -> f64 {
    if run_secs <= 0.0 {
        return 0.0;
    }
    (run_secs - driver_secs) / run_secs * 100.0
}

/// Relative cost of tracing, in percent: `(traced − plain) / plain · 100`.
pub fn overhead_pct(traced_secs: f64, plain_secs: f64) -> f64 {
    if plain_secs <= 0.0 {
        return 0.0;
    }
    (traced_secs - plain_secs) / plain_secs * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.9), Some(90.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples leaves exactly 10 beyond it.
        assert!(percentile_supported(100, 0.90));
        assert!(!percentile_supported(99, 0.90));
        // p99 needs 1000 samples, p50 needs 20.
        assert!(percentile_supported(1000, 0.99));
        assert!(!percentile_supported(999, 0.99));
        assert!(percentile_supported(20, 0.50));
        assert!(!percentile_supported(19, 0.50));
        // The benchmark's own sample counts: 19 lbm epochs support no
        // tail, 26,253 sockperf packets support p99.
        assert!(!percentile_supported(19, 0.90));
        assert!(percentile_supported(26_253, 0.99));
        assert!(percentile_supported(577, 0.90));
        assert!(!percentile_supported(577, 0.99));
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 80)]), 60);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children overlap each other: union is [10, 60).
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60)]), 50);
        // One child nested inside another.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
        // Touching children merge without a gap.
        assert_eq!(self_time((0, 100), &[(0, 50), (50, 100)]), 0);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time((10, 20), &[(0, 15)]), 5);
        assert_eq!(self_time((10, 20), &[(25, 30)]), 10);
        assert_eq!(self_time((10, 20), &[(0, 100)]), 0);
    }

    #[test]
    fn residual_is_the_unclaimed_share() {
        assert_eq!(residual_pct(1000, 960), 4.0);
        assert_eq!(residual_pct(1000, 1000), 0.0);
        assert_eq!(residual_pct(0, 0), 0.0);
    }

    #[test]
    fn unmirrored_share_of_the_run() {
        assert_eq!(unmirrored_pct(2.0, 1.5), 25.0);
        assert_eq!(unmirrored_pct(2.0, 2.0), 0.0);
        // A driver slower than the session gives a negative share.
        assert_eq!(unmirrored_pct(1.0, 1.25), -25.0);
        assert_eq!(unmirrored_pct(0.0, 1.0), 0.0);
    }

    #[test]
    fn overhead_relative_to_the_plain_driver() {
        assert!((overhead_pct(1.1, 1.0) - 10.0).abs() < 1e-9);
        assert_eq!(overhead_pct(1.0, 0.0), 0.0);
    }
}
