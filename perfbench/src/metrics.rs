//! Derived metrics: the pure functions that turn measured counts and
//! samples into the numbers the benchmark reports. Kept free of any
//! simulation type so each one is unit-tested on hand-made inputs.

/// `num / den`, or 0 when the denominator is 0: a workload that never
/// performs an operation has nothing to fail, commit or hit.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Failed ÷ attempted operations.
pub fn fail_ratio(failed: u64, attempted: u64) -> f64 {
    ratio(failed, attempted)
}

/// Client transactions committed ÷ submissions sent (first sends plus
/// retries): the share of client sends that ended in a commit.
pub fn commit_ratio(committed: u64, submitted: u64, retries: u64) -> f64 {
    ratio(committed, submitted + retries)
}

/// Verify-cache hits ÷ lookups.
pub fn hit_ratio(hits: u64, misses: u64) -> f64 {
    ratio(hits, hits + misses)
}

/// One rung of the open-loop rate ladder, as measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatePoint {
    /// Offered load, tx per virtual tick.
    pub rate: f64,
    /// 99th-percentile commit latency, ticks.
    pub p99_ticks: u64,
    /// Transactions still pending at the end of the run.
    pub pending: u64,
    /// Transactions the clients gave up on.
    pub dropped: u64,
}

/// The highest offered rate whose p99 commit latency meets `limit_ticks`
/// with no backlog left over (nothing pending, nothing dropped), or 0 when
/// no rung qualifies.
pub fn max_rate_at_slo(points: &[RatePoint], limit_ticks: u64) -> f64 {
    points
        .iter()
        .filter(|p| p.p99_ticks <= limit_ticks && p.pending == 0 && p.dropped == 0)
        .map(|p| p.rate)
        .fold(0.0, f64::max)
}

/// The longest stretch without service after a crash at `crash`: the
/// largest gap in the sequence `crash, f₁, f₂, …` of honest finalization
/// ticks at or after the crash (`finalizations` in any order). When no
/// finalization follows the crash, service never resumed and the gap runs
/// to `end`, the tick the run stopped at.
pub fn service_gap_ticks(finalizations: &[u64], crash: u64, end: u64) -> u64 {
    let mut after: Vec<u64> = finalizations
        .iter()
        .copied()
        .filter(|&t| t >= crash)
        .collect();
    if after.is_empty() {
        return end.saturating_sub(crash);
    }
    after.sort_unstable();
    let mut prev = crash;
    let mut gap = 0;
    for t in after {
        gap = gap.max(t - prev);
        prev = t;
    }
    gap
}

/// The median of `values` (mean of the middle two for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(rate: f64, p99_ticks: u64) -> RatePoint {
        RatePoint {
            rate,
            p99_ticks,
            pending: 0,
            dropped: 0,
        }
    }

    #[test]
    fn slo_picks_the_highest_qualifying_rate() {
        let ladder = [point(5.0, 800), point(10.0, 900), point(20.0, 1700)];
        assert_eq!(max_rate_at_slo(&ladder, 1200), 10.0);
        assert_eq!(max_rate_at_slo(&ladder, 5000), 20.0);
    }

    #[test]
    fn slo_is_zero_when_no_rate_meets_the_limit() {
        let ladder = [point(5.0, 800), point(10.0, 900)];
        assert_eq!(max_rate_at_slo(&ladder, 799), 0.0);
        assert_eq!(max_rate_at_slo(&[], 1000), 0.0);
    }

    #[test]
    fn backlog_disqualifies_a_rate() {
        let mut high = point(20.0, 100);
        high.pending = 1;
        let mut mid = point(10.0, 100);
        mid.dropped = 3;
        let ladder = [point(5.0, 100), mid, high];
        assert_eq!(max_rate_at_slo(&ladder, 1000), 5.0);
    }

    #[test]
    fn gap_counts_from_the_crash() {
        // Finalizations before the crash do not count; the first gap runs
        // from the crash itself.
        assert_eq!(service_gap_ticks(&[100, 200, 900, 950], 500, 2000), 400);
        assert_eq!(service_gap_ticks(&[950, 520, 600], 500, 2000), 350);
    }

    #[test]
    fn crash_before_the_first_finalization() {
        assert_eq!(service_gap_ticks(&[300, 340, 380], 0, 1000), 300);
        assert_eq!(service_gap_ticks(&[300, 340, 800], 10, 1000), 460);
    }

    #[test]
    fn crash_after_the_last_finalization() {
        // Service never resumed: the gap runs to the end of the run.
        assert_eq!(service_gap_ticks(&[100, 200], 500, 2000), 1500);
        assert_eq!(service_gap_ticks(&[], 500, 500), 0);
    }

    #[test]
    fn ratios_with_zero_denominators() {
        assert_eq!(fail_ratio(0, 0), 0.0, "nothing attempted, nothing failed");
        assert_eq!(commit_ratio(0, 0, 0), 0.0, "no client traffic");
        assert_eq!(hit_ratio(0, 0), 0.0, "no verify lookups");
    }

    #[test]
    fn ratios_with_counts() {
        assert_eq!(fail_ratio(1, 4), 0.25);
        assert_eq!(commit_ratio(90, 100, 20), 0.75);
        assert_eq!(hit_ratio(3, 1), 0.75);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
