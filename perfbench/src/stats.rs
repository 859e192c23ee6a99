//! The benchmark's own arithmetic: nearest-rank percentiles, due-time
//! latency, phase differences of scraped counters, and per-phase
//! histogram quantiles rebuilt from a cumulative histogram's readout.
//!
//! Everything here is pure and unit-tested (`cargo test` in this
//! package), so a number in the report can be traced to a rule that has
//! a test.

use std::collections::BTreeMap;

/// Nearest-rank percentile of an ascending-sorted slice
/// (`ftl_engine::percentile_nearest_rank`, the rule the engine and the
/// server report by). `None` when empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| ftl_engine::percentile_nearest_rank(sorted, p))
}

/// Sorts a copy of `values` and reads the nearest-rank percentile.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, p)
}

/// Median (nearest-rank p50) of unsorted values.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// The nearest-rank `p` percentile of each consecutive window of
/// `window_ns`. `samples` are `(time_ns, value)` pairs in any order; a
/// window counts only if it holds at least `min_samples` values. The
/// median of the result moves with a stall of the machine in one window
/// far less than a percentile over all samples does.
pub fn window_percentiles(
    samples: &[(u64, f64)],
    window_ns: u64,
    p: f64,
    min_samples: usize,
) -> Vec<f64> {
    let Some(start) = samples.iter().map(|&(t, _)| t).min() else {
        return Vec::new();
    };
    let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(t, v) in samples {
        windows.entry((t - start) / window_ns).or_default().push(v);
    }
    windows
        .values()
        .filter(|w| w.len() >= min_samples)
        .filter_map(|w| percentile(w, p))
        .collect()
}

/// Latency of an open-loop request, timed from when it was *due*, not
/// from when the sender got round to it: a stalled generator or a full
/// socket makes every later request late, and that wait is charged to
/// the latency. Times are nanoseconds on one clock.
pub fn due_latency_ns(due_ns: u64, done_ns: u64) -> u64 {
    done_ns.saturating_sub(due_ns)
}

/// How late the sender ran for one request (`sent - due`, floored at 0).
pub fn gen_lag_ns(due_ns: u64, sent_ns: u64) -> u64 {
    sent_ns.saturating_sub(due_ns)
}

/// Counter values by name, as read at one instant.
pub type Counters = BTreeMap<String, f64>;

/// The change of every counter over a phase: `after - before`, by name.
/// A name missing before the phase counts as 0 there (the family first
/// appeared during the phase). A counter that went *down* is reported as
/// an error: counters here are monotone, so a drop means the two reads
/// came from different processes or a wrapped value.
pub fn phase_diff(before: &Counters, after: &Counters) -> Result<Counters, String> {
    let mut out = Counters::new();
    for (name, &a) in after {
        let b = before.get(name).copied().unwrap_or(0.0);
        if a < b {
            return Err(format!(
                "counter `{name}` went down over a phase: {b} -> {a}"
            ));
        }
        out.insert(name.clone(), a - b);
    }
    Ok(out)
}

/// Parses the unlabeled counter samples of a text exposition
/// (`name_total value` lines) into [`Counters`]. Gauges, `# TYPE` lines,
/// labeled samples and unparseable lines are skipped: only counters can
/// be differenced over a phase.
pub fn parse_counters(text: &str) -> Counters {
    let mut out = Counters::new();
    for line in text.lines() {
        if line.starts_with('#') || line.contains('{') {
            continue;
        }
        let mut parts = line.split_whitespace();
        if let (Some(name), Some(value), None) = (parts.next(), parts.next(), parts.next()) {
            if !name.ends_with("_total") {
                continue;
            }
            if let Ok(v) = value.parse::<f64>() {
                out.insert(name.to_string(), v);
            }
        }
    }
    out
}

/// A histogram as `(bucket upper bound, samples in bucket)`, ascending.
pub type Buckets = Vec<(u64, u64)>;

/// Rebuilds the bucket counts of a nearest-rank histogram from its
/// percentile readout alone. `value_at(p)` must return the upper bound of
/// the bucket holding rank `ceil(p * n)` of `n` samples. Ranks map to
/// bucket bounds monotonically, so each bucket's last rank is found by a
/// binary search: `O(buckets · log n)` readouts.
pub fn buckets_from_readout(n: u64, value_at: impl Fn(f64) -> u64) -> Buckets {
    // `(r - 0.5) / n` puts `ceil(p * n)` on rank `r` without float edge
    // cases at exact multiples.
    let at_rank = |r: u64| value_at((r as f64 - 0.5) / n as f64);
    let mut out = Buckets::new();
    let mut r = 1u64;
    while r <= n {
        let v = at_rank(r);
        let (mut lo, mut hi) = (r, n);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if at_rank(mid) == v {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        out.push((v, lo - r + 1));
        r = lo + 1;
    }
    out
}

/// Bucket counts gained over a phase: `after - before`, per bucket bound.
pub fn bucket_diff(before: &Buckets, after: &Buckets) -> Result<Buckets, String> {
    let now: BTreeMap<u64, u64> = after.iter().copied().collect();
    for &(bound, b) in before {
        let a = now.get(&bound).copied().unwrap_or(0);
        if a < b {
            return Err(format!("histogram bucket {bound} lost samples: {b} -> {a}"));
        }
    }
    let prior: BTreeMap<u64, u64> = before.iter().copied().collect();
    Ok(after
        .iter()
        .map(|&(bound, a)| (bound, a - prior.get(&bound).copied().unwrap_or(0)))
        .filter(|&(_, gained)| gained > 0)
        .collect())
}

/// Nearest-rank percentile over bucket counts (the bucket's upper bound,
/// like the histogram's own readout). `None` when empty.
pub fn bucket_percentile(buckets: &Buckets, p: f64) -> Option<u64> {
    let n: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as u64).clamp(1, n);
    let mut cum = 0;
    for &(bound, c) in buckets {
        cum += c;
        if cum >= rank {
            return Some(bound);
        }
    }
    buckets.last().map(|&(b, _)| b)
}

/// Total samples in bucket counts.
pub fn bucket_count(buckets: &Buckets) -> u64 {
    buckets.iter().map(|&(_, c)| c).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_sort_first_and_are_none_when_empty() {
        // The rank rule itself is the engine's (and tested there); what
        // is added here is sorting a copy and the empty case.
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(percentile(&[], 0.99), None);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        let w: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&w, 0.99), Some(10.0), "rank ceil(9.9) = 10");
        assert_eq!(
            median(&[4.0, 1.0, 3.0, 2.0]),
            Some(2.0),
            "even n: lower middle"
        );
    }

    #[test]
    fn window_percentiles_isolate_a_stalled_window() {
        // Three 10 ns windows of 100 samples; the middle one stalled.
        let mut samples = Vec::new();
        for w in 0..3u64 {
            for i in 0..100u64 {
                let v = if w == 1 { 50.0 } else { (i + 1) as f64 / 100.0 };
                samples.push((w * 10 + i % 10, v));
            }
        }
        let per = window_percentiles(&samples, 10, 0.99, 100);
        assert_eq!(per, vec![0.99, 50.0, 0.99]);
        assert_eq!(
            median(&per),
            Some(0.99),
            "one stalled window does not set the figure"
        );
        assert_eq!(
            percentile(&samples.iter().map(|s| s.1).collect::<Vec<_>>(), 0.99),
            Some(50.0)
        );
        // A window with too few samples is left out.
        samples.push((35, 1e9));
        assert_eq!(window_percentiles(&samples, 10, 0.99, 100).len(), 3);
        assert!(window_percentiles(&[], 10, 0.5, 1).is_empty());
    }

    #[test]
    fn latency_is_charged_from_the_due_time() {
        // Due at 1 ms, sent 3 ms late, answered 0.5 ms after sending:
        // the request waited 3.5 ms, not 0.5 ms.
        let due = 1_000_000;
        let sent = 4_000_000;
        let done = 4_500_000;
        assert_eq!(due_latency_ns(due, done), 3_500_000);
        assert_eq!(gen_lag_ns(due, sent), 3_000_000);
        // Sent early (clock granularity) is no negative lag.
        assert_eq!(gen_lag_ns(due, due - 10), 0);
        assert_eq!(due_latency_ns(due, due), 0);
    }

    #[test]
    fn phase_diff_subtracts_and_rejects_drops() {
        let before: Counters = [("a".to_string(), 10.0), ("b".to_string(), 5.0)].into();
        let after: Counters = [
            ("a".to_string(), 25.0),
            ("b".to_string(), 5.0),
            ("c".to_string(), 3.0),
        ]
        .into();
        let d = phase_diff(&before, &after).unwrap();
        assert_eq!(d["a"], 15.0);
        assert_eq!(d["b"], 0.0);
        assert_eq!(d["c"], 3.0, "a family new in the phase starts at 0");
        let dropped: Counters = [("a".to_string(), 9.0)].into();
        assert!(phase_diff(&before, &dropped).is_err());
    }

    #[test]
    fn counters_parse_from_an_exposition() {
        let text = "# TYPE ftl_server_rejects_total counter\n\
                    ftl_server_rejects_total 7\n\
                    ftl_stage_ns{stage=\"answer\",quantile=\"0.5\"} 40\n\
                    ftl_engine_cache_hit_ratio 0.750000\n\
                    garbage line here\n";
        let c = parse_counters(text);
        assert_eq!(c["ftl_server_rejects_total"], 7.0);
        assert_eq!(
            c.len(),
            1,
            "gauges, labeled and malformed lines are skipped"
        );
    }

    /// A model nearest-rank histogram readout over explicit buckets.
    fn readout(buckets: &Buckets) -> impl Fn(f64) -> u64 + '_ {
        move |p| bucket_percentile(buckets, p).unwrap_or(0)
    }

    #[test]
    fn buckets_are_rebuilt_exactly_from_the_readout() {
        let truth: Buckets = vec![(3, 1), (15, 40), (17, 2), (1023, 957), (4095, 1)];
        let n = bucket_count(&truth);
        assert_eq!(buckets_from_readout(n, readout(&truth)), truth);
        let single: Buckets = vec![(9, 1)];
        assert_eq!(buckets_from_readout(1, readout(&single)), single);
        assert!(buckets_from_readout(0, |_| 0).is_empty());
    }

    #[test]
    fn phase_quantiles_come_from_bucket_differences() {
        // Before the phase: 1000 fast samples. The phase adds 100 slow
        // ones. The cumulative p50 stays fast; the phase's p50 is slow.
        let before: Buckets = vec![(100, 1000)];
        let after: Buckets = vec![(100, 1000), (5000, 99), (9000, 1)];
        assert_eq!(bucket_percentile(&after, 0.5), Some(100));
        let phase = bucket_diff(&before, &after).unwrap();
        assert_eq!(bucket_count(&phase), 100);
        assert_eq!(bucket_percentile(&phase, 0.5), Some(5000));
        assert_eq!(bucket_percentile(&phase, 0.99), Some(5000));
        assert_eq!(bucket_percentile(&phase, 1.0), Some(9000));
        assert!(
            bucket_diff(&after, &before).is_err(),
            "buckets never shrink"
        );
        assert_eq!(bucket_percentile(&Buckets::new(), 0.5), None);
    }
}
