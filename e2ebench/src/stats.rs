//! Exact order statistics, the capacity ladder's stop rule and the load
//! budget guard. Pure functions, so the benchmark's own rules are testable
//! without a socket.

/// Minimum number of samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// An exact percentile together with the sample count it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
}

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it. The samples need not
/// be sorted. A failed operation must be passed in as a value above every
/// limit, so it can never hide below the percentile.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    assert!(q > 0.0 && q < 1.0, "percentile rank must lie in (0, 1)");
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// Median of a non-empty set of repeat measurements (mean of the middle
/// pair for an even count). Unlike [`percentile`] this has no minimum
/// count: it summarises a handful of whole-workload repeats.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// What one rung of the rate ladder measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate, queries per second.
    pub rate: f64,
    /// p99 latency in ms (failures counted as missing the limit), or
    /// `None` when the rung had too few samples for a p99.
    pub p99_ms: Option<f64>,
    /// Queries that failed or timed out.
    pub failed: u64,
    /// Growth of generator lateness across the rung, in ms.
    pub late_growth_ms: f64,
}

/// Limits a rung must meet to count towards capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slo {
    pub p99_ms: f64,
    pub max_late_growth_ms: f64,
}

impl Rung {
    /// Whether this rung meets every condition: p99 within the limit, no
    /// failed query and no growing generator backlog.
    pub fn meets(&self, slo: &Slo) -> bool {
        self.failed == 0
            && self.late_growth_ms <= slo.max_late_growth_ms
            && self.p99_ms.is_some_and(|p| p <= slo.p99_ms)
    }
}

/// Capacity: the highest rate the ladder reaches before its first rung
/// that misses the SLO. The climb stops there, so a later rung that
/// happens to pass does not count. 0 when the first rung already misses.
pub fn capacity(rungs: &[Rung], slo: &Slo) -> f64 {
    rungs
        .iter()
        .take_while(|r| r.meets(slo))
        .last()
        .map_or(0.0, |r| r.rate)
}

/// Growth of generator lateness across a rung: mean lateness of the last
/// quarter of its sends minus that of the first quarter. A generator that
/// keeps up shows jitter around zero; one that falls behind grows.
pub fn late_growth(lateness_ms: &[f64]) -> f64 {
    let quarter = lateness_ms.len() / 4;
    if quarter == 0 {
        return 0.0;
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    mean(&lateness_ms[lateness_ms.len() - quarter..]) - mean(&lateness_ms[..quarter])
}

/// Threads and sockets a workload plans to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadPlan {
    pub client_threads: usize,
    pub client_sockets: usize,
    pub server_shards: usize,
    pub server_workers: usize,
}

/// Refuse a plan that would put more client threads, client sockets or
/// server shard × worker tasks on the host than it has cores.
pub fn check_budget(plan: &LoadPlan, nproc: usize) -> Result<(), String> {
    let server = plan.server_shards * plan.server_workers;
    for (what, n) in [
        ("client threads", plan.client_threads),
        ("client sockets", plan.client_sockets),
        ("server shards x workers", server),
    ] {
        if n > nproc {
            return Err(format!("{what} = {n} exceeds nproc = {nproc}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_reports_its_count() {
        let samples: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        let p50 = percentile(&samples, 0.5).unwrap();
        assert_eq!(
            p50,
            Percentile {
                value: 50.0,
                samples: 100
            }
        );
        assert_eq!(percentile(&samples, 0.9).unwrap().value, 90.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples leaves exactly 10 beyond rank 990.
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99).unwrap().value, 989.0);
        assert!(percentile(&thousand[..999], 0.99).is_none());
        // p50 needs 20 samples.
        assert!(percentile(&thousand[..19], 0.5).is_none());
        assert_eq!(percentile(&thousand[..20], 0.5).unwrap().value, 9.0);
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn failures_count_as_missing_the_limit() {
        // 2% failures, passed in as the timeout, push p99 past any SLO.
        let mut samples = vec![0.4; 980];
        samples.extend(vec![500.0; 20]);
        assert_eq!(percentile(&samples, 0.99).unwrap().value, 500.0);
        assert_eq!(percentile(&samples, 0.5).unwrap().value, 0.4);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    const SLO: Slo = Slo {
        p99_ms: 2.0,
        max_late_growth_ms: 1.0,
    };

    fn rung(rate: f64, p99: f64, failed: u64, growth: f64) -> Rung {
        Rung {
            rate,
            p99_ms: Some(p99),
            failed,
            late_growth_ms: growth,
        }
    }

    #[test]
    fn ladder_stops_at_first_missed_rung() {
        let rungs = [
            rung(10e3, 0.8, 0, 0.0),
            rung(20e3, 1.2, 0, 0.1),
            rung(30e3, 2.5, 0, 0.1),
            rung(40e3, 1.5, 0, 0.0), // passes, but the climb already stopped
        ];
        assert_eq!(capacity(&rungs, &SLO), 20e3);
    }

    #[test]
    fn a_failed_query_counts_as_a_miss() {
        let rungs = [rung(10e3, 0.8, 0, 0.0), rung(20e3, 0.9, 1, 0.0)];
        assert_eq!(capacity(&rungs, &SLO), 10e3);
    }

    #[test]
    fn growing_lateness_stops_the_climb() {
        let rungs = [rung(10e3, 0.8, 0, 0.2), rung(20e3, 0.9, 0, 3.0)];
        assert_eq!(capacity(&rungs, &SLO), 10e3);
        let first_misses = [rung(10e3, 0.8, 0, 5.0)];
        assert_eq!(capacity(&first_misses, &SLO), 0.0);
    }

    #[test]
    fn a_rung_without_a_p99_misses() {
        let thin = Rung {
            rate: 10e3,
            p99_ms: None,
            failed: 0,
            late_growth_ms: 0.0,
        };
        assert!(!thin.meets(&SLO));
    }

    #[test]
    fn late_growth_compares_last_and_first_quarters() {
        let steady = [0.1, 0.2, 0.1, 0.2, 0.1, 0.2, 0.1, 0.2];
        assert!(late_growth(&steady).abs() < 1e-9);
        let falling_behind: Vec<f64> = (0..8).map(f64::from).collect();
        assert_eq!(late_growth(&falling_behind), 6.0);
        assert_eq!(late_growth(&[1.0, 2.0]), 0.0);
    }

    #[test]
    fn budget_guard_refuses_oversubscription() {
        let plan = LoadPlan {
            client_threads: 2,
            client_sockets: 1,
            server_shards: 2,
            server_workers: 1,
        };
        assert!(check_budget(&plan, 2).is_ok());
        let err = check_budget(&plan, 1).unwrap_err();
        assert!(err.contains("client threads"), "{err}");
        let wide = LoadPlan {
            server_workers: 2,
            ..plan
        };
        assert!(check_budget(&wide, 2)
            .unwrap_err()
            .contains("server shards x workers"));
    }
}
