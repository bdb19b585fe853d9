//! What the benchmark reads about its own process and host.

use std::time::Duration;

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// User plus system CPU time of this process (all threads, live and
/// exited), from `/proc/self/stat`. Linux reports it in clock ticks of
/// 1/100 s.
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may contain spaces; the fields after it do not.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    Duration::from_millis(ticks * 10)
}

/// Sum of every sample line of a metric family in a Prometheus exposition
/// (all label sets). Histograms are read through their `_sum`/`_count`
/// families.
pub fn family_sum(exposition: &str, family: &str) -> f64 {
    exposition
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let rest = l.strip_prefix(family)?;
            if !(rest.starts_with(' ') || rest.starts_with('{')) {
                return None;
            }
            l.rsplit(' ').next()?.parse::<f64>().ok()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_sum_adds_labelled_series_and_skips_prefix_matches() {
        let text = "# TYPE a_total counter\n\
                    a_total{network=\"x\"} 3\n\
                    a_total{network=\"y\"} 4\n\
                    a_total_other 100\n\
                    b_total 9\n";
        assert_eq!(family_sum(text, "a_total"), 7.0);
        assert_eq!(family_sum(text, "b_total"), 9.0);
        assert_eq!(family_sum(text, "c_total"), 0.0);
    }

    #[test]
    fn cpu_time_grows_with_work() {
        let before = cpu_time();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(cpu_time() > before);
    }
}
