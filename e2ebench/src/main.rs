//! End-to-end benchmark binary for the rdns-privacy workspace.
//!
//! ```text
//! rdns-e2ebench <serve_open|sweep_live|lab|paper_trace> --seed N --seconds S --root DIR [--trace]
//! ```
//!
//! `e2ebench/run.py` builds this binary and the `reproduce` CLI, runs them
//! and prints the benchmark's result; see `e2ebench/README.md`. The last
//! line this binary prints is `RESULT {...}`: whether every output check
//! passed, operations attempted and failed, and every metric it measured
//! as `{"value", "unit", "samples"}`.

mod host;
mod paper;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line arguments shared by every mode.
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub root: PathBuf,
    pub trace: bool,
}

/// What a mode measured.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str, usize)>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Record a metric measured over `samples` observations.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.metrics.push((name.to_string(), value, unit, samples));
    }

    /// Record a failed output check; the run still reports its metrics.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("CHECK FAILED: {what}");
            self.correct = false;
        }
    }

    fn render(&self) -> String {
        let mut out = format!(
            "RESULT {{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit, samples)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\",\"samples\":{samples}}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// SplitMix64: the benchmark's own seeded generator for arrival times,
/// target picks and permutations.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [0, n).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// `k` distinct items of `pool`, in a seeded order.
    pub fn sample<T: Copy>(&mut self, pool: &[T], k: usize) -> Vec<T> {
        let mut pool = pool.to_vec();
        let k = k.min(pool.len());
        for i in 0..k {
            let j = i + self.below(pool.len() - i);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }
}

fn parse_args() -> Result<(String, Args), String> {
    let mut argv = std::env::args().skip(1);
    let mode = argv.next().ok_or("missing mode")?;
    let mut args = Args {
        seed: 1,
        seconds: 10.0,
        root: PathBuf::from("."),
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--root" => args.root = PathBuf::from(value()?),
            "--trace" => args.trace = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok((mode, args))
}

fn main() -> ExitCode {
    let (mode, args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("rdns-e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match mode.as_str() {
        "serve_open" => serve::run(&args),
        "sweep_live" => sweep::run(&args),
        "lab" => paper::lab(&args),
        "paper_trace" => paper::trace(&args),
        other => Err(format!("unknown mode {other}")),
    };
    match result {
        Ok(report) => {
            println!("{}", report.render());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("rdns-e2ebench {mode}: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_sample_is_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        let pool: Vec<u32> = (0..100).collect();
        let mut picked = Rng::new(3, 0).sample(&pool, 40);
        assert_eq!(picked.len(), 40);
        picked.sort_unstable();
        picked.dedup();
        assert_eq!(picked.len(), 40);
    }

    #[test]
    fn report_renders_metrics_in_order() {
        let mut r = Report::new();
        r.attempted = 3;
        r.metric("a_s", 0.5, "s", 1);
        r.metric("b", 2.0, "count", 4);
        assert_eq!(
            r.render(),
            "RESULT {\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\
             \"a_s\":{\"value\":0.5,\"unit\":\"s\",\"samples\":1},\
             \"b\":{\"value\":2.0,\"unit\":\"count\",\"samples\":4}}}"
        );
    }
}
