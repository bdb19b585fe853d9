//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p rdns-bench --release --bin reproduce -- [tiny|small|paper] [experiment ...]
//! ```
//!
//! With no experiment arguments, everything runs. Experiment names:
//! `table1 fig1 fig2 fig3 fig4 validation table2 table3 table4 table5
//! fig6 fig7a fig7b fig8 fig9 fig10 fig11 ablation claims serve`.
//! Any other argument prints the valid names and exits with status 2.
//!
//! Each study and experiment reports its wall time on stderr as a
//! `[<stage>: <duration>]` line; stdout is a pure function of the scale.

use rdns_bench::parse_scale;
use rdns_core::experiments::{
    fig1, fig10, fig11, fig2, fig3, fig4, fig6, fig7, fig8, fig9, lease_ablation, leak_claims,
    lingering_claim, release_ablation, scale_claims, table1, table2, table3, table4, table5,
    validation, ClaimCheck, ClaimsReport, Scale,
};
use rdns_core::experiments::section5::LeakStudy;
use rdns_core::experiments::section6::SupplementalStudy;
use rdns_model::Date;
use rdns_telemetry::{Determinism, Histogram, Registry};
use std::collections::HashSet;
use std::time::{Duration, Instant};

const SCALES: [&str; 3] = ["tiny", "small", "paper"];
const EXPERIMENTS: &[&str] = &[
    "table1", "fig1", "fig2", "fig3", "fig4", "validation", "table2", "table3", "table4",
    "table5", "fig6", "fig7a", "fig7b", "fig8", "fig9", "fig10", "fig11", "ablation", "claims",
    "serve",
];

fn wanted(selected: &HashSet<String>, name: &str) -> bool {
    selected.is_empty() || selected.contains(name)
}

fn banner(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// The production-service demo: a seeded world publishes its reverse zones
/// through a sharded UDP front while the open-loop generator plays a
/// resolver population against it. Prints the latency SLO view.
fn serve_stage(scale: &Scale, registry: &Registry) {
    use rdns_dns::{FaultConfig, ShardedUdpServer};
    use rdns_loadgen::{ArrivalProcess, ArrivalSchedule, LoadConfig, LoadGenerator};
    use rdns_netsim::{spec::presets, World, WorldConfig};

    let (rate_qps, secs, shards) = match scale {
        s if *s == Scale::paper() => (10_000.0, 5.0, 4usize),
        s if *s == Scale::small() => (5_000.0, 2.0, 4),
        _ => (1_000.0, 0.5, 2),
    };
    let start = Date::from_ymd(2021, 11, 1);
    let mut world = World::new(WorldConfig {
        seed: 0x5E27E,
        shards: 0,
        start,
        networks: vec![
            presets::academic_a(0.1),
            presets::isp_a(0.2),
            presets::enterprise_b(0.1),
        ],
    });
    world.run_days(start.plus_days(2), |_, _| {});
    let targets = world.all_scan_targets();
    println!(
        "world: {} scannable addresses, {} PTRs live",
        targets.len(),
        world.ptr_count()
    );

    let rt = tokio::runtime::Builder::new_multi_thread()
        .build()
        .expect("runtime");
    let (addrs, shutdown) = rt.block_on(async {
        let server = ShardedUdpServer::bind(
            "127.0.0.1:0".parse().unwrap(),
            world.store().clone(),
            FaultConfig::default(),
            shards,
        )
        .await
        .expect("bind sharded server")
        .with_registry(registry)
        .with_workers(1);
        let addrs = server.addrs().expect("shard addrs");
        let shutdown = server.shutdown_handle();
        tokio::spawn(server.run());
        (addrs, shutdown)
    });

    let config = LoadConfig {
        seed: 0x10AD,
        rate_qps,
        duration: Duration::from_secs_f64(secs),
        process: ArrivalProcess::Poisson,
        clients: 1000,
        workers: 2,
        rate_ceiling: None,
        drain_grace: Duration::from_secs(3),
    };
    // The schedule is a pure function of the seed and config; what the
    // wire did with it is not.
    let scheduled = ArrivalSchedule::generate(&config, &targets).len();
    let report = LoadGenerator::new(config)
        .with_registry(registry)
        .run(&addrs, &targets)
        .expect("serve load");
    shutdown.shutdown();

    // Only seed-stable values go to stdout, which stays diffable across
    // thread counts and hosts. Every observed count depends on wall-clock
    // timeouts and socket back-pressure, so it goes to stderr with the
    // latencies.
    println!("offered {rate_qps:.0} q/s for {secs:.1} s over {shards} shards: {scheduled} queries scheduled");
    eprintln!(
        "[serve wall-clock: {} sent, {} answered, {} nxdomain, {} failed; {:.0} q/s achieved, p50 {}µs p99 {}µs p999 {}µs, peak in-flight {}]",
        report.sent,
        report.answered,
        report.nxdomain,
        report.failed(),
        report.offered_qps,
        report.p50_us.unwrap_or(0),
        report.p99_us.unwrap_or(0),
        report.p999_us.unwrap_or(0),
        report.max_in_flight
    );
}

/// Print the valid arguments and exit with status 2.
fn reject(token: &str) -> ! {
    eprintln!("reproduce: unknown argument {token:?}");
    eprintln!("usage: reproduce [{}] [experiment ...]", SCALES.join("|"));
    eprintln!("experiments: {}", EXPERIMENTS.join(" "));
    std::process::exit(2);
}

/// Run `f` and return its result with its wall time.
fn measure<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

/// Report a stage's wall time: a `[<stage>: <duration>]` line on stderr and
/// one observation in the stage histogram.
fn report(wall: &Histogram, stage: &str, took: Duration) {
    wall.observe_duration(took);
    eprintln!("[{stage}: {took:?}]");
}

/// Run one stage and [`report`] its wall time.
fn timed<T>(wall: &Histogram, stage: &str, f: impl FnOnce() -> T) -> T {
    let (out, took) = measure(f);
    report(wall, stage, took);
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale_given = args.first().is_some_and(|a| SCALES.contains(&a.as_str()));
    let scale = parse_scale(args.first().map(String::as_str));
    let mut selected: HashSet<String> = HashSet::new();
    for arg in &args[usize::from(scale_given)..] {
        let name = arg.to_ascii_lowercase();
        if !EXPERIMENTS.contains(&name.as_str()) {
            reject(arg);
        }
        selected.insert(name);
    }
    println!("# rdns-privacy reproduction — scale {scale:?}");
    let t0 = Instant::now();
    // Stage timings land in a wall-clock histogram; set RDNS_METRICS=1 to
    // dump the exposition to stderr at exit (see OBSERVABILITY.md).
    let registry = Registry::new();
    let wall = registry.histogram(
        "rdns_bench_stage_wall_us",
        "Wall-clock time per reproduction stage, microseconds.",
        Determinism::WallClock,
    );
    // The §1 checklist is built from the studies below while they are
    // alive, so neither is simulated twice; its time is the sum of its
    // parts and is reported once, at the `claims` stage.
    let want_claims = wanted(&selected, "claims");
    let mut claim_checks: Vec<ClaimCheck> = Vec::new();
    let mut claims_time = Duration::ZERO;

    // §4/§5 study feeds Table 1, Figs. 1–4 and claims 1–2.
    let leak_names = ["table1", "fig1", "fig2", "fig3", "fig4", "claims"];
    if leak_names.iter().any(|n| wanted(&selected, n)) {
        let study = timed(&wall, "leak study", || LeakStudy::run(&scale));
        if wanted(&selected, "table1") {
            timed(&wall, "table1", || {
                banner("Table 1 — dataset statistics");
                print!("{}", table1(&study).render());
            });
        }
        if wanted(&selected, "fig1") {
            timed(&wall, "fig1", || {
                banner("Figure 1 — dynamic /24 fraction per announced prefix size");
                print!("{}", fig1(&study).render());
            });
        }
        if wanted(&selected, "fig2") {
            timed(&wall, "fig2", || {
                banner("Figure 2 — given names in rDNS (all vs filtered)");
                print!("{}", fig2(&study).render());
            });
        }
        if wanted(&selected, "fig3") {
            timed(&wall, "fig3", || {
                banner("Figure 3 — device terms alongside given names");
                print!("{}", fig3(&study).render());
            });
        }
        if wanted(&selected, "fig4") {
            timed(&wall, "fig4", || {
                banner("Figure 4 — identified networks by type");
                let b = fig4(&study);
                for (class, count, pct) in b.rows() {
                    println!("{:<12} {:>4}  {:>5.1}%", class.label(), count, pct);
                }
                println!("total identified: {}", b.total());
            });
        }
        if want_claims {
            let (checks, took) = measure(|| leak_claims(&study));
            claim_checks.extend(checks);
            claims_time += took;
        }
    }

    if wanted(&selected, "validation") {
        timed(&wall, "validation", || {
            banner("§4.1 validation — campus ground truth");
            print!("{}", validation(&scale).render());
        });
    }

    if wanted(&selected, "table2") {
        timed(&wall, "table2", || {
            banner("Table 2 — reactive back-off schedule");
            print!("{}", table2());
        });
    }

    // §6 study feeds Tables 3–5, Figs. 6–7 and claim 3.
    let supp_names = ["table3", "table4", "table5", "fig6", "fig7a", "fig7b", "claims"];
    if supp_names.iter().any(|n| wanted(&selected, n)) {
        let study = timed(&wall, "supplemental study", || SupplementalStudy::run(&scale));
        if wanted(&selected, "table3") {
            timed(&wall, "table3", || {
                banner("Table 3 — supplemental measurement statistics");
                print!("{}", table3(&study));
            });
        }
        if wanted(&selected, "table4") {
            timed(&wall, "table4", || {
                banner("Table 4 — targeted networks and ICMP observability");
                print!("{}", table4(&study));
            });
        }
        if wanted(&selected, "table5") {
            timed(&wall, "table5", || {
                banner("Table 5 — group funnel");
                print!("{}", table5(&study));
            });
        }
        if wanted(&selected, "fig6") {
            timed(&wall, "fig6", || {
                banner("Figure 6 — DNS errors per day");
                let f6 = fig6(&study);
                print!("{}", f6.render());
                println!("error fraction: {:.2}%", f6.error_fraction() * 100.0);
            });
        }
        if wanted(&selected, "fig7a") || wanted(&selected, "fig7b") {
            timed(&wall, "fig7", || {
                banner("Figure 7 — PTR removal timing");
                print!("{}", fig7(&study).render());
            });
        }
        if want_claims {
            let (check, took) = measure(|| lingering_claim(&study));
            claim_checks.push(check);
            claims_time += took;
        }
    }

    if wanted(&selected, "fig8") {
        timed(&wall, "fig8", || {
            banner("Figure 8 — six weeks in the Life of Brian(s)");
            print!("{}", fig8(&scale).render());
        });
    }

    if wanted(&selected, "fig9") {
        timed(&wall, "fig9", || {
            banner("Figure 9 — longitudinal presence around COVID-19");
            // Paper window: early 2020 through end of 2021. Tiny/small scales
            // shorten the window to keep runtimes sane.
            let (from, to) = match scale {
                s if s == Scale::paper() => {
                    (Date::from_ymd(2020, 2, 17), Date::from_ymd(2021, 12, 1))
                }
                s if s == Scale::small() => {
                    (Date::from_ymd(2020, 2, 17), Date::from_ymd(2020, 12, 31))
                }
                _ => (Date::from_ymd(2020, 2, 17), Date::from_ymd(2020, 6, 30)),
            };
            print!("{}", fig9(&scale, from, to).render());
        });
    }

    if wanted(&selected, "fig10") {
        timed(&wall, "fig10", || {
            banner("Figure 10 — Academic-C education vs housing");
            let (weekly_from, daily_from, to) = match scale {
                s if s == Scale::paper() => (
                    Date::from_ymd(2019, 10, 1),
                    Date::from_ymd(2020, 2, 17),
                    Date::from_ymd(2021, 1, 31),
                ),
                _ => (
                    Date::from_ymd(2020, 1, 6),
                    Date::from_ymd(2020, 2, 17),
                    Date::from_ymd(2020, 6, 30),
                ),
            };
            let f10 = fig10(&scale, weekly_from, daily_from, to);
            print!("{}", f10.render());
            if let Some(lead) = f10.housing_leads_on(Date::from_ymd(2020, 4, 15)) {
                println!("housing leads education on 2020-04-15: {lead}");
            }
        });
    }

    if wanted(&selected, "fig11") {
        timed(&wall, "fig11", || {
            banner("Figure 11 — when to stage a heist");
            print!("{}", fig11(&scale).render());
        });
    }

    if want_claims {
        let ((), took) = measure(|| {
            banner("Contribution checklist (paper §1)");
            claim_checks.extend(scale_claims(&scale));
            let report = ClaimsReport {
                checks: std::mem::take(&mut claim_checks),
            };
            print!("{}", report.render());
            println!(
                "\nverdict: {}",
                if report.all_passed() {
                    "all five contributions reproduced"
                } else {
                    "SOME CLAIMS FAILED — inspect evidence above"
                }
            );
        });
        report(&wall, "claims", claims_time + took);
    }

    if wanted(&selected, "ablation") {
        timed(&wall, "ablation", || {
            banner("Ablation — does withholding DHCP RELEASE defend? (§10)");
            print!("{}", release_ablation(&scale).render());
            banner("Ablation — lease time vs record lingering (§6.2)");
            print!("{}", lease_ablation(&scale).render());
        });
    }

    if wanted(&selected, "serve") {
        timed(&wall, "serve stage", || {
            banner("Serve path — sharded authoritative front under open-loop load");
            serve_stage(&scale, &registry);
        });
    }

    if std::env::var_os("RDNS_METRICS").is_some() {
        eprint!("{}", registry.render_prometheus());
    }
    eprintln!("\n[total: {:?}]", t0.elapsed());
}
