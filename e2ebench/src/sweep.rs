//! `sweep_live`: the paper's daily OpenINTEL measurement over the wire.
//! For a fixed number of simulated days a seeded world is stepped to 14:00,
//! every scan target is swept once over UDP by `WireSweeper`, and the
//! result is converted with `DailySnapshot::from_wire`. Zones churn between
//! sweeps, so the serve path runs miss- and invalidation-heavy.

use crate::host::{cpu_time, family_sum, nproc};
use crate::serve::ServerCounters;
use crate::stats::{check_budget, median, LoadPlan};
use crate::trace::{self_seconds_by_name, Tracer};
use crate::{Args, Report};
use rdns_data::{DailySnapshot, Snapshotter};
use rdns_dns::{FaultConfig, ShardedUdpServer};
use rdns_model::{Date, SimTime};
use rdns_netsim::spec::presets;
use rdns_netsim::{World, WorldConfig};
use rdns_scan::{SweepConfig, WireSweeper};
use rdns_telemetry::Registry;
use std::collections::HashSet;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

/// Population scale of the Table 4 networks the world is built from.
const NETWORK_SCALE: f64 = 1.0;
/// Simulated days swept per repeat, from Monday 2021-11-01.
const DAYS: i64 = 8;
/// Lookups the sweeper keeps in flight.
const CONCURRENCY: usize = 64;
/// One server socket with two workers; the client is the sweeping thread
/// plus the pipelined resolver's demux thread, on one socket.
const PLAN: LoadPlan = LoadPlan {
    client_threads: 2,
    client_sockets: 1,
    server_shards: 1,
    server_workers: 2,
};
/// Whole repeats (set-up plus every day) always run at least this often;
/// further repeats run while `--seconds` lasts.
const MIN_REPEATS: usize = 3;

/// What one repeat measured.
#[derive(Default)]
struct Repeat {
    setup: Duration,
    /// Stepping, sweeping and converting, summed over the days; `cpu` is
    /// the process CPU time over the same steps.
    run: Duration,
    step: Duration,
    sweep: Duration,
    from_wire: Duration,
    cpu: Duration,
    queried: u64,
    answered: u64,
    nxdomain: u64,
    timeouts: u64,
    servfail: u64,
    churn: u64,
    mismatched_days: u64,
    server: ServerCounters,
    pipeline: rdns_dns::PipelinedStatsSnapshot,
    retries: f64,
}

/// Records added, removed or renamed between two consecutive days.
fn churn(prev: &DailySnapshot, next: &DailySnapshot) -> u64 {
    let changed = next
        .records
        .iter()
        .filter(|(a, h)| prev.records.get(a) != Some(h))
        .count();
    let removed = prev
        .records
        .keys()
        .filter(|a| !next.records.contains_key(a))
        .count();
    (changed + removed) as u64
}

fn repeat(args: &Args, rt: &tokio::runtime::Runtime, tracer: &Tracer) -> Result<Repeat, String> {
    let mut r = Repeat::default();
    let registry = Registry::new();
    let start = Date::from_ymd(2021, 11, 1);
    let at = |d: i64| SimTime::from_date_hms(start.plus_days(d), 14, 0, 0);

    let t = Instant::now();
    let mut world = tracer.span("netsim.build", || {
        World::new(WorldConfig {
            seed: args.seed,
            shards: 0,
            start,
            networks: presets::table4_networks(NETWORK_SCALE),
        })
    });
    tracer.span("netsim.step", || world.step_until(at(0)));
    let store = world.store().clone();
    let targets: Vec<Ipv4Addr> = world.all_scan_targets();
    let swept_set: HashSet<Ipv4Addr> = targets.iter().copied().collect();
    let server = tracer
        .span("dns.bind", || {
            rt.block_on(ShardedUdpServer::bind(
                "127.0.0.1:0".parse().expect("loopback"),
                store.clone(),
                FaultConfig::default(),
                PLAN.server_shards,
            ))
        })
        .map_err(|e| format!("bind: {e}"))?
        .with_workers(PLAN.server_workers);
    let addr = server.addrs().map_err(|e| format!("addrs: {e}"))?[0];
    let stats = server.stats();
    let shutdown = server.shutdown_handle();
    let handle = tokio::spawn(server.run());
    let config = SweepConfig {
        concurrency: CONCURRENCY,
        permute_seed: Some(args.seed),
        rate: None,
    };
    let sweeper = tracer.span("dns.connect", || {
        rt.block_on(WireSweeper::connect_with_registry(addr, config, &registry))
    });
    let sweeper = match sweeper {
        Ok(s) => s,
        Err(e) => {
            shutdown.shutdown();
            let _ = rt.block_on(handle);
            return Err(format!("connect: {e}"));
        }
    };
    r.setup = t.elapsed();

    let counters = || ServerCounters::of(&stats);
    let server_before = counters();
    let pipeline_before = sweeper.resolver().stats().snapshot();
    let snapper = Snapshotter::new(store.clone());
    let mut prev: Option<DailySnapshot> = None;
    for d in 0..DAYS {
        let day = start.plus_days(d);
        let cpu_before = cpu_time();
        let t = Instant::now();
        if d > 0 {
            tracer.span("netsim.step", || world.step_until(at(d)));
        }
        let stepped = t.elapsed();
        let t = Instant::now();
        let report = tracer.span("scan.sweep", || rt.block_on(sweeper.sweep(&targets, day)));
        let swept = t.elapsed();
        let t = Instant::now();
        let snapshot = tracer.span("data.from_wire", || {
            DailySnapshot::from_wire(report.snapshot)
        });
        let converted = t.elapsed();
        r.cpu += cpu_time().saturating_sub(cpu_before);
        r.step += stepped;
        r.sweep += swept;
        r.from_wire += converted;
        r.run += stepped + swept + converted;
        r.queried += report.queried;
        r.answered += report.answered;
        r.nxdomain += report.nxdomain;
        r.timeouts += report.timeouts;
        r.servfail += report.failures;

        // Checked outside the timed steps: the wire view equals the store's
        // own snapshot, restricted to the swept addresses.
        let mut truth = snapper.take(day);
        truth.records.retain(|a, _| swept_set.contains(a));
        if report.queried != targets.len() as u64 || snapshot != truth {
            r.mismatched_days += 1;
        }
        if let Some(prev) = &prev {
            r.churn += churn(prev, &snapshot);
        }
        prev = Some(snapshot);
    }
    r.server = counters().since(&server_before);
    let pipeline = sweeper.resolver().stats().snapshot();
    r.pipeline = rdns_dns::PipelinedStatsSnapshot {
        queries_sent: pipeline.queries_sent - pipeline_before.queries_sent,
        responses: pipeline.responses - pipeline_before.responses,
        timeouts: pipeline.timeouts - pipeline_before.timeouts,
        unmatched: pipeline.unmatched - pipeline_before.unmatched,
        tcp_retries: pipeline.tcp_retries - pipeline_before.tcp_retries,
    };
    r.retries = family_sum(&registry.render_prometheus(), "rdns_scan_retries_total");

    rt.block_on(sweeper.into_resolver().shutdown());
    shutdown.shutdown();
    match rt.block_on(handle) {
        Ok(Ok(())) => Ok(r),
        Ok(Err(e)) => Err(format!("server: {e}")),
        Err(e) => Err(format!("server: {e}")),
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    check_budget(&PLAN, nproc())?;
    let tracer = Tracer::new(args.trace);
    let rt = tokio::runtime::Builder::new_multi_thread()
        .build()
        .map_err(|e| format!("runtime: {e}"))?;
    let began = Instant::now();
    let mut repeats = Vec::new();
    while repeats.len() < MIN_REPEATS || began.elapsed().as_secs_f64() < args.seconds {
        repeats.push(tracer.span("repeat", || repeat(args, &rt, &tracer))?);
    }

    let mut report = Report::new();
    for r in &repeats {
        report.attempted += r.queried;
        report.failed += r.timeouts + r.servfail + r.pipeline.unmatched;
        report.check(
            r.mismatched_days == 0,
            &format!(
                "{} days where from_wire differs from Snapshotter::take",
                r.mismatched_days
            ),
        );
        report.check(
            r.pipeline.unmatched == 0,
            &format!("{} unmatched replies", r.pipeline.unmatched),
        );
    }
    let secs = |f: fn(&Repeat) -> Duration| -> Vec<f64> {
        repeats.iter().map(|r| f(r).as_secs_f64()).collect()
    };
    let qps: Vec<f64> = repeats
        .iter()
        .map(|r| r.queried as f64 / r.sweep.as_secs_f64())
        .collect();
    let n = repeats.len();
    let first = &repeats[0];
    println!(
        "sweep_live: {} repeats of {DAYS} days, {} lookups/day at concurrency {CONCURRENCY}, server {} x {}, nproc {}",
        n,
        first.queried / DAYS as u64,
        PLAN.server_shards,
        PLAN.server_workers,
        nproc()
    );
    for r in &repeats {
        println!(
            "  setup {:.3} s, run {:.3} s (step {:.3}, sweep {:.3}, from_wire {:.3}), {:.0} q/s, {} PTR, {} NXDOMAIN, {} timeouts, churn {}",
            r.setup.as_secs_f64(),
            r.run.as_secs_f64(),
            r.step.as_secs_f64(),
            r.sweep.as_secs_f64(),
            r.from_wire.as_secs_f64(),
            r.queried as f64 / r.sweep.as_secs_f64(),
            r.answered,
            r.nxdomain,
            r.timeouts,
            r.churn
        );
    }

    if args.trace {
        let by_name = self_seconds_by_name(&tracer.spans());
        let per_repeat = |span: &str| by_name.get(span).copied().unwrap_or(0.0) / n as f64;
        for (metric, span) in [
            ("netsim.build_s", "netsim.build"),
            ("netsim.step_s", "netsim.step"),
            ("scan.sweep_s", "scan.sweep"),
            ("data.from_wire_s", "data.from_wire"),
        ] {
            report.metric(metric, per_repeat(span), "s", n);
        }
        report.metric("sweep.qps", median(&qps), "1/s", n);
        report.metric("scan.queried", first.queried as f64, "count", 1);
        report.metric("scan.answered", first.answered as f64, "count", 1);
        report.metric("scan.nxdomain", first.nxdomain as f64, "count", 1);
        report.metric("scan.timeouts", first.timeouts as f64, "count", 1);
        report.metric("scan.retries", first.retries, "count", 1);
        report.metric(
            "dns.pipeline.sent",
            first.pipeline.queries_sent as f64,
            "count",
            1,
        );
        report.metric(
            "dns.pipeline.responses",
            first.pipeline.responses as f64,
            "count",
            1,
        );
        report.metric(
            "dns.pipeline.unmatched",
            first.pipeline.unmatched as f64,
            "count",
            1,
        );
        report.metric("data.churn_records", first.churn as f64, "count", 1);
        first.server.report(&mut report);
        report.metric(
            "client.sent",
            first.pipeline.queries_sent as f64,
            "count",
            1,
        );
        report.metric(
            "client.failed",
            (first.timeouts + first.servfail) as f64,
            "count",
            1,
        );
        report.metric("proc.cpu_s", first.cpu.as_secs_f64(), "s", 1);
        report.metric(
            "proc.cpu_us_per_query",
            first.cpu.as_secs_f64() * 1e6 / first.queried as f64,
            "us",
            first.queried as usize,
        );
        report.metric("trace.wall_s", median(&secs(|r| r.run)), "s", n);
        crate::trace::write(&args.root, "sweep_live", &tracer.spans())?;
    } else {
        report.metric("setup_s", median(&secs(|r| r.setup)), "s", n);
        report.metric("run_s", median(&secs(|r| r.run)), "s", n);
        report.metric("cpu_s", median(&secs(|r| r.cpu)), "s", n);
    }
    Ok(report)
}
