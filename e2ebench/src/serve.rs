//! `serve_open`: a seeded world, stepped to a weekday afternoon, published
//! through `ShardedUdpServer` and offered Poisson-timed PTR queries by the
//! benchmark's own open-loop client, at two fixed rates and then up a fixed
//! rate ladder. Every query is timed from the instant it was due.

use crate::host::{cpu_time, nproc};
use crate::stats::{self, check_budget, late_growth, percentile, LoadPlan, Rung, Slo};
use crate::trace::{self_seconds_by_name, Tracer};
use crate::{Args, Report, Rng};
use rdns_dns::{FaultConfig, Message, Question, RecordData, ShardedUdpServer};
use rdns_model::{Date, SimTime};
use rdns_netsim::spec::presets;
use rdns_netsim::{World, WorldConfig};
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Population scale of the Table 4 networks the world is built from.
const NETWORK_SCALE: f64 = 2.0;
/// Size of the reused target set, and the share of it with no PTR.
const TARGETS: usize = 4096;
const NXDOMAIN_SHARE: f64 = 0.2;
/// The two fixed rate points, queries per second.
const LO_QPS: f64 = 2_000.0;
const HI_QPS: f64 = 15_000.0;
/// The capacity ladder, queries per second.
const LADDER_QPS: [f64; 6] = [5_000.0, 10_000.0, 15_000.0, 20_000.0, 25_000.0, 30_000.0];
/// Shares of `--seconds` spent at `lo`, at `hi` and on the whole ladder.
const LO_SHARE: f64 = 0.2;
const HI_SHARE: f64 = 0.2;
const LADDER_SHARE: f64 = 0.6;
/// Capacity limits: the p99 SLO of the committed serve bench, and how much
/// the generator's lateness may grow across a rung.
const SLO: Slo = Slo {
    p99_ms: 2.0,
    max_late_growth_ms: 1.0,
};
/// A query unanswered this long after its due time has failed; its latency
/// counts as this value, above every limit.
const TIMEOUT: Duration = Duration::from_millis(200);
/// Server sockets × workers, and the client's threads (sender, receiver)
/// and sockets.
const PLAN: LoadPlan = LoadPlan {
    client_threads: 2,
    client_sockets: 1,
    server_shards: 2,
    server_workers: 1,
};
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Queries in flight during the cache-warming pass.
const WARM_WINDOW: usize = 64;

/// One query the client may send: wire bytes with a patchable ID, the
/// shard it goes to, and the answer class the store predicts.
struct Target {
    addr: Ipv4Addr,
    query: Vec<u8>,
    shard: usize,
    has_ptr: bool,
}

/// A published world with its server running.
struct Published {
    targets: Vec<Target>,
    addrs: Vec<SocketAddr>,
    stats: Vec<std::sync::Arc<rdns_dns::ServerStats>>,
    shutdown: rdns_dns::ShardedShutdownHandle,
    server: tokio::task::JoinHandle<std::io::Result<()>>,
}

impl Published {
    fn stop(self, rt: &tokio::runtime::Runtime) -> Result<(), String> {
        self.shutdown.shutdown();
        match rt.block_on(self.server) {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(e) => Err(format!("server: {e}")),
        }
    }

    fn counters(&self) -> ServerCounters {
        ServerCounters::of(&self.stats)
    }
}

#[derive(Debug, Default, Clone, Copy)]
pub struct ServerCounters {
    pub received: u64,
    pub answered: u64,
    pub nxdomain: u64,
    pub hits: u64,
    pub misses: u64,
    pub invalidations: u64,
    pub wakeups: u64,
    pub batched: u64,
}

impl ServerCounters {
    /// Current totals over every shard of a server.
    pub fn of(stats: &[std::sync::Arc<rdns_dns::ServerStats>]) -> ServerCounters {
        let mut c = ServerCounters::default();
        for s in stats {
            let snap = s.snapshot();
            c.received += snap.received;
            c.answered += snap.answered;
            c.nxdomain += snap.nxdomain;
            c.hits += snap.cache_hits;
            c.misses += snap.cache_misses;
            c.invalidations += snap.cache_invalidations;
            c.wakeups += s.batch_size.count();
            c.batched += s.batch_size.sum();
        }
        c
    }

    fn plus(&self, other: &ServerCounters) -> ServerCounters {
        ServerCounters {
            received: self.received + other.received,
            answered: self.answered + other.answered,
            nxdomain: self.nxdomain + other.nxdomain,
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            invalidations: self.invalidations + other.invalidations,
            wakeups: self.wakeups + other.wakeups,
            batched: self.batched + other.batched,
        }
    }

    pub fn since(&self, before: &ServerCounters) -> ServerCounters {
        ServerCounters {
            received: self.received - before.received,
            answered: self.answered - before.answered,
            nxdomain: self.nxdomain - before.nxdomain,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            invalidations: self.invalidations - before.invalidations,
            wakeups: self.wakeups - before.wakeups,
            batched: self.batched - before.batched,
        }
    }

    /// Report the server's counters under `dns.server.*` / `dns.rcache.*`.
    pub fn report(&self, report: &mut Report) {
        report.metric("dns.server.received", self.received as f64, "count", 1);
        report.metric("dns.server.answered", self.answered as f64, "count", 1);
        report.metric("dns.server.nxdomain", self.nxdomain as f64, "count", 1);
        report.metric("dns.server.wakeups", self.wakeups as f64, "count", 1);
        report.metric("dns.rcache.hits", self.hits as f64, "count", 1);
        report.metric("dns.rcache.misses", self.misses as f64, "count", 1);
        report.metric(
            "dns.rcache.invalidations",
            self.invalidations as f64,
            "count",
            1,
        );
        let probes = self.hits + self.misses;
        if probes > 0 {
            report.metric(
                "dns.rcache.hit_ratio",
                self.hits as f64 / probes as f64,
                "ratio",
                probes as usize,
            );
        }
    }

    fn mean_batch(&self) -> f64 {
        self.batched as f64 / self.wakeups.max(1) as f64
    }
}

/// Build the world, publish it, start the server and warm its response
/// cache with one pass over the target set, checking every answer.
fn publish(
    args: &Args,
    rt: &tokio::runtime::Runtime,
    sock: &UdpSocket,
    tracer: &Tracer,
) -> Result<Published, String> {
    // Monday 2021-11-01, 14:00: campus and office populations at their peak.
    let day = Date::from_ymd(2021, 11, 1);
    let mut world = tracer.span("netsim.build", || {
        World::new(WorldConfig {
            seed: args.seed,
            shards: 0,
            start: day,
            networks: presets::table4_networks(NETWORK_SCALE),
        })
    });
    tracer.span("netsim.step", || {
        world.step_until(SimTime::from_date_hms(day, 14, 0, 0))
    });
    let store = world.store().clone();
    let (live, dead): (Vec<Ipv4Addr>, Vec<Ipv4Addr>) = world
        .all_scan_targets()
        .into_iter()
        .partition(|a| store.get_ptr(*a).is_some());
    let nx = (TARGETS as f64 * NXDOMAIN_SHARE) as usize;
    if live.len() < TARGETS - nx || dead.len() < nx {
        return Err(format!(
            "world too small: {} live, {} without PTR",
            live.len(),
            dead.len()
        ));
    }
    let mut rng = Rng::new(args.seed, 0x7A6);
    let mut picked = rng.sample(&live, TARGETS - nx);
    picked.extend(rng.sample(&dead, nx));
    let picked = rng.sample(&picked, picked.len());

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
    let addrs = server.addrs().map_err(|e| format!("addrs: {e}"))?;
    let stats = server.stats();
    let shutdown = server.shutdown_handle();
    let handle = tokio::spawn(server.run());
    let targets: Vec<Target> = picked
        .iter()
        .enumerate()
        .map(|(i, &addr)| Target {
            addr,
            query: Message::query(0, Question::ptr_for(addr)).encode(),
            shard: i % addrs.len(),
            has_ptr: store.get_ptr(addr).is_some(),
        })
        .collect();
    let published = Published {
        targets,
        addrs,
        stats,
        shutdown,
        server: handle,
    };
    let warm = tracer.span("client.warm", || warm_pass(sock, &published, &store));
    if let Err(e) = warm {
        let _ = published.stop(rt);
        return Err(e);
    }
    Ok(published)
}

/// Query every target once, `WARM_WINDOW` at a time, and check each reply
/// in full against the store.
fn warm_pass(sock: &UdpSocket, p: &Published, store: &rdns_dns::ZoneStore) -> Result<(), String> {
    drain(sock);
    let mut buf = [0u8; 1500];
    for (c, chunk) in p.targets.chunks(WARM_WINDOW).enumerate() {
        for (k, t) in chunk.iter().enumerate() {
            let mut q = t.query.clone();
            q[..2].copy_from_slice(&((c * WARM_WINDOW + k) as u16).to_be_bytes());
            sock.send_to(&q, p.addrs[t.shard])
                .map_err(|e| format!("warm send: {e}"))?;
        }
        let deadline = Instant::now() + TIMEOUT;
        let mut seen = 0;
        while seen < chunk.len() {
            if Instant::now() > deadline {
                return Err(format!(
                    "warm pass: {} of {} replies missing",
                    chunk.len() - seen,
                    chunk.len()
                ));
            }
            let Ok((len, _)) = sock.recv_from(&mut buf) else {
                continue;
            };
            let reply = Message::decode(&buf[..len]).map_err(|e| format!("warm reply: {e:?}"))?;
            let i = reply.header.id as usize;
            let t = i
                .checked_sub(c * WARM_WINDOW)
                .and_then(|k| chunk.get(k))
                .ok_or("warm pass: reply with an unknown ID")?;
            let got = reply.answers.iter().find_map(|rr| match &rr.data {
                RecordData::Ptr(name) => Some(name.clone()),
                _ => None,
            });
            if got != store.get_ptr(t.addr) {
                return Err(format!("warm pass: wrong answer for {}", t.addr));
            }
            seen += 1;
        }
    }
    Ok(())
}

/// Give the client socket a 4 MiB receive buffer, so replies that arrive
/// while the receiver thread is descheduled wait instead of being dropped:
/// a loss there would be the client's, not the server's.
fn enlarge_receive_buffer(sock: &UdpSocket) -> Result<(), String> {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            value: *const std::ffi::c_void,
            len: u32,
        ) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    let bytes: i32 = 4 << 20;
    // SAFETY: `fd` is an open socket owned by `sock` for the whole call, and
    // `value`/`len` describe a live, correctly sized `i32`.
    let rc = unsafe {
        setsockopt(
            sock.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            (&bytes as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("SO_RCVBUF: {}", std::io::Error::last_os_error()))
    }
}

/// Discard any datagram still queued on the client socket.
fn drain(sock: &UdpSocket) {
    let mut buf = [0u8; 1500];
    sock.set_nonblocking(true).expect("nonblocking");
    while sock.recv_from(&mut buf).is_ok() {}
    sock.set_nonblocking(false).expect("blocking");
}

/// Poisson arrivals at `rate` for `secs`: `(due offset in ns, target)`.
fn schedule(rng: &mut Rng, rate: f64, secs: f64, targets: usize) -> Vec<(u64, usize)> {
    let mut out = Vec::with_capacity((rate * secs * 1.1) as usize);
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= secs {
            return out;
        }
        out.push(((t * 1e9) as u64, rng.below(targets)));
    }
}

/// What one rate point measured.
struct Phase {
    rate: f64,
    /// Latency from due time per query, ms; a failed query reads `TIMEOUT`.
    latency_ms: Vec<f64>,
    /// Send instant minus due time per query, ms.
    lateness_ms: Vec<f64>,
    failed: u64,
    unmatched: u64,
    /// Replies whose class differs from what the store predicts.
    wrong: u64,
    answered: u64,
    nxdomain: u64,
    expected_answered: u64,
    elapsed: Duration,
    cpu: Duration,
    server: ServerCounters,
}

impl Phase {
    fn p(&self, q: f64) -> Option<stats::Percentile> {
        percentile(&self.latency_ms, q)
    }

    fn rung(&self) -> Rung {
        Rung {
            rate: self.rate,
            p99_ms: self.p(0.99).map(|p| p.value),
            failed: self.failed,
            late_growth_ms: late_growth(&self.lateness_ms),
        }
    }
}

/// Offer `plan` open-loop: the calling thread sends each query at its due
/// time (or at once when behind), a second thread receives and matches
/// replies by ID and question.
fn run_phase(sock: &UdpSocket, p: &Published, rate: f64, plan: &[(u64, usize)]) -> Phase {
    drain(sock);
    let n = plan.len();
    let sent = AtomicUsize::new(0);
    let server_before = p.counters();
    let cpu_before = cpu_time();
    let start = Instant::now() + Duration::from_millis(2);
    let last_due = Duration::from_nanos(plan.last().map_or(0, |q| q.0));
    let deadline = start + last_due + TIMEOUT;

    let (lateness_ms, rx) = std::thread::scope(|s| {
        let receiver = s.spawn(|| receive(sock, p, plan, &sent, start, deadline));
        let mut lateness = Vec::with_capacity(n);
        let mut buf = Vec::with_capacity(64);
        for (seq, &(due_ns, t)) in plan.iter().enumerate() {
            let due = start + Duration::from_nanos(due_ns);
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let target = &p.targets[t];
            buf.clear();
            buf.extend_from_slice(&target.query);
            buf[..2].copy_from_slice(&(seq as u16).to_be_bytes());
            // Announce the query before sending it: its reply can arrive
            // before `send_to` returns.
            sent.store(seq + 1, Ordering::Release);
            let at = Instant::now();
            // A failed send leaves the query unanswered: it times out.
            let _ = sock.send_to(&buf, p.addrs[target.shard]);
            lateness.push(at.saturating_duration_since(due).as_secs_f64() * 1e3);
        }
        (lateness, receiver.join().expect("receiver thread panicked"))
    });
    let elapsed = start.elapsed();
    let cpu = cpu_time().saturating_sub(cpu_before);
    let server = p.counters().since(&server_before);
    let expected_answered = plan.iter().filter(|q| p.targets[q.1].has_ptr).count() as u64;
    let timeout_ms = TIMEOUT.as_secs_f64() * 1e3;
    let failed = rx.latency_ms.iter().filter(|l| l.is_nan()).count() as u64 + rx.servfail;
    Phase {
        rate,
        latency_ms: rx
            .latency_ms
            .iter()
            .map(|&l| if l.is_nan() { timeout_ms } else { l })
            .collect(),
        lateness_ms,
        failed,
        unmatched: rx.unmatched,
        wrong: rx.wrong,
        answered: rx.answered,
        nxdomain: rx.nxdomain,
        expected_answered,
        elapsed,
        cpu,
        server,
    }
}

struct Received {
    latency_ms: Vec<f64>,
    unmatched: u64,
    wrong: u64,
    servfail: u64,
    answered: u64,
    nxdomain: u64,
}

fn receive(
    sock: &UdpSocket,
    p: &Published,
    plan: &[(u64, usize)],
    sent: &AtomicUsize,
    start: Instant,
    deadline: Instant,
) -> Received {
    let mut rx = Received {
        latency_ms: vec![f64::NAN; plan.len()],
        unmatched: 0,
        wrong: 0,
        servfail: 0,
        answered: 0,
        nxdomain: 0,
    };
    let mut done = 0;
    let mut buf = [0u8; 1500];
    while done < plan.len() && Instant::now() < deadline {
        let Ok((len, _)) = sock.recv_from(&mut buf) else {
            continue;
        };
        let at = Instant::now();
        let reply = &buf[..len];
        // The ID is the low 16 bits of the sequence number; the newest sent
        // query with that ID is the one answered (at most TIMEOUT × the top
        // ladder rate, well under 65536, are ever outstanding).
        let top = sent.load(Ordering::Acquire);
        let seq = (len >= 12 && top > 0)
            .then(|| {
                let id = u16::from_be_bytes([reply[0], reply[1]]);
                (top - 1).checked_sub(((top - 1) as u16).wrapping_sub(id) as usize)
            })
            .flatten();
        let Some(seq) = seq else {
            rx.unmatched += 1;
            continue;
        };
        let target = &p.targets[plan[seq].1];
        let question = &target.query[12..];
        if reply.len() < 12 + question.len()
            || &reply[12..12 + question.len()] != question
            || !rx.latency_ms[seq].is_nan()
        {
            rx.unmatched += 1;
            continue;
        }
        let due = start + Duration::from_nanos(plan[seq].0);
        rx.latency_ms[seq] = at.saturating_duration_since(due).as_secs_f64() * 1e3;
        done += 1;
        let rcode = reply[3] & 0x0F;
        let answers = u16::from_be_bytes([reply[6], reply[7]]);
        match (rcode, answers > 0) {
            (0, true) => rx.answered += 1,
            (3, _) => rx.nxdomain += 1,
            (2, _) => {
                rx.servfail += 1;
                continue;
            }
            _ => {}
        }
        let class_ok = if target.has_ptr {
            rcode == 0 && answers > 0
        } else {
            rcode == 3
        };
        if !class_ok {
            rx.wrong += 1;
        }
    }
    rx
}

pub fn run(args: &Args) -> Result<Report, String> {
    check_budget(&PLAN, nproc())?;
    let tracer = Tracer::new(args.trace);
    let rt = tokio::runtime::Builder::new_multi_thread()
        .build()
        .map_err(|e| format!("runtime: {e}"))?;
    let sock = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("client socket: {e}"))?;
    enlarge_receive_buffer(&sock)?;
    sock.set_read_timeout(Some(Duration::from_millis(5)))
        .map_err(|e| format!("client socket: {e}"))?;

    let mut setups = Vec::new();
    let mut published = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = published.take() {
            Published::stop(old, &rt)?;
        }
        let t = Instant::now();
        published = Some(tracer.span("setup", || publish(args, &rt, &sock, &tracer))?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let p = published.expect("at least one set-up");

    let mut rng = Rng::new(args.seed, 0x5E7E);
    let mut phase = |name: &str, rate: f64, secs: f64| {
        let plan = schedule(&mut rng, rate, secs, p.targets.len());
        tracer.span(name, || run_phase(&sock, &p, rate, &plan))
    };
    let lo = phase("serve.lo", LO_QPS, LO_SHARE * args.seconds);
    let hi = phase("serve.hi", HI_QPS, HI_SHARE * args.seconds);
    let rung_secs = LADDER_SHARE * args.seconds / LADDER_QPS.len() as f64;
    let ladder: Vec<Phase> = LADDER_QPS
        .iter()
        .map(|&rate| phase("serve.ladder", rate, rung_secs))
        .collect();
    let stopped = p.stop(&rt);

    let mut report = Report::new();
    report.check(
        stopped.is_ok(),
        &format!("server did not shut down cleanly: {stopped:?}"),
    );
    let all: Vec<&Phase> = [&lo, &hi].into_iter().chain(ladder.iter()).collect();
    for ph in &all {
        report.attempted += ph.latency_ms.len() as u64;
        report.failed += ph.failed;
        report.check(
            ph.unmatched == 0,
            &format!("{} unmatched replies at {} q/s", ph.unmatched, ph.rate),
        );
        report.check(
            ph.wrong == 0,
            &format!("{} replies of the wrong class at {} q/s", ph.wrong, ph.rate),
        );
        if ph.failed == 0 {
            report.check(
                ph.answered == ph.expected_answered
                    && ph.answered + ph.nxdomain == ph.latency_ms.len() as u64,
                &format!(
                    "answered/nxdomain split {}/{} differs from the store's {}/{} at {} q/s",
                    ph.answered,
                    ph.nxdomain,
                    ph.expected_answered,
                    ph.latency_ms.len() as u64 - ph.expected_answered,
                    ph.rate
                ),
            );
        }
    }
    let run_s: f64 = all.iter().map(|ph| ph.elapsed.as_secs_f64()).sum();
    let cpu_s: f64 = all.iter().map(|ph| ph.cpu.as_secs_f64()).sum();
    let rungs: Vec<Rung> = ladder.iter().map(Phase::rung).collect();
    let capacity = stats::capacity(&rungs, &SLO);

    println!(
        "serve_open: {} targets, {} shards x {} workers, nproc {}",
        TARGETS,
        PLAN.server_shards,
        PLAN.server_workers,
        nproc()
    );
    for ph in &all {
        let show = |q| {
            ph.p(q)
                .map_or("n/a".to_string(), |p| format!("{:.3} ms", p.value))
        };
        println!(
            "  {:>7.0} q/s: {} sent, {} failed, p50 {}, p99 {}, late growth {:.3} ms, mean batch {:.2}, {:.1} us cpu/query",
            ph.rate,
            ph.latency_ms.len(),
            ph.failed,
            show(0.5),
            show(0.99),
            late_growth(&ph.lateness_ms),
            ph.server.mean_batch(),
            ph.cpu.as_secs_f64() * 1e6 / ph.latency_ms.len().max(1) as f64
        );
    }
    println!(
        "  capacity {capacity:.0} q/s (p99 <= {} ms, no failures, no growing lateness)",
        SLO.p99_ms
    );

    if args.trace {
        let by_name = self_seconds_by_name(&tracer.spans());
        for (metric, span) in [
            ("netsim.build_s", "netsim.build"),
            ("netsim.step_s", "netsim.step"),
        ] {
            report.metric(
                metric,
                by_name.get(span).copied().unwrap_or(0.0),
                "s",
                SETUP_REPEATS,
            );
        }
        for (label, ph) in [("lo", &lo), ("hi", &hi)] {
            for (q, name) in [(0.5, "p50"), (0.99, "p99")] {
                if let Some(pc) = ph.p(q) {
                    report.metric(
                        &format!("serve.{name}_ms.{label}"),
                        pc.value,
                        "ms",
                        pc.samples,
                    );
                }
            }
            if let Some(late) = percentile(&ph.lateness_ms, 0.99) {
                report.metric(
                    &format!("client.late_p99_ms.{label}"),
                    late.value,
                    "ms",
                    late.samples,
                );
            }
            let n = ph.latency_ms.len();
            report.metric(
                &format!("dns.server.mean_batch.{label}"),
                ph.server.mean_batch(),
                "count",
                ph.server.wakeups as usize,
            );
            report.metric(
                &format!("proc.cpu_us_per_query.{label}"),
                ph.cpu.as_secs_f64() * 1e6 / n.max(1) as f64,
                "us",
                n,
            );
        }
        report.metric("serve.capacity_qps", capacity, "1/s", rungs.len());
        let total = all
            .iter()
            .fold(ServerCounters::default(), |acc, ph| acc.plus(&ph.server));
        total.report(&mut report);
        report.metric("client.sent", report.attempted as f64, "count", 1);
        report.metric("client.failed", report.failed as f64, "count", 1);
        report.metric("proc.cpu_s", cpu_s, "s", 1);
        report.metric("trace.wall_s", run_s, "s", 1);
        crate::trace::write(&args.root, "serve_open", &tracer.spans())?;
    } else {
        report.metric("setup_s", stats::median(&setups), "s", setups.len());
        report.metric("run_s", run_s, "s", all.len());
        report.metric("cpu_s", cpu_s, "s", all.len());
    }
    Ok(report)
}
