//! `paper_repro`'s in-process parts: the standard lab matrix, and the
//! traced replay of `reproduce paper` (every experiment but `serve`).
//!
//! The untraced workload runs the `reproduce` CLI itself (see `run.py`).
//! The traced run replays the same `rdns-core` / `rdns-lab` entry points in
//! `reproduce.rs` order with a span around each stage, renders the same
//! text (which `run.py` checks against the golden output), and then replays
//! the public calls `LeakStudy::run` makes, one span per layer.

use crate::host::{cpu_time, family_sum, nproc};
use crate::trace::{self, self_seconds_by_name, Tracer};
use crate::{Args, Report};
use rdns_core::experiments::section5::LeakStudy;
use rdns_core::experiments::section6::SupplementalStudy;
use rdns_core::experiments::{
    check_claims, fig1, fig10, fig11, fig2, fig3, fig4, fig6, fig7, fig8, fig9,
    generate_population, lease_ablation, release_ablation, table1, table2, table3, table4, table5,
    validation, PopulationConfig, Scale,
};
use rdns_core::{identify_dynamic_par, identify_leaking_suffixes, DynamicityParams, LeakParams};
use rdns_data::{Cadence, ColumnarSeries, SnapshotSeries, Snapshotter};
use rdns_lab::{engine, LabConfig};
use rdns_model::{Date, SimTime, Slash24};
use rdns_netsim::spec::presets;
use rdns_netsim::{World, WorldConfig};
use rdns_telemetry::Registry;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::time::Instant;

/// Pinned seed of the committed `BENCH_matrix.json`.
const LAB_SEED: u64 = 0x90D5;
/// The hour `reproduce` snapshots each simulated day at.
const SNAPSHOT_HOUR: u8 = 14;

/// Run the standard lab matrix and check it byte for byte against the
/// committed artifact.
fn lab_matrix(args: &Args, report: &mut Report) -> Result<(), String> {
    let json = engine::run(&LabConfig::standard(LAB_SEED), &Registry::new())
        .to_json()
        .map_err(|e| format!("matrix JSON: {e}"))?;
    let path = args.root.join("BENCH_matrix.json");
    let committed =
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    report.check(
        json == committed,
        "lab matrix differs from BENCH_matrix.json",
    );
    Ok(())
}

pub fn lab(args: &Args) -> Result<Report, String> {
    let mut report = Report::new();
    lab_matrix(args, &mut report)?;
    report.attempted = 1;
    report.failed = u64::from(!report.correct);
    Ok(report)
}

fn banner(out: &mut String, title: &str) {
    let rule = "=".repeat(64);
    let _ = write!(out, "\n{rule}\n{title}\n{rule}\n");
}

/// The reproduction, stage by stage, as `reproduce paper` prints it
/// without its `serve` experiment. Returns the rendered text and the
/// leak study's dynamic /24s and identified suffixes.
fn stages(tracer: &Tracer, scale: &Scale) -> (String, HashSet<Slash24>, Vec<String>) {
    let mut out = String::new();
    let render = |f: &mut dyn FnMut()| tracer.span("stage.render", f);
    let _ = writeln!(out, "# rdns-privacy reproduction — scale {scale:?}");

    let study = tracer.span("stage.leak_study", || LeakStudy::run(scale));
    render(&mut || {
        banner(&mut out, "Table 1 — dataset statistics");
        out.push_str(&table1(&study).render());
        banner(
            &mut out,
            "Figure 1 — dynamic /24 fraction per announced prefix size",
        );
        out.push_str(&fig1(&study).render());
        banner(&mut out, "Figure 2 — given names in rDNS (all vs filtered)");
        out.push_str(&fig2(&study).render());
        banner(&mut out, "Figure 3 — device terms alongside given names");
        out.push_str(&fig3(&study).render());
        banner(&mut out, "Figure 4 — identified networks by type");
        let b = fig4(&study);
        for (class, count, pct) in b.rows() {
            let _ = writeln!(out, "{:<12} {:>4}  {:>5.1}%", class.label(), count, pct);
        }
        let _ = writeln!(out, "total identified: {}", b.total());
    });
    let (dynamic, identified) = (study.dynamicity.dynamic.clone(), study.identified.clone());
    drop(study);

    let v = tracer.span("stage.validation", || validation(scale));
    render(&mut || {
        banner(&mut out, "§4.1 validation — campus ground truth");
        out.push_str(&v.render());
        banner(&mut out, "Table 2 — reactive back-off schedule");
        out.push_str(&table2());
    });

    let supp = tracer.span("stage.supplemental", || SupplementalStudy::run(scale));
    render(&mut || {
        banner(&mut out, "Table 3 — supplemental measurement statistics");
        out.push_str(&table3(&supp));
        banner(
            &mut out,
            "Table 4 — targeted networks and ICMP observability",
        );
        out.push_str(&table4(&supp));
        banner(&mut out, "Table 5 — group funnel");
        out.push_str(&table5(&supp));
        banner(&mut out, "Figure 6 — DNS errors per day");
        let f6 = fig6(&supp);
        out.push_str(&f6.render());
        let _ = writeln!(out, "error fraction: {:.2}%", f6.error_fraction() * 100.0);
        banner(&mut out, "Figure 7 — PTR removal timing");
        out.push_str(&fig7(&supp).render());
    });
    drop(supp);

    let f8 = tracer.span("stage.fig8", || fig8(scale));
    render(&mut || {
        banner(&mut out, "Figure 8 — six weeks in the Life of Brian(s)");
        out.push_str(&f8.render());
    });

    // The paper-scale windows `reproduce` uses for Figs. 9 and 10.
    let f9 = tracer.span("stage.fig9", || {
        fig9(
            scale,
            Date::from_ymd(2020, 2, 17),
            Date::from_ymd(2021, 12, 1),
        )
    });
    render(&mut || {
        banner(&mut out, "Figure 9 — longitudinal presence around COVID-19");
        out.push_str(&f9.render());
    });

    let f10 = tracer.span("stage.fig10", || {
        fig10(
            scale,
            Date::from_ymd(2019, 10, 1),
            Date::from_ymd(2020, 2, 17),
            Date::from_ymd(2021, 1, 31),
        )
    });
    render(&mut || {
        banner(&mut out, "Figure 10 — Academic-C education vs housing");
        out.push_str(&f10.render());
        if let Some(lead) = f10.housing_leads_on(Date::from_ymd(2020, 4, 15)) {
            let _ = writeln!(out, "housing leads education on 2020-04-15: {lead}");
        }
    });

    let f11 = tracer.span("stage.fig11", || fig11(scale));
    render(&mut || {
        banner(&mut out, "Figure 11 — when to stage a heist");
        out.push_str(&f11.render());
    });

    let claims = tracer.span("stage.claims", || check_claims(scale));
    render(&mut || {
        banner(&mut out, "Contribution checklist (paper §1)");
        out.push_str(&claims.render());
        let verdict = if claims.all_passed() {
            "all five contributions reproduced"
        } else {
            "SOME CLAIMS FAILED — inspect evidence above"
        };
        let _ = writeln!(out, "\nverdict: {verdict}");
    });

    let (release, lease) = tracer.span("stage.ablation", || {
        (release_ablation(scale), lease_ablation(scale))
    });
    render(&mut || {
        banner(
            &mut out,
            "Ablation — does withholding DHCP RELEASE defend? (§10)",
        );
        out.push_str(&release.render());
        banner(&mut out, "Ablation — lease time vs record lingering (§6.2)");
        out.push_str(&lease.render());
    });
    (out, dynamic, identified)
}

/// Replay the public calls `LeakStudy::run` makes, one span per layer,
/// with the world and snapshotter counting into `registry`. Returns the
/// dynamic /24s, the identified suffixes and the snapshot record total.
fn leak_layers(
    tracer: &Tracer,
    scale: &Scale,
    registry: &Registry,
) -> (HashSet<Slash24>, Vec<String>, usize) {
    let from = Date::from_ymd(2021, 1, 1);
    let to = from.plus_days(scale.window_days as i64 - 1);
    let mut world = tracer.span("netsim.build", || {
        let mut networks =
            generate_population(&PopulationConfig::new(scale.seed, scale.background_orgs));
        networks.extend(presets::table4_networks(scale.focus_scale));
        World::new(WorldConfig {
            seed: scale.seed,
            shards: 0,
            start: from,
            networks,
        })
    });
    world.attach_registry(registry);
    let mut snapper = Snapshotter::new(world.store().clone());
    snapper.attach_registry(registry);
    let mut daily = SnapshotSeries::new(Cadence::Daily);
    let mut records = 0;
    let mut day = from;
    while day <= to {
        tracer.span("netsim.step", || {
            world.step_until(SimTime::from_date_hms(day, SNAPSHOT_HOUR, 0, 0))
        });
        let snap = tracer.span("data.snapshot", || snapper.take(day));
        records += snap.len();
        daily.push(snap);
        day = day.succ();
    }
    let columnar = tracer.span("data.columnar", || ColumnarSeries::from_series(&daily));
    drop(daily);
    let matrix = tracer.span("data.counts_matrix", || columnar.counts_matrix());
    let params = DynamicityParams {
        min_daily_addrs: scale.min_daily_addrs,
        ..DynamicityParams::default()
    };
    let dynamicity = tracer.span("core.dynamicity", || identify_dynamic_par(&matrix, &params));
    let (_, identified) = tracer.span("core.leak_suffixes", || {
        let observations = columnar.observations();
        identify_leaking_suffixes(
            observations.iter().map(|(a, h)| (*a, h)),
            &dynamicity.dynamic,
            &LeakParams::scaled(scale.min_unique_names),
        )
    });
    (dynamicity.dynamic, identified, records)
}

pub fn trace(args: &Args) -> Result<Report, String> {
    let tracer = Tracer::new(true);
    let scale = Scale::paper();
    let mut report = Report::new();

    let cpu_before = cpu_time();
    let began = Instant::now();
    let (text, dynamic, identified, lab) = tracer.span("paper", || {
        let (text, dynamic, identified) = stages(&tracer, &scale);
        let lab = tracer.span("stage.lab_matrix", || lab_matrix(args, &mut report));
        (text, dynamic, identified, lab)
    });
    lab?;
    let wall = began.elapsed().as_secs_f64();
    let cpu = cpu_time().saturating_sub(cpu_before).as_secs_f64();
    let dir = args.root.join(".bench_out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("paper_trace_stdout.txt");
    std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;

    let registry = Registry::new();
    let (replay_dynamic, replay_identified, records) =
        tracer.span("leak_layers", || leak_layers(&tracer, &scale, &registry));
    report.check(
        replay_dynamic == dynamic,
        "layer replay's dynamic /24s differ from the leak study's",
    );
    report.check(
        replay_identified == identified,
        "layer replay's identified suffixes differ from the leak study's",
    );

    let spans = tracer.spans();
    let by_name = self_seconds_by_name(&spans);
    let secs = |span: &str| by_name.get(span).copied().unwrap_or(0.0);
    let count = |span: &str| spans.iter().filter(|s| s.name == span).count();
    let mut staged = 0.0;
    for stage in [
        "leak_study",
        "supplemental",
        "validation",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "claims",
        "ablation",
        "lab_matrix",
        "render",
    ] {
        let span = format!("stage.{stage}");
        staged += secs(&span);
        report.metric(&format!("{span}_s"), secs(&span), "s", count(&span));
    }
    report.metric("trace.coverage", staged / wall, "ratio", 1);
    report.metric("trace.wall_s", wall, "s", 1);
    report.metric("proc.cpu_s", cpu, "s", 1);
    report.metric("proc.cpu_util", cpu / (wall * nproc() as f64), "ratio", 1);
    for layer in [
        "netsim.build",
        "netsim.step",
        "data.snapshot",
        "data.columnar",
        "data.counts_matrix",
        "core.dynamicity",
        "core.leak_suffixes",
    ] {
        report.metric(&format!("{layer}_s"), secs(layer), "s", count(layer));
    }
    let prom = registry.render_prometheus();
    for (metric, family) in [
        ("netsim.events", "rdns_netsim_events_total"),
        ("dhcp.grants", "rdns_dhcp_grants_total"),
        ("dhcp.renews", "rdns_dhcp_renews_total"),
        ("dhcp.releases", "rdns_dhcp_releases_total"),
        ("dhcp.expiries", "rdns_dhcp_expiries_total"),
        ("ipam.added", "rdns_ipam_added_total"),
        ("ipam.removed", "rdns_ipam_removed_total"),
    ] {
        report.metric(metric, family_sum(&prom, family), "count", 1);
    }
    report.metric(
        "data.snapshot_records",
        records as f64,
        "count",
        count("data.snapshot"),
    );
    report.metric("core.dynamic_24s", replay_dynamic.len() as f64, "count", 1);
    report.metric(
        "core.identified_suffixes",
        replay_identified.len() as f64,
        "count",
        1,
    );
    report.attempted = 1;
    report.failed = u64::from(!report.correct);
    trace::write(&args.root, "paper_repro", &spans)?;
    Ok(report)
}
