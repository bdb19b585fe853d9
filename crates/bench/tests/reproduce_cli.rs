//! Drives the `reproduce` binary end to end: each study is simulated once
//! per run, the §1 checklist built from those shared studies matches the
//! one a `claims`-only run prints, every stage reports its wall time, and
//! unknown arguments are refused.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("run reproduce")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).expect("reproduce prints UTF-8")
}

/// The claims checklist: from its banner title through the verdict line.
fn claims_section(stdout: &str) -> &str {
    let start = stdout
        .find("Contribution checklist")
        .expect("claims banner");
    let verdict = start + stdout[start..].find("verdict: ").expect("verdict line");
    let end = verdict + stdout[verdict..].find('\n').expect("newline") + 1;
    &stdout[start..end]
}

/// The duration on a `[<stage>: <duration>]` line, in seconds.
fn stage_seconds(stderr: &str, stage: &str) -> f64 {
    let prefix = format!("[{stage}: ");
    let line = stderr
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("no {prefix}...] line"));
    let value = line[prefix.len()..].trim_end_matches(']');
    for (unit, scale) in [("ns", 1e-9), ("µs", 1e-6), ("ms", 1e-3), ("s", 1.0)] {
        if let Some(number) = value.strip_suffix(unit) {
            return number.parse::<f64>().expect("duration number") * scale;
        }
    }
    panic!("unparsed duration {value:?}")
}

#[test]
fn full_run_simulates_each_study_once_and_times_every_stage() {
    let full = reproduce(&["tiny"]);
    let stderr = text(&full.stderr);
    assert!(full.status.success(), "reproduce tiny failed:\n{stderr}");
    assert_eq!(stderr.matches("[leak study:").count(), 1, "{stderr}");
    assert_eq!(
        stderr.matches("[supplemental study:").count(),
        1,
        "{stderr}"
    );
    for stage in [
        "table1",
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "validation",
        "table2",
        "table3",
        "table4",
        "table5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "claims",
        "ablation",
        "serve stage",
    ] {
        let line = format!("[{stage}: ");
        assert_eq!(stderr.matches(&line).count(), 1, "stage {stage}:\n{stderr}");
    }

    // Re-simulating either study inside the checklist would make `claims`
    // cost at least as much as both studies together; its own work (one
    // simulated week for claim 4) is a small fraction of that.
    let studies =
        stage_seconds(&stderr, "leak study") + stage_seconds(&stderr, "supplemental study");
    let claims = stage_seconds(&stderr, "claims");
    assert!(
        claims < studies / 2.0,
        "claims {claims}s vs studies {studies}s"
    );

    let alone = reproduce(&["tiny", "claims"]);
    assert!(alone.status.success());
    let full_stdout = text(&full.stdout);
    assert_eq!(
        claims_section(&full_stdout),
        claims_section(&text(&alone.stdout))
    );
    assert!(full_stdout.contains("verdict: all five contributions reproduced"));
}

#[test]
fn unknown_arguments_exit_non_zero_before_running_anything() {
    for args in [["tiny", "fgi4"], ["papr", "fig11"]] {
        let out = reproduce(&args);
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}:\n{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        assert!(
            stderr.contains("fig11") && stderr.contains("claims") && stderr.contains("paper"),
            "{args:?} must list the valid names:\n{stderr}"
        );
    }
}
