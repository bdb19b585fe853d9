#!/usr/bin/env python3
"""End-to-end benchmark of the rdns-privacy workspace.

    python3 e2ebench/run.py --workload <paper_repro|serve_open|sweep_live> \
        --seed N --seconds S --trace <0|1>

Builds the `reproduce` CLI and the benchmark binary from source (into
$CARGO_TARGET_DIR, default `.bench_build`), runs one workload, checks its
outputs and prints every metric with its unit and sample count. The last
line of stdout is the result as one JSON object. With `--trace 0` it holds
the end-to-end metrics of BENCHMARK.json; with `--trace 1` the per-layer
metrics, from a separate traced run. The exit code is 0 only when every
output check passed. See e2ebench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("paper_repro", "serve_open", "sweep_live")

# `reproduce paper` with every experiment except `serve`, whose counts
# depend on wall-clock failures (see README.md).
EXPERIMENTS = (
    "table1 fig1 fig2 fig3 fig4 validation table2 table3 table4 table5 "
    "fig6 fig7a fig7b fig8 fig9 fig10 fig11 ablation claims"
).split()
SERVE_TITLE = "Serve path — sharded authoritative front under open-loop load"
# paper_repro's own preparation is repeated this often; setup_s is the median.
PAPER_SETUP_REPEATS = 31


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def steal_ticks():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8])


def calibration_ms():
    """Median time of a fixed pure-Python loop: a host-speed reading kept
    next to the metrics, never used to scale them."""
    times = []
    for _ in range(5):
        t = time.perf_counter()
        sum(i * i for i in range(200_000))
        times.append((time.perf_counter() - t) * 1e3)
    return statistics.median(times)


def build():
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    for cmd in (
        ["cargo", "build", "-q", "--release", "--offline", "-p", "rdns-bench", "--bin", "reproduce"],
        ["cargo", "build", "-q", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return target / "release" / "reproduce", target / "release" / "rdns-e2ebench"


def run_child(cmd, stdout_path):
    """Run `cmd` with stdout to a file; return (exit code, wall s, cpu s, max RSS MiB)."""
    with open(stdout_path, "wb") as out:
        t = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def bench_child(binary, mode, args, traced=False):
    """Run one mode of the benchmark binary; return its parsed RESULT, its
    other stdout lines and its process figures."""
    cmd = [str(binary), mode, "--seed", str(args.seed), "--seconds", str(args.seconds), "--root", str(ROOT)]
    if traced:
        cmd.append("--trace")
    path = OUT / f"{mode}.stdout"
    code, wall, cpu, rss = run_child(cmd, path)
    lines = path.read_text().splitlines()
    if not lines or not lines[-1].startswith("RESULT "):
        fail(f"{mode} exited {code} without a result")
    result = json.loads(lines[-1][len("RESULT "):])
    return result, lines[:-1], {"wall": wall, "cpu": cpu, "rss": rss}


def golden_reproduction():
    """The committed paper-scale output without its `[...]` stderr lines and
    without the serve section (the blank line and rule before its title on)."""
    lines = (ROOT / "reproduce_paper_output.txt").read_text().split("\n")
    lines = [l for l in lines if not (l.startswith("[") and l.endswith("]"))]
    cut = lines.index(SERVE_TITLE) - 2
    if lines[cut] != "" or lines[cut + 1] != "=" * 64:
        fail("reproduce_paper_output.txt: unexpected layout before the serve section")
    return "\n".join(lines[:cut]) + "\n"


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def paper_repro(args, reproduce, bench):
    """Untraced: the `reproduce` CLI, then the standard lab matrix. The
    benchmark's own preparation (the golden text, the committed matrix, and
    reading both binaries so the timed run loads them from the page cache)
    is its set-up."""
    setups = []
    for _ in range(PAPER_SETUP_REPEATS):
        t = time.perf_counter()
        golden = golden_reproduction()
        (ROOT / "BENCH_matrix.json").read_bytes()
        for binary in (reproduce, bench):
            if not os.access(binary, os.X_OK):
                fail(f"{binary} is not executable")
            binary.read_bytes()
        setups.append(time.perf_counter() - t)

    out_path = OUT / "reproduce_paper.stdout"
    code, wall, cpu, rss = run_child([str(reproduce), "paper", *EXPERIMENTS], out_path)
    repro_ok = code == 0 and out_path.read_text() == golden
    if not repro_ok:
        print("CHECK FAILED: reproduce stdout differs from the golden output", file=sys.stderr)
    lab, lines, lab_proc = bench_child(bench, "lab", args)
    print(f"paper_repro: reproduce paper {wall:.3f} s, lab matrix {lab_proc['wall']:.3f} s")
    failed = int(not repro_ok) + int(not lab["correct"])
    metrics = {
        "setup_s": metric(statistics.median(setups), "s", len(setups)),
        "run_s": metric(wall + lab_proc["wall"], "s", 1),
        "cpu_s": metric(cpu + lab_proc["cpu"], "s", 1),
        "peak_rss_mb": metric(max(rss, lab_proc["rss"]), "MiB", 1),
    }
    return {"correct": failed == 0, "attempted": 2, "failed": failed, "metrics": metrics}, lines


def paper_trace(args, bench):
    result, lines, _ = bench_child(bench, "paper_trace", args, traced=True)
    text = (OUT / "paper_trace_stdout.txt").read_text()
    if text != golden_reproduction():
        print("CHECK FAILED: traced replay output differs from the golden output", file=sys.stderr)
        result["correct"] = False
        result["failed"] = 1
    return result, lines


def untraced(args, reproduce, bench):
    if args.workload == "paper_repro":
        return paper_repro(args, reproduce, bench)
    result, lines, proc = bench_child(bench, args.workload, args)
    result["metrics"]["peak_rss_mb"] = metric(proc["rss"], "MiB", 1)
    return result, lines


def traced(args, reproduce, bench):
    """Per-layer metrics from a traced run, plus its overhead against the
    latest untraced run of the same workload and seed in this checkout."""
    last = OUT / f"last_{args.workload}_{args.seed}.json"
    if last.exists():
        untraced_run_s = json.loads(last.read_text())["run_s"]
    else:
        plain, _ = untraced(args, reproduce, bench)
        untraced_run_s = plain["metrics"]["run_s"]["value"]
    if args.workload == "paper_repro":
        result, lines = paper_trace(args, bench)
    else:
        result, lines, _ = bench_child(bench, args.workload, args, traced=True)
    wall = result["metrics"]["trace.wall_s"]["value"]
    result["metrics"]["trace.overhead_s"] = metric(wall - untraced_run_s, "s", 1)
    return result, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    for needed in (spec_path, ROOT / "Cargo.toml", ROOT / "crates", ROOT / "reproduce_paper_output.txt"):
        if not needed.exists():
            fail(f"{needed} is missing: run from a full checkout of the repository")
    spec = json.loads(spec_path.read_text())
    OUT.mkdir(exist_ok=True)
    reproduce, bench = build()

    nproc = len(os.sched_getaffinity(0))
    calibration = calibration_ms()
    steal_before = steal_ticks()
    result, lines = (traced if args.trace else untraced)(args, reproduce, bench)
    steal = steal_ticks() - steal_before

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = result["metrics"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"{args.workload} did not measure {m['name']}")
            # A layer this workload never enters did no work in it.
            got = metric(0.0, m["unit"], 0)
        elif got["unit"] != m["unit"]:
            fail(f"{m['name']}: measured in {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = got
    if not args.trace:
        last = OUT / f"last_{args.workload}_{args.seed}.json"
        last.write_text(json.dumps({"run_s": metrics["run_s"]["value"]}))

    for line in lines:
        print(line)
    print(f"{args.workload} ({'traced, per-layer' if args.trace else 'end-to-end'}), seed {args.seed}:")
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:>16.6f} {m['unit']:<6} samples={m['samples']}")
    host = {"nproc": nproc, "steal_ticks": steal, "calibration_ms": round(calibration, 4)}
    print("host " + json.dumps(host))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
