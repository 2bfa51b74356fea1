#!/usr/bin/env python3
"""End-to-end sweep benchmark for railcorr.

Run from the root of a checkout:

    python3 perfbench/run.py --workload radio_grid --seed 1 --seconds 20 --trace 0

The script builds the `railcorr` CLI and the benchmark's probe from
source into `.bench_build/`, generates the workload's sweep plan from
`--seed`, computes a reference document by a different path (the probe's
in-process 2-shard run at 1 thread, merged), and then:

* `--trace 0`: repeats the workload's real `railcorr sweep` /
  `orchestrate` command for `--seconds` seconds, checks every output row
  byte-for-byte against the reference, and reports the end-to-end
  metrics (medians over the repetitions).
* `--trace 1`: runs the probe's per-layer replay (spans recorded from
  benchmark code into a Perfetto-loadable trace that `railcorr trace
  stats` must read) plus, for the fleet, per-shard and single-process
  timings, and reports the per-layer metrics.

The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it (`# context`)
carries the seed, plan fingerprints and run context. Exit code 0 when
every output checks out, 1 otherwise (also when the build fails). Work
files go to `.bench_work/` in the checkout.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
CLI = BUILD / "railcorr" / "railcorr"
PROBE = BUILD / "perfbench_probe"

# Processes per workload command and threads per process (total <= 4).
SWEEP_THREADS = 4
FLEET_WORKERS = 4
FLEET_THREADS = 1
# Shards the orchestrator cuts the fleet plan into (its 2 x workers default).
FLEET_SHARDS = 2 * FLEET_WORKERS
# Empty-shard sweeps timed after each repetition, for setup_s.
SETUP_PER_REP = 3
MIN_REPS = 3

END_TO_END_UNITS = {
    "cells_per_s": "1/s",
    "cells_per_cpu_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "core.cell_ms_p50": "ms",
    "core.cell_ms_p99": "ms",
    "core.cells": "count",
    "core.scenario_at_us": "us",
    "core.unattributed_share": "ratio",
    "corridor.isd_search_ms": "ms",
    "corridor.isd_search_share": "ratio",
    "corridor.isd_search_repeat_ratio": "ratio",
    "corridor.energy_us": "us",
    "corridor.multi_segment_ms": "ms",
    "corridor.multi_segment_share": "ratio",
    "corridor.merge_ms": "ms",
    "rf.min_snr_us": "us",
    "rf.track_samples_per_s": "1/s",
    "exec.isd_search_speedup_4t": "x",
    "exec.scaling_eff_4t": "ratio",
    "traffic.duty_us": "us",
    "solar.size_jobs_s": "s",
    "solar.size_jobs_share": "ratio",
    "solar.jobs": "count",
    "solar.weather_tuples": "count",
    "cache.open_ms": "ms",
    "cache.lookup_us": "us",
    "cache.insert_us": "us",
    "cache.flush_ms": "ms",
    "cache.hit_ratio": "ratio",
    "cache.reusable_ratio": "ratio",
    "cache.store_bytes": "bytes",
    "orch.attempts": "count",
    "orch.retried": "count",
    "orch.speculative": "count",
    "orch.first_launch_ms": "ms",
    "orch.shard_s_p50": "s",
    "orch.shard_s_max": "s",
    "orch.overhead_share": "ratio",
    "orch.speedup_vs_sweep": "x",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (build or set-up failure)."""


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build --

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no railcorr source tree at {ROOT}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        step(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", str(BUILD), "--target", "railcorr_cli",
          "perfbench_probe", "-j", jobs])


def step(argv):
    result = subprocess.run(argv, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        raise BenchError(f"'{' '.join(argv)}' exited {result.returncode}")


# ------------------------------------------------------------------ plans --

def distinct_values(rng, count, lo, hi, resolution):
    """`count` distinct grid values in [lo, hi], sorted, as plan tokens."""
    steps = round((hi - lo) / resolution)
    picks = sorted(rng.sample(range(steps + 1), count))
    return [fmt(lo + k * resolution) for k in picks]


def fmt(value):
    return f"{value:.6f}".rstrip("0").rstrip(".")


def plan_text(axes):
    lines = ["base = paper"]
    lines += [f"axis {key} = {', '.join(values)}" for key, values in axes]
    return "\n".join(lines) + "\n"


def radio_axes(rng):
    # Every cell has its own radio/geometry, so every ISD search differs.
    # Spacing values sit on a fixed ladder (the search's candidate count
    # depends on it) with a small seeded jitter.
    spacing = [fmt(base + rng.randint(-4, 4) * 0.5)
               for base in range(120, 320, 20)]
    return [
        ("radio.lp_eirp_dbm", distinct_values(rng, 10, 34.0, 46.0, 0.05)),
        ("radio.hp_eirp_dbm", distinct_values(rng, 10, 58.0, 68.0, 0.05)),
        ("corridor.repeater_spacing_m", spacing),
    ]


def ops_axes(rng):
    # Operations keys only: the radio stays the paper's, so every cell
    # repeats one ISD search. Segment counts are fixed (the whole-corridor
    # worst case scales with them).
    return [
        ("timetable.trains_per_hour", distinct_values(rng, 5, 4.0, 20.0, 0.25)),
        ("timetable.night_hours", distinct_values(rng, 3, 3.0, 7.0, 0.05)),
        ("energy.lp_node.p_sleep_w", distinct_values(rng, 7, 3.5, 6.0, 0.01)),
        ("corridor.segments", ["2", "3"]),
        ("sizing.weather.kt_sigma", distinct_values(rng, 5, 0.08, 0.18, 0.001)),
    ]


def fleet_axes(rng):
    # A radio x timetable grid; the pre-warm plan is the same grid minus
    # one radio value, i.e. the grid before the user extended it.
    lp = distinct_values(rng, 25, 34.0, 46.0, 0.05)
    trains = distinct_values(rng, 40, 2.0, 30.0, 0.25)
    dropped = rng.randrange(len(lp))
    full = [("radio.lp_eirp_dbm", lp), ("timetable.trains_per_hour", trains)]
    prewarm = [("radio.lp_eirp_dbm", lp[:dropped] + lp[dropped + 1:]),
               ("timetable.trains_per_hour", trains)]
    return full, prewarm


WORKLOADS = ("radio_grid", "ops_grid", "fleet_regrid")


def make_plans(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "radio_grid":
        return plan_text(radio_axes(rng)), None
    if workload == "ops_grid":
        return plan_text(ops_axes(rng)), None
    full, prewarm = fleet_axes(rng)
    return plan_text(full), plan_text(prewarm)


# -------------------------------------------------------------- processes --

@dataclass
class Run:
    """One finished command: wall seconds, rusage of its process tree."""

    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    first_line_s: float | None


def run_command(argv, stdout_path=None, watch_prefix=None, kill=False):
    """Run argv to completion; wall time from launch to exit.

    wait4 reports the child's rusage including every descendant it
    reaped (the orchestrator's workers), so CPU time covers the whole
    workload and maxrss is its largest process. With `watch_prefix`,
    stderr is read live and the time of the first line starting with it
    is recorded. With `kill`, the command is SIGKILLed right after
    launch.
    """
    stdout = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    stderr = subprocess.PIPE if watch_prefix else subprocess.DEVNULL
    first = [None]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr)
    reader = None
    if watch_prefix:
        def read_stderr():
            for raw in proc.stderr:
                if first[0] is None and raw.startswith(watch_prefix):
                    first[0] = time.perf_counter() - start
        reader = threading.Thread(target=read_stderr)
        reader.start()
    if kill:
        proc.send_signal(signal.SIGKILL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if reader is not None:
        reader.join()
        proc.stderr.close()
    if stdout_path:
        stdout.close()
    return Run(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
               usage.ru_maxrss, first[0])


def checked(argv, what):
    result = subprocess.run(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    if result.returncode != 0:
        raise BenchError(f"{what}: '{' '.join(map(str, argv))}' exited "
                         f"{result.returncode}")
    return result.stdout


# ---------------------------------------------------------- output check --

class Reference:
    def __init__(self, text):
        lines = [line for line in text.split("\n") if line]
        self.banner, self.header = lines[0], lines[1]
        self.rows = lines[2:]
        self.text = text
        self.fingerprint = self.banner.split("fingerprint=")[1].split()[0]

    @property
    def cells(self):
        return len(self.rows)

    def with_digit_changed(self, index):
        """A copy whose row `index` has its last digit changed."""
        twin = Reference(self.text)
        row = twin.rows[index]
        pos = max(i for i, c in enumerate(row) if c.isdigit())
        digit = str((int(row[pos]) + 1) % 10)
        twin.rows[index] = row[:pos] + digit + row[pos + 1:]
        return twin


def read_text(path):
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError):
        return None


def failed_cells(returncode, text, ref):
    """Cells missing, duplicated or not byte-identical to the reference.

    A nonzero exit, an unreadable file or a wrong banner/header fails
    every cell. The integrity trailer line of on-disk documents is not a
    row.
    """
    if returncode != 0 or text is None:
        return ref.cells
    lines = [line for line in text.split("\n")
             if line and not line.startswith("@railcorr-crc ")]
    if len(lines) < 2 or lines[0] != ref.banner or lines[1] != ref.header:
        return ref.cells
    seen = {}
    stray = 0
    for row in lines[2:]:
        head = row.split(",", 1)[0]
        if head.isdigit() and int(head) < ref.cells:
            seen.setdefault(int(head), []).append(row)
        else:
            stray += 1
    failed = sum(1 for i, want in enumerate(ref.rows)
                 if seen.get(i) != [want])
    return min(ref.cells, failed + stray)


def check_self_test(ref, kill_argv, out_path, rng):
    """The check must pass the reference itself and flag a one-digit
    change in one reference row and a killed command."""
    if failed_cells(0, ref.text, ref) != 0:
        return False
    mutated = ref.with_digit_changed(rng.randrange(ref.cells))
    if failed_cells(0, ref.text, mutated) != 1:
        return False
    remove(out_path)
    killed = run_command(kill_argv, kill=True)
    return failed_cells(killed.returncode, read_text(out_path), ref) == ref.cells


def remove(path):
    path = Path(path)
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def restore(master, store):
    remove(store)
    shutil.copytree(master, store)


# -------------------------------------------------------------- workloads --

class Setup:
    """Plans, reference and (for the fleet) the pre-warmed store."""

    def __init__(self, workload, seed):
        self.sizing = workload == "ops_grid"
        self.fleet = workload == "fleet_regrid"
        self.dir = WORK / workload
        remove(self.dir)
        self.dir.mkdir(parents=True)
        plan, prewarm = make_plans(workload, seed)
        self.plan = self.dir / "plan.sweep"
        self.plan.write_text(plan)
        ref_path = self.dir / "reference.csv"
        argv = [PROBE, "ref", "--plan", self.plan, "--out", ref_path]
        if self.sizing:
            argv.append("--include-sizing")
        checked(argv, "reference")
        self.ref = Reference(ref_path.read_text())
        self.prewarm_plan = None
        self.prewarm_fingerprint = None
        self.master_store = self.dir / "store_master"
        self.store = self.dir / "store"
        if self.fleet:
            self.prewarm_plan = self.dir / "prewarm.sweep"
            self.prewarm_plan.write_text(prewarm)
            out = self.dir / "prewarm.csv"
            checked(self.sweep_argv(self.prewarm_plan, out, self.master_store),
                    "pre-warm sweep")
            self.prewarm_fingerprint = (
                out.read_text().split("fingerprint=")[1].split()[0])

    def sweep_argv(self, plan, out=None, store=None, shard=None,
                   threads=SWEEP_THREADS):
        argv = [CLI, "sweep", "--plan", plan, "--threads", str(threads)]
        if out is not None:
            argv += ["--out", out]
        if shard is not None:
            argv += ["--shard", shard]
        if self.sizing:
            argv.append("--include-sizing")
        if store is not None:
            argv += ["--cache-dir", store]
        return argv

    def fleet_argv(self, out_dir):
        return [CLI, "orchestrate", "--plan", self.plan, "--out-dir", out_dir,
                "--workers", str(FLEET_WORKERS),
                "--threads", str(FLEET_THREADS), "--cache-dir", self.store]

    def workload_run(self, tag):
        """One run of the workload's command; returns (Run, output text)."""
        if self.fleet:
            restore(self.master_store, self.store)
            out_dir = self.dir / f"fleet_{tag}"
            remove(out_dir)
            run = run_command(self.fleet_argv(out_dir),
                              stdout_path=self.dir / "fleet.stdout",
                              watch_prefix=b"[orchestrate] launch shard")
            text = read_text(out_dir / "merged.csv")
            remove(out_dir)
            return run, text
        out = self.dir / "out.csv"
        remove(out)
        run = run_command(self.sweep_argv(self.plan, out))
        return run, read_text(out)

    def setup_time(self):
        """Set-up time of a sweep: the same command on a shard owning no
        cells. Its document goes to stdout (discarded): writing a file
        would add the durable write that follows the cells, not set-up."""
        cells = self.ref.cells
        run = run_command(self.sweep_argv(self.plan, shard=f"{cells}/{cells + 1}"))
        if run.returncode != 0:
            raise BenchError("empty-shard sweep failed")
        return run.wall_s

    def single_sweep_check(self):
        """The fleet's single-process twin, for the merged.csv check."""
        restore(self.master_store, self.store)
        out = self.dir / "single.csv"
        run = run_command(self.sweep_argv(self.plan, out, self.store))
        return run, read_text(out)


def measure(setup, seconds, rng):
    cells = setup.ref.cells
    setup_s = []
    rates, cpu_rates, rss_mb = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    rep = 0
    while rep < MIN_REPS or time.perf_counter() - start < seconds:
        run, text = setup.workload_run(rep)
        rep += 1
        bad = failed_cells(run.returncode, text, setup.ref)
        attempted += cells
        failed += bad
        rates.append(cells / run.wall_s)
        cpu_rates.append(cells / max(run.cpu_s, 1e-9))
        rss_mb.append(run.maxrss_kb / 1024.0)
        # Set-up samples are spread over the whole run, so a transient
        # load on the machine cannot take all of them.
        if setup.fleet:
            if run.first_line_s is None:
                raise BenchError("orchestrate never launched a worker")
            setup_s.append(run.first_line_s)
        else:
            setup_s += [setup.setup_time() for _ in range(SETUP_PER_REP)]
    extra_ok = True
    if setup.fleet:
        single, text = setup.single_sweep_check()
        extra_ok = failed_cells(single.returncode, text, setup.ref) == 0
    out = setup.dir / "selftest.csv"
    self_test_ok = check_self_test(setup.ref, setup.sweep_argv(setup.plan, out),
                                   out, rng)
    metrics = {
        "cells_per_s": statistics.median(rates),
        "cells_per_cpu_s": statistics.median(cpu_rates),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": statistics.median(rss_mb),
    }
    context = {"reps": rep, "failed_cell_ratio": failed / attempted,
               "single_process_check": extra_ok, "check_self_test": self_test_ok}
    correct = failed == 0 and extra_ok and self_test_ok
    return correct, attempted, failed, metrics, END_TO_END_UNITS, context


def traced(setup):
    trace_path = setup.dir / "layers.trace.json"
    argv = [PROBE, "layers", "--plan", setup.plan,
            "--ref", setup.dir / "reference.csv",
            "--threads", str(FLEET_THREADS if setup.fleet else SWEEP_THREADS),
            "--trace-out", trace_path]
    if setup.sizing:
        argv.append("--include-sizing")
    if setup.fleet:
        restore(setup.master_store, setup.store)
        argv += ["--cache-dir", setup.store,
                 "--prewarm-plan", setup.prewarm_plan,
                 "--merge-shards", str(FLEET_SHARDS)]
    probe = subprocess.run(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True)
    if probe.returncode not in (0, 2):
        raise BenchError(f"probe exited {probe.returncode}")
    report = json.loads(probe.stdout.strip().splitlines()[-1])
    metrics = dict(report["metrics"])
    info = report["info"]
    failed = info["mismatches"]
    attempted = info["checked"]

    # The trace must be plain JSON (what Perfetto loads) and readable by
    # the CLI's own trace reader.
    stats = subprocess.run([CLI, "trace", "stats", trace_path],
                           stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        events = json.loads(trace_path.read_text())["traceEvents"]
    except (OSError, ValueError, KeyError):
        events = []
    trace_ok = stats.returncode == 0 and len(events) > 0

    for name in PER_LAYER_UNITS:
        if name.startswith("orch."):
            metrics[name] = 0
    if setup.fleet:
        fleet_attempted, fleet_failed = fleet_layers(setup, metrics)
        attempted += fleet_attempted
        failed += fleet_failed
    context = {
        "trace_stats": stats.stdout.strip(),
        "trace_events": len(events),
        "trace_dropped": info["trace_dropped"],
        "tracing_overhead": info["traced_cells_s"] / info["untraced_cells_s"] - 1,
    }
    missing = set(PER_LAYER_UNITS) - set(metrics)
    if missing:
        raise BenchError(f"per-layer metrics missing: {sorted(missing)}")
    correct = failed == 0 and trace_ok
    return correct, attempted, failed, metrics, PER_LAYER_UNITS, context


def fleet_layers(setup, metrics):
    """orch.* metrics: the fleet, each shard alone, one process.

    Returns the cells checked and failed over the fleet's merged.csv and
    the single-process outputs.
    """
    fleet_runs = []
    attempted = failed = 0
    for rep in range(3):
        run, text = setup.workload_run(f"t{rep}")
        attempted += setup.ref.cells
        failed += failed_cells(run.returncode, text, setup.ref)
        summary = (setup.dir / "fleet.stdout").read_text()
        fleet_runs.append((run.wall_s, run.first_line_s, summary))
    fleet_runs.sort(key=lambda r: r[0])
    wall, first_launch, summary = fleet_runs[1]
    # "orchestrate: run summary: wall=..s attempts=A retried=R speculative=S ..."
    line = next(l for l in summary.splitlines() if "run summary:" in l)
    tally = dict(token.split("=", 1) for token in line.split() if "=" in token)
    for name in ("attempts", "retried", "speculative"):
        metrics[f"orch.{name}"] = int(tally[name])
    metrics["orch.first_launch_ms"] = 1e3 * first_launch

    shard_s = []
    out = setup.dir / "shard.csv"
    for shard in range(FLEET_SHARDS):
        restore(setup.master_store, setup.store)
        run = run_command(setup.sweep_argv(
            setup.plan, out, setup.store, shard=f"{shard}/{FLEET_SHARDS}",
            threads=FLEET_THREADS))
        if run.returncode != 0:
            raise BenchError(f"shard {shard}/{FLEET_SHARDS} exited {run.returncode}")
        shard_s.append(run.wall_s)
    metrics["orch.shard_s_p50"] = statistics.median(shard_s)
    metrics["orch.shard_s_max"] = max(shard_s)
    metrics["orch.overhead_share"] = 1 - sum(shard_s) / (FLEET_WORKERS * wall)
    single = []
    for _ in range(3):
        run, text = setup.single_sweep_check()
        attempted += setup.ref.cells
        failed += failed_cells(run.returncode, text, setup.ref)
        single.append(run.wall_s)
    metrics["orch.speedup_vs_sweep"] = statistics.median(single) / wall
    return attempted, failed


def run_context(args, setup):
    context = json.loads(checked([PROBE, "info"], "probe info"))
    context.update({"workload": args.workload, "seed": args.seed,
                    "plan_fingerprint": setup.ref.fingerprint,
                    "cells": setup.ref.cells})
    if setup.prewarm_fingerprint:
        context["prewarm_fingerprint"] = setup.prewarm_fingerprint
    return context


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
        setup = Setup(args.workload, args.seed)
        context = run_context(args, setup)
        rng = random.Random(f"check:{args.workload}:{args.seed}")
        if args.trace:
            result = traced(setup)
        else:
            result = measure(setup, args.seconds, rng)
    except BenchError as error:
        log(f"error: {error}")
        return 1
    correct, attempted, failed, metrics, units, extra = result
    context.update(extra)
    print("# context " + json.dumps(context), flush=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
