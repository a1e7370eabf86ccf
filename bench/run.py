"""Layered benchmark of mmwavesim: end-to-end host timings per workload,
and per-layer call timings from a separate traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]
    python3 bench/run.py --workload all            # every workload, untraced then traced
    python3 bench/run.py --workload NAME|all --write-reference   # re-record bench/reference.json

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed. Each workload repetition runs in its own
fresh child process (bench/worker.py), one at a time. Repetitions repeat
until --seconds have been measured; set-up is sampled in at least
MIN_SETUPS children. Every repetition's output digest is compared with
bench/reference.json; a mismatch counts as failed and is printed.

With --trace 0 the metrics are the end-to-end ones (END_TO_END). With
--trace 1 each untraced repetition is paired with a traced one; the
metrics are the per-layer ones (layer_metric_names()), medians over the
traced repetitions, plus the tracing overhead. Timings are host time.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from worker import DERIVED, REFERENCE_SEEDS, ROOT, SPANS, WORKLOADS, master_seed_for

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
MIN_SETUPS = 4
DEADLINE_S = 170.0  # one workload, warm-up to last child

# name, unit, better. On a shared 2-CPU host, neighbour load switches the
# host between a fast and a ~1.6x slower state for seconds to minutes at a
# time, so a repetition's wall time, its TTIs per wall second, its CPU time
# and its median step all move by up to 25% between identical runs (IQR over
# ten runs). Those are printed with every run but not declared. The declared
# throughput costs each ScenarioRun's steps at their 10th-percentile duration
# over the run's repetitions: it still moves with the cost of every step,
# and it needs only a tenth of the steps to run uncontended to hold still
# (IQR 3-7% where the mean-based figures spread 8-25%).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("p10_ttis_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

_STAT_UNITS = {"calls": "count", "us": "us", "share": "ratio"}
_DERIVED_UNITS = {
    "agent.train.update_ratio": ("ratio", "higher"),
    "agent.replay.sampled_ratio": ("ratio", "higher"),
    "clustering.run_clustering.iterations_mean": ("count", "lower"),
    "clustering.run_clustering.converged_ratio": ("ratio", "higher"),
}
_EXTRA_LAYERS = (
    ("workload.wall_s", "s", "lower"),
    ("workload.ttis_per_s", "1/s", "higher"),
    ("workload.cpu_s", "s", "lower"),
    ("engine.step.p50_us", "us", "lower"),
    ("engine.step.tail_us", "us", "lower"),
    ("engine.step.tail_percentile", "%", "higher"),
    ("engine.step.samples", "count", "higher"),
    ("setup.import_s", "s", "lower"),
    ("setup.parse_s", "s", "lower"),
    ("setup.construct_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def layer_metric_names():
    """(name, unit, better) of every per-layer metric."""
    out = [
        (f"{name}.{stat}", unit, "lower")
        for name, _, _ in SPANS
        for stat, unit in _STAT_UNITS.items()
    ]
    out += [(name, *_DERIVED_UNITS[name]) for name, _ in DERIVED]
    return out + list(_EXTRA_LAYERS)


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a wrong output)."""


def run_child(workload, master_seed, size, mode, deadline):
    cmd = [
        sys.executable,
        WORKER,
        "--workload", workload,
        "--master-seed", str(master_seed),
        "--size", size,
        "--mode", mode,
    ]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before a {mode} child")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: {mode} child exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"{workload}: {mode} child exited {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def nearest_rank(sorted_values, tenths):
    """Nearest-rank percentile, the percentile given in tenths of a percent."""
    k = max(1, -(-tenths * len(sorted_values) // 1000))
    return sorted_values[k - 1]


def tail_tenths(n):
    """p99 from 1,000 samples up, else the highest percentile (in 0.1 steps)
    with at least 10 samples beyond it."""
    if n >= 1000:
        return 990
    return max(0, 1000 * (n - 10) // n)


def fingerprint():
    info = {"platform": platform.platform(), "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        info["cpu"] = models[0] if models else platform.processor()
    except OSError:
        info["cpu"] = platform.processor()
    info["nproc"] = os.cpu_count()
    info["affinity"] = len(os.sched_getaffinity(0))
    info["loadavg_start"] = os.getloadavg()
    info["host_probe_ms_start"] = host_probe_ms()
    try:
        import numpy
        import scipy

        info["numpy"] = numpy.__version__
        info["scipy"] = scipy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError) as exc:
        info["blas"] = f"unknown ({exc})"
    info["commit"] = _git_commit()
    return info


def host_probe_ms():
    """Median time of a fixed pure-Python loop: how fast this host runs
    the interpreter right now, so a busy host can be told from slow code."""
    times = []
    for _ in range(7):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i % 7
        times.append((time.perf_counter() - start) * 1e3)
    return round(statistics.median(times), 3)


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def reference_key(workload, size, master_seed):
    return f"{workload}/{size}/{master_seed}"


def measure(workload, seed, seconds, trace, size):
    """Run one workload's repetitions; returns (report lines, result dict)."""
    deadline = time.monotonic() + DEADLINE_S
    master = master_seed_for(seed)
    expected = load_reference().get(reference_key(workload, size, master))

    def child(mode):
        return run_child(workload, master, size, mode, deadline)

    child("setup")  # warm-up, discarded: file cache and first-touch costs
    plain, traced = [], []
    begin = time.monotonic()
    while not plain or time.monotonic() - begin < seconds:
        plain.append(child("run"))
        if trace:
            traced.append(child("trace"))
    setups = [{k: r[k] for k in ("import_s", "parse_s", "construct_s")} for r in plain]
    while len(setups) < MIN_SETUPS:
        setups.append(child("setup"))

    lines = []
    reps = plain + traced
    failed = 0
    for i, rep in enumerate(reps):
        if rep["digest"] != expected:
            failed += 1
            lines.append(
                f"OUTPUT MISMATCH: repetition {i} digest {rep['digest']} != reference {expected}"
            )
    if not failed:
        lines.append(f"output check: {len(reps)}/{len(reps)} repetitions match reference {expected}")

    setup_total = [s["import_s"] + s["parse_s"] + s["construct_s"] for s in setups]
    if trace:
        metrics = _layer_metrics(plain, traced, setups)
        units = {name: unit for name, unit, _ in layer_metric_names()}
        absent = sorted({name for rep in traced for name in rep["absent"]})
        if absent:
            lines.append(f"absent layer metrics (name not found): {', '.join(absent)}")
    else:
        metrics = _end_to_end(plain, setup_total)
        units = {name: unit for name, unit, _ in END_TO_END}
        steps = _step_percentiles(plain)
        lines.append(
            f"undeclared, median of {len(plain)} repetitions: "
            + ", ".join(f"{k} {v:.6g} {u}" for (k, u), v in zip(
                (("wall_s", "s"), ("ttis_per_s", "1/s"), ("cpu_s", "s")), _medians(plain)
            ))
        )
        lines.append(
            f"undeclared: step_p50_us {steps['p50_us']:.6g} us, step_tail_us {steps['tail_us']:.6g} us "
            f"(p{steps['tail_percentile']:g} of {steps['samples']} steps)"
        )
    lines.append(
        f"setup: median of {len(setups)} children: "
        + ", ".join(
            f"{k} {statistics.median(s[k] for s in setups):.4f} s"
            for k in ("import_s", "parse_s", "construct_s")
        )
    )
    lines.append(f"failed_ratio: {failed / len(reps)} ({failed} of {len(reps)} repetitions)")
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return lines, result


def _steps(rep):
    return sum(len(run) for run in rep["step_ns"])


def _medians(reps):
    """Median wall_s, ttis_per_s and cpu_s over repetitions."""
    return (
        statistics.median(r["wall_s"] for r in reps),
        statistics.median(_steps(r) / r["wall_s"] for r in reps),
        statistics.median(r["cpu_s"] for r in reps),
    )


def _end_to_end(reps, setup_total):
    # the i-th ScenarioRun does the same work in every repetition
    step_s = 0.0
    for runs in zip(*(rep["step_ns"] for rep in reps)):
        pooled = sorted(ns for run in runs for ns in run)
        step_s += len(runs[0]) * nearest_rank(pooled, 100) / 1e9
    return {
        "setup_s": statistics.median(setup_total),
        "p10_ttis_per_s": _steps(reps[0]) / step_s,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in reps) / 1024,
    }


def _step_percentiles(reps):
    """ScenarioRun.step duration: median and tail over every step of every repetition."""
    steps = sorted(ns for rep in reps for run in rep["step_ns"] for ns in run)
    tenths = tail_tenths(len(steps))
    return {
        "p50_us": nearest_rank(steps, 500) / 1e3,
        "tail_us": nearest_rank(steps, tenths) / 1e3,
        "tail_percentile": tenths / 10,
        "samples": len(steps),
    }


def _layer_metrics(plain, traced, setups):
    names = sorted({name for rep in traced for name in rep["layers"]})
    metrics = {
        name: statistics.median(rep["layers"][name] for rep in traced if name in rep["layers"])
        for name in names
    }
    wall, ttis, cpu = _medians(plain)
    metrics.update({"workload.wall_s": wall, "workload.ttis_per_s": ttis, "workload.cpu_s": cpu})
    metrics.update({f"engine.step.{k}": v for k, v in _step_percentiles(plain).items()})
    for key in ("import_s", "parse_s", "construct_s"):
        metrics[f"setup.{key}"] = statistics.median(s[key] for s in setups)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_ratio"] = traced_wall / wall - 1
    return metrics


def print_report(workload, seed, size, trace, info, lines, result):
    print(
        f"== {workload}  seed {seed} (master_seed {master_seed_for(seed)})  size {size}  "
        f"trace {trace}"
    )
    print("machine: " + json.dumps(info, sort_keys=True))
    for line in lines:
        print("  " + line)
    width = max((len(n) for n in result["metrics"]), default=0)
    for name, m in result["metrics"].items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")


def write_reference(workloads):
    """Record the output digest of each workload, size and reference seed."""
    digests = load_reference() if os.path.exists(REFERENCE) else {}
    for workload in workloads:
        for size in ("tiny", "full"):
            for seed in range(REFERENCE_SEEDS):
                master = master_seed_for(seed)
                rep = run_child(workload, master, size, "run", time.monotonic() + 600)
                digests[reference_key(workload, size, master)] = rep["digest"]
                print(f"{reference_key(workload, size, master)} {rep['digest']}", flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "mmwavesim", "__init__.py")):
        print(f"no mmwavesim source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.workload is None:
        parser.error("--workload is required")
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.write_reference:
        write_reference(workloads)
        return 0

    jobs = (
        [(w, t) for w in workloads for t in (0, 1)]
        if args.workload == "all"
        else [(args.workload, args.trace)]
    )
    info = fingerprint()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, trace in jobs:
        try:
            lines, result = measure(workload, args.seed, args.seconds, trace, args.size)
        except BenchError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 2
        info["loadavg_end"] = os.getloadavg()
        info["host_probe_ms_end"] = host_probe_ms()
        print_report(workload, args.seed, args.size, trace, info, lines, result)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = f"{workload}.trace{trace}." if len(jobs) > 1 else ""
        combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
