"""One benchmark repetition of one workload, in a fresh process.

    python3 bench/worker.py --workload NAME --master-seed N --size full|tiny --mode run|trace|setup

`bench/run.py` starts this script once per repetition, one child at a
time, so import caching and peak RSS never leak between repetitions.
The child imports `mmwavesim` from the checkout's `src/`, times set-up
(import, config parse, time until the first `ScenarioRun.step`), runs
the workload through the package's public functions and prints one JSON
line: timings, rusage and a SHA-256 digest of the workload's outputs.

Modes:
  run    untraced; only `ScenarioRun.step` is timed, per ScenarioRun,
         for the step percentiles.
  trace  every layer function listed in SPANS is wrapped where it is
         looked up, and self time (span minus wrapped children) is
         accumulated per name. The program's files are not changed.
  setup  stops at the first `ScenarioRun.step`; reports set-up only.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import json
import os
import resource
import shutil
import sys
import time
import weakref
from collections import deque

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = {
    "default_sweep": "the empty-config sweep (3 scenarios, 1,400 TTIs) through run_sweep with CSV writes; "
    "DQN action selection dominates",
    "coverage_sweep": "mean_coverage over 2 scenarios x n_beams 3..9 at 30 deg; "
    "no agent or traffic, form_beams takes its split path",
    "large_cell": "run_scenario with 48 UEs, 8 clusters, 8 beams, ukmeans_error; "
    "every layer at 8x the default's per-TTI scale",
}

# Reference digests exist for this many workload seeds; --seed picks one.
REFERENCE_SEEDS = 8


def master_seed_for(seed: int) -> int:
    """The config's master_seed for a harness --seed (seed 0 is the default experiment)."""
    return 12345 + seed % REFERENCE_SEEDS


def config_text(workload: str, master_seed: int, size: str) -> str:
    """The generated config: the only input the program receives."""
    tiny = size == "tiny"
    if workload == "default_sweep":
        # the empty config, one run per scenario; tiny keeps two train and one sync step
        return f"master_seed = {master_seed}\nruns = 1\n" + ("tti_count = 130\n" if tiny else "")
    if workload == "coverage_sweep":
        return (
            "scenarios = kmeans_exact,kmeans_error\n"
            "sweep_variable = n_beams\n"
            "sweep_values = 3,4,5,6,7,8,9\n"
            "beam_width_deg = 30\n"
            f"tti_count = {40 if tiny else 400}\n"
            f"master_seed = {master_seed}\n"
        )
    if workload == "large_cell":
        return (
            "scenarios = ukmeans_error\n"
            "n_ues = 48\n"
            "n_clusters = 8\n"
            "n_beams = 8\n"
            f"tti_count = {40 if tiny else 400}\n"
            "runs = 1\n"
            f"master_seed = {master_seed}\n"
        )
    raise ValueError(f"unknown workload {workload!r}")


def _sha256(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _run_default_sweep(mm, spec):
    out_dir = os.path.join(OUT_DIR, f"sweep-{os.getpid()}")
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        code = mm.cli.run_sweep(spec, out_dir, jobs=1)
    except BaseException:  # also SetupDone: leave no partial sweep behind
        shutil.rmtree(out_dir, ignore_errors=True)
        raise
    return code, out_dir


def _digest_default_sweep(outputs) -> str:
    code, out_dir = outputs
    try:
        chunks = [f"exit={code}\n".encode()]
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                chunks += [name.encode(), b"\0", fh.read(), b"\0"]
        return _sha256(chunks)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _run_coverage_sweep(mm, spec):
    return [mm.engine.mean_coverage(cfg) for cfg, _ in spec.cells()]


def _digest_coverage_sweep(values) -> str:
    return _sha256(repr(v).encode() + b"\n" for v in values)


def _run_large_cell(mm, spec):
    return mm.engine.run_scenario(spec.base[0])


def _digest_large_cell(report) -> str:
    rows = [
        (s.coverage_rate, s.sum_rate_bps, s.mean_delay_ttis, s.delivered_bits)
        for s in report.summaries
    ]
    return _sha256([repr(rows).encode()])


RUNNERS = {
    "default_sweep": (_run_default_sweep, _digest_default_sweep),
    "coverage_sweep": (_run_coverage_sweep, _digest_coverage_sweep),
    "large_cell": (_run_large_cell, _digest_large_cell),
}

# (metric prefix, module, attribute) for every traced layer boundary. A
# function imported with `from .x import f` is wrapped in the importing
# module, where the caller looks it up; methods are wrapped on their class.
SPANS = (
    ("agent.act", "mmwavesim.agent", "DqnAgent.act"),
    ("agent.train", "mmwavesim.agent", "DqnAgent.train"),
    ("agent.remember", "mmwavesim.agent", "DqnAgent.remember"),
    ("agent.sync", "mmwavesim.agent", "DqnAgent.sync"),
    ("agent.reward", "mmwavesim.engine", "reward"),
    ("agent.replay.push", "mmwavesim.agent", "ReplayMemory.push"),
    ("agent.replay.sample", "mmwavesim.agent", "ReplayMemory.sample"),
    ("clustering.run_clustering", "mmwavesim.engine", "run_clustering"),
    ("beams.split_clustering", "mmwavesim.beams", "run_clustering"),
    ("beams.form_beams", "mmwavesim.engine", "form_beams"),
    ("beams.compute_sinr", "mmwavesim.engine", "compute_sinr"),
    ("beams.coverage_rate", "mmwavesim.engine", "coverage_rate"),
    ("beams.rbg_rate", "mmwavesim.engine", "rbg_rate"),
    ("beams.sinr_to_cqi", "mmwavesim.engine", "sinr_to_cqi"),
    ("traffic.generate_arrivals", "mmwavesim.engine", "generate_arrivals"),
    ("traffic.PacketQueue.push", "mmwavesim.traffic", "PacketQueue.push"),
    ("traffic.PacketQueue.serve", "mmwavesim.traffic", "PacketQueue.serve"),
    ("traffic.PacketQueue.head_of_line_delay", "mmwavesim.traffic", "PacketQueue.head_of_line_delay"),
    ("engine.inject_error", "mmwavesim.engine", "inject_error"),
    ("engine.step", "mmwavesim.engine", "ScenarioRun.step"),
    ("engine.write_per_tti_csv", "mmwavesim.cli", "write_per_tti_csv"),
    ("engine.write_summary_csv", "mmwavesim.cli", "write_summary_csv"),
)

# Metrics computed from span results rather than timed; each is absent
# when a span it needs is absent or its arguments or result no longer fit.
DERIVED = (
    ("agent.train.update_ratio", ("agent.train",)),
    ("agent.replay.sampled_ratio", ("agent.replay.push", "agent.replay.sample")),
    ("clustering.run_clustering.iterations_mean", ("clustering.run_clustering",)),
    ("clustering.run_clustering.converged_ratio", ("clustering.run_clustering",)),
)


class Tracer:
    """Per-name call count, total and self time of wrapped functions."""

    def __init__(self):
        self.stats = {}  # name -> [calls, total_ns, self_ns]
        self._children = []  # child time accumulated by each open span

    def wrap(self, name, fn, on_result=None):
        stat = self.stats.setdefault(name, [0, 0, 0])
        children = self._children
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner
            if on_result is not None:
                on_result(args, result)
            return result

        return traced


class Counters:
    """Span-result hooks for the derived per-layer ratios."""

    def __init__(self):
        self.broken = set()  # derived metrics whose hook met an unexpected API
        self.train_updates = 0
        self.iterations = 0
        self.converged = 0
        self.pushed = 0
        self.sampled = set()  # push indices of every experience ever sampled
        # per replay memory, its last `capacity` pushes as (experience, push index)
        self._recent = weakref.WeakKeyDictionary()

    def hooks(self):
        iterations = "clustering.run_clustering.iterations_mean"
        converged = "clustering.run_clustering.converged_ratio"
        sampled = "agent.replay.sampled_ratio"
        return {
            "agent.train": self._guarded(self._on_train, "agent.train.update_ratio"),
            "agent.replay.push": self._guarded(self._on_push, sampled),
            "agent.replay.sample": self._guarded(self._on_sample, sampled),
            "clustering.run_clustering": self._guarded(self._on_cluster, iterations, converged),
        }

    def _guarded(self, hook, *metrics):
        def guarded(args, result):
            try:
                hook(args, result)
            except (AttributeError, KeyError, TypeError, IndexError, ValueError):
                self.broken.update(metrics)

        return guarded

    def _on_train(self, args, loss):
        self.train_updates += loss is not None

    def _on_cluster(self, args, result):
        self.iterations += int(result.iterations)
        self.converged += bool(result.converged)

    def _on_push(self, args, _):
        memory, experience = args[0], args[1]
        if memory not in self._recent:
            self._recent[memory] = deque(maxlen=memory.capacity)
        self._recent[memory].append((experience, self.pushed))
        self.pushed += 1

    def _on_sample(self, args, batch):
        if batch is not None:
            index = {id(exp): i for exp, i in self._recent[args[0]]}
            self.sampled.update(index[id(exp)] for exp in batch)


def _lookup(module_name, attr):
    """(owner, leaf name, function) or None when the name no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    fn = getattr(owner, leaf, None)
    return None if fn is None else (owner, leaf, fn)


def install_tracing(tracer, counters):
    """Wrap every SPANS entry; returns the names found absent."""
    hooks = counters.hooks()
    absent = []
    for name, module_name, attr in SPANS:
        found = _lookup(module_name, attr)
        if found is None:
            absent.append(name)
            continue
        owner, leaf, fn = found
        setattr(owner, leaf, tracer.wrap(name, fn, hooks.get(name)))
    return absent


def layer_metrics(tracer, counters, absent, wall_ns):
    """Per-layer metrics of one traced repetition, and the names absent."""
    metrics = {}
    for name, (calls, _, self_ns) in tracer.stats.items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.us"] = self_ns / calls / 1e3 if calls else 0.0
        metrics[f"{name}.share"] = self_ns / wall_ns
    calls = {name: stat[0] for name, stat in tracer.stats.items()}
    ratios = {
        "agent.train.update_ratio": (counters.train_updates, calls.get("agent.train", 0)),
        "agent.replay.sampled_ratio": (len(counters.sampled), counters.pushed),
        "clustering.run_clustering.iterations_mean": (
            counters.iterations,
            calls.get("clustering.run_clustering", 0),
        ),
        "clustering.run_clustering.converged_ratio": (
            counters.converged,
            calls.get("clustering.run_clustering", 0),
        ),
    }
    missing = [f"{n}.{stat}" for n in absent for stat in ("calls", "us", "share")]
    for name, spans in DERIVED:
        if set(spans) & set(absent) or name in counters.broken:
            missing.append(name)
            continue
        num, den = ratios[name]
        metrics[name] = num / den if den else 0.0
    return metrics, missing


class SetupDone(BaseException):
    """Raised at the first step in setup mode; not an Exception, so the
    sweep's per-cell error isolation does not swallow it."""


def time_steps(run_cls, durations, first_step, stop_at_first):
    """Time every `ScenarioRun.step`, one list per ScenarioRun in the order
    they run; note when the first step starts."""
    step = run_cls.step
    clock = time.perf_counter_ns
    current = [None]  # the ScenarioRun whose steps go to durations[-1]

    @functools.wraps(step)
    def timed(run, *args, **kwargs):
        start = clock()
        if not first_step:
            first_step.append(start)
            if stop_at_first:
                raise SetupDone
        if run is not current[0]:
            current[0] = run
            durations.append([])
        result = step(run, *args, **kwargs)
        durations[-1].append(clock() - start)
        return result

    run_cls.step = timed


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--master-seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--mode", choices=("run", "trace", "setup"), default="run")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import mmwavesim  # noqa: E402 - the import is what set-up times

    if args.workload == "default_sweep":
        import mmwavesim.cli  # noqa: F401
    t1 = time.perf_counter()
    expected = os.path.join(SRC, "mmwavesim", "__init__.py")
    if os.path.realpath(mmwavesim.__file__) != os.path.realpath(expected):
        print(f"mmwavesim imported from {mmwavesim.__file__}, not {expected}", file=sys.stderr)
        return 2

    spec = mmwavesim.parse_config_text(config_text(args.workload, args.master_seed, args.size))
    t2 = time.perf_counter()

    run, digest = RUNNERS[args.workload]
    result = {"import_s": t1 - t0, "parse_s": t2 - t1}
    durations, first_step = [], []
    if args.mode == "trace":
        tracer, counters = Tracer(), Counters()
        absent = install_tracing(tracer, counters)
    else:
        time_steps(mmwavesim.engine.ScenarioRun, durations, first_step, args.mode == "setup")

    os.makedirs(OUT_DIR, exist_ok=True)
    cpu0 = _cpu_s()
    start = time.perf_counter_ns()
    try:
        outputs = run(mmwavesim, spec)
    except SetupDone:
        result["construct_s"] = (first_step[0] - start) / 1e9
        print(json.dumps(result))
        return 0
    wall_ns = time.perf_counter_ns() - start
    cpu_s = _cpu_s() - cpu0

    result.update(
        wall_s=wall_ns / 1e9,
        cpu_s=cpu_s,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        digest=digest(outputs),
    )
    if args.mode == "trace":
        result["layers"], result["absent"] = layer_metrics(tracer, counters, absent, wall_ns)
    else:
        result["construct_s"] = (first_step[0] - start) / 1e9
        result["step_ns"] = durations
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
