"""Command-line front end: scenario sweeps, config validation, oracles.

    mmwavesim run --config exp.cfg --out results/ [--jobs N] [--seed S]
    mmwavesim validate --config exp.cfg
    mmwavesim oracle mc-distance --center X Y --radius R --point X Y

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
`run` writes, per sweep cell, a per-TTI report CSV and a summary CSV,
plus one combined `sweep_summary.csv`; all writes are atomic so
parallel cells never interleave file contents.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

from .config import SweepSpec, emit_config, parse_config
from .engine import (
    check_trace_ids,
    load_position_trace,
    run_scenario,
    write_per_tti_csv,
    write_summary_csv,
)
from .errors import ConfigError
from .fields import fmt
from .geometry import Point2D, UniformDisk, expected_sq_distance, mc_expected_sq_distance
from .seeding import make_rng

# the Monte Carlo oracle holds about 48 bytes per sample at its peak
MAX_MC_SAMPLES = 10_000_000


def _atomic_write(path: str, write) -> None:
    """Fill `path` through `write(tmp)` on a temporary file beside it and
    rename that into place; a failed write removes it, so no partial file
    is ever left."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _run_cell(args):
    """Worker for one (scenario, sweep value) cell; returns summary rows."""
    cfg, variable, value, value_index, out_dir, trace = args
    report = run_scenario(cfg, trace=trace)
    stem = f"{cfg.scenario.value}_{variable}_{value_index}.csv"
    for kind, write in (("report", write_per_tti_csv), ("summary", write_summary_csv)):
        _atomic_write(os.path.join(out_dir, f"{kind}_{stem}"), partial(write, report))
    return [f"{variable},{fmt(value)},{row}" for row in report.summary_rows()]


def _load_traces(spec: SweepSpec) -> dict:
    """Every position trace of the sweep, loaded once, by path; a trace that
    cannot be read or parsed, or that holds a `ue_id` outside [0, n_ues) of
    a config using it, raises ConfigError."""
    paths = dict.fromkeys(cfg.trace_csv for cfg in spec.base if cfg.trace_csv)
    traces = {path: load_position_trace(path) for path in paths}
    for cfg in spec.base:
        if cfg.trace_csv:
            check_trace_ids(traces[cfg.trace_csv], cfg)
    return traces


def run_sweep(spec: SweepSpec, out_dir: str, jobs: int = 1) -> int:
    """Run every sweep cell and write the CSV outputs.

    Position traces are loaded and checked (`_load_traces`) once before
    any cell starts, so a bad trace raises ConfigError instead of failing
    every cell. At most min(jobs, cells, CPUs) worker processes run.
    Returns the process exit code: 0 if every cell completed, 2 if any
    failed (completed cells are still written).
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    traces = _load_traces(spec)
    os.makedirs(out_dir, exist_ok=True)
    cells = [
        (cfg, spec.variable, value, i // len(spec.base), out_dir, traces.get(cfg.trace_csv))
        for i, (cfg, value) in enumerate(spec.cells())
    ]

    results = [None] * len(cells)
    failures = []
    workers = min(jobs, len(cells), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool's modules cost a one-worker run ~18 ms and 1.7 MB
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {i: pool.submit(_run_cell, cell) for i, cell in enumerate(cells)}
            for i, fut in futures.items():
                try:
                    results[i] = fut.result()
                except Exception as exc:  # noqa: BLE001 - cell isolation
                    failures.append((cells[i], exc))
    else:
        for i, cell in enumerate(cells):
            try:
                results[i] = _run_cell(cell)
            except Exception as exc:  # noqa: BLE001 - cell isolation
                failures.append((cell, exc))

    lines = ["sweep_variable,value,scenario,metric,mean,ci95_halfwidth"]
    for rows in results:
        if rows is not None:
            lines.extend(rows)
    text = "\n".join(lines) + "\n"
    path = os.path.join(out_dir, "sweep_summary.csv")
    _atomic_write(path, lambda tmp: Path(tmp).write_text(text))

    if failures:
        import traceback

        for (cfg, _, value, *_), exc in failures:
            print(
                f"cell failed: scenario={cfg.scenario.value} {spec.variable}={value}: {exc}",
                file=sys.stderr,
            )
            # a pool worker's exception carries the worker's traceback as its __cause__
            print("".join(traceback.format_exception(exc)), end="", file=sys.stderr)
        return 2
    return 0


def _cmd_run(args) -> int:
    spec = parse_config(args.config)
    if args.seed is not None:  # SweepSpec re-validates every cell
        spec = replace(spec, base=tuple(replace(cfg, master_seed=args.seed) for cfg in spec.base))
    return run_sweep(spec, args.out, jobs=args.jobs)


def _cmd_validate(args) -> int:
    spec = parse_config(args.config)
    _load_traces(spec)  # what `run` rejects, before any output
    sys.stdout.write(emit_config(spec))
    return 0


def _cmd_oracle_mc_distance(args) -> int:
    if not 1 <= args.samples <= MAX_MC_SAMPLES:
        raise ConfigError(f"--samples must be in [1, {MAX_MC_SAMPLES}], got {args.samples}")
    if not (math.isfinite(args.radius) and args.radius >= 0.0):
        raise ConfigError(f"--radius must be finite and >= 0, got {args.radius}")
    if not all(math.isfinite(v) for v in (*args.center, *args.point)):
        raise ConfigError("--center and --point must be finite")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    disk = UniformDisk(Point2D(args.center[0], args.center[1]), args.radius)
    target = Point2D(args.point[0], args.point[1])
    closed = expected_sq_distance(disk, target)
    estimate = mc_expected_sq_distance(disk, target, args.samples, make_rng(args.seed))
    rel = abs(closed - estimate) / closed if closed else abs(estimate)
    print(f"closed_form = {closed!r}")
    print(f"monte_carlo = {estimate!r}  (n={args.samples}, seed={args.seed})")
    print(f"relative_difference = {rel!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mmwavesim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured scenario sweep")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.add_argument("--seed", type=int, default=None, help="override master_seed")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a config and print the effective values")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=_cmd_validate)

    p_oracle = sub.add_parser("oracle", help="independent numeric spot checks")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_command", required=True)
    p_mc = oracle_sub.add_parser(
        "mc-distance", help="Monte Carlo vs closed-form expected squared distance"
    )
    p_mc.add_argument("--center", nargs=2, type=float, required=True, metavar=("X", "Y"))
    p_mc.add_argument("--radius", type=float, required=True)
    p_mc.add_argument("--point", nargs=2, type=float, required=True, metavar=("X", "Y"))
    p_mc.add_argument("--samples", type=int, default=1_000_000)
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.set_defaults(func=_cmd_oracle_mc_distance)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
