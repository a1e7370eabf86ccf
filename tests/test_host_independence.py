"""The sweep's output bytes do not depend on the BLAS kernel or the SIMD
path: one short sweep, run in child processes with OpenBLAS forced to
its Prescott kernels and with numpy's X86_V3/X86_V4 dispatch disabled,
writes the same files as under the default environment. The variables
act on the child processes only."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

CONFIG = (
    "tti_count = 150\nruns = 2\nhidden_units = 7\n"
    "sweep_variable = n_beams\nsweep_values = 3,5\n"
)

VARIANTS = {
    "default": {},
    "openblas_prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "numpy_baseline_simd": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
}


VARIABLES = {name for env in VARIANTS.values() for name in env}


def _sweep(tmp_path, name, extra_env) -> dict:
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG)
    out = tmp_path / name
    env = {k: v for k, v in os.environ.items() if k not in VARIABLES}
    env.update(PYTHONPATH=SRC, **extra_env)
    argv = ["run", "--config", str(cfg), "--out", str(out), "--jobs", "1"]
    proc = subprocess.run(
        [sys.executable, "-m", "mmwavesim.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_sweep_bytes_equal_across_blas_and_simd_paths(tmp_path):
    outputs = {name: _sweep(tmp_path, name, env) for name, env in VARIANTS.items()}
    default = outputs.pop("default")
    assert len(default) == 2 * 3 * 2 + 1  # report + summary per cell, and the sweep summary
    for name, files in outputs.items():
        assert files.keys() == default.keys(), name
        for file_name, data in files.items():
            assert data == default[file_name], f"{name}: {file_name} differs"
