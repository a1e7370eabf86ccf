"""Every function in `src/mmwavesim` is reached by a traced set of CLI runs,
or is on `ALLOWED` with its reason, so code that no run needs cannot
return unnoticed.

One child process installs `sys.setprofile` before `import mmwavesim`,
runs three sweeps, two `validate`s (one out of range), `oracle
mc-distance` and three `mean_coverage` calls, and prints the module-level
functions, methods and property getters whose code lives in the package
and which it entered, and those it never entered."""

import json
import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# functions no CLI run reaches, each kept for a named reader
ALLOWED = {
    "agent.DqnAgent.act": "bench/worker.py SPANS times it as agent.act, and "
    "tests/test_bench_trace_points.py requires every span to resolve",
    "agent.select_action": "called by DqnAgent.act",
    "agent.lstm_forward": "called by select_action",
    "agent._as_sequence": "called by lstm_forward",
    "agent._epsilon_greedy": "called by select_action",
    "agent.ReplayMemory.__len__": "tests read the replay length (eviction)",
    "traffic.PacketQueue.__len__": "tests read the queue length (packet conservation)",
}

CHILD = textwrap.dedent(
    """
    import contextlib, inspect, io, json, os, pkgutil, sys

    src, out = sys.argv[1], sys.argv[2]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    sys.path.insert(0, src)
    import mmwavesim
    from mmwavesim import cli, engine
    from mmwavesim.config import parse_config_text

    SMALL = "runs = 2\\nn_ues = 6\\nrbg_count = 4\\nhidden_units = 4\\n"

    def config(name, text):
        path = os.path.join(out, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    trace = config("trace.csv", "tti,ue_id,x_m,y_m\\n0,0,30,10\\n0,3,-20,40\\n20,1,25,-15\\n")
    plain = config("plain.cfg", SMALL + "tti_count = 130\\n")
    calls = [
        (["run", "--config", plain, "--out", os.path.join(out, "plain"), "--jobs", "1"], 0),
        (["run", "--config", config("pdf.cfg", SMALL + "tti_count = 30\\ninformative_pdf = true\\n"
          "scenarios = ukmeans_error\\nsweep_variable = n_beams\\nsweep_values = 2,5\\n"),
          "--out", os.path.join(out, "pdf"), "--jobs", "1"], 0),
        (["run", "--config", config("trace.cfg", SMALL + "tti_count = 30\\ncluster_init = random_points\\n"
          f"scenarios = kmeans_error\\nsweep_variable = load_bps\\nsweep_values = 1e6,4e6\\n"
          f"position_trace_csv = {trace}\\n"), "--out", os.path.join(out, "trace"), "--jobs", "1"], 0),
        (["validate", "--config", plain], 0),
        (["validate", "--config", config("bad.cfg", "gamma = 2\\n")], 1),
        (["oracle", "mc-distance", "--center", "0", "0", "--radius", "2", "--point", "3", "4",
          "--samples", "1000"], 0),
    ]
    for argv, code in calls:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            got = cli.main(argv)
        assert got == code, (argv, got, err.getvalue())
    coverage = parse_config_text("tti_count = 20\\nbeam_width_deg = 30\\nscenarios = kmeans_exact\\n"
                                 "sweep_variable = n_beams\\nsweep_values = 2,3,9\\n")
    for cfg, _ in coverage.cells():
        engine.mean_coverage(cfg)
    sys.setprofile(None)

    defined = {}
    for info in pkgutil.iter_modules(mmwavesim.__path__):
        module = __import__(f"mmwavesim.{info.name}", fromlist=["_"])
        for name, obj in vars(module).items():
            members = [(name, obj)]
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                members = [(f"{name}.{attr}", v) for attr, v in vars(obj).items()]
            for qualname, fn in members:
                if isinstance(fn, (staticmethod, classmethod)):
                    fn = fn.__func__
                if isinstance(fn, property):
                    fn = fn.fget
                fn = inspect.unwrap(fn) if callable(fn) else fn
                if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                    defined[f"{info.name}.{qualname}"] = fn.__code__
    print(json.dumps({
        "defined": sorted(defined),
        "unreached": sorted(name for name, code in defined.items() if code not in entered),
    }))
    """
)


def test_every_function_is_reached_or_allowed(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, SRC, str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    defined, unreached = set(result["defined"]), set(result["unreached"])
    assert len(defined) > 100  # the enumeration found the package
    assert unreached - ALLOWED.keys() == set(), "never entered by any traced run"
    assert ALLOWED.keys() - defined == set(), "allowed but no longer defined"
    assert ALLOWED.keys() - unreached == set(), "allowed but reached: drop it from ALLOWED"
