"""Every line of `src/mmwavesim` runs under some CLI input, or is on
`ALLOWED` with its reason, so code that no input needs cannot return
unnoticed.

One child process installs `sys.settrace` before `import mmwavesim`, so the
lines that run at import count too. It runs the CLI in process on accepted
inputs (sweeps, `validate`, the oracle, `mean_coverage`, the module's
`__main__` line through `runpy`) and on every kind of input the CLI
rejects, each with the exit code it must give, and prints the lines of the
package that ran. The test compiles each module and compares the lines
that hold bytecode with those. A failure names each line as
`module.py:LINE: source`.

`ALLOWED` is keyed by the line's function (`module.qualname`, `<module>`
for module level, a comprehension or lambda counting as its enclosing
function) and its stripped text, so an entry survives edits elsewhere in
the file. An entry whose line runs, or no longer exists, fails the test."""

import dis
import glob
import json
import os
import subprocess
import sys
import textwrap
import types

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PACKAGE = os.path.join(SRC, "mmwavesim")

_ACT = (
    "the DqnAgent.act chain: bench/worker.py SPANS times it as agent.act, and "
    "tests/test_bench_trace_points.py requires every span to resolve"
)


def _allow(owner, reason, *texts):
    return {(owner, text): reason for text in texts}


# lines no CLI input runs, each kept for a named reader
ALLOWED = {
    **_allow(
        "agent.DqnAgent.act",
        _ACT,
        "return select_action(self.main, state, carry, self.cfg.epsilon, self.action_rng, mask)",
    ),
    **_allow(
        "agent.lstm_forward",
        _ACT,
        "x = np.asarray(states, dtype=float).reshape(-1, 1, 1)",
        "if carry is None:",
        "h0 = c0 = np.zeros((1, net.hidden_units))",
        "h0 = carry[0].reshape(1, -1)",
        "c0 = carry[1].reshape(1, -1)",
        "qs, (h, c), _ = _forward(net, x, h0, c0)",
        "return qs[:, 0, :], (h[0], c[0])",
    ),
    **_allow(
        "agent.select_action",
        _ACT,
        "q, new_carry = lstm_forward(net, [state], carry)",
        "if mask is None:",
        "feasible = np.arange(net.action_count)",
        "feasible = np.flatnonzero(np.asarray(mask, dtype=bool))",
        "return _epsilon_greedy(q[0], feasible, epsilon, rng), new_carry",
    ),
    **_allow(
        "agent._epsilon_greedy",
        _ACT,
        "if epsilon > 0.0 and rng.random() < epsilon:",
        "return int(feasible[rng.integers(feasible.size)])",
        "return int(feasible[row[feasible].argmax()])",
    ),
    **_allow(
        "agent.AgentStack.greedy",
        "every feasible Q-value is -inf only after training diverges, which an "
        "unbounded nn_learning_rate allows",
        "actions[k] = [a or int(mask[k].argmax()) for a in acts]",
    ),
}

CHILD = textwrap.dedent(
    """
    import contextlib, io, json, os, runpy, sys, warnings

    src, out = os.path.realpath(sys.argv[1]), sys.argv[2]
    package = os.path.join(src, "mmwavesim") + os.sep
    ran = set()

    def lines(frame, event, arg):
        if event == "line":
            ran.add((os.path.basename(frame.f_code.co_filename), frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename.startswith(package) else None

    sys.settrace(calls)
    sys.path.insert(0, src)
    import mmwavesim
    from mmwavesim import cli, engine
    from mmwavesim.config import parse_config_text

    os.cpu_count = lambda: 2  # so `--jobs 2` takes the process-pool path on any host
    SMALL = "runs = 2\\nn_ues = 6\\nrbg_count = 4\\nhidden_units = 4\\n"
    TINY = ("runs = 1\\nn_ues = 2\\nn_clusters = 1\\nn_beams = 1\\n"
            "rbg_count = 1\\nhidden_units = 1\\ntti_count = 2\\n")

    def write(name, text):
        path = os.path.join(out, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def outdir(name):
        return os.path.join(out, name)

    HEADER = "tti,ue_id,x_m,y_m\\n"
    # UEs 0 and 1 coincide (a cluster no split can separate), UE 4 is outside the
    # cell, and a blank row is skipped
    trace = write("trace.csv",
                  HEADER + "0,0,30,10\\n0,1,30,10\\n0,3,-20,40\\n0,4,500,0\\n\\n20,2,25,-15\\n")
    plain = write("plain.cfg", "# a comment line, then a blank one\\n\\n"
                  + SMALL + "tti_count = 130\\ninformative_pdf = false\\n")

    def blocked(name):
        # a directory where the first cell's report goes makes its rename fail
        os.makedirs(os.path.join(out, name, "report_kmeans_error_n_beams_0.csv"))
        return outdir(name)

    bad_trace = {
        "header": "tti,ue,x,y\\n0,0,1,2\\n",
        "malformed": HEADER + "0,0,1\\n",
        "nonfinite": HEADER + "0,0,nan,2\\n",
        "at_gnb": HEADER + "0,0,0,0\\n",
        "far": HEADER + "0,0,1e160,0\\n",
        "negative_tti": HEADER + "-1,0,1,2\\n",
        "unsorted": HEADER + "5,0,1,2\\n0,0,1,2\\n",
        "ue_id": HEADER + "0,9,1,2\\n",
    }
    bad_config = [
        "gamma 0.5\\n",
        "no_such_key = 1\\n",
        "gamma = 0.5\\ngamma = 0.5\\n",
        "informative_pdf = maybe\\n",
        "n_ues = six\\n",
        "gamma = 2\\n",
        "gamma = nan\\n",
        "scenarios = ,\\n",
        "scenarios = kmeans_error,no_such_scenario\\n",
        "scenarios = kmeans_error,kmeans_error\\n",
        "sweep_variable = gamma\\n",
        "sweep_values = 2,x\\n",
        "sweep_variable = n_beams\\nsweep_values = 2.5\\n",
        "sweep_values = 2,65\\n",
        "n_ues = 3\\nn_clusters = 4\\n",
        "load_bps = 1e12\\n",
        "subcarrier_spacing_hz = 1e308\\n",
        "minibatch = 61\\n",
        "tti_duration_s = 5e-9\\nqos_latency_ttis = 0\\n",
        "position_trace_csv = " + os.path.join(out, "missing.csv") + "\\n",
        *(f"position_trace_csv = {write(name + '.csv', text)}\\n"
          for name, text in bad_trace.items()),
    ]
    mc = ["oracle", "mc-distance", "--center", "0", "0", "--radius", "2", "--point", "3", "4"]
    calls = [
        (["run", "--config", plain, "--out", outdir("plain"), "--jobs", "1"], 0),
        (["run", "--config", write("pdf.cfg", SMALL + "tti_count = 30\\ninformative_pdf = true\\n"
          "scenarios = ukmeans_error,kmeans_error\\n"
          "sweep_variable = n_beams\\nsweep_values = 2,5\\n"),
          "--out", outdir("pdf"), "--jobs", "1"], 0),
        (["run", "--config", write("trace.cfg", SMALL + "tti_count = 30\\n"
          "cluster_init = random_points\\nscenarios = kmeans_error\\n"
          f"sweep_variable = load_bps\\nsweep_values = 1e6,4e6\\nposition_trace_csv = {trace}\\n"),
          "--out", outdir("trace"), "--jobs", "1"], 0),
        # one run, no traffic, no exploration, clustering stopped before it settles,
        # and a replay memory still short of a minibatch when training starts
        (["run", "--config", write("idle.cfg", "runs = 1\\nload_bps = 0\\nepsilon = 0\\n"
          "cluster_max_iterations = 1\\n"
          "n_ues = 4\\nhidden_units = 4\\nrbg_count = 2\\ntrain_interval_ttis = 5\\n"
          "tti_count = 12\\n"),
          "--out", outdir("idle"), "--jobs", "1", "--seed", "3"], 0),
        (["run", "--config", write("pool.cfg", TINY + "scenarios = kmeans_error,kmeans_exact\\n"),
          "--out", blocked("pool"), "--jobs", "2"], 2),
        (["run", "--config", write("tiny.cfg", TINY + "scenarios = kmeans_error\\n"),
          "--out", blocked("serial")], 2),
        (["run", "--config", plain, "--out", outdir("nojobs"), "--jobs", "0"], 1),
        (["run", "--config", plain, "--out", plain], 2),
        (["validate", "--config", plain], 0),
        (["validate", "--config", os.path.join(out, "missing.cfg")], 1),
        *((["validate", "--config", write(f"bad{i}.cfg", text)], 1)
          for i, text in enumerate(bad_config)),
        (mc + ["--samples", "1000"], 0),
        (mc + ["--samples", "0"], 1),
        (mc[:6] + ["-1"] + mc[7:], 1),
        (mc[:3] + ["nan"] + mc[4:], 1),
        (mc + ["--seed", "-1"], 1),
    ]
    for argv, code in calls:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            got = cli.main(argv)
        assert got == code, (argv, got, err.getvalue())
    coverage = parse_config_text("tti_count = 20\\nbeam_width_deg = 30\\n"
                                 "scenarios = kmeans_exact\\nsweep_variable = n_beams\\n"
                                 f"sweep_values = 2,3,9\\nposition_trace_csv = {trace}\\n")
    for cfg, _ in coverage.cells():
        engine.mean_coverage(cfg)
    sys.argv = ["mmwavesim", "validate", "--config", plain]
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("ignore", RuntimeWarning)  # cli is already imported
        try:
            runpy.run_module("mmwavesim.cli", run_name="__main__")
        except SystemExit as exit:
            assert exit.code == 0, exit.code
    sys.settrace(None)
    print(json.dumps(sorted(ran)))
    """
)


def _lines() -> dict:
    """(file name, line number) -> (`module.qualname`, stripped text) for
    every line of the package that holds bytecode."""
    out = {}
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        name = os.path.basename(path)
        with open(path) as fh:
            source = fh.read()
        text = source.splitlines()
        codes = [compile(source, path, "exec")]
        while codes:
            code = codes.pop()
            codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            owner = f"{name[:-3]}.{code.co_qualname.split('.<locals>')[0]}"
            for _, line in dis.findlinestarts(code):
                if line:  # an enclosing code object lists a `def` line first, as its owner
                    out.setdefault((name, line), (owner, text[line - 1].strip()))
    return out


def test_every_function_is_reached_or_allowed(tmp_path):
    """Checked per line: each function and module body runs in full,
    but for the `ALLOWED` lines."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, SRC, str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    ran = {tuple(where) for where in json.loads(proc.stdout.splitlines()[-1])}
    lines = _lines()
    assert len(lines) > 1000  # the enumeration found the package
    missed = {where: key for where, key in lines.items() if where not in ran}
    unexpected = [
        f"{name}:{line}: {text}"
        for (name, line), (owner, text) in sorted(missed.items())
        if (owner, text) not in ALLOWED
    ]
    assert not unexpected, "lines no run executes:\n" + "\n".join(unexpected)
    gone = [key for key in ALLOWED if key not in lines.values()]
    assert not gone, f"allowed but no longer in src/: {gone}"
    running = [key for key in ALLOWED if key not in missed.values()]
    assert not running, f"allowed but run: drop from ALLOWED: {running}"
