"""corequilib benchmark: end-to-end and per-layer numbers for solve and scan.

Run from the root of a source checkout:

    python3 bench/run.py --workload solve-poly-192 --seed 1 --seconds 40 --trace 0

Every operation is a fresh process (bench/child.py) that imports corequilib
from ``src/``; nothing persists between operations or runs.  A round is one
CLI command run to its end, with its outputs checked by bench/checks.py,
and two more processes that stop where the command calls into the program,
each adding a set-up time.  Rounds repeat while the next one, as long as
the longest so far, still ends within ``--seconds``; at least two run, so a
run can compare the outputs of its commands.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, each metric the median over the run.  With ``--trace 0`` the
metrics are the end-to-end ones (setup_s, run_s, peak_rss_mb); with
``--trace 1`` the commands run under bench/layertrace.py and the metrics
are per layer.  See bench/README.md for the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import layertrace

HERE = os.path.dirname(os.path.abspath(__file__))
#: a run ends within this many seconds: an operation still running when
#: it would be exceeded is killed and counted as failed
RUN_LIMIT_S = 165.0
#: processes per round that stop at the call into the program, each adding
#: one set-up time; a process's start-up varies by a quarter on a shared box
SETUP_SAMPLES = 2

#: the pressure law p = k rho^gamma of every workload (the README problem)
LAW_K, LAW_GAMMA = 1.0, 2.0
#: tabulated workload: table size and density range (s_max keeps the
#: table's enthalpy range above the multiplier solver's first probe)
TABLE_POINTS, TABLE_S_MIN, TABLE_S_MAX = 48, 1e-4, 100.0


def readme_problem(n):
    """The README problem: gamma 2, omega 0.4, mu 1, core rho 10, on n^2."""
    return {
        "eos": {"kind": "polytrope", "k": LAW_K, "gamma": LAW_GAMMA},
        "grid": {"r_max": 2.0, "z_max": 2.0, "n_r": n, "n_z": n},
        "core": {"a_r": 0.1, "a_z": 0.1, "rho": 10.0, "mu": 1.0},
        "rotation": {"kind": "constant", "omega": 0.4},
        "solver": {"mass": 1.0},
    }


def table_problem(rng):
    """The README problem on 96^2 with the law sampled into a table.

    The seed places the interior table points: each is jittered by up to
    0.4 of the log spacing, so the count, the end points and therefore the
    quadrature work of building the table are the same for every seed.
    """
    cfg = readme_problem(96)
    u = np.linspace(np.log(TABLE_S_MIN), np.log(TABLE_S_MAX), TABLE_POINTS)
    step = u[1] - u[0]
    u[1:-1] += rng.uniform(-0.4, 0.4, TABLE_POINTS - 2) * step
    s = np.exp(u)
    cfg["eos"] = {"kind": "tabulated-generic", "s": s.tolist(),
                  "f": (LAW_K * s**LAW_GAMMA).tolist()}
    return cfg


def sweep_problem(rng):
    """The acceptance sweep: 11 omega x 4 mu on 96^2."""
    cfg = readme_problem(96)
    cfg["core"]["mu"] = 0.0
    del cfg["rotation"]
    cfg["scan"] = {
        "omega_values": [round(0.2 * i, 10) for i in range(11)],
        "mu_values": [0.0, 1.0, 10.0, 100.0],
    }
    return cfg


#: name -> (CLI command, config maker, COREQUILIB_THREADS or None)
WORKLOADS = {
    "solve-poly-192": ("solve", lambda rng: readme_problem(192), None),
    "solve-table-96": ("solve", table_problem, None),
    "scan-96": ("scan", sweep_problem, 2),
}


def _digest(out_dir, command):
    """sha256 over the deterministic outputs of one operation."""
    if command == "solve":
        names = ["result.json", "field.csv"]
    else:
        cells = sorted(d for d in os.listdir(out_dir) if d.startswith("cell_"))
        names = ["scan.csv"] + [
            os.path.join(cell, name) for cell in cells
            for name in ("result.json", "field.csv")
        ]
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _spawn(argv, env, timeout):
    """Run one process in its own session; kill the session on timeout."""
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, err
    return proc.returncode, out, err


class Run:
    def __init__(self, root, workload, seed, trace):
        self.src = os.path.join(root, "src")
        self.command, make_config, threads = WORKLOADS[workload]
        self.seed = seed
        self.trace = trace
        self.threads = threads
        self.dir = os.path.join(HERE, "out", "%s-s%d-p%d" % (workload, seed, os.getpid()))
        os.makedirs(self.dir)
        self.config = make_config(np.random.default_rng(seed))
        self.config_path = os.path.join(self.dir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.config, fh)
        self.enthalpy = checks.polytrope_enthalpy(LAW_K, LAW_GAMMA)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = self.src
        self.env["TMPDIR"] = self.dir
        if threads is not None:
            self.env["COREQUILIB_THREADS"] = str(threads)
        self.child = os.path.join(HERE, "child.py")

    def warm_up(self):
        """Import the program once, untimed, so byte code and the file
        cache are in the state every later process sees."""
        rc, out, err = _spawn([sys.executable, self.child, self.src, "--warm-up"],
                              self.env, RUN_LIMIT_S)
        if rc != 0:
            sys.stderr.write(err.decode(errors="replace"))
            raise SystemExit("cannot import corequilib from %s" % self.src)

    def _launch(self, mode, timeout):
        """Start one child process; its timing and spawn time, or None."""
        out_dir = os.path.join(self.dir, "op")
        trace_dir = os.path.join(self.dir, "trace")
        timing_path = os.path.join(self.dir, "timing.json")
        for path in (out_dir, trace_dir):
            shutil.rmtree(path, ignore_errors=True)
        if os.path.exists(timing_path):
            os.remove(timing_path)
        os.makedirs(trace_dir)
        argv = [sys.executable, self.child, self.src, timing_path, mode,
                self.command, "--config", self.config_path, "--out", out_dir]
        t_spawn = time.monotonic()
        rc, out, err = _spawn(argv, self.env, timeout)
        if rc != 0 or not os.path.exists(timing_path):
            sys.stderr.write("%s process failed with exit code %s\n%s"
                             % (mode, rc, err.decode(errors="replace")[-2000:]))
            return None
        with open(timing_path) as fh:
            return json.load(fh), t_spawn, out_dir, trace_dir

    def setup_sample(self, timeout):
        """Set-up time of a process stopped at the call into the program."""
        launched = self._launch("setup", timeout)
        return None if launched is None else launched[0]["t_call"] - launched[1]

    def operation(self, index, timeout):
        """One timed CLI command, checked; a dict, or None when it failed."""
        launched = self._launch("trace" if self.trace else "run", timeout)
        if launched is None:
            return None
        timing, t_spawn, out_dir, trace_dir = launched
        op = {
            "setup_s": timing["t_call"] - t_spawn,
            "run_s": timing["t_return"] - timing["t_call"],
            "peak_rss_mb": max(timing["rss_self_mb"], timing["rss_children_mb"]),
            "digest": _digest(out_dir, self.command),
        }
        rng = np.random.default_rng([self.seed, index])
        if self.command == "solve":
            op["problems"] = checks.check_solve(out_dir, self.enthalpy, rng)
            retries = 0
        else:
            op["problems"], retries = checks.check_scan(
                out_dir, self.config, self.enthalpy, rng)
        if self.trace:
            layers = layertrace.summarize(*layertrace.load(trace_dir),
                                          workers=self.threads or 1)
            layers["cli.import_s"] = timing["import_s"]
            layers["scan.retries"] = retries
            op["layers"] = layers
        return op


def _median_metrics(ops, names, units):
    return {
        name: {"value": statistics.median(op[name] for op in ops), "unit": units[name]}
        for name in names
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    launched = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "corequilib", "cli.py")):
        sys.stderr.write("run from the root of a corequilib checkout: "
                         "src/corequilib/cli.py not found under %s\n" % root)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]

    run = Run(root, args.workload, args.seed, bool(args.trace))
    run.warm_up()
    start = time.monotonic()
    ops, setups, rounds, failed, longest = [], [], 0, 0, 0.0
    while True:
        elapsed = time.monotonic() - start
        # stop before a round that would likely end after --seconds
        if rounds >= 2 and elapsed + longest > args.seconds:
            break
        rounds += 1
        t0 = time.monotonic()
        op = run.operation(rounds, max(1.0, RUN_LIMIT_S - (t0 - launched)))
        samples = [op["setup_s"]] if op is not None else []
        for _ in range(SETUP_SAMPLES):
            sample = run.setup_sample(max(1.0, RUN_LIMIT_S - (time.monotonic() - launched)))
            if sample is not None:
                samples.append(sample)
        longest = max(longest, time.monotonic() - t0)
        failed += 1 + SETUP_SAMPLES - len(samples)
        setups += samples
        if op is not None:
            ops.append(op)
            sys.stderr.write("round %d: setup %s s, run %.3f s, rss %.1f MB%s\n" % (
                rounds, " ".join("%.3f" % x for x in samples), op["run_s"],
                op["peak_rss_mb"], "".join("\n  " + p for p in op["problems"])))

    problems = [p for op in ops for p in op["problems"]]
    digests = sorted({op["digest"] for op in ops})
    if len(digests) > 1:
        problems.append("operations of one run wrote different outputs")
    print("digest %s over %d operations of %s (seed %d)"
          % (",".join(digests), len(ops), args.workload, args.seed))
    metrics = {}
    if ops:
        metrics = _median_metrics(ops, e2e_names, units)
        metrics["setup_s"]["value"] = statistics.median(setups)
    if args.trace and ops:
        print("traced end to end: " + json.dumps(metrics))
        metrics = _median_metrics([op["layers"] for op in ops], layer_names, units)
    for problem in problems:
        print("check failed: %s" % problem)
    correct = not problems
    if correct:
        shutil.rmtree(run.dir)
    print(json.dumps({
        "correct": correct,
        "attempted": rounds * (1 + SETUP_SAMPLES),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct and ops else 1


if __name__ == "__main__":
    sys.exit(main())
