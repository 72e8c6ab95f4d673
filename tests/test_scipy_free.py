"""solve, scan and check run on numpy alone.

scipy is loaded only by the two paths that need it, ``oracle`` (the
Lane-Emden ODE) and a sampled ``profile`` rotation law, and only when they
run.  Each case starts a fresh interpreter, because this one has scipy
loaded already.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from test_config_cli import base_raw, write_config

RUN_WITHOUT_SCIPY = """
import json, sys

import numpy as np

import corequilib.cli
from corequilib import TabulatedEos

s = np.geomspace(1e-3, 10.0, 24)
TabulatedEos(s, s**2)
for argv in json.loads(sys.argv[1]):
    rc = corequilib.cli.main(argv)
    if rc != 0:
        sys.exit("%r exited %d" % (argv, rc))
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_solve_scan_and_check_load_no_scipy(tmp_path):
    s = np.geomspace(1e-3, 10.0, 24)
    table = base_raw(n=24, core_rho=10.0, core_a=0.1, mu=1.0, omega=0.4)
    table["eos"] = {"kind": "tabulated-generic", "s": s.tolist(), "f": (s**2).tolist()}
    sweep = base_raw(
        n=24, core_rho=10.0, core_a=0.1,
        extra={"scan": {"omega_values": [0.0, 0.3], "mu_values": [1.0]}},
    )
    commands = [
        ["solve", "--config", write_config(tmp_path, table, "table.json"),
         "--out", str(tmp_path / "solve")],
        ["scan", "--config", write_config(tmp_path, sweep, "sweep.json"),
         "--out", str(tmp_path / "scan")],
        ["check", "--config", write_config(tmp_path, base_raw(n=16), "check.json")],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", RUN_WITHOUT_SCIPY, json.dumps(commands)],
        capture_output=True, text=True,
        env=dict(os.environ, COREQUILIB_THREADS="1"),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_oracle_loads_scipy_when_it_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "corequilib", "oracle", "lane-emden",
         "--gamma", "2.0", "--k", "1.0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["xi1"] == pytest.approx(3.14159265, abs=1e-6)
