"""The benchmark's layer tracer names calls that must exist in the package.

``bench/layertrace.py`` wraps program calls by name from outside (``SPANS``
and ``COUNTS``).  A renamed call would only show up as a failure under
``bench/run.py --trace 1``; this test makes it fail the test suite instead.
It imports the tracer's tables and looks every name up, the way
``layertrace._replace`` does.  A traced scan in a subprocess checks that
the output layer is still seen after it moved into the pool's workers.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import corequilib  # noqa: F401  (the tracer expects the package imported)

LAYERTRACE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "bench", "layertrace.py",
)


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACER = _layertrace()
TRACED = [entry[:3] for entry in _TRACER.SPANS + _TRACER.COUNTS]


@pytest.mark.parametrize(
    "module_name,owner,attr", TRACED, ids=[".".join(filter(None, e)) for e in TRACED]
)
def test_traced_call_resolves(module_name, owner, attr):
    module = importlib.import_module(module_name)
    if owner is None:
        assert callable(getattr(module, attr, None))
    else:
        # layertrace wraps the class's own attribute, not an inherited one
        assert callable(vars(getattr(module, owner)).get(attr))


#: a 2-cell scan on two workers, traced; prints the scanning process's pid
_TRACED_SCAN = """
import json, os, sys
bench, trace_dir, config, out = sys.argv[1:]
sys.path.insert(0, bench)
import corequilib as cq
import layertrace
tracer = layertrace.install(trace_dir)
with open(config) as fh:
    eff = cq.effective_config(json.load(fh), need_scan=True)
cq.run_scan(cq.ScanSpec.from_config(eff), out, budget=2)
tracer.flush()
print(os.getpid())
"""


def test_scan_workers_trace_their_field_writes(tmp_path):
    raw = {
        "eos": {"kind": "polytrope", "k": 1.0, "gamma": 2.0},
        "grid": {"r_max": 2.0, "z_max": 2.0, "n_r": 16, "n_z": 16},
        "core": {"a_r": 0.2, "a_z": 0.2, "rho": 10.0, "mu": 1.0},
        "solver": {"mass": 1.0},
        "scan": {"omega_values": [0.0, 0.3], "mu_values": [1.0]},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    trace_dir, out = tmp_path / "trace", tmp_path / "sweep"
    trace_dir.mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_SCAN, os.path.dirname(LAYERTRACE),
         str(trace_dir), str(config), str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    scanner = proc.stdout.strip()
    spans, counts, _ = _TRACER.load(str(trace_dir))

    def pids(name):
        return [sid.split(":")[0] for sid, span, *_ in spans if span == name]

    writers = pids("field.write")
    assert len(writers) == 2
    assert scanner not in writers
    assert set(writers) <= set(pids("solver.solve"))
    written = sorted(out.glob("cell_*/field.csv"))
    assert len(written) == 2
    assert counts["field.bytes_written"] == sum(p.stat().st_size for p in written)
