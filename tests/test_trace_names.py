"""The benchmark's layer tracer names calls that must exist in the package.

``bench/layertrace.py`` wraps program calls by name from outside (``SPANS``
and ``COUNTS``).  A renamed call would only show up as a failure under
``bench/run.py --trace 1``; this test makes it fail the test suite instead.
It imports the tracer's tables and looks every name up, the way
``layertrace._replace`` does.  A traced scan in a subprocess checks that
the output layer is still seen after it moved into the pool's workers and
that every kernel is built in the scanning process alone, traced solves
check that the counters agree with ``result.json``, and the kernel size the
tracer records is the kernel's stored size.
"""

import collections
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import types

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
    eff = cq.effective_config(json.load(fh))
cq.run_scan(cq.ScanSpec.from_config(eff), out, budget=2)
tracer.flush()
print(os.getpid())
"""


@pytest.mark.parametrize("r_max,z_max,builds", [(2.0, 2.0, 1), (1.2, 0.75, 1)])
def test_scan_workers_trace_their_field_writes(tmp_path, r_max, z_max, builds):
    raw = {
        "eos": {"kind": "polytrope", "k": 1.0, "gamma": 2.0},
        "grid": {"r_max": r_max, "z_max": z_max, "n_r": 16, "n_z": 16},
        "core": {"a_r": 0.25, "a_z": 0.25, "rho": 10.0, "mu": 1.0},
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
    # every kernel is built before the pool: 2 x 2 has one shape on both
    # domains, and so has 1.2 x 0.75, though grown by 1.5 its aspect is
    # one ulp off its base's; both of its cells are retried
    assert pids("potential.kernel_build") == [scanner] * builds
    assert set(writers) <= set(pids("solver.solve"))
    written = sorted(out.glob("cell_*/field.csv"))
    assert len(written) == 2
    if r_max == 1.2:
        for path in written:
            result = json.loads((path.parent / "result.json").read_text())
            assert result["retried"]
    assert counts["field.bytes_written"] == sum(p.stat().st_size for p in written)


def test_traced_kernel_size_is_the_stored_kernel():
    # what potential.kernel_mb records of a 192^2 kernel: its one buffer,
    # the size kernel_bytes gives before the build, and at most 20 MB
    grid = corequilib.CylGrid(2.0, 2.0, 192, 192)
    kernel = corequilib.AxiKernel(grid)
    peaks = {}
    recorder = types.SimpleNamespace(peak=peaks.__setitem__)
    _TRACER._kernel_size(recorder, (kernel,))
    assert peaks == {"potential.kernel_mb": kernel._fw.nbytes / 1e6}
    assert kernel._fw.nbytes == corequilib.potential.kernel_bytes(grid)
    assert peaks["potential.kernel_mb"] <= 20.0


#: one solve through the CLI, traced
_TRACED_SOLVE = """
import sys
bench, trace_dir, config, out = sys.argv[1:]
sys.path.insert(0, bench)
import corequilib.cli
import layertrace
tracer = layertrace.install(trace_dir)
corequilib.cli.main(["solve", "--config", config, "--out", out])
tracer.flush()
"""

README_48 = {
    "eos": {"kind": "polytrope", "k": 1.0, "gamma": 2.0},
    "grid": {"r_max": 2.0, "z_max": 2.0, "n_r": 48, "n_z": 48},
    "core": {"a_r": 0.1, "a_z": 0.1, "rho": 10.0, "mu": 1.0},
    "rotation": {"kind": "constant", "omega": 0.4},
    "solver": {"mass": 1.0},
}
#: a table that ends below the enthalpy the mass needs: no multiplier at all
_S = [1e-4 * 500.0 ** (i / 23) for i in range(24)]
SHORT_TABLE = {"kind": "tabulated-generic", "s": _S, "f": [s * s for s in _S]}


@pytest.mark.parametrize("raw,verdict", [
    (README_48, "Converged"),
    (dict(README_48, eos=SHORT_TABLE), "LambdaBracketFail"),
], ids=["converged", "bracket-fail"])
def test_traced_counts_match_the_result(tmp_path, raw, verdict):
    # each iterate is evaluated once: one apply per iterate, one more for
    # the core's potential and, with a multiplier, one for the potential of
    # the written reconstruction
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    trace_dir, out = tmp_path / "trace", tmp_path / "run"
    trace_dir.mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_SOLVE, os.path.dirname(LAYERTRACE),
         str(trace_dir), str(config), str(out)],
        capture_output=True, text=True,
        env=dict(os.environ, COREQUILIB_THREADS="1"),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads((out / "result.json").read_text())
    assert result["verdict"] == verdict
    spans, counts, _ = _TRACER.load(str(trace_dir))
    calls = collections.Counter(name for _, name, *_ in spans)
    assert calls["solver.scf_step"] == result["iterations"]
    assert counts["solver.mass_evals"] == result["mass_evals"]
    written = 0 if result["lambda"] is None else 1
    assert calls["potential.apply"] == result["iterations"] + 2 + written
