"""Acceptance gate for the package.

Each test checks one acceptance criterion at its stated tolerance and prints
a single verdict line. Run with ``pytest tests/test_acceptance.py -s`` to see
the lines as they are produced. The expensive artifacts (the reference solve
and the rotation sweep) are produced once per session and shared.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

import corequilib as cq
from corequilib.energy import scaling_energy_curve
from corequilib.lane_emden import polytrope_structure
from corequilib.potential import ensemble_ratio_maxima, kernel_for


def report(num, ok, details):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} ({details})")
    assert ok, f"criterion {num} failed: {details}"


LE_CONFIG = {
    "eos": {"kind": "polytrope", "k": 1.0, "gamma": 2.0},
    "grid": {"r_max": 2.0, "z_max": 2.0, "n_r": 128, "n_z": 128},
    "core": {"a_r": 0.02, "a_z": 0.02, "rho": 0.0, "mu": 0.0},
    "rotation": {"kind": "constant", "omega": 0.0},
    "solver": {"mass": 1.0},
}

SCAN_CONFIG = {
    "eos": {"kind": "polytrope", "k": 1.0, "gamma": 2.0},
    "grid": {"r_max": 2.0, "z_max": 2.0, "n_r": 96, "n_z": 96},
    "core": {"a_r": 0.1, "a_z": 0.1, "rho": 10.0, "mu": 0.0},
    "solver": {"mass": 1.0},
    "scan": {
        "omega_values": [round(0.2 * i, 10) for i in range(11)],
        "mu_values": [0.0, 1.0, 10.0, 100.0],
    },
}


@pytest.fixture(scope="module")
def le_runs(tmp_path_factory):
    """Two identical CLI solves of the nonrotating reference configuration."""
    base = tmp_path_factory.mktemp("reference")
    cfg = base / "config.json"
    cfg.write_text(json.dumps(LE_CONFIG))
    dirs = []
    elapsed = []
    for name in ("run_a", "run_b"):
        out = base / name
        start = time.perf_counter()
        proc = subprocess.run(
            [
                sys.executable, "-m", "corequilib",
                "solve", "--config", str(cfg), "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        elapsed.append(time.perf_counter() - start)
        assert proc.returncode == 0, proc.stderr
        dirs.append(out)
    result = json.loads((dirs[0] / "result.json").read_text())
    return {"dirs": dirs, "result": result, "elapsed": elapsed}


@pytest.fixture(scope="module")
def scan_result(tmp_path_factory):
    eff = cq.effective_config(SCAN_CONFIG, need_scan=True)
    out = tmp_path_factory.mktemp("sweep")
    start = time.perf_counter()
    table = cq.run_scan(cq.ScanSpec.from_config(eff), out, budget=1)
    return table, time.perf_counter() - start


@pytest.fixture(scope="module")
def registry(le_runs, scan_result):
    """Every converged outcome produced by the acceptance runs."""
    entries = [("reference solve", le_runs["result"])]
    table, _ = scan_result
    for key in sorted(table.cells):
        rec = table.cells[key]
        if rec["outcome"]["verdict"] == "Converged":
            label = "scan omega=%g mu=%g" % (rec["omega"], rec["mu"])
            entries.append((label, rec["outcome"]))
    return entries


def test_criterion_1_uniform_ball_potential():
    a = 0.2
    rho0 = 1.0
    mass = 4.0 / 3.0 * np.pi * a**3 * rho0
    tolerances = {128: 0.02, 256: 0.006}
    details = []
    ok = True
    for n, tol in tolerances.items():
        grid = cq.CylGrid(1.0, 1.0, n, n)
        start = time.perf_counter()
        kernel = kernel_for(grid)
        radius = np.hypot(grid.r[:, None], grid.z[None, :])
        fld = cq.DensityField(grid, np.where(radius <= a, rho0, 0.0))
        phi = kernel.apply(fld.values)
        took = time.perf_counter() - start
        interior = mass * (3.0 * a**2 - radius**2) / (2.0 * a**3)
        exterior = mass / radius
        exact = np.where(radius <= a, interior, exterior)
        err = float(np.max(np.abs(phi - exact) / exact))
        details.append("%d^2: err %.3f%% in %.1fs" % (n, 100.0 * err, took))
        ok = ok and err <= tol and took <= 30.0
    report(1, ok, ", ".join(details))


def test_criterion_2_reference_structure(le_runs):
    result = le_runs["result"]
    structure = polytrope_structure(2.0, 1.0)
    rho_c = structure.central_density_for_mass(1.0)
    radius = structure.radius(rho_c)

    field = np.loadtxt(le_runs["dirs"][0] / "field.csv", delimiter=",", skiprows=1)
    rho_max = float(field[:, 2].max())

    rel_r = abs(result["support"]["d_r"] - radius) / radius
    rel_rho = abs(rho_max - rho_c) / rho_c
    took = max(le_runs["elapsed"])
    ok = (
        result["verdict"] == "Converged"
        and result["iterations"] <= 200
        and took <= 300.0
        and rel_r <= 0.03
        and rel_rho <= 0.03
    )
    report(
        2,
        ok,
        "%s in %d iters %.1fs, radius err %.2f%%, peak density err %.2f%%"
        % (result["verdict"], result["iterations"], took,
           100.0 * rel_r, 100.0 * rel_rho),
    )


def test_criterion_3_fixed_point_quality(registry):
    worst = 0.0
    ok = True
    for label, entry in registry:
        lam = entry["lambda"]
        scale = 1e-3 * abs(lam)
        eq_max = entry["diagnostics"]["el_residual_max"]
        ineq = entry["diagnostics"]["ineq_violation"]
        ok = ok and eq_max is not None and eq_max <= scale
        if ineq is not None:
            ok = ok and ineq >= -scale
        worst = max(worst, eq_max / scale)
    report(
        3,
        ok,
        "%d converged runs, worst equality residual %.2e of allowance"
        % (len(registry), worst),
    )


def test_criterion_4_mass_constraint(registry):
    worst = max(entry["mass_err_max"] for _, entry in registry)
    report(
        4,
        worst <= 1e-10,
        "largest per-iteration relative mass error %.2e over %d runs"
        % (worst, len(registry)),
    )


def test_criterion_5_multiplier_bounds(registry):
    ok = True
    min_margin = np.inf
    for label, entry in registry:
        bound = entry["multiplier_bound"]
        ok = ok and entry["lambda"] < 0.0 and bound is not None and bound["passed"]
        if bound is not None:
            min_margin = min(min_margin, bound["margin"])
    report(
        5,
        ok,
        "all %d converged multipliers negative, smallest bound margin %.3g"
        % (len(registry), min_margin),
    )


def test_criterion_6_phase_structure(scan_result):
    table, took = scan_result
    omegas = table.omega_values
    mus = table.mu_values

    def verdict(i, j):
        return table.cells[(i, j)]["outcome"]["verdict"]

    row0 = all(verdict(0, j) == "Converged" for j in range(len(mus)))

    assert mus[0] == 0.0
    column = [verdict(i, 0) for i in range(len(omegas))]
    failed = [i for i, v in enumerate(column) if v != "Converged"]
    has_cutoff = bool(failed)
    omega_star = omegas[min(failed)] if failed else None
    suffix = all(column[i] != "Converged" for i in range(min(failed), len(omegas))) if failed else False
    all_retried = all(
        table.cells[(i, 0)]["outcome"]["retried"] for i in failed
    ) if failed else False

    top = len(omegas) - 1
    top_recovers = any(verdict(top, j) == "Converged" for j in range(len(mus)))

    ok = row0 and has_cutoff and suffix and all_retried and top_recovers and took <= 1800.0
    report(
        6,
        ok,
        "omega=0 row converged, mu=0 column fails from omega=%s after retry, "
        "omega=%g recovers at larger mu, %.0fs"
        % (omega_star, omegas[top], took),
    )


def test_criterion_7_inequality_ensemble():
    maxima = {}
    for n in (64, 128):
        grid = cq.CylGrid(1.0, 1.0, n, n)
        maxima[n] = ensemble_ratio_maxima(grid, n_fields=100)
    coarse = np.array(maxima[64])
    fine = np.array(maxima[128])
    changes = np.abs(fine - coarse) / coarse
    ok = bool(np.all(np.isfinite(coarse)) and np.all(np.isfinite(fine))
              and np.all(changes <= 0.10))
    report(
        7,
        ok,
        "ratio maxima (%.4f, %.4f) -> (%.4f, %.4f), rel change (%.2g, %.2g)"
        % (*coarse, *fine, *changes),
    )


def test_criterion_8_scaling_curve():
    grid = cq.CylGrid(1.5, 1.5, 128, 128)
    radius = np.hypot(grid.r[:, None], grid.z[None, :])
    fld = cq.DensityField(grid, np.where(radius <= 0.08, 8.1e5, 0.0))
    eos = cq.Polytrope(1.0, 5.0 / 3.0)
    t_values = (4, 8, 16)
    curve = scaling_energy_curve(fld, eos, t_values)
    magnitudes = [abs(f) * t for f, t in zip(curve, t_values)]
    ok = all(f < 0.0 for f in curve) and all(
        b >= a for a, b in zip(magnitudes, magnitudes[1:])
    )
    report(
        8,
        ok,
        "F=(%.3g, %.3g, %.3g), |F|*t=(%.4g, %.4g, %.4g)"
        % (*curve, *magnitudes),
    )


def test_criterion_9_determinism(le_runs):
    run_a, run_b = le_runs["dirs"]
    same = all(
        (run_a / name).read_bytes() == (run_b / name).read_bytes()
        for name in ("result.json", "field.csv")
    )
    report(9, same, "result.json and field.csv bitwise identical across reruns")
