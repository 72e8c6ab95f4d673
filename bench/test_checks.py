"""Tests of the benchmark's output checks.

Run from the root of the checkout:

    python3 -m pytest -q bench/test_checks.py

The checks must accept what the program writes for a real equilibrium and
reject each kind of damage: a perturbed density, a wrong mass, an
asymmetric field, gas in the core, a wrong multiplier and a sweep whose
phase structure is broken.
"""

import json
import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from corequilib import cli  # noqa: E402
from corequilib.potential import AxiKernel  # noqa: E402
from corequilib.field import CylGrid  # noqa: E402

ENTHALPY = checks.polytrope_enthalpy(1.0, 2.0)
PROBLEM = {
    "eos": {"kind": "polytrope", "k": 1.0, "gamma": 2.0},
    "grid": {"r_max": 2.0, "z_max": 2.0, "n_r": 32, "n_z": 32},
    "core": {"a_r": 0.2, "a_z": 0.2, "rho": 10.0, "mu": 1.0},
    "rotation": {"kind": "constant", "omega": 0.4},
    "solver": {"mass": 1.0},
}
SWEEP = dict(PROBLEM, core=dict(PROBLEM["core"], mu=0.0),
             scan={"omega_values": [0.0, 1.0], "mu_values": [0.0, 100.0]})
del SWEEP["rotation"]


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """A serial CLI scan of a 2 x 2 sweep; one cell runs off and is retried."""
    base = tmp_path_factory.mktemp("scan")
    config = base / "config.json"
    config.write_text(json.dumps(SWEEP))
    out = base / "out"
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COREQUILIB_THREADS", "1")
        assert cli.main(["scan", "--config", str(config), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """A converged CLI solve of a small README-like problem."""
    base = tmp_path_factory.mktemp("solve")
    config = base / "config.json"
    config.write_text(json.dumps(PROBLEM))
    out = base / "out"
    assert cli.main(["solve", "--config", str(config), "--out", str(out)]) == 0
    return out


def _rewrite(src, dst, rho=None, result=None):
    """Copy a solve or cell directory, optionally replacing its density or result."""
    shutil.copytree(src, dst)
    if rho is not None:
        data = np.loadtxt(dst / "field.csv", delimiter=",", skiprows=1)
        data[:, 2] = rho.ravel()
        np.savetxt(dst / "field.csv", data, delimiter=",", fmt="%.17g",
                   header="r,z,rho", comments="")
    if result is not None:
        (dst / "result.json").write_text(json.dumps(result))
    return dst


def _load(out):
    eff = json.loads((out / "effective_config.json").read_text())
    grid = checks.Grid(eff)
    return eff, grid, checks.read_field(out / "field.csv", grid)


def test_direct_summation_matches_the_program_kernel():
    grid = CylGrid(1.5, 1.0, 20, 24)
    rng = np.random.default_rng(7)
    rho = rng.uniform(0.0, 1.0, (20, 24))
    program = AxiKernel(grid).apply(rho)
    mine = checks.Grid({"grid": {"r_max": 1.5, "z_max": 1.0, "n_r": 20, "n_z": 24}})
    cells = [(i, j) for i in range(20) for j in range(24)]
    direct = checks.ring_potential(rho, mine, cells).reshape(20, 24)
    assert np.max(np.abs(direct - program) / np.abs(program)) < 1e-12


def test_direct_summation_of_a_uniform_ball():
    """Outside a uniform ball the potential is M / distance."""
    eff = {"grid": {"r_max": 1.0, "z_max": 1.0, "n_r": 64, "n_z": 64}}
    grid = checks.Grid(eff)
    radius = np.hypot(grid.r[:, None], grid.z[None, :])
    rho = np.where(radius <= 0.3, 1.0, 0.0)
    mass = float(np.sum(rho * grid.vol))
    cells = [(60, 32), (40, 60), (10, 5)]
    phi = checks.ring_potential(rho, grid, cells)
    exact = np.array([mass / radius[c] for c in cells])
    assert np.max(np.abs(phi - exact) / exact) < 5e-3


def test_converged_solve_passes(solved):
    rng = np.random.default_rng(1)
    assert checks.check_solve(solved, ENTHALPY, rng, n_each=400) == []


def test_perturbed_field_is_rejected(solved, tmp_path):
    eff, grid, rho = _load(solved)
    peak = np.unravel_index(np.argmax(rho), rho.shape)
    bad = rho.copy()
    bad[peak] *= 1.01
    bad[peak[0], rho.shape[1] - 1 - peak[1]] *= 1.01  # keep the symmetry
    bad *= eff["solver"]["mass"] / float(np.sum(bad * grid.vol))
    out = _rewrite(solved, tmp_path / "perturbed", rho=bad)
    # with every cell sampled, the perturbed cell is among them
    problems = checks.check_solve(out, ENTHALPY, np.random.default_rng(1), n_each=2000)
    assert problems and all("residual" in p for p in problems)


def test_wrong_multiplier_is_rejected(solved, tmp_path):
    result = json.loads((solved / "result.json").read_text())
    result["lambda"] *= 1.01
    out = _rewrite(solved, tmp_path / "lambda", result=result)
    problems = checks.check_solve(out, ENTHALPY, np.random.default_rng(2), n_each=50)
    assert any("equilibrium residual" in p for p in problems)


def test_mass_symmetry_and_core_damage_is_rejected(solved):
    eff, grid, rho = _load(solved)
    assert checks.field_problems(rho, grid, eff, "ok") == []

    heavy = rho * (1.0 + 1e-8)
    assert any("mass" in p for p in checks.field_problems(heavy, grid, eff, "x"))

    tilted = rho.copy()
    i, j = np.unravel_index(np.argmax(rho), rho.shape)
    tilted[i, j] += 1e-9
    tilted[i, rho.shape[1] - 1 - j] -= 1e-9
    assert any("asymmetry" in p for p in checks.field_problems(tilted, grid, eff, "x"))

    cored = rho.copy()
    cored[np.argwhere(grid.core_mask(eff["core"]))[0][0], rho.shape[1] // 2] = 1e-3
    assert any("core" in p for p in checks.field_problems(cored, grid, eff, "x"))


def _table(rows):
    verdict, retried = {}, {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row.split()):
            verdict[(i, j)] = {"C": "Converged", "R": "MassRunoff"}[v]
            retried[(i, j)] = v == "R"
    return verdict, retried


def test_phase_structure():
    omegas, mus = [0.0, 0.5, 1.0], [0.0, 1.0, 10.0]
    good = _table(["C C C", "R C C", "R R C"])
    assert checks.phase_problems(omegas, mus, *good) == []

    lost = _table(["C C C", "R C R", "R R C"])
    assert any("loses convergence" in p
               for p in checks.phase_problems(omegas, mus, *lost))

    no_cut = _table(["C C C", "C C C", "C C C"])
    assert any("never loses" in p for p in checks.phase_problems(omegas, mus, *no_cut))

    verdict, retried = _table(["C C C", "R C C", "R R C"])
    retried[(2, 0)] = False
    assert any("not retried" in p
               for p in checks.phase_problems(omegas, mus, verdict, retried))


def test_scan_passes_and_a_damaged_cell_is_rejected(swept, tmp_path):
    problems, retries = checks.check_scan(
        swept, SWEEP, ENTHALPY, np.random.default_rng(3))
    assert problems == [] and retries == 1

    damaged = tmp_path / "damaged"
    shutil.copytree(swept, damaged)
    shutil.rmtree(damaged / "cell_01_01")
    _, _, rho = _load(swept / "cell_01_01")
    _rewrite(swept / "cell_01_01", damaged / "cell_01_01", rho=rho * 1.001)
    problems, _ = checks.check_scan(
        damaged, SWEEP, ENTHALPY, np.random.default_rng(3))
    assert any("cell_01_01: mass" in p for p in problems)
