"""Property tests of the multiplier solve on random grids and equations of state.

Hypothesis draws small grids (8 to 20 cells a side), a potential made by the
ring kernel from a few Gaussian blobs and shifted by a constant, the mask
of a core or of the empty core, and either a polytrope with gamma in (4/3, 3] or a
random admissible table (a sum of two power laws with exponents above 4/3,
sampled on a jittered log grid).  With ``lo = -max(phi_gas)`` and
``hi = min(A'(M / V_gas) - min(phi_gas), h_max - max(phi_gas))``:

* the mass is non-decreasing in the multiplier;
* it is exactly zero at ``lo``;
* ``solve_lambda`` returns a multiplier in ``[lo, hi]`` that reconstructs the
  mass to ``solver.MASS_TOL``, with the density reconstructed there, or raises
  ``LambdaBracketError``, and only when the table edge sets ``hi`` and
  cannot hold the mass; with or without a warm start, inside or outside
  ``[lo, hi]``;
* ``density_slope``, the Newton slope's ingredient, matches a central
  difference of ``enthalpy_inverse``.
"""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import corequilib as cq

MASS_TOL = cq.solver.MASS_TOL

grids = st.builds(
    cq.CylGrid,
    r_max=st.floats(0.5, 3.0),
    z_max=st.floats(0.5, 3.0),
    n_r=st.integers(8, 20),
    n_z=st.integers(8, 20),
)
seeds = st.integers(0, 2**32 - 1)
polytropes = st.builds(
    cq.Polytrope,
    k=st.floats(0.2, 5.0),
    gamma=st.floats(4.0 / 3.0, 3.0, exclude_min=True),
)


@st.composite
def tables(draw):
    """Admissible table: f = c1 s^g1 + c2 s^g2, both exponents above 4/3."""
    g1, g2 = (draw(st.floats(1.4, 3.0)) for _ in range(2))
    c1, c2 = (draw(st.floats(0.1, 3.0)) for _ in range(2))
    s_min = 10.0 ** draw(st.floats(-4.0, -2.0))
    s_max = 10.0 ** draw(st.floats(-1.0, 1.5))
    n = draw(st.integers(8, 32))
    u = np.linspace(np.log(s_min), np.log(s_max), n)
    rng = np.random.default_rng(draw(seeds))
    u[1:-1] += rng.uniform(-0.3, 0.3, n - 2) * (u[1] - u[0])
    s = np.exp(u)
    return cq.TabulatedEos(s, c1 * s**g1 + c2 * s**g2)


eoses = st.one_of(polytropes, tables())


@st.composite
def problems(draw):
    """(phi, mask, grid): a blob potential, and a core's mask or the empty
    core's."""
    grid = draw(grids)
    rng = np.random.default_rng(draw(seeds))
    blob = cq.random_blob_field(grid, rng).values
    phi = cq.AxiKernel(grid).apply(blob) + draw(st.floats(-2.0, 2.0))
    a = 0.0
    if draw(st.booleans()):
        a = draw(st.floats(0.1, 0.5)) * min(grid.r_max, grid.z_max)
    mask = cq.CoreRegion.spheroid(a, a, 0.0).mask(grid)
    return phi, mask, grid


def gas_cells(phi, mask, grid):
    """Potential and volume of the cells the mask leaves free."""
    return phi[~mask], np.broadcast_to(grid.vol, phi.shape)[~mask]


def bracket(phi, mass, eos, mask, grid):
    """(lo, hi, whether the table edge sets hi)."""
    gas, vol = gas_cells(phi, mask, grid)
    by_density = float(eos.enthalpy(mass / float(np.sum(vol)))) - gas.min()
    by_table = eos.h_max - gas.max()
    return -gas.max(), min(by_density, by_table), by_table < by_density


@given(problem=problems(), eos=eoses, ts=st.lists(st.floats(0.0, 1.0), max_size=12))
def test_mass_is_non_decreasing_in_lambda(problem, eos, ts):
    phi, mask, grid = problem
    gas, _ = gas_cells(phi, mask, grid)
    lo = -gas.max()
    # up to the top of a table's range, or 3 above lo for a polytrope
    top = min(eos.h_max, 3.0) - gas.max()
    lams = sorted(set([lo - 1.0, lo, top] + [lo + t * (top - lo) for t in ts]))
    masses = [cq.mass_of_lambda(phi, lam, eos, mask, grid)[0] for lam in lams]
    assert all(b >= a for a, b in zip(masses, masses[1:]))


@given(problem=problems(), eos=eoses)
def test_mass_is_zero_at_minus_the_largest_gas_potential(problem, eos):
    phi, mask, grid = problem
    gas, _ = gas_cells(phi, mask, grid)
    assert cq.mass_of_lambda(phi, -float(gas.max()), eos, mask, grid)[0] == 0.0


@given(
    problem=problems(),
    eos=eoses,
    scale=st.floats(-3.0, 1.0),
    start=st.one_of(st.none(), st.floats(-1.0, 2.0)),
)
def test_solve_lambda_meets_mass_tol_inside_the_bracket(problem, eos, scale, start):
    phi, mask, grid = problem
    gas, vol = gas_cells(phi, mask, grid)
    # the most mass the EOS can hold on this potential (infinite for a
    # polytrope), so that tables are asked for more than they hold at times
    cap = np.inf
    if np.isfinite(eos.h_max):
        cap = cq.mass_of_lambda(phi, eos.h_max - gas.max(), eos, mask, grid)[0]
        mass = cap * 10.0**scale
    else:
        mass = float(np.sum(vol)) * 10.0**scale
    lo, hi, table_sets_hi = bracket(phi, mass, eos, mask, grid)
    # a warm start at lo + start (hi - lo): inside the bracket for start in
    # (0, 1), outside it otherwise
    lam0 = None if start is None else lo + start * (hi - lo)
    try:
        lam, rho, evals = cq.solve_lambda(phi, mass, eos, mask, grid, lam0)
    except cq.LambdaBracketError:
        assert table_sets_hi
        assert cap < mass * (1.0 - MASS_TOL)
        return
    assert lo <= lam <= hi
    assert evals >= 1
    got = cq.mass_of_lambda(phi, lam, eos, mask, grid)[0]
    assert got == pytest.approx(mass, rel=MASS_TOL, abs=0.0)
    # the returned density is the one reconstructed at lam
    assert float(np.sum(rho * grid.vol)) == got


@given(eos=eoses, t=st.floats(0.0, 1.0))
def test_density_slope_matches_a_central_difference(eos, t):
    # a density from a tenth of a table's first sample to half its last,
    # so that h +- eps stays inside its range (0.01 to 10 for a polytrope)
    lo, hi = 0.01, 10.0
    if np.isfinite(eos.h_max):
        lo, hi = eos.s_min / 10.0, eos.s_max / 2.0
    h = float(eos.enthalpy(lo * (hi / lo) ** t))
    eps = 1e-5 * h
    # the slope of a table jumps where its power-law head meets the table
    assume(not h - eps <= getattr(eos, "h_min", -1.0) <= h + eps)
    rho = eos.enthalpy_inverse(np.array([h]))
    got = eos.density_slope(rho, np.array([h]))[0]
    diff = (eos.enthalpy_inverse(h + eps) - eos.enthalpy_inverse(h - eps)) / (2.0 * eps)
    assert got == pytest.approx(diff, rel=1e-5)
    # no density, no slope, below the cutoff
    assert eos.density_slope(np.zeros(1), np.array([-h]))[0] == 0.0
