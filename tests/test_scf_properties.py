"""Property tests of one SCF step on random small problems.

Hypothesis draws a grid of 8 to 16 cells a side, a polytrope with gamma in
(4/3, 3], a constant rotation, a spheroidal core with a random density and
strength, a damping factor, and an iterate made of Gaussian blobs.  The
iterate is evaluated (``solver.evaluate``) and stepped once with a fresh
Anderson mixer (``scf_step``).  The step must:

* keep the mass to ``solver.MASS_TOL``;
* keep the density non-negative, and exactly zero on the core's cells;
* map an iterate that is symmetric about the equator to one that is
  symmetric within 1e-12 of its largest density.
"""

import numpy as np
from hypothesis import assume, given, strategies as st

import corequilib as cq

seeds = st.integers(0, 2**32 - 1)


@st.composite
def problems(draw):
    """A small problem with a core and an unconverged iterate of its mass."""
    grid = cq.CylGrid(
        draw(st.floats(1.0, 3.0)), draw(st.floats(1.0, 3.0)),
        draw(st.integers(8, 16)), draw(st.integers(8, 16)),
    )
    a_r = draw(st.floats(0.05, 0.4)) * grid.r_max
    a_z = draw(st.floats(0.05, 0.4)) * grid.z_max
    core = cq.CoreRegion.spheroid(a_r, a_z, draw(st.floats(0.0, 20.0)))
    # ProblemSpec refuses a dense core that covers no cell centre
    assume(core.rho_core == 0.0 or core.mask(grid).any())
    spec = cq.ProblemSpec(
        eos=cq.Polytrope(
            draw(st.floats(0.2, 5.0)),
            draw(st.floats(4.0 / 3.0, 3.0, exclude_min=True)),
        ),
        grid=grid,
        core=core,
        mu=draw(st.floats(0.0, 10.0)),
        rotation=cq.RotationLaw.constant(draw(st.floats(0.0, 1.5))),
        mass=draw(st.floats(0.2, 5.0)),
    )
    config = cq.ScfConfig(alpha=draw(st.floats(0.05, 1.0)))
    blob = cq.random_blob_field(grid, np.random.default_rng(draw(seeds))).values
    return spec, config, blob


def step_once(spec, config, values):
    """The iterate ``values`` scaled to the mass, and its successor."""
    mask = spec.core.mask(spec.grid)
    rho = cq.rescale_to_mass(cq.DensityField(spec.grid, values, mask), spec.mass)
    env = cq.Environment.build(spec)
    state = cq.solver.evaluate(rho, spec, env)
    assume(state.lam is not None)
    mixer = cq.solver.AndersonMixer(spec.grid.vol, values.shape, config.alpha)
    return mask, cq.scf_step(state, spec, env, mixer)


@given(problem=problems())
def test_step_keeps_the_mass_and_the_sign(problem):
    spec, config, blob = problem
    mask, nxt = step_once(spec, config, blob)
    assert nxt.mass_err <= cq.solver.MASS_TOL
    assert abs(cq.total_mass(nxt.rho) - spec.mass) <= cq.solver.MASS_TOL * spec.mass
    assert np.all(nxt.rho.values >= 0.0)
    assert np.all(nxt.rho.values[mask] == 0.0)


@given(problem=problems())
def test_step_keeps_equator_symmetry(problem):
    spec, config, blob = problem
    _, nxt = step_once(spec, config, blob + blob[:, ::-1])
    rho = nxt.rho.values
    assert np.max(np.abs(rho - rho[:, ::-1])) <= 1e-12 * np.max(rho)
