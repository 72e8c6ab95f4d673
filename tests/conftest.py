"""Shared fixtures.

The expensive piece is a converged reference solve (nonrotating gamma = 2
configuration whose exact radius and central density are known from the
stellar-structure ODE).  It is computed once per session and reused by the
energy, residual, and solver tests.
"""

import os

import pytest
from hypothesis import settings

import corequilib as cq

# one bound for every property test: each example builds a kernel or a table
settings.register_profile("corequilib", max_examples=25, deadline=None)
settings.load_profile("corequilib")


@pytest.fixture(scope="session", autouse=True)
def src_on_subprocess_path():
    """Tests that run ``python -m corequilib`` in a subprocess import the
    package from src/, as this process does through pyproject's pythonpath."""
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield


@pytest.fixture(scope="session")
def le_problem():
    """Nonrotating gamma = 2 problem on a 48^2 grid with a tiny inert core."""
    grid = cq.CylGrid(2.0, 2.0, 48, 48)
    core = cq.CoreRegion.spheroid(0.02, 0.02, 0.0)
    return cq.ProblemSpec(
        eos=cq.Polytrope(1.0, 2.0),
        grid=grid,
        core=core,
        mu=0.0,
        rotation=cq.RotationLaw.constant(0.0),
        mass=1.0,
    )


@pytest.fixture(scope="session")
def le_outcome(le_problem):
    outcome = cq.solve(le_problem)
    assert outcome.verdict == "Converged"
    return outcome
