"""Self-consistent-field iteration for the constrained equilibrium problem.

An iterate is a density array on its problem's grid, zero on the core
(``ProblemSpec``).  Each is evaluated once (``evaluate``): its total
potential, the multiplier that makes the density reconstructed through the
inverse enthalpy (with its cutoff at non-positive argument) carry the right
mass (safeguarded Newton on a bracket read off the potential, warm-started
from the previous iterate's multiplier, see ``solve_lambda``), and its
energy; its residuals only once a step from it is small enough to end the
solve.  One step (``scf_step``) mixes the iterate with its reconstruction by
Anderson's method (``AndersonMixer``), renormalizes the mass and evaluates
the result.  Fixed points of the map are exactly the discrete equilibria.
A solve reports its last iterate's reconstruction (``energy.conclude``).

Failure modes are data, not exceptions: the returned ``Outcome`` carries one
of the verdicts Converged / MassRunoff / LambdaBracketFail / IterationCap.
Run-off (the reconstructed density piling against the outer boundary for
three consecutive iterations, by ``RUNOFF_FRACTION`` and
``RUNOFF_MARGIN_CELLS``) and bracket failure (the EOS table ends short of
the enthalpy the requested mass needs) are the numerical signatures of the
parameter regime where no equilibrium exists.  A mass that cannot be held
to ``MASS_TOL`` is a numerical failure, ``MassDriftError``, not a verdict.
"""

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .field import (
    GridError,
    boundary_mass_exceeds,
    read_field_csv,
    rescale_to_mass,
    total_mass,
)
from .eos import EosInversionError, QuadratureError
from .potential import Environment
from .energy import conclude, energy_with_potential, residual_with_potential

GUESS_KINDS = ("gaussian-blob", "uniform-shell", "from-file")

#: relative mass error allowed of an iterate and of the density its
#: multiplier reconstructs; missing it raises ``MassDriftError``
MASS_TOL = 1e-10
#: ``MassRunoff`` is three consecutive reconstructions that each hold more
#: than ``RUNOFF_FRACTION`` of the mass in the boundary margin, the
#: ``RUNOFF_MARGIN_CELLS`` outermost cells on each side
#: (``boundary_mass_exceeds``)
RUNOFF_FRACTION = 0.05
RUNOFF_MARGIN_CELLS = 2


class LambdaBracketError(RuntimeError):
    """The EOS table ends before the enthalpy the requested mass needs."""

    def __init__(self, message, evals):
        super().__init__(message)
        self.evals = evals  # mass_of_lambda calls the failed solve made


class MassDriftError(RuntimeError):
    """A density is off the requested mass by more than ``MASS_TOL``: mass
    renormalization left an iterate off it, or the multiplier's bracket
    collapsed before its reconstruction reached it."""


#: numeric failures of a solve besides a ValueError (not a ConfigError): the
#: CLI reports them as numeric errors, and a scan as a failed cell
NUMERIC_ERRORS = (
    QuadratureError, EosInversionError, MassDriftError, FloatingPointError,
)


@dataclass(frozen=True)
class InitialGuess:
    kind: str = "gaussian-blob"
    path: Optional[str] = None

    def __post_init__(self):
        if self.kind not in GUESS_KINDS:
            raise ValueError("unknown initial guess kind %r" % (self.kind,))
        if self.kind == "from-file" and not self.path:
            raise ValueError("from-file initial guess needs a path")


@dataclass
class ProblemSpec:
    """Everything that defines one equilibrium problem, checked as a whole.

    The core must fit the grid and, if dense, cover a cell centre; a
    rotation profile must reach the grid's edge, and a constant rotation's
    J must stay a finite float there.  What those checks derive is kept:
    ``mask``, the core's cells, and ``J``, the centrifugal potential of
    shape ``(n_r, 1)``, per radius.  Every density of the problem is an
    array on ``grid``, zero on ``mask``: the initial guess too, built here,
    once, into ``guess_field`` (``initial_field``), so that one that cannot
    be built, such as a file that does not fit the grid, fails where the
    problem is built.
    """

    eos: object
    grid: object
    core: object
    mu: float
    rotation: object
    mass: float
    initial_guess: InitialGuess = dc_field(default_factory=InitialGuess)
    mask: np.ndarray = dc_field(init=False, repr=False, compare=False)
    J: np.ndarray = dc_field(init=False, repr=False, compare=False)
    guess_field: np.ndarray = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.mass > 0.0:
            raise ValueError("total mass must be positive")
        if self.mu < 0.0:
            raise ValueError("core strength mu must be non-negative")
        grid, self.mask = self.grid, self.core.mask(self.grid)
        if self.core.rho_core > 0.0 and not self.mask.any():
            raise ValueError(
                "core covers no cell centre of the %d x %d grid with r_max %g "
                "and z_max %g" % (grid.n_r, grid.n_z, grid.r_max, grid.z_max)
            )
        # J grows with r, so (omega r_max)**2 bounds it: checked in Python
        # floats, before numpy overflows
        if self.rotation.kind == "constant" and not math.isfinite(
                (self.rotation.omega * grid.r_max) ** 2):
            raise OverflowError("the centrifugal potential overflows a float")
        self.J = self.rotation.j_values(grid.r)[:, None]
        self.guess_field = initial_field(self)


@dataclass(frozen=True)
class ScfConfig:
    """Iteration controls; the defaults are the tested operating point.

    The field names are the keys of a config's ``solver`` section, and the
    messages of the checks below name them.  No field changes what a
    physical verdict means: ``MassRunoff`` and ``LambdaBracketFail`` are
    decided by the constants ``RUNOFF_FRACTION``, ``RUNOFF_MARGIN_CELLS``
    and ``MASS_TOL``.
    """

    alpha: float = 0.5
    tol_density: float = 1e-8
    tol_residual: float = 1e-3
    max_iter: int = 500

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        for name in ("tol_density", "tol_residual"):
            if not getattr(self, name) > 0.0:
                raise ValueError("%s must be positive" % name)
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class ScfState:
    """One iterate, the array ``rho``, and what evaluating it gives.

    ``phi_tot`` is ``rho``'s total potential.  ``lam`` is the multiplier at
    which the density reconstructed from it, ``rho_hat``, carries the mass;
    both are None when no multiplier can.  ``energy``, ``runoff`` (whether
    ``rho_hat`` holds more than ``RUNOFF_FRACTION`` of the mass in the
    boundary margin) and ``mass_evals`` (the ``mass_of_lambda`` calls the
    multiplier took) are ``rho``'s too, and so is ``mass_err``, its
    relative mass error.  ``update_norm`` is the step's change from the
    previous iterate, None for the initial guess.
    """

    iteration: int
    rho: np.ndarray
    update_norm: Optional[float]
    mass_err: Optional[float]
    phi_tot: np.ndarray
    lam: Optional[float]
    rho_hat: Optional[np.ndarray]
    energy: object
    runoff: bool
    mass_evals: int


@dataclass
class Outcome:
    """A solve's verdict, last iterate, and what it writes and reports."""

    verdict: str
    state: ScfState              # the last iterate
    grid: object                 # the problem's, which ``rho`` lives on
    # what is written and reported, as ``energy.conclude`` gives it
    rho: np.ndarray
    energy: object
    residual: object
    d_r: float
    d_z: float
    bound_check: object
    # row k is (k, lambda and energy_total of iterate k - 1, update_norm of
    # step k); trace.csv is their only copy on disk
    trace: list
    mass_err_max: float
    mass_evals: int = 0          # mass_of_lambda calls of every iterate
    history_resets: int = 0      # clears of the Anderson history
    retried: bool = False


def mass_of_lambda(phi_tot, lam, eos, mask, grid):
    """``(mass, dmass/dlam, rho)`` of the density reconstructed at ``lam``.

    The density ``rho`` is the inverse enthalpy of ``phi_tot + lam``, with
    the core cells held at enthalpy -1.  Its mass is continuous and
    non-decreasing in ``lam``, because the inverse enthalpy is; that is what
    lets ``solve_lambda`` bracket its root.  The slope is
    ``sum(vol * drho/dh)`` over the cells with ``h > 0``, taken from
    ``rho``.
    """
    # keep core cells out of the inversion so a bounded EOS table is not
    # asked about enthalpies it will never see in the gas region
    h = np.where(mask, -1.0, phi_tot + lam)
    rho = eos.enthalpy_inverse(h)
    mass = float(np.sum(rho * grid.vol))
    return mass, float(np.sum(eos.density_slope(rho, h) * grid.vol)), rho


def solve_lambda(phi_tot, mass, eos, mask, grid, lam0=None):
    """Multiplier at which the reconstructed density carries ``mass``.

    Returns ``(lam, rho, evals)``: a multiplier that reconstructs ``mass``
    to ``MASS_TOL`` relative, the density reconstructed there, and the
    number of ``mass_of_lambda`` calls it took.  Both ends of the bracket
    follow from the gas cells (those ``mask`` leaves free) of volume ``V``:

    * ``lo = -max(phi)`` puts every gas enthalpy at or below zero, so the
      mass there is exactly 0;
    * ``hi = min(A'(mass / V) - min(phi), h_max - max(phi))``: the first
      term puts the density at or above ``mass / V`` in every gas cell, so
      the mass there is at least ``mass``; the second keeps every enthalpy
      inside a table EOS's range (a polytrope's ``h_max`` is infinite).

    Newton's method starts from ``lam0`` (the previous SCF iteration's
    multiplier) when it lies inside the bracket, and from ``hi`` otherwise.
    Each evaluation shrinks the bracket, and a Newton step that leaves it is
    replaced by the midpoint.  ``hi`` is evaluated before the iteration
    relies on it: if its mass falls short, the table ends before the
    enthalpy the mass needs and ``LambdaBracketError`` is raised, which the
    caller reports as the bracket-failure verdict.  A bracket that
    collapses before the mass is met to ``MASS_TOL`` raises
    ``MassDriftError``.
    """
    gas, vol = phi_tot[~mask], np.broadcast_to(grid.vol, phi_tot.shape)[~mask]
    phi_max = float(np.max(gas))
    mean_h = float(eos.enthalpy(mass / float(np.sum(vol))))
    lo = -phi_max
    hi = min(mean_h - float(np.min(gas)), eos.h_max - phi_max)
    hi_known = False  # whether the mass at hi is known to reach ``mass``
    tol = MASS_TOL * mass
    lam = lam0 if lam0 is not None and lo < lam0 < hi else hi
    evals = 0
    while True:
        got, slope, rho = mass_of_lambda(phi_tot, lam, eos, mask, grid)
        evals += 1
        excess = got - mass
        if abs(excess) <= tol:
            return lam, rho, evals
        if excess > 0.0:
            hi, hi_known = lam, True
        elif lam == hi:
            raise LambdaBracketError(
                "EOS table ends at enthalpy %g, short of mass %g"
                % (eos.h_max, mass), evals,
            )
        else:
            lo = lam
        step = lam - excess / slope if slope > 0.0 else np.nan
        if lo < step < hi:
            lam = step
        elif step >= hi and not hi_known:
            lam = hi
        else:
            lam = 0.5 * (lo + hi)
            if not lo < lam < hi:
                raise MassDriftError(
                    "multiplier bracket collapsed at %r with the mass off by "
                    "%g relative" % (lam, abs(excess) / mass)
                )


def initial_field(spec):
    """Build the configured initial guess, masked and scaled to the mass."""
    grid, mask = spec.grid, spec.mask
    guess = spec.initial_guess
    if guess.kind == "from-file":
        return rescale_to_mass(read_field_csv(guess.path, grid, mask), grid, spec.mass)
    R, Z = grid.meshes()
    if guess.kind == "gaussian-blob":
        r0 = max(1.5 * spec.core.a_r, 0.2 * grid.r_max)
        sigma = 0.15 * grid.r_max
        vals = np.exp(-((R - r0) ** 2 + Z**2) / (2.0 * sigma**2))
    else:  # uniform-shell
        inner = 1.1 * max(spec.core.a_r, spec.core.a_z)
        outer = 0.5 * min(grid.r_max, grid.z_max)
        if outer <= inner:
            raise GridError(
                "uniform-shell guess does not fit between core and boundary"
            )
        s = np.sqrt(R**2 + Z**2)
        vals = ((s >= inner) & (s <= outer)).astype(float)
    return rescale_to_mass(np.where(mask, 0.0, vals), grid, spec.mass)


#: number of earlier iterates the Anderson mixer draws on
ANDERSON_DEPTH = 5


class AndersonMixer:
    """Anderson mixing of the SCF map (Anderson 1965; Walker & Ni 2011).

    ``next_iterate(x, g)`` takes the iterate ``x`` and its image
    ``g = rho_hat``, with residual ``f = g - x``, and returns
    ``x + beta f - (dX + beta dF) gamma``, where ``dX`` and ``dF`` hold the
    differences of the last ``ANDERSON_DEPTH`` iterates and residuals and
    ``gamma`` minimizes the volume-weighted norm of ``f - dF gamma``.  With
    no history it is the damped mix ``x + beta (g - x)``.

    The history is cleared whenever the residual norm rises: a near-critical
    iterate drifting towards the boundary must not be extrapolated further.
    ``resets`` counts the clears.  The differences live in two preallocated
    ``(ANDERSON_DEPTH, n_cells)`` ring buffers, and the small Gram matrix of
    ``dF`` is updated one row per iteration.
    """

    def __init__(self, vol, shape, beta):
        self.beta = beta
        self.resets = 0
        self._w = np.broadcast_to(vol, shape).ravel()
        self._dx = np.empty((ANDERSON_DEPTH, self._w.size))
        self._df = np.empty((ANDERSON_DEPTH, self._w.size))
        self._gram = np.empty((ANDERSON_DEPTH, ANDERSON_DEPTH))
        self._size = 0      # rows of the buffers in use
        self._slot = 0      # row the next difference goes to
        self._x = self._f = None
        self._norm = np.inf

    def next_iterate(self, x, g):
        x = np.ravel(x)
        f = np.ravel(g) - x
        wf = self._w * f
        norm = float(np.sum(wf * f))
        if self._x is not None:
            if norm > self._norm:
                self._size = self._slot = 0
                self.resets += 1
            else:
                self._push(x, f)
        self._x, self._f, self._norm = x, f, norm

        out = x + self.beta * f
        m = self._size
        if m:
            # no BLAS reductions here: a threaded dot product would make
            # the iterates depend on the thread count
            b = np.einsum("ij,j->i", self._df[:m], wf)
            gamma = np.linalg.lstsq(self._gram[:m, :m], b, rcond=None)[0]
            tmp = wf  # wf is not needed again: reuse it as the axpy buffer
            for i in range(m):
                np.multiply(self._dx[i], gamma[i], out=tmp)
                out -= tmp
                np.multiply(self._df[i], self.beta * gamma[i], out=tmp)
                out -= tmp
        return out.reshape(np.shape(g))

    def _push(self, x, f):
        """Add the differences from the last iterate as one history row."""
        k = self._slot
        np.subtract(x, self._x, out=self._dx[k])
        np.subtract(f, self._f, out=self._df[k])
        self._size = min(self._size + 1, len(self._dx))
        self._slot = (k + 1) % len(self._dx)
        m = self._size
        row = np.einsum("ij,j->i", self._df[:m], self._w * self._df[k])
        self._gram[k, :m] = row
        self._gram[:m, k] = row


def evaluate(rho, spec, env, prev=None):
    """The ``ScfState`` of iterate ``rho``, made by a step from ``prev``
    (None for the initial guess).

    One kernel apply, one multiplier solve warm-started from ``prev``'s
    multiplier and one energy call.  A ``LambdaBracketError`` leaves the
    state without ``lam`` and ``rho_hat``.
    """
    b_rho = env.kernel.apply(rho)
    phi_tot = b_rho + spec.J + env.phi_core
    try:
        lam, rho_hat, evals = solve_lambda(
            phi_tot, spec.mass, spec.eos, spec.mask, spec.grid,
            None if prev is None else prev.lam,
        )
    except LambdaBracketError as err:
        lam, rho_hat, evals = None, None, err.evals
    update_norm = None
    if prev is not None:
        update_norm = float(
            np.sum(np.abs(rho - prev.rho) * spec.grid.vol)
        ) / spec.mass
    return ScfState(
        iteration=0 if prev is None else prev.iteration + 1,
        rho=rho,
        update_norm=update_norm,
        mass_err=abs(total_mass(rho, spec.grid) - spec.mass) / spec.mass,
        phi_tot=phi_tot,
        lam=lam,
        rho_hat=rho_hat,
        energy=energy_with_potential(rho, spec, env, b_rho),
        # judged on the reconstruction: the mixed iterate lags behind it
        runoff=rho_hat is not None and boundary_mass_exceeds(
            rho_hat, spec.grid, RUNOFF_MARGIN_CELLS, RUNOFF_FRACTION
        ),
        mass_evals=evals,
    )


def scf_step(state, spec, env, mixer):
    """Advance one iteration from an evaluated ``state`` with a multiplier,
    mixing with the solve's ``AndersonMixer``; see the module docstring for
    the scheme."""
    mixed = mixer.next_iterate(state.rho, state.rho_hat)
    rho = rescale_to_mass(np.maximum(mixed, 0.0), spec.grid, spec.mass)
    return evaluate(rho, spec, env, state)


def _is_converged(prev, state, config, spec):
    """Whether the step from ``prev`` to ``state`` ends the solve.

    It does when the step's update is small and ``prev``'s residuals, only
    then computed from its kept potential, are small against
    ``max(|lambda|, <A'>)``.  ``<A'>`` is the mass-weighted mean enthalpy
    of ``state``'s density, so that a solve with ``lambda = 0`` can
    converge too.  On the converged cells of the acceptance sweep it stays
    below ``|lambda|``.  A density of positive mass always has a support.
    """
    if state.update_norm > config.tol_density:
        return False
    r = residual_with_potential(prev.rho, prev.lam, spec, prev.phi_tot)
    rho = state.rho
    weights = rho * spec.grid.vol
    mean_h = float(np.sum(weights * spec.eos.enthalpy(rho)) / np.sum(weights))
    tol = config.tol_residual * max(abs(prev.lam), mean_h)
    if r.eq_max > tol:
        return False
    return r.ineq_violation is None or r.ineq_violation >= -tol


def solve(spec, config=None):
    """Iterate to a verdict; never raises for physical failure modes.

    Each step's run-off and convergence tests read the run-off flag,
    potential and multiplier of the iterate the step started from, and the
    update norm and density of the one it made.
    """
    config = config if config is not None else ScfConfig()
    env = Environment.build(spec)
    state = evaluate(spec.guess_field, spec, env)
    mixer = AndersonMixer(spec.grid.vol, state.rho.shape, config.alpha)
    trace = []
    mass_errs = []
    mass_evals = state.mass_evals
    runoff_streak = 0
    verdict = "IterationCap"

    for _ in range(config.max_iter):
        if state.lam is None:
            verdict = "LambdaBracketFail"
            break
        # rebound first, so the state before prev is freed before the step
        prev = state
        state = scf_step(prev, spec, env, mixer)
        trace.append(
            (state.iteration, prev.lam, prev.energy.total, state.update_norm)
        )
        mass_errs.append(state.mass_err)
        mass_evals += state.mass_evals
        if state.mass_err > MASS_TOL:
            raise MassDriftError(
                "mass renormalization drifted to %g relative" % state.mass_err
            )

        runoff_streak = runoff_streak + 1 if prev.runoff else 0
        if runoff_streak >= 3:
            verdict = "MassRunoff"
            break
        if _is_converged(prev, state, config, spec):
            verdict = "Converged"
            break

    resets = mixer.resets
    # free the mixing history and the previous iterate before the last apply
    prev = mixer = None
    return Outcome(
        verdict=verdict,
        state=state,
        grid=spec.grid,
        **conclude(state, spec, env, verdict == "Converged"),
        trace=trace,
        mass_err_max=float(np.max(mass_errs)) if mass_errs else None,
        mass_evals=mass_evals,
        history_resets=resets,
    )
