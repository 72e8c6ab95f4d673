"""Self-consistent-field iteration for the constrained equilibrium problem.

One step of the scheme: evaluate the total potential of the current density,
find the multiplier that makes the density reconstructed through the
inverse enthalpy (with its cutoff at non-positive argument) carry the right
mass (safeguarded Newton on a bracket read off the potential, warm-started
from the previous multiplier, see ``solve_lambda``), mix that density with
Anderson's method (``AndersonMixer``), and renormalize the mass.  Fixed
points of the map are exactly the discrete equilibria.

Failure modes are data, not exceptions: the returned ``Outcome`` carries one
of the verdicts Converged / MassRunoff / LambdaBracketFail / IterationCap.
Run-off (the reconstructed density piling against the outer boundary for
three consecutive iterations) and bracket failure (no multiplier can hold
the requested mass) are the numerical signatures of the parameter regime
where no equilibrium exists.
"""

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .field import (
    DensityField,
    GridError,
    boundary_mass_exceeds,
    read_field_csv,
    rescale_to_mass,
    support_extent,
    total_mass,
)
from .potential import Environment
from .energy import (
    energy_with_potential,
    multiplier_bound_check,
    residual_with_potential,
)

GUESS_KINDS = ("gaussian-blob", "uniform-shell", "from-file")
VERDICTS = ("Converged", "MassRunoff", "LambdaBracketFail", "IterationCap")


class LambdaBracketError(RuntimeError):
    """No multiplier the EOS can represent holds the requested mass."""

    #: ``mass_of_lambda`` calls the failed solve made
    evals = 0


def _bracket_error(message, evals):
    err = LambdaBracketError(message)
    err.evals = evals
    return err


class MassDriftError(RuntimeError):
    """Mass renormalization left an iterate off the requested mass."""


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
    """Everything that defines one equilibrium problem."""

    eos: object
    grid: object
    core: object
    mu: float
    rotation: object
    mass: float
    initial_guess: InitialGuess = dc_field(default_factory=InitialGuess)

    def __post_init__(self):
        if not self.mass > 0.0:
            raise ValueError("total mass must be positive")
        if self.mu < 0.0:
            raise ValueError("core strength mu must be non-negative")


@dataclass(frozen=True)
class ScfConfig:
    """Iteration controls; the defaults are the tested operating point.

    The field names are the keys of a config's ``solver`` section, and the
    messages of the checks below name them.
    """

    alpha: float = 0.5
    tol_density: float = 1e-8
    tol_residual: float = 1e-3
    max_iter: int = 500
    mass_tol: float = 1e-10
    runoff_fraction: float = 0.05
    runoff_margin_cells: int = 2

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        for name in ("tol_density", "tol_residual", "mass_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError("%s must be positive" % name)
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 0.0 < self.runoff_fraction < 1.0:
            raise ValueError("runoff_fraction must be in (0, 1)")
        if self.runoff_margin_cells < 1:
            raise ValueError("runoff_margin_cells must be >= 1")


@dataclass
class ScfState:
    """One iterate: the density plus the step's byproducts.

    ``energy`` and ``residual`` describe the density the step started from
    (its potential is what the step computed), and so do ``runoff``,
    whether the density reconstructed from that potential holds more than
    ``runoff_fraction`` of the mass in the boundary margin, and
    ``mass_evals``, the ``mass_of_lambda`` calls the multiplier took;
    ``rho`` and ``update_norm`` describe where it landed.
    """

    iteration: int
    rho: DensityField
    lam: Optional[float]
    update_norm: Optional[float]
    energy: object
    residual: object
    mass_err: Optional[float]
    runoff: bool = False
    mass_evals: int = 0


@dataclass
class Outcome:
    verdict: str
    state: ScfState
    d_r: float
    d_z: float
    bound_check: object          # BoundCheck for converged constant rotation
    # rows (iteration, lambda, energy_total, update_norm); trace.csv is
    # their only copy on disk
    trace: list
    mass_err_max: float
    mass_evals: int = 0          # mass_of_lambda calls, final re-solve included
    history_resets: int = 0      # clears of the Anderson history
    retried: bool = False


def mass_of_lambda(phi_tot, lam, eos, mask, grid, slope=False):
    """Mass of the density reconstructed at multiplier ``lam``.

    The density is the inverse enthalpy of ``phi_tot + lam``, with the core
    cells held at enthalpy -1.  It is continuous and non-decreasing in
    ``lam``, because the inverse enthalpy is; that is what lets
    ``solve_lambda`` bracket its root.  With ``slope=True`` the result is
    ``(mass, dmass/dlam, rho)``: the slope is ``sum(vol * drho/dh)`` over
    the cells with ``h > 0``, taken from the density ``rho`` this call has
    inverted.
    """
    h = phi_tot + lam
    if mask is not None:
        # keep core cells out of the inversion so a bounded EOS table is
        # not asked about enthalpies it will never see in the gas region
        h = np.where(mask, -1.0, h)
    rho = eos.enthalpy_inverse(h)
    mass = float(np.sum(rho * grid.vol))
    if not slope:
        return mass
    return mass, float(np.sum(eos.density_slope(rho, h) * grid.vol)), rho


def solve_lambda(phi_tot, mass, eos, mask, grid, mass_tol, lam0=None):
    """Multiplier at which the reconstructed density carries ``mass``.

    Returns ``(lam, rho, evals)``: a multiplier that reconstructs ``mass``
    to ``mass_tol`` relative, the density reconstructed there, and the
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
    caller reports as the bracket-failure verdict.
    """
    gas, vol = phi_tot, np.broadcast_to(grid.vol, phi_tot.shape)
    if mask is not None:
        gas, vol = gas[~mask], vol[~mask]
    phi_max = float(np.max(gas))
    mean_h = float(eos.enthalpy(mass / float(np.sum(vol))))
    lo = -phi_max
    hi = min(mean_h - float(np.min(gas)), eos.h_max - phi_max)
    hi_known = False  # whether the mass at hi is known to reach ``mass``
    tol = mass_tol * mass
    lam = lam0 if lam0 is not None and lo < lam0 < hi else hi
    evals = 0
    while True:
        got, slope, rho = mass_of_lambda(
            phi_tot, lam, eos, mask, grid, slope=True
        )
        evals += 1
        excess = got - mass
        if abs(excess) <= tol:
            return lam, rho, evals
        if excess > 0.0:
            hi, hi_known = lam, True
        elif lam == hi:
            raise _bracket_error(
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
                raise _bracket_error("multiplier root misses mass_tol", evals)


def initial_field(spec, mask):
    """Build the configured initial guess, masked and scaled to the mass."""
    grid = spec.grid
    guess = spec.initial_guess
    if guess.kind == "from-file":
        fld = read_field_csv(guess.path, grid, mask)
        return rescale_to_mass(fld, spec.mass)
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
    return rescale_to_mass(DensityField(grid, vals, mask), spec.mass)


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


def scf_step(state, spec, config, env, mixer=None):
    """Advance one iteration; see the module docstring for the scheme.

    ``mixer`` is the solve's ``AndersonMixer``; without one the step is the
    damped mix with ``beta = config.alpha``.
    """
    rho = state.rho
    grid = spec.grid

    b_rho = env.kernel.apply(rho.values)
    phi_tot = b_rho + env.J + env.phi_core
    lam, rho_hat, evals = solve_lambda(
        phi_tot, spec.mass, spec.eos, rho.mask, grid, config.mass_tol,
        state.lam,
    )

    if mixer is None:
        mixer = AndersonMixer(grid.vol, rho.values.shape, config.alpha)
    mixed = np.maximum(mixer.next_iterate(rho.values, rho_hat), 0.0)
    new_rho = rescale_to_mass(DensityField(grid, mixed, rho.mask), spec.mass)
    update_norm = float(
        np.sum(np.abs(new_rho.values - rho.values) * grid.vol)
    ) / spec.mass
    mass_err = abs(total_mass(new_rho) - spec.mass) / spec.mass

    report = energy_with_potential(rho, spec.eos, env, b_rho)
    resid = residual_with_potential(rho, lam, spec.eos, phi_tot)
    return ScfState(
        iteration=state.iteration + 1,
        rho=new_rho,
        lam=lam,
        update_norm=update_norm,
        energy=report,
        residual=resid,
        mass_err=mass_err,
        # judged on the reconstruction: the mixed iterate lags behind it
        runoff=boundary_mass_exceeds(
            DensityField(grid, rho_hat, rho.mask),
            config.runoff_margin_cells, config.runoff_fraction,
        ),
        mass_evals=evals,
    )


def _is_converged(state, config, eos):
    """Small update, and residuals small against ``max(|lambda|, <A'>)``.

    ``<A'>`` is the mass-weighted mean enthalpy of the iterate, so that a
    solve with ``lambda = 0`` can converge too.  On the converged cells of
    the acceptance sweep it stays below ``|lambda|``.
    """
    if state.update_norm is None or state.update_norm > config.tol_density:
        return False
    r = state.residual
    if r is None or r.eq_max is None or state.lam is None:
        return False
    rho = state.rho.values
    weights = rho * state.rho.grid.vol
    mean_h = float(np.sum(weights * eos.enthalpy(rho)) / np.sum(weights))
    tol = config.tol_residual * max(abs(state.lam), mean_h)
    if r.eq_max > tol:
        return False
    return r.ineq_violation is None or r.ineq_violation >= -tol


def solve(spec, config=None, threads=1):
    """Iterate to a verdict; never raises for physical failure modes.

    ``threads`` is the CPU budget of the potential kernel (``AxiKernel``);
    the outcome does not depend on it.
    """
    config = config if config is not None else ScfConfig()
    grid = spec.grid
    env = Environment.build(grid, spec.core, spec.mu, spec.rotation, threads)
    mask = spec.core.mask(grid)

    state = ScfState(0, initial_field(spec, mask), None, None, None, None, None)
    mixer = AndersonMixer(grid.vol, state.rho.values.shape, config.alpha)
    trace = []
    mass_errs = []
    mass_evals = 0
    runoff_streak = 0
    verdict = "IterationCap"

    for _ in range(config.max_iter):
        try:
            state = scf_step(state, spec, config, env, mixer)
        except LambdaBracketError as err:
            mass_evals += err.evals
            verdict = "LambdaBracketFail"
            break
        trace.append(
            (state.iteration, state.lam, state.energy.total, state.update_norm)
        )
        mass_errs.append(state.mass_err)
        mass_evals += state.mass_evals
        if state.mass_err > config.mass_tol:
            raise MassDriftError(
                "mass renormalization drifted to %g relative" % state.mass_err
            )

        if state.runoff:
            runoff_streak += 1
            if runoff_streak >= 3:
                verdict = "MassRunoff"
                break
        else:
            runoff_streak = 0

        if _is_converged(state, config, spec.eos):
            verdict = "Converged"
            break

    outcome = _finalize(verdict, state, spec, config, env, trace, mass_errs)
    outcome.mass_evals += mass_evals
    outcome.history_resets = mixer.resets
    return outcome


def _finalize(verdict, state, spec, config, env, trace, mass_errs):
    """Recompute diagnostics for the final field so the reported numbers are
    self-consistent (the in-loop statistics describe the previous iterate)."""
    rho = state.rho
    b_rho = env.kernel.apply(rho.values)
    phi_tot = b_rho + env.J + env.phi_core

    lam = state.lam
    evals = 0
    if verdict != "LambdaBracketFail":
        try:
            lam, _, evals = solve_lambda(
                phi_tot, spec.mass, spec.eos, rho.mask, spec.grid,
                config.mass_tol, state.lam,
            )
        except LambdaBracketError as err:
            evals = err.evals  # and keep the last in-loop multiplier

    report = energy_with_potential(rho, spec.eos, env, b_rho)
    resid = None
    if lam is not None:
        resid = residual_with_potential(rho, lam, spec.eos, phi_tot)

    threshold = 1e-8 * float(np.max(rho.values)) if np.any(rho.values > 0) else 0.0
    d_r, d_z = support_extent(rho, threshold)

    bound = None
    if (
        verdict == "Converged"
        and spec.rotation.kind == "constant"
        and resid is not None
        and resid.eq_max is not None
    ):
        bound = multiplier_bound_check(lam, spec.rotation.omega, d_r, resid.eq_max)

    final = ScfState(
        iteration=state.iteration,
        rho=rho,
        lam=lam,
        update_norm=state.update_norm,
        energy=report,
        residual=resid,
        mass_err=state.mass_err,
    )
    return Outcome(
        verdict=verdict,
        state=final,
        d_r=d_r,
        d_z=d_z,
        bound_check=bound,
        trace=trace,
        mass_err_max=float(np.max(mass_errs)) if mass_errs else None,
        mass_evals=evals,
    )


def outcome_to_dict(outcome):
    """JSON-ready view of an outcome (plain floats, fixed keys, no arrays).

    Each number appears once; ``schema_version`` counts the changes of this
    layout.
    """
    state = outcome.state
    bound = outcome.bound_check
    resid = state.residual
    return {
        "schema_version": 4,
        "verdict": outcome.verdict,
        "lambda": state.lam,
        "iterations": state.iteration,
        "retried": outcome.retried,
        "mass_err_max": outcome.mass_err_max,
        "mass_evals": outcome.mass_evals,
        "history_resets": outcome.history_resets,
        "energy": {
            "internal": state.energy.internal,
            "self_gravity": state.energy.self_gravity,
            "rotation": state.energy.rotation,
            "core": state.energy.core,
            "total": state.energy.total,
        },
        "support": {"d_r": outcome.d_r, "d_z": outcome.d_z},
        "multiplier_bound": None if bound is None else {
            "passed": bound.passed,
            "bound": bound.bound,
            "slack": bound.slack,
            "margin": bound.margin,
        },
        "diagnostics": {
            "el_residual_max": None if resid is None else resid.eq_max,
            "el_residual_mean": None if resid is None else resid.eq_mean,
            "ineq_violation": None if resid is None else resid.ineq_violation,
        },
    }
