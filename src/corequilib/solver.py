"""Self-consistent-field iteration for the constrained equilibrium problem.

One step of the scheme: evaluate the total potential of the current density,
find the multiplier that makes the reconstructed density carry the right
mass (Brent's method on a bracket read off the potential, see
``solve_lambda``), reconstruct through the inverse enthalpy (with its cutoff
at non-positive argument), damp, and renormalize the mass.  Fixed points of
the map are exactly the discrete equilibria.

Failure modes are data, not exceptions: the returned ``Outcome`` carries one
of the verdicts Converged / MassRunoff / LambdaBracketFail / IterationCap.
Run-off (mass piling against the outer boundary for three consecutive
iterations) and bracket failure (no multiplier can hold the requested mass)
are the numerical signatures of the parameter regime where no equilibrium
exists.
"""

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np
from scipy.optimize import brentq

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
    (its potential is what the step computed); ``rho`` and ``update_norm``
    describe where it landed.
    """

    iteration: int
    rho: DensityField
    lam: Optional[float]
    update_norm: Optional[float]
    energy: object
    residual: object
    mass_err: Optional[float]


@dataclass
class Outcome:
    verdict: str
    state: ScfState
    d_r: float
    d_z: float
    bound_check: object          # BoundCheck for converged constant rotation
    trace: list                  # rows (iteration, lambda, energy_total, update_norm)
    mass_err_max: float
    retried: bool = False


def _reconstruct(phi_tot, lam, eos, mask):
    """Density whose enthalpy is ``phi_tot + lam``, cut off at zero."""
    h = phi_tot + lam
    if mask is not None:
        # keep core cells out of the inversion so a bounded EOS table is
        # not asked about enthalpies it will never see in the gas region
        h = np.where(mask, -1.0, h)
    return eos.enthalpy_inverse(h)


def mass_of_lambda(phi_tot, lam, eos, mask, grid):
    """Mass of the density reconstructed at multiplier ``lam``.

    Continuous and non-decreasing in ``lam``, because the inverse enthalpy
    is; that is what lets ``solve_lambda`` bracket its root.
    """
    return float(np.sum(_reconstruct(phi_tot, lam, eos, mask) * grid.vol))


def _mass_excess(lam, phi_tot, mass, eos, mask, grid):
    # module level, with the arrays in brentq's args: scipy wraps the
    # objective in a self-referencing closure, which would keep a closure's
    # phi_tot alive until the cyclic collector runs
    return mass_of_lambda(phi_tot, lam, eos, mask, grid) - mass


def solve_lambda(phi_tot, mass, eos, mask, grid, mass_tol):
    """Multiplier at which the reconstructed density carries ``mass``.

    Both ends of the bracket follow from the gas cells (those ``mask``
    leaves free) of volume ``V``:

    * ``lo = -max(phi)`` puts every gas enthalpy at or below zero, so the
      mass there is exactly 0;
    * ``hi = min(A'(mass / V) - min(phi), h_max - max(phi))``: the first
      term puts the density at or above ``mass / V`` in every gas cell, so
      the mass there is at least ``mass``; the second keeps every enthalpy
      inside a table EOS's range (a polytrope's ``h_max`` is infinite).

    ``hi`` is probed once.  If its mass falls short, the table ends before
    the enthalpy the mass needs and ``LambdaBracketError`` is raised, which
    the caller reports as the bracket-failure verdict.  Otherwise Brent's
    method finds the root on ``[lo, hi]``.  The returned multiplier
    reconstructs ``mass`` to ``mass_tol`` relative, or the call raises
    ``LambdaBracketError``.
    """
    gas, vol = phi_tot, np.broadcast_to(grid.vol, phi_tot.shape)
    if mask is not None:
        gas, vol = gas[~mask], vol[~mask]
    phi_max = float(np.max(gas))
    mean_h = float(eos.enthalpy(mass / float(np.sum(vol))))
    hi = min(mean_h - float(np.min(gas)), eos.h_max - phi_max)
    args = (phi_tot, mass, eos, mask, grid)
    excess = _mass_excess(hi, *args)
    if excess < -mass_tol * mass:
        raise LambdaBracketError(
            "EOS table ends at enthalpy %g, short of mass %g" % (eos.h_max, mass)
        )
    if excess <= mass_tol * mass:
        return hi
    # tolerances: 1e-13 absolute, relative at the floor scipy allows
    lam = brentq(_mass_excess, -phi_max, hi, args=args, xtol=1e-13,
                 rtol=4.0 * np.finfo(float).eps)
    if abs(_mass_excess(lam, *args)) > mass_tol * mass:
        raise LambdaBracketError("multiplier root misses mass_tol")
    return lam


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


def damped_mix(old_values, new_values, alpha):
    """Convex combination (1 - alpha) * old + alpha * new."""
    return (1.0 - alpha) * old_values + alpha * new_values


def scf_step(state, spec, config, env, alpha):
    """Advance one iteration; see the module docstring for the scheme."""
    rho = state.rho
    grid = spec.grid

    b_rho = env.kernel.apply(rho.values)
    phi_tot = b_rho + env.J + env.phi_core
    lam = solve_lambda(
        phi_tot, spec.mass, spec.eos, rho.mask, grid, config.mass_tol
    )
    rho_hat = _reconstruct(phi_tot, lam, spec.eos, rho.mask)

    mixed = DensityField(grid, damped_mix(rho.values, rho_hat, alpha), rho.mask)
    new_rho = rescale_to_mass(mixed, spec.mass)
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
    )


def _is_converged(state, config):
    if state.update_norm is None or state.update_norm > config.tol_density:
        return False
    r = state.residual
    if r is None or r.eq_max is None or state.lam is None:
        return False
    tol = config.tol_residual * abs(state.lam)
    if r.eq_max > tol:
        return False
    return r.ineq_violation is None or r.ineq_violation >= -tol


def solve(spec, config=None):
    """Iterate to a verdict; never raises for physical failure modes."""
    config = config if config is not None else ScfConfig()
    grid = spec.grid
    env = Environment.build(grid, spec.core, spec.mu, spec.rotation)
    mask = env.core.mask(grid)

    state = ScfState(0, initial_field(spec, mask), None, None, None, None, None)
    alpha = config.alpha
    trace = []
    mass_errs = []
    runoff_streak = 0
    rising_streak = 0
    prev_update = np.inf
    verdict = "IterationCap"

    for _ in range(config.max_iter):
        try:
            state = scf_step(state, spec, config, env, alpha)
        except LambdaBracketError:
            verdict = "LambdaBracketFail"
            break
        trace.append(
            (state.iteration, state.lam, state.energy.total, state.update_norm)
        )
        mass_errs.append(state.mass_err)
        if state.mass_err > config.mass_tol:
            raise MassDriftError(
                "mass renormalization drifted to %g relative" % state.mass_err
            )

        if boundary_mass_exceeds(
            state.rho, config.runoff_margin_cells, config.runoff_fraction
        ):
            runoff_streak += 1
            if runoff_streak >= 3:
                verdict = "MassRunoff"
                break
        else:
            runoff_streak = 0

        # oscillation guard: three rising update norms in a row halve the
        # damping (floor 0.05); undamped iteration rings near critical spin
        if state.update_norm > prev_update:
            rising_streak += 1
            if rising_streak >= 3:
                alpha = max(0.5 * alpha, 0.05)
                rising_streak = 0
        else:
            rising_streak = 0
        prev_update = state.update_norm

        if _is_converged(state, config):
            verdict = "Converged"
            break

    return _finalize(verdict, state, spec, config, env, trace, mass_errs)


def _finalize(verdict, state, spec, config, env, trace, mass_errs):
    """Recompute diagnostics for the final field so the reported numbers are
    self-consistent (the in-loop statistics describe the previous iterate)."""
    rho = state.rho
    b_rho = env.kernel.apply(rho.values)
    phi_tot = b_rho + env.J + env.phi_core

    lam = state.lam
    if verdict != "LambdaBracketFail":
        try:
            lam = solve_lambda(
                phi_tot, spec.mass, spec.eos, rho.mask, spec.grid,
                config.mass_tol,
            )
        except LambdaBracketError:
            pass  # keep the last in-loop multiplier

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
        "schema_version": 2,
        "verdict": outcome.verdict,
        "lambda": state.lam,
        "iterations": state.iteration,
        "retried": outcome.retried,
        "mass_err_max": outcome.mass_err_max,
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
        "trace": [
            {
                "iteration": it,
                "lambda": lam,
                "energy_total": e_tot,
                "update_norm": upd,
            }
            for (it, lam, e_tot, upd) in outcome.trace
        ],
    }
