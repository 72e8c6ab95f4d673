"""Self-consistent-field iteration for the constrained equilibrium problem.

One step of the scheme: evaluate the total potential of the current density,
solve a 1-d bisection for the multiplier that makes the reconstructed density
carry the right mass, reconstruct through the inverse enthalpy (with its
cutoff at non-positive argument), damp, and renormalize the mass.  Fixed
points of the map are exactly the discrete equilibria.

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

from .eos import EosRangeError
from .field import (
    DensityField,
    GridError,
    boundary_mass_exceeds,
    read_field_csv,
    rescale_to_mass,
    support_extent,
    total_mass,
)
from .potential import Environment, kernel_for
from .energy import (
    energy_with_potential,
    multiplier_bound_check,
    residual_with_potential,
)

GUESS_KINDS = ("gaussian-blob", "uniform-shell", "from-file")
VERDICTS = ("Converged", "MassRunoff", "LambdaBracketFail", "IterationCap")


class LambdaBracketError(RuntimeError):
    """No multiplier in (or beyond) the bracket holds the requested mass."""


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
    lambda_bracket: tuple = (-10.0, 10.0)
    mass_tol: float = 1e-10
    runoff_fraction: float = 0.05
    runoff_margin_cells: int = 2

    def __post_init__(self):
        object.__setattr__(self, "lambda_bracket", tuple(self.lambda_bracket))
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        for name in ("tol_density", "tol_residual", "mass_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError("%s must be positive" % name)
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if len(self.lambda_bracket) != 2 or not (
            self.lambda_bracket[0] < self.lambda_bracket[1]
        ):
            raise ValueError("lambda_bracket must be [lo, hi] with lo < hi")
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

    Monotone non-decreasing and continuous in ``lam``; that is what makes
    the bisection in ``solve_lambda`` safe.
    """
    return float(np.sum(_reconstruct(phi_tot, lam, eos, mask) * grid.vol))


def solve_lambda(phi_tot, mass, eos, mask, grid, bracket, mass_tol):
    """Multiplier at which the reconstructed density carries ``mass``.

    The starting bracket is expanded geometrically (up to 60 doublings each
    way) until it straddles the target, then bisected until the mass matches
    to ``mass_tol`` relative.  A multiplier whose enthalpies run past the top
    of a table EOS counts as an upper bound, since the mass only grows with
    the multiplier.  ``LambdaBracketError`` means no representable
    multiplier holds that much mass, either because the potential well is
    too shallow or because a table EOS runs out of range, both of which the
    caller reports as the bracket-failure verdict.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    width = hi - lo

    def m_of(lam):
        try:
            return mass_of_lambda(phi_tot, lam, eos, mask, grid)
        except EosRangeError:
            return np.inf

    m_hi = m_of(hi)
    step = width
    for _ in range(60):
        if m_hi >= mass:
            break
        hi += step
        step *= 2.0
        m_hi = m_of(hi)
    else:
        raise LambdaBracketError(
            "no multiplier up to %g holds mass %g" % (hi, mass)
        )
    m_lo = m_of(lo)
    step = width
    for _ in range(60):
        if m_lo <= mass:
            break
        lo -= step
        step *= 2.0
        m_lo = m_of(lo)
    else:
        raise LambdaBracketError(
            "mass exceeds %g even at multiplier %g" % (mass, lo)
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        m_mid = m_of(mid)
        if abs(m_mid - mass) <= mass_tol * mass:
            return mid
        if m_mid < mass:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1.0, abs(mid)):
            break
    raise LambdaBracketError("multiplier bisection stalled before mass_tol")


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


def scf_step(state, spec, config, kernel, env=None, alpha=None):
    """Advance one iteration; see the module docstring for the scheme."""
    if env is None:
        env = Environment.build(
            spec.grid, spec.core, spec.mu, spec.rotation, kernel
        )
    if alpha is None:
        alpha = config.alpha
    rho = state.rho
    grid = spec.grid

    b_rho = kernel.apply(rho.values)
    phi_tot = b_rho + env.J + env.phi_core
    lam = solve_lambda(
        phi_tot, spec.mass, spec.eos, rho.mask, grid,
        config.lambda_bracket, config.mass_tol,
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
    kernel = kernel_for(grid)
    env = Environment.build(grid, spec.core, spec.mu, spec.rotation, kernel)
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
            state = scf_step(state, spec, config, kernel, env, alpha)
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

    return _finalize(verdict, state, spec, config, kernel, env, trace, mass_errs)


def _finalize(verdict, state, spec, config, kernel, env, trace, mass_errs):
    """Recompute diagnostics for the final field so the reported numbers are
    self-consistent (the in-loop statistics describe the previous iterate)."""
    rho = state.rho
    b_rho = kernel.apply(rho.values)
    phi_tot = b_rho + env.J + env.phi_core

    lam = state.lam
    if verdict != "LambdaBracketFail":
        try:
            lam = solve_lambda(
                phi_tot, spec.mass, spec.eos, rho.mask, spec.grid,
                config.lambda_bracket, config.mass_tol,
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
