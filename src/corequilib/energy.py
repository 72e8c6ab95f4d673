"""Variational energy, equilibrium residuals, and diagnostic checks.

The energy of an admissible density splits into four non-negative terms,

    total = internal - self_gravity - rotation - core,

where internal is the integral of A(rho), self_gravity is half the integral
of rho*B(rho), rotation integrates rho*J and core integrates rho against the
(mu-scaled) core potential.  A converged solver state makes the first
variation vanish on the gas support: the enthalpy A'(rho) matches the total
potential plus the multiplier there, and stays above it on the vacuum side.
The residual statistics here quantify both halves of that statement.
``conclude`` reads all of it off the density a solve reports.
"""

from dataclasses import dataclass

import numpy as np

from . import field as field_ops


@dataclass(frozen=True)
class EnergyReport:
    """The four energy terms and their signed total."""

    internal: float
    self_gravity: float
    rotation: float
    core: float
    total: float


def energy_with_potential(fld, eos, env, b_rho):
    """Energy terms of a density field, given its potential B(rho).

    ``env`` supplies the precomputed rotation and core potentials; see
    ``potential.Environment``.  ``b_rho`` is ``env.kernel.apply(fld.values)``
    or a sample the caller already holds.
    """
    vol = fld.grid.vol
    rho = fld.values
    internal = float(np.sum(eos.internal_energy(rho) * vol))
    self_grav = 0.5 * float(np.sum(rho * b_rho * vol))
    rotation = float(np.sum(rho * env.J * vol))
    core = float(np.sum(rho * env.phi_core * vol))
    return EnergyReport(
        internal=internal,
        self_gravity=self_grav,
        rotation=rotation,
        core=core,
        total=internal - self_grav - rotation - core,
    )


@dataclass(frozen=True)
class ResidualStats:
    """Equilibrium-relation residuals split by the support threshold.

    ``eq_max``/``eq_mean`` summarize |A'(rho) - potential - lambda| on cells
    above the threshold (None when the support is empty).  ``ineq_violation``
    is the most negative value of the same expression on the sub-threshold
    cells: the variational inequality wants it >= 0, so values below roughly
    -tolerance flag a broken solution.
    """

    eq_max: float
    eq_mean: float
    ineq_violation: float


def residual_with_potential(fld, lam, eos, phi_tot):
    """Residual statistics of the equilibrium relation at multiplier lam.

    ``phi_tot`` is the total potential B(rho) + J + core potential; the
    core cells, ``fld.mask``, are left out."""
    rho = fld.values
    threshold = field_ops.SUPPORT_REL * float(np.max(rho))
    gas = ~fld.mask
    resid = (eos.enthalpy(rho) - phi_tot - lam)[gas]
    rho = rho[gas]
    on = rho > threshold
    eq_max = eq_mean = None
    if np.any(on):
        eq_max = float(np.max(np.abs(resid[on])))
        eq_mean = float(np.mean(np.abs(resid[on])))
    off = ~on
    ineq = float(np.min(resid[off])) if np.any(off) else None
    return ResidualStats(eq_max, eq_mean, ineq)


@dataclass(frozen=True)
class BoundCheck:
    """Result of the rotational multiplier bound test."""

    passed: bool
    bound: float       # -Omega^2 d^2 / 2
    slack: float       # 3 * equality residual max
    margin: float      # bound + slack - lambda, >= 0 when passed


def multiplier_bound_check(lam, omega, d_r, eq_residual_max):
    """Check lambda <= -Omega^2 d^2 / 2 up to residual slack.

    At a genuine equilibrium the multiplier sits below the centrifugal
    potential at the outermost support radius d; discretization can only
    miss by a few residual widths, hence slack = 3 * eq_residual_max.
    """
    slack = 3.0 * float(eq_residual_max)
    bound = -0.5 * float(omega) ** 2 * float(d_r) ** 2
    margin = bound + slack - float(lam)
    return BoundCheck(margin >= 0.0, bound, slack, margin)


def conclude(state, spec, env, converged):
    """What a solve that ends at ``state`` writes and reports, as the
    keyword arguments of its ``Outcome``.

    With a multiplier that is ``state``'s reconstruction, exactly zero where
    ``phi_tot + lam <= 0`` and on the core, whose energy and residuals at
    ``lam`` come from its own potential, one more apply.  Without one it is
    the iterate, with its energy and no residuals.  The support extents are
    read at ``SUPPORT_REL`` of the peak; a ``converged`` solve with a
    multiplier under constant rotation also gets the multiplier bound.
    """
    if state.lam is None:
        rho, energy, resid = state.rho, state.energy, None
    else:
        rho = field_ops.DensityField(spec.grid, state.rho_hat, spec.mask)
        b_rho = env.kernel.apply(rho.values)
        energy = energy_with_potential(rho, spec.eos, env, b_rho)
        resid = residual_with_potential(
            rho, state.lam, spec.eos, b_rho + env.J + env.phi_core
        )
    threshold = field_ops.SUPPORT_REL * float(np.max(rho.values))
    d_r, d_z = field_ops.support_extent(rho, threshold)
    bound = None
    if converged and resid is not None and spec.rotation.kind == "constant":
        bound = multiplier_bound_check(
            state.lam, spec.rotation.omega, d_r, resid.eq_max
        )
    return dict(rho=rho, energy=energy, residual=resid, d_r=d_r, d_z=d_z,
                bound_check=bound)
