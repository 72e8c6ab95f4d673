"""Variational energy, equilibrium residuals, and diagnostic checks.

The energy of an admissible density splits into four non-negative terms,

    total = internal - self_gravity - rotation - core,

where internal is the integral of A(rho), self_gravity is half the integral
of rho*B(rho), rotation integrates rho*J and core integrates rho against the
(mu-scaled) core potential.  A converged solver state makes the first
variation vanish on the gas support: the enthalpy A'(rho) matches the total
potential plus the multiplier there, and stays above it on the vacuum side.
The residual statistics here quantify both halves of that statement.
"""

from dataclasses import dataclass

import numpy as np

from . import field as field_ops
from .field import DensityField
from .potential import kernel_for


class DilationRangeError(ValueError):
    """A dilated field would poke out of the grid."""


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
    above the threshold (None when the support is empty).  ``eq_mean_signed``
    keeps the sign, which is what moves when lambda is perturbed.
    ``ineq_violation`` is the most negative value of the same expression on
    the sub-threshold cells: the variational inequality wants it >= 0, so
    values below roughly -tolerance flag a broken solution.
    """

    eq_max: float
    eq_mean: float
    eq_mean_signed: float
    ineq_violation: float
    support_cells: int


def residual_with_potential(fld, lam, eos, phi_tot, threshold=None):
    """Residual statistics of the equilibrium relation at multiplier lam.

    ``phi_tot`` is the total potential B(rho) + J + core potential.
    """
    rho = fld.values
    if threshold is None:
        threshold = 1e-8 * float(np.max(rho))
    resid = eos.enthalpy(rho) - phi_tot - lam
    if fld.mask is not None:
        resid = resid[~fld.mask]
        rho = rho[~fld.mask]
    on = rho > threshold
    eq_max = eq_mean = eq_signed = None
    if np.any(on):
        eq_max = float(np.max(np.abs(resid[on])))
        eq_mean = float(np.mean(np.abs(resid[on])))
        eq_signed = float(np.mean(resid[on]))
    off = ~on
    ineq = float(np.min(resid[off])) if np.any(off) else None
    return ResidualStats(eq_max, eq_mean, eq_signed, ineq, int(np.sum(on)))


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


def resample_dilated(fld, t):
    """The dilated field rho_t(x) = rho(x/t) / t^3 on the same grid.

    Resampling is nearest-cell-center lookup; the raw result conserves mass
    up to the staircase error of the lookup, and callers who need the mass
    exact renormalize afterwards.
    """
    if t < 1.0:
        raise ValueError("dilation factor must be >= 1")
    grid = fld.grid
    d_r, d_z = field_ops.support_extent(fld, 0.0)
    if t * d_r > grid.r_max or t * d_z > grid.z_max:
        raise DilationRangeError(
            "support (%.3g, %.3g) dilated by %g exceeds the grid" % (d_r, d_z, t)
        )
    src_i = np.clip((grid.r / t / grid.dr).astype(int), 0, grid.n_r - 1)
    src_j = np.clip(
        ((grid.z / t + grid.z_max) / grid.dz).astype(int), 0, grid.n_z - 1
    )
    vals = fld.values[np.ix_(src_i, src_j)] / t**3
    return DensityField(grid, vals, fld.mask)


def scaling_energy_curve(fld, eos, t_values):
    """F(rho_t) = internal - self-gravity along the dilation family.

    For a density with negative F at moderate dilation the self-gravity term
    dominates like 1/t while the internal term decays faster, so the curve
    is negative with |F|*t rising; that shape is what the acceptance test
    asserts.
    """
    kernel = kernel_for(fld.grid)
    mass = field_ops.total_mass(fld)
    vol = fld.grid.vol
    out = []
    for t in t_values:
        dil = field_ops.rescale_to_mass(resample_dilated(fld, t), mass)
        internal = float(np.sum(eos.internal_energy(dil.values) * vol))
        self_grav = 0.5 * float(np.sum(dil.values * kernel.apply(dil.values) * vol))
        out.append(internal - self_grav)
    return out

