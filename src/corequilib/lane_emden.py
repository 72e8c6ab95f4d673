"""Dimensionless polytrope structure by direct ODE integration.

For a non-rotating, core-free polytrope the equilibrium reduces to the
classical second-order ODE for theta(xi) with rho = rho_c * theta**n and
n = 1/(gamma - 1):

    theta'' + (2/xi) theta' = -theta**n,  theta(0) = 1, theta'(0) = 0.

Integrating to the first zero xi_1 gives the dimensionless radius and, with
|theta'(xi_1)|, the mass constant.  These numbers are an independent oracle
for the field solver: they come from adaptive Runge-Kutta on a 1-d ODE and
share no code with the grid pipeline.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PolytropeStructure:
    """First zero and derived structure constants for one (gamma, k)."""

    gamma: float
    k: float
    n: float
    xi1: float
    theta_slope: float  # |theta'(xi1)|

    def length_scale(self, rho_c):
        """alpha in r = alpha * xi, for central density rho_c."""
        expo = (1.0 - self.n) / (2.0 * self.n)
        return np.sqrt((self.n + 1.0) * self.k / (4.0 * np.pi)) * rho_c**expo

    def radius(self, rho_c):
        return self.length_scale(rho_c) * self.xi1

    def mass(self, rho_c):
        alpha = self.length_scale(rho_c)
        return 4.0 * np.pi * alpha**3 * rho_c * self.xi1**2 * self.theta_slope

    def central_density_for_mass(self, mass):
        """Invert the mass relation; valid for n < 3 (gamma > 4/3)."""
        if self.n >= 3.0:
            raise ValueError("mass relation not invertible for n >= 3")
        coeff = (
            4.0 * np.pi
            * ((self.n + 1.0) * self.k / (4.0 * np.pi)) ** 1.5
            * self.xi1**2 * self.theta_slope
        )
        return (mass / coeff) ** (2.0 * self.n / (3.0 - self.n))


def integrate_lane_emden(n, xi_end=50.0):
    """First zero (xi1, |theta'(xi1)|) of the index-n equation.

    Starts from the series expansion at a small xi0 to avoid the coordinate
    singularity, then integrates with adaptive RK45 and a terminal
    root-finding event on theta = 0.
    """
    if n < 0.0:
        raise ValueError("polytrope index must be non-negative")
    # imported here: solve, scan and check run without scipy
    from scipy.integrate import solve_ivp

    xi0 = 1e-3
    theta0 = 1.0 - xi0**2 / 6.0 + n * xi0**4 / 120.0
    dtheta0 = -xi0 / 3.0 + n * xi0**3 / 30.0

    def rhs(xi, y):
        theta, dtheta = y
        return [dtheta, -max(theta, 0.0) ** n - 2.0 * dtheta / xi]

    def surface(xi, y):
        return y[0]

    surface.terminal = True
    surface.direction = -1.0

    sol = solve_ivp(
        rhs, (xi0, xi_end), [theta0, dtheta0], events=surface,
        rtol=1e-10, atol=1e-12, max_step=0.1,
    )
    if not sol.t_events[0].size:
        raise ValueError(
            "theta has no zero out to xi = %g (index %g too close to 5?)"
            % (xi_end, n)
        )
    xi1 = float(sol.t_events[0][0])
    slope = float(abs(sol.y_events[0][0][1]))
    return xi1, slope


def polytrope_structure(gamma, k):
    """Structure constants for the polytrope EOS p = k * rho**gamma."""
    if not gamma > 1.0:
        raise ValueError("gamma must exceed 1 for a finite polytrope index")
    n = 1.0 / (gamma - 1.0)
    xi1, slope = integrate_lane_emden(n)
    return PolytropeStructure(float(gamma), float(k), n, xi1, slope)
