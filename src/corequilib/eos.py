"""Equation of state layer: the pressure law and its derived potentials.

Every other component talks to an EOS through four maps:

* ``pressure``           p = f(rho)
* ``internal_energy``    A(rho) = rho * int_0^rho f(t)/t^2 dt
* ``enthalpy``           A'(rho) = int_0^rho f(t)/t^2 dt + f(rho)/rho
* ``enthalpy_inverse``   rho = (A')^(-1)(h), with rho = 0 for h <= 0

and ``density_slope`` gives d rho / dh of that inverse from a density it has
already returned, so the multiplier solve gets its Newton slope without a
second inversion.

``Polytrope`` (f = k*rho**gamma) implements all four in closed form and is the
first-class law. ``TabulatedEos`` accepts a monotone sample table of f and
builds the integral maps by fixed Gauss-Legendre quadrature on a fine grid,
each piece checked against a lower-order rule; the forward maps extrapolate
past the table with the power laws fitted at its ends, while the inverse
refuses enthalpies above the sampled range, where inversion would be pure
extrapolation.

The cutoff branch of ``enthalpy_inverse`` (zero density at non-positive
enthalpy) is what turns the equilibrium relation into a free-boundary problem:
the gas support is exactly the region where the total potential plus the
multiplier is positive.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator


class EosDomainError(ValueError):
    """An EOS map was evaluated at a negative density."""


class EosRangeError(ValueError):
    """Inversion requested above the sampled enthalpy range."""


class EosInversionError(RuntimeError):
    """Newton inversion of a table EOS's enthalpy missed its tolerance."""


class QuadratureError(RuntimeError):
    """A piece of a table EOS's integral missed its tolerance: the 20- and
    10-point Gauss-Legendre rules disagree, or the piece is not finite."""


def _prepared(s):
    """Return (array, was_scalar) with the negative-density check applied."""
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0.0):
        raise EosDomainError("density must be non-negative")
    return arr, arr.ndim == 0


def _ret(values, scalar):
    return float(values) if scalar else values


def _slope_where_positive(rho, h, slope):
    """``slope(rho, h)`` on the cells with h > 0, and 0 on the rest."""
    rho = np.asarray(rho, dtype=float)
    h = np.asarray(h, dtype=float)
    out = np.zeros_like(h)
    pos = h > 0.0
    out[pos] = slope(rho[pos], h[pos])
    return _ret(out, out.ndim == 0)


class Polytrope:
    """Power-law equation of state p = k * rho**gamma.

    Parameters
    ----------
    k : float
        Pressure coefficient, k > 0.
    gamma : float
        Adiabatic exponent.  Must exceed 4/3; below that the gas cannot hold
        itself against its own gravity and the variational problem the solver
        targets has no minimizer.
    """

    kind = "polytrope"

    #: top of the enthalpy range ``enthalpy_inverse`` accepts
    h_max = np.inf

    def __init__(self, k, gamma):
        if not k > 0.0:
            raise ValueError("polytrope coefficient k must be positive")
        if not gamma > 4.0 / 3.0:
            raise ValueError(
                "polytrope exponent gamma must exceed 4/3, got %g" % gamma
            )
        self.k = float(k)
        self.gamma = float(gamma)

    def __repr__(self):
        return "Polytrope(k=%g, gamma=%g)" % (self.k, self.gamma)

    def pressure(self, s):
        s, scalar = _prepared(s)
        return _ret(self.k * s**self.gamma, scalar)

    def internal_energy(self, s):
        """A(s) = k*s**gamma/(gamma-1)."""
        s, scalar = _prepared(s)
        return _ret(self.k * s**self.gamma / (self.gamma - 1.0), scalar)

    def enthalpy(self, s):
        """A'(s) = gamma*k*s**(gamma-1)/(gamma-1)."""
        s, scalar = _prepared(s)
        g = self.gamma
        return _ret(g * self.k * s ** (g - 1.0) / (g - 1.0), scalar)

    def enthalpy_inverse(self, h):
        """Density with enthalpy h, or 0 where h <= 0."""
        arr = np.asarray(h, dtype=float)
        scalar = arr.ndim == 0
        g = self.gamma
        scaled = np.maximum(arr, 0.0) * ((g - 1.0) / (g * self.k))
        return _ret(scaled ** (1.0 / (g - 1.0)), scalar)

    def density_slope(self, rho, h):
        """d rho / dh = rho / ((gamma - 1) h) at ``rho = enthalpy_inverse(h)``;
        0 where h <= 0."""
        return _slope_where_positive(
            rho, h, lambda r, x: r / ((self.gamma - 1.0) * x)
        )

    def growth_conditions_known(self):
        """Whether the fast-growth conditions behind the run-off regime hold.

        A power law with gamma > 4/3 always satisfies them, so the mass
        run-off verdict is physically meaningful for this EOS.
        """
        return True


class TabulatedEos:
    """EOS built from a monotone sample table of the pressure law.

    Parameters
    ----------
    s_table, f_table : array_like
        Strictly increasing densities (all positive) and the corresponding
        strictly increasing positive pressures.  At least four samples.

    Notes
    -----
    The admissibility conditions on f (vanishing at zero faster than
    s**(4/3), outgrowing s**(4/3) at large density) can only be checked at
    the table endpoints: the fitted end slopes must both exceed 4/3.  That
    is a necessary, not sufficient, validation and is documented as such.

    Inside the table f is interpolated monotonically in log-log space, so a
    power-law table reproduces the corresponding ``Polytrope`` to quadrature
    accuracy.  The integral of f(t)/t^2 is summed from pieces on a fine log
    grid that has every sample as a knot.  Each piece is a 20-point
    Gauss-Legendre sum, accepted only when it is finite and a 10-point sum
    agrees with it to ``quad_rtol``; otherwise the build raises
    ``QuadratureError``.  Between the fine knots the integral is a cubic
    Hermite interpolant built on its exact slope f(s)/s.
    """

    kind = "tabulated-generic"

    #: relative tolerance for each piece of the quadrature of f(t)/t^2
    quad_rtol = 1e-12

    def __init__(self, s_table, f_table):
        s = np.asarray(s_table, dtype=float)
        f = np.asarray(f_table, dtype=float)
        if s.ndim != 1 or s.shape != f.shape:
            raise ValueError("s_table and f_table must be 1-d and equal length")
        if s.size < 4:
            raise ValueError("need at least 4 table samples")
        if not (s[0] > 0.0 and np.all(np.diff(s) > 0.0)):
            raise ValueError("s_table must be positive and strictly increasing")
        if not (f[0] > 0.0 and np.all(np.diff(f) > 0.0)):
            raise ValueError("f_table must be positive and strictly increasing")

        # End-slope fits double as the admissibility check: g = f*s**(-4/3)
        # must fall toward zero at the bottom and rise at the top, which is
        # exactly "fitted exponent > 4/3" at both ends.
        self._beta_lo = np.log(f[1] / f[0]) / np.log(s[1] / s[0])
        self._beta_hi = np.log(f[-1] / f[-2]) / np.log(s[-1] / s[-2])
        if not self._beta_lo > 4.0 / 3.0:
            raise ValueError(
                "table slope near zero density is %.3f, must exceed 4/3"
                % self._beta_lo
            )
        if not self._beta_hi > 4.0 / 3.0:
            raise ValueError(
                "table slope at high density is %.3f, must exceed 4/3"
                % self._beta_hi
            )
        self._c_lo = f[0] / s[0] ** self._beta_lo
        self._c_hi = f[-1] / s[-1] ** self._beta_hi
        self.s_min = float(s[0])
        self.s_max = float(s[-1])

        u = np.log(s)
        self._logf = PchipInterpolator(u, np.log(f))
        self._dlogf = self._logf.derivative()
        self._build_integral_tables(u)

    # -- construction helpers -------------------------------------------------

    def _f_of_u(self, u):
        return np.exp(self._logf(u))

    def _build_integral_tables(self, u_samples):
        """Tabulate I(s) = int_0^s f(t)/t^2 dt on a dense log grid.

        With t = e^u the integrand becomes f(e^u)*e^(-u), which is smooth
        between two samples.  Each sample interval is split into equal
        sub-intervals no wider than a common step, so the samples are knots
        of the fine grid exactly once and no piece straddles a sample, where
        the interpolant's second derivative jumps.  All pieces are integrated in one vectorized pass by
        the 20-point Gauss-Legendre rule and checked against the 10-point
        rule.  The head of the integral (0, s_min] is the fitted power law,
        integrated in closed form.  I is interpolated between the fine knots
        by cubic Hermite segments whose end slopes are the integrand itself,
        the exact dI/du.
        """
        n_fine = max(801, 60 * u_samples.size)
        step = (u_samples[-1] - u_samples[0]) / (n_fine - 1)
        n_sub = np.ceil(np.diff(u_samples) / step).astype(int)
        u_fine = np.concatenate([
            np.linspace(a, b, m, endpoint=False)
            for a, b, m in zip(u_samples[:-1], u_samples[1:], n_sub)
        ] + [u_samples[-1:]])

        def integrand(u):
            return np.exp(self._logf(u) - u)

        mid = 0.5 * (u_fine[1:] + u_fine[:-1])
        half = 0.5 * np.diff(u_fine)

        def gauss(points):
            nodes, weights = leggauss(points)
            samples = integrand(mid[:, None] + half[:, None] * nodes)
            return half * (samples @ weights)

        g20 = gauss(20)
        g10 = gauss(10)
        ok = np.isfinite(g20) & (
            np.abs(g20 - g10) <= self.quad_rtol * np.abs(g20)
        )
        if not np.all(ok):
            i = int(np.argmin(ok))
            raise QuadratureError(
                "quadrature of f(t)/t^2 missed its tolerance on [%g, %g]: "
                "the 20- and 10-point rules give %r and %r"
                % (np.exp(u_fine[i]), np.exp(u_fine[i + 1]), g20[i], g10[i])
            )
        head = self._c_lo * self.s_min ** (self._beta_lo - 1.0) / (
            self._beta_lo - 1.0
        )
        i_fine = np.cumsum(np.concatenate(([head], g20)))

        fs_fine = integrand(u_fine)  # f/s, which is also dI/du
        self._I = CubicHermiteSpline(u_fine, i_fine, fs_fine)
        self._dI = self._I.derivative()
        h_fine = i_fine + fs_fine  # I + f/s on the fine grid
        self.h_min = float(h_fine[0])
        self.h_max = float(h_fine[-1])
        self._u_min, self._u_max = float(u_fine[0]), float(u_fine[-1])
        self._inv_seed = PchipInterpolator(np.log(h_fine), u_fine)

    # -- the four maps --------------------------------------------------------

    def pressure(self, s):
        s, scalar = _prepared(s)
        out = np.zeros_like(s)
        lo = (s > 0.0) & (s < self.s_min)
        mid = (s >= self.s_min) & (s <= self.s_max)
        hi = s > self.s_max
        out[lo] = self._c_lo * s[lo] ** self._beta_lo
        out[mid] = self._f_of_u(np.log(s[mid]))
        out[hi] = self._c_hi * s[hi] ** self._beta_hi
        return _ret(out, scalar)

    def _integral(self, s):
        """I(s) on s > 0, with power-law tails outside the table."""
        out = np.empty_like(s)
        lo = s < self.s_min
        mid = (s >= self.s_min) & (s <= self.s_max)
        hi = s > self.s_max
        b = self._beta_lo
        out[lo] = self._c_lo * s[lo] ** (b - 1.0) / (b - 1.0)
        out[mid] = self._I(np.log(s[mid]))
        b = self._beta_hi
        out[hi] = self._I(self._u_max) + self._c_hi * (
            s[hi] ** (b - 1.0) - self.s_max ** (b - 1.0)
        ) / (b - 1.0)
        return out

    def internal_energy(self, s):
        s, scalar = _prepared(s)
        out = np.zeros_like(s)
        pos = s > 0.0
        out[pos] = s[pos] * self._integral(s[pos])
        return _ret(out, scalar)

    def enthalpy(self, s):
        s, scalar = _prepared(s)
        out = np.zeros_like(s)
        pos = s > 0.0
        sp = s[pos]
        out[pos] = self._integral(sp) + self.pressure(sp) / sp
        return _ret(out, scalar)

    def _enthalpy_slope_u(self, u):
        """d(A')/du at u = log s (Newton's slope in inversion and in
        ``density_slope``)."""
        fs = np.exp(self._logf(u) - u)  # f/s
        return self._dI(u) + fs * (self._dlogf(u) - 1.0)

    def enthalpy_inverse(self, h):
        arr = np.asarray(h, dtype=float)
        scalar = arr.ndim == 0
        work = np.atleast_1d(arr).astype(float)
        out = np.zeros_like(work)

        if np.any(work > self.h_max * (1.0 + 1e-12)):
            raise EosRangeError(
                "enthalpy %g above the sampled range (max %g)"
                % (float(np.max(work)), self.h_max)
            )

        lo = (work > 0.0) & (work <= self.h_min)
        b = self._beta_lo
        out[lo] = ((b - 1.0) * work[lo] / (self._c_lo * b)) ** (1.0 / (b - 1.0))

        mid = work > self.h_min
        if np.any(mid):
            out[mid] = self._invert_in_table(work[mid])

        if scalar:
            return float(out[0])
        return out.reshape(arr.shape)

    def density_slope(self, rho, h):
        """d rho / dh at ``rho = enthalpy_inverse(h)``; 0 where h <= 0.

        On the power-law head (h up to ``h_min``) it is
        ``rho / ((beta_lo - 1) h)``; inside the table it is
        ``1 / A''(rho) = rho / (dA'/du)`` at ``u = log rho``.
        """
        def slope(r, x):
            out = np.empty_like(r)
            head = x <= self.h_min
            out[head] = r[head] / ((self._beta_lo - 1.0) * x[head])
            r_mid = r[~head]
            out[~head] = r_mid / self._enthalpy_slope_u(np.log(r_mid))
            return out

        return _slope_where_positive(rho, h, slope)

    def _invert_in_table(self, h):
        """Vector Newton on A'(e^u) = h, seeded by the inverse interpolant."""
        target = np.minimum(h, self.h_max)
        u = np.clip(self._inv_seed(np.log(target)), self._u_min, self._u_max)
        tol = 1e-13 * np.maximum(1.0, target)
        for _ in range(60):
            s = np.exp(u)
            val = self._I(u) + np.exp(self._logf(u) - u) - target
            if np.all(np.abs(val) <= tol):
                return s
            slope = self._enthalpy_slope_u(u) / s  # dA'/ds
            u = np.clip(u - val / (slope * s), self._u_min, self._u_max)
        raise EosInversionError(
            "enthalpy inversion did not reach its tolerance in 60 Newton "
            "steps (residual up to %g times it)"
            % float(np.max(np.abs(val) / tol))
        )

    def growth_conditions_known(self):
        """Finite samples cannot settle the limits behind the run-off regime."""
        return None


def make_eos(kind, **kwargs):
    """Factory used by the config layer.

    ``kind`` is either ``"polytrope"`` (needs k, gamma) or
    ``"tabulated-generic"`` (needs s, f sample arrays).
    """
    if kind == "polytrope":
        return Polytrope(kwargs["k"], kwargs["gamma"])
    if kind == "tabulated-generic":
        return TabulatedEos(kwargs["s"], kwargs["f"])
    raise ValueError("unknown eos kind %r" % (kind,))
