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
each piece checked against a lower-order rule.  Each forward map splits its
densities once into the head below the table, the table and the tail above
it, with one log and one table lookup per call.  Head and tail are the
``Polytrope``s through the two samples at each end.  The inverse refuses
enthalpies above the sampled range, where inversion would be pure
extrapolation.  Its interpolants are ``CubicHermite`` pieces with
``pchip_slopes`` where the slopes are not known exactly, so the module needs
numpy alone.

The cutoff branch of ``enthalpy_inverse`` (zero density at non-positive
enthalpy) is what turns the equilibrium relation into a free-boundary problem:
the gas support is exactly the region where the total potential plus the
multiplier is positive.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss


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


def pchip_slopes(x, y):
    """Knot slopes of the monotone piecewise cubic interpolant of y(x).

    Fritsch and Carlson (SIAM J. Numer. Anal. 17, 238, 1980): an interior
    slope is the weighted harmonic mean of the two neighbouring secant
    slopes, or 0 where they differ in sign or one vanishes; an end slope is
    the one-sided three-point estimate, limited to keep the data's shape.
    The same slopes as ``scipy.interpolate.PchipInterpolator``.  ``x`` is
    strictly increasing with at least three knots.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.zeros_like(y)
    k = np.flatnonzero(np.sign(m[:-1]) * np.sign(m[1:]) > 0.0)
    w1 = 2.0 * h[k + 1] + h[k]
    w2 = h[k + 1] + 2.0 * h[k]
    d[k + 1] = 1.0 / ((w1 / m[k] + w2 / m[k + 1]) / (w1 + w2))
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    return d


def _pchip_end_slope(h0, h1, m0, m1):
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class CubicHermite:
    """Piecewise cubic Hermite interpolant through knot values and slopes.

    On knot interval i, at offset ``dx = u - x[i]``, the cubic is
    ``((c0 dx + c1) dx + c2) dx + c3`` with the coefficients of
    ``scipy.interpolate.CubicHermiteSpline``; past the ends the end cubics
    continue.  ``locate`` gives ``(i, dx)``; ``value`` evaluates the cubic
    there, and ``value_and_slope`` the cubic and its derivative from one
    gather of the coefficients.  So a caller that needs both, or needs
    another interpolant whose knots are a subset of these, looks the point
    up once.

    Interval lookup costs a few array operations whatever the number of
    knots: the knot range is cut into uniform buckets as wide as the
    smallest knot spacing (or an eighth of the mean spacing, if that is
    wider, which bounds the table's length), a table gives the last knot
    before each bucket, and as many ``+1`` steps follow as the fullest
    bucket holds knots: one for a grid of near-equal spacing.
    """

    def __init__(self, x, y, dydx):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dydx = np.asarray(dydx, dtype=float)
        dx = np.diff(x)
        slope = np.diff(y) / dx
        t = (dydx[:-1] + dydx[1:] - 2.0 * slope) / dx
        self.x = x
        # highest degree first, one contiguous array per degree: a gather
        # with ``take`` from each is several times faster than one of rows
        self._c = (t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1])

        n = x.size
        self._inv_width = 1.0 / max(float(np.min(dx)), (x[-1] - x[0]) / (8 * n))
        self._last_bucket = int((x[-1] - x[0]) * self._inv_width)
        knot_bucket = self._bucket(x)
        self._first = np.clip(
            np.searchsorted(knot_bucket, np.arange(self._last_bucket + 1)) - 1,
            0, n - 2,
        )
        self._steps = int(np.max(np.bincount(knot_bucket)))
        self._right = np.append(x[1:-1], np.inf)  # right end of interval i

    def _bucket(self, u):
        # monotone in u, so knots in a lower bucket lie below every u in
        # this one; ``locate`` relies on that
        return np.clip(
            (u - self.x[0]) * self._inv_width, 0.0, self._last_bucket
        ).astype(np.intp)

    def locate(self, u):
        """Interval i with ``x[i] <= u < x[i + 1]`` (the end intervals for
        u outside the knots) and the offset ``u - x[i]``."""
        u = np.asarray(u, dtype=float)
        i = self._first.take(self._bucket(u))
        for _ in range(self._steps):
            i += u >= self._right.take(i)
        return i, u - self.x.take(i)

    def value(self, i, dx):
        out = self._c[0].take(i)
        for c in self._c[1:]:
            out *= dx
            out += c.take(i)
        return out

    def value_and_slope(self, i, dx):
        """The cubic and its derivative ``((3 c0) dx + 2 c1) dx + c2``."""
        c0, c1, c2, c3 = (c.take(i) for c in self._c)
        slope = 3.0 * c0
        slope *= dx
        slope += 2.0 * c1
        slope *= dx
        slope += c2
        for c in (c1, c2, c3):
            c0 *= dx
            c0 += c
        return c0, slope

    def __call__(self, u):
        return self.value(*self.locate(u))


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
        h = np.asarray(h, dtype=float)
        out = np.divide(rho, (self.gamma - 1.0) * h,
                        out=np.zeros_like(h), where=h > 0.0)
        return _ret(out, h.ndim == 0)

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

    Inside the table f is interpolated monotonically in log-log space, by
    cubic Hermite pieces with PCHIP slopes, and at the ends with the
    exponents of the power laws past them, so a power-law table reproduces
    the corresponding ``Polytrope`` to quadrature accuracy.  The integral of
    f(t)/t^2 is summed from pieces on a fine log grid that has every sample
    as a knot.  Each piece is a 20-point Gauss-Legendre sum, accepted only
    when it is finite and a 10-point sum agrees with it to ``quad_rtol``;
    otherwise the build raises ``QuadratureError``.  Between the fine knots
    the integral is a cubic Hermite interpolant built on its exact slope
    f(s)/s.  Because the samples are fine knots, one interval lookup on the
    fine grid places a point for both interpolants: ``enthalpy`` makes one
    per call, and the Newton inversion one per step, for the residual and
    its slope together.  Past the table's ends f is the ``Polytrope``
    through the two end samples, and I continues from its value at the end.
    """

    #: relative tolerance for each piece of the quadrature of f(t)/t^2
    quad_rtol = 1e-12
    #: widest fine-grid step in u = log s; the Hermite interpolant of I
    #: errs by about (step * (gamma - 1))^4 / 384 relative to I
    max_fine_step = 0.01

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
        beta_lo = np.log(f[1] / f[0]) / np.log(s[1] / s[0])
        beta_hi = np.log(f[-1] / f[-2]) / np.log(s[-1] / s[-2])
        for end, beta in (("near zero", beta_lo), ("at high", beta_hi)):
            if not beta > 4.0 / 3.0:
                raise ValueError(
                    "table slope %s density is %.3f, must exceed 4/3" % (end, beta)
                )
        # the power laws past the ends, through the two end samples
        self._head = Polytrope(f[0] / s[0] ** beta_lo, beta_lo)
        self._tail = Polytrope(f[-1] / s[-1] ** beta_hi, beta_hi)
        self.s_min = float(s[0])
        self.s_max = float(s[-1])

        u = np.log(s)
        log_f = np.log(f)
        # end slopes: the head's and the tail's exponents, which keep PCHIP's
        # shape limits and make A'' continuous where the table meets them
        slopes = pchip_slopes(u, log_f)
        slopes[0], slopes[-1] = beta_lo, beta_hi
        self._logf = CubicHermite(u, log_f, slopes)
        self._build_integral_tables(u)
        # I continues past s_max as the tail's A/s plus this constant
        a_max = self._tail.internal_energy(self.s_max)
        self._tail_offset = float(self._I(self._u_max)) - a_max / self.s_max

    # -- construction helpers -------------------------------------------------

    def _build_integral_tables(self, u_samples):
        """Tabulate I(s) = int_0^s f(t)/t^2 dt on a dense log grid.

        With t = e^u the integrand becomes f(e^u)*e^(-u), which is smooth
        between two samples.  Each sample interval is split into equal
        sub-intervals no wider than a common step, so the samples are knots
        of the fine grid exactly once and no piece straddles a sample, where
        the interpolant's second derivative jumps.  The step spreads at
        least ``max(801, 60 n)`` knots over the table and is at most
        ``max_fine_step``, so a table over many decades is as accurate as a
        short one.  All pieces are integrated in one vectorized pass by
        the 20-point Gauss-Legendre rule and checked against the 10-point
        rule.  The head of the integral (0, s_min] is the head polytrope's
        A(s_min)/s_min.  I is interpolated between the fine knots
        by cubic Hermite segments whose end slopes are the integrand itself,
        the exact dI/du.
        """
        n_fine = max(801, 60 * u_samples.size)
        step = min((u_samples[-1] - u_samples[0]) / (n_fine - 1),
                   self.max_fine_step)
        n_sub = np.ceil(np.diff(u_samples) / step).astype(int)
        u_fine = np.concatenate([
            np.linspace(a, b, m, endpoint=False)
            for a, b, m in zip(u_samples[:-1], u_samples[1:], n_sub)
        ] + [u_samples[-1:]])
        # sample interval of each fine interval
        self._coarse_of_fine = np.repeat(np.arange(n_sub.size), n_sub)

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
        head = self._head.internal_energy(self.s_min) / self.s_min
        i_fine = np.cumsum(np.concatenate(([head], g20)))

        fs_fine = integrand(u_fine)  # f/s, which is also dI/du
        self._I = CubicHermite(u_fine, i_fine, fs_fine)
        h_fine = i_fine + fs_fine  # I + f/s on the fine grid
        self.h_min = float(h_fine[0])
        self.h_max = float(h_fine[-1])
        self._u_min, self._u_max = float(u_fine[0]), float(u_fine[-1])
        log_h = np.log(h_fine)
        self._inv_seed = CubicHermite(log_h, u_fine, pchip_slopes(log_h, u_fine))

    # -- the four maps --------------------------------------------------------

    def _split(self, s, law, table, tail_offset=lambda x: 0.0):
        """A map of density, 0 at s = 0: ``law(polytrope, x)`` on the head
        (0 < s < s_min), that plus ``tail_offset(x)``, the map's share of
        I's offset, on the tail (s > s_max), and ``table(x, log x)``."""
        s, scalar = _prepared(s)
        out = np.zeros_like(s)
        lo = (s > 0.0) & (s < self.s_min)
        mid = (s >= self.s_min) & (s <= self.s_max)
        hi = s > self.s_max
        out[lo] = law(self._head, s[lo])
        x = s[mid]
        out[mid] = table(x, np.log(x))
        x = s[hi]
        out[hi] = law(self._tail, x) + tail_offset(x)
        return _ret(out, scalar)

    def pressure(self, s):
        return self._split(s, Polytrope.pressure, lambda x, u: np.exp(self._logf(u)))

    def internal_energy(self, s):
        """A(s) = s I(s)."""
        return self._split(s, Polytrope.internal_energy, lambda x, u: x * self._I(u),
                           lambda x: self._tail_offset * x)

    def enthalpy(self, s):
        """A'(s) = I(s) + f(s)/s."""
        def table(x, u):
            fine, coarse = self._locate(u)
            return self._I.value(*fine) + np.exp(self._logf.value(*coarse)) / x

        return self._split(s, Polytrope.enthalpy, table, lambda x: self._tail_offset)

    def _locate(self, u):
        """One lookup for both interpolants at u in the table: the fine
        interval of I and offset into it, and the same for log f, whose
        knots (the samples) are fine knots."""
        fine = self._I.locate(u)
        j = self._coarse_of_fine.take(fine[0])
        return fine, (j, u - self._logf.x.take(j))

    def _table_enthalpy(self, u):
        """A'(e^u) and d(A')/du at u = log s in the table, from one lookup
        (the residual and slope of the Newton inversion; the slope is also
        ``density_slope``'s)."""
        fine, coarse = self._locate(u)
        i_value, i_slope = self._I.value_and_slope(*fine)
        log_f, log_f_slope = self._logf.value_and_slope(*coarse)
        fs = np.exp(log_f - u)  # f/s
        return i_value + fs, i_slope + fs * (log_f_slope - 1.0)

    def enthalpy_inverse(self, h):
        h = np.asarray(h, dtype=float)
        if np.any(h > self.h_max * (1.0 + 1e-12)):
            raise EosRangeError(
                "enthalpy %g above the sampled range (max %g)"
                % (float(np.max(h)), self.h_max)
            )
        out = np.asarray(self._head.enthalpy_inverse(h))  # 0 where h <= 0
        mid = h > self.h_min
        if np.any(mid):
            out[mid] = self._invert_in_table(h[mid])
        return _ret(out, h.ndim == 0)

    def density_slope(self, rho, h):
        """d rho / dh at ``rho = enthalpy_inverse(h)``; 0 where h <= 0.

        On the head (h up to ``h_min``) it is the head polytrope's; inside
        the table it is ``1 / A''(rho) = rho / (dA'/du)`` at ``u = log rho``.
        """
        rho = np.asarray(rho, dtype=float)
        h = np.asarray(h, dtype=float)
        out = np.asarray(self._head.density_slope(rho, h))  # 0 where h <= 0
        table = h > self.h_min
        x = rho[table]
        out[table] = x / self._table_enthalpy(np.log(x))[1]
        return _ret(out, h.ndim == 0)

    def _invert_in_table(self, h):
        """Vector Newton on A'(e^u) = h, seeded by the inverse interpolant."""
        target = np.minimum(h, self.h_max)
        u = np.clip(self._inv_seed(np.log(target)), self._u_min, self._u_max)
        tol = 1e-13 * np.maximum(1.0, target)
        for _ in range(60):
            val, slope = self._table_enthalpy(u)
            val -= target
            if np.all(np.abs(val) <= tol):
                return np.exp(u)
            u = np.clip(u - val / slope, self._u_min, self._u_max)
        raise EosInversionError(
            "enthalpy inversion did not reach its tolerance in 60 Newton "
            "steps (residual up to %g times it)"
            % float(np.max(np.abs(val) / tol))
        )

    def growth_conditions_known(self):
        """Finite samples cannot settle the limits behind the run-off regime."""
        return None

