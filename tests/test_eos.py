"""Equation-of-state maps checked against quadrature and difference oracles.

The internal-energy density is defined by an improper integral of the
pressure law; the oracle below evaluates it with adaptive quadrature after a
logarithmic substitution, independently of the closed forms used in the
package.  The enthalpy is its derivative, checked by central differences.
Hypothesis draws random admissible tables: single power laws, which must
reproduce the matching ``Polytrope``, and sums of two power laws (the
strategy of the multiplier property tests), whose enthalpy inverse must
round-trip.  The numpy interpolants behind a table are checked against the
scipy ones they stand in for.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

import corequilib.eos
from corequilib import (
    EosDomainError,
    EosInversionError,
    EosRangeError,
    Polytrope,
    QuadratureError,
    TabulatedEos,
)
from corequilib.eos import CubicHermite, pchip_slopes
from test_multiplier_properties import tables

#: log-uniform tables whose samples lie within a rounding error of a point
#: of the uniform fine grid: each must still be one knot, not two
LOG_UNIFORM = [(-4.0, 2.0, 9), (-4.0, 1.5, 6), (-4.0, 2.0, 11),
               (-2.0, 1.0, 11), (-4.0, 1.5, 11)]


def internal_energy_by_quadrature(f, s):
    """A(s) = s * integral_0^s f(t)/t^2 dt, via the substitution t = e^u.

    The substitution turns the improper endpoint at t = 0 into an
    exponentially decaying tail (f grows faster than t**(4/3)), so plain
    adaptive quadrature on a truncated interval is accurate.
    """
    if s == 0.0:
        return 0.0
    top = np.log(s)
    val, _ = quad(
        lambda u: f(np.exp(u)) * np.exp(-u),
        top - 60.0,
        top,
        epsabs=0.0,
        epsrel=1e-12,
        limit=200,
    )
    return s * val


def enthalpy_by_central_difference(eos, s):
    step = 1e-6 * max(1.0, s)
    return (
        eos.internal_energy(s + step) - eos.internal_energy(s - step)
    ) / (2.0 * step)


def gamma2_table(n=40):
    """Sample table drawn from the k = 1, gamma = 2 power law."""
    s = np.geomspace(1e-3, 1e2, n)
    return s, s ** 2


def scaled_rule(points, scale):
    """``leggauss`` with the weights of its ``points``-point rule scaled."""
    rule = corequilib.eos.leggauss

    def scaled(n):
        nodes, weights = rule(n)
        return nodes, (scale if n == points else 1.0) * weights

    return scaled


class TestPolytrope:
    def test_pressure_examples(self):
        assert Polytrope(1.0, 2.0).pressure(0.0) == 0.0
        assert Polytrope(1.0, 2.0).pressure(2.0) == pytest.approx(4.0, rel=1e-14)
        assert Polytrope(2.0, 5.0 / 3.0).pressure(8.0) == pytest.approx(
            64.0, rel=1e-14
        )

    def test_internal_energy_examples(self):
        assert Polytrope(1.0, 2.0).internal_energy(1.0) == pytest.approx(
            1.0, rel=1e-14
        )
        assert Polytrope(1.0, 5.0 / 3.0).internal_energy(8.0) == pytest.approx(
            48.0, rel=1e-14
        )

    def test_enthalpy_examples(self):
        assert Polytrope(1.0, 2.0).enthalpy(0.0) == 0.0
        assert Polytrope(1.0, 2.0).enthalpy(3.0) == pytest.approx(6.0, rel=1e-14)
        assert Polytrope(1.0, 5.0 / 3.0).enthalpy(8.0) == pytest.approx(
            10.0, rel=1e-14
        )

    def test_enthalpy_inverse_examples(self):
        eos = Polytrope(1.0, 2.0)
        assert eos.enthalpy_inverse(6.0) == pytest.approx(3.0, rel=1e-14)
        assert eos.enthalpy_inverse(0.0) == 0.0
        assert eos.enthalpy_inverse(-1.0) == 0.0

    def test_internal_energy_matches_quadrature_on_log_grid(self):
        for k, gamma in [(1.0, 2.0), (0.7, 5.0 / 3.0), (2.5, 1.5)]:
            eos = Polytrope(k, gamma)
            for s in np.geomspace(1e-3, 1e2, 12):
                oracle = internal_energy_by_quadrature(eos.pressure, float(s))
                assert eos.internal_energy(float(s)) == pytest.approx(
                    oracle, rel=1e-8
                )

    def test_enthalpy_matches_derivative_of_internal_energy(self):
        for k, gamma in [(1.0, 2.0), (0.7, 5.0 / 3.0)]:
            eos = Polytrope(k, gamma)
            for s in [0.01, 0.5, 3.0, 40.0]:
                oracle = enthalpy_by_central_difference(eos, s)
                assert eos.enthalpy(s) == pytest.approx(oracle, rel=1e-7)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(1234)
        eos = Polytrope(1.3, 1.8)
        for _ in range(200):
            h = float(10.0 ** rng.uniform(-6.0, 3.0))
            s = eos.enthalpy_inverse(h)
            assert abs(eos.enthalpy(s) - h) <= 1e-10 * max(1.0, h)

    def test_monotone_in_density(self):
        rng = np.random.default_rng(987)
        eos = Polytrope(2.0, 1.6)
        for _ in range(100):
            a, b = np.sort(10.0 ** rng.uniform(-4.0, 3.0, size=2))
            if a == b:
                continue
            assert eos.pressure(b) > eos.pressure(a)
            assert eos.enthalpy(b) > eos.enthalpy(a)

    def test_rejects_shallow_exponent_and_bad_scale(self):
        with pytest.raises(ValueError):
            Polytrope(1.0, 4.0 / 3.0)
        with pytest.raises(ValueError):
            Polytrope(1.0, 1.2)
        with pytest.raises(ValueError):
            Polytrope(0.0, 2.0)

    def test_negative_density_rejected(self):
        eos = Polytrope(1.0, 2.0)
        for op in (eos.pressure, eos.internal_energy, eos.enthalpy):
            with pytest.raises(EosDomainError):
                op(-1.0)

    def test_growth_conditions_known(self):
        assert Polytrope(1.0, 2.0).growth_conditions_known() is True

    def test_scalar_and_array_shapes(self):
        eos = Polytrope(1.0, 2.0)
        s = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(eos.pressure(s), [0.0, 1.0, 4.0], rtol=1e-14)
        np.testing.assert_allclose(eos.enthalpy(s), [0.0, 2.0, 4.0], rtol=1e-14)
        assert np.shape(eos.enthalpy_inverse(np.array([2.0, 4.0]))) == (2,)
        assert isinstance(eos.enthalpy(1.0), float)


class TestTabulatedEos:
    def test_matches_generating_polytrope_inside_table(self):
        s_tab, f_tab = gamma2_table()
        tab = TabulatedEos(s_tab, f_tab)
        ref = Polytrope(1.0, 2.0)
        for s in np.geomspace(2e-3, 50.0, 15):
            s = float(s)
            assert tab.pressure(s) == pytest.approx(ref.pressure(s), rel=1e-10)
            assert tab.internal_energy(s) == pytest.approx(
                ref.internal_energy(s), rel=1e-8
            )
            assert tab.enthalpy(s) == pytest.approx(ref.enthalpy(s), rel=1e-8)

    def test_power_law_extensions_continue_the_law(self):
        s_tab, f_tab = gamma2_table()
        tab = TabulatedEos(s_tab, f_tab)
        ref = Polytrope(1.0, 2.0)
        assert tab.pressure(1e-5) == pytest.approx(ref.pressure(1e-5), rel=1e-8)
        assert tab.enthalpy(1e-5) == pytest.approx(ref.enthalpy(1e-5), rel=1e-8)
        assert tab.pressure(300.0) == pytest.approx(ref.pressure(300.0), rel=1e-8)
        assert tab.enthalpy(300.0) == pytest.approx(ref.enthalpy(300.0), rel=1e-7)

    def test_inverse_roundtrip(self):
        s_tab, f_tab = gamma2_table()
        tab = TabulatedEos(s_tab, f_tab)
        rng = np.random.default_rng(555)
        lo = tab.enthalpy(2e-3)
        hi = tab.enthalpy(90.0)
        for _ in range(120):
            h = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
            s = tab.enthalpy_inverse(h)
            assert abs(tab.enthalpy(s) - h) <= 1e-10 * max(1.0, h)

    def test_monotone_in_density(self):
        s_tab, f_tab = gamma2_table()
        tab = TabulatedEos(s_tab, f_tab)
        rng = np.random.default_rng(77)
        for _ in range(60):
            a, b = np.sort(10.0 ** rng.uniform(-3.0, 2.0, size=2))
            if a == b:
                continue
            assert tab.pressure(b) > tab.pressure(a)
            assert tab.enthalpy(b) > tab.enthalpy(a)

    def test_range_error_above_table_enthalpy(self):
        s_tab, f_tab = gamma2_table()
        tab = TabulatedEos(s_tab, f_tab)
        with pytest.raises(EosRangeError):
            tab.enthalpy_inverse(tab.h_max * 4.0)

    def test_inversion_that_misses_its_tolerance_is_an_error(self, monkeypatch):
        s_tab, f_tab = gamma2_table()
        tab = TabulatedEos(s_tab, f_tab)
        h = tab.enthalpy(np.array([0.37, 3.1]))
        table_enthalpy = TabulatedEos._table_enthalpy

        def too_steep(self, u):
            value, slope = table_enthalpy(self, u)
            return value, 1e6 * slope

        # a slope 1e6 times too steep makes every Newton step crawl
        monkeypatch.setattr(TabulatedEos, "_table_enthalpy", too_steep)
        with pytest.raises(EosInversionError, match="60 Newton steps"):
            tab.enthalpy_inverse(h)

    def test_inverse_of_nonpositive_is_zero(self):
        s_tab, f_tab = gamma2_table()
        tab = TabulatedEos(s_tab, f_tab)
        assert tab.enthalpy_inverse(0.0) == 0.0
        assert tab.enthalpy_inverse(-2.0) == 0.0

    def test_rejects_shallow_end_slopes(self):
        s = np.geomspace(1e-2, 10.0, 30)
        with pytest.raises(ValueError):
            TabulatedEos(s, s ** 1.2)

    def test_rejects_malformed_tables(self):
        s = np.geomspace(1e-2, 10.0, 30)
        f = s ** 2
        with pytest.raises(ValueError):
            TabulatedEos(s[:3], f[:3])
        dip = f.copy()
        dip[10] = dip[9] * 0.5
        with pytest.raises(ValueError):
            TabulatedEos(s, dip)
        with pytest.raises(ValueError):
            TabulatedEos(-s, f)
        shuffled = s.copy()
        shuffled[5], shuffled[6] = shuffled[6], shuffled[5]
        with pytest.raises(ValueError):
            TabulatedEos(shuffled, f)

    def test_negative_density_rejected(self):
        s_tab, f_tab = gamma2_table()
        tab = TabulatedEos(s_tab, f_tab)
        with pytest.raises(EosDomainError):
            tab.pressure(-0.5)

    def test_growth_conditions_unknown(self):
        s_tab, f_tab = gamma2_table()
        assert TabulatedEos(s_tab, f_tab).growth_conditions_known() is None

    @pytest.mark.parametrize("lo, hi, n", LOG_UNIFORM)
    def test_log_uniform_table_matches_generating_polytrope(self, lo, hi, n):
        s_tab = np.logspace(lo, hi, n)
        tab = TabulatedEos(s_tab, s_tab**2)
        ref = Polytrope(1.0, 2.0)
        for s in np.geomspace(s_tab[0], s_tab[-1], 15):
            s = float(s)
            assert tab.pressure(s) == pytest.approx(ref.pressure(s), rel=1e-10)
            assert tab.internal_energy(s) == pytest.approx(
                ref.internal_energy(s), rel=1e-8
            )
            assert tab.enthalpy(s) == pytest.approx(ref.enthalpy(s), rel=1e-8)

    @pytest.mark.parametrize(
        "points, scale",
        [(10, 1.0 + 1e-9), (20, np.inf)],
        ids=["rules-disagree", "piece-not-finite"],
    )
    def test_quadrature_that_misses_its_tolerance_is_an_error(
        self, monkeypatch, points, scale
    ):
        monkeypatch.setattr(
            corequilib.eos, "leggauss", scaled_rule(points, scale)
        )
        s_tab, f_tab = gamma2_table()
        with pytest.raises(QuadratureError, match="missed its tolerance on"):
            TabulatedEos(s_tab, f_tab)

    @pytest.mark.parametrize(
        "lo, hi, gamma", [(-30.0, 30.0, 2.0), (-100.0, 100.0, 3.0)],
        ids=["sixty-decades", "two-hundred-decades"],
    )
    def test_long_table_enthalpy_matches_generating_polytrope(self, lo, hi, gamma):
        s_tab = np.logspace(lo, hi, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tab = TabulatedEos(s_tab, s_tab**gamma)
        s = np.geomspace(s_tab[0], s_tab[-1], 2001)
        exact = Polytrope(1.0, gamma).enthalpy(s)
        assert np.max(np.abs(tab.enthalpy(s) / exact - 1.0)) <= 1e-9

    def test_table_over_two_hundred_decades_builds_without_warning(self):
        s_tab = np.logspace(-100.0, 100.0, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tab = TabulatedEos(s_tab, s_tab**3)
        assert tab.h_max == pytest.approx(1.5e200, rel=1e-6)


@st.composite
def power_law_tables(draw):
    """(k, gamma, table): f = k s^gamma sampled log-uniformly or jittered."""
    k = draw(st.floats(0.2, 5.0))
    gamma = draw(st.floats(1.4, 3.0))
    lo = draw(st.floats(-4.0, -2.0))
    hi = draw(st.floats(-1.0, 1.5))
    n = draw(st.integers(4, 40))
    u = np.log(np.logspace(lo, hi, n))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        u[1:-1] += rng.uniform(-0.4, 0.4, n - 2) * (u[1] - u[0])
    s = np.exp(u)
    return k, gamma, TabulatedEos(s, k * s**gamma)


@given(law=power_law_tables(), t=st.lists(st.floats(0.0, 1.0), min_size=1))
def test_power_law_table_reproduces_polytrope_enthalpy(law, t):
    k, gamma, tab = law
    s = tab.s_min * (tab.s_max / tab.s_min) ** np.array(t)
    ref = Polytrope(k, gamma)
    np.testing.assert_allclose(tab.enthalpy(s), ref.enthalpy(s), rtol=1e-8)


@given(law=power_law_tables(), t=st.lists(st.floats(0.0, 1.0), min_size=1))
def test_power_law_table_reproduces_polytrope_past_its_ends(law, t):
    # one array from a decade below the table to a decade above it, so each
    # map splits head, table and tail in the same call
    k, gamma, tab = law
    lo, hi = tab.s_min / 10.0, tab.s_max * 10.0
    s = np.concatenate(
        ([0.0, tab.s_min, tab.s_max], lo * (hi / lo) ** np.array(t))
    )
    ref = Polytrope(k, gamma)
    for name, rtol in (
        ("pressure", 1e-10), ("internal_energy", 1e-8), ("enthalpy", 1e-8)
    ):
        np.testing.assert_allclose(
            getattr(tab, name)(s), getattr(ref, name)(s), rtol=rtol, err_msg=name
        )


@given(eos=tables(), t=st.floats(0.0, 1.0))
def test_table_enthalpy_inverse_round_trips(eos, t):
    # from the power-law head below the table to the top of its range
    h_lo = eos.enthalpy(eos.s_min / 10.0)
    h = float(h_lo * (eos.h_max / h_lo) ** t)
    assert abs(eos.enthalpy(eos.enthalpy_inverse(h)) - h) <= 1e-10 * max(1.0, h)


@given(eos=tables())
def test_table_maps_are_continuous_at_the_table_ends(eos):
    # each end value against the next double on the power-law side; a
    # missing tail offset of I shows only here, since it is about 0 for a
    # table of a single power law
    for end, past in ((eos.s_min, np.nextafter(eos.s_min, 0.0)),
                      (eos.s_max, np.nextafter(eos.s_max, np.inf))):
        for name in ("pressure", "internal_energy", "enthalpy"):
            at_end, beyond = getattr(eos, name)(end), getattr(eos, name)(past)
            assert beyond == pytest.approx(at_end, rel=1e-12), name
    h_above = np.nextafter(eos.h_min, np.inf)
    assert eos.enthalpy_inverse(h_above) == pytest.approx(
        eos.enthalpy_inverse(eos.h_min), rel=1e-12
    )


def test_density_slope_is_continuous_at_h_min():
    # the head polytrope's slope just below h_min, 1 / A'' just above; with
    # PCHIP's end slope for log f they were 1.6e-4 apart on this table
    s = np.geomspace(1e-3, 10.0, 40)
    tab = TabulatedEos(s, 0.7 * s**1.6 + 1.9 * s**2.7)
    below, above = (
        tab.density_slope(tab.enthalpy_inverse(h), h)
        for h in tab.h_min * np.array([1.0 - 1e-12, 1.0 + 1e-12])
    )
    assert above == pytest.approx(below, rel=1e-10)


@st.composite
def knot_data(draw):
    """(x, y, dydx, queries): strictly increasing knots with spacings over
    four decades, values and slopes of either sign or zero, and queries at
    every knot, at random points between the ends and a little past them."""
    n = draw(st.integers(3, 12))
    steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1))
    x = draw(st.floats(-10.0, 10.0)) + np.concatenate(([0.0], np.cumsum(steps)))
    values = st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n)
    y = np.array(draw(values)) / 1e4
    dydx = np.array(draw(values)) / 1e4
    t = np.array(draw(st.lists(st.floats(-0.05, 1.05), min_size=1, max_size=20)))
    queries = np.concatenate((x, x[0] + t * (x[-1] - x[0])))
    return x, y, dydx, queries


@given(data=knot_data())
def test_numpy_interpolants_match_scipy(data):
    # round-off is relative to the size of the cubic's terms, bounded by
    # the largest value and slope over the knots
    x, y, dydx, q = data
    ref = PchipInterpolator(x, y)
    slopes = pchip_slopes(x, y)
    slope_of_y = np.max(np.abs(y)) / np.min(np.diff(x))
    np.testing.assert_allclose(
        slopes, ref.derivative()(x), rtol=1e-13, atol=1e-13 * slope_of_y
    )
    for ours, theirs, d in (
        (CubicHermite(x, y, slopes), ref, slopes),
        (CubicHermite(x, y, dydx), CubicHermiteSpline(x, y, dydx), dydx),
    ):
        i, dx = ours.locate(q)
        inside = np.clip(np.searchsorted(x, q, side="right") - 1, 0, x.size - 2)
        np.testing.assert_array_equal(i, inside)
        np.testing.assert_array_equal(dx, q - x[i])
        size = np.max(np.abs(y)) + np.max(np.abs(d)) * np.max(np.diff(x))
        value, slope = ours.value_and_slope(i, dx)
        for v in (ours.value(i, dx), value):
            np.testing.assert_allclose(v, theirs(q), rtol=1e-13, atol=1e-13 * size)
        np.testing.assert_allclose(
            slope, theirs.derivative()(q),
            rtol=1e-13, atol=1e-13 * (np.max(np.abs(d)) + slope_of_y),
        )
