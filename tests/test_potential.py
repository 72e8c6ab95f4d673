"""Gravity kernel, core potential, and rotation law tests.

The kernel is checked against the closed-form potential of a uniform ball
(interior and exterior), operator symmetry, and the far-field point-mass
limit with a quadrupole-sized envelope; built and applied in threads it must
give the same bits as on one thread.  The complete elliptic integral is
checked against its power series and, to round-off, against the scipy
special function, which evaluates the same Cephes approximation.
"""

import sys
import threading

import numpy as np
import pytest
from scipy.special import ellipk

import corequilib as cq


def elliptic_k_series(m, terms=80):
    """K(m) = (pi/2) * sum ((2n-1)!!/(2n)!!)^2 m^n, summed directly."""
    total = 0.0
    coeff = 1.0
    for n in range(terms):
        if n > 0:
            coeff *= (2.0 * n - 1.0) / (2.0 * n)
        total += coeff**2 * m**n
    return 0.5 * np.pi * total


def ball_field(grid, a, rho0):
    R, Z = grid.meshes()
    vals = np.where(R**2 + Z**2 <= a**2, rho0, 0.0)
    return cq.DensityField(grid, vals)


def ball_potential_exact(a, rho0, dist):
    """Uniform-ball potential at distance dist from the center."""
    mass = (4.0 / 3.0) * np.pi * a**3 * rho0
    inside = dist <= a
    return np.where(
        inside,
        2.0 * np.pi * rho0 * (a**2 - dist**2 / 3.0),
        mass / np.maximum(dist, 1e-300),
    )


class TestEllipticK:
    def test_zero_modulus(self):
        assert cq.elliptic_k(0.0) == pytest.approx(np.pi / 2.0, rel=1e-15)

    def test_against_series_and_scipy(self):
        for m in (0.1, 0.5, 0.9):
            val = cq.elliptic_k(m)
            assert val == pytest.approx(elliptic_k_series(m, 400), rel=1e-12)
            assert val == pytest.approx(float(ellipk(m)), rel=1e-13)

    def test_known_value(self):
        assert cq.elliptic_k(0.5) == pytest.approx(1.8540746773013719, rel=1e-12)

    def test_near_singular_endpoint(self):
        assert cq.elliptic_k(0.99) == pytest.approx(float(ellipk(0.99)), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            cq.elliptic_k(1.0)
        with pytest.raises(ValueError):
            cq.elliptic_k(-0.1)

    def test_array_input(self):
        m = np.array([0.0, 0.3, 0.8])
        np.testing.assert_allclose(cq.elliptic_k(m), ellipk(m), rtol=1e-12)

    def test_matches_scipy_to_round_off(self):
        # uniform in [0, 1), then up to the logarithmic singularity at m = 1
        m = np.random.default_rng(20261018).random(100_000)
        np.testing.assert_allclose(cq.elliptic_k(m), ellipk(m), rtol=1e-15, atol=0)
        m = 1.0 - np.logspace(-15.0, 0.0, 3001)
        np.testing.assert_allclose(cq.elliptic_k(m), ellipk(m), rtol=1e-15, atol=0)


class TestKernelAgainstBall:
    def test_interior_and_exterior_match_closed_form(self):
        grid = cq.CylGrid(1.0, 1.0, 128, 128)
        fld = ball_field(grid, 0.2, 1.0)
        phi = cq.kernel_for(grid).apply(fld.values)
        R, Z = grid.meshes()
        exact = ball_potential_exact(0.2, 1.0, np.sqrt(R**2 + Z**2))
        rel = np.abs(phi - exact) / exact
        assert float(rel.max()) <= 0.02

    def test_zero_field_zero_potential(self):
        grid = cq.CylGrid(1.0, 1.0, 32, 32)
        phi = cq.kernel_for(grid).apply(np.zeros((32, 32)))
        assert np.all(phi == 0.0)

    def test_operator_symmetry(self):
        grid = cq.CylGrid(1.0, 1.0, 48, 48)
        kernel = cq.kernel_for(grid)
        f1 = cq.random_blob_field(grid, np.random.default_rng(11))
        f2 = cq.random_blob_field(grid, np.random.default_rng(22))
        left = float(np.sum(f1.values * kernel.apply(f2.values) * grid.vol))
        right = float(np.sum(f2.values * kernel.apply(f1.values) * grid.vol))
        scale = max(abs(left), abs(right))
        assert abs(left - right) <= 1e-10 * scale

    def test_monotone_under_added_mass(self):
        grid = cq.CylGrid(1.0, 1.0, 48, 48)
        kernel = cq.kernel_for(grid)
        f1 = cq.random_blob_field(grid, np.random.default_rng(5))
        f2 = cq.random_blob_field(grid, np.random.default_rng(6))
        phi1 = kernel.apply(f1.values)
        phi12 = kernel.apply(f1.values + f2.values)
        assert np.all(phi12 - phi1 >= -1e-12 * phi12.max())

    def test_far_field_point_mass_limit(self):
        grid = cq.CylGrid(1.0, 1.0, 128, 128)
        kernel = cq.kernel_for(grid)
        R, Z = grid.meshes()
        a_r, a_z = 0.12, 0.06
        vals = np.where((R / a_r) ** 2 + (Z / a_z) ** 2 <= 1.0, 1.0, 0.0)
        fld = cq.DensityField(grid, vals)
        mass = cq.total_mass(fld)
        phi = kernel.apply(fld.values)

        def deviation(i, j):
            dist = float(np.hypot(grid.r[i], grid.z[j]))
            return abs(phi[i, j] * dist / mass - 1.0), dist

        j_mid = grid.n_z // 2
        dev_a, d_a = deviation(0, int(np.argmin(np.abs(grid.z - 0.5))))
        dev_b, d_b = deviation(0, int(np.argmin(np.abs(grid.z - 0.8))))
        dev_c, d_c = deviation(int(np.argmin(np.abs(grid.r - 0.85))), j_mid)
        assert dev_a <= (a_r / d_a) ** 2
        assert dev_b <= (a_r / d_b) ** 2
        assert dev_c <= (a_r / d_c) ** 2
        assert dev_b < dev_a

    def test_kernel_larger_than_physical_memory_is_refused(self, monkeypatch):
        monkeypatch.setattr(cq.potential, "_physical_memory_bytes", lambda: 64)
        with pytest.raises(cq.GridError, match=r"needs 270336 bytes.* 64 bytes"):
            cq.AxiKernel(cq.CylGrid(1.0, 1.0, 32, 32))

    def test_kernel_is_a_real_spectrum(self):
        kernel = cq.kernel_for(cq.CylGrid(1.0, 2.0, 16, 24))
        assert kernel._fw.dtype == np.float64
        assert kernel._fw.shape == (25, 16, 16)
        assert kernel._fw.flags["C_CONTIGUOUS"]

    def test_kernel_cache_returns_same_object(self):
        k1 = cq.kernel_for(cq.CylGrid(1.0, 1.0, 16, 16))
        k2 = cq.kernel_for(cq.CylGrid(1.0, 1.0, 16, 16))
        assert k1 is k2


#: a grid whose kernel (12.7 MB) is above the two-thread threshold
THREADED_GRID = cq.CylGrid(2.0, 1.5, 128, 96)


class TestKernelThreads:
    def test_threshold_follows_the_kernel_size(self):
        assert cq.AxiKernel(cq.CylGrid(2.0, 2.0, 96, 96), threads=2).threads == 1
        assert cq.AxiKernel(THREADED_GRID, threads=2).threads == 2
        assert cq.AxiKernel(THREADED_GRID, threads=1).threads == 1

    @pytest.mark.parametrize("grid,threads,bytes_per_thread", [
        (THREADED_GRID, 2, cq.potential.KERNEL_BYTES_PER_THREAD),
        # more threads than cores, on blocks of unequal length
        (cq.CylGrid(1.0, 1.0, 24, 40), 5, 1),
    ])
    def test_thread_count_changes_no_bits(
        self, monkeypatch, grid, threads, bytes_per_thread
    ):
        monkeypatch.setattr(cq.potential, "KERNEL_BYTES_PER_THREAD", bytes_per_thread)
        values = cq.random_blob_field(grid, np.random.default_rng(3)).values
        alive = threading.active_count()
        serial = cq.AxiKernel(grid, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = cq.AxiKernel(grid, threads=threads)
            applied = threaded.apply(values)
        finally:
            sys.setswitchinterval(interval)
        assert threaded.threads == threads
        np.testing.assert_array_equal(threaded._fw, serial._fw)
        np.testing.assert_array_equal(applied, serial.apply(values))
        assert threading.active_count() == alive

    def test_helper_thread_error_reaches_the_caller(self, monkeypatch):
        real = cq.potential.elliptic_k

        def fails_in_helpers(m):
            if threading.current_thread() is not threading.main_thread():
                raise ValueError("raised in a helper thread")
            return real(m)

        monkeypatch.setattr(cq.potential, "elliptic_k", fails_in_helpers)
        alive = threading.active_count()
        with pytest.raises(ValueError, match="raised in a helper thread"):
            cq.AxiKernel(THREADED_GRID, threads=2)
        assert threading.active_count() == alive

    def test_started_helpers_are_joined_when_a_start_fails(self, monkeypatch):
        monkeypatch.setattr(cq.potential, "KERNEL_BYTES_PER_THREAD", 1)
        start = threading.Thread.start
        started = []

        def start_once(thread):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", start_once)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            cq.AxiKernel(cq.CylGrid(1.0, 1.0, 24, 40), threads=3)
        assert len(started) == 1 and not started[0].is_alive()


class TestCorePotential:
    def test_zero_when_mu_or_density_vanishes(self, monkeypatch):
        grid = cq.CylGrid(1.0, 1.0, 32, 32)
        kernel = cq.kernel_for(grid)
        core = cq.CoreRegion.spheroid(0.15, 0.15, 2.0)
        hollow = cq.CoreRegion.spheroid(0.15, 0.15, 0.0)

        def no_mask(self, grid):
            raise AssertionError("a vanishing core potential built the mask")

        monkeypatch.setattr(cq.CoreRegion, "mask", no_mask)
        assert np.all(cq.core_potential(kernel, core, 0.0) == 0.0)
        assert np.all(cq.core_potential(kernel, hollow, 1.0) == 0.0)

    def test_negative_mu_rejected(self):
        grid = cq.CylGrid(1.0, 1.0, 32, 32)
        core = cq.CoreRegion.spheroid(0.15, 0.15, 2.0)
        with pytest.raises(ValueError):
            cq.core_potential(cq.kernel_for(grid), core, -1.0)

    def test_exterior_matches_point_mass_of_core(self):
        grid = cq.CylGrid(1.0, 1.0, 64, 64)
        kernel = cq.kernel_for(grid)
        core = cq.CoreRegion.spheroid(0.15, 0.15, 2.0)
        mask = core.mask(grid)
        core_mass = float(np.sum(np.where(mask, 2.0, 0.0) * grid.vol))
        phi = cq.core_potential(kernel, core, 1.0)
        for target in (0.4, 0.6, 0.8):
            j = int(np.argmin(np.abs(grid.z - target)))
            dist = float(np.hypot(grid.r[0], grid.z[j]))
            assert phi[0, j] == pytest.approx(core_mass / dist, rel=0.02)

    def test_mu_scales_linearly(self):
        grid = cq.CylGrid(1.0, 1.0, 32, 32)
        kernel = cq.kernel_for(grid)
        core = cq.CoreRegion.spheroid(0.15, 0.15, 2.0)
        one = cq.core_potential(kernel, core, 1.0)
        two = cq.core_potential(kernel, core, 2.0)
        np.testing.assert_array_equal(two, 2.0 * one)

    def test_validation_accepts_physical_core_field(self):
        grid = cq.CylGrid(1.0, 1.0, 64, 64)
        core = cq.CoreRegion.spheroid(0.15, 0.15, 2.0)
        phi = cq.core_potential(cq.kernel_for(grid), core, 1.0)
        report = cq.validate_core_potential(phi, core, grid)
        assert report.positive
        assert report.decays_outward
        assert report.monotone_above_core
        assert report.passed

    def test_validation_rejects_zero_and_rising_fields(self):
        grid = cq.CylGrid(1.0, 1.0, 64, 64)
        core = cq.CoreRegion.spheroid(0.15, 0.15, 2.0)
        zero_report = cq.validate_core_potential(
            np.zeros((64, 64)), core, grid
        )
        assert not zero_report.passed

        R, Z = grid.meshes()
        rising = 1.0 + Z**2
        rising_report = cq.validate_core_potential(rising, core, grid)
        assert not rising_report.monotone_above_core
        assert not rising_report.passed


class TestRotationLaw:
    def test_constant_closed_form(self):
        law = cq.RotationLaw.constant(2.0)
        assert law.j_values(np.array([0.0]))[0] == 0.0
        assert law.j_values(np.array([1.5]))[0] == pytest.approx(4.5, rel=1e-14)

    def test_zero_rotation(self):
        law = cq.RotationLaw.constant(0.0)
        grid = cq.CylGrid(1.0, 1.0, 16, 16)
        assert np.all(cq.rotation_potential(law, grid) == 0.0)

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            cq.RotationLaw.constant(-1.0)

    def test_profile_matches_closed_form_integral(self):
        s = np.linspace(0.0, 2.0, 401)
        law = cq.RotationLaw.profile(s, (1.0 + s) ** -2)

        def j_exact(r):
            u = 1.0 + r
            return 1.0 / 6.0 - 0.5 / u**2 + 1.0 / (3.0 * u**3)

        for r in (0.0, 0.3, 1.0, 1.9):
            got = float(law.j_values(np.array([r]))[0])
            assert got == pytest.approx(j_exact(r), rel=1e-7, abs=2e-8)

    def test_profile_range_and_shape_validation(self):
        s = np.linspace(0.0, 1.0, 21)
        law = cq.RotationLaw.profile(s, np.ones_like(s))
        with pytest.raises(ValueError):
            law.j_values(np.array([1.5]))
        with pytest.raises(ValueError):
            cq.RotationLaw.profile(np.array([0.1, 0.2, 0.3, 0.4]), np.ones(4))
        with pytest.raises(ValueError):
            cq.RotationLaw.profile(np.array([0.0, 0.1, 0.2]), np.ones(3))
        with pytest.raises(ValueError):
            cq.RotationLaw.profile(s, -np.ones_like(s))

    def test_rotation_potential_is_z_independent(self):
        grid = cq.CylGrid(1.0, 1.0, 16, 24)
        law = cq.RotationLaw.constant(1.3)
        J = cq.rotation_potential(law, grid)
        assert J.shape == (16, 24)
        np.testing.assert_array_equal(J, np.broadcast_to(J[:, :1], J.shape))
        np.testing.assert_allclose(
            J[:, 0], 0.5 * 1.3**2 * grid.r**2, rtol=1e-14
        )


class TestEnvironment:
    def test_build_wires_rotation_and_core(self):
        grid = cq.CylGrid(1.0, 1.0, 32, 32)
        core = cq.CoreRegion.spheroid(0.15, 0.15, 2.0)
        law = cq.RotationLaw.constant(0.7)
        env = cq.Environment.build(grid, core, 1.5, law)
        np.testing.assert_allclose(
            env.J, cq.rotation_potential(law, grid), rtol=0.0, atol=0.0
        )
        np.testing.assert_array_equal(
            env.phi_core, cq.core_potential(env.kernel, core, 1.5)
        )


class TestBoundRatios:
    def test_ensemble_is_deterministic(self):
        grid = cq.CylGrid(1.0, 1.0, 24, 24)
        a = cq.ensemble_ratio_maxima(grid, n_fields=6, seed=77)
        b = cq.ensemble_ratio_maxima(grid, n_fields=6, seed=77)
        assert a == b
        assert all(np.isfinite(v) and v > 0.0 for v in a)

    def test_maxima_dominate_single_field(self):
        grid = cq.CylGrid(1.0, 1.0, 24, 24)
        max_int, max_sup = cq.ensemble_ratio_maxima(grid, n_fields=6, seed=77)
        fld = cq.random_blob_field(grid, np.random.default_rng(77))
        ratio_int, ratio_sup = cq.bound_ratios(fld, cq.kernel_for(grid))
        assert max_int >= ratio_int
        assert max_sup >= ratio_sup

    def test_zero_mass_rejected(self):
        grid = cq.CylGrid(1.0, 1.0, 24, 24)
        with pytest.raises(ValueError):
            cq.bound_ratios(
                cq.DensityField(grid, np.zeros((24, 24))), cq.kernel_for(grid)
            )
