"""Grid, density-array, and core-region behavior.

Mass integrals are checked against closed forms (single cell, uniform ball,
truncated Gaussian) and the quadrature order is verified by refinement.
"""

import numpy as np
import pytest
from scipy.special import erf

import corequilib as cq


def ball_field(grid, a, rho0):
    R, Z = grid.meshes()
    return np.where(R**2 + Z**2 <= a**2, rho0, 0.0)


def gaussian_field(grid, sigma):
    R, Z = grid.meshes()
    return np.exp(-(R**2 + Z**2) / (2.0 * sigma**2))


def gaussian_mass_exact(grid, sigma):
    """Mass of the Gaussian over the finite cylinder, in closed form."""
    radial = 2.0 * np.pi * sigma**2 * (1.0 - np.exp(-grid.r_max**2 / (2.0 * sigma**2)))
    vertical = sigma * np.sqrt(2.0 * np.pi) * erf(grid.z_max / (sigma * np.sqrt(2.0)))
    return radial * vertical


class TestCylGrid:
    def test_geometry(self):
        grid = cq.CylGrid(1.0, 1.0, 10, 20)
        assert grid.dr == pytest.approx(0.1, rel=1e-15)
        assert grid.dz == pytest.approx(0.1, rel=1e-15)
        assert grid.r[0] == pytest.approx(0.05, rel=1e-15)
        assert grid.r[-1] == pytest.approx(0.95, rel=1e-15)
        assert grid.z[0] == pytest.approx(-0.95, rel=1e-15)
        assert grid.z[-1] == pytest.approx(0.95, rel=1e-15)
        np.testing.assert_allclose(grid.z, -grid.z[::-1], atol=1e-15)
        assert grid.vol.shape == (10, 1)
        assert grid.vol[3, 0] == pytest.approx(
            2.0 * np.pi * grid.r[3] * grid.dr * grid.dz, rel=1e-15
        )

    def test_validation(self):
        with pytest.raises(cq.GridError):
            cq.CylGrid(1.0, 1.0, 7, 16)
        with pytest.raises(cq.GridError):
            cq.CylGrid(1.0, 1.0, 16, 7)
        with pytest.raises(cq.GridError):
            cq.CylGrid(-1.0, 1.0, 16, 16)
        with pytest.raises(cq.GridError):
            cq.CylGrid(1.0, 0.0, 16, 16)
        # the box volume, then the squared extent, overflows: no numpy
        # warning (an error under this suite's filters) comes first
        for extent in (1e120, 1e200):
            with pytest.raises(OverflowError, match="grid extents overflow"):
                cq.CylGrid(extent, extent, 16, 16)


class TestMass:
    def test_single_cell_value(self):
        grid = cq.CylGrid(1.0, 1.0, 10, 20)
        vals = np.zeros((10, 20))
        vals[5, 7] = 3.0
        expected = 2.0 * np.pi * grid.r[5] * 3.0 * grid.dr * grid.dz
        assert cq.total_mass(vals, grid) == pytest.approx(expected, rel=1e-14)

    def test_zero_field(self):
        grid = cq.CylGrid(1.0, 1.0, 16, 16)
        assert cq.total_mass(np.zeros((16, 16)), grid) == 0.0

    def test_uniform_ball(self):
        grid = cq.CylGrid(1.0, 1.0, 256, 256)
        fld = ball_field(grid, 0.3, 2.0)
        exact = (4.0 / 3.0) * np.pi * 0.3**3 * 2.0
        assert cq.total_mass(fld, grid) == pytest.approx(exact, rel=0.01)

    def test_linearity(self):
        grid = cq.CylGrid(1.0, 1.0, 24, 24)
        rng = np.random.default_rng(42)
        f1 = rng.uniform(0.0, 1.0, (24, 24))
        f2 = rng.uniform(0.0, 1.0, (24, 24))
        combo = 2.0 * f1 + 0.5 * f2
        assert cq.total_mass(combo, grid) == pytest.approx(
            2.0 * cq.total_mass(f1, grid) + 0.5 * cq.total_mass(f2, grid), rel=1e-13
        )

    def test_smooth_field_second_order_convergence(self):
        sigma = 0.15
        errors = []
        for n in (32, 64, 128):
            grid = cq.CylGrid(1.0, 1.0, n, n)
            err = abs(
                cq.total_mass(gaussian_field(grid, sigma), grid)
                - gaussian_mass_exact(grid, sigma)
            )
            errors.append(err)
        for coarse, fine in zip(errors, errors[1:]):
            assert 2.5 < coarse / fine < 6.0


class TestRescale:
    def test_scales_exactly(self):
        grid = cq.CylGrid(1.0, 1.0, 16, 16)
        fld = np.full((16, 16), 0.7)
        out = cq.rescale_to_mass(fld, grid, 3.0)
        assert cq.total_mass(out, grid) == pytest.approx(3.0, rel=1e-13)
        np.testing.assert_allclose(
            out, fld * (3.0 / cq.total_mass(fld, grid)), rtol=1e-15
        )

    def test_identity_when_mass_matches(self):
        grid = cq.CylGrid(1.0, 1.0, 16, 16)
        fld = np.full((16, 16), 0.7)
        out = cq.rescale_to_mass(fld, grid, cq.total_mass(fld, grid))
        np.testing.assert_allclose(out, fld, rtol=1e-12)

    def test_zero_field_rejected(self):
        grid = cq.CylGrid(1.0, 1.0, 16, 16)
        with pytest.raises(cq.DegenerateFieldError):
            cq.rescale_to_mass(np.zeros((16, 16)), grid, 1.0)
        with pytest.raises(ValueError):
            cq.rescale_to_mass(np.ones((16, 16)), grid, -1.0)
        # a density of no finite mass, such as a diverged iterate
        with pytest.raises(ValueError, match="density values must be finite"):
            cq.rescale_to_mass(np.full((16, 16), np.nan), grid, 1.0)


class TestSupportAndBoundary:
    def test_support_extent_examples(self):
        grid = cq.CylGrid(1.0, 1.0, 10, 20)
        vals = np.zeros((10, 20))
        vals[5, 7] = 0.7
        assert cq.support_extent(vals, grid, 0.5) == (
            pytest.approx(0.55),
            pytest.approx(0.25),
        )
        assert cq.support_extent(vals, grid, 2.0) == (0.0, 0.0)
        assert cq.support_extent(np.zeros((10, 20)), grid) == (0.0, 0.0)

    def test_boundary_margin_detection(self):
        grid = cq.CylGrid(1.0, 1.0, 16, 16)
        center = np.zeros((16, 16))
        center[2, 8] = 1.0
        assert not cq.boundary_mass_exceeds(center, grid, 2, 0.01)

        outer = np.zeros((16, 16))
        outer[15, 8] = 1.0
        assert cq.boundary_mass_exceeds(outer, grid, 2, 0.5)

        z_edge = np.zeros((16, 16))
        z_edge[2, 0] = 1.0
        assert cq.boundary_mass_exceeds(z_edge, grid, 2, 0.5)

    def test_zero_field_exceeds_no_boundary_fraction(self):
        grid = cq.CylGrid(1.0, 1.0, 16, 16)
        zero = np.zeros((16, 16))
        assert cq.boundary_mass_exceeds(zero, grid, 2, 0.01) is False

    def test_boundary_fraction_threshold(self):
        grid = cq.CylGrid(1.0, 1.0, 16, 16)
        vals = np.zeros((16, 16))
        # equal masses inside and on the edge: edge fraction is exactly 1/2
        vals[2, 8] = 1.0 / grid.vol[2, 0]
        vals[15, 8] = 1.0 / grid.vol[15, 0]
        assert cq.boundary_mass_exceeds(vals, grid, 2, 0.4)
        assert not cq.boundary_mass_exceeds(vals, grid, 2, 0.6)

    def test_boundary_argument_validation(self):
        grid = cq.CylGrid(1.0, 1.0, 16, 16)
        ones = np.ones((16, 16))
        with pytest.raises(ValueError):
            cq.boundary_mass_exceeds(ones, grid, 2, 1.5)
        with pytest.raises(ValueError):
            cq.boundary_mass_exceeds(ones, grid, 0, 0.1)


class TestDensityFieldValidation:
    """A density enters from outside only through a field file: reading
    one checks its values and zeroes the core cells."""

    @staticmethod
    def file_with(tmp_path, grid, cell, value):
        vals = np.ones((grid.n_r, grid.n_z))
        path = tmp_path / "field.csv"
        cq.write_field_csv(vals, path, grid)
        lines = path.read_text().splitlines(keepends=True)
        row = 1 + cell[0] * grid.n_z + cell[1]
        lines[row] = lines[row].rsplit(",", 1)[0] + ",%r\n" % value
        path.write_text("".join(lines))
        return path

    def test_nonfinite_rejected(self, tmp_path):
        grid = cq.CylGrid(1.0, 1.0, 16, 16)
        path = self.file_with(tmp_path, grid, (3, 3), np.nan)
        with pytest.raises(ValueError, match="density values must be finite"):
            cq.read_field_csv(path, grid)

    def test_negative_rejected(self, tmp_path):
        grid = cq.CylGrid(1.0, 1.0, 16, 16)
        path = self.file_with(tmp_path, grid, (3, 3), -0.1)
        with pytest.raises(ValueError, match="density values must be non-negative"):
            cq.read_field_csv(path, grid)

    def test_mask_zeroed_on_construction_and_after_ops(self, tmp_path):
        grid = cq.CylGrid(1.0, 1.0, 24, 24)
        core = cq.CoreRegion.spheroid(0.3, 0.3, 5.0)
        mask = core.mask(grid)
        assert np.any(mask)
        path = tmp_path / "field.csv"
        cq.write_field_csv(np.ones((24, 24)), path, grid)
        fld = cq.read_field_csv(path, grid, mask)
        assert np.all(fld[mask] == 0.0) and np.all(fld[~mask] == 1.0)
        rescaled = cq.rescale_to_mass(fld, grid, 2.0)
        assert np.all(rescaled[mask] == 0.0)
        blob = np.where(mask, 0.0, cq.random_blob_field(grid, np.random.default_rng(3)))
        assert np.all(blob[mask] == 0.0)


class TestCoreRegion:
    def test_spheroid_mask_membership(self):
        grid = cq.CylGrid(1.0, 1.0, 10, 20)
        core = cq.CoreRegion.spheroid(0.35, 0.25, 1.0)
        mask = core.mask(grid)
        # cell centers: r = 0.05 + 0.1 i, z = -0.95 + 0.1 j
        assert mask[0, 10]            # (0.05, 0.05) well inside
        assert not mask[3, 10]        # (0.35, 0.05) outside the ellipse
        assert not mask[0, 12]        # (0.05, 0.25) on the z axis cap
        R, Z = grid.meshes()
        expected = (R / 0.35) ** 2 + (Z / 0.25) ** 2 <= 1.0
        np.testing.assert_array_equal(mask, expected)

    def test_core_must_fit_inside_grid(self):
        grid = cq.CylGrid(1.0, 1.0, 16, 16)
        with pytest.raises(cq.GridError):
            cq.CoreRegion.spheroid(1.5, 0.3, 1.0).mask(grid)
        with pytest.raises(cq.GridError):
            cq.CoreRegion.spheroid(0.3, 1.0, 1.0).mask(grid)

    #: cell centers r = 0.01, 0.03, ..., 0.79 and z = -0.45, -0.35, ..., 0.45
    PROFILE_GRID = cq.CylGrid(0.8, 0.5, 40, 10)

    def test_radius_profile_interpolation(self):
        core = cq.CoreRegion.from_profile(
            [-0.2, -0.1, 0.0, 0.1, 0.2],
            [0.1, 0.25, 0.3, 0.25, 0.1],
            2.0,
        )
        assert core.a_z == pytest.approx(0.2)
        assert core.rho_core == 2.0
        # a(z) is 0.275 at |z| = 0.05, 0.175 at |z| = 0.15 and 0 beyond
        # |z| = 0.2: 14, 9 and 0 cell centers lie inside
        inside = np.count_nonzero(core.mask(self.PROFILE_GRID), axis=0)
        np.testing.assert_array_equal(inside, [0, 0, 0, 9, 14, 14, 9, 0, 0, 0])

    def test_one_sided_profile_is_zero_on_the_other_side(self):
        core = cq.CoreRegion.from_profile([0.0, 0.1, 0.2], [0.3, 0.25, 0.1], 1.0)
        inside = np.count_nonzero(core.mask(self.PROFILE_GRID), axis=0)
        np.testing.assert_array_equal(inside, [0, 0, 0, 0, 0, 14, 9, 0, 0, 0])

    def test_profile_extent_reaches_the_next_zero_sample(self):
        # the interpolant is positive on |z| < 1, not only at z = 0
        core = cq.CoreRegion.from_profile([-1.0, 0.0, 1.0], [0.0, 0.5, 0.0], 1.0)
        assert core.a_z == 1.0
        assert core.a_r == 0.5
        with pytest.raises(cq.GridError, match="does not fit strictly inside"):
            core.mask(cq.CylGrid(2.0, 0.5, 32, 16))

    def test_zero_semi_axis_covers_no_cell(self):
        grid = cq.CylGrid(1.0, 1.0, 16, 9)   # a row of cell centres at z = 0
        for a_r, a_z in ((0.0, 0.0), (0.0, 0.5), (0.5, 0.0)):
            mask = cq.CoreRegion.spheroid(a_r, a_z, 1.0).mask(grid)
            assert mask.shape == (16, 9) and not mask.any()
        # a profile sampled only at z = 0 keeps its row there
        mask = cq.CoreRegion.from_profile([0.0], [0.3], 1.0).mask(grid)
        assert np.count_nonzero(mask) == np.count_nonzero(mask[:, 4]) == 5

    def test_validation(self):
        with pytest.raises(cq.GridError):
            cq.CoreRegion.spheroid(-0.1, 0.1, 1.0)
        with pytest.raises(ValueError):
            cq.CoreRegion.spheroid(0.1, 0.1, -1.0)
        with pytest.raises(ValueError):
            cq.CoreRegion.from_profile([0.0, 0.1], [0.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            cq.CoreRegion.from_profile([0.1, 0.0], [0.1, 0.2], 1.0)


class TestFieldCsv:
    def test_roundtrip_is_exact(self, tmp_path):
        grid = cq.CylGrid(1.0, 1.0, 12, 10)
        rng = np.random.default_rng(9)
        fld = rng.uniform(0.0, 1.0, (12, 10))
        path = tmp_path / "field.csv"
        cq.write_field_csv(fld, path, grid)
        back = cq.read_field_csv(path, grid)
        np.testing.assert_array_equal(back, fld)
        header = path.read_text().splitlines()[0]
        assert header == "r,z,rho"

    def test_bytes_equal_the_per_cell_writer(self, tmp_path):
        def write_per_cell(fld, path, grid):
            with open(path, "w", newline="") as fh:
                fh.write("r,z,rho\n")
                for i in range(grid.n_r):
                    for j in range(grid.n_z):
                        fh.write(
                            "%.17g,%.17g,%.17g\n"
                            % (grid.r[i], grid.z[j], fld[i, j])
                        )

        grid = cq.CylGrid(1.7, 0.3, 24, 18)
        rng = np.random.default_rng(17)
        exponents = rng.integers(-300, 300, (24, 18))
        vals = rng.uniform(0.0, 1.0, (24, 18)) * 10.0**exponents
        vals[rng.random((24, 18)) < 0.3] = 0.0
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        cq.write_field_csv(vals, fast, grid)
        write_per_cell(vals, slow, grid)
        assert fast.read_bytes() == slow.read_bytes()
        np.testing.assert_array_equal(cq.read_field_csv(fast, grid), vals)

    def test_grids_in_turn_match_the_per_cell_writer(self, tmp_path):
        def write_per_cell(fld, path, grid):
            with open(path, "w", newline="") as fh:
                fh.write("r,z,rho\n")
                for i in range(grid.n_r):
                    for j in range(grid.n_z):
                        fh.write(
                            "%.17g,%.17g,%.17g\n"
                            % (grid.r[i], grid.z[j], fld[i, j])
                        )

        rng = np.random.default_rng(23)
        square = cq.CylGrid(2.0, 2.0, 24, 24)
        tall = cq.CylGrid(1.3, 0.7, 24, 40)
        core = cq.CoreRegion.spheroid(0.4, 0.2, 5.0)
        for k, (grid, masked) in enumerate(
            [(square, False), (tall, False), (square, True), (tall, True)]
        ):
            mask = core.mask(grid) if masked else False
            fld = np.where(mask, 0.0, rng.uniform(0.0, 1.0, (grid.n_r, grid.n_z)))
            if masked:
                assert np.any(mask) and np.all(fld[mask] == 0.0)
            fast, slow = tmp_path / ("fast%d.csv" % k), tmp_path / ("slow%d.csv" % k)
            cq.write_field_csv(fld, fast, grid)
            write_per_cell(fld, slow, grid)
            assert fast.read_bytes() == slow.read_bytes()

    def test_grid_mismatch_detected(self, tmp_path):
        grid = cq.CylGrid(1.0, 1.0, 12, 10)
        other = cq.CylGrid(2.0, 1.0, 12, 10)
        path = tmp_path / "field.csv"
        cq.write_field_csv(np.ones((12, 10)), path, grid)
        with pytest.raises(cq.GridError):
            cq.read_field_csv(path, other)
        # every row without its rho: the right count, one column short
        path.write_text("".join(
            line.rsplit(",", 1)[0] + "\n" for line in path.read_text().splitlines()
        ))
        with pytest.raises(cq.GridError, match="has 2 columns, not r,z,rho"):
            cq.read_field_csv(path, grid)


def test_random_blob_determinism():
    grid = cq.CylGrid(1.0, 1.0, 24, 24)
    a = cq.random_blob_field(grid, np.random.default_rng(123))
    b = cq.random_blob_field(grid, np.random.default_rng(123))
    c = cq.random_blob_field(grid, np.random.default_rng(124))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(a >= 0.0)
