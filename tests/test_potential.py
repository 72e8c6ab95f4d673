"""Gravity kernel, core potential, and rotation law tests.

The kernel is checked against the closed-form potential of a uniform ball
(interior and exterior), operator symmetry, and the far-field point-mass
limit with a quadrupole-sized envelope; it is built and applied on the
calling thread alone, in a fresh process without raising the peak resident
set by much more than the kernel.
The complete elliptic integral of the ring weights, ``_ellpk`` of 1 - m, is
checked against its power series and, to round-off, against the scipy
special function, which evaluates the same Cephes approximation.
"""

import ast
import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from scipy.special import ellipk, ellipkm1

import corequilib as cq
from corequilib.cli import main
from corequilib.scan import cell_config
from test_energy import problem


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
    return np.where(R**2 + Z**2 <= a**2, rho0, 0.0)


def ball_potential_exact(a, rho0, dist):
    """Uniform-ball potential at distance dist from the center."""
    mass = (4.0 / 3.0) * np.pi * a**3 * rho0
    inside = dist <= a
    return np.where(
        inside,
        2.0 * np.pi * rho0 * (a**2 - dist**2 / 3.0),
        mass / np.maximum(dist, 1e-300),
    )


def elliptic_k(m):
    """K(m) from the ring weights' ``_ellpk``, which takes 1 - m."""
    return cq.potential._ellpk(1.0 - np.asarray(m, dtype=float))


class TestEllipticK:
    def test_zero_modulus(self):
        assert float(elliptic_k(0.0)) == pytest.approx(np.pi / 2.0, rel=1e-15)

    def test_against_series_and_scipy(self):
        for m in (0.1, 0.5, 0.9):
            val = float(elliptic_k(m))
            assert val == pytest.approx(elliptic_k_series(m, 400), rel=1e-12)
            assert val == pytest.approx(float(ellipk(m)), rel=1e-13)

    def test_known_value(self):
        assert float(elliptic_k(0.5)) == pytest.approx(1.8540746773013719, rel=1e-12)

    def test_near_singular_endpoint(self):
        assert float(elliptic_k(0.99)) == pytest.approx(float(ellipk(0.99)), rel=1e-12)

    def test_array_input(self):
        m = np.array([0.0, 0.3, 0.8])
        np.testing.assert_allclose(elliptic_k(m), ellipk(m), rtol=1e-12)

    def test_matches_scipy_to_round_off(self):
        # uniform in [0, 1), then up to the logarithmic singularity at m = 1
        m = np.random.default_rng(20261018).random(100_000)
        np.testing.assert_allclose(elliptic_k(m), ellipk(m), rtol=1e-15, atol=0)
        m = 1.0 - np.logspace(-15.0, 0.0, 3001)
        np.testing.assert_allclose(elliptic_k(m), ellipk(m), rtol=1e-15, atol=0)


class TestKernelAgainstBall:
    def test_interior_and_exterior_match_closed_form(self):
        grid = cq.CylGrid(1.0, 1.0, 128, 128)
        fld = ball_field(grid, 0.2, 1.0)
        phi = cq.kernel_for(grid).apply(fld)
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
        left = float(np.sum(f1 * kernel.apply(f2) * grid.vol))
        right = float(np.sum(f2 * kernel.apply(f1) * grid.vol))
        scale = max(abs(left), abs(right))
        assert abs(left - right) <= 1e-10 * scale

    def test_monotone_under_added_mass(self):
        grid = cq.CylGrid(1.0, 1.0, 48, 48)
        kernel = cq.kernel_for(grid)
        f1 = cq.random_blob_field(grid, np.random.default_rng(5))
        f2 = cq.random_blob_field(grid, np.random.default_rng(6))
        phi1 = kernel.apply(f1)
        phi12 = kernel.apply(f1 + f2)
        assert np.all(phi12 - phi1 >= -1e-12 * phi12.max())

    def test_far_field_point_mass_limit(self):
        grid = cq.CylGrid(1.0, 1.0, 128, 128)
        kernel = cq.kernel_for(grid)
        R, Z = grid.meshes()
        a_r, a_z = 0.12, 0.06
        vals = np.where((R / a_r) ** 2 + (Z / a_z) ** 2 <= 1.0, 1.0, 0.0)
        mass = cq.total_mass(vals, grid)
        phi = kernel.apply(vals)

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
        # fewer than 192 radii: one dense leaf, the whole of the one buffer
        kernel = cq.kernel_for(cq.CylGrid(1.0, 2.0, 16, 24))
        assert kernel._fw.dtype == np.float64
        assert kernel._fw.shape == (25 * 16 * 16,)
        assert kernel._fw.flags["C_CONTIGUOUS"]
        ((lo, hi, leaf),) = kernel._leaves
        assert (lo, hi, leaf.shape) == (0, 16, (25, 16, 16))
        assert np.shares_memory(leaf, kernel._fw) and not kernel._pairs

    def test_kernel_of_192_radii_is_four_leaves_and_three_pairs(self):
        # halves of 96 and quarters of 48 radii; a pair's rank is
        # 8 + 3 ceil(log2 b) for its first range of b radii: 29 and 26
        grid = cq.CylGrid(2.0, 2.0, 192, 24)
        kernel = cq.AxiKernel(grid)
        assert [(lo, hi, leaf.shape) for lo, hi, leaf in kernel._leaves] == [
            (lo, lo + 48, (25, 48, 48)) for lo in (0, 48, 96, 144)
        ]
        assert [
            (lo, mid, hi, u.shape, v.shape, coef.shape)
            for lo, mid, hi, u, v, coef in kernel._pairs
        ] == [
            (0, 96, 192, (96, 29), (96, 29), (25, 29, 29)),
            (0, 48, 96, (48, 26), (48, 26), (25, 26, 26)),
            (96, 144, 192, (48, 26), (48, 26), (25, 26, 26)),
        ]
        views = [leaf for _, _, leaf in kernel._leaves]
        for *_, u, v, coef in kernel._pairs:
            for basis in (u, v):
                rank = basis.shape[1]
                np.testing.assert_allclose(basis.T @ basis, np.eye(rank), atol=1e-13)
            views += [u, v, coef]
        assert all(np.shares_memory(view, kernel._fw) for view in views)
        assert sum(view.size for view in views) == kernel._fw.size
        assert kernel._fw.nbytes == cq.potential.kernel_bytes(grid)

    def test_kernel_size_follows_from_the_grid_alone(self):
        # 32 leaves of 32 radii, and five levels of pairs: 1, 2, 4, 8 and
        # 16 pairs of 512 to 32 radii, of ranks 35, 32, 29, 26 and 23, each
        # level with bases over all 1024 radii; 0.44 GB against the 8.6 GB a
        # dense kernel would need
        grid = cq.CylGrid(2.0, 2.0, 1024, 1024)
        levels = [(1, 35), (2, 32), (4, 29), (8, 26), (16, 23)]
        words = 32 * 1025 * 32**2 + sum(n * 1025 * k**2 + 1024 * k for n, k in levels)
        assert cq.potential.kernel_bytes(grid) == 8 * words == 438_059_240
        assert cq.potential.kernel_bytes(grid) <= 0.6e9 < 1025 * 1024**2 * 8
        # fewer than 192 radii: one dense leaf, as before
        assert cq.potential.kernel_bytes(cq.CylGrid(2.0, 2.0, 96, 96)) == 97 * 96**2 * 8
        # 4 leaves of 48, and pairs of 96 and 48 radii, ranks 29 and 26
        words = 4 * 193 * 48**2 + 193 * 29**2 + 192 * 29 + 2 * 193 * 26**2 + 192 * 26
        assert cq.potential.kernel_bytes(cq.CylGrid(2.0, 2.0, 192, 192)) == 8 * words
        assert 8 * words == 17_699_976 <= 20e6
        # 8 leaves of 48, and pairs of 192, 96 and 48 radii, ranks 32, 29, 26
        levels = [(1, 32), (2, 29), (4, 26)]
        words = 8 * 385 * 48**2 + sum(n * 385 * k**2 + 384 * k for n, k in levels)
        assert cq.potential.kernel_bytes(cq.CylGrid(2.0, 2.0, 384, 384)) == 8 * words
        assert 8 * words == 73_700_624

    def test_memory_is_checked_before_anything_is_built(self, monkeypatch):
        monkeypatch.setattr(np, "empty", None)  # any allocation would fail
        # 192 x 16: every pair's weights fit in the leaves' pages, so the
        # build needs the kernel alone; 2200 x 8: one z of the top pair,
        # 1100 x 1100 radii, is more than the 680,760 words of its 64
        # leaves, and is built beside the kernel
        leaves, _ = cq.potential._layout(2200)
        assert 9 * sum((hi - lo) ** 2 for lo, hi in leaves) == 680_760 < 1100**2
        for grid, spill in [(cq.CylGrid(1.0, 1.0, 192, 16), 0),
                            (cq.CylGrid(2.0, 0.05, 2200, 8), 8 * 1100**2)]:
            need = cq.potential.kernel_bytes(grid) + spill
            for have in (need - 1, need):
                monkeypatch.setattr(cq.potential, "_physical_memory_bytes", lambda have=have: have)
                if have < need:
                    with pytest.raises(cq.GridError, match=(
                        r"needs %d bytes to build, more than the %d " % (need, have)
                    )):
                        cq.AxiKernel(grid)
                else:  # passes the check, and fails at the first allocation
                    with pytest.raises(TypeError):
                        cq.AxiKernel(grid)

    @pytest.mark.parametrize("r_max, z_max", [(2.0, 0.001), (0.001, 2.0)])
    def test_flat_and_tall_grids_keep_every_pair_below_the_residual_limit(self, r_max, z_max):
        # cells 250 times wider than tall, and 16,000 times taller than
        # wide: a build that returns has checked all seven pairs of three
        # levels
        kernel = cq.AxiKernel(cq.CylGrid(r_max, z_max, 384, 96))
        ranks = [u.shape[1] for *_, u, _, _ in kernel._pairs]
        assert ranks == [32, 29, 26, 26, 29, 26, 26]

    def test_a_pair_above_the_residual_limit_is_refused(self, monkeypatch, tmp_path, capsys):
        # rank 8 cannot hold the pairs of a 192-radius kernel to 1e-13
        monkeypatch.setattr(cq.potential, "_rank", lambda b: 8)
        with pytest.raises(FloatingPointError, match=r"rank-8 residual of .* above 1e-13"):
            cq.AxiKernel(cq.CylGrid(1.0, 1.0, 192, 8))
        raw = {
            "eos": {"kind": "polytrope", "k": 1.0, "gamma": 2.0},
            "grid": {"r_max": 2.0, "z_max": 2.0, "n_r": 192, "n_z": 8},
            "core": {"a_r": 0.5, "a_z": 0.5, "rho": 0.0, "mu": 0.0},
            "solver": {"mass": 1.0},
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw))
        cq.potential._shape_kernel.cache_clear()
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "numeric error: potential kernel block of radii "
        )

    def test_grids_of_one_shape_share_one_kernel(self):
        cq.potential._shape_kernel.cache_clear()
        base = cq.kernel_for(cq.CylGrid(1.0, 0.75, 24, 16))
        grown_grid = cq.CylGrid(1.5, 1.125, 24, 16)
        grown = cq.kernel_for(grown_grid)
        assert grown._fw is base._fw and grown.scale == 2.25
        assert grown.grid == grown_grid
        assert cq.potential._shape_kernel.cache_info().misses == 1
        values = cq.random_blob_field(base.grid, np.random.default_rng(5))
        np.testing.assert_array_equal(grown.apply(values), 2.25 * base.apply(values))
        built = cq.AxiKernel(grown_grid).apply(values)
        np.testing.assert_allclose(grown.apply(values), built, rtol=0, atol=1e-13 * np.max(built))
        # a power-of-two radius scales without rounding
        grid = cq.CylGrid(2.0, 1.5, 24, 16)
        np.testing.assert_array_equal(
            cq.kernel_for(grid).apply(values), cq.AxiKernel(grid).apply(values)
        )
        assert cq.kernel_for(cq.CylGrid(1.0, 1.0, 24, 16))._fw is not base._fw

    def test_every_retry_grid_of_a_sweep_of_extents_shares_its_base_kernel(self):
        # the extents {0.5, ..., 1.5}^2, grown by 1.5 as a scan grows them:
        # 56 of the 121 grown grids have z_max / r_max one ulp off the base
        extents = [round(0.5 + 0.1 * i, 10) for i in range(11)]
        off = 0
        for r_max, z_max in itertools.product(extents, extents):
            base = cq.CylGrid(r_max, z_max, 8, 8)
            cfg = {"grid": dataclasses.asdict(base), "core": {}}
            grown = cq.CylGrid(**cell_config(cfg, 0.0, 0.0, grow=1.5)["grid"])
            off += grown.z_max / grown.r_max != z_max / r_max
            cq.potential._shape_kernel.cache_clear()
            assert cq.kernel_for(grown)._fw is cq.kernel_for(base)._fw
            assert cq.potential._shape_kernel.cache_info().misses == 1
        assert off == 56


class TestRingWeights:
    # a 96^2 grid is one leaf; radii 96-191 of 192 x 64 are two leaves
    # of 48 and their pair; 100 x 30 has dz twice dr
    GRIDS = [
        (cq.CylGrid(2.0, 2.0, 96, 96), 0, 96),
        (cq.CylGrid(2.0, 2.0, 192, 64), 96, 192),
        (cq.CylGrid(1.0, 1.0, 100, 30), 0, 100),
    ]

    @staticmethod
    def formula(r_t, r_s, offsets, dr, dz):
        """4 K(m) / sqrt(sep2) dr dz, with scipy's K of 1 - m, formed without
        cancellation; K(4 r_t r_s / sep2) loses up to 5e-13 at neighbours."""
        off2 = offsets[:, None, None] ** 2
        sep2 = (r_t[:, None] + r_s) ** 2 + off2
        m1 = ((r_t[:, None] - r_s) ** 2 + off2) / sep2
        return 4.0 * ellipkm1(m1) / np.sqrt(sep2) * dr * dz

    @pytest.mark.parametrize("grid, lo, hi", GRIDS)
    def test_symmetric_on_a_leaf_bit_for_bit(self, grid, lo, hi):
        r, offsets = grid.r[lo:hi], grid.dz * np.arange(grid.n_z)
        w = cq.potential.ring_weights(r, r, offsets, grid.dr, grid.dz)
        assert w.shape == (grid.n_z, hi - lo, hi - lo)
        np.testing.assert_array_equal(w, w.transpose(0, 2, 1))

    @pytest.mark.parametrize("grid, lo, hi", GRIDS)
    def test_coincident_entry_is_the_rod_self_weight(self, grid, lo, hi):
        r, dr, dz = grid.r[lo:hi], grid.dr, grid.dz
        w = cq.potential.ring_weights(r, r, np.array([0.0]), dr, dz)[0]
        rod = 2.0 * (math.asinh(dz / dr) + math.asinh(dr / dz)) * dr * dz / r
        np.testing.assert_allclose(np.diagonal(w), rod, rtol=1e-15, atol=0.0)
        off = ~np.eye(hi - lo, dtype=bool)
        exact = self.formula(r, r, np.array([0.0]), dr, dz)
        np.testing.assert_allclose(w[off], exact[0][off], rtol=1e-14)

    @pytest.mark.parametrize("grid, lo, hi", GRIDS)
    def test_no_coincident_entry_off_the_diagonal_or_offset_zero(self, grid, lo, hi):
        r, dr, dz = grid.r, grid.dr, grid.dz
        mid = (lo + hi) // 2
        for r_t, r_s, offsets in (
            (r[lo:mid], r[mid:hi], dz * np.arange(grid.n_z)),
            (r[lo:hi], r[lo:hi], dz * np.arange(1, grid.n_z)),
        ):
            w = cq.potential.ring_weights(r_t, r_s, offsets, dr, dz)
            exact = self.formula(r_t, r_s, offsets, dr, dz)
            np.testing.assert_allclose(w, exact, rtol=1e-14)


def source_callers():
    """Each function name called in the package, with the set of scopes
    (``module.Class.function``) that call it."""
    src = os.path.dirname(os.path.abspath(cq.__file__))
    callers = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = scope + [child.name]
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "attr", getattr(func, "id", None))
                callers.setdefault(name, set()).add(".".join(scope))
            visit(child, inner)

    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                visit(ast.parse(fh.read()), [name[:-3]])
    return callers


def test_the_ring_weight_and_its_transform_are_computed_in_one_place():
    callers = source_callers()
    assert callers["_ellpk"] == {"potential.ring_weights"}
    assert callers["arcsinh"] == {"potential.ring_weights"}
    assert callers["rfft"] == {"potential._even_rfft", "potential.AxiKernel.apply"}
    assert "asinh" not in callers
    # and one place builds kernels, which every other grid of a shape scales
    assert callers["AxiKernel"] == {"potential._shape_kernel"}
    assert callers["scaled"] == {"potential.kernel_for"}


def test_one_place_checks_a_problem():
    # the core's cells and the rotation's potential are derived, and
    # checked, once, where the problem is built; the rest read them there
    callers = source_callers()
    assert callers["mask"] == {"solver.ProblemSpec.__post_init__"}
    assert callers["j_values"] == {"solver.ProblemSpec.__post_init__"}


#: builds the kernel of the grid of n_r x n_z cells given as arguments,
#: applies it 5 times, and prints the growth of the process's peak resident
#: set with the kernel's bytes
FRESH_BUILD = """
import sys
import numpy as np
import corequilib as cq

def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))

n_r, n_z = map(int, sys.argv[1:])
grid = cq.CylGrid(2.0, 2.0, n_r, n_z)
values = np.ones((n_r, n_z))
before = peak()
kernel = cq.AxiKernel(grid)
for _ in range(5):
    kernel.apply(values)
print(peak() - before, cq.potential.kernel_bytes(grid))
"""


@pytest.mark.parametrize("n_r, n_z", [
    (192, 192),  # each pair kept in the leaves' pages for both passes
    (384, 24),   # the top pair in two chunks of 12 z, built twice
])
def test_a_fresh_build_holds_little_beside_the_kernel(n_r, n_z):
    # on a 2-CPU x86-64 machine the 192^2 build grew 25.3 to 25.4 MB
    # against a bound of 27.7 MB, and the 384 x 24 one 10.6 to 11.1 MB
    # against 15.0 MB; with a separate weight buffer they grew 26.1 to
    # 27.2 MB and 15.7 MB, and a two-leaf layout that left its temporaries
    # resident grew 41.7 MB at 192^2
    try:
        with open("/proc/self/status") as fh:
            if not any(line.startswith("VmHWM:") for line in fh):
                pytest.skip("no VmHWM in /proc/self/status")
    except OSError:
        pytest.skip("no /proc/self/status")
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_BUILD, str(n_r), str(n_z)], capture_output=True,
        text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
    )
    assert proc.returncode == 0, proc.stderr
    grown, kernel = map(int, proc.stdout.split())
    assert grown <= kernel + 10_000_000


class TestKernelThreads:
    def test_the_build_starts_no_thread(self, monkeypatch):
        """Nor does the apply: both run on the calling thread."""
        def refuse(thread):
            raise RuntimeError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        # 192 radii: four leaves and three pairs
        grid = cq.CylGrid(2.0, 1.5, 192, 48)
        kernel = cq.AxiKernel(grid)
        phi = kernel.apply(cq.random_blob_field(grid, np.random.default_rng(3)))
        assert np.all(phi > 0.0)


class TestCorePotential:
    def test_zero_when_mu_or_density_vanishes(self, monkeypatch):
        grid = cq.CylGrid(1.0, 1.0, 32, 32)
        kernel = cq.kernel_for(grid)
        core = cq.CoreRegion.spheroid(0.15, 0.15, 2.0)
        hollow = cq.CoreRegion.spheroid(0.15, 0.15, 0.0)

        mask = core.mask(grid)

        def no_apply(self, values):
            raise AssertionError("a vanishing core potential applied the kernel")

        monkeypatch.setattr(cq.AxiKernel, "apply", no_apply)
        for shell, mu in ((core, 0.0), (hollow, 1.0)):
            phi = cq.core_potential(kernel, mask, shell.rho_core, mu)
            assert phi.shape == (32, 32) and np.all(phi == 0.0)

    def test_negative_mu_rejected(self):
        grid = cq.CylGrid(1.0, 1.0, 32, 32)
        core = cq.CoreRegion.spheroid(0.15, 0.15, 2.0)
        with pytest.raises(ValueError):
            cq.core_potential(cq.kernel_for(grid), core.mask(grid), 2.0, -1.0)

    def test_exterior_matches_point_mass_of_core(self):
        grid = cq.CylGrid(1.0, 1.0, 64, 64)
        kernel = cq.kernel_for(grid)
        core = cq.CoreRegion.spheroid(0.15, 0.15, 2.0)
        mask = core.mask(grid)
        core_mass = float(np.sum(np.where(mask, 2.0, 0.0) * grid.vol))
        phi = cq.core_potential(kernel, mask, 2.0, 1.0)
        for target in (0.4, 0.6, 0.8):
            j = int(np.argmin(np.abs(grid.z - target)))
            dist = float(np.hypot(grid.r[0], grid.z[j]))
            assert phi[0, j] == pytest.approx(core_mass / dist, rel=0.02)

    def test_mu_scales_linearly(self):
        grid = cq.CylGrid(1.0, 1.0, 32, 32)
        kernel = cq.kernel_for(grid)
        core = cq.CoreRegion.spheroid(0.15, 0.15, 2.0)
        mask = core.mask(grid)
        one = cq.core_potential(kernel, mask, 2.0, 1.0)
        two = cq.core_potential(kernel, mask, 2.0, 2.0)
        np.testing.assert_array_equal(two, 2.0 * one)


EMPTY_CORE = cq.CoreRegion.spheroid(0.0, 0.0, 0.0)


class TestRotationLaw:
    def test_constant_closed_form(self):
        law = cq.RotationLaw.constant(2.0)
        assert law.j_values(np.array([0.0]))[0] == 0.0
        assert law.j_values(np.array([1.5]))[0] == pytest.approx(4.5, rel=1e-14)

    def test_zero_rotation(self):
        grid = cq.CylGrid(1.0, 1.0, 16, 16)
        spec = problem(grid, EMPTY_CORE, 0.0, cq.RotationLaw.constant(0.0))
        assert np.all(spec.J == 0.0)

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

    def test_problem_keeps_j_per_radius(self):
        # one value per radius, which broadcasts over z
        grid = cq.CylGrid(1.0, 1.0, 16, 24)
        law = cq.RotationLaw.constant(1.3)
        spec = problem(grid, EMPTY_CORE, 0.0, law)
        assert spec.J.shape == (16, 1)
        np.testing.assert_array_equal(spec.J[:, 0], law.j_values(grid.r))
        np.testing.assert_allclose(
            spec.J[:, 0], 0.5 * 1.3**2 * grid.r**2, rtol=1e-14
        )


class TestEnvironment:
    def test_build_wires_rotation_and_core(self):
        grid = cq.CylGrid(1.0, 1.0, 32, 32)
        core = cq.CoreRegion.spheroid(0.15, 0.15, 2.0)
        spec = problem(grid, core, 1.5, cq.RotationLaw.constant(0.7))
        env = cq.Environment.build(spec)
        np.testing.assert_array_equal(spec.mask, core.mask(grid))
        np.testing.assert_array_equal(
            env.phi_core,
            1.5 * env.kernel.apply(np.where(spec.mask, 2.0, 0.0)),
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
            cq.bound_ratios(np.zeros((24, 24)), cq.kernel_for(grid))
