"""Property tests of the ring-kernel potential operator on random grids.

Hypothesis draws small grids (8 to 24 cells a side, arbitrary extents) and
random densities; their kernels are one dense leaf.  Grids of 192 to 260
radii, or of 384, and 8 to 16 rows have four or eight leaves of 32 to 63
radii and three or seven compressed pairs on two or three levels, and are
drawn for the same properties.  The operator must be linear, self-adjoint
in the volume-weighted inner product, scale as s^2 when the domain grows by
s at a fixed cell count, and agree with a plain reference operator kept here: the same weights with K
from the arithmetic-geometric mean, stored dense as a complex spectrum and
contracted with einsum.  Both form 1 - m without cancellation; from
4 r r' / sep2 it loses digits at neighbouring rings, and a 384 x 8 grid of
r_max 0.25 grown by 2.5 then scales as s^2 only to 1.1e-13.  Four fixed
grids take each path of a pair's build: its weights kept in the leaves'
pages, in two or five chunks there, or one z at a time beside them.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import corequilib as cq

grids = st.builds(
    cq.CylGrid,
    r_max=st.floats(0.25, 4.0),
    z_max=st.floats(0.25, 4.0),
    n_r=st.integers(8, 24),
    n_z=st.integers(8, 24),
)
#: grids whose kernels have compressed pairs: on two levels up to 255
#: radii, and on three from 256
paired_grids = st.builds(
    cq.CylGrid,
    r_max=st.floats(0.25, 4.0),
    z_max=st.floats(0.25, 4.0),
    n_r=st.one_of(st.integers(192, 260), st.just(384)),
    n_z=st.integers(8, 16),
)
seeds = st.integers(0, 2**32 - 1)
#: coefficients of a linear combination: zero, or at least 1e-100 in size,
#: so that ``a * u``, ``b * v`` and the apply's sums stay far above the
#: subnormal range, where round-off is absolute and no relative bound holds
coefficients = st.one_of(
    st.just(0.0), st.floats(1e-100, 3.0), st.floats(-3.0, -1e-100)
)
#: each example of a paired grid builds a kernel and, for the reference, a
#: dense weight table of up to 384 x 384 x 16
paired = settings(max_examples=10)


def random_density(grid, seed):
    """Non-negative samples with about a third of the cells empty."""
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.0, 1.0, (grid.n_r, grid.n_z))
    vals[rng.random(vals.shape) < 0.3] = 0.0
    return vals


def rel_err(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def elliptic_k_agm(m1):
    """K(m) = pi / (2 AGM(1, sqrt(m1))), m1 = 1 - m, 20 sweeps."""
    a = np.ones_like(m1)
    b = np.sqrt(m1)
    for _ in range(20):
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    return np.pi / (2.0 * a)


def reference_apply(grid, values):
    """Whole-array weight table, complex spectrum, einsum contraction."""
    r, dr, dz, n_z = grid.r, grid.dr, grid.dz, grid.n_z
    offsets = dz * np.arange(n_z)
    r_t = r[:, None, None]
    r_s = r[None, :, None]
    sep2 = (r_t + r_s) ** 2 + offsets[None, None, :] ** 2
    m1 = ((r_t - r_s) ** 2 + offsets[None, None, :] ** 2) / sep2
    diag = np.arange(grid.n_r)
    m1[diag, diag, 0] = 1.0
    w = 4.0 * r_s * elliptic_k_agm(m1) / np.sqrt(sep2) * (dr * dz)
    w[diag, diag, 0] = 2.0 * (np.arcsinh(dz / dr) + np.arcsinh(dr / dz)) * dr * dz
    circ = np.zeros((grid.n_r, grid.n_r, 2 * n_z))
    circ[:, :, :n_z] = w
    circ[:, :, n_z + 1:] = w[:, :, :0:-1]
    fw = np.fft.rfft(circ, axis=2)
    spec = np.fft.rfft(values, n=2 * n_z, axis=1)
    conv = np.einsum("ikf,kf->if", fw, spec)
    return np.fft.irfft(conv, n=2 * n_z, axis=1)[:, :n_z]


def check_linear(grid, seed, a, b):
    kernel = cq.AxiKernel(grid)
    u = random_density(grid, seed)
    v = random_density(grid, seed + 1)
    bu, bv = kernel.apply(u), kernel.apply(v)
    combined = kernel.apply(a * u + b * v)
    scale = abs(a) * np.max(np.abs(bu)) + abs(b) * np.max(np.abs(bv))
    assert np.max(np.abs(combined - (a * bu + b * bv))) <= 1e-13 * scale


def check_self_adjoint(kernel, seed):
    grid = kernel.grid
    u = random_density(grid, seed)
    v = random_density(grid, seed + 1)
    left = float(np.sum(grid.vol * u * kernel.apply(v)))
    right = float(np.sum(grid.vol * v * kernel.apply(u)))
    assert abs(left - right) <= 1e-12 * max(abs(left), abs(right))


def check_grown_domain(grid, seed, s):
    # the potential, since a pair's bases do not scale with the domain
    grown = cq.CylGrid(s * grid.r_max, s * grid.z_max, grid.n_r, grid.n_z)
    values = random_density(grid, seed)
    base = cq.AxiKernel(grid).apply(values)
    assert rel_err(cq.AxiKernel(grown).apply(values), s**2 * base) <= 1e-13


def check_reference(grid, seed):
    values = random_density(grid, seed)
    want = reference_apply(grid, values)
    assert rel_err(cq.AxiKernel(grid).apply(values), want) <= 1e-13


@given(grid=grids, seed=seeds, a=coefficients, b=coefficients)
@example(grid=cq.CylGrid(1.0, 1.0, 8, 8), seed=0, a=0.0, b=1e-100)
def test_apply_is_linear(grid, seed, a, b):
    check_linear(grid, seed, a, b)


@given(grid=grids, seed=seeds)
def test_apply_is_self_adjoint_in_the_volume_inner_product(grid, seed):
    check_self_adjoint(cq.AxiKernel(grid), seed)


@given(grid=grids, seed=seeds, s=st.floats(0.25, 4.0))
def test_kernel_of_a_grown_domain_scales_as_s_squared(grid, seed, s):
    check_grown_domain(grid, seed, s)


@given(grid=grids, seed=seeds)
def test_apply_matches_the_reference_operator(grid, seed):
    check_reference(grid, seed)


@paired
@given(grid=paired_grids, seed=seeds, a=coefficients, b=coefficients)
@example(grid=cq.CylGrid(1.0, 1.0, 192, 8), seed=0, a=0.0, b=-1e-100)
def test_compressed_apply_is_linear(grid, seed, a, b):
    check_linear(grid, seed, a, b)


@paired
@given(grid=paired_grids, seed=seeds)
def test_compressed_apply_is_self_adjoint(grid, seed):
    check_self_adjoint(cq.AxiKernel(grid), seed)


@paired
@given(grid=paired_grids, seed=seeds, s=st.floats(0.25, 4.0))
@example(grid=cq.CylGrid(0.25, 1.0, 384, 8), seed=0, s=2.5)
def test_compressed_kernel_of_a_grown_domain_scales_as_s_squared(grid, seed, s):
    check_grown_domain(grid, seed, s)


@paired
@given(grid=paired_grids, seed=seeds)
@example(grid=cq.CylGrid(1.0, 1.0, 384, 8), seed=0)
def test_compressed_apply_matches_the_reference_operator(grid, seed):
    check_reference(grid, seed)


@pytest.mark.parametrize("grid, zs, apart", [
    # the top pair's 96 x 96 x 64 weights fit in the four leaves' 65 x 4 x
    # 48**2 = 599,040 words and are kept there for both passes
    (cq.CylGrid(1.3, 0.9, 192, 64), [64], False),
    # 192 x 192 x 8 = 294,912 weights against the eight leaves' 9 x 8 x
    # 48**2 = 165,888 words: two chunks of 4 z, built again to project
    (cq.CylGrid(1.3, 0.9, 384, 8), [4, 4] * 2, False),
    # two z of 257 x 257 fit in the 165,140 words of 16 leaves, so five
    # chunks; four would give one of 3 z, more than the leaves hold
    (cq.CylGrid(1.3, 0.9, 514, 9), [1, 2, 2, 2, 2] * 2, False),
    # one z of 1100 x 1100 = 1,210,000 weights is more than the 64 leaves'
    # 680,760 words, so each z is built in an array of its own
    (cq.CylGrid(2.0, 0.05, 2200, 8), [1] * 16, True),
], ids=["kept", "two-chunks", "five-chunks", "one-z-apart"])
def test_pairs_are_built_in_the_leaves_pages_or_one_z_apart(grid, zs, apart):
    calls = []

    def record(r_t, r_s, offsets, dr, dz, out=None):
        if len(r_t) == grid.n_r // 2:   # the top pair's
            calls.append((len(offsets), out.base.size))
        return ring_weights(r_t, r_s, offsets, dr, dz, out)

    ring_weights = cq.potential.ring_weights
    with mock.patch.object(cq.potential, "ring_weights", record):
        kernel = cq.AxiKernel(grid)
    assert [z for z, _ in calls] == zs
    assert all((size != kernel._fw.size) == apart for _, size in calls)
    if apart:   # a 1.5 s build, whose dense reference would take over 1 GB
        check_self_adjoint(kernel, 11)
        return
    values = random_density(grid, 11)
    assert rel_err(kernel.apply(values), reference_apply(grid, values)) <= 1e-13
