"""Property tests of the ring-kernel potential operator on random grids.

Hypothesis draws small grids (8 to 24 cells a side, arbitrary extents) and
random densities.  The operator must be linear, self-adjoint in the
volume-weighted inner product, scale as s^2 when the domain grows by s at a
fixed cell count, and agree with a plain reference operator kept here: the
same weights with K from the arithmetic-geometric mean, stored as a complex
spectrum and contracted with einsum.
"""

import numpy as np
from hypothesis import given, strategies as st

import corequilib as cq

grids = st.builds(
    cq.CylGrid,
    r_max=st.floats(0.25, 4.0),
    z_max=st.floats(0.25, 4.0),
    n_r=st.integers(8, 24),
    n_z=st.integers(8, 24),
)
seeds = st.integers(0, 2**32 - 1)


def random_density(grid, seed):
    """Non-negative samples with about a third of the cells empty."""
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.0, 1.0, (grid.n_r, grid.n_z))
    vals[rng.random(vals.shape) < 0.3] = 0.0
    return vals


def rel_err(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def elliptic_k_agm(m):
    """K(m) = pi / (2 AGM(1, sqrt(1 - m))), 20 sweeps."""
    a = np.ones_like(m)
    b = np.sqrt(1.0 - m)
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
    m = 4.0 * r_t * r_s / sep2
    diag = np.arange(grid.n_r)
    m[diag, diag, 0] = 0.0
    w = 4.0 * r_s * elliptic_k_agm(m) / np.sqrt(sep2) * (dr * dz)
    w[diag, diag, 0] = 2.0 * (np.arcsinh(dz / dr) + np.arcsinh(dr / dz)) * dr * dz
    circ = np.zeros((grid.n_r, grid.n_r, 2 * n_z))
    circ[:, :, :n_z] = w
    circ[:, :, n_z + 1:] = w[:, :, :0:-1]
    fw = np.fft.rfft(circ, axis=2)
    spec = np.fft.rfft(values, n=2 * n_z, axis=1)
    conv = np.einsum("ikf,kf->if", fw, spec)
    return np.fft.irfft(conv, n=2 * n_z, axis=1)[:, :n_z]


@given(grid=grids, seed=seeds, a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
def test_apply_is_linear(grid, seed, a, b):
    kernel = cq.AxiKernel(grid)
    u = random_density(grid, seed)
    v = random_density(grid, seed + 1)
    bu, bv = kernel.apply(u), kernel.apply(v)
    combined = kernel.apply(a * u + b * v)
    scale = abs(a) * np.max(np.abs(bu)) + abs(b) * np.max(np.abs(bv))
    assert np.max(np.abs(combined - (a * bu + b * bv))) <= 1e-13 * scale


@given(grid=grids, seed=seeds)
def test_apply_is_self_adjoint_in_the_volume_inner_product(grid, seed):
    kernel = cq.AxiKernel(grid)
    u = random_density(grid, seed)
    v = random_density(grid, seed + 1)
    left = float(np.sum(grid.vol * u * kernel.apply(v)))
    right = float(np.sum(grid.vol * v * kernel.apply(u)))
    assert abs(left - right) <= 1e-12 * max(abs(left), abs(right))


@given(grid=grids, s=st.floats(0.25, 4.0))
def test_kernel_of_a_grown_domain_scales_as_s_squared(grid, s):
    grown = cq.CylGrid(s * grid.r_max, s * grid.z_max, grid.n_r, grid.n_z)
    base = cq.AxiKernel(grid)._fw
    assert rel_err(cq.AxiKernel(grown)._fw, s**2 * base) <= 1e-13


@given(grid=grids, seed=seeds)
def test_apply_matches_the_reference_operator(grid, seed):
    values = random_density(grid, seed)
    want = reference_apply(grid, values)
    assert rel_err(cq.AxiKernel(grid).apply(values), want) <= 1e-13
