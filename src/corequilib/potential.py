"""Newtonian potential of axisymmetric mass, core potential, rotation potential.

Conventions: G = 1, and the potential is kept positive, so a point mass M
contributes M/|x - y|.  The operator is written B; the equilibrium relation
balances the enthalpy against B(rho) + J + mu*Phi_core.

For an axisymmetric density the 3-d convolution with 1/|x - y| reduces to a
2-d sum over source rings,

    B(r, z) = sum over (r', z') of rho * 4 r' K(m) / sqrt((r+r')^2 + (z-z')^2)
              * dr * dz,   m = 4 r r' / ((r+r')^2 + (z-z')^2),

with K the complete elliptic integral of the first kind in the parameter
convention (m = k^2).  The ring-to-itself weight is singular; it is replaced
by the closed-form self-potential of a uniform rod of rectangular cross
section dr x dz, which is a consistent second-order regularization (the
uniform-sphere acceptance test pins its accuracy).  ``ring_weights`` has both.

The kernel depends on z only through |z - z'|, so applying it is a discrete
convolution along z.  Through a length 2*n_z real FFT each apply is one
matrix product per frequency, at most O(n_r^2 n_z) work in place of
O(n_r^2 n_z^2).  The circulant embedding of the weights is even in the z
offset, so their transform is real, and the products run through BLAS on
the real and imaginary parts of the density's transform at once.

The kernel is stored as a hierarchy on the radii (``AxiKernel``): dense
diagonal leaves, and each off-diagonal pair of ranges once, as orthonormal
r-bases shared by all frequencies, of a rank that grows with the log of
their length, and a small coefficient matrix per frequency.  A grid of
fewer than 192 radii is one leaf, and a larger one has leaves of 32 to 63
radii.  The stored size, ``kernel_bytes``, follows from the grid alone: a
192^2 kernel stores 17.7 MB where a dense one would need 56.9 MB, and a
1024^2 kernel 0.44 GB instead of 8.6 GB.

A kernel is built on the calling thread.  Applying a large one is split
across threads, up to the CPU budget its caller passes
(``COREQUILIB_THREADS`` on the command line): the products are bound by
memory bandwidth and run in BLAS with the interpreter lock released, so the
frequencies split into contiguous blocks, one per thread.  A block's
arithmetic does not depend on the thread that runs it, so neither does any
result bit.
"""

import copy
import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .field import CylGrid, GridError, random_blob_field

# Coefficients of Cephes ``ellpk`` (S. L. Moshier, Methods and Programs for
# Mathematical Functions, 1989), highest degree first.
_ELLPK_P = (
    1.37982864606273237150e-4, 2.28025724005875567385e-3,
    7.97404013220415179367e-3, 9.85821379021226008714e-3,
    6.87489687449949877925e-3, 6.18901033637687613229e-3,
    8.79078273952743772254e-3, 1.49380448916805252718e-2,
    3.08851465246711995998e-2, 9.65735902811690126535e-2,
    1.38629436111989062502e0,
)
_ELLPK_Q = (
    2.94078955048598507511e-5, 9.14184723865917226571e-4,
    5.94058303753167793257e-3, 1.54850516649762399335e-2,
    2.39089602715924892727e-2, 3.01204715227604046988e-2,
    3.73774314173823228969e-2, 4.88280347570998239232e-2,
    7.03124996963957469739e-2, 1.24999999999870820058e-1,
    4.99999999999999999821e-1,
)


def _ellpk(x):
    """K(1 - x) on an array of 0 < x <= 1, which the caller forms exactly.

    The complete elliptic integral of the first kind, parameter m = 1 - x,
    as ``K = P(x) - log(x) Q(x)`` with two degree-10 polynomials, the
    approximation ``scipy.special.ellipk`` evaluates: its relative error is
    a few 1e-16, the logarithmic singularity at x = 0 included.
    """
    p, q = np.full_like(x, _ELLPK_P[0]), np.full_like(x, _ELLPK_Q[0])
    for a, b in zip(_ELLPK_P[1:], _ELLPK_Q[1:]):
        p *= x
        p += a
        q *= x
        q += b
    return p - np.log(x) * q


def ring_weights(r_t, r_s, offsets, dr, dz, out=None):
    """Weight per unit source radius, ``4 K(m) / sqrt(sep2) * dr * dz``, of
    rings of radii ``r_s`` on rings of radii ``r_t`` at the z ``offsets``,
    shape (offsets, targets, sources), written into ``out`` if given.  K
    gets ``1 - m = ((r_t - r_s)^2 + offset^2) / sep2``, without cancellation
    at neighbouring rings.  A ring against itself (m = 1: the same radius
    at offset 0) gets the rod self weight over its radius.  The targets are
    taken in blocks of about ``2**16`` weights, few enough to stay in cache.
    """
    out = np.empty((len(offsets), len(r_t), len(r_s))) if out is None else out
    rod = 2.0 * (np.arcsinh(dz / dr) + np.arcsinh(dr / dz)) * dr * dz
    step = max(1, 2**16 // (len(offsets) * len(r_s)))
    off2 = offsets[:, None, None] ** 2
    for a in range(0, len(r_t), step):
        t = r_t[a:a + step, None]
        sep2 = (t + r_s) ** 2 + off2
        x = ((t - r_s) ** 2 + off2) / sep2
        ring = x == 0.0
        x[ring] = 1.0                   # placeholder; replaced below
        k = _ellpk(x)
        k *= 4.0 * dr * dz
        w = out[:, a:a + len(t)]
        np.divide(k, np.sqrt(sep2, out=sep2), out=w)
        np.copyto(w, rod / t, where=ring)
    return out


def _even_rfft(x):
    """rfft along axis 0 of the even circulant embedding ``x[0], ...,
    x[n-1], 0, x[n-1], ..., x[1]`` of n offsets: real, shape (n + 1, ...)."""
    c = np.concatenate((x, np.zeros_like(x[:1]), x[:0:-1]))
    return np.fft.rfft(c, axis=0).real


def _physical_memory_bytes():
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


#: a kernel's ``apply`` gets one thread per this many of its bytes, up to
#: the caller's budget.  Starting and joining a thread costs about 0.1 ms,
#: which a small kernel's products do not repay: on a 2-CPU box two threads
#: lost on a 96^2 kernel (7.2 MB) and won on a 120^2 one (13.9 MB), so two
#: start at 12 MB.
KERNEL_BYTES_PER_THREAD = 6_000_000


def _split(n, parts):
    """``parts`` contiguous (lo, hi) ranges covering range(n)."""
    edges = [n * p // parts for p in range(parts + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _in_threads(work, parts):
    """Call ``work(part)`` for every entry of ``parts`` at once.

    The first part runs in the calling thread and every other in a helper
    thread, and all helpers are joined before this returns or raises, so no
    thread outlives the call.  An exception raised in a helper is raised
    again here.
    """
    errors = []

    def run(part):
        try:
            work(part)
        except BaseException as exc:  # handed to the calling thread
            errors.append(exc)

    started = []
    try:
        for part in parts[1:]:
            helper = threading.Thread(target=run, args=(part,))
            helper.start()
            started.append(helper)
        work(parts[0])
    finally:
        for helper in started:
            helper.join()
    if errors:
        raise errors[0]


#: largest relative Frobenius residual a compressed block may have
RESIDUAL_LIMIT = 1e-13


def _rank(b):
    """Rank of a pair whose first range has b radii, 8 + 3 ceil(log2 b): 26
    at 48 radii, where an exact SVD needs 20 for ``RESIDUAL_LIMIT``, so a
    sketch of this rank needs no oversampling."""
    return 8 + 3 * (b - 1).bit_length()


def _layout(n_r):
    """Diagonal leaves ``(lo, hi)`` and off-diagonal pairs ``(lo, mid, hi)``
    of the radii range(n_r).

    A grid of fewer than 192 radii is one leaf.  A larger range is split in
    halves, the first one no longer, while each half keeps at least 32
    radii: 192 radii give four leaves of 48, and 1024 give 32 of 32.  The
    halves of a split are a pair, range(lo, mid) and range(mid, hi).
    """
    leaves, pairs = [], []

    def split(lo, hi):
        half = (hi - lo) // 2
        if n_r < 192 or half < 32:
            leaves.append((lo, hi))
            return
        pairs.append((lo, lo + half, hi))
        split(lo, lo + half)
        split(lo + half, hi)

    split(0, n_r)
    return leaves, pairs


def _test_matrix(start, rows, rank):
    """``rows`` x ``rank`` numbers, uniform on [-0.5, 0.5): the lowbias32
    integer hash (C. Wellons, hash-prospector) of the indices from
    ``start`` on, modulo 2**32.  A reproducible random sketch; importing
    ``numpy.random`` for one would add about 17 ms and 4 MB to a solve."""
    x = np.arange(rows * rank, dtype=np.uint32)
    x += np.uint32(start % 2**32)
    x ^= x >> np.uint32(16)
    x *= np.uint32(0x7FEB352D)
    x ^= x >> np.uint32(15)
    x *= np.uint32(0x846CA68B)
    x ^= x >> np.uint32(16)
    return (x * 2.0**-32 - 0.5).reshape(rows, rank)


def kernel_bytes(grid):
    """Bytes the kernel of ``grid`` stores; they follow from the cell counts.

    A leaf of b radii takes ``(n_z + 1) b**2`` numbers, and a pair
    ``(lo, mid, hi)`` of rank ``k = _rank(mid - lo)`` takes ``(hi - lo) k``
    for its two bases and ``(n_z + 1) k**2`` for its coefficients.
    """
    leaves, pairs = _layout(grid.n_r)
    n_f = grid.n_z + 1
    words = sum(n_f * (hi - lo) ** 2 for lo, hi in leaves)
    words += sum((hi - lo) * k + n_f * k**2
                 for lo, mid, hi in pairs for k in [_rank(mid - lo)])
    return 8 * words


class AxiKernel:
    """Precomputed ring-reduction weights for one grid, FFT-ready.

    The weight table W(i, k, |j - l|) couples target radius i and source
    radius k at a z offset.  Every block of it comes from ``ring_weights``,
    the one place that holds the weight and the self weight, and is
    transformed along z by ``_even_rfft``.  The table is stored as a
    hierarchy on the radii (``_layout``): a grid of fewer than 192 radii is
    one leaf, and a larger one is halved while each half keeps at least 32
    radii, so one of 192 radii has four leaves of 48 and three pairs, and
    one of 384 eight leaves of 48 and seven pairs.

    * A diagonal leaf ``(lo, hi)`` of b radii is stored dense, as the rfft
      of its weights, shape ``(n_z + 1, b, b)`` for frequency, target and
      source.  The weight per unit source radius is symmetric, so each
      row i is computed and transformed for the sources k >= i only
      (``_fill_leaf``); the lower triangle is mirrored from the upper one
      before every entry is multiplied by r[k].
    * An off-diagonal pair of ranges I = range(lo, mid) and K = range(mid,
      hi) is stored once, as ``U C[f] V^T`` for the weight per unit source
      radius.  U and V are orthonormal bases over the radii of I and K,
      the same for every frequency, of the rank ``_rank`` gives the length
      of I.  They come from a seeded random sketch of that rank of the
      block's real-space weights (a randomized range finder: Halko,
      Martinsson and Tropp, SIAM Rev. 53:217, 2011), and ``C[f]`` is the
      rfft over z of ``U^T W V``.  The relative Frobenius residual
      ``|W - U U^T W V V^T| / |W|`` of every pair is computed when it is
      built, and one above ``RESIDUAL_LIMIT`` raises FloatingPointError.

    ``apply`` transforms the density along z and, per frequency, multiplies
    each leaf, and for each pair projects the spectrum of sources K times
    their radii (``V^T r_K x_K``), applies ``C[f]`` and expands with U; the
    term from sources I to targets K uses the same arrays transposed.
    Weights include the source ring volume factor, so the product is
    directly the potential at cell centers.

    Every stored number lives in the one float64 array ``_fw`` of
    ``kernel_bytes(grid)`` bytes; leaves, bases and coefficients are views
    into it.  The leaves come first, and their pages serve as the scratch
    in which each pair's real-space weights are built, in chunks of as many
    z as it holds, twice (to sketch, then to project) when there is more
    than one chunk; the leaves are filled after the last pair.  One z of a
    pair larger than the leaves' pages, which happens only when n_r is more
    than about 128 (n_z + 1), gets an array of its own.  The kernel and
    that array are checked against physical memory before anything is
    allocated.

    The build runs on the calling thread.  ``threads`` is the CPU budget
    ``apply`` may spend: it uses one thread per ``KERNEL_BYTES_PER_THREAD``
    bytes of kernel, at least one and at most ``threads``, and splits its
    products, leaves and pairs, into contiguous frequency blocks, one per
    thread.  A frequency gets the same arithmetic whichever thread runs
    it, so the potential does not depend on the thread count, bit for bit,
    and the kernel does not depend on it at all.

    ``scale`` multiplies every potential: 1 for a built kernel, and
    ``s**2`` for the kernel ``scaled`` gives a grid grown by s, which
    shares this kernel's arrays.  ``kernel_for`` serves every grid so, from
    the kernel of its shape on radius 1.
    """

    def __init__(self, grid, threads=1):
        self.grid = grid
        leaves, pairs = _layout(grid.n_r)
        n_f, stored = grid.n_z + 1, kernel_bytes(grid)
        scratch = n_f * sum((hi - lo) ** 2 for lo, hi in leaves)
        top = max([0] + [(mid - lo) * (hi - mid) for lo, mid, hi in pairs])
        need = stored + 8 * (top if top > scratch else 0)
        have = _physical_memory_bytes()
        if need > have:
            raise GridError(
                "potential kernel for a %d x %d grid needs %d bytes to build, "
                "more than the %d bytes of physical memory"
                % (grid.n_r, grid.n_z, need, have)
            )
        self.threads = max(1, min(threads, stored // KERNEL_BYTES_PER_THREAD))
        self.scale = 1.0
        self._r = grid.r
        self._blocks = _split(n_f, self.threads)
        self._fw = np.empty(stored // 8)
        taken = 0

        def take(*shape):
            nonlocal taken
            size = math.prod(shape)
            taken += size
            return self._fw[taken - size:taken].reshape(shape)

        self._leaves = [(lo, hi, take(n_f, hi - lo, hi - lo)) for lo, hi in leaves]
        self._pairs = [
            (lo, mid, hi, take(mid - lo, k), take(hi - mid, k), take(n_f, k, k))
            for lo, mid, hi in pairs for k in [_rank(mid - lo)]
        ]
        for pair in self._pairs:
            self._compress(*pair, self._fw[:scratch])
        for leaf in self._leaves:
            self._fill_leaf(*leaf)

    def _compress(self, lo, mid, hi, u, v, coef, scratch):
        """Fill one pair's bases ``u``, ``v`` and coefficients ``coef``.

        The weights W[z, i, k] are built in ``scratch``, by one
        ``ring_weights`` call per chunk of as many z as it holds, or in an
        array of their own one z at a time where one z is larger.  A pair
        of one chunk keeps them for both passes.  A chunk is taken in
        slices of a few z, so no temporary is larger than about 0.5 MB.
        The sketches are ``sum_z W[z] Omega[z]`` and ``sum_z W[z]^T
        Omega[z]``, with the test matrix Omega[z, k] of ``_test_matrix`` at
        index ``z n_k + k``, read at k = i for the second (the first range
        of a pair is never the longer one).  Then ``W[z] V`` is formed per slice, ``coef`` gets
        ``U^T W[z] V`` until its transform replaces it, and the residual is
        summed exactly as ``|W - W V V^T|^2 + |W V - U U^T W V|^2``, whose
        two terms are orthogonal.
        """
        r_t, r_s = self._r[lo:mid], self._r[mid:hi]
        dr, dz = self.grid.dr, self.grid.dz
        n_i, n_k, n_z = mid - lo, hi - mid, self.grid.n_z
        rank = u.shape[1]
        offsets = dz * np.arange(n_z)
        if n_i * n_k > scratch.size:
            scratch = np.empty(n_i * n_k)
        chunks = _split(n_z, -(-n_z // (scratch.size // (n_i * n_k))))
        step = max(1, 2**16 // (n_i * n_k))

        def slices(build):
            for z0, z1 in chunks:
                w = scratch[:(z1 - z0) * n_i * n_k].reshape(z1 - z0, n_i, n_k)
                if build:
                    ring_weights(r_t, r_s, offsets[z0:z1], dr, dz, w)
                for s0 in range(z0, z1, step):
                    s1 = min(s0 + step, z1)
                    yield s0, s1, w[s0 - z0:s1 - z0]

        y_u, y_v = np.zeros((n_i, rank)), np.zeros((n_k, rank))
        norm2 = 0.0
        for s0, s1, part in slices(True):
            norm2 += float(np.vdot(part, part))
            test = _test_matrix(s0 * n_k * rank, (s1 - s0) * n_k, rank)
            test = test.reshape(s1 - s0, n_k, rank)
            y_u += np.matmul(part, test).sum(axis=0)
            y_v += part.reshape(-1, n_k).T @ test[:, :n_i].reshape(-1, rank)
        u[...] = np.linalg.qr(y_u)[0]
        v[...] = np.linalg.qr(y_v)[0]
        err2 = 0.0
        for s0, s1, part in slices(len(chunks) > 1):
            part = part.reshape(-1, n_k)
            t = part @ v                    # (slice z * rows, rank)
            part -= t @ v.T
            err2 += float(np.vdot(part, part))
            wv = t.reshape(s1 - s0, n_i, rank)
            c = np.matmul(u.T, wv, out=coef[s0:s1])
            wv -= u @ c
            err2 += float(np.vdot(wv, wv))
        residual = (err2 / norm2) ** 0.5
        if residual > RESIDUAL_LIMIT:
            raise FloatingPointError(
                "potential kernel block of radii %d-%d against %d-%d has a "
                "rank-%d residual of %.2e, above %.0e"
                % (lo, mid - 1, mid, hi - 1, rank, residual, RESIDUAL_LIMIT)
            )
        coef[...] = _even_rfft(coef[:n_z])

    def _fill_leaf(self, lo, hi, leaf):
        """Fill the diagonal leaf of the radii range(lo, hi).

        Each row i gets the weights of its sources k >= i and their
        transform, written into the upper triangle; then, one frequency at
        a time, the lower triangle is mirrored from the upper one and every
        entry multiplied by r[k]: a frequency's matrix is small enough to
        stay in cache, where writing the mirrored column of each row is not.
        """
        r, dr, dz = self._r, self.grid.dr, self.grid.dz
        offsets = dz * np.arange(self.grid.n_z)
        for i in range(lo, hi):
            w = ring_weights(r[i:i + 1], r[i:hi], offsets, dr, dz)
            leaf[:, i - lo, i - lo:] = _even_rfft(w)[:, 0]
        lower = np.tri(hi - lo, k=-1, dtype=bool)
        for w in leaf:
            np.copyto(w, w.T, where=lower)
            w *= r[lo:hi]

    def scaled(self, grid):
        """The kernel of ``grid``, which has this kernel's cell counts and
        extents s times its grid's: every weight scales as s**2, so it
        shares this kernel's arrays and multiplies its potentials by s**2."""
        kernel = copy.copy(self)
        kernel.grid = grid
        kernel.scale = self.scale * (grid.r_max / self.grid.r_max) ** 2
        return kernel

    def apply(self, values):
        """Potential of the density sample array, shape (n_r, n_z)."""
        n_r, n_z = self.grid.n_r, self.grid.n_z
        spec = np.fft.rfft(values, n=2 * n_z, axis=1)
        # (f, k, 2): per frequency, the real and imaginary parts of the
        # source spectrum as two columns of a real matrix
        cols = np.ascontiguousarray(spec.T).view(np.float64).reshape(-1, n_r, 2)
        prod = np.empty_like(cols)

        def product(block):
            f0, f1 = block
            x, y = cols[f0:f1], prod[f0:f1]
            for lo, hi, leaf in self._leaves:
                np.matmul(leaf[f0:f1], x[:, lo:hi], out=y[:, lo:hi])
            if self._pairs:
                x = x * self._r[:, None]
            for lo, mid, hi, u, v, coef in self._pairs:
                c = coef[f0:f1]
                y[:, lo:mid] += u @ (c @ (v.T @ x[:, mid:hi]))
                y[:, mid:hi] += v @ (c.transpose(0, 2, 1) @ (u.T @ x[:, lo:mid]))

        _in_threads(product, self._blocks)
        conv = prod.view(np.complex128)[:, :, 0]
        out = np.fft.irfft(conv.T, n=2 * n_z, axis=1)[:, :n_z]
        out *= self.scale
        return out


@functools.lru_cache(maxsize=4)
def _shape_kernel(n_r, n_z, aspect, threads):
    """The kernel of the grid of radius 1, ``aspect`` = z_max / r_max and
    these cell counts; building one is the expensive part of a solve."""
    return AxiKernel(CylGrid(1.0, aspect, n_r, n_z), threads)


def kernel_for(grid, threads=1):
    """The kernel of ``grid``: its shape's kernel on radius 1, ``scaled``.

    A kernel depends on a grid's cell counts and aspect alone, and every
    weight scales as r_max**2, so all grids of one shape share one build.
    The aspect is taken to 14 significant digits, so a scan's retry grids,
    whose extents are grown by separate multiplications, keep their base's
    shape where rounding gives z_max / r_max another last bit.
    """
    aspect = float("%.14g" % (grid.z_max / grid.r_max))
    return _shape_kernel(grid.n_r, grid.n_z, aspect, threads).scaled(grid)


def core_potential(kernel, mask, rho_core, mu):
    """mu times the potential of density ``rho_core`` on the cells ``mask``.

    Evaluated on all cells, core interior included; the solver only reads it
    off-core but the interior values are useful for diagnostics.
    """
    if mu < 0.0:
        raise ValueError("core strength mu must be non-negative")
    if mu == 0.0 or rho_core == 0.0:
        return np.zeros(mask.shape)
    return mu * kernel.apply(np.where(mask, rho_core, 0.0))


@dataclass
class CoreFieldReport:
    """Outcome of the core-potential sanity checks."""

    positive: bool
    decays_outward: bool
    monotone_above_core: bool

    @property
    def passed(self):
        return self.positive and self.decays_outward and self.monotone_above_core


def validate_core_potential(phi, core, grid):
    """Check the physical shape of a core potential sample.

    A valid core potential is strictly positive, peaks well inside the
    domain rather than at its edge, and, above the core's vertical extent,
    can only fall off as |z| grows at fixed r.  Roundoff gets a 1e-12
    relative allowance in the monotonicity comparison.
    """
    phi = np.asarray(phi, dtype=float)
    positive = bool(np.all(phi > 0.0))

    peak = float(np.max(phi)) if phi.size else 0.0
    boundary = max(
        float(np.max(phi[-1, :])), float(np.max(phi[:, 0])),
        float(np.max(phi[:, -1])),
    )
    decays = bool(peak > 0.0 and boundary < peak)

    slack = 1e-12 * max(peak, 1e-300)
    # above the core there is only vacuum between a point and the core mass
    upper = grid.z > core.a_z
    lower = grid.z < -core.a_z
    monotone = True
    if np.count_nonzero(upper) > 1:
        diffs = np.diff(phi[:, upper], axis=1)
        monotone &= bool(np.all(diffs <= slack))
    if np.count_nonzero(lower) > 1:
        diffs = np.diff(phi[:, lower], axis=1)
        monotone &= bool(np.all(diffs >= -slack))
    return CoreFieldReport(positive, decays, monotone)


class RotationLaw:
    """Angular speed profile Omega(s) and its centrifugal potential J.

    Constant rotation gives the closed form J(r) = Omega^2 r^2 / 2.  A
    sampled profile is interpolated with a cubic spline of s*Omega(s)^2 and
    integrated through the spline antiderivative, which keeps J smooth and
    deterministic.
    """

    def __init__(self, kind, omega, s=None):
        if kind == "constant":
            omega = float(omega)
            if omega < 0.0:
                raise ValueError("angular speed must be non-negative")
            self.kind = kind
            self.omega = omega
            self._j_of = None
        elif kind == "profile":
            s = np.asarray(s, dtype=float)
            om = np.asarray(omega, dtype=float)
            if s.ndim != 1 or s.shape != om.shape or s.size < 4:
                raise ValueError("profile needs matching 1-d arrays, >= 4 samples")
            if s[0] != 0.0 or not np.all(np.diff(s) > 0.0):
                raise ValueError("profile s samples must start at 0 and increase")
            if np.any(om < 0.0):
                raise ValueError("angular speed samples must be non-negative")
            self.kind = kind
            self.omega = None
            self._s_max = float(s[-1])
            # imported here: solve, scan and check run without scipy
            from scipy.interpolate import CubicSpline

            self._j_of = CubicSpline(s, s * om**2).antiderivative()
        else:
            raise ValueError("unknown rotation kind %r" % (kind,))

    @classmethod
    def constant(cls, omega):
        return cls("constant", omega)

    @classmethod
    def profile(cls, s, omega):
        return cls("profile", omega, s=s)

    def j_values(self, r):
        """J(r) = int_0^r s*Omega(s)^2 ds at the requested radii."""
        r = np.asarray(r, dtype=float)
        if self.kind == "constant":
            return 0.5 * self.omega**2 * r**2
        if np.any(r > self._s_max):
            raise ValueError(
                "rotation profile sampled only to s = %g, grid needs %g"
                % (self._s_max, float(np.max(r)))
            )
        return self._j_of(r) - self._j_of(0.0)


@dataclass(eq=False)
class Environment:
    """What a solve builds for its problem: the kernel and the core potential.

    ``phi_core`` carries the strength factor mu, so with the problem's
    ``ProblemSpec.J`` a density feels B(rho) + J + phi_core.  ``build`` pays
    for the kernel and the core.
    """

    kernel: AxiKernel
    phi_core: np.ndarray

    @classmethod
    def build(cls, spec, threads=1):
        kernel = kernel_for(spec.grid, threads)
        phi_core = core_potential(kernel, spec.mask, spec.core.rho_core, spec.mu)
        return cls(kernel, phi_core)


#: fields in the diagnostic ensemble of ``ensemble_ratio_maxima``
ENSEMBLE_FIELDS = 100


def ensemble_ratio_maxima(grid, n_fields=ENSEMBLE_FIELDS, seed=20240901, threads=1):
    """Maxima of the two bound ratios over a seeded ensemble of blob fields.

    Field number i is drawn from a generator seeded with seed + i, so the
    ensemble is reproducible and, because the blobs are smooth functions of
    position, consistent across grid refinements.
    """
    kernel = kernel_for(grid, threads)
    max_int = 0.0
    max_sup = 0.0
    for i in range(n_fields):
        rng = np.random.default_rng(seed + i)
        rho = random_blob_field(grid, rng)
        ratio_int, ratio_sup = bound_ratios(rho, kernel)
        max_int = max(max_int, ratio_int)
        max_sup = max(max_sup, ratio_sup)
    return max_int, max_sup


def bound_ratios(rho, kernel):
    """The two diagnostic inequality ratios of a positive-mass density.

    Returns (self_energy_bound_ratio, sup_bound_ratio):

    * integral of rho*B(rho) over ( integral of rho^(4/3) ) / mass^(2/3),
    * max B(rho) over mass^(2/3) * (max rho)^(1/3).

    Both are bounded above by universal constants for any admissible
    density; watching the empirical maxima stay put under grid refinement is
    the numerical check that the discrete operator inherits the bounds.
    """
    vol = kernel.grid.vol
    mass = float(np.sum(rho * vol))
    if mass <= 0.0:
        raise ValueError("bound ratios need a field with positive mass")
    b = kernel.apply(rho)
    self_energy = float(np.sum(rho * b * vol))
    norm_43 = float(np.sum(rho ** (4.0 / 3.0) * vol))
    ratio_int = self_energy / (norm_43 * mass ** (2.0 / 3.0))
    ratio_sup = float(np.max(b)) / (
        mass ** (2.0 / 3.0) * float(np.max(rho)) ** (1.0 / 3.0)
    )
    return ratio_int, ratio_sup
