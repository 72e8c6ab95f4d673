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
uniform-sphere acceptance test pins its accuracy).

The kernel depends on z only through |z - z'|, so applying it is a discrete
convolution along z.  Through a length 2*n_z real FFT each apply costs one
(n_r x n_r) matrix product per frequency, O(n_r^2 n_z) in all, instead of
O(n_r^2 n_z^2).  The circulant embedding of the weights is even in the z
offset, so their transform is real: the kernel is stored as float64 and the
products run through BLAS on the real and imaginary parts of the density's
transform at once.

Building and applying a large kernel is split across threads, up to the CPU
budget its caller passes (``COREQUILIB_THREADS`` on the command line): the
products are bound by memory bandwidth and run in BLAS with the interpreter
lock released, so the frequencies split into contiguous blocks, one per
thread.  A block's arithmetic does not depend on the thread that runs it,
so neither does any result bit.
"""

import os
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .field import GridError, random_blob_field

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


def elliptic_k(m):
    """Complete elliptic integral of the first kind, parameter convention.

    Evaluates the Cephes ``ellpk`` approximation
    ``K(m) = P(1 - m) - log(1 - m) Q(1 - m)`` with two degree-10
    polynomials, the same one ``scipy.special.ellipk`` evaluates; its
    relative error is a few 1e-16 on all of 0 <= m < 1, the logarithmic
    singularity at m = 1 included.  Parameters outside 0 <= m < 1 are
    refused instead of returning inf or nan, and a scalar argument gives a
    Python float.
    """
    arr = np.asarray(m, dtype=float)
    if np.any(arr < 0.0) or np.any(arr >= 1.0):
        raise ValueError("elliptic parameter must satisfy 0 <= m < 1")
    x = 1.0 - arr
    p = np.full_like(x, _ELLPK_P[0])
    q = np.full_like(x, _ELLPK_Q[0])
    for a, b in zip(_ELLPK_P[1:], _ELLPK_Q[1:]):
        p *= x
        p += a
        q *= x
        q += b
    out = p - np.log(x) * q
    return float(out) if arr.ndim == 0 else out


def _physical_memory_bytes():
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


#: a kernel gets one thread per this many of its bytes, up to the caller's
#: budget.  Starting and joining a thread costs about 0.1 ms, which a small
#: kernel's work does not repay: on a 2-CPU box two threads lost on a 96^2
#: kernel (7.2 MB) and won on a 120^2 one (13.9 MB), so two start at 12 MB.
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


class AxiKernel:
    """Precomputed ring-reduction weights for one grid, FFT-ready.

    ``_fw[f, i, k]`` is the rfft over the z offset of the circulant
    embedding of the weight table W(i, k, |j - l|), for frequency f, target
    radius i and source radius k.  The embedding is even in the offset, so
    its transform is real and is stored as float64, shape
    ``(n_z + 1, n_r, n_r)``.  ``apply`` multiplies it, one frequency at a
    time, against the real and imaginary parts of the transformed density
    in batched matmuls.  Weights include the source ring volume factor, so
    the product is directly the potential at cell centers.

    The kernel takes ``(n_z + 1) * n_r**2 * 8`` bytes.  That size is checked
    against physical memory before anything is allocated, and the build
    fills the array one target radius at a time and then finishes it one
    frequency at a time, so no intermediate larger than a row of the weight
    table or one ``(n_r, n_r)`` block ever exists per thread.  The weight
    per unit source radius, ``4 K(m) / sqrt(sep2)``, is symmetric in target
    and source, so row i computes it and its transform only for the sources
    k >= i; the lower triangle is mirrored from the upper one before every
    entry is multiplied by r[k].

    ``threads`` is the CPU budget the kernel may spend.  It uses one thread
    per ``KERNEL_BYTES_PER_THREAD`` bytes of kernel, at least one and at
    most ``threads``: the build deals the target rows out to the threads,
    each with its own row buffer, and then splits the mirror pass into
    contiguous frequency blocks, and ``apply`` splits its product the same
    way.  Every row and every frequency is computed by the same arithmetic
    whichever thread runs it, so the kernel and the potential do not depend
    on the thread count, bit for bit.
    """

    def __init__(self, grid, threads=1):
        self.grid = grid
        need = (grid.n_z + 1) * grid.n_r**2 * 8
        have = _physical_memory_bytes()
        if need > have:
            raise GridError(
                "potential kernel for a %d x %d grid needs %d bytes, more than "
                "the %d bytes of physical memory" % (grid.n_r, grid.n_z, need, have)
            )
        # at most one thread per target row, so each has a row to build
        share = need // KERNEL_BYTES_PER_THREAD
        self.threads = max(1, min(threads, grid.n_r, share))
        self._blocks = _split(grid.n_z + 1, self.threads)
        self._fw = np.empty((grid.n_z + 1, grid.n_r, grid.n_r))
        _in_threads(self._build_rows, range(self.threads))
        _in_threads(self._finish_block, self._blocks)

    def _build_rows(self, first):
        """Rows first, first + threads, ... of the upper triangle."""
        grid, fw = self.grid, self._fw
        r = grid.r
        dr, dz = grid.dr, grid.dz
        n_r, n_z = grid.n_r, grid.n_z
        offsets = dz * np.arange(n_z)
        # Self-potential of the coincident ring cell: uniform rectangular
        # rod cross section dr x dz, integrated in closed form.
        self_weight = 2.0 * (np.arcsinh(dz / dr) + np.arcsinh(dr / dz)) * dr * dz

        circ = np.zeros((n_r - first, 2 * n_z))
        for i in range(first, n_r, self.threads):  # target ring radius r[i]
            r_s = r[i:, None]           # source ring radii r[k], k >= i
            sep2 = (r[i] + r_s) ** 2 + offsets**2
            m = 4.0 * r[i] * r_s / sep2
            m[0, 0] = 0.0               # placeholder; replaced below
            w = (4.0 * dr * dz) * elliptic_k(m) / np.sqrt(sep2)
            w[0, 0] = self_weight / r[i]
            c = circ[: n_r - i]
            c[:, :n_z] = w
            c[:, n_z + 1:] = w[:, :0:-1]
            fw[:, i, i:] = np.fft.rfft(c, axis=1).real.T

    def _finish_block(self, block):
        """Mirror the upper triangle and apply the source radius factor
        for the frequencies in ``block``, one frequency at a time: a
        frequency's matrix is small enough to stay in cache, where writing
        the mirrored column of each row is not."""
        lower = np.tri(self.grid.n_r, k=-1, dtype=bool)
        for f in range(*block):
            w = self._fw[f]
            np.copyto(w, w.T, where=lower)
            w *= self.grid.r

    def apply(self, values):
        """Potential of the density sample array, shape (n_r, n_z)."""
        n_r, n_z = self.grid.n_r, self.grid.n_z
        spec = np.fft.rfft(values, n=2 * n_z, axis=1)
        # (f, k, 2): per frequency, the real and imaginary parts of the
        # source spectrum as two columns of a real matrix
        pairs = np.ascontiguousarray(spec.T).view(np.float64).reshape(-1, n_r, 2)
        prod = np.empty_like(pairs)

        def product(block):
            lo, hi = block
            np.matmul(self._fw[lo:hi], pairs[lo:hi], out=prod[lo:hi])

        _in_threads(product, self._blocks)
        conv = prod.view(np.complex128)[:, :, 0]
        return np.fft.irfft(conv.T, n=2 * n_z, axis=1)[:, :n_z]


@lru_cache(maxsize=4)
def kernel_for(grid, threads=1):
    """Shared kernel cache; building one is the expensive part of a solve."""
    return AxiKernel(grid, threads)


def core_potential(kernel, core, mu):
    """mu times the potential of the rigid core's uniform density.

    Evaluated on all cells, core interior included; the solver only reads it
    off-core but the interior values are useful for diagnostics.
    """
    if mu < 0.0:
        raise ValueError("core strength mu must be non-negative")
    grid = kernel.grid
    if mu == 0.0 or core.rho_core == 0.0:
        return np.zeros((grid.n_r, grid.n_z))
    return mu * kernel.apply(np.where(core.mask(grid), core.rho_core, 0.0))


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
    can only fall off as |z| grows at fixed r (there is nothing but vacuum
    between such a point and the core mass).  Roundoff gets a 1e-12 relative
    allowance in the monotonicity comparison.
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
    upper = grid.z > core.z_top
    lower = grid.z < -core.z_top
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


def rotation_potential(law, grid):
    """J at every cell center, shape (n_r, n_z); constant along z."""
    per_radius = law.j_values(grid.r)
    return np.repeat(per_radius[:, None], grid.n_z, axis=1)


@dataclass(eq=False)
class Environment:
    """Fixed context of one problem: the kernel and the potentials of the
    rotation and the core.

    ``phi_core`` already carries the strength factor mu, so the total
    potential a density feels is B(rho) + J + phi_core.
    """

    kernel: AxiKernel
    J: np.ndarray
    phi_core: np.ndarray

    @classmethod
    def build(cls, grid, core, mu, rotation, threads=1):
        kernel = kernel_for(grid, threads)
        return cls(
            kernel=kernel,
            J=rotation_potential(rotation, grid),
            phi_core=core_potential(kernel, core, mu),
        )


def ensemble_ratio_maxima(grid, n_fields=100, seed=20240901, threads=1):
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
        fld = random_blob_field(grid, rng)
        ratio_int, ratio_sup = bound_ratios(fld, kernel)
        max_int = max(max_int, ratio_int)
        max_sup = max(max_sup, ratio_sup)
    return max_int, max_sup


def bound_ratios(fld, kernel):
    """The two diagnostic inequality ratios for a positive-mass field.

    Returns (self_energy_bound_ratio, sup_bound_ratio):

    * integral of rho*B(rho) over ( integral of rho^(4/3) ) / mass^(2/3),
    * max B(rho) over mass^(2/3) * (max rho)^(1/3).

    Both are bounded above by universal constants for any admissible
    density; watching the empirical maxima stay put under grid refinement is
    the numerical check that the discrete operator inherits the bounds.
    """
    vol = fld.grid.vol
    mass = float(np.sum(fld.values * vol))
    if mass <= 0.0:
        raise ValueError("bound ratios need a field with positive mass")
    b = kernel.apply(fld.values)
    self_energy = float(np.sum(fld.values * b * vol))
    norm_43 = float(np.sum(fld.values ** (4.0 / 3.0) * vol))
    ratio_int = self_energy / (norm_43 * mass ** (2.0 / 3.0))
    ratio_sup = float(np.max(b)) / (
        mass ** (2.0 / 3.0) * float(np.max(fld.values)) ** (1.0 / 3.0)
    )
    return ratio_int, ratio_sup
