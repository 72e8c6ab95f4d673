"""Cylindrical grids, core geometry, and the densities that live on them.

The computational domain is the cylinder 0 <= r <= r_max, |z| <= z_max with
uniform cell-centered spacing.  A rigid core occupies an axisymmetric region
around the origin.  A density is an ``(n_r, n_z)`` array on its problem's
grid (``solver.ProblemSpec``), non-negative and zero on every core cell.
All integrals use the axisymmetric volume weight 2*pi*r*dr*dz of the cell
center, so a density integrates like a ring stack.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


class GridError(ValueError):
    """Invalid grid geometry or a shape that does not fit the grid."""


class DegenerateFieldError(ValueError):
    """An operation that needs positive mass got an identically zero field."""


@dataclass(frozen=True)
class CylGrid:
    """Uniform cell-centered grid on [0, r_max] x [-z_max, z_max].

    Cell centers sit at r_i = (i + 1/2)*dr and z_j = -z_max + (j + 1/2)*dz;
    the z range is symmetric about the equator by construction.
    """

    r_max: float
    z_max: float
    n_r: int
    n_z: int

    def __post_init__(self):
        if self.n_r < 8 or self.n_z < 8:
            raise GridError("grid needs at least 8 cells per direction")
        if not (self.r_max > 0.0 and self.z_max > 0.0):
            raise GridError("grid extents must be positive")
        # the box's volume and squared extents bound every cell volume and
        # squared coordinate: checked in Python floats, before numpy overflows
        square = self.r_max * self.r_max
        if not (math.isfinite(square + self.z_max * self.z_max)
                and math.isfinite(2.0 * math.pi * square * self.z_max)):
            raise OverflowError("grid extents overflow a float")

    @property
    def dr(self):
        return self.r_max / self.n_r

    @property
    def dz(self):
        return 2.0 * self.z_max / self.n_z

    @cached_property
    def r(self):
        return (np.arange(self.n_r) + 0.5) * self.dr

    @cached_property
    def z(self):
        return -self.z_max + (np.arange(self.n_z) + 0.5) * self.dz

    @cached_property
    def vol(self):
        """Cell volume weights, shape (n_r, 1), broadcastable over z."""
        return (2.0 * np.pi * self.r * self.dr * self.dz)[:, None]

    def meshes(self):
        """Cell-center coordinate arrays R, Z with shape (n_r, n_z)."""
        return np.meshgrid(self.r, self.z, indexing="ij")


class CoreRegion:
    """Axisymmetric rigid region around the origin, with its uniform density.

    The default shape is a spheroid with semi-axes (a_r, a_z); one of zero
    semi-axes is the empty core of a problem without one, and covers no
    cell.  An arbitrary axisymmetric shape can be given as a radial profile
    a(z): the region is then {(r, z): r < a(z)}.  Both representations are
    star-shaped along outward radial rays, so the no-trapping requirement
    (exterior radial rays never re-enter the region) holds by construction.
    """

    def __init__(self, a_r, a_z, rho_core, profile=None):
        if profile is None:
            if not (a_r >= 0.0 and a_z >= 0.0):
                raise GridError("core semi-axes must be non-negative")
        if rho_core < 0.0:
            raise ValueError("core density must be non-negative")
        self.a_r = float(a_r)
        self.a_z = float(a_z)
        self.rho_core = float(rho_core)
        self._profile = profile

    @classmethod
    def spheroid(cls, a_r, a_z, rho_core):
        return cls(a_r, a_z, rho_core)

    @classmethod
    def from_profile(cls, z_points, a_points, rho_core):
        """Core bounded by the sampled radial profile a(z), zero outside.

        The profile is linearly interpolated between samples; beyond the
        sampled z range the core radius is zero.
        """
        z_points = np.asarray(z_points, dtype=float)
        a_points = np.asarray(a_points, dtype=float)
        if z_points.ndim != 1 or z_points.shape != a_points.shape:
            raise ValueError("profile arrays must be 1-d and equal length")
        if not np.all(np.diff(z_points) > 0.0):
            raise ValueError("profile z samples must be strictly increasing")
        if np.any(a_points < 0.0) or not np.any(a_points > 0.0):
            raise ValueError("profile radii must be >= 0 and not all zero")

        def profile(z):
            return np.interp(z, z_points, a_points, left=0.0, right=0.0)

        # the interpolant is positive up to a positive sample's neighbours
        inside = a_points > 0.0
        inside[1:] |= a_points[:-1] > 0.0
        inside[:-1] |= a_points[1:] > 0.0
        a_r = float(np.max(a_points))
        a_z = float(np.max(np.abs(z_points[inside])))
        return cls(a_r, a_z, rho_core, profile=profile)

    def mask(self, grid):
        """Boolean (n_r, n_z) array, True on cells whose center is inside."""
        if self.a_r >= grid.r_max or self.a_z >= grid.z_max:
            raise GridError("core does not fit strictly inside the grid")
        R, Z = grid.meshes()
        if self._profile is not None:
            return R < self._profile(Z)
        if not (self.a_r > 0.0 and self.a_z > 0.0):
            return np.zeros(R.shape, dtype=bool)
        return (R / self.a_r) ** 2 + (Z / self.a_z) ** 2 <= 1.0


def total_mass(rho, grid):
    """Integral of the density with the axisymmetric volume weight."""
    return float(np.sum(rho * grid.vol))


def rescale_to_mass(rho, grid, mass):
    """Scale the density to the requested total mass (shape preserved)."""
    if mass <= 0.0:
        raise ValueError("target mass must be positive")
    current = total_mass(rho, grid)
    if not math.isfinite(current):   # the guess and every iterate pass here
        raise ValueError("density values must be finite")
    if current <= 0.0:
        raise DegenerateFieldError("cannot rescale a zero field")
    return rho * (mass / current)


#: cells above this fraction of the largest density form the support that
#: the solve's extents and its residuals' split are read off
SUPPORT_REL = 1e-8


def support_extent(rho, grid, threshold=0.0):
    """Radial and vertical reach (d_r, d_z) of cells above ``threshold``."""
    above = rho > threshold
    if not np.any(above):
        return 0.0, 0.0
    i, j = np.nonzero(above)
    return float(grid.r[i.max()]), float(np.max(np.abs(grid.z[j])))


def boundary_mass_exceeds(values, grid, margin_cells, fraction):
    """True when the outer-boundary margin holds more than ``fraction`` of
    the total mass of the density samples ``values`` on ``grid``.

    The margin is the outermost ``margin_cells`` cells in r together with the
    top and bottom ``margin_cells`` cells in z.  Mass piling up there is the
    signature of an iterate flowing off the grid instead of settling.  A
    zero field holds no mass anywhere, so its margin exceeds nothing.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    if margin_cells < 1:
        raise ValueError("margin_cells must be >= 1")
    m = int(margin_cells)
    weighted = values * grid.vol
    edge = weighted[-m:, :].sum() + weighted[:-m, :m].sum() + weighted[:-m, -m:].sum()
    return bool(edge > fraction * float(np.sum(weighted)))


def random_blob_field(grid, rng, n_blobs=4):
    """Seeded smooth positive test density: a sum of Gaussian bumps.

    Used by the diagnostic inequality ensemble.  The bumps are continuous
    functions of (r, z) sampled at cell centers, so the same seed produces a
    consistent field on any refinement of the grid.
    """
    R, Z = grid.meshes()
    vals = np.zeros_like(R)
    for _ in range(n_blobs):
        r_c = rng.uniform(0.0, 0.7 * grid.r_max)
        z_c = rng.uniform(-0.7 * grid.z_max, 0.7 * grid.z_max)
        width = rng.uniform(0.05, 0.2) * grid.r_max
        amp = rng.uniform(0.1, 1.0)
        vals += amp * np.exp(-((R - r_c) ** 2 + (Z - z_c) ** 2) / (2.0 * width**2))
    return vals


# -- dump format ---------------------------------------------------------------

@lru_cache(maxsize=4)
def _field_template(grid):
    """The whole ``field.csv`` of ``grid`` with a ``%.17g`` for each rho."""
    tails = ["%.17g,%%.17g\n" % z for z in grid.z.tolist()]
    heads = ["%.17g," % r for r in grid.r.tolist()]
    # head + head.join(tails) is the row "r,z_0,%.17g\nr,z_1,%.17g\n..."
    return "r,z,rho\n" + "".join([head + head.join(tails) for head in heads])


def write_field_csv(rho, path, grid):
    """Write ``rho`` as ``r,z,rho`` rows, row-major over ``grid``'s cells.

    Values carry 17 significant digits, enough to reproduce the binary
    doubles exactly; masked cells appear with rho = 0.  The coordinates
    come from a per-grid template, so a file costs one string format.
    """
    text = _field_template(grid) % tuple(rho.ravel().tolist())
    with open(path, "w", newline="") as fh:
        fh.write(text)


def read_field_csv(path, grid, mask=None):
    """Read a field dump back onto ``grid`` as a density array.

    The file must cover exactly this grid's cell centers in dump order;
    coordinates and densities (finite, non-negative) are checked, not
    trusted.  The cells of ``mask``, a core's, read as zero.
    """
    try:
        with warnings.catch_warnings():
            # a file without data rows is refused below by its row count
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError:
        with open(path) as fh:
            for number, line in enumerate(fh, 1):
                fields = len(line.split(","))
                if number > 1 and line.strip() and fields != 3:
                    raise GridError(
                        "field file line %d has %d fields, not r,z,rho"
                        % (number, fields)
                    ) from None
        raise
    expected = grid.n_r * grid.n_z
    if data.shape[0] != expected:
        raise GridError(
            "field file has %d rows, grid needs %d" % (data.shape[0], expected)
        )
    if data.shape[1] != 3:
        raise GridError("field file has %d columns, not r,z,rho" % data.shape[1])
    R, Z = grid.meshes()
    scale_r = max(1.0, grid.r_max)
    scale_z = max(1.0, grid.z_max)
    if (np.max(np.abs(data[:, 0].reshape(R.shape) - R)) > 1e-9 * scale_r
            or np.max(np.abs(data[:, 1].reshape(Z.shape) - Z)) > 1e-9 * scale_z):
        raise GridError("field file coordinates do not match the grid")
    rho = data[:, 2].reshape(R.shape)
    if not np.all(np.isfinite(rho)):
        raise ValueError("density values must be finite")
    if np.any(rho < 0.0):
        raise ValueError("density values must be non-negative")
    return rho if mask is None else np.where(mask, 0.0, rho)
