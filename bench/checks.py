"""Checks of corequilib's output files, made without corequilib.

Everything here reads the files a ``solve`` or ``scan`` wrote and rebuilds
what it needs from numpy and scipy alone: the grid from the effective
config, the potential by direct ring summation with ``scipy.special.ellipk``
(no FFT), the core by its spheroid test and the enthalpy from the pressure
law the benchmark chose.  Each check returns a list of problems; an empty
list means the output passed.

The discretization being checked is the program's documented one: cell
centres ``r_i = (i + 1/2) dr`` and ``z_j = -z_max + (j + 1/2) dz``, volume
``2 pi r dr dz``, ring weight ``4 r' K(m) / sqrt((r + r')^2 + (z - z')^2)
dr dz`` with ``m = 4 r r' / ((r + r')^2 + (z - z')^2)``, and the
self-weight of a cell replaced by the uniform-rod value
``2 (asinh(dz/dr) + asinh(dr/dz)) dr dz``.
"""

import csv
import json
import os

import numpy as np
from scipy.special import ellipk

#: relative mass error allowed against the configured target
MASS_TOL = 1e-10
#: equatorial asymmetry allowed, relative to the peak density
SYMMETRY_TOL = 1e-12
#: support threshold relative to the peak density (the program's definition)
SUPPORT_REL = 1e-8
VERDICTS = ("Converged", "MassRunoff", "LambdaBracketFail", "IterationCap")


def polytrope_enthalpy(k, gamma):
    """Closed-form enthalpy A'(rho) of the law p = k rho^gamma."""

    def enthalpy(rho):
        return gamma * k * rho ** (gamma - 1.0) / (gamma - 1.0)

    return enthalpy


class Grid:
    """Cell centres and spacings of an effective config's grid section."""

    def __init__(self, eff):
        g = eff["grid"]
        self.n_r, self.n_z = g["n_r"], g["n_z"]
        self.dr = g["r_max"] / self.n_r
        self.dz = 2.0 * g["z_max"] / self.n_z
        self.r = (np.arange(self.n_r) + 0.5) * self.dr
        self.z = -g["z_max"] + (np.arange(self.n_z) + 0.5) * self.dz
        self.vol = (2.0 * np.pi * self.r * self.dr * self.dz)[:, None]

    def core_mask(self, core):
        R, Z = np.meshgrid(self.r, self.z, indexing="ij")
        return (R / core["a_r"]) ** 2 + (Z / core["a_z"]) ** 2 <= 1.0


def read_field(path, grid):
    """Density array from a field.csv, after checking its coordinates."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (grid.n_r * grid.n_z, 3):
        raise ValueError("%s has %d rows, grid has %d cells"
                         % (path, data.shape[0], grid.n_r * grid.n_z))
    R, Z = np.meshgrid(grid.r, grid.z, indexing="ij")
    if (np.max(np.abs(data[:, 0] - R.ravel())) > 1e-12 * grid.r[-1]
            or np.max(np.abs(data[:, 1] - Z.ravel())) > 1e-12 * grid.z[-1]):
        raise ValueError("%s: cell coordinates do not match the grid" % path)
    return data[:, 2].reshape(grid.n_r, grid.n_z)


def ring_potential(source, grid, cells):
    """Newtonian potential of ``source`` at ``cells`` by direct summation.

    ``source`` is a density array on ``grid``; ``cells`` is a sequence of
    (i, j) index pairs.  Each target costs one pass over the non-zero source
    cells.
    """
    si, sj = np.nonzero(source)
    r_s, z_s, rho_s = grid.r[si], grid.z[sj], source[si, sj]
    cell_area = grid.dr * grid.dz
    rod = 2.0 * (np.arcsinh(grid.dz / grid.dr) + np.arcsinh(grid.dr / grid.dz))
    out = np.empty(len(cells))
    for n, (i, j) in enumerate(cells):
        r, z = grid.r[i], grid.z[j]
        sep2 = (r + r_s) ** 2 + (z - z_s) ** 2
        self_cell = (si == i) & (sj == j)
        m = np.where(self_cell, 0.0, 4.0 * r * r_s / sep2)
        w = 4.0 * r_s * ellipk(m) / np.sqrt(sep2)
        w[self_cell] = rod
        out[n] = float(np.sum(rho_s * w)) * cell_area
    return out


def field_problems(rho, grid, eff, label):
    """Mass, equatorial symmetry and an empty core, for any verdict."""
    problems = []
    target = eff["solver"]["mass"]
    mass = float(np.sum(rho * grid.vol))
    if not abs(mass - target) <= MASS_TOL * target:
        problems.append("%s: mass %.17g, target %.17g" % (label, mass, target))
    peak = float(np.max(rho))
    asym = float(np.max(np.abs(rho - rho[:, ::-1])))
    if not asym <= SYMMETRY_TOL * peak:
        problems.append("%s: equatorial asymmetry %.3g of peak %.3g"
                        % (label, asym, peak))
    if np.any(rho[grid.core_mask(eff["core"])] != 0.0):
        problems.append("%s: non-zero density inside the core" % label)
    if np.any(rho < 0.0):
        problems.append("%s: negative density" % label)
    return problems


def sample_cells(rho, grid, core, rng, n_each):
    """Seeded sample of support cells and of vacuum cells outside the core."""
    outside = ~grid.core_mask(core)
    on = (rho > SUPPORT_REL * float(np.max(rho))) & outside
    off = ~on & outside
    picked = []
    for region in (on, off):
        idx = np.argwhere(region)
        take = min(n_each, len(idx))
        picked.extend(map(tuple, idx[rng.choice(len(idx), take, replace=False)]))
    return picked, on


def equilibrium_problems(rho, grid, eff, result, enthalpy, rng, n_each, label):
    """Equilibrium relation at sampled cells and the multiplier bound.

    With the potential Phi = B(rho) + mu B(rho_core) + omega^2 r^2 / 2
    recomputed here, a converged field must satisfy
    |A'(rho) - Phi - lambda| <= tol_residual |lambda| on its support and
    A'(rho) - Phi - lambda >= -tol_residual |lambda| in vacuum.
    """
    problems = []
    lam = result["lambda"]
    if not (isinstance(lam, float) and np.isfinite(lam)):
        return ["%s: multiplier %r is not a finite number" % (label, lam)]
    core = eff["core"]
    rotation = eff["rotation"]
    if rotation["kind"] != "constant":
        return ["%s: only constant rotation is checked" % label]
    omega = rotation["omega"]
    tol = eff["solver"]["tol_residual"] * abs(lam)

    cells, on = sample_cells(rho, grid, core, rng, n_each)
    source = rho + core["mu"] * np.where(grid.core_mask(core), core["rho"], 0.0)
    ii = np.array([c[0] for c in cells])
    jj = np.array([c[1] for c in cells])
    phi = ring_potential(source, grid, cells) + 0.5 * omega**2 * grid.r[ii] ** 2
    resid = enthalpy(rho[ii, jj]) - phi - lam
    support = on[ii, jj]
    worst_on = float(np.max(np.abs(resid[support]))) if np.any(support) else 0.0
    worst_off = float(np.min(resid[~support])) if np.any(~support) else 0.0
    if not np.any(support):
        problems.append("%s: empty support" % label)
    if not worst_on <= tol:
        problems.append("%s: equilibrium residual %.3g on the support, allowed %.3g"
                        % (label, worst_on, tol))
    if not worst_off >= -tol:
        problems.append("%s: vacuum residual %.3g below -%.3g"
                        % (label, worst_off, tol))

    d_r = float(np.max(np.nonzero(on)[0], initial=-1) + 0.5) * grid.dr
    if d_r != result["support"]["d_r"]:
        problems.append("%s: reported d_r %r, field support reaches %r"
                        % (label, result["support"]["d_r"], d_r))
    bound = -0.5 * omega**2 * d_r**2 + 3.0 * tol
    if not (lam < 0.0 and lam <= bound):
        problems.append("%s: multiplier %.6g above the bound %.6g"
                        % (label, lam, bound))
    return problems


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def check_solve(out_dir, enthalpy, rng, n_each=48):
    """Problems with one ``solve`` output directory that should be Converged."""
    eff = _load_json(os.path.join(out_dir, "effective_config.json"))
    result = _load_json(os.path.join(out_dir, "result.json"))
    if result["verdict"] != "Converged":
        return ["%s: verdict %s" % (out_dir, result["verdict"])]
    grid = Grid(eff)
    rho = read_field(os.path.join(out_dir, "field.csv"), grid)
    return field_problems(rho, grid, eff, out_dir) + equilibrium_problems(
        rho, grid, eff, result, enthalpy, rng, n_each, out_dir
    )


def phase_problems(omegas, mus, verdict, retried):
    """The rotation / core-strength phase structure of a sweep.

    ``verdict`` and ``retried`` map (i, j) to the cell's verdict and retry
    flag.  The omega = 0 row converges; the mu = 0 column loses convergence
    at some omega and never regains it, every such cell having been retried
    on the grown domain; the fastest row converges at some mu; and within
    every row, convergence at one mu persists to every larger mu.
    """
    problems = []
    n_o, n_m = len(omegas), len(mus)
    for key in sorted(verdict):
        if verdict[key] not in VERDICTS:
            problems.append("cell %s: unknown verdict %r" % (key, verdict[key]))
        if verdict[key] == "MassRunoff" and not retried[key]:
            problems.append("cell %s: run-off cell was not retried" % (key,))
    if omegas[0] != 0.0 or mus[0] != 0.0:
        problems.append("sweep must start at omega = 0 and mu = 0")
        return problems
    if not all(verdict[(0, j)] == "Converged" for j in range(n_m)):
        problems.append("omega = 0 row does not converge everywhere")
    column = [verdict[(i, 0)] == "Converged" for i in range(n_o)]
    if all(column):
        problems.append("mu = 0 column never loses convergence")
    else:
        cut = column.index(False)
        if any(column[cut:]):
            problems.append("mu = 0 column converges again above omega = %g"
                            % omegas[cut])
        if not all(retried[(i, 0)] for i in range(cut, n_o)):
            problems.append("mu = 0 column has failed cells that were not retried")
    if not any(verdict[(n_o - 1, j)] == "Converged" for j in range(n_m)):
        problems.append("omega = %g row never converges" % omegas[-1])
    for i in range(n_o):
        row = [verdict[(i, j)] == "Converged" for j in range(n_m)]
        if True in row and not all(row[row.index(True):]):
            problems.append("omega = %g row loses convergence at larger mu"
                            % omegas[i])
    return problems


def check_scan(out_dir, config, enthalpy, rng, n_cells=4, n_each=24):
    """Problems with one ``scan`` output directory written from ``config``.

    Every cell gets the mass, symmetry and core checks, and a retried cell
    must sit on the domain grown by the retry factor; a seeded sample of
    ``n_cells`` converged cells also gets the equilibrium checks.  Returns
    (problems, number of retried cells).
    """
    grow = config["scan"].get("retry_factor", 1.5)
    omegas, mus = config["scan"]["omega_values"], config["scan"]["mu_values"]
    with open(os.path.join(out_dir, "scan.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    found = sorted((float(row["omega"]), float(row["mu"])) for row in rows)
    if found != [(omega, mu) for omega in omegas for mu in mus]:
        return ["scan.csv rows do not cover the %d x %d sweep once each"
                % (len(omegas), len(mus))], 0
    problems = []
    verdict, retried, converged = {}, {}, []
    for row in rows:
        key = (omegas.index(float(row["omega"])), mus.index(float(row["mu"])))
        cell_dir = os.path.join(out_dir, "cell_%02d_%02d" % key)
        cell_eff = _load_json(os.path.join(cell_dir, "effective_config.json"))
        result = _load_json(os.path.join(cell_dir, "result.json"))
        verdict[key], retried[key] = row["verdict"], result["retried"]
        if result["verdict"] != row["verdict"]:
            problems.append("%s: result.json says %s, scan.csv %s"
                            % (cell_dir, result["verdict"], row["verdict"]))
        if (cell_eff["rotation"]["omega"] != float(row["omega"])
                or cell_eff["core"]["mu"] != float(row["mu"])):
            problems.append("%s: config does not match its scan.csv row" % cell_dir)
        r_max = config["grid"]["r_max"] * (grow if result["retried"] else 1.0)
        if cell_eff["grid"]["r_max"] != r_max:
            problems.append("%s: domain r_max %r, expected %r"
                            % (cell_dir, cell_eff["grid"]["r_max"], r_max))
        grid = Grid(cell_eff)
        rho = read_field(os.path.join(cell_dir, "field.csv"), grid)
        problems += field_problems(rho, grid, cell_eff, cell_dir)
        if row["verdict"] == "Converged":
            converged.append((cell_dir, grid, rho, cell_eff, result))
    problems += phase_problems(omegas, mus, verdict, retried)
    picks = rng.choice(len(converged), min(n_cells, len(converged)), replace=False)
    for n in sorted(picks):
        cell_dir, grid, rho, cell_eff, result = converged[n]
        problems += equilibrium_problems(
            rho, grid, cell_eff, result, enthalpy, rng, n_each, cell_dir
        )
    return problems, sum(retried.values())
