"""Parameter sweeps over rotation speed and core strength.

Each (omega, mu) cell is an independent solve of the base problem with those
two values substituted.  Cells whose verdict is MassRunoff get one retry on a
domain grown by the configured factor, which screens out finite-box false
negatives: genuine no-equilibrium cells run off again on the larger grid.

Cells run in a process pool sized by the COREQUILIB_THREADS environment
variable (default: all cores); results are deterministic either way because a
cell's outcome depends only on its own configuration, and the table is
assembled in a fixed order.
"""

import copy
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field

from .config import ConfigError, build_problem
from .solver import outcome_to_dict, solve

# TODO: sweep families of rotation profiles, not just constant omega, once
# there is a concrete profile parametrization worth scanning.


@dataclass(frozen=True)
class ScanSpec:
    """Sweep definition: the base config plus the two value axes."""

    base: dict
    omega_values: tuple
    mu_values: tuple
    retry_factor: float

    @classmethod
    def from_config(cls, eff):
        if "scan" not in eff:
            raise ConfigError("missing section 'scan'")
        if eff["rotation"]["kind"] != "constant":
            raise ConfigError(
                "scans sweep constant rotation; section 'rotation' must have "
                "kind 'constant'"
            )
        sec = eff["scan"]
        return cls(
            base=eff,
            omega_values=tuple(sec["omega_values"]),
            mu_values=tuple(sec["mu_values"]),
            retry_factor=float(sec["retry_factor"]),
        )


@dataclass
class ScanTable:
    omega_values: tuple
    mu_values: tuple
    cells: dict                      # (i, j) -> cell record
    warnings: list = dc_field(default_factory=list)

    def verdict(self, i, j):
        return self.cells[(i, j)]["outcome"]["verdict"]


def cell_config(base, omega, mu, grow=None):
    """The effective config of one cell (optionally with a grown domain)."""
    cfg = copy.deepcopy(base)
    cfg.pop("scan", None)
    cfg["rotation"] = {"kind": "constant", "omega": omega}
    cfg["core"]["mu"] = mu
    if grow is not None:
        cfg["grid"]["r_max"] = cfg["grid"]["r_max"] * grow
        cfg["grid"]["z_max"] = cfg["grid"]["z_max"] * grow
    return cfg


def _solve_cell(task):
    """Worker body: one independent solve from a plain config dict."""
    omega, mu, cfg = task
    spec, scf = build_problem(cfg)
    outcome = solve(spec, scf)
    return {
        "omega": omega,
        "mu": mu,
        "config": cfg,
        "outcome": outcome_to_dict(outcome),
        "field": outcome.state.rho,
        "first_verdict": outcome.verdict,
    }


def worker_count():
    raw = os.environ.get("COREQUILIB_THREADS", "").strip()
    if raw:
        try:
            n = int(raw)
        except ValueError as exc:
            raise ConfigError("COREQUILIB_THREADS must be an integer") from exc
        if n < 1:
            raise ConfigError("COREQUILIB_THREADS must be at least 1")
        return n
    return os.cpu_count() or 1


def _run_tasks(tasks, workers):
    if workers == 1 or len(tasks) == 1:
        return [_solve_cell(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(_solve_cell, tasks))


def run_scan(scan_spec, workers=None):
    """Solve every cell, retry run-off cells once on a grown domain."""
    workers = worker_count() if workers is None else workers
    base = scan_spec.base
    keys = [
        (i, j)
        for i in range(len(scan_spec.omega_values))
        for j in range(len(scan_spec.mu_values))
    ]
    tasks = [
        (scan_spec.omega_values[i], scan_spec.mu_values[j],
         cell_config(base, scan_spec.omega_values[i], scan_spec.mu_values[j]))
        for (i, j) in keys
    ]
    records = _run_tasks(tasks, workers)
    cells = dict(zip(keys, records))
    for record in records:
        record["retried"] = False

    retry_keys = [
        key for key in keys
        if cells[key]["outcome"]["verdict"] == "MassRunoff"
    ]
    if retry_keys:
        retry_tasks = [
            (cells[key]["omega"], cells[key]["mu"],
             cell_config(base, cells[key]["omega"], cells[key]["mu"],
                         grow=scan_spec.retry_factor))
            for key in retry_keys
        ]
        retried = _run_tasks(retry_tasks, workers)
        for key, record in zip(retry_keys, retried):
            record["retried"] = True
            record["first_verdict"] = "MassRunoff"
            record["outcome"]["retried"] = True
            cells[key] = record

    table = ScanTable(scan_spec.omega_values, scan_spec.mu_values, cells)
    table.warnings = _monotonicity_warnings(table)
    return table


def _monotonicity_warnings(table):
    """Flag rows where convergence is lost again at a larger mu.

    The theory predicts a strength threshold per rotation speed, so within a
    row, convergence at some mu should persist at every larger sampled mu.
    A violation on the sampled grid is worth a look but not an error.
    """
    notes = []
    for i, omega in enumerate(table.omega_values):
        seen_converged = False
        for j, mu in enumerate(table.mu_values):
            verdict = table.verdict(i, j)
            if verdict == "Converged":
                seen_converged = True
            elif seen_converged:
                notes.append(
                    "row omega=%g: converged at smaller mu but %s at mu=%g"
                    % (omega, verdict, mu)
                )
        # a row that never converges is covered by the verdict table itself
    return notes


def fmt_num(x):
    """17 significant digits, enough to round-trip a double; None as nan."""
    return "%.17g" % (float("nan") if x is None else x)


def write_scan_csv(table, path):
    """One row per cell: omega,mu,verdict,lambda,iters,d_r,d_z."""
    with open(path, "w", newline="") as fh:
        fh.write("omega,mu,verdict,lambda,iters,d_r,d_z\n")
        for i, omega in enumerate(table.omega_values):
            for j, mu in enumerate(table.mu_values):
                out = table.cells[(i, j)]["outcome"]
                fh.write(
                    "%s,%s,%s,%s,%d,%s,%s\n"
                    % (
                        fmt_num(omega), fmt_num(mu), out["verdict"],
                        fmt_num(out["lambda"]), out["iterations"],
                        fmt_num(out["support"]["d_r"]),
                        fmt_num(out["support"]["d_z"]),
                    )
                )
