"""Parameter sweeps over rotation speed and core strength.

Each (omega, mu) cell is an independent solve of the base problem with those
two values substituted.  A cell whose verdict is MassRunoff is solved once
more, in the same worker, on a domain grown by the configured factor, which
screens out finite-box false negatives: genuine no-equilibrium cells run off
again on the larger grid.

Cells run in a process pool sized by the command's CPU budget, the
COREQUILIB_THREADS environment variable (default: all cores), with at most
one worker per cell; each worker's potential kernel gets ``budget //
workers`` threads.  Each worker writes its cells' run directories itself
and hands back only a small record: the cell's omega and mu, its
``result.json`` payload and its seconds.  No density field crosses the
process boundary, and a retried cell's grown domain is read from its
``effective_config.json``.  Results are deterministic either way because a
cell's outcome depends only on its own configuration, not on the thread or
worker count, and the table is assembled in a fixed order.  A worker that
dies, killed by the operating system for instance, ends the scan with
``WorkerDiedError``.
"""

import copy
import os
import sys
import time
from dataclasses import dataclass, field as dc_field

from .config import ConfigError, build_problem, cpu_budget
from .output import fmt_num, write_solve_outputs
from .solver import solve

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
    """Worker body: solve one cell, retry a run-off once on the grown
    domain, write the cell's run directory and return its record."""
    (i, j), omega, mu, cfg, retry_factor, out, threads = task
    start = time.perf_counter()
    outcome = solve(*build_problem(cfg), threads=threads)
    if outcome.verdict == "MassRunoff":
        cfg = cell_config(cfg, omega, mu, grow=retry_factor)
        outcome = solve(*build_problem(cfg), threads=threads)
        outcome.retried = True
    result = write_solve_outputs(
        os.path.join(out, "cell_%02d_%02d" % (i, j)), cfg, outcome
    )
    return {
        "omega": omega,
        "mu": mu,
        "outcome": result,
        "seconds": time.perf_counter() - start,
    }


class WorkerDiedError(RuntimeError):
    """A worker process of the scan's pool ended before its cells did."""


def _cell_records(tasks, workers):
    """Each task's record, in task order, as the cells finish."""
    if workers == 1:
        yield from map(_solve_cell, tasks)
        return
    # imported here: solve and check run without loading multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(_solve_cell, tasks)
    except BrokenProcessPool as exc:
        raise WorkerDiedError("a worker process died: %s" % exc) from exc


def run_scan(scan_spec, out, budget=None):
    """Solve every cell into ``out/cell_II_JJ/``, retrying run-off cells.

    ``budget`` is the CPU budget, ``cpu_budget()`` by default.  It sets the
    number of workers, at most one per cell, and each worker's kernel gets
    an equal share of it.  One line per cell goes to stderr as its record
    arrives.
    """
    budget = cpu_budget() if budget is None else budget
    os.makedirs(out, exist_ok=True)
    n_cells = len(scan_spec.omega_values) * len(scan_spec.mu_values)
    workers = min(budget, n_cells)
    tasks = [
        ((i, j), omega, mu, cell_config(scan_spec.base, omega, mu),
         scan_spec.retry_factor, out, budget // workers)
        for i, omega in enumerate(scan_spec.omega_values)
        for j, mu in enumerate(scan_spec.mu_values)
    ]
    cells = {}
    for task, record in zip(tasks, _cell_records(tasks, workers)):
        cells[task[0]] = record
        sys.stderr.write(
            "cell %02d %02d: %s, %d iterations, retried %s, %.2f s\n"
            % (*task[0], record["outcome"]["verdict"],
               record["outcome"]["iterations"],
               "yes" if record["outcome"]["retried"] else "no",
               record["seconds"])
        )

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
