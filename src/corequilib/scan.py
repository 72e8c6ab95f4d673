"""Parameter sweeps over rotation speed and core strength.

Each (omega, mu) cell is an independent solve of the base problem with those
two values substituted.  A cell whose verdict is MassRunoff is solved once
more, in the same worker, on a domain grown by the configured factor, which
screens out finite-box false negatives: genuine no-equilibrium cells run off
again on the larger grid.

Cells run in a process pool sized by the command's CPU budget, the
COREQUILIB_THREADS environment variable (default: all cores), with at most
one worker per cell; each worker's potential kernel gets ``budget //
workers`` threads.  The kernels of the base and the grown domain are made
before the pool forks its workers.  Grids of one shape share one kernel
(``kernel_for``), so the grown domain shares the base domain's build.  Each
worker writes its cells' run directories itself and hands back only a small
record: the cell's omega and mu, its ``result.json`` payload or error and
its seconds.  No density field crosses the process boundary, and a retried
cell's grown domain is read from its ``effective_config.json``.  Results
are deterministic either way because a cell's outcome depends only on its
own configuration, not on the thread or worker count, and the table is
assembled in a fixed order.  A cell whose solve raises a numeric error,
whose directory cannot be written, or whose worker dies before its record
is back, killed by the operating system for instance, is recorded as
failed, with verdict ``Error``, and the other cells keep their records.
"""

import copy
import os
import sys
import time
from dataclasses import dataclass, field as dc_field

from .config import ConfigError, build_problem, cpu_budget
from .output import write_solve_outputs
from .potential import kernel_for
from .solver import NUMERIC_ERRORS, solve


@dataclass(frozen=True)
class ScanSpec:
    """Sweep definition: the base config plus the two value axes, and the
    grids of a cell's first attempt and of its retry."""

    base: dict
    omega_values: tuple
    mu_values: tuple
    retry_factor: float
    grids: tuple

    @classmethod
    def from_config(cls, eff):
        """Check the scan rules and build the first cell's problem on the base
        and the grown domain, which meets any config error of any cell."""
        if "scan" not in eff:
            raise ConfigError("missing section 'scan'")
        if eff["rotation"]["kind"] != "constant":
            raise ConfigError(
                "scans sweep constant rotation; section 'rotation' must have "
                "kind 'constant'"
            )
        if eff["solver"]["initial_guess"]["kind"] == "from-file":
            # a retried cell's grown grid can never match the file's
            raise ConfigError(
                "scans start each cell on its own grid; key 'initial_guess' "
                "in section 'solver' must not be 'from-file'"
            )
        sec = eff["scan"]
        omega, mu = sec["omega_values"][0], sec["mu_values"][0]
        return cls(
            base=eff,
            omega_values=tuple(sec["omega_values"]),
            mu_values=tuple(sec["mu_values"]),
            retry_factor=float(sec["retry_factor"]),
            grids=tuple(
                build_problem(cell_config(eff, omega, mu, grow=grow))[0].grid
                for grow in (None, sec["retry_factor"])
            ),
        )


@dataclass
class ScanTable:
    omega_values: tuple
    mu_values: tuple
    cells: dict                      # (i, j) -> cell record
    warnings: list = dc_field(default_factory=list)

    def verdict(self, i, j):
        """The cell's verdict, ``Error`` for a cell whose solve raised."""
        outcome = self.cells[(i, j)]["outcome"]
        return "Error" if outcome is None else outcome["verdict"]


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
    domain, write the cell's run directory and return its record.

    A numeric error (any ValueError is one, because
    ``ScanSpec.from_config`` met every config error) or an OSError writing
    the directory ends only its cell: the record carries the message in
    ``error``, after its stderr label, and None as ``outcome``.
    """
    (i, j), omega, mu, cfg, retry_factor, out, threads = task
    start = time.perf_counter()
    record = {"omega": omega, "mu": mu, "outcome": None, "error": None}
    try:
        outcome = solve(*build_problem(cfg), threads=threads)
        if outcome.verdict == "MassRunoff":
            cfg = cell_config(cfg, omega, mu, grow=retry_factor)
            outcome = solve(*build_problem(cfg), threads=threads)
            outcome.retried = True
    except (*NUMERIC_ERRORS, ValueError) as exc:
        record["error"] = "numeric error: %s" % exc
    else:
        try:
            record["outcome"] = write_solve_outputs(
                os.path.join(out, "cell_%02d_%02d" % (i, j)), cfg, outcome
            )
        except OSError as exc:
            record["error"] = "io error: %s" % exc
    record["seconds"] = time.perf_counter() - start
    return record


def _cell_records(tasks, workers):
    """Each task's record, in task order, as the cells finish.

    A worker that dies breaks the pool: each cell whose record is not back
    by then gets an error record, ``worker died: ...``.
    """
    if workers == 1:
        yield from map(_solve_cell, tasks)
        return
    # imported here: solve and check run without loading multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_solve_cell, task) for task in tasks]
        for (_, omega, mu, *_), future in zip(tasks, futures):
            try:
                yield future.result()
            except BrokenProcessPool as exc:
                yield {"omega": omega, "mu": mu, "outcome": None,
                       "error": "worker died: %s" % exc, "seconds": None}


def run_scan(scan_spec, out, budget=None):
    """Solve every cell into ``out/cell_II_JJ/``, retrying run-off cells.

    ``budget`` is the CPU budget, ``cpu_budget()`` by default.  It sets the
    number of workers, at most one per cell, and each worker's kernel gets
    an equal share of it.  One line per cell goes to stderr as its record
    arrives.  The kernels of the base and the retry grid, which every cell
    shares, are made here before ``out`` or a worker exists; grids of one
    shape share one build (``kernel_for``).
    """
    budget = cpu_budget() if budget is None else budget
    n_cells = len(scan_spec.omega_values) * len(scan_spec.mu_values)
    workers = min(budget, n_cells)
    tasks = [
        ((i, j), omega, mu, cell_config(scan_spec.base, omega, mu),
         scan_spec.retry_factor, out, budget // workers)
        for i, omega in enumerate(scan_spec.omega_values)
        for j, mu in enumerate(scan_spec.mu_values)
    ]
    for grid in scan_spec.grids:
        kernel_for(grid, budget // workers)
    os.makedirs(out, exist_ok=True)
    cells = {}
    for task, record in zip(tasks, _cell_records(tasks, workers)):
        cells[task[0]] = record
        result = record["outcome"]
        if result is None:
            sys.stderr.write("cell %02d %02d: %s\n" % (*task[0], record["error"]))
            continue
        sys.stderr.write(
            "cell %02d %02d: %s, %d iterations, retried %s, %.2f s\n"
            % (*task[0], result["verdict"], result["iterations"],
               "yes" if result["retried"] else "no", record["seconds"])
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
            elif seen_converged and verdict != "Error":
                notes.append(
                    "row omega=%g: converged at smaller mu but %s at mu=%g"
                    % (omega, verdict, mu)
                )
        # a row that never converges is covered by the verdict table itself
    return notes
