"""The formats of every file and JSON text the program writes.

``write_solve_outputs`` is the one path from an ``Outcome`` to a run
directory: ``solve`` writes into ``--out``, and each scan worker into its
cell's ``cell_II_JJ/``.  ``field.csv`` (``field.write_field_csv``) holds
the density the solve reports, the last iterate's reconstruction for every
verdict with a multiplier, and ``result.json`` its summary; ``trace.csv``
is the only record of the iterates.  ``write_scan_csv`` writes a sweep's
``scan.csv``, and ``json_text`` is the one JSON serialization, of run
directories and of what the commands print.  Every file is deterministic:
fixed key order, no timestamps and 17 significant digits, so identical runs
produce identical bytes.
"""

import json
import os
from dataclasses import asdict

from .field import write_field_csv


def fmt_num(x):
    """17 significant digits, enough to round-trip a double; None as nan."""
    return "%.17g" % (float("nan") if x is None else x)


def json_text(payload):
    """Canonical JSON text: sorted keys, indent 2, a final newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def outcome_to_dict(outcome):
    """JSON-ready view of an outcome (plain floats, fixed keys, no arrays).

    Each number appears once; ``schema_version`` counts the changes of this
    layout.
    """
    state = outcome.state
    bound = outcome.bound_check
    resid = outcome.residual
    return {
        "schema_version": 5,
        "verdict": outcome.verdict,
        "lambda": state.lam,
        "iterations": state.iteration,
        "retried": outcome.retried,
        "mass_err_max": outcome.mass_err_max,
        "mass_evals": outcome.mass_evals,
        "history_resets": outcome.history_resets,
        "energy": asdict(outcome.energy),
        "support": {"d_r": outcome.d_r, "d_z": outcome.d_z},
        "multiplier_bound": None if bound is None else asdict(bound),
        "diagnostics": {
            "el_residual_max": None if resid is None else resid.eq_max,
            "el_residual_mean": None if resid is None else resid.eq_mean,
            "ineq_violation": None if resid is None else resid.ineq_violation,
        },
    }


def _write_json(path, payload):
    with open(path, "w", newline="") as fh:
        fh.write(json_text(payload))


def _write_trace_csv(path, trace):
    with open(path, "w", newline="") as fh:
        fh.write("iter,lambda,energy_total,update_norm\n")
        for it, lam, e_tot, upd in trace:
            fh.write("%d,%s,%s,%s\n"
                     % (it, fmt_num(lam), fmt_num(e_tot), fmt_num(upd)))


def write_solve_outputs(outdir, eff, outcome):
    """Write the four files of one solve; return ``result.json``'s payload."""
    result = outcome_to_dict(outcome)
    os.makedirs(outdir, exist_ok=True)
    _write_json(os.path.join(outdir, "result.json"), result)
    _write_json(os.path.join(outdir, "effective_config.json"), eff)
    write_field_csv(outcome.rho, os.path.join(outdir, "field.csv"), outcome.grid)
    _write_trace_csv(os.path.join(outdir, "trace.csv"), outcome.trace)
    return result


def write_scan_csv(table, path):
    """One row per cell of a ``ScanTable``: omega,mu,verdict,lambda,iters,
    d_r,d_z.  A cell that failed reads ``Error`` and nan past its mu."""
    with open(path, "w", newline="") as fh:
        fh.write("omega,mu,verdict,lambda,iters,d_r,d_z\n")
        for i, omega in enumerate(table.omega_values):
            for j, mu in enumerate(table.mu_values):
                out = table.cells[(i, j)]["outcome"]
                numbers = "nan,nan,nan,nan" if out is None else "%s,%d,%s,%s" % (
                    fmt_num(out["lambda"]), out["iterations"],
                    fmt_num(out["support"]["d_r"]),
                    fmt_num(out["support"]["d_z"]),
                )
                fh.write("%s,%s,%s,%s\n" % (
                    fmt_num(omega), fmt_num(mu), table.verdict(i, j), numbers,
                ))
