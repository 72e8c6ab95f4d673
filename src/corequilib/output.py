"""The files of one solve's run directory.

``write_solve_outputs`` is the one path from an ``Outcome`` to a run
directory: ``solve`` writes into ``--out``, and each scan worker into its
cell's ``cell_II_JJ/``.  ``result.json`` holds the summary, ``trace.csv``
the only per-iteration record.  Every file is deterministic: fixed key
order, no timestamps and 17 significant digits, so identical runs produce
identical bytes.
"""

import json
import os

from .field import write_field_csv
from .solver import outcome_to_dict


def fmt_num(x):
    """17 significant digits, enough to round-trip a double; None as nan."""
    return "%.17g" % (float("nan") if x is None else x)


def _emit_json(path, payload):
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2))
        fh.write("\n")


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
    _emit_json(os.path.join(outdir, "result.json"), result)
    _emit_json(os.path.join(outdir, "effective_config.json"), eff)
    write_field_csv(outcome.state.rho, os.path.join(outdir, "field.csv"))
    _write_trace_csv(os.path.join(outdir, "trace.csv"), outcome.trace)
    return result
