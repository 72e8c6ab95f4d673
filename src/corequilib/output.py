"""The files of one solve's run directory.

``solve`` writes them into ``--out``, and each scan worker writes them into
its cell's ``cell_II_JJ/``.  Every file is deterministic: fixed key order,
no timestamps and 17 significant digits, so identical runs produce
identical bytes.
"""

import json
import os

from .field import write_field_csv


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
        for row in trace:
            fh.write(
                "%d,%s,%s,%s\n"
                % (
                    row["iteration"], fmt_num(row["lambda"]),
                    fmt_num(row["energy_total"]), fmt_num(row["update_norm"]),
                )
            )


def write_solve_outputs(outdir, eff, result, field):
    """The four files of one solve; ``result`` is from ``outcome_to_dict``."""
    os.makedirs(outdir, exist_ok=True)
    _emit_json(os.path.join(outdir, "result.json"), result)
    _emit_json(os.path.join(outdir, "effective_config.json"), eff)
    write_field_csv(field, os.path.join(outdir, "field.csv"))
    _write_trace_csv(os.path.join(outdir, "trace.csv"), result["trace"])
