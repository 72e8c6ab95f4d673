"""Command-line entry points.

Subcommands:

* ``solve --config c.json --out dir``  single equilibrium solve
* ``scan --config c.json --out dir``   (omega, mu) sweep with retry
* ``check --config c.json``            diagnostic inequality ensemble
* ``oracle lane-emden --gamma G --k K [--mass M]``  ODE reference constants

Exit codes: 0 success, 1 usage or config problem, 2 numeric failure or a
scan worker that died, 3 when a solve finishes with a non-Converged verdict
(the scripting hook for existence scans driven from the shell).

``COREQUILIB_THREADS`` is the command's CPU budget (default: the CPU count);
see ``config.cpu_budget``.

All emitted files are deterministic: fixed key order, no timestamps, 17
significant digits, so identical runs produce identical bytes.
"""

import argparse
import json
import math
import os
import sys

from .config import (
    ConfigError,
    build_core,
    build_grid,
    build_problem,
    cpu_budget,
    dump_effective,
    effective_config,
    load_config_file,
)
from .eos import (
    EosDomainError, EosInversionError, EosRangeError, QuadratureError, make_eos,
)
from .energy import DilationRangeError
from .field import DegenerateFieldError, GridError
from .lane_emden import polytrope_structure
from .potential import (
    core_potential,
    ensemble_ratio_maxima,
    kernel_for,
    validate_core_potential,
)
from .output import write_solve_outputs
from .scan import ScanSpec, WorkerDiedError, run_scan, write_scan_csv
from .solver import MassDriftError, solve

_NUMERIC_ERRORS = (
    QuadratureError,
    EosRangeError,
    EosDomainError,
    EosInversionError,
    GridError,
    DegenerateFieldError,
    DilationRangeError,
    MassDriftError,
    FloatingPointError,
)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        raise SystemExit(1)


def _build_parser():
    parser = _Parser(prog="corequilib", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    for name, helptext in (
        ("solve", "run one equilibrium solve"),
        ("scan", "sweep rotation speed and core strength"),
        ("check", "run the diagnostic inequality ensemble"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="JSON problem config")
        if name != "check":
            p.add_argument("--out", help="output directory")
        p.add_argument(
            "--dump-effective-config", action="store_true",
            help="print the materialized config and exit",
        )

    p = sub.add_parser("oracle", help="reference constants from ODE integration")
    p.add_argument("which", choices=["lane-emden"])
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--mass", type=float, default=1.0)
    return parser


def _cmd_solve(args):
    eff = effective_config(load_config_file(args.config))
    if args.dump_effective_config:
        sys.stdout.write(dump_effective(eff))
        return 0
    if not args.out:
        sys.stderr.write("solve: --out is required\n")
        return 1
    outcome = solve(*build_problem(eff), threads=cpu_budget())
    result = write_solve_outputs(args.out, eff, outcome)
    sys.stdout.write(
        "verdict=%s lambda=%s iterations=%d out=%s\n"
        % (result["verdict"], result["lambda"], result["iterations"], args.out)
    )
    return 0 if result["verdict"] == "Converged" else 3


def _cmd_scan(args):
    eff = effective_config(load_config_file(args.config), need_scan=True)
    if args.dump_effective_config:
        sys.stdout.write(dump_effective(eff))
        return 0
    if not args.out:
        sys.stderr.write("scan: --out is required\n")
        return 1
    table = run_scan(ScanSpec.from_config(eff), args.out)
    write_scan_csv(table, os.path.join(args.out, "scan.csv"))
    for i, omega in enumerate(table.omega_values):
        row = " ".join(
            "%-17s" % table.verdict(i, j) for j in range(len(table.mu_values))
        )
        sys.stdout.write("omega=%-6g %s\n" % (omega, row))
    for note in table.warnings:
        sys.stderr.write("warning: %s\n" % note)
    return 0


def _cmd_check(args):
    eff = effective_config(load_config_file(args.config))
    if args.dump_effective_config:
        sys.stdout.write(dump_effective(eff))
        return 0
    threads = cpu_budget()
    grid = build_grid(eff)
    refined = type(grid)(grid.r_max, grid.z_max, 2 * grid.n_r, 2 * grid.n_z)
    base_int, base_sup = ensemble_ratio_maxima(grid, threads=threads)
    fine_int, fine_sup = ensemble_ratio_maxima(refined, threads=threads)
    chg_int = abs(fine_int - base_int) / base_int
    chg_sup = abs(fine_sup - base_sup) / base_sup
    finite = all(map(math.isfinite, (base_int, base_sup, fine_int, fine_sup)))
    stable = chg_int <= 0.10 and chg_sup <= 0.10

    eos_cfg = dict(eff["eos"])
    eos = make_eos(**eos_cfg)
    growth = eos.growth_conditions_known()

    core = build_core(eff)
    core_report = None
    core_ok = True
    if core.rho_core > 0.0:
        phi = core_potential(kernel_for(grid, threads), core, 1.0)
        report = validate_core_potential(phi, core, grid)
        core_ok = report.passed
        core_report = {
            "positive": report.positive,
            "decays_outward": report.decays_outward,
            "monotone_above_core": report.monotone_above_core,
            "passed": report.passed,
        }

    passed = finite and stable and core_ok
    payload = {
        "self_energy_bound_ratio": {
            "base": base_int, "refined": fine_int, "rel_change": chg_int,
        },
        "sup_bound_ratio": {
            "base": base_sup, "refined": fine_sup, "rel_change": chg_sup,
        },
        "ensemble_fields": 100,
        "grid": {"base": [grid.n_r, grid.n_z], "refined": [refined.n_r, refined.n_z]},
        "eos_growth_conditions": "satisfied" if growth else "unverified",
        "core_potential": core_report,
        "passed": passed,
    }
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0 if passed else 2


def _cmd_oracle(args):
    structure = polytrope_structure(args.gamma, args.k)
    rho_c = structure.central_density_for_mass(args.mass)
    payload = {
        "gamma": structure.gamma,
        "k": structure.k,
        "n": structure.n,
        "xi1": structure.xi1,
        "theta_slope": structure.theta_slope,
        "mass": args.mass,
        "central_density": rho_c,
        "radius": structure.radius(rho_c),
    }
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "scan": _cmd_scan,
    "check": _cmd_check,
    "oracle": _cmd_oracle,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        sys.stderr.write("config error: %s\n" % exc)
        return 1
    except _NUMERIC_ERRORS as exc:
        sys.stderr.write("numeric error: %s\n" % exc)
        return 2
    except WorkerDiedError as exc:
        sys.stderr.write("scan error: %s\n" % exc)
        return 2
    except ValueError as exc:
        sys.stderr.write("numeric error: %s\n" % exc)
        return 2
    except OSError as exc:
        sys.stderr.write("io error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
