"""Problem configuration: one JSON document, fully materialized defaults.

Sections are ``eos``, ``grid``, ``core``, ``rotation``, ``solver`` and (for
sweeps) ``scan``.  ``eos`` and ``grid`` are mandatory; everything else has
defaults.  Materialization writes every default into the effective config, so
the file dropped next to a run's outputs reproduces it with no version
archaeology, and unknown keys are rejected by name instead of ignored.
"""

import dataclasses
import json
import os

from .eos import make_eos
from .field import CoreRegion, CylGrid
from .potential import RotationLaw
from .solver import InitialGuess, ProblemSpec, ScfConfig

_SECTIONS = ("eos", "grid", "core", "rotation", "solver", "scan")


class ConfigError(ValueError):
    """Malformed or inconsistent configuration; message names the key."""


def load_config_file(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config file: %s" % exc) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config is not valid JSON: %s" % exc) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def cpu_budget():
    """The command's CPU budget: ``COREQUILIB_THREADS``, or the CPU count.

    A scan spends it on worker processes and a solve or check on the
    potential kernel's threads; see ``scan.run_scan`` and ``AxiKernel``.
    """
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


# -- validation helpers --------------------------------------------------------

def _reject_unknown(section, given, allowed):
    for key in given:
        if key not in allowed:
            raise ConfigError(
                "unknown key '%s' in section '%s'" % (key, section)
            )


def _number(section, key, value, positive=False, nonneg=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("key '%s' in section '%s' must be a number" % (key, section))
    value = float(value)
    if positive and not value > 0.0:
        raise ConfigError("key '%s' in section '%s' must be positive" % (key, section))
    if nonneg and value < 0.0:
        raise ConfigError("key '%s' in section '%s' must be non-negative" % (key, section))
    return value


def _integer(section, key, value, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("key '%s' in section '%s' must be an integer" % (key, section))
    if minimum is not None and value < minimum:
        raise ConfigError(
            "key '%s' in section '%s' must be at least %d" % (key, section, minimum)
        )
    return value


def _number_list(section, key, value, nonneg=False):
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(
            "key '%s' in section '%s' must be a non-empty array" % (key, section)
        )
    return [_number(section, key, v, nonneg=nonneg) for v in value]


# -- per-section materialization ----------------------------------------------

def _eff_eos(sec):
    if not isinstance(sec, dict) or "kind" not in sec:
        raise ConfigError("section 'eos' needs a 'kind' key")
    kind = sec["kind"]
    if kind == "polytrope":
        _reject_unknown("eos", sec, {"kind", "k", "gamma"})
        for key in ("k", "gamma"):
            if key not in sec:
                raise ConfigError("missing key '%s' in section 'eos'" % key)
        return {
            "kind": kind,
            "k": _number("eos", "k", sec["k"], positive=True),
            "gamma": _number("eos", "gamma", sec["gamma"], positive=True),
        }
    if kind == "tabulated-generic":
        _reject_unknown("eos", sec, {"kind", "s", "f"})
        for key in ("s", "f"):
            if key not in sec:
                raise ConfigError("missing key '%s' in section 'eos'" % key)
        return {
            "kind": kind,
            "s": _number_list("eos", "s", sec["s"]),
            "f": _number_list("eos", "f", sec["f"]),
        }
    raise ConfigError("unknown eos kind %r" % (kind,))


def _eff_grid(sec):
    if not isinstance(sec, dict):
        raise ConfigError("section 'grid' must be an object")
    _reject_unknown("grid", sec, {"r_max", "z_max", "n_r", "n_z"})
    for key in ("r_max", "z_max", "n_r", "n_z"):
        if key not in sec:
            raise ConfigError("missing key '%s' in section 'grid'" % key)
    return {
        "r_max": _number("grid", "r_max", sec["r_max"], positive=True),
        "z_max": _number("grid", "z_max", sec["z_max"], positive=True),
        "n_r": _integer("grid", "n_r", sec["n_r"], 8),
        "n_z": _integer("grid", "n_z", sec["n_z"], 8),
    }


def _eff_core(sec, grid):
    if sec is None:
        # pinpoint placeholder: masks nothing, carries no mass
        tiny = 1e-3 * grid["r_max"]
        return {"a_r": tiny, "a_z": tiny, "rho": 0.0, "mu": 0.0}
    if not isinstance(sec, dict):
        raise ConfigError("section 'core' must be an object")
    _reject_unknown(
        "core", sec, {"a_r", "a_z", "rho", "mu", "profile_z", "profile_a"}
    )
    out = {
        "rho": _number("core", "rho", sec.get("rho", 0.0), nonneg=True),
        "mu": _number("core", "mu", sec.get("mu", 0.0), nonneg=True),
    }
    has_profile = "profile_z" in sec or "profile_a" in sec
    if has_profile:
        if "a_r" in sec or "a_z" in sec:
            raise ConfigError(
                "section 'core' mixes spheroid keys with profile keys"
            )
        for key in ("profile_z", "profile_a"):
            if key not in sec:
                raise ConfigError("missing key '%s' in section 'core'" % key)
        out["profile_z"] = _number_list("core", "profile_z", sec["profile_z"])
        out["profile_a"] = _number_list("core", "profile_a", sec["profile_a"], nonneg=True)
    else:
        for key in ("a_r", "a_z"):
            if key not in sec:
                raise ConfigError("missing key '%s' in section 'core'" % key)
        out["a_r"] = _number("core", "a_r", sec["a_r"], positive=True)
        out["a_z"] = _number("core", "a_z", sec["a_z"], positive=True)
    return out


def _eff_rotation(sec):
    if sec is None:
        return {"kind": "constant", "omega": 0.0}
    if not isinstance(sec, dict) or "kind" not in sec:
        raise ConfigError("section 'rotation' needs a 'kind' key")
    kind = sec["kind"]
    if kind == "constant":
        _reject_unknown("rotation", sec, {"kind", "omega"})
        return {
            "kind": kind,
            "omega": _number("rotation", "omega", sec.get("omega", 0.0), nonneg=True),
        }
    if kind == "profile":
        _reject_unknown("rotation", sec, {"kind", "s", "omega"})
        for key in ("s", "omega"):
            if key not in sec:
                raise ConfigError("missing key '%s' in section 'rotation'" % key)
        return {
            "kind": kind,
            "s": _number_list("rotation", "s", sec["s"], nonneg=True),
            "omega": _number_list("rotation", "omega", sec["omega"], nonneg=True),
        }
    raise ConfigError("unknown rotation kind %r" % (kind,))


def _eff_guess(value):
    if value is None:
        return {"kind": "gaussian-blob"}
    if isinstance(value, str):
        value = {"kind": value}
    if not isinstance(value, dict) or "kind" not in value:
        raise ConfigError(
            "key 'initial_guess' in section 'solver' must be a kind string "
            "or an object with a 'kind'"
        )
    _reject_unknown("solver.initial_guess", value, {"kind", "path"})
    kind = value["kind"]
    out = {"kind": kind}
    if kind == "from-file":
        if "path" not in value:
            raise ConfigError(
                "missing key 'path' in section 'solver.initial_guess'"
            )
        out["path"] = str(value["path"])
    elif "path" in value:
        raise ConfigError(
            "key 'path' in section 'solver.initial_guess' only applies to from-file"
        )
    return out


#: type check of a ScfConfig field, chosen by the type of its default
_SOLVER_TYPES = {int: _integer, float: _number}


def _scf_config(solver):
    """ScfConfig from the keys of a materialized solver section."""
    return ScfConfig(**{
        f.name: solver[f.name] for f in dataclasses.fields(ScfConfig)
    })


def _eff_solver(sec):
    """The solver section: ``mass``, ``initial_guess`` and every ScfConfig
    field, whose ranges ScfConfig checks itself."""
    sec = {} if sec is None else sec
    if not isinstance(sec, dict):
        raise ConfigError("section 'solver' must be an object")
    fields = dataclasses.fields(ScfConfig)
    _reject_unknown(
        "solver", sec, {f.name for f in fields} | {"mass", "initial_guess"}
    )
    out = {"mass": _number("solver", "mass", sec.get("mass", 1.0), positive=True)}
    for f in fields:
        check = _SOLVER_TYPES[type(f.default)]
        out[f.name] = check("solver", f.name, sec.get(f.name, f.default))
    try:
        _scf_config(out)
    except ValueError as exc:
        raise ConfigError("section 'solver': %s" % exc) from exc
    out["initial_guess"] = _eff_guess(sec.get("initial_guess"))
    return out


def _eff_scan(sec):
    if not isinstance(sec, dict):
        raise ConfigError("section 'scan' must be an object")
    _reject_unknown("scan", sec, {"omega_values", "mu_values", "retry_factor"})
    for key in ("omega_values", "mu_values"):
        if key not in sec:
            raise ConfigError("missing key '%s' in section 'scan'" % key)
        values = _number_list("scan", key, sec[key], nonneg=True)
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError(
                "key '%s' in section 'scan' must be strictly increasing" % key
            )
    factor = _number(
        "scan", "retry_factor", sec.get("retry_factor", 1.5), positive=True
    )
    if not factor > 1.0:
        raise ConfigError("key 'retry_factor' in section 'scan' must exceed 1")
    return {
        "omega_values": _number_list("scan", "omega_values", sec["omega_values"]),
        "mu_values": _number_list("scan", "mu_values", sec["mu_values"]),
        "retry_factor": factor,
    }


def effective_config(raw, need_scan=False):
    """Validate ``raw`` and return the fully materialized configuration."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    for key in raw:
        if key not in _SECTIONS:
            raise ConfigError("unknown section '%s'" % key)
    for required in ("eos", "grid"):
        if required not in raw:
            raise ConfigError("missing section '%s'" % required)
    eff = {
        "eos": _eff_eos(raw["eos"]),
        "grid": _eff_grid(raw["grid"]),
    }
    eff["core"] = _eff_core(raw.get("core"), eff["grid"])
    eff["rotation"] = _eff_rotation(raw.get("rotation"))
    eff["solver"] = _eff_solver(raw.get("solver"))
    if need_scan and "scan" not in raw:
        raise ConfigError("missing section 'scan'")
    if "scan" in raw:
        eff["scan"] = _eff_scan(raw["scan"])
    return eff


# -- object construction -------------------------------------------------------

def build_grid(eff):
    g = eff["grid"]
    return CylGrid(g["r_max"], g["z_max"], g["n_r"], g["n_z"])


def build_core(eff):
    c = eff["core"]
    if "profile_z" in c:
        return CoreRegion.from_profile(c["profile_z"], c["profile_a"], c["rho"])
    return CoreRegion.spheroid(c["a_r"], c["a_z"], c["rho"])


def build_rotation(eff):
    r = eff["rotation"]
    if r["kind"] == "constant":
        return RotationLaw.constant(r["omega"])
    return RotationLaw.profile(r["s"], r["omega"])


def build_problem(eff):
    """(ProblemSpec, ScfConfig) from an effective configuration.

    Construction errors (an exponent out of range, a core that does not fit
    the grid, a non-monotone table) surface as ConfigError so the CLI can
    treat them as usage problems.
    """
    try:
        e = eff["eos"]
        eos = make_eos(**e)
        grid = build_grid(eff)
        core = build_core(eff)
        core.mask(grid)  # geometry consistency check, fails early
        rotation = build_rotation(eff)
        s = eff["solver"]
        guess = InitialGuess(
            s["initial_guess"]["kind"], s["initial_guess"].get("path")
        )
        spec = ProblemSpec(
            eos=eos,
            grid=grid,
            core=core,
            mu=eff["core"]["mu"],
            rotation=rotation,
            mass=s["mass"],
            initial_guess=guess,
        )
        scf = _scf_config(s)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return spec, scf


def dump_effective(eff):
    """Canonical serialization of an effective config (stable key order)."""
    return json.dumps(eff, sort_keys=True, indent=2) + "\n"
