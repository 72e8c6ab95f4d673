"""Problem configuration: one JSON document, fully materialized defaults.

Sections are ``eos``, ``grid``, ``core``, ``rotation``, ``solver`` and (for
sweeps) ``scan``.  ``eos`` and ``grid`` are mandatory; everything else has
defaults.  Materialization writes every default into the effective config, so
the file dropped next to a run's outputs reproduces it with no version
archaeology, and unknown keys are rejected by name instead of ignored.
"""

import dataclasses
import functools
import json
import math
import os

from .eos import Polytrope, TabulatedEos
from .field import CoreRegion, CylGrid
from .potential import RotationLaw
from .solver import GUESS_KINDS, InitialGuess, ProblemSpec, ScfConfig

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


# -- value checks: (section, key, value) -> checked value ----------------------

def _number(section, key, value, positive=False, nonneg=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("key '%s' in section '%s' must be a number" % (key, section))
    try:
        value = float(value)
    except OverflowError:       # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError("key '%s' in section '%s' must be finite" % (key, section))
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


_POSITIVE = functools.partial(_number, positive=True)
_NONNEG = functools.partial(_number, nonneg=True)
_NONNEG_LIST = functools.partial(_number_list, nonneg=True)
_CELLS = functools.partial(_integer, minimum=8)


def _increasing(section, key, value):
    values = _NONNEG_LIST(section, key, value)
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(
            "key '%s' in section '%s' must be strictly increasing" % (key, section)
        )
    return values


def _growth(section, key, value):
    value = _POSITIVE(section, key, value)
    if not value > 1.0:
        raise ConfigError("key '%s' in section '%s' must exceed 1" % (key, section))
    return value


def _text(section, key, value):
    if not isinstance(value, str):
        raise ConfigError("key '%s' in section '%s' must be a string" % (key, section))
    return value


def _guess(section, key, value):
    """``solver.initial_guess``: a kind string, or an object with a kind."""
    if value is None:
        value = "gaussian-blob"
    if isinstance(value, str):
        value = {"kind": value}
    return _kind("solver.initial_guess", value, _GUESS)


# -- key tables: key -> (check, default or REQUIRED) ---------------------------

REQUIRED = object()

_EOS = {
    "polytrope": {"k": (_POSITIVE, REQUIRED), "gamma": (_POSITIVE, REQUIRED)},
    "tabulated-generic": {
        "s": (_number_list, REQUIRED), "f": (_number_list, REQUIRED),
    },
}
_GRID = {
    "r_max": (_POSITIVE, REQUIRED),
    "z_max": (_POSITIVE, REQUIRED),
    "n_r": (_CELLS, REQUIRED),
    "n_z": (_CELLS, REQUIRED),
}
_STRENGTH = {"rho": (_NONNEG, 0.0), "mu": (_NONNEG, 0.0)}
_SPHEROID = {"a_r": (_NONNEG, REQUIRED), "a_z": (_NONNEG, REQUIRED), **_STRENGTH}
_PROFILE = {
    "profile_z": (_number_list, REQUIRED),
    "profile_a": (_NONNEG_LIST, REQUIRED),
    **_STRENGTH,
}
_ROTATION = {
    "constant": {"omega": (_NONNEG, 0.0)},
    "profile": {"s": (_NONNEG_LIST, REQUIRED), "omega": (_NONNEG_LIST, REQUIRED)},
}
#: one key table per ``solver.GUESS_KINDS`` kind; only a file has a path
_GUESS = {kind: {} for kind in GUESS_KINDS}
_GUESS["from-file"] = {"path": (_text, REQUIRED)}
#: ``mass``, ``initial_guess`` and every ScfConfig field, type-checked by its
#: default's type; ScfConfig checks the fields' ranges itself
_SOLVER = {
    "mass": (_POSITIVE, 1.0),
    **{
        f.name: ({int: _integer, float: _number}[type(f.default)], f.default)
        for f in dataclasses.fields(ScfConfig)
    },
    "initial_guess": (_guess, None),
}
_SCAN = {
    "omega_values": (_increasing, REQUIRED),
    "mu_values": (_increasing, REQUIRED),
    "retry_factor": (_growth, 1.5),
}


def _keys(section, given, table):
    """``given`` checked against ``table``, with every default filled in."""
    if not isinstance(given, dict):
        raise ConfigError("section '%s' must be an object" % section)
    for key in given:
        if key not in table:
            raise ConfigError(
                "unknown key '%s' in section '%s'" % (key, section)
            )
    out = {}
    for key, (check, default) in table.items():
        if key not in given and default is REQUIRED:
            raise ConfigError("missing key '%s' in section '%s'" % (key, section))
        out[key] = check(section, key, given.get(key, default))
    return out


def _kind(section, given, tables):
    """A section whose ``kind`` picks its key table from ``tables``."""
    if not isinstance(given, dict) or "kind" not in given:
        raise ConfigError("section '%s' needs a 'kind' key" % section)
    kind = given["kind"]
    if not isinstance(kind, str) or kind not in tables:
        raise ConfigError("unknown %s kind %r" % (section, kind))
    rest = {key: value for key, value in given.items() if key != "kind"}
    return {"kind": kind, **_keys(section, rest, tables[kind])}


def _core(sec):
    if sec is None:   # the empty core: zero semi-axes cover no cell
        return {"a_r": 0.0, "a_z": 0.0, "rho": 0.0, "mu": 0.0}
    profile = isinstance(sec, dict) and ("profile_z" in sec or "profile_a" in sec)
    if profile and ("a_r" in sec or "a_z" in sec):
        raise ConfigError("section 'core' mixes spheroid keys with profile keys")
    return _keys("core", sec, _PROFILE if profile else _SPHEROID)


def _scf_config(solver):
    """ScfConfig from the keys of a materialized solver section."""
    return ScfConfig(**{
        f.name: solver[f.name] for f in dataclasses.fields(ScfConfig)
    })


def _solver(sec):
    out = _keys("solver", {} if sec is None else sec, _SOLVER)
    try:
        _scf_config(out)
    except ValueError as exc:
        raise ConfigError("section 'solver': %s" % exc) from exc
    return out


def effective_config(raw):
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
        "eos": _kind("eos", raw["eos"], _EOS),
        "grid": _keys("grid", raw["grid"], _GRID),
    }
    eff["core"] = _core(raw.get("core"))
    rotation = raw.get("rotation")
    eff["rotation"] = _kind(
        "rotation", {"kind": "constant"} if rotation is None else rotation,
        _ROTATION,
    )
    eff["solver"] = _solver(raw.get("solver"))
    if "scan" in raw:
        eff["scan"] = _keys("scan", raw["scan"], _SCAN)
    return eff


# -- object construction -------------------------------------------------------

def build_problem(eff):
    """(ProblemSpec, ScfConfig) from an effective configuration.

    Each section maps to the object whose construction checks it, and
    ``ProblemSpec`` checks the sections against each other.  Their errors
    surface as ConfigError so the CLI can treat them as usage problems.
    """
    try:
        e, g, c, r = eff["eos"], eff["grid"], eff["core"], eff["rotation"]
        if e["kind"] == "polytrope":
            eos = Polytrope(e["k"], e["gamma"])
        else:
            eos = TabulatedEos(e["s"], e["f"])
        grid = CylGrid(g["r_max"], g["z_max"], g["n_r"], g["n_z"])
        if "profile_z" in c:
            core = CoreRegion.from_profile(c["profile_z"], c["profile_a"], c["rho"])
        else:
            core = CoreRegion.spheroid(c["a_r"], c["a_z"], c["rho"])
        if r["kind"] == "constant":
            rotation = RotationLaw.constant(r["omega"])
        else:
            rotation = RotationLaw.profile(r["s"], r["omega"])
        spec = ProblemSpec(
            eos=eos,
            grid=grid,
            core=core,
            mu=c["mu"],
            rotation=rotation,
            mass=eff["solver"]["mass"],
            initial_guess=InitialGuess(**eff["solver"]["initial_guess"]),
        )
        scf = _scf_config(eff["solver"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except OverflowError as exc:  # the square of a huge omega or r_max
        raise ConfigError("a config value overflows a float") from exc
    return spec, scf
