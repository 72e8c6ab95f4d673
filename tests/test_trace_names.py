"""The benchmark's layer tracer names calls that must exist in the package.

``bench/layertrace.py`` wraps program calls by name from outside (``SPANS``
and ``COUNTS``).  A renamed call would only show up as a failure under
``bench/run.py --trace 1``; this test makes it fail the test suite instead.
It imports the tracer's tables and looks every name up, the way
``layertrace._replace`` does.
"""

import importlib
import importlib.util
import os

import pytest

import corequilib  # noqa: F401  (the tracer expects the package imported)

LAYERTRACE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "bench", "layertrace.py",
)


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACER = _layertrace()
TRACED = [entry[:3] for entry in _TRACER.SPANS + _TRACER.COUNTS]


@pytest.mark.parametrize(
    "module_name,owner,attr", TRACED, ids=[".".join(filter(None, e)) for e in TRACED]
)
def test_traced_call_resolves(module_name, owner, attr):
    module = importlib.import_module(module_name)
    if owner is None:
        assert callable(getattr(module, attr, None))
    else:
        # layertrace wraps the class's own attribute, not an inherited one
        assert callable(vars(getattr(module, owner)).get(attr))
