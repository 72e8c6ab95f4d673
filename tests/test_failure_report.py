"""A failing property test is reported as a failure, not as a crash.

The suite turns every warning into an error.  Hypothesis's report of a
failing example imports ``libcst``, which can warn on import; unless
``pyproject.toml`` ignores that warning, pytest stops with INTERNALERROR
(exit code 3) and reports none of the later tests.  The case runs an
always-failing ``@given`` test in a fresh pytest under the repo's settings.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ALWAYS_FAILS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(x):
    assert False
'''


def test_failing_property_test_is_reported_as_a_failure(tmp_path):
    (tmp_path / "test_always_fails.py").write_text(ALWAYS_FAILS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", ROOT,
         "test_always_fails.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed" in proc.stdout
