"""The suite's pytest settings report a failing property test as a failure.

``pyproject.toml`` turns every warning into an error. Hypothesis's failure
report may import modules that warn on import (with ``libcst`` installed,
``mypy_extensions.TypedDict`` raises a ``DeprecationWarning``); an error
there ends the session with ``INTERNALERROR`` instead of a failed test.
Without ``libcst`` the import never happens, so the test passes either way.
"""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROPERTY_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_given_test_fails_without_ending_the_session(tmp_path):
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_property.py").write_text(PROPERTY_TESTS, encoding="ascii")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr, result.stdout
    assert "1 failed, 1 passed" in result.stdout, result.stdout
    assert result.returncode == 1
