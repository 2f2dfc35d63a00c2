"""The test settings in ``pyproject.toml`` let a session outlive a failure.

Every warning is an error there, but a failing hypothesis test must still be
reported as a failure and the tests after it must still run.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_ends_only_itself(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    # hypothesis writes its example database and patches under the cwd
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "-p",
            "no:cacheprovider",
            "-c",
            str(PYPROJECT),
            "--rootdir",
            str(tmp_path),
            "test_property.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
