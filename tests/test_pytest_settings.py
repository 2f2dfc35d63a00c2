"""The test settings in ``pyproject.toml`` let a session outlive a failure.

Every warning is an error there, but a failing hypothesis test must still be
reported as a failure and the tests after it must still run.  A test that
hangs ends the session with its traceback.
"""

import subprocess
import sys
import time
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


HANGING = '''
import time


def test_hangs():
    time.sleep(120)
'''


def run_pytest(tmp_path, *args):
    """pytest under this repository's settings, on the test files in tmp_path."""
    # hypothesis writes its example database and patches under the cwd
    return subprocess.run(
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
            *args,
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=100,
    )


def test_a_failing_hypothesis_test_ends_only_itself(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = run_pytest(tmp_path, "test_property.py")
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output


def test_a_hung_test_ends_the_session_with_its_traceback(tmp_path):
    # the settings wait 300 s; a 1 s timeout, set on the command line,
    # shows the same exit without the wait
    (tmp_path / "test_hang.py").write_text(HANGING)
    start = time.monotonic()
    proc = run_pytest(tmp_path, "-o", "faulthandler_timeout=1", "test_hang.py")
    assert time.monotonic() - start < 60
    assert proc.returncode != 0
    assert "Timeout" in proc.stderr
    assert "in test_hangs" in proc.stderr
