import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_failing_property(n):
    assert n < 10


def test_after_the_failure():
    pass
'''


def test_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    # the repository's pytest settings (filterwarnings = ["error"]) and conftest
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path)
    (tmp_path / "test_generated.py").write_text(FAILING_THEN_PASSING)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_generated.py"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out.splitlines()[-1], out
