"""The suite's own pytest settings (`[tool.pytest.ini_options]` in
pyproject.toml)."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 5
'''


def test_failing_property_reports_its_falsifying_example(tmp_path):
    # hypothesis imports libcst while it reports a failure; under
    # filterwarnings = error, that import's DeprecationWarning used to abort
    # the whole run with INTERNALERROR and no falsifying example
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         str(tmp_path / "test_property.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
