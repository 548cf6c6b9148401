import subprocess
import sys
from pathlib import Path

import eulerext


def test_every_exported_name_resolves_once():
    names = eulerext.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(eulerext, name), name


CHILD_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_test_does_not_stop_the_run(tmp_path):
    # hypothesis's failure report imports modules that emit deprecation
    # warnings; under warnings-as-errors they must not abort the session
    (tmp_path / "test_child.py").write_text(CHILD_TESTS)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config), "test_child.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
