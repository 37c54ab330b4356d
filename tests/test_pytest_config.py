"""The warning filters of pyproject.toml, checked on a pytest run of their own."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_reports_its_example(tmp_path):
    # a failing @given test makes hypothesis import libcst and mypy_extensions,
    # whose TypedDict DeprecationWarning must not end the run in an INTERNALERROR;
    # any other DeprecationWarning still fails its test
    (tmp_path / "test_generated.py").write_text(textwrap.dedent("""
        import warnings

        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_property(x):
            assert x < 10


        def test_deprecated():
            warnings.warn("still an error", DeprecationWarning)
    """))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "test_generated.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out and "2 failed" in out, out
    assert "INTERNALERROR" not in out
