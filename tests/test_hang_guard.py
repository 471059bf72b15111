"""The plugin-free hang guard in ``tests/conftest.py``.

Without pytest-timeout the ``timeout`` ceiling from ``pyproject.toml``
would be inert; the guard arms ``faulthandler`` at that ceiling around
every test instead, so a hung test dumps its threads' tracebacks and
fails the session rather than wedging it.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from .conftest import HAS_PYTEST_TIMEOUT, hang_guard_seconds

REPO = Path(__file__).resolve().parent.parent


class TestArming:
    def test_arms_at_the_ceiling_without_the_plugin(self):
        assert hang_guard_seconds("120", False) == 120.0
        assert hang_guard_seconds("0.5", False) == 0.5

    def test_stays_off_when_pytest_timeout_is_installed(self):
        assert hang_guard_seconds("120", True) is None

    @pytest.mark.parametrize("ceiling", [None, "", "0", "-3"])
    def test_stays_off_without_a_positive_ceiling(self, ceiling):
        assert hang_guard_seconds(ceiling, False) is None

    def test_rejects_a_malformed_ceiling(self):
        with pytest.raises(ValueError):
            hang_guard_seconds("two minutes", False)

    def test_this_session_reads_the_configured_ceiling(self, pytestconfig):
        if HAS_PYTEST_TIMEOUT:
            pytest.skip("pytest-timeout enforces the ceiling itself")
        assert hang_guard_seconds(
            pytestconfig.getini("timeout"), False
        ) == 120.0


@pytest.mark.skipif(HAS_PYTEST_TIMEOUT,
                    reason="pytest-timeout enforces the ceiling itself")
def test_hung_test_fails_loudly(tmp_path):
    """A test sleeping past a 1 s ceiling ends its session with a
    traceback dump and a failing exit status, well before it wakes."""
    (tmp_path / "pytest.ini").write_text("[pytest]\ntimeout = 1\n")
    (tmp_path / "conftest.py").write_text(
        "from tests.conftest import (  # noqa: F401\n"
        "    pytest_addoption, pytest_configure, pytest_runtest_protocol,\n"
        "    pytest_unconfigure,\n"
        ")\n"
    )
    (tmp_path / "test_sleeps.py").write_text(textwrap.dedent("""
        import time

        def test_sleeps():
            time.sleep(60)
    """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(tmp_path)],
        capture_output=True, text=True, timeout=50, cwd=tmp_path,
        env={"PYTHONPATH": f"{REPO}{':'}{REPO / 'src'}", "PATH": ""},
    )
    assert proc.returncode != 0
    assert "Timeout" in proc.stderr
    assert "test_sleeps" in proc.stderr
