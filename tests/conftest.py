import contextlib
import io

import numpy as np
import pytest

from simpson3 import get_catalog

_ACCEPTANCE_LINES: list[tuple[int, str]] = []


@pytest.fixture(scope="session")
def catalog():
    return get_catalog()


@pytest.fixture(scope="session")
def acceptance():
    """Recorder for acceptance criteria; one pass/fail line per criterion."""

    def record(number: int, ok: bool, detail: str) -> bool:
        verdict = "PASS" if ok else "FAIL"
        _ACCEPTANCE_LINES.append((number, f"criterion {number}: {verdict} - {detail}"))
        return ok

    return record


def pytest_report_header(config):
    """``numpy.show_runtime()``: numpy's SIMD targets, between which its
    float32 exp and log1p, and so the descent's goldens, differ."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        np.show_runtime()
    return out.getvalue().splitlines()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
