import re

import pytest

from cubiclass import smoothness


@pytest.fixture
def without_invertible_member(monkeypatch):
    """Every eigenspace looks as if it carried no invertible member, so
    witness trial 0 is the all-ones vector; this keeps the search that runs
    out of trials reachable with --trials 1."""
    monkeypatch.setattr(smoothness, "invertible_member", lambda sig, a: None)


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if report.when != "call":
        return
    m = re.search(r"test_criterion_(\d+)", report.nodeid)
    if m:
        status = "PASS" if report.passed else "FAIL"
        print(f"\nACCEPTANCE criterion {m.group(1)}: {status} ({report.duration:.2f}s)")
