import re

import pytest

from cubiclass import smoothness


@pytest.fixture
def without_invertible_member(monkeypatch):
    """Witness trial 0, the invertible member, is refused: is_smooth_mod_q
    returns None on a form whose coefficients are all 1, which a seeded
    random trial does not draw.  This keeps the search that runs out of
    trials reachable with --trials 1."""
    real = smoothness.is_smooth_mod_q

    def refuse_trial_zero(F, q):
        return None if set(F.terms.values()) == {1} else real(F, q)

    monkeypatch.setattr(smoothness, "is_smooth_mod_q", refuse_trial_zero)


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if report.when != "call":
        return
    m = re.search(r"test_criterion_(\d+)", report.nodeid)
    if m:
        status = "PASS" if report.passed else "FAIL"
        print(f"\nACCEPTANCE criterion {m.group(1)}: {status} ({report.duration:.2f}s)")
