import re

import pytest

from cubiclass import smoothness
from cubiclass.forms import invertible_member


@pytest.fixture
def refuse_witnesses(monkeypatch):
    """refuse_witnesses((sig, a), ...) makes certify_smooth_over_Q find no
    modulus for the invertible member of each listed eigenspace, so the
    classification that leaves a family without a witness is reachable."""
    real = smoothness.certify_smooth_over_Q

    def refuse(*families):
        refused = {frozenset(invertible_member(sig, a)) for sig, a in families}

        def certify(F):
            return None if frozenset(F.terms) in refused else real(F)

        monkeypatch.setattr(smoothness, "certify_smooth_over_Q", certify)

    return refuse


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if report.when != "call":
        return
    m = re.search(r"test_criterion_(\d+)", report.nodeid)
    if m:
        status = "PASS" if report.passed else "FAIL"
        print(f"\nACCEPTANCE criterion {m.group(1)}: {status} ({report.duration:.2f}s)")
