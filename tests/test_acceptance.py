"""Acceptance gate: one test per end-to-end criterion, one pass/fail line each.

Each criterion lives in fibword.verify with its tolerances and wall-clock
budget pinned; this module runs every entry of verify.CHECKS in order and
reports. The same checks back the `fibword verify` subcommand, so CI and the
CLI agree.
"""

import pytest

from fibword import verify


@pytest.mark.parametrize("name", list(verify.CHECKS))
def test_acceptance_check(name):
    result = verify.run_check(name)
    status = "PASS" if result.passed else "FAIL"
    budget = f" (limit {result.limit:.0f}s)" if result.limit else ""
    print(f"[{status}] {name}: {result.detail} [{result.seconds:.2f}s{budget}]")
    assert result.passed, f"{name}: {result.detail}"
