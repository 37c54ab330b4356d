"""Resource budgets, set only through FIBWORD_* environment variables."""

import os

from .errors import BudgetError, DomainError

_DEFAULTS = {
    "MODULUS_LIMIT": 10_000_000,   # largest p**lambda the brute-force scan accepts
    "PERIOD_STEPS": 100_000_000,   # steps of the one residue walk over a period
    "CENSUS_NODES": 5_000_000,     # nodes of each square-free walk (census or listing)
    "COVERAGE_CELLS": 20_000_000,  # bitmap cells (b**k) for coverage profiles
    "SP_TOTAL_MAXLEN": 400,        # word length cap for scattered palindrome totals
    "SP_LENGTH_MAXLEN": 64,        # cap for the per-length decomposition
    "LOG_FACTORIAL_TERMS": 100_000_000,  # n of the frac(log_b n!) walk (weyl, leading)
    "FACTORIAL_DIGITS": 100_000_000,     # digits of the factorial word one request reads
    "WEYL_BINS": 1_000_000,              # histogram bins of weyl
    "RHO_STEPS": 10_000_000,             # polynomial steps of one Pollard rho split
    "SQUARE_TEST_COMPARISONS": 10_000_000,  # n^2/4 half comparisons of one square test
}


def budget(name: str) -> int:
    """Return the budget `name`, honoring a FIBWORD_<name> override."""
    raw = os.environ.get("FIBWORD_" + name)
    if raw is None:
        return _DEFAULTS[name]
    try:
        value = int(raw)
    except ValueError:
        raise DomainError(f"FIBWORD_{name} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise DomainError(f"FIBWORD_{name} must be positive, got {value}")
    return value


def charge(name: str, used: int, what: str) -> None:
    """Refuse `used` units of the budget `name` once they pass its limit.

    Callers charge whole requests or whole levels of a walk, never single
    symbols or nodes. `what` names the work and its amount, as in
    "word length 500"; the refusal reads
    "<what> exceeds the FIBWORD_<name> budget <limit>".
    """
    limit = budget(name)
    if used > limit:
        raise BudgetError(f"{what} exceeds the FIBWORD_{name} budget {limit}")


def charge_power(name: str, base: int, exponent: int, what: str) -> None:
    """Charge base^exponent, base >= 2, without building a power far past the limit.

    base^(b + 1) >= 2^(b + 1) exceeds a limit of b bits, so an exponent past
    b + 1 is charged base^(b + 1) and refused just the same.
    """
    charge(name, base ** min(exponent, budget(name).bit_length() + 1), what)
