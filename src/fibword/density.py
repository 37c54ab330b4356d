"""Symbol densities: exact frequencies, window bounds, golden ratios, Perron data."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BalanceViolation, DomainError
from .modfib import fib_pair
from .words import Word, mbonacci_alphabet


def symbol_frequency(w: Word, symbol: "int | str") -> Fraction:
    """Exact occurrence frequency of a symbol; 0 for the empty word by convention."""
    if len(w) == 0:
        return Fraction(0)
    return Fraction(w.count(symbol), len(w))


def _occurrence_prefix(data: bytes, s: int) -> np.ndarray:
    """prefix[i] = occurrences of letter s in data[:i].

    The length-n windows hold prefix[n:] - prefix[:-n] occurrences, by start.
    """
    import numpy as np

    occ = np.frombuffer(data, dtype=np.uint8) == s
    # int32 halves the bytes that each pass over windows of 2^16 or more symbols reads
    prefix = np.zeros(len(data) + 1, dtype=np.int32)
    np.cumsum(occ, dtype=np.int32, out=prefix[1:])
    return prefix


def window_frequency_sup(w: Word, symbol: "int | str", n: int) -> Fraction:
    """Largest frequency of the symbol over all length-n windows of w."""
    if not 1 <= n <= len(w):
        raise DomainError(f"window length must be in 1..{len(w)}, got {n}")
    prefix = _occurrence_prefix(w.data, w.alphabet.as_index(symbol))
    return Fraction(int((prefix[n:] - prefix[:-n]).max()), n)


@dataclass(frozen=True)
class FrequencyReport:
    symbol: str
    word_length: int
    global_frequency: Fraction
    window: int | None = None
    window_sup: Fraction | None = None
    target: float | None = None
    max_deviation: float | None = None


def frequency_report(w: Word, symbol: "int | str", window: int | None = None,
                     target: float | None = None) -> FrequencyReport:
    """Global frequency of a symbol, with optional window sup and target deviation.

    The deviation is taken exactly, with the float target read as the
    rational it represents, and rounded once.
    """
    if target is not None and not math.isfinite(target):
        raise DomainError(f"target must be a finite number, got {target}")
    s = w.alphabet.as_index(symbol)
    freq = symbol_frequency(w, s)
    sup = window_frequency_sup(w, s, window) if window is not None else None
    dev = None
    if target is not None:
        exact = Fraction(target)
        dev = float(max(abs(q - exact) for q in (freq, sup) if q is not None))
    return FrequencyReport(w.alphabet.label(s), len(w), freq, window, sup, target, dev)


@dataclass(frozen=True)
class BalanceReport:
    """Per-window-length deviation maxima of a symbol frequency from a target."""

    symbol: str
    target: float
    rows: tuple[tuple[int, float, int], ...]  # (n, max deviation, window position)
    worst_n: int
    worst_position: int
    worst_deviation: float

    def within_bound(self) -> bool:
        # each row holds the correctly rounded deviation, and rounding is
        # monotone, so this agrees with the exact test in balance_check
        return all(dev <= 1.0 / n for n, dev, _ in self.rows)


def balance_check(w: Word, symbol: "int | str", target: float,
                  n_values) -> BalanceReport:
    """Check |window frequency - target| <= 1/n for each window length n.

    The test is exact: |count - n * target| <= 1, with the float target taken
    as the rational it represents. Raises BalanceViolation on the first
    offending window, which is how a non-Sturmian input announces itself.
    """
    import numpy as np

    s = w.alphabet.as_index(symbol)
    seen = set()
    for n in map(int, n_values):   # each n is checked as it is read: at most len(w) are kept
        if not 1 <= n <= len(w):
            raise DomainError(f"window lengths must lie in 1..{len(w)}")
        seen.add(n)
    if not seen:
        raise DomainError("need at least one window length")
    ns = sorted(seen)
    if not math.isfinite(target):
        raise DomainError(f"target must be a finite number, got {target}")
    prefix = _occurrence_prefix(w.data, s)
    # a window of n < 2^16 symbols holds fewer than 2^16 occurrences, so the prefix
    # sums mod 2^16 count it exactly by wrapping subtraction, reading half the bytes
    short = prefix.astype(np.uint16) if ns[0] < 2 ** 16 else None
    num, den = float(target).as_integer_ratio()
    rows = []
    worst = (-1, 0, 0)  # (den * |count - n * target|, n, position)
    for n in ns:
        sums = short if n < 2 ** 16 else prefix
        counts = sums[n:] - sums[:-n]
        hi_at = int(np.argmax(counts))
        lo_at = int(np.argmin(counts))
        above = int(counts[hi_at]) * den - n * num     # den * (count - n * target)
        below = n * num - int(counts[lo_at]) * den
        excess, pos = (above, hi_at) if above >= below else (below, lo_at)
        dev = excess / (n * den)   # int / int rounds correctly
        if excess > den:
            raise BalanceViolation(n, pos, dev, 1.0 / n)
        rows.append((n, dev, pos))
        if excess > worst[0]:
            worst = (excess, n, pos)
    _, wn, wpos = worst
    wdev = next(dev for n, dev, _ in rows if n == wn)
    return BalanceReport(w.alphabet.label(s), target, tuple(rows), wn, wpos, wdev)


# ---------------------------------------------------------------------------
# golden ratio density


def golden_density(n_max: int) -> list[Fraction]:
    """The exact ratios F(n)/F(n+1) for n = 1..n_max; they approach 1/phi."""
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    out = []
    a, b = 1, 1  # F(1), F(2)
    for _ in range(n_max):
        out.append(Fraction(a, b))
        a, b = b, a + b
    return out


def _lt_sqrt5(q: Fraction) -> bool:
    return q < 0 or q * q < 5


def _gt_sqrt5(q: Fraction) -> bool:
    return q > 0 and q * q > 5


def golden_deviation_below(d: Fraction, eps: Fraction) -> bool:
    """Certify |d - (phi - 1)| < eps with integer arithmetic only.

    phi - 1 = (sqrt(5) - 1) / 2, so the claim is 2(d - eps) + 1 < sqrt(5)
    < 2(d + eps) + 1, and each side reduces to comparing a square with 5.
    """
    lo = 2 * (d - eps) + 1
    hi = 2 * (d + eps) + 1
    return _lt_sqrt5(lo) and _gt_sqrt5(hi)


def golden_deviation(d: Fraction) -> Fraction:
    """|d - (phi - 1)| as a rational within a relative 2^-65 of the true value.

    With d = a/b, d^2 + d - 1 = (d - (phi - 1))(d + phi) and b^2·(d^2 + d - 1)
    = a^2 + ab - b^2 is a nonzero integer, so the deviation is at least
    1/(b^2·|d + phi|) > 1/(b·(|a| + 2b)). Taking sqrt(5) to 2^-s with
    2^s >= 2^64·b·(|a| + 2b) keeps the error below 2^-65 of the deviation.
    """
    a, b = d.numerator, d.denominator
    s = b.bit_length() + (abs(a) + 2 * b).bit_length() + 64
    root = math.isqrt(5 << 2 * s)  # floor(sqrt(5) * 2^s)
    golden = (Fraction(root, 1 << s) - 1) / 2
    return abs(d - golden)


def fibonacci_ratio(n: int) -> Fraction:
    """F(n) / F(n+1), exactly."""
    if n < 1:
        raise DomainError("n must be at least 1")
    return Fraction(*fib_pair(n))


GOLDEN_RATIO = (1 + math.sqrt(5)) / 2
RARE_LETTER_TARGET = (3 - math.sqrt(5)) / 2  # 1/phi^2, frequency of 'b' under a->ab, b->a


# ---------------------------------------------------------------------------
# Perron data of the m-bonacci substitutions


@dataclass(frozen=True)
class PerronData:
    """Dominant eigenvalue data of the m-letter substitution matrix."""

    m: int
    rho: float                           # bracket[0] rounded once, within 1 ulp of the root
    bracket: tuple[Fraction, Fraction]   # (a, a + 1) / 2^60 with p < 0 < p at its ends
    poly_residual: float                 # |p(rho)|, exact and rounded once
    frequencies: tuple[float, ...]       # (rho^-1, ..., rho^-m), the symbol frequencies
    frequency_sum_error: float           # |sum - 1| of those floats, rounded once
    conjugate_moduli: tuple[float, ...]  # np.roots estimates, largest first
    pisot: bool                          # true for every m, by Brauer's theorem


def _scaled_poly(m: int, a: int, k: int) -> int:
    """2^(km)·p(a/2^k) for p(x) = x^m - x^(m-1) - ... - x - 1, exactly."""
    v = 1
    for t in range(1, m + 1):  # Horner, scaled by 2^k per step
        v = v * a - (1 << k * t)
    return v


def perron_eigenvalue(m: int) -> PerronData:
    """Root of x^m = x^(m-1) + ... + 1 in (1, 2), plus spectral side data.

    Bisection on the dyadics a/2^60 with exact signs of 2^(60m)·p(a/2^60)
    brackets the root between lo and lo + 2^-60. rho = lo and the frequencies
    lo^-i are each rounded once, so within 1 ulp of the root and its powers
    (lo^-i is within 35·2^-60 relative of them). p is Pisot for every m >= 2
    (Brauer, Math. Nachr. 4, 1951); the conjugate moduli are np.roots estimates.
    """
    mbonacci_alphabet(m)  # rejects m outside 2..35 before any root finding
    import numpy as np

    lo, hi = 1 << 60, 2 << 60  # p(1) = 1 - m < 0 < 1 = p(2)
    for _ in range(60):
        mid = (lo + hi) >> 1
        if _scaled_poly(m, mid, 60) < 0:
            lo = mid
        else:
            hi = mid
    rho = lo / 2 ** 60
    num, den = rho.as_integer_ratio()  # den = 2^k
    k = den.bit_length() - 1
    freqs = tuple((1 << 60 * i) / lo ** i for i in range(1, m + 1))
    # rho is the one root of modulus > 1, so the other m - 1 are the smallest
    moduli = sorted(map(float, np.abs(np.roots([1] + [-1] * m))), reverse=True)
    return PerronData(
        m=m,
        rho=rho,
        bracket=(Fraction(lo, 1 << 60), Fraction(hi, 1 << 60)),
        poly_residual=abs(_scaled_poly(m, num, k)) / (1 << k * m),
        frequencies=freqs,
        frequency_sum_error=abs(math.fsum((*freqs, -1.0))),
        conjugate_moduli=tuple(moduli[1:]),
        pisot=True,
    )
