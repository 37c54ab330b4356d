"""The infinite word formed by concatenating 0!, 1!, 2!, ... in base b."""

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import accumulate, count, islice

from .budgets import budget
from .errors import BudgetError, DomainError
from .words import Word, digit_alphabet


def factorial_blocks(base: int) -> Iterator[bytes]:
    """The base-b digits of 0!, 1!, 2!, ..., one bytes object per factorial.

    Digits are index values of the digit alphabet; joined, the blocks are the
    factorial word. n! is kept as an int64 array of its digits, least
    significant first, and each block is the previous block's array times n
    with the carries resolved.
    """
    digit_alphabet(base)  # rejects bases outside 2..36
    import numpy as np

    def times(digits, n):
        digits = digits * n  # digits < 36, so int64 holds this for any n < 2^57
        while True:
            carry, digits = np.divmod(digits, base)
            if not np.count_nonzero(carry):
                return digits
            digits[1:] += carry[:-1]
            if carry[-1]:
                digits = np.concatenate((digits, carry[-1:]))

    return (digits[::-1].astype(np.uint8).tobytes()
            for digits in accumulate(count(1), times, initial=np.ones(1, np.int64)))


def _prefix_blocks(base: int, n_digits: int) -> Iterator[bytes]:
    """The blocks of the stream, the last one cut where the first n_digits end."""
    read = 0
    for block in factorial_blocks(base):
        yield block[: n_digits - read]
        read += len(block)
        if read >= n_digits:
            return


def _chunks(blocks: Iterable[bytes], overlap: int) -> Iterator[tuple[int, bytes]]:
    """The blocks as (position, chunk), each chunk led by the last `overlap`
    digits of the chunk before.

    Every window of overlap + 1 digits thus lies whole inside exactly one
    chunk; position is where the chunk's first digit sits in the stream.
    """
    tail = b""
    position = 0
    for block in blocks:
        chunk = tail + block
        yield position, chunk
        tail = chunk[-overlap:] if overlap else b""
        position += len(chunk) - len(tail)


def factorial_word_prefix(base: int, n_digits: int) -> Word:
    """The first n_digits symbols of the concatenated-factorials word."""
    if n_digits < 0:
        raise DomainError("n_digits must be nonnegative")
    alphabet = digit_alphabet(base)
    return Word(alphabet, b"".join(_prefix_blocks(base, n_digits)))


def factor_search(base: int, target: "Word | str", digit_budget: int) -> int | None:
    """Position of the first occurrence of target in the stream, or None.

    Scans at most digit_budget digits, holding one factorial's digits plus
    len(target) - 1 overlap digits in memory.
    """
    alphabet = digit_alphabet(base)
    if isinstance(target, str):
        target = Word.from_string(target, alphabet)
    elif target.alphabet != alphabet:
        raise DomainError("target must be a word over the digit alphabet of the base")
    if len(target) == 0:
        raise DomainError("target must be nonempty")
    if digit_budget < 1:
        raise DomainError("digit budget must be positive")
    needle = target.data
    for position, chunk in _chunks(_prefix_blocks(base, digit_budget), len(needle) - 1):
        hit = chunk.find(needle)
        if hit != -1:
            return position + hit
    return None


@dataclass(frozen=True)
class CoverageReport:
    """Which length-k digit blocks appear within a prefix of the stream."""

    base: int
    k: int
    digit_budget: int
    found: int
    total: int
    missing_sample: tuple[str, ...]

    @property
    def complete(self) -> bool:
        return self.found == self.total


def coverage_profile(base: int, k: int, digit_budget: int | None = None,
                     block_budget: int | None = None) -> CoverageReport:
    """Mark every length-k window in a prefix of the stream.

    The prefix is either the first digit_budget digits or everything through
    the block of block_budget!, whichever budget is given. A full census
    needs base^k cells, so the cell budget keeps k honest. Each chunk's
    windows are named base^(k-1) d_0 + ... + d_(k-1) in int64 at once.
    """
    digit_alphabet(base)  # rejects bases outside 2..36
    if k < 1:
        raise DomainError("k must be at least 1")
    if (digit_budget is None) == (block_budget is None):
        raise DomainError("give exactly one of digit_budget and block_budget")
    if block_budget is not None and block_budget < 0:
        raise DomainError("block budget must be nonnegative")
    if digit_budget is not None and digit_budget < k:
        raise DomainError(f"digit budget {digit_budget} cannot hold a length-{k} window")
    limit = budget("COVERAGE_CELLS")
    # base >= 2, so k past the bit length of the limit is refused unbuilt
    if k > limit.bit_length() or base ** k > limit:
        raise BudgetError(f"base^k = {base}^{k} exceeds the coverage cell budget {limit}")
    import numpy as np

    cells = base ** k
    if block_budget is None:
        blocks = _prefix_blocks(base, digit_budget)
    else:
        blocks = islice(factorial_blocks(base), block_budget + 1)
    seen = np.zeros(cells, dtype=bool)
    consumed = 0
    for position, chunk in _chunks(blocks, k - 1):
        consumed = position + len(chunk)
        windows = len(chunk) - k + 1
        if windows < 1:
            continue
        digits = np.frombuffer(chunk, dtype=np.uint8)
        names = digits[:windows].astype(np.int64)
        for j in range(1, k):
            names *= base
            names += digits[j : j + windows]
        seen[names] = True
    if consumed < k:  # only a block budget gets here
        raise DomainError(f"digit budget {consumed} cannot hold a length-{k} window")
    found = int(np.count_nonzero(seen))
    # at most `found` of the first found + 20 cells are seen; a cell's base-b
    # numeral, digits 0-9 then a-z, is its block
    missing = tuple(np.base_repr(cell, base).rjust(k, "0").lower()
                    for cell in np.flatnonzero(~seen[: found + 20])[:20])
    return CoverageReport(base, k, consumed, found, cells, missing)


def _log_factorial_fracs(base: int, n_max: int) -> Iterator[float]:
    """frac(log_b n!) for n = 0..n_max, an exact sum mod 1 of terms on the 2^-52 grid."""
    log_base = math.log(base)
    frac = 0.0
    yield frac
    for j in range(1, n_max + 1):
        # frac(log(j)/log(b)), exact for j >= b and rounded to the grid by 1.0 below
        frac += (math.log(j) / log_base % 1.0 + 1.0) - 1.0
        if frac >= 1.0:
            frac -= 1.0
        yield frac


def _frac_error_bound(base: int, n_max: int) -> float:
    """Proven bound on the error of every frac _log_factorial_fracs(base, n_max) yields.

    Assume math.log is within 1 ulp; let u = 2^-53. Each quotient log(j)/log(b) is then within
    5u + O(u^2) of log_b j, relative, and % 1.0 keeps its fractional part exactly; for j < b,
    where that part is below 1, the trip through 1.0 rounds it by at most u. Every term and
    frac is a multiple of 2^-52 below 2, so the sums add no error: the frac is off mod 1 by at
    most (5u + O(u^2))·S + min(n, b - 1)·u, S = log_b n! <= n·log_b n + 1. The 6u·(n·log_b n
    + 1) returned leaves u·S for the O(u^2) terms and for the rounding of this formula.
    """
    return 2.0 ** -53 * (6 * (n_max * math.log(max(n_max, 1)) / math.log(base) + 1)
                         + min(n_max, base - 1))


def leading_digits_search(base: int, prefix: "Word | str", n_budget: int) -> int | None:
    """Smallest n <= n_budget such that n! written in base b starts with prefix.

    A filter on frac(log_b n!), widened by its proven error bound, proposes
    candidates; each is confirmed on the leading digits of math.factorial(n).
    """
    alphabet = digit_alphabet(base)
    if isinstance(prefix, str):
        prefix = Word.from_string(prefix, alphabet)
    elif prefix.alphabet != alphabet:
        raise DomainError("prefix must be a word over the digit alphabet of the base")
    if len(prefix) == 0:
        raise DomainError("prefix must be nonempty")
    if prefix.data[0] == 0:
        raise DomainError("a leading-digit prefix cannot start with 0")
    if n_budget < 0:
        raise DomainError("n budget must be nonnegative")
    m = len(prefix)
    K = int(str(prefix), base)
    # n! starts with K iff frac(log_b n!) is in [log_b K, log_b(K + 1)) - (m - 1). The
    # edges are off by 5u·m and the tests round by 3u, both under (m + 1)·2^-50; the
    # widened window may wrap past 0 or 1.
    margin = _frac_error_bound(base, n_budget) + (m + 1) * 2.0 ** -50
    lo = math.log(K, base) - (m - 1) - margin
    hi = math.log(K + 1, base) - (m - 1) + margin
    for n, frac in enumerate(_log_factorial_fracs(base, n_budget)):
        if lo <= frac <= hi or frac - 1.0 >= lo or frac + 1.0 <= hi:
            f = math.factorial(n)
            # divide by b^s with d - m - 3 <= s <= d - m for the d digits of f
            head = f // base ** max(0, int((f.bit_length() - 1) * math.log(2, base)) - m)
            while head >= base ** m:
                head //= base
            if head == K:
                return n
    return None


@dataclass(frozen=True)
class WeylReport:
    """Equidistribution diagnostics for frac(log_b(j!)), j = 1..n_max."""

    base: int
    n_max: int
    frequency: int                  # the integer N in e^(2 pi i N x)
    weyl_magnitude: float           # |1/n sum of exponentials|
    histogram: tuple[int, ...]      # counts of frac values per bin
    bins: int
    summation_error_bound: float    # proven bound on each frac's error (_frac_error_bound)


def logfactorial_equidistribution(base: int, n_max: int, frequency: int = 1,
                                  bins: int = 100) -> WeylReport:
    """Histogram the fractional parts of log_b(j!) and form their Weyl sum.

    Equidistribution would drive the magnitude toward 0 as n grows; the
    histogram shows how the mass spreads across [0, 1).
    """
    if base < 2:
        raise DomainError("base must be at least 2")
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    if frequency < 1:
        raise DomainError("frequency must be at least 1")
    if bins < 1:
        raise DomainError("bins must be at least 1")
    hist = [0] * bins
    re = im = 0.0
    two_pi_n = 2.0 * math.pi * frequency
    for frac in islice(_log_factorial_fracs(base, n_max), 1, None):  # j = 1..n_max
        bin_at = min(int(frac * bins), bins - 1)
        hist[bin_at] += 1
        angle = two_pi_n * frac
        re += math.cos(angle)
        im += math.sin(angle)
    magnitude = math.hypot(re, im) / n_max
    return WeylReport(base, n_max, frequency, magnitude, tuple(hist), bins,
                      _frac_error_bound(base, n_max))
