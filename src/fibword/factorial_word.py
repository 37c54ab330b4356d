"""The infinite word formed by concatenating 0!, 1!, 2!, ... in base b."""

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate, count, islice

from .budgets import budget
from .errors import BudgetError, DomainError
from .words import Word, digit_alphabet


def to_base_digits(x: int, base: int) -> list[int]:
    """Digits of x in the given base, most significant first.

    Splits on powers base^(2^i) so huge factorials convert in near-linear
    time and without tripping the interpreter's str() digit limit.
    """
    if x < 0:
        raise DomainError("x must be nonnegative")
    if base < 2:
        raise DomainError("base must be at least 2")
    if x < base:
        return [x]
    powers = [base]
    while powers[-1] * powers[-1] <= x:
        powers.append(powers[-1] * powers[-1])

    def padded(v: int, k: int) -> list[int]:
        # exactly 2^k digits of v, where v < powers[k] = base^(2^k)
        if k == 0:
            return [v]
        hi, lo = divmod(v, powers[k - 1])
        return padded(hi, k - 1) + padded(lo, k - 1)

    def top(v: int, k: int) -> list[int]:
        # digits of v < powers[k]^2 without leading zeros
        if k < 0:
            return [v]
        hi, lo = divmod(v, powers[k])
        if hi:
            return top(hi, k - 1) + padded(lo, k)
        return top(lo, k - 1)

    return top(x, len(powers) - 1)


def factorial_blocks(base: int) -> Iterator[bytes]:
    """The base-b digits of 0!, 1!, 2!, ..., one bytes object per factorial.

    Digits are index values of the digit alphabet; joined, the blocks are the
    factorial word.
    """
    digit_alphabet(base)  # rejects bases outside 2..36
    return (bytes(to_base_digits(f, base))
            for f in accumulate(count(1), operator.mul, initial=1))


def _chunks(base: int, n_digits: int, overlap: int) -> Iterator[tuple[int, bytes]]:
    """The first n_digits of the stream as (position, chunk), one per factorial.

    Each chunk starts with the last `overlap` digits of the chunk before, so
    every window of overlap + 1 digits lies whole inside one chunk; position
    is where the chunk's first digit sits in the stream.
    """
    tail = b""
    read = 0
    for block in factorial_blocks(base):
        block = block[: n_digits - read]
        chunk = tail + block
        yield read - len(tail), chunk
        read += len(block)
        if read >= n_digits:
            return
        tail = chunk[-overlap:] if overlap else b""


def factorial_word_prefix(base: int, n_digits: int) -> Word:
    """The first n_digits symbols of the concatenated-factorials word."""
    if n_digits < 0:
        raise DomainError("n_digits must be nonnegative")
    alphabet = digit_alphabet(base)
    return Word(alphabet, b"".join(chunk for _, chunk in _chunks(base, n_digits, 0)))


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
    for position, chunk in _chunks(base, digit_budget, len(needle) - 1):
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
    first_positions: dict[str, int] | None = None

    @property
    def complete(self) -> bool:
        return self.found == self.total


def digits_through_block(base: int, n: int) -> int:
    """Total stream digits contributed by the blocks 0!, 1!, ..., n!."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    return sum(map(len, islice(factorial_blocks(base), n + 1)))


def coverage_profile(base: int, k: int, digit_budget: int | None = None,
                     block_budget: int | None = None,
                     track_positions: bool = False) -> CoverageReport:
    """Mark every length-k window in a prefix of the stream.

    The prefix is either the first digit_budget digits or everything through
    the block of block_budget!, whichever budget is given. A full census
    needs base^k cells, so the cell budget keeps k honest.
    """
    if k < 1:
        raise DomainError("k must be at least 1")
    if (digit_budget is None) == (block_budget is None):
        raise DomainError("give exactly one of digit_budget and block_budget")
    if block_budget is not None and block_budget < 0:
        raise DomainError("block budget must be nonnegative")
    if digit_budget is not None and digit_budget < k:
        raise DomainError(f"digit budget {digit_budget} cannot hold a length-{k} window")
    cells = base ** k
    limit = budget("COVERAGE_CELLS")
    if cells > limit:
        raise BudgetError(f"base^k = {cells} exceeds the coverage cell budget {limit}")
    alphabet = digit_alphabet(base)
    if block_budget is None:
        chunks = (chunk for _, chunk in _chunks(base, digit_budget, 0))
    else:
        chunks = islice(factorial_blocks(base), block_budget + 1)
    seen = bytearray(cells)
    first: dict[int, int] = {}
    idx = 0
    high = base ** (k - 1)
    consumed = 0
    for chunk in chunks:
        for d in chunk:
            idx = (idx % high) * base + d
            consumed += 1
            if consumed >= k and not seen[idx]:
                seen[idx] = 1
                if track_positions:
                    first[idx] = consumed - k
    if consumed < k:  # only a block budget gets here
        raise DomainError(f"digit budget {consumed} cannot hold a length-{k} window")
    found = sum(seen)
    missing = []
    if found < cells:
        for cell in range(cells):
            if not seen[cell]:
                missing.append(_decode_cell(cell, base, k, alphabet))
                if len(missing) >= 20:
                    break
    positions = None
    if track_positions:
        positions = {
            _decode_cell(cell, base, k, alphabet): pos for cell, pos in first.items()
        }
    return CoverageReport(base, k, consumed, found, cells, tuple(missing), positions)


def _decode_cell(cell: int, base: int, k: int, alphabet) -> str:
    digits = []
    for _ in range(k):
        cell, d = divmod(cell, base)
        digits.append(alphabet.label(d))
    return "".join(reversed(digits))


def leading_digits_search(base: int, prefix: "Word | str", n_budget: int) -> int | None:
    """Smallest n <= n_budget such that n! written in base b starts with prefix.

    A floating-point filter on frac(log_b n!) proposes candidates; every
    candidate is confirmed against the exact digits of n!, so the float error
    can only cost extra confirmations, never a wrong answer, as long as the
    accumulated drift stays inside the margin.
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
    want = list(prefix.data)
    m = len(want)
    K = 0
    for d in want:
        K = K * base + d
    log_base = math.log(base)
    lo = math.log(K) / log_base - (m - 1)
    hi = math.log(K + 1) / log_base - (m - 1)
    margin = 1e-9

    factorial = 1
    log_sum = 0.0     # log_b(n!) with compensated accumulation
    comp = 0.0
    for n in range(n_budget + 1):
        if n >= 1:
            factorial *= n
            term = math.log(n) / log_base
            y = term - comp
            t = log_sum + y
            comp = (t - log_sum) - y
            log_sum = t
        frac = log_sum - math.floor(log_sum)
        near = any(lo - margin <= frac + shift <= hi + margin for shift in (-1.0, 0.0, 1.0))
        if near:
            digits = to_base_digits(factorial, base)
            if len(digits) >= m and digits[:m] == want:
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
    summation_error_bound: float    # worst-case drift of the compensated log sums


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
    log_base = math.log(base)
    hist = [0] * bins
    log_sum = 0.0
    comp = 0.0
    abs_total = 0.0
    re = im = 0.0
    two_pi_n = 2.0 * math.pi * frequency
    for j in range(1, n_max + 1):
        term = math.log(j) / log_base
        abs_total += term
        y = term - comp
        t = log_sum + y
        comp = (t - log_sum) - y
        log_sum = t
        frac = log_sum - math.floor(log_sum)
        bin_at = min(int(frac * bins), bins - 1)
        hist[bin_at] += 1
        angle = two_pi_n * frac
        re += math.cos(angle)
        im += math.sin(angle)
    eps = 2.0 ** -52
    bound = 2.0 * eps * abs_total
    magnitude = math.hypot(re, im) / n_max
    return WeylReport(base, n_max, frequency, magnitude, tuple(hist), bins, bound)
