"""The infinite word formed by concatenating 0!, 1!, 2!, ... in base b."""

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import accumulate, count, islice

from .budgets import budget, charge
from .errors import DomainError
from .words import Word, digit_alphabet


def factorial_blocks(base: int) -> Iterator[bytes]:
    """The base-b digits of 0!, 1!, 2!, ..., one bytes object per factorial.

    Digits are index values of the digit alphabet; joined, the blocks are the
    factorial word. n! is kept as an int64 array of limbs in base B = b^k, the
    largest power of b below 2^31, least significant first. Each factorial is
    the previous limbs times n with the carries resolved, and its block expands
    every limb to k digits at once and cuts the top limb's leading zeros.
    """
    digit_alphabet(base)  # rejects bases outside 2..36
    import numpy as np

    k = max(k for k in range(1, 31) if base ** k < 2 ** 31)
    limb = base ** k
    powers = base ** np.arange(k - 1, -1, -1, dtype=np.uint32)  # b^(k-1), ..., b, 1

    def times(limbs, n):
        # limbs < 2^31, so int64 holds this for any n < 2^32; the FIBWORD_FACTORIAL_DIGITS
        # budget stops the stream long before n comes near that
        limbs = limbs * n
        while True:
            carry = limbs // limb
            if not np.count_nonzero(carry):
                return limbs
            limbs -= carry * limb
            limbs[1:] += carry[:-1]
            if carry[-1]:
                limbs = np.concatenate((limbs, carry[-1:]))

    def digits(limbs):
        lead = int(np.count_nonzero(powers > limbs[-1]))  # zeros atop the top limb
        expanded = limbs[::-1, None].astype(np.uint32) // powers % base
        return expanded.ravel()[lead:].astype(np.uint8).tobytes()

    return map(digits, accumulate(count(1), times, initial=np.ones(1, np.int64)))


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


def _runs(blocks: Iterable[bytes], size: int) -> Iterator[bytes]:
    """Consecutive blocks joined into runs of at least `size` digits; the last may be shorter."""
    run, length = [], 0
    for block in blocks:
        run.append(block)
        length += len(block)
        if length >= size:
            yield b"".join(run)
            run, length = [], 0
    if run:
        yield b"".join(run)


def factorial_word_prefix(base: int, n_digits: int) -> Word:
    """The first n_digits symbols of the concatenated-factorials word."""
    if n_digits < 0:
        raise DomainError("n_digits must be nonnegative")
    alphabet = digit_alphabet(base)
    charge("FACTORIAL_DIGITS", n_digits, f"{n_digits} digits")
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
    charge("FACTORIAL_DIGITS", digit_budget, f"{digit_budget} digits")
    needle = target.data
    for position, chunk in _chunks(_prefix_blocks(base, digit_budget), len(needle) - 1):
        hit = chunk.find(needle)
        if hit != -1:
            return position + hit
    return None


_COVERAGE_RUN = 1 << 16  # digits the coverage names at once, at least


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
    needs base^k cells, so the cell budget keeps k honest. The blocks are
    joined into runs of at least 2^16 digits, and each run's windows are named
    base^(k-1) d_0 + ... + d_(k-1) in int64 at once.
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
    # base >= 2, so a k past the bit length of the limit is charged base^(that + 1),
    # already over the limit, and base^k is never built
    k_cap = budget("COVERAGE_CELLS").bit_length() + 1
    charge("COVERAGE_CELLS", base ** min(k, k_cap), f"base^k = {base}^{k}")
    if block_budget is None:
        charge("FACTORIAL_DIGITS", digit_budget, f"{digit_budget} digits")
        blocks = _prefix_blocks(base, digit_budget)
    else:
        # 0!..n! are n + 1 blocks of at least 1 and at most floor(log_b n!) + 1 digits; one
        # digit more a block covers the rounding of lgamma, which sees only n below the limit
        n = block_budget
        at_most = n < budget("FACTORIAL_DIGITS")
        bound = (n + 1) * (int(math.lgamma(n + 1) / math.log(base)) + 2) if at_most else n + 1
        charge("FACTORIAL_DIGITS", bound,
               f"{'up to' if at_most else 'at least'} {bound} digits through {n}!")
        blocks = islice(factorial_blocks(base), n + 1)
    import numpy as np

    cells = base ** k
    seen = np.zeros(cells, dtype=bool)
    consumed = 0
    for position, chunk in _chunks(_runs(blocks, _COVERAGE_RUN), k - 1):
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


_FRAC_BLOCK = 1 << 16  # fracs per block of the walk
_GRID = 1 << 52        # every term and frac is a multiple of 2^-52


def _log_factorial_frac_blocks(base: int, n_max: int) -> Iterator[tuple[int, "np.ndarray"]]:
    """frac(log_b n!) for n = 0..n_max as (first n, float64 array) blocks of at most 2^16.

    Each frac is an exact sum mod 1 of the terms frac(log2(j)/log2(b)), kept on the 2^-52
    grid: as integers k_j = term·2^52, a uint64 cumsum (wrapping mod 2^64 is exact) plus
    the carry of the blocks before, masked to the sum mod 2^52. The logs come from
    math.log2, which takes its one argument without the tuple math.log builds per call.
    """
    import numpy as np

    log_base = math.log2(base)
    carry = 0
    yield 0, np.zeros(1)  # 0! = 1
    for start in range(1, n_max + 1, _FRAC_BLOCK):
        stop = min(start + _FRAC_BLOCK, n_max + 1)
        # math.log2, whose 1-ulp accuracy _frac_error_bound assumes
        logs = np.fromiter(map(math.log2, range(start, stop)), np.float64, stop - start)
        # frac(log2(j)/log2(b)), exact for j >= b and rounded to the grid by 1.0 below
        terms = (logs / log_base % 1.0 + 1.0) - 1.0
        sums = np.cumsum((terms * _GRID).astype(np.uint64), dtype=np.uint64)
        sums += carry
        sums &= _GRID - 1
        carry = int(sums[-1])
        yield start, sums * (1.0 / _GRID)


def _frac_error_bound(base: int, n_max: int) -> float:
    """Proven bound on the error of every frac _log_factorial_frac_blocks(base, n_max) yields.

    Assume math.log2 is within 1 ulp, 2u relative for u = 2^-53 (and exact for b a power of
    2). Each quotient log2(j)/log2(b) then carries 2u from each log and u from the division:
    it is within 5u + O(u^2) of log_b j, relative, and % 1.0 keeps its fractional part
    exactly; for j < b, where that part is below 1, the trip through 1.0 rounds it by at most
    u. Every term and frac is a multiple of 2^-52 below 2, so the sums add no error: the frac
    is off mod 1 by at most (5u + O(u^2))·S + min(n, b - 1)·u, S = log_b n! <= n·log_b n + 1.
    The 6u·(n·log_b n + 1) returned leaves u·S for the O(u^2) terms and for the rounding of
    this formula.
    """
    return 2.0 ** -53 * (6 * (n_max * math.log(max(n_max, 1)) / math.log(base) + 1)
                         + min(n_max, base - 1))


def leading_digits_search(base: int, prefix: "Word | str", n_budget: int) -> int | None:
    """Smallest n <= n_budget such that n! written in base b starts with prefix.

    A window test on frac(log_b n!) decides each n: a frac inside the target
    window by more than its proven error bound is a hit, one outside it by more
    than the bound a miss. Only a frac within the bound of an edge is confirmed
    on the leading digits of math.factorial(n).
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
    charge("LOG_FACTORIAL_TERMS", n_budget, f"n = {n_budget}")
    import numpy as np

    m = len(prefix)
    K = int(str(prefix), base)
    # n! starts with K iff frac(log_b n!) is in [log_b K, log_b(K + 1)) - (m - 1), inside
    # [0, 1]. The edges are off by 5u·m and the tests round by 3u, both under
    # (m + 1)·2^-50. Every hit lies in [lo, hi], which may wrap past 0 or 1, and every
    # frac in [sure_lo, sure_hi] is a hit.
    margin = _frac_error_bound(base, n_budget) + (m + 1) * 2.0 ** -50
    start_edge = math.log(K, base) - (m - 1)
    end_edge = math.log(K + 1, base) - (m - 1)
    lo, hi = start_edge - margin, end_edge + margin
    sure_lo, sure_hi = start_edge + margin, end_edge - margin
    for start, fracs in _log_factorial_frac_blocks(base, n_budget):
        near = (lo <= fracs) & (fracs <= hi) | (fracs - 1.0 >= lo) | (fracs + 1.0 <= hi)
        for i in np.flatnonzero(near).tolist():
            if sure_lo <= fracs[i] <= sure_hi or _leading_head(start + i, base, m) == K:
                return start + i
    return None


def _leading_head(n: int, base: int, m: int) -> int:
    """The leading m base-b digits of n! as an int, exactly."""
    f = math.factorial(n)
    # divide by b^s with d - m - 3 <= s <= d - m for the d digits of f
    head = f // base ** max(0, int((f.bit_length() - 1) * math.log(2, base)) - m)
    while head >= base ** m:
        head //= base
    return head


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
    magnitude_error_bound: float    # proven bound on weyl_magnitude's error
    near_edge: int                  # j whose frac may sit in the wrong bin


def _magnitude_error_bound(frac_bound: float, n_max: int, frequency: int) -> float:
    """Proven bound on the error of weyl_magnitude over n_max fracs each within frac_bound.

    Let u = 2^-53 and h = frequency. As |e^(ia) - e^(ib)| <= |a - b| and h is an integer,
    each exponential moves by at most 2πh·frac_bound through its frac, and by 2πh·γ_3 <
    2πh·4u through the angle: 2π·h and the product with the frac round once each, and
    math.pi once. Assume np.cos and np.sin are within 1 ulp, 2u for values of modulus at
    most 1, as _frac_error_bound assumes of math.log2: 2√2·u < 3u per exponential. A block's
    np.sum may sum in any order (numpy documents pairwise summation only as "often"), so
    its m terms take at most m - 1 roundings, and the running sum over the blocks one more
    each: γ_H·n for each of re and im, H < R = min(n, 2^16) + ceil(n / 2^16). hypot (under
    1 ulp) and the division by n add 3u relative to a magnitude of at most 1 + 2u. Divided
    by n, the total is under 2πh·(frac_bound + 4u) + (√2·R + 8)·u; the slack covers the
    O(u^2) terms and the rounding of this formula.
    """
    u = 2.0 ** -53
    roundings = min(n_max, _FRAC_BLOCK) + -(-n_max // _FRAC_BLOCK)
    return 2 * math.pi * frequency * (frac_bound + 4 * u) + (math.sqrt(2) * roundings + 8) * u


def logfactorial_equidistribution(base: int, n_max: int, frequency: int = 1,
                                  bins: int = 100) -> WeylReport:
    """Histogram the fractional parts of log_b(j!) and form their Weyl sum.

    Equidistribution would drive the magnitude toward 0 as n grows; the
    histogram shows how the mass spreads across [0, 1). near_edge counts the j
    whose frac·bins lies within (error_bound + 2^-51)·bins of a bin edge, 0 and
    bins included: only those can sit in the wrong bin. The 2^-51 covers the
    roundings of frac·bins and of a frac moved by error_bound.
    """
    if base < 2:
        raise DomainError("base must be at least 2")
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    if frequency < 1:
        raise DomainError("frequency must be at least 1")
    if bins < 1:
        raise DomainError("bins must be at least 1")
    charge("LOG_FACTORIAL_TERMS", n_max, f"n = {n_max}")
    charge("WEYL_BINS", bins, f"bins = {bins}")
    import numpy as np

    hist = np.zeros(bins, np.int64)
    re = im = 0.0
    near_edge = 0
    two_pi_n = 2.0 * math.pi * frequency
    frac_bound = _frac_error_bound(base, n_max)
    edge_margin = (frac_bound + 2.0 ** -51) * bins
    for _, fracs in islice(_log_factorial_frac_blocks(base, n_max), 1, None):  # j = 1..n_max
        # the bin of min(int(frac * bins), bins - 1), elementwise; np.add.at costs
        # nothing per bin, where a bincount of every block would cost O(bins) each
        scaled = fracs * bins
        np.add.at(hist, np.minimum(scaled.astype(np.int64), bins - 1), 1)
        near_edge += int(np.count_nonzero(np.abs(scaled - np.rint(scaled)) <= edge_margin))
        angles = two_pi_n * fracs
        re += float(np.cos(angles).sum())
        im += float(np.sin(angles).sum())
    magnitude = math.hypot(re, im) / n_max
    return WeylReport(base, n_max, frequency, magnitude, tuple(hist.tolist()), bins,
                      frac_bound, _magnitude_error_bound(frac_bound, n_max, frequency),
                      near_edge)
