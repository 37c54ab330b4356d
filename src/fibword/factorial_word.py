"""The infinite word formed by concatenating 0!, 1!, 2!, ... in base b."""

import math
from collections.abc import Iterator
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


def _chunks(base: int, overlap: int, size: int, digits: int | None = None,
            blocks: int | None = None) -> Iterator[tuple[int, bytes]]:
    """The stream as (position, chunk), cut after `digits` digits or `blocks` blocks.

    A chunk joins whole blocks until it holds at least `size` new digits (the last may
    hold fewer, and the digit cut may end it inside a block), led by the `overlap`
    digits before it. Every window of overlap + 1 digits thus lies whole inside
    exactly one chunk; position is where the chunk's first digit sits in the stream.
    """
    tail, run, new, read = b"", [], 0, 0
    for block in islice(factorial_blocks(base), blocks):
        cut = digits is not None and read + len(block) >= digits
        if cut:
            block = block[: digits - read]
        run.append(block)
        new += len(block)
        read += len(block)
        if cut or new >= size:
            chunk = b"".join([tail, *run])
            yield read - len(chunk), chunk
            if cut:
                return
            tail = chunk[-overlap:] if overlap else b""
            run, new = [], 0
    if run:
        chunk = b"".join([tail, *run])
        yield read - len(chunk), chunk


def factorial_word_prefix(base: int, n_digits: int) -> Word:
    """The first n_digits symbols of the concatenated-factorials word."""
    if n_digits < 0:
        raise DomainError("n_digits must be nonnegative")
    alphabet = digit_alphabet(base)
    charge("FACTORIAL_DIGITS", n_digits, f"{n_digits} digits")
    _, chunk = next(_chunks(base, 0, n_digits, digits=n_digits))
    return Word(alphabet, chunk)


def _digit_word(base: int, word: "Word | str", name: str) -> Word:
    """word as a nonempty Word over the digit alphabet of base; name is its name in errors."""
    alphabet = digit_alphabet(base)
    if isinstance(word, str):
        word = Word.from_string(word, alphabet)
    elif word.alphabet != alphabet:
        raise DomainError(f"{name} must be a word over the digit alphabet of the base")
    if len(word) == 0:
        raise DomainError(f"{name} must be nonempty")
    return word


def factor_search(base: int, target: "Word | str", digit_budget: int) -> int | None:
    """Position of the first occurrence of target in the stream, or None.

    Scans at most digit_budget digits, holding one factorial's digits plus
    len(target) - 1 overlap digits in memory.
    """
    needle = _digit_word(base, target, "target").data
    if digit_budget < 1:
        raise DomainError("digit budget must be positive")
    charge("FACTORIAL_DIGITS", digit_budget, f"{digit_budget} digits")
    for position, chunk in _chunks(base, len(needle) - 1, 1, digits=digit_budget):
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
        chunks = _chunks(base, k - 1, _COVERAGE_RUN, digits=digit_budget)
    else:
        # j! has floor(log_b j!) + 1 digits, and one digit more a block covers the
        # rounding of lgamma. The sum stops once it passes the limit; an n at or past
        # the limit is refused at once, as 0!..n! hold at least n + 1 digits.
        n, limit, log_base = block_budget, budget("FACTORIAL_DIGITS"), math.log(base)
        if n >= limit:
            charge("FACTORIAL_DIGITS", n + 1, f"at least {n + 1} digits through {n}!")
        bound = 0
        for j in range(n + 1):
            bound += int(math.lgamma(j + 1) / log_base) + 2
            if bound > limit:
                break
        charge("FACTORIAL_DIGITS", bound, f"up to {bound} digits through {j}! of {n}!")
        chunks = _chunks(base, k - 1, _COVERAGE_RUN, blocks=block_budget + 1)
    import numpy as np

    cells = base ** k
    seen = np.zeros(cells, dtype=bool)
    consumed = 0
    for position, chunk in chunks:
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


_FRAC_BLOCK = 1 << 16   # fracs per block of the walk
_GRID = 1 << 52         # every term and frac is a multiple of 2^-52
_ANCHOR_SPACING = 16    # an anchored j takes its term from its anchor j - j mod 16
_ANCHOR_FROM = 1 << 12  # anchored terms start at max(this, b^3); below, one math.log2 a j


def _grid_terms(base: int, start: int, stop: int) -> "np.ndarray":
    """The walk's terms as integers k_j = term·2^52 for start <= j < stop, in uint64.

    Below max(2^12, b^3) the term is frac(log2(j)/log2(b)) from one math.log2. From there
    j = a + t with the anchor a = j - j mod 16: k_j = K_a + d_j, where K_a is the anchor's own
    term and d_j = rint(ln(1 + t/a)·2^52/ln b), with ln(1 + t/a) = 2·atanh(z) for
    z = t/(2a + t) summed as z·(2 + z^2·(2/3 + z^2·2/5)). _frac_error_bound bounds both.
    """
    import numpy as np

    log_base = math.log2(base)

    def by_log2(js):
        # frac(log2(j)/log2(b)), exact for j >= b and rounded to the grid by 1.0 below
        terms = np.fromiter(map(math.log2, js), np.float64, len(js))
        terms /= log_base
        terms %= 1.0
        terms += 1.0
        terms -= 1.0
        terms *= _GRID
        return terms.astype(np.uint64)

    # one row per anchor, j = first..first + 15 in the first; the last row may run past stop
    first = start - start % _ANCHOR_SPACING
    table = np.empty((-(-(stop - first) // _ANCHOR_SPACING), _ANCHOR_SPACING), np.uint64)
    flat = table.reshape(-1)
    split = min(max(start, _ANCHOR_FROM, base ** 3), stop)  # the first anchored j
    if split < stop:
        anchor = split - split % _ANCHOR_SPACING
        t = np.arange(_ANCHOR_SPACING, dtype=np.float64)
        z = np.arange(anchor, stop, _ANCHOR_SPACING, dtype=np.float64)[:, None] * 2.0 + t
        np.divide(t, z, out=z)  # t/(2a + t), of exact integers
        z2 = z * z
        ln = z2 * 0.4  # 2/5
        ln += 2 / 3
        ln *= z2
        ln += 2.0
        ln *= z
        ln *= _GRID / math.log(base)
        del z, z2
        rows = table[(anchor - first) // _ANCHOR_SPACING :]
        rows[...] = np.rint(ln, out=ln)
        del ln
        rows += by_log2(range(anchor, stop, _ANCHOR_SPACING))[:, None]
    flat[start - first : split - first] = by_log2(range(start, split))  # after the anchors
    return flat[start - first : stop - first]


def _log_factorial_frac_blocks(base: int, n_max: int) -> Iterator[tuple[int, "np.ndarray"]]:
    """frac(log_b n!) for n = 0..n_max as (first n, float64 array) blocks of at most 2^16.

    Each frac is an exact sum mod 1 of the terms _grid_terms gives, kept on the 2^-52 grid:
    a uint64 cumsum of the integers k_j (wrapping mod 2^64 is exact) plus the carry of the
    blocks before, masked to the sum mod 2^52.
    """
    import numpy as np

    carry = 0
    yield 0, np.zeros(1)  # 0! = 1
    for start in range(1, n_max + 1, _FRAC_BLOCK):
        sums = _grid_terms(base, start, min(start + _FRAC_BLOCK, n_max + 1))
        np.cumsum(sums, out=sums)
        sums += carry
        sums &= _GRID - 1
        carry = int(sums[-1])
        fracs = sums * (1.0 / _GRID)
        del sums
        yield start, fracs


def _frac_error_bound(base: int, n_max: int) -> float:
    """Proven bound on the error of every frac _log_factorial_frac_blocks(base, n_max) yields.

    Let u = 2^-53 and assume math.log2 and math.log are within 1 ulp, 2u relative (math.log2
    is exact for b a power of 2). Every term and frac is a multiple of 2^-52 below 2, so the
    sums add no error; each frac is off mod 1 by at most the sum of its terms' errors.

    A term from math.log2: the quotient log2(j)/log2(b) carries 2u from each log and u from
    the division, so it is within 5u + O(u^2) of log_b j, relative, and % 1.0 keeps its
    fractional part exactly; for j < b, where that part is below 1, the trip through 1.0
    rounds it by at most u. The term is off by (5u + O(u^2))·log_b j, plus u for j < b.

    An anchored term, j = a + t >= max(2^12, b^3) with 0 <= t < 16: K_a is a math.log2 term
    with a > b, off by (5u + O(u^2))·log_b a <= that of log_b j. Let V = ln(1 + t/a)·2^52/ln b
    < (15/4096)·2^52/ln 2 < 2^44.5. Since 2·atanh(z) = ln(1 + t/a) for z = t/(2a + t) <
    2^-9, the series cut after z^5 leaves V·z^6/(7(1 - z^2)) < 2^-12. In floats 2a + t is
    exact and z rounds once (u). The bracket 2 + z^2·(...) rounds once at the addition; the
    errors inside it, of terms below 2^-18, are under 2^-16·u relative. The product with z
    rounds once, the scale 2^52/math.log(b) carries 3u and the product with it u: under
    7u + O(u^2) relative in all, 7u·V < 0.02. So before rint the value is within 0.021 of V,
    after it within 0.53 grid units, 1.06u: the term is off by (5u + O(u^2))·log_b j + 1.06u.
    As log_b j >= 3 there, that is (5.36u + O(u^2))·log_b j.

    So the frac is off by at most (5.36u + O(u^2))·S + min(n, b - 1)·u with S = log_b n! <=
    n·log_b n + 1. The 6u·(n·log_b n + 1) returned leaves 0.64u·S for the O(u^2) terms and
    for the rounding of this formula.
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
    prefix = _digit_word(base, prefix, "prefix")
    if prefix.data[0] == 0:
        raise DomainError("a leading-digit prefix cannot start with 0")
    if n_budget < 0:
        raise DomainError("n budget must be nonnegative")
    charge("LOG_FACTORIAL_TERMS", n_budget, f"n = {n_budget}")
    import numpy as np

    m = len(prefix)
    K = 0
    for d in prefix.data:   # not int(str, base), which refuses long decimal strings
        K = K * base + d
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
