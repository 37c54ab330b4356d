import math
import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import islice, product

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fibword import (
    BudgetError,
    DomainError,
    Word,
    coverage_profile,
    digit_alphabet,
    factor_search,
    factorial_blocks,
    factorial_word_prefix,
    leading_digits_search,
    logfactorial_equidistribution,
)
from fibword import factorial_word
from fibword.factorial_word import (
    _ANCHOR_FROM,
    _ANCHOR_SPACING,
    _FRAC_BLOCK,
    _frac_error_bound,
    _grid_terms,
    _log_factorial_frac_blocks,
    _magnitude_error_bound,
)

PREFIX_21 = "112624120720504040320"


# ---------------------------------------------------------------------------
# base conversion


def digits_by_divmod(x, base):
    if x == 0:
        return [0]
    out = []
    while x:
        x, r = divmod(x, base)
        out.append(r)
    return out[::-1]


# ---------------------------------------------------------------------------
# the stream


def test_prefix_is_frozen_constant():
    assert str(factorial_word_prefix(10, 21)) == PREFIX_21
    # shorter requests are prefixes of longer ones
    assert str(factorial_word_prefix(10, 7)) == PREFIX_21[:7]


def test_stream_blocks_are_factorials():
    """Block n of the stream is the base-b expansion of n!."""
    for base in range(2, 37):
        blocks = islice(factorial_blocks(base), 301)
        for n, block in enumerate(blocks):
            assert list(block) == digits_by_divmod(math.factorial(n), base)


def test_stream_block_audit_large_n():
    # deeper single probes past the audit ceiling
    for n in (500, 1500):
        block = next(islice(factorial_blocks(10), n, None))
        assert list(block) == digits_by_divmod(math.factorial(n), 10)


def limb_digits(base):
    """k of the stream's limbs: b^k is the largest power of b below 2^31."""
    return max(k for k in range(1, 32) if base ** k < 2 ** 31)


LIMB_EDGES = {
    # the top limb holds one digit, or all k of them
    "one": lambda d, k, before: d % k == 1,
    "full": lambda d, k, before: d % k == 0,
    # multiplying by n carried into a new limb
    "grows": lambda d, k, before: -(-d // k) > -(-before // k),
}


@settings(max_examples=150, deadline=None)
@given(base=st.integers(2, 36), edge=st.sampled_from(sorted(LIMB_EDGES)),
       start=st.integers(1, 600))
def test_stream_blocks_at_limb_edges(base, edge, start):
    k = limb_digits(base)
    counts = [d for d, _ in leading_table(base)]
    n = next((n for n in range(start, len(counts))
              if LIMB_EDGES[edge](counts[n], k, counts[n - 1])), None)
    assume(n is not None)
    block = next(islice(factorial_blocks(base), n, None))
    assert list(block) == digits_by_divmod(math.factorial(n), base)


def test_stream_blocks_deep_in_binary_and_hex():
    # long runs of the top digit make carries ripple over many passes;
    # format() gives an independent expansion of n! in bases 2 and 16
    for base, spec, n_max in ((2, "b", 3000), (16, "x", 1500)):
        for n, block in enumerate(islice(factorial_blocks(base), n_max + 1)):
            if n % 50 == 0 or n > n_max - 10:
                text = "".join("0123456789abcdef"[d] for d in block)
                assert text == format(math.factorial(n), spec)


def test_stream_is_deterministic_across_chunkings():
    # prefixes cut the blocks at any length, and searches that carry
    # different overlaps from chunk to chunk read the same digits
    for base in (2, 10, 16):
        joined = b"".join(islice(factorial_blocks(base), 60))
        for n in (0, 1, 2, 7, 100, len(joined)):
            assert factorial_word_prefix(base, n).data == joined[:n]
        text = str(factorial_word_prefix(base, len(joined)))
        for size in (1, 2, 5, 30):
            target = text[-size:]
            assert factor_search(base, target, len(joined)) == text.find(target)


def prefix_blocks_oracle(base, n_digits):
    """The blocks of the stream, the last one cut where the first n_digits end."""
    read = 0
    for block in factorial_blocks(base):
        yield block[: n_digits - read]
        read += len(block)
        if read >= n_digits:
            return


def runs_oracle(blocks, size):
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


def chunks_oracle(runs, overlap):
    """The runs as (position, chunk), each chunk led by the last `overlap` digits before."""
    tail = b""
    position = 0
    for run in runs:
        chunk = tail + run
        yield position, chunk
        tail = chunk[-overlap:] if overlap else b""
        position += len(chunk) - len(tail)


RUN = factorial_word._COVERAGE_RUN


@settings(max_examples=80, deadline=None)
@given(base=st.integers(2, 36), overlap=st.integers(0, 6),
       size=st.one_of(st.sampled_from([1, 7, 100, RUN - 1, RUN, RUN + 1]),
                      st.integers(1, 2 * RUN)),
       n=st.integers(1, 400), by_digits=st.booleans(), data=st.data())
def test_chunks_match_the_three_generator_composition(base, overlap, size, n, by_digits,
                                                       data):
    """The chunk reader against three plain generators in a row: the blocks cut at a
    digit count, runs of at least `size` digits, overlapped chunks. The stream ends
    after n blocks or at a digit inside (or at the end of) block n - 1."""
    if by_digits:
        lengths = [len(block) for block in islice(factorial_blocks(base), n)]
        digits = sum(lengths) - data.draw(st.integers(0, lengths[-1]), label="short by")
        want = chunks_oracle(runs_oracle(prefix_blocks_oracle(base, digits), size), overlap)
        got = factorial_word._chunks(base, overlap, size, digits=digits)
    else:
        want = chunks_oracle(runs_oracle(islice(factorial_blocks(base), n), size), overlap)
        got = factorial_word._chunks(base, overlap, size, blocks=n)
    assert list(got) == list(want)


def test_factorial_blocks_rejects_bad_base():
    for base in (1, 37):
        with pytest.raises(DomainError):
            factorial_blocks(base)


def digits_through_block(base, n):
    """Total stream digits contributed by the blocks 0!, 1!, ..., n!."""
    return sum(len(digits_by_divmod(math.factorial(j), base)) for j in range(n + 1))


def test_digits_through_block_counts():
    # blocks 0!..3! in base 10: 1,1,2,6 -> four single digits
    assert digits_through_block(10, 3) == 4
    assert digits_through_block(10, 0) == 1
    assert digits_through_block(2, 3) == 1 + 1 + 2 + 3


# ---------------------------------------------------------------------------
# searching


def test_factor_search_examples():
    assert factor_search(10, "5040", 100) == 12
    assert factor_search(10, "999", 100_000) == 640
    assert factor_search(10, PREFIX_21, 1000) == 0
    assert factor_search(10, "987654321", 10_000) is None


def test_factor_search_positions_reextract():
    rng = random.Random(33)
    prefix = str(factorial_word_prefix(10, 50_000))
    for _ in range(40):
        start = rng.randrange(0, 49_000)
        size = rng.randrange(1, 12)
        target = prefix[start : start + size]
        pos = factor_search(10, target, 50_000)
        assert pos is not None and pos <= start
        assert prefix[pos : pos + size] == target


def test_factor_search_straddles_chunk_boundaries():
    # each chunk of the search is one factorial; a target that crosses from
    # one block into the next must still be found
    prefix = str(factorial_word_prefix(10, 4200))
    ends = 0
    for n, block in enumerate(islice(factorial_blocks(10), 200)):
        ends += len(block)
        if 12 <= ends <= 4190:
            target = prefix[ends - 9 : ends + 6]
            assert factor_search(10, target, 4200) == prefix.find(target), n


@settings(max_examples=60)
@given(base=st.integers(2, 36), budget=st.integers(1, 3000), data=st.data())
def test_factor_search_and_coverage_match_the_prefix(base, budget, data):
    """Windows that cross block and budget edges, against a plain prefix."""
    alphabet = "0123456789abcdefghijklmnopqrstuvwxyz"[:base]
    text = str(factorial_word_prefix(base, budget + 40))
    prefix = text[:budget]
    size = data.draw(st.integers(1, 40), label="size")
    if data.draw(st.booleans(), label="from the stream"):
        start = data.draw(st.integers(0, len(text) - size), label="start")
        target = text[start : start + size]
    else:
        target = "".join(data.draw(st.lists(st.sampled_from(alphabet),
                                            min_size=size, max_size=size)))
    want = prefix.find(target)
    assert factor_search(base, target, budget) == (None if want < 0 else want)

    # every k whose base^k cells fit the default coverage cell budget
    k_max = max(k for k in range(1, 6) if base ** k <= 20_000_000)
    k = data.draw(st.integers(1, min(k_max, budget)), label="k")
    first = {}
    for i in range(budget - k + 1):
        first.setdefault(prefix[i : i + k], i)
    missing = (w for w in map("".join, product(alphabet, repeat=k)) if w not in first)
    report = coverage_profile(base, k, budget)
    assert report.digit_budget == budget
    assert (report.found, report.total) == (len(first), base ** k)
    assert report.missing_sample == tuple(islice(missing, 20))
    latest = max(first, key=first.get)
    assert factor_search(base, latest, budget) == first[latest]


def test_factor_search_validates_target():
    with pytest.raises(DomainError):
        factor_search(10, "", 100)
    with pytest.raises(DomainError):
        factor_search(2, "012", 100)  # '2' is not a binary digit


# ---------------------------------------------------------------------------
# coverage


def test_coverage_single_digits_base10():
    report = coverage_profile(10, 1, 21)
    assert (report.found, report.total) == (8, 10)
    assert set(report.missing_sample) == {"8", "9"}


def test_coverage_block_budget_reading():
    # by the end of 2! the stream is "111" + "2": both binary digits by block 3
    report = coverage_profile(2, 1, block_budget=3)
    assert report.complete
    assert (report.found, report.total) == (2, 2)


def test_coverage_block_budget_equals_its_digit_budget():
    for base in (2, 3, 10, 16, 36):
        for n in range(40):
            digits = digits_through_block(base, n)
            for k in range(1, min(3, digits) + 1):
                by_blocks = coverage_profile(base, k, block_budget=n)
                by_digits = coverage_profile(base, k, digits)
                assert by_blocks == by_digits, (base, n, k)
    with pytest.raises(DomainError):
        coverage_profile(10, 2, block_budget=0)  # 0! is one digit
    with pytest.raises(DomainError):
        coverage_profile(10, 2, block_budget=-1)


def test_coverage_bigrams_base10():
    full = coverage_profile(10, 2, 608)
    assert full.complete and full.found == 100
    almost = coverage_profile(10, 2, 607)
    assert almost.found == 99
    # every bigram fits in the 608 digits, and "75" is the last to turn up
    first = {f"{i:02d}": factor_search(10, f"{i:02d}", 608) for i in range(100)}
    assert None not in first.values()
    assert max(first, key=first.get) == "75" and first["75"] == 606


def test_coverage_is_monotone_in_the_budget():
    found = [coverage_profile(10, 2, budget).found
             for budget in (50, 100, 200, 400, 608)]
    assert found == sorted(found)
    assert found[-1] == 100


@pytest.mark.parametrize("base, k", [(2, 14), (10, 4), (36, 3)])
def test_coverage_over_runs_that_a_budget_cuts(base, k):
    # the coverage names windows over runs of whole blocks of at least _COVERAGE_RUN
    # digits; budgets end just inside, on and just past a run's last digit
    run = factorial_word._COVERAGE_RUN
    ends, total = [], 0
    for block in factorial_blocks(base):
        total += len(block)
        ends.append(total)
        if total >= 2 * run + 2000:
            break
    first_run = next(end for end in ends if end >= run)
    second_run = next(end for end in ends if end >= first_run + run)
    text = str(factorial_word_prefix(base, ends[-1]))
    for budget in (run - 1, run, first_run - 1, first_run, first_run + 1,
                   second_run - k + 1, second_run, second_run + 1):
        windows = {text[i : i + k] for i in range(budget - k + 1)}
        report = coverage_profile(base, k, budget)
        assert (report.found, report.digit_budget) == (len(windows), budget), budget
    # block budgets that end on the first run's edge, and one block either side of it
    n = ends.index(first_run)
    for blocks in (n - 1, n, n + 1):
        windows = {text[i : i + k] for i in range(ends[blocks] - k + 1)}
        report = coverage_profile(base, k, block_budget=blocks)
        assert (report.found, report.digit_budget) == (len(windows), ends[blocks]), blocks


def test_coverage_budget_arguments():
    with pytest.raises(DomainError):
        coverage_profile(10, 2)  # no budget at all
    with pytest.raises(DomainError):
        coverage_profile(10, 2, 100, block_budget=5)  # both budgets
    with pytest.raises(BudgetError):
        coverage_profile(10, 9, 100)  # 10^9 cells exceeds the cell budget
    with pytest.raises(DomainError):
        coverage_profile(10, 0, 100)
    with pytest.raises(DomainError):
        coverage_profile(100, 5, 100)  # a bad base, though 100^5 cells is over budget too
    with pytest.raises(BudgetError, match=r"10\^3000000 exceeds"):
        coverage_profile(10, 3_000_000, block_budget=5)  # refused without building 10^k


# ---------------------------------------------------------------------------
# leading digits


def test_leading_digits_small_targets():
    assert leading_digits_search(10, "1", 10) == 0   # 0! = 1
    assert leading_digits_search(10, "2", 10) == 2   # 2! = 2
    assert leading_digits_search(10, "7", 10) == 6   # 6! = 720
    assert leading_digits_search(10, "72", 10) == 6
    assert leading_digits_search(10, "99", 1000) == 96
    assert leading_digits_search(10, "999", 10_000) == 261


def test_leading_digits_verifies_exactly():
    budget = 600
    table = []
    f = 1
    for n in range(budget + 1):
        if n:
            f *= n
        table.append(str(f))
    rng = random.Random(34)
    for _ in range(40):
        target = str(rng.randrange(1, 500))
        expected = next((i for i, s in enumerate(table) if s.startswith(target)), None)
        assert leading_digits_search(10, target, budget) == expected


def test_leading_digits_other_bases():
    # 5! = 120 = 1111000 in binary
    assert leading_digits_search(2, "1111", 100) == 5
    n = leading_digits_search(16, "ff", 3000)
    assert n is not None
    hex_digits = format(math.factorial(n), "x")
    assert hex_digits.startswith("ff")


DIGIT_LABELS = "0123456789abcdefghijklmnopqrstuvwxyz"


@lru_cache(maxsize=None)
def leading_table(base, n_max=3000, width=4):
    """(digit count, leading `width` digits) of n! for n = 0..n_max, floats unused."""
    rows = []
    f, power, d = 1, 1, 1  # power = base^(d - 1) <= f < base^d
    for n in range(n_max + 1):
        if n:
            f *= n
        while power * base <= f:
            power *= base
            d += 1
        rows.append((d, f // (power // base ** (width - 1)) if d >= width else f))
    return tuple(rows)


def first_leading(base, target, budget, width=4):
    """Smallest n <= budget whose n! starts with target, read off leading_table."""
    m = len(target)
    K = int(target, base)
    for n, (d, top) in enumerate(leading_table(base, width=width)[: budget + 1]):
        if d >= m and top // base ** (min(d, width) - m) == K:
            return n
    return None


def test_leading_table_oracle_agrees_with_format():
    for n, (d, top) in enumerate(leading_table(16)[:200]):
        text = format(math.factorial(n), "x")
        assert (d, format(top, "x")) == (len(text), text[:4])


@settings(max_examples=300)
@given(st.data())
def test_leading_digits_match_an_exact_oracle(data):
    base = data.draw(st.integers(2, 36), label="base")
    m = data.draw(st.integers(1, 4), label="m")
    first = data.draw(st.integers(1, base - 1))
    rest = data.draw(st.lists(st.integers(0, base - 1), min_size=m - 1, max_size=m - 1))
    target = "".join(DIGIT_LABELS[d] for d in [first] + rest)
    budget = data.draw(st.integers(0, 1500), label="budget")
    assert leading_digits_search(base, target, budget) == first_leading(base, target, budget)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_leading_digits_hits_and_near_edge_misses(data):
    # the leading m <= 24 digits of some n!, or the numbers one above and one below:
    # n!'s frac then sits within b^-(m-1) of the window's edge, under the error
    # bound for long targets, so both proven hits and exact confirmations are drawn
    base = data.draw(st.integers(2, 36), label="base")
    n = data.draw(st.integers(1, 3000), label="n")
    d, top = leading_table(base, width=24)[n]
    m = data.draw(st.integers(1, min(d, 24)), label="m")
    K = top // base ** (min(d, 24) - m) + data.draw(st.sampled_from((-1, 0, 1)), label="delta")
    assume(base ** (m - 1) <= K < base ** m)
    target = np.base_repr(K, base).lower()
    budget = data.draw(st.integers(max(0, n - 50), 3000), label="budget")
    want = first_leading(base, target, budget, width=24)
    assert leading_digits_search(base, target, budget) == want


def test_leading_digits_decide_a_far_hit_from_the_bound(monkeypatch):
    # 300000! starts with 1477391, and its frac sits far from both window edges
    with mpmath.workdps(40):
        log = mpmath.loggamma(300_001) / mpmath.log(10)
        frac = log - mpmath.floor(log)
        assert mpmath.floor(mpmath.power(10, frac + 6)) == 1477391
        assert mpmath.log10(1477391) - 6 + 1e-9 < frac < mpmath.log10(1477392) - 6 - 1e-9
    leading_digits_search(10, "12", 100)  # any lazy import happens outside the timing

    def no_factorial(n):
        raise AssertionError(f"math.factorial({n}) was computed")

    monkeypatch.setattr(math, "factorial", no_factorial)
    start = time.perf_counter()
    n = leading_digits_search(10, "1477391", 300_000)
    elapsed = time.perf_counter() - start
    assert n == 300_000
    # it took 1.36 s when every candidate was confirmed on math.factorial(n)
    assert elapsed < 0.4


@pytest.mark.parametrize("sign", [0, 1, -1])
def test_leading_digits_where_frac_is_near_0_or_1(monkeypatch, sign):
    # 1, 10, 100 start the window at frac 0 and b-1 repeated ends it at 1. Every
    # frac is also moved by half the walk's bound, wrapping at 0 and 1: 0! = 1
    # then reads as frac just under 1, and "1" is found only past the wrap.
    walk = factorial_word._log_factorial_frac_blocks

    def moved(base, n_max):
        delta = sign * _frac_error_bound(base, n_max) / 2
        return ((start, (fracs + delta) % 1.0) for start, fracs in walk(base, n_max))

    monkeypatch.setattr(factorial_word, "_log_factorial_frac_blocks", moved)
    for base in (2, 10, 16):
        top = DIGIT_LABELS[base - 1]
        for target in ("1", "10", "100", top, top * 2, top * 3):
            expected = first_leading(base, target, 3000)
            assert leading_digits_search(base, target, 3000) == expected, (base, target)


def leading_decimal_digits(n, count):
    """First `count` decimal digits of n!, by one integer division."""
    f = math.factorial(n)
    digits = math.floor(math.lgamma(n + 1) / math.log(10)) + 1
    head = f // 10 ** (digits - count)
    assert 10 ** (count - 1) <= head < 10 ** count  # the digit count was right
    return head


def test_leading_digits_large_hit():
    target = str(leading_decimal_digits(100_000, 7))
    n = leading_digits_search(10, target, 100_000)
    assert n is not None and n <= 100_000
    assert str(leading_decimal_digits(n, 7)) == target


def test_leading_digits_rejects_leading_zero():
    with pytest.raises(DomainError):
        leading_digits_search(10, "099", 100)
    with pytest.raises(DomainError):
        leading_digits_search(10, "", 100)


def test_leading_digits_not_found_returns_none():
    assert leading_digits_search(10, "99999999", 50) is None


# ---------------------------------------------------------------------------
# the walk of frac(log_b n!)


def log_factorial_fracs_oracle(base, n_max):
    """frac(log_b n!) for n = 0..n_max, one math.log2 term per j: the walk before anchors."""
    log_base = math.log2(base)
    frac = 0.0
    yield frac
    for j in range(1, n_max + 1):
        frac += (math.log2(j) / log_base % 1.0 + 1.0) - 1.0
        if frac >= 1.0:
            frac -= 1.0
        yield frac


def anchored_terms_oracle(base, j):
    """The walk's k_j = term·2^52, one j at a time in Python floats, in the walk's order."""
    log_base = math.log2(base)

    def by_log2(j):
        return int(((math.log2(j) / log_base % 1.0 + 1.0) - 1.0) * 2 ** 52)

    if j < max(_ANCHOR_FROM, base ** 3):
        return by_log2(j)
    t = j % _ANCHOR_SPACING
    z = t / (2 * (j - t) + t)
    ln = z * (2 + z * z * (2 / 3 + z * z * 0.4))  # ln(1 + t/a)
    return by_log2(j - t) + round(ln * (2 ** 52 / math.log(base)))


def anchored_fracs_oracle(base, n_max):
    """frac(log_b n!) for n = 0..n_max as the scalar sum mod 1 of anchored_terms_oracle."""
    total = 0
    yield 0.0
    for j in range(1, n_max + 1):
        total = (total + anchored_terms_oracle(base, j)) % 2 ** 52
        yield total / 2 ** 52


def block_walk(base, n_max):
    """The library walk's blocks joined into one list, after checking where each starts."""
    blocks = list(_log_factorial_frac_blocks(base, n_max))
    starts = range(1, n_max + 1, _FRAC_BLOCK)
    assert [(start, len(fracs)) for start, fracs in blocks] == \
        [(0, 1), *((start, min(_FRAC_BLOCK, n_max + 1 - start)) for start in starts)]
    return np.concatenate([fracs for _, fracs in blocks]).tolist()


def leading_by_scalar_walk(base, target, n_budget, fracs):
    """The search as one scalar window test per n over the oracle's fracs."""
    m = len(target)
    K = int(target, base)
    margin = _frac_error_bound(base, n_budget) + (m + 1) * 2.0 ** -50
    lo = math.log(K, base) - (m - 1) - margin
    hi = math.log(K + 1, base) - (m - 1) + margin
    for n, frac in enumerate(fracs[: n_budget + 1]):
        if (lo <= frac <= hi or frac - 1.0 >= lo or frac + 1.0 <= hi) \
                and leading_head(n, base, m) == K:
            return n
    return None


@lru_cache(maxsize=None)
def leading_head(n, base, m):
    """The leading m base-b digits of n! as an int, by one division."""
    f = math.factorial(n)
    head = f // base ** max(0, int((f.bit_length() - 1) * math.log(2, base)) - m)
    while head >= base ** m:
        head //= base
    return head


EDGES = (_ANCHOR_FROM - 1, _ANCHOR_FROM, _ANCHOR_FROM + 1,
         _FRAC_BLOCK - 1, _FRAC_BLOCK, _FRAC_BLOCK + 1, 2 * _FRAC_BLOCK + 5)


@settings(max_examples=10, deadline=None)
@given(base=st.integers(2, 36), data=st.data())
def test_block_walk_equals_the_scalar_walk_across_block_edges(base, data):
    # the walk to n is a prefix of every longer walk, so one oracle run serves every edge
    oracle = list(anchored_fracs_oracle(base, EDGES[-1]))
    for n_max in EDGES:
        fracs = oracle[: n_max + 1]
        assert np.array(block_walk(base, n_max)).tobytes() == np.array(fracs).tobytes()

    n_max = data.draw(st.sampled_from(EDGES), label="n_max")
    fracs = oracle[: n_max + 1]
    bins = data.draw(st.sampled_from((1, 7, 10, 100, 1000)), label="bins")
    hist = [0] * bins
    for frac in fracs[1:]:
        hist[min(int(frac * bins), bins - 1)] += 1
    report = logfactorial_equidistribution(base, n_max, bins=bins)
    assert report.histogram == tuple(hist)

    # the leading digits of a factorial near the last edge up to n_max, cut to m digits
    edge = max(edge for edge in EDGES if edge <= n_max)
    n_t = data.draw(st.integers(edge - 1, min(n_max, edge + 2)), label="n_t")
    m = data.draw(st.integers(1, 8), label="m")
    target = np.base_repr(leading_head(n_t, base, m), base).lower()
    want = leading_by_scalar_walk(base, target, n_max, fracs)
    assert want is not None and want <= n_t
    assert leading_digits_search(base, target, n_max) == want


@pytest.mark.parametrize("base", [2, 3, 10, 36])
def test_block_walk_is_within_twice_the_bound_of_the_log2_walk(base):
    # both walks are within _frac_error_bound of the true frac at every n
    n_max = 2 * _FRAC_BLOCK + 5
    walk = np.array(block_walk(base, n_max))
    fracs = np.array(list(log_factorial_fracs_oracle(base, n_max)))
    gap = np.abs(walk - fracs)
    gap = np.minimum(gap, 1 - gap)  # wrap-around at 0 and 1
    bounds = np.array([_frac_error_bound(base, n) for n in range(n_max + 1)])
    assert (gap <= 2 * bounds).all(), np.flatnonzero(gap > 2 * bounds)[:5]
    assert gap[_ANCHOR_FROM:].any()  # the anchored terms do move the walk


@pytest.mark.parametrize("base", [2, 3, 10, 16, 18, 36, 1000])
def test_grid_terms_within_their_bound_of_mpmath(base):
    # (5·log_b j + 1.06)u per term, mod 1, at 40 digits: across 2^12 and b^3, where anchored
    # terms start (18^3 is 8 past a multiple of 16), at every t of every seventh block start
    # 2^16 k + 1 below 10^8, and at random j up to 10^8; each equals the scalar oracle
    u = 2.0 ** -53
    first = max(_ANCHOR_FROM, base ** 3)
    ranges = [(4090, 4200), (first - 20, first + 100)]
    starts = range(_FRAC_BLOCK + 1, 10 ** 8, 7 * _FRAC_BLOCK)
    ranges += [(s, s + _ANCHOR_SPACING) for s in starts]
    ranges += [(j, j + 1) for j in random.Random(base).choices(range(1, 10 ** 8 + 1), k=10 ** 4)]
    with mpmath.workdps(40):
        ln_base = mpmath.log(base)
        for start, stop in ranges:
            terms = _grid_terms(base, start, stop).tolist()
            assert terms == [anchored_terms_oracle(base, j) for j in range(start, stop)]
            for j, k in zip(range(start, stop), terms):
                exact = mpmath.log(j) / ln_base
                err = abs(mpmath.mpf(k % 2 ** 52) / 2 ** 52 - (exact - mpmath.floor(exact)))
                err = min(err, 1 - err)
                assert err <= (5 * exact + 1.06) * u, (j, float(err / u), float(exact))


def test_math_log2_is_within_one_ulp_of_mpmath():
    # _frac_error_bound assumes this; the walk takes log2 of b, of every j below the first
    # anchored one and of every anchor
    js = [*range(1, 5001), *random.Random(37).choices(range(1, 10 ** 8 + 1), k=20_000)]
    with mpmath.workdps(40):
        for j in js:
            want = mpmath.log(j, 2)
            assert abs(mpmath.mpf(math.log2(j)) - want) <= math.ulp(float(want)), j


def test_math_log_of_a_base_is_within_one_ulp_of_mpmath():
    # _frac_error_bound assumes this of the scale 2^52/ln b of the anchored terms
    with mpmath.workdps(40):
        for base in [*range(2, 1001), 10 ** 6, 2 ** 31 - 1]:
            want = mpmath.log(base)
            assert abs(mpmath.mpf(math.log(base)) - want) <= math.ulp(float(want)), base


def test_numpy_cos_and_sin_are_within_one_ulp_of_mpmath():
    # _magnitude_error_bound assumes this, as _frac_error_bound assumes it of math.log2;
    # the angles are 2πh·frac for the walk's fracs and for uniform ones, h = 1, 3
    fracs = np.array(block_walk(10, 3000) + random.Random(36).choices(range(2 ** 52), k=3000))
    fracs[3001:] *= 2.0 ** -52
    angles = np.concatenate([2.0 * math.pi * h * fracs for h in (1, 3)]).tolist()
    with mpmath.workdps(40):
        for ours, exact in ((np.cos, mpmath.cos), (np.sin, mpmath.sin)):
            for angle, value in zip(angles, ours(np.array(angles)).tolist()):
                want = exact(mpmath.mpf(angle))
                assert abs(mpmath.mpf(value) - want) <= math.ulp(float(want)), (ours, angle)


# ---------------------------------------------------------------------------
# equidistribution diagnostics


def test_weyl_magnitude_shrinks():
    small = logfactorial_equidistribution(10, 100)
    large = logfactorial_equidistribution(10, 20_000)
    assert large.weyl_magnitude < small.weyl_magnitude
    assert large.weyl_magnitude < 0.05


def near_edge_by_scalar_recount(base, n_max, bins):
    fracs = list(anchored_fracs_oracle(base, n_max))[1:]
    margin = (_frac_error_bound(base, n_max) + 2.0 ** -51) * bins
    return sum(abs(frac * bins - round(frac * bins)) <= margin for frac in fracs)


@pytest.mark.parametrize("base, n_max, bins", [
    (10, 1, 100), (2, 1000, 1), (10, 3000, 7), (36, 5000, 100),
    (10, _FRAC_BLOCK + 3, 10 ** 6), (3, 2 * _FRAC_BLOCK + 5, 2 ** 19),
])
def test_weyl_near_edge_equals_a_scalar_recount(base, n_max, bins):
    report = logfactorial_equidistribution(base, n_max, bins=bins)
    assert report.near_edge == near_edge_by_scalar_recount(base, n_max, bins)


@pytest.mark.parametrize("base, n_max, bins", [
    (10, 5000, 100), (7, _FRAC_BLOCK + 3, 10 ** 6), (10, 2 * _FRAC_BLOCK + 5, 2 ** 19),
])
def test_weyl_moves_at_most_near_edge_entries(monkeypatch, base, n_max, bins):
    # every frac moved by ±error_bound, wrapping at 0 and 1, as the walk's error may
    # move it: only the j that near_edge counts can change bins
    report = logfactorial_equidistribution(base, n_max, bins=bins)
    walk = factorial_word._log_factorial_frac_blocks
    moved_any = False
    for sign in (1, -1):
        def moved(base, n_max):
            delta = sign * _frac_error_bound(base, n_max)
            return ((start, (fracs + delta) % 1.0) for start, fracs in walk(base, n_max))

        monkeypatch.setattr(factorial_word, "_log_factorial_frac_blocks", moved)
        shifted = logfactorial_equidistribution(base, n_max, bins=bins)
        changed = sum(abs(a - b) for a, b in zip(report.histogram, shifted.histogram))
        assert changed // 2 <= report.near_edge, sign
        moved_any |= changed > 0
    assert moved_any


def test_weyl_histogram_accounts_for_every_index():
    report = logfactorial_equidistribution(10, 5000, bins=50)
    assert len(report.histogram) == 50
    assert sum(report.histogram) == 5000
    assert min(report.histogram) > 0


def test_weyl_error_bound_is_small():
    report = logfactorial_equidistribution(10, 10_000)
    assert 0 < report.summation_error_bound < 1e-6


@pytest.mark.parametrize("base", [2, 10, 36])
def test_log_factorial_fracs_within_bound_of_mpmath(base):
    # frac(loggamma(n + 1) / ln b) at 40 digits, at every n <= 3b + 50 and every 997th n <= 2e5
    n_max = 200_000
    worst = 0.0
    with mpmath.workdps(40):
        ln_base = mpmath.log(base)
        for n, frac in enumerate(block_walk(base, n_max)):
            if n % 997 and n > 3 * base + 50:  # every n while terms with j < b are rounded
                continue
            exact = mpmath.loggamma(n + 1) / ln_base
            err = abs(mpmath.mpf(frac) - (exact - mpmath.floor(exact)))
            err = min(err, 1 - err)  # wrap-around at 0 and 1
            worst = max(worst, float(err) / _frac_error_bound(base, n))
    assert worst <= 1.0
    assert logfactorial_equidistribution(base, n_max).summation_error_bound == \
        _frac_error_bound(base, n_max)


@settings(max_examples=30, deadline=None)
@given(base=st.integers(2, 36), n_max=st.integers(0, 2000))
def test_log_factorial_fracs_are_exact_sums_of_grid_terms(base, n_max):
    # each term is frac(log2(j)/log2(b)) rounded to the 2^-52 grid, ties to even, as
    # float addition of 1.0 rounds it; the walk must be their exact sum mod 1
    grid = 2 ** 52
    log_base = math.log2(base)
    total = Fraction(0)
    for n, frac in enumerate(block_walk(base, n_max)):
        if n:
            t = Fraction(math.log2(n) / log_base)
            total = (total + Fraction(round((t - math.floor(t)) * grid), grid)) % 1
        k = frac * grid
        assert k == int(k) and 0 <= k < grid, (n, frac)
        assert Fraction(frac) == total, n


def test_frac_error_bound_is_below_the_compensated_sum_bound():
    # 10u(n log_b n + 1) was the bound of the compensated float sum this walk replaced
    for base in range(2, 37):
        for n in [*range(1, 200), 997, 10 ** 3, 8 * 10 ** 4, 10 ** 6, 10 ** 9]:
            old = 10 * 2.0 ** -53 * (n * math.log(n) / math.log(base) + 1)
            assert 0 < _frac_error_bound(base, n) < old, (base, n)


def test_weyl_magnitude_within_its_bound_of_mpmath():
    # |1/n sum of e(h·frac(log_10 j!))| at 30 digits, log_10 j! summed in mpmath
    checks = (1, 2, 7, 100, 999, 4096, 20_000)
    exact = {}
    with mpmath.workdps(30):
        ln_10 = mpmath.log(10)
        log_fact = mpmath.mpf(0)
        sums = {1: mpmath.mpc(0), 3: mpmath.mpc(0)}
        for j in range(1, checks[-1] + 1):
            log_fact += mpmath.log(j)
            x = log_fact / ln_10
            x -= mpmath.floor(x)
            for h in sums:
                sums[h] += mpmath.expj(2 * mpmath.pi * h * x)
            if j in checks:
                exact.update({(j, h): float(abs(s) / j) for h, s in sums.items()})
    for (n, h), want in exact.items():
        report = logfactorial_equidistribution(10, n, h)
        bound = _magnitude_error_bound(_frac_error_bound(10, n), n, h)
        assert report.magnitude_error_bound == bound < 1e-8
        assert abs(report.weyl_magnitude - want) <= bound, (n, h)


def test_weyl_single_point():
    # with one sample the normalized exponential sum has magnitude 1
    report = logfactorial_equidistribution(10, 1)
    assert report.weyl_magnitude == pytest.approx(1.0)


def test_weyl_rejects_bad_args():
    with pytest.raises(DomainError):
        logfactorial_equidistribution(1, 100)
    with pytest.raises(DomainError):
        logfactorial_equidistribution(10, 0)
    with pytest.raises(DomainError):
        logfactorial_equidistribution(10, 100, frequency=0)


@pytest.mark.parametrize("call, message", [pytest.param(*row, id=row[1]) for row in [
    (lambda: factorial_word_prefix(10, -1), "n_digits must be nonnegative"),
    (lambda: factor_search(10, Word.from_string("1", digit_alphabet(2)), 10),
     "target must be a word over the digit alphabet of the base"),
    (lambda: factor_search(10, "1", 0), "digit budget must be positive"),
    (lambda: coverage_profile(10, 3, 2), "digit budget 2 cannot hold a length-3 window"),
    (lambda: leading_digits_search(10, "1", -1), "n budget must be nonnegative"),
    (lambda: logfactorial_equidistribution(10, 10, bins=0), "bins must be at least 1"),
]])
def test_refusals(call, message):
    with pytest.raises(DomainError) as refusal:
        call()
    assert refusal.type is DomainError and str(refusal.value) == message
