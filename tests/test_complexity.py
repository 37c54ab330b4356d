import itertools
import math
import random
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibword import (
    Alphabet,
    BudgetError,
    DomainError,
    FactorizationError,
    SquareFreeCensus,
    Word,
    arithmetic_complexity,
    binary_alphabet,
    compose_sturmian,
    delta_apply,
    delta_factorize,
    delta_morphism,
    factor_complexity,
    fibonacci_morphism,
    fixed_point_prefix,
    is_square_free,
    is_sturmian_profile,
    palindromic_factor_count,
    scattered_palindrome_count,
    scattered_palindromes_by_length,
    square_free_census,
    square_free_words,
    ternary_alphabet,
    thue_morse_morphism,
    tribonacci_morphism,
)
from fibword import complexity, verify


def random_word(rng, k, length):
    alpha = binary_alphabet() if k == 2 else ternary_alphabet()
    return Word.from_indices(alpha, (rng.randrange(k) for _ in range(length)))


# ---------------------------------------------------------------------------
# factor complexity


def test_factor_complexity_tiny_cases():
    w = Word.from_string("abaab", binary_alphabet())
    profile = factor_complexity(w, 5)
    assert profile.counts == (2, 3, 3, 2, 1)
    assert profile.count(1) == 2
    assert profile.rows() == [(1, 2), (2, 3), (3, 3), (4, 2), (5, 1)]


def test_factor_complexity_matches_brute_force():
    rng = random.Random(11)
    for _ in range(300):
        k = rng.choice((2, 3))
        w = random_word(rng, k, rng.randrange(1, 30))
        profile = factor_complexity(w, len(w))
        for n in range(1, len(w) + 1):
            expected = len({w.data[i : i + n] for i in range(len(w) - n + 1)})
            assert profile.count(n) == expected


def windows_oracle(data, n_max):
    """Deduplicate the sliding windows of each length; the naive reference."""
    return tuple(len({data[i : i + n] for i in range(len(data) - n + 1)})
                 for n in range(1, n_max + 1))


def test_factor_complexity_matches_windows_oracle():
    rng = random.Random(12)
    for _ in range(50):
        w = random_word(rng, rng.choice((2, 3)), rng.randrange(1, 200))
        n_max = min(len(w), 40)
        assert factor_complexity(w, n_max).counts == windows_oracle(w.data, n_max)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda k: st.lists(st.integers(0, k - 1), min_size=1, max_size=300)
    .map(lambda symbols: Word.from_indices(Alphabet("abcd"[:k]), symbols))))
def test_factor_complexity_property(w):
    assert factor_complexity(w, len(w)).counts == windows_oracle(w.data, len(w))


def _factor_counts_automaton(data: bytes, n_max: int) -> list[int]:
    # Suffix automaton; each non-initial state contributes one distinct factor
    # for every length in (len(link(v)), len(v)].
    length = [0]
    link = [-1]
    trans: list[dict[int, int]] = [{}]
    last = 0
    for c in data:
        cur = len(length)
        length.append(length[last] + 1)
        link.append(-1)
        trans.append({})
        p = last
        while p != -1 and c not in trans[p]:
            trans[p][c] = cur
            p = link[p]
        if p == -1:
            link[cur] = 0
        else:
            q = trans[p][c]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                clone = len(length)
                length.append(length[p] + 1)
                link.append(link[q])
                trans.append(dict(trans[q]))
                while p != -1 and trans[p].get(c) == q:
                    trans[p][c] = clone
                    p = link[p]
                link[q] = clone
                link[cur] = clone
        last = cur
    diff = [0] * (len(data) + 2)
    for v in range(1, len(length)):
        diff[length[link[v]] + 1] += 1
        diff[length[v] + 1] -= 1
    counts = []
    run = 0
    for n in range(1, n_max + 1):
        run += diff[n]
        counts.append(run)
    return counts


def assert_matches_automaton(w):
    """Compare at n_max = 1, len(w) and 2^k - 1, 2^k, 2^k + 1 up to len(w)."""
    want = tuple(_factor_counts_automaton(w.data, len(w)))
    edges = {1, len(w)}
    k = 2
    while k - 1 <= len(w):
        edges.update(n for n in (k - 1, k, k + 1) if n <= len(w))
        k *= 2
    for n_max in sorted(edges):
        assert factor_complexity(w, n_max).counts == want[:n_max]


def test_factor_complexity_matches_automaton_at_doubling_edges():
    # long random words over 1-4 letters, some with long repeats, so the
    # doubling runs many levels; windows_oracle cannot reach these lengths
    rng = random.Random(15)
    for _ in range(12):
        k = rng.randint(1, 4)
        period = bytes(rng.randrange(k) for _ in range(rng.randint(1, 40)))
        data = bytearray((period * 5000)[: rng.randint(1000, 5000)])
        for _ in range(rng.randint(0, 5)):
            data[rng.randrange(len(data))] = rng.randrange(k)
        assert_matches_automaton(Word.from_indices(Alphabet("abcd"[:k]), data))


@pytest.mark.parametrize("letters, length", [
    (1, 1), (2, 1), (1, 2), (1, 3000),  # the unary word: no window is ever unique
    (4, 5000),                          # unique after ~16 symbols: the early stop
])
def test_factor_complexity_edge_words(letters, length):
    rng = random.Random(16)
    assert_matches_automaton(Word.from_indices(
        Alphabet("abcd"[:letters]), (rng.randrange(letters) for _ in range(length))))


def test_factor_complexity_past_16_bit_names():
    # 10^5 random symbols over 4 letters have about 5·10^4 distinct windows of
    # length 8, so their pair codes pass the table cap and are renamed by a sort
    # from h = 8 on, and more than 2^16 from h = 16 on, where the names leave
    # 16 bits
    rng = random.Random(17)
    w = Word.from_indices(Alphabet("abcd"), (rng.randrange(4) for _ in range(100_000)))
    counts = factor_complexity(w, 40).counts
    for n in (1, 8, 9, 16, 17, 24, 32, 33, 40):
        assert counts[n - 1] == len({w.data[i : i + n] for i in range(len(w) - n + 1)}), n


def rename_branches(data, n_max):
    """factor_complexity's counts and how many _rename calls used the table and the sort."""
    with mock.patch.object(complexity, "_rename", wraps=complexity._rename) as renames, \
            mock.patch.object(np, "unique", wraps=np.unique) as sorts:
        counts = complexity._factor_counts(data, n_max)
    return counts, renames.call_count - sorts.call_count, sorts.call_count


def rotation_word(alpha, length):
    """A Sturmian (rotation) prefix: floor((i + 2)·alpha) - floor((i + 1)·alpha)."""
    return bytes(math.floor((i + 2) * alpha) - math.floor((i + 1) * alpha) for i in range(length))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(("wide", "sturmian", "thue-morse")), data=st.data())
def test_factor_complexity_on_both_rename_branches(kind, data):
    # the symbols are always named through the table; random words over 255
    # letters have about 255 names of length 1, so their pair codes take more
    # than 8 table cells a code and are named by the sort. Sturmian and
    # Thue-Morse prefixes take the sort only on late levels of short prefixes,
    # and not at all at scale (test_factor_complexity_closed_forms_at_scale).
    length = data.draw(st.integers(2100, 3000) if kind == "wide" else st.integers(1, 3000),
                       label="length")
    if kind == "wide":
        rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
        word = bytes(rng.randrange(255) for _ in range(length))
    elif kind == "sturmian":
        word = rotation_word(data.draw(st.floats(0.01, 0.99), label="alpha"), length)
    else:
        word = fixed_point_prefix(thue_morse_morphism(), "0", length).data
    n_max = data.draw(st.integers(3 if kind == "wide" else 1, min(length, 80)), label="n_max")
    counts, tables, sorts = rename_branches(word, n_max)
    assert tuple(counts) == windows_oracle(word, n_max)
    assert tables >= 1
    if kind == "wide":
        assert sorts >= 1


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda k: st.lists(st.integers(0, k - 1), min_size=1, max_size=200)
    .map(lambda symbols: bytes(symbols))))
def test_factor_complexity_with_every_rename_sorted(data):
    with mock.patch.object(complexity, "_NAME_TABLE_CELLS", 0):
        counts = complexity._factor_counts(data, len(data))
    assert tuple(counts) == windows_oracle(data, len(data))


CHUNK = complexity._CHUNK


@pytest.mark.parametrize("cells, size, table", [
    (2, 5000, True),
    (256, 1, True),
    (40_256, 5000, True),  # 8 cells a code, plus 256
    (40_257, 5000, False),
    (2 ** 22, 2 ** 19, True),  # the cap
    (2 ** 22 + 1, 2 ** 19, False),
    (2 ** 40, 5000, False),
    # one code short of a chunk, one chunk, one code over, and a last partial chunk
    *[(size, size, True) for size in (CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5)],
    *[(2 ** 40, size, False) for size in (CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5)],
])
@pytest.mark.parametrize("pad", [0, 1])
def test_rename_is_a_dense_rank(cells, size, table, pad):
    rng = np.random.default_rng(cells + size)
    code = rng.integers(0, cells, size=size).astype(np.int32 if cells <= 2 ** 31 else np.int64)
    with mock.patch.object(np, "unique", wraps=np.unique) as sorts:
        names, count = complexity._rename(code, cells, pad)
    assert sorts.called != table
    distinct, inverse = np.unique(code, return_inverse=True)
    assert names.dtype == (np.uint16 if count < 2 ** 16 else np.int32)
    assert count == len(distinct)
    assert names.tolist() == (inverse + 1).tolist() + [0] * pad


@pytest.mark.parametrize("table", [True, False])
def test_rename_keeps_names_in_16_bits_while_they_fit(table):
    rng = np.random.default_rng(16)
    for count, dtype in ((2 ** 16 - 1, np.uint16), (2 ** 16, np.int32)):
        code = rng.permutation(count).astype(np.int32)
        with mock.patch.object(complexity, "_NAME_TABLE_CELLS", count if table else 0):
            names, got = complexity._rename(code, count, 1)
        assert (got, names.dtype) == (count, dtype)
        assert names.tolist() == (code + 1).tolist() + [0]


@pytest.mark.parametrize("at", [0, CHUNK - 1, CHUNK, 3 * CHUNK + 4])
def test_rename_refuses_a_code_past_the_table(at):
    # the table ranks through mode="clip" gathers, so the scatter before them
    # must refuse any code >= cells, in whichever chunk it falls
    code = np.zeros(3 * CHUNK + 5, dtype=np.int32)
    code[at] = 3 * CHUNK + 5
    with mock.patch.object(np, "unique", wraps=np.unique) as sorts, \
            pytest.raises(IndexError):
        complexity._rename(code, 3 * CHUNK + 5)
    assert not sorts.called


@settings(max_examples=150, deadline=None)
@given(k=st.sampled_from((1, 2, 3, 4)), sort=st.booleans(), data=st.data())
def test_profiles_across_many_chunks(k, sort, data):
    # chunks of 7 indices split these short words into many chunks, the last
    # one partial, in every scatter and gather of both profiles
    symbols = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=40),
                        label="symbols")
    w = Word.from_indices(Alphabet("abcd"[:k]), symbols)
    n_max = data.draw(st.integers(1, len(w)), label="n_max")
    cells = 0 if sort else complexity._NAME_TABLE_CELLS
    with mock.patch.object(complexity, "_CHUNK", 7), \
            mock.patch.object(complexity, "_NAME_TABLE_CELLS", cells):
        factor = factor_complexity(w, n_max).counts
        arith = arithmetic_complexity(w, n_max).counts
    assert factor == windows_oracle(w.data, n_max)
    assert arith == tuple(arithmetic_oracle(w.data, n) for n in range(1, n_max + 1))


def test_factor_complexity_memory_on_a_short_wide_word():
    # 2048 random symbols over 255 letters have about 2000 names from h = 2
    # on; a table of 2000^2 cells would take 20 MiB for 2048 codes
    rng = random.Random(18)
    w = Word.from_indices(WIDE, (rng.randrange(255) for _ in range(2048)))
    factor_complexity(w[:10], 10)  # any lazy import happens outside the trace
    tracemalloc.start()
    try:
        profile = factor_complexity(w, 2048)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert profile.counts == windows_oracle(w.data, 2048)
    assert peak < 2 ** 20


def test_factor_complexity_around_powers_of_two():
    # n_max = 2^k + 1 names the windows by two halves of 2^k that overlap in all
    # but one symbol; 0^(2^k) 1 0^(2^k) 2 has windows told apart by that symbol
    for k in range(1, 11):
        assert_matches_automaton(Word.from_indices(
            Alphabet("abc"), [0] * 2 ** k + [1] + [0] * 2 ** k + [2]))
    for morphism, seed in ((fibonacci_morphism, "a"), (thue_morse_morphism, "0")):
        assert_matches_automaton(fixed_point_prefix(morphism(), seed, 5000))


def thue_morse_complexity(n):
    """p(n) of the Thue-Morse word (Brlek 1989; de Luca-Varricchio 1989).

    p(1) = 2, p(2) = 4, and for n = 2^r + q + 1 with r >= 0 and 0 < q <= 2^r,
    p(n) = 6 * 2^(r-1) + 4q when q <= 2^(r-1), else 8 * 2^(r-1) + 2q.
    """
    if n <= 2:
        return 2 * n
    r = (n - 2).bit_length() - 1
    q = n - 1 - 2 ** r
    if 2 * q <= 2 ** r:
        return 3 * 2 ** r + 4 * q
    return 4 * 2 ** r + 2 * q


@pytest.mark.parametrize("morphism, seed, formula", [
    (fibonacci_morphism, "a", lambda n: n + 1),
    (tribonacci_morphism, "a", lambda n: 2 * n + 1),
    (thue_morse_morphism, "0", thue_morse_complexity),
])
def test_factor_complexity_closed_forms_at_scale(morphism, seed, formula):
    w = fixed_point_prefix(morphism(), seed, 100_000)
    assert factor_complexity(w, 200).counts == tuple(formula(n) for n in range(1, 201))
    # few names a level: every level is named through the table
    counts, tables, sorts = rename_branches(w.data, 200)
    assert (sorts, tables) == (0, 9)


def test_factor_complexity_memory():
    # the suffix automaton this replaced peaked at 91 MiB on this call
    w = fixed_point_prefix(thue_morse_morphism(), "0", 200_000)
    factor_complexity(w[:1000], 200)  # any lazy import happens outside the trace
    tracemalloc.start()
    try:
        factor_complexity(w, 200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


def test_factor_complexity_memory_at_a_million_symbols():
    # the suffix-sort design this replaced peaked at 54 MiB on this call; the
    # names take 2 bytes per symbol for each of the 8 levels
    w = fixed_point_prefix(thue_morse_morphism(), "0", 10 ** 6)
    factor_complexity(w[:1000], 200)  # any lazy import happens outside the trace
    tracemalloc.start()
    try:
        profile = factor_complexity(w, 200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert profile.counts == tuple(thue_morse_complexity(n) for n in range(1, 201))
    assert peak < 36 * 2 ** 20


def test_factor_complexity_rejects_bad_args():
    w = Word.from_string("ab", binary_alphabet())
    with pytest.raises(DomainError):
        factor_complexity(w, 0)
    with pytest.raises(DomainError):
        factor_complexity(w, 3)  # longer than the word


def test_thue_morse_complexity_start():
    w = fixed_point_prefix(thue_morse_morphism(), "0", 4000)
    profile = factor_complexity(w, 40)
    assert profile.counts[:4] == (2, 4, 6, 10)
    assert (profile.counts == windows_oracle(w.data, 40)
            == tuple(thue_morse_complexity(n) for n in range(1, 41)))


def test_sturmian_profile_detection():
    w = fixed_point_prefix(fibonacci_morphism(), "a", 5000)
    assert is_sturmian_profile(factor_complexity(w, 60))
    tm = fixed_point_prefix(thue_morse_morphism(), "0", 5000)
    assert not is_sturmian_profile(factor_complexity(tm, 60))


# ---------------------------------------------------------------------------
# arithmetic complexity


def arithmetic_oracle(data, n):
    """Enumerate every arithmetic progression the slow way."""
    if n == 1:
        return len(set(data))
    seen = set()
    for start in range(len(data)):
        for step in range(1, len(data)):
            if start + (n - 1) * step >= len(data):
                break
            seen.add(tuple(data[start + t * step] for t in range(n)))
    return len(seen)


def arithmetic_loop(data, n_max):
    """The per-n set of residue-stream windows arithmetic_complexity once ran."""
    L = len(data)
    counts = [len(set(data))]
    for n in range(2, n_max + 1):
        span = n - 1
        seen: set[bytes] = set()
        add = seen.update
        for d in range(1, (L - 1) // span + 1):
            # every progression with step d is a contiguous window of one of
            # the d residue streams data[r::d]
            for r in range(d):
                t = data[r::d]
                m = len(t) - n + 1
                if m > 0:
                    add(t[j : j + n] for j in range(m))
        counts.append(len(seen))
    return counts


WIDE = Alphabet(chr(0x100 + i) for i in range(255))  # the largest alphabet allowed


@settings(max_examples=300, deadline=None)
@given(k=st.sampled_from((1, 2, 3, 4, 255)), data=st.data())
def test_arithmetic_complexity_matches_the_loop(k, data):
    # on 255 letters the draws lean to the top symbols, bytes 252..254: the
    # largest values the uint8 names of one-symbol words take
    alphabet = WIDE if k == 255 else Alphabet("abcd"[:k])
    top = st.integers(k - 3, k - 1) if k == 255 else st.integers(0, k - 1)
    symbols = data.draw(st.lists(st.one_of(st.integers(0, k - 1), top),
                                 min_size=1, max_size=40), label="symbols")
    w = Word.from_indices(alphabet, symbols)
    n_max = data.draw(st.integers(1, len(w)), label="n_max")
    assert list(arithmetic_complexity(w, n_max).counts) == arithmetic_loop(w.data, n_max)


@settings(max_examples=100, deadline=None)
@given(k=st.sampled_from((1, 2, 3, 4, 255)), data=st.data())
def test_arithmetic_complexity_with_every_rename_sorted(k, data):
    alphabet = WIDE if k == 255 else Alphabet("abcd"[:k])
    symbols = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=40),
                        label="symbols")
    w = Word.from_indices(alphabet, symbols)
    n_max = data.draw(st.integers(1, len(w)), label="n_max")
    with mock.patch.object(complexity, "_NAME_TABLE_CELLS", 0):
        counts = arithmetic_complexity(w, n_max).counts
    assert list(counts) == arithmetic_loop(w.data, n_max)


def test_arithmetic_complexity_memory():
    w = fixed_point_prefix(fibonacci_morphism(), "a", 1000)
    arithmetic_complexity(w[:10], 8)  # any lazy import happens outside the trace
    tracemalloc.start()
    try:
        profile = arithmetic_complexity(w, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert profile.counts == (2, 4, 8, 16, 30, 52, 83, 128)
    assert peak < 60 * 2 ** 20


def test_arithmetic_complexity_of_one_symbol_builds_no_pairs():
    # a(1) is the number of letters; the L^2 / 2 pairs took 96 MiB traced at L = 4096
    w = fixed_point_prefix(fibonacci_morphism(), "a", complexity._ARITH_MAXLEN)
    tracemalloc.start()
    try:
        profile = arithmetic_complexity(w, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert profile.counts == (2,)
    assert peak < 2 ** 20
    assert arithmetic_complexity(Word.from_string("aaaa", Alphabet("ab")), 1).counts == (1,)


def test_arithmetic_complexity_length_cap():
    # refused before numpy or any record is touched
    w = fixed_point_prefix(fibonacci_morphism(), "a", complexity._ARITH_MAXLEN + 1)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="at most 4096 symbols, got 4097"):
            arithmetic_complexity(w, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_arithmetic_complexity_whole_profile_memory():
    # n_max = L: the records shrink level by level, so memory is set by L alone
    w = fixed_point_prefix(fibonacci_morphism(), "a", 2048)
    arithmetic_complexity(w[:10], 8)  # any lazy import happens outside the trace
    tracemalloc.start()
    try:
        profile = arithmetic_complexity(w, 2048)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert profile.counts[:10] == (2, 4, 8, 16, 30, 52, 83, 128, 189, 260)
    assert len(profile.counts) == 2048
    assert peak < 128 * 2 ** 20


def test_arithmetic_complexity_small_word():
    w = Word.from_string("aba", binary_alphabet())
    profile = arithmetic_complexity(w, 3)
    # progressions of length 2: ab, ba contiguous plus the step-2 pair "aa"
    assert profile.counts == (2, 3, 1)


def test_arithmetic_complexity_matches_oracle():
    rng = random.Random(13)
    for _ in range(200):
        k = rng.choice((2, 3))
        w = random_word(rng, k, rng.randrange(1, 14))
        profile = arithmetic_complexity(w, len(w))
        for n in range(1, len(w) + 1):
            assert profile.count(n) == arithmetic_oracle(w.data, n)


def test_factor_is_dominated_by_arithmetic():
    rng = random.Random(14)
    for _ in range(200):
        k = rng.choice((2, 3))
        w = random_word(rng, k, rng.randrange(1, 14))
        p = factor_complexity(w, len(w))
        a = arithmetic_complexity(w, len(w))
        for n in range(1, len(w) + 1):
            assert 1 <= p.count(n) <= a.count(n) <= k ** n
            if 2 * n > len(w) + 1:  # only step 1 fits n symbols
                assert a.count(n) == p.count(n)


# ---------------------------------------------------------------------------
# square-free words


def has_square(t):
    return any(
        t[i : i + h] == t[i + h : i + 2 * h]
        for h in range(1, len(t) // 2 + 1)
        for i in range(len(t) - 2 * h + 1)
    )


def test_is_square_free_examples():
    tern = ternary_alphabet()
    assert is_square_free(Word.from_string("abcbabcab", tern))
    assert not is_square_free(Word.from_string("abcabc", tern))
    assert not is_square_free(Word.from_string("aa", tern))
    assert is_square_free(Word.from_string("", tern))


def test_is_square_free_matches_filter():
    rng = random.Random(15)
    for _ in range(500):
        w = random_word(rng, 3, rng.randrange(0, 16))
        assert is_square_free(w) == (not has_square(w.data))


# counts of ternary square-free words by length, OEIS A006156 a(0..20)
TERNARY_COUNTS = (1, 3, 6, 12, 18, 30, 42, 60, 78, 108, 144, 204, 264,
                  342, 456, 618, 798, 1044, 1392, 1830, 2388)


def test_census_matches_exhaustive_filter():
    census = square_free_census(3, 9)
    for n in range(0, 10):
        filtered = sum(
            1 for t in itertools.product(range(3), repeat=n) if not has_square(t)
        )
        assert census.counts[n] == filtered


@pytest.mark.parametrize("k, n_max", [(1, None), (2, None), (4, 8)])
def test_census_symmetry_matches_exhaustive_filter(k, n_max):
    # the census walks only words starting with letters 0, 1 and scales by
    # k(k-1); the filter enumerates every word over k letters. On 1 and 2
    # letters it gives (1, 1, 0) and (1, 2, 2, 2, 0).
    census = square_free_census(k, n_max)
    filtered = [
        sum(1 for t in itertools.product(range(k), repeat=n) if not has_square(t))
        for n in range((n_max or 8) + 1)
    ]
    if 0 in filtered[1:]:
        filtered = filtered[: filtered.index(0, 1) + 1]
    assert census.counts == tuple(filtered)
    assert census.terminated == (k < 3)


def test_census_frozen_ternary_counts():
    census = square_free_census(3, 20)
    assert census.counts == TERNARY_COUNTS
    assert not census.terminated


def test_census_growth_bounds_where_they_hold():
    census = square_free_census(3, 20)
    for n in range(3, 21):
        assert census.counts[n] >= 6 * 1.032 ** n
    for n in range(8, 21):
        assert census.counts[n] <= 6 * 1.379 ** n
    # the upper bound genuinely fails just below that threshold
    for n in (5, 6, 7):
        assert census.counts[n] > 6 * 1.379 ** n


@pytest.mark.parametrize("wrong_n", range(13, 21))
def test_census_check_names_a_miscount_beyond_the_filter(monkeypatch, wrong_n):
    # a(13..20) lie past the check's exhaustive filter; there the published
    # table has to catch a wrong count
    counts = list(square_free_census(3, 20).counts)
    counts[wrong_n] += 6
    miscount = SquareFreeCensus(3, tuple(counts), terminated=False)
    monkeypatch.setattr(complexity, "square_free_census", lambda k, n_max: miscount)
    result = verify.run_check("square-free-census")
    assert result.passed is False
    assert f"a({wrong_n}) = {counts[wrong_n]}" in result.detail


def test_census_workers_do_not_change_counts():
    solo = square_free_census(3, 14, workers=1)
    fanned = square_free_census(3, 14, workers=2)
    assert solo.counts == fanned.counts


def test_binary_census_terminates():
    census = square_free_census(2)
    assert census.terminated
    assert census.counts == (1, 2, 2, 2, 0)
    listing = sorted(str(w) for w in square_free_words(2))
    assert listing == ["a", "ab", "aba", "b", "ba", "bab"]


@pytest.mark.parametrize("k, max_len", [(3, 7), (4, 5)])
def test_square_free_listing_matches_exhaustive_filter(k, max_len):
    listing = [w.data for w in square_free_words(k, max_len)]
    filtered = [bytes(t) for n in range(1, max_len + 1)
                for t in itertools.product(range(k), repeat=n) if not has_square(t)]
    assert sorted(listing) == sorted(filtered)
    assert square_free_words(k, 0) == []
    with pytest.raises(DomainError):
        square_free_words(k, -1)


@pytest.mark.parametrize("size", (0, 27))
def test_square_free_listing_names_its_alphabet_range(size):
    with pytest.raises(DomainError, match=r"1\.\.26"):
        square_free_words(size, 2)


@pytest.mark.parametrize("size", (256, 300))
def test_census_refuses_alphabets_past_255_letters(size):
    with pytest.raises(DomainError, match="255"):
        square_free_census(size, 3)
    assert square_free_census(255, 3).counts == (1, 255, 255 * 254, 255 * 254 ** 2)


def test_square_free_listing_node_budget(monkeypatch):
    # the listing walks the full tree of words under the census budget
    monkeypatch.setenv("FIBWORD_CENSUS_NODES", "1000")
    with pytest.raises(BudgetError):
        square_free_words(3, 30)


def test_census_node_budget(monkeypatch):
    monkeypatch.setenv("FIBWORD_CENSUS_NODES", "100")
    with pytest.raises(BudgetError):
        square_free_census(3, 25)


@pytest.mark.parametrize("workers", (1, 2))
def test_census_budget_does_not_depend_on_workers(workers, monkeypatch):
    # one global budget over one walk: the outcome is the same for any
    # worker count, and a(0..24) (A006156) fit in 20 000 nodes
    monkeypatch.setenv("FIBWORD_CENSUS_NODES", "20000")
    census = square_free_census(3, 24, workers)
    assert census.counts[:21] == TERNARY_COUNTS
    assert census.counts[21:] == (3180, 4146, 5418, 7032)
    monkeypatch.setenv("FIBWORD_CENSUS_NODES", "5000")
    with pytest.raises(BudgetError):
        square_free_census(3, 24, workers)


def count_square_free(alphabet_size, n):
    """a(n) alone, read off a census that stops at n (0 once the words die out)."""
    counts = square_free_census(alphabet_size, n).counts
    return counts[n] if n < len(counts) else 0


def test_count_square_free_single_lengths():
    assert count_square_free(3, 5) == 30
    assert count_square_free(2, 7) == 0
    assert count_square_free(3, 0) == 1


def test_census_budget_comes_from_environment(monkeypatch):
    monkeypatch.setenv("FIBWORD_CENSUS_NODES", "1000")
    with pytest.raises(BudgetError):
        square_free_census(3, 24)
    # no argument is ever read as a budget: workers does not lift it
    with pytest.raises(BudgetError):
        square_free_census(3, 24, 1000)
    with pytest.raises(TypeError):
        square_free_census(3, 24, node_budget=1000)


def recursive_walk(k, n_max, prefix):
    """The depth-first square-free walk, kept as an oracle for the walk by length.

    Returns the counts by absolute length, the words met (the prefix
    included, if nonempty) in depth-first order, and the nodes tried: one
    per letter appended to a square-free word shorter than n_max.
    """
    counts = [0] * (n_max + 1)
    found = []
    nodes = 0

    def rec(w):
        nonlocal nodes
        if w:
            counts[len(w)] += 1
            found.append(bytes(w))
        if len(w) == n_max:
            return
        for c in range(k):
            nodes += 1
            w.append(c)
            if not has_square(w):
                rec(w)
            w.pop()

    rec(bytearray(prefix))
    return counts, found, nodes


def recursive_census(k, n_max):
    """square_free_census by the depth-first walk, and the nodes it tried."""
    prefix = b"" if k < 2 or n_max < 2 else b"\x00\x01"
    counts, _, nodes = recursive_walk(k, n_max, prefix)
    if prefix:
        counts = [k * (k - 1) * c for c in counts]
        counts[1] = k
    counts[0] = 1
    if 0 in counts[1:]:
        counts = counts[: counts.index(0, 1) + 1]
    return SquareFreeCensus(k, tuple(counts), counts[-1] == 0), nodes


def charged_nodes(call, *args):
    """Run call(*args) and return its result and the census nodes last charged (0 if none)."""
    charged = [0]
    real = complexity.charge

    def spy(name, used, what):
        if name == "CENSUS_NODES":
            charged.append(used)
        real(name, used, what)

    with mock.patch.object(complexity, "charge", spy):
        return call(*args), charged[-1]


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 4), n_max=st.integers(0, 10))
def test_walk_by_length_matches_the_recursive_walk(k, n_max):
    census, nodes = charged_nodes(square_free_census, k, n_max)
    assert (census, nodes) == recursive_census(k, n_max)
    listing, nodes = charged_nodes(square_free_words, k, n_max)
    _, found, want_nodes = recursive_walk(k, n_max, b"")
    listed = [w.data for w in listing]
    assert len(listed) == len(found) and set(listed) == set(found)
    assert [len(w) for w in listed] == sorted(len(w) for w in listed)   # by length
    assert listed == sorted(found, key=lambda w: (len(w), w))   # then lexicographic
    assert nodes == want_nodes


@pytest.fixture
def walks(monkeypatch):
    """Each walk of _square_free_levels, as its prefix length and level sizes."""
    walks = []
    real = complexity._square_free_levels

    def spy(k, n_max, prefix):
        walks.append((len(prefix), []))
        for level in real(k, n_max, prefix):
            walks[-1][1].append(len(level))
            yield level

    monkeypatch.setattr(complexity, "_square_free_levels", spy)
    return walks


@pytest.mark.parametrize("call", (square_free_census, square_free_words))
@pytest.mark.parametrize("k, n_max", ((1, 0), (2, 1), (2, 8), (3, 2), (3, 12)))
def test_census_and_listing_walk_the_levels_once(walks, call, k, n_max):
    call(k, n_max)
    assert len(walks) == 1


@pytest.mark.parametrize("k, last", ((1, 2), (2, 4)))
def test_walk_stops_after_the_first_empty_level(walks, k, last):
    census, nodes = charged_nodes(square_free_census, k, 50)
    assert (census, nodes) == recursive_census(k, 50)
    assert census.terminated and len(census.counts) == last + 1
    listing, nodes = charged_nodes(square_free_words, k, 50)
    assert nodes == recursive_walk(k, 50, b"")[2]
    assert max(len(w) for w in listing) == last - 1
    # the census, then the listing: each walk's levels end at length last, empty
    assert [start + len(sizes) for start, sizes in walks] == [last, last]
    assert all(sizes[-1] == 0 and 0 not in sizes[:-1] for _, sizes in walks)


@pytest.mark.parametrize("n_max", (2000, 10 ** 8))
def test_census_refusal_names_the_length_reached(monkeypatch, n_max):
    # the walk refuses its level at length 27; nothing it holds grows with n_max
    monkeypatch.setenv("FIBWORD_CENSUS_NODES", "20000")
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(BudgetError) as refusal:
            square_free_census(3, n_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1 and peak < 2 ** 20
    assert str(refusal.value) == (
        f"the square-free walk to length 27 of {n_max}, at 25350 nodes, "
        "exceeds the FIBWORD_CENSUS_NODES budget 20000"
    )


def test_growth_estimate():
    # a(n) ** (1/n) approaches the growth constant, about 1.3018
    rate = square_free_census(3, 20).counts[20] ** (1 / 20)
    assert 1.25 < rate < 1.55


# ---------------------------------------------------------------------------
# the block code a -> abb, b -> ab, c -> a


def test_delta_images():
    assert delta_morphism().rules_dict() == {"a": "abb", "b": "ab", "c": "a"}
    w = Word.from_string("abc", ternary_alphabet())
    assert str(delta_apply(w)) == "abbaba"


def has_cube(data):
    return any(
        data[i : i + h] == data[i + h : i + 2 * h] == data[i + 2 * h : i + 3 * h]
        for h in range(1, len(data) // 3 + 1)
        for i in range(len(data) - 3 * h + 1)
    )


def test_delta_sends_square_free_words_to_cube_free_words():
    # the image cannot be square-free (it contains "bb" blocks by design),
    # but square-free inputs never produce a cube
    rng = random.Random(16)
    tried = 0
    for _ in range(2000):
        w = random_word(rng, 3, rng.randrange(0, 12))
        if not is_square_free(w):
            continue
        tried += 1
        assert not has_cube(delta_apply(w).data)
    assert tried > 100


def test_delta_factorize_roundtrip_random():
    rng = random.Random(17)
    for _ in range(2000):
        w = random_word(rng, 3, rng.randrange(0, 20))
        assert delta_factorize(delta_apply(w)) == w


def delta_factorize_loop(data):
    """The per-symbol scan delta_factorize once ran; raises as it does."""
    out = bytearray()
    i = 0
    while i < len(data):
        if data[i] != 0:
            raise FactorizationError(f"expected 'a' at position {i}, found 'b'")
        j = i + 1
        while j < len(data) and data[j] == 1:
            j += 1
        run = j - i - 1
        if run > 2:
            raise FactorizationError(
                f"run of {run} 'b's starting at position {i + 1} fits no block"
            )
        out.append(2 - run)  # blocks a, ab, abb <- c, b, a
        i = j
    return bytes(out)


def test_delta_factorize_matches_the_loop():
    rng = random.Random(18)
    cases = [b"\x00\x01\x00" + b"\x01" * 300]  # a run longer than a byte can count
    for trial in range(3000):
        if trial % 2:
            # an image with up to two symbols flipped
            data = bytearray(delta_apply(random_word(rng, 3, rng.randrange(0, 30))).data)
            for _ in range(rng.randrange(0, 3)):
                if data:
                    data[rng.randrange(len(data))] ^= 1
        else:
            data = rng.choices((0, 1), weights=(2, 3), k=rng.randrange(0, 30))
        cases.append(bytes(data))
    outcomes = set()
    for data in cases:
        try:
            want = delta_factorize_loop(data)
        except FactorizationError as exc:
            with pytest.raises(FactorizationError) as got:
                delta_factorize(Word(binary_alphabet(), data))
            assert str(got.value) == str(exc)
            outcomes.add(str(exc).split()[0])
        else:
            assert delta_factorize(Word(binary_alphabet(), data)).data == want
            outcomes.add("ok")
    assert outcomes == {"ok", "expected", "run"}


def test_delta_factorize_rejects_non_images():
    # images always start with "a" and never contain three consecutive b's
    for text in ("b", "abbb", "bb"):
        with pytest.raises(FactorizationError):
            delta_factorize(Word.from_string(text, binary_alphabet()))
    assert str(delta_factorize(Word.from_string("aab", binary_alphabet()))) == "cb"


def test_delta_factorize_requires_binary_input():
    with pytest.raises(DomainError):
        delta_factorize(Word.from_string("abc", ternary_alphabet()))


# ---------------------------------------------------------------------------
# palindromes


def palindromic_factors_oracle(data):
    return len({data[i:j] for i in range(len(data)) for j in range(i + 1, len(data) + 1)
                if data[i:j] == data[i:j][::-1]})


def palindromes_by_centre(data):
    """Oracle: grow a palindrome around every centre, collecting the factors."""
    L = len(data)
    found = set()
    for center in range(L):
        for left, right in ((center, center), (center, center + 1)):
            while left >= 0 and right < L and data[left] == data[right]:
                found.add(data[left : right + 1])
                left -= 1
                right += 1
    return len(found)


@settings(max_examples=300)
@given(st.integers(1, 4).flatmap(
    lambda k: st.lists(st.integers(0, k - 1), max_size=40)))
def test_palindromic_factor_count_matches_the_oracles(letters):
    w = Word.from_indices(Alphabet("abcd"), letters)
    count = palindromic_factor_count(w)
    assert count == palindromes_by_centre(w.data) == palindromic_factors_oracle(w.data)


def test_palindromic_factor_count_on_rich_words():
    # Sturmian words are rich (Droubay-Justin-Pirillo 2001): L palindromic
    # factors in every prefix of length L; a^L is rich too
    assert palindromic_factor_count(Word(Alphabet("a"), bytes(3000))) == 3000
    fib = fixed_point_prefix(fibonacci_morphism(), "a", 10 ** 5)
    assert palindromic_factor_count(fib) == 10 ** 5
    sturmian = compose_sturmian(["phi", "phit", "E", "phi"])
    assert is_sturmian_profile(factor_complexity(fixed_point_prefix(sturmian, "a", 2000), 40))
    w = fixed_point_prefix(sturmian, "a", 30_000)
    assert palindromic_factor_count(w) == 30_000


def test_palindromic_factor_count_memory():
    # on this word one edge dict per node peaks at 29 MiB traced, and the
    # flat dict with lengths and links in lists at 16.5 MiB
    w = fixed_point_prefix(fibonacci_morphism(), "a", 10 ** 5)
    tracemalloc.start()
    try:
        palindromic_factor_count(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def scattered_oracle(data):
    """Distinct palindromic subsequences by length, from every index set."""
    by_length = []
    for r in range(1, len(data) + 1):
        found = set()
        for idxs in itertools.combinations(range(len(data)), r):
            sub = tuple(data[i] for i in idxs)
            if sub == sub[::-1]:
                found.add(sub)
        by_length.append(len(found))
    while by_length and by_length[-1] == 0:
        by_length.pop()
    return by_length


def scattered_by_length_lists(data):
    """The interval recurrence over one list of per-length counts per cell."""
    L = len(data)
    if L == 0:
        return []
    zero = [0] * (L + 1)
    dp = [[zero] * L for _ in range(L + 1)]   # cells with i > j stay zero
    for i in range(L):
        dp[i][i] = [0, 1] + [0] * (L - 1)
    for span in range(2, L + 1):
        for i in range(L - span + 1):
            j = i + span - 1
            inner = dp[i + 1][j - 1]
            if data[i] != data[j]:
                a, b = dp[i + 1][j], dp[i][j - 1]
                v = [a[t] + b[t] - inner[t] for t in range(L + 1)]
            else:
                # each inner palindrome, bare and wrapped in c...c (+2 to the
                # length); the wraps of palindromes lying between the first
                # and the last inner c were already counted inside
                inside = [k for k in range(i + 1, j) if data[k] == data[i]]
                v = [inner[t] + (inner[t - 2] if t >= 2 else 0) for t in range(L + 1)]
                if not inside:
                    v[1] += 1
                    v[2] += 1
                elif len(inside) == 1:
                    v[2] += 1
                else:
                    dup = dp[inside[0] + 1][inside[-1] - 1]
                    for t in range(3, L + 1):
                        v[t] -= dup[t - 2]
            dp[i][j] = v
    out = dp[0][L - 1][1:]
    while out and out[-1] == 0:
        out.pop()
    return out


def test_palindrome_counts_small_examples():
    tern = ternary_alphabet()
    assert palindromic_factor_count(Word.from_string("abaab", tern)) == 5
    assert scattered_palindrome_count(Word.from_string("abaab", tern)) == 8
    assert scattered_palindrome_count(Word.from_string("aabb", tern)) == 4
    assert scattered_palindrome_count(Word.from_string("a", tern)) == 1
    assert scattered_palindrome_count(Word.from_string("abc", tern)) == 3
    assert scattered_palindrome_count(Word.from_string("aaa", tern)) == 3
    assert scattered_palindrome_count(Word.from_string("", tern)) == 0


def test_palindrome_counts_match_oracles():
    rng = random.Random(18)
    for _ in range(300):
        k = rng.choice((2, 3))
        w = random_word(rng, k, rng.randrange(0, 11))
        assert palindromic_factor_count(w) == palindromic_factors_oracle(w.data)
        assert scattered_palindrome_count(w) == sum(scattered_oracle(w.data))


def test_scattered_by_length_sums_to_total():
    rng = random.Random(19)
    for _ in range(200):
        w = random_word(rng, 3, rng.randrange(0, 14))
        per_length = scattered_palindromes_by_length(w)
        assert sum(per_length) == scattered_palindrome_count(w)
        if per_length:
            assert per_length[0] == len(set(w.data))


def test_scattered_by_length_values():
    w = Word.from_string("abaab", ternary_alphabet())
    assert scattered_palindromes_by_length(w) == [2, 2, 3, 1]


def test_scattered_by_length_matches_oracle():
    rng = random.Random(21)
    for _ in range(150):
        k = rng.choice((1, 2, 3))
        data = bytes(rng.randrange(k) for _ in range(rng.randrange(0, 13)))
        w = Word.from_indices(ternary_alphabet(), data)
        assert scattered_palindromes_by_length(w) == scattered_oracle(data)


def budget_edge_words():
    rng = random.Random(22)
    return {
        "unary": bytes(64),
        "fibonacci": fixed_point_prefix(fibonacci_morphism(), "a", 64).data,
        "binary": bytes(rng.randrange(2) for _ in range(64)),
        "ternary": bytes(rng.randrange(3) for _ in range(64)),
    }


@pytest.mark.parametrize("name", ("unary", "fibonacci", "binary", "ternary"))
def test_scattered_by_length_at_the_budget_edge(name):
    # at L = 64 the largest per-length counts of the last three words take
    # 17 to 20 bits, so fields narrower than that would carry from one
    # length into the next
    data = budget_edge_words()[name]
    w = Word.from_indices(ternary_alphabet(), data)
    assert scattered_palindromes_by_length(w) == scattered_by_length_lists(data)


@settings(max_examples=60)
@given(st.lists(st.integers(0, 2), max_size=64))
def test_scattered_total_is_sum_of_lengths(letters):
    w = Word.from_indices(ternary_alphabet(), letters)
    assert scattered_palindrome_count(w) == sum(scattered_palindromes_by_length(w))


def test_scattered_palindrome_budgets():
    long_word = Word.from_string("ab" * 300, binary_alphabet())
    with pytest.raises(BudgetError):
        scattered_palindrome_count(long_word)
    with pytest.raises(BudgetError):
        scattered_palindromes_by_length(Word.from_string("ab" * 40, binary_alphabet()))


def test_factor_palindromes_bounded_by_scattered():
    rng = random.Random(20)
    for _ in range(300):
        w = random_word(rng, rng.choice((2, 3)), rng.randrange(1, 14))
        assert palindromic_factor_count(w) <= scattered_palindrome_count(w)


@pytest.mark.parametrize("call, message", [pytest.param(*row, id=row[1]) for row in [
    (lambda: complexity.ComplexityProfile("factor", (2, 3)).count(3),
     "profile covers 1..2, got n=3"),
    (lambda: complexity.ComplexityProfile("factor", (2, 3)).count(0),
     "profile covers 1..2, got n=0"),
    (lambda: factor_complexity(Word(binary_alphabet()), 1),
     "complexity profiles need a nonempty word"),
    (lambda: arithmetic_complexity(Word(binary_alphabet()), 1),
     "complexity profiles need a nonempty word"),
    (lambda: square_free_census(0, 3), "alphabet_size must be at least 1"),
    (lambda: square_free_census(3, 3, workers=0), "workers must be at least 1"),
    (lambda: square_free_census(3), "census never terminates on 3+ letters (square-free "
                                    "words of every length exist); pass an explicit n_max"),
    (lambda: square_free_census(2, -1), "n_max must be nonnegative"),
    (lambda: square_free_words(3), "a bound is required on 3+ letters"),
]])
def test_refusals(call, message):
    with pytest.raises(DomainError) as refusal:
        call()
    assert refusal.type is DomainError and str(refusal.value) == message
