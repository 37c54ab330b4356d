import math
import random
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibword import (
    Alphabet,
    BalanceViolation,
    DomainError,
    GOLDEN_RATIO,
    RARE_LETTER_TARGET,
    Word,
    adjacency_matrix,
    balance_check,
    binary_alphabet,
    fibonacci_morphism,
    fibonacci_ratio,
    fixed_point_prefix,
    frequency_report,
    golden_density,
    golden_deviation,
    golden_deviation_below,
    mbonacci_morphism,
    perron_eigenvalue,
    symbol_frequency,
    thue_morse_morphism,
    tribonacci_morphism,
    window_frequency_sup,
)


def test_symbol_frequency_exact():
    w = Word.from_string("abaab", binary_alphabet())
    assert symbol_frequency(w, "a") == Fraction(3, 5)
    assert symbol_frequency(w, "b") == Fraction(2, 5)
    assert symbol_frequency(Word.from_string("", binary_alphabet()), "a") == 0


def test_window_frequency_sup():
    w = Word.from_string("aabab", binary_alphabet())
    assert window_frequency_sup(w, "a", 2) == Fraction(1, 1)   # the "aa" window
    assert window_frequency_sup(w, "b", 2) == Fraction(1, 2)
    assert window_frequency_sup(w, "a", 5) == Fraction(3, 5)
    with pytest.raises(DomainError):
        window_frequency_sup(w, "a", 6)


def window_sup_sliding(data, s, n):
    """Largest frequency of letter s over the length-n windows, by a sliding count."""
    count = data[:n].count(s)
    best = count
    for i in range(n, len(data)):
        count += (data[i] == s) - (data[i - n] == s)
        best = max(best, count)
    return Fraction(best, n)


@settings(max_examples=80)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=120), st.integers(0, 2))
def test_window_frequency_sup_matches_sliding_oracle(letters, s):
    w = Word.from_indices(Alphabet("abc"), letters)
    for n in range(1, len(w) + 1):
        assert window_frequency_sup(w, s, n) == window_sup_sliding(w.data, s, n)


def test_frequency_report_fields():
    w = fixed_point_prefix(fibonacci_morphism(), "a", 6765)
    rep = frequency_report(w, "b", window=100, target=RARE_LETTER_TARGET)
    assert rep.global_frequency == Fraction(2584, 6765)
    assert rep.window_sup is not None and rep.window_sup <= Fraction(1, 2)
    assert rep.max_deviation is not None and rep.max_deviation < 0.02


@settings(max_examples=80)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=60), st.data(),
       st.floats(-2.0, 2.0))
def test_frequency_report_deviation_is_rounded_once(letters, data, target):
    w = Word.from_indices(binary_alphabet(), letters)
    window = data.draw(st.none() | st.integers(1, len(w)), label="window")
    rep = frequency_report(w, "b", window=window, target=target)
    freqs = [rep.global_frequency] + ([rep.window_sup] if window else [])
    # the deviation to 2000 bits, far closer than any rounding tie of a
    # denominator <= 60; unary + then rounds it to nearest at 53 bits
    with mpmath.workprec(2000):
        exact = max(abs(mpmath.mpf(q.numerator) / q.denominator - mpmath.mpf(target))
                    for q in freqs)
    with mpmath.workprec(53):
        assert rep.max_deviation == float(+exact)


@pytest.mark.parametrize("target", (float("nan"), float("inf"), float("-inf")))
def test_frequency_report_rejects_non_finite_target(target):
    w = Word.from_string("abab", binary_alphabet())
    with pytest.raises(DomainError, match="finite"):
        frequency_report(w, "a", window=2, target=target)


def test_fibonacci_letter_counts_are_fibonacci_numbers():
    # on a prefix of length F(n), the rare letter appears F(n-2) times
    w = fixed_point_prefix(fibonacci_morphism(), "a", 6765)
    assert w.count("b") == 2584
    assert w.count("a") == 4181


def test_balance_check_on_fibonacci_prefix():
    w = fixed_point_prefix(fibonacci_morphism(), "a", 20_000)
    report = balance_check(w, "b", RARE_LETTER_TARGET, range(5, 200))
    assert report.within_bound()
    assert report.worst_n in range(5, 200)
    # deviations shrink roughly like 1/n, so the scaled worst is close to 1
    assert 0 < report.worst_deviation <= 1.0 / report.worst_n


def test_balance_check_flags_unbalanced_words():
    # long runs of each letter: windows of all-a and all-b both exist
    w = Word.from_string("a" * 50 + "b" * 50, binary_alphabet())
    with pytest.raises(BalanceViolation) as info:
        balance_check(w, "b", 0.5, [10])
    err = info.value
    assert err.n == 10
    assert err.deviation == pytest.approx(0.5)
    assert err.bound == pytest.approx(0.1)


def test_balance_check_is_exact_at_the_bound():
    """On Thue-Morse some windows sit exactly on |count - n/2| = 1.

    In floats, 0.5 - 2/6 rounds one ulp above 1/6, which used to raise a
    false BalanceViolation at n = 6.
    """
    w = fixed_point_prefix(thue_morse_morphism(), "0", 10_000)
    report = balance_check(w, "0", 0.5, range(1, 201))
    assert report.within_bound()
    assert [n for n, _, _ in report.rows] == list(range(1, 201))
    data = w.data
    for n, dev, pos in report.rows:
        count = data[pos : pos + n].count(0)
        assert dev == float(abs(Fraction(count, n) - Fraction(1, 2)))   # correctly rounded
        assert dev <= 1.0 / n
    assert any(dev == 1.0 / n for n, dev, _ in report.rows if n % 2 == 0)
    with pytest.raises(BalanceViolation):
        balance_check(w, "0", 0.5 + 2.0 ** -40, range(1, 201))


def balance_rows_int64(data, s, target, ns):
    """balance_check's rows with every window counted from int64 prefix sums."""
    prefix = numpy.concatenate(([0], numpy.cumsum(numpy.frombuffer(data, numpy.uint8) == s)))
    exact = Fraction(target)
    rows = []
    for n in ns:
        counts = prefix[n:] - prefix[:-n]
        hi, lo = int(numpy.argmax(counts)), int(numpy.argmin(counts))
        above = Fraction(int(counts[hi]), n) - exact
        below = exact - Fraction(int(counts[lo]), n)
        dev, pos = (above, hi) if above >= below else (below, lo)
        rows.append((n, float(dev), pos))
    return tuple(rows)


@pytest.mark.parametrize("word, symbol, target", [
    (lambda n: Word.from_string("a" * n, Alphabet("a")), "a", 1.0),
    (lambda n: fixed_point_prefix(fibonacci_morphism(), "a", n), "b", RARE_LETTER_TARGET),
], ids=["unary", "fibonacci"])
def test_balance_check_across_the_16_bit_window_length(word, symbol, target):
    # windows below 2^16 symbols are counted from uint16 sums mod 2^16; at 2^16
    # a unary window would wrap to 0 there, so longer ones keep int32
    w = word(200_000)
    ns = [2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1]
    report = balance_check(w, symbol, target, ns)
    assert report.rows == balance_rows_int64(w.data, w.alphabet.index(symbol), target, ns)
    for n in ns:
        assert balance_check(w, symbol, target, [n]).rows == report.rows[ns.index(n):][:1]


def test_balance_check_argument_validation():
    w = Word.from_string("abab", binary_alphabet())
    with pytest.raises(DomainError):
        balance_check(w, "a", 0.5, [])
    with pytest.raises(DomainError):
        balance_check(w, "a", 0.5, [0])
    with pytest.raises(DomainError):
        balance_check(w, "a", 0.5, [5])
    with pytest.raises(DomainError):
        balance_check(w, "a", float("nan"), [2])


def test_balance_check_refuses_a_huge_range_before_storing_it():
    # the check reads n by n and keeps at most len(w) values, not 10^9
    w = fixed_point_prefix(fibonacci_morphism(), "a", 100)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(DomainError, match=r"window lengths must lie in 1\.\.100"):
            balance_check(w, "b", 0.38, range(1, 10 ** 9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.1 and peak < 2 ** 20


def test_golden_density_ratios():
    ratios = golden_density(10)
    assert ratios[0] == Fraction(1, 1)
    assert ratios[1] == Fraction(1, 2)
    assert ratios[9] == Fraction(55, 89)
    assert ratios == [fibonacci_ratio(n) for n in range(1, 11)]


def test_golden_ratios_alternate_around_the_limit():
    ratios = golden_density(12)
    target = (math.sqrt(5) - 1) / 2
    signs = [1 if float(r) > target else -1 for r in ratios]
    assert signs == [(-1) ** i for i in range(12)]


def test_golden_deviation_certificate():
    assert golden_deviation_below(fibonacci_ratio(40), Fraction(1, 10 ** 15))
    assert not golden_deviation_below(fibonacci_ratio(10), Fraction(1, 10 ** 15))
    # the certificate is two-sided: a value clearly off must fail
    assert not golden_deviation_below(Fraction(1, 2), Fraction(1, 100))
    assert golden_deviation_below(Fraction(1, 2), Fraction(1, 4))


def test_golden_deviation_rounds_to_the_nearest_float():
    with mpmath.workdps(200):
        target = (mpmath.sqrt(5) - 1) / 2
        for n, r in enumerate(golden_density(300), start=1):
            want = float(abs(mpmath.mpf(r.numerator) / r.denominator - target))
            assert float(golden_deviation(r)) == want, n


def test_golden_deviation_magnitude():
    dev10 = golden_deviation(fibonacci_ratio(10))
    dev20 = golden_deviation(fibonacci_ratio(20))
    assert dev20 < dev10 < Fraction(1, 1000)
    # compare against the float computation loosely
    assert float(dev10) == pytest.approx(abs(float(fibonacci_ratio(10)) - (GOLDEN_RATIO - 1)), abs=1e-12)


def test_rare_letter_target_is_inverse_golden_squared():
    assert RARE_LETTER_TARGET == pytest.approx(1 / GOLDEN_RATIO ** 2, abs=1e-15)
    assert RARE_LETTER_TARGET == pytest.approx(2 - GOLDEN_RATIO, abs=1e-15)


# ---------------------------------------------------------------------------
# Perron data


def test_perron_known_values():
    assert perron_eigenvalue(2).rho == pytest.approx(GOLDEN_RATIO, abs=1e-12)
    assert perron_eigenvalue(3).rho == 1.8392867552141612


def mbonacci_poly(m, x):
    return x ** m - sum(x ** i for i in range(m))


def mpmath_root(m):
    # the bracketing solver keeps the root in (1, 2)
    root = mpmath.findroot(lambda x: mbonacci_poly(m, x), (1, 2), solver="anderson")
    assert 1 < root < 2
    return root


@pytest.mark.parametrize("m", range(2, 36))
def test_perron_rho_is_correctly_rounded(m):
    with mpmath.workdps(50):  # float() of an mpf rounds to nearest
        assert perron_eigenvalue(m).rho == float(mpmath_root(m))


@pytest.mark.parametrize("m", range(2, 36))
def test_perron_frequencies_are_within_one_ulp(m):
    with mpmath.workdps(50):
        root = mpmath_root(m)
        for i, f in enumerate(perron_eigenvalue(m).frequencies, start=1):
            assert abs(f - root ** -i) <= math.ulp(f), i


@pytest.mark.parametrize("m", range(2, 36))
def test_perron_data_is_exact(m):
    data = perron_eigenvalue(m)
    lo, hi = data.bracket
    assert hi - lo == Fraction(1, 2 ** 60)
    assert mbonacci_poly(m, lo) < 0 < mbonacci_poly(m, hi)
    assert data.rho == float(lo)
    assert data.poly_residual == float(abs(mbonacci_poly(m, Fraction(data.rho))))
    assert data.frequency_sum_error == float(abs(sum(map(Fraction, data.frequencies)) - 1))
    assert len(data.conjugate_moduli) == m - 1
    assert all(0 < c < 1 for c in data.conjugate_moduli)


@pytest.mark.parametrize("m", range(2, 9))
def test_perron_data_quality(m):
    data = perron_eigenvalue(m)
    assert data.poly_residual < 1e-10
    assert data.frequency_sum_error < 1e-10
    assert data.pisot
    assert 1 < data.rho < 2
    assert len(data.frequencies) == m
    assert len(data.conjugate_moduli) == m - 1
    assert all(0 < c < 1 for c in data.conjugate_moduli)
    # frequencies are the descending powers rho^-1 .. rho^-m
    for i, f in enumerate(data.frequencies, start=1):
        assert f == pytest.approx(data.rho ** -i, rel=1e-12)


def test_perron_rho_increases_with_m():
    rhos = [perron_eigenvalue(m).rho for m in range(2, 9)]
    assert rhos == sorted(rhos)
    assert rhos[-1] < 2


def test_perron_matches_adjacency_matrix():
    """The frequencies are a left eigenvector of the substitution's matrix for rho."""
    for m in (2, 3, 4):
        data = perron_eigenvalue(m)
        matrix = adjacency_matrix(mbonacci_morphism(m))
        for j in range(m):
            image_share = sum(data.frequencies[i] * matrix[i][j] for i in range(m))
            assert image_share == pytest.approx(data.rho * data.frequencies[j], rel=1e-12)


def test_perron_rejects_bad_m():
    with pytest.raises(DomainError):
        perron_eigenvalue(1)


def test_perron_rejects_large_m_before_root_finding(monkeypatch):
    def no_roots(coeffs):
        raise AssertionError("np.roots reached")

    monkeypatch.setattr(numpy, "roots", no_roots)
    for m in (36, 1200):
        with pytest.raises(DomainError, match="between 2 and 35"):
            perron_eigenvalue(m)


def test_tribonacci_prefix_frequencies_approach_perron_data():
    w = fixed_point_prefix(tribonacci_morphism(), "a", 50_000)
    tau = perron_eigenvalue(3).rho
    for i, sym in enumerate("abc", start=1):
        assert float(symbol_frequency(w, sym)) == pytest.approx(tau ** -i, abs=1e-3)


def test_random_word_frequencies_sum_to_one():
    rng = random.Random(21)
    for _ in range(100):
        length = rng.randrange(1, 60)
        w = Word.from_indices(binary_alphabet(), (rng.randrange(2) for _ in range(length)))
        total = symbol_frequency(w, "a") + symbol_frequency(w, "b")
        assert total == 1


@pytest.mark.parametrize("call, message", [pytest.param(*row, id=row[1]) for row in [
    (lambda: golden_density(0), "n_max must be at least 1"),
    (lambda: fibonacci_ratio(0), "n must be at least 1"),
]])
def test_refusals(call, message):
    with pytest.raises(DomainError) as refusal:
        call()
    assert refusal.type is DomainError and str(refusal.value) == message
