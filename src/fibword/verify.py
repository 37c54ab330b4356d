"""End-to-end verification checks with frozen expected values.

Each check recomputes a documented quantity and compares it against either a
published value or an independent oracle coded right here. The CLI `verify`
subcommand and the acceptance test suite both run these.
"""

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    limit: float | None  # wall-clock budget the check is expected to meet


# (prime, density, pisano, restricted, lucas zeros, N, Z)
_DENSITY_TABLE = (
    (7, Fraction(41, 56), 16, 8, (4, 12), 5, 2),
    (13, Fraction(9, 13), 28, 7, (), 9, 0),
    (19, Fraction(441, 760), 18, 18, (9,), 11, 1),
    (31, Fraction(19, 31), 30, 30, (15,), 19, 0),
)

# OEIS A006156: the number of ternary square-free words of length n, n = 0..20.
_TERNARY_SQUARE_FREE = (1, 3, 6, 12, 18, 30, 42, 60, 78, 108, 144, 204, 264,
                        342, 456, 618, 798, 1044, 1392, 1830, 2388)

FACTORIAL_PREFIX_21 = "112624120720504040320"
# First digit budget at which every decimal bigram has appeared in the stream;
# found once by scanning and kept as a regression constant.
BIGRAM_FULL_COVERAGE_DIGITS = 608


def check_modular_density(seed: int = 0) -> str:
    from . import modfib

    parts = []
    for p, dens, per, alpha, zeros, n_count, z_count in _DENSITY_TABLE:
        t0 = time.perf_counter()
        res = modfib.density_formula(p)
        dt = time.perf_counter() - t0
        ctx = res.context
        assert res.density == dens, f"dens({p}) = {res.density}, expected {dens}"
        assert ctx.pisano == per, f"pisano({p}) = {ctx.pisano}, expected {per}"
        assert ctx.restricted == alpha, f"alpha({p}) = {ctx.restricted}, expected {alpha}"
        assert ctx.lucas_zero_indices == zeros, \
            f"lucas zeros({p}) = {ctx.lucas_zero_indices}, expected {zeros}"
        assert (res.n_count, res.z_count) == (n_count, z_count), \
            f"(N, Z)({p}) = {(res.n_count, res.z_count)}, expected {(n_count, z_count)}"
        assert dt < 1.0, f"density_formula({p}) took {dt:.2f}s, budget is 1s"
        parts.append(f"dens({p})={res.density}")
    return ", ".join(parts)


def check_bruteforce_density(seed: int = 0) -> str:
    from . import modfib

    got = modfib.residue_density_bruteforce(19, 1)
    assert got == Fraction(12, 19), f"brute dens(19, 1) = {got}"
    got = modfib.residue_density_bruteforce(19, 2)
    assert got == Fraction(210, 361), f"brute dens(19, 2) = {got}"
    for lam in (1, 2):
        got = modfib.residue_density_bruteforce(13, lam)
        assert got == Fraction(9, 13), f"brute dens(13, {lam}) = {got}, should stabilize"
    return "19: 12/19, 210/361; 13 stabilizes at 9/13"


def check_sturmian_complexity(seed: int = 0) -> str:
    from . import complexity, words

    w = words.fixed_point_prefix(words.fibonacci_morphism(), "a", 20_000)
    profile = complexity.factor_complexity(w, 200)
    bad = [n for n in range(1, 201) if profile.count(n) != n + 1]
    assert not bad, f"factor counts differ from n+1 at n = {bad[:5]}"
    # Sturmian words are rich: a prefix of length L has L palindromic factors
    rich = words.fixed_point_prefix(words.fibonacci_morphism(), "a", 100_000)
    pal = complexity.palindromic_factor_count(rich)
    assert pal == len(rich), f"{pal} palindromic factors in a {len(rich)}-symbol prefix"
    return ("factor complexity is n+1 for 1 <= n <= 200 on a 20000-symbol prefix; "
            "a 100000-symbol prefix has 100000 palindromic factors")


def check_balance_bound(seed: int = 0) -> str:
    from . import density, words

    w = words.fixed_point_prefix(words.fibonacci_morphism(), "a", 100_000)
    report = density.balance_check(w, "b", density.RARE_LETTER_TARGET, range(10, 1001))
    margin = min(1.0 / n - dev for n, dev, _ in report.rows)
    return (f"all window deviations within 1/n; worst n={report.worst_n} "
            f"dev={report.worst_deviation:.3e}, min slack {margin:.2e}")


def check_golden_density(seed: int = 0) -> str:
    from . import density

    d = density.fibonacci_ratio(40)
    assert density.golden_deviation_below(d, Fraction(1, 10**15)), \
        f"|F(40)/F(41) - (phi-1)| not certified below 1e-15 for {d}"
    approx = float(density.golden_deviation(d))
    return f"|F(40)/F(41) - (phi - 1)| ~ {approx:.2e} < 1e-15 (exact certificate)"


def check_perron_data(seed: int = 0) -> str:
    from . import density, words

    for m in range(2, 9):
        data = density.perron_eigenvalue(m)
        lo, hi = data.bracket
        p = [x ** m - sum(x ** i for i in range(m)) for x in (lo, hi)]
        assert p[0] < 0 < p[1], f"m={m}: p does not change sign on {lo}..{hi}"
        assert data.poly_residual < 1e-10, f"m={m}: |p(rho)| = {data.poly_residual}"
        assert data.frequency_sum_error < 1e-10, \
            f"m={m}: frequency sum off by {data.frequency_sum_error}"
        # the frequencies are a left eigenvector of the substitution matrix
        freqs, matrix = data.frequencies, words.adjacency_matrix(words.mbonacci_morphism(m))
        resid = max(abs(sum(freqs[i] * matrix[i][j] for i in range(m)) - data.rho * freqs[j])
                    for j in range(m))
        assert resid < 1e-9, f"m={m}: eigen residual {resid}"
        assert data.pisot and max(data.conjugate_moduli) < 1, f"m={m}: not Pisot"
    rho3 = density.perron_eigenvalue(3).rho
    assert rho3 == 1.8392867552141612, f"rho_3 = {rho3!r}"
    return f"m = 2..8 all pass; rho_3 = {rho3:.10f}"


def check_tribonacci_frequencies(seed: int = 0) -> str:
    from . import density, words

    w = words.fixed_point_prefix(words.tribonacci_morphism(), "a", 100_000)
    tau = density.perron_eigenvalue(3).rho
    worst = 0.0
    for i, sym in enumerate("abc"):
        freq = float(density.symbol_frequency(w, sym))
        diff = abs(freq - tau ** -(i + 1))
        worst = max(worst, diff)
        assert diff <= 1e-3, f"freq({sym}) = {freq}, off by {diff}"
    return f"frequencies match 1/tau, 1/tau^2, 1/tau^3; worst diff {worst:.2e}"


def _has_square_naive(t: tuple) -> bool:
    for h in range(1, len(t) // 2 + 1):
        for i in range(len(t) - 2 * h + 1):
            if t[i : i + h] == t[i + h : i + 2 * h]:
                return True
    return False


def check_square_free_census(seed: int = 0) -> str:
    from . import complexity

    counts = complexity.square_free_census(3, 20).counts
    assert len(counts) == len(_TERNARY_SQUARE_FREE), \
        f"census stopped at n = {len(counts) - 1}, expected n = 20"
    # The published table comes first: a wrong count fails here, by name,
    # before the slow filter runs.
    for n, (a_n, published) in enumerate(zip(counts, _TERNARY_SQUARE_FREE)):
        assert a_n == published, \
            f"a({n}) = {a_n} from the census, A006156 gives {published}"
    for n in range(1, 13):
        filtered = sum(
            1 for t in itertools.product(range(3), repeat=n) if not _has_square_naive(t)
        )
        assert counts[n] == filtered, \
            f"a({n}) = {counts[n]} from the level walk, {filtered} from the filter"
    for n in range(3, 21):
        lower = 6 * 1.032 ** n
        assert counts[n] >= lower, f"a({n}) = {counts[n]} < 6*1.032^{n} = {lower:.2f}"
    # Every prefix and suffix of a square-free word is square-free, so a word
    # of length m + n is fixed by two square-free words of lengths m and n.
    for total in range(2, 21):
        for m in range(1, total):
            n = total - m
            assert counts[total] <= counts[m] * counts[n], \
                (f"a({total}) = {counts[total]} > a({m})*a({n}) = "
                 f"{counts[m] * counts[n]}")
    binary = sorted(str(w) for w in complexity.square_free_words(2))
    assert binary == ["a", "ab", "aba", "b", "ba", "bab"], binary
    return (f"ternary counts equal A006156 for n=0..20 (a(20)={counts[20]}) and the "
            f"exhaustive filter to n=12; 6*1.032^n <= a(n) for n=3..20 and "
            f"a(m+n) <= a(m)*a(n) for m+n <= 20; binary census is the six words")


def check_factorial_word(seed: int = 0) -> str:
    from . import factorial_word

    prefix = factorial_word.factorial_word_prefix(10, 21)
    assert str(prefix) == FACTORIAL_PREFIX_21, str(prefix)
    budget = BIGRAM_FULL_COVERAGE_DIGITS
    report = factorial_word.coverage_profile(10, 2, budget)
    assert report.complete, f"only {report.found}/100 bigrams at the frozen budget"
    one_less = factorial_word.coverage_profile(10, 2, budget - 1)
    assert one_less.found == 99, \
        f"budget minus one should miss exactly one bigram, found {one_less.found}"
    first = {f"{i:02d}": factorial_word.factor_search(10, f"{i:02d}", budget)
             for i in range(100)}
    assert None not in first.values(), "the search misses a bigram the coverage saw"
    latest = max(first, key=first.get)
    assert first[latest] + 2 == budget, f"the last bigram ends at digit {first[latest] + 2}"
    return (f"21-digit prefix matches; all 100 bigrams appear within {budget} "
            f"digits, the last ({latest!r}) ending at digit {budget}")


def check_delta_palindromes(seed: int = 0) -> str:
    from . import complexity, words

    rng = random.Random(seed)
    ternary = words.ternary_alphabet()
    worst_ratio = None
    for _ in range(10_000):
        length = rng.randrange(0, 13)
        w = words.Word.from_indices(ternary, (rng.randrange(3) for _ in range(length)))
        assert complexity.delta_factorize(complexity.delta_apply(w)) == w, \
            f"round trip failed on {w}"
        if length:
            pf = complexity.palindromic_factor_count(w)
            sp = complexity.scattered_palindrome_count(w)
            assert pf <= sp, f"{w}: {pf} palindromic factors but {sp} scattered"
            if worst_ratio is None or pf / sp > worst_ratio:
                worst_ratio = pf / sp
    return (f"10^4 random words: factorization inverts the block code and "
            f"factor palindromes <= scattered palindromes (max ratio {worst_ratio:.2f})")


def _arith_oracle(data: bytes, n: int) -> int:
    if n == 1:
        return len(set(data))
    L = len(data)
    seen = set()
    for i in range(L):
        for d in range(1, L):
            if i + (n - 1) * d >= L:
                break
            seen.add(tuple(data[i + t * d] for t in range(n)))
    return len(seen)


def check_sandwich_bounds(seed: int = 0) -> str:
    from . import complexity, words

    rng = random.Random(seed)
    for trial in range(500):
        k = rng.choice((2, 3))
        length = rng.randrange(1, 13)
        alpha = words.binary_alphabet() if k == 2 else words.ternary_alphabet()
        w = words.Word.from_indices(alpha, (rng.randrange(k) for _ in range(length)))
        factor = complexity.factor_complexity(w, length)
        arith = complexity.arithmetic_complexity(w, length)
        for n in range(1, length + 1):
            p_n = factor.count(n)
            a_n = arith.count(n)
            oracle_p = len({w.data[i : i + n] for i in range(length - n + 1)})
            oracle_a = _arith_oracle(w.data, n)
            assert p_n == oracle_p, f"{w}: p({n}) = {p_n}, oracle {oracle_p}"
            assert a_n == oracle_a, f"{w}: a({n}) = {a_n}, oracle {oracle_a}"
            assert 1 <= p_n <= a_n <= k ** n, \
                f"{w}: sandwich broken at n={n}: 1 <= {p_n} <= {a_n} <= {k ** n}"
    return "500 random words: profiles equal exhaustive oracles and 1 <= p <= a <= k^n"


# name -> (function, wall-clock limit in seconds or None)
CHECKS = {
    "modular-density": (check_modular_density, 4.0),
    "bruteforce-density": (check_bruteforce_density, 10.0),
    "sturmian-complexity": (check_sturmian_complexity, 5.0),
    "balance-bound": (check_balance_bound, 30.0),
    "golden-density": (check_golden_density, None),
    "perron-data": (check_perron_data, 1.0),
    "tribonacci-frequencies": (check_tribonacci_frequencies, 5.0),
    "square-free-census": (check_square_free_census, 60.0),
    "factorial-word": (check_factorial_word, 60.0),
    "delta-palindromes": (check_delta_palindromes, 10.0),
    "sandwich-bounds": (check_sandwich_bounds, 30.0),
}


def run_check(name: str, seed: int = 0) -> CheckResult:
    func, limit = CHECKS[name]
    t0 = time.perf_counter()
    try:
        detail = func(seed)
        passed = True
    except AssertionError as exc:
        detail = str(exc) or "assertion failed"
        passed = False
    seconds = time.perf_counter() - t0
    if passed and limit is not None and seconds > limit:
        passed = False
        detail += f" [exceeded {limit:.0f}s budget: took {seconds:.1f}s]"
    return CheckResult(name, passed, detail, seconds, limit)


def run_checks(names=None, seed: int = 0) -> list[CheckResult]:
    return [run_check(name, seed) for name in (CHECKS if names is None else names)]
