import random
import time
import tracemalloc
from fractions import Fraction
from functools import partial
from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibword import (
    BudgetError,
    DensityResult,
    DomainError,
    PrimeContext,
    bruteforce_trace,
    cli,
    density_formula,
    fib,
    fib_mod,
    fib_pair,
    fib_pair_mod,
    is_prime,
    lucas,
    lucas_zeros,
    modfib,
    pisano_period,
    prime_context,
    residue_density_bruteforce,
    restricted_period,
)


def fib_iterative(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# ---------------------------------------------------------------------------
# oracles: the period walks and the trial division the library used to run


def lucas_mod(n, m):
    """L(n) mod m = 2 F(n+1) - F(n) mod m, from fast doubling mod m."""
    a, b = fib_pair_mod(n, m)
    return (2 * b - a) % m


def pisano_walk(m):
    """First return of (F(k), F(k+1)) mod m to (0, 1)."""
    a, b, k = 0, 1, 0
    while True:
        a, b = b, (a + b) % m
        k += 1
        if a == 0 and b == 1:
            return k


def rank_walk(m):
    """First k >= 1 with F(k) = 0 mod m."""
    a, b, k = 1, 1, 1  # F(1), F(2)
    while a != 0:
        a, b = b, (a + b) % m
        k += 1
    return k


def lucas_zeros_walk(p):
    """The i in one Pisano period with L(i) = 0 mod p."""
    zeros = []
    a, b = 2 % p, 1 % p  # L(0), L(1)
    for i in range(pisano_walk(p)):
        if a == 0:
            zeros.append(i)
        a, b = b, (a + b) % p
    return tuple(zeros)


def is_prime_trial(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    return all(n % d for d in range(3, isqrt(n) + 1, 2))


def valuation_of_f(p, eps):
    """The largest e with p^e | F(p - eps), from residues mod p^k."""
    e = 0
    while fib_mod(p - eps, p ** (e + 1)) == 0:
        e += 1
    return e


def density_walk(p, e=None):
    """density_formula by one set-based pass over a walked Pisano period.

    Returns the result and the set of residues F(i) mod p^e at the indices
    with L(i) != 0 mod p. e defaults to the valuation read off the exact
    F(p - eps); pass it for primes too large for that.
    """
    eps = 1 if p % 5 in (1, 4) else -1
    if e is None:
        target, e = fib(p - eps), 0
        while target % p == 0:
            target //= p
            e += 1
    period, pe = pisano_walk(p), p ** e
    fa, fb = 0, 1 % pe           # F(i), F(i+1) mod p^e
    la, lb = 2 % p, 1 % p        # L(i), L(i+1) mod p
    nonzero, zeros, zero_entries = set(), [], []
    for i in range(period):
        if la == 0:
            zeros.append(i)
            zero_entries.append(fa)
        else:
            nonzero.add(fa)
        fa, fb = fb, (fa + fb) % pe
        la, lb = lb, (la + lb) % p
    ctx = PrimeContext(p, eps, e, period, rank_walk(p), tuple(zeros))
    outside = [r for r in zero_entries if r not in nonzero]
    z = len(outside)
    return DensityResult(
        context=ctx,
        outside_zero_residues=tuple(sorted(set(outside))),
        n_count=len(nonzero),
        z_count=z,
        density=Fraction(len(nonzero), pe) + Fraction(z, 2 * p ** (2 * e - 1) * (p + 1)),
        shared_outside_residue=len(set(outside)) < z,
    ), nonzero


PRIMES_BELOW_3000 = [p for p in range(3000) if is_prime_trial(p)]


def test_fib_matches_iteration():
    for n in range(0, 300):
        assert fib(n) == fib_iterative(n)


def test_fib_pair_consistency():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(0, 10_000)
        f_n, f_n1 = fib_pair(n)
        assert f_n1 == fib(n + 1)
        assert f_n == fib(n)


def test_fib_large_value_spot_check():
    # F(100) is a classic table value
    assert fib(100) == 354224848179261915075


def test_lucas_values():
    assert [lucas(n) for n in range(10)] == [2, 1, 3, 4, 7, 11, 18, 29, 47, 76]
    # L(n) = F(n-1) + F(n+1)
    for n in range(1, 50):
        assert lucas(n) == fib(n - 1) + fib(n + 1)


def test_fib_mod_agrees_with_exact():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randrange(0, 2000)
        m = rng.randrange(2, 1000)
        assert fib_mod(n, m) == fib(n) % m
        assert lucas_mod(n, m) == lucas(n) % m


def test_pisano_small_values():
    # periods for m = 2..10
    known = {2: 3, 3: 8, 4: 6, 5: 20, 6: 24, 7: 16, 8: 12, 9: 24, 10: 60}
    for m, pi in known.items():
        assert pisano_period(m) == pi
    with pytest.raises(DomainError):
        pisano_period(1)


def test_pisano_is_a_period():
    rng = random.Random(7)
    for m in (2, 3, 7, 10, 13, 50):
        pi = pisano_period(m)
        for _ in range(20):
            n = rng.randrange(0, 5000)
            assert fib_mod(n + pi, m) == fib_mod(n, m)


def test_restricted_period_values():
    assert restricted_period(7) == 8
    assert restricted_period(13) == 7
    assert restricted_period(19) == 18
    assert restricted_period(31) == 30
    # alpha(m) is the first positive index with F(i) = 0 mod m
    for m in (7, 13, 19, 31):
        alpha = restricted_period(m)
        assert fib_mod(alpha, m) == 0
        assert all(fib_mod(i, m) != 0 for i in range(1, alpha))


def test_restricted_divides_pisano():
    """alpha(p) | pi(p) for every odd prime below 10^4."""
    for p in range(3, 10_000):
        if not is_prime(p):
            continue
        assert pisano_period(p) % restricted_period(p) == 0


def test_lucas_zeros_examples():
    assert lucas_zeros(7) == (4, 12)
    assert lucas_zeros(13) == ()
    assert lucas_zeros(19) == (9,)
    assert lucas_zeros(31) == (15,)


def test_lucas_zeros_are_zeros():
    for p in (7, 19, 31, 41):
        for i in lucas_zeros(p):
            assert lucas_mod(i, p) == 0


def test_is_prime():
    primes = [2, 3, 5, 7, 11, 13, 97, 7919]
    composites = [0, 1, 4, 9, 91, 1001]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


# ---------------------------------------------------------------------------
# the density formula


def test_prime_context_fields():
    ctx = prime_context(7)
    assert (ctx.prime, ctx.eps, ctx.e) == (7, -1, 1)
    assert ctx.pisano == 16 and ctx.restricted == 8
    assert ctx.lucas_zero_indices == (4, 12)
    ctx = prime_context(11)
    assert ctx.eps == 1  # 11 = 1 mod 5


def test_prime_context_rejects_bad_primes():
    with pytest.raises(DomainError):
        prime_context(12)
    with pytest.raises(DomainError):
        prime_context(2)
    with pytest.raises(DomainError):
        prime_context(5)


# the four worked examples, frozen: (p, dens, N, Z)
DENSITY_CASES = [
    (7, Fraction(41, 56), 5, 2),
    (13, Fraction(9, 13), 9, 0),
    (19, Fraction(441, 760), 11, 1),
    (31, Fraction(19, 31), 19, 0),
]


@pytest.mark.parametrize("p,dens,n_count,z_count", DENSITY_CASES)
def test_density_formula_examples(p, dens, n_count, z_count):
    res = density_formula(p)
    assert res.density == dens
    assert res.n_count == n_count
    assert res.z_count == z_count
    # the two residue families never overlap
    _, nonzero = density_walk(p)
    assert len(nonzero) == n_count
    assert not (nonzero & set(res.outside_zero_residues))


def test_density_formula_memory():
    """The residues stay in numpy arrays: no Python int per residue."""
    density_formula(7)   # imports and first-call allocations stay outside
    tracemalloc.start()
    try:
        density_formula(1_999_993)   # N = 1 499 569 residues
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


def test_density_formula_structure():
    res = density_formula(7)
    ctx = res.context
    # reassemble the closed form from its ingredients
    pe = ctx.prime ** ctx.e
    expected = (Fraction(res.n_count, pe)
                + Fraction(res.z_count, 2 * ctx.prime ** (2 * ctx.e - 1) * (ctx.prime + 1)))
    assert res.density == expected
    assert 0 < res.density <= 1


def test_density_formula_many_primes_are_sane():
    for p in (3, 11, 23, 29, 37, 41, 43, 47):
        res = density_formula(p)
        assert 0 < res.density <= 1
        assert res.n_count >= 1


# ---------------------------------------------------------------------------
# brute force cross-checks


def test_bruteforce_known_values():
    assert residue_density_bruteforce(19, 1) == Fraction(12, 19)
    assert residue_density_bruteforce(19, 2) == Fraction(210, 361)
    assert residue_density_bruteforce(7, 1) == Fraction(1)
    assert residue_density_bruteforce(7, 2) == Fraction(37, 49)
    assert residue_density_bruteforce(7, 3) == Fraction(253, 343)
    assert residue_density_bruteforce(19, 0) == Fraction(1)


def test_bruteforce_trace_is_monotone_and_bounded():
    for p in (7, 13, 19):
        trace = bruteforce_trace(p, 3)
        limit = density_formula(p).density
        assert all(a >= b for a, b in zip(trace, trace[1:]))
        assert all(t >= limit for t in trace)


def test_zero_z_primes_stabilize_immediately():
    # when Z = 0 the density is exactly N / p^e from lambda = e onwards
    for p in (13, 31):
        res = density_formula(p)
        assert res.z_count == 0
        assert res.context.e == 1
        for lam in (1, 2):
            assert residue_density_bruteforce(p, lam) == res.density


def test_bruteforce_tail_bound():
    """Empirically the brute force approaches the limit like p^-lambda."""
    p = 19
    limit = density_formula(p).density
    trace = bruteforce_trace(p, 4)
    for lam in range(1, 5):
        gap = trace[lam] - limit
        assert 0 <= gap <= Fraction(3, p ** lam)


def test_bruteforce_budget(monkeypatch):
    with pytest.raises(BudgetError):
        residue_density_bruteforce(19, 9)
    # the modulus is charged before p^lambda is built: 19^5000 has 6394 digits,
    # more than str() converts by default, and 19^(3 10^6) takes seconds to build
    for lam in (5000, 3 * 10 ** 6):
        start = time.perf_counter()
        with pytest.raises(BudgetError, match=rf"p\^lambda = 19\^{lam} exceeds"):
            residue_density_bruteforce(19, lam)
        assert time.perf_counter() - start < 1
    # the environment overrides the default
    monkeypatch.setenv("FIBWORD_MODULUS_LIMIT", "100")
    with pytest.raises(BudgetError):
        residue_density_bruteforce(19, 2)


def test_bruteforce_rejects_bad_input():
    with pytest.raises(DomainError):
        residue_density_bruteforce(12, 1)
    with pytest.raises(DomainError):
        bruteforce_trace(19, -1)


# ---------------------------------------------------------------------------
# the fast paths against the walk oracles


def test_periods_match_walks_below_3000():
    for m in range(2, 3000):
        assert pisano_period(m) == pisano_walk(m), m
        assert restricted_period(m) == rank_walk(m), m


@settings(max_examples=20)
@given(st.integers(2, 10 ** 6))
def test_periods_match_walks_property(m):
    assert pisano_period(m) == pisano_walk(m)
    assert restricted_period(m) == rank_walk(m)


def test_lucas_zeros_and_density_match_walks_for_primes_below_3000():
    for p in PRIMES_BELOW_3000:
        if p in (2, 5):
            assert lucas_zeros(p) == lucas_zeros_walk(p)
        else:
            want, _ = density_walk(p)   # its context holds the walked Lucas zeros
            assert lucas_zeros(p) == want.context.lucas_zero_indices, p
            assert density_formula(p) == want, p


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([p for p in PRIMES_BELOW_3000 if p not in (2, 5)]),
       st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 300)), max_size=4))
def test_object_walk_matches_numpy_walk(p, drawn):
    """Moduli too large for uint64 blocks walk object arrays; force that walk here,
    then walk fixed and drawn segments in blocks of 64 against fib_mod, mod one
    modulus in each block regime: uint64 viewed as int64, object converted to int64
    past _NUMPY_MODULUS, object past 2^63. Every segment, empty ones included,
    shifts the same base block, and every block starts from fast doubling."""
    want = density_formula(p), residue_density_bruteforce(p, 1)
    original = modfib._NUMPY_MODULUS, modfib._BLOCK
    modfib._NUMPY_MODULUS = 1
    try:
        assert (density_formula(p), residue_density_bruteforce(p, 1)) == want
        modfib._NUMPY_MODULUS, modfib._BLOCK = original[0], 64
        start = p ** 3
        fixed = [(0, 0), (start, 200), (p, 0), (start + p, 70), (p, 64), (3 * p, 1)]
        moduli = original[0] - p, 2 ** 63 - p, 2 ** 64 + p
        assert moduli[0] <= original[0] < moduli[1] <= 2 ** 63 < moduli[2]
        for m, dtype in zip(moduli, (np.int64, np.int64, object)):
            for segments in (fixed, drawn):
                blocks = list(modfib._fib_blocks(m, segments))
                assert all(block.dtype == dtype for block in blocks)
                assert [int(v) for block in blocks for v in block] == \
                    [fib_mod(i, m) for first, steps in segments
                     for i in range(first, first + steps)]
            assert [len(block) for block in modfib._fib_blocks(m, fixed)] == \
                [64, 64, 64, 8, 64, 6, 64, 1]
            assert list(modfib._fib_blocks(m, [(start, 0), (p, 0)])) == []
    finally:
        modfib._NUMPY_MODULUS, modfib._BLOCK = original


def assert_bruteforce_matches_walk(p, lam):
    """The library walks the period pisano_period gives; the oracle walks to the
    first return of F mod p^lam to (0, 1) and uses no period finder."""
    m = p ** lam
    seen, a, b = set(), 0, 1
    for _ in range(pisano_walk(m)):
        seen.add(a)
        a, b = b, (a + b) % m
    assert residue_density_bruteforce(p, lam) == Fraction(len(seen), m)


@pytest.mark.parametrize("p,lam", [(2, 5), (3, 4), (7, 3), (19, 2), (101, 2), (211, 2)])
def test_bruteforce_matches_walk(p, lam):
    assert_bruteforce_matches_walk(p, lam)


@pytest.mark.parametrize("p,lam", [(1597, 1), (1597, 2), (28657, 1), (514229, 1)])
def test_bruteforce_matches_walk_on_sparse_residue_sets(p, lam):
    # Fibonacci primes have short periods: p^lam > 8 pi(p^lam), so the residues
    # are counted as sorted values, not in a bitmap of p^lam cells
    assert p ** lam > 8 * pisano_walk(p ** lam)
    assert_bruteforce_matches_walk(p, lam)


# 2^17 <= 2 10^5 < 2^18, so no prime power in range has an exponent past 17
PRIME_POWERS_TO_2E5 = [(p, lam) for p in PRIMES_BELOW_3000
                       for lam in range(1, 18) if p ** lam <= 2 * 10 ** 5]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(PRIME_POWERS_TO_2E5))
def test_bruteforce_matches_walk_property(power):
    assert_bruteforce_matches_walk(*power)


# Fibonacci primes F(47), F(83), F(131) and Lucas primes L(41), L(47), L(113):
# huge p with short periods. Their residue sets are sparse in p, the last
# four exceed the uint64 block bound, and F(131) and L(113) exceed 2^63.
SHORT_PERIOD_PRIMES = [fib(47), fib(83), fib(131), lucas(41), lucas(47), lucas(113)]


@pytest.mark.parametrize("p", SHORT_PERIOD_PRIMES)
def test_density_for_huge_primes_with_short_periods(p):
    assert is_prime(p)
    eps = 1 if p % 5 in (1, 4) else -1
    assert density_formula(p) == density_walk(p, e=valuation_of_f(p, eps))[0]


def test_is_prime_matches_trial_division():
    assert [is_prime(n) for n in range(20_001)] == [is_prime_trial(n) for n in range(20_001)]


@settings(max_examples=200)
@given(st.integers(0, 10 ** 10))
def test_is_prime_property(n):
    assert is_prime(n) == is_prime_trial(n)


@pytest.mark.parametrize("n", [
    3215031751,            # strong pseudoprime to the bases 2, 3, 5, 7
    3825123056546413051,   # strong pseudoprime to every prime base up to 31
    318665857834031151167461,  # to every one up to 37; base 41 rejects it
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,  # Carmichael numbers
    (2 ** 31 - 1) * (2 ** 61 - 1),
])
def test_is_prime_rejects_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_accepts_large_primes():
    for p in (2 ** 31 - 1, 2 ** 61 - 1, 2 ** 89 - 1, 10 ** 9 + 7, 10 ** 18 + 9):
        assert is_prime(p)


def prime_divisors(n):
    """The primes of n, by the library's factoring, checked to multiply back to n."""
    factors = modfib._factor(n)
    assert prod(q ** k for q, k in factors.items()) == n
    assert all(is_prime(q) for q in factors)
    return list(factors)


PRIMES_1000_TO_3000 = [p for p in PRIMES_BELOW_3000 if p > 1000]


def test_rho_splits_every_product_of_two_primes_from_1000_to_3000():
    for i, p in enumerate(PRIMES_1000_TO_3000):
        for q in PRIMES_1000_TO_3000[i:]:
            assert modfib._split(p * q) in (p, q), (p, q)


def factor_trial(n):
    """{q: k} of n by trial division."""
    factors, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def test_products_of_three_primes_factor_as_trial_division_says():
    rng = random.Random(3)
    for _ in range(300):
        n = prod(rng.choices(PRIMES_1000_TO_3000, k=3))
        assert modfib._factor(n) == factor_trial(n), n


def test_periods_of_large_composites():
    """Prime squares, a semiprime and 2^64 need the rho and root factoring.

    Each period and rank is certified least: no prime may be divided out of
    either. The moduli cover the three ratios pi/alpha = 1, 2 and 4.
    """
    ratios = set()
    for m in ((10 ** 9 + 7) ** 2, (10 ** 9 + 7) * (10 ** 9 + 9), 2 ** 64, 10 ** 12,
              (2 ** 61 - 1) ** 2, 11 * (2 ** 61 - 1), 13 ** 8 * 17 ** 3, 61 ** 10):
        period, alpha = pisano_period(m), restricted_period(m)
        assert fib_pair_mod(period, m) == (0, 1)
        assert period % alpha == 0 and fib_mod(alpha, m) == 0
        assert all(fib_mod(alpha // q, m) != 0 for q in prime_divisors(alpha)), m
        assert all(fib_pair_mod(period // q, m) != (0, 1) for q in prime_divisors(period)), m
        ratios.add(period // alpha)
    assert ratios == {1, 2, 4}
    assert pisano_period(2 ** 64) == 3 * 2 ** 63
    assert pisano_period(10 ** 12) == 1_500_000_000_000
    assert restricted_period(10 ** 12) == 750_000_000_000


@pytest.mark.parametrize("call, arg, powers", [
    (pisano_period, 10 ** 12, [(2, 12), (5, 12)]),
    (restricted_period, 13 ** 8 * 17 ** 3, [(13, 8), (17, 3)]),
    (restricted_period, 2 ** 64, [(2, 64)]),
    (lucas_zeros, 7, [(7, 1)]),
    (lucas_zeros, 2, [(2, 1)]),
    (prime_context, 1_000_003, [(1_000_003, 1)]),
    (density_formula, 19, [(19, 1)]),
    (cli.main, ["lucaszeros", "7"], [(7, 1)]),
    (partial(residue_density_bruteforce, 19), 3, [(19, 3)]),
    (partial(bruteforce_trace, 19), 3, [(19, 1), (19, 2), (19, 3)]),
])
def test_one_order_reduction_per_prime_power(monkeypatch, call, arg, powers):
    """The rank and the Lucas zeros are read off the period: every caller
    reduces Wall's multiple once per prime power of its modulus."""
    calls = []
    reduce = modfib._period_multiple

    def spy(q, k):
        calls.append((q, k))
        return reduce(q, k)

    monkeypatch.setattr(modfib, "_period_multiple", spy)
    call(arg)
    assert sorted(calls) == powers


def test_lucas_zeros_rejects_composites():
    for n in (0, 1, 4, 9, 91):
        with pytest.raises(DomainError):
            lucas_zeros(n)
    assert lucas_zeros(2) == (0,)   # L(n) is even exactly when 3 | n
    assert lucas_zeros(5) == ()


def test_density_walk_budget(monkeypatch):
    monkeypatch.setenv("FIBWORD_PERIOD_STEPS", "1000")
    # pi(10007) = 20016 steps, less the two Lucas zeros
    with pytest.raises(BudgetError, match=r"needs 20014 steps.*budget 1000"):
        density_formula(10007)
    assert density_formula(19).n_count == 11


def test_bruteforce_walk_budget(monkeypatch):
    # the period mod 361 is 342, charged in full before the walk
    for limit in (300, 341):
        monkeypatch.setenv("FIBWORD_PERIOD_STEPS", str(limit))
        with pytest.raises(BudgetError, match=rf"mod 19\^2, which needs 342 steps, .* {limit}$"):
            residue_density_bruteforce(19, 2)
    assert residue_density_bruteforce(19, 1) == Fraction(12, 19)
    monkeypatch.setenv("FIBWORD_PERIOD_STEPS", "342")
    assert residue_density_bruteforce(19, 2) == Fraction(210, 361)
