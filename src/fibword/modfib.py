"""Fibonacci and Lucas numbers modulo m: periods, zero sets, residue densities.

Periods come from order reduction: Wall (Amer. Math. Monthly 67, 1960) shows
pi(q^k) divides q^(k-1) pi(q), and pi(q) divides q - 1 or 2(q + 1) for a prime
q != 2, 5. Fast doubling tests each divisor in O(log m) multiplications, and
the rank of apparition is read off the period, so no period is walked. The
only walk is the residue walk behind the densities, in numpy blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

from .budgets import charge, charge_power
from .errors import DomainError


def fib_pair(n: int) -> tuple[int, int]:
    """(F(n), F(n+1)) by fast doubling, exact."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    a, b = 0, 1  # F(0), F(1)
    for bit in bin(n)[2:]:
        c = a * (2 * b - a)          # F(2k)
        d = a * a + b * b            # F(2k+1)
        if bit == "0":
            a, b = c, d
        else:
            a, b = d, c + d
    return a, b


def fib(n: int) -> int:
    return fib_pair(n)[0]


def lucas(n: int) -> int:
    """L(n) with L(0) = 2, L(1) = 1; equals 2 F(n+1) - F(n)."""
    a, b = fib_pair(n)
    return 2 * b - a


def fib_pair_mod(n: int, m: int) -> tuple[int, int]:
    """(F(n) mod m, F(n+1) mod m) by fast doubling, O(log n) multiplications."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    if m < 1:
        raise DomainError("modulus must be at least 1")
    a, b = 0 % m, 1 % m
    for bit in bin(n)[2:]:
        c = a * (2 * b - a) % m
        d = (a * a + b * b) % m
        if bit == "0":
            a, b = c, d
        else:
            a, b = d, (c + d) % m
    return a, b


def fib_mod(n: int, m: int) -> int:
    return fib_pair_mod(n, m)[0]


# ---------------------------------------------------------------------------
# primality and factoring

# The first 13 primes. Miller-Rabin to these bases is exact below
# 3.317e24 (Sorenson and Webster, Math. Comp. 86, 2017); above that it is a
# strong probable-prime test.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_TRIAL_BOUND = 1000


def is_prime(n: int) -> bool:
    """Miller-Rabin, 13 prime bases: exact below 3.317e24, a strong probable-prime test above."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _split(n: int) -> int:
    """A proper factor of an odd composite n, by Pollard-Brent rho.

    The polynomial x^2 + c runs through c = 1, 2, ..., so the factor found
    depends only on n; a c whose 128-step gcd batch reaches n moves on to
    the next c. Rho needs ~sqrt(q) steps for the least prime factor q of n;
    before each doubling of r, the steps of every c so far plus the at most
    2r of the next round are charged to FIBWORD_RHO_STEPS.
    """
    c = steps = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            charge("RHO_STEPS", steps + 2 * r,
                   f"Pollard rho on {n}, up to {steps + 2 * r} polynomial steps,")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            steps += r + min(k, r)
            r *= 2
        if g != n:
            return g


def _integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) by Newton's method in integers."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _factor(n: int) -> dict[int, int]:
    """Prime factorization {q: k} of n >= 1.

    Trial division below _TRIAL_BOUND, then perfect powers are split by
    integer roots (rho would need ~sqrt(q) steps on q^2) and the rest by
    Pollard-Brent rho.
    """
    factors: dict[int, int] = {}
    for d in (2, *range(3, _TRIAL_BOUND, 2)):
        if d * d > n:
            break
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
    stack = [n] if n > 1 else []
    while stack:
        n = stack.pop()
        if is_prime(n):
            factors[n] = factors.get(n, 0) + 1
            continue
        # every factor left exceeds _TRIAL_BOUND > 2^9, so n = r^k has k <= bits / 9
        for k in range(n.bit_length() // 9, 1, -1):
            r = _integer_root(n, k)
            if r ** k == n:
                stack += [r] * k
                break
        else:
            d = _split(n)
            stack += [d, n // d]
    return factors


# ---------------------------------------------------------------------------
# periods by order reduction


def _period_multiple(q: int, k: int) -> tuple[int, dict[int, int]]:
    """q^(k-1) pi(q) with its factorization, a proven multiple of pi(q^k)."""
    if q == 2:
        factors = {3: 1}
    elif q == 5:
        factors = {2: 2, 5: 1}
    else:
        factors = _factor(q - 1 if q % 5 in (1, 4) else 2 * (q + 1))
    factors[q] = factors.get(q, 0) + k - 1
    n = prod(r ** e for r, e in factors.items())
    if fib_pair_mod(n, q ** k) != (0, 1):
        raise RuntimeError(f"refusing to continue: {n} is not a period of F mod {q ** k}, "
                           "which contradicts Wall's theorem")
    return n, factors


def pisano_period(m: int) -> int:
    """Period of F mod m, the lcm of pi(q^k) over the prime powers q^k || m.

    The d with (F(d), F(d+1)) = (0, 1) mod q^k are the multiples of pi(q^k), so
    dividing Wall's multiple by its primes while that holds ends at pi(q^k).
    """
    if m < 2:
        raise DomainError("modulus must be at least 2")
    periods = []
    for q, k in _factor(m).items():
        n, factors = _period_multiple(q, k)
        for r in factors:
            while n % r == 0 and fib_pair_mod(n // r, q ** k) == (0, 1):
                n //= r
        periods.append(n)
    return lcm(*periods)


def _rank(m: int, period: int) -> int:
    """The rank of apparition alpha of m >= 2, read off its Pisano period.

    With c = F(alpha - 1) = F(alpha + 1) mod m, F(n + alpha) = F(alpha) F(n + 1)
    + F(alpha - 1) F(n) = c F(n), and Cassini, F(alpha - 1) F(alpha + 1) -
    F(alpha)^2 = (-1)^alpha, gives c^2 = (-1)^alpha. So c is a unit, the zeros
    of F mod m are the multiples of alpha, (F(j alpha), F(j alpha + 1)) =
    (0, c^j), and period = alpha ord(c) with ord(c) in {1, 2, 4}: alpha is the
    least of period/4, period/2 and period that is an integer with F = 0 mod m.
    """
    if period % 4 == 0:
        f, g = fib_pair_mod(period // 4, m)
        if f == 0:
            return period // 4
        f *= 2 * g - f   # F(2k) = F(k) (2 F(k+1) - F(k)) at k = period/4
    else:
        f = fib_mod(period // 2, m) if period % 2 == 0 else 1
    return period // 2 if f % m == 0 else period


def restricted_period(m: int) -> int:
    """Smallest k >= 1 with F(k) divisible by m (the rank of apparition)."""
    return _rank(m, pisano_period(m))


def _periods(p: int) -> tuple[int, int, tuple[int, ...]]:
    """pi(p), alpha(p) and the i in [0, pi(p)) with L(i) divisible by the prime p.

    L(n) F(n) = F(2n) and gcd(F(n), L(n)) divides 2, so for odd p the zeros
    are the n = alpha/2 (mod alpha) when the rank alpha is even, and there
    are none when it is odd. L(n) is even exactly when 3 | n.
    """
    period = pisano_period(p)
    alpha = _rank(p, period)
    if p == 2:
        return period, alpha, tuple(range(0, period, 3))
    return period, alpha, tuple(range(alpha // 2, period, alpha) if alpha % 2 == 0 else ())


def lucas_zeros(p: int) -> tuple[int, ...]:
    """Indices i in [0, pisano(p)) with L(i) divisible by the prime p."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    return _periods(p)[2]


# ---------------------------------------------------------------------------
# the residue walk

_BLOCK = 1 << 16
# A block adds two products of residues below m in uint64, which is exact
# while 2 (m - 1)^2 < 2^64.
_NUMPY_MODULUS = isqrt(2 ** 63 - 1)


def _shift(f: np.ndarray, g: np.ndarray, a: int, b: int, m: int) -> np.ndarray:
    """F(s + j) = F(j) F(s + 1) + F(j - 1) F(s) mod m, from F(s) = a, F(s+1) = b."""
    out = f * b
    out += g * a
    out %= m
    return out


def _base_block(m: int, size: int) -> np.ndarray:
    """F(-1), F(0), ..., F(size - 1) mod m, built by doubling.

    Its views e[1:] and e[:-1] are F(j) and F(j - 1) for j = 0..size - 1. In
    uint64 up to _NUMPY_MODULUS, above it in object arrays of Python ints.
    """
    import numpy as np

    e = np.array([1, 0], dtype=np.uint64 if m <= _NUMPY_MODULUS else object)
    while len(e) < size + 1:
        e = np.concatenate((e, _shift(e[1:], e[:-1], *fib_pair_mod(len(e) - 1, m), m)))
    return e[:size + 1]


def _fib_blocks(m: int, segments: list[tuple[int, int]]):
    """Yield F(start), ..., F(start + steps - 1) mod m in blocks for each index range
    (start, steps) of segments in turn, m >= 2.

    Every block shifts one base block, min(_BLOCK, longest segment) values long,
    from the pair fast doubling gives at its first index. Blocks are int64 up to
    m = 2^63 (int64 indexes faster than uint64) and object arrays above.
    """
    import numpy as np

    size = min(_BLOCK, max((steps for _, steps in segments), default=0)) or 1
    e = _base_block(m, size)
    f, g = e[1:], e[:-1]
    for start, steps in segments:
        for s in range(start, start + steps, size):
            n = min(size, start + steps - s)
            block = _shift(f[:n], g[:n], *fib_pair_mod(s, m), m)
            if m <= _NUMPY_MODULUS:
                block = block.view(np.int64)
            elif m <= 2 ** 63:
                block = block.astype(np.int64)
            yield block


def _residues(m: int, segments: list[tuple[int, int]]) -> np.ndarray:
    """Sorted distinct F(i) mod m over the index ranges (start, steps).

    A bitmap of m cells when that is no larger than the values themselves
    would take, else the sorted values.
    """
    import numpy as np

    steps = sum(n for _, n in segments)
    if m <= 8 * steps:
        seen = np.zeros(m, dtype=bool)
        for block in _fib_blocks(m, segments):
            seen[block] = True
        return np.flatnonzero(seen)
    values = np.concatenate([np.zeros(0, dtype=np.int64), *_fib_blocks(m, segments)])
    values.sort()  # then drop repeats; numpy 2.4 np.unique took 20x as long on 2^16 values
    return np.concatenate((values[:1], values[1:][values[1:] != values[:-1]]))


@dataclass(frozen=True)
class PrimeContext:
    """Everything about p the density formula consumes."""

    prime: int
    eps: int              # +1 when p = +-1 mod 5, else -1
    e: int                # largest power of p dividing F(p - eps)
    pisano: int
    restricted: int
    lucas_zero_indices: tuple[int, ...]


def prime_context(p: int) -> PrimeContext:
    """Validate p and collect its periods, zero set, and the exponent e.

    The density formula needs an odd prime other than 5, because it builds on
    p dividing F(p - eps) with eps read off p mod 5.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if p in (2, 5):
        raise DomainError(
            f"p = {p} is unsupported: the density formula is stated for an odd "
            "prime p != 5, since both 2 and 5 break the F(p - eps) divisibility "
            "it is built on"
        )
    eps = 1 if p % 5 in (1, 4) else -1
    if fib_mod(p - eps, p) != 0:
        raise RuntimeError(f"refusing to continue: p={p} does not divide F(p - {eps:+d}), "
                           "which contradicts the defining property of eps")
    e = 1
    while fib_mod(p - eps, p ** (e + 1)) == 0:
        e += 1
    return PrimeContext(p, eps, e, *_periods(p))


@dataclass(frozen=True)
class DensityResult:
    """Limiting density of Fibonacci residues modulo p^lambda as lambda grows."""

    context: PrimeContext
    outside_zero_residues: tuple[int, ...]
    n_count: int          # distinct F(i) mod p^e over indices with L(i) != 0 mod p
    z_count: int
    density: Fraction
    shared_outside_residue: bool  # True when two Lucas zeros landed on one residue


def density_formula(p: int) -> DensityResult:
    """Exact limiting density N/p^e + Z/(2 p^(2e-1) (p+1)).

    N counts the residues F(i) mod p^e over one Pisano period at the indices
    with L(i) != 0 mod p; one walk over the gaps between the (at most four)
    Lucas zeros collects them. Z counts the Lucas-zero indices whose residue
    falls outside that set, each read off by fast doubling.
    """
    import numpy as np

    ctx = prime_context(p)
    pe = p ** ctx.e
    zeros = ctx.lucas_zero_indices
    steps = ctx.pisano - len(zeros)
    charge("PERIOD_STEPS", steps, f"the residue walk mod {p}^{ctx.e}, which needs {steps} steps,")
    edges = (-1, *zeros, ctx.pisano)
    nonzero = _residues(pe, [(lo + 1, hi - lo - 1) for lo, hi in zip(edges, edges[1:])])
    zero_entries = [fib_mod(i, pe) for i in zeros]
    at = np.searchsorted(nonzero, zero_entries)
    outside = [r for r, j in zip(zero_entries, at)
               if j == len(nonzero) or nonzero[j] != r]
    z = len(outside)
    n_count = len(nonzero)
    density = Fraction(n_count, pe) + Fraction(z, 2 * p ** (2 * ctx.e - 1) * (p + 1))
    return DensityResult(
        context=ctx,
        outside_zero_residues=tuple(sorted(set(outside))),
        n_count=n_count,
        z_count=z,
        density=density,
        shared_outside_residue=len(set(outside)) < z,
    )


def residue_density_bruteforce(p: int, lam: int) -> Fraction:
    """|{F(n) mod p^lam}| / p^lam by walking the period pisano_period gives.

    The modulus budget bounds p^lam, charged before p^lam is built, and the
    period-step budget the walk, charged before it starts. The residues are
    counted by _residues, as in density_formula. The check that uses no period
    finder, a walk to the first return of F mod p^lam to (0, 1), lives in the
    tests.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if lam < 0:
        raise DomainError("lambda must be nonnegative")
    if lam == 0:
        return Fraction(1, 1)
    charge_power("MODULUS_LIMIT", p, lam, f"p^lambda = {p}^{lam}")
    modulus = p ** lam
    period = pisano_period(modulus)
    charge("PERIOD_STEPS", period, f"the residue walk mod {p}^{lam}, which needs {period} steps,")
    return Fraction(len(_residues(modulus, [(0, period)])), modulus)


def bruteforce_trace(p: int, lam_max: int) -> list[Fraction]:
    """The densities for lambda = 0..lam_max, a non-increasing sequence."""
    if lam_max < 0:
        raise DomainError("lambda must be nonnegative")
    return [residue_density_bruteforce(p, lam) for lam in range(lam_max + 1)]
