"""Fibonacci and Lucas numbers modulo m: periods, zero sets, residue densities.

Periods and ranks come from order reduction: Wall (Amer. Math. Monthly 67,
1960) shows pi(q^k) divides q^(k-1) pi(q), and pi(q) divides q - 1 or
2(q + 1) for a prime q != 2, 5. Fast doubling tests each divisor in
O(log m) multiplications, so no period is walked. The only walk left is the
residue walk behind the densities, done in numpy blocks for every modulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

from .budgets import budget, charge
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


def lucas_mod(n: int, m: int) -> int:
    a, b = fib_pair_mod(n, m)
    return (2 * b - a) % m


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
    depends only on n.
    """
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: redo it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
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


def _least_order(n: int, factors: dict[int, int], holds) -> int:
    """The least divisor d of n = prod q^k with holds(d).

    Needs holds(n), and that the d with holds(d) are exactly the multiples
    of that least one; then dividing out each prime while holds() stays true
    ends there.
    """
    for q, k in factors.items():
        for _ in range(k):
            if not holds(n // q):
                break
            n //= q
    return n


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
    m = q ** k
    if fib_pair_mod(n, m) != (0, 1):
        raise RuntimeError(f"refusing to continue: {n} is not a period of F mod {m}, "
                           "which contradicts Wall's theorem")
    return n, factors


def _prime_power_orders(m: int, holds):
    """The least n with holds(n, q^k) for each prime power q^k || m."""
    if m < 2:
        raise DomainError("modulus must be at least 2")
    for q, k in _factor(m).items():
        n, factors = _period_multiple(q, k)
        yield _least_order(n, factors, lambda d: holds(d, q ** k))


def pisano_period(m: int) -> int:
    """Period of the Fibonacci sequence modulo m, the lcm over its prime powers."""
    return lcm(*_prime_power_orders(m, lambda d, qk: fib_pair_mod(d, qk) == (0, 1)))


def restricted_period(m: int) -> int:
    """Smallest k >= 1 with F(k) divisible by m (the rank of apparition).

    m | F(n) exactly when every prime power of m does, and each rank divides
    its period, so the rank is the lcm of the prime-power ranks.
    """
    return lcm(*_prime_power_orders(m, lambda d, qk: fib_mod(d, qk) == 0))


def lucas_zeros(p: int) -> tuple[int, ...]:
    """Indices i in [0, pisano(p)) with L(i) divisible by the prime p.

    L(n) F(n) = F(2n) and gcd(F(n), L(n)) divides 2, so for odd p the zeros
    are the n = alpha/2 (mod alpha) when the rank alpha is even, and there
    are none when it is odd. L(n) is even exactly when 3 | n.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    period = pisano_period(p)
    if p == 2:
        return tuple(range(0, period, 3))
    alpha = restricted_period(p)
    if alpha % 2:
        return ()
    return tuple(range(alpha // 2, period, alpha))


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
    """F(-1), F(0), ..., F(size + 1) mod m, built by doubling.

    Its views e[1:] and e[:-1] are F(j) and F(j - 1) for j = 0..size + 1. In
    uint64 up to _NUMPY_MODULUS, above it in object arrays of Python ints.
    """
    import numpy as np

    e = np.array([1, 0, 1], dtype=np.uint64 if m <= _NUMPY_MODULUS else object)
    while len(e) < size + 3:
        a = (int(e[-1]) + int(e[-2])) % m        # F(L) for L = len(e) - 1
        e = np.concatenate((e, _shift(e[1:], e[:-1], a, (a + int(e[-1])) % m, m)))
    return e[:size + 3]


def _fib_blocks(m: int, segments: list[tuple[int, int]]):
    """Yield F(start), ..., F(start + steps - 1) mod m in blocks for each index range
    (start, steps) of segments in turn, m >= 2.

    Every segment shifts one base block. A block is at most min(_BLOCK, m) values
    long, so a caller that stops at the first return to (0, 1) walks little past it.
    Blocks are int64 up to m = 2^63 (int64 indexes faster than uint64) and object
    arrays above.
    """
    import numpy as np

    size = min(_BLOCK, m, max((steps for _, steps in segments), default=0))
    e = _base_block(m, size)
    f, g = e[1:], e[:-1]
    for start, steps in segments:
        a, b = fib_pair_mod(start, m)
        while steps > 0:
            n = min(steps, size)
            block = _shift(f[:n], g[:n], a, b, m)
            if m <= _NUMPY_MODULUS:
                block = block.view(np.int64)
            elif m <= 2 ** 63:
                block = block.astype(np.int64)
            yield block
            a, b = ((int(f[n]) * b + int(g[n]) * a) % m,
                    (int(f[n + 1]) * b + int(f[n]) * a) % m)
            steps -= n


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
    parts = [np.unique(block) for block in _fib_blocks(m, segments)]
    return np.unique(np.concatenate(parts)) if parts else np.zeros(0, dtype=np.int64)


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
        raise RuntimeError(
            f"refusing to continue: p={p} does not divide F(p - {eps:+d}), "
            "which contradicts the defining property of eps"
        )
    e = 1
    while fib_mod(p - eps, p ** (e + 1)) == 0:
        e += 1
    return PrimeContext(
        prime=p,
        eps=eps,
        e=e,
        pisano=pisano_period(p),
        restricted=restricted_period(p),
        lucas_zero_indices=lucas_zeros(p),
    )


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
    """|{F(n) mod p^lam}| / p^lam by walking one full period.

    Exact and formula-free, which is what makes it a useful cross-check: the
    walk finds the period itself, as the first return to (0, 1). The modulus
    budget bounds the bitmap and the period-step budget the walk.
    """
    import numpy as np

    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if lam < 0:
        raise DomainError("lambda must be nonnegative")
    if lam == 0:
        return Fraction(1, 1)
    modulus = p ** lam
    charge("MODULUS_LIMIT", modulus, f"p^lambda = {modulus}")
    steps = budget("PERIOD_STEPS")
    seen = np.zeros(modulus, dtype=bool)
    start, prev = 0, None
    for block in _fib_blocks(modulus, [(0, steps)]):
        # (F(t), F(t+1)) = (0, 1) exactly when F(t) = 0 and F(t-1) = 1
        for j in np.flatnonzero(block == 0).tolist():
            before = block[j - 1] if j else prev
            if start + j > 0 and before == 1:
                seen[block[:j]] = True
                return Fraction(int(np.count_nonzero(seen)), modulus)
        seen[block] = True
        start, prev = start + len(block), block[-1]
    # no return within the whole budget: one step past it is always refused
    charge("PERIOD_STEPS", steps + 1,
           f"the walk to the first return of F mod {modulus} to (0, 1), past {steps} steps,")


def bruteforce_trace(p: int, lam_max: int) -> list[Fraction]:
    """The densities for lambda = 0..lam_max, a non-increasing sequence."""
    if lam_max < 0:
        raise DomainError("lambda must be nonnegative")
    return [residue_density_bruteforce(p, lam) for lam in range(lam_max + 1)]
