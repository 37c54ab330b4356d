"""Independent routes to the answers the benchmark checks.

Nothing here calls into fibword: each function recomputes a quantity, or a
property it must have, by a different method than the library uses, so a
wrong library answer cannot also be the expected one.
"""

import math
import sys
from fractions import Fraction

# OEIS A006156, ternary square-free words of length n, n = 0..20; the same
# values are pinned in the library's unit tests.
A006156 = (1, 3, 6, 12, 18, 30, 42, 60, 78, 108, 144, 204, 264,
           342, 456, 618, 798, 1044, 1392, 1830, 2388)


class CheckError(AssertionError):
    """A job's output disagrees with its independent check."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Fibonacci numbers modulo m by 2x2 matrix powers


def _mat_mul(x, y, m):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % m, (a * f + b * h) % m,
            (c * e + d * g) % m, (c * f + d * h) % m)


def fib_mod_pair(n: int, m: int) -> tuple[int, int]:
    """(F(n) mod m, F(n+1) mod m) from [[1,1],[1,0]]^n."""
    result = (1 % m, 0, 0, 1 % m)
    base = (1, 1, 1, 0)
    while n:
        if n & 1:
            result = _mat_mul(result, base, m)
        base = _mat_mul(base, base, m)
        n >>= 1
    # [[F(n+1), F(n)], [F(n), F(n-1)]]
    return result[1], result[0]


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == [n]


def reduce_order(n: int, holds) -> int:
    """The least d with holds(d), given holds(n) and that the d with holds(d)
    are exactly the multiples of that least one: divide primes out of n."""
    for q in prime_factors(n):
        while n % q == 0 and holds(n // q):
            n //= q
    return n


def prime_rank(p: int, multiple: int) -> int:
    """alpha(p), the least k >= 1 with p | F(k), from a known multiple of it."""
    return reduce_order(multiple, lambda d: fib_mod_pair(d, p)[0] == 0)


def check_pisano(m: int, period: int) -> None:
    """period is a period of F mod m and no period / q is (q prime)."""
    expect(period >= 1 and fib_mod_pair(period, m) == (0, 1 % m),
           f"pi({m}) = {period} is not a period")
    for q in prime_factors(period):
        expect(fib_mod_pair(period // q, m) != (0, 1 % m),
               f"pi({m}) = {period} is not minimal: {period // q} is a period")


def check_rank(m: int, alpha: int) -> None:
    """F(alpha) = 0 mod m and F(alpha / q) != 0 for each prime q | alpha.

    The zeros of F mod m are exactly the multiples of the rank, so this pins
    alpha down.
    """
    expect(alpha >= 1 and fib_mod_pair(alpha, m)[0] == 0,
           f"alpha({m}) = {alpha}: F(alpha) is not 0 mod {m}")
    for q in prime_factors(alpha):
        expect(fib_mod_pair(alpha // q, m)[0] != 0,
               f"alpha({m}) = {alpha} is not minimal: F({alpha // q}) = 0 mod {m}")


def check_prime_period(p: int, period: int) -> None:
    """pi(p) divides p - 1 or 2(p + 1), by p mod 5 (odd p != 5), and is minimal."""
    bound = p - 1 if p % 5 in (1, 4) else 2 * (p + 1)
    expect(bound % period == 0, f"pi({p}) = {period} does not divide {bound}")
    check_pisano(p, period)


def lucas_zero_indices(p: int, period: int, alpha: int) -> tuple[int, ...]:
    """For an odd prime p, p | L(n) exactly when alpha is even and n is an odd
    multiple of alpha / 2, since L(n) F(n) = F(2n) and gcd(F(n), L(n)) <= 2."""
    if alpha % 2:
        return ()
    half = alpha // 2
    return tuple(range(half, period, alpha))


def check_density(p: int, res) -> None:
    ctx = res.context
    expect(ctx.prime == p, f"density context is for {ctx.prime}, not {p}")
    eps = 1 if p % 5 in (1, 4) else -1
    expect(ctx.eps == eps, f"eps({p}) = {ctx.eps}, expected {eps}")
    check_prime_period(p, ctx.pisano)
    expect(ctx.pisano % ctx.restricted == 0,
           f"alpha({p}) = {ctx.restricted} does not divide pi = {ctx.pisano}")
    check_rank(p, ctx.restricted)
    expect(ctx.lucas_zero_indices == lucas_zero_indices(p, ctx.pisano, ctx.restricted),
           f"Lucas zeros mod {p} disagree with the rank rule")
    # p^e exactly divides F(p - eps)
    e = ctx.e
    expect(e >= 1 and fib_mod_pair(p - eps, p ** e)[0] == 0
           and fib_mod_pair(p - eps, p ** (e + 1))[0] != 0,
           f"e({p}) = {e} is not the p-adic valuation of F(p - eps)")
    pe = p ** e
    expect(0 < res.n_count <= pe and 0 <= res.z_count <= len(ctx.lucas_zero_indices),
           f"(N, Z) = ({res.n_count}, {res.z_count}) out of range for p = {p}")
    expect(res.density == Fraction(res.n_count, pe)
           + Fraction(res.z_count, 2 * p ** (2 * e - 1) * (p + 1)),
           f"dens({p}) does not match N and Z")


def residue_count(p: int, period: int) -> int:
    """Distinct values of F(n) mod p, walking one period given from outside."""
    seen = set()
    a, b = 0, 1
    for _ in range(period):
        seen.add(a)
        a, b = b, (a + b) % p
    return len(seen)


def check_brute_trace(p: int, trace, period: int) -> None:
    expect(trace[0] == 1, f"brute density at lambda = 0 is {trace[0]}")
    for lam, d in enumerate(trace):
        expect((d * p ** lam).denominator == 1, f"brute density {d} at lambda {lam} "
               f"is not a multiple of 1/{p}^{lam}")
        if lam:
            expect(d <= trace[lam - 1], f"brute densities increase at lambda = {lam}")
    if len(trace) > 1:
        want = Fraction(residue_count(p, period), p)
        expect(trace[1] == want, f"brute density mod {p} is {trace[1]}, expected {want}")


# ---------------------------------------------------------------------------
# words


def thue_morse_complexity(n: int) -> int:
    """Factor complexity of the Thue-Morse word (Brlek 1989; de Luca-Varricchio)."""
    if n <= 2:
        return (1, 2, 4)[n]
    r = (n - 2).bit_length() - 1          # n = 2^r + q + 1 with 0 < q <= 2^r
    q = n - 1 - 2 ** r
    if r >= 1 and q <= 2 ** (r - 1):
        return 3 * 2 ** r + 4 * q
    return 4 * 2 ** r + 2 * q


def eertree_count(data: bytes) -> int:
    """Distinct nonempty palindromic factors, by a palindromic tree (eertree)."""
    length = [-1, 0]          # node 0: imaginary root, node 1: empty palindrome
    link = [0, 0]
    edges: list[dict[int, int]] = [{}, {}]
    last = 1
    for i, c in enumerate(data):
        v = last
        while True:
            j = i - length[v] - 1
            if j >= 0 and data[j] == c:
                break
            v = link[v]
        if c in edges[v]:
            last = edges[v][c]
            continue
        node = len(length)
        length.append(length[v] + 2)
        edges.append({})
        edges[v][c] = node
        if length[node] == 1:
            link.append(1)
        else:
            u = link[v]
            while True:
                j = i - length[u] - 1
                if j >= 0 and data[j] == c:
                    break
                u = link[u]
            link.append(edges[u][c])
        last = node
    return len(length) - 2


def distinct_factors(data: bytes, n: int) -> int:
    return len({data[i : i + n] for i in range(len(data) - n + 1)})


def arithmetic_pairs(data: bytes) -> int:
    """a(2): ordered pairs (x, y) with some x strictly before some y."""
    first = {}
    last = {}
    for i, c in enumerate(data):
        first.setdefault(c, i)
        last[c] = i
    return sum(1 for x in first for y in last if first[x] < last[y])


# ---------------------------------------------------------------------------
# the concatenated-factorials word


class FactorialDigits:
    """Decimal digits of 0! 1! 2! ... concatenated, grown on demand and kept."""

    def __init__(self):
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(0)
        self._parts = []
        self._n = 0
        self._fact = 1
        self._size = 0
        self._text = ""

    def prefix(self, size: int) -> str:
        if len(self._text) < size:
            while self._size < size:
                s = str(self._fact)
                self._parts.append(s)
                self._size += len(s)
                self._n += 1
                self._fact *= self._n
            self._text = "".join(self._parts)
        return self._text[:size]


def leading_digits(n: int, count: int) -> str:
    """The first `count` decimal digits of n!, from an exact integer division."""
    f = math.factorial(n)
    shift = max(0, int(f.bit_length() * math.log10(2)) - count - 2)
    head = f // 10 ** shift
    while head >= 10 ** count:
        head //= 10
    return str(head)
