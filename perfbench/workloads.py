"""Seeded job lists for the three workloads, and their tiny smoke versions.

A workload is a sequence of rounds. Every round of a workload holds the same
job kinds at the same sizes, on a log-spaced grid; the seed moves each size by
at most 5 % and picks the contents and the order of the jobs, so two seeds
give rounds of the same expected cost. That is what keeps the end-to-end
figures steady from seed to seed while the inputs still change.

Each job is run through a `call` function, `call(fn, *args)`, which either
calls straight through or records a span (see tracing.py); everything the job
does outside `call` is benchmark glue. The check runs after the job's timed
window and never calls the function under test the same way.
"""

import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from fibword import cli, complexity, density, factorial_word, modfib, words

import oracles
from oracles import expect

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def direct(fn, *args, **kwargs):
    """The untraced `call`: straight through."""
    return fn(*args, **kwargs)


@dataclass
class Job:
    kind: str                            # "<module>.<function>" under test
    label: str
    run: Callable[[Callable], object]    # run(call) -> result, the timed part
    check: Callable[[object], None]      # raises oracles.CheckError
    work: Callable[[object], dict] = field(default=lambda result: {})
    argv: list[str] | None = None        # cli jobs: the request's arguments
    slot: int = 0                        # position in the round before shuffling

    @property
    def module(self) -> str:
        return self.kind.split(".", 1)[0]


def shuffled(jobs: list[Job], rng: random.Random) -> list[Job]:
    """Number the jobs by slot (the same in every round), then shuffle."""
    for i, job in enumerate(jobs):
        job.slot = i
    rng.shuffle(jobs)
    return jobs


def log_grid(rng: random.Random, lo: float, hi: float, k: int,
             jitter: float = 0.05) -> list[float]:
    """The midpoints of k equal log-width strata of [lo, hi], each moved by up
    to +-jitter (relative) by the seed.

    Sizes set a job's cost; keeping them on a fixed grid, and letting the seed
    pick contents, keeps the cost of a round the same from seed to seed.
    """
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (b - a) * (i + 0.5) / k) * (1 + jitter * (2 * rng.random() - 1))
            for i in range(k)]


def next_prime(x: int, skip=(2, 5)) -> int:
    p = max(3, int(x))
    while not oracles.is_prime(p) or p in skip:
        p += 1
    return p


def full_rank_prime(x: float, eps: int) -> int:
    """Smallest prime p >= x with p mod 5 giving eps and rank alpha(p) = p - eps.

    For such p the periods are fixed by p alone: pi(p) = p - 1 when eps = +1,
    and pi(p) = 2(p + 1) when eps = -1 (p = 3 mod 4 is also required), so a
    period walk near a given size always costs the same.
    """
    p = max(7, int(x))
    while True:
        if p % 5 in ((1, 4) if eps == 1 else (2, 3)) and (eps == 1 or p % 4 == 3) \
                and oracles.is_prime(p) and oracles.prime_rank(p, p - eps) == p - eps:
            return p
        p += 1


# ---------------------------------------------------------------------------
# words


WORD_CLASSES = ("fibonacci", "tribonacci", "thue-morse", "mbonacci:4",
                "mbonacci:5", "mbonacci:6", "sturmian", "unary")


def _sturmian_compositions() -> list[tuple[tuple[str, ...], str]]:
    """Primitive compositions of 2-4 Sturmian generators, with a seed letter
    the composite is prolongable on."""
    out = []
    for k in (2, 3, 4):
        for steps in itertools.product(("phi", "phit", "E"), repeat=k):
            m = words.compose_sturmian(steps)
            inc = [[img.data.count(j) for j in range(2)] for img in m.images]
            square = [[sum(inc[i][t] * inc[t][j] for t in range(2)) for j in range(2)]
                      for i in range(2)]
            if min(min(row) for row in square) == 0:
                continue
            for seed in "ab":
                if m.is_prolongable_on(seed):
                    out.append((steps, seed))
    return out


def _two_letter_frequency(morph: words.Morphism) -> float:
    """Frequency of 'b' in a fixed point, from the left Perron vector of the
    2x2 incidence matrix."""
    (p, q), (r, s) = [[img.data.count(j) for j in range(2)] for img in morph.images]
    tr, det = p + s, p * s - q * r
    lam = tr / 2 + math.sqrt(tr * tr / 4 - det)
    ratio = (lam - p) / r if r else q / (lam - s)   # f_b / f_a
    return ratio / (1 + ratio)


def _mbonacci_rho(m: int) -> float:
    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid ** m - sum(mid ** i for i in range(m)) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@dataclass
class WordSource:
    """A morphism class with what its fixed point is known to satisfy."""

    name: str
    morph: words.Morphism
    seed: str
    complexity: Callable[[int], int]     # factor complexity of the fixed point
    rich: bool                           # every factor has |u| palindromes
    frequencies: tuple[float, ...]       # letter frequencies of the fixed point

    def prefix(self, call, length):
        return call(words.fixed_point_prefix, self.morph, self.seed, length)


def word_source(name: str, rng: random.Random, compositions) -> WordSource:
    if name == "fibonacci":
        f = (3 - math.sqrt(5)) / 2
        return WordSource(name, words.fibonacci_morphism(), "a", lambda n: n + 1,
                          True, (1 - f, f))
    if name == "tribonacci" or name.startswith("mbonacci:"):
        m = 3 if name == "tribonacci" else int(name.split(":")[1])
        morph = words.tribonacci_morphism() if m == 3 else words.mbonacci_morphism(m)
        rho = _mbonacci_rho(m)
        return WordSource(name, morph, morph.source.label(0),
                          lambda n, m=m: (m - 1) * n + 1, True,
                          tuple(rho ** -(i + 1) for i in range(m)))
    if name == "thue-morse":
        return WordSource(name, words.thue_morse_morphism(), "0",
                          oracles.thue_morse_complexity, False, (0.5, 0.5))
    if name == "sturmian":
        steps, seed = rng.choice(compositions)
        morph = words.compose_sturmian(steps)
        f = _two_letter_frequency(morph)
        return WordSource("sturmian:" + ",".join(steps), morph, seed,
                          lambda n: n + 1, True, (1 - f, f))
    if name == "unary":
        return WordSource(name, words.Morphism.from_rules("a->aa"), "a",
                          lambda n: 1, True, (1.0,))
    raise ValueError(name)


def _window(length: int, rng: random.Random, size: int):
    offset = rng.randrange(length - size + 1)
    return offset, offset + size


def fc_job(src: WordSource, length: int, n_max: int) -> Job:
    def run(call):
        w = src.prefix(call, length)
        return call(complexity.factor_complexity, w, n_max)

    def check(profile):
        want = tuple(src.complexity(n) for n in range(1, n_max + 1))
        bad = [n for n, (a, b) in enumerate(zip(profile.counts, want), 1) if a != b]
        expect(profile.counts == want,
               f"p(n) differs from the {src.name} formula at n = {bad[:3]}")

    return Job("complexity.factor_complexity", f"{src.name} L={length} n={n_max}",
               run, check, lambda r: {"symbols_out": length, "symbols_in": length})


def arith_job(src: WordSource, length: int, size: int, n_max: int,
              rng: random.Random) -> Job:
    lo, hi = _window(length, rng, size)

    def run(call):
        w = src.prefix(call, length)[lo:hi]
        return w, call(complexity.arithmetic_complexity, w, n_max)

    def check(result):
        w, profile = result
        data = w.data
        k = len(set(data))
        expect(profile.counts[0] == k, f"a(1) = {profile.counts[0]}, expected {k}")
        if n_max >= 2:
            pairs = oracles.arithmetic_pairs(data)
            expect(profile.counts[1] == pairs, f"a(2) = {profile.counts[1]}, expected {pairs}")
        for n in range(1, n_max + 1):
            p_n = oracles.distinct_factors(data, n)
            expect(p_n <= profile.counts[n - 1] <= k ** n,
                   f"a({n}) = {profile.counts[n - 1]} outside [p(n) = {p_n}, {k}^{n}]")

    return Job("complexity.arithmetic_complexity",
               f"{src.name} L={length} window={size} n={n_max}", run, check,
               lambda r: {"symbols_out": length, "symbols_in": size})


def palindrome_job(src: WordSource, length: int, size: int, rng: random.Random) -> Job:
    lo, hi = _window(length, rng, size)

    def run(call):
        w = src.prefix(call, length)[lo:hi]
        return w, call(complexity.palindromic_factor_count, w)

    def check(result):
        w, count = result
        want = oracles.eertree_count(w.data)
        expect(count == want, f"{count} palindromic factors, eertree finds {want}")
        if src.rich:
            expect(count == size, f"rich word of length {size} has {count} palindromes")

    return Job("complexity.palindromic_factor_count",
               f"{src.name} L={length} window={size}", run, check,
               lambda r: {"symbols_out": length, "symbols_in": size})


def scattered_job(src: WordSource, length: int, size: int, rng: random.Random) -> Job:
    lo, hi = _window(length, rng, size)

    def run(call):
        w = src.prefix(call, length)[lo:hi]
        return w, call(complexity.scattered_palindrome_count, w)

    def check(result):
        w, count = result
        factors = oracles.eertree_count(w.data)
        expect(count >= factors, f"{count} scattered palindromes < {factors} factors")
        if src.name == "unary":
            expect(count == size, f"a^{size} has {count} scattered palindromes")
        if size <= 64:
            split = sum(complexity.scattered_palindromes_by_length(w))
            expect(count == split, f"total {count} but per-length counts sum to {split}")

    return Job("complexity.scattered_palindrome_count",
               f"{src.name} L={length} window={size}", run, check,
               lambda r: {"symbols_out": length, "symbols_in": size})


def balance_job(src: WordSource, length: int, ns: list[int]) -> Job:
    symbol = src.morph.source.label(len(src.frequencies) - 1)
    target = src.frequencies[-1]

    def run(call):
        w = src.prefix(call, length)
        return w, call(density.balance_check, w, symbol, target, ns)

    def check(result):
        w, report = result
        expect(report.within_bound(), "balance report is not within 1/n")
        expect([n for n, _, _ in report.rows] == sorted(set(ns)), "balance rows miss a length")
        n, pos = report.worst_n, report.worst_position
        s = w.alphabet.index(symbol)
        recount = w.data[pos : pos + n].count(s)
        dev = abs(recount / n - target)
        expect(abs(dev - report.worst_deviation) <= 1e-12,
               f"worst window (n={n}, at {pos}) re-reads as {dev}, "
               f"report says {report.worst_deviation}")

    return Job("density.balance_check", f"{src.name} L={length} {len(ns)} lengths",
               run, check,
               lambda r: {"symbols_out": length, "symbols_in": length})


def frequency_job(src: WordSource, length: int, letter: int, window: int) -> Job:
    symbol = src.morph.source.label(letter)
    target = src.frequencies[letter]

    def run(call):
        w = src.prefix(call, length)
        return w, call(density.frequency_report, w, symbol, window, target)

    def check(result):
        w, report = result
        occ = np.frombuffer(w.data, dtype=np.uint8) == letter
        count = int(np.count_nonzero(occ))
        expect(report.global_frequency == Fraction(count, length),
               f"frequency {report.global_frequency}, expected {count}/{length}")
        prefix = np.concatenate([[0], np.cumsum(occ, dtype=np.int64)])
        best = int((prefix[window:] - prefix[:-window]).max())
        expect(report.window_sup == Fraction(best, window),
               f"window sup {report.window_sup}, expected {best}/{window}")
        dev = max(abs(count / length - target), abs(best / window - target))
        expect(abs(report.max_deviation - dev) <= 1e-12,
               f"max deviation {report.max_deviation}, expected {dev}")

    return Job("density.frequency_report", f"{src.name} L={length} window={window}",
               run, check, lambda r: {"symbols_out": length, "symbols_in": length})


def census_job(n_max: int, workers: int) -> Job:
    def run(call):
        return call(complexity.square_free_census, 3, n_max, workers)

    def check(census):
        counts = census.counts
        expect(len(counts) == n_max + 1 and not census.terminated,
               f"census stops at {len(counts) - 1}, asked for {n_max}")
        known = min(n_max, len(oracles.A006156) - 1)
        expect(counts[: known + 1] == oracles.A006156[: known + 1],
               f"census differs from A006156 up to n = {known}")
        expect(all(c % 6 == 0 for c in counts[2:]), "a(n) not divisible by 6 for n >= 2")

    return Job("complexity.square_free_census", f"k=3 n={n_max} workers={workers}",
               run, check, lambda census: {"census_words": sum(census.counts)})


def delta_job(src: WordSource, length: int) -> Job:
    def run(call):
        w = src.prefix(call, length)
        image = call(complexity.delta_apply, w)
        return w, image, call(complexity.delta_factorize, image)

    def check(result):
        w, image, back = result
        expect(back == w, "delta_factorize(delta_apply(w)) != w")
        size = 3 * w.data.count(0) + 2 * w.data.count(1) + w.data.count(2)
        expect(len(image) == size, f"image length {len(image)}, expected {size}")

    return Job("complexity.delta_apply", f"{src.name} L={length}", run, check,
               lambda r: {"symbols_out": length, "symbols_in": 2 * length})


# Rounds hold an odd number of jobs, 65, 55 and 37, so the pooled median of a
# run falls inside one job slot's samples rather than in the gap between two
# slots; likewise the tail percentile (p84, p81, p72) lands mid-slot.


class WordsWorkload:
    name = "words"
    rounds_min = 3

    # Each statistic visits every class once per round. The class listed k-th
    # gets the k-th length stratum, so a round always puts the same class at
    # the same size: the Thue-Morse automaton (the largest) at the top, where
    # it is pinned to 10^6 symbols, and the unary word (where the palindrome
    # scan is slowest) mid-range. The seed moves values inside the strata.
    FC = ("unary", "mbonacci:6", "sturmian", "mbonacci:5", "fibonacci",
          "mbonacci:4", "tribonacci", "thue-morse")
    ARITH = ("mbonacci:4", "fibonacci", "unary", "thue-morse", "mbonacci:6",
             "tribonacci", "sturmian", "mbonacci:5")
    PAL = ("tribonacci", "thue-morse", "mbonacci:5", "fibonacci", "unary",
           "sturmian", "mbonacci:6", "mbonacci:4")
    SCAT = ("fibonacci", "unary", "mbonacci:4", "sturmian", "thue-morse",
            "mbonacci:6", "mbonacci:5", "tribonacci")
    FREQ = ("sturmian", "thue-morse", "tribonacci", "mbonacci:6", "unary",
            "mbonacci:4", "fibonacci", "mbonacci:5")
    # balance_check's 1/n bound only holds with slack on balanced words
    BAL = ("unary", "sturmian", "fibonacci", "sturmian", "fibonacci", "sturmian", "unary")
    L_MIN, L_MAX = 10 ** 3, 10 ** 6

    def __init__(self):
        self.compositions = _sturmian_compositions()

    def _lengths(self, rng, k=8):
        return [round(x) for x in log_grid(rng, self.L_MIN, self.L_MAX, k)]

    def _src(self, name, rng):
        return word_source(name, rng, self.compositions)

    def round(self, rng: random.Random) -> list[Job]:
        jobs = []
        lengths = self._lengths(rng)
        lengths[-1] = self.L_MAX
        for name, length in zip(self.FC, lengths):
            # a prefix of length L holds every factor of length <= L / 64 for
            # all eight classes (checked on a dense grid of L)
            jobs.append(fc_job(self._src(name, rng), length, min(length // 64, 200)))
        # a batch of moderate queries of nearly one cost (factor complexity of
        # Sturmian prefixes near 2.2e4 symbols): ten jobs that bracket the
        # round's median job, so the median falls inside the batch
        for i in range(10):
            length = round(2.2e4 * (1 + 0.1 * (rng.random() - 0.5)))
            jobs.append(fc_job(self._src(("fibonacci", "sturmian")[i % 2], rng), length, 200))
        for k, (order, lo, hi, make) in enumerate((
                (self.ARITH, 100, 1000, "arith"),
                (self.PAL, 300, 3000, "pal"),
                (self.SCAT, 40, 400, "scat"))):
            gen = self._lengths(rng)
            sizes = [round(x) for x in log_grid(rng, lo, hi, len(order))]
            for i, (name, size) in enumerate(zip(order, sizes)):
                length = max(size, gen[(i + 3 * k + 1) % len(gen)])
                src = self._src(name, rng)
                if make == "arith":
                    jobs.append(arith_job(src, length, size, 3 + i % 6, rng))
                elif make == "pal":
                    jobs.append(palindrome_job(src, length, size, rng))
                else:
                    jobs.append(scattered_job(src, length, size, rng))
        for name, length in zip(self.BAL, self._lengths(rng, len(self.BAL))):
            top = min(length, 2000)
            ns = sorted({rng.randint(1, top) for _ in range(40)})
            jobs.append(balance_job(self._src(name, rng), length, ns))
        for name, length in zip(self.FREQ, self._lengths(rng)):
            src = self._src(name, rng)
            window = round(math.exp(rng.uniform(0, math.log(min(length, 1000)))))
            jobs.append(frequency_job(src, length, rng.randrange(len(src.frequencies)), window))
        workers = [1, 1, 2, 2]
        rng.shuffle(workers)
        for n_max, w in zip((rng.randint(13, 14), rng.randint(17, 18),
                             rng.randint(21, 22), rng.randint(23, 24)), workers):
            jobs.append(census_job(n_max, w))
        for length in self._lengths(rng, 4):
            jobs.append(delta_job(self._src("tribonacci", rng), length))
        return shuffled(jobs, rng)

    def smoke(self, rng: random.Random) -> list[Job]:
        src = {name: self._src(name, rng) for name in WORD_CLASSES}
        jobs = [fc_job(src[name], 1000, 20) for name in WORD_CLASSES]
        jobs += [
            arith_job(src["tribonacci"], 200, 40, 4, rng),
            palindrome_job(src["thue-morse"], 200, 60, rng),
            palindrome_job(src["unary"], 100, 50, rng),
            scattered_job(src["fibonacci"], 200, 50, rng),
            balance_job(src["sturmian"], 500, [1, 5, 30]),
            frequency_job(src["mbonacci:4"], 500, 1, 20),
            census_job(8, 1),
            census_job(8, 2),
            delta_job(src["tribonacci"], 300),
        ]
        return jobs


# ---------------------------------------------------------------------------
# numbers


def prime_pisano(p: int) -> int:
    """pi(p) for a prime p, by order reduction from p - 1 or 2(p + 1)."""
    if p == 2:
        return 3
    if p == 5:
        return 20
    period = p - 1 if p % 5 in (1, 4) else 2 * (p + 1)
    return oracles.reduce_order(period, lambda d: oracles.fib_mod_pair(d, p) == (0, 1))


def density_job(p: int) -> Job:
    def run(call):
        return call(modfib.density_formula, p)

    return Job("modfib.density_formula", f"p={p}", run,
               lambda res: oracles.check_density(p, res),
               lambda res: {"period_sum": res.context.pisano})


def pisano_job(m: int) -> Job:
    return Job("modfib.pisano_period", f"m={m}",
               lambda call: call(modfib.pisano_period, m),
               lambda period: oracles.check_pisano(m, period),
               lambda period: {"period_sum": period})


def restricted_job(m: int) -> Job:
    return Job("modfib.restricted_period", f"m={m}",
               lambda call: call(modfib.restricted_period, m),
               lambda alpha: oracles.check_rank(m, alpha))


def lucas_job(p: int) -> Job:
    def check(zeros):
        period = prime_pisano(p)
        want = oracles.lucas_zero_indices(p, period, oracles.prime_rank(p, period))
        expect(tuple(zeros) == want, f"Lucas zeros mod {p}: {zeros[:4]}..., expected {want[:4]}...")

    return Job("modfib.lucas_zeros", f"p={p}",
               lambda call: call(modfib.lucas_zeros, p), check,
               lambda zeros: {"period_sum": prime_pisano(p)})


def brute_job(p: int, lam: int, trace: bool) -> Job:
    if trace:
        return Job("modfib.bruteforce_trace", f"p={p} lambda<={lam}",
                   lambda call: call(modfib.bruteforce_trace, p, lam),
                   lambda tr: oracles.check_brute_trace(p, tr, prime_pisano(p)),
                   lambda tr: {"period_sum": prime_pisano(p) * p ** (lam - 1)})

    def check(d):
        expect((d * p ** lam).denominator == 1, f"density {d} is not a multiple of 1/{p}^{lam}")
        top = Fraction(oracles.residue_count(p, prime_pisano(p)), p)
        expect(0 < d <= top, f"density {d} mod {p}^{lam} exceeds the level-1 value {top}")

    return Job("modfib.residue_density_bruteforce", f"p={p} lambda={lam}",
               lambda call: call(modfib.residue_density_bruteforce, p, lam), check,
               lambda d: {"period_sum": prime_pisano(p) * p ** (lam - 1)})


class NumbersContext:
    """Check-side state shared by the numbers jobs of one run."""

    def __init__(self):
        self.digits = oracles.FactorialDigits()


def factor_search_job(ctx: NumbersContext, target: str, budget: int) -> Job:
    def check(pos):
        want = ctx.digits.prefix(budget).find(target)
        expect(pos == (None if want < 0 else want),
               f"{target!r} found at {pos}, the re-read digits say {want}")

    def work(pos):
        return {"digits_scanned": budget if pos is None else pos + len(target),
                "search_hits": int(pos is not None), "search_tries": 1}

    return Job("factorial_word.factor_search", f"{target!r} budget={budget}",
               lambda call: call(factorial_word.factor_search, 10, target, budget),
               check, work)


def coverage_job(ctx: NumbersContext, k: int, budget: int) -> Job:
    def check(report):
        text = ctx.digits.prefix(budget)
        found = len({text[i : i + k] for i in range(budget - k + 1)})
        expect(report.found == found and report.total == 10 ** k,
               f"{report.found}/{report.total} length-{k} blocks, re-read finds {found}")

    return Job("factorial_word.coverage_profile", f"k={k} budget={budget}",
               lambda call: call(factorial_word.coverage_profile, 10, k, budget),
               check, lambda r: {"digits_scanned": budget})


def leading_job(target: str, n_budget: int, must_hit: bool) -> Job:
    def check(n):
        if n is not None:
            expect(n <= n_budget and oracles.leading_digits(n, len(target)) == target,
                   f"{n}! does not start with {target}")
        else:
            expect(not must_hit, f"no hit for {target}, although {n_budget}! starts with it")

    def work(n):
        return {"leading_n_scanned": n_budget if n is None else n,
                "leading_hits": int(n is not None), "leading_tries": 1}

    return Job("factorial_word.leading_digits_search", f"{target} n<={n_budget}",
               lambda call: call(factorial_word.leading_digits_search, 10, target, n_budget),
               check, work)


def weyl_job(n_max: int, frequency: int, bins: int) -> Job:
    def check(report):
        hist = np.asarray(report.histogram)
        expect(int(hist.sum()) == n_max and len(hist) == bins, "histogram does not add up")
        # frac(log10 j!) from lgamma, independent of the compensated sum
        logs = np.array([math.lgamma(j + 1) for j in range(1, n_max + 1)]) / math.log(10)
        frac = logs - np.floor(logs)
        want = np.bincount(np.minimum((frac * bins).astype(np.int64), bins - 1),
                           minlength=bins)
        moved = int(np.abs(want - hist).sum())
        expect(moved <= 20 + n_max // 10 ** 5, f"{moved} histogram entries disagree")
        angle = 2 * math.pi * frequency * frac
        mag = math.hypot(np.cos(angle).sum(), np.sin(angle).sum()) / n_max
        expect(abs(mag - report.weyl_magnitude) <= 1e-6,
               f"Weyl magnitude {report.weyl_magnitude}, lgamma route gives {mag}")

    return Job("factorial_word.logfactorial_equidistribution",
               f"n={n_max} h={frequency} bins={bins}",
               lambda call: call(factorial_word.logfactorial_equidistribution, 10, n_max,
                                 frequency, bins),
               check)


class NumbersWorkload:
    name = "numbers"
    rounds_min = 3
    P_TOP = 2e6

    def __init__(self):
        self.ctx = NumbersContext()

    def round(self, rng: random.Random) -> list[Job]:
        jobs = []
        # Period walks cost pi(p) steps, so every modulus is a full-rank prime
        # (or its square) near a grid size, with eps alternating by slot.
        primes = [full_rank_prime(x, (1, -1)[i % 2])
                  for i, x in enumerate(log_grid(rng, 100, self.P_TOP, 6)[:-1])]
        primes.append(full_rank_prime(self.P_TOP * (1 - 0.01 * rng.random()), 1))
        jobs += [density_job(p) for p in primes]
        for i, x in enumerate(log_grid(rng, 100, 1e6, 6)):
            p = full_rank_prime(x if i % 2 else math.sqrt(x), (1, -1)[i // 2 % 2])
            jobs.append(pisano_job(p if i % 2 else p * p))
            q = full_rank_prime(x if i % 2 else math.sqrt(x), (-1, 1)[i // 2 % 2])
            jobs.append(restricted_job(q if i % 2 else q * q))
        jobs += [lucas_job(full_rank_prime(x, (1, -1)[i % 2]))
                 for i, x in enumerate(log_grid(rng, 100, 1e6, 5))]
        # a batch of moderate queries of nearly one cost (pi(p) = p - 1 near
        # 5e4 steps): twenty jobs that bracket the round's median job, so the
        # median falls inside the batch instead of between two grid sizes
        for _ in range(20):
            jobs.append(pisano_job(full_rank_prime(5e4 * (1 + 0.1 * (rng.random() - 0.5)), 1)))
        # ten quick queries on small moduli, as many as the heavy batch below
        # adds above the median, so the median stays inside the batch above
        for i, x in enumerate(log_grid(rng, 10, 1e3, 10)):
            p = full_rank_prime(x, (1, -1)[i % 2])
            jobs.append((density_job, pisano_job, restricted_job, lucas_job, pisano_job)[i % 5](p))
        # a batch of heavy queries of nearly one cost (pi(p) = p - 1 near
        # 1.3e5 steps, or log10 j! for j up to 8e4): twelve jobs around the
        # eleventh-dearest job of a round, where the tail percentile falls,
        # so the tail is read inside the batch instead of in the steep gaps
        # between the few dearest grid jobs
        for i in range(12):
            x = 1 + 0.1 * (rng.random() - 0.5)
            if i % 2:
                jobs.append(density_job(full_rank_prime(1.3e5 * x, 1)))
            else:
                jobs.append(weyl_job(round(8e4 * x), rng.randint(1, 3), rng.choice((10, 50, 100))))
        for i, x in enumerate(log_grid(rng, 100, 1e6, 4)):
            lam = (1, 2, 3, 2)[i]
            p = full_rank_prime(x ** (1 / lam), (1, -1)[i % 2])
            jobs.append(brute_job(p, lam, trace=i % 2 == 0))
        # short targets hit early, 7-digit ones mostly scan the whole budget
        budgets = [round(x) for x in log_grid(rng, 1e4, 1e6, 6)]
        for size, budget in zip((3, 7, 4, 7, 3, 7), budgets):
            target = "".join(rng.choice("0123456789") for _ in range(size))
            jobs.append(factor_search_job(self.ctx, target, budget))
        budgets = [round(x) for x in log_grid(rng, 1e3, 1e6, 4)]
        jobs += [coverage_job(self.ctx, k, b) for k, b in zip((2, 3, 4, 5), budgets)]
        # hit targets are the leading digits of n_budget!; random 7-digit
        # targets almost never hit, so both scan about n_budget factorials
        for i, x in enumerate(log_grid(rng, 1e3, 5e4, 4)):
            n_budget = round(x)
            if i % 2 == 0:
                target = oracles.leading_digits(n_budget, 7)
            else:
                target = str(rng.randint(1_000_000, 9_999_999))
            jobs.append(leading_job(target, n_budget, must_hit=i % 2 == 0))
        for x in log_grid(rng, 1e3, 1e6, 4):
            jobs.append(weyl_job(round(x), rng.randint(1, 3), rng.choice((10, 50, 100))))
        return shuffled(jobs, rng)

    def smoke(self, rng: random.Random) -> list[Job]:
        return [
            density_job(19), pisano_job(10), restricted_job(12), lucas_job(7),
            brute_job(19, 2, trace=True), brute_job(13, 1, trace=False),
            factor_search_job(self.ctx, "999", 1000),
            coverage_job(self.ctx, 2, 608),
            leading_job(oracles.leading_digits(50, 4), 50, must_hit=True),
            weyl_job(500, 1, 10),
        ]


# ---------------------------------------------------------------------------
# cli


def _plain(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _counts(profile_counts, start=1):
    return [{"n": n, "count": c} for n, c in enumerate(profile_counts, start)]


class CliContext:
    def __init__(self):
        import jsonschema   # only the cli workload needs it; keep it out of the others

        with open(os.path.join(SRC, "fibword", "schemas", "cli_output.schema.json")) as fh:
            self.validator = jsonschema.Draft202012Validator(json.load(fh))
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def request(self, argv: list[str]):
        """One `python -m fibword.cli` subprocess; returns (exit, stdout, stderr, rss_kb)."""
        proc = subprocess.Popen([sys.executable, "-m", "fibword.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env, cwd=ROOT)
        try:
            out = proc.stdout.read()
            err = proc.stderr.read()
        finally:
            proc.stdout.close()
            proc.stderr.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, err, usage.ru_maxrss


def cli_main_inprocess(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


cli_main_inprocess.span_name = "cli.main"
CliContext.request.span_name = "cli.request"


def _word_args(src: WordSource, length: int) -> list[str]:
    spec = "a->aa" if src.name == "unary" else src.name
    return ["--morphism", spec, "--length", str(length), "--seed-symbol", src.seed]


def cli_requests(rng: random.Random, compositions, scale: int) -> list[tuple]:
    """(argv, expected fields) for each of the 19 subcommands; scale 0 is the
    smallest size, 1 a medium one. Expected values come from the library."""
    src = lambda name: word_source(name, rng, compositions)  # noqa: E731
    pick = lambda: src(rng.choice(WORD_CLASSES))  # noqa: E731
    big = scale > 0
    out = []

    s, L = pick(), rng.randint(200, 2000) if big else rng.randint(20, 200)
    w = words.fixed_point_prefix(s.morph, s.seed, L)
    out.append((["generate", *_word_args(s, L)],
                {"word": str(w), "length": L}))

    s, L = pick(), rng.randint(2000, 5000) if big else rng.randint(300, 1000)
    n = rng.randint(5, 40)
    w = words.fixed_point_prefix(s.morph, s.seed, L)
    out.append((["complexity", *_word_args(s, L), "--n-max", str(n)],
                {"counts": _counts(complexity.factor_complexity(w, n).counts)}))

    s, L = pick(), rng.randint(100, 200) if big else rng.randint(30, 100)
    n = rng.randint(2, 5)
    w = words.fixed_point_prefix(s.morph, s.seed, L)
    out.append((["arithmetic", *_word_args(s, L), "--n-max", str(n)],
                {"counts": _counts(complexity.arithmetic_complexity(w, n).counts)}))

    s, L = pick(), rng.randint(1000, 4000) if big else rng.randint(200, 1000)
    n = rng.randint(5, 20)
    w = words.fixed_point_prefix(s.morph, s.seed, L)
    prof = complexity.factor_complexity(w, n)
    out.append((["sturmian", *_word_args(s, L), "--n-max", str(n)],
                {"sturmian_profile": complexity.is_sturmian_profile(prof)}))

    if rng.random() < 0.5:
        n = rng.randint(10, 14) if big else rng.randint(4, 10)
        census = complexity.square_free_census(3, n)
        out.append((["squarefree", "--alphabet-size", "3", "--n-max", str(n)],
                    {"counts": _counts(census.counts, 0)}))
    else:
        text = "".join(rng.choice("abc") for _ in range(rng.randint(5, 40 if big else 12)))
        ok = complexity.is_square_free(words.Word.from_string(
            text, words.Alphabet("".join(sorted(set(text))))))
        out.append((["squarefree", "--test", text], {"square_free": ok}))

    text = "".join(rng.choice("abc") for _ in range(rng.randint(50, 500) if big else rng.randint(3, 50)))
    image = complexity.delta_apply(words.Word.from_string(text, words.ternary_alphabet()))
    if rng.random() < 0.5:
        out.append((["delta", "--apply", text], {"output": str(image)}))
    else:
        out.append((["delta", "--factorize", str(image)], {"output": text}))

    s, L = pick(), rng.randint(100, 300) if big else rng.randint(10, 100)
    w = words.fixed_point_prefix(s.morph, s.seed, L)
    out.append((["palindromes", *_word_args(s, L)],
                {"palindromic_factors": complexity.palindromic_factor_count(w),
                 "scattered_palindromes": complexity.scattered_palindrome_count(w)}))

    s, L = pick(), rng.randint(2000, 20000) if big else rng.randint(100, 2000)
    letter = rng.randrange(len(s.frequencies))
    window = rng.randint(1, 100)
    w = words.fixed_point_prefix(s.morph, s.seed, L)
    rep = density.frequency_report(w, s.morph.source.label(letter), window=window)
    out.append((["frequency", *_word_args(s, L), "--symbol", s.morph.source.label(letter),
                 "--window", str(window)],
                {"frequency": _plain(rep.global_frequency), "window_sup": _plain(rep.window_sup)}))

    L = rng.randint(5000, 50000) if big else rng.randint(500, 5000)
    n = rng.randint(20, 200)
    w = words.fixed_point_prefix(words.fibonacci_morphism(), "a", L)
    rep = density.balance_check(w, "b", density.RARE_LETTER_TARGET, range(1, n + 1))
    out.append((["balance", "--morphism", "fibonacci", "--length", str(L), "--symbol", "b",
                 "--target", "golden", "--n-max", str(n)],
                {"worst_n": rep.worst_n, "within_bound": True}))

    n = rng.randint(20, 60) if big else rng.randint(2, 20)
    out.append((["golden", "--n-max", str(n)],
                {"ratios": [{"n": i, "ratio": _plain(r),
                             "deviation": float(density.golden_deviation(r))}
                            for i, r in enumerate(density.golden_density(n), 1)]}))

    if not big:
        m = rng.randint(2, 8)
        out.append((["perron", "--m", str(m)], {"rho": density.perron_eigenvalue(m).rho}))

    m = rng.randint(1000, 10000) if big else rng.randint(2, 1000)
    out.append((["pisano", str(m)], {"period": modfib.pisano_period(m)}))

    p = next_prime(rng.randint(1000, 10000) if big else rng.randint(3, 1000))
    out.append((["lucaszeros", str(p)], {"zeros": list(modfib.lucas_zeros(p))}))

    p = next_prime(rng.randint(1000, 10000) if big else rng.randint(3, 1000))
    out.append((["density", "--prime", str(p)], {"dens": _plain(modfib.density_formula(p).density)}))

    p = next_prime(rng.randint(3, 100), skip=(2,))
    lam = 2 if p < 100 and big else 1
    out.append((["densbrute", "--prime", str(p), "--max-level", str(lam)],
                {"levels": [{"lambda": i, "density": _plain(d)}
                            for i, d in enumerate(modfib.bruteforce_trace(p, lam))]}))

    kind = rng.randrange(3)
    budget = rng.randint(2000, 20000) if big else rng.randint(100, 2000)
    if kind == 0:
        out.append((["fword", "--digits", str(budget)],
                    {"prefix": str(factorial_word.factorial_word_prefix(10, budget))}))
    elif kind == 1:
        target = str(rng.randint(10, 999))
        out.append((["fword", "--find", target, "--digits", str(budget)],
                    {"position": factorial_word.factor_search(10, target, budget)}))
    else:
        k = rng.randint(1, 3)
        out.append((["fword", "--coverage", str(k), "--digits", str(budget)],
                    {"found": factorial_word.coverage_profile(10, k, budget).found}))

    n_budget = rng.randint(500, 3000) if big else rng.randint(10, 500)
    target = str(rng.randint(1, 99))
    out.append((["leading", "--target", target, "--n-budget", str(n_budget)],
                {"n": factorial_word.leading_digits_search(10, target, n_budget)}))

    n = rng.randint(2000, 20000) if big else rng.randint(10, 2000)
    rep = factorial_word.logfactorial_equidistribution(10, n)
    out.append((["weyl", "--n-max", str(n)], {"histogram": list(rep.histogram)}))

    cheap = ["golden-density", "perron-data", "modular-density", "bruteforce-density"]
    names = rng.sample(cheap, 2 if big else 1)
    out.append((["verify", "--only", ",".join(names)], {"passed": True}))
    return out


def cli_job(ctx: CliContext, argv: list[str], expected: dict) -> Job:
    argv = [*argv, "--format", "json"]

    def run(call):
        return call(ctx.request, argv)

    def check(result):
        code, out, err, _ = result
        expect(code == 0 and not err, f"exit {code}, stderr {err[:200]!r}")
        payload = json.loads(out)
        errors = sorted(ctx.validator.iter_errors(payload), key=str)
        expect(not errors, f"schema: {errors[0].message if errors else ''}")
        expect(payload["command"] == argv[0], f"command is {payload['command']}")
        for key, want in expected.items():
            expect(payload.get(key) == want,
                   f"{argv[0]}.{key} = {str(payload.get(key))[:80]}, library says {str(want)[:80]}")
        if argv[0] == "verify":
            names = [c["name"] for c in payload["checks"]]
            expect(names == argv[2].split(","), f"verify ran {names}")

    return Job("cli.request", " ".join(argv[:-2]), run, check,
               lambda result: {"child_rss_kb_max": result[3]}, argv)


def compare_inprocess(result, code: int, out: str):
    """CheckError when in-process cli.main disagrees with the subprocess."""
    def strip(text):
        payload = json.loads(text)
        for check in payload.get("checks", ()):
            check.pop("seconds", None)     # verify reports its own timings
        return payload

    if code != result[0] or strip(out) != strip(result[1]):
        return oracles.CheckError("in-process cli.main output differs from the subprocess")
    return None


class CliWorkload:
    name = "cli"
    rounds_min = 3

    def __init__(self):
        self.ctx = CliContext()
        self.compositions = _sturmian_compositions()

    def round(self, rng: random.Random) -> list[Job]:
        jobs = [cli_job(self.ctx, argv, want)
                for scale in (0, 1)
                for argv, want in cli_requests(rng, self.compositions, scale)]
        return shuffled(jobs, rng)

    def smoke(self, rng: random.Random) -> list[Job]:
        return [cli_job(self.ctx, argv, want)
                for argv, want in cli_requests(rng, self.compositions, 0)]


WORKLOADS = {"words": WordsWorkload, "numbers": NumbersWorkload, "cli": CliWorkload}


def warm_up(name: str) -> None:
    """Lazy first-call state a job would otherwise pay for: m-bonacci self
    checks, numpy's first use, the schema and jsonschema, a census pool."""
    rng = random.Random("warm-up")
    if name == "cli":
        ctx = CliContext()
        code, _ = cli_main_inprocess(["pisano", "7", "--format", "json"])
        expect(code == 0, "in-process cli warm-up failed")
        ctx.validator.validate({"command": "pisano", "modulus": 7, "period": 16})
        return
    for job in WORKLOADS[name]().smoke(rng):
        job.run(direct)
