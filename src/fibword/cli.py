"""Command line interface.

Every subcommand takes --format json|csv|text (text is the default), before
or after the command name; a value after it wins. JSON output is one object
per invocation with a "command" key and sorted keys, so runs are
byte-for-byte reproducible; exact rationals serialize as "num/den".
Errors go to stderr as a one-line JSON object and set the exit status:
1 for bad input or usage, 2 for an exhausted resource budget. A closed
stdout exits 1 with nothing on stderr.
"""

import argparse
import decimal
import json
import math
import os
import re
import sys
from fractions import Fraction

# each handler imports the library modules it runs, so a request loads only
# those: without a bytecode cache every module is compiled on each start
from .errors import BudgetError, DomainError

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_BUDGET = 2


class UsageError(Exception):
    """Bad command line; reported like a domain error but flagged as usage."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value such as -1/2, -1e-3 or -inf is an option's argument, not
        # an option; argparse alone only knows plain decimals like -0.5
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf$|nan$)", re.I)

    # argparse wants to sys.exit(2) on bad flags; route through our own
    # error path instead so every failure mode has one exit-code contract
    def error(self, message):
        raise UsageError(message)


def _plain(value):
    """Make a value JSON- and CSV-friendly; Fractions become 'num/den'."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _csv_cell(value):
    """A key/value CSV cell; a list or dict is written as JSON, so a reader can parse it back."""
    return json.dumps(value, sort_keys=True) if isinstance(value, (list, dict)) else value


def _emit(fmt: str, payload: dict, text_lines, csv_rows=None) -> None:
    if fmt == "json":
        print(json.dumps(_plain(payload), sort_keys=True))
    elif fmt == "csv":
        import csv
        import io

        if csv_rows is None:
            csv_rows = [("key", "value")]
            csv_rows += [(k, _csv_cell(_plain(v))) for k, v in sorted(payload.items())
                         if k != "command"]
        buf = io.StringIO()
        csv.writer(buf).writerows(csv_rows)
        # the last line ending goes in a write of its own, as with print: an
        # unbuffered stdout drops what a short write leaves over silently,
        # and only the next write to a closed pipe raises BrokenPipeError
        print(buf.getvalue()[:-2], end="\r\n")
    else:
        for line in text_lines:
            print(line)


def _fail(kind: str, message: str) -> None:
    print(json.dumps({"command": "error", "error": message, "kind": kind},
                     sort_keys=True), file=sys.stderr)


# ---------------------------------------------------------------------------
# word sources


def _resolve_morphism(spec: str):
    from . import words

    if "->" in spec:
        return words.Morphism.from_rules(spec)
    name, _, arg = spec.partition(":")
    name = name.strip().lower().replace("_", "-")
    if name == "fibonacci":
        return words.fibonacci_morphism()
    if name == "tribonacci":
        return words.tribonacci_morphism()
    if name in ("thue-morse", "thuemorse"):
        return words.thue_morse_morphism()
    if name == "mbonacci":
        if not arg:
            raise UsageError("mbonacci needs an order, e.g. --morphism mbonacci:4")
        try:
            order = int(arg)
        except ValueError:
            raise UsageError(f"mbonacci order must be an integer, got {arg!r}") from None
        return words.mbonacci_morphism(order)
    if name == "sturmian":
        if not arg:
            raise UsageError("sturmian needs steps, e.g. --morphism sturmian:phi,E")
        return words.compose_sturmian(arg.split(","))
    raise UsageError(
        f"unknown morphism {spec!r}; use fibonacci, tribonacci, thue-morse, "
        "mbonacci:M, sturmian:STEPS, or literal rules like 'a->ab,b->a'"
    )


def _add_word_source(sp) -> None:
    sp.add_argument("--text", help="the word itself, one character per symbol")
    sp.add_argument("--alphabet",
                    help="alphabet for --text (default: the characters present, sorted)")
    sp.add_argument("--morphism",
                    help="named morphism or rules; iterated to produce the word")
    sp.add_argument("--length", type=int,
                    help="prefix length to generate when using --morphism")
    sp.add_argument("--seed-symbol",
                    help="symbol to iterate from (default: first letter of the alphabet)")


def _fixed_point(spec: str, seed_symbol: str | None, length: int):
    """(morphism, seed, prefix) for --morphism, --seed-symbol and --length."""
    from . import words

    morph = _resolve_morphism(spec)
    seed = seed_symbol or morph.source.label(0)
    return morph, seed, words.fixed_point_prefix(morph, seed, length)


def _resolve_word(args):
    from . import words

    if args.text is not None and args.morphism is not None:
        raise UsageError("pass --text or --morphism, not both")
    if args.text is not None:
        # an empty word falls back to the alphabet "a", as squarefree --test does
        labels = args.alphabet or "".join(sorted(set(args.text))) or "a"
        return words.Word.from_string(args.text, words.Alphabet(labels))
    if args.morphism is not None:
        if args.length is None:
            raise UsageError("--morphism needs --length")
        return _fixed_point(args.morphism, args.seed_symbol, args.length)[2]
    raise UsageError("give a word with --text or with --morphism and --length")


def _parse_target(text: str) -> float:
    from . import density

    named = {
        # frequency of the rare letter 'b' in the fixed point of a->ab, b->a
        "golden": density.RARE_LETTER_TARGET,
        "inv-phi": density.GOLDEN_RATIO - 1,
        "inv-phi2": density.RARE_LETTER_TARGET,
    }
    key = text.strip().lower()
    if key in named:
        return named[key]
    try:
        value = float(Fraction(text)) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse target {text!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"target must be a finite number, got {text!r}")
    return value


# ---------------------------------------------------------------------------
# subcommands: each returns (payload, text lines) or (payload, text lines,
# CSV rows), and main names the command in the payload and renders it


def cmd_generate(args) -> tuple:
    morph, seed, w = _fixed_point(args.morphism, args.seed_symbol, args.length)
    text = str(w)
    payload = {
        "word": text,
        "length": len(w),
        "morphism": morph.rules_text(),
        "seed_symbol": seed,
    }
    return payload, [text]


def cmd_profile(args) -> tuple:
    from . import complexity

    w = _resolve_word(args)
    if args.command == "complexity":
        profile, letter = complexity.factor_complexity(w, args.n_max), "p"
    else:
        profile, letter = complexity.arithmetic_complexity(w, args.n_max), "a"
    rows = profile.rows()
    payload = {
        "kind": profile.kind,
        "word_length": len(w),
        "alphabet_size": len(w.alphabet),
        "counts": [{"n": n, "count": c} for n, c in rows],
    }
    lines = [f"{letter}({n}) = {c}" for n, c in rows]
    return payload, lines, [("n", "count")] + rows


def cmd_sturmian(args) -> tuple:
    from . import complexity

    w = _resolve_word(args)
    profile = complexity.factor_complexity(w, args.n_max)
    ok = complexity.is_sturmian_profile(profile)
    payload = {
        "word_length": len(w),
        "n_max": args.n_max,
        "sturmian_profile": ok,
    }
    verdict = "matches" if ok else "does not match"
    return payload, [f"factor complexity {verdict} n+1 for n = 1..{args.n_max}"]


def cmd_squarefree(args) -> tuple:
    from . import complexity, words

    if args.test is not None:
        if args.n_max is not None or args.alphabet_size is not None:
            raise UsageError("--test checks one word; it takes no --n-max or --alphabet-size")
        labels = "".join(sorted(set(args.test))) or "a"
        w = words.Word.from_string(args.test, words.Alphabet(labels))
        ok = complexity.is_square_free(w)
        payload = {"word": args.test, "square_free": ok}
        return payload, ["square-free" if ok else "contains a square"]
    k = 3 if args.alphabet_size is None else args.alphabet_size
    if args.list:
        found = complexity.square_free_words(k, args.n_max)
        names = sorted(str(w) for w in found)
        payload = {
            "alphabet_size": k,
            "words": names,
            "count": len(names),
        }
        return payload, names, [("word",)] + [(n,) for n in names]
    census = complexity.square_free_census(k, args.n_max)
    rows = list(enumerate(census.counts))
    payload = {
        "alphabet_size": census.alphabet_size,
        "counts": [{"n": n, "count": c} for n, c in rows],
        "terminated": census.terminated,
    }
    lines = [f"a({n}) = {c}" for n, c in rows]
    if census.terminated:
        lines.append(f"no square-free words longer than {len(census.counts) - 2} exist")
    return payload, lines, [("n", "count")] + rows


def cmd_delta(args) -> tuple:
    from . import complexity, words

    if (args.apply is None) == (args.factorize is None):
        raise UsageError("pass exactly one of --apply or --factorize")
    if args.factorize is None:
        w = words.Word.from_string(args.apply, words.ternary_alphabet())
        direction, output = "apply", str(complexity.delta_apply(w))
    else:
        w = words.Word.from_string(args.factorize, words.binary_alphabet())
        direction, output = "factorize", str(complexity.delta_factorize(w))
    return {"direction": direction, "input": str(w), "output": output}, [output]


def cmd_palindromes(args) -> tuple:
    from . import complexity

    w = _resolve_word(args)
    # the scattered count checks its length budget, so an over-budget word
    # is refused before any factor counting
    scattered = complexity.scattered_palindrome_count(w)
    factors = complexity.palindromic_factor_count(w)
    payload = {
        "word_length": len(w),
        "palindromic_factors": factors,
        "scattered_palindromes": scattered,
    }
    lines = [
        f"palindromic factors:     {factors}",
        f"scattered palindromes:   {scattered}",
    ]
    if args.by_length:
        by_len = complexity.scattered_palindromes_by_length(w)
        payload["scattered_by_length"] = [
            {"length": t, "count": c} for t, c in enumerate(by_len, start=1)
        ]
        lines += [f"length {t}: {c}" for t, c in enumerate(by_len, start=1)]
    return payload, lines


def cmd_frequency(args) -> tuple:
    from . import density

    w = _resolve_word(args)
    target = _parse_target(args.target) if args.target is not None else None
    report = density.frequency_report(w, args.symbol, window=args.window, target=target)
    payload = {
        "symbol": report.symbol,
        "word_length": report.word_length,
        "frequency": report.global_frequency,
        "frequency_float": float(report.global_frequency),
    }
    lines = [f"freq({report.symbol}) = {report.global_frequency} "
             f"~ {float(report.global_frequency):.10f}"]
    if report.window is not None:
        payload["window"] = report.window
        payload["window_sup"] = report.window_sup
        lines.append(f"max over windows of {report.window}: {report.window_sup} "
                     f"~ {float(report.window_sup):.10f}")
    if report.target is not None:
        payload["target"] = report.target
        payload["max_deviation"] = report.max_deviation
        lines.append(f"deviation from {report.target:.10f}: {report.max_deviation:.3e}")
    return payload, lines


def cmd_balance(args) -> tuple:
    from . import density

    if args.step < 1:
        raise UsageError(f"--step must be at least 1, got {args.step}")
    w = _resolve_word(args)
    target = _parse_target(args.target)
    ns = range(args.n_min, args.n_max + 1, args.step)
    report = density.balance_check(w, args.symbol, target, ns)
    payload = {
        "symbol": report.symbol,
        "target": report.target,
        "word_length": len(w),
        "within_bound": report.within_bound(),
        "worst_n": report.worst_n,
        "worst_position": report.worst_position,
        "worst_deviation": report.worst_deviation,
    }
    lines = [
        f"checked window lengths {args.n_min}..{args.n_max} (step {args.step})",
        "every deviation within 1/n",
        f"worst: n = {report.worst_n} at position {report.worst_position}, "
        f"deviation {report.worst_deviation:.6e} <= {1.0 / report.worst_n:.6e}",
    ]
    csv_rows = [("n", "max_deviation", "position")] + list(report.rows)
    return payload, lines, csv_rows


def cmd_golden(args) -> tuple:
    from . import density, modfib

    # the largest number printed is F(n_max + 1), as a Decimal, whose str() has no
    # digit limit; the interpreter's limit on an int's digits (0 for none; Pythons
    # before 3.10.7 have none) is kept only as golden's size bound. F(n + 1) >=
    # 10^limit once n >= 5 limit, so F is only evaluated below that
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and args.n_max > 0 and (args.n_max >= 5 * limit
                                     or modfib.fib(args.n_max + 1) >= 10 ** limit):
        raise DomainError(f"F(n_max + 1) for n_max = {args.n_max} has more than {limit} "
                          "digits, the interpreter's limit for printing an integer")
    if args.n_max < 1:
        raise DomainError("n_max must be at least 1")
    # (F(n), F(n + 1)) as Decimals, whose str() is linear in the digits where an
    # int's is quadratic; at the greatest precision and exponent every sum is exact,
    # also with the digit limit lifted
    add = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX).add
    # consecutive Fibonacci numbers are coprime, so F(n)/F(n + 1) is printed in
    # lowest terms with each F converted to a string once. |F(n)/F(n + 1) - (phi - 1)|
    # = 1/(phi^(n + 1) F(n + 1)) < 1/F(n + 1)^2 (Binet, with F(n + 1) <= phi^n), so
    # from F(n + 1) >= 2^538 the deviation is below 2^-1076, and golden_deviation's
    # 2^-65 relative error leaves it below half the least subnormal: its float is
    # 0.0, and no Fraction is built there.
    cutoff = decimal.Decimal(2 ** 538)
    f, f_next, text = decimal.Decimal(0), decimal.Decimal(1), "1"  # F(0), F(1), str(F(1))
    rows = []
    for n in range(1, args.n_max + 1):
        f, f_next = f_next, add(f, f_next)
        text_next = str(f_next)
        rows.append((n, f"{text}/{text_next}", 0.0 if f_next >= cutoff
                     else float(density.golden_deviation(Fraction(int(f), int(f_next))))))
        text = text_next
    payload = {
        "ratios": [{"n": n, "ratio": r, "deviation": dev} for n, r, dev in rows],
        "tolerance": 1e-15,
    }
    # the text line prints F(1)/F(2) as "1"; JSON and CSV keep "1/1"
    lines = [f"F({n})/F({n + 1}) = {r.removesuffix('/1')} (off by {dev:.3e})"
             for n, r, dev in rows]
    certified = density.golden_deviation_below(Fraction(int(f), int(f_next)),
                                               Fraction(1, 10 ** 15))
    payload["last_within_1e15"] = certified
    if certified:
        lines.append(f"F({args.n_max})/F({args.n_max + 1}) is within 1e-15 of phi - 1 "
                     "(certified exactly)")
    return payload, lines, [("n", "ratio", "deviation")] + rows


def cmd_perron(args) -> tuple:
    import dataclasses

    from . import density

    data = density.perron_eigenvalue(args.m)
    payload = dataclasses.asdict(data)
    lo, hi = data.bracket
    lines = [
        f"rho_{data.m} = {data.rho!r}",
        f"root in [{lo}, {hi}]",
        f"|p(rho)| = {data.poly_residual:.2e}",
        "frequencies: " + ", ".join(f"{f:.12f}" for f in data.frequencies),
        "conjugate moduli (estimates): "
        + ", ".join(f"{c:.6f}" for c in data.conjugate_moduli),
        f"Pisot: {'yes' if data.pisot else 'no'}",
    ]
    return payload, lines


def cmd_pisano(args) -> tuple:
    from . import modfib

    period = modfib.pisano_period(args.modulus)
    payload = {"modulus": args.modulus, "period": period}
    return payload, [str(period)]


def cmd_lucaszeros(args) -> tuple:
    from . import modfib

    if not modfib.is_prime(args.prime):
        raise DomainError(f"{args.prime} is not prime")
    period, _, zeros = modfib._periods(args.prime)
    payload = {
        "prime": args.prime,
        "pisano": period,
        "zeros": list(zeros),
    }
    text = ", ".join(map(str, zeros)) if zeros else "(none)"
    return payload, [f"L(i) = 0 mod {args.prime} at i = {text} "
                     f"within one period of {period}"]


def cmd_density(args) -> tuple:
    from . import modfib

    res = modfib.density_formula(args.prime)
    ctx = res.context
    payload = {
        "prime": ctx.prime,
        "eps": ctx.eps,
        "e": ctx.e,
        "pisano": ctx.pisano,
        "restricted": ctx.restricted,
        "lucas_zeros": list(ctx.lucas_zero_indices),
        "N": res.n_count,
        "Z": res.z_count,
        "dens": res.density,
        "dens_float": float(res.density),
        "shared_outside_residue": res.shared_outside_residue,
    }
    lines = [
        f"p = {ctx.prime}, eps = {ctx.eps:+d}, e = {ctx.e}",
        f"pisano period {ctx.pisano}, restricted period {ctx.restricted}",
        f"N = {res.n_count}, Z = {res.z_count}",
        f"dens = {res.density} ~ {float(res.density):.10f}",
    ]
    return payload, lines


def cmd_densbrute(args) -> tuple:
    from . import modfib

    trace = modfib.bruteforce_trace(args.prime, args.max_level)
    payload = {
        "prime": args.prime,
        "levels": [{"lambda": lam, "density": d} for lam, d in enumerate(trace)],
    }
    lines = [f"lambda={lam}: {d} ~ {float(d):.10f}" for lam, d in enumerate(trace)]
    csv_rows = [("lambda", "density")] + [(lam, _plain(d)) for lam, d in enumerate(trace)]
    return payload, lines, csv_rows


def cmd_fword(args) -> tuple:
    from . import factorial_word

    payload = {"base": args.base}
    lines = []
    if args.blocks is not None:
        if args.coverage is None:
            raise UsageError("--blocks is a budget for --coverage only")
        if args.digits is not None:
            raise UsageError("give --digits or --blocks as the --coverage budget, not both")
    if args.coverage is not None:
        if args.digits is None and args.blocks is None:
            raise UsageError("--coverage needs --digits or --blocks as the budget")
        report = factorial_word.coverage_profile(args.base, args.coverage, args.digits,
                                                 args.blocks)
        if args.blocks is None:
            payload["digit_budget"] = args.digits
        else:
            payload["block_budget"] = args.blocks
        payload.update({
            "k": report.k,
            "found": report.found,
            "total": report.total,
            "complete": report.complete,
            "missing_sample": list(report.missing_sample),
        })
        lines.append(f"{report.found}/{report.total} length-{report.k} blocks seen")
        if report.missing_sample:
            lines.append("missing (sample): " + ", ".join(report.missing_sample))
    elif args.find is not None:
        if args.digits is None:
            raise UsageError("--find needs --digits as the search budget")
        pos = factorial_word.factor_search(args.base, args.find, args.digits)
        payload.update({"target": args.find, "digit_budget": args.digits,
                        "position": pos})
        if pos is None:
            lines.append(f"{args.find!r} not found in the first {args.digits} digits")
        else:
            lines.append(f"{args.find!r} first occurs at position {pos}")
    else:
        if args.digits is None:
            raise UsageError("give --digits for a prefix, or --find/--coverage")
        prefix = str(factorial_word.factorial_word_prefix(args.base, args.digits))
        payload.update({"digits": args.digits, "prefix": prefix})
        lines.append(prefix)
    return payload, lines


def cmd_leading(args) -> tuple:
    from . import factorial_word

    n = factorial_word.leading_digits_search(args.base, args.target, args.n_budget)
    payload = {
        "base": args.base,
        "target": args.target,
        "n_budget": args.n_budget,
        "n": n,
    }
    if n is None:
        lines = [f"no n <= {args.n_budget} has n! starting with {args.target!r} "
                 f"in base {args.base}"]
    else:
        lines = [f"{n}! starts with {args.target!r} in base {args.base}"]
    return payload, lines


def cmd_weyl(args) -> tuple:
    from . import factorial_word

    report = factorial_word.logfactorial_equidistribution(
        args.base, args.n_max, frequency=args.frequency, bins=args.bins
    )
    payload = {
        "base": args.base,
        "n_max": args.n_max,
        "frequency": args.frequency,
        "bins": args.bins,
        "weyl_magnitude": report.weyl_magnitude,
        "error_bound": report.summation_error_bound,
        "magnitude_error_bound": report.magnitude_error_bound,
        "near_edge": report.near_edge,
        "min_bin": min(report.histogram),
        "max_bin": max(report.histogram),
        "histogram": list(report.histogram),
    }
    lines = [
        f"|S_N| / N = {report.weyl_magnitude:.6f} for N = {args.n_max}, "
        f"h = {args.frequency}",
        f"rounding error bound {report.summation_error_bound:.2e}",
        f"|S_N| / N error bound {report.magnitude_error_bound:.2e}",
        f"histogram of {{log_b n!}} over {args.bins} bins: "
        f"min {min(report.histogram)}, max {max(report.histogram)}",
        f"{report.near_edge} of {args.n_max} values within the error bound of a bin edge",
    ]
    csv_rows = [("bin", "count")] + list(enumerate(report.histogram))
    return payload, lines, csv_rows


def cmd_verify(args) -> tuple:
    from . import verify   # only this subcommand compiles the checks

    names = None
    if args.only:
        names = [n for spec in args.only for n in spec.split(",") if n]
        unknown = [n for n in names if n not in verify.CHECKS]
        if unknown or not names:
            what = f"unknown checks: {', '.join(unknown)}" if unknown else "--only names no check"
            raise UsageError(f"{what}; available: {', '.join(verify.CHECKS)}")
    results = verify.run_checks(names, seed=args.seed)
    payload = {
        "seed": args.seed,
        "passed": all(r.passed for r in results),
        "checks": [
            {"name": r.name, "passed": r.passed, "seconds": round(r.seconds, 3),
             "limit": r.limit, "detail": r.detail}
            for r in results
        ],
    }
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.name:24s} {r.seconds:7.2f}s  {r.detail}")
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    csv_rows = [("name", "passed", "seconds")]
    csv_rows += [(r.name, r.passed, round(r.seconds, 3)) for r in results]
    return payload, lines, csv_rows


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fibword",
        description="Substitution words, complexity profiles, symbol densities, "
                    "Fibonacci residues, and the concatenated-factorials word.",
    )
    formats = ("text", "json", "csv")
    parser.add_argument("--format", choices=formats, default="text")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, func, help_text):
        sp = sub.add_parser(name, help=help_text, description=help_text)
        sp.set_defaults(func=func)
        # suppressed, so the subparser sets --format only when given after
        # the command, and a value given before it is not reset to text
        sp.add_argument("--format", choices=formats, default=argparse.SUPPRESS)
        return sp

    sp = add("generate", cmd_generate, "iterate a morphism and print a fixed-point prefix")
    sp.add_argument("--morphism", required=True)
    sp.add_argument("--length", type=int, required=True)
    sp.add_argument("--seed-symbol")

    for name, help_text in (("complexity", "factor complexity profile p(n)"),
                            ("arithmetic", "arithmetic complexity profile a(n)")):
        sp = add(name, cmd_profile, help_text)
        _add_word_source(sp)
        sp.add_argument("--n-max", type=int, required=True)

    sp = add("sturmian", cmd_sturmian, "test whether p(n) = n + 1 up to n-max")
    _add_word_source(sp)
    sp.add_argument("--n-max", type=int, required=True)

    sp = add("squarefree", cmd_squarefree, "square-free tests, censuses, and listings")
    one = sp.add_mutually_exclusive_group()
    one.add_argument("--test", help="single word to test for squares")
    sp.add_argument("--alphabet-size", type=int, help="letters (default 3)")
    sp.add_argument("--n-max", type=int, help="census horizon (omit on <= 2 letters)")
    one.add_argument("--list", action="store_true", help="list the words themselves")

    sp = add("delta", cmd_delta, "apply or invert the block code a->abb, b->ab, c->a")
    sp.add_argument("--apply", metavar="WORD")
    sp.add_argument("--factorize", metavar="WORD")

    sp = add("palindromes", cmd_palindromes,
             "count palindromic factors and scattered palindromic subwords")
    _add_word_source(sp)
    sp.add_argument("--by-length", action="store_true")

    sp = add("frequency", cmd_frequency, "symbol frequency, optionally per window")
    _add_word_source(sp)
    sp.add_argument("--symbol", required=True)
    sp.add_argument("--window", type=int)
    sp.add_argument("--target", help="number, fraction, or golden/inv-phi/inv-phi2")

    sp = add("balance", cmd_balance,
             "check |window frequency - target| <= 1/n over a range of n")
    _add_word_source(sp)
    sp.add_argument("--symbol", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--n-min", type=int, default=1)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--step", type=int, default=1)

    sp = add("golden", cmd_golden, "Fibonacci ratios F(n)/F(n+1) and their distance "
                                   "to phi - 1")
    sp.add_argument("--n-max", type=int, required=True)

    sp = add("perron", cmd_perron, "dominant eigenvalue data of the m-bonacci matrix")
    sp.add_argument("--m", type=int, required=True)

    sp = add("pisano", cmd_pisano, "period of the Fibonacci sequence mod m")
    sp.add_argument("modulus", type=int)

    sp = add("lucaszeros", cmd_lucaszeros, "indices of Lucas zeros mod p in one period")
    sp.add_argument("prime", type=int)

    sp = add("density", cmd_density,
             "exact limiting density of Fibonacci residues mod p^lambda")
    sp.add_argument("--prime", type=int, required=True)

    sp = add("densbrute", cmd_densbrute,
             "brute-force residue densities by walking full periods")
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--max-level", type=int, default=1, metavar="LMAX")

    sp = add("fword", cmd_fword, "digits of the concatenated factorials word")
    sp.add_argument("--base", type=int, default=10)
    sp.add_argument("--digits", type=int, help="prefix length / digit budget")
    task = sp.add_mutually_exclusive_group()
    task.add_argument("--find", metavar="DIGITS", help="search for a digit block")
    task.add_argument("--coverage", type=int, metavar="K",
                      help="audit which length-K blocks appear")
    sp.add_argument("--blocks", type=int, metavar="N",
                    help="coverage budget as a factorial count: scan through n!")

    sp = add("leading", cmd_leading, "smallest n whose n! starts with given digits")
    sp.add_argument("--base", type=int, default=10)
    sp.add_argument("--target", required=True, metavar="DIGITS")
    sp.add_argument("--n-budget", type=int, required=True)

    sp = add("weyl", cmd_weyl, "equidistribution diagnostics for {log_b n!}")
    sp.add_argument("--base", type=int, default=10)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--frequency", type=int, default=1)
    sp.add_argument("--bins", type=int, default=100)

    sp = add("verify", cmd_verify, "run the end-to-end verification checks")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--only", action="append", metavar="NAME[,NAME...]",
                    help="run a subset of checks (repeatable)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        _fail("usage", str(exc))
        return EXIT_DOMAIN
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        payload, *rendered = args.func(args)
    except UsageError as exc:
        _fail("usage", str(exc))
        return EXIT_DOMAIN
    except BudgetError as exc:
        _fail("resource", str(exc))
        return EXIT_BUDGET
    except DomainError as exc:
        _fail("domain", str(exc))
        return EXIT_DOMAIN
    payload["command"] = args.command
    try:
        _emit(args.format, payload, *rendered)
        sys.stdout.flush()
    except BrokenPipeError:  # quietly: devnull takes the interpreter's final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_DOMAIN
    # only verify reports "passed", false when one of its checks failed
    return EXIT_DOMAIN if payload.get("passed") is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
