import csv
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fibword
from fibword import BudgetError, budgets, cli, fib_pair_mod, verify

SCHEMA = json.loads(
    resources.files("fibword").joinpath("schemas/cli_output.schema.json").read_text()
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert err == ""
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


def test_generate_text(capsys):
    code, out, err = run(capsys, "generate", "--morphism", "fibonacci", "--length", "13")
    assert code == 0
    assert out.strip() == "abaababaabaab"


def test_generate_json_schema(capsys):
    code, payload = run_json(
        capsys, "generate", "--morphism", "fibonacci", "--length", "13"
    )
    assert code == 0
    assert payload["word"] == "abaababaabaab"
    assert payload["length"] == 13
    assert payload["morphism"] == "a->ab,b->a"


def test_generate_literal_rules_and_seed(capsys):
    # b -> a is not prolongable, so iterating from b is a domain error
    code, out, err = run(
        capsys, "generate", "--morphism", "a->ba,b->a", "--length", "8",
        "--seed-symbol", "b",
    )
    assert code == 1
    assert json.loads(err)["kind"] == "domain"
    # but the same rules iterate fine from a
    code, out, err = run(capsys, "generate", "--morphism", "a->ba,b->a",
                         "--length", "8")
    assert code == 1  # a -> ba does not start with a either
    code, out, err = run(capsys, "generate", "--morphism", "a->ab,b->a",
                         "--length", "8")
    assert code == 0 and out.strip() == "abaababa"


def test_generate_sturmian_composition(capsys):
    code, payload = run_json(
        capsys, "generate", "--morphism", "sturmian:phi,phit", "--length", "6",
        "--seed-symbol", "b",
    )
    assert code == 0
    assert payload["morphism"] == "a->baa,b->ba"
    assert payload["word"] == "babaab"


def test_complexity_profile(capsys):
    code, payload = run_json(
        capsys, "complexity", "--text", "abaab", "--n-max", "5"
    )
    assert code == 0
    assert payload["counts"] == [
        {"n": 1, "count": 2}, {"n": 2, "count": 3}, {"n": 3, "count": 3},
        {"n": 4, "count": 2}, {"n": 5, "count": 1},
    ]


def test_complexity_csv(capsys):
    code, out, err = run(
        capsys, "complexity", "--text", "abaab", "--n-max", "3", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["n,count", "1,2", "2,3", "3,3"]


def test_complexity_from_morphism(capsys):
    code, payload = run_json(
        capsys, "complexity", "--morphism", "thue-morse", "--length", "4000",
        "--n-max", "4",
    )
    assert code == 0
    assert [row["count"] for row in payload["counts"]] == [2, 4, 6, 10]


def test_arithmetic_command(capsys):
    code, payload = run_json(capsys, "arithmetic", "--text", "aba", "--n-max", "3")
    assert code == 0
    assert [row["count"] for row in payload["counts"]] == [2, 3, 1]


def test_sturmian_command(capsys):
    code, payload = run_json(
        capsys, "sturmian", "--morphism", "fibonacci", "--length", "3000",
        "--n-max", "100",
    )
    assert code == 0
    assert payload["sturmian_profile"] is True


def test_squarefree_test_and_census(capsys):
    code, payload = run_json(capsys, "squarefree", "--test", "abcabc")
    assert code == 0 and payload["square_free"] is False

    code, payload = run_json(capsys, "squarefree", "--alphabet-size", "3",
                             "--n-max", "6")
    assert code == 0
    assert [row["count"] for row in payload["counts"]] == [1, 3, 6, 12, 18, 30, 42]


def test_squarefree_binary_listing(capsys):
    code, payload = run_json(capsys, "squarefree", "--alphabet-size", "2", "--list")
    assert code == 0
    assert payload["words"] == ["a", "ab", "aba", "b", "ba", "bab"]


def test_delta_commands(capsys):
    code, payload = run_json(capsys, "delta", "--apply", "abc")
    assert code == 0 and payload["output"] == "abbaba"
    code, payload = run_json(capsys, "delta", "--factorize", "abbaba")
    assert code == 0 and payload["output"] == "abc"


def test_delta_factorize_error(capsys):
    code, out, err = run(capsys, "delta", "--factorize", "bb")
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    jsonschema.validate(payload, SCHEMA)
    assert payload["kind"] == "domain"


def test_palindromes_command(capsys):
    code, payload = run_json(
        capsys, "palindromes", "--text", "abaab", "--by-length"
    )
    assert code == 0
    assert payload["palindromic_factors"] == 5
    assert payload["scattered_palindromes"] == 8
    assert [row["count"] for row in payload["scattered_by_length"]] == [2, 2, 3, 1]


def test_palindromes_refuses_a_long_word_before_counting(capsys):
    # counting the factors of a^(10^5) first would peak near 13 MiB
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "palindromes", "--morphism", "a->aa",
                             "--seed-symbol", "a", "--length", "100000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["kind"] == "resource" and error["error"].endswith(
        "for scattered palindrome totals exceeds the FIBWORD_SP_TOTAL_MAXLEN budget 400")
    assert peak < 2 * 2 ** 20


def test_frequency_command(capsys):
    code, payload = run_json(
        capsys, "frequency", "--morphism", "fibonacci", "--length", "6765",
        "--symbol", "b", "--target", "golden",
    )
    assert code == 0
    assert payload["frequency"] == "2584/6765"
    assert payload["max_deviation"] < 1e-7


def test_balance_command(capsys):
    code, payload = run_json(
        capsys, "balance", "--morphism", "fibonacci", "--length", "5000",
        "--symbol", "b", "--target", "golden", "--n-min", "10", "--n-max", "50",
    )
    assert code == 0
    assert payload["within_bound"] is True


def test_golden_command(capsys):
    code, payload = run_json(capsys, "golden", "--n-max", "10")
    assert code == 0
    assert payload["ratios"][-1]["ratio"] == "55/89"
    assert payload["last_within_1e15"] is False


def test_golden_deviations_past_the_cutoff_are_zero(capsys, monkeypatch):
    """From F(n + 1) >= 2^538 golden prints 0.0 without computing the deviation;
    every deviation it prints is the float of golden_deviation."""
    deviation = fibword.golden_deviation
    calls = []
    monkeypatch.setattr(fibword.density, "golden_deviation",
                        lambda d: calls.append(d) or deviation(d))
    code, payload = run_json(capsys, "golden", "--n-max", "790")
    assert code == 0
    cutoff = next(n for n in range(1, 791) if fibword.fib(n + 1) >= 2 ** 538)
    assert cutoff == 776 and len(calls) == cutoff - 1
    for row in payload["ratios"]:
        assert row["deviation"] == float(deviation(Fraction(row["ratio"])))
    assert payload["ratios"][700]["deviation"] > 0


GOLDEN_REFUSAL = ("F(n_max + 1) for n_max = 20577 has more than 4300 digits, "
                  "the interpreter's limit for printing an integer")


def test_golden_answer_does_not_depend_on_the_interpreter_digit_limit(capsys):
    """golden prints every F as a Decimal, never through str(int), and refuses
    n_max > 20 576 whatever limit the interpreter sets on str(int): F(20 577) is
    the last Fibonacci number of at most 4300 digits, the default limit."""
    requests = [("golden", "--n-max", "3064", "--format", fmt) for fmt in ("text", "csv")]
    requests += [("golden", "--n-max", n, "--format", "json") for n in ("3064", "20576")]
    want = {argv: run(capsys, *argv) for argv in requests}
    ratio = json.loads(want["golden", "--n-max", "20576", "--format", "json"][1])
    assert len(ratio["ratios"][-1]["ratio"].split("/")[1]) == 4300
    default = sys.get_int_max_str_digits()
    for limit in (640, 0):
        sys.set_int_max_str_digits(limit)
        try:
            for argv in requests:
                assert run(capsys, *argv) == want[argv], (limit, argv)
            start = time.perf_counter()
            code, out, err = run(capsys, "golden", "--n-max", "20577")
            assert time.perf_counter() - start < 1
        finally:
            sys.set_int_max_str_digits(default)
        assert code == 1 and out == "" and err.count("\n") == 1
        assert json.loads(err) == {"command": "error", "error": GOLDEN_REFUSAL,
                                   "kind": "domain"}
    code, out, err = run(capsys, "golden", "--n-max", "0")
    assert code == 1 and "at least 1" in json.loads(err)["error"]


def test_perron_command(capsys):
    code, payload = run_json(capsys, "perron", "--m", "3")
    assert code == 0
    assert payload["rho"] == pytest.approx(1.8392867552141612)
    assert payload["pisot"] is True
    assert len(payload["frequencies"]) == 3
    lo, hi = map(Fraction, payload["bracket"])
    assert hi - lo == Fraction(1, 2 ** 60) and payload["rho"] == float(lo)


def test_csv_list_cells_read_back_as_json(capsys):
    payload = run_json(capsys, "perron", "--m", "2")[1]
    code, out, err = run(capsys, "perron", "--m", "2", "--format", "csv")
    assert (code, err) == (0, "")
    rows = dict(csv.reader(io.StringIO(out)))
    lists = {key for key, value in payload.items() if isinstance(value, list)}
    assert lists == {"bracket", "frequencies", "conjugate_moduli"}
    for key in lists:
        assert json.loads(rows[key]) == payload[key], key


def _csv_writer_row(row) -> str:
    """The oracle: csv.writer's line for a row whose cells are first converted as
    the CLI did before it joined cells itself (Fractions as "num/den", lists and
    dicts as sorted JSON)."""
    def plain(value):
        if isinstance(value, Fraction):
            return f"{value.numerator}/{value.denominator}"
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [plain(v) for v in value]
        return value

    cells = [json.dumps(c, sort_keys=True) if isinstance(c, (list, dict)) else c
             for c in map(plain, row)]
    buf = io.StringIO()
    csv.writer(buf).writerow(cells)
    return buf.getvalue()


_CSV_TEXT = st.text(alphabet=',"\r\n éab0', max_size=8)
_CSV_SCALAR = (_CSV_TEXT | st.integers() | st.floats() | st.booleans() | st.none()
               | st.fractions(max_denominator=10 ** 6))
_CSV_CELL = (_CSV_SCALAR | st.lists(_CSV_SCALAR, max_size=3)
             | st.dictionaries(_CSV_TEXT, _CSV_SCALAR, max_size=3))


# csv.writer writes a row of one empty cell as "" (an empty line would read back
# as no row at all), which the join does not; no CLI row has that shape: the
# key/value rows have two cells and squarefree --list words are nonempty
@settings(max_examples=400)
@given(st.lists(_CSV_CELL, min_size=2, max_size=3)
       | st.tuples(st.text(alphabet=',"\r\n éab0', min_size=1, max_size=8)))
def test_csv_cells_are_quoted_as_csv_writer_quotes_them(row):
    assert ",".join(map(cli._csv_cell, row)) + "\r\n" == _csv_writer_row(row)


@pytest.mark.parametrize("symbol", [",", '"'])
def test_csv_key_value_cells_read_back_as_the_json_payload(capsys, symbol):
    """Cells holding commas and quotes read back through csv.reader unchanged."""
    argv = ["frequency", "--text", 'a,"b,a""', "--symbol", symbol, "--window", "2"]
    payload = run_json(capsys, *argv)[1]
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert (code, err) == (0, "")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "value"]
    cells = dict(rows[1:])
    del payload["command"]
    assert cells.keys() == payload.keys() and cells["symbol"] == symbol
    for key, value in payload.items():
        assert (cells[key] if isinstance(value, str) else json.loads(cells[key])) == value, key


def test_json_keys_are_the_schema_properties(capsys):
    """Each command the schema describes prints exactly its declared keys."""
    invocations = {
        "density": ["density", "--prime", "7"],
        "pisano": ["pisano", "7"],
        "perron": ["perron", "--m", "3"],
        "densbrute": ["densbrute", "--prime", "7"],
        "generate": ["generate", "--morphism", "fibonacci", "--length", "5"],
        "weyl": ["weyl", "--n-max", "50"],
        "error": ["pisano", "1"],
    }
    entries = {e["if"]["properties"]["command"]["const"]: e["then"] for e in SCHEMA["allOf"]}
    assert sorted(entries) == sorted(invocations)
    for command, argv in invocations.items():
        code, out, err = run(capsys, *argv, "--format", "json")
        payload = json.loads(err if command == "error" else out)
        jsonschema.validate(payload, SCHEMA)
        assert payload["command"] == command
        assert set(payload) == {"command", *entries[command]["properties"]}, command


def test_pisano_text_is_bare_number(capsys):
    code, out, err = run(capsys, "pisano", "7")
    assert code == 0 and out.strip() == "16"


def test_pisano_json(capsys):
    code, payload = run_json(capsys, "pisano", "10")
    assert code == 0 and payload["period"] == 60


def test_lucaszeros_command(capsys):
    code, payload = run_json(capsys, "lucaszeros", "7")
    assert code == 0 and payload["zeros"] == [4, 12]


def test_density_command(capsys):
    code, payload = run_json(capsys, "density", "--prime", "13")
    assert code == 0
    assert payload["dens"] == "9/13"
    assert payload["N"] == 9 and payload["Z"] == 0
    assert payload["pisano"] == 28 and payload["restricted"] == 7


def test_densbrute_command(capsys):
    code, payload = run_json(capsys, "densbrute", "--prime", "19", "--max-level", "2")
    assert code == 0
    assert payload["levels"][0] == {"lambda": 0, "density": "1/1"}
    assert payload["levels"][1] == {"lambda": 1, "density": "12/19"}
    assert payload["levels"][2] == {"lambda": 2, "density": "210/361"}


def test_fword_prefix(capsys):
    code, out, err = run(capsys, "fword", "--base", "10", "--digits", "21")
    assert code == 0 and out.strip() == "112624120720504040320"


def test_fword_find(capsys):
    code, payload = run_json(
        capsys, "fword", "--base", "10", "--find", "999", "--digits", "100000"
    )
    assert code == 0 and payload["position"] == 640


def test_fword_coverage(capsys):
    code, payload = run_json(
        capsys, "fword", "--base", "10", "--coverage", "2", "--digits", "608"
    )
    assert code == 0 and payload["complete"] is True

    code, payload = run_json(
        capsys, "fword", "--base", "2", "--coverage", "1", "--blocks", "3"
    )
    assert code == 0 and payload["found"] == 2


def test_fword_blocks_conflicts_are_usage_errors(capsys):
    # --blocks never silently gives way to --digits or to a prefix listing,
    # nor --find to --coverage
    cases = {("--coverage", "1", "--digits", "5", "--blocks", "2"): ("--digits", "--blocks"),
             ("--digits", "5", "--blocks", "2"): ("--blocks", "--coverage"),
             ("--find", "12", "--coverage", "2", "--digits", "100"): ("--find", "--coverage")}
    for argv, flags in cases.items():
        code, out, err = run(capsys, "fword", *argv)
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["kind"] == "usage"
        assert all(flag in error["error"] for flag in flags)


def test_squarefree_test_takes_no_census_flags(capsys):
    for flag, *value in (("--list",), ("--n-max", "5"), ("--alphabet-size", "2")):
        code, out, err = run(capsys, "squarefree", "--test", "abab", flag, *value)
        assert code == 1 and out == "", flag
        error = json.loads(err)
        assert error["kind"] == "usage"
        assert "--test" in error["error"] and flag in error["error"]


def test_fword_coverage_checks_base_before_cells(capsys):
    code, out, err = run(capsys, "fword", "--base", "100", "--coverage", "5", "--digits", "100")
    assert code == 1 and out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert error["kind"] == "domain" and "base" in error["error"]


def test_fword_coverage_huge_k_is_a_budget_error(capsys):
    code, out, err = run(capsys, "fword", "--coverage", "3000000", "--blocks", "5")
    assert code == 2 and out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert error["kind"] == "resource" and "10^3000000" in error["error"]


def test_leading_command(capsys):
    code, payload = run_json(
        capsys, "leading", "--target", "99", "--n-budget", "1000"
    )
    assert code == 0 and payload["n"] == 96


def test_weyl_command(capsys):
    code, payload = run_json(capsys, "weyl", "--n-max", "2000", "--bins", "20")
    assert code == 0
    assert sum(payload["histogram"]) == 2000
    assert payload["weyl_magnitude"] < 0.2
    report = fibword.logfactorial_equidistribution(10, 2000, bins=20)
    assert payload["near_edge"] == report.near_edge


def test_leading_target_longer_than_the_digit_limit(capsys):
    """A target of more digits than int(str) converts is read digit by digit."""
    target = "1" + "0" * 4400
    code, payload = run_json(capsys, "leading", "--target", target, "--n-budget", "10")
    assert code == 0 and payload["n"] is None and payload["target"] == target


@pytest.mark.parametrize("argv", [["weyl", "--n-max"], ["leading", "--target", "7", "--n-budget"]])
def test_log_factorial_walk_budget_exit_code(capsys, monkeypatch, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "100000000000")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["kind"] == "resource"
    assert error["error"] == \
        "n = 100000000000 exceeds the FIBWORD_LOG_FACTORIAL_TERMS budget 100000000"
    monkeypatch.setenv("FIBWORD_LOG_FACTORIAL_TERMS", "1000")
    assert run(capsys, *argv, "1000", "--format", "json")[0] == 0
    code, out, err = run(capsys, *argv, "1001")
    assert code == 2 and json.loads(err)["error"].endswith("budget 1000")


@pytest.mark.parametrize("argv, what", [
    (["fword", "--find", "123456789012", "--digits", "10000000000000"], "10000000000000 digits"),
    (["fword", "--digits", "10000000000"], "10000000000 digits"),
    (["fword", "--coverage", "3", "--digits", "1000000000"], "1000000000 digits"),
    (["fword", "--coverage", "2", "--blocks", "1000000"],
     "up to 100003323 digits through 7851!"),
    (["fword", "--coverage", "2", "--blocks", "10" * 200], f"at least {'10' * 199}11 digits"),
])
def test_factorial_digit_budget_exit_code(capsys, monkeypatch, argv, what):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert error["kind"] == "resource"
    assert error["error"].startswith(what)
    assert error["error"].endswith(" exceeds the FIBWORD_FACTORIAL_DIGITS budget 100000000")
    monkeypatch.setenv("FIBWORD_FACTORIAL_DIGITS", "1000")
    assert run(capsys, "fword", "--digits", "1000")[0] == 0
    code, out, err = run(capsys, "fword", "--find", "99", "--digits", "1001")
    assert code == 2 and json.loads(err)["error"].endswith("budget 1000")


def test_fword_blocks_are_charged_the_sum_of_their_digit_bounds(capsys, monkeypatch):
    # 0!..1000! hold 1177744 decimal digits; each j! is charged floor(log_10 j!) + 2,
    # 1178745 in all, so the budget admits the request just at that sum
    monkeypatch.setenv("FIBWORD_FACTORIAL_DIGITS", "1178745")
    code, payload = run_json(capsys, "fword", "--coverage", "1", "--blocks", "1000")
    assert code == 0 and payload["complete"] is True
    assert fibword.coverage_profile(10, 1, block_budget=1000).digit_budget == 1177744
    monkeypatch.setenv("FIBWORD_FACTORIAL_DIGITS", "1178744")
    code, out, err = run(capsys, "fword", "--coverage", "1", "--blocks", "1000")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == ("up to 1178745 digits through 1000! of 1000! exceeds "
                                        "the FIBWORD_FACTORIAL_DIGITS budget 1178744")


def test_weyl_bins_budget_exit_code(capsys, monkeypatch):
    start = time.perf_counter()
    code, out, err = run(capsys, "weyl", "--n-max", "10", "--bins", "10000000000")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert error["kind"] == "resource"
    assert error["error"] == "bins = 10000000000 exceeds the FIBWORD_WEYL_BINS budget 1000000"
    monkeypatch.setenv("FIBWORD_WEYL_BINS", "50")
    assert run(capsys, "weyl", "--n-max", "10", "--bins", "50")[0] == 0
    code, out, err = run(capsys, "weyl", "--n-max", "10", "--bins", "51")
    assert code == 2 and json.loads(err)["error"].endswith("budget 50")


def test_verify_subset(capsys):
    code, payload = run_json(
        capsys, "verify", "--only", "golden-density,perron-data"
    )
    assert code == 0
    assert payload["passed"] is True
    assert [c["name"] for c in payload["checks"]] == ["golden-density", "perron-data"]


def test_verify_runs_every_check(capsys):
    code, payload = run_json(capsys, "verify")
    assert code == 0
    assert payload["passed"] is True
    assert [c["name"] for c in payload["checks"]] == [
        "modular-density", "bruteforce-density", "sturmian-complexity",
        "balance-bound", "golden-density", "perron-data",
        "tribonacci-frequencies", "square-free-census", "factorial-word",
        "delta-palindromes", "sandwich-bounds",
    ]


def test_verify_failing_check_prints_its_payload_and_exits_one(capsys, monkeypatch):
    def check_always_fails(seed=0):
        raise AssertionError("always fails")

    monkeypatch.setitem(verify.CHECKS, "always-fails", (check_always_fails, None))
    code, payload = run_json(capsys, "verify", "--only", "always-fails")
    assert code == 1
    assert payload["command"] == "verify" and payload["passed"] is False
    assert [(c["name"], c["passed"], c["detail"]) for c in payload["checks"]] == [
        ("always-fails", False, "always fails")]


def test_verify_check_past_its_limit_fails(monkeypatch):
    """A check that passes but takes longer than its limit is reported as failed."""
    func, _ = verify.CHECKS["perron-data"]
    monkeypatch.setitem(verify.CHECKS, "perron-data", (func, 0))
    result = verify.run_check("perron-data")
    assert result.passed is False and result.limit == 0
    assert re.fullmatch(r".+ \[exceeded 0s budget: took \d+\.\ds\]", result.detail)


def test_verify_unknown_check(capsys):
    code, out, err = run(capsys, "verify", "--only", "nonsense")
    assert code == 1
    assert json.loads(err)["kind"] == "usage"


@pytest.mark.parametrize("only", [",", ",,", ""])
def test_verify_only_naming_no_check_is_usage_error(capsys, only):
    code, out, err = run(capsys, "verify", "--only", only)
    assert code == 1 and out == ""
    error = json.loads(err)
    jsonschema.validate(error, SCHEMA)
    assert error["kind"] == "usage"
    assert "no check" in error["error"] and "factorial-word" in error["error"]


# ---------------------------------------------------------------------------
# error contract


def test_unknown_subcommand_is_usage_error(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert code == 1
    payload = json.loads(err)
    jsonschema.validate(payload, SCHEMA)
    assert payload["kind"] == "usage"


def test_domain_error_exit_code(capsys):
    code, out, err = run(capsys, "density", "--prime", "12")
    assert code == 1
    assert json.loads(err)["kind"] == "domain"


def test_budget_error_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("FIBWORD_MODULUS_LIMIT", "100")
    code, out, err = run(capsys, "densbrute", "--prime", "19", "--max-level", "3")
    assert code == 2
    assert json.loads(err)["kind"] == "resource"


def test_arithmetic_length_cap_exit_code(capsys):
    code, out, err = run(capsys, "arithmetic", "--morphism", "fibonacci",
                         "--length", "4097", "--n-max", "2")
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["kind"] == "resource" and "4096" in error["error"]


def test_square_free_listing_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("FIBWORD_CENSUS_NODES", "1000")
    code, out, err = run(capsys, "squarefree", "--list", "--alphabet-size", "3",
                         "--n-max", "30", "--format", "json")
    assert code == 2 and out == ""
    assert json.loads(err)["kind"] == "resource"


def test_deep_census_is_a_budget_error(capsys, monkeypatch):
    # past length 1000 a depth-first walk would overflow the interpreter stack
    monkeypatch.setenv("FIBWORD_CENSUS_NODES", "20000")
    code, out, err = run(capsys, "squarefree", "--alphabet-size", "3", "--n-max", "1200")
    assert code == 2 and out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert error["kind"] == "resource"
    assert error["error"].startswith("the square-free walk to length 27 of 1200, ")


def test_period_step_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("FIBWORD_PERIOD_STEPS", "1000")
    code, out, err = run(capsys, "density", "--prime", "10007")
    assert code == 2
    error = json.loads(err)
    assert error["kind"] == "resource" and "1000" in error["error"]


def test_rho_step_budget_exit_code(capsys, monkeypatch):
    # two 20-digit primes: rho would need ~10^10 steps, minutes at the default budget
    m = (10 ** 19 + 51) * (3 * 10 ** 19 + 41)
    monkeypatch.setenv("FIBWORD_RHO_STEPS", "100000")
    start = time.perf_counter()
    code, out, err = run(capsys, "pisano", str(m))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert error["kind"] == "resource"
    assert error["error"].startswith(f"Pollard rho on {m}, up to ")
    assert error["error"].endswith(" polynomial steps, exceeds the FIBWORD_RHO_STEPS budget 100000")
    # a semiprime of two 10-digit primes splits within 2^16 steps, inside a budget of 10^6
    monkeypatch.setenv("FIBWORD_RHO_STEPS", "1000000")
    assert run(capsys, "pisano", str((10 ** 9 + 7) * (10 ** 9 + 9)))[0] == 0
    assert run(capsys, "pisano", "1000000007")[0] == 0


def square_free_ternary(n):
    """The first n differences of the Thue-Morse word, plus one, as letters: square-free."""
    thue_morse = [bin(i).count("1") % 2 for i in range(n + 1)]
    return "".join("abc"[y - x + 1] for x, y in zip(thue_morse, thue_morse[1:]))


def test_square_test_budget_exit_code(capsys, monkeypatch):
    # a square-free word is charged floor(L^2/4) before its prefixes up to L = 2, 4, ..., n
    monkeypatch.setenv("FIBWORD_SQUARE_TEST_COMPARISONS", "100000")
    start = time.perf_counter()
    code, out, err = run(capsys, "squarefree", "--test", square_free_ternary(700))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert error["kind"] == "resource"
    assert error["error"] == ("a square test of 700 symbols, to length 700, 122500 comparisons, "
                              "exceeds the FIBWORD_SQUARE_TEST_COMPARISONS budget 100000")
    code, payload = run_json(capsys, "squarefree", "--test", square_free_ternary(632))
    assert code == 0 and payload["square_free"] is True  # 99856 comparisons
    # a word past the limit whose first square ends by length 512 is answered
    long_word = square_free_ternary(500) + "aa" + square_free_ternary(198)
    code, payload = run_json(capsys, "squarefree", "--test", long_word)
    assert code == 0 and payload["square_free"] is False
    monkeypatch.delenv("FIBWORD_SQUARE_TEST_COMPARISONS")
    start = time.perf_counter()
    code, payload = run_json(capsys, "squarefree", "--test", "aa" + "abc" * 2200)
    assert time.perf_counter() - start < 1
    assert code == 0 and payload["square_free"] is False


@pytest.mark.parametrize("value", ("abc", "0", "-5"))
def test_malformed_budget_variable_is_domain_error(capsys, monkeypatch, value):
    monkeypatch.setenv("FIBWORD_CENSUS_NODES", value)
    code, out, err = run(capsys, "squarefree", "--n-max", "5")
    assert code == 1 and out == ""
    error = json.loads(err)
    jsonschema.validate(error, SCHEMA)
    assert error["kind"] == "domain" and "FIBWORD_CENSUS_NODES" in error["error"]


def test_balance_rejects_a_step_below_one(capsys):
    for step in ("0", "-1"):
        code, out, err = run(capsys, "balance", "--text", "abab", "--symbol", "a",
                             "--target", "0.5", "--n-max", "4", "--step", step)
        assert code == 1 and out == ""
        assert json.loads(err)["kind"] == "usage"


@pytest.mark.parametrize("target", ("nan", "inf", "-inf", "1e400"))
def test_frequency_rejects_a_non_finite_target(capsys, target):
    code, out, err = run(capsys, "frequency", "--text", "abab", "--symbol", "a",
                         f"--target={target}", "--format", "json")
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error["kind"] == "usage" and "finite" in error["error"]


@pytest.mark.parametrize("command", ["frequency", "balance"])
@pytest.mark.parametrize("target", ["-1/2", "-1e-3", "-inf", "-NaN"])
def test_negative_target_reaches_the_target_parser(capsys, command, target):
    argv = [command, "--text", "abab", "--symbol", "a", "--target", target,
            "--format", "json"]
    if command == "balance":
        argv += ["--n-max", "1"]
    code, out, err = run(capsys, *argv)
    if target in ("-inf", "-NaN"):
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["kind"] == "usage" and "finite" in error["error"]
    elif command == "frequency":
        assert code == 0 and json.loads(out)["target"] == float(Fraction(target))
    else:
        # the one-letter window "a" has frequency 1, which is 1 - t away
        # from a negative target t: more than 1/n for n = 1
        deviation = 1 - float(Fraction(target))
        assert code == 1 and f"deviation {deviation}" in json.loads(err)["error"]


def test_squarefree_listing_names_the_alphabet_range(capsys):
    code, out, err = run(capsys, "squarefree", "--list", "--alphabet-size", "27",
                         "--n-max", "2")
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error["kind"] == "domain" and "1..26" in error["error"]


def test_census_past_255_letters_is_one_domain_error(capsys):
    code, out, err = run(capsys, "squarefree", "--alphabet-size", "300", "--n-max", "3")
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    error = json.loads(err)
    jsonschema.validate(error, SCHEMA)
    assert error["kind"] == "domain" and "255" in error["error"]


def test_readme_budget_table_matches_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Resource budgets", 1)[1].split("\n#", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines()
            if line.startswith("| `FIBWORD_")]
    documented = {name.strip().strip("`"): int(default.replace(" ", ""))
                  for name, default in rows}
    assert documented == {"FIBWORD_" + k: v for k, v in budgets._DEFAULTS.items()}


def word(text):
    return fibword.Word.from_string(text, fibword.binary_alphabet())


@pytest.mark.parametrize("name, limit, call, amount", [
    ("CENSUS_NODES", 100, lambda: fibword.square_free_census(3, 25),
     "the square-free walk to length 9 of 25, at 123 nodes,"),
    ("CENSUS_NODES", 100, lambda: fibword.square_free_words(3, 25),
     "the square-free walk to length 5 of 25, at 120 nodes,"),
    ("SP_TOTAL_MAXLEN", 10, lambda: fibword.scattered_palindrome_count(word("ab" * 6)),
     "word length 12"),
    ("SP_LENGTH_MAXLEN", 10, lambda: fibword.scattered_palindromes_by_length(word("ab" * 6)),
     "word length 12"),
    ("COVERAGE_CELLS", 1000, lambda: fibword.coverage_profile(10, 4, 100), "10^4"),
    ("LOG_FACTORIAL_TERMS", 1000, lambda: fibword.leading_digits_search(10, "7", 1001),
     "n = 1001"),
    ("LOG_FACTORIAL_TERMS", 1000, lambda: fibword.logfactorial_equidistribution(10, 1001),
     "n = 1001"),
    ("FACTORIAL_DIGITS", 1000, lambda: fibword.factor_search(10, "99", 1001), "1001 digits"),
    ("FACTORIAL_DIGITS", 1000, lambda: fibword.factorial_word_prefix(10, 1001), "1001 digits"),
    ("FACTORIAL_DIGITS", 1000, lambda: fibword.coverage_profile(10, 2, 1001), "1001 digits"),
    ("FACTORIAL_DIGITS", 1000, lambda: fibword.coverage_profile(10, 2, block_budget=100),
     "up to 1044 digits through 43! of 100!"),
    ("WEYL_BINS", 1000, lambda: fibword.logfactorial_equidistribution(10, 10, bins=1001),
     "bins = 1001"),
    ("PERIOD_STEPS", 1000, lambda: fibword.density_formula(10007), "needs 20014 steps"),
    ("MODULUS_LIMIT", 100, lambda: fibword.residue_density_bruteforce(19, 2), "p^lambda = 19^2"),
    ("PERIOD_STEPS", 300, lambda: fibword.residue_density_bruteforce(19, 2),
     "the residue walk mod 19^2, which needs 342 steps,"),
    ("RHO_STEPS", 1000, lambda: fibword.pisano_period((10 ** 9 + 7) * (10 ** 9 + 9)),
     "Pollard rho on 1000000016000000063, up to "),
    ("SQUARE_TEST_COMPARISONS", 100, lambda: fibword.is_square_free(
        fibword.Word.from_string(square_free_ternary(22), fibword.ternary_alphabet())),
     "a square test of 22 symbols, to length 22, 121 comparisons,"),
])
def test_every_refusal_names_its_budget_amount_and_limit(monkeypatch, name, limit, call, amount):
    monkeypatch.setenv("FIBWORD_" + name, str(limit))
    with pytest.raises(BudgetError) as refusal:
        call()
    message = str(refusal.value)
    assert amount in message
    assert message.endswith(f" exceeds the FIBWORD_{name} budget {limit}")


def test_charge_power_never_builds_a_power_far_past_the_limit(monkeypatch):
    # 3^(10^9) has 4.8 10^8 digits; the charge stops at 3^(bits of the limit + 1)
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=r"^3\^1000000000 exceeds the FIBWORD_COVERAGE_CELLS "
                                          r"budget 20000000$"):
        budgets.charge_power("COVERAGE_CELLS", 3, 10 ** 9, "3^1000000000")
    assert time.perf_counter() - start < 1
    monkeypatch.setenv("FIBWORD_MODULUS_LIMIT", "1024")
    budgets.charge_power("MODULUS_LIMIT", 2, 10, "2^10")
    with pytest.raises(BudgetError, match="^2\\^11 exceeds"):
        budgets.charge_power("MODULUS_LIMIT", 2, 11, "2^11")


def test_pisano_of_a_large_prime(capsys):
    # 10^9 + 7 = 2 mod 5, so the period divides 2(p + 1); no walk is made
    code, payload = run_json(capsys, "pisano", "1000000007")
    period = payload["period"]
    assert code == 0 and period == 2_000_000_016
    m = 1_000_000_007
    assert fib_pair_mod(period, m) == (0, 1)
    primes, rest, q = [], period, 2    # the primes q | period, by trial division
    while q * q <= rest:
        if rest % q == 0:
            primes.append(q)
            while rest % q == 0:
                rest //= q
        q += 1
    primes += [rest] if rest > 1 else []
    assert all(fib_pair_mod(period // q, m) != (0, 1) for q in primes)


def test_density_of_a_large_prime(capsys):
    code, payload = run_json(capsys, "density", "--prime", "10000019")
    assert code == 0
    assert (payload["eps"], payload["e"]) == (1, 1)
    assert payload["pisano"] == payload["restricted"] == 10_000_018
    assert payload["lucas_zeros"] == [5_000_009]
    assert (payload["N"], payload["Z"]) == (6_250_011, 1)
    assert payload["dens"] == "125000470000441/200000780000760"
    assert payload["shared_outside_residue"] is False


def test_missing_word_source_is_usage_error(capsys):
    code, out, err = run(capsys, "complexity", "--n-max", "3")
    assert code == 1
    assert json.loads(err)["kind"] == "usage"


def test_conflicting_word_sources(capsys):
    code, out, err = run(
        capsys, "complexity", "--text", "ab", "--morphism", "fibonacci",
        "--length", "5", "--n-max", "2",
    )
    assert code == 1
    assert json.loads(err)["kind"] == "usage"


@pytest.mark.parametrize("argv, message", [pytest.param(*row, id=row[1]) for row in [
    (["generate", "--morphism", "mbonacci", "--length", "5"],
     "mbonacci needs an order, e.g. --morphism mbonacci:4"),
    (["generate", "--morphism", "mbonacci:four", "--length", "5"],
     "mbonacci order must be an integer, got 'four'"),
    (["generate", "--morphism", "sturmian:", "--length", "5"],
     "sturmian needs steps, e.g. --morphism sturmian:phi,E"),
    (["generate", "--morphism", "fibonaci", "--length", "5"],
     "unknown morphism 'fibonaci'; use fibonacci, tribonacci, thue-morse, mbonacci:M, "
     "sturmian:STEPS, or literal rules like 'a->ab,b->a'"),
    (["complexity", "--morphism", "fibonacci", "--n-max", "3"], "--morphism needs --length"),
    (["frequency", "--text", "ab", "--symbol", "a", "--target", "phi"],
     "cannot parse target 'phi'"),
    (["delta"], "pass exactly one of --apply or --factorize"),
    (["fword", "--coverage", "2"], "--coverage needs --digits or --blocks as the budget"),
    (["fword", "--find", "12"], "--find needs --digits as the search budget"),
    (["fword"], "give --digits for a prefix, or --find/--coverage"),
]])
def test_usage_refusals(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err) == {"command": "error", "error": message, "kind": "usage"}


def test_generate_mbonacci(capsys):
    code, payload = run_json(capsys, "generate", "--morphism", "mbonacci:4", "--length", "20")
    assert code == 0
    assert payload["morphism"] == "1->12,2->13,3->14,4->1" and payload["seed_symbol"] == "1"
    assert payload["word"] == str(fibword.fixed_point_prefix(fibword.mbonacci_morphism(4),
                                                             "1", 20))


def test_empty_text_is_a_word_over_a(capsys):
    """--text '' is the empty word over the alphabet a, as for squarefree --test."""
    code, payload = run_json(capsys, "frequency", "--text", "", "--symbol", "a")
    assert code == 0 and (payload["frequency"], payload["word_length"]) == ("0/1", 0)
    code, payload = run_json(capsys, "palindromes", "--text", "")
    assert code == 0
    assert (payload["palindromic_factors"], payload["scattered_palindromes"]) == (0, 0)
    for argv, message in [
        (["complexity", "--n-max", "1"], "complexity profiles need a nonempty word"),
        (["arithmetic", "--n-max", "1"], "complexity profiles need a nonempty word"),
        (["sturmian", "--n-max", "1"], "complexity profiles need a nonempty word"),
        (["balance", "--symbol", "a", "--target", "0", "--n-max", "1"],
         "window lengths must lie in 1..0"),
    ]:
        code, out, err = run(capsys, *argv, "--text", "")
        assert code == 1 and out == ""
        assert json.loads(err) == {"command": "error", "error": message, "kind": "domain"}


COMMANDS = ["generate", "complexity", "arithmetic", "sturmian", "squarefree", "delta",
            "palindromes", "frequency", "balance", "golden", "perron", "pisano",
            "lucaszeros", "density", "densbrute", "fword", "leading", "weyl", "verify"]


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0
    assert "COMMAND" in out
    # the subcommands are listed one a line, in the order build_parser declares them
    assert re.findall(r"^    (\w+)", out, re.M) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_every_subcommand_help_exits_zero(capsys, command):
    code, out, err = run(capsys, command, "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: fibword {command} ")


def test_json_output_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, err = run(capsys, "density", "--prime", "31", "--format", "json")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_every_documented_command_validates(capsys, fmt):
    """One invocation per subcommand in each format; JSON meets the schema."""
    invocations = [
        ("generate", "--morphism", "fibonacci", "--length", "5"),
        ("complexity", "--text", "abaab", "--n-max", "2"),
        ("arithmetic", "--text", "abaab", "--n-max", "2"),
        ("sturmian", "--text", "abaab", "--n-max", "2"),
        ("squarefree", "--test", "abc"),
        ("delta", "--apply", "ab"),
        ("palindromes", "--text", "aba"),
        ("frequency", "--text", "abaab", "--symbol", "a"),
        ("balance", "--text", "abab" * 10, "--symbol", "a", "--target", "0.5",
         "--n-min", "2", "--n-max", "10"),
        ("golden", "--n-max", "3"),
        ("perron", "--m", "2"),
        ("pisano", "7"),
        ("lucaszeros", "7"),
        ("density", "--prime", "7"),
        ("densbrute", "--prime", "7", "--max-level", "1"),
        ("fword", "--base", "10", "--digits", "10"),
        ("leading", "--target", "7", "--n-budget", "10"),
        ("weyl", "--n-max", "50"),
        ("verify", "--only", "golden-density"),
    ]
    for argv in invocations:
        if fmt == "json":
            code, payload = run_json(capsys, *argv)
            assert payload["command"] == argv[0]
        else:
            code, out, err = run(capsys, *argv, "--format", fmt)
            assert err == "" and out.strip(), argv
            if fmt == "csv":
                rows = list(csv.reader(io.StringIO(out)))
                assert rows and all(rows), argv
        assert code == 0, argv


def _probe(code: str) -> str:
    """Run code in a fresh interpreter on this checkout; return its stdout."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60).stdout


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_closed_stdout_exits_1_quietly(fmt):
    """A reader that stops after 100 bytes gets no traceback, and the exit code is 1."""
    src = Path(__file__).resolve().parents[1] / "src"
    # 300 000 symbols overfill the pipe, so the writer is still blocked when it closes
    argv = [sys.executable, "-m", "fibword.cli", "generate", "--morphism", "fibonacci",
            "--length", "300000", "--format", fmt]
    # unbuffered, the blocked write comes back short instead of raising
    for unbuffered in ("", "1"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED=unbuffered)
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1, unbuffered
        assert err == b"", unbuffered


def test_cli_import_starts_no_process_pool():
    """Importing the CLI loads no multiprocessing or concurrent module."""
    probe = ("import fibword.cli, sys; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    assert _probe(probe).strip() == "[]"


def test_cli_import_loads_no_numpy():
    """numpy is imported by the functions that use it, not by any module.

    Neither import loads a library module besides the errors the CLI reports.
    """
    probe = (
        "import json, sys\n"
        "mods = lambda: ['numpy' in sys.modules, sorted(m for m in sys.modules "
        "if m.startswith('fibword'))]\n"
        "import fibword\n"
        "a = mods()\n"
        "import fibword.cli\n"
        "print(json.dumps([a, mods()]))\n"
    )
    assert json.loads(_probe(probe)) == [
        [False, ["fibword"]],
        [False, ["fibword", "fibword.cli", "fibword.errors"]],
    ]


LIBRARY = {"fibword.complexity", "fibword.density", "fibword.factorial_word",
           "fibword.modfib", "fibword.verify", "fibword.words"}


@pytest.mark.parametrize("argv, loaded", [
    (["pisano", "7"], {"fibword.modfib"}),
    (["lucaszeros", "7"], {"fibword.modfib"}),
    (["generate", "--morphism", "fibonacci", "--length", "50"], {"fibword.words"}),
    (["delta", "--apply", "abc"], {"fibword.complexity", "fibword.words"}),
    (["fword", "--digits", "10"], {"fibword.factorial_word", "fibword.words"}),
    (["verify", "--only", "golden-density"],
     {"fibword.density", "fibword.modfib", "fibword.verify", "fibword.words"}),
])
def test_each_request_imports_only_the_modules_it_runs(argv, loaded):
    """One fresh interpreter per request; generate loads no dataclasses either."""
    probe = (
        "import contextlib, io, json, sys\n"
        "from fibword import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('fibword.')), "
        "'dataclasses' in sys.modules]))\n"
    )
    code, modules, dataclasses = json.loads(_probe(probe))
    assert code == 0
    assert LIBRARY.intersection(modules) == loaded
    if argv[0] == "generate":
        assert not dataclasses


def test_numpy_free_commands_do_not_import_numpy():
    """One fresh interpreter serves the requests that need no numpy, then one that does.

    Only the verify request, the last of the numpy-free ones, loads fibword.verify.
    """
    numpy_free = [
        ["generate", "--morphism", "fibonacci", "--length", "50"],
        ["squarefree", "--test", "abcab"],
        ["squarefree", "--alphabet-size", "3", "--n-max", "8"],
        ["delta", "--apply", "abc"],
        ["delta", "--factorize", "abbaba"],
        ["palindromes", "--morphism", "fibonacci", "--length", "50"],
        ["golden", "--n-max", "10"],
        ["pisano", "7"],
        ["lucaszeros", "7"],
        ["verify", "--only", "golden-density"],
    ]
    requests = numpy_free + [["complexity", "--text", "abaab", "--n-max", "2"]]
    probe = (
        "import contextlib, io, json, sys\n"
        "from fibword import cli\n"
        "seen = []\n"
        f"for argv in {requests!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main([*argv, '--format', 'json'])\n"
        "    seen.append([argv[0], code, 'numpy' in sys.modules, 'fibword.verify' in sys.modules])\n"
        "print(json.dumps(seen))\n"
    )
    seen = json.loads(_probe(probe))
    assert seen[:-1] == [[argv[0], 0, False, argv[0] == "verify"] for argv in numpy_free]
    # the probe can see numpy: the complexity profile loads it
    assert seen[-1] == ["complexity", 0, True, True]


def test_format_before_or_after_the_command(capsys):
    want = {"command": "pisano", "modulus": 7, "period": 16}
    for argv in (["--format", "json", "pisano", "7"],
                 ["pisano", "7", "--format", "json"],
                 ["--format", "csv", "pisano", "7", "--format", "json"]):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert json.loads(out) == want, argv
    # a value after the command wins over one before it
    assert run(capsys, "--format", "json", "pisano", "7", "--format", "text") == (0, "16\n", "")
    assert run(capsys, "--format", "csv", "pisano", "7")[1] == run(
        capsys, "pisano", "7", "--format", "csv")[1]


@pytest.mark.parametrize("argv", [["--format", "xml", "pisano", "7"],
                                  ["pisano", "7", "--format", "xml"]])
def test_unknown_format_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error["kind"] == "usage" and "invalid choice: 'xml'" in error["error"]
