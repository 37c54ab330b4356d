"""Exact stdout, stderr and exit code of the CLI on fixed requests.

Each case runs in text, json and csv. The expected outputs are recorded in
cli_snapshots.json; an output longer than SHA_ABOVE characters is kept as its
SHA-256. verify's timings are the one part of any output that changes from
run to run, so its seconds are masked before the comparison.

Rerecord (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_cli_snapshots.py
"""

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import sys
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest

from fibword import cli

SNAPSHOTS = Path(__file__).with_name("cli_snapshots.json")
SHA_ABOVE = 2000
FORMATS = ("text", "json", "csv")

# a case is a shell-like line: leading NAME=VALUE words set environment variables
CASES = [
    "generate --morphism fibonacci --length 40",
    "generate --morphism tribonacci --length 30",
    "generate --morphism a->ba,b->a --length 8 --seed-symbol b",
    "complexity --morphism thue-morse --length 200 --n-max 12",
    "complexity --text abaababaab --n-max 5",
    "arithmetic --morphism fibonacci --length 60 --n-max 6",
    "arithmetic --morphism fibonacci --length 60 --n-max 1",
    "arithmetic --text aaaa --n-max 1",
    "arithmetic --morphism fibonacci --length 5000 --n-max 1",
    "sturmian --morphism fibonacci --length 300 --n-max 40",
    "sturmian --morphism thue-morse --length 100 --n-max 5",
    "squarefree --test abcacb",
    "squarefree --test abcabc",
    "squarefree --alphabet-size 3 --n-max 12",
    "squarefree --alphabet-size 2",
    "squarefree --list --alphabet-size 3 --n-max 5",
    "squarefree --list --alphabet-size 2",
    "delta --apply abcab",
    "delta --factorize abbaba",
    "delta --factorize bb",
    "palindromes --morphism fibonacci --length 30",
    "palindromes --text abaab --by-length",
    "frequency --morphism fibonacci --length 500 --symbol b --window 20 --target golden",
    "frequency --text abab --symbol a",
    "balance --morphism fibonacci --length 1000 --symbol b --target golden --n-max 40 --step 3",
    "golden --n-max 12",
    "golden --n-max 775",
    "golden --n-max 777",
    "golden --n-max 800",
    "golden --n-max 2000",
    "perron --m 3",
    "pisano 1000000",
    "pisano 1000000000000",
    "pisano 1000000016000000063",
    "pisano 1",
    "FIBWORD_RHO_STEPS=100000 pisano 300000000000000001940000000000000002091",
    "lucaszeros 7",
    "lucaszeros 2",
    "lucaszeros 91",
    "density --prime 19",
    "density --prime 1597",
    "densbrute --prime 19 --max-level 3",
    "densbrute --prime 1597 --max-level 2",
    "densbrute --prime 19 --max-level 9",
    "fword --digits 60",
    "fword --base 2 --digits 50",
    "fword --find 999 --digits 10000",
    "fword --find 0123456 --digits 2000",
    "fword --coverage 2 --digits 3000",
    "fword --coverage 2 --blocks 30",
    "leading --target 7 --n-budget 100",
    "leading --target 99999 --n-budget 10",
    "weyl --n-max 500 --bins 10",
    "verify --only golden-density,perron-data,bruteforce-density",
    "verify --only nope",
]

_SECONDS = [
    (re.compile(r"(\[(?:PASS|FAIL)\] \S+ +)\d+\.\d\ds"), r"\1SECONDS"),   # text
    (re.compile(r'"seconds": [0-9.e+-]+'), '"seconds": SECONDS'),         # json
    (re.compile(r"^([\w-]+,(?:True|False)),[0-9.e+-]+\r$", re.M), r"\1,SECONDS\r"),  # csv
]


def _key(case, fmt):
    return f"{case} --format {fmt}"


def run_case(case, fmt):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    words = shlex.split(case)
    env = {}
    while "=" in words[0]:
        name, _, value = words.pop(0).partition("=")
        env[name] = value
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*words, "--format", fmt])
    stdout = out.getvalue()
    if words[0] == "verify":
        for pattern, replacement in _SECONDS:
            stdout = pattern.sub(replacement, stdout)
    return code, stdout, err.getvalue()


def _record(code, stdout, stderr):
    record = {"exit": code, "stderr": stderr}
    if len(stdout) > SHA_ABOVE:
        record["stdout_sha256"] = hashlib.sha256(stdout.encode()).hexdigest()
    else:
        record["stdout"] = stdout
    return record


@pytest.fixture(scope="module")
def snapshots():
    return json.loads(SNAPSHOTS.read_text())


def test_snapshots_cover_every_subcommand(snapshots):
    schema = json.loads(
        resources.files("fibword").joinpath("schemas/cli_output.schema.json").read_text())
    commands = {next(w for w in shlex.split(c) if "=" not in w) for c in CASES}
    assert commands | {"error"} == set(schema["properties"]["command"]["enum"])
    assert len(commands) == 19
    assert set(snapshots) == {_key(c, f) for c in CASES for f in FORMATS}
    assert {2} <= {r["exit"] for r in snapshots.values()}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", CASES)
def test_cli_snapshot(snapshots, case, fmt):
    assert _record(*run_case(case, fmt)) == snapshots[_key(case, fmt)]


if __name__ == "__main__":
    records = {_key(c, f): _record(*run_case(c, f)) for c in CASES for f in FORMATS}
    SNAPSHOTS.write_text(json.dumps(records, indent=1, sort_keys=True, ensure_ascii=False) + "\n")
    print(f"recorded {len(records)} runs in {SNAPSHOTS}", file=sys.stderr)
