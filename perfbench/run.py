"""The fibword benchmark: one closed-loop client running a seeded job list.

Run from the root of a checkout:

    python3 perfbench/run.py --workload words|numbers|cli --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

One process sends one job at a time and waits for its answer, as a
researcher's script or shell loop would. Every job's output is checked after
its timed window. The last line of standard output is one JSON object:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
--smoke runs every job kind once at tiny sizes and exits non-zero if any
check fails.
"""

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

from tracing import MODULES, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

COLD_STARTS = 7

# every public function a workload calls, as "<module>.<function>"
FUNCTIONS = (
    "words.fixed_point_prefix",
    "complexity.factor_complexity",
    "complexity.arithmetic_complexity",
    "complexity.palindromic_factor_count",
    "complexity.scattered_palindrome_count",
    "complexity.square_free_census",
    "complexity.delta_apply",
    "complexity.delta_factorize",
    "density.balance_check",
    "density.frequency_report",
    "modfib.density_formula",
    "modfib.pisano_period",
    "modfib.restricted_period",
    "modfib.lucas_zeros",
    "modfib.bruteforce_trace",
    "modfib.residue_density_bruteforce",
    "factorial_word.factor_search",
    "factorial_word.coverage_profile",
    "factorial_word.leading_digits_search",
    "factorial_word.logfactorial_equidistribution",
    "cli.request",
    "cli.main",
)
# job work counter -> per-layer metric
WORK = {
    "symbols_out": "words.symbols_out",
    "symbols_in": "complexity.symbols_in",
    "census_words": "complexity.census_words",
    "period_sum": "modfib.period_sum",
    "digits_scanned": "factorial_word.digits_scanned",
    "leading_n_scanned": "factorial_word.leading_n_scanned",
}
RATIOS = {
    "factorial_word.factor_search.hit_ratio": ("search_hits", "search_tries"),
    "factorial_word.leading_digits_search.hit_ratio": ("leading_hits", "leading_tries"),
}
END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s",
              "job_tail_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for fn in FUNCTIONS:
        units[f"{fn}.busy_s"] = "s"
        units[f"{fn}.calls"] = "count"
    for module in MODULES + ("bench",):
        units[f"{module}.self_s"] = "s"
    for name in WORK.values():
        units[name] = "count"
    for name in RATIOS:
        units[name] = "ratio"
    units["cli.interpreter_s"] = "s"
    units["cli.import_s"] = "s"
    for module in MODULES:
        units[f"{module}.failed"] = "count"
    units["fail_ratio"] = "ratio"
    units["trace.job_s"] = "s"
    units["trace.untraced_job_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.layer_share"] = "ratio"
    units["trace.spans"] = "count"
    return units


def failing_module(exc: BaseException, default: str) -> str:
    """The fibword module of the first library frame in the traceback."""
    tb = exc.__traceback__
    package = os.path.join(SRC, "fibword") + os.sep
    while tb is not None:
        path = tb.tb_frame.f_code.co_filename
        if path.startswith(package):
            return os.path.splitext(os.path.basename(path))[0]
        tb = tb.tb_next
    return default


class Outcomes:
    """Latencies, failures and work counters of the checked jobs of a run."""

    def __init__(self):
        self.latencies = []
        self.failed = {m: 0 for m in MODULES}
        self.errors = []
        self.work = {}

    def add(self, job, result, error, seconds) -> None:
        self.latencies.append(seconds)
        if error is None:
            try:
                job.check(result)
                for key, value in job.work(result).items():
                    if key.endswith("_max"):
                        self.work[key] = max(self.work.get(key, 0), value)
                    else:
                        self.work[key] = self.work.get(key, 0) + value
            except Exception as exc:   # a wrong answer, or a check that cannot read it
                error = exc
        if error is not None:
            module = failing_module(error, job.module)
            self.failed[module] = self.failed.get(module, 0) + 1
            self.errors.append(f"{job.kind} [{job.label}]: {type(error).__name__}: {error}")

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def n_failed(self) -> int:
        return len(self.errors)


def execute(job, call):
    # start every job from a collected heap, so when the cyclic collector runs
    # inside a job depends on that job alone, not on the jobs before it
    gc.collect()
    start = time.perf_counter()
    try:
        result, error = job.run(call), None
    except Exception as exc:          # counted as a failed job
        result, error = None, exc
    return result, error, time.perf_counter() - start


def cold_starts(code: str, count: int) -> list[float]:
    """Wall time of `count` fresh interpreters running code, one at a time."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, HERE)))
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def measure_setup(name: str) -> float:
    code = f"import workloads; workloads.warm_up({name!r})"
    cold_starts(code, 1)   # writes the bytecode caches; not counted
    return statistics.median(cold_starts(code, COLD_STARTS))


def tail_percentile(jobs: int) -> int:
    """Highest whole percentile with at least ten of `jobs` jobs beyond it."""
    return max(50, math.floor(100 * (1 - 10 / jobs)))


def percentile(values: list[float], q: int) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def environment() -> str:
    import numpy

    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"nproc {os.cpu_count()}, {platform.machine()}")


def run_untraced(workloads, name: str, seed: int, seconds: float) -> dict:
    setup_s = measure_setup(name)
    workloads.warm_up(name)
    wl = workloads.WORKLOADS[name]()
    outcomes = Outcomes()
    rounds, walls, log = 0, [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if rounds >= wl.rounds_min and elapsed + statistics.mean(walls) > seconds:
            break
        if rounds and elapsed > 120:     # keep inside the 180 s limit
            break
        round_start = time.perf_counter()
        jobs = wl.round(random.Random(f"{seed}:{name}:{rounds}"))
        for job in jobs:
            result, error, dt = execute(job, workloads.direct)
            outcomes.add(job, result, error, dt)
            log.append({"round": rounds, "slot": job.slot, "kind": job.kind,
                        "label": job.label, "seconds": dt})
        walls.append(time.perf_counter() - round_start)
        rounds += 1
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"jobs-{name}-{seed}.json"), "w") as fh:
        json.dump(log, fh, indent=0)

    # The latencies of all rounds are pooled. The tail percentile is fixed by
    # the size of one round, the seeded job list, so it is the same in every
    # run however many rounds fit.
    lat = outcomes.latencies
    n, per_round = len(lat), len(jobs)
    q = tail_percentile(per_round)
    if name == "cli":
        peak_kb = outcomes.work.get("child_rss_kb_max", 0)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": setup_s,
        "jobs_per_s": n / sum(lat),
        "job_p50_s": statistics.median(lat),
        "job_tail_s": percentile(lat, q),
        "peak_rss_mb": peak_kb / 1024,
    }
    notes = {
        "setup_s": f"median of {COLD_STARTS} cold starts",
        "jobs_per_s": f"{n} jobs, {rounds} rounds of {per_round}",
        "job_p50_s": f"{n} jobs",
        "job_tail_s": f"p{q}, {n} jobs, {n - math.ceil(q / 100 * n)} beyond",
        "peak_rss_mb": ("largest child process" if name == "cli" else "this process")
                       + f", {n} jobs",
    }
    print(f"workload {name}, seed {seed}: {environment()}")
    for key, unit in END_TO_END.items():
        print(f"  {key:12s} {values[key]:12.6g} {unit:4s} ({notes[key]})")
    print(f"  {'fail_ratio':12s} {outcomes.n_failed / n:12.6g} {'':4s} "
          f"({outcomes.n_failed} of {n} jobs failed)")
    return {"outcomes": outcomes,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}}


def run_traced(workloads, name: str, seed: int) -> dict:
    """Smoke pass plus the first round, each job run untraced and then traced."""
    cold_starts("import fibword", 1)   # writes the bytecode caches; not counted
    interpreter = statistics.median(cold_starts("pass", COLD_STARTS))
    imported = statistics.median(cold_starts("import fibword", COLD_STARTS))
    workloads.warm_up(name)
    for other in workloads.WORKLOADS:
        if other != name:
            workloads.warm_up(other)
    rng = random.Random(f"{seed}:{name}:smoke")
    # every layer once at tiny size, so no layer reads zero on any workload
    jobs = workloads.WordsWorkload().smoke(rng) + workloads.NumbersWorkload().smoke(rng)
    wl = workloads.WORKLOADS[name]()
    cli_ctx = wl.ctx if name == "cli" else workloads.CliContext()
    jobs.append(workloads.cli_job(cli_ctx, ["pisano", "7"], {"period": 16}))
    jobs += wl.round(random.Random(f"{seed}:{name}:0"))

    tracer = Tracer()
    outcomes = Outcomes()
    untraced = traced = 0.0
    for i, job in enumerate(jobs):
        _, _, seconds = execute(job, workloads.direct)
        untraced += seconds
        job_id = f"{job.kind}#{i}"
        gc.collect()
        try:
            result, error = tracer.run_job(job_id, job.run), None
        except Exception as exc:
            result, error = None, exc
        traced += tracer.last_job_s
        if error is None and job.argv is not None:
            code, out = tracer.root_call(job_id, workloads.cli_main_inprocess, job.argv)
            error = workloads.compare_inprocess(result, code, out)
        outcomes.add(job, result, error, tracer.last_job_s)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{name}-{seed}.jsonl"))

    values = tracer.layer_metrics(FUNCTIONS)
    for key, metric in WORK.items():
        values[metric] = outcomes.work.get(key, 0)
    for metric, (hits, tries) in RATIOS.items():
        values[metric] = outcomes.work.get(hits, 0) / max(1, outcomes.work.get(tries, 0))
    values["cli.interpreter_s"] = interpreter
    values["cli.import_s"] = imported - interpreter
    for module in MODULES:
        values[f"{module}.failed"] = outcomes.failed.get(module, 0)
    values["fail_ratio"] = outcomes.n_failed / outcomes.attempted
    values["trace.untraced_job_s"] = untraced
    values["trace.overhead_s"] = traced - untraced
    units = per_layer_units()
    print(f"workload {name}, seed {seed}, traced: {environment()}")
    print(f"  {outcomes.attempted} jobs; traced {traced:.4f} s, untraced {untraced:.4f} s, "
          f"layers cover {values['trace.layer_share']:.4f} of traced job time")
    return {"outcomes": outcomes,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}


def run_smoke(workloads) -> int:
    failed = 0
    for name, cls in workloads.WORKLOADS.items():
        workloads.warm_up(name)
        outcomes = Outcomes()
        for job in cls().smoke(random.Random(f"smoke:{name}")):
            outcomes.add(job, *execute(job, workloads.direct))
        print(f"smoke {name}: {outcomes.attempted} jobs, {outcomes.n_failed} failed")
        for line in outcomes.errors:
            print("  " + line)
        failed += outcomes.n_failed
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("words", "numbers", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("give --workload or --smoke")
    if not os.path.isfile(os.path.join(SRC, "fibword", "__init__.py")):
        print("perfbench: src/fibword not found; run from the root of a fibword checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads

    if args.smoke:
        return run_smoke(workloads)
    if args.trace:
        report = run_traced(workloads, args.workload, args.seed)
    else:
        report = run_untraced(workloads, args.workload, args.seed, args.seconds)
    outcomes = report["outcomes"]
    for line in outcomes.errors[:20]:
        print("  FAILED " + line)
    print(json.dumps({"correct": outcomes.n_failed == 0, "attempted": outcomes.attempted,
                      "failed": outcomes.n_failed, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
