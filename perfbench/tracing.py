"""Spans around the benchmark's calls into each fibword layer.

A span has an id, a parent, the job it belongs to, a name, and its start and
end on the perf_counter clock. Jobs are root spans named "job"; the layer
calls a job makes are their children. Spans stay in memory until the run
ends, when `write` dumps them as JSON lines.
"""

import json
import time
from collections import defaultdict

# the layers, one per fibword module the benchmark calls into
MODULES = ("words", "complexity", "density", "modfib", "factorial_word", "cli")


def span_name(fn) -> str:
    name = getattr(fn, "span_name", None)
    if name:
        return name
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent, job, name, start, end)
        self._parent = None
        self._job = None
        self.last_job_s = 0.0

    def _record(self, parent, job, name, start, end) -> int:
        sid = len(self.spans)
        self.spans.append((sid, parent, job, name, start, end))
        return sid

    def run_job(self, job_id: str, body):
        """Run body(self.call) as one job span; its duration lands in last_job_s."""
        sid = self._record(None, job_id, "job", 0.0, 0.0)
        self._parent, self._job = sid, job_id
        start = time.perf_counter()
        try:
            return body(self.call)
        finally:
            end = time.perf_counter()
            self.spans[sid] = (sid, None, job_id, "job", start, end)
            self._parent = self._job = None
            self.last_job_s = end - start

    def call(self, fn, *args, **kwargs):
        parent, job = self._parent, self._job
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._record(parent, job, span_name(fn), start, end)

    def root_call(self, job_id: str, fn, *args, **kwargs):
        """A layer call outside any job's timed window."""
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._record(None, job_id, span_name(fn), start, time.perf_counter())

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, job, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job,
                                     "name": name, "start": start, "end": end}) + "\n")

    def layer_metrics(self, functions) -> dict[str, float]:
        """busy_s and calls per function, self_s per module, and the benchmark's
        own time inside job windows (bench.self_s)."""
        busy = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        for sid, parent, job, name, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s = defaultdict(float)
        job_s = in_job = 0.0
        for sid, parent, job, name, start, end in self.spans:
            d = end - start
            if name == "job":
                job_s += d
                self_s["bench"] += d - child[sid]
                continue
            busy[name] += d
            calls[name] += 1
            self_s[name.split(".", 1)[0]] += d - child[sid]
            if parent is not None:
                in_job += d - child[sid]
        out = {}
        for fn in functions:
            out[f"{fn}.busy_s"] = busy[fn]
            out[f"{fn}.calls"] = calls[fn]
        for module in MODULES + ("bench",):
            out[f"{module}.self_s"] = self_s[module]
        out["trace.job_s"] = job_s
        # layer self time inside job windows; the rest of job_s is bench.self_s
        out["trace.layer_share"] = in_job / job_s if job_s else 0.0
        out["trace.spans"] = len(self.spans)
        return out
