"""Shared helpers of the benchmark: timing, statistics, spans and the
in-process reference solver (perfbench_core refsolve)."""

import itertools
import json
import math
import os
import random
import subprocess
import time

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"


def core_bin():
    return os.path.join(BUILD_DIR, "perfbench_core")


def serve_bin():
    return os.path.join(BUILD_DIR, "fsbb", "fsbb_serve")


def coordinator_bin():
    return os.path.join(BUILD_DIR, "fsbb", "fsbb_coordinator")


def now():
    return time.perf_counter()


def median(values):
    values = sorted(values)
    n = len(values)
    if n == 0:
        return 0.0
    mid = n // 2
    return values[mid] if n % 2 else 0.5 * (values[mid - 1] + values[mid])


def quantile(values, q):
    """Nearest-rank quantile (q in [0, 1]) of a non-empty list."""
    values = sorted(values)
    if not values:
        return 0.0
    return values[max(0, math.ceil(q * len(values)) - 1)]


def derived_rng(seed, salt):
    """A deterministic generator for one purpose of one workload seed."""
    return random.Random("%d/%s" % (seed, salt))


_ORIGIN = time.perf_counter()
_SPAN_IDS = itertools.count(1_000_001)  # apart from the native trace's ids


class Spans:
    """Benchmark-side spans, kept in memory and merged with the native
    trace into one Chrome trace-event file at exit. Each span names its
    layer (cat), its parent and the operation it serves."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.events = []

    def add(self, name, cat, start, end, op="", parent=0):
        if not self.enabled:
            return 0
        span_id = next(_SPAN_IDS)
        self.events.append({
            "name": name, "cat": cat, "ph": "X",
            "ts": (start - _ORIGIN) * 1e6, "dur": (end - start) * 1e6,
            "pid": 2, "tid": 1,
            "args": {"id": span_id, "parent": parent, "op": op,
                     "untraced_child_ns": 0},
        })
        return span_id


def load_trace(path):
    with open(path) as f:
        return json.load(f)["traceEvents"]


def write_trace(path, events):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)


def self_time_by_cat(events):
    """Seconds of self time per layer: each span's duration minus what its
    recorded children cover and minus its counted-but-unrecorded child
    time (pid separates the native and the benchmark-side id spaces)."""
    child = {}
    for e in events:
        parent = e["args"].get("parent", 0)
        if parent:
            key = (e["pid"], parent)
            child[key] = child.get(key, 0.0) + e["dur"]
    out = {}
    for e in events:
        covered = child.get((e["pid"], e["args"]["id"]), 0.0)
        covered += e["args"].get("untraced_child_ns", 0) / 1e3
        out[e["cat"]] = out.get(e["cat"], 0.0) + max(0.0, e["dur"] - covered)
    return {cat: us / 1e6 for cat, us in out.items()}


def refsolve(requests):
    """Runs requests through perfbench_core refsolve (in-process cpu-serial
    and fsp::makespan); returns the answers keyed by id."""
    if not requests:
        return {}
    payload = "".join(json.dumps(r) + "\n" for r in requests)
    proc = subprocess.run([core_bin(), "refsolve"], input=payload,
                          capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError("refsolve failed: " + proc.stderr.strip())
    answers = {}
    for line in proc.stdout.splitlines():
        answer = json.loads(line)
        answers[answer["id"]] = answer
    return answers
