#!/usr/bin/env python3
"""The benchmark's own self-test, at a tiny size. From the repository root:

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, prints every metric of
BENCHMARK.json with its unit and its kind and passes its correctness
checks; that a deliberately wrong expected optimum makes prove_20x5 fail
operations; and that two different seeds produce different inputs that
both pass. Exits 1 on the first failed check.
"""

import json
import re
import subprocess
import sys

SECONDS = "2"


def run(workload, seed, trace=0, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace),
           "--tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail("%s exited %d: %s" % (" ".join(cmd), proc.returncode,
                                   proc.stderr.strip()[-2000:]))
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def fail(message):
    print("selftest FAILED: " + message)
    sys.exit(1)


def check(condition, message):
    if not condition:
        fail(message)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            table, result = run(workload, 7, trace)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  "%s: result keys %s" % (workload, sorted(result)))
            check(result["correct"] and result["failed"] == 0,
                  "%s trace %d: %s" % (workload, trace, "\n".join(table)))
            check(result["attempted"] >= 1, workload + ": nothing attempted")
            if trace:
                spans = re.search(r"traced run; (\d+) spans", "\n".join(table))
                check(spans and int(spans.group(1)) > 0,
                      workload + ": the traced run recorded no spans")
            metrics = result["metrics"]
            check(set(metrics) == {m["name"] for m in wanted},
                  "%s trace %d: metric names differ from BENCHMARK.json"
                  % (workload, trace))
            for m in wanted:
                got = metrics[m["name"]]
                check(got["unit"] == m["unit"] and
                      isinstance(got["value"], (int, float)),
                      "%s: bad %s %s" % (workload, m["name"], got))
                row = re.compile(r"^\s+%s\s+\S+\s+%s\s+(measured|modeled)$"
                                 % (re.escape(m["name"]), re.escape(m["unit"])))
                check(any(row.match(line) for line in table),
                      "%s: no table row with unit and kind for %s"
                      % (workload, m["name"]))
        print("ok  %s: every metric printed with unit and kind, checks pass"
              % workload)

    _, wrong = run("prove_20x5", 7, 0, "--optimum-offset", "1")
    check(not wrong["correct"] and wrong["failed"] > 0,
          "a wrong expected optimum did not fail any operation")
    print("ok  prove_20x5 with a wrong expected optimum: %d of %d failed"
          % (wrong["failed"], wrong["attempted"]))

    for workload in ("prove_20x5", "offload_20x20"):
        digests = []
        for seed in (11, 12):
            table, result = run(workload, seed)
            check(result["correct"], "%s seed %d failed" % (workload, seed))
            digests.append(re.search(r"inputs (\d+)", table[0]).group(1))
        check(digests[0] != digests[1],
              workload + ": seeds 11 and 12 gave the same inputs")
        print("ok  %s: seeds 11 and 12 give different inputs, both pass"
              % workload)
    print("selftest passed")


if __name__ == "__main__":
    main()
