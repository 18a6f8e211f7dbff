"""The dist layer's measurement (part of serve_mix's traced run):
`fsbb_coordinator` with two `fsbb_serve --worker` processes proves 15x8
Taillard-generator instances.

The seed draws the run's instances, in order, from dist_pool.POOL (15x8
instances cpu-serial proves in 1000 to 5000 branched nodes). Each is also
solved in-process by cpu-serial (perfbench_core refsolve); the distributed
optimum must equal that one and its schedule must re-evaluate to it.
"""

import random
import re
import subprocess

from dist_pool import POOL
from pb_common import Spans, coordinator_bin, derived_rng, now, refsolve

JOBS, MACHINES = 15, 8
WORKERS = 2
BAND = (1000, 5000)   # serial branched nodes of a pool instance
SOLVES_PER_SECOND = 14  # instances drawn per second given (70 in 5 s)

SUMMARY = re.compile(r"dist: (\d+)/(\d+) shards, (\d+) incumbent broadcasts, "
                     r"(\d+) rebalances, (\d+) respawns")
STATS = re.compile(r"(\d+) branched, (\d+) bounded, (\d+) pruned")
TOTAL = re.compile(r"([0-9.e+-]+) s total, (\d+)% in the bounding operator")
MAKESPAN = re.compile(r"makespan (\d+) \((proven optimal|not proven[^)]*)\)")


def make_pool(draws=2400):
    """Regenerates dist_pool.POOL with the current cpu-serial."""
    rng = random.Random("dist-pool")
    seeds = [rng.randint(1, 2147483646) for _ in range(draws)]
    answers = refsolve([{"id": str(s), "taillard": [JOBS, MACHINES, s],
                         "node_budget": BAND[1] + 1} for s in seeds])
    return [s for s in seeds if answers[str(s)]["proven"]
            and BAND[0] <= answers[str(s)]["branched"] <= BAND[1]]


def coordinate(tseed):
    cmd = [coordinator_bin(), "--jobs", str(JOBS), "--machines",
           str(MACHINES), "--seed", str(tseed), "--dist-workers",
           str(WORKERS)]
    t0 = now()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    wall = now() - t0
    out = proc.stdout
    parsed = {"rc": proc.returncode, "wall_s": wall}
    m = MAKESPAN.search(out)
    order = re.search(r"order((?: J\d+)+)", out)
    s, t, d = STATS.search(out), TOTAL.search(out), SUMMARY.search(out)
    if proc.returncode != 0 or not (m and s and t and d):
        parsed["error"] = (proc.stderr or out).strip()[-300:]
        return parsed
    parsed.update({
        "makespan": int(m.group(1)),
        "proven": m.group(2) == "proven optimal",
        "perm": [int(j) for j in re.findall(r"J(\d+)", order.group(1))]
        if order else [],
        "branched": int(s.group(1)), "evaluated": int(s.group(2)),
        "report_wall_s": float(t.group(1)),
        "bounding_share": int(t.group(2)) / 100.0,
        "shards_dispatched": int(d.group(2)),
        "broadcasts": int(d.group(3)), "rebalances": int(d.group(4)),
        "respawns": int(d.group(5)),
    })
    return parsed


def run(seed, seconds, trace, tiny=False):
    spans = Spans(trace)
    count = 2 if tiny else min(len(POOL), int(SOLVES_PER_SECOND * seconds))
    drawn = derived_rng(seed, "dist").sample(POOL, count)
    refs = refsolve([{"id": str(s), "taillard": [JOBS, MACHINES, s]}
                     for s in drawn])
    ops = []
    for tseed in drawn:
        t0 = now()
        r = coordinate(tseed)
        spans.add("coordinator.run", "dist", t0, t0 + r["wall_s"],
                  op="15x8-s%d" % tseed)
        r["seed"], r["ref"] = tseed, refs[str(tseed)]
        ops.append(r)

    checks = refsolve([{"id": str(i), "taillard": [JOBS, MACHINES, r["seed"]],
                        "perm": r.get("perm", []), "solve": False}
                       for i, r in enumerate(ops)])
    failed, reasons = 0, []
    for i, r in enumerate(ops):
        why = verdict(r, checks[str(i)])
        if why:
            failed += 1
            if len(reasons) < 5:
                reasons.append("15x8-s%d: %s" % (r["seed"], why))

    good = [r for r in ops if "error" not in r]
    wall = sum(r["wall_s"] for r in good)
    serial_branched = sum(r["ref"]["branched"] for r in good)
    return {
        "attempted": len(ops),
        "failed": failed,
        "reasons": reasons,
        "layers": {
            "prove_s.dist": wall,
            "dist.shards_dispatched": sum(r["shards_dispatched"] for r in good),
            "dist.broadcasts": sum(r["broadcasts"] for r in good),
            "dist.rebalances": sum(r["rebalances"] for r in good),
            "dist.search_overhead": sum(r["branched"] for r in good)
            / max(1, serial_branched),
            "dist.worker_busy_share": sum(
                r["bounding_share"] * r["report_wall_s"] for r in good)
            / max(1e-9, WORKERS * sum(r["report_wall_s"] for r in good)),
        },
        "spans": spans,
    }


def verdict(r, check):
    if "error" in r:
        return "coordinator failed: " + r["error"]
    if not r["proven"]:
        return "not proven"
    if r["ref"].get("error"):
        return "reference failed: " + r["ref"]["error"]
    if r["makespan"] != r["ref"]["makespan"]:
        return "optimum %d != serial %d" % (r["makespan"], r["ref"]["makespan"])
    if r["perm"] and (not check.get("perm_valid")
                      or check.get("perm_makespan") != r["makespan"]):
        return "schedule re-evaluates to %s" % check.get("perm_makespan")
    return ""
