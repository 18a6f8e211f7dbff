#!/usr/bin/env python3
"""The repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
fsbb library, fsbb_serve, fsbb_coordinator and perfbench_core into
.bench_build/; later runs rebuild incrementally. The run then measures
the workload for about S seconds, checks every answer, prints a table of
every metric (name, value, unit, measured/modeled) and, as its last line,
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; a traced run also writes a Chrome
trace-event file to .bench_out/.

Workloads: prove_20x5, offload_20x20, serve_mix (whose traced run also
measures the dist layer with two-worker fsbb_coordinator solves).
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pb_dist  # noqa: E402
import pb_serve  # noqa: E402
from pb_common import (BUILD_DIR, OUT_DIR, core_bin, load_trace,  # noqa: E402
                       median, self_time_by_cat, write_trace)

WORKLOADS = ("prove_20x5", "offload_20x20", "serve_mix")
# Published time seeds: ta001's for prove_20x5, ta021's for offload_20x20.
DEFAULT_SEEDS = {"prove_20x5": 873654221, "offload_20x20": 479340445}
NEEDED = ("BENCHMARK.json", "CMakeLists.txt", "src", "tools/fsbb_serve.cpp",
          "tools/fsbb_coordinator.cpp", "perfbench/CMakeLists.txt")
TARGETS = ("perfbench_core", "fsbb_serve", "fsbb_coordinator")


def die(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_DIR, "build.log"), "a") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                      *TARGETS])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
                log.flush()
                with open(log.name) as f:
                    tail = f.read()[-3000:]
                die("build failed:\n" + tail, 1)


# ----------------------------------------------------------- native half --

def run_core(cmd, args, trace_file, extra=()):
    argv = [core_bin(), cmd, "--seed", str(args.seed), "--seconds",
            str(args.seconds), *extra]
    if trace_file:
        argv += ["--trace-out", trace_file]
    if args.tiny:
        argv.append("--tiny")
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        die("perfbench_core %s failed: %s" % (cmd, proc.stderr.strip()), 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bound_layer(r):
    """fsp.bound.* from the TimedEvaluator decorator (traced runs)."""
    calls, nodes = r.get("bound_calls", 0), r.get("bound_nodes", 0)
    busy = r.get("bound_busy_s", 0.0)
    return {
        "fsp.bound.calls": calls, "fsp.bound.nodes": nodes,
        "fsp.bound.busy_s": busy,
        "fsp.bound.ns_per_node": busy * 1e9 / nodes if nodes else 0.0,
    }


def probe_overhead(r):
    p = r.get("trace_probe")
    return p["traced_s"] / p["plain_s"] - 1.0 if p and p["plain_s"] > 0 else 0.0


def prove(args, trace_file):
    extra = ["--optimum-offset", str(args.optimum_offset)]
    r = run_core("prove", args, trace_file, extra)
    ops = r["ops"]
    # Pass 1 proves every instance once; the layer metrics come from it.
    first = [o for o in ops if o["pass"] == 1]
    by = {b: [o for o in first if o["backend"] == b]
          for b in ("cpu-serial", "cpu-steal")}
    deadline, cap = r["deadline_s"], r["cap_s"]

    def limit(o):
        return cap if o["timed"] else deadline

    def prove_s(backend):  # deadline stops counted at the deadline
        return sum(o["wall_s"] if o["proven"] else limit(o)
                   for o in by[backend])

    def proof_pass_s(p):  # a stop at the cap is charged twice the cap
        return sum(o["wall_s"] if o["proven"] else 2 * cap for o in ops
                   if o["pass"] == p and o["backend"] == "cpu-steal")

    serial = {o["instance"]: o for o in by["cpu-serial"]}
    both = [(serial[o["instance"]], o) for o in by["cpu-steal"]
            if o["proven"] and serial[o["instance"]]["proven"]]
    stealing = by["cpu-steal"]
    steal_ok = sum(o.get("steal_successes", 0) for o in stealing)
    steal_try = sum(o.get("steal_attempts", 0) for o in stealing)
    s_ops = by["cpu-serial"]
    generated = sum(o["generated"] for o in s_ops)
    layers = {
        "proved.cpu-serial": sum(o["proven"] for o in s_ops),
        "proved.cpu-steal": sum(o["proven"] for o in by["cpu-steal"]),
        "prove_s.cpu-serial": prove_s("cpu-serial"),
        "prove_s.cpu-steal": prove_s("cpu-steal"),
        "fsp.neh_s": median(r["neh_s"]),
        "fsp.lb_data_s": median(r["lb_data_s"]),
        "core.branched": sum(o["branched"] for o in s_ops),
        "core.pruned": sum(o["pruned"] for o in s_ops),
        "core.prune_ratio": sum(o["pruned"] for o in s_ops) / max(1, generated),
        "mtbb.steal.attempts": steal_try,
        "mtbb.steal.successes": steal_ok,
        "mtbb.steal.success_rate": steal_ok / steal_try if steal_try else 0.0,
        "mtbb.nodes_stolen": sum(o.get("nodes_stolen", 0)
                                 for o in stealing),
        "mtbb.search_overhead": (sum(b["branched"] for _, b in both)
                                 / max(1, sum(a["branched"] for a, _ in both))
                                 if both else 0.0),
    }
    if trace_file:
        layers.update(bound_layer(r))
        replay = r["replay"]
        layers["fsp.set_parent.ns"] = replay["set_parent_ns"]
        layers["fsp.siblings.ns_per_child"] = replay["ns_per_child"]
        layers["trace.overhead_share"] = probe_overhead(r)
    guards = []
    if steal_ok == 0:
        guards.append("cpu-steal recorded no successful steal")
    if trace_file and r["replay"]["mismatches"]:
        guards.append("replayed sibling bounds differ from the engine's")
    return {
        "attempted": len(ops),
        "failed": sum(not o["ok"] for o in ops),
        "reasons": ["pass %d %s/%s: %s" % (o["pass"], o["instance"],
                                          o["backend"], o["why"])
                    for o in ops if not o["ok"]][:5],
        "guards": guards,
        "setup_s": median(r["setup_s"]),
        # The unit of work is one cpu-steal proof pass over the timed
        # instances, a tree that is the same in every pass, search order and
        # seed; median over the passes. cpu-serial is left out: one thread
        # is at the mercy of one vCPU's neighbours (see README.md).
        "time_to_result_ms": 1e3 * median(
            [proof_pass_s(p) for p in range(2, r["passes"] + 1)]),
        "layers": layers,
        "note": "suite %s, %d proof passes, deadline %.3g s, cap %.3g s, "
        "inputs %s" % ("published" if r["published"] else "relabelled",
                       r["passes"] - 1, deadline, cap, r["digest"]),
    }


def offload(args, trace_file):
    r = run_core("offload", args, trace_file)
    ops = r["ops"]
    by = {b: [o for o in ops if o["backend"] == b]
          for b in ("cpu-threads", "gpu-sim", "gpu-sim-dfs")}

    def rate(backend):
        return (sum(o["evaluated"] for o in by[backend])
                / max(1e-9, sum(o["wall_s"] for o in by[backend])))

    def med(backend, key):
        return median([o[key] for o in by[backend]])

    gpu = by["gpu-sim"]
    evaluated = med("gpu-sim", "evaluated")
    layers = {
        "bound_nodes_per_s.cpu-threads": rate("cpu-threads"),
        "bound_nodes_per_s.gpu-sim": rate("gpu-sim"),
        "modeled_nodes_per_s.gpu-sim": median(
            [o["evaluated"] / o["modeled_s"] for o in gpu]),
        "modeled_nodes_per_s.gpu-sim-dfs": median(
            [o["evaluated"] / o["modeled_s"] for o in by["gpu-sim-dfs"]]),
        "fsp.neh_s": median(r["neh_s"]),
        "fsp.lb_data_s": median(r["lb_data_s"]),
        "core.branched": med("cpu-threads", "branched"),
        "core.pruned": med("cpu-threads", "pruned"),
        "core.prune_ratio": med("cpu-threads", "pruned")
        / max(1, med("cpu-threads", "generated")),
        "gpubb.pool.refills": med("gpu-sim", "pool_refills"),
        "gpubb.pool.overflow": med("gpu-sim", "pool_overflow"),
        "gpubb.pool.spills": med("gpu-sim", "pool_spills"),
        "gpubb.pool.steals": med("gpu-sim", "pool_steals"),
        "gpubb.overflow_share": med("gpu-sim", "pool_overflow") / max(1, evaluated),
        "gpubb.host_sim_s_per_node": median(
            [o["wall_s"] / o["evaluated"] for o in gpu]),
        "gpusim.kernel_s": med("gpu-sim", "kernel_s"),
        "gpusim.h2d_s": med("gpu-sim", "h2d_s"),
        "gpusim.d2h_s": med("gpu-sim", "d2h_s"),
        "gpusim.h2d_bytes": med("gpu-sim", "h2d_bytes"),
        "gpusim.d2h_bytes": med("gpu-sim", "d2h_bytes"),
        "gpusim.overhead_s": med("gpu-sim", "overhead_s"),
        "gpusim.launches": med("gpu-sim", "launches"),
        "gpusim.bytes_per_node": (med("gpu-sim", "h2d_bytes")
                                  + med("gpu-sim", "d2h_bytes"))
        / max(1, evaluated),
    }
    if trace_file:
        layers.update(bound_layer(r))
        layers["trace.overhead_share"] = probe_overhead(r)
    guards = ["resident pool recorded no refill (pass %d)" % (i + 1)
              for i, o in enumerate(gpu) if o.get("pool_refills", 0) == 0]
    return {
        "attempted": len(ops),
        "failed": sum(not o["ok"] for o in ops),
        "reasons": [o["backend"] + ": " + o["why"] for o in ops
                    if not o["ok"]][:5],
        "guards": guards[:1],
        "setup_s": median(r["setup_s"]),
        # The unit of work is one budgeted gpu-sim (resident pool) solve:
        # the simulator's host wall, LB1 kernels included; median over the
        # passes. cpu-threads and gpu-sim-dfs are checked and reported per
        # layer but not timed here (see README.md).
        "time_to_result_ms": 1e3 * med("gpu-sim", "wall_s"),
        "layers": layers,
        "note": "%s, %d-node budget, %d passes, inputs %s" % (
            r["instance"], r["node_budget"], r["passes"], r["digest"]),
    }


def serve_mix(args, _native_trace):
    result = pb_serve.run(args.seed, args.seconds, bool(args.trace),
                          tiny=args.tiny)
    # Spans are built from timestamps the run takes anyway, after it.
    result["layers"]["trace.overhead_share"] = 0.0
    if args.trace:
        # The dist layer: two-worker coordinator solves in a quarter of the
        # run's time. Its wall time moves with the machine's process and
        # pipe latency far more than any workload's bound allows, so it is
        # measured here, per layer, and not as a workload of its own.
        dist = pb_dist.run(args.seed, max(1, args.seconds // 4), True,
                           tiny=args.tiny)
        for key in ("attempted", "failed"):
            result[key] += dist[key]
        result["reasons"] += dist["reasons"]
        result["layers"].update(dist["layers"])
        result["spans"].events += dist["spans"].events
    return result


# ---------------------------------------------------------------- report --

MODELED_PREFIXES = ("modeled_nodes_per_s.", "gpusim.")


def kind(name):
    return "modeled" if name.startswith(MODELED_PREFIXES) else "measured"


def print_table(title, names, values, units):
    print(title)
    for name in names:
        print("  %-34s %16.6g  %-6s %s" % (name, values[name], units[name],
                                         kind(name)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs (perfbench/selftest.py): small sizes, wrong optima.
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--optimum-offset", type=int, default=0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed is None:
        args.seed = DEFAULT_SEEDS.get(args.workload, 1)
    if args.seconds < 1:
        die("--seconds must be >= 1")

    missing = [p for p in NEEDED if not os.path.exists(p)]
    if missing:
        die("run from the repository root (missing: %s)" % ", ".join(missing))
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    build()

    runners = {"prove_20x5": prove, "offload_20x20": offload,
               "serve_mix": serve_mix}

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s_%d" % (args.workload, args.seed))
    native = args.workload in ("prove_20x5", "offload_20x20")
    native_trace = stem + "_native.json" if args.trace and native else ""
    result = runners[args.workload](args, native_trace)

    failed = result["failed"] + len(result["guards"])
    attempted = max(1, result["attempted"])
    e2e = {"setup_s": result["setup_s"],
           "time_to_result_ms": result["time_to_result_ms"]}
    layers = dict(result["layers"])
    layers["failed_share"] = failed / attempted

    print("perfbench %s  seed %d  %d s  trace %d  (%s)" % (
        args.workload, args.seed, args.seconds, args.trace,
        result.get("note", "%d operations" % attempted)))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    if args.trace:
        spans = result.get("spans")
        events = load_trace(native_trace) if native_trace else []
        if spans is not None:
            events += spans.events
        trace_path = stem + "_trace.json"
        write_trace(trace_path, events)
        if native_trace:
            os.remove(native_trace)
        self_s = self_time_by_cat(events)
        if args.workload in ("prove_20x5", "offload_20x20"):
            layers["core.engine_self_s"] = self_s.get("core", 0.0)
        values = {m["name"]: float(layers.get(m["name"], 0.0)) for m in wanted}
        print_table("per-layer metrics (traced run; %d spans in %s):" % (
            len(events), trace_path), [m["name"] for m in wanted], values,
            units)
        print("  self time by layer: " + ", ".join(
            "%s %.4g s" % kv for kv in sorted(self_s.items())))
        untraced = stem + "_untraced.json"
        if os.path.exists(untraced):
            with open(untraced) as f:
                base = json.load(f)["time_to_result_ms"]
            print("  tracing overhead vs the untraced run: %+.2f%% on "
                  "time_to_result_ms"
                  % (100 * (e2e["time_to_result_ms"] / base - 1)))
    else:
        values = {m["name"]: float(e2e[m["name"]]) for m in wanted}
        print_table("end-to-end metrics:", [m["name"] for m in wanted], values,
                    units)
        named = sorted(k for k in layers if k.split(".")[0] in (
            "proved", "prove_s", "bound_nodes_per_s", "modeled_nodes_per_s")
            or k.startswith(("latency_p", "max_rate")) or k == "failed_share")
        print_table("workload metrics:", named, layers,
                    {k: units.get(k, "") for k in named})
        with open(stem + "_untraced.json", "w") as f:
            json.dump(e2e, f)
    if "ladder" in result:
        print("  ladder: " + ", ".join(
            "%g/s p99 %.1f ms %s" % (r["rate"], r["p99_ms"],
                                     "ok" if r["ok"] else "over")
            for r in result["ladder"]))
    for reason in result["reasons"] + result["guards"]:
        print("  FAILED: " + reason)
    print("correctness: %d attempted, %d failed" % (attempted, failed))

    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in values}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
