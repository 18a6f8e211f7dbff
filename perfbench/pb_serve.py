"""serve_mix: open-loop NDJSON submits over TCP to `fsbb_serve --listen`.

One process, one asyncio loop, CONNECTIONS client connections. Arrivals
are Poisson at a fixed offered rate; each request is timed from when it
was due to be sent. After the fixed-rate phase a short ladder of rates
finds the highest rate whose p99 meets LATENCY_LIMIT_MS without a growing
backlog. Every answer is checked afterwards against an in-process
cpu-serial solve of the same matrix, and every returned schedule is
re-evaluated with fsp::makespan (perfbench_core refsolve).
"""

import asyncio
import json
import signal
import subprocess

from pb_common import (Spans, derived_rng, median, now, quantile, refsolve,
                       serve_bin)

# The traffic is synthetic; README.md gives the basis of each number.
WORKERS = 2            # service workers: half the 4-core load cap
CONNECTIONS = 4        # client connections, requests assigned round-robin
FIXED_REQUESTS = 1200  # >= 1000, so p99 has >= 10 samples beyond it
FIXED_RPS = 150.0      # a tenth of the highest rate that held the limit
COPY_SHARE = 0.30      # job-relabelled or machine-reversed earlier requests
HARD_SHARE = 0.01      # low-priority, deadline-bounded ta001 jobs
HARD_DEADLINE_MS = 20
LATENCY_LIMIT_MS = 100.0
LADDER_RPS = (750.0, 1500.0, 3000.0)  # 5, 10 and 20 times the fixed rate
SETUP_REPS = 31

# The hard jobs: ta001 from fsbb_serve's own generator, bypassing the
# cache so each one holds a worker until its deadline (published optimum
# 1278, far from provable within it).
TA001 = {"taillard": [20, 5, 873654221], "optimum": 1278}


class Request:
    __slots__ = ("rid", "kind", "ptm", "line", "due", "sent", "done",
                 "event", "span")

    def __init__(self, rid, kind, ptm):
        self.rid, self.kind, self.ptm = rid, kind, ptm
        self.due = self.sent = self.done = None
        self.event = self.span = None
        cli = "--backend cpu-serial"
        msg = {"op": "submit", "id": rid, "cli": cli, "tenant": "bench"}
        if kind == "hard":
            msg["cli"] = cli + " --ta 1 --deadline-ms %d" % HARD_DEADLINE_MS
            msg["priority"] = "low"
            msg["cache"] = "bypass"
        else:
            msg["instance"] = {"name": rid, "ptm": ptm}
        self.line = (json.dumps(msg, separators=(",", ":")) + "\n").encode()


class Mix:
    """Seeded request stream: fresh small matrices, copies of earlier ones
    (cache hits once the original is proven), and a few hard jobs."""

    def __init__(self, seed):
        self.rng = derived_rng(seed, "serve")
        self.fresh = []
        self.count = 0

    def next(self, phase):
        self.count += 1
        rid = "%s%d" % (phase[0], self.count)
        r = self.rng.random()
        if r < HARD_SHARE:
            return Request(rid, "hard", None)
        if r < HARD_SHARE + COPY_SHARE and len(self.fresh) > 40:
            # Older than the last 20 fresh ones, so usually already cached.
            base = self.fresh[self.rng.randrange(max(0, len(self.fresh) - 300),
                                                 len(self.fresh) - 20)]
            if self.rng.random() < 0.5:
                rows = list(base)
                self.rng.shuffle(rows)
            else:
                rows = [list(reversed(row)) for row in base]
            return Request(rid, "copy", rows)
        jobs = self.rng.choice((8, 9))
        rows = [[self.rng.randint(1, 99) for _ in range(5)]
                for _ in range(jobs)]
        self.fresh.append(rows)
        return Request(rid, "fresh", rows)


def spawn_server():
    """Starts fsbb_serve on an ephemeral port; returns (proc, port, secs)
    with secs the time from spawn until the listening line."""
    t0 = now()
    proc = subprocess.Popen(
        [serve_bin(), "--listen", "0", "--workers", str(WORKERS),
         "--quiet-progress", "--max-tenant-jobs", "0",
         "--max-queue-depth", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    line = proc.stdout.readline()
    took = now() - t0
    event = json.loads(line)
    if event.get("event") != "listening":
        stop_server(proc)
        raise RuntimeError("fsbb_serve did not report listening: " + line)
    return proc, int(event["port"]), took


def stop_server(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


class Conn:
    def __init__(self, reader, writer, pending, waiter):
        self.reader, self.writer = reader, writer
        self.pending, self.waiter = pending, waiter
        self.task = asyncio.ensure_future(self.read_loop())

    async def read_loop(self):
        while True:
            line = await self.reader.readline()
            if not line:
                return
            t = now()
            event = json.loads(line)
            kind = event.get("event")
            if kind == "metrics":
                self.waiter["metrics"] = event
                continue
            if kind not in ("result", "rejected", "error"):
                continue
            req = self.pending.pop(event.get("id"), None)
            if req is None:
                continue
            req.done, req.event = t, event
            if not self.pending:
                self.waiter["idle"].set()


async def run_phase(conns, pending, requests, rate, rng, idle):
    """Sends `requests` open-loop at Poisson rate `rate` (per second) and
    waits until every one is answered."""
    t = now() + 0.005
    for i, req in enumerate(requests):
        t += rng.expovariate(rate)
        req.due = t
        delay = t - now()
        if delay > 0:
            await asyncio.sleep(delay)
        req.sent = now()
        pending[req.rid] = req
        idle.clear()
        conns[i % len(conns)].writer.write(req.line)
    for c in conns:
        await c.writer.drain()
    if pending:
        await asyncio.wait_for(idle.wait(), timeout=60)


def latencies_ms(requests):
    return [(r.done - r.due) * 1e3 for r in requests if r.done is not None]


def rung_ok(requests):
    """p99 within the limit and no growing backlog: the last quarter's
    median latency at most twice the first quarter's (plus 1 ms)."""
    lat = latencies_ms(requests)
    if len(lat) < len(requests):
        return False, 0.0
    q = max(1, len(lat) // 4)
    growing = median(lat[-q:]) > 2 * median(lat[:q]) + 1.0
    p99 = quantile(lat, 0.99)
    return p99 <= LATENCY_LIMIT_MS and not growing, p99


async def drive(port, seed, seconds, fixed_requests):
    mix = Mix(seed)
    rng = derived_rng(seed, "arrivals")
    pending, waiter = {}, {"idle": asyncio.Event()}
    conns = []
    for _ in range(CONNECTIONS):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 24)
        conns.append(Conn(reader, writer, pending, waiter))

    # Fixed-rate phase (8 s), then the ladder in a quarter of the run.
    fixed = [mix.next("fixed") for _ in range(fixed_requests)]
    await run_phase(conns, pending, fixed, FIXED_RPS, rng, waiter["idle"])

    ladder = []
    rung_seconds = 0.25 * seconds / len(LADDER_RPS)
    for rate in LADDER_RPS:
        reqs = [mix.next("ladder") for _ in range(int(rate * rung_seconds))]
        await run_phase(conns, pending, reqs, rate, rng, waiter["idle"])
        ok, p99 = rung_ok(reqs)
        ladder.append({"rate": rate, "p99_ms": p99, "ok": ok,
                       "requests": reqs})

    conns[0].writer.write(b'{"op":"metrics"}\n')
    await conns[0].writer.drain()
    for _ in range(200):
        if "metrics" in waiter:
            break
        await asyncio.sleep(0.01)
    for c in conns:
        c.writer.close()
    for c in conns:
        try:
            await c.writer.wait_closed()
        except OSError:
            pass
        c.task.cancel()
    return fixed, ladder, waiter.get("metrics")


def check(requests):
    """Returns (failed, reasons) after checking every answered request."""
    asks = []
    for r in requests:
        ev = r.event or {}
        rep = ev.get("report") or {}
        res = rep.get("result") or {}
        ask = {"id": r.rid, "perm": res.get("best_permutation", []),
               "solve": r.kind != "hard"}
        if r.kind == "hard":
            ask["taillard"] = TA001["taillard"]
        else:
            ask["ptm"] = r.ptm
        asks.append(ask)
    answers = refsolve(asks)
    failed, reasons = 0, []
    for r in requests:
        why = verdict(r, answers.get(r.rid, {}))
        if why:
            failed += 1
            if len(reasons) < 5:
                reasons.append("%s: %s" % (r.rid, why))
    return failed, reasons


def verdict(r, ref):
    ev = r.event
    if ev is None:
        return "no answer"
    if ev.get("event") != "result" or not ev.get("ok"):
        return "refused or errored: " + json.dumps(ev)[:200]
    res = ev["report"]["result"]
    got = res["best_makespan"]
    if ref.get("error"):
        return "reference failed: " + ref["error"]
    if not ref.get("perm_valid") or ref.get("perm_makespan") != got:
        return "schedule re-evaluates to %s, reported %s" % (
            ref.get("perm_makespan"), got)
    if r.kind == "hard":
        return "" if got >= TA001["optimum"] else "below the proven optimum"
    if not res.get("proven_optimal"):
        return "not proven"
    if got != ref.get("makespan"):
        return "makespan %s != in-process cpu-serial %s" % (
            got, ref.get("makespan"))
    return ""


def run(seed, seconds, trace, tiny=False):
    spans = Spans(trace)
    setups = []

    def spawn():
        t0 = now()
        proc, port, took = spawn_server()
        spans.add("serve.spawn_until_listening", "serve", t0, t0 + took,
                  op="setup")
        setups.append(took)
        return proc, port

    # Spawned several times, before and after the traffic, for the median.
    for _ in range(SETUP_REPS // 2):
        stop_server(spawn()[0])
    proc, port = spawn()
    try:
        fixed, ladder, metrics = asyncio.run(
            drive(port, seed, seconds, 100 if tiny else FIXED_REQUESTS))
    finally:
        stop_server(proc)
    for _ in range(SETUP_REPS // 2):
        stop_server(spawn()[0])

    everything = fixed + [r for rung in ladder for r in rung["requests"]]
    failed, reasons = check(everything)

    lat = latencies_ms(fixed)
    solved = [r for r in fixed
              if r.event and r.event.get("event") == "result"
              and r.event.get("ok") and r.event.get("cache") != "exact"]
    solve_ms = [r.event["report"]["stats"]["wall_seconds"] * 1e3
                for r in solved]
    wait_ms = [(r.done - r.due) * 1e3 - s for r, s in zip(solved, solve_ms)]
    late_ms = [(r.sent - r.due) * 1e3 for r in fixed]

    # Each request's span, with its reported solve time as a child placed
    # at the end of the request.
    for r in fixed:
        if r.done is not None:
            r.span = spans.add("serve.request", "serve", r.due, r.done,
                               op=r.rid)
    for r, s in zip(solved, solve_ms):
        spans.add("api.solve", "api", r.done - s / 1e3, r.done, op=r.rid,
                  parent=r.span)

    m = (metrics or {}).get("data", metrics or {})
    cache = m.get("cache", {})
    hits, misses = cache.get("exact_hits", 0), cache.get("misses", 0)
    lookups = hits + misses + cache.get("warm_starts", 0)
    rejects = sum(m.get("admission", {}).get("rejected", {}).values())
    protocol_errors = m.get("errors", {}).get("malformed_requests", 0)

    guards = []
    if hits == 0 or misses == 0:
        guards.append("serve_mix needs both cache hits and misses "
                      "(hits %d, misses %d)" % (hits, misses))
    if metrics is None:
        guards.append("no metrics event")

    max_rate = 0.0
    for rung in ladder:  # highest rung of the unbroken passing prefix
        if not rung["ok"]:
            break
        max_rate = rung["rate"]

    return {
        "attempted": len(everything),
        "failed": failed,
        "reasons": reasons,
        "guards": guards,
        "setup_s": median(setups),
        "time_to_result_ms": sum(lat) / len(lat),
        "layers": {
            "latency_p50_ms": quantile(lat, 0.5),
            "latency_p99_ms": quantile(lat, 0.99),
            "max_rate_rps": max_rate,
            "api.queue_wait_ms.p50": quantile(wait_ms, 0.5),
            "api.queue_wait_ms.p99": quantile(wait_ms, 0.99),
            "api.solve_ms.p50": quantile(solve_ms, 0.5),
            "api.solve_ms.p99": quantile(solve_ms, 0.99),
            "serve.cache.exact_hits": hits,
            "serve.cache.misses": misses,
            "serve.cache.hit_ratio": hits / lookups if lookups else 0.0,
            "serve.admission.rejects": rejects,
            "serve.protocol_errors": protocol_errors,
            "serve.gen_late_ms": quantile(late_ms, 0.99),
        },
        "ladder": [{"rate": round(r["rate"], 1), "p99_ms": round(r["p99_ms"], 3),
                    "ok": r["ok"]} for r in ladder],
        "spans": spans,
    }
