#!/usr/bin/env python3
"""Socket-mode smoke test for fsbb_serve --listen.

Spawns the server on an ephemeral port with a one-job-per-tenant quota,
then drives three concurrent clients over real TCP connections:

  * client A (tenant "alpha") parks a long search and is then rejected
    with a structured tenant-quota reason when it over-submits;
  * client B (tenant "beta") solves a small instance to optimality while
    alpha's quota is exhausted — tenants are isolated;
  * client C asks for the metrics registry and asserts the accepted /
    rejected counters reflect the other two.

Client A then cancels its long job, and client D times 20 sequential
submit->result round trips of a small explicit instance on a socket left
at Python's defaults (Nagle on): each submit answers with two small
frames, and a server that leaves Nagle on too holds the second until the
client's delayed ACK (~40 ms), so the median must stay below 10 ms.
Finally the server is shut down via the remote shutdown op, and the
process must exit 0.

Usage: serve_smoke.py /path/to/fsbb_serve
"""

import json
import socket
import statistics
import subprocess
import sys
import threading
import time


class Client:
    """One NDJSON connection to the server."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.reader = self.sock.makefile("r", encoding="utf-8")

    def send(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())

    def read_until(self, **fields):
        """Next event whose fields all match (skips progress etc.)."""
        for line in self.reader:
            event = json.loads(line)
            if all(event.get(k) == v for k, v in fields.items()):
                return event
        raise AssertionError(f"connection closed waiting for {fields}")

    def close(self):
        self.sock.close()


def main():
    server = subprocess.Popen(
        [
            sys.argv[1],
            "--listen", "0",
            "--workers", "2",
            "--max-tenant-jobs", "1",
            "--quiet-progress",
            "--allow-remote-shutdown",
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    listening = json.loads(server.stdout.readline())
    assert listening["event"] == "listening", listening
    port = listening["port"]
    print(f"server listening on port {port}")

    alpha = Client(port)
    beta = Client(port)
    monitor = Client(port)

    # Alpha fills its quota with a search that cannot finish quickly (the
    # weak explicit upper bound suppresses the NEH seed).
    alpha.send({
        "op": "submit", "id": "long", "tenant": "alpha",
        "cli": "--jobs 14 --machines 10 --seed 777 --ub 1000000",
    })
    accepted = alpha.read_until(event="accepted", id="long")
    assert accepted["tenant"] == "alpha", accepted

    # Over-quota submit bounces with a structured reason and retry hint.
    alpha.send({
        "op": "submit", "id": "extra", "tenant": "alpha",
        "cli": "--jobs 8 --machines 4 --seed 1",
    })
    rejected = alpha.read_until(event="rejected", id="extra")
    assert rejected["reason"] == "tenant-quota", rejected
    assert rejected["retry_after_ms"] >= 100, rejected
    print(f"alpha over-quota rejected: {rejected}")

    # Beta proceeds concurrently — run it on its own thread so the three
    # connections genuinely overlap on the server.
    def solve_beta():
        beta.send({
            "op": "submit", "id": "b1", "tenant": "beta",
            "cli": "--jobs 8 --machines 4 --seed 1 --backend cpu-serial",
        })
        result = beta.read_until(event="result", id="b1")
        assert result["ok"] and result["stop_reason"] == "optimal", result
        print(f"beta solved: makespan "
              f"{result['report']['result']['best_makespan']}")

    beta_thread = threading.Thread(target=solve_beta)
    beta_thread.start()
    beta_thread.join(timeout=120)
    assert not beta_thread.is_alive(), "beta solve hung"

    # The shared registry saw all of it.
    monitor.send({"op": "metrics"})
    data = monitor.read_until(event="metrics")["data"]
    assert data["admission"]["accepted"] == 2, data["admission"]
    assert data["admission"]["rejected"]["tenant-quota"] == 1, \
        data["admission"]
    assert data["connections"]["opened"] >= 3, data["connections"]
    print(f"metrics: {json.dumps(data['admission'])}")

    # Cancel the parked job, then stop the server remotely.
    alpha.send({"op": "cancel", "id": "long"})
    canceled = alpha.read_until(event="result", id="long")
    assert canceled["stop_reason"] == "canceled", canceled

    # Request latency: sequential round trips, each a fresh solve (the
    # cache is bypassed) of a 3x2 instance that takes well under 1 ms.
    latency = Client(port)
    round_trips_ms = []
    for i in range(20):
        start = time.perf_counter()
        latency.send({
            "op": "submit", "id": f"rt{i}", "tenant": "gamma",
            "cache": "bypass", "cli": "--backend cpu-serial",
            "instance": {"ptm": [[3, 2], [1, 4], [2, 2]]},
        })
        result = latency.read_until(event="result", id=f"rt{i}")
        round_trips_ms.append((time.perf_counter() - start) * 1e3)
        assert result["ok"] and result["stop_reason"] == "optimal", result
    median_ms = statistics.median(round_trips_ms)
    print(f"submit->result round trip: median {median_ms:.2f} ms, "
          f"max {max(round_trips_ms):.2f} ms over 20")
    assert median_ms < 10.0, \
        f"round-trip median {median_ms:.2f} ms: is TCP_NODELAY set?"

    monitor.send({"op": "shutdown"})
    for client in (alpha, beta, monitor, latency):
        client.close()
    code = server.wait(timeout=60)
    assert code == 0, f"server exited {code}"
    print("OK: quota enforced, tenants isolated, low round-trip latency, "
          "clean remote shutdown")


if __name__ == "__main__":
    main()
