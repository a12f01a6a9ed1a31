"""Closed-loop HTTP load generator for the ``serve-hot`` workload.

Runs in its own process and imports only the standard library, so the
server's process and interpreter lock are not shared with the client::

    python3 perfbench/loadgen.py PLAN.json

The plan names the server address, the number of keep-alive connections,
how long to send, the request bodies (repeated round-robin) and which
request indices to keep a served body of.  One thread drives every
connection through a selector: each connection sends its next request
only after the previous answer was read in full, and a request's latency
runs from send to the last body byte.  Sending runs in windows of
``bucket_seconds``: at the end of a window each connection stops once
its answer is in, and with the server idle the client times the
reference computation (``reference.py``) before opening the next.
Bodies are not decoded; an answer counts as failed unless its status is
200 and its trailing cache section reports a hit.  The first answer to
each sampled request index is saved as ``sample-<index>.json`` in the
plan's sample directory.

Prints one JSON object: completed and failed counts, each latency in
seconds with its window's reference time, each window's completion rate
with its reference time, and this process's CPU time.
"""

from __future__ import annotations

import json
import selectors
import socket
import sys
import time
from pathlib import Path

from reference import gauge

HIT_MARK = b'"hit": true'


class Connection:
    """One keep-alive connection with at most one request in flight."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.buffer = bytearray()
        self.index = -1
        self.sent_at = 0.0
        self.expected = -1
        self.status = 0

    def send(self, index: int, request: bytes) -> None:
        self.index = index
        self.buffer.clear()
        self.expected = -1
        self.sent_at = time.perf_counter()
        self.sock.setblocking(True)
        self.sock.sendall(request)
        self.sock.setblocking(False)

    def receive(self) -> bool:
        """Read what arrived; True once the whole answer is in."""
        data = self.sock.recv(1 << 20)
        if not data:
            raise ConnectionError("server closed the connection")
        self.buffer += data
        if self.expected < 0:
            end = self.buffer.find(b"\r\n\r\n")
            if end < 0:
                return False
            head = bytes(self.buffer[:end]).decode("latin-1").split("\r\n")
            self.status = int(head[0].split(" ")[1])
            length = next(
                int(line.split(":", 1)[1])
                for line in head[1:]
                if line.lower().startswith("content-length:")
            )
            self.expected = end + 4 + length
            self.body_start = end + 4
        return len(self.buffer) >= self.expected


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    requests = []
    for body in plan["bodies"]:
        encoded = body.encode("utf-8")
        requests.append(
            (
                "POST /v1/evaluate HTTP/1.1\r\n"
                f"Host: {plan['host']}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(encoded)}\r\n\r\n"
            ).encode("latin-1")
            + encoded
        )
    sampled = set(plan["sampled"])
    sample_dir = Path(plan["sample_dir"])
    selector = selectors.DefaultSelector()
    connections = [Connection(plan["host"], plan["port"]) for _ in range(plan["connections"])]
    for connection in connections:
        selector.register(connection.sock, selectors.EVENT_READ, connection)
    latencies = []
    windows = []
    failed = 0
    issued = 0
    idle = list(connections)
    deadline = time.perf_counter() + plan["seconds"]
    while idle and time.perf_counter() < deadline:
        # Every connection is idle: gauge the host, then open a window.
        reference = gauge()
        window = {"start": time.perf_counter(), "end": 0.0, "completed": 0, "reference": reference}
        windows.append(window)
        window_end = window["start"] + plan["bucket_seconds"]
        for connection in idle:
            connection.send(issued % len(requests), requests[issued % len(requests)])
            issued += 1
        idle = []
        while len(idle) < len(connections):
            for key, _events in selector.select():
                connection = key.data
                if not connection.receive():
                    continue
                finished = time.perf_counter()
                latencies.append((finished - connection.sent_at, reference))
                window["end"] = finished
                window["completed"] += 1
                body = connection.buffer[connection.body_start : connection.expected]
                if connection.status != 200 or HIT_MARK not in body[-256:]:
                    failed += 1
                if connection.index in sampled:
                    sampled.discard(connection.index)
                    (sample_dir / f"sample-{connection.index}.json").write_bytes(body)
                if finished < window_end:
                    connection.send(issued % len(requests), requests[issued % len(requests)])
                    issued += 1
                else:
                    idle.append(connection)
    for connection in connections:
        selector.unregister(connection.sock)
        connection.sock.close()
    selector.close()
    print(
        json.dumps(
            {
                "completed": len(latencies),
                "failed": failed,
                "latencies": latencies,
                "windows": [
                    (w["completed"] / (w["end"] - w["start"]), w["reference"]) for w in windows
                ],
                "cpu_s": time.process_time(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
