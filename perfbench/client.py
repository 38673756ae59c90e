"""HTTP/1.1 load generators for the service, timed phase by phase.

Raw sockets rather than an HTTP library, so that each request can be
split into connect, headers-received and body-received phases.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass
from time import perf_counter

HOST = "127.0.0.1"
TIMEOUT_S = 5.0


@dataclass
class Sample:
    kind: str
    path: str
    status: int  # 0 when the exchange itself failed
    body: bytes
    latency_s: float  # from send (gateway) or from the due time (vessel) to the last body byte
    connect_s: float = 0.0
    headers_s: float = 0.0  # from send to the end of the response headers
    body_s: float = 0.0  # from the end of the headers to the last body byte
    late_s: float = 0.0  # how far behind its due time the request was sent


def _exchange(sock: socket.socket, path: str, close: bool):
    """Send one GET; return (status, body, headers_done, body_done) times."""
    conn = b"Connection: close\r\n" if close else b""
    sock.sendall(b"GET " + path.encode() + b" HTTP/1.1\r\nHost: " + HOST.encode()
                 + b"\r\n" + conn + b"\r\n")
    buf = b""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("connection closed before the headers ended")
        buf += chunk
    headers_done = perf_counter()
    head, _, body = buf.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    status = int(lines[0].split(b" ", 2)[1])
    length = None
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    if length is None:
        raise ConnectionError("response without Content-Length")
    while len(body) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("connection closed inside the body")
        body += chunk
    return status, body[:length], headers_done, perf_counter()


def get(port: int, path: str) -> tuple[int, bytes]:
    """One request on a fresh connection (used for readiness polling)."""
    with socket.create_connection((HOST, port), timeout=TIMEOUT_S) as sock:
        status, body, _, _ = _exchange(sock, path, close=True)
    return status, body


def gateway(port: int, queries: list[str], seconds: float, think_s: float = 0.010) -> list[Sample]:
    """Closed loop on one keep-alive connection with a fixed think time."""
    samples = []
    sock = None
    deadline = perf_counter() + seconds
    i = 0
    try:
        while perf_counter() < deadline:
            path = queries[i % len(queries)]
            i += 1
            start = perf_counter()
            try:
                if sock is None:
                    sock = socket.create_connection((HOST, port), timeout=TIMEOUT_S)
                status, body, headers_done, done = _exchange(sock, path, close=False)
            except (OSError, ValueError, IndexError):
                samples.append(Sample("state", path, 0, b"", perf_counter() - start))
                if sock is not None:
                    sock.close()
                sock = None
            else:
                samples.append(Sample("state", path, status, body, done - start,
                                      headers_s=headers_done - start,
                                      body_s=done - headers_done))
            time.sleep(think_s)
    finally:
        if sock is not None:
            sock.close()
    return samples


def vessel(port: int, queries: list[tuple[str, str]], rate: float) -> list[Sample]:
    """Open loop: request i is due at i/rate; each uses a new connection.

    Latency counts from the due time, so a stall also delays the requests
    queued behind it.
    """
    samples = []
    start = perf_counter() + 0.05
    # A server that falls far behind must not keep the run going for long:
    # requests still unsent at twice the planned duration count as failed.
    deadline = start + 2 * len(queries) / rate + 5
    for i, (kind, path) in enumerate(queries):
        due = start + i / rate
        now = perf_counter()
        if now > deadline:
            samples.append(Sample(kind, path, 0, b"", float("inf"), late_s=now - due))
            continue
        if now < due:
            time.sleep(due - now)
        sent = perf_counter()
        try:
            with socket.create_connection((HOST, port), timeout=TIMEOUT_S) as sock:
                connected = perf_counter()
                status, body, headers_done, done = _exchange(sock, path, close=True)
        except (OSError, ValueError, IndexError):
            samples.append(Sample(kind, path, 0, b"", perf_counter() - due, late_s=sent - due))
            continue
        samples.append(Sample(kind, path, status, body, done - due,
                              connect_s=connected - sent, headers_s=headers_done - connected,
                              body_s=done - headers_done, late_s=sent - due))
    return samples
