"""Single-threaded HTTP/1.1 load client over a few keep-alive connections.

Open loop: every request has a due time fixed in advance and is timed
from it, so a stall that delays later requests shows in their latency.
Closed loop: each connection sends its next request as soon as the
previous response arrives.  An ingest is sent only when no earlier
ingest of the same user is in flight, so each user's actions reach the
server in timestamp order.

Unlike ``repro.serving.HttpLoadGenerator`` this client reuses its
connections and records, per request, when it was due, when the client
noticed it was due, when it was sent and when its response completed.
"""

from __future__ import annotations

import json
import selectors
import socket
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from .measure import now


@dataclass(slots=True)
class Request:
    kind: str  # "rec" or "ingest"
    path: str
    doc: dict
    due: float = 0.0
    noticed: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    degraded: bool = False  # answered by the fallback, not the primary
    payload: dict | None = None
    error: str | None = None
    meta: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Answered by the path under test: a 2xx that is not degraded."""
        return 200 <= self.status < 300 and not self.degraded and self.error is None

    @property
    def latency(self) -> float:
        """Seconds from due (open loop) or send (closed loop) to done."""
        return self.done - self.due

    def encode(self, host: str) -> bytes:
        body = json.dumps(self.doc).encode()
        head = (
            f"POST {self.path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        return head.encode() + body


class _Conn:
    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.buf = bytearray()
        self.req: Request | None = None

    def feed(self) -> bool:
        """Read what is available; ``True`` once a full response is in."""
        try:
            chunk = self.sock.recv(65536)
        except BlockingIOError:
            return False
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk
        end = self.buf.find(b"\r\n\r\n")
        if end < 0:
            return False
        head = self.buf[:end].decode("latin-1").split("\r\n")
        length = 0
        degraded = False
        for line in head[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "x-repro-degraded":
                degraded = value.strip() == "1"

        if len(self.buf) < end + 4 + length:
            return False
        req = self.req
        req.status = int(head[0].split(" ")[1])
        req.degraded = degraded
        body = bytes(self.buf[end + 4 : end + 4 + length])
        del self.buf[: end + 4 + length]
        try:
            req.payload = json.loads(body) if body else None
        except ValueError as exc:
            req.error = f"bad response body: {exc}"
        return True


class HttpClient:
    """At most ``connections`` keep-alive sockets to one server."""

    def __init__(self, host: str, port: int, connections: int) -> None:
        self.host = host
        self.conns = [_Conn(host, port) for _ in range(connections)]
        self.sel = selectors.DefaultSelector()
        for conn in self.conns:
            self.sel.register(conn.sock, selectors.EVENT_READ, conn)

    def close(self) -> None:
        self.sel.close()
        for conn in self.conns:
            conn.sock.close()

    def _send(self, conn: _Conn, req: Request, at: float, busy: set[str]) -> None:
        req.sent = at
        conn.req = req
        if req.kind == "ingest":
            busy.add(_user(req))
        conn.sock.setblocking(True)
        conn.sock.sendall(req.encode(self.host))
        conn.sock.setblocking(False)

    def _poll(self, timeout: float | None, busy: set[str]) -> list[Request]:
        finished = []
        for key, _ in self.sel.select(timeout):
            conn = key.data
            if conn.req is not None and conn.feed():
                req, conn.req = conn.req, None
                req.done = now()
                if req.kind == "ingest":
                    busy.discard(_user(req))
                finished.append(req)
        return finished

    def open_loop(self, requests: list[Request]) -> list[Request]:
        """Send each request at (or after) its ``due`` time; wait for all."""
        pending = deque(sorted(requests, key=lambda r: r.due))
        queued: deque[Request] = deque()
        busy: set[str] = set()  # users with an ingest in flight
        outstanding = 0
        while pending or queued or outstanding:
            t = now()
            while pending and pending[0].due <= t:
                req = pending.popleft()
                req.noticed = t
                queued.append(req)
            for conn in self.conns:
                if conn.req is not None or not queued:
                    continue
                req = _next_sendable(queued, busy)
                if req is None:
                    break
                self._send(conn, req, now(), busy)
                outstanding += 1
            timeout = max(0.0, pending[0].due - now()) if pending else None
            if not outstanding and timeout is None:
                continue
            for req in self._poll(timeout, busy):
                outstanding -= 1
        return requests

    def closed_loop(
        self, source: Iterator[Request], until: float | None = None
    ) -> list[Request]:
        """Keep every connection busy with ``source`` until ``until`` (or
        until ``source`` runs out); each request is timed from its send."""
        done: list[Request] = []
        outstanding = 0
        busy: set[str] = set()
        held: deque[Request] = deque()
        exhausted = False
        while True:
            if until is None or now() < until:
                for conn in self.conns:
                    if conn.req is not None:
                        continue
                    req = _next_sendable(held, busy)
                    while req is None and not exhausted:
                        candidate = next(source, None)
                        if candidate is None:
                            exhausted = True
                        elif _user(candidate) in busy:
                            held.append(candidate)
                        else:
                            req = candidate
                    if req is None:
                        break
                    t = now()
                    req.due = req.noticed = t
                    self._send(conn, req, t, busy)
                    outstanding += 1
            if not outstanding and (exhausted and not held or
                                    until is not None and now() >= until):
                return done
            for req in self._poll(0.05, busy):
                outstanding -= 1
                done.append(req)


def _user(req: Request) -> str | None:
    """The user whose action an ingest carries; ``None`` for reads."""
    return req.doc["user_id"] if req.kind == "ingest" else None


def _next_sendable(queue: deque[Request], busy: set[str]) -> Request | None:
    """Oldest queued request that may go now; each user's ingests keep
    their order."""
    for i, req in enumerate(queue):
        if _user(req) not in busy:
            del queue[i]
            return req
    return None


def get_json(host: str, port: int, path: str, timeout: float = 10.0) -> tuple[int, dict]:
    """One ``GET`` on a fresh connection (health checks, snapshots)."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n"
            .encode()
        )
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split(b" ")[1])
    return status, json.loads(body) if body else {}
