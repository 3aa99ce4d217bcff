"""The benchmark's own NDJSON socket driver.

Deliberately not ``repro.serve.client.SocketClient``: the load generator
must not change when ``src/`` does, and ``SocketClient`` refuses any
response line over 64 KiB, which a ``drain`` of more than ~335 jobs
exceeds (README, "Known issues").  One TCP connection, ``sendall`` to
write, lines of any length to read.

Reads poll (``recv`` with ``MSG_DONTWAIT`` in a loop) instead of
blocking.  A generator asleep in ``recv`` has to be woken by every
response the server writes, and what waking a halted virtual CPU costs
the *server* flips between two states on this box for minutes at a time
(README, "Noise"): the same service measured 31k or 17k req/s raw
depending on what ran before it.  A generator that never sleeps takes
that out of the measurement; it has a core of its own.
"""

from __future__ import annotations

import socket
import time
from collections import deque


class Driver:
    """One connection to a scheduler service at ``host:port``."""

    def __init__(self, address: str, timeout: float = 120.0) -> None:
        host, _, port = address.rpartition(":")
        self._sock = socket.create_connection((host, int(port)), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock.settimeout(None)  # MSG_DONTWAIT does the not-waiting
        self._timeout = timeout
        self._lines: deque[bytes] = deque()
        self._tail = b""
        #: Seconds spent inside ``sendall`` / polling for responses.
        self.send_s = 0.0
        self.wait_s = 0.0

    def send(self, payload: bytes) -> float:
        """Write request lines; returns the time they were handed over."""
        start = time.perf_counter()
        self._sock.sendall(payload)
        self.send_s += time.perf_counter() - start
        return start

    def read(self, n_lines: int) -> tuple[list[bytes], float]:
        """Read ``n_lines`` response lines; returns them with the time
        the last one arrived.  A short read (the service hung up)
        returns fewer lines."""
        start = time.perf_counter()
        deadline = start + self._timeout
        ready, recv = self._lines, self._sock.recv
        lines: list[bytes] = []
        while len(lines) < n_lines:
            if ready:
                lines.append(ready.popleft())
                continue
            try:
                data = recv(1 << 16, socket.MSG_DONTWAIT)
            except BlockingIOError:
                if time.perf_counter() > deadline:
                    raise TimeoutError(f"no response within {self._timeout} s") from None
                continue
            if not data:
                break
            *whole, self._tail = (self._tail + data).split(b"\n")
            ready.extend(line + b"\n" for line in whole)
        done = time.perf_counter()
        self.wait_s += done - start
        return lines, done

    def exchange(self, payload: bytes, n_lines: int) -> tuple[list[bytes], float]:
        """``send`` then ``read``; the lines and the send->last-ack seconds."""
        sent = self.send(payload)
        lines, done = self.read(n_lines)
        return lines, done - sent

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "Driver":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
