"""Clients for the scheduler service.

:class:`InprocClient` calls the engine directly — zero transport, the
configuration the >10k submissions/s CI bar is measured against.
:class:`SocketClient` speaks the NDJSON protocol over TCP or a unix
socket with optional pipelining (send *n* requests, then read *n*
responses) so throughput is not round-trip bound.  Both expose the same
request surface, so the load harness and tests are transport-agnostic.
"""

from __future__ import annotations

import socket
from pathlib import Path
from typing import Any, Sequence

from repro.errors import ProtocolError, ServeError
from repro.serve.engine import ServeEngine
from repro.serve.protocol import MAX_RESPONSE_BYTES, decode_line, encode


class _RequestHelpers:
    """Op-shaped conveniences shared by both clients."""

    def request(self, message: dict[str, Any]) -> dict[str, Any]:
        raise NotImplementedError

    def submit(self, **fields: Any) -> dict[str, Any]:
        return self.request({"op": "submit", **fields})

    def cancel(self, job_id: int) -> dict[str, Any]:
        return self.request({"op": "cancel", "id": job_id})

    def status(self, job_id: int) -> dict[str, Any]:
        return self.request({"op": "status", "id": job_id})

    def stats(self) -> dict[str, Any]:
        return self.request({"op": "stats"})

    def ping(self) -> dict[str, Any]:
        return self.request({"op": "ping"})

    def drain(self) -> dict[str, Any]:
        return self.request({"op": "drain"})

    def shutdown(self) -> dict[str, Any]:
        return self.request({"op": "shutdown"})


class InprocClient(_RequestHelpers):
    """Direct engine calls — the zero-transport client."""

    def __init__(self, engine: ServeEngine) -> None:
        self.engine = engine

    def request(self, message: dict[str, Any]) -> dict[str, Any]:
        return self.engine.handle(message)

    def request_many(
        self, messages: Sequence[dict[str, Any]]
    ) -> list[dict[str, Any]]:
        handle = self.engine.handle
        return [handle(m) for m in messages]

    def close(self) -> None:
        pass

    def __enter__(self) -> "InprocClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class SocketClient(_RequestHelpers):
    """Blocking NDJSON client over TCP or a unix socket."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._reader = sock.makefile("rb")

    # ------------------------------------------------------------------
    @classmethod
    def connect(cls, address: str, timeout: float = 30.0) -> "SocketClient":
        """Connect to ``host:port`` or a unix-socket path."""
        if ":" in address and not Path(address).is_absolute():
            host, _, port_text = address.rpartition(":")
            try:
                port = int(port_text)
            except ValueError as exc:
                raise ServeError(f"bad service address {address!r}") from exc
            sock = socket.create_connection((host, port), timeout=timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        else:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            sock.connect(address)
        return cls(sock)

    # ------------------------------------------------------------------
    def request(self, message: dict[str, Any]) -> dict[str, Any]:
        self._sock.sendall(encode(message))
        return self._read_response()

    def request_many(
        self, messages: Sequence[dict[str, Any]]
    ) -> list[dict[str, Any]]:
        """Pipeline: one write for all requests, then read each response."""
        if not messages:
            return []
        self._sock.sendall(b"".join(encode(m) for m in messages))
        return [self._read_response() for _ in messages]

    def _read_response(self) -> dict[str, Any]:
        line = self._reader.readline(MAX_RESPONSE_BYTES + 1)
        if not line:
            raise ServeError("service closed the connection")
        if len(line) > MAX_RESPONSE_BYTES:
            raise ProtocolError(
                f"response line exceeds {MAX_RESPONSE_BYTES} bytes"
            )
        try:
            # As text: decode_line holds *bytes* to the request-line cap.
            return decode_line(line.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"response is not valid UTF-8: {exc}") from exc

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "SocketClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def connect(target: str | ServeEngine, timeout: float = 30.0):
    """Open a client for an address string or an in-process engine."""
    if isinstance(target, ServeEngine):
        return InprocClient(target)
    return SocketClient.connect(target, timeout=timeout)
