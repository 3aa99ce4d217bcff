"""Asyncio NDJSON server wrapping a :class:`~repro.serve.engine.ServeEngine`.

One server owns one engine (one simulated machine, one session).  Any
number of clients may connect over TCP or a unix socket; each
connection is a line-oriented request/response stream, and clients may
pipeline requests.  Engine calls are synchronous and run on the event
loop — they are microsecond-scale per request, and single-threaded
dispatch is what keeps the session deterministic.

Framing is by burst: a connection takes whatever bytes one wake-up
finds in its socket (a pipelining client leaves dozens of lines there),
answers every complete line of it in order, and hands the answers to
the socket in one write followed by one ``drain()``; an incomplete last
line is carried to the next read.  Requests of one connection are
applied in the order their lines arrive and answered in that order;
connections take turns a wake-up at a time, each running through what
it finds buffered.  No response byte depends on how the lines were
grouped.  A line of more than
:data:`~repro.serve.protocol.MAX_LINE_BYTES` (its newline included),
terminated or not, is answered with a protocol error and the connection
is closed; the reader's own buffer limit bounds what is held beyond it.

Graceful shutdown (``shutdown`` op, :meth:`SchedulerService.stop`, or
SIGINT / SIGTERM in :func:`run_service`) stops accepting connections,
drains the engine — every admitted job runs to completion and the final
report is computed — then closes the connections still open.  A second
signal stops the process at once.
"""

from __future__ import annotations

import asyncio
import signal
from pathlib import Path
from typing import Any

from repro.errors import ProtocolError, ServeError
from repro.obs.log import get_logger
from repro.records import atomic_write_text, pretty_json
from repro.serve.engine import ServeEngine
from repro.serve.protocol import MAX_LINE_BYTES, decode_line, encode, error_response

logger = get_logger(__name__)

#: Bytes asked of the socket per wake-up; a burst is what one read returns.
_READ_BYTES = 1 << 16


def _line_too_long() -> bytes:
    return encode(
        error_response(
            ProtocolError(f"request line exceeds {MAX_LINE_BYTES} bytes"),
            protocol_error=True,
        )
    )


class SchedulerService:
    """Serves one engine over TCP (``host``/``port``) or a unix socket."""

    def __init__(
        self,
        engine: ServeEngine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: str | Path | None = None,
    ) -> None:
        self.engine = engine
        self.host = host
        self.port = port
        self.unix_path = Path(unix_path) if unix_path is not None else None
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        self._connections: dict[asyncio.Task[None], asyncio.StreamWriter] = {}

    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        """The bound address, ``host:port`` or the socket path."""
        if self.unix_path is not None:
            return str(self.unix_path)
        if self._server is None or not self._server.sockets:
            raise ServeError("service is not listening")
        bound = self._server.sockets[0].getsockname()
        return f"{bound[0]}:{bound[1]}"

    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise ServeError("service already started")
        if self.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=str(self.unix_path)
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port
            )
        logger.info("serving on %s", self.address)

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`stop`) lands."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        await self.stop()

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting, optionally drain the engine, close every
        connection still open."""
        if self._server is None:
            return
        self._server.close()
        if drain:
            self.engine.handle({"op": "drain"})
        # From Python 3.12 ``wait_closed`` waits for every accepted
        # connection, so an idle client would hold the server up forever.
        for writer in self._connections.values():
            writer.close()
        await self._server.wait_closed()
        # Each handler reads its close as EOF and returns; before 3.12 one
        # still pending when the loop ends is cancelled with a traceback.
        handlers = self._connections.keys() - {asyncio.current_task()}
        if handlers:
            await asyncio.wait(handlers)
        self._server = None
        if self.unix_path is not None:
            self.unix_path.unlink(missing_ok=True)
        self._shutdown.set()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        task.add_done_callback(self._connections.pop)
        tail = b""
        closing = False
        try:
            while not closing:
                data = await reader.read(_READ_BYTES)
                if data:
                    *lines, tail = (tail + data).split(b"\n")
                else:  # EOF: an unterminated last line is still a request
                    lines, tail, closing = [tail], b"", True
                out: list[bytes] = []
                try:
                    if not self._answer(lines, out):
                        closing = True
                    elif len(tail) >= MAX_LINE_BYTES:
                        out.append(_line_too_long())
                        closing = True
                finally:
                    # Also when a line of the burst raised: the answers
                    # computed before it are never lost to it.
                    if out:
                        writer.write(b"".join(out))
                await writer.drain()
        except ConnectionResetError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _answer(self, lines: list[bytes], out: list[bytes]) -> bool:
        """Append the response to every request among ``lines`` (they
        carry no newline) to ``out``; ``False`` once the connection is
        to be closed, the lines after that one unanswered."""
        handle = self.engine.handle
        for line in lines:
            if len(line) >= MAX_LINE_BYTES:
                out.append(_line_too_long())
                return False
            if not line or line.isspace():
                continue
            try:
                message = decode_line(line)
            except ProtocolError as exc:
                out.append(encode(error_response(exc, protocol_error=True)))
                continue
            response = handle(message)
            try:
                out.append(encode(response))
            except ValueError as exc:  # a non-finite number: one error line
                error = error_response(exc)
                if "id" in response:
                    error["id"] = response["id"]
                out.append(encode(error))
            if response.get("shutdown"):
                self._shutdown.set()
                return False
        return True


def run_service(
    engine: ServeEngine,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    unix_path: str | Path | None = None,
    ready_file: str | Path | None = None,
    metrics_file: str | Path | None = None,
) -> dict[str, Any]:
    """Run a service until shutdown; returns the final metrics snapshot.

    ``ready_file`` (written once listening, containing the bound
    address) lets a supervisor — the CI smoke job, a test fixture —
    discover the ephemeral port without racing the bind.
    """

    async def _main() -> None:
        service = SchedulerService(
            engine, host=host, port=port, unix_path=unix_path
        )
        loop = asyncio.get_running_loop()
        signals = (signal.SIGINT, signal.SIGTERM)

        def on_signal() -> None:
            for signum in signals:  # the next one is not caught
                loop.remove_signal_handler(signum)
            service._shutdown.set()

        for signum in signals:
            try:
                loop.add_signal_handler(signum, on_signal)
            except (NotImplementedError, RuntimeError):
                pass  # no loop signal support here, or not the main thread
        await service.start()
        if ready_file is not None:
            # Atomic: a poller that sees the file sees the whole address.
            atomic_write_text(ready_file, service.address + "\n")
        await service.serve_until_shutdown()

    asyncio.run(_main())
    snapshot = engine.metrics_snapshot()
    if metrics_file is not None:
        Path(metrics_file).write_text(pretty_json(snapshot), encoding="utf-8")
    return snapshot
