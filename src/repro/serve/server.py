"""The asyncio connection loop and server harnesses.

Three entry points, one per audience:

* :func:`serve` — the coroutine: bind, accept, loop (for embedding in
  an existing event loop);
* :func:`run_server` — the blocking CLI entry behind ``repro serve``:
  enables the process telemetry recorder, prints the bound address,
  runs until interrupted;
* :class:`BackgroundServer` — a context-manager harness that runs the
  whole server on a daemon thread with an ephemeral port, for tests and
  perfbench's ``serve-hot`` workload (client code stays fully
  synchronous).

Connections are keep-alive HTTP/1.1: one reader task per connection,
requests answered strictly in order per connection, concurrency across
connections.  Framing errors answer with the right 4xx and close;
unexpected exceptions answer 500 with the exception class name (the
message may hold server paths — those stay in the server log).
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
from typing import Optional

from repro.errors import ServeError
from repro.obs.spans import Recorder, enable, increment, observe
from repro.serve.app import EncodedPayload, EvaluationService, _error_payload
from repro.serve.http import read_request, render_response
from repro.store.naming import TraceCatalog

#: Default bind address for ``repro serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8321


def _encode(payload) -> bytes:
    """A payload's wire bytes.

    An :class:`EncodedPayload` was encoded once when computed; only its
    small per-request cache section is encoded here and spliced on.
    """
    if isinstance(payload, EncodedPayload):
        section = json.dumps(payload.cache).encode("utf-8")
        return payload.head + b', "cache": ' + section + b"}"
    return json.dumps(payload, allow_nan=False).encode("utf-8")


async def _handle_connection(
    service: EvaluationService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one keep-alive connection until EOF or a framing error."""
    try:
        while True:
            try:
                request = await read_request(reader)
            except ServeError as error:
                body = _encode(_error_payload(error.status, str(error)))
                writer.write(
                    render_response(error.status, body, keep_alive=False)
                )
                await writer.drain()
                return
            if request is None:
                return
            loop = asyncio.get_running_loop()
            started = loop.time()
            try:
                status, payload = await service.handle(request)
                body = _encode(payload)
            except Exception as error:  # noqa: BLE001 - last-resort 500
                # The repr stays server-side; clients get the class name.
                print(
                    f"repro serve: internal error answering "
                    f"{request.method} {request.path}: {error!r}",
                    file=sys.stderr,
                )
                increment("serve.http.internal_error")
                status, body = 500, _encode(
                    _error_payload(500, f"internal error: {type(error).__name__}")
                )
            observe("serve.http.request.seconds", loop.time() - started)
            keep_alive = request.keep_alive and status < 500
            writer.write(
                render_response(status, body, keep_alive=keep_alive)
            )
            await writer.drain()
            if not keep_alive:
                return
    except (ConnectionResetError, BrokenPipeError):
        # The client hung up mid-write; nothing to answer.
        increment("serve.http.connection_reset")
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            increment("serve.http.connection_reset")


async def serve(
    service: EvaluationService,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
) -> asyncio.AbstractServer:
    """Bind and start accepting; returns the listening server object."""

    async def connection(reader, writer):
        await _handle_connection(service, reader, writer)

    return await asyncio.start_server(connection, host=host, port=port)


def run_server(
    registry_path: str,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    cache_size: int = 256,
    cache_ttl: Optional[float] = None,
    recorder: Optional[Recorder] = None,
) -> None:
    """Blocking entry point behind ``repro serve <registry.json>``.

    Enables the process telemetry recorder (so ``GET /v1/telemetry``
    answers with real counters) unless one is passed in, and runs until
    KeyboardInterrupt.
    """
    from repro.serve.cache import ResultCache

    catalog = TraceCatalog.from_file(registry_path)
    recorder = recorder if recorder is not None else enable()
    service = EvaluationService(
        catalog,
        cache=ResultCache(max_entries=cache_size, ttl=cache_ttl),
        recorder=recorder,
    )

    async def main() -> None:
        server = await serve(service, host=host, port=port)
        sockets = server.sockets or []
        for sock in sockets:
            bound_host, bound_port = sock.getsockname()[:2]
            print(
                f"repro serve: listening on http://{bound_host}:{bound_port} "
                f"({len(catalog.names())} trace(s): "
                f"{', '.join(catalog.names())})"
            )
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("repro serve: shutting down")


class BackgroundServer:
    """Run a full server on a daemon thread (tests and perfbench serve-hot).

    Binds an ephemeral port by default; :attr:`address` blocks until the
    socket is listening.  Use as a context manager::

        with BackgroundServer(service) as address:
            client = ServeClient(*address)
            ...
    """

    def __init__(
        self,
        service: EvaluationService,
        host: str = DEFAULT_HOST,
        port: int = 0,
    ):
        self._service = service
        self._host = host
        self._port = port
        self._ready = threading.Event()
        self._address: Optional[tuple] = None
        self._failure: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # noqa: REP006 - stored and re-raised by start(); a daemon thread must not die silently
            self._failure = error
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await serve(self._service, host=self._host, port=self._port)
        sockets = server.sockets or []
        self._address = sockets[0].getsockname()[:2]
        self._ready.set()
        async with server:
            await self._stop.wait()

    def start(self) -> "BackgroundServer":
        """Start the thread and wait until the socket is listening."""
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ServeError("background server did not start within 30s", 500)
        if self._failure is not None:
            raise ServeError(
                f"background server failed to start: {self._failure!r}", 500
            )
        return self

    @property
    def address(self) -> tuple:
        """``(host, port)`` actually bound (ephemeral ports resolved)."""
        if self._address is None:
            raise ServeError("background server is not running", 500)
        return self._address

    def stop(self) -> None:
        """Signal the loop to exit and join the thread."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)

    def __enter__(self) -> tuple:
        self.start()
        return self.address

    def __exit__(self, *exc_info) -> None:
        self.stop()
