"""The campaign service HTTP front end (``repro-lid serve``).

A deliberately small HTTP/1.1 server on raw :mod:`asyncio` streams —
no web framework, no new dependencies, ``Connection: close`` per
request.  Routes:

* ``GET /healthz`` — liveness probe;
* ``GET /v1/stats`` — scheduler/cache counters (JSON);
* ``POST /v1/run`` — execute a campaign manifest (JSON body; see
  :mod:`repro.serve.manifest`); ``/v1/campaign``, ``/v1/deadlock`` and
  ``/v1/series`` are aliases that inject the ``kind`` field.

Completed runs always answer 200 with the *offline-identical* report
bytes as the body; the CLI exit code the equivalent offline command
would have returned rides in ``X-Repro-Exit`` (deadlock verdicts are
data, not transport errors).  ``X-Repro-Cache`` says how the run was
served (``hit`` / ``miss`` / ``coalesced``), ``X-Repro-Run-Id`` /
``X-Repro-Span`` carry the ledger identities.

Backpressure is explicit: token-bucket rate limiting answers 429 with
``Retry-After``; a full scheduler queue answers 503.  A manifest with
``"stream": true`` switches the response to ``application/x-ndjson``:
one JSON line per progress tick (fanned out of the worker's
:class:`~repro.obs.ProgressReporter`), then a final ``result`` line
embedding the report text.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
from typing import Any, Dict, Optional, Tuple

from .dispatch import DispatchError
from .manifest import Manifest, ManifestError
from .ratelimit import RateLimiter
from .scheduler import CampaignScheduler, ServeRejected

#: Largest accepted request body (manifests are tiny; 1 MiB is lavish).
DEFAULT_MAX_BODY = 1 << 20

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Route aliases that pin the manifest kind.
_KIND_ROUTES = {
    "/v1/run": None,
    "/v1/campaign": "campaign",
    "/v1/deadlock": "deadlock",
    "/v1/series": "series",
}


def _response(status: int, body: bytes, content_type: str,
              extra: Optional[Dict[str, str]] = None) -> bytes:
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
             f"Content-Type: {content_type}",
             f"Content-Length: {len(body)}",
             "Connection: close"]
    for name, value in (extra or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def _error_body(message: str) -> bytes:
    return (json.dumps({"error": message}) + "\n").encode()


class CampaignServer:
    """One listening socket in front of a :class:`CampaignScheduler`."""

    def __init__(
        self,
        scheduler: CampaignScheduler,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        rate: float = 0.0,
        burst: Optional[float] = None,
        max_body: int = DEFAULT_MAX_BODY,
    ) -> None:
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self.limiter = RateLimiter(rate, burst)
        self.max_body = max_body
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.scheduler.close()

    # -- request handling ----------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            payload = await self._respond(reader, writer)
            if payload is not None:
                writer.write(payload)
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _read_request(
        self, reader: asyncio.StreamReader,
    ) -> Tuple[str, str, Dict[str, str], bytes]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) < 2:
            raise ValueError(f"malformed request line {request_line!r}")
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or 0)
        if length > self.max_body:
            raise _TooLarge(length)
        body = await reader.readexactly(length) if length > 0 else b""
        return method, target, headers, body

    async def _respond(self, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> Optional[bytes]:
        """Build the full response, or ``None`` if already streamed."""
        try:
            method, target, headers, body = await self._read_request(
                reader)
        except _TooLarge as exc:
            return _response(413, _error_body(str(exc)),
                             "application/json")
        except (ValueError, UnicodeDecodeError) as exc:
            return _response(400, _error_body(str(exc)),
                             "application/json")
        path = target.partition("?")[0]

        if path == "/healthz":
            if method != "GET":
                return _response(405, _error_body("GET only"),
                                 "application/json")
            return _response(200, b'{"status":"ok"}\n',
                             "application/json")
        if path == "/v1/stats":
            if method != "GET":
                return _response(405, _error_body("GET only"),
                                 "application/json")
            text = json.dumps(self.scheduler.stats_payload(),
                              indent=2, sort_keys=True) + "\n"
            return _response(200, text.encode(), "application/json")
        if path not in _KIND_ROUTES:
            return _response(404, _error_body(f"no route {path}"),
                             "application/json")
        if method != "POST":
            return _response(405, _error_body("POST only"),
                             "application/json")

        client = headers.get("x-repro-client")
        if client is None:
            peer = writer.get_extra_info("peername")
            client = peer[0] if peer else "unknown"
        if not self.limiter.allow(client):
            self.scheduler.stats.rejected_rate += 1
            retry = self.limiter.retry_after()
            return _response(
                429, _error_body(f"rate limit exceeded for {client}"),
                "application/json", {"Retry-After": f"{retry:.3f}"})

        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (ValueError, UnicodeDecodeError) as exc:
            return _response(400, _error_body(f"bad JSON body: {exc}"),
                             "application/json")
        kind = _KIND_ROUTES[path]
        if kind is not None:
            if not isinstance(payload, dict):
                return _response(400, _error_body(
                    "manifest must be a JSON object"), "application/json")
            payload = dict(payload, kind=kind)
        try:
            manifest = Manifest.from_dict(payload)
        except ManifestError as exc:
            return _response(400, _error_body(str(exc)),
                             "application/json")

        if manifest.stream:
            await self._stream(manifest, writer)
            return None
        try:
            outcome, source = await self.scheduler.submit(manifest)
        except ServeRejected as exc:
            extra = ({"Retry-After": f"{exc.retry_after:.3f}"}
                     if exc.retry_after else None)
            return _response(exc.status, _error_body(str(exc)),
                             "application/json", extra)
        except (ManifestError, DispatchError) as exc:
            return _response(400, _error_body(str(exc)),
                             "application/json")
        except Exception as exc:  # worker/pool failure
            return _response(500, _error_body(
                f"{type(exc).__name__}: {exc}"), "application/json")
        return _response(200, outcome.body, outcome.content_type, {
            "X-Repro-Cache": source,
            "X-Repro-Span": outcome.span,
            "X-Repro-Run-Id": outcome.run_id or "",
            "X-Repro-Exit": str(outcome.exit_code),
        })

    async def _stream(self, manifest: Manifest,
                      writer: asyncio.StreamWriter) -> None:
        """NDJSON response: progress lines, then one ``result`` line."""
        queue: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue()
        task = asyncio.ensure_future(
            self.scheduler.submit(manifest, queue.put_nowait))
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Connection: close\r\n\r\n")

        async def write_line(obj: Dict[str, Any]) -> None:
            writer.write((json.dumps(obj, sort_keys=True) + "\n")
                         .encode())
            await writer.drain()

        while not task.done():
            getter = asyncio.ensure_future(queue.get())
            await asyncio.wait({getter, task},
                               return_when=asyncio.FIRST_COMPLETED)
            if getter.done():
                await write_line(dict(getter.result(),
                                      event="progress"))
            else:
                getter.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await getter
        while not queue.empty():
            await write_line(dict(queue.get_nowait(), event="progress"))
        try:
            outcome, source = task.result()
        except ServeRejected as exc:
            await write_line({"event": "error", "status": exc.status,
                              "message": str(exc)})
            return
        except (ManifestError, DispatchError) as exc:
            await write_line({"event": "error", "status": 400,
                              "message": str(exc)})
            return
        except Exception as exc:
            await write_line({"event": "error", "status": 500,
                              "message": f"{type(exc).__name__}: {exc}"})
            return
        await write_line({
            "event": "result",
            "cache": source,
            "span": outcome.span,
            "run_id": outcome.run_id,
            "exit_code": outcome.exit_code,
            "content_type": outcome.content_type,
            "body": outcome.body.decode("utf-8"),
        })


class _TooLarge(Exception):
    def __init__(self, length: int) -> None:
        super().__init__(f"request body of {length} bytes exceeds limit")


# -- embedding helpers (tests, benchmarks, the CLI) --------------------


async def _run_async(server: CampaignServer, announce=None) -> None:
    await server.start()
    if announce is not None:
        announce(server)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.close()


def run_server(server: CampaignServer, announce=None) -> int:
    """Blocking foreground entry point (the ``serve`` subcommand).

    *announce* is called with the started server (bound port resolved)
    before entering the accept loop.
    """
    try:
        asyncio.run(_run_async(server, announce))
    except KeyboardInterrupt:
        pass
    return 0


class ServerHandle:
    """A server running on a dedicated daemon thread + event loop.

    For tests and benchmarks that need a live endpoint in-process:
    ``handle = start_in_thread(...)``, talk HTTP to
    ``handle.address``, then ``handle.stop()``.
    """

    def __init__(self, server: CampaignServer,
                 loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> Tuple[str, int]:
        return (self.server.host, self.server.port)

    def stop(self, timeout: float = 10.0) -> None:
        async def _close() -> None:
            await self.server.close()

        future = asyncio.run_coroutine_threadsafe(_close(), self._loop)
        with contextlib.suppress(Exception):
            future.result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)


def start_in_thread(scheduler: Optional[CampaignScheduler] = None,
                    **server_kwargs: Any) -> ServerHandle:
    """Start a :class:`CampaignServer` on a background thread and wait
    until it is accepting connections; returns a :class:`ServerHandle`.
    """
    if scheduler is None:
        scheduler = CampaignScheduler(mode="thread")
    server = CampaignServer(scheduler, **server_kwargs)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: Dict[str, BaseException] = {}

    def _main() -> None:
        asyncio.set_event_loop(loop)

        async def _start() -> None:
            try:
                await server.start()
            except BaseException as exc:  # propagate bind errors
                failure["error"] = exc
            finally:
                started.set()

        loop.run_until_complete(_start())
        if "error" not in failure:
            loop.run_forever()
        loop.close()

    thread = threading.Thread(target=_main, name="repro-serve",
                              daemon=True)
    thread.start()
    started.wait(30.0)
    if "error" in failure:
        thread.join(5.0)
        raise failure["error"]
    return ServerHandle(server, loop, thread)
