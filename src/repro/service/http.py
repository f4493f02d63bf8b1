"""The serving stack's one HTTP/1.1 layer.

HTTP/1.1 with JSON bodies, explicit ``Content-Length`` and keep-alive,
and nothing more: it is not a general web server or client.  Its users:

* both fronts, the solve server (:mod:`repro.service.server`) and the
  shard router (:mod:`repro.service.shard.router`), serve through one
  :class:`HttpFront` (the read → route → write keep-alive loop and the
  drain) and answer 404/405 from one :data:`ROUTES` table;
* the router's proxy path, and :func:`repro.service.loadgen.http_exchange`
  (the load generator's, the benchmark's and the tests' client), send
  with :func:`send_request` and read with :func:`read_response`.
"""

from __future__ import annotations

import asyncio
import json

from repro.obs.runtime.prometheus import CONTENT_TYPE as _PROM_CONTENT_TYPE

__all__ = [
    "HttpError",
    "HttpFront",
    "MAX_BODY_BYTES",
    "ROUTES",
    "read_request",
    "read_response",
    "refusal",
    "route_of",
    "send_request",
    "write_response",
]

#: Largest accepted request head+body (instances are small; this is a
#: safety valve, not a tuning knob).
MAX_BODY_BYTES = 16 * 1024 * 1024

_JSON_CONTENT_TYPE = "application/json"

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


#: Every route either front serves, and the one method it answers.  A
#: path under ``/result/`` is the ``/result/`` route.
ROUTES = {
    "/solve": "POST",
    "/healthz": "GET",
    "/metrics": "GET",
    "/result/": "GET",
}


def route_of(path: str) -> str:
    """The :data:`ROUTES` key *path* (query stripped) falls under.

    A path under no route comes back unchanged.
    """
    return "/result/" if path.startswith("/result/") else path


def refusal(method: str, route: str) -> tuple[int, dict] | None:
    """The 404 or 405 answer to *method* on *route*; ``None`` if served."""
    allowed = ROUTES.get(route)
    if allowed is None:
        return 404, {"status": "error", "error": f"no route for {route}"}
    if method != allowed:
        return 405, {"status": "error", "error": f"{allowed} only"}
    return None


class HttpError(Exception):
    """Malformed HTTP input; the connection is answered and closed."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """One request off the wire: ``(method, path, headers, body)``.

    ``None`` means clean EOF (the peer closed between requests);
    malformed input raises :class:`HttpError` with the status to
    answer before closing.  Header names come back lower-cased.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError:
        return None  # clean EOF between requests
    except asyncio.LimitOverrunError:
        raise HttpError(431, "request head too large") from None
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line {lines[0]!r}")
    method, path = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header {line!r}")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length", "0")
    try:
        n_bytes = int(length)
    except ValueError:
        raise HttpError(400, f"bad Content-Length {length!r}") from None
    if n_bytes < 0 or n_bytes > MAX_BODY_BYTES:
        raise HttpError(413, "request body too large")
    body = b""
    if n_bytes:
        try:
            body = await reader.readexactly(n_bytes)
        except asyncio.IncompleteReadError:
            return None
    return method, path, headers, body


async def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: "dict | str | tuple[bytes, str]",
    *,
    keep_alive: bool,
    extra_headers: dict[str, str] | None = None,
) -> None:
    """Serialise and send one response.

    *payload* is a JSON-able dict (the common case), a pre-rendered
    text string (the Prometheus exposition), or a raw
    ``(body_bytes, content_type)`` pair (the router's proxy path, which
    must forward shard responses byte for byte).
    """
    if isinstance(payload, tuple):
        body, content_type = payload
    elif isinstance(payload, str):
        body = payload.encode()
        content_type = _PROM_CONTENT_TYPE
    else:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        content_type = _JSON_CONTENT_TYPE
    reason = _REASONS.get(status, "OK")
    connection = "keep-alive" if keep_alive else "close"
    extras = "".join(
        f"{name}: {value}\r\n"
        for name, value in (extra_headers or {}).items()
    )
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"{extras}"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {connection}\r\n\r\n"
    )
    writer.write(head.encode() + body)
    try:
        await writer.drain()
    except (ConnectionError, OSError):
        pass


async def send_request(
    writer: asyncio.StreamWriter,
    method: str,
    path: str,
    body: bytes,
    *,
    host: str = "localhost",
    keep_alive: bool = True,
    content_type: str = _JSON_CONTENT_TYPE,
    extra_headers: dict[str, str] | None = None,
) -> None:
    """Send one request with an explicit raw *body*."""
    connection = "keep-alive" if keep_alive else "close"
    extras = ""
    if extra_headers:  # the load generator's hot path sends none
        extras = "".join(
            f"{name}: {value}\r\n" for name, value in extra_headers.items()
        )
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"{extras}"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {connection}\r\n"
        "\r\n"
    )
    writer.write(head.encode() + body)
    await writer.drain()


async def read_response(
    reader: asyncio.StreamReader,
) -> tuple[int, dict[str, str], bytes]:
    """One response off the wire: ``(status, headers, raw_body)``.

    Raises :class:`ConnectionError` on a garbled status line so callers
    can treat a half-dead peer like any other transport failure.
    """
    status_line = await reader.readline()
    parts = status_line.decode("latin-1").split()
    if len(parts) < 2 or not parts[1].isdigit():
        raise ConnectionError(f"bad status line {status_line!r}")
    status = int(parts[1])
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0))
    body = await reader.readexactly(length) if length else b""
    return status, headers, body


class HttpFront:
    """The listeners, keep-alive connection loop and drain of one front.

    *route* is the front's ``async (method, path, body) -> (status,
    payload, extra_headers)``; every request read off a connection goes
    through it and its answer is written back with
    :func:`write_response`.  Malformed input is answered with its
    :class:`HttpError` status and the connection closed.
    """

    def __init__(self, route) -> None:
        self._route = route
        self._listeners: list[asyncio.base_events.Server] = []
        #: Open connections and the handler task serving each.
        self._handlers: dict[asyncio.StreamWriter, asyncio.Task] = {}
        #: Requests read and not yet answered by *route*.
        self._active = 0

    async def listen(
        self, host: str, port: int, **kwargs
    ) -> asyncio.base_events.Server:
        """Bind one more listener (``asyncio.start_server`` *kwargs*)."""
        server = await asyncio.start_server(
            self._serve, host, port, limit=MAX_BODY_BYTES, **kwargs
        )
        self._listeners.append(server)
        return server

    def close(self) -> None:
        """Stop accepting connections; open ones keep being served."""
        for server in self._listeners:
            server.close()

    async def drain(self) -> None:
        """Stop accepting, then finish and close every connection.

        Waits (up to 10 s) for in-flight requests to be answered, closes
        every connection, and waits (up to 10 s) for each handler task
        to see its connection close and exit, so none is left pending
        when the caller closes the loop.
        """
        self.close()
        for _ in range(1000):
            if self._active == 0:
                break
            await asyncio.sleep(0.01)
        handlers = list(self._handlers.values())
        for writer in list(self._handlers):
            writer.close()
        if handlers:
            await asyncio.wait(handlers, timeout=10.0)
        for server in self._listeners:
            await server.wait_closed()

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._handlers[writer] = asyncio.current_task()
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    await write_response(
                        writer,
                        exc.status,
                        {"status": "error", "error": str(exc)},
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                self._active += 1
                try:
                    status, payload, extra_headers = await self._route(
                        method, path, body
                    )
                finally:
                    self._active -= 1
                await write_response(
                    writer,
                    status,
                    payload,
                    keep_alive=keep_alive,
                    extra_headers=extra_headers,
                )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._handlers.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
