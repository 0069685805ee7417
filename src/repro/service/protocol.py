"""Minimal HTTP/1.1 over asyncio streams — the front door's wire format.

The service deliberately speaks hand-rolled HTTP/1.1 instead of pulling
in a framework: the request shapes are tiny (``GET`` with a query
string, JSON out), the event loop must own admission control *before*
any request body is read, and the repository's no-new-hard-deps rule
applies to the serving path exactly as it does to training.  What this
module implements is the small, honest subset the load generator and
every standard HTTP client need:

* request line + headers, with hard caps on line and header sizes so a
  misbehaving client cannot balloon the server's memory;
* ``Content-Length`` bodies (the only body framing the service accepts;
  chunked uploads are rejected with 411/400 rather than half-parsed);
* persistent connections (HTTP/1.1 keep-alive is the default; the load
  generator's closed-loop clients rely on it) with explicit
  ``Connection: close`` handling;
* JSON responses with correct ``Content-Length`` so clients can pipeline
  reads without sniffing for EOF.

Parsing is strict-but-small: anything malformed raises
:class:`ProtocolError`, which the server maps to a 400 and a closed
connection — never a traceback into the accept loop.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..exceptions import ReproError

#: Upper bound on any single header/request line, and on the number of
#: headers — the memory a client can pin before admission control runs.
#: The server also uses MAX_LINE_BYTES as its stream limit, so an
#: over-long line is refused before it is buffered, not after.
MAX_LINE_BYTES = 8192
MAX_HEADERS = 64
MAX_BODY_BYTES = 1 << 20

#: Reason phrases for every status the service emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ProtocolError(ReproError):
    """A request violated the HTTP subset the service speaks."""


@dataclass
class HttpRequest:
    """One parsed request: method, split target, headers, body."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 semantics: persistent unless ``Connection: close``."""
        return self.headers.get("connection", "").lower() != "close"


async def read_request(reader) -> Optional[HttpRequest]:
    """Parse one request from an asyncio stream reader.

    Returns ``None`` on a clean EOF before any bytes (client closed a
    keep-alive connection between requests).  Raises
    :class:`ProtocolError` for malformed or oversized input; the caller
    answers 400 and closes.
    """
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if exc.partial == b"":
            return None
        raise ProtocolError("truncated request line") from None
    except asyncio.LimitOverrunError:
        raise ProtocolError("request line exceeds the stream limit") from None
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError("request line exceeds the size cap")
    parts = line.decode("latin-1").rstrip("\r\n").split(" ")
    if len(parts) != 3:
        raise ProtocolError(f"malformed request line: {line!r}")
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise ProtocolError(f"unsupported HTTP version {version!r}")

    headers: Dict[str, str] = {}
    while True:
        try:
            line = await reader.readuntil(b"\r\n")
        except Exception as exc:
            raise ProtocolError(f"truncated headers: {exc!r}") from None
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError("header line exceeds the size cap")
        if line in (b"\r\n", b"\n"):
            break
        if len(headers) >= MAX_HEADERS:
            raise ProtocolError("too many headers")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    if "transfer-encoding" in headers:
        raise ProtocolError("chunked transfer encoding is not supported")
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise ProtocolError(
                f"bad content-length {headers['content-length']!r}"
            ) from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise ProtocolError(f"content-length {length} outside [0, {MAX_BODY_BYTES}]")
        if length:
            try:
                body = await reader.readexactly(length)
            except Exception as exc:
                raise ProtocolError(f"truncated body: {exc!r}") from None

    try:
        split = urlsplit(target)
    except ValueError as exc:  # e.g. an unbalanced "[" in the authority
        raise ProtocolError(f"malformed request target: {exc}") from None
    query = {key: values[-1] for key, values in parse_qs(split.query).items()}
    return HttpRequest(
        method=method.upper(),
        path=split.path or "/",
        query=query,
        headers=headers,
        body=body,
    )


def render_response(
    status: int,
    payload: Optional[dict] = None,
    extra_headers: Optional[Dict[str, str]] = None,
    keep_alive: bool = True,
) -> bytes:
    """Serialize one JSON response (headers + body) to raw bytes."""
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    if extra_headers:
        lines.extend(f"{name}: {value}" for name, value in extra_headers.items())
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


async def read_response(reader) -> Tuple[int, Dict[str, str], Optional[dict]]:
    """Parse one response (client side — the load generator's half).

    Returns ``(status, headers, json_payload_or_None)``.  Raises
    :class:`ProtocolError` on anything malformed, including a peer that
    closed mid-response.
    """
    try:
        line = await reader.readuntil(b"\r\n")
    except Exception as exc:
        raise ProtocolError(f"connection lost reading status line: {exc!r}") from None
    parts = line.decode("latin-1").split(" ", 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ProtocolError(f"malformed status line: {line!r}")
    status = int(parts[1])
    headers: Dict[str, str] = {}
    while True:
        try:
            line = await reader.readuntil(b"\r\n")
        except Exception as exc:
            raise ProtocolError(f"truncated response headers: {exc!r}") from None
        if line in (b"\r\n", b"\n"):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(f"malformed response header: {line!r}")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    payload = None
    if length:
        try:
            body = await reader.readexactly(length)
        except Exception as exc:
            raise ProtocolError(f"truncated response body: {exc!r}") from None
        payload = json.loads(body.decode("utf-8"))
    return status, headers, payload
