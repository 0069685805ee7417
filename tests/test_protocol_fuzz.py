"""Property-based fuzzing of the hand-written HTTP request framing.

:func:`repro.service.protocol.read_request` is the only parser between
the network and the event loop, so it is fed arbitrary byte streams —
valid requests with mutated headers, lengths and chunk boundaries,
truncated input, plain noise — through an ``asyncio.StreamReader`` with
the server's stream limit.  Whatever arrives, it must:

* return an :class:`HttpRequest` or ``None``, or raise
  :class:`ProtocolError` — never any other exception;
* finish within a ``wait_for`` bound once the input hits EOF;
* never consume more than its declared caps (``MAX_LINE_BYTES`` per
  line, ``MAX_HEADERS`` headers, ``MAX_BODY_BYTES`` of body), and never
  read past the end of a well-formed request into the next one.
"""

import asyncio

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import HttpRequest, ProtocolError, read_request
from repro.service.protocol import MAX_BODY_BYTES, MAX_HEADERS, MAX_LINE_BYTES

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Seconds a single parse may take once its input is complete.
PARSE_TIMEOUT_S = 5.0

TOKEN = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_",
    min_size=1,
    max_size=12,
)
SAFE_VALUE = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
    max_size=24,
).map(str.strip)
TARGET = st.builds(
    lambda path, query: "/" + path + ("?" + query if query else ""),
    st.text(alphabet="abcdefghij/._-%", max_size=16),
    st.text(alphabet="abcdefghij=&%+0123456789", max_size=16),
)

#: Scheme/authority prefixes and fragments that recombine into
#: syntactically hostile request targets.
URL_PREFIXES = st.sampled_from(["", "/", "//", "http://", "http:"])
URL_PIECES = st.sampled_from(["/", "[", "]", ":", "::1", "@", "?", "#", "%", "%zz", "=", "&", "a"])


class _CountingReader:
    """Duck-typed reader that records every byte the parser consumes."""

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self._reader = reader
        self.lines = []
        self.body = 0

    async def readuntil(self, separator: bytes) -> bytes:
        line = await self._reader.readuntil(separator)
        self.lines.append(len(line))
        return line

    async def readexactly(self, n: int) -> bytes:
        data = await self._reader.readexactly(n)
        self.body += len(data)
        return data

    @property
    def consumed(self) -> int:
        return sum(self.lines) + self.body


def _parse_chunks(chunks, requests: int = 1):
    """Feed ``chunks`` (then EOF) and parse up to ``requests`` requests.

    Returns ``(outcomes, reader)``; each outcome is an ``HttpRequest``,
    ``None`` or the ``ProtocolError`` raised.  Any other exception, or
    a parse that outlives :data:`PARSE_TIMEOUT_S`, propagates.
    """

    async def scenario():
        # The server's stream limit (RecommendServer.start).
        stream = asyncio.StreamReader(limit=MAX_LINE_BYTES)
        reader = _CountingReader(stream)

        async def feed():
            for chunk in chunks:
                stream.feed_data(chunk)
                await asyncio.sleep(0)
            stream.feed_eof()

        feeder = asyncio.ensure_future(feed())
        outcomes = []
        for _ in range(requests):
            try:
                outcome = await asyncio.wait_for(read_request(reader), PARSE_TIMEOUT_S)
            except ProtocolError as exc:
                outcomes.append(exc)
                break
            outcomes.append(outcome)
            if outcome is None:
                break
        await feeder
        return outcomes, reader

    return asyncio.run(scenario())


def _assert_within_caps(reader: _CountingReader) -> None:
    # readuntil returns at most limit + len(separator) bytes; the parser
    # rejects anything over MAX_LINE_BYTES after reading it.
    assert all(size <= MAX_LINE_BYTES + 2 for size in reader.lines)
    assert len(reader.lines) <= MAX_HEADERS + 2
    assert reader.body <= MAX_BODY_BYTES


def _split(data: bytes, cuts) -> list:
    """Split ``data`` at the (sorted, deduplicated) ``cuts`` offsets."""
    bounds = [0] + sorted({c % (len(data) + 1) for c in cuts}) + [len(data)]
    return [data[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


@st.composite
def requests(draw, mutate: bool):
    """Raw request bytes; ``mutate`` corrupts headers, lengths and layout."""
    method = draw(st.sampled_from(["GET", "POST", "PUT", "HEAD"]))
    target = draw(TARGET)
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0"]))
    body = draw(st.binary(max_size=32))
    pairs = draw(st.lists(st.tuples(TOKEN, SAFE_VALUE), max_size=6))
    headers = [(name.encode(), value.encode()) for name, value in pairs]
    if body or draw(st.booleans()):
        headers.append((b"Content-Length", str(len(body)).encode()))
    if mutate:
        junk = st.binary(max_size=24) | st.builds(
            lambda byte, n: byte * n,
            st.sampled_from([b"a", b" ", b":", b"\r", b"\n"]),
            st.integers(0, 3 * MAX_LINE_BYTES),
        )
        lengths = st.integers(-5, 2 * MAX_BODY_BYTES).map(lambda n: str(n).encode()) | st.sampled_from(
            [b"", b"+4", b" 4 ", b"4_0", b"0x10", b"1e3", b"\xb2", b"9" * 5000]
        )
        for _ in range(draw(st.integers(1, 4))):
            op = draw(st.sampled_from(["value", "name", "length", "insert", "drop"]))
            if op == "insert" or not headers:
                headers.insert(draw(st.integers(0, len(headers))), (draw(junk), draw(junk)))
                continue
            at = draw(st.integers(0, len(headers) - 1))
            name, value = headers[at]
            if op == "value":
                headers[at] = (name, draw(junk))
            elif op == "name":
                headers[at] = (draw(junk), value)
            elif op == "length":
                headers[at] = (b"Content-Length", draw(lengths))
            else:
                del headers[at]
        if draw(st.booleans()):
            target = draw(st.binary(max_size=24)).decode("latin-1")
        elif draw(st.booleans()):
            target = draw(URL_PREFIXES) + "".join(draw(st.lists(URL_PIECES, max_size=6)))
    head = f"{method} {target} {version}\r\n".encode("latin-1")
    head += b"".join(name + b": " + value + b"\r\n" for name, value in headers)
    return head + b"\r\n" + body


class TestReadRequestFuzz:
    @SETTINGS
    @given(data=st.binary(max_size=256), cuts=st.lists(st.integers(0, 256)))
    def test_arbitrary_bytes(self, data, cuts):
        outcomes, reader = _parse_chunks(_split(data, cuts), requests=4)
        for outcome in outcomes:
            assert outcome is None or isinstance(outcome, (HttpRequest, ProtocolError))
        _assert_within_caps(reader)

    @SETTINGS
    @given(raw=requests(mutate=True), cuts=st.lists(st.integers(0, 1 << 16)))
    def test_mutated_requests(self, raw, cuts):
        (outcome,), reader = _parse_chunks(_split(raw, cuts))
        assert outcome is None or isinstance(outcome, (HttpRequest, ProtocolError))
        _assert_within_caps(reader)

    @SETTINGS
    @given(
        first=requests(mutate=False),
        second=requests(mutate=False),
        cuts=st.lists(st.integers(0, 512)),
    )
    def test_pipelined_requests_are_framed_exactly(self, first, second, cuts):
        """Two back-to-back valid requests parse as two, consuming
        exactly the first request's bytes before the second."""
        outcomes, reader = _parse_chunks(_split(first + second, cuts), requests=3)
        assert [type(o) for o in outcomes] == [HttpRequest, HttpRequest, type(None)]
        assert reader.consumed == len(first) + len(second)
        assert outcomes[0].body == first.partition(b"\r\n\r\n")[2]
        assert outcomes[1].body == second.partition(b"\r\n\r\n")[2]
        _assert_within_caps(reader)

    @SETTINGS
    @given(raw=requests(mutate=False), data=st.data())
    def test_truncated_request_then_eof(self, raw, data):
        """Any strict prefix of a valid request is a clean EOF (empty
        prefix) or a ProtocolError — never a request, never a hang."""
        cut = data.draw(st.integers(0, len(raw) - 1))
        cuts = data.draw(st.lists(st.integers(0, cut)))
        (outcome,), reader = _parse_chunks(_split(raw[:cut], cuts))
        if cut == 0:
            assert outcome is None
        else:
            assert isinstance(outcome, ProtocolError)
        _assert_within_caps(reader)


@pytest.mark.parametrize(
    "raw",
    [
        # Found by test_mutated_requests: urlsplit raises ValueError on
        # an unbalanced IPv6 authority.
        b"GET //[ HTTP/1.1\r\n\r\n",
        b"GET http://[::1/x HTTP/1.1\r\n\r\n",
    ],
)
def test_unparseable_target_is_a_protocol_error(raw):
    (outcome,), _ = _parse_chunks([raw])
    assert isinstance(outcome, ProtocolError)


def test_overlong_header_line_is_rejected_at_the_stream_limit():
    line = b"X: " + b"a" * (2 * MAX_LINE_BYTES) + b"\r\n"
    (outcome,), reader = _parse_chunks([b"GET / HTTP/1.1\r\n" + line + b"\r\n"])
    assert isinstance(outcome, ProtocolError)
    assert reader.lines == [len(b"GET / HTTP/1.1\r\n")]
