"""Read-only HTTP/1.1 endpoint classifying (flow, density) queries.

Serves an immutable, pre-trained model document: the classification
depends only on the loaded state bands and the query, so concurrent
requests share the snapshot without locking.  Retraining happens offline
via the CLI followed by a restart.

A thread per connection answers its requests in turn.  Of each request it
reads the request line and, of at most 100 header lines, only ``Connection``:
HTTP/1.1 keeps the connection open unless it sends ``close``, HTTP/1.0 closes
it unless it sends ``keep-alive``.  Each answer (status line, Content-Type,
Content-Length, Date, JSON body) leaves in one send.  A request it cannot serve
(not a GET: 501; a request line that is not three words ending in
``HTTP/<digits>.<digits>``: 400; HTTP 2 or later: 505; lines over 65,536
bytes: 414 or 431; over 100 header lines: 431) gets an ``{"error": …}`` body
and ``Connection: close``, and the connection closes.  A connection idle for
``IDLE_TIMEOUT_S``, or reset by the client, closes silently.  On the benchmark's
serve workload (2-vCPU Linux VM) a keep-alive answer's median is ~0.3 ms, and a
spawned server answers /health after ~0.11 s with a peak RSS of ~17 MB: beyond
the standard library it imports only ``document`` and ``errors``, never numpy.
"""

from __future__ import annotations

import functools
import json
import re
import socketserver
import time
from http import HTTPStatus
from urllib.parse import parse_qs, urlparse

from .document import ModelDocument, StateBands, classify_flow_density, document_to_dict, json_text
from .errors import DomainError

IDLE_TIMEOUT_S = 30.0  # a connection with no request for this long is closed
MAX_LINE = 65536  # bytes in the request line or in one header line
MAX_HEADERS = 100
_REQUEST_LINE = re.compile(r"\s*(\S+)\s+(\S+)\s+HTTP/(\d{1,10})\.(\d{1,10})\s*", re.ASCII)
_DAYS = "Mon Tue Wed Thu Fri Sat Sun".split()
_MONTHS = "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()
_to_json = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def answer(bands: StateBands, path: str, query: dict[str, list[str]]) -> tuple[int, dict]:
    """The status and JSON body of a GET on ``path`` other than /model; ``query`` as parse_qs."""
    if path == "/health":
        return 200, {"status": "ok"}
    if path != "/state":
        return 404, {"error": f"unknown path {path}"}
    values = []
    for name in ("flow", "density"):
        if name not in query:
            return 400, {"error": f"missing query parameter {name!r}"}
        try:
            values.append(float(query[name][0]))
        except ValueError:
            return 400, {"error": f"invalid value for {name!r}: {query[name][0]!r}"}
    try:
        speed, state = classify_flow_density(bands, *values)
    except DomainError as exc:
        return 422, {"error": str(exc)}
    return 200, {"speed_kmh": speed, "state": state.value, "color": state.color}


@functools.lru_cache(maxsize=1)  # one date a second, whatever the request rate
def _date_line(second: int) -> bytes:
    """The Date header line of ``second``: an IMF-fixdate (RFC 9110 §5.6.7), in any locale."""
    t = time.gmtime(second)
    text = (f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year} "
            f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")
    return f"Date: {text}\r\n".encode()


class _Server(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True


def make_server(doc: ModelDocument, port: int,
                host: str = "127.0.0.1") -> socketserver.ThreadingTCPServer:
    """Build and bind (but do not start) the service; requires state bands in the document."""
    if doc.bands is None:
        raise DomainError("the served model document must contain state bands")
    if not 0 <= port <= 65535:
        raise DomainError(f"port must lie in 0..65535, got {port}")
    bands = doc.bands
    model_body = json_text(document_to_dict(doc), separators=(",", ":")).encode()

    class Handler(socketserver.StreamRequestHandler):
        timeout = IDLE_TIMEOUT_S
        disable_nagle_algorithm = True  # TCP_NODELAY: each answer leaves when it is sent

        def handle(self):
            try:
                while self._answer_one():
                    pass
            except (TimeoutError, ConnectionError):  # idle past the timeout, or reset
                pass

        def _answer_one(self) -> bool:
            """Read and answer one request; whether the connection stays open."""
            line = self.rfile.readline(MAX_LINE + 1)
            while line in (b"\r\n", b"\n"):  # empty lines before a request (RFC 9112 §2.2)
                line = self.rfile.readline(MAX_LINE + 1)
            if not line:
                return False  # the client closed
            if len(line) > MAX_LINE:
                return self._send(414, {"error": "request line too long"})
            text = line.decode("latin-1")
            request = _REQUEST_LINE.fullmatch(text)
            if request is None:  # not three words, or no HTTP/<digits>.<digits> version
                return self._send(400, {"error": f"bad request line {text.strip()[:80]!r}"})
            method, target, major, minor = request.groups()
            if int(major) >= 2:
                return self._send(505, {"error": f"unsupported version {major}.{minor}"})
            close = (int(major), int(minor)) < (1, 1)
            for _ in range(MAX_HEADERS + 1):
                header = self.rfile.readline(MAX_LINE + 1)
                if header in (b"\r\n", b"\n", b""):
                    break
                if len(header) > MAX_LINE:
                    return self._send(431, {"error": "header line too long"})
                if header[:11].lower() == b"connection:":
                    options = {o.strip() for o in header[11:].lower().split(b",")}
                    close = b"close" in options or (close and b"keep-alive" not in options)
            else:
                return self._send(431, {"error": f"more than {MAX_HEADERS} header lines"})
            if method != "GET":
                return self._send(501, {"error": f"unsupported method {method!r}"},
                                  head_only=method == "HEAD")
            if target.startswith("//"):  # a path, not a network path (gh-87389)
                target = "/" + target.lstrip("/")
            try:
                url = urlparse(target)
            except ValueError:  # such as an unclosed "[" in a host
                return self._send(400, {"error": f"bad request target {target[:80]!r}"}, close)
            if url.path == "/model":
                return self._send(200, model_body, close)
            return self._send(*answer(bands, url.path, parse_qs(url.query)), close)

        def _send(self, status: int, body, close: bool = True, head_only: bool = False) -> bool:
            """Status line, headers and JSON body in one send; whether the connection stays
            open.  ``body`` is encoded JSON or an object to encode."""
            if not isinstance(body, bytes):
                body = _to_json(body).encode()
            head = (f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\nContent-Type: "
                    f"application/json\r\nContent-Length: {len(body)}\r\n").encode()
            head += _date_line(int(time.time()))
            head += b"Connection: close\r\n\r\n" if close else b"\r\n"
            self.request.sendall(head if head_only else head + body)
            return not close

    return _Server((host, port), Handler)
