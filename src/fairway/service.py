"""Read-only HTTP/1.1 endpoint classifying (flow, density) queries.

Serves an immutable, pre-trained model document: requests share its state bands without
locking; retraining happens offline, then a restart.  ``respond`` is the one place where the
wire contract is decided, with no socket; a thread per connection reads requests through it
and sends each answer in one send, and an idle (``IDLE_TIMEOUT_S``) or reset connection
closes silently.  An error text echoes at most 80 characters of any input (``document.brief``).
A "/state?" target without "#" is split by hand, exactly as ``urlparse`` splits it, and
every other target by ``urlparse``; README gives the answer times measured on the benchmark.
Beyond the standard library it imports only ``document`` and ``errors``, never numpy.
"""

from __future__ import annotations

import functools
import json
import re
import socketserver
import time
from http import HTTPStatus
from urllib.parse import unquote, urlparse
from wsgiref.handlers import format_date_time

from .document import (ModelDocument, StateBands, TrafficState, brief, classify_flow_density,
                       document_to_dict, json_text)
from .errors import DomainError

IDLE_TIMEOUT_S = 30.0  # a connection with no request for this long is closed
MAX_LINE = 65536  # bytes in the request line or in one header line
MAX_HEADERS = 100
_REQUEST_LINE = re.compile(r"\s*(\S+)\s+(\S+)\s+HTTP/(\d{1,10})\.(\d{1,10})\s*", re.ASCII)
_to_json = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode
_HEADS = {s.value: f"HTTP/1.1 {s.value} {s.phrase}\r\nContent-Type: application/json\r\n"
                   f"Content-Length: ".encode() for s in HTTPStatus}
# A /state body after its speed, which the encoder writes as repr(float) when finite.
_STATE_TAILS = {s: b"," + _to_json({"state": s.value, "color": s.color})[1:].encode()
                for s in TrafficState}


@functools.lru_cache(maxsize=1)  # one date a second, whatever the request rate
def _date_line(second: int) -> bytes:
    """The Date header line of ``second``: an IMF-fixdate (RFC 9110 §5.6.7), in any locale."""
    return f"Date: {format_date_time(second)}\r\n".encode()


def _frame(status: int, body, close: bool = True, head_only: bool = False) -> bytes:
    """Status line, headers and JSON body; ``body`` is encoded JSON or an object to encode."""
    if not isinstance(body, bytes):
        body = _to_json(body).encode()
    head = b"%s%d\r\n%s%s" % (_HEADS[status], len(body), _date_line(int(time.time())),
                               b"Connection: close\r\n\r\n" if close else b"\r\n")
    return head if head_only else head + body


def _first_values(query: str) -> dict:
    """``parse_qs(query)`` with each name's first value only: fields split on "&", then
    on the first "=", those with an empty value skipped, "+" and %XX decoded (UTF-8)."""
    values = {}
    for field in query.split("&"):
        name, _, value = field.partition("=")
        if value:
            values.setdefault(unquote(name.replace("+", " ")), unquote(value.replace("+", " ")))
    return values


def respond(bands: StateBands, model_body: bytes, readline) -> tuple[bytes, bool] | None:
    """Read one request through ``readline`` (a binary file's ``readline(limit)``) and decide
    its answer: the answer's bytes and whether the connection stays open, or None if the
    client closed first.  A refused request line, header section or method closes the
    connection; nothing past the line that decides an answer is read."""
    line = readline(MAX_LINE + 1)
    while line in (b"\r\n", b"\n"):  # empty lines before a request (RFC 9112 §2.2)
        line = readline(MAX_LINE + 1)
    if not line:
        return None
    if len(line) > MAX_LINE:
        return _frame(414, {"error": "request line too long"}), False
    text = line.decode("latin-1")
    request = _REQUEST_LINE.fullmatch(text)
    if request is None:  # not three words, or no HTTP/<digits>.<digits> version
        return _frame(400, {"error": f"bad request line {brief(text.strip())!r}"}), False
    method, target, major, minor = request.groups()
    if int(major) >= 2:
        return _frame(505, {"error": f"unsupported version {major}.{minor}"}), False
    close = (int(major), int(minor)) < (1, 1)
    for _ in range(MAX_HEADERS + 1):
        header = readline(MAX_LINE + 1)
        if header in (b"\r\n", b"\n", b""):
            break
        if len(header) > MAX_LINE:
            return _frame(431, {"error": "header line too long"}), False
        if header[:11].lower() == b"connection:":
            options = {o.strip() for o in header[11:].lower().split(b",")}
            close = b"close" in options or (close and b"keep-alive" not in options)
    else:
        return _frame(431, {"error": f"more than {MAX_HEADERS} header lines"}), False
    if method != "GET":
        error = {"error": f"unsupported method {brief(method)!r}"}
        return _frame(501, error, head_only=method == "HEAD"), False
    if target.startswith("/state?") and "#" not in target:
        path, query = "/state", target[7:]  # as urlparse splits it: no scheme, host or ";"
    else:
        if target.startswith("//"):  # a path, not a network path (gh-87389)
            target = "/" + target.lstrip("/")
        try:
            url = urlparse(target)
        except ValueError:  # such as an unclosed "[" in a host
            error = {"error": f"bad request target {brief(target)!r}"}
            return _frame(400, error, close), not close
        path, query = url.path, url.query
    if path == "/model":
        return _frame(200, model_body, close), not close
    if path == "/health":
        return _frame(200, {"status": "ok"}, close), not close
    if path != "/state":
        return _frame(404, {"error": f"unknown path {brief(path)}"}, close), not close
    query, values = _first_values(query), []
    try:
        for name in ("flow", "density"):
            values.append(float(query[name]))
    except KeyError:
        return _frame(400, {"error": f"missing query parameter {name!r}"}, close), not close
    except ValueError:
        error = {"error": f"invalid value for {name!r}: {brief(query[name])!r}"}
        return _frame(400, error, close), not close
    try:
        speed, state = classify_flow_density(bands, *values)
    except DomainError as exc:
        return _frame(422, {"error": str(exc)}, close), not close
    body = b'{"speed_kmh":' + repr(speed).encode() + _STATE_TAILS[state]
    return _frame(200, body, close), not close


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
                while answer := respond(bands, model_body, self.rfile.readline):
                    self.request.sendall(answer[0])
                    if not answer[1]:
                        return
            except (TimeoutError, ConnectionError):  # idle past the timeout, or reset
                pass

    return _Server((host, port), Handler)
