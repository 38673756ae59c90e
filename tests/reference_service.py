"""The service's request function as it stood before its precomputed answers, frozen as a reference.

``respond`` split every target with ``urlparse``, read every query with
``parse_qs``, looked up each status phrase through ``HTTPStatus`` and wrote
every body, the ``/state`` answer included, with the JSON encoder.  Tests
require ``fairway.service.respond`` to return the same bytes, apart from the
``Date`` header, and the same keep-open flag for any request.
"""

from __future__ import annotations

import json
import re
import time
from http import HTTPStatus
from urllib.parse import parse_qs, urlparse

from fairway.document import brief, classify_flow_density
from fairway.errors import DomainError

MAX_LINE = 65536
MAX_HEADERS = 100
_REQUEST_LINE = re.compile(r"\s*(\S+)\s+(\S+)\s+HTTP/(\d{1,10})\.(\d{1,10})\s*", re.ASCII)
_to_json = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def _frame(status: int, body, close: bool = True, head_only: bool = False) -> bytes:
    """Status line, headers and JSON body; ``body`` is encoded JSON or an object to encode.
    The Date header holds the epoch second, not an IMF-fixdate: callers strip it."""
    if not isinstance(body, bytes):
        body = _to_json(body).encode()
    head = (f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\nContent-Type: "
            f"application/json\r\nContent-Length: {len(body)}\r\n").encode()
    head += f"Date: {int(time.time())}\r\n".encode()
    head += b"Connection: close\r\n\r\n" if close else b"\r\n"
    return head if head_only else head + body


def reference_respond(bands, model_body: bytes, readline) -> tuple[bytes, bool] | None:
    """One request read through ``readline`` and its answer, as ``service.respond`` does."""
    line = readline(MAX_LINE + 1)
    while line in (b"\r\n", b"\n"):
        line = readline(MAX_LINE + 1)
    if not line:
        return None
    if len(line) > MAX_LINE:
        return _frame(414, {"error": "request line too long"}), False
    text = line.decode("latin-1")
    request = _REQUEST_LINE.fullmatch(text)
    if request is None:
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
    if target.startswith("//"):
        target = "/" + target.lstrip("/")
    try:
        url = urlparse(target)
    except ValueError:
        return _frame(400, {"error": f"bad request target {brief(target)!r}"}, close), not close
    if url.path == "/model":
        return _frame(200, model_body, close), not close
    if url.path == "/health":
        return _frame(200, {"status": "ok"}, close), not close
    if url.path != "/state":
        return _frame(404, {"error": f"unknown path {brief(url.path)}"}, close), not close
    query, values = parse_qs(url.query), []
    try:
        for name in ("flow", "density"):
            values.append(float(query[name][0]))
    except KeyError:
        return _frame(400, {"error": f"missing query parameter {name!r}"}, close), not close
    except ValueError:
        error = {"error": f"invalid value for {name!r}: {brief(query[name][0])!r}"}
        return _frame(400, error, close), not close
    try:
        speed, state = classify_flow_density(bands, *values)
    except DomainError as exc:
        return _frame(422, {"error": str(exc)}, close), not close
    body = {"speed_kmh": speed, "state": state.value, "color": state.color}
    return _frame(200, body, close), not close
