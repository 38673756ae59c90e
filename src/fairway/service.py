"""Read-only HTTP endpoint classifying (flow, density) queries.

Serves an immutable, pre-trained model document: the classification
depends only on the loaded state bands and the query, so concurrent
requests share the snapshot without locking.  Retraining happens offline
via the CLI followed by a restart.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .errors import DomainError
from .io_store import ModelDocument, document_to_dict, json_text
from .traffic_state import StateBands, classify_flow_density


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


def make_server(doc: ModelDocument, port: int, host: str = "127.0.0.1") -> ThreadingHTTPServer:
    """Build and bind (but do not start) the service; requires state bands in the document."""
    if doc.bands is None:
        raise DomainError("the served model document must contain state bands")
    if not 0 <= port <= 65535:
        raise DomainError(f"port must lie in 0..65535, got {port}")
    bands = doc.bands
    model_body = json_text(document_to_dict(doc), separators=(",", ":")).encode()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Headers and body leave as two sends: without TCP_NODELAY, Nagle holds the
        # body until the client's delayed ACK (~40 ms) on every keep-alive answer.
        disable_nagle_algorithm = True

        def log_message(self, fmt, *args):  # quiet by default
            pass

        def _send(self, status: int, body: bytes, close: bool = False) -> None:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if close:
                self.send_header("Connection", "close")
            self.end_headers()
            if self.command != "HEAD":  # HEAD is unsupported: only its error reply lands here
                self.wfile.write(body)

        def _send_json(self, status: int, obj, close: bool = False) -> None:
            self._send(status, json.dumps(obj, separators=(",", ":"), allow_nan=False).encode(),
                       close)

        def send_error(self, code, message=None, explain=None):
            """http.server's own rejections (bad request line, unsupported method) as JSON."""
            if self.request_version == "HTTP/0.9":  # no readable version: not a headerless reply
                self.request_version = self.protocol_version
            self._send_json(code, {"error": message or self.responses[code][0]}, close=True)

        def do_GET(self):
            url = urlparse(self.path)
            if url.path == "/model":
                self._send(200, model_body)
            else:
                self._send_json(*answer(bands, url.path, parse_qs(url.query)))

    return ThreadingHTTPServer((host, port), Handler)
