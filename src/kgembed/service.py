"""HTTP JSON view over a trained embedding model.

Endpoints (all GET):

  /health                                model id, dimension, vocabulary size
  /get-vector?concept=IRI                the stored vector for a concept
  /similarity?left=IRI&right=IRI         cosine similarity of two concepts
  /closest-concepts?concept=IRI&top=K    nearest neighbours by cosine (default 10)

Unknown concepts answer 404, missing or invalid parameters 400, both with a
machine-readable JSON body. A concept whose vector is all zeros has no
direction: it answers 422 ``{"error": "zero-vector", ...}`` on /similarity
and /closest-concepts, and it never appears in a neighbour list. Keys are
sorted, so identical requests produce identical bytes.

The model is immutable and shared; handlers run concurrently with no write
path. Its :class:`NeighborIndex` (float64 rows, norms, zero-row mask) is built
once when the server starts. Each response, status line and headers and body,
leaves in one send with ``TCP_NODELAY``, so a keep-alive client never waits on
Nagle's algorithm and its own delayed ACK. A ``<command> <path> HTTP/1.1``
request head of plain ``name: value`` lines is parsed without the email
package; any other goes to the stdlib parser, with the same outcome. A
connection idle for ``VectorServiceHandler.timeout`` seconds is closed.
"""

from __future__ import annotations

import email.parser
import json
import math
import re
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from json.encoder import encode_basestring_ascii
from urllib.parse import unquote_plus, urlsplit

from .trainer import EmbeddingModel, UnknownTokenError
from .vector_ops import NeighborIndex, ZeroVectorError


class VectorServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address: tuple[str, int], model: EmbeddingModel, model_id: str = "model"):
        super().__init__(address, VectorServiceHandler)
        self.model = model
        self.model_id = model_id
        started = time.perf_counter()
        self.index = NeighborIndex(model)
        self.index_seconds = time.perf_counter() - started


def build_server(
    model: EmbeddingModel,
    host: str = "127.0.0.1",
    port: int = 8080,
    model_id: str = "model",
) -> VectorServer:
    """Bind a server; port 0 picks an ephemeral port. Call
    ``serve_forever()`` to run it."""
    return VectorServer((host, port), model, model_id)


# json.dumps(payload, sort_keys=True) without building an encoder per call.
_encode_json = json.JSONEncoder(sort_keys=True).encode
# The stdlib's limits on one request header line and on the header count.
_MAX_LINE = 65536
_MAX_HEADERS = 100
# A header line the email package would parse as exactly ``name: value``.
_PLAIN_HEADER = re.compile(rb"([!-9;-~]+):[ \t]*([^\r\n]*)\r?\n")


def _json_float(x: float) -> str:
    """A float as the json module writes it."""
    if math.isfinite(x):
        return repr(x)
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


def _closest_concepts_json(concept: str, model_id: str, top: int, neighbors: list) -> str:
    """``_encode_json`` of the /closest-concepts payload, written out: the
    json module builds and sorts a dict per neighbour, which more than
    doubles the cost of the answer's text."""
    items = ", ".join(
        f'{{"concept": {encode_basestring_ascii(t)}, "score": {_json_float(s)}}}' for t, s in neighbors
    )
    return (
        f'{{"concept": {encode_basestring_ascii(concept)}, "model": {encode_basestring_ascii(model_id)}, '
        f'"neighbors": [{items}], "top": {top}}}'
    )


def _split_target(target: str) -> tuple[str, str]:
    """Path and query of a request target, as ``urlsplit`` gives them. The
    usual ``/path?query`` needs no more than a split at the first ``?``."""
    if target.startswith("/") and "#" not in target:
        path, _, query = target.partition("?")
        return path, query
    url = urlsplit(target)
    return url.path, url.query


def _first_values(query: str) -> dict[str, str]:
    """The first value of each query parameter with a non-blank value,
    decoded as ``parse_qs`` decodes it."""
    params: dict[str, str] = {}
    for field in query.split("&"):
        name, _, value = field.partition("=")
        if value:
            params.setdefault(unquote_plus(name), unquote_plus(value))
    return params


class VectorServiceHandler(BaseHTTPRequestHandler):
    server: VectorServer
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # TCP_NODELAY: the body never waits for the ACK of the headers
    timeout = 60  # seconds a connection may sit idle before it is closed

    _date = (0, "")  # (second, Date header value), shared by every connection

    def log_message(self, format, *args):  # keep request logging off the console
        pass

    def date_time_string(self, timestamp=None):
        """The stdlib's ``Date`` value, formatted once a second."""
        if timestamp is not None:
            return super().date_time_string(timestamp)
        second = int(time.time())
        cached = VectorServiceHandler._date
        if cached[0] != second:
            cached = VectorServiceHandler._date = (second, super().date_time_string(second))
        return cached[1]

    def parse_request(self) -> bool:
        """The stdlib parse for a ``<command> <path> HTTP/1.1`` request line,
        with plain ``name: value`` header lines read without the email
        package, which costs more than answering most requests. Any other
        request line, and a request with any other header line, gets the
        stdlib parser, which also answers the malformed ones."""
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = requestline.split()
        if len(words) != 3 or words[2] != "HTTP/1.1":
            return super().parse_request()
        self.requestline = requestline
        self.command, path, self.request_version = words
        self.close_connection = False
        if path.startswith("//"):  # as the stdlib does (gh-87389)
            path = "/" + path.lstrip("/")
        self.path = path
        lines = []
        while True:  # read as http.client.parse_headers reads, with its limits and errors
            line = self.rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Line too long",
                    f"got more than {_MAX_LINE} bytes when reading header line",
                )
                return False
            lines.append(line)
            if len(lines) > _MAX_HEADERS:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Too many headers",
                    f"got more than {_MAX_HEADERS} headers",
                )
                return False
            if line in (b"\r\n", b"\n", b""):
                break
        fields = [_PLAIN_HEADER.fullmatch(line) for line in lines[:-1]]
        if all(fields):
            self.headers = self.MessageClass()
            for field in fields:  # the email package would store these unchanged
                self.headers.set_raw(str(field[1], "iso-8859-1"), str(field[2], "iso-8859-1"))
        else:
            text = str(b"".join(lines), "iso-8859-1")
            self.headers = email.parser.Parser(_class=self.MessageClass).parsestr(text)
        if self.headers.get("Connection", "").lower() == "close":
            self.close_connection = True
        if self.headers.get("Expect", "").lower() == "100-continue":
            return self.handle_expect_100()
        return True

    def do_GET(self):
        try:
            self._route()
        except Exception as exc:  # a handler bug must not tear down the connection
            self._send(500, {"error": "internal-error", "detail": str(exc)})

    def _route(self):
        path, query = _split_target(self.path)
        params = _first_values(query)
        model = self.server.model
        if path == "/health":
            self._send(
                200,
                {
                    "model": self.server.model_id,
                    "dimension": model.dimension,
                    "vocabulary_size": len(model.vocabulary),
                },
            )
        elif path == "/get-vector":
            concept = self._required(params, "concept")
            if concept is None:
                return
            try:
                vector = model.vector(concept)
            except UnknownTokenError:
                self._send(404, {"error": "unknown-concept", "concept": concept})
                return
            self._send(
                200,
                {
                    "concept": concept,
                    "model": self.server.model_id,
                    "vector": vector.tolist(),
                },
            )
        elif path == "/similarity":
            left = self._required(params, "left")
            if left is None:
                return
            right = self._required(params, "right")
            if right is None:
                return
            missing = [c for c in (left, right) if c not in model.vocabulary]
            if missing:
                self._send(404, {"error": "unknown-concept", "concepts": missing})
                return
            zero = [c for c in (left, right) if self.server.index.is_zero(c)]
            if zero:
                self._send(422, {"error": "zero-vector", "concepts": zero})
                return
            score = self.server.index.similarity(left, right)
            self._send(
                200,
                {"left": left, "right": right, "model": self.server.model_id, "similarity": score},
            )
        elif path == "/closest-concepts":
            concept = self._required(params, "concept")
            if concept is None:
                return
            raw_top = params.get("top", "10")
            try:
                top = int(raw_top)
            except ValueError:
                top = 0
            if top < 1:
                self._send(400, {"error": "invalid-parameter", "parameter": "top", "value": raw_top})
                return
            if concept not in model.vocabulary:
                self._send(404, {"error": "unknown-concept", "concept": concept})
                return
            try:
                neighbors = self.server.index.query(concept, top)
            except ZeroVectorError:
                self._send(422, {"error": "zero-vector", "concept": concept})
                return
            self._send_text(200, _closest_concepts_json(concept, self.server.model_id, top, neighbors))
        else:
            self._send(404, {"error": "unknown-endpoint", "path": path})

    def _required(self, params: dict, name: str) -> str | None:
        value = params.get(name)
        if value is None:
            self._send(400, {"error": "missing-parameter", "parameter": name})
        return value

    def _send(self, status: int, payload: dict) -> None:
        self._send_text(status, _encode_json(payload))

    def _send_text(self, status: int, text: str) -> None:
        """The same status line and headers as ``send_response`` with the
        content type and length, written with the JSON ``text`` in one send."""
        body = text.encode("utf-8")
        head = (
            f"{self.protocol_version} {status} {self.responses[status][0]}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        self.wfile.write(head.encode("latin-1") + body)
