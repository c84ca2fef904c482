import contextlib
import http.client
import io
import json
import re
import socket
import statistics
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgembed.service import (
    VectorServiceHandler,
    _closest_concepts_json,
    _first_values,
    _split_target,
    build_server,
)
from kgembed.trainer import EmbeddingModel, Vocabulary
from kgembed.vector_ops import cosine, nearest_neighbors

TOKENS = [
    "http://ex/alpha",
    "http://ex/beta",
    "http://ex/gamma",
    "http://ex/entité?q=1&r=2",
    '"two words"@en',
]


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(12)
    vectors = rng.normal(size=(len(TOKENS), 6)).astype(np.float32)
    vocab = Vocabulary(
        list(TOKENS),
        {t: i for i, t in enumerate(TOKENS)},
        np.ones(len(TOKENS), dtype=np.int64),
        np.full(len(TOKENS), 1.0 / len(TOKENS)),
    )
    return EmbeddingModel(vocab, vectors)


@contextlib.contextmanager
def running(srv):
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


@pytest.fixture(scope="module")
def server(model):
    with running(build_server(model, "127.0.0.1", 0, model_id="test-model")) as srv:
        yield srv


@pytest.fixture(scope="module")
def zero_row_server(model):
    vectors = model.vectors.copy()
    vectors[1] = 0.0
    with running(build_server(EmbeddingModel(model.vocabulary, vectors), "127.0.0.1", 0)) as srv:
        yield srv


def get(server, path, params=None):
    if params:
        path = f"{path}?{urllib.parse.urlencode(params)}"
    url = f"http://127.0.0.1:{server.server_address[1]}{path}"
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


class TestHealth:
    def test_health_before_any_query(self, server, model):
        status, body = get(server, "/health")
        assert status == 200
        assert body["model"] == "test-model"
        assert body["dimension"] == 6
        assert body["vocabulary_size"] == len(TOKENS)


class TestGetVector:
    def test_known_concept_has_model_dimension(self, server, model):
        status, body = get(server, "/get-vector", {"concept": TOKENS[0]})
        assert status == 200
        assert len(body["vector"]) == model.dimension
        assert body["vector"] == [float(x) for x in model.vector(TOKENS[0])]

    def test_unknown_concept_404(self, server):
        status, body = get(server, "/get-vector", {"concept": "http://ex/ghost"})
        assert status == 404
        assert body["error"] == "unknown-concept"

    def test_missing_parameter_400(self, server):
        status, body = get(server, "/get-vector")
        assert status == 400
        assert body == {"error": "missing-parameter", "parameter": "concept"}

    def test_url_encoded_iri_round_trips(self, server):
        concept = TOKENS[3]
        status, body = get(server, "/get-vector", {"concept": concept})
        assert status == 200
        assert body["concept"] == concept

    def test_literal_token_round_trips(self, server):
        status, body = get(server, "/get-vector", {"concept": TOKENS[4]})
        assert status == 200
        assert body["concept"] == TOKENS[4]


class TestSimilarity:
    def test_self_similarity_is_one(self, server):
        status, body = get(server, "/similarity", {"left": TOKENS[0], "right": TOKENS[0]})
        assert status == 200
        assert body["similarity"] == pytest.approx(1.0, abs=1e-9)

    def test_symmetry(self, server):
        _, one = get(server, "/similarity", {"left": TOKENS[0], "right": TOKENS[1]})
        _, two = get(server, "/similarity", {"left": TOKENS[1], "right": TOKENS[0]})
        assert one["similarity"] == two["similarity"]

    def test_matches_library_cosine_exactly(self, server, model):
        _, body = get(server, "/similarity", {"left": TOKENS[0], "right": TOKENS[2]})
        assert body["similarity"] == cosine(model.vector(TOKENS[0]), model.vector(TOKENS[2]))

    def test_unknown_member_404(self, server):
        status, body = get(server, "/similarity", {"left": TOKENS[0], "right": "http://ex/ghost"})
        assert status == 404
        assert body["concepts"] == ["http://ex/ghost"]

    def test_missing_parameter_400(self, server):
        status, _ = get(server, "/similarity", {"left": TOKENS[0]})
        assert status == 400


class TestClosestConcepts:
    def test_length_capped_by_vocabulary(self, server):
        status, body = get(server, "/closest-concepts", {"concept": TOKENS[0], "top": 50})
        assert status == 200
        assert len(body["neighbors"]) == len(TOKENS) - 1

    def test_scores_non_increasing(self, server):
        _, body = get(server, "/closest-concepts", {"concept": TOKENS[1], "top": 4})
        scores = [n["score"] for n in body["neighbors"]]
        assert scores == sorted(scores, reverse=True)

    def test_default_top_is_ten(self, server):
        _, body = get(server, "/closest-concepts", {"concept": TOKENS[0]})
        assert body["top"] == 10

    def test_agrees_with_library_exactly(self, server, model):
        _, body = get(server, "/closest-concepts", {"concept": TOKENS[2], "top": 3})
        expected = nearest_neighbors(model, TOKENS[2], 3)
        assert [(n["concept"], n["score"]) for n in body["neighbors"]] == expected

    def test_unknown_concept_404(self, server):
        status, _ = get(server, "/closest-concepts", {"concept": "http://ex/ghost"})
        assert status == 404

    def test_bad_top_values_400(self, server):
        for bad in ("0", "-3", "abc"):
            status, body = get(server, "/closest-concepts", {"concept": TOKENS[0], "top": bad})
            assert status == 400
            assert body["error"] == "invalid-parameter"


class TestServiceBehavior:
    def test_unknown_endpoint_404(self, server):
        status, body = get(server, "/vectors")
        assert status == 404
        assert body["error"] == "unknown-endpoint"

    def test_concurrent_identical_requests_identical_bodies(self, server):
        def fetch(_):
            return get(server, "/closest-concepts", {"concept": TOKENS[0], "top": 4})

        with ThreadPoolExecutor(8) as pool:
            results = list(pool.map(fetch, range(16)))
        first = results[0]
        assert all(r == first for r in results)


class TestZeroRow:
    """TOKENS[1] has an all-zero vector."""

    def test_other_concepts_still_answer(self, zero_row_server):
        for concept in (TOKENS[0], TOKENS[2], TOKENS[4]):
            status, body = get(zero_row_server, "/closest-concepts", {"concept": concept, "top": 50})
            assert status == 200
            listed = [n["concept"] for n in body["neighbors"]]
            assert TOKENS[1] not in listed
            assert len(listed) == len(TOKENS) - 2

    def test_zero_concept_closest_is_422(self, zero_row_server):
        status, body = get(zero_row_server, "/closest-concepts", {"concept": TOKENS[1]})
        assert status == 422
        assert body == {"error": "zero-vector", "concept": TOKENS[1]}

    def test_zero_operand_similarity_is_422(self, zero_row_server):
        status, body = get(zero_row_server, "/similarity", {"left": TOKENS[0], "right": TOKENS[1]})
        assert status == 422
        assert body == {"error": "zero-vector", "concepts": [TOKENS[1]]}

    def test_similarity_of_other_concepts_still_answers(self, zero_row_server, model):
        status, body = get(zero_row_server, "/similarity", {"left": TOKENS[0], "right": TOKENS[2]})
        assert status == 200
        assert body["similarity"] == cosine(model.vector(TOKENS[0]), model.vector(TOKENS[2]))

    def test_zero_vector_still_served(self, zero_row_server):
        status, body = get(zero_row_server, "/get-vector", {"concept": TOKENS[1]})
        assert status == 200
        assert body["vector"] == [0.0] * 6


class TestConnections:
    def test_back_to_back_keepalive_requests_do_not_stall(self, server):
        # with Nagle on, the body of each response waits ~40 ms for the
        # client's delayed ACK of the headers
        conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=10)
        path = "/get-vector?" + urllib.parse.urlencode({"concept": TOKENS[0]})
        rtts = []
        try:
            for _ in range(20):
                started = time.perf_counter()
                conn.request("GET", path)
                response = conn.getresponse()
                response.read()
                rtts.append(time.perf_counter() - started)
                assert response.status == 200
        finally:
            conn.close()
        assert statistics.median(rtts) < 0.020

    def test_idle_timeout_is_set(self):
        assert 0 < VectorServiceHandler.timeout <= 300

    def test_idle_connection_closed_after_timeout(self, model):
        class QuickTimeoutHandler(VectorServiceHandler):
            timeout = 0.3

        srv = build_server(model, "127.0.0.1", 0)
        srv.RequestHandlerClass = QuickTimeoutHandler
        with running(srv) as live:
            with socket.create_connection(live.server_address, timeout=10) as sock:
                sock.sendall(b"GET /hea")  # a partial request line, then silence
                started = time.perf_counter()
                assert sock.recv(1024) == b""  # the server closed the connection
                assert time.perf_counter() - started < 5


class StdlibParseHandler(VectorServiceHandler):
    parse_request = BaseHTTPRequestHandler.parse_request


def parse_head(handler_class, raw: bytes) -> dict:
    """Run one ``parse_request`` over ``raw`` and return what it decided,
    what it wrote (Date values blanked) and what it left unread."""
    handler = handler_class.__new__(handler_class)
    handler.rfile = io.BufferedReader(io.BytesIO(raw))
    handler.wfile = io.BytesIO()
    handler.client_address = ("127.0.0.1", 0)
    handler.command = None
    handler.request_version = handler.default_request_version
    handler.raw_requestline = handler.rfile.readline(65537)
    ok = handler.parse_request()
    return {
        "ok": ok,
        "command": handler.command,
        "path": getattr(handler, "path", None),
        "version": handler.request_version,
        "close": handler.close_connection,
        "headers": handler.headers.items() if ok else None,
        "written": re.sub(rb"Date: [^\r]*", b"Date: -", handler.wfile.getvalue()),
        "unread": handler.rfile.read(),
    }


request_lines = st.builds(
    lambda method, target, sep, version: f"{method} {target}{sep}{version}".encode("latin-1") + b"\r\n",
    st.sampled_from(["GET", "POST", "HEAD", "get"]),
    st.text(alphabet="/?#=&%+ab\xa0\xe9", max_size=12).map(lambda t: "/" + t),
    st.sampled_from([" ", "  ", "\t"]),
    st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2.0", "HTTP/1.1 x", "HTTP/1.x", ""]),
)
header_lines = st.lists(
    st.sampled_from(
        [
            b"Host: 127.0.0.1:8080\r\n",
            b"Accept-Encoding: identity\r\n",
            b"Connection: close\r\n",
            b"connection: Keep-Alive\r\n",
            b"Expect: 100-continue\r\n",
            b"X-Tight:value\r\n",
            b"X-Spaced: \t value \t\r\n",
            b"X-Bare-LF: v\n",
            b"X-Empty:\r\n",
            b"X-Latin: caf\xe9\r\n",
            b"X-Dup: 1\r\n",
            b"X-Dup: 2\r\n",
            b"  folded continuation\r\n",
            b"Bad Name: v\r\n",
            b"no colon at all\r\n",
            b": no name\r\n",
            b"X-CR: a\rb\r\n",
        ]
    ),
    max_size=6,
)


class TestRequestParsing:
    """The handler's own request-head parse against the stdlib's."""

    @settings(max_examples=300, deadline=None)
    @given(request_lines, header_lines, st.sampled_from([b"\r\n", b"\n", b""]))
    def test_same_outcome_as_stdlib(self, line, headers, end):
        raw = line + b"".join(headers) + end + b"NEXT"
        assert parse_head(VectorServiceHandler, raw) == parse_head(StdlibParseHandler, raw)

    @settings(max_examples=300, deadline=None)
    @given(header_lines)
    def test_header_lines_of_a_usual_request_line(self, headers):
        raw = b"GET /get-vector?concept=a HTTP/1.1\r\n" + b"".join(headers) + b"\r\nNEXT"
        assert parse_head(VectorServiceHandler, raw) == parse_head(StdlibParseHandler, raw)

    @pytest.mark.parametrize(
        "header",
        [b"Expect: 100-continue\r\n", b"Bad Name: v\r\n", b"Connection: close\r\n", b"  folded\r\n"],
    )
    def test_headers_that_change_the_outcome(self, header):
        raw = b"GET /health HTTP/1.1\r\nHost: h\r\n" + header + b"X-After: 1\r\n\r\nNEXT"
        assert parse_head(VectorServiceHandler, raw) == parse_head(StdlibParseHandler, raw)

    @pytest.mark.parametrize(
        "head",
        [
            b"X-Long: " + b"a" * 70000 + b"\r\n\r\n",
            b"".join(b"X-%d: v\r\n" % i for i in range(99)) + b"\r\n",
            b"".join(b"X-%d: v\r\n" % i for i in range(100)) + b"\r\n",
            b"".join(b"X-%d: v\r\n" % i for i in range(101)) + b"\r\n",
        ],
    )
    def test_same_limits_as_stdlib(self, head):
        raw = b"GET /health HTTP/1.1\r\n" + head + b"NEXT"
        got = parse_head(VectorServiceHandler, raw)
        assert got == parse_head(StdlibParseHandler, raw)

    def test_oversized_header_line_answers_431(self, server):
        with socket.create_connection(server.server_address, timeout=10) as sock:
            sock.sendall(b"GET /health HTTP/1.1\r\nX-Long: " + b"a" * 70000 + b"\r\n\r\n")
            assert sock.recv(1024).startswith(b"HTTP/1.1 431 ")


class TestRequestTarget:
    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="/?#:@=&%.ab\x01\xe9", max_size=14))
    def test_split_as_urlsplit(self, rest):
        target = "/" + rest.lstrip("/")
        url = urllib.parse.urlsplit(target)
        assert _split_target(target) == (url.path, url.query)

    def test_absolute_form_and_fragment(self):
        assert _split_target("http://h:1/get-vector?concept=a") == ("/get-vector", "concept=a")
        assert _split_target("/get-vector?concept=a#frag") == ("/get-vector", "concept=a")

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="ab=&+%2FC3A9GZé;", max_size=16))
    def test_first_values_as_parse_qs(self, query):
        want = {name: values[0] for name, values in urllib.parse.parse_qs(query).items()}
        assert _first_values(query) == want


class TestClosestConceptsText:
    @settings(max_examples=300, deadline=None)
    @given(
        st.text(max_size=8),
        st.text(max_size=8),
        st.integers(1, 1000),
        st.lists(st.tuples(st.text(max_size=8), st.floats(allow_subnormal=True)), max_size=6),
    )
    def test_equal_to_json_dumps(self, concept, model_id, top, neighbors):
        payload = {
            "concept": concept,
            "model": model_id,
            "top": top,
            "neighbors": [{"concept": t, "score": s} for t, s in neighbors],
        }
        assert _closest_concepts_json(concept, model_id, top, neighbors) == json.dumps(payload, sort_keys=True)


class TestResponseHead:
    def send(self, status, payload):
        handler = VectorServiceHandler.__new__(VectorServiceHandler)
        handler.request_version = "HTTP/1.1"
        writes = []
        handler.wfile = type("Writes", (), {"write": lambda self, data: writes.append(data)})()
        handler._send(status, payload)
        return writes

    def test_one_write_with_the_stdlib_status_line_and_headers(self):
        writes = self.send(422, {"error": "zero-vector", "concept": "x"})
        assert len(writes) == 1
        head, body = writes[0].split(b"\r\n\r\n", 1)
        assert body == json.dumps({"concept": "x", "error": "zero-vector"}).encode()
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0] == "HTTP/1.1 422 Unprocessable Entity"
        assert lines[1] == f"Server: {BaseHTTPRequestHandler.server_version} {BaseHTTPRequestHandler.sys_version}"
        assert lines[2].startswith("Date: ") and lines[2].endswith(" GMT")
        assert lines[3:] == ["Content-Type: application/json", f"Content-Length: {len(body)}"]

    def test_date_matches_the_stdlib_format(self):
        handler = VectorServiceHandler.__new__(VectorServiceHandler)
        stdlib = BaseHTTPRequestHandler.__new__(BaseHTTPRequestHandler)
        for _ in range(3):
            before = stdlib.date_time_string()
            got = handler.date_time_string()
            assert got in (before, stdlib.date_time_string())
        assert handler.date_time_string(1e9) == stdlib.date_time_string(1e9)
