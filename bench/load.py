"""Open-loop HTTP load against ``kgembed serve``, with every response checked
against the benchmark's own numpy reference.

One process, at most ``nproc`` persistent HTTP/1.1 connections through plain
``http.client``, each owned by one sender thread. Request ``k`` of a phase is
due at ``t0 + k / rate``; a free connection takes the next request, waits for
its due time and sends it. Latency is measured from the due time, so a stall
also charges the requests queued behind it, and ``sent - due`` shows how late
the generator ran. No socket option is set beyond what ``http.client`` does
itself, so a server-side stall stays visible.
"""

from __future__ import annotations

import http.client
import json
import math
import threading
import time
from dataclasses import dataclass

import numpy as np

TIMEOUT_S = 10.0
SCORE_TOL = 1e-5  # cosine scores are float64 over float32 rows on both sides


@dataclass
class Request:
    index: int
    cls: str  # knn | lookup | error
    path: str
    expected: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int | None = None
    body: bytes = b""
    error: str = ""

    @property
    def latency(self) -> float:
        """Seconds from due to response; infinite for a failed request."""
        return self.done - self.due if self.status is not None and self.status < 500 else math.inf


def run_phase(port: int, schedule: list, start: int, count: int, rate: float, connections: int) -> list[Request]:
    """Send ``count`` schedule entries (cyclic from ``start``) at ``rate``
    requests per second; returns them in due order once all have answered."""
    t0 = time.perf_counter() + 0.02
    requests = []
    for k in range(count):
        cls, path, expected = schedule[(start + k) % len(schedule)]
        requests.append(Request(start + k, cls, path, expected, t0 + k / rate))
    lock = threading.Lock()
    cursor = [0]

    def sender():
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
        try:
            while True:
                with lock:
                    k = cursor[0]
                    cursor[0] += 1
                if k >= count:
                    return
                req = requests[k]
                delay = req.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                req.sent = time.perf_counter()
                try:
                    conn.request("GET", req.path)
                    resp = conn.getresponse()
                    req.body = resp.read()
                    req.status = resp.status
                except (OSError, http.client.HTTPException) as exc:
                    req.error = f"{type(exc).__name__}: {exc}"
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
                req.done = time.perf_counter()
        finally:
            conn.close()

    threads = [threading.Thread(target=sender) for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return requests


def sequential_rtt(port: int, path: str, calls: int, fresh: bool) -> list[float]:
    """Round-trip seconds of ``calls`` back-to-back requests on one idle
    keep-alive connection, or on a new connection each (``fresh``)."""
    times = []
    conn = None
    for _ in range(calls):
        if conn is None or fresh:
            if conn is not None:
                conn.close()
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
        started = time.perf_counter()
        conn.request("GET", path)
        resp = conn.getresponse()
        resp.read()
        times.append(time.perf_counter() - started)
        if resp.status != 200:
            raise RuntimeError(f"{path} answered {resp.status} on an idle server")
    conn.close()
    return times


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); infinite values (failed
    requests) sort last, as misses of any latency limit."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# --------------------------------------------------------------------------
# Reference answers
# --------------------------------------------------------------------------


def _unescape(token: str) -> str:
    for raw, enc in ((" ", "%20"), ("\t", "%09"), ("\n", "%0A"), ("\r", "%0D")):
        token = token.replace(enc, raw)
    return token.replace("%25", "%")


class Reference:
    """The served model read straight from its text file, and the answers
    the service must give, computed with numpy in float64."""

    def __init__(self, model_path: str):
        with open(model_path, encoding="utf-8") as fh:
            rows, dim = (int(x) for x in fh.readline().split())
            self.tokens: list[str] = []
            raw = np.empty((rows, dim), dtype=np.float32)
            for i, line in enumerate(fh):
                parts = line.rstrip("\n").split(" ")
                self.tokens.append(_unescape(parts[0]))
                raw[i] = np.asarray(parts[1:], dtype=np.float32)
        self.raw = raw
        self.index = {t: i for i, t in enumerate(self.tokens)}
        wide = raw.astype(np.float64)
        self.unit = wide / np.linalg.norm(wide, axis=1, keepdims=True)
        self._knn: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def neighbours(self, concept: str) -> tuple[np.ndarray, np.ndarray]:
        """Scores of every row against ``concept`` and the row order by
        descending score, then ascending index, query excluded."""
        if concept not in self._knn:
            q = self.index[concept]
            scores = self.unit @ self.unit[q]
            order = np.argsort(-scores, kind="stable")
            self._knn[concept] = (scores, order[order != q])
        return self._knn[concept]

    def check(self, req: Request) -> str | None:
        """None when the response is right, else what is wrong with it."""
        if req.status is None:
            return f"{req.path}: {req.error}"
        if req.status != req.expected:
            return f"{req.path}: status {req.status}, expected {req.expected}"
        try:
            body = json.loads(req.body)
        except ValueError:
            return f"{req.path}: body is not JSON"
        endpoint, _, query = req.path.partition("?")
        params = dict(p.split("=", 1) for p in query.split("&") if "=" in p)
        if req.expected == 404:
            return None if body.get("error") == "unknown-concept" else f"{req.path}: body {body}"
        if req.expected == 400:
            ok = body.get("error") in ("missing-parameter", "invalid-parameter")
            return None if ok else f"{req.path}: body {body}"
        if endpoint == "/get-vector":
            want = [float(x) for x in self.raw[self.index[params["concept"]]]]
            ok = body.get("concept") == params["concept"] and body.get("vector") == want
            return None if ok else f"{req.path}: wrong vector"
        if endpoint == "/similarity":
            a, b = self.unit[self.index[params["left"]]], self.unit[self.index[params["right"]]]
            ok = abs(body.get("similarity", math.nan) - float(a @ b)) <= SCORE_TOL
            return None if ok else f"{req.path}: similarity {body.get('similarity')} != {float(a @ b)}"
        return self._check_knn(req.path, params, body)

    def _check_knn(self, path: str, params: dict, body: dict) -> str | None:
        concept, top = params["concept"], int(params["top"])
        scores, order = self.neighbours(concept)
        got = body.get("neighbors", [])
        if body.get("concept") != concept or body.get("top") != top or len(got) != min(top, len(order)):
            return f"{path}: wrong header or {len(got)} neighbours"
        seen = set()
        previous = None
        for rank, item in enumerate(got):
            name, score = item.get("concept"), item.get("score")
            if name not in self.index or name == concept or name in seen:
                return f"{path}: bad neighbour {name!r}"
            seen.add(name)
            row = self.index[name]
            # right score for this row, and a score that belongs at this rank
            if abs(score - scores[row]) > SCORE_TOL or abs(scores[row] - scores[order[rank]]) > SCORE_TOL:
                return f"{path}: neighbour {rank} is {name} ({score}), reference {self.tokens[order[rank]]}"
            if previous is not None and (score > previous[0] or (score == previous[0] and row < previous[1])):
                return f"{path}: neighbours out of order at rank {rank}"
            previous = (score, row)
        return None
