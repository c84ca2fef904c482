"""kgembed benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload light_hub_sg --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src`` as it
stands there, nothing is installed. Every workload runs the same two phases
on inputs that ``gen.py`` writes from the seed:

* pipeline: passes of ``load_graph`` -> light walks + ``write_corpus`` ->
  ``read_corpus_tokens`` + ``train`` + ``save_model`` -> ``load_model`` + kNN
  classification CV, each stage in its own child process (``stages.py``),
  repeated until the phase's share of ``--seconds`` is used (at least four
  passes); each metric is the median over passes;
* serve: the real ``kgembed serve`` process on the trained model, driven over
  HTTP by an open-loop generator (``load.py``): a phase at a fixed reference
  rate, then a rate ladder for the highest rate that meets ``LATENCY_LIMIT_S``.

Every walk, model and HTTP response is checked; a failed check counts in
``failed`` and makes the exit code 1. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs one untraced and one traced pipeline pass plus
idle-server probes and direct ``vector_ops`` calls, reports the per-layer
metrics, prints per-layer self time, and writes the spans to ``.bench_out/``.
Without ``src/kgembed`` next to this directory it exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import load  # noqa: E402
from spans import self_times  # noqa: E402

LATENCY_LIMIT_S = 0.25  # p90 over all requests of a ladder rung
# Requests sent on the load connections before the reference phase counts:
# a new connection starts in TCP quick-ACK mode, and only after some
# requests does it settle into the state the rest of the phase sees.
WARMUP_REQUESTS = 16
CHILD_TIMEOUT_S = 170
MIN_PASSES = 4
MAX_PASSES = 50
SHORT_STAGE_BUDGET_S = 0.3  # walk and eval repeat this long within a pass
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
REFERENCE_RATE = 16.0  # requests/s; the seed sustains it on every workload
ACCURACY_FLOOR = 0.6  # 4 balanced classes, so chance is 0.25
PIPELINE_SHARE = 0.6  # share of --seconds the pipeline passes repeat for
# share of --seconds at the reference rate: 250 requests at 25 s, so the knn
# class (40%) has 10 samples beyond its p90. The tails are traced metrics
# only: 1-3 ms scheduling spikes of the VM hit 5-30% of requests, a share
# that follows host load, so p75 and p90 flip between modes run to run.
REFERENCE_SHARE = 0.625


class StageError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_stage(stage: str, args: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "stages.py"), stage, json.dumps(args)],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise StageError(f"stage {stage} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------
# Pipeline phase
# --------------------------------------------------------------------------


def pipeline_pass(inputs: dict, work: Path, trace: bool, run_id: str) -> dict:
    """Load, walk, train and evaluate once, each stage in a fresh process.
    The walk and eval stages repeat their short timed unit for a moment and
    report the median of the repetitions."""
    spec = inputs["graph_spec"]
    quick = {"reps": 1, "budget": 0.0} if trace else {"reps": 3, "budget": SHORT_STAGE_BUDGET_S}
    corpus, model = str(work / "corpus.txt.gz"), str(work / "model.txt")
    common = {"trace": trace, "run_id": run_id, "seed": inputs["seed"]}
    walk = run_stage("walk", {**common, **quick, "graph": inputs["graph"], "entities": inputs["entities"],
                              "entity_count": inputs["entity_count"], "walks": spec["walks"],
                              "depth": spec["depth"], "corpus": corpus})
    trained = run_stage("train", {**common, "reps": 1, "budget": 0.0, "corpus": corpus, "model": model,
                                  "mode": spec["train_mode"], "dimension": spec["dimension"],
                                  "epochs": spec["epochs"]})
    evaluated = run_stage("eval", {**common, **quick, "model": model, "gold": inputs["gold"],
                                   "rows": trained["rows"], "accuracy_floor": ACCURACY_FLOOR})
    stages = (walk, trained, evaluated)
    out = {
        "load_s": walk["load_s"],
        "corpus_s": statistics.median(walk["corpus_s"]),
        "train_s": trained["train_s"][0],
        "eval_s": statistics.median(evaluated["eval_s"]),
        "accuracy": evaluated["accuracy"],
        "maxrss_mb": max(s["maxrss_mb"] for s in stages),
        "train_maxrss_mb": trained["maxrss_mb"],
        "failures": [f for s in stages for f in s["failures"]],
        "counts": {**walk["counts"], **trained["counts"], **evaluated["counts"]},
        "spans": [sp for s in stages for sp in s["spans"]],
    }
    out["pipeline_s"] = out["load_s"] + out["corpus_s"] + out["train_s"] + out["eval_s"]
    return out


def pipeline(inputs: dict, work: Path, seconds: float) -> list[dict]:
    """Passes until the workload's share of ``--seconds`` is used, at least
    ``MIN_PASSES``. Passes spread each stage's samples over the run, so a
    slow stretch of the machine moves one pass, not the median."""
    passes: list[dict] = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or (time.perf_counter() - started < PIPELINE_SHARE * seconds
                                       and len(passes) < MAX_PASSES):
        passes.append(pipeline_pass(inputs, work, False, ""))
    return passes


# --------------------------------------------------------------------------
# Serve phase
# --------------------------------------------------------------------------


class Server:
    """A ``kgembed serve`` child on an ephemeral port."""

    def __init__(self, model_path: str, log_path: Path):
        started = time.perf_counter()
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "kgembed.cli", "serve", "--model", model_path, "--port", "0"],
            stdout=subprocess.PIPE, stderr=self.log, env=child_env(), cwd=ROOT,
        )
        self.rusage = None
        try:
            line = self.proc.stdout.readline().decode("utf-8", "replace").strip()
            if "http://" not in line:
                raise StageError(f"server did not start: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
            self._await_health(started + CHILD_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.startup_s = time.perf_counter() - started

    def _await_health(self, deadline: float) -> None:
        while True:
            try:
                if load.sequential_rtt(self.port, "/health", 1, fresh=True):
                    return
            except (OSError, RuntimeError):
                if time.perf_counter() > deadline:
                    raise StageError("server never answered /health") from None
                time.sleep(0.002)

    def stop(self) -> None:
        """SIGTERM, then reap the process and keep its rusage."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            deadline = time.perf_counter() + 20
            while True:
                pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    self.rusage = rusage
                    break
                if time.perf_counter() > deadline:
                    self.proc.kill()
                    _, status, self.rusage = os.wait4(self.proc.pid, 0)
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    break
                time.sleep(0.01)
        self.proc.stdout.close()
        self.log.close()


def rung(requests: list) -> dict:
    """One rate of the ladder: p90 over all requests and whether it held."""
    latencies = [r.latency for r in requests]
    tail = latencies[-max(1, len(latencies) // 4):]
    p90 = load.percentile(latencies, 90)
    held = p90 <= LATENCY_LIMIT_S and statistics.median(tail) <= LATENCY_LIMIT_S
    return {"p90": p90, "held": held}


def ladder(port: int, schedule: list, cursor: int, start: tuple[float, dict], seconds: float) -> tuple[float, list]:
    """Highest rate meeting the latency limit without a growing backlog.

    Rates double from the reference rate until one fails, then two
    bisections in log space narrow the bracket, and the result is
    interpolated in log rate where the p90 crosses the limit. Returns
    (max_rps, every request sent)."""
    probe_s = max(1.0, 0.05 * seconds)
    sent: list = []

    def probe(rate: float) -> dict:
        nonlocal cursor
        count = max(40, int(rate * probe_s))
        requests = load.run_phase(port, schedule, cursor, count, rate, CONNECTIONS)
        cursor += count
        sent.extend(requests)
        return rung(requests)

    lo = hi = None
    rate, outcome = start
    while rate <= 4096:
        if outcome["held"]:
            lo = (rate, outcome["p90"])
        else:
            hi = (rate, outcome["p90"])
            break
        rate *= 2
        outcome = probe(rate)
    if lo is None:  # not even the reference rate held
        return start[0] * LATENCY_LIMIT_S / start[1]["p90"], sent
    if hi is None:
        return lo[0], sent
    for _ in range(2):
        mid = math.sqrt(lo[0] * hi[0])
        outcome = probe(mid)
        if outcome["held"]:
            lo = (mid, outcome["p90"])
        else:
            hi = (mid, outcome["p90"])
    hi_p90 = min(hi[1], 2 * LATENCY_LIMIT_S)
    frac = 1.0 if hi_p90 <= lo[1] else min(1.0, max(0.0, (LATENCY_LIMIT_S - lo[1]) / (hi_p90 - lo[1])))
    return lo[0] * (hi[0] / lo[0]) ** frac, sent


def serve_phase(inputs: dict, work: Path, seconds: float, trace: bool) -> dict:
    model_path = str(work / "model.txt")
    schedule = json.loads(Path(inputs["schedule"]).read_text(encoding="utf-8"))
    reference = load.Reference(model_path)
    server = Server(model_path, work / "server.log")
    out: dict = {"counts": {"startup_s": server.startup_s}}
    all_requests: list = []
    try:
        lookup = next(p for c, p, _ in schedule if c == "lookup")
        knn = next(p for c, p, _ in schedule if c == "knn")
        if trace:
            out["counts"]["keepalive_rtt_ms"] = 1e3 * statistics.median(
                load.sequential_rtt(server.port, lookup, 20, fresh=False))
            out["counts"]["fresh_conn_rtt_ms"] = 1e3 * statistics.median(
                load.sequential_rtt(server.port, lookup, 20, fresh=True))
            out["counts"]["knn_rtt_ms"] = 1e3 * statistics.median(
                load.sequential_rtt(server.port, knn, 10, fresh=False))
        count = WARMUP_REQUESTS + max(20, int(REFERENCE_RATE * REFERENCE_SHARE * seconds))
        sent = load.run_phase(server.port, schedule, 0, count, REFERENCE_RATE, CONNECTIONS)
        all_requests.extend(sent)
        reference_requests = sent[WARMUP_REQUESTS:]
        if not trace:
            out["max_rps"], sent = ladder(server.port, schedule, count,
                                          (REFERENCE_RATE, rung(reference_requests)), seconds)
            all_requests.extend(sent)
    finally:
        server.stop()
    out["maxrss_mb"] = server.rusage.ru_maxrss / 1024.0
    out["server_cpu_s"] = server.rusage.ru_utime + server.rusage.ru_stime
    out["failures"] = [f for f in (reference.check(r) for r in all_requests) if f]
    out["attempted"] = len(all_requests)

    def class_ms(cls: str, q: float) -> float:
        return 1e3 * load.percentile([r.latency for r in reference_requests if r.cls == cls], q)

    for cls in ("knn", "lookup"):
        for q in (50, 75, 90):
            out[f"{cls}_p{q}_ms"] = class_ms(cls, q)
    out["send_lag_p90_ms"] = 1e3 * load.percentile([r.sent - r.due for r in reference_requests], 90)
    out["status_4xx"] = sum(1 for r in all_requests if r.status is not None and 400 <= r.status < 500)
    out["requests_failed"] = sum(1 for r in all_requests if r.status is None or r.status >= 500)
    out["requests"] = all_requests
    return out


# --------------------------------------------------------------------------
# Results
# --------------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list, served: dict) -> dict:
    def med(key: str) -> float:
        return statistics.median(p[key] for p in passes)

    return {
        "setup_s": metric(med("load_s"), "s"),
        "peak_rss_mb": metric(max(max(p["maxrss_mb"] for p in passes), served["maxrss_mb"]), "MB"),
        "corpus_s": metric(med("corpus_s"), "s"),
        "train_s": metric(med("train_s"), "s"),
        "eval_s": metric(med("eval_s"), "s"),
        "pipeline_s": metric(med("pipeline_s"), "s"),
        "accuracy": metric(med("accuracy"), "share"),
        "knn_p50_ms": metric(served["knn_p50_ms"], "ms"),
        "lookup_p50_ms": metric(served["lookup_p50_ms"], "ms"),
        "max_rps": metric(served["max_rps"], "1/s"),
    }


def per_layer(traced: dict, untraced: dict, served: dict, vector: dict) -> dict:
    c = traced["counts"]
    t = self_times(traced["spans"])
    parse_s = t["graph_io.parse_ntriples"]
    walk_s = t["walker.generate_light_walks"]
    train_s = t["trainer.train"]
    return {
        "graph_io.parse_s": metric(parse_s, "s"),
        "graph_io.triples_per_s": metric(c["triples"] / parse_s, "1/s"),
        "graph_io.errors": metric(c["errors"], "count"),
        "graph_io.lines_skipped": metric(c["lines_skipped"], "count"),
        "graph.build_s": metric(t["graph.add_all"] + t["graph.freeze"], "s"),
        "graph.nodes": metric(c["nodes"], "count"),
        "graph.edges": metric(c["edges"], "count"),
        "graph.tokens": metric(c["graph_tokens"], "count"),
        "graph.max_in_degree": metric(c["max_in_degree"], "count"),
        "walker.walk_s": metric(walk_s, "s"),
        "walker.walks_per_s": metric(c["walks"] / walk_s, "1/s"),
        "walker.adjacency_lookups": metric(c["adjacency_lookups"], "count"),
        "walker.lookups_per_walk": metric(c["adjacency_lookups"] / c["walks"], "count"),
        "walker.mean_walk_tokens": metric(c["walk_tokens"] / c["walks"], "count"),
        "walker.dead_end_share": metric(c["dead_ends"] / c["walks"], "share"),
        "walker.write_corpus_s": metric(t["walker.write_corpus"], "s"),
        "walker.corpus_bytes": metric(c["corpus_bytes"], "B"),
        "walker.read_corpus_s": metric(t["walker.read_corpus_tokens"], "s"),
        "trainer.vocab_s": metric(t["trainer.build_vocabulary"], "s"),
        "trainer.vocab_size": metric(c["vocab_size"], "count"),
        "trainer.tokens": metric(c["tokens"], "count"),
        "trainer.pairs": metric(c["updates"], "count"),
        "trainer.train_s": metric(train_s, "s"),
        "trainer.tokens_per_s": metric(c["tokens"] * c["epochs"] / train_s, "1/s"),
        "trainer.pairs_per_s": metric(c["updates"] * c["epochs"] / train_s, "1/s"),
        "trainer.final_loss": metric(c["final_loss"], "nat"),
        "trainer.peak_rss_mb": metric(traced["train_maxrss_mb"], "MB"),
        "trainer.save_model_s": metric(t["trainer.save_model"], "s"),
        "trainer.model_bytes": metric(c["model_bytes"], "B"),
        "trainer.load_model_s": metric(t["trainer.load_model"], "s"),
        "eval_harness.knn_cv_s": metric(t["eval_harness.knn_classification_cv"], "s"),
        "eval_harness.rows_dropped": metric(c["rows_dropped"], "count"),
        "vector_ops.nn_ms": metric(vector["counts"]["nn_ms"], "ms"),
        "vector_ops.cosine_us": metric(vector["counts"]["cosine_us"], "us"),
        "service.keepalive_rtt_ms": metric(served["counts"]["keepalive_rtt_ms"], "ms"),
        "service.fresh_conn_rtt_ms": metric(served["counts"]["fresh_conn_rtt_ms"], "ms"),
        "service.knn_rtt_ms": metric(served["counts"]["knn_rtt_ms"], "ms"),
        "service.startup_s": metric(served["counts"]["startup_s"], "s"),
        "service.server_cpu_s": metric(served["server_cpu_s"], "s"),
        "service.send_lag_p90_ms": metric(served["send_lag_p90_ms"], "ms"),
        "service.knn_p75_ms": metric(served["knn_p75_ms"], "ms"),
        "service.knn_p90_ms": metric(served["knn_p90_ms"], "ms"),
        "service.lookup_p75_ms": metric(served["lookup_p75_ms"], "ms"),
        "service.lookup_p90_ms": metric(served["lookup_p90_ms"], "ms"),
        "service.requests_sent": metric(served["attempted"], "count"),
        "service.requests_failed": metric(served["requests_failed"], "count"),
        "service.status_4xx": metric(served["status_4xx"], "count"),
        "trace.overhead_s": metric(traced["pipeline_s"] - untraced["pipeline_s"], "s"),
    }


def request_spans(requests: list, run_id: str) -> list[dict]:
    return [{"id": f"http.{r.index}", "parent": None, "name": "service." + r.path.split("?")[0].strip("/"),
             "run": run_id, "start": r.sent, "end": r.done, "due": r.due, "status": r.status}
            for r in requests]


def print_self_times(spans: list[dict]) -> None:
    print("per-layer self time (traced pass, one request span per HTTP request):")
    for name, seconds in sorted(self_times(spans).items(), key=lambda kv: -kv[1]):
        print(f"  {name:40s} {seconds:10.4f} s")


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, int, list]:
    run_id = uuid.uuid4().hex[:12]
    inputs = gen.generate(workload, seed, work)
    if trace:
        passes = [pipeline_pass(inputs, work, True, run_id), pipeline_pass(inputs, work, False, run_id)]
    else:
        passes = pipeline(inputs, work, seconds)
    served = serve_phase(inputs, work, seconds, trace)
    failures = [f for p in passes for f in p["failures"]] + served["failures"]
    attempted = 3 * len(passes) + served["attempted"]
    if trace:
        concepts = [p.split("concept=")[1].split("&")[0] for c, p, _ in json.loads(
            Path(inputs["schedule"]).read_text(encoding="utf-8")) if c == "knn"]
        vector = run_stage("vector", {"model": str(work / "model.txt"),
                                      "concepts": concepts[:50], "nn_calls": 20, "cosine_calls": 200,
                                      "trace": True, "run_id": run_id})
        attempted += 1
        spans = passes[0]["spans"] + vector["spans"] + request_spans(served["requests"], run_id)
        print_self_times(spans)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{workload}-{seed}.json").write_text(json.dumps(spans), encoding="utf-8")
        metrics = per_layer(passes[0], passes[1], served, vector)
    else:
        metrics = end_to_end(passes, served)
        print(f"pipeline: {len(passes)} passes; serve: {served['attempted']} HTTP requests")
    return metrics, attempted, failures


def main() -> int:
    parser = argparse.ArgumentParser(description="kgembed benchmark")
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "kgembed" / "__init__.py").is_file():
        print(f"error: no kgembed sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        metrics, attempted, failures = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except (StageError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
