"""One pipeline stage in its own process.

``run.py`` starts this script once per stage with ``PYTHONPATH`` pointing at
the checkout's ``src``, so each stage pays its imports outside the timed
region and reports its own peak RSS. The stages make the same public calls as
``kgembed walk``, ``kgembed train`` and ``kgembed eval`` (``workers=1``), with
files between them. The last stdout line is one JSON object: timings,
counters, failed output checks and, when traced, the spans.

    python3 bench/stages.py <walk|train|eval|vector> '<json arguments>'
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402

from kgembed.eval_harness import knn_classification_cv, load_labeled_entities  # noqa: E402
from kgembed.graph import KnowledgeGraph  # noqa: E402
from kgembed.graph_io import (  # noqa: E402
    ParseReport,
    detect_format,
    load_graph,
    open_bytes_read,
    parse_ntriples,
)
from kgembed.trainer import TrainConfig, build_vocabulary, load_model, save_model, train  # noqa: E402
from kgembed.vector_ops import cosine, nearest_neighbors  # noqa: E402
from kgembed.walker import WalkConfig, generate_light_walks, read_corpus_tokens, write_corpus  # noqa: E402

WALK_SAMPLE = 200  # walks whose every hop is checked against the graph
MAX_REPS = 200


def _timed(fn):
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


def _repeat(fn, args: dict):
    """Call ``fn`` at least ``args['reps']`` times and until ``args['budget']``
    seconds have passed; returns the last result and every duration, so the
    stage reports a median that one slow stretch of the machine cannot move."""
    value, times = None, []
    started = time.perf_counter()
    while len(times) < args["reps"] or (time.perf_counter() - started < args["budget"] and len(times) < MAX_REPS):
        value = None  # drop the previous result before building the next
        value, seconds = _timed(fn)
        times.append(seconds)
    return value, times


def _traced_load(tracer: Tracer, path: str) -> tuple[KnowledgeGraph, ParseReport]:
    """``load_graph`` split into its public parts, so parse and build time
    separately: parse every triple, then ``add_all`` and ``freeze``."""
    report = ParseReport()
    with tracer.span("graph_io.parse_ntriples"):
        with open_bytes_read(path) as fh:
            triples = list(parse_ntriples(fh, report=report, bnode_scope="f0"))
    graph = KnowledgeGraph()
    with tracer.span("graph.add_all"):
        graph.add_all(triples)
    with tracer.span("graph.freeze"):
        graph.freeze()
    return graph, report


def _check_walks(graph: KnowledgeGraph, corpus, args: dict) -> list[str]:
    failures = []
    expected = args["entity_count"] * args["walks"]
    if len(corpus.walks) != expected:
        failures.append(f"walk count {len(corpus.walks)} != entities x walks = {expected}")
    if corpus.missing_entities:
        failures.append(f"{len(corpus.missing_entities)} entities missing from the graph")
    rng = random.Random(args["seed"])
    sample = rng.sample(corpus.walks, min(WALK_SAMPLE, len(corpus.walks)))
    for walk in sample:
        tokens = walk.tokens
        if len(tokens) % 2 != 1 or len(tokens) > 2 * args["depth"] + 1:
            failures.append(f"walk of {len(tokens)} tokens")
            continue
        for k in range(0, len(tokens) - 1, 2):
            s, p, o = tokens[k], tokens[k + 1], tokens[k + 2]
            if graph.is_literal_id(o):
                failures.append("walk reaches a literal with literals excluded")
            elif (p, o) not in graph.out_edges(s) or (s, p) not in graph.in_edges(o):
                failures.append(f"walk hop {graph.resolve(s)} {graph.resolve(p)} {graph.resolve(o)} is no edge")
    return failures


def stage_walk(args: dict, tracer: Tracer) -> dict:
    graph_path = args["graph"]
    entities = Path(args["entities"]).read_text(encoding="utf-8").split()
    out: dict = {"counts": {}}
    with tracer.span("stage.load"):
        started = time.perf_counter()
        if tracer.enabled:
            graph, report = _traced_load(tracer, graph_path)
        else:
            graph = load_graph([(graph_path, detect_format(graph_path))])
        out["load_s"] = time.perf_counter() - started
    cfg = WalkConfig(walks_per_entity=args["walks"], depth=args["depth"], seed=args["seed"])

    def walk_and_write():
        with tracer.span("stage.corpus"):
            with tracer.span("walker.generate_light_walks"):
                corpus = generate_light_walks(graph, entities, cfg, workers=1)
            with tracer.span("walker.write_corpus"):
                write_corpus(corpus, args["corpus"])
        return corpus

    corpus, out["corpus_s"] = _repeat(walk_and_write, args)
    out["failures"] = _check_walks(graph, corpus, args)
    if tracer.enabled:
        full = 2 * args["depth"] + 1
        out["counts"] = {
            "triples": report.triples_emitted,
            "errors": len(report.errors),
            "lines_skipped": report.lines_skipped,
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "graph_tokens": graph.num_tokens,
            "max_in_degree": max(graph.degree(v)[0] for v in range(graph.num_tokens)),
            "walks": len(corpus.walks),
            "adjacency_lookups": corpus.adjacency_lookups,
            "walk_tokens": sum(len(w.tokens) for w in corpus.walks),
            "dead_ends": sum(1 for w in corpus.walks if len(w.tokens) < full),
            "corpus_bytes": os.path.getsize(args["corpus"]),
        }
    return out


def _update_count(sentences, mode: str, window: int) -> int:
    """(center, context) pairs for SG, or context groups for CBOW, per epoch."""
    total = 0
    for s in sentences:
        n = len(s)
        if mode == "sg":
            total += sum(2 * (n - off) for off in range(1, min(window, n - 1) + 1))
        elif n >= 2:
            total += n
    return total


def stage_train(args: dict, tracer: Tracer) -> dict:
    cfg = TrainConfig(mode=args["mode"], dimension=args["dimension"], epochs=args["epochs"], seed=args["seed"])

    def read_train_save():
        with tracer.span("stage.train"):
            with tracer.span("walker.read_corpus_tokens"):
                sentences = read_corpus_tokens(args["corpus"])
            with tracer.span("trainer.train"):
                model = train(sentences, cfg, workers=1)
            with tracer.span("trainer.save_model"):
                rows = save_model(model, args["model"])
        return sentences, model, rows

    (sentences, model, rows), times = _repeat(read_train_save, args)
    out: dict = {"train_s": times, "rows": rows, "failures": [], "counts": {}}
    distinct = len({t for s in sentences for t in s})
    if rows != len(model.vocabulary) or rows != distinct:
        out["failures"].append(f"model rows {rows}, vocabulary {len(model.vocabulary)}, corpus tokens {distinct}")
    if tracer.enabled:
        # train() builds its vocabulary internally; time that step on its own
        with tracer.span("trainer.build_vocabulary"):
            vocab = build_vocabulary(sentences, cfg.min_count)
        out["counts"] = {
            "vocab_size": len(vocab),
            "tokens": sum(len(s) for s in sentences),
            "updates": _update_count(sentences, cfg.mode, cfg.window),
            "epochs": cfg.epochs,
            "final_loss": model.epoch_losses[-1],
            "model_bytes": os.path.getsize(args["model"]),
        }
    return out


def stage_eval(args: dict, tracer: Tracer) -> dict:
    data = load_labeled_entities(args["gold"])

    def load_and_classify():
        with tracer.span("stage.eval"):
            with tracer.span("trainer.load_model"):
                model = load_model(args["model"])
            with tracer.span("eval_harness.knn_classification_cv"):
                accuracy = knn_classification_cv(model, data, k=3, folds=10, seed=0)
        return model, accuracy

    (model, accuracy), times = _repeat(load_and_classify, args)
    out: dict = {"eval_s": times, "accuracy": accuracy, "failures": []}
    if model.vectors.shape[0] != args["rows"]:
        out["failures"].append(f"loaded {model.vectors.shape[0]} rows, trained {args['rows']}")
    if not accuracy >= args["accuracy_floor"]:
        out["failures"].append(f"accuracy {accuracy:.4f} below the floor {args['accuracy_floor']}")
    out["counts"] = {"rows_dropped": sum(1 for e, _ in data if e not in model.vocabulary)}
    return out


def stage_vector(args: dict, tracer: Tracer) -> dict:
    """Direct calls into ``vector_ops`` on the served model, no HTTP."""
    model = load_model(args["model"])
    concepts = args["concepts"]
    nn_times, cos_times = [], []
    for concept in concepts[: args["nn_calls"]]:
        with tracer.span("vector_ops.nearest_neighbors"):
            _, seconds = _timed(lambda: nearest_neighbors(model, concept, 10))
        nn_times.append(seconds)
    for i in range(args["cosine_calls"]):
        u = model.vector(concepts[i % len(concepts)])
        v = model.vector(concepts[(i + 1) % len(concepts)])
        with tracer.span("vector_ops.cosine"):
            _, seconds = _timed(lambda: cosine(u, v))
        cos_times.append(seconds)
    return {"failures": [], "counts": {"nn_ms": 1e3 * statistics.median(nn_times),
                                       "cosine_us": 1e6 * statistics.median(cos_times)}}


STAGES = {"walk": stage_walk, "train": stage_train, "eval": stage_eval, "vector": stage_vector}


def main() -> None:
    stage, args = sys.argv[1], json.loads(sys.argv[2])
    tracer = Tracer(args.get("trace", False), args.get("run_id", ""), prefix=f"{stage}.")
    out = STAGES[stage](args, tracer)
    out["spans"] = tracer.spans
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
