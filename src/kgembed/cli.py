"""Command line pipeline: walk, train, eval, serve.

Stages communicate through files (corpus, model, CSV) so each can be re-run
independently. Every command records a flat ``key=value`` manifest next to
its output: the resolved configuration and input digests are written before
the stage produces anything, wall-clock timings are appended afterwards.
Re-running a command with the flags recorded in its manifest reproduces the
output byte for byte. Walks and training run on one thread, so ``--workers``
accepts only 1.

Exit codes: 0 success; 2 usage, including a flag out of range and a
learning rate at which training diverges; 3 environment/IO, including a
truncated or corrupt gzip stream and a table too large to allocate; 4 data,
including a text input that is not UTF-8.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import math
import resource
import signal
import sys
import time
import zlib
from pathlib import Path

from . import __version__
from .eval_harness import (
    EvalError,
    document_relatedness_eval,
    entity_relatedness_eval,
    knn_classification_cv,
    linear_regression_cv,
    load_document_relatedness_gold,
    load_entity_relatedness_gold,
    load_labeled_entities,
    load_regression_targets,
    results_csv,
    walk_density,
)
from .graph_io import ASCII_WHITESPACE, ParseError, ParseReport, content_lines, detect_format, load_graph
from .service import build_server
from .trainer import (
    NEGATIVE_GROUP,
    EmptyCorpusError,
    EmptyVocabularyError,
    ModelFormatError,
    TrainConfig,
    TrainingDivergedError,
    UnknownTokenError,
    load_model,
    save_model,
    train,
)
from .vector_ops import DegenerateVarianceError, NonPositiveCorrelationError, ZeroVectorError
from .walker import (
    Walk,
    WalkConfig,
    WalkCorpus,
    generate_classic_walks,
    generate_light_walks,
    read_corpus_tokens,
    write_corpus,
)

EXIT_OK, EXIT_USAGE, EXIT_ENV, EXIT_DATA = 0, 2, 3, 4

logger = logging.getLogger(__name__)


class UsageError(ValueError):
    pass


class DataError(ValueError):
    pass


_DATA_ERRORS = (
    DataError,
    ParseError,
    ModelFormatError,
    EmptyCorpusError,
    EmptyVocabularyError,
    EvalError,
    UnknownTokenError,
    ZeroVectorError,
    DegenerateVarianceError,
    NonPositiveCorrelationError,
    UnicodeDecodeError,
)

# truncated gzip: EOFError; corrupt gzip: zlib.error; a table too large to allocate: MemoryError
_ENV_ERRORS = (OSError, EOFError, zlib.error, MemoryError)


def _message(exc: BaseException) -> str:
    """The error message, then each note on it, such as the file being read."""
    return "".join([str(exc), *(f" ({note})" for note in getattr(exc, "__notes__", ()))])


class _StderrFormatter(logging.Formatter):
    """``warning: <message>`` at WARNING and above, like the CLI's own
    ``error:`` lines; progress keeps its logger's name."""

    def format(self, record: logging.LogRecord) -> str:
        prefix = "warning" if record.levelno >= logging.WARNING else record.name
        return f"{prefix}: {super().format(record)}"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # library progress (one line per training epoch) and warnings go to stderr
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_StderrFormatter())
    package_logger = logging.getLogger("kgembed")
    previous_level = package_logger.level
    package_logger.addHandler(handler)
    package_logger.setLevel(logging.INFO)
    try:
        return args.func(args)
    except (UsageError, TrainingDivergedError) as exc:
        # a diverging run is a --learning-rate out of range for the corpus
        print(f"error: {_message(exc)}", file=sys.stderr)
        return EXIT_USAGE
    except _DATA_ERRORS as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return EXIT_DATA
    except _ENV_ERRORS as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return EXIT_ENV
    finally:
        package_logger.removeHandler(handler)
        package_logger.setLevel(previous_level)


# --------------------------------------------------------------------------
# Manifests
# --------------------------------------------------------------------------


def manifest_path(output: str | Path) -> Path:
    return Path(f"{output}.manifest")


def write_manifest(path: str | Path, entries: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in entries.items():
            fh.write(f"{key}={value}\n")


def append_manifest(path: str | Path, entries: dict) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        for key, value in entries.items():
            fh.write(f"{key}={value}\n")


def _peak_memory() -> dict:
    """``memory.peak_mb``, this process's resident high-water mark ``VmHWM``, where
    ``/proc/self/status`` exists (not ``ru_maxrss``: a child inherits that at ``exec``),
    and ``memory.minor_faults``, the pages it has faulted in without I/O so far."""
    entries = {"memory.minor_faults": resource.getrusage(resource.RUSAGE_SELF).ru_minflt}
    try:
        with open("/proc/self/status", encoding="utf-8", errors="replace") as fh:
            kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return entries
    return {"memory.peak_mb": f"{int(kb) / 1024:.1f}"} | entries


def read_manifest(path: str | Path) -> dict[str, str]:
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or "=" not in line:
                continue
            key, _, value = line.partition("=")
            entries[key] = value
    return entries


def _digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# --------------------------------------------------------------------------
# Flag types
# --------------------------------------------------------------------------


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def one_worker(text: str) -> int:
    if int(text) != 1:
        raise argparse.ArgumentTypeError("walks and training run on one thread: only 1 is accepted")
    return 1


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be finite and > 0")
    return value


def fold_count(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("must be >= 2")
    return value


def port_number(text: str) -> int:
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError("must be 0-65535")
    return value


def nonnegative_float(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError("must be finite and >= 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kgembed", description="random-walk knowledge graph embeddings")
    parser.add_argument("--version", action="version", version=f"kgembed {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    walk = sub.add_parser("walk", help="generate a walk corpus from an RDF graph")
    walk.add_argument("--graph", action="append", required=True, help="RDF file (.nt/.ttl, optionally .gz); repeatable")
    walk.add_argument("--format", choices=["ntriples", "turtle-subset"], default=None,
                      help="override extension-based format detection")
    walk.add_argument("--entities", default=None,
                      help="file with one entity IRI per line, or 'all' (classic mode only)")
    walk.add_argument("--mode", choices=["light", "classic"], default="light")
    walk.add_argument("--walks", type=positive_int, default=500, help="walks per entity (default 500)")
    walk.add_argument("--depth", type=positive_int, default=4, help="node hops beyond the anchor (default 4)")
    walk.add_argument("--include-literals", action="store_true")
    walk.add_argument("--seed", type=int, default=42)
    walk.add_argument("--workers", type=one_worker, default=1, help="walks run on one thread: only 1 is accepted")
    walk.add_argument("--out", default="corpus.txt.gz")
    walk.set_defaults(func=cmd_walk)

    train_p = sub.add_parser("train", help="train embeddings from a walk corpus")
    train_p.add_argument("--corpus", required=True)
    train_p.add_argument("--mode", choices=["sg", "cbow"], default="sg")
    train_p.add_argument("--dim", type=positive_int, default=100)
    train_p.add_argument("--window", type=positive_int, default=5)
    train_p.add_argument("--negatives", type=nonnegative_int, default=25)
    train_p.add_argument("--epochs", type=positive_int, default=5)
    train_p.add_argument("--learning-rate", type=positive_float, default=None)
    train_p.add_argument("--min-count", type=positive_int, default=1)
    train_p.add_argument("--seed", type=nonnegative_int, default=42)
    train_p.add_argument("--workers", type=one_worker, default=1,
                         help="training runs on one thread: only 1 is accepted")
    train_p.add_argument("--out", default="model.txt")
    train_p.set_defaults(func=cmd_train)

    eval_p = sub.add_parser("eval", help="evaluate a model and emit CSV metrics")
    eval_p.add_argument("--model", required=True)
    eval_p.add_argument("--task", required=True, choices=["classify", "regress", "entity-rel", "doc-rel", "density"])
    eval_p.add_argument("--gold", default=None, help="gold file (all tasks except density)")
    eval_p.add_argument("--corpus", default=None, help="walk corpus (density task)")
    eval_p.add_argument("--entities", default=None, help="anchor entity file for the density task")
    eval_p.add_argument("--folds", type=fold_count, default=10)
    eval_p.add_argument("--knn-k", type=positive_int, default=3)
    eval_p.add_argument("--ridge", type=nonnegative_float, default=1e-2)
    eval_p.add_argument("--seed", type=int, default=0)
    eval_p.add_argument("--strategy", default=None, help="strategy tag for the CSV (default: from the model manifest)")
    eval_p.add_argument("--out", default=None, help="also write the CSV here")
    eval_p.set_defaults(func=cmd_eval)

    serve = sub.add_parser("serve", help="serve a model over HTTP")
    serve.add_argument("--model", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=port_number, default=8080)
    serve.set_defaults(func=cmd_serve)
    return parser


# --------------------------------------------------------------------------
# walk
# --------------------------------------------------------------------------


def _read_entity_file(path: str | Path) -> list[str]:
    return [line.strip(ASCII_WHITESPACE) for _, line in content_lines(path)]


def cmd_walk(args) -> int:
    started = time.perf_counter()
    sources = []
    for graph_path in args.graph:
        if args.format:
            fmt = args.format
        else:
            try:
                fmt = detect_format(graph_path)
            except ValueError as exc:
                raise UsageError(str(exc)) from None
        sources.append((graph_path, fmt))

    if args.mode == "light" and args.entities in (None, "all"):
        raise UsageError(
            "light walks need an explicit entity set: pass --entities <file>, "
            "or use --mode classic to walk every subject node"
        )

    entity_list: list[str] | None = None
    manifest = {
        "command": "walk",
        "version": __version__,
        "mode": args.mode,
        "walks": args.walks,
        "depth": args.depth,
        "include_literals": args.include_literals,
        "seed": args.seed,
        "out": args.out,
    }
    for i, (path, fmt) in enumerate(sources):
        manifest[f"graph.{i}.path"] = path
        manifest[f"graph.{i}.format"] = fmt
        manifest[f"graph.{i}.sha256"] = _digest(path)
    if args.entities and args.entities != "all":
        entity_list = _read_entity_file(args.entities)
        if not entity_list:
            raise DataError(f"entity file {args.entities} lists no entities")
        manifest["entities.path"] = args.entities
        manifest["entities.sha256"] = _digest(args.entities)
    else:
        manifest["entities.path"] = "all"
    write_manifest(manifest_path(args.out), manifest)

    load_started = time.perf_counter()
    report = ParseReport()
    graph = load_graph(sources, report=report)
    load_seconds = time.perf_counter() - load_started

    cfg = WalkConfig(
        walks_per_entity=args.walks,
        depth=args.depth,
        strategy=args.mode,
        include_literals=args.include_literals,
        seed=args.seed,
    )
    walk_started = time.perf_counter()
    if args.mode == "light":
        corpus = generate_light_walks(graph, entity_list, cfg)
    else:
        corpus = generate_classic_walks(graph, entity_list, cfg)
    if not corpus.entities:
        raise DataError("no entities of interest found in the graph")
    count = write_corpus(corpus, args.out)
    walk_seconds = time.perf_counter() - walk_started
    lengths = [len(w.tokens) for w in corpus.walks]

    append_manifest(
        manifest_path(args.out),
        {
            "walks_written": count,
            "entities_walked": len(corpus.entities),
            "missing_entities": len(corpus.missing_entities),
            "walk_tokens": sum(lengths),
            "dead_ends": sum(n < 2 * cfg.depth + 1 for n in lengths),
            "adjacency_lookups": corpus.adjacency_lookups,
            "parse.triples": report.triples_emitted,
            "parse.lines_skipped": report.lines_skipped,
            "parse.errors": len(report.errors),
            "parse.general_lines": report.general_lines,
            "graph.tokens": graph.num_tokens,
            "graph.nodes": graph.num_nodes,
            "graph.edges": graph.num_edges,
            "timing.load_seconds": f"{load_seconds:.3f}",
            "timing.walk_seconds": f"{walk_seconds:.3f}",
            **_peak_memory(),
        },
    )
    print(f"wrote {count} walks for {len(corpus.entities)} entities to {args.out} "
          f"in {time.perf_counter() - started:.2f}s")
    return EXIT_OK


# --------------------------------------------------------------------------
# train
# --------------------------------------------------------------------------


def _strategy_tag(corpus_path: str, cfg: TrainConfig) -> str:
    mode, walks, depth = "unknown", "?", "?"
    source = manifest_path(corpus_path)
    if source.exists():
        recorded = read_manifest(source)
        mode = recorded.get("mode", mode)
        walks = recorded.get("walks", walks)
        depth = recorded.get("depth", depth)
    return f"{mode.capitalize()}_{walks}_{depth}_{cfg.mode.upper()}_{cfg.dimension}"


def cmd_train(args) -> int:
    cfg = TrainConfig(
        mode=args.mode,
        dimension=args.dim,
        window=args.window,
        negatives=args.negatives,
        epochs=args.epochs,
        initial_learning_rate=args.learning_rate,
        min_count=args.min_count,
        seed=args.seed,
    )
    strategy = _strategy_tag(args.corpus, cfg)
    manifest = {
        "command": "train",
        "version": __version__,
        "corpus.path": args.corpus,
        "corpus.sha256": _digest(args.corpus),
        "strategy": strategy,
        "mode": cfg.mode,
        "dimension": cfg.dimension,
        "window": cfg.window,
        "negatives": cfg.negatives,
        "negative_group": NEGATIVE_GROUP,
        "epochs": cfg.epochs,
        "learning_rate": cfg.learning_rate,
        "min_count": cfg.min_count,
        "seed": cfg.seed,
        "out": args.out,
    }
    write_manifest(manifest_path(args.out), manifest)

    started = time.perf_counter()
    sentences = read_corpus_tokens(args.corpus)
    read_done = time.perf_counter()
    model = train(sentences, cfg)
    train_done = time.perf_counter()
    save_model(model, args.out)
    save_done = time.perf_counter()
    entries = {
        "vocabulary_size": len(model.vocabulary),
        "final_loss": f"{model.epoch_losses[-1]:.6f}" if model.epoch_losses else "",
    }
    for n, stats in enumerate(model.epoch_stats, start=1):
        entries[f"epoch.{n}.loss"] = f"{stats.loss:.6f}"
        entries[f"epoch.{n}.seconds"] = f"{stats.seconds:.3f}"
        entries[f"epoch.{n}.pairs_per_second"] = f"{stats.pairs_per_s:.0f}"
        entries[f"epoch.{n}.row_updates"] = stats.row_updates
        entries[f"epoch.{n}.rows_clipped"] = stats.rows_clipped
    entries["timing.read_seconds"] = f"{read_done - started:.3f}"
    entries["timing.train_seconds"] = f"{train_done - read_done:.3f}"
    entries["timing.save_seconds"] = f"{save_done - train_done:.3f}"
    entries |= _peak_memory()
    append_manifest(manifest_path(args.out), entries)
    print(f"trained {len(model.vocabulary)} vectors of dimension {cfg.dimension} -> {args.out}")
    return EXIT_OK


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------


def _check_coverage(model, entities: list[str]) -> dict:
    """Refuse gold entities mostly missing from the model; return their manifest counts."""
    if not entities:
        raise DataError("gold file lists no entities")
    missing = sum(1 for e in entities if e not in model.vocabulary)
    if 2 * missing > len(entities):
        raise DataError(f"{missing} of {len(entities)} gold entities are out of vocabulary")
    return {"gold.entities": len(entities), "gold.out_of_vocabulary": missing}


def _density_corpus(args) -> WalkCorpus:
    sentences = read_corpus_tokens(args.corpus)
    if not sentences:
        raise DataError(f"corpus {args.corpus} is empty")
    entities: list[str] = []
    if args.entities:
        entities = _read_entity_file(args.entities)
    else:
        source = manifest_path(args.corpus)
        if source.exists():
            recorded = read_manifest(source).get("entities.path", "")
            if recorded == "all":
                # a classic walk starts at its anchor, and "all" anchored walks at every subject
                entities = list(dict.fromkeys(tokens[0] for tokens in sentences))
            elif recorded:
                entities = _read_entity_file(recorded)
    walks = [Walk(tokens, 0) for tokens in sentences]
    return WalkCorpus(walks, entities, None)  # type: ignore[arg-type]


def cmd_eval(args) -> int:
    model = load_model(args.model)
    strategy = args.strategy
    if strategy is None:
        source = manifest_path(args.model)
        strategy = read_manifest(source).get("strategy", "unknown") if source.exists() else "unknown"

    started = time.perf_counter()
    if args.task == "density":
        if not args.corpus:
            raise UsageError("--task density reads walks: pass --corpus <file> instead of --gold")
        corpus = _density_corpus(args)
        report = walk_density(corpus)
        metrics = [
            ("nodes", report.nodes),
            ("edges", report.edges),
            ("density", report.density),
            ("mean_anchor_degree", report.mean_anchor_degree),
        ]
        inputs = {"corpus.path": args.corpus, "corpus.sha256": _digest(args.corpus)}
    else:
        if not args.gold:
            raise UsageError(f"--task {args.task} requires --gold <file>")
        inputs = {"gold.path": args.gold, "gold.sha256": _digest(args.gold)}
        if args.task == "classify":
            data = load_labeled_entities(args.gold)
            inputs |= _check_coverage(model, [e for e, _ in data])
            accuracy = knn_classification_cv(model, data, k=args.knn_k, folds=args.folds, seed=args.seed)
            metrics = [("accuracy", accuracy)]
        elif args.task == "regress":
            data = load_regression_targets(args.gold)
            inputs |= _check_coverage(model, [e for e, _ in data])
            rmse = linear_regression_cv(model, data, folds=args.folds, ridge=args.ridge, seed=args.seed)
            metrics = [("rmse", rmse)]
        elif args.task == "entity-rel":
            gold = load_entity_relatedness_gold(args.gold)
            mentioned = [s for s, _ in gold] + [c for _, cands in gold for c in cands]
            inputs |= _check_coverage(model, mentioned)
            per_seed, mean = entity_relatedness_eval(model, gold)
            metrics = [(f"spearman:{seed}", rho) for seed, rho in per_seed]
            metrics.append(("spearman_mean", mean))
        else:  # doc-rel
            documents, pairs = load_document_relatedness_gold(args.gold)
            mentioned = sorted({e for ents in documents.values() for e in ents})
            inputs |= _check_coverage(model, mentioned)
            score = document_relatedness_eval(model, documents, pairs)
            metrics = [("harmonic_mean", score)]

    csv_text = results_csv(strategy, args.task, metrics)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv_text)
        target = manifest_path(args.out)
    else:
        target = Path(f"{args.model}.eval.manifest")
    manifest = {
        "command": "eval",
        "version": __version__,
        "task": args.task,
        "strategy": strategy,
        "model.path": args.model,
        "model.sha256": _digest(args.model),
        "folds": args.folds,
        "knn_k": args.knn_k,
        "ridge": args.ridge,
        "seed": args.seed,
        **inputs,
        "timing.eval_seconds": f"{time.perf_counter() - started:.3f}",
        **_peak_memory(),
    }
    write_manifest(target, manifest)
    print(csv_text, end="")
    return EXIT_OK


# --------------------------------------------------------------------------
# serve
# --------------------------------------------------------------------------


def cmd_serve(args) -> int:
    model = load_model(args.model)
    server = build_server(model, args.host, args.port, model_id=Path(args.model).name)
    port = server.server_address[1]
    zero_rows = int(server.index.zero.sum())
    if zero_rows:
        logger.warning(
            "%d of %d vectors are zero: left out of neighbour lists, queries on them answer 422",
            zero_rows,
            len(model.vocabulary),
        )
    write_manifest(
        Path(f"{args.model}.serve.manifest"),
        {
            "command": "serve",
            "version": __version__,
            "model.path": args.model,
            "model.sha256": _digest(args.model),
            "host": args.host,
            "port": port,
            "vocabulary_size": len(model.vocabulary),
            "dimension": model.dimension,
            "index.rows": len(model.vocabulary),
            "index.zero_rows": zero_rows,
            "timing.index_seconds": f"{server.index_seconds:.3f}",
        },
    )
    print(
        f"serving {args.model}: {len(model.vocabulary)} vectors, dimension {model.dimension}, "
        f"on http://{args.host}:{port}",
        flush=True,
    )

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _terminate) if hasattr(signal, "SIGTERM") else None
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
    print("shutdown complete", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
