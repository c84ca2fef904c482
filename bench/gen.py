"""Seeded input generator for the benchmark.

Every input the program under test receives is written here from the
workload seed: the RDF graph, the entity and gold files and the request
schedule for the served model. The same seed gives byte-identical files.

Run on its own to inspect the inputs::

    python3 bench/gen.py --workload light_hub_sg --seed 1 --out /tmp/inputs
"""

from __future__ import annotations

import argparse
import gzip
import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

NS = "http://kg.example/"
SCHEDULE = 4000  # requests in the schedule file, replayed cyclically
BLOCK = 20  # schedule entries per shuffled block of exact class shares
KNN_SHARE = 0.4  # /closest-concepts?top=10
ERROR_SHARE = 0.1  # requests whose right answer is a documented 4xx
XSD = "http://www.w3.org/2001/XMLSchema#"


@dataclass(frozen=True)
class GraphSpec:
    """Shape of one synthetic graph and of the light-walk run over it."""

    nodes: int
    edges: int  # IRI-object edges, before the planted class edges
    literal_share: float  # share of all lines whose object is a literal
    predicates: int
    classes: int
    entities: int  # labelled entities of interest
    pool: int  # class-specific nodes per class
    class_edges: int  # at most this many planted edges from each entity into its class pool
    noise_lines: int  # comment, blank and malformed lines mixed in
    gzip: bool
    walks: int  # walks per entity
    depth: int
    train_mode: str
    epochs: int
    dimension: int


WORKLOADS = {
    # Hub-heavy graph; SG training dominates the pipeline.
    "light_hub_sg": GraphSpec(
        nodes=20_000, edges=100_000, literal_share=0.0, predicates=40, classes=4,
        entities=50, pool=10, class_edges=4, noise_lines=40, gzip=False,
        walks=4, depth=4, train_mode="sg", epochs=5, dimension=100),
    # Large literal-heavy dump, few entities, many walks each, CBOW.
    "light_large_kg_cbow": GraphSpec(
        nodes=26_000, edges=104_000, literal_share=0.2, predicates=60, classes=4,
        entities=60, pool=10, class_edges=2, noise_lines=60, gzip=True,
        walks=12, depth=4, train_mode="cbow", epochs=5, dimension=100),
}


def node_iri(i: int) -> str:
    return f"{NS}n{i}"


def predicate_iri(j: int) -> str:
    return f"{NS}p{j}"


def class_predicate_iri(c: int) -> str:
    return f"{NS}member{c}"


def _literal(rng: random.Random) -> str:
    kind = rng.randrange(3)
    if kind == 0:
        return f'"{rng.randrange(10**6)}"^^<{XSD}integer>'
    if kind == 1:
        return f'"label {rng.randrange(10**5)}"@en'
    return f'"{rng.random():.6f}"^^<{XSD}double>'


def write_graph(spec: GraphSpec, seed: int, out: Path) -> dict:
    """Write the graph, the entity file and the gold file; returns their
    paths and the entity count the benchmark checks the walks against."""
    rng = random.Random(f"graph:{seed}")
    n = spec.nodes
    # entities are drawn from the upper half of the id range, where the
    # u**3 object draw rarely lands, so they are ordinary (non-hub) nodes
    entity_ids = rng.sample(range(n // 2, n), spec.entities)
    labels = [i % spec.classes for i in range(spec.entities)]
    pool_base = n  # class pools get ids after the regular nodes
    lines: list[str] = []
    for e, c in zip(entity_ids, labels):
        # entities vary in how much class signal they carry, so a few are
        # misclassified and accuracy shows a loss of embedding quality
        for _ in range(1 + rng.randrange(spec.class_edges)):
            member = pool_base + c * spec.pool + rng.randrange(spec.pool)
            lines.append(f"<{node_iri(e)}> <{class_predicate_iri(c)}> <{node_iri(member)}> .")
            # the reverse edge lets walks pass from the pool to other members
            lines.append(f"<{node_iri(member)}> <{class_predicate_iri(c)}> <{node_iri(e)}> .")
    for _ in range(spec.edges):
        s = rng.randrange(n)
        o = int(n * rng.random() ** 3)  # hub-heavy: low ids collect most in-edges
        p = int(spec.predicates * rng.random() ** 2)
        lines.append(f"<{node_iri(s)}> <{predicate_iri(p)}> <{node_iri(o)}> .")
    literals = int(round(spec.literal_share * len(lines) / (1.0 - spec.literal_share)))
    for _ in range(literals):
        s = rng.randrange(n)
        p = spec.predicates + rng.randrange(8)
        lines.append(f"<{node_iri(s)}> <{predicate_iri(p)}> {_literal(rng)} .")
    rng.shuffle(lines)
    for k in range(spec.noise_lines):
        at = rng.randrange(len(lines))
        if k % 3 == 0:
            lines.insert(at, "# generated comment")
        elif k % 3 == 1:
            lines.insert(at, "")
        else:  # a truncated statement, as found in real dumps
            lines.insert(at, f"<{node_iri(rng.randrange(n))}> <{predicate_iri(0)}>")
    text = "\n".join(lines) + "\n"
    graph_path = out / ("graph.nt.gz" if spec.gzip else "graph.nt")
    if spec.gzip:
        with gzip.GzipFile(graph_path, "wb", compresslevel=6, mtime=0) as fh:
            fh.write(text.encode("utf-8"))
    else:
        graph_path.write_text(text, encoding="utf-8")
    entities_path = out / "entities.txt"
    entities_path.write_text("".join(node_iri(e) + "\n" for e in entity_ids), encoding="utf-8")
    gold_path = out / "gold.tsv"
    gold_path.write_text(
        "".join(f"{node_iri(e)}\tclass{c}\n" for e, c in zip(entity_ids, labels)), encoding="utf-8"
    )
    return {
        "graph": str(graph_path),
        "entities": str(entities_path),
        "gold": str(gold_path),
        "entity_count": spec.entities,
    }


def write_schedule(concepts: list[str], seed: int, path: Path) -> None:
    """The request sequence the load generator replays, each entry
    ``[class, path, expected status]``. Classes: ``knn`` (closest concepts),
    ``lookup`` (similarity and get-vector), ``error`` (a documented 4xx).
    Every block of ``BLOCK`` entries holds each class in its exact share, in
    shuffled order, so the mix does not drift from seed to seed."""
    rng = random.Random(f"schedule:{seed}")
    knn = round(BLOCK * KNN_SHARE)
    errors = round(BLOCK * ERROR_SHARE)
    lookups = BLOCK - knn - errors
    deck = ["knn"] * knn + ["error"] * errors + ["similarity", "get-vector"] * (lookups // 2)
    deck += ["similarity"] * (lookups % 2)
    entries = []
    while len(entries) < SCHEDULE:
        rng.shuffle(deck)
        for kind in deck:
            k = len(entries)
            a = concepts[rng.randrange(len(concepts))]
            if kind == "knn":
                entries.append(["knn", f"/closest-concepts?concept={a}&top=10", 200])
            elif kind == "similarity":
                b = concepts[rng.randrange(len(concepts))]
                entries.append(["lookup", f"/similarity?left={a}&right={b}", 200])
            elif kind == "get-vector":
                entries.append(["lookup", f"/get-vector?concept={a}", 200])
            else:
                missing = f"{NS}missing{k}"
                entries.append([
                    ["error", f"/closest-concepts?concept={missing}&top=10", 404],
                    ["error", f"/similarity?left={a}&right={missing}", 404],
                    ["error", f"/closest-concepts?concept={a}&top=0", 400],
                    ["error", "/get-vector", 400],
                ][k % 4])
    path.write_text(json.dumps(entries), encoding="utf-8")


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write every input of one workload under ``out``; returns a manifest
    of paths and expected counts. The served model is the one the pipeline
    trains, so the schedule asks about the entities, which every walk
    corpus contains."""
    spec = WORKLOADS[workload]
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": workload, "seed": seed, "graph_spec": asdict(spec)}
    manifest.update(write_graph(spec, seed, out))
    concepts = Path(manifest["entities"]).read_text(encoding="utf-8").split()
    schedule_path = out / "schedule.json"
    write_schedule(concepts, seed, schedule_path)
    manifest["schedule"] = str(schedule_path)
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    print(json.dumps(generate(args.workload, args.seed, Path(args.out)), indent=2))


if __name__ == "__main__":
    main()
