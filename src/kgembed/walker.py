"""Walk corpus generation.

One step function grows every walk over a frozen
:class:`~kgembed.graph.KnowledgeGraph`. A walk holds two rows of edges: the
ingoing edges of its head and the outgoing edges of its tail. Every step
draws uniformly from the union of the two; a backward pick prepends
``(source, predicate)`` and refreshes only the ingoing row, a forward pick
appends ``(predicate, target)`` and refreshes only the outgoing row. The two
strategies differ only in the ingoing row a walk starts with:

* ``light`` grows each walk bidirectionally around an entity of interest. It
  starts with the entity's ingoing edges, so the anchor can end up at the
  start, middle, or end of the walk.
* ``classic`` starts with an empty ingoing row. With nothing to pick
  backward, the row is never refreshed: the walk follows a uniformly random
  outgoing edge at every step, and the entity is always the first token.

Walks are token-id sequences alternating node, predicate, node, ... with at
most ``depth`` node hops beyond the anchor (``2 * depth + 1`` tokens). A dead
end (no candidate edge) ends the walk early; it is emitted as-is, possibly as
the bare anchor. Each (entity, walk-index) pair derives its own RNG stream
from the master seed, so output does not depend on entity order.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .graph import KnowledgeGraph, UnknownNodeError
from .graph_io import escape_token, open_text_read, open_text_write, reading, unescape_token

logger = logging.getLogger(__name__)

STRATEGIES = ("classic", "light")


@dataclass(frozen=True)
class WalkConfig:
    """Walk generation parameters.

    ``depth`` counts node hops added beyond the anchor.
    """

    walks_per_entity: int = 500
    depth: int = 4
    strategy: str = "light"
    include_literals: bool = False
    seed: int = 42

    def __post_init__(self):
        if self.walks_per_entity < 1:
            raise ValueError("walks_per_entity must be >= 1")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")


@dataclass
class Walk:
    tokens: list[int]
    anchor: int


@dataclass
class WalkCorpus:
    """Generated walks plus the entity set they were grown around.

    ``adjacency_lookups`` counts the edge rows fetched while generating, one
    per row, which is the walker's unit of graph work: the anchor's two rows
    (only its outgoing row in a classic walk), then the ingoing row of each
    new head and the outgoing row of each new tail that is not a literal.
    """

    walks: list[Walk]
    entities: list[int]
    config: WalkConfig | None
    graph: KnowledgeGraph | None = None
    missing_entities: list[str] = field(default_factory=list)
    adjacency_lookups: int = 0

    def sentences(self) -> list[list[str]]:
        """Walks resolved to token strings, ready for training."""
        if self.graph is None:
            raise ValueError("corpus has no backing graph to resolve tokens")
        resolve = self.graph.resolve
        return [[resolve(t) for t in w.tokens] for w in self.walks]


def _walk_rng(seed: int, entity: int, index: int) -> random.Random:
    # string seeding hashes with sha512, stable across platforms and runs
    return random.Random(f"{seed}:{entity}:{index}")


def _resolve_entities(g: KnowledgeGraph, entities: Iterable[str | int], missing: list[str]) -> list[int]:
    """Map tokens/ids to node ids, recording unknown or non-node entries.

    The result is deduplicated and sorted ascending so corpus order is
    deterministic regardless of the input collection's iteration order.
    """
    ids: list[int] = []
    seen: set[int] = set()
    for entity in entities:
        if isinstance(entity, str):
            try:
                i = g.lookup(entity)
            except UnknownNodeError:
                missing.append(entity)
                continue
        elif isinstance(entity, int) and 0 <= entity < g.num_tokens:
            i = entity
        else:
            missing.append(repr(entity))
            continue
        if not g.is_node(i):
            missing.append(g.resolve(i))
            continue
        if i not in seen:
            seen.add(i)
            ids.append(i)
    for m in missing:
        logger.warning("missing-entity: %s", m)
    ids.sort()
    return ids


def _walk(g: KnowledgeGraph, entity: int, rng: random.Random, cfg: WalkConfig, state: list[int]) -> Walk:
    # the walk holds two CSR rows: the in-edges of its head at ia:ib and the
    # out-edges of its tail at oa:ob; fetching a row counts one lookup. A
    # classic walk's in-row is empty and, with no backward pick, stays empty
    adjacency = g.adjacency()
    in_offsets, in_s, in_p = adjacency.in_
    out_offsets, out_p, out_o = adjacency.out if cfg.include_literals else adjacency.out_nodes
    literal = adjacency.literal
    tokens = [entity]
    anchor = 0
    oa, ob = out_offsets[entity], out_offsets[entity + 1]
    if cfg.strategy == "light":
        ia, ib = in_offsets[entity], in_offsets[entity + 1]
        state[0] += 2
    else:
        ia = ib = 0
        state[0] += 1
    for _ in range(cfg.depth):
        # union of edge sets: an out-edge of the tail into the head is also
        # an in-edge of the head, so it is drawn once, as backward. Either
        # row can count those edges; the shorter one does.
        head = tokens[0]
        n_back, n_fwd = ib - ia, ob - oa
        if n_back < n_fwd:
            shared = in_s[ia:ib].count(tokens[-1]) if n_back else 0
        else:
            shared = out_o[oa:ob].count(head) if n_fwd else 0
        n = n_back + n_fwd - shared
        if n == 0:
            break
        i = rng.randrange(n)
        if i < n_back:
            s = in_s[ia + i]
            tokens[:0] = [s, in_p[ia + i]]
            anchor += 2
            ia, ib = in_offsets[s], in_offsets[s + 1]
            state[0] += 1
        else:
            j = _skip_object(out_o, oa, i - n_back, head) if shared else oa + i - n_back
            o = out_o[j]
            tokens.extend([out_p[j], o])
            # a literal tail has no outgoing edges; skip the lookup
            if literal[o]:
                oa = ob = 0
            else:
                oa, ob = out_offsets[o], out_offsets[o + 1]
                state[0] += 1
    return Walk(tokens, anchor)


def _skip_object(objects, start: int, rank: int, head: int) -> int:
    """Position of the ``rank``-th entry from ``start``, counting from 0, whose
    object is not ``head``."""
    k = start
    while rank or objects[k] == head:
        if objects[k] != head:
            rank -= 1
        k += 1
    return k


def _generate(g: KnowledgeGraph, entities: Iterable[str | int] | None, cfg: WalkConfig) -> WalkCorpus:
    """``cfg.walks_per_entity`` walks around each of ``entities``, or around
    every subject node when ``entities`` is None."""
    missing: list[str] = []
    ids = g.subject_ids() if entities is None else _resolve_entities(g, entities, missing)
    state = [0]
    walks = [
        _walk(g, entity, _walk_rng(cfg.seed, entity, k), cfg, state)
        for entity in ids
        for k in range(cfg.walks_per_entity)
    ]
    return WalkCorpus(walks, ids, cfg, graph=g, missing_entities=missing, adjacency_lookups=state[0])


def generate_light_walks(
    g: KnowledgeGraph,
    entities: Iterable[str | int],
    cfg: WalkConfig | None = None,
    *,
    workers: int = 1,
) -> WalkCorpus:
    """Generate ``cfg.walks_per_entity`` bidirectional walks around each
    entity of interest. Entities not present in the graph are recorded in
    ``missing_entities`` (with a warning) and produce no walks.

    Walks run on one thread: they are pure Python and hold the GIL, so more
    threads cannot make them faster. ``workers`` is kept for callers that
    pass ``workers=1``; any other value raises ``ValueError``."""
    if workers != 1:
        raise ValueError("walks run on one thread: workers must be 1")
    cfg = cfg or WalkConfig(strategy="light")
    if cfg.strategy != "light":
        raise ValueError("generate_light_walks needs cfg.strategy == 'light'")
    return _generate(g, entities, cfg)


def generate_classic_walks(
    g: KnowledgeGraph,
    entities: Iterable[str | int] | None = None,
    cfg: WalkConfig | None = None,
) -> WalkCorpus:
    """Generate forward-only walks. Without an explicit entity collection,
    every subject node of the graph is walked."""
    cfg = cfg or WalkConfig(strategy="classic")
    if cfg.strategy != "classic":
        raise ValueError("generate_classic_walks needs cfg.strategy == 'classic'")
    return _generate(g, entities, cfg)


def write_corpus(corpus: WalkCorpus, path: str | Path) -> int:
    """Write one walk per line, tokens space-separated and resolved to their
    resource strings (whitespace/percent escaped). ``.gz`` paths are
    compressed. Returns the number of lines written."""
    if corpus.graph is None:
        raise ValueError("corpus has no backing graph to resolve tokens")
    resolve = corpus.graph.resolve
    with open_text_write(path) as fh:
        for walk in corpus.walks:
            fh.write(" ".join(escape_token(resolve(t)) for t in walk.tokens))
            fh.write("\n")
    return len(corpus.walks)


def read_corpus_tokens(path: str | Path) -> list[list[str]]:
    """Read a corpus file back into lists of token strings."""
    sentences: list[list[str]] = []
    with reading(path), open_text_read(path) as fh:
        for line in fh:
            # split on the spaces write_corpus puts between tokens only: escaping
            # removes those from tokens, but a token may hold other whitespace
            tokens = [t for t in line.rstrip("\n").split(" ") if t]
            if tokens:
                sentences.append([unescape_token(t) for t in tokens])
    return sentences
