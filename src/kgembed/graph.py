"""In-memory knowledge graph: interned tokens, bidirectional adjacency, and a
binary snapshot format."""

from __future__ import annotations

import struct
from pathlib import Path
from typing import IO, Iterable, Iterator

from .graph_io import Triple, is_literal_token

SNAPSHOT_MAGIC = b"KGL1"
_EDGE = struct.Struct("<III")
_READ_CHUNK = 1 << 24


class UnknownNodeError(KeyError):
    """unknown-node: identifier or token not present in the graph."""

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else "unknown-node"


class GraphFrozenError(RuntimeError):
    pass


class SnapshotFormatError(ValueError):
    pass


class KnowledgeGraph:
    """Deduplicated triple store over dense integer ids.

    Tokens (IRIs, blank node labels, literal tokens) are interned in
    first-seen order, so ids are stable and bit-reproducible for a given
    input order. Both adjacency directions are materialized: out-adjacency
    maps a subject to ``(predicate, object)`` pairs and includes literal
    objects; in-adjacency maps an object to ``(subject, predicate)`` pairs
    and never contains literals, so backward traversal cannot enter through
    a literal. After :meth:`freeze` the graph is immutable and safe to share
    across concurrent readers.
    """

    def __init__(self):
        self._tokens: list[str] = []
        self._index: dict[str, int] = {}
        self._literal: list[bool] = []
        self._node: list[bool] = []
        self._out: list[list[tuple[int, int]]] = []
        self._in: list[list[tuple[int, int]]] = []
        self._triples: list[tuple[int, int, int]] = []
        self._seen: set[tuple[int, int, int]] = set()
        self._node_count = 0
        self._frozen = False

    # -- construction -----------------------------------------------------

    def intern(self, token: str) -> int:
        i = self._index.get(token)
        if i is None:
            if self._frozen:
                raise GraphFrozenError("graph is frozen; no new tokens can be interned")
            i = len(self._tokens)
            self._index[token] = i
            self._tokens.append(token)
            self._literal.append(is_literal_token(token))
            self._node.append(False)
            self._out.append([])
            self._in.append([])
        return i

    def _mark_node(self, i: int) -> None:
        if not self._node[i]:
            self._node[i] = True
            self._node_count += 1

    def add_node(self, token: str) -> int:
        """Intern a token as a graph node even if no triple mentions it."""
        if is_literal_token(token):
            raise ValueError(f"literal token cannot be a node: {token!r}")
        i = self.intern(token)
        self._mark_node(i)
        return i

    def add_triple(self, subject: str, predicate: str, object: str) -> bool:
        """Insert one statement; returns False if it was already present."""
        if self._frozen:
            raise GraphFrozenError("graph is frozen; no triples can be added")
        _reject_literals(subject, predicate)
        s = self.intern(subject)
        p = self.intern(predicate)
        o = self.intern(object)
        return self._add_edge_ids(s, p, o)

    def _add_edge_ids(self, s: int, p: int, o: int) -> bool:
        key = (s, p, o)
        if key in self._seen:
            return False
        self._seen.add(key)
        self._triples.append(key)
        self._mark_node(s)
        self._out[s].append((p, o))
        if not self._literal[o]:
            self._mark_node(o)
            self._in[o].append((s, p))
        return True

    def add(self, triple: Triple) -> bool:
        return self.add_triple(triple.subject, triple.predicate, triple.object)

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Insert every statement in order, as :meth:`add` would; returns the
        number that were new. A term already interned costs one dictionary
        lookup; ``intern`` runs only for statements with an unseen term."""
        if self._frozen:
            raise GraphFrozenError("graph is frozen; no triples can be added")
        get, intern, add_edge = self._index.get, self.intern, self._add_edge_ids
        literal = self._literal
        before = len(self._triples)
        for subject, predicate, obj in triples:
            s, p, o = get(subject), get(predicate), get(obj)
            if s is None or p is None or o is None or literal[s] or literal[p]:
                _reject_literals(subject, predicate)
                s, p, o = intern(subject), intern(predicate), intern(obj)
            add_edge(s, p, o)
        return len(self._triples) - before

    def freeze(self) -> "KnowledgeGraph":
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    # -- lookup -------------------------------------------------------------

    def lookup(self, token: str) -> int:
        i = self._index.get(token)
        if i is None:
            raise UnknownNodeError(f"unknown-node: {token!r}")
        return i

    def resolve(self, i: int) -> str:
        self._check_id(i)
        return self._tokens[i]

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def _check_id(self, i: int) -> None:
        if not 0 <= i < len(self._tokens):
            raise UnknownNodeError(f"unknown-node: id {i!r}")

    @property
    def num_nodes(self) -> int:
        return self._node_count

    @property
    def num_edges(self) -> int:
        return len(self._triples)

    @property
    def num_tokens(self) -> int:
        return len(self._tokens)

    def is_node(self, i: int) -> bool:
        self._check_id(i)
        return self._node[i]

    def is_literal_id(self, i: int) -> bool:
        self._check_id(i)
        return self._literal[i]

    # -- adjacency ------------------------------------------------------------

    def out_edges(self, v: int) -> list[tuple[int, int]]:
        """All (predicate, object) pairs with subject ``v``, in insertion
        order. The returned list is shared; do not mutate it."""
        self._check_id(v)
        return self._out[v]

    def in_edges(self, v: int) -> list[tuple[int, int]]:
        """All (subject, predicate) pairs with non-literal object ``v``."""
        self._check_id(v)
        return self._in[v]

    def degree(self, v: int) -> tuple[int, int]:
        self._check_id(v)
        return len(self._in[v]), len(self._out[v])

    def nodes(self) -> Iterator[int]:
        for i, flag in enumerate(self._node):
            if flag:
                yield i

    def subject_ids(self) -> list[int]:
        """Ids of every node with at least one outgoing edge, ascending."""
        return [i for i, edges in enumerate(self._out) if edges]

    def triples(self) -> Iterator[tuple[int, int, int]]:
        return iter(self._triples)

    def resolved_triples(self) -> Iterator[Triple]:
        toks = self._tokens
        for s, p, o in self._triples:
            yield Triple(toks[s], toks[p], toks[o])

    # -- snapshot ---------------------------------------------------------------

    def save_snapshot(self, path: str | Path) -> None:
        """Binary cache: magic ``KGL1``, |V|, |E|, interner table, edge list.
        Loading reproduces identical ids."""
        with open(path, "wb") as fh:
            fh.write(SNAPSHOT_MAGIC)
            fh.write(struct.pack("<III", self._node_count, len(self._triples), len(self._tokens)))
            for token in self._tokens:
                raw = token.encode("utf-8")
                fh.write(struct.pack("<I", len(raw)))
                fh.write(raw)
            node_flags = bytes(self._node)
            fh.write(node_flags)
            fh.write(b"".join(_EDGE.pack(*edge) for edge in self._triples))

    @classmethod
    def load_snapshot(cls, path: str | Path) -> "KnowledgeGraph":
        g = cls()
        with open(path, "rb") as fh:
            magic = _read_exact(fh, 4, "magic")
            if magic != SNAPSHOT_MAGIC:
                raise SnapshotFormatError(f"bad magic {magic!r}")
            nodes, edges, tokens = struct.unpack("<III", _read_exact(fh, 12, "header"))
            for _ in range(tokens):
                (length,) = struct.unpack("<I", _read_exact(fh, 4, "token length"))
                raw = _read_exact(fh, length, "token")
                try:
                    g.intern(raw.decode("utf-8"))
                except UnicodeDecodeError as exc:
                    raise SnapshotFormatError(f"undecodable token: {exc}") from None
            node_flags = _read_exact(fh, tokens, "node flags")
            for s, p, o in _EDGE.iter_unpack(_read_exact(fh, _EDGE.size * edges, "edges")):
                for i in (s, p, o):
                    if i >= tokens:
                        raise SnapshotFormatError(f"edge references token id {i} out of {tokens}")
                if not g._add_edge_ids(s, p, o):
                    raise SnapshotFormatError("duplicate edge in snapshot")
            if fh.read(1):
                raise SnapshotFormatError("trailing bytes after edge list")
        for i, flag in enumerate(node_flags):
            if flag:
                g._mark_node(i)
        if g.num_nodes != nodes or g.num_edges != edges:
            raise SnapshotFormatError(
                f"header claims |V|={nodes} |E|={edges}, rebuilt |V|={g.num_nodes} |E|={g.num_edges}"
            )
        return g.freeze()


def _reject_literals(subject: str, predicate: str) -> None:
    if is_literal_token(subject):
        raise ValueError(f"literal token cannot be a subject: {subject!r}")
    if is_literal_token(predicate):
        raise ValueError(f"literal token cannot be a predicate: {predicate!r}")


def _read_exact(fh: IO[bytes], n: int, what: str) -> bytes:
    # bounded reads: a corrupt count in the file must not make one read
    # allocate more than the file holds
    chunks = []
    while n > 0:
        chunk = fh.read(min(n, _READ_CHUNK))
        if not chunk:
            raise SnapshotFormatError(f"truncated snapshot while reading {what}")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)
