"""In-memory knowledge graph: interned tokens and bidirectional adjacency.

The graph is built in two states. While it grows it only appends: each
statement is one slot in three ``array('i')`` columns (subject, predicate
and object ids) in insertion order, duplicates included, and the literal and
``add_node`` flags are ``bytearray``s indexed by token id.
:meth:`KnowledgeGraph.freeze` then works once over the three columns: it
drops every duplicate statement but the first, flags subjects and
non-literal objects as nodes, and builds three compressed sparse row (CSR)
views with a numpy stable argsort: every out-edge, the out-edges to
non-literal objects, and the in-edges of non-literal objects. A view is an
offset array per token id plus two int32 edge columns, and each row keeps
insertion order. The first read of statements, node flags or rows freezes
the graph, so no reader sees a duplicate. The graph holds no Python object
per edge.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .graph_io import Triple, is_literal_token


class UnknownNodeError(KeyError):
    """unknown-node: identifier or token not present in the graph."""

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else "unknown-node"


class GraphFrozenError(RuntimeError):
    pass


class Rows(NamedTuple):
    """One CSR view: row ``v`` pairs ``first[i]`` with ``second[i]`` for
    ``offsets[v] <= i < offsets[v + 1]``, in insertion order."""

    offsets: array  # int64, one more than the number of token ids
    first: array  # int32
    second: array  # int32

    def pairs(self, v: int) -> list[tuple[int, int]]:
        a, b = self.offsets[v], self.offsets[v + 1]
        return list(zip(self.first[a:b], self.second[a:b]))

    def size(self, v: int) -> int:
        return self.offsets[v + 1] - self.offsets[v]


class Adjacency(NamedTuple):
    """The CSR views of a graph, and the literal flags walks need with them."""

    out: Rows  # (predicate, object) of every out-edge
    out_nodes: Rows  # the out-edges whose object is not a literal
    in_: Rows  # (subject, predicate) of every edge into a non-literal object
    literal: bytearray  # 1 where the token id is a literal


def _rows(keys: np.ndarray, order: np.ndarray, n: int, first: np.ndarray, second: np.ndarray) -> Rows:
    """One row per key over the edges ``order`` lists, which a stable sort
    by ``keys`` has grouped by key in insertion order."""
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys[order], minlength=n), out=offsets[1:])
    return Rows(array("q", offsets.tobytes()), array("i", first[order].tobytes()), array("i", second[order].tobytes()))


class KnowledgeGraph:
    """Triple store over dense integer ids; duplicates are dropped at freeze.

    Tokens (IRIs, blank node labels, literal tokens) are interned in
    first-seen order, so ids are stable and bit-reproducible for a given
    input order. Both adjacency directions are materialized: out-adjacency
    maps a subject to ``(predicate, object)`` pairs and includes literal
    objects; in-adjacency maps an object to ``(subject, predicate)`` pairs
    and never contains literals, so backward traversal cannot enter through
    a literal. :meth:`freeze`, or the first read of statements, node flags
    or rows, makes the graph immutable and safe to share across concurrent
    readers.
    """

    def __init__(self):
        self._tokens: list[str] = []
        self._index: dict[str, int] = {}
        self._literal = bytearray()
        self._node = bytearray()  # add_node's flags; freeze adds the rest
        self._s = array("i")
        self._p = array("i")
        self._o = array("i")
        self._adjacency: Adjacency | None = None  # set by freeze

    # -- construction -----------------------------------------------------

    def intern(self, token: str) -> int:
        i = self._index.get(token)
        if i is None:
            if self._adjacency is not None:
                raise GraphFrozenError("graph is frozen; no new tokens can be interned")
            i = len(self._tokens)
            self._index[token] = i
            self._tokens.append(token)
            self._literal.append(is_literal_token(token))
            self._node.append(0)
        return i

    def add_node(self, token: str) -> int:
        """Intern a token as a graph node even if no triple mentions it."""
        if is_literal_token(token):
            raise ValueError(f"literal token cannot be a node: {token!r}")
        if self._adjacency is not None:
            raise GraphFrozenError("graph is frozen; no nodes can be added")
        i = self.intern(token)
        self._node[i] = 1
        return i

    def add_triple(self, subject: str, predicate: str, object: str) -> None:
        """Append one statement."""
        self.add_all((Triple(subject, predicate, object),))

    def add_all(self, triples: Iterable[Triple]) -> None:
        """Append every statement in order. Subject, predicate and object are
        interned in that order. A term already interned costs one dictionary
        lookup; ``intern`` runs only for unseen terms."""
        if self._adjacency is not None:
            raise GraphFrozenError("graph is frozen; no triples can be added")
        get, intern, literal = self._index.get, self.intern, self._literal
        append_s, append_p, append_o = self._s.append, self._p.append, self._o.append
        for subject, predicate, obj in triples:
            s, p, o = get(subject), get(predicate), get(obj)
            if s is None or p is None or literal[s] or literal[p]:
                _reject_literals(subject, predicate)
                s, p = intern(subject), intern(predicate)
            append_s(s)
            append_p(p)
            append_o(intern(obj) if o is None else o)

    def freeze(self) -> "KnowledgeGraph":
        """Drop duplicate statements, keeping the first of each in insertion
        order; flag every subject and non-literal object as a node; build the
        CSR views. Runs once; afterwards no statement, node or token can be
        added."""
        if self._adjacency is not None:
            return self
        n = len(self._tokens)
        s, p, o = (np.frombuffer(column, dtype=np.intc) for column in (self._s, self._p, self._o))
        sp = s.astype(np.int64) * n + p  # subject and predicate as one sort key
        by_key = np.lexsort((o, sp))  # stable: equal statements keep insertion order
        first = np.ones(len(s), dtype=bool)
        first[1:] = (np.diff(sp[by_key]) != 0) | (np.diff(o[by_key]) != 0)
        if not first.all():
            keep = np.sort(by_key[first])
            s, p, o = s[keep], p[keep], o[keep]
            self._s, self._p, self._o = (array("i", column.tobytes()) for column in (s, p, o))
        to_node = np.frombuffer(self._literal, dtype=np.uint8)[o] == 0
        node = np.frombuffer(self._node, dtype=np.uint8)
        node[s] = 1
        node[o[to_node]] = 1
        by_subject = np.argsort(s, kind="stable")
        out = _rows(s, by_subject, n, p, o)
        out_nodes = out if to_node.all() else _rows(s, by_subject[to_node[by_subject]], n, p, o)
        into_nodes = np.flatnonzero(to_node)
        in_ = _rows(o, into_nodes[np.argsort(o[into_nodes], kind="stable")], n, s, p)
        self._adjacency = Adjacency(out, out_nodes, in_, self._literal)
        return self

    def adjacency(self) -> Adjacency:
        """The CSR views; the first read freezes the graph."""
        return self.freeze()._adjacency

    # -- lookup -------------------------------------------------------------

    def lookup(self, token: str) -> int:
        i = self._index.get(token)
        if i is None:
            raise UnknownNodeError(f"unknown-node: {token!r}")
        return i

    def resolve(self, i: int) -> str:
        self._check_id(i)
        return self._tokens[i]

    def _check_id(self, i: int) -> None:
        if not 0 <= i < len(self._tokens):
            raise UnknownNodeError(f"unknown-node: id {i!r}")

    @property
    def num_nodes(self) -> int:
        return self.freeze()._node.count(1)

    @property
    def num_edges(self) -> int:
        return len(self.freeze()._s)

    @property
    def num_tokens(self) -> int:
        return len(self._tokens)

    def is_node(self, i: int) -> bool:
        self._check_id(i)
        return bool(self.freeze()._node[i])

    def is_literal_id(self, i: int) -> bool:
        self._check_id(i)
        return bool(self._literal[i])

    # -- adjacency ------------------------------------------------------------

    def out_edges(self, v: int) -> list[tuple[int, int]]:
        """All (predicate, object) pairs with subject ``v``, in insertion
        order."""
        self._check_id(v)
        return self.adjacency().out.pairs(v)

    def in_edges(self, v: int) -> list[tuple[int, int]]:
        """All (subject, predicate) pairs with non-literal object ``v``."""
        self._check_id(v)
        return self.adjacency().in_.pairs(v)

    def degree(self, v: int) -> tuple[int, int]:
        self._check_id(v)
        adjacency = self.adjacency()
        return adjacency.in_.size(v), adjacency.out.size(v)

    def nodes(self) -> Iterator[int]:
        node = self.freeze()._node
        return (i for i, flag in enumerate(node) if flag)

    def subject_ids(self) -> list[int]:
        """Ids of every node with at least one outgoing edge, ascending."""
        offsets = np.frombuffer(self.adjacency().out.offsets, dtype=np.int64)
        return np.flatnonzero(np.diff(offsets)).tolist()

    def triples(self) -> Iterator[tuple[int, int, int]]:
        self.freeze()
        return zip(self._s, self._p, self._o)

    def resolved_triples(self) -> Iterator[Triple]:
        toks = self._tokens
        for s, p, o in self.triples():
            yield Triple(toks[s], toks[p], toks[o])


def _reject_literals(subject: str, predicate: str) -> None:
    if is_literal_token(subject):
        raise ValueError(f"literal token cannot be a subject: {subject!r}")
    if is_literal_token(predicate):
        raise ValueError(f"literal token cannot be a predicate: {predicate!r}")

