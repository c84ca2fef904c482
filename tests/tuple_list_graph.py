"""The knowledge graph as it was stored before the flat edge arrays: Python
lists of ``(predicate, object)`` and ``(subject, predicate)`` tuples per
token and a set of ``(s, p, o)`` tuples. A test oracle for
:class:`kgembed.graph.KnowledgeGraph`; only what the tests compare is kept."""

from __future__ import annotations

from kgembed.graph import GraphFrozenError, UnknownNodeError
from kgembed.graph_io import is_literal_token


class TupleListGraph:
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
        if is_literal_token(token):
            raise ValueError(f"literal token cannot be a node: {token!r}")
        i = self.intern(token)
        self._mark_node(i)
        return i

    def add_triple(self, subject: str, predicate: str, object: str) -> bool:
        if self._frozen:
            raise GraphFrozenError("graph is frozen; no triples can be added")
        _reject_literals(subject, predicate)
        return self._add_edge_ids(self.intern(subject), self.intern(predicate), self.intern(object))

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

    def add_all(self, triples) -> int:
        if self._frozen:
            raise GraphFrozenError("graph is frozen; no triples can be added")
        before = len(self._triples)
        for subject, predicate, obj in triples:
            _reject_literals(subject, predicate)
            self._add_edge_ids(self.intern(subject), self.intern(predicate), self.intern(obj))
        return len(self._triples) - before

    def freeze(self) -> "TupleListGraph":
        self._frozen = True
        return self

    def lookup(self, token: str) -> int:
        i = self._index.get(token)
        if i is None:
            raise UnknownNodeError(f"unknown-node: {token!r}")
        return i

    def _check_id(self, i: int) -> None:
        if not 0 <= i < len(self._tokens):
            raise UnknownNodeError(f"unknown-node: id {i!r}")

    def resolve(self, i: int) -> str:
        self._check_id(i)
        return self._tokens[i]

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

    def out_edges(self, v: int) -> list[tuple[int, int]]:
        self._check_id(v)
        return self._out[v]

    def in_edges(self, v: int) -> list[tuple[int, int]]:
        self._check_id(v)
        return self._in[v]

    def degree(self, v: int) -> tuple[int, int]:
        self._check_id(v)
        return len(self._in[v]), len(self._out[v])

    def nodes(self):
        return (i for i, flag in enumerate(self._node) if flag)

    def subject_ids(self) -> list[int]:
        return [i for i, edges in enumerate(self._out) if edges]

    def triples(self):
        return iter(self._triples)


def _reject_literals(subject: str, predicate: str) -> None:
    if is_literal_token(subject):
        raise ValueError(f"literal token cannot be a subject: {subject!r}")
    if is_literal_token(predicate):
        raise ValueError(f"literal token cannot be a predicate: {predicate!r}")
