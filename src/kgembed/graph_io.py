"""RDF input and output.

Two serializations are supported, each with one parse policy. N-Triples is
read line by line, and a malformed line is recorded in
``ParseReport.errors`` and skipped. A pragmatic Turtle subset covers
``@prefix`` declarations, prefixed names, IRIs, quoted literals, predicate
lists (``;``), object lists (``,``) and the ``a`` shorthand; it cannot resume
inside a statement, so its first error is raised. Files ending in ``.gz`` are
read and written through gzip transparently.

N-Triples lines of the common shape take a fast path: one regular
expression match per line. It accepts an IRI subject, an IRI predicate and
an IRI or literal object, with optional spaces or tabs around the terms,
the final ``.`` and an optional trailing ``# comment``. IRIs must be
non-empty and free of escapes; literals must be free of escapes and
carriage returns, with an optional ``@tag`` of ASCII letters, digits and
``-`` or a ``^^<datatype>``. Every other line (escapes, blank nodes,
other language tags, blank and comment lines, malformed statements) goes to
the general character-by-character parser, so the triples, errors and line
numbers are those of the general parser alone. ``ParseReport.general_lines``
counts the lines that took the general parser.

N-Triples input is read in blocks of 1 MiB, split at LF with trailing CRs
stripped, and decoded one block at a time. Only a block that is not UTF-8 is
decoded line by line, so each bad line is reported under its own number.
Readers of files note the path on the errors whose messages would not name
it (:func:`reading`).

Term token conventions used throughout the package:

* IRIs are stored as bare IRI strings, without angle brackets.
* Blank nodes are stored as ``_:`` plus their label, optionally prefixed with
  a per-file scope so labels from different files cannot collide.
* Literals are stored as one opaque token in canonical N-Triples surface
  form, e.g. ``"42"^^<http://www.w3.org/2001/XMLSchema#integer>``.
"""

from __future__ import annotations

import gzip
import io
import logging
import re
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

logger = logging.getLogger(__name__)

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"


class ParseError(ValueError):
    """Malformed input; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class UnsupportedConstructError(ParseError):
    """unsupported-construct: Turtle feature outside the supported subset."""


class Triple(NamedTuple):
    subject: str
    predicate: str
    object: str


@dataclass
class ParseReport:
    """Accounting for one parse: every physical input line ends up as exactly
    one emitted triple, one skipped line (blank or comment), or one error."""

    triples_emitted: int = 0
    lines_skipped: int = 0
    errors: list[tuple[int, str]] = field(default_factory=list)
    general_lines: int = 0  # N-Triples lines the fast path left to the general parser


def is_literal_token(token: str) -> bool:
    return token.startswith('"')


# Corpus and model files hold one token per space-separated field, but
# literal tokens may contain spaces; this tiny reversible escaping keeps the
# file format splittable. '%' must be encoded first and decoded last.
_TOKEN_ESCAPES = (("%", "%25"), (" ", "%20"), ("\t", "%09"), ("\n", "%0A"), ("\r", "%0D"))


def escape_token(token: str) -> str:
    for raw, enc in _TOKEN_ESCAPES:
        token = token.replace(raw, enc)
    return token


def unescape_token(token: str) -> str:
    for raw, enc in reversed(_TOKEN_ESCAPES[1:]):
        token = token.replace(enc, raw)
    return token.replace("%25", "%")


def _escape_lexical(s: str) -> str:
    return (
        s.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


def literal_token(lexical: str, suffix: str = "") -> str:
    """Canonical literal token: quoted escaped lexical form plus an optional
    ``@lang`` or ``^^<datatype>`` suffix."""
    return '"%s"%s' % (_escape_lexical(lexical), suffix)


_ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
_WS = " \t"


class _Bad(Exception):
    """Internal: syntax violation inside one term or statement."""


class _Unsupported(_Bad):
    """Internal: Turtle feature outside the supported subset."""


class _Scan:
    """Character cursor shared by the N-Triples and Turtle parsers."""

    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        t, n = self.text, len(self.text)
        while self.pos < n and t[self.pos] in _WS:
            self.pos += 1

    def done(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _uchar(self) -> str:
        # cursor sits on 'u' or 'U'
        kind = self.text[self.pos]
        width = 4 if kind == "u" else 8
        start = self.pos + 1
        hexs = self.text[start : start + width]
        if len(hexs) < width:
            raise _Bad(f"truncated \\{kind} escape")
        try:
            code = int(hexs, 16)
        except ValueError:
            raise _Bad(f"invalid \\{kind} escape {hexs!r}") from None
        if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
            raise _Bad(f"escape \\{kind}{hexs} is not a valid code point")
        self.pos = start + width
        return chr(code)

    def iriref(self) -> str:
        # cursor sits on '<'
        self.pos += 1
        out: list[str] = []
        t, n = self.text, len(self.text)
        while True:
            if self.pos >= n:
                raise _Bad("unterminated IRI")
            ch = t[self.pos]
            if ch == ">":
                self.pos += 1
                break
            if ch == "\\":
                self.pos += 1
                if self.pos >= n or t[self.pos] not in "uU":
                    raise _Bad("only \\u and \\U escapes are allowed in IRIs")
                out.append(self._uchar())
                continue
            if ch in '"{}|^`<' or ord(ch) <= 0x20:
                raise _Bad(f"character {ch!r} not allowed in IRI")
            out.append(ch)
            self.pos += 1
        iri = "".join(out)
        if not iri:
            raise _Bad("empty IRI")
        return iri

    def blank(self, scope: str) -> str:
        if self.text[self.pos : self.pos + 2] != "_:":
            raise _Bad("expected blank node label")
        self.pos += 2
        start = self.pos
        t, n = self.text, len(self.text)
        while self.pos < n and (t[self.pos].isalnum() or t[self.pos] in "._-"):
            self.pos += 1
        label = t[start : self.pos]
        if not label or label.startswith(".") or label.endswith("."):
            raise _Bad("invalid blank node label")
        return f"_:{scope}.{label}" if scope else f"_:{label}"

    def literal_body(self) -> str:
        """Consume a quoted string; cursor sits on the opening quote."""
        self.pos += 1
        out: list[str] = []
        t, n = self.text, len(self.text)
        while True:
            if self.pos >= n:
                raise _Bad("unterminated literal")
            ch = t[self.pos]
            if ch == '"':
                self.pos += 1
                return "".join(out)
            if ch == "\\":
                self.pos += 1
                if self.pos >= n:
                    raise _Bad("dangling escape at end of literal")
                esc = t[self.pos]
                if esc in _ECHAR:
                    out.append(_ECHAR[esc])
                    self.pos += 1
                elif esc in "uU":
                    out.append(self._uchar())
                else:
                    raise _Bad(f"unknown escape \\{esc}")
                continue
            out.append(ch)
            self.pos += 1

    def langtag(self) -> str:
        # cursor sits just past '@'
        start = self.pos
        t, n = self.text, len(self.text)
        while self.pos < n and (t[self.pos].isalnum() or t[self.pos] == "-"):
            self.pos += 1
        tag = t[start : self.pos]
        if not tag:
            raise _Bad("empty language tag")
        return tag


def _literal_suffix(sc: _Scan) -> str:
    """The ``@lang`` or ``^^<datatype>`` after a literal's closing quote, or
    ``""``; a ``^^`` without ``<`` is left to the caller."""
    if sc.peek() == "@":
        sc.pos += 1
        return "@" + sc.langtag()
    if sc.text.startswith("^^<", sc.pos):
        sc.pos += 2
        return "^^<%s>" % sc.iriref()
    return ""


def _nt_literal(sc: _Scan) -> str:
    lexical = sc.literal_body()
    suffix = _literal_suffix(sc)
    if not suffix and sc.text.startswith("^^", sc.pos):
        raise _Bad("datatype must be an IRI")
    return literal_token(lexical, suffix)


def _parse_nt_statement(sc: _Scan, scope: str) -> Triple:
    sc.skip_ws()
    ch = sc.peek()
    if ch == "<":
        subject = sc.iriref()
    elif ch == "_":
        subject = sc.blank(scope)
    elif ch == '"':
        raise _Bad("literal not allowed as subject")
    else:
        raise _Bad("expected IRI or blank node subject")
    sc.skip_ws()
    if sc.peek() != "<":
        raise _Bad("expected IRI predicate")
    predicate = sc.iriref()
    sc.skip_ws()
    ch = sc.peek()
    if ch == "<":
        obj = sc.iriref()
    elif ch == "_":
        obj = sc.blank(scope)
    elif ch == '"':
        obj = _nt_literal(sc)
    else:
        raise _Bad("expected IRI, blank node, or literal object")
    sc.skip_ws()
    if sc.peek() != ".":
        raise _Bad("missing terminating '.'")
    sc.pos += 1
    sc.skip_ws()
    if not sc.done() and sc.peek() != "#":
        raise _Bad("trailing content after '.'")
    return Triple(subject, predicate, obj)


# Fast path for the common line shape: IRI subject, IRI predicate, and an IRI
# or plain literal object. IRI bodies take no escapes and are never empty;
# literal bodies take no escapes, CR or LF, so the source slice of a literal
# (quotes and suffix included) is already its canonical token. Any line this
# does not match goes to ``_parse_nt_statement``, which decides it.
_IRI_BODY = r'[^\x00-\x20<>"{}|^`\\]+'
_FAST_LINE = re.compile(
    rf'[ \t]*<({_IRI_BODY})>[ \t]*<({_IRI_BODY})>[ \t]*'
    rf'(?:<({_IRI_BODY})>|("[^"\\\r\n]*"(?:@[A-Za-z0-9-]+|\^\^<{_IRI_BODY}>)?))'
    r'[ \t]*\.[ \t]*(?:#.*)?',
    re.DOTALL,
)


def _as_byte_stream(source: bytes | str | IO[bytes]) -> IO[bytes]:
    if isinstance(source, bytes):
        return io.BytesIO(source)
    if isinstance(source, str):
        return io.BytesIO(source.encode("utf-8"))
    return source


# read size of the N-Triples reader; a line may span blocks
_BLOCK_SIZE = 1 << 20


def _text_lines(stream: IO[bytes]) -> Iterator[str | UnicodeDecodeError]:
    """Yield the lines of a byte stream, split at LF, with trailing CRs
    stripped and decoded as UTF-8. A line that is not UTF-8 is yielded as its
    ``UnicodeDecodeError``. The stream is read in blocks of ``_BLOCK_SIZE``
    bytes; an I/O failure propagates with the byte offset reached so far
    attached as a note."""
    offset = 0
    pending: list[bytes] = []  # the start of a line that runs past the block
    while True:
        try:
            block = stream.read(_BLOCK_SIZE)
        except OSError as exc:
            exc.bytes_read = offset
            _add_note(exc, f"while reading after byte offset {offset}")
            raise
        if not block:
            break
        offset += len(block)
        cut = block.rfind(b"\n")
        if cut < 0:
            pending.append(block)
            continue
        pending.append(block[:cut])
        yield from _decoded_lines(b"".join(pending))
        pending = [block[cut + 1 :]]
    last = b"".join(pending)
    if last:
        yield from _decoded_lines(last)


def _decoded_lines(chunk: bytes) -> Iterator[str | UnicodeDecodeError]:
    """The LF-separated lines of ``chunk``, decoded in one call; a chunk that
    does not decode is decoded line by line, so each bad line reports its own
    error."""
    try:
        lines = chunk.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        for raw in chunk.split(b"\n"):
            try:
                yield raw.rstrip(b"\r").decode("utf-8")
            except UnicodeDecodeError as exc:
                yield exc
        return
    if b"\r" in chunk:
        lines = [line.rstrip("\r") for line in lines]
    yield from lines


def parse_ntriples(
    source: bytes | str | IO[bytes],
    *,
    report: ParseReport | None = None,
    bnode_scope: str = "",
) -> Iterator[Triple]:
    """Parse N-Triples from a byte stream, yielding triples in input order.

    Comment lines (leading ``#``) and blank lines are skipped and counted.
    A malformed line, including one that is not UTF-8, is recorded in
    ``report.errors`` with its line number and skipped; no line raises. Pass
    a :class:`ParseReport` to observe counts; it is updated as the iterator
    is consumed.
    """
    if report is None:
        report = ParseReport()
    return _ntriples_iter(_as_byte_stream(source), report, bnode_scope)


def _ntriples_iter(stream, report, scope) -> Iterator[Triple]:
    fast_match = _FAST_LINE.fullmatch
    for lineno, text in enumerate(_text_lines(stream), start=1):
        if isinstance(text, UnicodeDecodeError):
            report.errors.append((lineno, f"invalid UTF-8: {text}"))
            continue
        m = fast_match(text)
        if m is not None:
            s, p, o, lit = m.groups()
            report.triples_emitted += 1
            yield Triple(s, p, o or lit)
            continue
        stripped = text.strip(_WS)
        if not stripped or stripped.startswith("#"):
            report.lines_skipped += 1
            continue
        report.general_lines += 1
        sc = _Scan(text)
        try:
            triple = _parse_nt_statement(sc, scope)
        except _Bad as exc:
            report.errors.append((lineno, str(exc)))
            continue
        report.triples_emitted += 1
        yield triple


# --------------------------------------------------------------------------
# Turtle subset
# --------------------------------------------------------------------------

_PNAME_CHARS = frozenset("._-%:")


class _TurtleParser:
    """Recursive-descent parser for the Turtle subset.

    Supported: @prefix, IRIs, prefixed names (including empty prefix and
    prefixed datatypes), blank node labels, quoted literals with language
    tags or datatypes, 'a', ';' predicate lists, ',' object lists, comments.
    Blank-node property lists '[...]', collections '(...)', @base, and
    quote variants beyond plain '"' raise ``_Unsupported``, other errors
    ``_Bad``; :meth:`statements` turns either into the public error, with
    the line the cursor stopped on.
    """

    def __init__(self, text: str, scope: str):
        self.sc = _Scan(text)
        self.scope = scope
        self.prefixes: dict[str, str] = {}

    def _skip_trivia(self) -> None:
        t, n = self.sc.text, len(self.sc.text)
        while self.sc.pos < n:
            ch = t[self.sc.pos]
            if ch in " \t\r\n":
                self.sc.pos += 1
            elif ch == "#":
                nl = t.find("\n", self.sc.pos)
                self.sc.pos = n if nl < 0 else nl + 1
            else:
                return

    def statements(self) -> Iterator[Triple]:
        try:
            while True:
                self._skip_trivia()
                if self.sc.done():
                    return
                if self.sc.peek() == "@":
                    self._directive()
                else:
                    yield from self._triples()
        except _Bad as exc:
            line = self.sc.text.count("\n", 0, self.sc.pos) + 1
            if isinstance(exc, _Unsupported):
                raise UnsupportedConstructError(f"unsupported-construct: {exc}", line) from None
            raise ParseError(str(exc), line) from None

    def _directive(self) -> None:
        t = self.sc.text
        self.sc.pos += 1
        start = self.sc.pos
        while self.sc.pos < len(t) and t[self.sc.pos].isalpha():
            self.sc.pos += 1
        word = t[start : self.sc.pos]
        if word == "base":
            raise _Unsupported("@base directive")
        if word != "prefix":
            raise _Bad(f"unknown directive @{word}")
        self._skip_trivia()
        name = self._pname_ns()
        self._skip_trivia()
        if self.sc.peek() != "<":
            raise _Bad("expected IRI in @prefix")
        iri = self.sc.iriref()
        self._skip_trivia()
        if self.sc.peek() != ".":
            raise _Bad("expected '.' after @prefix")
        self.sc.pos += 1
        self.prefixes[name] = iri

    def _pname_ns(self) -> str:
        t, n = self.sc.text, len(self.sc.text)
        start = self.sc.pos
        while self.sc.pos < n and (t[self.sc.pos].isalnum() or t[self.sc.pos] in "._-"):
            self.sc.pos += 1
        name = t[start : self.sc.pos]
        if self.sc.peek() != ":":
            raise _Bad("expected prefix name ending in ':'")
        self.sc.pos += 1
        return name

    def _word(self) -> str:
        t, n = self.sc.text, len(self.sc.text)
        start = self.sc.pos
        while self.sc.pos < n and (t[self.sc.pos].isalnum() or t[self.sc.pos] in _PNAME_CHARS):
            self.sc.pos += 1
        word = t[start : self.sc.pos]
        # a trailing '.' belongs to the statement, not the name
        while word.endswith("."):
            word = word[:-1]
            self.sc.pos -= 1
        return word

    def _expand(self, word: str) -> str:
        ns, local = word.split(":", 1)
        try:
            return self.prefixes[ns] + local
        except KeyError:
            raise _Bad(f"undefined prefix {ns + ':'!r}") from None

    def _term(self, *, as_verb: bool = False, allow_literal: bool = False) -> str:
        self._skip_trivia()
        ch = self.sc.peek()
        if ch == "":
            raise _Bad("unexpected end of input")
        if ch == "[":
            raise _Unsupported("blank-node property list")
        if ch == "(":
            raise _Unsupported("collection")
        if ch in "'":
            raise _Unsupported("single-quoted literal")
        if ch == "<":
            return self.sc.iriref()
        if ch == "_":
            return self.sc.blank(self.scope)
        if ch == '"':
            if not allow_literal:
                raise _Bad("literal not allowed here")
            if self.sc.text[self.sc.pos : self.sc.pos + 3] == '"""':
                raise _Unsupported("triple-quoted literal")
            return self._literal()
        word = self._word()
        if not word:
            raise _Bad(f"expected term, found {ch!r}")
        if word == "a":
            if as_verb:
                return RDF_TYPE
            raise _Bad("'a' is only valid in the predicate position")
        if ":" not in word:
            raise _Bad(f"expected prefixed name, found {word!r}")
        return self._expand(word)

    def _literal(self) -> str:
        lexical = self.sc.literal_body()
        suffix = _literal_suffix(self.sc)
        if not suffix and self.sc.text.startswith("^^", self.sc.pos):
            self.sc.pos += 2
            word = self._word()
            if ":" not in word:
                raise _Bad("datatype must be an IRI or prefixed name")
            suffix = "^^<%s>" % self._expand(word)
        return literal_token(lexical, suffix)

    def _triples(self) -> Iterator[Triple]:
        subject = self._term()
        while True:
            verb = self._term(as_verb=True)
            while True:
                obj = self._term(allow_literal=True)
                yield Triple(subject, verb, obj)
                self._skip_trivia()
                if self.sc.peek() == ",":
                    self.sc.pos += 1
                    continue
                break
            self._skip_trivia()
            ch = self.sc.peek()
            if ch == ";":
                while self.sc.peek() == ";":
                    self.sc.pos += 1
                    self._skip_trivia()
                if self.sc.peek() == ".":
                    self.sc.pos += 1
                    return
                continue
            if ch == ".":
                self.sc.pos += 1
                return
            raise _Bad("expected ',', ';' or '.'")


def parse_turtle_subset(
    source: bytes | str | IO[bytes],
    *,
    report: ParseReport | None = None,
    bnode_scope: str = "",
) -> Iterator[Triple]:
    """Parse the Turtle subset, yielding fully expanded triples.

    The output is equivalent to the N-Triples serialization of the same
    logical graph. Unlike the line-based N-Triples parser this one is strict:
    syntax problems raise :class:`ParseError` and features outside the subset
    raise :class:`UnsupportedConstructError`, both with the offending line.
    """
    if report is None:
        report = ParseReport()
    data = _as_byte_stream(source).read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid UTF-8: {exc}") from None
    return _turtle_iter(text, report, bnode_scope)


def _turtle_iter(text: str, report: ParseReport, scope: str) -> Iterator[Triple]:
    parser = _TurtleParser(text, scope)
    for triple in parser.statements():
        report.triples_emitted += 1
        yield triple


# --------------------------------------------------------------------------
# Files and graphs
# --------------------------------------------------------------------------

def detect_format(path: str | Path) -> str:
    """Infer the RDF format from a file extension (`.nt` or `.ttl`, `.gz` aware)."""
    name = str(path)
    if name.endswith(".gz"):
        name = name[:-3]
    if name.endswith(".nt"):
        return "ntriples"
    if name.endswith(".ttl"):
        return "turtle-subset"
    raise ValueError(f"cannot infer RDF format of {path!r}; expected a .nt or .ttl suffix")


def _add_note(exc: BaseException, note: str) -> None:
    """``exc.add_note(note)``, also on Python 3.10, which lacks the method;
    ``kgembed`` prints the notes after the message."""
    exc.__notes__ = [*getattr(exc, "__notes__", ()), note]


# a damaged gzip stream or a file that is not UTF-8 raises these, and their
# messages do not name the file
_UNNAMED_ERRORS = (UnicodeDecodeError, EOFError, zlib.error, gzip.BadGzipFile, ParseError)


@contextmanager
def reading(path: str | Path) -> Iterator[None]:
    """Note ``path`` on a decode, decompression or parse error raised inside."""
    try:
        yield
    except _UNNAMED_ERRORS as exc:
        _add_note(exc, f"reading {path}")
        raise


# the one trim rule of list files: other whitespace, such as U+00A0, may end a token
ASCII_WHITESPACE = " \t\n\r\x0b\x0c"


def content_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """``(lineno, text)`` of each line of a UTF-8 entity or gold file that is
    not blank or a ``#`` comment after trimming; ``text`` loses its line end."""
    with reading(path), open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip(ASCII_WHITESPACE)[:1] not in ("", "#"):
                yield lineno, line.rstrip("\n")


def open_bytes_read(path: str | Path) -> IO[bytes]:
    if str(path).endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def open_text_read(path: str | Path) -> IO[str]:
    if str(path).endswith(".gz"):
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def open_text_write(path: str | Path) -> IO[str]:
    """Text writer; gzip output carries mtime 0 so identical runs produce
    identical bytes."""
    if str(path).endswith(".gz"):
        return io.TextIOWrapper(gzip.GzipFile(str(path), "wb", mtime=0), encoding="utf-8", newline="\n")
    return open(path, "w", encoding="utf-8", newline="\n")


def load_graph(
    sources: Iterable[tuple[str | Path, str]],
    *,
    report: ParseReport | None = None,
):
    """Parse every (path, format) source and return the union as a frozen
    :class:`~kgembed.graph.KnowledgeGraph`; duplicate triples are stored once.

    Formats are the names :func:`detect_format` returns: ``ntriples`` and
    ``turtle-subset``. Blank nodes receive a per-file scope. A malformed
    N-Triples line is skipped and logged as a warning; a Turtle error is
    raised, with the file noted on it. Pass a :class:`ParseReport` to observe
    the parse: it adds up over all sources, so its error line numbers are per
    file.
    """
    from .graph import KnowledgeGraph

    if report is None:
        report = ParseReport()
    g = KnowledgeGraph()
    for i, (path, fmt) in enumerate(sources):
        if fmt not in ("ntriples", "turtle-subset"):
            raise ValueError(f"unknown RDF format {fmt!r}; expected one of ['ntriples', 'turtle-subset']")
        scope = f"f{i}"
        first_error = len(report.errors)
        with reading(path), open_bytes_read(path) as fh:
            if fmt == "ntriples":
                triples = parse_ntriples(fh, report=report, bnode_scope=scope)
            else:
                triples = parse_turtle_subset(fh, report=report, bnode_scope=scope)
            g.add_all(triples)
        for lineno, message in report.errors[first_error:]:
            logger.warning("%s:%d: %s", path, lineno, message)
    return g.freeze()


def format_term(token: str) -> str:
    """Render a stored token back into N-Triples syntax."""
    if token.startswith('"') or token.startswith("_:"):
        return token
    return f"<{token}>"


def write_ntriples(triples: Iterable[Triple], dest: str | Path | IO[str]) -> int:
    """Serialize triples as N-Triples, one statement per line. Returns the
    number of statements written."""
    own = isinstance(dest, (str, Path))
    fh = open_text_write(dest) if own else dest
    count = 0
    try:
        for s, p, o in triples:
            fh.write(f"{format_term(s)} <{p}> {format_term(o)} .\n")
            count += 1
    finally:
        if own:
            fh.close()
    return count
