import gzip
import io
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgembed import graph_io
from kgembed.graph import KnowledgeGraph
from kgembed.graph_io import (
    _FAST_LINE,
    ParseError,
    ParseReport,
    Triple,
    UnsupportedConstructError,
    _Bad,
    _parse_nt_statement,
    _Scan,
    _text_lines,
    detect_format,
    load_graph,
    parse_ntriples,
    parse_turtle_subset,
    write_ntriples,
)

XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"


def nt(text: str, **kwargs):
    report = ParseReport()
    triples = list(parse_ntriples(text.encode(), report=report, **kwargs))
    return triples, report


class TestNTriples:
    def test_plain_triple(self):
        triples, report = nt("<http://ex/a> <http://ex/p> <http://ex/b> .\n")
        assert triples == [Triple("http://ex/a", "http://ex/p", "http://ex/b")]
        assert (report.triples_emitted, report.lines_skipped, report.errors) == (1, 0, [])

    def test_comment_and_blank_skipped(self):
        triples, report = nt("# comment\n\n")
        assert triples == []
        assert report.lines_skipped == 2
        assert report.triples_emitted == 0

    def test_typed_literal_object(self):
        triples, _ = nt(f'<http://ex/a> <http://ex/p> "42"^^<{XSD_INT}> .\n')
        assert triples[0].object == f'"42"^^<{XSD_INT}>'

    def test_language_tagged_literal(self):
        triples, _ = nt('<http://ex/a> <http://ex/p> "New York"@en .\n')
        assert triples[0].object == '"New York"@en'

    def test_missing_object_lenient(self):
        triples, report = nt("<http://ex/a> <http://ex/p> .\n")
        assert triples == []
        assert report.triples_emitted == 0
        assert len(report.errors) == 1
        assert report.errors[0][0] == 1

    def test_escape_sequences_unescaped(self):
        triples, _ = nt('<http://ex/a> <http://ex/p> "caf\\u00e9 \\"x\\"\\n" .\n')
        assert triples[0].object == '"café \\"x\\"\\n"'  # canonical: quote/newline re-escaped

    def test_iri_uchar_escape(self):
        triples, _ = nt("<http://ex/\\u00e9> <http://ex/p> <http://ex/b> .\n")
        assert triples[0].subject == "http://ex/é"

    def test_blank_nodes_scoped(self):
        triples, _ = nt("_:x <http://ex/p> _:y .\n", bnode_scope="f0")
        assert triples == [Triple("_:f0.x", "http://ex/p", "_:f0.y")]

    def test_literal_subject_rejected(self):
        _, report = nt('"lit" <http://ex/p> <http://ex/b> .\n')
        assert len(report.errors) == 1

    def test_trailing_comment_after_dot(self):
        triples, report = nt("<http://ex/a> <http://ex/p> <http://ex/b> . # done\n")
        assert len(triples) == 1 and not report.errors

    def test_round_trip(self):
        doc = (
            "<http://ex/a> <http://ex/p> <http://ex/b> .\n"
            f'<http://ex/a> <http://ex/q> "42"^^<{XSD_INT}> .\n'
            '<http://ex/b> <http://ex/q> "two words"@en .\n'
            '_:n1 <http://ex/p> "a\\"b\\\\c\\nd" .\n'
        )
        first, _ = nt(doc)
        buf = io.StringIO()
        write_ntriples(first, buf)
        second, _ = nt(buf.getvalue())
        assert sorted(first) == sorted(second)

    def test_accounting_mixed_document(self):
        doc = "# head\n<http://ex/a> <http://ex/p> <http://ex/b> .\n\nnot a triple\n"
        _, report = nt(doc)
        total_lines = 4
        assert report.triples_emitted + report.lines_skipped + len(report.errors) == total_lines

    def test_io_failure_propagates_with_byte_offset(self):
        class Flaky:
            def __init__(self):
                self.calls = 0

            def read(self, size=-1):
                self.calls += 1
                if self.calls > 1:
                    raise OSError("disk gone")
                return b"<http://ex/a> <http://ex/p> <http://ex/b> .\n"

        with pytest.raises(OSError) as err:
            list(parse_ntriples(Flaky()))
        assert err.value.bytes_read == 44

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=300))
    def test_lenient_never_raises_and_accounts_every_line(self, data):
        report = ParseReport()
        list(parse_ntriples(data, report=report))
        if not data:
            expected = 0
        else:
            expected = data.count(b"\n") + (0 if data.endswith(b"\n") else 1)
        assert report.triples_emitted + report.lines_skipped + len(report.errors) == expected


def readline_lines(stream):
    """The line reader before blocks: one ``readline`` call per line, and
    each line decoded on its own."""
    while True:
        raw = stream.readline()
        if not raw:
            return
        try:
            yield raw.rstrip(b"\r\n").decode("utf-8")
        except UnicodeDecodeError as exc:
            yield exc


def _comparable(lines):
    return [line if isinstance(line, str) else ("invalid", str(line)) for line in lines]


def _parsed(data: bytes):
    report = ParseReport()
    return list(parse_ntriples(data, report=report)), report


# line shapes, terminators (LF, CRLF, lone CR) and bytes that are not UTF-8:
# a lone continuation byte, a truncated two-byte sequence and a truncated
# three-byte one; joined in any order, with or without a final LF
_FRAGMENTS = [
    b"<http://ex/a> <http://ex/p> <http://ex/b> .",
    b'<http://ex/a> <http://ex/q> "caf\xc3\xa9" .',
    b"# comment",
    b"junk",
    b" ",
    b"\xc3\xa9",
    b"\n",
    b"\n",
    b"\r\n",
    b"\r",
    b"\xff",
    b"\xc3",
    b"\xe2\x82",
]


class TestBlockReader:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(_FRAGMENTS), max_size=30), st.integers(1, 64))
    def test_matches_readline_reader(self, fragments, block_size):
        """Blocks of 1-64 bytes split lines, CRLF pairs and multi-byte
        characters anywhere; lines, decode errors, line numbers, triples and
        reports must match the ``readline`` reader."""
        data = b"".join(fragments)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph_io, "_BLOCK_SIZE", block_size)
            lines = _comparable(_text_lines(io.BytesIO(data)))
            parsed = _parsed(data)
        assert lines == _comparable(readline_lines(io.BytesIO(data)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph_io, "_text_lines", readline_lines)
            assert parsed == _parsed(data)


def general_only(data: bytes, *, scope: str = "f0"):
    """Reference loader: every line goes to ``_parse_nt_statement``, and the
    graph is built one ``add`` at a time. Returns (graph, report)."""
    report = ParseReport()
    graph = KnowledgeGraph()
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    for lineno, raw in enumerate(lines, start=1):
        try:
            text = raw.rstrip(b"\r\n").decode("utf-8")
        except UnicodeDecodeError as exc:
            report.errors.append((lineno, f"invalid UTF-8: {exc}"))
            continue
        if not text.strip(" \t") or text.strip(" \t").startswith("#"):
            report.lines_skipped += 1
            continue
        try:
            triple = _parse_nt_statement(_Scan(text), scope)
        except _Bad as exc:
            report.errors.append((lineno, str(exc)))
            continue
        report.triples_emitted += 1
        graph.add(triple)
    return graph.freeze(), report


def graph_state(g: KnowledgeGraph):
    return (
        [g.resolve(i) for i in range(g.num_tokens)],
        [(g.out_edges(i), g.in_edges(i), g.is_node(i), g.is_literal_id(i)) for i in range(g.num_tokens)],
        list(g.triples()),
        g.num_nodes,
    )


PLAIN = [
    "<http://ex/a> <http://ex/p> <http://ex/b> .",
    '<http://ex/a> <http://ex/p> "plain" .',
    '<http://ex/a> <http://ex/q> "New York"@en-US .',
    f'<http://ex/b> <http://ex/q> "42"^^<{XSD_INT}> .',
    "<http://ex/a><http://ex/p><http://ex/c>.",
    "\t<http://ex/c> <http://ex/p> <http://ex/a> . # trailing comment",
    '<http://ex/c> <http://ex/q> "tab\there, \'quotes\' and é" .',
    "<http://ex/a> <http://ex/p> <http://ex/b> .",  # duplicate
]
GENERAL = [
    '<http://ex/a> <http://ex/q> "say \\"hi\\"" .',
    '<http://ex/a> <http://ex/q> "caf\\u00e9" .',
    "<http://ex/\\u00e9> <http://ex/p> <http://ex/a> .",
    "_:n1 <http://ex/p> <http://ex/a> .",
    "<http://ex/a> <http://ex/p> _:n1 .",
    '<http://ex/a> <http://ex/q> "x"@é .',
    '<http://ex/a> <http://ex/q> "carriage\rreturn" .',
    "<> <http://ex/p> <http://ex/a> .",
    "<http://ex/a> <http://ex/p>",
    "<http://ex/a> <http://ex/p> <http://ex/b",
    '<http://ex/a> <http://ex/q> "open .',
    "<http://ex/a> <http://ex/p> <http://ex/b> . junk",
    '"lit" <http://ex/p> <http://ex/a> .',
]


class TestFastPath:
    def mixed(self) -> bytes:
        lines = ["# header", ""]
        for plain, general in zip(PLAIN, GENERAL):
            lines += [plain, general]
        lines += GENERAL[len(PLAIN) :] + ["   ", "<http://ex/d> <http://ex/p> <http://ex/a> .\r"]
        return "\n".join(lines).encode("utf-8") + b"\n\xff\xfe\n<http://ex/d> <http://ex/q> <http://ex/e> ."

    def test_mixed_file_matches_general_parser(self, tmp_path):
        data = self.mixed()
        path = tmp_path / "mixed.nt"
        path.write_bytes(data)
        report = ParseReport()
        graph = load_graph([(path, "ntriples")], report=report)
        want_graph, want = general_only(data)
        assert graph_state(graph) == graph_state(want_graph)
        assert (report.triples_emitted, report.lines_skipped, report.errors) == (
            want.triples_emitted,
            want.lines_skipped,
            want.errors,
        )
        assert len(want.errors) == 7 and want.lines_skipped == 3
        # the general parser saw exactly the lines outside the fast path's shape
        assert report.general_lines == len(GENERAL)

    def test_report_adds_up_over_sources(self, tmp_path):
        one, two = tmp_path / "one.nt", tmp_path / "two.nt"
        one.write_bytes(self.mixed())
        two.write_text("# c\n<http://ex/a> <http://ex/p> <http://ex/z> .\nbroken\n")
        report = ParseReport()
        load_graph([(one, "ntriples"), (two, "ntriples")], report=report)
        _, first = general_only(one.read_bytes())
        assert report.triples_emitted == first.triples_emitted + 1
        assert report.lines_skipped == first.lines_skipped + 1
        assert report.errors == first.errors + [(3, "expected IRI or blank node subject")]
        assert report.general_lines == len(GENERAL) + 1


# Fragments for random N-Triples-like lines: well-formed terms and every
# shape the fast path must leave to the general parser. Well-formed parts are
# repeated so that about a third of the lines take the fast path.
_IRI_PARTS = st.sampled_from(
    ["http://ex/", "a", "é", "#", "%20"] * 4
    + ["\\u00e9", "\\U0001F600", "\\n", "\\", " ", "\t", '"', "{", "|", "^", "`", "<", "\x00"]
)
_LIT_PARTS = st.sampled_from(
    ["x", " ", "é", "'", "\t", "#", ".", "<a>"] * 2
    + ["\r", "\\", '\\"', "\\\\", "\\n", "\\r", "\\t", "\\b", "\\'", "\\u00e9", "\\x", '"']
)
_SUFFIXES = st.sampled_from(
    ["", "@en", "@en-US", f"^^<{XSD_INT}>"] * 3 + ["@é", "@", "@-", "^^<>", "^^", "^^x", "^^<a b>", "x"]
)
_WS = st.sampled_from(["", " ", " ", " ", "\t", "  ", " \t"])
_ENDS = st.sampled_from(["."] * 12 + [" . # note", ".#", ". x", "..", " .\t", ". \r", ""])
# term kinds per position; odd kinds (a literal subject, a blank predicate,
# junk) are rarer so that whole lines are often well-formed
_KINDS = (
    ["iri"] * 6 + ["random-iri"] * 3 + ["literal", "blank", "junk"],
    ["iri"] * 8 + ["random-iri"] * 3 + ["literal", "blank", "junk"],
    ["iri"] * 3 + ["random-iri"] * 2 + ["literal"] * 5 + ["blank", "junk"],
)


@st.composite
def _term(draw, kinds):
    kind = draw(st.sampled_from(kinds))
    if kind == "iri":
        return "<http://ex/" + draw(st.sampled_from(["a", "b", "p"])) + ">"
    if kind == "random-iri":
        return "<" + "".join(draw(st.lists(_IRI_PARTS, max_size=4))) + ">"
    if kind == "literal":
        return '"' + "".join(draw(st.lists(_LIT_PARTS, max_size=4))) + '"' + draw(_SUFFIXES)
    if kind == "blank":
        return draw(st.sampled_from(["_:b1", "_:", "_:a.", "_:x-y"]))
    return draw(st.sampled_from(["", "<", '"', "a", "<http://ex/a"]))


@st.composite
def _line(draw):
    parts = [draw(_WS)]
    for kinds in _KINDS:
        parts += [draw(_term(kinds)), draw(_WS)]
    return "".join(parts) + draw(_ENDS)


def _general(text: str):
    try:
        return _parse_nt_statement(_Scan(text), "f0")
    except _Bad:
        return None


class TestFastPathProperty:
    @settings(max_examples=1500, deadline=None)
    @given(_line())
    def test_fast_regex_agrees_with_general_parser(self, line):
        """The fast path accepts only lines the general parser accepts, and
        emits the general parser's triple for each."""
        want = _general(line)
        if _FAST_LINE.fullmatch(line) is not None:
            assert want is not None
        got = list(parse_ntriples(line.encode("utf-8"), bnode_scope="f0"))
        # parse_ntriples sees the line without a trailing CR
        want = _general(line.rstrip("\r"))
        assert got == ([want] if want is not None else [])


def ttl(text: str, **kwargs):
    report = ParseReport()
    triples = list(parse_turtle_subset(text.encode(), report=report, **kwargs))
    return triples, report


class TestTurtleSubset:
    def test_prefix_expansion(self):
        triples, report = ttl("@prefix ex: <http://ex/> . ex:a ex:p ex:b .")
        assert triples == [Triple("http://ex/a", "http://ex/p", "http://ex/b")]
        assert report.triples_emitted == 1

    def test_predicate_list(self):
        triples, _ = ttl("@prefix ex: <http://ex/> . ex:a ex:p ex:b ; ex:q ex:c .")
        assert triples == [
            Triple("http://ex/a", "http://ex/p", "http://ex/b"),
            Triple("http://ex/a", "http://ex/q", "http://ex/c"),
        ]

    def test_a_shorthand(self):
        triples, _ = ttl("@prefix ex: <http://ex/> . ex:a a ex:C .")
        assert triples == [Triple("http://ex/a", RDF_TYPE, "http://ex/C")]

    def test_object_list(self):
        triples, _ = ttl("@prefix ex: <http://ex/> . ex:a ex:p ex:b, ex:c .")
        assert [t.object for t in triples] == ["http://ex/b", "http://ex/c"]

    def test_literals_lang_and_prefixed_datatype(self):
        text = (
            "@prefix ex: <http://ex/> . @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
            'ex:a ex:p "hello"@en ; ex:q "5"^^xsd:integer .'
        )
        triples, _ = ttl(text)
        assert triples[0].object == '"hello"@en'
        assert triples[1].object == f'"5"^^<{XSD_INT}>'

    def test_multiline_with_comments_and_trailing_semicolon(self):
        text = (
            "@prefix ex: <http://ex/> .  # namespace\n"
            "ex:a\n  ex:p ex:b ;  # first\n  ex:q ex:c ;\n.\n"
        )
        triples, _ = ttl(text)
        assert len(triples) == 2

    def test_empty_prefix(self):
        triples, _ = ttl("@prefix : <http://ex/> . :a :p :b .")
        assert triples[0] == Triple("http://ex/a", "http://ex/p", "http://ex/b")

    def test_unsupported_property_list(self):
        with pytest.raises(UnsupportedConstructError) as err:
            list(parse_turtle_subset(b"@prefix ex: <http://ex/> .\nex:a ex:p [ ex:q ex:b ] ."))
        assert "unsupported-construct" in str(err.value)
        assert err.value.line == 2

    def test_unsupported_collection(self):
        with pytest.raises(UnsupportedConstructError):
            list(parse_turtle_subset(b"@prefix ex: <http://ex/> . ex:a ex:p (ex:b ex:c) ."))

    def test_unsupported_base(self):
        with pytest.raises(UnsupportedConstructError):
            list(parse_turtle_subset(b"@base <http://ex/> ."))

    def test_undefined_prefix(self):
        with pytest.raises(ParseError) as err:
            list(parse_turtle_subset(b"ex:a ex:p ex:b ."))
        assert "undefined prefix" in str(err.value)

    def test_matches_ntriples_on_same_graph(self):
        turtle_doc = (
            "@prefix ex: <http://ex/> .\n"
            'ex:a ex:p ex:b ; ex:q "7"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
            "ex:b a ex:C .\n"
        )
        nt_doc = (
            "<http://ex/a> <http://ex/p> <http://ex/b> .\n"
            f'<http://ex/a> <http://ex/q> "7"^^<{XSD_INT}> .\n'
            f"<http://ex/b> <{RDF_TYPE}> <http://ex/C> .\n"
        )
        from_ttl, _ = ttl(turtle_doc)
        from_nt, _ = nt(nt_doc)
        assert set(from_ttl) == set(from_nt)


# Random graphs for the Turtle/N-Triples agreement test. Each namespace gets
# a prefix, so an IRI in one may be written as a prefixed name; the empty
# prefix is one of them.
_PREFIXES = {"ex": "http://ex/", "": "http://example.org/ns#", "xsd": "http://www.w3.org/2001/XMLSchema#"}
_LOCAL = st.text(alphabet="abXY09_-.%é", max_size=5).filter(lambda local: not local.endswith("."))
_IRI = st.builds(lambda ns, local: ns + local, st.sampled_from(sorted(_PREFIXES.values())), _LOCAL)
_BLANK = st.sampled_from(["_:b0", "_:b1", "_:x-y", "_:n.1"])
_LANG = st.sampled_from(["en", "en-US", "de", "x-1"])
_DATATYPE = st.sampled_from([XSD_INT, "http://www.w3.org/2001/XMLSchema#string", "http://ex/dt"])
_LEXICAL = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8)
_LITERAL = st.builds(
    graph_io.literal_token,
    _LEXICAL,
    st.one_of(st.just(""), _LANG.map(lambda tag: "@" + tag), _DATATYPE.map(lambda dt: f"^^<{dt}>")),
)


def _turtle_iri(draw, iri: str, *, verb: bool = False) -> str:
    if verb and iri == RDF_TYPE and draw(st.booleans()):
        return "a"
    for prefix, ns in _PREFIXES.items():
        if iri.startswith(ns) and draw(st.booleans()):
            return f"{prefix}:{iri[len(ns):]}"
    # a non-ASCII character may also be written as a \u escape
    return "<%s>" % iri.replace("é", draw(st.sampled_from(["é", "\\u00E9", "\\U000000e9"])))


def _turtle_term(draw, token: str) -> str:
    if token.startswith("_:"):
        return token
    if not token.startswith('"'):
        return _turtle_iri(draw, token)
    body, quote, suffix = token.rpartition('"')
    if suffix.startswith("^^<"):
        suffix = "^^" + _turtle_iri(draw, suffix[3:-1])
    if draw(st.booleans()):  # every non-ASCII character as a \u or \U escape
        body = "".join(c if ord(c) < 128 else _uchar(c) for c in body)
    return body + quote + suffix


def _uchar(c: str) -> str:
    return "\\u%04X" % ord(c) if ord(c) < 0x10000 else "\\U%08X" % ord(c)


@st.composite
def _graph_as_turtle(draw):
    """A list of triples and a Turtle document for it that groups each run of
    one subject into a ';' predicate list and each run of one predicate into
    a ',' object list. Subjects and predicates come from small pools, and the
    triples are often sorted by them, so that such runs are common."""
    subjects = draw(st.lists(st.one_of(_IRI, _BLANK), min_size=1, max_size=3, unique=True))
    predicates = draw(st.lists(st.one_of(_IRI, st.just(RDF_TYPE)), min_size=1, max_size=3, unique=True))
    objects = st.one_of(_IRI, _BLANK, _LITERAL)
    triple = st.builds(Triple, st.sampled_from(subjects), st.sampled_from(predicates), objects)
    triples = draw(st.lists(triple, max_size=12))
    if draw(st.booleans()):
        triples.sort(key=lambda t: (subjects.index(t.subject), predicates.index(t.predicate)))

    def sep() -> str:
        return draw(st.sampled_from([" ", "\n  ", "  # note\n\t"]))

    lines = [f"@prefix {prefix}: <{ns}> ." for prefix, ns in _PREFIXES.items()]
    for subject, run in itertools.groupby(triples, key=lambda t: t.subject):
        lists = []
        for predicate, group in itertools.groupby(run, key=lambda t: t.predicate):
            object_list = ("," + sep()).join(_turtle_term(draw, t.object) for t in group)
            lists.append(_turtle_iri(draw, predicate, verb=True) + sep() + object_list)
        lines.append(_turtle_term(draw, subject) + sep() + (sep() + ";" + sep()).join(lists) + sep() + ".")
    return triples, "\n".join(lines) + "\n"


class TestTurtleMatchesNTriples:
    @settings(max_examples=300, deadline=None)
    @given(_graph_as_turtle())
    def test_same_triples_from_both_renderings(self, graph):
        """Random IRIs, blank nodes and literals with escapes, language tags
        and datatypes: the ``write_ntriples`` text and a Turtle rendering with
        prefixes, lists and prefixed datatypes parse to the same triples."""
        triples, turtle_doc = graph
        buf = io.StringIO()
        write_ntriples(triples, buf)
        from_nt, report = nt(buf.getvalue())
        assert report.errors == [] and from_nt == triples
        from_ttl, _ = ttl(turtle_doc)
        assert from_ttl == triples


_EX = "@prefix ex: <http://ex/> .\n"

# one document per error the Turtle parser raises: its class, its message and
# the line the cursor was on
TURTLE_ERRORS = [
    ("@base <http://ex/> .", UnsupportedConstructError, "unsupported-construct: @base directive", 1),
    ("@prefixx ex: <http://ex/> .", ParseError, "unknown directive @prefixx", 1),
    ("@prefix ex <http://ex/> .", ParseError, "expected prefix name ending in ':'", 1),
    ("@prefix ex: ex:a .", ParseError, "expected IRI in @prefix", 1),
    ("@prefix ex: <http://ex/\n", ParseError, "character '\\n' not allowed in IRI", 1),
    ("@prefix ex: <http://ex/> ex:a ex:p ex:b .", ParseError, "expected '.' after @prefix", 1),
    (_EX + "ex:a ex:p ex:b ,\n", ParseError, "unexpected end of input", 3),
    (_EX + "ex:a ex:p [ ex:q ex:b ] .", UnsupportedConstructError, "unsupported-construct: blank-node property list", 2),
    (_EX + "ex:a ex:p (ex:b) .", UnsupportedConstructError, "unsupported-construct: collection", 2),
    (_EX + "ex:a ex:p 'b' .", UnsupportedConstructError, "unsupported-construct: single-quoted literal", 2),
    (_EX + 'ex:a ex:p """b""" .', UnsupportedConstructError, "unsupported-construct: triple-quoted literal", 2),
    (_EX + "ex:a ex:p <http://ex/b", ParseError, "unterminated IRI", 2),
    (_EX + "ex:a ex:p <http://ex/\\u00zz> .", ParseError, "invalid \\u escape '00zz'", 2),
    (_EX + "ex:a ex:p <http://ex/\\U0001F6", ParseError, "truncated \\U escape", 2),
    (_EX + "ex:a ex:p <http://ex/\\uD800> .", ParseError, "escape \\uD800 is not a valid code point", 2),
    (_EX + "ex:a ex:p <http://ex/\\n> .", ParseError, "only \\u and \\U escapes are allowed in IRIs", 2),
    (_EX + "ex:a ex:p <http://ex/a b> .", ParseError, "character ' ' not allowed in IRI", 2),
    (_EX + "ex:a ex:p <> .", ParseError, "empty IRI", 2),
    (_EX + "ex:a ex:p _:.x .", ParseError, "invalid blank node label", 2),
    (_EX + "ex:a ex:p _x .", ParseError, "expected blank node label", 2),
    (_EX + '"s" ex:p ex:b .', ParseError, "literal not allowed here", 2),
    (_EX + "ex:a ex:p ?b .", ParseError, "expected term, found '?'", 2),
    (_EX + "a ex:p ex:b .", ParseError, "'a' is only valid in the predicate position", 2),
    (_EX + "ex:a ex:p b .", ParseError, "expected prefixed name, found 'b'", 2),
    (_EX + "ex:a ex:p no:b .", ParseError, "undefined prefix 'no:'", 2),
    (_EX + '# note\nex:a ex:p "open\nline\n', ParseError, "unterminated literal", 5),
    (_EX + 'ex:a ex:p "bad \\x" .', ParseError, "unknown escape \\x", 2),
    (_EX + 'ex:a ex:p "dangling \\', ParseError, "dangling escape at end of literal", 2),
    (_EX + 'ex:a ex:p "b"@ .', ParseError, "empty language tag", 2),
    (_EX + 'ex:a ex:p "b"^^<http://ex/\\u00zz> .', ParseError, "invalid \\u escape '00zz'", 2),
    (_EX + 'ex:a ex:p "b"^^ .', ParseError, "datatype must be an IRI or prefixed name", 2),
    (_EX + 'ex:a ex:p "b"^^no:t .', ParseError, "undefined prefix 'no:'", 2),
    (_EX + "ex:a\n  ex:p ex:b ;\n  ex:q ex:c\n  ex:r ex:d .", ParseError, "expected ',', ';' or '.'", 5),
]


class TestTurtleErrors:
    @pytest.mark.parametrize("doc, cls, message, line", TURTLE_ERRORS)
    def test_error_table(self, doc, cls, message, line):
        with pytest.raises(ParseError) as err:
            list(parse_turtle_subset(doc.encode("utf-8")))
        assert (type(err.value), str(err.value), err.value.line) == (cls, f"line {line}: {message}", line)

    def test_invalid_utf8_has_no_line(self):
        with pytest.raises(ParseError) as err:
            list(parse_turtle_subset(b"@prefix ex: <http://ex/> .\n\xff"))
        assert type(err.value) is ParseError and err.value.line is None
        assert str(err.value).startswith("invalid UTF-8: ")


class TestLoadGraph:
    def test_strict_parse_error_names_the_file(self, tmp_path):
        path = tmp_path / "bad.ttl"
        path.write_bytes(b"@prefix ex: <http://ex/> .\nex:a ex:p ex:b ex:c .\n")
        with pytest.raises(ParseError, match="expected ',', ';' or '.'") as err:
            load_graph([(path, "turtle-subset")])
        assert err.value.line == 2
        assert err.value.__notes__ == [f"reading {path}"]

    def test_counts_and_dedup(self, tmp_path):
        one = tmp_path / "one.nt"
        one.write_text(
            "<http://ex/a> <http://ex/p> <http://ex/b> .\n"
            "<http://ex/a> <http://ex/q> <http://ex/c> .\n"
            "<http://ex/b> <http://ex/p> <http://ex/c> .\n"
        )
        g = load_graph([(one, "ntriples")])
        assert g.num_edges == 3

    def test_duplicate_across_files_stored_once(self, tmp_path):
        text = "<http://ex/a> <http://ex/p> <http://ex/b> .\n"
        one, two = tmp_path / "one.nt", tmp_path / "two.nt"
        one.write_text(text)
        two.write_text(text)
        g = load_graph([(one, "ntriples"), (two, "ntriples")])
        assert g.num_edges == 1

    def test_empty_file_empty_graph(self, tmp_path):
        empty = tmp_path / "empty.nt"
        empty.write_text("")
        g = load_graph([(empty, "ntriples")])
        assert g.num_edges == 0 and g.num_nodes == 0

    def test_gzip_input(self, tmp_path):
        path = tmp_path / "g.nt.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("<http://ex/a> <http://ex/p> <http://ex/b> .\n")
        g = load_graph([(path, "ntriples")])
        assert g.num_edges == 1

    def test_blank_nodes_scoped_per_file(self, tmp_path):
        text = "_:x <http://ex/p> <http://ex/b> .\n"
        one, two = tmp_path / "one.nt", tmp_path / "two.nt"
        one.write_text(text)
        two.write_text(text)
        g = load_graph([(one, "ntriples"), (two, "ntriples")])
        assert g.num_edges == 2  # _:f0.x and _:f1.x stay distinct

    def test_mixed_formats_union(self, tmp_path):
        a = tmp_path / "a.nt"
        a.write_text("<http://ex/a> <http://ex/p> <http://ex/b> .\n")
        b = tmp_path / "b.ttl"
        b.write_text("@prefix ex: <http://ex/> . ex:b ex:p ex:c .")
        g = load_graph([(a, detect_format(a)), (b, detect_format(b))])
        assert g.num_edges == 2

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "a.nt"
        path.write_text("")
        # only the names detect_format returns; no short aliases
        for fmt in ("rdfxml", "nt", "ttl", "turtle"):
            with pytest.raises(ValueError, match="expected one of \\['ntriples', 'turtle-subset'\\]"):
                load_graph([(path, fmt)])

    def test_detect_format(self):
        assert detect_format("x.nt") == "ntriples"
        assert detect_format("x.nt.gz") == "ntriples"
        assert detect_format("x.ttl") == "turtle-subset"
        with pytest.raises(ValueError):
            detect_format("x.rdf")
