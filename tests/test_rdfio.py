from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folkgraph import rdfio
from folkgraph.config import config_lines, config_pairs
from folkgraph.rdfio import (
    ParseError,
    PrefixTable,
    parse_ntriples,
    parse_turtle,
    term_to_ntriples,
    to_ntriples,
    to_turtle,
)
from folkgraph.terms import Triple, blank, iri, lit
from oracles import isomorphic

EX = "http://example.org/"


def t(s, p, o):
    return Triple(iri(EX + s), iri(EX + p), o if not isinstance(o, str) else iri(EX + o))


# -- N-Triples ----------------------------------------------------------------


def test_parse_basic_ntriples():
    text = f'<{EX}s> <{EX}p> "hello" .\n<{EX}s> <{EX}p> <{EX}o> .\n'
    assert parse_ntriples(text) == [t("s", "p", lit("hello")), t("s", "p", "o")]


def test_parse_typed_and_tagged_literals():
    text = f'<{EX}s> <{EX}p> "5"^^<{EX}int> .\n<{EX}s> <{EX}p> "hi"@en .\n'
    assert parse_ntriples(text) == [
        t("s", "p", lit("5", datatype=EX + "int")),
        t("s", "p", lit("hi", lang="en")),
    ]


def test_parse_blank_nodes_and_comments():
    text = f"# header\n_:b0 <{EX}p> _:b1 . # trailing\n"
    (triple,) = parse_ntriples(text)
    assert triple == Triple(blank("b0"), iri(EX + "p"), blank("b1"))


def test_parse_string_escapes():
    text = f'<{EX}s> <{EX}p> "a\\nb\\t\\"c\\"\\\\d\\u00e9" .\n'
    (triple,) = parse_ntriples(text)
    assert triple.o == lit('a\nb\t"c"\\d\u00e9')


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_ntriples(f'<{EX}s> <{EX}p> <{EX}o> .\n<{EX}s> <{EX}p> "open')
    assert err.value.line == 2
    assert "unterminated" in str(err.value)
    assert "line 2" in str(err.value)


def test_invalid_line_after_many_valid_ones_keeps_scanner_position():
    valid = "".join(f"<{EX}s{i}> <{EX}p> <{EX}o> .\n" for i in range(1000))
    with pytest.raises(ParseError) as err:
        parse_ntriples(valid + f'<{EX}s> <{EX}p> "x" ;\n')
    assert (err.value.line, err.value.column) == (1001, len(f'<{EX}s> <{EX}p> "x" ') + 1)
    assert "expected '.'" in str(err.value)


def test_pipeline_output_is_read_without_the_scanner(monkeypatch):
    triples = [
        t("s", "p", "o"),
        t("s", "p", lit("plain words")),
        t("s", "p", lit("5", datatype=EX + "int")),
        t("s", "p", lit("hi", lang="en-GB")),
        t("s", "p", lit("")),
    ]
    text = "# header\n\n" + to_ntriples(triples).replace("\n", "\r\n")

    def scanner_called(text):
        raise AssertionError("fell back to the scanner")

    monkeypatch.setattr(rdfio, "_scan_ntriples", scanner_called)
    assert parse_ntriples(text) == sorted(set(triples))


@pytest.mark.parametrize(
    "parse, text",
    [
        pytest.param(parse_ntriples, f'<{EX}s> <{EX}p> "x"^^<> .\n<{EX}s> <{EX}p> "x" .\n', id="ntriples-line"),
        pytest.param(parse_ntriples, f'_:b <{EX}p> "x"^^<> .\n', id="ntriples-scanner"),
        pytest.param(parse_turtle, f'<{EX}s> <{EX}p> "x", "x"^^<> .\n', id="turtle-iri"),
        pytest.param(parse_turtle, f'@prefix e: <> .\n<{EX}s> <{EX}p> "x"^^e: .\n', id="turtle-prefixed-name"),
    ],
)
def test_empty_datatype_iri_is_a_parse_error(parse, text):
    """``"x"^^<>`` would be written as ``"x"``, the plain literal, so it is
    rejected where it is read, with the position of the datatype."""
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "empty datatype IRI" in str(err.value)
    line = text.split("\n")[err.value.line - 1]
    assert line[err.value.column - 1 :].startswith(("<> .", "e: ."))


def test_literal_subject_rejected():
    with pytest.raises(ParseError):
        parse_ntriples(f'"s" <{EX}p> <{EX}o> .')


def test_missing_dot_rejected():
    with pytest.raises(ParseError):
        parse_ntriples(f"<{EX}s> <{EX}p> <{EX}o>")


# -- Turtle subset ------------------------------------------------------------


def test_turtle_prefixes_and_a():
    text = """
    @prefix ex: <http://example.org/> .
    ex:s a ex:Thing .
    """
    (triple,) = parse_turtle(text)
    assert triple == Triple(
        iri(EX + "s"), iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), iri(EX + "Thing")
    )


def test_turtle_predicate_and_object_lists():
    text = """
    @prefix ex: <http://example.org/> .
    ex:s ex:p ex:o1, ex:o2 ;
         ex:q "v" .
    """
    assert set(parse_turtle(text)) == {
        t("s", "p", "o1"),
        t("s", "p", "o2"),
        t("s", "q", lit("v")),
    }


def test_turtle_local_names_may_contain_dots():
    text = '@prefix pb: <http://example.org/pb/> .\npb:risk.01 pb:p pb:ok.\n'
    (triple,) = parse_turtle(text)
    assert triple.s == iri("http://example.org/pb/risk.01")
    assert triple.o == iri("http://example.org/pb/ok")


def test_turtle_undeclared_prefix_is_an_error():
    with pytest.raises(ParseError, match="undeclared prefix"):
        parse_turtle("ex:s ex:p ex:o .")


def test_turtle_unsupported_forms_rejected():
    header = "@prefix ex: <http://example.org/> .\n"
    for body in ("ex:s ex:p (1 2) .", "ex:s ex:p [ ex:q ex:o ] .", "ex:s ex:p 5 ."):
        with pytest.raises(ParseError):
            parse_turtle(header + body)


def test_turtle_unknown_directive_rejected():
    with pytest.raises(ParseError, match="unsupported directive"):
        parse_turtle("@base <http://example.org/> .")


# -- serialization ------------------------------------------------------------


def test_ntriples_output_sorted_and_deduplicated():
    triples = [t("b", "p", "o"), t("a", "p", "o"), t("b", "p", "o")]
    lines = to_ntriples(triples).splitlines()
    assert lines == [
        f"<{EX}a> <{EX}p> <{EX}o> .",
        f"<{EX}b> <{EX}p> <{EX}o> .",
    ]


def test_term_rendering_escapes_literals():
    assert term_to_ntriples(lit('a"b\n')) == '"a\\"b\\n"'
    assert term_to_ntriples(lit("x", lang="en")) == '"x"@en'
    assert term_to_ntriples(lit("5", datatype=EX + "int")) == f'"5"^^<{EX}int>'


ESCAPE_SAMPLES = ["naïve “quoted” text", "日本語\u00a0🎲", "\\u0041 is not an escape", "\x0b\x0c\u2028"]


@pytest.mark.parametrize("special", sorted(rdfio._UNESCAPES))
@pytest.mark.parametrize("text", ESCAPE_SAMPLES)
def test_escaped_literals_read_back(special, text):
    for value in (special, special * 3, f"{text}{special}{text}", f"{special}{text}{special}"):
        for term in (lit(value), lit(value, lang="en"), lit(value, datatype=EX + "t")):
            rendered = term_to_ntriples(term)
            assert "\n" not in rendered and "\r" not in rendered
            line = f"<{EX}s> <{EX}p> {rendered} .\n"
            assert parse_ntriples(line) == [Triple(iri(EX + "s"), iri(EX + "p"), term)]


def test_literal_escapes_are_the_unescape_table():
    value = "".join(rdfio._UNESCAPES) + "é"
    assert term_to_ntriples(lit(value)) == '"' + "".join(rdfio._UNESCAPES.values()) + 'é"'


def test_turtle_serialization_round_trips():
    triples = [
        t("s", "p", "o1"),
        t("s", "p", "o2"),
        t("s", "q", lit("line\nbreak")),
        Triple(iri(EX + "s"), iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), iri(EX + "T")),
    ]
    text = to_turtle(triples, PrefixTable({"ex": EX}))
    assert "a ex:T" in text
    assert set(parse_turtle(text)) == set(triples)


def test_prefix_table_expand_and_compact(tmp_path):
    config = tmp_path / "prefixes.cfg"
    config.write_text("# namespaces\nex = http://example.org/\nfoaf = http://xmlns.com/foaf/0.1/\n")
    table = PrefixTable.from_file(config)
    assert table.expand("ex:thing") == iri(EX + "thing")
    assert table.expand(f"<{EX}thing>") == iri(EX + "thing")
    assert table.compact(EX + "thing") == "ex:thing"
    assert table.compact("urn:elsewhere") == "<urn:elsewhere>"
    assert table.expand("http://elsewhere.org/x") == iri("http://elsewhere.org/x")
    assert table.expand("<urn:elsewhere>") == iri("urn:elsewhere")
    for value in (EX + "thing", "urn:elsewhere", "http://elsewhere.org/x", "ex:thing", "plain"):
        assert table.expand(table.compact(value)) == iri(value)


def _compact_by_scan(mapping: dict[str, str], value: str) -> str:
    """Compaction as a scan of every namespace, keeping the first of the longest matches."""
    best, best_prefix = "", None
    for prefix, namespace in mapping.items():
        if value.startswith(namespace) and len(namespace) > len(best):
            best, best_prefix = namespace, prefix
    if best_prefix is None:
        return value if ":" not in value or value.split(":", 1)[1].startswith("//") else f"<{value}>"
    return f"{best_prefix}:{value[len(best):]}"


# Pieces that make namespaces overlap (one a prefix of another, or equal under
# two prefixes), locals after "//", colons, empty namespaces and regex metacharacters.
iri_pieces = ["http:", "//", "urn:", "ex", "a", "b/", "#", ":", ".*", "(", "é", ""]
iri_text = st.lists(st.sampled_from(iri_pieces), max_size=4).map("".join)


@settings(max_examples=300)
@given(st.dictionaries(st.sampled_from(["ex", "a", "vn", "vb", "x1", ""]), iri_text, max_size=6), st.data())
def test_prefix_compaction_agrees_with_a_scan_of_every_namespace(mapping, data):
    table = PrefixTable(mapping)
    namespaces = sorted(mapping.values()) + [""]
    values = data.draw(st.lists(st.tuples(st.sampled_from(namespaces), iri_text).map("".join), max_size=8))
    for value in values + values:  # the second time from the table's memory
        assert table.compact(value) == _compact_by_scan(mapping, value)


def test_prefix_table_rejects_unknown_prefix():
    table = PrefixTable({"folk": "http://example.org/folk/"})
    with pytest.raises(ValueError, match="unknown prefix 'flk'"):
        table.expand("flk:Risk")
    with pytest.raises(ValueError, match="unknown prefix 'urn'"):
        table.expand("urn:elsewhere")


def test_shipped_prefix_table_keeps_hash_namespaces():
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    table = PrefixTable.from_file(fixtures / "prefixes.cfg")
    assert table.mapping["rdf"] == "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
    assert table.expand("rdf:type") == iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
    assert table.compact("http://www.w3.org/2002/07/owl#sameAs") == "owl:sameAs"


def test_config_comments_start_a_line_or_follow_whitespace(tmp_path):
    path = tmp_path / "entries.cfg"
    path.write_text("# header\n  # indented\nns = urn:x#  # trailing\ntab = urn:y#\t# note\nbare = urn:z#\n\n")
    assert config_lines(path) == ["ns = urn:x#", "tab = urn:y#", "bare = urn:z#"]
    assert config_pairs(path, ValueError, "entry") == [("ns", "urn:x#"), ("tab", "urn:y#"), ("bare", "urn:z#")]
    path.write_text("ns urn:x\n")
    with pytest.raises(ValueError, match="malformed entry: 'ns urn:x'"):
        config_pairs(path, ValueError, "entry")


simple_literals = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20
).map(lit)
objects = st.one_of(
    st.integers(0, 5).map(lambda i: iri(f"{EX}o{i}")),
    simple_literals,
    st.integers(0, 3).map(lambda i: blank(f"b{i}")),
)
triples_strategy = st.lists(
    st.builds(
        Triple,
        st.one_of(
            st.integers(0, 5).map(lambda i: iri(f"{EX}s{i}")),
            st.integers(0, 3).map(lambda i: blank(f"b{i}")),
        ),
        st.integers(0, 3).map(lambda i: iri(f"{EX}p{i}")),
        objects,
    ),
    max_size=25,
)


@given(triples_strategy)
def test_ntriples_round_trip_preserves_triples(triples):
    assert set(parse_ntriples(to_ntriples(triples))) == set(triples)


@given(triples_strategy)
def test_ntriples_round_trip_is_isomorphic(triples):
    assert isomorphic(parse_ntriples(to_ntriples(triples)), triples)


@given(triples_strategy)
def test_turtle_round_trip_preserves_triples(triples):
    table = PrefixTable({"ex": EX})
    assert set(parse_turtle(to_turtle(triples, table))) == set(triples)


# -- line reader against the scanner -------------------------------------------


nt_terms = st.one_of(
    st.integers(0, 3).map(lambda i: iri(f"{EX}n{i}")),
    st.integers(0, 2).map(lambda i: blank(f"b{i}")),
    st.text(alphabet=st.sampled_from('ab "\\\t\r\né'), max_size=6).map(lit),
    st.sampled_from(["en", "en-GB", "x1"]).map(lambda tag: lit("tagged", lang=tag)),
    st.integers(0, 1).map(lambda i: lit(str(i), datatype=f"{EX}dt{i}")),
)


@st.composite
def nt_documents(draw):
    """to_ntriples-style lines mixed with comments, blank lines, CRLF endings,
    triples split over two lines, and sometimes a cut that breaks the text."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(["triple"] * 6 + ["comment", "blank", "split"]))
        s = draw(st.integers(0, 7).map(lambda i: blank("b0") if i == 7 else iri(f"{EX}n{i}")))
        o = draw(nt_terms)
        s_text, o_text = term_to_ntriples(s), term_to_ntriples(o)
        if shape == "comment":
            lines.append(draw(st.sampled_from(["# note", "  #", "#<x> <y> <z> ."])))
        elif shape == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        elif shape == "split":
            lines.append(f"{s_text} <{EX}p>\n  {o_text} .")
        else:
            lines.append(f"{s_text} <{EX}p> {o_text} .")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = "".join(line + newline for line in lines)
    if text and draw(st.integers(0, 3)) == 0:
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


def _outcome(reader, text):
    try:
        return reader(text)
    except ParseError as exc:
        return ("error", exc.line, exc.column, str(exc))


@settings(max_examples=300)
@given(nt_documents())
def test_line_reader_agrees_with_scanner(text):
    assert _outcome(parse_ntriples, text) == _outcome(rdfio._scan_ntriples, text)
