import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folkgraph.lexicon import Lexicon, LexiconError, sense_rank
from folkgraph.manifest import load_manifest
from folkgraph.rdfio import parse, parse_turtle
from folkgraph.store import TripleStore
from folkgraph.terms import Pattern, Triple, Variable, lit
from folkgraph.values import build_model, load_value_manifest
from kb import LEXICON_GRAPH, PREFIX_HEADER, lexicon_from_turtle, t
from oracles import objects, random_lexical_kb, reference_lexicon_tables

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

RISK_KB = """
lex:risk-noun a fg:LexicalEntry ;
    fg:lemma "risk" ;
    fg:pos "noun" ;
    fg:sense wn:risk-noun-1, wn:risk-noun-2 ;
    fg:form "risks" ;
    fg:conceptAnchor cn:risk .
lex:risk-verb a fg:LexicalEntry ;
    fg:lemma "risk" ;
    fg:pos "verb" ;
    fg:sense wn:risk-verb-2, wn:risk-verb-1 ;
    fg:form "risks", "risked", "risking" .
lex:act-of-dishonesty a fg:LexicalEntry ;
    fg:lemma "act of dishonesty" ;
    fg:pos "multiword" ;
    fg:sense wn:act_of_dishonesty-noun-1 .

wn:risk-noun-1 fg:evokes fs:RiskySituation .
wn:risk-verb-1 fg:evokes fs:Daring, fs:Endangering .
wn:risk-verb-2 fg:evokes fs:RunRisk, fs:RiskySituation .
wn:risk-verb-2 fg:senseKey vn:Risk_94000000 .
wn:risk-verb-2 owl:sameAs yago:RiskTaking .
yago:RiskTaking owl:sameAs wn:risk-verb-2 .

fs:RiskySituation a fg:Frame ;
    fg:element fse:RiskySituation.Asset, fse:RiskySituation.Situation,
        fse:RiskySituation.DangerousEntity .
fse:RiskySituation.Asset rdfs:label "Asset" ; fg:elementType "core" .
fse:RiskySituation.Situation rdfs:label "Situation" ; fg:elementType "peripheral" .
fse:RiskySituation.DangerousEntity rdfs:label "Dangerous_entity" ; fg:elementType "extraThematic" .
fs:RunRisk a fg:Frame .
"""


@pytest.fixture(scope="module")
def risk():
    return lexicon_from_turtle(RISK_KB)


def test_sense_rank_reads_trailing_integer():
    assert sense_rank(t("wn:risk-verb-2")) == 2
    assert sense_rank(t("wn:risk-noun-1")) == 1
    assert sense_rank(t("fs:RunRisk")) == 10**9


def test_lookup_lemma_orders_noun_before_verb(risk):
    _, lexicon = risk
    entries = lexicon.lookup_lemma("risk")
    assert [e.pos for e in entries] == ["noun", "verb"]
    assert [s.value for s in entries[1].senses] == [
        t("wn:risk-verb-1").value,
        t("wn:risk-verb-2").value,
    ]


def test_lookup_lemma_filters_by_pos(risk):
    _, lexicon = risk
    assert [e.pos for e in lexicon.lookup_lemma("risk", pos="verb")] == ["verb"]
    assert lexicon.lookup_lemma("zzzz-not-a-word") == []
    with pytest.raises(LexiconError):
        lexicon.lookup_lemma("")


def test_lookup_form_covers_inflections_and_lemma(risk):
    _, lexicon = risk
    assert {e.pos for e in lexicon.lookup_form("risks")} == {"noun", "verb"}
    assert [e.pos for e in lexicon.lookup_form("risked")] == ["verb"]
    assert {e.pos for e in lexicon.lookup_form("risk")} == {"noun", "verb"}


def test_multiwords_listed_longest_first(risk):
    _, lexicon = risk
    assert lexicon.multiwords() == [("act", "of", "dishonesty")]


def test_frames_of_sense_matches_bgp(risk):
    store, _ = risk
    frames = objects(store, t("wn:risk-verb-2"), t("fg:evokes"))
    assert t("fs:RunRisk") in frames
    bgp = store.match([Pattern(t("wn:risk-verb-2"), t("fg:evokes"), Variable("f"))])
    assert frames == [b["f"] for b in bgp]
    assert objects(store, t("wn:act_of_dishonesty-noun-1"), t("fg:evokes")) == []
    assert objects(store, t("wn:risk-verb-2"), t("fg:senseKey")) == [t("vn:Risk_94000000")]
    assert objects(store, t("wn:risk-noun-1"), t("fg:senseKey")) == []


def test_frame_elements_cover_every_element_type(risk):
    _, lexicon = risk
    elements = lexicon.frame_elements(t("fs:RiskySituation"))
    assert {fe.name for fe in elements} == {"Asset", "Situation", "Dangerous_entity"}
    assert {fe.element_type for fe in elements} == {"core", "peripheral", "extraThematic"}
    assert [fe.id for fe in elements] == sorted(fe.id for fe in elements)
    assert lexicon.frame_elements(t("fs:RunRisk")) == []


def test_unknown_frame_rejected(risk):
    _, lexicon = risk
    with pytest.raises(LexiconError, match="unknown frame"):
        lexicon.frame_elements(t("fs:Missing"))


def test_entry_without_sense_rejected():
    with pytest.raises(LexiconError, match="no senses"):
        lexicon_from_turtle('lex:x a fg:LexicalEntry ; fg:lemma "x" ; fg:pos "noun" .')


def test_unknown_pos_rejected():
    with pytest.raises(LexiconError, match="unknown pos"):
        lexicon_from_turtle(
            'lex:x a fg:LexicalEntry ; fg:lemma "x" ; fg:pos "interjection" ; fg:sense wn:x-noun-1 .'
        )


def test_asymmetric_same_as_rejected():
    with pytest.raises(LexiconError, match="asymmetric"):
        lexicon_from_turtle("wn:a-noun-1 owl:sameAs yago:A .")


def test_duplicate_element_names_rejected():
    with pytest.raises(LexiconError, match="duplicate element name"):
        lexicon_from_turtle(
            """
            fs:F a fg:Frame ; fg:element fse:F.a, fse:F.b .
            fse:F.a rdfs:label "Agent" ; fg:elementType "core" .
            fse:F.b rdfs:label "Agent" ; fg:elementType "core" .
            """
        )


def test_first_invalid_entry_in_term_order_is_named():
    text = """
    lex:b a fg:LexicalEntry ; fg:lemma "b" ; fg:pos "interjection" ; fg:sense wn:b-noun-1 .
    lex:a a fg:LexicalEntry ; fg:lemma "a" ; fg:pos "noun" .
    """
    with pytest.raises(LexiconError, match=re.escape(t("lex:a").value) + ": entry has no senses"):
        lexicon_from_turtle(text)


# -- lexical graphs that share triples ---------------------------------------------

RISKY = """
lex:risky-adjective a fg:LexicalEntry ; fg:lemma "risky" ; fg:pos "adjective" ;
    fg:sense wn:risky-adjective-1 ; fg:form "riskier" ; fg:conceptAnchor cn:risk .
fs:Risk a fg:Frame ; fg:element fse:Risk.Asset .
fse:Risk.Asset rdfs:label "Asset" ; fg:elementType "core" .
wn:risky-adjective-1 owl:sameAs yago:Risky .
yago:Risky owl:sameAs wn:risky-adjective-1 .
"""


def lexicon_over(*texts: str) -> Lexicon:
    """A lexicon over one lexical graph per Turtle text."""
    store = TripleStore()
    names = [t(f"g:lexical{i}") for i in range(len(texts))]
    for name, text in zip(names, texts):
        store.extend(name, parse_turtle(PREFIX_HEADER + text))
    store.freeze()
    return Lexicon(store, names)


def test_entry_stated_in_two_lexical_graphs_is_one_entry():
    lexicon = lexicon_over(RISKY, RISKY)
    [entry] = lexicon.lookup_lemma("risky")
    assert entry.node == t("lex:risky-adjective") and entry.concept_anchors == (t("cn:risk"),)
    assert lexicon.lookup_form("risky") == lexicon.lookup_form("riskier") == [entry]
    assert [fe.name for fe in lexicon.frame_elements(t("fs:Risk"))] == ["Asset"]
    assert lexicon.tables() == lexicon_over(RISKY).tables()


def test_entry_typed_in_two_lexical_graphs_is_one_entry():
    typed = "lex:take-a-chance a fg:LexicalEntry ."
    entry = typed + ' lex:take-a-chance fg:lemma "take a chance" ; fg:pos "multiword" ; fg:sense wn:take-a-chance-1 .'
    lexicon = lexicon_over(entry, typed)
    assert [e.node for e in lexicon.lookup_lemma("take a chance")] == [t("lex:take-a-chance")]
    assert lexicon.multiwords() == [("take", "a", "chance")]
    assert lexicon.tables() == lexicon_over(entry).tables()


def test_distinct_lemma_literals_rejected():
    """The literals "x" and "x"@en are two lemmas, whether one graph or two state them."""
    with pytest.raises(LexiconError, match="expected exactly one lemma, found 2"):
        lexicon_from_turtle('lex:x a fg:LexicalEntry ; fg:lemma "x", "x"@en ; fg:pos "noun" ; fg:sense wn:x-noun-1 .')
    entry = 'lex:x a fg:LexicalEntry ; fg:pos "noun" ; fg:sense wn:x-noun-1 ; fg:lemma '
    with pytest.raises(LexiconError, match="expected exactly one lemma, found 2"):
        lexicon_over(entry + '"x" .', entry + '"x"@en .')


def test_entry_split_over_two_lexical_graphs_is_read_whole():
    first, second = 'lex:x a fg:LexicalEntry ; fg:lemma "x" .', 'lex:x fg:pos "noun" ; fg:sense wn:x-noun-1 .'
    [entry] = lexicon_over(first, second).lookup_lemma("x")
    assert (entry.pos, entry.senses) == ("noun", (t("wn:x-noun-1"),))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_lexicon_equals_the_per_subject_build(seed):
    """On one lexical graph, the build from predicate rows gives the tables the
    per-subject build gives; a value graph's labels and lemmas stay out."""
    rng = random.Random(seed)
    triples = random_lexical_kb(rng)
    values = t("g:values")
    store = TripleStore()
    store.extend(LEXICON_GRAPH, triples)
    store.extend(values, [Triple(tr.s, tr.p, lit("other")) for tr in triples if tr.o.kind == "literal"])
    store.extend(values, [tr for tr in triples if rng.random() < 0.3])
    store.freeze()
    assert Lexicon(store, [LEXICON_GRAPH]).tables() == reference_lexicon_tables(store, [LEXICON_GRAPH])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_lexical_graphs_that_share_triples_read_as_their_union(seed):
    rng = random.Random(seed)
    triples = random_lexical_kb(rng)
    whole, split = TripleStore(), TripleStore()
    whole.extend(LEXICON_GRAPH, triples)
    names = [t("g:lexical0"), t("g:lexical1")]
    for name in names:
        split.create_graph(name)
    for tr in triples:
        for name in rng.choice([names[:1], names[1:], names]):
            split.add(name, tr)
    assert Lexicon(split, names).tables() == Lexicon(whole, [LEXICON_GRAPH]).tables()


def test_shipped_fixture_lexicon_equals_the_per_subject_build():
    loaded = load_manifest(FIXTURES / "manifest.cfg")
    store = TripleStore()
    for graph_file in loaded.graph_files:
        store.extend(graph_file.name, parse(graph_file.path.read_text(encoding="utf-8"), graph_file.fmt))
    for name, triples in build_model(load_value_manifest(loaded.values_csv, loaded.prefixes)).module_graphs().items():
        store.extend(name, triples)
    lexical = [g.name for g in loaded.graph_files if g.role == "lexical"]
    tables = Lexicon(store, lexical).tables()
    assert tables == reference_lexicon_tables(store, lexical)
    assert len(tables[0]) > 50
