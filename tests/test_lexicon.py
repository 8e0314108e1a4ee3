import pytest

from folkgraph.lexicon import LexiconError, sense_rank
from folkgraph.terms import Pattern, Variable
from kb import lexicon_from_turtle, t

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
    frames = store.objects(t("wn:risk-verb-2"), t("fg:evokes"))
    assert t("fs:RunRisk") in frames
    bgp = store.match([Pattern(t("wn:risk-verb-2"), t("fg:evokes"), Variable("f"))])
    assert frames == [b["f"] for b in bgp]
    assert store.objects(t("wn:act_of_dishonesty-noun-1"), t("fg:evokes")) == []
    assert store.objects(t("wn:risk-verb-2"), t("fg:senseKey")) == [t("vn:Risk_94000000")]
    assert store.objects(t("wn:risk-noun-1"), t("fg:senseKey")) == []


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
