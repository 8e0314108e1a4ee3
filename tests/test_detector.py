import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folkgraph.detector import Detector, DetectorError, StanceJudgment
from folkgraph.lexicon import Lexicon
from folkgraph.rdfio import to_ntriples
from folkgraph.store import TripleStore
from folkgraph.terms import Triple, lit
from folkgraph.vocab import (
    ACTIVATES,
    AFFECT_POLARITY,
    AFFECT_ROLE,
    ANCHOR,
    EVOKES,
    FORM,
    FRAME,
    LEMMA,
    LEXICAL_ENTRY,
    POS,
    PREFIXES,
    RDF_TYPE,
    SENSE,
    SENSE_KEY,
    SENTENCE_NODE,
    SPAN_START,
    STANCE_ROLE,
    STANCE_TARGET,
    TRIGGERS,
)
from kb import LEXICON_GRAPH, pipeline_from_turtle, store_from_turtle, t
from oracles import objects, random_lexical_kb, reference_activation, reference_analyze, reference_stances

LEXICAL = """
lex:dishonest-adjective a fg:LexicalEntry ; fg:lemma "dishonest" ; fg:pos "adjective" ;
    fg:sense wn:dishonest-adjective-1 .
lex:national-adjective a fg:LexicalEntry ; fg:lemma "national" ; fg:pos "adjective" ;
    fg:sense wn:national-adjective-1 .
lex:dangerous-adjective a fg:LexicalEntry ; fg:lemma "dangerous" ; fg:pos "adjective" ;
    fg:sense wn:dangerous-adjective-1 .
lex:course-noun a fg:LexicalEntry ; fg:lemma "course" ; fg:pos "noun" ;
    fg:sense wn:course-noun-1, wn:course-noun-2 .
lex:act-of-dishonesty a fg:LexicalEntry ; fg:lemma "act of dishonesty" ; fg:pos "multiword" ;
    fg:sense wn:act-of-dishonesty-1 .
lex:steal-verb a fg:LexicalEntry ; fg:lemma "steal" ; fg:pos "verb" ;
    fg:sense wn:steal-verb-1 ; fg:form "stole", "stolen", "steals", "stealing" .
lex:expose-verb a fg:LexicalEntry ; fg:lemma "expose" ; fg:pos "verb" ;
    fg:sense wn:expose-verb-1 ; fg:form "exposed", "exposes", "exposing" .
lex:cheat-verb a fg:LexicalEntry ; fg:lemma "cheat" ; fg:pos "verb" ;
    fg:sense wn:cheat-verb-1 ; fg:form "cheated", "cheats", "cheating" .

wn:dishonest-adjective-1 fg:evokes fs:Candidness .
wn:national-adjective-1 fg:evokes fs:PoliticalLocales .
wn:dangerous-adjective-1 fg:evokes fs:RiskySituation .
wn:course-noun-1 fg:evokes fs:Education .
wn:act-of-dishonesty-1 fg:evokes fs:Law .
wn:steal-verb-1 fg:senseKey vn:Steal_10050000 .
wn:expose-verb-1 fg:senseKey vn:Expose_48012000 .
wn:cheat-verb-1 fg:senseKey vn:Cheat_10051000 .
vn:Expose_48012000 fg:evokes fs:RevealSecret .

vn:Steal_10050000 fg:affectRole "Agent" ; fg:affectPolarity "negative" .
vn:Cheat_10051000 fg:affectRole "Agent" ; fg:affectPolarity "negative" .

fs:Candidness a fg:Frame .
fs:PoliticalLocales a fg:Frame .
fs:RiskySituation a fg:Frame .
fs:Education a fg:Frame .
fs:Law a fg:Frame .
fs:RevealSecret a fg:Frame .
"""

TRIGGERS_TTL = """
fs:Candidness fg:triggers mft:Loyalty .
wn:dishonest-adjective-1 fg:triggers mft:Loyalty .
wn:national-adjective-1 fg:triggers mft:Loyalty .
fs:RevealSecret fg:triggers mft:Betrayal .
vn:Expose_48012000 fg:triggers mft:Betrayal .
fs:Law fg:triggers folk:Rigor .
wn:act-of-dishonesty-1 fg:triggers folk:Rigor .
wn:course-noun-1 fg:triggers folk:Learning .
fs:Education fg:triggers folk:Learning .
wn:dangerous-adjective-1 fg:triggers folk:Risk .
fs:RiskySituation fg:triggers folk:Risk .
"""

LEAK_SENTENCE = (
    "And however flawed or dishonest Macron may be.....it is a far greater act of "
    "dishonesty to steal his data and expose it, hoping to change the course of a "
    "national election for the purpose of an outside group. That is far far more "
    "dangerous than voting for one flawed man."
)


@pytest.fixture(scope="module")
def pipeline():
    return pipeline_from_turtle(LEXICAL, {"g:triggers-test": TRIGGERS_TTL})


@pytest.fixture(scope="module")
def detector(pipeline):
    return Detector(*pipeline)


def test_single_adjective_sentence(detector):
    graph = detector.analyze("That is dangerous.", sentence_id="d1")
    assert [n.anchor for n in graph.nodes] == ["dangerous"]
    node = graph.nodes[0]
    assert node.span == (8, 17)
    assert node.sense == t("wn:dangerous-adjective-1")
    assert node.frames == (t("fs:RiskySituation"),)
    result = detector.detect_values(graph)
    assert result.values == [t("folk:Risk")]


def test_multiword_segment_is_one_node(detector):
    graph = detector.analyze("act of dishonesty")
    assert len(graph.nodes) == 1
    node = graph.nodes[0]
    assert node.pos == "multiword"
    assert node.span == (0, 17)
    assert node.frames == (t("fs:Law"),)
    assert detector.detect_values(graph).values == [t("folk:Rigor")]


def test_multiword_spans_do_not_overlap(detector):
    graph = detector.analyze("act of dishonesty after act of dishonesty")
    spans = [n.span for n in graph.nodes]
    assert spans == [(0, 17), (24, 41)]


def test_empty_text_rejected(detector):
    with pytest.raises(DetectorError, match="empty"):
        detector.analyze("")


def test_unknown_mode_rejected(pipeline):
    with pytest.raises(DetectorError, match="mode"):
        Detector(*pipeline, mode="bestSense")


def test_unlexicalized_text_flags_no_graph(detector):
    graph = detector.analyze("imho brb lol")
    assert graph.no_graph
    result = detector.detect_values(graph)
    assert result.values == []
    summary = result.summary(PREFIXES)
    assert summary["noGraph"] is True
    assert summary["values"] == []


def test_inflected_form_resolves_to_lemma(detector):
    graph = detector.analyze("He stole the data.")
    assert [(n.lemma, n.pos) for n in graph.nodes] == [("steal", "verb")]
    assert graph.nodes[0].verb_classes == (t("vn:Steal_10050000"),)


def test_worked_example_values_and_paths(detector):
    result = detector.run(LEAK_SENTENCE, sentence_id="357")
    assert [n.anchor for n in result.graph.nodes] == [
        "dishonest", "act of dishonesty", "steal", "expose", "course", "national", "dangerous",
    ]
    assert result.values == [
        t("folk:Learning"), t("folk:Rigor"), t("folk:Risk"), t("mft:Betrayal"), t("mft:Loyalty"),
    ]
    chains = {path.chain for path in result.paths}
    assert (t("wn:dishonest-adjective-1"), "evokes", t("fs:Candidness"), "triggers", t("mft:Loyalty")) in chains
    assert (t("wn:national-adjective-1"), "triggers", t("mft:Loyalty")) in chains
    assert (t("vn:Expose_48012000"), "evokes", t("fs:RevealSecret"), "triggers", t("mft:Betrayal")) in chains
    assert (t("wn:act-of-dishonesty-1"), "evokes", t("fs:Law"), "triggers", t("folk:Rigor")) in chains
    assert (t("wn:course-noun-1"), "triggers", t("folk:Learning")) in chains
    assert (t("wn:dangerous-adjective-1"), "triggers", t("folk:Risk")) in chains
    assert (t("fs:RiskySituation"), "triggers", t("folk:Risk")) in chains


def test_worked_example_stance(detector):
    result = detector.run(LEAK_SENTENCE, sentence_id="357")
    steal_index = next(i for i, n in enumerate(result.graph.nodes) if n.lemma == "steal")
    target_index = next(i for i, n in enumerate(result.graph.nodes) if n.pos == "multiword")
    assert result.stances == [
        StanceJudgment(t("vn:Steal_10050000"), "Agent", "negative", steal_index, target_index)
    ]


def test_every_chain_link_is_a_store_triple(pipeline, detector):
    store, _ = pipeline
    result = detector.run(LEAK_SENTENCE, sentence_id="357")
    assert result.paths
    for path in result.paths:
        for link in path.links():
            assert link.o in objects(store, link.s, link.p), link


def test_result_triples_cover_annotations_and_justifications(detector):
    result = detector.run(LEAK_SENTENCE, sentence_id="357")
    triples = result.triples()
    n0 = result.graph.nodes[0].node
    assert Triple(n0, ANCHOR, lit("dishonest")) in triples
    assert Triple(n0, ACTIVATES, t("mft:Loyalty")) in triples
    assert Triple(t("fs:Candidness"), TRIGGERS, t("mft:Loyalty")) in triples
    steal_node = next(n for n in result.graph.nodes if n.lemma == "steal")
    mw_node = next(n for n in result.graph.nodes if n.pos == "multiword")
    assert Triple(steal_node.node, STANCE_ROLE, lit("Agent")) in triples
    assert Triple(steal_node.node, STANCE_TARGET, mw_node.node) in triples
    starts = {tr for tr in triples if tr.p == SPAN_START}
    assert len(starts) == len(result.graph.nodes)


def test_two_stance_verbs_are_span_ordered(detector):
    graph = detector.analyze("The course made him cheat and steal.", sentence_id="s2")
    judgments = detector.stance_query(graph)
    course = next(i for i, n in enumerate(graph.nodes) if n.lemma == "course")
    cheat = next(i for i, n in enumerate(graph.nodes) if n.lemma == "cheat")
    steal = next(i for i, n in enumerate(graph.nodes) if n.lemma == "steal")
    assert judgments == [
        StanceJudgment(t("vn:Cheat_10051000"), "Agent", "negative", cheat, course),
        StanceJudgment(t("vn:Steal_10050000"), "Agent", "negative", steal, course),
    ]


def test_stance_skipped_without_preceding_nominal(detector):
    graph = detector.analyze("Steal the thing.")
    assert detector.stance_query(graph) == []


def test_no_verbs_means_no_stances(detector):
    graph = detector.analyze("That is dangerous.")
    assert detector.stance_query(graph) == []


def test_all_senses_is_superset_of_first_sense(pipeline):
    first_sense = Detector(*pipeline, mode="firstSense")
    all_senses = Detector(*pipeline, mode="allSenses")
    for text in (LEAK_SENTENCE, "the course is dangerous", "act of dishonesty"):
        first = first_sense.detect_values(first_sense.analyze(text))
        every = all_senses.detect_values(all_senses.analyze(text))
        assert set(first.values) <= set(every.values)


def test_first_sense_one_node_per_unit(pipeline):
    graph = Detector(*pipeline, mode="firstSense").analyze("course course")
    assert len(graph.nodes) == 2
    graph_all = Detector(*pipeline, mode="allSenses").analyze("course course")
    assert len(graph_all.nodes) == 4
    assert {n.sense for n in graph_all.nodes} == {t("wn:course-noun-1"), t("wn:course-noun-2")}


def test_trigger_monotonicity():
    extra = TRIGGERS_TTL + "\nwn:course-noun-2 fg:triggers folk:Wayfinding .\n"
    base_store, base_lex = pipeline_from_turtle(LEXICAL, {"g:triggers-test": TRIGGERS_TTL})
    wide_store, wide_lex = pipeline_from_turtle(LEXICAL, {"g:triggers-test": extra})
    base = Detector(base_store, base_lex, mode="allSenses")
    wide = Detector(wide_store, wide_lex, mode="allSenses")
    for text in (LEAK_SENTENCE, "the course is dangerous", "imho"):
        before = set(base.run(text).values)
        after = set(wide.run(text).values)
        assert before <= after


def test_detection_is_deterministic(detector):
    first = detector.run(LEAK_SENTENCE, sentence_id="357")
    second = detector.run(LEAK_SENTENCE, sentence_id="357")
    assert first.summary_line(PREFIXES) == second.summary_line(PREFIXES)
    assert to_ntriples(first.triples()) == to_ntriples(second.triples())


def test_no_trigger_graphs_means_no_activations():
    store, lexicon = pipeline_from_turtle(LEXICAL)
    bare = Detector(store, lexicon)
    result = bare.run(LEAK_SENTENCE, sentence_id="357")
    assert result.values == []
    assert not result.graph.no_graph


def test_summary_is_compact_sorted_json(detector):
    result = detector.run("That is dangerous.", sentence_id="d1")
    line = result.summary_line(PREFIXES)
    payload = json.loads(line)
    assert list(payload) == sorted(payload)
    assert payload["id"] == "d1"
    assert payload["values"] == ["folk:Risk"]
    assert payload["noGraph"] is False
    assert {"node": 0, "chain": ["wn:dangerous-adjective-1", "triggers", "folk:Risk"]} in payload["paths"]


def test_sentence_node_triples_shape(detector):
    graph = detector.analyze("That is dangerous.", sentence_id="d1")
    triples = graph.base_triples()
    node = graph.nodes[0].node
    assert node.value.endswith("d1/n0")
    assert Triple(node, t("rdf:type"), SENTENCE_NODE) in triples


# -- lookup tables against the pattern-match reference ------------------------------


def _detection_kb(rng: random.Random) -> tuple[TripleStore, list[str]]:
    """random_lexical_kb plus multiwords over its lemmas, inflected forms,
    stance entries (one or two roles and polarities, polarities sometimes in a
    graph of their own) and two overlapping trigger graphs; returns the frozen
    store and the words and multiword phrases sentences are drawn from."""
    lexical = random_lexical_kb(rng)
    lemmas = sorted({tr.o.value for tr in lexical if tr.p == LEMMA})
    senses = sorted({tr.o for tr in lexical if tr.p == SENSE})
    frames = sorted({tr.s for tr in lexical if tr.o == FRAME})
    verb_classes = sorted({tr.o for tr in lexical if tr.p == SENSE_KEY})
    words = lemmas + ["zz", "yy"]
    phrases = []
    for i in range(rng.randint(0, 3)):
        # Some multiwords extend the previous one, so longest-first matters.
        lemma = " ".join(rng.choice(words) for _ in range(rng.randint(1, 3)))
        lemma = f"{phrases[-1]} {lemma}" if phrases and rng.random() < 0.5 else f"{rng.choice(words)} {lemma}"
        entry = t(f"lex:mw{i}-multiword")
        sense = t(f"wn:mw{i}-multiword-1")
        lexical += [
            Triple(entry, RDF_TYPE, LEXICAL_ENTRY),
            Triple(entry, LEMMA, lit(lemma)),
            Triple(entry, POS, lit("multiword")),
            Triple(entry, SENSE, sense),
        ]
        senses.append(sense)
        phrases.append(lemma)
        for frame in rng.sample(frames, k=rng.randint(0, len(frames))):
            lexical.append(Triple(sense, EVOKES, frame))
    for lemma in lemmas:
        if rng.random() < 0.5:
            form = lemma + "s"
            lexical.append(Triple(t(f"lex:{lemma}-verb"), FORM, lit(form)))
            words.append(form)
    affect = []
    for verb_class in verb_classes:
        if rng.random() < 0.5:
            roles = rng.sample(["Agent", "Patient"], k=rng.randint(1, 2))
            polarities = rng.sample(["positive", "negative"], k=rng.randint(1, 2))
            lexical += [Triple(verb_class, AFFECT_ROLE, lit(role)) for role in roles]
            (affect if rng.random() < 0.5 else lexical).extend(
                Triple(verb_class, AFFECT_POLARITY, lit(polarity)) for polarity in polarities
            )
    values = [t(f"folk:V{i}") for i in range(3)]
    sources = senses + frames + verb_classes
    triggers = [Triple(rng.choice(sources), TRIGGERS, rng.choice(values)) for _ in range(rng.randint(0, 12))]
    store = TripleStore()
    store.extend(LEXICON_GRAPH, lexical)
    store.extend(t("g:affect"), affect)
    store.extend(t("g:triggers-a"), triggers[: len(triggers) // 2])
    store.extend(t("g:triggers-b"), triggers[len(triggers) // 3 :])  # overlaps the first graph
    store.freeze()
    return store, words + phrases


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_tables_match_pattern_match_reference(seed):
    rng = random.Random(seed)
    store, words = _detection_kb(rng)
    lexicon = Lexicon(store, [LEXICON_GRAPH])
    detectors = {mode: Detector(store, lexicon, mode) for mode in ("firstSense", "allSenses")}
    for k in range(4):
        tokens = [rng.choice(words) for _ in range(rng.randint(1, 12))]
        text = " ".join(w.upper() if rng.random() < 0.1 else w for w in tokens) + "."
        for mode, detector in detectors.items():
            graph = detector.analyze(text, f"h{k}")
            expected = reference_analyze(store, lexicon, text, f"h{k}", mode)
            assert graph.nodes == expected.nodes
            result = detector.detect_values(graph)
            assert result.paths == reference_activation(store, expected)
            assert detector.stance_query(graph) == reference_stances(store, expected)


def test_unfrozen_store_refused():
    store = store_from_turtle(LEXICAL, freeze=False)
    with pytest.raises(DetectorError, match="frozen"):
        Detector(store, Lexicon(store, [LEXICON_GRAPH]))
