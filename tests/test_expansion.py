import random

import pytest

from folkgraph.expansion import (
    Expander,
    ExpansionPlan,
    PlanError,
    Seed,
    StaleSelectionError,
    parse_plan,
)
from folkgraph.lexicon import Lexicon
from folkgraph.rdfio import to_ntriples
from folkgraph.store import TripleStore
from folkgraph.terms import Triple
from folkgraph.vocab import KIND_PREDICATE, PREFIXES, PROVENANCE_PREDICATE, TRIGGERS
from kb import LEXICON_GRAPH, lexicon_from_turtle, t
from oracles import closure_justification_holds, random_lexical_kb

RISK_EXPANSION_KB = """
lex:risk-noun a fg:LexicalEntry ; fg:lemma "risk" ; fg:pos "noun" ;
    fg:sense wn:risk-noun-1, wn:risk-noun-2 ; fg:conceptAnchor cn:risk .
lex:risk-verb a fg:LexicalEntry ; fg:lemma "risk" ; fg:pos "verb" ;
    fg:sense wn:risk-verb-1, wn:risk-verb-2 .
lex:gamble-verb a fg:LexicalEntry ; fg:lemma "gamble" ; fg:pos "verb" ;
    fg:sense wn:gamble-verb-1 .
lex:venture-verb a fg:LexicalEntry ; fg:lemma "venture" ; fg:pos "verb" ;
    fg:sense wn:venture-verb-3 .
lex:dangerous-adjective a fg:LexicalEntry ; fg:lemma "dangerous" ; fg:pos "adjective" ;
    fg:sense wn:dangerous-adjective-1 .

wn:risk-noun-1 fg:evokes fs:RiskySituation .
wn:risk-noun-2 fg:evokes fs:BeingAtRisk .
wn:risk-verb-1 fg:evokes fs:Daring, fs:Endangering .
wn:risk-verb-2 fg:evokes fs:RunRisk, fs:RiskySituation ; fg:senseKey vn:Risk_94000000 .
wn:gamble-verb-1 fg:evokes fs:RunRisk ; fg:senseKey vn:Gamble_70000000 .
wn:venture-verb-3 fg:evokes fs:Daring ; fg:senseKey vn:Venture_94100000 .
wn:dangerous-adjective-1 fg:evokes fs:RiskySituation .

wn:risk-verb-2 owl:sameAs yago:RiskTaking .
yago:RiskTaking owl:sameAs wn:risk-verb-2 .

fs:RiskySituation a fg:Frame ;
    fg:element fse:RiskySituation.Asset, fse:RiskySituation.DangerousEntity .
fse:RiskySituation.Asset rdfs:label "Asset" ; fg:elementType "core" .
fse:RiskySituation.DangerousEntity rdfs:label "Dangerous_entity" ; fg:elementType "peripheral" .
fs:RunRisk a fg:Frame .
fs:BeingAtRisk a fg:Frame .
fs:Daring a fg:Frame .
fs:Endangering a fg:Frame .

cn:risk cn:IsA cn:venture .
cn:riskiness cn:DerivedFrom cn:risk .
cn:risk fg:externalUrl dbpedia:Risk, wiki:Q104493 .
cn:venture fg:externalUrl wikt:risky, wikt:riskful, wikt:risktaker .

pb:risk.01 skos:closeMatch fs:RunRisk .
bn:s00066712n skos:closeMatch fs:RiskySituation .
"""

RISK_FRAMES = ["fs:BeingAtRisk", "fs:Daring", "fs:Endangering", "fs:RiskySituation", "fs:RunRisk"]


@pytest.fixture(scope="module")
def expander():
    store, lexicon = lexicon_from_turtle(RISK_EXPANSION_KB)
    return Expander(store, lexicon)


def write_selections(tmp_path):
    (tmp_path / "frames.txt").write_text(
        "# curated frames\n" + "\n".join(RISK_FRAMES) + "\n"
    )
    (tmp_path / "elements.txt").write_text(
        "fse:RiskySituation.Asset\nfse:RiskySituation.DangerousEntity\n"
    )
    (tmp_path / "concepts.txt").write_text("cn:venture\n")
    (tmp_path / "factual.txt").write_text("dbpedia:Risk\nwiki:Q104493\n")


def risk_plan(tmp_path) -> ExpansionPlan:
    write_selections(tmp_path)
    return ExpansionPlan(
        value=t("folk:Risk"),
        seeds=[Seed("risk")],
        selection_files={
            "frame": tmp_path / "frames.txt",
            "frameElement": tmp_path / "elements.txt",
            "concept": tmp_path / "concepts.txt",
            "factual": tmp_path / "factual.txt",
        },
        auto={"lexicalUnit", "yago", "closeMatch"},
    )


def test_frame_activation_query_exact_frames(expander):
    assert expander.frame_activation_query(Seed("risk")) == [t(f) for f in RISK_FRAMES]


def test_frame_activation_query_unknown_lemma(expander):
    assert expander.frame_activation_query(Seed("zzzz")) == []


def test_lexical_unit_expansion_contains_synsets_and_classes(expander):
    synsets, verb_classes = expander.lexical_unit_split([t(f) for f in RISK_FRAMES])
    assert set(synsets) >= {t("wn:risk-verb-2"), t("wn:gamble-verb-1"), t("wn:venture-verb-3")}
    assert verb_classes == [t("vn:Gamble_70000000"), t("vn:Risk_94000000"), t("vn:Venture_94100000")]
    assert not set(synsets) & set(verb_classes)
    assert expander.lexical_unit_split([]) == ([], [])


def test_factual_expansion_exact_set(expander):
    assert expander.factual_expansion_query(t("cn:risk")) == [t("dbpedia:Risk"), t("wiki:Q104493")]
    assert expander.factual_expansion_query(t("cn:nothing")) == []


def test_concept_activation_covers_both_directions(expander):
    assert expander.concept_activation_query(Seed("risk")) == [t("cn:riskiness"), t("cn:venture")]


def test_yago_expansion_symmetric(expander):
    assert expander.yago_expansion([t("wn:risk-verb-2")]) == [t("yago:RiskTaking")]
    assert expander.yago_expansion([t("yago:RiskTaking")]) == [t("wn:risk-verb-2")]
    assert expander.yago_expansion([]) == []


def test_close_match_expansion(expander):
    got = expander.close_match_expansion([t("fs:RunRisk"), t("fs:RiskySituation")])
    assert got == [t("bn:s00066712n"), t("pb:risk.01")]


def test_run_plan_emits_tagged_edges(expander, tmp_path):
    report = expander.run_plan(risk_plan(tmp_path))
    by_entity = {edge.entity: edge for edge in report.edges}
    assert by_entity[t("fs:RunRisk")].kind == "frame"
    assert by_entity[t("fs:RunRisk")].provenance == "seedSelection"
    assert by_entity[t("wn:gamble-verb-1")].kind == "synset"
    assert by_entity[t("wn:gamble-verb-1")].provenance == "derivedClosure"
    assert by_entity[t("vn:Venture_94100000")].kind == "verbClass"
    assert by_entity[t("yago:RiskTaking")].provenance == "yagoQuery"
    assert by_entity[t("pb:risk.01")].kind == "closeMatch"
    assert by_entity[t("cn:venture")].kind == "concept"
    assert by_entity[t("dbpedia:Risk")].kind == "factualEntity"
    assert by_entity[t("fse:RiskySituation.Asset")].kind == "frameElement"
    for outcome in report.queries.values():
        assert set(outcome.accepted) <= set(outcome.candidates)
    triples = expander.graph_triples(report)
    assert Triple(t("fs:RunRisk"), TRIGGERS, t("folk:Risk")) in triples
    assert Triple(t("fs:RunRisk"), KIND_PREDICATE["frame"], t("folk:Risk")) in triples
    assert (
        Triple(t("wn:risk-verb-2"), PROVENANCE_PREDICATE["derivedClosure"], t("folk:Risk"))
        in triples
    )


def test_run_plan_is_deterministic(expander, tmp_path):
    plan = risk_plan(tmp_path)
    first = expander.run_plan(plan)
    second = expander.run_plan(plan)
    assert first.edges == second.edges
    assert to_ntriples(expander.graph_triples(first)) == to_ntriples(expander.graph_triples(second))


def test_run_plan_empty_seeds(expander):
    report = expander.run_plan(ExpansionPlan(value=t("folk:Risk"), seeds=[]))
    assert report.queries == {}
    assert report.edges == []


def test_propose_mode_records_candidates_without_edges(expander):
    plan = ExpansionPlan(value=t("folk:Risk"), seeds=[Seed("risk")], auto={"frame"})
    report = expander.run_plan(plan)
    assert set(report.proposed()) == {
        "frameElement", "lexicalUnit", "yago", "closeMatch", "concept", "factual",
    }
    assert report.queries["lexicalUnit"].candidates != []
    assert report.queries["lexicalUnit"].accepted == []
    assert {edge.kind for edge in report.edges} == {"frame"}


def test_stale_selection_is_an_error(expander, tmp_path):
    (tmp_path / "frames.txt").write_text("fs:RunRisk\nfs:NotACandidate\n")
    plan = ExpansionPlan(
        value=t("folk:Risk"),
        seeds=[Seed("risk")],
        selection_files={"frame": tmp_path / "frames.txt"},
    )
    with pytest.raises(StaleSelectionError, match="NotACandidate"):
        expander.run_plan(plan)


def test_plan_rejects_auto_and_selection_overlap(tmp_path):
    with pytest.raises(PlanError, match="both auto and selected"):
        ExpansionPlan(
            value=t("folk:Risk"),
            seeds=[Seed("risk")],
            selection_files={"frame": tmp_path / "frames.txt"},
            auto={"frame"},
        )


def test_plan_rejects_unknown_kind():
    with pytest.raises(PlanError, match="unknown query kind"):
        ExpansionPlan(value=t("folk:Risk"), seeds=[], auto={"dbpedia"})


def test_parse_plan_file(tmp_path):
    (tmp_path / "risk.plan").write_text(
        """
        # trigger expansion for the risk value
        value = folk:Risk
        seed = risk
        seed = gamble | verb
        select.frame = selections/frames.txt
        auto = lexicalUnit yago
        """
    )
    plan = parse_plan(tmp_path / "risk.plan", PREFIXES)
    assert plan.value == t("folk:Risk")
    assert plan.seeds == [Seed("risk"), Seed("gamble", "verb")]
    assert plan.selection_files["frame"] == tmp_path / "selections/frames.txt"
    assert plan.auto == {"lexicalUnit", "yago"}


def test_parse_plan_requires_value(tmp_path):
    (tmp_path / "bad.plan").write_text("seed = risk\n")
    with pytest.raises(PlanError, match="missing value"):
        parse_plan(tmp_path / "bad.plan", PREFIXES)


def run_closure_check(n_cases: int, seed: int) -> None:
    """Shared driver; the acceptance suite runs it at full size."""
    rng = random.Random(seed)
    for _ in range(n_cases):
        store = TripleStore()
        store.extend(LEXICON_GRAPH, random_lexical_kb(rng))
        store.freeze()
        lexicon = Lexicon(store, [LEXICON_GRAPH])
        expander = Expander(store, lexicon)
        plan = ExpansionPlan(
            value=t("folk:Test"),
            seeds=[Seed(f"w{i}") for i in range(rng.randint(1, 3))],
            auto=set(["frame", "frameElement", "lexicalUnit", "yago", "closeMatch", "concept", "factual"]),
        )
        report = expander.run_plan(plan)
        trigger_triples = set(expander.graph_triples(report))
        for edge in report.edges:
            assert set(edge.triples()) <= trigger_triples
            if edge.provenance == "derivedClosure":
                assert closure_justification_holds(store, trigger_triples, edge), edge


def test_derived_closure_edges_are_justified():
    run_closure_check(n_cases=25, seed=20260814)
