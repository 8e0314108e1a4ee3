from dataclasses import replace

import pytest

from folkgraph import vocab
from folkgraph.terms import Triple, iri, lit
from folkgraph.values import (
    MODULE_GRAPHS,
    ValueCandidate,
    ValueConcept,
    ValueModel,
    ValueModelError,
    build_model,
    dedupe_candidates,
    load_value_manifest,
    value_id_for_label,
)
from kb import lexicon_from_turtle, t


def mft_pair(a="mft:Loyalty", b="mft:Betrayal"):
    return [
        ValueConcept(t(a), "MFT", "positive", dyad_partner=t(b)),
        ValueConcept(t(b), "MFT", "negative", dyad_partner=t(a)),
    ]


def folk(name, parents=(), urls=("http://folk-sources.test/list1",)):
    return ValueConcept(
        t(name), "FOLK", parents=tuple(parents), provenance_urls=tuple(iri(u) for u in urls)
    )


def test_register_mft_dyad_and_query_partner():
    model = build_model(mft_pair())
    assert model.get(t("mft:Loyalty")).dyad_partner == t("mft:Betrayal")
    assert model.get(t("mft:Betrayal")).dyad_partner == t("mft:Loyalty")


def test_mft_without_partner_rejected():
    with pytest.raises(ValueModelError, match="dyad partner"):
        ValueModel().register(ValueConcept(t("mft:Care"), "MFT", "positive"))


def test_asymmetric_dyad_rejected():
    specs = [
        ValueConcept(t("mft:Care"), "MFT", "positive", dyad_partner=t("mft:Harm")),
        ValueConcept(t("mft:Harm"), "MFT", "negative", dyad_partner=t("mft:Care")),
        ValueConcept(t("mft:Loyalty"), "MFT", "positive", dyad_partner=t("mft:Harm")),
    ]
    with pytest.raises(ValueModelError, match="not symmetric|polarity"):
        build_model(specs)


def test_folk_without_provenance_rejected():
    with pytest.raises(ValueModelError, match="provenance"):
        ValueModel().register(ValueConcept(t("folk:Risk"), "FOLK"))


def test_duplicate_registration_rejected():
    model = ValueModel()
    model.register(folk("folk:Risk"))
    with pytest.raises(ValueModelError, match="duplicate"):
        model.register(folk("folk:Risk"))


def test_taxonomy_cycle_rejected():
    model = ValueModel()
    model.register(folk("folk:A", parents=[t("folk:B")]))
    with pytest.raises(ValueModelError, match="cycle"):
        model.register(folk("folk:B", parents=[t("folk:A")]))


def test_forward_parent_reference_allowed():
    model = ValueModel()
    model.register(folk("folk:Brilliance", parents=[t("folk:Intelligence")]))
    model.register(folk("folk:Intelligence"))
    model.validate()


def test_align_rejects_folk_target():
    risk = replace(folk("folk:Risk"), aligned_to=(t("folk:Winning"),))
    with pytest.raises(ValueModelError, match="not MFT or BHV"):
        build_model([risk, folk("folk:Winning")])


def test_only_folk_values_carry_alignments(tmp_path):
    csv_path = tmp_path / "values.csv"
    csv_path.write_text(
        "id,module,polarity,dyadPartner,parents,provenanceUrls,alignments\n"
        "mft:Care,MFT,positive,mft:Harm,,,bhv:Security\n"
        "mft:Harm,MFT,negative,mft:Care,,,\n"
        "bhv:Security,BHV,,,,,\n",
        encoding="utf-8",
    )
    specs = load_value_manifest(csv_path, vocab.PREFIXES)
    with pytest.raises(ValueModelError, match="only FOLK values are aligned"):
        build_model(specs)


def test_punned_triples_emitted():
    model = build_model(mft_pair() + [folk("folk:Risk")])
    graphs = model.module_graphs()
    mft = set(graphs[MODULE_GRAPHS["MFT"]])
    assert Triple(t("mft:Loyalty"), vocab.RDF_TYPE, vocab.VALUE) in mft
    assert Triple(t("mft:Loyalty"), vocab.RDFS_SUBCLASS_OF, vocab.VALUE_SITUATION) in mft
    assert Triple(t("mft:Loyalty"), vocab.POLARITY, lit("positive")) in mft
    assert Triple(t("mft:Loyalty"), vocab.DYAD_PARTNER, t("mft:Betrayal")) in mft
    folk_graph = set(graphs[MODULE_GRAPHS["FOLK"]])
    assert (
        Triple(t("folk:Risk"), vocab.PROV_ATTRIBUTED_TO, iri("http://folk-sources.test/list1"))
        in folk_graph
    )


def test_bhv_ring_wraps_in_registration_order():
    specs = [ValueConcept(t(f"bhv:V{i}"), "BHV") for i in range(3)]
    graphs = build_model(specs).module_graphs()
    ring = {
        (triple.s, triple.o)
        for triple in graphs[MODULE_GRAPHS["BHV"]]
        if triple.p == vocab.NEXT_IN_RING
    }
    assert ring == {(t("bhv:V0"), t("bhv:V1")), (t("bhv:V1"), t("bhv:V2")), (t("bhv:V2"), t("bhv:V0"))}


SYNONYM_KB = """
lex:winning a fg:LexicalEntry ; fg:lemma "winning" ; fg:pos "noun" ; fg:sense wn:victory-noun-1 .
lex:victory a fg:LexicalEntry ; fg:lemma "victory" ; fg:pos "noun" ; fg:sense wn:victory-noun-1 .
lex:risk a fg:LexicalEntry ; fg:lemma "risk" ; fg:pos "noun" ; fg:sense wn:risk-noun-1 .
lex:rigor a fg:LexicalEntry ; fg:lemma "rigor" ; fg:pos "noun" ; fg:sense wn:rigor-noun-1 .
"""


def test_dedupe_merges_synonyms_and_keeps_provenance():
    _, lexicon = lexicon_from_turtle(SYNONYM_KB)
    candidates = [
        ValueCandidate("Winning", "def", "http://folk-sources.test/list1"),
        ValueCandidate("Risk", "def", "http://folk-sources.test/list2"),
        ValueCandidate("Victory", "def", "http://folk-sources.test/list3"),
    ]
    specs, records = dedupe_candidates(candidates, lexicon)
    assert [s.id for s in specs] == [t("folk:Winning"), t("folk:Risk")]
    winning = specs[0]
    assert winning.provenance_urls == (
        iri("http://folk-sources.test/list1"),
        iri("http://folk-sources.test/list3"),
    )
    assert [(r.merged_label, r.canonical_label, r.reason) for r in records] == [
        ("Victory", "Winning", "synonym")
    ]


def test_dedupe_disjoint_labels_unchanged():
    _, lexicon = lexicon_from_turtle(SYNONYM_KB)
    candidates = [
        ValueCandidate("Risk", "def", "http://folk-sources.test/list1"),
        ValueCandidate("Rigor", "def", "http://folk-sources.test/list2"),
    ]
    specs, records = dedupe_candidates(candidates, lexicon)
    assert len(specs) == 2
    assert records == []


def test_dedupe_override_forces_merge():
    _, lexicon = lexicon_from_turtle(SYNONYM_KB)
    candidates = [
        ValueCandidate("Risk", "def", "http://folk-sources.test/list1"),
        ValueCandidate("Rigor", "def", "http://folk-sources.test/list2"),
    ]
    specs, records = dedupe_candidates(candidates, lexicon, overrides={"Rigor": "Risk"})
    assert [s.id for s in specs] == [t("folk:Risk")]
    assert records[0].reason == "override"


def test_value_id_pascal_cases_multiword_labels():
    assert value_id_for_label("Open Mindedness") == t("folk:OpenMindedness")
    assert value_id_for_label("risk") == t("folk:Risk")
